//! Command line of the crowd-report benchmark.
//!
//! ```text
//! crowdbench --workload crowd_batch|lossy_commute|server_stream
//!            --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints notes, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and the metrics. Exits 1 when any check failed
//! and 2 on a usage error.

use std::process::ExitCode;

use crowdbench::{Options, Size, Workload};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("crowdbench: {message}");
            return ExitCode::from(2);
        }
    };
    let result = crowdbench::run(&options);
    for note in &result.notes {
        println!("{note}");
    }
    if options.trace {
        let path = crowdbench::out_dir().join(format!(
            "trace-{}-seed{}.json",
            options.workload.name(),
            options.seed
        ));
        match crowdbench::trace::write_json(&result.spans, &path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("crowdbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    println!("{}", result.json_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
