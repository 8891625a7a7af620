//! The benchmark's own tests: tiny runs of every workload print every
//! metric `BENCHMARK.json` names, with its unit, and pass every check; and
//! the gates really fire on a wrong digest and on an error frame.

use crowdbench::gates::{self, Gates};
use crowdbench::{Options, RunResult, Size, Workload};
use mop_json::Value;
use mop_server::Client;

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = mop_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let entries = doc[list].as_array().expect("the metric list is an array");
    entries
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

fn tiny(workload: Workload, trace: bool) -> RunResult {
    crowdbench::run(&Options {
        workload,
        seed: 5,
        seconds: 0.5,
        trace,
        size: Size::Tiny,
    })
}

fn assert_reports(result: &RunResult, list: &str) {
    assert!(result.correct(), "checks failed: {:?}", result.notes);
    let mut printed: Vec<(String, String)> = result
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let mut want = declared(list);
    printed.sort();
    want.sort();
    assert_eq!(
        printed, want,
        "printed metrics differ from BENCHMARK.json's {list}"
    );
    let line = mop_json::from_str(&result.json_line()).expect("the result line is JSON");
    assert_eq!(line["correct"], Value::Bool(true));
    for (name, unit) in &want {
        assert_eq!(
            line["metrics"][name.as_str()]["unit"].as_str(),
            Some(unit.as_str())
        );
        assert!(
            line["metrics"][name.as_str()]["value"].as_f64().is_some(),
            "{name} has no value"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_passes_its_checks() {
    for workload in Workload::ALL {
        let result = tiny(workload, false);
        assert_reports(&result, "end_to_end");
        for name in [
            "flows_per_s",
            "setup_s",
            "step_p50_ms",
            "requests_per_s",
            "peak_heap_mb",
        ] {
            assert!(
                result.metric(name).unwrap().value > 0.0,
                "{}: {name} is 0",
                workload.name()
            );
        }
    }
}

#[test]
fn every_traced_workload_prints_every_per_layer_metric_with_the_intended_split() {
    let value = |result: &RunResult, name: &str| result.metric(name).unwrap().value;
    for workload in Workload::ALL {
        let result = tiny(workload, true);
        assert_reports(&result, "per_layer");
        assert!(!result.spans.is_empty());
        let retransmits = value(&result, "tcpstack.retransmit_share");
        let server_layer = [
            "server.plane_step_ms",
            "server.event_bytes_per_step",
            "json.parse_mb_per_s",
        ]
        .map(|name| value(&result, name));
        match workload {
            Workload::LossyCommute => assert!(retransmits > 0.0),
            _ => assert_eq!(retransmits, 0.0, "{}", workload.name()),
        }
        match workload {
            Workload::ServerStream => {
                assert!(server_layer.iter().all(|&v| v > 0.0), "{server_layer:?}")
            }
            _ => assert!(server_layer.iter().all(|&v| v == 0.0), "{server_layer:?}"),
        }
    }
}

#[test]
fn a_wrong_expected_digest_is_counted_as_a_failure() {
    let mut gates = Gates::new();
    gates::anchor(&mut gates, 1, gates::ANCHOR_DIGEST);
    assert_eq!(
        (gates.attempted(), gates.failed()),
        (1, 0),
        "{:?}",
        gates.failures()
    );
    gates::anchor(&mut gates, 2, gates::ANCHOR_DIGEST ^ 1);
    assert_eq!((gates.attempted(), gates.failed()), (2, 1));
    assert!(gates.failures()[0].contains("anchor at 2 shard(s)"));
}

#[test]
fn a_forged_error_frame_is_counted_as_a_failure() {
    let canned = "{\"stream\":\"delta\",\"event\":{\"step\":1}}\n\
                  {\"id\":1,\"result\":{\"digest\":\"0000000000000000\"}}\n\
                  {\"id\":2,\"error\":{\"code\":\"bad-params\",\"message\":\"forged\"}}\n";
    let mut client = Client::new(canned.as_bytes(), Vec::new());
    let mut gates = Gates::new();
    for _ in 0..2 {
        let reply = gates
            .op("fleet.step", || client.call("fleet.step", Value::Null))
            .unwrap()
            .unwrap();
        gates.reply("fleet.step", &reply);
    }
    assert_eq!((gates.attempted(), gates.failed()), (2, 1));
    assert!(gates.failures()[0].contains("forged"));
}
