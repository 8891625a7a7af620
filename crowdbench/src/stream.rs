//! The `server_stream` workload: one control-plane session after another
//! over a Unix socket, each a closed loop of requests from one client.
//!
//! A session injects a clean rush-hour and a flash-crowd scenario,
//! subscribes at `full` detail, then steps one epoch at a time until both
//! drain. Every tenth step it also sends `diagnose.query`, and once, mid
//! session, `fleet.checkpoint`. Sessions cycle through a few scenario
//! draws, so one draw's heaviest epoch does not set a run's tail latency;
//! every session of a draw must reproduce that draw's first step digests.
//!
//! The timed sessions only check what each reply says. One more, untimed
//! session per draw afterwards keeps what it receives and checks it in
//! depth: the
//! folded full deltas reproduce the final digest, which equals the batch
//! oracle, and the mid-session checkpoint, resumed on a fresh 1-shard
//! plane and drained, reaches it too.
//!
//! The traced run replays the script through three nested entry points —
//! the socket, `Server::handle_line` and `ControlPlane::step` — and the
//! plane's own fleet runs through `ResidentFleet::run_next`, so the time
//! differences split a step into transport, dispatch and plane time.

use std::io::{self, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mop_dataset::Scenario;
use mop_json::{json, Value};
use mop_server::{digest_str, serve, Client, ControlPlane, PlaneConfig, Reply, Server};
use mop_simnet::{SimDuration, SimNetworkBuilder};
use mop_tun::FlowSpec;
use mopeye_core::{
    epoch_boundary, run_report_from_json, run_report_to_json, split_at, CongestionAlgo,
    FleetConfig, ResidentFleet, RunReport,
};

use crate::gates::{self, Gates};
use crate::metrics::{mean, median, ratio, tail, LayerTally, Metric};
use crate::{absent, overhead_share, trace, Options, RunResult, Size, SHARDS};

/// The per-layer metrics only this workload exercises.
pub(crate) const STREAM_ONLY: [(&str, &str); 9] = [
    ("analytics.diagnose_ms", "ms"),
    ("json.encode_mb_per_s", "MB/s"),
    ("json.parse_mb_per_s", "MB/s"),
    ("server.transport_ms", "ms"),
    ("server.dispatch_ms", "ms"),
    ("server.plane_step_ms", "ms"),
    ("server.event_bytes_per_step", "bytes"),
    ("server.checkpoint_ms", "ms"),
    ("server.checkpoint_bytes", "bytes"),
];

/// A `diagnose.query` follows every this-many steps.
const DIAGNOSE_EVERY: u64 = 10;

/// What a session runs.
#[derive(Debug, Clone, Copy)]
struct StreamParams {
    /// Scenario draws the sessions cycle through.
    variants: usize,
    rush_users: usize,
    flash_users: usize,
    epoch_width: SimDuration,
    epoch_window: usize,
}

impl StreamParams {
    /// The parameters at a size.
    fn of(size: Size) -> Self {
        match size {
            Size::Full => Self {
                variants: 4,
                rush_users: 300,
                flash_users: 300,
                epoch_width: SimDuration::from_millis(20),
                epoch_window: 32,
            },
            Size::Tiny => Self {
                variants: 2,
                rush_users: 20,
                flash_users: 20,
                epoch_width: SimDuration::from_millis(250),
                epoch_window: 8,
            },
        }
    }

    fn plane(&self, seed: u64) -> PlaneConfig {
        PlaneConfig {
            shards: SHARDS,
            seed,
            congestion: CongestionAlgo::Reno,
            epoch_width: self.epoch_width,
            epoch_window: self.epoch_window,
        }
    }
}

/// One request of the session script.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Inject {
        kind: &'static str,
        users: usize,
        seed: u64,
    },
    Subscribe,
    Step,
    Diagnose,
    Checkpoint,
    Shutdown,
}

impl Call {
    fn method(self) -> &'static str {
        match self {
            Call::Inject { .. } => "scenario.inject",
            Call::Subscribe => "report.subscribe",
            Call::Step => "fleet.step",
            Call::Diagnose => "diagnose.query",
            Call::Checkpoint => "fleet.checkpoint",
            Call::Shutdown => "server.shutdown",
        }
    }

    fn params(self) -> Value {
        match self {
            Call::Inject { kind, users, seed } => {
                json!({ "scenario": kind, "users": users as i64, "seed": seed as i64 })
            }
            Call::Subscribe => json!({ "detail": "full" }),
            Call::Step => json!({ "epochs": 1 }),
            Call::Diagnose | Call::Checkpoint | Call::Shutdown => Value::Null,
        }
    }

    /// The request frame, byte for byte as `Client::call` writes it.
    fn line(self, id: u64) -> String {
        let params = self.params();
        if params.is_null() {
            format!("{{\"id\":{id},\"method\":\"{}\"}}", self.method())
        } else {
            format!(
                "{{\"id\":{id},\"method\":\"{}\",\"params\":{}}}",
                self.method(),
                mop_json::to_string(&params)
            )
        }
    }

    fn socket_span(self) -> &'static str {
        match self {
            Call::Inject { .. } => "socket.inject",
            Call::Subscribe => "socket.subscribe",
            Call::Step => "socket.step",
            Call::Diagnose => "socket.diagnose",
            Call::Checkpoint => "socket.checkpoint",
            Call::Shutdown => "socket.shutdown",
        }
    }

    fn dispatch_span(self) -> &'static str {
        match self {
            Call::Inject { .. } => "dispatch.inject",
            Call::Subscribe => "dispatch.subscribe",
            Call::Step => "dispatch.step",
            Call::Diagnose => "dispatch.diagnose",
            Call::Checkpoint => "dispatch.checkpoint",
            Call::Shutdown => "dispatch.shutdown",
        }
    }
}

/// One injected scenario as the benchmark generated it.
struct Injected {
    call: Call,
    flows: Vec<FlowSpec>,
    network: SimNetworkBuilder,
}

/// The generated inputs of one session.
struct Inputs {
    scenarios: Vec<Injected>,
    script: Vec<Call>,
}

impl Inputs {
    fn flows(&self) -> usize {
        self.scenarios.iter().map(|s| s.flows.len()).sum()
    }

    fn calls(&self) -> impl Iterator<Item = Call> + '_ {
        self.scenarios.iter().map(|s| s.call)
    }
}

/// The inputs of scenario draw `variant`; the fleet seed stays `seed`.
fn inputs(params: &StreamParams, seed: u64, variant: usize) -> Inputs {
    let seed = crate::variant_seed(seed, variant);
    let specs = [
        (
            "rush-hour",
            params.rush_users,
            seed,
            Scenario::rush_hour as fn(usize, u64) -> Scenario,
        ),
        (
            "flash-crowd",
            params.flash_users,
            seed.wrapping_add(1),
            Scenario::flash_crowd,
        ),
    ];
    let scenarios: Vec<Injected> = specs
        .into_iter()
        .map(|(kind, users, seed, make)| {
            let scenario = make(users, seed);
            Injected {
                call: Call::Inject { kind, users, seed },
                flows: trace::span("dataset.generate", || scenario.generate()),
                network: trace::span("dataset.network", || scenario.network()),
            }
        })
        .collect();
    // As `ControlPlane::epochs_to_drain`: one step per epoch up to the one
    // holding the last flow start.
    let width = params.epoch_width.as_nanos().max(1);
    let last = scenarios
        .iter()
        .flat_map(|s| s.flows.iter())
        .map(|f| f.at.as_nanos())
        .max();
    let steps = last.map_or(0, |at| at / width + 1);
    let mut script: Vec<Call> = scenarios.iter().map(|s| s.call).collect();
    script.push(Call::Subscribe);
    for step in 1..=steps {
        script.push(Call::Step);
        if step % DIAGNOSE_EVERY == 0 {
            script.push(Call::Diagnose);
        }
        if step == steps / 2 {
            script.push(Call::Checkpoint);
        }
    }
    script.push(Call::Shutdown);
    Inputs { scenarios, script }
}

/// Where the session socket lives: inside the benchmark's output
/// directory, as a path relative to the working directory when possible
/// (socket paths are limited to about 100 bytes).
fn socket_path() -> PathBuf {
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("the benchmark output directory must be writable");
    // Unique per session, so concurrent sessions in one process never meet.
    static SESSIONS: AtomicU64 = AtomicU64::new(0);
    let session = SESSIONS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("stream-{}-{session}.sock", std::process::id()));
    match std::env::current_dir() {
        Ok(cwd) => path.strip_prefix(&cwd).map(PathBuf::from).unwrap_or(path),
        Err(_) => path,
    }
}

type SocketClient = Client<BufReader<UnixStream>, UnixStream>;

/// A live session: the server thread and the client connected to it.
struct Session {
    client: SocketClient,
    server: JoinHandle<io::Result<bool>>,
}

/// Builds a server, binds its socket and connects the client — the
/// session's set-up.
fn open_session(config: PlaneConfig) -> io::Result<Session> {
    let path = socket_path();
    let server = trace::span("server.new", || Server::new(config));
    if path.exists() {
        std::fs::remove_file(&path)?;
    }
    let listener = trace::span("transport.bind", || UnixListener::bind(&path))?;
    // The connection waits in the listen backlog until the server thread
    // accepts it, so the thread only starts once a peer exists.
    let stream = trace::span("transport.connect", || UnixStream::connect(&path));
    std::fs::remove_file(&path)?;
    let stream = stream?;
    let client = Client::new(BufReader::new(stream.try_clone()?), stream);
    let server = thread::spawn(move || {
        let mut server = server;
        let (conn, _) = listener.accept()?;
        let reader = BufReader::new(conn.try_clone()?);
        serve(&mut server, reader, conn)
    });
    Ok(Session { client, server })
}

/// What one played session produced.
#[derive(Default)]
struct SessionLog {
    step_ms: Vec<f64>,
    diagnose_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    requests: u64,
    flows_ran: u64,
    secs: f64,
    step_digests: Vec<String>,
    /// Kept only when verifying: the folded deltas and the checkpoint.
    folded: Option<RunReport>,
    checkpoint: Option<Value>,
}

impl SessionLog {
    fn final_digest(&self) -> &str {
        self.step_digests.last().map_or("", String::as_str)
    }
}

/// Plays the script over the session's client and closes the session.
fn play(
    mut session: Session,
    script: &[Call],
    flows: usize,
    gates: &mut Gates,
    verify: bool,
) -> SessionLog {
    let mut log = SessionLog {
        folded: verify.then(RunReport::empty),
        ..SessionLog::default()
    };
    let mut pending_left = None;
    let session_started = Instant::now();
    for &call in script {
        let started = Instant::now();
        let client = &mut session.client;
        let reply = gates.op(call.method(), || {
            trace::span(call.socket_span(), || {
                client.call(call.method(), call.params())
            })
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let reply = match reply {
            Some(Ok(reply)) => reply,
            Some(Err(e)) => {
                gates.fail(format!("{}: transport error {e}", call.method()));
                break;
            }
            None => break,
        };
        log.requests += 1;
        if !gates.reply(call.method(), &reply) {
            continue;
        }
        match call {
            Call::Step => {
                log.step_ms.push(ms);
                check_step(&reply, gates, &mut log, &mut pending_left);
            }
            Call::Diagnose => {
                log.diagnose_ms.push(ms);
                gates.check(
                    reply.response["result"]["apps"].as_array().is_some(),
                    || "diagnose.query returned no app list".into(),
                );
            }
            Call::Checkpoint => {
                log.checkpoint_ms.push(ms);
                let doc = &reply.response["result"]["checkpoint"];
                gates.check(
                    doc["format"].as_str() == Some("mop-server-checkpoint"),
                    || "fleet.checkpoint returned no checkpoint document".into(),
                );
                if verify {
                    log.checkpoint = Some(doc.clone());
                }
            }
            Call::Shutdown => {
                gates.check(
                    reply.response["result"]["stopped"] == Value::Bool(true),
                    || "server.shutdown did not stop".into(),
                );
            }
            Call::Inject { .. } | Call::Subscribe => {}
        }
    }
    log.secs = session_started.elapsed().as_secs_f64();
    drop(session.client); // A session cut short ends on hang-up.
    match session.server.join() {
        Ok(Ok(true)) => {}
        Ok(Ok(false)) => gates.fail("server session ended without a shutdown".into()),
        Ok(Err(e)) => gates.fail(format!("server transport error {e}")),
        Err(_) => gates.fail("server thread panicked".into()),
    }
    gates.check(
        pending_left == Some(0) && log.flows_ran == flows as u64,
        || {
            format!(
                "session ran {} of {flows} flows, {pending_left:?} left pending",
                log.flows_ran
            )
        },
    );
    log
}

/// Checks a step reply: one delta event exactly when flows ran, and a
/// digest. Verifying sessions fold the delta.
fn check_step(
    reply: &Reply,
    gates: &mut Gates,
    log: &mut SessionLog,
    pending_left: &mut Option<u64>,
) {
    let result = &reply.response["result"];
    let ran = result["ran"].as_u64().unwrap_or(0);
    log.flows_ran += ran;
    *pending_left = result["pending"].as_u64();
    log.step_digests
        .push(result["digest"].as_str().unwrap_or("").to_string());
    let deltas = reply
        .events
        .iter()
        .filter(|e| e["stream"].as_str() == Some("delta"))
        .count();
    gates.check(
        deltas == reply.events.len() && deltas == usize::from(ran > 0),
        || {
            format!(
                "step ran {ran} flows but streamed {} events ({deltas} deltas)",
                reply.events.len()
            )
        },
    );
    if let Some(folded) = log.folded.as_mut() {
        for event in &reply.events {
            match run_report_from_json(&event["event"]["report"]) {
                Some(delta) => folded.absorb(delta),
                None => gates.fail("a streamed delta does not decode".into()),
            }
        }
    }
}

/// Timed sessions: each sets up, plays the script and is checked against
/// the first session's step digests.
#[derive(Default)]
struct Measured {
    setup_secs: Vec<f64>,
    step_ms: Vec<f64>,
    diagnose_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Per session: flows and requests per wall second.
    flows_per_s: Vec<f64>,
    requests_per_s: Vec<f64>,
    requests: u64,
    secs: f64,
}

impl Measured {
    /// The median session's rate: every session sends the same script.
    fn flows_per_s(&self) -> f64 {
        median(&self.flows_per_s)
    }
}

fn measure(
    params: &StreamParams,
    seed: u64,
    seconds: f64,
    gates: &mut Gates,
    references: &mut [Option<Vec<String>>],
) -> Measured {
    let mut measured = Measured::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for session in 0.. {
        let variant = session % params.variants;
        let started = Instant::now();
        let (inputs, session) = trace::span("stream.setup", || {
            let inputs = inputs(params, seed, variant);
            let session = open_session(params.plane(seed));
            (inputs, session)
        });
        measured.setup_secs.push(started.elapsed().as_secs_f64());
        let session = match session {
            Ok(session) => session,
            Err(e) => {
                gates.fail_op(format!("session set-up failed: {e}"));
                break;
            }
        };
        let log = trace::span("stream.session", || {
            play(session, &inputs.script, inputs.flows(), gates, false)
        });
        let reference = references[variant].get_or_insert_with(|| log.step_digests.clone());
        gates.check(log.step_digests == *reference, || {
            "session step digests differ from the first session".into()
        });
        measured.step_ms.extend(&log.step_ms);
        measured.diagnose_ms.extend(&log.diagnose_ms);
        measured.checkpoint_ms.extend(&log.checkpoint_ms);
        measured
            .flows_per_s
            .push(ratio(log.flows_ran as f64, log.secs));
        measured
            .requests_per_s
            .push(ratio(log.requests as f64, log.secs));
        measured.requests += log.requests;
        measured.secs += log.secs;
        if Instant::now() >= deadline || gates.failed() > 0 {
            break;
        }
    }
    measured
}

/// The untimed verifying session of one scenario draw and the digest gates
/// that hang off it.
fn verify(
    params: &StreamParams,
    seed: u64,
    variant: usize,
    gates: &mut Gates,
    reference: &Option<Vec<String>>,
    notes: &mut Vec<String>,
) {
    let inputs = inputs(params, seed, variant);
    let session = match open_session(params.plane(seed)) {
        Ok(session) => session,
        Err(e) => {
            gates.fail_op(format!("session set-up failed: {e}"));
            return;
        }
    };
    let log = play(session, &inputs.script, inputs.flows(), gates, true);
    let last = log.final_digest().to_string();
    if let Some(reference) = reference {
        gates.check(log.step_digests == *reference, || {
            "verifying session differs from the timed sessions".into()
        });
    }
    let Some(mut folded) = log.folded else { return };
    folded.canonicalise();
    gates.check(digest_str(folded.fleet_digest()) == last, || {
        format!(
            "folded deltas digest to {}, the session to {last}",
            digest_str(folded.fleet_digest())
        )
    });
    let all: Vec<FlowSpec> = inputs
        .scenarios
        .iter()
        .flat_map(|s| s.flows.iter().cloned())
        .collect();
    gates.outcomes("streamed deltas", &all, &folded.flows);
    let oracle = gates.op("batch oracle", || {
        let mut plane = ControlPlane::new(params.plane(seed));
        for call in inputs.calls() {
            if let Call::Inject { kind, users, seed } = call {
                plane
                    .inject(kind, users, seed)
                    .expect("the scenario kinds are valid");
            }
        }
        plane.step(plane.epochs_to_drain());
        plane
    });
    if let Some(oracle) = oracle {
        let (session, batch) = (ordered_digest(&folded), ordered_digest(oracle.report()));
        gates.check(session == batch, || {
            format!("session report {session:016x} differs from the batch oracle's {batch:016x}")
        });
        if oracle.digest() != folded.fleet_digest() {
            notes.push(format!(
                "fleet digest depends on absorption order: session {last}, batch oracle {} \
                 (same report content; co-injected scenarios share {} flow four-tuples)",
                digest_str(oracle.digest()),
                shared_tuples(&folded)
            ));
        }
    }
    let Some(checkpoint) = log.checkpoint else {
        gates.fail_op("the verifying session kept no checkpoint".into());
        return;
    };
    // The resumed plane drains the way the session went on: one epoch per
    // step, so its outcomes are absorbed in the session's order.
    let resumed = gates.op("checkpoint resume", || {
        let mut plane = ControlPlane::new(PlaneConfig {
            shards: 1,
            ..params.plane(seed)
        });
        plane.resume(&checkpoint).map(|()| {
            while plane.pending_flows() > 0 {
                plane.step(1);
            }
            plane.digest()
        })
    });
    match resumed {
        Some(Ok(digest)) => {
            gates.check(digest_str(digest) == last, || {
                format!(
                    "resumed checkpoint drains to {}, the session to {last}",
                    digest_str(digest)
                )
            });
        }
        Some(Err(e)) => gates.fail(format!("checkpoint does not resume: {e}")),
        None => {}
    }
}

/// The fleet digest of `report` with its flow outcomes in a total order.
///
/// `RunReport::canonicalise` orders outcomes by four-tuple only, and two
/// scenarios injected together reuse handset addresses and ports, so tied
/// outcomes keep the order they were absorbed in — which differs between
/// a stepped session and a one-step batch. Breaking ties on every field
/// compares the report's content alone.
fn ordered_digest(report: &RunReport) -> u64 {
    let mut copy =
        run_report_from_json(&run_report_to_json(report)).expect("the report encoding round-trips");
    copy.flows.sort_by(|a, b| {
        (
            a.flow,
            a.started_at,
            a.finished_at,
            &a.package,
            a.bytes_received,
            a.completed,
        )
            .cmp(&(
                b.flow,
                b.started_at,
                b.finished_at,
                &b.package,
                b.bytes_received,
                b.completed,
            ))
    });
    copy.fleet_digest()
}

/// Flow outcomes whose four-tuple another outcome also has.
fn shared_tuples(report: &RunReport) -> usize {
    let mut tuples: Vec<_> = report.flows.iter().map(|f| f.flow).collect();
    tuples.sort_unstable();
    let all = tuples.len();
    tuples.dedup();
    all - tuples.len()
}

/// What the in-process replays measured.
#[derive(Default)]
struct Replays {
    event_bytes: Vec<f64>,
    checkpoint_bytes: f64,
    parse_bytes: f64,
    encode_mb_per_s: f64,
    tally: LayerTally,
    cells: usize,
    live_epochs: usize,
}

/// Replays the script through `Server::handle_line`, `ControlPlane::step`
/// and `ResidentFleet::run_next`; every level must end on the socket
/// session's digest.
fn replay(params: &StreamParams, seed: u64, gates: &mut Gates, expected: &str) -> Replays {
    let inputs = inputs(params, seed, 0);
    let config = params.plane(seed);
    let mut out = Replays::default();

    // Level 1: the dispatcher in-process, no transport.
    let digest = gates.op("handle_line replay", || {
        let mut server = trace::span("server.new", || Server::new(config));
        let mut digest = String::new();
        for (id, call) in inputs.script.iter().enumerate() {
            let line = call.line(id as u64 + 1);
            let turn = trace::span(call.dispatch_span(), || server.handle_line(&line));
            let bytes: usize = turn.frames.iter().map(|f| f.len() + 1).sum();
            let last = turn.frames.last().map_or(0, |f| f.len() + 1);
            let frames: Vec<Value> = trace::span("json.parse", || {
                turn.frames
                    .iter()
                    .map(|f| mop_json::from_str(f).expect("frames are JSON"))
                    .collect()
            });
            out.parse_bytes += bytes as f64;
            let result = &frames.last().expect("every request is answered")["result"];
            match call {
                Call::Step => {
                    out.event_bytes.push((bytes - last) as f64);
                    digest = result["digest"].as_str().unwrap_or("").to_string();
                }
                Call::Checkpoint => out.checkpoint_bytes = last as f64,
                _ => {}
            }
        }
        digest
    });
    if let Some(digest) = digest {
        gates.check(digest == expected, || {
            format!("handle_line replay digests to {digest}, the socket to {expected}")
        });
    }

    // Level 2: the control plane directly.
    let plane = gates.op("plane replay", || {
        let mut plane = trace::span("plane.new", || ControlPlane::new(config));
        for call in &inputs.script {
            match *call {
                Call::Inject { kind, users, seed } => {
                    plane
                        .inject(kind, users, seed)
                        .expect("the scenario kinds are valid");
                }
                Call::Step => {
                    trace::span("plane.step", || plane.step(1));
                }
                Call::Checkpoint => {
                    trace::span("plane.checkpoint", || plane.checkpoint());
                }
                _ => {}
            }
        }
        plane
    });
    if let Some(plane) = plane {
        let digest = digest_str(plane.digest());
        gates.check(digest == expected, || {
            format!("plane replay digests to {digest}, the socket to {expected}")
        });
        // JSON encoding of the session's cumulative report.
        let doc = run_report_to_json(plane.report());
        let mut encode_secs = Vec::new();
        let mut encoded = 0;
        for _ in 0..5 {
            let started = Instant::now();
            encoded = trace::span("json.to_string", || mop_json::to_string(&doc)).len();
            encode_secs.push(started.elapsed().as_secs_f64());
        }
        out.encode_mb_per_s = ratio(encoded as f64 / 1e6, median(&encode_secs));
    }

    // Level 3: the plane's fleet runs, one run_next per scenario per step.
    let cumulative = gates.op("run_next replay", || {
        let mut fleet_config = FleetConfig::new(config.shards)
            .with_seed(config.seed)
            .with_congestion(config.congestion)
            .with_epochs(config.epoch_width, config.epoch_window);
        fleet_config.engine = fleet_config.engine.with_retain_samples(false);
        let mut fleet = trace::span("core.fleet_spawn", || ResidentFleet::new(fleet_config));
        let mut pending: Vec<Vec<FlowSpec>> =
            inputs.scenarios.iter().map(|s| s.flows.clone()).collect();
        let mut cumulative = RunReport::empty();
        let steps = inputs.script.iter().filter(|c| **c == Call::Step).count() as u64;
        for step in 1..=steps {
            let cut = epoch_boundary(config.epoch_width.as_nanos(), step);
            let mut delta = RunReport::empty();
            for (scenario, flows) in inputs.scenarios.iter().zip(pending.iter_mut()) {
                let (due, keep) = split_at(std::mem::take(flows), cut);
                *flows = keep;
                if due.is_empty() {
                    continue;
                }
                let count = due.len();
                let started = Instant::now();
                let report =
                    trace::span("core.run_next", || fleet.run_next(&scenario.network, due));
                out.tally
                    .add(&report, count, started.elapsed().as_secs_f64());
                delta.absorb(report.merged);
            }
            delta.canonicalise();
            cumulative.absorb(delta);
            cumulative.canonicalise();
        }
        cumulative
    });
    if let Some(cumulative) = cumulative {
        let digest = digest_str(cumulative.fleet_digest());
        gates.check(digest == expected, || {
            format!("run_next replay digests to {digest}, the socket to {expected}")
        });
        out.cells = cumulative.aggregates.cell_count();
        out.live_epochs = cumulative
            .windows
            .as_ref()
            .map_or(0, |w| w.live_epochs().len());
    }
    out
}

/// Runs the `server_stream` workload.
pub fn run(options: &Options) -> RunResult {
    let params = StreamParams::of(options.size);
    let seed = options.seed;
    let mut gates = Gates::new();
    let mut references: Vec<Option<Vec<String>>> = vec![None; params.variants];
    let mut result = RunResult::default();

    if options.trace {
        let untraced = measure(
            &params,
            seed,
            options.seconds / 2.0,
            &mut gates,
            &mut references,
        );
        trace::enable();
        let traced = measure(
            &params,
            seed,
            options.seconds / 2.0,
            &mut gates,
            &mut references,
        );
        let expected = references[0]
            .as_ref()
            .and_then(|r| r.last().cloned())
            .unwrap_or_default();
        let replays = replay(&params, seed, &mut gates, &expected);
        result.spans = trace::finish();
        let spans = &result.spans;
        let ms = |name: &str| trace::durations_ms(spans, name);
        let socket_step = mean(&ms("socket.step"));
        let dispatch_step = mean(&ms("dispatch.step"));
        let plane_step = mean(&ms("plane.step"));
        let parse_secs: f64 = ms("json.parse").iter().sum::<f64>() / 1e3;
        result.metrics = vec![
            Metric::new("dataset.generate_ms", "ms", median(&ms("dataset.generate"))),
            Metric::new("core.fleet_spawn_ms", "ms", median(&ms("core.fleet_spawn"))),
            Metric::new("core.run_ms", "ms", median(&ms("core.run_next"))),
        ];
        result.metrics.extend(replays.tally.metrics());
        result.metrics.extend([
            Metric::new("measure.cells", "count", replays.cells as f64),
            Metric::new("measure.live_epochs", "count", replays.live_epochs as f64),
        ]);
        result
            .metrics
            .extend(absent(&[("analytics.report_ms", "ms")]));
        result.metrics.extend([
            Metric::new("analytics.diagnose_ms", "ms", median(&traced.diagnose_ms)),
            Metric::new("json.encode_mb_per_s", "MB/s", replays.encode_mb_per_s),
            Metric::new(
                "json.parse_mb_per_s",
                "MB/s",
                ratio(replays.parse_bytes / 1e6, parse_secs),
            ),
            Metric::new("server.transport_ms", "ms", socket_step - dispatch_step),
            Metric::new("server.dispatch_ms", "ms", dispatch_step - plane_step),
            Metric::new("server.plane_step_ms", "ms", plane_step),
            Metric::new(
                "server.event_bytes_per_step",
                "bytes",
                mean(&replays.event_bytes),
            ),
            Metric::new("server.checkpoint_ms", "ms", median(&traced.checkpoint_ms)),
            Metric::new("server.checkpoint_bytes", "bytes", replays.checkpoint_bytes),
            overhead_share(untraced.flows_per_s(), traced.flows_per_s()),
        ]);
        result.notes.push(format!(
            "traced {} sessions, untraced {}; replayed {} steps in-process, through the plane \
             and through run_next",
            traced.flows_per_s.len(),
            untraced.flows_per_s.len(),
            replays.event_bytes.len()
        ));
    } else {
        let peak_before = crate::peak_heap_bytes();
        let measured = measure(&params, seed, options.seconds, &mut gates, &mut references);
        let peak = crate::peak_heap_bytes();
        let steps = measured.step_ms.len();
        let (percentile, tail) = tail(&measured.step_ms);
        result.metrics = vec![
            Metric::new("flows_per_s", "1/s", measured.flows_per_s()),
            Metric::new("setup_s", "s", median(&measured.setup_secs)),
            Metric::new("peak_heap_mb", "MB", peak as f64 / 1e6),
            Metric::new("step_p50_ms", "ms", median(&measured.step_ms)),
            Metric::new("step_p99_ms", "ms", tail),
            Metric::new("requests_per_s", "1/s", median(&measured.requests_per_s)),
        ];
        result.notes.push(format!(
            "{} sessions, {} requests, {steps} fleet.step samples (step_p99_ms is their \
             p{percentile:.0}) in {:.3} s of sessions; the rates are those of the median session; setup_s is the median of {} \
             session set-ups; the peak heap {} during the timed region",
            measured.flows_per_s.len(),
            measured.requests,
            measured.secs,
            measured.setup_secs.len(),
            if peak > peak_before { "was reached" } else { "was not raised" },
        ));
    }
    for (variant, reference) in references.iter().enumerate() {
        verify(
            &params,
            seed,
            variant,
            &mut gates,
            reference,
            &mut result.notes,
        );
    }

    for shards in [1, SHARDS] {
        gates::anchor(&mut gates, shards, gates::ANCHOR_DIGEST);
    }
    result.attempted = gates.attempted();
    result.failed = gates.failed();
    result
}
