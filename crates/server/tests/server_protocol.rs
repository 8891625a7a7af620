//! Golden-transcript conformance suite.
//!
//! `tests/transcripts/*.txt` record whole protocol sessions: `> ` lines
//! are client requests, `< ` lines the exact frames the server must emit.
//! The suite replays them byte for byte through three paths — the
//! dispatcher directly, the generic stream transport, and a real Unix
//! socket served on a background thread — so every transport is certified
//! against the same recordings. `session.txt` is additionally replayed at
//! several shard counts: its replies carry fleet digests, and the
//! flow-keyed engine guarantees those are shard-invariant.
//!
//! To re-record after an intentional protocol change:
//! `MOP_REGEN_TRANSCRIPTS=1 cargo test -p mop_server --test server_protocol`

use std::fs;
use std::path::{Path, PathBuf};

use mop_server::{serve, PlaneConfig, Server};

/// One request and the frames it must produce.
struct Exchange {
    request: String,
    expected: Vec<String>,
}

fn transcript_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts").join(name)
}

fn parse_transcript(text: &str) -> Vec<Exchange> {
    let mut out: Vec<Exchange> = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(request) = line.strip_prefix("> ") {
            out.push(Exchange { request: request.to_string(), expected: Vec::new() });
        } else if let Some(frame) = line.strip_prefix("< ") {
            out.last_mut()
                .expect("a `< ` frame needs a preceding `> ` request")
                .expected
                .push(frame.to_string());
        } else {
            panic!("unrecognised transcript line: {line}");
        }
    }
    out
}

fn config(shards: usize) -> PlaneConfig {
    PlaneConfig { shards, ..PlaneConfig::default() }
}

/// Runs every request through a fresh dispatcher, returning the frames
/// per exchange.
fn live_frames(name: &str, shards: usize) -> (Vec<Exchange>, Vec<Vec<String>>) {
    let path = transcript_path(name);
    let exchanges = parse_transcript(&fs::read_to_string(&path).unwrap());
    let mut server = Server::new(config(shards));
    let frames: Vec<Vec<String>> =
        exchanges.iter().map(|e| server.handle_line(&e.request).frames).collect();
    (exchanges, frames)
}

/// Loads a transcript; under MOP_REGEN_TRANSCRIPTS=1 first re-records the
/// `< ` lines from a live session (preserving the comment header).
fn load(name: &str, shards: usize) -> Vec<Exchange> {
    let path = transcript_path(name);
    if std::env::var_os("MOP_REGEN_TRANSCRIPTS").is_some() {
        let original = fs::read_to_string(&path).unwrap();
        let (exchanges, frames) = live_frames(name, shards);
        let mut text = String::new();
        for line in original.lines() {
            if line.is_empty() || line.starts_with('#') {
                text.push_str(line);
                text.push('\n');
            } else {
                break;
            }
        }
        for (exchange, frames) in exchanges.iter().zip(&frames) {
            text.push_str("> ");
            text.push_str(&exchange.request);
            text.push('\n');
            for frame in frames {
                text.push_str("< ");
                text.push_str(frame);
                text.push('\n');
            }
        }
        fs::write(&path, text).unwrap();
    }
    let exchanges = parse_transcript(&fs::read_to_string(&path).unwrap());
    assert!(
        exchanges.iter().all(|e| !e.expected.is_empty()),
        "{name} has requests with no recorded reply — run with MOP_REGEN_TRANSCRIPTS=1"
    );
    exchanges
}

fn replay_in_memory(name: &str, record_shards: usize, replay_shards: usize) {
    let exchanges = load(name, record_shards);
    let mut server = Server::new(config(replay_shards));
    for (i, exchange) in exchanges.iter().enumerate() {
        let turn = server.handle_line(&exchange.request);
        assert_eq!(
            turn.frames, exchange.expected,
            "{name} exchange {i} ({}) diverged at {replay_shards} shards",
            exchange.request
        );
    }
}

#[test]
fn the_error_transcript_replays_byte_for_byte() {
    replay_in_memory("errors.txt", 2, 2);
}

#[test]
fn the_session_transcript_is_shard_invariant() {
    for shards in [1, 2, 4] {
        replay_in_memory("session.txt", 2, shards);
    }
}

#[test]
fn transcripts_replay_over_the_stream_transport() {
    for (name, shards) in [("errors.txt", 2), ("session.txt", 4)] {
        let exchanges = load(name, 2);
        let input: String =
            exchanges.iter().map(|e| format!("{}\n", e.request)).collect();
        let expected: String = exchanges
            .iter()
            .flat_map(|e| e.expected.iter())
            .map(|f| format!("{f}\n"))
            .collect();
        let mut server = Server::new(config(shards));
        let mut output = Vec::new();
        let stopped = serve(&mut server, input.as_bytes(), &mut output).unwrap();
        assert!(stopped, "both transcripts end in server.shutdown");
        assert_eq!(String::from_utf8(output).unwrap(), expected, "{name} over serve()");
    }
}

#[cfg(unix)]
#[test]
fn transcripts_replay_over_a_unix_socket() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    for (name, shards) in [("errors.txt", 2), ("session.txt", 1)] {
        let exchanges = load(name, 2);
        let socket = std::env::temp_dir()
            .join(format!("mop-serve-test-{}-{name}.sock", std::process::id()));
        let server_socket = socket.clone();
        let handle = std::thread::spawn(move || {
            let mut server = Server::new(config(shards));
            mop_server::serve_unix(&mut server, &server_socket)
        });

        let mut stream = None;
        for _ in 0..100 {
            match UnixStream::connect(&socket) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let stream = stream.expect("the server thread binds its socket");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for (i, exchange) in exchanges.iter().enumerate() {
            writeln!(writer, "{}", exchange.request).unwrap();
            for expected in &exchange.expected {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert_eq!(
                    line.trim_end(),
                    expected,
                    "{name} exchange {i} over the socket"
                );
            }
        }
        handle.join().unwrap().unwrap();
        assert!(!socket.exists(), "serve_unix unlinks its socket on shutdown");
    }
}

/// The golden `errors.txt` exchanges with `id` 1 (`server.info`) and 2
/// (`no.such`): each answers with exactly one frame.
fn golden_single_frames() -> [(String, String); 2] {
    let exchanges = load("errors.txt", 2);
    let pick = |prefix: &str| {
        let e = exchanges.iter().find(|e| e.request.starts_with(prefix)).unwrap();
        assert_eq!(e.expected.len(), 1);
        (e.request.clone(), e.expected[0].clone())
    };
    [pick("{\"id\":1,"), pick("{\"id\":2,")]
}

/// The start of the frame a malformed request line gets.
const PARSE_ERROR: &str = "{\"id\":0,\"error\":{\"code\":\"parse-error\"";

/// Serves `input` over the in-memory stream transport of a fresh
/// two-shard server and returns the output frames.
fn serve_bytes(input: &[u8]) -> Vec<String> {
    let mut server = Server::new(config(2));
    let mut output = Vec::new();
    let stopped = serve(&mut server, input, &mut output).unwrap();
    assert!(!stopped, "no shutdown was requested");
    String::from_utf8(output).unwrap().lines().map(str::to_string).collect()
}

#[test]
fn a_nesting_bomb_gets_one_parse_error_and_the_session_goes_on() {
    let [(info, info_reply), _] = golden_single_frames();
    for bomb in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
        let input = format!("{bomb}\n{info}\n");
        let frames = serve_bytes(input.as_bytes());
        assert_eq!(frames.len(), 2, "one frame per request line");
        assert!(frames[0].starts_with(PARSE_ERROR), "{}", frames[0]);
        assert!(frames[0].contains("nesting"), "{}", frames[0]);
        assert_eq!(frames[1], info_reply, "the next request answers as in the golden transcript");
    }
}

#[test]
fn an_invalid_utf8_frame_gets_one_parse_error_and_the_session_goes_on() {
    let [(info, info_reply), (unknown, unknown_reply)] = golden_single_frames();
    let mut input = format!("{info}\n").into_bytes();
    input.extend_from_slice(b"{\"id\":7,\"method\":\"\xff\xfe\"}\n");
    input.extend_from_slice(format!("{unknown}\n").as_bytes());
    let frames = serve_bytes(&input);
    assert_eq!(frames.len(), 3, "exactly one frame per request line");
    assert_eq!(frames[0], info_reply);
    assert!(frames[1].starts_with(PARSE_ERROR), "{}", frames[1]);
    assert!(frames[1].contains("UTF-8"), "{}", frames[1]);
    assert_eq!(frames[2], unknown_reply);
}

/// A peer that sends bad bytes and hangs up before reading its answer
/// ends only its own session: the socket server goes back to `accept` and
/// serves the next client byte for byte.
#[cfg(unix)]
#[test]
fn a_bad_session_does_not_stop_the_socket_server() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let socket =
        std::env::temp_dir().join(format!("mop-serve-test-{}-hangup.sock", std::process::id()));
    let server_socket = socket.clone();
    let handle = std::thread::spawn(move || {
        let mut server = Server::new(config(2));
        mop_server::serve_unix(&mut server, &server_socket)
    });
    let connect = || {
        for _ in 0..100 {
            if let Ok(stream) = UnixStream::connect(&socket) {
                return stream;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("the server thread binds its socket");
    };

    // Invalid UTF-8, a nesting bomb and a valid request, then hang up
    // without reading a single response.
    let mut rude = connect();
    rude.write_all(b"\xff\xfe\xfd\n").unwrap();
    rude.write_all(format!("{}\n", "[".repeat(200_000)).as_bytes()).unwrap();
    rude.write_all(b"{\"id\":1,\"method\":\"server.info\"}\n").unwrap();
    drop(rude);

    let exchanges = load("errors.txt", 2);
    let stream = connect();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for (i, exchange) in exchanges.iter().enumerate() {
        writeln!(writer, "{}", exchange.request).unwrap();
        for expected in &exchange.expected {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expected, "errors.txt exchange {i} after a bad session");
        }
    }
    handle.join().unwrap().unwrap();
}
