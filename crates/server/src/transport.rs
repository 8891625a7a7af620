//! Transports: moving protocol lines between a [`Server`] and a peer.
//!
//! A transport is nothing but a line loop — read one line, hand it to
//! [`Server::handle_frame`], write the resulting frames, flush, repeat
//! until the peer hangs up or a handled frame requests shutdown. Lines are
//! read as raw bytes, so a frame that is not UTF-8 gets a `parse-error`
//! frame like any other malformed request instead of ending the loop. Keeping
//! the loop generic over `BufRead`/`Write` means the stdio transport, the
//! Unix-socket transport and the in-memory conformance tests all exercise
//! the *same* code path; the conformance transcripts therefore certify
//! every transport at once.

use std::io::{self, BufRead, BufReader, Write};

use crate::server::Server;

/// Serves one session over a pair of byte streams. Returns when the
/// reader reaches end-of-file or a request triggered shutdown; the value
/// says whether the stop was a shutdown request (`true`) or a hang-up
/// (`false`). An `Err` is an I/O failure of this session's streams (a
/// peer that hung up before reading its response, a reset); the server
/// itself is unaffected and can serve the next session.
pub fn serve<R: BufRead, W: Write>(
    server: &mut Server,
    mut reader: R,
    mut writer: W,
) -> io::Result<bool> {
    // One buffer for the whole session: frames are read into it in place.
    let mut frame = Vec::new();
    loop {
        frame.clear();
        if reader.read_until(b'\n', &mut frame)? == 0 {
            return Ok(false);
        }
        let turn = server.handle_frame(&frame);
        for frame in &turn.frames {
            writer.write_all(frame.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        // Flush per turn, not per frame: a subscriber sees its events and
        // the response as one burst, and the client can block on the
        // response line without deadlocking on buffered events.
        writer.flush()?;
        if turn.shutdown {
            return Ok(true);
        }
    }
}

/// Serves one session over this process's stdin/stdout (the `--stdio`
/// mode of `mop-serve`).
pub fn serve_stdio(server: &mut Server) -> io::Result<bool> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve(server, stdin.lock(), stdout.lock())
}

/// Serves sessions over a Unix domain socket, accepting connections one
/// at a time so the plane never sees interleaved sessions. The listener
/// keeps accepting until a session ends with `server.shutdown`; a session
/// that fails with an I/O error ends there, and the listener goes back to
/// `accept`.
#[cfg(unix)]
pub fn serve_unix(server: &mut Server, socket_path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    // A stale socket file from a killed server would make bind fail.
    if socket_path.exists() {
        std::fs::remove_file(socket_path)?;
    }
    let listener = UnixListener::bind(socket_path)?;
    loop {
        let (stream, _) = listener.accept()?;
        let session = stream
            .try_clone()
            .and_then(|read_half| serve(server, BufReader::new(read_half), stream));
        match session {
            Ok(true) => break,
            Ok(false) => {}
            Err(err) => eprintln!("mop-serve: session ended by an I/O error: {err}"),
        }
    }
    std::fs::remove_file(socket_path).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlaneConfig;

    #[test]
    fn the_line_loop_frames_responses_and_stops_on_shutdown() {
        let mut server = Server::new(PlaneConfig { shards: 1, ..PlaneConfig::default() });
        let input = "{\"id\":1,\"method\":\"server.info\"}\n\
                     {\"id\":2,\"method\":\"server.shutdown\"}\n\
                     {\"id\":3,\"method\":\"server.info\"}\n";
        let mut output = Vec::new();
        let stopped = serve(&mut server, input.as_bytes(), &mut output).unwrap();
        assert!(stopped, "shutdown stops the loop");
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "the frame after shutdown is never served");
        assert!(lines[0].starts_with("{\"id\":1"));
        assert!(lines[1].starts_with("{\"id\":2"));
    }

    #[test]
    fn a_hangup_without_shutdown_reports_false() {
        let mut server = Server::new(PlaneConfig { shards: 1, ..PlaneConfig::default() });
        let mut output = Vec::new();
        let stopped =
            serve(&mut server, "{\"id\":1,\"method\":\"server.info\"}\n".as_bytes(), &mut output)
                .unwrap();
        assert!(!stopped);
    }
}
