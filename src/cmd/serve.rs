//! The resident daemon: TCP transport for the frame protocol.
//!
//! Connections are served one at a time on the accept thread — thread
//! creation is quarantined to the substrate's worker pool
//! (`clippy.toml`), and the daemon's parallelism
//! already lives *inside* a request: a batch frame fans its misses out
//! over `BEFF_WORKERS` simulation workers. A characterization service
//! is compute-bound on misses and memcpy-bound on hits; concurrent
//! transport would add nondeterministic interleaving for no
//! throughput.
//!
//! The address defaults to `$BEFF_SERVE_ADDR`, then `127.0.0.1:7433`.
//! With `--journal`, results are shadowed in a durable append-only
//! journal and replayed into the cache on startup: a killed-and
//! restarted daemon serves every previously-computed spec from disk,
//! byte-identical, without recomputation (a torn final record from a
//! mid-append kill is healed away with a typed report). A `{"op":
//! "shutdown"}` frame drains in-flight work and stops the daemon.
//!
//! The accept loop survives everything a peer can throw at it —
//! malformed frames, lying length prefixes, mid-frame disconnects —
//! by delegating each connection to
//! [`serve_connection`](beff_serve::serve_connection): every close is
//! typed, protocol offenders get a `{"error":…}` goodbye frame, and
//! only an explicit shutdown op ends the process.

use crate::cli::{Args, Fail};
use beff_serve::{serve_connection, ConnClose, Server};
use std::net::TcpListener;
use std::path::Path;

pub fn run(args: &Args, _: &mut String) -> Result<(), Fail> {
    let workers = args.workers()?;
    let addr = args
        .text("--addr")
        .map(str::to_string)
        .or_else(|| std::env::var("BEFF_SERVE_ADDR").ok())
        .unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let server = match args.text("--journal") {
        None => Server::new(workers),
        Some(path) => {
            let (server, recovery) = Server::with_journal(workers, Path::new(path))
                .map_err(|e| Fail::new(1, format!("cannot open journal {path}: {e}")))?;
            eprintln!(
                "serve: journal {path} replayed: {} records ({} bytes)",
                recovery.recovered, recovery.bytes
            );
            if let Some(t) = &recovery.truncated {
                eprintln!("serve: journal tail healed: {t}");
            }
            server
        }
    };
    let listener =
        TcpListener::bind(&addr).map_err(|e| Fail::new(1, format!("cannot bind {addr}: {e}")))?;
    eprintln!("serve: listening on {addr} ({} workers)", workers.get());
    for stream in listener.incoming() {
        let mut stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("serve: accept failed: {e}");
                continue;
            }
        };
        match serve_connection(&server, &mut stream) {
            ConnClose::Clean => {}
            ConnClose::Protocol(report) => eprintln!("serve: {report}"),
            ConnClose::Transport(report) => eprintln!("serve: {report}"),
            ConnClose::Shutdown => {
                eprintln!("serve: shutdown requested; drained");
                return Ok(());
            }
        }
    }
    Ok(())
}
