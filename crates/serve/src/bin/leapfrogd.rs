//! `leapfrogd` — the equivalence-checking daemon.
//!
//! ```text
//! leapfrogd [--addr HOST:PORT] [--workers N] [--state-dir DIR] [--port-file PATH]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:0`, a free port).
//! * `--workers` — engine shards to run (0 = auto from cores; default
//!   `LEAPFROG_WORKERS` or 1). Requests route to shards by pair
//!   fingerprint, so verdict bytes are identical at any worker count.
//! * `--state-dir` — reload persisted warm state from this directory at
//!   start and save it back on a `shutdown` request; each shard uses
//!   `shard-<i>/` under it, and a layout saved at a different worker
//!   count merges by fingerprint.
//! * `--port-file` — write the bound `HOST:PORT` here once listening (the
//!   CI smoke job discovers the port this way).
//!
//! Engine tuning comes from the `LEAPFROG_*` environment
//! (`EngineConfig::from_env()`: `LEAPFROG_THREADS`,
//! `LEAPFROG_STRICT_WITNESS`, `LEAPFROG_WARM_CAP`); named rows are built
//! at `LEAPFROG_SCALE`; the shard count defaults to `LEAPFROG_WORKERS`;
//! admission control reads `LEAPFROG_QUEUE_DEPTH` and
//! `LEAPFROG_CLIENT_QUOTA`. A malformed value of any of these is reported
//! with the variable's name and the daemon exits with status 2.

use leapfrog_serve::{Server, ServerOptions};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr = "127.0.0.1:0".to_string();
    let mut opts = ServerOptions::from_env().unwrap_or_else(|e| {
        eprintln!("leapfrogd: {e}");
        std::process::exit(2);
    });
    let mut port_file: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("leapfrogd: {flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                let raw = value("--workers");
                opts.workers = raw.trim().parse().unwrap_or_else(|_| {
                    eprintln!("leapfrogd: --workers needs a number, got {raw:?}");
                    std::process::exit(2);
                });
            }
            "--state-dir" => opts.state_dir = Some(value("--state-dir").into()),
            "--port-file" => port_file = Some(value("--port-file")),
            "--help" | "-h" => {
                println!(
                    "usage: leapfrogd [--addr HOST:PORT] [--workers N] [--state-dir DIR] [--port-file PATH]"
                );
                return;
            }
            other => {
                eprintln!("leapfrogd: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let server = match Server::bind(&addr, opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("leapfrogd: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = server.local_addr().expect("bound listener has an address");
    println!(
        "leapfrogd listening on {bound} with {} worker shard(s)",
        server.effective_workers()
    );
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, bound.to_string()) {
            eprintln!("leapfrogd: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.run() {
        eprintln!("leapfrogd: {e}");
        std::process::exit(1);
    }
}
