//! Fleet-mode integration tests: verdict bytes must be identical at any
//! worker count, and state saved by an N-shard fleet must warm an
//! M-shard fleet through the fingerprint-routed merge path.

use std::collections::BTreeMap;

use leapfrog_serve::{Client, Server, ServerOptions};
use leapfrog_suite::{standard_benchmarks, Scale};

/// Spawns an in-process fleet and returns its address plus the join
/// handle of the serving thread (joined after `shutdown`).
fn start(
    workers: usize,
    state_dir: Option<&std::path::Path>,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let opts = ServerOptions {
        workers,
        state_dir: state_dir.map(Into::into),
        scale: Scale::Small,
        ..ServerOptions::from_env().unwrap()
    };
    let server = Server::bind("127.0.0.1:0", opts).expect("bind a free port");
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// The rows the fleet tests drive: enough distinct pairs that 4-way
/// fingerprint routing actually spreads them over more than one shard.
fn row_names() -> Vec<String> {
    standard_benchmarks(Scale::Small)
        .iter()
        .take(4)
        .map(|b| b.name.to_string())
        .collect()
}

/// Poses every row from `clients` concurrent connections and returns
/// the outcome bytes per row, plus the fleet's aggregate memo replays.
fn drive(addr: &str, names: &[String], clients: usize) -> (BTreeMap<String, String>, u64) {
    let mut verdicts = BTreeMap::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mine: Vec<&String> = names.iter().skip(c).step_by(clients).collect();
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    mine.into_iter()
                        .map(|name| {
                            let reply = client.check_named(name).expect("check");
                            (name.clone(), reply.outcome_json)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            verdicts.extend(h.join().expect("client thread"));
        }
    });
    let mut client = Client::connect(addr).expect("connect for stats");
    let fleet = client.fleet_stats().expect("fleet stats");
    (verdicts, fleet.aggregate.stats.entailment_memo_hits)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn verdict_bytes_identical_across_worker_counts() {
    let names = row_names();

    let (addr, handle) = start(1, None);
    let (single, _) = drive(&addr, &names, 2);
    shutdown(&addr, handle);

    let (addr, handle) = start(4, None);
    let mut client = Client::connect(&addr).expect("connect");
    let fleet = client.fleet_stats().expect("fleet stats");
    assert_eq!(fleet.workers, 4);
    assert_eq!(fleet.shards.len(), 4);
    drop(client);
    let (sharded, _) = drive(&addr, &names, 3);
    shutdown(&addr, handle);

    assert_eq!(single.len(), names.len());
    assert_eq!(single, sharded, "sharding must never change a verdict byte");
}

#[test]
fn state_saved_at_four_workers_warms_a_two_worker_fleet() {
    let dir = std::env::temp_dir().join(format!(
        "leapfrog-fleet-merge-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let names = row_names();

    // Pass 1: a 4-shard fleet checks everything and saves on shutdown.
    let (addr, handle) = start(4, Some(&dir));
    let (cold, _) = drive(&addr, &names, 3);
    shutdown(&addr, handle);
    let saved_shards = (0..4)
        .filter(|i| dir.join(format!("shard-{i}")).is_dir())
        .count();
    assert!(saved_shards > 0, "shutdown must leave per-shard state dirs");

    // Pass 2: a 2-shard fleet reloads the same directory (merge path:
    // 4 saved shards re-route onto 2) and must replay memoized verdicts
    // without changing a byte.
    let (addr, handle) = start(2, Some(&dir));
    let (warm, memo_hits) = drive(&addr, &names, 3);
    shutdown(&addr, handle);

    assert_eq!(cold, warm, "the merged restart must not change a byte");
    assert!(
        memo_hits > 0,
        "the 2-shard fleet must replay entailment memos merged from the 4-shard save"
    );

    // The merge-path shutdown re-saved at 2 workers and removed the
    // stale higher-numbered shard dirs, so the next start is native.
    assert!(!dir.join("shard-2").exists());
    assert!(!dir.join("shard-3").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
