//! `serve_gauntlet` — the end-to-end wire smoke driver CI runs against a
//! live `leapfrogd`.
//!
//! ```text
//! serve_gauntlet (--addr HOST:PORT | --port-file PATH) [--mutants]
//!                [--no-shutdown] [--expect-workers N]
//! ```
//!
//! Drives every standard Table 2 row (and, with `--mutants`, the mutant
//! suite with its long refutation witnesses) through the wire client and
//! diffs each verdict — the full certificate or witness JSON — **byte for
//! byte** against a one-shot in-process `check_language_equivalence` of
//! the same pair. Any mismatch, unexpected verdict or protocol error is a
//! failure; on success the daemon is asked to shut down (unless
//! `--no-shutdown`) and the process exits 0.
//!
//! Every `Equivalent` verdict is additionally round-tripped through the
//! daemon's `verify` request: the wire certificate must re-discharge in
//! the independent `leapfrog-certcheck` trust root, and a deliberately
//! tampered copy (corrupted leap flag) must be rejected with a named
//! obligation.
//!
//! After the rows, the gauntlet re-checks the first row (guaranteeing at
//! least one warm memo hit) and scrapes the daemon's `metrics` request:
//! the Prometheus exposition must parse, the core counters (checks,
//! entailment checks, memo hits, connections) must be nonzero, and the
//! scraped check count must agree with the engine's own `stats` reply.
//!
//! `--expect-workers N` is the fleet leg: the shard-labelled `stats`
//! reply must list exactly N shards whose per-shard check counters sum
//! to the aggregate, and the Prometheus exposition must carry the
//! shard-suffixed metrics (`leapfrog_shard_<i>_…`) for every shard.

use std::time::{Duration, Instant};

use leapfrog::checker::check_language_equivalence;
use leapfrog::json;
use leapfrog_serve::proto::outcome_to_value;
use leapfrog_serve::Client;
use leapfrog_suite::{mutants, standard_benchmarks, Scale};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut addr: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut include_mutants = false;
    let mut shutdown = true;
    let mut expect_workers: Option<usize> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next(),
            "--port-file" => port_file = args.next(),
            "--mutants" => include_mutants = true,
            "--no-shutdown" => shutdown = false,
            "--expect-workers" => {
                expect_workers = args.next().and_then(|s| s.trim().parse().ok());
                if expect_workers.is_none() {
                    eprintln!("serve_gauntlet: --expect-workers needs a number");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("serve_gauntlet: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let addr = addr.unwrap_or_else(|| {
        let path = port_file.unwrap_or_else(|| {
            eprintln!("serve_gauntlet: need --addr or --port-file");
            std::process::exit(2);
        });
        // The daemon writes the file after binding; wait for it briefly.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::fs::read_to_string(&path) {
                Ok(s) if !s.trim().is_empty() => break s.trim().to_string(),
                _ if Instant::now() > deadline => {
                    eprintln!("serve_gauntlet: port file {path} never appeared");
                    std::process::exit(1);
                }
                _ => std::thread::sleep(Duration::from_millis(100)),
            }
        }
    });

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve_gauntlet: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("serve_gauntlet: {e}");
        std::process::exit(2);
    });
    let mut rows = standard_benchmarks(scale);
    if include_mutants {
        rows.extend(mutants::mutant_benchmarks());
    }
    let mut failures = 0usize;
    let mut certified = 0usize;
    let mut tamper_target: Option<(String, leapfrog::Certificate)> = None;
    for bench in &rows {
        let local = outcome_to_value(&check_language_equivalence(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
        ))
        .render();
        match client.check_named(bench.name) {
            Ok(reply) => {
                let verdict_ok = reply.outcome.is_equivalent() == bench.expect_equivalent;
                let bytes_ok = reply.outcome_json == local;
                if verdict_ok && bytes_ok {
                    println!(
                        "ok   {:<28} ({} bytes over the wire, {} entailment checks)",
                        bench.name,
                        reply.outcome_json.len(),
                        reply.stats.entailment_checks,
                    );
                } else {
                    failures += 1;
                    if !verdict_ok {
                        eprintln!(
                            "FAIL {:<28} verdict: expected equivalent={}, wire said {}",
                            bench.name,
                            bench.expect_equivalent,
                            reply.outcome.is_equivalent()
                        );
                    }
                    if !bytes_ok {
                        eprintln!(
                            "FAIL {:<28} wire bytes differ from one-shot ({} vs {} bytes)",
                            bench.name,
                            reply.outcome_json.len(),
                            local.len()
                        );
                    }
                }
                // Every wire certificate goes back through the daemon's
                // `verify` request: the independent trust root must
                // re-discharge every obligation.
                if let leapfrog_serve::WireOutcome::Equivalent(cert) = &reply.outcome {
                    match client.verify_named(bench.name, &cert.to_json()) {
                        Ok(v) if v.ok => certified += 1,
                        Ok(v) => {
                            failures += 1;
                            eprintln!(
                                "FAIL {:<28} trust root rejected the wire certificate [{}]: {}",
                                bench.name,
                                v.error_class.as_deref().unwrap_or("?"),
                                v.detail.as_deref().unwrap_or("?"),
                            );
                        }
                        Err(e) => {
                            failures += 1;
                            eprintln!("FAIL {:<28} verify request: {e}", bench.name);
                        }
                    }
                    if tamper_target.is_none() {
                        tamper_target = Some((bench.name.to_string(), cert.clone()));
                    }
                }
            }
            Err(e) => {
                failures += 1;
                eprintln!("FAIL {:<28} protocol error: {e}", bench.name);
            }
        }
    }

    // The negative verify leg: a tampered certificate (corrupted leap
    // flag) must be rejected with a named failing obligation.
    match &tamper_target {
        Some((name, cert)) => {
            let mut bad = cert.clone();
            bad.leaps = !bad.leaps;
            match client.verify_named(name, &bad.to_json()) {
                Ok(v) if !v.ok => println!(
                    "verify: {certified} wire certificates re-discharged; tampered one rejected [{}]",
                    v.error_class.as_deref().unwrap_or("?"),
                ),
                Ok(_) => {
                    failures += 1;
                    eprintln!("FAIL {name:<28} trust root accepted a tampered certificate");
                }
                Err(e) => {
                    failures += 1;
                    eprintln!("FAIL {name:<28} tampered verify request: {e}");
                }
            }
        }
        None => {
            failures += 1;
            eprintln!("FAIL no equivalent row produced a certificate to verify");
        }
    }

    // Re-check the first row: it is warm now, so the reply is served
    // with at least one entailment-memo hit — making the memo-hit
    // counter below deterministic rather than scale-dependent.
    if let Some(first) = rows.first() {
        if let Err(e) = client.check_named(first.name) {
            failures += 1;
            eprintln!("FAIL {:<28} warm re-check: {e}", first.name);
        }
    }

    let mut engine_checks = 0usize;
    match client.engine_stats() {
        Ok(stats) => {
            let field = |k: &str| {
                json::get(&stats, k)
                    .ok()
                    .and_then(|v| json::as_usize(v).ok())
                    .unwrap_or(0)
            };
            engine_checks = field("checks");
            println!(
                "engine: {} checks, {} pairs interned, {} memo hits, {} sessions reused",
                field("checks"),
                field("pairs_interned"),
                field("entailment_memo_hits"),
                field("sessions_reused"),
            );
        }
        Err(e) => {
            failures += 1;
            eprintln!("FAIL stats request: {e}");
        }
    }
    if let Some(expected) = expect_workers {
        failures += check_fleet(&mut client, expected);
    }
    failures += scrape_metrics(&mut client, engine_checks, expect_workers);
    if shutdown {
        if let Err(e) = client.shutdown() {
            failures += 1;
            eprintln!("FAIL shutdown request: {e}");
        }
    }
    if failures > 0 {
        eprintln!(
            "serve_gauntlet: {failures} failure(s) across {} rows",
            rows.len()
        );
        std::process::exit(1);
    }
    println!(
        "serve_gauntlet: all {} rows byte-identical over the wire",
        rows.len()
    );
}

/// The fleet leg: the shard-labelled `stats` reply must list exactly
/// `expected` shards, their check counters must sum to the aggregate,
/// and at least one shard must have served something. Returns the
/// failure count.
fn check_fleet(client: &mut leapfrog_serve::Client, expected: usize) -> usize {
    let fleet = match client.fleet_stats() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("FAIL fleet stats request: {e}");
            return 1;
        }
    };
    let mut failures = 0usize;
    if fleet.workers != expected || fleet.shards.len() != expected {
        failures += 1;
        eprintln!(
            "FAIL fleet: expected {expected} workers, stats reply says workers={} with {} shard entries",
            fleet.workers,
            fleet.shards.len()
        );
    }
    let shard_checks: u64 = fleet.shards.iter().map(|s| s.stats.checks).sum();
    if shard_checks != fleet.aggregate.stats.checks {
        failures += 1;
        eprintln!(
            "FAIL fleet: per-shard checks sum to {shard_checks} but the aggregate says {}",
            fleet.aggregate.stats.checks
        );
    }
    if shard_checks == 0 {
        failures += 1;
        eprintln!("FAIL fleet: no shard served a single check");
    }
    if failures == 0 {
        let per_shard: Vec<u64> = fleet.shards.iter().map(|s| s.stats.checks).collect();
        println!(
            "fleet: {} workers, per-shard checks {:?} (sum {})",
            fleet.workers, per_shard, shard_checks
        );
    }
    failures
}

/// Scrapes the daemon's `metrics` request and validates it: the
/// Prometheus text must parse back into a snapshot, the core counters
/// must be live, the scraped check count must match what the engine's
/// own `stats` reply said, and — on a fleet leg — every shard's
/// suffixed metrics must appear. Returns the failure count.
fn scrape_metrics(
    client: &mut leapfrog_serve::Client,
    engine_checks: usize,
    expect_workers: Option<usize>,
) -> usize {
    let (text, _json) = match client.metrics() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("FAIL metrics request: {e}");
            return 1;
        }
    };
    let snap = match leapfrog_obs::parse_prometheus(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL metrics exposition does not parse: {e}");
            return 1;
        }
    };
    let mut failures = 0usize;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    for name in [
        "leapfrog_checks_total",
        "leapfrog_entailment_checks_total",
        "leapfrog_entailment_memo_hits_total",
        "leapfrog_connections_total",
        "leapfrog_requests_total",
    ] {
        if counter(name) == 0 {
            failures += 1;
            eprintln!("FAIL metrics counter {name} is zero after the gauntlet");
        }
    }
    if counter("leapfrog_checks_total") != engine_checks as u64 {
        failures += 1;
        eprintln!(
            "FAIL metrics disagree with stats: leapfrog_checks_total={} but engine said {}",
            counter("leapfrog_checks_total"),
            engine_checks
        );
    }
    if let Some(workers) = expect_workers {
        let mut shard_checks = 0u64;
        for shard in 0..workers {
            let name = format!("leapfrog_shard_{shard}_checks_total");
            if !snap.counters.contains_key(name.as_str()) {
                failures += 1;
                eprintln!("FAIL metrics exposition is missing {name}");
            }
            shard_checks += counter(&name);
        }
        if shard_checks != counter("leapfrog_checks_total") {
            failures += 1;
            eprintln!(
                "FAIL metrics: per-shard check counters sum to {shard_checks} but leapfrog_checks_total={}",
                counter("leapfrog_checks_total")
            );
        }
    }
    if failures == 0 {
        println!(
            "metrics: exposition parses; checks={} entailment={} memo_hits={} connections={}",
            counter("leapfrog_checks_total"),
            counter("leapfrog_entailment_checks_total"),
            counter("leapfrog_entailment_memo_hits_total"),
            counter("leapfrog_connections_total"),
        );
    }
    failures
}
