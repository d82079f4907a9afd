//! `persistence_roundtrip` — the cross-process warm-state CI driver.
//!
//! ```text
//! persistence_roundtrip [--state-dir DIR] [--fresh]
//! ```
//!
//! Runs the full standard suite (plus the mutant refutations) twice:
//!
//! 1. a **cold pass** on a fresh engine configured with a state
//!    directory, recording every outcome's canonical JSON, then
//!    `save_state`;
//! 2. a **restart pass** on a brand-new engine built from the saved
//!    state — simulating a daemon restart.
//!
//! The run fails unless (a) every second-pass outcome is byte-identical
//! to the first, (b) the second pass observes warm-state replays
//! (`entailment_memo_hits + inst_ledger_hits > 0`) — skipped when
//! `LEAPFROG_WARM_CAP` bounds the maps so tightly that the state was
//! legitimately evicted — and (c) every verdict matches the suite's
//! expectation in both passes. CI runs it twice: once unbounded, once
//! with `LEAPFROG_WARM_CAP=1` to prove eviction never changes a byte.

use leapfrog::{Engine, EngineConfig};
use leapfrog_serve::proto::outcome_to_value;
use leapfrog_suite::corpus::WitnessCorpus;
use leapfrog_suite::{mutants, standard_benchmarks, Benchmark, Scale};

fn rows() -> Vec<Benchmark> {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("persistence_roundtrip: {e}");
        std::process::exit(2);
    });
    let mut rows = standard_benchmarks(scale);
    rows.extend(mutants::mutant_benchmarks());
    rows
}

/// Runs every row through one engine, returning (name, outcome JSON,
/// memo hits, ledger hits, verdict-ok) per row.
fn run_pass(engine: &mut Engine, rows: &[Benchmark]) -> Vec<(String, String, u64, u64, bool)> {
    rows.iter()
        .map(|b| {
            let outcome =
                engine.check_named(b.name, &b.left, b.left_start, &b.right, b.right_start);
            let stats = engine.last_run_stats();
            (
                b.name.to_string(),
                outcome_to_value(&outcome).render(),
                stats.entailment_memo_hits,
                stats.queries.inst_ledger_hits,
                outcome.is_equivalent() == b.expect_equivalent,
            )
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut state_dir = std::path::PathBuf::from("leapfrog-state");
    let mut fresh = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--state-dir" => {
                state_dir = args
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("persistence_roundtrip: --state-dir needs a value");
                        std::process::exit(2);
                    })
                    .into()
            }
            "--fresh" => fresh = true,
            other => {
                eprintln!("persistence_roundtrip: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if state_dir.exists() {
        if fresh {
            if let Err(e) = std::fs::remove_dir_all(&state_dir) {
                eprintln!(
                    "persistence_roundtrip: cannot clear {}: {e}",
                    state_dir.display()
                );
                std::process::exit(1);
            }
        } else {
            eprintln!(
                "persistence_roundtrip: {} already exists (pass --fresh to clear it)",
                state_dir.display()
            );
            std::process::exit(2);
        }
    }
    let config = EngineConfig::from_env().unwrap_or_else(|e| {
        eprintln!("persistence_roundtrip: {e}");
        std::process::exit(2);
    });
    let warm_cap = config.warm_capacity;
    let rows = rows();
    println!(
        "persistence roundtrip: {} rows, state dir {}, warm cap {}",
        rows.len(),
        state_dir.display(),
        if warm_cap == 0 {
            "unbounded".to_string()
        } else {
            warm_cap.to_string()
        }
    );

    // Pass 1: cold engine, then save.
    let mut cold = Engine::new(config.clone().with_state_dir(&state_dir));
    cold.attach_witness_sink(Box::new(WitnessCorpus::new()));
    let first = run_pass(&mut cold, &rows);
    if let Err(e) = cold.save_state(&state_dir) {
        eprintln!("persistence_roundtrip: save_state failed: {e}");
        std::process::exit(1);
    }
    println!(
        "pass 1 (cold): {} rows checked, state saved ({} ledger verdicts)",
        first.len(),
        cold.ledger_len(),
    );

    // Pass 2: a brand-new engine restarted from the saved state.
    let mut restarted = Engine::new(config.with_state_dir(&state_dir));
    restarted.attach_witness_sink(Box::new(WitnessCorpus::new()));
    match restarted.state_report() {
        Some(report) => println!("pass 2 (restart): {report}"),
        None => {
            eprintln!("persistence_roundtrip: restart loaded no state at all");
            std::process::exit(1);
        }
    }
    let second = run_pass(&mut restarted, &rows);

    let mut failures = 0usize;
    let mut memo_hits = 0u64;
    let mut ledger_hits = 0u64;
    for ((name, cold_json, _, _, cold_ok), (_, warm_json, memo, ledger, warm_ok)) in
        first.iter().zip(&second)
    {
        memo_hits += memo;
        ledger_hits += ledger;
        if !cold_ok || !warm_ok {
            failures += 1;
            eprintln!("FAIL {name}: verdict does not match the suite expectation");
        }
        if cold_json != warm_json {
            failures += 1;
            eprintln!(
                "FAIL {name}: restart output differs ({} vs {} bytes)",
                cold_json.len(),
                warm_json.len()
            );
        }
    }
    println!("pass 2 replays: {memo_hits} entailment-memo hits, {ledger_hits} inst-ledger hits");
    if warm_cap == 0 && memo_hits + ledger_hits == 0 {
        failures += 1;
        eprintln!("FAIL: the restarted engine replayed nothing from the saved state");
    }
    if failures > 0 {
        eprintln!("persistence_roundtrip: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "persistence_roundtrip: all {} outputs byte-identical across the restart",
        rows.len()
    );
}
