//! The §7.3 ablation: re-runs selected case studies with leaps and/or
//! reachability pruning disabled, reproducing the paper's observation that
//! the small State Rearrangement study blows up without leaps (30 s →
//! 42 min in Coq) and does not finish without reachability pruning.
//!
//! Each configuration gets its own engine built through the typed
//! `EngineConfig` builder — the ablation knobs are per-query *semantic*
//! settings, so sharing warm state across them would be meaningless.
//!
//! ```text
//! cargo run --release -p leapfrog-bench --bin ablation
//! ```

use std::time::Instant;

use leapfrog::EngineConfig;
use leapfrog_bench::alloc_track::{human_bytes, PeakAlloc};
use leapfrog_suite::utility::{mpls, state_rearrangement};
use leapfrog_suite::Benchmark;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc::new();

fn run(config: &EngineConfig, bench: &Benchmark, leaps: bool, reach_pruning: bool, budget: u64) {
    let mut engine = config
        .clone()
        .leaps(leaps)
        .reach_pruning(reach_pruning)
        .max_iterations(Some(budget))
        .build();
    ALLOC.reset();
    let start = Instant::now();
    let outcome = engine.check(
        &bench.left,
        bench.left_start,
        &bench.right,
        bench.right_start,
    );
    let stats = engine.last_run_stats();
    println!(
        "{:<22} leaps={:<5} pruning={:<5} -> {:<10} {:>10} iters={:<6} scope={:<6} queries={:<6} mem={}",
        bench.name,
        leaps,
        reach_pruning,
        match outcome {
            leapfrog::Outcome::Equivalent(_) => "verified",
            leapfrog::Outcome::NotEquivalent(_) => "refuted",
            leapfrog::Outcome::Aborted(_) => "aborted",
        },
        format!("{:.2?}", start.elapsed()),
        stats.iterations,
        stats.scope_pairs,
        stats.queries.queries,
        human_bytes(ALLOC.peak_bytes()),
    );
}

fn main() {
    let config = EngineConfig::from_env().unwrap_or_else(|e| {
        eprintln!("ablation: {e}");
        std::process::exit(2);
    });
    println!("Leapfrog-rs — §7.3 ablation (iteration budget caps runaway configurations)");
    let budget = 200_000;
    for bench in [
        state_rearrangement::state_rearrangement_benchmark(),
        mpls::mpls_benchmark(),
    ] {
        for (leaps, pruning) in [(true, true), (false, true), (true, false), (false, false)] {
            run(&config, &bench, leaps, pruning, budget);
        }
        println!();
    }
}
