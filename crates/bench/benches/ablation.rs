//! Criterion benches for the §7.3 ablation: the State Rearrangement case
//! study with leaps and reachability pruning toggled. The paper reports
//! 30 s → 42 min when leaps are disabled and non-termination without
//! pruning; the shape to check here is a large slowdown per disabled
//! optimization. (`cargo run -p leapfrog-bench --bin ablation` prints the
//! iteration/scope counters that explain the gap.)

use criterion::{criterion_group, criterion_main, Criterion};
use leapfrog::EngineConfig;
use leapfrog_bench::rows::run_row;
use leapfrog_suite::utility::state_rearrangement;

fn ablation(c: &mut Criterion) {
    let bench = state_rearrangement::state_rearrangement_benchmark();
    let mut g = c.benchmark_group("ablation/state_rearrangement");
    g.sample_size(10);
    // The pruning-off configurations take minutes per run at this size;
    // they are measured once by the `ablation` binary instead.
    for (label, leaps, pruning) in [
        ("leaps_on__pruning_on", true, true),
        ("leaps_off_pruning_on", false, true),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let options = EngineConfig {
                    leaps,
                    reach_pruning: pruning,
                    ..EngineConfig::from_env().unwrap()
                };
                let row = run_row(&bench, options);
                assert!(row.verified);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
