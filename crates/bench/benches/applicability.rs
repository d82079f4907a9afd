//! Criterion benches for the Table 2 applicability rows (§7.2):
//! self-comparison of the four scenario parsers. Criterion runs use the
//! `LEAPFROG_SCALE` knob (default small); the `table2` binary measures the
//! full-scale single-shot rows.

use criterion::{criterion_group, criterion_main, Criterion};
use leapfrog::EngineConfig;
use leapfrog_bench::rows::run_row;
use leapfrog_suite::applicability::all_benchmarks;
use leapfrog_suite::Scale;

fn applicability(c: &mut Criterion) {
    let scale = Scale::from_env().unwrap();
    let mut g = c.benchmark_group("table2/applicability");
    g.sample_size(10);
    for bench in all_benchmarks(scale) {
        let id = bench.name.to_lowercase().replace(' ', "_");
        g.bench_function(id, |b| {
            b.iter(|| {
                let row = run_row(&bench, EngineConfig::from_env().unwrap());
                assert!(row.verified, "{} failed to verify", bench.name);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, applicability);
criterion_main!(benches);
