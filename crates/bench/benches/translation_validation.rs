//! Criterion bench for the translation-validation row (§7.2, Figure 8):
//! compile the Edge parser to hardware tables, back-translate, and prove
//! the round trip preserves the language. The compile+translate phases
//! are also benched separately to show where time goes.

use criterion::{criterion_group, criterion_main, Criterion};
use leapfrog::EngineConfig;
use leapfrog_bench::rows::run_translation_validation;
use leapfrog_hwgen::{back_translate, compile, HwBudget};
use leapfrog_suite::applicability::edge;
use leapfrog_suite::Scale;

fn translation_validation(c: &mut Criterion) {
    let scale = Scale::from_env().unwrap();
    let mut g = c.benchmark_group("table2/translation_validation");
    g.sample_size(10);

    let parser = edge(scale);
    let start = parser.state_by_name("parse_eth").unwrap();
    g.bench_function("compile_to_tables", |b| {
        b.iter(|| compile(&parser, start, &HwBudget::default()).unwrap())
    });

    let hw = compile(&parser, start, &HwBudget::default()).unwrap();
    g.bench_function("back_translate", |b| b.iter(|| back_translate(&hw)));

    g.bench_function("full_round_trip_check", |b| {
        b.iter(|| {
            let row = run_translation_validation(scale, EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    g.finish();
}

criterion_group!(benches, translation_validation);
criterion_main!(benches);
