//! Criterion benches for the Table 2 utility rows (§7.1): one benchmark
//! per case study, measuring the full push-button check (reachability
//! analysis, worklist, SMT entailments, Close).

use criterion::{criterion_group, criterion_main, Criterion};
use leapfrog::EngineConfig;
use leapfrog_bench::rows::{run_external_filtering, run_relational_verification, run_row};
use leapfrog_suite::utility::{ip_options, mpls, state_rearrangement, vlan_init};
use leapfrog_suite::Scale;

fn utility(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2/utility");
    g.sample_size(10);

    let rearrangement = state_rearrangement::state_rearrangement_benchmark();
    g.bench_function("state_rearrangement", |b| {
        b.iter(|| {
            let row = run_row(&rearrangement, EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    let options = ip_options::ip_options_benchmark(Scale::Small);
    g.bench_function("variable_length_parsing", |b| {
        b.iter(|| {
            let row = run_row(&options, EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    let vlan = vlan_init::vlan_init_benchmark();
    g.bench_function("header_initialization", |b| {
        b.iter(|| {
            let row = run_row(&vlan, EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    let speculative = mpls::mpls_benchmark();
    g.bench_function("speculative_loop", |b| {
        b.iter(|| {
            let row = run_row(&speculative, EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    g.bench_function("relational_verification", |b| {
        b.iter(|| {
            let row = run_relational_verification(EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    g.bench_function("external_filtering", |b| {
        b.iter(|| {
            let row = run_external_filtering(EngineConfig::from_env().unwrap());
            assert!(row.verified);
        })
    });

    g.finish();
}

criterion_group!(benches, utility);
criterion_main!(benches);
