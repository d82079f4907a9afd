//! End-to-end integration: every Table 2 benchmark (small scale) runs
//! through the full pipeline — sum construction, reachability, worklist,
//! SMT — and produces a certificate that the independent checker accepts.

use leapfrog::{certificate, Checker, EngineConfig};
use leapfrog_bench::rows::standard_benchmarks;
use leapfrog_suite::differential::agree_on_words;
use leapfrog_suite::Scale;

#[test]
fn all_standard_benchmarks_verify_and_certify() {
    for bench in standard_benchmarks(Scale::Small) {
        let mut checker = Checker::new(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
            EngineConfig::from_env().unwrap(),
        );
        let outcome = checker.run();
        let cert = match outcome {
            leapfrog::Outcome::Equivalent(cert) => cert,
            other => panic!("{}: expected equivalence, got {other:?}", bench.name),
        };
        assert!(
            cert.standard_init,
            "{}: expected a language-equivalence proof",
            bench.name
        );
        certificate::check(checker.sum_automaton(), &cert)
            .unwrap_or_else(|e| panic!("{}: certificate rejected: {e}", bench.name));
    }
}

#[test]
fn verified_benchmarks_also_agree_empirically() {
    // Equivalence proofs and random testing must never contradict.
    for bench in standard_benchmarks(Scale::Small) {
        assert!(
            agree_on_words(
                &bench.left,
                bench.left_start,
                &bench.right,
                bench.right_start,
                &[0, 8, 16, 32, 64, 112, 160, 240, 272, 400],
                40,
                0xabc,
            ),
            "{}: random packets disagree with the equivalence proof",
            bench.name
        );
    }
}

#[test]
fn cross_validation_harness_accepts_equivalent_benchmarks() {
    // The differential harness wraps the checker with explicit-semantics
    // validation for either verdict; on proven-equivalent pairs it must
    // return the equivalence unchallenged. (Two benchmarks keep this
    // binary's runtime reasonable; the refutation side is exercised by
    // tests/witnesses.rs.)
    for bench in standard_benchmarks(Scale::Small).into_iter().take(2) {
        let outcome = leapfrog_suite::differential::check_and_cross_validate(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
            EngineConfig::from_env().unwrap(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(outcome.is_equivalent(), "{}", bench.name);
    }
}

#[test]
fn ablation_settings_agree_on_a_small_benchmark() {
    // All four optimization settings must compute the same verdict.
    let bench = &standard_benchmarks(Scale::Small)[0]; // state rearrangement
    for (leaps, reach_pruning) in [(true, true), (false, true), (true, false)] {
        let options = EngineConfig {
            leaps,
            reach_pruning,
            ..EngineConfig::from_env().unwrap()
        };
        let mut checker = Checker::new(
            &bench.left,
            bench.left_start,
            &bench.right,
            bench.right_start,
            options,
        );
        assert!(
            checker.run().is_equivalent(),
            "leaps={leaps} pruning={reach_pruning} changed the verdict"
        );
    }
}
