//! Quickstart: prove the paper's headline example — the reference and
//! vectorized MPLS/UDP parsers of Figure 1 accept exactly the same packets.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use leapfrog::{certificate, Checker, EngineConfig, Outcome};
use leapfrog_suite::utility::mpls;

fn main() {
    let reference = mpls::reference();
    let vectorized = mpls::vectorized();
    println!(
        "Reference parser:\n{}",
        leapfrog_p4a::pretty::pretty(&reference, "Reference")
    );
    println!(
        "Vectorized parser:\n{}",
        leapfrog_p4a::pretty::pretty(&vectorized, "Vectorized")
    );

    let q1 = reference.state_by_name("q1").unwrap();
    let q3 = vectorized.state_by_name("q3").unwrap();
    let mut checker = Checker::new(
        &reference,
        q1,
        &vectorized,
        q3,
        EngineConfig::from_env().unwrap(),
    );

    println!("Checking language equivalence (this computes a symbolic bisimulation with leaps)…");
    match checker.run() {
        Outcome::Equivalent(cert) => {
            println!("✔ equivalent — {}", checker.stats().summary());
            println!(
                "  relation has {} conjuncts over {} reachable template pairs",
                cert.relation.len(),
                checker.stats().scope_pairs
            );
            print!("  re-checking the certificate independently… ");
            match certificate::check(checker.sum_automaton(), &cert) {
                Ok(()) => println!("✔ certificate valid"),
                Err(e) => println!("✘ CERTIFICATE REJECTED: {e}"),
            }
        }
        Outcome::NotEquivalent(refutation) => {
            println!("✘ not equivalent:\n{refutation}");
        }
        Outcome::Aborted(why) => println!("aborted: {why}"),
    }
}
