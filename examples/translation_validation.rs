//! Translation validation (paper §7.2, Figure 8): compile the Edge router
//! parser to parser-gen-style hardware match tables, translate the tables
//! back into a P4 automaton, and prove the compiler preserved the parser's
//! language.
//!
//! ```text
//! cargo run --release --example translation_validation
//! ```

use leapfrog::{Checker, EngineConfig, Outcome};
use leapfrog_hwgen::{back_translate, compile, HwBudget};
use leapfrog_suite::applicability::edge;
use leapfrog_suite::Scale;

fn main() {
    let scale = Scale::from_env().unwrap();
    let parser = edge(scale);
    let start = parser.state_by_name("parse_eth").unwrap();
    println!(
        "Edge parser: {} states, {} header bits (scale {scale:?})",
        parser.num_states(),
        parser.total_header_bits()
    );

    let budget = HwBudget::default();
    let hw = compile(&parser, start, &budget).expect("Edge compiles to hardware tables");
    println!(
        "Compiled to {} hardware table rows over {} states \
         (≤{} bits/cycle, ≤{} key bits):",
        hw.entries.len(),
        hw.num_states(),
        budget.max_advance,
        budget.max_branch_bits
    );
    for line in hw.render().lines().take(6) {
        println!("  {line}");
    }
    println!("  …");

    let (back, back_start) = back_translate(&hw);
    let back_q = back.state_by_name(&back_start).unwrap();
    println!(
        "Back-translated into a {}-state P4 automaton",
        back.num_states()
    );

    println!("Validating the round trip with Leapfrog…");
    let mut checker = Checker::new(
        &parser,
        start,
        &back,
        back_q,
        EngineConfig::from_env().unwrap(),
    );
    match checker.run() {
        Outcome::Equivalent(cert) => {
            println!("✔ the compiler preserved the parser's language");
            println!("  {}", checker.stats().summary());
            match leapfrog::certificate::check(checker.sum_automaton(), &cert) {
                Ok(()) => println!("  certificate re-checked independently ✔"),
                Err(e) => println!("  certificate REJECTED: {e}"),
            }
        }
        Outcome::NotEquivalent(refutation) => {
            println!("✘ MISCOMPILATION DETECTED:\n{refutation}");
        }
        Outcome::Aborted(why) => println!("aborted: {why}"),
    }
}
