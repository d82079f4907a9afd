//! The header-initialization case study (paper §7.1, Figure 9): prove
//! that a parser's acceptance does not depend on uninitialized headers by
//! checking it equivalent to itself under arbitrary initial stores — and
//! watch the check *fail* on a buggy variant that forgets to default the
//! VLAN tag.
//!
//! ```text
//! cargo run --release --example header_initialization
//! ```

use leapfrog::{Checker, EngineConfig, Outcome};
use leapfrog_suite::utility::vlan_init;

fn self_check(name: &str, aut: &leapfrog_p4a::Automaton) {
    let q = aut.state_by_name("parse_eth").unwrap();
    let mut checker = Checker::new(aut, q, aut, q, EngineConfig::from_env().unwrap());
    match checker.run() {
        Outcome::Equivalent(_) => {
            println!("✔ {name}: acceptance is independent of the initial store");
            println!("  {}", checker.stats().summary());
        }
        Outcome::NotEquivalent(refutation) => {
            println!("✘ {name}: acceptance DEPENDS on an uninitialized header!");
            match refutation.witness() {
                Some(w) => {
                    // The engine produced a concrete, minimized, replayable
                    // demonstration: two initial stores and one packet.
                    print!("  {w}");
                }
                None => {
                    let text = refutation.to_string();
                    let first = text.lines().take(4).collect::<Vec<_>>().join("\n  ");
                    println!("  {first}\n  …");
                }
            }
        }
        Outcome::Aborted(why) => println!("aborted: {why}"),
    }
}

fn main() {
    println!("Parser with defaulted VLAN tag (Figure 9):");
    self_check("fixed parser", &vlan_init::vlan_parser());
    println!();
    println!("Buggy variant without `vlan := 0`:");
    self_check("buggy parser", &vlan_init::vlan_parser_buggy());
}
