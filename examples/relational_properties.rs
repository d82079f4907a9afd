//! The two relational case studies on the sloppy/strict Ethernet parsers
//! (paper §7.1, Figure 10):
//!
//! * **External filtering**: the parsers disagree — the lenient one
//!   accepts unknown EtherTypes — but are equivalent *modulo a filter*
//!   that drops packets whose EtherType is neither IPv4 nor IPv6.
//! * **Relational verification**: whenever both parsers accept a packet,
//!   their stores correspond field-for-field.
//!
//! Both are posed by replacing the initial relation of the bisimulation
//! search, exactly as the paper describes.
//!
//! ```text
//! cargo run --release --example relational_properties
//! ```

use leapfrog::{Checker, EngineConfig, Outcome};
use leapfrog_logic::reach::reachable_pairs;
use leapfrog_suite::utility::sloppy_strict;

fn main() {
    let (sloppy, strict) = sloppy_strict::sloppy_strict_parsers();
    let ql = sloppy.state_by_name(sloppy_strict::SLOPPY_START).unwrap();
    let qr = strict.state_by_name(sloppy_strict::STRICT_START).unwrap();

    // First: show they are NOT plainly equivalent.
    println!("1. Plain language equivalence (expected to fail):");
    let mut plain = Checker::new(&sloppy, ql, &strict, qr, EngineConfig::from_env().unwrap());
    match plain.run() {
        Outcome::NotEquivalent(_) => {
            println!("   ✘ not equivalent, as expected — the lenient parser accepts more")
        }
        other => println!("   unexpected outcome: {other:?}"),
    }

    // Second: equivalence modulo the external filter.
    println!("2. Equivalence modulo an EtherType filter:");
    let mut filtered = Checker::new(&sloppy, ql, &strict, qr, EngineConfig::from_env().unwrap());
    let reach = reachable_pairs(filtered.sum_automaton(), &[filtered.root()], true);
    let init = sloppy_strict::external_filter_init(filtered.sum_info(), &reach);
    filtered.replace_init(init);
    match filtered.run() {
        Outcome::Equivalent(cert) => {
            println!(
                "   ✔ equivalent modulo the filter — {}",
                filtered.stats().summary()
            );
            assert!(!cert.standard_init);
            println!("   (certificate marked as a custom-I pre-bisimulation)");
        }
        other => println!("   unexpected outcome: {other:?}"),
    }

    // Third: store correspondence when both accept.
    println!("3. Store correspondence at acceptance:");
    let mut relational = Checker::new(&sloppy, ql, &strict, qr, EngineConfig::from_env().unwrap());
    let init = sloppy_strict::store_correspondence_init(relational.sum_info());
    relational.replace_init(init);
    match relational.run() {
        Outcome::Equivalent(_) => {
            println!(
                "   ✔ whenever both parsers accept, ether/ipv4/ipv6 headers agree — {}",
                relational.stats().summary()
            );
        }
        other => println!("   unexpected outcome: {other:?}"),
    }
}
