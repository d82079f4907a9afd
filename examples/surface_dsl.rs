//! Using the surface DSL: write two parsers in the paper's notation,
//! parse them, run packets through the interpreter, and check equivalence.
//!
//! ```text
//! cargo run --release --example surface_dsl
//! ```

use leapfrog::{Checker, EngineConfig, Outcome};
use leapfrog_bitvec::BitVec;
use leapfrog_p4a::semantics::Config;
use leapfrog_p4a::surface::parse_named;

const REFERENCE: &str = r#"
parser Reference {
  // A stylized IP: 16 bits, then UDP (8 bits) or TCP (16 bits)
  // depending on bits 4..7 of the IP header.
  state parse_ip {
    extract(ip, 16);
    select(ip[4:7]) {
      0b0001 => parse_udp;
      0b0000 => parse_tcp;
    }
  }
  state parse_udp { extract(udp, 8);  goto accept; }
  state parse_tcp { extract(tcp, 16); goto accept; }
}
"#;

const COMBINED: &str = r#"
parser Combined {
  // Extracts IP plus the 8-bit shared prefix before branching.
  state parse_combined {
    extract(ip, 16);
    extract(pref, 8);
    select(ip[4:7]) {
      0b0001 => accept;
      0b0000 => parse_suff;
    }
  }
  state parse_suff { extract(suff, 8); goto accept; }
}
"#;

fn main() {
    let (reference, ref_name) = parse_named(REFERENCE).expect("reference parses");
    let (combined, comb_name) = parse_named(COMBINED).expect("combined parses");
    println!(
        "Parsed `{ref_name}` ({} states) and `{comb_name}` ({} states)",
        reference.num_states(),
        combined.num_states()
    );

    // Run a UDP-tagged packet through both interpreters.
    let mut packet = BitVec::zeros(24);
    packet.set(7, true); // ip[4:7] = 0001
    let q_ref = reference.state_by_name("parse_ip").unwrap();
    let q_comb = combined.state_by_name("parse_combined").unwrap();
    println!(
        "UDP packet: reference={}, combined={}",
        Config::initial(&reference, q_ref).accepts(&reference, &packet),
        Config::initial(&combined, q_comb).accepts(&combined, &packet),
    );

    // Prove they agree on *all* packets.
    let mut checker = Checker::new(
        &reference,
        q_ref,
        &combined,
        q_comb,
        EngineConfig::from_env().unwrap(),
    );
    match checker.run() {
        Outcome::Equivalent(_) => {
            println!(
                "✔ equivalent on all packets — {}",
                checker.stats().summary()
            )
        }
        other => println!("unexpected: {other:?}"),
    }

    // Round-trip through the pretty-printer.
    let text = leapfrog_p4a::pretty::pretty(&reference, "Reference");
    let reparsed = leapfrog_p4a::surface::parse(&text).expect("pretty output reparses");
    assert_eq!(reparsed.num_states(), reference.num_states());
    println!("Pretty-printer round trip: ok");
}
