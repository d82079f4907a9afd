//! Differential testing of the decision procedure itself: random small
//! parser pairs are checked symbolically and compared against exhaustive
//! enumeration of all packets up to a length bound.
//!
//! Soundness direction: if the symbolic checker proves equivalence, no
//! enumerated packet may distinguish the parsers (for any sampled store).
//! Refutation direction: if enumeration finds a distinguishing packet, the
//! symbolic checker must report non-equivalence.

use leapfrog::checker::check_language_equivalence;
use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, Expr, Pattern, StateId, Target};
use leapfrog_p4a::builder::Builder;
use leapfrog_p4a::semantics::{Config, Store};
use leapfrog_p4a::walk::Rng;

/// Generates a random parser: 1–3 states, headers of 1–3 bits, selects
/// over extracted headers with random exact/wildcard cases.
fn random_parser(rng: &mut Rng, tag: &str) -> Automaton {
    let num_states = 1 + rng.below(3);
    let mut b = Builder::new();
    let states: Vec<StateId> = (0..num_states)
        .map(|i| b.state(format!("{tag}{i}")))
        .collect();
    for (i, &q) in states.iter().enumerate() {
        let width = 1 + rng.below(3);
        let h = b.header(format!("{tag}h{i}"), width);
        let ops = vec![b.extract(h)];
        let any_target = |rng: &mut Rng| -> Target {
            match rng.below(4) {
                0 => Target::Accept,
                1 => Target::Reject,
                _ => Target::State(states[rng.below(num_states)]),
            }
        };
        let trans = if rng.below(3) == 0 {
            b.goto(any_target(rng))
        } else {
            let ncases = 1 + rng.below(3);
            let cases: Vec<(Vec<Pattern>, Target)> = (0..ncases)
                .map(|_| {
                    let pat = if rng.below(4) == 0 {
                        Pattern::Wildcard
                    } else {
                        Pattern::Exact(BitVec::from_u64(rng.next_u64() & ((1 << width) - 1), width))
                    };
                    (vec![pat], any_target(rng))
                })
                .collect();
            b.select(vec![Expr::hdr(h)], cases)
        };
        b.define(q, ops, trans);
    }
    b.build().expect("generated parser is well-formed")
}

/// Exhaustively compares the two parsers on all words up to `max_len`
/// under several random store pairs; returns a distinguishing word if any.
fn exhaustive_disagreement(
    left: &Automaton,
    ql: StateId,
    right: &Automaton,
    qr: StateId,
    max_len: usize,
    rng: &mut Rng,
) -> Option<BitVec> {
    let stores: Vec<(Store, Store)> = (0..4)
        .map(|_| {
            (
                Store::random(left, || rng.next_u64()),
                Store::random(right, || rng.next_u64()),
            )
        })
        .collect();
    for len in 0..=max_len {
        for w in 0u64..(1u64 << len) {
            let word = BitVec::from_u64(w, len);
            for (sl, sr) in &stores {
                let al = Config::with_store(ql, sl.clone()).accepts_chunked(left, &word);
                let ar = Config::with_store(qr, sr.clone()).accepts_chunked(right, &word);
                if al != ar {
                    return Some(word);
                }
            }
        }
    }
    None
}

#[test]
fn symbolic_checker_agrees_with_exhaustive_oracle() {
    let mut rng = Rng::new(0x1eaf_f709);
    let mut equivalent_seen = 0;
    let mut inequivalent_seen = 0;
    for round in 0..40 {
        let left = random_parser(&mut rng, "a");
        let right = random_parser(&mut rng, "b");
        let ql = StateId(0);
        let qr = StateId(0);
        let outcome = check_language_equivalence(&left, ql, &right, qr);
        let verdict = outcome.is_equivalent();
        if !verdict {
            // Every refutation of a standard language-equivalence query
            // must lift into a confirmed witness: concrete stores plus a
            // packet the explicit semantics genuinely disagree on.
            leapfrog_suite::differential::confirm_refutation(&outcome)
                .unwrap_or_else(|e| panic!("round {round}: witness unconfirmed: {e}"));
        }
        let counterexample = exhaustive_disagreement(&left, ql, &right, qr, 9, &mut rng);
        match (&counterexample, verdict) {
            (Some(w), true) => panic!(
                "round {round}: symbolic checker proved equivalence but word {w} \
                 distinguishes the parsers"
            ),
            (None, true) => equivalent_seen += 1,
            (Some(_), false) => inequivalent_seen += 1,
            (None, false) => {
                // Inconclusive for the oracle: the refutation may need a
                // longer word or a specific store — but the confirmed
                // witness above already demonstrates it concretely.
                inequivalent_seen += 1;
            }
        }
    }
    // The generator must exercise both verdicts for the test to mean much.
    assert!(
        equivalent_seen >= 3,
        "only {equivalent_seen} equivalent pairs generated"
    );
    assert!(
        inequivalent_seen >= 3,
        "only {inequivalent_seen} inequivalent pairs generated"
    );
}

#[test]
fn self_comparison_of_store_independent_parsers_verifies() {
    // Parsers whose selects only scrutinize same-state extracted headers
    // are store-independent, so self-comparison must always verify.
    let mut rng = Rng::new(0xfeedbead);
    for round in 0..15 {
        let a = random_parser(&mut rng, "s");
        let verdict = check_language_equivalence(&a, StateId(0), &a, StateId(0));
        assert!(
            verdict.is_equivalent(),
            "round {round}: self-comparison failed for a store-independent parser"
        );
    }
}
