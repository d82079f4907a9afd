//! Property-based tests for the P4A semantics: the chunked interpreter
//! agrees with the bit-by-bit `δ` of Definition 3.5 on random automata and
//! random packets, the pretty-printer round-trips through the surface
//! parser, and configurations maintain their buffer invariant.
//!
//! The offline build has no `proptest`; random automata and packets come
//! from a deterministic fixed-seed generator so failures stay reproducible.

use leapfrog_bitvec::BitVec;
use leapfrog_p4a::ast::{Automaton, Expr, Pattern, StateId, Target};
use leapfrog_p4a::builder::Builder;
use leapfrog_p4a::semantics::{Config, Store};
use leapfrog_p4a::walk::Rng;

const CASES: usize = 64;

/// A random word of up to `max_len` bits.
fn word(rng: &mut Rng, max_len: usize) -> BitVec {
    let len = rng.below(max_len + 1);
    let bits: Vec<bool> = (0..len).map(|_| rng.next_u64() & 1 == 1).collect();
    BitVec::from_bits(&bits)
}

/// A random well-formed automaton with up to 3 states, each extracting
/// 1–4 bits, with random select/goto transitions.
fn random_automaton(rng: &mut Rng) -> Automaton {
    let n = 1 + rng.below(3);
    let mut b = Builder::new();
    let states: Vec<StateId> = (0..n).map(|i| b.state(format!("q{i}"))).collect();
    let any_target = |rng: &mut Rng| match rng.below(5) {
        0 => Target::Accept,
        1 => Target::Reject,
        s => Target::State(states[(s - 2) % n]),
    };
    for (i, &q) in states.iter().enumerate() {
        let w = 1 + rng.below(4);
        let h = b.header(format!("h{i}"), w);
        let trans = if rng.below(2) == 0 {
            let t = any_target(rng);
            b.goto(t)
        } else {
            let ncases = 1 + rng.below(3);
            let cases: Vec<(Vec<Pattern>, Target)> = (0..ncases)
                .map(|_| {
                    let pat = Pattern::Exact(BitVec::from_u64(rng.next_u64() & ((1 << w) - 1), w));
                    (vec![pat], any_target(rng))
                })
                .collect();
            b.select(vec![Expr::hdr(h)], cases)
        };
        b.define(q, vec![b.extract(h)], trans);
    }
    b.build().expect("generated automaton is well-formed")
}

#[test]
fn chunked_interpreter_agrees_with_bit_by_bit() {
    let mut rng = Rng::new(0xc41c);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng);
        let word = word(&mut rng, 40);
        let mut store_rng = Rng::new(rng.next_u64());
        let store = Store::random(&aut, || store_rng.next_u64());
        let q = StateId(0);
        let slow = Config::with_store(q, store.clone()).accepts(&aut, &word);
        let fast = Config::with_store(q, store).accepts_chunked(&aut, &word);
        assert_eq!(slow, fast);
    }
}

#[test]
fn buffer_invariant_holds_along_any_run() {
    let mut rng = Rng::new(0xb0ff);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng);
        let word = word(&mut rng, 32);
        let mut c = Config::initial(&aut, StateId(0));
        for bit in word.iter() {
            c = c.step(&aut, bit);
            match c.target {
                Target::State(q) => assert!(c.buf.len() < aut.op_size(q)),
                _ => assert!(c.buf.is_empty()),
            }
        }
    }
}

#[test]
fn pretty_print_parse_roundtrip() {
    let mut rng = Rng::new(0x9e77);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng);
        let text = leapfrog_p4a::pretty::pretty(&aut, "Gen");
        let back = leapfrog_p4a::surface::parse(&text).expect("pretty output must re-parse");
        assert_eq!(back.num_states(), aut.num_states());
        // Same acceptance on a handful of words.
        for len in [0usize, 1, 3, 5, 8] {
            let word = BitVec::from_bits(&vec![true; len]);
            let a = Config::initial(&aut, StateId(0)).accepts_chunked(&aut, &word);
            let qb = back.state_by_name(aut.state_name(StateId(0))).unwrap();
            let b = Config::initial(&back, qb).accepts_chunked(&back, &word);
            assert_eq!(a, b);
        }
    }
}

#[test]
fn sum_preserves_acceptance() {
    let mut rng = Rng::new(0x5053);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng);
        let word = word(&mut rng, 24);
        let other = aut.clone();
        let s = leapfrog_p4a::sum::sum(&aut, &other);
        let q = StateId(0);
        let direct = Config::initial(&aut, q).accepts_chunked(&aut, &word);
        let left =
            Config::initial(&s.automaton, s.left_state(q)).accepts_chunked(&s.automaton, &word);
        let right =
            Config::initial(&s.automaton, s.right_state(q)).accepts_chunked(&s.automaton, &word);
        assert_eq!(direct, left);
        assert_eq!(direct, right);
    }
}

#[test]
fn accept_configurations_absorb_into_reject() {
    let mut rng = Rng::new(0xabab);
    for _ in 0..CASES {
        let aut = random_automaton(&mut rng);
        let word = word(&mut rng, 24);
        // Any strict extension of an accepted word is rejected.
        let c = Config::initial(&aut, StateId(0)).step_word(&aut, &word);
        if c.is_accepting() {
            let longer = word.concat(&BitVec::from_bits(&[true]));
            assert!(!Config::initial(&aut, StateId(0)).accepts(&aut, &longer));
        }
    }
}
