//! Workload inputs: the seeded order generator and the suite rows each
//! workload checks, built through the suite, `p4a` and `hwgen` public
//! functions with each call timed as a set-up span.

use leapfrog::{Engine, QueryRequest};
use leapfrog_logic::confrel::ConfRel;
use leapfrog_p4a::ast::{Automaton, StateId};
use leapfrog_suite::utility::sloppy_strict;
use leapfrog_suite::{Benchmark, Scale};

use crate::trace::Tracer;

/// SplitMix64: a small, fixed generator so one seed always gives one
/// order, on every host and toolchain.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (pass, client).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// How a row's query is posed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Plain language equivalence.
    Standard,
    /// Sloppy vs strict modulo an EtherType filter (replaced init).
    ExternalFiltering,
    /// Store correspondence at acceptance (replaced init).
    RelationalVerification,
}

/// One parser pair a workload checks.
pub struct Row {
    /// Table 2 (or mutant) row name.
    pub name: String,
    /// The left parser.
    pub left: Automaton,
    /// Its start state.
    pub ql: StateId,
    /// The right parser.
    pub right: Automaton,
    /// Its start state.
    pub qr: StateId,
    /// How the query is posed.
    pub kind: Kind,
    /// The verdict the row must get.
    pub expect_equivalent: bool,
    /// The disjoint-sum automaton certificates are stated over.
    pub sum: Automaton,
}

impl Row {
    /// The row's request over a prepared pair (the engine's standard
    /// request, with the initial relation replaced for the relational
    /// rows), built the way the suite's row runners build it.
    pub fn request(&self, engine: &mut Engine, pid: leapfrog::PairId) -> QueryRequest {
        let mut req = engine.standard_request(pid);
        let init: Option<Vec<ConfRel>> = match self.kind {
            Kind::Standard => None,
            Kind::ExternalFiltering => {
                let reach = engine.reachable(pid);
                Some(sloppy_strict::external_filter_init(
                    engine.sum_info(pid),
                    &reach,
                ))
            }
            Kind::RelationalVerification => Some(sloppy_strict::store_correspondence_init(
                engine.sum_info(pid),
            )),
        };
        if let Some(init) = init {
            req.standard_init = false;
            req.extra_init = init;
        }
        req
    }
}

/// Which rows a workload checks.
#[derive(Debug, Clone, Copy)]
pub enum RowSet {
    /// Full-scale Table 2: the 8 standard rows, External filtering,
    /// Relational verification and Translation Validation.
    Table2Full,
    /// The 8 standard rows at Small scale (the daemon's named rows).
    StandardSmall,
    /// The negative suite: every pair must be refuted.
    Mutants,
}

fn from_benchmark(b: Benchmark, tr: &mut Tracer) -> Row {
    let sum = timed_sum(&b.left, &b.right, tr);
    Row {
        name: b.name.to_string(),
        left: b.left,
        ql: b.left_start,
        right: b.right,
        qr: b.right_start,
        kind: Kind::Standard,
        expect_equivalent: b.expect_equivalent,
        sum,
    }
}

fn timed_sum(left: &Automaton, right: &Automaton, tr: &mut Tracer) -> Automaton {
    let span = tr.begin("p4a.sum", 0);
    let sum = leapfrog_p4a::sum::sum(left, right).automaton;
    tr.end(span);
    sum
}

fn sloppy_strict_row(name: &str, kind: Kind, tr: &mut Tracer) -> Row {
    let (left, right) = sloppy_strict::sloppy_strict_parsers();
    let ql = left
        .state_by_name(sloppy_strict::SLOPPY_START)
        .expect("sloppy parser start state");
    let qr = right
        .state_by_name(sloppy_strict::STRICT_START)
        .expect("strict parser start state");
    let sum = timed_sum(&left, &right, tr);
    Row {
        name: name.to_string(),
        left,
        ql,
        right,
        qr,
        kind,
        expect_equivalent: true,
        sum,
    }
}

/// The Translation Validation row: the Edge parser against its hardware
/// table round trip (`hwgen::compile` then `back_translate`).
fn translation_validation_row(scale: Scale, tr: &mut Tracer) -> Row {
    let edge = leapfrog_suite::applicability::edge(scale);
    let start = edge.state_by_name("parse_eth").expect("Edge start state");
    let span = tr.begin("hwgen.compile", 0);
    let hw = leapfrog_hwgen::compile(&edge, start, &leapfrog_hwgen::HwBudget::default())
        .expect("the Edge parser compiles to hardware tables");
    let (back, back_start) = leapfrog_hwgen::back_translate(&hw);
    tr.end(span);
    let back_start = back
        .state_by_name(&back_start)
        .expect("back-translated start state");
    let sum = timed_sum(&edge, &back, tr);
    Row {
        name: "Translation Validation".to_string(),
        left: edge,
        ql: start,
        right: back,
        qr: back_start,
        kind: Kind::Standard,
        expect_equivalent: true,
        sum,
    }
}

/// Builds a row set, recording `p4a.sum` and `hwgen.compile` spans.
pub fn build(set: RowSet, tr: &mut Tracer) -> Vec<Row> {
    match set {
        RowSet::Table2Full => {
            let mut rows: Vec<Row> = leapfrog_suite::standard_benchmarks(Scale::Full)
                .into_iter()
                .map(|b| from_benchmark(b, tr))
                .collect();
            rows.push(sloppy_strict_row(
                "External filtering",
                Kind::ExternalFiltering,
                tr,
            ));
            rows.push(sloppy_strict_row(
                "Relational verification",
                Kind::RelationalVerification,
                tr,
            ));
            rows.push(translation_validation_row(Scale::Full, tr));
            rows
        }
        RowSet::StandardSmall => leapfrog_suite::standard_benchmarks(Scale::Small)
            .into_iter()
            .map(|b| from_benchmark(b, tr))
            .collect(),
        RowSet::Mutants => leapfrog_suite::mutants::mutant_benchmarks()
            .into_iter()
            .map(|b| from_benchmark(b, tr))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_repeat_per_seed_and_differ_across_seeds() {
        let a = Rng::new(7, 0).permutation(11);
        assert_eq!(a, Rng::new(7, 0).permutation(11));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..11).collect::<Vec<_>>());
        assert_ne!(a, Rng::new(8, 0).permutation(11));
        assert_ne!(a, Rng::new(7, 1).permutation(11));
    }
}
