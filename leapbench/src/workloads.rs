//! The whole-pass workloads, and what every workload shares (`serve-warm`
//! itself is in `serve.rs`). Each is a closed loop: one verdict in flight per
//! client, the next sent only when the last one is checked. A verdict is
//! timed from the request to the checked answer, so every correctness
//! check a workload makes sits inside the verdict it belongs to.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use leapfrog::{Engine, EngineConfig, Outcome, RunStats};
use leapfrog_certcheck::CertCheckError;
use leapfrog_obs::Phase;
use leapfrog_p4a::ast::Automaton;

use crate::inputs::{self, Rng, Row, RowSet};
use crate::trace::{Span, Tracer, VERDICT};

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Seed for every generated order.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Verdicts an untraced window holds at least: it goes on past
    /// `seconds` until it has them (0 in the traced run).
    pub min_samples: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Epoch for every span of the run.
    pub epoch: Instant,
    /// The engine configuration every verdict's engine is built from.
    pub config: EngineConfig,
}

/// Per-layer sums collected in traced verdicts.
#[derive(Default)]
pub struct Acc(pub BTreeMap<&'static str, f64>);

impl Acc {
    /// Adds `v` to the named sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    /// The named sum (0 when never added).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn absorb(&mut self, other: Acc) {
        for (k, v) in other.0 {
            self.add(k, v);
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Latency of each untraced verdict.
    pub latencies_ms: Vec<f64>,
    /// The same latencies by row (request kind and row for serve-warm).
    pub row_ms: BTreeMap<String, Vec<f64>>,
    /// Latency of each traced verdict (traced run only).
    pub traced_latencies_ms: Vec<f64>,
    /// Wall time of the untraced measured passes.
    pub window_s: f64,
    /// Verdicts answered correctly in the untraced passes.
    pub correct_verdicts: u64,
    /// Operations attempted (every verdict, traced or not).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-layer sums from traced verdicts.
    pub acc: Acc,
    /// Traced verdicts (the denominator of per-verdict means).
    pub traced_verdicts: u64,
    /// Spans of the verdicts and their probes.
    pub spans: Vec<Span>,
    /// Spans of the set-ups.
    pub setup_spans: Vec<Span>,
    /// Client-observed round trips by request kind (serve-warm).
    pub rtt_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Engine threads a verdict's engine runs on.
    pub engine_threads: usize,
    /// Client connections (serve-warm) or 1.
    pub clients: usize,
    /// Rows per pass on a whole-pass workload, 0 on serve-warm: the
    /// untraced latencies are then whole passes, one after another.
    pub pass_rows: usize,
}

impl Measured {
    /// Counts one attempted operation and its result.
    pub fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Counts a failure found in an operation already tallied.
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }

    /// Folds another client's measurements into this one.
    pub fn absorb(&mut self, other: Measured) {
        self.latencies_ms.extend(other.latencies_ms);
        for (k, v) in other.row_ms {
            self.row_ms.entry(k).or_default().extend(v);
        }
        self.traced_latencies_ms.extend(other.traced_latencies_ms);
        self.correct_verdicts += other.correct_verdicts;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
        self.acc.absorb(other.acc);
        self.traced_verdicts += other.traced_verdicts;
        for (k, v) in other.rtt_ms {
            self.rtt_ms.entry(k).or_default().extend(v);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A run first sets up at least this many times.
const MIN_SETUPS: usize = 3;

/// Cheap set-ups repeat until this much time is spent (at most
/// [`MAX_SETUPS`] times), at the start and again, for a tenth of it,
/// between passes: the host's speed drifts, and set-ups spread over the
/// whole run give a median that drifts no more than the verdicts do.
const SETUP_BUDGET_S: f64 = 0.2;

/// Upper bound on the set-ups of one burst.
const MAX_SETUPS: usize = 200;

/// Repeated, timed set-ups of a workload. Spans go to `setup_spans` only
/// in the traced run.
pub struct Setups<F> {
    setup: F,
    tr: Tracer,
    times: Vec<f64>,
}

impl<T, F: FnMut(&mut Tracer) -> T> Setups<F> {
    /// Set-ups of `setup`, not yet run.
    pub fn new(ctx: &Ctx, setup: F) -> Self {
        Setups {
            setup,
            tr: Tracer::new(ctx.trace, ctx.epoch),
            times: Vec::new(),
        }
    }

    /// Sets up at least `min` times and until `budget_s` is spent, timing
    /// each; returns the last product.
    pub fn burst(&mut self, min: usize, budget_s: f64) -> T {
        let (mut n, mut spent) = (0, 0.0);
        let mut product = None;
        while n < min || (spent < budget_s && n < MAX_SETUPS) {
            // Drop the previous product first so each set-up starts from
            // the same state (a daemon's port and threads are released).
            drop(product.take());
            let start = Instant::now();
            let root = self.tr.begin("bench.setup", 0);
            product = Some((self.setup)(&mut self.tr));
            self.tr.end(root);
            let dt = start.elapsed().as_secs_f64();
            self.times.push(dt);
            spent += dt;
            n += 1;
        }
        product.expect("at least one set-up ran")
    }

    /// The first burst: what the workload then runs on.
    pub fn first(&mut self) -> T {
        self.burst(MIN_SETUPS, SETUP_BUDGET_S)
    }

    /// A short burst between passes; its product is dropped.
    pub fn between_passes(&mut self) {
        self.burst(1, SETUP_BUDGET_S / 10.0);
    }

    /// Hands the set-up times and spans to the run's measurements.
    pub fn finish(self, out: &mut Measured) {
        out.setup_s = self.times;
        out.setup_spans = self.tr.spans().to_vec();
    }
}

/// Extra per-layer work a traced verdict asks for once it is answered:
/// runs outside the verdict's time, under a `bench.probe` root span.
pub type Probe<'r> = Box<dyn FnOnce(&mut Tracer, u64, &mut Acc) -> Result<(), String> + 'r>;

/// A verdict's result: checked, with an optional probe, or the reason it
/// failed.
pub type Verdict<'r> = Result<Option<Probe<'r>>, String>;

/// One pass loop: whole passes over the rows, each in a seeded order,
/// until `seconds` have passed and the context's minimum of verdicts is
/// in.
fn passes<'r>(
    ctx: &Ctx,
    rows: &'r [Row],
    phase: u64,
    seconds: f64,
    traced: bool,
    between_passes: &mut impl FnMut(),
    verdict: &mut impl FnMut(usize, &mut Tracer, u64, &mut Acc) -> Verdict<'r>,
) -> (Measured, Tracer) {
    let mut out = Measured::default();
    let mut tr = Tracer::new(traced, ctx.epoch);
    let start = Instant::now();
    let mut request = phase << 40;
    let mut pass = 0u64;
    loop {
        let order = Rng::new(ctx.seed, (phase << 24) | pass).permutation(rows.len());
        let pass_start = Instant::now();
        for i in order {
            request += 1;
            let t0 = Instant::now();
            let root = tr.begin(VERDICT, request);
            let result = verdict(i, &mut tr, request, &mut out.acc);
            tr.end(root);
            let dt = ms(t0.elapsed());
            // Probes run after the verdict's clock and root span stop.
            let result = result.and_then(|probe| {
                let Some(probe) = probe else { return Ok(()) };
                let span = tr.begin("bench.probe", request);
                let probed = probe(&mut tr, request, &mut out.acc);
                tr.end(span);
                probed
            });
            let ok = result.is_ok();
            out.tally(result.map_err(|e| format!("{}: {e}", rows[i].name)));
            if traced {
                out.traced_latencies_ms.push(dt);
                out.traced_verdicts += 1;
            } else {
                out.latencies_ms.push(dt);
                out.row_ms.entry(rows[i].name.clone()).or_default().push(dt);
                out.correct_verdicts += ok as u64;
            }
        }
        out.window_s += pass_start.elapsed().as_secs_f64();
        between_passes();
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds && out.attempted as usize >= ctx.min_samples {
            break;
        }
    }
    (out, tr)
}

/// The closed loop of a single-client workload: whole passes until the
/// window is spent, set-ups repeated between passes. The traced run
/// makes an untraced half and then a traced half (engine spans on), one
/// pass each at least, so the tracing overhead compares the same rows in
/// the same process.
fn closed_loop<'r>(
    ctx: &Ctx,
    rows: &'r [Row],
    out: &mut Measured,
    mut between_passes: impl FnMut(),
    mut verdict: impl FnMut(usize, &mut Tracer, u64, &mut Acc) -> Verdict<'r>,
) {
    let half = ctx.seconds / 2.0;
    let phases = if ctx.trace {
        vec![(false, half), (true, half)]
    } else {
        vec![(false, ctx.seconds)]
    };
    out.clients = 1;
    out.pass_rows = rows.len();
    let mut spans = Tracer::new(ctx.trace, ctx.epoch);
    for (phase, (traced, seconds)) in phases.into_iter().enumerate() {
        leapfrog_obs::trace::set_enabled(traced);
        let (m, tr) = passes(
            ctx,
            rows,
            phase as u64,
            seconds,
            traced,
            &mut between_passes,
            &mut verdict,
        );
        leapfrog_obs::trace::set_enabled(false);
        if !traced {
            out.window_s += m.window_s;
        }
        out.absorb(m);
        spans.absorb(tr);
    }
    out.spans = spans.spans().to_vec();
}

/// Checks that every repetition of a row produced the same bytes.
#[derive(Default)]
struct SameBytes(HashMap<usize, String>);

impl SameBytes {
    fn check(&mut self, row: usize, bytes: &str) -> Result<(), String> {
        match self.0.get(&row) {
            Some(first) if first != bytes => {
                Err("output bytes differ from the first repetition".into())
            }
            Some(_) => Ok(()),
            None => {
                self.0.insert(row, bytes.to_string());
                Ok(())
            }
        }
    }
}

/// A fresh engine answers the row: `core.prepare` (engine, interned pair
/// and reachable scope) then `core.run`.
fn cold_check(ctx: &Ctx, row: &Row, tr: &mut Tracer, req: u64) -> (Engine, Outcome) {
    let span = tr.begin("core.prepare", req);
    let mut engine = Engine::new(ctx.config.clone());
    let pid = engine.prepare_pair(&row.left, row.ql, &row.right, row.qr);
    engine.reachable(pid);
    let request = row.request(&mut engine, pid);
    tr.end(span);
    let span = tr.begin("core.run", req);
    let outcome = engine.run_prepared(pid, &request);
    tr.end(span);
    (engine, outcome)
}

fn phase_ms(stats: &RunStats, phase: Phase) -> f64 {
    stats
        .phases
        .entries
        .iter()
        .filter(|e| e.phase == phase)
        .map(|e| e.nanos as f64 / 1e6)
        .sum()
}

/// Adds a run's engine, solver and phase counters to the per-layer sums.
pub fn add_run_stats(acc: &mut Acc, s: &RunStats) {
    acc.add("core.iterations", s.iterations as f64);
    acc.add("core.relation_size", s.extended as f64);
    acc.add("core.scope_pairs", s.scope_pairs as f64);
    acc.add("core.wp_generated", s.wp_generated as f64);
    acc.add("core.entailment_checks", s.entailment_checks as f64);
    acc.add("core.memo_hits", s.entailment_memo_hits as f64);
    acc.add("core.parallel_checks", s.parallel_checks as f64);
    acc.add("core.merge_rechecks", s.merge_rechecks as f64);
    acc.add("smt.queries", s.queries.queries as f64);
    acc.add("smt.cegar_rounds", s.queries.cegar_rounds as f64);
    acc.add("smt.blast_cache_hits", s.queries.blast_cache_hits as f64);
    acc.add(
        "smt.blast_cache_lookups",
        (s.queries.blast_cache_hits + s.queries.blast_cache_misses) as f64,
    );
    acc.add("sat.conflicts", s.queries.sat.conflicts as f64);
    acc.add("sat.propagations", s.queries.sat.propagations as f64);
    acc.add("cex.bits_minimized", s.witness_bits_minimized as f64);
    acc.add("core.phase.generation_ms", phase_ms(s, Phase::Generation));
    acc.add(
        "core.phase.guard_entailment_ms",
        phase_ms(s, Phase::GuardEntailment),
    );
    acc.add("core.phase.cegar_round_ms", phase_ms(s, Phase::CegarRound));
    acc.add("cex.witness_ms", phase_ms(s, Phase::Witness));
    // `query` minus the named leaf phases it contains: what is left is
    // the worklist's own work, the WP loop included.
    let leaves = [
        Phase::InternPair,
        Phase::Reach,
        Phase::GuardEntailment,
        Phase::Certificate,
        Phase::Witness,
    ];
    let named: f64 = leaves.iter().map(|&p| phase_ms(s, p)).sum();
    acc.add(
        "core.phase.unattributed_ms",
        phase_ms(s, Phase::Query) - named,
    );
}

/// The `logic` probe: `wp` over the certificate relation × the engine's
/// reachable scope — the sweep the worklist performs — as its own span.
pub fn logic_sweep(
    aut: &Automaton,
    scope: &[leapfrog_logic::TemplatePair],
    cert: &leapfrog::Certificate,
    tr: &mut Tracer,
    req: u64,
    acc: &mut Acc,
) {
    let span = tr.begin("logic.wp_sweep", req);
    let (mut calls, mut hits) = (0u64, 0u64);
    for rho in &cert.relation {
        for pred in scope {
            calls += 1;
            if std::hint::black_box(leapfrog_logic::wp(aut, rho, pred, cert.leaps)).is_some() {
                hits += 1;
            }
        }
    }
    tr.end(span);
    acc.add("logic.wp_calls", calls as f64);
    acc.add("logic.wp_hits", hits as f64);
}

/// `cold-table2`: every Full-scale Table 2 row on a fresh engine, run to
/// a certificate whose bytes must repeat across passes.
pub fn cold_table2(ctx: &Ctx) -> Measured {
    let mut out = Measured::default();
    let mut setups = Setups::new(ctx, |tr: &mut Tracer| inputs::build(RowSet::Table2Full, tr));
    let rows = setups.first();
    out.engine_threads = ctx.config.effective_threads();
    let mut same = SameBytes::default();
    let between = || setups.between_passes();
    closed_loop(ctx, &rows, &mut out, between, |i, tr, req, acc| {
        let row = &rows[i];
        let (engine, outcome) = cold_check(ctx, row, tr, req);
        let Outcome::Equivalent(cert) = &outcome else {
            return Err(format!("expected Equivalent, got {}", kind_of(&outcome)));
        };
        let span = tr.begin("core.cert_encode", req);
        let json = cert.to_json();
        tr.end(span);
        if tr.on() {
            acc.add("core.cert_bytes", json.len() as f64);
            add_run_stats(acc, engine.last_run_stats());
        }
        same.check(i, &json)?;
        if !tr.on() {
            return Ok(None);
        }
        // The probe rebuilds what it needs from the row and the encoded
        // certificate, so the traced verdict frees exactly what an
        // untraced one does.
        Ok(Some(Box::new(
            move |tr: &mut Tracer, req, acc: &mut Acc| {
                let cert = leapfrog::Certificate::from_json(&json)
                    .map_err(|e| format!("certificate does not decode: {e}"))?;
                let mut engine = Engine::new(ctx.config.clone());
                let pid = engine.prepare_pair(&row.left, row.ql, &row.right, row.qr);
                let scope = engine.reachable(pid);
                logic_sweep(engine.sum_automaton(pid), &scope, &cert, tr, req, acc);
                Ok(())
            },
        )))
    });
    setups.finish(&mut out);
    out
}

fn kind_of(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Equivalent(_) => "Equivalent",
        Outcome::NotEquivalent(_) => "NotEquivalent",
        Outcome::Aborted(_) => "Aborted",
    }
}

/// The trust root's `check`, replayed call by call through its public
/// functions, in the same order and with the same verdict, each call
/// timed. Closure `wp` calls are too many to span one by one; their time
/// and counts are summed instead, and every entailment gets a span. The
/// self-test below holds its verdict to `check_json`'s.
pub fn certcheck_traced(
    aut: &Automaton,
    json: &str,
    tr: &mut Tracer,
    req: u64,
    acc: &mut Acc,
) -> Result<(), CertCheckError> {
    use leapfrog_certcheck::{rel, solve, wp, Certificate};
    let root = tr.begin("certcheck.check", req);
    let result = (|| {
        let span = tr.begin("certcheck.parse", req);
        let cert = Certificate::from_json(json, aut);
        tr.end(span);
        let cert = cert?;
        let span = tr.begin("certcheck.reach", req);
        let scope = rel::reachable_pairs(aut, &[cert.query.guard], cert.leaps);
        tr.end(span);
        if cert.standard_init {
            for p in &scope {
                if p.left.is_accepting() != p.right.is_accepting()
                    && !cert
                        .init
                        .iter()
                        .any(|i| i.guard == *p && i.phi == rel::Pure::ff())
                {
                    return Err(CertCheckError::MissingAcceptanceCondition(p.display(aut)));
                }
            }
        }
        let mut entails = |premises: &[rel::ConfRel], c: &rel::ConfRel, member: bool| {
            let start = tr.stamp();
            let ok = solve::entails(aut, premises, c);
            let end = tr.stamp();
            tr.record("certcheck.entails", req, start, end);
            acc.add("certcheck.obligations", 1.0);
            if member {
                acc.add("certcheck.member_obligations", 1.0);
                acc.add("certcheck.member_entails_ms", (end - start) as f64 / 1e6);
            }
            ok
        };
        for i in &cert.init {
            if !entails(&cert.relation, i, false) {
                return Err(CertCheckError::InitNotEntailed(i.display(aut)));
            }
        }
        let members: HashSet<&rel::ConfRel> = cert.relation.iter().collect();
        let (mut calls, mut hits, mut wp_ns) = (0u64, 0u64, 0u64);
        let mut closed = Ok(());
        'sweep: for rho in &cert.relation {
            for p in &scope {
                let t = Instant::now();
                let ob = wp::wp(aut, rho, p, cert.leaps);
                wp_ns += t.elapsed().as_nanos() as u64;
                calls += 1;
                if let Some(ob) = ob {
                    hits += 1;
                    if !entails(&cert.relation, &ob, members.contains(&ob)) {
                        closed = Err(CertCheckError::NotClosed(ob.display(aut)));
                        break 'sweep;
                    }
                }
            }
        }
        let result = closed.and_then(|()| {
            for rho in &cert.relation {
                if rho.guard == cert.query.guard
                    && !entails(std::slice::from_ref(&cert.query), rho, false)
                {
                    return Err(CertCheckError::QueryNotEntailed(rho.display(aut)));
                }
            }
            Ok(())
        });
        acc.add("certcheck.wp_calls", calls as f64);
        acc.add("certcheck.wp_hits", hits as f64);
        acc.add("certcheck.wp_ms", wp_ns as f64 / 1e6);
        result
    })();
    tr.end(root);
    result
}

/// `refute-mutants`: every mutant pair on a fresh engine must be refuted
/// with a witness that explicit replay confirms, byte-identical across
/// passes.
pub fn refute_mutants(ctx: &Ctx) -> Measured {
    let mut out = Measured::default();
    let mut setups = Setups::new(ctx, |tr: &mut Tracer| inputs::build(RowSet::Mutants, tr));
    let rows = setups.first();
    out.engine_threads = ctx.config.effective_threads();
    let mut same = SameBytes::default();
    let between = || setups.between_passes();
    closed_loop(ctx, &rows, &mut out, between, |i, tr, req, acc| {
        let row = &rows[i];
        if row.expect_equivalent {
            return Err("mutant row is not expected to be refuted".into());
        }
        let (engine, outcome) = cold_check(ctx, row, tr, req);
        let span = tr.begin("cex.replay", req);
        let confirmed =
            leapfrog_suite::differential::confirm_refutation(&outcome).map(|w| w.packet.len());
        tr.end(span);
        let bits = confirmed?;
        if tr.on() {
            acc.add("cex.witness_bits", bits as f64);
            add_run_stats(acc, engine.last_run_stats());
        }
        same.check(
            i,
            &leapfrog_serve::proto::outcome_to_value(&outcome).render(),
        )?;
        Ok(None)
    });
    setups.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use leapfrog::json::{self, Value};

    /// The row's certificate from an engine cold check.
    fn certificate(row: &Row) -> String {
        let mut engine = Engine::new(EngineConfig::new().threads(1));
        let pid = engine.prepare_pair(&row.left, row.ql, &row.right, row.qr);
        let request = row.request(&mut engine, pid);
        match engine.run_prepared(pid, &request) {
            Outcome::Equivalent(cert) => cert.to_json(),
            other => panic!("{}: expected Equivalent, got {}", row.name, kind_of(&other)),
        }
    }

    /// `cert` with the `index`-th conjunct of its relation dropped.
    fn drop_conjunct(cert: &str, index: usize) -> String {
        let mut doc = json::parse(cert).unwrap();
        let Value::Obj(fields) = &mut doc else {
            panic!("a certificate is an object")
        };
        let (_, relation) = fields.iter_mut().find(|(k, _)| k == "relation").unwrap();
        let Value::Arr(conjuncts) = relation else {
            panic!("the relation is an array")
        };
        conjuncts.remove(index);
        doc.render()
    }

    /// The traced replay of the trust root gives `check_json`'s verdict,
    /// error included, on sound certificates and on tampered ones.
    #[test]
    fn traced_certcheck_agrees_with_the_trust_root() {
        let rows = inputs::build(
            RowSet::StandardSmall,
            &mut Tracer::new(false, Instant::now()),
        );
        let mut rejected = 0;
        for name in ["State Rearrangement", "Speculative loop"] {
            let row = rows.iter().find(|r| r.name == name).unwrap();
            let cert = certificate(row);
            let conjuncts =
                json::as_arr(json::get(&json::parse(&cert).unwrap(), "relation").unwrap())
                    .unwrap()
                    .len();
            let truncated = cert[..cert.len() / 2].to_string();
            let tampered = (0..conjuncts).map(|i| drop_conjunct(&cert, i));
            for text in std::iter::once(cert.clone())
                .chain(tampered)
                .chain([truncated])
            {
                let mut tr = Tracer::new(true, Instant::now());
                let traced = certcheck_traced(&row.sum, &text, &mut tr, 1, &mut Acc::default());
                let trusted = leapfrog_certcheck::check_json(&row.sum, &text);
                assert_eq!(traced, trusted, "{name}");
                rejected += trusted.is_err() as usize;
            }
            assert_eq!(leapfrog_certcheck::check_json(&row.sum, &cert), Ok(()));
        }
        // The truncated texts, and at least one dropped conjunct beside.
        assert!(
            rejected > 2,
            "only {rejected} tampered certificates rejected"
        );
    }
}
