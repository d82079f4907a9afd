//! The lowering chain `ConfRel → ConfRelSimp → FOL(Conf) → FOL(BV)`
//! (paper, §6.2) and the entailment check it feeds (§6.3).
//!
//! An entailment `⋀ᵢ (tᵢ ⇒ ψᵢ) ⊨ (t ⇒ ψ)` between template-guarded
//! relations is decided in three verified-in-the-paper stages:
//!
//! 1. **Template filtering** (`ConfRelSimp`): guards are mutually
//!    exclusive — a configuration pair matches exactly one template pair —
//!    so premises with a guard other than the conclusion's are vacuous and
//!    are discarded.
//! 2. **FOL(Conf)**: state and buffer-length assertions disappear; what
//!    remains is a first-order formula over the two buffers (with widths
//!    fixed by the guard) and the two stores.
//! 3. **Store elimination** (`FOL(BV)`): the finite-map store becomes one
//!    bitvector variable per (side, header); each premise's packet
//!    variables are universally quantified, the conclusion's are left free
//!    (free variables of a validity query are universal).
//!
//! The final formula `(⋀ᵢ ∀x⃗ᵢ. ψᵢ) ⇒ ψ` is passed to
//! [`leapfrog_smt::check_valid`] (or an [`SmtSolver`] for statistics and
//! SMT-LIB dumping).

use std::collections::HashMap;

use leapfrog_p4a::ast::{Automaton, HeaderId};
use leapfrog_smt::{BvVar, CheckResult, Declarations, Formula, SmtSolver, Term};

use crate::confrel::{BitExpr, ConfRel, Pure, Side};

/// A fully lowered entailment query: the `FOL(BV)` validity problem plus
/// its variable table. Useful for inspection, SMT-LIB dumping and tests.
#[derive(Debug, Clone)]
pub struct EntailmentQuery {
    /// Variable declarations for the query.
    pub decls: Declarations,
    /// The validity goal `(⋀ᵢ ∀x⃗ᵢ. ψᵢ) ⇒ ψ`.
    pub goal: Formula,
    /// How many premises survived template filtering.
    pub filtered_premises: usize,
    /// How each configuration-level object maps onto `FOL(BV)` variables —
    /// the inverse of store elimination, needed to lift countermodels back
    /// into concrete stores and packets (the counterexample engine).
    pub vars: LoweredVars,
}

/// The variable mapping produced by store elimination (stage 3): which
/// `FOL(BV)` variable stands for each buffer, header, and conclusion
/// packet variable. Premise packet variables are universally quantified
/// inside the goal and never appear in countermodels, so they are not
/// tracked here.
#[derive(Debug, Clone, Default)]
pub struct LoweredVars {
    /// The left/right buffer variables, when the guard gives them nonzero
    /// width and the formula mentions them.
    pub bufs: [Option<BvVar>; 2],
    /// One variable per `(side, header)` pair mentioned by the formulas.
    pub headers: Vec<((Side, HeaderId), BvVar)>,
    /// The conclusion's packet variables `y_j`, in [`ConfRel::vars`] order.
    /// These stay free in the validity goal, so an invalidity countermodel
    /// assigns them the concrete packet bits of the refutation.
    pub conclusion_vars: Vec<BvVar>,
}

/// Decides `⋀ premises ⊨ conclusion` using a stateful solver (records
/// statistics).
pub fn entails(
    aut: &Automaton,
    premises: &[ConfRel],
    conclusion: &ConfRel,
    solver: &mut SmtSolver,
) -> bool {
    let q = lower(aut, premises, conclusion);
    matches!(solver.check_valid(&q.decls, &q.goal), CheckResult::Valid)
}

/// Decides `⋀ premises ⊨ conclusion` statelessly.
pub fn entails_stateless(aut: &Automaton, premises: &[ConfRel], conclusion: &ConfRel) -> bool {
    let q = lower(aut, premises, conclusion);
    matches!(
        leapfrog_smt::check_valid(&q.decls, &q.goal),
        CheckResult::Valid
    )
}

/// Decides `⋀ premises ⊨ conclusion` for premises that are *already*
/// guard-filtered (stage 1 done by the caller — e.g. fetched from a
/// [`crate::store::RelationStore`] in O(matching) instead of O(|R|)).
pub fn entails_filtered(
    aut: &Automaton,
    relevant: &[&ConfRel],
    conclusion: &ConfRel,
    solver: &mut SmtSolver,
) -> bool {
    let q = lower_filtered(aut, relevant, conclusion);
    matches!(solver.check_valid(&q.decls, &q.goal), CheckResult::Valid)
}

/// Runs the full lowering chain, producing the `FOL(BV)` query.
pub fn lower(aut: &Automaton, premises: &[ConfRel], conclusion: &ConfRel) -> EntailmentQuery {
    // Stage 1: template filtering.
    let relevant: Vec<&ConfRel> = premises
        .iter()
        .filter(|p| p.guard == conclusion.guard)
        .collect();
    lower_filtered(aut, &relevant, conclusion)
}

/// Stages 2+3 of the lowering chain for premises already filtered to the
/// conclusion's guard. The pre-filtered entry point of the guard-indexed
/// pipeline: callers holding a [`crate::store::RelationStore`] skip the
/// per-query O(|R|) scan entirely.
pub fn lower_filtered(
    aut: &Automaton,
    relevant: &[&ConfRel],
    conclusion: &ConfRel,
) -> EntailmentQuery {
    debug_assert!(
        relevant.iter().all(|p| p.guard == conclusion.guard),
        "lower_filtered requires stage-1 filtered premises"
    );

    // Stage 2 + 3: build the FOL(BV) signature for this guard.
    let mut decls = Declarations::new();
    let mut env = LowerEnv {
        buf: [None, None],
        headers: HashMap::new(),
        vars: Vec::new(),
        guard_left: conclusion.guard.left.buf_len,
        guard_right: conclusion.guard.right.buf_len,
    };

    // Premises: each gets fresh universally quantified packet variables.
    let mut premise_formulas = Vec::new();
    for (i, p) in relevant.iter().enumerate() {
        let xs: Vec<BvVar> = p
            .vars
            .iter()
            .enumerate()
            .map(|(j, w)| decls.declare(format!("x{i}_{j}"), *w))
            .collect();
        env.vars = xs.clone();
        let body = lower_pure(aut, &p.phi, &mut decls, &mut env);
        let quantified: Vec<BvVar> = xs.into_iter().filter(|v| decls.width(*v) > 0).collect();
        premise_formulas.push(Formula::forall(quantified, body));
    }

    // Conclusion: its packet variables stay free (validity quantifies them
    // universally at the top level).
    let ys: Vec<BvVar> = conclusion
        .vars
        .iter()
        .enumerate()
        .map(|(j, w)| decls.declare(format!("y{j}"), *w))
        .collect();
    env.vars = ys.clone();
    let concl = lower_pure(aut, &conclusion.phi, &mut decls, &mut env);

    let goal = Formula::implies(Formula::and_all(premise_formulas), concl);
    let vars = LoweredVars {
        bufs: env.buf,
        headers: env.headers.iter().map(|(k, v)| (*k, *v)).collect(),
        conclusion_vars: ys,
    };
    EntailmentQuery {
        decls,
        goal,
        filtered_premises: relevant.len(),
        vars,
    }
}

pub(crate) struct LowerEnv {
    /// Lazily declared buffer variables (left, right).
    pub(crate) buf: [Option<BvVar>; 2],
    /// Lazily declared store variables, keyed by (side, header).
    pub(crate) headers: HashMap<(Side, HeaderId), BvVar>,
    /// The current formula's packet variables.
    pub(crate) vars: Vec<BvVar>,
    pub(crate) guard_left: usize,
    pub(crate) guard_right: usize,
}

impl LowerEnv {
    fn buf_var(&mut self, decls: &mut Declarations, side: Side, width: usize) -> BvVar {
        let idx = match side {
            Side::Left => 0,
            Side::Right => 1,
        };
        if let Some(v) = self.buf[idx] {
            return v;
        }
        let v = decls.declare(format!("buf{}", side.symbol()), width);
        self.buf[idx] = Some(v);
        v
    }

    fn header_var(
        &mut self,
        decls: &mut Declarations,
        aut: &Automaton,
        side: Side,
        h: HeaderId,
    ) -> BvVar {
        if let Some(v) = self.headers.get(&(side, h)) {
            return *v;
        }
        let v = decls.declare(
            format!("{}{}", aut.header_name(h), side.symbol()),
            aut.header_size(h),
        );
        self.headers.insert((side, h), v);
        v
    }
}

pub(crate) fn lower_pure(
    aut: &Automaton,
    p: &Pure,
    decls: &mut Declarations,
    env: &mut LowerEnv,
) -> Formula {
    match p {
        Pure::Const(b) => Formula::Const(*b),
        Pure::Eq(a, b) => Formula::eq(
            lower_expr(aut, a, decls, env),
            lower_expr(aut, b, decls, env),
        ),
        Pure::Not(q) => Formula::not(lower_pure(aut, q, decls, env)),
        Pure::And(a, b) => Formula::and(
            lower_pure(aut, a, decls, env),
            lower_pure(aut, b, decls, env),
        ),
        Pure::Or(a, b) => Formula::or(
            lower_pure(aut, a, decls, env),
            lower_pure(aut, b, decls, env),
        ),
        Pure::Implies(a, b) => Formula::implies(
            lower_pure(aut, a, decls, env),
            lower_pure(aut, b, decls, env),
        ),
    }
}

fn lower_expr(aut: &Automaton, e: &BitExpr, decls: &mut Declarations, env: &mut LowerEnv) -> Term {
    match e {
        BitExpr::Lit(bv) => Term::lit(bv.clone()),
        BitExpr::Buf(side) => {
            let width = match side {
                Side::Left => env.guard_left,
                Side::Right => env.guard_right,
            };
            if width == 0 {
                Term::empty()
            } else {
                Term::var(env.buf_var(decls, *side, width))
            }
        }
        BitExpr::Hdr(side, h) => {
            if aut.header_size(*h) == 0 {
                Term::empty()
            } else {
                Term::var(env.header_var(decls, aut, *side, *h))
            }
        }
        BitExpr::Var(v) => {
            let bv = env.vars[v.0 as usize];
            if decls.width(bv) == 0 {
                Term::empty()
            } else {
                Term::var(bv)
            }
        }
        BitExpr::Slice(inner, start, len) => {
            Term::slice(lower_expr(aut, inner, decls, env), *start, *len)
        }
        BitExpr::Concat(a, b) => Term::concat(
            lower_expr(aut, a, decls, env),
            lower_expr(aut, b, decls, env),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confrel::VarId;
    use crate::templates::{Template, TemplatePair};
    use leapfrog_bitvec::BitVec;
    use leapfrog_p4a::ast::{StateId, Target};
    use leapfrog_p4a::builder::Builder;

    fn aut() -> Automaton {
        let mut b = Builder::new();
        let h = b.header("h", 4);
        let g = b.header("g", 4);
        let q = b.state("q");
        b.define(q, vec![b.extract(h), b.extract(g)], b.goto(Target::Accept));
        b.build().unwrap()
    }

    fn guard(lbuf: usize, rbuf: usize) -> TemplatePair {
        TemplatePair::new(
            Template {
                target: Target::State(StateId(0)),
                buf_len: lbuf,
            },
            Template {
                target: Target::State(StateId(0)),
                buf_len: rbuf,
            },
        )
    }

    fn buf_eq_rel(g: TemplatePair) -> ConfRel {
        ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Buf(Side::Left), BitExpr::Buf(Side::Right)),
        }
    }

    #[test]
    fn premise_entails_itself() {
        let a = aut();
        let rel = buf_eq_rel(guard(3, 3));
        assert!(entails_stateless(&a, std::slice::from_ref(&rel), &rel));
    }

    #[test]
    fn buffer_equality_entails_slice_equality() {
        let a = aut();
        let g = guard(3, 3);
        let premise = buf_eq_rel(g);
        let conclusion = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Slice(Box::new(BitExpr::Buf(Side::Left)), 1, 2),
                BitExpr::Slice(Box::new(BitExpr::Buf(Side::Right)), 1, 2),
            ),
        };
        assert!(entails_stateless(&a, &[premise], &conclusion));
        // But not the converse.
        let premise2 = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Slice(Box::new(BitExpr::Buf(Side::Left)), 1, 2),
                BitExpr::Slice(Box::new(BitExpr::Buf(Side::Right)), 1, 2),
            ),
        };
        assert!(!entails_stateless(
            &a,
            std::slice::from_ref(&premise2),
            &buf_eq_rel(g)
        ));
    }

    #[test]
    fn template_filtering_drops_other_guards() {
        let a = aut();
        // A premise at a different guard must not help.
        let premise = buf_eq_rel(guard(2, 2));
        let conclusion = buf_eq_rel(guard(3, 3));
        let q = lower(&a, std::slice::from_ref(&premise), &conclusion);
        assert_eq!(q.filtered_premises, 0);
        assert!(!entails_stateless(&a, &[premise], &conclusion));
    }

    #[test]
    fn false_premise_entails_anything() {
        let a = aut();
        let g = guard(1, 1);
        let premise = ConfRel::forbidden(g);
        let conclusion = buf_eq_rel(g);
        assert!(entails_stateless(&a, &[premise], &conclusion));
    }

    #[test]
    fn quantified_premise_cancellation() {
        // (∀x. buf< ++ x = buf> ++ x) entails buf< = buf>.
        let a = aut();
        let g = guard(2, 2);
        let premise = ConfRel {
            guard: g,
            vars: vec![3],
            phi: Pure::eq(
                BitExpr::concat(BitExpr::Buf(Side::Left), BitExpr::Var(VarId(0))),
                BitExpr::concat(BitExpr::Buf(Side::Right), BitExpr::Var(VarId(0))),
            ),
        };
        assert!(entails_stateless(&a, &[premise], &buf_eq_rel(g)));
    }

    #[test]
    fn conclusion_variables_are_universal() {
        // Conclusion ∀y. y = 0 must be invalid even with a true premise.
        let a = aut();
        let g = guard(1, 1);
        let premise = ConfRel::trivial(g);
        let conclusion = ConfRel {
            guard: g,
            vars: vec![2],
            phi: Pure::eq(BitExpr::Var(VarId(0)), BitExpr::Lit(BitVec::zeros(2))),
        };
        assert!(!entails_stateless(&a, &[premise], &conclusion));
    }

    #[test]
    fn store_relations_lower_correctly() {
        // h< = g> as premise entails h<[0;2] = g>[0;2].
        let a = aut();
        let h = a.header_by_name("h").unwrap();
        let gh = a.header_by_name("g").unwrap();
        let g = guard(1, 1);
        let premise = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, gh)),
        };
        let conclusion = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(
                BitExpr::Slice(Box::new(BitExpr::Hdr(Side::Left, h)), 0, 2),
                BitExpr::Slice(Box::new(BitExpr::Hdr(Side::Right, gh)), 0, 2),
            ),
        };
        assert!(entails_stateless(
            &a,
            std::slice::from_ref(&premise),
            &conclusion
        ));
        // Same-named header on opposite sides are distinct variables:
        // h< = g> does not entail h> = g>.
        let wrong = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Right, h), BitExpr::Hdr(Side::Right, gh)),
        };
        assert!(!entails_stateless(&a, &[premise], &wrong));
    }

    #[test]
    fn zero_width_buffer_lowers_to_empty() {
        let a = aut();
        let g = guard(0, 0);
        // buf< = buf> at width 0 is trivially true.
        let conclusion = buf_eq_rel(g);
        assert!(entails_stateless(&a, &[], &conclusion));
    }

    #[test]
    fn query_is_dumpable_as_smtlib() {
        let a = aut();
        let g = guard(2, 2);
        let premise = ConfRel {
            guard: g,
            vars: vec![1],
            phi: Pure::eq(
                BitExpr::concat(BitExpr::Buf(Side::Left), BitExpr::Var(VarId(0))),
                BitExpr::concat(BitExpr::Buf(Side::Right), BitExpr::Var(VarId(0))),
            ),
        };
        let q = lower(&a, &[premise], &buf_eq_rel(g));
        let text = leapfrog_smt::smtlib::validity_query(&q.decls, &q.goal);
        assert!(text.contains("(forall ((x0_0 (_ BitVec 1)))"));
        assert!(text.contains("declare-const buf<"));
        let opens = text.chars().filter(|&c| c == '(').count();
        let closes = text.chars().filter(|&c| c == ')').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn multiple_premises_combine() {
        let a = aut();
        let h = a.header_by_name("h").unwrap();
        let gh = a.header_by_name("g").unwrap();
        let g = guard(1, 1);
        let p1 = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, h)),
        };
        let p2 = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Right, h), BitExpr::Hdr(Side::Right, gh)),
        };
        let conclusion = ConfRel {
            guard: g,
            vars: vec![],
            phi: Pure::eq(BitExpr::Hdr(Side::Left, h), BitExpr::Hdr(Side::Right, gh)),
        };
        assert!(entails_stateless(
            &a,
            &[p1.clone(), p2.clone()],
            &conclusion
        ));
        assert!(!entails_stateless(&a, &[p1], &conclusion));
        assert!(!entails_stateless(&a, &[p2], &conclusion));
    }
}
