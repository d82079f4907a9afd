//! SMT-LIB 2 pretty-printing of `FOL(BV)` queries.
//!
//! The paper's implementation serializes its low-level verification
//! conditions to SMT-LIB via a trusted Coq plugin and ships them to Z3,
//! CVC4 or Boolector (§6.3). This reproduction solves queries in-process,
//! but retains the printer for fidelity and debuggability:
//! [`validity_query`] renders any query as SMT-LIB text that an external
//! solver can replay.
//!
//! Index translation: this crate numbers bits MSB-first (bit 0 leftmost),
//! SMT-LIB numbers them LSB-first (bit 0 rightmost), so a slice of `len`
//! bits at `start` on a width-`w` term prints as
//! `((_ extract (w-1-start) (w-start-len)) t)`.

use std::fmt::Write as _;

use crate::term::{Declarations, Formula, Term};

/// Renders a full validity query: declarations, `(assert (not f))` and
/// `(check-sat)`. An external solver answering `unsat` confirms validity.
pub fn validity_query(decls: &Declarations, f: &Formula) -> String {
    let mut out = String::new();
    out.push_str("(set-logic BV)\n");
    out.push_str("(set-info :source |leapfrog-rs entailment query|)\n");
    let bound = bound_vars(f);
    for v in decls.vars() {
        if bound.contains(&v) {
            continue;
        }
        let w = decls.width(v);
        if w == 0 {
            continue; // zero-width variables cannot be declared in SMT-LIB
        }
        let _ = writeln!(
            out,
            "(declare-const {} (_ BitVec {}))",
            sanitize(decls.name(v)),
            w
        );
    }
    let _ = writeln!(out, "(assert (not {}))", format_formula(decls, f));
    out.push_str("(check-sat)\n");
    out
}

fn bound_vars(f: &Formula) -> std::collections::BTreeSet<crate::term::BvVar> {
    let mut out = std::collections::BTreeSet::new();
    collect_bound(f, &mut out);
    out
}

fn collect_bound(f: &Formula, out: &mut std::collections::BTreeSet<crate::term::BvVar>) {
    match f {
        Formula::Const(_) | Formula::Eq(_, _) => {}
        Formula::Not(g) => collect_bound(g, out),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            collect_bound(a, out);
            collect_bound(b, out);
        }
        Formula::Forall(vars, body) => {
            out.extend(vars.iter().copied());
            collect_bound(body, out);
        }
    }
}

/// Formats a formula as an SMT-LIB s-expression.
pub fn format_formula(decls: &Declarations, f: &Formula) -> String {
    match f {
        Formula::Const(true) => "true".into(),
        Formula::Const(false) => "false".into(),
        Formula::Eq(a, b) => {
            if a.width(decls) == 0 {
                // Zero-width equalities are vacuously true; SMT-LIB has no
                // zero-width bitvectors.
                "true".into()
            } else {
                format!("(= {} {})", format_term(decls, a), format_term(decls, b))
            }
        }
        Formula::Not(g) => format!("(not {})", format_formula(decls, g)),
        Formula::And(a, b) => {
            format!(
                "(and {} {})",
                format_formula(decls, a),
                format_formula(decls, b)
            )
        }
        Formula::Or(a, b) => {
            format!(
                "(or {} {})",
                format_formula(decls, a),
                format_formula(decls, b)
            )
        }
        Formula::Implies(a, b) => {
            format!(
                "(=> {} {})",
                format_formula(decls, a),
                format_formula(decls, b)
            )
        }
        Formula::Forall(vars, body) => {
            let mut binders = String::new();
            for v in vars {
                let _ = write!(
                    binders,
                    "({} (_ BitVec {}))",
                    sanitize(decls.name(*v)),
                    decls.width(*v).max(1)
                );
            }
            format!("(forall ({}) {})", binders, format_formula(decls, body))
        }
    }
}

/// Formats a term as an SMT-LIB s-expression.
pub fn format_term(decls: &Declarations, t: &Term) -> String {
    match t {
        Term::Lit(bv) => format!("#b{bv}"),
        Term::Var(v) => sanitize(decls.name(*v)),
        Term::Slice(inner, start, len) => {
            let w = inner.width(decls);
            let hi = w - 1 - start;
            let lo = w - start - len;
            format!("((_ extract {hi} {lo}) {})", format_term(decls, inner))
        }
        Term::Concat(a, b) => {
            format!(
                "(concat {} {})",
                format_term(decls, a),
                format_term(decls, b)
            )
        }
    }
}

/// Makes a variable name a legal SMT-LIB simple symbol.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || "~!@$%^&*_-+=<>.?/".contains(c) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.chars().next().unwrap().is_ascii_digit() {
        out.insert(0, 'v');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Formula, Term};
    use leapfrog_bitvec::BitVec;

    fn bv(s: &str) -> BitVec {
        s.parse().unwrap()
    }

    #[test]
    fn extract_indices_flip_endianness() {
        let mut d = Declarations::new();
        let x = d.declare("x", 8);
        // Our slice [2; 3] of an 8-bit term covers MSB-first bits 2..4,
        // i.e. SMT-LIB bits 5..3.
        let t = Term::Slice(std::sync::Arc::new(Term::var(x)), 2, 3);
        assert_eq!(format_term(&d, &t), "((_ extract 5 3) x)");
    }

    #[test]
    fn literal_formatting() {
        let d = Declarations::new();
        assert_eq!(format_term(&d, &Term::lit(bv("1010"))), "#b1010");
    }

    #[test]
    fn full_query_shape() {
        let mut d = Declarations::new();
        let x = d.declare("buf<", 4);
        let f = Formula::Eq(Term::var(x), Term::lit(bv("1111")));
        let q = validity_query(&d, &f);
        assert!(q.contains("(set-logic BV)"));
        assert!(q.contains("(declare-const buf< (_ BitVec 4))"));
        assert!(q.contains("(assert (not (= buf< #b1111)))"));
        assert!(q.ends_with("(check-sat)\n"));
    }

    #[test]
    fn forall_binders_and_no_declared_const() {
        let mut d = Declarations::new();
        let a = d.declare("a", 2);
        let x = d.declare("x", 2);
        let f = Formula::forall(vec![x], Formula::Eq(Term::var(a), Term::var(x)));
        let q = validity_query(&d, &f);
        assert!(q.contains("(declare-const a (_ BitVec 2))"));
        assert!(!q.contains("(declare-const x"));
        assert!(q.contains("(forall ((x (_ BitVec 2))) (= a x))"));
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("hdr[ip]>"), "hdr_ip_>");
        assert_eq!(sanitize("0x"), "v0x");
        assert_eq!(sanitize(""), "v");
    }

    #[test]
    fn balanced_parentheses() {
        let mut d = Declarations::new();
        let x = d.declare("x", 4);
        let y = d.declare("y", 4);
        let f = Formula::implies(
            Formula::and(
                Formula::Eq(Term::var(x), Term::var(y)),
                Formula::not(Formula::Eq(
                    Term::slice(Term::var(x), 0, 2),
                    Term::lit(bv("01")),
                )),
            ),
            Formula::or(
                Formula::Eq(
                    Term::concat(Term::var(x), Term::var(y)),
                    Term::lit(bv("10101010")),
                ),
                Formula::ff(),
            ),
        );
        let q = validity_query(&d, &f);
        let opens = q.chars().filter(|&c| c == '(').count();
        let closes = q.chars().filter(|&c| c == ')').count();
        assert_eq!(opens, closes);
    }
}
