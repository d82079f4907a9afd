//! Minimal CNF loaders for solver-isolation benchmarking.
//!
//! Two formats are understood:
//!
//! - standard DIMACS CNF (`p cnf <vars> <clauses>` header, clauses as
//!   whitespace-separated 1-based signed literals terminated by `0`);
//! - the engine's blast-cache export
//!   ([`SharedBlastCache::export_text`][cache] in `leapfrog-smt`): a
//!   `# leapfrog-blast-cache v1` header, then per-template `t <vars>
//!   <input_bits> <key>` lines followed by `c <lit>…` clause lines — which
//!   lets captured engine workloads (a persisted `blast_cache.txt`) be
//!   replayed directly against the solver without driving the pipeline.
//!
//! [cache]: https://docs.rs/leapfrog-smt
//!
//! The loaders return plain clause lists; [`Cnf::load_into`] feeds them to
//! a [`Solver`], which is how the `sat_micro` dev binary times the solver
//! on identical input.

use crate::{Lit, Solver, Var};

/// A parsed CNF instance.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    /// Number of variables (literals index `0..num_vars`).
    pub num_vars: usize,
    /// Clauses over [`Lit`]s with 0-based variables.
    pub clauses: Vec<Vec<Lit>>,
    /// Instance label: the DIMACS filename stem or blast-cache key.
    pub name: String,
}

impl Cnf {
    /// Allocates the instance's variables in `solver` and adds every
    /// clause. Returns `false` if the clause set is unsatisfiable at the
    /// root already (mirroring [`Solver::add_clause`]).
    pub fn load_into(&self, solver: &mut Solver) -> bool {
        let vars: Vec<Var> = (0..self.num_vars).map(|_| solver.new_var()).collect();
        let mut ok = true;
        for clause in &self.clauses {
            let mapped: Vec<Lit> = clause
                .iter()
                .map(|l| Lit::with_polarity(vars[l.var().0 as usize], !l.is_neg()))
                .collect();
            ok &= solver.add_clause(&mapped);
        }
        ok
    }
}

fn parse_signed_lit(tok: &str, num_vars: usize) -> Result<Lit, String> {
    let code: i64 = tok
        .parse()
        .map_err(|_| format!("bad literal token {tok:?}"))?;
    if code == 0 {
        return Err("literal 0 outside clause terminator position".into());
    }
    let var = code.unsigned_abs() - 1;
    if var as usize >= num_vars {
        return Err(format!("literal {code} out of range (vars={num_vars})"));
    }
    let v = Var(var as u32);
    Ok(if code < 0 { Lit::neg(v) } else { Lit::pos(v) })
}

/// Parses standard DIMACS CNF text. Comment lines (`c …`) before the
/// header are skipped; the declared clause count is not enforced (trailing
/// clauses are accepted), matching common solver behavior.
pub fn parse_dimacs(text: &str, name: &str) -> Result<Cnf, String> {
    let mut num_vars: Option<usize> = None;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    let mut current: Vec<Lit> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut it = rest.split_whitespace();
            if it.next() != Some("cnf") {
                return Err(format!("unsupported problem line {line:?}"));
            }
            let v: usize = it
                .next()
                .ok_or("missing var count")?
                .parse()
                .map_err(|_| "bad var count".to_string())?;
            let _declared_clauses = it.next();
            num_vars = Some(v);
            continue;
        }
        let nv = num_vars.ok_or("clause before p cnf header")?;
        for tok in line.split_whitespace() {
            if tok == "0" {
                clauses.push(std::mem::take(&mut current));
            } else {
                current.push(parse_signed_lit(tok, nv)?);
            }
        }
    }
    if !current.is_empty() {
        clauses.push(current);
    }
    Ok(Cnf {
        num_vars: num_vars.ok_or("no p cnf header")?,
        clauses,
        name: name.to_string(),
    })
}

/// Parses a blast-cache export (`# leapfrog-blast-cache v1`) into one
/// [`Cnf`] per cached template, named by the template key.
pub fn parse_blast_cache(text: &str) -> Result<Vec<Cnf>, String> {
    let mut out: Vec<Cnf> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("t ") {
            let mut it = rest.splitn(3, ' ');
            let num_vars: usize = it
                .next()
                .ok_or_else(|| format!("line {}: missing var count", n + 1))?
                .parse()
                .map_err(|_| format!("line {}: bad var count", n + 1))?;
            let _input_bits = it.next();
            let key = it.next().unwrap_or("").to_string();
            out.push(Cnf {
                num_vars,
                clauses: Vec::new(),
                name: key,
            });
        } else if let Some(rest) = line.strip_prefix("c ") {
            let cnf = out
                .last_mut()
                .ok_or_else(|| format!("line {}: clause before any template", n + 1))?;
            let clause: Result<Vec<Lit>, String> = rest
                .split_whitespace()
                .map(|tok| parse_signed_lit(tok, cnf.num_vars))
                .collect();
            cnf.clauses.push(clause?);
        } else {
            return Err(format!("line {}: unrecognized line {line:?}", n + 1));
        }
    }
    Ok(out)
}

/// Detects the format from the content and parses accordingly: blast-cache
/// exports lead with their magic header or a `t ` template line; anything
/// else is treated as DIMACS. Returns one or more instances.
pub fn parse_auto(text: &str, name: &str) -> Result<Vec<Cnf>, String> {
    let first = text
        .lines()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("")
        .trim();
    if first.starts_with("# leapfrog-blast-cache") || first.starts_with("t ") {
        parse_blast_cache(text)
    } else {
        parse_dimacs(text, name).map(|c| vec![c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolveResult;

    #[test]
    fn parses_dimacs_and_solves() {
        let text = "c a comment\np cnf 3 4\n1 2 0\n-1 3 0\n-2 -3 0\n-1 -2 0\n";
        let cnf = parse_dimacs(text, "tiny").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 4);
        let mut s = Solver::new();
        assert!(cnf.load_into(&mut s));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn parses_dimacs_unsat() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let cnf = parse_dimacs(text, "contradiction").unwrap();
        let mut s = Solver::new();
        assert!(!cnf.load_into(&mut s));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn rejects_out_of_range_literal() {
        assert!(parse_dimacs("p cnf 2 1\n3 0\n", "bad").is_err());
        assert!(parse_dimacs("1 0\n", "headerless").is_err());
    }

    #[test]
    fn parses_blast_cache_export() {
        let text = "# leapfrog-blast-cache v1\nt 3 2 key_a\nc 1 -2\nc 2 3\nt 2 1 key_b\nc -1 -2\n";
        let cnfs = parse_blast_cache(text).unwrap();
        assert_eq!(cnfs.len(), 2);
        assert_eq!(cnfs[0].name, "key_a");
        assert_eq!(cnfs[0].num_vars, 3);
        assert_eq!(cnfs[0].clauses.len(), 2);
        assert_eq!(cnfs[1].name, "key_b");
        let mut s = Solver::new();
        assert!(cnfs[0].load_into(&mut s));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn auto_detects_format() {
        assert_eq!(parse_auto("p cnf 1 1\n1 0\n", "d").unwrap().len(), 1);
        assert_eq!(
            parse_auto("# leapfrog-blast-cache v1\nt 1 1 k\nc 1\n", "b")
                .unwrap()
                .len(),
            1
        );
    }
}
