//! Rule-set analysis: binding soundness, duplicate/inverse detection, and
//! expansivity classification over any `&[Rewrite]`.
//!
//! Works through the introspection surface `sz-egraph` exposes on
//! [`Rewrite`]: the LHS pattern is always available
//! ([`Rewrite::searcher`]); the RHS pattern and variable set are available
//! for purely syntactic rules ([`Rewrite::rhs_pattern`],
//! [`Rewrite::applier_vars`]) and `None` for dynamic Rust appliers, which
//! are treated as opaque (no duplicate/inverse/expansivity claims are made
//! about them). Compiled e-matching programs are verified per rule by the
//! [`program`](crate::program) module.

use sz_egraph::{Analysis, ENodeOrVar, Id, Language, Pattern, RecExpr, Rewrite, Var};

use crate::diag::{Diagnostic, Report, Severity};
use crate::program::{verify_program, PatternShape};

/// Renders `ast[id]` as an s-expression with variables renamed to
/// `?v0, ?v1, …` in first-occurrence order (`map` carries the occurrence
/// order across calls, so LHS and RHS canonicalize jointly).
fn canon_node<L: Language>(ast: &RecExpr<ENodeOrVar<L>>, id: Id, map: &mut Vec<Var>) -> String {
    match &ast[id] {
        ENodeOrVar::Var(v) => {
            let pos = match map.iter().position(|u| u == v) {
                Some(pos) => pos,
                None => {
                    map.push(*v);
                    map.len() - 1
                }
            };
            format!("?v{pos}")
        }
        ENodeOrVar::ENode(n) => {
            if n.children().is_empty() {
                n.op_name()
            } else {
                let kids: Vec<String> = n
                    .children()
                    .iter()
                    .map(|&c| canon_node(ast, c, map))
                    .collect();
                format!("({} {})", n.op_name(), kids.join(" "))
            }
        }
    }
}

/// The α-canonical rendering of a `lhs => rhs` pair: variables are renamed
/// by first occurrence across the LHS then the RHS, so two rules that
/// differ only in variable names canonicalize identically.
fn canon_pair<L: Language>(lhs: &Pattern<L>, rhs: &Pattern<L>) -> String {
    let mut map = Vec::new();
    let l = canon_node(lhs.ast(), lhs.ast().root(), &mut map);
    let r = canon_node(rhs.ast(), rhs.ast().root(), &mut map);
    format!("{l} => {r}")
}

/// Statically analyzes a rule set, returning every finding in rule order.
///
/// Per rule: **SZL001** (deny) RHS variable unbound by the LHS — the
/// apply-time panic [`Rewrite::new`] now rejects, still reachable through
/// `new_unchecked`; **SZL002** (warn) LHS variable the RHS never reads;
/// **SZL006** (info) expansive rule (RHS strictly larger than LHS, so
/// growth is throttled only by the backoff scheduler); plus the full VM
/// program verification of [`verify_program`] on the rule's compiled
/// program. Across rules: **SZL003** (warn) exact duplicates,
/// **SZL004** (warn) α-renamed duplicates, **SZL005** (info) inverse pairs
/// `A.lhs ≡ B.rhs ∧ A.rhs ≡ B.lhs` modulo renaming (a self-inverse rule —
/// commutativity — pairs with itself).
pub fn lint_ruleset<L: Language, N: Analysis<L>>(rules: &[Rewrite<L, N>]) -> Report {
    let mut report = Report::new();

    // Per-rule checks, in rule order.
    for rule in rules {
        let loc = format!("rule:{}", rule.name());
        let lhs_vars = rule.searcher().vars();
        if let Some(rhs_vars) = rule.applier_vars() {
            for v in &rhs_vars {
                if !lhs_vars.contains(v) {
                    report.push(Diagnostic::new(
                        Severity::Deny,
                        "SZL001",
                        loc.clone(),
                        format!(
                            "rhs variable {v} is not bound by the lhs; applying this rule panics"
                        ),
                    ));
                }
            }
            for v in &lhs_vars {
                if !rhs_vars.contains(v) {
                    report.push(Diagnostic::new(
                        Severity::Warn,
                        "SZL002",
                        loc.clone(),
                        format!("lhs variable {v} is never read by the rhs"),
                    ));
                }
            }
        }
        if let Some(rhs) = rule.rhs_pattern() {
            let l = rule.searcher().ast().len();
            let r = rhs.ast().len();
            if r > l {
                report.push(Diagnostic::new(
                    Severity::Info,
                    "SZL006",
                    loc.clone(),
                    format!(
                        "expansive: rhs has {r} nodes vs {l} on the lhs; growth is bounded only by the scheduler"
                    ),
                ));
            }
        }
        let compiled = rule.compiled();
        let shape = PatternShape::of(compiled.pattern());
        report.extend(verify_program(
            rule.name(),
            &compiled.program().view(),
            Some(&shape),
        ));
    }

    // Cross-rule checks over the syntactic subset.
    let syntactic: Vec<(usize, String, String, String)> = rules
        .iter()
        .enumerate()
        .filter_map(|(i, rule)| {
            let rhs = rule.rhs_pattern()?;
            Some((
                i,
                rule.name().to_owned(),
                format!("{} => {}", rule.searcher(), rhs),
                canon_pair(rule.searcher(), rhs),
            ))
        })
        .collect();

    for a in 0..syntactic.len() {
        let (_, name_a, exact_a, canon_a) = &syntactic[a];
        for (_, name_b, exact_b, canon_b) in &syntactic[a + 1..] {
            if exact_a == exact_b {
                report.push(Diagnostic::new(
                    Severity::Warn,
                    "SZL003",
                    format!("rule:{name_b}"),
                    format!("exact duplicate of rule `{name_a}` ({exact_a})"),
                ));
            } else if canon_a == canon_b {
                report.push(Diagnostic::new(
                    Severity::Warn,
                    "SZL004",
                    format!("rule:{name_b}"),
                    format!("duplicate of rule `{name_a}` up to variable renaming"),
                ));
            }
        }
    }

    // Inverse pairs: compare A's canon against B canonicalized in reverse
    // (rhs first), including A against itself (self-inverse comm rules).
    for a in 0..syntactic.len() {
        let (_, name_a, _, canon_a) = &syntactic[a];
        for (ib, name_b, _, _) in &syntactic[a..] {
            let rule_b = &rules[*ib];
            let rhs_b = rule_b.rhs_pattern().expect("rule is syntactic");
            let mut map = Vec::new();
            let r = canon_node(rhs_b.ast(), rhs_b.ast().root(), &mut map);
            let l = canon_node(
                rule_b.searcher().ast(),
                rule_b.searcher().ast().root(),
                &mut map,
            );
            let reversed_b = format!("{r} => {l}");
            if *canon_a == reversed_b {
                let msg = if name_a == name_b {
                    "self-inverse: lhs and rhs are mirror images (commutativity-style rule)"
                        .to_owned()
                } else {
                    format!("forms an inverse pair with rule `{name_b}`")
                };
                report.push(Diagnostic::new(
                    Severity::Info,
                    "SZL005",
                    format!("rule:{name_a}"),
                    msg,
                ));
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_egraph::tests_lang::Arith;

    fn rule(name: &str, lhs: &str, rhs: &str) -> Rewrite<Arith, ()> {
        Rewrite::parse(name, lhs, rhs).unwrap()
    }

    #[test]
    fn clean_ruleset_has_no_findings() {
        let rules = vec![rule("assoc", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)")];
        let report = lint_ruleset(&rules);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }

    #[test]
    fn unbound_rhs_var_is_deny() {
        let rules = vec![Rewrite::<Arith, ()>::new_unchecked(
            "bad",
            "(+ ?a ?b)".parse().unwrap(),
            "(* ?a ?c)".parse::<Pattern<Arith>>().unwrap(),
        )];
        let report = lint_ruleset(&rules);
        assert_eq!(report.deny_count(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, "SZL001");
        assert!(d.message.contains("?c"));
        // The dropped ?b is also reported, as a warning.
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "SZL002" && d.message.contains("?b")));
    }

    #[test]
    fn unused_lhs_var_is_warn() {
        let rules = vec![rule("drop", "(+ ?a ?b)", "?a")];
        let report = lint_ruleset(&rules);
        assert!(report.is_clean());
        assert_eq!(report.warn_count(), 1);
        assert_eq!(report.diagnostics[0].code, "SZL002");
    }

    #[test]
    fn exact_and_alpha_duplicates() {
        let rules = vec![
            rule("one", "(+ ?a ?b)", "(+ ?b ?a)"),
            rule("two", "(+ ?a ?b)", "(+ ?b ?a)"),
            rule("three", "(+ ?x ?y)", "(+ ?y ?x)"),
        ];
        let report = lint_ruleset(&rules);
        let codes: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "SZL003" || d.code == "SZL004")
            .map(|d| d.code)
            .collect();
        // two is an exact dup of one; three is an α-dup of both.
        assert_eq!(codes, ["SZL003", "SZL004", "SZL004"]);
    }

    #[test]
    fn inverse_pair_and_self_inverse() {
        let rules = vec![
            rule("comm", "(+ ?a ?b)", "(+ ?b ?a)"),
            rule("fwd", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))"),
            rule("bwd", "(+ (* ?x ?y) (* ?x ?z))", "(* ?x (+ ?y ?z))"),
        ];
        let report = lint_ruleset(&rules);
        let inv: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "SZL005")
            .collect();
        assert_eq!(inv.len(), 2, "{}", report.render_text());
        assert!(inv[0].message.contains("self-inverse"));
        assert!(inv[1].message.contains("`bwd`"));
    }

    #[test]
    fn expansive_rule_is_info() {
        let rules = vec![rule("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))")];
        let report = lint_ruleset(&rules);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "SZL006" && d.severity == Severity::Info));
    }

    #[test]
    fn dynamic_rules_are_opaque() {
        use sz_egraph::{EGraph, FnApplier, Subst};
        let rules = vec![Rewrite::<Arith, ()>::new(
            "dyn",
            "(+ ?a ?b)".parse().unwrap(),
            FnApplier(|_: &mut EGraph<Arith, ()>, _, _: &Subst| None),
        )
        .unwrap()];
        let report = lint_ruleset(&rules);
        assert!(report.diagnostics.is_empty(), "{}", report.render_text());
    }
}
