//! Differential property tests for the compiled e-matching VM: over
//! proptest-generated e-graphs (random expressions, random unions, and
//! partially saturated rewrite workloads), [`CompiledPattern`] must
//! produce exactly the same [`SearchMatches`] — same classes, same
//! substitution sets, same binding order — as the naive reference
//! matcher [`Pattern::search`].

use proptest::prelude::*;
use sz_egraph::tests_lang::{Arith, ConstFold};
use sz_egraph::{
    Analysis, CompiledPattern, EGraph, ENodeOrVar, Id, Language, Pattern, RecExpr, Rewrite, Runner,
    Subst,
};

/// Patterns exercising every instruction: linear, non-linear, ground
/// anchors, nested binds, and a bare-variable root.
const PATTERNS: &[&str] = &[
    "?x",
    "(+ ?a ?b)",
    "(* ?a ?b)",
    "(+ ?a ?a)",
    "(+ ?a (+ ?b ?c))",
    "(* ?a (+ ?b ?c))",
    "(+ (* ?a ?b) (* ?a ?c))",
    "(+ ?a 1)",
    "(* 2 ?a)",
    "(+ 1 2)",
    "(+ (+ ?a ?b) (+ ?a ?b))",
];

fn assert_matchers_agree<N: Analysis<Arith>>(egraph: &EGraph<Arith, N>, context: &str) {
    for pat in PATTERNS {
        let pattern: Pattern<Arith> = pat.parse().unwrap();
        let compiled = CompiledPattern::compile(pattern.clone());
        let mut naive: Vec<(Id, Vec<Subst>)> = pattern
            .search(egraph)
            .into_iter()
            .map(|m| (m.eclass, m.substs))
            .collect();
        let mut vm: Vec<(Id, Vec<Subst>)> = compiled
            .search(egraph)
            .into_iter()
            .map(|m| (m.eclass, m.substs))
            .collect();
        naive.sort_by_key(|(id, _)| *id);
        vm.sort_by_key(|(id, _)| *id);
        assert_eq!(naive, vm, "matcher divergence for `{pat}` on {context}");
    }
}

/// Random arithmetic *patterns* as strings: variable, constant, and symbol
/// leaves under random `+`/`*` spines — exercises bare-variable roots,
/// non-linear repeats, and fully ground subtrees.
fn arb_pattern() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        prop_oneof![Just("?a"), Just("?b"), Just("?c"), Just("?d")].prop_map(str::to_owned),
        (-2i64..3).prop_map(|n| n.to_string()),
        prop_oneof![Just("x"), Just("y")].prop_map(str::to_owned),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        (prop_oneof![Just("+"), Just("*")], inner.clone(), inner)
            .prop_map(|(op, a, b)| format!("({op} {a} {b})"))
    })
}

/// Random arithmetic expressions as strings (parsed into `RecExpr`).
fn arb_expr() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-3i64..4).prop_map(|n| n.to_string()),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(str::to_owned),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (prop_oneof![Just("+"), Just("*")], inner.clone(), inner)
            .prop_map(|(op, a, b)| format!("({op} {a} {b})"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vm_matches_naive_on_fresh_graphs(
        exprs in prop::collection::vec(arb_expr(), 1..4),
    ) {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        for s in &exprs {
            let expr: RecExpr<Arith> = s.parse().unwrap();
            eg.add_expr(&expr);
        }
        eg.rebuild();
        assert_matchers_agree(&eg, &exprs.join(" "));
    }

    #[test]
    fn vm_matches_naive_after_random_unions(
        exprs in prop::collection::vec(arb_expr(), 2..5),
        unions in prop::collection::vec((0usize..64, 0usize..64), 0..6),
    ) {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let mut roots = Vec::new();
        for s in &exprs {
            let expr: RecExpr<Arith> = s.parse().unwrap();
            roots.push(eg.add_expr(&expr));
        }
        eg.rebuild();
        let ids = eg.class_ids();
        for (a, b) in unions {
            eg.union(ids[a % ids.len()], ids[b % ids.len()]);
        }
        eg.rebuild();
        assert_matchers_agree(&eg, &exprs.join(" "));
    }

    #[test]
    fn vm_matches_naive_on_saturated_graphs(
        expr in arb_expr(),
        iters in 1usize..4,
    ) {
        // Saturate with a const-folding analysis in the mix, so classes
        // carry merged nodes and the analysis has unioned literals in.
        let rules: Vec<Rewrite<Arith, ConstFold>> = vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
            Rewrite::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
        ];
        let parsed: RecExpr<Arith> = expr.parse().unwrap();
        let runner = Runner::new(ConstFold)
            .with_expr(&parsed)
            .with_iter_limit(iters)
            .with_node_limit(3_000)
            .run(&rules);
        assert_matchers_agree(&runner.egraph, &expr);
    }

    // The compiled program must bind exactly the naive pattern's variable
    // set, in the same first-occurrence order, for arbitrary patterns.
    #[test]
    fn compiled_vars_agree_with_naive_on_arbitrary_patterns(pat in arb_pattern()) {
        let pattern: Pattern<Arith> = pat.parse().unwrap();
        let compiled = CompiledPattern::compile(pattern.clone());
        prop_assert_eq!(
            compiled.vars(),
            pattern.vars(),
            "vars diverge for `{}`", pat
        );
        prop_assert_eq!(compiled.program().vars(), pattern.vars());
    }
}

#[test]
fn from_op_rejects_malformed_variables() {
    // A `?`-prefixed token that is not a well-formed variable name.
    let err = ENodeOrVar::<Arith>::from_op("?a?b", &[]).unwrap_err();
    assert!(
        err.to_string().contains("malformed pattern variable"),
        "unexpected error: {err}"
    );
    let err = ENodeOrVar::<Arith>::from_op("?a(", &[]).unwrap_err();
    assert!(err.to_string().contains("malformed pattern variable"));
}

#[test]
fn from_op_rejects_variables_with_children() {
    let err = ENodeOrVar::<Arith>::from_op("?f", &[Id::from(0usize)]).unwrap_err();
    assert!(
        err.to_string()
            .contains("pattern variables cannot have children"),
        "unexpected error: {err}"
    );
}

#[test]
fn from_op_bare_question_mark_falls_through_to_the_language() {
    // A lone `?` is not a pattern variable; it reaches `Arith::from_op`,
    // which rejects it as neither number nor symbol.
    let err = ENodeOrVar::<Arith>::from_op("?", &[]).unwrap_err();
    assert!(err.to_string().contains("not a number or variable"));
}

#[test]
fn compiled_searcher_vars_match_pattern_vars() {
    for pat in PATTERNS {
        let pattern: Pattern<Arith> = pat.parse().unwrap();
        let compiled = CompiledPattern::compile(pattern.clone());
        assert_eq!(compiled.vars(), pattern.vars(), "vars diverge for `{pat}`");
    }
}

#[test]
fn search_eclass_agrees_per_class() {
    let mut eg: EGraph<Arith, ()> = EGraph::default();
    eg.add_expr(&"(* (+ x 1) (+ y 1))".parse().unwrap());
    eg.rebuild();
    let pattern: Pattern<Arith> = "(+ ?a 1)".parse().unwrap();
    let compiled = CompiledPattern::compile(pattern.clone());
    for id in eg.class_ids() {
        let naive = pattern.search_eclass(&eg, id).map(|m| m.substs);
        let vm = compiled.search_eclass(&eg, id).map(|m| m.substs);
        assert_eq!(naive, vm, "class {id}");
    }
}

#[test]
fn op_index_candidates_are_exactly_the_matching_root_classes() {
    // The index may only prune classes that cannot match the root
    // operator — never one that can.
    let mut eg: EGraph<Arith, ()> = EGraph::default();
    eg.add_expr(&"(+ (* x y) (+ 1 (* 2 z)))".parse().unwrap());
    eg.rebuild();
    let node = Arith::Mul([Id::from(0usize), Id::from(0usize)]);
    let indexed: Vec<Id> = eg.classes_with_op(&node).to_vec();
    let mut scanned: Vec<Id> = eg
        .classes()
        .filter(|c| eg.nodes_of(c).any(|n| n.matches(&node)))
        .map(|c| c.id)
        .collect();
    scanned.sort_unstable();
    assert_eq!(indexed, scanned);
}
