//! VM-vs-naive e-matching differential over the *real* rule set: for
//! every rule in [`szalinski::all_rules`] (the full Fig. 8 set plus the
//! structural boolean laws), the compiled e-matching program inside the
//! rewrite must produce exactly the same `SearchMatches` — same classes,
//! same substitution sets, same binding order — as the retained naive
//! reference matcher ([`Pattern::search`]), on proptest-generated CAD
//! graphs and on partially saturated paper models.
//!
//! This is the workspace-level guarantee behind the compiled-e-matching
//! refactor: any divergence between the two matchers is a bug in the VM,
//! the operator index, or the naive oracle, and shows up here as a
//! failing rule name. A rewrite can only hold its compiled program, so
//! this suite and `crates/egraph/tests/ematch_machine.rs` are where the
//! naive oracle is used; tier-1 and CI's `ematch-differential` job run
//! both.

use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::{Id, Runner, Subst};
use szalinski::{all_rules, cad_to_lang, CadAnalysis, CadGraph};

/// Asserts that every rule's compiled searcher agrees with the naive
/// pattern matcher on `egraph`.
fn assert_all_rules_agree(egraph: &CadGraph, context: &str) {
    for rule in all_rules() {
        // The retained naive reference matcher walks the raw pattern...
        let mut naive: Vec<(Id, Vec<Subst>)> = rule
            .searcher()
            .search(egraph)
            .into_iter()
            .map(|m| (m.eclass, m.substs))
            .collect();
        // ...while the rewrite itself executes its compiled program over
        // the operator index.
        let mut vm: Vec<(Id, Vec<Subst>)> = rule
            .search(egraph)
            .into_iter()
            .map(|m| (m.eclass, m.substs))
            .collect();
        naive.sort_by_key(|(id, _)| *id);
        vm.sort_by_key(|(id, _)| *id);
        assert_eq!(
            naive,
            vm,
            "matcher divergence for rule `{}` on {context}",
            rule.name()
        );
    }
}

/// Saturates `cad` for `iters` iterations and returns the (clean)
/// e-graph.
fn saturated_graph(cad: &Cad, iters: usize, node_limit: usize) -> CadGraph {
    let expr = cad_to_lang(cad);
    let runner = Runner::new(CadAnalysis)
        .with_expr(&expr)
        .with_iter_limit(iters)
        .with_node_limit(node_limit)
        .run(&all_rules());
    runner.egraph
}

/// A strategy for random *flat* CSG terms of bounded size (the same
/// shape `tests/proptests.rs` uses for rewrite soundness).
fn arb_flat_cad() -> impl Strategy<Value = Cad> {
    let leaf = prop_oneof![
        Just(Cad::Unit),
        Just(Cad::Sphere),
        Just(Cad::Cylinder),
        Just(Cad::Hexagon),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(AffineKind::Translate),
                    Just(AffineKind::Scale),
                    Just(AffineKind::Rotate)
                ],
                -4.0f64..4.0,
                -4.0f64..4.0,
                -4.0f64..4.0,
                inner.clone()
            )
                .prop_map(|(kind, x, y, z, c)| {
                    let v = match kind {
                        AffineKind::Scale => [x.abs() + 0.5, y.abs() + 0.5, z.abs() + 0.5],
                        AffineKind::Rotate => [0.0, 0.0, x * 45.0],
                        AffineKind::Translate => [x, y, z],
                    };
                    Cad::Affine(kind, v.into(), Box::new(c))
                }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cad::union(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Cad::diff(a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compiled_matches_naive_on_random_cads(
        cad in arb_flat_cad(),
        iters in 0usize..4,
    ) {
        let egraph = saturated_graph(&cad, iters, 10_000);
        assert_all_rules_agree(&egraph, &format!("{cad} after {iters} iterations"));
    }
}

#[test]
fn compiled_matches_naive_on_unsaturated_paper_models() {
    // Fresh graphs (no saturation) for every suite16 model: cheap, and
    // exercises every operator the real corpus contains.
    for model in sz_models::all_models() {
        let egraph = saturated_graph(&model.flat, 0, 10_000);
        assert_all_rules_agree(&egraph, model.name);
    }
}

#[test]
fn compiled_matches_naive_on_partially_saturated_models() {
    // A few representative models, saturated deep enough for folds,
    // collapses, and reorders to populate multi-node classes.
    for name in ["3171605:card-org", "510849:wardrobe", "3362402:gear"] {
        let model = sz_models::all_models()
            .into_iter()
            .find(|m| m.name == name)
            .expect("paper model exists");
        for iters in [2, 6] {
            let egraph = saturated_graph(&model.flat, iters, 30_000);
            assert_all_rules_agree(&egraph, &format!("{name} after {iters} iterations"));
        }
    }
}

#[test]
fn every_rule_fires_somewhere_on_the_suite() {
    // Smoke version of CI's zero-match gate: across the whole suite at
    // shallow saturation, the core rule families must find matches (a
    // broken matcher that returns nothing everywhere would otherwise
    // still pass the differential if the oracle broke identically).
    let mut matched: std::collections::HashSet<String> = std::collections::HashSet::new();
    for model in sz_models::all_models() {
        let egraph = saturated_graph(&model.flat, 3, 20_000);
        for rule in all_rules() {
            if !rule.search(&egraph).is_empty() {
                matched.insert(rule.name().to_owned());
            }
        }
    }
    for expected in [
        "lift-scale-union",
        "reorder-rotate-translate",
        "collapse-translate",
        "fold-intro-union",
        "union-comm",
    ] {
        assert!(
            matched.contains(expected),
            "rule `{expected}` matched nowhere on the suite; matched = {matched:?}"
        );
    }
}
