//! Lazy k-best extraction against the eager fixpoint it replaced.
//!
//! `KBestExtractor` enumerates derivations on demand over the 1-best
//! table; the eager oracle (`crates/egraph/tests/support/eager_kbest.rs`)
//! iterates a whole-graph table of `k` derivations per class to fixpoint.
//! For every cost model that is monotone in each child's cost, the two
//! must return the same top-k — costs and term text, in order — because
//! both order a class's derivations by (cost, e-node position, choice
//! vector). Checked at k = 10 under the four ranking models the batch
//! engine is run with, over proptest graphs (with and without cycle
//! rules), all 16 suite16 models, and the first 100 models of the seed-42
//! generated corpus, each extracted from the graph a snapshot resume
//! restores.

#[path = "../crates/egraph/tests/support/eager_kbest.rs"]
mod eager_kbest;

use std::sync::Arc;

use eager_kbest::EagerKBest;
use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::tests_lang::Arith;
use sz_egraph::{
    Analysis, AstDepth, AstSize, CostFunction, EGraph, Id, KBestExtractor, Language, Rewrite,
    Runner,
};
use sz_gen::{generate_model, GenSpec};
use szalinski::{
    cad_to_lang, parse_cost_spec, rules, CadAnalysis, CadGraph, CostModel, CostSpec, ModelCost,
    RunOptions, SynthConfig, Synthesizer,
};

const K: usize = 10;

/// The ranking models the differential covers, by `--cost` spec.
fn ranking_models() -> Vec<(&'static str, Arc<dyn CostModel>)> {
    [
        "ast-size",
        "reward-loops",
        "weights(loop=1,geom=10)",
        "lex(ast-size,depth)",
    ]
    .into_iter()
    .map(|spec| match parse_cost_spec(spec) {
        Ok(CostSpec::Single(model)) => (spec, model),
        other => panic!("{spec}: {other:?}"),
    })
    .collect()
}

/// A top-k list as `(cost, term text)` pairs.
type Ranked<C> = Vec<(C, String)>;

/// The top-k lists of the lazy extractor and of the oracle.
fn both<L: Language, N: Analysis<L>, CF: CostFunction<L> + Clone>(
    egraph: &EGraph<L, N>,
    root: Id,
    cost: CF,
) -> (Ranked<CF::Cost>, Ranked<CF::Cost>) {
    let text = |terms: Vec<(CF::Cost, sz_egraph::RecExpr<L>)>| -> Ranked<CF::Cost> {
        terms.into_iter().map(|(c, e)| (c, e.to_string())).collect()
    };
    let lazy = text(KBestExtractor::new(egraph, cost.clone(), K).find_best_k(root));
    let eager = text(EagerKBest::new(egraph, cost, K).find_best_k(root));
    (lazy, eager)
}

/// Asserts identical top-k under every ranking model.
fn assert_models_agree(egraph: &CadGraph, root: Id, what: &str) {
    for (spec, model) in ranking_models() {
        let (lazy, eager) = both(egraph, root, ModelCost(model));
        assert!(!lazy.is_empty(), "{what} under {spec}: nothing extracted");
        assert_eq!(lazy, eager, "{what} under {spec}");
    }
}

/// The final graph of a default-config cold run, as a snapshot resume
/// restores it, with its root.
fn final_graph(name: &str, input: &Cad) -> (CadGraph, Id) {
    let session = Synthesizer::new(SynthConfig::new());
    let result = session
        .run(input, RunOptions::new().capture_snapshot(true))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let snapshot = result
        .snapshot
        .unwrap_or_else(|| panic!("{name}: no snapshot captured"));
    let snapshot = snapshot.egraph_snapshot();
    (snapshot.restore(CadAnalysis), snapshot.roots()[0])
}

#[test]
fn suite16_top_k_matches_the_eager_oracle() {
    for model in sz_models::all_models() {
        let (egraph, root) = final_graph(model.name, &model.flat);
        assert_models_agree(&egraph, root, model.name);
    }
}

#[test]
fn generated_corpus_top_k_matches_the_eager_oracle() {
    let spec: GenSpec = "count=100,seed=42,noise=0.0005".parse().unwrap();
    for index in 0..spec.count {
        let name = sz_gen::model_name(spec.seed, index);
        let (egraph, root) = final_graph(&name, &generate_model(&spec, index));
        assert_models_agree(&egraph, root, &name);
    }
}

/// Random flat CSG terms of bounded size (the shape
/// `tests/cost_models.rs` uses).
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

/// Random arithmetic terms over two variables and small constants.
fn arb_arith() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x".to_owned()),
        Just("y".to_owned()),
        (0i64..3).prop_map(|n| n.to_string()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (prop_oneof![Just("+"), Just("*")], inner.clone(), inner)
            .prop_map(|(op, a, b)| format!("({op} {a} {b})"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn saturated_cad_top_k_matches_the_eager_oracle(
        input in arb_flat_cad(),
        iters in 1usize..8,
        cycle in prop_oneof![Just(false), Just(true)],
    ) {
        let mut rule_set = rules();
        if cycle {
            // `u = (Union u Empty)` puts every union class on a cycle.
            rule_set.push(
                Rewrite::parse("union-empty", "(Union ?a ?b)", "(Union (Union ?a ?b) Empty)")
                    .unwrap(),
            );
        }
        let runner = Runner::new(CadAnalysis)
            .with_expr(&cad_to_lang(&input))
            .with_iter_limit(iters)
            .with_node_limit(20_000)
            .run(&rule_set);
        let root = runner.roots[0];
        for (spec, model) in ranking_models() {
            let (lazy, eager) = both(&runner.egraph, root, ModelCost(model));
            prop_assert!(!lazy.is_empty(), "{} under {}", input, spec);
            prop_assert_eq!(lazy, eager, "{} under {}", input, spec);
        }
    }

    #[test]
    fn arith_top_k_with_add0_cycles_matches_the_eager_oracle(
        expr in arb_arith(),
        iters in 1usize..4,
    ) {
        let rule_set: Vec<Rewrite<Arith, ()>> = vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("add0", "?a", "(+ ?a 0)").unwrap(),
        ];
        let runner = Runner::new(())
            .with_expr(&expr.parse().unwrap())
            .with_iter_limit(iters)
            .with_node_limit(5_000)
            .run(&rule_set);
        let root = runner.roots[0];
        let (lazy, eager) = both(&runner.egraph, root, AstSize);
        prop_assert_eq!(lazy, eager, "{} under ast-size", expr);
        let (lazy, eager) = both(&runner.egraph, root, AstDepth);
        prop_assert_eq!(lazy, eager, "{} under ast-depth", expr);
    }
}
