//! Lazy k-best extraction against the eager fixpoint it replaced, and
//! Pareto fronts on the shared worklist against the Jacobi fixpoint they
//! replaced.
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
//!
//! `ParetoExtractor` computes its fronts on the extractors' dirty-class
//! worklist; the Jacobi oracle
//! (`crates/egraph/tests/support/jacobi_pareto.rs`) stages every pass's
//! fronts to the pass boundary. Both reach the same fronts, so they must
//! return the same front — costs and term text, in order — at caps 1, 2
//! and 8, under five objective pairs (one with the not strictly monotone
//! `geom` first), over the same graphs.

#[path = "../crates/egraph/tests/support/eager_kbest.rs"]
mod eager_kbest;
#[path = "../crates/egraph/tests/support/jacobi_pareto.rs"]
mod jacobi_pareto;

use std::sync::{Arc, OnceLock};

use eager_kbest::EagerKBest;
use jacobi_pareto::JacobiPareto;
use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::tests_lang::Arith;
use sz_egraph::{
    Analysis, AstDepth, AstSize, CostFunction, EGraph, Id, KBestExtractor, Language,
    ParetoExtractor, Rewrite, Runner,
};
use sz_gen::{generate_model, GenSpec};
use szalinski::{
    cad_to_lang, parse_cost_model, parse_cost_spec, rules, CadAnalysis, CadGraph, CadLang,
    CostModel, CostSpec, ModelCost, RunOptions, SynthConfig, Synthesizer,
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

/// The front caps the Pareto differential covers.
const CAPS: [usize; 3] = [1, 2, 8];

/// The objective pairs the Pareto differential covers, by model spec.
/// `geom` is not strictly monotone, so `(geom, ast-size)` exercises the
/// fixpoint's pass bound and the term builder's depth guard.
const PARETO_PAIRS: [(&str, &str); 5] = [
    ("ast-size", "depth"),
    ("ast-size", "geom"),
    ("reward-loops", "depth"),
    ("depth", "ast-size"),
    ("geom", "ast-size"),
];

/// A Pareto front as `(cost_a, cost_b, term text)` triples.
type Front<A, B> = Vec<(A, B, String)>;

/// A front from the worklist extractor and one from the Jacobi oracle.
type Fronts<A, B> = (Front<A, B>, Front<A, B>);

/// The fronts of the worklist extractor and of the Jacobi oracle.
fn both_fronts<L, N, CA, CB>(
    egraph: &EGraph<L, N>,
    root: Id,
    cost_a: CA,
    cost_b: CB,
    cap: usize,
) -> Fronts<CA::Cost, CB::Cost>
where
    L: Language,
    N: Analysis<L>,
    CA: CostFunction<L> + Clone,
    CB: CostFunction<L> + Clone,
{
    let text = |front: Vec<(CA::Cost, CB::Cost, sz_egraph::RecExpr<L>)>| {
        front
            .into_iter()
            .map(|(a, b, e)| (a, b, e.to_string()))
            .collect::<Front<CA::Cost, CB::Cost>>()
    };
    let worklist = ParetoExtractor::with_cap(egraph, cost_a.clone(), cost_b.clone(), cap);
    let jacobi = JacobiPareto::with_cap(egraph, cost_a, cost_b, cap);
    (
        text(worklist.find_front(root)),
        text(jacobi.find_front(root)),
    )
}

/// Asserts identical fronts under every objective pair and cap.
fn assert_fronts_agree(egraph: &CadGraph, root: Id, what: &str) {
    for (a, b) in PARETO_PAIRS {
        let model = |spec| ModelCost(parse_cost_model(spec).unwrap());
        for cap in CAPS {
            let (worklist, jacobi) = both_fronts(egraph, root, model(a), model(b), cap);
            assert!(
                !worklist.is_empty(),
                "{what} under ({a},{b}) cap {cap}: empty front"
            );
            assert_eq!(worklist, jacobi, "{what} under ({a},{b}) cap {cap}");
        }
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

/// A named final graph with its root.
type FinalGraph = (String, CadGraph, Id);

/// The final graphs of all 16 suite16 models, built once for both
/// differentials.
fn suite16_graphs() -> &'static [FinalGraph] {
    static GRAPHS: OnceLock<Vec<FinalGraph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        sz_models::all_models()
            .into_iter()
            .map(|model| {
                let (egraph, root) = final_graph(model.name, &model.flat);
                (model.name.to_owned(), egraph, root)
            })
            .collect()
    })
}

/// The final graphs of the first 100 models of the seed-42 corpus, built
/// once for both differentials.
fn corpus_graphs() -> &'static [FinalGraph] {
    static GRAPHS: OnceLock<Vec<FinalGraph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        let spec: GenSpec = "count=100,seed=42,noise=0.0005".parse().unwrap();
        (0..spec.count)
            .map(|index| {
                let name = sz_gen::model_name(spec.seed, index);
                let (egraph, root) = final_graph(&name, &generate_model(&spec, index));
                (name, egraph, root)
            })
            .collect()
    })
}

#[test]
fn suite16_top_k_matches_the_eager_oracle() {
    for (name, egraph, root) in suite16_graphs() {
        assert_models_agree(egraph, *root, name);
    }
}

#[test]
fn generated_corpus_top_k_matches_the_eager_oracle() {
    for (name, egraph, root) in corpus_graphs() {
        assert_models_agree(egraph, *root, name);
    }
}

#[test]
fn suite16_pareto_fronts_match_the_jacobi_oracle() {
    for (name, egraph, root) in suite16_graphs() {
        assert_fronts_agree(egraph, *root, name);
    }
}

#[test]
fn generated_corpus_pareto_fronts_match_the_jacobi_oracle() {
    for (name, egraph, root) in corpus_graphs() {
        assert_fronts_agree(egraph, *root, name);
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

/// A proptest CAD input saturated for `iters` iterations under the
/// default rules, plus the `union-empty` cycle rule when `cycle` is set.
fn saturated_cad(input: &Cad, iters: usize, cycle: bool) -> Runner<CadLang, CadAnalysis> {
    let mut rule_set = rules();
    if cycle {
        // `u = (Union u Empty)` puts every union class on a cycle.
        rule_set.push(
            Rewrite::parse(
                "union-empty",
                "(Union ?a ?b)",
                "(Union (Union ?a ?b) Empty)",
            )
            .unwrap(),
        );
    }
    Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(input))
        .with_iter_limit(iters)
        .with_node_limit(20_000)
        .run(&rule_set)
}

/// A proptest arithmetic term saturated for `iters` iterations under
/// commutativity, associativity and the `add0` cycle rule.
fn saturated_arith(expr: &str, iters: usize) -> Runner<Arith, ()> {
    let rule_set: Vec<Rewrite<Arith, ()>> = vec![
        Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
        Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
        Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
        Rewrite::parse("add0", "?a", "(+ ?a 0)").unwrap(),
    ];
    Runner::new(())
        .with_expr(&expr.parse().unwrap())
        .with_iter_limit(iters)
        .with_node_limit(5_000)
        .run(&rule_set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn saturated_cad_top_k_matches_the_eager_oracle(
        input in arb_flat_cad(),
        iters in 1usize..8,
        cycle in prop_oneof![Just(false), Just(true)],
    ) {
        let runner = saturated_cad(&input, iters, cycle);
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
        let runner = saturated_arith(&expr, iters);
        let root = runner.roots[0];
        let (lazy, eager) = both(&runner.egraph, root, AstSize);
        prop_assert_eq!(lazy, eager, "{} under ast-size", expr);
        let (lazy, eager) = both(&runner.egraph, root, AstDepth);
        prop_assert_eq!(lazy, eager, "{} under ast-depth", expr);
    }

    #[test]
    fn saturated_cad_pareto_fronts_match_the_jacobi_oracle(
        input in arb_flat_cad(),
        iters in 1usize..8,
        cycle in prop_oneof![Just(false), Just(true)],
    ) {
        let runner = saturated_cad(&input, iters, cycle);
        assert_fronts_agree(&runner.egraph, runner.roots[0], &input.to_string());
    }

    #[test]
    fn arith_pareto_fronts_with_add0_cycles_match_the_jacobi_oracle(
        expr in arb_arith(),
        iters in 1usize..4,
    ) {
        let runner = saturated_arith(&expr, iters);
        let root = runner.roots[0];
        for cap in CAPS {
            let (worklist, jacobi) = both_fronts(&runner.egraph, root, AstSize, AstDepth, cap);
            prop_assert_eq!(worklist, jacobi, "{} under (ast-size,ast-depth) cap {}", expr, cap);
            let (worklist, jacobi) = both_fronts(&runner.egraph, root, AstDepth, AstSize, cap);
            prop_assert_eq!(worklist, jacobi, "{} under (ast-depth,ast-size) cap {}", expr, cap);
        }
    }
}
