//! The pluggable cost-model/extraction differential harness: every
//! built-in [`CostModel`] must drive `KBestExtractor` to sorted,
//! deduplicated top-k output; `ParetoExtractor` fronts must be mutually
//! non-dominating and deterministic across runs; and — the ROADMAP's
//! snapshot-reuse invariant — a cost-model-only config change must
//! resume from a stored snapshot with **zero** saturation iterations
//! while matching its own cold run byte-for-byte.

use std::sync::Arc;

use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::{KBestExtractor, ParetoExtractor, Runner};
use sz_gen::{generate_model, GenSpec};
use szalinski::{
    cad_to_lang, rules, AstSizeCost, CadAnalysis, CostModel, DepthCost, DepthPenalty, GeomCount,
    Lexicographic, ModelCost, OpClass, RewardLoopsCost, RunMode, RunOptions, SynthConfig,
    Synthesis, Synthesizer, WeightedCost, WeightedSum,
};

/// Every built-in ranking model (strictly monotone; `GeomCount` is
/// Pareto-secondary-only and excluded on purpose).
fn builtin_models() -> Vec<Arc<dyn CostModel>> {
    vec![
        Arc::new(AstSizeCost),
        Arc::new(RewardLoopsCost),
        Arc::new(WeightedCost::new().with_weight(OpClass::Geom, 10)),
        Arc::new(DepthCost),
        Arc::new(DepthPenalty::new(Arc::new(AstSizeCost), 2)),
        Arc::new(Lexicographic::new(
            Arc::new(DepthCost),
            Arc::new(AstSizeCost),
        )),
        Arc::new(WeightedSum::new(
            Arc::new(AstSizeCost),
            1,
            Arc::new(DepthCost),
            5,
        )),
    ]
}

fn quick() -> SynthConfig {
    SynthConfig::new()
        .with_iter_limit(12)
        .with_node_limit(20_000)
}

fn programs(s: &Synthesis) -> Vec<(usize, String)> {
    s.top_k
        .iter()
        .map(|p| (p.cost, p.cad.to_string()))
        .collect()
}

/// A strategy for random *flat* CSG terms of bounded size (mirrors
/// `tests/proptests.rs`).
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

/// Saturates `input` with the default rule set at proptest-friendly
/// fuel, returning the runner (graph + root).
fn saturate(input: &Cad) -> Runner<szalinski::CadLang, CadAnalysis> {
    Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(input))
        .with_iter_limit(10)
        .with_node_limit(20_000)
        .run(&rules())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn kbest_under_every_builtin_model_is_sorted(input in arb_flat_cad()) {
        let runner = saturate(&input);
        let root = runner.roots[0];
        for model in builtin_models() {
            let fp = model.fingerprint();
            let kbest = KBestExtractor::new(&runner.egraph, ModelCost(model), 5);
            let results = kbest.find_best_k(root);
            prop_assert!(!results.is_empty(), "{fp}: root must be extractable");
            for w in results.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "{fp}: costs must be non-decreasing");
            }
        }
    }

    #[test]
    fn pipeline_top_k_is_sorted_and_distinct(input in arb_flat_cad()) {
        // Through the full pipeline (where extract_top_k deduplicates),
        // every model yields sorted costs and pairwise-distinct
        // programs.
        for model in builtin_models() {
            let fp = model.fingerprint();
            let session = Synthesizer::new(quick().with_cost_model(model));
            let result = session.run(&input, RunOptions::new()).unwrap();
            for w in result.top_k.windows(2) {
                prop_assert!(w[0].cost <= w[1].cost, "{fp}: sorted");
            }
            for (i, a) in result.top_k.iter().enumerate() {
                for b in &result.top_k[i + 1..] {
                    prop_assert!(a.cad != b.cad, "{fp}: distinct programs");
                }
            }
        }
    }

    #[test]
    fn pareto_front_nondominating_and_deterministic(input in arb_flat_cad()) {
        let runner = saturate(&input);
        let root = runner.roots[0];
        let front = ParetoExtractor::new(
            &runner.egraph,
            ModelCost(Arc::new(AstSizeCost)),
            ModelCost(Arc::new(GeomCount)),
        )
        .find_front(root);
        prop_assert!(!front.is_empty());
        for (i, (a1, b1, _)) in front.iter().enumerate() {
            for (j, (a2, b2, _)) in front.iter().enumerate() {
                if i != j {
                    let dominates = a1 <= a2 && b1 <= b2 && (a1 < a2 || b1 < b2);
                    prop_assert!(!dominates, "front point {i} dominates {j}");
                }
            }
        }
        // Deterministic across runs: a fresh saturation + extraction of
        // the same input reproduces the front exactly.
        let rerun = saturate(&input);
        let front2 = ParetoExtractor::new(
            &rerun.egraph,
            ModelCost(Arc::new(AstSizeCost)),
            ModelCost(Arc::new(GeomCount)),
        )
        .find_front(rerun.roots[0]);
        let points = |f: &Vec<(szalinski::CostVec, szalinski::CostVec, sz_egraph::RecExpr<szalinski::CadLang>)>| -> Vec<String> {
            f.iter().map(|(a, b, e)| format!("{a}|{b}|{e}")).collect()
        };
        prop_assert_eq!(points(&front), points(&front2));
    }

    #[test]
    fn cost_only_model_swap_resumes_with_zero_iterations(input in arb_flat_cad()) {
        // The acceptance invariant: a custom WeightedCost run resumes
        // from an AstSize-produced snapshot without re-saturating,
        // because the cost fingerprint lives in extraction-only fields.
        let session = Synthesizer::new(quick());
        let cold = session
            .run(&input, RunOptions::new().capture_snapshot(true))
            .unwrap();
        let snapshot = cold.snapshot.unwrap();

        let weighted: Arc<dyn CostModel> = Arc::new(
            WeightedCost::new()
                .with_weight(OpClass::Geom, 10)
                .with_weight(OpClass::Affine, 3),
        );
        let weighted_config = quick().with_cost_model(Arc::clone(&weighted));
        prop_assert_eq!(
            weighted_config.saturation_fingerprint(),
            quick().saturation_fingerprint(),
            "cost models must not leak into the saturation fingerprint"
        );
        prop_assert!(weighted_config.fingerprint() != quick().fingerprint());

        let weighted_session = Synthesizer::new(weighted_config);
        let resumed = weighted_session
            .run(&input, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        prop_assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        prop_assert_eq!(resumed.iterations, 0, "no re-saturation on a cost-only swap");
        let cold_weighted = weighted_session.run(&input, RunOptions::new()).unwrap();
        prop_assert_eq!(programs(&resumed), programs(&cold_weighted));
    }
}

#[test]
fn suite16_weighted_resumes_from_ast_size_snapshots() {
    // The same invariant over real models: snapshot under the default
    // cost, resume under a custom weight table — zero iterations, output
    // equal to the weighted cold run.
    let config = SynthConfig::new()
        .with_iter_limit(60)
        .with_node_limit(80_000);
    let weighted: Arc<dyn CostModel> = Arc::new(WeightedCost::new().with_weight(OpClass::Geom, 10));
    for model in sz_models::all_models().into_iter().take(4) {
        let session = Synthesizer::new(config.clone());
        let cold = session
            .run(&model.flat, RunOptions::new().capture_snapshot(true))
            .unwrap();
        let snapshot = cold.snapshot.unwrap();

        let weighted_session =
            Synthesizer::new(config.clone().with_cost_model(Arc::clone(&weighted)));
        let resumed = weighted_session
            .run(&model.flat, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedExtraction, "{}", model.name);
        assert_eq!(resumed.iterations, 0, "{}", model.name);
        let cold_weighted = weighted_session
            .run(&model.flat, RunOptions::new())
            .unwrap();
        assert_eq!(
            programs(&resumed),
            programs(&cold_weighted),
            "{}: resumed weighted extraction must equal cold",
            model.name
        );
    }
}

#[test]
fn reward_loops_still_surfaces_the_wardrobe_variant() {
    // The wardrobe@ acceptance row: under the reimplemented
    // RewardLoopsCost the loopy variant must rank first even where
    // plain AST size keeps the flat form.
    let flat = Cad::union_chain(
        (1..=2)
            .map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit))
            .collect(),
    );
    let default = Synthesizer::new(quick())
        .run(&flat, RunOptions::new())
        .unwrap();
    assert_ne!(default.structured().map(|(r, _)| r), Some(1));
    let reward = Synthesizer::new(quick().with_cost_model(Arc::new(RewardLoopsCost)))
        .run(&flat, RunOptions::new())
        .unwrap();
    assert_eq!(reward.structured().map(|(r, _)| r), Some(1));
}

#[test]
fn depth_penalty_top_k_is_sorted_on_generated_models() {
    // Regression: a depth-penalty cost is not monotone in a child's own
    // cost order (a cheaper child can be deeper), so lazy k-best
    // enumeration can pop a dearer derivation before a cheaper one. On
    // model 12 of the benchmark corpus the raw root order began 107,
    // 107, 107, 107, 107, 105, and on model 121 the first five distinct
    // programs cost 63, 63, 61, 65, 65; both the extractor and the
    // pipeline must hand back sorted costs.
    let spec: GenSpec = "count=1280,seed=42,noise=0.0005".parse().unwrap();
    let model: Arc<dyn CostModel> = Arc::new(DepthPenalty::new(Arc::new(AstSizeCost), 2));
    let session = Synthesizer::new(SynthConfig::new().with_cost_model(Arc::clone(&model)));
    for index in [12, 121] {
        let result = session
            .run(
                &generate_model(&spec, index),
                RunOptions::new().capture_snapshot(true),
            )
            .unwrap();
        let snapshot = result.snapshot.as_ref().unwrap().egraph_snapshot();
        let egraph = snapshot.restore(CadAnalysis);
        let kbest = KBestExtractor::new(&egraph, ModelCost(Arc::clone(&model)), 10);
        let costs: Vec<u64> = kbest
            .find_best_k(snapshot.roots()[0])
            .iter()
            .map(|(c, _)| c.primary())
            .collect();
        assert_eq!(costs.len(), 10, "model {index}");
        assert!(
            costs.windows(2).all(|w| w[0] <= w[1]),
            "model {index}: {costs:?}"
        );
        let top: Vec<usize> = result.top_k.iter().map(|p| p.cost).collect();
        assert_eq!(top.len(), 5, "model {index}");
        assert!(
            top.windows(2).all(|w| w[0] <= w[1]),
            "model {index}: {top:?}"
        );
    }
}
