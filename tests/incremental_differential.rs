//! The snapshot differential harness: over the paper's 16-model suite
//! and property-generated flat CSG, a run resumed from an e-graph
//! snapshot must emit **byte-identical** programs to the cold run while
//! spending **zero** saturation iterations, and snapshot compatibility
//! must follow the saturation/extraction fingerprint split (cost-only
//! config changes reuse snapshots; rule-set changes invalidate them).

use std::sync::Arc;

use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use szalinski::{
    RewardLoopsCost, RunMode, RunOptions, SynthConfig, SynthSnapshot, Synthesis, Synthesizer,
};

fn config() -> SynthConfig {
    SynthConfig::new()
        .with_iter_limit(60)
        .with_node_limit(80_000)
}

/// A cold run that captures its snapshot.
fn capture(input: &Cad, config: &SynthConfig) -> (Synthesis, SynthSnapshot) {
    let mut cold = Synthesizer::new(config.clone())
        .run(input, RunOptions::new().capture_snapshot(true))
        .unwrap();
    let snapshot = cold.snapshot.take().expect("capture requested");
    (cold, snapshot)
}

/// A run under `config` that is offered `snapshot`.
fn offer(input: &Cad, config: &SynthConfig, snapshot: &SynthSnapshot) -> Synthesis {
    Synthesizer::new(config.clone())
        .run(input, RunOptions::new().with_snapshot(snapshot.clone()))
        .unwrap()
}

/// The byte-level identity of a synthesis result: costs plus printed
/// programs, in rank order.
fn programs(s: &Synthesis) -> Vec<(usize, String)> {
    s.top_k
        .iter()
        .map(|p| (p.cost, p.cad.to_string()))
        .collect()
}

/// Table rows compared field-by-field except wall-clock time.
fn assert_rows_identical(a: &Synthesis, b: &Synthesis, name: &str) {
    let (ra, rb) = (a.table_row(name), b.table_row(name));
    assert_eq!(ra.i_ns, rb.i_ns, "{name}: i_ns");
    assert_eq!(ra.o_ns, rb.o_ns, "{name}: o_ns");
    assert_eq!(ra.i_p, rb.i_p, "{name}: i_p");
    assert_eq!(ra.o_p, rb.o_p, "{name}: o_p");
    assert_eq!(ra.i_d, rb.i_d, "{name}: i_d");
    assert_eq!(ra.o_d, rb.o_d, "{name}: o_d");
    assert_eq!(ra.n_l, rb.n_l, "{name}: n_l");
    assert_eq!(ra.f, rb.f, "{name}: f");
    assert_eq!(ra.rank, rb.rank, "{name}: rank");
}

#[test]
fn suite16_resumed_equals_cold() {
    for model in sz_models::all_models() {
        let (cold, snapshot) = capture(&model.flat, &config());
        // Round-trip through text: exactly what the cache tier stores.
        let snapshot: SynthSnapshot = snapshot
            .to_string()
            .parse()
            .unwrap_or_else(|e| panic!("{}: snapshot text must reparse: {e}", model.name));
        let resumed = offer(&model.flat, &config(), &snapshot);
        assert_eq!(resumed.mode, RunMode::ResumedExtraction, "{}", model.name);

        assert_eq!(
            programs(&resumed),
            programs(&cold),
            "{}: resumed top-k must be byte-identical",
            model.name
        );
        assert_rows_identical(&resumed, &cold, model.name);
        assert_eq!(resumed.iterations, 0, "{}: no re-saturation", model.name);
        assert!(
            resumed.iterations < cold.iterations,
            "{}: resumed must spend strictly fewer iterations (cold spent {})",
            model.name,
            cold.iterations
        );
        assert_eq!(resumed.egraph_nodes, cold.egraph_nodes, "{}", model.name);
        assert_eq!(
            resumed.egraph_classes, cold.egraph_classes,
            "{}",
            model.name
        );
    }
}

#[test]
fn suite16_cost_only_change_reuses_snapshots() {
    // Snapshot under the default cost, resume under RewardLoops: every
    // model must accept the snapshot (100% tier compatibility) and match
    // a cold RewardLoops run program-for-program.
    for model in sz_models::all_models().into_iter().take(4) {
        let (_, snapshot) = capture(&model.flat, &config());
        let reward = config()
            .with_cost_model(Arc::new(RewardLoopsCost))
            .with_k(3);
        let resumed = offer(&model.flat, &reward, &snapshot);
        assert_eq!(
            resumed.mode,
            RunMode::ResumedExtraction,
            "{}: cost-only change must resume",
            model.name
        );
        assert_eq!(resumed.iterations, 0);
        let cold = Synthesizer::new(reward)
            .run(&model.flat, RunOptions::new())
            .unwrap();
        assert_eq!(
            programs(&resumed),
            programs(&cold),
            "{}: resumed extraction under the new cost must equal cold",
            model.name
        );
    }
}

#[test]
fn suite16_rule_set_change_invalidates_snapshots() {
    // A saturation-affecting change never reuses the final graph: a
    // rule-set or tolerance change runs cold, and a raised iteration
    // limit continues saturating from the snapshot's saturation phase.
    for model in sz_models::all_models().into_iter().take(4) {
        let (_, snapshot) = capture(&model.flat, &config());
        for (changed, mode) in [
            (config().with_structural_rules(true), RunMode::Cold),
            (config().with_eps(1e-2), RunMode::Cold),
            (config().with_iter_limit(61), RunMode::ResumedSaturation),
        ] {
            let result = offer(&model.flat, &changed, &snapshot);
            assert_eq!(result.mode, mode, "{}: {changed:?}", model.name);
            assert_ne!(result.mode, RunMode::ResumedExtraction);
        }
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_flat_cad_resumed_equals_cold(input in arb_flat_cad()) {
        let config = SynthConfig::new()
            .with_iter_limit(12)
            .with_node_limit(20_000);
        let (cold, snapshot) = capture(&input, &config);
        let snapshot: SynthSnapshot = snapshot.to_string().parse().unwrap();
        let resumed = offer(&input, &config, &snapshot);
        prop_assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        prop_assert_eq!(programs(&resumed), programs(&cold));
        prop_assert_eq!(resumed.iterations, 0);
        prop_assert!(cold.iterations > 0);
        prop_assert_eq!(resumed.egraph_nodes, cold.egraph_nodes);
        prop_assert_eq!(resumed.egraph_classes, cold.egraph_classes);
    }
}
