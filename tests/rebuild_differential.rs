//! The dirty-class rebuild against a from-scratch recomputation.
//!
//! `EGraph::rebuild` canonicalizes only the classes touched since the
//! previous rebuild, re-canonicalizes only the operator-index lists a
//! union made stale, and keeps the node count as a running sum. After
//! every rebuild this suite recomputes, through the public API alone,
//! what a whole-graph pass would establish, and requires the graph to
//! agree:
//!
//! - every class's nodes are value-sorted, deduplicated and have
//!   canonical children;
//! - `classes_with_op` lists exactly the classes a scan finds for every
//!   node's operator, and `number_of_ops` counts the scanned operators;
//! - `total_number_of_nodes` and `number_of_classes` equal the scan;
//! - every node's `lookup` returns its class.
//!
//! Saturation runs one iteration at a time through `Rewrite::search`,
//! `Rewrite::apply` and `EGraph::rebuild`, over proptest flat CADs,
//! suite16 at the quick config and the first 100 seed-42 corpus models.
//! Each model's saturated graph then goes through `list_manipulation`,
//! `infer_functions_with` and `infer_loops_with`, each followed by a
//! rebuild; and a snapshot taken halfway through saturation is restored
//! and saturated further.
//!
//! In the CAD runs nearly every union absorbs the class a right-hand side
//! just added, which reaches the dirty list through `add`. Two arithmetic
//! workloads union classes that already existed: commutativity and
//! associativity saturation, and random batches of unions and adds over
//! existing classes. Only they fail when congruence repair or a union
//! stops marking the classes it changed.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::tests_lang::Arith;
use sz_egraph::{Analysis, EGraph, Id, Language, Rewrite, Snapshot};
use sz_gen::{generate_model, GenSpec};
use szalinski::{
    cad_to_lang, infer_functions_with, infer_loops_with, list_manipulation, rules, CadAnalysis,
    CadGraph, CadRewrite, PassControl, SynthConfig,
};

/// Asserts every invariant a whole-graph rebuild pass would establish.
fn check<L: Language, N: Analysis<L>>(egraph: &EGraph<L, N>, what: &str) {
    assert!(egraph.is_clean(), "{what}: not clean after rebuild");
    let mut by_op: BTreeMap<L, Vec<Id>> = BTreeMap::new();
    let (mut classes, mut nodes) = (0, 0);
    for class in egraph.classes() {
        classes += 1;
        let list: Vec<&L> = egraph.nodes_of(class).collect();
        nodes += list.len();
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "{what}: class {} is not value-sorted and deduplicated: {list:?}",
            class.id
        );
        for node in list {
            assert!(
                node.children().iter().all(|&c| egraph.find(c) == c),
                "{what}: class {} lists {node:?} with a non-canonical child",
                class.id
            );
            assert_eq!(
                egraph.lookup(node.clone()),
                Some(class.id),
                "{what}: lookup of {node:?}"
            );
            // Classes come in ascending id order, so each list is sorted.
            let ids = by_op
                .entry(node.map_children(|_| Id::from(0usize)))
                .or_default();
            if ids.last() != Some(&class.id) {
                ids.push(class.id);
            }
        }
    }
    assert_eq!(egraph.number_of_classes(), classes, "{what}: class count");
    assert_eq!(egraph.total_number_of_nodes(), nodes, "{what}: node count");
    assert_eq!(
        egraph.number_of_ops(),
        by_op.len(),
        "{what}: operator count"
    );
    for (op, ids) in &by_op {
        assert_eq!(
            egraph.classes_with_op(op),
            ids.as_slice(),
            "{what}: op index for {op:?}"
        );
    }
}

/// Saturates at most `iters` iterations, checking after every rebuild;
/// stops early when an iteration changes nothing or the graph passes
/// `node_limit`.
fn saturate<L: Language, N: Analysis<L>>(
    egraph: &mut EGraph<L, N>,
    rules: &[Rewrite<L, N>],
    iters: usize,
    node_limit: usize,
    what: &str,
) {
    for i in 0..iters {
        let matches: Vec<_> = rules.iter().map(|rule| rule.search(egraph)).collect();
        let mut changed = false;
        for (rule, matches) in rules.iter().zip(&matches) {
            changed |= !rule.apply(egraph, matches).is_empty();
        }
        let unions = egraph.rebuild();
        check(egraph, &format!("{what}, iteration {i}"));
        if (!changed && unions == 0) || egraph.total_number_of_nodes() > node_limit {
            break;
        }
    }
}

/// Saturates `input` under `config`'s limits, restoring a snapshot taken
/// halfway and saturating it further, then runs the inference passes on
/// the saturated graph.
fn run_model(input: &Cad, rules: &[CadRewrite], config: &SynthConfig, what: &str) {
    let mut egraph = CadGraph::new(CadAnalysis);
    let root = egraph.add_expr(&cad_to_lang(input));
    egraph.rebuild();
    check(&egraph, &format!("{what}, input"));
    let half = config.iter_limit / 2;
    saturate(&mut egraph, rules, half, config.node_limit, what);

    let snapshot = Snapshot::of_egraph(&egraph, &[root]).expect("clean graph");
    let mut restored: CadGraph = snapshot.restore(CadAnalysis);
    restored.rebuild();
    let resumed = format!("{what}, restored");
    check(&restored, &resumed);
    let rest = config.iter_limit - half;
    saturate(&mut restored, rules, rest, config.node_limit, &resumed);
    saturate(&mut egraph, rules, rest, config.node_limit, what);

    let ctl = PassControl::new();
    list_manipulation(&mut egraph);
    egraph.rebuild();
    check(&egraph, &format!("{what}, list manipulation"));
    infer_functions_with(&mut egraph, config.eps, &ctl);
    egraph.rebuild();
    check(&egraph, &format!("{what}, function inference"));
    infer_loops_with(&mut egraph, config.eps, &ctl);
    egraph.rebuild();
    check(&egraph, &format!("{what}, loop inference"));
}

#[test]
fn suite16_rebuilds_match_a_full_recomputation() {
    let config = SynthConfig::new()
        .with_iter_limit(12)
        .with_node_limit(20_000);
    let rules = rules();
    for model in sz_models::all_models() {
        run_model(&model.flat, &rules, &config, model.name);
    }
}

#[test]
fn generated_corpus_rebuilds_match_a_full_recomputation() {
    let config = SynthConfig::new();
    let rules = rules();
    let spec: GenSpec = "count=100,seed=42,noise=0.0005".parse().unwrap();
    for index in 0..spec.count {
        let name = sz_gen::model_name(spec.seed, index);
        run_model(&generate_model(&spec, index), &rules, &config, &name);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_cad_rebuilds_match_a_full_recomputation(
        input in arb_flat_cad(),
        iters in 2usize..10,
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
        let config = SynthConfig::new().with_iter_limit(iters).with_node_limit(20_000);
        run_model(&input, &rule_set, &config, &input.to_string());
    }
}

/// Random arithmetic terms over three variables and small constants.
fn arb_arith() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x".to_owned()),
        Just("y".to_owned()),
        Just("z".to_owned()),
        (0i64..3).prop_map(|n| n.to_string()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (prop_oneof![Just("+"), Just("*")], inner.clone(), inner)
            .prop_map(|(op, a, b)| format!("({op} {a} {b})"))
    })
}

/// One mutation between rebuilds: union two existing classes, or add a
/// node over two of them (picked by index into the live classes).
#[derive(Debug, Clone, Copy)]
enum Edit {
    Union(usize, usize),
    Add(usize, usize),
    Mul(usize, usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (0usize..1 << 16, 0usize..1 << 16).prop_map(|(a, b)| Edit::Union(a, b)),
        (0usize..1 << 16, 0usize..1 << 16).prop_map(|(a, b)| Edit::Add(a, b)),
        (0usize..1 << 16, 0usize..1 << 16).prop_map(|(a, b)| Edit::Mul(a, b)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arith_saturation_rebuilds_match_a_full_recomputation(
        exprs in prop::collection::vec(arb_arith(), 1..4),
        iters in 1usize..6,
    ) {
        let rules: Vec<Rewrite<Arith, ()>> = vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
            Rewrite::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
            Rewrite::parse("mul1", "(* ?a 1)", "?a").unwrap(),
        ];
        let mut egraph: EGraph<Arith, ()> = EGraph::default();
        for expr in &exprs {
            egraph.add_expr(&expr.parse().unwrap());
        }
        egraph.rebuild();
        check(&egraph, "input");
        saturate(&mut egraph, &rules, iters, 5_000, &exprs.join(" "));
    }

    #[test]
    fn random_edits_rebuild_like_a_full_recomputation(
        exprs in prop::collection::vec(arb_arith(), 1..4),
        edits in prop::collection::vec(arb_edit(), 1..48),
        batch in 1usize..8,
    ) {
        let mut egraph: EGraph<Arith, ()> = EGraph::default();
        for expr in &exprs {
            egraph.add_expr(&expr.parse().unwrap());
        }
        egraph.rebuild();
        check(&egraph, "input");
        for (step, edits) in edits.chunks(batch).enumerate() {
            for &edit in edits {
                let ids = egraph.class_ids();
                let pick = |i: usize| ids[i % ids.len()];
                match edit {
                    Edit::Union(a, b) => {
                        egraph.union(pick(a), pick(b));
                    }
                    Edit::Add(a, b) => {
                        egraph.add(Arith::Add([pick(a), pick(b)]));
                    }
                    Edit::Mul(a, b) => {
                        egraph.add(Arith::Mul([pick(a), pick(b)]));
                    }
                }
            }
            egraph.rebuild();
            check(&egraph, &format!("{exprs:?}, batch {step}: {edits:?}"));
        }
    }
}
