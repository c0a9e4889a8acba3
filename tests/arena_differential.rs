//! Arena-storage differential: pins the flat, id-indexed e-graph core
//! (node arena + dense memo + slot-indexed classes) to the observable
//! behavior the rest of the stack depends on, over proptest-generated
//! CAD workloads (the same generator shape as `tests/ematch_differential.rs`).
//!
//! Three contracts, each of which the arena refactor could silently
//! break while all unit tests still pass:
//!
//! 1. **Hash-cons coverage** — after `rebuild`, looking up the
//!    canonicalized form of any node stored in any class must return
//!    exactly that class; class node lists are value-sorted, deduped,
//!    and live in canonical slots.
//! 2. **Determinism** — the same workload replayed from scratch yields
//!    a byte-identical `szsnap` serialization (arena interning order,
//!    class iteration order, and rebuild scheduling are all
//!    deterministic).
//! 3. **Id stability** — snapshot → restore → snapshot is
//!    byte-identical with **zero format-version bump**: `NodeId`s are
//!    per-instance derived state and never leak into the text format.
//!
//! A fourth test pins the arena's exact counts (adds, probes, unions,
//! nodes, classes, arena and memo sizes) on a fixed Arith workload.
//!
//! The suite runs in tier-1 and in CI's `egraph-core` job; the
//! VM-vs-naive e-matching differentials run in tier-1 and the
//! `ematch-differential` job.

use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::tests_lang::Arith;
use sz_egraph::{
    AstSize, EGraph, Extractor, Id, KBestExtractor, Language, Runner, Snapshot,
    SNAPSHOT_FORMAT_VERSION,
};
use szalinski::{all_rules, cad_to_lang, CadAnalysis, CadGraph, CadLang};

/// A strategy for random flat CSG terms of bounded size — the same
/// shape `tests/ematch_differential.rs` uses.
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

/// Saturates `cad` for `iters` iterations and returns runner state.
fn saturated(cad: &Cad, iters: usize) -> Runner<CadLang, CadAnalysis> {
    Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(cad))
        .with_iter_limit(iters)
        .with_node_limit(10_000)
        .run(&all_rules())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hashcons_coverage_after_rebuild(
        cad in arb_flat_cad(),
        iters in 0usize..4,
    ) {
        let eg: CadGraph = saturated(&cad, iters).egraph;
        let mut total = 0usize;
        let mut last_id = None;
        for class in eg.classes() {
            // Classes iterate in ascending canonical-slot order.
            prop_assert_eq!(eg.find(class.id), class.id, "class id not canonical");
            if let Some(prev) = last_id {
                prop_assert!(prev < class.id, "classes() out of order");
            }
            last_id = Some(class.id);
            let nodes: Vec<CadLang> = eg.nodes_of(class).cloned().collect();
            total += nodes.len();
            for w in nodes.windows(2) {
                prop_assert!(w[0] < w[1], "class nodes not sorted/deduped");
            }
            for node in nodes {
                // The canonicalized form of every stored node must
                // hash-cons back to exactly this class.
                let mut canon = node.clone();
                canon.update_children(|c| eg.find(c));
                prop_assert_eq!(
                    eg.lookup(canon).map(|id| eg.find(id)),
                    Some(class.id),
                    "memo lost a node of class {}", class.id
                );
            }
        }
        prop_assert_eq!(total, eg.total_number_of_nodes());
        // The arena interns each distinct node once; every class node is
        // a distinct canonical form, so the arena is at least that big.
        prop_assert!(eg.arena_size() >= total);
        prop_assert_eq!(eg.memo_size(), eg.arena_size());
    }

    #[test]
    fn replayed_workload_snapshots_byte_identical(
        cad in arb_flat_cad(),
        iters in 0usize..3,
    ) {
        let a = saturated(&cad, iters);
        let b = saturated(&cad, iters);
        let snap_a = Snapshot::of_egraph(&a.egraph, &a.roots).unwrap().to_string();
        let snap_b = Snapshot::of_egraph(&b.egraph, &b.roots).unwrap().to_string();
        prop_assert_eq!(snap_a, snap_b, "arena storage is not deterministic");
    }

    #[test]
    fn restore_roundtrip_is_byte_identical_with_no_version_bump(
        cad in arb_flat_cad(),
        iters in 0usize..3,
    ) {
        let runner = saturated(&cad, iters);
        let snapshot = Snapshot::of_egraph(&runner.egraph, &runner.roots).unwrap();
        let text = snapshot.to_string();
        prop_assert!(
            text.starts_with("szsnap v1\n"),
            "arena refactor must not bump the snapshot format (v{})",
            SNAPSHOT_FORMAT_VERSION
        );
        // Restoring re-interns every node into a fresh arena; the stable
        // ids it serializes back out must be unchanged.
        let restored: CadGraph = snapshot.restore(CadAnalysis);
        let roots: Vec<_> = runner.roots.iter().map(|&r| restored.find(r)).collect();
        let again = Snapshot::of_egraph(&restored, &roots).unwrap().to_string();
        prop_assert_eq!(again, text, "snapshot roundtrip drifted");
        // The operator index, built on first use after a restore, lists
        // the same classes under every operator as the saturated graph's.
        prop_assert_eq!(restored.number_of_ops(), runner.egraph.number_of_ops());
        for class in runner.egraph.classes() {
            for node in runner.egraph.nodes_of(class) {
                prop_assert_eq!(
                    restored.classes_with_op(node),
                    runner.egraph.classes_with_op(node),
                    "op index of {}",
                    node.op_name()
                );
            }
        }
    }

    #[test]
    fn dense_extraction_tables_agree(
        cad in arb_flat_cad(),
        iters in 0usize..3,
    ) {
        // The k-best enumeration starts from the 1-best dirty-worklist
        // table over the same arena; its head must be that table's
        // optimum, and its list must come out sorted.
        let runner = saturated(&cad, iters);
        let eg = &runner.egraph;
        let ex = Extractor::new(eg, AstSize);
        let kb = KBestExtractor::new(eg, AstSize, 3);
        let root = eg.find(runner.roots[0]);
        let best = ex.best_cost(root);
        let k = kb.find_best_k(root);
        prop_assert_eq!(best, k.first().map(|(c, _)| *c));
        for w in k.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "k-best front not sorted");
        }
    }
}

/// The arena's exact counts on a fixed Arith workload: a balanced
/// `+`-tree over 8 192 distinct leaves, memo probes of every leaf, a
/// union wave that makes every `+` over mirrored leaves congruent (a
/// cascade up the tree), the rebuild that repairs it, and one sparse
/// leaf union. The workload is deterministic, so any drift in these
/// numbers is an interning, memo or rebuild bug.
#[test]
fn arith_tree_workload_counts_are_exact() {
    const N_LEAVES: usize = 1 << 13;
    const PROBE_SWEEPS: usize = 8;
    let mut eg: EGraph<Arith, ()> = EGraph::default();

    // Hash-consed adds: every leaf and every inner `+` is a new node.
    let leaves: Vec<Id> = (0..N_LEAVES)
        .map(|i| eg.add(Arith::Num(i as i64)))
        .collect();
    let mut adds = leaves.len();
    let mut layer = leaves.clone();
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|pair| match *pair {
                [a, b] => {
                    adds += 1;
                    eg.add(Arith::Add([a, b]))
                }
                [a] => a,
                _ => unreachable!(),
            })
            .collect();
    }
    eg.rebuild();
    assert_eq!(adds, 16_383);
    assert_eq!(eg.total_number_of_nodes(), 16_383, "peak nodes");

    // Memo probes: every leaf is found.
    let mut probes = 0usize;
    let mut found = 0usize;
    for _ in 0..PROBE_SWEEPS {
        for i in 0..N_LEAVES {
            probes += 1;
            found += usize::from(eg.lookup(Arith::Num(i as i64)).is_some());
        }
    }
    assert_eq!((probes, found), (65_536, 65_536));

    // The union wave: leaf i with leaf i + n/2.
    let half = N_LEAVES / 2;
    let unions = (0..half)
        .filter(|&i| eg.union(leaves[i], leaves[i + half]).1)
        .count();
    assert_eq!(unions, 4_096);
    eg.rebuild();
    assert_eq!(eg.number_of_classes(), 8_192);
    assert_eq!(eg.arena_size(), 16_384);
    assert_eq!(eg.memo_size(), 16_384);

    // One fresh leaf unioned into leaf 0 leaves the class count as is.
    let fresh = eg.add(Arith::Num(N_LEAVES as i64));
    eg.union(leaves[0], fresh);
    eg.rebuild();
    assert_eq!(
        eg.number_of_classes(),
        8_192,
        "classes after the sparse union"
    );
}
