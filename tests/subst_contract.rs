//! The inline `Subst` against the `Vec`-backed one it replaced.
//!
//! `Subst` keeps up to four bindings inline and spills to the heap above
//! that; the oracle (`crates/egraph/tests/support/vec_subst.rs`) is the
//! old single-`Vec` type. Over insert sequences of 0 to 7 variables with
//! re-binds, both must return the same `insert` results, `get`, `len` and
//! `iter` order; order and compare pairs alike (compiled search sorts and
//! dedups matches by that order, and it fixes the apply order, hence the
//! union order); print the same `Debug` text; and panic with the same
//! message when indexed by an unbound variable.

#[path = "../crates/egraph/tests/support/vec_subst.rs"]
mod vec_subst;

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use sz_egraph::{Id, Subst, Var};

/// Bindings `Subst` stores inline.
const INLINE: usize = 4;
/// Distinct variables a sequence may bind: three past the inline count.
const MAX_VARS: usize = INLINE + 3;
/// Nodes `Pattern::instantiate` keeps inline.
const INLINE_NODES: usize = 8;

/// One insert sequence: `(variable index, id)` pairs.
type Seq = Vec<(usize, usize)>;

/// `MAX_VARS` bindable variables plus one that no sequence binds.
fn vars() -> Vec<Var> {
    (0..=MAX_VARS)
        .map(|i| Var::from_name(&format!("v{i}")))
        .collect()
}

/// Sequences over the first `n` variables (`n` in `0..=MAX_VARS`), with
/// re-binds, and ids from a small range so that pairs often tie.
fn insert_seq() -> impl Strategy<Value = Seq> {
    (
        0usize..=MAX_VARS,
        prop::collection::vec((0usize..64, 0usize..4), 0..3 * MAX_VARS),
    )
        .prop_map(|(n, raw)| {
            if n == 0 {
                Vec::new()
            } else {
                raw.into_iter().map(|(v, id)| (v % n, id)).collect()
            }
        })
}

/// Both substitutions built from one sequence, with every `insert`
/// return value compared on the way.
fn build(vars: &[Var], seq: &[(usize, usize)], capacity: usize) -> (Subst, vec_subst::Subst) {
    let mut inline = Subst::with_capacity(capacity);
    let mut oracle = vec_subst::Subst::with_capacity(capacity);
    for &(v, id) in seq {
        let (var, id) = (vars[v], Id::from(id));
        assert_eq!(
            inline.insert(var, id),
            oracle.insert(var, id),
            "insert {var} = {id} in {seq:?}"
        );
    }
    (inline, oracle)
}

/// Every read and the `Debug` text agree, also on a clone.
fn assert_same_reads(vars: &[Var], inline: &Subst, oracle: &vec_subst::Subst) {
    assert_eq!(inline.len(), oracle.len());
    assert_eq!(inline.is_empty(), oracle.is_empty());
    assert_eq!(
        inline.iter().collect::<Vec<_>>(),
        oracle.iter().collect::<Vec<_>>()
    );
    for &var in vars {
        assert_eq!(inline.get(var), oracle.get(var), "get {var}");
        if let Some(id) = oracle.get(var) {
            assert_eq!(inline[var], id);
        }
    }
    assert_eq!(format!("{inline:?}"), format!("{oracle:?}"));
    assert_eq!(format!("{inline:#?}"), format!("{oracle:#?}"));
    let copy = inline.clone();
    assert!(copy == *inline);
    assert_eq!(format!("{copy:?}"), format!("{oracle:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn inline_subst_matches_the_vec_oracle(
        a in insert_seq(),
        b in insert_seq(),
        cut in 0usize..3 * MAX_VARS,
        capacity in 0usize..2 * MAX_VARS,
    ) {
        let vars = vars();
        // A prefix of `a` shares its leading bindings, so prefix orders
        // and ties come up often.
        let built = [
            build(&vars, &a, capacity),
            build(&vars, &b, 0),
            build(&vars, &a[..cut.min(a.len())], capacity),
            build(&vars, &[], 0),
        ];
        for (inline, oracle) in &built {
            assert_same_reads(&vars, inline, oracle);
        }
        for (i1, o1) in &built {
            for (i2, o2) in &built {
                prop_assert_eq!(i1.cmp(i2), o1.cmp(o2));
                prop_assert_eq!(i1.partial_cmp(i2), o1.partial_cmp(o2));
                prop_assert_eq!(i1 == i2, o1 == o2);
            }
        }
        // Sorting and deduplicating a match list keeps the same matches
        // in the same order.
        let mut inline: Vec<Subst> = built.iter().map(|(i, _)| i.clone()).collect();
        let mut oracle: Vec<vec_subst::Subst> = built.iter().map(|(_, o)| o.clone()).collect();
        inline.sort_unstable();
        inline.dedup();
        oracle.sort_unstable();
        oracle.dedup();
        prop_assert_eq!(format!("{inline:?}"), format!("{oracle:?}"));
    }
}

#[test]
fn unbound_index_panics_with_the_same_message() {
    let vars = vars();
    let unbound = vars[MAX_VARS];
    for n in 0..=MAX_VARS {
        let seq: Seq = (0..n).map(|v| (v, v)).collect();
        let (inline, oracle) = build(&vars, &seq, 0);
        let inline = catch_unwind(AssertUnwindSafe(|| inline[unbound])).unwrap_err();
        let oracle = catch_unwind(AssertUnwindSafe(|| oracle[unbound])).unwrap_err();
        let inline = inline.downcast_ref::<String>().expect("formatted message");
        assert_eq!(Some(inline), oracle.downcast_ref::<String>(), "{n} bound");
        assert_eq!(inline, "variable ?v7 not bound in substitution");
    }
}

#[test]
fn every_built_in_rule_fits_the_inline_buffers() {
    for rule in szalinski::all_rules() {
        let vars = rule.searcher().vars().len();
        assert!(vars <= INLINE, "{} binds {vars} variables", rule.name());
        if let Some(rhs) = rule.rhs_pattern() {
            let nodes = rhs.ast().len();
            assert!(
                nodes <= INLINE_NODES,
                "{} builds {nodes} nodes",
                rule.name()
            );
        }
    }
}
