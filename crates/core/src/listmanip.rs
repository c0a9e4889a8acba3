//! List manipulation (paper §4.3, Figs. 11–12): inside `Fold`s of
//! commutative operators, add a lexicographically sorted variant of the
//! element list so the function solvers see monotone sequences.

use sz_cad::BoolOp;
use sz_egraph::Id;

use crate::analysis::CadGraph;
use crate::lists::{add_cons_list, FoldSite, SiteTable};
use crate::CadLang;

/// For every `Fold(op, init, l)` with commutative `op`: determinize `l`,
/// sort its elements by the vectors of their affine chains, and when the
/// order changes add `Fold(op, init, sorted_l)` to the fold's class (the
/// sorted list itself is a *new* class — element order is part of list
/// identity; only the folded results are equal).
///
/// Returns the number of sorted variants added. Call
/// [`CadGraph::rebuild`] afterwards.
pub fn list_manipulation(egraph: &mut CadGraph) -> usize {
    list_manipulation_in(egraph, &mut SiteTable::default())
}

/// [`list_manipulation`] over `table`'s sites and lists, sorting by each
/// list's first determinization; appends the sorted folds to `table`.
pub(crate) fn list_manipulation_in(egraph: &mut CadGraph, table: &mut SiteTable) -> usize {
    let mut added = 0;
    for site in table.start_pass(egraph) {
        if site.op == BoolOp::Diff {
            continue; // difference does not commute; sorting is unsound
        }
        let Some((elements, dets)) = table.read(egraph, site.list, 2) else {
            continue;
        };
        let Some(det) = dets.first().filter(|d| !d.signature.is_empty()) else {
            continue;
        };
        // Each key is built once; the sort is stable, as `sort_by_key`'s.
        let mut order: Vec<usize> = (0..elements.len()).collect();
        order.sort_by_cached_key(|&i| det.chains[i].sort_key());
        if order.windows(2).all(|w| w[0] < w[1]) {
            continue; // already sorted
        }
        let sorted: Vec<Id> = order.iter().map(|&i| elements[i]).collect();
        let list = add_cons_list(egraph, &sorted);
        let op = egraph.add(CadLang::fold_op(site.op));
        if table.union_new(egraph, site.class, CadLang::Fold([op, site.init, list])) {
            table.push_site(FoldSite { list, ..site });
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::determinize::{determinize, ChainCache};
    use crate::funcinfer::{infer_functions_with, PassControl};
    use crate::lang_to_cad;
    use crate::lists::{fold_sites, read_list};
    use sz_egraph::{AstSize, Extractor, RecExpr};

    fn graph(s: &str) -> (CadGraph, Id) {
        let mut eg = CadGraph::default();
        let expr: RecExpr<CadLang> = s.parse().unwrap();
        let id = eg.add_expr(&expr);
        eg.rebuild();
        (eg, id)
    }

    #[test]
    fn sorts_shuffled_list() {
        // 4, 2, 8, 6 — unsorted, so no linear fit; after sorting 2,4,6,8
        // function inference finds 2(i+1).
        let (mut eg, root) = graph(
            "(Fold UnionOp Empty \
              (Cons (Translate (Vec3 4 0 0) Unit) \
              (Cons (Translate (Vec3 2 0 0) Unit) \
              (Cons (Translate (Vec3 8 0 0) Unit) \
              (Cons (Translate (Vec3 6 0 0) Unit) Nil)))))",
        );
        let added = list_manipulation(&mut eg);
        assert_eq!(added, 1);
        eg.rebuild();
        infer_functions_with(&mut eg, 1e-3, &PassControl::new());
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(root);
        let out = lang_to_cad(&best).unwrap().to_string();
        assert!(out.contains("(Translate (* 2 (+ i 1)) 0 0 c)"), "got {out}");
    }

    #[test]
    fn sorted_list_is_left_alone() {
        let (mut eg, _) = graph(
            "(Fold UnionOp Empty \
              (Cons (Translate (Vec3 2 0 0) Unit) \
              (Cons (Translate (Vec3 4 0 0) Unit) Nil)))",
        );
        assert_eq!(list_manipulation(&mut eg), 0);
    }

    #[test]
    fn diff_folds_are_not_sorted() {
        let (mut eg, _) = graph(
            "(Fold DiffOp Empty \
              (Cons (Translate (Vec3 4 0 0) Unit) \
              (Cons (Translate (Vec3 2 0 0) Unit) Nil)))",
        );
        assert_eq!(list_manipulation(&mut eg), 0);
    }

    /// `list_manipulation` without the site table: every site reads and
    /// determinizes its list from scratch.
    fn list_manipulation_fresh(egraph: &mut CadGraph) -> usize {
        let mut added = 0;
        for site in fold_sites(egraph) {
            if site.op == BoolOp::Diff {
                continue;
            }
            let Some(elements) = read_list(egraph, site.list) else {
                continue;
            };
            if elements.len() < 2 {
                continue;
            }
            let dets = determinize(egraph, &elements, &mut ChainCache::default());
            let Some(det) = dets.first() else {
                continue;
            };
            if det.signature.is_empty() {
                continue;
            }
            let mut order: Vec<usize> = (0..elements.len()).collect();
            order.sort_by_key(|&i| det.chains[i].sort_key());
            if order.windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            let sorted: Vec<Id> = order.iter().map(|&i| elements[i]).collect();
            let new_list = add_cons_list(egraph, &sorted);
            let op = egraph.add(CadLang::fold_op(site.op));
            let new_fold = egraph.add(CadLang::Fold([op, site.init, new_list]));
            if egraph.union(site.class, new_fold).1 {
                added += 1;
            }
        }
        added
    }

    #[test]
    fn chains_are_reread_after_a_union_merges_an_element() {
        // F1 folds an unsorted list; its sorted variant S already exists
        // and shares a class with T = (Translate 9 0 0 Sphere). Two folds
        // over the list [F1, X]: one (A) runs before F1's site and caches
        // F1's chains — only the trivial one, so A is skipped — and one
        // (C) runs after F1's site has merged F1 with S and T. C must see
        // F1's new Translate chain, sort [F1, X] by it and add a variant.
        let f1_list =
            "(Cons (Translate (Vec3 4 0 0) Unit) (Cons (Translate (Vec3 2 0 0) Unit) Nil))";
        let f1 = format!("(Fold UnionOp Empty {f1_list})");
        let pair = format!("(Cons {f1} (Cons (Translate (Vec3 1 0 0) Sphere) Nil))");
        let mut eg = CadGraph::default();
        let add = |eg: &mut CadGraph, s: &str| eg.add_expr(&s.parse().unwrap());
        // Sites run in class-id order; A takes this class's low id below.
        let placeholder = add(&mut eg, "(Scale (Vec3 5 5 5) Cylinder)");
        let t = add(&mut eg, "(Translate (Vec3 9 0 0) Sphere)");
        let s = add(
            &mut eg,
            "(Fold UnionOp Empty (Cons (Translate (Vec3 2 0 0) Unit) (Cons (Translate (Vec3 4 0 0) Unit) Nil)))",
        );
        eg.union(s, t);
        let f1 = add(&mut eg, &f1);
        let a = add(&mut eg, &format!("(Fold UnionOp Empty {pair})"));
        let c = add(&mut eg, &format!("(Fold InterOp Empty {pair})"));
        eg.union(placeholder, a);
        eg.rebuild();
        let order: Vec<Id> = fold_sites(&eg).iter().map(|site| site.class).collect();
        let (a, f1, c) = (eg.find(a), eg.find(f1), eg.find(c));
        let pos = |id: Id| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(a) < pos(f1) && pos(f1) < pos(c), "site order {order:?}");

        let mut fresh = eg.clone();
        assert_eq!(list_manipulation_fresh(&mut fresh), 2);
        assert_eq!(
            list_manipulation(&mut eg),
            2,
            "C must see F1's merged chains"
        );
        for g in [&mut eg, &mut fresh] {
            g.rebuild();
        }
        assert_eq!(eg.total_number_of_nodes(), fresh.total_number_of_nodes());
        assert_eq!(eg.number_of_classes(), fresh.number_of_classes());
        let folds = |g: &CadGraph, id: Id| {
            g.class_nodes(id)
                .filter(|n| matches!(n, CadLang::Fold(_)))
                .count()
        };
        assert_eq!(folds(&eg, c), 2, "C gained its sorted variant");
        assert_eq!(folds(&eg, a), folds(&fresh, a));
    }

    #[test]
    fn idempotent_after_first_run() {
        let (mut eg, _) = graph(
            "(Fold UnionOp Empty \
              (Cons (Translate (Vec3 4 0 0) Unit) \
              (Cons (Translate (Vec3 2 0 0) Unit) Nil)))",
        );
        assert_eq!(list_manipulation(&mut eg), 1);
        eg.rebuild();
        assert_eq!(list_manipulation(&mut eg), 0);
    }
}
