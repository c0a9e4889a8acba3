//! Nested loop inference (paper §5): m-factorization and m-index-sets for
//! regular grids, plus the grouping fallback for irregular loops.

use std::collections::HashSet;

use sz_cad::{AffineKind, BoolOp, Expr};
use sz_egraph::Id;
use sz_solver::{fit_sequence, FittedFn};

use crate::analysis::CadGraph;
use crate::funcinfer::{add_affine_exprs, fitted_expr, InferenceRecord, LoopShape, PassControl};
use crate::lists::{add_num, SiteTable};
use crate::CadLang;

/// Returns every ordered `m`-tuple of factors of `n`, all factors ≥ 2
/// (the paper's m-factorization with trivial factors removed).
///
/// # Examples
///
/// ```
/// use szalinski::factorizations;
/// assert_eq!(factorizations(4, 2), vec![vec![2, 2]]);
/// assert_eq!(factorizations(6, 2), vec![vec![2, 3], vec![3, 2]]);
/// assert!(factorizations(7, 2).is_empty());
/// ```
pub fn factorizations(n: usize, m: usize) -> Vec<Vec<usize>> {
    fn go(n: usize, m: usize, acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if m == 1 {
            if n >= 2 {
                acc.push(n);
                out.push(acc.clone());
                acc.pop();
            }
            return;
        }
        for f in 2..=n / 2 {
            if n.is_multiple_of(f) {
                acc.push(f);
                go(n / f, m - 1, acc, out);
                acc.pop();
            }
        }
    }
    let mut out = Vec::new();
    go(n, m, &mut Vec::new(), &mut out);
    out
}

/// Computes the m-index-set (paper Fig. 13): for bounds `[f1, .., fm]`,
/// the list of index tuples in row-major order, as one vector per index
/// position. For `[2, 2]` this is `[[0,0,1,1], [0,1,0,1]]`.
pub fn index_sets(factors: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = factors.iter().product();
    let mut sets = vec![vec![0usize; total]; factors.len()];
    // Each position (from the right) holds digit `(flat / stride) % f`,
    // where `stride` is the product of the factors to its right.
    let mut stride = 1usize;
    for (set, &f) in sets.iter_mut().zip(factors.iter()).rev() {
        for (flat, slot) in set.iter_mut().enumerate() {
            *slot = (flat / stride) % f;
        }
        stride *= f;
    }
    sets
}

/// How one vector component relates to the loop indices.
enum CompForm {
    Const(f64),
    DependsOn(usize, FittedFn),
}

/// Finds, for one component's value list, either a constant or a single
/// index it depends on (with a fitted closed form over that index).
fn component_form(
    values: &[f64],
    sets: &[Vec<usize>],
    factors: &[usize],
    eps: f64,
) -> Option<CompForm> {
    let spread = values.iter().cloned().fold(f64::MIN, f64::max)
        - values.iter().cloned().fold(f64::MAX, f64::min);
    if spread <= 2.0 * eps {
        return Some(CompForm::Const(sz_solver::snap(
            values.iter().sum::<f64>() / values.len() as f64,
            2.0 * eps,
        )));
    }
    for (d, idx) in sets.iter().enumerate() {
        // Functional in index d: equal index value ⟹ equal component.
        let mut reps: Vec<Option<f64>> = vec![None; factors[d]];
        let mut functional = true;
        for (pos, &iv) in idx.iter().enumerate() {
            match reps[iv] {
                None => reps[iv] = Some(values[pos]),
                Some(r) => {
                    if (r - values[pos]).abs() > 2.0 * eps {
                        functional = false;
                        break;
                    }
                }
            }
        }
        if !functional {
            continue;
        }
        let seq: Vec<f64> = reps.into_iter().map(|r| r.expect("covered")).collect();
        if let Some(f) = fit_sequence(&seq, eps) {
            return Some(CompForm::DependsOn(d, f));
        }
    }
    None
}

fn comp_expr(form: &CompForm, kind: AffineKind) -> Expr {
    match form {
        CompForm::Const(v) => Expr::num(*v),
        CompForm::DependsOn(d, f) => fitted_expr(f, kind, *d as u8),
    }
}

fn form_tag(form: &CompForm) -> Option<String> {
    match form {
        CompForm::Const(_) => None,
        CompForm::DependsOn(_, f) => Some(f.kind_tag().to_owned()),
    }
}

/// Attempts regular nested-loop inference for one list; on success
/// returns a `MapIdx` node equal to the list, not yet added, and its
/// record.
fn infer_regular(
    egraph: &mut CadGraph,
    kind: AffineKind,
    vecs: &[[f64; 3]],
    child: Id,
    eps: f64,
) -> Option<(CadLang, InferenceRecord)> {
    let n = vecs.len();
    for m in [2usize, 3] {
        for factors in factorizations(n, m) {
            let sets = index_sets(&factors);
            let mut forms = Vec::with_capacity(3);
            let mut used: HashSet<usize> = HashSet::new();
            let mut ok = true;
            for comp in 0..3 {
                let values: Vec<f64> = vecs.iter().map(|v| v[comp]).collect();
                match component_form(&values, &sets, &factors, eps) {
                    Some(form) => {
                        if let CompForm::DependsOn(d, _) = form {
                            used.insert(d);
                        }
                        forms.push(form);
                    }
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            // Every loop variable must drive some component, otherwise the
            // inner loop just repeats rows and a single loop suffices.
            if !ok || used.len() != m {
                continue;
            }
            let exprs = [
                comp_expr(&forms[0], kind),
                comp_expr(&forms[1], kind),
                comp_expr(&forms[2], kind),
            ];
            let body = add_affine_exprs(egraph, kind, &exprs, child);
            let bounds: Vec<Id> = factors.iter().map(|&f| add_num(egraph, f as f64)).collect();
            let node = match m {
                2 => CadLang::MapIdx2([bounds[0], bounds[1], body]),
                _ => CadLang::MapIdx3([bounds[0], bounds[1], bounds[2], body]),
            };
            let tags = forms.iter().filter_map(form_tag).collect();
            let record = InferenceRecord::new(n, tags, LoopShape::Nested(factors));
            return Some((node, record));
        }
    }
    None
}

/// Attempts irregular-loop inference (paper §5, "Irregular loops"):
/// groups elements by a shared component value and finds a closed form
/// per group, concatenating the per-group loops. Returns, like
/// [`infer_regular`], the outermost `Concat` and the record.
fn infer_irregular(
    egraph: &mut CadGraph,
    kind: AffineKind,
    vecs: &[[f64; 3]],
    child: Id,
    eps: f64,
) -> Option<(CadLang, InferenceRecord)> {
    let n = vecs.len();
    'group_comp: for g in 0..3 {
        // Group indices by (snapped) component-g value, preserving first
        // appearance order.
        let mut groups: Vec<(f64, Vec<usize>)> = Vec::new();
        for (i, v) in vecs.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|(val, _)| (val - v[g]).abs() <= 2.0 * eps)
            {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((v[g], vec![i])),
            }
        }
        if groups.len() < 2 || groups.len() == n || !groups.iter().any(|(_, g)| g.len() >= 2) {
            continue;
        }
        // Fit the remaining components within each group.
        let mut group_lists: Vec<Id> = Vec::new();
        let mut tags: Vec<String> = Vec::new();
        for (gval, idxs) in &groups {
            let mut exprs: Vec<Expr> = Vec::with_capacity(3);
            // `comp` indexes *each* vecs[i], not a single collection, so
            // the iterator rewrite clippy suggests does not apply.
            #[allow(clippy::needless_range_loop)]
            for comp in 0..3 {
                if comp == g {
                    exprs.push(Expr::num(sz_solver::snap(*gval, 2.0 * eps)));
                    continue;
                }
                let values: Vec<f64> = idxs.iter().map(|&i| vecs[i][comp]).collect();
                let Some(f) = fit_sequence(&values, eps) else {
                    continue 'group_comp;
                };
                if !f.is_constant() {
                    tags.push(f.kind_tag().to_owned());
                }
                exprs.push(fitted_expr(&f, kind, 0));
            }
            let exprs = <[Expr; 3]>::try_from(exprs).expect("three components");
            let body = add_affine_exprs(egraph, kind, &exprs, child);
            let bound = add_num(egraph, idxs.len() as f64);
            group_lists.push(egraph.add(CadLang::MapIdx1([bound, body])));
        }
        // Concat the groups, right-nested.
        let mut acc = *group_lists.last().expect("at least two groups");
        for &gl in group_lists[1..group_lists.len() - 1].iter().rev() {
            acc = egraph.add(CadLang::Concat([gl, acc]));
        }
        let shape = LoopShape::Irregular(groups.iter().map(|(_, g)| g.len()).collect());
        let record = InferenceRecord::new(n, tags, shape);
        return Some((CadLang::Concat([group_lists[0], acc]), record));
    }
    None
}

/// Runs nested/irregular loop inference over every `Fold` list whose
/// elements share an outermost affine kind and a common inner subterm.
/// Only `Union`/`Inter` folds are considered (grouping reorders elements,
/// which is sound only for commutative operators).
///
/// Cancellation is cooperative: `ctl` is polled between list sites
/// ([`PassControl::new`] never stops). Returns the records produced plus
/// whether the pass was **truncated** — stopped with sites left
/// unprocessed (the e-graph keeps any structure already inserted); a
/// pass that ran every site reports `false` even if the stop condition
/// became true only afterwards.
pub fn infer_loops_with(
    egraph: &mut CadGraph,
    eps: f64,
    ctl: &PassControl,
) -> (Vec<InferenceRecord>, bool) {
    infer_loops_in(egraph, &mut SiteTable::default(), eps, ctl)
}

/// [`infer_loops_with`] over `table`'s sites and lists.
pub(crate) fn infer_loops_in(
    egraph: &mut CadGraph,
    table: &mut SiteTable,
    eps: f64,
    ctl: &PassControl,
) -> (Vec<InferenceRecord>, bool) {
    let mut records = Vec::new();
    for site in table.start_pass(egraph) {
        if ctl.should_stop() {
            return (records, true);
        }
        if site.op == BoolOp::Diff {
            continue;
        }
        // The smallest nontrivial grid is 2×2.
        let Some((list, dets)) = table.visit(egraph, site.list, 4) else {
            continue;
        };
        for det in dets.iter() {
            if det.signature.is_empty() {
                continue;
            }
            // Loop inference reads only the outermost layer (paper §5);
            // the rest of each element must be a common class.
            let kind = det.signature[0];
            let children: Vec<Id> = det
                .chains
                .iter()
                .map(|c| egraph.find(c.layers[0].child))
                .collect();
            if children.windows(2).any(|w| w[0] != w[1]) {
                continue;
            }
            let child = children[0];
            let vecs: Vec<[f64; 3]> = det.chains.iter().map(|c| c.layers[0].vec).collect();

            let found = infer_regular(egraph, kind, &vecs, child, eps)
                .or_else(|| infer_irregular(egraph, kind, &vecs, child, eps));
            if let Some((node, record)) = found {
                table.union_new(egraph, list, node);
                records.push(record);
            }
        }
    }
    (records, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lang_to_cad, CadAnalysis};
    use sz_egraph::{AstSize, Extractor, RecExpr, Runner};

    fn union_chain(items: &[String]) -> String {
        let mut acc = items.last().unwrap().clone();
        for it in items[..items.len() - 1].iter().rev() {
            acc = format!("(Union {it} {acc})");
        }
        acc
    }

    fn infer_pipeline(input: &str) -> (String, Vec<InferenceRecord>) {
        let expr: RecExpr<CadLang> = input.parse().unwrap();
        let runner = Runner::new(CadAnalysis)
            .with_expr(&expr)
            .with_iter_limit(40)
            .run(&crate::rules::rules());
        let mut eg = runner.egraph;
        let root = runner.roots[0];
        let (records, _) = infer_loops_with(&mut eg, 1e-3, &PassControl::new());
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(root);
        (lang_to_cad(&best).unwrap().to_string(), records)
    }

    #[test]
    fn factorization_basics() {
        assert_eq!(
            factorizations(12, 2),
            vec![vec![2, 6], vec![3, 4], vec![4, 3], vec![6, 2]]
        );
        assert_eq!(factorizations(8, 3), vec![vec![2, 2, 2]]);
        assert!(factorizations(5, 2).is_empty());
        assert!(factorizations(4, 3).is_empty());
    }

    #[test]
    fn index_sets_match_paper() {
        // Paper §5: 2-factorization of 4 gives [[0;0;1;1]; [0;1;0;1]].
        assert_eq!(
            index_sets(&[2, 2]),
            vec![vec![0, 0, 1, 1], vec![0, 1, 0, 1]]
        );
        assert_eq!(
            index_sets(&[2, 3]),
            vec![vec![0, 0, 0, 1, 1, 1], vec![0, 1, 2, 0, 1, 2]]
        );
    }

    #[test]
    fn fig14_two_by_two_grid() {
        // Four cubes at (±12, ±12, 0) → Translate(24i−12, 24j−12, 0).
        let items: Vec<String> = [(12, 12), (12, -12), (-12, 12), (-12, -12)]
            .iter()
            .map(|(x, y)| format!("(Translate (Vec3 {x} {y} 0) Unit)"))
            .collect();
        let (best, records) = infer_pipeline(&union_chain(&items));
        assert!(best.contains("MapIdx2"), "got {best}");
        assert!(records
            .iter()
            .any(|r| r.shape == LoopShape::Nested(vec![2, 2])));
        // Both components linear in their own index.
        assert!(best.contains('i') && best.contains('j'), "got {best}");
    }

    #[test]
    fn fig17_dice_six_grid() {
        // 6 spheres in a 2×3 grid with a constant x and shared scale.
        let items: Vec<String> = (0..2)
            .flat_map(|i| {
                (0..3).map(move |j| {
                    format!(
                        "(Translate (Vec3 -5 {} {}) (Scale (Vec3 0.75 0.75 0.75) Sphere))",
                        2 - 4 * i,
                        2 - 2 * j
                    )
                })
            })
            .collect();
        let (best, records) = infer_pipeline(&union_chain(&items));
        assert!(best.contains("MapIdx2"), "got {best}");
        assert!(records
            .iter()
            .any(|r| r.shape == LoopShape::Nested(vec![2, 3])));
        // The shared 0.75 scale either stays on the spheres or gets
        // lifted above the whole fold by the reordering + lifting rules;
        // both expose the 2×3 grid.
        assert!(best.contains("Sphere"), "got {best}");
        assert!(
            best.contains("0.75") || best.contains("(Scale 0.75"),
            "got {best}"
        );
    }

    #[test]
    fn prime_lengths_have_no_regular_loop() {
        let items: Vec<String> = (0..5)
            .map(|i| format!("(Translate (Vec3 {} 7 0) Unit)", 3 * i))
            .collect();
        let (_, records) = infer_pipeline(&union_chain(&items));
        assert!(records
            .iter()
            .all(|r| !matches!(r.shape, LoopShape::Nested(_))));
    }

    #[test]
    fn irregular_grid_grouped() {
        // Two rows with different column counts: x∈{0}: y = 0,10,20;
        // x∈{50}: y = 0,10. Regular factorization of 5 fails.
        let mut items: Vec<String> = (0..3)
            .map(|j| format!("(Translate (Vec3 0 {} 0) Unit)", 10 * j))
            .collect();
        items.extend((0..2).map(|j| format!("(Translate (Vec3 50 {} 0) Unit)", 10 * j)));
        let (best, records) = infer_pipeline(&union_chain(&items));
        assert!(
            records
                .iter()
                .any(|r| r.shape == LoopShape::Irregular(vec![3, 2])),
            "records: {records:?}"
        );
        assert!(best.contains("Concat"), "got {best}");
        assert!(best.contains("MapIdx"), "got {best}");
    }

    #[test]
    fn unfactorable_stays_flat() {
        // Random-looking vectors with composite length.
        let vals = [3.1, -7.4, 12.9, 0.2];
        let items: Vec<String> = vals
            .iter()
            .map(|v| format!("(Translate (Vec3 {v} 1 2) Unit)"))
            .collect();
        let (best, records) = infer_pipeline(&union_chain(&items));
        assert!(records.is_empty());
        assert!(!best.contains("MapIdx"));
    }
}
