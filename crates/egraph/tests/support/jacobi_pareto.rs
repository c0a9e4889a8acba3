//! The Jacobi fixpoint `ParetoExtractor` ran before it moved onto the
//! extractors' shared dirty-class worklist, kept as a test oracle for the
//! differential suites (include it with
//! `#[path = ".../support/jacobi_pareto.rs"] mod jacobi_pareto;`).
//!
//! Each pass recomputes, for every dirty class, the full cross-product of
//! its e-nodes' derivations over the children's current fronts (one
//! cloned e-node per candidate), sorts the candidates by
//! `(a, b, node, choices)`, sweeps off dominated ones up to the cap, and
//! stages the new fronts to the pass boundary, so every read within a pass
//! sees the previous pass (Jacobi iteration). It stops after a pass that
//! changes nothing or after `classes + 2` passes. Terms are built by a
//! builder of its own that drops an entry with a dangling choice or a
//! term 10 000 levels deep. Only public `EGraph` accessors are used.

use sz_egraph::{Analysis, CostFunction, EGraph, Id, Language, RecExpr};

/// One point on a class's Pareto front: a concrete derivation with its
/// two objective costs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ParetoEntry<L, A, B> {
    a: A,
    b: B,
    node: L,
    /// `choices[i]` indexes into the front of `node.children()[i]`'s
    /// class.
    choices: Vec<usize>,
}

/// One class's Pareto front: mutually non-dominating entries sorted
/// ascending on the first objective.
type ParetoFront<L, A, B> = Vec<ParetoEntry<L, A, B>>;
/// Per-class Pareto fronts for a whole e-graph, slot-indexed by canonical
/// id (empty front = no derivation known).
type ParetoTable<L, A, B> = Vec<ParetoFront<L, A, B>>;
/// Per-slot front updates staged during one fixpoint pass and applied at
/// the pass boundary.
type StagedFronts<L, A, B> = Vec<(usize, ParetoFront<L, A, B>)>;

/// The Jacobi Pareto-front table over a whole e-graph.
pub struct JacobiPareto<'a, L: Language, N: Analysis<L>, CA: CostFunction<L>, CB: CostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    table: ParetoTable<L, CA::Cost, CB::Cost>,
}

impl<'a, L: Language, N: Analysis<L>, CA: CostFunction<L>, CB: CostFunction<L>>
    JacobiPareto<'a, L, N, CA, CB>
{
    /// Builds the Pareto table keeping at most `cap` front points per
    /// class (lowest `(cost_a, cost_b)` kept when the true front is
    /// wider).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_cap(egraph: &'a EGraph<L, N>, mut cost_a: CA, mut cost_b: CB, cap: usize) -> Self {
        assert!(cap > 0, "pareto cap must be positive");
        let universe = egraph.universe();
        let mut table: ParetoTable<L, CA::Cost, CB::Cost> = vec![Vec::new(); universe];
        // Dirty-class Jacobi iteration: recompute only classes whose
        // children's fronts changed, staging updates at the pass boundary
        // so every read within a pass sees the previous pass.
        let max_iters = egraph.number_of_classes() + 2;
        let mut dirty = vec![true; universe];
        let mut next_dirty = vec![false; universe];
        let mut updates: StagedFronts<L, CA::Cost, CB::Cost> = Vec::new();
        for _ in 0..max_iters {
            updates.clear();
            for class in egraph.classes() {
                let slot = usize::from(class.id);
                if !dirty[slot] {
                    continue;
                }
                let mut candidates: Vec<ParetoEntry<L, CA::Cost, CB::Cost>> = Vec::new();
                for node in egraph.nodes_of(class) {
                    enumerate_pareto_entries(
                        egraph,
                        &table,
                        node,
                        &mut cost_a,
                        &mut cost_b,
                        &mut candidates,
                    );
                }
                let front = prune_to_front(candidates, cap);
                if front != table[slot] {
                    updates.push((slot, front));
                }
            }
            if updates.is_empty() {
                break;
            }
            for (slot, front) in updates.drain(..) {
                for &(_, pid) in egraph.class_parents(Id::from(slot)) {
                    next_dirty[usize::from(egraph.find(pid))] = true;
                }
                table[slot] = front;
            }
            std::mem::swap(&mut dirty, &mut next_dirty);
            next_dirty.fill(false);
        }
        JacobiPareto { egraph, table }
    }

    /// Extracts the Pareto front of `id`'s class: mutually
    /// non-dominating `(cost_a, cost_b, term)` triples, sorted by
    /// ascending `cost_a` (hence descending `cost_b`). Empty when the
    /// class has no extractable term.
    pub fn find_front(&self, id: Id) -> Vec<(CA::Cost, CB::Cost, RecExpr<L>)> {
        let root = self.egraph.find(id);
        let entries = &self.table[usize::from(root)];
        entries
            .iter()
            .filter_map(|e| {
                let mut expr = RecExpr::new();
                self.build_entry(root, e, &mut expr, 0)
                    .map(|_| (e.a.clone(), e.b.clone(), expr))
            })
            .collect()
    }

    /// Builds one front entry's term; `None` if the entry is not
    /// buildable (a non-stabilized table can leave a dangling choice —
    /// dropped rather than panicking, deterministically).
    fn build_entry(
        &self,
        _class: Id,
        entry: &ParetoEntry<L, CA::Cost, CB::Cost>,
        expr: &mut RecExpr<L>,
        depth: usize,
    ) -> Option<Id> {
        if depth >= 10_000 {
            return None;
        }
        let node = &entry.node;
        let mut child_ids = Vec::with_capacity(node.children().len());
        for (i, &c) in node.children().iter().enumerate() {
            let cclass = self.egraph.find(c);
            let centry = self.table[usize::from(cclass)].get(entry.choices[i])?;
            child_ids.push(self.build_entry(cclass, centry, expr, depth + 1)?);
        }
        let mut j = 0;
        let node = node.map_children(|_| {
            let id = child_ids[j];
            j += 1;
            id
        });
        Some(expr.add(node))
    }
}

/// Sorts candidates by `(a, b, node, choices)` and sweeps off dominated
/// (and duplicate-cost) entries, keeping at most `cap` points.
fn prune_to_front<L: Language, A: Ord + Clone, B: Ord + Clone>(
    mut candidates: Vec<ParetoEntry<L, A, B>>,
    cap: usize,
) -> ParetoFront<L, A, B> {
    candidates
        .sort_by(|x, y| (&x.a, &x.b, &x.node, &x.choices).cmp(&(&y.a, &y.b, &y.node, &y.choices)));
    let mut front: ParetoFront<L, A, B> = Vec::new();
    for entry in candidates {
        // Sorted by (a asc, b asc): an entry survives iff its b is
        // strictly below every kept entry's (equal (a, b) points keep
        // only the sort-first representative).
        let dominated = front.last().is_some_and(|kept| entry.b >= kept.b);
        if !dominated {
            front.push(entry);
            if front.len() >= cap {
                break;
            }
        }
    }
    front
}

/// Pushes every derivation of `node` over the children's current fronts
/// (full cross-product; fronts are capped, so this is bounded).
fn enumerate_pareto_entries<
    L: Language,
    N: Analysis<L>,
    CA: CostFunction<L>,
    CB: CostFunction<L>,
>(
    egraph: &EGraph<L, N>,
    table: &ParetoTable<L, CA::Cost, CB::Cost>,
    node: &L,
    cost_a: &mut CA,
    cost_b: &mut CB,
    out: &mut Vec<ParetoEntry<L, CA::Cost, CB::Cost>>,
) {
    let children = node.children();
    let mut child_fronts: Vec<&ParetoFront<L, CA::Cost, CB::Cost>> =
        Vec::with_capacity(children.len());
    for &c in children {
        let front = &table[usize::from(egraph.find(c))];
        if front.is_empty() {
            return;
        }
        child_fronts.push(front);
    }
    let mut choices = vec![0usize; children.len()];
    loop {
        let a_costs: Vec<CA::Cost> = choices
            .iter()
            .enumerate()
            .map(|(i, &j)| child_fronts[i][j].a.clone())
            .collect();
        let b_costs: Vec<CB::Cost> = choices
            .iter()
            .enumerate()
            .map(|(i, &j)| child_fronts[i][j].b.clone())
            .collect();
        out.push(ParetoEntry {
            a: cost_a.cost(node, &a_costs),
            b: cost_b.cost(node, &b_costs),
            node: node.clone(),
            choices: choices.clone(),
        });
        // Odometer step over the cross-product of child fronts.
        let mut i = 0;
        loop {
            if i == choices.len() {
                return;
            }
            choices[i] += 1;
            if choices[i] < child_fronts[i].len() {
                break;
            }
            choices[i] = 0;
            i += 1;
        }
    }
}
