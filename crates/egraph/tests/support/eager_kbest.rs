//! The eager k-best fixpoint `KBestExtractor` used before it became lazy,
//! kept as a test oracle for the differential suites (include it with
//! `#[path = ".../support/eager_kbest.rs"] mod eager_kbest;`).
//!
//! It computes the `k` best derivations of *every* class: each pass
//! enumerates, for every dirty class, up to `k` derivations per e-node
//! best-first over the children's current lists, keeps the class's `k`
//! cheapest (stable by cost, so ties keep e-node order and then each
//! node's (cost, choice vector) pop order), and stages the new lists to
//! the pass boundary (Jacobi iteration). Only public `EGraph` accessors
//! are used.
//!
//! One departure from the production code: that capped the passes at
//! `classes + 2`, which on a small cyclic graph stops short of the
//! fixpoint (`y` under the `add0` rule `?a => (+ ?a 0)` got 4 of its 10
//! cheapest derivations). The oracle iterates to the fixpoint, which
//! strictly monotone costs guarantee exists.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use sz_egraph::{Analysis, CostFunction, EGraph, Id, Language, RecExpr};

/// One concrete derivation of a term for a class.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry<L, C> {
    cost: C,
    node: L,
    /// `choices[i]` indexes into the entry list of `node.children()[i]`'s
    /// class.
    choices: Vec<usize>,
}

/// Per-slot table updates staged during one pass and applied at the
/// pass boundary.
type StagedUpdates<L, C> = Vec<(usize, Vec<Entry<L, C>>)>;

/// The eager k-best table over a whole e-graph.
pub struct EagerKBest<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    /// Dense k-best table, slot-indexed by canonical id; an empty list
    /// means "no derivation known".
    table: Vec<Vec<Entry<L, CF::Cost>>>,
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> EagerKBest<'a, L, N, CF> {
    /// Iterates the table to fixpoint.
    pub fn new(egraph: &'a EGraph<L, N>, mut cost_function: CF, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let universe = egraph.universe();
        let mut table: Vec<Vec<Entry<L, CF::Cost>>> = vec![Vec::new(); universe];
        let mut dirty = vec![true; universe];
        let mut next_dirty = vec![false; universe];
        let mut updates: StagedUpdates<L, CF::Cost> = Vec::new();
        loop {
            updates.clear();
            for class in egraph.classes() {
                let slot = usize::from(class.id);
                if !dirty[slot] {
                    continue;
                }
                let mut candidates: Vec<Entry<L, CF::Cost>> = Vec::new();
                for node in egraph.nodes_of(class) {
                    enumerate_node_entries(
                        egraph,
                        &table,
                        node,
                        k,
                        &mut cost_function,
                        &mut candidates,
                    );
                }
                candidates.sort_by(|a, b| a.cost.cmp(&b.cost));
                candidates.dedup();
                candidates.truncate(k);
                if candidates != table[slot] {
                    updates.push((slot, candidates));
                }
            }
            if updates.is_empty() {
                break;
            }
            for (slot, candidates) in updates.drain(..) {
                for &(_, pid) in egraph.class_parents(Id::from(slot)) {
                    next_dirty[usize::from(egraph.find(pid))] = true;
                }
                table[slot] = candidates;
            }
            std::mem::swap(&mut dirty, &mut next_dirty);
            next_dirty.fill(false);
        }
        EagerKBest { egraph, table }
    }

    /// The table's terms for `id`, cheapest first.
    pub fn find_best_k(&self, id: Id) -> Vec<(CF::Cost, RecExpr<L>)> {
        let root = self.egraph.find(id);
        self.table[usize::from(root)]
            .iter()
            .map(|e| {
                let mut expr = RecExpr::new();
                self.build_entry(e, &mut expr, 0);
                (e.cost.clone(), expr)
            })
            .collect()
    }

    fn build_entry(&self, entry: &Entry<L, CF::Cost>, expr: &mut RecExpr<L>, depth: usize) -> Id {
        assert!(depth < 10_000, "is the cost function strictly monotone?");
        let node = &entry.node;
        let mut child_ids = Vec::with_capacity(node.children().len());
        for (i, &c) in node.children().iter().enumerate() {
            let centry = &self.table[usize::from(self.egraph.find(c))][entry.choices[i]];
            child_ids.push(self.build_entry(centry, expr, depth + 1));
        }
        let mut child_ids = child_ids.into_iter();
        expr.add(node.map_children(|_| child_ids.next().expect("one id per child")))
    }
}

/// Pushes up to `k` best-cost entries derivable from `node` given the
/// current `table`, using a best-first frontier over choice vectors.
fn enumerate_node_entries<L: Language, N: Analysis<L>, CF: CostFunction<L>>(
    egraph: &EGraph<L, N>,
    table: &[Vec<Entry<L, CF::Cost>>],
    node: &L,
    k: usize,
    cost_function: &mut CF,
    out: &mut Vec<Entry<L, CF::Cost>>,
) {
    let children = node.children();
    let mut child_entries: Vec<&Vec<Entry<L, CF::Cost>>> = Vec::with_capacity(children.len());
    for &c in children {
        let entries = &table[usize::from(egraph.find(c))];
        if entries.is_empty() {
            return;
        }
        child_entries.push(entries);
    }
    let mut cost_of = |choices: &[usize]| -> CF::Cost {
        let child_costs: Vec<CF::Cost> = choices
            .iter()
            .enumerate()
            .map(|(i, &j)| child_entries[i][j].cost.clone())
            .collect();
        cost_function.cost(node, &child_costs)
    };
    // Min-heap on (cost, choice vector).
    let first = vec![0usize; children.len()];
    let mut heap = BinaryHeap::new();
    let mut seen = HashSet::new();
    seen.insert(first.clone());
    heap.push(Reverse((cost_of(&first), first)));
    let mut produced = 0;
    while let Some(Reverse((cost, choices))) = heap.pop() {
        out.push(Entry {
            cost,
            node: node.clone(),
            choices: choices.clone(),
        });
        produced += 1;
        if produced >= k {
            break;
        }
        for i in 0..choices.len() {
            let mut next = choices.clone();
            next[i] += 1;
            if next[i] < child_entries[i].len() && seen.insert(next.clone()) {
                heap.push(Reverse((cost_of(&next), next)));
            }
        }
    }
}
