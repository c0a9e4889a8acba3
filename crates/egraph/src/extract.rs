//! Extraction: choosing the best (or k best) terms represented by an
//! e-class under a cost function.
//!
//! Szalinski's final phase extracts the **top-k** lowest-cost LambdaCAD
//! programs so the user can pick the parameterization that suits their
//! edit (paper §5.1). Both ranked extractors start from one 1-best cost
//! table over the whole graph (a dirty-worklist fixpoint, [`best_table`]):
//! [`Extractor`] walks it from the root, and [`KBestExtractor`] enumerates
//! further derivations from it lazily, expanding only the classes the
//! root's next derivation needs.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Debug;

use crate::{Analysis, EGraph, Id, Language, RecExpr};

/// A cost function over e-nodes.
///
/// The cost of a node is computed from the already-chosen costs of its
/// children (one cost per child *position*, so a class used twice may be
/// charged twice).
///
/// # Correctness requirement
///
/// For extraction to terminate on cyclic e-graphs, the cost of a node must
/// be **strictly greater** than each of its children's costs (true for any
/// "every node costs something positive" function such as [`AstSize`]).
pub trait CostFunction<L: Language> {
    /// The totally ordered cost type.
    type Cost: Ord + Clone + Debug;

    /// Computes the cost of `enode` given its children's costs
    /// (`child_costs[i]` corresponds to `enode.children()[i]`).
    fn cost(&mut self, enode: &L, child_costs: &[Self::Cost]) -> Self::Cost;
}

/// Cost = number of nodes in the term (the paper's default cost function).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSize;

impl<L: Language> CostFunction<L> for AstSize {
    type Cost = usize;
    fn cost(&mut self, _enode: &L, child_costs: &[usize]) -> usize {
        child_costs.iter().sum::<usize>() + 1
    }
}

/// Cost = depth of the term.
///
/// Note: depth alone is *not* strictly monotone (a node costs `1 + max`),
/// but it is still strictly greater than every child's cost, which is the
/// property extraction needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AstDepth;

impl<L: Language> CostFunction<L> for AstDepth {
    type Cost = usize;
    fn cost(&mut self, _enode: &L, child_costs: &[usize]) -> usize {
        child_costs.iter().max().copied().unwrap_or(0) + 1
    }
}

/// One class's row of the 1-best table: the cost of its cheapest term and
/// the position, in the class's node list, of that term's root e-node
/// (`None` while no term is known).
type BestRow<C> = Option<(C, usize)>;

/// The e-node at `pos` in the node list of `id`'s class.
fn class_node<L: Language, N: Analysis<L>>(egraph: &EGraph<L, N>, id: Id, pos: usize) -> &L {
    egraph.node(egraph[id].node_ids()[pos])
}

/// Builds the 1-best table of the whole graph, slot-indexed by canonical
/// id.
///
/// Dirty-class worklist: a class only needs re-examination when one of its
/// children's best entries changed, so dirtiness propagates upward through
/// the parent lists instead of every class being rescanned each pass
/// (Gauss–Seidel to the least fixpoint). Ties go to the smaller e-node,
/// which makes that fixpoint unique and so independent of class
/// iteration order.
fn best_table<L: Language, N: Analysis<L>, CF: CostFunction<L>>(
    egraph: &EGraph<L, N>,
    cost_function: &mut CF,
) -> Vec<BestRow<CF::Cost>> {
    let universe = egraph.universe();
    let mut best: Vec<BestRow<CF::Cost>> = std::iter::repeat_with(|| None).take(universe).collect();
    let mut dirty = vec![true; universe];
    let mut next_dirty = vec![false; universe];
    let mut child_costs = Vec::new();
    let mut any_dirty = true;
    while any_dirty {
        any_dirty = false;
        for class in egraph.classes() {
            let slot = usize::from(class.id);
            if !dirty[slot] {
                continue;
            }
            let mut improved = false;
            for (pos, node) in egraph.nodes_of(class).enumerate() {
                child_costs.clear();
                let extractable =
                    node.children()
                        .iter()
                        .all(|&c| match &best[usize::from(egraph.find(c))] {
                            Some((cost, _)) => {
                                child_costs.push(cost.clone());
                                true
                            }
                            None => false,
                        });
                if !extractable {
                    continue;
                }
                let cost = cost_function.cost(node, &child_costs);
                let better = match &best[slot] {
                    Some((old, old_pos)) => {
                        cost < *old
                            || (cost == *old && node < class_node(egraph, class.id, *old_pos))
                    }
                    None => true,
                };
                if better {
                    best[slot] = Some((cost, pos));
                    improved = true;
                }
            }
            if improved {
                for &(_, pid) in egraph.class_parents(class.id) {
                    next_dirty[usize::from(egraph.find(pid))] = true;
                    any_dirty = true;
                }
            }
        }
        std::mem::swap(&mut dirty, &mut next_dirty);
        next_dirty.fill(false);
    }
    best
}

/// One-best extraction: computes the minimal-cost term of every class.
///
/// # Examples
///
/// ```
/// use sz_egraph::{EGraph, Extractor, AstSize, Runner, Rewrite, tests_lang::{Arith, ConstFold}};
/// let rules: Vec<Rewrite<Arith, ConstFold>> =
///     vec![Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
/// let runner = Runner::new(ConstFold)
///     .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
///     .run(&rules);
/// let extractor = Extractor::new(&runner.egraph, AstSize);
/// let (cost, best) = extractor.find_best(runner.roots[0]);
/// // Constant folding put `6` in the root class; it is the smallest term.
/// assert_eq!(cost, 1);
/// assert_eq!(best.to_string(), "6");
/// ```
pub struct Extractor<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    /// The 1-best table (see [`best_table`]).
    best: Vec<BestRow<CF::Cost>>,
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> Extractor<'a, L, N, CF> {
    /// Builds the cost table for the whole e-graph.
    pub fn new(egraph: &'a EGraph<L, N>, mut cost_function: CF) -> Self {
        let best = best_table(egraph, &mut cost_function);
        Extractor { egraph, best }
    }

    /// The cost of the best term in `id`'s class, if one is extractable.
    pub fn best_cost(&self, id: Id) -> Option<CF::Cost> {
        self.best[usize::from(self.egraph.find(id))]
            .as_ref()
            .map(|(c, _)| c.clone())
    }

    /// Extracts the minimal-cost term for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the class has no extractable term (e.g. empty e-graph).
    pub fn find_best(&self, id: Id) -> (CF::Cost, RecExpr<L>) {
        let root = self.egraph.find(id);
        let cost = self
            .best_cost(root)
            .unwrap_or_else(|| panic!("no extractable term for class {root}"));
        let mut expr = RecExpr::new();
        let mut memo = HashMap::new();
        self.build(root, &mut expr, &mut memo);
        (cost, expr)
    }

    fn build(&self, id: Id, expr: &mut RecExpr<L>, memo: &mut HashMap<Id, Id>) -> Id {
        let id = self.egraph.find(id);
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        let &(_, pos) = self.best[usize::from(id)]
            .as_ref()
            .unwrap_or_else(|| panic!("no extractable term for class {id}"));
        let node = class_node(self.egraph, id, pos).map_children(|c| self.build(c, expr, memo));
        let new = expr.add(node);
        memo.insert(id, new);
        new
    }
}

/// One derivation of a term for a class: its root e-node, given by
/// position in the class's node list, and for each child which of that
/// child class's derivations fills it.
///
/// The derived order (cost, then node position, then choice vector) is
/// the extraction order, and its tie-break is what keeps top-k output
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Derivation<C> {
    cost: C,
    pos: usize,
    /// `choices[i]` indexes the derivation list of `node.children()[i]`'s
    /// class.
    choices: Vec<usize>,
}

/// A class's derivation list, grown on demand.
struct ClassDerivations<C> {
    /// Derivations found so far, in the order they were popped;
    /// `found[0]` is the class's 1-best.
    found: Vec<Derivation<C>>,
    /// Candidates for the next derivation; `None` until the class is
    /// first asked for a second one.
    frontier: Option<BinaryHeap<Reverse<Derivation<C>>>>,
    /// How many of `found` have had their successors pushed.
    expanded: usize,
}

/// The mutable half of a [`KBestExtractor`]: the cost function and every
/// class's derivation list.
struct LazyTable<CF, C> {
    cost_function: CF,
    classes: Vec<ClassDerivations<C>>,
    /// Scratch buffer for one node's child costs.
    child_costs: Vec<C>,
}

/// K-best extraction: a class's lowest-cost *distinct derivations*,
/// cheapest first.
///
/// Lazy k-best enumeration (Huang & Chiang, "Better k-best Parsing",
/// IWPT 2005, Algorithm 3) over the 1-best table: construction builds
/// only that table, and a class's list of derivations grows only when a
/// parent, or the caller, asks for its next entry. A class's first
/// derivation is its 1-best. Further ones pop from a per-class candidate
/// heap ordered by (cost, node position, choice vector), seeded with
/// every other e-node's first derivation. A popped derivation's
/// successors — one child's choice advanced by one — are pushed just
/// before the next pop, and only along children at or after its last
/// non-zero choice, so each choice vector has exactly one predecessor
/// and no duplicate is ever generated.
///
/// Cost functions must be strictly monotone (see [`CostFunction`]): a
/// derivation then only refers to derivations that existed before it
/// was pushed, so a class is never asked for the entry it is still
/// computing, and cycles need no special case. When a node's cost is not
/// monotone in each child's cost (e.g. it combines a size with a
/// max-depth), the enumeration can come out of cost order:
/// [`KBestExtractor::find_best_k`] sorts what it returns.
///
/// # Examples
///
/// ```
/// use sz_egraph::{EGraph, KBestExtractor, AstSize, tests_lang::Arith};
/// let mut eg: EGraph<Arith, ()> = EGraph::default();
/// let a = eg.add_expr(&"(+ 1 2)".parse().unwrap());
/// let b = eg.add_expr(&"(* 3 4)".parse().unwrap());
/// eg.union(a, b);
/// eg.rebuild();
/// let kbest = KBestExtractor::new(&eg, AstSize, 5);
/// let progs = kbest.find_best_k(a);
/// assert_eq!(progs.len(), 2); // the two 3-node variants
/// ```
pub struct KBestExtractor<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> {
    egraph: &'a EGraph<L, N>,
    k: usize,
    /// The 1-best table (see [`best_table`]); it picks every class's
    /// first derivation.
    best: Vec<BestRow<CF::Cost>>,
    lazy: RefCell<LazyTable<CF, CF::Cost>>,
}

impl<'a, L: Language, N: Analysis<L>, CF: CostFunction<L>> KBestExtractor<'a, L, N, CF> {
    /// Builds the 1-best table for the whole e-graph; derivations beyond
    /// each class's first are enumerated on demand.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(egraph: &'a EGraph<L, N>, mut cost_function: CF, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        let best = best_table(egraph, &mut cost_function);
        let classes = std::iter::repeat_with(|| ClassDerivations {
            found: Vec::new(),
            frontier: None,
            expanded: 0,
        })
        .take(egraph.universe())
        .collect();
        KBestExtractor {
            egraph,
            k,
            best,
            lazy: RefCell::new(LazyTable {
                cost_function,
                classes,
                child_costs: Vec::new(),
            }),
        }
    }

    /// The configured k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Extracts up to `k` lowest-cost terms for `id`, cheapest first.
    pub fn find_best_k(&self, id: Id) -> Vec<(CF::Cost, RecExpr<L>)> {
        let mut terms: Vec<_> = self.iter_best(id).take(self.k).collect();
        // A no-op for monotone cost functions; see the type-level docs.
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        terms
    }

    /// Iterates over the derivations of `id`'s class, one term per call
    /// to `next`, in enumeration order: cheapest first when the cost
    /// function is monotone in each child's cost. Not capped at `k`, and
    /// endless on a cyclic class — `take` what you need.
    pub fn iter_best(&self, id: Id) -> impl Iterator<Item = (CF::Cost, RecExpr<L>)> + '_ {
        let root = usize::from(self.egraph.find(id));
        (0..).map_while(move |j| {
            let mut lazy = self.lazy.borrow_mut();
            if !self.derive(&mut lazy, root, j) {
                return None;
            }
            let mut expr = RecExpr::new();
            self.build(&lazy, root, j, &mut expr);
            Some((lazy.classes[root].found[j].cost.clone(), expr))
        })
    }

    fn slot_of(&self, id: Id) -> usize {
        usize::from(self.egraph.find(id))
    }

    /// Ensures class `slot` has a derivation at index `j`; false if the
    /// class has no more than `j` derivations.
    fn derive(&self, lazy: &mut LazyTable<CF, CF::Cost>, slot: usize, j: usize) -> bool {
        if !self.derive_first(lazy, slot) {
            return false;
        }
        while lazy.classes[slot].found.len() <= j {
            if lazy.classes[slot].frontier.is_none() {
                self.seed_frontier(lazy, slot);
            }
            let last = lazy.classes[slot].found.len() - 1;
            if lazy.classes[slot].expanded == last {
                lazy.classes[slot].expanded += 1;
                self.push_successors(lazy, slot, last);
            }
            let class = &mut lazy.classes[slot];
            match class.frontier.as_mut().and_then(BinaryHeap::pop) {
                Some(Reverse(next)) => class.found.push(next),
                None => return false,
            }
        }
        true
    }

    /// Ensures class `slot` has its first derivation, the 1-best table's
    /// choice; false if the class has no extractable term.
    fn derive_first(&self, lazy: &mut LazyTable<CF, CF::Cost>, slot: usize) -> bool {
        if !lazy.classes[slot].found.is_empty() {
            return true;
        }
        let Some(&(_, pos)) = self.best[slot].as_ref() else {
            return false;
        };
        let node = class_node(self.egraph, Id::from(slot), pos);
        for &c in node.children() {
            // The table only picks nodes whose children all have a row.
            self.derive_first(lazy, self.slot_of(c));
        }
        let choices = vec![0; node.children().len()];
        let cost = self.cost_of(lazy, node, &choices);
        lazy.classes[slot]
            .found
            .push(Derivation { cost, pos, choices });
        true
    }

    /// Seeds class `slot`'s candidate heap with the first derivation of
    /// each of its e-nodes but the one its 1-best already took.
    fn seed_frontier(&self, lazy: &mut LazyTable<CF, CF::Cost>, slot: usize) {
        let taken = lazy.classes[slot].found[0].pos;
        let mut frontier = BinaryHeap::new();
        for (pos, node) in self
            .egraph
            .nodes_of(&self.egraph[Id::from(slot)])
            .enumerate()
        {
            if pos == taken
                || !node
                    .children()
                    .iter()
                    .all(|&c| self.derive_first(lazy, self.slot_of(c)))
            {
                continue;
            }
            let choices = vec![0; node.children().len()];
            let cost = self.cost_of(lazy, node, &choices);
            frontier.push(Reverse(Derivation { cost, pos, choices }));
        }
        lazy.classes[slot].frontier = Some(frontier);
    }

    /// Pushes the successors of class `slot`'s derivation `j`: its
    /// choice vector advanced by one along each child at or after its
    /// last non-zero choice, where that child has such a derivation.
    fn push_successors(&self, lazy: &mut LazyTable<CF, CF::Cost>, slot: usize, j: usize) {
        let (pos, arity, start) = {
            let d = &lazy.classes[slot].found[j];
            let start = d.choices.iter().rposition(|&c| c > 0).unwrap_or(0);
            (d.pos, d.choices.len(), start)
        };
        let node = class_node(self.egraph, Id::from(slot), pos);
        for i in start..arity {
            let next = lazy.classes[slot].found[j].choices[i] + 1;
            if !self.derive(lazy, self.slot_of(node.children()[i]), next) {
                continue;
            }
            let mut choices = lazy.classes[slot].found[j].choices.clone();
            choices[i] = next;
            let cost = self.cost_of(lazy, node, &choices);
            let frontier = lazy.classes[slot].frontier.as_mut();
            frontier
                .expect("seeded before the first expansion")
                .push(Reverse(Derivation { cost, pos, choices }));
        }
    }

    /// The cost of `node` over the given derivations of its children.
    fn cost_of(&self, lazy: &mut LazyTable<CF, CF::Cost>, node: &L, choices: &[usize]) -> CF::Cost {
        lazy.child_costs.clear();
        for (&c, &j) in node.children().iter().zip(choices) {
            let cost = &lazy.classes[self.slot_of(c)].found[j].cost;
            lazy.child_costs.push(cost.clone());
        }
        lazy.cost_function.cost(node, &lazy.child_costs)
    }

    /// Appends the term of class `slot`'s derivation `j` to `expr`.
    fn build(
        &self,
        lazy: &LazyTable<CF, CF::Cost>,
        slot: usize,
        j: usize,
        expr: &mut RecExpr<L>,
    ) -> Id {
        let d = &lazy.classes[slot].found[j];
        let mut choices = d.choices.iter();
        let node = class_node(self.egraph, Id::from(slot), d.pos).map_children(|c| {
            let j = *choices.next().expect("one choice per child");
            self.build(lazy, self.slot_of(c), j, expr)
        });
        expr.add(node)
    }
}

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

/// Default bound on the number of front points kept per e-class (see
/// [`ParetoExtractor::with_cap`]).
pub const DEFAULT_PARETO_CAP: usize = 8;

/// One class's Pareto front: mutually non-dominating entries sorted
/// ascending on the first objective.
type ParetoFront<L, A, B> = Vec<ParetoEntry<L, A, B>>;
/// Per-class Pareto fronts for a whole e-graph, slot-indexed by canonical
/// id (empty front = no derivation known).
type ParetoTable<L, A, B> = Vec<ParetoFront<L, A, B>>;
/// Per-slot front updates staged during one fixpoint pass and applied at
/// the pass boundary.
type StagedFronts<L, A, B> = Vec<(usize, ParetoFront<L, A, B>)>;

/// Two-objective Pareto-front extraction: for a class, the set of
/// derivable terms whose `(cost_a, cost_b)` pairs are **mutually
/// non-dominating** (no term is at least as cheap on both objectives and
/// strictly cheaper on one as another).
///
/// A bottom-up fixpoint over the whole graph in which each class keeps
/// a dominance-pruned front of derivations. Fronts are
/// **capped** per class (default [`DEFAULT_PARETO_CAP`], lowest
/// `(cost_a, cost_b)` first) so work stays bounded on large graphs; the
/// cap, the `(a, b, node, choices)` candidate ordering, and the pruning
/// sweep are all deterministic, so two runs over equal e-graphs return
/// identical fronts.
///
/// # Correctness requirement
///
/// The **first** cost function must be strictly monotone (a node's cost
/// strictly greater than each child's, as for [`Extractor`]); the second
/// only needs to be non-decreasing. Cycle-generated derivations then
/// cost strictly more on objective A with objective B no smaller, so
/// they are dominated and pruned.
///
/// # Examples
///
/// ```
/// use sz_egraph::{EGraph, ParetoExtractor, AstSize, AstDepth, tests_lang::Arith};
/// let mut eg: EGraph<Arith, ()> = EGraph::default();
/// let deep = eg.add_expr(&"(+ 1 (+ 2 (+ 3 4)))".parse().unwrap()); // size 7, depth 4
/// let shallow = eg.add_expr(&"(* 6 4)".parse().unwrap()); // size 3, depth 2
/// eg.union(deep, shallow);
/// eg.rebuild();
/// let pareto = ParetoExtractor::new(&eg, AstSize, AstDepth);
/// let front = pareto.find_front(deep);
/// // The smaller term is also shallower: it dominates, front is a point.
/// assert_eq!(front.len(), 1);
/// assert_eq!(front[0].2.to_string(), "(* 6 4)");
/// ```
pub struct ParetoExtractor<
    'a,
    L: Language,
    N: Analysis<L>,
    CA: CostFunction<L>,
    CB: CostFunction<L>,
> {
    egraph: &'a EGraph<L, N>,
    cap: usize,
    table: ParetoTable<L, CA::Cost, CB::Cost>,
}

impl<'a, L: Language, N: Analysis<L>, CA: CostFunction<L>, CB: CostFunction<L>>
    ParetoExtractor<'a, L, N, CA, CB>
{
    /// Builds the Pareto table with the default per-class cap.
    pub fn new(egraph: &'a EGraph<L, N>, cost_a: CA, cost_b: CB) -> Self {
        Self::with_cap(egraph, cost_a, cost_b, DEFAULT_PARETO_CAP)
    }

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
        ParetoExtractor { egraph, cap, table }
    }

    /// The configured per-class front cap.
    pub fn cap(&self) -> usize {
        self.cap
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;
    use crate::{Rewrite, Runner};

    #[test]
    fn extractor_prefers_smaller() {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let big = eg.add_expr(&"(+ x (+ x (+ x x)))".parse().unwrap());
        let small = eg.add_expr(&"(* 4 x)".parse().unwrap());
        eg.union(big, small);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (cost, best) = ex.find_best(big);
        assert_eq!(cost, 3);
        assert_eq!(best.to_string(), "(* 4 x)");
    }

    #[test]
    fn extractor_handles_cycles() {
        // x = x + 0 introduces a cycle; extraction should still terminate
        // and pick the leaf.
        let rules: Vec<Rewrite<Arith, ()>> =
            vec![Rewrite::parse("add0", "?a", "(+ ?a 0)").unwrap()];
        let runner = Runner::new(())
            .with_expr(&"x".parse().unwrap())
            .with_iter_limit(3)
            .run(&rules);
        let ex = Extractor::new(&runner.egraph, AstSize);
        let (cost, best) = ex.find_best(runner.roots[0]);
        assert_eq!(cost, 1);
        assert_eq!(best.to_string(), "x");
    }

    #[test]
    fn ast_depth_cost() {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let deep = eg.add_expr(&"(+ 1 (+ 2 (+ 3 4)))".parse().unwrap());
        let shallow = eg.add_expr(&"(+ (+ 1 2) (+ 3 4))".parse().unwrap());
        eg.union(deep, shallow);
        eg.rebuild();
        let ex = Extractor::new(&eg, AstDepth);
        let (cost, _) = ex.find_best(deep);
        assert_eq!(cost, 3);
    }

    #[test]
    fn kbest_orders_by_cost() {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let a = eg.add_expr(&"(+ 1 (+ 2 3))".parse().unwrap()); // 5 nodes
        let b = eg.add_expr(&"(* 2 3)".parse().unwrap()); // 3 nodes
        let c = eg.add_expr(&"6".parse().unwrap()); // 1 node
        eg.union(a, b);
        eg.union(b, c);
        eg.rebuild();
        let kb = KBestExtractor::new(&eg, AstSize, 3);
        let results = kb.find_best_k(a);
        let costs: Vec<usize> = results.iter().map(|(c, _)| *c).collect();
        assert_eq!(costs, vec![1, 3, 5]);
        assert_eq!(results[0].1.to_string(), "6");
        // The class has exactly these three; enumeration then stops.
        assert_eq!(kb.iter_best(a).count(), 3);
    }

    #[test]
    fn kbest_k1_matches_extractor() {
        let rules: Vec<Rewrite<Arith, ()>> = vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("assoc", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
        ];
        let runner = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 (+ 3 4)))".parse().unwrap())
            .run(&rules);
        let root = runner.roots[0];
        let ex = Extractor::new(&runner.egraph, AstSize);
        let kb = KBestExtractor::new(&runner.egraph, AstSize, 1);
        assert_eq!(ex.best_cost(root).unwrap(), kb.find_best_k(root)[0].0);
    }

    #[test]
    fn kbest_enumerates_combinations_across_children() {
        // Class P = {1-node, 3-node} appears twice under +; k-best of the
        // parent must enumerate cost combinations 1+1, 1+3, 3+3 (+1 for +).
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let small = eg.add_expr(&"6".parse().unwrap());
        let big = eg.add_expr(&"(* 2 3)".parse().unwrap());
        eg.union(small, big);
        let root = eg.add(Arith::Add([small, small]));
        eg.rebuild();
        let kb = KBestExtractor::new(&eg, AstSize, 4);
        let costs: Vec<usize> = kb.find_best_k(root).iter().map(|(c, _)| *c).collect();
        assert_eq!(costs, vec![3, 5, 5, 7]);
    }

    #[test]
    fn pareto_front_keeps_both_tradeoff_points() {
        // deep: size 7 / depth 4; balanced: size 7 / depth 3;
        // flat product: size 3 / depth 2 — dominates both + siblings.
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let deep = eg.add_expr(&"(+ 1 (+ 2 (+ 3 4)))".parse().unwrap());
        let small = eg.add_expr(&"(* 6 4)".parse().unwrap());
        eg.union(deep, small);
        eg.rebuild();
        let pareto = ParetoExtractor::new(&eg, AstSize, AstDepth);
        let front = pareto.find_front(deep);
        assert_eq!(front.len(), 1, "{front:?}");
        assert_eq!(front[0].0, 3);
        assert_eq!(front[0].1, 2);
        assert_eq!(front[0].2.to_string(), "(* 6 4)");
    }

    #[test]
    fn pareto_front_is_mutually_non_dominating() {
        // Build a class with a genuine trade-off: a small-but-deep term
        // vs a bigger-but-shallow one.
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        // size 5, depth 3.
        let deep = eg.add_expr(&"(+ 1 (+ 2 3))".parse().unwrap());
        // size 7, depth 3 — dominated (same depth, larger).
        let wide = eg.add_expr(&"(+ (+ 1 2) (+ 3 0))".parse().unwrap());
        eg.union(deep, wide);
        eg.rebuild();
        let pareto = ParetoExtractor::new(&eg, AstSize, AstDepth);
        let front = pareto.find_front(deep);
        for (i, (a1, b1, _)) in front.iter().enumerate() {
            for (j, (a2, b2, _)) in front.iter().enumerate() {
                if i != j {
                    let dominates = a1 <= a2 && b1 <= b2 && (a1 < a2 || b1 < b2);
                    assert!(!dominates, "front point {i} dominates {j}: {front:?}");
                }
            }
        }
        // Sorted ascending on A, strictly descending on B.
        for w in front.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 > w[1].1);
        }
    }

    #[test]
    fn pareto_is_deterministic_and_cycle_safe() {
        let rules: Vec<Rewrite<Arith, ()>> = vec![
            Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("add0", "?a", "(+ ?a 0)").unwrap(),
        ];
        let runner = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
            .with_iter_limit(3)
            .run(&rules);
        let root = runner.roots[0];
        let a = ParetoExtractor::new(&runner.egraph, AstSize, AstDepth).find_front(root);
        let b = ParetoExtractor::new(&runner.egraph, AstSize, AstDepth).find_front(root);
        assert!(!a.is_empty());
        assert_eq!(a, b, "pareto extraction must be deterministic");
        // The add0 cycle must not inflate the front: the best size-point
        // is still the 5-node term.
        assert_eq!(a[0].0, 5);
    }

    #[test]
    fn pareto_cap_bounds_the_front() {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let root = eg.add_expr(&"(+ (+ 1 2) (+ 3 4))".parse().unwrap());
        eg.rebuild();
        let pareto = ParetoExtractor::with_cap(&eg, AstSize, AstDepth, 1);
        assert_eq!(pareto.cap(), 1);
        assert!(pareto.find_front(root).len() <= 1);
    }

    #[test]
    fn kbest_handles_cycles() {
        let rules: Vec<Rewrite<Arith, ()>> =
            vec![Rewrite::parse("add0", "?a", "(+ ?a 0)").unwrap()];
        let runner = Runner::new(())
            .with_expr(&"(* x y)".parse().unwrap())
            .with_iter_limit(2)
            .run(&rules);
        let kb = KBestExtractor::new(&runner.egraph, AstSize, 5);
        let results = kb.find_best_k(runner.roots[0]);
        assert_eq!(results[0].1.to_string(), "(* x y)");
        // All results are finite, distinct derivations.
        assert!(results.len() > 1);
        for w in results.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }
}
