//! Extraction: choosing the best, the k best, or the Pareto-optimal
//! terms represented by an e-class under cost functions.
//!
//! Szalinski's final phase extracts the **top-k** lowest-cost LambdaCAD
//! programs so the user can pick the parameterization that suits their
//! edit (paper §5.1). Every extractor runs one dirty-class worklist,
//! [`fixpoint`]: [`Extractor`] and [`KBestExtractor`] over 1-best rows
//! ([`best_table`]), [`ParetoExtractor`] over capped Pareto fronts. A
//! front is a list of [`Derivation`]s costed by the pair of objectives,
//! as a k-best class's lazily grown list is, and [`build_term`] builds
//! the term of a derivation in either list.
//!
//! Extraction reads a graph only through [`GraphView`]: its canonical
//! classes, each class's nodes by position, a class's parent classes and
//! `find`. A live [`EGraph`] is one such graph; a parsed snapshot's
//! [`SnapshotView`](crate::SnapshotView) is another, so an extraction-only
//! resume extracts without rebuilding an e-graph.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Debug;

use crate::{Analysis, EGraph, Id, Language, RecExpr};

/// The read-only graph extraction walks.
///
/// Classes are named by canonical id and hold their nodes at fixed
/// positions; derivations record a node by its position, and ties between
/// equal-cost derivations go to the lower position. Two views that agree
/// on every method therefore extract the same terms in the same order.
pub trait GraphView {
    /// The term language of the nodes.
    type Lang: Language;

    /// The size of the id universe, canonical or not: slot-indexed
    /// extraction tables have this length.
    fn universe(&self) -> usize;

    /// The number of canonical classes.
    fn number_of_classes(&self) -> usize;

    /// The canonical class ids, ascending.
    fn class_ids(&self) -> impl Iterator<Item = Id> + '_;

    /// The nodes of the canonical class `id`, in position order.
    fn class_nodes(&self, id: Id) -> impl Iterator<Item = &Self::Lang> + '_;

    /// The node at position `pos` of the canonical class `id`.
    fn class_node(&self, id: Id, pos: usize) -> &Self::Lang;

    /// The class of every node that has `id`'s class as a child, once per
    /// such child position. The ids may be stale: resolve them with
    /// [`GraphView::find`].
    fn parent_classes(&self, id: Id) -> impl Iterator<Item = Id> + '_;

    /// The canonical id of `id`'s class.
    fn find(&self, id: Id) -> Id;
}

/// The live e-graph, read through its class table, arena and parent lists.
impl<L: Language, N: Analysis<L>> GraphView for EGraph<L, N> {
    type Lang = L;

    fn universe(&self) -> usize {
        EGraph::universe(self)
    }

    fn number_of_classes(&self) -> usize {
        EGraph::number_of_classes(self)
    }

    fn class_ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.classes().map(|class| class.id)
    }

    fn class_nodes(&self, id: Id) -> impl Iterator<Item = &L> + '_ {
        EGraph::class_nodes(self, id)
    }

    fn class_node(&self, id: Id, pos: usize) -> &L {
        self.node(self[id].node_ids()[pos])
    }

    fn parent_classes(&self, id: Id) -> impl Iterator<Item = Id> + '_ {
        self.class_parents(id).iter().map(|&(_, class)| class)
    }

    fn find(&self, id: Id) -> Id {
        EGraph::find(self, id)
    }
}

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

/// The one extraction fixpoint: a table of rows slot-indexed by canonical
/// id, each starting at `R::default()` (nothing known).
///
/// Dirty-class worklist: each pass visits the dirty classes in ascending
/// id order and calls `recompute(rows, class)`, which updates the class's
/// row in place from the current rows and returns whether it changed
/// (Gauss–Seidel: a class reads the rows recomputed earlier in the same
/// pass). A changed row marks its parent classes dirty for the next pass.
/// The fixpoint stops after a pass that marks nothing, or after
/// `classes + 2` passes. Costs strictly greater than each child's never
/// reach that bound: a settled row's terms never repeat a class along a
/// path, so they are at most `classes` levels deep, and a class whose
/// terms are `h` levels deep has settled after pass `h`.
fn fixpoint<G: GraphView, R: Default>(
    egraph: &G,
    mut recompute: impl FnMut(&mut [R], Id) -> bool,
) -> Vec<R> {
    let universe = egraph.universe();
    let mut rows: Vec<R> = std::iter::repeat_with(R::default).take(universe).collect();
    let mut dirty = vec![true; universe];
    let mut next_dirty = vec![false; universe];
    let mut passes_left = egraph.number_of_classes() + 2;
    let mut any_dirty = true;
    while any_dirty && passes_left > 0 {
        passes_left -= 1;
        any_dirty = false;
        for id in egraph.class_ids() {
            if !dirty[usize::from(id)] {
                continue;
            }
            if recompute(&mut rows, id) {
                for pid in egraph.parent_classes(id) {
                    next_dirty[usize::from(egraph.find(pid))] = true;
                    any_dirty = true;
                }
            }
        }
        std::mem::swap(&mut dirty, &mut next_dirty);
        next_dirty.fill(false);
    }
    rows
}

/// Builds the 1-best table of the whole graph with [`fixpoint`]. A class's
/// row improves whenever one of its e-nodes is cheaper than the row, ties
/// going to the smaller e-node, which makes the least fixpoint unique and
/// so independent of class iteration order.
fn best_table<G: GraphView, CF: CostFunction<G::Lang>>(
    egraph: &G,
    cost_function: &mut CF,
) -> Vec<BestRow<CF::Cost>> {
    let mut child_costs = Vec::new();
    fixpoint(egraph, move |best: &mut [BestRow<CF::Cost>], id| {
        let slot = usize::from(id);
        let mut improved = false;
        for (pos, node) in egraph.class_nodes(id).enumerate() {
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
                    cost < *old || (cost == *old && node < egraph.class_node(id, *old_pos))
                }
                None => true,
            };
            if better {
                best[slot] = Some((cost, pos));
                improved = true;
            }
        }
        improved
    })
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
pub struct Extractor<'a, G: GraphView, CF: CostFunction<G::Lang>> {
    egraph: &'a G,
    /// The 1-best table (see [`best_table`]).
    best: Vec<BestRow<CF::Cost>>,
}

impl<'a, G: GraphView, CF: CostFunction<G::Lang>> Extractor<'a, G, CF> {
    /// Builds the cost table for the whole e-graph.
    pub fn new(egraph: &'a G, mut cost_function: CF) -> Self {
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
    pub fn find_best(&self, id: Id) -> (CF::Cost, RecExpr<G::Lang>) {
        let root = self.egraph.find(id);
        let cost = self
            .best_cost(root)
            .unwrap_or_else(|| panic!("no extractable term for class {root}"));
        let mut expr = RecExpr::new();
        let mut memo = HashMap::new();
        self.build(root, &mut expr, &mut memo);
        (cost, expr)
    }

    fn build(&self, id: Id, expr: &mut RecExpr<G::Lang>, memo: &mut HashMap<Id, Id>) -> Id {
        let id = self.egraph.find(id);
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        let &(_, pos) = self.best[usize::from(id)]
            .as_ref()
            .unwrap_or_else(|| panic!("no extractable term for class {id}"));
        let node = self
            .egraph
            .class_node(id, pos)
            .map_children(|c| self.build(c, expr, memo));
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
/// the extraction order, and its tie-break is what keeps top-k output and
/// Pareto fronts deterministic. A rebuilt class's nodes are value-sorted
/// and deduplicated, so node position orders as the e-node itself would.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Derivation<C> {
    cost: C,
    pos: usize,
    /// `choices[i]` indexes the derivation list of `node.children()[i]`'s
    /// class.
    choices: Vec<usize>,
}

/// Terms deeper than this are not built (see [`build_term`]).
const MAX_TERM_DEPTH: usize = 10_000;

/// Appends the term of derivation `j` of class `slot` to `expr`, reading
/// every class's derivation list from `lists` (slot-indexed by canonical
/// id). `None` when a choice names a derivation its list does not hold
/// or the term reaches [`MAX_TERM_DEPTH`] levels; the latter happens only
/// when costs are not strictly monotone and a derivation refers back to
/// itself. `expr` may then hold the part built so far.
fn build_term<G: GraphView, C, D: AsRef<[Derivation<C>]>>(
    egraph: &G,
    lists: &[D],
    slot: usize,
    j: usize,
    expr: &mut RecExpr<G::Lang>,
    depth: usize,
) -> Option<Id> {
    if depth >= MAX_TERM_DEPTH {
        return None;
    }
    let d = lists[slot].as_ref().get(j)?;
    let mut choices = d.choices.iter();
    let mut complete = true;
    let node = egraph.class_node(Id::from(slot), d.pos).map_children(|c| {
        let j = *choices.next().expect("one choice per child");
        if complete {
            let child = usize::from(egraph.find(c));
            match build_term(egraph, lists, child, j, expr, depth + 1) {
                Some(id) => return id,
                None => complete = false,
            }
        }
        c
    });
    complete.then(|| expr.add(node))
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

impl<C> AsRef<[Derivation<C>]> for ClassDerivations<C> {
    fn as_ref(&self) -> &[Derivation<C>] {
        &self.found
    }
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
pub struct KBestExtractor<'a, G: GraphView, CF: CostFunction<G::Lang>> {
    egraph: &'a G,
    k: usize,
    /// The 1-best table (see [`best_table`]); it picks every class's
    /// first derivation.
    best: Vec<BestRow<CF::Cost>>,
    lazy: RefCell<LazyTable<CF, CF::Cost>>,
}

impl<'a, G: GraphView, CF: CostFunction<G::Lang>> KBestExtractor<'a, G, CF> {
    /// Builds the 1-best table for the whole e-graph; derivations beyond
    /// each class's first are enumerated on demand.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(egraph: &'a G, mut cost_function: CF, k: usize) -> Self {
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
    pub fn find_best_k(&self, id: Id) -> Vec<(CF::Cost, RecExpr<G::Lang>)> {
        let mut terms: Vec<_> = self.iter_best(id).take(self.k).collect();
        // A no-op for monotone cost functions; see the type-level docs.
        terms.sort_by(|a, b| a.0.cmp(&b.0));
        terms
    }

    /// Iterates over the derivations of `id`'s class, one term per call
    /// to `next`, in enumeration order: cheapest first when the cost
    /// function is monotone in each child's cost. Not capped at `k`, and
    /// endless on a cyclic class — `take` what you need.
    ///
    /// # Panics
    ///
    /// Panics on a term 10 000 levels deep.
    pub fn iter_best(&self, id: Id) -> impl Iterator<Item = (CF::Cost, RecExpr<G::Lang>)> + '_ {
        let root = usize::from(self.egraph.find(id));
        (0..).map_while(move |j| {
            let mut lazy = self.lazy.borrow_mut();
            if !self.derive(&mut lazy, root, j) {
                return None;
            }
            let mut expr = RecExpr::new();
            build_term(self.egraph, &lazy.classes, root, j, &mut expr, 0)
                .expect("a derivation's choices exist; only depth stops the build");
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
        let node = self.egraph.class_node(Id::from(slot), pos);
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
        for (pos, node) in self.egraph.class_nodes(Id::from(slot)).enumerate() {
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
        let node = self.egraph.class_node(Id::from(slot), pos);
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
    fn cost_of(
        &self,
        lazy: &mut LazyTable<CF, CF::Cost>,
        node: &G::Lang,
        choices: &[usize],
    ) -> CF::Cost {
        lazy.child_costs.clear();
        for (&c, &j) in node.children().iter().zip(choices) {
            let cost = &lazy.classes[self.slot_of(c)].found[j].cost;
            lazy.child_costs.push(cost.clone());
        }
        lazy.cost_function.cost(node, &lazy.child_costs)
    }
}

/// One class's Pareto front: derivations costed `(cost_a, cost_b)`,
/// ascending and mutually non-dominating (empty: no term known).
type Front<A, B> = Vec<Derivation<(A, B)>>;

/// One point of an extracted front: its two costs and its term.
type FrontTerm<A, B, L> = (A, B, RecExpr<L>);

/// Default bound on the number of front points kept per e-class (see
/// [`ParetoExtractor::with_cap`]).
pub const DEFAULT_PARETO_CAP: usize = 8;

/// Two-objective Pareto-front extraction: for a class, the set of
/// derivable terms whose `(cost_a, cost_b)` pairs are **mutually
/// non-dominating** (no term is at least as cheap on both objectives and
/// strictly cheaper on one as another).
///
/// The same bottom-up fixpoint as [`Extractor`]'s, with a
/// dominance-pruned front of derivations as each class's row: a class's
/// candidates are every e-node's derivations over its children's current
/// fronts, ordered by `(cost_a, cost_b)`, then e-node, then the
/// children's front positions. Fronts are **capped** per class (default
/// [`DEFAULT_PARETO_CAP`], lowest `(cost_a, cost_b)` first) so work stays
/// bounded on large graphs; the cap, the candidate order and the pruning
/// sweep are all deterministic, so two runs over equal e-graphs return
/// identical fronts.
///
/// # Correctness requirement
///
/// The **first** cost function must be strictly monotone (a node's cost
/// strictly greater than each child's, as for [`Extractor`]); the second
/// only needs to be non-decreasing. Cycle-generated derivations then
/// cost strictly more on objective A with objective B no smaller, so
/// they are dominated and pruned. A front point whose term would be
/// 10 000 levels deep, which only a first objective that is not strictly
/// monotone can produce, is dropped from [`ParetoExtractor::find_front`].
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
pub struct ParetoExtractor<'a, G: GraphView, CA: CostFunction<G::Lang>, CB: CostFunction<G::Lang>> {
    egraph: &'a G,
    cap: usize,
    /// Every class's front, slot-indexed by canonical id.
    fronts: Vec<Front<CA::Cost, CB::Cost>>,
}

impl<'a, G: GraphView, CA: CostFunction<G::Lang>, CB: CostFunction<G::Lang>>
    ParetoExtractor<'a, G, CA, CB>
{
    /// Builds the Pareto table with the default per-class cap.
    pub fn new(egraph: &'a G, cost_a: CA, cost_b: CB) -> Self {
        Self::with_cap(egraph, cost_a, cost_b, DEFAULT_PARETO_CAP)
    }

    /// Builds the Pareto table keeping at most `cap` front points per
    /// class (lowest `(cost_a, cost_b)` kept when the true front is
    /// wider).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_cap(egraph: &'a G, mut cost_a: CA, mut cost_b: CB, cap: usize) -> Self {
        assert!(cap > 0, "pareto cap must be positive");
        let mut candidates = Vec::new();
        let fronts = fixpoint(egraph, |fronts: &mut [Front<_, _>], id| {
            candidates.clear();
            for (pos, node) in egraph.class_nodes(id).enumerate() {
                push_derivations(
                    egraph,
                    fronts,
                    node,
                    pos,
                    &mut cost_a,
                    &mut cost_b,
                    &mut candidates,
                );
            }
            candidates.sort_unstable();
            // Sorted by (a, b): a candidate survives iff its b is strictly
            // below every kept point's (equal (a, b) candidates keep only
            // the first).
            let mut front: Front<CA::Cost, CB::Cost> = Vec::new();
            for d in candidates.drain(..) {
                if front.last().is_some_and(|kept| d.cost.1 >= kept.cost.1) {
                    continue;
                }
                front.push(d);
                if front.len() == cap {
                    break;
                }
            }
            let row = &mut fronts[usize::from(id)];
            let changed = front != *row;
            *row = front;
            changed
        });
        ParetoExtractor {
            egraph,
            cap,
            fronts,
        }
    }

    /// The configured per-class front cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Extracts the Pareto front of `id`'s class: mutually
    /// non-dominating `(cost_a, cost_b, term)` triples, sorted by
    /// ascending `cost_a` (hence descending `cost_b`). Empty when the
    /// class has no extractable term.
    pub fn find_front(&self, id: Id) -> Vec<FrontTerm<CA::Cost, CB::Cost, G::Lang>> {
        let root = usize::from(self.egraph.find(id));
        (0..self.fronts[root].len())
            .filter_map(|j| {
                let mut expr = RecExpr::new();
                build_term(self.egraph, &self.fronts, root, j, &mut expr, 0)?;
                let (a, b) = self.fronts[root][j].cost.clone();
                Some((a, b, expr))
            })
            .collect()
    }
}

/// Pushes every derivation of `node`, the e-node at `pos` in its class,
/// over its children's current fronts (the full cross-product; fronts are
/// capped, so it is bounded).
fn push_derivations<G: GraphView, CA: CostFunction<G::Lang>, CB: CostFunction<G::Lang>>(
    egraph: &G,
    fronts: &[Front<CA::Cost, CB::Cost>],
    node: &G::Lang,
    pos: usize,
    cost_a: &mut CA,
    cost_b: &mut CB,
    out: &mut Vec<Derivation<(CA::Cost, CB::Cost)>>,
) {
    let child_fronts: Vec<_> = node
        .children()
        .iter()
        .map(|&c| &fronts[usize::from(egraph.find(c))])
        .collect();
    if child_fronts.iter().any(|front| front.is_empty()) {
        return;
    }
    let mut choices = vec![0usize; child_fronts.len()];
    let (mut a_costs, mut b_costs) = (Vec::new(), Vec::new());
    loop {
        a_costs.clear();
        b_costs.clear();
        for (front, &j) in child_fronts.iter().zip(&choices) {
            a_costs.push(front[j].cost.0.clone());
            b_costs.push(front[j].cost.1.clone());
        }
        out.push(Derivation {
            cost: (cost_a.cost(node, &a_costs), cost_b.cost(node, &b_costs)),
            pos,
            choices: choices.clone(),
        });
        // Odometer step over the cross-product of child fronts: advance
        // the first choice that has a next entry, reset those before it.
        let next = (0..choices.len()).find(|&i| choices[i] + 1 < child_fronts[i].len());
        let Some(i) = next else { return };
        choices[..i].fill(0);
        choices[i] += 1;
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
