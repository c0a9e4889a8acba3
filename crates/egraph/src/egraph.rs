//! The [`EGraph`] itself: hash-consed e-nodes interned in a flat arena, a
//! union-find over e-classes, and deferred congruence-closure maintenance
//! ("rebuilding").
//!
//! # Storage layout: arenas and SoA
//!
//! Every e-node is interned exactly once into a flat node arena and
//! referred to by a `Copy` [`NodeId`]; everything else is a dense,
//! id-indexed vector:
//!
//! ```text
//!             NodeArena (append-only, deduplicating)
//!             ┌─────┬─────┬─────┬─────┬────
//!   nodes:    │ L₀  │ L₁  │ L₂  │ L₃  │ ...     NodeId = index
//!             └─────┴─────┴─────┴─────┴────
//!   memo:     │ →c₀ │ →c₀ │  ∅  │ →c₂ │ ...     NodeId → class Id
//!             └─────┴─────┴─────┴─────┴────     (no hashing to probe)
//!
//!             per-class tables (slot = canonical Id, SoA split)
//!             ┌───────────────┬───────────────┬────
//!   classes:  │ EClass{nodes: │      ∅        │ ...  ∅ = absorbed by
//!             │  Vec<NodeId>, │ (absorbed)    │      a union
//!             │  data}        │               │
//!             ├───────────────┼───────────────┼────
//!   parents:  │ Vec<(NodeId,  │   (moved to   │ ...  every e-node with
//!             │      Id)>     │    winner)    │      this class as a child
//!             └───────────────┴───────────────┴────
//! ```
//!
//! Mutations push `Copy` `(NodeId, Id)` pairs; nodes themselves are cloned
//! only on first interning. Class iteration, e-matching, and extraction
//! walk `&[NodeId]` slices and resolve them through the arena
//! cache-linearly.
//!
//! # Rebuild cost: only what changed
//!
//! A rebuild canonicalizes the classes touched since the previous one, not
//! the whole graph. The e-graph keeps a *dirty list* of class ids (possibly
//! stale): `add` pushes the new class, a union pushes the winner, and
//! congruence repair pushes the class of every `(node, class)` parent
//! entry it repairs. Every class outside the list is unchanged since it was
//! last canonicalized, and none of its children was absorbed (an absorbed
//! child's parent entries are exactly what repair walks), so re-sorting it
//! would be a no-op. `rebuild` maps the list through `find`, sorts and
//! dedups it, and visits the classes in ascending id order: the order a
//! whole-graph pass would intern re-canonicalized nodes in, so [`NodeId`]s
//! come out the same. The operator index is kept up the same way: a union
//! records the absorbed class's operator keys (only while the index is
//! built), and `rebuild` re-canonicalizes just those keys' id lists. The
//! total node count is a running sum (`add` adds one, a union moves nodes,
//! a rebuild subtracts the duplicates it drops).
//!
//! A rebuild keeps what it touched: its canonicalized dirty list plus the
//! classes whose analysis data its repair loop changed, sorted. The
//! runner's delta matching starts from that list.
//!
//! # Id stability (what snapshots rely on)
//!
//! - Class [`Id`]s are assigned densely by creation order and are *never*
//!   reused or compacted; a union only redirects the union-find and blanks
//!   the absorbed slot. The canonical id of a class is therefore stable
//!   across save/restore, and the `szsnap` format serializes exactly the
//!   union-find parent vector plus each canonical class's nodes.
//! - [`NodeId`]s are derived state, private to one `EGraph` instance: they
//!   are assigned by interning order, which depends on rewrite history.
//!   Snapshots never contain them; restore re-interns every node, so the
//!   arena (like the memo, parent lists, and op index) needs no format
//!   version bump.
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::marker::PhantomData;
use std::sync::OnceLock;

use crate::arena::{FxHashMap, NodeArena};
use crate::subst::InlineVec;
use crate::{Analysis, Id, Language, NodeId, RecExpr, UnionFind};

/// An equivalence class of e-nodes, plus its analysis data.
///
/// The nodes are stored as [`NodeId`]s into the e-graph's arena; resolve
/// them with [`EGraph::node`] (or iterate with [`EGraph::nodes_of`] /
/// [`EGraph::class_nodes`]).
#[derive(Debug, Clone)]
pub struct EClass<L, D> {
    /// This class's canonical id (at the time of the last rebuild).
    pub id: Id,
    /// The e-nodes in this class, as arena ids. Canonical and deduplicated
    /// after [`EGraph::rebuild`], sorted by node value.
    pub(crate) nodes: Vec<NodeId>,
    /// The analysis value for this class.
    pub data: D,
    pub(crate) _lang: PhantomData<L>,
}

impl<L: Language, D> EClass<L, D> {
    /// The arena ids of the e-nodes in this class.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The number of e-nodes in this class.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the class has no nodes (never the case for a live class).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// An e-graph: a compact representation of a (possibly exponential) set of
/// equivalent terms, with congruence closure maintained lazily.
///
/// This follows the design of egg (Willsey et al.): mutations (adds, unions)
/// are cheap and defer invariant repair; [`EGraph::rebuild`] restores
/// congruence and analysis invariants in one batched pass. Szalinski's
/// paper credits exactly this structure for mitigating phase ordering.
///
/// See the [module docs](self) for the arena/SoA storage layout and the
/// id-stability contract.
///
/// # Examples
///
/// ```
/// use sz_egraph::{EGraph, tests_lang::Arith};
/// let mut eg: EGraph<Arith, ()> = EGraph::default();
/// let a = eg.add_expr(&"(+ x 1)".parse().unwrap());
/// let b = eg.add_expr(&"(+ 1 x)".parse().unwrap());
/// assert_ne!(eg.find(a), eg.find(b));
/// eg.union(a, b);
/// eg.rebuild();
/// assert_eq!(eg.find(a), eg.find(b));
/// ```
#[derive(Clone)]
pub struct EGraph<L: Language, N: Analysis<L>> {
    /// The user-provided analysis (often a unit struct).
    pub analysis: N,
    unionfind: UnionFind,
    /// Every distinct e-node, interned once.
    arena: NodeArena<L>,
    /// Hash-cons memo, dense over the arena: `memo[nid]` is the class the
    /// node was last recorded in (possibly stale — resolve through
    /// [`EGraph::find`]). Probing an interned node costs one index, no
    /// hashing. Kept the same length as the arena.
    memo: Vec<Option<Id>>,
    /// Number of `Some` entries in `memo`.
    memo_len: usize,
    /// Dense class table, slot-indexed by canonical id; `None` slots were
    /// absorbed by unions.
    classes: Vec<Option<EClass<L, N::Data>>>,
    /// Number of `Some` entries in `classes`.
    n_classes: usize,
    /// SoA split of per-class parent lists, slot-indexed like `classes`:
    /// `parents[c]` holds `(node, class-the-node-lives-in)` for every
    /// e-node with `c` as a child. Moved (not cloned) to the winning slot
    /// on union. Used for congruence repair.
    parents: Vec<Vec<(NodeId, Id)>>,
    pending: Vec<(NodeId, Id)>,
    analysis_pending: VecDeque<(NodeId, Id)>,
    clean: bool,
    /// Operator index: discriminant (node with children zeroed) → sorted
    /// canonical ids of the classes containing an e-node with that
    /// operator. **Derived state**, valid only while [`EGraph::is_clean`]:
    /// `add` appends incrementally, a union records the absorbed class's
    /// keys in `stale_ops` and `rebuild` re-canonicalizes only those
    /// keys' lists, and snapshot restore leaves it unset, to be built from
    /// the restored classes on first use, the only whole-index build (it
    /// is never serialized, and an extraction-only resume never searches).
    /// Compiled pattern search uses it to visit only the classes that can
    /// possibly match a pattern's root operator.
    op_index: OnceLock<FxHashMap<L, Vec<Id>>>,
    /// Operator keys of the classes absorbed since the last rebuild,
    /// recorded only while `op_index` is built: the index lists that may
    /// name a non-canonical id.
    stale_ops: Vec<L>,
    /// Classes touched since the last rebuild (ids possibly stale): the
    /// only classes `rebuild` canonicalizes (see the [module docs](self)).
    dirty: Vec<Id>,
    /// Classes whose analysis data the current rebuild's repair loop
    /// changed (ids possibly stale).
    data_changed: Vec<Id>,
    /// What the last rebuild touched, canonical, sorted and deduplicated:
    /// its dirty list plus `data_changed` (see [`EGraph::touched`]).
    touched: Vec<Id>,
    /// Running total of node-list lengths over the live classes.
    n_nodes: usize,
}

impl<L: Language, N: Analysis<L> + Default> Default for EGraph<L, N> {
    fn default() -> Self {
        EGraph::new(N::default())
    }
}

impl<L: Language, N: Analysis<L>> fmt::Debug for EGraph<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EGraph")
            .field("classes", &self.n_classes)
            .field("nodes", &self.total_number_of_nodes())
            .field("clean", &self.clean)
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> EGraph<L, N> {
    /// Creates an empty e-graph with the given analysis.
    pub fn new(analysis: N) -> Self {
        EGraph {
            analysis,
            unionfind: UnionFind::new(),
            arena: NodeArena::default(),
            memo: Vec::new(),
            memo_len: 0,
            classes: Vec::new(),
            n_classes: 0,
            parents: Vec::new(),
            pending: Vec::new(),
            analysis_pending: VecDeque::new(),
            clean: true,
            op_index: OnceLock::from(FxHashMap::default()),
            stale_ops: Vec::new(),
            dirty: Vec::new(),
            data_changed: Vec::new(),
            touched: Vec::new(),
            n_nodes: 0,
        }
    }

    /// The operator-index key for a node: the node with its children
    /// zeroed, i.e. exactly the equivalence [`Language::matches`] checks.
    fn op_key(node: &L) -> L {
        node.map_children(|_| Id::from(0usize))
    }

    /// The canonical ids of every class containing an e-node whose
    /// operator matches `op`'s (children are ignored), in sorted order.
    ///
    /// This is the operator index compiled pattern search draws root
    /// candidates from. Like search itself it is only meaningful on a
    /// clean e-graph; entries may be stale while mutations are pending.
    pub fn classes_with_op(&self, op: &L) -> &[Id] {
        self.op_index()
            .get(&Self::op_key(op))
            .map_or(&[], |ids| ids.as_slice())
    }

    /// Number of distinct operators in the index (diagnostics/tests).
    pub fn number_of_ops(&self) -> usize {
        self.op_index().len()
    }

    /// The operator index, built from the classes on first use after a
    /// snapshot restore.
    fn op_index(&self) -> &FxHashMap<L, Vec<Id>> {
        self.op_index.get_or_init(|| {
            let mut index: FxHashMap<L, Vec<Id>> = FxHashMap::default();
            for class in self.classes() {
                for &nid in &class.nodes {
                    index
                        .entry(Self::op_key(self.arena.get(nid)))
                        .or_default()
                        .push(class.id);
                }
            }
            // Classes come in ascending id order, so every list is already
            // sorted; a class with several nodes of one operator repeats.
            for ids in index.values_mut() {
                ids.dedup();
            }
            index
        })
    }

    /// Read access to the union-find, for snapshot capture.
    pub(crate) fn unionfind(&self) -> &UnionFind {
        &self.unionfind
    }

    /// Reconstructs an e-graph from snapshot parts: the full union-find
    /// plus each canonical class's nodes. The arena, hash-cons memo and
    /// parent lists are derived (re-interned here, never serialized), and
    /// so is the op index, which is built on first use; analysis data is
    /// recomputed to fixpoint from the nodes (seeded at `Default`, joined
    /// with [`Analysis::merge`]).
    /// [`Analysis::modify`] is *not* re-run — its structural effects are
    /// already part of the snapshotted node set. Every restored class
    /// starts on the dirty list, so the first rebuild canonicalizes all of
    /// them through the same code as any other rebuild.
    /// `n_nodes` must be the total number of nodes in `class_list`.
    ///
    /// Callers (the `snapshot` module) must have validated that class
    /// ids and node children are canonical and that every union-find
    /// root has a class.
    pub(crate) fn from_snapshot_parts<'a>(
        analysis: N,
        unionfind: UnionFind,
        class_list: impl ExactSizeIterator<Item = (Id, &'a [L])>,
        n_nodes: usize,
    ) -> Self
    where
        N::Data: Default,
    {
        let universe = unionfind.size();
        let n_classes = class_list.len();
        let mut arena: NodeArena<L> = NodeArena::with_capacity(n_nodes);
        let mut memo: Vec<Option<Id>> = Vec::with_capacity(n_nodes);
        let mut memo_len = 0usize;
        let mut classes: Vec<Option<EClass<L, N::Data>>> = Vec::new();
        classes.resize_with(universe, || None);
        let mut parents: Vec<Vec<(NodeId, Id)>> = vec![Vec::new(); universe];
        let mut dirty = Vec::with_capacity(n_classes);
        // Interning follows (sorted class, node) order, so arena ids and
        // parent lists come out deterministic.
        for (id, nodes) in class_list {
            dirty.push(id);
            let mut nids = Vec::with_capacity(nodes.len());
            for node in nodes {
                let nid = arena.intern(node.clone());
                if memo.len() < arena.len() {
                    memo.resize(arena.len(), None);
                }
                if memo[nid.idx()].replace(id).is_none() {
                    memo_len += 1;
                }
                for &child in node.children() {
                    parents[usize::from(child)].push((nid, id));
                }
                nids.push(nid);
            }
            classes[usize::from(id)] = Some(EClass {
                id,
                nodes: nids,
                data: N::Data::default(),
                _lang: PhantomData,
            });
        }
        let mut egraph = EGraph {
            analysis,
            unionfind,
            arena,
            memo,
            memo_len,
            classes,
            n_classes,
            parents,
            pending: Vec::new(),
            analysis_pending: VecDeque::new(),
            clean: true,
            // Derived state excluded from the snapshot format (no version
            // bump needed), built on first use.
            op_index: OnceLock::new(),
            stale_ops: Vec::new(),
            dirty,
            data_changed: Vec::new(),
            touched: Vec::new(),
            n_nodes,
        };
        // Analysis fixpoint. Ascending id order roughly follows creation
        // order (children before parents), so this usually converges in
        // two passes; cycles are handled by iterating until quiescent.
        // Nodes are visited by position, so `make` can borrow the graph
        // while the class's own list stays in place.
        loop {
            let mut changed = false;
            for slot in 0..egraph.classes.len() {
                let Some(class) = &egraph.classes[slot] else {
                    continue;
                };
                for i in 0..class.nodes.len() {
                    let class = egraph.classes[slot].as_ref().expect("class exists");
                    let data = N::make(&egraph, egraph.arena.get(class.nodes[i]));
                    let class = egraph.classes[slot].as_mut().expect("class exists");
                    changed |= egraph.analysis.merge(&mut class.data, data).0;
                }
            }
            if !changed {
                break;
            }
        }
        egraph
    }

    /// The number of live e-classes.
    pub fn number_of_classes(&self) -> usize {
        self.n_classes
    }

    /// The size of the id universe: every id ever created, canonical or
    /// not. Dense side tables (extraction, benches) index by canonical id
    /// slot, so this is their length.
    pub fn universe(&self) -> usize {
        self.unionfind.size()
    }

    /// The total number of e-nodes across all classes, kept as a running
    /// count (a node a union brings into a class twice counts twice until
    /// the next [`EGraph::rebuild`]).
    pub fn total_number_of_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The number of distinct e-nodes ever interned into the arena.
    pub fn arena_size(&self) -> usize {
        self.arena.len()
    }

    /// The number of entries in the hash-cons memo (distinct canonical
    /// e-nodes currently recorded; a telemetry gauge for memory profiling).
    pub fn memo_size(&self) -> usize {
        self.memo_len
    }

    /// True if [`EGraph::rebuild`] has run since the last mutation, i.e.
    /// congruence and analysis invariants hold.
    pub fn is_clean(&self) -> bool {
        self.clean
    }

    /// Canonicalizes an e-class id.
    pub fn find(&self, id: Id) -> Id {
        self.unionfind.find_immutable(id)
    }

    /// Iterates over all e-classes, in ascending canonical-id order.
    pub fn classes(&self) -> impl Iterator<Item = &EClass<L, N::Data>> {
        self.classes.iter().filter_map(|c| c.as_ref())
    }

    /// Iterates mutably over all e-classes (analysis data may be tweaked;
    /// structural edits must go through [`EGraph::add`]/[`EGraph::union`]).
    pub fn classes_mut(&mut self) -> impl Iterator<Item = &mut EClass<L, N::Data>> {
        self.classes.iter_mut().filter_map(|c| c.as_mut())
    }

    /// Resolves an arena id to its e-node.
    #[inline]
    pub fn node(&self, nid: NodeId) -> &L {
        self.arena.get(nid)
    }

    /// Iterates over the e-nodes of `class` (which must belong to this
    /// e-graph), resolving arena ids.
    pub fn nodes_of<'a>(
        &'a self,
        class: &'a EClass<L, N::Data>,
    ) -> impl Iterator<Item = &'a L> + 'a {
        class.nodes.iter().map(move |&nid| self.arena.get(nid))
    }

    /// Iterates over the e-nodes of the class of `id`.
    pub fn class_nodes(&self, id: Id) -> impl Iterator<Item = &L> + '_ {
        self[id].nodes.iter().map(move |&nid| self.arena.get(nid))
    }

    /// Iterates over the leaf e-nodes (no children) of the class of `id`.
    pub fn class_leaves(&self, id: Id) -> impl Iterator<Item = &L> + '_ {
        self.class_nodes(id).filter(|n| n.is_leaf())
    }

    /// Every e-node with the class of `id` as a child, as `(node id,
    /// class-the-node-lives-in)` pairs; the class ids may be stale —
    /// resolve through [`EGraph::find`]. Congruence repair and dense
    /// extraction's dirty-propagation both walk this.
    pub fn class_parents(&self, id: Id) -> &[(NodeId, Id)] {
        &self.parents[usize::from(self.find(id))]
    }

    fn canonicalize(&self, mut enode: L) -> L {
        enode.update_children(|id| self.find(id));
        enode
    }

    /// Canonicalizes an interned node's children, interning the result.
    /// Skips re-hashing when the node is already canonical (the common
    /// case during rebuilds).
    fn canonicalize_nid(&mut self, nid: NodeId) -> NodeId {
        let node = self.arena.get(nid);
        if node
            .children()
            .iter()
            .all(|&c| self.unionfind.find_immutable(c) == c)
        {
            return nid;
        }
        let node = {
            let uf = &mut self.unionfind;
            self.arena.get(nid).map_children(|c| uf.find(c))
        };
        self.intern_node(node)
    }

    /// Interns a node, keeping the memo table the same length as the
    /// arena. All interning inside the e-graph goes through here.
    fn intern_node(&mut self, enode: L) -> NodeId {
        let nid = self.arena.intern(enode);
        if self.memo.len() < self.arena.len() {
            self.memo.resize(self.arena.len(), None);
        }
        nid
    }

    /// Records `nid → class` in the memo, returning the previous entry.
    fn memo_insert(&mut self, nid: NodeId, class: Id) -> Option<Id> {
        let old = self.memo[nid.idx()].replace(class);
        if old.is_none() {
            self.memo_len += 1;
        }
        old
    }

    /// Looks up an e-node (children need not be canonical) without adding.
    pub fn lookup(&self, enode: L) -> Option<Id> {
        let enode = self.canonicalize(enode);
        let nid = self.arena.lookup(&enode)?;
        self.memo[nid.idx()].map(|id| self.find(id))
    }

    /// Looks up an entire expression; returns its class if every node is
    /// already represented.
    pub fn lookup_expr(&self, expr: &RecExpr<L>) -> Option<Id> {
        let mut ids: InlineVec<Id, 8> = InlineVec::with_capacity(expr.len());
        for (_, node) in expr.iter() {
            let node = node.map_children(|c| ids[usize::from(c)]);
            let id = self.lookup(node)?;
            ids.push(id);
        }
        ids.last().copied()
    }

    /// Adds an e-node, returning the id of its class. No-op (returning the
    /// existing class) if a congruent node is already present.
    pub fn add(&mut self, mut enode: L) -> Id {
        {
            let uf = &mut self.unionfind;
            enode.update_children(|id| uf.find(id));
        }
        if let Some(nid) = self.arena.lookup(&enode) {
            if let Some(existing) = self.memo[nid.idx()] {
                return self.unionfind.find(existing);
            }
        }
        let nid = self.intern_node(enode);
        let id = self.unionfind.make_set();
        self.classes.push(None);
        self.parents.push(Vec::new());
        let data = N::make(self, self.arena.get(nid));
        // The node's children are canonical: push `Copy` parent entries.
        let n_children = self.arena.get(nid).children().len();
        for i in 0..n_children {
            let child = self.arena.get(nid).children()[i];
            self.parents[usize::from(child)].push((nid, id));
        }
        self.classes[usize::from(id)] = Some(EClass {
            id,
            nodes: vec![nid],
            data,
            _lang: PhantomData,
        });
        self.n_classes += 1;
        self.n_nodes += 1;
        self.dirty.push(id);
        // Incremental op-index maintenance: the fresh id is the largest
        // yet, so pushing keeps each candidate list sorted. An index not
        // built yet (after a restore) reads the new class when it is
        // built.
        if let Some(index) = self.op_index.get_mut() {
            let key = Self::op_key(self.arena.get(nid));
            index.entry(key).or_default().push(id);
        }
        self.memo_insert(nid, id);
        N::modify(self, id);
        id
    }

    /// Adds a whole expression, returning the class of its root.
    pub fn add_expr(&mut self, expr: &RecExpr<L>) -> Id {
        let mut ids: Vec<Id> = Vec::with_capacity(expr.len());
        for (_, node) in expr.iter() {
            let node = node.map_children(|c| ids[usize::from(c)]);
            ids.push(self.add(node));
        }
        *ids.last().expect("cannot add an empty expression")
    }

    /// Asserts `a` and `b` equal, merging their classes. Returns the
    /// canonical id and whether anything actually merged.
    ///
    /// Congruence is restored lazily: call [`EGraph::rebuild`] before the
    /// next search.
    pub fn union(&mut self, a: Id, b: Id) -> (Id, bool) {
        let a = self.unionfind.find(a);
        let b = self.unionfind.find(b);
        if a == b {
            return (a, false);
        }
        self.clean = false;
        let id = self.perform_union(a, b);
        (id, true)
    }

    fn perform_union(&mut self, a: Id, b: Id) -> Id {
        // Keep the class with more parents as the root so we move less data.
        let (id1, id2) = {
            let pa = self.parents[usize::from(a)].len();
            let pb = self.parents[usize::from(b)].len();
            if pa >= pb {
                (a, b)
            } else {
                (b, a)
            }
        };
        self.unionfind.union(id1, id2);
        let class2 = self.classes[usize::from(id2)]
            .take()
            .expect("class must exist");
        self.n_classes -= 1;
        self.dirty.push(id1);
        // Every index list naming `id2` is under one of its operators.
        if self.op_index.get().is_some() {
            self.stale_ops.extend(
                class2
                    .nodes
                    .iter()
                    .map(|&nid| Self::op_key(self.arena.get(nid))),
            );
        }
        // Move the absorbed class's parents: copy the `Copy` pairs onto
        // the repair worklist, then append the buffer itself to the
        // winner's list — no per-node clones.
        let mut parents2 = std::mem::take(&mut self.parents[usize::from(id2)]);
        self.pending.extend_from_slice(&parents2);

        let class1 = self.classes[usize::from(id1)]
            .as_mut()
            .expect("class must exist");
        let did = self.analysis.merge(&mut class1.data, class2.data);
        if did.0 {
            self.analysis_pending
                .extend(self.parents[usize::from(id1)].iter().copied());
        }
        if did.1 {
            self.analysis_pending.extend(parents2.iter().copied());
        }
        class1.nodes.extend_from_slice(&class2.nodes);
        self.parents[usize::from(id1)].append(&mut parents2);
        N::modify(self, id1);
        id1
    }

    /// Restores congruence and analysis invariants after a batch of
    /// mutations; returns the number of unions performed during repair.
    pub fn rebuild(&mut self) -> usize {
        let mut n_unions = 0;
        while !self.pending.is_empty() || !self.analysis_pending.is_empty() {
            // Egg-style batched repair: drain the worklist one pass at a
            // time, deduplicating before canonicalization (a node is
            // listed once per child, so unions of sibling-heavy classes
            // queue many exact duplicates). Unions performed mid-pass
            // re-queue the absorbed class's parents for the next pass.
            let mut todo = std::mem::take(&mut self.pending);
            todo.sort_unstable();
            todo.dedup();
            for (nid, class) in todo {
                let nid = self.canonicalize_nid(nid);
                let class = self.unionfind.find(class);
                // The class lists a node with a child just absorbed.
                self.dirty.push(class);
                if let Some(old) = self.memo_insert(nid, class) {
                    let old = self.unionfind.find(old);
                    if old != class {
                        self.perform_union(old, class);
                        n_unions += 1;
                    }
                }
            }
            while let Some((nid, id)) = self.analysis_pending.pop_front() {
                let cid = self.unionfind.find(id);
                if self.classes[usize::from(cid)].is_none() {
                    continue;
                }
                let node_data = N::make(self, self.arena.get(nid));
                let class = self.classes[usize::from(cid)]
                    .as_mut()
                    .expect("checked above");
                let did = self.analysis.merge(&mut class.data, node_data);
                if did.0 {
                    self.data_changed.push(cid);
                    self.analysis_pending
                        .extend(self.parents[usize::from(cid)].iter().copied());
                    N::modify(self, cid);
                }
            }
        }
        self.rebuild_classes();
        self.clean = true;
        n_unions
    }

    /// Canonicalizes the dirty classes and the stale op-index lists, and
    /// records what this rebuild touched. Uses `find_immutable` only: path
    /// compression would change the union-find parents a snapshot
    /// serializes.
    fn rebuild_classes(&mut self) {
        let EGraph {
            unionfind: uf,
            arena,
            memo,
            classes,
            op_index,
            stale_ops,
            dirty,
            data_changed,
            touched,
            n_nodes,
            ..
        } = self;
        for id in dirty.iter_mut() {
            *id = uf.find_immutable(*id);
        }
        // Ascending id order is the order a whole-graph pass would intern
        // re-canonicalized nodes in, so arena ids do not depend on which
        // classes were skipped.
        dirty.sort_unstable();
        dirty.dedup();
        for &id in dirty.iter() {
            let class = classes[usize::from(id)]
                .as_mut()
                .expect("a canonical id has a class");
            for nid in class.nodes.iter_mut() {
                let node = arena.get(*nid);
                if !node.children().iter().all(|&c| uf.find_immutable(c) == c) {
                    let node = node.map_children(|c| uf.find_immutable(c));
                    *nid = arena.intern(node);
                    if memo.len() < arena.len() {
                        memo.resize(arena.len(), None);
                    }
                }
            }
            // Sort by node *value*, not arena id: equal nodes intern to
            // equal ids (so `dedup` still works), and iteration order
            // stays deterministic and independent of interning history.
            class
                .nodes
                .sort_unstable_by(|&a, &b| arena.get(a).cmp(arena.get(b)));
            let len = class.nodes.len();
            class.nodes.dedup();
            *n_nodes -= len - class.nodes.len();
        }
        // The dirty list becomes the touched list, and the old touched
        // buffer the next dirty list, so neither reallocates.
        std::mem::swap(dirty, touched);
        dirty.clear();
        if !data_changed.is_empty() {
            touched.extend(data_changed.drain(..).map(|id| uf.find_immutable(id)));
            touched.sort_unstable();
            touched.dedup();
        }
        if let Some(index) = op_index.get_mut() {
            stale_ops.sort_unstable();
            stale_ops.dedup();
            for key in stale_ops.iter() {
                if let Some(ids) = index.get_mut(key) {
                    for id in ids.iter_mut() {
                        *id = uf.find_immutable(*id);
                    }
                    ids.sort_unstable();
                    ids.dedup();
                }
            }
        }
        stale_ops.clear();
    }

    /// The classes the last [`EGraph::rebuild`] touched, canonical and in
    /// ascending order: every class an `add`, a union or congruence repair
    /// put on the dirty list since the rebuild before it, plus every class
    /// whose analysis data its repair loop changed. A class outside the list
    /// kept its nodes, its id and its data through that window.
    pub(crate) fn touched(&self) -> &[Id] {
        &self.touched
    }

    /// Returns the ids of all classes, canonical and sorted.
    pub fn class_ids(&self) -> Vec<Id> {
        self.classes().map(|c| c.id).collect()
    }

    /// Extracts *some* term from the class `id` (an arbitrary acyclic
    /// choice, not cost-minimal); useful for debugging.
    pub fn id_to_expr(&self, id: Id) -> RecExpr<L> {
        // Choose, per class, the first node all of whose children are
        // strictly "older" in a BFS order; falls back to leaves first.
        let mut expr = RecExpr::new();
        let mut memo: HashMap<Id, Id> = HashMap::new();
        let root = self.find(id);
        let id = self.pick_node_rec(root, &mut expr, &mut memo, &mut Vec::new());
        let _ = id;
        expr
    }

    fn pick_node_rec(
        &self,
        id: Id,
        expr: &mut RecExpr<L>,
        memo: &mut HashMap<Id, Id>,
        stack: &mut Vec<Id>,
    ) -> Id {
        let id = self.find(id);
        if let Some(&done) = memo.get(&id) {
            return done;
        }
        assert!(
            !stack.contains(&id),
            "id_to_expr hit a cycle through class {id}; \
             use an Extractor with a cost function instead"
        );
        stack.push(id);
        // Prefer leaves, then nodes not re-entering the current stack.
        let class = &self[id];
        let node = self
            .nodes_of(class)
            .find(|n| n.is_leaf())
            .cloned()
            .or_else(|| {
                self.nodes_of(class)
                    .find(|n| n.children().iter().all(|c| !stack.contains(&self.find(*c))))
                    .cloned()
            })
            .unwrap_or_else(|| self.arena.get(class.nodes[0]).clone());
        let node = node.map_children(|c| self.pick_node_rec(c, expr, memo, stack));
        stack.pop();
        let new_id = expr.add(node);
        memo.insert(id, new_id);
        new_id
    }
}

impl<L: Language, N: Analysis<L>> std::ops::Index<Id> for EGraph<L, N> {
    type Output = EClass<L, N::Data>;
    fn index(&self, id: Id) -> &Self::Output {
        let id = self.find(id);
        self.classes[usize::from(id)]
            .as_ref()
            .unwrap_or_else(|| panic!("no class for id {id}"))
    }
}

impl<L: Language, N: Analysis<L>> std::ops::IndexMut<Id> for EGraph<L, N> {
    fn index_mut(&mut self, id: Id) -> &mut Self::Output {
        let id = self.find(id);
        self.classes[usize::from(id)]
            .as_mut()
            .unwrap_or_else(|| panic!("no class for id {id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::{Arith, ConstFold};

    fn eg() -> EGraph<Arith, ()> {
        EGraph::default()
    }

    #[test]
    fn add_is_hash_consed() {
        let mut eg = eg();
        let a = eg.add_expr(&"(+ x y)".parse().unwrap());
        let b = eg.add_expr(&"(+ x y)".parse().unwrap());
        assert_eq!(a, b);
        assert_eq!(eg.number_of_classes(), 3);
        // Each distinct node interned exactly once.
        assert_eq!(eg.arena_size(), 3);
        assert_eq!(eg.memo_size(), 3);
    }

    #[test]
    fn union_merges_classes() {
        let mut eg = eg();
        let a = eg.add_expr(&"x".parse().unwrap());
        let b = eg.add_expr(&"y".parse().unwrap());
        let (_, did) = eg.union(a, b);
        assert!(did);
        let (_, did) = eg.union(a, b);
        assert!(!did);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        assert_eq!(eg.number_of_classes(), 1);
    }

    #[test]
    fn congruence_upward_merging() {
        // If x = y then f(x) = f(y): union children, rebuild, parents merge.
        let mut eg = eg();
        let fx = eg.add_expr(&"(+ x 1)".parse().unwrap());
        let fy = eg.add_expr(&"(+ y 1)".parse().unwrap());
        assert_ne!(eg.find(fx), eg.find(fy));
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let y = eg.lookup_expr(&"y".parse().unwrap()).unwrap();
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(fx), eg.find(fy));
    }

    #[test]
    fn congruence_cascades() {
        // g(f(x)) = g(f(y)) after x = y.
        let mut eg = eg();
        let a = eg.add_expr(&"(* (+ x 1) 2)".parse().unwrap());
        let b = eg.add_expr(&"(* (+ y 1) 2)".parse().unwrap());
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let y = eg.lookup_expr(&"y".parse().unwrap()).unwrap();
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(eg.find(a), eg.find(b));
        // The classes for (+ x 1)/(+ y 1) merged, so only: x/y, 1, 2, +, *.
        assert_eq!(eg.number_of_classes(), 5);
    }

    #[test]
    fn lookup_expr_finds_existing() {
        let mut eg = eg();
        let a = eg.add_expr(&"(+ x (* y 2))".parse().unwrap());
        assert_eq!(eg.lookup_expr(&"(+ x (* y 2))".parse().unwrap()), Some(a));
        assert_eq!(eg.lookup_expr(&"(+ x (* y 3))".parse().unwrap()), None);
    }

    #[test]
    fn analysis_constant_folding() {
        let mut eg: EGraph<Arith, ConstFold> = EGraph::new(ConstFold);
        let id = eg.add_expr(&"(+ 1 (* 2 3))".parse().unwrap());
        eg.rebuild();
        assert_eq!(eg[id].data, Some(7));
        // modify() added the literal 7 into the root class.
        let seven = eg.lookup_expr(&"7".parse().unwrap()).unwrap();
        assert_eq!(eg.find(seven), eg.find(id));
    }

    #[test]
    fn analysis_propagates_through_unions() {
        let mut eg: EGraph<Arith, ConstFold> = EGraph::new(ConstFold);
        let root = eg.add_expr(&"(+ x 1)".parse().unwrap());
        eg.rebuild();
        assert_eq!(eg[root].data, None);
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let two = eg.add(Arith::Num(2));
        eg.union(x, two);
        eg.rebuild();
        assert_eq!(eg[root].data, Some(3));
    }

    #[test]
    fn id_to_expr_roundtrips() {
        let mut eg = eg();
        let a = eg.add_expr(&"(* (+ x 1) (+ x 1))".parse().unwrap());
        eg.rebuild();
        let out = eg.id_to_expr(a);
        assert_eq!(out.to_string(), "(* (+ x 1) (+ x 1))");
    }

    #[test]
    fn op_index_tracks_adds_incrementally() {
        let mut eg = eg();
        eg.add_expr(&"(+ x y)".parse().unwrap());
        // No rebuild needed: adds maintain the index in place.
        let plus = Arith::Add([Id::from(0usize), Id::from(0usize)]);
        assert_eq!(eg.classes_with_op(&plus).len(), 1);
        assert_eq!(eg.classes_with_op(&Arith::Num(7)).len(), 0);
        eg.add_expr(&"(+ y x)".parse().unwrap());
        assert_eq!(eg.classes_with_op(&plus).len(), 2);
        assert_eq!(eg.number_of_ops(), 3); // +, x, y
    }

    #[test]
    fn op_index_drops_absorbed_classes_on_rebuild() {
        let mut eg = eg();
        let a = eg.add_expr(&"(+ x 1)".parse().unwrap());
        let b = eg.add_expr(&"(+ y 1)".parse().unwrap());
        let plus = Arith::Add([Id::from(0usize), Id::from(0usize)]);
        assert_eq!(eg.classes_with_op(&plus).len(), 2);
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let y = eg.lookup_expr(&"y".parse().unwrap()).unwrap();
        eg.union(x, y);
        eg.rebuild();
        // (+ x 1) and (+ y 1) merged: one class with a + node remains,
        // listed under its canonical id.
        let ids = eg.classes_with_op(&plus);
        assert_eq!(ids, [eg.find(a)]);
        assert_eq!(eg.find(a), eg.find(b));
    }

    #[test]
    fn op_index_lists_every_class_exactly_once() {
        let mut eg = eg();
        eg.add_expr(&"(* (+ a b) (+ c (+ d e)))".parse().unwrap());
        let a = eg.lookup_expr(&"a".parse().unwrap()).unwrap();
        let b = eg.lookup_expr(&"b".parse().unwrap()).unwrap();
        eg.union(a, b);
        eg.rebuild();
        // Cross-check the index against a full scan, op by op.
        let mut by_scan: HashMap<String, Vec<Id>> = HashMap::new();
        for class in eg.classes() {
            for node in eg.nodes_of(class) {
                let ids = by_scan.entry(node.op_name()).or_default();
                if !ids.contains(&class.id) {
                    ids.push(class.id);
                }
            }
        }
        for class in eg.classes() {
            for node in eg.nodes_of(class) {
                let mut want = by_scan[&node.op_name()].clone();
                want.sort_unstable();
                assert_eq!(eg.classes_with_op(node), want, "op {}", node.op_name());
            }
        }
    }

    #[test]
    fn clean_flag_tracks_state() {
        let mut eg = eg();
        assert!(eg.is_clean());
        let a = eg.add_expr(&"x".parse().unwrap());
        let b = eg.add_expr(&"y".parse().unwrap());
        eg.union(a, b);
        assert!(!eg.is_clean());
        eg.rebuild();
        assert!(eg.is_clean());
    }

    #[test]
    fn class_nodes_are_value_sorted_after_rebuild() {
        let mut eg = eg();
        let a = eg.add_expr(&"(+ 1 2)".parse().unwrap());
        let b = eg.add_expr(&"(* 3 4)".parse().unwrap());
        eg.union(a, b);
        eg.rebuild();
        let nodes: Vec<Arith> = eg.class_nodes(a).cloned().collect();
        let mut sorted = nodes.clone();
        sorted.sort();
        assert_eq!(nodes, sorted);
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn class_parents_track_unions() {
        let mut eg = eg();
        eg.add_expr(&"(+ x 1)".parse().unwrap());
        eg.add_expr(&"(* y 2)".parse().unwrap());
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let y = eg.lookup_expr(&"y".parse().unwrap()).unwrap();
        assert_eq!(eg.class_parents(x).len(), 1);
        assert_eq!(eg.class_parents(y).len(), 1);
        eg.union(x, y);
        eg.rebuild();
        // The winner's parent list absorbed the loser's.
        assert_eq!(eg.class_parents(x).len(), 2);
        assert_eq!(eg.class_parents(x), eg.class_parents(y));
    }
}
