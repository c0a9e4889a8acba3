//! The flat e-node arena: every distinct e-node is stored exactly once and
//! referred to by a [`NodeId`] handle.
//!
//! This is the storage half of the e-graph's hash-consing. Interning a node
//! hashes it once; afterwards the rest of the e-graph (class node lists,
//! parent lists, the congruence worklist, the memo) passes around `Copy`
//! `NodeId`s instead of cloning whole nodes. See the module docs on
//! [`crate::egraph`] for the full storage layout.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::Language;

/// An index of an interned e-node in the [`NodeArena`].
///
/// `NodeId`s are small, `Copy`, and stable for the lifetime of the e-graph:
/// interning never moves or removes nodes, so a `NodeId` obtained from
/// [`EClass::node_ids`](crate::EClass::node_ids) stays valid across
/// rebuilds, unions, and snapshots. Note that the *node* is stable, not its
/// canonicality: after a rebuild a class's node list may reference newer,
/// re-canonicalized ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn new(i: usize) -> NodeId {
        NodeId(u32::try_from(i).expect("arena grew past u32::MAX nodes"))
    }
}

impl From<NodeId> for usize {
    fn from(nid: NodeId) -> usize {
        nid.idx()
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A fast, non-cryptographic hasher (the FxHash scheme: rotate, xor,
/// multiply per word) for the e-graph's hot internal maps.
///
/// E-nodes are tiny keys (an enum tag plus a few `u32` children) hashed on
/// every add, lookup, and congruence repair; SipHash dominates profiles
/// there and none of these maps are exposed to untrusted keys, so a fast
/// deterministic hash is the right trade.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// `2^64 / phi`, the usual multiplicative-hashing constant.
const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some(chunk) = bytes.first_chunk::<8>() {
            self.add_to_hash(u64::from_ne_bytes(*chunk));
            bytes = &bytes[8..];
        }
        if let Some(chunk) = bytes.first_chunk::<4>() {
            self.add_to_hash(u64::from(u32::from_ne_bytes(*chunk)));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`], for the e-graph's internal maps.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The node arena: a deduplicating store of e-nodes.
///
/// `nodes[usize::from(nid)]` is the node for `nid`; `ids` maps each stored
/// node back to its id so interning the same node twice returns the same
/// `NodeId`.
#[derive(Debug, Clone)]
pub(crate) struct NodeArena<L> {
    nodes: Vec<L>,
    ids: FxHashMap<L, NodeId>,
}

impl<L> Default for NodeArena<L> {
    fn default() -> Self {
        NodeArena {
            nodes: Vec::new(),
            ids: FxHashMap::default(),
        }
    }
}

impl<L: Language> NodeArena<L> {
    /// An empty arena with room for `n` distinct nodes.
    pub fn with_capacity(n: usize) -> Self {
        NodeArena {
            nodes: Vec::with_capacity(n),
            ids: FxHashMap::with_capacity_and_hasher(n, FxBuildHasher::default()),
        }
    }

    /// The number of distinct nodes ever interned.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node for `nid`.
    #[inline]
    pub fn get(&self, nid: NodeId) -> &L {
        &self.nodes[nid.idx()]
    }

    /// The id of `node`, if it has been interned.
    #[inline]
    pub fn lookup(&self, node: &L) -> Option<NodeId> {
        self.ids.get(node).copied()
    }

    /// Interns `node`, returning its (new or existing) id. Hashes the
    /// node once.
    pub fn intern(&mut self, node: L) -> NodeId {
        match self.ids.entry(node) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let nid = NodeId::new(self.nodes.len());
                self.nodes.push(entry.key().clone());
                entry.insert(nid);
                nid
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;
    use crate::Id;

    #[test]
    fn interning_dedups() {
        let mut arena: NodeArena<Arith> = NodeArena::default();
        let a = arena.intern(Arith::Num(1));
        let b = arena.intern(Arith::Num(2));
        let a2 = arena.intern(Arith::Num(1));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), &Arith::Num(1));
        assert_eq!(arena.get(b), &Arith::Num(2));
    }

    #[test]
    fn lookup_without_interning() {
        let mut arena: NodeArena<Arith> = NodeArena::default();
        assert_eq!(arena.lookup(&Arith::Num(7)), None);
        let id = arena.intern(Arith::Num(7));
        assert_eq!(arena.lookup(&Arith::Num(7)), Some(id));
    }

    #[test]
    fn node_ids_are_ordered_by_interning_time() {
        let mut arena: NodeArena<Arith> = NodeArena::default();
        let a = arena.intern(Arith::Num(10));
        let b = arena.intern(Arith::Add([Id::from(0usize), Id::from(0usize)]));
        assert!(a < b);
        assert_eq!(usize::from(a), 0);
        assert_eq!(usize::from(b), 1);
    }

    #[test]
    fn fxhasher_is_deterministic() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hash = |n: &Arith| build.hash_one(n);
        let a = Arith::Add([Id::from(3usize), Id::from(9usize)]);
        assert_eq!(hash(&a), hash(&a.clone()));
        assert_ne!(hash(&a), hash(&Arith::Num(3)));
    }
}
