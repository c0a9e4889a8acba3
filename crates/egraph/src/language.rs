//! The [`Language`] trait: the interface between a term language and the
//! e-graph, plus the interned [`Symbol`] type for cheap string atoms.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, OnceLock};

use crate::Id;

/// A type that can be the node (operator) type of an [`EGraph`](crate::EGraph).
///
/// An e-node is an operator applied to child e-classes; implementors are
/// enums whose variants carry their children as [`Id`]s. Everything the
/// e-graph needs is: structural equality/hashing (derived), access to the
/// children, and a way to compare operators ignoring children
/// ([`Language::matches`]).
///
/// For parsing (patterns, test inputs) and printing, implementors also
/// provide an operator name via [`Language::op_name`] and a constructor from
/// an operator name via [`Language::from_op`].
pub trait Language: fmt::Debug + Clone + Eq + Ord + Hash + Send + Sync + 'static {
    /// Returns the children of this e-node.
    fn children(&self) -> &[Id];

    /// Returns a mutable view of the children of this e-node.
    fn children_mut(&mut self) -> &mut [Id];

    /// Returns true if `self` and `other` have the same operator (and any
    /// non-child payload such as constants), ignoring children.
    ///
    /// The default implementation clones both nodes, zeroes the children and
    /// compares; override for performance if profiling demands it.
    fn matches(&self, other: &Self) -> bool {
        if self.children().len() != other.children().len() {
            return false;
        }
        let zero = Id::from(0usize);
        let mut a = self.clone();
        let mut b = other.clone();
        a.children_mut().iter_mut().for_each(|id| *id = zero);
        b.children_mut().iter_mut().for_each(|id| *id = zero);
        a == b
    }

    /// Calls `f` on each child.
    fn for_each<F: FnMut(Id)>(&self, f: F) {
        self.children().iter().copied().for_each(f);
    }

    /// Returns a copy of this node with each child replaced by `f(child)`.
    fn map_children<F: FnMut(Id) -> Id>(&self, mut f: F) -> Self {
        let mut node = self.clone();
        node.children_mut().iter_mut().for_each(|id| *id = f(*id));
        node
    }

    /// Updates each child in place to `f(child)`. Returns true if any child
    /// actually changed.
    fn update_children<F: FnMut(Id) -> Id>(&mut self, mut f: F) -> bool {
        let mut changed = false;
        for id in self.children_mut() {
            let new = f(*id);
            changed |= new != *id;
            *id = new;
        }
        changed
    }

    /// The printable operator name (no children), e.g. `"union"` or `"2.5"`.
    fn op_name(&self) -> String;

    /// Builds a node from an operator name and children.
    ///
    /// The children are borrowed: a node copies the ids it keeps into its
    /// own fixed-arity storage, so callers (the expression, pattern and
    /// snapshot parsers) can reuse one buffer for every node instead of
    /// allocating a `Vec` per node.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message if `op` is unknown or the arity is
    /// wrong for `op`. This powers pattern, expression and snapshot
    /// parsing.
    fn from_op(op: &str, children: &[Id]) -> Result<Self, FromOpError>;

    /// True for nodes with no children.
    fn is_leaf(&self) -> bool {
        self.children().is_empty()
    }
}

/// The error returned by [`Language::from_op`] for unknown operators or
/// arity mismatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromOpError {
    op: String,
    n_children: usize,
    reason: String,
}

impl FromOpError {
    /// Creates a new error for operator `op` applied to `n_children`
    /// children, with a free-form `reason`.
    pub fn new(op: &str, n_children: usize, reason: impl Into<String>) -> Self {
        FromOpError {
            op: op.to_owned(),
            n_children,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for FromOpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot build node `{}` with {} children: {}",
            self.op, self.n_children, self.reason
        )
    }
}

impl std::error::Error for FromOpError {}

/// A globally interned string, used for operator payloads such as variable
/// or `External` names.
///
/// Interning makes `Symbol` cheap to copy, compare, and hash, which matters
/// because e-nodes are hashed constantly during congruence maintenance.
///
/// # Examples
///
/// ```
/// use sz_egraph::Symbol;
/// let a = Symbol::new("tooth");
/// let b = Symbol::new("tooth");
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "tooth");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name` and returns its symbol.
    pub fn new(name: &str) -> Symbol {
        let mut interner = interner().lock().expect("symbol interner poisoned");
        if let Some(&id) = interner.ids.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(interner.names.len()).expect("too many symbols");
        // Leaking is fine: the set of distinct operator/variable names in a
        // process is small and symbols must live for the program's lifetime.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        interner.names.push(leaked);
        interner.ids.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned string.
    pub fn as_str(&self) -> &'static str {
        let interner = interner().lock().expect("symbol interner poisoned");
        interner.names[self.0 as usize]
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Simple {
        Num(i32),
        Add([Id; 2]),
    }

    impl Language for Simple {
        fn children(&self) -> &[Id] {
            match self {
                Simple::Num(_) => &[],
                Simple::Add(ids) => ids,
            }
        }
        fn children_mut(&mut self) -> &mut [Id] {
            match self {
                Simple::Num(_) => &mut [],
                Simple::Add(ids) => ids,
            }
        }
        fn op_name(&self) -> String {
            match self {
                Simple::Num(n) => n.to_string(),
                Simple::Add(_) => "+".into(),
            }
        }
        fn from_op(op: &str, children: &[Id]) -> Result<Self, FromOpError> {
            match (op, children) {
                ("+", &[a, b]) => Ok(Simple::Add([a, b])),
                (_, []) => op
                    .parse()
                    .map(Simple::Num)
                    .map_err(|e| FromOpError::new(op, 0, e.to_string())),
                _ => Err(FromOpError::new(op, children.len(), "unknown operator")),
            }
        }
    }

    #[test]
    fn matches_ignores_children_but_not_payload() {
        let a = Simple::Add([Id::from(0usize), Id::from(1usize)]);
        let b = Simple::Add([Id::from(5usize), Id::from(9usize)]);
        assert!(a.matches(&b));
        assert!(!Simple::Num(1).matches(&Simple::Num(2)));
        assert!(!a.matches(&Simple::Num(1)));
    }

    #[test]
    fn map_children_applies_function() {
        let a = Simple::Add([Id::from(0usize), Id::from(1usize)]);
        let b = a.map_children(|id| Id::from(usize::from(id) + 10));
        assert_eq!(b.children(), &[Id::from(10usize), Id::from(11usize)]);
    }

    #[test]
    fn symbols_intern() {
        let a = Symbol::new("hello");
        let b = Symbol::new("hello");
        let c = Symbol::new("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(c.to_string(), "world");
    }

    #[test]
    fn from_op_errors_are_informative() {
        let err = Simple::from_op("nope", &[Id::from(0usize)]).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }
}
