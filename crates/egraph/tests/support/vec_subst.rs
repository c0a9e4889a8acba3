//! The `Vec`-backed `Subst` e-matching used before its bindings went
//! inline, kept as a test oracle for the `Subst` contract suite (include it
//! with `#[path = ".../support/vec_subst.rs"] mod vec_subst;`).
//!
//! Bindings are an insertion-ordered vector; `Ord`, `Eq` and `Debug` are
//! derived over it. The production type must return, order, compare and
//! print exactly what this one does. Only public `sz_egraph` items are
//! used.

use sz_egraph::{Id, Var};

/// The old substitution: one heap vector of `(var, id)` bindings.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Subst {
    bindings: Vec<(Var, Id)>,
}

#[allow(dead_code)]
impl Subst {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a substitution with capacity for `n` bindings.
    pub fn with_capacity(n: usize) -> Self {
        Subst {
            bindings: Vec::with_capacity(n),
        }
    }

    /// Inserts a binding, returning the previous value if `var` was bound.
    pub fn insert(&mut self, var: Var, id: Id) -> Option<Id> {
        for (v, i) in &mut self.bindings {
            if *v == var {
                return Some(std::mem::replace(i, id));
            }
        }
        self.bindings.push((var, id));
        None
    }

    /// Looks up a binding.
    pub fn get(&self, var: Var) -> Option<Id> {
        self.bindings
            .iter()
            .find_map(|&(v, i)| (v == var).then_some(i))
    }

    /// The number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Iterates over `(var, id)` bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Id)> + '_ {
        self.bindings.iter().copied()
    }
}

impl std::ops::Index<Var> for Subst {
    type Output = Id;
    fn index(&self, var: Var) -> &Id {
        self.bindings
            .iter()
            .find_map(|(v, i)| (*v == var).then_some(i))
            .unwrap_or_else(|| panic!("variable {var} not bound in substitution"))
    }
}
