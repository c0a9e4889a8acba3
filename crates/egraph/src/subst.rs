//! Pattern variables and substitutions produced by e-matching.

use std::fmt;

use crate::{Id, Symbol};

/// A pattern variable such as `?x`.
///
/// # Examples
///
/// ```
/// use sz_egraph::Var;
/// let v: Var = "?x".parse().unwrap();
/// assert_eq!(v.to_string(), "?x");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(Symbol);

impl Var {
    /// Creates a variable from its bare name (without the leading `?`).
    pub fn from_name(name: &str) -> Var {
        Var(Symbol::new(name))
    }

    /// The bare name, without the leading `?`.
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// Error returned when parsing a [`Var`] from a string that is not a
/// `?`-sigil followed by a well-formed name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVarError(String);

impl fmt::Display for ParseVarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pattern variable must be `?` followed by [A-Za-z0-9_-]+: {}",
            self.0
        )
    }
}

impl std::error::Error for ParseVarError {}

impl std::str::FromStr for Var {
    type Err = ParseVarError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix('?') {
            Some(rest)
                if !rest.is_empty()
                    && rest
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') =>
            {
                Ok(Var::from_name(rest))
            }
            _ => Err(ParseVarError(s.to_owned())),
        }
    }
}

/// A short list of `Copy` items: up to `N` are stored inline, more spill
/// to one heap `Vec`. Substitutions and pattern instantiation keep their
/// few ids here, so neither allocates on the saturation hot path.
#[derive(Clone)]
pub(crate) enum InlineVec<T: Copy, const N: usize> {
    /// `len` items in `items[..len]`. The slots past `len` hold copies of
    /// the first item and are never read, so `T` needs no `Default`.
    Inline(usize, [T; N]),
    /// Empty before the first push, or spilled past `N` items.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::Heap(Vec::new())
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty list that will hold `n` items without reallocating.
    pub(crate) fn with_capacity(n: usize) -> Self {
        if n > N {
            InlineVec::Heap(Vec::with_capacity(n))
        } else {
            InlineVec::default()
        }
    }

    /// Appends an item.
    pub(crate) fn push(&mut self, item: T) {
        match self {
            InlineVec::Inline(len, items) if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            InlineVec::Inline(_, items) => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(items);
                spilled.push(item);
                *self = InlineVec::Heap(spilled);
            }
            InlineVec::Heap(spilled) if spilled.capacity() == 0 && N > 0 => {
                *self = InlineVec::Inline(1, [item; N]);
            }
            InlineVec::Heap(spilled) => spilled.push(item),
        }
    }
}

impl<T: Copy, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline(len, items) => &items[..*len],
            InlineVec::Heap(spilled) => spilled,
        }
    }
}

impl<T: Copy, const N: usize> std::ops::DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline(len, items) => &mut items[..*len],
            InlineVec::Heap(spilled) => spilled,
        }
    }
}

/// Bindings a [`Subst`] keeps inline; every built-in CAD rule binds at
/// most 3 variables.
const INLINE_BINDINGS: usize = 4;

/// A mapping from pattern [`Var`]s to e-class [`Id`]s, produced by matching
/// a pattern against an e-graph.
///
/// Stored as an insertion-ordered list, inline up to four bindings and on
/// the heap above that: patterns have a handful of variables, so linear
/// scans beat hashing and a match allocates nothing.
///
/// `Ord` is lexicographic over the insertion-ordered bindings: both
/// matchers bind variables in pattern pre-order, so sorting substitutions
/// by this ordering is deterministic, allocation-free, and independent of
/// `Debug` formatting — it is what
/// [`Pattern::search`](crate::Pattern::search) and the compiled
/// [`CompiledPattern`](crate::CompiledPattern) use to dedup matches.
#[derive(Clone, Default)]
pub struct Subst {
    bindings: InlineVec<(Var, Id), INLINE_BINDINGS>,
}

impl PartialEq for Subst {
    fn eq(&self, other: &Self) -> bool {
        self.bindings[..] == other.bindings[..]
    }
}

impl Eq for Subst {}

impl PartialOrd for Subst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Subst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bindings[..].cmp(&other.bindings[..])
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subst")
            .field("bindings", &&self.bindings[..])
            .finish()
    }
}

impl Subst {
    /// An empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a substitution with capacity for `n` bindings.
    pub fn with_capacity(n: usize) -> Self {
        Subst {
            bindings: InlineVec::with_capacity(n),
        }
    }

    /// Inserts a binding, returning the previous value if `var` was bound.
    pub fn insert(&mut self, var: Var, id: Id) -> Option<Id> {
        for (v, i) in self.bindings.iter_mut() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_parsing() {
        assert!("x".parse::<Var>().is_err());
        assert!("?".parse::<Var>().is_err());
        assert!("?a?b".parse::<Var>().is_err());
        assert!("?a b".parse::<Var>().is_err());
        let v: Var = "?abc".parse().unwrap();
        assert_eq!(v.name(), "abc");
        let v: Var = "?r-1_x".parse().unwrap();
        assert_eq!(v.name(), "r-1_x");
    }

    #[test]
    fn subst_insert_get() {
        let mut s = Subst::new();
        let x = Var::from_name("x");
        let y = Var::from_name("y");
        assert_eq!(s.insert(x, Id::from(1usize)), None);
        assert_eq!(s.insert(y, Id::from(2usize)), None);
        assert_eq!(s.insert(x, Id::from(3usize)), Some(Id::from(1usize)));
        assert_eq!(s.get(x), Some(Id::from(3usize)));
        assert_eq!(s.get(y), Some(Id::from(2usize)));
        assert_eq!(s[y], Id::from(2usize));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn index_panics_on_missing() {
        let s = Subst::new();
        let _ = s[Var::from_name("zzz")];
    }
}
