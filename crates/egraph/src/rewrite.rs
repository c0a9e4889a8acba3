//! Rewrite rules: a left-hand [`Pattern`], compiled once into a
//! [`CompiledPattern`], paired with an [`Applier`].
//!
//! Appliers may be plain patterns (purely syntactic rules) or arbitrary Rust
//! functions (Szalinski's "arithmetic" rules that compute new constant
//! vectors need the latter).

use std::fmt;
use std::sync::Arc;

use crate::machine::MatchList;
use crate::{Analysis, CompiledPattern, EGraph, Id, Language, Pattern, SearchMatches, Subst, Var};

/// The right-hand side of a [`Rewrite`]: given a match, mutate the e-graph
/// and report which classes changed.
///
/// # Contract
///
/// An applier's effect on a clean e-graph (no union since the last
/// [`EGraph::rebuild`]) depends only on the matched class, the classes the
/// substitution binds, their analysis data and the terms already in the
/// graph: it adds terms built from those and unions one of them with the
/// matched class, or declines. It reads nothing else, such as the data of
/// other classes, a counter or the clock.
///
/// [`Runner::run`](crate::Runner::run) relies on this. A match carried over
/// unchanged from the previous iteration was applied then, and its classes
/// and their data are unchanged since, so applying it again to a clean graph
/// finds every term it builds in the hash-cons memo and unions classes that
/// are already equal: the runner skips it while the graph is clean. Pattern
/// appliers, [`FnApplier`]s over the match's own classes and data, and
/// [`ConditionalApplier`]s whose condition reads only those meet the
/// contract.
///
/// One side effect is skipped with it: the path halving `add`'s `find` would
/// do on a term whose recorded class has been merged more than once since.
/// Canonical ids come out the same either way; only the union-find parents
/// a snapshot writes could differ. `tests/saturation_differential.rs` and
/// CI's main-parity steps check the shipped rules against the full loop.
pub trait Applier<L: Language, N: Analysis<L>> {
    /// Applies this applier to one match, returning the ids of classes that
    /// were newly unioned (for saturation detection).
    fn apply_one(&self, egraph: &mut EGraph<L, N>, eclass: Id, subst: &Subst) -> Vec<Id>;

    /// The pattern variables this applier reads from the substitution, or
    /// `None` when the set is not statically known (dynamic Rust appliers).
    ///
    /// [`Rewrite::new`] rejects rules whose known applier variables are not
    /// all bound by the searcher; `None` opts out of that check.
    fn vars(&self) -> Option<Vec<Var>> {
        None
    }

    /// The right-hand-side pattern, when this applier is purely syntactic.
    ///
    /// Static analysis uses this for duplicate/inverse/expansivity checks;
    /// dynamic appliers return `None` and are treated as opaque.
    fn rhs_pattern(&self) -> Option<&Pattern<L>> {
        None
    }
}

impl<L: Language, N: Analysis<L>> Applier<L, N> for Pattern<L> {
    fn apply_one(&self, egraph: &mut EGraph<L, N>, eclass: Id, subst: &Subst) -> Vec<Id> {
        let new = self.instantiate(egraph, subst);
        let (id, did) = egraph.union(eclass, new);
        if did {
            vec![id]
        } else {
            vec![]
        }
    }

    fn vars(&self) -> Option<Vec<Var>> {
        Some(Pattern::vars(self))
    }

    fn rhs_pattern(&self) -> Option<&Pattern<L>> {
        Some(self)
    }
}

/// An applier backed by a Rust function.
///
/// The function receives the matched class and substitution; it may add
/// nodes and return `Some(id)` of a class to union with the matched class,
/// or `None` to decline (acting as a condition).
pub struct FnApplier<F>(pub F);

impl<L, N, F> Applier<L, N> for FnApplier<F>
where
    L: Language,
    N: Analysis<L>,
    F: Fn(&mut EGraph<L, N>, Id, &Subst) -> Option<Id>,
{
    fn apply_one(&self, egraph: &mut EGraph<L, N>, eclass: Id, subst: &Subst) -> Vec<Id> {
        match (self.0)(egraph, eclass, subst) {
            Some(new) => {
                let (id, did) = egraph.union(eclass, new);
                if did {
                    vec![id]
                } else {
                    vec![]
                }
            }
            None => vec![],
        }
    }
}

/// Wraps an applier with a precondition on the match.
pub struct ConditionalApplier<C, A> {
    /// The predicate; the applier runs only when this returns true.
    pub condition: C,
    /// The inner applier.
    pub applier: A,
}

impl<L, N, C, A> Applier<L, N> for ConditionalApplier<C, A>
where
    L: Language,
    N: Analysis<L>,
    C: Fn(&EGraph<L, N>, Id, &Subst) -> bool,
    A: Applier<L, N>,
{
    fn apply_one(&self, egraph: &mut EGraph<L, N>, eclass: Id, subst: &Subst) -> Vec<Id> {
        if (self.condition)(egraph, eclass, subst) {
            self.applier.apply_one(egraph, eclass, subst)
        } else {
            vec![]
        }
    }
}

/// Why a [`Rewrite`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteError {
    /// The name of the offending rule.
    pub rule: String,
    /// What went wrong.
    pub kind: RewriteErrorKind,
}

/// The specific defect behind a [`RewriteError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteErrorKind {
    /// The left-hand-side pattern failed to parse.
    LhsParse(String),
    /// The right-hand-side pattern failed to parse.
    RhsParse(String),
    /// The right-hand side uses a variable the left-hand side never binds;
    /// applying such a rule would panic mid-saturation.
    UnboundRhsVar(Var),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            RewriteErrorKind::LhsParse(e) => write!(f, "{}: lhs: {e}", self.rule),
            RewriteErrorKind::RhsParse(e) => write!(f, "{}: rhs: {e}", self.rule),
            RewriteErrorKind::UnboundRhsVar(v) => {
                write!(f, "{}: rhs variable {v} unbound by lhs", self.rule)
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// A named rewrite rule `lhs ⇝ rhs`.
///
/// # Examples
///
/// ```
/// use sz_egraph::{EGraph, Rewrite, Runner, tests_lang::Arith};
/// let comm: Rewrite<Arith, ()> = Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
/// let runner = Runner::new(())
///     .with_expr(&"(+ 1 2)".parse().unwrap())
///     .run(&[comm]);
/// let eg = runner.egraph;
/// assert!(eg.lookup_expr(&"(+ 2 1)".parse().unwrap()).is_some());
/// ```
pub struct Rewrite<L: Language, N: Analysis<L>> {
    name: String,
    /// The left-hand side, compiled once; it keeps its source pattern.
    ///
    /// Both `Arc`s are `Send + Sync`, so a compiled rule set can be built
    /// once and shared across worker threads (see
    /// `szalinski::Synthesizer` and `sz-batch`), and cloning a rule copies
    /// two pointers.
    lhs: Arc<CompiledPattern<L>>,
    applier: Arc<dyn Applier<L, N> + Send + Sync>,
}

impl<L: Language, N: Analysis<L>> Clone for Rewrite<L, N> {
    fn clone(&self) -> Self {
        Rewrite {
            name: self.name.clone(),
            lhs: Arc::clone(&self.lhs),
            applier: Arc::clone(&self.applier),
        }
    }
}

impl<L: Language, N: Analysis<L>> fmt::Debug for Rewrite<L, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite")
            .field("name", &self.name)
            .field("searcher", &self.lhs.to_string())
            .finish()
    }
}

impl<L: Language, N: Analysis<L>> Rewrite<L, N> {
    /// Creates a rewrite from a searcher pattern and any applier, rejecting
    /// rules that would panic at apply time.
    ///
    /// The pattern is compiled once into an e-matching
    /// [`Program`](crate::Program) here; saturation then executes the
    /// program instead of re-walking the pattern AST.
    ///
    /// # Errors
    ///
    /// Returns [`RewriteErrorKind::UnboundRhsVar`] when the applier's
    /// statically known variables ([`Applier::vars`]) are not all bound by
    /// the searcher — previously such a rule was accepted here and panicked
    /// later, mid-saturation, inside
    /// [`Pattern::instantiate`](crate::Pattern::instantiate). Appliers
    /// whose variable set is unknown (`Applier::vars() == None`, e.g.
    /// [`FnApplier`]) are not checked.
    pub fn new(
        name: impl Into<String>,
        searcher: Pattern<L>,
        applier: impl Applier<L, N> + Send + Sync + 'static,
    ) -> Result<Self, RewriteError> {
        let name = name.into();
        if let Some(used) = applier.vars() {
            let bound = searcher.vars();
            if let Some(&v) = used.iter().find(|v| !bound.contains(v)) {
                return Err(RewriteError {
                    rule: name,
                    kind: RewriteErrorKind::UnboundRhsVar(v),
                });
            }
        }
        Ok(Rewrite::new_unchecked(name, searcher, applier))
    }

    /// Creates a rewrite without checking the applier's variables against
    /// the searcher.
    ///
    /// Escape hatch for dynamic appliers that resolve variables through
    /// other means; a rule built here with a genuinely unbound RHS variable
    /// will still panic at apply time. Prefer [`Rewrite::new`].
    pub fn new_unchecked(
        name: impl Into<String>,
        searcher: Pattern<L>,
        applier: impl Applier<L, N> + Send + Sync + 'static,
    ) -> Self {
        Rewrite {
            name: name.into(),
            lhs: Arc::new(CompiledPattern::compile(searcher)),
            applier: Arc::new(applier),
        }
    }

    /// Creates a purely syntactic rewrite by parsing both sides.
    ///
    /// # Errors
    ///
    /// Returns an error if either side fails to parse, or if the right-hand
    /// side uses a variable the left-hand side does not bind.
    pub fn parse(name: &str, lhs: &str, rhs: &str) -> Result<Self, RewriteError> {
        let searcher: Pattern<L> =
            lhs.parse()
                .map_err(|e: crate::RecExprParseError| RewriteError {
                    rule: name.to_owned(),
                    kind: RewriteErrorKind::LhsParse(e.to_string()),
                })?;
        let applier: Pattern<L> =
            rhs.parse()
                .map_err(|e: crate::RecExprParseError| RewriteError {
                    rule: name.to_owned(),
                    kind: RewriteErrorKind::RhsParse(e.to_string()),
                })?;
        Rewrite::new(name, searcher, applier)
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The left-hand-side pattern (also usable as the naive reference
    /// matcher via [`Pattern::search`]).
    pub fn searcher(&self) -> &Pattern<L> {
        self.lhs.pattern()
    }

    /// The applier's statically known variables, or `None` for dynamic
    /// appliers (see [`Applier::vars`]).
    pub fn applier_vars(&self) -> Option<Vec<Var>> {
        self.applier.vars()
    }

    /// The right-hand-side pattern, when the rule is purely syntactic (see
    /// [`Applier::rhs_pattern`]).
    pub fn rhs_pattern(&self) -> Option<&Pattern<L>> {
        self.applier.rhs_pattern()
    }

    /// The compiled e-matching program driving this rule's searches.
    pub fn compiled(&self) -> &CompiledPattern<L> {
        &self.lhs
    }

    /// Runs the compiled left-hand side over the e-graph.
    pub fn search(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        self.lhs.search(egraph)
    }

    /// Applies the rule to previously found matches, returning changed
    /// class ids.
    pub fn apply(&self, egraph: &mut EGraph<L, N>, matches: &[SearchMatches]) -> Vec<Id> {
        let mut changed = Vec::new();
        for m in matches {
            for subst in &m.substs {
                changed.extend(self.applier.apply_one(egraph, m.eclass, subst));
            }
        }
        changed
    }

    /// Applies one saturation iteration's match list and returns the number
    /// of unions that merged classes. A carried entry is skipped while the
    /// e-graph is still clean, where the [`Applier`] contract makes applying
    /// it a no-op; after the first union of the phase, `add` canonicalizes
    /// through the new union-find and may create nodes, so carried entries
    /// are applied like any other.
    pub(crate) fn apply_list(&self, egraph: &mut EGraph<L, N>, list: &MatchList) -> usize {
        let mut applied = 0;
        for (m, &carried) in list.matches.iter().zip(&list.carried) {
            if !(carried && egraph.is_clean()) {
                applied += self.apply(egraph, std::slice::from_ref(m)).len();
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;

    #[test]
    fn parse_checks_rhs_vars() {
        let err = Rewrite::<Arith, ()>::parse("bad", "(+ ?a ?b)", "(+ ?a ?c)").unwrap_err();
        assert_eq!(
            err.kind,
            RewriteErrorKind::UnboundRhsVar("?c".parse().unwrap())
        );
        assert_eq!(err.to_string(), "bad: rhs variable ?c unbound by lhs");
    }

    #[test]
    fn new_checks_applier_vars() {
        // Same defect as `parse_checks_rhs_vars`, but through the pattern
        // constructor that previously deferred the failure to apply time.
        let err = Rewrite::<Arith, ()>::new(
            "bad",
            "(+ ?a ?b)".parse().unwrap(),
            "(* ?a ?c)".parse::<Pattern<Arith>>().unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.rule, "bad");
        assert_eq!(
            err.kind,
            RewriteErrorKind::UnboundRhsVar("?c".parse().unwrap())
        );
    }

    #[test]
    fn new_unchecked_still_accepts_unbound_rhs() {
        let rule = Rewrite::<Arith, ()>::new_unchecked(
            "escape",
            "(+ ?a ?b)".parse().unwrap(),
            "(* ?a ?c)".parse::<Pattern<Arith>>().unwrap(),
        );
        assert_eq!(rule.name(), "escape");
        assert_eq!(rule.applier_vars().unwrap().len(), 2);
    }

    #[test]
    fn introspection_accessors() {
        let rule: Rewrite<Arith, ()> = Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
        assert_eq!(rule.rhs_pattern().unwrap().to_string(), "(+ ?b ?a)");
        assert_eq!(rule.applier_vars().unwrap().len(), 2);
        assert_eq!(rule.compiled().pattern(), rule.searcher());

        // Dynamic appliers are opaque.
        let dynamic: Rewrite<Arith, ()> = Rewrite::new(
            "dyn",
            "(+ ?a ?b)".parse().unwrap(),
            FnApplier(|_: &mut EGraph<Arith, ()>, _, _: &Subst| None),
        )
        .unwrap();
        assert!(dynamic.applier_vars().is_none());
        assert!(dynamic.rhs_pattern().is_none());
    }

    #[test]
    fn syntactic_rule_applies() {
        let rule: Rewrite<Arith, ()> = Rewrite::parse("comm", "(+ ?a ?b)", "(+ ?b ?a)").unwrap();
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let a = eg.add_expr(&"(+ 1 2)".parse().unwrap());
        eg.rebuild();
        let ms = rule.search(&eg);
        let changed = rule.apply(&mut eg, &ms);
        assert!(!changed.is_empty());
        eg.rebuild();
        let b = eg.lookup_expr(&"(+ 2 1)".parse().unwrap()).unwrap();
        assert_eq!(eg.find(a), eg.find(b));
    }

    #[test]
    fn fn_applier_can_decline() {
        // Fold additions of equal constants into multiplication by 2, via a
        // function applier that inspects the substitution.
        let rule: Rewrite<Arith, ()> = Rewrite::new(
            "double",
            "(+ ?a ?a)".parse().unwrap(),
            FnApplier(|eg: &mut EGraph<Arith, ()>, _id, subst: &Subst| {
                let a = subst["?a".parse().unwrap()];
                let two = eg.add(Arith::Num(2));
                Some(eg.add(Arith::Mul([two, a])))
            }),
        )
        .unwrap();
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let a = eg.add_expr(&"(+ x x)".parse().unwrap());
        eg.rebuild();
        let ms = rule.search(&eg);
        rule.apply(&mut eg, &ms);
        eg.rebuild();
        let b = eg.lookup_expr(&"(* 2 x)".parse().unwrap()).unwrap();
        assert_eq!(eg.find(a), eg.find(b));
    }

    #[test]
    fn conditional_applier_gates() {
        let always_false = ConditionalApplier {
            condition: |_eg: &EGraph<Arith, ()>, _id: Id, _s: &Subst| false,
            applier: "(+ ?b ?a)".parse::<Pattern<Arith>>().unwrap(),
        };
        let rule: Rewrite<Arith, ()> =
            Rewrite::new("never", "(+ ?a ?b)".parse().unwrap(), always_false).unwrap();
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        eg.add_expr(&"(+ 1 2)".parse().unwrap());
        eg.rebuild();
        let ms = rule.search(&eg);
        let changed = rule.apply(&mut eg, &ms);
        assert!(changed.is_empty());
        eg.rebuild();
        assert!(eg.lookup_expr(&"(+ 2 1)".parse().unwrap()).is_none());
    }
}
