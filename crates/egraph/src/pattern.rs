//! Patterns over a [`Language`] and e-matching against an [`EGraph`].

use std::fmt;

use crate::recexpr::{parse_term, tokenize, RecExprParseError};
use crate::subst::InlineVec;
use crate::{Analysis, EGraph, FromOpError, Id, Language, RecExpr, Subst, Var};

/// A node in a pattern: either a concrete language node or a pattern
/// variable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ENodeOrVar<L> {
    /// A concrete operator (children point into the pattern).
    ENode(L),
    /// A pattern variable, matching any e-class.
    Var(Var),
}

impl<L: Language> Language for ENodeOrVar<L> {
    fn children(&self) -> &[Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children(),
            ENodeOrVar::Var(_) => &[],
        }
    }
    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            ENodeOrVar::ENode(n) => n.children_mut(),
            ENodeOrVar::Var(_) => &mut [],
        }
    }
    fn op_name(&self) -> String {
        match self {
            ENodeOrVar::ENode(n) => n.op_name(),
            ENodeOrVar::Var(v) => v.to_string(),
        }
    }
    fn from_op(op: &str, children: &[Id]) -> Result<Self, FromOpError> {
        if op.starts_with('?') && op.len() > 1 {
            if children.is_empty() {
                Ok(ENodeOrVar::Var(op.parse().map_err(|_| {
                    FromOpError::new(op, 0, "malformed pattern variable")
                })?))
            } else {
                Err(FromOpError::new(
                    op,
                    children.len(),
                    "pattern variables cannot have children",
                ))
            }
        } else {
            L::from_op(op, children).map(ENodeOrVar::ENode)
        }
    }
}

/// A pattern: a term with variables, e-matched against the e-graph
/// ([`Pattern::search`]) or instantiated into it ([`Pattern::instantiate`] via
/// [`crate::Rewrite`]).
///
/// # Examples
///
/// ```
/// use sz_egraph::{EGraph, Pattern, tests_lang::Arith};
/// let mut eg: EGraph<Arith, ()> = EGraph::default();
/// eg.add_expr(&"(+ 1 (+ 2 3))".parse().unwrap());
/// eg.rebuild();
/// let pat: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
/// let matches = pat.search(&eg);
/// assert_eq!(matches.iter().map(|m| m.substs.len()).sum::<usize>(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern<L> {
    ast: RecExpr<ENodeOrVar<L>>,
}

/// All matches of one pattern within one e-class.
#[derive(Debug, Clone)]
pub struct SearchMatches {
    /// The e-class in which the pattern root matched.
    pub eclass: Id,
    /// One substitution per distinct way the pattern matched.
    pub substs: Vec<Subst>,
}

impl<L: Language> Pattern<L> {
    /// Builds a pattern from its AST.
    ///
    /// # Panics
    ///
    /// Panics if the AST is empty.
    pub fn new(ast: RecExpr<ENodeOrVar<L>>) -> Self {
        assert!(!ast.is_empty(), "empty pattern");
        Pattern { ast }
    }

    /// The pattern's AST.
    pub fn ast(&self) -> &RecExpr<ENodeOrVar<L>> {
        &self.ast
    }

    /// The variables appearing in this pattern, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut vars = Vec::new();
        for (_, node) in self.ast.iter() {
            if let ENodeOrVar::Var(v) = node {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
        }
        vars
    }

    /// Searches the whole e-graph for matches by walking every e-class —
    /// the **naive reference matcher**.
    ///
    /// [`Rewrite`](crate::Rewrite) does not use this during saturation: it
    /// holds a [`CompiledPattern`](crate::CompiledPattern) executing a
    /// compiled e-matching program over the operator index instead. This
    /// implementation is kept as the independently-simple oracle the
    /// differential suites compare every rule's compiled program
    /// against.
    ///
    /// # Contract
    ///
    /// The e-graph must be clean ([`EGraph::is_clean`]); a dirty graph has
    /// stale congruence data and search may miss matches. This is a debug
    /// assertion rather than a hard panic: [`Runner::run`](crate::Runner::run)
    /// rebuilds before every search phase, so the contract is enforced
    /// automatically for runner users, and library callers searching
    /// directly should call [`EGraph::rebuild`] first.
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        debug_assert!(
            egraph.is_clean(),
            "searching a dirty e-graph; call rebuild() first"
        );
        egraph
            .classes()
            .filter_map(|class| self.search_eclass(egraph, class.id))
            .collect()
    }

    /// Searches a single e-class for matches of this pattern's root.
    pub fn search_eclass<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        let eclass = egraph.find(eclass);
        let substs = self.match_in_class(egraph, self.ast.root(), eclass, Subst::new());
        if substs.is_empty() {
            None
        } else {
            let mut substs = substs;
            substs.sort_unstable();
            substs.dedup();
            Some(SearchMatches { eclass, substs })
        }
    }

    fn match_in_class<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        pat_id: Id,
        eclass: Id,
        subst: Subst,
    ) -> Vec<Subst> {
        let eclass = egraph.find(eclass);
        match &self.ast[pat_id] {
            ENodeOrVar::Var(v) => match subst.get(*v) {
                Some(bound) if egraph.find(bound) == eclass => vec![subst],
                Some(_) => vec![],
                None => {
                    let mut subst = subst;
                    subst.insert(*v, eclass);
                    vec![subst]
                }
            },
            ENodeOrVar::ENode(pnode) => {
                let mut out = Vec::new();
                for enode in egraph.class_nodes(eclass) {
                    if !same_shape(pnode, enode) {
                        continue;
                    }
                    let mut partial = vec![subst.clone()];
                    for (&pchild, &echild) in pnode.children().iter().zip(enode.children()) {
                        let mut next = Vec::new();
                        for s in partial {
                            next.extend(self.match_in_class(egraph, pchild, echild, s));
                        }
                        partial = next;
                        if partial.is_empty() {
                            break;
                        }
                    }
                    out.extend(partial);
                }
                out
            }
        }
    }

    /// Instantiates the pattern under `subst`, adding the resulting term to
    /// the e-graph and returning its class. Patterns of up to 8 nodes
    /// (every built-in right-hand side) allocate nothing here.
    ///
    /// # Panics
    ///
    /// Panics if a pattern variable is unbound in `subst`.
    pub fn instantiate<N: Analysis<L>>(&self, egraph: &mut EGraph<L, N>, subst: &Subst) -> Id {
        let mut ids: InlineVec<Id, 8> = InlineVec::with_capacity(self.ast.len());
        for (_, node) in self.ast.iter() {
            let id = match node {
                ENodeOrVar::Var(v) => subst[*v],
                ENodeOrVar::ENode(n) => {
                    let n = n.map_children(|c| ids[usize::from(c)]);
                    egraph.add(n)
                }
            };
            ids.push(id);
        }
        *ids.last().expect("pattern is nonempty")
    }
}

/// Like [`Language::matches`] but between a pattern's inner node and an
/// e-graph node.
fn same_shape<L: Language>(a: &L, b: &L) -> bool {
    a.matches(b)
}

impl<L: Language> fmt::Display for Pattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.ast)
    }
}

impl<L: Language> std::str::FromStr for Pattern<L> {
    type Err = RecExprParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tokens = tokenize(s);
        let mut pos = 0usize;
        let mut ast: RecExpr<ENodeOrVar<L>> = RecExpr::new();
        parse_term(&tokens, &mut pos, &mut ast)?;
        if pos != tokens.len() {
            return Err(RecExprParseError(format!(
                "trailing tokens in pattern: {:?}",
                &tokens[pos..]
            )));
        }
        Ok(Pattern::new(ast))
    }
}

impl<L: Language> From<&RecExpr<L>> for Pattern<L> {
    /// A ground pattern matching exactly the given expression.
    fn from(expr: &RecExpr<L>) -> Self {
        let mut ast = RecExpr::new();
        for (_, node) in expr.iter() {
            ast.add(ENodeOrVar::ENode(node.clone()));
        }
        Pattern::new(ast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;

    fn graph(exprs: &[&str]) -> (EGraph<Arith, ()>, Vec<Id>) {
        let mut eg = EGraph::default();
        let ids = exprs
            .iter()
            .map(|s| eg.add_expr(&s.parse().unwrap()))
            .collect();
        eg.rebuild();
        (eg, ids)
    }

    #[test]
    fn pattern_parse_display() {
        let p: Pattern<Arith> = "(+ ?a (* ?b 2))".parse().unwrap();
        assert_eq!(p.to_string(), "(+ ?a (* ?b 2))");
        assert_eq!(p.vars().len(), 2);
    }

    #[test]
    fn ground_pattern_matches_itself_only() {
        let (eg, ids) = graph(&["(+ 1 2)", "(+ 2 1)"]);
        let p: Pattern<Arith> = "(+ 1 2)".parse().unwrap();
        let ms = p.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(eg.find(ms[0].eclass), eg.find(ids[0]));
    }

    #[test]
    fn nonlinear_pattern_requires_equality() {
        let (eg, _) = graph(&["(+ x x)", "(+ x y)"]);
        let p: Pattern<Arith> = "(+ ?a ?a)".parse().unwrap();
        let ms = p.search(&eg);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].substs.len(), 1);
    }

    #[test]
    fn nonlinear_pattern_matches_after_union() {
        let (mut eg, _) = graph(&["(+ x y)"]);
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let y = eg.lookup_expr(&"y".parse().unwrap()).unwrap();
        let p: Pattern<Arith> = "(+ ?a ?a)".parse().unwrap();
        assert!(p.search(&eg).is_empty());
        eg.union(x, y);
        eg.rebuild();
        assert_eq!(p.search(&eg).len(), 1);
    }

    #[test]
    fn instantiate_adds_term() {
        let (mut eg, _) = graph(&["(+ 1 2)"]);
        let p: Pattern<Arith> = "(* ?a ?a)".parse().unwrap();
        let one = eg.lookup_expr(&"1".parse().unwrap()).unwrap();
        let mut subst = Subst::new();
        subst.insert("?a".parse().unwrap(), one);
        let id = p.instantiate(&mut eg, &subst);
        eg.rebuild();
        assert_eq!(eg.lookup_expr(&"(* 1 1)".parse().unwrap()), Some(id));
    }

    #[test]
    fn matches_through_multiple_nodes_in_class() {
        let (mut eg, ids) = graph(&["(+ 1 2)", "(* 3 4)"]);
        eg.union(ids[0], ids[1]);
        eg.rebuild();
        let padd: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
        let pmul: Pattern<Arith> = "(* ?a ?b)".parse().unwrap();
        // The merged class matches both patterns.
        assert_eq!(padd.search(&eg).len(), 1);
        assert_eq!(pmul.search(&eg).len(), 1);
    }
}
