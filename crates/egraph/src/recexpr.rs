//! [`RecExpr`]: a recursive expression represented as a flat, deduplicated
//! array of nodes in topological order.

use std::fmt;

use crate::{FromOpError, Id, Language};

/// A term over a [`Language`], stored as a post-order array.
///
/// Children of node `i` always have indices `< i`, so the last node is the
/// root. This is the form in which terms enter and leave the e-graph.
///
/// # Examples
///
/// ```
/// use sz_egraph::{RecExpr, tests_lang::Arith};
/// let expr: RecExpr<Arith> = "(+ 1 (* 2 3))".parse().unwrap();
/// assert_eq!(expr.to_string(), "(+ 1 (* 2 3))");
/// assert_eq!(expr.len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecExpr<L> {
    nodes: Vec<L>,
}

impl<L> Default for RecExpr<L> {
    fn default() -> Self {
        RecExpr { nodes: Vec::new() }
    }
}

impl<L: Language> RecExpr<L> {
    /// Creates an empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node whose children must already be in this expression, and
    /// returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any child id is out of bounds.
    pub fn add(&mut self, node: L) -> Id {
        for child in node.children() {
            assert!(
                usize::from(*child) < self.nodes.len(),
                "child {child} out of bounds adding node with {} nodes present",
                self.nodes.len()
            );
        }
        self.nodes.push(node);
        Id::from(self.nodes.len() - 1)
    }

    /// The number of nodes (including all subterms).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root id (the last node added).
    ///
    /// # Panics
    ///
    /// Panics if the expression is empty.
    pub fn root(&self) -> Id {
        assert!(!self.nodes.is_empty(), "empty RecExpr has no root");
        Id::from(self.nodes.len() - 1)
    }

    /// Iterates over `(id, node)` pairs in topological (post) order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &L)> {
        self.nodes.iter().enumerate().map(|(i, n)| (Id::from(i), n))
    }

    /// All nodes as a slice, in topological order.
    pub fn as_slice(&self) -> &[L] {
        &self.nodes
    }

    /// Builds an expression by copying the subtree rooted at `id` out of
    /// `other`, deduplicating shared subterms.
    pub fn from_subtree(other: &RecExpr<L>, root: Id) -> Self {
        fn go<L: Language>(
            src: &RecExpr<L>,
            id: Id,
            dst: &mut RecExpr<L>,
            memo: &mut Vec<Option<Id>>,
        ) -> Id {
            if let Some(new) = memo[usize::from(id)] {
                return new;
            }
            let node = src[id].map_children(|c| go(src, c, dst, memo));
            let new = dst.add(node);
            memo[usize::from(id)] = Some(new);
            new
        }
        let mut dst = RecExpr::new();
        let mut memo = vec![None; other.len()];
        go(other, root, &mut dst, &mut memo);
        dst
    }

    /// Recursively computes the total number of nodes in the *tree* rooted
    /// at the root (shared subterms counted once per occurrence).
    pub fn tree_size(&self) -> usize {
        fn go<L: Language>(expr: &RecExpr<L>, id: Id) -> usize {
            1 + expr[id]
                .children()
                .iter()
                .map(|&c| go(expr, c))
                .sum::<usize>()
        }
        if self.is_empty() {
            0
        } else {
            go(self, self.root())
        }
    }

    /// Parses an s-expression string using [`Language::from_op`].
    ///
    /// # Errors
    ///
    /// Returns an error on malformed s-expressions or unknown operators.
    pub fn parse_sexp(s: &str) -> Result<Self, RecExprParseError> {
        let tokens = tokenize(s);
        let mut pos = 0usize;
        let mut expr = RecExpr::new();
        parse_term(&tokens, &mut pos, &mut expr)?;
        if pos != tokens.len() {
            return Err(RecExprParseError(format!(
                "trailing tokens after expression: {:?}",
                &tokens[pos..]
            )));
        }
        Ok(expr)
    }
}

impl<L> std::ops::Index<Id> for RecExpr<L> {
    type Output = L;
    fn index(&self, id: Id) -> &L {
        &self.nodes[usize::from(id)]
    }
}

impl<L> std::ops::IndexMut<Id> for RecExpr<L> {
    fn index_mut(&mut self, id: Id) -> &mut L {
        &mut self.nodes[usize::from(id)]
    }
}

impl<L: Language> fmt::Display for RecExpr<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "()");
        }
        fn go<L: Language>(expr: &RecExpr<L>, id: Id, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let node = &expr[id];
            if node.is_leaf() {
                write!(f, "{}", node.op_name())
            } else {
                write!(f, "({}", node.op_name())?;
                for &child in node.children() {
                    write!(f, " ")?;
                    go(expr, child, f)?;
                }
                write!(f, ")")
            }
        }
        go(self, self.root(), f)
    }
}

/// Error type for [`RecExpr::parse_sexp`] and `str::parse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecExprParseError(pub(crate) String);

impl fmt::Display for RecExprParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to parse expression: {}", self.0)
    }
}

impl std::error::Error for RecExprParseError {}

impl From<FromOpError> for RecExprParseError {
    fn from(e: FromOpError) -> Self {
        RecExprParseError(e.to_string())
    }
}

impl<L: Language> std::str::FromStr for RecExpr<L> {
    type Err = RecExprParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        RecExpr::parse_sexp(s)
    }
}

pub(crate) fn tokenize(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '(' | ')' => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
                tokens.push(ch.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    tokens.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

pub(crate) fn parse_term<L: Language>(
    tokens: &[String],
    pos: &mut usize,
    expr: &mut RecExpr<L>,
) -> Result<Id, RecExprParseError> {
    let tok = tokens
        .get(*pos)
        .ok_or_else(|| RecExprParseError("unexpected end of input".into()))?;
    if tok == "(" {
        *pos += 1;
        let op = tokens
            .get(*pos)
            .ok_or_else(|| RecExprParseError("missing operator after `(`".into()))?;
        if op == "(" || op == ")" {
            return Err(RecExprParseError(format!("expected operator, got `{op}`")));
        }
        *pos += 1;
        let mut children = Vec::new();
        loop {
            let tok = tokens
                .get(*pos)
                .ok_or_else(|| RecExprParseError(format!("unclosed `(` for operator {op}")))?;
            if tok == ")" {
                *pos += 1;
                break;
            }
            children.push(parse_term(tokens, pos, expr)?);
        }
        let node = L::from_op(op, &children)?;
        Ok(expr.add(node))
    } else if tok == ")" {
        Err(RecExprParseError("unexpected `)`".into()))
    } else {
        let node = L::from_op(tok, &[])?;
        *pos += 1;
        Ok(expr.add(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;

    #[test]
    fn parse_and_print_roundtrip() {
        for s in ["1", "(+ 1 2)", "(+ (* 2 3) (+ 4 5))"] {
            let e: RecExpr<Arith> = s.parse().unwrap();
            assert_eq!(e.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "(", ")", "(+ 1", "(+ 1 2) 3", "(+ 1 2))"] {
            assert!(s.parse::<RecExpr<Arith>>().is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn tree_size_counts_occurrences() {
        let e: RecExpr<Arith> = "(+ (* 2 3) (* 2 3))".parse().unwrap();
        assert_eq!(e.tree_size(), 7);
    }

    #[test]
    fn from_subtree_extracts() {
        let e: RecExpr<Arith> = "(+ (* 2 3) 4)".parse().unwrap();
        let mul_id = e
            .iter()
            .find(|(_, n)| n.op_name() == "*")
            .map(|(id, _)| id)
            .unwrap();
        let sub = RecExpr::from_subtree(&e, mul_id);
        assert_eq!(sub.to_string(), "(* 2 3)");
    }
}
