//! A tiny arithmetic language used by this crate's own tests and doc
//! examples. Hidden from the main documentation; downstream crates define
//! their own real languages.

use crate::{Analysis, DidMerge, EGraph, FromOpError, Id, Language};

/// Integer arithmetic with `+`, `*`, and named variables.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Arith {
    /// Integer literal.
    Num(i64),
    /// A free variable such as `x`.
    Var(crate::Symbol),
    /// Addition of two subterms.
    Add([Id; 2]),
    /// Multiplication of two subterms.
    Mul([Id; 2]),
}

impl Language for Arith {
    fn children(&self) -> &[Id] {
        match self {
            Arith::Num(_) | Arith::Var(_) => &[],
            Arith::Add(ids) | Arith::Mul(ids) => ids,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            Arith::Num(_) | Arith::Var(_) => &mut [],
            Arith::Add(ids) | Arith::Mul(ids) => ids,
        }
    }

    fn op_name(&self) -> String {
        match self {
            Arith::Num(n) => n.to_string(),
            Arith::Var(s) => s.to_string(),
            Arith::Add(_) => "+".into(),
            Arith::Mul(_) => "*".into(),
        }
    }

    fn from_op(op: &str, children: &[Id]) -> Result<Self, FromOpError> {
        match (op, children) {
            ("+", &[a, b]) => Ok(Arith::Add([a, b])),
            ("*", &[a, b]) => Ok(Arith::Mul([a, b])),
            (_, []) => {
                if let Ok(n) = op.parse::<i64>() {
                    Ok(Arith::Num(n))
                } else if op.chars().all(|c| c.is_ascii_alphabetic()) {
                    Ok(Arith::Var(crate::Symbol::new(op)))
                } else {
                    Err(FromOpError::new(op, 0, "not a number or variable"))
                }
            }
            _ => Err(FromOpError::new(op, children.len(), "unknown operator")),
        }
    }
}

/// Constant folding analysis for [`Arith`]: each class knows whether it is a
/// constant, and constant classes get a `Num` node added.
#[derive(Debug, Clone, Default)]
pub struct ConstFold;

impl Analysis<Arith> for ConstFold {
    type Data = Option<i64>;

    fn make(egraph: &EGraph<Arith, Self>, enode: &Arith) -> Self::Data {
        let get = |id: &Id| egraph[*id].data;
        match enode {
            Arith::Num(n) => Some(*n),
            Arith::Var(_) => None,
            Arith::Add([a, b]) => Some(get(a)?.checked_add(get(b)?)?),
            Arith::Mul([a, b]) => Some(get(a)?.checked_mul(get(b)?)?),
        }
    }

    fn merge(&mut self, to: &mut Self::Data, from: Self::Data) -> DidMerge {
        match (&*to, from) {
            (None, Some(x)) => {
                *to = Some(x);
                DidMerge(true, false)
            }
            (Some(_), None) => DidMerge(false, true),
            (Some(a), Some(b)) => {
                assert_eq!(*a, b, "inconsistent constants merged");
                DidMerge(false, false)
            }
            (None, None) => DidMerge(false, false),
        }
    }

    fn modify(egraph: &mut EGraph<Arith, Self>, id: Id) {
        if let Some(n) = egraph[id].data {
            let added = egraph.add(Arith::Num(n));
            egraph.union(id, added);
        }
    }
}
