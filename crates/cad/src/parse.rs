//! Conversion between [`Cad`]/[`Expr`] and [`Sexp`], defining the concrete
//! surface syntax used throughout this reproduction:
//!
//! ```text
//! cad  ::= Empty | Unit | Cylinder | Sphere | Hexagon | Nil | c
//!        | (External name)
//!        | (Translate e e e cad) | (Scale e e e cad) | (Rotate e e e cad)
//!        | (Union cad cad) | (Diff cad cad) | (Inter cad cad)
//!        | (Cons cad cad) | (Concat cad cad) | (Repeat cad e)
//!        | (Mapi fun cad) | (Fun cad)
//!        | (MapIdx e cad) | (MapIdx2 e e cad) | (MapIdx3 e e e cad)
//!        | (Fold op cad cad)           where op ∈ {Union, Diff, Inter}
//! e    ::= number | i | j | k
//!        | (+ e e) | (- e e) | (* e e) | (/ e e) | (Sin e) | (Cos e)
//! ```

use std::fmt;

use crate::{AffineKind, BoolOp, Cad, Expr, Sexp, SexpParseError, V3};

/// Error converting an [`Sexp`] into a [`Cad`] or [`Expr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CadParseError(String);

impl CadParseError {
    fn new(msg: impl Into<String>) -> Self {
        CadParseError(msg.into())
    }
}

impl fmt::Display for CadParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failed to parse CAD term: {}", self.0)
    }
}

impl std::error::Error for CadParseError {}

impl From<SexpParseError> for CadParseError {
    fn from(e: SexpParseError) -> Self {
        CadParseError(e.to_string())
    }
}

fn bool_op(name: &str) -> Option<BoolOp> {
    match name {
        "Union" => Some(BoolOp::Union),
        "Diff" => Some(BoolOp::Diff),
        "Inter" => Some(BoolOp::Inter),
        _ => None,
    }
}

fn affine_kind(name: &str) -> Option<AffineKind> {
    match name {
        "Translate" => Some(AffineKind::Translate),
        "Scale" => Some(AffineKind::Scale),
        "Rotate" => Some(AffineKind::Rotate),
        _ => None,
    }
}

/// Parses an [`Expr`] from an s-expression.
///
/// # Errors
///
/// Returns an error for unknown operators or wrong arities.
pub fn expr_from_sexp(sexp: &Sexp) -> Result<Expr, CadParseError> {
    match sexp {
        Sexp::Atom(a) => match a.as_str() {
            "i" => Ok(Expr::Idx(0)),
            "j" => Ok(Expr::Idx(1)),
            "k" => Ok(Expr::Idx(2)),
            _ => a
                .parse::<f64>()
                .map(Expr::num)
                .map_err(|_| CadParseError::new(format!("expected number or index, got `{a}`"))),
        },
        Sexp::List(items) => {
            let [head, rest @ ..] = items.as_slice() else {
                return Err(CadParseError::new("empty expression list"));
            };
            let head = head
                .as_atom()
                .ok_or_else(|| CadParseError::new("expression operator must be an atom"))?;
            let binary = |ctor: fn(Box<Expr>, Box<Expr>) -> Expr| -> Result<Expr, CadParseError> {
                match rest {
                    [a, b] => Ok(ctor(
                        Box::new(expr_from_sexp(a)?),
                        Box::new(expr_from_sexp(b)?),
                    )),
                    _ => Err(CadParseError::new(format!(
                        "`{head}` expects 2 arguments, got {}",
                        rest.len()
                    ))),
                }
            };
            match head {
                "+" => binary(Expr::Add),
                "-" => binary(Expr::Sub),
                "*" => binary(Expr::Mul),
                "/" => binary(Expr::Div),
                "Sin" => match rest {
                    [a] => Ok(Expr::sin(expr_from_sexp(a)?)),
                    _ => Err(CadParseError::new("`Sin` expects 1 argument")),
                },
                "Cos" => match rest {
                    [a] => Ok(Expr::cos(expr_from_sexp(a)?)),
                    _ => Err(CadParseError::new("`Cos` expects 1 argument")),
                },
                _ => Err(CadParseError::new(format!(
                    "unknown expression operator `{head}`"
                ))),
            }
        }
    }
}

/// Parses a [`Cad`] term from an s-expression.
///
/// # Errors
///
/// Returns an error for unknown operators or wrong arities.
pub fn cad_from_sexp(sexp: &Sexp) -> Result<Cad, CadParseError> {
    match sexp {
        Sexp::Atom(a) => match a.as_str() {
            "Empty" => Ok(Cad::Empty),
            "Unit" => Ok(Cad::Unit),
            "Cylinder" => Ok(Cad::Cylinder),
            "Sphere" => Ok(Cad::Sphere),
            "Hexagon" => Ok(Cad::Hexagon),
            "Nil" => Ok(Cad::Nil),
            "c" => Ok(Cad::Param),
            _ => Err(CadParseError::new(format!("unknown CAD atom `{a}`"))),
        },
        Sexp::List(items) => {
            let [head, rest @ ..] = items.as_slice() else {
                return Err(CadParseError::new("empty CAD list"));
            };
            let head = head
                .as_atom()
                .ok_or_else(|| CadParseError::new("CAD operator must be an atom"))?;

            if let Some(kind) = affine_kind(head) {
                let [x, y, z, c] = rest else {
                    return Err(CadParseError::new(format!(
                        "`{head}` expects 4 arguments (x y z cad), got {}",
                        rest.len()
                    )));
                };
                return Ok(Cad::Affine(
                    kind,
                    V3(expr_from_sexp(x)?, expr_from_sexp(y)?, expr_from_sexp(z)?),
                    Box::new(cad_from_sexp(c)?),
                ));
            }
            if let Some(op) = bool_op(head) {
                let [a, b] = rest else {
                    return Err(CadParseError::new(format!(
                        "`{head}` expects 2 arguments, got {}",
                        rest.len()
                    )));
                };
                return Ok(Cad::Binop(
                    op,
                    Box::new(cad_from_sexp(a)?),
                    Box::new(cad_from_sexp(b)?),
                ));
            }
            match head {
                "External" => match rest {
                    [Sexp::Atom(name)] => Ok(Cad::External(name.clone())),
                    _ => Err(CadParseError::new("`External` expects a name atom")),
                },
                "Cons" => match rest {
                    [h, t] => Ok(Cad::Cons(
                        Box::new(cad_from_sexp(h)?),
                        Box::new(cad_from_sexp(t)?),
                    )),
                    _ => Err(CadParseError::new("`Cons` expects 2 arguments")),
                },
                "Concat" => match rest {
                    [a, b] => Ok(Cad::Concat(
                        Box::new(cad_from_sexp(a)?),
                        Box::new(cad_from_sexp(b)?),
                    )),
                    _ => Err(CadParseError::new("`Concat` expects 2 arguments")),
                },
                "Repeat" => match rest {
                    [c, n] => Ok(Cad::Repeat(Box::new(cad_from_sexp(c)?), expr_from_sexp(n)?)),
                    _ => Err(CadParseError::new("`Repeat` expects 2 arguments")),
                },
                "Mapi" => match rest {
                    [f, l] => Ok(Cad::Mapi(
                        Box::new(cad_from_sexp(f)?),
                        Box::new(cad_from_sexp(l)?),
                    )),
                    _ => Err(CadParseError::new("`Mapi` expects 2 arguments")),
                },
                "Fun" => match rest {
                    [body] => Ok(Cad::Fun(Box::new(cad_from_sexp(body)?))),
                    _ => Err(CadParseError::new("`Fun` expects 1 argument")),
                },
                "MapIdx" | "MapIdx2" | "MapIdx3" => {
                    let want = match head {
                        "MapIdx" => 1,
                        "MapIdx2" => 2,
                        _ => 3,
                    };
                    if rest.len() != want + 1 {
                        return Err(CadParseError::new(format!(
                            "`{head}` expects {} arguments, got {}",
                            want + 1,
                            rest.len()
                        )));
                    }
                    let bounds = rest[..want]
                        .iter()
                        .map(expr_from_sexp)
                        .collect::<Result<Vec<_>, _>>()?;
                    let body = cad_from_sexp(&rest[want])?;
                    Ok(Cad::MapIdx(bounds, Box::new(body)))
                }
                "Fold" => match rest {
                    [op, init, list] => {
                        let op = op.as_atom().and_then(bool_op).ok_or_else(|| {
                            CadParseError::new("`Fold` operator must be Union/Diff/Inter")
                        })?;
                        Ok(Cad::Fold(
                            op,
                            Box::new(cad_from_sexp(init)?),
                            Box::new(cad_from_sexp(list)?),
                        ))
                    }
                    _ => Err(CadParseError::new("`Fold` expects 3 arguments")),
                },
                _ => Err(CadParseError::new(format!("unknown CAD operator `{head}`"))),
            }
        }
    }
}

/// Serializes an [`Expr`] to an s-expression.
pub fn expr_to_sexp(expr: &Expr) -> Sexp {
    match expr {
        Expr::Num(x) => Sexp::atom(x.to_string()),
        Expr::Idx(0) => Sexp::atom("i"),
        Expr::Idx(1) => Sexp::atom("j"),
        Expr::Idx(_) => Sexp::atom("k"),
        Expr::Add(a, b) => Sexp::list(vec![Sexp::atom("+"), expr_to_sexp(a), expr_to_sexp(b)]),
        Expr::Sub(a, b) => Sexp::list(vec![Sexp::atom("-"), expr_to_sexp(a), expr_to_sexp(b)]),
        Expr::Mul(a, b) => Sexp::list(vec![Sexp::atom("*"), expr_to_sexp(a), expr_to_sexp(b)]),
        Expr::Div(a, b) => Sexp::list(vec![Sexp::atom("/"), expr_to_sexp(a), expr_to_sexp(b)]),
        Expr::Sin(a) => Sexp::list(vec![Sexp::atom("Sin"), expr_to_sexp(a)]),
        Expr::Cos(a) => Sexp::list(vec![Sexp::atom("Cos"), expr_to_sexp(a)]),
    }
}

/// Serializes a [`Cad`] to an s-expression.
pub fn cad_to_sexp(cad: &Cad) -> Sexp {
    match cad {
        Cad::Empty => Sexp::atom("Empty"),
        Cad::Unit => Sexp::atom("Unit"),
        Cad::Cylinder => Sexp::atom("Cylinder"),
        Cad::Sphere => Sexp::atom("Sphere"),
        Cad::Hexagon => Sexp::atom("Hexagon"),
        Cad::Nil => Sexp::atom("Nil"),
        Cad::Param => Sexp::atom("c"),
        Cad::External(name) => Sexp::list(vec![Sexp::atom("External"), Sexp::atom(name.clone())]),
        Cad::Affine(kind, v, c) => Sexp::list(vec![
            Sexp::atom(kind.name()),
            expr_to_sexp(&v.0),
            expr_to_sexp(&v.1),
            expr_to_sexp(&v.2),
            cad_to_sexp(c),
        ]),
        Cad::Binop(op, a, b) => {
            Sexp::list(vec![Sexp::atom(op.name()), cad_to_sexp(a), cad_to_sexp(b)])
        }
        Cad::Cons(h, t) => Sexp::list(vec![Sexp::atom("Cons"), cad_to_sexp(h), cad_to_sexp(t)]),
        Cad::Concat(a, b) => Sexp::list(vec![Sexp::atom("Concat"), cad_to_sexp(a), cad_to_sexp(b)]),
        Cad::Repeat(c, n) => {
            Sexp::list(vec![Sexp::atom("Repeat"), cad_to_sexp(c), expr_to_sexp(n)])
        }
        Cad::Mapi(f, l) => Sexp::list(vec![Sexp::atom("Mapi"), cad_to_sexp(f), cad_to_sexp(l)]),
        Cad::Fun(body) => Sexp::list(vec![Sexp::atom("Fun"), cad_to_sexp(body)]),
        Cad::MapIdx(bounds, body) => {
            let head = match bounds.len() {
                1 => "MapIdx",
                2 => "MapIdx2",
                _ => "MapIdx3",
            };
            let mut items = vec![Sexp::atom(head)];
            items.extend(bounds.iter().map(expr_to_sexp));
            items.push(cad_to_sexp(body));
            Sexp::list(items)
        }
        Cad::Fold(op, init, list) => Sexp::list(vec![
            Sexp::atom("Fold"),
            Sexp::atom(op.name()),
            cad_to_sexp(init),
            cad_to_sexp(list),
        ]),
    }
}

impl std::str::FromStr for Cad {
    type Err = CadParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sexp: Sexp = s.parse()?;
        cad_from_sexp(&sexp)
    }
}

/// Prints the same text as `cad_to_sexp(self).to_string()`, written
/// straight to the formatter: a cache key or an input check prints its
/// program without building an intermediate [`Sexp`] tree.
impl fmt::Display for Cad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cad::Empty => f.write_str("Empty"),
            Cad::Unit => f.write_str("Unit"),
            Cad::Cylinder => f.write_str("Cylinder"),
            Cad::Sphere => f.write_str("Sphere"),
            Cad::Hexagon => f.write_str("Hexagon"),
            Cad::Nil => f.write_str("Nil"),
            Cad::Param => f.write_str("c"),
            Cad::External(name) => write!(f, "(External {name})"),
            Cad::Affine(kind, v, c) => {
                write!(f, "({} {} {} {} {c})", kind.name(), v.0, v.1, v.2)
            }
            Cad::Binop(op, a, b) => write!(f, "({} {a} {b})", op.name()),
            Cad::Cons(h, t) => write!(f, "(Cons {h} {t})"),
            Cad::Concat(a, b) => write!(f, "(Concat {a} {b})"),
            Cad::Repeat(c, n) => write!(f, "(Repeat {c} {n})"),
            Cad::Mapi(fun, l) => write!(f, "(Mapi {fun} {l})"),
            Cad::Fun(body) => write!(f, "(Fun {body})"),
            Cad::MapIdx(bounds, body) => {
                f.write_str(match bounds.len() {
                    1 => "(MapIdx",
                    2 => "(MapIdx2",
                    _ => "(MapIdx3",
                })?;
                for b in bounds {
                    write!(f, " {b}")?;
                }
                write!(f, " {body})")
            }
            Cad::Fold(op, init, list) => write!(f, "(Fold {} {init} {list})", op.name()),
        }
    }
}

impl std::str::FromStr for Expr {
    type Err = CadParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sexp: Sexp = s.parse()?;
        expr_from_sexp(&sexp)
    }
}

/// Prints the same text as `expr_to_sexp(self).to_string()` (see
/// `Display for Cad`).
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(x) => write!(f, "{x}"),
            Expr::Idx(0) => f.write_str("i"),
            Expr::Idx(1) => f.write_str("j"),
            Expr::Idx(_) => f.write_str("k"),
            Expr::Add(a, b) => write!(f, "(+ {a} {b})"),
            Expr::Sub(a, b) => write!(f, "(- {a} {b})"),
            Expr::Mul(a, b) => write!(f, "(* {a} {b})"),
            Expr::Div(a, b) => write!(f, "(/ {a} {b})"),
            Expr::Sin(a) => write!(f, "(Sin {a})"),
            Expr::Cos(a) => write!(f, "(Cos {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cad_roundtrips() {
        let examples = [
            "Unit",
            "(Union Unit Sphere)",
            "(Translate 1 2 3 (Scale 2 2 2 Cylinder))",
            "(Diff (Scale 20 20 3 Unit) (Translate 5 5 0 Hexagon))",
            "(Fold Union Empty (Cons Unit (Cons Sphere Nil)))",
            "(Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 5))",
            "(MapIdx2 2 3 (Translate (- (* 24 i) 12) (- (* 24 j) 12) 0 Unit))",
            "(External hull_part_1)",
            "(Rotate 0 0 (/ (* 360 i) 60) c)",
            "(Translate (+ 10 (* 7.07 (Sin (+ (* 90 i) 315)))) 0 1.5 Hexagon)",
        ];
        for s in examples {
            let cad: Cad = s.parse().unwrap();
            assert_eq!(cad.to_string(), s, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn expr_roundtrips() {
        for s in ["1", "2.5", "i", "(+ i 1)", "(Sin (* 90 j))", "(/ k 2)"] {
            let e: Expr = s.parse().unwrap();
            assert_eq!(e.to_string(), s);
        }
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "(Union Unit)",
            "(Translate 1 2 Unit)",
            "(Fold Bogus Empty Nil)",
            "(Squish 1 2)",
            "frobnicate",
            "(Repeat Unit)",
        ] {
            assert!(s.parse::<Cad>().is_err(), "should reject {s}");
        }
    }

    #[test]
    fn negative_and_float_numbers() {
        let cad: Cad = "(Translate -12 12.5 0.001 Unit)".parse().unwrap();
        match &cad {
            Cad::Affine(AffineKind::Translate, v, _) => {
                assert_eq!(v.as_nums(), Some([-12.0, 12.5, 0.001]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
