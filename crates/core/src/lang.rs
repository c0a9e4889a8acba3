//! [`CadLang`]: the e-graph term language for CSG/LambdaCAD, plus lossless
//! conversions to and from the tree AST [`sz_cad::Cad`].
//!
//! The e-graph form differs from the surface AST in two ways: vectors are
//! explicit `(Vec3 x y z)` nodes (so rewrites can bind a whole vector with
//! one pattern variable), and `Fold`'s operator is a leaf node
//! (`UnionOp`/...).

use sz_cad::{AffineKind, BoolOp, Cad, Expr, OrderedF64, V3};
use sz_egraph::{FromOpError, Id, Language, RecExpr, Symbol};

/// An e-node of the CAD language.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CadLang {
    /// Numeric literal.
    Num(OrderedF64),
    /// Loop index variable (0 = `i`, 1 = `j`, 2 = `k`).
    Idx(u8),
    /// Addition of two numeric subterms.
    Add([Id; 2]),
    /// Subtraction.
    Sub([Id; 2]),
    /// Multiplication.
    Mul([Id; 2]),
    /// Division.
    Div([Id; 2]),
    /// Sine (degrees).
    Sin([Id; 1]),
    /// Cosine (degrees).
    Cos([Id; 1]),
    /// A vector of three numeric subterms.
    Vec3([Id; 3]),
    /// The empty solid.
    Empty,
    /// Unit cube.
    Unit,
    /// Unit cylinder.
    Cylinder,
    /// Unit sphere.
    Sphere,
    /// Unit hexagonal prism.
    Hexagon,
    /// Named opaque solid.
    External(Symbol),
    /// `Translate(vec, cad)`.
    Translate([Id; 2]),
    /// `Scale(vec, cad)`.
    Scale([Id; 2]),
    /// `Rotate(vec, cad)`.
    Rotate([Id; 2]),
    /// Set union.
    Union([Id; 2]),
    /// Set difference.
    Diff([Id; 2]),
    /// Set intersection.
    Inter([Id; 2]),
    /// Empty list.
    Nil,
    /// List cons.
    Cons([Id; 2]),
    /// List append.
    Concat([Id; 2]),
    /// `Repeat(cad, n)`.
    Repeat([Id; 2]),
    /// `Mapi(fun, list)`.
    Mapi([Id; 2]),
    /// Index loop with 1 bound: `(bound, body)`.
    MapIdx1([Id; 2]),
    /// Index loop with 2 bounds: `(b1, b2, body)`.
    MapIdx2([Id; 3]),
    /// Index loop with 3 bounds: `(b1, b2, b3, body)`.
    MapIdx3([Id; 4]),
    /// Unary function binding `i` and `c`.
    Fun([Id; 1]),
    /// The `Mapi` element variable `c`.
    Param,
    /// Fold operator leaf: union.
    UnionOp,
    /// Fold operator leaf: difference.
    DiffOp,
    /// Fold operator leaf: intersection.
    InterOp,
    /// `Fold(op, init, list)`.
    Fold([Id; 3]),
}

impl CadLang {
    /// The affine kind of this node, if it is an affine transformation.
    pub fn affine_kind(&self) -> Option<AffineKind> {
        match self {
            CadLang::Translate(_) => Some(AffineKind::Translate),
            CadLang::Scale(_) => Some(AffineKind::Scale),
            CadLang::Rotate(_) => Some(AffineKind::Rotate),
            _ => None,
        }
    }

    /// Builds an affine node of the given kind.
    pub fn affine(kind: AffineKind, vec: Id, cad: Id) -> CadLang {
        match kind {
            AffineKind::Translate => CadLang::Translate([vec, cad]),
            AffineKind::Scale => CadLang::Scale([vec, cad]),
            AffineKind::Rotate => CadLang::Rotate([vec, cad]),
        }
    }

    /// Builds a boolean node of the given operator.
    pub fn binop(op: BoolOp, a: Id, b: Id) -> CadLang {
        match op {
            BoolOp::Union => CadLang::Union([a, b]),
            BoolOp::Diff => CadLang::Diff([a, b]),
            BoolOp::Inter => CadLang::Inter([a, b]),
        }
    }

    /// The fold-operator leaf for a boolean operator.
    pub fn fold_op(op: BoolOp) -> CadLang {
        match op {
            BoolOp::Union => CadLang::UnionOp,
            BoolOp::Diff => CadLang::DiffOp,
            BoolOp::Inter => CadLang::InterOp,
        }
    }

    /// The boolean operator denoted by a fold-operator leaf.
    pub fn as_fold_op(&self) -> Option<BoolOp> {
        match self {
            CadLang::UnionOp => Some(BoolOp::Union),
            CadLang::DiffOp => Some(BoolOp::Diff),
            CadLang::InterOp => Some(BoolOp::Inter),
            _ => None,
        }
    }
}

impl Language for CadLang {
    fn children(&self) -> &[Id] {
        match self {
            CadLang::Num(_)
            | CadLang::Idx(_)
            | CadLang::Empty
            | CadLang::Unit
            | CadLang::Cylinder
            | CadLang::Sphere
            | CadLang::Hexagon
            | CadLang::External(_)
            | CadLang::Nil
            | CadLang::Param
            | CadLang::UnionOp
            | CadLang::DiffOp
            | CadLang::InterOp => &[],
            CadLang::Sin(ids) | CadLang::Cos(ids) | CadLang::Fun(ids) => ids,
            CadLang::Add(ids)
            | CadLang::Sub(ids)
            | CadLang::Mul(ids)
            | CadLang::Div(ids)
            | CadLang::Translate(ids)
            | CadLang::Scale(ids)
            | CadLang::Rotate(ids)
            | CadLang::Union(ids)
            | CadLang::Diff(ids)
            | CadLang::Inter(ids)
            | CadLang::Cons(ids)
            | CadLang::Concat(ids)
            | CadLang::Repeat(ids)
            | CadLang::Mapi(ids)
            | CadLang::MapIdx1(ids) => ids,
            CadLang::Vec3(ids) | CadLang::MapIdx2(ids) | CadLang::Fold(ids) => ids,
            CadLang::MapIdx3(ids) => ids,
        }
    }

    fn children_mut(&mut self) -> &mut [Id] {
        match self {
            CadLang::Num(_)
            | CadLang::Idx(_)
            | CadLang::Empty
            | CadLang::Unit
            | CadLang::Cylinder
            | CadLang::Sphere
            | CadLang::Hexagon
            | CadLang::External(_)
            | CadLang::Nil
            | CadLang::Param
            | CadLang::UnionOp
            | CadLang::DiffOp
            | CadLang::InterOp => &mut [],
            CadLang::Sin(ids) | CadLang::Cos(ids) | CadLang::Fun(ids) => ids,
            CadLang::Add(ids)
            | CadLang::Sub(ids)
            | CadLang::Mul(ids)
            | CadLang::Div(ids)
            | CadLang::Translate(ids)
            | CadLang::Scale(ids)
            | CadLang::Rotate(ids)
            | CadLang::Union(ids)
            | CadLang::Diff(ids)
            | CadLang::Inter(ids)
            | CadLang::Cons(ids)
            | CadLang::Concat(ids)
            | CadLang::Repeat(ids)
            | CadLang::Mapi(ids)
            | CadLang::MapIdx1(ids) => ids,
            CadLang::Vec3(ids) | CadLang::MapIdx2(ids) | CadLang::Fold(ids) => ids,
            CadLang::MapIdx3(ids) => ids,
        }
    }

    fn op_name(&self) -> String {
        match self {
            CadLang::Num(x) => x.to_string(),
            CadLang::Idx(0) => "i".into(),
            CadLang::Idx(1) => "j".into(),
            CadLang::Idx(_) => "k".into(),
            CadLang::Add(_) => "+".into(),
            CadLang::Sub(_) => "-".into(),
            CadLang::Mul(_) => "*".into(),
            CadLang::Div(_) => "/".into(),
            CadLang::Sin(_) => "Sin".into(),
            CadLang::Cos(_) => "Cos".into(),
            CadLang::Vec3(_) => "Vec3".into(),
            CadLang::Empty => "Empty".into(),
            CadLang::Unit => "Unit".into(),
            CadLang::Cylinder => "Cylinder".into(),
            CadLang::Sphere => "Sphere".into(),
            CadLang::Hexagon => "Hexagon".into(),
            CadLang::External(s) => format!("Ext:{s}"),
            CadLang::Translate(_) => "Translate".into(),
            CadLang::Scale(_) => "Scale".into(),
            CadLang::Rotate(_) => "Rotate".into(),
            CadLang::Union(_) => "Union".into(),
            CadLang::Diff(_) => "Diff".into(),
            CadLang::Inter(_) => "Inter".into(),
            CadLang::Nil => "Nil".into(),
            CadLang::Cons(_) => "Cons".into(),
            CadLang::Concat(_) => "Concat".into(),
            CadLang::Repeat(_) => "Repeat".into(),
            CadLang::Mapi(_) => "Mapi".into(),
            CadLang::MapIdx1(_) => "MapIdx".into(),
            CadLang::MapIdx2(_) => "MapIdx2".into(),
            CadLang::MapIdx3(_) => "MapIdx3".into(),
            CadLang::Fun(_) => "Fun".into(),
            CadLang::Param => "c".into(),
            CadLang::UnionOp => "UnionOp".into(),
            CadLang::DiffOp => "DiffOp".into(),
            CadLang::InterOp => "InterOp".into(),
            CadLang::Fold(_) => "Fold".into(),
        }
    }

    fn from_op(op: &str, children: &[Id]) -> Result<Self, FromOpError> {
        let n = children.len();
        let pair = |ctor: fn([Id; 2]) -> CadLang| match children {
            &[a, b] => Ok(ctor([a, b])),
            _ => Err(FromOpError::new(op, n, "expects 2 children")),
        };
        let one = |ctor: fn([Id; 1]) -> CadLang| match children {
            &[a] => Ok(ctor([a])),
            _ => Err(FromOpError::new(op, n, "expects 1 child")),
        };
        let triple = |ctor: fn([Id; 3]) -> CadLang| match children {
            &[a, b, c] => Ok(ctor([a, b, c])),
            _ => Err(FromOpError::new(op, n, "expects 3 children")),
        };
        let leaf = |node: CadLang| {
            if n == 0 {
                Ok(node)
            } else {
                Err(FromOpError::new(op, n, "expects no children"))
            }
        };
        match op {
            "+" => pair(CadLang::Add),
            "-" => pair(CadLang::Sub),
            "*" => pair(CadLang::Mul),
            "/" => pair(CadLang::Div),
            "Sin" => one(CadLang::Sin),
            "Cos" => one(CadLang::Cos),
            "Vec3" => triple(CadLang::Vec3),
            "i" => leaf(CadLang::Idx(0)),
            "j" => leaf(CadLang::Idx(1)),
            "k" => leaf(CadLang::Idx(2)),
            "Empty" => leaf(CadLang::Empty),
            "Unit" => leaf(CadLang::Unit),
            "Cylinder" => leaf(CadLang::Cylinder),
            "Sphere" => leaf(CadLang::Sphere),
            "Hexagon" => leaf(CadLang::Hexagon),
            "Nil" => leaf(CadLang::Nil),
            "c" => leaf(CadLang::Param),
            "UnionOp" => leaf(CadLang::UnionOp),
            "DiffOp" => leaf(CadLang::DiffOp),
            "InterOp" => leaf(CadLang::InterOp),
            "Translate" => pair(CadLang::Translate),
            "Scale" => pair(CadLang::Scale),
            "Rotate" => pair(CadLang::Rotate),
            "Union" => pair(CadLang::Union),
            "Diff" => pair(CadLang::Diff),
            "Inter" => pair(CadLang::Inter),
            "Cons" => pair(CadLang::Cons),
            "Concat" => pair(CadLang::Concat),
            "Repeat" => pair(CadLang::Repeat),
            "Mapi" => pair(CadLang::Mapi),
            "MapIdx" => pair(CadLang::MapIdx1),
            "MapIdx2" => triple(CadLang::MapIdx2),
            "MapIdx3" => match children {
                &[a, b, c, d] => Ok(CadLang::MapIdx3([a, b, c, d])),
                _ => Err(FromOpError::new(op, n, "expects 4 children")),
            },
            "Fun" => one(CadLang::Fun),
            "Fold" => triple(CadLang::Fold),
            _ => {
                if let Some(name) = op.strip_prefix("Ext:") {
                    leaf(CadLang::External(Symbol::new(name)))
                } else if let Ok(x) = op.parse::<f64>() {
                    leaf(CadLang::Num(OrderedF64::new(x)))
                } else {
                    Err(FromOpError::new(op, n, "unknown operator"))
                }
            }
        }
    }
}

pub(crate) fn expr_to_lang(expr: &Expr, out: &mut RecExpr<CadLang>) -> Id {
    match expr {
        Expr::Num(x) => out.add(CadLang::Num(*x)),
        Expr::Idx(d) => out.add(CadLang::Idx(*d)),
        Expr::Add(a, b) => {
            let (a, b) = (expr_to_lang(a, out), expr_to_lang(b, out));
            out.add(CadLang::Add([a, b]))
        }
        Expr::Sub(a, b) => {
            let (a, b) = (expr_to_lang(a, out), expr_to_lang(b, out));
            out.add(CadLang::Sub([a, b]))
        }
        Expr::Mul(a, b) => {
            let (a, b) = (expr_to_lang(a, out), expr_to_lang(b, out));
            out.add(CadLang::Mul([a, b]))
        }
        Expr::Div(a, b) => {
            let (a, b) = (expr_to_lang(a, out), expr_to_lang(b, out));
            out.add(CadLang::Div([a, b]))
        }
        Expr::Sin(a) => {
            let a = expr_to_lang(a, out);
            out.add(CadLang::Sin([a]))
        }
        Expr::Cos(a) => {
            let a = expr_to_lang(a, out);
            out.add(CadLang::Cos([a]))
        }
    }
}

fn cad_to_lang_rec(cad: &Cad, out: &mut RecExpr<CadLang>) -> Id {
    match cad {
        Cad::Empty => out.add(CadLang::Empty),
        Cad::Unit => out.add(CadLang::Unit),
        Cad::Cylinder => out.add(CadLang::Cylinder),
        Cad::Sphere => out.add(CadLang::Sphere),
        Cad::Hexagon => out.add(CadLang::Hexagon),
        Cad::External(name) => out.add(CadLang::External(Symbol::new(name))),
        Cad::Param => out.add(CadLang::Param),
        Cad::Nil => out.add(CadLang::Nil),
        Cad::Affine(kind, v, c) => {
            let x = expr_to_lang(&v.0, out);
            let y = expr_to_lang(&v.1, out);
            let z = expr_to_lang(&v.2, out);
            let vec = out.add(CadLang::Vec3([x, y, z]));
            let c = cad_to_lang_rec(c, out);
            out.add(CadLang::affine(*kind, vec, c))
        }
        Cad::Binop(op, a, b) => {
            let a = cad_to_lang_rec(a, out);
            let b = cad_to_lang_rec(b, out);
            out.add(CadLang::binop(*op, a, b))
        }
        Cad::Cons(h, t) => {
            let h = cad_to_lang_rec(h, out);
            let t = cad_to_lang_rec(t, out);
            out.add(CadLang::Cons([h, t]))
        }
        Cad::Concat(a, b) => {
            let a = cad_to_lang_rec(a, out);
            let b = cad_to_lang_rec(b, out);
            out.add(CadLang::Concat([a, b]))
        }
        Cad::Repeat(c, n) => {
            let c = cad_to_lang_rec(c, out);
            let n = expr_to_lang(n, out);
            out.add(CadLang::Repeat([c, n]))
        }
        Cad::Mapi(f, l) => {
            let f = cad_to_lang_rec(f, out);
            let l = cad_to_lang_rec(l, out);
            out.add(CadLang::Mapi([f, l]))
        }
        Cad::MapIdx(bounds, body) => {
            let bs: Vec<Id> = bounds.iter().map(|b| expr_to_lang(b, out)).collect();
            let body = cad_to_lang_rec(body, out);
            match bs.len() {
                1 => out.add(CadLang::MapIdx1([bs[0], body])),
                2 => out.add(CadLang::MapIdx2([bs[0], bs[1], body])),
                _ => out.add(CadLang::MapIdx3([bs[0], bs[1], bs[2], body])),
            }
        }
        Cad::Fun(body) => {
            let body = cad_to_lang_rec(body, out);
            out.add(CadLang::Fun([body]))
        }
        Cad::Fold(op, init, list) => {
            let o = out.add(CadLang::fold_op(*op));
            let init = cad_to_lang_rec(init, out);
            let list = cad_to_lang_rec(list, out);
            out.add(CadLang::Fold([o, init, list]))
        }
    }
}

/// Converts a surface AST into an e-graph expression.
pub fn cad_to_lang(cad: &Cad) -> RecExpr<CadLang> {
    let mut out = RecExpr::new();
    cad_to_lang_rec(cad, &mut out);
    out
}

/// Error converting an e-graph expression back to the surface AST (e.g. a
/// numeric node where a solid was expected).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FromLangError(String);

impl std::fmt::Display for FromLangError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot convert e-graph term to CAD: {}", self.0)
    }
}

impl std::error::Error for FromLangError {}

fn lang_to_expr(expr: &RecExpr<CadLang>, id: Id) -> Result<Expr, FromLangError> {
    let e = |i: Id| lang_to_expr(expr, i);
    match &expr[id] {
        CadLang::Num(x) => Ok(Expr::Num(*x)),
        CadLang::Idx(d) => Ok(Expr::Idx(*d)),
        CadLang::Add([a, b]) => Ok(Expr::Add(Box::new(e(*a)?), Box::new(e(*b)?))),
        CadLang::Sub([a, b]) => Ok(Expr::Sub(Box::new(e(*a)?), Box::new(e(*b)?))),
        CadLang::Mul([a, b]) => Ok(Expr::Mul(Box::new(e(*a)?), Box::new(e(*b)?))),
        CadLang::Div([a, b]) => Ok(Expr::Div(Box::new(e(*a)?), Box::new(e(*b)?))),
        CadLang::Sin([a]) => Ok(Expr::Sin(Box::new(e(*a)?))),
        CadLang::Cos([a]) => Ok(Expr::Cos(Box::new(e(*a)?))),
        other => Err(FromLangError(format!(
            "expected numeric expression, found {}",
            other.op_name()
        ))),
    }
}

/// Converts the subtree rooted at `id` back to the surface AST.
///
/// # Errors
///
/// Returns [`FromLangError`] if the term is ill-sorted (a number where a
/// solid belongs, etc.), which indicates a bug in rule construction.
pub fn lang_to_cad_at(expr: &RecExpr<CadLang>, id: Id) -> Result<Cad, FromLangError> {
    let c = |i: Id| lang_to_cad_at(expr, i);
    let e = |i: Id| lang_to_expr(expr, i);
    match &expr[id] {
        CadLang::Empty => Ok(Cad::Empty),
        CadLang::Unit => Ok(Cad::Unit),
        CadLang::Cylinder => Ok(Cad::Cylinder),
        CadLang::Sphere => Ok(Cad::Sphere),
        CadLang::Hexagon => Ok(Cad::Hexagon),
        CadLang::External(s) => Ok(Cad::External(s.as_str().to_owned())),
        CadLang::Param => Ok(Cad::Param),
        CadLang::Nil => Ok(Cad::Nil),
        node @ (CadLang::Translate([v, ch])
        | CadLang::Scale([v, ch])
        | CadLang::Rotate([v, ch])) => {
            let kind = node.affine_kind().expect("matched affine");
            let CadLang::Vec3([x, y, z]) = expr[*v] else {
                return Err(FromLangError("affine argument must be a Vec3".into()));
            };
            Ok(Cad::Affine(
                kind,
                V3(e(x)?, e(y)?, e(z)?),
                Box::new(c(*ch)?),
            ))
        }
        CadLang::Union([a, b]) => Ok(Cad::union(c(*a)?, c(*b)?)),
        CadLang::Diff([a, b]) => Ok(Cad::diff(c(*a)?, c(*b)?)),
        CadLang::Inter([a, b]) => Ok(Cad::inter(c(*a)?, c(*b)?)),
        CadLang::Cons([h, t]) => Ok(Cad::Cons(Box::new(c(*h)?), Box::new(c(*t)?))),
        CadLang::Concat([a, b]) => Ok(Cad::Concat(Box::new(c(*a)?), Box::new(c(*b)?))),
        CadLang::Repeat([ch, n]) => Ok(Cad::Repeat(Box::new(c(*ch)?), e(*n)?)),
        CadLang::Mapi([f, l]) => Ok(Cad::Mapi(Box::new(c(*f)?), Box::new(c(*l)?))),
        CadLang::MapIdx1([b, body]) => Ok(Cad::MapIdx(vec![e(*b)?], Box::new(c(*body)?))),
        CadLang::MapIdx2([b1, b2, body]) => {
            Ok(Cad::MapIdx(vec![e(*b1)?, e(*b2)?], Box::new(c(*body)?)))
        }
        CadLang::MapIdx3([b1, b2, b3, body]) => Ok(Cad::MapIdx(
            vec![e(*b1)?, e(*b2)?, e(*b3)?],
            Box::new(c(*body)?),
        )),
        CadLang::Fun([body]) => Ok(Cad::Fun(Box::new(c(*body)?))),
        CadLang::Fold([op, init, list]) => {
            let op = expr[*op].as_fold_op().ok_or_else(|| {
                FromLangError("Fold operator must be UnionOp/DiffOp/InterOp".into())
            })?;
            Ok(Cad::Fold(op, Box::new(c(*init)?), Box::new(c(*list)?)))
        }
        other => Err(FromLangError(format!(
            "expected a CAD term, found {}",
            other.op_name()
        ))),
    }
}

/// Converts a whole e-graph expression (rooted at its last node) back to
/// the surface AST.
///
/// # Errors
///
/// See [`lang_to_cad_at`].
pub fn lang_to_cad(expr: &RecExpr<CadLang>) -> Result<Cad, FromLangError> {
    lang_to_cad_at(expr, expr.root())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let cad: Cad = s.parse().unwrap();
        let lang = cad_to_lang(&cad);
        let back = lang_to_cad(&lang).unwrap();
        assert_eq!(back, cad, "roundtrip through CadLang failed for {s}");
    }

    #[test]
    fn ast_roundtrips() {
        for s in [
            "Unit",
            "(Union Unit Sphere)",
            "(Translate 1 2 3 (Scale 2 2 2 Cylinder))",
            "(Fold Union Empty (Cons Unit (Cons Sphere Nil)))",
            "(Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 5))",
            "(MapIdx2 2 3 (Translate (- (* 24 i) 12) (- (* 24 j) 12) 0 Unit))",
            "(MapIdx3 2 2 2 (Translate i j k Unit))",
            "(External hull_part)",
            "(Concat (Repeat Unit 2) Nil)",
            "(Translate (+ 10 (* 7.07 (Sin (+ (* 90 i) 315)))) 0 1.5 Hexagon)",
        ] {
            roundtrip(s);
        }
    }

    #[test]
    fn lang_expr_parses_patterns() {
        // The e-graph surface form used by rewrite rules.
        let e: RecExpr<CadLang> =
            "(Union (Translate (Vec3 1 2 3) Unit) (Translate (Vec3 1 2 3) Sphere))"
                .parse()
                .unwrap();
        // RecExpr parsing does not deduplicate repeated subterms.
        assert_eq!(e.len(), 13);
        let cad = lang_to_cad(&e).unwrap();
        assert_eq!(
            cad.to_string(),
            "(Union (Translate 1 2 3 Unit) (Translate 1 2 3 Sphere))"
        );
    }

    #[test]
    fn external_symbol_roundtrip() {
        let e: RecExpr<CadLang> = "Ext:mirror_part".parse().unwrap();
        assert_eq!(
            lang_to_cad(&e).unwrap(),
            Cad::External("mirror_part".into())
        );
    }

    #[test]
    fn ill_sorted_conversion_fails() {
        let e: RecExpr<CadLang> = "(Union 1 Unit)".parse().unwrap();
        assert!(lang_to_cad(&e).is_err());
        let e: RecExpr<CadLang> = "(Translate Unit Unit)".parse().unwrap();
        assert!(lang_to_cad(&e).is_err());
    }

    #[test]
    fn sharing_is_preserved_in_size() {
        let cad: Cad = "(Union (Translate 1 2 3 Unit) (Translate 1 2 3 Unit))"
            .parse()
            .unwrap();
        let lang = cad_to_lang(&cad);
        // RecExpr::add does not deduplicate; both subtrees are materialized.
        assert_eq!(lang.len(), 13);
    }
}
