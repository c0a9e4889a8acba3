//! Program metrics used throughout the evaluation: AST size, depth,
//! primitive count, and flatness (Table 1 columns `#ns`, `#d`, `#p`).

use crate::{Cad, Expr};

impl Cad {
    /// Total number of AST nodes, counting both CAD nodes and the
    /// arithmetic expression nodes inside vectors, counts, and bounds
    /// (Table 1's `#i-ns` / `#o-ns`).
    pub fn num_nodes(&self) -> usize {
        match self {
            Cad::Empty
            | Cad::Unit
            | Cad::Cylinder
            | Cad::Sphere
            | Cad::Hexagon
            | Cad::Nil
            | Cad::Param
            | Cad::External(_) => 1,
            Cad::Affine(_, v, c) => 1 + v.num_nodes() + c.num_nodes(),
            Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) | Cad::Mapi(a, b) => {
                1 + a.num_nodes() + b.num_nodes()
            }
            Cad::Repeat(c, n) => 1 + c.num_nodes() + n.num_nodes(),
            Cad::MapIdx(bounds, body) => {
                1 + bounds.iter().map(Expr::num_nodes).sum::<usize>() + body.num_nodes()
            }
            Cad::Fun(body) => 1 + body.num_nodes(),
            Cad::Fold(_, init, list) => 1 + init.num_nodes() + list.num_nodes(),
        }
    }

    /// Depth of the CAD AST (Table 1's `#i-d` / `#o-d`); a leaf has
    /// depth 1. Expression subtrees do not contribute.
    pub fn depth(&self) -> usize {
        match self {
            Cad::Empty
            | Cad::Unit
            | Cad::Cylinder
            | Cad::Sphere
            | Cad::Hexagon
            | Cad::Nil
            | Cad::Param
            | Cad::External(_) => 1,
            Cad::Affine(_, _, c) | Cad::Repeat(c, _) | Cad::Fun(c) | Cad::MapIdx(_, c) => {
                1 + c.depth()
            }
            Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) | Cad::Mapi(a, b) => {
                1 + a.depth().max(b.depth())
            }
            Cad::Fold(_, init, list) => 1 + init.depth().max(list.depth()),
        }
    }

    /// Whether some node sits more than `levels` levels below the root,
    /// i.e. `depth() - 1 > levels`. Unlike [`Cad::depth`] it never
    /// recurses more than `levels + 1` calls deep, so it is safe on a term
    /// nested too deep for the recursive walkers.
    pub fn nests_deeper_than(&self, levels: usize) -> bool {
        // A child sits one level down.
        let deeper = |c: &Cad| levels == 0 || c.nests_deeper_than(levels - 1);
        match self {
            Cad::Empty
            | Cad::Unit
            | Cad::Cylinder
            | Cad::Sphere
            | Cad::Hexagon
            | Cad::Nil
            | Cad::Param
            | Cad::External(_) => false,
            Cad::Affine(_, _, c) | Cad::Repeat(c, _) | Cad::Fun(c) | Cad::MapIdx(_, c) => deeper(c),
            Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) | Cad::Mapi(a, b) => {
                deeper(a) || deeper(b)
            }
            Cad::Fold(_, init, list) => deeper(init) || deeper(list),
        }
    }

    /// Number of textual occurrences of 3D primitive shapes (Table 1's
    /// `#i-p` / `#o-p`). `Empty` and `Nil` do not count; `External` does
    /// (it stands for a solid).
    pub fn num_prims(&self) -> usize {
        match self {
            Cad::Unit | Cad::Cylinder | Cad::Sphere | Cad::Hexagon | Cad::External(_) => 1,
            Cad::Empty | Cad::Nil | Cad::Param => 0,
            Cad::Affine(_, _, c) | Cad::Repeat(c, _) | Cad::Fun(c) | Cad::MapIdx(_, c) => {
                c.num_prims()
            }
            Cad::Binop(_, a, b) | Cad::Cons(a, b) | Cad::Concat(a, b) | Cad::Mapi(a, b) => {
                a.num_prims() + b.num_prims()
            }
            Cad::Fold(_, init, list) => init.num_prims() + list.num_prims(),
        }
    }

    /// True if this term is in the *flat CSG* input language: only
    /// primitives, affine transformations with constant vectors, and
    /// boolean operations (no lists, loops, functions, or index
    /// variables).
    pub fn is_flat_csg(&self) -> bool {
        match self {
            Cad::Empty
            | Cad::Unit
            | Cad::Cylinder
            | Cad::Sphere
            | Cad::Hexagon
            | Cad::External(_) => true,
            Cad::Affine(_, v, c) => v.as_nums().is_some() && c.is_flat_csg(),
            Cad::Binop(_, a, b) => a.is_flat_csg() && b.is_flat_csg(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Cad {
        s.parse().unwrap()
    }

    #[test]
    fn node_counts() {
        assert_eq!(parse("Unit").num_nodes(), 1);
        // Union + 2 leaves.
        assert_eq!(parse("(Union Unit Sphere)").num_nodes(), 3);
        // Translate + 3 expr nodes + leaf.
        assert_eq!(parse("(Translate 1 2 3 Unit)").num_nodes(), 5);
        // Rotate + (0,0,(/ (* 360 i) 60)=5 exprs) + c = 1 + 2 + 5 + 1.
        assert_eq!(parse("(Rotate 0 0 (/ (* 360 i) 60) c)").num_nodes(), 9);
    }

    #[test]
    fn depths() {
        assert_eq!(parse("Unit").depth(), 1);
        assert_eq!(parse("(Union Unit (Translate 1 2 3 Unit))").depth(), 3);
        assert_eq!(parse("(Fold Union Empty (Cons Unit Nil))").depth(), 3);
    }

    #[test]
    fn nesting_bound_agrees_with_depth() {
        for text in [
            "Unit",
            "(Union Unit (Translate 1 2 3 Unit))",
            "(Fold Union Empty (Cons Unit Nil))",
            "(Diff (Union Unit (Union Sphere (Scale 2 2 2 Unit))) Sphere)",
        ] {
            let cad = parse(text);
            for levels in 0..6 {
                assert_eq!(
                    cad.nests_deeper_than(levels),
                    cad.depth() - 1 > levels,
                    "{text} at {levels}"
                );
            }
        }
        // A chain nested 2 000 levels deep is refused from its first
        // levels; one nested exactly 8 levels deep is not.
        assert!(Cad::union_chain(vec![Cad::Unit; 2_001]).nests_deeper_than(8));
        assert!(!Cad::union_chain(vec![Cad::Unit; 9]).nests_deeper_than(8));
    }

    #[test]
    fn primitive_counts() {
        assert_eq!(parse("(Union Unit (Union Sphere Hexagon))").num_prims(), 3);
        assert_eq!(parse("(Repeat Unit 60)").num_prims(), 1);
        assert_eq!(parse("(External foo)").num_prims(), 1);
        assert_eq!(parse("Empty").num_prims(), 0);
    }

    #[test]
    fn flatness() {
        assert!(parse("(Diff (Scale 2 2 2 Unit) Sphere)").is_flat_csg());
        assert!(!parse("(Fold Union Empty Nil)").is_flat_csg());
        assert!(!parse("(Translate i 0 0 Unit)").is_flat_csg());
        assert!(!parse("(Repeat Unit 3)").is_flat_csg());
    }
}
