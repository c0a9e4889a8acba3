//! The semantics-preserving rewrite set (paper Fig. 8): affine lifting,
//! affine reordering, affine collapsing, fold introduction, and boolean
//! laws.
//!
//! Purely syntactic rules are pattern → pattern; rules that must compute
//! new constant vectors (reordering/collapsing) are "dynamic": their
//! appliers read concrete vectors from the [`CadAnalysis`] and construct
//! result nodes in Rust, declining when operands are not concrete.
//!
//! Both constructors hand their left-hand pattern to [`Rewrite::new`] /
//! [`Rewrite::parse`], which compile it **once** into an e-matching VM
//! program executed over the e-graph's operator index (see
//! `sz_egraph::machine`) — a rule like `collapse-scale` only ever visits
//! classes that actually contain a `Scale` node. The original pattern
//! stays reachable via [`Rewrite::searcher`] as the naive oracle for the
//! VM-vs-naive differential suite (`tests/ematch_differential.rs`); the
//! compiled program is the only matcher saturation runs.
//!
//! Note on the rotate/translate reordering rules: Fig. 8b as printed
//! contains `tan⁻¹(cosθ/sinθ)` terms that do not type-check geometrically;
//! we implement the standard identities
//! `rotate_A(θ) ∘ translate(v) = translate(R_A(θ)·v) ∘ rotate_A(θ)`
//! for axis-aligned rotations (validated against the mesh semantics in the
//! integration tests).

use sz_egraph::{FnApplier, Id, Rewrite, Subst, Var};

use crate::analysis::{add_vec, vec_of, CadAnalysis, CadGraph};
use crate::CadLang;

/// The rewrite type used by the synthesizer.
pub type CadRewrite = Rewrite<CadLang, CadAnalysis>;

fn var(s: &str) -> Var {
    s.parse().expect("valid var literal")
}

fn syntactic(name: &str, lhs: &str, rhs: &str) -> CadRewrite {
    Rewrite::parse(name, lhs, rhs).expect("rule must parse")
}

fn dynamic(
    name: &str,
    lhs: &str,
    f: impl Fn(&mut CadGraph, &Subst) -> Option<Id> + Send + Sync + 'static,
) -> CadRewrite {
    Rewrite::new(
        name,
        lhs.parse().expect("rule pattern must parse"),
        FnApplier(move |eg: &mut CadGraph, _id, subst: &Subst| f(eg, subst)),
    )
    .expect("dynamic rule must validate")
}

/// If `v` is an axis-aligned rotation vector (at most one nonzero angle),
/// returns `(axis, angle_degrees)`. The zero vector reports axis 2 with
/// angle 0, which every identity below treats correctly.
fn axis_angle(v: [f64; 3]) -> Option<(usize, f64)> {
    let nonzero: Vec<usize> = (0..3).filter(|&a| v[a].abs() > 1e-12).collect();
    match nonzero.as_slice() {
        [] => Some((2, 0.0)),
        [a] => Some((*a, v[*a])),
        _ => None,
    }
}

/// Applies the axis rotation `R_axis(θ)` to a vector (θ in degrees,
/// OpenSCAD's right-handed convention).
fn rotate_vec(axis: usize, theta_deg: f64, v: [f64; 3]) -> [f64; 3] {
    let (s, c) = theta_deg.to_radians().sin_cos();
    let [x, y, z] = v;
    match axis {
        0 => [x, c * y - s * z, s * y + c * z],
        1 => [c * x + s * z, y, -s * x + c * z],
        _ => [c * x - s * y, s * x + c * y, z],
    }
}

/// Affine lifting (Fig. 8a): `T(a) ∘ T(b) ⇝ T(a ∘ b)` for every boolean
/// operator and affine kind — 9 rules.
pub fn lifting_rules() -> Vec<CadRewrite> {
    let mut rules = Vec::new();
    for op in ["Union", "Diff", "Inter"] {
        for kind in ["Translate", "Scale", "Rotate"] {
            rules.push(syntactic(
                &format!("lift-{}-{}", kind.to_lowercase(), op.to_lowercase()),
                &format!("({op} ({kind} ?v ?a) ({kind} ?v ?b))"),
                &format!("({kind} ?v ({op} ?a ?b))"),
            ));
        }
    }
    rules
}

/// Affine reordering (Fig. 8b): uniform-scale/rotate commutation (purely
/// syntactic) plus scale/translate and rotate/translate exchanges
/// (dynamic, computing the adjusted vector) — 6 rules.
pub fn reordering_rules() -> Vec<CadRewrite> {
    let (vs, vt, vc, vr) = (var("?s"), var("?t"), var("?c"), var("?r"));
    vec![
        syntactic(
            "reorder-uscale-rotate",
            "(Scale (Vec3 ?x ?x ?x) (Rotate ?v ?c))",
            "(Rotate ?v (Scale (Vec3 ?x ?x ?x) ?c))",
        ),
        syntactic(
            "reorder-rotate-uscale",
            "(Rotate ?v (Scale (Vec3 ?x ?x ?x) ?c))",
            "(Scale (Vec3 ?x ?x ?x) (Rotate ?v ?c))",
        ),
        // scale(s, translate(t, c)) ⇝ translate(s⊙t, scale(s, c))
        dynamic(
            "reorder-scale-translate",
            "(Scale ?s (Translate ?t ?c))",
            move |eg, subst| {
                let s = vec_of(eg, subst[vs])?;
                let t = vec_of(eg, subst[vt])?;
                let new_t = add_vec(eg, [s[0] * t[0], s[1] * t[1], s[2] * t[2]]);
                let inner = eg.add(CadLang::Scale([subst[vs], subst[vc]]));
                Some(eg.add(CadLang::Translate([new_t, inner])))
            },
        ),
        // translate(t, scale(s, c)) ⇝ scale(s, translate(t⊘s, c)), s ≠ 0
        dynamic(
            "reorder-translate-scale",
            "(Translate ?t (Scale ?s ?c))",
            move |eg, subst| {
                let s = vec_of(eg, subst[vs])?;
                let t = vec_of(eg, subst[vt])?;
                if s.iter().any(|x| x.abs() < 1e-12) {
                    return None;
                }
                let new_t = add_vec(eg, [t[0] / s[0], t[1] / s[1], t[2] / s[2]]);
                let inner = eg.add(CadLang::Translate([new_t, subst[vc]]));
                Some(eg.add(CadLang::Scale([subst[vs], inner])))
            },
        ),
        // rotate_A(θ, translate(t, c)) ⇝ translate(R_A(θ)t, rotate_A(θ, c))
        dynamic(
            "reorder-rotate-translate",
            "(Rotate ?r (Translate ?t ?c))",
            move |eg, subst| {
                let r = vec_of(eg, subst[vr])?;
                let t = vec_of(eg, subst[vt])?;
                let (axis, theta) = axis_angle(r)?;
                let new_t = add_vec(eg, rotate_vec(axis, theta, t));
                let inner = eg.add(CadLang::Rotate([subst[vr], subst[vc]]));
                Some(eg.add(CadLang::Translate([new_t, inner])))
            },
        ),
        // translate(t, rotate_A(θ, c)) ⇝ rotate_A(θ, translate(R_A(−θ)t, c))
        dynamic(
            "reorder-translate-rotate",
            "(Translate ?t (Rotate ?r ?c))",
            move |eg, subst| {
                let r = vec_of(eg, subst[vr])?;
                let t = vec_of(eg, subst[vt])?;
                let (axis, theta) = axis_angle(r)?;
                let new_t = add_vec(eg, rotate_vec(axis, -theta, t));
                let inner = eg.add(CadLang::Translate([new_t, subst[vc]]));
                Some(eg.add(CadLang::Rotate([subst[vr], inner])))
            },
        ),
    ]
}

/// Affine collapsing (Fig. 8c): nested same-kind transformations merge —
/// 3 dynamic rules plus 3 identity eliminations.
pub fn collapsing_rules() -> Vec<CadRewrite> {
    let (va, vb, vc) = (var("?a"), var("?b"), var("?c"));
    let (vr1, vr2) = (var("?r1"), var("?r2"));
    vec![
        dynamic(
            "collapse-translate",
            "(Translate ?a (Translate ?b ?c))",
            move |eg, subst| {
                let a = vec_of(eg, subst[va])?;
                let b = vec_of(eg, subst[vb])?;
                let v = add_vec(eg, [a[0] + b[0], a[1] + b[1], a[2] + b[2]]);
                Some(eg.add(CadLang::Translate([v, subst[vc]])))
            },
        ),
        dynamic(
            "collapse-scale",
            "(Scale ?a (Scale ?b ?c))",
            move |eg, subst| {
                let a = vec_of(eg, subst[va])?;
                let b = vec_of(eg, subst[vb])?;
                let v = add_vec(eg, [a[0] * b[0], a[1] * b[1], a[2] * b[2]]);
                Some(eg.add(CadLang::Scale([v, subst[vc]])))
            },
        ),
        // Axis-aligned rotations about the same axis compose by angle sum.
        dynamic(
            "collapse-rotate",
            "(Rotate ?r1 (Rotate ?r2 ?c))",
            move |eg, subst| {
                let r1 = vec_of(eg, subst[vr1])?;
                let r2 = vec_of(eg, subst[vr2])?;
                let (a1, t1) = axis_angle(r1)?;
                let (a2, t2) = axis_angle(r2)?;
                if a1 != a2 && t1.abs() > 1e-12 && t2.abs() > 1e-12 {
                    return None;
                }
                let axis = if t1.abs() > 1e-12 { a1 } else { a2 };
                let mut v = [0.0; 3];
                v[axis] = t1 + t2;
                let v = add_vec(eg, v);
                Some(eg.add(CadLang::Rotate([v, subst[vc]])))
            },
        ),
        syntactic("identity-translate", "(Translate (Vec3 0 0 0) ?c)", "?c"),
        syntactic("identity-scale", "(Scale (Vec3 1 1 1) ?c)", "?c"),
        syntactic("identity-rotate", "(Rotate (Vec3 0 0 0) ?c)", "?c"),
    ]
}

/// Fold introduction (Fig. 8d) and list normalization — 7 rules.
pub fn fold_rules() -> Vec<CadRewrite> {
    vec![
        syntactic(
            "fold-intro-union",
            "(Union ?x ?y)",
            "(Fold UnionOp Empty (Cons ?x (Cons ?y Nil)))",
        ),
        syntactic(
            "fold-grow-union",
            "(Union ?x (Fold UnionOp ?init ?zs))",
            "(Fold UnionOp ?init (Cons ?x ?zs))",
        ),
        syntactic(
            "fold-grow-union-right",
            "(Union (Fold UnionOp ?init ?zs) ?x)",
            "(Fold UnionOp ?init (Concat ?zs (Cons ?x Nil)))",
        ),
        syntactic(
            "fold-intro-inter",
            "(Inter ?x ?y)",
            "(Fold InterOp ?y (Cons ?x Nil))",
        ),
        syntactic(
            "fold-grow-inter",
            "(Inter ?x (Fold InterOp ?init ?zs))",
            "(Fold InterOp ?init (Cons ?x ?zs))",
        ),
        syntactic("concat-nil", "(Concat Nil ?l)", "?l"),
        syntactic(
            "concat-cons",
            "(Concat (Cons ?x ?xs) ?l)",
            "(Cons ?x (Concat ?xs ?l))",
        ),
    ]
}

/// Boolean-operator laws that are cheap and directionally safe — 6 rules.
pub fn boolean_rules() -> Vec<CadRewrite> {
    vec![
        syntactic("union-idem", "(Union ?a ?a)", "?a"),
        syntactic("union-empty-l", "(Union Empty ?a)", "?a"),
        syntactic("union-empty-r", "(Union ?a Empty)", "?a"),
        syntactic("diff-empty", "(Diff ?a Empty)", "?a"),
        syntactic("diff-self", "(Diff ?a ?a)", "Empty"),
        syntactic(
            "diff-diff",
            "(Diff (Diff ?a ?b) ?c)",
            "(Diff ?a (Union ?b ?c))",
        ),
    ]
}

/// Structural boolean laws (commutativity / associativity / idempotence
/// interactions). These grow the e-graph aggressively on long chains, so
/// the default pipeline omits them; enable with
/// [`SynthConfig::structural_rules`](crate::SynthConfig) (`szb
/// --structural-rules`).
pub fn structural_rules() -> Vec<CadRewrite> {
    vec![
        syntactic("union-comm", "(Union ?a ?b)", "(Union ?b ?a)"),
        syntactic(
            "union-assoc-r",
            "(Union (Union ?a ?b) ?c)",
            "(Union ?a (Union ?b ?c))",
        ),
        syntactic("inter-comm", "(Inter ?a ?b)", "(Inter ?b ?a)"),
    ]
}

/// The default rule set: lifting + reordering + collapsing + folds +
/// boolean laws (31 rules; 34 with the structural set).
pub fn rules() -> Vec<CadRewrite> {
    let mut all = Vec::new();
    all.extend(lifting_rules());
    all.extend(reordering_rules());
    all.extend(collapsing_rules());
    all.extend(fold_rules());
    all.extend(boolean_rules());
    all
}

/// Every rule including the structural set.
pub fn all_rules() -> Vec<CadRewrite> {
    let mut all = rules();
    all.extend(structural_rules());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use sz_egraph::{RecExpr, Runner};

    fn saturate(input: &str, rules: &[CadRewrite], iters: usize) -> (CadGraph, Id) {
        let expr: RecExpr<CadLang> = input.parse().unwrap();
        let runner = Runner::new(CadAnalysis)
            .with_expr(&expr)
            .with_iter_limit(iters)
            .run(rules);
        let root = runner.roots[0];
        (runner.egraph, root)
    }

    fn contains(eg: &CadGraph, root: Id, s: &str) -> bool {
        let expr: RecExpr<CadLang> = s.parse().unwrap();
        eg.lookup_expr(&expr)
            .map(|id| eg.find(id) == eg.find(root))
            .unwrap_or(false)
    }

    #[test]
    fn fig7_lift_translate_union() {
        // The paper's Figure 7: one firing of the affine lifting rule.
        let (eg, root) = saturate(
            "(Union (Translate (Vec3 1 2 3) Unit) (Translate (Vec3 1 2 3) Sphere))",
            &lifting_rules(),
            2,
        );
        assert!(contains(
            &eg,
            root,
            "(Translate (Vec3 1 2 3) (Union Unit Sphere))"
        ));
    }

    #[test]
    fn lift_requires_equal_vectors() {
        let (eg, _) = saturate(
            "(Union (Translate (Vec3 1 2 3) Unit) (Translate (Vec3 9 9 9) Sphere))",
            &lifting_rules(),
            2,
        );
        assert!(eg
            .lookup_expr(&"(Union Unit Sphere)".parse().unwrap())
            .is_none());
    }

    #[test]
    fn lift_rotate_diff() {
        let (eg, root) = saturate(
            "(Diff (Rotate (Vec3 0 0 45) Unit) (Rotate (Vec3 0 0 45) Sphere))",
            &lifting_rules(),
            2,
        );
        assert!(contains(
            &eg,
            root,
            "(Rotate (Vec3 0 0 45) (Diff Unit Sphere))"
        ));
    }

    #[test]
    fn collapse_translate_sums() {
        let (eg, root) = saturate(
            "(Translate (Vec3 1 2 3) (Translate (Vec3 10 20 30) Unit))",
            &collapsing_rules(),
            2,
        );
        assert!(contains(&eg, root, "(Translate (Vec3 11 22 33) Unit)"));
    }

    #[test]
    fn collapse_scale_multiplies() {
        let (eg, root) = saturate(
            "(Scale (Vec3 2 3 4) (Scale (Vec3 5 6 7) Unit))",
            &collapsing_rules(),
            2,
        );
        assert!(contains(&eg, root, "(Scale (Vec3 10 18 28) Unit)"));
    }

    #[test]
    fn collapse_rotate_same_axis() {
        let (eg, root) = saturate(
            "(Rotate (Vec3 0 0 30) (Rotate (Vec3 0 0 12) Unit))",
            &collapsing_rules(),
            2,
        );
        assert!(contains(&eg, root, "(Rotate (Vec3 0 0 42) Unit)"));
    }

    #[test]
    fn collapse_rotate_mixed_axes_declines() {
        let (eg, _) = saturate(
            "(Rotate (Vec3 30 0 0) (Rotate (Vec3 0 0 12) Unit))",
            &collapsing_rules(),
            2,
        );
        // No single axis-aligned rotation equals the composition.
        for s in [
            "(Rotate (Vec3 30 0 12) Unit)",
            "(Rotate (Vec3 0 0 42) Unit)",
            "(Rotate (Vec3 42 0 0) Unit)",
        ] {
            assert!(
                eg.lookup_expr(&s.parse::<RecExpr<CadLang>>().unwrap())
                    .is_none(),
                "unsound collapse produced {s}"
            );
        }
    }

    #[test]
    fn identity_elimination() {
        let (eg, root) = saturate("(Translate (Vec3 0 0 0) Unit)", &collapsing_rules(), 2);
        assert!(contains(&eg, root, "Unit"));
        let (eg, root) = saturate("(Scale (Vec3 1 1 1) Sphere)", &collapsing_rules(), 2);
        assert!(contains(&eg, root, "Sphere"));
    }

    #[test]
    fn reorder_scale_translate() {
        let (eg, root) = saturate(
            "(Scale (Vec3 2 3 4) (Translate (Vec3 1 1 1) Unit))",
            &reordering_rules(),
            2,
        );
        assert!(contains(
            &eg,
            root,
            "(Translate (Vec3 2 3 4) (Scale (Vec3 2 3 4) Unit))"
        ));
    }

    #[test]
    fn reorder_translate_scale_divides() {
        let (eg, root) = saturate(
            "(Translate (Vec3 2 3 4) (Scale (Vec3 2 2 2) Unit))",
            &reordering_rules(),
            2,
        );
        assert!(contains(
            &eg,
            root,
            "(Scale (Vec3 2 2 2) (Translate (Vec3 1 1.5 2) Unit))"
        ));
    }

    #[test]
    fn reorder_rotate_translate_z90() {
        // Rz(90°)·(1,0,0) = (0,1,0).
        let (eg, root) = saturate(
            "(Rotate (Vec3 0 0 90) (Translate (Vec3 1 0 0) Unit))",
            &reordering_rules(),
            2,
        );
        let found = eg.classes().any(|class| {
            eg.find(class.id) == eg.find(root)
                && eg
                    .nodes_of(class)
                    .any(|n| matches!(n, CadLang::Translate(_)))
        });
        assert!(found, "rotated translate variant missing");
    }

    #[test]
    fn reorder_uniform_scale_rotate_both_ways() {
        let (eg, root) = saturate(
            "(Scale (Vec3 2 2 2) (Rotate (Vec3 0 0 30) Unit))",
            &reordering_rules(),
            2,
        );
        assert!(contains(
            &eg,
            root,
            "(Rotate (Vec3 0 0 30) (Scale (Vec3 2 2 2) Unit))"
        ));
    }

    #[test]
    fn nonuniform_scale_rotate_does_not_commute() {
        let (eg, _) = saturate(
            "(Scale (Vec3 2 3 2) (Rotate (Vec3 0 0 30) Unit))",
            &reordering_rules(),
            2,
        );
        assert!(eg
            .lookup_expr(
                &"(Rotate (Vec3 0 0 30) (Scale (Vec3 2 3 2) Unit))"
                    .parse::<RecExpr<CadLang>>()
                    .unwrap()
            )
            .is_none());
    }

    #[test]
    fn fold_intro_on_pair() {
        let (eg, root) = saturate("(Union Unit Sphere)", &fold_rules(), 2);
        assert!(contains(
            &eg,
            root,
            "(Fold UnionOp Empty (Cons Unit (Cons Sphere Nil)))"
        ));
    }

    #[test]
    fn fold_grows_along_chain() {
        let (eg, root) = saturate(
            "(Union Unit (Union Sphere (Union Hexagon Cylinder)))",
            &fold_rules(),
            6,
        );
        assert!(contains(
            &eg,
            root,
            "(Fold UnionOp Empty (Cons Unit (Cons Sphere (Cons Hexagon (Cons Cylinder Nil)))))"
        ));
    }

    #[test]
    fn concat_normalizes() {
        let (eg, root) = saturate(
            "(Concat (Cons Unit (Cons Sphere Nil)) (Cons Hexagon Nil))",
            &fold_rules(),
            4,
        );
        assert!(contains(
            &eg,
            root,
            "(Cons Unit (Cons Sphere (Cons Hexagon Nil)))"
        ));
    }

    #[test]
    fn boolean_laws() {
        let (eg, root) = saturate("(Union Unit Unit)", &boolean_rules(), 2);
        assert!(contains(&eg, root, "Unit"));
        let (eg, root) = saturate("(Diff Unit Empty)", &boolean_rules(), 2);
        assert!(contains(&eg, root, "Unit"));
        let (eg, root) = saturate("(Diff (Diff Unit Sphere) Hexagon)", &boolean_rules(), 2);
        assert!(contains(&eg, root, "(Diff Unit (Union Sphere Hexagon))"));
    }

    #[test]
    fn rule_count_matches_paper_scale() {
        // The paper reports "40 semantics-preserving rewrites in 4 sets";
        // we land in the same ballpark, split into lifting, reordering,
        // collapsing, fold, boolean and structural families.
        let n = all_rules().len();
        assert!((30..=45).contains(&n), "rule count {n} out of range");
    }

    #[test]
    fn gear_chain_folds_end_to_end() {
        // A miniature gear ring: 4 rotated+translated teeth.
        let teeth: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    "(Rotate (Vec3 0 0 {}) (Translate (Vec3 125 0 0) Ext:tooth))",
                    90 * i
                )
            })
            .collect();
        let input = format!(
            "(Union {} (Union {} (Union {} {})))",
            teeth[0], teeth[1], teeth[2], teeth[3]
        );
        let (eg, root) = saturate(&input, &rules(), 10);
        // The fold over all four teeth must exist in the root class.
        let want = format!(
            "(Fold UnionOp Empty (Cons {} (Cons {} (Cons {} (Cons {} Nil)))))",
            teeth[0], teeth[1], teeth[2], teeth[3]
        );
        assert!(contains(&eg, root, &want));
    }
}
