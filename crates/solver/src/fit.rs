//! Model selection across the paper's three closed-form classes
//! (§4.1): degree-1 polynomial, degree-2 polynomial, and sinusoid —
//! plus emission of the fitted form as a LambdaCAD [`Expr`].

use sz_cad::Expr;

use crate::{
    fit_const, fit_poly1, fit_poly2, fit_trig, r_squared, sinusoid_ruled_out, Poly, TrigFit,
    MIN_TRIG_R2,
};

/// A closed form for a numeric sequence, as a function of its index.
#[derive(Debug, Clone, PartialEq)]
pub enum FittedFn {
    /// A constant function.
    Const(f64),
    /// A polynomial of degree 1 or 2.
    Poly(Poly),
    /// A sinusoid `a·sin(b·i + c) + d`.
    Trig(TrigFit),
}

impl FittedFn {
    /// Evaluates the closed form at index `i`.
    pub fn eval(&self, i: f64) -> f64 {
        match self {
            FittedFn::Const(v) => *v,
            FittedFn::Poly(p) => p.eval(i),
            FittedFn::Trig(t) => t.eval(i),
        }
    }

    /// Coefficient of determination against a sample sequence.
    pub fn r2(&self, values: &[f64]) -> f64 {
        r_squared(values, |i| self.eval(i))
    }

    /// True if this form does not actually depend on the index.
    pub fn is_constant(&self) -> bool {
        match self {
            FittedFn::Const(_) => true,
            FittedFn::Poly(p) => p.is_constant(),
            FittedFn::Trig(t) => t.a == 0.0,
        }
    }

    /// A short tag for reports: `const`, `d1`, `d2`, or `θ`
    /// (matching Table 1's `f` column).
    pub fn kind_tag(&self) -> &'static str {
        match self {
            FittedFn::Const(_) => "const",
            FittedFn::Poly(Poly::Deg1 { .. }) => "d1",
            FittedFn::Poly(Poly::Deg2 { .. }) => "d2",
            FittedFn::Trig(_) => "θ",
        }
    }

    /// Emits the closed form as an expression in the index variable
    /// `Idx(depth)` (0 = `i`, 1 = `j`, 2 = `k`), in the paper's preferred
    /// shapes: `a·(i+1)` when the intercept equals the slope,
    /// `b − a·i` for negative slopes, etc.
    pub fn to_expr(&self, depth: u8) -> Expr {
        let i = Expr::idx(depth);
        match self {
            FittedFn::Const(v) => Expr::num(*v),
            FittedFn::Poly(Poly::Deg1 { a, b }) => linear_expr(*a, *b, i),
            FittedFn::Poly(Poly::Deg2 { a, b, c }) => {
                let sq = Expr::mul(i.clone(), i.clone());
                let quad = mul_coeff(*a, sq);
                let rest = linear_expr(*b, *c, i);
                if rest == Expr::num(0.0) {
                    quad
                } else {
                    Expr::add(quad, rest)
                }
            }
            FittedFn::Trig(t) => {
                let angle = linear_expr(t.b, t.c, i);
                let sine = Expr::sin(angle);
                let scaled = mul_coeff(t.a, sine);
                if t.d == 0.0 {
                    scaled
                } else {
                    Expr::add(Expr::num(t.d), scaled)
                }
            }
        }
    }

    /// The rotation-friendly form `360·(i+o)/m` of §4.1's heuristic:
    /// for degree-1 fits of rotation angles where `360/a` is a whole
    /// number of steps `m`, emits `(/ (* 360 i) m)` (or with `i+1` when
    /// the intercept equals the slope). Returns `None` when the heuristic
    /// does not apply.
    pub fn to_rotation_expr(&self, depth: u8) -> Option<Expr> {
        let FittedFn::Poly(Poly::Deg1 { a, b }) = self else {
            return None;
        };
        if *a == 0.0 {
            return None;
        }
        let m = 360.0 / a;
        if (m - m.round()).abs() > 1e-9 || m.round().abs() < 2.0 {
            return None;
        }
        let m = m.round();
        let i = Expr::idx(depth);
        let numerator = if *b == 0.0 {
            Expr::mul(Expr::num(360.0), i)
        } else if (b - a).abs() < 1e-12 {
            Expr::mul(Expr::num(360.0), Expr::add(i, Expr::num(1.0)))
        } else {
            return None;
        };
        Some(Expr::div(numerator, Expr::num(m)))
    }
}

/// Builds `a·i + b` in a human-friendly shape.
fn linear_expr(a: f64, b: f64, i: Expr) -> Expr {
    if a == 0.0 {
        return Expr::num(b);
    }
    if (b - a).abs() < 1e-12 {
        // a·(i + 1), the paper's favourite spelling.
        return mul_coeff(a, Expr::add(i, Expr::num(1.0)));
    }
    let term = mul_coeff(a.abs(), i);
    if a < 0.0 {
        // b − |a|·i  (e.g. "15 - (10 * i)" in Fig. 18).
        Expr::sub(Expr::num(b), term)
    } else if b == 0.0 {
        term
    } else if b < 0.0 {
        Expr::sub(term, Expr::num(-b))
    } else {
        Expr::add(term, Expr::num(b))
    }
}

/// `coeff · e`, eliding multiplication by 1.
fn mul_coeff(coeff: f64, e: Expr) -> Expr {
    if coeff == 1.0 {
        e
    } else {
        Expr::mul(Expr::num(coeff), e)
    }
}

/// Fits a closed form to `values[i]`, `i = 0..n`, with noise tolerance
/// `eps`, trying the paper's classes in order: constant, degree-1,
/// degree-2, sinusoid. Among admissible forms the earliest (simplest)
/// class wins; the sinusoid requires `R² ≥ 0.999` ([`MIN_TRIG_R2`]), and
/// is not tried for a sequence [`sinusoid_ruled_out`] rules out.
///
/// # Examples
///
/// ```
/// use sz_solver::{fit_sequence, FittedFn};
/// let f = fit_sequence(&[2.0, 4.0, 6.0, 8.0, 10.0], 1e-3).unwrap();
/// assert_eq!(f.to_expr(0).to_string(), "(* 2 (+ i 1))");
/// ```
pub fn fit_sequence(values: &[f64], eps: f64) -> Option<FittedFn> {
    // `fit_sequence_all`'s classes in its order, stopping at the first
    // that fits: the sinusoid fit is the expensive one.
    if values.is_empty() {
        return None;
    }
    if let Some(v) = fit_const(values, eps) {
        return Some(FittedFn::Const(v));
    }
    if let Some(p) = fit_poly1(values, eps) {
        return Some(FittedFn::Poly(p));
    }
    if let Some(p) = fit_poly2(values, eps) {
        return Some(FittedFn::Poly(p));
    }
    if sinusoid_ruled_out(values) {
        return None;
    }
    fit_trig(values, eps)
        .filter(|t| t.r2 >= MIN_TRIG_R2)
        .map(FittedFn::Trig)
}

/// Like [`fit_sequence`], but returns **every** admissible closed form,
/// simplest class first. Szalinski inserts a program variant per form so
/// the top-k output is diverse (paper §6.3: the hex-cell generator
/// admits both a nested-loop and a trigonometric program).
pub fn fit_sequence_all(values: &[f64], eps: f64) -> Vec<FittedFn> {
    let mut out = Vec::new();
    if values.is_empty() {
        return out;
    }
    if let Some(v) = fit_const(values, eps) {
        out.push(FittedFn::Const(v));
        // A constant admits no interesting alternative forms.
        return out;
    }
    if let Some(p) = fit_poly1(values, eps) {
        out.push(FittedFn::Poly(p));
    }
    if let Some(p) = fit_poly2(values, eps) {
        out.push(FittedFn::Poly(p));
    }
    if sinusoid_ruled_out(values) {
        return out;
    }
    if let Some(t) = fit_trig(values, eps) {
        if t.r2 >= MIN_TRIG_R2 {
            out.push(FittedFn::Trig(t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_order() {
        assert!(matches!(
            fit_sequence(&[5.0; 6], 1e-3),
            Some(FittedFn::Const(_))
        ));
        assert!(matches!(
            fit_sequence(&[1.0, 3.0, 5.0], 1e-3),
            Some(FittedFn::Poly(Poly::Deg1 { .. }))
        ));
        assert!(matches!(
            fit_sequence(&[0.0, 1.0, 4.0, 9.0], 1e-3),
            Some(FittedFn::Poly(Poly::Deg2 { .. }))
        ));
        let sine: Vec<f64> = (0..8)
            .map(|i| 3.0 * (45.0 * i as f64).to_radians().sin())
            .collect();
        assert!(matches!(fit_sequence(&sine, 1e-3), Some(FittedFn::Trig(_))));
    }

    #[test]
    fn unfittable_returns_none() {
        // A pseudo-random sequence with large spread fits none of the
        // three classes at eps = 1e-3.
        let vals = [3.1, -7.4, 12.9, 0.2, -5.5, 9.9, 1.1, -2.2, 15.0, -11.0];
        assert_eq!(fit_sequence(&vals, 1e-3), None);
    }

    #[test]
    fn expr_shapes() {
        let cases: Vec<(FittedFn, &str)> = vec![
            (FittedFn::Const(125.0), "125"),
            (
                FittedFn::Poly(Poly::Deg1 { a: 2.0, b: 2.0 }),
                "(* 2 (+ i 1))",
            ),
            (FittedFn::Poly(Poly::Deg1 { a: 1.0, b: 0.0 }), "i"),
            (FittedFn::Poly(Poly::Deg1 { a: 4.0, b: 0.0 }), "(* 4 i)"),
            (
                FittedFn::Poly(Poly::Deg1 { a: -10.0, b: 15.0 }),
                "(- 15 (* 10 i))",
            ),
            (
                FittedFn::Poly(Poly::Deg1 { a: 10.0, b: 5.0 }),
                "(+ (* 10 i) 5)",
            ),
            (
                FittedFn::Poly(Poly::Deg1 { a: 2.0, b: -3.0 }),
                "(- (* 2 i) 3)",
            ),
            (
                FittedFn::Poly(Poly::Deg2 {
                    a: 1.5,
                    b: 0.0,
                    c: 2.0,
                }),
                "(+ (* 1.5 (* i i)) 2)",
            ),
        ];
        for (f, want) in cases {
            assert_eq!(f.to_expr(0).to_string(), want);
        }
    }

    #[test]
    fn expr_depth_selects_variable() {
        let f = FittedFn::Poly(Poly::Deg1 { a: 24.0, b: -12.0 });
        assert_eq!(f.to_expr(1).to_string(), "(- (* 24 j) 12)");
    }

    #[test]
    fn trig_expr_shape() {
        let f = FittedFn::Trig(TrigFit {
            a: 7.07,
            b: 90.0,
            c: 315.0,
            d: 10.0,
            r2: 1.0,
        });
        assert_eq!(
            f.to_expr(0).to_string(),
            "(+ 10 (* 7.07 (Sin (+ (* 90 i) 315))))"
        );
    }

    #[test]
    fn rotation_heuristic() {
        // Gear angles 6, 12, 18, ... → 360·(i+1)/60.
        let f = FittedFn::Poly(Poly::Deg1 { a: 6.0, b: 6.0 });
        assert_eq!(
            f.to_rotation_expr(0).unwrap().to_string(),
            "(/ (* 360 (+ i 1)) 60)"
        );
        // Angles 0, 6, 12, ... → 360·i/60.
        let f = FittedFn::Poly(Poly::Deg1 { a: 6.0, b: 0.0 });
        assert_eq!(
            f.to_rotation_expr(0).unwrap().to_string(),
            "(/ (* 360 i) 60)"
        );
        // Non-divisor slopes do not qualify.
        let f = FittedFn::Poly(Poly::Deg1 { a: 7.0, b: 0.0 });
        assert!(f.to_rotation_expr(0).is_none());
        // Constants do not qualify.
        let f = FittedFn::Poly(Poly::Deg1 { a: 0.0, b: 30.0 });
        assert!(f.to_rotation_expr(0).is_none());
    }

    #[test]
    fn fitted_fn_evals_match_expr_semantics() {
        use sz_cad::eval_expr;
        let fns = [
            FittedFn::Const(3.5),
            FittedFn::Poly(Poly::Deg1 { a: 2.0, b: 7.0 }),
            FittedFn::Poly(Poly::Deg2 {
                a: 1.0,
                b: -2.0,
                c: 0.5,
            }),
            FittedFn::Trig(TrigFit {
                a: 2.0,
                b: 45.0,
                c: 30.0,
                d: 1.0,
                r2: 1.0,
            }),
        ];
        for f in fns {
            let e = f.to_expr(0);
            for i in 0..6 {
                let direct = f.eval(i as f64);
                let via_expr = eval_expr(&e, &[i as f64]).unwrap();
                assert!(
                    (direct - via_expr).abs() < 1e-9,
                    "{f:?} at {i}: {direct} vs {via_expr}"
                );
            }
        }
    }
}
