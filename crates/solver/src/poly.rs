//! ε-tolerant polynomial fitting (degrees 1 and 2).
//!
//! This is our substitute for the paper's Z3 queries. The paper encodes
//!
//! ```text
//! (a·i + b) − ε ≤ x_i ≤ (a·i + b) + ε        for all samples (i, x_i)
//! ```
//!
//! in the nonlinear real theory and asks Z3 for `a, b`. We solve the same
//! constraint system directly: least squares gives the Chebyshev-near
//! center of the feasible region for well-conditioned data, coefficients
//! are snapped to nice values, and the ε bound is then **verified** on
//! every sample — any solution we return satisfies exactly the paper's
//! constraints (default ε = 0.001).

use crate::snap;
use crate::svd::lstsq_cols;

/// The default noise tolerance (the paper's ε).
pub const DEFAULT_EPS: f64 = 1e-3;

/// A fitted polynomial `x(i) = a·i + b` (degree 1) or
/// `x(i) = a·i² + b·i + c` (degree 2) satisfying the ε constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Poly {
    /// Degree-1 polynomial `a·i + b`.
    Deg1 {
        /// Slope.
        a: f64,
        /// Intercept.
        b: f64,
    },
    /// Degree-2 polynomial `a·i² + b·i + c` with `a ≠ 0`.
    Deg2 {
        /// Quadratic coefficient.
        a: f64,
        /// Linear coefficient.
        b: f64,
        /// Constant coefficient.
        c: f64,
    },
}

impl Poly {
    /// Evaluates the polynomial at index `i`.
    pub fn eval(&self, i: f64) -> f64 {
        match *self {
            Poly::Deg1 { a, b } => a * i + b,
            Poly::Deg2 { a, b, c } => a * i * i + b * i + c,
        }
    }

    /// The polynomial degree (1 or 2).
    pub fn degree(&self) -> u8 {
        match self {
            Poly::Deg1 { .. } => 1,
            Poly::Deg2 { .. } => 2,
        }
    }

    /// True if this is a constant function (`a = 0` for degree 1).
    pub fn is_constant(&self) -> bool {
        matches!(self, Poly::Deg1 { a, .. } if *a == 0.0)
    }
}

/// Checks the paper's ε constraint: every sample within `eps` of the model.
/// A hair of relative slack absorbs decimal-literal rounding (`5.001` is
/// not exactly representable, so its residual against `5.0` can exceed
/// `1e-3` by a few ulps).
fn verify(values: &[f64], eps: f64, f: impl Fn(f64) -> f64) -> bool {
    values.iter().enumerate().all(|(i, &x)| {
        let slack = eps + 1e-9 * (1.0 + x.abs());
        (f(i as f64) - x).abs() <= slack
    })
}

/// Fits `a·i + b` over `values[i]` (indices `0..n`), requiring every
/// residual within `eps`. Coefficients are snapped to nice values when the
/// snapped model still verifies.
///
/// Returns `None` if no degree-1 polynomial satisfies the constraints.
///
/// # Examples
///
/// ```
/// use sz_solver::fit_poly1;
/// // The paper's noisy example: 5.001, 10.00001, 14.9998, 20.0 → 5·(i+1).
/// let fit = fit_poly1(&[5.001, 10.00001, 14.9998, 20.0], 1e-3).unwrap();
/// assert_eq!(fit, sz_solver::Poly::Deg1 { a: 5.0, b: 5.0 });
/// ```
pub fn fit_poly1(values: &[f64], eps: f64) -> Option<Poly> {
    if values.is_empty() {
        return None;
    }
    if values.len() == 1 {
        let b = snap(values[0], eps);
        return Some(Poly::Deg1 { a: 0.0, b });
    }
    // Column-major design matrix [i | 1].
    let n = values.len();
    let mut design = vec![1.0; 2 * n];
    for (i, x) in design[..n].iter_mut().enumerate() {
        *x = i as f64;
    }
    let [a, b] = lstsq_cols::<2>(&mut design, values, 1e-12);

    // Prefer fully snapped, then partially snapped, then raw coefficients.
    let candidates = [
        (snap(a, 2.0 * eps), snap(b, 2.0 * eps)),
        (snap(a, 2.0 * eps), b),
        (a, snap(b, 2.0 * eps)),
        (a, b),
    ];
    for (a, b) in candidates {
        if verify(values, eps, |i| a * i + b) {
            return Some(Poly::Deg1 { a, b });
        }
    }
    None
}

/// Fits `a·i² + b·i + c` over `values[i]`, requiring every residual within
/// `eps` and a genuinely quadratic term (`|a|` above noise); use
/// [`fit_poly1`] for affine data.
///
/// A quadratic interpolates *any* 3 points, so short sequences
/// (fewer than 5 samples) are accepted only when all three coefficients
/// are "nice" (integers / small rationals, per [`crate::is_nice`]) —
/// designed spacings like `2i² + 3i + 10` qualify, arbitrary scatter does
/// not. This mirrors the short-sequence gate of the trigonometric solver.
///
/// Returns `None` if no such polynomial exists.
pub fn fit_poly2(values: &[f64], eps: f64) -> Option<Poly> {
    if values.len() < 3 {
        return None;
    }
    // Column-major design matrix [i² | i | 1].
    let n = values.len();
    let mut design = vec![1.0; 3 * n];
    let (squares, rest) = design.split_at_mut(n);
    for (i, (sq, lin)) in squares.iter_mut().zip(rest[..n].iter_mut()).enumerate() {
        let i = i as f64;
        (*sq, *lin) = (i * i, i);
    }
    let [a, b, c] = lstsq_cols::<3>(&mut design, values, 1e-12);

    let candidates = [
        (snap(a, 2.0 * eps), snap(b, 2.0 * eps), snap(c, 2.0 * eps)),
        (snap(a, 2.0 * eps), snap(b, 2.0 * eps), c),
        (a, b, c),
    ];
    // With ≤ 4 samples a quadratic has at most one spare point of
    // evidence; demand interpretable coefficients there so arbitrary
    // triples/quadruples don't masquerade as designs.
    let low_evidence = values.len() < 5;
    for &(a, b, c) in &candidates {
        if low_evidence
            && !(crate::is_nice(a, 1e-9) && crate::is_nice(b, 1e-9) && crate::is_nice(c, 1e-9))
        {
            continue;
        }
        // The quadratic term must rise above the noise floor, otherwise
        // the data is affine and fit_poly1's verdict stands.
        if a.abs() > eps && verify(values, eps, |i| a * i * i + b * i + c) {
            return Some(Poly::Deg2 { a, b, c });
        }
    }
    None
}

/// Fits a constant: all values within `eps` of a common (snapped) value.
pub fn fit_const(values: &[f64], eps: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    [snap(mean, 2.0 * eps), mean]
        .into_iter()
        .find(|&cand| values.iter().all(|&x| (x - cand).abs() <= eps))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_linear() {
        let vals: Vec<f64> = (0..5).map(|i| 2.0 * i as f64 + 2.0).collect();
        assert_eq!(
            fit_poly1(&vals, DEFAULT_EPS),
            Some(Poly::Deg1 { a: 2.0, b: 2.0 })
        );
    }

    #[test]
    fn paper_noisy_example() {
        // §4.1: [(0,5.001); (1,10.00001); (2,14.9998); (3,20.0)] → 5(i+1).
        let fit = fit_poly1(&[5.001, 10.00001, 14.9998, 20.0], 1e-3).unwrap();
        assert_eq!(fit, Poly::Deg1 { a: 5.0, b: 5.0 });
    }

    #[test]
    fn rejects_non_linear() {
        assert_eq!(fit_poly1(&[0.0, 1.0, 4.0, 9.0], 1e-3), None);
    }

    #[test]
    fn quadratic_fit() {
        let vals: Vec<f64> = (0..6)
            .map(|i| {
                let i = i as f64;
                1.5 * i * i - 2.0 * i + 3.0
            })
            .collect();
        assert_eq!(
            fit_poly2(&vals, DEFAULT_EPS),
            Some(Poly::Deg2 {
                a: 1.5,
                b: -2.0,
                c: 3.0
            })
        );
    }

    #[test]
    fn quadratic_with_noise() {
        let vals: Vec<f64> = (0..6)
            .map(|i| {
                let i = i as f64;
                let noise = if (i as usize).is_multiple_of(2) {
                    4e-4
                } else {
                    -4e-4
                };
                i * i + noise
            })
            .collect();
        let fit = fit_poly2(&vals, 1e-3).unwrap();
        assert_eq!(
            fit,
            Poly::Deg2 {
                a: 1.0,
                b: 0.0,
                c: 0.0
            }
        );
    }

    #[test]
    fn quadratic_rejects_linear_data() {
        // Degree-2 fit on affine data must not fabricate a quadratic term.
        let vals: Vec<f64> = (0..6).map(|i| 3.0 * i as f64 + 1.0).collect();
        assert_eq!(fit_poly2(&vals, 1e-3), None);
    }

    #[test]
    fn constants() {
        assert_eq!(fit_const(&[1.0001, 0.9999, 1.0], 1e-3), Some(1.0));
        assert_eq!(fit_const(&[1.0, 2.0], 1e-3), None);
        assert_eq!(fit_const(&[125.0; 60], 1e-3), Some(125.0));
    }

    #[test]
    fn single_sample_is_constant() {
        assert_eq!(
            fit_poly1(&[7.0], DEFAULT_EPS),
            Some(Poly::Deg1 { a: 0.0, b: 7.0 })
        );
    }

    #[test]
    fn eps_is_a_hard_bound() {
        // One outlier beyond eps must sink the fit.
        let mut vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        vals[4] += 0.01;
        assert_eq!(fit_poly1(&vals, 1e-3), None);
        assert!(fit_poly1(&vals, 0.02).is_some());
    }

    #[test]
    fn negative_slopes() {
        let vals: Vec<f64> = (0..5).map(|i| 15.0 - 10.0 * i as f64).collect();
        assert_eq!(
            fit_poly1(&vals, DEFAULT_EPS),
            Some(Poly::Deg1 { a: -10.0, b: 15.0 })
        );
    }
}
