//! One-sided Jacobi singular value decomposition for small matrices, and
//! the least-squares kernel every solver in this crate runs on.
//!
//! This replaces the paper's use of the Owl library: the trigonometric
//! solver's "iterative SVD refinement" needs least-squares solves that are
//! robust to rank deficiency, which the SVD pseudo-inverse provides.
//!
//! The kernel works in place on a **column-major** slice (column `j` of an
//! `m × n` matrix is `b[j*m..(j+1)*m]`), so a rotation streams down two
//! contiguous columns, and the solvers' design matrices are filled into
//! one reused buffer. With at most [`MAX_COLS`] columns, `V` and the
//! singular values live on the stack ([`lstsq_cols`]); the public [`svd`]
//! and [`lstsq`] copy their row-major [`Mat`] into the same layout and
//! run the same kernel.

use crate::Mat;

/// The most columns a solver's design matrix has (the Gauss–Newton
/// Jacobian of the sinusoid fit).
pub(crate) const MAX_COLS: usize = 4;

/// The decomposition `A = U · diag(S) · Vᵀ` with `U` column-orthonormal
/// (`m × n`), `S` the singular values (length `n`), and `V` orthogonal
/// (`n × n`). Requires `m ≥ n`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × n`.
    pub u: Mat,
    /// Singular values, descending order not guaranteed.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × n`.
    pub v: Mat,
}

/// One-sided Jacobi rotations on the column-major `m × n` matrix `b`,
/// `n = s.len()`. On return `b` holds `U · diag(S)`, `v` the column-major
/// `n × n` right singular vectors and `s` the column norms of `b` (the
/// singular values).
///
/// Every sum runs in row order and every rotation is the same expression
/// as in the textbook row-major loop, so the results do not depend on the
/// storage layout, bit for bit.
fn jacobi(b: &mut [f64], m: usize, v: &mut [f64], s: &mut [f64]) {
    let n = s.len();
    assert!(m >= n, "one-sided Jacobi SVD requires rows >= cols");
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(v.len(), n * n);
    v.fill(0.0);
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let eps = 1e-14;

    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let (head, tail) = b.split_at_mut(q * m);
                let (bp, bq) = (&mut head[p * m..(p + 1) * m], &mut tail[..m]);
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for (&xp, &xq) in bp.iter().zip(bq.iter()) {
                    alpha += xp * xp;
                    beta += xq * xq;
                    gamma += xp * xq;
                }
                off = off.max(gamma.abs() / (alpha * beta).sqrt().max(1e-300));
                if gamma.abs() <= eps * (alpha * beta).sqrt() {
                    continue;
                }
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                rotate(bp, bq, c, s);
                let (head, tail) = v.split_at_mut(q * n);
                rotate(&mut head[p * n..(p + 1) * n], &mut tail[..n], c, s);
            }
        }
        if off < eps {
            break;
        }
    }

    for (j, sj) in s.iter_mut().enumerate() {
        *sj = b[j * m..(j + 1) * m]
            .iter()
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt();
    }
}

/// Applies the Jacobi rotation `(c, s)` to the column pair `(p, q)`.
fn rotate(p: &mut [f64], q: &mut [f64], c: f64, s: f64) {
    for (xp, xq) in p.iter_mut().zip(q.iter_mut()) {
        let (bp, bq) = (*xp, *xq);
        *xp = c * bp - s * bq;
        *xq = s * bp + c * bq;
    }
}

/// Entry `(i, j)` of `U`: the rotated column divided by its norm, or zero
/// for a null column.
fn u_entry(b_ij: f64, norm: f64) -> f64 {
    if norm > 0.0 {
        b_ij / norm
    } else {
        0.0
    }
}

/// The truncated pseudo-inverse solve `x = V · diag(1/s) · Uᵀ · rhs` over a
/// decomposition [`jacobi`] left in `b`, `v` and `s`, dropping singular
/// values at or below `rcond · max(s)`.
fn pinv_solve(b: &[f64], v: &[f64], s: &[f64], rhs: &[f64], rcond: f64, x: &mut [f64]) {
    let (m, n) = (rhs.len(), s.len());
    let smax = s.iter().copied().fold(0.0f64, f64::max).max(1e-300);
    x.fill(0.0);
    for (j, &sj) in s.iter().enumerate() {
        if sj > rcond * smax {
            let utb: f64 = b[j * m..(j + 1) * m]
                .iter()
                .zip(rhs)
                .map(|(&b_ij, &r)| u_entry(b_ij, sj) * r)
                .sum();
            let w = utb / sj;
            for (xi, &v_ij) in x.iter_mut().zip(&v[j * n..(j + 1) * n]) {
                *xi += v_ij * w;
            }
        }
    }
}

/// Minimum-norm least squares on a column-major design matrix of `N ≤ 4`
/// columns and `rhs.len()` rows, with `V`, `S` and the solution on the
/// stack. `a` is overwritten by the decomposition. Bit-identical to
/// [`lstsq`] on the same matrix.
pub(crate) fn lstsq_cols<const N: usize>(a: &mut [f64], rhs: &[f64], rcond: f64) -> [f64; N] {
    let mut v = [0.0; MAX_COLS * MAX_COLS];
    let v = &mut v[..N * N];
    let mut s = [0.0; N];
    jacobi(a, rhs.len(), v, &mut s);
    let mut x = [0.0; N];
    pinv_solve(a, v, &s, rhs, rcond, &mut x);
    x
}

/// `a`'s entries in column-major order.
fn column_major(a: &Mat) -> Vec<f64> {
    (0..a.cols())
        .flat_map(|j| (0..a.rows()).map(move |i| a[(i, j)]))
        .collect()
}

/// Computes the SVD of `a` by one-sided Jacobi rotations.
///
/// # Panics
///
/// Panics if `a` has more columns than rows (pad or transpose first).
pub fn svd(a: &Mat) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    let mut b = column_major(a);
    let mut vb = vec![0.0; n * n];
    let mut s = vec![0.0; n];
    jacobi(&mut b, m, &mut vb, &mut s);
    let mut u = Mat::zeros(m, n);
    let mut v = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..m {
            u[(i, j)] = u_entry(b[j * m + i], s[j]);
        }
        for i in 0..n {
            v[(i, j)] = vb[j * n + i];
        }
    }
    Svd { u, s, v }
}

/// Minimum-norm least-squares solution of `A x ≈ b` via the SVD
/// pseudo-inverse, truncating singular values below `rcond · max(s)`.
///
/// # Panics
///
/// Panics if dimensions mismatch.
pub fn lstsq(a: &Mat, b: &[f64], rcond: f64) -> Vec<f64> {
    assert_eq!(a.rows(), b.len(), "rhs length must match rows");
    let n = a.cols();
    let mut cols = column_major(a);
    let mut v = vec![0.0; n * n];
    let mut s = vec![0.0; n];
    jacobi(&mut cols, a.rows(), &mut v, &mut s);
    let mut x = vec![0.0; n];
    pinv_solve(&cols, &v, &s, b, rcond, &mut x);
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(d: &Svd) -> Mat {
        let mut sv = Mat::zeros(d.s.len(), d.s.len());
        for (i, &s) in d.s.iter().enumerate() {
            sv[(i, i)] = s;
        }
        d.u.mul(&sv).mul(&d.v.transpose())
    }

    #[test]
    fn reconstructs_input() {
        let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[1.0, 1.0]]);
        let d = svd(&a);
        let r = reconstruct(&d);
        for i in 0..3 {
            for j in 0..2 {
                assert!((r[(i, j)] - a[(i, j)]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn singular_values_of_diagonal() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        let mut s = svd(&a).s;
        s.sort_by(|x, y| y.partial_cmp(x).unwrap());
        assert!((s[0] - 4.0).abs() < 1e-10);
        assert!((s[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_exact_system() {
        // y = 2x + 1 sampled exactly.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]);
        let b = [1.0, 3.0, 5.0];
        let x = lstsq(&a, &b, 1e-12);
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn lstsq_overdetermined_noisy() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, 1.0]).collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let a = Mat::from_rows(&row_refs);
        let b: Vec<f64> = (0..10)
            .map(|i| 3.0 * i as f64 - 2.0 + if i % 2 == 0 { 1e-4 } else { -1e-4 })
            .collect();
        let x = lstsq(&a, &b, 1e-12);
        assert!((x[0] - 3.0).abs() < 1e-3);
        assert!((x[1] + 2.0).abs() < 1e-3);
    }

    #[test]
    fn lstsq_rank_deficient_min_norm() {
        // Two identical columns: the min-norm solution splits the weight.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = [2.0, 4.0, 6.0];
        let x = lstsq(&a, &b, 1e-10);
        assert!((x[0] - 1.0).abs() < 1e-8);
        assert!((x[1] - 1.0).abs() < 1e-8);
    }
}
