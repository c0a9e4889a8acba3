//! The row-major solvers `sz-solver` ran before its column-major
//! least-squares kernel, kept as a test oracle for the differential suite
//! (include it with
//! `#[path = ".../support/rowmajor_solver.rs"] mod rowmajor_solver;`).
//!
//! Everything here allocates freely: a row-major [`Mat`] of boxed rows per
//! design matrix, a cloned working matrix, an identity `V` and a fresh `U`
//! per [`svd`], and a column vector per norm. The kernel must reproduce
//! every result bit for bit; only the snapping helpers and the result
//! types come from the crate, since the kernel left them unchanged.

#![allow(dead_code)]

use std::ops::{Index, IndexMut};

use sz_solver::{is_nice, r_squared, snap, snap_angle, FittedFn, Poly, TrigFit};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    pub fn from_rows(rows: &[&[f64]]) -> Mat {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut m = Mat::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged rows");
            for (j, &x) in row.iter().enumerate() {
                m[(i, j)] = x;
            }
        }
        m
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    pub fn col_norm(&self, j: usize) -> f64 {
        self.col(j).iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

/// `A = U · diag(S) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    pub u: Mat,
    pub s: Vec<f64>,
    pub v: Mat,
}

pub fn svd(a: &Mat) -> Svd {
    let m = a.rows();
    let n = a.cols();
    assert!(m >= n, "one-sided Jacobi SVD requires rows >= cols");

    let mut b = a.clone();
    let mut v = Mat::identity(n);
    let eps = 1e-14;

    for _sweep in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for i in 0..m {
                    alpha += b[(i, p)] * b[(i, p)];
                    beta += b[(i, q)] * b[(i, q)];
                    gamma += b[(i, p)] * b[(i, q)];
                }
                off = off.max(gamma.abs() / (alpha * beta).sqrt().max(1e-300));
                if gamma.abs() <= eps * (alpha * beta).sqrt() {
                    continue;
                }
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..m {
                    let bp = b[(i, p)];
                    let bq = b[(i, q)];
                    b[(i, p)] = c * bp - s * bq;
                    b[(i, q)] = s * bp + c * bq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < eps {
            break;
        }
    }

    let mut s = Vec::with_capacity(n);
    let mut u = Mat::zeros(m, n);
    for j in 0..n {
        let norm = b.col_norm(j);
        s.push(norm);
        if norm > 0.0 {
            for i in 0..m {
                u[(i, j)] = b[(i, j)] / norm;
            }
        }
    }
    Svd { u, s, v }
}

pub fn lstsq(a: &Mat, b: &[f64], rcond: f64) -> Vec<f64> {
    assert_eq!(a.rows(), b.len(), "rhs length must match rows");
    let decomposition = svd(a);
    let smax = decomposition
        .s
        .iter()
        .cloned()
        .fold(0.0f64, f64::max)
        .max(1e-300);
    let n = a.cols();
    let utb: Vec<f64> = (0..n)
        .map(|j| (0..a.rows()).map(|i| decomposition.u[(i, j)] * b[i]).sum())
        .collect();
    let mut x = vec![0.0; n];
    for (j, &utbj) in utb.iter().enumerate() {
        if decomposition.s[j] > rcond * smax {
            let w = utbj / decomposition.s[j];
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += decomposition.v[(i, j)] * w;
            }
        }
    }
    x
}

fn solve_fixed_freq(values: &[f64], b: f64) -> (f64, f64, f64, f64) {
    let rows: Vec<Vec<f64>> = (0..values.len())
        .map(|i| {
            let t = (b * i as f64).to_radians();
            vec![t.sin(), t.cos(), 1.0]
        })
        .collect();
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let m = Mat::from_rows(&row_refs);
    let sol = lstsq(&m, values, 1e-10);
    let (aa, bb, d) = (sol[0], sol[1], sol[2]);
    let ss: f64 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let t = (b * i as f64).to_radians();
            let r = aa * t.sin() + bb * t.cos() + d - x;
            r * r
        })
        .sum();
    (aa, bb, d, ss)
}

fn refine(
    values: &[f64],
    mut aa: f64,
    mut bb: f64,
    mut d: f64,
    mut b: f64,
) -> (f64, f64, f64, f64) {
    for _ in 0..20 {
        let n = values.len();
        let mut jac_rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut neg_r: Vec<f64> = Vec::with_capacity(n);
        for (i, &x) in values.iter().enumerate() {
            let fi = i as f64;
            let t = (b * fi).to_radians();
            let (s, cth) = (t.sin(), t.cos());
            let r = aa * s + bb * cth + d - x;
            let ddb = (aa * cth - bb * s) * fi * std::f64::consts::PI / 180.0;
            jac_rows.push(vec![s, cth, 1.0, ddb]);
            neg_r.push(-r);
        }
        let row_refs: Vec<&[f64]> = jac_rows.iter().map(Vec::as_slice).collect();
        let jac = Mat::from_rows(&row_refs);
        let delta = lstsq(&jac, &neg_r, 1e-10);
        aa += delta[0];
        bb += delta[1];
        d += delta[2];
        b += delta[3];
        if delta.iter().map(|x| x.abs()).fold(0.0f64, f64::max) < 1e-12 {
            break;
        }
    }
    (aa, bb, d, b)
}

fn to_amp_phase(aa: f64, bb: f64) -> (f64, f64) {
    let a = aa.hypot(bb);
    let mut c = bb.atan2(aa).to_degrees();
    c = c.rem_euclid(360.0);
    (a, c)
}

pub fn fit_trig(values: &[f64], eps: f64) -> Option<TrigFit> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let spread = values.iter().cloned().fold(f64::MIN, f64::max)
        - values.iter().cloned().fold(f64::MAX, f64::min);
    if spread <= 2.0 * eps {
        return None;
    }

    let scanned: Vec<(f64, f64, f64, f64, f64)> = (1..=n)
        .map(|k| {
            let b = 180.0 * k as f64 / n as f64;
            let (aa, bb, d, ss) = solve_fixed_freq(values, b);
            (ss, aa, bb, d, b)
        })
        .collect();
    let best_ss = scanned.iter().map(|c| c.0).fold(f64::INFINITY, f64::min);
    let tie_tol = best_ss + 1e-9 * (1.0 + best_ss);
    let (_, aa, bb, d, b) = scanned
        .iter()
        .filter(|c| c.0 <= tie_tol)
        .min_by(|x, y| {
            let full = |b: f64| {
                let r = (b * n as f64).rem_euclid(360.0);
                r.min(360.0 - r) > 1e-6
            };
            (full(x.4), x.4)
                .partial_cmp(&(full(y.4), y.4))
                .expect("frequencies are finite")
        })
        .copied()?;
    let (aa, bb, d, b) = refine(values, aa, bb, d, b);
    let (a, c) = to_amp_phase(aa, bb);

    let tol = (2.0 * eps).max(1e-6 * a.abs());
    let mut cands: Vec<(f64, f64, f64, f64)> = Vec::new();
    let sb = snap_angle(b, 10.0 * tol);
    let sc = snap_angle(c, 10.0 * tol);
    let sa = snap(a, tol);
    let sd = snap(d, tol);
    cands.push((sa, sb, sc, sd));
    cands.push((a, sb, sc, d));
    cands.push((sa, b, c, sd));
    cands.push((a, b, c, d));

    let scale = a.abs().max(1.0);
    for (a, b, c, d) in cands {
        if values.len() <= 5 && !(nice_angle(b) && nice_angle(c.rem_euclid(360.0))) {
            continue;
        }
        let model = |i: f64| a * (b * i + c).to_radians().sin() + d;
        let worst = values
            .iter()
            .enumerate()
            .map(|(i, &x)| (model(i as f64) - x).abs())
            .fold(0.0f64, f64::max);
        if worst <= eps * scale {
            let r2 = r_squared(values, model);
            let c = c.rem_euclid(360.0);
            return Some(TrigFit { a, b, c, d, r2 });
        }
    }
    None
}

fn nice_angle(x: f64) -> bool {
    let tol = 1e-6;
    if (x / 15.0 - (x / 15.0).round()).abs() * 15.0 <= tol {
        return true;
    }
    (1..=120u32).any(|k| {
        let cand = 360.0 / k as f64;
        (x - cand).abs() <= tol || (x + cand).abs() <= tol
    })
}

fn verify(values: &[f64], eps: f64, f: impl Fn(f64) -> f64) -> bool {
    values.iter().enumerate().all(|(i, &x)| {
        let slack = eps + 1e-9 * (1.0 + x.abs());
        (f(i as f64) - x).abs() <= slack
    })
}

pub fn fit_poly1(values: &[f64], eps: f64) -> Option<Poly> {
    if values.is_empty() {
        return None;
    }
    if values.len() == 1 {
        let b = snap(values[0], eps);
        return Some(Poly::Deg1 { a: 0.0, b });
    }
    let rows: Vec<Vec<f64>> = (0..values.len()).map(|i| vec![i as f64, 1.0]).collect();
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let a_mat = Mat::from_rows(&row_refs);
    let sol = lstsq(&a_mat, values, 1e-12);
    let (a, b) = (sol[0], sol[1]);

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

pub fn fit_poly2(values: &[f64], eps: f64) -> Option<Poly> {
    if values.len() < 3 {
        return None;
    }
    let rows: Vec<Vec<f64>> = (0..values.len())
        .map(|i| {
            let i = i as f64;
            vec![i * i, i, 1.0]
        })
        .collect();
    let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
    let a_mat = Mat::from_rows(&row_refs);
    let sol = lstsq(&a_mat, values, 1e-12);
    let (a, b, c) = (sol[0], sol[1], sol[2]);

    let candidates = [
        (snap(a, 2.0 * eps), snap(b, 2.0 * eps), snap(c, 2.0 * eps)),
        (snap(a, 2.0 * eps), snap(b, 2.0 * eps), c),
        (a, b, c),
    ];
    let low_evidence = values.len() < 5;
    for &(a, b, c) in &candidates {
        if low_evidence && !(is_nice(a, 1e-9) && is_nice(b, 1e-9) && is_nice(c, 1e-9)) {
            continue;
        }
        if a.abs() > eps && verify(values, eps, |i| a * i * i + b * i + c) {
            return Some(Poly::Deg2 { a, b, c });
        }
    }
    None
}

pub fn fit_const(values: &[f64], eps: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    [snap(mean, 2.0 * eps), mean]
        .into_iter()
        .find(|&cand| values.iter().all(|&x| (x - cand).abs() <= eps))
}

pub fn fit_sequence(values: &[f64], eps: f64) -> Option<FittedFn> {
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
    fit_trig(values, eps)
        .filter(|t| t.r2 >= 0.999)
        .map(FittedFn::Trig)
}

pub fn fit_sequence_all(values: &[f64], eps: f64) -> Vec<FittedFn> {
    let mut out = Vec::new();
    if values.is_empty() {
        return out;
    }
    if let Some(v) = fit_const(values, eps) {
        out.push(FittedFn::Const(v));
        return out;
    }
    if let Some(p) = fit_poly1(values, eps) {
        out.push(FittedFn::Poly(p));
    }
    if let Some(p) = fit_poly2(values, eps) {
        out.push(FittedFn::Poly(p));
    }
    if let Some(t) = fit_trig(values, eps) {
        if t.r2 >= 0.999 {
            out.push(FittedFn::Trig(t));
        }
    }
    out
}
