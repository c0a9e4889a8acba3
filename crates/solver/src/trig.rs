//! Nonlinear trigonometric regression: fits `x(i) = a·sin(b·i + c) + d`
//! (degrees) by frequency scanning, linear least squares, and Gauss–Newton
//! refinement — our replacement for the paper's Owl-based "iterative SVD
//! refinement" solver (§4.1), with the same model class (sine waves, since
//! Z3 cannot handle transcendentals).

use crate::svd::lstsq_cols;
use crate::{snap, snap_angle};

/// A fitted sinusoid `a·sin(b·i + c) + d` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrigFit {
    /// Amplitude (non-negative).
    pub a: f64,
    /// Frequency in degrees per index step.
    pub b: f64,
    /// Phase in degrees, normalized to `[0, 360)`.
    pub c: f64,
    /// Vertical offset.
    pub d: f64,
    /// Coefficient of determination on the training samples.
    pub r2: f64,
}

impl TrigFit {
    /// Evaluates the model at index `i`.
    pub fn eval(&self, i: f64) -> f64 {
        self.a * (self.b * i + self.c).to_radians().sin() + self.d
    }
}

/// Coefficient of determination of `model` against `values` (indices
/// `0..n`). Returns 1.0 for a perfect fit of constant data and 0.0 for a
/// failed fit of constant data.
pub fn r_squared(values: &[f64], model: impl Fn(f64) -> f64) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let ss_tot: f64 = values.iter().map(|&x| (x - mean) * (x - mean)).sum();
    let ss_res: f64 = values
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let r = model(i as f64) - x;
            r * r
        })
        .sum();
    if ss_tot < 1e-18 {
        if ss_res < 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Linear sub-solve: for a fixed frequency `b`, the model is linear in
/// `(A, B, d)` where `x = A·sin(b i) + B·cos(b i) + d`. Returns
/// `(A, B, d, ss_res)`.
///
/// `design` (`3n`) receives the column-major design matrix, which the
/// solve consumes; `waves` (`2n`) keeps `sin(b i)` and `cos(b i)` for the
/// residual. The frequency scan reuses both across its solves.
fn solve_fixed_freq(
    values: &[f64],
    b: f64,
    design: &mut [f64],
    waves: &mut [f64],
) -> (f64, f64, f64, f64) {
    let n = values.len();
    let (sin, cos) = waves.split_at_mut(n);
    for (i, (s, c)) in sin.iter_mut().zip(cos.iter_mut()).enumerate() {
        let t = (b * i as f64).to_radians();
        (*s, *c) = (t.sin(), t.cos());
    }
    design[..n].copy_from_slice(sin);
    design[n..2 * n].copy_from_slice(cos);
    design[2 * n..].fill(1.0);
    let [aa, bb, d] = lstsq_cols::<3>(design, values, 1e-10);
    let ss: f64 = values
        .iter()
        .zip(sin.iter().zip(cos.iter()))
        .map(|(&x, (&s, &c))| {
            let r = aa * s + bb * c + d - x;
            r * r
        })
        .sum();
    (aa, bb, d, ss)
}

/// Gauss–Newton refinement of `(A, B, d, b)` from a frequency-scan seed.
/// `jac` (`4n`) and `neg_r` (`n`) are scratch for the column-major
/// Jacobian and the negated residual, refilled every iteration.
fn refine(
    values: &[f64],
    mut aa: f64,
    mut bb: f64,
    mut d: f64,
    mut b: f64,
    jac: &mut [f64],
    neg_r: &mut [f64],
) -> (f64, f64, f64, f64) {
    let n = values.len();
    for _ in 0..20 {
        for (i, &x) in values.iter().enumerate() {
            let fi = i as f64;
            let t = (b * fi).to_radians();
            let (s, cth) = (t.sin(), t.cos());
            let r = aa * s + bb * cth + d - x;
            // d/db in degrees: chain rule brings a π/180 factor.
            let ddb = (aa * cth - bb * s) * fi * std::f64::consts::PI / 180.0;
            jac[i] = s;
            jac[n + i] = cth;
            jac[2 * n + i] = 1.0;
            jac[3 * n + i] = ddb;
            neg_r[i] = -r;
        }
        let delta = lstsq_cols::<4>(jac, neg_r, 1e-10);
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

/// Converts linear coefficients `(A, B)` to amplitude/phase `(a, c)` with
/// `a ≥ 0` and `c ∈ [0, 360)`.
fn to_amp_phase(aa: f64, bb: f64) -> (f64, f64) {
    let a = aa.hypot(bb);
    let mut c = bb.atan2(aa).to_degrees();
    c = c.rem_euclid(360.0);
    (a, c)
}

/// The least R² at which a sinusoid fit is admitted
/// ([`fit_sequence`](crate::fit_sequence) and
/// [`fit_sequence_all`](crate::fit_sequence_all)).
pub const MIN_TRIG_R2: f64 = 0.999;

/// True when no sinusoid `a·sin(b·i + c) + d` sampled at `i = 0..n` fits
/// `values` with R² ≥ [`MIN_TRIG_R2`], so [`fit_trig`] need not run.
///
/// Every such sinusoid satisfies `s[i+1] + s[i−1] = c·s[i] + k` with
/// `c = 2·cos b`. Fit that recurrence to the values by least squares in
/// `(c, k)`. For an admitted fit with residuals `r`, the recurrence's
/// residual at the sinusoid's own `c` is the filter `[1, −c, 1]` applied to
/// `r`, whose gain is at most `2 + |c| ≤ 4`, so the least-squares residual
/// is at most `16·SS_res ≤ 16·(1 − MIN_TRIG_R2)·SS_tot`. Above that bound
/// (plus 1 % and an absolute floor against rounding) the sequence is ruled
/// out. Short sequences (`n < 5`) and non-finite values never are.
///
/// # Examples
///
/// ```
/// use sz_solver::sinusoid_ruled_out;
/// let ring: Vec<f64> = (0..12).map(|i| 5.0 * (30.0 * i as f64).to_radians().cos()).collect();
/// assert!(!sinusoid_ruled_out(&ring));
/// assert!(sinusoid_ruled_out(&[3.1, -7.4, 12.9, 0.2, -5.5, 9.9, 1.1, -2.2, 15.0, -11.0]));
/// ```
pub fn sinusoid_ruled_out(values: &[f64]) -> bool {
    let n = values.len();
    if n < 5 {
        return false;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let ss_tot: f64 = values.iter().map(|&x| (x - mean) * (x - mean)).sum();
    // One row per interior index: u = y[i+1] + y[i−1] against v = y[i],
    // on centred values y = x − mean.
    let rows = || {
        values
            .windows(3)
            .map(|w| (w[0] + w[2] - 2.0 * mean, w[1] - mean))
    };
    let m = (n - 2) as f64;
    let (su, sv) = rows().fold((0.0, 0.0), |(su, sv), (u, v)| (su + u, sv + v));
    let (mu, mv) = (su / m, sv / m);
    let (suv, svv) = rows().fold((0.0, 0.0), |(suv, svv), (u, v)| {
        (suv + (u - mu) * (v - mv), svv + (v - mv) * (v - mv))
    });
    let c = if svv > 0.0 { suv / svv } else { 0.0 };
    let residual: f64 = rows()
        .map(|(u, v)| {
            let r = (u - mu) - c * (v - mv);
            r * r
        })
        .sum();
    residual > 16.0 * (1.0 - MIN_TRIG_R2) * ss_tot * 1.01 + 1e-10
}

/// Fits `a·sin(b·i + c) + d` to `values[i]`, `i = 0..n`.
///
/// Scans frequencies `b = 180·k/n` for `k = 1..=n`, i.e. `b` in
/// `(0°, 180°]` (higher frequencies alias into that range on an integer
/// grid, and `b = 0` is the constant), solves the linear subproblem per
/// frequency, refines the best seed with Gauss–Newton, then snaps
/// parameters to nice angles and amplitudes when that preserves the fit. Returns `None` for inputs
/// that are too short (`n < 4`) or essentially constant.
///
/// # Examples
///
/// ```
/// use sz_solver::fit_trig;
/// // x(i) = 10 + 7.07·sin(90·i + 315): the hex-cell pattern of Fig. 19.
/// let values: Vec<f64> = (0..4)
///     .map(|i| 10.0 + 7.07 * ((90.0 * i as f64 + 315.0).to_radians()).sin())
///     .collect();
/// let fit = fit_trig(&values, 1e-3).unwrap();
/// assert!((fit.b - 90.0).abs() < 1e-6);
/// assert!(fit.r2 > 0.999);
/// ```
pub fn fit_trig(values: &[f64], eps: f64) -> Option<TrigFit> {
    let n = values.len();
    if n < 4 {
        return None;
    }
    let spread = values.iter().cloned().fold(f64::MIN, f64::max)
        - values.iter().cloned().fold(f64::MAX, f64::min);
    if spread <= 2.0 * eps {
        return None; // constant data: the polynomial solver's job
    }

    // Frequency scan over (0, 180]: on an integer index grid every
    // sinusoid aliases into the Nyquist range, so higher frequencies span
    // identical model spaces and lower ones are more interpretable.
    // Two scratch buffers serve every solve of the call: the design
    // matrix (`3n` for the scan, `4n` for the Jacobian) and the sampled
    // waves (`2n`; the first `n` hold the residual while refining).
    let mut design = vec![0.0; 4 * n];
    let mut waves = vec![0.0; 2 * n];
    let scanned: Vec<(f64, f64, f64, f64, f64)> = (1..=n)
        .map(|k| {
            let b = 180.0 * k as f64 / n as f64;
            let (aa, bb, d, ss) = solve_fixed_freq(values, b, &mut design[..3 * n], &mut waves);
            (ss, aa, bb, d, b)
        })
        .collect();
    let best_ss = scanned.iter().map(|c| c.0).fold(f64::INFINITY, f64::min);
    // Among (numerically) tied frequencies prefer full-period coverage —
    // b·n ≡ 0 (mod 360) lays the n elements around whole circles, the
    // form the paper reports (e.g. 90° for 4 hex cells) and the one that
    // makes "change the count" edits behave — then the lowest frequency.
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
    let (aa, bb, d, b) = refine(values, aa, bb, d, b, &mut design, &mut waves[..n]);
    let (a, c) = to_amp_phase(aa, bb);

    // Snap (b, c, a, d) to nice values where the fit survives.
    let tol = (2.0 * eps).max(1e-6 * a.abs());
    let sb = snap_angle(b, 10.0 * tol);
    let sc = snap_angle(c, 10.0 * tol);
    let sa = snap(a, tol);
    let sd = snap(d, tol);
    let cands = [
        (sa, sb, sc, sd),
        (a, sb, sc, d),
        (sa, b, c, sd),
        (a, b, c, d),
    ];

    let scale = a.abs().max(1.0);
    for (a, b, c, d) in cands {
        // A 4-parameter sinusoid interpolates any 4 points, so short
        // sequences carry no evidence by fit quality alone. Demand
        // grid-aligned parameters there (the paper's short trig examples
        // are all 15°/360-k-aligned: 90°·i + 315° etc.); longer
        // sequences have spare samples and may keep raw parameters.
        if values.len() <= 5 && !(nice_angle(b) && nice_angle(c.rem_euclid(360.0))) {
            continue;
        }
        let model = |i: f64| a * (b * i + c).to_radians().sin() + d;
        let worst = values
            .iter()
            .enumerate()
            .map(|(i, &x)| (model(i as f64) - x).abs())
            .fold(0.0f64, f64::max);
        // ε scaled by amplitude: residuals must be design-noise-sized
        // relative to the oscillation being claimed.
        if worst <= eps * scale {
            let r2 = r_squared(values, model);
            let c = c.rem_euclid(360.0);
            return Some(TrigFit { a, b, c, d, r2 });
        }
    }
    None
}

/// True if an angle sits on the "interpretable" grid: a multiple of 15°
/// or a divisor pattern `±360/k`.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(n: usize, a: f64, b: f64, c: f64, d: f64) -> Vec<f64> {
        (0..n)
            .map(|i| a * (b * i as f64 + c).to_radians().sin() + d)
            .collect()
    }

    #[test]
    fn recovers_pure_sine() {
        let vals = gen(8, 3.0, 45.0, 30.0, 0.0);
        let fit = fit_trig(&vals, 1e-3).unwrap();
        assert!((fit.a - 3.0).abs() < 1e-6, "a = {}", fit.a);
        assert!((fit.b - 45.0).abs() < 1e-6, "b = {}", fit.b);
        assert!((fit.c - 30.0).abs() < 1e-6, "c = {}", fit.c);
        assert!(fit.d.abs() < 1e-6);
        assert!(fit.r2 > 0.999999);
    }

    #[test]
    fn recovers_offset_sine_fig19() {
        // 10 + 7.07·sin(90·i + 315), the hex-cell flower generator.
        let vals = gen(4, 7.07, 90.0, 315.0, 10.0);
        let fit = fit_trig(&vals, 1e-3).unwrap();
        assert!((fit.b - 90.0).abs() < 1e-6);
        assert!((fit.d - 10.0).abs() < 1e-3);
        assert!(fit.r2 > 0.999);
    }

    #[test]
    fn square_wave_like_pattern() {
        // §4.1's example list: x-components [-1, -1, 1, 1] admit
        // √2·sin(90·i + 225).
        let fit = fit_trig(&[-1.0, -1.0, 1.0, 1.0], 1e-3).unwrap();
        for (i, want) in [-1.0, -1.0, 1.0, 1.0].iter().enumerate() {
            assert!((fit.eval(i as f64) - want).abs() < 1e-6);
        }
        assert!((fit.a - 2.0f64.sqrt()).abs() < 1e-9, "a = {}", fit.a);
    }

    #[test]
    fn alternating_pattern() {
        let fit = fit_trig(&[-1.0, 1.0, -1.0, 1.0], 1e-3).unwrap();
        for (i, want) in [-1.0, 1.0, -1.0, 1.0].iter().enumerate() {
            assert!((fit.eval(i as f64) - want).abs() < 1e-6);
        }
    }

    #[test]
    fn rejects_constant() {
        assert!(fit_trig(&[5.0; 8], 1e-3).is_none());
    }

    #[test]
    fn rejects_too_short() {
        assert!(fit_trig(&[1.0, 2.0, 3.0], 1e-3).is_none());
    }

    #[test]
    fn tolerates_noise() {
        let mut vals = gen(12, 5.0, 30.0, 60.0, 2.0);
        for (i, v) in vals.iter_mut().enumerate() {
            *v += if i % 2 == 0 { 4e-4 } else { -4e-4 };
        }
        let fit = fit_trig(&vals, 1e-3).unwrap();
        assert!((fit.a - 5.0).abs() < 1e-2);
        assert!((fit.b - 30.0).abs() < 1e-2);
        assert!(fit.r2 > 0.9999);
    }

    #[test]
    fn r_squared_bounds() {
        let vals = [1.0, 2.0, 3.0];
        assert!((r_squared(&vals, |i| i + 1.0) - 1.0).abs() < 1e-12);
        assert!(r_squared(&vals, |_| 2.0) < 0.1);
    }

    #[test]
    fn linear_data_fits_poorly_or_not_at_all() {
        // Strictly increasing data over one "period" can be matched by a
        // low-frequency arc, but never perfectly over 2 periods.
        let vals: Vec<f64> = (0..10).map(|i| i as f64 * 3.0).collect();
        if let Some(fit) = fit_trig(&vals, 1e-3) {
            // If something fits within tolerance it must wiggle hugely.
            assert!(fit.a > 5.0);
        }
    }
}
