//! The column-major least-squares kernel against the row-major solvers it
//! replaced.
//!
//! `sz-solver` runs every fit on one in-place one-sided Jacobi kernel over
//! column-major scratch buffers; the oracle
//! (`crates/solver/tests/support/rowmajor_solver.rs`) is the allocating
//! row-major code that ran before. The kernel promises the same floating
//! point operations in the same order, so every result must agree in the
//! bits of every field, not within a tolerance: the fitters on sequences of
//! length 1–70 from each family the inference passes meet (constant,
//! linear, quadratic, sinusoidal, ring angles `360·i/n`, each also with
//! noise around ε, and uniform random) at magnitudes from 1e-6 to 1e6, and
//! the public `svd`/`lstsq` on random tall matrices of up to four columns,
//! rank-deficient ones included.

#[path = "../crates/solver/tests/support/rowmajor_solver.rs"]
mod rowmajor_solver;

use proptest::prelude::*;
use sz_solver::{FittedFn, Mat, Poly, TrigFit};

/// A small deterministic generator for the values of one case (the
/// proptest stand-in draws its parameters; this spreads them).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn signed(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

const FAMILIES: [&str; 6] = ["constant", "linear", "quadratic", "sine", "ring", "random"];

/// One sequence: `family` indexes [`FAMILIES`], `scale` is the magnitude,
/// and `noise` multiplies `eps` for a uniform perturbation (0 = exact).
fn sequence(family: usize, n: usize, scale: f64, noise: f64, eps: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    let (a, b, c) = (rng.signed(), rng.signed(), rng.signed());
    // Sinusoid frequencies: grid-aligned ones (the designs) and arbitrary.
    let freq = match rng.next() % 3 {
        0 => 15.0 * (1 + rng.next() % 12) as f64,
        1 => 360.0 / (2 + rng.next() % 10) as f64,
        _ => 180.0 * rng.signed().abs(),
    };
    let phase = 15.0 * (rng.next() % 24) as f64;
    (0..n)
        .map(|i| {
            let x = i as f64;
            let exact = match FAMILIES[family] {
                "constant" => scale * a,
                "linear" => scale * (a * x + b),
                "quadratic" => scale * (a * x * x + b * x + c),
                "sine" => scale * (a * (freq * x + phase).to_radians().sin() + b),
                "ring" => 360.0 * x / n as f64,
                _ => scale * rng.signed(),
            };
            exact + noise * eps * rng.signed()
        })
        .collect()
}

fn trig_bits(t: &TrigFit) -> [u64; 5] {
    [t.a, t.b, t.c, t.d, t.r2].map(f64::to_bits)
}

fn poly_bits(p: &Poly) -> Vec<u64> {
    match *p {
        Poly::Deg1 { a, b } => vec![1, a.to_bits(), b.to_bits()],
        Poly::Deg2 { a, b, c } => vec![2, a.to_bits(), b.to_bits(), c.to_bits()],
    }
}

fn fitted_bits(f: &FittedFn) -> Vec<u64> {
    match f {
        FittedFn::Const(v) => vec![0, v.to_bits()],
        FittedFn::Poly(p) => poly_bits(p),
        FittedFn::Trig(t) => {
            let mut bits = vec![3];
            bits.extend(trig_bits(t));
            bits
        }
    }
}

/// Every fitter on `values` agrees with the oracle bit for bit.
fn assert_fitters_agree(values: &[f64], eps: f64) {
    let what = format!("values {values:?} eps {eps}");
    assert_eq!(
        sz_solver::fit_trig(values, eps).as_ref().map(trig_bits),
        rowmajor_solver::fit_trig(values, eps)
            .as_ref()
            .map(trig_bits),
        "fit_trig: {what}"
    );
    assert_eq!(
        sz_solver::fit_poly1(values, eps).as_ref().map(poly_bits),
        rowmajor_solver::fit_poly1(values, eps)
            .as_ref()
            .map(poly_bits),
        "fit_poly1: {what}"
    );
    assert_eq!(
        sz_solver::fit_poly2(values, eps).as_ref().map(poly_bits),
        rowmajor_solver::fit_poly2(values, eps)
            .as_ref()
            .map(poly_bits),
        "fit_poly2: {what}"
    );
    assert_eq!(
        sz_solver::fit_const(values, eps).map(f64::to_bits),
        rowmajor_solver::fit_const(values, eps).map(f64::to_bits),
        "fit_const: {what}"
    );
    assert_eq!(
        sz_solver::fit_sequence(values, eps)
            .as_ref()
            .map(fitted_bits),
        rowmajor_solver::fit_sequence(values, eps)
            .as_ref()
            .map(fitted_bits),
        "fit_sequence: {what}"
    );
    let all = |fits: Vec<FittedFn>| fits.iter().map(fitted_bits).collect::<Vec<_>>();
    assert_eq!(
        all(sz_solver::fit_sequence_all(values, eps)),
        all(rowmajor_solver::fit_sequence_all(values, eps)),
        "fit_sequence_all: {what}"
    );
}

/// A random `m × n` matrix, row by row, whose column `n - 1` is (when
/// `deficient` says so) zero, a copy, or a multiple of column 0.
fn matrix(m: usize, n: usize, scale: f64, deficient: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix(seed);
    let factor = rng.signed();
    (0..m)
        .map(|_| {
            let mut row: Vec<f64> = (0..n).map(|_| scale * rng.signed()).collect();
            if n >= 2 {
                row[n - 1] = match deficient {
                    1 => 0.0,
                    2 => row[0],
                    3 => factor * row[0],
                    _ => row[n - 1],
                };
            }
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fitters_match_the_rowmajor_oracle(
        family in 0usize..6,
        n in 1usize..71,
        exponent in -6i32..7,
        noise in prop_oneof![Just(0.0), Just(0.3), Just(0.9), Just(1.5)],
        eps in prop_oneof![Just(1e-3), Just(1e-3), Just(1e-5), Just(1e-2)],
        seed in 0u64..u64::MAX,
    ) {
        let scale = 10f64.powi(exponent);
        let values = sequence(family, n, scale, noise, eps, seed);
        assert_fitters_agree(&values, eps);
    }

    #[test]
    fn svd_and_lstsq_match_the_rowmajor_oracle(
        n in 1usize..5,
        extra_rows in 0usize..14,
        exponent in -6i32..7,
        deficient in 0usize..4,
        rcond in prop_oneof![Just(1e-10), Just(1e-12), Just(1e-3)],
        seed in 0u64..u64::MAX,
    ) {
        let m = n + extra_rows;
        let scale = 10f64.powi(exponent);
        let rows = matrix(m, n, scale, deficient, seed);
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let (a, oracle_a) = (Mat::from_rows(&refs), rowmajor_solver::Mat::from_rows(&refs));
        let rhs: Vec<f64> = matrix(m, 1, scale, 0, !seed).concat();

        let (got, want) = (sz_solver::svd(&a), rowmajor_solver::svd(&oracle_a));
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got.s), bits(&want.s), "singular values of {:?}", rows);
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(got.u[(i, j)].to_bits(), want.u[(i, j)].to_bits(), "U of {:?}", rows);
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(got.v[(i, j)].to_bits(), want.v[(i, j)].to_bits(), "V of {:?}", rows);
            }
        }
        prop_assert_eq!(
            bits(&sz_solver::lstsq(&a, &rhs, rcond)),
            bits(&rowmajor_solver::lstsq(&oracle_a, &rhs, rcond)),
            "lstsq of {:?} against {:?}", rows, rhs
        );
    }
}

/// The forms the solver tests and the paper's figures plant, plus the
/// shapes the corpus feeds function inference most: short noisy linear
/// runs and ring angles.
#[test]
fn planted_forms_match_the_rowmajor_oracle() {
    let mut cases: Vec<Vec<f64>> = vec![
        vec![5.001, 10.00001, 14.9998, 20.0],
        vec![-1.0, -1.0, 1.0, 1.0],
        vec![-1.0, 1.0, -1.0, 1.0],
        vec![3.1, -7.4, 12.9, 0.2, -5.5, 9.9, 1.1, -2.2, 15.0, -11.0],
        vec![0.0, 1.0, 4.0, 9.0],
        vec![125.0; 60],
        vec![0.0],
        vec![],
    ];
    for n in [4usize, 5, 6, 8, 12, 16, 32, 60] {
        cases.push(
            (0..n)
                .map(|i| 10.0 + 7.07 * (90.0 * i as f64 + 315.0).to_radians().sin())
                .collect(),
        );
        cases.push((0..n).map(|i| 360.0 * i as f64 / n as f64).collect());
        cases.push(
            (0..n)
                .map(|i| 2.5 * i as f64 - 4.0 + if i % 2 == 0 { 4e-4 } else { -4e-4 })
                .collect(),
        );
    }
    for values in &cases {
        assert_fitters_agree(values, 1e-3);
    }
}
