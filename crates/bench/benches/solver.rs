//! The arithmetic solvers (§4.1): fit throughput per model class, the
//! sinusoid fit on the data function inference mostly hands it (linear
//! runs, where it fails only after the full frequency scan and every
//! Gauss–Newton iteration), and an ε-tolerance sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use sz_solver::{fit_poly1, fit_poly2, fit_sequence, fit_sequence_all, fit_trig};

fn linear(n: usize) -> Vec<f64> {
    (0..n).map(|i| 2.0 * i as f64 + 5.0).collect()
}

fn quadratic(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let i = i as f64;
            1.5 * i * i - 2.0 * i + 3.0
        })
        .collect()
}

/// `linear(n)` with alternating ±4e-4 noise, inside the default ε.
fn noisy_linear(n: usize) -> Vec<f64> {
    linear(n)
        .into_iter()
        .enumerate()
        .map(|(i, x)| x + if i % 2 == 0 { 4e-4 } else { -4e-4 })
        .collect()
}

fn sine(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 7.07 * ((90.0 * i as f64 + 315.0).to_radians()).sin() + 10.0)
        .collect()
}

fn bench_fitters(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    for n in [8usize, 60] {
        group.bench_function(format!("poly1_n{n}"), |b| {
            let v = linear(n);
            b.iter(|| black_box(fit_poly1(&v, 1e-3)));
        });
        group.bench_function(format!("poly2_n{n}"), |b| {
            let v = quadratic(n);
            b.iter(|| black_box(fit_poly2(&v, 1e-3)));
        });
        group.bench_function(format!("trig_n{n}"), |b| {
            let v = sine(n);
            b.iter(|| black_box(fit_trig(&v, 1e-3)));
        });
        group.bench_function(format!("selection_n{n}"), |b| {
            let v = sine(n);
            b.iter(|| black_box(fit_sequence(&v, 1e-3)));
        });
    }
    group.finish();
}

fn bench_failing_trig(c: &mut Criterion) {
    // Most sinusoid fits in function inference see (noisy) linear data and
    // return nothing; `fit_sequence_all` tries the sinusoid after the
    // polynomials succeed.
    let mut group = c.benchmark_group("solver_linear");
    for n in [4usize, 8, 16, 32] {
        for (name, v) in [("linear", linear(n)), ("noisy_linear", noisy_linear(n))] {
            group.bench_function(format!("trig_{name}_n{n}"), |b| {
                b.iter(|| black_box(fit_trig(&v, 1e-3)));
            });
            group.bench_function(format!("all_{name}_n{n}"), |b| {
                b.iter(|| black_box(fit_sequence_all(&v, 1e-3)));
            });
        }
    }
    group.finish();
}

fn bench_eps_sweep(c: &mut Criterion) {
    // Ablation: how the ε bound changes fit success on noisy data
    // (measured as work; the success flags are printed once).
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let noisy: Vec<f64> = (0..20)
        .map(|i| 2.0 * i as f64 + rng.gen_range(-5e-4..5e-4))
        .collect();
    for eps in [1e-5, 1e-4, 1e-3, 1e-2] {
        let ok = fit_poly1(&noisy, eps).is_some();
        println!("eps = {eps:>7}: linear fit under +-5e-4 noise succeeds = {ok}");
    }
    let mut group = c.benchmark_group("eps_sweep");
    for eps in [1e-5f64, 1e-3, 1e-1] {
        group.bench_function(format!("eps_{eps}"), |b| {
            b.iter(|| black_box(fit_sequence(&noisy, eps)));
        });
    }
    group.finish();
}

/// Fast Criterion settings so the whole suite runs in minutes.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_fitters, bench_failing_trig, bench_eps_sweep
}
criterion_main!(benches);
