//! Property-based tests over the whole stack: parser/printer round
//! trips, rewrite soundness under the geometric semantics, solver
//! recovery of planted closed forms, and evaluator/validator agreement.

use std::sync::OnceLock;

use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_mesh::validate_flat;
use sz_solver::{
    fit_sequence, fit_sequence_all, fit_trig, sinusoid_ruled_out, FittedFn, MIN_TRIG_R2,
};

/// A strategy for random *flat* CSG terms of bounded size.
fn arb_flat_cad() -> impl Strategy<Value = Cad> {
    let leaf = prop_oneof![
        Just(Cad::Unit),
        Just(Cad::Sphere),
        Just(Cad::Cylinder),
        Just(Cad::Hexagon),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            // Affine with well-conditioned constants.
            (
                prop_oneof![
                    Just(AffineKind::Translate),
                    Just(AffineKind::Scale),
                    Just(AffineKind::Rotate)
                ],
                -4.0f64..4.0,
                -4.0f64..4.0,
                -4.0f64..4.0,
                inner.clone()
            )
                .prop_map(|(kind, x, y, z, c)| {
                    let v = match kind {
                        // Keep scales away from zero.
                        AffineKind::Scale => [x.abs() + 0.5, y.abs() + 0.5, z.abs() + 0.5],
                        // Axis-aligned rotations (the rewrites' domain).
                        AffineKind::Rotate => [0.0, 0.0, x * 45.0],
                        AffineKind::Translate => [x, y, z],
                    };
                    Cad::Affine(kind, v.into(), Box::new(c))
                }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cad::union(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Cad::diff(a, b)),
        ]
    })
}

/// Sequences of length 1–30 from six families: constant, linear,
/// quadratic, sinusoidal (ring-like angle steps), one of those four with
/// noise around the fitting tolerance, and uniform random.
fn arb_sequence() -> impl Strategy<Value = Vec<f64>> {
    (
        0u8..6,
        1usize..31,
        -20.0f64..20.0,
        -5.0f64..5.0,
        -2.0f64..2.0,
        0u64..100_000,
    )
        .prop_map(|(family, n, a, b, c, seed)| {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let step = 360.0 / (3 + seed % 10) as f64;
            let clean = |family: u64, i: f64| match family {
                0 => a,
                1 => a * i + b,
                2 => c * i * i + b * i + a,
                _ => (a.abs() + 1.0) * (step * i + 90.0 * c).to_radians().sin() + b,
            };
            (0..n)
                .map(|i| {
                    let i = i as f64;
                    match family {
                        4 => clean(seed % 4, i) + rng.gen_range(-1e-3..1e-3),
                        5 => rng.gen_range(-50.0..50.0),
                        f => clean(u64::from(f), i),
                    }
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn fit_sequence_is_the_first_admissible_form(values in arb_sequence()) {
        // Compared through `Debug`, so fits that carry a NaN still compare
        // equal to themselves.
        let first = format!("{:?}", fit_sequence(&values, 1e-3));
        let all = format!("{:?}", fit_sequence_all(&values, 1e-3).into_iter().next());
        prop_assert_eq!(first, all, "{:?}", values);
    }
}

/// `amp·sin(freq·i + phase) + offset` for `i = 0..n`, plus uniform noise
/// of up to `noise·amp` per sample: at `noise` ≈ 0.039 the fit's R² sits
/// near 0.999.
fn noisy_sinusoid(
    n: usize,
    (amp, freq, phase, offset): (f64, f64, f64, f64),
    noise: f64,
    seed: u64,
) -> Vec<f64> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let clean = amp * (freq * i as f64 + phase).to_radians().sin() + offset;
            clean + noise * amp * rng.gen_range(-1.0..1.0)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sinusoid_filter_never_rejects_an_admissible_fit(
        n in 5usize..71,
        amp in 0.5f64..20.0,
        freq in 1.0f64..180.0,
        phase in 0.0f64..360.0,
        offset in -50.0f64..50.0,
        noise in 0.0f64..0.06,
        seed in 0u64..100_000,
        eps in prop_oneof![Just(1e-3), Just(0.02), Just(0.05), Just(0.1)],
    ) {
        let values = noisy_sinusoid(n, (amp, freq, phase, offset), noise, seed);
        if let Some(t) = fit_trig(&values, eps).filter(|t| t.r2 >= MIN_TRIG_R2) {
            prop_assert!(!sinusoid_ruled_out(&values), "rejected R² {} on {:?}", t.r2, values);
            let fits = fit_sequence_all(&values, eps);
            prop_assert!(fits.iter().any(|f| matches!(f, FittedFn::Trig(_))));
        }
    }
}

#[test]
fn sinusoid_filter_is_tight_near_the_threshold_and_rejects_scatter() {
    // Sweep noise across the R² = 0.999 boundary at every length 5–70:
    // admitted fits close to the threshold must pass the filter, and
    // uniform scatter of the same lengths must mostly be ruled out.
    let (mut near, mut scatter, mut ruled_out) = (0, 0, 0);
    for n in 5..=70usize {
        for k in 0..12u64 {
            let noise = 0.03 + 0.001 * k as f64;
            let params = (2.0 + k as f64, 7.0 + 13.0 * k as f64, 11.0 * n as f64, 3.0);
            let values = noisy_sinusoid(n, params, noise, n as u64 * 100 + k);
            if let Some(t) = fit_trig(&values, 0.1).filter(|t| t.r2 >= MIN_TRIG_R2) {
                assert!(!sinusoid_ruled_out(&values), "rejected R² {}", t.r2);
                near += usize::from(t.r2 < 0.9995);
            }
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(-50.0..50.0)).collect();
        scatter += 1;
        ruled_out += usize::from(sinusoid_ruled_out(&values));
    }
    assert!(
        near >= 20,
        "only {near} admitted fits within 0.0005 of the threshold"
    );
    assert!(
        2 * ruled_out > scatter,
        "ruled out {ruled_out} of {scatter}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cad_print_parse_roundtrip(cad in arb_flat_cad()) {
        let s = cad.to_string();
        let back: Cad = s.parse().unwrap();
        prop_assert_eq!(back, cad);
    }

    #[test]
    fn pretty_print_parse_roundtrip(cad in arb_flat_cad()) {
        let back: Cad = cad.to_pretty(40).parse().unwrap();
        prop_assert_eq!(back, cad);
    }

    #[test]
    fn eval_is_identity_on_flat(cad in arb_flat_cad()) {
        // Flat terms are fixed points of evaluation (modulo Empty
        // simplification, which these never contain).
        let flat = cad.eval_to_flat().unwrap();
        prop_assert_eq!(flat, cad);
    }

    #[test]
    fn top_k_programs_preserve_geometry(cad in arb_flat_cad()) {
        // The central soundness property: anything Szalinski returns is
        // geometrically equal to its input.
        let config = szalinski::SynthConfig::new()
            .with_iter_limit(12)
            .with_node_limit(12_000)
            .with_k(3);
        let result = szalinski::Synthesizer::new(config)
            .run(&cad, szalinski::RunOptions::new())
            .unwrap();
        for prog in &result.top_k {
            let flat = prog.cad.eval_to_flat().unwrap();
            let v = validate_flat(&flat, &cad, 1500).unwrap();
            prop_assert!(
                v.volume.agreement >= 0.98,
                "agreement {} for {}",
                v.volume.agreement,
                prog.cad
            );
        }
    }

    #[test]
    fn solver_recovers_planted_linear(a in -20.0f64..20.0, b in -20.0f64..20.0, n in 3usize..20) {
        let vals: Vec<f64> = (0..n).map(|i| a * i as f64 + b).collect();
        let f = fit_sequence(&vals, 1e-3).expect("linear data fits");
        for (i, &v) in vals.iter().enumerate() {
            prop_assert!((f.eval(i as f64) - v).abs() <= 2e-3);
        }
    }

    #[test]
    fn solver_recovers_planted_linear_under_noise(
        a in -10.0f64..10.0,
        b in -10.0f64..10.0,
        seed in 0u64..1000,
        n in 4usize..16,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vals: Vec<f64> = (0..n)
            .map(|i| a * i as f64 + b + rng.gen_range(-4e-4..4e-4))
            .collect();
        let f = fit_sequence(&vals, 1e-3).expect("noisy linear data fits");
        // The fitted form must match the *clean* model closely.
        for i in 0..n {
            prop_assert!((f.eval(i as f64) - (a * i as f64 + b)).abs() <= 2e-3);
        }
    }

    #[test]
    fn solver_never_fits_large_random_scatter(seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Widely scattered integers-plus-junk, 9 samples: none of the
        // three model classes should claim them.
        let vals: Vec<f64> = (0..9).map(|_| rng.gen_range(-50.0..50.0)).collect();
        if let Some(f) = fit_sequence(&vals, 1e-3) {
            // If something fit, it must genuinely reproduce the data.
            for (i, &v) in vals.iter().enumerate() {
                prop_assert!((f.eval(i as f64) - v).abs() <= 1e-2, "spurious {f:?}");
            }
        }
    }

    #[test]
    fn trig_fits_report_high_r2(amp in 1.0f64..10.0, phase in 0.0f64..360.0, n in 6usize..16) {
        let vals: Vec<f64> = (0..n)
            .map(|i| amp * ((30.0 * i as f64 + phase).to_radians()).sin())
            .collect();
        if let Some(FittedFn::Trig(t)) = fit_sequence(&vals, 1e-3) {
            prop_assert!(t.r2 > 0.999);
        }
    }

    #[test]
    fn scad_emission_reflattens(n in 2usize..8, spacing in 1.0f64..5.0) {
        let flat = sz_models::row_of_cubes(n, spacing);
        let scad = sz_scad::cad_to_scad(&flat).unwrap();
        let back = sz_scad::scad_to_flat_csg(&scad).unwrap();
        prop_assert_eq!(back.num_prims(), n);
    }
}

/// A text reader under the no-panic property: its name, a call that
/// says whether it accepted a text, and valid texts to mutate.
struct FuzzReader {
    name: &'static str,
    read: fn(&str) -> bool,
    bases: Vec<String>,
}

/// Mutated texts stay this short, so their nesting stays far below the
/// depth bound the batch readers enforce before parsing.
const MAX_FUZZ_LEN: usize = 300;

/// Every text reader with its valid texts, each at most
/// [`MAX_FUZZ_LEN`] bytes.
fn fuzz_readers() -> &'static [FuzzReader] {
    static READERS: OnceLock<Vec<FuzzReader>> = OnceLock::new();
    READERS.get_or_init(|| {
        let lambda = "(Fold Union Empty (Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 3)))";
        let mut cache = sz_batch::ResultCache::new();
        let programs = [sz_models::row_of_cubes(2, 2.0), lambda.parse().unwrap()];
        for (key, program) in (0x2a..).zip(programs) {
            let run = sz_batch::CachedRun {
                programs: vec![(9, program)],
                time_s: 0.25,
            };
            cache.insert(sz_batch::JobKey(key), run);
        }
        let owned = |texts: &[&str]| texts.iter().map(|&t| t.to_owned()).collect::<Vec<_>>();
        let models = owned(&[
            "ast-size",
            "weights(loop=1,geom=10)",
            "depth-penalty(reward-loops,2)",
            "lex(depth,size)",
            "sum(size,depth,3,1)",
        ]);
        let mut specs = models.clone();
        specs.push("pareto(size,geom)".to_owned());
        vec![
            FuzzReader {
                name: "Cad::from_str",
                read: |t| t.parse::<Cad>().is_ok(),
                bases: vec![
                    sz_models::row_of_cubes(3, 2.0).to_string(),
                    sz_models::grid_2x2().to_string(),
                    "(Diff (Scale 2 2 2 Cylinder) (Rotate 0 0 45.5 (Translate -1 0.25 1e-3 Sphere)))"
                        .to_owned(),
                    lambda.to_owned(),
                ],
            },
            FuzzReader {
                name: "parse_scad",
                read: |t| sz_scad::parse_scad(t).is_ok(),
                bases: vec![
                    sz_scad::cad_to_scad(&sz_models::row_of_cubes(2, 2.0)).unwrap(),
                    "for (i = [0:3]) translate([2 * i, 0, 0]) cube([1, 1, 1], center = true);"
                        .to_owned(),
                    "difference() { sphere(r = 5); rotate([0, 0, 30]) cylinder(h = 2, r = 1); }"
                        .to_owned(),
                ],
            },
            FuzzReader {
                name: "parse_cost_spec",
                read: |t| szalinski::parse_cost_spec(t).is_ok(),
                bases: specs,
            },
            FuzzReader {
                name: "parse_cost_model",
                read: |t| szalinski::parse_cost_model(t).is_ok(),
                bases: models,
            },
            FuzzReader {
                name: "GenSpec::from_str",
                read: |t| t.parse::<sz_gen::GenSpec>().is_ok(),
                bases: owned(&[
                    "count=500,seed=42,noise=0.0005",
                    "count=50,seed=7,arity=3..6,structure=row:2+ring:1+grid:1",
                    "secs=1..3,prims=cube:4+cylinder:2+sphere:1+hexagon:1",
                ]),
            },
            FuzzReader {
                name: "ResultCache::from_lines",
                read: |t| sz_batch::ResultCache::from_lines(t).is_ok(),
                bases: vec![cache.to_lines()],
            },
        ]
    })
}

/// Bytes a mutation inserts or writes: the readers' delimiters, digits,
/// letters and whitespace, a NUL, and bytes that are not UTF-8 on their
/// own.
const FUZZ_BYTES: &[u8] = b"()[]{};,=.:+-*/<>\"\\ \t\n0123456789eEainxz_\x00\xc3\xa9\xff";

/// Applies one edit to `bytes`: `kind` picks a byte delete, insert or
/// replacement, a truncation, or a duplicated span; `a` and `b` place it.
fn mutate_bytes(bytes: &mut Vec<u8>, kind: u8, a: usize, b: usize) {
    let n = bytes.len();
    let at = a % (n + 1);
    let byte = FUZZ_BYTES[b % FUZZ_BYTES.len()];
    match kind {
        0 if n > 0 => {
            bytes.remove(at % n);
        }
        1 => bytes.insert(at, byte),
        2 if n > 0 => bytes[at % n] = byte,
        3 => bytes.truncate(at),
        4 => {
            let span = bytes[at..at + b % (n - at + 1)].to_vec();
            let to = (a / 3 + b) % (n + 1);
            bytes.splice(to..to, span);
        }
        _ => {}
    }
}

#[test]
fn fuzz_bases_are_short_and_read_cleanly() {
    for reader in fuzz_readers() {
        for text in &reader.bases {
            let name = reader.name;
            assert!(text.len() <= MAX_FUZZ_LEN, "{name} base too long: {text}");
            assert!((reader.read)(text), "{name} rejects its base: {text}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn mutated_texts_never_panic_a_reader(
        pick in 0usize..1_000,
        edits in prop::collection::vec((0u8..5, 0usize..1 << 20, 0usize..1 << 20), 1..5),
    ) {
        // Each case feeds every reader one mutated text; a reader that
        // panics fails the test.
        for reader in fuzz_readers() {
            let mut bytes = reader.bases[pick % reader.bases.len()].as_bytes().to_vec();
            for &(kind, a, b) in &edits {
                mutate_bytes(&mut bytes, kind, a, b);
            }
            let mut text = String::from_utf8_lossy(&bytes).into_owned();
            let mut cut = text.len().min(MAX_FUZZ_LEN);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut);
            (reader.read)(&text);
        }
    }
}
