//! The keyed generator: spec + index → one flat CSG model.
//!
//! Every random draw for model `i` comes from the `(seed, i)` stream
//! ([`crate::model_rng`]) in a fixed construction order, and every
//! coordinate is drawn on an exactly-representable grid (quarter/half
//! steps), so the printed csexp/SCAD text is bit-identical across
//! machines. The draw order is part of the byte-identity contract:
//! reordering draws regenerates every corpus ever published.

use rand::rngs::StdRng;
use rand::Rng;
use sz_cad::Cad;
use sz_models::add_noise_with;
use sz_trace::Telemetry;

use crate::rng::model_rng;
use crate::spec::{GenSpec, PrimKind, StructureKind};

/// One generated model: its corpus index, stable job name, and term.
#[derive(Debug, Clone, PartialEq)]
pub struct GenModel {
    /// Position in the corpus (`0..spec.count`).
    pub index: usize,
    /// The stable job name, `gen:<seed>:<index>` — what `szb --shard`
    /// hashes and `szb merge` dedupes on.
    pub name: String,
    /// The flat CSG term.
    pub cad: Cad,
}

/// The stable name of model `index` in a corpus seeded with `seed`:
/// `gen:<seed>:<index>`.
pub fn model_name(seed: u64, index: usize) -> String {
    format!("gen:{seed}:{index}")
}

/// The on-disk file stem for a generated model name (`:` → `_`, so
/// `gen:42:0` is written as `gen_42_0.csexp`).
pub fn file_stem(name: &str) -> String {
    name.replace(':', "_")
}

/// Uniform draw on the grid `{lo, lo+step, ..., hi}`. `lo`, `hi`, and
/// `step` are quarter-multiples, so every value (and every small
/// integer multiple of one) is exactly representable.
fn snap(rng: &mut StdRng, lo: f64, hi: f64, step: f64) -> f64 {
    let steps = ((hi - lo) / step).round() as u64;
    lo + step * rng.gen_range(0..=steps) as f64
}

/// Weighted draw over a validated (non-empty, weights ≥ 1) mix.
fn weighted<K: Copy>(rng: &mut StdRng, mix: &[(K, u32)]) -> K {
    let total: u32 = mix.iter().map(|(_, w)| w).sum();
    let mut draw = rng.gen_range(0..total);
    for (kind, w) in mix {
        if draw < *w {
            return *kind;
        }
        draw -= w;
    }
    mix[mix.len() - 1].0
}

fn draw_in(rng: &mut StdRng, range: (usize, usize)) -> usize {
    rng.gen_range(range.0..=range.1)
}

/// One element: a primitive, half the time under a non-degenerate
/// scale (components on the `0.5..=4` half-step grid, never zero, so
/// SZL202 cannot fire).
fn element(rng: &mut StdRng, spec: &GenSpec) -> Cad {
    let leaf = match weighted(rng, &spec.prims) {
        PrimKind::Cube => Cad::Unit,
        PrimKind::Cylinder => Cad::Cylinder,
        PrimKind::Sphere => Cad::Sphere,
        PrimKind::Hexagon => Cad::Hexagon,
    };
    if rng.gen_range(0u32..2) == 0 {
        let (sx, sy, sz) = (
            snap(rng, 0.5, 4.0, 0.5),
            snap(rng, 0.5, 4.0, 0.5),
            snap(rng, 0.5, 4.0, 0.5),
        );
        Cad::scale(sx, sy, sz, leaf)
    } else {
        leaf
    }
}

/// A section origin: x/y on the half-step grid in `[-8, 8]`, z in
/// `[0, 4]`.
fn origin(rng: &mut StdRng) -> (f64, f64, f64) {
    (
        snap(rng, -8.0, 8.0, 0.5),
        snap(rng, -8.0, 8.0, 0.5),
        snap(rng, 0.0, 4.0, 0.5),
    )
}

/// One section: a row, grid, ring, or scatter of elements.
fn section(rng: &mut StdRng, spec: &GenSpec) -> Cad {
    match weighted(rng, &spec.structure) {
        StructureKind::Row => {
            let n = draw_in(rng, spec.arity);
            let axis = rng.gen_range(0u32..3);
            let spacing = snap(rng, 1.0, 4.0, 0.5);
            let (x0, y0, z0) = origin(rng);
            let elem = element(rng, spec);
            // A translate loop: offsets linear in i, the shape the
            // paper's inverse-transformation rules lift to a Map2.
            let items = (0..n)
                .map(|i| {
                    let d = spacing * i as f64;
                    let (x, y, z) = match axis {
                        0 => (x0 + d, y0, z0),
                        1 => (x0, y0 + d, z0),
                        _ => (x0, y0, z0 + d),
                    };
                    Cad::translate(x, y, z, elem.clone())
                })
                .collect();
            Cad::union_chain(items)
        }
        StructureKind::Grid => {
            let nx = draw_in(rng, spec.arity);
            let ny = rng.gen_range(2usize..=4);
            let dx = snap(rng, 1.0, 4.0, 0.5);
            let dy = snap(rng, 1.0, 4.0, 0.5);
            let (x0, y0, z0) = origin(rng);
            let elem = element(rng, spec);
            // Nested translate loops flattened row-major, as a mesh
            // decompiler would emit an nx × ny array.
            let items = (0..ny)
                .flat_map(|j| (0..nx).map(move |i| (i, j)))
                .map(|(i, j)| {
                    Cad::translate(x0 + dx * i as f64, y0 + dy * j as f64, z0, elem.clone())
                })
                .collect();
            Cad::union_chain(items)
        }
        StructureKind::Ring => {
            let n = draw_in(rng, spec.arity).max(3);
            let radius = snap(rng, 2.0, 8.0, 0.5);
            let (x0, y0, z0) = origin(rng);
            let elem = element(rng, spec);
            // A rotate loop around z (Table 1's gear): angles are the
            // exact f64 quotients 360·i/n, identical on every machine.
            let items = (0..n)
                .map(|i| {
                    let angle = 360.0 * i as f64 / n as f64;
                    Cad::rotate(
                        0.0,
                        0.0,
                        angle,
                        Cad::translate(radius, 0.0, 0.0, elem.clone()),
                    )
                })
                .collect();
            Cad::translate(x0, y0, z0, Cad::union_chain(items))
        }
        StructureKind::Scatter => {
            // Unrelated elements at quarter-step offsets: no loop to
            // recover — the corpus's negative examples.
            let n = draw_in(rng, spec.arity);
            let items = (0..n)
                .map(|_| {
                    let x = snap(rng, -8.0, 8.0, 0.25);
                    let y = snap(rng, -8.0, 8.0, 0.25);
                    let z = snap(rng, 0.0, 4.0, 0.25);
                    Cad::translate(x, y, z, element(rng, spec))
                })
                .collect();
            Cad::union_chain(items)
        }
    }
}

/// The base plate some models union their sections onto (or cut them
/// out of).
fn plate(rng: &mut StdRng) -> Cad {
    let sx = snap(rng, 8.0, 20.0, 0.5);
    let sy = snap(rng, 8.0, 20.0, 0.5);
    let sz = snap(rng, 0.5, 2.0, 0.5);
    let px = snap(rng, -4.0, 4.0, 0.5);
    let py = snap(rng, -4.0, 4.0, 0.5);
    Cad::translate(px, py, 0.0, Cad::scale(sx, sy, sz, Cad::Unit))
}

/// Generates model `index` of the corpus `spec` describes.
///
/// Pure in `(spec, index)`: the model streams from
/// [`crate::model_seed`]`(spec.seed, index)` and nothing else, so any
/// shard can regenerate exactly the models it owns.
pub fn generate_model(spec: &GenSpec, index: usize) -> Cad {
    let rng = &mut model_rng(spec.seed, index as u64);
    let n_secs = draw_in(rng, spec.secs);
    let sections = (0..n_secs).map(|_| section(rng, spec)).collect();
    let body = Cad::union_chain(sections);
    // A quarter of models cut their sections out of a plate, a quarter
    // mount them on one, half are free-standing.
    let model = match rng.gen_range(0u32..4) {
        0 => Cad::diff(plate(rng), body),
        1 => Cad::union(plate(rng), body),
        _ => body,
    };
    if spec.noise > 0.0 {
        add_noise_with(&model, spec.noise, rng)
    } else {
        model
    }
}

/// Iterator over the whole corpus, in index order.
pub fn models(spec: &GenSpec) -> impl Iterator<Item = GenModel> + '_ {
    (0..spec.count).map(move |index| GenModel {
        index,
        name: model_name(spec.seed, index),
        cad: generate_model(spec, index),
    })
}

/// Like [`models`], but each generation runs under a `gen/model` span
/// and feeds the `gen.models` counter and `gen.nodes` histogram
/// (`szgen --trace` runs through it).
pub fn models_traced<'a>(
    spec: &'a GenSpec,
    telemetry: &'a Telemetry,
) -> impl Iterator<Item = GenModel> + 'a {
    (0..spec.count).map(move |index| {
        let _span = telemetry.span("gen", "model");
        let model = GenModel {
            index,
            name: model_name(spec.seed, index),
            cad: generate_model(spec, index),
        };
        telemetry.metrics.counter_add("gen.models", 1);
        telemetry
            .metrics
            .observe("gen.nodes", model.cad.num_nodes() as f64);
        model
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_are_flat_and_named_by_index() {
        let spec: GenSpec = "count=24,seed=11,noise=0.0005".parse().unwrap();
        for m in models(&spec) {
            assert!(m.cad.is_flat_csg(), "model {} is not flat CSG", m.index);
            assert_eq!(m.name, format!("gen:11:{}", m.index));
            assert!(m.cad.num_prims() >= 1);
        }
    }

    #[test]
    fn regeneration_is_bit_exact_per_index() {
        let spec: GenSpec = "count=16,seed=3,noise=0.001".parse().unwrap();
        let first: Vec<String> = models(&spec).map(|m| m.cad.to_string()).collect();
        // Regenerate out of order, one index at a time — the stream is
        // keyed, not sequential.
        for index in (0..spec.count).rev() {
            assert_eq!(generate_model(&spec, index).to_string(), first[index]);
        }
    }

    #[test]
    fn every_structure_kind_appears() {
        // Over a modest corpus, all four section shapes (and both
        // plate modes) should occur; catches a dead arm in `section`.
        let spec: GenSpec = "count=64,seed=0".parse().unwrap();
        let text: Vec<String> = models(&spec).map(|m| m.cad.to_string()).collect();
        assert!(text.iter().any(|t| t.contains("Rotate")), "no rings");
        assert!(text.iter().any(|t| t.contains("Diff")), "no plate cuts");
        let spec_rows: GenSpec = "count=8,seed=0,structure=row:1".parse().unwrap();
        for m in models(&spec_rows) {
            assert!(m.cad.to_string().contains("Translate"));
        }
    }

    #[test]
    fn traced_generation_matches_untraced() {
        let spec: GenSpec = "count=8,seed=5".parse().unwrap();
        let telemetry = Telemetry::enabled();
        let traced: Vec<GenModel> = models_traced(&spec, &telemetry).collect();
        let plain: Vec<GenModel> = models(&spec).collect();
        assert_eq!(traced, plain);
        assert_eq!(telemetry.metrics.counter("gen.models"), 8);
        assert!(telemetry.metrics.histogram("gen.nodes").is_some());
    }
}
