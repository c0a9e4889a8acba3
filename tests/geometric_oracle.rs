//! Geometric oracle over the whole suite: for every Table-1 model,
//! compile the flat input and the best synthesized program to meshes
//! with `sz-mesh` and assert their sampled Hausdorff distance is within
//! a tight tolerance of zero — wiring the mesh oracle (paper §7's "more
//! rigorous approach") into tier-1 `cargo test`.

use sz_cad::Cad;
use sz_mesh::{compile_mesh, hausdorff_distance, joint_diagonal, MeshQuality};
use szalinski::{RunOptions, SynthConfig, Synthesis, Synthesizer};

fn config() -> SynthConfig {
    SynthConfig::new()
        .with_iter_limit(60)
        .with_node_limit(80_000)
}

/// One cold run through a fresh session.
fn synth(input: &Cad, config: &SynthConfig) -> Synthesis {
    Synthesizer::new(config.clone())
        .run(input, RunOptions::new())
        .unwrap()
}

/// Modest quality keeps debug-mode meshing tractable; the tolerance
/// below accounts for the coarse marching-tetrahedra grid.
fn quality() -> MeshQuality {
    MeshQuality {
        cylinder_segments: 16,
        sphere_stacks: 8,
        sphere_slices: 16,
        grid_resolution: 20,
    }
}

#[test]
fn suite16_best_program_is_within_hausdorff_eps() {
    for model in sz_models::all_models() {
        let result = synth(&model.flat, &config());
        let best = &result.best().cad;
        let output_flat = best
            .eval_to_flat()
            .unwrap_or_else(|e| panic!("{}: best program must evaluate: {e}", model.name));

        let mesh_in = compile_mesh(&model.flat, &quality())
            .unwrap_or_else(|e| panic!("{}: input must mesh: {e}", model.name));
        let mesh_out = compile_mesh(&output_flat, &quality())
            .unwrap_or_else(|e| panic!("{}: output must mesh: {e}", model.name));

        let d = hausdorff_distance(&mesh_in, &mesh_out, 400);
        let diag = joint_diagonal(&mesh_in, &mesh_out);
        // Synthesized parameters may differ from the input's by solver
        // roundoff (well under the pipeline's ε = 1e-3 relative), so the
        // surfaces are near-coincident; 1% of the joint diagonal is far
        // above roundoff yet far below any real geometric divergence.
        let eps = 0.01 * diag.max(1.0);
        assert!(
            d <= eps,
            "{}: Hausdorff distance {d:.6} exceeds eps {eps:.6} (diagonal {diag:.3})",
            model.name
        );
    }
}

#[test]
fn oracle_rejects_genuinely_different_geometry() {
    // Sanity check that the oracle has teeth: two clearly different
    // solids must violate the same tolerance.
    let a: sz_cad::Cad = "(Translate 0 0 0 Unit)".parse().unwrap();
    let b: sz_cad::Cad = "(Translate 9 0 0 Unit)".parse().unwrap();
    let mesh_a = compile_mesh(&a, &quality()).unwrap();
    let mesh_b = compile_mesh(&b, &quality()).unwrap();
    let d = hausdorff_distance(&mesh_a, &mesh_b, 400);
    let eps = 0.01 * joint_diagonal(&mesh_a, &mesh_b).max(1.0);
    assert!(d > eps, "distance {d} should exceed eps {eps}");
}
