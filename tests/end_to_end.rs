//! End-to-end pipeline tests with geometric (translation) validation:
//! every synthesized program must denote the same solid as its input.

use sz_cad::Cad;
use sz_egraph::{Runner, Snapshot};
use sz_mesh::validate_program;
use sz_models::{gear, row_of_cubes};
use szalinski::{
    cad_to_lang, infer_functions_with, infer_loops_with, list_manipulation, rules, CadAnalysis,
    CadGraph, PassControl, RunMode, RunOptions, SynthConfig, SynthSnapshot, Synthesis, Synthesizer,
};

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

#[test]
fn small_gear_end_to_end() {
    // A 12-tooth gear keeps debug-mode runtime low; the 60-tooth run is
    // in the release bench harness.
    let flat = gear(12);
    let result = synth(&flat, &config());
    let (rank, prog) = result.structured().expect("gear has structure");
    assert!(rank <= 5, "structured program must be in the top-5");
    let s = prog.cad.to_string();
    assert!(s.contains("(/ (* 360 (+ i 1)) 12)"), "rotation form: {s}");
    assert!(prog.cad.num_nodes() < flat.num_nodes() / 2);
    let v = validate_program(&prog.cad, &flat, 6000).unwrap();
    assert!(v.equivalent, "geometry must be preserved: {v:?}");
}

#[test]
fn every_top_k_program_is_equivalent_to_input() {
    // Soundness across the whole top-k, not just the winner.
    let flat = row_of_cubes(6, 3.0);
    let result = synth(&flat, &config());
    assert!(!result.top_k.is_empty());
    for prog in &result.top_k {
        let v = validate_program(&prog.cad, &flat, 4000).unwrap();
        assert!(
            v.equivalent,
            "unsound program (cost {}): {}",
            prog.cost, prog.cad
        );
    }
}

#[test]
fn synthesis_is_deterministic() {
    let flat = row_of_cubes(4, 2.0);
    let a = synth(&flat, &config());
    let b = synth(&flat, &config());
    let strings = |r: &szalinski::Synthesis| -> Vec<String> {
        r.top_k.iter().map(|p| p.cad.to_string()).collect()
    };
    assert_eq!(strings(&a), strings(&b));
}

#[test]
fn noise_within_epsilon_preserves_structure() {
    // §6.4: ε-bounded noise must not change the discovered structure.
    let clean = row_of_cubes(6, 2.0);
    let noisy = sz_models::add_noise(&clean, 4e-4, 17);
    let clean_result = synth(&clean, &config());
    let noisy_result = synth(&noisy, &config());
    let (_, clean_prog) = clean_result.structured().expect("clean structure");
    let (_, noisy_prog) = noisy_result.structured().expect("noisy structure");
    // The recovered programs are *identical*: snapping removed the noise.
    assert_eq!(clean_prog.cad, noisy_prog.cad);
}

#[test]
fn scad_to_synthesis_to_scad() {
    // The full §6.1 loop: parametric OpenSCAD -> flat -> synthesized ->
    // OpenSCAD, preserving primitive counts.
    let src = "for (i = [1 : 6]) translate([i * 4, 0, 0]) cube(2, center = true);";
    let flat = sz_scad::scad_to_flat_csg(src).unwrap();
    assert_eq!(flat.num_prims(), 6);
    let result = synth(&flat, &config());
    let (_, prog) = result.structured().expect("structure");
    let emitted = sz_scad::cad_to_scad(&prog.cad).unwrap();
    assert!(emitted.contains("for ("), "loop survives: {emitted}");
    let reflat = sz_scad::scad_to_flat_csg(&emitted).unwrap();
    assert_eq!(reflat.num_prims(), 6);
}

#[test]
fn stl_pipeline_from_synthesized_program() {
    // Program -> flat -> mesh -> STL -> mesh again.
    let flat = row_of_cubes(3, 2.0);
    let result = synth(&flat, &config());
    let prog = &result.best().cad;
    let mesh = sz_mesh::compile_mesh(
        &prog.eval_to_flat().unwrap(),
        &sz_mesh::MeshQuality::default(),
    )
    .unwrap();
    let stl = sz_mesh::to_ascii_stl(&mesh, "row");
    let back = sz_mesh::read_ascii_stl(stl.as_bytes()).unwrap();
    assert_eq!(back.triangles.len(), mesh.triangles.len());
    assert!((back.signed_volume() - 3.0).abs() < 1e-6);
}

#[test]
fn inference_reads_lists_again_after_a_rebuild_merges_classes() {
    // Four rows of four cubes at x = 2, 4, 6, 8; in row r the r-th cube
    // is off by 2e-4, below ε. Function inference fits each row to
    // 2(i + 1) and merges list classes that already exist, so the rebuild
    // after it performs unions and changes a determinization that loop
    // inference reads: the session's shared site table must redo it.
    let input: Cad = "(Union (Translate 0 0 0 (Union (Translate 2.0002 0 0 Unit) \
         (Union (Translate 4 0 0 Unit) (Union (Translate 6 0 0 Unit) (Translate 8 0 0 Unit))))) \
         (Union (Translate 0 20 0 (Union (Translate 2 0 0 Unit) (Union (Translate 4.0002 0 0 Unit) \
         (Union (Translate 6 0 0 Unit) (Translate 8 0 0 Unit))))) \
         (Union (Translate 20 0 0 (Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) \
         (Union (Translate 6.0002 0 0 Unit) (Translate 8 0 0 Unit))))) \
         (Translate 20 20 0 (Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) \
         (Union (Translate 6 0 0 Unit) (Translate 8.0002 0 0 Unit))))))))"
        .parse()
        .unwrap();
    let config = SynthConfig::new();

    // The cold path's saturation, then the three public passes, each
    // building its own table, with a rebuild after each.
    let mut egraph = CadGraph::new(CadAnalysis);
    let root = egraph.add_expr(&cad_to_lang(&input));
    egraph.rebuild();
    let runner = Runner::new(CadAnalysis)
        .with_egraph(egraph)
        .with_iter_limit(config.iter_limit)
        .with_node_limit(config.node_limit)
        .run(&rules());
    let iterations = runner.iterations.len();
    let mut egraph = runner.egraph;
    let ctl = PassControl::new();
    list_manipulation(&mut egraph);
    egraph.rebuild();
    let (mut records, _) = infer_functions_with(&mut egraph, config.eps, &ctl);
    assert!(egraph.rebuild() > 0, "the rebuild merges classes");
    records.extend(infer_loops_with(&mut egraph, config.eps, &ctl).0);
    egraph.rebuild();
    let snapshot = Snapshot::of_egraph(&egraph, &[root])
        .unwrap()
        .with_iterations(iterations);

    let session = Synthesizer::new(config.clone());
    let cold = session
        .run(&input, RunOptions::new().capture_snapshot(true))
        .unwrap();
    assert_eq!(cold.records, records);
    assert_eq!(cold.egraph_nodes, egraph.total_number_of_nodes());
    let captured = cold.snapshot.as_ref().unwrap().egraph_snapshot();
    assert_eq!(captured.to_string(), snapshot.to_string());
    // The top-k extracted from the passes' graph, through an
    // extraction-only resume.
    let offer = SynthSnapshot::new(&input, &config, snapshot);
    let resumed = session
        .run(&input, RunOptions::new().with_snapshot(offer))
        .unwrap();
    assert_eq!(resumed.mode, RunMode::ResumedExtraction);
    let programs = |s: &Synthesis| -> Vec<String> {
        s.top_k
            .iter()
            .map(|p| format!("{} {}", p.cost, p.cad))
            .collect()
    };
    assert_eq!(programs(&resumed), programs(&cold));
    assert_eq!(
        cold.best().cad.to_string(),
        "(Fold Union Empty (MapIdx2 2 2 (Translate (* 20 i) (* 20 j) 0 (Fold Union Empty \
         (Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 4))))))"
    );
}
