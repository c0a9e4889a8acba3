//! Integration tests regenerating the paper's worked figures
//! (small-scale versions run in debug; the full-size reruns live in the
//! bench harness).

use std::sync::Arc;

use sz_cad::Cad;
use sz_models::{
    dice_six_face, grid_2x2, hexcell_plate, nested_affine_cubes, noisy_hexagons, row_of_cubes,
};
use szalinski::{RewardLoopsCost, RunOptions, SynthConfig, Synthesis, Synthesizer};

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
fn fig2_five_cubes_to_mapi() {
    let flat = row_of_cubes(5, 2.0);
    let result = synth(&flat, &config());
    let (rank, prog) = result.structured().expect("structure");
    assert_eq!(rank, 1);
    let s = prog.cad.to_string();
    assert!(
        s.contains("(Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 5))"),
        "got {s}"
    );
    // Equivalence to the input trace.
    assert_eq!(prog.cad.eval_to_flat().unwrap(), flat);
}

#[test]
fn fig9_two_cubes_steps() {
    // The worked 2-cube example: fold rule, determinize, function
    // inference. With only two elements the loop does not win AST size,
    // but it must exist in the e-graph (we surface it via reward-loops).
    let flat = row_of_cubes(2, 2.0);
    let result = synth(&flat, &config().with_cost_model(Arc::new(RewardLoopsCost)));
    let (_, prog) = result.structured().expect("structure exists");
    assert!(prog.cad.to_string().contains("(Repeat Unit 2)"));
}

#[test]
fn fig10_nested_affine_to_nested_mapi() {
    let flat = nested_affine_cubes(5);
    let result = synth(&flat, &config());
    let (_, prog) = result.structured().expect("structure");
    let s = prog.cad.to_string();
    assert_eq!(s.matches("Mapi").count(), 3, "three affine layers: {s}");
    assert!(s.contains("(Repeat Unit 5)"), "got {s}");
    // Unrolling reproduces the trace (up to float wobble, here exact).
    assert_eq!(prog.cad.eval_to_flat().unwrap(), flat);
}

#[test]
fn fig14_grid_to_doubly_nested_loop() {
    let result = synth(&grid_2x2(), &config());
    let (_, prog) = result.structured().expect("structure");
    let s = prog.cad.to_string();
    assert!(s.contains("MapIdx2"), "got {s}");
    // The unrolled grid covers the same four positions (order may vary
    // under the commutative fold, so compare as sets of primitives).
    let flat = prog.cad.eval_to_flat().unwrap();
    for want in ["12 12 0", "-12 12 0", "-12 -12 0", "12 -12 0"] {
        assert!(
            flat.to_string()
                .contains(&format!("(Translate {want} Unit)")),
            "missing {want} in {flat}"
        );
    }
}

#[test]
fn fig16_noisy_input_recovers_clean_loop() {
    let flat = noisy_hexagons();
    let result = synth(&flat, &config().with_cost_model(Arc::new(RewardLoopsCost)));
    let (_, prog) = result.structured().expect("noise-tolerant structure");
    let s = prog.cad.to_string();
    // The noisy 1.4999996667 / 1.499999466 got snapped to 1.5 inside the
    // inferred loop.
    assert!(s.contains("1.5"), "noise not cleaned: {s}");
    assert!(
        s.contains("(Repeat Hexagon 2)"),
        "loop over 2 hexagons: {s}"
    );
}

#[test]
fn fig17_dice_six_face_nested_loop() {
    let result = synth(&dice_six_face(), &config());
    let (_, prog) = result.structured().expect("structure");
    let s = prog.cad.to_string();
    assert!(s.contains("MapIdx2"), "got {s}");
    assert!(s.contains("2 3") || s.contains("3 2"), "2x3 grid: {s}");
}

#[test]
fn fig18_19_hexcell_diversity() {
    let result = synth(&hexcell_plate(), &config().with_k(24));
    let loops = result
        .top_k
        .iter()
        .filter(|p| p.cad.to_string().contains("MapIdx2"))
        .count();
    let trigs = result
        .top_k
        .iter()
        .filter(|p| p.cad.to_string().contains("Sin"))
        .count();
    assert!(loops > 0, "nested-loop variant missing from top-k");
    assert!(trigs > 0, "trigonometric variant missing from top-k");
    // The loop variant ranks first (it is the smallest).
    let (rank, _) = result.structured().unwrap();
    assert_eq!(rank, 1);
}

#[test]
fn fig18_loop_edit_adds_column() {
    // The editability claim: bumping a loop bound adds a column of cells.
    let result = synth(&hexcell_plate(), &config().with_k(24));
    let loopy = result
        .top_k
        .iter()
        .find(|p| p.cad.to_string().contains("MapIdx2"))
        .expect("loop variant");
    let before = loopy.cad.eval_to_flat().unwrap().num_prims();
    let edited: Cad = loopy
        .cad
        .to_string()
        .replacen("(MapIdx2 2 2", "(MapIdx2 2 3", 1)
        .parse()
        .unwrap();
    let after = edited.eval_to_flat().unwrap().num_prims();
    assert_eq!(after, before + 2, "one extra column = two extra cells");
}
