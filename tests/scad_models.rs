//! The paper's benchmark methodology for Thingiverse models (§6.1):
//! human-written *parametric* OpenSCAD is flattened to loop-free CSG and
//! fed to the synthesizer. Here several Table-1-style models are written
//! in OpenSCAD, flattened with `sz-scad`, and checked to regain their
//! structure.

use sz_cad::Cad;
use sz_scad::scad_to_flat_csg;
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

#[test]
fn card_org_from_openscad() {
    let src = "
        // 8 divider fins (3171605:card-org).
        for (i = [0 : 7])
          translate([i * 6, 0, 0])
            cube([2, 30, 40], center = true);
    ";
    let flat = scad_to_flat_csg(src).unwrap();
    assert!(flat.is_flat_csg());
    assert_eq!(flat.num_prims(), 8);
    let result = synth(&flat, &config());
    let (rank, prog) = result.structured().expect("fin loop");
    assert_eq!(rank, 1);
    // The shared (2, 30, 40) scale may be lifted above the whole fold, in
    // which case the 6 mm spacing appears divided by the 2 mm width.
    let s = prog.cad.to_string();
    assert!(
        s.contains("(* 6 i)") || s.contains("(* 3 i)"),
        "spacing recovered: {s}"
    );
}

#[test]
fn box_tray_from_openscad() {
    let src = "
        // 3x5 compartment tray (3148599:box-tray).
        difference() {
          cube([64, 40, 12], center = true);
          for (i = [0 : 2])
            for (j = [0 : 4])
              translate([j * 12 - 24, i * 12 - 12, 2])
                cube([10, 10, 12], center = true);
        }
    ";
    let flat = scad_to_flat_csg(src).unwrap();
    assert_eq!(flat.num_prims(), 16);
    let result = synth(&flat, &config());
    let (_, prog) = result.structured().expect("grid loop");
    assert!(
        prog.cad.to_string().contains("MapIdx2"),
        "nested loop recovered: {}",
        prog.cad
    );
}

#[test]
fn gear_ring_from_openscad() {
    let src = "
        n = 10;
        difference() {
          cylinder(r = 20, h = 4, center = true);
          for (i = [0 : n - 1])
            rotate([0, 0, i * 360 / n])
              translate([18, 0, 0])
                cube([4, 3, 6], center = true);
        }
    ";
    let flat = scad_to_flat_csg(src).unwrap();
    assert_eq!(flat.num_prims(), 11);
    let result = synth(&flat, &config());
    let (_, prog) = result.structured().expect("tooth loop");
    let s = prog.cad.to_string();
    assert!(s.contains("(/ (* 360 i) 10)"), "rotation form: {s}");
}

#[test]
fn hex_cells_from_openscad() {
    // The Fig. 18 generator as its source would look on Thingiverse.
    let src = "
        difference() {
          cube([20, 20, 3], center = true);
          for (i = [0 : 1])
            for (j = [0 : 1])
              translate([15 - 10 * i - 10, 5 + 10 * j - 10, 0])
                cylinder(r = 3, h = 4, center = true, $fn = 6);
        }
    ";
    let flat = scad_to_flat_csg(src).unwrap();
    assert_eq!(flat.num_prims(), 5);
    assert!(flat.to_string().contains("Hexagon"));
    let result = synth(&flat, &config());
    assert!(result.structured().is_some());
}

#[test]
fn flattener_matches_native_models() {
    // The OpenSCAD route and the native Rust generator produce the same
    // primitive counts and equivalent geometry for the fin model.
    let via_scad = scad_to_flat_csg(
        "for (i = [0 : 7]) translate([i * 6, 0, 0]) cube([2, 30, 40], center = true);",
    )
    .unwrap();
    let native = sz_models::card_org();
    assert_eq!(via_scad.num_prims(), native.num_prims());
    let v = sz_mesh::validate_flat(&via_scad, &native, 4000).unwrap();
    assert!(v.equivalent, "routes must agree geometrically: {v:?}");
}
