//! The 16 Thingiverse benchmark models of Table 1, re-implemented from
//! the paper's descriptions: the original STL/SCAD artifacts are not
//! redistributable, so each model is regenerated with the same name,
//! loop structure, and approximate size.

use sz_cad::Cad;

/// Where the paper sourced the flat CSG (Table 1 superscripts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// `T`: flattened from a Thingiverse OpenSCAD model.
    Thingiverse,
    /// `I`: implemented by the authors (simulating a mesh decompiler).
    Implemented,
}

/// One benchmark model.
#[derive(Debug, Clone)]
pub struct Model {
    /// Table 1 name, e.g. `3362402:gear`.
    pub name: &'static str,
    /// Table 1 provenance superscript.
    pub provenance: Provenance,
    /// The flat CSG input.
    pub flat: Cad,
    /// One-line description from the paper / Thingiverse.
    pub description: &'static str,
}

fn chain(items: Vec<Cad>) -> Cad {
    Cad::union_chain(items)
}

/// `3244600:cnc-end-mill` — CNC bit holder: plate with a 4×4 grid of
/// bit holes; a `Hull` detail was removed by preprocessing (§6.1), here
/// an `External` part.
pub fn cnc_end_mill() -> Cad {
    let base = Cad::union(
        Cad::scale(40.0, 40.0, 5.0, Cad::Unit),
        Cad::External("hull_rim".into()),
    );
    let holes = (0..4)
        .flat_map(|i| {
            (0..4).map(move |j| {
                Cad::translate(
                    8.0 * i as f64 - 12.0,
                    8.0 * j as f64 - 12.0,
                    1.0,
                    Cad::scale(2.5, 2.5, 6.0, Cad::Cylinder),
                )
            })
        })
        .collect();
    Cad::diff(base, chain(holes))
}

/// `3432939:nintendo-slot` — video-game storage with 12 triangular
/// slots (the paper's row reports the 11-gap loop).
pub fn nintendo_slot() -> Cad {
    let slot = |x: f64| {
        Cad::translate(
            x,
            0.0,
            18.0,
            Cad::union(
                Cad::rotate(45.0, 0.0, 0.0, Cad::scale(4.0, 18.0, 18.0, Cad::Unit)),
                Cad::union(
                    Cad::scale(4.0, 26.0, 6.0, Cad::Unit),
                    Cad::translate(0.0, 10.0, -4.0, Cad::scale(4.0, 6.0, 10.0, Cad::Unit)),
                ),
            ),
        )
    };
    let slots = (0..11).map(|i| slot(10.0 * i as f64 - 50.0)).collect();
    let base = Cad::union(
        Cad::scale(120.0, 32.0, 40.0, Cad::Unit),
        Cad::union(
            Cad::translate(0.0, 17.0, 10.0, Cad::scale(120.0, 2.0, 20.0, Cad::Unit)),
            Cad::translate(0.0, -17.0, 10.0, Cad::scale(120.0, 2.0, 20.0, Cad::Unit)),
        ),
    );
    Cad::diff(base, chain(slots))
}

/// `3171605:card-org` — card organizer: 8 divider fins.
pub fn card_org() -> Cad {
    let fins = (0..8)
        .map(|i| {
            Cad::translate(
                6.0 * i as f64,
                0.0,
                0.0,
                Cad::scale(2.0, 30.0, 40.0, Cad::Unit),
            )
        })
        .collect();
    chain(fins)
}

/// `3044766:sander` — sanding block: an opaque `Hull` body (External)
/// plus 6 knurl ridges.
pub fn sander() -> Cad {
    let ridges = (0..6)
        .map(|i| {
            Cad::translate(
                5.0 * i as f64 - 12.5,
                0.0,
                10.0,
                Cad::scale(3.0, 30.0, 2.0, Cad::Unit),
            )
        })
        .collect();
    Cad::union(Cad::External("hull_body".into()), chain(ridges))
}

/// `3097951:rasp-pie` — Raspberry-Pi pin cover: 2 columns × 20 rows of
/// pin sockets in a block.
pub fn rasp_pie() -> Cad {
    let base = Cad::scale(22.0, 84.0, 6.0, Cad::Unit);
    let sockets = (0..2)
        .flat_map(|i| {
            (0..20).map(move |j| {
                Cad::translate(
                    10.0 * i as f64 - 5.0,
                    4.0 * j as f64 - 38.0,
                    1.0,
                    Cad::scale(3.0, 3.0, 6.0, Cad::Unit),
                )
            })
        })
        .collect();
    Cad::diff(base, chain(sockets))
}

/// `3148599:box-tray` — sorting tray with 3×5 compartments.
pub fn box_tray() -> Cad {
    let base = Cad::scale(64.0, 40.0, 12.0, Cad::Unit);
    let cells = (0..3)
        .flat_map(|i| {
            (0..5).map(move |j| {
                Cad::translate(
                    12.0 * j as f64 - 24.0,
                    12.0 * i as f64 - 12.0,
                    2.0,
                    Cad::scale(10.0, 10.0, 12.0, Cad::Unit),
                )
            })
        })
        .collect();
    Cad::diff(base, chain(cells))
}

/// `3331008:med-slide` — supplement sorter sliding into a tablet tube:
/// tube shell plus a bar with 7 pill scoops.
pub fn med_slide() -> Cad {
    let tube = Cad::diff(
        Cad::scale(15.0, 15.0, 60.0, Cad::Cylinder),
        Cad::scale(13.0, 13.0, 62.0, Cad::Cylinder),
    );
    let bar = Cad::scale(10.0, 6.0, 56.0, Cad::Unit);
    let scoop = |z: f64| {
        Cad::translate(
            0.0,
            2.0,
            z,
            Cad::union(
                Cad::scale(8.0, 4.0, 5.0, Cad::Unit),
                Cad::translate(0.0, 0.0, 2.0, Cad::scale(3.5, 3.5, 2.0, Cad::Cylinder)),
            ),
        )
    };
    let scoops = (0..7).map(|i| scoop(8.0 * i as f64 - 24.0)).collect();
    Cad::union(tube, Cad::diff(bar, chain(scoops)))
}

/// `2921167:hc-bits` — hex-cell bit holder (Figs. 15/18/19): a plate
/// minus four hexagonal cells. The cells are listed in *circular* order,
/// so both the 2×2-grid and the trigonometric parameterizations exist.
pub fn hc_bits() -> Cad {
    let plate = Cad::scale(20.0, 20.0, 3.0, Cad::Unit);
    let cell = |x: f64, y: f64| Cad::translate(x, y, 1.5, Cad::scale(3.0, 3.0, 4.0, Cad::Hexagon));
    // Circular order around the plate center (matches 10 + 7.07·sin(90i+315)).
    let cells = vec![
        cell(5.0, 5.0),
        cell(15.0, 5.0),
        cell(15.0, 15.0),
        cell(5.0, 15.0),
    ];
    Cad::diff(plate, chain(cells))
}

/// `3094201:dice` — a die: cube minus 21 pips across six faces
/// (face 6 is Fig. 17's 2×3 nested loop).
pub fn dice() -> Cad {
    let pip =
        |x: f64, y: f64, z: f64| Cad::translate(x, y, z, Cad::scale(0.75, 0.75, 0.75, Cad::Sphere));
    let mut pips = Vec::new();
    // Face 1 (+x).
    pips.push(pip(5.0, 0.0, 0.0));
    // Face 6 (−x): 2 columns × 3 rows (Fig. 17).
    for i in 0..2 {
        for j in 0..3 {
            pips.push(pip(-5.0, 2.0 - 4.0 * i as f64, 2.0 - 2.0 * j as f64));
        }
    }
    // Face 2 (+y).
    for i in 0..2 {
        pips.push(pip(2.0 - 4.0 * i as f64, 5.0, 2.0 - 4.0 * i as f64));
    }
    // Face 5 (−y).
    for (x, z) in [
        (-2.0, -2.0),
        (-2.0, 2.0),
        (0.0, 0.0),
        (2.0, -2.0),
        (2.0, 2.0),
    ] {
        pips.push(pip(x, -5.0, z));
    }
    // Face 3 (+z).
    for i in 0..3 {
        pips.push(pip(2.0 - 2.0 * i as f64, 2.0 - 2.0 * i as f64, 5.0));
    }
    // Face 4 (−z): 2×2.
    for i in 0..2 {
        for j in 0..2 {
            pips.push(pip(2.0 - 4.0 * i as f64, 2.0 - 4.0 * j as f64, -5.0));
        }
    }
    Cad::diff(Cad::scale(10.0, 10.0, 10.0, Cad::Unit), chain(pips))
}

/// `3072857:tape-store` — tape organizer: block minus 10 slots.
pub fn tape_store() -> Cad {
    let base = Cad::scale(50.0, 30.0, 30.0, Cad::Unit);
    let slots = (0..10)
        .map(|i| {
            Cad::translate(
                4.5 * i as f64 - 20.25,
                0.0,
                5.0,
                Cad::scale(3.0, 26.0, 26.0, Cad::Unit),
            )
        })
        .collect();
    Cad::diff(base, chain(slots))
}

/// `1725308:soldering` — soldering aid; a `Mirror` half is opaque
/// (External) plus 5 wire clips.
pub fn soldering() -> Cad {
    let clips = (0..5)
        .map(|i| {
            Cad::translate(
                6.0 * i as f64 - 12.0,
                0.0,
                4.0,
                Cad::scale(2.0, 4.0, 8.0, Cad::Unit),
            )
        })
        .collect();
    Cad::union(Cad::External("mirror_half".into()), chain(clips))
}

/// `3362402:gear` — the running example (Figs. 1, 3, 4): base ring and
/// shaft hole, minus `n_teeth` teeth rotated around the rim.
pub fn gear(n_teeth: usize) -> Cad {
    let base = Cad::diff(
        Cad::union(
            Cad::scale(80.0, 80.0, 100.0, Cad::Cylinder),
            Cad::scale(120.0, 120.0, 50.0, Cad::Cylinder),
        ),
        Cad::translate(0.0, 0.0, -1.0, Cad::scale(25.0, 25.0, 102.0, Cad::Cylinder)),
    );
    let teeth = (1..=n_teeth)
        .map(|i| {
            Cad::rotate(
                0.0,
                0.0,
                360.0 * i as f64 / n_teeth as f64,
                Cad::translate(125.0, 0.0, 0.0, Cad::External("tooth".into())),
            )
        })
        .collect();
    Cad::diff(base, chain(teeth))
}

/// `3452260:relay-box` — relay housing: box with two mounting tabs,
/// hollowed (the tab pair is the paper's rank-4 `n1,2` loop).
pub fn relay_box() -> Cad {
    let tabs = (0..2)
        .map(|i| {
            Cad::translate(
                40.0 * i as f64 - 20.0,
                0.0,
                -6.0,
                Cad::scale(8.0, 12.0, 3.0, Cad::Unit),
            )
        })
        .collect();
    Cad::diff(
        Cad::union(Cad::scale(30.0, 20.0, 15.0, Cad::Unit), chain(tabs)),
        Cad::scale(28.0, 18.0, 14.0, Cad::Unit),
    )
}

/// `64847:sd-rack` — SD-card rack whose slot spacing follows no closed
/// form (Table 1: ShrinkRay returns the input; no structure exists).
pub fn sd_rack() -> Cad {
    // Hand-measured, irregular slot offsets *and* widths (no d1/d2/θ
    // form fits, and no two slots share a shape — so not even a trivial
    // pair loop exists).
    let offsets = [
        3.1, 7.9, 11.2, 17.8, 21.3, 28.9, 31.0, 38.6, 41.9, 47.2, 55.5, 58.1, 66.4, 69.9, 74.2,
        83.6, 86.0, 95.3, 97.7,
    ];
    let widths = [
        1.53, 2.18, 1.62, 1.91, 1.77, 2.04, 1.58, 1.86, 2.11, 1.69, 1.98, 1.51, 2.07, 1.73, 1.64,
        2.16, 1.82, 1.56, 1.94,
    ];
    let base = Cad::scale(100.0, 32.0, 26.0, Cad::Unit);
    let slots = offsets
        .iter()
        .zip(&widths)
        .map(|(&x, &w)| Cad::translate(x - 50.0, 0.0, 4.0, Cad::scale(w, 26.0, 24.0, Cad::Unit)))
        .collect();
    Cad::diff(base, chain(slots))
}

/// `3333935:compose` — a one-off composition with no repetition
/// (Table 1: returned unchanged).
pub fn compose() -> Cad {
    Cad::diff(
        Cad::union(
            Cad::scale(24.0, 16.0, 8.0, Cad::Unit),
            Cad::translate(
                9.0,
                0.0,
                7.0,
                Cad::rotate(0.0, 35.0, 0.0, Cad::scale(6.0, 14.0, 4.0, Cad::Unit)),
            ),
        ),
        Cad::union(
            Cad::translate(-6.0, 2.5, 3.0, Cad::scale(7.0, 7.0, 9.0, Cad::Cylinder)),
            Cad::union(
                Cad::translate(4.0, -5.0, 4.5, Cad::scale(3.0, 3.0, 3.0, Cad::Sphere)),
                Cad::union(
                    Cad::translate(
                        2.0,
                        6.0,
                        6.0,
                        Cad::rotate(20.0, 0.0, 10.0, Cad::scale(10.0, 2.0, 5.0, Cad::Unit)),
                    ),
                    Cad::translate(-9.0, -4.0, 7.5, Cad::scale(2.0, 5.0, 3.0, Cad::Hexagon)),
                ),
            ),
        ),
    )
}

/// `510849:wardrobe` — wardrobe organizer: two banks of three shelves
/// whose spacing grows *quadratically*, plus a one-off frame. AST-size
/// extraction keeps it flat; the `reward-loops` cost function exposes
/// the two `d2` loops (Table 1's `@` row).
pub fn wardrobe() -> Cad {
    // Each bank holds three *distinct* shelf boards (irregular depths;
    // the last one carries a front lip) at quadratically growing heights
    // z = 2i² + 3i + 10. Only that z-spacing admits a closed form, and
    // only the reward-loops cost function is willing to pay the loop's
    // overhead for it (Table 1's `@` row).
    let board = |d: f64| Cad::scale(50.0, d, 2.0, Cad::Unit);
    let lipped = |d: f64| {
        Cad::union(
            Cad::scale(50.0, d, 2.0, Cad::Unit),
            Cad::translate(0.0, d / 2.0, 2.0, Cad::scale(50.0, 2.0, 2.0, Cad::Unit)),
        )
    };
    let bank = |x: f64, depths: [f64; 3]| -> Cad {
        chain(
            (0..3)
                .map(|i| {
                    let z = 2.0 * (i * i) as f64 + 3.0 * i as f64 + 10.0;
                    let shelf = if i == 2 {
                        lipped(depths[i])
                    } else {
                        board(depths[i])
                    };
                    Cad::translate(x, 0.0, z, shelf)
                })
                .collect(),
        )
    };
    let parts = vec![
        Cad::scale(120.0, 40.0, 4.0, Cad::Unit),
        Cad::translate(-58.0, 0.0, 30.0, Cad::scale(4.0, 40.0, 60.0, Cad::Unit)),
        Cad::translate(58.0, 0.0, 30.0, Cad::scale(4.0, 41.5, 62.0, Cad::Unit)),
        Cad::translate(
            0.0,
            -19.0,
            30.0,
            Cad::rotate(8.0, 0.0, 0.0, Cad::scale(116.0, 2.0, 60.0, Cad::Unit)),
        ),
        Cad::translate(0.0, 12.0, 62.0, Cad::scale(116.0, 16.0, 2.0, Cad::Unit)),
        Cad::translate(0.0, -6.0, 66.0, Cad::scale(30.0, 10.0, 6.0, Cad::Cylinder)),
        Cad::translate(0.0, 0.0, 2.0, Cad::scale(110.0, 36.0, 2.0, Cad::Unit)),
        // Each bank is its own union subtree (as the original model's
        // module structure would flatten), so each yields its own fold.
        bank(-30.0, [36.2, 38.9, 40.1]),
        bank(30.0, [35.3, 37.8, 39.4]),
    ];
    chain(parts)
}

/// All 16 models in Table 1 order.
pub fn all_models() -> Vec<Model> {
    use Provenance::*;
    vec![
        Model {
            name: "3244600:cnc-end-mill",
            provenance: Thingiverse,
            flat: cnc_end_mill(),
            description: "CNC bit holder with a 4x4 grid of holes",
        },
        Model {
            name: "3432939:nintendo-slot",
            provenance: Thingiverse,
            flat: nintendo_slot(),
            description: "video game storage unit with triangular slots",
        },
        Model {
            name: "3171605:card-org",
            provenance: Thingiverse,
            flat: card_org(),
            description: "card organizer fins",
        },
        Model {
            name: "3044766:sander",
            provenance: Thingiverse,
            flat: sander(),
            description: "sanding block with knurl ridges (hull as External)",
        },
        Model {
            name: "3097951:rasp-pie",
            provenance: Thingiverse,
            flat: rasp_pie(),
            description: "raspberry pi pin cover, 20 rows x 2 columns",
        },
        Model {
            name: "3148599:box-tray",
            provenance: Thingiverse,
            flat: box_tray(),
            description: "sorting tray with 3x5 compartments",
        },
        Model {
            name: "3331008:med-slide",
            provenance: Thingiverse,
            flat: med_slide(),
            description: "supplement sorter sliding into a tablet tube",
        },
        Model {
            name: "2921167:hc-bits",
            provenance: Implemented,
            flat: hc_bits(),
            description: "hex cell bit holder (loop & trig variants)",
        },
        Model {
            name: "3094201:dice",
            provenance: Thingiverse,
            flat: dice(),
            description: "die with 21 pips across six faces",
        },
        Model {
            name: "3072857:tape-store",
            provenance: Thingiverse,
            flat: tape_store(),
            description: "tape organizer with 10 slots",
        },
        Model {
            name: "1725308:soldering",
            provenance: Implemented,
            flat: soldering(),
            description: "soldering aid (mirror half as External)",
        },
        Model {
            name: "3362402:gear",
            provenance: Implemented,
            flat: gear(60),
            description: "60-tooth gear (the running example)",
        },
        Model {
            name: "3452260:relay-box",
            provenance: Thingiverse,
            flat: relay_box(),
            description: "relay housing with two mounting tabs",
        },
        Model {
            name: "64847:sd-rack",
            provenance: Implemented,
            flat: sd_rack(),
            description: "SD card rack with irregular slot spacing (no structure)",
        },
        Model {
            name: "3333935:compose",
            provenance: Thingiverse,
            flat: compose(),
            description: "one-off composition (no repetitive structure)",
        },
        Model {
            name: "510849:wardrobe",
            provenance: Implemented,
            flat: wardrobe(),
            description: "wardrobe with quadratically spaced shelves",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_are_flat() {
        for m in all_models() {
            assert!(m.flat.is_flat_csg(), "{} is not flat", m.name);
        }
    }

    #[test]
    fn sixteen_models() {
        assert_eq!(all_models().len(), 16);
        let names: Vec<&str> = all_models().iter().map(|m| m.name).collect();
        assert!(names.contains(&"3362402:gear"));
    }

    #[test]
    fn gear_matches_paper_stats() {
        // Table 1: gear has 63 primitives and AST depth 62 (our depth
        // metric counts the outer Diff too, landing at 63).
        let g = gear(60);
        assert_eq!(g.num_prims(), 63);
        assert_eq!(g.depth(), 63);
        assert!(g.num_nodes() > 500, "nodes = {}", g.num_nodes());
    }

    #[test]
    fn primitive_counts_are_in_paper_ballpark() {
        // (name, paper #i-p, tolerance)
        let expect = [
            ("3244600:cnc-end-mill", 17, 2),
            ("3432939:nintendo-slot", 36, 3),
            ("3171605:card-org", 8, 0),
            ("3044766:sander", 6, 1),
            ("3097951:rasp-pie", 41, 0),
            ("3148599:box-tray", 16, 0),
            ("3331008:med-slide", 20, 4),
            ("2921167:hc-bits", 5, 0),
            ("3094201:dice", 22, 0),
            ("3072857:tape-store", 11, 0),
            ("1725308:soldering", 6, 0),
            ("3362402:gear", 63, 0),
            ("3452260:relay-box", 4, 0),
            ("64847:sd-rack", 20, 0),
            ("3333935:compose", 6, 0),
            ("510849:wardrobe", 15, 0),
        ];
        for m in all_models() {
            let (_, want, tol) = expect
                .iter()
                .find(|(n, _, _)| *n == m.name)
                .expect("model listed");
            let got = m.flat.num_prims();
            assert!(
                (got as i64 - *want as i64).unsigned_abs() as usize <= *tol,
                "{}: got {got} prims, paper has {want}",
                m.name
            );
        }
    }

    #[test]
    fn models_evaluate_and_compile() {
        // Every model must be a valid solid (compilable membership).
        for m in all_models() {
            let flat = m.flat.eval_to_flat().unwrap();
            assert_eq!(flat, m.flat, "{} is already flat", m.name);
        }
    }
}
