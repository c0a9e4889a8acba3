//! # sz-models: the Szalinski benchmark suite
//!
//! Synthetic re-implementations of the 16 Thingiverse models from the
//! paper's Table 1 ([`all_models`]), the worked-figure inputs
//! (Figs. 2/10/14/16/17/18), and the noise model simulating mesh
//! decompiler roundoff ([`add_noise`]).
//!
//! The original artifacts are not redistributable; each model is rebuilt
//! from the paper's description with the same name, loop structure, and
//! approximate size.
//!
//! ## Example
//!
//! ```
//! use sz_models::gear;
//! let g = gear(60);
//! assert!(g.is_flat_csg());
//! assert_eq!(g.num_prims(), 63); // Table 1's #i-p for 3362402:gear
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod figures;
mod models16;
mod noise;

pub use figures::{
    dice_six_face, grid_2x2, hexcell_plate, nested_affine_cubes, noisy_hexagons, row_of_cubes,
};
pub use models16::{
    all_models, box_tray, card_org, cnc_end_mill, compose, dice, gear, hc_bits, med_slide,
    nintendo_slot, rasp_pie, relay_box, sander, sd_rack, soldering, tape_store, wardrobe, Model,
    Provenance,
};
pub use noise::{add_noise, add_noise_with};
