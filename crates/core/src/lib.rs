//! # szalinski: CAD parameter inference with equality saturation
//!
//! A from-scratch reproduction of **Szalinski/ShrinkRay** (Nandi et al.,
//! PLDI 2020 / arXiv:1909.12252): given a *flat* CSG program — the kind
//! produced by mesh decompilers or by unrolling parametric CAD — recover
//! editable **LambdaCAD** programs whose loops and closed-form index
//! arithmetic expose the model's latent repetitive structure.
//!
//! ## Pipeline (paper Fig. 5)
//!
//! 1. the input is loaded into an e-graph over [`CadLang`];
//! 2. [`rules()`] — ~40 semantics-preserving rewrites (affine lifting /
//!    reordering / collapsing, fold introduction, boolean laws) saturate
//!    the graph under fuel limits;
//! 3. determinization picks up to eight consistent affine decompositions
//!    of each `Fold` list's elements, longest first; the three passes
//!    below share one table of the `Fold` sites, which scans the sites
//!    once and reads and determinizes each list once;
//! 4. [`list_manipulation`] adds lexicographically sorted list variants
//!    inside commutative folds, sorting by each list's first
//!    determinization;
//! 5. [`infer_functions_with`] fits closed forms (degree-1/2 polynomials
//!    with ε tolerance, sinusoids) per affine layer of every
//!    determinization and inserts `Mapi`/`Repeat` structure;
//!    [`infer_loops_with`] finds nested loops via m-factorization and the
//!    irregular-grid grouping fallback;
//! 6. extraction returns the **top-k** programs under any pluggable
//!    [`CostModel`] (the paper's AST size is the default, the
//!    `wardrobe@` loop-rewarding scheme a built-in; see [`cost`] for
//!    the weight-table/combinator models and the `pareto` two-objective
//!    front).
//!
//! ## Sessions, snapshots, and resume
//!
//! [`Synthesizer`] is the one entry point: built from a [`SynthConfig`],
//! it compiles the rule set once (cached process-wide) and
//! [`Synthesizer::run`] dispatches each call as **cold**,
//! **extraction-only resume** (an offered [`SynthSnapshot`] whose
//! [`SynthConfig::saturation_fingerprint`] matches exactly — zero
//! saturation iterations), or **partial-saturation resume** (a snapshot
//! whose [`SynthConfig::saturation_core_fingerprint`] matches with
//! lower-or-equal fuel limits — saturation *continues* from the stored
//! [`SatPhase`], landing byte-identical to a cold run at the higher
//! fuel). Which flavor ran is recorded in [`Synthesis`]`::mode`. The
//! config decides the result and the [`RunOptions`] only run it: a run
//! that no deadline or cancel token stopped returns the same programs
//! whichever flavor ran.
//!
//! Stores that hold many serialized snapshots decide what to offer via
//! [`SynthSnapshot::probe_header`], which reads a snapshot's identity
//! ([`SnapshotHeader`]) and fuel descriptor ([`SatPhaseHeader`]) from
//! its header lines without parsing the embedded e-graphs; `sz-batch`'s
//! snapshot tier indexes on the core fingerprint this way so a
//! fuel-raised rerun of a whole corpus resumes every job instead of
//! re-saturating. The probe is advisory: `run` re-checks
//! [`SynthSnapshot::supports_partial_resume`] before resuming, so a
//! stale or corrupt offer degrades to a cold run, never an unsound one.
//!
//! ## Example
//!
//! ```
//! use szalinski::{RunOptions, SynthConfig, Synthesizer};
//! use sz_cad::Cad;
//!
//! // Figure 2's input: five cubes spaced 2 apart along x.
//! let flat = Cad::union_chain(
//!     (1..=5).map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit)).collect(),
//! );
//! let session = Synthesizer::new(SynthConfig::new());
//! let result = session.run(&flat, RunOptions::new()).unwrap();
//! let (rank, prog) = result.structured().unwrap();
//! assert_eq!(rank, 1);
//! assert!(prog.cad.to_string().contains("(Repeat Unit 5)"));
//! // The loop unrolls back to the input geometry.
//! assert_eq!(prog.cad.eval_to_flat().unwrap(), flat);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod cost;
mod determinize;
pub mod funcinfer;
pub mod lang;
pub mod listmanip;
mod lists;
pub mod loopinfer;
pub mod pipeline;
pub mod report;
pub mod rules;
pub mod session;

pub use analysis::{add_vec, num_of, vec_of, CadAnalysis, CadData, CadGraph};
pub use cost::{
    parse_cost_model, parse_cost_spec, validate_fingerprint, AstSizeCost, CostModel, CostSpec,
    CostSpecError, CostVec, DepthCost, DepthPenalty, GeomCount, Lexicographic, ModelCost, OpClass,
    RewardLoopsCost, WeightedCost, WeightedSum, COST_SPEC_GRAMMAR,
};
pub use funcinfer::{infer_functions_with, InferenceRecord, LoopShape, PassControl};
pub use lang::{cad_to_lang, lang_to_cad, lang_to_cad_at, CadLang, FromLangError};
pub use listmanip::list_manipulation;
pub use loopinfer::{factorizations, index_sets, infer_loops_with};
pub use pipeline::{
    ParetoProgram, SatPhase, SatPhaseHeader, SnapshotHeader, SynthConfig, SynthError, SynthProgram,
    SynthSnapshot, Synthesis,
};
pub use report::{fit_tags, has_structure, loop_tags, TableRow};
pub use rules::{all_rules, rules, structural_rules, CadRewrite};
pub use session::{RunMode, RunOptions, Synthesizer};
pub use sz_egraph::{CancelToken, ProgressObserver, RuleStat, StopReason};
pub use sz_lint::{lint_ruleset, Diagnostic as LintDiagnostic, Report as LintReport};
pub use sz_trace::{Metrics, Telemetry, Tracer};
