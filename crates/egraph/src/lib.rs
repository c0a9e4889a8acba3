//! # sz-egraph: equality saturation for the Szalinski reproduction
//!
//! A from-scratch e-graph library in the style of [egg] (Willsey et al.),
//! built as the substrate for Szalinski/ShrinkRay-style CAD parameter
//! inference. It provides:
//!
//! * [`EGraph`] — hash-consed e-nodes over a union-find of e-classes, with
//!   *deferred* congruence maintenance ([`EGraph::rebuild`]). Storage is
//!   flat and id-indexed: every distinct e-node is interned once into a
//!   node arena ([`NodeId`] handles), the hash-cons memo is a dense
//!   array over arena ids (probes after the first intern never re-hash
//!   the node), classes live in a dense `Vec` slot-indexed by canonical
//!   [`Id`], and per-class node/parent lists are id lists iterated
//!   cache-linearly (see the [`egraph`](EGraph) module docs for the
//!   layout diagram and the id-stability contract snapshots rely on);
//! * [`Language`] — the trait connecting your term language to the engine;
//! * [`Analysis`] — e-class analyses (semilattice data per class), used by
//!   Szalinski to surface concrete numbers/vectors/lists to its solvers;
//! * [`Pattern`] / [`Rewrite`] / [`Runner`] — e-matching, rewrite rules
//!   (syntactic or arbitrary Rust [`FnApplier`]s), and a saturation driver
//!   with iteration and node limits (its only fuel; a wall-clock
//!   [`Runner::with_deadline`] stops a run as [`StopReason::Cancelled`])
//!   and per-rule [`RuleStat`] search/apply profiles.
//!   E-matching is **compiled**: each pattern becomes a linear
//!   [`Program`] of Bind/Compare/Lookup instructions executed by a small
//!   backtracking VM ([`machine`]), with root candidates drawn from the
//!   e-graph's operator index ([`EGraph::classes_with_op`]); every
//!   [`Rewrite`] holds its [`CompiledPattern`]. Saturation matches
//!   incrementally: after the first iteration a rule re-runs the VM only
//!   at roots within its pattern's depth of a class the last rebuild
//!   touched, carries its other matches over, and skips re-applying them
//!   while the graph is clean (the [`Applier`] contract). The naive
//!   AST-walking matcher survives only as [`Pattern::search`], the
//!   reference oracle of the differential suites;
//! * [`Extractor`], [`KBestExtractor`] and [`ParetoExtractor`] — one-best,
//!   **top-k** (the paper's output, §5.1) and two-objective Pareto-front
//!   term extraction under [`CostFunction`]s. All three run one bottom-up
//!   fixpoint, a dirty-class worklist that recomputes a class's row (its
//!   1-best cost, or its capped Pareto front) and re-queues its parents
//!   when the row changed, and build terms with one builder;
//!   [`KBestExtractor`] enumerates derivations beyond the 1-best lazily;
//! * [`Snapshot`] — a versioned, deterministic text serialization of
//!   e-graph + runner state ([`Runner::snapshot`] /
//!   [`Runner::resume_from`]), so saturated graphs can be persisted and
//!   resumed instead of re-saturated (the substrate of `sz-batch`'s
//!   snapshot cache tier).
//!
//! ## Example
//!
//! ```
//! use sz_egraph::{Runner, Rewrite, Extractor, AstSize, tests_lang::Arith};
//!
//! let rules: Vec<Rewrite<Arith, ()>> = vec![
//!     Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
//!     Rewrite::parse("mul2", "(+ ?a ?a)", "(* 2 ?a)").unwrap(),
//! ];
//! let runner = Runner::new(())
//!     .with_expr(&"(+ (* x y) (* x y))".parse().unwrap())
//!     .run(&rules);
//! let extractor = Extractor::new(&runner.egraph, AstSize);
//! let (cost, best) = extractor.find_best(runner.roots[0]);
//! assert_eq!(best.to_string(), "(* 2 (* x y))");
//! assert_eq!(cost, 5);
//! ```
//!
//! [egg]: https://egraphs-good.github.io/

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod arena;
mod egraph;
mod extract;
mod id;
mod language;
pub mod machine;
mod pattern;
mod recexpr;
mod rewrite;
mod runner;
mod scheduler;
mod snapshot;
mod subst;
mod unionfind;

#[doc(hidden)]
pub mod tests_lang;

pub use analysis::{merge_max, merge_option, Analysis, DidMerge};
pub use arena::{FxBuildHasher, FxHasher, NodeId};
pub use egraph::{EClass, EGraph};
pub use extract::{
    AstDepth, AstSize, CostFunction, Extractor, GraphView, KBestExtractor, ParetoExtractor,
    DEFAULT_PARETO_CAP,
};
pub use id::Id;
pub use language::{FromOpError, Language, Symbol};
pub use machine::{compile_count, CompiledPattern, InstView, Program, ProgramView};
pub use pattern::{ENodeOrVar, Pattern, SearchMatches};
pub use recexpr::{RecExpr, RecExprParseError};
pub use rewrite::{
    Applier, ConditionalApplier, FnApplier, Rewrite, RewriteError, RewriteErrorKind,
};
pub use runner::{
    CancelToken, Iteration, ProgressObserver, RuleIteration, RuleStat, Runner, StopReason,
};
pub use scheduler::{BackoffScheduler, Scheduler};
pub use snapshot::{
    escape_token, unescape_token, Snapshot, SnapshotError, SnapshotParseError, SnapshotView,
    SNAPSHOT_FORMAT_VERSION,
};
pub use subst::{ParseVarError, Subst, Var};
pub use unionfind::UnionFind;
