//! # sz-batch: corpus-scale parallel batch synthesis
//!
//! The paper's evaluation runs the synthesizer over a *corpus* — 16
//! curated models plus 2,127 Thingiverse programs — while one
//! [`szalinski::Synthesizer`] run drives exactly one input. This crate
//! is the corpus engine layered on the panic-free session API:
//!
//! * [`pool`] — a work-stealing thread pool over `std` threads with
//!   per-task panic isolation;
//! * [`cache`] — a **two-tier** content-addressed cache: a *program
//!   tier* keyed on the input s-expression plus the full
//!   [`SynthConfig::fingerprint`](szalinski::SynthConfig::fingerprint)
//!   (hits skip the whole pipeline), and a size-bounded *snapshot tier*
//!   keyed on the input plus only
//!   [`SynthConfig::saturation_fingerprint`](szalinski::SynthConfig::saturation_fingerprint),
//!   holding serialized saturated e-graphs
//!   ([`szalinski::SynthSnapshot`]) so extraction-only config changes
//!   resume instead of re-saturating, plus a *core-key* secondary index
//!   ([`ResultCache::best_core_snapshot`]) that serves lower-fuel
//!   snapshots to higher-fuel jobs as partial-saturation resumes. Each
//!   tier has one on-disk form: programs a line-oriented s-expression
//!   cache file ([`ResultCache::save`]), snapshots a directory of
//!   `.snap` files ([`load_snapshot_dir`] / [`save_snapshot_dir`]).
//!   Persistence is **fleet-safe**: unique per-process temp files,
//!   merge-on-save, and pruning restricted to self-evicted keys, so many
//!   processes can share one cache file or snapshot dir without
//!   destroying each other's work;
//! * [`engine`] — [`BatchEngine`]: fans [`BatchJob`]s across the pool
//!   (one run method at every worker count; one worker is the in-order
//!   run) under per-job and whole-batch wall-clock deadlines plus a shared
//!   [`szalinski::CancelToken`] (cooperative stops surface as
//!   [`szalinski::StopReason::Cancelled`] in
//!   [`JobOutcome::stop_reason`]), consults both cache tiers (program
//!   hit → no work; snapshot hit → the session resumes extraction with
//!   zero saturation iterations), and aggregates a [`BatchReport`];
//! * [`report`] — the JSON-lines sink feeding `BENCH_batch.json`; job
//!   records carry the e-matching profile of the saturation they ran
//!   (`search_time_s`/`apply_time_s` totals plus a per-rule `rules[]`
//!   array from [`JobOutcome::rule_stats`]); [`merge_reports`] folds
//!   per-shard streams back into one deterministic report;
//! * [`corpus`] — job enumeration from the 16-model suite, a directory
//!   of `.scad`/`.csexp` files, or a generated `sz-gen` corpus streamed
//!   straight into memory ([`gen_jobs`], `szb --gen <spec>` — no files
//!   on disk), and [`ShardSpec`] for splitting any corpus across fleet
//!   processes by a stable hash of the job name ([`stable_name_hash`]).
//!
//! The `szb` binary glues these into a CLI that decompiles a whole
//! directory end-to-end (parse → synthesize → emit structured
//! OpenSCAD):
//!
//! ```text
//! szb --suite16 --workers 4 --cache warm.sexp --report BENCH_batch.json
//! szb path/to/models --out decompiled/
//! szb --suite16 --snapshots snaps/            # store e-graph snapshots
//! szb --suite16 --snapshots snaps/ --cost reward-loops   # resumes, no saturation
//! szb models/ --shard 2/4 --snapshots snaps/ --report shard2.jsonl
//! szb --gen "count=10000,seed=42" --shard 1/8 --snapshots snaps/
//! szb merge merged.jsonl shard*.jsonl         # fold shard reports
//! szb merge --cache merged.sexp shard*.sexp   # fold shard program caches
//! ```
//!
//! ## Determinism
//!
//! Every worker count runs the same per-job code path, so a batch run's
//! programs do not depend on it, and a warm-cache rerun reproduces the
//! cold run's programs with zero saturation iterations (see
//! `tests/batch_determinism.rs`).
//!
//! ## Example
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use sz_batch::{BatchEngine, ResultCache};
//! use szalinski::SynthConfig;
//!
//! let config = SynthConfig::new().with_iter_limit(20).with_node_limit(20_000);
//! let jobs = sz_batch::suite16_jobs(&config);
//! let cache = Arc::new(Mutex::new(ResultCache::new()));
//! let engine = BatchEngine::new().with_workers(2).with_cache(cache);
//! let report = engine.run(jobs.into_iter().take(2).collect());
//! assert_eq!(report.ok_count(), 2);
//! assert_eq!(report.cache_misses(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod corpus;
pub mod engine;
pub mod lint;
pub mod pool;
pub mod report;

pub use cache::{
    attach_snapshot_dir, load_snapshot_dir, save_snapshot_dir, stable_name_hash, CacheLoadError,
    CachedRun, CoreKey, JobKey, ResultCache, SnapshotKey, DEFAULT_SNAPSHOT_BUDGET,
};
pub use corpus::{dir_jobs, gen_jobs, sanitize_name, suite16_jobs, CorpusSkip, ShardSpec};
pub use engine::{BatchEngine, BatchJob, BatchReport, JobOutcome, JobStatus, StreamSink};
pub use lint::{lint_dir, lint_rules, lint_suite16, run_lint_cli};
pub use pool::{run_tasks, TaskPanic};
pub use report::{job_record, json_string, merge_reports, stop_reason_tag, summary_record};
