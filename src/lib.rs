//! # szalinski-repro: facade crate
//!
//! One-stop access to the whole Szalinski/ShrinkRay reproduction:
//!
//! * [`szalinski`] — the synthesizer (equality saturation + inverse
//!   transformations);
//! * [`sz_cad`] — the CSG/LambdaCAD languages and evaluator;
//! * [`sz_egraph`] — the e-graph engine;
//! * [`sz_solver`] — the arithmetic function solvers;
//! * [`sz_mesh`] — meshes, STL, implicit geometry, translation validation;
//! * [`sz_scad`] — OpenSCAD import/export;
//! * [`sz_models`] — the 16-model benchmark suite and figure inputs;
//! * [`sz_gen`] — the deterministic synthetic corpus generator: seeded,
//!   distribution-controlled flat-CSG corpora at 10⁴–10⁶ scale (and the
//!   `szgen` CLI);
//! * [`sz_lint`] — static analysis: rewrite-rule hygiene, compiled
//!   e-match program verification, CAD input linting (run by
//!   `szb lint`);
//! * [`sz_batch`] — corpus-scale parallel batch synthesis with result
//!   caching (and the `szb` CLI);
//! * [`sz_trace`] — zero-dependency telemetry: hierarchical spans,
//!   a counters/gauges/histograms registry, Chrome-trace export.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `crates/bench` for the table/figure harnesses.
//!
//! # Architecture
//!
//! The workspace is layered; every arrow is a Cargo dependency and
//! points strictly downward (no cycles):
//!
//! ```text
//!                    ┌─────────────────────────────┐
//!                    │  sz-bench  (tables/figures) │
//!                    └──────┬──────────────┬───────┘
//!                           │              │
//!          ┌────────────────▼───┐          │
//!          │ sz-batch (szb CLI) │          │
//!          │ pool · cache · rpt │          │
//!          └─┬─────┬──────┬─────┘          │
//!            │     │      │                │
//!   ┌────────▼┐ ┌──▼────┐ │  ┌─────────┐  │
//!   │ sz-scad │ │ sz-   │ └──► szalinski◄──┘   ┌─────────┐
//!   │ (SCAD   │ │ models│    │ (pipeline)│────► sz-solver│
//!   │  I/O)   │ └──┬────┘    └──┬────┬───┘     └────┬────┘
//!   └────┬────┘    │            │    │               │
//!        │         │   ┌───────▼─┐  │               │
//!        │         │   │sz-egraph│  │               │
//!        │         │   └─────────┘  │               │
//!        └─────────┴────────────────▼───────────────┘
//!                               sz-cad
//!                    (sz-mesh also sits on sz-cad;
//!              sz-trace underlies sz-egraph/szalinski/sz-batch;
//!        sz-lint sits on sz-egraph + sz-cad and is consumed by
//!        szalinski — rule-set analysis at compile time — and by
//!                  sz-batch — `szb lint`)
//! ```
//!
//! The generated-corpus layer slots in between the corpus engines and
//! the mid-layer crates (arrows still point strictly downward):
//!
//! ```text
//!   sz-bench (`corpus` soak bin) ──┐
//!   sz-batch (`szb --gen <spec>`) ─┴─► sz-gen (szgen CLI)
//!                                        │  spec → (seed, index)-keyed
//!                                        │  RNG → flat CSG + manifest
//!                                        ├──► sz-models (primitives, noise)
//!                                        ├──► sz-scad   (.scad emission)
//!                                        ├──► sz-trace  (gen spans/metrics)
//!                                        └──► sz-cad    (terms, metrics)
//! ```
//!
//! * **`sz-cad`** is the foundation: the `Cad` AST shared by every
//!   layer, its s-expression interchange format, evaluator, and
//!   metrics.
//! * **`sz-egraph`**, **`sz-solver`**, **`sz-mesh`**, **`sz-scad`**,
//!   and **`sz-models`** are independent mid-layer crates (engine,
//!   arithmetic fitting, geometry validation, OpenSCAD I/O, benchmark
//!   corpus). Inside `sz-egraph`, e-matching is **compiled**: every
//!   [`sz_egraph::Rewrite`] turns its left-hand pattern into a linear
//!   Bind/Compare/Lookup program ([`sz_egraph::machine`]) executed by a
//!   small backtracking VM, and draws its root candidates from an
//!   operator index maintained on the e-graph
//!   ([`sz_egraph::EGraph::classes_with_op`]) so a rule only visits
//!   classes containing its root operator. The naive AST-walking
//!   matcher survives only as [`sz_egraph::Pattern::search`] — the
//!   oracle of the VM-vs-naive differential suites
//!   (`tests/ematch_differential.rs` and the engine-level proptests),
//!   which compare every rule's compiled program against it. The op
//!   index is derived state: snapshots never store it (format
//!   unchanged, no version bump), a restored graph builds it on first
//!   use, and `rebuild` re-canonicalizes only the lists a union made
//!   stale.
//! * **`szalinski`** (core) composes them into the paper's pipeline:
//!   saturate → determinize → list-manipulate → infer → extract. The
//!   entry point is the **session API**: build a
//!   [`szalinski::Synthesizer`] once from a [`szalinski::SynthConfig`]
//!   (the rewrite rule set is compiled once and cached process-wide),
//!   then call `run(&Cad, RunOptions) -> Result<Synthesis, SynthError>`
//!   for every request. One `run` covers all three execution modes,
//!   dispatched automatically from the offered
//!   [`szalinski::SynthSnapshot`] (recorded in `Synthesis::mode`):
//!
//!   ```text
//!                          ┌─ no / incompatible snapshot ──► cold run
//!   Synthesizer::run ──────┼─ exact saturation fingerprint ► restore final
//!     (one entry point)    │   match                          graph, re-run
//!                          │                                  extraction only
//!                          └─ fingerprint match modulo      ► restore the
//!                              LOWER fuel limits               saturation-phase
//!                              ("partial resume")              runner state and
//!                                                              CONTINUE saturating
//!   ```
//!
//!   **The config decides the result; the run options only run it.**
//!   Fuel (iteration and node limits, no wall-clock limit) and
//!   extraction live in the `SynthConfig`; [`szalinski::RunOptions`]
//!   only picks the snapshot offer, capture, a wall-clock **deadline**,
//!   a cooperative [`szalinski::CancelToken`], progress and telemetry.
//!   The token and the deadline are polled at saturation **iteration
//!   boundaries**, stopping with [`sz_egraph::StopReason::Cancelled`]
//!   while the e-graph is clean — the partial `Synthesis` is still
//!   extracted, so serving callers always get a well-formed answer, and
//!   only such a run depends on the wall clock. A
//!   [`szalinski::ProgressObserver`] hook sees every iteration.
//!   `Synthesizer::run` is the only synthesis entry point, and every
//!   cold run saturates once before inference and extraction (the
//!   paper's one main-loop round). Saturated e-graphs persist
//!   as versioned text (`szsynth v3` wrapping
//!   [`sz_egraph::Snapshot`]s): the final graph for extraction-only
//!   resumes plus a saturation-phase section (with the per-rule
//!   lifetime [`sz_egraph::RuleStat`] counts) that makes
//!   lower-fuel snapshots *continuable* — proven byte-identical to
//!   cold runs by `tests/partial_resume_differential.rs`.
//!
//!   **Extraction is pluggable**: cost schemes implement the
//!   object-safe [`szalinski::CostModel`] trait (a per-node cost over
//!   `CadLang` folded through lexicographic [`szalinski::CostVec`]s,
//!   plus a stable `fingerprint()` that keys caches), set per config
//!   via `SynthConfig::with_cost_model`:
//!
//!   ```text
//!   CostModel ── built-ins:   AstSizeCost (default) · RewardLoopsCost (wardrobe@)
//!       │                     WeightedCost (per-OpClass table) · DepthCost ·
//!       │                     GeomCount (pareto-secondary)
//!       ├────── combinators:  DepthPenalty · Lexicographic · WeightedSum
//!       └────── extractors:   KBestExtractor      → Synthesis::top_k (ranked; lazy
//!                                                   enumeration over the 1-best table)
//!                             ParetoExtractor     → Synthesis::pareto (two-objective
//!                                                   deterministic front)
//!   fingerprint() lives in the EXTRACTION-ONLY half of the config
//!   fingerprint, so any cost-model swap reuses stored snapshots with
//!   zero saturation iterations (tests/cost_models.rs).
//!   ```
//!
//!   The `szb --cost <SPEC>` mini-grammar (`ast-size`,
//!   `weights(loop=1,geom=10)`, `pareto(size,depth)`, …) parses into
//!   these models via [`szalinski::parse_cost_spec`].
//! * **`sz-lint`** is the static-analysis layer over the same
//!   artifacts the engine executes: [`sz_lint::lint_ruleset`] checks
//!   any `&[Rewrite]` for binding soundness, duplicates/inverses, and
//!   expansivity; [`sz_lint::verify_program`] abstractly interprets a
//!   compiled Bind/Compare/Lookup program against its source pattern's
//!   shape (the static complement of the VM-vs-naive differential
//!   suite); [`sz_lint::lint_cad`] flags degenerate CAD inputs
//!   (non-finite literals, zero scales, ill-sorted terms) before they
//!   enter a corpus run. Every finding carries a stable `SZLxxx` code
//!   and one of three severities; only **deny** findings gate.
//!   `szalinski::Synthesizer` runs the rule analyzer once at
//!   rule-compile time (a denied set is a structured
//!   [`szalinski::SynthError::RuleLint`], not a mid-saturation panic),
//!   and `sz-batch` exposes the corpus surface as `szb lint`.
//! * **`sz-gen`** is the corpus factory above those: a deterministic,
//!   seeded generator composing `sz-models` primitives, affine
//!   transforms, and [`sz_models::add_noise_with`] noise into *flat*
//!   CSG programs under a controllable distribution spec
//!   ([`sz_gen::GenSpec`], compact string grammar in
//!   [`sz_gen::SPEC_GRAMMAR`]). Model `i` streams from a splittable RNG
//!   keyed on `(seed, i)` ([`sz_gen::model_seed`]) — never global state
//!   — so the same `(seed, spec)` is byte-identical on any machine and
//!   across any shard split reassembled by index. The `szgen` CLI
//!   writes corpora and JSONL manifests and re-verifies them
//!   (`szgen verify`, drift detection); `szb --gen <spec>` streams a
//!   generated corpus straight into the batch engine with no files on
//!   disk (jobs named `gen:<seed>:<index>`, so `--shard` and
//!   `szb merge` work unchanged); and the `corpus` soak bin in
//!   `sz-bench` runs 10⁴–10⁵-model soaks (`BENCH_corpus.json`) whose
//!   counts CI pins. Performance changes are measured by the separate
//!   `perfbench` harness over the workloads `BENCHMARK.json` declares.
//! * **`sz-batch`** is the corpus engine added on top: a work-stealing
//!   thread pool with per-job panic isolation and one run path
//!   (`BatchEngine::run`; one worker is the in-order run), a
//!   **two-tier** content-addressed cache (programs keyed on the full
//!   config fingerprint, persisted as a `--cache` file; size-bounded
//!   e-graph snapshots keyed on the saturation fingerprint, stored only
//!   as `.snap` files in a `--snapshots <dir>`, which enables
//!   incremental re-runs), a JSON-lines report sink
//!   (`BENCH_batch.json`, with per-job `stop_reason`), and the `szb`
//!   binary that decompiles a directory of `.scad`/`.csexp` models
//!   end-to-end. Every job is a `Synthesizer` run, so the
//!   engine inherits the session API's bounds: `--per-job-timeout`
//!   cancels one job, `--deadline` bounds the whole batch, and a shared
//!   `CancelToken` aborts everything in flight — all cooperatively,
//!   all still emitting partial programs.
//! * **`sz-bench`** regenerates the paper's Table 1 and figures, now
//!   through the batch engine (`run_table1_with`), plus Criterion-style
//!   micro-benches. Saturation runs record per-rule
//!   [`sz_egraph::RuleStat`] search/apply profiles, surfaced in `szb`'s
//!   JSONL job records (`search_time_s`, `apply_time_s`, `rules[]`) and
//!   aggregated corpus-wide by the `ematch` binary into
//!   `BENCH_ematch.json` (whose `--baseline` mode is CI's
//!   zero-matches regression gate).
//! * **`sz-trace`** is the observability base layer (zero external
//!   dependencies), threaded through every crate above via one
//!   [`sz_trace::Telemetry`] bundle — a clone-shared pair of a span
//!   [`sz_trace::Tracer`] and a [`sz_trace::Metrics`] registry, both
//!   **disabled by default** as a `None` behind an `Option<Arc<…>>` so
//!   the untraced hot path pays a null check and nothing else (the
//!   `trace_overhead` bin gates recording at ≤ 5 % over suite16):
//!
//!   ```text
//!   Telemetry ─┬─ Tracer   spans:   batch/job · pipeline/{saturation,
//!              │                    inference, extraction, snapshot.*} ·
//!              │                    runner/{iteration,search,apply,rebuild} ·
//!              │                    rule/<name>
//!              └─ Metrics  counters cache.{program_hit,snapshot_hit,miss},
//!                          run.mode.*, runner.iterations; gauges
//!                          egraph.{nodes,classes,memo}, pool.queue_depth;
//!                          histogram job.latency_us (log₂ buckets, p50/p90/p99)
//!   exporters: chrome_trace_json() (Perfetto-loadable) ·
//!              phase_summary() / render_text() (deterministic, for tests) ·
//!              metrics_json()
//!   ```
//!
//!   Attach with `RunOptions::with_telemetry` /
//!   `BatchEngine::with_telemetry` / `Runner::with_telemetry`; the CLI
//!   surface is `szb --trace FILE --metrics FILE --stats`, and the
//!   recorded bundle rides on [`szalinski::Synthesis`]`::telemetry`.
//!   Clocks are injectable ([`sz_trace::Clock`]) — a fixed-step clock
//!   makes two identical runs emit byte-identical summaries
//!   (`tests/telemetry_determinism.rs`); recording never changes
//!   synthesis output (byte-identical OpenSCAD, checked in CI).
//!
//! Offline stand-ins for `rand`/`proptest`/`criterion` live in
//! `third_party/` (the build environment has no crates.io access); see
//! `third_party/README.md`.

pub use sz_batch;
pub use sz_cad;
pub use sz_egraph;
pub use sz_gen;
pub use sz_lint;
pub use sz_mesh;
pub use sz_models;
pub use sz_scad;
pub use sz_solver;
pub use sz_trace;
pub use szalinski;
