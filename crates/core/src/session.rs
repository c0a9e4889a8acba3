//! The session-based synthesis API: a [`Synthesizer`] is built once from
//! a [`SynthConfig`], compiles and caches the rewrite rule set, and then
//! serves any number of runs through one entry point —
//! [`Synthesizer::run`] — which automatically dispatches between:
//!
//! * a **cold** run (no usable snapshot): the full pipeline, saturation
//!   through extraction;
//! * an **extraction-only resume** (snapshot with a matching
//!   [`SynthConfig::saturation_fingerprint`]): the final e-graph is
//!   restored and only extraction re-runs — zero saturation iterations;
//! * a **partial-saturation resume** (snapshot whose fingerprint matches
//!   *modulo lower fuel limits*, see
//!   [`SynthSnapshot::supports_partial_resume`]): the saturation-phase
//!   runner state is restored via [`Runner::resume_from`] and saturation
//!   *continues* where the producing run stopped, then the inference
//!   passes and extraction re-run — strictly fewer iterations than a
//!   cold run at the higher fuel, byte-identical output.
//!
//! **The config decides the result; the run options only run it.** A
//! non-cancelled run's output is a function of the input and the
//! session's [`SynthConfig`] alone. [`RunOptions`] decides only how a run
//! executes: which snapshot is offered, whether one is captured, a
//! wall-clock deadline, a cooperative [`CancelToken`], a
//! [`ProgressObserver`] iteration hook, and telemetry. None of them can
//! change the fuel or the extraction, so a caller that wants other fuel
//! builds a second `Synthesizer` (one `Arc` clone of the compiled rule
//! set). Deadlines and cancellation stop saturation **at iteration
//! boundaries** with [`StopReason::Cancelled`]; the partial result is
//! still extracted, so a cancelled run returns a well-formed
//! [`Synthesis`] rather than an error (serving callers can always
//! respond with *something*), and it is the only result that depends on
//! the wall clock.
//!
//! The compiled rule sets are cached process-wide: every session with
//! the same `structural_rules` flag shares one `Arc` of compiled
//! rewrites, so building a `Synthesizer` per job (as `sz-batch` does) is
//! cheap and pattern compilation happens once per process — measured by
//! `sz_egraph::compile_count()` in the `ematch` bench.

use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sz_cad::Cad;
use sz_egraph::{
    CancelToken, ProgressObserver, RuleStat, Runner, Scheduler, Snapshot, SnapshotError, StopReason,
};
use sz_lint::Report;
use sz_trace::Telemetry;

use crate::analysis::{CadAnalysis, CadGraph};
use crate::funcinfer::{infer_functions_with, PassControl};
use crate::lang::cad_to_lang;
use crate::listmanip::list_manipulation;
use crate::loopinfer::infer_loops_with;
use crate::pipeline::{
    extract_pareto, extract_top_k, SatPhase, SynthConfig, SynthError, SynthSnapshot, Synthesis,
};
use crate::rules::{all_rules, rules as base_rules, CadRewrite};

/// How a [`Synthesizer::run`] actually executed (recorded in
/// [`Synthesis::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Full pipeline from scratch (no snapshot, or an incompatible one).
    #[default]
    Cold,
    /// The final e-graph was restored from a snapshot and only
    /// extraction ran (zero saturation iterations).
    ResumedExtraction,
    /// Saturation *continued* from a lower-fuel snapshot's
    /// saturation-phase state, then inference and extraction re-ran.
    ResumedSaturation,
}

impl RunMode {
    /// True for either resume flavor.
    pub fn is_resumed(&self) -> bool {
        !matches!(self, RunMode::Cold)
    }
}

/// How one [`Synthesizer::run`] executes: an optional snapshot to
/// resume from, whether to capture a [`SynthSnapshot`] of the result
/// (returned in [`Synthesis::snapshot`]), a wall-clock deadline, a
/// [`CancelToken`], a [`ProgressObserver`], and a [`Telemetry`] bundle.
///
/// None of these decides the result: a run that is not cancelled
/// returns the same programs whatever its options (see the
/// [module docs](self)). Fuel and extraction live in the session's
/// [`SynthConfig`].
#[derive(Clone, Default)]
pub struct RunOptions {
    snapshot: Option<SynthSnapshot>,
    capture: bool,
    deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    progress: Option<Arc<dyn ProgressObserver>>,
    telemetry: Telemetry,
}

impl RunOptions {
    /// Default options: cold run, no snapshot capture, no deadline, no
    /// cancellation, no progress hook, telemetry off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a snapshot to resume from. The run dispatches
    /// automatically: exact saturation-fingerprint match → extraction-only
    /// resume; match modulo lower fuel limits → partial-saturation
    /// resume; otherwise the snapshot is ignored and the run is cold
    /// (check [`Synthesis::mode`] to see which happened).
    pub fn with_snapshot(mut self, snapshot: SynthSnapshot) -> Self {
        self.snapshot = Some(snapshot);
        self
    }

    /// Sets a wall-clock deadline for the whole run, measured from the
    /// moment [`Synthesizer::run`] is called. When it passes, the run
    /// stops at the next saturation iteration boundary (or between
    /// inference list sites) with [`StopReason::Cancelled`] and the
    /// partial result is extracted. A run the deadline does not stop
    /// returns what it would have returned without it.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative cancellation token, polled at saturation
    /// iteration boundaries.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a progress observer notified after every saturation
    /// iteration.
    pub fn with_progress(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Whether to capture a [`SynthSnapshot`] of this run (final e-graph
    /// plus the saturation-phase state that enables partial resume).
    /// Cancelled runs never capture: their graphs are
    /// wall-clock-truncated, not the deterministic product of the
    /// config, and must not poison snapshot caches.
    pub fn capture_snapshot(mut self, capture: bool) -> Self {
        self.capture = capture;
        self
    }

    /// Attaches a [`Telemetry`] bundle (spans + metrics) to this run.
    ///
    /// The pipeline records phase spans (`pipeline/saturation`,
    /// `pipeline/inference`, `pipeline/extraction`,
    /// `pipeline/snapshot.restore`, `pipeline/snapshot.capture`), the
    /// saturation runner records per-iteration and per-rule spans (see
    /// [`sz_egraph::Runner::with_telemetry`]), and run-mode counters
    /// (`run.mode.cold` / `run.mode.resumed_extraction` /
    /// `run.mode.resumed_saturation`) land in the metrics registry. The
    /// same bundle is handed back in [`Synthesis::telemetry`]. A
    /// disabled bundle (the default) records nothing and costs nothing.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("snapshot", &self.snapshot.as_ref().map(|_| "..."))
            .field("capture", &self.capture)
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel)
            .field("progress", &self.progress.as_ref().map(|_| "..."))
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

/// Process-wide cache of compiled rule sets, keyed by the
/// `structural_rules` flag: every [`Synthesizer`] shares these, so
/// pattern compilation happens once per process regardless of how many
/// sessions (or batch jobs) are created.
///
/// The static lint analysis ([`sz_lint::lint_ruleset`]) runs once per
/// cached set, at the same time the patterns compile, and its [`Report`]
/// is cached alongside — so per-session construction pays neither
/// compilation nor analysis.
fn compiled_ruleset(structural: bool) -> (Arc<[CadRewrite]>, Arc<Report>) {
    type CachedRuleset = (Arc<[CadRewrite]>, Arc<Report>);
    static BASE: OnceLock<CachedRuleset> = OnceLock::new();
    static STRUCTURAL: OnceLock<CachedRuleset> = OnceLock::new();
    let cell = if structural { &STRUCTURAL } else { &BASE };
    cell.get_or_init(|| {
        let rules: Arc<[CadRewrite]> = if structural {
            all_rules().into()
        } else {
            base_rules().into()
        };
        let report = Arc::new(sz_lint::lint_ruleset(&rules));
        (rules, report)
    })
    .clone()
}

/// A reusable synthesis session: the paper's pipeline behind one
/// entry point ([`Synthesizer::run`]) that covers cold runs, both resume
/// flavors, deadlines, cancellation, and progress observation.
///
/// Construction compiles (or fetches from the process-wide cache) the
/// rewrite rule set for the config's `structural_rules` flag; `run`
/// borrows `&self`, and the type is `Send + Sync`, so one session can
/// serve concurrent runs from many worker threads.
///
/// # Examples
///
/// ```
/// use szalinski::{RunOptions, SynthConfig, Synthesizer};
/// use sz_cad::Cad;
///
/// let flat = Cad::union_chain(
///     (1..=5).map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit)).collect(),
/// );
/// let session = Synthesizer::new(SynthConfig::new());
/// let result = session.run(&flat, RunOptions::new()).unwrap();
/// let (rank, prog) = result.structured().expect("finds the loop");
/// assert_eq!(rank, 1);
/// assert!(prog.cad.to_string().contains("(Repeat Unit 5)"));
/// ```
#[derive(Debug, Clone)]
pub struct Synthesizer {
    config: SynthConfig,
    ruleset: Arc<[CadRewrite]>,
    lint: Arc<Report>,
}

impl Synthesizer {
    /// Builds a session for `config`, compiling/reusing its rule set.
    ///
    /// The rule set is statically analyzed once per process (see
    /// [`Synthesizer::try_new`]); the built-in sets are lint-clean, so
    /// this cannot fail.
    pub fn new(config: SynthConfig) -> Self {
        Self::try_new(config).expect("built-in rule sets are lint-clean")
    }

    /// Builds a session for `config`, compiling/reusing its rule set and
    /// running the static rule analyzer ([`sz_lint::lint_ruleset`]) over
    /// it — once per process, cached alongside the compiled patterns.
    ///
    /// # Errors
    ///
    /// [`SynthError::RuleLint`] when the analysis carries any deny-level
    /// finding (e.g. `SZL001`, an RHS variable the LHS never binds):
    /// such a rule set would panic mid-saturation, so construction
    /// refuses it up front with the full report attached. Warn/info
    /// findings never fail construction; inspect them via
    /// [`Synthesizer::lint_report`].
    pub fn try_new(config: SynthConfig) -> Result<Self, SynthError> {
        let (ruleset, lint) = compiled_ruleset(config.structural_rules);
        if !lint.is_clean() {
            return Err(SynthError::RuleLint(lint));
        }
        Ok(Synthesizer {
            config,
            ruleset,
            lint,
        })
    }

    /// The session's configuration: with the input, all that decides a
    /// non-cancelled run's result.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Number of rewrite rules in the compiled rule set.
    pub fn rule_count(&self) -> usize {
        self.ruleset.len()
    }

    /// The static-analysis report for this session's rule set (shared,
    /// process-wide, computed once at rule-compile time). Guaranteed free
    /// of deny-level findings — construction fails otherwise — but the
    /// warn/info findings (duplicate rules, inverse pairs, expansive
    /// rules) are kept for audit; `szb lint --rules` prints them.
    pub fn lint_report(&self) -> &Arc<Report> {
        &self.lint
    }

    /// Runs the pipeline on a flat CSG. One entry point for every mode;
    /// see the [module docs](self) for the dispatch rules and
    /// cancellation semantics.
    ///
    /// Determinism (shared by every resume guarantee in this workspace):
    /// a run that is not cancelled returns the same result for the same
    /// input and session config, whatever its [`RunOptions`] and however
    /// it executed — cold, or resumed from either snapshot flavor. Only a
    /// deadline or cancel token can make a result wall-clock-dependent,
    /// and such a run reports [`StopReason::Cancelled`] and never
    /// captures a snapshot.
    ///
    /// # Errors
    ///
    /// [`SynthError::NotFlat`] if the input violates the paper's flat-CSG
    /// contract; [`SynthError::NoPrograms`] if extraction found nothing
    /// (cannot happen for well-formed inputs). Cancellation is **not** an
    /// error: the result carries [`StopReason::Cancelled`] and whatever
    /// programs the partial graph yields.
    pub fn run(&self, input: &Cad, mut opts: RunOptions) -> Result<Synthesis, SynthError> {
        if !input.is_flat_csg() {
            return Err(SynthError::NotFlat);
        }
        let start = Instant::now();
        let config = &self.config;
        let deadline = opts.deadline.map(|d| start + d);

        // A cancel/deadline that is *already* triggered stops the run
        // before any restore or extraction work — crucial for batch
        // shutdown over warm snapshot tiers, where every queued job
        // would otherwise pay a full restore + extraction with nobody
        // waiting for the answer. The cold path cancels at iteration 0,
        // leaving just the input to extract.
        let already_stopped = opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || deadline.is_some_and(|d| Instant::now() >= d);

        // Dispatch: exact fingerprint match → extraction-only resume;
        // match modulo lower fuel → continue saturating; otherwise cold.
        enum Plan {
            Extraction,
            Partial,
            Cold,
        }
        let plan = match &opts.snapshot {
            _ if already_stopped => Plan::Cold,
            Some(snapshot) if prints_as(input, snapshot.input_sexp()) => {
                if snapshot.saturation_fingerprint() == config.saturation_fingerprint()
                    && snapshot.egraph_snapshot().roots().len() == 1
                {
                    Plan::Extraction
                } else if snapshot.supports_partial_resume(config)
                    && snapshot
                        .sat_phase()
                        .is_some_and(|p| p.snapshot().roots().len() == 1)
                {
                    Plan::Partial
                } else {
                    Plan::Cold
                }
            }
            _ => Plan::Cold,
        };
        // An offered snapshot must never make a run worse than cold: a
        // bit-rotted snapshot can parse, match the fingerprints, and
        // still restore a graph that extracts nothing — degrade to a
        // cold run instead of returning an empty result.
        let result = match plan {
            Plan::Extraction => {
                let snapshot = opts.snapshot.take().expect("dispatch saw a snapshot");
                let result = self.run_extraction_resume(input, &opts, snapshot, start);
                if result.top_k.is_empty() {
                    self.run_cold(input, &opts, deadline, start)
                } else {
                    result
                }
            }
            Plan::Partial => {
                let snapshot = opts.snapshot.take().expect("dispatch saw a snapshot");
                let result = self.run_partial_resume(input, &opts, &snapshot, deadline, start);
                if result.top_k.is_empty() {
                    self.run_cold(input, &opts, deadline, start)
                } else {
                    result
                }
            }
            Plan::Cold => self.run_cold(input, &opts, deadline, start),
        };
        // Count the mode the run *actually* executed in (a resume plan
        // that degraded to cold counts once, as cold).
        if opts.telemetry.metrics.is_enabled() {
            opts.telemetry.metrics.counter_add(
                match result.mode {
                    RunMode::Cold => "run.mode.cold",
                    RunMode::ResumedExtraction => "run.mode.resumed_extraction",
                    RunMode::ResumedSaturation => "run.mode.resumed_saturation",
                },
                1,
            );
        }
        if result.top_k.is_empty() {
            return Err(SynthError::NoPrograms);
        }
        Ok(result)
    }

    /// Extraction-only resume: restore the final graph, re-run extraction.
    fn run_extraction_resume(
        &self,
        input: &Cad,
        opts: &RunOptions,
        snapshot: SynthSnapshot,
        start: Instant,
    ) -> Synthesis {
        let config = &self.config;
        let &[root] = snapshot.egraph_snapshot().roots() else {
            unreachable!("dispatch checked for exactly one root");
        };
        let egraph = {
            let _span = opts.telemetry.span("pipeline", "snapshot.restore");
            snapshot.egraph_snapshot().restore(CadAnalysis)
        };
        let extract_span = opts.telemetry.span("pipeline", "extraction");
        let top_k = extract_top_k(&egraph, root, config, &opts.telemetry);
        let pareto = extract_pareto(&egraph, root, config);
        drop(extract_span);
        Synthesis {
            input: input.clone(),
            top_k,
            records: Vec::new(),
            time: start.elapsed(),
            egraph_nodes: egraph.total_number_of_nodes(),
            egraph_classes: egraph.number_of_classes(),
            stop_reason: None,
            iterations: 0,
            rule_stats: Vec::new(),
            mode: RunMode::ResumedExtraction,
            // The offered snapshot *is* this run's state: hand it back
            // (moved, not cloned, not re-serialized) when capture is on.
            snapshot: opts.capture.then_some(snapshot),
            pareto,
            telemetry: opts.telemetry.clone(),
        }
    }

    /// Partial-saturation resume: restore the saturation-phase runner and
    /// continue with the remaining iteration budget, then re-run the
    /// inference passes and extraction.
    fn run_partial_resume(
        &self,
        input: &Cad,
        opts: &RunOptions,
        snapshot: &SynthSnapshot,
        deadline: Option<Instant>,
        start: Instant,
    ) -> Synthesis {
        let phase = snapshot.sat_phase().expect("dispatch checked");
        let remaining = self.config.iter_limit.saturating_sub(phase.iterations());
        let restore_span = opts.telemetry.span("pipeline", "snapshot.restore");
        let runner = Runner::resume_from(phase.snapshot(), CadAnalysis)
            .with_iter_limit(remaining)
            .with_node_limit(self.config.node_limit);
        drop(restore_span);
        let sat_span = opts.telemetry.span("pipeline", "saturation");
        let runner = configure_runner(runner, opts, deadline).run(&self.ruleset);
        drop(sat_span);
        let root = runner.roots[0];
        self.finish_from_runner(
            input,
            opts,
            runner,
            // The producing legs' persisted lifetime counts: this leg's
            // totals are merged on top (see `finish_from_runner`).
            phase.rule_stats().to_vec(),
            root,
            RunMode::ResumedSaturation,
            deadline,
            start,
        )
    }

    /// Cold run: build the graph, saturate once, then share
    /// [`Synthesizer::finish_from_runner`] with the partial-resume path,
    /// so the two trajectories cannot drift apart.
    fn run_cold(
        &self,
        input: &Cad,
        opts: &RunOptions,
        deadline: Option<Instant>,
        start: Instant,
    ) -> Synthesis {
        let config = &self.config;
        let scheduler = if config.backoff {
            Scheduler::backoff()
        } else {
            Scheduler::Simple
        };
        let expr = cad_to_lang(input);
        let mut egraph = CadGraph::new(CadAnalysis);
        let root = egraph.add_expr(&expr);
        egraph.rebuild();
        let runner = Runner::new(CadAnalysis)
            .with_egraph(egraph)
            .with_iter_limit(config.iter_limit)
            .with_node_limit(config.node_limit)
            .with_scheduler(scheduler);
        let sat_span = opts.telemetry.span("pipeline", "saturation");
        let runner = configure_runner(runner, opts, deadline).run(&self.ruleset);
        drop(sat_span);
        self.finish_from_runner(
            input,
            opts,
            runner,
            Vec::new(),
            root,
            RunMode::Cold,
            deadline,
            start,
        )
    }

    /// Shared tail of the cold and partial-resume paths:
    /// run the inference passes (unless cancelled), capture, extract,
    /// assemble the [`Synthesis`]. Sharing this tail is what keeps the
    /// two trajectories provably identical (the partial-resume
    /// differential suite depends on it).
    ///
    /// `prior_stats` are the producing legs' lifetime per-rule counts
    /// (from the resumed snapshot's saturation phase; empty for cold
    /// runs): this leg's totals are merged on top so
    /// [`Synthesis::rule_stats`] always reports lifetime counts.
    #[allow(clippy::too_many_arguments)]
    fn finish_from_runner(
        &self,
        input: &Cad,
        opts: &RunOptions,
        mut runner: Runner<crate::CadLang, CadAnalysis>,
        prior_stats: Vec<RuleStat>,
        root: sz_egraph::Id,
        mode: RunMode,
        deadline: Option<Instant>,
        start: Instant,
    ) -> Synthesis {
        let config = &self.config;
        let iterations = runner.iterations.len();
        let lifetime_iterations = runner.prior_iterations + iterations;
        let mut stop_reason = runner.stop_reason.clone();
        let mut rule_stats = prior_stats;
        RuleStat::fold_by_name(&mut rule_stats, runner.rule_totals());
        let mut cancelled = stop_reason == Some(StopReason::Cancelled);
        let mut sat_phase: Option<Snapshot<crate::CadLang>> = None;
        if opts.capture && !cancelled {
            let _span = opts.telemetry.span("pipeline", "snapshot.capture");
            runner.roots = vec![root];
            sat_phase = capture_snapshot(runner.snapshot());
        }
        let mut egraph = runner.egraph;
        let records = if cancelled {
            Vec::new()
        } else {
            let ctl = pass_control(opts, deadline);
            let infer_span = opts.telemetry.span("pipeline", "inference");
            let (records, truncated) =
                run_inference_passes(&mut egraph, config.eps, &ctl, &opts.telemetry);
            drop(infer_span);
            // A *truncated* inference stage left a partially-inferred
            // (wall-clock-dependent) graph: report it as a cancellation
            // and never capture the state. A deadline that expired only
            // after every pass completed changes nothing — the graph is
            // still the deterministic product of the config.
            if truncated {
                stop_reason = Some(StopReason::Cancelled);
                cancelled = true;
                sat_phase = None;
                if let Some(progress) = &opts.progress {
                    progress.on_stop(&StopReason::Cancelled);
                }
            }
            records
        };

        let snapshot = if opts.capture && !cancelled {
            let _span = opts.telemetry.span("pipeline", "snapshot.capture");
            capture_snapshot(Snapshot::of_egraph(&egraph, &[root]))
                .map(|s| s.with_iterations(lifetime_iterations))
                .map(|s| {
                    let synth = SynthSnapshot::new(input, config, s);
                    match sat_phase.take() {
                        // Persist the lifetime counts alongside the phase
                        // state so the *next* resumed leg can keep
                        // accumulating.
                        Some(phase) => synth.with_sat_phase(
                            SatPhase::new(config, phase).with_rule_stats(rule_stats.clone()),
                        ),
                        None => synth,
                    }
                })
        } else {
            None
        };

        let extract_span = opts.telemetry.span("pipeline", "extraction");
        let top_k = extract_top_k(&egraph, root, config, &opts.telemetry);
        let pareto = extract_pareto(&egraph, root, config);
        drop(extract_span);
        Synthesis {
            input: input.clone(),
            top_k,
            records,
            time: start.elapsed(),
            egraph_nodes: egraph.total_number_of_nodes(),
            egraph_classes: egraph.number_of_classes(),
            stop_reason,
            iterations,
            rule_stats,
            mode,
            snapshot,
            pareto,
            telemetry: opts.telemetry.clone(),
        }
    }
}

/// Builds the inference passes' [`PassControl`] from a run's
/// cancellation options.
fn pass_control(opts: &RunOptions, deadline: Option<Instant>) -> PassControl {
    let mut ctl = PassControl::new();
    if let Some(token) = &opts.cancel {
        ctl = ctl.with_cancel_token(token.clone());
    }
    if let Some(deadline) = deadline {
        ctl = ctl.with_deadline(deadline);
    }
    ctl
}

/// The non-saturation pipeline passes (determ + list_manip sorted-list
/// variants, then solver-driven function and loop inference), returning
/// what the solvers did plus whether the stage was **truncated** —
/// stopped with inference work left undone. `ctl` is polled between
/// list sites and between passes, so a deadline
/// interrupts inference mid-pass instead of waiting for the next
/// saturation boundary; a stage whose passes all ran to completion
/// reports `false` even if the stop condition became true afterwards.
/// Records one `infer/list_manip`, `infer/functions` and `infer/loops`
/// span per pass on `telemetry`, and one `infer/rebuild` span around the
/// rebuild after each pass.
fn run_inference_passes(
    egraph: &mut CadGraph,
    eps: f64,
    ctl: &PassControl,
    telemetry: &Telemetry,
) -> (Vec<crate::InferenceRecord>, bool) {
    let rebuild = |egraph: &mut CadGraph| {
        let _span = telemetry.span("infer", "rebuild");
        egraph.rebuild();
    };
    let mut records = Vec::new();
    let span = telemetry.span("infer", "list_manip");
    list_manipulation(egraph);
    drop(span);
    rebuild(egraph);
    // The passes themselves report truncation (they know whether any
    // site was actually skipped — a stop with no sites left is still a
    // deterministic product, not a truncation).
    let span = telemetry.span("infer", "functions");
    let (recs, truncated) = infer_functions_with(egraph, eps, ctl);
    drop(span);
    records.extend(recs);
    rebuild(egraph);
    if truncated {
        return (records, true);
    }
    let span = telemetry.span("infer", "loops");
    let (recs, truncated) = infer_loops_with(egraph, eps, ctl);
    drop(span);
    records.extend(recs);
    rebuild(egraph);
    (records, truncated)
}

/// Applies a run's cancellation/deadline/progress options to a runner.
fn configure_runner(
    mut runner: Runner<crate::CadLang, CadAnalysis>,
    opts: &RunOptions,
    deadline: Option<Instant>,
) -> Runner<crate::CadLang, CadAnalysis> {
    if let Some(token) = &opts.cancel {
        runner = runner.with_cancel_token(token.clone());
    }
    if let Some(deadline) = deadline {
        runner = runner.with_deadline(deadline);
    }
    if let Some(progress) = &opts.progress {
        runner = runner.with_progress(Arc::clone(progress));
    }
    if opts.telemetry.is_enabled() {
        runner = runner.with_telemetry(opts.telemetry.clone());
    }
    runner
}

/// Whether `value` prints exactly `text`. The printed pieces are compared
/// as they are written, so no string is built and a mismatch stops the
/// print early.
fn prints_as(value: &impl fmt::Display, text: &str) -> bool {
    struct Expect<'a>(&'a str);
    impl fmt::Write for Expect<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
            Ok(())
        }
    }
    let mut rest = Expect(text);
    fmt::write(&mut rest, format_args!("{value}")).is_ok() && rest.0.is_empty()
}

/// Unwraps a snapshot capture. Saturation and inference always rebuild
/// before returning, so `NotClean` cannot happen; debug builds assert,
/// release builds degrade to "no snapshot captured".
fn capture_snapshot(
    result: Result<Snapshot<crate::CadLang>, SnapshotError>,
) -> Option<Snapshot<crate::CadLang>> {
    debug_assert!(result.is_ok(), "pipeline snapshots a clean graph");
    result.ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RewardLoopsCost;

    fn row_of_cubes(n: usize, spacing: f64) -> Cad {
        Cad::union_chain(
            (1..=n)
                .map(|i| Cad::translate(spacing * i as f64, 0.0, 0.0, Cad::Unit))
                .collect(),
        )
    }

    fn quick() -> SynthConfig {
        SynthConfig::new()
            .with_iter_limit(20)
            .with_node_limit(20_000)
    }

    #[test]
    fn session_is_send_sync_and_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Synthesizer>();
        assert_send_sync::<RunOptions>();

        // One session, many threads: results must match a lone run.
        let session = Arc::new(Synthesizer::new(quick()));
        let lone = session
            .run(&row_of_cubes(4, 2.0), RunOptions::new())
            .unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let session = Arc::clone(&session);
                std::thread::spawn(move || {
                    session
                        .run(&row_of_cubes(4, 2.0), RunOptions::new())
                        .unwrap()
                })
            })
            .collect();
        for handle in handles {
            let result = handle.join().unwrap();
            assert_eq!(result.best().cad.to_string(), lone.best().cad.to_string());
        }
    }

    #[test]
    fn sessions_share_one_compiled_ruleset() {
        let a = Synthesizer::new(quick());
        let b = Synthesizer::new(quick().with_k(9));
        assert!(Arc::ptr_eq(&a.ruleset, &b.ruleset));
        let structural = Synthesizer::new(quick().with_structural_rules(true));
        assert!(!Arc::ptr_eq(&a.ruleset, &structural.ruleset));
        assert!(structural.rule_count() > a.rule_count());
    }

    #[test]
    fn builtin_rulesets_are_lint_clean() {
        // Both cached rule sets must construct through the checked path
        // (deny findings would make `try_new` fail) and share one report
        // per ruleset, computed once.
        let base = Synthesizer::try_new(quick()).expect("base rules are lint-clean");
        assert!(base.lint_report().is_clean());
        let again = Synthesizer::new(quick());
        assert!(Arc::ptr_eq(base.lint_report(), again.lint_report()));

        let structural = Synthesizer::try_new(quick().with_structural_rules(true))
            .expect("structural rules are lint-clean");
        assert!(structural.lint_report().is_clean());
        // The structural set carries the comm/assoc rules, which the
        // analyzer flags info-level as self-inverse/expansive — kept for
        // audit, never a construction failure.
        assert!(structural.lint_report().info_count() > 0);
    }

    #[test]
    fn rule_lint_error_displays_deny_findings() {
        use sz_lint::{Diagnostic, Report, Severity};
        let mut report = Report::new();
        report.push(Diagnostic::new(
            Severity::Deny,
            "SZL001",
            "rule:bad",
            "rhs variable ?c is not bound by the lhs; applying this rule panics",
        ));
        let err = SynthError::RuleLint(Arc::new(report));
        let text = err.to_string();
        assert!(text.contains("1 deny finding"), "{text}");
        assert!(text.contains("SZL001"), "{text}");
        assert!(text.contains("rule:bad"), "{text}");
    }

    #[test]
    fn run_rejects_non_flat_input() {
        let looped: Cad = "(Repeat Unit 3)".parse().unwrap();
        let session = Synthesizer::new(quick());
        assert_eq!(
            session.run(&looped, RunOptions::new()).unwrap_err(),
            SynthError::NotFlat
        );
    }

    #[test]
    fn capture_then_exact_resume_is_extraction_only() {
        let flat = row_of_cubes(5, 2.0);
        let session = Synthesizer::new(quick());
        let cold = session
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap();
        assert_eq!(cold.mode, RunMode::Cold);
        let snapshot = cold.snapshot.clone().expect("capture requested");
        assert!(
            snapshot.sat_phase().is_some(),
            "a capture carries the sat phase"
        );

        let resumed = session
            .run(&flat, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        assert_eq!(resumed.iterations, 0);
        let progs = |s: &Synthesis| -> Vec<(usize, String)> {
            s.top_k
                .iter()
                .map(|p| (p.cost, p.cad.to_string()))
                .collect()
        };
        assert_eq!(progs(&resumed), progs(&cold));
    }

    #[test]
    fn lower_fuel_snapshot_continues_saturating() {
        let flat = row_of_cubes(5, 2.0);
        let low = Synthesizer::new(quick().with_iter_limit(3));
        let snapshot = low
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap()
            .snapshot
            .unwrap();

        let high_config = quick().with_iter_limit(40);
        let high = Synthesizer::new(high_config);
        let cold = high.run(&flat, RunOptions::new()).unwrap();
        let resumed = high
            .run(&flat, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedSaturation);
        assert!(
            resumed.iterations < cold.iterations,
            "resumed leg ({}) must spend strictly fewer iterations than cold ({})",
            resumed.iterations,
            cold.iterations
        );
        let progs = |s: &Synthesis| -> Vec<(usize, String)> {
            s.top_k
                .iter()
                .map(|p| (p.cost, p.cad.to_string()))
                .collect()
        };
        assert_eq!(progs(&resumed), progs(&cold));
        assert_eq!(resumed.egraph_nodes, cold.egraph_nodes);
        assert_eq!(resumed.egraph_classes, cold.egraph_classes);
    }

    #[test]
    fn partial_resume_merges_rule_stats_across_legs() {
        // The producing leg's per-rule counts are persisted in the
        // snapshot (through a text round-trip, like an on-disk cache)
        // and the resumed leg reports *lifetime* totals — identical to
        // the counts a cold run at the higher fuel accumulates, since
        // the two trajectories are the same saturation, split in two.
        let flat = row_of_cubes(5, 2.0);
        let low = Synthesizer::new(quick().with_iter_limit(3));
        let low_run = low
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap();
        let snapshot: SynthSnapshot = low_run
            .snapshot
            .unwrap()
            .to_string()
            .parse()
            .expect("persisted snapshots parse back");
        assert!(
            !snapshot.sat_phase().unwrap().rule_stats().is_empty(),
            "the capture persists the producing leg's rule counts"
        );

        let high = Synthesizer::new(quick().with_iter_limit(40));
        let cold = high.run(&flat, RunOptions::new()).unwrap();
        let resumed = high
            .run(&flat, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedSaturation);

        // Wall times are leg-local and nondeterministic; the counts are
        // deterministic and must be lifetime totals.
        let counts =
            |stats: &[RuleStat]| -> std::collections::BTreeMap<String, (usize, usize, usize)> {
                stats
                    .iter()
                    .map(|s| (s.name.clone(), (s.matches, s.applied, s.times_banned)))
                    .collect()
            };
        assert_eq!(counts(&resumed.rule_stats), counts(&cold.rule_stats));
        // And strictly more than the resumed leg alone searched: the low
        // leg's work is included.
        let low_matches: usize = low_run.rule_stats.iter().map(|s| s.matches).sum();
        let resumed_matches: usize = resumed.rule_stats.iter().map(|s| s.matches).sum();
        assert!(resumed_matches >= low_matches);
    }

    #[test]
    fn telemetry_records_phases_and_mode_counters() {
        let flat = row_of_cubes(5, 2.0);
        let session = Synthesizer::new(quick());
        let telemetry = Telemetry::enabled();
        let traced = session
            .run(
                &flat,
                RunOptions::new()
                    .with_telemetry(telemetry.clone())
                    .capture_snapshot(true),
            )
            .unwrap();
        assert!(traced.telemetry.is_enabled());

        // Phase spans: saturation, inference, extraction, capture all ran.
        let events = telemetry.tracer.events();
        let count = |name: &str| {
            events
                .iter()
                .filter(|s| s.cat == "pipeline" && s.name == name)
                .count()
        };
        assert_eq!(count("saturation"), 1);
        assert_eq!(count("inference"), 1);
        assert_eq!(count("extraction"), 1);
        assert_eq!(count("snapshot.capture"), 2, "sat-phase + final graph");
        // Runner spans rode along on the same tracer.
        assert!(events
            .iter()
            .any(|s| s.cat == "runner" && s.name == "iteration"));
        assert_eq!(
            telemetry.metrics.counter("run.mode.cold"),
            1,
            "the run counted itself as cold"
        );
        assert_eq!(
            telemetry.metrics.counter("runner.iterations"),
            traced.iterations as u64
        );

        // An extraction resume tags restore + mode.
        let resumed = session
            .run(
                &flat,
                RunOptions::new()
                    .with_snapshot(traced.snapshot.clone().unwrap())
                    .with_telemetry(telemetry.clone()),
            )
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        assert_eq!(telemetry.metrics.counter("run.mode.resumed_extraction"), 1);
        assert!(telemetry
            .tracer
            .events()
            .iter()
            .any(|s| s.cat == "pipeline" && s.name == "snapshot.restore"));

        // The traced result is byte-identical to an untraced one.
        let untraced = session.run(&flat, RunOptions::new()).unwrap();
        assert_eq!(
            traced.best().cad.to_string(),
            untraced.best().cad.to_string()
        );
    }

    #[test]
    fn incompatible_snapshot_falls_back_to_cold() {
        let flat = row_of_cubes(4, 2.0);
        let low = Synthesizer::new(quick().with_iter_limit(3));
        let snapshot = low
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap()
            .snapshot
            .unwrap();

        // eps changes the core fingerprint: neither resume flavor fits.
        let other = Synthesizer::new(quick().with_eps(1e-2));
        let result = other
            .run(&flat, RunOptions::new().with_snapshot(snapshot.clone()))
            .unwrap();
        assert_eq!(result.mode, RunMode::Cold);
        assert!(result.iterations > 0);

        // Wrong input: also cold.
        let result = other
            .run(
                &row_of_cubes(3, 2.0),
                RunOptions::new().with_snapshot(snapshot),
            )
            .unwrap();
        assert_eq!(result.mode, RunMode::Cold);
    }

    #[test]
    fn pre_cancelled_token_returns_wellformed_result() {
        let token = CancelToken::new();
        token.cancel();
        let session = Synthesizer::new(quick());
        let result = session
            .run(
                &row_of_cubes(5, 2.0),
                RunOptions::new()
                    .with_cancel_token(token)
                    .capture_snapshot(true),
            )
            .unwrap();
        assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
        assert_eq!(result.iterations, 0);
        assert!(!result.top_k.is_empty(), "the input itself is extractable");
        assert!(result.snapshot.is_none(), "cancelled runs never capture");
    }

    #[test]
    fn pre_cancelled_run_skips_resume_work() {
        // A token triggered before the run starts must not pay for a
        // snapshot restore + extraction (batch shutdown over a warm
        // tier); the run degrades to a cancelled cold run immediately.
        let flat = row_of_cubes(4, 2.0);
        let session = Synthesizer::new(quick());
        let snapshot = session
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap()
            .snapshot
            .unwrap();
        let token = CancelToken::new();
        token.cancel();
        let result = session
            .run(
                &flat,
                RunOptions::new()
                    .with_snapshot(snapshot)
                    .with_cancel_token(token),
            )
            .unwrap();
        assert_eq!(result.mode, RunMode::Cold);
        assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
        assert_eq!(result.iterations, 0);
        assert!(!result.top_k.is_empty());
    }

    #[test]
    fn past_deadline_cancels_promptly() {
        // Structural rules make the graph explosive enough that a fast
        // release build cannot legitimately saturate inside the 1 ms
        // budget (a plain row saturates in under a millisecond on fast
        // machines, making `Saturated` the *correct* answer there).
        let session = Synthesizer::new(SynthConfig::new().with_structural_rules(true));
        let start = Instant::now();
        let result = session
            .run(
                &row_of_cubes(8, 2.0),
                RunOptions::new().with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
        assert!(!result.top_k.is_empty());
        // "Promptly": bounded by one iteration + extraction, not the
        // full 150-iteration default budget. Generous margin for CI.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "cancellation must not wait for the full run"
        );
    }

    #[test]
    fn progress_observer_is_called() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counter(AtomicUsize);
        impl ProgressObserver for Counter {
            fn on_iteration(&self, _i: usize, _stats: &sz_egraph::Iteration) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counter = Arc::new(Counter::default());
        let session = Synthesizer::new(quick());
        let result = session
            .run(
                &row_of_cubes(5, 2.0),
                RunOptions::new().with_progress(counter.clone()),
            )
            .unwrap();
        assert_eq!(counter.0.load(Ordering::Relaxed), result.iterations);
        assert!(result.iterations > 0);
    }

    #[test]
    fn unextractable_snapshot_degrades_to_cold() {
        // A snapshot can parse, match the input and fingerprint, and
        // still restore a graph that extracts no Cad program (here: a
        // bare number). The run must fall back cold, not fail — an
        // offered snapshot can slow a run down but never fail it.
        let flat = row_of_cubes(3, 2.0);
        let config = quick();
        let mut egraph = CadGraph::new(CadAnalysis);
        let root = egraph.add_expr(&"1".parse::<sz_egraph::RecExpr<crate::CadLang>>().unwrap());
        egraph.rebuild();
        let snap = Snapshot::of_egraph(&egraph, &[root]).unwrap();
        let bogus = SynthSnapshot::new(&flat, &config, snap);
        let session = Synthesizer::new(config);
        let result = session
            .run(&flat, RunOptions::new().with_snapshot(bogus))
            .unwrap();
        assert_eq!(result.mode, RunMode::Cold);
        assert!(result.iterations > 0);
        assert!(!result.top_k.is_empty());
    }

    #[test]
    fn snapshot_of_another_input_runs_cold() {
        // The row of three cubes' snapshot offered to the row of four: the
        // input check must refuse it even though the printed inputs share
        // a long prefix.
        let config = quick();
        let session = Synthesizer::new(config);
        let three = row_of_cubes(3, 2.0);
        let four = row_of_cubes(4, 2.0);
        let snapshot = session
            .run(&three, RunOptions::new().capture_snapshot(true))
            .unwrap()
            .snapshot
            .unwrap();
        let offered = session
            .run(&four, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        let cold = session.run(&four, RunOptions::new()).unwrap();
        assert_eq!(offered.mode, RunMode::Cold);
        assert_eq!(offered.best().cad, cold.best().cad);
    }

    #[test]
    fn prints_as_compares_the_whole_printed_text() {
        let cad = row_of_cubes(2, 2.0);
        let text = cad.to_string();
        assert!(prints_as(&cad, &text));
        assert!(!prints_as(&cad, &text[..text.len() - 1]));
        assert!(!prints_as(&cad, &format!("{text} ")));
        assert!(!prints_as(&cad, &text.replace('4', "5")));
        assert!(!prints_as(&cad, ""));
    }

    #[test]
    fn extraction_resume_hands_back_the_offered_snapshot_without_reserialization() {
        let flat = row_of_cubes(4, 2.0);
        let session = Synthesizer::new(quick());
        let snapshot = session
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap()
            .snapshot
            .unwrap();
        let text = snapshot.to_string();
        let resumed = session
            .run(
                &flat,
                RunOptions::new()
                    .with_snapshot(snapshot)
                    .capture_snapshot(true),
            )
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        assert_eq!(
            resumed.snapshot.unwrap().to_string(),
            text,
            "the offered snapshot is returned as this run's capture"
        );
    }

    #[test]
    fn partial_resume_progress_indices_continue_the_producing_run() {
        use std::sync::Mutex;
        #[derive(Default)]
        struct Lifetime {
            indices: Mutex<Vec<usize>>,
            stops: Mutex<Vec<StopReason>>,
        }
        impl ProgressObserver for Lifetime {
            fn on_iteration(&self, lifetime_iteration: usize, _stats: &sz_egraph::Iteration) {
                self.indices.lock().unwrap().push(lifetime_iteration);
            }
            fn on_stop(&self, reason: &StopReason) {
                self.stops.lock().unwrap().push(reason.clone());
            }
        }
        let flat = row_of_cubes(5, 2.0);
        let snapshot = Synthesizer::new(quick().with_iter_limit(3))
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap()
            .snapshot
            .unwrap();
        assert_eq!(snapshot.sat_phase().unwrap().iterations(), 3);

        let observer = Arc::new(Lifetime::default());
        let result = Synthesizer::new(quick().with_iter_limit(40))
            .run(
                &flat,
                RunOptions::new()
                    .with_snapshot(snapshot)
                    .with_progress(observer.clone()),
            )
            .unwrap();
        assert_eq!(result.mode, RunMode::ResumedSaturation);
        assert!(result.iterations > 0);
        assert_eq!(
            *observer.indices.lock().unwrap(),
            (3..3 + result.iterations).collect::<Vec<_>>(),
            "lifetime indices continue at 3 with no gap"
        );
        assert_eq!(
            *observer.stops.lock().unwrap(),
            vec![result.stop_reason.unwrap()],
            "exactly one stop, carrying the run's stop reason"
        );
    }

    #[test]
    fn extraction_fields_still_configurable_per_session() {
        let flat = row_of_cubes(2, 2.0);
        let reward = Synthesizer::new(quick().with_cost_model(Arc::new(RewardLoopsCost)));
        let result = reward.run(&flat, RunOptions::new()).unwrap();
        assert_eq!(result.structured().map(|(r, _)| r), Some(1));
    }

    #[test]
    fn pareto_config_yields_a_front() {
        use crate::cost::{AstSizeCost, DepthCost, GeomCount};
        let flat = row_of_cubes(5, 2.0);
        // No pareto requested: the field is None.
        let plain = Synthesizer::new(quick())
            .run(&flat, RunOptions::new())
            .unwrap();
        assert!(plain.pareto.is_none());

        let session =
            Synthesizer::new(quick().with_pareto(Arc::new(AstSizeCost), Arc::new(GeomCount)));
        let result = session.run(&flat, RunOptions::new()).unwrap();
        let front = result.pareto.expect("pareto requested");
        assert!(!front.is_empty());
        // Mutually non-dominating, ascending on the first objective.
        for w in front.windows(2) {
            assert!(w[0].costs[0] < w[1].costs[0]);
            assert!(w[0].costs[1] > w[1].costs[1]);
        }
        // The size-optimal point matches plain top-1 extraction.
        assert_eq!(
            front[0].cad.to_string(),
            plain.best().cad.to_string(),
            "first objective is the session's ranking cost"
        );

        // A different second objective.
        let configured =
            Synthesizer::new(quick().with_pareto(Arc::new(AstSizeCost), Arc::new(DepthCost)));
        let result = configured.run(&flat, RunOptions::new()).unwrap();
        assert!(result.pareto.is_some());
    }

    #[test]
    fn pareto_front_survives_extraction_resume() {
        use crate::cost::{AstSizeCost, GeomCount};
        let flat = row_of_cubes(4, 2.0);
        let session =
            Synthesizer::new(quick().with_pareto(Arc::new(AstSizeCost), Arc::new(GeomCount)));
        let cold = session
            .run(&flat, RunOptions::new().capture_snapshot(true))
            .unwrap();
        let snapshot = cold.snapshot.clone().unwrap();
        let resumed = session
            .run(&flat, RunOptions::new().with_snapshot(snapshot))
            .unwrap();
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        assert_eq!(resumed.iterations, 0);
        let points = |s: &Synthesis| -> Vec<([u64; 2], String)> {
            s.pareto
                .as_ref()
                .unwrap()
                .iter()
                .map(|p| (p.costs, p.cad.to_string()))
                .collect()
        };
        assert_eq!(points(&resumed), points(&cold));
    }

    #[test]
    fn cancellation_interrupts_inference_passes() {
        // The runner turns any cancel fired during saturation into a
        // saturation-boundary stop, so drive the inference stage
        // directly: saturate uncancelled, then run the shared
        // `run_inference_passes` tail under a triggered PassControl —
        // the solver passes must return early with no records.
        let flat = row_of_cubes(5, 2.0);
        let session = Synthesizer::new(quick());
        let saturate = || {
            let expr = crate::cad_to_lang(&flat);
            let mut egraph = CadGraph::new(CadAnalysis);
            egraph.add_expr(&expr);
            egraph.rebuild();
            Runner::new(CadAnalysis)
                .with_egraph(egraph)
                .with_iter_limit(20)
                .run(&session.ruleset)
                .egraph
        };

        let token = CancelToken::new();
        token.cancel();
        let ctl = PassControl::new().with_cancel_token(token);
        let mut egraph = saturate();
        let (records, truncated) =
            run_inference_passes(&mut egraph, 1e-3, &ctl, &Telemetry::disabled());
        assert!(records.is_empty(), "stopped before any solver site ran");
        assert!(truncated, "solver sites were skipped");

        let mut egraph = saturate();
        let (records, truncated) = run_inference_passes(
            &mut egraph,
            1e-3,
            &PassControl::new(),
            &Telemetry::disabled(),
        );
        assert!(!records.is_empty(), "idle control leaves inference intact");
        assert!(!truncated, "a completed stage is not a truncation");
    }
}
