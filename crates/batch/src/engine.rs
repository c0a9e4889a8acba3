//! The batch-synthesis engine: fans `(Cad, SynthConfig)` jobs across a
//! work-stealing pool, consults the content-addressed [`ResultCache`],
//! and collects per-job outcomes plus aggregate statistics.
//!
//! Each job runs through a [`szalinski::Synthesizer`] session; sessions
//! are cheap to build because the compiled rule set is cached
//! process-wide, so every worker shares one compiled rule set no matter
//! how many jobs it executes. Snapshot-tier hits are handed to
//! [`Synthesizer::run`](szalinski::Synthesizer::run), which dispatches
//! the resume flavor itself: an exact saturation-fingerprint hit
//! resumes extraction-only (zero saturation iterations), and on an
//! exact miss the tier's core-key index
//! ([`ResultCache::best_core_snapshot`]) offers the most saturated
//! compatible lower-fuel snapshot of the same input, which the session
//! continues as a partial-saturation resume — so a fuel-raised rerun
//! of a corpus resumes every job instead of re-saturating from
//! scratch.
//!
//! Runs are bounded two ways: a **per-job** deadline
//! ([`BatchEngine::with_deadline`]) and a **whole-batch** deadline
//! ([`BatchEngine::with_batch_deadline`]); both stop saturation at
//! iteration boundaries with [`StopReason::Cancelled`], recorded in
//! [`JobOutcome::stop_reason`]. A shared [`CancelToken`]
//! ([`BatchEngine::with_cancel_token`]) aborts every in-flight job
//! cooperatively. Cancelled jobs still return their partial programs but
//! are never cached (their graphs are wall-clock-truncated, not the
//! deterministic product of the config). A deadline never changes a
//! job's config or its cache keys, so a run under `--per-job-timeout`
//! hits the same program and snapshot entries as a run without one.
//!
//! [`BatchEngine::run`] is the one run path at every worker count: one
//! worker takes the jobs in submission order (and streams their rows in
//! that order), more workers steal them, and the programs are the same
//! either way — verified by the crate's determinism tests.

use std::io::{self, Write};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sz_cad::Cad;
use szalinski::{
    CancelToken, RuleStat, RunOptions, StopReason, SynthConfig, SynthError, SynthSnapshot,
    Synthesis, Synthesizer, TableRow, Telemetry,
};

use crate::cache::{CachedRun, CoreKey, JobKey, ResultCache, SnapshotKey};
use crate::corpus::MAX_INPUT_DEPTH;
use crate::pool::run_tasks;
use crate::report::job_record;

/// A shared, locked JSONL row sink: jobs append their record the moment
/// they finish (completion order, not submission order) and the line is
/// flushed under the lock, so a killed batch run keeps every completed
/// row on disk. Attach with [`BatchEngine::with_stream`]; panicked jobs
/// are streamed too (their placeholder outcome, once the pool reports
/// the panic).
#[derive(Clone)]
pub struct StreamSink {
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
}

impl StreamSink {
    /// Wraps any writer (a `File`, a `Vec<u8>` buffer in tests, ...).
    pub fn new(writer: impl Write + Send + 'static) -> Self {
        StreamSink {
            writer: Arc::new(Mutex::new(Box::new(writer))),
        }
    }

    /// Appends one line and flushes it, atomically with respect to
    /// other streaming jobs. A panic inside an earlier write (a job
    /// panicking mid-row) poisons the mutex but not the writer itself;
    /// recovering the lock keeps every later job streaming instead of
    /// cascading one bad job into a dead batch.
    pub fn write_line(&self, line: &str) -> io::Result<()> {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        writeln!(w, "{line}")?;
        w.flush()
    }

    /// Streams one job record; write failures are reported to stderr
    /// rather than failing the job (the outcome is still returned in
    /// the batch report).
    fn write_record(&self, outcome: &JobOutcome) {
        if let Err(e) = self.write_line(&job_record(outcome)) {
            eprintln!("sz-batch: streaming report write failed: {e}");
        }
    }
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink").finish_non_exhaustive()
    }
}

/// One unit of batch work: a named flat CSG plus its synthesis config.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Job name (model name or source file stem); used in reports.
    pub name: String,
    /// The flat CSG input.
    pub input: Cad,
    /// Synthesis fuel/configuration for this job.
    pub config: SynthConfig,
}

impl BatchJob {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, input: Cad, config: SynthConfig) -> Self {
        BatchJob {
            name: name.into(),
            input,
            config,
        }
    }
}

/// Terminal state of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Synthesis produced programs (fresh or cached).
    Ok,
    /// The pipeline rejected the input (e.g. not a flat CSG).
    Rejected(SynthError),
    /// The job panicked; the message is the panic payload.
    Panicked(String),
}

impl JobStatus {
    /// Short machine-readable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Rejected(_) => "rejected",
            JobStatus::Panicked(_) => "panicked",
        }
    }
}

/// The per-job result record.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job name.
    pub name: String,
    /// Terminal state.
    pub status: JobStatus,
    /// Whether the result came from the program cache tier (no pipeline
    /// run at all).
    pub cached: bool,
    /// Whether the result was **resumed** from the snapshot cache tier:
    /// only extraction ran, on the saturated e-graph's snapshot (zero
    /// saturation iterations). Mutually exclusive with `cached`.
    pub snapshot_hit: bool,
    /// Whether wall-clock time exceeded the engine's per-job deadline.
    /// The deadline is enforced cooperatively, so such a job either
    /// stopped as [`StopReason::Cancelled`] (its programs are still
    /// valid, just less saturated) or ran past the deadline after its
    /// last check.
    pub hit_deadline: bool,
    /// Why this job's saturation stopped — including
    /// [`StopReason::Cancelled`] for deadline/cancel-token stops. `None`
    /// for cache hits, snapshot resumes (no saturation ran), rejections,
    /// and panics.
    pub stop_reason: Option<StopReason>,
    /// Wall-clock time of this job (lookup time for cache hits).
    pub time: Duration,
    /// Saturation iterations spent (0 for cache hits).
    pub iterations: usize,
    /// `(cost, program-sexp)` pairs, cheapest first.
    pub programs: Vec<(usize, String)>,
    /// The Table-1-style row (absent on rejection/panic).
    pub row: Option<TableRow>,
    /// Per-rule e-matching profile of the saturation behind this job's
    /// result (empty for program-cache hits and extraction-only snapshot
    /// resumes, which skip saturation). Partial-saturation resumes
    /// report **lifetime** counts — the producing legs' persisted
    /// matches/applied/bans merged with this leg's — so resumed and cold
    /// runs agree; wall times cover this leg only. Feeds the JSONL
    /// report and `BENCH_ematch.json`.
    pub rule_stats: Vec<RuleStat>,
    /// The job config's [`SynthConfig::cost_fingerprint`]: which cost
    /// model (and Pareto objectives, if any) extraction ranked with.
    /// Recorded in the JSONL report so mixed-cost batches stay
    /// attributable.
    pub cost_fingerprint: String,
    /// The Pareto front, when the job's config requested one
    /// ([`SynthConfig::with_pareto`] / `szb --cost pareto(...)`):
    /// `([cost_a, cost_b], program-sexp)` points, ascending on the first
    /// objective. Empty otherwise (and for program-cache hits, which
    /// never serve Pareto runs — see [`BatchEngine`] docs).
    pub pareto: Vec<([u64; 2], String)>,
}

impl JobOutcome {
    /// The outcome of a job that ran no pipeline: no programs, row,
    /// iterations, rule stats or Pareto front.
    fn ran_nothing(
        name: String,
        status: JobStatus,
        time: Duration,
        cost_fingerprint: String,
    ) -> Self {
        JobOutcome {
            name,
            status,
            cached: false,
            snapshot_hit: false,
            hit_deadline: false,
            stop_reason: None,
            time,
            iterations: 0,
            programs: Vec::new(),
            row: None,
            rule_stats: Vec::new(),
            cost_fingerprint,
            pareto: Vec::new(),
        }
    }

    /// The best program's s-expression, if any.
    pub fn best(&self) -> Option<&str> {
        self.programs.first().map(|(_, s)| s.as_str())
    }

    /// Whether this job's saturation was stopped by a deadline or cancel
    /// token (the result is still well-formed, just less saturated).
    pub fn cancelled(&self) -> bool {
        self.stop_reason == Some(StopReason::Cancelled)
    }

    /// Total e-matching (search) time across this job's rules.
    pub fn search_time_s(&self) -> f64 {
        self.rule_stats
            .iter()
            .map(|s| s.search_time.as_secs_f64())
            .sum()
    }

    /// Total rule-application time across this job's rules.
    pub fn apply_time_s(&self) -> f64 {
        self.rule_stats
            .iter()
            .map(|s| s.apply_time.as_secs_f64())
            .sum()
    }
}

/// Aggregate result of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job outcomes, in job-submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Wall-clock time of the whole batch.
    pub wall_time: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl BatchReport {
    /// Jobs that finished with programs.
    pub fn ok_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Ok)
            .count()
    }

    /// Jobs served from the cache.
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Jobs that ran fresh synthesis.
    pub fn cache_misses(&self) -> usize {
        self.outcomes.len() - self.cache_hits()
    }

    /// Cache hit rate in `[0, 1]` (0 on an empty batch).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.cache_hits() as f64 / self.outcomes.len() as f64
        }
    }

    /// Jobs resumed from the snapshot cache tier (saturation skipped,
    /// extraction re-run).
    pub fn snapshot_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.snapshot_hit).count()
    }

    /// Jobs whose saturation was cut short by a deadline or cancel
    /// token ([`StopReason::Cancelled`]).
    pub fn cancelled_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cancelled()).count()
    }

    /// Snapshot-tier hit rate in `[0, 1]` (0 on an empty batch).
    pub fn snapshot_hit_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.snapshot_hits() as f64 / self.outcomes.len() as f64
        }
    }

    /// Jobs per wall-clock second (the batch throughput).
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean `1 − o_ns/i_ns` over successful jobs (the paper's headline
    /// size-reduction metric).
    pub fn mean_size_reduction(&self) -> f64 {
        let rows: Vec<&TableRow> = self
            .outcomes
            .iter()
            .filter_map(|o| o.row.as_ref())
            .collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.size_reduction()).sum::<f64>() / rows.len() as f64
    }

    /// Fraction of successful jobs whose top-k exposed structure.
    pub fn structure_fraction(&self) -> f64 {
        let rows: Vec<&TableRow> = self
            .outcomes
            .iter()
            .filter_map(|o| o.row.as_ref())
            .collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().filter(|r| r.rank.is_some()).count() as f64 / rows.len() as f64
    }
}

/// The batch engine: a builder over worker count, per-job deadline, and
/// a shared result cache.
///
/// # Examples
///
/// ```
/// use sz_batch::{BatchEngine, BatchJob};
/// use szalinski::SynthConfig;
/// use sz_cad::Cad;
///
/// let config = SynthConfig::new().with_iter_limit(20).with_node_limit(20_000);
/// let jobs: Vec<BatchJob> = (3..6)
///     .map(|n| {
///         let flat = Cad::union_chain(
///             (1..=n).map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit)).collect(),
///         );
///         BatchJob::new(format!("row{n}"), flat, config.clone())
///     })
///     .collect();
/// let report = BatchEngine::new().with_workers(2).run(jobs);
/// assert_eq!(report.ok_count(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchEngine {
    workers: usize,
    deadline: Option<Duration>,
    batch_deadline: Option<Duration>,
    cancel: Option<CancelToken>,
    cache: Option<Arc<Mutex<ResultCache>>>,
    telemetry: Telemetry,
    stream: Option<StreamSink>,
}

impl BatchEngine {
    /// Engine with default settings: one worker per available core, no
    /// deadlines, no cancel token, no cache, telemetry disabled.
    pub fn new() -> Self {
        BatchEngine {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            deadline: None,
            batch_deadline: None,
            cancel: None,
            cache: None,
            telemetry: Telemetry::disabled(),
            stream: None,
        }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets a per-job wall-clock deadline, enforced cooperatively at
    /// iteration boundaries: a job that exceeds it stops with
    /// [`StopReason::Cancelled`], returns its partial result and is never
    /// cached. The deadline is not part of any job's config or cache
    /// key, so a job it does not stop hits and fills the same entries as
    /// a run without it. Outcomes whose wall clock exceeded the deadline
    /// are flagged [`JobOutcome::hit_deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a wall-clock deadline for the **whole batch**, measured from
    /// the start of [`BatchEngine::run`]. Jobs starting after (or
    /// running past) it are cancelled cooperatively — every job still
    /// produces a well-formed outcome, most with
    /// [`StopReason::Cancelled`] and barely-saturated programs.
    pub fn with_batch_deadline(mut self, deadline: Duration) -> Self {
        self.batch_deadline = Some(deadline);
        self
    }

    /// Attaches a shared [`CancelToken`]: triggering it (e.g. from a
    /// signal handler) stops every in-flight and queued job at its next
    /// iteration boundary.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a shared result cache (hits skip saturation entirely;
    /// fresh successes are inserted).
    pub fn with_cache(mut self, cache: Arc<Mutex<ResultCache>>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a [`Telemetry`] bundle shared by every job: per-job
    /// `batch/job` spans, cache-tier counters (`cache.program_hit` /
    /// `cache.snapshot_hit` / `cache.miss`), a `job.latency_us`
    /// histogram, and a `pool.queue_depth` gauge, plus the full
    /// per-run pipeline/runner instrumentation (the bundle is handed to
    /// each [`Synthesizer::run`] via
    /// [`RunOptions::with_telemetry`](szalinski::RunOptions::with_telemetry)).
    /// The default disabled bundle records nothing and costs nothing.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a streaming JSONL sink: each job's record is appended
    /// and flushed the moment the job finishes, so an interrupted batch
    /// keeps every completed row. Rows arrive in completion order;
    /// callers wanting the trailing aggregate summary append it
    /// themselves after [`BatchEngine::run`] returns (as `szb` does).
    pub fn with_stream(mut self, stream: StreamSink) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Runs the batch across the work-stealing pool. With one worker
    /// the jobs run in submission order, so a streaming sink receives
    /// their rows in that order; at any worker count a panicking job
    /// becomes one [`JobStatus::Panicked`] outcome, whose row is
    /// streamed once the pool has finished.
    pub fn run(&self, jobs: Vec<BatchJob>) -> BatchReport {
        let start = Instant::now();
        let deadline = self.deadline;
        let batch_end = self.batch_deadline.map(|d| start + d);
        let cancel = &self.cancel;
        let cache = &self.cache;
        let telemetry = &self.telemetry;
        let stream = self.stream.as_ref();
        let pending = AtomicI64::new(jobs.len() as i64);
        let pending = &pending;
        // Keep the names (and cost fingerprints) outside the pool so a
        // panicked job's outcome still says which job it was.
        let names: Vec<(String, String)> = jobs
            .iter()
            .map(|j| (j.name.clone(), j.config.cost_fingerprint()))
            .collect();
        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                move || {
                    let outcome = execute_job(
                        job,
                        cache.as_ref(),
                        deadline,
                        batch_end,
                        cancel.as_ref(),
                        telemetry,
                        pending,
                    );
                    if let Some(stream) = stream {
                        stream.write_record(&outcome);
                    }
                    outcome
                }
            })
            .collect();
        let outcomes = run_tasks(tasks, self.workers)
            .into_iter()
            .zip(names)
            .map(|(r, (name, cost_fingerprint))| match r {
                Ok(outcome) => outcome,
                Err(panic) => {
                    let outcome = JobOutcome::ran_nothing(
                        name,
                        JobStatus::Panicked(panic.message),
                        Duration::ZERO,
                        cost_fingerprint,
                    );
                    // A panicked task never reached the streaming write
                    // in its closure; stream its placeholder row here so
                    // the JSONL file still accounts for every job.
                    if let Some(stream) = stream {
                        stream.write_record(&outcome);
                    }
                    outcome
                }
            })
            .collect();
        BatchReport {
            outcomes,
            wall_time: start.elapsed(),
            workers: self.workers,
        }
    }
}

/// The per-job code path of every run, wrapped in the job-level
/// telemetry: a `batch/job` span (with the job name and terminal status
/// as args), the cache-tier counters, the `job.latency_us` histogram,
/// and the `pool.queue_depth` gauge.
fn execute_job(
    job: BatchJob,
    cache: Option<&Arc<Mutex<ResultCache>>>,
    deadline: Option<Duration>,
    batch_end: Option<Instant>,
    cancel: Option<&CancelToken>,
    telemetry: &Telemetry,
    pending: &AtomicI64,
) -> JobOutcome {
    if telemetry.metrics.is_enabled() {
        // Jobs not yet started (queued or running elsewhere) the moment
        // this one begins — a batch-progress gauge.
        let left = pending.fetch_sub(1, Ordering::Relaxed) - 1;
        telemetry.metrics.gauge_set("pool.queue_depth", left);
    }
    let mut span = telemetry.tracer.is_enabled().then(|| {
        let mut span = telemetry.span("batch", "job");
        span.arg_str("name", job.name.clone());
        span
    });
    let outcome = execute_job_inner(job, cache, deadline, batch_end, cancel, telemetry);
    if telemetry.metrics.is_enabled() {
        telemetry
            .metrics
            .observe("job.latency_us", outcome.time.as_micros() as f64);
        telemetry.metrics.counter_add(
            if outcome.cached {
                "cache.program_hit"
            } else if outcome.snapshot_hit {
                "cache.snapshot_hit"
            } else {
                "cache.miss"
            },
            1,
        );
    }
    if let Some(span) = &mut span {
        span.arg_str("status", outcome.status.tag().to_owned());
    }
    outcome
}

/// Program-tier lookup, then one [`Synthesizer::run`] that consults the
/// snapshot tier (resume), runs cold otherwise, and captures a snapshot
/// when the tier has a budget.
fn execute_job_inner(
    job: BatchJob,
    cache: Option<&Arc<Mutex<ResultCache>>>,
    deadline: Option<Duration>,
    batch_end: Option<Instant>,
    cancel: Option<&CancelToken>,
    telemetry: &Telemetry,
) -> JobOutcome {
    let start = Instant::now();
    let config = &job.config;
    // Printing the key, the flatness check and the e-graph build all
    // recurse once per level: refuse an input nested deeper than a file
    // may be, with a check that stops one level past the bound.
    if job.input.nests_deeper_than(MAX_INPUT_DEPTH) {
        return JobOutcome::ran_nothing(
            job.name,
            JobStatus::Rejected(SynthError::TooDeep {
                limit: MAX_INPUT_DEPTH,
            }),
            start.elapsed(),
            config.cost_fingerprint(),
        );
    }
    // Pareto runs bypass the program tier entirely — its entries store
    // only the ranked top-k, so a hit could not reproduce the front; the
    // snapshot tier (keyed on the saturation fingerprint, which Pareto
    // objectives never touch) still serves them via extraction resume.
    // The input is printed once and every key hashes that text.
    let input_sexp = cache.map(|_| job.input.to_string());
    let key = input_sexp
        .as_deref()
        .filter(|_| config.pareto.is_none())
        .map(|sexp| JobKey::of_sexp(sexp, config));
    // The snapshot-tier key, computed once per job and shared by the
    // lookup and the insert below (both hash the same input + config).
    let skey = input_sexp
        .as_deref()
        .map(|sexp| SnapshotKey::of_sexp(sexp, config));

    // Program tier: a hit reconstructs the outcome without any pipeline
    // work.
    if let (Some(cache), Some(key)) = (cache, key) {
        let hit = cache.lock().unwrap().get(key).cloned();
        if let Some(run) = hit {
            return outcome_from_cache(&job, run, start.elapsed());
        }
    }

    // Everything else is one session run. The per-job and whole-batch
    // deadlines combine into the tighter bound; the rule set behind the
    // session is the process-wide compiled cache, so per-job session
    // construction costs an Arc clone, not a recompilation.
    let run_deadline = match (
        deadline,
        batch_end.map(|e| e.saturating_duration_since(start)),
    ) {
        (Some(job_d), Some(batch_d)) => Some(job_d.min(batch_d)),
        (d, b) => d.or(b),
    };
    let capture = cache.is_some_and(|c| c.lock().unwrap().snapshot_budget() > 0);
    let mut opts = RunOptions::new().capture_snapshot(capture);
    if telemetry.is_enabled() {
        opts = opts.with_telemetry(telemetry.clone());
    }
    if let Some(d) = run_deadline {
        opts = opts.with_deadline(d);
    }
    if let Some(token) = cancel {
        opts = opts.with_cancel_token(token.clone());
    }
    if let (Some(cache), Some(skey), Some(input_sexp)) = (cache, skey, &input_sexp) {
        // Snapshot tier: offer a stored snapshot to the session, which
        // resumes from it if compatible. The exact key serves
        // extraction-only resumes; on a miss, the core-key index offers
        // the most saturated lower-fuel snapshot of the same input for
        // partial-saturation resume. Either way the offer is advisory —
        // a stale, corrupt, or mismatched snapshot degrades to a cold
        // run, so the tier can slow a job down but never fail it.
        let text = {
            let cache = cache.lock().unwrap();
            cache.get_snapshot(skey).map(str::to_owned).or_else(|| {
                cache
                    .best_core_snapshot(CoreKey::of_sexp(input_sexp, config), config)
                    .map(|(_, text)| text.to_owned())
            })
        };
        if let Some(text) = text {
            let parsed = {
                let _span = telemetry.span("batch", "snapshot.parse");
                text.parse::<SynthSnapshot>()
            };
            if let Ok(snapshot) = parsed {
                opts = opts.with_snapshot(snapshot);
            }
        }
    }

    match Synthesizer::new(config.clone()).run(&job.input, opts) {
        Ok(mut result) => {
            let snapshot_hit = result.mode.is_resumed();
            // Cancelled runs are wall-clock-truncated, not the
            // deterministic product of the config: never cache them.
            if !result.cancelled() {
                if let Some(cache) = cache {
                    // Both entries are built before the batch-wide lock
                    // is taken; holding it only to insert keeps other
                    // workers' lookups from waiting on serialization.
                    let entry = key.map(|key| (key, cached_run_of(&result)));
                    // An *extraction* resume's snapshot is already in the
                    // tier under this exact key; re-inserting would only
                    // churn bytes. Cold runs and partial-saturation
                    // resumes both produce a snapshot the tier lacks for
                    // this config. Runs that **saturated** strip the
                    // sat-phase section before storing — a saturated
                    // graph has nothing left to continue, so the section
                    // would only double the entry's cost against the
                    // byte budget. Fuel-limited runs (iteration or node
                    // limit) keep it, so their snapshots stay
                    // *continuable*: the core-key index
                    // (`ResultCache::best_core_snapshot`, the lookup
                    // above) serves them to higher-fuel jobs of the same
                    // input as partial-saturation resumes.
                    let snapshot_entry = if result.mode != szalinski::RunMode::ResumedExtraction {
                        let saturated = result.stop_reason == Some(StopReason::Saturated);
                        result.snapshot.take().zip(skey).map(|(snapshot, skey)| {
                            let text = if saturated {
                                snapshot.without_sat_phase().to_string()
                            } else {
                                snapshot.to_string()
                            };
                            (skey, text)
                        })
                    } else {
                        None
                    };
                    let mut cache = cache.lock().unwrap();
                    if let Some((key, run)) = entry {
                        cache.insert(key, run);
                    }
                    if let Some((skey, text)) = snapshot_entry {
                        cache.insert_snapshot(skey, text);
                    }
                }
            }
            outcome_from_result(job.name, result, config, start, deadline, snapshot_hit)
        }
        Err(e) => JobOutcome::ran_nothing(
            job.name,
            JobStatus::Rejected(e),
            start.elapsed(),
            config.cost_fingerprint(),
        ),
    }
}

/// The program-tier cache entry for a fresh or resumed result.
fn cached_run_of(result: &Synthesis) -> CachedRun {
    CachedRun {
        programs: result
            .top_k
            .iter()
            .map(|p| (p.cost, p.cad.clone()))
            .collect(),
        time_s: result.time.as_secs_f64(),
    }
}

/// Builds the outcome of a run that actually executed (cold or resumed
/// from a snapshot).
fn outcome_from_result(
    name: String,
    result: Synthesis,
    config: &SynthConfig,
    start: Instant,
    deadline: Option<Duration>,
    snapshot_hit: bool,
) -> JobOutcome {
    let time = start.elapsed();
    JobOutcome {
        row: Some(result.table_row(&name)),
        programs: result
            .top_k
            .iter()
            .map(|p| (p.cost, p.cad.to_string()))
            .collect(),
        status: JobStatus::Ok,
        cached: false,
        snapshot_hit,
        hit_deadline: deadline.is_some_and(|d| time > d),
        stop_reason: result.stop_reason,
        time,
        iterations: result.iterations,
        rule_stats: result.rule_stats,
        cost_fingerprint: config.cost_fingerprint(),
        pareto: result
            .pareto
            .unwrap_or_default()
            .into_iter()
            .map(|p| (p.costs, p.cad.to_string()))
            .collect(),
        name,
    }
}

/// Rebuilds a [`JobOutcome`] from a cached run: zero saturation
/// iterations, table row recomputed from the stored programs.
fn outcome_from_cache(job: &BatchJob, run: CachedRun, lookup: Duration) -> JobOutcome {
    let cads = run.programs.iter().map(|(_, cad)| cad);
    let row = TableRow::of_programs(&job.name, &job.input, cads, run.time_s);
    JobOutcome {
        cached: true,
        row,
        programs: run
            .programs
            .into_iter()
            .map(|(cost, cad)| (cost, cad.to_string()))
            .collect(),
        ..JobOutcome::ran_nothing(
            job.name.clone(),
            JobStatus::Ok,
            lookup,
            job.config.cost_fingerprint(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize) -> Cad {
        Cad::union_chain(
            (1..=n)
                .map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit))
                .collect(),
        )
    }

    fn quick() -> SynthConfig {
        SynthConfig::new()
            .with_iter_limit(20)
            .with_node_limit(20_000)
    }

    fn jobs() -> Vec<BatchJob> {
        (3..7)
            .map(|n| BatchJob::new(format!("row{n}"), row(n), quick()))
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let par = BatchEngine::new().with_workers(4).run(jobs());
        let seq = BatchEngine::new().with_workers(1).run(jobs());
        assert_eq!(par.outcomes.len(), seq.outcomes.len());
        for (a, b) in par.outcomes.iter().zip(&seq.outcomes) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.programs, b.programs);
            assert_eq!(a.status, b.status);
        }
    }

    #[test]
    fn rejected_inputs_are_reported_not_panicked() {
        let mut js = jobs();
        js.push(BatchJob::new(
            "bad",
            "(Repeat Unit 3)".parse().unwrap(),
            quick(),
        ));
        let report = BatchEngine::new().with_workers(2).run(js);
        assert_eq!(report.ok_count(), 4);
        let bad = report.outcomes.last().unwrap();
        assert_eq!(bad.status, JobStatus::Rejected(SynthError::NotFlat));
        assert!(bad.row.is_none());
    }

    #[test]
    fn inputs_nested_past_the_bound_are_rejected_before_any_walk() {
        // Nested 1 000 and 8 000 levels deep (a 2 MiB worker overflows
        // on a job nested 1 000 levels), next to a normal job and one
        // nested exactly `MAX_INPUT_DEPTH` levels deep.
        let js = vec![
            BatchJob::new("deep1000", row(1_000), quick()),
            BatchJob::new("row4", row(4), quick()),
            BatchJob::new("deep8000", row(8_000), quick()),
            BatchJob::new("at-bound", row(MAX_INPUT_DEPTH), quick()),
        ];
        let report = BatchEngine::new().with_workers(2).run(js);
        let reason = SynthError::TooDeep {
            limit: MAX_INPUT_DEPTH,
        };
        assert_eq!(
            reason.to_string(),
            "input nested more than 128 levels deep, more than the 128 a job may take"
        );
        let too_deep = JobStatus::Rejected(reason);
        let status: Vec<_> = report.outcomes.iter().map(|o| &o.status).collect();
        assert_eq!(
            status,
            [&too_deep, &JobStatus::Ok, &too_deep, &JobStatus::Ok]
        );
        assert!(report.outcomes[0].row.is_none());
    }

    #[test]
    fn cache_hit_skips_saturation() {
        let cache = Arc::new(Mutex::new(
            ResultCache::new().with_snapshot_budget(64 << 20),
        ));
        let engine = BatchEngine::new().with_workers(2).with_cache(cache.clone());
        let cold = engine.run(jobs());
        assert_eq!(cold.cache_hits(), 0);
        assert!(cold.outcomes.iter().all(|o| o.iterations > 0));
        assert_eq!(cache.lock().unwrap().len(), 4);
        assert_eq!(cache.lock().unwrap().snapshot_count(), 4);

        let warm = engine.run(jobs());
        // A per-job deadline is how a run executes, not what it
        // computes: it must hit the same entries and add none.
        let timed = BatchEngine::new()
            .with_workers(2)
            .with_cache(cache.clone())
            .with_deadline(Duration::from_secs(30))
            .run(jobs());
        for rerun in [&warm, &timed] {
            assert_eq!(rerun.cache_hits(), 4);
            assert!((rerun.cache_hit_rate() - 1.0).abs() < f64::EPSILON);
            assert!(rerun.outcomes.iter().all(|o| o.cached && o.iterations == 0));
            for (a, b) in cold.outcomes.iter().zip(&rerun.outcomes) {
                assert_eq!(
                    a.programs, b.programs,
                    "cached result differs for {}",
                    a.name
                );
                let (ra, rb) = (a.row.as_ref().unwrap(), b.row.as_ref().unwrap());
                assert_eq!(ra.n_l, rb.n_l);
                assert_eq!(ra.f, rb.f);
                assert_eq!(ra.rank, rb.rank);
                assert_eq!(ra.o_ns, rb.o_ns);
            }
        }
        let cache = cache.lock().unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.snapshot_count(), 4);
    }

    #[test]
    fn generous_deadline_flags_nothing() {
        // A generous deadline changes nothing for these tiny jobs.
        let report = BatchEngine::new()
            .with_workers(1)
            .with_deadline(Duration::from_secs(60))
            .run(jobs());
        assert_eq!(report.ok_count(), 4);
        assert!(report.outcomes.iter().all(|o| !o.hit_deadline));
    }

    #[test]
    fn report_aggregates() {
        let report = BatchEngine::new().with_workers(2).run(jobs());
        assert_eq!(report.outcomes.len(), 4);
        assert!(report.throughput() > 0.0);
        assert!(report.mean_size_reduction() > 0.0);
        assert!(report.structure_fraction() > 0.5);
    }

    #[test]
    fn fresh_jobs_record_their_stop_reason() {
        let report = BatchEngine::new().with_workers(1).run(jobs());
        for outcome in &report.outcomes {
            assert!(
                outcome.stop_reason.is_some(),
                "{}: fresh runs saturate and must say why they stopped",
                outcome.name
            );
            assert!(!outcome.cancelled(), "{}", outcome.name);
        }
        assert_eq!(report.cancelled_count(), 0);
    }

    #[test]
    fn cancel_token_stops_the_batch_gracefully() {
        let token = szalinski::CancelToken::new();
        token.cancel();
        let cache = Arc::new(Mutex::new(ResultCache::new()));
        let report = BatchEngine::new()
            .with_workers(2)
            .with_cancel_token(token)
            .with_cache(Arc::clone(&cache))
            .run(jobs());
        // Every job completes (the input itself is extractable), every
        // job reports Cancelled, and nothing enters the cache.
        assert_eq!(report.ok_count(), 4);
        assert_eq!(report.cancelled_count(), 4);
        for outcome in &report.outcomes {
            assert_eq!(outcome.stop_reason, Some(StopReason::Cancelled));
            assert_eq!(outcome.iterations, 0);
            assert!(!outcome.programs.is_empty());
        }
        assert_eq!(
            cache.lock().unwrap().len(),
            0,
            "cancelled results must never be cached"
        );
    }

    #[test]
    fn expired_batch_deadline_cancels_remaining_jobs() {
        let report = BatchEngine::new()
            .with_workers(1)
            .with_batch_deadline(Duration::ZERO)
            .run(jobs());
        assert_eq!(report.ok_count(), 4);
        assert_eq!(report.cancelled_count(), 4);
    }

    #[test]
    fn tier_keeps_sat_phase_only_for_fuel_limited_runs() {
        // A run cut short by its iteration limit left saturation work
        // undone: a higher-fuel rerun could continue it, so the stored
        // snapshot keeps its saturation-phase section (continuable).
        let cache = Arc::new(Mutex::new(
            ResultCache::new().with_snapshot_budget(64 << 20),
        ));
        let engine = BatchEngine::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache));
        let limited = vec![BatchJob::new(
            "row6",
            row(6),
            quick().with_iter_limit(2), // binds well before saturation
        )];
        let report = engine.run(limited);
        assert!(
            report.outcomes[0].stop_reason != Some(StopReason::Saturated),
            "precondition: the iteration limit must bind"
        );
        {
            let cache = cache.lock().unwrap();
            assert!(cache.snapshot_count() > 0);
            for (_, text) in cache.snapshots() {
                let snapshot: SynthSnapshot = text.parse().unwrap();
                assert!(
                    snapshot.sat_phase().is_some(),
                    "fuel-limited snapshots must stay continuable"
                );
            }
        }

        // A run that SATURATED has nothing left to continue — at any
        // fuel setting: the section is dead weight and is stripped.
        let cache = Arc::new(Mutex::new(
            ResultCache::new().with_snapshot_budget(64 << 20),
        ));
        let engine = BatchEngine::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache));
        let report = engine.run(vec![BatchJob::new("row3", row(3), quick())]);
        assert_eq!(
            report.outcomes[0].stop_reason,
            Some(StopReason::Saturated),
            "precondition: the tiny row saturates inside quick() fuel"
        );
        let cache = cache.lock().unwrap();
        assert!(cache.snapshot_count() > 0);
        for (_, text) in cache.snapshots() {
            let snapshot: SynthSnapshot = text.parse().unwrap();
            assert!(
                snapshot.sat_phase().is_none(),
                "saturated snapshots only ever serve extraction resumes"
            );
        }
    }

    #[test]
    fn pareto_jobs_report_the_front_and_bypass_the_program_tier() {
        use szalinski::{AstSizeCost, DepthCost};
        let pareto_config = || {
            quick().with_pareto(
                Arc::new(AstSizeCost) as Arc<dyn szalinski::CostModel>,
                Arc::new(DepthCost) as Arc<dyn szalinski::CostModel>,
            )
        };
        let cache = Arc::new(Mutex::new(
            ResultCache::new().with_snapshot_budget(64 << 20),
        ));
        let engine = BatchEngine::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache));
        let job = || vec![BatchJob::new("row5", row(5), pareto_config())];
        let cold = engine.run(job());
        let outcome = &cold.outcomes[0];
        assert_eq!(outcome.status, JobStatus::Ok);
        assert!(
            outcome.cost_fingerprint.contains("pareto(ast-size,depth)"),
            "{}",
            outcome.cost_fingerprint
        );
        assert!(!outcome.pareto.is_empty());
        for w in outcome.pareto.windows(2) {
            let ([a1, b1], [a2, b2]) = (w[0].0, w[1].0);
            assert!(a1 < a2 && b1 > b2, "front must be mutually non-dominating");
        }
        assert_eq!(
            cache.lock().unwrap().len(),
            0,
            "pareto runs must not enter the program tier (its entries \
             cannot reproduce the front)"
        );

        // The rerun resumes from the snapshot tier — no saturation —
        // and still recomputes an identical front.
        let warm = engine.run(job());
        let rerun = &warm.outcomes[0];
        assert!(rerun.snapshot_hit);
        assert_eq!(rerun.iterations, 0);
        assert_eq!(rerun.pareto, outcome.pareto);
    }

    /// A `Write` whose bytes stay inspectable after the sink takes
    /// ownership.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn streaming_sink_flushes_one_row_per_finished_job() {
        let buf = SharedBuf::default();
        let report = BatchEngine::new()
            .with_workers(2)
            .with_stream(StreamSink::new(buf.clone()))
            .run(jobs());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), report.outcomes.len());
        for line in &lines {
            assert!(line.starts_with(r#"{"type":"job""#) && line.ends_with('}'));
        }
        // Completion order may differ from submission order, but the
        // same records are present.
        let mut streamed: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        let mut expected: Vec<String> = report.outcomes.iter().map(job_record).collect();
        streamed.sort();
        expected.sort();
        assert_eq!(streamed, expected);
    }

    /// A writer whose first write panics (while the sink's mutex is
    /// held), then behaves; later bytes land in the shared buffer.
    struct PoisonOnce {
        buf: SharedBuf,
        armed: Arc<std::sync::atomic::AtomicBool>,
    }
    impl std::io::Write for PoisonOnce {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("sink write blew up");
            }
            self.buf.write(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn poisoned_stream_sink_keeps_streaming_later_jobs() {
        // One job's row write panics mid-stream, poisoning the sink
        // mutex. The batch must keep going: every other job still
        // streams its row, and the panicked job gets its placeholder
        // row from the collecting thread.
        let buf = SharedBuf::default();
        let sink = StreamSink::new(PoisonOnce {
            buf: buf.clone(),
            armed: Arc::new(std::sync::atomic::AtomicBool::new(true)),
        });
        let report = BatchEngine::new()
            .with_workers(2)
            .with_stream(sink)
            .run(jobs());
        assert_eq!(report.ok_count() + 1, report.outcomes.len());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines.len(),
            report.outcomes.len(),
            "every job must still stream a row after the poison"
        );
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains(r#""status":"panicked""#))
                .count(),
            1
        );
    }

    #[test]
    fn one_worker_streams_rows_in_submission_order() {
        let buf = SharedBuf::default();
        let report = BatchEngine::new()
            .with_workers(1)
            .with_stream(StreamSink::new(buf.clone()))
            .run(jobs());
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let expected: Vec<String> = report.outcomes.iter().map(job_record).collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);

        // The first job's row write panics: that job becomes one
        // `panicked` outcome, the others stream in order, and its
        // placeholder row follows them.
        let buf = SharedBuf::default();
        let sink = StreamSink::new(PoisonOnce {
            buf: buf.clone(),
            armed: Arc::new(std::sync::atomic::AtomicBool::new(true)),
        });
        let report = BatchEngine::new()
            .with_workers(1)
            .with_stream(sink)
            .run(jobs());
        assert_eq!(
            report.outcomes[0].status,
            JobStatus::Panicked("sink write blew up".to_owned())
        );
        assert_eq!(report.ok_count(), 3);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let expected: Vec<String> = report.outcomes[1..]
            .iter()
            .chain(&report.outcomes[..1])
            .map(job_record)
            .collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn core_key_index_serves_lower_fuel_snapshots_to_higher_fuel_jobs() {
        let cache = Arc::new(Mutex::new(
            ResultCache::new().with_snapshot_budget(64 << 20),
        ));
        let engine = BatchEngine::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache));
        // Populate at low fuel: the iteration limit binds, so the
        // stored snapshot keeps its sat-phase section (continuable).
        let low = engine.run(vec![BatchJob::new(
            "row6",
            row(6),
            quick().with_iter_limit(2),
        )]);
        assert!(
            low.outcomes[0].stop_reason != Some(StopReason::Saturated),
            "precondition: the low-fuel run must not saturate"
        );

        // The same input at higher fuel misses both the program tier
        // (different fingerprint) and the exact snapshot key; the
        // core-key index serves the low-fuel snapshot and saturation
        // CONTINUES rather than starting cold.
        let high = engine.run(vec![BatchJob::new("row6", row(6), quick())]);
        let outcome = &high.outcomes[0];
        assert!(!outcome.cached);
        assert!(
            outcome.snapshot_hit,
            "the core-key fallback must serve the fuel-raised job"
        );

        // Landing point identical to a cold run at the same fuel.
        let cold =
            BatchEngine::new()
                .with_workers(1)
                .run(vec![BatchJob::new("row6", row(6), quick())]);
        assert_eq!(outcome.programs, cold.outcomes[0].programs);
        assert_eq!(outcome.stop_reason, cold.outcomes[0].stop_reason);
    }

    #[test]
    fn telemetry_counts_cache_tiers_and_job_latency() {
        let cache = Arc::new(Mutex::new(ResultCache::new()));
        let telemetry = Telemetry::enabled();
        let engine = BatchEngine::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache))
            .with_telemetry(telemetry.clone());
        let cold = engine.run(jobs());
        assert_eq!(cold.cache_hits(), 0);
        assert_eq!(telemetry.metrics.counter("cache.miss"), 4);
        assert_eq!(telemetry.metrics.counter("cache.program_hit"), 0);

        let warm = engine.run(jobs());
        assert_eq!(warm.cache_hits(), 4);
        assert_eq!(telemetry.metrics.counter("cache.program_hit"), 4);
        assert_eq!(telemetry.metrics.counter("cache.miss"), 4, "unchanged");

        let hist = telemetry.metrics.histogram("job.latency_us").unwrap();
        assert_eq!(hist.count(), 8, "every job observed its latency");
        // The last job to start saw an empty queue.
        assert_eq!(telemetry.metrics.gauge("pool.queue_depth"), Some(0));

        // One batch/job span per executed job, carrying the job name.
        let events = telemetry.tracer.events();
        let job_spans: Vec<_> = events
            .iter()
            .filter(|s| s.cat == "batch" && s.name == "job")
            .collect();
        assert_eq!(job_spans.len(), 8);
        // Fresh jobs also recorded pipeline + runner spans underneath.
        assert!(events
            .iter()
            .any(|s| s.cat == "pipeline" && s.name == "saturation"));
        assert!(events
            .iter()
            .any(|s| s.cat == "runner" && s.name == "search"));
    }

    #[test]
    fn outcomes_record_their_cost_fingerprint() {
        let mut js = jobs();
        js.push(BatchJob::new(
            "reward",
            row(3),
            quick().with_cost_model(Arc::new(szalinski::RewardLoopsCost)),
        ));
        let report = BatchEngine::new().with_workers(1).run(js);
        assert!(report.outcomes[..4]
            .iter()
            .all(|o| o.cost_fingerprint == "ast-size"));
        assert_eq!(report.outcomes[4].cost_fingerprint, "reward-loops");
    }

    #[test]
    fn snapshot_resumes_report_mode_via_snapshot_hit() {
        let cache = Arc::new(Mutex::new(
            ResultCache::new().with_snapshot_budget(64 << 20),
        ));
        let engine = BatchEngine::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache));
        let cold = engine.run(jobs());
        assert_eq!(cold.snapshot_hits(), 0);

        // A cost-only change misses the program tier but resumes from
        // the snapshot tier; resumed jobs carry no stop reason (no
        // saturation ran).
        let reward: Vec<BatchJob> = (3..7)
            .map(|n| {
                BatchJob::new(
                    format!("row{n}"),
                    row(n),
                    quick().with_cost_model(Arc::new(szalinski::RewardLoopsCost)),
                )
            })
            .collect();
        let resumed = engine.run(reward);
        assert_eq!(resumed.snapshot_hits(), 4);
        for outcome in &resumed.outcomes {
            assert!(outcome.snapshot_hit);
            assert_eq!(outcome.iterations, 0);
            assert_eq!(outcome.stop_reason, None);
        }
    }
}
