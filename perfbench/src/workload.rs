//! The three workloads: their set-up, the untraced timed phase through
//! [`BatchEngine`], and the checks on every output.
//!
//! Every workload is a closed batch: all jobs of a pass are submitted at
//! once and each of `workers` threads takes the next job when it finishes.
//! The amount of work is a function of `--seconds` alone, never of
//! machine speed, and the seed only shuffles the order of a fixed set of
//! models, so the quality metrics repeat exactly across runs and seeds
//! and the timed phase lasts about `--seconds` on a 2-CPU machine.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sz_batch::{
    BatchEngine, BatchJob, JobOutcome, JobStatus, ResultCache, SnapshotKey, DEFAULT_SNAPSHOT_BUDGET,
};
use sz_cad::Cad;
use sz_gen::GenSpec;
use szalinski::{SynthConfig, Synthesizer, Tracer};

use crate::stats;

/// Generated models per second of `--seconds`: about the cold corpus
/// throughput of two workers, so a corpus-cold pass lasts about
/// `--seconds`.
pub const CORPUS_MODELS_PER_SECOND: usize = 64;
/// The corpus distribution: the soak's default spec plus this noise.
pub const CORPUS_NOISE: &str = "0.0005";
/// The sz-gen seed of the corpus. It is fixed, and `--seed` shuffles the
/// corpus's job order, because the quality metrics of corpora of other
/// seeds differ by 1-2 %: their bounds would then have to let through a
/// regression of a few dozen models.
pub const CORPUS_SEED: u64 = 42;
/// Timed passes of corpus-rextract over the corpus. Four passes of
/// extraction-only resumes last about twice as long as one cold pass:
/// with two, the ten-run quartile spread of `models_per_s` reached 20 %.
pub const REXTRACT_PASSES: usize = 4;
/// suite16-cold passes per second of `--seconds`. A single-worker pass
/// takes 3-4 s on a 2-vCPU Xeon VM; at the default 20 s this makes 7
/// passes, 112 job samples, enough for a p90 tail (the median of
/// rasp-pie's seven runs).
pub const SUITE16_PASSES_PER_SECOND: f64 = 0.35;
/// Processes that measure a set-up of milliseconds. One set-up varies by
/// about a quarter between back-to-back processes, so its median needs
/// many samples; each costs little more than a process start.
pub const SHORT_SETUP_REPS: usize = 41;
/// Volume samples per translation-validation check.
pub const VALIDATE_SAMPLES: usize = 4000;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The generated corpus, cold, every job capturing its snapshot.
    CorpusCold,
    /// The same corpus resumed from the snapshot tier at the default k.
    CorpusRextract,
    /// The paper's 16 models, cold, one worker, repeated passes. Not
    /// listed in `BENCHMARK.json`: its timings rest on a few samples per
    /// run, so their spread over a set of runs exceeds the bounds.
    Suite16Cold,
}

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [
        Workload::CorpusCold,
        Workload::CorpusRextract,
        Workload::Suite16Cold,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus-cold",
            Workload::CorpusRextract => "corpus-rextract",
            Workload::Suite16Cold => "suite16-cold",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every job of a timed pass must run cold (no tier serves it).
    pub fn is_cold(self) -> bool {
        self != Workload::CorpusRextract
    }
}

/// The sizes of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed of the job order.
    pub seed: u64,
    /// Generated models (ignored by suite16-cold).
    pub models: usize,
    /// Timed passes over the inputs, each with a fresh cache.
    pub passes: usize,
    /// Worker threads of the batch pool.
    pub workers: usize,
    /// How many processes measure set-up (this one plus set-up-only
    /// children); `setup_s` is their median.
    pub setup_reps: usize,
}

impl Plan {
    /// The plan for `workload` measured for about `seconds` on `nproc`
    /// CPUs.
    pub fn new(workload: Workload, seed: u64, seconds: u64, nproc: usize) -> Plan {
        let seconds = seconds.max(1);
        let models = CORPUS_MODELS_PER_SECOND * seconds as usize;
        match workload {
            Workload::CorpusCold => Plan {
                workload,
                seed,
                models,
                passes: 1,
                workers: nproc,
                setup_reps: SHORT_SETUP_REPS,
            },
            // Set-up is a whole cold pass here (about 10 s), so it is
            // measured once: a second measurement would add that much to
            // every run, and the runs of a set already give its median.
            Workload::CorpusRextract => Plan {
                workload,
                seed,
                models,
                passes: REXTRACT_PASSES,
                workers: nproc,
                setup_reps: 1,
            },
            Workload::Suite16Cold => Plan {
                workload,
                seed,
                models: 16,
                passes: (seconds as f64 * SUITE16_PASSES_PER_SECOND).ceil() as usize,
                workers: 1,
                setup_reps: SHORT_SETUP_REPS,
            },
        }
    }

    /// The timed phase's config: the default, k = 5.
    pub fn config(&self) -> SynthConfig {
        SynthConfig::new()
    }
}

/// corpus-rextract's set-up pass: the corpus cold at k = 1, which fills
/// the snapshot tier.
#[derive(Debug)]
pub struct Fill {
    /// The k = 1 jobs.
    pub jobs: Vec<BatchJob>,
    /// Their outcomes, in job order.
    pub outcomes: Vec<JobOutcome>,
    /// The snapshot tier it left, in key order.
    pub snapshots: Vec<(SnapshotKey, String)>,
}

/// What set-up leaves for the timed phase.
#[derive(Debug)]
pub struct Setup {
    /// The timed phase's jobs, in submission order.
    pub jobs: Vec<BatchJob>,
    /// corpus-rextract's filled snapshot tier.
    pub fill: Option<Fill>,
    /// Seconds from process start to the end of set-up.
    pub setup_s: f64,
    /// Seconds of input generation (or loading).
    pub gen_s: f64,
    /// Seconds of the process's first `Synthesizer::try_new`.
    pub rules_compile_s: f64,
    /// Peak RSS at the end of set-up.
    pub setup_rss_mb: f64,
}

/// Runs set-up once, from process start to the first timed job:
/// generating (or loading) the inputs, the process's first
/// `Synthesizer::try_new` (rule compile plus lint), and for
/// corpus-rextract filling the snapshot tier.
pub fn set_up(plan: &Plan, process_start: Instant, tracer: &Tracer) -> Result<Setup, String> {
    let config = plan.config();
    let t = Instant::now();
    let jobs = {
        let _span = tracer.span("setup", "gen");
        inputs(plan, &config)?
    };
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    {
        let _span = tracer.span("setup", "rules");
        Synthesizer::try_new(config.clone()).map_err(|e| format!("session: {e}"))?;
    }
    let rules_compile_s = t.elapsed().as_secs_f64();
    let fill = match plan.workload {
        Workload::CorpusRextract => {
            let _span = tracer.span("setup", "fill");
            Some(fill(plan, &jobs)?)
        }
        _ => None,
    };
    Ok(Setup {
        jobs,
        fill,
        setup_s: process_start.elapsed().as_secs_f64(),
        gen_s,
        rules_compile_s,
        setup_rss_mb: stats::peak_rss_mb()?,
    })
}

/// The workload's inputs as batch jobs at `config`, in the order the
/// seed shuffles them to.
fn inputs(plan: &Plan, config: &SynthConfig) -> Result<Vec<BatchJob>, String> {
    let mut jobs = match plan.workload {
        Workload::Suite16Cold => sz_batch::suite16_jobs(config),
        Workload::CorpusCold | Workload::CorpusRextract => {
            let spec: GenSpec = format!(
                "count={},seed={CORPUS_SEED},noise={CORPUS_NOISE}",
                plan.models
            )
            .parse()
            .map_err(|e| format!("corpus spec: {e:?}"))?;
            sz_batch::gen_jobs(&spec, config, None).0
        }
    };
    shuffle(&mut jobs, plan.seed);
    Ok(jobs)
}

/// A seeded Fisher–Yates shuffle (splitmix64), so the job order is an
/// input the seed determines.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A fresh cache whose snapshot tier is on (every job captures).
pub fn snapshot_cache() -> ResultCache {
    ResultCache::new().with_snapshot_budget(DEFAULT_SNAPSHOT_BUDGET)
}

/// corpus-rextract's set-up pass: the corpus cold at k = 1.
fn fill(plan: &Plan, jobs: &[BatchJob]) -> Result<Fill, String> {
    let config = plan.config().with_k(1);
    let fill_jobs: Vec<BatchJob> = jobs
        .iter()
        .map(|j| BatchJob::new(j.name.clone(), j.input.clone(), config.clone()))
        .collect();
    let cache = Arc::new(Mutex::new(snapshot_cache()));
    let report = BatchEngine::new()
        .with_workers(plan.workers)
        .with_cache(Arc::clone(&cache))
        .run(fill_jobs.clone());
    let mut problems = Vec::new();
    check_outcomes(&report.outcomes, jobs.len(), true, "set-up", &mut problems);
    let snapshots: Vec<(SnapshotKey, String)> = cache
        .lock()
        .expect("set-up cache lock poisoned")
        .snapshots()
        .map(|(k, t)| (k, t.to_owned()))
        .collect();
    if snapshots.len() != jobs.len() {
        problems.push(format!(
            "set-up stored {} snapshots for {} models",
            snapshots.len(),
            jobs.len()
        ));
    }
    if let Some(p) = problems.first() {
        return Err(format!("corpus-rextract set-up failed: {p}"));
    }
    Ok(Fill {
        jobs: fill_jobs,
        outcomes: report.outcomes,
        snapshots,
    })
}

/// A fresh cache for one timed pass, which no cheaper tier can serve:
/// empty for the cold workloads, and for corpus-rextract seeded only with
/// set-up's snapshots.
pub fn pass_cache(plan: &Plan, setup: &Setup) -> ResultCache {
    match (&setup.fill, plan.workload) {
        (Some(fill), _) => {
            let mut cache = snapshot_cache();
            for (key, text) in &fill.snapshots {
                cache.insert_snapshot(*key, text.clone());
            }
            cache
        }
        (None, Workload::CorpusCold) => snapshot_cache(),
        (None, _) => ResultCache::new(),
    }
}

/// The untraced timed phase.
#[derive(Debug)]
pub struct Timed {
    /// Each pass's outcomes, in job order.
    pub passes: Vec<Vec<JobOutcome>>,
    /// Wall seconds of the passes (`BatchEngine::run` only).
    pub wall_s: f64,
    /// Peak RSS of the timed phase.
    pub peak_rss_mb: f64,
    /// The snapshot tier the last pass left, in key order.
    pub snapshots: Vec<(SnapshotKey, String)>,
}

impl Timed {
    /// Every outcome of every pass.
    pub fn outcomes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.passes.iter().flatten()
    }

    /// Jobs attempted.
    pub fn attempted(&self) -> usize {
        self.passes.iter().map(Vec::len).sum()
    }

    /// Jobs that returned programs.
    pub fn ok(&self) -> usize {
        self.outcomes().filter(|o| is_ok(o)).count()
    }

    /// Ok models per wall second.
    pub fn models_per_s(&self) -> f64 {
        self.ok() as f64 / self.wall_s
    }

    /// Every job's own latency in milliseconds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes()
            .map(|o| o.time.as_secs_f64() * 1e3)
            .collect()
    }

    /// The median latency over models, each model's latency being the
    /// mean of its passes (with one pass, the median job latency). Not the
    /// median of its passes: where the machine switches between two speeds
    /// every few seconds, that median jumps from one speed's value to the
    /// other's, while the mean moves with the share of time each held.
    pub fn p50_ms(&self) -> f64 {
        let per_model: Vec<f64> = (0..self.passes[0].len())
            .map(|i| {
                self.passes
                    .iter()
                    .map(|p| p[i].time.as_secs_f64() * 1e3)
                    .sum::<f64>()
                    / self.passes.len() as f64
            })
            .collect();
        stats::median(&per_model)
    }
}

/// Whether a job returned programs (not rejected, panicked or cancelled).
pub fn is_ok(o: &JobOutcome) -> bool {
    matches!(o.status, JobStatus::Ok) && !o.cancelled() && !o.programs.is_empty()
}

/// Runs the timed passes through [`BatchEngine::run`], each on a fresh
/// cache, after resetting the peak RSS. `between(i)` runs untimed before
/// pass `i` and, with `i` = `plan.passes`, after the last pass.
pub fn run_timed(
    plan: &Plan,
    setup: &Setup,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<Timed, String> {
    stats::reset_peak_rss()?;
    let mut passes = Vec::with_capacity(plan.passes);
    let mut wall_s = 0.0;
    let mut last_cache = None;
    for pass in 0..plan.passes {
        between(pass)?;
        drop(last_cache.take());
        let cache = Arc::new(Mutex::new(pass_cache(plan, setup)));
        let jobs = setup.jobs.clone();
        let engine = BatchEngine::new()
            .with_workers(plan.workers)
            .with_cache(Arc::clone(&cache));
        let start = Instant::now();
        let report = engine.run(jobs);
        wall_s += start.elapsed().as_secs_f64();
        passes.push(report.outcomes);
        last_cache = Some(cache);
    }
    let peak_rss_mb = stats::peak_rss_mb()?;
    // Copied after the peak is read, so the copy does not count in it.
    let snapshots = last_cache.map_or_else(Vec::new, |cache| {
        cache
            .lock()
            .expect("timed cache lock poisoned")
            .snapshots()
            .map(|(k, t)| (k, t.to_owned()))
            .collect()
    });
    between(plan.passes)?;
    Ok(Timed {
        passes,
        wall_s,
        peak_rss_mb,
        snapshots,
    })
}

/// Checks one pass: every job ok and served by the expected tier.
pub fn check_outcomes(
    outcomes: &[JobOutcome],
    expected: usize,
    cold: bool,
    what: &str,
    problems: &mut Vec<String>,
) {
    if outcomes.len() != expected {
        problems.push(format!(
            "{what}: {} outcomes for {expected} jobs",
            outcomes.len()
        ));
    }
    for o in outcomes {
        if !is_ok(o) {
            problems.push(format!("{what}: {} ended {}", o.name, o.status.tag()));
        } else if o.cached {
            problems.push(format!("{what}: {} was a program-tier hit", o.name));
        } else if cold && o.snapshot_hit {
            problems.push(format!("{what}: cold job {} resumed a snapshot", o.name));
        } else if !cold && !o.snapshot_hit {
            problems.push(format!("{what}: {} did not resume its snapshot", o.name));
        }
    }
}

/// Checks every timed pass and that all passes agree byte for byte.
pub fn check_timed(plan: &Plan, setup: &Setup, timed: &Timed) -> Vec<String> {
    let mut problems = Vec::new();
    for (p, pass) in timed.passes.iter().enumerate() {
        let what = format!("timed pass {}", p + 1);
        check_outcomes(
            pass,
            setup.jobs.len(),
            plan.workload.is_cold(),
            &what,
            &mut problems,
        );
        for (a, b) in pass.iter().zip(&timed.passes[0]) {
            if a.name != b.name || a.programs != b.programs {
                problems.push(format!("{what}: {} differs from pass 1", a.name));
            }
        }
    }
    problems
}

/// The four deterministic quality metrics and the independent output
/// check behind `valid_ratio`.
#[derive(Debug)]
pub struct Quality {
    /// Models that returned programs / models attempted.
    pub ok_ratio: f64,
    /// Models whose best program passes validation / models attempted.
    pub valid_ratio: f64,
    /// Mean output/input node count of the best program.
    pub out_size_ratio: f64,
    /// Share of models whose top-k exposes a loop.
    pub structured_frac: f64,
    /// Models failing validation, with the reason.
    pub invalid: Vec<(String, String)>,
    /// Wall seconds of the validation.
    pub validate_s: f64,
}

/// Computes the quality metrics from the first timed pass and validates
/// every model's best program against its input with
/// [`sz_mesh::validate_program`], on `threads` threads. Programs that do
/// not parse or evaluate are added to `problems`.
pub fn quality(
    jobs: &[BatchJob],
    outcomes: &[JobOutcome],
    ok_ratio: f64,
    threads: usize,
    problems: &mut Vec<String>,
) -> Quality {
    let start = Instant::now();
    let tasks: Vec<_> = jobs
        .iter()
        .zip(outcomes)
        .map(|(job, o)| {
            move || -> Result<(bool, f64), String> {
                let (_, best) = o.programs.first().ok_or("no program")?;
                let program: Cad = best
                    .parse()
                    .map_err(|e| format!("unparsable output: {e}"))?;
                let v = sz_mesh::validate_program(&program, &job.input, VALIDATE_SAMPLES)
                    .map_err(|e| format!("output does not evaluate: {e}"))?;
                Ok((v.equivalent, v.volume.iou))
            }
        })
        .collect();
    let verdicts = sz_batch::run_tasks(tasks, threads);
    let validate_s = start.elapsed().as_secs_f64();
    let mut valid = 0usize;
    let mut invalid = Vec::new();
    for (o, verdict) in outcomes.iter().zip(verdicts) {
        match verdict {
            Ok(Ok((true, _))) => valid += 1,
            Ok(Ok((false, iou))) => invalid.push((o.name.clone(), format!("IoU {iou:.4}"))),
            Ok(Err(e)) => {
                problems.push(format!("validation: {}: {e}", o.name));
                invalid.push((o.name.clone(), e));
            }
            Err(panic) => {
                problems.push(format!(
                    "validation: {} panicked: {}",
                    o.name, panic.message
                ));
                invalid.push((o.name.clone(), "panicked".into()));
            }
        }
    }
    let rows: Vec<_> = outcomes.iter().filter_map(|o| o.row.as_ref()).collect();
    let n = outcomes.len().max(1) as f64;
    // Summed in sorted order, so the mean does not depend on the job order.
    let mut size_ratios: Vec<f64> = rows.iter().map(|r| r.o_ns as f64 / r.i_ns as f64).collect();
    size_ratios.sort_by(f64::total_cmp);
    Quality {
        ok_ratio,
        valid_ratio: valid as f64 / n,
        out_size_ratio: size_ratios.iter().sum::<f64>() / rows.len().max(1) as f64,
        structured_frac: rows.iter().filter(|r| r.rank.is_some()).count() as f64 / n,
        invalid,
        validate_s,
    }
}
