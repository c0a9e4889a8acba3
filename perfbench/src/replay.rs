//! The traced run: each job replayed layer by layer through the layers'
//! public functions, in the order `BatchEngine` and `Synthesizer::run`
//! make the calls, with one span per call.
//!
//! The replay covers what the workloads run: cold jobs (with or without
//! snapshot capture) and extraction-only resumes, under the default
//! config with no deadline. Its top-k must equal the engine's byte for
//! byte; when a layer's entry point changes, this file must follow, and
//! that comparison plus `job.other_s` show a stale replay.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sz_batch::{BatchJob, CachedRun, CoreKey, JobKey, ResultCache, SnapshotKey};
use sz_cad::Cad;
use sz_egraph::{KBestExtractor, Runner, Snapshot, StopReason};
use sz_trace::{ArgValue, Span, SpanGuard};
use szalinski::cost::ModelCost;
use szalinski::{
    cad_to_lang, infer_functions_with, infer_loops_with, lang_to_cad, list_manipulation,
    CadAnalysis, CadGraph, CadRewrite, PassControl, SatPhase, SynthConfig, SynthSnapshot, Tracer,
};

use crate::alloc::thread_allocs;

/// Exact per-layer counts of one or more replayed jobs. Every field is a
/// deterministic function of the inputs except the three `*_ns` fields,
/// which come from the runner's own iteration records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// E-nodes of the freshly built input graphs.
    pub egraph_input_nodes: u64,
    /// Saturation iterations.
    pub runner_iterations: u64,
    /// Rule matches found.
    pub runner_matches: u64,
    /// Rule applications that changed the graph.
    pub runner_applied: u64,
    /// E-nodes after saturation.
    pub runner_nodes: u64,
    /// E-classes after saturation.
    pub runner_classes: u64,
    /// Saturations stopped by a limit rather than saturating.
    pub runner_limit_stops: u64,
    /// Allocations inside `Runner::run`.
    pub runner_allocs: u64,
    /// Rule search time from the iteration records.
    pub runner_search_ns: u64,
    /// Rule apply time from the iteration records.
    pub runner_apply_ns: u64,
    /// Iteration time outside search and apply (rebuild and bookkeeping).
    pub runner_rebuild_ns: u64,
    /// Bytes of snapshot text the jobs serialized.
    pub snapshot_bytes: u64,
    /// Allocations in snapshot capture, parse and restore.
    pub snapshot_allocs: u64,
    /// Sorted-list variants list manipulation added.
    pub listmanip_variants: u64,
    /// Allocations inside `list_manipulation`.
    pub listmanip_allocs: u64,
    /// Function-inference records.
    pub funcinfer_records: u64,
    /// Allocations inside `infer_functions_with`.
    pub funcinfer_allocs: u64,
    /// Loop-inference records.
    pub loopinfer_records: u64,
    /// Allocations inside `infer_loops_with`.
    pub loopinfer_allocs: u64,
    /// E-nodes after the inference passes.
    pub infer_nodes: u64,
    /// Candidates `find_best_k` returned.
    pub extract_candidates: u64,
    /// Candidates dropped as non-CAD or duplicate before k were kept.
    pub extract_dropped: u64,
    /// Allocations in table build, materialization and dedup.
    pub extract_allocs: u64,
    /// Jobs served by the program tier.
    pub program_hits: u64,
    /// Jobs resumed from the snapshot tier.
    pub snapshot_hits: u64,
    /// Jobs no tier served.
    pub misses: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        let Counts {
            egraph_input_nodes,
            runner_iterations,
            runner_matches,
            runner_applied,
            runner_nodes,
            runner_classes,
            runner_limit_stops,
            runner_allocs,
            runner_search_ns,
            runner_apply_ns,
            runner_rebuild_ns,
            snapshot_bytes,
            snapshot_allocs,
            listmanip_variants,
            listmanip_allocs,
            funcinfer_records,
            funcinfer_allocs,
            loopinfer_records,
            loopinfer_allocs,
            infer_nodes,
            extract_candidates,
            extract_dropped,
            extract_allocs,
            program_hits,
            snapshot_hits,
            misses,
        } = self;
        *egraph_input_nodes += o.egraph_input_nodes;
        *runner_iterations += o.runner_iterations;
        *runner_matches += o.runner_matches;
        *runner_applied += o.runner_applied;
        *runner_nodes += o.runner_nodes;
        *runner_classes += o.runner_classes;
        *runner_limit_stops += o.runner_limit_stops;
        *runner_allocs += o.runner_allocs;
        *runner_search_ns += o.runner_search_ns;
        *runner_apply_ns += o.runner_apply_ns;
        *runner_rebuild_ns += o.runner_rebuild_ns;
        *snapshot_bytes += o.snapshot_bytes;
        *snapshot_allocs += o.snapshot_allocs;
        *listmanip_variants += o.listmanip_variants;
        *listmanip_allocs += o.listmanip_allocs;
        *funcinfer_records += o.funcinfer_records;
        *funcinfer_allocs += o.funcinfer_allocs;
        *loopinfer_records += o.loopinfer_records;
        *loopinfer_allocs += o.loopinfer_allocs;
        *infer_nodes += o.infer_nodes;
        *extract_candidates += o.extract_candidates;
        *extract_dropped += o.extract_dropped;
        *extract_allocs += o.extract_allocs;
        *program_hits += o.program_hits;
        *snapshot_hits += o.snapshot_hits;
        *misses += o.misses;
    }

    /// The counts that must repeat exactly across runs (everything but
    /// the runner's search/apply/rebuild times).
    pub fn exact(&self) -> Counts {
        Counts {
            runner_search_ns: 0,
            runner_apply_ns: 0,
            runner_rebuild_ns: 0,
            ..self.clone()
        }
    }
}

/// `(cost, program)` pairs, cheapest first.
type TopK = Vec<(usize, Cad)>;

/// One replayed job.
#[derive(Debug)]
pub struct Replayed {
    /// `(cost, program)` of the top-k, as `JobOutcome::programs` holds them.
    pub programs: Vec<(usize, String)>,
    /// The job's layer counts.
    pub counts: Counts,
}

/// Opens spans that carry the job's id, so a job's layer spans can be
/// told apart from other jobs' on the same thread.
struct JobSpans<'a> {
    tracer: &'a Tracer,
    id: i64,
}

impl JobSpans<'_> {
    fn span(&self, layer: &'static str, call: &'static str) -> SpanGuard {
        let mut span = self.tracer.span(layer, call);
        span.arg_i64("job", self.id);
        span
    }

    /// Runs `f` inside a span, adding its allocations to `allocs`.
    fn call<T>(
        &self,
        layer: &'static str,
        call: &'static str,
        allocs: &mut u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let _span = self.span(layer, call);
        let before = thread_allocs();
        let out = f();
        *allocs += thread_allocs() - before;
        out
    }
}

/// Replays one job against `cache` (see the module docs for the order of
/// calls).
pub fn replay_job(
    job: &BatchJob,
    id: i64,
    cache: &Mutex<ResultCache>,
    rules: &[CadRewrite],
    tracer: &Tracer,
) -> Result<Replayed, String> {
    let config = &job.config;
    let s = JobSpans { tracer, id };
    let mut job_span = s.span("job", "job");
    job_span.arg_str("name", job.name.clone());
    let start = Instant::now();
    let mut c = Counts::default();

    // The engine's program-tier lookup, then the snapshot-tier offer.
    let (key, skey, hit, capture, text) = {
        let _span = s.span("cache", "lookup");
        let key = JobKey::of(&job.input, config);
        let skey = SnapshotKey::of(&job.input, config);
        let hit = cache.lock().expect("cache lock poisoned").get(key).cloned();
        let capture =
            hit.is_none() && cache.lock().expect("cache lock poisoned").snapshot_budget() > 0;
        let text = hit.is_none().then(|| {
            let cache = cache.lock().expect("cache lock poisoned");
            cache.get_snapshot(skey).map(str::to_owned).or_else(|| {
                cache
                    .best_core_snapshot(CoreKey::of(&job.input, config), config)
                    .map(|(_, text)| text.to_owned())
            })
        });
        (key, skey, hit, capture, text.flatten())
    };
    if let Some(run) = hit {
        c.program_hits = 1;
        let programs = run
            .programs
            .iter()
            .map(|(cost, cad)| (*cost, cad.to_string()))
            .collect();
        return Ok(Replayed {
            programs,
            counts: c,
        });
    }
    let snapshot = match text {
        Some(text) => s.call("snapshot", "parse", &mut c.snapshot_allocs, || {
            text.parse::<SynthSnapshot>().ok()
        }),
        None => None,
    };

    // `Synthesizer::run`: the flat-input contract, then the dispatch.
    if !job.input.is_flat_csg() {
        return Err(format!("{}: input is not flat", job.name));
    }
    let (top_k, stored) = match snapshot {
        Some(snapshot) => {
            let exact = snapshot.input_sexp() == job.input.to_string()
                && snapshot.saturation_fingerprint() == config.saturation_fingerprint()
                && snapshot.egraph_snapshot().roots().len() == 1;
            if !exact {
                return Err(format!(
                    "{}: the replay covers extraction resumes only, not partial resumes",
                    job.name
                ));
            }
            c.snapshot_hits = 1;
            let root = snapshot.egraph_snapshot().roots()[0];
            let egraph = s.call("snapshot", "restore", &mut c.snapshot_allocs, || {
                snapshot.egraph_snapshot().restore(CadAnalysis)
            });
            (extract(&egraph, root, config, &s, &mut c), None)
        }
        None => {
            c.misses = 1;
            cold(job, rules, capture, &s, &mut c)?
        }
    };

    // The engine's inserts: the program tier, and a cold run's snapshot.
    let programs: Vec<(usize, String)> = top_k
        .iter()
        .map(|(cost, cad)| (*cost, cad.to_string()))
        .collect();
    {
        let _span = s.span("cache", "insert");
        let mut cache = cache.lock().expect("cache lock poisoned");
        cache.insert(
            key,
            CachedRun {
                programs: top_k,
                time_s: start.elapsed().as_secs_f64(),
            },
        );
        if let Some(text) = stored {
            cache.insert_snapshot(skey, text);
        }
    }
    Ok(Replayed {
        programs,
        counts: c,
    })
}

/// A cold run: build, saturate, infer, capture, extract. Returns the
/// top-k and the snapshot text the engine would store.
fn cold(
    job: &BatchJob,
    rules: &[CadRewrite],
    capture: bool,
    s: &JobSpans<'_>,
    c: &mut Counts,
) -> Result<(TopK, Option<String>), String> {
    let config = &job.config;
    let (egraph, root) = {
        let _span = s.span("egraph", "build");
        let expr = cad_to_lang(&job.input);
        let mut egraph = CadGraph::new(CadAnalysis);
        let root = egraph.add_expr(&expr);
        egraph.rebuild();
        (egraph, root)
    };
    c.egraph_input_nodes = egraph.total_number_of_nodes() as u64;

    // The default config runs the simple scheduler, the runner's default.
    // The session also sets the config's saturation time limit, which never
    // binds here; the replay leaves the runner's default.
    let mut runner = s.call("runner", "run", &mut c.runner_allocs, || {
        Runner::new(CadAnalysis)
            .with_egraph(egraph)
            .with_iter_limit(config.iter_limit)
            .with_node_limit(config.node_limit)
            .run(rules)
    });
    for it in &runner.iterations {
        c.runner_iterations += 1;
        let mut busy = Duration::ZERO;
        for r in &it.rules {
            c.runner_matches += r.matches as u64;
            c.runner_applied += r.applied as u64;
            c.runner_search_ns += r.search_time.as_nanos() as u64;
            c.runner_apply_ns += r.apply_time.as_nanos() as u64;
            busy += r.search_time + r.apply_time;
        }
        c.runner_rebuild_ns += it.time.saturating_sub(busy).as_nanos() as u64;
    }
    c.runner_nodes = runner.egraph.total_number_of_nodes() as u64;
    c.runner_classes = runner.egraph.number_of_classes() as u64;
    let saturated = runner.stop_reason == Some(StopReason::Saturated);
    if !saturated {
        c.runner_limit_stops = 1;
    }
    if runner.stop_reason == Some(StopReason::Cancelled) {
        return Err(format!("{}: saturation was cancelled", job.name));
    }
    let iterations = runner.prior_iterations + runner.iterations.len();
    let rule_stats = runner.rule_totals();
    let sat_phase = if capture {
        s.call("snapshot", "capture", &mut c.snapshot_allocs, || {
            runner.roots = vec![root];
            runner.snapshot().ok()
        })
    } else {
        None
    };
    let mut egraph = runner.egraph;

    // The inference passes, each followed by a rebuild as the session does.
    let ctl = PassControl::new();
    let variants = s.call("listmanip", "run", &mut c.listmanip_allocs, || {
        list_manipulation(&mut egraph)
    });
    c.listmanip_variants = variants as u64;
    s.call("infer", "rebuild", &mut 0, || egraph.rebuild());
    let (records, truncated) = s.call("funcinfer", "run", &mut c.funcinfer_allocs, || {
        infer_functions_with(&mut egraph, config.eps, &ctl)
    });
    c.funcinfer_records = records.len() as u64;
    s.call("infer", "rebuild", &mut 0, || egraph.rebuild());
    let (records, loops_truncated) = s.call("loopinfer", "run", &mut c.loopinfer_allocs, || {
        infer_loops_with(&mut egraph, config.eps, &ctl)
    });
    c.loopinfer_records = records.len() as u64;
    s.call("infer", "rebuild", &mut 0, || egraph.rebuild());
    if truncated || loops_truncated {
        return Err(format!("{}: inference was truncated", job.name));
    }
    c.infer_nodes = egraph.total_number_of_nodes() as u64;

    let snapshot = if capture {
        s.call("snapshot", "capture", &mut c.snapshot_allocs, || {
            Snapshot::of_egraph(&egraph, &[root]).ok().map(|snap| {
                let synth =
                    SynthSnapshot::new(&job.input, config, snap.with_iterations(iterations));
                match sat_phase {
                    Some(phase) => synth
                        .with_sat_phase(SatPhase::new(config, phase).with_rule_stats(rule_stats)),
                    None => synth,
                }
            })
        })
    } else {
        None
    };
    let top_k = extract(&egraph, root, config, s, c);
    // The engine stores a saturated run's snapshot without its
    // saturation-phase section.
    let stored = snapshot.map(|snapshot| {
        s.call("snapshot", "capture", &mut c.snapshot_allocs, || {
            if saturated {
                snapshot.without_sat_phase().to_string()
            } else {
                snapshot.to_string()
            }
        })
    });
    c.snapshot_bytes = stored.as_ref().map_or(0, |t| t.len() as u64);
    Ok((top_k, stored))
}

/// `extract_top_k`: the k-best table over the whole graph with 2k
/// entries per class, its candidates for the root, then conversion to
/// CAD terms with duplicates dropped.
fn extract(
    egraph: &CadGraph,
    root: sz_egraph::Id,
    config: &SynthConfig,
    s: &JobSpans<'_>,
    c: &mut Counts,
) -> TopK {
    let mut allocs = 0;
    let kbest = s.call("extract", "table", &mut allocs, || {
        KBestExtractor::new(
            egraph,
            ModelCost(Arc::clone(&config.cost_model)),
            config.k * 2,
        )
    });
    let candidates = s.call("extract", "materialize", &mut allocs, || {
        kbest.find_best_k(root)
    });
    c.extract_candidates = candidates.len() as u64;
    let mut dropped = 0;
    let top_k = s.call("extract", "dedup", &mut allocs, || {
        let mut top_k: TopK = Vec::new();
        for (cost, e) in candidates {
            let Ok(cad) = lang_to_cad(&e) else {
                dropped += 1;
                continue;
            };
            if top_k.iter().any(|(_, p)| *p == cad) {
                dropped += 1;
                continue;
            }
            top_k.push((cost.primary() as usize, cad));
            if top_k.len() >= config.k {
                break;
            }
        }
        top_k
    });
    drop(kbest);
    c.extract_dropped = dropped;
    c.extract_allocs = allocs;
    top_k
}

/// One replayed pass over a job list.
#[derive(Debug)]
pub struct ReplayPass {
    /// Each job's replay, in job order.
    pub jobs: Vec<Result<Replayed, String>>,
    /// Wall seconds of the pass.
    pub wall_s: f64,
    /// Snapshot-tier evictions in the pass's cache.
    pub evictions: usize,
    /// Bytes the pass's snapshot tier held at the end.
    pub snapshot_bytes: usize,
    /// The pass's snapshot tier, in key order.
    pub snapshots: Vec<(SnapshotKey, String)>,
}

/// Replays `jobs` on the batch pool (`sz_batch::run_tasks`) against
/// `cache`; job ids start at `first_id`.
pub fn replay_pass(
    jobs: &[BatchJob],
    first_id: i64,
    cache: ResultCache,
    workers: usize,
    rules: &[CadRewrite],
    tracer: &Tracer,
) -> ReplayPass {
    let cache = Mutex::new(cache);
    let start = Instant::now();
    let tasks: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let cache = &cache;
            move || replay_job(job, first_id + i as i64, cache, rules, tracer)
        })
        .collect();
    let results = sz_batch::run_tasks(tasks, workers);
    let wall_s = start.elapsed().as_secs_f64();
    let cache = cache.into_inner().expect("cache lock poisoned");
    ReplayPass {
        jobs: results
            .into_iter()
            .map(|r| r.map_err(|p| format!("replay panicked: {}", p.message))?)
            .collect(),
        wall_s,
        evictions: cache.evictions(),
        snapshot_bytes: cache.snapshot_bytes(),
        snapshots: cache.snapshots().map(|(k, t)| (k, t.to_owned())).collect(),
    }
}

/// Sums the counts of every replayed job.
pub fn total_counts<'a>(passes: impl IntoIterator<Item = &'a ReplayPass>) -> Counts {
    let mut total = Counts::default();
    for pass in passes {
        for job in pass.jobs.iter().flatten() {
            total.add(&job.counts);
        }
    }
    total
}

/// Seconds per `layer.call` span, summed over spans, where a `job` span
/// counts only its self time (its duration minus the layer spans that
/// carry its id): that residual is `job.other`.
pub fn span_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let job_of = |span: &Span| {
        span.args.iter().find_map(|(k, v)| match (k, v) {
            (&"job", ArgValue::Int(id)) => Some(*id),
            _ => None,
        })
    };
    let mut covered: BTreeMap<i64, u64> = BTreeMap::new();
    let mut total: BTreeMap<String, u64> = BTreeMap::new();
    for span in spans {
        let name = format!("{}.{}", span.cat, span.name);
        *total.entry(name).or_default() += span.dur_us;
        if span.cat != "job" {
            if let Some(id) = job_of(span) {
                *covered.entry(id).or_default() += span.dur_us;
            }
        }
    }
    let covered_us: u64 = covered.values().sum();
    if let Some(job) = total.get_mut("job.job") {
        *job = job.saturating_sub(covered_us);
    }
    total
        .into_iter()
        .map(|(k, us)| (k, us as f64 / 1e6))
        .collect()
}
