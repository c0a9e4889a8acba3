//! `szb` — batch synthesis CLI.
//!
//! Decompiles a whole corpus (a directory of `.scad`/`.csexp` files, or
//! the paper's 16-model suite) end-to-end: parse → synthesize → emit
//! structured OpenSCAD, in parallel, with a persistent result cache and
//! a JSON-lines report.
//!
//! ```text
//! szb --suite16 --workers 4 --cache warm.sexp
//! szb models/ --out decompiled/ --report BENCH_batch.json
//! szb models/ --shard 2/4 --snapshots snaps/ --report shard2.jsonl
//! szb merge merged.jsonl shard1.jsonl shard2.jsonl shard3.jsonl shard4.jsonl
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sz_batch::{
    attach_snapshot_dir, dir_jobs, gen_jobs, merge_reports, sanitize_name, save_snapshot_dir,
    suite16_jobs, summary_record, BatchEngine, BatchJob, JobStatus, ResultCache, ShardSpec,
    StreamSink,
};
use sz_gen::GenSpec;
use szalinski::{
    parse_cost_spec, CostSpec, RuleStat, SynthConfig, TableRow, Telemetry, COST_SPEC_GRAMMAR,
};

const USAGE: &str = "\
szb — parallel batch synthesis over a model corpus

USAGE:
    szb [OPTIONS] <INPUT_DIR>
    szb [OPTIONS] --suite16
    szb [OPTIONS] --gen <SPEC>
    szb merge [--cache] <OUT> <IN>...
    szb lint [--json] [--rules] [--suite16] [<DIR>...]

INPUT:
    <INPUT_DIR>            directory of .scad / .csexp models (non-recursive)
    --suite16              the paper's 16-model Table-1 corpus
    --gen <SPEC>           a generated synthetic corpus, streamed straight into
                           memory — no files touch disk. Jobs are named
                           gen:<seed>:<index> and each model derives from
                           (seed, index) alone, so --shard generates only the
                           models it owns yet `szb merge` reassembles exactly
                           the unsharded corpus. Spec grammar: `szgen --help`
                           (empty SPEC = the generator defaults)

EXECUTION:
    --workers <N>          worker threads (default: available cores); with 1,
                           jobs run and stream their report rows in input order
    --shard <i/N>          run only the i-th of N shards (1-based). Membership
                           is a stable hash of the job NAME — never directory
                           order — so all N processes agree on the partition
                           on any machine and across releases. Fold the
                           per-shard reports/caches afterwards with `szb merge`
    --per-job-timeout <S>  per-job wall-clock deadline: cancels the job
                           cooperatively at the next iteration boundary
                           (stop_reason \"cancelled\"; never cached). A job it
                           does not stop hits and fills the same cache and
                           snapshot entries as a run without it
    --deadline <SECS>      wall-clock deadline for the WHOLE run: jobs past it
                           are cancelled cooperatively but still emit their
                           partial (less saturated) programs

CACHE & OUTPUT:
    --cache <FILE>         persistent program cache (loaded before, saved after):
                           the top-k programs per (input, config), never
                           snapshots. Saving MERGES with whatever is on disk
                           (newest wins), via a unique per-process temp file,
                           so concurrent shards can share one cache file
    --snapshots <DIR>      persistent e-graph snapshot tier, the only place
                           snapshots are kept: cold runs store one <key>.snap
                           per (input, saturation-config); later runs
                           whose config differs only in extraction fields
                           (--k, any --cost model) resume from it, skipping
                           saturation entirely, and fuel-RAISED reruns resume
                           mid-saturation from the best lower-fuel snapshot
                           (core-key index). The dir may be shared by
                           concurrent processes: each writer uses unique temp
                           names and only ever deletes .snap files for keys it
                           itself evicted under the byte budget — never
                           another process's work
    --report <FILE>        JSON-lines report (default: BENCH_batch.json; 'none' disables).
                           Rows are STREAMED: each job's record is appended and
                           flushed the moment it finishes, so a killed run keeps
                           every completed row; the aggregate summary line is
                           appended at the end
    --out <DIR>            write each job's best program as <name>.scad and <name>.csexp

OBSERVABILITY:
    --trace <FILE>         write a Chrome trace-event JSON file (load in
                           chrome://tracing or https://ui.perfetto.dev): per-job
                           batch spans, per-phase pipeline spans (saturation /
                           inference / extraction / snapshot capture+restore),
                           and per-iteration runner spans (search/apply/rebuild,
                           per-rule e-matching)
    --metrics <FILE>       write a metrics JSON dump: counters (cache tiers, run
                           modes, runner iterations), gauges (e-graph size, pool
                           queue depth), histograms with p50/p90/p99 (job latency)
    --stats                print a human-readable phase summary and per-rule
                           table after the run

SYNTHESIS FUEL:
    --k <N>                top-k programs to return        (default 5)
    --eps <X>              solver tolerance                (default 1e-3)
    --iter-limit <N>       saturation iteration limit      (default 150)
    --node-limit <N>       saturation e-node limit         (default 200000)
    --structural-rules     include assoc/comm boolean rules
    --backoff              throttle explosive rules (backoff scheduler)

EXTRACTION COST:
    --cost <SPEC>          extraction cost model (default: ast-size).
                           With pareto(A,B), ranked output uses A and each
                           job's JSONL record gains a `pareto` front array.

  <SPEC> grammar:
{grammar}

MERGE (fleet runs):
    szb merge <OUT> <IN>...          fold per-shard JSONL reports into one:
                                     job rows dedupe by name (newest input
                                     wins) and sort; the summary is recomputed
                                     from the kept rows (workers summed,
                                     wall_time_s = max over shards)
    szb merge --cache <OUT> <IN>...  fold per-shard program cache files
                                     (duplicate keys newest-wins)

LINT (static analysis; no synthesis runs):
    szb lint [<DIR>...]              lint a corpus dir (.scad/.csexp); with no
                                     target, lints the built-in rule set and
                                     the 16-model suite (what CI pins)
    szb lint --rules --suite16       explicit targets, combinable with dirs
    szb lint --json models/          one-line JSON report
                                     Diagnostic codes are stable: SZL0xx rule
                                     hygiene (001 unbound rhs var, 002 unused
                                     lhs var, 003/004 duplicates, 005 inverse
                                     pairs, 006 expansive), SZL1xx compiled
                                     e-match programs, SZL2xx CAD inputs (200
                                     unparseable file, 201 non-finite, 202
                                     zero scale, 203 empty operand, 204
                                     identity no-op, 205 bad count, 206
                                     ill-sorted). Exit 1 iff deny findings;
                                     see `szb lint --help`

MISC:
    --quiet                suppress the per-job table
    --help                 show this text
";

/// Prints per-rule lifetime totals merged across every job, sorted by
/// match count descending (rules that never matched are elided).
fn print_rule_table<'a>(stats: impl IntoIterator<Item = &'a RuleStat>) {
    let mut totals: Vec<RuleStat> = Vec::new();
    RuleStat::fold_by_name(&mut totals, stats.into_iter().cloned());
    totals.retain(|s| s.matches > 0);
    totals.sort_by(|a, b| b.matches.cmp(&a.matches).then(a.name.cmp(&b.name)));
    if totals.is_empty() {
        return;
    }
    let width = totals
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    println!("rule summary");
    println!(
        "  {:<width$}  {:>9}  {:>9}  {:>6}  {:>10}  {:>10}",
        "rule", "matches", "applied", "bans", "search_s", "apply_s"
    );
    for s in &totals {
        println!(
            "  {:<width$}  {:>9}  {:>9}  {:>6}  {:>10.4}  {:>10.4}",
            s.name,
            s.matches,
            s.applied,
            s.times_banned,
            s.search_time.as_secs_f64(),
            s.apply_time.as_secs_f64(),
        );
    }
}

/// `USAGE` with the `--cost` grammar spliced in.
fn usage() -> String {
    let grammar: String = COST_SPEC_GRAMMAR
        .lines()
        .map(|l| format!("    {l}\n"))
        .collect();
    USAGE.replace("{grammar}", grammar.trim_end())
}

struct Options {
    input_dir: Option<PathBuf>,
    suite16: bool,
    gen: Option<GenSpec>,
    shard: Option<ShardSpec>,
    workers: Option<usize>,
    per_job_timeout: Option<Duration>,
    deadline: Option<Duration>,
    cache: Option<PathBuf>,
    snapshots: Option<PathBuf>,
    report: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    stats: bool,
    config: SynthConfig,
    quiet: bool,
}

/// Parses a positive, finite seconds value (`Duration::from_secs_f64`
/// panics on NaN/negative/infinite input, so reject those up front).
fn parse_secs(flag: &str, text: &str) -> Result<Duration, String> {
    let secs: f64 = text.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{flag} must be a positive number of seconds"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input_dir: None,
        suite16: false,
        gen: None,
        shard: None,
        workers: None,
        per_job_timeout: None,
        deadline: None,
        cache: None,
        snapshots: None,
        report: Some(PathBuf::from("BENCH_batch.json")),
        out_dir: None,
        trace: None,
        metrics: None,
        stats: false,
        config: SynthConfig::new(),
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--suite16" => opts.suite16 = true,
            "--gen" => {
                opts.gen = Some(value()?.parse().map_err(|e| format!("--gen: {e}"))?);
            }
            "--structural-rules" => opts.config = opts.config.clone().with_structural_rules(true),
            "--backoff" => opts.config = opts.config.clone().with_backoff(true),
            // The last --cost wins outright, including clearing a
            // pareto(...) requested by an earlier one.
            "--cost" => {
                opts.config.pareto = None;
                opts.config = match parse_cost_spec(value()?).map_err(|e| format!("--cost: {e}"))? {
                    CostSpec::Single(model) => opts.config.clone().with_cost_model(model),
                    // Ranked top-k output follows the first objective;
                    // the front itself lands in the JSONL report.
                    CostSpec::Pareto(a, b) => opts
                        .config
                        .clone()
                        .with_cost_model(Arc::clone(&a))
                        .with_pareto(a, b),
                };
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            "--workers" => {
                opts.workers = Some(value()?.parse().map_err(|e| format!("--workers: {e}"))?);
            }
            "--shard" => opts.shard = Some(value()?.parse().map_err(|e| format!("--shard: {e}"))?),
            "--per-job-timeout" => {
                opts.per_job_timeout = Some(parse_secs("--per-job-timeout", value()?)?);
            }
            "--deadline" => {
                opts.deadline = Some(parse_secs("--deadline", value()?)?);
            }
            "--cache" => opts.cache = Some(PathBuf::from(value()?)),
            "--snapshots" => opts.snapshots = Some(PathBuf::from(value()?)),
            "--report" => {
                let v = value()?;
                opts.report = (v != "none").then(|| PathBuf::from(v));
            }
            "--out" => opts.out_dir = Some(PathBuf::from(value()?)),
            "--trace" => opts.trace = Some(PathBuf::from(value()?)),
            "--metrics" => opts.metrics = Some(PathBuf::from(value()?)),
            "--stats" => opts.stats = true,
            "--k" => {
                let k: usize = value()?.parse().map_err(|e| format!("--k: {e}"))?;
                if k == 0 {
                    return Err("--k must be at least 1".into());
                }
                opts.config = opts.config.clone().with_k(k);
            }
            "--eps" => {
                opts.config = opts
                    .config
                    .clone()
                    .with_eps(value()?.parse().map_err(|e| format!("--eps: {e}"))?);
            }
            "--iter-limit" => {
                opts.config = opts
                    .config
                    .clone()
                    .with_iter_limit(value()?.parse().map_err(|e| format!("--iter-limit: {e}"))?);
            }
            "--node-limit" => {
                opts.config = opts
                    .config
                    .clone()
                    .with_node_limit(value()?.parse().map_err(|e| format!("--node-limit: {e}"))?);
            }
            other if !other.starts_with('-') && opts.input_dir.is_none() => {
                opts.input_dir = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let inputs = usize::from(opts.input_dir.is_some())
        + usize::from(opts.suite16)
        + usize::from(opts.gen.is_some());
    match inputs {
        0 => Err("no input: give a directory of models, --suite16, or --gen <spec>".into()),
        1 => Ok(opts),
        _ => Err("give exactly one input: a directory, --suite16, or --gen <spec>".into()),
    }
}

/// `szb merge <OUT> <IN>...` (JSONL reports) and
/// `szb merge --cache <OUT> <IN>...` (program cache files).
fn run_merge(args: &[String]) -> ExitCode {
    let (cache_mode, rest) = match args.first().map(String::as_str) {
        Some("--cache") => (true, &args[1..]),
        _ => (false, args),
    };
    let Some((out, inputs)) = rest.split_first().filter(|(_, inputs)| !inputs.is_empty()) else {
        eprintln!("szb: merge needs an output path and at least one input");
        eprintln!("usage: szb merge [--cache] <OUT> <IN>...");
        return ExitCode::from(2);
    };
    if cache_mode {
        // Fold cache files in the order given: later inputs win on
        // duplicate keys.
        let mut merged = ResultCache::new();
        for path in inputs {
            match ResultCache::load(Path::new(path)) {
                Ok(cache) => merged.absorb(cache),
                Err(e) => {
                    eprintln!("szb: cannot load cache {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        if let Err(e) = merged.save(Path::new(out)) {
            eprintln!("szb: cannot save merged cache {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "szb: merged {} cache file(s) into {out} ({} programs)",
            inputs.len(),
            merged.len(),
        );
    } else {
        let mut texts = Vec::with_capacity(inputs.len());
        for path in inputs {
            match std::fs::read_to_string(path) {
                Ok(text) => texts.push(text),
                Err(e) => {
                    eprintln!("szb: cannot read report {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        let merged = match merge_reports(&texts) {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!("szb: merge failed: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(out, &merged) {
            eprintln!("szb: cannot write merged report {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "szb: merged {} report(s) into {out} ({} job rows)",
            inputs.len(),
            merged.lines().count().saturating_sub(1),
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return run_merge(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("lint") {
        return sz_batch::run_lint_cli(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("szb: {msg}");
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };

    // Enumerate the corpus. Generated corpora shard during enumeration
    // (membership is decided on the name alone), so a fleet worker
    // never pays generation cost for models it does not own; file and
    // suite corpora shard after enumeration as before. Either way the
    // partition is the same stable name hash, so `szb merge` sees one
    // coherent corpus.
    let mut jobs: Vec<BatchJob> = if let Some(spec) = &opts.gen {
        let (jobs, dropped) = gen_jobs(spec, &opts.config, opts.shard);
        if !opts.quiet {
            match opts.shard {
                Some(shard) => println!(
                    "szb: gen `{}`: shard {shard}: {} of {} jobs (in memory; rest owned by other shards)",
                    spec.canonical(),
                    jobs.len(),
                    jobs.len() + dropped,
                ),
                None => println!(
                    "szb: gen `{}`: {} jobs (in memory)",
                    spec.canonical(),
                    jobs.len(),
                ),
            }
        }
        jobs
    } else if opts.suite16 {
        suite16_jobs(&opts.config)
    } else {
        let dir = opts.input_dir.as_ref().unwrap();
        match dir_jobs(dir, &opts.config) {
            Ok((jobs, skips)) => {
                for skip in &skips {
                    eprintln!("szb: skipping {skip}");
                }
                jobs
            }
            Err(e) => {
                eprintln!("szb: cannot scan {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    };
    // An empty *generated* shard is a normal fleet outcome (the empty
    // report still reaches `szb merge`); an empty directory or suite is
    // a user error. Generated corpora are never empty pre-shard
    // (count >= 1 by spec validation).
    if jobs.is_empty() && opts.gen.is_none() {
        eprintln!("szb: no models to run");
        return ExitCode::from(2);
    }
    // Shard filtering for file/suite corpora happens after enumeration,
    // by stable name hash, so every shard sees — and partitions — the
    // same corpus. An empty shard is a normal fleet outcome, not an
    // error: it still writes its (empty) report so `szb merge` sees
    // every shard.
    if let (Some(shard), None) = (opts.shard, &opts.gen) {
        let dropped = shard.filter(&mut jobs);
        if !opts.quiet {
            println!(
                "szb: shard {shard}: {} of {} jobs (rest owned by other shards)",
                jobs.len(),
                jobs.len() + dropped,
            );
        }
    }

    // Warm the cache from disk if requested. A --snapshots dir implies a
    // cache (in-memory program tier) even without --cache, and grants
    // the snapshot tier its byte budget.
    let mut loaded_cache = match &opts.cache {
        Some(path) => match ResultCache::load(path) {
            Ok(cache) => {
                if !opts.quiet && !cache.is_empty() {
                    println!(
                        "cache: loaded {} entries from {}",
                        cache.len(),
                        path.display()
                    );
                }
                Some(cache)
            }
            Err(e) => {
                eprintln!("szb: cannot load cache: {e}");
                return ExitCode::from(2);
            }
        },
        None => opts.snapshots.is_some().then(ResultCache::new),
    };
    if let (Some(dir), Some(cache)) = (&opts.snapshots, &mut loaded_cache) {
        match attach_snapshot_dir(cache, dir) {
            Ok(n) => {
                if !opts.quiet && n > 0 {
                    println!("snapshots: loaded {n} from {}", dir.display());
                }
            }
            Err(e) => {
                eprintln!("szb: cannot load snapshots from {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    let cache = loaded_cache.map(|c| Arc::new(Mutex::new(c)));

    // Telemetry is recorded only when some surface will consume it;
    // otherwise the disabled bundle keeps the hot paths span-free.
    let telemetry = if opts.trace.is_some() || opts.metrics.is_some() || opts.stats {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    let mut engine = BatchEngine::new().with_telemetry(telemetry.clone());
    if let Some(workers) = opts.workers {
        engine = engine.with_workers(workers);
    }
    if let Some(timeout) = opts.per_job_timeout {
        engine = engine.with_deadline(timeout);
    }
    if let Some(deadline) = opts.deadline {
        engine = engine.with_batch_deadline(deadline);
    }
    if let Some(cache) = &cache {
        engine = engine.with_cache(Arc::clone(cache));
    }

    // Open the JSONL report *before* the run and stream rows into it as
    // jobs finish (flushed per row), so an interrupted batch keeps every
    // completed record; the summary line is appended after the run.
    let report_sink = match &opts.report {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(StreamSink::new(file)),
            Err(e) => {
                eprintln!("szb: cannot create report {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    if let Some(sink) = &report_sink {
        engine = engine.with_stream(sink.clone());
    }

    let n_jobs = jobs.len();
    if !opts.quiet {
        println!(
            "szb: {n_jobs} jobs, {}",
            match opts.workers {
                Some(w) => format!("{w} workers"),
                None => "auto workers".to_owned(),
            },
        );
    }
    let report = engine.run(jobs);

    // Per-job table.
    if !opts.quiet {
        println!();
        println!("{}  cached", TableRow::header());
        println!("{}", "-".repeat(126));
        for outcome in &report.outcomes {
            match (&outcome.status, &outcome.row) {
                (JobStatus::Ok, Some(row)) => println!(
                    "{}  {}",
                    row.format(),
                    if outcome.cached { "yes" } else { "no" }
                ),
                (status, _) => println!(
                    "{:<24} {status:?}",
                    outcome.name.chars().take(24).collect::<String>()
                ),
            }
        }
        println!("{}", "-".repeat(126));
    }

    // Aggregates.
    println!(
        "szb: {}/{} ok in {:.2}s ({:.2} jobs/s, {} workers) | cache: {} hits / {} misses ({:.0}% hit rate) | mean size reduction {:.0}%, structure {:.0}%",
        report.ok_count(),
        n_jobs,
        report.wall_time.as_secs_f64(),
        report.throughput(),
        report.workers,
        report.cache_hits(),
        report.cache_misses(),
        report.cache_hit_rate() * 100.0,
        report.mean_size_reduction() * 100.0,
        report.structure_fraction() * 100.0,
    );
    if opts.snapshots.is_some() {
        println!(
            "szb: snapshots: {} hits ({:.0}% hit rate)",
            report.snapshot_hits(),
            report.snapshot_hit_rate() * 100.0,
        );
    }
    if report.cancelled_count() > 0 {
        println!(
            "szb: {} job(s) cancelled by deadline (partial programs emitted)",
            report.cancelled_count()
        );
    }

    // The per-job rows were streamed during the run; close the JSONL
    // report with the aggregate summary line.
    if let (Some(sink), Some(path)) = (&report_sink, &opts.report) {
        if let Err(e) = sink.write_line(&summary_record(&report)) {
            eprintln!("szb: cannot write report {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            println!(
                "szb: wrote report to {} (rows streamed per job)",
                path.display()
            );
        }
    }

    // Telemetry surfaces.
    if opts.stats {
        print!("{}", telemetry.phase_summary());
        print_rule_table(report.outcomes.iter().flat_map(|o| &o.rule_stats));
    }
    if let Some(path) = &opts.trace {
        if let Err(e) = std::fs::write(path, telemetry.chrome_trace_json()) {
            eprintln!("szb: cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            println!(
                "szb: wrote Chrome trace to {} (load in chrome://tracing or ui.perfetto.dev)",
                path.display()
            );
        }
    }
    if let Some(path) = &opts.metrics {
        if let Err(e) = std::fs::write(path, telemetry.metrics_json()) {
            eprintln!("szb: cannot write metrics {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        if !opts.quiet {
            println!("szb: wrote metrics to {}", path.display());
        }
    }

    // Persist the snapshot tier and the cache file. One failing must
    // not abandon the other — a full-disk snapshot dir should still
    // leave the (cheap, valuable) program cache on disk.
    let mut persist_failed = false;
    if let (Some(dir), Some(cache)) = (&opts.snapshots, &cache) {
        let cache = cache.lock().unwrap();
        match save_snapshot_dir(&cache, dir) {
            Ok(n) => {
                if !opts.quiet {
                    println!(
                        "snapshots: saved {n} to {} ({} bytes)",
                        dir.display(),
                        cache.snapshot_bytes()
                    );
                }
            }
            Err(e) => {
                eprintln!("szb: cannot save snapshots to {}: {e}", dir.display());
                persist_failed = true;
            }
        }
    }
    if let (Some(path), Some(cache)) = (&opts.cache, &cache) {
        let cache = cache.lock().unwrap();
        if let Err(e) = cache.save(path) {
            eprintln!("szb: cannot save cache {}: {e}", path.display());
            persist_failed = true;
        } else if !opts.quiet {
            println!("cache: saved {} entries to {}", cache.len(), path.display());
        }
    }
    if persist_failed {
        return ExitCode::FAILURE;
    }

    // Structured OpenSCAD emission.
    if let Some(out_dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(out_dir) {
            eprintln!("szb: cannot create {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        let mut emitted = 0usize;
        let mut used_stems = std::collections::HashSet::new();
        for outcome in &report.outcomes {
            let Some(best) = outcome.best() else { continue };
            // Distinct job names can sanitize to the same stem
            // (`a:b` and `a_b`); suffix until unique so no output is
            // silently overwritten.
            let mut stem = sanitize_name(&outcome.name);
            let mut tie = 1usize;
            while !used_stems.insert(stem.clone()) {
                tie += 1;
                stem = format!("{}_{tie}", sanitize_name(&outcome.name));
            }
            let cad: sz_cad::Cad = best.parse().expect("engine emits valid programs");
            if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.csexp")), best) {
                eprintln!("szb: cannot write {stem}.csexp: {e}");
                return ExitCode::FAILURE;
            }
            match sz_scad::cad_to_scad(&cad) {
                Ok(scad) => {
                    if let Err(e) = std::fs::write(out_dir.join(format!("{stem}.scad")), scad) {
                        eprintln!("szb: cannot write {stem}.scad: {e}");
                        return ExitCode::FAILURE;
                    }
                    emitted += 1;
                }
                Err(e) => eprintln!("szb: no OpenSCAD for {}: {e}", outcome.name),
            }
        }
        if !opts.quiet {
            println!(
                "szb: emitted {emitted} OpenSCAD programs to {}",
                out_dir.display()
            );
        }
    }

    if report.ok_count() == n_jobs {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
