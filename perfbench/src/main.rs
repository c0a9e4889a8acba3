//! `sz-perfbench --workload <name> [--seed N] [--seconds N] [--trace 0|1]`
//!
//! Runs one workload, checks every output, and prints a summary followed
//! by one JSON line: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a layer-by-layer replay.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use sz_perfbench::replay::{self, ReplayPass};
use sz_perfbench::stats;
use sz_perfbench::workload::{self, Plan, Quality, Setup, Timed, Workload};
use szalinski::Tracer;

const USAGE: &str = "usage: sz-perfbench --workload <corpus-cold|corpus-rextract|suite16-cold> \
[--seed N] [--seconds N] [--trace 0|1] [--setup-only 1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run set-up only and print its seconds (the children that repeat
    /// the set-up measurement).
    setup_only: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 42;
        let mut seconds = 20;
        let mut trace = false;
        let mut setup_only = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad {flag} value `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?);
                }
                "--seed" => seed = value.parse().map_err(bad)?,
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--setup-only" => setup_only = value == "1",
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    };
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            setup_only,
        })
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sz-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sz-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, process_start: Instant) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let plan = Plan::new(args.workload, args.seed, args.seconds, nproc);
    let tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let setup = workload::set_up(&plan, process_start, &tracer)?;
    if args.setup_only {
        println!("setup_s {}", setup.setup_s);
        return Ok(());
    }
    // Set-up is measured again in child processes spread over the run
    // (before, between and after the timed passes), so its median does
    // not hang on the machine's speed at one moment. The traced run
    // reports no set-up time and skips them.
    let children = if args.trace { 0 } else { plan.setup_reps - 1 };
    let slots = plan.passes + 1;
    let mut setup_s = vec![setup.setup_s];
    let timed = workload::run_timed(&plan, &setup, |slot| {
        for child in 0..children {
            if child * slots / children == slot {
                setup_s.push(child_setup_s(args)?);
            }
        }
        Ok(())
    })?;
    let mut problems = workload::check_timed(&plan, &setup, &timed);
    let ok_ratio = timed.ok() as f64 / timed.attempted() as f64;
    let quality = workload::quality(
        &setup.jobs,
        &timed.passes[0],
        ok_ratio,
        nproc,
        &mut problems,
    );
    let mut attempted = timed.attempted();
    let mut failed = attempted - timed.ok();
    print_summary(&plan, nproc, &setup_s, &setup, &timed, &quality);

    let metrics = if args.trace {
        let traced = traced(&plan, &setup, &timed, &tracer, &mut problems)?;
        attempted += traced.attempted;
        failed += traced.failed;
        per_layer(&setup, &timed, &quality, &traced, plan.workers)
    } else {
        end_to_end(&setup_s, &setup, &timed, &quality)
    };

    for p in problems.iter().take(20) {
        eprintln!("check failed: {p}");
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        problems.is_empty()
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

/// Measures set-up once more in a fresh process of this binary, from its
/// process start, and waits for it to end.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--setup-only", "1"])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or(format!("set-up child printed `{stdout}`"))
}

fn print_summary(
    plan: &Plan,
    nproc: usize,
    setup_s: &[f64],
    setup: &Setup,
    timed: &Timed,
    quality: &Quality,
) {
    let lat = timed.latencies_ms();
    let (tail, pct) = stats::tail(&lat);
    println!(
        "sz-perfbench {} seed={} nproc={nproc} workers={} models={} passes={} setup_reps={}",
        plan.workload.name(),
        plan.seed,
        plan.workers,
        setup.jobs.len(),
        plan.passes,
        plan.setup_reps,
    );
    println!(
        "  set-up {:.4} s median of {setup_s:?}; timed {} jobs in {:.3} s",
        stats::median(setup_s),
        timed.attempted(),
        timed.wall_s,
    );
    println!(
        "  p50 {:.3} ms, tail {tail:.3} ms = p{pct} of {} samples",
        timed.p50_ms(),
        lat.len()
    );
    println!(
        "  valid {}/{} (validation {:.2} s at {} samples)",
        setup.jobs.len() - quality.invalid.len(),
        setup.jobs.len(),
        quality.validate_s,
        workload::VALIDATE_SAMPLES,
    );
    for (name, why) in &quality.invalid {
        println!("  invalid: {name} ({why})");
    }
}

fn end_to_end(setup_s: &[f64], setup: &Setup, timed: &Timed, quality: &Quality) -> Vec<Metric> {
    let lat = timed.latencies_ms();
    vec![
        metric("setup_s", stats::median(setup_s), "s"),
        metric("setup_rss_mb", setup.setup_rss_mb, "MB"),
        metric("models_per_s", timed.models_per_s(), "1/s"),
        metric("p50_ms", timed.p50_ms(), "ms"),
        metric("tail_ms", stats::tail(&lat).0, "ms"),
        metric("peak_rss_mb", timed.peak_rss_mb, "MB"),
        metric("ok_ratio", quality.ok_ratio, "ratio"),
        metric("valid_ratio", quality.valid_ratio, "ratio"),
        metric("out_size_ratio", quality.out_size_ratio, "ratio"),
        metric("structured_frac", quality.structured_frac, "ratio"),
    ]
}

/// The traced replay of a run.
struct Traced {
    /// corpus-rextract's replayed set-up pass, then the timed passes.
    passes: Vec<ReplayPass>,
    /// Wall seconds of the replayed timed passes.
    timed_wall_s: f64,
    /// Ok jobs of the replayed timed passes.
    timed_ok: usize,
    attempted: usize,
    failed: usize,
    spans: Vec<sz_trace::Span>,
}

/// Replays corpus-rextract's set-up pass (so its saturation, inference
/// and capture layers are measured too) and every timed pass, checks
/// each job's top-k against the engine's, and writes the Chrome trace.
fn traced(
    plan: &Plan,
    setup: &Setup,
    timed: &Timed,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Result<Traced, String> {
    // The default config's rule set (structural rules off), as the session
    // compiles it.
    let rules = szalinski::rules();
    let mut passes = Vec::new();
    let mut next_id = 0i64;
    let mut attempted = 0;
    let mut failed = 0;
    if let Some(fill) = &setup.fill {
        let pass = replay::replay_pass(
            &fill.jobs,
            next_id,
            workload::snapshot_cache(),
            plan.workers,
            &rules,
            tracer,
        );
        next_id += fill.jobs.len() as i64;
        failed += compare(&pass, &fill.outcomes, "replayed set-up", problems);
        attempted += pass.jobs.len();
        if pass.snapshots != fill.snapshots {
            problems.push("replayed set-up stored other snapshots than the engine".into());
        }
        passes.push(pass);
    }
    let mut timed_wall_s = 0.0;
    let mut timed_ok = 0;
    for outcomes in &timed.passes {
        let cache = workload::pass_cache(plan, setup);
        let pass = replay::replay_pass(&setup.jobs, next_id, cache, plan.workers, &rules, tracer);
        next_id += setup.jobs.len() as i64;
        failed += compare(&pass, outcomes, "replayed pass", problems);
        attempted += pass.jobs.len();
        if pass.snapshots != timed.snapshots {
            problems.push("replayed pass stored other snapshots than the engine".into());
        }
        timed_wall_s += pass.wall_s;
        timed_ok += pass.jobs.iter().filter(|j| j.is_ok()).count();
        passes.push(pass);
    }
    let spans = tracer.events();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!(
        "{dir}/{}-seed{}.trace.json",
        plan.workload.name(),
        plan.seed
    );
    std::fs::write(&path, sz_trace::chrome_trace_json(&spans))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("  trace: {} spans written to {path}", spans.len());
    Ok(Traced {
        passes,
        timed_wall_s,
        timed_ok,
        attempted,
        failed,
        spans,
    })
}

/// Checks each replayed job's top-k against the engine's outcome; returns
/// how many replays failed outright.
fn compare(
    pass: &ReplayPass,
    outcomes: &[sz_batch::JobOutcome],
    what: &str,
    problems: &mut Vec<String>,
) -> usize {
    let mut failed = 0;
    for (job, o) in pass.jobs.iter().zip(outcomes) {
        match job {
            Ok(r) if r.programs == o.programs => {}
            Ok(_) => problems.push(format!("{what}: {} top-k differs", o.name)),
            Err(e) => {
                failed += 1;
                problems.push(format!("{what}: {e}"));
            }
        }
    }
    failed
}

fn per_layer(
    setup: &Setup,
    timed: &Timed,
    quality: &Quality,
    traced: &Traced,
    workers: usize,
) -> Vec<Metric> {
    let secs = replay::span_seconds(&traced.spans);
    let s = |name: &str| secs.get(name).copied().unwrap_or(0.0);
    let c = replay::total_counts(&traced.passes);
    let n = |v: u64| v as f64;
    let job_s: f64 = traced
        .spans
        .iter()
        .filter(|sp| sp.cat == "job")
        .map(|sp| sp.dur_us as f64 / 1e6)
        .sum();
    let wall_s: f64 = traced.passes.iter().map(|p| p.wall_s).sum();
    let traced_mps = traced.timed_ok as f64 / traced.timed_wall_s;
    vec![
        metric("gen.time_s", setup.gen_s, "s"),
        metric("rules.compile_s", setup.rules_compile_s, "s"),
        metric("egraph.build_s", s("egraph.build"), "s"),
        metric("egraph.input_nodes", n(c.egraph_input_nodes), "count"),
        metric("runner.time_s", s("runner.run"), "s"),
        metric("runner.search_s", c.runner_search_ns as f64 / 1e9, "s"),
        metric("runner.apply_s", c.runner_apply_ns as f64 / 1e9, "s"),
        metric("runner.rebuild_s", c.runner_rebuild_ns as f64 / 1e9, "s"),
        metric("runner.iterations", n(c.runner_iterations), "count"),
        metric("runner.matches", n(c.runner_matches), "count"),
        metric("runner.applied", n(c.runner_applied), "count"),
        metric("runner.nodes", n(c.runner_nodes), "count"),
        metric("runner.classes", n(c.runner_classes), "count"),
        metric("runner.limit_stops", n(c.runner_limit_stops), "count"),
        metric("runner.allocs", n(c.runner_allocs), "count"),
        metric("snapshot.capture_s", s("snapshot.capture"), "s"),
        metric("snapshot.bytes", n(c.snapshot_bytes), "bytes"),
        metric("snapshot.parse_s", s("snapshot.parse"), "s"),
        metric("snapshot.restore_s", s("snapshot.restore"), "s"),
        metric("snapshot.allocs", n(c.snapshot_allocs), "count"),
        metric("listmanip.time_s", s("listmanip.run"), "s"),
        metric("listmanip.variants", n(c.listmanip_variants), "count"),
        metric("listmanip.allocs", n(c.listmanip_allocs), "count"),
        metric("funcinfer.time_s", s("funcinfer.run"), "s"),
        metric("funcinfer.records", n(c.funcinfer_records), "count"),
        metric("funcinfer.allocs", n(c.funcinfer_allocs), "count"),
        metric("loopinfer.time_s", s("loopinfer.run"), "s"),
        metric("loopinfer.records", n(c.loopinfer_records), "count"),
        metric("loopinfer.allocs", n(c.loopinfer_allocs), "count"),
        metric("infer.rebuild_s", s("infer.rebuild"), "s"),
        metric("infer.nodes", n(c.infer_nodes), "count"),
        metric("extract.table_s", s("extract.table"), "s"),
        metric("extract.materialize_s", s("extract.materialize"), "s"),
        metric("extract.dedup_s", s("extract.dedup"), "s"),
        metric("extract.candidates", n(c.extract_candidates), "count"),
        metric("extract.dropped", n(c.extract_dropped), "count"),
        metric("extract.allocs", n(c.extract_allocs), "count"),
        metric("cache.lookup_s", s("cache.lookup"), "s"),
        metric("cache.insert_s", s("cache.insert"), "s"),
        metric("cache.program_hits", n(c.program_hits), "count"),
        metric("cache.snapshot_hits", n(c.snapshot_hits), "count"),
        metric("cache.misses", n(c.misses), "count"),
        metric(
            "cache.evictions",
            traced.passes.iter().map(|p| p.evictions).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "cache.snapshot_bytes",
            traced
                .passes
                .iter()
                .map(|p| p.snapshot_bytes)
                .max()
                .unwrap_or(0) as f64,
            "bytes",
        ),
        metric(
            "pool.busy_ratio",
            job_s / (workers as f64 * wall_s),
            "ratio",
        ),
        metric("job.other_s", s("job.job"), "s"),
        metric(
            "trace.overhead_ratio",
            timed.models_per_s() / traced_mps - 1.0,
            "ratio",
        ),
        metric("mesh.validate_s", quality.validate_s, "s"),
    ]
}
