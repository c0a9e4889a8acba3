//! `trace_overhead` — telemetry overhead guard over the 16-model suite,
//! emitting `BENCH_trace.json`.
//!
//! Runs suite16 on one worker (no caches) three ways — telemetry
//! disabled, a timestamping-but-discarding [`Telemetry::null_sink`],
//! and a fully recording [`Telemetry::enabled`] bundle — and compares
//! wall times. Each mode takes the *minimum* over `--reps` repetitions,
//! after one untimed warmup run that pays rule compilation, so the
//! comparison measures instrumentation cost rather than startup or
//! scheduler noise. With `--gate`, the binary fails if the recording
//! run exceeds the disabled run by more than the given percentage
//! (default 5, the budget from the tracing design).
//!
//! ```text
//! trace_overhead --out BENCH_trace.json
//! trace_overhead --reps 5 --gate 5        # CI overhead gate
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sz_batch::report::json_f64;
use sz_batch::{suite16_jobs, BatchEngine};
use sz_bench::quick_config;
use szalinski::Telemetry;

const USAGE: &str = "\
trace_overhead — telemetry overhead guard over the paper's 16-model suite

USAGE:
    trace_overhead [--out FILE] [--reps N] [--gate [PCT]]

OPTIONS:
    --out <FILE>   JSON output (default: BENCH_trace.json; 'none' disables)
    --reps <N>     repetitions per mode; the minimum wall time counts (default: 3)
    --gate <PCT>   fail if the enabled run is more than PCT % slower than
                   the disabled run (default PCT: 5)
    --help         show this text
";

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = Some(PathBuf::from("BENCH_trace.json"));
    let mut reps: usize = 3;
    let mut gate: Option<f64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(v) => out = (v != "none").then(|| PathBuf::from(v)),
                None => return usage_error("--out needs a value"),
            },
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => reps = n,
                _ => return usage_error("--reps needs a positive integer"),
            },
            "--gate" => {
                // PCT is optional: `--gate` alone uses the 5 % budget.
                let pct = match it.peek().and_then(|v| v.parse::<f64>().ok()) {
                    Some(p) if p > 0.0 => {
                        it.next();
                        p
                    }
                    _ => 5.0,
                };
                gate = Some(pct);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }

    let config = quick_config();

    // Warmup: fills the process-wide compiled-rule cache so no timed
    // run pays pattern compilation.
    run_suite(&Telemetry::disabled(), &config);

    // Interleave the three modes within each repetition (rather than
    // all reps of one mode, then the next) so machine-wide drift over
    // the bench's lifetime hits every mode equally; the minimum per
    // mode is the least-noise estimate.
    let mut disabled = Duration::MAX;
    let mut null_sink = Duration::MAX;
    let mut enabled = Duration::MAX;
    for _ in 0..reps {
        disabled = disabled.min(run_suite(&Telemetry::disabled(), &config));
        null_sink = null_sink.min(run_suite(&Telemetry::null_sink(), &config));
        enabled = enabled.min(run_suite(&Telemetry::enabled(), &config));
    }

    let overhead = |t: Duration| 100.0 * (t.as_secs_f64() / disabled.as_secs_f64() - 1.0);
    println!(
        "trace_overhead: disabled {:.3}s | null-sink {:.3}s ({:+.2}%) | enabled {:.3}s ({:+.2}%) [min of {reps}]",
        disabled.as_secs_f64(),
        null_sink.as_secs_f64(),
        overhead(null_sink),
        enabled.as_secs_f64(),
        overhead(enabled),
    );

    if let Some(path) = &out {
        let body = format!(
            "{{\"type\":\"trace_overhead\",\"jobs\":16,\"reps\":{reps},\"disabled_s\":{},\"null_sink_s\":{},\"enabled_s\":{},\"null_sink_overhead_pct\":{},\"enabled_overhead_pct\":{}}}\n",
            json_f64(disabled.as_secs_f64()),
            json_f64(null_sink.as_secs_f64()),
            json_f64(enabled.as_secs_f64()),
            json_f64(overhead(null_sink)),
            json_f64(overhead(enabled)),
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("trace_overhead: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("trace_overhead: wrote {}", path.display());
    }

    if let Some(pct) = gate {
        let measured = overhead(enabled);
        if measured > pct {
            eprintln!(
                "trace_overhead: recording overhead {measured:.2}% exceeds the {pct}% budget"
            );
            return ExitCode::FAILURE;
        }
        println!("trace_overhead: gate passed ({measured:.2}% <= {pct}%)");
    }

    ExitCode::SUCCESS
}

/// One single-worker suite16 run under `telemetry`; panics if a job fails
/// (an overhead number over a failing run would be meaningless).
fn run_suite(telemetry: &Telemetry, config: &szalinski::SynthConfig) -> Duration {
    let jobs = suite16_jobs(config);
    let n = jobs.len();
    let start = Instant::now();
    let report = BatchEngine::new()
        .with_workers(1)
        .with_telemetry(telemetry.clone())
        .run(jobs);
    let wall = start.elapsed();
    assert_eq!(report.ok_count(), n, "suite16 job failed during bench");
    wall
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("trace_overhead: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
