//! Telemetry determinism: with a fixed (injected) clock, two identical
//! single-worker runs over the 16-model suite emit byte-identical
//! phase-summary text and identical metric values.
//!
//! What this pins down: the *sequence* of spans (which phases run, how
//! many iterations, which rules are searched) and every counter/gauge
//! value are deterministic functions of the jobs and config. Wall-clock
//! durations are not — which is exactly why `Telemetry::deterministic`
//! swaps the monotonic clock for a fixed-step one (each `now()` call
//! advances by a constant), turning span durations into call-sequence
//! counts. Histogram comparisons go through
//! [`Metrics::render_text`](szalinski::Metrics::render_text), which
//! prints observation *counts*, not the (wall-time) values.

use sz_batch::{suite16_jobs, BatchEngine};
use szalinski::{SynthConfig, Telemetry};

/// One fresh suite16 run (no cache, so nothing leaks between runs) on
/// one worker, so the fixed-step clock sees one call sequence; returns
/// the two comparison surfaces.
fn run_once() -> (String, String) {
    let config = SynthConfig::new()
        .with_iter_limit(20)
        .with_node_limit(20_000);
    let telemetry = Telemetry::deterministic(10);
    let engine = BatchEngine::new()
        .with_workers(1)
        .with_telemetry(telemetry.clone());
    let report = engine.run(suite16_jobs(&config));
    assert_eq!(report.ok_count(), report.outcomes.len());
    (telemetry.phase_summary(), telemetry.metrics.render_text())
}

#[test]
fn identical_runs_emit_identical_telemetry() {
    let (phases_a, metrics_a) = run_once();
    let (phases_b, metrics_b) = run_once();
    assert_eq!(
        phases_a, phases_b,
        "phase summaries must match byte-for-byte under a fixed clock"
    );
    assert_eq!(
        metrics_a, metrics_b,
        "counter/gauge values and histogram counts must match"
    );

    // Sanity on the surfaces themselves: the batch, pipeline, inference,
    // extraction and runner layers all contributed.
    for label in [
        "batch/job",
        "pipeline/saturation",
        "pipeline/inference",
        "infer/list_manip",
        "infer/functions",
        "infer/loops",
        "infer/rebuild",
        "pipeline/extraction",
        "extract/table",
        "extract/materialize",
        "runner/iteration",
        "runner/search",
        "runner/apply",
        "runner/rebuild",
    ] {
        assert!(phases_a.contains(label), "missing {label} in:\n{phases_a}");
    }
    assert!(
        metrics_a.contains("counter run.mode.cold = 16"),
        "{metrics_a}"
    );
    assert!(metrics_a.contains("counter cache.miss = 16"), "{metrics_a}");
    assert!(
        metrics_a.contains("histogram job.latency_us count = 16"),
        "{metrics_a}"
    );
    assert!(
        metrics_a.contains("gauge pool.queue_depth = 0"),
        "{metrics_a}"
    );
}
