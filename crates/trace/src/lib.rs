//! # sz-trace: spans, metrics, and profiling for the synthesis stack
//!
//! A zero-dependency observability layer (the build environment is
//! offline — no `tracing`, no `prometheus`) threaded through every
//! layer of the Szalinski reproduction:
//!
//! * [`Tracer`] / [`SpanGuard`] — lightweight hierarchical **spans**
//!   with monotonic-clock timing and a thread-safe [`TraceSink`] trait
//!   ([`MemorySink`], [`NullSink`]);
//! * [`Metrics`] — a registry of named **counters**, **gauges**, and
//!   log-bucketed [`Histogram`]s with p50/p90/p99 readout;
//! * [`chrome_trace_json`] — a Chrome **trace-event JSON** exporter
//!   (loadable in Perfetto / `chrome://tracing`) and [`phase_summary`],
//!   a deterministic plain-text renderer for tests;
//! * [`Telemetry`] — the bundle (one tracer + one registry) that the
//!   `Runner`, the `szalinski` pipeline, and `sz-batch` all accept.
//!
//! ## Overhead discipline
//!
//! A disabled handle is an internal `None`: no clock reads, no
//! allocation, no locking — a single branch per instrumentation point.
//! Every instrumented hot path in the workspace is gated this way, so
//! `Telemetry::disabled()` (the default everywhere) pays one branch per
//! point. What recording costs on top is perfbench's
//! `trace.overhead_ratio` (`perfbench/README.md`).
//!
//! ## Determinism
//!
//! All timestamps flow through the [`Clock`] trait. Tests inject a
//! [`FixedClock`] (a counter advancing a fixed step per read) and two
//! identical sequential runs then produce byte-identical
//! [`phase_summary`] text and metric values.
//!
//! ## Example
//!
//! ```
//! use sz_trace::{phase_summary, FixedClock, MemorySink, Telemetry, Tracer};
//!
//! let t = Telemetry::deterministic(10);
//! {
//!     let mut span = t.span("runner", "search");
//!     span.arg_i64("matches", 3);
//!     t.metrics.counter_add("cache.hit", 1);
//! }
//! assert_eq!(t.metrics.counter("cache.hit"), 1);
//! assert_eq!(
//!     t.phase_summary(),
//!     "phase summary\n  runner/search  count=1  total_us=10\n"
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod clock;
mod metrics;
mod span;
mod summary;

pub use chrome::{chrome_trace_json, json_escape, json_f64};
pub use clock::{Clock, FixedClock, MonotonicClock};
pub use metrics::{Histogram, Metrics};
pub use span::{ArgValue, MemorySink, NullSink, Span, SpanGuard, TraceSink, Tracer};
pub use summary::{phase_rows, phase_summary, PhaseRow};

/// One tracer plus one metrics registry: the bundle every instrumented
/// layer accepts. Cloning is cheap (two `Arc` bumps); all clones feed
/// the same sink and registry.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The span recorder.
    pub tracer: Tracer,
    /// The metrics registry.
    pub metrics: Metrics,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// The do-nothing bundle: every span and metric operation is a
    /// no-op branch (the default at every instrumentation point).
    pub fn disabled() -> Self {
        Telemetry {
            tracer: Tracer::disabled(),
            metrics: Metrics::disabled(),
        }
    }

    /// A recording bundle: monotonic clock, in-memory sink, live
    /// metrics registry.
    pub fn enabled() -> Self {
        Telemetry {
            tracer: Tracer::enabled(),
            metrics: Metrics::new(),
        }
    }

    /// A recording bundle over a [`FixedClock`] advancing
    /// `step_micros` per timestamp read — for determinism tests.
    pub fn deterministic(step_micros: u64) -> Self {
        Telemetry {
            tracer: Tracer::with_clock_and_sink(
                Box::new(FixedClock::new(step_micros)),
                Box::new(MemorySink::new()),
            ),
            metrics: Metrics::new(),
        }
    }

    /// A timestamping-but-discarding bundle ([`NullSink`], disabled
    /// metrics) — for measuring the cost of clock reads alone.
    pub fn null_sink() -> Self {
        Telemetry {
            tracer: Tracer::with_clock_and_sink(
                Box::new(MonotonicClock::new()),
                Box::new(NullSink),
            ),
            metrics: Metrics::disabled(),
        }
    }

    /// Whether either half is recording.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled() || self.metrics.is_enabled()
    }

    /// Open a span on the bundled tracer (no-op when disabled).
    pub fn span(
        &self,
        cat: &'static str,
        name: impl Into<std::borrow::Cow<'static, str>>,
    ) -> SpanGuard {
        self.tracer.span(cat, name)
    }

    /// Chrome trace-event JSON for every span recorded so far.
    pub fn chrome_trace_json(&self) -> String {
        chrome_trace_json(&self.tracer.events())
    }

    /// Deterministic plain-text phase summary of every span recorded
    /// so far.
    pub fn phase_summary(&self) -> String {
        phase_summary(&self.tracer.events())
    }

    /// JSON dump of the metrics registry.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_is_inert() {
        let t = Telemetry::disabled();
        drop(t.span("cat", "x"));
        t.metrics.counter_add("c", 1);
        assert!(!t.is_enabled());
        assert_eq!(t.chrome_trace_json(), "{\"traceEvents\":[]}");
        assert_eq!(t.phase_summary(), "phase summary\n");
        assert_eq!(
            t.metrics_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn deterministic_bundles_agree_run_to_run() {
        let run = || {
            let t = Telemetry::deterministic(7);
            for i in 0..3 {
                let mut s = t.span("runner", "iteration");
                s.arg_i64("iter", i);
                drop(t.span("runner", "search"));
                t.metrics.observe("iter.dur_us", 10.0);
            }
            (t.phase_summary(), t.metrics.render_text())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn null_sink_bundle_timestamps_but_stores_nothing() {
        let t = Telemetry::null_sink();
        drop(t.span("cat", "x"));
        assert!(t.tracer.is_enabled());
        assert!(t.tracer.events().is_empty());
        assert!(!t.metrics.is_enabled());
    }
}
