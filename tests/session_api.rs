//! Integration smoke tests for the session API on real suite16 models:
//! deadlines and cancel tokens stop *promptly* with well-formed results
//! (`StopReason::Cancelled`, extractable partial programs) and progress
//! hooks observe every iteration.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use szalinski::{CancelToken, ProgressObserver, RunOptions, StopReason, SynthConfig, Synthesizer};

#[test]
fn one_millisecond_deadline_cancels_a_suite16_model_promptly() {
    // The cancellation smoke the CI job mirrors: a 1 ms deadline on a
    // real model must return Cancelled quickly instead of hanging for
    // the full 150-iteration default budget.
    let model = sz_models::all_models()
        .into_iter()
        .find(|m| m.name.contains("gear"))
        .expect("suite16 contains the gear");
    let session = Synthesizer::new(SynthConfig::new());
    let start = Instant::now();
    let result = session
        .run(
            &model.flat,
            RunOptions::new().with_deadline(Duration::from_millis(1)),
        )
        .expect("cancellation is not an error");
    let elapsed = start.elapsed();
    assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
    assert!(
        !result.top_k.is_empty(),
        "a cancelled run still extracts (at worst the input itself)"
    );
    assert!(result.cancelled());
    // "Promptly": one iteration boundary + extraction. The gear's cold
    // run takes multiple seconds of saturation; leave slack for CI.
    assert!(
        elapsed < Duration::from_secs(30),
        "1 ms deadline took {elapsed:?} — cancellation is not prompt"
    );
}

#[test]
fn cancel_token_fired_mid_run_stops_at_a_boundary() {
    struct CancelAfter {
        token: CancelToken,
        after: usize,
        seen: AtomicUsize,
    }
    impl ProgressObserver for CancelAfter {
        fn on_iteration(&self, _i: usize, _stats: &sz_egraph::Iteration) {
            if self.seen.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
                self.token.cancel();
            }
        }
    }
    let token = CancelToken::new();
    let observer = Arc::new(CancelAfter {
        token: token.clone(),
        after: 2,
        seen: AtomicUsize::new(0),
    });
    let model = sz_models::all_models().remove(0);
    let session = Synthesizer::new(SynthConfig::new());
    let result = session
        .run(
            &model.flat,
            RunOptions::new()
                .with_cancel_token(token)
                .with_progress(observer.clone()),
        )
        .unwrap();
    assert_eq!(result.stop_reason, Some(StopReason::Cancelled));
    assert_eq!(result.iterations, observer.seen.load(Ordering::Relaxed));
    assert_eq!(result.iterations, 2, "cancelled at the requested boundary");
    assert!(!result.top_k.is_empty());
}
