//! Batch synthesis walkthrough: run the 16-model corpus through the
//! `sz-batch` engine, rerun it warm to show the content-addressed
//! program cache short-circuiting saturation, then change *only the
//! cost function* to show the snapshot tier resuming saturated e-graphs
//! instead of recomputing them (the `szb --snapshots <dir>` flow,
//! in-process). Finally, drive the session API directly: a lower-fuel
//! snapshot *continues* saturating under a higher-fuel config (partial
//! resume), and a deadline cancels a run mid-saturation while still
//! returning programs.
//!
//! ```text
//! cargo run --release --example batch_corpus
//! ```

use std::sync::{Arc, Mutex};
use std::time::Duration;

use szalinski_repro::sz_batch::{suite16_jobs, BatchEngine, ResultCache};
use szalinski_repro::szalinski::{
    RewardLoopsCost, RunMode, RunOptions, StopReason, SynthConfig, Synthesizer,
};

fn main() {
    let config = SynthConfig::new()
        .with_iter_limit(60)
        .with_node_limit(80_000);
    // Grant the snapshot tier a byte budget; without one the cache only
    // serves the program tier (`szb` does this via `--snapshots <dir>`).
    let cache = Arc::new(Mutex::new(
        ResultCache::new().with_snapshot_budget(256 << 20),
    ));
    let engine = BatchEngine::new().with_cache(Arc::clone(&cache));

    println!("cold run (16 models, {} workers)...", engine_workers());
    let cold = engine.run(suite16_jobs(&config));
    for outcome in &cold.outcomes {
        let row = outcome.row.as_ref().expect("suite16 synthesizes");
        println!(
            "  {:<24} {:>4} -> {:>3} nodes, rank {:?}, {:>6.2}s",
            outcome.name,
            row.i_ns,
            row.o_ns,
            row.rank,
            outcome.time.as_secs_f64()
        );
    }
    println!(
        "cold: {:.2}s wall, {:.2} jobs/s, {} cache hits",
        cold.wall_time.as_secs_f64(),
        cold.throughput(),
        cold.cache_hits()
    );

    let warm = engine.run(suite16_jobs(&config));
    println!(
        "warm: {:.3}s wall, {:.0}% hit rate, {} saturation iterations",
        warm.wall_time.as_secs_f64(),
        warm.cache_hit_rate() * 100.0,
        warm.outcomes.iter().map(|o| o.iterations).sum::<usize>()
    );
    assert_eq!(warm.cache_hits(), 16);

    // A cost-only config change misses the program tier (different full
    // fingerprint) but hits the snapshot tier (same saturation
    // fingerprint): every job restores its saturated e-graph and re-runs
    // extraction alone.
    let reward = config.clone().with_cost_model(Arc::new(RewardLoopsCost));
    let resumed = engine.run(suite16_jobs(&reward));
    println!(
        "cost-only rerun: {:.2}s wall, {} snapshot resumes ({:.0}% tier hit rate), {} saturation iterations",
        resumed.wall_time.as_secs_f64(),
        resumed.snapshot_hits(),
        resumed.snapshot_hit_rate() * 100.0,
        resumed.outcomes.iter().map(|o| o.iterations).sum::<usize>()
    );
    assert_eq!(resumed.snapshot_hits(), 16);
    assert!(resumed.outcomes.iter().all(|o| o.iterations == 0));
    {
        let cache = cache.lock().unwrap();
        println!(
            "snapshot tier: {} snapshots, {} bytes",
            cache.snapshot_count(),
            cache.snapshot_bytes()
        );
    }

    // The session API directly: snapshot a model at LOW fuel, then run a
    // HIGH-fuel session against it — `Synthesizer::run` notices the
    // fingerprints match modulo the lower limits and *continues*
    // saturating instead of starting over.
    let model = szalinski_repro::sz_models::all_models().remove(0);
    let low = Synthesizer::new(config.clone().with_iter_limit(5));
    let snapshot = low
        .run(&model.flat, RunOptions::new().capture_snapshot(true))
        .unwrap()
        .snapshot
        .unwrap();
    let high = Synthesizer::new(config);
    let cold = high.run(&model.flat, RunOptions::new()).unwrap();
    let partial = high
        .run(&model.flat, RunOptions::new().with_snapshot(snapshot))
        .unwrap();
    assert_eq!(partial.mode, RunMode::ResumedSaturation);
    assert_eq!(
        partial.best().cad.to_string(),
        cold.best().cad.to_string(),
        "partial resume lands on the cold run's output"
    );
    println!(
        "partial resume ({}): {} new iterations vs {} cold, same program",
        model.name, partial.iterations, cold.iterations
    );

    // Deadlines: a 1 ms budget cancels at the first iteration boundary,
    // but the run still returns a well-formed (barely saturated) result.
    let rushed = high
        .run(
            &model.flat,
            RunOptions::new().with_deadline(Duration::from_millis(1)),
        )
        .unwrap();
    assert_eq!(rushed.stop_reason, Some(StopReason::Cancelled));
    println!(
        "deadline demo: cancelled after {} iteration(s), still extracted {} program(s)",
        rushed.iterations,
        rushed.top_k.len()
    );
}

fn engine_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
