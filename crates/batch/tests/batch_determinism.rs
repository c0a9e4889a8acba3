//! Batch determinism over the 16-model suite (ISSUE acceptance):
//!
//! 1. the batch engine's output is byte-identical to sequential
//!    `pipeline` runs, at any worker count;
//! 2. a warm-cache rerun returns identical results with **zero**
//!    saturation iterations and a 100% hit rate.

use std::sync::{Arc, Mutex};

use sz_batch::{suite16_jobs, BatchEngine, JobStatus, ResultCache};
use szalinski::{RunOptions, SynthConfig, Synthesizer};

/// Tight-but-real fuel so the 16-model suite stays debug-friendly; the
/// full-fuel run lives in the release harness (`szb --suite16`).
fn quick() -> SynthConfig {
    SynthConfig::new()
        .with_iter_limit(30)
        .with_node_limit(30_000)
}

/// Canonical byte-level view of one run's output.
fn fingerprint(programs: &[(usize, String)]) -> String {
    programs
        .iter()
        .map(|(cost, s)| format!("{cost}:{s}"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn batch_output_is_byte_identical_to_sequential_pipeline() {
    let jobs = suite16_jobs(&quick());
    assert_eq!(jobs.len(), 16);

    // Ground truth: a plain loop over one-shot sessions, no engine.
    let expected: Vec<(String, String)> = jobs
        .iter()
        .map(|job| {
            let result = Synthesizer::new(job.config.clone())
                .run(&job.input, RunOptions::new())
                .unwrap();
            let programs: Vec<(usize, String)> = result
                .top_k
                .iter()
                .map(|p| (p.cost, p.cad.to_string()))
                .collect();
            (job.name.clone(), fingerprint(&programs))
        })
        .collect();

    for workers in [1, 4] {
        let report = BatchEngine::new().with_workers(workers).run(jobs.clone());
        assert_eq!(report.outcomes.len(), expected.len());
        for (outcome, (name, programs)) in report.outcomes.iter().zip(&expected) {
            assert_eq!(outcome.status, JobStatus::Ok, "{name} failed");
            assert_eq!(&outcome.name, name, "order must match submission");
            assert_eq!(
                &fingerprint(&outcome.programs),
                programs,
                "{workers}-worker batch diverged from sequential pipeline on {name}"
            );
        }
    }
}

#[test]
fn warm_cache_rerun_is_identical_with_zero_iterations() {
    let cache = Arc::new(Mutex::new(ResultCache::new()));
    let engine = BatchEngine::new().with_workers(2).with_cache(cache);

    let cold = engine.run(suite16_jobs(&quick()));
    assert_eq!(cold.cache_hits(), 0);
    assert_eq!(cold.ok_count(), 16);
    assert!(
        cold.outcomes.iter().all(|o| o.iterations > 0),
        "cold runs must saturate"
    );

    let warm = engine.run(suite16_jobs(&quick()));
    assert_eq!(warm.cache_hits(), 16, "warm rerun must be 100% cache hits");
    assert!((warm.cache_hit_rate() - 1.0).abs() < f64::EPSILON);
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(a.name, b.name);
        assert_eq!(b.iterations, 0, "{}: cached run must not saturate", b.name);
        assert!(b.cached);
        assert_eq!(
            fingerprint(&a.programs),
            fingerprint(&b.programs),
            "{}: cached programs differ from cold run",
            a.name
        );
        // Table rows carry the same structure verdicts.
        let (ra, rb) = (a.row.as_ref().unwrap(), b.row.as_ref().unwrap());
        assert_eq!(ra.rank, rb.rank);
        assert_eq!(ra.n_l, rb.n_l);
        assert_eq!(ra.f, rb.f);
        assert_eq!(ra.o_ns, rb.o_ns);
    }
}

#[test]
fn cache_survives_disk_roundtrip_with_identical_results() {
    // The cross-process warm start behind `szb --cache`: save after a
    // cold run, load into a fresh cache, rerun — all hits, same bytes.
    let dir = std::env::temp_dir().join("sz_batch_determinism_disk");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.sexp");

    let jobs = || {
        suite16_jobs(&quick())
            .into_iter()
            .take(4)
            .collect::<Vec<_>>()
    };

    let cache = Arc::new(Mutex::new(ResultCache::new()));
    let cold = BatchEngine::new().with_cache(cache.clone()).run(jobs());
    cache.lock().unwrap().save(&path).unwrap();

    let reloaded = Arc::new(Mutex::new(ResultCache::load(&path).unwrap()));
    assert_eq!(reloaded.lock().unwrap().len(), 4);
    let warm = BatchEngine::new().with_cache(reloaded).run(jobs());
    assert_eq!(warm.cache_hits(), 4);
    for (a, b) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(
            fingerprint(&a.programs),
            fingerprint(&b.programs),
            "{}: disk roundtrip changed results",
            a.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
