//! Fleet-mode integration tests: sharded runs must partition and merge
//! back to the unsharded result, a killed-and-resumed run must
//! recompute zero completed jobs, and a fuel-raised rerun must resume
//! every job from the core-key snapshot index.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use sz_batch::{
    attach_snapshot_dir, job_record, merge_reports, save_snapshot_dir, summary_record, BatchEngine,
    BatchJob, ResultCache, ShardSpec, StreamSink,
};
use sz_cad::Cad;
use szalinski::{CancelToken, StopReason, SynthConfig};

fn row(n: usize) -> Cad {
    Cad::union_chain(
        (1..=n)
            .map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit))
            .collect(),
    )
}

fn quick() -> SynthConfig {
    SynthConfig::new()
        .with_iter_limit(20)
        .with_node_limit(20_000)
}

fn corpus_at(config: &SynthConfig) -> Vec<BatchJob> {
    (3..11)
        .map(|n| BatchJob::new(format!("row{n}"), row(n), config.clone()))
        .collect()
}

fn corpus() -> Vec<BatchJob> {
    corpus_at(&quick())
}

#[test]
fn shards_run_independently_and_merge_to_the_unsharded_result() {
    let all = corpus();
    let shards: Vec<ShardSpec> = (1..=2).map(|i| format!("{i}/2").parse().unwrap()).collect();

    let mut merged: BTreeMap<String, Vec<(usize, String)>> = BTreeMap::new();
    let mut shard_reports = Vec::new();
    for shard in &shards {
        let mut jobs = corpus();
        shard.filter(&mut jobs);
        let report = BatchEngine::new().with_workers(2).run(jobs);
        assert_eq!(report.ok_count(), report.outcomes.len());
        for o in &report.outcomes {
            let previous = merged.insert(o.name.clone(), o.programs.clone());
            assert!(previous.is_none(), "{}: shards must be disjoint", o.name);
        }
        let mut text: String = report
            .outcomes
            .iter()
            .map(|o| job_record(o) + "\n")
            .collect();
        text.push_str(&summary_record(&report));
        shard_reports.push(text);
    }

    // The shards covered the corpus, and job-for-job their programs are
    // identical to one unsharded process.
    assert_eq!(merged.len(), all.len());
    let unsharded = BatchEngine::new().with_workers(2).run(corpus());
    for o in &unsharded.outcomes {
        assert_eq!(merged.get(&o.name), Some(&o.programs), "{}", o.name);
    }

    // The merged JSONL report has one row per job plus one recomputed
    // summary accounting for the whole corpus.
    let merged_text = merge_reports(&shard_reports).unwrap();
    let lines: Vec<&str> = merged_text.lines().collect();
    assert_eq!(lines.len(), all.len() + 1);
    let summary = lines.last().unwrap();
    assert!(summary.contains(r#""type":"summary""#));
    assert!(summary.contains(&format!(r#""jobs":{}"#, all.len())));
    assert!(summary.contains(&format!(r#""ok":{}"#, all.len())));
}

/// A report writer standing in for `kill -9`: after `rows_left`
/// completed rows it trips the shared [`CancelToken`], so every later
/// job is cut off mid-run exactly as an interrupted process would be.
struct KillAfter {
    rows_left: usize,
    token: CancelToken,
}

impl Write for KillAfter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        if self.rows_left > 0 {
            self.rows_left -= 1;
            if self.rows_left == 0 {
                self.token.cancel();
            }
        }
        Ok(())
    }
}

#[test]
fn killed_run_resumes_with_zero_recomputation_of_completed_jobs() {
    let dir = std::env::temp_dir().join("sz_batch_kill_resume_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("cache.sexp");
    let snap_dir = dir.join("snaps");

    // First leg: one worker (deterministic completion order), killed
    // after exactly KILL_AFTER finished rows.
    const KILL_AFTER: usize = 3;
    let token = CancelToken::new();
    let cache = Arc::new(Mutex::new(
        ResultCache::new().with_snapshot_budget(64 << 20),
    ));
    let first = BatchEngine::new()
        .with_workers(1)
        .with_cancel_token(token.clone())
        .with_cache(Arc::clone(&cache))
        .with_stream(StreamSink::new(KillAfter {
            rows_left: KILL_AFTER,
            token,
        }))
        .run(corpus());
    let completed: Vec<String> = first
        .outcomes
        .iter()
        .filter(|o| !o.cancelled())
        .map(|o| o.name.clone())
        .collect();
    assert_eq!(completed.len(), KILL_AFTER, "precondition: the kill landed");
    assert_eq!(first.cancelled_count(), corpus().len() - KILL_AFTER);

    // Persist both tiers, as szb does on the way out.
    {
        let cache = cache.lock().unwrap();
        assert_eq!(cache.len(), KILL_AFTER, "cancelled jobs never cache");
        save_snapshot_dir(&cache, &snap_dir).unwrap();
        cache.save(&cache_path).unwrap();
    }

    // Second leg: a fresh "process" loads the shared cache + snapshot
    // dir and reruns the whole corpus.
    let mut reloaded = ResultCache::load(&cache_path).unwrap();
    attach_snapshot_dir(&mut reloaded, &snap_dir).unwrap();
    let resumed = BatchEngine::new()
        .with_workers(1)
        .with_cache(Arc::new(Mutex::new(reloaded)))
        .run(corpus());
    assert_eq!(resumed.cancelled_count(), 0);
    assert_eq!(resumed.ok_count(), corpus().len());
    // Zero recomputation: every job that completed before the kill is a
    // program-tier hit, with no saturation at all.
    assert_eq!(resumed.cache_hits(), KILL_AFTER);
    for o in &resumed.outcomes {
        if completed.contains(&o.name) {
            assert!(o.cached, "{} was recomputed after the resume", o.name);
            assert_eq!(o.iterations, 0, "{}", o.name);
        }
    }

    // The resumed fleet's final outputs are identical to one cold
    // uninterrupted run.
    let cold = BatchEngine::new().with_workers(1).run(corpus());
    for (a, b) in resumed.outcomes.iter().zip(&cold.outcomes) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.programs, b.programs, "{}", a.name);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fuel_raised_rerun_resumes_every_job_from_the_core_key_index() {
    let dir = std::env::temp_dir().join("sz_batch_fuel_raise_test");
    let _ = std::fs::remove_dir_all(&dir);
    let snap_dir = dir.join("snaps");

    // Populate the snapshot tier at LOW fuel: the iteration limit binds
    // on every job, so each stored snapshot keeps its sat-phase section
    // and enters the core-key index.
    let low_config = quick().with_iter_limit(2);
    let cache = Arc::new(Mutex::new(
        ResultCache::new().with_snapshot_budget(64 << 20),
    ));
    let low = BatchEngine::new()
        .with_workers(1)
        .with_cache(Arc::clone(&cache))
        .run(corpus_at(&low_config));
    assert!(
        low.outcomes
            .iter()
            .all(|o| o.stop_reason != Some(StopReason::Saturated)),
        "precondition: low fuel must bind before saturation on every job"
    );
    save_snapshot_dir(&cache.lock().unwrap(), &snap_dir).unwrap();

    // A fresh process at HIGHER fuel: exact snapshot keys all miss (the
    // fuel limits are part of them), but the core-key index — rebuilt
    // from the .snap files — serves every job a partial-saturation
    // resume: zero cold saturations.
    let mut reloaded = ResultCache::new();
    attach_snapshot_dir(&mut reloaded, &snap_dir).unwrap();
    let high = BatchEngine::new()
        .with_workers(1)
        .with_cache(Arc::new(Mutex::new(reloaded)))
        .run(corpus());
    assert_eq!(high.cache_hits(), 0, "full fingerprints differ");
    assert_eq!(
        high.snapshot_hits(),
        high.outcomes.len(),
        "every fuel-raised job must resume from the core-key index"
    );

    // Differential: resumed saturation lands exactly where a cold run
    // at the same fuel lands.
    let cold = BatchEngine::new().with_workers(1).run(corpus());
    for (a, b) in high.outcomes.iter().zip(&cold.outcomes) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.programs, b.programs, "{}", a.name);
        assert_eq!(a.stop_reason, b.stop_reason, "{}", a.name);
        let (ra, rb) = (a.row.as_ref().unwrap(), b.row.as_ref().unwrap());
        assert_eq!((ra.o_ns, ra.o_p, ra.o_d), (rb.o_ns, rb.o_p, rb.o_d));
        assert_eq!((&ra.n_l, &ra.f, ra.rank), (&rb.n_l, &rb.f, rb.rank));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
