//! Differential tests for the snapshot cache tier: resumed runs must be
//! byte-identical to cold runs, cost-only config changes must hit the
//! tier with rate 1.0, and rule-set changes must invalidate it.

use std::sync::{Arc, Mutex};

use sz_batch::{BatchEngine, BatchJob, JobOutcome, ResultCache};
use sz_cad::Cad;
use szalinski::{RewardLoopsCost, SynthConfig, SynthSnapshot};

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

fn jobs(config: &SynthConfig) -> Vec<BatchJob> {
    (3..7)
        .map(|n| BatchJob::new(format!("row{n}"), row(n), config.clone()))
        .collect()
}

fn shared_cache() -> Arc<Mutex<ResultCache>> {
    Arc::new(Mutex::new(
        ResultCache::new().with_snapshot_budget(64 << 20),
    ))
}

fn programs(outcomes: &[JobOutcome]) -> Vec<Vec<(usize, String)>> {
    outcomes.iter().map(|o| o.programs.clone()).collect()
}

#[test]
fn cost_only_change_resumes_with_full_hit_rate() {
    let cache = shared_cache();
    let engine = BatchEngine::new().with_workers(2).with_cache(cache.clone());

    // Cold: no hits anywhere, snapshots captured for every job.
    let cold = engine.run(jobs(&quick()));
    assert_eq!(cold.ok_count(), 4);
    assert_eq!(cold.cache_hits(), 0);
    assert_eq!(cold.snapshot_hits(), 0);
    assert!(cold.outcomes.iter().all(|o| o.iterations > 0));
    assert_eq!(cache.lock().unwrap().snapshot_count(), 4);

    // Cost-only config change: program tier misses, snapshot tier hits
    // at rate 1.0, and no job spends a single saturation iteration.
    let reward = quick().with_cost_model(Arc::new(RewardLoopsCost));
    let resumed = engine.run(jobs(&reward));
    assert_eq!(resumed.ok_count(), 4);
    assert_eq!(resumed.cache_hits(), 0, "full fingerprints differ");
    assert_eq!(resumed.snapshot_hits(), 4);
    assert!((resumed.snapshot_hit_rate() - 1.0).abs() < f64::EPSILON);
    assert!(resumed.outcomes.iter().all(|o| o.iterations == 0));

    // Differential: byte-identical to a cold run of the changed config.
    let fresh = BatchEngine::new().with_workers(2).run(jobs(&reward));
    assert_eq!(programs(&resumed.outcomes), programs(&fresh.outcomes));
    for (a, b) in resumed.outcomes.iter().zip(&fresh.outcomes) {
        let (ra, rb) = (a.row.as_ref().unwrap(), b.row.as_ref().unwrap());
        assert_eq!((ra.o_ns, ra.o_p, ra.o_d), (rb.o_ns, rb.o_p, rb.o_d));
        assert_eq!((&ra.n_l, &ra.f, ra.rank), (&rb.n_l, &rb.f, rb.rank));
    }

    // A resumed result lands in the program tier: a third identical run
    // is a plain program-cache hit.
    let third = engine.run(jobs(&reward));
    assert_eq!(third.cache_hits(), 4);
    assert_eq!(third.snapshot_hits(), 0);
    assert_eq!(programs(&third.outcomes), programs(&resumed.outcomes));
}

#[test]
fn same_config_rerun_prefers_program_tier() {
    let cache = shared_cache();
    let engine = BatchEngine::new().with_workers(2).with_cache(cache);
    let cold = engine.run(jobs(&quick()));
    let warm = engine.run(jobs(&quick()));
    assert_eq!(warm.cache_hits(), 4);
    assert_eq!(warm.snapshot_hits(), 0, "program tier shadows snapshots");
    assert_eq!(programs(&warm.outcomes), programs(&cold.outcomes));
}

#[test]
fn rule_set_change_invalidates_snapshots() {
    let cache = shared_cache();
    let engine = BatchEngine::new().with_workers(2).with_cache(cache.clone());
    engine.run(jobs(&quick()));
    assert_eq!(cache.lock().unwrap().snapshot_count(), 4);

    // structural_rules changes the rule set → saturation fingerprint →
    // snapshot keys: everything re-saturates.
    let structural = quick().with_structural_rules(true).with_backoff(true);
    let rerun = engine.run(jobs(&structural));
    assert_eq!(rerun.snapshot_hits(), 0);
    assert_eq!(rerun.cache_hits(), 0);
    assert!(rerun.outcomes.iter().all(|o| o.iterations > 0));
    // The new saturation configs store their own snapshots alongside.
    assert_eq!(cache.lock().unwrap().snapshot_count(), 8);
}

/// `v3` (a capture with a saturation phase) rewritten in the retired
/// `szsynth v1` form: the three identity lines, then only the final graph.
fn as_v1(v3: &str) -> String {
    let snapshot: SynthSnapshot = v3.parse().unwrap();
    let mut v1: String = v3.lines().take(3).map(|l| format!("{l}\n")).collect();
    v1 = v1.replacen("szsynth v3", "szsynth v1", 1);
    v1.push_str(&snapshot.egraph_snapshot().to_string());
    v1
}

/// `v3` rewritten in the retired `szsynth v2` form: a five-token
/// satphase descriptor and no `rulestat` table.
fn as_v2(v3: &str) -> String {
    let snapshot: SynthSnapshot = v3.parse().unwrap();
    let nstats = snapshot.sat_phase().unwrap().rule_stats().len();
    let mut v2 = String::new();
    for (i, line) in v3.lines().enumerate() {
        if i == 0 {
            v2.push_str("szsynth v2");
        } else if i == 3 {
            v2.push_str(&line[..line.rfind(' ').unwrap()]);
        } else if (4..4 + nstats).contains(&i) {
            continue;
        } else {
            v2.push_str(line);
        }
        v2.push('\n');
    }
    v2
}

#[test]
fn corrupt_snapshot_falls_back_to_cold_run() {
    use sz_batch::SnapshotKey;

    // Fuel-limited, so the stored capture keeps its saturation phase
    // (the v2 rewrite shortens its descriptor).
    let config = quick().with_iter_limit(3);
    let reward = config.clone().with_cost_model(Arc::new(RewardLoopsCost));
    let job = |config: &SynthConfig| vec![BatchJob::new("row5", row(5), config.clone())];
    let skey = SnapshotKey::of(&row(5), &config);
    let cold = BatchEngine::new().run(job(&reward));
    assert_eq!(cold.ok_count(), 1);

    // The job's own capture, to rewrite in the retired formats.
    let cache = shared_cache();
    BatchEngine::new()
        .with_cache(cache.clone())
        .run(job(&config));
    let v3 = cache.lock().unwrap().get_snapshot(skey).unwrap().to_owned();

    // A poisoned or retired-format entry: a cost-only rerun must still
    // succeed (cold), not fail or hit, and overwrite the entry.
    for poison in ["szsynth v1\ngarbage".to_owned(), as_v1(&v3), as_v2(&v3)] {
        let cache = shared_cache();
        cache.lock().unwrap().insert_snapshot(skey, poison.clone());
        let engine = BatchEngine::new().with_workers(2).with_cache(cache.clone());
        let rerun = engine.run(job(&reward));
        let head = poison.lines().next().unwrap();
        assert_eq!(rerun.ok_count(), 1, "{head}");
        assert_eq!(rerun.snapshot_hits(), 0, "{head}");
        assert!(
            rerun.outcomes[0].iterations > 0,
            "{head}: fell back to a cold run"
        );
        assert_eq!(
            rerun.outcomes[0].programs[0], cold.outcomes[0].programs[0],
            "{head}"
        );
        let stored = cache.lock().unwrap().get_snapshot(skey).unwrap().to_owned();
        assert!(
            stored.starts_with("szsynth v3\n"),
            "{head}: entry rewritten"
        );
    }
}

#[test]
fn cache_without_budget_captures_no_snapshots() {
    let cache = Arc::new(Mutex::new(ResultCache::new()));
    let engine = BatchEngine::new().with_workers(2).with_cache(cache.clone());
    engine.run(jobs(&quick()));
    assert_eq!(cache.lock().unwrap().snapshot_count(), 0);
    // Program tier still works as before.
    let warm = engine.run(jobs(&quick()));
    assert_eq!(warm.cache_hits(), 4);
}

#[test]
fn mixed_cache_file_roundtrips_through_disk() {
    let dir = std::env::temp_dir().join("sz_batch_snapshot_cache_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.sexp");
    let _ = std::fs::remove_file(&path);

    let cache = shared_cache();
    let engine = BatchEngine::new().with_workers(2).with_cache(cache.clone());
    engine.run(jobs(&quick()));
    cache.lock().unwrap().save(&path).unwrap();

    // A fresh process loads both tiers and resumes from the snapshots.
    let loaded = ResultCache::load(&path).unwrap();
    assert_eq!(loaded.len(), 4);
    assert_eq!(loaded.snapshot_count(), 4);
    let loaded = Arc::new(Mutex::new(loaded.with_snapshot_budget(64 << 20)));
    let engine2 = BatchEngine::new().with_workers(2).with_cache(loaded);
    let reward = quick().with_cost_model(Arc::new(RewardLoopsCost));
    let resumed = engine2.run(jobs(&reward));
    assert_eq!(resumed.snapshot_hits(), 4);
    assert!(resumed.outcomes.iter().all(|o| o.iterations == 0));
    std::fs::remove_file(&path).unwrap();
}
