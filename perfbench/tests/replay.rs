//! The benchmark's own checks on a small corpus: the traced replay's
//! exact counts repeat across runs, its top-k equals `Synthesizer::run`'s
//! byte for byte, its snapshot tier equals the engine's, and
//! corpus-rextract returns what corpus-cold returns.

use std::time::Instant;

use sz_perfbench::replay::{self, Counts, ReplayPass};
use sz_perfbench::workload::{self, Plan, Workload};
use szalinski::{RunOptions, Synthesizer, Tracer};

fn small(workload: Workload) -> Plan {
    Plan {
        workload,
        seed: 7,
        models: 10,
        passes: 1,
        workers: 2,
        setup_reps: 1,
    }
}

/// One traced run: set-up, then the replayed set-up pass (corpus-rextract)
/// and one replayed timed pass. Returns the exact counts and the timed
/// pass.
fn traced_run(plan: &Plan) -> (Counts, ReplayPass) {
    let tracer = Tracer::enabled();
    let setup = workload::set_up(plan, Instant::now(), &tracer).expect("set-up");
    let rules = szalinski::rules();
    let mut passes = Vec::new();
    if let Some(fill) = &setup.fill {
        let cache = workload::snapshot_cache();
        passes.push(replay::replay_pass(
            &fill.jobs, 0, cache, 2, &rules, &tracer,
        ));
    }
    let cache = workload::pass_cache(plan, &setup);
    passes.push(replay::replay_pass(
        &setup.jobs,
        100,
        cache,
        2,
        &rules,
        &tracer,
    ));
    let counts = replay::total_counts(&passes).exact();
    (counts, passes.pop().expect("one timed pass"))
}

#[test]
fn replay_counts_repeat_and_top_k_matches_the_session() {
    for workload in [Workload::CorpusCold, Workload::CorpusRextract] {
        let plan = small(workload);
        let (a, pass) = traced_run(&plan);
        let (b, _) = traced_run(&plan);
        assert_eq!(a, b, "{}: counts differ between runs", workload.name());
        assert!(a.runner_allocs > 0 && a.extract_allocs > 0 && a.snapshot_allocs > 0);

        let setup = workload::set_up(&plan, Instant::now(), &Tracer::disabled()).expect("set-up");
        let timed = workload::run_timed(&plan, &setup, |_| Ok(())).expect("timed");
        assert!(!timed.snapshots.is_empty(), "{}", workload.name());
        assert!(
            pass.snapshots == timed.snapshots,
            "{}: the replay stored other snapshots than the engine",
            workload.name()
        );
        let session = Synthesizer::new(plan.config());
        for (job, replayed) in setup.jobs.iter().zip(&pass.jobs) {
            let replayed = &replayed.as_ref().expect("replay succeeds").programs;
            let result = session.run(&job.input, RunOptions::new()).expect("run");
            let direct: Vec<(usize, String)> = result
                .top_k
                .iter()
                .map(|p| (p.cost, p.cad.to_string()))
                .collect();
            assert_eq!(&direct, replayed, "{}: {}", workload.name(), job.name);
        }
    }
}

#[test]
fn rextract_returns_what_cold_returns() {
    let run = |workload| {
        let plan = small(workload);
        let setup = workload::set_up(&plan, Instant::now(), &Tracer::disabled()).expect("set-up");
        let timed = workload::run_timed(&plan, &setup, |_| Ok(())).expect("timed");
        let problems = workload::check_timed(&plan, &setup, &timed);
        assert!(problems.is_empty(), "{problems:?}");
        timed.passes[0]
            .iter()
            .map(|o| {
                (
                    o.name.clone(),
                    o.programs.clone(),
                    o.row.clone().map(|r| r.rank),
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(Workload::CorpusCold), run(Workload::CorpusRextract));
}
