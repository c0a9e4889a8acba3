//! # sz-bench: harness regenerating the paper's tables and figures
//!
//! Binaries:
//!
//! * `table1` — runs all 16 benchmark models through the synthesizer and
//!   prints Table 1 (plus the `wardrobe@` reward-loops row and the
//!   paper's aggregate claims);
//! * `figures` — regenerates each worked figure (1, 2, 4, 10, 14, 16,
//!   17, 18, 19) and prints paper-vs-measured notes;
//! * `ematch` — per-rule e-matching profile over suite16 (matches,
//!   unions, search/apply time from the runner's
//!   [`RuleStat`](sz_egraph::RuleStat)s), emitting `BENCH_ematch.json`;
//!   its `--baseline` mode fails if any rule listed in
//!   `crates/bench/ematch_baseline.txt` reports zero matches (CI's
//!   e-matching regression gate).
//!
//! Timing lives in one harness, `perfbench/` (see `BENCHMARK.json`):
//! end-to-end throughput and latency on a generated corpus, and a
//! per-layer split with `--trace 1`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use sz_batch::BatchEngine;
use sz_models::Model;
use szalinski::{RewardLoopsCost, RunOptions, SynthConfig, Synthesis, Synthesizer, TableRow};

/// The synthesis configuration used for Table 1 (k = 5, ε = 10⁻³, like
/// the paper).
pub fn table1_config() -> SynthConfig {
    SynthConfig::new()
        .with_k(5)
        .with_iter_limit(150)
        .with_node_limit(200_000)
}

/// Runs one model and produces its Table-1 row.
pub fn run_model(model: &Model, config: &SynthConfig) -> (TableRow, Synthesis) {
    let result = Synthesizer::new(config.clone())
        .run(&model.flat, RunOptions::new())
        .expect("benchmark models are flat CSG");
    let row = result.table_row(model.name);
    (row, result)
}

/// Runs the full Table 1, returning rows in paper order (plus the
/// `wardrobe@` reward-loops rerun as the final row).
///
/// Uses one worker per core via the `sz-batch` engine; see
/// [`run_table1_with`] to control worker count or attach a cache.
pub fn run_table1() -> Vec<TableRow> {
    run_table1_with(&BatchEngine::new())
}

/// [`run_table1`] on a caller-configured batch engine (worker count,
/// per-job deadline, result cache).
pub fn run_table1_with(engine: &BatchEngine) -> Vec<TableRow> {
    run_table1_report(engine)
        .outcomes
        .into_iter()
        .map(|outcome| {
            outcome
                .row
                .unwrap_or_else(|| panic!("table1 job {:?} failed", outcome.status))
        })
        .collect()
}

/// [`run_table1_with`], returning the full
/// [`BatchReport`](sz_batch::BatchReport) (cache and snapshot-tier hit
/// counts included). Note the `wardrobe@` job shares
/// `wardrobe`'s saturation config and differs only in the cost
/// function, so with a snapshot-tier cache attached it can resume from
/// `wardrobe`'s saturated e-graph instead of re-saturating (guaranteed
/// on a second invocation over a persisted snapshot dir; opportunistic
/// within one parallel batch).
pub fn run_table1_report(engine: &BatchEngine) -> sz_batch::BatchReport {
    // The 16 paper rows, plus the wardrobe@ reward-loops rerun as one
    // extra job at the end of the same batch.
    let mut jobs = sz_batch::suite16_jobs(&table1_config());
    let wardrobe = sz_models::all_models()
        .into_iter()
        .find(|m| m.name == "510849:wardrobe")
        .expect("wardrobe model exists");
    jobs.push(sz_batch::BatchJob::new(
        "510849:wardrobe@",
        wardrobe.flat,
        table1_config().with_cost_model(Arc::new(RewardLoopsCost)),
    ));
    engine.run(jobs)
}

/// Aggregate statistics over Table-1 rows (the paper's headline claims).
#[derive(Debug, Clone, Copy)]
pub struct Aggregate {
    /// Mean size reduction `1 − o_ns/i_ns` (paper: 64 %).
    pub mean_size_reduction: f64,
    /// Fraction of models with structure exposed (paper: 81 %).
    pub structure_fraction: f64,
    /// Mean AST-depth reduction (paper: 40.5 %).
    pub mean_depth_reduction: f64,
    /// Mean primitive-count reduction (paper: 65 %).
    pub mean_prim_reduction: f64,
    /// Maximum synthesis time in seconds (paper: < 300 s).
    pub max_time_s: f64,
}

/// Computes the aggregate row over the 16 base models (excluding the
/// `@` rerun, as the paper's averages do).
pub fn aggregate(rows: &[TableRow]) -> Aggregate {
    let base: Vec<&TableRow> = rows.iter().filter(|r| !r.name.ends_with('@')).collect();
    let n = base.len() as f64;
    let mean = |f: &dyn Fn(&TableRow) -> f64| base.iter().map(|r| f(r)).sum::<f64>() / n;
    Aggregate {
        mean_size_reduction: mean(&|r| r.size_reduction()),
        structure_fraction: base.iter().filter(|r| r.rank.is_some()).count() as f64 / n,
        mean_depth_reduction: mean(&|r| 1.0 - r.o_d as f64 / r.i_d as f64),
        mean_prim_reduction: mean(&|r| 1.0 - r.o_p as f64 / r.i_p as f64),
        max_time_s: base.iter().map(|r| r.time_s).fold(0.0, f64::max),
    }
}

/// A faster configuration (same pipeline, tighter fuel): the default
/// of the `ematch` profile.
pub fn quick_config() -> SynthConfig {
    SynthConfig::new()
        .with_k(3)
        .with_iter_limit(40)
        .with_node_limit(60_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_bounded() {
        let c = quick_config();
        assert!(c.iter_limit <= 40);
        assert!(c.k >= 1);
    }

    #[test]
    fn small_model_row_sane() {
        let model = sz_models::all_models()
            .into_iter()
            .find(|m| m.name == "3171605:card-org")
            .unwrap();
        let (row, result) = run_model(&model, &quick_config());
        assert!(row.o_ns <= row.i_ns);
        assert!(result.top_k.len() <= 3);
        assert!(row.rank.is_some(), "card-org has an 8-fin loop");
    }

    #[test]
    fn aggregate_math() {
        let rows = vec![
            TableRow {
                name: "a".into(),
                i_ns: 100,
                o_ns: 50,
                i_p: 10,
                o_p: 5,
                i_d: 10,
                o_d: 5,
                n_l: "n1,2".into(),
                f: "d1".into(),
                time_s: 1.0,
                rank: Some(1),
            },
            TableRow {
                name: "b@".into(),
                i_ns: 100,
                o_ns: 100,
                i_p: 10,
                o_p: 10,
                i_d: 10,
                o_d: 10,
                n_l: "-".into(),
                f: "-".into(),
                time_s: 9.0,
                rank: None,
            },
        ];
        let agg = aggregate(&rows);
        // Only the non-@ row counts.
        assert!((agg.mean_size_reduction - 0.5).abs() < 1e-12);
        assert!((agg.structure_fraction - 1.0).abs() < 1e-12);
        assert!((agg.max_time_s - 1.0).abs() < 1e-12);
    }
}
