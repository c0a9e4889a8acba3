//! Regenerates the paper's Table 1: runs all 16 benchmark models (plus
//! the `wardrobe@` reward-loops rerun) and prints every column, followed
//! by the aggregate row and the paper's headline claims.
//!
//! With `--snapshots <DIR>`, saturated e-graphs are persisted between
//! invocations: the first run stores one snapshot per model, and later
//! runs resume from them — the built-in `wardrobe@` reward-loops rerun
//! already exercises the tier, since it shares `wardrobe`'s saturation
//! config and differs only in the cost function.
//!
//! ```text
//! cargo run --release -p sz-bench --bin table1 [-- --workers N] [--snapshots DIR]
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sz_batch::{attach_snapshot_dir, save_snapshot_dir, BatchEngine, ResultCache};
use sz_bench::aggregate;
use szalinski::TableRow;

fn main() {
    let mut engine = BatchEngine::new();
    let mut snapshots: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let n = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number");
                engine = engine.with_workers(n);
            }
            "--snapshots" => {
                snapshots = Some(PathBuf::from(
                    args.next().expect("--snapshots needs a directory"),
                ));
            }
            other => {
                panic!("unknown argument {other} (supported: --workers N, --snapshots DIR)")
            }
        }
    }
    let cache = snapshots.as_ref().map(|dir| {
        let mut cache = ResultCache::new();
        let loaded = attach_snapshot_dir(&mut cache, dir).expect("snapshot dir must be readable");
        if loaded > 0 {
            println!("snapshots: loaded {loaded} from {}", dir.display());
        }
        Arc::new(Mutex::new(cache))
    });
    if let Some(cache) = &cache {
        engine = engine.with_cache(Arc::clone(cache));
    }

    println!("Reproducing Table 1 (16 Thingiverse models, k = 5, eps = 1e-3)");
    println!();
    println!("{}", TableRow::header());
    println!("{}", "-".repeat(118));
    let report = sz_bench::run_table1_report(&engine);
    let rows: Vec<TableRow> = report
        .outcomes
        .iter()
        .map(|o| {
            o.row
                .clone()
                .unwrap_or_else(|| panic!("table1 job {:?} failed", o.status))
        })
        .collect();
    for row in &rows {
        println!("{}", row.format());
    }
    println!("{}", "-".repeat(118));
    if let (Some(dir), Some(cache)) = (&snapshots, &cache) {
        let cache = cache.lock().unwrap();
        let saved = save_snapshot_dir(&cache, dir).expect("snapshot dir must be writable");
        println!(
            "snapshots: {} resumed this run; wrote {saved} of {} to {} ({} bytes held)",
            report.snapshot_hits(),
            cache.snapshot_count(),
            dir.display(),
            cache.snapshot_bytes(),
        );
    }

    let agg = aggregate(&rows);
    println!(
        "{:<24} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5}",
        "Average (16 models)", "", "", "", "", "", ""
    );
    println!();
    println!("Headline claims (paper -> measured):");
    println!(
        "  mean size reduction:      64%  -> {:.0}%",
        agg.mean_size_reduction * 100.0
    );
    println!(
        "  structure exposed:        81%  -> {:.0}%",
        agg.structure_fraction * 100.0
    );
    println!(
        "  mean depth reduction:     40.5% -> {:.1}%",
        agg.mean_depth_reduction * 100.0
    );
    println!(
        "  mean primitive reduction: 65%  -> {:.0}%",
        agg.mean_prim_reduction * 100.0
    );
    println!(
        "  max time per model:       <300s -> {:.2}s",
        agg.max_time_s
    );
}
