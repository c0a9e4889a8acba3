//! `ematch` — per-rule e-matching profile over the 16-model suite,
//! emitting `BENCH_ematch.json`.
//!
//! Runs suite16 on one worker (no caches, so every job saturates) and
//! aggregates the per-rule [`RuleStat`]s the runner records — matches
//! found, classes unioned, search/apply wall-clock time, backoff bans —
//! across all jobs. With `--baseline`, additionally acts as a
//! regression gate: the baseline file lists the rules that had matches
//! on the seed run, and the binary fails if any of them now reports
//! zero matches (a silently dead rule is exactly the failure mode a
//! broken e-matcher produces while all outputs still "look fine").
//!
//! ```text
//! ematch --out BENCH_ematch.json
//! ematch --baseline crates/bench/ematch_baseline.txt     # CI gate
//! ematch --write-baseline crates/bench/ematch_baseline.txt
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use sz_batch::report::{json_f64, json_string};
use sz_batch::{suite16_jobs, BatchEngine};
use sz_bench::{quick_config, table1_config};
use szalinski::RuleStat;

const USAGE: &str = "\
ematch — per-rule e-matching profile over the paper's 16-model suite

USAGE:
    ematch [--out FILE] [--baseline FILE] [--write-baseline FILE] [--full]

OPTIONS:
    --out <FILE>             JSONL profile output (default: BENCH_ematch.json; 'none' disables)
    --baseline <FILE>        fail if any rule listed in FILE reports zero matches
    --write-baseline <FILE>  write the names of all rules with >0 matches to FILE
    --full                   use the full Table-1 fuel (default: the quick bench config)
    --help                   show this text
";

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = Some(PathBuf::from("BENCH_ematch.json"));
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut full = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--full" => full = true,
            "--out" => match value() {
                Ok(v) => out = (v != "none").then(|| PathBuf::from(v)),
                Err(e) => return usage_error(&e),
            },
            "--baseline" => match value() {
                Ok(v) => baseline = Some(PathBuf::from(v)),
                Err(e) => return usage_error(&e),
            },
            "--write-baseline" => match value() {
                Ok(v) => write_baseline = Some(PathBuf::from(v)),
                Err(e) => return usage_error(&e),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }

    let config = if full {
        table1_config()
    } else {
        quick_config()
    };
    let jobs = suite16_jobs(&config);
    let n_jobs = jobs.len();
    let report = BatchEngine::new().with_workers(1).run(jobs);
    if report.ok_count() != n_jobs {
        eprintln!("ematch: only {}/{n_jobs} jobs succeeded", report.ok_count());
        return ExitCode::FAILURE;
    }
    // Rule-compilation reuse gate: the Synthesizer sessions behind the
    // batch engine share one process-wide compiled rule set, so pattern
    // compiles must be bounded by the rule-set size — not scale with the
    // 16 jobs.
    let pattern_compiles = sz_egraph::compile_count();
    let rule_count = szalinski::rules().len() + szalinski::all_rules().len();

    // Aggregate per-rule stats across jobs, sorted by rule name so the
    // output is deterministic.
    let mut totals: Vec<RuleStat> = Vec::new();
    RuleStat::fold_by_name(
        &mut totals,
        report
            .outcomes
            .iter()
            .flat_map(|o| o.rule_stats.iter().cloned()),
    );
    totals.sort_by(|a, b| a.name.cmp(&b.name));
    let search_total: f64 = totals.iter().map(|s| s.search_time.as_secs_f64()).sum();
    let apply_total: f64 = totals.iter().map(|s| s.apply_time.as_secs_f64()).sum();

    println!(
        "ematch: {} rules over {n_jobs} models | search {:.3}s, apply {:.3}s, wall {:.3}s | {} pattern compiles",
        totals.len(),
        search_total,
        apply_total,
        report.wall_time.as_secs_f64(),
        pattern_compiles,
    );
    if pattern_compiles > rule_count {
        eprintln!(
            "ematch: {pattern_compiles} pattern compiles for {n_jobs} jobs (rule sets total \
             {rule_count} rules): the Synthesizer's compiled-rule cache is not being reused"
        );
        return ExitCode::FAILURE;
    }
    let mut by_time: Vec<&RuleStat> = totals.iter().collect();
    by_time.sort_by_key(|s| std::cmp::Reverse(s.search_time));
    for stat in by_time.iter().take(5) {
        println!(
            "ematch:   {:<28} {:>8} matches {:>7} applied  search {:.3}s",
            stat.name,
            stat.matches,
            stat.applied,
            stat.search_time.as_secs_f64(),
        );
    }

    if let Some(path) = &out {
        let mut lines = String::new();
        for stat in &totals {
            lines.push_str(&format!(
                "{{\"type\":\"rule\",\"name\":{},\"matches\":{},\"applied\":{},\"search_s\":{},\"apply_s\":{},\"times_banned\":{}}}\n",
                json_string(&stat.name),
                stat.matches,
                stat.applied,
                json_f64(stat.search_time.as_secs_f64()),
                json_f64(stat.apply_time.as_secs_f64()),
                stat.times_banned,
            ));
        }
        lines.push_str(&format!(
            "{{\"type\":\"summary\",\"jobs\":{},\"rules\":{},\"search_time_s\":{},\"apply_time_s\":{},\"wall_time_s\":{},\"pattern_compiles\":{}}}\n",
            n_jobs,
            totals.len(),
            json_f64(search_total),
            json_f64(apply_total),
            json_f64(report.wall_time.as_secs_f64()),
            pattern_compiles,
        ));
        if let Err(e) = std::fs::write(path, lines) {
            eprintln!("ematch: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("ematch: wrote profile to {}", path.display());
    }

    if let Some(path) = &write_baseline {
        let names: Vec<&str> = totals
            .iter()
            .filter(|s| s.matches > 0)
            .map(|s| s.name.as_str())
            .collect();
        let body = format!(
            "# Rules with >0 total matches on a cold suite16 run ({} config).\n\
             # Regenerate with: cargo run --release -p sz-bench --bin ematch -- --out none --write-baseline <this file>\n{}\n",
            if full { "full" } else { "quick" },
            names.join("\n")
        );
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("ematch: cannot write baseline {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "ematch: wrote baseline ({} rules) to {}",
            names.len(),
            path.display()
        );
    }

    if let Some(path) = &baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("ematch: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let mut dead = Vec::new();
        for name in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            match totals.iter().find(|s| s.name == name) {
                Some(stat) if stat.matches > 0 => {}
                Some(_) => dead.push(name.to_owned()),
                None => dead.push(format!("{name} (unknown rule)")),
            }
        }
        if !dead.is_empty() {
            let mut stderr = std::io::stderr();
            let _ = writeln!(
                stderr,
                "ematch: {} baseline rule(s) report zero matches where the seed run had matches:",
                dead.len()
            );
            for name in &dead {
                let _ = writeln!(stderr, "ematch:   {name}");
            }
            return ExitCode::FAILURE;
        }
        println!("ematch: baseline check passed ({})", path.display());
    }

    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ematch: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
