//! `egraph_core` — microbenchmark of the e-graph storage core, emitting
//! `BENCH_egraph_core.json`.
//!
//! Exercises the arena-backed primitives directly on a deterministic
//! synthetic workload (no models, no rules): hash-consed `add` over a
//! balanced binary tree, memo probes via `lookup`, a union wave that
//! forces a full congruence cascade, the batched `rebuild` that repairs
//! it, and one sparse rebuild after a single-leaf union, whose cost must
//! follow what changed rather than the graph's size. Reports throughput
//! per phase plus the structural counts (classes, arena nodes, memo
//! entries) the workload must always produce.
//!
//! With `--baseline`, acts as a regression gate: structural counts must
//! match the baseline exactly (the workload is deterministic — any
//! drift is a core bug, not noise), and each throughput must stay
//! within `--gate-factor` (default 3×) of the baseline figure.
//!
//! ```text
//! egraph_core --out BENCH_egraph_core.json
//! egraph_core --baseline crates/bench/egraph_core_baseline.txt    # CI gate
//! egraph_core --write-baseline crates/bench/egraph_core_baseline.txt
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use sz_batch::report::json_f64;
use sz_egraph::tests_lang::Arith;
use sz_egraph::{EGraph, Id};

const USAGE: &str = "\
egraph_core — microbenchmark of the e-graph arena core

USAGE:
    egraph_core [--out FILE] [--baseline FILE] [--write-baseline FILE] [--gate-factor X]

OPTIONS:
    --out <FILE>             JSONL output (default: BENCH_egraph_core.json; 'none' disables)
    --baseline <FILE>        gate against FILE: counts exact, throughput >= baseline/X
    --write-baseline <FILE>  write this run's counts and throughputs to FILE
    --gate-factor <X>        allowed throughput slowdown factor (default: 3)
    --help                   show this text
";

/// Leaves of the balanced `+`-tree; the workload interns `2n - 1` nodes.
const N_LEAVES: usize = 1 << 13;
/// Memo-probe sweeps over every interned node.
const PROBE_SWEEPS: usize = 8;
/// Whole-workload repetitions; throughputs take the best round.
const ROUNDS: usize = 3;

struct RunStats {
    adds: usize,
    add_per_s: f64,
    probes: usize,
    probe_per_s: f64,
    unions: usize,
    union_per_s: f64,
    rebuild_s: f64,
    sparse_rebuild_s: f64,
    sparse_classes: usize,
    peak_nodes: usize,
    classes: usize,
    arena_nodes: usize,
    memo_len: usize,
}

fn run_workload() -> RunStats {
    let mut eg: EGraph<Arith, ()> = EGraph::default();

    // Phase 1: hash-consed adds — a balanced binary `+`-tree over
    // distinct integer leaves. Every add is a distinct node (miss path).
    let t = Instant::now();
    let mut adds = 0usize;
    let leaves: Vec<Id> = (0..N_LEAVES)
        .map(|i| {
            adds += 1;
            eg.add(Arith::Num(i as i64))
        })
        .collect();
    let mut layer = leaves.clone();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            match *pair {
                [a, b] => {
                    adds += 1;
                    next.push(eg.add(Arith::Add([a, b])));
                }
                [a] => next.push(a),
                _ => unreachable!(),
            }
        }
        layer = next;
    }
    let add_per_s = adds as f64 / t.elapsed().as_secs_f64();
    eg.rebuild();
    let peak_nodes = eg.total_number_of_nodes();

    // Phase 2: memo probes — immutable lookups of nodes known to be
    // interned (pure hit path: arena probe + dense memo read).
    let t = Instant::now();
    let mut probes = 0usize;
    let mut found = 0usize;
    for _ in 0..PROBE_SWEEPS {
        for i in 0..N_LEAVES {
            probes += 1;
            found += usize::from(eg.lookup(Arith::Num(i as i64)).is_some());
        }
    }
    let probe_per_s = probes as f64 / t.elapsed().as_secs_f64();
    assert_eq!(found, probes, "every probed leaf was interned above");

    // Phase 3: a union wave — merging leaf i with leaf i + n/2 makes
    // every `+` over mirrored leaves congruent, cascading up the tree.
    let t = Instant::now();
    let mut unions = 0usize;
    let half = N_LEAVES / 2;
    for i in 0..half {
        let (_, did) = eg.union(leaves[i], leaves[i + half]);
        unions += usize::from(did);
    }
    let union_per_s = unions as f64 / t.elapsed().as_secs_f64();

    // Phase 4: one batched rebuild repairs the whole cascade.
    let t = Instant::now();
    eg.rebuild();
    let rebuild_s = t.elapsed().as_secs_f64();
    let classes = eg.number_of_classes();
    let arena_nodes = eg.arena_size();
    let memo_len = eg.memo_size();

    // Phase 5: one fresh leaf unioned into leaf 0 touches two classes, so
    // the rebuild after it must not walk the other thousands.
    let fresh = eg.add(Arith::Num(N_LEAVES as i64));
    eg.union(leaves[0], fresh);
    let t = Instant::now();
    eg.rebuild();
    let sparse_rebuild_s = t.elapsed().as_secs_f64();

    RunStats {
        adds,
        add_per_s,
        probes,
        probe_per_s,
        unions,
        union_per_s,
        rebuild_s,
        sparse_rebuild_s,
        sparse_classes: eg.number_of_classes(),
        peak_nodes,
        classes,
        arena_nodes,
        memo_len,
    }
}

/// The `key value` pairs reported, gated, and written as the baseline.
/// Keys ending in `_per_s` gate as throughput (higher is better, noise
/// headroom applies); keys ending in `rebuild_s` gate as time; the rest
/// gate exactly.
fn metrics(s: &RunStats) -> Vec<(&'static str, f64)> {
    vec![
        ("adds", s.adds as f64),
        ("probes", s.probes as f64),
        ("unions", s.unions as f64),
        ("peak_nodes", s.peak_nodes as f64),
        ("classes", s.classes as f64),
        ("arena_nodes", s.arena_nodes as f64),
        ("memo_len", s.memo_len as f64),
        ("add_per_s", s.add_per_s),
        ("probe_per_s", s.probe_per_s),
        ("union_per_s", s.union_per_s),
        ("rebuild_s", s.rebuild_s),
        ("sparse_rebuild_s", s.sparse_rebuild_s),
        ("sparse_classes", s.sparse_classes as f64),
    ]
}

fn is_time(key: &str) -> bool {
    key.ends_with("rebuild_s")
}

fn is_exact(key: &str) -> bool {
    !key.ends_with("_per_s") && !is_time(key)
}

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = Some(PathBuf::from("BENCH_egraph_core.json"));
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut gate_factor = 3.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
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
            "--gate-factor" => match value().map(|v| v.parse::<f64>()) {
                Ok(Ok(x)) if x >= 1.0 => gate_factor = x,
                Ok(_) => return usage_error("--gate-factor needs a number >= 1"),
                Err(e) => return usage_error(&e),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument: {other}")),
        }
    }

    // Structural counts must agree across rounds (the workload is
    // deterministic); throughputs take the best round.
    let mut best = run_workload();
    for _ in 1..ROUNDS {
        let r = run_workload();
        assert_eq!(r.classes, best.classes, "nondeterministic class count");
        assert_eq!(r.arena_nodes, best.arena_nodes, "nondeterministic arena");
        assert_eq!(r.memo_len, best.memo_len, "nondeterministic memo");
        assert_eq!(
            r.sparse_classes, best.sparse_classes,
            "nondeterministic classes"
        );
        best.add_per_s = best.add_per_s.max(r.add_per_s);
        best.probe_per_s = best.probe_per_s.max(r.probe_per_s);
        best.union_per_s = best.union_per_s.max(r.union_per_s);
        best.rebuild_s = best.rebuild_s.min(r.rebuild_s);
        best.sparse_rebuild_s = best.sparse_rebuild_s.min(r.sparse_rebuild_s);
    }

    println!(
        "egraph_core: add {:.2}M/s | probe {:.2}M/s | union {:.2}M/s | rebuild {:.1}ms \
         | sparse rebuild {:.1}us | {} nodes peak, {} classes, {} arena, {} memo",
        best.add_per_s / 1e6,
        best.probe_per_s / 1e6,
        best.union_per_s / 1e6,
        best.rebuild_s * 1e3,
        best.sparse_rebuild_s * 1e6,
        best.peak_nodes,
        best.classes,
        best.arena_nodes,
        best.memo_len,
    );

    if let Some(path) = &out {
        let mut line = String::from("{\"type\":\"egraph_core\"");
        for (key, value) in metrics(&best) {
            line.push_str(&format!(",\"{key}\":{}", json_f64(value)));
        }
        line.push_str("}\n");
        if let Err(e) = std::fs::write(path, line) {
            eprintln!("egraph_core: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("egraph_core: wrote profile to {}", path.display());
    }

    if let Some(path) = &write_baseline {
        let mut body = String::from(
            "# egraph_core baseline. Counts gate exactly (deterministic workload);\n\
             # *_per_s gate at >= baseline/FACTOR, rebuild_s at <= baseline*FACTOR.\n\
             # Regenerate with: cargo run --release -p sz-bench --bin egraph_core -- \
             --out none --write-baseline <this file>\n",
        );
        for (key, value) in metrics(&best) {
            body.push_str(&format!("{key} {}\n", json_f64(value)));
        }
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("egraph_core: cannot write baseline {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("egraph_core: wrote baseline to {}", path.display());
    }

    if let Some(path) = &baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("egraph_core: cannot read baseline {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let current = metrics(&best);
        let mut failures = Vec::new();
        for line in text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let Some((key, value)) = line.split_once(' ') else {
                failures.push(format!("malformed baseline line: {line}"));
                continue;
            };
            let Ok(expected) = value.trim().parse::<f64>() else {
                failures.push(format!("malformed baseline value: {line}"));
                continue;
            };
            let Some(&(_, actual)) = current.iter().find(|(k, _)| *k == key) else {
                failures.push(format!("{key}: unknown metric"));
                continue;
            };
            if is_exact(key) {
                if actual != expected {
                    failures.push(format!("{key}: expected {expected}, got {actual}"));
                }
            } else if is_time(key) {
                if actual > expected * gate_factor {
                    failures.push(format!(
                        "{key}: {actual:.3e}s exceeds {expected:.3e}s x{gate_factor}"
                    ));
                }
            } else if actual < expected / gate_factor {
                failures.push(format!(
                    "{key}: {actual:.0}/s below {expected:.0}/s / {gate_factor}"
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!(
                "egraph_core: {} regression(s) vs {}:",
                failures.len(),
                path.display()
            );
            for f in &failures {
                eprintln!("egraph_core:   {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("egraph_core: baseline check passed ({})", path.display());
    }

    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("egraph_core: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
