//! End-to-end tests of the `szb` binary (cargo builds it and exposes
//! the path via `CARGO_BIN_EXE_szb`): directory corpus mode, report and
//! OpenSCAD emission, the cross-process warm-cache rerun, and the
//! `szb lint` gate.

use std::path::{Path, PathBuf};
use std::process::Command;

fn szb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_szb"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("szb_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_corpus(dir: &Path) {
    std::fs::write(
        dir.join("fins.scad"),
        "for (i = [0 : 5]) translate([i * 6, 0, 0]) cube([2, 30, 40], center = true);",
    )
    .unwrap();
    std::fs::write(
        dir.join("row.csexp"),
        "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) (Translate 6 0 0 Unit)))",
    )
    .unwrap();
}

#[test]
fn decompiles_directory_and_emits_artifacts() {
    let dir = fresh_dir("dir_mode");
    write_corpus(&dir);
    let out = szb()
        .current_dir(&dir)
        .args([
            ".",
            "--workers",
            "2",
            "--iter-limit",
            "30",
            "--node-limit",
            "30000",
            "--report",
            "report.jsonl",
            "--out",
            "decompiled",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "szb failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("2/2 ok"), "{stdout}");

    // JSONL report: 2 job lines + 1 summary line. Rows are streamed in
    // completion order (parallel workers), so only the summary's
    // position — last — is guaranteed.
    let report = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
    let lines: Vec<&str> = report.lines().collect();
    assert_eq!(lines.len(), 3);
    for name in ["\"name\":\"fins\"", "\"name\":\"row\""] {
        assert!(lines[..2].iter().any(|l| l.contains(name)), "{report}");
    }
    assert!(lines[2].contains("\"type\":\"summary\""));

    // Structured OpenSCAD out: the fins loop must come back as a `for`.
    let scad = std::fs::read_to_string(dir.join("decompiled/fins.scad")).unwrap();
    assert!(scad.contains("for"), "expected a loop in: {scad}");
    assert!(dir.join("decompiled/row.csexp").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_cache_rerun_across_processes() {
    let dir = fresh_dir("warm_cache");
    write_corpus(&dir);
    let run = || {
        let out = szb()
            .current_dir(&dir)
            .args([
                ".",
                "--iter-limit",
                "30",
                "--node-limit",
                "30000",
                "--cache",
                "cache.sexp",
                "--report",
                "none",
            ])
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run();
    assert!(cold.contains("0 hits / 2 misses"), "{cold}");
    let warm = run();
    assert!(warm.contains("2 hits / 0 misses (100% hit rate)"), "{warm}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn usage_errors_exit_2() {
    let out = szb().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no input"));

    let out = szb().args(["--bogus-flag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // A malformed --cost spec is a usage error naming the spec.
    let out = szb()
        .args(["--suite16", "--cost", "no-such"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cost"));

    // k = 0 would reach the extractor's `k > 0` assertion and panic
    // every job; the parser refuses it up front.
    let out = szb()
        .args(["--suite16", "--workers", "1", "--k", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--k must be at least 1"));

    // ε must be finite and non-negative: `inf` collapses gear's 60 teeth
    // into one wrong loop, NaN and negative values switch inference off.
    for eps in ["inf", "nan", "-1"] {
        let out = szb()
            .args(["--suite16", "--workers", "1", "--eps", eps])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--eps {eps}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--eps must be finite and at least 0"),
            "--eps {eps}: {stderr}"
        );
    }

    // One worker is the in-order run; there is no second run path.
    let out = szb().args(["--suite16", "--sequential"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument: --sequential"));

    // There is no saturation time limit; `--per-job-timeout` is the one
    // wall-clock bound.
    let out = szb()
        .args(["--suite16", "--time-limit", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument: --time-limit"));
}

#[test]
fn help_documents_the_cost_grammar() {
    let out = szb().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--cost <SPEC>"), "{stdout}");
    assert!(stdout.contains("weights(CLASS=W,...)"), "{stdout}");
    assert!(stdout.contains("pareto(SPEC,SPEC)"), "{stdout}");
}

#[test]
fn cost_spec_drives_extraction_and_pareto_reports() {
    let dir = fresh_dir("cost_spec");
    write_corpus(&dir);
    let run = |args: &[&str]| {
        let out = szb().current_dir(&dir).args(args).output().unwrap();
        assert!(
            out.status.success(),
            "szb {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    run(&[
        ".",
        "--iter-limit",
        "30",
        "--node-limit",
        "30000",
        "--cost",
        "reward-loops",
        "--report",
        "spec.jsonl",
        "--quiet",
    ]);
    let spec = std::fs::read_to_string(dir.join("spec.jsonl")).unwrap();
    assert!(
        spec.contains(r#""cost_fingerprint":"reward-loops""#),
        "{spec}"
    );

    // Pareto mode records a front per job.
    run(&[
        ".",
        "--iter-limit",
        "30",
        "--node-limit",
        "30000",
        "--cost",
        "pareto(size,geom)",
        "--report",
        "pareto.jsonl",
        "--quiet",
    ]);
    let pareto = std::fs::read_to_string(dir.join("pareto.jsonl")).unwrap();
    assert!(
        pareto.contains(r#""cost_fingerprint":"ast-size+pareto(ast-size,geom)""#),
        "{pareto}"
    );
    assert!(pareto.contains(r#""pareto":[{"cost_a":"#), "{pareto}");

    // Last cost flag wins outright: a later --cost must clear an
    // earlier pareto(...) request, not merely swap the ranking
    // model.
    run(&[
        ".",
        "--iter-limit",
        "30",
        "--node-limit",
        "30000",
        "--cost",
        "pareto(size,geom)",
        "--cost",
        "ast-size",
        "--report",
        "override.jsonl",
        "--quiet",
    ]);
    let override_rep = std::fs::read_to_string(dir.join("override.jsonl")).unwrap();
    assert!(
        override_rep.contains(r#""cost_fingerprint":"ast-size""#),
        "{override_rep}"
    );
    assert!(!override_rep.contains(r#""pareto""#), "{override_rep}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_passes_the_builtins_and_fails_a_defective_corpus() {
    // The built-in rule set and the 16-model suite carry no deny finding.
    let out = szb()
        .args(["lint", "--rules", "--suite16"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().any(|l| l.starts_with("0 deny, ")), "{text}");

    // `--json` prints the library's rendering of the same report, whose
    // shape the sz-lint golden fixtures pin.
    let out = szb()
        .args(["lint", "--json", "--rules", "--suite16"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    let mut report = sz_batch::lint_rules();
    report.extend(sz_batch::lint_suite16());
    assert_eq!(json.trim_end(), report.to_json());
    let deny = json
        .split(r#""counts":{"deny":"#)
        .nth(1)
        .and_then(|rest| rest.split(',').next());
    assert_eq!(deny, Some("0"), "{json}");

    // A zero scale and a truncated file are deny findings: exit 1.
    let dir = fresh_dir("lint_defects");
    std::fs::write(dir.join("zero.csexp"), "(Scale 0 1 1 Unit)").unwrap();
    std::fs::write(dir.join("broken.csexp"), "(Union (Cube 1").unwrap();
    let out = szb().arg("lint").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SZL202 input:zero.csexp"), "{text}");
    assert!(text.contains("SZL200 input:broken.csexp"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();

    // An unknown flag is a usage error.
    let out = szb().args(["lint", "--bogus-flag"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A union chain of `depth` distinct translated cubes: `depth` levels of
/// parentheses.
fn union_chain(depth: usize) -> String {
    let mut text = String::new();
    for i in 1..depth {
        text.push_str(&format!("(Union (Translate {i} 0 0 Unit) "));
    }
    text.push_str("Unit");
    text.push_str(&")".repeat(depth - 1));
    text
}

#[test]
fn over_deep_input_is_skipped_and_linted_while_the_batch_continues() {
    // 8 000 levels used to overflow the reader's stack and abort both
    // commands before any row was written.
    let dir = fresh_dir("deep_input");
    let deep = "(Union Unit ".repeat(7_999) + "Unit" + &")".repeat(7_999);
    std::fs::write(dir.join("deep.csexp"), deep).unwrap();
    // 2 000 cubes flatten to a 2 000-deep union chain, which aborted the
    // job's pool worker.
    std::fs::write(
        dir.join("long.scad"),
        "for (i = [0 : 1999]) translate([i * 2, 0, 0]) cube(1);",
    )
    .unwrap();
    std::fs::write(
        dir.join("row.csexp"),
        "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) (Translate 6 0 0 Unit)))",
    )
    .unwrap();
    let out = szb()
        .current_dir(&dir)
        .args([".", "--workers", "1", "--report", "report.jsonl"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("skipping ./deep.csexp: nested 7999 levels deep"),
        "{stderr}"
    );
    assert!(stderr.contains("skipping ./long.scad: nested"), "{stderr}");
    let report = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
    let rows: Vec<&str> = report
        .lines()
        .filter(|l| l.contains(r#""type":"job""#))
        .collect();
    assert_eq!(rows.len(), 1, "{report}");
    assert!(rows[0].contains(r#""name":"row""#), "{report}");

    let out = szb().arg("lint").arg(&dir).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("SZL200 input:deep.csexp: nested 7999 levels deep"),
        "{text}"
    );
    assert!(text.contains("SZL200 input:long.scad: nested"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_chain_at_the_depth_bound_still_synthesizes() {
    let dir = fresh_dir("depth_bound");
    let bound = sz_batch::MAX_INPUT_DEPTH;
    std::fs::write(dir.join("at.csexp"), union_chain(bound)).unwrap();
    std::fs::write(dir.join("over.csexp"), union_chain(bound + 1)).unwrap();
    let out = szb()
        .current_dir(&dir)
        .args([".", "--workers", "1", "--report", "report.jsonl"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains(&format!("over.csexp: nested {} levels deep", bound + 1)),
        "{stderr}"
    );
    let report = std::fs::read_to_string(dir.join("report.jsonl")).unwrap();
    assert!(report.contains(r#""name":"at","status":"ok""#), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}
