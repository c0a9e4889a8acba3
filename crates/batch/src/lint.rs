//! The corpus lint driver behind `szb lint`: enumerate lint targets
//! (rule sets, the 16-model suite, or a directory of `.scad`/`.csexp`
//! models), run the `sz-lint` analyzers over each, and fold every
//! finding into one deterministic [`Report`].
//!
//! Unlike [`dir_jobs`](crate::corpus::dir_jobs) — which feeds the
//! synthesis engine and therefore requires flat CSG — the lint scan
//! accepts *any* parseable [`Cad`](sz_cad::Cad) (structured programs
//! are still worth linting for degenerate geometry) and turns
//! parse/translation failures into **SZL200** deny findings instead of
//! skips: a corpus gate must fail on a file the batch pipeline would
//! silently drop. Both read files through one reader.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sz_lint::{lint_cad, lint_ruleset, Diagnostic, Report, Severity};
use szalinski::all_rules;

use crate::corpus::{corpus_files, read_corpus_file};

/// Lints the full built-in rule set (base + structural boolean rules —
/// the superset every `szb` run draws from), including each rule's
/// compiled e-matching program. The result is cached nowhere: linting
/// 34 rules is milliseconds.
pub fn lint_rules() -> Report {
    lint_ruleset(&all_rules())
}

/// Lints the inputs of the paper's 16-model Table-1 suite, in paper
/// order.
pub fn lint_suite16() -> Report {
    let mut report = Report::new();
    for model in sz_models::all_models() {
        report.extend(lint_cad(model.name, &model.flat));
    }
    report
}

/// Lints every `.scad`/`.csexp` file in `dir` (non-recursive), sorted
/// by file name so the report is deterministic. Files the corpus reader
/// refuses — unreadable, unparseable, or nested deeper than
/// [`MAX_INPUT_DEPTH`](crate::corpus::MAX_INPUT_DEPTH) —
/// become **SZL200** deny findings located at `input:<file-name>`;
/// parseable models (flat or not) run through [`lint_cad`].
pub fn lint_dir(dir: &Path) -> io::Result<Report> {
    let mut report = Report::new();
    for path in corpus_files(dir)? {
        let name = path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        match read_corpus_file(&path) {
            Ok(cad) => report.extend(lint_cad(&name, &cad)),
            Err(reason) => report.push(Diagnostic::new(
                Severity::Deny,
                "SZL200",
                format!("input:{name}"),
                reason,
            )),
        }
    }
    Ok(report)
}

const LINT_USAGE: &str = "\
szb lint — static analysis: rewrite rules, e-match programs, CAD inputs

USAGE:
    szb lint [--json] [--rules] [--suite16] [<DIR>...]

TARGETS (combinable; no target = --rules --suite16):
    --rules                the built-in rule set (incl. structural boolean
                           rules): binding soundness (SZL001), unused lhs
                           variables (SZL002), duplicates (SZL003/004),
                           inverse pairs (SZL005), expansive rules (SZL006),
                           and each rule's compiled e-match program
                           (SZL101-SZL104)
    --suite16              the paper's 16-model corpus inputs (SZL2xx)
    <DIR>                  every .scad/.csexp file in DIR, non-recursive;
                           unparseable files are SZL200 deny findings

OUTPUT:
    --json                 one-line JSON report instead of text
    --help                 show this text

Findings have three severities; only deny findings gate:
    deny   broken artifact (panics, miscomputes, degenerate geometry)
    warn   suspicious but runnable (duplicates, empty operands)
    info   expected structure kept for audit (inverse pairs, no-ops)

EXIT CODE: 0 = no deny findings; 1 = deny findings; 2 = usage/IO error
";

/// The `szb lint` CLI: parses `args` (everything after the
/// subcommand), runs the requested lints, prints one combined report to
/// stdout (text or `--json`), and returns the gate's exit code — success
/// exactly when no deny-level finding was reported.
pub fn run_lint_cli(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut rules = false;
    let mut suite16 = false;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--rules" => rules = true,
            "--suite16" => suite16 = true,
            "--help" | "-h" => {
                print!("{LINT_USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => dirs.push(PathBuf::from(other)),
            other => {
                eprintln!("szb lint: unknown argument: {other}");
                eprint!("{LINT_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // Bare invocation lints the whole built-in surface — what CI pins.
    if !rules && !suite16 && dirs.is_empty() {
        rules = true;
        suite16 = true;
    }

    let mut report = Report::new();
    if rules {
        report.extend(lint_rules());
    }
    if suite16 {
        report.extend(lint_suite16());
    }
    for dir in &dirs {
        match lint_dir(dir) {
            Ok(r) => report.extend(r),
            Err(e) => {
                eprintln!("szb lint: cannot scan {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }

    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_rules_have_no_deny_findings() {
        let report = lint_rules();
        assert!(report.is_clean(), "{}", report.render_text());
        // The audit trail is non-empty: comm/reorder rules pair up as
        // inverses and annihilation rules drop lhs variables.
        assert!(report.warn_count() + report.info_count() > 0);
    }

    #[test]
    fn suite16_inputs_have_no_deny_findings() {
        let report = lint_suite16();
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn dir_lint_reports_parse_failures_as_szl200() {
        let dir = std::env::temp_dir().join("sz_batch_lint_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.csexp"), "(Union Unit").unwrap();
        std::fs::write(dir.join("zero.csexp"), "(Scale 0 1 1 Unit)").unwrap();
        // Structured (non-flat) input still lints — dir_jobs would skip it.
        std::fs::write(dir.join("looped.csexp"), "(Repeat Unit 3)").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a model").unwrap();

        let report = lint_dir(&dir).unwrap();
        let codes: Vec<(&str, &str)> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.location.as_str()))
            .collect();
        // Sorted by file name: broken < looped < zero.
        assert_eq!(
            codes,
            [
                ("SZL200", "input:broken.csexp"),
                ("SZL202", "input:zero.csexp"),
            ],
            "{}",
            report.render_text()
        );
        assert_eq!(report.deny_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
