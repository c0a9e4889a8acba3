//! The lint gate: the shipped artifacts must carry **zero deny-level
//! findings** — the same invariant CI's `lint-gate` job pins via
//! `szb lint`, checked here at the library level so `cargo test` alone
//! catches a regression.
//!
//! Warn/info findings are expected (annihilation rules drop variables,
//! commutativity rules are self-inverse) and deliberately not pinned to
//! exact counts here — the byte-exact renderings live in `sz-lint`'s
//! golden fixtures.

use szalinski_repro::sz_batch::{lint_rules, lint_suite16};
use szalinski_repro::sz_gen::{models, GenSpec};
use szalinski_repro::sz_lint::{lint_cad, lint_ruleset, Severity};
use szalinski_repro::szalinski::{all_rules, rules, structural_rules, SynthConfig, Synthesizer};

#[test]
fn all_rule_sets_have_zero_deny_findings() {
    for (name, set) in [
        ("rules()", rules()),
        ("structural_rules()", structural_rules()),
        ("all_rules()", all_rules()),
    ] {
        let report = lint_ruleset(&set);
        assert!(
            report.is_clean(),
            "{name} has deny findings:\n{}",
            report.render_text()
        );
    }
}

#[test]
fn suite16_inputs_have_zero_deny_findings() {
    let report = lint_suite16();
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn generated_corpora_have_zero_deny_findings() {
    // sz-gen is safe by construction: scales draw from a grid bounded
    // away from zero (SZL202), every coordinate is finite (SZL201),
    // and composition is well-sorted (SZL206). Check the whole deny
    // class anyway, over a spec that exercises every structure kind
    // and the noise path.
    let spec: GenSpec = "count=64,seed=2020,noise=0.01".parse().unwrap();
    for m in models(&spec) {
        let report = lint_cad(&m.name, &m.cad);
        assert!(
            report.is_clean(),
            "{} has deny findings:\n{}",
            m.name,
            report.render_text()
        );
    }
}

#[test]
fn batch_rule_surface_matches_the_library_gate() {
    // `szb lint --rules` and this test must agree on the rule surface:
    // the CLI driver lints all_rules(), deny-free by the test above.
    let report = lint_rules();
    assert!(report.is_clean(), "{}", report.render_text());
    // The audit trail is stable in kind: unused-variable warns on the
    // annihilation rules, inverse-pair/expansivity infos on the rest —
    // and nothing else.
    assert!(report
        .diagnostics
        .iter()
        .all(|d| ["SZL002", "SZL005", "SZL006"].contains(&d.code)));
}

#[test]
fn synthesizer_construction_enforces_the_gate() {
    // The seam the tentpole wires: building a session runs the analyzer,
    // and both built-in configurations pass it.
    for structural in [false, true] {
        let session = Synthesizer::try_new(SynthConfig::new().with_structural_rules(structural))
            .expect("built-in rule sets pass the lint gate");
        let report = session.lint_report();
        assert!(report.is_clean());
        assert_eq!(report.with_severity(Severity::Deny).count(), 0);
    }
}
