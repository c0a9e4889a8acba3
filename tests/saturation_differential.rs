//! Delta matching against the full-search loop it replaced.
//!
//! `Runner::run` re-runs each rule's e-matching VM only near the classes
//! the last rebuild touched, carries every other match over, and skips
//! carried matches while the graph is clean. The oracle
//! (`crates/egraph/tests/support/full_saturation.rs`) is the loop before
//! that: every rule searches the whole graph and applies every match,
//! every iteration. The two must agree at every iteration on each rule's
//! match count, union count and ban, on the stop reason, and on the final
//! snapshot text (graph, union-find parents, roots, iteration count).
//!
//! Checked on proptest flat CADs, suite16 and the first 100 models of the
//! seed-42 corpus under the default config; on the structural rules with
//! backoff; on Arith comm/assoc under a tight backoff; on constant-folding
//! graphs whose dynamic appliers read analysis data, including data that
//! changes while the class's nodes do not; and across a partial resume.

#[path = "../crates/egraph/tests/support/full_saturation.rs"]
mod full_saturation;

use full_saturation::{Backoff, FullRunner, RuleActivity};
use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::tests_lang::{Arith, ConstFold};
use sz_egraph::{
    Analysis, DidMerge, EGraph, FnApplier, Id, Language, RecExpr, Rewrite, Runner, Scheduler,
    Snapshot, Subst,
};
use sz_gen::{generate_model, GenSpec};
use szalinski::{all_rules, cad_to_lang, rules, CadAnalysis, CadRewrite, SynthConfig};

/// The per-iteration activity the runner recorded, in the oracle's shape.
fn activity<L: Language, N: Analysis<L>>(runner: &Runner<L, N>) -> Vec<Vec<RuleActivity>> {
    runner
        .iterations
        .iter()
        .map(|it| {
            it.rules
                .iter()
                .map(|r| RuleActivity {
                    matches: r.matches,
                    applied: r.applied,
                    banned: r.banned,
                })
                .collect()
        })
        .collect()
}

/// Asserts that the delta runner and the full-search oracle ran the same
/// saturation and left the same graph.
fn assert_same<L: Language, N: Analysis<L>>(
    delta: &Runner<L, N>,
    full: &FullRunner<L, N>,
    rules: &[Rewrite<L, N>],
    context: &str,
) {
    let got = activity(delta);
    assert_eq!(
        got.len(),
        full.iterations.len(),
        "{context}: iteration counts differ"
    );
    for (i, (a, b)) in got.iter().zip(&full.iterations).enumerate() {
        for ((x, y), rule) in a.iter().zip(b).zip(rules) {
            assert_eq!(x, y, "{context}: iteration {i}, rule {}", rule.name());
        }
    }
    assert_eq!(
        delta.stop_reason, full.stop_reason,
        "{context}: stop reasons differ"
    );
    if let Some(backoff) = &full.backoff {
        let banned: Vec<usize> = delta.rule_totals().iter().map(|t| t.times_banned).collect();
        let want: Vec<usize> = backoff.stats.iter().map(|&(times, _)| times).collect();
        if !delta.iterations.is_empty() {
            assert_eq!(banned, want, "{context}: ban counts differ");
        }
    }
    let text = Snapshot::of_egraph(&delta.egraph, &delta.roots)
        .expect("clean after a run")
        .with_iterations(delta.prior_iterations + delta.iterations.len())
        .to_string();
    assert!(
        text == full.snapshot().to_string(),
        "{context}: final snapshots differ"
    );
}

/// Saturates `expr` with both runners under the same limits and scheduler
/// and compares them.
fn check<L: Language, N: Analysis<L> + Clone>(
    analysis: &N,
    expr: &RecExpr<L>,
    rules: &[Rewrite<L, N>],
    (iter_limit, node_limit): (usize, usize),
    backoff: Option<Backoff>,
    context: &str,
) -> usize {
    let scheduler = backoff.as_ref().map_or(Scheduler::Simple, |b| {
        Scheduler::backoff_with(b.match_limit, b.ban_length)
    });
    let delta = Runner::new(analysis.clone())
        .with_expr(expr)
        .with_iter_limit(iter_limit)
        .with_node_limit(node_limit)
        .with_scheduler(scheduler)
        .run(rules);
    let mut full = FullRunner::new(analysis.clone(), expr)
        .with_iter_limit(iter_limit)
        .with_node_limit(node_limit);
    full.backoff = backoff;
    let full = full.run(rules);
    assert_same(&delta, &full, rules, context);
    delta.iterations.iter().map(|it| it.banned).sum()
}

/// The default config's saturation limits.
fn config_limits() -> (usize, usize) {
    let config = SynthConfig::default();
    (config.iter_limit, config.node_limit)
}

fn check_cad(cad: &Cad, rules: &[CadRewrite], backoff: Option<Backoff>, context: &str) {
    check(
        &CadAnalysis,
        &cad_to_lang(cad),
        rules,
        config_limits(),
        backoff,
        context,
    );
}

/// Random flat CSG terms of bounded size (the shape
/// `tests/ematch_differential.rs` uses).
fn arb_flat_cad() -> impl Strategy<Value = Cad> {
    let leaf = prop_oneof![
        Just(Cad::Unit),
        Just(Cad::Sphere),
        Just(Cad::Cylinder),
        Just(Cad::Hexagon),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(AffineKind::Translate),
                    Just(AffineKind::Scale),
                    Just(AffineKind::Rotate)
                ],
                -4.0f64..4.0,
                -4.0f64..4.0,
                -4.0f64..4.0,
                inner.clone()
            )
                .prop_map(|(kind, x, y, z, c)| {
                    let v = match kind {
                        AffineKind::Scale => [x.abs() + 0.5, y.abs() + 0.5, z.abs() + 0.5],
                        AffineKind::Rotate => [0.0, 0.0, x * 45.0],
                        AffineKind::Translate => [x, y, z],
                    };
                    Cad::Affine(kind, v.into(), Box::new(c))
                }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Cad::union(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Cad::diff(a, b)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_equals_full_on_random_flat_cads(cad in arb_flat_cad()) {
        check_cad(&cad, &rules(), None, &cad.to_string());
    }
}

#[test]
fn delta_equals_full_on_suite16() {
    let rules = rules();
    for model in sz_models::all_models() {
        check_cad(&model.flat, &rules, None, model.name);
    }
}

#[test]
fn delta_equals_full_on_the_generated_corpus() {
    let spec: GenSpec = "count=100,seed=42,noise=0.0005".parse().unwrap();
    let rules = rules();
    for index in 0..spec.count {
        let name = sz_gen::model_name(spec.seed, index);
        check_cad(&generate_model(&spec, index), &rules, None, &name);
    }
}

#[test]
fn delta_equals_full_under_structural_rules_with_backoff() {
    // Nearly every class is touched every iteration here, and backoff bans
    // rules, so lists are dropped and rebuilt by full searches mid-run. A
    // 20 000-node limit keeps the graphs small enough for a debug build.
    let rules = all_rules();
    let (iter_limit, _) = config_limits();
    let mut inputs: Vec<(String, Cad)> = sz_models::all_models()
        .into_iter()
        .filter(|m| ["3171605:card-org", "64847:sd-rack"].contains(&m.name))
        .map(|m| (m.name.to_owned(), m.flat))
        .collect();
    let spec: GenSpec = "count=5,seed=42,noise=0.0005".parse().unwrap();
    inputs
        .extend([0, 1, 3, 4].map(|i| (sz_gen::model_name(spec.seed, i), generate_model(&spec, i))));
    let mut bans = 0;
    for (name, cad) in inputs {
        bans += check(
            &CadAnalysis,
            &cad_to_lang(&cad),
            &rules,
            (iter_limit, 20_000),
            Some(Backoff::egg_default()),
            &name,
        );
    }
    assert!(bans > 0, "the inputs must trip the backoff scheduler");
}

fn arith_rules<N: Analysis<Arith>>() -> Vec<Rewrite<Arith, N>> {
    vec![
        Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
        Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
        Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
        Rewrite::parse("assoc-mul", "(* ?a (* ?b ?c))", "(* (* ?a ?b) ?c)").unwrap(),
        Rewrite::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
    ]
}

#[test]
fn delta_equals_full_on_arith_comm_assoc_under_tight_backoff() {
    let exprs = [
        "(+ a (+ b (+ c (+ d (+ e (+ f (+ g h)))))))",
        "(* (+ a b) (* c (+ d (* e f))))",
        "(+ (* a (+ b c)) (* (+ a b) c))",
    ];
    for expr in exprs {
        let expr: RecExpr<Arith> = expr.parse().unwrap();
        for (limit, ban) in [(8, 1), (32, 2), (200, 3)] {
            check(
                &(),
                &expr,
                &arith_rules(),
                (8, 1_000_000),
                Some(Backoff::new(limit, ban)),
                &format!("{expr} under backoff({limit}, {ban})"),
            );
        }
        check(
            &(),
            &expr,
            &arith_rules(),
            (6, 1_000_000),
            None,
            &expr.to_string(),
        );
    }
}

/// [`ConstFold`]'s data without its `modify`: a class's data can change
/// (a descendant learned its value) while its nodes stay as they are.
#[derive(Debug, Clone, Default)]
struct ConstData;

impl Analysis<Arith> for ConstData {
    type Data = Option<i64>;

    fn make(egraph: &EGraph<Arith, Self>, enode: &Arith) -> Self::Data {
        let get = |id: &Id| egraph[*id].data;
        match enode {
            Arith::Num(n) => Some(*n),
            Arith::Var(_) => None,
            Arith::Add([a, b]) => Some(get(a)?.checked_add(get(b)?)?),
            Arith::Mul([a, b]) => Some(get(a)?.checked_mul(get(b)?)?),
        }
    }

    fn merge(&mut self, to: &mut Self::Data, from: Self::Data) -> DidMerge {
        sz_egraph::merge_option(to, from)
    }
}

/// `x·y ⇝ 0` when y's analysis data says it is 0: reads the data of a
/// class at the pattern's depth 1.
fn mul_known_zero<N>() -> Rewrite<Arith, N>
where
    N: Analysis<Arith, Data = Option<i64>> + 'static,
{
    let b = "?b".parse().unwrap();
    Rewrite::new(
        "mul-known-zero",
        "(* ?a ?b)".parse().unwrap(),
        FnApplier(move |eg: &mut EGraph<Arith, N>, _, s: &Subst| {
            (eg[s[b]].data == Some(0)).then(|| eg.add(Arith::Num(0)))
        }),
    )
    .unwrap()
}

/// `x·(y + z) ⇝ x·z` when y's data says it is 0: reads the data of a class
/// at the pattern's depth 2.
fn drop_known_zero_addend<N>() -> Rewrite<Arith, N>
where
    N: Analysis<Arith, Data = Option<i64>> + 'static,
{
    let (a, b, c) = (
        "?a".parse().unwrap(),
        "?b".parse().unwrap(),
        "?c".parse().unwrap(),
    );
    Rewrite::new(
        "drop-known-zero-addend",
        "(* ?a (+ ?b ?c))".parse().unwrap(),
        FnApplier(move |eg: &mut EGraph<Arith, N>, _, s: &Subst| {
            (eg[s[b]].data == Some(0)).then(|| eg.add(Arith::Mul([s[a], s[c]])))
        }),
    )
    .unwrap()
}

fn check_data_rules<N>(analysis: &N, rules: &[Rewrite<Arith, N>], expr: &str, context: &str)
where
    N: Analysis<Arith, Data = Option<i64>> + Clone,
{
    let expr: RecExpr<Arith> = expr.parse().unwrap();
    check(
        analysis,
        &expr,
        rules,
        (10, 100_000),
        None,
        &format!("{expr} ({context})"),
    );
}

#[test]
fn delta_equals_full_when_appliers_read_changing_analysis_data() {
    // `(* z 0)` learns it is 0 in the first iteration and keeps its id.
    // Its parent sum `(+ w w)` learns its value in that rebuild without
    // gaining a node, so only the data-changed part of the touched list
    // sends the search back to the root above it.
    let data_changed = "(* q (+ (* z 0) (* z 0)))";
    // Here the sum learns nothing (y stays unknown), and the depth-2 rule,
    // listed first so no union precedes it, reads `(* z 0)` two levels
    // below the root.
    let deep = "(* a (+ (* z 0) y))";
    let mixed = "(+ (* a (+ (* z 0) (* y 0))) (* (+ (* z 0) 0) b))";
    for expr in [data_changed, deep, mixed] {
        check_data_rules(&ConstData, &[mul_known_zero()], expr, "data only");
        check_data_rules(
            &ConstData,
            &[drop_known_zero_addend(), mul_known_zero()],
            expr,
            "data only, both rules",
        );
        check_data_rules(
            &ConstFold,
            &[drop_known_zero_addend(), mul_known_zero()],
            expr,
            "ConstFold",
        );
    }
}

#[test]
fn delta_equals_full_across_a_partial_resume() {
    // A resumed run's first iteration searches in full; the carried lists
    // start over from there.
    let rules = all_rules();
    let model = sz_models::all_models()
        .into_iter()
        .find(|m| m.name == "3171605:card-org")
        .expect("paper model exists");
    let expr = cad_to_lang(&model.flat);
    let (_, node_limit) = config_limits();
    for backoff in [None, Some(Backoff::egg_default())] {
        let scheduler = backoff
            .as_ref()
            .map_or(Scheduler::Simple, |_| Scheduler::backoff());
        let first = Runner::new(CadAnalysis)
            .with_expr(&expr)
            .with_iter_limit(3)
            .with_node_limit(node_limit)
            .with_scheduler(scheduler)
            .run(&rules);
        let mut full_first = FullRunner::new(CadAnalysis, &expr)
            .with_iter_limit(3)
            .with_node_limit(node_limit);
        full_first.backoff = backoff;
        let full_first = full_first.run(&rules);
        assert_same(&first, &full_first, &rules, "first leg");

        let snapshot = first.snapshot().unwrap();
        let delta = Runner::resume_from(&snapshot, CadAnalysis)
            .with_iter_limit(40)
            .with_node_limit(node_limit)
            .run(&rules);
        let rebased = full_first.backoff.as_ref().map(|b| b.rebased(3));
        let full = FullRunner::resume_from(&snapshot, CadAnalysis, rebased)
            .with_iter_limit(40)
            .with_node_limit(node_limit)
            .run(&rules);
        assert!(!delta.iterations.is_empty(), "the resumed leg must iterate");
        assert_same(&delta, &full, &rules, "resumed leg");
    }
}
