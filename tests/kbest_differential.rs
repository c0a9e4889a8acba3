//! Lazy k-best extraction against the eager fixpoint it replaced, and
//! Pareto fronts on the shared worklist against the Jacobi fixpoint they
//! replaced.
//!
//! `KBestExtractor` enumerates derivations on demand over the 1-best
//! table; the eager oracle (`crates/egraph/tests/support/eager_kbest.rs`)
//! iterates a whole-graph table of `k` derivations per class to fixpoint.
//! For every cost model that is monotone in each child's cost, the two
//! must return the same top-k — costs and term text, in order — because
//! both order a class's derivations by (cost, e-node position, choice
//! vector). Checked at k = 10 under the four ranking models the batch
//! engine is run with, over proptest graphs (with and without cycle
//! rules), all 16 suite16 models, and the first 100 models of the seed-42
//! generated corpus, each extracted from the graph a snapshot resume
//! restores.
//!
//! `ParetoExtractor` computes its fronts on the extractors' dirty-class
//! worklist; the Jacobi oracle
//! (`crates/egraph/tests/support/jacobi_pareto.rs`) stages every pass's
//! fronts to the pass boundary. Both reach the same fronts, so they must
//! return the same front — costs and term text, in order — at caps 1, 2
//! and 8, under five objective pairs (one with the not strictly monotone
//! `geom` first), over the same graphs.
//!
//! An extraction-only resume extracts from a parsed snapshot's
//! `Snapshot::view` instead of the e-graph `Snapshot::restore` builds;
//! restore-then-extract stays the reference. Over each graph's snapshot
//! after a text round trip, the view must give the restored graph's
//! 1-best, its first 2k k-best terms and its fronts at every cap under two
//! objective pairs, in order. The graphs are the suite16 and corpus graphs
//! above, proptest arithmetic graphs with cycles, and hand-written
//! snapshot texts the parser accepts in non-canonical shape. A resumed
//! session must return the top-k, front, node count and class count that
//! restoring its snapshot and extracting give.

#[path = "../crates/egraph/tests/support/eager_kbest.rs"]
mod eager_kbest;
#[path = "../crates/egraph/tests/support/jacobi_pareto.rs"]
mod jacobi_pareto;

use std::sync::{Arc, OnceLock};

use eager_kbest::EagerKBest;
use jacobi_pareto::JacobiPareto;
use proptest::prelude::*;
use sz_cad::{AffineKind, Cad};
use sz_egraph::tests_lang::Arith;
use sz_egraph::{
    Analysis, AstDepth, AstSize, CostFunction, EGraph, Extractor, GraphView, Id, KBestExtractor,
    Language, ParetoExtractor, Rewrite, Runner, Snapshot,
};
use sz_gen::{generate_model, GenSpec};
use szalinski::{
    cad_to_lang, lang_to_cad, parse_cost_model, parse_cost_spec, rules, CadAnalysis, CadGraph,
    CadLang, CostModel, CostSpec, ModelCost, RunMode, RunOptions, SynthConfig, SynthSnapshot,
    Synthesizer,
};

const K: usize = 10;

/// The ranking models the differential covers, by `--cost` spec.
fn ranking_models() -> Vec<(&'static str, Arc<dyn CostModel>)> {
    [
        "ast-size",
        "reward-loops",
        "weights(loop=1,geom=10)",
        "lex(ast-size,depth)",
    ]
    .into_iter()
    .map(|spec| match parse_cost_spec(spec) {
        Ok(CostSpec::Single(model)) => (spec, model),
        other => panic!("{spec}: {other:?}"),
    })
    .collect()
}

/// A top-k list as `(cost, term text)` pairs.
type Ranked<C> = Vec<(C, String)>;

/// The top-k lists of the lazy extractor and of the oracle.
fn both<L: Language, N: Analysis<L>, CF: CostFunction<L> + Clone>(
    egraph: &EGraph<L, N>,
    root: Id,
    cost: CF,
) -> (Ranked<CF::Cost>, Ranked<CF::Cost>) {
    let text = |terms: Vec<(CF::Cost, sz_egraph::RecExpr<L>)>| -> Ranked<CF::Cost> {
        terms.into_iter().map(|(c, e)| (c, e.to_string())).collect()
    };
    let lazy = text(KBestExtractor::new(egraph, cost.clone(), K).find_best_k(root));
    let eager = text(EagerKBest::new(egraph, cost, K).find_best_k(root));
    (lazy, eager)
}

/// Asserts identical top-k under every ranking model.
fn assert_models_agree(egraph: &CadGraph, root: Id, what: &str) {
    for (spec, model) in ranking_models() {
        let (lazy, eager) = both(egraph, root, ModelCost(model));
        assert!(!lazy.is_empty(), "{what} under {spec}: nothing extracted");
        assert_eq!(lazy, eager, "{what} under {spec}");
    }
}

/// The front caps the Pareto differential covers.
const CAPS: [usize; 3] = [1, 2, 8];

/// The objective pairs the Pareto differential covers, by model spec.
/// `geom` is not strictly monotone, so `(geom, ast-size)` exercises the
/// fixpoint's pass bound and the term builder's depth guard.
const PARETO_PAIRS: [(&str, &str); 5] = [
    ("ast-size", "depth"),
    ("ast-size", "geom"),
    ("reward-loops", "depth"),
    ("depth", "ast-size"),
    ("geom", "ast-size"),
];

/// A Pareto front as `(cost_a, cost_b, term text)` triples.
type Front<A, B> = Vec<(A, B, String)>;

/// A front from the worklist extractor and one from the Jacobi oracle.
type Fronts<A, B> = (Front<A, B>, Front<A, B>);

/// The fronts of the worklist extractor and of the Jacobi oracle.
fn both_fronts<L, N, CA, CB>(
    egraph: &EGraph<L, N>,
    root: Id,
    cost_a: CA,
    cost_b: CB,
    cap: usize,
) -> Fronts<CA::Cost, CB::Cost>
where
    L: Language,
    N: Analysis<L>,
    CA: CostFunction<L> + Clone,
    CB: CostFunction<L> + Clone,
{
    let text = |front: Vec<(CA::Cost, CB::Cost, sz_egraph::RecExpr<L>)>| {
        front
            .into_iter()
            .map(|(a, b, e)| (a, b, e.to_string()))
            .collect::<Front<CA::Cost, CB::Cost>>()
    };
    let worklist = ParetoExtractor::with_cap(egraph, cost_a.clone(), cost_b.clone(), cap);
    let jacobi = JacobiPareto::with_cap(egraph, cost_a, cost_b, cap);
    (
        text(worklist.find_front(root)),
        text(jacobi.find_front(root)),
    )
}

/// Asserts identical fronts under every objective pair and cap.
fn assert_fronts_agree(egraph: &CadGraph, root: Id, what: &str) {
    for (a, b) in PARETO_PAIRS {
        let model = |spec| ModelCost(parse_cost_model(spec).unwrap());
        for cap in CAPS {
            let (worklist, jacobi) = both_fronts(egraph, root, model(a), model(b), cap);
            assert!(
                !worklist.is_empty(),
                "{what} under ({a},{b}) cap {cap}: empty front"
            );
            assert_eq!(worklist, jacobi, "{what} under ({a},{b}) cap {cap}");
        }
    }
}

/// The final graph of a default-config cold run of one model.
struct FinalGraph {
    name: String,
    input: Cad,
    /// The run's snapshot after a text round trip.
    snapshot: SynthSnapshot,
    /// The graph restoring that snapshot builds.
    egraph: CadGraph,
    root: Id,
}

/// Runs `input` cold with snapshot capture and keeps its final graph.
fn final_graph(name: &str, input: &Cad) -> FinalGraph {
    let session = Synthesizer::new(SynthConfig::new());
    let result = session
        .run(input, RunOptions::new().capture_snapshot(true))
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let snapshot = result
        .snapshot
        .unwrap_or_else(|| panic!("{name}: no snapshot captured"));
    let snapshot: SynthSnapshot = snapshot.to_string().parse().unwrap();
    let graph = snapshot.egraph_snapshot();
    FinalGraph {
        name: name.to_owned(),
        input: input.clone(),
        egraph: graph.restore(CadAnalysis),
        root: graph.roots()[0],
        snapshot,
    }
}

/// The final graphs of all 16 suite16 models, built once for both
/// differentials.
fn suite16_graphs() -> &'static [FinalGraph] {
    static GRAPHS: OnceLock<Vec<FinalGraph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        sz_models::all_models()
            .into_iter()
            .map(|model| final_graph(model.name, &model.flat))
            .collect()
    })
}

/// The final graphs of the first 100 models of the seed-42 corpus, built
/// once for both differentials.
fn corpus_graphs() -> &'static [FinalGraph] {
    static GRAPHS: OnceLock<Vec<FinalGraph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        let spec: GenSpec = "count=100,seed=42,noise=0.0005".parse().unwrap();
        (0..spec.count)
            .map(|index| {
                let name = sz_gen::model_name(spec.seed, index);
                final_graph(&name, &generate_model(&spec, index))
            })
            .collect()
    })
}

#[test]
fn suite16_top_k_matches_the_eager_oracle() {
    for g in suite16_graphs() {
        assert_models_agree(&g.egraph, g.root, &g.name);
    }
}

#[test]
fn generated_corpus_top_k_matches_the_eager_oracle() {
    for g in corpus_graphs() {
        assert_models_agree(&g.egraph, g.root, &g.name);
    }
}

#[test]
fn suite16_pareto_fronts_match_the_jacobi_oracle() {
    for g in suite16_graphs() {
        assert_fronts_agree(&g.egraph, g.root, &g.name);
    }
}

#[test]
fn generated_corpus_pareto_fronts_match_the_jacobi_oracle() {
    for g in corpus_graphs() {
        assert_fronts_agree(&g.egraph, g.root, &g.name);
    }
}

/// The k-best terms an extraction pulls at the default k = 5.
const PULL: usize = 10;

/// The 1-best of `root` under `cost`, then its first [`PULL`] k-best
/// terms, each as a `cost term` line.
fn ranked<G: GraphView, CF: CostFunction<G::Lang> + Clone>(
    graph: &G,
    root: Id,
    cost: CF,
) -> Vec<String> {
    let (best_cost, best) = Extractor::new(graph, cost.clone()).find_best(root);
    let kbest = KBestExtractor::new(graph, cost, PULL);
    let terms = kbest.iter_best(root).take(PULL);
    std::iter::once(format!("{best_cost:?} {best}"))
        .chain(terms.map(|(c, e)| format!("{c:?} {e}")))
        .collect()
}

/// The fronts of `root` under `(cost_a, cost_b)` at every cap in
/// [`CAPS`], each point as a `cap: a b term` line.
fn fronts<G, CA, CB>(graph: &G, root: Id, cost_a: &CA, cost_b: &CB) -> Vec<String>
where
    G: GraphView,
    CA: CostFunction<G::Lang> + Clone,
    CB: CostFunction<G::Lang> + Clone,
{
    let mut lines = Vec::new();
    for cap in CAPS {
        let pareto = ParetoExtractor::with_cap(graph, cost_a.clone(), cost_b.clone(), cap);
        for (a, b, e) in pareto.find_front(root) {
            lines.push(format!("{cap}: {a:?} {b:?} {e}"));
        }
    }
    lines
}

/// What the view differential compares on a CAD graph: the ranked terms
/// under ast-size and reward-loops, then the fronts under
/// (ast-size, geom) and (reward-loops, depth).
fn cad_extraction(graph: &impl GraphView<Lang = CadLang>, root: Id) -> Vec<String> {
    let model = |spec| ModelCost(parse_cost_model(spec).unwrap());
    let mut lines = ranked(graph, root, model("ast-size"));
    lines.extend(ranked(graph, root, model("reward-loops")));
    lines.extend(fronts(graph, root, &model("ast-size"), &model("geom")));
    lines.extend(fronts(graph, root, &model("reward-loops"), &model("depth")));
    lines
}

/// What the view differential compares on an arithmetic graph: the
/// ranked terms under ast-size, then the fronts under (ast-size,
/// ast-depth) and (ast-depth, ast-size).
fn arith_extraction(graph: &impl GraphView<Lang = Arith>, root: Id) -> Vec<String> {
    let mut lines = ranked(graph, root, AstSize);
    lines.extend(fronts(graph, root, &AstSize, &AstDepth));
    lines.extend(fronts(graph, root, &AstDepth, &AstSize));
    lines
}

/// Asserts that extraction over a final graph's snapshot view equals
/// extraction over the graph restoring the snapshot builds.
fn assert_view_extracts_as_restored(g: &FinalGraph) {
    let view = cad_extraction(&g.snapshot.egraph_snapshot().view(), g.root);
    assert_eq!(view, cad_extraction(&g.egraph, g.root), "{}", g.name);
}

#[test]
fn suite16_snapshot_views_extract_what_restored_graphs_extract() {
    for g in suite16_graphs() {
        assert_view_extracts_as_restored(g);
    }
}

#[test]
fn generated_corpus_snapshot_views_extract_what_restored_graphs_extract() {
    for g in corpus_graphs() {
        assert_view_extracts_as_restored(g);
    }
}

/// Snapshot texts the parser accepts in shapes a capture writes rarely
/// or never: class blocks out of id order, union-find chains of two and
/// three steps behind a root, classes whose nodes are not in value order,
/// a node listed twice, self-referencing classes, and classes that read
/// classes with higher ids, so their rows wait for later passes. In the
/// last text every class reads only the next one, so each pass settles
/// one more class and only parent links carry the rows to the root.
const NON_CANONICAL_SNAPSHOTS: [&str; 3] = [
    "szsnap v1\nuf 7\n1 2 2 3 4 5 6\n\
     class 6 3\n* 3 5\n+ 5 3\n+ 5 3\n\
     class 4 2\nx\n* 4 5\n\
     class 2 2\n* 6 6\n+ 6 4\n\
     class 5 1\ny\n\
     class 3 1\n0\n\
     roots 0\niterations 2\nscheduler simple\nend\n",
    "szsnap v1\nuf 5\n0 0 1 2 4\n\
     class 4 3\n+ 4 0\nx\n+ 0 4\n\
     class 0 2\n0\n* 4 0\n\
     roots 3 4\niterations 0\nscheduler simple\nend\n",
    "szsnap v1\nuf 5\n0 1 2 3 4\n\
     class 0 1\n* 1 1\n\
     class 1 1\n+ 2 2\n\
     class 2 2\n* 3 3\n+ 3 2\n\
     class 3 1\n+ 4 4\n\
     class 4 1\nx\n\
     roots 0\niterations 0\nscheduler simple\nend\n",
];

#[test]
fn non_canonical_snapshot_views_extract_what_restored_graphs_extract() {
    for text in NON_CANONICAL_SNAPSHOTS {
        let snapshot: Snapshot<Arith> = text.parse().unwrap();
        let restored: EGraph<Arith, ()> = snapshot.restore(());
        for &root in snapshot.roots() {
            let view = arith_extraction(&snapshot.view(), root);
            assert_eq!(view, arith_extraction(&restored, root), "{text}");
        }
    }
}

/// The first class block of `text` with its first node listed twice,
/// which the parser accepts and a restored graph counts twice.
fn with_a_node_listed_twice(text: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("class ")).unwrap();
    let (id, count) = lines[at]["class ".len()..].split_once(' ').unwrap();
    let header = format!("class {id} {}", count.parse::<usize>().unwrap() + 1);
    lines[at] = &header;
    lines.insert(at + 1, lines[at + 1]);
    lines.join("\n") + "\n"
}

/// Programs converted from extracted terms, skipping terms that are not
/// CAD and repeats, until `limit` are kept (as the pipeline keeps them).
fn distinct_programs<C>(
    terms: impl Iterator<Item = (C, sz_egraph::RecExpr<CadLang>)>,
    limit: usize,
) -> Vec<(C, String)> {
    let mut programs: Vec<(C, Cad)> = Vec::new();
    for (cost, e) in terms {
        let Ok(cad) = lang_to_cad(&e) else { continue };
        if programs.iter().all(|(_, p)| *p != cad) {
            programs.push((cost, cad));
        }
        if programs.len() >= limit {
            break;
        }
    }
    programs
        .into_iter()
        .map(|(cost, cad)| (cost, cad.to_string()))
        .collect()
}

/// A resume's top-k, Pareto front, node count and class count.
type Resumed = (Vec<(usize, String)>, Vec<([u64; 2], String)>, usize, usize);

/// What an extraction-only resume returned before it extracted from a
/// view: restore the snapshot's graph and extract from it.
fn restore_then_extract(snapshot: &Snapshot<CadLang>, config: &SynthConfig) -> Resumed {
    let egraph = snapshot.restore(CadAnalysis);
    let root = snapshot.roots()[0];
    let cost = ModelCost(Arc::clone(&config.cost_model));
    let kbest = KBestExtractor::new(&egraph, cost, 2 * config.k);
    let terms = kbest.iter_best(root).take(2 * config.k);
    let mut top_k = distinct_programs(terms.map(|(c, e)| (c.primary() as usize, e)), config.k);
    top_k.sort_by_key(|p| p.0);
    let [a, b] = config.pareto.clone().expect("a Pareto config");
    let front = ParetoExtractor::new(&egraph, ModelCost(a), ModelCost(b)).find_front(root);
    let front = front
        .into_iter()
        .map(|(a, b, e)| ([a.primary(), b.primary()], e));
    let front = distinct_programs(front, usize::MAX);
    let counts = (egraph.total_number_of_nodes(), egraph.number_of_classes());
    (top_k, front, counts.0, counts.1)
}

#[test]
fn extraction_resumes_return_what_restore_then_extract_returns() {
    let model = |spec| parse_cost_model(spec).unwrap();
    let config = SynthConfig::new().with_pareto(model("ast-size"), model("geom"));
    let session = Synthesizer::new(config.clone());
    for g in suite16_graphs().iter().chain(corpus_graphs()) {
        let text = with_a_node_listed_twice(&g.snapshot.egraph_snapshot().to_string());
        let twice = SynthSnapshot::new(&g.input, &config, text.parse().unwrap());
        for snapshot in [g.snapshot.clone(), twice] {
            let oracle = restore_then_extract(snapshot.egraph_snapshot(), &config);
            let opts = RunOptions::new().with_snapshot(snapshot);
            let resumed = session.run(&g.input, opts).unwrap();
            assert_eq!(resumed.mode, RunMode::ResumedExtraction, "{}", g.name);
            let top_k = resumed.top_k.iter();
            let front = resumed.pareto.iter().flatten();
            let got: Resumed = (
                top_k.map(|p| (p.cost, p.cad.to_string())).collect(),
                front.map(|p| (p.costs, p.cad.to_string())).collect(),
                resumed.egraph_nodes,
                resumed.egraph_classes,
            );
            assert_eq!(got, oracle, "{}", g.name);
        }
    }
}

/// Random flat CSG terms of bounded size (the shape
/// `tests/cost_models.rs` uses).
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

/// Random arithmetic terms over two variables and small constants.
fn arb_arith() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("x".to_owned()),
        Just("y".to_owned()),
        (0i64..3).prop_map(|n| n.to_string()),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (prop_oneof![Just("+"), Just("*")], inner.clone(), inner)
            .prop_map(|(op, a, b)| format!("({op} {a} {b})"))
    })
}

/// A proptest CAD input saturated for `iters` iterations under the
/// default rules, plus the `union-empty` cycle rule when `cycle` is set.
fn saturated_cad(input: &Cad, iters: usize, cycle: bool) -> Runner<CadLang, CadAnalysis> {
    let mut rule_set = rules();
    if cycle {
        // `u = (Union u Empty)` puts every union class on a cycle.
        rule_set.push(
            Rewrite::parse(
                "union-empty",
                "(Union ?a ?b)",
                "(Union (Union ?a ?b) Empty)",
            )
            .unwrap(),
        );
    }
    Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(input))
        .with_iter_limit(iters)
        .with_node_limit(20_000)
        .run(&rule_set)
}

/// A proptest arithmetic term saturated for `iters` iterations under
/// commutativity, associativity and the `add0` cycle rule.
fn saturated_arith(expr: &str, iters: usize) -> Runner<Arith, ()> {
    let rule_set: Vec<Rewrite<Arith, ()>> = vec![
        Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
        Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
        Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
        Rewrite::parse("add0", "?a", "(+ ?a 0)").unwrap(),
    ];
    Runner::new(())
        .with_expr(&expr.parse().unwrap())
        .with_iter_limit(iters)
        .with_node_limit(5_000)
        .run(&rule_set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn saturated_cad_top_k_matches_the_eager_oracle(
        input in arb_flat_cad(),
        iters in 1usize..8,
        cycle in prop_oneof![Just(false), Just(true)],
    ) {
        let runner = saturated_cad(&input, iters, cycle);
        let root = runner.roots[0];
        for (spec, model) in ranking_models() {
            let (lazy, eager) = both(&runner.egraph, root, ModelCost(model));
            prop_assert!(!lazy.is_empty(), "{} under {}", input, spec);
            prop_assert_eq!(lazy, eager, "{} under {}", input, spec);
        }
    }

    #[test]
    fn arith_top_k_with_add0_cycles_matches_the_eager_oracle(
        expr in arb_arith(),
        iters in 1usize..4,
    ) {
        let runner = saturated_arith(&expr, iters);
        let root = runner.roots[0];
        let (lazy, eager) = both(&runner.egraph, root, AstSize);
        prop_assert_eq!(lazy, eager, "{} under ast-size", expr);
        let (lazy, eager) = both(&runner.egraph, root, AstDepth);
        prop_assert_eq!(lazy, eager, "{} under ast-depth", expr);
    }

    #[test]
    fn saturated_cad_pareto_fronts_match_the_jacobi_oracle(
        input in arb_flat_cad(),
        iters in 1usize..8,
        cycle in prop_oneof![Just(false), Just(true)],
    ) {
        let runner = saturated_cad(&input, iters, cycle);
        assert_fronts_agree(&runner.egraph, runner.roots[0], &input.to_string());
    }

    #[test]
    fn arith_snapshot_views_extract_what_restored_graphs_extract(
        expr in arb_arith(),
        iters in 1usize..4,
    ) {
        let runner = saturated_arith(&expr, iters);
        let text = Snapshot::of_egraph(&runner.egraph, &runner.roots).unwrap().to_string();
        let snapshot: Snapshot<Arith> = text.parse().unwrap();
        let root = snapshot.roots()[0];
        let restored: EGraph<Arith, ()> = snapshot.restore(());
        let view = arith_extraction(&snapshot.view(), root);
        prop_assert_eq!(view, arith_extraction(&restored, root), "{}", expr);
    }

    #[test]
    fn arith_pareto_fronts_with_add0_cycles_match_the_jacobi_oracle(
        expr in arb_arith(),
        iters in 1usize..4,
    ) {
        let runner = saturated_arith(&expr, iters);
        let root = runner.roots[0];
        for cap in CAPS {
            let (worklist, jacobi) = both_fronts(&runner.egraph, root, AstSize, AstDepth, cap);
            prop_assert_eq!(worklist, jacobi, "{} under (ast-size,ast-depth) cap {}", expr, cap);
            let (worklist, jacobi) = both_fronts(&runner.egraph, root, AstDepth, AstSize, cap);
            prop_assert_eq!(worklist, jacobi, "{} under (ast-depth,ast-size) cap {}", expr, cap);
        }
    }
}
