//! E-graph engine microbenches: hash-consed insertion, congruence
//! maintenance (batched rebuild vs. eager per-union rebuild — the
//! deferred-invariant ablation), and 1-best vs. k-best extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use sz_egraph::{AstSize, EGraph, Extractor, KBestExtractor, ParetoExtractor, Runner};
use szalinski::{
    cad_to_lang, rules, AstSizeCost, CadAnalysis, CadGraph, CadLang, GeomCount, ModelCost,
};

fn bench_insertion(c: &mut Criterion) {
    let expr = cad_to_lang(&sz_models::gear(60));
    c.bench_function("egraph/add_expr_gear60", |b| {
        b.iter(|| {
            let mut eg: CadGraph = EGraph::new(CadAnalysis);
            black_box(eg.add_expr(&expr));
            eg.rebuild();
            black_box(eg.total_number_of_nodes())
        });
    });
}

/// Builds a chain of unions then merges leaf classes, once with a single
/// batched rebuild and once rebuilding after every union.
fn congruence_workload(eager: bool) -> usize {
    let mut eg: EGraph<CadLang, ()> = EGraph::default();
    let exprs: Vec<_> = (0..120)
        .map(|i| {
            let e = format!("(Translate (Vec3 {i} 0 0) Unit)");
            eg.add_expr(&e.parse().unwrap())
        })
        .collect();
    eg.rebuild();
    for pair in exprs.chunks(2) {
        if let [a, b] = pair {
            eg.union(*a, *b);
            if eager {
                eg.rebuild();
            }
        }
    }
    eg.rebuild();
    eg.number_of_classes()
}

fn bench_rebuild_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("egraph/rebuild");
    group.bench_function("batched", |b| {
        b.iter(|| black_box(congruence_workload(false)));
    });
    group.bench_function("eager", |b| b.iter(|| black_box(congruence_workload(true))));
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    // Saturate a mid-size model once, then time extraction flavors.
    let runner = Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(&sz_models::gear(12)))
        .with_iter_limit(40)
        .with_node_limit(60_000)
        .run(&rules());
    let eg = runner.egraph;
    let root = runner.roots[0];
    let mut group = c.benchmark_group("egraph/extract");
    group.sample_size(10);
    group.bench_function("one_best", |b| {
        b.iter(|| {
            let ex = Extractor::new(&eg, AstSize);
            black_box(ex.find_best(root).0)
        });
    });
    for k in [1usize, 5, 10] {
        group.bench_function(format!("k_best_{k}"), |b| {
            b.iter(|| {
                let kb = KBestExtractor::new(&eg, ModelCost(Arc::new(AstSizeCost)), k);
                black_box(kb.find_best_k(root).len())
            });
        });
    }
    group.bench_function("pareto_size_x_geom", |b| {
        b.iter(|| {
            let pareto = ParetoExtractor::new(
                &eg,
                ModelCost(Arc::new(AstSizeCost)),
                ModelCost(Arc::new(GeomCount)),
            );
            black_box(pareto.find_front(root).len())
        });
    });
    group.finish();
}

/// Fast Criterion settings so the whole suite runs in minutes.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_insertion,
    bench_rebuild_ablation,
    bench_extraction
}
criterion_main!(benches);
