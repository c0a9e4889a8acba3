//! Pipeline ablations: structural rules on/off, cost function, and the
//! list-manipulation pass.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use sz_egraph::Runner;
use szalinski::{
    cad_to_lang, infer_functions_with, list_manipulation, parse_cost_model, rules, AstSizeCost,
    CadAnalysis, CostModel, PassControl, RewardLoopsCost, RunOptions, SynthConfig, Synthesizer,
};

fn bench_structural_rules_ablation(c: &mut Criterion) {
    let flat = sz_models::hc_bits();
    let mut group = c.benchmark_group("pipeline/structural_rules");
    group.sample_size(10);
    for on in [false, true] {
        let cfg = SynthConfig::new()
            .with_iter_limit(25)
            .with_node_limit(60_000)
            .with_structural_rules(on);
        let session = Synthesizer::new(cfg);
        group.bench_function(if on { "on" } else { "off" }, |b| {
            b.iter(|| black_box(session.run(&flat, RunOptions::new()).unwrap()));
        });
    }
    group.finish();
}

fn bench_cost_functions(c: &mut Criterion) {
    let flat = sz_models::wardrobe();
    let mut group = c.benchmark_group("pipeline/cost");
    group.sample_size(10);
    // The two paper schemes, plus models built through the spec
    // grammar — same pipeline, different `CostModel`s.
    let models: [(&str, Arc<dyn CostModel>); 4] = [
        ("ast_size", Arc::new(AstSizeCost)),
        ("reward_loops", Arc::new(RewardLoopsCost)),
        (
            "weights_loop1_geom10",
            parse_cost_model("weights(geom=10,affine=10,bool=10,other=10)").unwrap(),
        ),
        (
            "depth_penalty",
            parse_cost_model("depth-penalty(ast-size,2)").unwrap(),
        ),
    ];
    for (name, model) in models {
        let cfg = SynthConfig::new()
            .with_iter_limit(40)
            .with_node_limit(60_000)
            .with_cost_model(Arc::clone(&model));
        let session = Synthesizer::new(cfg);
        group.bench_function(name, |b| {
            b.iter(|| black_box(session.run(&flat, RunOptions::new()).unwrap()));
        });
    }
    group.finish();
}

fn bench_listmanip_and_inference(c: &mut Criterion) {
    // The determinize → sort → solve passes in isolation, on a saturated
    // e-graph (paper Fig. 5 lines 5–7).
    let runner = Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(&sz_models::tape_store()))
        .with_iter_limit(40)
        .with_node_limit(60_000)
        .run(&rules());
    let eg = runner.egraph;
    let mut group = c.benchmark_group("pipeline/passes");
    group.sample_size(10);
    group.bench_function("list_manipulation", |b| {
        b.iter(|| {
            let mut eg = eg.clone();
            black_box(list_manipulation(&mut eg))
        });
    });
    group.bench_function("infer_functions", |b| {
        b.iter(|| {
            let mut eg = eg.clone();
            let (records, _) = infer_functions_with(&mut eg, 1e-3, &PassControl::new());
            black_box(records.len())
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
    targets = bench_structural_rules_ablation,
    bench_cost_functions,
    bench_listmanip_and_inference
}
criterion_main!(benches);
