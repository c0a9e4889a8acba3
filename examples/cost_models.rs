//! The pluggable cost-model & extraction surface: the same saturated
//! e-graph ranked by different notions of "best program", a user-defined
//! `CostModel`, and the two-objective Pareto front.
//!
//! ```text
//! cargo run --release --example cost_models
//! ```

use std::sync::Arc;

use sz_cad::Cad;
use szalinski::{
    parse_cost_spec, AstSizeCost, CadLang, CostModel, CostSpec, CostVec, GeomCount, OpClass,
    RewardLoopsCost, RunOptions, SynthConfig, Synthesizer, WeightedCost,
};

/// A user-defined model the core crate knows nothing about: AST size,
/// but `External` solids are painful (say, each import costs a mesh
/// lookup at render time), so programs that reference fewer of them
/// win.
#[derive(Debug)]
struct PenalizeExternals;

impl CostModel for PenalizeExternals {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        let node = match enode {
            CadLang::External(_) => 25,
            _ => 1,
        };
        CostVec::scalar(
            child_costs
                .iter()
                .fold(node, |acc, c| acc.saturating_add(c.primary())),
        )
    }
    fn fingerprint(&self) -> String {
        // Stable and whitespace-free: this string keys batch caches.
        "example-penalize-externals".to_owned()
    }
}

fn main() {
    // Figure 2's row of cubes, two elements only — small enough that a
    // loop does NOT pay for itself under plain AST size.
    let flat = Cad::union_chain(
        (1..=2)
            .map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit))
            .collect(),
    );

    // 1. One saturated graph, three rankings. The cost model is an
    //    extraction-only config field, so the snapshot captured under
    //    AST size serves every later model without re-saturating.
    let session = Synthesizer::new(SynthConfig::new());
    let cold = session
        .run(&flat, RunOptions::new().capture_snapshot(true))
        .expect("flat CSG");
    let snapshot = cold.snapshot.clone().unwrap();
    println!("ast-size best        : {}", cold.best().cad);

    let models: [(&str, Arc<dyn CostModel>); 3] = [
        ("reward-loops", Arc::new(RewardLoopsCost)),
        (
            "weights(geom=10,..)",
            Arc::new(
                WeightedCost::new()
                    .with_weight(OpClass::Geom, 10)
                    .with_weight(OpClass::Affine, 10)
                    .with_weight(OpClass::Other, 10),
            ),
        ),
        ("user-defined", Arc::new(PenalizeExternals)),
    ];
    for (name, model) in models {
        let session = Synthesizer::new(SynthConfig::new().with_cost_model(model));
        let result = session
            .run(&flat, RunOptions::new().with_snapshot(snapshot.clone()))
            .unwrap();
        println!(
            "{name:<21}: {}   (mode {:?}, {} saturation iterations)",
            result.best().cad,
            result.mode,
            result.iterations
        );
        assert_eq!(result.iterations, 0, "cost-only swaps never re-saturate");
    }

    // 2. The Pareto front under size × geometry-node-count: every point
    //    is a different size-vs-geometry trade-off; nothing dominates.
    //    The objectives are extraction-only config fields too, so the
    //    same snapshot serves this session.
    let pareto = Synthesizer::new(
        SynthConfig::new().with_pareto(Arc::new(AstSizeCost), Arc::new(GeomCount)),
    );
    let result = pareto
        .run(&flat, RunOptions::new().with_snapshot(snapshot))
        .unwrap();
    println!("\npareto(size, geom) front:");
    for point in result.pareto.as_deref().unwrap_or_default() {
        println!(
            "  size {:>3}  geom {:>2}  {}",
            point.costs[0], point.costs[1], point.cad
        );
    }

    // 3. The same requests as `szb --cost` specs.
    for spec in ["weights(loop=1,geom=10)", "pareto(size,depth)"] {
        match parse_cost_spec(spec).unwrap() {
            CostSpec::Single(m) => println!("\n--cost {spec:<24} -> model {}", m.fingerprint()),
            CostSpec::Pareto(a, b) => println!(
                "\n--cost {spec:<24} -> front under {} x {}",
                a.fingerprint(),
                b.fingerprint()
            ),
        }
    }
}
