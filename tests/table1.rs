//! Table-1 shape tests on a representative subset of the benchmark
//! suite (the full 16-model table runs in the release harness:
//! `cargo run --release -p sz-bench --bin table1`).

use std::sync::Arc;

use sz_cad::Cad;
use sz_models::all_models;
use szalinski::{RewardLoopsCost, RunOptions, SynthConfig, Synthesis, Synthesizer};

fn config() -> SynthConfig {
    SynthConfig::new()
        .with_iter_limit(60)
        .with_node_limit(80_000)
}

/// One cold run through a fresh session.
fn synth(input: &Cad, config: &SynthConfig) -> Synthesis {
    Synthesizer::new(config.clone())
        .run(input, RunOptions::new())
        .unwrap()
}

fn run(name: &str) -> szalinski::TableRow {
    let model = all_models()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("model {name} exists"));
    synth(&model.flat, &config()).table_row(name)
}

#[test]
fn card_org_single_loop() {
    let row = run("3171605:card-org");
    assert_eq!(row.rank, Some(1));
    assert!(
        row.n_l.contains("n1,8") || row.n_l.contains("n2"),
        "{}",
        row.n_l
    );
    assert_eq!(row.f, "d1");
    assert!(
        row.size_reduction() > 0.4,
        "reduction {}",
        row.size_reduction()
    );
}

#[test]
fn box_tray_nested_loop() {
    let row = run("3148599:box-tray");
    assert!(row.rank.is_some());
    assert!(row.n_l.contains("n2"), "expected nested loop: {}", row.n_l);
    assert!(row.size_reduction() > 0.4);
}

#[test]
fn hc_bits_structure() {
    let row = run("2921167:hc-bits");
    assert!(row.rank.is_some());
    assert!(row.n_l.contains("n2,2,2"), "2x2 grid: {}", row.n_l);
}

#[test]
fn relay_box_low_rank_pair_loop() {
    // Paper: the 2-element tab loop exists but ranks low (r = 4).
    let model = all_models()
        .into_iter()
        .find(|m| m.name == "3452260:relay-box")
        .unwrap();
    let result = synth(&model.flat, &config());
    match result.structured() {
        Some((rank, prog)) => {
            assert!(rank >= 2, "pair loop should not beat the flat form");
            assert!(prog.cad.to_string().contains("2)"), "{}", prog.cad);
        }
        None => {
            // Acceptable: with k = 5 the pair loop may fall off the list.
        }
    }
}

#[test]
fn sd_rack_and_compose_have_no_structure() {
    // Paper: "ShrinkRay returned the same flat CSG as the input" — the
    // best program is the unchanged input.
    for name in ["64847:sd-rack", "3333935:compose"] {
        let row = run(name);
        assert_ne!(row.rank, Some(1), "{name}'s best program must stay flat");
        assert_eq!(row.o_ns, row.i_ns, "{name} must not shrink");
    }
}

#[test]
fn soldering_keeps_external_and_loops() {
    let model = all_models()
        .into_iter()
        .find(|m| m.name == "1725308:soldering")
        .unwrap();
    let result = synth(&model.flat, &config());
    let (_, prog) = result.structured().expect("clip loop");
    let s = prog.cad.to_string();
    assert!(
        s.contains("(External mirror_half)"),
        "External survives: {s}"
    );
    assert!(s.contains("Mapi") || s.contains("MapIdx"), "{s}");
}

#[test]
fn wardrobe_needs_reward_loops() {
    // The @-row behaviour: under AST size the wardrobe's best program
    // stays flat; the reward-loops cost function surfaces loopy variants
    // including the quadratically spaced shelf banks (f = d2).
    let model = all_models()
        .into_iter()
        .find(|m| m.name == "510849:wardrobe")
        .unwrap();
    let plain = synth(&model.flat, &config());
    let reward = synth(
        &model.flat,
        &config()
            .with_cost_model(Arc::new(RewardLoopsCost))
            .with_k(10),
    );
    assert_ne!(
        plain.structured().map(|(r, _)| r),
        Some(1),
        "AstSize must keep the wardrobe's best program flat"
    );
    let (rank, _) = reward
        .structured()
        .expect("reward-loops exposes loop structure");
    assert_eq!(rank, 1, "reward-loops puts a loopy program first");
    // The quadratic shelf banks appear among the reward-loops programs.
    let has_d2 = reward
        .top_k
        .iter()
        .any(|p| szalinski::fit_tags(&p.cad).iter().any(|t| t == "d2"));
    assert!(has_d2, "quadratic shelf loops expected in the top-k");
}
