//! Geometric soundness of every rewrite family: for fixed inputs
//! exercising each rule, all equal-cost-or-otherwise programs that
//! saturation places in the root e-class must denote the same solid.
//! (This is the translation-validation view of Fig. 8's "semantics
//! preserving" claim; `tests/proptests.rs` adds randomized inputs.)

use sz_cad::Cad;
use sz_egraph::{AstSize, KBestExtractor, Runner};
use sz_mesh::validate_flat;
use szalinski::{all_rules, cad_to_lang, lang_to_cad, CadAnalysis};

/// Saturates `input` with the full rule set, extracts up to 8 programs,
/// and validates them all against the input geometry.
fn check_all_variants(input: &str) {
    let cad: Cad = input.parse().unwrap();
    let runner = Runner::new(CadAnalysis)
        .with_expr(&cad_to_lang(&cad))
        .with_iter_limit(25)
        .with_node_limit(30_000)
        .run(&all_rules());
    let kbest = KBestExtractor::new(&runner.egraph, AstSize, 8);
    let results = kbest.find_best_k(runner.roots[0]);
    assert!(!results.is_empty());
    for (cost, expr) in results {
        let variant = lang_to_cad(&expr).expect("well-sorted term");
        let flat = variant.eval_to_flat().expect("evaluates");
        let v = validate_flat(&flat, &cad, 3000).unwrap();
        assert!(
            v.volume.agreement >= 0.99,
            "unsound variant (cost {cost}) for {input}: {variant} \
             (agreement {})",
            v.volume.agreement
        );
    }
}

#[test]
fn lifting_family_is_sound() {
    check_all_variants("(Union (Translate 1 2 3 Unit) (Translate 1 2 3 Sphere))");
    check_all_variants("(Diff (Rotate 0 0 45 (Scale 3 3 1 Unit)) (Rotate 0 0 45 Sphere))");
    check_all_variants("(Inter (Scale 2 2 2 Unit) (Scale 2 2 2 (Translate 1 0 0 Unit)))");
}

#[test]
fn reordering_family_is_sound() {
    check_all_variants("(Scale 2 3 4 (Translate 1 1 1 Unit))");
    check_all_variants("(Translate 2 3 4 (Scale 2 4 8 Unit))");
    check_all_variants("(Rotate 0 0 30 (Translate 3 0 0 Unit))");
    check_all_variants("(Translate 0 2 0 (Rotate 90 0 0 Unit))");
    check_all_variants("(Rotate 0 45 0 (Translate 0 0 2 Sphere))");
    check_all_variants("(Scale 2 2 2 (Rotate 10 20 30 Unit))");
}

#[test]
fn collapsing_family_is_sound() {
    check_all_variants("(Translate 1 2 3 (Translate 4 5 6 Unit))");
    check_all_variants("(Scale 2 1 1 (Scale 1 3 1 Sphere))");
    check_all_variants("(Rotate 0 0 30 (Rotate 0 0 60 (Scale 3 1 1 Unit)))");
    check_all_variants("(Translate 0 0 0 (Scale 1 1 1 (Rotate 0 0 0 Hexagon)))");
}

#[test]
fn fold_family_is_sound() {
    check_all_variants(
        "(Union (Translate 2 0 0 Unit) (Union (Translate 4 0 0 Unit) (Translate 6 0 0 Unit)))",
    );
    check_all_variants("(Inter (Scale 3 3 3 Unit) (Inter (Scale 3 3 3 Sphere) Cylinder))");
}

#[test]
fn boolean_family_is_sound() {
    check_all_variants("(Union Unit Unit)");
    check_all_variants("(Diff Unit Empty)");
    check_all_variants("(Diff (Diff (Scale 4 4 4 Unit) Sphere) (Translate 1 0 0 Unit))");
    check_all_variants("(Union Empty (Inter (Scale 2 2 2 Unit) Sphere))");
}

#[test]
fn mixed_deep_nesting_is_sound() {
    check_all_variants(
        "(Diff (Scale 6 6 2 (Rotate 0 0 15 Unit)) \
          (Union (Rotate 0 0 15 (Translate 1 1 0 (Scale 0.5 0.5 3 Cylinder))) \
                 (Rotate 0 0 15 (Translate -1 -1 0 (Scale 0.5 0.5 3 Cylinder)))))",
    );
}
