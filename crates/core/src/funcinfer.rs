//! Function inference (paper §4): turn a determinized list of affine
//! transformed CADs into `Mapi`/`Repeat` structure with solver-inferred
//! closed forms — the "inverse transformation" at the heart of Szalinski.

use std::collections::HashMap;
use std::time::Instant;

use sz_cad::{AffineKind, Expr};
use sz_egraph::{CancelToken, Id, RecExpr};

use crate::analysis::CadGraph;
use crate::determinize::DetList;
use crate::lang::expr_to_lang;
use crate::lists::{add_cons_list, add_num, SiteTable};
use crate::CadLang;

/// The loop structure created by an inference pass (Table 1's `n-l`
/// column distinguishes these shapes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoopShape {
    /// A plain `Repeat` of one element.
    Repeat(usize),
    /// A single loop (`Mapi` over `Repeat`/list) with the given length.
    Single(usize),
    /// A nested index loop with the given bounds.
    Nested(Vec<usize>),
    /// An irregular loop: concatenated groups with the given sizes.
    Irregular(Vec<usize>),
}

impl LoopShape {
    /// Formats like the paper's `n-l` column: `n1,60` or `n2,3,5`.
    pub fn table_tag(&self) -> String {
        match self {
            LoopShape::Repeat(n) | LoopShape::Single(n) => format!("n1,{n}"),
            LoopShape::Nested(bs) => {
                let inner: Vec<String> = bs.iter().map(ToString::to_string).collect();
                format!("n{},{}", bs.len(), inner.join(","))
            }
            LoopShape::Irregular(sizes) => {
                let inner: Vec<String> = sizes.iter().map(ToString::to_string).collect();
                format!("irr,{}", inner.join("+"))
            }
        }
    }
}

/// What an inference pass did to one list class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferenceRecord {
    /// Number of list elements.
    pub n: usize,
    /// Closed-form tags used (`d1`, `d2`, `θ`), deduplicated, non-constant
    /// layers only.
    pub fit_tags: Vec<String>,
    /// The loop structure inserted.
    pub shape: LoopShape,
}

impl InferenceRecord {
    /// A record of `fit_tags`, sorted and deduplicated.
    pub(crate) fn new(n: usize, mut fit_tags: Vec<String>, shape: LoopShape) -> Self {
        fit_tags.sort();
        fit_tags.dedup();
        InferenceRecord { n, fit_tags, shape }
    }
}

/// One fitted variant of an affine layer: component expressions plus
/// the non-constant fit tags.
pub(crate) struct LayerFit {
    pub exprs: [Expr; 3],
    pub tags: Vec<String>,
}

/// A fitted component of a `kind` layer over the index bound at `depth`:
/// a `Rotate` component takes its rotation form when it has one.
pub(crate) fn fitted_expr(f: &sz_solver::FittedFn, kind: AffineKind, depth: u8) -> Expr {
    if kind == AffineKind::Rotate {
        f.to_rotation_expr(depth)
            .unwrap_or_else(|| f.to_expr(depth))
    } else {
        f.to_expr(depth)
    }
}

/// [`sz_solver::fit_sequence_all`] results of one function-inference
/// pass, keyed by the bit pattern of the component sequence (ε is fixed
/// for the pass). Determinizations of different lists often hand the
/// solvers the same sequence, and a fit depends on nothing else. The keys
/// are input coordinates, so the map keeps the default (keyed) hasher.
#[derive(Default)]
pub(crate) struct FitMemo {
    fits: HashMap<Vec<u64>, Vec<sz_solver::FittedFn>>,
    /// The probe key, reused across lookups.
    key: Vec<u64>,
}

impl FitMemo {
    /// The admissible closed forms of component `comp` of `vecs`.
    fn fit(&mut self, vecs: &[[f64; 3]], comp: usize, eps: f64) -> &[sz_solver::FittedFn] {
        self.key.clear();
        self.key.extend(vecs.iter().map(|v| v[comp].to_bits()));
        if !self.fits.contains_key(self.key.as_slice()) {
            let values: Vec<f64> = vecs.iter().map(|v| v[comp]).collect();
            let fits = sz_solver::fit_sequence_all(&values, eps);
            self.fits.insert(self.key.clone(), fits);
        }
        &self.fits[self.key.as_slice()]
    }
}

/// Fits one affine layer's vectors. Returns up to two variants: the
/// primary (simplest class per component) and, when some component also
/// admits a sinusoid, a trigonometry-preferring variant — the source of
/// the paper's §6.3 solution diversity.
pub(crate) fn fit_layer(
    kind: AffineKind,
    vecs: &[[f64; 3]],
    eps: f64,
    depth: u8,
    memo: &mut FitMemo,
) -> Vec<LayerFit> {
    let mut primary: Vec<Expr> = Vec::with_capacity(3);
    let mut trigged: Vec<Expr> = Vec::with_capacity(3);
    let mut tags = Vec::new();
    let mut trig_tags = Vec::new();
    let mut any_trig_alt = false;
    for comp in 0..3 {
        let fits = memo.fit(vecs, comp, eps);
        let Some(first) = fits.first() else {
            return Vec::new();
        };
        if !first.is_constant() {
            tags.push(first.kind_tag().to_owned());
        }
        primary.push(fitted_expr(first, kind, depth));
        // Trig-preferring variant: take the sinusoid when available.
        let trig = fits
            .iter()
            .find(|f| matches!(f, sz_solver::FittedFn::Trig(_)));
        match trig {
            Some(t) => {
                any_trig_alt |= !matches!(first, sz_solver::FittedFn::Trig(_));
                trig_tags.push(t.kind_tag().to_owned());
                trigged.push(fitted_expr(t, kind, depth));
            }
            None => {
                if !first.is_constant() {
                    trig_tags.push(first.kind_tag().to_owned());
                }
                trigged.push(fitted_expr(first, kind, depth));
            }
        }
    }
    let mut out = vec![LayerFit {
        exprs: <[Expr; 3]>::try_from(primary).expect("three components"),
        tags,
    }];
    if any_trig_alt {
        out.push(LayerFit {
            exprs: <[Expr; 3]>::try_from(trigged).expect("three components"),
            tags: trig_tags,
        });
    }
    out
}

/// Adds `affine(kind, vec-of-exprs, child)` to the e-graph.
pub(crate) fn add_affine_exprs(
    egraph: &mut CadGraph,
    kind: AffineKind,
    exprs: &[Expr; 3],
    child: Id,
) -> Id {
    let mut vec = RecExpr::default();
    let [x, y, z] = exprs.each_ref().map(|e| expr_to_lang(e, &mut vec));
    vec.add(CadLang::Vec3([x, y, z]));
    let vec = egraph.add_expr(&vec);
    egraph.add(CadLang::affine(kind, vec, child))
}

fn infer_for_list(
    egraph: &mut CadGraph,
    table: &mut SiteTable,
    list: Id,
    det: &DetList,
    eps: f64,
    memo: &mut FitMemo,
) -> Option<InferenceRecord> {
    let n = det.chains.len();
    let leaves: Vec<Id> = det.chains.iter().map(|c| egraph.find(c.leaf)).collect();
    let same_leaf = leaves.windows(2).all(|w| w[0] == w[1]);

    if det.signature.is_empty() {
        // No common affine structure; identical elements still repeat.
        if same_leaf && n >= 2 {
            let n_id = add_num(egraph, n as f64);
            table.union_new(egraph, list, CadLang::Repeat([leaves[0], n_id]));
            return Some(InferenceRecord::new(n, Vec::new(), LoopShape::Repeat(n)));
        }
        return None;
    }

    // Fit every layer; all must admit closed forms. Each layer may offer
    // a trig-preferring alternative; we materialize two program variants
    // (primary and trig-preferred) for top-k diversity.
    let depth = 0u8; // every Mapi layer binds its own `i`
    let mut layer_fits: Vec<(AffineKind, Vec<LayerFit>)> = Vec::new();
    for (l, &kind) in det.signature.iter().enumerate() {
        let vecs: Vec<[f64; 3]> = det.chains.iter().map(|c| c.layers[l].vec).collect();
        let fits = fit_layer(kind, &vecs, eps, depth, memo);
        if fits.is_empty() {
            return None;
        }
        layer_fits.push((kind, fits));
    }

    let has_trig_variant = layer_fits.iter().any(|(_, fits)| fits.len() > 1);
    let variants: &[usize] = if has_trig_variant { &[0, 1] } else { &[0] };
    let mut record = None;
    for &variant in variants {
        // Inner list: Repeat for a shared leaf, else the explicit leaves.
        let mut lst = if same_leaf {
            let n_id = add_num(egraph, n as f64);
            egraph.add(CadLang::Repeat([leaves[0], n_id]))
        } else {
            add_cons_list(egraph, &leaves)
        };
        // Wrap one Mapi per layer, innermost layer first (Fig. 10); the
        // outermost one is the node equal to `list`.
        let mut all_tags: Vec<String> = Vec::new();
        let mut mapi = None;
        for (kind, fits) in layer_fits.iter().rev() {
            if let Some(inner) = mapi.take() {
                lst = egraph.add(inner);
            }
            let fit = fits.get(variant).unwrap_or(&fits[0]);
            all_tags.extend(fit.tags.iter().cloned());
            let param = egraph.add(CadLang::Param);
            let body = add_affine_exprs(egraph, *kind, &fit.exprs, param);
            let fun = egraph.add(CadLang::Fun([body]));
            mapi = Some(CadLang::Mapi([fun, lst]));
        }
        table.union_new(egraph, list, mapi.expect("the signature is not empty"));
        if record.is_none() {
            record = Some(InferenceRecord::new(n, all_tags, LoopShape::Single(n)));
        }
    }
    record
}

/// Cooperative stop checks threaded through the solver-inference passes
/// ([`infer_functions_with`] / [`crate::infer_loops_with`]): a
/// [`CancelToken`] and/or a wall-clock deadline, polled **between list
/// sites** — so a deadline can interrupt an inference pass mid-way, not
/// only at saturation iteration boundaries.
///
/// A pass stopped early leaves the e-graph valid (unions already made
/// stay; callers rebuild as usual) but its result is wall-clock
/// dependent — the session marks such runs
/// [`StopReason::Cancelled`](sz_egraph::StopReason::Cancelled) and never
/// captures or caches them.
#[derive(Debug, Clone, Default)]
pub struct PassControl {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
}

impl PassControl {
    /// No cancellation: passes always run to completion.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a wall-clock deadline (an absolute instant).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether the pass should stop at the next site boundary.
    pub fn should_stop(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// Runs function inference over every `Fold` list in the e-graph
/// (paper Fig. 5, `solver_invoke`), inserting `Mapi`/`Repeat` variants
/// into the matched list classes. Every consistent determinization is
/// tried, so diverse parameterizations coexist in the e-graph and the
/// final top-k extraction chooses among them. Call
/// [`CadGraph::rebuild`] afterwards.
///
/// Cancellation is cooperative: `ctl` is polled between list sites
/// ([`PassControl::new`] never stops). Returns the records produced plus
/// whether the pass was **truncated** — stopped with sites left
/// unprocessed (the e-graph keeps any structure already inserted). A
/// pass that ran every site reports `false` even if the stop condition
/// became true afterwards: its product is still the deterministic one.
pub fn infer_functions_with(
    egraph: &mut CadGraph,
    eps: f64,
    ctl: &PassControl,
) -> (Vec<InferenceRecord>, bool) {
    infer_functions_in(egraph, &mut SiteTable::default(), eps, ctl)
}

/// [`infer_functions_with`] over `table`'s sites and lists.
pub(crate) fn infer_functions_in(
    egraph: &mut CadGraph,
    table: &mut SiteTable,
    eps: f64,
    ctl: &PassControl,
) -> (Vec<InferenceRecord>, bool) {
    let mut records = Vec::new();
    let mut fits = FitMemo::default();
    for site in table.start_pass(egraph) {
        if ctl.should_stop() {
            return (records, true);
        }
        let Some((list, dets)) = table.visit(egraph, site.list, 2) else {
            continue;
        };
        for det in dets.iter() {
            if let Some(rec) = infer_for_list(egraph, table, list, det, eps, &mut fits) {
                records.push(rec);
            }
        }
    }
    (records, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lang_to_cad, CadAnalysis};
    use sz_egraph::{AstSize, Extractor, RecExpr, Runner};

    #[test]
    fn affine_exprs_constant_fold_via_analysis() {
        let mut eg = CadGraph::default();
        let unit = eg.add(CadLang::Unit);
        let x: Expr = "(+ 1 (* 2 3))".parse().unwrap();
        let id = add_affine_exprs(
            &mut eg,
            AffineKind::Translate,
            &[x, Expr::num(0.0), Expr::num(0.0)],
            unit,
        );
        eg.rebuild();
        let CadLang::Translate([vec, _]) = eg.class_nodes(id).next().unwrap() else {
            panic!("an affine node");
        };
        assert_eq!(crate::vec_of(&eg, *vec), Some([7.0, 0.0, 0.0]));
    }

    #[test]
    fn cancelled_token_interrupts_inference_mid_pass() {
        // A pre-triggered token stops the pass before any site runs:
        // no records, graph untouched. The pipeline relies on this for
        // mid-pass deadline enforcement (PassControl is polled between
        // list sites, not only at saturation iteration boundaries).
        let teeth: Vec<String> = (1..=5)
            .map(|i| format!("(Translate (Vec3 {} 0 0) Unit)", 2 * i))
            .collect();
        let input = format!(
            "(Union {} (Union {} (Union {} (Union {} {}))))",
            teeth[0], teeth[1], teeth[2], teeth[3], teeth[4]
        );
        let expr: RecExpr<CadLang> = input.parse().unwrap();
        let runner = Runner::new(CadAnalysis)
            .with_expr(&expr)
            .with_iter_limit(30)
            .run(&crate::rules::rules());
        let mut eg = runner.egraph;

        let token = sz_egraph::CancelToken::new();
        token.cancel();
        let ctl = PassControl::new().with_cancel_token(token);
        assert!(ctl.should_stop());
        let nodes_before = eg.total_number_of_nodes();
        let (records, truncated) = infer_functions_with(&mut eg, 1e-3, &ctl);
        assert!(records.is_empty());
        assert!(truncated, "sites were left unprocessed");
        assert_eq!(eg.total_number_of_nodes(), nodes_before);
        let (records, truncated) = crate::infer_loops_with(&mut eg, 1e-3, &ctl);
        assert!(records.is_empty());
        assert!(truncated);

        // An untriggered control changes nothing versus the plain entry
        // points — and a pass that ran every site is NOT truncated.
        let idle = PassControl::new()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        assert!(!idle.should_stop());
        let (records, truncated) = infer_functions_with(&mut eg, 1e-3, &idle);
        assert!(!records.is_empty(), "inference proceeds under an idle ctl");
        assert!(!truncated);
    }

    /// Saturate with the default rules, run function inference, rebuild,
    /// then extract the best program.
    fn infer_pipeline(input: &str) -> (String, Vec<InferenceRecord>) {
        let expr: RecExpr<CadLang> = input.parse().unwrap();
        let runner = Runner::new(CadAnalysis)
            .with_expr(&expr)
            .with_iter_limit(30)
            .run(&crate::rules::rules());
        let mut eg = runner.egraph;
        let root = runner.roots[0];
        let (records, _) = infer_functions_with(&mut eg, 1e-3, &PassControl::new());
        eg.rebuild();
        let ex = Extractor::new(&eg, AstSize);
        let (_, best) = ex.find_best(root);
        (lang_to_cad(&best).unwrap().to_string(), records)
    }

    #[test]
    fn fig2_five_cubes() {
        // Union of 5 cubes translated by 2(i+1) along x.
        let teeth: Vec<String> = (1..=5)
            .map(|i| format!("(Translate (Vec3 {} 0 0) Unit)", 2 * i))
            .collect();
        let input = format!(
            "(Union {} (Union {} (Union {} (Union {} {}))))",
            teeth[0], teeth[1], teeth[2], teeth[3], teeth[4]
        );
        let (best, records) = infer_pipeline(&input);
        assert!(
            best.contains("(Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 5))"),
            "got {best}"
        );
        assert!(records
            .iter()
            .any(|r| r.shape == LoopShape::Single(5) && r.fit_tags == ["d1"]));
    }

    #[test]
    fn gear_rotation_form() {
        // 6 teeth at multiples of 60°, translated then rotated.
        let teeth: Vec<String> = (1..=6)
            .map(|i| {
                format!(
                    "(Rotate (Vec3 0 0 {}) (Translate (Vec3 125 0 0) Ext:tooth))",
                    60 * i
                )
            })
            .collect();
        let mut input = teeth.last().unwrap().clone();
        for t in teeth[..5].iter().rev() {
            input = format!("(Union {t} {input})");
        }
        let (best, _) = infer_pipeline(&input);
        assert!(
            best.contains("(Rotate 0 0 (/ (* 360 (+ i 1)) 6) c)"),
            "rotation heuristic missing: {best}"
        );
        // The constant translate layer either stays inside the repeated
        // leaf or becomes its own (constant) Mapi layer; both expose the
        // tooth repetition.
        assert!(
            best.contains("(Repeat (Translate 125 0 0 (External tooth)) 6)")
                || (best.contains("(Translate 125 0 0 c)")
                    && best.contains("(Repeat (External tooth) 6)")),
            "got {best}"
        );
    }

    #[test]
    fn fig10_nested_affine_layers() {
        // Five cubes with three varying affine layers each (Fig. 10 uses
        // three; we use five so the loop also wins on AST size).
        let items: Vec<String> = (0..5)
            .map(|i| {
                format!(
                    "(Translate (Vec3 {} {} {}) (Rotate (Vec3 {} 0 0) (Scale (Vec3 {} {} {}) Unit)))",
                    2 * i + 2, 2 * i + 4, 2 * i + 6,
                    15 * i + 30,
                    2 * i + 1, 2 * i + 3, 2 * i + 5,
                )
            })
            .collect();
        let mut input = items.last().unwrap().clone();
        for it in items[..items.len() - 1].iter().rev() {
            input = format!("(Union {it} {input})");
        }
        let (best, records) = infer_pipeline(&input);
        // Triple-nested Mapi over Repeat(Unit, 5).
        assert_eq!(best.matches("Mapi").count(), 3, "got {best}");
        assert!(best.contains("(Repeat Unit 5)"), "got {best}");
        assert!(records.iter().any(|r| r.shape == LoopShape::Single(5)));
    }

    #[test]
    fn identical_items_collapse_via_idempotence() {
        // Union of three identical solids: idempotence makes the single
        // solid the best program — smaller than any Repeat loop.
        let input = "(Union (Scale (Vec3 2 2 2) Sphere) (Union (Scale (Vec3 2 2 2) Sphere) (Scale (Vec3 2 2 2) Sphere)))";
        let (best, _) = infer_pipeline(input);
        assert_eq!(best, "(Scale 2 2 2 Sphere)");
    }

    #[test]
    fn unfittable_vectors_leave_input_best() {
        let vals = [3.1, -7.4, 12.9, 0.2, -5.5, 9.9, 1.1, -2.2, 15.0, -11.0];
        let items: Vec<String> = vals
            .iter()
            .map(|v| format!("(Translate (Vec3 {v} 0 0) Unit)"))
            .collect();
        let mut input = items.last().unwrap().clone();
        for it in items[..items.len() - 1].iter().rev() {
            input = format!("(Union {it} {input})");
        }
        let (best, _) = infer_pipeline(&input);
        assert!(!best.contains("Mapi"), "no closed form should fit: {best}");
    }

    #[test]
    fn mixed_leaves_map_over_list() {
        // Same transform structure, different leaves: Mapi over an
        // explicit list (enough elements for the loop to win on size).
        let leaves = ["Unit", "Sphere", "Hexagon", "Cylinder", "Unit"];
        let items: Vec<String> = leaves
            .iter()
            .enumerate()
            .map(|(i, leaf)| format!("(Translate (Vec3 {} 0 0) {leaf})", 2 * (i + 1)))
            .collect();
        let mut input = items.last().unwrap().clone();
        for it in items[..items.len() - 1].iter().rev() {
            input = format!("(Union {it} {input})");
        }
        let (best, _) = infer_pipeline(&input);
        assert!(
            best.contains("(Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Cons Unit (Cons Sphere (Cons Hexagon (Cons Cylinder (Cons Unit Nil))))))"),
            "got {best}"
        );
    }

    #[test]
    fn noisy_vectors_recovered() {
        let vals = [5.001, 10.00001, 14.9998, 20.0];
        let items: Vec<String> = vals
            .iter()
            .map(|v| format!("(Translate (Vec3 0 0 {v}) Unit)"))
            .collect();
        let input = format!(
            "(Union {} (Union {} (Union {} {})))",
            items[0], items[1], items[2], items[3]
        );
        let (best, _) = infer_pipeline(&input);
        assert!(
            best.contains("(Translate 0 0 (* 5 (+ i 1)) c)"),
            "noise not cleaned: {best}"
        );
    }
}
