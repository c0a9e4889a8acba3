//! Extraction cost models (paper §5.1 and §6.1) — an **open** surface.
//!
//! The paper's headline `wardrobe@` row exists only because the cost
//! function was redesigned to reward loop structure; this module makes
//! that axis pluggable instead of a closed enum. The pieces:
//!
//! * [`CostModel`] — the object-safe trait every cost scheme implements:
//!   a per-node cost over [`CadLang`] (folded bottom-up through
//!   [`CostVec`]s) plus a stable [`CostModel::fingerprint`] string, so
//!   `SynthConfig`'s extraction-only fingerprint fields, snapshot-tier
//!   keys, and batch cache keys keep working for arbitrary user models.
//! * Built-ins: [`AstSizeCost`] (the paper's default), [`RewardLoopsCost`]
//!   (the `wardrobe@` scheme), [`WeightedCost`] (per-[`OpClass`] weight
//!   table), [`DepthCost`], and [`GeomCount`] (geometry-node count, for
//!   Pareto secondaries).
//! * Combinators: [`DepthPenalty`], [`Lexicographic`], [`WeightedSum`].
//! * [`parse_cost_spec`] — the `szb --cost` mini-spec grammar
//!   (`ast-size`, `reward-loops`, `weights(loop=1,geom=10)`,
//!   `pareto(size,depth)`, …).

use std::fmt;
use std::sync::Arc;

use sz_egraph::CostFunction;

use crate::CadLang;

// ---------------------------------------------------------------------------
// Cost domain
// ---------------------------------------------------------------------------

/// A cost value: a short vector of `u64` components compared
/// **lexicographically**.
///
/// Scalar models ([`AstSizeCost`], [`WeightedCost`], …) use a single
/// component, stored **inline** (no heap allocation — extraction
/// evaluates and clones a cost for every candidate derivation it
/// considers, and the old plain-`usize` costs were `Copy`); combinators
/// carry the sub-model components they need to fold parents (e.g.
/// [`WeightedSum`] leads with the combined total so ordering is by
/// total, followed by each side's components so parents can recompute
/// them). Every model must produce a **fixed width** (see
/// [`CostModel::width`]) so comparisons never mix lengths.
#[derive(Debug, Clone)]
pub struct CostVec(CostRepr);

/// Inline scalar fast path vs heap-backed multi-component costs.
#[derive(Debug, Clone)]
enum CostRepr {
    Scalar(u64),
    Multi(Vec<u64>),
}

impl CostVec {
    /// A single-component cost (allocation-free).
    pub fn scalar(v: u64) -> Self {
        CostVec(CostRepr::Scalar(v))
    }

    /// A cost from explicit components (single-component vectors
    /// collapse to the inline representation).
    pub fn from_components(components: Vec<u64>) -> Self {
        match components.as_slice() {
            [v] => CostVec(CostRepr::Scalar(*v)),
            _ => CostVec(CostRepr::Multi(components)),
        }
    }

    /// The primary (ordering-dominant) component.
    ///
    /// # Panics
    ///
    /// Panics if the vector is empty (models never produce empty costs).
    pub fn primary(&self) -> u64 {
        self.components()[0]
    }

    /// All components.
    pub fn components(&self) -> &[u64] {
        match &self.0 {
            CostRepr::Scalar(v) => std::slice::from_ref(v),
            CostRepr::Multi(c) => c,
        }
    }
}

impl Default for CostVec {
    fn default() -> Self {
        CostVec::scalar(0)
    }
}

// Equality/ordering/hashing go through `components()` so the inline and
// heap representations of the same components can never disagree.
impl PartialEq for CostVec {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}
impl Eq for CostVec {}
impl PartialOrd for CostVec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CostVec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}
impl std::hash::Hash for CostVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl fmt::Display for CostVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.components() {
            [v] => write!(f, "{v}"),
            components => {
                write!(f, "(")?;
                for (i, c) in components.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// An extraction cost model over [`CadLang`]. Object-safe: the pipeline
/// holds models as `Arc<dyn CostModel>` inside `SynthConfig`.
///
/// # Contract
///
/// * `cost` must be **non-decreasing**: a node's primary component is at
///   least every child's. Models with [`CostModel::strictly_monotone`]
///   `true` additionally guarantee *strictly greater than* every child —
///   required for extraction to terminate on cyclic e-graphs, and
///   checked by [`parse_cost_spec`] for top-level specs.
/// * `fingerprint` must be a stable string that changes whenever the
///   model's behavior changes, built from a restricted charset (see
///   [`validate_fingerprint`]): no whitespace, no `;`, `+`, or `|`
///   (they delimit fingerprint fields), and any `,` or parentheses must
///   be balanced/nested (so `pareto(a,b)` compositions stay
///   unambiguous). It is embedded in `SynthConfig::fingerprint` (an
///   **extraction-only** field), so two models with equal fingerprints
///   may share batch cache entries and two configs differing only in
///   cost model still share e-graph snapshots. Violations are rejected
///   by `SynthConfig::with_cost_model` in debug builds.
/// * `width` must be constant for a given model and equal to the length
///   of every `CostVec` that `cost` returns.
///
/// # Optimality caveat (non-separable models)
///
/// The extractors are **bottom-up**: each e-class ranks its
/// derivations under the model's own cost order, and parents combine
/// children's derivations in that order. For purely additive models
/// this yields the global optimum. Models with `max`-combined
/// components — depth in [`DepthCost`], [`DepthPenalty`], or a depth
/// side of [`Lexicographic`]/[`WeightedSum`] — lack optimal
/// substructure: a derivation that is locally worse (bigger) but
/// shallower can win inside a deeper context, so a class's 1-best may
/// not be the right start, and the ranked enumeration may reach a
/// cheaper derivation only after dearer ones. Extraction under such
/// models is therefore a **deterministic greedy approximation** (the
/// same caveat `sz_egraph::AstDepth` has always carried): the carried
/// component vectors and the pipeline's 2k root pulls (re-sorted by
/// cost) reduce, but do not eliminate, the gap.
pub trait CostModel: Send + Sync + fmt::Debug {
    /// Computes the cost of `enode` from its children's already-computed
    /// costs (`child_costs[i]` corresponds to `enode.children()[i]`).
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec;

    /// A stable identifier for cache/snapshot keys (charset restricted —
    /// see the trait-level contract and [`validate_fingerprint`]).
    fn fingerprint(&self) -> String;

    /// Number of components in this model's [`CostVec`]s.
    fn width(&self) -> usize {
        1
    }

    /// Whether a node's primary component is *strictly* greater than
    /// each child's (true for every built-in except [`GeomCount`]).
    fn strictly_monotone(&self) -> bool {
        true
    }
}

/// Checks a [`CostModel::fingerprint`] against the charset contract:
/// non-empty, no whitespace, none of the field delimiters `;`/`+`/`|`,
/// balanced parentheses, and no `,` outside parentheses. Returns an
/// explanation when the fingerprint is invalid — such a fingerprint
/// could alias two different configs onto one batch cache key.
pub fn validate_fingerprint(fp: &str) -> Result<(), String> {
    if fp.is_empty() {
        return Err("fingerprint must not be empty".into());
    }
    let mut depth = 0usize;
    for c in fp.chars() {
        match c {
            c if c.is_whitespace() => {
                return Err(format!("`{fp}`: fingerprints must not contain whitespace"))
            }
            ';' | '+' | '|' => {
                return Err(format!(
                    "`{fp}`: `{c}` delimits fingerprint fields and may alias cache keys"
                ))
            }
            '(' => depth += 1,
            ')' => {
                depth = depth.checked_sub(1).ok_or_else(|| {
                    format!("`{fp}`: unbalanced `)` makes compositions ambiguous")
                })?;
            }
            ',' if depth == 0 => {
                return Err(format!(
                    "`{fp}`: a top-level `,` makes pareto compositions ambiguous"
                ))
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(format!("`{fp}`: unbalanced `(`"));
    }
    Ok(())
}

/// Adapter running a [`CostModel`] as an [`sz_egraph::CostFunction`],
/// the form the extractors consume.
#[derive(Debug, Clone)]
pub struct ModelCost(pub Arc<dyn CostModel>);

impl CostFunction<CadLang> for ModelCost {
    type Cost = CostVec;
    fn cost(&mut self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        self.0.cost(enode, child_costs)
    }
}

// ---------------------------------------------------------------------------
// Op classes
// ---------------------------------------------------------------------------

/// Coarse operator classes of [`CadLang`], the rows of a
/// [`WeightedCost`] weight table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Loop/λ machinery: `Fold`, `Mapi`, `MapIdx*`, `Repeat`, `Fun`,
    /// `Param`.
    Loop,
    /// Geometry leaves: `Empty`, `Unit`, `Cylinder`, `Sphere`,
    /// `Hexagon`, `External`.
    Geom,
    /// Affine transforms: `Translate`, `Scale`, `Rotate`.
    Affine,
    /// Boolean operations and their fold-operator leaves.
    Bool,
    /// Index arithmetic: `Num`, `Idx`, `Add`, `Sub`, `Mul`, `Div`,
    /// `Sin`, `Cos`.
    Arith,
    /// List structure: `Nil`, `Cons`, `Concat`.
    List,
    /// Everything else (currently only `Vec3`).
    Other,
}

/// All classes, in fingerprint order.
pub const OP_CLASSES: [OpClass; 7] = [
    OpClass::Affine,
    OpClass::Arith,
    OpClass::Bool,
    OpClass::Geom,
    OpClass::List,
    OpClass::Loop,
    OpClass::Other,
];

impl OpClass {
    /// The class of an e-node.
    pub fn of(enode: &CadLang) -> OpClass {
        match enode {
            CadLang::Fold(_)
            | CadLang::Mapi(_)
            | CadLang::MapIdx1(_)
            | CadLang::MapIdx2(_)
            | CadLang::MapIdx3(_)
            | CadLang::Repeat(_)
            | CadLang::Fun(_)
            | CadLang::Param => OpClass::Loop,
            CadLang::Empty
            | CadLang::Unit
            | CadLang::Cylinder
            | CadLang::Sphere
            | CadLang::Hexagon
            | CadLang::External(_) => OpClass::Geom,
            CadLang::Translate(_) | CadLang::Scale(_) | CadLang::Rotate(_) => OpClass::Affine,
            CadLang::Union(_)
            | CadLang::Diff(_)
            | CadLang::Inter(_)
            | CadLang::UnionOp
            | CadLang::DiffOp
            | CadLang::InterOp => OpClass::Bool,
            CadLang::Num(_)
            | CadLang::Idx(_)
            | CadLang::Add(_)
            | CadLang::Sub(_)
            | CadLang::Mul(_)
            | CadLang::Div(_)
            | CadLang::Sin(_)
            | CadLang::Cos(_) => OpClass::Arith,
            CadLang::Nil | CadLang::Cons(_) | CadLang::Concat(_) => OpClass::List,
            CadLang::Vec3(_) => OpClass::Other,
        }
    }

    /// The spec-grammar name of this class (`loop`, `geom`, …).
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Loop => "loop",
            OpClass::Geom => "geom",
            OpClass::Affine => "affine",
            OpClass::Bool => "bool",
            OpClass::Arith => "arith",
            OpClass::List => "list",
            OpClass::Other => "other",
        }
    }

    /// Parses a spec-grammar class name.
    pub fn parse(name: &str) -> Option<OpClass> {
        OP_CLASSES.iter().copied().find(|c| c.name() == name)
    }

    fn index(&self) -> usize {
        OP_CLASSES.iter().position(|c| c == self).expect("listed")
    }
}

/// Sums child primaries plus a node weight (the shape every scalar
/// additive model shares), saturating instead of overflowing.
fn additive(child_costs: &[CostVec], node_weight: u64) -> CostVec {
    let sum = child_costs
        .iter()
        .fold(node_weight, |acc, c| acc.saturating_add(c.primary()));
    CostVec::scalar(sum)
}

/// The `reward-loops` node weight table (paper §6.1): loop scaffolding,
/// lists, index arithmetic, and boolean-operator leaves are nearly free;
/// geometry-carrying nodes cost 10. This is what surfaces the loopy
/// wardrobe variant even though it has more AST nodes than the flat
/// input (Table 1's `@` row).
fn reward_loops_weight(enode: &CadLang) -> u64 {
    match OpClass::of(enode) {
        OpClass::Loop | OpClass::List | OpClass::Arith => 1,
        // The fold-operator *leaves* are scaffolding, the composite
        // boolean nodes carry geometry.
        OpClass::Bool => match enode {
            CadLang::UnionOp | CadLang::DiffOp | CadLang::InterOp => 1,
            _ => 10,
        },
        _ => 10,
    }
}

// ---------------------------------------------------------------------------
// Built-in models
// ---------------------------------------------------------------------------

/// Every node costs 1: minimize AST size (the paper's default).
#[derive(Debug, Clone, Copy, Default)]
pub struct AstSizeCost;

impl CostModel for AstSizeCost {
    fn cost(&self, _enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        additive(child_costs, 1)
    }
    fn fingerprint(&self) -> String {
        "ast-size".to_owned()
    }
}

/// Loop-forming nodes cost 1, geometry-carrying nodes 10, so programs
/// that route geometry through loops win even when nominally larger
/// (the `wardrobe@` scheme).
#[derive(Debug, Clone, Copy, Default)]
pub struct RewardLoopsCost;

impl CostModel for RewardLoopsCost {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        additive(child_costs, reward_loops_weight(enode))
    }
    fn fingerprint(&self) -> String {
        "reward-loops".to_owned()
    }
}

/// Per-[`OpClass`] weight table: each node costs its class weight
/// (default 1), summed over the term. Weights are clamped to ≥ 1 so the
/// model stays strictly monotone (a zero weight would let extraction
/// loop on cyclic e-graphs).
#[derive(Debug, Clone)]
pub struct WeightedCost {
    weights: [u64; OP_CLASSES.len()],
}

impl Default for WeightedCost {
    fn default() -> Self {
        Self::new()
    }
}

impl WeightedCost {
    /// All classes weighted 1 (equivalent to [`AstSizeCost`], but with
    /// its own fingerprint).
    pub fn new() -> Self {
        WeightedCost {
            weights: [1; OP_CLASSES.len()],
        }
    }

    /// Sets one class weight (clamped to ≥ 1).
    pub fn with_weight(mut self, class: OpClass, weight: u64) -> Self {
        self.weights[class.index()] = weight.max(1);
        self
    }

    /// The weight of `class`.
    pub fn weight(&self, class: OpClass) -> u64 {
        self.weights[class.index()]
    }
}

impl CostModel for WeightedCost {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        additive(child_costs, self.weight(OpClass::of(enode)))
    }
    fn fingerprint(&self) -> String {
        let entries: Vec<String> = OP_CLASSES
            .iter()
            .filter(|c| self.weight(**c) != 1)
            .map(|c| format!("{}={}", c.name(), self.weight(*c)))
            .collect();
        format!("weights({})", entries.join(","))
    }
}

/// Cost = depth of the term (strictly monotone: `max(children) + 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DepthCost;

impl CostModel for DepthCost {
    fn cost(&self, _enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        let max = child_costs.iter().map(CostVec::primary).max().unwrap_or(0);
        CostVec::scalar(max.saturating_add(1))
    }
    fn fingerprint(&self) -> String {
        "depth".to_owned()
    }
}

/// Cost = number of geometry-carrying nodes ([`OpClass::Geom`],
/// [`OpClass::Affine`], composite [`OpClass::Bool`]); loop scaffolding,
/// lists, and arithmetic are free.
///
/// **Not strictly monotone** (free nodes keep the cost flat), so it is
/// only safe as the *secondary* objective of a Pareto extraction — the
/// spec parser rejects it anywhere termination depends on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeomCount;

impl CostModel for GeomCount {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        let weight = match OpClass::of(enode) {
            OpClass::Geom | OpClass::Affine => 1,
            OpClass::Bool => match enode {
                CadLang::UnionOp | CadLang::DiffOp | CadLang::InterOp => 0,
                _ => 1,
            },
            _ => 0,
        };
        additive(child_costs, weight)
    }
    fn fingerprint(&self) -> String {
        "geom".to_owned()
    }
    fn strictly_monotone(&self) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Combinators
// ---------------------------------------------------------------------------

/// `inner + weight × depth`: penalizes deep terms on top of any base
/// model. Components: `[total, inner…, depth]`, so ordering is by the
/// combined total and parents can recompute both halves.
#[derive(Debug, Clone)]
pub struct DepthPenalty {
    inner: Arc<dyn CostModel>,
    weight: u64,
}

impl DepthPenalty {
    /// Wraps `inner`, adding `weight` (clamped to ≥ 1) per level of
    /// depth.
    pub fn new(inner: Arc<dyn CostModel>, weight: u64) -> Self {
        DepthPenalty {
            inner,
            weight: weight.max(1),
        }
    }
}

impl CostModel for DepthPenalty {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        let w = self.inner.width();
        let inner_children: Vec<CostVec> = child_costs
            .iter()
            .map(|c| CostVec::from_components(c.components()[1..1 + w].to_vec()))
            .collect();
        let inner = self.inner.cost(enode, &inner_children);
        let depth = child_costs
            .iter()
            .map(|c| *c.components().last().expect("non-empty cost"))
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let total = inner
            .primary()
            .saturating_add(self.weight.saturating_mul(depth));
        let mut components = Vec::with_capacity(self.width());
        components.push(total);
        components.extend_from_slice(inner.components());
        components.push(depth);
        CostVec::from_components(components)
    }
    fn fingerprint(&self) -> String {
        format!(
            "depth-penalty({},{})",
            self.inner.fingerprint(),
            self.weight
        )
    }
    fn width(&self) -> usize {
        self.inner.width() + 2
    }
    // Strict regardless of the inner model: depth alone strictly
    // increases and weight ≥ 1.
}

/// Orders by model `a`, breaking ties with model `b` (components are
/// `a`'s followed by `b`'s, compared lexicographically).
#[derive(Debug, Clone)]
pub struct Lexicographic {
    a: Arc<dyn CostModel>,
    b: Arc<dyn CostModel>,
}

impl Lexicographic {
    /// Primary objective `a`, tie-break `b`. At least one side must be
    /// strictly monotone for top-level extraction to terminate.
    pub fn new(a: Arc<dyn CostModel>, b: Arc<dyn CostModel>) -> Self {
        Lexicographic { a, b }
    }
}

impl CostModel for Lexicographic {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        let wa = self.a.width();
        let a_children: Vec<CostVec> = child_costs
            .iter()
            .map(|c| CostVec::from_components(c.components()[..wa].to_vec()))
            .collect();
        let b_children: Vec<CostVec> = child_costs
            .iter()
            .map(|c| CostVec::from_components(c.components()[wa..].to_vec()))
            .collect();
        let mut components = self.a.cost(enode, &a_children).components().to_vec();
        components.extend_from_slice(self.b.cost(enode, &b_children).components());
        CostVec::from_components(components)
    }
    fn fingerprint(&self) -> String {
        format!("lex({},{})", self.a.fingerprint(), self.b.fingerprint())
    }
    fn width(&self) -> usize {
        self.a.width() + self.b.width()
    }
    fn strictly_monotone(&self) -> bool {
        // Non-decreasing components + one strict level make the
        // lexicographic key strictly grow.
        self.a.strictly_monotone() || self.b.strictly_monotone()
    }
}

/// `wa·a + wb·b`: a scalarized two-objective blend. Components:
/// `[total, a…, b…]` (ordering by total, sub-components carried for
/// parent folds).
#[derive(Debug, Clone)]
pub struct WeightedSum {
    a: Arc<dyn CostModel>,
    b: Arc<dyn CostModel>,
    wa: u64,
    wb: u64,
}

impl WeightedSum {
    /// Blends `wa·a + wb·b` (weights clamped to ≥ 1). At least one side
    /// must be strictly monotone.
    pub fn new(a: Arc<dyn CostModel>, wa: u64, b: Arc<dyn CostModel>, wb: u64) -> Self {
        WeightedSum {
            a,
            b,
            wa: wa.max(1),
            wb: wb.max(1),
        }
    }
}

impl CostModel for WeightedSum {
    fn cost(&self, enode: &CadLang, child_costs: &[CostVec]) -> CostVec {
        let wa = self.a.width();
        let a_children: Vec<CostVec> = child_costs
            .iter()
            .map(|c| CostVec::from_components(c.components()[1..1 + wa].to_vec()))
            .collect();
        let b_children: Vec<CostVec> = child_costs
            .iter()
            .map(|c| CostVec::from_components(c.components()[1 + wa..].to_vec()))
            .collect();
        let a = self.a.cost(enode, &a_children);
        let b = self.b.cost(enode, &b_children);
        let total = self
            .wa
            .saturating_mul(a.primary())
            .saturating_add(self.wb.saturating_mul(b.primary()));
        let mut components = Vec::with_capacity(self.width());
        components.push(total);
        components.extend_from_slice(a.components());
        components.extend_from_slice(b.components());
        CostVec::from_components(components)
    }
    fn fingerprint(&self) -> String {
        format!(
            "sum({},{},{},{})",
            self.a.fingerprint(),
            self.b.fingerprint(),
            self.wa,
            self.wb
        )
    }
    fn width(&self) -> usize {
        1 + self.a.width() + self.b.width()
    }
    fn strictly_monotone(&self) -> bool {
        self.a.strictly_monotone() || self.b.strictly_monotone()
    }
}

// ---------------------------------------------------------------------------
// The `--cost` mini-spec grammar
// ---------------------------------------------------------------------------

/// A parsed `--cost` spec: either one model (ranked top-k extraction)
/// or a two-objective Pareto request.
#[derive(Debug, Clone)]
pub enum CostSpec {
    /// Rank by one model.
    Single(Arc<dyn CostModel>),
    /// Extract the Pareto front under two models (the first must be
    /// strictly monotone).
    Pareto(Arc<dyn CostModel>, Arc<dyn CostModel>),
}

/// A malformed `--cost` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostSpecError(String);

impl fmt::Display for CostSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad cost spec: {}", self.0)
    }
}

impl std::error::Error for CostSpecError {}

/// The grammar accepted by [`parse_cost_spec`], verbatim in
/// `szb --help`.
pub const COST_SPEC_GRAMMAR: &str = "\
SPEC := ast-size | size            every node costs 1 (the default)
      | reward-loops               loop nodes 1, geometry nodes 10 (wardrobe@)
      | depth                      term depth
      | weights(CLASS=W,...)       per-op-class weights (unlisted classes 1);
                                   CLASS := loop|geom|affine|bool|arith|list|other
      | depth-penalty(SPEC[,W])    SPEC + W x depth       (default W = 1)
      | lex(SPEC,SPEC)             order by the first, tie-break with the second
      | sum(SPEC,SPEC[,WA,WB])     WA x first + WB x second (default 1,1)
--cost also accepts, at the top level only:
        pareto(SPEC,SPEC)          deterministic Pareto front under two
                                   objectives; the second may be `geom`
                                   (geometry-node count)";

/// Splits `s` on top-level commas (commas inside nested parens stay).
fn split_args(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(s[start..].trim());
    parts
}

/// Splits `head(args)` into `(head, Some(args))`, or returns
/// `(s, None)` for a bare atom.
fn split_call(s: &str) -> Result<(&str, Option<&str>), CostSpecError> {
    match s.find('(') {
        None => Ok((s, None)),
        Some(open) => {
            let inner = s[open + 1..]
                .strip_suffix(')')
                .ok_or_else(|| CostSpecError(format!("`{s}`: missing closing `)`")))?;
            Ok((s[..open].trim(), Some(inner)))
        }
    }
}

fn err(msg: impl Into<String>) -> CostSpecError {
    CostSpecError(msg.into())
}

/// Parses a combinator weight: a positive integer. Zero is rejected
/// explicitly (instead of letting the constructors clamp it to 1) so
/// the spec grammar never silently changes requested semantics — the
/// same policy `weights(CLASS=0)` follows.
fn parse_weight(w: &str) -> Result<u64, CostSpecError> {
    let w = w.trim();
    let value: u64 = w
        .parse()
        .map_err(|_| err(format!("`{w}`: weight must be an integer")))?;
    if value == 0 {
        return Err(err(format!(
            "`{w}`: weight 0 would drop an objective (and can break \
             extraction termination); use a weight of at least 1"
        )));
    }
    Ok(value)
}

/// Parses one model spec (no `pareto(...)` at this level).
pub fn parse_cost_model(spec: &str) -> Result<Arc<dyn CostModel>, CostSpecError> {
    let spec = spec.trim();
    let (head, args) = split_call(spec)?;
    match (head, args) {
        ("ast-size" | "size", None) => Ok(Arc::new(AstSizeCost)),
        ("reward-loops", None) => Ok(Arc::new(RewardLoopsCost)),
        ("depth", None) => Ok(Arc::new(DepthCost)),
        ("geom", None) => Ok(Arc::new(GeomCount)),
        ("weights", Some(args)) => {
            let mut model = WeightedCost::new();
            if !args.trim().is_empty() {
                for part in split_args(args) {
                    let (class, weight) = part
                        .split_once('=')
                        .ok_or_else(|| err(format!("`{part}`: expected CLASS=WEIGHT")))?;
                    let class = OpClass::parse(class.trim()).ok_or_else(|| {
                        err(format!(
                            "`{}`: unknown op class (expected loop|geom|affine|bool|arith|list|other)",
                            class.trim()
                        ))
                    })?;
                    let weight: u64 = weight.trim().parse().map_err(|_| {
                        err(format!("`{}`: weight must be an integer", weight.trim()))
                    })?;
                    if weight == 0 {
                        return Err(err(format!(
                            "`{part}`: weight 0 breaks extraction termination (minimum 1)"
                        )));
                    }
                    model = model.with_weight(class, weight);
                }
            }
            Ok(Arc::new(model))
        }
        ("depth-penalty", Some(args)) => {
            let parts = split_args(args);
            match parts.as_slice() {
                [inner] => Ok(Arc::new(DepthPenalty::new(parse_cost_model(inner)?, 1))),
                [inner, w] => {
                    let w = parse_weight(w)?;
                    Ok(Arc::new(DepthPenalty::new(parse_cost_model(inner)?, w)))
                }
                _ => Err(err("depth-penalty takes (SPEC) or (SPEC,W)")),
            }
        }
        ("lex", Some(args)) => {
            let parts = split_args(args);
            let [a, b] = parts.as_slice() else {
                return Err(err("lex takes exactly (SPEC,SPEC)"));
            };
            Ok(Arc::new(Lexicographic::new(
                parse_cost_model(a)?,
                parse_cost_model(b)?,
            )))
        }
        ("sum", Some(args)) => {
            let parts = split_args(args);
            let (a, b, wa, wb) = match parts.as_slice() {
                [a, b] => (*a, *b, 1, 1),
                [a, b, wa, wb] => (*a, *b, parse_weight(wa)?, parse_weight(wb)?),
                _ => return Err(err("sum takes (SPEC,SPEC) or (SPEC,SPEC,WA,WB)")),
            };
            Ok(Arc::new(WeightedSum::new(
                parse_cost_model(a)?,
                wa,
                parse_cost_model(b)?,
                wb,
            )))
        }
        ("pareto", _) => Err(err(
            "pareto(...) is only allowed at the top level of --cost",
        )),
        _ => Err(err(format!(
            "`{spec}`: unknown cost spec (see the --cost grammar in --help)"
        ))),
    }
}

/// Parses a full `--cost` spec: a model, or a top-level
/// `pareto(SPEC,SPEC)`. Rejects specs whose termination guarantee is
/// broken (a non-strictly-monotone model anywhere ranking depends on
/// it, e.g. bare `geom`).
pub fn parse_cost_spec(spec: &str) -> Result<CostSpec, CostSpecError> {
    let spec = spec.trim();
    let (head, args) = split_call(spec)?;
    if head == "pareto" {
        let args = args.ok_or_else(|| err("pareto takes (SPEC,SPEC)"))?;
        let parts = split_args(args);
        let [a, b] = parts.as_slice() else {
            return Err(err("pareto takes exactly (SPEC,SPEC)"));
        };
        let a = parse_cost_model(a)?;
        let b = parse_cost_model(b)?;
        if !a.strictly_monotone() {
            return Err(err(format!(
                "`{}`: the first pareto objective must be strictly monotone \
                 (put `geom` second)",
                a.fingerprint()
            )));
        }
        return Ok(CostSpec::Pareto(a, b));
    }
    let model = parse_cost_model(spec)?;
    if !model.strictly_monotone() {
        return Err(err(format!(
            "`{}`: not strictly monotone — extraction could loop; use it as the \
             second objective of pareto(...) instead",
            model.fingerprint()
        )));
    }
    Ok(CostSpec::Single(model))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CadAnalysis;
    use sz_egraph::{EGraph, Extractor, KBestExtractor, Language, RecExpr};

    fn best_model(input_variants: &[&str], model: Arc<dyn CostModel>) -> String {
        let mut eg: EGraph<CadLang, CadAnalysis> = EGraph::new(CadAnalysis);
        let ids: Vec<_> = input_variants
            .iter()
            .map(|s| eg.add_expr(&s.parse::<RecExpr<CadLang>>().unwrap()))
            .collect();
        for w in ids.windows(2) {
            eg.union(w[0], w[1]);
        }
        eg.rebuild();
        let ex = Extractor::new(&eg, ModelCost(model));
        let (_, e) = ex.find_best(ids[0]);
        crate::lang_to_cad(&e).unwrap().to_string()
    }

    fn cost_of(term: &str, model: &dyn CostModel) -> CostVec {
        let expr: RecExpr<CadLang> = term.parse().unwrap();
        let nodes = expr.as_slice();
        let mut costs: Vec<CostVec> = Vec::with_capacity(nodes.len());
        for node in nodes {
            let children: Vec<CostVec> = node
                .children()
                .iter()
                .map(|&c| costs[usize::from(c)].clone())
                .collect();
            costs.push(model.cost(node, &children));
        }
        costs.last().unwrap().clone()
    }

    const FLAT: &str = "(Union (Translate (Vec3 2 0 0) Unit) (Union (Translate (Vec3 4 0 0) Unit) (Translate (Vec3 6 0 0) Unit)))";
    const LOOPY: &str =
        "(Fold UnionOp Empty (Mapi (Fun (Translate (Vec3 (* 2 (+ i 1)) 0 0) c)) (Repeat Unit 3)))";

    #[test]
    fn ast_size_prefers_smaller() {
        // The loop program is smaller here, so both schemes pick it.
        assert!(best_model(&[FLAT, LOOPY], Arc::new(AstSizeCost)).contains("Mapi"));
    }

    #[test]
    fn reward_loops_prefers_loops_even_when_bigger() {
        // Two elements only: the flat form (13 nodes) is smaller than the
        // loop form (15 nodes), so AstSize keeps it flat…
        let flat2 = "(Union (Translate (Vec3 2 0 0) Unit) (Translate (Vec3 4 0 0) Unit))";
        let loopy2 = "(Fold UnionOp Empty (Mapi (Fun (Translate (Vec3 (* 2 (+ i 1)) 0 0) c)) (Repeat Unit 2)))";
        assert!(!best_model(&[flat2, loopy2], Arc::new(AstSizeCost)).contains("Mapi"));
        // …while reward-loops switches to the loop form (the wardrobe@
        // behaviour of Table 1).
        assert!(best_model(&[flat2, loopy2], Arc::new(RewardLoopsCost)).contains("Mapi"));
    }

    #[test]
    fn weighted_cost_reproduces_reward_loops_choice() {
        // A weight table that punishes geometry/affine/bool nodes makes
        // the same call reward-loops does on the two-element row.
        let flat2 = "(Union (Translate (Vec3 2 0 0) Unit) (Translate (Vec3 4 0 0) Unit))";
        let loopy2 = "(Fold UnionOp Empty (Mapi (Fun (Translate (Vec3 (* 2 (+ i 1)) 0 0) c)) (Repeat Unit 2)))";
        let weighted: Arc<dyn CostModel> = Arc::new(
            WeightedCost::new()
                .with_weight(OpClass::Geom, 10)
                .with_weight(OpClass::Affine, 10)
                .with_weight(OpClass::Other, 10),
        );
        assert!(best_model(&[flat2, loopy2], weighted).contains("Mapi"));
        // All-ones weights agree with plain AST size.
        let ones: Arc<dyn CostModel> = Arc::new(WeightedCost::new());
        assert!(!best_model(&[flat2, loopy2], ones).contains("Mapi"));
    }

    #[test]
    fn model_costs_match_legacy_cadcost() {
        // The models must agree node-for-node with the paper's original
        // per-node rule, summed over children as `usize` (the
        // byte-identical default guarantee): every node costs 1 under
        // AST size, and `reward_loops_weight` under reward-loops.
        type NodeCost = fn(&CadLang) -> usize;
        let legacy_rules: [(Arc<dyn CostModel>, NodeCost); 2] = [
            (Arc::new(AstSizeCost), |_| 1),
            (Arc::new(RewardLoopsCost), |node| {
                reward_loops_weight(node) as usize
            }),
        ];
        for term in [FLAT, LOOPY] {
            for (model, node_cost) in &legacy_rules {
                let expr: RecExpr<CadLang> = term.parse().unwrap();
                let mut legacy_costs: Vec<usize> = Vec::new();
                for node in expr.as_slice() {
                    let children: usize = node
                        .children()
                        .iter()
                        .map(|&c| legacy_costs[usize::from(c)])
                        .sum();
                    legacy_costs.push(children + node_cost(node));
                }
                assert_eq!(
                    cost_of(term, model.as_ref()).primary(),
                    *legacy_costs.last().unwrap() as u64,
                    "{} over {term}",
                    model.fingerprint()
                );
            }
        }
    }

    #[test]
    fn depth_and_penalty_combinators() {
        let depth = cost_of(FLAT, &DepthCost);
        assert_eq!(depth.primary(), 5); // Union→Union→Translate→Vec3→leaf
        let penalty = DepthPenalty::new(Arc::new(AstSizeCost), 2);
        let c = cost_of(FLAT, &penalty);
        // total = size + 2·depth; size of FLAT is 20 nodes.
        assert_eq!(cost_of(FLAT, &AstSizeCost).primary(), 20);
        assert_eq!(c.primary(), 20 + 2 * 5);
        assert_eq!(c.components().len(), penalty.width());
        assert_eq!(*c.components().last().unwrap(), 5);
    }

    #[test]
    fn lexicographic_orders_by_first_then_second() {
        let lex = Lexicographic::new(Arc::new(DepthCost), Arc::new(AstSizeCost));
        let c = cost_of(FLAT, &lex);
        assert_eq!(c.components(), &[5, 20]);
        assert_eq!(lex.width(), 2);
        assert!(lex.strictly_monotone());
    }

    #[test]
    fn weighted_sum_blends_objectives() {
        let sum = WeightedSum::new(Arc::new(AstSizeCost), 1, Arc::new(DepthCost), 10);
        let c = cost_of(FLAT, &sum);
        assert_eq!(c.components(), &[20 + 10 * 5, 20, 5]);
        assert!(sum.strictly_monotone());
    }

    #[test]
    fn geom_count_counts_geometry_only() {
        // FLAT: 3 Unit + 3 Translate + 2 Union = 8; Vec3/Num are free.
        assert_eq!(cost_of(FLAT, &GeomCount).primary(), 8);
        // LOOPY routes one Unit through one Translate under a Fold
        // seeded with Empty: the loop scaffolding itself is free.
        assert_eq!(cost_of(LOOPY, &GeomCount).primary(), 3);
        assert!(!GeomCount.strictly_monotone());
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let models: Vec<Arc<dyn CostModel>> = vec![
            Arc::new(AstSizeCost),
            Arc::new(RewardLoopsCost),
            Arc::new(DepthCost),
            Arc::new(GeomCount),
            Arc::new(WeightedCost::new()),
            Arc::new(WeightedCost::new().with_weight(OpClass::Geom, 10)),
            Arc::new(DepthPenalty::new(Arc::new(AstSizeCost), 2)),
            Arc::new(Lexicographic::new(
                Arc::new(AstSizeCost),
                Arc::new(DepthCost),
            )),
            Arc::new(WeightedSum::new(
                Arc::new(AstSizeCost),
                1,
                Arc::new(DepthCost),
                10,
            )),
        ];
        let fps: Vec<String> = models.iter().map(|m| m.fingerprint()).collect();
        for (i, a) in fps.iter().enumerate() {
            assert!(!a.contains(char::is_whitespace), "{a}");
            for (j, b) in fps.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
        assert_eq!(fps[0], "ast-size");
        assert_eq!(fps[5], "weights(geom=10)");
        assert_eq!(fps[6], "depth-penalty(ast-size,2)");
    }

    #[test]
    fn spec_parser_roundtrips_the_grammar() {
        for (spec, fp) in [
            ("ast-size", "ast-size"),
            ("size", "ast-size"),
            ("reward-loops", "reward-loops"),
            ("depth", "depth"),
            ("weights(loop=1,geom=10)", "weights(geom=10)"),
            ("weights()", "weights()"),
            ("depth-penalty(ast-size,3)", "depth-penalty(ast-size,3)"),
            ("depth-penalty(size)", "depth-penalty(ast-size,1)"),
            ("lex(size,depth)", "lex(ast-size,depth)"),
            ("sum(size,depth,1,10)", "sum(ast-size,depth,1,10)"),
            ("sum(size,depth)", "sum(ast-size,depth,1,1)"),
            ("lex(weights(geom=5),depth)", "lex(weights(geom=5),depth)"),
        ] {
            match parse_cost_spec(spec) {
                Ok(CostSpec::Single(m)) => assert_eq!(m.fingerprint(), fp, "{spec}"),
                other => panic!("{spec}: {other:?}"),
            }
        }
        match parse_cost_spec("pareto(size,depth)") {
            Ok(CostSpec::Pareto(a, b)) => {
                assert_eq!(a.fingerprint(), "ast-size");
                assert_eq!(b.fingerprint(), "depth");
            }
            other => panic!("{other:?}"),
        }
        match parse_cost_spec("pareto(size, geom)") {
            Ok(CostSpec::Pareto(_, b)) => assert_eq!(b.fingerprint(), "geom"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn spec_parser_rejects_bad_specs() {
        for bad in [
            "unknown",
            "weights(geom)",
            "weights(geometry=2)",
            "weights(geom=0)",
            "weights(geom=x)",
            "lex(size)",
            "sum(size)",
            "pareto(size)",
            "pareto(geom,size)", // non-monotone first objective
            "geom",              // non-monotone ranking model
            "lex(geom,geom)",
            "depth-penalty(size", // missing paren
            "pareto(pareto(size,depth),depth)",
            // Zero combinator weights are rejected (not silently
            // clamped): honoring them would drop an objective and can
            // break termination.
            "sum(size,geom,0,5)",
            "sum(size,depth,1,0)",
            "depth-penalty(size,0)",
        ] {
            assert!(parse_cost_spec(bad).is_err(), "{bad} should be rejected");
        }
        let err = parse_cost_spec("geom").unwrap_err();
        assert!(err.to_string().contains("pareto"), "{err}");
        let err = parse_cost_spec("sum(size,geom,0,5)").unwrap_err();
        assert!(err.to_string().contains("weight 0"), "{err}");
    }

    #[test]
    fn fingerprint_charset_is_validated() {
        for fp in [
            "ast-size",
            "weights(geom=10,loop=2)",
            "depth-penalty(ast-size,2)",
            "sum(ast-size,depth,1,10)",
        ] {
            assert!(validate_fingerprint(fp).is_ok(), "{fp}");
        }
        for bad in [
            "",
            "has space",
            "a;k=2",     // field delimiter: could alias cache keys
            "m+pareto(", // composition delimiter + unbalanced paren
            "a|b",
            "a,b", // top-level comma: ambiguous inside pareto(...)
            "f(a))",
        ] {
            assert!(validate_fingerprint(bad).is_err(), "{bad:?}");
        }
        // Every built-in fingerprint obeys the contract.
        for model in [
            Arc::new(AstSizeCost) as Arc<dyn CostModel>,
            Arc::new(RewardLoopsCost),
            Arc::new(WeightedCost::new().with_weight(OpClass::Geom, 10)),
            Arc::new(DepthPenalty::new(Arc::new(AstSizeCost), 2)),
            Arc::new(Lexicographic::new(
                Arc::new(DepthCost),
                Arc::new(AstSizeCost),
            )),
            Arc::new(WeightedSum::new(
                Arc::new(AstSizeCost),
                1,
                Arc::new(DepthCost),
                5,
            )),
            Arc::new(GeomCount),
        ] {
            assert!(validate_fingerprint(&model.fingerprint()).is_ok());
        }
    }

    #[test]
    fn kbest_under_models_is_sorted() {
        let mut eg: EGraph<CadLang, CadAnalysis> = EGraph::new(CadAnalysis);
        let a = eg.add_expr(&FLAT.parse::<RecExpr<CadLang>>().unwrap());
        let b = eg.add_expr(&LOOPY.parse::<RecExpr<CadLang>>().unwrap());
        eg.union(a, b);
        eg.rebuild();
        for model in [
            Arc::new(AstSizeCost) as Arc<dyn CostModel>,
            Arc::new(RewardLoopsCost),
            Arc::new(DepthPenalty::new(Arc::new(AstSizeCost), 1)),
        ] {
            let kb = KBestExtractor::new(&eg, ModelCost(model), 4);
            let results = kb.find_best_k(a);
            assert!(!results.is_empty());
            for w in results.windows(2) {
                assert!(w[0].0 <= w[1].0);
            }
        }
    }
}
