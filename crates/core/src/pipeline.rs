//! The Szalinski pipeline types (paper Fig. 5): configuration, results,
//! snapshots, and errors. The pipeline itself runs behind
//! [`Synthesizer::run`](crate::Synthesizer::run) (see [`crate::session`]).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use sz_cad::Cad;
use sz_egraph::{
    escape_token, unescape_token, GraphView, Id, KBestExtractor, ParetoExtractor, RecExpr,
    RuleStat, Snapshot, SnapshotParseError, StopReason,
};
use sz_trace::Telemetry;

use crate::cost::{AstSizeCost, CostModel, ModelCost};
use crate::funcinfer::InferenceRecord;
use crate::lang::{lang_to_cad, CadLang};
use crate::report::{has_structure, TableRow};

/// Configuration ("fuel") for one synthesis run: the only input besides
/// the flat CAD that decides a non-cancelled result. How a run executes
/// (snapshot offer, capture, deadline, cancellation, progress, telemetry)
/// is [`RunOptions`](crate::RunOptions)' business and never changes it.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Noise tolerance for the arithmetic solvers (the paper's ε).
    pub eps: f64,
    /// How many programs to return (the paper uses k = 5).
    pub k: usize,
    /// Saturation iteration limit.
    pub iter_limit: usize,
    /// E-node limit for saturation.
    pub node_limit: usize,
    /// Include the explosive structural boolean rules
    /// (commutativity/associativity); off by default.
    pub structural_rules: bool,
    /// Throttle explosive rules with the e-graph's backoff scheduler
    /// ([`Scheduler::backoff`](sz_egraph::Scheduler::backoff)); off by
    /// default so results match the paper's unthrottled saturation
    /// exactly.
    pub backoff: bool,
    /// Extraction cost model (an **extraction-only** field: it feeds
    /// [`SynthConfig::fingerprint`] via [`CostModel::fingerprint`] but
    /// never the saturation fingerprint, so swapping models reuses
    /// snapshots).
    pub cost_model: Arc<dyn CostModel>,
    /// When set, extraction additionally computes the deterministic
    /// Pareto front under these two cost models (surfaced in
    /// [`Synthesis::pareto`]). Extraction-only, like `cost_model`.
    pub pareto: Option<[Arc<dyn CostModel>; 2]>,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            eps: 1e-3,
            k: 5,
            iter_limit: 150,
            node_limit: 200_000,
            structural_rules: false,
            backoff: false,
            cost_model: Arc::new(AstSizeCost),
            pareto: None,
        }
    }
}

impl SynthConfig {
    /// Default configuration (ε = 10⁻³, k = 5, AST-size cost).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the solver tolerance. ε must be finite and at least 0: an
    /// infinite ε accepts any fit, so inference emits loops that do not
    /// denote the input, and a NaN or negative ε accepts none, so
    /// inference finds nothing (`szb --eps` rejects all three as a usage
    /// error).
    pub fn with_eps(mut self, eps: f64) -> Self {
        self.eps = eps;
        self
    }

    /// Sets k for top-k extraction. k must be at least 1: extraction
    /// panics on k = 0 (`szb --k 0` is rejected as a usage error).
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the extraction cost model (see [`CostModel`] for the
    /// contract; built-ins and combinators live in [`crate::cost`]).
    ///
    /// # Panics
    ///
    /// Debug builds panic if the model's fingerprint violates the
    /// charset contract (see [`crate::cost::validate_fingerprint`]) —
    /// a delimiter inside a fingerprint could alias two different
    /// configs onto one batch cache key.
    pub fn with_cost_model(mut self, model: Arc<dyn CostModel>) -> Self {
        debug_assert_fingerprint(model.as_ref());
        self.cost_model = model;
        self
    }

    /// Requests Pareto-front extraction under two cost models alongside
    /// the ranked top-k (the front lands in [`Synthesis::pareto`]). The
    /// first model must be strictly monotone; the second may be a
    /// plateauing measure such as [`crate::cost::GeomCount`].
    ///
    /// # Panics
    ///
    /// Debug builds panic on fingerprint-contract violations (as for
    /// [`SynthConfig::with_cost_model`]) and when the first model is not
    /// strictly monotone — the same requirement `parse_cost_spec`
    /// rejects for the CLI, since a plateauing first objective breaks
    /// the Pareto extractor's cycle-pruning argument.
    pub fn with_pareto(mut self, a: Arc<dyn CostModel>, b: Arc<dyn CostModel>) -> Self {
        debug_assert_fingerprint(a.as_ref());
        debug_assert_fingerprint(b.as_ref());
        debug_assert!(
            a.strictly_monotone(),
            "the first pareto objective must be strictly monotone \
             (put plateauing measures like GeomCount second)"
        );
        self.pareto = Some([a, b]);
        self
    }

    /// Enables/disables the structural boolean rules.
    pub fn with_structural_rules(mut self, on: bool) -> Self {
        self.structural_rules = on;
        self
    }

    /// Sets the saturation iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    /// Sets the saturation node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Enables/disables backoff rule scheduling during saturation.
    pub fn with_backoff(mut self, on: bool) -> Self {
        self.backoff = on;
        self
    }

    /// A stable, human-readable fingerprint of every fuel/config field.
    ///
    /// Used (together with the input s-expression) as the key of the
    /// batch engine's content-addressed result cache, so it must change
    /// whenever any field that can affect synthesis output changes.
    /// Built as [`SynthConfig::saturation_fingerprint`] plus the
    /// extraction-only fields, so the two keys can never drift apart: a
    /// field added to the saturation half automatically reaches both.
    pub fn fingerprint(&self) -> String {
        format!(
            "{};k={};cost={}",
            self.saturation_fingerprint(),
            self.k,
            self.cost_fingerprint(),
        )
    }

    /// The extraction **cost** half of the fingerprint: the configured
    /// [`CostModel::fingerprint`], plus the Pareto objectives when
    /// [`SynthConfig::with_pareto`] is set. Recorded per job in the
    /// batch JSONL report, and the piece of [`SynthConfig::fingerprint`]
    /// that changes — while the saturation fingerprint does **not** —
    /// when only the cost model is swapped (which is why cost-only
    /// changes still hit the snapshot tier).
    pub fn cost_fingerprint(&self) -> String {
        match &self.pareto {
            None => self.cost_model.fingerprint(),
            Some([a, b]) => format!(
                "{}+pareto({},{})",
                self.cost_model.fingerprint(),
                a.fingerprint(),
                b.fingerprint()
            ),
        }
    }

    /// The **saturation** half of [`SynthConfig::fingerprint`]: only the
    /// fields that shape the saturated e-graph (solver tolerance,
    /// iteration and node limits, rule set, scheduling). Extraction-only
    /// fields — `k` and `cost` — are deliberately excluded.
    ///
    /// This split is what makes e-graph snapshots reusable across
    /// extraction-only config changes: two configs with equal saturation
    /// fingerprints produce the same saturated graph for a given input,
    /// so a cost- or k-only change can resume from a stored snapshot
    /// (see [`Synthesizer::run`](crate::Synthesizer::run)) instead of
    /// re-saturating, while any rule-set or fuel change invalidates it.
    pub fn saturation_fingerprint(&self) -> String {
        // `time_ms=60000` (the retired saturation time limit's old
        // default) and `fuel=1` (the retired main-loop round count) are
        // literal text: stored cache keys, `satphase` headers and the
        // golden snapshot fixtures all carry them, so dropping either
        // waits for the next snapshot-format bump.
        format!(
            "snapv{};eps={:e};iter={};nodes={};time_ms=60000;fuel=1;structural={};backoff={}",
            sz_egraph::SNAPSHOT_FORMAT_VERSION,
            self.eps,
            self.iter_limit,
            self.node_limit,
            self.structural_rules,
            self.backoff,
        )
    }

    /// The saturation fingerprint **modulo fuel limits**: every field of
    /// [`SynthConfig::saturation_fingerprint`] except `iter`/`nodes` (and
    /// the literal `time_ms` token).
    ///
    /// Two configs with equal core fingerprints explore the *same
    /// saturation trajectory* — they differ only in where along it they
    /// stop. That is what makes **partial-saturation resume** sound: a
    /// snapshot taken under lower fuel limits sits on the trajectory of
    /// any higher-fuel run with the same core, so
    /// [`Synthesizer::run`](crate::Synthesizer::run) can continue
    /// saturating from it instead of starting cold (see
    /// [`SynthSnapshot::supports_partial_resume`]).
    pub fn saturation_core_fingerprint(&self) -> String {
        // `fuel=1`: literal text, see `saturation_fingerprint`.
        format!(
            "snapv{};eps={:e};fuel=1;structural={};backoff={}",
            sz_egraph::SNAPSHOT_FORMAT_VERSION,
            self.eps,
            self.structural_rules,
            self.backoff,
        )
    }
}

/// Debug-build enforcement of the [`CostModel::fingerprint`] charset
/// contract at the config boundary (the earliest point a user model
/// enters the pipeline).
fn debug_assert_fingerprint(model: &dyn CostModel) {
    if cfg!(debug_assertions) {
        if let Err(why) = crate::cost::validate_fingerprint(&model.fingerprint()) {
            panic!("invalid CostModel fingerprint: {why}");
        }
    }
}

/// Why [`Synthesizer::run`](crate::Synthesizer::run) rejected a run (or
/// [`Synthesizer::try_new`](crate::Synthesizer::try_new) a rule set).
///
/// # Examples
///
/// ```
/// use szalinski::{RunOptions, SynthConfig, SynthError, Synthesizer};
/// use sz_cad::Cad;
///
/// // A LambdaCAD term (not flat) is rejected, not mis-synthesized.
/// let looped: Cad = "(Repeat Unit 3)".parse().unwrap();
/// let session = Synthesizer::new(SynthConfig::new());
/// assert!(matches!(
///     session.run(&looped, RunOptions::new()),
///     Err(SynthError::NotFlat)
/// ));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The input is not a flat CSG (contains loops, lists, index
    /// variables, or non-constant vectors), so the paper's pipeline
    /// contract does not apply.
    NotFlat,
    /// Extraction produced no program (cannot happen for well-formed
    /// inputs; reported instead of panicking for defense in depth).
    NoPrograms,
    /// The rule set failed static analysis at compile time: the lint
    /// report carries at least one deny-level finding (e.g. `SZL001`, an
    /// RHS variable the LHS never binds — applying such a rule panics
    /// mid-saturation). Raised by [`Synthesizer::try_new`]; the built-in
    /// rule sets are lint-clean, so [`Synthesizer::new`] never sees it.
    ///
    /// [`Synthesizer::try_new`]: crate::Synthesizer::try_new
    /// [`Synthesizer::new`]: crate::Synthesizer::new
    RuleLint(Arc<sz_lint::Report>),
    /// The input nests more than `limit` levels deep. Every stage of a
    /// job walks the term recursively, so such an input could overflow a
    /// worker's stack; the batch engine refuses it before any walk.
    TooDeep {
        /// The deepest nesting a job takes, in levels below the root.
        limit: usize,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::NotFlat => {
                write!(f, "input is not a flat CSG (see Cad::is_flat_csg)")
            }
            SynthError::NoPrograms => write!(f, "extraction produced no programs"),
            SynthError::RuleLint(report) => {
                write!(
                    f,
                    "rule set failed static analysis ({} deny finding{}):",
                    report.deny_count(),
                    if report.deny_count() == 1 { "" } else { "s" },
                )?;
                for d in report.with_severity(sz_lint::Severity::Deny) {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            SynthError::TooDeep { limit } => write!(
                f,
                "input nested more than {limit} levels deep, more than the {limit} a job may take"
            ),
        }
    }
}

impl std::error::Error for SynthError {}

/// One synthesized program with its extraction cost.
#[derive(Debug, Clone)]
pub struct SynthProgram {
    /// The primary component of the configured [`CostModel`]'s cost.
    pub cost: usize,
    /// The program.
    pub cad: Cad,
}

/// One point on a Pareto front: a program with its two objective costs.
#[derive(Debug, Clone)]
pub struct ParetoProgram {
    /// `[objective_a, objective_b]` primary costs under the two models
    /// of [`SynthConfig::with_pareto`].
    pub costs: [u64; 2],
    /// The program.
    pub cad: Cad,
}

/// The result of a synthesis run.
#[derive(Debug, Clone)]
pub struct Synthesis {
    /// The flat input.
    pub input: Cad,
    /// Up to k programs, cheapest first.
    pub top_k: Vec<SynthProgram>,
    /// What the inference passes did.
    pub records: Vec<InferenceRecord>,
    /// Total wall-clock time.
    pub time: Duration,
    /// Final e-graph size (nodes).
    pub egraph_nodes: usize,
    /// Final e-graph size (classes).
    pub egraph_classes: usize,
    /// Why saturation stopped.
    pub stop_reason: Option<StopReason>,
    /// Saturation iterations this run spent (a partial resume counts
    /// only its own leg).
    pub iterations: usize,
    /// Per-rule e-matching profile: matches found, classes unioned,
    /// search/apply wall-clock time, and backoff bans (see
    /// [`RuleStat`]). Empty for runs that skipped saturation entirely
    /// (extraction-only snapshot resumes).
    /// Partial-saturation resumes **merge** the producing legs' persisted
    /// counts with this leg's, so matches/applied/bans are lifetime
    /// totals; wall-clock times cover this leg only (prior legs persist
    /// counts, not times).
    pub rule_stats: Vec<RuleStat>,
    /// How the run executed: cold, extraction-only resume, or
    /// partial-saturation resume (see [`RunMode`](crate::RunMode)).
    pub mode: crate::RunMode,
    /// The snapshot captured by this run, when
    /// [`RunOptions::capture_snapshot`](crate::RunOptions::capture_snapshot)
    /// was requested and the run was not cancelled.
    pub snapshot: Option<SynthSnapshot>,
    /// The deterministic Pareto front under the two cost models of
    /// [`SynthConfig::with_pareto`]: mutually non-dominating programs,
    /// ascending on the first objective. `None` when no Pareto extraction
    /// was requested.
    pub pareto: Option<Vec<ParetoProgram>>,
    /// The telemetry bundle this run recorded into (the one passed via
    /// [`RunOptions::with_telemetry`](crate::RunOptions::with_telemetry),
    /// or a disabled bundle otherwise). Handles are cheap clones of the
    /// caller's: spans/metrics land in the shared sink either way — this
    /// accessor just keeps them reachable from the result.
    pub telemetry: Telemetry,
}

impl Synthesis {
    /// The lowest-cost program.
    ///
    /// # Panics
    ///
    /// Panics if synthesis produced no programs (cannot happen for a
    /// well-formed input: the input itself is always extractable).
    /// Batch drivers should prefer [`Synthesis::try_best`].
    pub fn best(&self) -> &SynthProgram {
        &self.top_k[0]
    }

    /// The lowest-cost program, or `None` when extraction found nothing.
    pub fn try_best(&self) -> Option<&SynthProgram> {
        self.top_k.first()
    }

    /// Whether this run's saturation was cut short by a deadline or
    /// cancel token ([`StopReason::Cancelled`]). The programs are still
    /// valid — just extracted from a less-saturated graph — but the
    /// result is wall-clock-dependent and must not enter deterministic
    /// caches.
    pub fn cancelled(&self) -> bool {
        self.stop_reason == Some(StopReason::Cancelled)
    }

    /// The first structured program in the top-k, with its 1-based rank
    /// (the paper's `r` column).
    pub fn structured(&self) -> Option<(usize, &SynthProgram)> {
        self.top_k
            .iter()
            .enumerate()
            .find(|(_, p)| has_structure(&p.cad))
            .map(|(i, p)| (i + 1, p))
    }

    /// Builds the Table-1 row for this run (see [`TableRow::of_programs`]).
    ///
    /// # Panics
    ///
    /// Panics if `top_k` is empty.
    pub fn table_row(&self, name: &str) -> TableRow {
        let programs = self.top_k.iter().map(|p| &p.cad);
        TableRow::of_programs(name, &self.input, programs, self.time.as_secs_f64())
            .expect("a synthesis has at least one program")
    }
}

/// extract_prog (paper §5.1): the top-k programs under the configured
/// cost model and, when the config requests one, the deterministic Pareto
/// front under its two models, from a live e-graph (a cold run) or a
/// parsed snapshot's view (an extraction-only resume). Root derivations
/// are enumerated lazily; distinct derivations can denote one tree (e.g.
/// via the sorted-list fold variant), so top-k pulls up to 2k of them and
/// keeps the first k distinct programs. Records `pipeline/extraction` on `telemetry`, with
/// `extract/table` (the 1-best cost table) and `extract/materialize`
/// (top-k enumeration, term build, conversion, dedup) inside it.
pub(crate) fn extract(
    egraph: &impl GraphView<Lang = CadLang>,
    root: Id,
    config: &SynthConfig,
    telemetry: &Telemetry,
) -> (Vec<SynthProgram>, Option<Vec<ParetoProgram>>) {
    let _span = telemetry.span("pipeline", "extraction");
    let table_span = telemetry.span("extract", "table");
    let kbest = KBestExtractor::new(
        egraph,
        ModelCost(Arc::clone(&config.cost_model)),
        config.k * 2,
    );
    drop(table_span);
    let materialize_span = telemetry.span("extract", "materialize");
    let ranked = kbest.iter_best(root).take(kbest.k());
    let ranked = ranked.map(|(cost, e)| (cost.primary() as usize, e));
    let mut top_k: Vec<SynthProgram> = distinct_programs(ranked, config.k)
        .into_iter()
        .map(|(cost, cad)| SynthProgram { cost, cad })
        .collect();
    // Models that combine a child's cost with its depth can enumerate
    // out of cost order; for every other model this is a no-op.
    top_k.sort_by_key(|p| p.cost);
    drop(materialize_span);
    let pareto = config.pareto.as_ref().map(|[a, b]| {
        let extractor =
            ParetoExtractor::new(egraph, ModelCost(Arc::clone(a)), ModelCost(Arc::clone(b)));
        let front = extractor.find_front(root).into_iter();
        let front = front.map(|(ca, cb, e)| ([ca.primary(), cb.primary()], e));
        distinct_programs(front, usize::MAX)
            .into_iter()
            .map(|(costs, cad)| ParetoProgram { costs, cad })
            .collect()
    });
    (top_k, pareto)
}

/// Converts extracted terms to CAD programs in order, skipping terms that
/// are not CAD and programs already kept, until `limit` are kept.
fn distinct_programs<C>(
    terms: impl Iterator<Item = (C, RecExpr<CadLang>)>,
    limit: usize,
) -> Vec<(C, Cad)> {
    let mut programs: Vec<(C, Cad)> = Vec::new();
    for (cost, e) in terms {
        let Ok(cad) = lang_to_cad(&e) else { continue };
        if programs.iter().any(|(_, p)| *p == cad) {
            continue;
        }
        programs.push((cost, cad));
        if programs.len() >= limit {
            break;
        }
    }
    programs
}

/// The **saturation-phase** section of a [`SynthSnapshot`]: the runner
/// state (e-graph, scheduler, iteration count) captured right after
/// equality saturation — *before* list manipulation and solver
/// inference touch the graph.
///
/// This is the state [`Synthesizer::run`](crate::Synthesizer::run)
/// continues from on a **partial-saturation resume**: a config whose
/// [`SynthConfig::saturation_core_fingerprint`] matches and whose fuel
/// limits are at least the producing run's can restore this section via
/// [`sz_egraph::Runner::resume_from`] and keep saturating, then re-run
/// the (deterministic) inference passes — landing on the exact state a
/// cold run at the higher fuel would reach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatPhase {
    header: SatPhaseHeader,
    rule_stats: Vec<RuleStat>,
    snapshot: Snapshot<crate::CadLang>,
}

impl SatPhase {
    /// Pairs a post-saturation runner snapshot with the producing
    /// config's core fingerprint and fuel limits.
    pub fn new(config: &SynthConfig, snapshot: Snapshot<crate::CadLang>) -> Self {
        SatPhase {
            header: SatPhaseHeader {
                core_fp: config.saturation_core_fingerprint(),
                iter_limit: config.iter_limit,
                node_limit: config.node_limit,
            },
            rule_stats: Vec::new(),
            snapshot,
        }
    }

    /// Attaches the producing run's lifetime per-rule profile, so a
    /// partial resume can merge its own leg's counters on top instead of
    /// reporting only the last leg. Only the deterministic **counts**
    /// (matches, applied, bans) are kept — wall-clock times are zeroed,
    /// matching the serialized form (`rulestat` lines persist counts, so
    /// a round-trip through text must be identity).
    pub fn with_rule_stats(mut self, stats: Vec<RuleStat>) -> Self {
        self.rule_stats = stats
            .into_iter()
            .map(|s| RuleStat {
                name: s.name,
                matches: s.matches,
                applied: s.applied,
                times_banned: s.times_banned,
                search_time: Duration::ZERO,
                apply_time: Duration::ZERO,
            })
            .collect();
        self
    }

    /// The producing config's [`SynthConfig::saturation_core_fingerprint`].
    pub fn core_fingerprint(&self) -> &str {
        &self.header.core_fp
    }

    /// This section's [`SatPhaseHeader`] (what
    /// [`SynthSnapshot::probe_header`] recovers from text).
    pub fn header(&self) -> &SatPhaseHeader {
        &self.header
    }

    /// Saturation iterations actually spent by the producing run.
    pub fn iterations(&self) -> usize {
        self.snapshot.iterations()
    }

    /// The producing run's lifetime per-rule profile (counts only; wall
    /// times are zero — see [`SatPhase::with_rule_stats`]).
    pub fn rule_stats(&self) -> &[RuleStat] {
        &self.rule_stats
    }

    /// The post-saturation runner snapshot.
    pub fn snapshot(&self) -> &Snapshot<crate::CadLang> {
        &self.snapshot
    }
}

/// A persisted saturated e-graph plus the compatibility metadata needed
/// to resume from it: the input's canonical s-expression, the producing
/// config's [`SynthConfig::saturation_fingerprint`], the final
/// (post-inference) e-graph for **extraction-only** resumes, and — when
/// captured by [`Synthesizer::run`](crate::Synthesizer::run) — a
/// [`SatPhase`] section for **partial-saturation** resumes.
///
/// Serialized as text (`szsynth v3`): three header lines (input,
/// saturation fingerprint, sat-phase descriptor), the sat-phase's
/// per-rule `rulestat` count lines, the optional saturation-phase
/// [`Snapshot`], then the final [`Snapshot`]. Older `szsynth` versions
/// fail to parse, so a store holding them runs the job cold and can
/// overwrite the entry.
/// Because the saturation fingerprint embeds the snapshot format
/// version, bumping [`sz_egraph::SNAPSHOT_FORMAT_VERSION`] invalidates
/// every stored snapshot key — stale snapshots can never poison a cache
/// across releases.
///
/// # Examples
///
/// ```
/// use szalinski::{SynthConfig, Synthesizer, RunOptions};
/// use sz_cad::Cad;
///
/// let flat = Cad::union_chain(
///     (1..=4).map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit)).collect(),
/// );
/// let session = Synthesizer::new(SynthConfig::new());
/// let cold = session
///     .run(&flat, RunOptions::new().capture_snapshot(true))
///     .unwrap();
/// // Round-trip through text (what the batch cache stores), then resume.
/// let snapshot = cold.snapshot.clone().unwrap().to_string().parse().unwrap();
/// let resumed = session
///     .run(&flat, RunOptions::new().with_snapshot(snapshot))
///     .unwrap();
/// assert_eq!(resumed.iterations, 0); // no re-saturation
/// assert_eq!(
///     resumed.best().cad.to_string(),
///     cold.best().cad.to_string(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthSnapshot {
    input: String,
    sat_fp: String,
    snapshot: Snapshot<crate::CadLang>,
    sat_phase: Option<SatPhase>,
}

impl SynthSnapshot {
    /// Pairs a raw e-graph snapshot with its compatibility metadata.
    /// (Normally produced by [`Synthesizer::run`](crate::Synthesizer::run)
    /// with `capture_snapshot`; public for tests and tooling.)
    pub fn new(input: &Cad, config: &SynthConfig, snapshot: Snapshot<crate::CadLang>) -> Self {
        SynthSnapshot {
            input: input.to_string(),
            sat_fp: config.saturation_fingerprint(),
            snapshot,
            sat_phase: None,
        }
    }

    /// Attaches the saturation-phase section enabling partial-saturation
    /// resume.
    pub fn with_sat_phase(mut self, sat_phase: SatPhase) -> Self {
        self.sat_phase = Some(sat_phase);
        self
    }

    /// The input's canonical s-expression.
    pub fn input_sexp(&self) -> &str {
        &self.input
    }

    /// The producing config's saturation fingerprint.
    pub fn saturation_fingerprint(&self) -> &str {
        &self.sat_fp
    }

    /// Saturation iterations the producing run spent.
    pub fn iterations(&self) -> usize {
        self.snapshot.iterations()
    }

    /// The final (post-inference) e-graph snapshot used by
    /// extraction-only resumes.
    pub fn egraph_snapshot(&self) -> &Snapshot<crate::CadLang> {
        &self.snapshot
    }

    /// The saturation-phase section, if the producing run captured one.
    pub fn sat_phase(&self) -> Option<&SatPhase> {
        self.sat_phase.as_ref()
    }

    /// Drops the saturation-phase section, roughly halving the
    /// serialized size. For stores that only ever serve extraction-only
    /// resumes (e.g. the batch snapshot tier, which keys on exact
    /// saturation fingerprints), the section is dead weight against the
    /// byte budget.
    pub fn without_sat_phase(mut self) -> Self {
        self.sat_phase = None;
        self
    }

    /// Whether `config` can **continue saturating** from this snapshot's
    /// saturation-phase section: the core fingerprints must match and the
    /// producing fuel limits must not exceed `config`'s (see
    /// [`SatPhaseHeader::fits`]).
    pub fn supports_partial_resume(&self, config: &SynthConfig) -> bool {
        self.sat_phase
            .as_ref()
            .is_some_and(|phase| phase.header().fits(config))
    }

    /// Reads the compatibility metadata out of serialized snapshot text
    /// **without parsing the embedded e-graphs** — just the handful of
    /// header lines. Stores indexing many snapshots (the batch tier's
    /// core-key index) use this to decide *which* snapshot to offer a
    /// config before paying for a full parse. The header lines are read
    /// by the same code as in the full parse, so this is `None` exactly
    /// when that parse fails on one of them. The probe is advisory — a
    /// full [`SynthSnapshot`] parse (and
    /// [`SynthSnapshot::supports_partial_resume`]) still gates any
    /// actual resume, so a lying header degrades to a cold run rather
    /// than an unsound one.
    pub fn probe_header(text: &str) -> Option<SnapshotHeader> {
        parse_header(&mut LineCursor { text, pos: 0 })
            .ok()
            .map(|(header, ..)| header)
    }
}

/// The compatibility metadata of one serialized [`SynthSnapshot`],
/// recovered by [`SynthSnapshot::probe_header`] from the text's header
/// lines alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The input's canonical s-expression (`input` line).
    pub input: String,
    /// The producing config's [`SynthConfig::saturation_fingerprint`]
    /// (`satfp` line).
    pub sat_fp: String,
    /// The saturation-phase descriptor, when the snapshot kept its
    /// continuable section (`satphase` line; `None` for `satphase none`).
    pub sat_phase: Option<SatPhaseHeader>,
}

/// The fuel-and-identity descriptor of a [`SatPhase`] section: the
/// producing config's core fingerprint and fuel limits, as persisted on
/// the `satphase` header line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatPhaseHeader {
    /// The producing config's [`SynthConfig::saturation_core_fingerprint`].
    pub core_fp: String,
    /// The producing run's saturation iteration limit.
    pub iter_limit: usize,
    /// The producing run's e-node limit.
    pub node_limit: usize,
}

impl SatPhaseHeader {
    /// Whether a run under `config` could continue saturating from the
    /// described section: core fingerprints match and the producing
    /// fuel limits do not exceed `config`'s (every state reachable
    /// under the tighter limits lies on the looser run's trajectory).
    pub fn fits(&self, config: &SynthConfig) -> bool {
        self.core_fp == config.saturation_core_fingerprint()
            && self.iter_limit <= config.iter_limit
            && self.node_limit <= config.node_limit
    }
}

impl fmt::Display for SynthSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "szsynth v3")?;
        writeln!(f, "input {}", self.input)?;
        writeln!(f, "satfp {}", self.sat_fp)?;
        match &self.sat_phase {
            None => writeln!(f, "satphase none")?,
            Some(phase) => {
                // The embedded snapshot's and rule-stat table's lengths
                // are declared up front (fingerprints contain no
                // whitespace, so the descriptor stays one
                // whitespace-separated line). `60000` is the retired
                // time limit's slot, kept as literal text like the
                // fingerprint's `time_ms=60000`.
                let text = phase.snapshot.to_string();
                writeln!(
                    f,
                    "satphase {} {} {} 60000 {} {}",
                    phase.header.core_fp,
                    phase.header.iter_limit,
                    phase.header.node_limit,
                    text.lines().count(),
                    phase.rule_stats.len(),
                )?;
                // Deterministic counts only — wall times would make the
                // serialization wall-clock-dependent (and the golden
                // fixtures unpinnable).
                for stat in &phase.rule_stats {
                    writeln!(
                        f,
                        "rulestat {} {} {} {}",
                        escape_token(&stat.name),
                        stat.matches,
                        stat.applied,
                        stat.times_banned,
                    )?;
                }
                write!(f, "{text}")?;
            }
        }
        write!(f, "{}", self.snapshot)
    }
}

/// A line cursor that tracks its byte offset, so embedded sections can
/// be handed to the `Snapshot` parser as zero-copy slices of the input.
struct LineCursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> LineCursor<'a> {
    /// The next line (without its terminator), or `None` at end of input.
    fn next(&mut self) -> Option<&'a str> {
        if self.pos >= self.text.len() {
            return None;
        }
        let rest = &self.text[self.pos..];
        match rest.find('\n') {
            Some(i) => {
                self.pos += i + 1;
                Some(rest[..i].strip_suffix('\r').unwrap_or(&rest[..i]))
            }
            None => {
                self.pos = self.text.len();
                Some(rest)
            }
        }
    }

    /// Everything not yet consumed.
    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }
}

/// Parses the four header lines of `szsynth v3` text: the
/// [`SnapshotHeader`], then the saturation-phase snapshot's line count
/// and the number of `rulestat` lines before it (both 0 for
/// `satphase none`). The full parse and [`SynthSnapshot::probe_header`]
/// both read the header here, so the probe accepts exactly the headers
/// the parse gets past.
fn parse_header(
    lines: &mut LineCursor<'_>,
) -> Result<(SnapshotHeader, usize, usize), SnapshotParseError> {
    let header = lines
        .next()
        .ok_or_else(|| SnapshotParseError::new(1, "empty snapshot"))?;
    if header != "szsynth v3" {
        return Err(SnapshotParseError::new(
            1,
            format!("unsupported header `{header}` (this build reads `szsynth v3`)"),
        ));
    }
    let input = lines
        .next()
        .and_then(|l| l.strip_prefix("input "))
        .ok_or_else(|| SnapshotParseError::new(2, "expected `input <sexp>`"))?
        .to_owned();
    let sat_fp = lines
        .next()
        .and_then(|l| l.strip_prefix("satfp "))
        .ok_or_else(|| SnapshotParseError::new(3, "expected `satfp <fingerprint>`"))?
        .to_owned();
    let line = lines
        .next()
        .ok_or_else(|| SnapshotParseError::new(4, "expected `satphase ...`"))?;
    let rest = line.strip_prefix("satphase ").ok_or_else(|| {
        SnapshotParseError::new(4, format!("expected `satphase ...`, got `{line}`"))
    })?;
    if rest == "none" {
        let header = SnapshotHeader {
            input,
            sat_fp,
            sat_phase: None,
        };
        return Ok((header, 0, 0));
    }
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let [core_fp, iter_tok, nodes_tok, time_tok, len_tok, nstats_tok] = toks.as_slice() else {
        return Err(SnapshotParseError::new(
            4,
            format!(
                "expected `satphase <core-fp> <iter> <nodes> <time_ms> <lines> \
                 <rulestats>`, got `{line}`"
            ),
        ));
    };
    let field = |tok: &str, what: &str| -> Result<usize, SnapshotParseError> {
        tok.parse()
            .map_err(|_| SnapshotParseError::new(4, format!("expected {what}, got `{tok}`")))
    };
    let sat_phase = SatPhaseHeader {
        core_fp: (*core_fp).to_owned(),
        iter_limit: field(iter_tok, "an iteration limit")?,
        node_limit: field(nodes_tok, "a node limit")?,
    };
    // The retired time limit's slot: must be a number, then unused.
    field(time_tok, "a time limit in ms")?;
    let len = field(len_tok, "a line count")?;
    let nstats = field(nstats_tok, "a rulestat count")?;
    let header = SnapshotHeader {
        input,
        sat_fp,
        sat_phase: Some(sat_phase),
    };
    Ok((header, len, nstats))
}

impl std::str::FromStr for SynthSnapshot {
    type Err = SnapshotParseError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut lines = LineCursor { text, pos: 0 };
        let (header, len, nstats) = parse_header(&mut lines)?;
        let mut consumed = 4usize;
        let sat_phase = match header.sat_phase {
            None => None,
            Some(phase_header) => {
                // Each rulestat line takes at least one byte of the text,
                // so a declared count past that is truncation, not a
                // reason to reserve memory for it.
                let mut rule_stats = Vec::with_capacity(nstats.min(lines.rest().len()));
                for _ in 0..nstats {
                    let line = lines.next().ok_or_else(|| {
                        SnapshotParseError::new(consumed + 1, "truncated rulestat table")
                    })?;
                    consumed += 1;
                    let stat_err = |what: String| SnapshotParseError::new(consumed, what);
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    let ["rulestat", name, matches, applied, banned] = toks.as_slice() else {
                        return Err(stat_err(format!(
                            "expected `rulestat <name> <matches> <applied> <bans>`, got `{line}`"
                        )));
                    };
                    let count = |tok: &str| -> Result<usize, SnapshotParseError> {
                        tok.parse()
                            .map_err(|_| stat_err(format!("expected a count, got `{tok}`")))
                    };
                    rule_stats.push(RuleStat {
                        name: unescape_token(name).map_err(&stat_err)?,
                        matches: count(matches)?,
                        applied: count(applied)?,
                        times_banned: count(banned)?,
                        search_time: Duration::ZERO,
                        apply_time: Duration::ZERO,
                    });
                }
                // Skip exactly `len` lines (running out is truncation) and
                // parse the skipped region as a zero-copy slice.
                let section_start = lines.pos;
                for _ in 0..len {
                    lines.next().ok_or_else(|| {
                        SnapshotParseError::new(consumed + 1, "truncated saturation-phase snapshot")
                    })?;
                    consumed += 1;
                }
                let snapshot = text[section_start..lines.pos]
                    .parse::<Snapshot<crate::CadLang>>()
                    .map_err(|e| e.offset_lines(consumed - len))?;
                Some(SatPhase {
                    header: phase_header,
                    rule_stats,
                    snapshot,
                })
            }
        };
        let rest = lines.rest();
        if rest.is_empty() {
            return Err(SnapshotParseError::new(
                consumed + 1,
                "missing e-graph snapshot",
            ));
        }
        let snapshot = rest
            .parse::<Snapshot<crate::CadLang>>()
            .map_err(|e| e.offset_lines(consumed))?;
        Ok(SynthSnapshot {
            input: header.input,
            sat_fp: header.sat_fp,
            snapshot,
            sat_phase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::RewardLoopsCost;
    use crate::{RunMode, RunOptions, Synthesizer};

    fn row_of_cubes(n: usize, spacing: f64) -> Cad {
        Cad::union_chain(
            (1..=n)
                .map(|i| Cad::translate(spacing * i as f64, 0.0, 0.0, Cad::Unit))
                .collect(),
        )
    }

    fn run(input: &Cad, config: &SynthConfig) -> Synthesis {
        Synthesizer::new(config.clone())
            .run(input, RunOptions::new())
            .unwrap()
    }

    /// A cold run that captures its snapshot.
    fn capture(input: &Cad, config: &SynthConfig) -> (Synthesis, SynthSnapshot) {
        let mut result = Synthesizer::new(config.clone())
            .run(input, RunOptions::new().capture_snapshot(true))
            .unwrap();
        let snapshot = result.snapshot.take().expect("capture requested");
        (result, snapshot)
    }

    fn resume(input: &Cad, config: &SynthConfig, snapshot: &SynthSnapshot) -> Synthesis {
        Synthesizer::new(config.clone())
            .run(input, RunOptions::new().with_snapshot(snapshot.clone()))
            .unwrap()
    }

    fn reward_loops() -> SynthConfig {
        SynthConfig::new().with_cost_model(Arc::new(RewardLoopsCost))
    }

    #[test]
    fn fig2_end_to_end() {
        let flat = row_of_cubes(5, 2.0);
        let result = run(&flat, &SynthConfig::new());
        let (_, prog) = result.structured().unwrap();
        let s = prog.cad.to_string();
        assert!(s.contains("Mapi"), "got {s}");
        assert!(s.contains("(Repeat Unit 5)"), "got {s}");
        assert!(prog.cad.num_nodes() < flat.num_nodes());
        // Equivalence: evaluating the program reproduces the input.
        assert_eq!(prog.cad.eval_to_flat().unwrap(), flat);
    }

    #[test]
    fn top_k_is_sorted_and_bounded() {
        let flat = row_of_cubes(4, 3.0);
        let result = run(&flat, &SynthConfig::new().with_k(5));
        assert!(result.top_k.len() <= 5);
        assert!(!result.top_k.is_empty());
        for w in result.top_k.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }

    #[test]
    fn no_structure_returns_input_like_program() {
        let flat = Cad::diff(
            Cad::scale(20.0, 20.0, 3.0, Cad::Unit),
            Cad::translate(1.0, 2.0, 0.0, Cad::Sphere),
        );
        let result = run(&flat, &SynthConfig::new());
        assert!(result.structured().is_none());
        assert_eq!(result.best().cad.num_nodes(), flat.num_nodes());
    }

    #[test]
    fn table_row_reports_reduction() {
        let flat = row_of_cubes(8, 2.0);
        let result = run(&flat, &SynthConfig::new());
        let row = result.table_row("row-of-8");
        assert!(row.o_ns < row.i_ns);
        assert_eq!(row.i_p, 8);
        assert_eq!(row.o_p, 1);
        assert!(
            row.n_l.contains("n1,8") || row.n_l.contains("n2"),
            "{:?}",
            row.n_l
        );
        assert_eq!(row.f, "d1");
        assert!(row.rank.is_some());
    }

    #[test]
    fn reward_loops_changes_extraction() {
        // Two cubes: too few for AstSize to prefer the loop, but
        // RewardLoops surfaces it (the wardrobe@ effect).
        let flat = row_of_cubes(2, 2.0);
        let default = run(&flat, &SynthConfig::new());
        let reward = run(&flat, &reward_loops());
        assert!(reward.structured().is_some());
        let default_best_structured = default
            .structured()
            .map(|(rank, _)| rank)
            .unwrap_or(usize::MAX);
        let reward_best_structured = reward.structured().map(|(rank, _)| rank).unwrap();
        assert!(reward_best_structured <= default_best_structured);
        assert_eq!(reward_best_structured, 1);
    }

    #[test]
    fn pipeline_types_are_send() {
        // The batch engine moves jobs and results across threads; keep
        // the whole pipeline surface Send (and the config Sync).
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Cad>();
        assert_send::<SynthConfig>();
        assert_send::<Synthesis>();
        assert_send::<SynthError>();
        assert_sync::<SynthConfig>();
    }

    #[test]
    fn run_rejects_non_flat_fold_input() {
        let looped: Cad = "(Fold Union Empty (Repeat Unit 3))".parse().unwrap();
        assert_eq!(
            Synthesizer::new(SynthConfig::new())
                .run(&looped, RunOptions::new())
                .unwrap_err(),
            SynthError::NotFlat
        );
    }

    #[test]
    fn backoff_config_still_finds_structure() {
        // Backoff must not cost the pipeline its result on the worked
        // figure; with structural rules on it throttles the explosion.
        let flat = row_of_cubes(5, 2.0);
        let config = SynthConfig::new()
            .with_structural_rules(true)
            .with_backoff(true)
            .with_iter_limit(25)
            .with_node_limit(60_000);
        let result = run(&flat, &config);
        let (_, prog) = result.structured().expect("still finds the loop");
        assert!(prog.cad.to_string().contains("(Repeat Unit 5)"));
    }

    #[test]
    fn fingerprint_changes_with_fields() {
        let base = SynthConfig::new();
        assert_eq!(base.fingerprint(), SynthConfig::new().fingerprint());
        let variants = [
            base.clone().with_eps(1e-2),
            base.clone().with_k(7),
            base.clone().with_iter_limit(1),
            base.clone().with_node_limit(1),
            base.clone().with_structural_rules(true),
            base.clone().with_backoff(true),
            reward_loops(),
        ];
        for v in &variants {
            assert_ne!(v.fingerprint(), base.fingerprint(), "{:?}", v);
        }
    }

    #[test]
    fn saturation_fingerprint_splits_extraction_fields() {
        let base = SynthConfig::new();
        // Extraction-only changes keep the saturation fingerprint.
        assert_eq!(
            base.clone().with_k(9).saturation_fingerprint(),
            base.saturation_fingerprint()
        );
        assert_eq!(
            reward_loops().saturation_fingerprint(),
            base.saturation_fingerprint()
        );
        // ...but still change the full fingerprint.
        assert_ne!(base.clone().with_k(9).fingerprint(), base.fingerprint());
        // Saturation-affecting changes invalidate it.
        for v in [
            base.clone().with_eps(1e-2),
            base.clone().with_iter_limit(1),
            base.clone().with_node_limit(1),
            base.clone().with_structural_rules(true),
            base.clone().with_backoff(true),
        ] {
            assert_ne!(
                v.saturation_fingerprint(),
                base.saturation_fingerprint(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn synthesis_reports_rule_stats() {
        let flat = row_of_cubes(5, 2.0);
        let (result, snapshot) = capture(&flat, &SynthConfig::new());
        assert_eq!(result.rule_stats.len(), crate::rules::rules().len());
        let folds = result
            .rule_stats
            .iter()
            .find(|s| s.name == "fold-intro-union")
            .unwrap();
        assert!(folds.matches > 0, "union chain must feed the fold rules");
        assert!(folds.applied > 0);
        let total_matches: usize = result.rule_stats.iter().map(|s| s.matches).sum();
        assert!(total_matches > 0);
        // Resumed runs skip saturation and carry no per-rule profile.
        let resumed = resume(&flat, &SynthConfig::new(), &snapshot);
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        assert!(resumed.rule_stats.is_empty());
    }

    #[test]
    fn resume_reproduces_cold_run_byte_for_byte() {
        let flat = row_of_cubes(5, 2.0);
        let config = SynthConfig::new();
        let (cold, snapshot) = capture(&flat, &config);
        let resumed = resume(&flat, &config, &snapshot);
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        assert_eq!(resumed.iterations, 0);
        assert!(cold.iterations > 0);
        assert_eq!(resumed.egraph_nodes, cold.egraph_nodes);
        assert_eq!(resumed.egraph_classes, cold.egraph_classes);
        let progs = |s: &Synthesis| -> Vec<(usize, String)> {
            s.top_k
                .iter()
                .map(|p| (p.cost, p.cad.to_string()))
                .collect()
        };
        assert_eq!(progs(&resumed), progs(&cold));
    }

    #[test]
    fn resume_supports_cost_only_config_change() {
        // Snapshot under AstSize, resume under RewardLoops: must equal a
        // cold RewardLoops run (the saturated graph is cost-agnostic).
        let flat = row_of_cubes(2, 2.0);
        let (_, snapshot) = capture(&flat, &SynthConfig::new());
        let resumed = resume(&flat, &reward_loops(), &snapshot);
        assert_eq!(resumed.mode, RunMode::ResumedExtraction);
        let cold = run(&flat, &reward_loops());
        assert_eq!(resumed.best().cad.to_string(), cold.best().cad.to_string());
        assert_eq!(resumed.structured().map(|(r, _)| r), Some(1));
    }

    /// `text` (a `szsynth v3` capture with a saturation phase) rewritten
    /// in the retired `szsynth v1` form: no satphase line, only the
    /// final graph.
    fn as_v1(text: &str, snapshot: &SynthSnapshot) -> String {
        let mut v1: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        v1 = v1.replacen("szsynth v3", "szsynth v1", 1);
        v1.push_str(&snapshot.egraph_snapshot().to_string());
        v1
    }

    /// `text` rewritten in the retired `szsynth v2` form: a five-token
    /// satphase descriptor and no `rulestat` table.
    fn as_v2(text: &str, nstats: usize) -> String {
        let mut v2 = String::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 {
                v2.push_str("szsynth v2");
            } else if i == 3 {
                v2.push_str(&line[..line.rfind(' ').unwrap()]);
            } else if (4..4 + nstats).contains(&i) {
                continue;
            } else {
                v2.push_str(line);
            }
            v2.push('\n');
        }
        v2
    }

    #[test]
    fn synth_snapshot_text_roundtrip_and_errors() {
        let flat = row_of_cubes(3, 2.0);
        let (_, snapshot) = capture(&flat, &SynthConfig::new());
        assert!(
            snapshot.sat_phase().is_some(),
            "a capture carries the saturation phase"
        );
        let text = snapshot.to_string();
        assert_eq!(text.lines().next(), Some("szsynth v3"));
        let back: SynthSnapshot = text.parse().unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.to_string(), text, "reserialization is byte-stable");
        assert!(back.iterations() > 0);
        assert_eq!(
            back.sat_phase().unwrap().iterations(),
            back.iterations(),
            "runs saturate once: both sections agree on the count"
        );

        // Header and truncation corruption yield errors, never panics.
        assert!("szsynth v9\n".parse::<SynthSnapshot>().is_err());
        let err = text
            .replacen("szsnap v1", "szsnap v99", 1)
            .parse::<SynthSnapshot>()
            .unwrap_err();
        let nstats = snapshot.sat_phase().unwrap().rule_stats().len();
        assert_eq!(
            err.line(),
            5 + nstats,
            "inner errors are offset past the header (3 lines), satphase \
             descriptor, and rulestat table"
        );
        for cut in [0, 10, text.len() / 2, text.len() - 10] {
            assert!(text[..cut].parse::<SynthSnapshot>().is_err());
        }
        // Well-formed text of the retired versions is unsupported too.
        for legacy in [as_v1(&text, &snapshot), as_v2(&text, nstats)] {
            let err = legacy.parse::<SynthSnapshot>().unwrap_err();
            assert_eq!(err.line(), 1, "{err}");
            assert!(
                err.to_string().contains("this build reads `szsynth v3`"),
                "{err}"
            );
            assert_eq!(SynthSnapshot::probe_header(&legacy), None);
        }
    }

    #[test]
    fn core_fingerprint_ignores_fuel_but_not_semantics() {
        let base = SynthConfig::new();
        // Fuel-limit changes keep the core fingerprint...
        for v in [
            base.clone().with_iter_limit(7),
            base.clone().with_node_limit(9),
        ] {
            assert_eq!(
                v.saturation_core_fingerprint(),
                base.saturation_core_fingerprint()
            );
            // ...while still changing the full saturation fingerprint.
            assert_ne!(v.saturation_fingerprint(), base.saturation_fingerprint());
        }
        // Semantic changes invalidate the core.
        for v in [
            base.clone().with_eps(1e-2),
            base.clone().with_structural_rules(true),
            base.clone().with_backoff(true),
        ] {
            assert_ne!(
                v.saturation_core_fingerprint(),
                base.saturation_core_fingerprint(),
                "{v:?}"
            );
        }
    }

    #[test]
    fn supports_partial_resume_requires_core_match_and_lower_fuel() {
        let flat = row_of_cubes(3, 2.0);
        let low = SynthConfig::new()
            .with_iter_limit(10)
            .with_node_limit(10_000);
        let (_, snapshot) = capture(&flat, &low);

        // Higher (or equal) fuel: resumable.
        assert!(snapshot.supports_partial_resume(&low.clone().with_iter_limit(50)));
        assert!(snapshot.supports_partial_resume(&low));
        // Lower fuel than the producer: the snapshot overshoots.
        assert!(!snapshot.supports_partial_resume(&low.clone().with_iter_limit(5)));
        assert!(!snapshot.supports_partial_resume(&low.clone().with_node_limit(5_000)));
        // Core changes: not resumable at any fuel.
        assert!(!snapshot.supports_partial_resume(&low.with_eps(1e-2).with_iter_limit(50)));
    }

    #[test]
    fn snapshot_with_another_time_token_serves_only_partial_resume() {
        // A snapshot stored under another saturation time limit (older
        // builds clamped it to `szb --per-job-timeout`) carries another
        // number in both time slots. It still parses, but its `satfp`
        // equals no config's fingerprint, so only its saturation phase
        // can be resumed.
        let flat = row_of_cubes(4, 2.0);
        let low = SynthConfig::new().with_iter_limit(3);
        let (_, snapshot) = capture(&flat, &low);
        let mut lines: Vec<String> = snapshot.to_string().lines().map(str::to_owned).collect();
        assert!(lines[2].contains(";time_ms=60000;"), "{}", lines[2]);
        lines[2] = lines[2].replace(";time_ms=60000;", ";time_ms=30000;");
        let toks: Vec<&str> = lines[3].split(' ').collect();
        assert_eq!(toks[4], "60000", "{}", lines[3]);
        let with_time = |tok: &str| {
            let mut toks = toks.clone();
            toks[4] = tok;
            let mut lines = lines.clone();
            lines[3] = toks.join(" ");
            lines.join("\n") + "\n"
        };

        let err = with_time("soon").parse::<SynthSnapshot>().unwrap_err();
        assert_eq!(err.line(), 4, "{err}");
        assert!(err.to_string().contains("a time limit in ms"), "{err}");
        assert_eq!(SynthSnapshot::probe_header(&with_time("soon")), None);

        let old: SynthSnapshot = with_time("30000").parse().unwrap();
        let high = SynthConfig::new().with_iter_limit(40);
        assert!(old.supports_partial_resume(&low));
        assert!(old.supports_partial_resume(&high));
        for config in [&low, &high] {
            assert_ne!(
                old.saturation_fingerprint(),
                config.saturation_fingerprint()
            );
            let resumed = resume(&flat, config, &old);
            assert_eq!(resumed.mode, RunMode::ResumedSaturation);
            assert_eq!(
                resumed.best().cad.to_string(),
                run(&flat, config).best().cad.to_string()
            );
        }
    }

    #[test]
    fn probe_header_agrees_with_the_full_parse() {
        let flat = row_of_cubes(3, 2.0);
        let low = SynthConfig::new()
            .with_iter_limit(10)
            .with_node_limit(10_000);
        let (_, snapshot) = capture(&flat, &low);
        assert!(snapshot.sat_phase().is_some(), "precondition: continuable");
        let text = snapshot.to_string();

        let header = SynthSnapshot::probe_header(&text).unwrap();
        assert_eq!(header.input, snapshot.input_sexp());
        assert_eq!(header.sat_fp, snapshot.saturation_fingerprint());
        let phase = header.sat_phase.as_ref().unwrap();
        assert_eq!(phase, snapshot.sat_phase().unwrap().header());
        // The probe's fuel check mirrors supports_partial_resume.
        for config in [
            low.clone().with_iter_limit(50),
            low.clone(),
            low.clone().with_iter_limit(5),
            low.clone().with_node_limit(5_000),
            low.with_eps(1e-2).with_iter_limit(50),
        ] {
            assert_eq!(
                phase.fits(&config),
                snapshot.supports_partial_resume(&config),
                "{config:?}"
            );
        }

        // Stripped snapshots probe with no sat-phase descriptor.
        let stripped = SynthSnapshot::probe_header(&snapshot.without_sat_phase().to_string());
        assert_eq!(stripped.unwrap().sat_phase, None);
        // Garbage probes to None instead of erroring.
        assert_eq!(SynthSnapshot::probe_header("szsynth v9\nnope"), None);
        assert_eq!(SynthSnapshot::probe_header(""), None);
    }

    #[test]
    fn probe_header_accepts_exactly_the_headers_the_parse_gets_past() {
        let flat = row_of_cubes(3, 2.0);
        let config = SynthConfig::new()
            .with_iter_limit(10)
            .with_node_limit(10_000);
        let (_, snapshot) = capture(&flat, &config);
        let text = snapshot.to_string();
        let lines: Vec<&str> = text.lines().collect();
        let with_line = |i: usize, line: &str| {
            let mut lines = lines.clone();
            lines[i] = line;
            lines.join("\n") + "\n"
        };
        let toks: Vec<&str> = lines[3].split(' ').collect();
        assert_eq!(toks.len(), 7, "`satphase` and six tokens: {}", lines[3]);
        let with_toks = |toks: Vec<&str>| with_line(3, &toks.join(" "));

        let mut cases = vec![
            text.clone(),
            snapshot.without_sat_phase().to_string(),
            text.replace('\n', "\r\n"),
            with_line(0, "szsynth v2"),
            with_line(1, &lines[1].replacen("input", "inputs", 1)),
            with_line(2, &lines[2].replacen("satfp", "satfb", 1)),
            with_line(3, &lines[3].replacen("satphase", "sat-phase", 1)),
            with_line(3, "satphase none 7"),
        ];
        for i in 1..=toks.len() {
            let mut added = toks.clone();
            added.insert(i, "7");
            cases.push(with_toks(added));
            if i < toks.len() {
                let mut dropped = toks.clone();
                dropped.remove(i);
                cases.push(with_toks(dropped));
            }
        }
        // Every numeric slot: not a number, negative, past `usize`, and
        // a number that fits but exceeds anything the text holds.
        for i in 2..toks.len() {
            for bad in ["x", "-1", "18446744073709551616", "99999999999999"] {
                let mut mutated = toks.clone();
                mutated[i] = bad;
                cases.push(with_toks(mutated));
            }
        }
        let mut past = 0;
        for case in &cases {
            let past_line_4 = match case.parse::<SynthSnapshot>() {
                Ok(_) => true,
                Err(e) => e.line() > 4,
            };
            assert_eq!(
                SynthSnapshot::probe_header(case).is_some(),
                past_line_4,
                "{:?}",
                case.lines().take(4).collect::<Vec<_>>()
            );
            past += usize::from(past_line_4);
        }
        assert!(past > 3 && past < cases.len(), "{past} of {}", cases.len());
    }

    #[test]
    fn gear_like_model_under_diff() {
        // Diff(base, union-of-teeth): the fold lives under a Diff, as in
        // the real gear.
        let teeth: Vec<Cad> = (1..=6)
            .map(|i| {
                Cad::rotate(
                    0.0,
                    0.0,
                    60.0 * i as f64,
                    Cad::translate(12.0, 0.0, 0.0, Cad::External("tooth".into())),
                )
            })
            .collect();
        let flat = Cad::diff(
            Cad::scale(10.0, 10.0, 2.0, Cad::Cylinder),
            Cad::union_chain(teeth),
        );
        let result = run(&flat, &SynthConfig::new());
        let (rank, prog) = result.structured().unwrap();
        let s = prog.cad.to_string();
        assert!(rank <= 5);
        assert!(
            s.contains("(Repeat (Translate 12 0 0 (External tooth)) 6)")
                || s.contains("(Repeat (External tooth) 6)"),
            "got {s}"
        );
        assert!(s.contains("(/ (* 360 (+ i 1)) 6)"), "got {s}");
        // The base stays outside the loop, under the Diff.
        assert!(s.starts_with("(Diff (Scale 10 10 2 Cylinder)"), "got {s}");
    }
}
