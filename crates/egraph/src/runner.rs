//! The equality-saturation [`Runner`]: iterates search → apply → rebuild
//! until saturation, a resource limit ("fuel"), a wall-clock deadline, or
//! a cooperative [`CancelToken`] stops it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sz_trace::Telemetry;

use crate::snapshot::SchedState;
use crate::{Analysis, EGraph, Id, Language, RecExpr, Rewrite, Scheduler, Snapshot, SnapshotError};

/// Why a [`Runner`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// No rule produced any new equivalence: the e-graph is saturated.
    Saturated,
    /// The iteration limit was reached.
    IterationLimit(usize),
    /// The e-node limit was reached.
    NodeLimit(usize),
    /// A [`CancelToken`] was triggered or a deadline
    /// ([`Runner::with_deadline`]) passed. Checked at iteration
    /// boundaries only: the e-graph is always left clean (rebuilt), so
    /// the partial result remains extractable.
    Cancelled,
}

/// A cooperative cancellation flag, shareable across threads.
///
/// Cancellation is *cooperative*: the [`Runner`] polls the token at
/// iteration boundaries, finishes the current iteration's apply/rebuild,
/// and stops with [`StopReason::Cancelled`] — it never tears mid-rebuild,
/// so the e-graph stays clean and extractable.
///
/// # Examples
///
/// ```
/// use sz_egraph::{CancelToken, Runner, Rewrite, StopReason, tests_lang::Arith};
/// let rules: Vec<Rewrite<Arith, ()>> =
///     vec![Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
/// let token = CancelToken::new();
/// token.cancel(); // e.g. from another thread
/// let runner = Runner::new(())
///     .with_expr(&"(+ 1 2)".parse().unwrap())
///     .with_cancel_token(token)
///     .run(&rules);
/// assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
/// assert!(runner.iterations.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Observer of saturation progress, called by the [`Runner`] at every
/// iteration boundary. `Send + Sync` so one observer can watch runs
/// fanned across worker threads (e.g. a batch progress bar).
pub trait ProgressObserver: Send + Sync {
    /// Called after each completed iteration with its 0-based *lifetime*
    /// index (continues counting past [`Runner::prior_iterations`], so a
    /// resumed run picks up where the snapshotted run stopped) and the
    /// iteration's statistics.
    fn on_iteration(&self, _lifetime_iteration: usize, _stats: &Iteration) {}

    /// Called once when a saturation run stops, with its stop reason.
    fn on_stop(&self, _reason: &StopReason) {}
}

/// Statistics for one saturation iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Number of e-nodes after this iteration.
    pub egraph_nodes: usize,
    /// Number of e-classes after this iteration.
    pub egraph_classes: usize,
    /// Per-rule activity this iteration, in rule order.
    pub rules: Vec<RuleIteration>,
    /// Rules skipped this iteration by the [`Scheduler`] (banned, or
    /// freshly throttled after an explosive search).
    pub banned: usize,
    /// Unions performed by congruence repair during rebuild.
    pub rebuild_unions: usize,
    /// Wall-clock time for the iteration.
    pub time: Duration,
}

/// One rule's activity within one [`Iteration`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleIteration {
    /// The rule name.
    pub name: String,
    /// Substitutions the searcher found (0 when skipped; still counted
    /// when the scheduler then discarded them).
    pub matches: usize,
    /// Classes newly unioned by applying those matches.
    pub applied: usize,
    /// Wall-clock time spent in the rule's searcher.
    pub search_time: Duration,
    /// Wall-clock time spent applying the rule's matches.
    pub apply_time: Duration,
    /// True when the [`Scheduler`] skipped the rule or discarded its
    /// matches this iteration.
    pub banned: bool,
}

/// A rule's totals across a whole [`Runner::run`] — the per-rule
/// search/apply profile surfaced by [`Runner::rule_totals`] and threaded
/// through the synthesis pipeline into batch reports and
/// `BENCH_ematch.json`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleStat {
    /// The rule name.
    pub name: String,
    /// Total substitutions found across iterations.
    pub matches: usize,
    /// Total classes newly unioned by this rule.
    pub applied: usize,
    /// Total searcher wall-clock time.
    pub search_time: Duration,
    /// Total apply wall-clock time.
    pub apply_time: Duration,
    /// How often the backoff scheduler banned this rule (0 under
    /// [`Scheduler::Simple`]).
    pub times_banned: usize,
}

impl RuleStat {
    /// Folds another stat (for the same rule) into this one.
    pub fn absorb(&mut self, other: &RuleStat) {
        self.matches += other.matches;
        self.applied += other.applied;
        self.search_time += other.search_time;
        self.apply_time += other.apply_time;
        self.times_banned += other.times_banned;
    }

    /// Folds `stats` into `totals` by rule name: a stat whose rule
    /// already has a total is [absorbed](RuleStat::absorb) into it, any
    /// other is appended. `totals` therefore keeps the order in which
    /// rules first appear, which is the order a snapshot persists its
    /// per-rule counts in.
    pub fn fold_by_name(totals: &mut Vec<RuleStat>, stats: impl IntoIterator<Item = RuleStat>) {
        for stat in stats {
            match totals.iter_mut().find(|t| t.name == stat.name) {
                Some(total) => total.absorb(&stat),
                None => totals.push(stat),
            }
        }
    }
}

/// Drives equality saturation, in the role of `apply_rws` inside Szalinski's
/// main loop (paper Fig. 5); the fuel argument there corresponds to the
/// limits here.
///
/// # Examples
///
/// ```
/// use sz_egraph::{Runner, Rewrite, tests_lang::Arith};
/// let rules: Vec<Rewrite<Arith, ()>> = vec![
///     Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
///     Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
/// ];
/// let runner = Runner::new(())
///     .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
///     .with_iter_limit(8)
///     .run(&rules);
/// assert!(runner.egraph.lookup_expr(&"(+ (+ 3 2) 1)".parse().unwrap()).is_some());
/// ```
pub struct Runner<L: Language, N: Analysis<L>> {
    /// The e-graph being saturated.
    pub egraph: EGraph<L, N>,
    /// Classes of the expressions added via [`Runner::with_expr`].
    pub roots: Vec<Id>,
    /// Per-iteration statistics.
    pub iterations: Vec<Iteration>,
    /// Why the run stopped (set by [`Runner::run`]).
    pub stop_reason: Option<StopReason>,
    /// Saturation iterations spent *before* this runner existed — set by
    /// [`Runner::resume_from`], zero otherwise. [`Runner::iterations`]
    /// only records this run's iterations; a resumed run's lifetime total
    /// is `prior_iterations + iterations.len()`.
    pub prior_iterations: usize,
    /// True when this runner was rebuilt from a snapshot
    /// ([`Runner::resume_from`]): gates resume-only behavior such as the
    /// immediate over-node-limit stop. `prior_iterations` cannot stand
    /// in for it: a snapshot may record zero iterations, and callers may
    /// set the public field themselves.
    resumed: bool,
    iter_limit: usize,
    node_limit: usize,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    progress: Option<Arc<dyn ProgressObserver>>,
    scheduler: Scheduler,
    telemetry: Telemetry,
}

impl<L: Language, N: Analysis<L>> Runner<L, N> {
    /// Creates a runner with an empty e-graph and default limits
    /// (30 iterations, 100 000 nodes). Only these limits decide where a
    /// run stops; the one wall-clock bound, [`Runner::with_deadline`], is
    /// opt-in and reports [`StopReason::Cancelled`].
    pub fn new(analysis: N) -> Self {
        Runner {
            egraph: EGraph::new(analysis),
            roots: Vec::new(),
            iterations: Vec::new(),
            stop_reason: None,
            prior_iterations: 0,
            resumed: false,
            iter_limit: 30,
            node_limit: 100_000,
            deadline: None,
            cancel: None,
            progress: None,
            scheduler: Scheduler::Simple,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Uses an existing e-graph (e.g. mid-pipeline) instead of a fresh one.
    pub fn with_egraph(mut self, egraph: EGraph<L, N>) -> Self {
        self.egraph = egraph;
        self
    }

    /// Rebuilds a runner from a [`Snapshot`]: the e-graph, roots,
    /// iteration count, and scheduler backoff state are restored, so a
    /// subsequent [`Runner::run`] continues saturating where the
    /// snapshotted run stopped instead of starting cold.
    ///
    /// Limits are reset to the defaults; re-apply `with_*` as needed.
    /// `N::Data: Default` is required because analysis data is
    /// recomputed from the snapshotted nodes (see
    /// [`Snapshot::restore`]).
    pub fn resume_from(snapshot: &Snapshot<L>, analysis: N) -> Self
    where
        N::Data: Default,
    {
        let mut runner = Runner::new(analysis);
        runner.egraph = snapshot.restore(runner.egraph.analysis);
        runner.roots = snapshot.roots().to_vec();
        runner.prior_iterations = snapshot.iterations();
        runner.resumed = true;
        runner.scheduler = match &snapshot.scheduler {
            SchedState::Simple => Scheduler::Simple,
            SchedState::Backoff {
                match_limit,
                ban_length,
                stats,
            } => Scheduler::restore_state(*match_limit, *ban_length, stats.clone()),
        };
        runner
    }

    /// Captures this runner's state as a serializable [`Snapshot`]:
    /// e-graph, roots, lifetime iteration count, and scheduler state.
    ///
    /// Backoff `banned_until` values are live in *this run's* iteration
    /// frame, while a resumed run numbers its iterations from 0 again —
    /// so they are rebased to "iterations past this run's end" on
    /// capture. [`Runner::resume_from`] then reads them directly: a rule
    /// banned for 5 more iterations at snapshot time stays banned for
    /// exactly the first 5 resumed iterations.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotClean`] if the e-graph has pending mutations
    /// (cannot happen after [`Runner::run`], which always rebuilds).
    pub fn snapshot(&self) -> Result<Snapshot<L>, SnapshotError> {
        let mut snapshot = Snapshot::of_egraph(&self.egraph, &self.roots)?
            .with_iterations(self.prior_iterations + self.iterations.len());
        let this_run = self.iterations.len();
        snapshot.scheduler = match self.scheduler.dump_state() {
            None => SchedState::Simple,
            Some((match_limit, ban_length, stats)) => SchedState::Backoff {
                match_limit,
                ban_length,
                stats: stats
                    .into_iter()
                    .map(|(times_banned, banned_until)| {
                        (times_banned, banned_until.saturating_sub(this_run))
                    })
                    .collect(),
            },
        };
        Ok(snapshot)
    }

    /// Adds an expression whose class becomes a root.
    pub fn with_expr(mut self, expr: &RecExpr<L>) -> Self {
        let id = self.egraph.add_expr(expr);
        self.roots.push(id);
        self
    }

    /// Sets the iteration limit.
    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    /// Sets the e-node limit.
    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    /// Sets an absolute wall-clock deadline, the runner's only
    /// wall-clock bound. Passing it reports [`StopReason::Cancelled`]: it
    /// models an *external* bound (a serving deadline), not this run's
    /// fuel, so a run it stops is not the deterministic product of the
    /// limits. Checked at iteration boundaries; the e-graph is left
    /// clean.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a cooperative [`CancelToken`], polled at iteration
    /// boundaries; when triggered the run stops with
    /// [`StopReason::Cancelled`].
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a [`ProgressObserver`] notified after every iteration
    /// and once on stop.
    pub fn with_progress(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.progress = Some(observer);
        self
    }

    /// Attaches a [`Telemetry`] bundle (default:
    /// [`Telemetry::disabled`], which costs one branch per
    /// instrumentation point — no clock reads, no allocation). When
    /// enabled, [`Runner::run`] emits per-iteration spans
    /// (`runner/iteration` with nested `runner/search`, `runner/apply`,
    /// `runner/rebuild`), one `rule/<name>` span per searched rule
    /// carrying its match count (so span totals agree with
    /// [`RuleStat`]s), and `egraph.nodes` / `egraph.classes` /
    /// `egraph.memo` gauges after every rebuild.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the rule scheduler (default: [`Scheduler::Simple`]).
    ///
    /// [`Scheduler::backoff`] throttles rules whose match counts explode
    /// — with it, a quiet iteration while rules are banned does not count
    /// as saturation.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Per-rule totals across every recorded iteration of this run:
    /// matches found, classes unioned, search/apply wall-clock time, and
    /// (under the backoff scheduler) how often the rule was banned.
    pub fn rule_totals(&self) -> Vec<RuleStat> {
        let Some(first) = self.iterations.first() else {
            return Vec::new();
        };
        let mut totals: Vec<RuleStat> = first
            .rules
            .iter()
            .map(|r| RuleStat {
                name: r.name.clone(),
                ..RuleStat::default()
            })
            .collect();
        for iteration in &self.iterations {
            for (total, report) in totals.iter_mut().zip(&iteration.rules) {
                total.matches += report.matches;
                total.applied += report.applied;
                total.search_time += report.search_time;
                total.apply_time += report.apply_time;
            }
        }
        if let Some((_, _, stats)) = self.scheduler.dump_state() {
            for (total, (times_banned, _)) in totals.iter_mut().zip(stats) {
                total.times_banned = times_banned;
            }
        }
        totals
    }

    /// Runs equality saturation with `rules` until saturation or a limit.
    ///
    /// Sets [`Runner::stop_reason`] and records [`Runner::iterations`]
    /// (including per-rule [`RuleIteration`] search/apply profiles).
    ///
    /// The e-graph is rebuilt before the first search phase and after
    /// every apply phase — this is the automatic enforcement of the
    /// searchers' clean-graph contract, so runner users can never trip
    /// the dirty-graph debug assertion in [`Pattern::search`](crate::Pattern::search).
    ///
    /// Cancellation ([`Runner::with_cancel_token`]) and deadlines
    /// ([`Runner::with_deadline`]) are checked here too, *before* each
    /// iteration: a triggered token or passed deadline stops the run
    /// with [`StopReason::Cancelled`] while the e-graph is clean, so
    /// extraction over the partial result is always possible. All limit
    /// checks happen at iteration boundaries; nothing interrupts an
    /// iteration mid-flight.
    pub fn run(mut self, rules: &[Rewrite<L, N>]) -> Self {
        self.egraph.rebuild();
        self.scheduler.ensure_rules(rules.len());
        loop {
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
                || self.deadline.is_some_and(|d| Instant::now() >= d)
            {
                self.stop_reason = Some(StopReason::Cancelled);
                break;
            }
            if self.iterations.len() >= self.iter_limit {
                self.stop_reason = Some(StopReason::IterationLimit(self.iter_limit));
                break;
            }
            // A *resumed* graph already over the node limit (the
            // producing run stopped at its node limit) must not saturate
            // further: the cold run it mirrors stopped at exactly this
            // state. Gated on `resumed` so cold runs keep their
            // historical behavior (one iteration even when the entry
            // graph is over the limit) and persisted program caches
            // stay valid across this release.
            if self.resumed && self.egraph.total_number_of_nodes() > self.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.node_limit));
                break;
            }
            let iteration = self.iterations.len();
            let iter_start = Instant::now();
            let traced = self.telemetry.tracer.is_enabled();
            let mut iter_span = self.telemetry.span("runner", "iteration");
            iter_span.arg_i64("iter", (self.prior_iterations + iteration) as i64);

            // Search phase: collect all matches before applying any, so
            // rules see a consistent e-graph. The scheduler may skip
            // banned rules or throw away an explosive rule's matches
            // (banning it for the next iterations). Per-rule search time
            // and match counts are recorded either way.
            let mut banned = 0usize;
            let mut all_matches = Vec::with_capacity(rules.len());
            let mut rule_reports = Vec::with_capacity(rules.len());
            let search_span = self.telemetry.span("runner", "search");
            for (i, rule) in rules.iter().enumerate() {
                let mut report = RuleIteration {
                    name: rule.name().to_owned(),
                    matches: 0,
                    applied: 0,
                    search_time: Duration::ZERO,
                    apply_time: Duration::ZERO,
                    banned: false,
                };
                if !self.scheduler.can_search(iteration, i) {
                    banned += 1;
                    report.banned = true;
                    all_matches.push(None);
                    rule_reports.push(report);
                    continue;
                }
                let mut rule_span =
                    traced.then(|| self.telemetry.span("rule", rule.name().to_owned()));
                let search_start = Instant::now();
                let matches = rule.search(&self.egraph);
                report.search_time = search_start.elapsed();
                let n: usize = matches.iter().map(|m| m.substs.len()).sum();
                report.matches = n;
                if let Some(span) = &mut rule_span {
                    span.arg_i64("matches", n as i64);
                }
                if self.scheduler.admit(iteration, i, n) {
                    all_matches.push(Some(matches));
                } else {
                    banned += 1;
                    report.banned = true;
                    all_matches.push(None);
                }
                rule_reports.push(report);
            }
            drop(search_span);

            // Apply phase.
            let apply_span = self.telemetry.span("runner", "apply");
            let mut any_change = false;
            for ((rule, matches), report) in rules.iter().zip(&all_matches).zip(&mut rule_reports) {
                let Some(matches) = matches else { continue };
                let apply_start = Instant::now();
                let changed = rule.apply(&mut self.egraph, matches);
                report.apply_time = apply_start.elapsed();
                report.applied = changed.len();
                if !changed.is_empty() {
                    any_change = true;
                }
            }
            drop(apply_span);

            let rebuild_span = self.telemetry.span("runner", "rebuild");
            let rebuild_unions = self.egraph.rebuild();
            drop(rebuild_span);
            any_change |= rebuild_unions > 0;

            if self.telemetry.metrics.is_enabled() {
                self.telemetry.metrics.counter_add("runner.iterations", 1);
                self.telemetry
                    .metrics
                    .gauge_set("egraph.nodes", self.egraph.total_number_of_nodes() as i64);
                self.telemetry
                    .metrics
                    .gauge_set("egraph.classes", self.egraph.number_of_classes() as i64);
                self.telemetry
                    .metrics
                    .gauge_set("egraph.memo", self.egraph.memo_size() as i64);
            }

            self.iterations.push(Iteration {
                egraph_nodes: self.egraph.total_number_of_nodes(),
                egraph_classes: self.egraph.number_of_classes(),
                rules: rule_reports,
                banned,
                rebuild_unions,
                time: iter_start.elapsed(),
            });
            if let Some(progress) = &self.progress {
                progress.on_iteration(
                    self.prior_iterations + self.iterations.len() - 1,
                    self.iterations.last().expect("just pushed"),
                );
            }

            if !any_change && banned == 0 && !self.scheduler.any_banned(iteration + 1) {
                // Only a full, unthrottled quiet iteration proves
                // saturation; banned rules may still add equalities later.
                self.stop_reason = Some(StopReason::Saturated);
                break;
            }
            if self.egraph.total_number_of_nodes() > self.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.node_limit));
                break;
            }
        }
        if let (Some(progress), Some(reason)) = (&self.progress, &self.stop_reason) {
            progress.on_stop(reason);
        }
        self
    }
}

impl<L: Language, N: Analysis<L>> std::fmt::Debug for Runner<L, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("egraph", &self.egraph)
            .field("roots", &self.roots)
            .field("iterations", &self.iterations.len())
            .field("stop_reason", &self.stop_reason)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;

    fn rules() -> Vec<Rewrite<Arith, ()>> {
        vec![
            Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap(),
            Rewrite::parse("comm-mul", "(* ?a ?b)", "(* ?b ?a)").unwrap(),
            Rewrite::parse("assoc-add", "(+ ?a (+ ?b ?c))", "(+ (+ ?a ?b) ?c)").unwrap(),
            Rewrite::parse("distr", "(* ?a (+ ?b ?c))", "(+ (* ?a ?b) (* ?a ?c))").unwrap(),
        ]
    }

    #[test]
    fn saturates_small_input() {
        let runner = Runner::new(())
            .with_expr(&"(+ a b)".parse().unwrap())
            .run(&rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        assert!(runner
            .egraph
            .lookup_expr(&"(+ b a)".parse().unwrap())
            .is_some());
    }

    #[test]
    fn proves_distributivity_equality() {
        let runner = Runner::new(())
            .with_expr(&"(* 3 (+ x y))".parse().unwrap())
            .with_expr(&"(+ (* 3 y) (* 3 x))".parse().unwrap())
            .with_iter_limit(10)
            .run(&rules());
        let eg = &runner.egraph;
        assert_eq!(eg.find(runner.roots[0]), eg.find(runner.roots[1]));
    }

    #[test]
    fn iteration_limit_respected() {
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d e))))".parse().unwrap())
            .with_iter_limit(1)
            .run(&rules());
        assert_eq!(runner.stop_reason, Some(StopReason::IterationLimit(1)));
        assert_eq!(runner.iterations.len(), 1);
    }

    #[test]
    fn node_limit_respected() {
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap())
            .with_node_limit(20)
            .run(&rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::NodeLimit(20))
        ));
    }

    #[test]
    fn iterations_record_rule_activity() {
        let runner = Runner::new(())
            .with_expr(&"(+ 1 2)".parse().unwrap())
            .run(&rules());
        let first = &runner.iterations[0];
        let comm = first.rules.iter().find(|r| r.name == "comm-add").unwrap();
        assert!(comm.matches > 0);
        assert!(comm.applied > 0);
        assert!(!comm.banned);
    }

    #[test]
    fn rule_totals_aggregate_across_iterations() {
        let runner = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
            .with_iter_limit(5)
            .run(&rules());
        let totals = runner.rule_totals();
        assert_eq!(totals.len(), rules().len());
        let comm = totals.iter().find(|t| t.name == "comm-add").unwrap();
        let per_iter: usize = runner
            .iterations
            .iter()
            .map(|it| {
                it.rules
                    .iter()
                    .find(|r| r.name == "comm-add")
                    .unwrap()
                    .matches
            })
            .sum();
        assert_eq!(comm.matches, per_iter);
        assert!(comm.matches > 0);
        assert!(comm.applied > 0);
        assert_eq!(comm.times_banned, 0);
    }

    #[test]
    fn rule_totals_report_backoff_bans() {
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d e))))".parse().unwrap())
            .with_iter_limit(4)
            .with_scheduler(Scheduler::backoff_with(1, 2))
            .run(&rules());
        let totals = runner.rule_totals();
        assert!(
            totals.iter().any(|t| t.times_banned > 0),
            "tight match limit must ban at least one rule"
        );
    }

    #[test]
    fn backoff_throttles_explosive_rules() {
        // Assoc/comm over a deep sum explodes; with a tight match limit
        // the scheduler must ban rules (recorded per iteration) and keep
        // the graph smaller than the unthrottled run at equal fuel.
        let expr: crate::RecExpr<Arith> = "(+ a (+ b (+ c (+ d (+ e (+ f (+ g h)))))))"
            .parse()
            .unwrap();
        let plain = Runner::new(())
            .with_expr(&expr)
            .with_iter_limit(6)
            .with_node_limit(1_000_000)
            .run(&rules());
        let throttled = Runner::new(())
            .with_expr(&expr)
            .with_iter_limit(6)
            .with_node_limit(1_000_000)
            .with_scheduler(Scheduler::backoff_with(32, 2))
            .run(&rules());
        assert!(
            throttled.iterations.iter().any(|it| it.banned > 0),
            "tight limit must ban at least one rule"
        );
        assert!(
            throttled.egraph.total_number_of_nodes() < plain.egraph.total_number_of_nodes(),
            "throttled {} !< plain {}",
            throttled.egraph.total_number_of_nodes(),
            plain.egraph.total_number_of_nodes()
        );
    }

    #[test]
    fn backoff_still_saturates_small_inputs() {
        // On a tiny input nothing exceeds the default limits: behavior
        // (and the saturation verdict) must match the simple scheduler.
        let runner = Runner::new(())
            .with_expr(&"(+ a b)".parse().unwrap())
            .with_scheduler(Scheduler::backoff())
            .run(&rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Saturated));
        assert!(runner
            .egraph
            .lookup_expr(&"(+ b a)".parse().unwrap())
            .is_some());
        assert!(runner.iterations.iter().all(|it| it.banned == 0));
    }

    #[test]
    fn snapshot_rebases_bans_to_remaining_iterations() {
        // A mid-ban snapshot must store bans as "iterations remaining",
        // because a resumed run numbers iterations from 0 again; stored
        // absolute values would over-ban rules by the whole prior run.
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d e))))".parse().unwrap())
            .with_iter_limit(2)
            .with_scheduler(Scheduler::backoff_with(1, 50))
            .run(&rules());
        let this_run = runner.iterations.len();
        let (_, _, live) = runner.scheduler.dump_state().unwrap();
        assert!(
            live.iter().any(|&(_, until)| until > this_run),
            "test needs a rule still banned at snapshot time"
        );
        let snapshot = runner.snapshot().unwrap();
        let SchedState::Backoff { stats, .. } = &snapshot.scheduler else {
            panic!("backoff state must survive snapshotting");
        };
        for ((times, until), &(live_times, live_until)) in stats.iter().zip(&live) {
            assert_eq!(*times, live_times);
            assert_eq!(*until, live_until.saturating_sub(this_run));
        }
        // The resumed runner starts with exactly the remaining ban: a
        // still-banned rule cannot search at iteration 0 but can at the
        // first iteration past its remaining ban.
        let resumed = Runner::resume_from(&snapshot, ());
        for (rule, &(_, until)) in live.iter().enumerate() {
            let remaining = until.saturating_sub(this_run);
            if remaining > 0 {
                assert!(!resumed.scheduler.can_search(0, rule));
            }
            assert!(resumed.scheduler.can_search(remaining, rule));
        }
    }

    #[test]
    fn cancel_token_stops_before_first_iteration() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d e))))".parse().unwrap())
            .with_cancel_token(token)
            .run(&rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert!(runner.iterations.is_empty());
        // The graph is clean and intact: extraction over it would work.
        assert!(runner.egraph.number_of_classes() > 0);
    }

    #[test]
    fn cancel_mid_run_stops_at_iteration_boundary() {
        // An observer that cancels after the first iteration: the run
        // must record exactly one iteration, then stop Cancelled.
        struct CancelAfterOne(CancelToken);
        impl ProgressObserver for CancelAfterOne {
            fn on_iteration(&self, _i: usize, _stats: &Iteration) {
                self.0.cancel();
            }
        }
        let token = CancelToken::new();
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap())
            .with_iter_limit(50)
            .with_cancel_token(token.clone())
            .with_progress(std::sync::Arc::new(CancelAfterOne(token)))
            .run(&rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert_eq!(runner.iterations.len(), 1);
    }

    #[test]
    fn past_deadline_stops_with_cancelled() {
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b c))".parse().unwrap())
            .with_deadline(Instant::now() - Duration::from_millis(1))
            .run(&rules());
        assert_eq!(runner.stop_reason, Some(StopReason::Cancelled));
        assert!(runner.iterations.is_empty());
    }

    #[test]
    fn progress_observer_sees_every_iteration_and_the_stop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        #[derive(Default)]
        struct Recorder {
            iterations: AtomicUsize,
            last_index: AtomicUsize,
            stop: Mutex<Option<StopReason>>,
        }
        impl ProgressObserver for Recorder {
            fn on_iteration(&self, lifetime_iteration: usize, stats: &Iteration) {
                self.iterations.fetch_add(1, Ordering::Relaxed);
                self.last_index.store(lifetime_iteration, Ordering::Relaxed);
                assert!(!stats.rules.is_empty());
            }
            fn on_stop(&self, reason: &StopReason) {
                *self.stop.lock().unwrap() = Some(reason.clone());
            }
        }
        let recorder = std::sync::Arc::new(Recorder::default());
        let runner = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
            .with_iter_limit(5)
            .with_progress(recorder.clone())
            .run(&rules());
        assert_eq!(
            recorder.iterations.load(Ordering::Relaxed),
            runner.iterations.len()
        );
        assert_eq!(
            recorder.last_index.load(Ordering::Relaxed),
            runner.iterations.len() - 1
        );
        assert_eq!(*recorder.stop.lock().unwrap(), runner.stop_reason);
    }

    #[test]
    fn resume_over_node_limit_stops_immediately() {
        // A resumed graph already past the node limit must not run even
        // one more iteration — a cold run at the same limit would have
        // stopped at exactly the snapshotted state.
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b (+ c (+ d (+ e (+ f g))))))".parse().unwrap())
            .with_node_limit(20)
            .run(&rules());
        assert!(matches!(
            runner.stop_reason,
            Some(StopReason::NodeLimit(20))
        ));
        let nodes = runner.egraph.total_number_of_nodes();
        assert!(nodes > 20);
        let snapshot = runner.snapshot().unwrap();
        let resumed = Runner::resume_from(&snapshot, ())
            .with_node_limit(20)
            .with_iter_limit(50)
            .run(&rules());
        assert!(matches!(
            resumed.stop_reason,
            Some(StopReason::NodeLimit(20))
        ));
        assert!(resumed.iterations.is_empty());
        assert_eq!(resumed.egraph.total_number_of_nodes(), nodes);
    }

    #[test]
    fn telemetry_spans_agree_with_rule_stats() {
        use sz_trace::ArgValue;
        let telemetry = Telemetry::deterministic(1);
        let runner = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
            .with_iter_limit(5)
            .with_telemetry(telemetry.clone())
            .run(&rules());
        let events = telemetry.tracer.events();
        // One iteration span per recorded iteration, with nested phases.
        let iters = events
            .iter()
            .filter(|s| s.cat == "runner" && s.name == "iteration")
            .count();
        assert_eq!(iters, runner.iterations.len());
        for phase in ["search", "apply", "rebuild"] {
            let n = events
                .iter()
                .filter(|s| s.cat == "runner" && s.name == phase)
                .count();
            assert_eq!(n, runner.iterations.len(), "one {phase} span per iteration");
        }
        // Per-rule span match counts sum to the RuleStat totals, so the
        // trace view and the profile view agree.
        for stat in runner.rule_totals() {
            let span_matches: i64 = events
                .iter()
                .filter(|s| s.cat == "rule" && s.name == stat.name)
                .flat_map(|s| &s.args)
                .filter_map(|(k, v)| match v {
                    ArgValue::Int(n) if *k == "matches" => Some(*n),
                    _ => None,
                })
                .sum();
            assert_eq!(span_matches as usize, stat.matches, "rule {}", stat.name);
        }
        // Gauges track the final graph shape.
        assert_eq!(
            telemetry.metrics.gauge("egraph.nodes"),
            Some(runner.egraph.total_number_of_nodes() as i64)
        );
        assert_eq!(
            telemetry.metrics.gauge("egraph.classes"),
            Some(runner.egraph.number_of_classes() as i64)
        );
        assert_eq!(
            telemetry.metrics.gauge("egraph.memo"),
            Some(runner.egraph.memo_size() as i64)
        );
        assert_eq!(
            telemetry.metrics.counter("runner.iterations"),
            runner.iterations.len() as u64
        );
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let plain = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
            .with_iter_limit(5)
            .run(&rules());
        let traced = Runner::new(())
            .with_expr(&"(+ 1 (+ 2 3))".parse().unwrap())
            .with_iter_limit(5)
            .with_telemetry(Telemetry::disabled())
            .run(&rules());
        assert_eq!(plain.stop_reason, traced.stop_reason);
        assert_eq!(plain.iterations.len(), traced.iterations.len());
        assert_eq!(
            plain.egraph.total_number_of_nodes(),
            traced.egraph.total_number_of_nodes()
        );
    }

    #[test]
    fn quiet_iteration_with_bans_is_not_saturation() {
        // Force a ban, then check the runner does not report Saturated
        // while the ban is pending even if an iteration applies nothing.
        let runner = Runner::new(())
            .with_expr(&"(+ a (+ b c))".parse().unwrap())
            .with_iter_limit(50)
            .with_scheduler(Scheduler::backoff_with(1, 3))
            .run(&rules());
        match runner.stop_reason {
            Some(StopReason::Saturated) => {
                // If it did saturate, the final iteration must have been
                // fully unthrottled.
                let last = runner.iterations.last().unwrap();
                assert_eq!(last.banned, 0);
            }
            Some(StopReason::IterationLimit(_)) => {}
            other => panic!("unexpected stop reason {other:?}"),
        }
    }
}
