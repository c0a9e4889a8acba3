//! The saturation loop `Runner::run` ran before delta matching, kept as the
//! differential oracle for it: every iteration every rule that may run
//! searches the whole graph (`Rewrite::search`) and applies every match
//! (`Rewrite::apply`), then the graph is rebuilt. The backoff scheduler is
//! a copy of the runner's, so bans and the stop reason can be compared.
//!
//! Shared by `tests/saturation_differential.rs` through a `#[path]` module.

#![allow(dead_code)]

use sz_egraph::{Analysis, EGraph, Id, Language, RecExpr, Rewrite, Snapshot, StopReason};

/// A copy of the runner's backoff scheduler state: the match limit, the
/// ban length and per rule `(times_banned, banned_until)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    pub match_limit: usize,
    pub ban_length: usize,
    pub stats: Vec<(usize, usize)>,
}

impl Backoff {
    /// `Scheduler::backoff_with(match_limit, ban_length)`.
    pub fn new(match_limit: usize, ban_length: usize) -> Self {
        Backoff {
            match_limit: match_limit.max(1),
            ban_length: ban_length.max(1),
            stats: Vec::new(),
        }
    }

    /// `Scheduler::backoff()`.
    pub fn egg_default() -> Self {
        Backoff::new(1000, 5)
    }

    fn shl(x: usize, shift: usize) -> usize {
        if shift >= usize::BITS as usize || x.leading_zeros() < shift as u32 {
            usize::MAX
        } else {
            x << shift
        }
    }

    fn can_search(&self, iteration: usize, rule: usize) -> bool {
        self.stats[rule].1 <= iteration
    }

    fn admit(&mut self, iteration: usize, rule: usize, n: usize) -> bool {
        let (times, until) = &mut self.stats[rule];
        if n > Self::shl(self.match_limit, *times) {
            let ban = Self::shl(self.ban_length, *times);
            *times += 1;
            *until = iteration + 1 + ban;
            false
        } else {
            true
        }
    }

    fn any_banned(&self, iteration: usize) -> bool {
        self.stats.iter().any(|&(_, until)| until > iteration)
    }

    /// The state a snapshot taken after `this_run` iterations carries: bans
    /// rebased to iterations past the run's end.
    pub fn rebased(&self, this_run: usize) -> Self {
        Backoff {
            stats: self
                .stats
                .iter()
                .map(|&(times, until)| (times, until.saturating_sub(this_run)))
                .collect(),
            ..self.clone()
        }
    }
}

/// One rule's activity within one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleActivity {
    pub matches: usize,
    pub applied: usize,
    pub banned: bool,
}

/// The old full-search runner.
pub struct FullRunner<L: Language, N: Analysis<L>> {
    pub egraph: EGraph<L, N>,
    pub roots: Vec<Id>,
    /// Per iteration, per rule in rule order.
    pub iterations: Vec<Vec<RuleActivity>>,
    pub stop_reason: Option<StopReason>,
    pub prior_iterations: usize,
    pub backoff: Option<Backoff>,
    resumed: bool,
    iter_limit: usize,
    node_limit: usize,
}

impl<L: Language, N: Analysis<L>> FullRunner<L, N> {
    /// A cold runner over `expr` with the runner's default limits.
    pub fn new(analysis: N, expr: &RecExpr<L>) -> Self {
        let mut egraph = EGraph::new(analysis);
        let root = egraph.add_expr(expr);
        Self::with_egraph(egraph, vec![root])
    }

    /// A cold runner over an existing graph.
    pub fn with_egraph(egraph: EGraph<L, N>, roots: Vec<Id>) -> Self {
        FullRunner {
            egraph,
            roots,
            iterations: Vec::new(),
            stop_reason: None,
            prior_iterations: 0,
            backoff: None,
            resumed: false,
            iter_limit: 30,
            node_limit: 100_000,
        }
    }

    /// A runner resumed from `snapshot` with the given scheduler state
    /// (the oracle's own, rebased, since the snapshot's is private).
    pub fn resume_from(snapshot: &Snapshot<L>, analysis: N, backoff: Option<Backoff>) -> Self
    where
        N::Data: Default,
    {
        let mut runner = Self::with_egraph(snapshot.restore(analysis), snapshot.roots().to_vec());
        runner.prior_iterations = snapshot.iterations();
        runner.resumed = true;
        runner.backoff = backoff;
        runner
    }

    pub fn with_iter_limit(mut self, limit: usize) -> Self {
        self.iter_limit = limit;
        self
    }

    pub fn with_node_limit(mut self, limit: usize) -> Self {
        self.node_limit = limit;
        self
    }

    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// The graph part of `Runner::snapshot`: graph, roots and lifetime
    /// iteration count.
    pub fn snapshot(&self) -> Snapshot<L> {
        Snapshot::of_egraph(&self.egraph, &self.roots)
            .expect("the graph is clean after a run")
            .with_iterations(self.prior_iterations + self.iterations.len())
    }

    /// Saturates until saturation or a limit, searching and applying in
    /// full every iteration.
    pub fn run(mut self, rules: &[Rewrite<L, N>]) -> Self {
        self.egraph.rebuild();
        if let Some(b) = &mut self.backoff {
            b.stats.resize(rules.len(), (0, 0));
        }
        loop {
            if self.iterations.len() >= self.iter_limit {
                self.stop_reason = Some(StopReason::IterationLimit(self.iter_limit));
                break;
            }
            if self.resumed && self.egraph.total_number_of_nodes() > self.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.node_limit));
                break;
            }
            let iteration = self.iterations.len();
            let mut banned = 0usize;
            let mut activity = Vec::with_capacity(rules.len());
            let mut all_matches = Vec::with_capacity(rules.len());
            for (i, rule) in rules.iter().enumerate() {
                let mut report = RuleActivity {
                    matches: 0,
                    applied: 0,
                    banned: false,
                };
                if self
                    .backoff
                    .as_ref()
                    .is_some_and(|b| !b.can_search(iteration, i))
                {
                    banned += 1;
                    report.banned = true;
                    all_matches.push(None);
                    activity.push(report);
                    continue;
                }
                let matches = rule.search(&self.egraph);
                let n: usize = matches.iter().map(|m| m.substs.len()).sum();
                report.matches = n;
                let admitted = match &mut self.backoff {
                    Some(b) => b.admit(iteration, i, n),
                    None => true,
                };
                if admitted {
                    all_matches.push(Some(matches));
                } else {
                    banned += 1;
                    report.banned = true;
                    all_matches.push(None);
                }
                activity.push(report);
            }
            let mut any_change = false;
            for ((rule, matches), report) in rules.iter().zip(&all_matches).zip(&mut activity) {
                let Some(matches) = matches else { continue };
                let changed = rule.apply(&mut self.egraph, matches);
                report.applied = changed.len();
                any_change |= !changed.is_empty();
            }
            any_change |= self.egraph.rebuild() > 0;
            self.iterations.push(activity);
            let any_banned = self
                .backoff
                .as_ref()
                .is_some_and(|b| b.any_banned(iteration + 1));
            if !any_change && banned == 0 && !any_banned {
                self.stop_reason = Some(StopReason::Saturated);
                break;
            }
            if self.egraph.total_number_of_nodes() > self.node_limit {
                self.stop_reason = Some(StopReason::NodeLimit(self.node_limit));
                break;
            }
        }
        self
    }
}
