//! A compiled e-matching virtual machine, in the style of egg (Willsey et
//! al. 2021) and de Moura & Bjørner's "Efficient E-Matching for SMT
//! Solvers".
//!
//! [`Pattern::search`](crate::Pattern::search) re-walks the pattern AST
//! against every e-node of every e-class on every call. For saturation,
//! where every rule searches on every iteration, that interpretive overhead
//! dominates. This module compiles each pattern **once** into a linear
//! [`Program`] of three instructions over a register file of e-class ids:
//!
//! * [`Bind`](Instruction::Bind) — enumerate the e-nodes of the class in
//!   register `i` whose operator matches, writing each candidate's children
//!   into registers `out..`; the only backtracking point;
//! * [`Compare`](Instruction::Compare) — require two registers to name the
//!   same e-class (non-linear patterns such as `(+ ?a ?a)`);
//! * [`Lookup`](Instruction::Lookup) — require the register to be the class
//!   of a fully *ground* subterm, resolved once per search through the
//!   hash-cons memo instead of structurally re-matched per class.
//!
//! A [`CompiledPattern`] pairs the program with its source pattern and is
//! the matcher every [`Rewrite`](crate::Rewrite) holds. Root candidates
//! come from the e-graph's operator index ([`EGraph::classes_with_op`]): a
//! rule only visits classes that actually contain its root operator,
//! instead of scanning every class. `add` appends to the index and
//! `rebuild` re-canonicalizes only the lists a union made stale.
//!
//! A search allocates one register file and one match buffer and reuses
//! them for every candidate class; [`Subst`]s keep their bindings inline,
//! so the only per-class allocation is the exactly-sized match list of a
//! class that matched.
//!
//! Saturation searches incrementally. A root's matches read only the
//! classes within the pattern's [`depth`](CompiledPattern::depth) of it, so
//! after a rebuild the [`Runner`](crate::Runner) re-runs the VM only at
//! roots within that many parent steps of a class the rebuild touched, and
//! carries every other root's entry over from the previous iteration's
//! list, in the same ascending order. The full search is the same routine
//! with no previous list.
//!
//! The naive matcher ([`Pattern::search`]) is retained only as the
//! reference implementation: the differential suites in
//! `crates/egraph/tests/ematch_machine.rs` and the workspace's
//! `tests/ematch_differential.rs` prove both matchers produce identical
//! [`SearchMatches`] on every rule.

use std::fmt;

use crate::pattern::ENodeOrVar;
use crate::{Analysis, EGraph, Id, Language, Pattern, RecExpr, SearchMatches, Subst, Var};

/// An index into the VM's register file.
type Reg = usize;

/// One VM instruction; see the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Instruction<L> {
    /// Try every e-node in class `regs[i]` whose operator matches `node`
    /// ([`Language::matches`]), writing its children into `regs[out..]`.
    Bind { node: L, i: Reg, out: Reg },
    /// Require `regs[i]` and `regs[j]` to be the same e-class.
    Compare { i: Reg, j: Reg },
    /// Require `regs[i]` to be the class of ground term `ground` (an index
    /// into [`Program::ground`], resolved once per search).
    Lookup { ground: usize, i: Reg },
}

/// A pattern compiled into a linear e-matching program.
///
/// Build one with [`Program::compile`]; execute it through
/// [`CompiledPattern`]. Instructions are emitted in pre-order over the
/// pattern AST, so variable first-occurrence order — and therefore the
/// binding order inside each produced [`Subst`] — is identical to the
/// naive matcher's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program<L> {
    insts: Vec<Instruction<L>>,
    /// Maximal variable-free subterms, resolved via one hash-cons lookup
    /// per search instead of structural matching per candidate class.
    ground: Vec<RecExpr<L>>,
    /// `(var, register)` in first-occurrence order; the substitution
    /// template applied at every accepting machine state.
    subst: Vec<(Var, Reg)>,
    /// The root operator (children zeroed by the e-graph's op index), or
    /// `None` when the root is a variable and every class is a candidate.
    root_op: Option<L>,
    /// The deepest pattern position a match reads, counting variables and
    /// ground anchors: a root's matches depend only on the classes within
    /// this many child steps of it.
    depth: usize,
}

impl<L: Language> Program<L> {
    /// Compiles `pattern` into a linear program.
    pub fn compile(pattern: &Pattern<L>) -> Self {
        let ast = pattern.ast();
        // Which pattern nodes contain a variable (post-order pass): the
        // complement is the set of ground subterms eligible for `Lookup`.
        let mut has_var = vec![false; ast.len()];
        for (id, node) in ast.iter() {
            has_var[usize::from(id)] = match node {
                ENodeOrVar::Var(_) => true,
                ENodeOrVar::ENode(n) => n.children().iter().any(|c| has_var[usize::from(*c)]),
            };
        }
        let mut program = Program {
            insts: Vec::new(),
            ground: Vec::new(),
            subst: Vec::new(),
            root_op: match &ast[ast.root()] {
                ENodeOrVar::ENode(n) => Some(n.clone()),
                ENodeOrVar::Var(_) => None,
            },
            depth: 0,
        };
        let mut next_reg: Reg = 1; // register 0 holds the candidate root class
        program.compile_node(ast, &has_var, ast.root(), 0, 0, &mut next_reg);
        program
    }

    /// Emits instructions for the pattern node `pat` at `depth` whose class
    /// lives in register `reg` (pre-order, left-to-right — the naive
    /// matcher's traversal order).
    fn compile_node(
        &mut self,
        ast: &RecExpr<ENodeOrVar<L>>,
        has_var: &[bool],
        pat: Id,
        depth: usize,
        reg: Reg,
        next_reg: &mut Reg,
    ) {
        self.depth = self.depth.max(depth);
        match &ast[pat] {
            ENodeOrVar::Var(v) => match self.subst.iter().find(|(u, _)| u == v) {
                Some(&(_, prev)) => self.insts.push(Instruction::Compare { i: prev, j: reg }),
                None => self.subst.push((*v, reg)),
            },
            ENodeOrVar::ENode(_) if !has_var[usize::from(pat)] => {
                // Ground anchor: one memo lookup per search replaces the
                // whole structural sub-match.
                let ground = self.ground.len();
                self.ground.push(ground_term(ast, pat));
                self.insts.push(Instruction::Lookup { ground, i: reg });
            }
            ENodeOrVar::ENode(n) => {
                let out = *next_reg;
                *next_reg += n.children().len();
                self.insts.push(Instruction::Bind {
                    node: n.clone(),
                    i: reg,
                    out,
                });
                for (k, child) in n.children().to_vec().into_iter().enumerate() {
                    self.compile_node(ast, has_var, child, depth + 1, out + k, next_reg);
                }
            }
        }
    }

    /// The variables bound by this program, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        self.subst.iter().map(|&(v, _)| v).collect()
    }

    /// A language-erased view of the instruction stream, for static
    /// analysis and diagnostics (see `sz-lint`'s program verifier).
    ///
    /// The view carries everything an abstract interpreter needs — operator
    /// names and arities, register indices, ground-table contents, the
    /// substitution template — without exposing (or depending on) the
    /// concrete [`Language`].
    pub fn view(&self) -> ProgramView {
        ProgramView {
            insts: self
                .insts
                .iter()
                .map(|inst| match inst {
                    Instruction::Bind { node, i, out } => InstView::Bind {
                        op: node.op_name(),
                        arity: node.children().len(),
                        i: *i,
                        out: *out,
                    },
                    Instruction::Compare { i, j } => InstView::Compare { i: *i, j: *j },
                    Instruction::Lookup { ground, i } => InstView::Lookup {
                        ground: *ground,
                        i: *i,
                    },
                })
                .collect(),
            ground: self.ground.iter().map(ToString::to_string).collect(),
            subst: self
                .subst
                .iter()
                .map(|&(v, r)| (v.to_string(), r))
                .collect(),
            root_op: self.root_op.as_ref().map(Language::op_name),
        }
    }

    /// Number of instructions (diagnostics and tests).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True for the trivial program of a bare-variable pattern.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Resolves the program's ground anchors through the hash-cons memo.
    /// `None` means some ground subterm is absent from the e-graph, so the
    /// pattern cannot match anywhere.
    fn resolve_ground<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Option<Vec<Id>> {
        self.ground
            .iter()
            .map(|expr| egraph.lookup_expr(expr))
            .collect()
    }

    /// A register file sized for this program's usual patterns, to be
    /// reused across every [`Program::run`] of one search.
    fn registers(&self) -> Vec<Id> {
        Vec::with_capacity(self.subst.len() + 4)
    }

    /// Runs the machine rooted at (canonical) `eclass` on the register
    /// file `regs`, appending every accepting substitution to `out`.
    fn run<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        ground: &[Id],
        eclass: Id,
        regs: &mut Vec<Id>,
        out: &mut Vec<Subst>,
    ) {
        regs.clear();
        regs.push(eclass);
        self.step(egraph, ground, regs, 0, out);
    }

    fn step<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        ground: &[Id],
        regs: &mut Vec<Id>,
        pc: usize,
        out: &mut Vec<Subst>,
    ) {
        let Some(inst) = self.insts.get(pc) else {
            let mut subst = Subst::with_capacity(self.subst.len());
            for &(v, r) in &self.subst {
                subst.insert(v, egraph.find(regs[r]));
            }
            out.push(subst);
            return;
        };
        match inst {
            Instruction::Bind { node, i, out: o } => {
                // Walk the class's arena-id slice; each candidate resolves
                // to one contiguous arena slot.
                for &nid in egraph[regs[*i]].node_ids() {
                    let enode = egraph.node(nid);
                    if !node.matches(enode) {
                        continue;
                    }
                    regs.truncate(*o);
                    regs.extend_from_slice(enode.children());
                    self.step(egraph, ground, regs, pc + 1, out);
                }
            }
            Instruction::Compare { i, j } => {
                if egraph.find(regs[*i]) == egraph.find(regs[*j]) {
                    self.step(egraph, ground, regs, pc + 1, out);
                }
            }
            Instruction::Lookup { ground: g, i } => {
                if ground[*g] == egraph.find(regs[*i]) {
                    self.step(egraph, ground, regs, pc + 1, out);
                }
            }
        }
    }
}

/// One instruction of a [`ProgramView`]: the language-erased shape of
/// [`Instruction`], with operators reduced to `(name, arity)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstView {
    /// Enumerate e-nodes of class `regs[i]` with the given operator,
    /// writing `arity` children into `regs[out..]`.
    Bind {
        /// The operator name ([`Language::op_name`]).
        op: String,
        /// The operator's child count.
        arity: usize,
        /// Input register holding the class to enumerate.
        i: usize,
        /// First output register; the candidate's children land in
        /// `out..out + arity` and registers past that become undefined.
        out: usize,
    },
    /// Require `regs[i]` and `regs[j]` to name the same e-class.
    Compare {
        /// First register.
        i: usize,
        /// Second register.
        j: usize,
    },
    /// Require `regs[i]` to be the class of ground term `ground`.
    Lookup {
        /// Index into the ground-term table.
        ground: usize,
        /// Register to check.
        i: usize,
    },
}

/// A language-erased snapshot of a [`Program`], produced by
/// [`Program::view`].
///
/// All fields are public so external verifiers can both inspect real
/// programs and hand-construct corrupted ones for fixture tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramView {
    /// The instruction stream, in execution order.
    pub insts: Vec<InstView>,
    /// Rendered ground terms (the `Lookup` table).
    pub ground: Vec<String>,
    /// `(variable, register)` substitution template in first-occurrence
    /// order; variables are rendered with their `?` sigil.
    pub subst: Vec<(String, usize)>,
    /// The root operator name, or `None` for a bare-variable pattern.
    pub root_op: Option<String>,
}

/// A [`Pattern`] together with its compiled [`Program`]: the matcher held
/// by [`Rewrite`](crate::Rewrite).
///
/// # Examples
///
/// ```
/// use sz_egraph::{CompiledPattern, EGraph, Pattern, tests_lang::Arith};
/// let mut eg: EGraph<Arith, ()> = EGraph::default();
/// eg.add_expr(&"(+ 1 (+ 2 3))".parse().unwrap());
/// eg.rebuild();
/// let pat: Pattern<Arith> = "(+ ?a ?b)".parse().unwrap();
/// let compiled = CompiledPattern::compile(pat.clone());
/// // Identical matches to the naive reference matcher.
/// let naive = pat.search(&eg);
/// let vm = compiled.search(&eg);
/// assert_eq!(naive.len(), vm.len());
/// ```
#[derive(Debug, Clone)]
pub struct CompiledPattern<L> {
    pattern: Pattern<L>,
    program: Program<L>,
}

/// Process-lifetime count of pattern compilations
/// ([`CompiledPattern::compile`] calls). Monotonic; used by benches and
/// tests to prove that rule sets are compiled once and reused (see
/// `szalinski::Synthesizer`) rather than recompiled per run.
static COMPILE_COUNT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Total [`CompiledPattern::compile`] invocations in this process so far.
pub fn compile_count() -> usize {
    COMPILE_COUNT.load(std::sync::atomic::Ordering::Relaxed)
}

impl<L: Language> CompiledPattern<L> {
    /// Compiles a pattern.
    pub fn compile(pattern: Pattern<L>) -> Self {
        COMPILE_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let program = Program::compile(&pattern);
        CompiledPattern { pattern, program }
    }

    /// The source pattern.
    pub fn pattern(&self) -> &Pattern<L> {
        &self.pattern
    }

    /// The compiled program.
    pub fn program(&self) -> &Program<L> {
        &self.program
    }

    /// Matches one candidate class. `regs` and `substs` are the search's
    /// buffers, reused across candidates: a class without matches costs
    /// no allocation, and one with matches gets one exactly-sized list.
    fn search_resolved<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        ground: &[Id],
        eclass: Id,
        regs: &mut Vec<Id>,
        substs: &mut Vec<Subst>,
    ) -> Option<SearchMatches> {
        self.program.run(egraph, ground, eclass, regs, substs);
        if substs.is_empty() {
            return None;
        }
        substs.sort_unstable();
        substs.dedup();
        // `append` moves the matches out and leaves the buffer's capacity.
        let mut matched = Vec::with_capacity(substs.len());
        matched.append(substs);
        Some(SearchMatches {
            eclass,
            substs: matched,
        })
    }

    /// Searches the whole e-graph, visiting only the classes the operator
    /// index lists for the pattern's root operator.
    ///
    /// Same contract and output as [`Pattern::search`]: the e-graph must
    /// be clean (checked by a debug assertion;
    /// [`Runner::run`](crate::Runner::run) rebuilds before every search
    /// phase, so runner users cannot violate it).
    pub fn search<N: Analysis<L>>(&self, egraph: &EGraph<L, N>) -> Vec<SearchMatches> {
        self.search_list(egraph, None).matches
    }

    /// The one search routine. Without `previous` it runs the VM at every
    /// candidate root in ascending id order: the full search. With the list
    /// the previous search returned and the [`Reach`] of the rebuild since,
    /// it runs the VM only at roots within [`CompiledPattern::depth`] of a
    /// touched class, and carries every other root's previous entry over:
    /// such a root kept every class its matches read, so the VM would find
    /// them again. Entries of roots absorbed since are dropped, and the
    /// output order is the full search's. It searches in full anyway when
    /// a ground anchor now resolves to another class and for a
    /// bare-variable root.
    pub(crate) fn search_list<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        previous: Option<(MatchList, &Reach)>,
    ) -> MatchList {
        debug_assert!(
            egraph.is_clean(),
            "searching a dirty e-graph; call rebuild() first"
        );
        let ground = self.program.resolve_ground(egraph);
        let (previous, mut carried) = match previous {
            Some((prev, reach)) if prev.ground == ground && self.program.root_op.is_some() => {
                let mut carried = prev.carried;
                carried.clear();
                (Some((prev.matches, reach)), carried)
            }
            _ => (None, Vec::new()),
        };
        let mut list = MatchList::default();
        let Some(ground_ids) = &ground else {
            return list;
        };
        let mut regs = self.program.registers();
        let mut substs = Vec::new();
        let mut visit = |id| self.search_resolved(egraph, ground_ids, id, &mut regs, &mut substs);
        let matches = &mut list.matches;
        match (&self.program.root_op, previous) {
            (Some(op), Some((prev, reach))) => {
                let mut prev = prev.into_iter().peekable();
                for &id in egraph.classes_with_op(op) {
                    if reach.within(id, self.program.depth) {
                        matches.extend(visit(id));
                        carried.resize(matches.len(), false);
                        continue;
                    }
                    // Entries below `id` belong to roots absorbed or
                    // re-searched since.
                    while prev.next_if(|m| m.eclass < id).is_some() {}
                    if let Some(entry) = prev.next_if(|m| m.eclass == id) {
                        matches.push(entry);
                        carried.push(true);
                    }
                }
            }
            (Some(op), None) => {
                matches.extend(
                    egraph
                        .classes_with_op(op)
                        .iter()
                        .filter_map(|&id| visit(id)),
                );
            }
            // Bare-variable root: every class matches; keep the output
            // deterministic by visiting classes in sorted id order.
            (None, _) => matches.extend(egraph.classes().filter_map(|c| visit(c.id))),
        }
        carried.resize(matches.len(), false);
        list.carried = carried;
        list.ground = ground;
        list
    }

    /// The deepest pattern position a match reads, in child steps from the
    /// root, variables and ground anchors included: `(+ ?a (* ?b 2))` has
    /// depth 2. A delta search re-runs the VM at the roots this close to a
    /// touched class.
    pub fn depth(&self) -> usize {
        self.program.depth
    }

    /// Searches a single e-class (same output as
    /// [`Pattern::search_eclass`]).
    pub fn search_eclass<N: Analysis<L>>(
        &self,
        egraph: &EGraph<L, N>,
        eclass: Id,
    ) -> Option<SearchMatches> {
        debug_assert!(
            egraph.is_clean(),
            "searching a dirty e-graph; call rebuild() first"
        );
        let ground = self.program.resolve_ground(egraph)?;
        let mut regs = self.program.registers();
        self.search_resolved(
            egraph,
            &ground,
            egraph.find(eclass),
            &mut regs,
            &mut Vec::new(),
        )
    }

    /// The pattern variables this program binds, in first-occurrence
    /// order.
    pub fn vars(&self) -> Vec<Var> {
        self.program.vars()
    }
}

/// One pattern's matches over a whole e-graph, as one search left them:
/// the entries in the full search's ascending root order, which of them
/// were carried over from the previous list, and the classes the ground
/// anchors resolved to, which the next search compares against.
#[derive(Debug, Default)]
pub(crate) struct MatchList {
    /// One entry per matching root class, in ascending id order.
    pub(crate) matches: Vec<SearchMatches>,
    /// `carried[i]` is true when `matches[i]` came from the previous list
    /// rather than from the VM.
    pub(crate) carried: Vec<bool>,
    /// The ground anchors' classes; `None` when one is absent from the
    /// graph, so nothing matched.
    ground: Option<Vec<Id>>,
}

impl MatchList {
    /// The number of substitutions, carried ones included.
    pub(crate) fn len(&self) -> usize {
        self.matches.iter().map(|m| m.substs.len()).sum()
    }
}

/// How many [`EGraph::class_parents`] steps each class lies above the
/// nearest class the last rebuild touched ([`EGraph::touched`]), counted up
/// to a cap. A root farther from every touched class than a pattern's
/// depth kept every class its matches read.
#[derive(Debug, Default)]
pub(crate) struct Reach {
    /// Distance by class slot; `u8::MAX` means beyond the cap.
    dist: Vec<u8>,
    /// Every class with a finite distance, in breadth-first order.
    reached: Vec<Id>,
}

impl Reach {
    /// Recomputes the distances from the last rebuild's touched list, up
    /// to `max_depth` steps, reusing the buffers of the previous call.
    pub(crate) fn compute<L: Language, N: Analysis<L>>(
        &mut self,
        egraph: &EGraph<L, N>,
        max_depth: usize,
    ) {
        for &id in &self.reached {
            self.dist[usize::from(id)] = u8::MAX;
        }
        self.reached.clear();
        self.dist.resize(egraph.universe(), u8::MAX);
        for &id in egraph.touched() {
            self.dist[usize::from(id)] = 0;
            self.reached.push(id);
        }
        // A pattern deeper than the cap sees `u8::MAX` as within reach, so
        // it searches every root in full.
        let cap = u8::try_from(max_depth).map_or(u8::MAX - 1, |d| d.min(u8::MAX - 1));
        let mut level_start = 0;
        for level in 1..=cap {
            let level_end = self.reached.len();
            for k in level_start..level_end {
                for &(_, parent) in egraph.class_parents(self.reached[k]) {
                    let parent = egraph.find(parent);
                    let slot = &mut self.dist[usize::from(parent)];
                    if *slot == u8::MAX {
                        *slot = level;
                        self.reached.push(parent);
                    }
                }
            }
            level_start = level_end;
        }
    }

    /// True when `id` lies within `depth` steps of a touched class.
    fn within(&self, id: Id, depth: usize) -> bool {
        usize::from(self.dist[usize::from(id)]) <= depth
    }
}

impl<L: Language> fmt::Display for CompiledPattern<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pattern)
    }
}

/// Copies the (variable-free) subtree at `pat` out of a pattern AST as a
/// plain term.
fn ground_term<L: Language>(ast: &RecExpr<ENodeOrVar<L>>, pat: Id) -> RecExpr<L> {
    fn go<L: Language>(ast: &RecExpr<ENodeOrVar<L>>, pat: Id, dst: &mut RecExpr<L>) -> Id {
        let ENodeOrVar::ENode(node) = &ast[pat] else {
            unreachable!("ground subtrees contain no variables");
        };
        let node = node.map_children(|c| go(ast, c, dst));
        dst.add(node)
    }
    let mut dst = RecExpr::new();
    go(ast, pat, &mut dst);
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::Arith;

    fn graph(exprs: &[&str]) -> EGraph<Arith, ()> {
        let mut eg = EGraph::default();
        for s in exprs {
            eg.add_expr(&s.parse().unwrap());
        }
        eg.rebuild();
        eg
    }

    fn assert_same(pat: &str, eg: &EGraph<Arith, ()>) {
        let pattern: Pattern<Arith> = pat.parse().unwrap();
        let compiled = CompiledPattern::compile(pattern.clone());
        let mut naive: Vec<(Id, Vec<Subst>)> = pattern
            .search(eg)
            .into_iter()
            .map(|m| (m.eclass, m.substs))
            .collect();
        let mut vm: Vec<(Id, Vec<Subst>)> = compiled
            .search(eg)
            .into_iter()
            .map(|m| (m.eclass, m.substs))
            .collect();
        naive.sort_by_key(|(id, _)| *id);
        vm.sort_by_key(|(id, _)| *id);
        assert_eq!(naive, vm, "matcher divergence for pattern {pat}");
    }

    #[test]
    fn compiles_linear_pattern() {
        let p: Pattern<Arith> = "(+ ?a (* ?b 2))".parse().unwrap();
        let prog = Program::compile(&p);
        // Bind +, Bind *, Lookup 2 — variables cost no instructions.
        assert_eq!(prog.len(), 3);
        assert_eq!(prog.ground.len(), 1);
        assert_eq!(prog.vars(), p.vars());
    }

    #[test]
    fn bare_variable_matches_every_class() {
        let eg = graph(&["(+ 1 2)"]);
        let p: Pattern<Arith> = "?x".parse().unwrap();
        let compiled = CompiledPattern::compile(p);
        let vm = compiled.search(&eg);
        assert_eq!(vm.len(), eg.number_of_classes());
        assert_same("?x", &eg);
    }

    #[test]
    fn ground_pattern_is_one_lookup() {
        let eg = graph(&["(+ 1 2)", "(+ 2 1)"]);
        let p: Pattern<Arith> = "(+ 1 2)".parse().unwrap();
        let prog = Program::compile(&p);
        assert_eq!(prog.len(), 1, "whole-pattern lookup");
        assert_same("(+ 1 2)", &eg);
    }

    #[test]
    fn absent_ground_anchor_short_circuits() {
        let eg = graph(&["(+ 1 2)"]);
        let p: Pattern<Arith> = "(+ ?a 99)".parse().unwrap();
        let compiled = CompiledPattern::compile(p);
        assert!(compiled.search(&eg).is_empty());
    }

    #[test]
    fn nonlinear_pattern_compares() {
        let eg = graph(&["(+ x x)", "(+ x y)"]);
        assert_same("(+ ?a ?a)", &eg);
        assert_same("(+ ?a ?b)", &eg);
    }

    #[test]
    fn matches_after_union() {
        let mut eg = graph(&["(+ x y)", "(* (+ x y) z)"]);
        let x = eg.lookup_expr(&"x".parse().unwrap()).unwrap();
        let y = eg.lookup_expr(&"y".parse().unwrap()).unwrap();
        eg.union(x, y);
        eg.rebuild();
        for pat in ["(+ ?a ?a)", "(* ?m ?n)", "(* (+ ?a ?a) ?z)"] {
            assert_same(pat, &eg);
        }
    }

    #[test]
    fn deep_patterns_agree_on_merged_classes() {
        let mut eg = graph(&["(+ 1 2)", "(* 3 4)", "(+ (+ 1 2) (* 3 4))"]);
        let a = eg.lookup_expr(&"(+ 1 2)".parse().unwrap()).unwrap();
        let b = eg.lookup_expr(&"(* 3 4)".parse().unwrap()).unwrap();
        eg.union(a, b);
        eg.rebuild();
        for pat in [
            "(+ ?a ?b)",
            "(* ?a ?b)",
            "(+ (+ ?a ?b) ?c)",
            "(+ (* ?a ?b) (* ?c ?d))",
            "(+ ?x ?x)",
        ] {
            assert_same(pat, &eg);
        }
    }

    #[test]
    fn subst_binding_order_matches_naive() {
        // Subst equality is order-sensitive; the VM must bind variables in
        // the naive matcher's pre-order.
        let eg = graph(&["(* (+ a b) c)"]);
        let p: Pattern<Arith> = "(* (+ ?x ?y) ?z)".parse().unwrap();
        let naive = p.search(&eg);
        let vm = CompiledPattern::compile(p).search(&eg);
        assert_eq!(naive[0].substs, vm[0].substs);
        let order: Vec<String> = naive[0].substs[0]
            .iter()
            .map(|(v, _)| v.to_string())
            .collect();
        assert_eq!(order, ["?x", "?y", "?z"]);
    }
}
