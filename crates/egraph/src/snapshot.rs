//! Snapshot persistence: a versioned, deterministic **text** serialization
//! of [`EGraph`] state, enabling incremental re-runs that resume from a
//! saturated graph instead of re-saturating from scratch.
//!
//! # What a snapshot contains
//!
//! * the full union-find (one parent per id, so canonical ids are
//!   preserved **exactly** across a round trip);
//! * every e-class (canonical id plus its canonical, sorted e-nodes,
//!   serialized via [`Language::op_name`] / [`Language::from_op`]);
//! * the runner roots, the number of saturation iterations already spent,
//!   and the rule scheduler's backoff state (so a resumed [`Runner`]
//!   continues throttling where the original left off).
//!
//! Derived state is **not** stored: the hash-cons memo and the per-class
//! parent lists are rebuilt from the e-nodes, analysis data is
//! recomputed to fixpoint by [`Snapshot::restore`], and the operator
//! index used by compiled e-matching (see [`EGraph::classes_with_op`]) is
//! built from the restored classes on first use. Because the op index
//! never enters the serialization, introducing it did **not** change the
//! `szsnap v1` format — no version bump, and existing snapshots restore
//! (and re-index) unchanged. This is sound for any
//! analysis whose data is a join-semilattice derived from the e-nodes via
//! [`Analysis::make`] (true of every analysis in this workspace); it is the
//! same assumption `rebuild` itself makes. [`Analysis::modify`] is *not*
//! re-run on restore — its effects (e.g. materialized constant-fold
//! literals) are already part of the snapshotted node set.
//!
//! Extraction needs none of this derived state: [`Snapshot::view`] reads
//! the parsed nodes directly and builds parent lists of its own, so an
//! extraction-only resume restores nothing.
//!
//! # Layout and parsing
//!
//! A [`Snapshot`] keeps every class's nodes in one flat vector, in
//! ascending class-id order, plus each class's id and end offset. Parsing
//! therefore allocates per snapshot, not per class or node: an operator
//! token is borrowed from the text unless it holds a `%`-escape, and the
//! children of every node pass through one reused buffer into
//! [`Language::from_op`]. Class blocks may come in any order; they are
//! regrouped once. Declared counts (`uf <n>`, `class <id> <count>`) are
//! checked but never reserved from.
//!
//! The parser rejects, naming the line: a wrong header or version; a
//! union-find line whose parent count differs from its declared size, an
//! id out of range, a parent cycle; a class whose id is not a union-find
//! root, whose node count exceeds the id universe, or whose block repeats
//! an id; a node line with a bad `%`-escape, a child that is out of range
//! or not a root, or an operator [`Language::from_op`] refuses; a
//! union-find root with no class (which also covers every child, since
//! children are roots); malformed `roots`, `iterations` and scheduler
//! lines; and anything but blank lines after `end`.
//!
//! # Format stability
//!
//! The first line is always `szsnap v<N>` with `N =`
//! [`SNAPSHOT_FORMAT_VERSION`]. Any change to the serialization **must**
//! bump the version, because downstream caches (see `sz-batch`) key
//! compatibility on it; golden-file tests under `tests/fixtures/` enforce
//! this. Parsing is total: corrupted or truncated text yields a structured
//! [`SnapshotParseError`] (with a 1-based line number), never a panic.
//!
//! # Determinism
//!
//! Serialization is byte-deterministic for a given e-graph: classes are
//! written in sorted id order and class node lists are already sorted by
//! `rebuild`. Note that the e-graph *produced by a saturation run* is not
//! guaranteed to assign the same ids across processes (rule matching
//! iterates hash maps), so two cold runs may serialize differently — but a
//! snapshot always restores to an e-graph that behaves identically to the
//! one it was taken from, which is what resumption needs.
//!
//! # Examples
//!
//! ```
//! use sz_egraph::{Runner, Rewrite, Snapshot, tests_lang::Arith};
//! let rules: Vec<Rewrite<Arith, ()>> =
//!     vec![Rewrite::parse("comm-add", "(+ ?a ?b)", "(+ ?b ?a)").unwrap()];
//! let runner = Runner::new(())
//!     .with_expr(&"(+ 1 2)".parse().unwrap())
//!     .run(&rules);
//! let snapshot = runner.snapshot().unwrap();
//! let text = snapshot.to_string();
//! let back: Snapshot<Arith> = text.parse().unwrap();
//! let resumed = Runner::resume_from(&back, ()).run(&rules);
//! // Already saturated: the resumed runner does at most one quiet pass.
//! assert!(resumed.iterations.len() <= 1);
//! assert_eq!(
//!     resumed.egraph.number_of_classes(),
//!     runner.egraph.number_of_classes(),
//! );
//! ```

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use crate::{Analysis, EGraph, GraphView, Id, Language, UnionFind};

/// The version written in (and required of) the `szsnap v<N>` header.
///
/// Bump this whenever the serialization changes in any way; stale
/// snapshots must fail to parse rather than restore a subtly wrong graph.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Scheduler state carried by a snapshot (see
/// [`Scheduler`](crate::Scheduler)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SchedState {
    /// The simple scheduler (no state).
    Simple,
    /// Backoff limits plus per-rule `(times_banned, banned_until)`
    /// stats. `banned_until` is stored in the *resumed* run's frame —
    /// iterations past the snapshotted run's end — so a resumed run
    /// (which numbers iterations from 0 again) reads it directly; see
    /// [`Runner::snapshot`](crate::Runner::snapshot) for the rebasing.
    Backoff {
        match_limit: usize,
        ban_length: usize,
        stats: Vec<(usize, usize)>,
    },
}

/// A serializable snapshot of [`EGraph`] + [`Runner`](crate::Runner)
/// state. See the [module docs](self) for format and semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<L: Language> {
    /// Union-find parent per id (index = id).
    uf: Vec<Id>,
    /// `(canonical id, end offset into nodes)` per class, sorted by id:
    /// a class's nodes run from the previous class's end to its own.
    classes: Vec<(Id, usize)>,
    /// Every class's canonical sorted nodes, concatenated in class order.
    nodes: Vec<L>,
    /// Runner roots (canonical).
    roots: Vec<Id>,
    /// Saturation iterations spent producing this graph.
    iterations: usize,
    /// Rule scheduler state.
    pub(crate) scheduler: SchedState,
}

/// Error capturing a snapshot from a live e-graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The e-graph has pending mutations; call
    /// [`EGraph::rebuild`] first.
    NotClean,
    /// A requested root id is outside the e-graph's id universe.
    UnknownRoot(Id),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotClean => {
                write!(f, "cannot snapshot a dirty e-graph; call rebuild() first")
            }
            SnapshotError::UnknownRoot(id) => write!(f, "root {id} is not in the e-graph"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Error parsing snapshot text: the offending 1-based line plus a
/// human-readable message. Returned (never panicked) for any corrupted,
/// truncated, or version-mismatched input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotParseError {
    line: usize,
    message: String,
}

impl SnapshotParseError {
    /// Creates an error at a 1-based line number.
    pub fn new(line: usize, message: impl Into<String>) -> Self {
        SnapshotParseError {
            line,
            message: message.into(),
        }
    }

    /// The 1-based line the error was detected on.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Returns a copy with the line number shifted by `offset` (used by
    /// wrappers that embed a snapshot below their own header lines).
    pub fn offset_lines(&self, offset: usize) -> Self {
        SnapshotParseError {
            line: self.line + offset,
            message: self.message.clone(),
        }
    }
}

impl fmt::Display for SnapshotParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotParseError {}

/// Percent-escapes a token so it contains no whitespace, parentheses,
/// semicolons, quotes, or non-printable bytes — safe to embed in the
/// whitespace-separated snapshot format *and* in s-expression atoms.
pub fn escape_token(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if is_plain(b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

/// Whether [`escape_token`] keeps byte `b` as it is.
fn is_plain(b: u8) -> bool {
    (0x21..=0x7e).contains(&b) && !matches!(b, b'%' | b'(' | b')' | b';' | b'"')
}

/// Inverts [`escape_token`].
///
/// # Errors
///
/// Returns a message for malformed escapes or invalid UTF-8.
pub fn unescape_token(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated %-escape in token `{s}`"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii %-escape".to_owned())?;
            let b = u8::from_str_radix(hex, 16)
                .map_err(|_| format!("bad %-escape `%{hex}` in token `{s}`"))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("token `{s}` unescapes to invalid UTF-8"))
}

impl<L: Language> Snapshot<L> {
    /// Captures a snapshot of a clean e-graph with the given roots.
    ///
    /// Roots are canonicalized on capture. Iterations default to 0 and
    /// the scheduler to simple; see [`Snapshot::with_iterations`] and
    /// [`Runner::snapshot`](crate::Runner::snapshot).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotClean`] if mutations are pending, and
    /// [`SnapshotError::UnknownRoot`] for out-of-universe roots.
    pub fn of_egraph<N: Analysis<L>>(
        egraph: &EGraph<L, N>,
        roots: &[Id],
    ) -> Result<Self, SnapshotError> {
        if !egraph.is_clean() {
            return Err(SnapshotError::NotClean);
        }
        let uf = egraph.unionfind().as_parents().to_vec();
        for &root in roots {
            if usize::from(root) >= uf.len() {
                return Err(SnapshotError::UnknownRoot(root));
            }
        }
        // Materialize each class's nodes from the arena: NodeIds are
        // derived, per-instance state and never enter the format. A clean
        // graph's classes come in ascending canonical-id order.
        let mut classes = Vec::with_capacity(egraph.number_of_classes());
        let mut nodes = Vec::with_capacity(egraph.total_number_of_nodes());
        for class in egraph.classes() {
            debug_assert!(classes.last().is_none_or(|&(last, _)| last < class.id));
            nodes.extend(egraph.nodes_of(class).cloned());
            classes.push((class.id, nodes.len()));
        }
        Ok(Snapshot {
            uf,
            classes,
            nodes,
            roots: roots.iter().map(|&r| egraph.find(r)).collect(),
            iterations: 0,
            scheduler: SchedState::Simple,
        })
    }

    /// Sets the recorded saturation-iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Saturation iterations spent producing the snapshotted graph.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The (canonical) runner roots.
    pub fn roots(&self) -> &[Id] {
        &self.roots
    }

    /// Number of e-classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total number of e-nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Each class's canonical id and nodes, in ascending id order.
    fn class_nodes(&self) -> impl ExactSizeIterator<Item = (Id, &[L])> + '_ {
        let mut start = 0;
        self.classes.iter().map(move |&(id, end)| {
            let nodes = &self.nodes[start..end];
            start = end;
            (id, nodes)
        })
    }

    /// A read-only view of the snapshotted graph that extraction runs on
    /// directly (see [`SnapshotView`]), without restoring an e-graph.
    pub fn view(&self) -> SnapshotView<'_, L> {
        SnapshotView::new(self)
    }

    /// Reconstructs a live e-graph behaviorally identical to the one the
    /// snapshot was taken from: same id universe, same canonical ids,
    /// same class node sets. A partial resume restores to keep saturating;
    /// extraction alone needs only [`Snapshot::view`], and tests hold the
    /// view to the restored graph.
    ///
    /// Analysis data is recomputed to fixpoint from the e-nodes (see the
    /// [module docs](self) for the soundness argument), which is why
    /// `N::Data: Default` is required: defaults seed the fixpoint at the
    /// lattice bottom.
    pub fn restore<N: Analysis<L>>(&self, analysis: N) -> EGraph<L, N>
    where
        N::Data: Default,
    {
        EGraph::from_snapshot_parts(
            analysis,
            UnionFind::from_parents(self.uf.clone()),
            self.class_nodes(),
            self.nodes.len(),
        )
    }
}

/// A parsed [`Snapshot`] read as a [`GraphView`]: what an extraction-only
/// resume extracts from instead of a restored [`EGraph`].
///
/// It borrows the snapshot's flat node vector and adds two tables, both
/// slot-indexed by id: each id's node range (empty for an id that is not
/// canonical) and a parent CSR, one offset array over one flat vector
/// holding, for each class, the class of every node with it as a child.
/// Building it interns nothing, builds no memo and runs no analysis.
///
/// It extracts what the restored graph extracts: the parser accepts only
/// canonical class ids and children and regroups classes into ascending
/// id order, so the view has the restored graph's classes, per-class node
/// order and parent classes.
#[derive(Debug)]
pub struct SnapshotView<'a, L: Language> {
    snapshot: &'a Snapshot<L>,
    /// `snapshot.nodes[node_bounds[id]..node_bounds[id + 1]]` are `id`'s
    /// nodes.
    node_bounds: Vec<usize>,
    /// `parents[parent_bounds[id]..parent_bounds[id + 1]]` are `id`'s
    /// parent classes, ascending.
    parent_bounds: Vec<usize>,
    parents: Vec<Id>,
}

impl<'a, L: Language> SnapshotView<'a, L> {
    fn new(snapshot: &'a Snapshot<L>) -> Self {
        let universe = snapshot.uf.len();
        // One pass counts each class's nodes (one slot above its id, so the
        // prefix sums make `node_bounds[id]` the start of `id`'s range) and
        // each child's parent entries (at the child's own slot, so they
        // make `parent_bounds[child]` the end of its range).
        let mut node_bounds = vec![0; universe + 1];
        let mut parent_bounds = vec![0; universe + 1];
        for (id, nodes) in snapshot.class_nodes() {
            node_bounds[usize::from(id) + 1] = nodes.len();
            for node in nodes {
                for &child in node.children() {
                    parent_bounds[usize::from(child)] += 1;
                }
            }
        }
        for slot in 1..=universe {
            node_bounds[slot] += node_bounds[slot - 1];
            parent_bounds[slot] += parent_bounds[slot - 1];
        }
        // A second pass fills each child's range back to front, moving its
        // bound down to the range's start; walking the nodes backwards
        // leaves every range ascending, the order restore's parent lists
        // have.
        let mut parents = vec![Id::default(); parent_bounds[universe]];
        for &(id, end) in snapshot.classes.iter().rev() {
            let nodes = &snapshot.nodes[node_bounds[usize::from(id)]..end];
            for node in nodes.iter().rev() {
                for &child in node.children().iter().rev() {
                    let bound = &mut parent_bounds[usize::from(child)];
                    *bound -= 1;
                    parents[*bound] = id;
                }
            }
        }
        SnapshotView {
            snapshot,
            node_bounds,
            parent_bounds,
            parents,
        }
    }

    /// The nodes of id `id`: empty unless `id` is canonical.
    fn nodes(&self, id: Id) -> &'a [L] {
        let slot = usize::from(id);
        &self.snapshot.nodes[self.node_bounds[slot]..self.node_bounds[slot + 1]]
    }
}

impl<L: Language> GraphView for SnapshotView<'_, L> {
    type Lang = L;

    fn universe(&self) -> usize {
        self.snapshot.uf.len()
    }

    fn number_of_classes(&self) -> usize {
        self.snapshot.num_classes()
    }

    fn class_ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.snapshot.classes.iter().map(|&(id, _)| id)
    }

    fn class_nodes(&self, id: Id) -> impl Iterator<Item = &L> + '_ {
        self.nodes(id).iter()
    }

    fn class_node(&self, id: Id, pos: usize) -> &L {
        &self.nodes(id)[pos]
    }

    fn parent_classes(&self, id: Id) -> impl Iterator<Item = Id> + '_ {
        let slot = usize::from(self.find(id));
        self.parents[self.parent_bounds[slot]..self.parent_bounds[slot + 1]]
            .iter()
            .copied()
    }

    fn find(&self, mut id: Id) -> Id {
        let uf = &self.snapshot.uf;
        while uf[usize::from(id)] != id {
            id = uf[usize::from(id)];
        }
        id
    }
}

impl<L: Language> fmt::Display for Snapshot<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "szsnap v{SNAPSHOT_FORMAT_VERSION}")?;
        writeln!(f, "uf {}", self.uf.len())?;
        if !self.uf.is_empty() {
            write_joined(f, &self.uf)?;
            writeln!(f)?;
        }
        for (id, nodes) in self.class_nodes() {
            writeln!(f, "class {id} {}", nodes.len())?;
            for node in nodes {
                write_escaped(f, &node.op_name())?;
                for &child in node.children() {
                    write!(f, " {child}")?;
                }
                writeln!(f)?;
            }
        }
        f.write_str("roots ")?;
        write_joined(f, &self.roots)?;
        writeln!(f)?;
        writeln!(f, "iterations {}", self.iterations)?;
        match &self.scheduler {
            SchedState::Simple => writeln!(f, "scheduler simple")?,
            SchedState::Backoff {
                match_limit,
                ban_length,
                stats,
            } => {
                writeln!(f, "scheduler backoff {match_limit} {ban_length}")?;
                let stats: Vec<String> = stats.iter().map(|(t, u)| format!("{t}:{u}")).collect();
                writeln!(f, "rulestats {}", stats.join(" "))?;
            }
        }
        writeln!(f, "end")
    }
}

/// Writes `ids` separated by single spaces.
fn write_joined(f: &mut fmt::Formatter<'_>, ids: &[Id]) -> fmt::Result {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            f.write_str(" ")?;
        }
        write!(f, "{id}")?;
    }
    Ok(())
}

/// Writes [`escape_token`]`(s)` without building the escaped string.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    if s.bytes().all(is_plain) {
        return f.write_str(s);
    }
    f.write_str(&escape_token(s))
}

/// Line-cursor over snapshot text, tracking 1-based line numbers for
/// error reporting.
struct Lines<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            lines: text.lines(),
            lineno: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, SnapshotParseError> {
        self.lineno += 1;
        self.lines
            .next()
            .ok_or_else(|| SnapshotParseError::new(self.lineno, "unexpected end of snapshot"))
    }

    fn err(&self, message: impl Into<String>) -> SnapshotParseError {
        SnapshotParseError::new(self.lineno, message)
    }
}

fn parse_id(tok: &str, bound: usize, lines: &Lines) -> Result<Id, SnapshotParseError> {
    let n: usize = tok
        .parse()
        .map_err(|_| lines.err(format!("expected an id, got `{tok}`")))?;
    if n >= bound {
        return Err(lines.err(format!("id {n} out of bounds (universe size {bound})")));
    }
    Ok(Id::from(n))
}

fn parse_usize(tok: &str, what: &str, lines: &Lines) -> Result<usize, SnapshotParseError> {
    tok.parse()
        .map_err(|_| lines.err(format!("expected {what}, got `{tok}`")))
}

impl<L: Language> FromStr for Snapshot<L> {
    type Err = SnapshotParseError;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut lines = Lines::new(text);

        // Header and version.
        let header = lines.next()?;
        let expected = format!("szsnap v{SNAPSHOT_FORMAT_VERSION}");
        if header != expected {
            return Err(lines.err(format!(
                "unsupported snapshot header `{header}` (this build reads `{expected}`)"
            )));
        }

        // Union-find.
        let uf_header = lines.next()?;
        let n = match uf_header.strip_prefix("uf ") {
            Some(n) => parse_usize(n, "the union-find size", &lines)?,
            None => return Err(lines.err(format!("expected `uf <n>`, got `{uf_header}`"))),
        };
        let parents_line = if n == 0 { "" } else { lines.next()? };
        // Never reserve from the *declared* count alone — a corrupted
        // header like `uf 999999999999` must yield an error, not an
        // allocation abort. The parents all sit on one line and each takes
        // at least two of its bytes (digit plus separator), so the line's
        // length bounds the capacity by the input.
        let mut uf = Vec::with_capacity(n.min(parents_line.len() / 2 + 1));
        for tok in parents_line.split_whitespace() {
            if uf.len() >= n {
                return Err(lines.err(format!(
                    "union-find declares {n} ids but lists more parents"
                )));
            }
            uf.push(parse_id(tok, n, &lines)?);
        }
        if uf.len() != n {
            return Err(lines.err(format!(
                "union-find declares {n} ids but lists {} parents",
                uf.len()
            )));
        }
        // Reject cyclic parent chains (corrupted input would otherwise
        // hang `find`). Iterative three-color walk, O(n). From here on an
        // id is canonical exactly when it is its own parent.
        let mut color = vec![0u8; n]; // 0 unvisited, 1 in progress, 2 done
        let mut stack = Vec::new();
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut cur = start;
            loop {
                if color[cur] == 1 {
                    return Err(lines.err(format!("union-find cycle through id {cur}")));
                }
                if color[cur] == 2 {
                    break;
                }
                color[cur] = 1;
                stack.push(cur);
                let parent = usize::from(uf[cur]);
                if parent == cur {
                    break;
                }
                cur = parent;
            }
            for &i in &stack {
                color[i] = 2;
            }
            stack.clear();
        }
        let canonical = |id: Id| uf[usize::from(id)] == id;
        let find = |mut id: usize| {
            while usize::from(uf[id]) != id {
                id = usize::from(uf[id]);
            }
            id
        };

        // Classes, pushed straight into one flat node vector. Each root
        // needs a class of at least one node, so the root count of the
        // parsed union-find is a lower bound on the node count.
        let n_roots = (0..n).filter(|&i| usize::from(uf[i]) == i).count();
        let mut classes: Vec<(Id, usize)> = Vec::with_capacity(n_roots);
        let mut nodes: Vec<L> = Vec::with_capacity(n_roots);
        let mut has_class = vec![false; n];
        // The smallest id with more than one class block, reported once
        // every block has parsed.
        let mut duplicate: Option<Id> = None;
        let mut in_order = true;
        let mut children: Vec<Id> = Vec::new();
        let mut line = lines.next()?;
        while let Some(rest) = line.strip_prefix("class ") {
            let mut toks = rest.split_whitespace();
            let (id_tok, count_tok) = match (toks.next(), toks.next(), toks.next()) {
                (Some(id), Some(count), None) => (id, count),
                _ => return Err(lines.err(format!("expected `class <id> <count>`, got `{line}`"))),
            };
            let id = parse_id(id_tok, n, &lines)?;
            if !canonical(id) {
                return Err(lines.err(format!("class id {id} is not canonical")));
            }
            let count = parse_usize(count_tok, "a node count", &lines)?;
            // Every e-node was created by a `make_set`, so a class can
            // never hold more nodes than the id universe; reject lying
            // counts before reading on (a count is never reserved from).
            if count > n {
                return Err(lines.err(format!("implausible node count {count} for class {id}")));
            }
            for _ in 0..count {
                let node_line = lines.next()?;
                let mut toks = node_line.split_whitespace();
                let op_tok = toks.next().ok_or_else(|| lines.err("empty node line"))?;
                let op = if op_tok.contains('%') {
                    Cow::Owned(unescape_token(op_tok).map_err(|e| lines.err(e))?)
                } else {
                    Cow::Borrowed(op_tok)
                };
                children.clear();
                for tok in toks {
                    let child = parse_id(tok, n, &lines)?;
                    if !canonical(child) {
                        return Err(lines.err(format!("node child {child} is not canonical")));
                    }
                    children.push(child);
                }
                let node = L::from_op(&op, &children).map_err(|e| lines.err(e.to_string()))?;
                nodes.push(node);
            }
            let slot = usize::from(id);
            if has_class[slot] {
                duplicate = Some(duplicate.map_or(id, |d| d.min(id)));
            }
            has_class[slot] = true;
            in_order &= classes.last().is_none_or(|&(last, _)| last < id);
            classes.push((id, nodes.len()));
            line = lines.next()?;
        }
        if let Some(id) = duplicate {
            return Err(lines.err(format!("duplicate class {id}")));
        }
        // Every union-find root must have a class. Node children are
        // canonical, hence roots, so they refer to live classes too.
        if (0..n).any(|i| usize::from(uf[i]) == i && !has_class[i]) {
            let root = (0..n)
                .map(find)
                .find(|&root| !has_class[root])
                .expect("a root without a class");
            return Err(lines.err(format!("canonical id {root} has no class")));
        }
        if !in_order {
            (classes, nodes) = regroup(&classes, &nodes);
        }

        // Roots.
        let roots_line = line;
        let rest = roots_line
            .strip_prefix("roots")
            .ok_or_else(|| lines.err(format!("expected `roots ...`, got `{roots_line}`")))?;
        let mut roots = Vec::new();
        for tok in rest.split_whitespace() {
            let root = parse_id(tok, n, &lines)?;
            roots.push(Id::from(find(usize::from(root))));
        }

        // Iterations.
        let iter_line = lines.next()?;
        let iterations = match iter_line.strip_prefix("iterations ") {
            Some(tok) => parse_usize(tok, "an iteration count", &lines)?,
            None => return Err(lines.err(format!("expected `iterations <n>`, got `{iter_line}`"))),
        };

        // Scheduler.
        let sched_line = lines.next()?;
        let scheduler = if sched_line == "scheduler simple" {
            SchedState::Simple
        } else if let Some(rest) = sched_line.strip_prefix("scheduler backoff ") {
            let mut toks = rest.split_whitespace();
            let (ml, bl) = match (toks.next(), toks.next(), toks.next()) {
                (Some(ml), Some(bl), None) => (ml, bl),
                _ => {
                    return Err(lines.err(format!(
                    "expected `scheduler backoff <match_limit> <ban_length>`, got `{sched_line}`"
                )))
                }
            };
            let match_limit = parse_usize(ml, "a match limit", &lines)?;
            let ban_length = parse_usize(bl, "a ban length", &lines)?;
            let stats_line = lines.next()?;
            let rest = stats_line.strip_prefix("rulestats").ok_or_else(|| {
                lines.err(format!("expected `rulestats ...`, got `{stats_line}`"))
            })?;
            let mut stats = Vec::new();
            for tok in rest.split_whitespace() {
                let (t, u) = tok
                    .split_once(':')
                    .ok_or_else(|| lines.err(format!("bad rule stat `{tok}`")))?;
                stats.push((
                    parse_usize(t, "a ban count", &lines)?,
                    parse_usize(u, "a ban horizon", &lines)?,
                ));
            }
            SchedState::Backoff {
                match_limit,
                ban_length,
                stats,
            }
        } else {
            return Err(lines.err(format!("unknown scheduler line `{sched_line}`")));
        };

        // Terminator.
        let end = lines.next()?;
        if end != "end" {
            return Err(lines.err(format!("expected `end`, got `{end}`")));
        }
        while let Ok(extra) = lines.next() {
            if !extra.trim().is_empty() {
                return Err(lines.err(format!("trailing content after `end`: `{extra}`")));
            }
        }

        Ok(Snapshot {
            uf,
            classes,
            nodes,
            roots,
            iterations,
            scheduler,
        })
    }
}

/// Sorts class blocks that arrived out of id order (ids are distinct),
/// moving each block's nodes along with it.
fn regroup<L: Clone>(classes: &[(Id, usize)], nodes: &[L]) -> (Vec<(Id, usize)>, Vec<L>) {
    let mut blocks: Vec<(Id, usize, usize)> = Vec::with_capacity(classes.len());
    let mut start = 0;
    for &(id, end) in classes {
        blocks.push((id, start, end));
        start = end;
    }
    blocks.sort_unstable_by_key(|&(id, ..)| id);
    let mut sorted_classes = Vec::with_capacity(classes.len());
    let mut sorted_nodes = Vec::with_capacity(nodes.len());
    for (id, start, end) in blocks {
        sorted_nodes.extend_from_slice(&nodes[start..end]);
        sorted_classes.push((id, sorted_nodes.len()));
    }
    (sorted_classes, sorted_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_lang::{Arith, ConstFold};

    fn sample_graph() -> (EGraph<Arith, ()>, Id, Id) {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let a = eg.add_expr(&"(+ (* 2 3) x)".parse().unwrap());
        let b = eg.add_expr(&"(+ x (* 3 2))".parse().unwrap());
        eg.union(a, b);
        eg.rebuild();
        (eg, a, b)
    }

    #[test]
    fn roundtrip_preserves_structure_and_ids() {
        let (eg, a, b) = sample_graph();
        let snap = Snapshot::of_egraph(&eg, &[a]).unwrap().with_iterations(3);
        let text = snap.to_string();
        let back: Snapshot<Arith> = text.parse().unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_string(), text, "reserialization is byte-stable");

        let restored: EGraph<Arith, ()> = back.restore(());
        assert_eq!(restored.number_of_classes(), eg.number_of_classes());
        assert_eq!(restored.total_number_of_nodes(), eg.total_number_of_nodes());
        for i in 0..eg.unionfind().as_parents().len() {
            let id = Id::from(i);
            assert_eq!(restored.find(id), eg.find(id), "canonical id of {id}");
        }
        assert_eq!(restored.find(a), restored.find(b));
        assert!(restored.is_clean());
    }

    #[test]
    fn restore_recomputes_analysis_data() {
        let mut eg: EGraph<Arith, ConstFold> = EGraph::new(ConstFold);
        let id = eg.add_expr(&"(+ 1 (* 2 3))".parse().unwrap());
        eg.rebuild();
        let snap = Snapshot::of_egraph(&eg, &[id]).unwrap();
        let restored: EGraph<Arith, ConstFold> = snap.restore(ConstFold);
        for class in eg.classes() {
            assert_eq!(
                restored[class.id].data, class.data,
                "analysis data of class {}",
                class.id
            );
        }
        assert_eq!(restored[id].data, Some(7));
    }

    #[test]
    fn dirty_graph_is_rejected() {
        let mut eg: EGraph<Arith, ()> = EGraph::default();
        let a = eg.add_expr(&"x".parse().unwrap());
        let b = eg.add_expr(&"y".parse().unwrap());
        eg.union(a, b);
        assert_eq!(
            Snapshot::of_egraph(&eg, &[a]).unwrap_err(),
            SnapshotError::NotClean
        );
    }

    #[test]
    fn unknown_root_is_rejected() {
        let (eg, _, _) = sample_graph();
        let bogus = Id::from(10_000usize);
        assert_eq!(
            Snapshot::of_egraph(&eg, &[bogus]).unwrap_err(),
            SnapshotError::UnknownRoot(bogus)
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (eg, a, _) = sample_graph();
        let text = Snapshot::of_egraph(&eg, &[a]).unwrap().to_string();
        let bad = text.replacen("szsnap v1", "szsnap v999", 1);
        let err = bad.parse::<Snapshot<Arith>>().unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("unsupported"));
    }

    #[test]
    fn cyclic_unionfind_is_rejected() {
        let text = "szsnap v1\nuf 2\n1 0\nroots\niterations 0\nscheduler simple\nend\n";
        let err = text.parse::<Snapshot<Arith>>().unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn missing_class_for_root_is_rejected() {
        // One id, self-parented, but no class block.
        let text = "szsnap v1\nuf 1\n0\nroots\niterations 0\nscheduler simple\nend\n";
        let err = text.parse::<Snapshot<Arith>>().unwrap_err();
        assert!(err.to_string().contains("no class"), "{err}");
    }

    #[test]
    fn truncations_error_never_panic() {
        let (eg, a, _) = sample_graph();
        let text = Snapshot::of_egraph(&eg, &[a]).unwrap().to_string();
        // Every proper prefix must fail to parse — except dropping only
        // the final newline, which still leaves a complete `end` line.
        for cut in 0..text.len() - 1 {
            if !text.is_char_boundary(cut) {
                continue;
            }
            let truncated = &text[..cut];
            assert!(
                truncated.parse::<Snapshot<Arith>>().is_err(),
                "truncation at byte {cut} must not parse"
            );
        }
    }

    #[test]
    fn absurd_declared_counts_error_instead_of_aborting() {
        // A lying `uf <huge>` or node count must be a parse error; a
        // `Vec::with_capacity` from the declared value would abort the
        // whole process on allocation failure.
        let huge = "szsnap v1\nuf 999999999999999\n0\nroots\niterations 0\nscheduler simple\nend\n";
        assert!(huge.parse::<Snapshot<Arith>>().is_err());
        let huge_class = "szsnap v1\nuf 1\n0\nclass 0 999999999999999\nx\nroots\niterations 0\nscheduler simple\nend\n";
        assert!(huge_class.parse::<Snapshot<Arith>>().is_err());
    }

    #[test]
    fn garbage_after_a_blank_line_is_rejected() {
        let (eg, a, _) = sample_graph();
        let text = Snapshot::of_egraph(&eg, &[a]).unwrap().to_string();
        let padded = format!("{text}\n\nszsnap v1 again");
        let err = padded.parse::<Snapshot<Arith>>().unwrap_err();
        assert!(err.to_string().contains("trailing content"), "{err}");
    }

    #[test]
    fn escape_roundtrips_awkward_tokens() {
        for s in [
            "plain",
            "has space",
            "Ext:a(b);c",
            "100%",
            "tab\there",
            "ünïcode",
        ] {
            let esc = escape_token(s);
            assert!(
                esc.chars().all(|c| !c.is_whitespace()
                    && c != '('
                    && c != ')'
                    && c != ';'
                    && c != '"'),
                "escaped form `{esc}` still contains a delimiter"
            );
            assert_eq!(unescape_token(&esc).unwrap(), s);
        }
        assert!(unescape_token("%zz").is_err());
        assert!(unescape_token("%f").is_err());
    }

    #[test]
    fn backoff_state_roundtrips() {
        let snap = Snapshot::<Arith> {
            uf: vec![],
            classes: vec![],
            nodes: vec![],
            roots: vec![],
            iterations: 7,
            scheduler: SchedState::Backoff {
                match_limit: 64,
                ban_length: 3,
                stats: vec![(0, 0), (2, 19)],
            },
        };
        let text = snap.to_string();
        let back: Snapshot<Arith> = text.parse().unwrap();
        assert_eq!(back, snap);
    }
}
