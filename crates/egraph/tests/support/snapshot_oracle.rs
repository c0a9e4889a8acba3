//! The line-by-line `szsnap v1` parser `Snapshot` used before its storage
//! went flat, kept as a test oracle for the codec differential suites
//! (include it with `#[path = ".../support/snapshot_oracle.rs"] mod
//! snapshot_oracle;`).
//!
//! It reads each class block into its own `Vec`, unescapes every operator
//! token, canonicalizes with `find` walks and checks children and roots
//! with binary searches over the sorted classes. The production parser
//! must accept exactly the texts this one accepts, reject the others on
//! the same line, and re-serialize accepted texts to the bytes
//! [`OracleSnapshot`]'s `Display` writes. Only public `sz_egraph` items
//! are used.

use std::fmt;
use std::str::FromStr;

use sz_egraph::{
    escape_token, unescape_token, Id, Language, SnapshotParseError, SNAPSHOT_FORMAT_VERSION,
};

/// Scheduler state as the snapshot text records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedState {
    /// `scheduler simple`.
    Simple,
    /// `scheduler backoff <match_limit> <ban_length>` plus the
    /// `rulestats` line.
    Backoff {
        match_limit: usize,
        ban_length: usize,
        stats: Vec<(usize, usize)>,
    },
}

/// A parsed snapshot, one `Vec` of nodes per class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleSnapshot<L> {
    /// Union-find parent per id (index = id).
    pub uf: Vec<Id>,
    /// `(canonical id, canonical sorted nodes)`, sorted by id.
    pub classes: Vec<(Id, Vec<L>)>,
    /// Runner roots (canonical).
    pub roots: Vec<Id>,
    /// Saturation iterations spent producing the graph.
    pub iterations: usize,
    /// Rule scheduler state.
    pub scheduler: SchedState,
}

/// The `szsnap v1` text, as `Snapshot`'s `Display` wrote it before the
/// flat layout.
impl<L: Language> fmt::Display for OracleSnapshot<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "szsnap v{SNAPSHOT_FORMAT_VERSION}")?;
        writeln!(f, "uf {}", self.uf.len())?;
        if !self.uf.is_empty() {
            let parents: Vec<String> = self.uf.iter().map(ToString::to_string).collect();
            writeln!(f, "{}", parents.join(" "))?;
        }
        for (id, nodes) in &self.classes {
            writeln!(f, "class {id} {}", nodes.len())?;
            for node in nodes {
                write!(f, "{}", escape_token(&node.op_name()))?;
                for &child in node.children() {
                    write!(f, " {child}")?;
                }
                writeln!(f)?;
            }
        }
        let roots: Vec<String> = self.roots.iter().map(ToString::to_string).collect();
        writeln!(f, "roots {}", roots.join(" "))?;
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

impl<L: Language> FromStr for OracleSnapshot<L> {
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
        // Never pre-allocate from the *declared* count — a corrupted
        // header like `uf 999999999999` must yield an error, not an
        // allocation abort. The parents all sit on one line, so actual
        // size is bounded by the input.
        let mut uf = Vec::new();
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
        // hang `find`). Iterative three-color walk, O(n).
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
        let find = |mut id: usize| {
            while usize::from(uf[id]) != id {
                id = usize::from(uf[id]);
            }
            id
        };

        // Classes.
        let mut classes: Vec<(Id, Vec<L>)> = Vec::new();
        let mut line = lines.next()?;
        while let Some(rest) = line.strip_prefix("class ") {
            let mut toks = rest.split_whitespace();
            let (id_tok, count_tok) = match (toks.next(), toks.next(), toks.next()) {
                (Some(id), Some(count), None) => (id, count),
                _ => return Err(lines.err(format!("expected `class <id> <count>`, got `{line}`"))),
            };
            let id = parse_id(id_tok, n, &lines)?;
            if find(usize::from(id)) != usize::from(id) {
                return Err(lines.err(format!("class id {id} is not canonical")));
            }
            let count = parse_usize(count_tok, "a node count", &lines)?;
            // Every e-node was created by a `make_set`, so a class can
            // never hold more nodes than the id universe; reject lying
            // counts before reserving anything (a corrupted count must
            // error, not allocation-abort).
            if count > n {
                return Err(lines.err(format!("implausible node count {count} for class {id}")));
            }
            let mut nodes = Vec::with_capacity(count);
            for _ in 0..count {
                let node_line = lines.next()?;
                let mut toks = node_line.split_whitespace();
                let op_tok = toks.next().ok_or_else(|| lines.err("empty node line"))?;
                let op = unescape_token(op_tok).map_err(|e| lines.err(e))?;
                let mut children = Vec::new();
                for tok in toks {
                    let child = parse_id(tok, n, &lines)?;
                    if find(usize::from(child)) != usize::from(child) {
                        return Err(lines.err(format!("node child {child} is not canonical")));
                    }
                    children.push(child);
                }
                let node = L::from_op(&op, &children).map_err(|e| lines.err(e.to_string()))?;
                nodes.push(node);
            }
            classes.push((id, nodes));
            line = lines.next()?;
        }
        classes.sort_by_key(|(id, _)| *id);
        if let Some(w) = classes.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(lines.err(format!("duplicate class {}", w[0].0)));
        }
        // Every union-find root must have a class, and node children must
        // refer to live classes.
        for i in 0..n {
            let root = Id::from(find(i));
            if classes.binary_search_by_key(&root, |(id, _)| *id).is_err() {
                return Err(lines.err(format!("canonical id {root} has no class")));
            }
        }
        for (_, nodes) in &classes {
            for node in nodes {
                for &child in node.children() {
                    if classes.binary_search_by_key(&child, |(id, _)| *id).is_err() {
                        return Err(lines.err(format!("node child {child} has no class")));
                    }
                }
            }
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

        Ok(OracleSnapshot {
            uf,
            classes,
            roots,
            iterations,
            scheduler,
        })
    }
}
