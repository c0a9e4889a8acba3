//! Content-addressed result cache for synthesis runs — **two tiers**.
//!
//! * **Program tier** ([`JobKey`] → [`CachedRun`]): keyed on a stable
//!   64-bit FNV-1a hash over the input's canonical s-expression plus the
//!   *full* [`SynthConfig::fingerprint`]. A hit skips the whole pipeline.
//! * **Snapshot tier** ([`SnapshotKey`] → serialized
//!   [`szalinski::SynthSnapshot`] text): keyed on the input plus only
//!   [`SynthConfig::saturation_fingerprint`], so a config change that
//!   touches extraction-only fields (`k`, cost function) still hits — the
//!   engine restores the saturated e-graph and re-runs extraction alone
//!   (an extraction-only resume through [`szalinski::Synthesizer::run`]),
//!   skipping every saturation iteration. Snapshots are large, so the
//!   tier is **size-bounded**: disabled until
//!   [`ResultCache::set_snapshot_budget`] grants bytes, and evicting
//!   largest-first (ties by key) when over budget.
//!
//! The snapshot tier additionally keeps a **core-key secondary index**
//! ([`CoreKey`] → continuable entries): snapshots whose serialized text
//! carries a saturation-phase section are indexed on the input plus
//! [`SynthConfig::saturation_core_fingerprint`] — the fingerprint that
//! ignores fuel *limits* — so a fuel-raised rerun finds the lower-fuel
//! snapshot via [`ResultCache::best_core_snapshot`] and continues
//! saturating (partial resume) instead of starting cold.
//!
//! Each tier has one on-disk form, so a second `szb` invocation starts
//! warm. The program tier persists as one `(entry …)` s-expression per
//! line (the repo's native interchange format; [`ResultCache::save`],
//! `szb --cache`). The snapshot tier persists as one `<key>.snap` file
//! per snapshot in a directory ([`load_snapshot_dir`] /
//! [`save_snapshot_dir`], `szb --snapshots`), which keeps the snapshots
//! human-inspectable; a cache file never holds snapshots.
//!
//! ## Shared-state safety (fleet runs)
//!
//! Several processes (shards) may share one snapshot dir and/or cache
//! file. The persistence paths are concurrent-writer-safe:
//!
//! * every write lands in a **unique per-process temp file** first and
//!   is renamed into place (atomic; same-key snapshot contents are
//!   content-addressed, so whichever rename lands last is identical);
//! * [`save_snapshot_dir`] prunes only keys **this cache itself
//!   evicted** — never `.snap` files it merely doesn't hold, which
//!   belong to other shards;
//! * [`ResultCache::save`] is **merge-on-save**: entries already on
//!   disk are folded under the in-memory ones (in-memory wins on
//!   duplicate keys) before the atomic replace, so concurrent savers
//!   extend rather than overwrite each other.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use sz_cad::{Cad, Sexp};
use szalinski::{SatPhaseHeader, SynthConfig, SynthSnapshot};

/// Default snapshot-tier budget granted by `szb --snapshots` (bytes).
pub const DEFAULT_SNAPSHOT_BUDGET: usize = 256 * 1024 * 1024;

/// Stable FNV-1a (64-bit) over bytes; explicit so the key never changes
/// with std's `Hasher` internals across releases.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in *chunk {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator byte so ("ab","c") and ("a","bc") differ.
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable 64-bit hash of an arbitrary name (FNV-1a, the same function
/// behind every cache key). This is the hash `szb --shard i/N` uses to
/// partition jobs by *name*, so shard membership never depends on
/// directory order, platform, or std's `Hasher` internals.
pub fn stable_name_hash(name: &str) -> u64 {
    fnv1a(&[name.as_bytes()])
}

/// The content-addressed key of one `(input, config)` job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u64);

impl JobKey {
    /// Hashes the canonical input s-expression and config fingerprint.
    pub fn of(input: &Cad, config: &SynthConfig) -> JobKey {
        JobKey::of_sexp(&input.to_string(), config)
    }

    /// [`JobKey::of`] for an input already printed to its canonical
    /// s-expression (a job printing its input once for several keys).
    pub(crate) fn of_sexp(input_sexp: &str, config: &SynthConfig) -> JobKey {
        JobKey(fnv1a(&[
            input_sexp.as_bytes(),
            config.fingerprint().as_bytes(),
        ]))
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The content-addressed key of one `(input, saturation-config)` pair —
/// the snapshot tier's key. Unlike [`JobKey`] it ignores extraction-only
/// config fields, so cost-/k-only reruns share the saturated e-graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotKey(pub u64);

impl SnapshotKey {
    /// Hashes the canonical input s-expression and the config's
    /// [`SynthConfig::saturation_fingerprint`].
    pub fn of(input: &Cad, config: &SynthConfig) -> SnapshotKey {
        SnapshotKey::of_sexp(&input.to_string(), config)
    }

    /// [`SnapshotKey::of`] for an already printed input (see
    /// [`JobKey::of_sexp`]).
    pub(crate) fn of_sexp(input_sexp: &str, config: &SynthConfig) -> SnapshotKey {
        SnapshotKey(fnv1a(&[
            input_sexp.as_bytes(),
            config.saturation_fingerprint().as_bytes(),
        ]))
    }
}

impl fmt::Display for SnapshotKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The fuel-agnostic key of one `(input, core-saturation-config)` pair —
/// the snapshot tier's **secondary** index. Unlike [`SnapshotKey`] it
/// ignores the fuel *limits* (iteration/node), hashing only
/// [`SynthConfig::saturation_core_fingerprint`], so runs at different
/// fuel settings share one core key and a lower-fuel snapshot can serve
/// a higher-fuel job via partial-saturation resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreKey(pub u64);

impl CoreKey {
    /// Hashes the canonical input s-expression and the config's
    /// [`SynthConfig::saturation_core_fingerprint`].
    pub fn of(input: &Cad, config: &SynthConfig) -> CoreKey {
        CoreKey::of_sexp(&input.to_string(), config)
    }

    /// [`CoreKey::of`] for an already printed input (see
    /// [`JobKey::of_sexp`]).
    pub(crate) fn of_sexp(input_sexp: &str, config: &SynthConfig) -> CoreKey {
        CoreKey::of_header(input_sexp, &config.saturation_core_fingerprint())
    }

    /// The key of a stored snapshot, from its probed header fields (the
    /// snapshot persists the canonical input s-expression, so this
    /// agrees with [`CoreKey::of`] for the producing job).
    fn of_header(input_sexp: &str, core_fp: &str) -> CoreKey {
        CoreKey(fnv1a(&[input_sexp.as_bytes(), core_fp.as_bytes()]))
    }
}

impl fmt::Display for CoreKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One continuable snapshot in the core-key index: the snapshot-tier
/// key it lives under plus its probed fuel descriptor.
#[derive(Debug, Clone)]
struct CoreEntry {
    key: u64,
    header: SatPhaseHeader,
}

/// A cached synthesis outcome: the top-k programs (cost plus term) and
/// the wall-clock seconds the original run took.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// `(cost, program)` pairs, cheapest first, as extraction returned
    /// them.
    pub programs: Vec<(usize, Cad)>,
    /// Wall-clock seconds of the original (uncached) run.
    pub time_s: f64,
}

/// In-memory two-tier content-addressed store (see the
/// [module docs](self)).
#[derive(Debug, Default, Clone)]
pub struct ResultCache {
    map: HashMap<u64, CachedRun>,
    /// Snapshot tier: key → serialized `SynthSnapshot` text.
    snaps: HashMap<u64, String>,
    /// Total length of the texts in `snaps`, kept in step by
    /// `insert_snapshot_raw` and `remove_snapshot`, the only places
    /// entries come and go.
    snap_bytes: usize,
    /// Byte budget for the snapshot tier; 0 disables *capturing* new
    /// snapshots (already-loaded ones still serve lookups).
    snap_budget: usize,
    /// Core-key secondary index over `snaps`: only snapshots whose text
    /// carries a saturation-phase section (continuable) appear here.
    core_index: HashMap<u64, Vec<CoreEntry>>,
    /// Snapshot keys **this cache instance** evicted (and did not
    /// re-insert). [`save_snapshot_dir`] prunes exactly these files —
    /// never keys it merely doesn't hold, which may belong to another
    /// process sharing the directory.
    evicted: HashSet<u64>,
    /// Lifetime count of snapshot evictions (monotonic; re-inserting an
    /// evicted key does not decrement it). Per-instance observability,
    /// never persisted.
    evictions: usize,
}

/// Error loading a persisted cache file.
#[derive(Debug)]
pub enum CacheLoadError {
    /// The file could not be read.
    Io(io::Error),
    /// A line was not a well-formed cache entry (1-based line number).
    Malformed(usize, String),
}

impl fmt::Display for CacheLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheLoadError::Io(e) => write!(f, "cache io error: {e}"),
            CacheLoadError::Malformed(line, what) => {
                write!(f, "malformed cache entry on line {line}: {what}")
            }
        }
    }
}

impl CacheLoadError {
    /// The 1-based line number of a malformed entry, if the error is
    /// positional (I/O errors have no position). Programmatic access to
    /// what was previously only embedded in the `Display` text.
    pub fn line(&self) -> Option<usize> {
        match self {
            CacheLoadError::Io(_) => None,
            CacheLoadError::Malformed(line, _) => Some(*line),
        }
    }
}

impl std::error::Error for CacheLoadError {}

impl From<io::Error> for CacheLoadError {
    fn from(e: io::Error) -> Self {
        CacheLoadError::Io(e)
    }
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached runs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a run by key.
    pub fn get(&self, key: JobKey) -> Option<&CachedRun> {
        self.map.get(&key.0)
    }

    /// Stores a run under `key` (last write wins).
    pub fn insert(&mut self, key: JobKey, run: CachedRun) {
        self.map.insert(key.0, run);
    }

    /// Grants the snapshot tier a byte budget, evicting immediately if
    /// the currently held snapshots exceed it. A budget of 0 stops new
    /// snapshots from being captured but keeps existing entries
    /// readable.
    pub fn set_snapshot_budget(&mut self, bytes: usize) {
        self.snap_budget = bytes;
        if bytes > 0 {
            self.evict_snapshots();
        }
    }

    /// Builder form of [`ResultCache::set_snapshot_budget`].
    pub fn with_snapshot_budget(mut self, bytes: usize) -> Self {
        self.set_snapshot_budget(bytes);
        self
    }

    /// The snapshot tier's byte budget (0 = capture disabled).
    pub fn snapshot_budget(&self) -> usize {
        self.snap_budget
    }

    /// Number of stored snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.snaps.len()
    }

    /// Total bytes held by the snapshot tier.
    pub fn snapshot_bytes(&self) -> usize {
        self.snap_bytes
    }

    /// Looks up a serialized snapshot by key.
    pub fn get_snapshot(&self, key: SnapshotKey) -> Option<&str> {
        self.snaps.get(&key.0).map(String::as_str)
    }

    /// Stores a serialized snapshot, then evicts largest-first (ties by
    /// key, descending) until the tier fits its budget. The freshly
    /// inserted snapshot is itself evicted if it alone exceeds the
    /// budget — the bound is unconditional.
    pub fn insert_snapshot(&mut self, key: SnapshotKey, text: String) {
        if self.snap_budget == 0 {
            return;
        }
        self.insert_snapshot_raw(key.0, text);
        self.evict_snapshots();
    }

    /// The budget-bypassing insert shared by [`load_snapshot_dir`] and
    /// [`ResultCache::insert_snapshot`]: stores the text and keeps the
    /// core-key index and the evicted set in sync.
    fn insert_snapshot_raw(&mut self, key: u64, text: String) {
        self.remove_snapshot(key);
        if let Some(header) = SynthSnapshot::probe_header(&text) {
            if let Some(phase) = header.sat_phase {
                let core = CoreKey::of_header(&header.input, &phase.core_fp);
                self.core_index
                    .entry(core.0)
                    .or_default()
                    .push(CoreEntry { key, header: phase });
            }
        }
        self.snap_bytes += text.len();
        self.snaps.insert(key, text);
        self.evicted.remove(&key);
    }

    /// Drops `key`'s snapshot, if any, with its core-index entry and its
    /// share of the byte total.
    fn remove_snapshot(&mut self, key: u64) {
        self.unindex_snapshot(key);
        if let Some(text) = self.snaps.remove(&key) {
            self.snap_bytes -= text.len();
        }
    }

    /// Drops `key`'s core-index entry, if any (probes the stored text
    /// for its core key so only that bucket is touched).
    fn unindex_snapshot(&mut self, key: u64) {
        let Some(old) = self.snaps.get(&key) else {
            return;
        };
        let Some(core) = SynthSnapshot::probe_header(old).and_then(|h| {
            h.sat_phase
                .map(|p| CoreKey::of_header(&h.input, &p.core_fp))
        }) else {
            return;
        };
        if let Some(entries) = self.core_index.get_mut(&core.0) {
            entries.retain(|e| e.key != key);
            if entries.is_empty() {
                self.core_index.remove(&core.0);
            }
        }
    }

    /// The **cross-fuel** snapshot lookup: among stored snapshots whose
    /// core key matches and whose producing fuel limits fit under
    /// `config`'s (see [`SatPhaseHeader::fits`]), returns the
    /// most-saturated one — highest producer iteration limit, then node
    /// limit, ties broken by smallest key so the choice is
    /// deterministic.
    ///
    /// The returned text still goes through a full
    /// [`SynthSnapshot`] parse and the session's
    /// [`SynthSnapshot::supports_partial_resume`] check before any
    /// resume — a corrupt entry costs a cold run, never a wrong result.
    pub fn best_core_snapshot(
        &self,
        key: CoreKey,
        config: &SynthConfig,
    ) -> Option<(SnapshotKey, &str)> {
        let best = self
            .core_index
            .get(&key.0)?
            .iter()
            .filter(|e| e.header.fits(config))
            .max_by_key(|e| {
                (
                    e.header.iter_limit,
                    e.header.node_limit,
                    std::cmp::Reverse(e.key),
                )
            })?;
        Some((SnapshotKey(best.key), self.snaps[&best.key].as_str()))
    }

    /// Folds `newer`'s program tier into `self`, overwriting on
    /// duplicate keys — **newest wins**. This is the fold behind
    /// `szb merge --cache`, over caches loaded from files, which hold
    /// programs only; `newer`'s snapshot tier is not read.
    pub fn absorb(&mut self, newer: ResultCache) {
        self.map.extend(newer.map);
    }

    /// Iterates `(key, text)` over stored snapshots in key order.
    pub fn snapshots(&self) -> impl Iterator<Item = (SnapshotKey, &str)> {
        let mut keys: Vec<u64> = self.snaps.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| (SnapshotKey(k), self.snaps[&k].as_str()))
    }

    fn evict_snapshots(&mut self) {
        while self.snap_bytes > self.snap_budget && !self.snaps.is_empty() {
            let victim = self
                .snaps
                .iter()
                .max_by_key(|(k, t)| (t.len(), **k))
                .map(|(k, _)| *k)
                .expect("non-empty");
            self.remove_snapshot(victim);
            self.evicted.insert(victim);
            self.evictions += 1;
        }
    }

    /// Lifetime number of snapshot-tier evictions this instance
    /// performed under its byte budget. Monotonic — unlike the pruning
    /// set behind [`save_snapshot_dir`], a later re-insert of an
    /// evicted key does not take the count back — so a caller can
    /// decide whether snapshot-tier misses are *explained* (corpus
    /// outgrew the budget) or a regression (misses with zero
    /// evictions); the `corpus` soak bin gates on exactly that.
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// Serializes the program tier to the line-oriented s-expression
    /// format, one `(entry …)` line per run, sorted by key so saves are
    /// byte-stable. The snapshot tier is not written: its one on-disk
    /// form is a [`save_snapshot_dir`] directory.
    pub fn to_lines(&self) -> String {
        let mut keys: Vec<&u64> = self.map.keys().collect();
        keys.sort();
        let mut out = String::new();
        for k in keys {
            let run = &self.map[k];
            let progs: Vec<Sexp> = run
                .programs
                .iter()
                .map(|(cost, cad)| {
                    Sexp::list(vec![
                        Sexp::atom(cost.to_string()),
                        cad.to_string().parse().expect("Cad prints valid sexp"),
                    ])
                })
                .collect();
            let entry = Sexp::list(vec![
                Sexp::atom("entry"),
                Sexp::atom(format!("{:016x}", k)),
                Sexp::list(vec![
                    Sexp::atom("time-s"),
                    Sexp::atom(run.time_s.to_string()),
                ]),
                Sexp::list(std::iter::once(Sexp::atom("progs")).chain(progs).collect()),
            ]);
            out.push_str(&entry.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses the format written by [`ResultCache::to_lines`]. Any other
    /// line, a `(snap …)` line included, is
    /// [`CacheLoadError::Malformed`] with its line number.
    pub fn from_lines(text: &str) -> Result<Self, CacheLoadError> {
        let mut cache = ResultCache::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let malformed = |what: &str| CacheLoadError::Malformed(lineno + 1, what.to_owned());
            let sexp: Sexp = line
                .parse()
                .map_err(|e: sz_cad::SexpParseError| malformed(&e.to_string()))?;
            let items = sexp.as_list().ok_or_else(|| malformed("not a list"))?;
            match items {
                [tag, key, time, progs] if tag.as_atom() == Some("entry") => {
                    let key = key
                        .as_atom()
                        .and_then(|k| u64::from_str_radix(k, 16).ok())
                        .ok_or_else(|| malformed("bad key"))?;
                    let time_s = match time.as_list() {
                        Some([t, v]) if t.as_atom() == Some("time-s") => v
                            .as_atom()
                            .and_then(|v| v.parse::<f64>().ok())
                            .ok_or_else(|| malformed("bad time"))?,
                        _ => return Err(malformed("bad time field")),
                    };
                    let progs = match progs.as_list() {
                        Some([tag, rest @ ..]) if tag.as_atom() == Some("progs") => rest,
                        _ => return Err(malformed("bad progs field")),
                    };
                    let mut programs = Vec::with_capacity(progs.len());
                    for p in progs {
                        match p.as_list() {
                            Some([cost, term]) => {
                                let cost = cost
                                    .as_atom()
                                    .and_then(|c| c.parse::<usize>().ok())
                                    .ok_or_else(|| malformed("bad cost"))?;
                                let cad = term
                                    .to_string()
                                    .parse::<Cad>()
                                    .map_err(|e| malformed(&format!("bad program: {e}")))?;
                                programs.push((cost, cad));
                            }
                            _ => return Err(malformed("bad program entry")),
                        }
                    }
                    cache.insert(JobKey(key), CachedRun { programs, time_s });
                }
                _ => return Err(malformed("not an (entry ...) form")),
            }
        }
        Ok(cache)
    }

    /// Loads a cache file; a missing file is an empty cache (cold
    /// start), any other error is reported.
    pub fn load(path: &Path) -> Result<Self, CacheLoadError> {
        let mut text = String::new();
        match std::fs::File::open(path) {
            Ok(mut f) => {
                f.read_to_string(&mut text)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Self::new()),
            Err(e) => return Err(e.into()),
        }
        Self::from_lines(&text)
    }

    /// Writes the program tier to `path` (atomically via a unique
    /// sibling temp file), **merging** with whatever is already there:
    /// entries on disk survive unless this cache holds a newer value for
    /// their key (in-memory wins). Two shards sharing a cache path
    /// therefore extend the file instead of dropping each other's work;
    /// a malformed or unreadable existing file is overwritten rather
    /// than blocking the save.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut merged = Self::load(path).unwrap_or_default();
        merged
            .map
            .extend(self.map.iter().map(|(key, run)| (*key, run.clone())));
        save_text(path, &merged.to_lines())
    }
}

/// Atomic text write behind [`ResultCache::save`]: a **unique
/// per-process** sibling temp (two concurrent savers must never tear
/// each other's temp file), fsynced before the rename so a crash right
/// after the rename cannot leave an empty file.
fn save_text(path: &Path, text: &str) -> io::Result<()> {
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Loads a snapshot dir and enables capture in one step: loads every
/// `.snap` file via [`load_snapshot_dir`], then grants the tier the
/// [`DEFAULT_SNAPSHOT_BUDGET`]. Returns the number of snapshots loaded.
/// This is the shared open sequence behind `szb --snapshots` and
/// `table1 --snapshots`; pair it with [`save_snapshot_dir`] after the
/// run.
pub fn attach_snapshot_dir(cache: &mut ResultCache, dir: &Path) -> io::Result<usize> {
    let loaded = load_snapshot_dir(cache, dir)?;
    cache.set_snapshot_budget(DEFAULT_SNAPSHOT_BUDGET);
    Ok(loaded)
}

/// Loads every `<key16>.snap` file in `dir` into `cache`'s snapshot tier
/// (bypassing the budget; grant the budget afterwards to enforce it). Files whose stem is not a 16-digit
/// hex key are ignored. Returns the number of snapshots loaded; a
/// missing directory loads zero (cold start).
pub fn load_snapshot_dir(cache: &mut ResultCache, dir: &Path) -> io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut loaded = 0;
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            continue;
        }
        let Some(key) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| s.len() == 16)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path)?;
        cache.insert_snapshot_raw(key, text);
        loaded += 1;
    }
    Ok(loaded)
}

/// Writes `cache`'s snapshot tier to `dir` as one `<key16>.snap` file
/// per snapshot (creating `dir` if needed). Returns the number of
/// snapshots saved.
///
/// **Ownership rule for shared dirs:** the only `.snap` files removed
/// are those for keys this cache instance itself evicted (budget
/// pressure) and never re-captured. Files for keys the cache merely
/// doesn't hold are left alone — they belong to other shards/processes
/// sharing the directory, and deleting them would destroy their work.
/// Each write goes through a unique per-process temp file and an atomic
/// rename, so a kill mid-save never leaves a torn `.snap` and two
/// concurrent savers never collide (same-key contents are
/// content-addressed: whichever rename lands last is byte-identical).
pub fn save_snapshot_dir(cache: &ResultCache, dir: &Path) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let pid = std::process::id();
    let mut saved = 0;
    for (key, text) in cache.snapshots() {
        let tmp = dir.join(format!("{key}.tmp.{pid}"));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, dir.join(format!("{key}.snap")))?;
        saved += 1;
    }
    for key in &cache.evicted {
        match std::fs::remove_file(dir.join(format!("{key:016x}.snap"))) {
            Ok(()) => {}
            // Never persisted, or another process already pruned it.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(saved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cad(n: usize) -> Cad {
        Cad::union_chain(
            (1..=n)
                .map(|i| Cad::translate(2.0 * i as f64, 0.0, 0.0, Cad::Unit))
                .collect(),
        )
    }

    #[test]
    fn key_is_stable_and_content_addressed() {
        let config = SynthConfig::new();
        let a = JobKey::of(&sample_cad(4), &config);
        let b = JobKey::of(&sample_cad(4), &config);
        assert_eq!(a, b);
        // Different input or different config: different key.
        assert_ne!(a, JobKey::of(&sample_cad(5), &config));
        assert_ne!(a, JobKey::of(&sample_cad(4), &config.with_k(7)));
    }

    #[test]
    fn roundtrip_through_lines() {
        let mut cache = ResultCache::new();
        let key = JobKey::of(&sample_cad(3), &SynthConfig::new());
        let run = CachedRun {
            programs: vec![
                (9, "(Fold Union Empty (Mapi (Fun (Translate (* 2 (+ i 1)) 0 0 c)) (Repeat Unit 3)))"
                    .parse()
                    .unwrap()),
                (12, sample_cad(3)),
            ],
            time_s: 1.25,
        };
        cache.insert(key, run.clone());
        let text = cache.to_lines();
        let back = ResultCache::from_lines(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.get(key).unwrap(), &run);
        // Byte-stable: serializing again yields identical text.
        assert_eq!(back.to_lines(), text);
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("sz_batch_cache_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.sexp");
        let _ = std::fs::remove_file(&path);

        // Missing file loads empty.
        assert!(ResultCache::load(&path).unwrap().is_empty());

        let mut cache = ResultCache::new();
        cache.insert(
            JobKey(42),
            CachedRun {
                programs: vec![(5, Cad::Unit)],
                time_s: 0.5,
            },
        );
        cache.save(&path).unwrap();
        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.get(JobKey(42)).unwrap().programs[0].1, Cad::Unit);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = ResultCache::from_lines("(entry zz)").unwrap_err();
        match err {
            CacheLoadError::Malformed(1, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert!(ResultCache::from_lines("").unwrap().is_empty());
    }

    #[test]
    fn malformed_line_numbers_survive_leading_good_entries() {
        // Two valid entries, then garbage on line 4: the error must name
        // line 4, not lose the position.
        let mut cache = ResultCache::new();
        for key in [7, 8] {
            cache.insert(
                JobKey(key),
                CachedRun {
                    programs: vec![(1, Cad::Unit)],
                    time_s: 0.1,
                },
            );
        }
        let mut text = cache.to_lines();
        text.push_str("\n(entry broken)\n");
        let err = ResultCache::from_lines(&text).unwrap_err();
        assert_eq!(err.line(), Some(4), "{err}");
        assert!(err.to_string().contains("line 4"));
    }

    #[test]
    fn cache_file_holds_programs_only() {
        let mut cache = ResultCache::new().with_snapshot_budget(1 << 20);
        cache.insert(
            JobKey(7),
            CachedRun {
                programs: vec![(1, Cad::Unit)],
                time_s: 0.1,
            },
        );
        cache.insert_snapshot(SnapshotKey(9), "szsynth v1\nbig".to_owned());
        let text = cache.to_lines();
        assert!(text.contains("(entry "));
        assert!(!text.contains("(snap"), "{text}");
        let back = ResultCache::from_lines(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.snapshot_count(), 0);

        // A `(snap …)` line is a malformed entry, reported by line.
        let snap = format!("{text}(snap 0000000000000009 szsynth%20v1)\n");
        let err = ResultCache::from_lines(&snap).unwrap_err();
        assert_eq!(err.line(), Some(2), "{err}");
    }

    #[test]
    fn snapshot_keys_split_saturation_from_extraction() {
        let config = SynthConfig::new();
        let base = SnapshotKey::of(&sample_cad(4), &config);
        // Extraction-only changes share the snapshot key...
        assert_eq!(
            base,
            SnapshotKey::of(&sample_cad(4), &config.clone().with_k(9))
        );
        // ...saturation changes do not.
        assert_ne!(
            base,
            SnapshotKey::of(&sample_cad(4), &config.clone().with_structural_rules(true))
        );
        assert_ne!(base, SnapshotKey::of(&sample_cad(5), &config));
    }

    #[test]
    fn snapshot_tier_is_disabled_without_budget() {
        let mut cache = ResultCache::new();
        assert_eq!(cache.snapshot_budget(), 0);
        cache.insert_snapshot(SnapshotKey(1), "x".repeat(10));
        assert_eq!(cache.snapshot_count(), 0);
    }

    #[test]
    fn eviction_is_size_bounded_largest_first() {
        let mut cache = ResultCache::new().with_snapshot_budget(100);
        cache.insert_snapshot(SnapshotKey(1), "a".repeat(40));
        cache.insert_snapshot(SnapshotKey(2), "b".repeat(70));
        // 110 bytes > 100: the 70-byte entry (largest) is evicted.
        assert_eq!(cache.snapshot_count(), 1);
        assert!(cache.get_snapshot(SnapshotKey(1)).is_some());
        assert!(cache.snapshot_bytes() <= 100);
        // An entry alone over budget is evicted immediately.
        cache.insert_snapshot(SnapshotKey(3), "c".repeat(200));
        assert!(cache.get_snapshot(SnapshotKey(3)).is_none());
        // Shrinking the budget re-evicts.
        cache.set_snapshot_budget(10);
        assert_eq!(cache.snapshot_count(), 0);
    }

    #[test]
    fn snapshot_dir_roundtrip_and_owned_eviction_cleanup() {
        let dir = std::env::temp_dir().join("sz_batch_snapdir_test");
        let _ = std::fs::remove_dir_all(&dir);

        // Missing dir loads zero.
        let mut cache = ResultCache::new().with_snapshot_budget(1 << 20);
        assert_eq!(load_snapshot_dir(&mut cache, &dir).unwrap(), 0);

        cache.insert_snapshot(SnapshotKey(0xabcd), "snapshot a".to_owned());
        cache.insert_snapshot(SnapshotKey(0x1234), "snapshot b".to_owned());
        assert_eq!(save_snapshot_dir(&cache, &dir).unwrap(), 2);

        let mut back = ResultCache::new();
        assert_eq!(load_snapshot_dir(&mut back, &dir).unwrap(), 2);
        assert_eq!(back.get_snapshot(SnapshotKey(0xabcd)), Some("snapshot a"));
        assert_eq!(back.get_snapshot(SnapshotKey(0x1234)), Some("snapshot b"));

        // A cache that merely never held a key must NOT remove its file
        // (it may belong to another process sharing the dir)...
        let mut smaller = ResultCache::new().with_snapshot_budget(1 << 20);
        smaller.insert_snapshot(SnapshotKey(0x1234), "snapshot b".to_owned());
        assert_eq!(save_snapshot_dir(&smaller, &dir).unwrap(), 1);
        let mut reloaded = ResultCache::new();
        assert_eq!(load_snapshot_dir(&mut reloaded, &dir).unwrap(), 2);
        assert_eq!(
            reloaded.get_snapshot(SnapshotKey(0xabcd)),
            Some("snapshot a")
        );

        // ...but a key the cache itself EVICTED is its own to prune.
        back.set_snapshot_budget(12); // keeps "snapshot b" (10 B), evicts a
        assert!(back.get_snapshot(SnapshotKey(0xabcd)).is_none());
        assert_eq!(save_snapshot_dir(&back, &dir).unwrap(), 1);
        let mut pruned = ResultCache::new();
        assert_eq!(load_snapshot_dir(&mut pruned, &dir).unwrap(), 1);
        assert!(pruned.get_snapshot(SnapshotKey(0xabcd)).is_none());
        assert!(pruned.get_snapshot(SnapshotKey(0x1234)).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shared_snapshot_dir_two_caches_keep_each_others_work() {
        // The PR's headline bugfix: two processes (here, two caches)
        // sharing one --snapshots dir must never destroy each other's
        // .snap files on save.
        let dir = std::env::temp_dir().join("sz_batch_snapdir_shared");
        let _ = std::fs::remove_dir_all(&dir);

        let mut shard_a = ResultCache::new().with_snapshot_budget(1 << 20);
        shard_a.insert_snapshot(SnapshotKey(0xa), "snapshot from shard a".to_owned());
        assert_eq!(save_snapshot_dir(&shard_a, &dir).unwrap(), 1);

        let mut shard_b = ResultCache::new().with_snapshot_budget(1 << 20);
        shard_b.insert_snapshot(SnapshotKey(0xb), "snapshot from shard b".to_owned());
        assert_eq!(save_snapshot_dir(&shard_b, &dir).unwrap(), 1);

        // Both shards save again (a rerun) — still both files.
        assert_eq!(save_snapshot_dir(&shard_a, &dir).unwrap(), 1);
        assert_eq!(save_snapshot_dir(&shard_b, &dir).unwrap(), 1);

        let mut merged = ResultCache::new();
        assert_eq!(load_snapshot_dir(&mut merged, &dir).unwrap(), 2);
        assert_eq!(
            merged.get_snapshot(SnapshotKey(0xa)),
            Some("snapshot from shard a")
        );
        assert_eq!(
            merged.get_snapshot(SnapshotKey(0xb)),
            Some("snapshot from shard b")
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reinserted_key_is_no_longer_considered_evicted() {
        let dir = std::env::temp_dir().join("sz_batch_snapdir_reinsert");
        let _ = std::fs::remove_dir_all(&dir);

        let mut cache = ResultCache::new().with_snapshot_budget(1 << 20);
        cache.insert_snapshot(SnapshotKey(0x1), "v".repeat(64));
        assert_eq!(save_snapshot_dir(&cache, &dir).unwrap(), 1);
        // Evict via budget shrink, then re-capture the same key.
        cache.set_snapshot_budget(8);
        assert_eq!(cache.snapshot_count(), 0);
        cache.set_snapshot_budget(1 << 20);
        cache.insert_snapshot(SnapshotKey(0x1), "v".repeat(64));
        // The re-captured key must survive the save's pruning pass.
        assert_eq!(save_snapshot_dir(&cache, &dir).unwrap(), 1);
        let mut back = ResultCache::new();
        assert_eq!(load_snapshot_dir(&mut back, &dir).unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_file_save_is_merge_on_save() {
        let dir = std::env::temp_dir().join("sz_batch_cache_merge_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.sexp");
        let _ = std::fs::remove_file(&path);

        let run = |cost: usize| CachedRun {
            programs: vec![(cost, Cad::Unit)],
            time_s: 0.1,
        };
        // Shard A saves its entry, then shard B (which never saw A's
        // key) saves its own: A's entry must survive on disk.
        let mut a = ResultCache::new();
        a.insert(JobKey(1), run(5));
        a.save(&path).unwrap();
        let mut b = ResultCache::new().with_snapshot_budget(1 << 20);
        b.insert(JobKey(2), run(7));
        b.insert_snapshot(SnapshotKey(9), "szsynth v1\nx".to_owned());
        b.save(&path).unwrap();

        let back = ResultCache::load(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.get(JobKey(1)).is_some());
        assert!(back.get(JobKey(2)).is_some());
        assert_eq!(back.snapshot_count(), 0, "snapshots live in .snap dirs");

        // Duplicate keys: the in-memory (newer) value wins.
        let mut c = ResultCache::new();
        c.insert(JobKey(1), run(3));
        c.save(&path).unwrap();
        assert_eq!(
            ResultCache::load(&path)
                .unwrap()
                .get(JobKey(1))
                .unwrap()
                .programs[0]
                .0,
            3
        );

        // A malformed existing file is overwritten, not fatal.
        std::fs::write(&path, "(garbage").unwrap();
        c.save(&path).unwrap();
        assert!(ResultCache::load(&path).unwrap().get(JobKey(1)).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn absorb_folds_programs_newest_wins() {
        let mut old = ResultCache::new();
        old.insert(
            JobKey(1),
            CachedRun {
                programs: vec![(9, Cad::Unit)],
                time_s: 1.0,
            },
        );

        let mut newer = ResultCache::new();
        newer.insert(
            JobKey(1),
            CachedRun {
                programs: vec![(4, Cad::Unit)],
                time_s: 2.0,
            },
        );
        newer.insert(
            JobKey(2),
            CachedRun {
                programs: vec![(6, Cad::Unit)],
                time_s: 0.5,
            },
        );

        old.absorb(newer);
        assert_eq!(old.len(), 2);
        assert_eq!(old.get(JobKey(1)).unwrap().programs[0].0, 4);
    }

    /// Continuable snapshot text with a hand-written header: the core
    /// index only probes the first four lines, so the embedded graph
    /// sections can be placeholders.
    fn fake_continuable(input: &Cad, config: &SynthConfig) -> String {
        format!(
            "szsynth v3\ninput {}\nsatfp {}\nsatphase {} {} {} 60000 1 0\nfake\nrest\n",
            input,
            config.saturation_fingerprint(),
            config.saturation_core_fingerprint(),
            config.iter_limit,
            config.node_limit,
        )
    }

    #[test]
    fn core_index_serves_lower_fuel_snapshots_to_higher_fuel_configs() {
        let input = sample_cad(4);
        let low = SynthConfig::new().with_iter_limit(2);
        let mid = SynthConfig::new().with_iter_limit(10);
        let high = SynthConfig::new().with_iter_limit(50);

        let mut cache = ResultCache::new().with_snapshot_budget(1 << 20);
        cache.insert_snapshot(
            SnapshotKey::of(&input, &low),
            fake_continuable(&input, &low),
        );
        cache.insert_snapshot(
            SnapshotKey::of(&input, &mid),
            fake_continuable(&input, &mid),
        );

        // The exact key misses for the high-fuel config...
        assert!(cache.get_snapshot(SnapshotKey::of(&input, &high)).is_none());
        // ...but the core key finds the MOST saturated fitting entry.
        let (key, text) = cache
            .best_core_snapshot(CoreKey::of(&input, &high), &high)
            .expect("cross-fuel hit");
        assert_eq!(key, SnapshotKey::of(&input, &mid));
        assert_eq!(text, fake_continuable(&input, &mid));

        // A config with LESS fuel than every producer gets nothing.
        let tiny = SynthConfig::new().with_iter_limit(1);
        assert!(cache
            .best_core_snapshot(CoreKey::of(&input, &tiny), &tiny)
            .is_none());
        // Core mismatches (different eps) get nothing.
        let other = SynthConfig::new().with_iter_limit(50).with_eps(1e-2);
        assert!(cache
            .best_core_snapshot(CoreKey::of(&input, &other), &other)
            .is_none());

        // Eviction unindexes: once the mid entry is gone, the low one
        // serves (and once both are gone, nothing does).
        cache.set_snapshot_budget(0);
        let mut shrunk = ResultCache::new().with_snapshot_budget(1 << 20);
        shrunk.insert_snapshot(
            SnapshotKey::of(&input, &low),
            fake_continuable(&input, &low),
        );
        let (key, _) = shrunk
            .best_core_snapshot(CoreKey::of(&input, &high), &high)
            .expect("low-fuel entry still serves");
        assert_eq!(key, SnapshotKey::of(&input, &low));
        shrunk.set_snapshot_budget(1); // evicts everything
        assert!(shrunk
            .best_core_snapshot(CoreKey::of(&input, &high), &high)
            .is_none());
    }

    #[test]
    fn core_index_survives_the_snap_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sz_batch_core_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let input = sample_cad(3);
        let low = SynthConfig::new().with_iter_limit(2);
        let high = SynthConfig::new().with_iter_limit(40);
        let mut cache = ResultCache::new().with_snapshot_budget(1 << 20);
        cache.insert_snapshot(
            SnapshotKey::of(&input, &low),
            fake_continuable(&input, &low),
        );
        save_snapshot_dir(&cache, &dir).unwrap();

        let mut back = ResultCache::new();
        assert_eq!(load_snapshot_dir(&mut back, &dir).unwrap(), 1);
        let (key, _) = back
            .best_core_snapshot(CoreKey::of(&input, &high), &high)
            .expect("index rebuilt on load");
        assert_eq!(key, SnapshotKey::of(&input, &low));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stable_name_hash_is_stable() {
        // Pinned value: shard membership must never change across
        // releases, or a resumed fleet run would reshuffle its corpus.
        assert_eq!(stable_name_hash(""), 12638352127299873646);
        assert_eq!(
            stable_name_hash("3362402:gear"),
            stable_name_hash("3362402:gear")
        );
        assert_ne!(stable_name_hash("a"), stable_name_hash("b"));
    }

    /// A small deterministic generator (splitmix64) for the randomized
    /// accounting test.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        /// A snapshot key from a small range, so keys repeat.
        fn key(&mut self) -> SnapshotKey {
            SnapshotKey(self.below(12))
        }

        /// Snapshot text: plain text of a random length, or (one time in
        /// four) a continuable header the core index picks up.
        fn text(&mut self) -> String {
            if self.below(4) == 0 {
                let config = SynthConfig::new().with_iter_limit(1 + self.below(30) as usize);
                fake_continuable(&sample_cad(1 + self.below(3) as usize), &config)
            } else {
                "s".repeat(1 + self.below(300) as usize)
            }
        }
    }

    #[test]
    fn snapshot_byte_total_tracks_every_insert_and_removal() {
        let summed =
            |cache: &ResultCache| -> usize { cache.snapshots().map(|(_, text)| text.len()).sum() };
        let dir = std::env::temp_dir().join(format!("sz_batch_snap_bytes_{}", std::process::id()));
        for seed in 0..25 {
            let mut mix = Mix(seed);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut cache = ResultCache::new().with_snapshot_budget(1 + mix.below(2000) as usize);
            for _ in 0..60 {
                match mix.below(5) {
                    0..=2 => {
                        let (key, text) = (mix.key(), mix.text());
                        cache.insert_snapshot(key, text);
                    }
                    3 => cache.set_snapshot_budget(mix.below(2000) as usize),
                    _ => {
                        let mut other = ResultCache::new().with_snapshot_budget(1 << 20);
                        let (key, text) = (mix.key(), mix.text());
                        other.insert_snapshot(key, text);
                        save_snapshot_dir(&other, &dir).unwrap();
                        load_snapshot_dir(&mut cache, &dir).unwrap();
                    }
                }
                assert_eq!(cache.snapshot_bytes(), summed(&cache), "seed {seed}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
