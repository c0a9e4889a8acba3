//! Corpus enumeration: turning the 16-model suite or a directory of
//! `.scad`/`.csexp` files into [`BatchJob`]s, and [`ShardSpec`] for
//! deterministically splitting either corpus across fleet processes.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use sz_cad::Cad;
use szalinski::SynthConfig;

use crate::cache::stable_name_hash;
use crate::engine::BatchJob;

/// One shard of an `N`-way corpus partition, parsed from the 1-based
/// `szb --shard i/N` syntax.
///
/// Membership is decided by a stable hash of the job **name**
/// ([`stable_name_hash`]), never by directory order, so every fleet
/// process — on any machine, against any filesystem enumeration order,
/// across releases — agrees on the partition: shards are disjoint and
/// together cover the corpus exactly.
///
/// ```
/// use sz_batch::ShardSpec;
/// let shards: Vec<ShardSpec> = (1..=4).map(|i| format!("{i}/4").parse().unwrap()).collect();
/// assert_eq!(shards.iter().filter(|s| s.owns("3362402:gear")).count(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index, `1 ≤ index ≤ count`.
    pub index: usize,
    /// Total shard count, `≥ 1`.
    pub count: usize,
}

impl ShardSpec {
    /// Whether this shard owns the job with the given name.
    pub fn owns(&self, name: &str) -> bool {
        stable_name_hash(name) % self.count as u64 == (self.index - 1) as u64
    }

    /// Retains only this shard's jobs, preserving their order; returns
    /// how many jobs the filter removed.
    pub fn filter(&self, jobs: &mut Vec<BatchJob>) -> usize {
        let before = jobs.len();
        jobs.retain(|j| self.owns(&j.name));
        before - jobs.len()
    }
}

impl FromStr for ShardSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("expected i/N (e.g. 2/4), got {s:?}"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index {i:?} in {s:?}"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count {n:?} in {s:?}"))?;
        if count == 0 {
            return Err(format!("shard count must be >= 1 in {s:?}"));
        }
        if index == 0 || index > count {
            return Err(format!(
                "shard index must satisfy 1 <= i <= {count} in {s:?} (shards are 1-based)"
            ));
        }
        Ok(ShardSpec { index, count })
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Jobs for the paper's 16-model Table-1 suite, in paper order.
pub fn suite16_jobs(config: &SynthConfig) -> Vec<BatchJob> {
    sz_models::all_models()
        .into_iter()
        .map(|m| BatchJob::new(m.name, m.flat, config.clone()))
        .collect()
}

/// Jobs for a generated corpus (`szb --gen <spec>`), built **without
/// materializing files on disk**.
///
/// Names are enumerated first (`gen:<seed>:<index>`, see
/// [`sz_gen::model_name`]); shard membership is decided on the name
/// alone — the same [`stable_name_hash`] partition every other corpus
/// uses — and only owned models are actually generated. A fleet worker
/// holding shard `i/N` therefore pays generation cost only for its own
/// slice, yet `szb merge` reassembles exactly the corpus an unsharded
/// run would have produced (the generator is keyed per index, never
/// sequential).
///
/// Returns the jobs plus how many models the shard filter skipped.
pub fn gen_jobs(
    spec: &sz_gen::GenSpec,
    config: &SynthConfig,
    shard: Option<ShardSpec>,
) -> (Vec<BatchJob>, usize) {
    let mut jobs = Vec::new();
    let mut dropped = 0usize;
    for index in 0..spec.count {
        let name = sz_gen::model_name(spec.seed, index);
        if shard.is_some_and(|s| !s.owns(&name)) {
            dropped += 1;
            continue;
        }
        let cad = sz_gen::generate_model(spec, index);
        jobs.push(BatchJob::new(name, cad, config.clone()));
    }
    (jobs, dropped)
}

/// Why one corpus file could not be loaded (the batch continues; these
/// are reported alongside the jobs).
#[derive(Debug)]
pub struct CorpusSkip {
    /// The offending file.
    pub path: PathBuf,
    /// Parse/translation error text.
    pub reason: String,
}

impl fmt::Display for CorpusSkip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.reason)
    }
}

/// The deepest nesting a corpus model may have: the parentheses of a
/// `.csexp` file, or the levels above the leaves of the CSG a `.scad` file
/// flattens to.
///
/// The reader, and later the job on a pool worker's smaller stack, recurse
/// once per level. Parsing alone overflows the 8 MiB main thread near
/// 6 000 levels; a release job on a worker completes 768 levels of nested
/// unions and aborts the process at 1 000, and a debug build's worker
/// aborts between 128 and 160. Suite16's deepest input has 63 levels. A
/// deeper `.csexp` is refused before it is parsed, a deeper `.scad` after
/// it is flattened, and a deeper input handed to
/// [`BatchEngine::run`](crate::BatchEngine::run) directly becomes a
/// rejected job ([`SynthError::TooDeep`](szalinski::SynthError::TooDeep)).
pub const MAX_INPUT_DEPTH: usize = 128;

/// The `.scad` and `.csexp` files directly in `dir`, sorted by path so
/// batches and lint reports are deterministic.
pub(crate) fn corpus_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("scad") | Some("csexp")
            )
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// Reads one corpus file into a [`Cad`]:
///
/// * `.scad` — parametric OpenSCAD, flattened to CSG via
///   [`sz_scad::scad_to_flat_csg`];
/// * `.csexp` — a CSG s-expression, parsed via [`Cad`]'s `FromStr`.
///
/// Either is refused when nested deeper than [`MAX_INPUT_DEPTH`]. The
/// error is the reason a batch skip or a lint finding reports.
pub(crate) fn read_corpus_file(path: &Path) -> Result<Cad, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read error: {e}"))?;
    match path.extension().and_then(|e| e.to_str()) {
        Some("scad") => {
            let cad = sz_scad::scad_to_flat_csg(&text)
                .map_err(|e| format!("OpenSCAD translation failed: {e}"))?;
            check_depth(cad.depth() - 1)?;
            Ok(cad)
        }
        _ => {
            check_depth(nesting_depth(&text))?;
            text.trim()
                .parse()
                .map_err(|e| format!("CSG parse failed: {e}"))
        }
    }
}

fn check_depth(depth: usize) -> Result<(), String> {
    if depth > MAX_INPUT_DEPTH {
        return Err(format!(
            "nested {depth} levels deep, more than the {MAX_INPUT_DEPTH} a job may take"
        ));
    }
    Ok(())
}

/// The deepest parenthesis nesting of s-expression text, not counting
/// `;` line comments.
fn nesting_depth(text: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    for line in text.lines() {
        let code = line.split(';').next().unwrap_or_default();
        for byte in code.bytes() {
            match byte {
                b'(' => {
                    depth += 1;
                    deepest = deepest.max(depth);
                }
                b')' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    deepest
}

/// Scans `dir` (non-recursively) for `.scad` and `.csexp` files and
/// builds one job per flat model the corpus reader loads, sorted
/// by file name so batch order — and therefore reports — are
/// deterministic.
///
/// Unloadable files become [`CorpusSkip`]s instead of failing the whole
/// corpus.
pub fn dir_jobs(dir: &Path, config: &SynthConfig) -> io::Result<(Vec<BatchJob>, Vec<CorpusSkip>)> {
    let paths = corpus_files(dir)?;

    // Job names default to the file stem; when two files share a stem
    // (`model.scad` + `model.csexp`) keep the extension so names — and
    // therefore `--out` artifacts — never collide.
    let mut stem_counts: HashMap<String, usize> = HashMap::new();
    for path in &paths {
        if let Some(stem) = path.file_stem() {
            *stem_counts
                .entry(stem.to_string_lossy().into_owned())
                .or_default() += 1;
        }
    }

    let mut jobs = Vec::new();
    let mut skips = Vec::new();
    for path in paths {
        let name = match path.file_stem() {
            Some(stem) => {
                let stem = stem.to_string_lossy().into_owned();
                if stem_counts[&stem] > 1 {
                    path.file_name()
                        .map(|f| f.to_string_lossy().into_owned())
                        .unwrap_or(stem)
                } else {
                    stem
                }
            }
            None => path.display().to_string(),
        };
        match read_corpus_file(&path) {
            Ok(cad) if cad.is_flat_csg() => jobs.push(BatchJob::new(name, cad, config.clone())),
            Ok(_) => skips.push(CorpusSkip {
                path,
                reason: "not a flat CSG".to_owned(),
            }),
            Err(reason) => skips.push(CorpusSkip { path, reason }),
        }
    }
    Ok((jobs, skips))
}

/// Makes a job name safe as a file stem (`3362402:gear` →
/// `3362402_gear`).
pub fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite16_has_sixteen_named_jobs() {
        let jobs = suite16_jobs(&SynthConfig::new());
        assert_eq!(jobs.len(), 16);
        assert!(jobs.iter().all(|j| j.input.is_flat_csg()));
        assert!(jobs.iter().any(|j| j.name == "3362402:gear"));
    }

    #[test]
    fn dir_scan_loads_both_formats_and_reports_skips() {
        let dir = std::env::temp_dir().join("sz_batch_corpus_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("b_fins.scad"),
            "for (i = [0 : 3]) translate([i * 6, 0, 0]) cube([2, 30, 40], center = true);",
        )
        .unwrap();
        std::fs::write(
            dir.join("a_row.csexp"),
            "(Union (Translate 2 0 0 Unit) (Translate 4 0 0 Unit))",
        )
        .unwrap();
        std::fs::write(dir.join("broken.csexp"), "(Union Unit").unwrap();
        std::fs::write(dir.join("looped.csexp"), "(Repeat Unit 3)").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a model").unwrap();

        let (jobs, skips) = dir_jobs(&dir, &SynthConfig::new()).unwrap();
        // Sorted by file name: a_row before b_fins.
        assert_eq!(
            jobs.iter().map(|j| j.name.as_str()).collect::<Vec<_>>(),
            vec!["a_row", "b_fins"]
        );
        assert_eq!(jobs[1].input.num_prims(), 4);
        assert_eq!(skips.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nesting_depth_skips_line_comments() {
        assert_eq!(nesting_depth("Unit"), 0);
        assert_eq!(nesting_depth("(Union Unit (Translate 1 2 3 Unit))"), 2);
        assert_eq!(nesting_depth("(Union ; (((( in a comment\n Unit Unit)"), 1);
        assert_eq!(nesting_depth(")))((("), 3);
    }

    #[test]
    fn colliding_stems_keep_their_extensions() {
        let dir = std::env::temp_dir().join("sz_batch_corpus_collide");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("model.scad"),
            "for (i = [0 : 2]) translate([i * 4, 0, 0]) cube(1, center = true);",
        )
        .unwrap();
        std::fs::write(dir.join("model.csexp"), "(Translate 1 0 0 Unit)").unwrap();
        let (jobs, skips) = dir_jobs(&dir, &SynthConfig::new()).unwrap();
        assert!(skips.is_empty());
        let mut names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
        names.sort();
        assert_eq!(names, vec!["model.csexp", "model.scad"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shards_partition_the_suite_disjointly_and_completely() {
        let all = suite16_jobs(&SynthConfig::new());
        let shards: Vec<ShardSpec> = (1..=4).map(|i| ShardSpec { index: i, count: 4 }).collect();

        // Every job lands in exactly one shard.
        for job in &all {
            assert_eq!(
                shards.iter().filter(|s| s.owns(&job.name)).count(),
                1,
                "{} must belong to exactly one shard",
                job.name
            );
        }

        // Filtering the full list per shard and re-merging recovers the
        // corpus exactly (order within a shard is preserved).
        let mut total = 0;
        let mut merged: Vec<String> = Vec::new();
        for shard in &shards {
            let mut jobs = suite16_jobs(&SynthConfig::new());
            let dropped = shard.filter(&mut jobs);
            assert_eq!(dropped, all.len() - jobs.len());
            total += jobs.len();
            merged.extend(jobs.iter().map(|j| j.name.clone()));
        }
        assert_eq!(total, all.len());
        let mut expected: Vec<String> = all.iter().map(|j| j.name.clone()).collect();
        merged.sort();
        expected.sort();
        assert_eq!(merged, expected);

        // 1/1 owns everything.
        let whole: ShardSpec = "1/1".parse().unwrap();
        assert!(all.iter().all(|j| whole.owns(&j.name)));
    }

    #[test]
    fn shard_spec_parsing_validates_its_bounds() {
        assert_eq!(
            "2/4".parse::<ShardSpec>().unwrap(),
            ShardSpec { index: 2, count: 4 }
        );
        assert_eq!("2/4".parse::<ShardSpec>().unwrap().to_string(), "2/4");
        for bad in ["", "3", "0/4", "5/4", "a/4", "1/0", "1/b", "-1/4"] {
            assert!(
                bad.parse::<ShardSpec>().is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn gen_jobs_shard_split_reassembles_the_unsharded_corpus() {
        let spec: sz_gen::GenSpec = "count=40,seed=7,noise=0.0005".parse().unwrap();
        let config = SynthConfig::new();
        let (all, dropped) = gen_jobs(&spec, &config, None);
        assert_eq!((all.len(), dropped), (40, 0));
        assert!(all.iter().all(|j| j.input.is_flat_csg()));
        assert_eq!(all[0].name, "gen:7:0");

        let mut merged: Vec<(String, String)> = Vec::new();
        let mut skipped_total = 0;
        for i in 1..=4 {
            let shard = ShardSpec { index: i, count: 4 };
            let (jobs, skipped) = gen_jobs(&spec, &config, Some(shard));
            assert_eq!(jobs.len() + skipped, 40);
            skipped_total += skipped;
            merged.extend(jobs.into_iter().map(|j| (j.name, j.input.to_string())));
        }
        assert_eq!(skipped_total, 3 * 40);
        // Reassembled by index: byte-identical to the unsharded run.
        merged.sort_by_key(|(name, _)| name.rsplit(':').next().unwrap().parse::<usize>().unwrap());
        let expected: Vec<(String, String)> = all
            .iter()
            .map(|j| (j.name.clone(), j.input.to_string()))
            .collect();
        assert_eq!(merged, expected);
    }

    #[test]
    fn sanitize() {
        assert_eq!(sanitize_name("3362402:gear"), "3362402_gear");
        assert_eq!(sanitize_name("a/b c"), "a_b_c");
        assert_eq!(sanitize_name("ok-name_1.2"), "ok-name_1.2");
    }
}
