//! JSON-lines report sink: one record per job plus a trailing aggregate
//! summary, feeding `BENCH_batch.json`. The writer is hand-rolled (the
//! environment has no serde) but emits strict JSON — escaping is
//! centralized in [`json_string`].
//!
//! [`merge_reports`] folds the per-shard JSONL streams of a fleet run
//! (`szb --shard i/N`) back into one report: job rows are deduplicated
//! by name (newest input wins) and sorted, shard summaries are dropped,
//! and one merged summary is recomputed from the kept rows.

use std::collections::BTreeMap;

use szalinski::StopReason;

use crate::engine::{BatchReport, JobOutcome, JobStatus};

/// Short machine-readable tag for a [`StopReason`], used in JSONL
/// records (`stop_reason` field) and the `szb` summary.
pub fn stop_reason_tag(reason: &StopReason) -> &'static str {
    match reason {
        StopReason::Saturated => "saturated",
        StopReason::IterationLimit(_) => "iteration_limit",
        StopReason::NodeLimit(_) => "node_limit",
        StopReason::Cancelled => "cancelled",
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number: `-0.0` is normalized to `0` and
/// non-finite values become `null` (JSON has no NaN/inf).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // Normalize -0.0 (e.g. the empty-iterator sum) so records never
        // contain the JSON-unfriendly `-0`.
        let x = if x == 0.0 { 0.0 } else { x };
        // f64 Display round-trips and never prints NaN/inf here.
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Renders one job outcome as a single JSON object (no trailing
/// newline).
pub fn job_record(o: &JobOutcome) -> String {
    let mut fields = vec![
        ("type".to_owned(), "\"job\"".to_owned()),
        ("name".to_owned(), json_string(&o.name)),
        ("status".to_owned(), json_string(o.status.tag())),
        ("cached".to_owned(), o.cached.to_string()),
        ("snapshot_hit".to_owned(), o.snapshot_hit.to_string()),
        ("hit_deadline".to_owned(), o.hit_deadline.to_string()),
        (
            "stop_reason".to_owned(),
            o.stop_reason
                .as_ref()
                .map_or("null".to_owned(), |r| json_string(stop_reason_tag(r))),
        ),
        ("time_s".to_owned(), json_f64(o.time.as_secs_f64())),
        ("iterations".to_owned(), o.iterations.to_string()),
        ("programs".to_owned(), o.programs.len().to_string()),
        ("search_time_s".to_owned(), json_f64(o.search_time_s())),
        ("apply_time_s".to_owned(), json_f64(o.apply_time_s())),
        (
            "cost_fingerprint".to_owned(),
            json_string(&o.cost_fingerprint),
        ),
    ];
    if !o.pareto.is_empty() {
        // The Pareto front (two-objective extraction): mutually
        // non-dominating programs, ascending on the first objective.
        let points: Vec<String> = o
            .pareto
            .iter()
            .map(|(costs, prog)| {
                render_object(&[
                    ("cost_a".to_owned(), costs[0].to_string()),
                    ("cost_b".to_owned(), costs[1].to_string()),
                    ("prog".to_owned(), json_string(prog)),
                ])
            })
            .collect();
        fields.push(("pareto".to_owned(), format!("[{}]", points.join(","))));
    }
    if !o.rule_stats.is_empty() {
        // Per-rule e-matching profile; rules that never matched are
        // elided to keep records compact.
        let rules: Vec<String> = o
            .rule_stats
            .iter()
            .filter(|s| s.matches > 0)
            .map(|s| {
                render_object(&[
                    ("name".to_owned(), json_string(&s.name)),
                    ("matches".to_owned(), s.matches.to_string()),
                    ("applied".to_owned(), s.applied.to_string()),
                    ("search_s".to_owned(), json_f64(s.search_time.as_secs_f64())),
                    ("apply_s".to_owned(), json_f64(s.apply_time.as_secs_f64())),
                    ("times_banned".to_owned(), s.times_banned.to_string()),
                ])
            })
            .collect();
        fields.push(("rules".to_owned(), format!("[{}]", rules.join(","))));
    }
    match &o.status {
        JobStatus::Rejected(e) => fields.push(("error".to_owned(), json_string(&e.to_string()))),
        JobStatus::Panicked(msg) => fields.push(("error".to_owned(), json_string(msg))),
        JobStatus::Ok => {}
    }
    if let Some(row) = &o.row {
        fields.extend([
            ("i_ns".to_owned(), row.i_ns.to_string()),
            ("o_ns".to_owned(), row.o_ns.to_string()),
            ("i_p".to_owned(), row.i_p.to_string()),
            ("o_p".to_owned(), row.o_p.to_string()),
            ("i_d".to_owned(), row.i_d.to_string()),
            ("o_d".to_owned(), row.o_d.to_string()),
            ("n_l".to_owned(), json_string(&row.n_l)),
            ("f".to_owned(), json_string(&row.f)),
            (
                "rank".to_owned(),
                row.rank.map_or("null".to_owned(), |r| r.to_string()),
            ),
            ("size_reduction".to_owned(), json_f64(row.size_reduction())),
        ]);
    }
    if let Some(best) = o.best() {
        fields.push(("best".to_owned(), json_string(best)));
    }
    render_object(&fields)
}

/// Renders the aggregate summary as a single JSON object.
pub fn summary_record(report: &BatchReport) -> String {
    let mut summary = Summary {
        workers: report.workers,
        wall_time_s: report.wall_time.as_secs_f64(),
        ..Summary::default()
    };
    for o in &report.outcomes {
        summary.add_job(
            o.status == JobStatus::Ok,
            o.cached,
            o.snapshot_hit,
            o.cancelled(),
            o.search_time_s(),
            o.apply_time_s(),
            o.row
                .as_ref()
                .map(|r| (r.size_reduction(), r.rank.is_some())),
        );
    }
    summary.render()
}

/// The running totals behind a summary row, shared by
/// [`summary_record`] (over a [`BatchReport`]) and [`merge_reports`]
/// (over parsed job rows). Each caller adds its jobs in its own order,
/// which fixes the float sums' summation order.
#[derive(Default)]
struct Summary {
    jobs: usize,
    ok: usize,
    workers: usize,
    cache_hits: usize,
    snapshot_hits: usize,
    cancelled: usize,
    wall_time_s: f64,
    search_time_s: f64,
    apply_time_s: f64,
    /// Jobs with a table row, and how many of those ranked a structured
    /// program.
    rows: usize,
    ranked: usize,
    size_reduction: f64,
}

impl Summary {
    /// Counts one job; `row` is its table row's size reduction and
    /// whether it ranked a structured program.
    #[allow(clippy::too_many_arguments)]
    fn add_job(
        &mut self,
        ok: bool,
        cached: bool,
        snapshot_hit: bool,
        cancelled: bool,
        search_time_s: f64,
        apply_time_s: f64,
        row: Option<(f64, bool)>,
    ) {
        self.jobs += 1;
        self.ok += usize::from(ok);
        self.cache_hits += usize::from(cached);
        self.snapshot_hits += usize::from(snapshot_hit);
        self.cancelled += usize::from(cancelled);
        self.search_time_s += search_time_s;
        self.apply_time_s += apply_time_s;
        if let Some((size_reduction, ranked)) = row {
            self.rows += 1;
            self.size_reduction += size_reduction;
            self.ranked += usize::from(ranked);
        }
    }

    fn render(&self) -> String {
        let n = self.jobs;
        let rate = |hits: usize| if n == 0 { 0.0 } else { hits as f64 / n as f64 };
        let per_row = |x: f64| {
            if self.rows == 0 {
                0.0
            } else {
                x / self.rows as f64
            }
        };
        let wall = self.wall_time_s;
        render_object(&[
            ("type".to_owned(), "\"summary\"".to_owned()),
            ("jobs".to_owned(), n.to_string()),
            ("ok".to_owned(), self.ok.to_string()),
            ("workers".to_owned(), self.workers.to_string()),
            ("cache_hits".to_owned(), self.cache_hits.to_string()),
            ("cache_misses".to_owned(), (n - self.cache_hits).to_string()),
            ("cache_hit_rate".to_owned(), json_f64(rate(self.cache_hits))),
            ("snapshot_hits".to_owned(), self.snapshot_hits.to_string()),
            (
                "snapshot_hit_rate".to_owned(),
                json_f64(rate(self.snapshot_hits)),
            ),
            ("cancelled".to_owned(), self.cancelled.to_string()),
            ("wall_time_s".to_owned(), json_f64(wall)),
            ("search_time_s".to_owned(), json_f64(self.search_time_s)),
            ("apply_time_s".to_owned(), json_f64(self.apply_time_s)),
            (
                "jobs_per_s".to_owned(),
                json_f64(if wall > 0.0 { n as f64 / wall } else { 0.0 }),
            ),
            (
                "mean_size_reduction".to_owned(),
                json_f64(per_row(self.size_reduction)),
            ),
            (
                "structure_fraction".to_owned(),
                json_f64(per_row(self.ranked as f64)),
            ),
        ])
    }
}

/// Extracts the raw JSON text of the **first** occurrence of `"key":`
/// in a one-line record: the quoted literal for strings, the bare
/// token for numbers/booleans/null. Every key this module scans is
/// emitted before any nested object that reuses it (`"name"` inside
/// the `rules` array comes after the top-level `"name"`), so the first
/// occurrence is always the top-level field.
fn scan_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let bytes = stripped.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return Some(&rest[..i + 2]),
                _ => i += 1,
            }
        }
        None
    } else {
        let end = rest.find([',', '}'])?;
        Some(&rest[..end])
    }
}

/// Merges per-shard JSONL report streams into one report.
///
/// Inputs are whole-file texts in the order given; job rows with the
/// same name deduplicate **newest-wins** (a resumed shard's rerun row
/// replaces the original). The merged report lists job rows sorted by
/// name — shard rows arrive in per-shard completion order, so sorting
/// is what makes the merge deterministic — followed by one recomputed
/// summary. Input summary rows are dropped; the merged summary takes
/// `workers` as the **sum** and `wall_time_s` as the **max** over the
/// input summaries (the fleet's critical path), and recomputes every
/// other field from the kept job rows.
pub fn merge_reports(inputs: &[String]) -> Result<String, String> {
    let mut jobs: BTreeMap<String, String> = BTreeMap::new();
    let mut summary = Summary::default();
    for text in inputs {
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match scan_field(line, "type") {
                Some("\"job\"") => {
                    let name = scan_field(line, "name")
                        .ok_or_else(|| format!("job record without a name: {line}"))?;
                    jobs.insert(name.to_owned(), line.to_owned());
                }
                Some("\"summary\"") => {
                    if let Some(w) =
                        scan_field(line, "wall_time_s").and_then(|v| v.parse::<f64>().ok())
                    {
                        summary.wall_time_s = summary.wall_time_s.max(w);
                    }
                    summary.workers += scan_field(line, "workers")
                        .and_then(|v| v.parse::<usize>().ok())
                        .unwrap_or(0);
                }
                _ => return Err(format!("unrecognized record: {line}")),
            }
        }
    }

    let seconds = |line: &str, key: &str| {
        scan_field(line, key)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let mut out = String::new();
    for line in jobs.values() {
        summary.add_job(
            scan_field(line, "status") == Some("\"ok\""),
            scan_field(line, "cached") == Some("true"),
            scan_field(line, "snapshot_hit") == Some("true"),
            scan_field(line, "stop_reason") == Some("\"cancelled\""),
            seconds(line, "search_time_s"),
            seconds(line, "apply_time_s"),
            scan_field(line, "size_reduction").map(|v| {
                (
                    v.parse::<f64>().unwrap_or(0.0),
                    matches!(scan_field(line, "rank"), Some(r) if r != "null"),
                )
            }),
        );
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&summary.render());
    out.push('\n');
    Ok(out)
}

fn render_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), v))
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn outcome(name: &str, cached: bool) -> JobOutcome {
        JobOutcome {
            name: name.to_owned(),
            status: JobStatus::Ok,
            cached,
            snapshot_hit: false,
            hit_deadline: false,
            stop_reason: (!cached).then_some(StopReason::Saturated),
            time: Duration::from_millis(250),
            iterations: if cached { 0 } else { 7 },
            programs: vec![(3, "(Repeat Unit 3)".to_owned())],
            row: None,
            cost_fingerprint: "ast-size".to_owned(),
            pareto: Vec::new(),
            rule_stats: if cached {
                Vec::new()
            } else {
                vec![
                    sz_egraph_rule_stat("fold-intro-union", 4, 2, 0.25),
                    sz_egraph_rule_stat("never-fired", 0, 0, 0.5),
                ]
            },
        }
    }

    fn sz_egraph_rule_stat(
        name: &str,
        matches: usize,
        applied: usize,
        search_s: f64,
    ) -> szalinski::RuleStat {
        szalinski::RuleStat {
            name: name.to_owned(),
            matches,
            applied,
            search_time: Duration::from_secs_f64(search_s),
            apply_time: Duration::from_millis(10),
            times_banned: 0,
        }
    }

    #[test]
    fn escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn job_record_shape() {
        let rec = job_record(&outcome("3362402:gear", false));
        assert!(rec.starts_with('{') && rec.ends_with('}'));
        assert!(rec.contains(r#""type":"job""#));
        assert!(rec.contains(r#""name":"3362402:gear""#));
        assert!(rec.contains(r#""cached":false"#));
        assert!(rec.contains(r#""iterations":7"#));
        assert!(rec.contains(r#""best":"(Repeat Unit 3)""#));
        assert!(rec.contains(r#""stop_reason":"saturated""#));
        // Cache hits ran no saturation: stop_reason is null.
        let cached = job_record(&outcome("warm", true));
        assert!(cached.contains(r#""stop_reason":null"#));
    }

    #[test]
    fn job_record_carries_cost_fingerprint_and_pareto() {
        let mut o = outcome("3362402:gear", false);
        o.cost_fingerprint = "ast-size+pareto(ast-size,depth)".to_owned();
        o.pareto = vec![
            ([3, 9], "(Repeat Unit 3)".to_owned()),
            ([7, 2], "(Union Unit Unit)".to_owned()),
        ];
        let rec = job_record(&o);
        assert!(rec.contains(r#""cost_fingerprint":"ast-size+pareto(ast-size,depth)""#));
        assert!(rec.contains(r#""pareto":[{"cost_a":3,"cost_b":9,"prog":"(Repeat Unit 3)"},"#));
        // No pareto requested: the field is elided entirely.
        let plain = job_record(&outcome("plain", false));
        assert!(plain.contains(r#""cost_fingerprint":"ast-size""#));
        assert!(!plain.contains(r#""pareto""#));
    }

    #[test]
    fn cancelled_jobs_are_tagged_and_counted() {
        let mut o = outcome("slow", false);
        o.stop_reason = Some(StopReason::Cancelled);
        let rec = job_record(&o);
        assert!(rec.contains(r#""stop_reason":"cancelled""#));
        let report = BatchReport {
            outcomes: vec![o, outcome("fast", false)],
            wall_time: Duration::from_secs(1),
            workers: 1,
        };
        let summary = summary_record(&report);
        assert!(summary.contains(r#""cancelled":1"#), "{summary}");
    }

    #[test]
    fn job_record_carries_ematch_profile() {
        let rec = job_record(&outcome("3362402:gear", false));
        assert!(rec.contains(r#""search_time_s":0.75"#));
        assert!(rec.contains(r#""rules":[{"name":"fold-intro-union""#));
        assert!(rec.contains(r#""matches":4"#));
        // Rules with zero matches are elided from the array...
        assert!(!rec.contains("never-fired"));
        // ...but still counted in the job totals.
        let cached = job_record(&outcome("warm", true));
        assert!(cached.contains(r#""search_time_s":0"#));
        assert!(!cached.contains(r#""rules""#));
    }

    #[test]
    fn panic_records_carry_the_message() {
        let mut o = outcome("boom", false);
        o.status = JobStatus::Panicked("index out of bounds".to_owned());
        o.programs.clear();
        let rec = job_record(&o);
        assert!(rec.contains(r#""status":"panicked""#));
        assert!(rec.contains(r#""error":"index out of bounds""#));
    }

    #[test]
    fn scan_field_reads_the_top_level_value() {
        let rec = job_record(&outcome("3362402:gear", false));
        assert_eq!(scan_field(&rec, "name"), Some("\"3362402:gear\""));
        assert_eq!(scan_field(&rec, "status"), Some("\"ok\""));
        assert_eq!(scan_field(&rec, "cached"), Some("false"));
        assert_eq!(scan_field(&rec, "iterations"), Some("7"));
        assert_eq!(scan_field(&rec, "search_time_s"), Some("0.75"));
        assert_eq!(scan_field(&rec, "missing"), None);
        // Escaped quotes inside a string value don't end the scan.
        let tricky = r#"{"type":"job","name":"a\"b","status":"ok"}"#;
        assert_eq!(scan_field(tricky, "name"), Some(r#""a\"b""#));
        assert_eq!(scan_field(tricky, "status"), Some("\"ok\""));
    }

    /// A whole JSONL report as `szb` streams it: one row per job, then
    /// the summary.
    fn jsonl(report: &BatchReport) -> String {
        let mut text: String = report
            .outcomes
            .iter()
            .map(|o| job_record(o) + "\n")
            .collect();
        text.push_str(&summary_record(report));
        text.push('\n');
        text
    }

    #[test]
    fn merge_dedupes_by_name_sorts_and_recomputes_the_summary() {
        let shard_a = BatchReport {
            outcomes: vec![outcome("zeta", false), outcome("alpha", true)],
            wall_time: Duration::from_secs(4),
            workers: 2,
        };
        let shard_b = BatchReport {
            outcomes: vec![outcome("mid", false)],
            wall_time: Duration::from_secs(6),
            workers: 3,
        };
        // shard_b re-ran "zeta" fresh (a resumed shard): newest wins.
        let mut b_text = jsonl(&shard_b);
        b_text.insert_str(0, &format!("{}\n", job_record(&outcome("zeta", true))));
        let merged = merge_reports(&[jsonl(&shard_a), b_text]).unwrap();
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(lines.len(), 4, "3 unique jobs + 1 summary: {merged}");
        assert_eq!(scan_field(lines[0], "name"), Some("\"alpha\""));
        assert_eq!(scan_field(lines[1], "name"), Some("\"mid\""));
        assert_eq!(scan_field(lines[2], "name"), Some("\"zeta\""));
        // Newest-wins: shard_b's cached rerun row replaced shard_a's.
        assert_eq!(scan_field(lines[2], "cached"), Some("true"));

        let summary = lines[3];
        assert_eq!(scan_field(summary, "type"), Some("\"summary\""));
        assert_eq!(scan_field(summary, "jobs"), Some("3"));
        assert_eq!(scan_field(summary, "ok"), Some("3"));
        assert_eq!(scan_field(summary, "workers"), Some("5"), "sum");
        assert_eq!(scan_field(summary, "cache_hits"), Some("2"));
        assert_eq!(scan_field(summary, "cache_misses"), Some("1"));
        assert_eq!(scan_field(summary, "wall_time_s"), Some("6"), "max");
        assert_eq!(scan_field(summary, "jobs_per_s"), Some("0.5"));
        assert_eq!(scan_field(summary, "cancelled"), Some("0"));
    }

    #[test]
    fn merging_one_unsharded_report_preserves_its_rows() {
        let report = BatchReport {
            outcomes: vec![outcome("a", false), outcome("b", true)],
            wall_time: Duration::from_secs(2),
            workers: 4,
        };
        let merged = merge_reports(&[jsonl(&report)]).unwrap();
        for o in &report.outcomes {
            assert!(merged.contains(&job_record(o)), "row for {} kept", o.name);
        }
        assert!(merged.trim_end().ends_with('}'));
        assert_eq!(
            scan_field(merged.lines().last().unwrap(), "workers"),
            Some("4")
        );
        // Garbage input is an error, not a silent drop.
        assert!(merge_reports(&["not json\n".to_owned()]).is_err());
    }

    /// Name-sorted outcomes that set every summary field: table rows with
    /// and without a ranked structured program, a program-cache hit, a
    /// snapshot resume, a cancelled and a rejected job.
    fn fixed_report() -> BatchReport {
        let row = |i_ns: usize, o_ns: usize, rank: Option<usize>| szalinski::TableRow {
            name: String::new(),
            i_ns,
            o_ns,
            i_p: 3,
            o_p: 1,
            i_d: 4,
            o_d: 5,
            n_l: "1".to_owned(),
            f: "-".to_owned(),
            time_s: 0.1,
            rank,
        };
        let mut fresh = outcome("a-fresh", false);
        fresh.row = Some(row(30, 12, Some(1)));
        let mut cached = outcome("b-cached", true);
        cached.row = Some(row(20, 20, None));
        let mut resumed = outcome("c-resumed", false);
        resumed.snapshot_hit = true;
        resumed.stop_reason = None;
        resumed.rule_stats = vec![
            sz_egraph_rule_stat("r", 1, 1, 0.1),
            sz_egraph_rule_stat("s", 2, 1, 0.2),
        ];
        resumed.row = Some(row(7, 3, Some(2)));
        let mut cancelled = outcome("d-cancelled", false);
        cancelled.stop_reason = Some(StopReason::Cancelled);
        cancelled.row = Some(row(9, 9, None));
        let mut rejected = outcome("e-rejected", false);
        rejected.status = JobStatus::Rejected(szalinski::SynthError::NotFlat);
        rejected.stop_reason = None;
        rejected.programs.clear();
        rejected.rule_stats.clear();
        BatchReport {
            outcomes: vec![fresh, cached, resumed, cancelled, rejected],
            wall_time: Duration::from_millis(2500),
            workers: 3,
        }
    }

    #[test]
    fn summary_row_is_pinned_and_merge_recomputes_it() {
        let report = fixed_report();
        let pinned = concat!(
            r#"{"type":"summary","jobs":5,"ok":4,"workers":3,"cache_hits":1,"cache_misses":4,"#,
            r#""cache_hit_rate":0.2,"snapshot_hits":1,"snapshot_hit_rate":0.2,"cancelled":1,"#,
            r#""wall_time_s":2.5,"search_time_s":1.8,"apply_time_s":0.06,"jobs_per_s":2,"#,
            r#""mean_size_reduction":0.2928571428571428,"structure_fraction":0.5}"#,
        );
        assert_eq!(summary_record(&report), pinned);
        // One name-sorted report: the merge adds up the same rows in the
        // same order, so its recomputed summary is the same line.
        let merged = merge_reports(&[jsonl(&report)]).unwrap();
        assert_eq!(merged.lines().last(), Some(pinned));
    }
}
