//! `compare A B`: per workload and end-to-end metric, the change from the
//! sets of runs in file A (the parent) to those in file B (the change),
//! against the metric's bound. Each file holds one JSON object per line, as
//! `run --out FILE` appends them, so a file may hold several sets.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::ops::WORKLOADS;
use crate::stats;

/// workload → metric → one value per set.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_sets(text: &str) -> Result<Sets, String> {
    let mut sets = Sets::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no \"workloads\" object", i + 1))?;
        for (workload, result) in workloads {
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap_or(&[]);
            for (metric, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    sets.entry(workload.clone())
                        .or_default()
                        .entry(metric.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(sets)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// The change's median is worse than the parent's by more than the bound.
    Worse,
    /// The parent's own runs spread wider than the bound: the comparison
    /// decides nothing either way.
    Unresolved,
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub parent: f64,
    pub change: f64,
    /// Signed share of the parent's median by which the change is worse
    /// (negative: better).
    pub worse_by: f64,
    /// Interquartile range of the parent's sets over their median; `None`
    /// with fewer than two sets.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

pub fn compare(parent: &Sets, change: &Sets) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for m in &END_TO_END {
            let values = |sets: &Sets| sets.get(w.name()).and_then(|ms| ms.get(m.name)).cloned();
            let (Some(a), Some(b)) = (values(parent), values(change)) else {
                continue;
            };
            let (Some(ma), Some(mb)) = (stats::median(&a), stats::median(&b)) else {
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = stats::quartiles(&a).map(|(q1, q3)| (q3 - q1) / ma);
            let verdict = if spread.is_some_and(|s| s > m.bound) {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: w.name().to_string(),
                metric: m.name,
                parent: ma,
                change: mb,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    rows
}

/// Prints the table; returns whether every row is within its bound.
pub fn report(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse by", "spread", "bound"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s));
        println!(
            "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>8} {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.parent,
            r.change,
            100.0 * r.worse_by,
            spread,
            100.0 * r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved (spread > bound)",
            }
        );
    }
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} compared, {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    worse == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(commit: f64, p50: f64) -> String {
        format!(
            "{{\"seed\": 1, \"workloads\": {{\"tpcc\": {{\"correct\": true, \"metrics\": {{\
             \"commit_per_s\": {{\"value\": {commit}, \"unit\": \"1/s\"}}, \
             \"op_p50_us\": {{\"value\": {p50}, \"unit\": \"us\"}}}}}}}}}}\n"
        )
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn marks_worse_ok_and_unresolved() {
        // Parent: five steady sets. Change: throughput down 30 % (worse, as
        // higher is better), latency down 30 % (better).
        let parent: String = [1000.0, 1010.0, 990.0, 1005.0, 995.0]
            .iter()
            .map(|&c| set(c, 100.0))
            .collect();
        let change = set(700.0, 70.0);
        let rows = compare(&parse_sets(&parent).unwrap(), &parse_sets(&change).unwrap());
        assert_eq!(rows.len(), 2, "only metrics present on both sides");
        let commit = row(&rows, "commit_per_s");
        assert_eq!(commit.verdict, Verdict::Worse);
        assert!((commit.worse_by - 0.3).abs() < 1e-9);
        assert!(commit.spread.unwrap() < 0.02);
        let p50 = row(&rows, "op_p50_us");
        assert_eq!(p50.verdict, Verdict::Ok);
        assert!((p50.worse_by + 0.3).abs() < 1e-9);
        assert!(!report(&rows));

        // A parent whose own sets spread wider than the bound resolves
        // nothing, whatever the change shows.
        let noisy: String = [1000.0, 1400.0, 700.0, 1300.0, 800.0]
            .iter()
            .map(|&c| set(c, 100.0))
            .collect();
        let rows = compare(&parse_sets(&noisy).unwrap(), &parse_sets(&change).unwrap());
        assert_eq!(row(&rows, "commit_per_s").verdict, Verdict::Unresolved);
        assert!(report(&rows));

        // One set a side: no spread to speak of, judged on the medians.
        let rows = compare(
            &parse_sets(&set(1000.0, 100.0)).unwrap(),
            &parse_sets(&set(990.0, 104.0)).unwrap(),
        );
        assert!(rows
            .iter()
            .all(|r| r.spread.is_none() && r.verdict == Verdict::Ok));
    }

    #[test]
    fn rejects_files_that_are_not_result_sets() {
        assert!(parse_sets("{\"x\": 1}\n").is_err());
        assert!(parse_sets("not json\n").is_err());
        assert!(parse_sets("\n\n").unwrap().is_empty());
    }
}
