//! `drfrlx-benchmark compare A.jsonl B.jsonl`: mark every workload ×
//! metric better, worse, within bound or unresolved.
//!
//! The rule is the one for noisy shared hosts: B is **better** only when
//! it wins at least nine tenths of the paired runs (ties count for
//! neither) and the medians differ by more than A's interquartile
//! distance. Otherwise B is **worse** when its median is worse than
//! A's by more than the metric's bound from `BENCHMARK.json` (for
//! `setup_s`, never less than [`SETUP_FLOOR_S`]); **unresolved** when
//! either side's run-to-run spread is wider than the bound, unless
//! every B run beats every A run; and **within bound** otherwise.

use crate::catalog::{metric, Better};
use crate::stats::{quartiles_or_point, relative_spread};
use drfrlx_bench::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Absolute floor on the `setup_s` bound: set-up takes about a
/// millisecond on two workloads, where a relative bound alone would
/// flag scheduler noise.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// The verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins by the paired rule.
    Better,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// No change beyond the bound, and the spread is within it.
    WithinBound,
    /// The spread is wider than the bound.
    Unresolved,
    /// A per-layer metric: no bound, and no paired win.
    NoBound,
}

impl Verdict {
    /// Printed form.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::NoBound => "no bound",
        }
    }
}

/// Values of one metric on one workload, in file order.
type Runs = Vec<f64>;

/// `workload -> metric -> runs`, from the records in a JSON-lines file.
/// Lines that are not benchmark records are skipped.
///
/// # Errors
///
/// Names an unparseable record line.
fn read_records(text: &str) -> Result<BTreeMap<String, BTreeMap<String, Runs>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Runs>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let Ok(rec) = parse_json(line.trim()) else { continue };
        if rec.get("record").and_then(Json::as_str) != Some("drfrlx-benchmark") {
            continue;
        }
        let err = || format!("line {}: malformed benchmark record", i + 1);
        let workload = rec.get("workload").and_then(Json::as_str).ok_or_else(err)?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else { return Err(err()) };
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_num).ok_or_else(err)?;
            out.entry(workload.to_string()).or_default().entry(name.clone()).or_default().push(v);
        }
    }
    Ok(out)
}

/// Regression bounds by end-to-end metric name, from `BENCHMARK.json`.
///
/// # Errors
///
/// When the file does not parse or an entry lacks a name or bound.
fn read_bounds(benchmark_json: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = parse_json(benchmark_json)?;
    let entries = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).ok_or("end_to_end entry lacks name")?;
            let bound =
                e.get("bound").and_then(Json::as_num).ok_or("end_to_end entry lacks bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One compared cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// A's quartiles (the middle one is the median).
    pub a: [f64; 3],
    /// B's quartiles.
    pub b: [f64; 3],
    /// Share of paired runs B won.
    pub b_wins: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare the runs of one metric. Runs are paired in order; `bound`
/// is `None` for per-layer metrics.
pub fn compare_runs(name: &str, a: &[f64], b: &[f64], bound: Option<f64>) -> Cell {
    let better = metric(name).map_or(Better::Lower, |m| m.better);
    // Positive when B improves on A.
    let gain = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| gain(**x, **y) > 0.0).count();
    let b_wins = if pairs == 0 { 0.0 } else { wins as f64 / pairs as f64 };
    let (qa, qb) = (quartiles_or_point(a), quartiles_or_point(b));
    let (ma, mb) = (qa[1], qb[1]);
    let spread_a = qa[2] - qa[0];
    let verdict = if pairs > 0 && b_wins >= 0.9 && (mb - ma).abs() > spread_a {
        Verdict::Better
    } else if let Some(bound) = bound {
        let mut allowed = bound * ma.abs();
        if name == "setup_s" {
            allowed = allowed.max(SETUP_FLOOR_S);
        }
        let all_b_better = a.iter().all(|x| b.iter().all(|y| gain(*x, *y) > 0.0));
        let spread = if a.len() >= 2 && b.len() >= 2 {
            relative_spread(a).max(relative_spread(b))
        } else {
            0.0
        };
        if -gain(ma, mb) > allowed {
            Verdict::Worse
        } else if spread > bound && !all_b_better {
            Verdict::Unresolved
        } else {
            Verdict::WithinBound
        }
    } else {
        Verdict::NoBound
    };
    Cell { a: qa, b: qb, b_wins, verdict }
}

/// The full comparison report. Returns the text and whether any cell
/// came out worse.
///
/// # Errors
///
/// Propagates record and bound parse errors.
pub fn compare(a_text: &str, b_text: &str, benchmark_json: &str) -> Result<(String, bool), String> {
    let a = read_records(a_text)?;
    let b = read_records(b_text)?;
    let bounds = read_bounds(benchmark_json)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<30} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    let mut any_worse = false;
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else { continue };
        for (name, runs_a) in metrics_a {
            let Some(runs_b) = metrics_b.get(name) else { continue };
            let cell = compare_runs(name, runs_a, runs_b, bounds.get(name).copied());
            any_worse |= cell.verdict == Verdict::Worse;
            let show = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
            let _ = writeln!(
                out,
                "{workload:<13} {name:<30} {:>34} {:>34} {:>5.0}%  {}",
                show(cell.a),
                show(cell.b),
                cell.b_wins * 100.0,
                cell.verdict.as_str()
            );
        }
    }
    Ok((out, any_worse))
}
