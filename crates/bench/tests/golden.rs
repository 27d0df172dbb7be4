//! Golden-artifact tests: the committed `results/` files are the
//! reference output of every experiment, and regenerating them must be
//! byte-identical — the contract the scheduler/relation/NoC hot-path
//! rewrites are held to.
//!
//! The cheap experiments and all static (non-simulation) artifacts run
//! in the normal test pass; the full sweep of every registered
//! experiment is `#[ignore]` because it re-simulates every figure (run
//! it explicitly, in release:
//! `cargo test -q -p drfrlx-bench --release -- --ignored`).

use drfrlx_bench::json::parse_json;
use drfrlx_bench::{find, ids, run_experiment, ExperimentRun};
use std::path::{Path, PathBuf};

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed(name: &str) -> String {
    let path = results_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed artifact {}: {e}", path.display()))
}

/// `write_artifacts` normalizes the text artifact to end with one
/// newline; apply the same rule before comparing.
fn as_txt_artifact(text: &str) -> String {
    let mut t = text.to_string();
    if !t.ends_with('\n') {
        t.push('\n');
    }
    t
}

/// Regenerate `id` at one worker and compare it with the committed
/// `<id>.txt` and, when the run has JSON rows, `<id>.json`. A run with
/// no rows writes no JSON file, so none may be committed either.
fn assert_experiment_matches(id: &str) -> ExperimentRun {
    let e = find(id).unwrap_or_else(|| panic!("unknown experiment {id}"));
    let run = run_experiment(e.as_ref(), 1);
    assert_eq!(
        as_txt_artifact(&run.text),
        committed(&format!("{id}.txt")),
        "{id}.txt drifted from the committed artifact"
    );
    if run.json.is_empty() {
        let path = results_dir().join(format!("{id}.json"));
        assert!(!path.exists(), "{id} has no JSON rows but {} is committed", path.display());
    } else {
        let mut json = run.json.join("\n");
        json.push('\n');
        assert_eq!(json, committed(&format!("{id}.json")), "{id}.json drifted");
    }
    run
}

/// The cheapest simulation-backed experiments stay byte-identical to
/// their committed artifacts on every test run.
#[test]
fn cheap_experiments_match_committed_artifacts() {
    for id in ["table4", "sweep_contexts", "ablation_coalescing"] {
        assert_experiment_matches(id);
    }
}

/// The conformance matrix (litmus corpus × 9 configs × 128 schedules)
/// regenerates its committed artifacts byte-for-byte. Separate from
/// the cheap batch so a conformance drift is named in the failure.
#[test]
fn conform_matrix_matches_committed_artifacts() {
    assert_experiment_matches("conform_matrix");
}

/// The template-corpus conformance run (richer instances of the same
/// shared emitters: polls, think delays, retries, scratch + barrier)
/// regenerates its committed artifacts byte-for-byte and stays SOUND.
#[test]
fn conform_templates_match_committed_artifacts() {
    assert_experiment_matches("conform_templates");
}

/// Every static artifact (model-only, no simulation jobs) regenerates
/// its committed text byte-for-byte and has no JSON rows.
#[test]
fn static_artifacts_match_committed_artifacts() {
    for id in ["fig2", "table1", "listing7", "table2", "table3", "checker_stress"] {
        let run = assert_experiment_matches(id);
        assert!(run.reports.is_empty(), "{id}: a static artifact runs no simulation");
        assert!(run.json.is_empty(), "{id}: a static artifact has no JSON rows");
    }
}

/// Every committed `results/*.json` artifact is valid JSON-lines: each
/// line parses with the in-tree walker and is an object with the
/// experiment id.
#[test]
fn committed_json_artifacts_parse() {
    let dir = results_dir();
    let mut checked = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
            let row = parse_json(line).unwrap_or_else(|e| {
                panic!("{} line {}: {e}", path.display(), i + 1);
            });
            assert!(
                row.get("experiment").is_some(),
                "{} line {}: row lacks an experiment id",
                path.display(),
                i + 1
            );
        }
        checked += 1;
    }
    assert!(checked >= 12, "expected the committed artifact set, found {checked} json files");
}

/// Full sweep: every registered experiment regenerates its committed
/// text and JSON artifacts byte-for-byte.
#[test]
#[ignore = "re-simulates every experiment; run in release"]
fn all_experiments_match_committed_artifacts() {
    for id in ids() {
        assert_experiment_matches(id);
    }
}
