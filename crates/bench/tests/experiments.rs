//! Harness-level integration tests: every registered experiment has a
//! well-formed job matrix, runs are byte-identical regardless of the
//! worker count, and the JSON rows have the golden shape.

use drfrlx_bench::{find, ids, registry, run_experiment};
use drfrlx_core::SystemConfig;

const SIX: [&str; 6] = ["GD0", "GD1", "GDR", "DD0", "DD1", "DDR"];

/// The model-only artifacts: the registry entries with no simulation.
const STATIC: [&str; 6] = ["fig2", "table1", "listing7", "table2", "table3", "checker_stress"];

/// Structural check for the whole registry, with no simulation: every
/// simulation experiment declares a non-empty matrix of labeled jobs,
/// exactly the static artifacts declare none, and a per-workload row
/// never repeats a cell, a configuration on one platform. A
/// conformance row runs each configuration on many perturbed
/// platforms, one per schedule.
#[test]
fn every_experiment_declares_a_wellformed_matrix() {
    for e in registry() {
        let jobs = e.jobs();
        assert!(!e.title().is_empty(), "{}: empty title", e.id());
        if STATIC.contains(&e.id()) {
            assert!(jobs.is_empty(), "{}: a static artifact has no jobs", e.id());
            continue;
        }
        assert!(!jobs.is_empty(), "{}: empty job matrix", e.id());
        let mut row_start = 0;
        for i in 0..=jobs.len() {
            if i == jobs.len() || (i > row_start && jobs[i].workload != jobs[row_start].workload) {
                let row = &jobs[row_start..i];
                assert!(!row[0].workload.is_empty(), "{}: unlabeled job", e.id());
                let mut cells: Vec<(&str, String)> =
                    row.iter().map(|j| (j.config.abbrev(), format!("{:?}", j.params))).collect();
                cells.sort_unstable();
                cells.dedup();
                assert_eq!(
                    cells.len(),
                    row.len(),
                    "{}: workload {} repeats a config on one platform",
                    e.id(),
                    row[0].workload
                );
                row_start = i;
            }
        }
    }
}

/// The six-config grid experiments walk `SystemConfig::all()` in order
/// for every workload — the invariant the normalized tables and the
/// JSON baselines (first job per workload = GD0) rely on.
#[test]
fn grid_experiments_walk_the_six_configs_in_order() {
    let all: Vec<&str> = SystemConfig::all().iter().map(|c| c.abbrev()).collect();
    assert_eq!(all, SIX);
    for id in ["fig3", "fig4", "section6", "ext_sssp", "sweep_contention"] {
        let e = find(id).unwrap();
        let jobs = e.jobs();
        assert_eq!(jobs.len() % 6, 0, "{id}: not a 6-config grid");
        for row in jobs.chunks(6) {
            let abbrevs: Vec<&str> = row.iter().map(|j| j.config.abbrev()).collect();
            assert_eq!(abbrevs, SIX, "{id}: row {} out of order", row[0].workload);
            assert!(row.iter().all(|j| j.workload == row[0].workload));
        }
    }
}

/// Figure 3/4 cover exactly the Table 3 workload registry, in order.
#[test]
fn figure_grids_cover_the_registered_workloads() {
    let micro: Vec<String> =
        drfrlx_workloads::microbenchmarks().iter().map(|s| s.name.to_string()).collect();
    let bench: Vec<String> =
        drfrlx_workloads::benchmarks().iter().map(|s| s.name.to_string()).collect();
    for (id, expect) in [("fig3", micro), ("fig4", bench)] {
        let jobs = find(id).unwrap().jobs();
        let rows: Vec<String> = jobs.chunks(6).map(|row| row[0].workload.to_string()).collect();
        assert_eq!(rows, expect, "{id}: workload rows diverge from the registry");
    }
}

/// The tentpole guarantee: a parallel sweep is byte-identical to the
/// serial one — same cycles, counters and artifacts, in job order.
#[test]
fn experiment_runs_are_identical_across_thread_counts() {
    let e = find("table4").unwrap();
    let serial = run_experiment(e.as_ref(), 1);
    for threads in [2, 8] {
        let parallel = run_experiment(e.as_ref(), threads);
        assert_eq!(serial.text, parallel.text, "text artifact differs at {threads} threads");
        assert_eq!(serial.json, parallel.json, "json artifact differs at {threads} threads");
        assert_eq!(serial.reports.len(), parallel.reports.len());
        for (s, p) in serial.reports.iter().zip(&parallel.reports) {
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.counters, p.counters);
            assert_eq!(s.proto, p.proto);
            assert_eq!(s.config, p.config);
        }
    }
}

/// Golden shape of the JSON-lines artifact, on the cheapest real
/// experiment: one row per job, every row carries the identity and
/// metric fields, and normalization never leaks NaN/inf (total
/// ratios render as plain numbers, degenerate ones as null — never
/// bare `NaN` or `inf`, which are not JSON).
#[test]
fn json_rows_have_the_golden_shape() {
    let e = find("table4").unwrap();
    let run = run_experiment(e.as_ref(), 1);
    let jobs = e.jobs();
    assert_eq!(run.json.len(), jobs.len());
    for (row, job) in run.json.iter().zip(&jobs) {
        assert!(row.starts_with('{') && row.ends_with('}'), "not an object: {row}");
        assert!(row.contains("\"experiment\":\"table4\""), "{row}");
        assert!(row.contains(&format!("\"workload\":\"{}\"", job.workload)), "{row}");
        assert!(row.contains(&format!("\"config\":\"{}\"", job.config.abbrev())), "{row}");
        for key in [
            "\"platform\":",
            "\"cycles\":",
            "\"normalized_time\":",
            "\"energy_total\":",
            "\"normalized_energy\":",
            "\"energy\":",
            "\"counters\":",
            "\"proto\":",
            "\"atomics\":",
            "\"atomics_overlapped\":",
        ] {
            assert!(row.contains(key), "missing {key} in {row}");
        }
        assert!(!row.contains("NaN") && !row.contains("inf"), "non-finite leaked: {row}");
        assert!(
            !row.contains("\"normalized_time\":null")
                && !row.contains("\"normalized_energy\":null"),
            "normalization must be total: {row}"
        );
    }
    // The first row of each workload is its own baseline.
    assert!(run.json[0].contains("\"normalized_time\":1"), "{}", run.json[0]);
    assert!(run.json[0].contains("\"normalized_energy\":1"), "{}", run.json[0]);
}

/// The registry and the root CLI agree on what exists.
#[test]
fn registry_covers_the_paper_artifacts() {
    assert_eq!(
        ids(),
        [
            "fig1",
            "fig2",
            "table1",
            "listing7",
            "table2",
            "table3",
            "fig3",
            "fig4",
            "table4",
            "section6",
            "sweep_contention",
            "sweep_contexts",
            "ablation_coalescing",
            "ablation_acqrel",
            "ext_sssp",
            "ext_pr_residual",
            "ext_mesi",
            "hotspots",
            "checker_stress",
            "conform_matrix",
            "conform_templates",
        ]
    );
}
