//! The experiment harness: a declarative [`Experiment`] is a job list
//! plus renderers; [`run_experiment`] fans the jobs out on the sweep
//! engine and produces both the human-readable text artifact and
//! structured JSON-lines rows.
//!
//! Every registered experiment (see [`crate::experiments::registry`])
//! runs as `drfrlx bench <id>`. Artifacts land in `results/<id>.txt`
//! and, for an experiment with JSON rows, `results/<id>.json`
//! (override the directory with `--out` or `DRFRLX_RESULTS`); worker
//! count comes from `--threads` or `DRFRLX_THREADS`.

use crate::json::JsonObj;
use hsim_sys::{run_matrix, RunReport, SimJob};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One paper artifact: a declarative job matrix plus renderers for the
/// text table and the JSON rows.
pub trait Experiment: Sync {
    /// Stable identifier (`fig3`, `table4`, `sweep_contention`, ...);
    /// also the `results/` file stem.
    fn id(&self) -> &'static str;

    /// One-line human description.
    fn title(&self) -> &'static str;

    /// The simulation jobs, in deterministic order. `render` and
    /// `json_rows` receive reports in exactly this order.
    fn jobs(&self) -> Vec<SimJob>;

    /// Render the human-readable artifact (the `results/<id>.txt`
    /// body, also printed to stdout).
    fn render(&self, jobs: &[SimJob], reports: &[RunReport]) -> String;

    /// Structured rows, one JSON object per line. The default emits
    /// one row per job with raw metrics plus time/energy normalized to
    /// the first job of the same workload (its row baseline).
    fn json_rows(&self, jobs: &[SimJob], reports: &[RunReport]) -> Vec<String> {
        jobs.iter()
            .zip(reports)
            .map(|(job, report)| {
                let base = jobs
                    .iter()
                    .position(|j| j.workload == job.workload)
                    .map(|i| &reports[i])
                    .unwrap_or(report);
                report_row(self.id(), job, report, base).finish()
            })
            .collect()
    }
}

/// The generic JSON row for one (job, report) cell: identity, raw
/// cycles/energy/protocol counters, and normalized time/energy vs
/// `base` (the row's first configuration). Experiments with extra
/// per-row fields can extend the returned builder.
pub fn report_row(experiment: &str, job: &SimJob, r: &RunReport, base: &RunReport) -> JsonObj {
    let e = &r.energy;
    let c = &r.counters;
    let p = &r.proto;
    JsonObj::new()
        .str("experiment", experiment)
        .str("workload", &job.workload)
        .str("config", r.config.abbrev())
        .str("platform", &job.params.name)
        .u64("cycles", r.cycles)
        .f64("normalized_time", r.normalized_time(base))
        .f64("energy_total", e.total())
        .f64("normalized_energy", r.normalized_energy(base))
        .obj(
            "energy",
            JsonObj::new()
                .f64("core", e.core)
                .f64("scratch", e.scratch)
                .f64("l1", e.l1)
                .f64("l2", e.l2)
                .f64("network", e.network),
        )
        .obj(
            "counters",
            JsonObj::new()
                .u64("core_ops", c.core_ops)
                .u64("scratch_accesses", c.scratch_accesses)
                .u64("l1_accesses", c.l1_accesses)
                .u64("l1_tag_ops", c.l1_tag_ops)
                .u64("l2_accesses", c.l2_accesses)
                .u64("dram_accesses", c.dram_accesses)
                .u64("noc_flit_hops", c.noc_flit_hops),
        )
        .obj(
            "proto",
            JsonObj::new()
                .u64("l1_hits", p.l1_hits)
                .u64("l1_misses", p.l1_misses)
                .u64("invalidation_events", p.invalidation_events)
                .u64("sb_flushes", p.sb_flushes)
                .u64("atomics_at_l1", p.atomics_at_l1)
                .u64("atomics_at_l2", p.atomics_at_l2)
                .u64("mshr_coalesced", p.mshr_coalesced)
                .u64("remote_l1_transfers", p.remote_l1_transfers),
        )
        .u64("atomics", r.atomics)
        .u64("atomics_overlapped", r.atomics_overlapped)
}

/// Group consecutive jobs with the same workload id into
/// `(workload, reports)` rows — the shape the table renderers take.
pub fn rows_by_workload(jobs: &[SimJob], reports: &[RunReport]) -> Vec<(String, Vec<RunReport>)> {
    let mut rows: Vec<(String, Vec<RunReport>)> = Vec::new();
    for (job, report) in jobs.iter().zip(reports) {
        match rows.last_mut() {
            Some((name, row)) if **name == *job.workload => row.push(report.clone()),
            _ => rows.push((job.workload.to_string(), vec![report.clone()])),
        }
    }
    rows
}

/// The finished outputs of one experiment run.
pub struct ExperimentRun {
    /// Reports in job order.
    pub reports: Vec<RunReport>,
    /// The rendered text artifact.
    pub text: String,
    /// JSON-lines rows.
    pub json: Vec<String>,
}

/// Run an experiment's matrix on `threads` workers and render both
/// artifacts.
pub fn run_experiment(e: &dyn Experiment, threads: usize) -> ExperimentRun {
    let jobs = e.jobs();
    let reports = run_matrix(&jobs, threads);
    let text = e.render(&jobs, &reports);
    let json = e.json_rows(&jobs, &reports);
    ExperimentRun { reports, text, json }
}

/// Write `results/<id>.txt` under `outdir` (created if missing), and
/// `results/<id>.json` when the run has JSON rows; returns the paths
/// written. A static artifact has no rows, so it gets no JSON file.
///
/// # Errors
///
/// Any I/O failure creating the directory or writing the files.
pub fn write_artifacts(
    outdir: &Path,
    id: &str,
    run: &ExperimentRun,
) -> std::io::Result<(PathBuf, Option<PathBuf>)> {
    std::fs::create_dir_all(outdir)?;
    let txt = outdir.join(format!("{id}.txt"));
    let mut text = run.text.clone();
    if !text.ends_with('\n') {
        text.push('\n');
    }
    std::fs::write(&txt, text)?;
    if run.json.is_empty() {
        return Ok((txt, None));
    }
    let json = outdir.join(format!("{id}.json"));
    let mut f = std::fs::File::create(&json)?;
    for row in &run.json {
        writeln!(f, "{row}")?;
    }
    Ok((txt, Some(json)))
}
