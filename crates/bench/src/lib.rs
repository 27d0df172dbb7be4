//! # drfrlx-bench — the unified experiment harness
//!
//! Every simulation-backed artifact of the paper's evaluation is one
//! [`experiment::Experiment`] in the [`experiments::registry`]: a
//! declarative job matrix (workload × `SystemConfig` × platform) plus
//! renderers for the human-readable table and structured JSON rows.
//! The jobs run on the parallel sweep engine (`hsim_sys::run_matrix`),
//! so regenerating a figure uses every core while staying
//! byte-identical to a serial run.
//!
//! | id | artifact |
//! |----|----------|
//! | `fig1` | Figure 1: relaxed vs SC atomics, discrete GPU |
//! | `fig3` | Figure 3: microbenchmark time + energy |
//! | `fig4` | Figure 4: benchmark time + energy |
//! | `table4` | Table 4: measured benefits per model |
//! | `section6` | §6: the paper's headline averages |
//! | `sweep_contention` | §4.4 bins/contention sweep |
//! | `sweep_contexts` | hardware-context MLP sweep |
//! | `ablation_coalescing` | §6.3 MSHR atomic coalescing |
//! | `ablation_acqrel` | §7 acquire/release one-sided atomics |
//! | `ext_sssp` | extension: SSSP, all six configs |
//! | `ext_pr_residual` | extension: quantum residual in PR |
//! | `ext_mesi` | extension: MESI-WB writeback baseline |
//! | `hotspots` | diagnostic: protocol event profile |
//! | `conform_matrix` | conformance: Table-1 corpus vs the simulator |
//! | `conform_templates` | conformance: template corpus |
//!
//! Run any of them as `drfrlx bench <id>` (or `bench all`). The command
//! honors `--threads N` / `DRFRLX_THREADS` (default: all cores) and
//! `--out DIR` / `DRFRLX_RESULTS` (default: `results/`), prints the
//! text table to stdout, and writes `results/<id>.txt` plus JSON-lines
//! `results/<id>.json` for trajectory tracking.
//!
//! Artifacts with no simulation matrix keep dedicated binaries:
//! `fig2_paths`, `table1_usecases`, `table2_params`,
//! `table3_benchmarks`, `listing7_herd`.
//!
//! The `benches/` targets (`cargo bench`) measure the tooling itself —
//! SC-execution enumeration, race analysis, the simulator and the
//! sweep engine — with the offline [`timing`] harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod experiments;
pub mod json;
pub mod tables;
pub mod timing;

pub use experiment::{run_experiment, write_artifacts, Experiment, ExperimentRun};
pub use experiments::{find, ids, registry};
pub use tables::{energy_components_table, geomean, normalized_table, Metric};
