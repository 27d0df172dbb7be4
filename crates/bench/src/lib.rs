//! # drfrlx-bench — the unified experiment harness
//!
//! Every artifact of the paper's evaluation is one
//! [`experiment::Experiment`] in the [`experiments::registry`]. A
//! simulation-backed one is a declarative job matrix (workload ×
//! `SystemConfig` × platform) plus renderers for the human-readable
//! table and structured JSON rows. The jobs run on the parallel sweep
//! engine (`hsim_sys::run_matrix`), so regenerating a figure uses
//! every core while staying byte-identical to a serial run. A static
//! one ([`experiments::StaticArtifact`]) has no jobs and renders its
//! table from the model alone.
//!
//! | id | artifact |
//! |----|----------|
//! | `fig1` | Figure 1: relaxed vs SC atomics, discrete GPU |
//! | `fig2` | Figure 2: program/conflict graphs and ordering paths (static) |
//! | `table1` | Table 1: use cases with checker verdicts (static) |
//! | `listing7` | Listing 7 / §3.8 validation (static) |
//! | `table2` | Table 2: simulated system parameters (static) |
//! | `table3` | Table 3: workloads, inputs and atomic classes (static) |
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
//! | `checker_stress` | the stress corpus under the streaming checker (static) |
//! | `conform_matrix` | conformance: Table-1 corpus vs the simulator |
//! | `conform_templates` | conformance: template corpus |
//!
//! Run any of them as `drfrlx bench <id>` (or `bench all`); this is the
//! one path to every `results/*` file. The command honors
//! `--threads N` / `DRFRLX_THREADS` (default: all cores) and
//! `--out DIR` / `DRFRLX_RESULTS` (default: `results/`), prints the
//! text table to stdout, and writes `results/<id>.txt` plus, for a
//! simulation-backed experiment, JSON-lines `results/<id>.json` for
//! trajectory tracking.
//!
//! Timings of record come from the separate `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod experiments;
pub mod json;
pub mod tables;

pub use experiment::{run_experiment, write_artifacts, Experiment, ExperimentRun};
pub use experiments::{find, ids, registry};
pub use tables::{energy_components_table, geomean, normalized_table, Metric};
