//! The experiment registry: every paper artifact as one
//! [`Experiment`], keyed by a stable id that is also its `results/`
//! file stem.
//!
//! | id | artifact |
//! |----|----------|
//! | `fig1` | Figure 1: relaxed vs SC atomics on a discrete GPU |
//! | `fig2` | Figure 2: program/conflict graphs and ordering paths (static) |
//! | `table1` | Table 1: use cases with checker verdicts (static) |
//! | `listing7` | Listing 7 / §3.8: programmer- and system-centric verdicts (static) |
//! | `table2` | Table 2: simulated system parameters (static) |
//! | `table3` | Table 3: workloads, inputs and atomic classes (static) |
//! | `fig3` | Figure 3: microbenchmark time + energy, 6 configs |
//! | `fig4` | Figure 4: benchmark time + energy, 6 configs |
//! | `table4` | Table 4: measured benefits per model |
//! | `section6` | §6: the paper's headline averages |
//! | `sweep_contention` | §4.4 bins/contention sweep |
//! | `sweep_contexts` | hardware-context MLP sweep |
//! | `ablation_coalescing` | §6.3 DeNovo MSHR atomic coalescing |
//! | `ablation_acqrel` | §7 acquire/release one-sided atomics |
//! | `ext_sssp` | extension: SSSP across all six configs |
//! | `ext_pr_residual` | extension: quantum residual in PageRank |
//! | `ext_mesi` | extension: MESI-WB writeback baseline, 3 models |
//! | `hotspots` | diagnostic: protocol event profile GD0 vs DDR |
//! | `checker_stress` | the stress corpus under the streaming checker (static) |
//! | `conform_matrix` | conformance: Table-1 corpus vs the simulator |
//! | `conform_templates` | conformance: template corpus (polls, think, scratch + barrier) |
//!
//! A static artifact is a [`StaticArtifact`]: it has no simulation
//! jobs, renders its text from the model alone and writes no JSON rows.

mod ablations;
mod conform;
mod fig1;
mod hotspots;
mod mesi;
mod residual;
mod section6;
mod static_artifacts;
mod sweeps;
mod table4;

use crate::experiment::{rows_by_workload, Experiment};
use crate::tables::{energy_components_table, normalized_table, Metric};
use drfrlx_workloads::registry::extensions;
use drfrlx_workloads::{benchmarks, microbenchmarks, WorkloadSpec};
use hsim_sys::{RunReport, SimJob, SysParams};

/// A rows × six-configs grid experiment rendered as the standard
/// normalized time table, energy table, and (optionally) the energy
/// component breakdown — the shape of Figures 3/4 and the extension
/// figures.
pub struct GridExperiment {
    id: &'static str,
    title: &'static str,
    time_title: &'static str,
    energy_title: &'static str,
    specs: Vec<WorkloadSpec>,
    params: SysParams,
    energy_components: bool,
}

impl Experiment for GridExperiment {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn jobs(&self) -> Vec<SimJob> {
        self.specs.iter().flat_map(|s| s.six_jobs(&self.params)).collect()
    }

    fn render(&self, jobs: &[SimJob], reports: &[RunReport]) -> String {
        let rows = rows_by_workload(jobs, reports);
        let mut out = normalized_table(self.time_title, &rows, Metric::Time);
        out.push_str(&normalized_table(self.energy_title, &rows, Metric::Energy));
        if self.energy_components {
            out.push_str(&energy_components_table(&rows));
        }
        out
    }
}

/// An artifact with no simulation matrix (Figure 2, Tables 1–3,
/// Listing 7, the stress corpus): no jobs, and `render` returns `text`.
pub struct StaticArtifact {
    id: &'static str,
    title: &'static str,
    text: fn() -> String,
}

impl Experiment for StaticArtifact {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn jobs(&self) -> Vec<SimJob> {
        Vec::new()
    }

    fn render(&self, _jobs: &[SimJob], _reports: &[RunReport]) -> String {
        (self.text)()
    }
}

fn fig3() -> GridExperiment {
    GridExperiment {
        id: "fig3",
        title: "Figure 3: microbenchmark execution time and energy, 6 configs",
        time_title: "Figure 3(a): microbenchmark execution time (normalized to GD0)",
        energy_title: "Figure 3(b): microbenchmark energy (normalized to GD0)",
        specs: microbenchmarks(),
        params: SysParams::integrated(),
        energy_components: true,
    }
}

fn fig4() -> GridExperiment {
    GridExperiment {
        id: "fig4",
        title: "Figure 4: benchmark execution time and energy, 6 configs",
        time_title: "Figure 4(a): benchmark execution time (normalized to GD0)",
        energy_title: "Figure 4(b): benchmark energy (normalized to GD0)",
        specs: benchmarks(),
        params: SysParams::integrated(),
        energy_components: true,
    }
}

fn ext_sssp() -> GridExperiment {
    GridExperiment {
        id: "ext_sssp",
        title: "Extension: SSSP across all six configurations",
        time_title: "Extension: SSSP execution time (normalized to GD0)",
        energy_title: "Extension: SSSP energy (normalized to GD0)",
        specs: extensions().into_iter().filter(|s| s.name.starts_with("SSSP")).collect(),
        params: SysParams::integrated(),
        energy_components: false,
    }
}

/// Every registered experiment, in the paper's presentation order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(fig1::Fig1),
        Box::new(StaticArtifact {
            id: "fig2",
            title: "Figure 2: program/conflict graphs and ordering paths, with and without a race",
            text: static_artifacts::fig2,
        }),
        Box::new(StaticArtifact {
            id: "table1",
            title: "Table 1: GPU relaxed atomic use cases, with checker verdicts",
            text: static_artifacts::table1,
        }),
        Box::new(StaticArtifact {
            id: "listing7",
            title: "Listing 7 / §3.8: programmer-centric and system-centric verdicts",
            text: static_artifacts::listing7,
        }),
        Box::new(StaticArtifact {
            id: "table2",
            title: "Table 2: simulated heterogeneous system parameters",
            text: static_artifacts::table2,
        }),
        Box::new(StaticArtifact {
            id: "table3",
            title: "Table 3: benchmarks, inputs, and relaxed atomic classes",
            text: static_artifacts::table3,
        }),
        Box::new(fig3()),
        Box::new(fig4()),
        Box::new(table4::Table4),
        Box::new(section6::Section6),
        Box::new(sweeps::Contention),
        Box::new(sweeps::Contexts),
        Box::new(ablations::Coalescing),
        Box::new(ablations::AcqRel),
        Box::new(ext_sssp()),
        Box::new(residual::PrResidual),
        Box::new(mesi::MesiBaseline),
        Box::new(hotspots::Hotspots),
        Box::new(StaticArtifact {
            id: "checker_stress",
            title: "Stress corpus: streaming checker verdicts with explored/pruned counts",
            text: static_artifacts::checker_stress,
        }),
        Box::new(conform::ConformMatrix),
        Box::new(conform::ConformTemplates),
    ]
}

/// Registered experiment ids, in registry order.
pub fn ids() -> Vec<&'static str> {
    registry().iter().map(|e| e.id()).collect()
}

/// Look an experiment up by id.
pub fn find(id: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_findable() {
        let ids = ids();
        for id in &ids {
            assert!(find(id).is_some(), "{id} not findable");
        }
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate experiment ids");
    }

    #[test]
    fn grid_experiments_cover_the_six_configs() {
        for e in [fig3(), fig4(), ext_sssp()] {
            let jobs = e.jobs();
            assert_eq!(jobs.len() % 6, 0);
            for row in jobs.chunks(6) {
                let abbrevs: Vec<&str> = row.iter().map(|j| j.config.abbrev()).collect();
                assert_eq!(abbrevs, ["GD0", "GD1", "GDR", "DD0", "DD1", "DDR"]);
                assert!(row.iter().all(|j| j.workload == row[0].workload));
            }
        }
    }
}
