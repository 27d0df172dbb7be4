//! Figure 1: speedup of relaxed atomics over SC atomics on a
//! discrete-GPU-like platform.
//!
//! The paper measured nine atomic-heavy applications on a GTX 680; we
//! run our nine distinct workloads on the discrete configuration,
//! comparing the annotated (relaxed) version under DRFrlx against the
//! all-SC-atomics version under DRF0 — both on GPU coherence, as on
//! real hardware.

use crate::experiment::Experiment;
use drfrlx_core::{MemoryModel, Protocol, SystemConfig};
use drfrlx_workloads::figure1_workloads;
use hsim_sys::{total_ratio, RunReport, SimJob, SysParams};
use std::fmt::Write as _;

/// The Figure 1 experiment (`fig1`).
pub struct Fig1;

const SC: SystemConfig = SystemConfig { protocol: Protocol::Gpu, model: MemoryModel::Drf0 };
const RLX: SystemConfig = SystemConfig { protocol: Protocol::Gpu, model: MemoryModel::Drfrlx };

impl Experiment for Fig1 {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn title(&self) -> &'static str {
        "Figure 1: relaxed vs SC atomics on a discrete GPU"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let params = SysParams::discrete_gpu();
        figure1_workloads().iter().flat_map(|s| s.jobs(&[SC, RLX], &params)).collect()
    }

    fn render(&self, jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Figure 1: relaxed vs SC atomics on a discrete GPU");
        let _ = writeln!(out, "==================================================");
        let _ =
            writeln!(out, "{:8} {:>12} {:>12} {:>9}", "app", "SC cycles", "rlx cycles", "speedup");
        for (pair, job) in reports.chunks(2).zip(jobs.chunks(2)) {
            let (sc, rlx) = (&pair[0], &pair[1]);
            let _ = writeln!(
                out,
                "{:8} {:>12} {:>12} {:>8.2}x",
                job[0].workload,
                sc.cycles,
                rlx.cycles,
                total_ratio(sc.cycles as f64, rlx.cycles as f64)
            );
        }
        let _ = writeln!(out, "\n(shape target: ~1x for atomic-light apps, large for PR/BC-style");
        let _ = writeln!(out, " atomic storms — the paper saw up to 99x for PageRank)");
        out
    }
}
