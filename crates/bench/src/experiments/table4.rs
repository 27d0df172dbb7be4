//! Table 4: the qualitative benefits of DRF0/DRF1/DRFrlx, demonstrated
//! with measured event counts from one atomic-heavy run (HG).

use crate::experiment::Experiment;
use drfrlx_core::SystemConfig;
use drfrlx_workloads::microbenchmarks;
use hsim_sys::{RunReport, SimJob, SysParams};
use std::fmt::Write as _;

/// The Table 4 experiment (`table4`).
pub struct Table4;

impl Experiment for Table4 {
    fn id(&self) -> &'static str {
        "table4"
    }

    fn title(&self) -> &'static str {
        "Table 4: benefits of DRF0 / DRF1 / DRFrlx (measured on HG, GPU coherence)"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let params = SysParams::integrated();
        let spec = microbenchmarks().into_iter().find(|s| s.name == "HG").expect("HG registered");
        let configs =
            ["GD0", "GD1", "GDR"].map(|abbrev| SystemConfig::from_abbrev(abbrev).unwrap());
        spec.jobs(&configs, &params)
    }

    fn render(&self, _jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title());
        let _ = writeln!(
            out,
            "=========================================================================="
        );
        let _ = writeln!(
            out,
            "{:6} {:>14} {:>14} {:>18} {:>10}",
            "model", "invalidations", "SB flushes", "overlapped atomics", "cycles"
        );
        for r in reports {
            let _ = writeln!(
                out,
                "{:6} {:>14} {:>14} {:>18} {:>10}",
                r.config.abbrev(),
                r.proto.invalidation_events,
                r.proto.sb_flushes,
                r.atomics_overlapped,
                r.cycles
            );
        }
        let _ = writeln!(out, "\npaper's Table 4:");
        let _ = writeln!(
            out,
            "  avoid cache invalidations at atomic loads :  DRF0 x | DRF1 ok | DRFrlx ok"
        );
        let _ = writeln!(
            out,
            "  avoid store buffer flushes at atomic stores: DRF0 x | DRF1 ok | DRFrlx ok"
        );
        let _ = writeln!(
            out,
            "  overlap atomics in the memory system       : DRF0 x | DRF1 x  | DRFrlx ok"
        );
        out
    }
}
