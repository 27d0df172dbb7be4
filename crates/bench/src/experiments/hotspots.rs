//! Diagnostic (`hotspots`): where do the cycles go? Per-workload
//! protocol event profile under GD0 vs DDR — the mechanism view behind
//! Figures 3/4.

use crate::experiment::Experiment;
use drfrlx_core::SystemConfig;
use drfrlx_workloads::all_workloads;
use hsim_sys::{RunReport, SimJob, SysParams};
use std::fmt::Write as _;

/// The protocol-event-profile diagnostic.
pub struct Hotspots;

impl Experiment for Hotspots {
    fn id(&self) -> &'static str {
        "hotspots"
    }

    fn title(&self) -> &'static str {
        "Protocol event profile (GD0 vs DDR)"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let params = SysParams::integrated();
        let gd0 = SystemConfig::from_abbrev("GD0").unwrap();
        let ddr = SystemConfig::from_abbrev("DDR").unwrap();
        all_workloads().iter().flat_map(|s| s.jobs(&[gd0, ddr], &params)).collect()
    }

    fn render(&self, jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Protocol event profile (GD0 → DDR)");
        let _ = writeln!(
            out,
            "==================================================================================="
        );
        let _ = writeln!(
            out,
            "{:8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "bench",
            "GD0 cyc",
            "DDR cyc",
            "inv GD0",
            "inv DDR",
            "l2at GD0",
            "l1at DDR",
            "coal DDR",
            "rmt DDR"
        );
        for (pair, job) in reports.chunks(2).zip(jobs.chunks(2)) {
            let (gd0, ddr) = (&pair[0], &pair[1]);
            let _ = writeln!(
                out,
                "{:8} {:>9} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9}",
                job[0].workload,
                gd0.cycles,
                ddr.cycles,
                gd0.proto.invalidation_events,
                ddr.proto.invalidation_events,
                gd0.proto.atomics_at_l2,
                ddr.proto.atomics_at_l1,
                ddr.proto.mshr_coalesced,
                ddr.proto.remote_l1_transfers,
            );
        }
        out
    }
}
