//! Mechanism ablations: DeNovo's MSHR atomic coalescing (§6.3) and
//! one-sided acquire/release atomics (§7 / footnote 7).

use crate::experiment::Experiment;
use drfrlx_core::{OpClass, SystemConfig};
use drfrlx_workloads::micro::{HistGlobal, HistParams, Seqlocks, SplitCounter};
use hsim_sys::{total_ratio, RunReport, SimJob, SysParams};
use std::fmt::Write as _;
use std::sync::Arc;

/// §6.3 (`ablation_coalescing`): "allows DeNovo with DRFrlx to quickly
/// service many overlapped atomic requests ... GPU coherence cannot
/// coalesce".
pub struct Coalescing;

impl Experiment for Coalescing {
    fn id(&self) -> &'static str {
        "ablation_coalescing"
    }

    fn title(&self) -> &'static str {
        "Ablation: DeNovo MSHR atomic coalescing (DDR configuration)"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let on = Arc::new(SysParams::integrated());
        let mut off = SysParams::integrated();
        off.memsys.atomic_coalescing = false;
        let off = Arc::new(off);
        let ddr = SystemConfig::from_abbrev("DDR").unwrap();
        let hg: Arc<dyn hsim_gpu::Kernel> = Arc::new(HistGlobal::default());
        let sc: Arc<dyn hsim_gpu::Kernel> = Arc::new(SplitCounter::default());
        [("HG", hg), ("SC", sc)]
            .into_iter()
            .flat_map(|(name, kernel)| {
                [(format!("{name}+coal"), &on), (format!("{name}-coal"), &off)].into_iter().map(
                    move |(workload, params)| SimJob {
                        workload: workload.into(),
                        kernel: Arc::clone(&kernel),
                        config: ddr,
                        params: Arc::clone(params),
                        validate: true,
                        trace: None,
                    },
                )
            })
            .collect()
    }

    fn render(&self, jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title());
        let _ = writeln!(out, "=============================================================");
        let _ = writeln!(
            out,
            "{:10} {:>12} {:>12} {:>9} {:>11}",
            "bench", "with", "without", "benefit", "coalesced"
        );
        for (pair, job) in reports.chunks(2).zip(jobs.chunks(2)) {
            let (with, without) = (&pair[0], &pair[1]);
            let name = job[0].workload.trim_end_matches("+coal");
            let _ = writeln!(
                out,
                "{:10} {:>12} {:>12} {:>8.2}x {:>11}",
                name,
                with.cycles,
                without.cycles,
                total_ratio(without.cycles as f64, with.cycles as f64),
                with.proto.mshr_coalesced,
            );
        }
        out
    }
}

const ACQREL_CONFIGS: [&str; 4] = ["GD0", "GDR", "DD0", "DDR"];

/// §7 / footnote 7 (`ablation_acqrel`): one-sided acquire/release
/// `seq` accesses in Seqlocks vs full paired atomics, plus HG updates
/// annotated `Release` instead of `Paired`.
///
/// The release-only "read-don't-modify-write" skips the L1
/// self-invalidation, and the acquire-only lock CAS skips the store
/// buffer flush — so the reader keeps its payload lines across
/// iterations.
pub struct AcqRel;

impl Experiment for AcqRel {
    fn id(&self) -> &'static str {
        "ablation_acqrel"
    }

    fn title(&self) -> &'static str {
        "Ablation: Seqlocks with paired vs acquire/release seq accesses"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let params = SysParams::integrated();
        let d = Seqlocks::default();
        let paired: Arc<dyn hsim_gpu::Kernel> = Arc::new(Seqlocks::new(
            false,
            d.blocks,
            d.tpb,
            d.payload,
            d.writes,
            d.reads,
            d.max_retries,
        ));
        let acqrel: Arc<dyn hsim_gpu::Kernel> = Arc::new(Seqlocks::new(
            true,
            d.blocks,
            d.tpb,
            d.payload,
            d.writes,
            d.reads,
            d.max_retries,
        ));
        let mut jobs: Vec<SimJob> = ACQREL_CONFIGS
            .iter()
            .flat_map(|abbrev| {
                let config = SystemConfig::from_abbrev(abbrev).unwrap();
                [
                    SimJob::new("SEQ-paired", Arc::clone(&paired), config, &params),
                    SimJob::new("SEQ-acqrel", Arc::clone(&acqrel), config, &params),
                ]
            })
            .collect();
        // Second study: a paired RMW pays the acquire side even when
        // only release ordering is needed.
        let gdr = SystemConfig::from_abbrev("GDR").unwrap();
        for (label, class) in [("HG-paired", OpClass::Paired), ("HG-release", OpClass::Release)] {
            let k = HistGlobal::new(HistParams::default(), class);
            jobs.push(SimJob::new(label, Arc::new(k), gdr, &params));
        }
        jobs
    }

    fn render(&self, _jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title());
        let _ = writeln!(out, "===============================================================");
        let _ = writeln!(
            out,
            "{:6} {:>12} {:>12} {:>9} {:>14}",
            "config", "paired cyc", "acqrel cyc", "speedup", "inval (p/ar)"
        );
        let (seq, hg) = reports.split_at(2 * ACQREL_CONFIGS.len());
        for (pair, abbrev) in seq.chunks(2).zip(ACQREL_CONFIGS.iter()) {
            let (rp, ra) = (&pair[0], &pair[1]);
            let _ = writeln!(
                out,
                "{:6} {:>12} {:>12} {:>8.2}x {:>7}/{:<7}",
                abbrev,
                rp.cycles,
                ra.cycles,
                total_ratio(rp.cycles as f64, ra.cycles as f64),
                rp.proto.invalidation_events,
                ra.proto.invalidation_events,
            );
        }
        let _ = writeln!(
            out,
            "\n(acqrel matters under DRFrlx, where one-sided strengths are enforced;"
        );
        let _ = writeln!(out, " under DRF0 both variants degrade to paired and must tie)");

        let _ =
            writeln!(out, "\nAblation: HG updates annotated Paired vs Release (GDR configuration)");
        let _ =
            writeln!(out, "=====================================================================");
        let _ = writeln!(
            out,
            "{:8} {:>12} {:>14} {:>12}",
            "class", "cycles", "invalidations", "L1 hit rate"
        );
        for (label, r) in ["paired", "release"].iter().zip(hg) {
            let _ = writeln!(
                out,
                "{:8} {:>12} {:>14} {:>11.1}%",
                label,
                r.cycles,
                r.proto.invalidation_events,
                100.0
                    * total_ratio(
                        r.proto.l1_hits as f64,
                        (r.proto.l1_hits + r.proto.l1_misses) as f64
                    ),
            );
        }
        out
    }
}
