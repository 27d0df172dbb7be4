//! Parameter sweeps: the §4.4 contention/bins aside and the
//! hardware-context MLP study.

use crate::experiment::Experiment;
use drfrlx_core::SystemConfig;
use drfrlx_workloads::micro::{HistGlobal, HistParams};
use hsim_sys::{six_config_jobs, total_ratio, RunReport, SimJob, SysParams};
use std::fmt::Write as _;
use std::sync::Arc;

const BINS: [usize; 4] = [32, 128, 256, 1024];

/// The §4.4 aside (`sweep_contention`): "we examined different levels
/// of contention and number of bins for the histogram applications.
/// More bins and reduced contention improve performance for all
/// configurations, but did not change the observed trends."
pub struct Contention;

impl Experiment for Contention {
    fn id(&self) -> &'static str {
        "sweep_contention"
    }

    fn title(&self) -> &'static str {
        "Contention sweep: HG with varying bin counts"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let params = SysParams::integrated();
        BINS.iter()
            .flat_map(|&bins| {
                let k = HistGlobal::new(
                    HistParams { bins, ..HistParams::default() },
                    drfrlx_core::OpClass::Commutative,
                );
                six_config_jobs(&format!("HG-b{bins}"), Arc::new(k), &params, true)
            })
            .collect()
    }

    fn render(&self, _jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title());
        let _ = writeln!(out, "=============================================");
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "bins", "GD0 cyc", "GD1", "GDR", "DD0", "DD1", "DDR"
        );
        for (row, &bins) in reports.chunks(6).zip(BINS.iter()) {
            let _ = write!(out, "{:>6} {:>10}", bins, row[0].cycles);
            for r in &row[1..] {
                let _ = write!(out, " {:>7.3}", r.normalized_time(&row[0]));
            }
            let _ = writeln!(out);
        }
        let _ =
            writeln!(out, "\n(expected: absolute cycles fall as bins grow; the GD0 ≥ GD1 ≥ GDR");
        let _ = writeln!(out, " and DD0 ≥ DD1 ≥ DDR orderings hold at every contention level)");
        out
    }
}

const CONTEXTS: [usize; 4] = [4, 8, 16, 32];

/// The hardware-context MLP sweep (`sweep_contexts`): cross-context
/// memory-level parallelism is what lets the *stronger* models hide
/// atomic latency; with few contexts, DRFrlx's overlap is the only
/// source of MLP and its advantage is largest.
pub struct Contexts;

impl Experiment for Contexts {
    fn id(&self) -> &'static str {
        "sweep_contexts"
    }

    fn title(&self) -> &'static str {
        "Context sweep: HG, GPU coherence, varying contexts per CU"
    }

    fn jobs(&self) -> Vec<SimJob> {
        let gd1 = SystemConfig::from_abbrev("GD1").unwrap();
        let gdr = SystemConfig::from_abbrev("GDR").unwrap();
        CONTEXTS
            .iter()
            .flat_map(|&contexts| {
                let mut params = SysParams::integrated();
                params.engine.max_contexts_per_cu = contexts;
                let params = Arc::new(params);
                // One block per CU, fully resident.
                let k = HistGlobal::new(
                    HistParams { tpb: contexts, ..HistParams::default() },
                    drfrlx_core::OpClass::Commutative,
                );
                let kernel: Arc<dyn hsim_gpu::Kernel> = Arc::new(k);
                let workload: Arc<str> = format!("HG-c{contexts}").into();
                [gd1, gdr].into_iter().map(move |config| SimJob {
                    workload: Arc::clone(&workload),
                    kernel: Arc::clone(&kernel),
                    config,
                    params: Arc::clone(&params),
                    validate: true,
                    trace: None,
                })
            })
            .collect()
    }

    fn render(&self, _jobs: &[SimJob], reports: &[RunReport]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title());
        let _ = writeln!(out, "==========================================================");
        let _ = writeln!(
            out,
            "{:>9} {:>12} {:>12} {:>14}",
            "contexts", "GD1 cycles", "GDR cycles", "GDR advantage"
        );
        for (pair, &contexts) in reports.chunks(2).zip(CONTEXTS.iter()) {
            let (gd1, gdr) = (&pair[0], &pair[1]);
            let _ = writeln!(
                out,
                "{:>9} {:>12} {:>12} {:>13.2}x",
                contexts,
                gd1.cycles,
                gdr.cycles,
                total_ratio(gd1.cycles as f64, gdr.cycles as f64)
            );
        }
        let _ =
            writeln!(out, "\n(expected: the DRFrlx advantage shrinks as cross-context MLP grows —");
        let _ = writeln!(out, " with enough warps even serialized atomics keep the L2 banks busy)");
        out
    }
}
