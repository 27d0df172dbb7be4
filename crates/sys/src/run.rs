//! Running one kernel on one configuration.

use crate::config::SysParams;
use crate::CoherenceBackend;
use drfrlx_core::SystemConfig;
use hsim_coherence::{MemorySystem, ProtoStats};
use hsim_energy::{breakdown, EnergyBreakdown, EnergyCounters};
use hsim_gpu::{run_kernel_traced, EngineReport, Kernel};
use hsim_trace::{NoTrace, SharedTracer, Trace, TraceBuffer};
use std::cell::Cell;

/// Everything one simulation run produced. Names are not repeated
/// here: the kernel and the platform ([`SysParams::name`]) are the
/// caller's, so a report owns no heap data but its memory image (and
/// its trace, when traced).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol × model configuration.
    pub config: SystemConfig,
    /// Execution time in cycles.
    pub cycles: u64,
    /// Raw energy event counts.
    pub counters: EnergyCounters,
    /// The Figure 3(b)/4(b) energy breakdown.
    pub energy: EnergyBreakdown,
    /// Protocol event statistics.
    pub proto: ProtoStats,
    /// Engine statistics (atomics, overlap, barriers...).
    pub atomics: u64,
    /// Overlapped (fire-and-forget) atomics.
    pub atomics_overlapped: u64,
    /// Final memory image.
    pub memory: Vec<u64>,
    /// The structured event trace, when the run was traced
    /// ([`run_workload_traced`]); `None` for untraced runs.
    pub trace: Option<TraceBuffer>,
}

/// A total normalization: `num / den`, except that a degenerate
/// baseline (zero, negative or non-finite) is treated as 1.0 — and a
/// degenerate numerator over a degenerate baseline is exactly 1.0 —
/// so no `NaN` or `inf` can reach tables or JSON.
pub fn total_ratio(num: f64, den: f64) -> f64 {
    let num_ok = num.is_finite() && num > 0.0;
    let den_ok = den.is_finite() && den > 0.0;
    match (num_ok, den_ok) {
        (true, true) => num / den,
        (true, false) => num,
        (false, true) => 0.0,
        (false, false) => 1.0,
    }
}

impl RunReport {
    /// Execution time of `self` normalized to `base` (1.0 = equal;
    /// lower is better). Total: a zero-cycle baseline normalizes as 1.
    pub fn normalized_time(&self, base: &RunReport) -> f64 {
        total_ratio(self.cycles as f64, base.cycles as f64)
    }

    /// Total energy normalized to `base`. Total in the same sense as
    /// [`RunReport::normalized_time`].
    pub fn normalized_energy(&self, base: &RunReport) -> f64 {
        total_ratio(self.energy.total(), base.energy.total())
    }
}

thread_local! {
    /// This thread's untraced machine between [`run_workload`] calls.
    /// Empty while a run holds it, so a run that panics drops it during
    /// unwind and the next run builds a fresh one.
    static MACHINE: Cell<Option<MemorySystem>> = const { Cell::new(None) };
}

/// Run `kernel` under `config` on the platform described by `params`.
///
/// Each thread keeps one untraced memory system and
/// [resets](MemorySystem::reset) it to `(config.protocol,
/// params.memsys)` before each run instead of building and dropping a
/// Table-2 machine per run. A reset machine is a cold machine, so the
/// report equals the one a freshly built machine gives. The engine
/// keeps its launch state per thread the same way.
pub fn run_workload(kernel: &dyn Kernel, config: SystemConfig, params: &SysParams) -> RunReport {
    let mem = match MACHINE.take() {
        Some(mut mem) => {
            mem.reset(config.protocol, &params.memsys);
            mem
        }
        None => MemorySystem::new(config.protocol, params.memsys.clone()),
    };
    let (report, mem) = run_on(kernel, config, params, mem, NoTrace);
    MACHINE.set(Some(mem));
    report
}

/// [`run_workload`] with structured event tracing into a ring of
/// `capacity` events. Timing, statistics and the memory image are
/// identical to the untraced run; the report's `trace` field carries
/// the recorded [`TraceBuffer`] (complete per-kind totals plus the
/// newest `capacity` events).
pub fn run_workload_traced(
    kernel: &dyn Kernel,
    config: SystemConfig,
    params: &SysParams,
    capacity: usize,
) -> RunReport {
    let tracer = SharedTracer::with_capacity(capacity);
    let mem = MemorySystem::with_tracer(config.protocol, params.memsys.clone(), tracer.clone());
    let (mut report, mem) = run_on(kernel, config, params, mem, tracer.clone());
    // The machine holds tracer handles; drop them so the buffer is
    // moved out rather than copied.
    drop(mem);
    report.trace = Some(tracer.into_buffer());
    report
}

/// Run `kernel` on the cold machine `mem` and hand the machine back
/// once the report has been read from it.
fn run_on<T: Trace>(
    kernel: &dyn Kernel,
    config: SystemConfig,
    params: &SysParams,
    mem: MemorySystem<T>,
    tracer: T,
) -> (RunReport, MemorySystem<T>) {
    let mut backend = CoherenceBackend::new(mem);
    let mut engine = params.engine.clone();
    engine.model = config.model;
    let EngineReport {
        cycles,
        core_ops,
        scratch_accesses,
        barriers: _,
        memory,
        atomics,
        atomics_overlapped,
    } = run_kernel_traced(kernel, &engine, &mut backend, tracer);

    let mem = backend.into_inner();
    let (l1, l1_tags, l2, dram, flits) = mem.energy_events();
    let counters = EnergyCounters {
        core_ops,
        scratch_accesses,
        l1_accesses: l1,
        l1_tag_ops: l1_tags,
        l2_accesses: l2,
        dram_accesses: dram,
        noc_flit_hops: flits,
    };
    let report = RunReport {
        config,
        cycles,
        energy: breakdown(&params.energy, &counters),
        counters,
        proto: mem.stats().clone(),
        atomics,
        atomics_overlapped,
        memory,
        trace: None,
    };
    (report, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_matrix, six_config_jobs};
    use drfrlx_core::OpClass;
    use hsim_gpu::{Op, RmwKind, WorkItem};
    use std::sync::Arc;

    fn run_all_configs(kernel: impl Kernel + 'static, params: &SysParams) -> Vec<RunReport> {
        run_matrix(&six_config_jobs("test", Arc::new(kernel), params, false), 1)
    }

    /// Contended counter kernel: every context issues `n` increments.
    struct Hammer {
        n: usize,
        class: OpClass,
    }
    struct HammerItem {
        left: usize,
        class: OpClass,
    }
    impl WorkItem for HammerItem {
        fn next(&mut self, _last: Option<u64>) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            Op::Rmw { addr: 0, rmw: RmwKind::Add, operand: 1, class: self.class, use_result: false }
        }
    }
    impl Kernel for Hammer {
        fn name(&self) -> String {
            "hammer".into()
        }
        fn blocks(&self) -> usize {
            15
        }
        fn threads_per_block(&self) -> usize {
            4
        }
        fn memory_words(&self) -> usize {
            64
        }
        fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
            Box::new(HammerItem { left: self.n, class: self.class })
        }
    }

    #[test]
    fn all_six_configs_run_and_agree_functionally() {
        let k = Hammer { n: 4, class: OpClass::Commutative };
        let params = SysParams::integrated();
        let reports = run_all_configs(k, &params);
        assert_eq!(reports.len(), 6);
        for r in &reports {
            assert_eq!(r.memory[0], 15 * 4 * 4, "{}: wrong count", r.config);
            assert!(r.cycles > 0);
            assert!(r.energy.total() > 0.0);
        }
    }

    #[test]
    fn weaker_models_are_not_slower() {
        let k = Hammer { n: 8, class: OpClass::Commutative };
        let params = SysParams::integrated();
        let r = run_all_configs(k, &params);
        let (gd0, gd1, gdr) = (&r[0], &r[1], &r[2]);
        let (dd0, dd1, ddr) = (&r[3], &r[4], &r[5]);
        assert!(gd1.cycles <= gd0.cycles, "GD1 {} > GD0 {}", gd1.cycles, gd0.cycles);
        assert!(gdr.cycles <= gd1.cycles, "GDR {} > GD1 {}", gdr.cycles, gd1.cycles);
        assert!(dd1.cycles <= dd0.cycles);
        assert!(ddr.cycles <= dd1.cycles);
        // Only the relaxed model overlaps atomics.
        assert_eq!(gd0.atomics_overlapped, 0);
        assert!(gdr.atomics_overlapped > 0);
    }

    #[test]
    fn gpu_and_denovo_place_atomics_differently() {
        let k = Hammer { n: 4, class: OpClass::Commutative };
        let params = SysParams::integrated();
        let g = run_workload(&k, SystemConfig::from_abbrev("GDR").unwrap(), &params);
        let d = run_workload(&k, SystemConfig::from_abbrev("DDR").unwrap(), &params);
        assert!(g.proto.atomics_at_l2 > 0);
        assert_eq!(g.proto.atomics_at_l1, 0);
        assert!(d.proto.atomics_at_l1 > 0);
        assert_eq!(d.proto.atomics_at_l2, 0);
    }

    #[test]
    fn drf0_invalidates_and_flushes() {
        let k = Hammer { n: 2, class: OpClass::Commutative };
        let params = SysParams::integrated();
        let gd0 = run_workload(&k, SystemConfig::from_abbrev("GD0").unwrap(), &params);
        let gdr = run_workload(&k, SystemConfig::from_abbrev("GDR").unwrap(), &params);
        assert!(gd0.proto.invalidation_events > 0);
        assert!(gd0.proto.sb_flushes > 0);
        assert_eq!(gdr.proto.invalidation_events, 0);
        assert_eq!(gdr.proto.sb_flushes, 0);
    }

    #[test]
    fn mesi_configs_run_with_owned_atomics_and_free_acquires() {
        let k = Hammer { n: 4, class: OpClass::Commutative };
        let params = SysParams::integrated();
        let jobs = crate::sweep::extended_config_jobs("hammer", Arc::new(k), &params, false);
        let reports = run_matrix(&jobs, 1);
        assert_eq!(reports.len(), 9);
        let md0 = &reports[6];
        assert_eq!(md0.config, SystemConfig::from_abbrev("MD0").unwrap());
        assert_eq!(md0.memory[0], 15 * 4 * 4, "MESI functional result");
        // Writeback protocol: atomics perform at the owning L1 and the
        // hardware keeps caches coherent, so acquires invalidate
        // nothing even under DRF0.
        assert!(md0.proto.atomics_at_l1 > 0);
        assert_eq!(md0.proto.atomics_at_l2, 0);
        assert_eq!(md0.proto.invalidation_events, 0);
        // A contended counter bounces ownership between CUs: the
        // directory must have invalidated or recalled remote copies.
        assert!(md0.proto.remote_l1_transfers > 0);
    }

    #[test]
    fn discrete_platform_is_slower() {
        let k = Hammer { n: 4, class: OpClass::Commutative };
        let i =
            run_workload(&k, SystemConfig::from_abbrev("GD0").unwrap(), &SysParams::integrated());
        let d =
            run_workload(&k, SystemConfig::from_abbrev("GD0").unwrap(), &SysParams::discrete_gpu());
        assert!(d.cycles > i.cycles);
    }

    #[test]
    fn total_ratio_never_leaks_nan_or_inf() {
        assert_eq!(total_ratio(2.0, 4.0), 0.5);
        assert_eq!(total_ratio(3.0, 0.0), 3.0);
        assert_eq!(total_ratio(0.0, 4.0), 0.0);
        assert_eq!(total_ratio(0.0, 0.0), 1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(total_ratio(2.0, bad).is_finite());
            assert!(total_ratio(bad, 2.0).is_finite());
            assert!(total_ratio(bad, bad).is_finite());
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let k = Hammer { n: 4, class: OpClass::Commutative };
        let params = SysParams::integrated();
        let cfg = SystemConfig::from_abbrev("DDR").unwrap();
        let a = run_workload(&k, cfg, &params);
        let b = run_workload(&k, cfg, &params);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }
}
