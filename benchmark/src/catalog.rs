//! The benchmark's vocabulary: its workloads and every metric it
//! reports, with units and directions. `BENCHMARK.json` at the
//! repository root mirrors these tables; `tests/benchmark_json.rs`
//! holds the two together in both directions.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, work done).
    Lower,
    /// Larger is better (throughput, hit counts, coverage).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed in every record.
    pub name: &'static str,
    /// Unit as printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the tools waits for, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "op/s"),
    lower("op_ms_p50", "ms"),
    lower("op_ms_p90", "ms"),
    lower("peak_rss_mb", "MB"),
];

/// Host time and work per layer, measured by the traced run. Times and
/// counts are per sampled pass; a layer a workload never calls reads 0.
pub const PER_LAYER: [MetricDef; 44] = [
    // drfrlx-core: parser, enumerator, race detectors.
    lower("core.parse.s", "s"),
    lower("core.races.s", "s"),
    lower("core.races.us_per_exec", "us"),
    lower("core.exec.s", "s"),
    lower("core.exec.us_per_exec", "us"),
    lower("core.exec.explored", "count"),
    higher("core.exec.pruned", "count"),
    higher("core.exec.memo_pruned", "count"),
    lower("core.exec.table_peak", "count"),
    // drfrlx-bridge / drfrlx-conform.
    lower("bridge.compile.s", "s"),
    lower("conform.jobs.s", "s"),
    lower("conform.sim.s", "s"),
    lower("conform.sim.us_per_job", "us"),
    lower("conform.oracle.s", "s"),
    lower("conform.oracle.explored", "count"),
    lower("conform.skipped", "count"),
    higher("conform.coverage", "ratio"),
    // hsim-sys: per-job construction and the worker pool.
    lower("sys.job_fixed_us", "us"),
    higher("sys.pool.efficiency", "ratio"),
    lower("sys.jobs", "count"),
    // hsim-gpu: the execution engine.
    lower("gpu.engine.s", "s"),
    lower("gpu.engine.ns_per_op", "ns"),
    lower("gpu.core_ops", "count"),
    lower("gpu.atomics", "count"),
    higher("gpu.atomics_overlapped", "count"),
    // hsim-coherence (with hsim-mem and hsim-noc), host time by replay.
    lower("coherence.s", "s"),
    lower("coherence.calls", "count"),
    lower("coherence.ns_per_call", "ns"),
    lower("coherence.acqrel.s", "s"),
    lower("coherence.acqrel.calls", "count"),
    // Simulated statistics: a host-only change leaves all identical.
    lower("sim.cycles", "cycles"),
    higher("mem.l1_hits", "count"),
    lower("mem.l1_misses", "count"),
    lower("mem.lines_invalidated", "count"),
    lower("mem.sb_flushes", "count"),
    higher("mem.mshr_coalesced", "count"),
    lower("mem.dram_accesses", "count"),
    lower("noc.flit_hops", "count"),
    higher("coherence.atomics_at_l1", "count"),
    lower("coherence.atomics_at_l2", "count"),
    lower("coherence.remote_l1_transfers", "count"),
    // drfrlx-workloads: the kernels' work items, host time by replay.
    lower("workloads.s", "s"),
    lower("workloads.ops", "count"),
    // The benchmark itself.
    lower("trace.overhead_ratio", "ratio"),
];

/// The four workloads. Each stresses a different half of the system;
/// see `benchmark/README.md` for why each is there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-3 kernels under GD0 + DD0: consistency actions on every
    /// synchronising access.
    SimDrf0,
    /// The same kernels under GDR + DDR: almost no acquires or releases.
    SimDrfrlx,
    /// Parse and check the litmus corpus plus generated programs under
    /// DRF0, DRF1 and DRFrlx.
    CheckCorpus,
    /// Generated programs through the conformance loop.
    ConformFuzz,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::SimDrf0, Workload::SimDrfrlx, Workload::CheckCorpus, Workload::ConformFuzz];

    /// The name used on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimDrf0 => "sim_drf0",
            Workload::SimDrfrlx => "sim_drfrlx",
            Workload::CheckCorpus => "check_corpus",
            Workload::ConformFuzz => "conform_fuzz",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Look a metric up by name in either table.
pub fn metric(name: &str) -> Option<MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).copied().find(|m| m.name == name)
}
