//! Running one workload: setup, the closed loop, output checks and the
//! two records.
//!
//! **Load model.** One client issues the next operation ("op") when
//! the previous one returns; each op uses `threads` workers. One
//! untimed warm-up pass runs first. Passes then repeat until the next
//! one would end past `--seconds` (at least [`MIN_PASSES`]), and every
//! metric comes from those sampled passes only.
//!
//! **Traced runs** repeat the same passes with every op decomposed at
//! the layer boundaries (see [`crate::checker`] and [`crate::replay`])
//! and report the per-layer metrics instead of the end-to-end ones.

use crate::catalog::{MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::checker::{traced_check, RaceClock};
use crate::host;
use crate::oracle::{
    judge_against_reference, judge_conform, judge_conform_report, judge_registry, judge_sim,
    load_sim_expectations, CheckSummary, RegistryExpect, SimStats,
};
use crate::replay::{fresh_backend, record, replay_backend, replay_items};
use crate::spans::{timer_overhead, Spans};
use crate::stats::{
    highest_supported_percentile, median, nearest_rank, quartiles_or_point, samples_beyond,
};
use drfrlx_bench::json::JsonObj;
use drfrlx_conform::{
    check_conformance_resilient, compile, conform_jobs, generate, report_from_partial_runs,
    ConformOptions, ConformResilience,
};
use drfrlx_core::checker::{
    check_program_reference, check_program_with, CheckOptions, CheckReport,
};
use drfrlx_core::emit::emit;
use drfrlx_core::exec::{EnumLimits, Reduction};
use drfrlx_core::parse::parse;
use drfrlx_core::program::Program;
use drfrlx_core::{MemoryModel, SystemConfig};
use drfrlx_litmus::{all_tests, stress_tests};
use drfrlx_workloads::registry::extensions;
use drfrlx_workloads::util::SplitMix64;
use drfrlx_workloads::{benchmarks, microbenchmarks};
use hsim_gpu::{Kernel, Op, WorkItem};
use hsim_sys::{
    run_matrix, run_matrix_resilient, run_workload, MatrixResilience, RunReport, SimJob, SysParams,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fewest sampled passes a run takes, however long they are.
const MIN_PASSES: usize = 3;

/// The set-up runs once before the first op and again after each
/// sampled pass — for [`SETUP_SLOT_S`], at least once — until it has
/// run at least [`SETUP_MIN_REPS`] times and either taken
/// [`SETUP_MIN_S`] in total or run [`SETUP_MAX_REPS`] times; `setup_s`
/// is the median. Host speed here shifts by up to 2× within a second,
/// so repetitions spread over the run give a steadier median than the
/// same number back to back.
const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
const SETUP_MAX_REPS: usize = 101;
/// See [`SETUP_MIN_REPS`].
const SETUP_MIN_S: f64 = 0.5;
/// See [`SETUP_MIN_REPS`].
const SETUP_SLOT_S: f64 = 0.002;

/// Generated programs in every `check_corpus` pass, beside the
/// registry: fuzz seeds `0..64`, the same for every run seed. Checker
/// cost is heavy-tailed in the program — among 2000 generated programs
/// the median check took 0.2 ms and the slowest about a second — so
/// drawing them from the run seed would swing `ops_per_s` by half
/// between seeds. The run seed shuffles the op order.
pub const CHECK_GENERATED: usize = 64;

/// Programs in every `conform_fuzz` pass, drawn from the run seed.
/// Conformance cost is dominated by the 1152 small simulation jobs per
/// program and varies little between programs, so a seeded sample of
/// this size keeps runs with different seeds comparable.
const CONFORM_PROGRAMS: usize = 100;

/// Host-speed samples ([`host::sample`]) taken before the first pass and
/// after each pass of an untraced run.
const HOST_SAMPLES_PER_PASS: usize = 3;

/// Repetitions of the empty-kernel job behind `sys.job_fixed_us`.
const JOB_FIXED_REPS: usize = 101;

/// The directory holding this package (results and outputs are found
/// relative to it, whatever the working directory).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The committed `results/` directory the simulation oracle reads.
pub fn results_dir() -> PathBuf {
    package_dir().join("..").join("results")
}

/// Workers per op: at most two, and never more than the host has.
pub fn default_threads() -> usize {
    available_parallelism().min(2)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Sampling time budget.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
    /// Workers per op.
    pub threads: usize,
}

/// What a run printed and whether its outputs were all correct.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The full record: environment, counts, metrics.
    pub record: String,
    /// The closing one-line result.
    pub summary: String,
    /// No op failed.
    pub correct: bool,
}

/// Accumulated per-layer work of a traced run. Times that come from
/// spans are read from the span recorder instead.
#[derive(Debug, Default)]
pub struct LayerAcc {
    races_s: f64,
    races_calls: u64,
    explored: u64,
    pruned: u64,
    memo_pruned: u64,
    table_peak: u64,
    oracle_explored: u64,
    skipped: u64,
    witnessed: u64,
    allowed: u64,
    job_fixed_us: f64,
    timer_overhead_s: f64,
    solo_s: f64,
    pool_wall_s: f64,
    jobs: u64,
    coherence_calls: u64,
    acqrel_s: f64,
    acqrel_calls: u64,
    workloads_ops: u64,
    core_ops: u64,
    atomics: u64,
    atomics_overlapped: u64,
    cycles: u64,
    l1_hits: u64,
    l1_misses: u64,
    lines_invalidated: u64,
    sb_flushes: u64,
    mshr_coalesced: u64,
    dram_accesses: u64,
    flit_hops: u64,
    atomics_at_l1: u64,
    atomics_at_l2: u64,
    remote_l1_transfers: u64,
    traced_s: f64,
    untraced_s: f64,
}

impl LayerAcc {
    fn add_sim(&mut self, r: &RunReport) {
        self.core_ops += r.counters.core_ops;
        self.atomics += r.atomics;
        self.atomics_overlapped += r.atomics_overlapped;
        self.cycles += r.cycles;
        self.l1_hits += r.proto.l1_hits;
        self.l1_misses += r.proto.l1_misses;
        self.lines_invalidated += r.proto.lines_invalidated;
        self.sb_flushes += r.proto.sb_flushes;
        self.mshr_coalesced += r.proto.mshr_coalesced;
        self.dram_accesses += r.counters.dram_accesses;
        self.flit_hops += r.counters.noc_flit_hops;
        self.atomics_at_l1 += r.proto.atomics_at_l1;
        self.atomics_at_l2 += r.proto.atomics_at_l2;
        self.remote_l1_transfers += r.proto.remote_l1_transfers;
    }

    fn add_enum(&mut self, s: &drfrlx_core::exec::EnumStats) {
        self.explored += s.explored as u64;
        self.pruned += s.pruned as u64;
        self.memo_pruned += s.memo_pruned as u64;
        self.table_peak = self.table_peak.max(s.table_peak as u64);
    }

    /// Every per-layer metric, per sampled pass. `self_s` holds the
    /// spans' total self time by span name.
    pub fn metrics(
        &self,
        self_s: &BTreeMap<&'static str, f64>,
        passes: usize,
        threads: usize,
    ) -> BTreeMap<&'static str, f64> {
        let n = passes.max(1) as f64;
        let span = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        // The oracle of a conformance run is the core enumerator too.
        let exec_s = span("core.check") + span("conform.oracle");
        let coherence_s = span("coherence.replay");
        let engine_s = span("gpu.job");
        let conform_sim_s = span("conform.sim");
        let count = |c: u64| c as f64 / n;
        // Per-call timings carry the clock's own cost once per call.
        let untimed = |s: f64, calls: u64| (s - calls as f64 * self.timer_overhead_s).max(0.0);
        let races_s = untimed(self.races_s, self.races_calls);
        BTreeMap::from([
            ("core.parse.s", span("core.parse") / n),
            ("core.races.s", races_s / n),
            ("core.races.us_per_exec", ratio(races_s * 1e6, self.races_calls as f64)),
            ("core.exec.s", exec_s / n),
            ("core.exec.us_per_exec", ratio(exec_s * 1e6, self.explored as f64)),
            ("core.exec.explored", count(self.explored)),
            ("core.exec.pruned", count(self.pruned)),
            ("core.exec.memo_pruned", count(self.memo_pruned)),
            ("core.exec.table_peak", self.table_peak as f64),
            ("bridge.compile.s", span("bridge.compile") / n),
            ("conform.jobs.s", span("conform.jobs") / n),
            ("conform.sim.s", conform_sim_s / n),
            ("conform.sim.us_per_job", ratio(conform_sim_s * 1e6, self.jobs as f64)),
            ("conform.oracle.s", span("conform.oracle") / n),
            ("conform.oracle.explored", count(self.oracle_explored)),
            ("conform.skipped", count(self.skipped)),
            ("conform.coverage", ratio(self.witnessed as f64, self.allowed as f64)),
            ("sys.job_fixed_us", self.job_fixed_us),
            ("sys.pool.efficiency", ratio(self.solo_s, threads as f64 * self.pool_wall_s)),
            ("sys.jobs", count(self.jobs)),
            ("gpu.engine.s", engine_s / n),
            ("gpu.engine.ns_per_op", ratio(engine_s * 1e9, self.core_ops as f64)),
            ("gpu.core_ops", count(self.core_ops)),
            ("gpu.atomics", count(self.atomics)),
            ("gpu.atomics_overlapped", count(self.atomics_overlapped)),
            ("coherence.s", coherence_s / n),
            ("coherence.calls", count(self.coherence_calls)),
            ("coherence.ns_per_call", ratio(coherence_s * 1e9, self.coherence_calls as f64)),
            ("coherence.acqrel.s", untimed(self.acqrel_s, self.acqrel_calls) / n),
            ("coherence.acqrel.calls", count(self.acqrel_calls)),
            ("sim.cycles", count(self.cycles)),
            ("mem.l1_hits", count(self.l1_hits)),
            ("mem.l1_misses", count(self.l1_misses)),
            ("mem.lines_invalidated", count(self.lines_invalidated)),
            ("mem.sb_flushes", count(self.sb_flushes)),
            ("mem.mshr_coalesced", count(self.mshr_coalesced)),
            ("mem.dram_accesses", count(self.dram_accesses)),
            ("noc.flit_hops", count(self.flit_hops)),
            ("coherence.atomics_at_l1", count(self.atomics_at_l1)),
            ("coherence.atomics_at_l2", count(self.atomics_at_l2)),
            ("coherence.remote_l1_transfers", count(self.remote_l1_transfers)),
            ("workloads.s", span("workloads.replay") / n),
            ("workloads.ops", count(self.workloads_ops)),
            ("trace.overhead_ratio", ratio(self.traced_s, self.untraced_s)),
        ])
    }
}

/// An op's faster half of samples, ascending. Contention from other
/// tenants of the host only ever slows an op down — by up to 2× for
/// seconds at a time — so the slower half measures the host rather than
/// the program, while a change to the program moves both halves. Over
/// ten-second windows of a steady simulator loop, the median of the
/// faster half spread 5 % between windows where the median of all
/// samples spread 12 %.
fn faster_half(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(2));
    v
}

/// Every op's faster half, pooled and sorted: the latency samples the
/// percentiles are taken over.
fn pooled_faster_halves(per_op: &[Vec<f64>]) -> Vec<f64> {
    let mut pooled: Vec<f64> = per_op.iter().flat_map(|s| faster_half(s)).collect();
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// The time of one pass: the sum over ops of each op's median over its
/// faster half of samples.
fn pass_time(per_op: &[Vec<f64>]) -> f64 {
    per_op.iter().map(|s| median(&faster_half(s))).sum()
}

/// The end-to-end metrics of an untraced run. `per_op[i]` holds op
/// `i`'s latency in every sampled pass. Times are scaled by
/// `host_speed` (the host's speed over the reference speed, see
/// [`crate::host`]); 1.0 reports them as measured.
pub fn end_to_end_metrics(
    setup_s: &[f64],
    per_op: &[Vec<f64>],
    peak_rss_mb: f64,
    host_speed: f64,
) -> BTreeMap<&'static str, f64> {
    let pooled = pooled_faster_halves(per_op);
    BTreeMap::from([
        ("setup_s", median(setup_s) * host_speed),
        ("ops_per_s", per_op.len() as f64 / (pass_time(per_op) * host_speed)),
        ("op_ms_p50", nearest_rank(&pooled, 50) * 1e3 * host_speed),
        ("op_ms_p90", nearest_rank(&pooled, 90) * 1e3 * host_speed),
        ("peak_rss_mb", peak_rss_mb),
    ])
}

/// `{"name": {"value": v, "unit": u}, ...}` over `defs`, in order.
///
/// # Errors
///
/// Names a metric `values` lacks, or one it has that `defs` does not
/// define.
pub fn metrics_json(defs: &[MetricDef], values: &BTreeMap<&str, f64>) -> Result<JsonObj, String> {
    if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{extra}` is not in the catalog"));
    }
    let mut obj = JsonObj::new();
    for d in defs {
        let v =
            values.get(d.name).ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
        obj = obj.obj(d.name, JsonObj::new().f64("value", *v).str("unit", d.unit));
    }
    Ok(obj)
}

/// The process's peak resident set (`VmHWM`) in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The op order of one pass: a seeded shuffle of `0..n`.
fn pass_order(seed: u64, pass: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ (pass as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// The fuzz seed of generated program `i` of a run seeded `seed`. Runs
/// with different seeds draw disjoint programs.
fn program_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1 << 32).wrapping_add(i as u64)
}

/// One workload, set up and ready to run ops.
trait Bench {
    /// Ops in one pass.
    fn ops_per_pass(&self) -> usize;
    /// Run op `i`: its latency and its output check.
    fn run_op(&mut self, i: usize) -> (Duration, Result<(), String>);
    /// Run op `i` decomposed at layer boundaries; its spans carry `op`
    /// as their id.
    fn traced_op(
        &mut self,
        i: usize,
        op: usize,
        spans: &mut Spans,
        acc: &mut LayerAcc,
    ) -> Result<(), String>;
    /// Output checks deferred past the timed passes, as failures.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Configurations the workload simulates.
    fn configs(&self) -> Vec<SystemConfig> {
        Vec::new()
    }
    /// Simulated instructions in one pass, when the workload simulates.
    fn core_ops_per_pass(&self) -> Option<u64> {
        None
    }
    /// Workers an op keeps busy most of the time: the host-speed
    /// reference runs on as many.
    fn busy_workers(&self, threads: usize) -> usize {
        threads
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, Result<R, String>) {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f)).map_err(|e| panic_message(e.as_ref()));
    (t.elapsed(), r)
}

// ---------------------------------------------------------------- sim

struct SimOp {
    name: &'static str,
    jobs: Vec<SimJob>,
    want: Vec<SimStats>,
}

struct SimBench {
    ops: Vec<SimOp>,
    configs: [SystemConfig; 2],
    threads: usize,
}

fn setup_sim(configs: [SystemConfig; 2], threads: usize) -> Result<SimBench, String> {
    let expected = load_sim_expectations(&results_dir())?;
    let params = SysParams::integrated();
    let sssp = extensions().into_iter().filter(|s| s.name.starts_with("SSSP"));
    let mut ops = Vec::new();
    for spec in microbenchmarks().into_iter().chain(benchmarks()).chain(sssp) {
        let kernel = spec.shared_kernel();
        let mut jobs = Vec::new();
        let mut want = Vec::new();
        for config in configs {
            let mut job = SimJob::new(spec.name, Arc::clone(&kernel), config, &params);
            // A mismatch is counted as a failed op, not a panic.
            job.validate = false;
            jobs.push(job);
            let key = (spec.name.to_string(), config.abbrev().to_string());
            want.push(
                expected
                    .get(&key)
                    .cloned()
                    .ok_or_else(|| format!("no committed result row for {} {config}", spec.name))?,
            );
        }
        ops.push(SimOp { name: spec.name, jobs, want });
    }
    Ok(SimBench { ops, configs, threads })
}

impl SimBench {
    fn judge(op: &SimOp, reports: &[RunReport]) -> Result<(), String> {
        for ((job, report), want) in op.jobs.iter().zip(reports).zip(&op.want) {
            judge_sim(job.kernel.as_ref(), report, want)
                .map_err(|e| format!("{} {}: {e}", op.name, job.config))?;
        }
        Ok(())
    }
}

impl Bench for SimBench {
    fn ops_per_pass(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let op = &self.ops[i];
        let (dt, out) = timed(|| run_matrix(&op.jobs, self.threads));
        let res = out
            .map_err(|e| format!("{}: simulation panicked: {e}", op.name))
            .and_then(|reports| Self::judge(op, &reports));
        (dt, res)
    }

    fn traced_op(
        &mut self,
        i: usize,
        opi: usize,
        spans: &mut Spans,
        acc: &mut LayerAcc,
    ) -> Result<(), String> {
        let op = &self.ops[i];
        let threads = self.threads;
        let ((reports, guard), _) = spans.time("op", opi, |sp| {
            let (reports, matrix) = sp.time("sys.matrix", opi, |_| run_matrix(&op.jobs, threads));
            acc.pool_wall_s += sp.dur(matrix);
            let mut guard = Ok(());
            for (job, report) in op.jobs.iter().zip(&reports) {
                let kernel = job.kernel.as_ref();
                let (solo, job_span) =
                    sp.time("gpu.job", opi, |_| run_workload(kernel, job.config, &job.params));
                let (rec, rec_span) =
                    sp.time("trace.record", opi, |_| record(kernel, job.config, &job.params));
                let (coh, coh_span) = sp.time("coherence.replay", opi, |_| {
                    replay_backend(&rec.calls, &mut fresh_backend(job.config, &job.params), false)
                });
                let (acqrel, _) = sp.time("coherence.acqrel_replay", opi, |_| {
                    replay_backend(&rec.calls, &mut fresh_backend(job.config, &job.params), true)
                });
                let (items, items_span) =
                    sp.time("workloads.replay", opi, |_| replay_items(kernel, &rec.items));
                let replayed = sp.dur(coh_span) + sp.dur(items_span);
                sp.add_inner(job_span, replayed);

                acc.solo_s += sp.dur(job_span);
                acc.untraced_s += sp.dur(job_span);
                acc.traced_s += sp.dur(rec_span);
                acc.jobs += 1;
                acc.coherence_calls += rec.calls.len() as u64;
                acc.acqrel_s += acqrel.acqrel.as_secs_f64();
                acc.acqrel_calls += acqrel.acqrel_calls;
                acc.workloads_ops += items.calls;
                acc.add_sim(report);

                let mismatches = coh.mismatches + acqrel.mismatches + items.mismatches;
                if guard.is_ok() {
                    if let Some(d) = rec.stats.diff(&SimStats::of(&solo)) {
                        guard =
                            Err(format!("{} {}: recorded run differs: {d}", op.name, job.config));
                    } else if rec.memory != solo.memory {
                        guard = Err(format!("{} {}: recorded memory differs", op.name, job.config));
                    } else if mismatches > 0 {
                        guard = Err(format!(
                            "{} {}: replay diverged on {mismatches} calls",
                            op.name, job.config
                        ));
                    }
                }
            }
            (reports, guard)
        });
        guard?;
        Self::judge(op, &reports)
    }

    fn configs(&self) -> Vec<SystemConfig> {
        self.configs.to_vec()
    }

    fn core_ops_per_pass(&self) -> Option<u64> {
        Some(self.ops.iter().flat_map(|o| &o.want).map(|w| w.counters[0]).sum())
    }
}

// -------------------------------------------------------------- check

struct CheckInput {
    name: String,
    text: String,
    reduction: Reduction,
}

struct CheckBench {
    /// The registry programs and what the registry expects of them.
    fixed: Vec<(CheckInput, RegistryExpect)>,
    /// Generated programs, judged by the reference checker.
    generated: Vec<CheckInput>,
    threads: usize,
    /// Generated-program results awaiting the reference checker.
    pending: BTreeMap<usize, Vec<CheckSummary>>,
}

fn setup_check(threads: usize) -> CheckBench {
    let fixed = all_tests()
        .into_iter()
        .chain(stress_tests())
        .map(|t| {
            let mut drfrlx_kinds = t.drfrlx_kinds.to_vec();
            drfrlx_kinds.sort();
            let input = CheckInput {
                name: t.name.to_string(),
                text: emit(&(t.build)()),
                reduction: t.reduction,
            };
            (input, RegistryExpect { race_free: t.race_free, drfrlx_kinds })
        })
        .collect();
    let generated = (0..CHECK_GENERATED as u64)
        .map(|i| {
            let p = generate(i);
            CheckInput {
                name: p.name().to_string(),
                text: emit(&p),
                reduction: Reduction::SleepSet,
            }
        })
        .collect();
    CheckBench { fixed, generated, threads, pending: BTreeMap::new() }
}

impl CheckBench {
    /// The input of op `i`.
    fn input(&self, i: usize) -> &CheckInput {
        match i.checked_sub(self.fixed.len()) {
            None => &self.fixed[i].0,
            Some(g) => &self.generated[g],
        }
    }

    fn check_all(p: &Program, opts: &CheckOptions) -> Result<Vec<CheckReport>, String> {
        MemoryModel::ALL
            .iter()
            .map(|&m| check_program_with(p, m, opts).map_err(|e| format!("{m}: {e}")))
            .collect()
    }

    /// Judge op `i`'s reports: registry programs now; generated ones
    /// against their first pass now and the reference checker in
    /// [`Bench::finish`].
    fn judge(&mut self, i: usize, reports: &[CheckReport]) -> Result<(), String> {
        let Some(g) = i.checked_sub(self.fixed.len()) else {
            return judge_registry(reports, &self.fixed[i].1);
        };
        let got: Vec<CheckSummary> = reports.iter().map(CheckSummary::of).collect();
        match self.pending.entry(g) {
            Entry::Vacant(e) => {
                e.insert(got);
                Ok(())
            }
            Entry::Occupied(e) if *e.get() == got => Ok(()),
            Entry::Occupied(_) => Err("result differs from an earlier pass".into()),
        }
    }
}

impl Bench for CheckBench {
    fn ops_per_pass(&self) -> usize {
        self.fixed.len() + self.generated.len()
    }

    fn run_op(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let inp = self.input(i);
        let opts =
            CheckOptions { threads: self.threads, reduction: inp.reduction, ..Default::default() };
        let (dt, out) = timed(|| {
            let p = parse(&inp.text).map_err(|e| format!("parse: {e}"))?;
            Self::check_all(&p, &opts)
        });
        let name = inp.name.clone();
        let res = out
            .and_then(|r| r)
            .and_then(|reports| self.judge(i, &reports))
            .map_err(|e| format!("{name}: {e}"));
        (dt, res)
    }

    fn traced_op(
        &mut self,
        i: usize,
        opi: usize,
        spans: &mut Spans,
        acc: &mut LayerAcc,
    ) -> Result<(), String> {
        let inp = self.input(i);
        // One worker, so the summed per-call analysis time and the
        // check's wall time measure the same thing.
        let opts = CheckOptions { threads: 1, reduction: inp.reduction, ..Default::default() };
        let name = inp.name.clone();
        let err = |e: String| format!("{name}: {e}");

        let t = Instant::now();
        let plain = parse(&inp.text)
            .map_err(|e| format!("parse: {e}"))
            .and_then(|p| Self::check_all(&p, &opts))
            .map_err(err)?;
        acc.untraced_s += t.elapsed().as_secs_f64();

        let (traced, op_span) = spans.time("op", opi, |sp| {
            let (p, _) = sp.time("core.parse", opi, |_| parse(&inp.text));
            let p = p.map_err(|e| format!("parse: {e}"))?;
            let mut out = Vec::new();
            for model in MemoryModel::ALL {
                let clock = RaceClock::default();
                let (r, check) = sp.time("core.check", opi, |_| {
                    traced_check(&p, model, &opts.limits, opts.reduction, 1, &clock)
                });
                sp.add_inner(check, clock.seconds());
                acc.races_s += clock.seconds();
                acc.races_calls += clock.calls();
                out.push(r.map_err(|e| format!("{model}: {e}"))?);
            }
            Ok::<_, String>(out)
        });
        acc.traced_s += spans.dur(op_span);
        let traced = traced.map_err(err)?;
        for ((t, r), model) in traced.iter().zip(&plain).zip(MemoryModel::ALL) {
            acc.add_enum(&t.stats);
            let same = t.stats.explored == r.executions
                && t.stats.pruned == r.pruned
                && t.stats.memo_pruned == r.memo_pruned
                && t.stats.table_peak == r.table_peak
                && t.races.len() == r.races.len()
                && t.races.iter().zip(&r.races).all(|(a, b)| a.0 == b.key && a.1 == b.description);
            if !same {
                return Err(err(format!(
                    "{model}: traced decomposition explored {} with {} races, \
                     check_program_with {} with {}",
                    t.stats.explored,
                    t.races.len(),
                    r.executions,
                    r.races.len()
                )));
            }
        }
        self.judge(i, &plain).map_err(err)
    }

    fn finish(&mut self) -> Vec<String> {
        let limits = EnumLimits::default();
        let mut failures = Vec::new();
        for (&g, got) in &self.pending {
            let inp = &self.generated[g];
            let judged = parse(&inp.text).map_err(|e| format!("parse: {e}")).and_then(|p| {
                for (model, got) in MemoryModel::ALL.into_iter().zip(got) {
                    let reference = check_program_reference(&p, model, &limits)
                        .map_err(|e| format!("{model}: reference checker: {e}"))?;
                    judge_against_reference(got, &CheckSummary::of(&reference))
                        .map_err(|e| format!("{model}: {e}"))?;
                }
                Ok(())
            });
            if let Err(e) = judged {
                failures.push(format!("{}: {e}", inp.name));
            }
        }
        failures
    }

    /// All but seven of the 107 programs finish inside the enumerator's
    /// serial probe, so a check keeps one worker busy.
    fn busy_workers(&self, _threads: usize) -> usize {
        1
    }
}

// ------------------------------------------------------------ conform

struct ConformBench {
    programs: Vec<(u64, Program)>,
    opts: ConformOptions,
}

fn setup_conform(seed: u64, threads: usize) -> ConformBench {
    let programs = (0..CONFORM_PROGRAMS)
        .map(|i| {
            let s = program_seed(seed, i);
            (s, generate(s))
        })
        .collect();
    ConformBench { programs, opts: ConformOptions { threads, seed, ..ConformOptions::default() } }
}

impl Bench for ConformBench {
    fn ops_per_pass(&self) -> usize {
        self.programs.len()
    }

    fn run_op(&mut self, i: usize) -> (Duration, Result<(), String>) {
        let (seed, p) = &self.programs[i];
        let (dt, out) =
            timed(|| check_conformance_resilient(p, &self.opts, &ConformResilience::default()));
        let res = out
            .map_err(|e| format!("fuzz seed {seed}: panicked: {e}"))
            .and_then(|o| judge_conform(*seed, &o));
        (dt, res)
    }

    fn traced_op(
        &mut self,
        i: usize,
        opi: usize,
        spans: &mut Spans,
        acc: &mut LayerAcc,
    ) -> Result<(), String> {
        let (seed, p) = &self.programs[i];
        let opts = &self.opts;
        let t = Instant::now();
        let plain = check_conformance_resilient(p, opts, &ConformResilience::default());
        acc.untraced_s += t.elapsed().as_secs_f64();
        acc.skipped += u64::from(plain.report.is_none());
        judge_conform(*seed, &plain)?;

        let ((jobs, matrix, report), op_span) = spans.time("op", opi, |sp| {
            let (shape, _) = sp.time("bridge.compile", opi, |_| compile(p));
            let (jobs, _) = sp.time("conform.jobs", opi, |_| conform_jobs(&shape, opts));
            let (matrix, sim) = sp.time("conform.sim", opi, |_| {
                run_matrix_resilient(&jobs, opts.threads, &MatrixResilience::default())
            });
            acc.pool_wall_s += sp.dur(sim);
            let (report, _) = sp.time("conform.oracle", opi, |_| {
                report_from_partial_runs(&shape, opts, &matrix.reports)
            });
            (jobs, matrix, report)
        });
        acc.traced_s += spans.dur(op_span);
        spans.time("sys.solo", opi, |_| {
            for job in &jobs {
                let t = Instant::now();
                run_workload(job.kernel.as_ref(), job.config, &job.params);
                acc.solo_s += t.elapsed().as_secs_f64();
            }
        });
        acc.jobs += jobs.len() as u64;
        for r in matrix.completed() {
            acc.add_sim(r.1);
        }

        let report = report.map_err(|e| format!("fuzz seed {seed}: traced oracle: {e}"))?;
        acc.add_enum(&report.oracle_stats);
        acc.oracle_explored += report.oracle_stats.explored as u64;
        acc.witnessed += report.witnessed() as u64;
        acc.allowed += report.allowed.len() as u64;
        let plain = plain.report.as_ref().expect("judged complete above");
        let same = matrix.status == drfrlx_core::RunStatus::Complete
            && report.allowed == plain.allowed
            && report.verdicts.iter().zip(&plain.verdicts).all(|(a, b)| a.observed == b.observed);
        if !same {
            return Err(format!(
                "fuzz seed {seed}: traced decomposition differs from check_conformance_resilient"
            ));
        }
        judge_conform_report(*seed, &report)
    }

    fn configs(&self) -> Vec<SystemConfig> {
        self.opts.configs.clone()
    }
}

// ------------------------------------------------------------ running

fn setup(workload: Workload, seed: u64, threads: usize) -> Result<Box<dyn Bench>, String> {
    let cfg = |a: &str| SystemConfig::from_abbrev(a).expect("a paper configuration");
    Ok(match workload {
        Workload::SimDrf0 => Box::new(setup_sim([cfg("GD0"), cfg("DD0")], threads)?),
        Workload::SimDrfrlx => Box::new(setup_sim([cfg("GDR"), cfg("DDR")], threads)?),
        Workload::CheckCorpus => Box::new(setup_check(threads)),
        Workload::ConformFuzz => Box::new(setup_conform(seed, threads)),
    })
}

/// A one-block, one-thread kernel whose only item is immediately done:
/// what `run_workload` costs before any simulated work.
struct EmptyKernel;

struct DoneItem;

impl WorkItem for DoneItem {
    fn next(&mut self, _last: Option<u64>) -> Op {
        Op::Done
    }
}

impl Kernel for EmptyKernel {
    fn name(&self) -> String {
        "empty".into()
    }
    fn blocks(&self) -> usize {
        1
    }
    fn threads_per_block(&self) -> usize {
        1
    }
    fn memory_words(&self) -> usize {
        1
    }
    fn item(&self, _block: usize, _thread: usize) -> Box<dyn WorkItem> {
        Box::new(DoneItem)
    }
}

/// Mean over `configs` of the median time of `run_workload` on
/// [`EmptyKernel`], in microseconds; 0 without configurations.
fn job_fixed_us(configs: &[SystemConfig]) -> f64 {
    if configs.is_empty() {
        return 0.0;
    }
    let params = SysParams::integrated();
    let per_config: Vec<f64> = configs
        .iter()
        .map(|&c| {
            let times: Vec<f64> = (0..JOB_FIXED_REPS)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(run_workload(&EmptyKernel, c, &params));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&times)
        })
        .collect();
    per_config.iter().sum::<f64>() / per_config.len() as f64
}

struct Sampled {
    passes: usize,
    attempted: usize,
    failures: Vec<String>,
    pass_s: Vec<f64>,
    per_op: Vec<Vec<f64>>,
}

/// Run passes `1..` until the next would end past `seconds` (at least
/// [`MIN_PASSES`]), calling `one(i)` for each op in seeded order and
/// `between()` after each pass.
fn sample(
    seed: u64,
    seconds: f64,
    ops: usize,
    mut one: impl FnMut(usize) -> (Duration, Result<(), String>),
    mut between: impl FnMut(),
) -> Sampled {
    let mut s = Sampled {
        passes: 0,
        attempted: 0,
        failures: Vec::new(),
        pass_s: Vec::new(),
        per_op: vec![Vec::new(); ops],
    };
    let start = Instant::now();
    loop {
        let pass = s.passes + 1;
        let pass_start = Instant::now();
        let mut busy = 0.0;
        for i in pass_order(seed, pass, ops) {
            let (dt, res) = one(i);
            let dt = dt.as_secs_f64();
            busy += dt;
            s.per_op[i].push(dt);
            s.attempted += 1;
            if let Err(e) = res {
                eprintln!("failed op: {e}");
                s.failures.push(e);
            }
        }
        s.pass_s.push(busy);
        s.passes += 1;
        between();
        let wall = pass_start.elapsed().as_secs_f64();
        if s.passes >= MIN_PASSES && start.elapsed().as_secs_f64() + wall > seconds {
            return s;
        }
    }
}

/// Run one workload as `opts` says and build both records.
///
/// # Errors
///
/// Set-up failures (unreadable result files) and metric-catalog
/// mismatches; failed ops are counted, not errors.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let timed_setup = |times: &mut Vec<f64>| {
        let t = Instant::now();
        let bench = setup(opts.workload, opts.seed, opts.threads);
        times.push(t.elapsed().as_secs_f64());
        bench
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = timed_setup(&mut setup_s)?;
    let n = bench.ops_per_pass();

    // Warm-up: one untimed pass, outputs still checked.
    let mut attempted = 0;
    let mut failures = Vec::new();
    for i in pass_order(opts.seed, 0, n) {
        attempted += 1;
        if let (_, Err(e)) = bench.run_op(i) {
            eprintln!("failed op: {e}");
            failures.push(e);
        }
    }

    let mut spans = Spans::default();
    let mut acc = LayerAcc::default();
    let mut host_s: Vec<f64> = Vec::new();
    let sampled = if opts.trace {
        acc.job_fixed_us = job_fixed_us(&bench.configs());
        acc.timer_overhead_s = timer_overhead();
        let mut opi = 0;
        let one = |i| {
            opi += 1;
            let t = Instant::now();
            let r = bench.traced_op(i, opi, &mut spans, &mut acc);
            (t.elapsed(), r)
        };
        sample(opts.seed, opts.seconds, n, one, || {})
    } else {
        let more_setup = |times: &[f64]| {
            let total: f64 = times.iter().sum();
            times.len() < SETUP_MIN_REPS || (total < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
        };
        let busy = bench.busy_workers(opts.threads);
        let mut calibrate = || {
            host_s.extend((0..HOST_SAMPLES_PER_PASS).map(|_| host::sample(busy)));
        };
        calibrate();
        let between = || {
            calibrate();
            let slot = Instant::now();
            while more_setup(&setup_s) {
                // This set-up succeeded once already; a repetition is
                // only timed.
                let _ = timed_setup(&mut setup_s);
                if slot.elapsed().as_secs_f64() >= SETUP_SLOT_S {
                    break;
                }
            }
        };
        sample(opts.seed, opts.seconds, n, |i| bench.run_op(i), between)
    };
    let rss = peak_rss_mb()?;
    attempted += sampled.attempted;
    failures.extend(sampled.failures);
    for e in bench.finish() {
        eprintln!("failed op: {e}");
        failures.push(e);
    }

    let host_sample_s =
        if host_s.is_empty() { host::REFERENCE_S } else { median(&faster_half(&host_s)) };
    let host_speed = host::REFERENCE_S / host_sample_s;
    let (defs, values): (&[MetricDef], _) = if opts.trace {
        let self_s = spans.self_times();
        (&PER_LAYER, acc.metrics(&self_s, sampled.passes, opts.threads))
    } else {
        (&END_TO_END, end_to_end_metrics(&setup_s, &sampled.per_op, rss, host_speed))
    };
    let metrics = metrics_json(defs, &values)?;
    let correct = failures.is_empty();
    let failed = failures.len();

    let summary = JsonObj::new()
        .bool("correct", correct)
        .u64("attempted", attempted as u64)
        .u64("failed", failed as u64)
        .obj("metrics", metrics_json(defs, &values)?)
        .finish();

    let samples = pooled_faster_halves(&sampled.per_op).len();
    let mut record = JsonObj::new()
        .str("record", "drfrlx-benchmark")
        .str("workload", opts.workload.name())
        .u64("seed", opts.seed)
        .f64("seconds", opts.seconds)
        .u64("trace", u64::from(opts.trace))
        .obj(
            "env",
            JsonObj::new()
                .u64("available_parallelism", available_parallelism() as u64)
                .u64("threads", opts.threads as u64)
                .str("rustc", env!("BENCH_RUSTC_VERSION")),
        )
        .obj("setup_reps_s", {
            let [q1, q2, q3] = quartiles_or_point(&setup_s);
            JsonObj::new()
                .u64("n", setup_s.len() as u64)
                .f64("q1", q1)
                .f64("median", q2)
                .f64("q3", q3)
        })
        .u64("passes", sampled.passes as u64)
        .obj("pass_s", {
            let [q1, q2, q3] = quartiles_or_point(&sampled.pass_s);
            JsonObj::new().f64("q1", q1).f64("median", q2).f64("q3", q3)
        })
        .u64("ops_per_pass", n as u64)
        .u64("op_samples", samples as u64)
        .u64("op_p90_samples_beyond", samples_beyond(samples.max(1), 90) as u64)
        .u64("op_highest_supported_pct", highest_supported_percentile(samples).unwrap_or(0).into())
        .u64("attempted", attempted as u64)
        .u64("failed", failed as u64)
        .f64("fail_ratio", failed as f64 / attempted.max(1) as f64)
        .str("failures", &failures.iter().take(8).cloned().collect::<Vec<_>>().join("; "))
        .obj("metrics", metrics);
    if !opts.trace {
        let raw = end_to_end_metrics(&setup_s, &sampled.per_op, rss, 1.0);
        record = record
            .obj(
                "host",
                JsonObj::new()
                    .u64("samples", host_s.len() as u64)
                    .f64("sample_s", host_sample_s)
                    .f64("reference_s", host::REFERENCE_S)
                    .f64("speed", host_speed),
            )
            .obj("metrics_as_measured", metrics_json(&END_TO_END, &raw)?);
        if let Some(core_ops) = bench.core_ops_per_pass() {
            let kips = core_ops as f64 / pass_time(&sampled.per_op) / 1e3;
            record = record.f64("sim_kips", kips);
        }
    } else {
        let mut self_obj = JsonObj::new();
        for (name, s) in spans.self_times() {
            self_obj = self_obj.f64(name, s / sampled.passes as f64);
        }
        record = record.obj("span_self_s_per_pass", self_obj);
        write_spans(&opts.trace_out, &spans)?;
        // Shown relative to the repository when it is inside it, so
        // records name no machine-specific directory.
        let dir = package_dir();
        let shown = dir
            .parent()
            .and_then(|repo| opts.trace_out.strip_prefix(repo).ok())
            .unwrap_or(&opts.trace_out);
        record = record.str("spans", &shown.display().to_string());
    }
    Ok(RunResult { record: record.finish(), summary, correct })
}

fn write_spans(path: &Path, spans: &Spans) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, spans.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
