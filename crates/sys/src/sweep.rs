//! The sweep engine: declarative simulation jobs fanned out across
//! worker threads.
//!
//! A [`SimJob`] names one cell of an experiment matrix — a kernel, a
//! [`SystemConfig`] and the platform [`SysParams`] — and [`run_matrix`]
//! executes a whole job list on `threads` workers of the shared
//! [`drfrlx_core::resilience::Pool`], one pool unit per job. The jobs of
//! one matrix row share their label, their kernel and their platform
//! through `Arc`s, so building a job costs three reference counts.
//! Running it makes a [`RunReport`] — counters, energy and the final
//! memory image, its one heap allocation — and a caller that needs
//! only part of it says so with [`run_matrix_map`]'s `keep`, so the
//! rest never leaves the worker.
//! Every simulation is deterministic and starts from a cold machine:
//! each worker thread keeps one untraced memory system and one set of
//! engine launch state and resets both before every job (see
//! [`run_workload`]), and a job that panics drops them, so no job sees
//! another's state and jobs are embarrassingly parallel. The calling
//! thread is one of the pool's workers at every thread count, so it
//! keeps a machine too, warm from one sweep to the next; a reset costs
//! what the last job touched.
//! Reports come back **in job order**, which makes parallel and serial
//! sweeps byte-identical (`threads = 1` and `threads = 8` produce the
//! same `Vec<RunReport>`).
//! [`run_matrix_map`] is the one body. [`run_matrix_resilient`] is its
//! identity case, and [`run_matrix`] calls that with default options
//! and re-raises a lost job's panic.
//!
//! The worker count for CLI entry points comes from
//! [`default_threads`]: the `DRFRLX_THREADS` environment variable if
//! set, else [`std::thread::available_parallelism`]. A set variable
//! that is not a positive integer is an error.

use crate::config::SysParams;
use crate::run::{run_workload, run_workload_traced, RunReport};
use drfrlx_core::resilience::{require_complete, EngineId, LostPanic, Pool, Resilience, RunStatus};
use drfrlx_core::SystemConfig;
use hsim_gpu::Kernel;
use std::sync::Arc;

/// One simulation to run: a kernel under one configuration on one
/// platform. Cloning a job shares its label, kernel and platform.
#[derive(Clone)]
pub struct SimJob {
    /// Display/workload id for reports and result files (the Table 3
    /// name, e.g. `"BC-1"` — not necessarily the kernel's own name),
    /// shared by the jobs of one matrix row.
    pub workload: Arc<str>,
    /// The kernel to simulate; shared, immutable, run per-thread.
    pub kernel: Arc<dyn Kernel>,
    /// Protocol × model configuration.
    pub config: SystemConfig,
    /// Platform parameters, shared: the jobs of one matrix row (one
    /// platform under several configurations) hold one allocation.
    pub params: Arc<SysParams>,
    /// Check the final memory image against the kernel's oracle and
    /// panic on mismatch (a simulator bug, not a measurement).
    pub validate: bool,
    /// Record a structured event trace with this ring capacity
    /// (`None` = untraced; tracing compiles to nothing in that run).
    pub trace: Option<usize>,
}

impl SimJob {
    /// A validated job (the default for experiment harnesses). Clones
    /// `params` into a new allocation; builders of several jobs on one
    /// platform share an `Arc` instead.
    pub fn new(
        workload: impl Into<Arc<str>>,
        kernel: Arc<dyn Kernel>,
        config: SystemConfig,
        params: &SysParams,
    ) -> SimJob {
        SimJob {
            workload: workload.into(),
            kernel,
            config,
            params: Arc::new(params.clone()),
            validate: true,
            trace: None,
        }
    }

    /// Record a structured event trace with a ring of `capacity` events;
    /// the report's `trace` field carries the buffer.
    pub fn traced(mut self, capacity: usize) -> SimJob {
        self.trace = Some(capacity);
        self
    }
}

/// The jobs for one workload under all six paper configurations, in
/// the paper's order (GD0, GD1, GDR, DD0, DD1, DDR).
pub fn six_config_jobs(
    workload: &str,
    kernel: Arc<dyn Kernel>,
    params: &SysParams,
    validate: bool,
) -> Vec<SimJob> {
    config_jobs(workload, kernel, &SystemConfig::all(), params, validate)
}

/// The jobs for one workload under all nine configurations — the paper
/// six plus MESI-WB × {DRF0, DRF1, DRFrlx} (MD0, MD1, MDR) — in
/// [`SystemConfig::extended`] order.
pub fn extended_config_jobs(
    workload: &str,
    kernel: Arc<dyn Kernel>,
    params: &SysParams,
    validate: bool,
) -> Vec<SimJob> {
    config_jobs(workload, kernel, &SystemConfig::extended(), params, validate)
}

/// One job per configuration, in `configs` order, all sharing one
/// label, `kernel` and one copy of `params`.
pub fn config_jobs(
    workload: &str,
    kernel: Arc<dyn Kernel>,
    configs: &[SystemConfig],
    params: &SysParams,
    validate: bool,
) -> Vec<SimJob> {
    let workload: Arc<str> = workload.into();
    let params = Arc::new(params.clone());
    configs
        .iter()
        .map(|&config| SimJob {
            workload: Arc::clone(&workload),
            kernel: Arc::clone(&kernel),
            config,
            params: Arc::clone(&params),
            validate,
            trace: None,
        })
        .collect()
}

/// Worker count for sweeps: `DRFRLX_THREADS` if it is set, else the
/// host's available parallelism.
///
/// # Errors
///
/// `DRFRLX_THREADS` is set but is not a positive integer; the message
/// names the variable and its value.
pub fn default_threads() -> Result<usize, String> {
    let Some(raw) = std::env::var_os("DRFRLX_THREADS") else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    raw.to_str().and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1).ok_or_else(|| {
        format!("DRFRLX_THREADS needs a positive integer, got `{}`", raw.to_string_lossy())
    })
}

/// Run every job on `threads` workers and return the reports **in job
/// order**, independent of scheduling: [`run_matrix_resilient`] with
/// default options, for callers that want every report or a panic.
///
/// # Panics
///
/// Panics if a validated job produces a functionally wrong result
/// (re-raising the lowest such job's own panic after its retry).
pub fn run_matrix(jobs: &[SimJob], threads: usize) -> Vec<RunReport> {
    let MatrixOutcome { reports, status, lost_panic } =
        run_matrix_resilient(jobs, threads, &MatrixResilience::default());
    if let Err(reason) = require_complete(&status, lost_panic) {
        unreachable!("a sweep without a budget cannot run out of one: {reason}");
    }
    reports.into_iter().map(|r| r.expect("a complete sweep fills every slot")).collect()
}

fn run_job(job: &SimJob) -> RunReport {
    let report = match job.trace {
        Some(capacity) => {
            run_workload_traced(job.kernel.as_ref(), job.config, &job.params, capacity)
        }
        None => run_workload(job.kernel.as_ref(), job.config, &job.params),
    };
    if job.validate {
        if let Err(e) = job.kernel.validate(&report.memory) {
            panic!("{} produced a wrong result under {}: {e}", job.workload, job.config);
        }
    }
    report
}

/// Resilience options for [`run_matrix_resilient`]: the shared
/// [`Resilience`] value, whose budget the pool polls before every job
/// attempt.
pub type MatrixResilience = Resilience;

/// Result of a resilient sweep: per job, the full [`RunReport`] or
/// whatever [`run_matrix_map`]'s `keep` made of it.
pub struct MatrixOutcome<T = RunReport> {
    /// One slot per job, **in job order**; `None` where the job was
    /// lost (panicked twice) or never ran (budget trip).
    pub reports: Vec<Option<T>>,
    /// How the sweep ended: `Degraded` names lost jobs, and
    /// `Inconclusive`'s frontier names jobs still to run.
    pub status: RunStatus,
    /// The lowest lost job's panic, which [`run_matrix`] re-raises.
    pub lost_panic: Option<LostPanic>,
}

impl<T> MatrixOutcome<T> {
    /// The completed reports with their job indices, in job order.
    pub fn completed(&self) -> impl Iterator<Item = (usize, &T)> {
        self.reports.iter().enumerate().filter_map(|(i, r)| r.as_ref().map(|r| (i, r)))
    }
}

/// Every job run on the [`Pool`], keeping the full report: the
/// identity case of [`run_matrix_map`]. Never panics, never aborts:
/// the outcome is `Complete`, `Degraded { lost }` or `Inconclusive {
/// reason, frontier }`, and completed reports stay in job order either
/// way.
pub fn run_matrix_resilient(
    jobs: &[SimJob],
    threads: usize,
    res: &MatrixResilience,
) -> MatrixOutcome {
    run_matrix_map(jobs, threads, res, |r| r)
}

/// The one sweep body: every job runs on the [`Pool`] — panic-isolated,
/// retried once before being reported lost, with the budget polled
/// before every attempt and a seeded
/// [`FaultPlan`](drfrlx_core::resilience::FaultPlan) injecting panics,
/// stalls and exhaustion per `(job, attempt)` — and its report goes to
/// `keep` on the worker, after validation; the slot holds only what
/// `keep` returns, so the rest of the report is dropped there. `keep`
/// runs inside the attempt, so a panicking `keep` loses the job like a
/// panicking simulation. A simulation has no poll site of its own, so a
/// deadline takes effect at the next job attempt.
pub fn run_matrix_map<T: Send>(
    jobs: &[SimJob],
    threads: usize,
    res: &MatrixResilience,
    keep: impl Fn(RunReport) -> T + Sync,
) -> MatrixOutcome<T> {
    let run = Pool::new(EngineId::Sweep, threads, res).run(
        jobs.len(),
        |i, _| Ok(keep(run_job(&jobs[i]))),
        |_: &T| false,
    );
    MatrixOutcome { reports: run.results, status: run.status, lost_panic: run.lost_panic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::resilience::{Budget, ExhaustReason, Fault, FaultPlan};
    use drfrlx_core::OpClass;
    use hsim_gpu::{Op, RmwKind, WorkItem};
    use std::time::Duration;

    struct Hammer {
        n: usize,
    }
    struct HammerItem {
        left: usize,
    }
    impl WorkItem for HammerItem {
        fn next(&mut self, _last: Option<u64>) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            Op::Rmw {
                addr: 0,
                rmw: RmwKind::Add,
                operand: 1,
                class: OpClass::Commutative,
                use_result: false,
            }
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
            Box::new(HammerItem { left: self.n })
        }
        fn validate(&self, mem: &[u64]) -> Result<(), String> {
            let want = (15 * 4 * self.n) as u64;
            if mem[0] == want {
                Ok(())
            } else {
                Err(format!("count {} != {want}", mem[0]))
            }
        }
    }

    fn hammer_matrix() -> Vec<SimJob> {
        let params = SysParams::integrated();
        let mut jobs = Vec::new();
        for n in [2usize, 4, 8] {
            let kernel: Arc<dyn Kernel> = Arc::new(Hammer { n });
            jobs.extend(six_config_jobs(&format!("hammer-{n}"), kernel, &params, true));
        }
        jobs
    }

    #[test]
    fn parallel_sweep_is_deterministic_and_ordered() {
        let jobs = hammer_matrix();
        let serial = run_matrix(&jobs, 1);
        for threads in [2usize, 4, 8] {
            let parallel = run_matrix(&jobs, threads);
            assert_eq!(serial.len(), parallel.len());
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.config, jobs[i].config, "report order matches job order");
                assert_eq!(a.config, b.config);
                assert_eq!(a.cycles, b.cycles, "job {i} ({}) cycles differ", jobs[i].workload);
                assert_eq!(a.counters, b.counters, "job {i} counters differ");
                assert_eq!(a.memory, b.memory);
            }
        }
    }

    #[test]
    fn oversized_thread_counts_are_clamped() {
        let params = SysParams::integrated();
        let kernel: Arc<dyn Kernel> = Arc::new(Hammer { n: 2 });
        let jobs = six_config_jobs("hammer", kernel, &params, true);
        let reports = run_matrix(&jobs, 64);
        assert_eq!(reports.len(), 6);
    }

    #[test]
    fn empty_matrix_is_fine() {
        assert!(run_matrix(&[], 4).is_empty());
    }

    /// Six validated jobs of a kernel whose result is always wrong.
    fn broken_jobs() -> Vec<SimJob> {
        struct Broken;
        impl Kernel for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn blocks(&self) -> usize {
                1
            }
            fn threads_per_block(&self) -> usize {
                1
            }
            fn memory_words(&self) -> usize {
                4
            }
            fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
                struct Item;
                impl WorkItem for Item {
                    fn next(&mut self, _last: Option<u64>) -> Op {
                        Op::Done
                    }
                }
                Box::new(Item)
            }
            fn validate(&self, _mem: &[u64]) -> Result<(), String> {
                Err("always wrong".into())
            }
        }
        let params = SysParams::integrated();
        six_config_jobs("broken", Arc::new(Broken), &params, true)
    }

    #[test]
    #[should_panic(expected = "wrong result")]
    fn validation_failures_panic_with_context() {
        let jobs = broken_jobs();
        run_matrix(&jobs, 1);
    }

    #[test]
    #[should_panic(expected = "wrong result")]
    fn parallel_validation_failures_panic_with_context() {
        run_matrix(&broken_jobs(), 4);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads().is_ok_and(|n| n >= 1));
    }

    #[test]
    fn resilient_complete_sweep_matches_run_matrix() {
        let jobs = hammer_matrix();
        let plain = run_matrix(&jobs, 1);
        for threads in [1usize, 4] {
            let out = run_matrix_resilient(&jobs, threads, &MatrixResilience::default());
            assert_eq!(out.status, RunStatus::Complete, "t={threads}");
            for (i, r) in out.reports.iter().enumerate() {
                let r = r.as_ref().expect("complete sweep fills every slot");
                assert_eq!(r.cycles, plain[i].cycles, "job {i}");
                assert_eq!(r.counters, plain[i].counters, "job {i}");
                assert_eq!(r.memory, plain[i].memory, "job {i}");
            }
        }
    }

    #[test]
    fn injected_job_panic_is_retried_then_degrades() {
        let jobs = hammer_matrix();
        // One panic: absorbed by the retry.
        let res = MatrixResilience {
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 5, 1, Fault::Panic)),
            ..MatrixResilience::default()
        };
        let out = run_matrix_resilient(&jobs, 1, &res);
        assert_eq!(out.status, RunStatus::Complete);
        // Two panics: the job is lost, the rest of the sweep survives.
        let res = MatrixResilience {
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 5, 2, Fault::Panic)),
            ..MatrixResilience::default()
        };
        for threads in [1usize, 4] {
            let out = run_matrix_resilient(&jobs, threads, &res);
            assert_eq!(out.status, RunStatus::Degraded { lost: vec![5] }, "t={threads}");
            assert!(out.reports[5].is_none());
            assert_eq!(out.completed().count(), jobs.len() - 1);
        }
    }

    #[test]
    fn a_panicking_validation_degrades_instead_of_aborting() {
        let jobs = broken_jobs();
        let out = run_matrix_resilient(&jobs, 2, &MatrixResilience::default());
        assert_eq!(out.status, RunStatus::Degraded { lost: (0..6).collect() });
        assert_eq!(out.completed().count(), 0);
    }

    /// Six jobs of a kernel whose work items panic mid-run, after each
    /// has issued stores and RMWs: the worker's memory system holds
    /// buffered stores, owned lines and busy links when the panic hits.
    fn mid_run_panic_jobs() -> Vec<SimJob> {
        struct Panics;
        struct Item {
            step: u64,
        }
        impl WorkItem for Item {
            fn next(&mut self, _last: Option<u64>) -> Op {
                self.step += 1;
                let addr = self.step * 16;
                match self.step {
                    1..=3 => Op::Store { addr, value: 1, class: OpClass::Data },
                    4 => Op::Store { addr, value: 1, class: OpClass::Paired },
                    5..=7 => Op::Rmw {
                        addr: 0,
                        rmw: RmwKind::Add,
                        operand: 1,
                        class: OpClass::Commutative,
                        use_result: false,
                    },
                    _ => panic!("work item panics mid-run"),
                }
            }
        }
        impl Kernel for Panics {
            fn name(&self) -> String {
                "panics".into()
            }
            fn blocks(&self) -> usize {
                4
            }
            fn threads_per_block(&self) -> usize {
                2
            }
            fn memory_words(&self) -> usize {
                256
            }
            fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
                Box::new(Item { step: 0 })
            }
        }
        six_config_jobs("panics", Arc::new(Panics), &SysParams::integrated(), false)
    }

    #[test]
    fn a_mid_run_panic_leaves_no_state_for_later_jobs() {
        let hammer = hammer_matrix();
        let mut jobs = mid_run_panic_jobs();
        let lost: Vec<usize> = (0..jobs.len()).collect();
        jobs.extend(hammer.iter().cloned());
        // One worker runs every job in order on this thread, so each
        // hammer job follows the panicking ones on the same thread.
        let out = run_matrix_resilient(&jobs, 1, &MatrixResilience::default());
        assert_eq!(out.status, RunStatus::Degraded { lost: lost.clone() });
        // The clean sweep runs on a new thread, which starts with no
        // memory system of its own.
        let clean = std::thread::scope(|s| s.spawn(|| run_matrix(&hammer, 1)).join())
            .expect("the clean sweep does not panic");
        for (i, want) in clean.iter().enumerate() {
            let got = out.reports[lost.len() + i].as_ref().expect("hammer jobs complete");
            assert_eq!(got.cycles, want.cycles, "job {i} ({})", hammer[i].workload);
            assert_eq!(got.counters, want.counters, "job {i}");
            assert_eq!(got.proto, want.proto, "job {i}");
            assert_eq!(got.memory, want.memory, "job {i}");
        }
    }

    #[test]
    fn an_expired_deadline_leaves_a_frontier() {
        let jobs = hammer_matrix();
        let res = MatrixResilience {
            budget: Some(Arc::new(Budget::with_timeout(Duration::from_secs(0)))),
            ..MatrixResilience::default()
        };
        let out = run_matrix_resilient(&jobs, 2, &res);
        match out.status {
            RunStatus::Inconclusive { reason, frontier } => {
                assert!(
                    matches!(reason, ExhaustReason::Deadline | ExhaustReason::Cancelled),
                    "got {reason:?}"
                );
                assert_eq!(frontier.len() + out.reports.iter().flatten().count(), jobs.len());
            }
            s => panic!("expected Inconclusive, got {s:?}"),
        }
    }

    /// A [`Hammer`] that cancels `budget` when its first work item is
    /// made, so on one worker every later job finds the budget tripped.
    struct Tripwire {
        hammer: Hammer,
        budget: Arc<Budget>,
    }
    impl Kernel for Tripwire {
        fn name(&self) -> String {
            "tripwire".into()
        }
        fn blocks(&self) -> usize {
            self.hammer.blocks()
        }
        fn threads_per_block(&self) -> usize {
            self.hammer.threads_per_block()
        }
        fn memory_words(&self) -> usize {
            self.hammer.memory_words()
        }
        fn item(&self, b: usize, t: usize) -> Box<dyn WorkItem> {
            self.budget.cancel();
            self.hammer.item(b, t)
        }
    }

    fn panic_text(p: &LostPanic) -> String {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// `run_matrix_map` and `run_matrix_resilient` over the same jobs
    /// and policy (made fresh for each, since a budget trips once):
    /// the same status, lost set, frontier and lost panic, and every
    /// kept value is the full report in that slot, rendered.
    fn map_matches_full(
        what: &str,
        jobs: &[SimJob],
        threads: usize,
        res: impl Fn() -> MatrixResilience,
    ) {
        let full = run_matrix_resilient(jobs, threads, &res());
        let mapped = run_matrix_map(jobs, threads, &res(), |r| format!("{r:?}"));
        assert_eq!(mapped.status, full.status, "{what}, t={threads}: status");
        assert_eq!(
            mapped.lost_panic.as_ref().map(panic_text),
            full.lost_panic.as_ref().map(panic_text),
            "{what}, t={threads}: lost panic"
        );
        let want: Vec<Option<String>> =
            full.reports.iter().map(|r| r.as_ref().map(|r| format!("{r:?}"))).collect();
        assert_eq!(mapped.reports, want, "{what}, t={threads}: kept values");
    }

    #[test]
    fn the_mapped_sweep_matches_the_full_one() {
        let hammer = hammer_matrix();
        let mut panicking = mid_run_panic_jobs();
        panicking.extend(broken_jobs());
        panicking.extend(hammer.iter().cloned());
        for threads in [1usize, 2] {
            let none = MatrixResilience::default;
            map_matches_full("complete", &hammer, threads, none);
            map_matches_full("panicking jobs", &panicking, threads, none);
            let pinned = || MatrixResilience {
                fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 5, 2, Fault::Panic)),
                ..MatrixResilience::default()
            };
            map_matches_full("pinned fault", &hammer, threads, pinned);
            let cancelled = || {
                let budget = Budget::unlimited();
                budget.cancel();
                MatrixResilience { budget: Some(Arc::new(budget)), ..MatrixResilience::default() }
            };
            map_matches_full("cancelled budget", &hammer, threads, cancelled);
        }
        // Where a seeded plan's exhaustion stops the sweep depends on
        // scheduling at two workers, so seeded plans run on one.
        for seed in 1..=4u64 {
            let seeded = || MatrixResilience {
                fault_plan: Some(FaultPlan::seeded(seed)),
                ..MatrixResilience::default()
            };
            map_matches_full(&format!("seed {seed}"), &hammer, 1, seeded);
        }
    }

    #[test]
    fn a_budget_tripped_mid_sweep_leaves_the_same_frontier() {
        // One worker runs the jobs in order: job 4 trips the budget, so
        // jobs 0..=4 complete and 5.. are the frontier.
        let run = |map: bool| {
            let budget = Arc::new(Budget::unlimited());
            let mut jobs = hammer_matrix();
            jobs[4].kernel = Arc::new(Tripwire { hammer: Hammer { n: 2 }, budget: budget.clone() });
            let res = MatrixResilience { budget: Some(budget), ..MatrixResilience::default() };
            if map {
                run_matrix_map(&jobs, 1, &res, |r| r.cycles)
            } else {
                let out = run_matrix_resilient(&jobs, 1, &res);
                let reports = out.reports.into_iter().map(|r| r.map(|r| r.cycles)).collect();
                MatrixOutcome { reports, status: out.status, lost_panic: out.lost_panic }
            }
        };
        let (full, mapped) = (run(false), run(true));
        match &mapped.status {
            RunStatus::Inconclusive { reason: ExhaustReason::Cancelled, frontier } => {
                assert_eq!(*frontier, (5..hammer_matrix().len()).collect::<Vec<_>>());
            }
            s => panic!("expected Inconclusive(Cancelled), got {s:?}"),
        }
        assert_eq!(mapped.status, full.status);
        assert_eq!(mapped.reports, full.reports);
        assert!(mapped.lost_panic.is_none() && full.lost_panic.is_none());
    }

    #[test]
    fn a_panicking_keep_loses_its_job() {
        let jobs = hammer_matrix();
        // `keep` panics on both tries for every job of one configuration.
        let config = jobs[2].config;
        let lost: Vec<usize> =
            jobs.iter().enumerate().filter(|(_, j)| j.config == config).map(|(i, _)| i).collect();
        let full = run_matrix(&jobs, 1);
        for threads in [1usize, 2] {
            let out = run_matrix_map(&jobs, threads, &MatrixResilience::default(), |r| {
                assert_ne!(r.config, config, "keep panics");
                r.cycles
            });
            assert_eq!(out.status, RunStatus::Degraded { lost: lost.clone() }, "t={threads}");
            assert!(panic_text(out.lost_panic.as_ref().expect("a lost panic")).contains("keep"));
            for (i, kept) in out.reports.iter().enumerate() {
                let want = (!lost.contains(&i)).then_some(full[i].cycles);
                assert_eq!(*kept, want, "t={threads}, job {i}");
            }
        }
    }

    #[test]
    fn seeded_sweep_chaos_is_deterministic_and_never_aborts() {
        let jobs = hammer_matrix();
        for seed in 1..=4u64 {
            let res = MatrixResilience {
                fault_plan: Some(FaultPlan::seeded(seed)),
                ..MatrixResilience::default()
            };
            let a = run_matrix_resilient(&jobs, 1, &res);
            let b = run_matrix_resilient(&jobs, 1, &res);
            assert_eq!(a.status, b.status, "seed {seed}");
            let done = |o: &MatrixOutcome| o.completed().map(|(i, _)| i).collect::<Vec<_>>();
            assert_eq!(done(&a), done(&b), "seed {seed}");
        }
    }
}
