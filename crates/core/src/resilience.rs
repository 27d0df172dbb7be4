//! Resilience primitives shared by the three compute engines: budgets
//! with cooperative cancellation, structured exhaustion reasons,
//! deterministic fault injection, the one options value that carries
//! them, and the one work pool every engine runs its units on.
//!
//! The execution layer treats resource exhaustion as a *first-class
//! outcome* rather than a crash (herd reports partial exploration when
//! enumeration is cut short; this layer does the same). Five pieces
//! compose:
//!
//! * [`Budget`] — a shared, cooperatively-polled resource bound: a
//!   wall-clock deadline and an explicit cancel flag. The enumerator
//!   polls it amortized in the DFS hot loop ([`crate::exec`]); the
//!   pool polls it before every unit attempt. Each poll reads the
//!   deadline itself, so nothing has to watch the clock on the
//!   budget's behalf.
//! * [`ExhaustReason`] / [`RunStatus`] — the structured vocabulary for
//!   "the run did not finish": `ExhaustReason` is also the
//!   enumerators' error type ([`crate::exec::EnumError`]), and
//!   `Inconclusive` carries what was explored and which shards remain
//!   (the frontier), `Degraded` names the shards lost to panics after
//!   retry. Both are reports, never aborts.
//! * [`FaultPlan`] — seeded, deterministic fault injection (SplitMix64,
//!   the same discipline as `drfrlx_conform::schedule_params`):
//!   whether shard `u` of engine `e` panics, stalls or exhausts on
//!   attempt `a` is a pure function of `(seed, e, u, a)`, so every
//!   chaos run is replayable from its seed alone. All injection is off
//!   unless a plan is supplied.
//! * [`Resilience`] — a run's budget and fault plan, the one options
//!   value the checker (`check_program_resilient`), the sweep
//!   (`hsim_sys::run_matrix_map`) and the conformance loop
//!   (`drfrlx_conform::check_conformance_resilient`) all take. The
//!   default — no budget, no faults — reproduces the plain runs.
//! * [`Pool`] — the work pool behind the checker's shards
//!   (`drfrlx_core::exec`), the simulation sweep
//!   (`hsim_sys::run_matrix`) and, one attempt at a time, the fuzz
//!   campaign's budget ladder (`drfrlx_conform`). It claims units by
//!   atomic index, keeps one result slot per unit, runs each attempt
//!   under `catch_unwind` with one retry, and folds the slots into a
//!   [`RunStatus`]. Callers without resilience options map that status
//!   back with [`require_complete`].

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::fingerprint::mix64;

/// A shared resource bound polled cooperatively by the engines.
///
/// The execution-count budget stays where it always lived
/// ([`crate::exec::EnumLimits::max_executions`], a shared atomic
/// counter); `Budget` adds the bounds that need wall-clock or external
/// intervention: a deadline and a cancel flag anyone (a signal
/// handler, an embedding application, a test) may set.
#[derive(Debug, Default)]
pub struct Budget {
    cancel: AtomicBool,
    deadline: Option<Instant>,
}

impl Budget {
    /// A budget with no bounds — only explicit [`Budget::cancel`] can
    /// trip it.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget { deadline: Some(Instant::now() + timeout), ..Budget::default() }
    }

    /// Request cooperative cancellation; every poll site unwinds soon
    /// after.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Has someone called [`Budget::cancel`]?
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// One cooperative poll: `Err` when the budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`ExhaustReason::Cancelled`] if the cancel flag is set,
    /// [`ExhaustReason::Deadline`] past the deadline.
    pub fn check(&self) -> Result<(), ExhaustReason> {
        if self.cancelled() {
            return Err(ExhaustReason::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(ExhaustReason::Deadline);
            }
        }
        Ok(())
    }
}

/// Why a run stopped short of full exploration — and, as
/// [`crate::exec::EnumError`], why an enumeration failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The shared execution counter hit
    /// [`crate::exec::EnumLimits::max_executions`].
    Executions {
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline passed.
    Deadline,
    /// Someone called [`Budget::cancel`] (signal handler, test).
    Cancelled,
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustReason::Executions { limit } => {
                write!(f, "execution budget ({limit}) exhausted")
            }
            ExhaustReason::Deadline => write!(f, "wall-clock deadline expired"),
            ExhaustReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for ExhaustReason {}

/// How a resilient run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every unit of work finished; the report is exactly what the
    /// non-resilient path would have produced.
    Complete,
    /// Some units were lost to panics (or injected faults) even after
    /// retry; the report covers every other unit.
    Degraded {
        /// Indices of the lost units (shards or jobs), ascending.
        lost: Vec<usize>,
    },
    /// A global budget ran out before every unit finished. The report
    /// covers the completed units — a sound prefix — and `frontier`
    /// names the units that did not finish.
    Inconclusive {
        /// What ran out.
        reason: ExhaustReason,
        /// Indices of units not completed, ascending.
        frontier: Vec<usize>,
    },
}

impl RunStatus {
    /// Did every unit finish?
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Complete)
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Complete => write!(f, "complete"),
            RunStatus::Degraded { lost } => {
                write!(f, "degraded ({} unit(s) lost: {lost:?})", lost.len())
            }
            RunStatus::Inconclusive { reason, frontier } => {
                write!(f, "inconclusive ({reason}; {} unit(s) unfinished)", frontier.len())
            }
        }
    }
}

/// Which compute engine a fault-injection point belongs to. Part of
/// the [`FaultPlan`] hash input, so one seed drives distinct fault
/// schedules per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineId {
    /// The streaming checker's shard pool (`drfrlx-core::exec`).
    Checker,
    /// The simulation sweep (`hsim-sys::run_matrix_resilient`), one
    /// unit per simulation job.
    Sweep,
    /// The conformance harness (`drfrlx-conform`).
    Conform,
}

impl EngineId {
    fn tag(self) -> u64 {
        match self {
            EngineId::Checker => 0x1000_0001,
            EngineId::Sweep => 0x1000_0002,
            EngineId::Conform => 0x1000_0003,
        }
    }
}

/// A fault a [`FaultPlan`] may inject at a shard/job boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The unit is lost as if it panicked: the attempt returns a panic
    /// payload without running the unit or raising a panic.
    Panic,
    /// The unit stalls until its budget trips (or a bounded fallback
    /// wait elapses) and is then treated as failed.
    Stall,
    /// The unit reports budget exhaustion without doing its work.
    Exhaust,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fault::Panic => "injected panic",
            Fault::Stall => "injected stall",
            Fault::Exhaust => "injected budget exhaustion",
        })
    }
}

/// Deterministic fault injection: a pure function from
/// `(seed, engine, unit, attempt)` to an optional [`Fault`], SplitMix64
/// through and through — the same replayability discipline as the
/// conformance harness's `schedule_params`. With no plan (the
/// default everywhere) nothing is ever injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Seeded(u64),
    Pinned { engine: EngineId, unit: usize, attempts: usize, fault: Fault },
}

impl FaultPlan {
    /// The seeded plan: roughly one unit-attempt in five draws a
    /// fault, split evenly across the three kinds.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { mode: Mode::Seeded(seed) }
    }

    /// A surgical plan for tests: inject `fault` at `(engine, unit)`
    /// for the first `attempts` attempts, nothing anywhere else. With
    /// `attempts == 1` the retry succeeds; with `attempts >= 2` the
    /// unit is lost.
    pub fn pinned(engine: EngineId, unit: usize, attempts: usize, fault: Fault) -> FaultPlan {
        FaultPlan { mode: Mode::Pinned { engine, unit, attempts, fault } }
    }

    /// The fault (if any) to inject when `engine` starts `unit` on
    /// `attempt` (0 = first try, 1 = retry).
    pub fn fault_for(&self, engine: EngineId, unit: usize, attempt: usize) -> Option<Fault> {
        match self.mode {
            Mode::Pinned { engine: e, unit: u, attempts, fault } => {
                (e == engine && u == unit && attempt < attempts).then_some(fault)
            }
            Mode::Seeded(seed) => {
                let h = mix64(
                    mix64(seed ^ engine.tag())
                        ^ mix64(unit as u64 ^ 0x5851_F42D_4C95_7F2D)
                        ^ mix64(attempt as u64 ^ 0x1405_7B7E_F767_814F),
                );
                match h % 16 {
                    0 => Some(Fault::Panic),
                    1 => Some(Fault::Stall),
                    2 => Some(Fault::Exhaust),
                    _ => None,
                }
            }
        }
    }
}

/// A run's resilience options, shared by the checker, the sweep and
/// the conformance loop. The default — no budget, no fault plan — runs
/// every unit, retrying a panicking one once and reporting it lost if
/// the retry panics too.
#[derive(Debug, Clone, Default)]
pub struct Resilience {
    /// Shared resource budget (deadline / cancel flag), polled before
    /// every unit attempt and, by the enumerator, amortized in its DFS.
    pub budget: Option<Arc<Budget>>,
    /// Deterministic fault injection (chaos testing only).
    pub fault_plan: Option<FaultPlan>,
}

/// The panic payload of a [`RunStatus::Degraded`] run's lowest lost
/// unit, kept so a caller without resilience options can re-raise it.
pub type LostPanic = Box<dyn Any + Send>;

/// The mapping for callers that take no resilience options:
/// `Complete` is `Ok`, `Inconclusive` is `Err(reason)`, and `Degraded`
/// re-raises the lowest lost unit's original panic — so such a caller
/// never sees a silently partial result.
///
/// # Errors
///
/// The [`ExhaustReason`] of an `Inconclusive` run.
pub fn require_complete(status: &RunStatus, lost: Option<LostPanic>) -> Result<(), ExhaustReason> {
    match status {
        RunStatus::Complete => Ok(()),
        RunStatus::Inconclusive { reason, .. } => Err(*reason),
        RunStatus::Degraded { .. } => resume_unwind(lost.expect("a lost unit left its panic")),
    }
}

/// How long an injected stall waits for its budget to trip before
/// failing on its own — bounds chaos runs that have no deadline.
const STALL_FALLBACK: Duration = Duration::from_millis(25);

/// A work pool over indexed units of one engine.
///
/// Workers claim units by atomic index and write each result into the
/// unit's own slot, so results come back in unit order at any thread
/// count. Each unit gets up to two [`Pool::attempt`]s — the work
/// closure sees the attempt number, so it can back off on the retry —
/// with the [`Resilience`] budget polled before each. A unit that fails twice
/// is *lost*; a budget trip stops all claiming and leaves the unrun
/// units as the frontier. With `threads == 1` the caller's thread
/// runs the same worker loop.
pub struct Pool<'a> {
    engine: EngineId,
    threads: usize,
    res: &'a Resilience,
}

/// The result of [`Pool::run`].
pub struct PoolRun<T> {
    /// One entry per unit, in unit order: `Some` for every unit this
    /// run completed at or below the cutoff.
    pub results: Vec<Option<T>>,
    /// How the run ended; units above the cutoff are neither lost nor
    /// on the frontier.
    pub status: RunStatus,
    /// The smallest saturating unit, if any.
    pub cutoff: Option<usize>,
    /// The lowest lost unit's panic, for [`require_complete`].
    pub lost_panic: Option<LostPanic>,
}

impl<'a> Pool<'a> {
    /// `threads` workers (clamped to the unit count) for `engine`. The
    /// pool polls `res.budget` before every attempt (an injected stall
    /// ends when it trips) and injects the faults `res.fault_plan`
    /// draws for `engine`.
    pub fn new(engine: EngineId, threads: usize, res: &'a Resilience) -> Pool<'a> {
        Pool { engine, threads, res }
    }

    /// One attempt at `unit`: draw its fault, then run `work` under
    /// `catch_unwind`. An injected stall holds the thread until the
    /// budget trips or `STALL_FALLBACK` elapses; it, an injected
    /// exhaustion and an injected panic fail the attempt without
    /// running `work`. An injected panic is never raised: its payload
    /// is the text a raised one would carry, and nothing reaches the
    /// panic hook.
    ///
    /// # Errors
    ///
    /// The panic payload (or a description of the injected fault).
    pub fn attempt<T>(
        &self,
        unit: usize,
        attempt: usize,
        work: impl FnOnce() -> T,
    ) -> Result<T, LostPanic> {
        let fault = self.res.fault_plan.and_then(|plan| plan.fault_for(self.engine, unit, attempt));
        let label = |f: Fault| format!("{f}: {:?} unit {unit} attempt {attempt}", self.engine);
        match fault {
            Some(Fault::Stall) => {
                let cap = Instant::now() + STALL_FALLBACK;
                while self.res.budget.as_ref().is_none_or(|b| b.check().is_ok())
                    && Instant::now() < cap
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(Box::new(label(Fault::Stall)))
            }
            Some(f @ (Fault::Exhaust | Fault::Panic)) => Err(Box::new(label(f))),
            None => catch_unwind(AssertUnwindSafe(work)),
        }
    }

    /// Run `units` units. `work(unit, attempt)` does one attempt; `Err`
    /// is a budget trip that stops the pool. When `saturated` holds for
    /// a unit's result, every unit above the smallest such unit is
    /// discarded. The rule is deterministic: the running cutoff only
    /// decreases, so every unit at or below the final one always runs.
    ///
    /// The calling thread is worker 0 at every thread count: it runs the
    /// worker loop itself beside `threads − 1` scoped helpers, so its
    /// thread-local state (a sweep's memory system) stays warm across
    /// calls and one thread spawn per call is saved.
    pub fn run<T: Send>(
        &self,
        units: usize,
        work: impl Fn(usize, usize) -> Result<T, ExhaustReason> + Sync,
        saturated: impl Fn(&T) -> bool + Sync,
    ) -> PoolRun<T> {
        // `Some(Err(payload))` is a lost unit; `None` never ran.
        let slots: Vec<Mutex<Option<Result<T, LostPanic>>>> =
            (0..units).map(|_| Mutex::new(None)).collect();
        // `next` and `cutoff` publish no data (results travel through
        // the slot mutexes, and the scope's join orders the final
        // reads), so their operations are `Relaxed`.
        let next = AtomicUsize::new(0);
        let cutoff = AtomicUsize::new(usize::MAX);
        let exhausted: OnceLock<ExhaustReason> = OnceLock::new();

        // First try plus one retry; `None` when the budget trips first.
        let unit = |u: usize| {
            let mut failed = None;
            for attempt in 0..2 {
                if let Some(Err(reason)) = self.res.budget.as_ref().map(|b| b.check()) {
                    let _ = exhausted.set(reason);
                }
                if exhausted.get().is_some() {
                    return None;
                }
                match self.attempt(u, attempt, || work(u, attempt)) {
                    Ok(Ok(t)) => {
                        if saturated(&t) {
                            cutoff.fetch_min(u, Ordering::Relaxed);
                        }
                        return Some(Ok(t));
                    }
                    Ok(Err(reason)) => {
                        let _ = exhausted.set(reason);
                        return None;
                    }
                    Err(payload) => failed = Some(Err(payload)),
                }
            }
            failed
        };
        let worker = || loop {
            let u = next.fetch_add(1, Ordering::Relaxed);
            if u >= units || u > cutoff.load(Ordering::Relaxed) || exhausted.get().is_some() {
                break;
            }
            let out = unit(u);
            *slots[u].lock().expect("slot lock") = out;
        };
        let threads = self.threads.clamp(1, units.max(1));
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(worker);
            }
            worker();
        });

        let cut = cutoff.into_inner();
        let (mut lost, mut frontier, mut lost_panic) = (Vec::new(), Vec::new(), None);
        let results = slots
            .into_iter()
            .enumerate()
            .map(|(u, slot)| match slot.into_inner().expect("slot lock") {
                _ if u > cut => None,
                Some(Ok(t)) => Some(t),
                Some(Err(payload)) => {
                    lost.push(u);
                    lost_panic.get_or_insert(payload);
                    None
                }
                None => {
                    frontier.push(u);
                    None
                }
            })
            .collect();
        let status = if !frontier.is_empty() {
            frontier.extend_from_slice(&lost);
            frontier.sort_unstable();
            let reason = exhausted.into_inner().unwrap_or(ExhaustReason::Cancelled);
            RunStatus::Inconclusive { reason, frontier }
        } else if !lost.is_empty() {
            RunStatus::Degraded { lost }
        } else {
            RunStatus::Complete
        };
        PoolRun { results, status, cutoff: (cut != usize::MAX).then_some(cut), lost_panic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.check().is_ok());
        assert!(!b.cancelled());
    }

    #[test]
    fn cancel_trips_every_poll() {
        let b = Budget::unlimited();
        b.cancel();
        assert_eq!(b.check(), Err(ExhaustReason::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let b = Budget::with_timeout(Duration::from_secs(0));
        assert_eq!(b.check(), Err(ExhaustReason::Deadline));
    }

    #[test]
    fn fault_plan_is_a_pure_function() {
        let plan = FaultPlan::seeded(42);
        for unit in 0..64 {
            for attempt in 0..2 {
                for engine in [EngineId::Checker, EngineId::Sweep, EngineId::Conform] {
                    assert_eq!(
                        plan.fault_for(engine, unit, attempt),
                        plan.fault_for(engine, unit, attempt),
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_plans_inject_every_fault_kind_somewhere() {
        let plan = FaultPlan::seeded(1);
        let mut kinds = std::collections::BTreeSet::new();
        for unit in 0..512 {
            if let Some(f) = plan.fault_for(EngineId::Checker, unit, 0) {
                kinds.insert(format!("{f:?}"));
            }
        }
        assert_eq!(kinds.len(), 3, "512 units should draw all three fault kinds");
    }

    #[test]
    fn engines_get_distinct_fault_schedules() {
        let plan = FaultPlan::seeded(7);
        let per_engine = |e: EngineId| -> Vec<Option<Fault>> {
            (0..256).map(|u| plan.fault_for(e, u, 0)).collect()
        };
        assert_ne!(per_engine(EngineId::Checker), per_engine(EngineId::Sweep));
        assert_ne!(per_engine(EngineId::Sweep), per_engine(EngineId::Conform));
    }

    #[test]
    fn pinned_plan_is_surgical() {
        let plan = FaultPlan::pinned(EngineId::Sweep, 3, 1, Fault::Panic);
        assert_eq!(plan.fault_for(EngineId::Sweep, 3, 0), Some(Fault::Panic));
        assert_eq!(plan.fault_for(EngineId::Sweep, 3, 1), None, "retry succeeds");
        assert_eq!(plan.fault_for(EngineId::Sweep, 2, 0), None);
        assert_eq!(plan.fault_for(EngineId::Checker, 3, 0), None);
    }

    /// A pool over `units` squares with no faults or budget.
    fn squares(threads: usize, units: usize) -> PoolRun<usize> {
        Pool::new(EngineId::Checker, threads, &Resilience::default()).run(
            units,
            |u, _| Ok(u * u),
            |_: &_| false,
        )
    }

    #[test]
    fn pool_results_come_back_in_unit_order() {
        for threads in [1, 2, 4, 8] {
            let run = squares(threads, 50);
            assert_eq!(run.status, RunStatus::Complete, "t={threads}");
            assert_eq!(run.cutoff, None);
            let want: Vec<Option<usize>> = (0..50).map(|u| Some(u * u)).collect();
            assert_eq!(run.results, want, "t={threads}");
        }
        assert!(squares(4, 0).results.is_empty());
    }

    #[test]
    fn pool_runs_units_on_the_calling_thread() {
        // Each unit waits until both have started, so neither worker
        // can run both units and both take part.
        let (ids, started) = (Mutex::new(Vec::new()), Condvar::new());
        let run = Pool::new(EngineId::Sweep, 2, &Resilience::default()).run(
            2,
            |_, _| {
                let mut seen = ids.lock().expect("ids lock");
                seen.push(std::thread::current().id());
                started.notify_all();
                let wait = started
                    .wait_timeout_while(seen, Duration::from_secs(10), |seen| seen.len() < 2);
                drop(wait.expect("ids lock"));
                Ok(())
            },
            |_: &()| false,
        );
        assert_eq!(run.status, RunStatus::Complete);
        let ids = ids.into_inner().expect("ids lock");
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1], "both workers took a unit");
        assert!(ids.contains(&std::thread::current().id()), "the caller is a worker: {ids:?}");
    }

    #[test]
    fn pool_cutoff_keeps_exactly_the_units_up_to_the_smallest_saturating_one() {
        for threads in [1, 2, 4, 8] {
            let run = Pool::new(EngineId::Checker, threads, &Resilience::default()).run(
                60,
                |u, _| Ok(u),
                |&u: &usize| [17, 23, 40].contains(&u),
            );
            assert_eq!(run.status, RunStatus::Complete, "t={threads}");
            assert_eq!(run.cutoff, Some(17), "t={threads}");
            for (u, r) in run.results.iter().enumerate() {
                assert_eq!(r.is_some(), u <= 17, "t={threads} unit {u}");
            }
        }
    }

    #[test]
    fn pool_retries_a_unit_that_panics_once() {
        for threads in [1, 4] {
            let run = Pool::new(EngineId::Sweep, threads, &Resilience::default()).run(
                8,
                |u, attempt| {
                    if u == 3 && attempt == 0 {
                        panic!("unit 3 panics on its first try");
                    }
                    Ok((u, attempt))
                },
                |_: &_| false,
            );
            assert_eq!(run.status, RunStatus::Complete, "t={threads}");
            assert_eq!(run.results[3], Some((3, 1)), "the retry sees attempt 1");
            assert_eq!(run.results[2], Some((2, 0)));
            assert!(run.lost_panic.is_none());
        }
    }

    #[test]
    fn pool_reports_a_unit_that_panics_twice_as_lost() {
        for threads in [1, 4] {
            let run = Pool::new(EngineId::Sweep, threads, &Resilience::default()).run(
                8,
                |u, _| {
                    if u == 3 || u == 6 {
                        panic!("unit {u} always panics");
                    }
                    Ok(u)
                },
                |_: &_| false,
            );
            assert_eq!(run.status, RunStatus::Degraded { lost: vec![3, 6] }, "t={threads}");
            assert_eq!(run.results.iter().flatten().count(), 6);
            // The flag-less mapping re-raises the lowest lost unit's
            // own panic.
            let raised = catch_unwind(AssertUnwindSafe(|| {
                let _ = require_complete(&run.status, run.lost_panic);
            }))
            .expect_err("a degraded run re-raises");
            assert_eq!(raised.downcast_ref::<String>().unwrap(), "unit 3 always panics");
        }
        // Injected faults count as failed attempts too.
        let res = Resilience {
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 2, 2, Fault::Exhaust)),
            ..Resilience::default()
        };
        let run = Pool::new(EngineId::Sweep, 1, &res).run(4, |u, _| Ok(u), |_: &_| false);
        assert_eq!(run.status, RunStatus::Degraded { lost: vec![2] });
    }

    #[test]
    fn pool_budget_trip_leaves_the_unrun_units_as_an_ascending_frontier() {
        let limit = ExhaustReason::Executions { limit: 5 };
        for threads in [1, 2, 4] {
            let run = Pool::new(EngineId::Checker, threads, &Resilience::default()).run(
                20,
                |u, _| if u >= 5 { Err(limit) } else { Ok(u) },
                |_: &_| false,
            );
            let done = run.results.iter().flatten().count();
            match run.status {
                RunStatus::Inconclusive { reason, frontier } => {
                    assert_eq!(reason, limit, "t={threads}");
                    assert!(frontier.windows(2).all(|w| w[0] < w[1]), "t={threads}: {frontier:?}");
                    assert!((5..20).all(|u| frontier.contains(&u)), "t={threads}: {frontier:?}");
                    assert_eq!(frontier.len() + done, 20, "t={threads}");
                    // Serially the trip can only come after units 0..5;
                    // in parallel a claimed unit may see it first.
                    if threads == 1 {
                        assert_eq!(frontier, (5..20).collect::<Vec<_>>());
                    }
                }
                s => panic!("t={threads}: expected Inconclusive, got {s:?}"),
            }
        }
        // A budget that has already tripped runs nothing.
        let budget = Arc::new(Budget::unlimited());
        budget.cancel();
        let res = Resilience { budget: Some(budget), ..Resilience::default() };
        let run = Pool::new(EngineId::Sweep, 2, &res).run(
            6,
            |_, _| -> Result<(), ExhaustReason> { panic!("no unit may run") },
            |_: &_| false,
        );
        assert_eq!(
            run.status,
            RunStatus::Inconclusive {
                reason: ExhaustReason::Cancelled,
                frontier: (0..6).collect()
            }
        );
    }

    #[test]
    fn a_budget_with_a_distant_deadline_adds_no_wait_to_a_pool_call() {
        // Nothing watches the deadline on the budget's behalf, so a
        // budgeted pool call costs what an unbudgeted one does.
        let budget = Arc::new(Budget::with_timeout(Duration::from_secs(3600)));
        let res = Resilience { budget: Some(budget), ..Resilience::default() };
        let start = Instant::now();
        for threads in [1, 2] {
            for _ in 0..100 {
                let run =
                    Pool::new(EngineId::Sweep, threads, &res).run(1, |u, _| Ok(u), |_: &_| false);
                assert_eq!(run.status, RunStatus::Complete);
            }
        }
        let took = start.elapsed();
        assert!(took < Duration::from_millis(200), "200 budgeted pool calls took {took:?}");
    }

    #[test]
    fn run_status_displays() {
        assert_eq!(RunStatus::Complete.to_string(), "complete");
        let d = RunStatus::Degraded { lost: vec![2, 5] };
        assert!(d.to_string().contains("[2, 5]"));
        let i = RunStatus::Inconclusive {
            reason: ExhaustReason::Executions { limit: 10 },
            frontier: vec![1],
        };
        assert!(i.to_string().contains("execution budget (10)"));
        assert!(!i.is_complete());
    }
}
