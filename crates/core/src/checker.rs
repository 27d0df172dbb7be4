//! Whole-program DRF checking — the streaming race-check pipeline.
//!
//! A DRF-family model is a contract: *if* the program is race-free in
//! every SC execution (of its quantum-equivalent program, for DRFrlx),
//! *then* the system guarantees SC (quantum-equivalent) results.
//! [`check_program`] discharges the programmer's half of the contract
//! by streaming every SC execution through the Listing 7 race
//! detectors:
//!
//! * **DRF0** — every atomic is viewed as paired; illegal = data races
//!   (§2.3.2 with only data/atomic distinguished).
//! * **DRF1** — relaxed classes are viewed as unpaired (sound: stronger
//!   than annotated); illegal = data races.
//! * **DRFrlx** — classes as annotated; illegal = data, commutative,
//!   non-ordering, quantum and speculative races, detected on the
//!   quantum-equivalent program when quantum atomics are present.
//!
//! The default path ([`check_program_with`]) runs the sharded streaming
//! enumerator with sleep-set partial-order reduction: executions are
//! analyzed as they complete, nothing is materialized, and the check
//! exits early once every [`crate::races::attainable_kinds`] kind has a
//! witness (the verdict can no longer change). The materializing
//! pre-streaming behavior survives as [`check_program_reference`] for
//! differential testing and benchmarking.

use crate::classes::{MemoryModel, OpClass};
use crate::exec::{
    enumerate_sc, enumerate_sc_quantum, visit_sc_resilient, EnumError, EnumLimits, Execution,
    ExecutionVisitor, Reduction,
};
use crate::program::Program;
use crate::quantum::has_quantum;
use crate::races::{attainable_kinds, Race, RaceDetector, RaceKind};
use crate::resilience::{require_complete, FaultPlan, LostPanic, RunStatus};
use std::collections::BTreeSet;

/// The verdict of a whole-program check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every SC execution (of the quantum-equivalent program) is free of
    /// illegal races: the program upholds its half of the contract and
    /// the system must appear SC.
    RaceFree,
    /// At least one SC execution contains an illegal race: the model
    /// makes no guarantee for this program.
    Racy,
}

/// One illegal race found during checking, with its provenance.
#[derive(Debug, Clone)]
pub struct FoundRace {
    /// Index of the execution (in explored order) exhibiting it.
    pub exec_index: usize,
    /// The racing pair and race kind.
    pub race: Race,
    /// Static identity of the race (see [`RaceKey`]) — the stable way
    /// to compare races across reductions and thread counts.
    pub key: RaceKey,
    /// Human-readable description of the two events.
    pub description: String,
}

/// Result of [`check_program`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Program name.
    pub program: String,
    /// Model the program was checked against.
    pub model: MemoryModel,
    /// Number of SC executions explored (analyzed). With partial-order
    /// reduction or early exit this is the work actually done, not the
    /// full interleaving count.
    pub executions: usize,
    /// Scheduling subtrees skipped by partial-order reduction.
    pub pruned: usize,
    /// Subtrees skipped by duplicate-state memoization
    /// ([`Reduction::SleepSetMemo`]); zero otherwise.
    pub memo_pruned: usize,
    /// Peak number of entries in the memo visited-table across shards.
    pub table_peak: usize,
    /// Whether the quantum transformation was applied.
    pub quantum_transformed: bool,
    /// Distinct illegal races — one representative per
    /// `(kind, instruction pair)`, keyed by static `(tid, iid)` so the
    /// list is stable under partial-order reduction.
    pub races: Vec<FoundRace>,
    /// The overall verdict.
    pub verdict: Verdict,
}

impl CheckReport {
    /// Did the program uphold the contract?
    pub fn is_race_free(&self) -> bool {
        self.verdict == Verdict::RaceFree
    }

    /// Distinct race kinds found.
    pub fn race_kinds(&self) -> Vec<RaceKind> {
        let mut out: Vec<RaceKind> = Vec::new();
        for r in &self.races {
            if !out.contains(&r.race.kind) {
                out.push(r.race.kind);
            }
        }
        out.sort();
        out
    }

    /// Does the report contain a race of the given kind?
    pub fn has_race_kind(&self, kind: RaceKind) -> bool {
        self.races.iter().any(|r| r.race.kind == kind)
    }
}

/// How the streaming checker runs.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Enumeration limits (execution budget, quantum domain).
    pub limits: EnumLimits,
    /// Worker threads for the sharded walk. The result is identical at
    /// any thread count; more threads only finish sooner.
    pub threads: usize,
    /// Search-space pruning. [`Reduction::SleepSet`] is sound for
    /// verdicts, race kinds and result sets (see DESIGN.md).
    pub reduction: Reduction,
    /// Stop exploring once every attainable race kind has a witness.
    pub early_exit: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            limits: EnumLimits::default(),
            threads: 1,
            reduction: Reduction::SleepSet,
            early_exit: true,
        }
    }
}

/// How each model views a program's annotations (see module docs).
fn model_view(p: &Program, model: MemoryModel) -> Program {
    match model {
        MemoryModel::Drf0 => {
            p.map_classes(|c| if c.is_atomic() { OpClass::Paired } else { OpClass::Data })
        }
        MemoryModel::Drf1 => p.map_classes(|c| match c {
            c if c.is_relaxed() => OpClass::Unpaired,
            // DRF1 predates one-sided synchronization: upgraded to paired.
            OpClass::Acquire | OpClass::Release => OpClass::Paired,
            c => c,
        }),
        MemoryModel::Drfrlx => p.clone(),
    }
}

/// Static identity of a racing pair: kind plus the two `(tid, iid)`
/// instruction coordinates, order-normalized. Stable across
/// interleavings, shards, reduction strategy and thread count — unlike
/// event ids or execution indices.
pub type RaceKey = (RaceKind, (usize, usize), (usize, usize));

/// The streaming race checker: one per shard. Analyzes each execution
/// as it completes and keeps one witness per static race key.
struct RaceCollector<'p> {
    view: &'p Program,
    detector: RaceDetector,
    attainable: &'p [RaceKind],
    early_exit: bool,
    explored: usize,
    keys: BTreeSet<RaceKey>,
    races: Vec<(RaceKey, FoundRace)>,
    found_kinds: BTreeSet<RaceKind>,
}

impl<'p> RaceCollector<'p> {
    fn new(view: &'p Program, attainable: &'p [RaceKind], early_exit: bool) -> RaceCollector<'p> {
        RaceCollector {
            view,
            detector: RaceDetector::for_program(view),
            attainable,
            early_exit,
            explored: 0,
            keys: BTreeSet::new(),
            races: Vec::new(),
            found_kinds: BTreeSet::new(),
        }
    }

    /// Can this collector's verdict still change? Once every attainable
    /// kind has a witness the answer is no.
    fn saturated(&self) -> bool {
        !self.attainable.is_empty() && self.attainable.iter().all(|k| self.found_kinds.contains(k))
    }
}

impl ExecutionVisitor for RaceCollector<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        let analysis = self.detector.analyze(e);
        for race in analysis.races() {
            let (ea, eb) = (&e.events[race.a], &e.events[race.b]);
            let mut pair = [(ea.tid, ea.iid), (eb.tid, eb.iid)];
            pair.sort_unstable();
            let key = (race.kind, pair[0], pair[1]);
            if self.keys.insert(key) {
                self.found_kinds.insert(race.kind);
                self.races.push((
                    key,
                    FoundRace {
                        exec_index: self.explored,
                        key,
                        description: format!(
                            "{}: {} between {} and {}",
                            self.view.name(),
                            race.kind,
                            crate::pretty::event_label(self.view, ea),
                            crate::pretty::event_label(self.view, eb),
                        ),
                        race,
                    },
                ));
            }
        }
        self.explored += 1;
        !(self.early_exit && self.saturated())
    }
}

/// Check `p` against `model` on the streaming pipeline, with explicit
/// options: sharded enumeration, partial-order reduction, parallel
/// workers and early exit. The report is deterministic — identical at
/// any `threads`. This is [`check_program_resilient`] with no
/// resilience options, for callers that want a verdict or an error.
///
/// # Errors
///
/// Returns [`EnumError`] if enumeration exceeds the configured limits.
///
/// # Panics
///
/// Re-raises the original panic of a shard that panicked on both its
/// try and its (reduction-backed-off) retry.
pub fn check_program_with(
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
) -> Result<CheckReport, EnumError> {
    let (out, lost_panic) = check_shards(p, model, opts, &CheckResilience::default());
    require_complete(out.status, lost_panic)?;
    Ok(out.report)
}

/// Resilience options for [`check_program_resilient`]. The budget
/// (deadline / cancel / memory cap) travels inside
/// [`CheckOptions::limits`] so the DFS hot loop can poll it.
#[derive(Debug, Clone, Default)]
pub struct CheckResilience {
    /// Deterministic fault injection (chaos testing only).
    pub fault_plan: Option<FaultPlan>,
}

/// Result of a resilient check: the (possibly partial) report plus how
/// the run ended.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// The merged report. Under [`RunStatus::Inconclusive`] or
    /// [`RunStatus::Degraded`] it covers the completed shards — a
    /// sound prefix: every listed race is real (races are only ever
    /// found by exploring real executions), but absence of races is
    /// not yet a verdict.
    pub report: CheckReport,
    /// How the run ended.
    pub status: RunStatus,
    /// Number of shards that completed.
    pub completed_shards: usize,
    /// Size of the deterministic shard plan.
    pub total_shards: usize,
}

impl CheckOutcome {
    /// Did every shard finish (report is exactly the non-resilient
    /// one)?
    pub fn is_complete(&self) -> bool {
        self.status.is_complete()
    }
}

/// [`check_program_with`], resilient: panic-isolated shards with one
/// retry (backing off [`Reduction::SleepSetMemo`] to
/// [`Reduction::SleepSet`]), cooperative budgets and deterministic
/// fault injection. Infallible — exhaustion comes back as
/// [`RunStatus::Inconclusive`], lost shards as [`RunStatus::Degraded`],
/// never an error or abort.
///
/// Determinism: with the same program, options and fault plan, the
/// merged report and status are identical at `threads: 1`; at higher
/// thread counts the *completed* prefix under a real budget trip
/// depends on timing, but every reported race is still drawn from the
/// same deterministic per-shard sets (prefix-soundness).
pub fn check_program_resilient(
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
    res: &CheckResilience,
) -> CheckOutcome {
    check_shards(p, model, opts, res).0
}

/// The one checker body, plus the lowest lost shard's panic for
/// [`check_program_with`] to re-raise.
fn check_shards(
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
    res: &CheckResilience,
) -> (CheckOutcome, Option<LostPanic>) {
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let attainable = attainable_kinds(&view);
    // More workers than cores is pure oversubscription: the shards are
    // CPU-bound and the report is worker-count-invariant, so extra
    // threads can only add scheduling overhead.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let run = visit_sc_resilient(
        &view,
        &opts.limits,
        quantum,
        opts.reduction,
        opts.threads.min(cores.max(1)),
        &|| RaceCollector::new(&view, &attainable, opts.early_exit),
        &|v: &RaceCollector| opts.early_exit && v.saturated(),
        res.fault_plan.as_ref(),
    );
    let completed_shards = run.shards.len();
    // Deterministic merge: shards in index order, races deduped by
    // static key, execution indices offset by prior shards' work — so
    // the report is identical at any thread count.
    let mut keys: BTreeSet<RaceKey> = BTreeSet::new();
    let mut races: Vec<FoundRace> = Vec::new();
    let mut offset = 0;
    for (v, stats) in run.shards {
        for (key, mut f) in v.races {
            if keys.insert(key) {
                f.exec_index += offset;
                races.push(f);
            }
        }
        offset += stats.explored;
    }
    let verdict = if races.is_empty() { Verdict::RaceFree } else { Verdict::Racy };
    let outcome = CheckOutcome {
        report: CheckReport {
            program: p.name().to_string(),
            model,
            executions: run.stats.explored,
            pruned: run.stats.pruned,
            memo_pruned: run.stats.memo_pruned,
            table_peak: run.stats.table_peak,
            quantum_transformed: quantum,
            races,
            verdict,
        },
        status: run.status,
        completed_shards,
        total_shards: run.total_shards,
    };
    (outcome, run.lost_panic)
}

/// Check `p` against `model` with explicit limits on the default
/// streaming pipeline (POR on, early exit on, single worker).
///
/// # Errors
///
/// Returns [`EnumError`] if enumeration exceeds the configured limits.
pub fn try_check_program(
    p: &Program,
    model: MemoryModel,
    limits: &EnumLimits,
) -> Result<CheckReport, EnumError> {
    check_program_with(
        p,
        model,
        &CheckOptions { limits: limits.clone(), ..CheckOptions::default() },
    )
}

/// The retained materializing reference checker: enumerate **every** SC
/// execution into a `Vec`, then analyze the vector. Differential tests
/// and the checker benchmark compare the streaming pipeline against
/// this; new code should use [`check_program_with`].
///
/// # Errors
///
/// Returns [`EnumError`] if enumeration exceeds the configured limits.
pub fn check_program_reference(
    p: &Program,
    model: MemoryModel,
    limits: &EnumLimits,
) -> Result<CheckReport, EnumError> {
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let execs: Vec<Execution> =
        if quantum { enumerate_sc_quantum(&view, limits)? } else { enumerate_sc(&view, limits)? };
    let attainable = attainable_kinds(&view);
    let mut collector = RaceCollector::new(&view, &attainable, false);
    for e in &execs {
        collector.visit(e);
    }
    let races = collector.races.into_iter().map(|(_, f)| f).collect::<Vec<_>>();
    let verdict = if races.is_empty() { Verdict::RaceFree } else { Verdict::Racy };
    Ok(CheckReport {
        program: p.name().to_string(),
        model,
        executions: execs.len(),
        pruned: 0,
        memo_pruned: 0,
        table_peak: 0,
        quantum_transformed: quantum,
        races,
        verdict,
    })
}

/// Check `p` against `model` with default limits.
///
/// # Panics
///
/// Panics if enumeration exceeds the default execution limit; use
/// [`try_check_program`] to control limits and handle the error.
pub fn check_program(p: &Program, model: MemoryModel) -> CheckReport {
    try_check_program(p, model, &EnumLimits::default())
        .expect("SC enumeration exceeded default limits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RmwOp;

    /// Event counter (Listing 2, reduced): racy commutative increments.
    fn event_counter() -> Program {
        let mut p = Program::new("event_counter");
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        p.build()
    }

    #[test]
    fn event_counter_fails_drf0_and_drf1_as_relaxed() {
        // Viewed as DRF0/DRF1 the increments become paired/unpaired
        // atomics — atomics may race, so the program is legal under
        // those models too (just slower on hardware). The interesting
        // contrast is with a *data*-annotated version.
        assert!(check_program(&event_counter(), MemoryModel::Drf0).is_race_free());
        assert!(check_program(&event_counter(), MemoryModel::Drf1).is_race_free());
        assert!(check_program(&event_counter(), MemoryModel::Drfrlx).is_race_free());
    }

    #[test]
    fn data_annotated_counter_is_racy_under_every_model() {
        let mut p = Program::new("data_counter");
        p.thread().rmw(OpClass::Data, "c", RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Data, "c", RmwOp::FetchAdd, 1);
        let p = p.build();
        for model in MemoryModel::ALL {
            let r = check_program(&p, model);
            assert!(!r.is_race_free(), "{model} must flag the data race");
            assert!(r.has_race_kind(RaceKind::Data));
        }
    }

    #[test]
    fn quantum_program_is_checked_on_equivalent_program() {
        let mut p = Program::new("split_counter_read");
        p.thread().rmw(OpClass::Quantum, "c0", RmwOp::FetchAdd, 1);
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Quantum, "c0");
            t.observe(r);
        }
        let r = check_program(&p.build(), MemoryModel::Drfrlx);
        assert!(r.quantum_transformed);
        assert!(r.is_race_free());
    }

    #[test]
    fn report_metadata_is_populated() {
        let r = check_program(&event_counter(), MemoryModel::Drfrlx);
        assert_eq!(r.program, "event_counter");
        assert_eq!(r.model, MemoryModel::Drfrlx);
        assert_eq!(r.executions, 2);
        assert!(!r.quantum_transformed);
        assert!(r.race_kinds().is_empty());
    }

    #[test]
    fn mislabeled_commutative_exchange_flagged_only_by_drfrlx() {
        // DRF0/DRF1 view the exchanges as paired/unpaired atomics —
        // legal. DRFrlx checks the commutative contract and rejects.
        let mut p = Program::new("bad_comm");
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::Exchange, 5);
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        let p = p.build();
        assert!(check_program(&p, MemoryModel::Drf0).is_race_free());
        assert!(check_program(&p, MemoryModel::Drf1).is_race_free());
        let r = check_program(&p, MemoryModel::Drfrlx);
        assert!(r.has_race_kind(RaceKind::Commutative));
    }

    #[test]
    fn streaming_agrees_with_reference_on_every_model() {
        let mut p = Program::new("mixed");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 1);
            t.store(OpClass::Unpaired, "f", 1);
        }
        {
            let mut t = p.thread();
            let f = t.load(OpClass::Unpaired, "f");
            t.observe(f);
            let d = t.load(OpClass::Data, "x");
            t.observe(d);
        }
        let p = p.build();
        let limits = EnumLimits::default();
        for model in MemoryModel::ALL {
            let reference = check_program_reference(&p, model, &limits).unwrap();
            for threads in [1usize, 4] {
                let opts = CheckOptions { threads, ..CheckOptions::default() };
                let streamed = check_program_with(&p, model, &opts).unwrap();
                assert_eq!(streamed.verdict, reference.verdict, "{model} t={threads}");
                assert_eq!(streamed.race_kinds(), reference.race_kinds(), "{model} t={threads}");
                assert_eq!(
                    streamed.races.is_empty(),
                    reference.races.is_empty(),
                    "{model} t={threads}"
                );
            }
        }
    }

    #[test]
    fn early_exit_stops_after_saturation() {
        // Data-only program: the data race saturates the attainable
        // kinds on the first racy execution.
        let mut p = Program::new("dd");
        p.thread().store(OpClass::Data, "x", 1);
        p.thread().store(OpClass::Data, "x", 2);
        let p = p.build();
        let eager = check_program_with(&p, MemoryModel::Drfrlx, &CheckOptions::default()).unwrap();
        assert!(!eager.is_race_free());
        let full = check_program_with(
            &p,
            MemoryModel::Drfrlx,
            &CheckOptions { early_exit: false, ..CheckOptions::default() },
        )
        .unwrap();
        assert!(eager.executions <= full.executions);
        assert_eq!(eager.race_kinds(), full.race_kinds());
    }
}
