//! SC-execution enumeration — the streaming checker pipeline.
//!
//! The enumerator walks an explicit interleaving tree with a **single
//! mutable `SearchState`** and an undo journal: each step pushes its
//! effects (thread state, memory, events, dependency edges) and pops
//! them on backtrack. Completed executions are fed, one at a time, to an
//! [`ExecutionVisitor`] — nothing is materialized on the default path.
//! The resulting [`Execution`]s carry the relations Herd models are
//! phrased over (`po`, `rf`, `co`, `fr`, dependency relations), ready
//! for the race detectors in [`crate::races`].
//!
//! Three layers compose:
//!
//! 1. [`visit_sc`] — the streaming DFS itself. A tree node's work does
//!    not grow with the events already performed: the DFS carries the
//!    event list, and since event ids follow the SC order, `po`, `rf`,
//!    `co` and `fr` are functions of that list alone (Herding Cats'
//!    candidate-execution view, `fr = rf⁻¹;co`), derived once per
//!    emitted execution. Only the dependency relations are kept
//!    incrementally, and only the thread that moved is drained.
//! 2. [`Reduction::SleepSet`] — sound partial-order reduction: two
//!    pending steps commute when they touch different locations or are
//!    both reads, so only one order of each commuting pair is explored;
//!    skipped subtrees are counted in [`EnumStats::pruned`].
//! 3. [`visit_sc_resilient`] — the top levels of the tree are split
//!    into independent shard jobs run on the shared
//!    [`crate::resilience::Pool`] (atomic job index, one result slot
//!    per shard, panic isolation with one retry, budget polls), and
//!    results merge in shard order. The shard set is independent of the
//!    thread count, so explored/pruned counts and visitor results are
//!    byte-identical at any `--threads`. [`visit_sc_sharded`] is the
//!    same run with default [`Resilience`] options, mapped back to a
//!    `Result`.
//!
//! [`enumerate_sc`] / [`enumerate_sc_quantum`] survive as collect()
//! visitors over the exhaustive (unreduced) walk — the materializing
//! reference the differential tests compare against.
//!
//! When a *quantum domain* is supplied (the quantum transformation of
//! §3.4.3), quantum loads do not read memory: they are replaced by a
//! conceptual `random()` that is enumerated over the domain, and quantum
//! RMWs degrade to quantum stores. This produces executions of the
//! *quantum-equivalent program* P<sub>q</sub>.

use crate::classes::OpClass;
use crate::fingerprint::{mix64, step, Fingerprint, FingerprintTable};
use crate::program::{Expr, Instr, Loc, Program, Reg, Value};
use crate::relation::Relation;
use crate::resilience::{
    require_complete, Budget, EngineId, ExhaustReason, LostPanic, Pool, Resilience, RunStatus,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Kind of dynamic memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write (reads and writes in one event,
    /// per the paper's footnote 1).
    Rmw,
}

impl Access {
    /// Does the event read memory?
    pub fn reads(self) -> bool {
        matches!(self, Access::Read | Access::Rmw)
    }

    /// Does the event write memory?
    pub fn writes(self) -> bool {
        matches!(self, Access::Write | Access::Rmw)
    }
}

/// The write function an event applies to its location, used to decide
/// pairwise commutativity (paper §3.2.3: two writes commute iff
/// performing them in either order yields the same final value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFn {
    /// Overwrite with a constant (plain store / exchange).
    Set(Value),
    /// `old + k` (fetch_add / fetch_sub with negated operand).
    Add(Value),
    /// `old & k`.
    And(Value),
    /// `old | k`.
    Or(Value),
    /// `old ^ k`.
    Xor(Value),
    /// `min(old, k)`.
    Min(Value),
    /// `max(old, k)`.
    Max(Value),
    /// Compare-and-swap — order-sensitive in general.
    Cas,
}

impl WriteFn {
    /// Exact pairwise commutativity for the function families litmus
    /// programs use. `f.commutes_with(g)` iff `f∘g == g∘f` on all
    /// values.
    pub fn commutes_with(self, other: WriteFn) -> bool {
        use WriteFn::*;
        match (self, other) {
            (Add(_), Add(_)) => true,
            (And(_), And(_)) => true,
            (Or(_), Or(_)) => true,
            (Xor(_), Xor(_)) => true,
            (Min(_), Min(_)) => true,
            (Max(_), Max(_)) => true,
            // Two overwrites commute only when they write the same value.
            (Set(a), Set(b)) => a == b,
            // Idempotent-compatible mixed cases are deliberately not
            // special-cased; CAS is order-sensitive.
            _ => false,
        }
    }

    /// A nonzero tag per function family, and the operand (0 for CAS):
    /// the function as two words for fingerprints.
    pub(crate) fn parts(self) -> (u64, Value) {
        match self {
            WriteFn::Set(v) => (1, v),
            WriteFn::Add(v) => (2, v),
            WriteFn::And(v) => (3, v),
            WriteFn::Or(v) => (4, v),
            WriteFn::Xor(v) => (5, v),
            WriteFn::Min(v) => (6, v),
            WriteFn::Max(v) => (7, v),
            WriteFn::Cas => (8, 0),
        }
    }
}

/// A dynamic memory event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Dense event id, indexing the execution's relations. Ids are
    /// assigned in the order events are performed, so they follow the
    /// SC total order `T` (see [`Execution::order`]).
    pub id: usize,
    /// Issuing thread.
    pub tid: usize,
    /// Index of the instruction within the thread.
    pub iid: usize,
    /// Annotated class.
    pub class: OpClass,
    /// Accessed location.
    pub loc: Loc,
    /// Read/write/RMW.
    pub access: Access,
    /// Value read (reads and RMWs).
    pub rval: Option<Value>,
    /// Value written (writes and RMWs).
    pub wval: Option<Value>,
    /// Write function for commutativity analysis (writes and RMWs).
    pub write_fn: Option<WriteFn>,
}

/// The "result" of an execution (paper §3.2.2: the memory state at the
/// end of the execution; register files are kept as well for
/// litmus-style assertions and for comparing against the relaxed
/// machine).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ExecResult {
    /// Final value of every location.
    pub memory: BTreeMap<Loc, Value>,
    /// Final register file of every thread.
    pub regs: Vec<BTreeMap<Reg, Value>>,
}

/// One SC execution with its relations.
#[derive(Debug, Clone)]
pub struct Execution {
    /// Dynamic events, indexed by id.
    pub events: Vec<Event>,
    /// Event ids in SC total order `T`. An event's id is its position
    /// in `T` (`order[i] == i`): the enumerator assigns `id =
    /// events.len()` when it performs the event. Every `po`, `so1` and
    /// barrier edge therefore points from a lower id to a higher one,
    /// which the race analysis ([`crate::races`]) relies on to close
    /// `hb1` in a single backward pass.
    pub order: Vec<usize>,
    /// Final memory + registers.
    pub result: ExecResult,
    /// Program order (transitive).
    pub po: Relation,
    /// Reads-from: source write → read.
    pub rf: Relation,
    /// Coherence order: earlier write → later write, same location
    /// (transitive).
    pub co: Relation,
    /// From-read: read → write co-after the read's source.
    pub fr: Relation,
    /// Data dependency: load/RMW → event using its value.
    pub data_dep: Relation,
    /// Address dependency (always empty for static-address litmus
    /// programs; present for Herd parity).
    pub addr_dep: Relation,
    /// Control dependency: load/RMW → memory event after a dependent
    /// branch.
    pub ctrl_dep: Relation,
    /// Events whose loaded value is observed via [`Instr::Observe`].
    pub observed: Vec<bool>,
    /// Barrier release watermarks: one entry per released block
    /// [`Instr::Barrier`] rendezvous, holding the event count at the
    /// moment of release. Every event with `id < cut` is
    /// synchronized-before every event with `id >= cut` — the pipeline
    /// requires every thread to execute the same number of barriers, so
    /// each release is a full rendezvous of all threads.
    pub barrier_cuts: Vec<usize>,
}

impl Execution {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Herd's `(addr | data | ctrl)` observability relation, extended
    /// with [`Instr::Observe`] sinks encoded as self-loops removed; use
    /// [`Execution::value_observed`] for the flag.
    pub fn obs_dep(&self) -> Relation {
        self.addr_dep.union(&self.data_dep).union(&self.ctrl_dep)
    }

    /// Is the value loaded by event `e` used by another instruction in
    /// its thread (dependency into a later access, or an explicit
    /// observe marker)?
    pub fn value_observed(&self, e: usize) -> bool {
        let nonempty = |r: &Relation| r.row(e).iter().any(|&w| w != 0);
        self.observed[e] || nonempty(&self.data_dep) || nonempty(&self.addr_dep)
    }

    /// The communication relation `rf | fr | co`.
    pub fn com(&self) -> Relation {
        self.rf.union(&self.fr).union(&self.co)
    }

    /// Events of a class, as a membership vector (for
    /// [`Relation::product`]).
    pub fn class_set(&self, pred: impl Fn(&Event) -> bool) -> Vec<bool> {
        self.events.iter().map(pred).collect()
    }
}

/// Limits and options for enumeration. A run's deadline and cancel
/// flag are not limits of the walk: they travel in the
/// [`Resilience`] options of [`visit_sc_resilient`], whose DFS polls
/// them amortized.
#[derive(Debug, Clone)]
pub struct EnumLimits {
    /// Abort after this many complete executions.
    pub max_executions: usize,
    /// Values a quantum `random()` may take, when enumerating the
    /// quantum-equivalent program. Ignored by [`enumerate_sc`]; used by
    /// [`enumerate_sc_quantum`].
    pub quantum_domain: Vec<Value>,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits { max_executions: 250_000, quantum_domain: vec![0, 1, JUNK] }
    }
}

/// A recognizable "could be anything" value for quantum randomness.
pub const JUNK: Value = 0x0BAD_F00D;

/// Enumeration failure: the resilience layer's [`ExhaustReason`] —
/// the execution limit, or a budget's deadline or cancel flag.
pub type EnumError = ExhaustReason;

/// A streaming consumer of completed SC executions.
///
/// The enumerator calls [`ExecutionVisitor::visit`] once per completed
/// execution, in DFS order, passing a borrowed `Execution` that is torn
/// down when the call returns. Return `false` to stop the enumeration
/// (or, under sharding, the current shard) early — e.g. a race checker
/// whose verdict can no longer change.
pub trait ExecutionVisitor {
    /// Consume one execution; `false` stops the (shard's) enumeration.
    fn visit(&mut self, e: &Execution) -> bool;
}

/// Search-space pruning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduction {
    /// Visit every SC interleaving — the materializing-era reference
    /// behavior, kept for differential testing.
    Exhaustive,
    /// Sleep-set partial-order reduction: of two adjacent steps that
    /// touch different locations or are both reads, only one order is
    /// explored. Sound for race verdicts, race kinds and final-memory
    /// result sets (see DESIGN.md "Checker pipeline").
    SleepSet,
    /// Sleep sets plus duplicate-state memoization: a canonical
    /// fingerprint of the search state is kept in an open-addressing
    /// visited table, and a subtree is skipped when an equivalent state
    /// was already explored under a no-more-restrictive sleep set
    /// (Godefroid's state-caching rule). The fingerprint is
    /// *checker-grade*: it abstracts dead registers and (when the
    /// program uses no acquire/release/non-ordering atomics) collapses
    /// coherence orders the race detectors cannot distinguish, so
    /// verdicts and race keys are preserved but per-execution
    /// observables (e.g. which witness is reported first) may differ
    /// from [`Reduction::SleepSet`]. See DESIGN.md "Checker pipeline".
    SleepSetMemo,
}

/// Explored/pruned counts from one enumeration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Complete executions handed to the visitor.
    pub explored: usize,
    /// Subtrees skipped by partial-order reduction (count of pruned
    /// scheduling choices, not of executions under them).
    pub pruned: usize,
    /// Subtrees skipped because an equivalent state had already been
    /// explored ([`Reduction::SleepSetMemo`] only).
    pub memo_pruned: usize,
    /// Peak occupancy of the memoization table (max across shards).
    pub table_peak: usize,
}

impl EnumStats {
    /// Accumulate another enumeration's counts.
    pub fn absorb(&mut self, other: EnumStats) {
        self.explored += other.explored;
        self.pruned += other.pruned;
        self.memo_pruned += other.memo_pruned;
        self.table_peak = self.table_peak.max(other.table_peak);
    }
}

/// Enumerate all SC executions of `p`.
///
/// Equivalent to [`visit_sc`] with [`Reduction::Exhaustive`] and a
/// collecting visitor — the materializing reference path.
///
/// # Errors
///
/// Returns [`ExhaustReason::Executions`] if the interleaving count
/// exceeds the limit.
pub fn enumerate_sc(p: &Program, limits: &EnumLimits) -> Result<Vec<Execution>, EnumError> {
    let mut c = Collect::default();
    visit_sc(p, limits, false, Reduction::Exhaustive, &mut c)?;
    Ok(c.0)
}

/// Enumerate all SC executions of the *quantum-equivalent program*
/// P<sub>q</sub> of `p` (paper §3.4.3): quantum loads return every value
/// in [`EnumLimits::quantum_domain`], quantum stores/RMWs write their
/// computed value but quantum RMW loads are likewise randomized.
///
/// # Errors
///
/// Returns [`ExhaustReason::Executions`] if the execution count
/// exceeds the limit.
pub fn enumerate_sc_quantum(p: &Program, limits: &EnumLimits) -> Result<Vec<Execution>, EnumError> {
    let mut c = Collect::default();
    visit_sc(p, limits, true, Reduction::Exhaustive, &mut c)?;
    Ok(c.0)
}

/// The collecting visitor behind [`enumerate_sc`].
#[derive(Default)]
struct Collect(Vec<Execution>);

impl ExecutionVisitor for Collect {
    fn visit(&mut self, e: &Execution) -> bool {
        self.0.push(e.clone());
        true
    }
}

/// Stream every SC execution of `p` (or of P<sub>q</sub> when
/// `quantum`) to `visitor`, in DFS order.
///
/// # Errors
///
/// Returns [`ExhaustReason::Executions`] if the execution count
/// exceeds the limit.
pub fn visit_sc(
    p: &Program,
    limits: &EnumLimits,
    quantum: bool,
    reduction: Reduction,
    visitor: &mut dyn ExecutionVisitor,
) -> Result<EnumStats, EnumError> {
    let root = Shard { st: SearchState::new(p), sleep: 0 };
    run_shard(p, limits, None, quantum, reduction, root, visitor, &AtomicUsize::new(0))
}

/// Execution budget for the sharding probe: before cutting the tree
/// into shard jobs, the whole tree is walked serially with the real
/// visitor under this cap. Small interleaving trees finish inside the
/// probe and skip sharding entirely — no frontier collection, no
/// snapshot clones, no per-shard visitors; larger trees abandon the
/// probe and shard with a fresh budget.
const PROBE_BUDGET: usize = 512;

/// Bounds for [`shard_target`].
const SHARD_TARGET_MIN: usize = 64;
const SHARD_TARGET_MAX: usize = 256;

/// How many frontier jobs the shard collector aims for: scaled with the
/// program's memory-instruction count (bigger trees benefit from finer
/// load balancing), clamped so the litmus corpus keeps its established
/// shard sets. A function of the program and nothing else — never of
/// the thread count — so the shard set, and therefore the merged result
/// and the explored/pruned split, is identical at any `--threads`.
fn shard_target(p: &Program) -> usize {
    (p.memory_op_count() * 4).clamp(SHARD_TARGET_MIN, SHARD_TARGET_MAX)
}

/// Deepest frontier cut considered.
const SHARD_MAX_DEPTH: usize = 6;

/// Stream executions to per-shard visitors, in parallel:
/// [`visit_sc_resilient`] with default [`Resilience`] options, for
/// callers that want the full result or an error. On success the run's
/// status is [`RunStatus::Complete`].
///
/// # Errors
///
/// Returns [`ExhaustReason::Executions`] when the executions
/// explored across all shards (a shared counter) exceed the limit.
///
/// # Panics
///
/// Re-raises the original panic of the lowest shard that panicked on
/// both its try and its retry.
pub fn visit_sc_sharded<V: ExecutionVisitor + Send>(
    p: &Program,
    limits: &EnumLimits,
    quantum: bool,
    reduction: Reduction,
    threads: usize,
    make: &(dyn Fn() -> V + Sync),
    saturated: &(dyn Fn(&V) -> bool + Sync),
) -> Result<ResilientRun<V>, EnumError> {
    let res = Resilience::default();
    let mut run = visit_sc_resilient(p, limits, quantum, reduction, threads, make, saturated, &res);
    require_complete(&run.status, run.lost_panic.take())?;
    Ok(run)
}

/// One frontier job: a search-state snapshot plus the sleep set it was
/// captured under.
#[derive(Clone)]
struct Shard {
    st: SearchState,
    sleep: u64,
}

/// Cut the top of the interleaving tree into shard jobs, deepening the
/// cut until [`shard_target`] jobs exist (or the tree runs out).
/// Returns the jobs in DFS order plus the scheduling choices pruned at
/// frontier levels.
///
/// The cut deepens *incrementally*: each round expands every
/// non-terminal frontier node by one scheduling level from its own
/// snapshot, instead of re-walking the whole tree from the root per
/// depth. Terminal nodes pass through unchanged — exactly what a
/// deeper cut would leave them as — so the resulting shard list and
/// pruned accounting match the restart-per-depth collector.
fn collect_frontier(
    p: &Program,
    limits: &EnumLimits,
    quantum: bool,
    reduction: Reduction,
) -> (Vec<Shard>, usize) {
    let target = shard_target(p);
    let counter = AtomicUsize::new(0);
    let mut pruned = 0;
    // Depth-0 frontier: the root node (post-drain, post quantum-load
    // closure), cut before any scheduling choice.
    let mut shards = {
        let mut sink = Sink;
        let st = SearchState::new(p);
        let mut eng =
            Engine::new(p, limits, None, quantum, reduction, &mut sink, &counter, Some(0), st);
        eng.root(0).expect("frontier collection emits no executions");
        pruned += eng.stats.pruned;
        std::mem::take(&mut eng.shards)
    };
    for _ in 0..SHARD_MAX_DEPTH {
        if shards.len() >= target {
            break;
        }
        let mut next = Vec::with_capacity(shards.len());
        let mut grew = false;
        for shard in shards {
            if shard_is_terminal(p, &shard.st) {
                next.push(shard);
                continue;
            }
            grew = true;
            let mut sink = Sink;
            let mut eng = Engine::new(
                p,
                limits,
                None,
                quantum,
                reduction,
                &mut sink,
                &counter,
                Some(1),
                shard.st,
            );
            eng.root(shard.sleep).expect("frontier collection emits no executions");
            pruned += eng.stats.pruned;
            next.append(&mut eng.shards);
        }
        shards = next;
        if !grew {
            break;
        }
    }
    (shards, pruned)
}

/// Has every thread of the shard's snapshot run to completion?
fn shard_is_terminal(p: &Program, st: &SearchState) -> bool {
    st.threads.iter().enumerate().all(|(tid, t)| t.pc >= p.threads()[tid].instrs.len())
}

/// Visitor for passes that never emit (frontier collection).
struct Sink;

impl ExecutionVisitor for Sink {
    fn visit(&mut self, _e: &Execution) -> bool {
        unreachable!("frontier collection does not complete executions")
    }
}

/// Walk the tree below `shard`, polling `budget` (when present) and
/// counting executions on `counter`.
#[allow(clippy::too_many_arguments)] // the walk's inputs plus its start state
fn run_shard(
    p: &Program,
    limits: &EnumLimits,
    budget: Option<&Budget>,
    quantum: bool,
    reduction: Reduction,
    shard: Shard,
    visitor: &mut dyn ExecutionVisitor,
    counter: &AtomicUsize,
) -> Result<EnumStats, EnumError> {
    let mut eng =
        Engine::new(p, limits, budget, quantum, reduction, visitor, counter, None, shard.st);
    eng.root(shard.sleep)?;
    Ok(eng.stats)
}

/// Result of a sharded enumeration ([`visit_sc_resilient`],
/// [`visit_sc_sharded`]).
pub struct ResilientRun<V> {
    /// `(visitor, stats)` for every completed shard, in shard-index
    /// (DFS frontier) order. When early exit cut the run short, shards
    /// past the cutoff are absent.
    pub shards: Vec<(V, EnumStats)>,
    /// Aggregate over the completed shards, frontier-level pruning
    /// included.
    pub stats: EnumStats,
    /// How the run ended. [`RunStatus::Inconclusive`]'s frontier is
    /// the shard indices that did not finish.
    pub status: RunStatus,
    /// Did the saturation predicate cut the run short?
    pub early_exit: bool,
    /// Size of the deterministic shard plan (1 when the serial probe
    /// finished the whole tree).
    pub total_shards: usize,
    /// The lowest lost shard's panic, which the callers that take no
    /// resilience options re-raise through [`require_complete`].
    pub lost_panic: Option<LostPanic>,
}

/// Stream executions to per-shard visitors, in parallel and
/// resiliently: panic isolation with one retry, the cooperative
/// `res.budget` and deterministic fault injection (`res.fault_plan`,
/// chaos testing only).
/// Infallible — exhaustion and lost shards come back as
/// [`RunStatus::Inconclusive`] / [`RunStatus::Degraded`].
///
/// A serial probe with the real visitor runs first under a
/// `PROBE_BUDGET`-execution cap: small trees complete inside it and
/// that run *is* the result (sharding a 6-interleaving litmus test
/// costs more than enumerating it). Otherwise the top levels of the
/// tree are cut into `shard_target`-ish independent jobs (state
/// snapshot + sleep set), collected in DFS order, and run on the
/// [`Pool`]; results come back in shard order. Both the probe decision
/// and the shard plan depend only on the program and limits, so the
/// outcome is independent of `threads` and of scheduling.
///
/// `make` creates one fresh visitor per shard; `saturated` returns
/// `true` when a finished shard's visitor alone proves the final
/// answer can no longer change (e.g. every attainable race kind was
/// found). The result is then shards `0..=cutoff`, where `cutoff` is
/// the *smallest* saturating shard index — the pool's deterministic
/// early-exit rule.
///
/// A failed shard is retried once, backing off
/// [`Reduction::SleepSetMemo`] to the coarser [`Reduction::SleepSet`],
/// and is reported lost if the retry fails too. A budget trip (shared
/// execution counter, deadline, cancel) stops the run:
/// completed shards are kept — a sound prefix, since every race was
/// found by exploring real executions — and the rest become the
/// frontier.
#[allow(clippy::too_many_arguments)] // visit_sc_sharded's signature + resilience options
pub fn visit_sc_resilient<V: ExecutionVisitor + Send>(
    p: &Program,
    limits: &EnumLimits,
    quantum: bool,
    reduction: Reduction,
    threads: usize,
    make: &(dyn Fn() -> V + Sync),
    saturated: &(dyn Fn(&V) -> bool + Sync),
    res: &Resilience,
) -> ResilientRun<V> {
    // Adaptive fast path: probe the tree serially with a tight budget.
    // On any failure — tree bigger than the probe budget, a budget
    // trip, even a panic — fall through to the sharded path, which
    // isolates and classifies all three per shard. The probe draws no
    // faults.
    let budget = res.budget.as_deref();
    let probe_limits =
        EnumLimits { max_executions: PROBE_BUDGET.min(limits.max_executions), ..limits.clone() };
    let root = Shard { st: SearchState::new(p), sleep: 0 };
    let mut probe = make();
    let outcome = Pool::new(EngineId::Checker, 1, &Resilience::default()).attempt(0, 0, || {
        let probed = AtomicUsize::new(0);
        run_shard(p, &probe_limits, budget, quantum, reduction, root, &mut probe, &probed)
    });
    if let Ok(Ok(stats)) = outcome {
        let early_exit = saturated(&probe);
        return ResilientRun {
            shards: vec![(probe, stats)],
            stats,
            status: RunStatus::Complete,
            early_exit,
            total_shards: 1,
            lost_panic: None,
        };
    }

    let (plan, frontier_pruned) = collect_frontier(p, limits, quantum, reduction);
    let counter = AtomicUsize::new(0);
    let backoff = match reduction {
        Reduction::SleepSetMemo => Reduction::SleepSet,
        r => r,
    };
    let run = Pool::new(EngineId::Checker, threads, res).run(
        plan.len(),
        |j, attempt| {
            let red = if attempt == 0 { reduction } else { backoff };
            let mut v = make();
            let shard = plan[j].clone();
            run_shard(p, limits, budget, quantum, red, shard, &mut v, &counter).map(|s| (v, s))
        },
        |(v, _): &(V, EnumStats)| saturated(v),
    );
    let shards: Vec<(V, EnumStats)> = run.results.into_iter().flatten().collect();
    let mut stats = EnumStats { pruned: frontier_pruned, ..EnumStats::default() };
    for (_, s) in &shards {
        stats.absorb(*s);
    }
    ResilientRun {
        shards,
        stats,
        status: run.status,
        early_exit: run.cutoff.is_some(),
        total_shards: plan.len(),
        lost_panic: run.lost_panic,
    }
}

/// Small set of dynamic event ids with inline storage — taint and ctrl
/// sets hold a handful of loads in practice, so the hot loop never
/// allocates for them. Insertion order is preserved and [`IdSet::pop`]
/// removes the most recent insertion (the undo journal relies on LIFO).
#[derive(Clone, Debug, Default)]
struct IdSet {
    inline_len: u8,
    inline: [u32; IDSET_INLINE],
    spill: Vec<u32>,
}

const IDSET_INLINE: usize = 6;

impl IdSet {
    fn clear(&mut self) {
        self.inline_len = 0;
        self.spill.clear();
    }

    fn contains(&self, id: u32) -> bool {
        self.inline[..self.inline_len as usize].contains(&id) || self.spill.contains(&id)
    }

    /// Insert; returns `true` if the id was new.
    fn insert(&mut self, id: u32) -> bool {
        if self.contains(id) {
            return false;
        }
        if (self.inline_len as usize) < IDSET_INLINE && self.spill.is_empty() {
            self.inline[self.inline_len as usize] = id;
            self.inline_len += 1;
        } else {
            self.spill.push(id);
        }
        true
    }

    /// Remove and return the most recently inserted id.
    fn pop(&mut self) -> Option<u32> {
        if let Some(v) = self.spill.pop() {
            return Some(v);
        }
        if self.inline_len > 0 {
            self.inline_len -= 1;
            return Some(self.inline[self.inline_len as usize]);
        }
        None
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.inline[..self.inline_len as usize].iter().copied().chain(self.spill.iter().copied())
    }

    fn extend_from(&mut self, other: &IdSet) {
        for id in other.iter() {
            self.insert(id);
        }
    }
}

#[derive(Clone)]
struct ThreadState {
    pc: usize,
    /// Dense register file; `None` = never written (expressions read 0).
    regs: Vec<Option<Value>>,
    /// Per register: the load events whose values flow in.
    taint: Vec<IdSet>,
    /// Loads feeding branch conditions seen so far (ctrl sources).
    ctrl: IdSet,
}

/// The single mutable search state. Everything is dense — memory and
/// the per-location side lists index by `Loc.0`, observed flags and
/// memo terms by event id — so the hot loop is map-free. `po`, `rf`,
/// `co` and `fr` are not kept here: [`derive_relations`] builds them
/// from the event list when an execution completes.
#[derive(Clone)]
struct SearchState {
    threads: Vec<ThreadState>,
    /// Memory by `Loc.0`.
    memory: Vec<Value>,
    /// Performed events; an event's id is its index (the SC order).
    events: Vec<Event>,
    /// Observed flags by event id (carrier-sized).
    observed: Vec<bool>,
    /// Dependency relations over the program's carrier; a completed
    /// execution takes their prefix restriction.
    data_dep: Relation,
    ctrl_dep: Relation,
    /// Block-shared scratch memory: address → (value, taint — the load
    /// events whose values flowed into the stored value). Scratch
    /// accesses are local-deterministic under the pipeline's scratch
    /// discipline (cross-thread same-slot accesses must be
    /// barrier-separated), so they drain like register ops and never
    /// become events.
    scratch: BTreeMap<Value, (Value, IdSet)>,
    /// Barriers completed per thread.
    bdone: Vec<u32>,
    /// Event-count watermarks of released barriers (see
    /// [`Execution::barrier_cuts`]).
    barrier_cuts: Vec<usize>,
    /// Memoization bookkeeping, maintained under
    /// [`Reduction::SleepSetMemo`] only (see [`Engine::fingerprint`]).
    /// Per location: a commutative rolling hash over the *static
    /// labels* of past release-side writes — the `so1`-relevant history
    /// an acquire-side read can synchronize with.
    rel_hash: Vec<u64>,
    /// Per event id: `mix64` of the event's static label. Overwritten on
    /// id reuse; no undo entry needed.
    lmix: Vec<u64>,
    /// Per event id: the event's term of the fingerprint's event
    /// multiset, fixed when the event is performed.
    term: Vec<u64>,
    /// Sum of `term` over the performed events.
    eh: u64,
    /// Sum of `lmix` over the observed events.
    oh: u64,
    /// Per thread: one prefix hash of its static-label sequence per
    /// performed event (pins `po` and the thread's instruction path).
    thread_h: Vec<Vec<u64>>,
    /// Per location, in exact mode only: `(write id, prefix hash of the
    /// coherence-order label sequence through it)` per write.
    writes: Vec<Vec<(u32, u64)>>,
}

impl SearchState {
    /// The state before any step: pcs at 0, memory at its initial
    /// values, no events.
    fn new(p: &Program) -> SearchState {
        let cap = carrier(p);
        let nlocs = p.num_locs();
        SearchState {
            threads: p
                .threads()
                .iter()
                .map(|t| {
                    let nregs = reg_count(&t.instrs);
                    ThreadState {
                        pc: 0,
                        regs: vec![None; nregs],
                        taint: vec![IdSet::default(); nregs],
                        ctrl: IdSet::default(),
                    }
                })
                .collect(),
            memory: (0..nlocs as u32).map(|l| p.init_value(Loc(l))).collect(),
            events: Vec::with_capacity(cap),
            observed: vec![false; cap],
            data_dep: Relation::empty(cap),
            ctrl_dep: Relation::empty(cap),
            scratch: BTreeMap::new(),
            bdone: vec![0; p.threads().len()],
            barrier_cuts: Vec::new(),
            rel_hash: vec![0; nlocs],
            lmix: vec![0; cap],
            term: vec![0; cap],
            eh: 0,
            oh: 0,
            thread_h: vec![Vec::new(); p.threads().len()],
            writes: vec![Vec::new(); nlocs],
        }
    }
}

/// Carrier bound: every memory instruction runs at most once (pcs only
/// move forward), and the quantum transformation never adds events.
fn carrier(p: &Program) -> usize {
    p.threads().iter().flat_map(|t| &t.instrs).filter(|i| i.is_memory()).count()
}

/// Which dependency relation an undo-journal edge belongs to.
#[derive(Clone, Copy)]
enum RelId {
    Data,
    Ctrl,
}

/// One entry of the undo journal. A tree node records the journal
/// length on entry (a watermark) and backtracking pops entries down to
/// it, inverting each — no per-node collections, no thread-state
/// clones, no allocation on the hot path. Entries whose old value is
/// large keep it on a side stack popped in the same LIFO order.
enum Undo {
    Pc {
        tid: u32,
        old: u32,
    },
    Reg {
        tid: u32,
        reg: u32,
        old: Option<Value>,
    },
    /// The register's previous taint set is on the taint side stack.
    Taint {
        tid: u32,
        reg: u32,
    },
    /// One id was appended to the thread's ctrl set (LIFO pop undoes).
    CtrlAdd {
        tid: u32,
    },
    Observed {
        id: u32,
    },
    Mem {
        loc: u32,
        old: Value,
    },
    /// One event was pushed.
    Event,
    /// One prefix hash was pushed on the thread's label stack.
    ThreadHash {
        tid: u32,
    },
    /// One write was pushed on the location's coherence stack.
    WritePush {
        loc: u32,
    },
    Edge(RelId, u32, u32),
    RelHash {
        loc: u32,
        old: u64,
    },
    /// A scratch slot was written; its previous entry is on the scratch
    /// side stack.
    Scratch {
        addr: Value,
    },
    /// One barrier rendezvous released: pop the recorded cut (released
    /// pcs and counters are journaled separately).
    BarrierCut,
    /// One thread's completed-barrier counter was incremented.
    Bdone {
        tid: u32,
    },
}

const _: () = assert!(std::mem::size_of::<Undo>() <= 24);

/// Memo table sizing: starts small, doubles at 3/4 load, caps at
/// [`MEMO_MAX_ENTRIES`] slots. Past the cap insertion stops while
/// lookups continue — a deterministic "eviction-off" fallback that
/// bounds memory without ever invalidating an earlier prune, so
/// reports stay exact.
const MEMO_INIT_ENTRIES: usize = 1 << 10;
const MEMO_MAX_ENTRIES: usize = 1 << 21;

/// Outcome of consulting the memo table.
enum MemoHit {
    Prune,
    Explore,
}

/// The duplicate-state table plus the per-program analysis that makes
/// the fingerprint sound (see [`Engine::fingerprint`]).
struct Memo {
    /// Per thread, per pc: registers conservatively live at that pc
    /// (read at or after it on some suffix path, with no kills).
    /// Dead registers are excluded from the fingerprint: their values
    /// can never influence future events, and the race detectors do
    /// not read register files.
    live: Vec<Vec<Vec<u16>>>,
    /// Fingerprint → smallest sleep set the state has been explored
    /// under, one 24-byte slot each (the fingerprint as two `u64`
    /// halves, then the mask).
    table: FingerprintTable<u64>,
}

impl Memo {
    fn new(p: &Program) -> Memo {
        Memo {
            live: p.threads().iter().map(|t| live_regs(&t.instrs)).collect(),
            table: FingerprintTable::new(MEMO_INIT_ENTRIES, MEMO_MAX_ENTRIES),
        }
    }

    /// Godefroid's state-caching rule, sleep-set aware: prune when the
    /// state was already explored under a sleep set covered by the
    /// current one (everything required now was covered then);
    /// otherwise narrow the stored sleep set and explore. At the cap a
    /// new state is explored unmemoized rather than evicting one.
    fn visit(&mut self, fp: u128, sleep: u64) -> MemoHit {
        match self.table.get_or_insert(fp, sleep) {
            Some(stored) if *stored & !sleep == 0 => MemoHit::Prune,
            Some(stored) => {
                *stored &= sleep;
                MemoHit::Explore
            }
            None => MemoHit::Explore,
        }
    }
}

/// Does the fingerprint hash coherence order and rf sources exactly?
/// Required when the viewed program can trigger the path-based
/// detectors (non-ordering or one-sided classes), which walk
/// `co`/`rf`/`fr` structure beyond what the `so1` summaries pin.
fn exact_fingerprint(p: &Program) -> bool {
    let classes = p.classes_used();
    classes.contains(&OpClass::NonOrdering)
        || classes.contains(&OpClass::Acquire)
        || classes.contains(&OpClass::Release)
}

/// Conservative backward liveness over one thread's instructions: a
/// register is live at `pc` if some instruction at or after `pc` reads
/// it. No kills (branch targets make a path-sensitive analysis
/// unrewarding for litmus-sized threads) — over-approximating liveness
/// only shrinks memo hits, never soundness.
fn live_regs(instrs: &[Instr]) -> Vec<Vec<u16>> {
    let n = instrs.len();
    let mut out = vec![Vec::new(); n + 1];
    let mut acc: BTreeSet<u16> = BTreeSet::new();
    for pc in (0..n).rev() {
        {
            let mut see = |r: Reg| {
                acc.insert(r.0);
            };
            match &instrs[pc] {
                Instr::Store { val, .. } => val.for_each_reg(&mut see),
                Instr::Rmw { operand, operand2, .. } => {
                    operand.for_each_reg(&mut see);
                    operand2.for_each_reg(&mut see);
                }
                Instr::Assign { expr, .. } => expr.for_each_reg(&mut see),
                Instr::BranchOn { cond } | Instr::JumpIfZero { cond, .. } => {
                    cond.for_each_reg(&mut see)
                }
                Instr::Observe { expr } => expr.for_each_reg(&mut see),
                Instr::ScratchLoad { addr, .. } => addr.for_each_reg(&mut see),
                Instr::ScratchStore { addr, val } => {
                    addr.for_each_reg(&mut see);
                    val.for_each_reg(&mut see);
                }
                Instr::Load { .. } | Instr::Think { .. } | Instr::Barrier => {}
            }
        }
        out[pc] = acc.iter().copied().collect();
    }
    out
}

/// Highest register index + 1 used by a thread (sizes its dense
/// register file).
fn reg_count(instrs: &[Instr]) -> usize {
    let mut n = 0usize;
    for i in instrs {
        let mut see = |r: Reg| {
            n = n.max(r.0 as usize + 1);
        };
        match i {
            Instr::Load { dst, .. } => see(*dst),
            Instr::Store { val, .. } => val.for_each_reg(&mut see),
            Instr::Rmw { operand, operand2, dst, .. } => {
                operand.for_each_reg(&mut see);
                operand2.for_each_reg(&mut see);
                see(*dst);
            }
            Instr::Assign { dst, expr } => {
                expr.for_each_reg(&mut see);
                see(*dst);
            }
            Instr::BranchOn { cond } | Instr::JumpIfZero { cond, .. } => {
                cond.for_each_reg(&mut see)
            }
            Instr::Observe { expr } => expr.for_each_reg(&mut see),
            Instr::ScratchLoad { addr, dst } => {
                addr.for_each_reg(&mut see);
                see(*dst);
            }
            Instr::ScratchStore { addr, val } => {
                addr.for_each_reg(&mut see);
                val.for_each_reg(&mut see);
            }
            Instr::Think { .. } | Instr::Barrier => {}
        }
    }
    n
}

/// What [`Engine::drain`] stopped on.
enum Drained {
    /// No local-deterministic instruction is pending anywhere.
    Done,
    /// A quantum load (under the quantum transformation) — a local
    /// *choice* point the caller must branch over. `undrained` holds
    /// `tid` and every thread the drain had not reached yet.
    QuantumLoad { tid: usize, dst: Reg, undrained: u64 },
}

/// Every thread of a `n`-thread program, as a tid bitmask.
fn all_threads(n: usize) -> u64 {
    if n == 0 {
        0
    } else {
        u64::MAX >> (64 - n)
    }
}

/// Fill `out`'s `po`, `rf`, `co` and `fr` from its event list. Event
/// ids follow the SC order, so one backward pass suffices:
///
/// - an event's `po` row is the later events of its thread;
/// - a write's `co` row and a read's `fr` row are the later writes of
///   its location (a read reads the latest earlier write, so every
///   later write is co-after its source: `fr = rf⁻¹;co`, initial-value
///   reads included);
/// - a write's `rf` row is the reads of its location performed after it
///   and before the next write.
///
/// `masks` is scratch space: per thread its later events, per location
/// its later writes and its later reads not yet claimed by a write.
fn derive_relations(out: &mut Execution, nthreads: usize, nlocs: usize, masks: &mut Vec<u64>) {
    let n = out.events.len();
    let stride = n.div_ceil(64);
    for r in [&mut out.po, &mut out.rf, &mut out.co, &mut out.fr] {
        r.reset(n);
    }
    masks.clear();
    masks.resize((nthreads + 2 * nlocs) * stride, 0);
    let (later_in_thread, per_loc) = masks.split_at_mut(nthreads * stride);
    let (later_writes, later_reads) = per_loc.split_at_mut(nlocs * stride);
    for ev in out.events.iter().rev() {
        let a = ev.id;
        let (w, bit) = (a / 64, 1u64 << (a % 64));
        let t = &mut later_in_thread[ev.tid * stride..(ev.tid + 1) * stride];
        out.po.row_mut(a).copy_from_slice(t);
        t[w] |= bit;
        let l = ev.loc.0 as usize * stride..(ev.loc.0 as usize + 1) * stride;
        let (writes, reads) = (&mut later_writes[l.clone()], &mut later_reads[l]);
        if ev.access.writes() {
            out.co.row_mut(a).copy_from_slice(writes);
            out.rf.row_mut(a).copy_from_slice(reads);
            reads.fill(0);
        }
        if ev.access.reads() {
            out.fr.row_mut(a).copy_from_slice(writes);
            reads[w] |= bit;
        }
        if ev.access.writes() {
            writes[w] |= bit;
        }
    }
}

struct Engine<'a> {
    p: &'a Program,
    limits: &'a EnumLimits,
    /// The run's budget, polled by [`Engine::poll_budget`].
    /// Frontier-collection engines get none: the cut walks only the
    /// top levels of the tree, and a poll failure there would leave
    /// nothing to report a frontier *of*.
    budget: Option<&'a Budget>,
    quantum: bool,
    por: bool,
    /// Maintain the memo bookkeeping columns (`rel_hash`, `term`, …)?
    /// True for [`Reduction::SleepSetMemo`] even during frontier
    /// collection, so shard snapshots carry correct history summaries.
    track: bool,
    /// Track coherence order and rf sources too (see
    /// [`exact_fingerprint`]); implies `track`.
    exact: bool,
    /// Does the program contain a block barrier? Only then can a drain
    /// end in a rendezvous release.
    has_barrier: bool,
    st: SearchState,
    /// The undo journal; tree nodes record a watermark on entry and
    /// [`Engine::undo`] pops back to it.
    journal: Vec<Undo>,
    /// Side stacks of the journal: the old values of [`Undo::Taint`] and
    /// [`Undo::Scratch`] entries, in journal order.
    taint_undo: Vec<IdSet>,
    scratch_undo: Vec<Option<(Value, IdSet)>>,
    visitor: &'a mut dyn ExecutionVisitor,
    /// Executions emitted so far, shared across shards so the limit is
    /// a global resource bound.
    counter: &'a AtomicUsize,
    stats: EnumStats,
    /// Set when the visitor returns `false`; unwinds without error.
    stop: bool,
    /// `Some(d)`: frontier-collection mode — cut at depth `d`, pushing
    /// shard jobs instead of exploring.
    frontier_depth: Option<usize>,
    shards: Vec<Shard>,
    /// Static label base per thread: `label(ev) = base[tid] + iid`.
    base: Vec<u64>,
    /// Duplicate-state table ([`Reduction::SleepSetMemo`], non-frontier
    /// engines only).
    memo: Option<Memo>,
    /// Scratch: expression-taint accumulator, reused across steps.
    tset: IdSet,
    /// Scratch: completed-execution snapshot reused across emits.
    out: Execution,
    /// Scratch: the masks [`derive_relations`] fills rows from.
    masks: Vec<u64>,
    /// Budget-poll countdown: the budget (when present) is consulted
    /// once every [`BUDGET_POLL_INTERVAL`] tree nodes.
    poll: u32,
}

/// Tree nodes between two budget polls. At litmus-scale node rates
/// (millions per second) this checks the deadline every fraction of a
/// millisecond while keeping the hot-loop cost to a decrement and a
/// branch.
const BUDGET_POLL_INTERVAL: u32 = 4096;

impl<'a> Engine<'a> {
    /// An engine that walks the tree below `st` — the root state
    /// ([`SearchState::new`]) or a shard snapshot.
    #[allow(clippy::too_many_arguments)] // the walk's inputs plus its start state
    fn new(
        p: &'a Program,
        limits: &'a EnumLimits,
        budget: Option<&'a Budget>,
        quantum: bool,
        reduction: Reduction,
        visitor: &'a mut dyn ExecutionVisitor,
        counter: &'a AtomicUsize,
        frontier_depth: Option<usize>,
        st: SearchState,
    ) -> Engine<'a> {
        let cap = carrier(p);
        let nlocs = p.num_locs();
        let track = reduction == Reduction::SleepSetMemo;
        let mut base = Vec::with_capacity(p.threads().len());
        let mut acc = 1u64;
        for t in p.threads() {
            base.push(acc);
            acc += t.instrs.len() as u64;
        }
        let out = Execution {
            events: Vec::with_capacity(cap),
            order: Vec::with_capacity(cap),
            result: ExecResult {
                memory: (0..nlocs as u32).map(|l| (Loc(l), p.init_value(Loc(l)))).collect(),
                regs: vec![BTreeMap::new(); p.threads().len()],
            },
            po: Relation::empty(0),
            rf: Relation::empty(0),
            co: Relation::empty(0),
            fr: Relation::empty(0),
            data_dep: Relation::empty(0),
            addr_dep: Relation::empty(0),
            ctrl_dep: Relation::empty(0),
            observed: Vec::with_capacity(cap),
            barrier_cuts: Vec::new(),
        };
        Engine {
            p,
            limits,
            budget,
            quantum,
            por: reduction != Reduction::Exhaustive,
            track,
            exact: track && exact_fingerprint(p),
            has_barrier: p.threads().iter().any(|t| t.instrs.contains(&Instr::Barrier)),
            st,
            journal: Vec::new(),
            taint_undo: Vec::new(),
            scratch_undo: Vec::new(),
            visitor,
            counter,
            stats: EnumStats::default(),
            stop: false,
            frontier_depth,
            shards: Vec::new(),
            base,
            memo: (track && frontier_depth.is_none()).then(|| Memo::new(p)),
            tset: IdSet::default(),
            out,
            masks: Vec::new(),
            poll: BUDGET_POLL_INTERVAL,
        }
    }

    /// Walk the tree below the engine's start state under sleep set
    /// `sleep`. Every thread may have pending local instructions here.
    fn root(&mut self, sleep: u64) -> Result<(), EnumError> {
        let dirty = all_threads(self.st.threads.len());
        self.node(sleep, 0, dirty)
    }

    /// Amortized cooperative budget poll — called once per tree node,
    /// consults the engine's budget every [`BUDGET_POLL_INTERVAL`]
    /// calls.
    fn poll_budget(&mut self) -> Result<(), EnumError> {
        let Some(budget) = self.budget else { return Ok(()) };
        self.poll -= 1;
        if self.poll > 0 {
            return Ok(());
        }
        self.poll = BUDGET_POLL_INTERVAL;
        budget.check()
    }

    fn set_pc(&mut self, tid: usize, pc: usize) {
        let t = &mut self.st.threads[tid];
        self.journal.push(Undo::Pc { tid: tid as u32, old: t.pc as u32 });
        t.pc = pc;
    }

    fn set_reg(&mut self, tid: usize, r: Reg, v: Value) {
        let slot = &mut self.st.threads[tid].regs[r.0 as usize];
        self.journal.push(Undo::Reg { tid: tid as u32, reg: r.0 as u32, old: *slot });
        *slot = Some(v);
    }

    /// Replace `tid`'s taint set for `r` with the scratch set, which is
    /// left cleared.
    fn set_taint_from_scratch(&mut self, tid: usize, r: Reg) {
        let old = std::mem::replace(
            &mut self.st.threads[tid].taint[r.0 as usize],
            std::mem::take(&mut self.tset),
        );
        self.taint_undo.push(old);
        self.journal.push(Undo::Taint { tid: tid as u32, reg: r.0 as u32 });
    }

    /// Merge the scratch taint set into `tid`'s ctrl set, which the
    /// journal undoes by LIFO pops. Leaves the scratch cleared.
    fn extend_ctrl_from_scratch(&mut self, tid: usize) {
        let tset = std::mem::take(&mut self.tset);
        for id in tset.iter() {
            if self.st.threads[tid].ctrl.insert(id) {
                self.journal.push(Undo::CtrlAdd { tid: tid as u32 });
            }
        }
        self.tset = tset;
        self.tset.clear();
    }

    /// Accumulate the taint of `e`'s registers into the scratch set
    /// (callers clear it first; RMWs gather both operands).
    fn gather_taint(&mut self, tid: usize, e: &Expr) {
        let t = &self.st.threads[tid];
        let tset = &mut self.tset;
        e.for_each_reg(&mut |r| {
            if let Some(s) = t.taint.get(r.0 as usize) {
                tset.extend_from(s);
            }
        });
    }

    fn set_mem(&mut self, loc: Loc, v: Value) {
        let slot = &mut self.st.memory[loc.0 as usize];
        self.journal.push(Undo::Mem { loc: loc.0, old: *slot });
        *slot = v;
    }

    fn add_edge(&mut self, rel: RelId, a: usize, b: usize) {
        let r = match rel {
            RelId::Data => &mut self.st.data_dep,
            RelId::Ctrl => &mut self.st.ctrl_dep,
        };
        debug_assert!(!r.contains(a, b), "incremental edges are inserted exactly once");
        r.insert(a, b);
        self.journal.push(Undo::Edge(rel, a as u32, b as u32));
    }

    /// Pop the journal back to `mark`, inverting every entry.
    fn undo(&mut self, mark: usize) {
        while self.journal.len() > mark {
            match self.journal.pop().expect("journal above watermark") {
                Undo::Pc { tid, old } => self.st.threads[tid as usize].pc = old as usize,
                Undo::Reg { tid, reg, old } => {
                    self.st.threads[tid as usize].regs[reg as usize] = old;
                }
                Undo::Taint { tid, reg } => {
                    let old = self.taint_undo.pop().expect("taint side stack");
                    self.st.threads[tid as usize].taint[reg as usize] = old;
                }
                Undo::CtrlAdd { tid } => {
                    self.st.threads[tid as usize].ctrl.pop();
                }
                Undo::Observed { id } => {
                    self.st.observed[id as usize] = false;
                    if self.track {
                        self.st.oh = self.st.oh.wrapping_sub(self.st.lmix[id as usize]);
                    }
                }
                Undo::Mem { loc, old } => self.st.memory[loc as usize] = old,
                Undo::Event => {
                    let ev = self.st.events.pop().expect("journaled event");
                    if self.track {
                        self.st.eh = self.st.eh.wrapping_sub(self.st.term[ev.id]);
                    }
                }
                Undo::ThreadHash { tid } => {
                    self.st.thread_h[tid as usize].pop();
                }
                Undo::WritePush { loc } => {
                    self.st.writes[loc as usize].pop();
                }
                Undo::Edge(rel, a, b) => {
                    let r = match rel {
                        RelId::Data => &mut self.st.data_dep,
                        RelId::Ctrl => &mut self.st.ctrl_dep,
                    };
                    r.remove(a as usize, b as usize);
                }
                Undo::RelHash { loc, old } => self.st.rel_hash[loc as usize] = old,
                Undo::Scratch { addr } => {
                    match self.scratch_undo.pop().expect("scratch side stack") {
                        Some(e) => self.st.scratch.insert(addr, e),
                        None => self.st.scratch.remove(&addr),
                    };
                }
                Undo::BarrierCut => {
                    self.st.barrier_cuts.pop();
                }
                Undo::Bdone { tid } => self.st.bdone[tid as usize] -= 1,
            }
        }
    }

    /// Register a new event: dependency edges and, under memoization,
    /// its fingerprint terms. Data-dependency sources are taken from the
    /// scratch taint set (left cleared); control sources from the
    /// thread's ctrl set.
    fn push_event(&mut self, ev: Event) {
        let id = ev.id;
        let tid = ev.tid;
        let data = std::mem::take(&mut self.tset);
        for src in data.iter() {
            self.add_edge(RelId::Data, src as usize, id);
        }
        let ctrl = std::mem::take(&mut self.st.threads[tid].ctrl);
        for src in ctrl.iter() {
            self.add_edge(RelId::Ctrl, src as usize, id);
        }
        if self.track {
            self.track_event(&ev, &data, &ctrl);
        }
        self.st.threads[tid].ctrl = ctrl;
        self.tset = data;
        self.tset.clear();
        self.st.events.push(ev);
        self.journal.push(Undo::Event);
    }

    /// Fix a new event's fingerprint terms, once: its label hash, its
    /// event-multiset term (label, access, class, write function, and
    /// incoming `so1`/`data`/`ctrl` summaries — `so1` pins which
    /// release-side writes an acquire-side read synchronizes with — plus
    /// the rf source in exact mode), and the prefix hashes of its
    /// thread's label sequence and, in exact mode, its location's
    /// coherence order.
    fn track_event(&mut self, ev: &Event, data: &IdSet, ctrl: &IdSet) {
        let st = &mut self.st;
        let li = ev.loc.0 as usize;
        let lm = mix64(self.base[ev.tid] + ev.iid as u64);
        st.lmix[ev.id] = lm;
        let sum = |s: &IdSet| s.iter().fold(0u64, |h, src| h.wrapping_add(st.lmix[src as usize]));
        let (dh, ch) = (sum(data), sum(ctrl));
        let mut h = step(
            lm,
            match ev.access {
                Access::Read => 1,
                Access::Write => 2,
                Access::Rmw => 3,
            },
        );
        h = step(h, ev.class as u64 + 1);
        if let Some(wf) = ev.write_fn {
            let (tag, val) = wf.parts();
            h = step(h, tag);
            h = step(h, val as u64);
        }
        if ev.class.is_acquire_side() && ev.access.reads() {
            h = step(h, st.rel_hash[li]);
        }
        h = step(h, dh);
        h = step(h, ch);
        if self.exact && ev.access.reads() {
            let src = st.writes[li].last().map_or(u64::MAX, |&(w, _)| st.lmix[w as usize]);
            h = step(h, src);
        }
        // The terms are summed into `eh`, so the chain ends in a full
        // finalizer.
        let h = mix64(h);
        st.term[ev.id] = h;
        st.eh = st.eh.wrapping_add(h);
        let prev = st.thread_h[ev.tid].last().copied().unwrap_or(0);
        st.thread_h[ev.tid].push(mix64(prev ^ lm));
        self.journal.push(Undo::ThreadHash { tid: ev.tid as u32 });
        if ev.access.writes() {
            if self.exact {
                let prev = st.writes[li].last().map_or(0, |&(_, h)| h);
                st.writes[li].push((ev.id as u32, mix64(prev ^ lm)));
                self.journal.push(Undo::WritePush { loc: ev.loc.0 });
            }
            if ev.class.is_release_side() {
                let old = st.rel_hash[li];
                self.journal.push(Undo::RelHash { loc: ev.loc.0, old });
                st.rel_hash[li] = old.wrapping_add(lm);
            }
        }
    }

    /// Phase 1: drain the local-deterministic instructions of the
    /// `dirty` threads, in tid order; they commute with everything, so
    /// running them eagerly prunes redundant interleavings. Every other
    /// thread is already parked at a memory instruction, a barrier or
    /// its end — draining one thread never unblocks another, except
    /// through a barrier release, whose freed threads are drained next.
    /// Stops at a quantum load (a local choice point the caller
    /// branches over).
    fn drain(&mut self, mut dirty: u64) -> Drained {
        loop {
            while dirty != 0 {
                let tid = dirty.trailing_zeros() as usize;
                if let Some(dst) = self.drain_thread(tid) {
                    return Drained::QuantumLoad { tid, dst, undrained: dirty };
                }
                dirty &= dirty - 1;
            }
            // Barrier rendezvous is deterministic (no scheduling
            // choice), so it belongs to the drain closure: release and
            // keep draining the freed threads.
            if !self.has_barrier {
                return Drained::Done;
            }
            dirty = self.try_release_barrier();
            if dirty == 0 {
                return Drained::Done;
            }
        }
    }

    /// Run thread `tid`'s local-deterministic instructions until it
    /// reaches a memory instruction, a barrier or its end. Returns the
    /// destination register when it stops at a quantum load instead.
    fn drain_thread(&mut self, tid: usize) -> Option<Reg> {
        let p = self.p;
        loop {
            let pc = self.st.threads[tid].pc;
            let instr = p.threads()[tid].instrs.get(pc)?;
            match instr {
                Instr::Assign { dst, expr } => {
                    let v = expr.eval_slice(&self.st.threads[tid].regs);
                    self.tset.clear();
                    self.gather_taint(tid, expr);
                    self.set_reg(tid, *dst, v);
                    self.set_taint_from_scratch(tid, *dst);
                    self.set_pc(tid, pc + 1);
                }
                Instr::BranchOn { cond } => {
                    self.tset.clear();
                    self.gather_taint(tid, cond);
                    self.extend_ctrl_from_scratch(tid);
                    self.set_pc(tid, pc + 1);
                }
                Instr::Observe { expr } => {
                    self.tset.clear();
                    self.gather_taint(tid, expr);
                    let tset = std::mem::take(&mut self.tset);
                    for id in tset.iter() {
                        let i = id as usize;
                        if !self.st.observed[i] {
                            self.st.observed[i] = true;
                            if self.track {
                                self.st.oh = self.st.oh.wrapping_add(self.st.lmix[i]);
                            }
                            self.journal.push(Undo::Observed { id });
                        }
                    }
                    self.tset = tset;
                    self.tset.clear();
                    self.set_pc(tid, pc + 1);
                }
                Instr::JumpIfZero { cond, skip } => {
                    let v = cond.eval_slice(&self.st.threads[tid].regs);
                    self.tset.clear();
                    self.gather_taint(tid, cond);
                    self.extend_ctrl_from_scratch(tid);
                    self.set_pc(tid, pc + if v == 0 { *skip + 1 } else { 1 });
                }
                Instr::Think { .. } => {
                    // Axiomatic no-op: a pure timing hint with no event
                    // and no register effect.
                    self.set_pc(tid, pc + 1);
                }
                Instr::ScratchLoad { addr, dst } => {
                    let a = addr.eval_slice(&self.st.threads[tid].regs);
                    self.tset.clear();
                    self.gather_taint(tid, addr);
                    let v = match self.st.scratch.get(&a) {
                        Some((v, t)) => {
                            self.tset.extend_from(t);
                            *v
                        }
                        None => 0,
                    };
                    self.set_reg(tid, *dst, v);
                    self.set_taint_from_scratch(tid, *dst);
                    self.set_pc(tid, pc + 1);
                }
                Instr::ScratchStore { addr, val } => {
                    let a = addr.eval_slice(&self.st.threads[tid].regs);
                    let v = val.eval_slice(&self.st.threads[tid].regs);
                    self.tset.clear();
                    self.gather_taint(tid, addr);
                    self.gather_taint(tid, val);
                    let taint = std::mem::take(&mut self.tset);
                    let old = self.st.scratch.insert(a, (v, taint));
                    self.scratch_undo.push(old);
                    self.journal.push(Undo::Scratch { addr: a });
                    self.set_pc(tid, pc + 1);
                }
                Instr::Load { class: OpClass::Quantum, dst, .. } if self.quantum => {
                    return Some(*dst);
                }
                _ => return None,
            }
        }
    }

    /// Release one block-barrier rendezvous if it is complete: every
    /// thread must have finished more barriers than the lagging group
    /// or be parked at its next [`Instr::Barrier`] with the lagging
    /// count. A thread that terminated without matching the count
    /// blocks the rendezvous forever — a deadlock, so the search path
    /// is dropped with no result, mirroring real-hardware behavior.
    /// Records an event-count cut (the synchronization watermark) and
    /// advances every released pc, all journaled. Returns the released
    /// threads as a tid bitmask (0 when nothing was released).
    fn try_release_barrier(&mut self) -> u64 {
        let p = self.p;
        let parked = |t: &ThreadState, tid: usize| {
            p.threads()[tid].instrs.get(t.pc).is_some_and(|i| matches!(i, Instr::Barrier))
        };
        // Lagging group: the minimum completed-barrier count over
        // parked threads.
        let mut k = u32::MAX;
        for (tid, t) in self.st.threads.iter().enumerate() {
            if parked(t, tid) {
                k = k.min(self.st.bdone[tid]);
            }
        }
        if k == u32::MAX {
            return 0;
        }
        for (tid, t) in self.st.threads.iter().enumerate() {
            let done = self.st.bdone[tid];
            if !(done > k || (done == k && parked(t, tid))) {
                return 0;
            }
        }
        self.st.barrier_cuts.push(self.st.events.len());
        self.journal.push(Undo::BarrierCut);
        let mut released = 0;
        for tid in 0..self.st.threads.len() {
            if self.st.bdone[tid] == k {
                let pc = self.st.threads[tid].pc;
                self.set_pc(tid, pc + 1);
                self.st.bdone[tid] += 1;
                self.journal.push(Undo::Bdone { tid: tid as u32 });
                released |= 1 << tid;
            }
        }
        released
    }

    /// The next memory operation of `tid`, as `(loc, writes)` — the
    /// independence signature for sleep sets.
    fn next_op(&self, tid: usize) -> (Loc, bool) {
        let pc = self.st.threads[tid].pc;
        match &self.p.threads()[tid].instrs[pc] {
            Instr::Load { loc, .. } => (*loc, false),
            Instr::Store { loc, .. } => (*loc, true),
            Instr::Rmw { loc, .. } => (*loc, true),
            _ => unreachable!("next_op called on a thread not at a memory instruction"),
        }
    }

    /// Do two pending steps commute? Yes iff they touch different
    /// locations or are both reads — swapping such adjacent steps
    /// changes nothing the models look at (see DESIGN.md).
    fn independent(a: (Loc, bool), b: (Loc, bool)) -> bool {
        a.0 != b.0 || (!a.1 && !b.1)
    }

    /// One tree node: drain locals, then branch on which thread moves.
    /// `sleep` is the sleep set (bitmask of enabled threads whose moves
    /// are covered by an already-explored sibling order); `depth`
    /// counts choice points for frontier collection; `dirty` is the
    /// threads that may have pending local instructions — the one that
    /// just moved, or more after a quantum-load branch.
    fn node(&mut self, sleep: u64, depth: usize, dirty: u64) -> Result<(), EnumError> {
        if self.stop {
            return Ok(());
        }
        self.poll_budget()?;
        let mark = self.journal.len();
        match self.drain(dirty) {
            Drained::Done => {}
            Drained::QuantumLoad { tid, dst, undrained } => {
                // Quantum transformation: ri = random(). No memory
                // event; the load is gone in Pq. A local choice, so the
                // sleep set carries through unchanged.
                let limits = self.limits;
                for &v in &limits.quantum_domain {
                    let m2 = self.journal.len();
                    self.set_reg(tid, dst, v);
                    self.tset.clear();
                    self.set_taint_from_scratch(tid, dst);
                    let pc = self.st.threads[tid].pc;
                    self.set_pc(tid, pc + 1);
                    self.node(sleep, depth + 1, undrained)?;
                    self.undo(m2);
                    if self.stop {
                        break;
                    }
                }
                self.undo(mark);
                return Ok(());
            }
        }

        let p = self.p;
        let terminal = self
            .st
            .threads
            .iter()
            .enumerate()
            .all(|(tid, t)| t.pc >= p.threads()[tid].instrs.len());

        // Frontier-collection mode: cut here instead of exploring.
        if let Some(d) = self.frontier_depth {
            if terminal || depth >= d {
                self.shards.push(Shard { st: self.st.clone(), sleep });
                self.undo(mark);
                return Ok(());
            }
        }

        // Duplicate-state memoization: prune when an equivalent state
        // was already explored under a covering sleep set. Terminal
        // states store an empty sleep set, so equivalent completions
        // are never re-emitted (and never re-counted against the
        // execution budget).
        if let Some(mut memo) = self.memo.take() {
            let fp = self.fingerprint(&memo);
            let hit = memo.visit(fp, if terminal { 0 } else { sleep });
            self.stats.table_peak = self.stats.table_peak.max(memo.table.len());
            self.memo = Some(memo);
            if matches!(hit, MemoHit::Prune) {
                self.stats.memo_pruned += 1;
                self.undo(mark);
                return Ok(());
            }
        }

        if terminal {
            self.emit()?;
            self.undo(mark);
            return Ok(());
        }

        // Phase 2: branch over which thread performs its next memory
        // event. After the drain every live thread sits at one, so
        // transitions are exactly the enabled threads (a tid bitmask —
        // the sleep-set machinery already caps threads at 64).
        let mut enabled = 0u64;
        for tid in 0..self.st.threads.len() {
            let pc = self.st.threads[tid].pc;
            if p.threads()[tid].instrs.get(pc).is_some_and(|i| i.is_memory()) {
                enabled |= 1 << tid;
            }
        }
        let mut slept = sleep;
        let mut rest = enabled;
        while rest != 0 {
            let tid = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.por && (slept >> tid) & 1 == 1 {
                // A sibling order already covers every trace through
                // this move — prune the subtree.
                self.stats.pruned += 1;
                continue;
            }
            let child_sleep = if self.por {
                let my = self.next_op(tid);
                let mut cs = 0u64;
                let mut others = enabled & slept;
                while others != 0 {
                    let u = others.trailing_zeros() as usize;
                    others &= others - 1;
                    if Self::independent(self.next_op(u), my) {
                        cs |= 1 << u;
                    }
                }
                cs
            } else {
                0
            };
            self.step(tid, child_sleep, depth)?;
            if self.stop {
                break;
            }
            if self.por {
                slept |= 1 << tid;
            }
        }
        self.undo(mark);
        Ok(())
    }

    /// Take thread `tid`'s pending memory step and recurse. Quantum
    /// stores/RMWs branch over the domain internally (every branch is
    /// the same scheduling choice, so they share one sleep set). Only
    /// `tid` moved, so only `tid` is drained below.
    fn step(&mut self, tid: usize, child_sleep: u64, depth: usize) -> Result<(), EnumError> {
        let p = self.p;
        let pc = self.st.threads[tid].pc;
        let instr = &p.threads()[tid].instrs[pc];
        let moved = 1 << tid;
        if self.quantum && instr.class() == Some(OpClass::Quantum) {
            // Quantum transformation (§3.4.3): quantum stores write
            // random(); a quantum RMW's load returns random() and its
            // store writes random().
            let limits = self.limits;
            match instr {
                Instr::Store { class, loc, .. } => {
                    for &v in &limits.quantum_domain {
                        let m = self.journal.len();
                        self.quantum_store_event(tid, *class, *loc, v, None);
                        self.node(child_sleep, depth + 1, moved)?;
                        self.undo(m);
                        if self.stop {
                            break;
                        }
                    }
                    return Ok(());
                }
                Instr::Rmw { class, loc, dst, .. } => {
                    'outer: for &old in &limits.quantum_domain {
                        for &new in &limits.quantum_domain {
                            let m = self.journal.len();
                            self.quantum_store_event(tid, *class, *loc, new, Some((*dst, old)));
                            self.node(child_sleep, depth + 1, moved)?;
                            self.undo(m);
                            if self.stop {
                                break 'outer;
                            }
                        }
                    }
                    return Ok(());
                }
                _ => {}
            }
        }
        let m = self.journal.len();
        self.perform(tid);
        self.node(child_sleep, depth + 1, moved)?;
        self.undo(m);
        Ok(())
    }

    /// Perform thread `tid`'s next memory instruction, journaling every
    /// effect.
    fn perform(&mut self, tid: usize) {
        let p = self.p;
        let pc = self.st.threads[tid].pc;
        let instr = &p.threads()[tid].instrs[pc];
        let id = self.st.events.len();
        match instr {
            Instr::Load { class, loc, dst } => {
                let v = self.st.memory[loc.0 as usize];
                self.tset.clear();
                self.push_event(Event {
                    id,
                    tid,
                    iid: pc,
                    class: *class,
                    loc: *loc,
                    access: Access::Read,
                    rval: Some(v),
                    wval: None,
                    write_fn: None,
                });
                self.set_reg(tid, *dst, v);
                self.tset.clear();
                self.tset.insert(id as u32);
                self.set_taint_from_scratch(tid, *dst);
            }
            Instr::Store { class, loc, val } => {
                let v = val.eval_slice(&self.st.threads[tid].regs);
                self.tset.clear();
                self.gather_taint(tid, val);
                self.push_event(Event {
                    id,
                    tid,
                    iid: pc,
                    class: *class,
                    loc: *loc,
                    access: Access::Write,
                    rval: None,
                    wval: Some(v),
                    write_fn: Some(WriteFn::Set(v)),
                });
                self.set_mem(*loc, v);
            }
            Instr::Rmw { class, loc, op, operand, operand2, dst } => {
                let old = self.st.memory[loc.0 as usize];
                let k = operand.eval_slice(&self.st.threads[tid].regs);
                let k2 = operand2.eval_slice(&self.st.threads[tid].regs);
                let new = op.apply(old, k, k2);
                self.tset.clear();
                self.gather_taint(tid, operand);
                self.gather_taint(tid, operand2);
                let wf = match op {
                    crate::program::RmwOp::FetchAdd => WriteFn::Add(k),
                    crate::program::RmwOp::FetchSub => WriteFn::Add(k.wrapping_neg()),
                    crate::program::RmwOp::FetchAnd => WriteFn::And(k),
                    crate::program::RmwOp::FetchOr => WriteFn::Or(k),
                    crate::program::RmwOp::FetchXor => WriteFn::Xor(k),
                    crate::program::RmwOp::FetchMin => WriteFn::Min(k),
                    crate::program::RmwOp::FetchMax => WriteFn::Max(k),
                    crate::program::RmwOp::Exchange => WriteFn::Set(k),
                    crate::program::RmwOp::Cas => WriteFn::Cas,
                };
                self.push_event(Event {
                    id,
                    tid,
                    iid: pc,
                    class: *class,
                    loc: *loc,
                    access: Access::Rmw,
                    rval: Some(old),
                    wval: Some(new),
                    write_fn: Some(wf),
                });
                self.set_mem(*loc, new);
                self.set_reg(tid, *dst, old);
                self.tset.clear();
                self.tset.insert(id as u32);
                self.set_taint_from_scratch(tid, *dst);
            }
            _ => unreachable!("perform called on non-memory instruction"),
        }
        let pc = self.st.threads[tid].pc;
        self.set_pc(tid, pc + 1);
    }

    /// Emit a quantum store event writing `wval` (the transformed form
    /// of a quantum store or RMW), journaling every effect.
    fn quantum_store_event(
        &mut self,
        tid: usize,
        class: OpClass,
        loc: Loc,
        wval: Value,
        dst: Option<(Reg, Value)>,
    ) {
        let pc = self.st.threads[tid].pc;
        let id = self.st.events.len();
        self.tset.clear();
        self.push_event(Event {
            id,
            tid,
            iid: pc,
            class,
            loc,
            access: Access::Write,
            rval: None,
            wval: Some(wval),
            write_fn: Some(WriteFn::Set(wval)),
        });
        self.set_mem(loc, wval);
        if let Some((r, v)) = dst {
            self.set_reg(tid, r, v);
            self.tset.clear();
            self.set_taint_from_scratch(tid, r);
        }
        self.set_pc(tid, pc + 1);
    }

    /// A complete execution: snapshot the state into the reused scratch
    /// [`Execution`], derive its `po`/`rf`/`co`/`fr`, and hand it to the
    /// visitor. The scratch keeps its buffers across emits, so the
    /// per-execution cost is copies, not allocations.
    fn emit(&mut self) -> Result<(), EnumError> {
        let seen = self.counter.fetch_add(1, Ordering::Relaxed);
        if seen >= self.limits.max_executions {
            return Err(ExhaustReason::Executions { limit: self.limits.max_executions });
        }
        self.stats.explored += 1;
        let n = self.st.events.len();
        let out = &mut self.out;
        out.events.clone_from(&self.st.events);
        out.order.clear();
        out.order.extend(0..n);
        for (l, v) in out.result.memory.iter_mut() {
            *v = self.st.memory[l.0 as usize];
        }
        for (t, m) in self.st.threads.iter().zip(&mut out.result.regs) {
            fill_regs(m, &t.regs);
        }
        derive_relations(out, self.st.threads.len(), self.st.memory.len(), &mut self.masks);
        self.st.data_dep.restrict_into(n, &mut out.data_dep);
        out.addr_dep.reset(n);
        self.st.ctrl_dep.restrict_into(n, &mut out.ctrl_dep);
        out.observed.clear();
        out.observed.extend_from_slice(&self.st.observed[..n]);
        out.barrier_cuts.clone_from(&self.st.barrier_cuts);
        if !self.visitor.visit(&self.out) {
            self.stop = true;
        }
        Ok(())
    }

    /// Commutative hash of a set of events: the sum of their label
    /// hashes.
    fn set_hash(&self, s: &IdSet) -> u64 {
        s.iter().fold(0, |h, id| h.wrapping_add(self.st.lmix[id as usize]))
    }

    /// Canonical fingerprint of the current search state: 128 bits from
    /// [`Fingerprint`]'s two independent lanes, each fed word costing
    /// one full-width multiply per lane and each lane finished by one
    /// SplitMix64 finalizer. Two states with equal fingerprints are
    /// indistinguishable to the race detectors — everything Listing 7
    /// reads is pinned:
    ///
    /// - per-thread control state: pc plus the *static-label sequence*
    ///   of executed memory events (pins `po` and each thread's
    ///   instruction path);
    /// - live registers only (value + taint labels; dead registers
    ///   cannot influence future events, and only register *files* —
    ///   which the race detectors ignore — could expose them);
    /// - per-thread ctrl sources, memory, observed flags;
    /// - the event multiset: label, access, class, write function,
    ///   incoming `so1`/`data`/`ctrl` summary hashes;
    /// - per-location release-write history (`rel_hash`), and — in
    ///   exact mode — the full per-location coherence order and rf
    ///   sources (the path-based detectors read them).
    ///
    /// Every per-event term is fixed when the event is performed
    /// ([`Engine::track_event`]) and sequences enter as prefix hashes,
    /// so the cost does not grow with the events already performed.
    /// Distinct states share a fingerprint only by a 128-bit collision;
    /// `tests/enumeration_digest.rs` pins every explored, pruned and
    /// memo-pruned count the table decides, on the whole corpus.
    fn fingerprint(&self, memo: &Memo) -> u128 {
        let mut fp = Fingerprint::new();
        let mut feed = |v: u64| fp.feed(v);
        let st = &self.st;
        for (tid, t) in st.threads.iter().enumerate() {
            feed(t.pc as u64);
            feed(st.thread_h[tid].last().copied().unwrap_or(0));
            let live_tbl = &memo.live[tid];
            let live = &live_tbl[t.pc.min(live_tbl.len() - 1)];
            for &r in live {
                let ri = r as usize;
                feed(r as u64);
                feed(t.regs.get(ri).copied().flatten().unwrap_or(0) as u64);
                feed(t.taint.get(ri).map_or(0, |ts| self.set_hash(ts)));
            }
            feed(self.set_hash(&t.ctrl));
        }
        for &v in &st.memory {
            feed(v as u64);
        }
        for (a, (v, t)) in &st.scratch {
            feed(*a as u64);
            feed(*v as u64);
            feed(self.set_hash(t));
        }
        for &b in &st.bdone {
            feed(b as u64);
        }
        for &c in &st.barrier_cuts {
            feed(c as u64);
        }
        feed(st.oh);
        feed(st.eh);
        for &rh in &st.rel_hash {
            feed(rh);
        }
        if self.exact {
            for ws in &st.writes {
                feed(ws.last().map_or(0, |&(_, h)| h));
            }
        }
        fp.finish()
    }
}

/// Refill a final register file in place. Registers are only ever
/// written, never cleared, so consecutive executions usually define the
/// same registers and only the values change; when the defined set
/// differs, the map is rebuilt.
fn fill_regs(m: &mut BTreeMap<Reg, Value>, regs: &[Option<Value>]) {
    let mut defined = regs.iter().enumerate().filter_map(|(i, r)| r.map(|v| (i, v)));
    let mut same = true;
    for (k, slot) in m.iter_mut() {
        match defined.next() {
            Some((i, v)) if i == k.0 as usize => *slot = v,
            _ => {
                same = false;
                break;
            }
        }
    }
    if !same || defined.next().is_some() {
        m.clear();
        m.extend(regs.iter().enumerate().filter_map(|(i, r)| r.map(|v| (Reg(i as u16), v))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RmwOp;

    fn limits() -> EnumLimits {
        EnumLimits::default()
    }

    /// Store buffering: two threads, each stores then loads the other
    /// location. 4 memory ops → C(4,2) = 6 interleavings.
    fn sb(class: OpClass) -> Program {
        let mut p = Program::new("sb");
        {
            let mut t = p.thread();
            t.store(class, "x", 1);
            let r = t.load(class, "y");
            t.observe(r);
        }
        {
            let mut t = p.thread();
            t.store(class, "y", 1);
            let r = t.load(class, "x");
            t.observe(r);
        }
        p.build()
    }

    #[test]
    fn sb_has_six_interleavings() {
        let execs = enumerate_sc(&sb(OpClass::Paired), &limits()).unwrap();
        assert_eq!(execs.len(), 6);
    }

    #[test]
    fn sb_never_observes_both_zero_under_sc() {
        let execs = enumerate_sc(&sb(OpClass::Paired), &limits()).unwrap();
        for e in &execs {
            let r0 = *e.result.regs[0].get(&Reg(0)).unwrap();
            let r1 = *e.result.regs[1].get(&Reg(0)).unwrap();
            assert!(!(r0 == 0 && r1 == 0), "SC forbids the store-buffering outcome");
        }
        // But the three other outcomes all appear.
        let outcomes: BTreeSet<(Value, Value)> = execs
            .iter()
            .map(|e| {
                (*e.result.regs[0].get(&Reg(0)).unwrap(), *e.result.regs[1].get(&Reg(0)).unwrap())
            })
            .collect();
        assert_eq!(outcomes, BTreeSet::from([(0, 1), (1, 0), (1, 1)]));
    }

    #[test]
    fn rf_points_reads_at_their_writes() {
        let mut p = Program::new("wr");
        p.thread().store(OpClass::Data, "x", 7);
        {
            let mut t = p.thread();
            t.load(OpClass::Data, "x");
        }
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        assert_eq!(execs.len(), 2);
        for e in &execs {
            let read = e.events.iter().find(|ev| ev.access == Access::Read).unwrap();
            let write = e.events.iter().find(|ev| ev.access == Access::Write).unwrap();
            if read.rval == Some(7) {
                assert!(e.rf.contains(write.id, read.id));
                assert!(!e.fr.contains(read.id, write.id));
            } else {
                assert_eq!(read.rval, Some(0), "reads init");
                assert!(e.rf.is_empty());
                assert!(e.fr.contains(read.id, write.id));
            }
        }
    }

    #[test]
    fn co_orders_same_location_writes() {
        let mut p = Program::new("ww");
        p.thread().store(OpClass::Data, "x", 1);
        p.thread().store(OpClass::Data, "x", 2);
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        assert_eq!(execs.len(), 2);
        for e in &execs {
            assert_eq!(e.co.len(), 1);
            let (first, last) = e.co.iter_pairs().next().unwrap();
            assert_eq!(e.result.memory.values().next().copied(), e.events[last].wval);
            assert!(
                e.order.iter().position(|&x| x == first).unwrap()
                    < e.order.iter().position(|&x| x == last).unwrap()
            );
        }
    }

    #[test]
    fn rmw_is_atomic_in_sc_enumeration() {
        // Two fetch-adds never lose an update under SC.
        let mut p = Program::new("inc");
        p.thread().rmw(OpClass::Paired, "c", RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Paired, "c", RmwOp::FetchAdd, 1);
        let p = p.build();
        let c = p.find_loc("c").unwrap();
        let execs = enumerate_sc(&p, &limits()).unwrap();
        assert_eq!(execs.len(), 2);
        for e in &execs {
            assert_eq!(e.result.memory[&c], 2);
        }
    }

    #[test]
    fn data_deps_flow_through_assigns() {
        let mut p = Program::new("dep");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Data, "x");
            let r2 = t.assign(Expr::bin(crate::program::BinOp::Add, r.into(), 1.into()));
            t.store(OpClass::Data, "y", r2);
        }
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        assert_eq!(execs.len(), 1);
        let e = &execs[0];
        assert!(e.data_dep.contains(0, 1), "load -> store data dep");
        assert!(e.value_observed(0));
    }

    #[test]
    fn ctrl_deps_mark_later_accesses() {
        let mut p = Program::new("ctrl");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Data, "x");
            t.branch_on(r);
            t.store(OpClass::Data, "y", 1);
        }
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        let e = &execs[0];
        assert!(e.ctrl_dep.contains(0, 1));
        assert!(!e.data_dep.contains(0, 1));
        // ctrl alone does not make the value "observed" in Herd's
        // value-observability sense, but obs_dep includes it.
        assert!(e.obs_dep().contains(0, 1));
    }

    #[test]
    fn observe_marks_loads() {
        let mut p = Program::new("obs");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Commutative, "x");
            t.observe(r);
        }
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        assert!(execs[0].value_observed(0));
    }

    #[test]
    fn unobserved_load_is_unobserved() {
        let mut p = Program::new("noobs");
        {
            let mut t = p.thread();
            let _ = t.load(OpClass::Commutative, "x");
            t.store(OpClass::Data, "y", 1);
        }
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        assert!(!execs[0].value_observed(0));
    }

    #[test]
    fn quantum_transformation_randomizes_loads() {
        let mut p = Program::new("q");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Quantum, "x");
            t.observe(r);
        }
        let p = p.build();
        // Plain SC: single execution reading 0.
        let sc = enumerate_sc(&p, &limits()).unwrap();
        assert_eq!(sc.len(), 1);
        assert_eq!(sc[0].events.len(), 1);
        // Quantum-equivalent: the load vanishes, one execution per
        // domain value, register takes each.
        let q = enumerate_sc_quantum(&p, &limits()).unwrap();
        assert_eq!(q.len(), 3);
        for e in &q {
            assert!(e.events.is_empty(), "quantum load is not a memory event in Pq");
        }
        let vals: BTreeSet<Value> =
            q.iter().map(|e| *e.result.regs[0].get(&Reg(0)).unwrap()).collect();
        assert_eq!(vals, BTreeSet::from([0, 1, JUNK]));
    }

    #[test]
    fn quantum_load_branches_drain_the_threads_not_yet_reached() {
        // The root drain stops at thread 0's quantum load before it
        // reaches thread 1's assign; every branch must drain it later.
        let mut p = Program::new("qdrain");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Quantum, "q");
            t.observe(r);
        }
        {
            let mut t = p.thread();
            let r = t.assign(Expr::from(5));
            t.store(OpClass::Data, "x", r);
        }
        let p = p.build();
        let x = p.find_loc("x").unwrap();
        let q = enumerate_sc_quantum(&p, &limits()).unwrap();
        assert_eq!(q.len(), 3);
        assert!(q.iter().all(|e| e.result.memory[&x] == 5));
    }

    #[test]
    fn quantum_rmw_becomes_randomized_store() {
        let mut p = Program::new("qrmw");
        p.thread().rmw(OpClass::Quantum, "c", RmwOp::FetchAdd, 1);
        let p = p.build();
        let c = p.find_loc("c").unwrap();
        let q = enumerate_sc_quantum(&p, &limits()).unwrap();
        // 3 random loaded values × 3 random written values.
        assert_eq!(q.len(), 9);
        for e in &q {
            assert_eq!(e.events.len(), 1);
            assert_eq!(e.events[0].access, Access::Write);
            assert_eq!(e.events[0].class, OpClass::Quantum);
        }
        let finals: BTreeSet<Value> = q.iter().map(|e| e.result.memory[&c]).collect();
        assert_eq!(finals, BTreeSet::from([0, 1, JUNK]));
    }

    #[test]
    fn execution_limit_enforced() {
        let mut p = Program::new("big");
        for _ in 0..3 {
            let mut t = p.thread();
            for _ in 0..4 {
                t.store(OpClass::Data, "x", 1);
            }
        }
        let err =
            enumerate_sc(&p.build(), &EnumLimits { max_executions: 10, ..EnumLimits::default() })
                .unwrap_err();
        assert_eq!(err, ExhaustReason::Executions { limit: 10 });
    }

    #[test]
    fn conditional_body_skipped_when_zero() {
        let mut p = Program::new("cond");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Paired, "flag");
            t.if_nz(r, |t| {
                t.store(OpClass::Data, "x", 1);
            });
            t.store(OpClass::Data, "y", 2);
        }
        let p = p.build();
        let execs = enumerate_sc(&p, &limits()).unwrap();
        assert_eq!(execs.len(), 1);
        let e = &execs[0];
        // flag reads 0 → the x store is skipped, the y store executes.
        assert_eq!(e.events.len(), 2);
        assert!(e.events.iter().all(|ev| p.loc_name(ev.loc) != "x"));
        // Control dependency from the flag load onto the y store.
        assert!(e.ctrl_dep.contains(0, 1));
    }

    #[test]
    fn conditional_body_runs_when_nonzero() {
        let mut p = Program::new("cond2");
        p.set_init("flag", 1);
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Paired, "flag");
            t.if_nz(r, |t| {
                t.store(OpClass::Data, "x", 1);
            });
        }
        let p = p.build();
        let e = &enumerate_sc(&p, &limits()).unwrap()[0];
        assert_eq!(e.events.len(), 2);
        let x = p.find_loc("x").unwrap();
        assert_eq!(e.result.memory[&x], 1);
    }

    #[test]
    fn conditional_mp_is_race_free() {
        // With real control flow, the classic message-passing idiom has
        // no data race in any SC execution: the data read only occurs
        // after the paired flag read returns 1, which orders it.
        let mut p = Program::new("mp_cond");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 42);
            t.store(OpClass::Paired, "flag", 1);
        }
        {
            let mut t = p.thread();
            let f = t.load(OpClass::Paired, "flag");
            t.if_nz(f, |t| {
                let d = t.load(OpClass::Data, "x");
                t.observe(d);
            });
        }
        let execs = enumerate_sc(&p.build(), &limits()).unwrap();
        for e in &execs {
            assert!(
                crate::races::analyze(e).is_race_free(),
                "conditional MP must be race-free in every SC execution"
            );
        }
    }

    /// Event ids follow the SC total order `T` (`order[i] == i`), so
    /// `po` and the barrier cuts only ever point forward — the race
    /// analysis closes `hb1` in one backward pass on that basis. Checked
    /// on every execution of the `.litmus` corpus, plain and
    /// quantum-transformed.
    #[test]
    fn event_ids_follow_the_sc_order_over_the_corpus() {
        struct Forward(usize);
        impl ExecutionVisitor for Forward {
            fn visit(&mut self, e: &Execution) -> bool {
                let n = e.len();
                assert!(e.order.iter().enumerate().all(|(t, &id)| t == id), "order {:?}", e.order);
                assert!(e.events.iter().enumerate().all(|(i, ev)| ev.id == i));
                assert!(e.po.iter_pairs().all(|(a, b)| a < b), "backward po edge");
                assert!(e.barrier_cuts.windows(2).all(|w| w[0] <= w[1]));
                assert!(e.barrier_cuts.iter().all(|&c| c <= n));
                self.0 += 1;
                true
            }
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../litmus-tests");
        let mut files: Vec<_> =
            std::fs::read_dir(dir).unwrap().map(|f| f.unwrap().path()).collect();
        files.sort();
        assert!(!files.is_empty());
        for path in files {
            let src = std::fs::read_to_string(&path).unwrap();
            let p = crate::parse::parse(&src).unwrap_or_else(|e| panic!("{path:?}: {e}"));
            let quantum_modes: &[bool] =
                if crate::quantum::has_quantum(&p) { &[false, true] } else { &[false] };
            for &quantum in quantum_modes {
                let mut v = Forward(0);
                visit_sc(&p, &limits(), quantum, Reduction::SleepSetMemo, &mut v).unwrap();
                assert!(v.0 > 0, "{path:?}");
            }
        }
    }

    #[test]
    fn po_is_transitive_and_intra_thread() {
        let mut p = Program::new("po");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "a", 1);
            t.store(OpClass::Data, "b", 1);
            t.store(OpClass::Data, "c", 1);
        }
        let e = &enumerate_sc(&p.build(), &limits()).unwrap()[0];
        assert!(e.po.contains(0, 1) && e.po.contains(1, 2) && e.po.contains(0, 2));
        assert!(!e.po.contains(2, 0));
        assert!(e.po.is_acyclic());
    }

    // ---- streaming / POR / sharding ----

    /// A visitor that keeps only what POR promises to preserve:
    /// final-memory results, race verdicts and race kinds.
    #[derive(Default)]
    struct Summary {
        explored: usize,
        memories: BTreeSet<BTreeMap<Loc, Value>>,
        race_kinds: BTreeSet<crate::races::RaceKind>,
        any_race: bool,
    }

    impl ExecutionVisitor for Summary {
        fn visit(&mut self, e: &Execution) -> bool {
            self.explored += 1;
            self.memories.insert(e.result.memory.clone());
            let a = crate::races::analyze(e);
            for r in a.races() {
                self.race_kinds.insert(r.kind);
            }
            self.any_race |= !a.is_race_free();
            true
        }
    }

    #[test]
    fn streaming_matches_materializing_reference() {
        let p = sb(OpClass::Unpaired);
        let mut s = Summary::default();
        let stats = visit_sc(&p, &limits(), false, Reduction::Exhaustive, &mut s).unwrap();
        let execs = enumerate_sc(&p, &limits()).unwrap();
        assert_eq!(stats.explored, execs.len());
        assert_eq!(stats.pruned, 0);
        let memories: BTreeSet<_> = execs.iter().map(|e| e.result.memory.clone()).collect();
        assert_eq!(s.memories, memories);
    }

    #[test]
    fn sleep_sets_prune_but_preserve_results_and_verdicts() {
        for class in [OpClass::Paired, OpClass::Unpaired, OpClass::NonOrdering] {
            let p = sb(class);
            let mut full = Summary::default();
            let fs = visit_sc(&p, &limits(), false, Reduction::Exhaustive, &mut full).unwrap();
            let mut red = Summary::default();
            let rs = visit_sc(&p, &limits(), false, Reduction::SleepSet, &mut red).unwrap();
            assert!(rs.explored < fs.explored, "sb must prune: {} vs {}", rs.explored, fs.explored);
            assert!(rs.pruned > 0);
            assert_eq!(red.memories, full.memories, "{class:?}: memory result set changed");
            assert_eq!(red.race_kinds, full.race_kinds, "{class:?}: race kinds changed");
            assert_eq!(red.any_race, full.any_race, "{class:?}: verdict changed");
        }
    }

    #[test]
    fn sleep_sets_compose_with_quantum_domains() {
        // Quantum writer + plain reader on separate locations: domain
        // branching and POR must not interfere.
        let mut p = Program::new("qpor");
        {
            let mut t = p.thread();
            t.store(OpClass::Quantum, "q", 1);
            t.store(OpClass::Data, "a", 1);
        }
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Quantum, "q");
            t.observe(r);
            t.store(OpClass::Data, "b", 2);
        }
        let p = p.build();
        let mut full = Summary::default();
        visit_sc(&p, &limits(), true, Reduction::Exhaustive, &mut full).unwrap();
        let mut red = Summary::default();
        visit_sc(&p, &limits(), true, Reduction::SleepSet, &mut red).unwrap();
        assert_eq!(red.memories, full.memories);
        assert_eq!(red.race_kinds, full.race_kinds);
    }

    /// Memoization merges only states whose futures are equal, so it
    /// keeps every final memory image, race kind and verdict of plain
    /// sleep sets. In `ww` two threads write both locations; every
    /// order ends with the same events and pcs, and only memory tells
    /// the four final images apart.
    #[test]
    fn memo_preserves_results_and_verdicts() {
        let mut ww = Program::new("ww");
        for v in [1, 2] {
            let mut t = ww.thread();
            t.store(OpClass::Paired, "x", v);
            t.store(OpClass::Data, "y", v);
        }
        let ww = ww.build();
        for p in [sb(OpClass::Paired), sb(OpClass::Unpaired), sb(OpClass::NonOrdering), ww] {
            let mut plain = Summary::default();
            visit_sc(&p, &limits(), false, Reduction::SleepSet, &mut plain).unwrap();
            let mut memo = Summary::default();
            visit_sc(&p, &limits(), false, Reduction::SleepSetMemo, &mut memo).unwrap();
            let name = p.name();
            assert_eq!(memo.memories, plain.memories, "{name}: memory result set changed");
            assert_eq!(memo.race_kinds, plain.race_kinds, "{name}: race kinds changed");
            assert_eq!(memo.any_race, plain.any_race, "{name}: verdict changed");
        }
    }

    #[test]
    fn visitor_can_stop_enumeration_early() {
        struct StopAfter(usize);
        impl ExecutionVisitor for StopAfter {
            fn visit(&mut self, _e: &Execution) -> bool {
                self.0 -= 1;
                self.0 > 0
            }
        }
        let p = sb(OpClass::Paired);
        let mut v = StopAfter(2);
        let stats = visit_sc(&p, &limits(), false, Reduction::Exhaustive, &mut v).unwrap();
        assert_eq!(stats.explored, 2, "enumeration stops when the visitor says so");
    }

    #[test]
    fn sharded_run_is_identical_at_any_thread_count() {
        let p = sb(OpClass::Unpaired);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 4, 7] {
            let run = visit_sc_sharded(
                &p,
                &limits(),
                false,
                Reduction::SleepSet,
                threads,
                &Summary::default,
                &|_v: &Summary| false,
            )
            .unwrap();
            let mut memories = BTreeSet::new();
            let mut kinds = BTreeSet::new();
            for (v, _) in &run.shards {
                memories.extend(v.memories.iter().cloned());
                kinds.extend(v.race_kinds.iter().copied());
            }
            runs.push((run.stats, memories, kinds, run.shards.len()));
        }
        for r in &runs[1..] {
            assert_eq!(r, &runs[0], "sharded run must not depend on the thread count");
        }
        // And the sharded walk agrees with the unsharded one.
        let mut flat = Summary::default();
        let fs = visit_sc(&p, &limits(), false, Reduction::SleepSet, &mut flat).unwrap();
        assert_eq!(runs[0].0, fs);
        assert_eq!(runs[0].1, flat.memories);
        assert_eq!(runs[0].2, flat.race_kinds);
    }

    #[test]
    fn sharded_early_exit_keeps_a_deterministic_prefix() {
        // Saturate as soon as a shard saw any execution: only shard 0
        // (and nothing after it) may be merged, at any thread count.
        let p = sb(OpClass::Paired);
        for threads in [1usize, 4] {
            let run = visit_sc_sharded(
                &p,
                &limits(),
                false,
                Reduction::Exhaustive,
                threads,
                &Summary::default,
                &|v: &Summary| v.explored > 0,
            )
            .unwrap();
            assert!(run.early_exit);
            assert_eq!(run.shards.len(), 1, "threads={threads}");
            assert!(run.shards[0].0.explored > 0);
        }
    }

    #[test]
    fn shared_limit_applies_across_shards() {
        let p = sb(OpClass::Paired);
        let r = visit_sc_sharded(
            &p,
            &EnumLimits { max_executions: 3, ..EnumLimits::default() },
            false,
            Reduction::Exhaustive,
            2,
            &Summary::default,
            &|_v: &Summary| false,
        );
        match r {
            Err(e) => assert_eq!(e, ExhaustReason::Executions { limit: 3 }),
            Ok(_) => panic!("limit must apply across shards"),
        }

        // Above the probe budget the tree is sharded, and the limit is
        // enforced by the counter the shards share — at any thread
        // count. Three threads × three stores to one location:
        // 9!/(3!)^3 = 1680 exhaustive interleavings.
        let mut wide = Program::new("wide");
        for t in 0..3i64 {
            let mut th = wide.thread();
            for i in 0..3 {
                th.store(OpClass::Data, "x", t * 3 + i);
            }
        }
        let wide = wide.build();
        let limit = 2 * PROBE_BUDGET;
        for threads in [1usize, 4] {
            let r = visit_sc_sharded(
                &wide,
                &EnumLimits { max_executions: limit, ..EnumLimits::default() },
                false,
                Reduction::Exhaustive,
                threads,
                &Summary::default,
                &|_v: &Summary| false,
            );
            match r {
                Err(e) => assert_eq!(e, ExhaustReason::Executions { limit }, "t={threads}"),
                Ok(run) => {
                    panic!("t={threads}: {} executions under limit {limit}", run.stats.explored)
                }
            }
        }
    }
}
