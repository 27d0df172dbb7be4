//! The traced checker: `check_program_with`'s pipeline rebuilt from
//! `drfrlx-core`'s public parts, with each `RaceDetector::analyze` call
//! (and its race extraction) timed by a benchmark-side
//! `ExecutionVisitor`. Everything else the check spends is enumeration.
//!
//! The decomposition must reproduce `check_program_with` exactly — the
//! enumeration counts and every reported race with its description —
//! or the traced run fails; that guard is what keeps this copy of the
//! pipeline honest.

use drfrlx_core::checker::RaceKey;
use drfrlx_core::exec::{
    visit_sc_sharded, EnumError, EnumLimits, EnumStats, Execution, ExecutionVisitor, Reduction,
};
use drfrlx_core::pretty::event_label;
use drfrlx_core::program::Program;
use drfrlx_core::quantum::has_quantum;
use drfrlx_core::races::attainable_kinds;
use drfrlx_core::{MemoryModel, OpClass, RaceDetector, RaceKind};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How each model views a program's annotations — the same views
/// `check_program_with` checks.
fn model_view(p: &Program, model: MemoryModel) -> Program {
    match model {
        MemoryModel::Drf0 => {
            p.map_classes(|c| if c.is_atomic() { OpClass::Paired } else { OpClass::Data })
        }
        MemoryModel::Drf1 => p.map_classes(|c| match c {
            c if c.is_relaxed() => OpClass::Unpaired,
            OpClass::Acquire | OpClass::Release => OpClass::Paired,
            c => c,
        }),
        MemoryModel::Drfrlx => p.clone(),
    }
}

/// Race-analysis time and calls, shared by every shard's visitor —
/// including visitors the enumerator discards (an abandoned serial
/// probe), whose analysis time was spent all the same.
#[derive(Debug, Default)]
pub struct RaceClock {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl RaceClock {
    /// Seconds spent analyzing.
    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Executions analyzed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

struct TimedCollector<'a> {
    view: &'a Program,
    detector: RaceDetector,
    attainable: &'a [RaceKind],
    clock: &'a RaceClock,
    keys: BTreeSet<RaceKey>,
    found_kinds: BTreeSet<RaceKind>,
    /// One described witness per new key, in discovery order.
    races: Vec<(RaceKey, String)>,
}

impl TimedCollector<'_> {
    fn saturated(&self) -> bool {
        !self.attainable.is_empty() && self.attainable.iter().all(|k| self.found_kinds.contains(k))
    }
}

impl ExecutionVisitor for TimedCollector<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        let t = Instant::now();
        let races = self.detector.analyze(e).races();
        let nanos = t.elapsed().as_nanos() as u64;
        self.clock.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        for race in races {
            let (ea, eb) = (&e.events[race.a], &e.events[race.b]);
            let mut pair = [(ea.tid, ea.iid), (eb.tid, eb.iid)];
            pair.sort_unstable();
            let key = (race.kind, pair[0], pair[1]);
            if self.keys.insert(key) {
                self.found_kinds.insert(race.kind);
                let description = format!(
                    "{}: {} between {} and {}",
                    self.view.name(),
                    race.kind,
                    event_label(self.view, ea),
                    event_label(self.view, eb),
                );
                self.races.push((key, description));
            }
        }
        !self.saturated()
    }
}

/// What the traced check found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedCheck {
    /// Enumeration counts of the merged shards.
    pub stats: EnumStats,
    /// One described witness per distinct static race key: shards in
    /// order, first witness wins — `check_program_with`'s merge.
    pub races: Vec<(RaceKey, String)>,
}

/// Check `p` under `model` with early exit on, as `check_program_with`
/// does with default options, timing race analysis into `clock`.
///
/// # Errors
///
/// Returns the enumerator's error when `limits` are exceeded.
pub fn traced_check(
    p: &Program,
    model: MemoryModel,
    limits: &EnumLimits,
    reduction: Reduction,
    threads: usize,
    clock: &RaceClock,
) -> Result<TracedCheck, EnumError> {
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let attainable = attainable_kinds(&view);
    let make = || TimedCollector {
        view: &view,
        detector: RaceDetector::for_program(&view),
        attainable: &attainable,
        clock,
        keys: BTreeSet::new(),
        found_kinds: BTreeSet::new(),
        races: Vec::new(),
    };
    let run = visit_sc_sharded(
        &view,
        limits,
        quantum,
        reduction,
        threads,
        &make,
        &|v: &TimedCollector| v.saturated(),
    )?;
    let mut keys = BTreeSet::new();
    let races = run
        .shards
        .into_iter()
        .flat_map(|(v, _)| v.races)
        .filter(|(key, _)| keys.insert(*key))
        .collect();
    Ok(TracedCheck { stats: run.stats, races })
}
