//! Differential test of the checker's per-execution path.
//!
//! `check_program_with` analyzes executions with one `RaceDetector` per
//! shard, whose scratch buffers are reset in place, and skips a
//! quantum-transformed execution whose shape it has already analyzed.
//! The visitor here does neither: it builds a fresh detector for every
//! execution and analyzes all of them. Run through the same sharded
//! walk and merged the same way, it must produce the same report —
//! races, keys, descriptions and witness indices, and every enumeration
//! count — on the litmus registry and on generated programs, under all
//! three models, at one and two workers.

use drfrlx::conform::generate;
use drfrlx::litmus::all_tests;
use drfrlx::model::checker::{check_program_with, CheckOptions, CheckReport, RaceKey};
use drfrlx::model::exec::{visit_sc_sharded, EnumLimits, Execution, ExecutionVisitor, Reduction};
use drfrlx::model::pretty::event_label;
use drfrlx::model::program::Program;
use drfrlx::model::quantum::has_quantum;
use drfrlx::model::races::attainable_kinds;
use drfrlx::model::{MemoryModel, OpClass, RaceDetector, RaceKind};
use std::collections::BTreeSet;

/// The checker's model views, copied so that this side shares no code
/// with the checker beyond the detector and the enumerator.
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

/// One witness: execution index within its shard, key, description.
type Witness = (usize, RaceKey, String);

struct FreshCollector<'a> {
    view: &'a Program,
    attainable: &'a [RaceKind],
    explored: usize,
    keys: BTreeSet<RaceKey>,
    found_kinds: BTreeSet<RaceKind>,
    witnesses: Vec<Witness>,
}

impl FreshCollector<'_> {
    fn saturated(&self) -> bool {
        !self.attainable.is_empty() && self.attainable.iter().all(|k| self.found_kinds.contains(k))
    }
}

impl ExecutionVisitor for FreshCollector<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        let races = RaceDetector::for_program(self.view).analyze(e).races();
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
                self.witnesses.push((self.explored, key, description));
            }
        }
        self.explored += 1;
        !self.saturated()
    }
}

/// The report's comparable parts: counts, then the witnesses.
type Summary = ([usize; 4], bool, Vec<Witness>);

fn fresh_check(p: &Program, model: MemoryModel, reduction: Reduction, threads: usize) -> Summary {
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let attainable = attainable_kinds(&view);
    let make = || FreshCollector {
        view: &view,
        attainable: &attainable,
        explored: 0,
        keys: BTreeSet::new(),
        found_kinds: BTreeSet::new(),
        witnesses: Vec::new(),
    };
    let run = visit_sc_sharded(
        &view,
        &EnumLimits::default(),
        quantum,
        reduction,
        threads,
        &make,
        &|v: &FreshCollector| v.saturated(),
    )
    .unwrap_or_else(|e| panic!("{} under {model}: {e}", p.name()));
    // The checker's merge: shards in order, first witness of a key
    // wins, indices offset by the executions of earlier shards.
    let (mut keys, mut witnesses, mut offset) = (BTreeSet::new(), Vec::new(), 0);
    for (v, stats) in run.shards {
        for (index, key, description) in v.witnesses {
            if keys.insert(key) {
                witnesses.push((index + offset, key, description));
            }
        }
        offset += stats.explored;
    }
    let s = run.stats;
    ([s.explored, s.pruned, s.memo_pruned, s.table_peak], quantum, witnesses)
}

fn summary(r: &CheckReport) -> Summary {
    let witnesses =
        r.races.iter().map(|f| (f.exec_index, f.key, f.description.clone())).collect::<Vec<_>>();
    for f in &r.races {
        assert_eq!(f.key.0, f.race.kind);
    }
    ([r.executions, r.pruned, r.memo_pruned, r.table_peak], r.quantum_transformed, witnesses)
}

fn assert_same_reports(p: &Program, reduction: Reduction) {
    for model in MemoryModel::ALL {
        for threads in [1, 2] {
            let opts = CheckOptions { threads, reduction, ..CheckOptions::default() };
            let checked = check_program_with(p, model, &opts)
                .unwrap_or_else(|e| panic!("{} under {model}: {e}", p.name()));
            assert_eq!(checked.is_race_free(), checked.races.is_empty());
            assert_eq!(
                summary(&checked),
                fresh_check(p, model, reduction, threads),
                "{} under {model} at {threads} threads",
                p.name()
            );
        }
    }
}

#[test]
fn checker_matches_fresh_detectors_on_the_registry() {
    for t in all_tests() {
        assert_same_reports(&(t.build)(), t.reduction);
    }
}

/// Two executions of one quantum walk can share every event and differ
/// only in observed flags: here a quantum load's value decides whether
/// a speculative load is observed, and only the observed one races
/// with the speculative store. A shape that ignored the flags would
/// skip the racy execution behind its unobserved twin.
#[test]
fn checker_matches_fresh_detectors_when_only_observation_differs() {
    let mut p = Program::new("observed_by_quantum_value");
    {
        let mut t = p.thread();
        let r = t.load(OpClass::Speculative, "x");
        let q = t.load(OpClass::Quantum, "q");
        t.if_nz(q, |t| {
            t.observe(r);
        });
    }
    p.thread().store(OpClass::Speculative, "x", 1);
    let p = p.build();
    let r = check_program_with(&p, MemoryModel::Drfrlx, &CheckOptions::default()).unwrap();
    assert!(r.quantum_transformed);
    assert_eq!(r.race_kinds(), [RaceKind::Speculative]);
    assert_same_reports(&p, Reduction::SleepSet);
}

#[test]
fn checker_matches_fresh_detectors_on_generated_programs() {
    for seed in 0..64 {
        assert_same_reports(&generate(seed), Reduction::SleepSet);
    }
}
