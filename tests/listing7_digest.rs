//! Frozen digest of the Listing 7 race analysis.
//!
//! Every relation of every [`RaceAnalysis`] — `so1`, `hb1`, `race` and
//! the six illegal-race relations — on every SC execution of the litmus
//! registry, the stress corpus and a fixed range of generated fuzz
//! programs, under the DRF0, DRF1 and DRFrlx views, is SplitMix64-folded
//! into one 64-bit value and compared against a committed constant.
//!
//! The streaming differential suite runs `RaceDetector::analyze` on both
//! of its sides, so it cannot notice a change to `analyze` itself; this
//! digest can. A rewrite of the race analysis must reproduce it exactly.
//! If a change to the model is *meant* to alter the analysis, recompute
//! the constant and say why in the change description.

mod rng;

use drfrlx::conform::generate;
use drfrlx::litmus::{all_tests, stress_tests};
use drfrlx::model::exec::{visit_sc, EnumLimits, Execution, ExecutionVisitor, Reduction};
use drfrlx::model::program::Program;
use drfrlx::model::quantum::has_quantum;
use drfrlx::model::relation::Relation;
use drfrlx::model::{MemoryModel, OpClass, RaceAnalysis, RaceDetector};
use rng::mix;

/// Generated programs folded into the digest: `generate(0..GENERATED)`.
const GENERATED: u64 = 400;

/// The digest of the race analysis at the time it was frozen.
const FROZEN: u64 = 0x868d_49fd_4e5b_9017;

fn fold_relation(mut h: u64, r: &Relation) -> u64 {
    h = mix(h, r.carrier() as u64);
    for (a, b) in r.iter_pairs() {
        h = mix(h, ((a as u64) << 32) | b as u64);
    }
    mix(h, u64::MAX)
}

fn fold_analysis(h: u64, a: &RaceAnalysis) -> u64 {
    [
        &a.so1,
        &a.hb1,
        &a.race,
        &a.data,
        &a.commutative,
        &a.non_ordering,
        &a.quantum,
        &a.speculative,
        &a.one_sided,
    ]
    .into_iter()
    .fold(h, fold_relation)
}

/// How each model views a program's annotations: the checker's views,
/// copied here so that the digest moves only when the analysis does.
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

struct Folder {
    detector: RaceDetector,
    digest: u64,
    executions: u64,
}

impl ExecutionVisitor for Folder {
    fn visit(&mut self, e: &Execution) -> bool {
        self.digest = fold_analysis(self.digest, self.detector.analyze(e));
        self.executions += 1;
        true
    }
}

/// Fold every execution of `p` under every model view into `h`.
fn fold_program(h: u64, p: &Program, reduction: Reduction, executions: &mut u64) -> u64 {
    let mut h = p.name().bytes().fold(h, |h, b| mix(h, b as u64));
    for model in MemoryModel::ALL {
        let view = model_view(p, model);
        let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
        let mut folder =
            Folder { detector: RaceDetector::for_program(&view), digest: h, executions: 0 };
        visit_sc(&view, &EnumLimits::default(), quantum, reduction, &mut folder)
            .unwrap_or_else(|e| panic!("{} under {model}: {e}", p.name()));
        h = mix(folder.digest, folder.executions);
        *executions += folder.executions;
    }
    h
}

#[test]
fn listing7_analysis_matches_the_frozen_digest() {
    let mut executions = 0;
    let mut h = 0;
    for t in all_tests().into_iter().chain(stress_tests()) {
        h = fold_program(h, &(t.build)(), t.reduction, &mut executions);
    }
    for seed in 0..GENERATED {
        h = fold_program(h, &generate(seed), Reduction::SleepSet, &mut executions);
    }
    assert_eq!(h, FROZEN, "Listing 7 digest drifted ({executions} executions folded: {h:#018x})");
}
