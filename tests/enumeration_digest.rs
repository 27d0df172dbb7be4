//! Frozen digest of the SC enumerator and the checker reports built on it.
//!
//! Every emitted [`Execution`] — its events, the `po`/`rf`/`co`/`fr`/
//! dependency relations, observed flags, barrier cuts and final result —
//! and every [`CheckReport`] — counts, memo statistics and each race's
//! key, description and execution index — is SplitMix64-folded into one
//! 64-bit value and compared against a committed constant.
//!
//! The inputs are the litmus registry under each test's registry
//! reduction, the template corpus (bounded polls, retry loops, scratch
//! memory and block barriers) and generated fuzz programs under both
//! sleep-set reductions, each under the DRF0, DRF1 and DRFrlx views,
//! plain and quantum-transformed, sharded at one and at two workers.
//! The ignored full-size test adds the stress corpus and a wider range
//! of generated programs; run it in release with `--include-ignored`.
//!
//! A rewrite of the enumerator must reproduce both constants exactly.
//! If a change is *meant* to alter what the enumerator emits, recompute
//! the constant and say why in the change description.

mod rng;

use drfrlx::conform::{generate, template_corpus};
use drfrlx::litmus::{all_tests, stress_tests};
use drfrlx::model::checker::{check_program_with, CheckOptions, CheckReport};
use drfrlx::model::exec::{
    visit_sc_sharded, EnumLimits, EnumStats, Execution, ExecutionVisitor, Reduction, WriteFn,
};
use drfrlx::model::program::Program;
use drfrlx::model::quantum::has_quantum;
use drfrlx::model::relation::Relation;
use drfrlx::model::{MemoryModel, OpClass};
use rng::mix;

/// Generated programs in the tier-1 digest: `generate(0..GENERATED)`.
const GENERATED: u64 = 64;

/// Registry programs whose trees dominate a debug build's run time
/// (about 15,000 executions per enumeration); only the full-size digest
/// folds them.
const FULL_ONLY: [&str; 2] = ["ref_counter", "ref_counter_data_mark"];

/// Generated programs in the full-size digest.
const GENERATED_FULL: u64 = 400;

/// The tier-1 digest at the time it was frozen.
const FROZEN: u64 = 0xd57c_7950_3f8e_6d2a;

/// The full-size digest at the time it was frozen.
const FROZEN_FULL: u64 = 0x153b_d6e9_ff89_0f04;

/// Worker counts every enumeration and check runs at.
const THREADS: [usize; 2] = [1, 2];

fn fold_relation(mut h: u64, r: &Relation) -> u64 {
    h = mix(h, r.carrier() as u64);
    for (a, b) in r.iter_pairs() {
        h = mix(h, ((a as u64) << 32) | b as u64);
    }
    mix(h, u64::MAX)
}

fn fold_opt(h: u64, v: Option<i64>) -> u64 {
    match v {
        Some(v) => mix(mix(h, 1), v as u64),
        None => mix(h, 0),
    }
}

fn fold_execution(mut h: u64, e: &Execution) -> u64 {
    for ev in &e.events {
        h = mix(h, ev.id as u64);
        h = mix(h, ((ev.tid as u64) << 32) | ev.iid as u64);
        h = mix(h, ev.class as u64);
        h = mix(h, ev.loc.0 as u64);
        h = mix(h, ev.access as u64);
        h = fold_opt(h, ev.rval);
        h = fold_opt(h, ev.wval);
        let (tag, val) = match ev.write_fn {
            None => (0, 0),
            Some(WriteFn::Set(v)) => (1, v),
            Some(WriteFn::Add(v)) => (2, v),
            Some(WriteFn::And(v)) => (3, v),
            Some(WriteFn::Or(v)) => (4, v),
            Some(WriteFn::Xor(v)) => (5, v),
            Some(WriteFn::Min(v)) => (6, v),
            Some(WriteFn::Max(v)) => (7, v),
            Some(WriteFn::Cas) => (8, 0),
        };
        h = mix(mix(h, tag), val as u64);
    }
    h = e.order.iter().fold(h, |h, &i| mix(h, i as u64));
    h = [&e.po, &e.rf, &e.co, &e.fr, &e.data_dep, &e.addr_dep, &e.ctrl_dep]
        .into_iter()
        .fold(h, fold_relation);
    h = e.observed.iter().fold(h, |h, &o| mix(h, o as u64));
    h = mix(h, e.barrier_cuts.len() as u64);
    h = e.barrier_cuts.iter().fold(h, |h, &c| mix(h, c as u64));
    for (l, v) in &e.result.memory {
        h = mix(mix(h, l.0 as u64), *v as u64);
    }
    for regs in &e.result.regs {
        h = mix(h, regs.len() as u64);
        for (r, v) in regs {
            h = mix(mix(h, r.0 as u64), *v as u64);
        }
    }
    h
}

fn fold_stats(h: u64, s: &EnumStats) -> u64 {
    [s.explored, s.pruned, s.memo_pruned, s.table_peak].into_iter().fold(h, |h, x| mix(h, x as u64))
}

fn fold_report(mut h: u64, r: &CheckReport) -> u64 {
    h = [r.executions, r.pruned, r.memo_pruned, r.table_peak]
        .into_iter()
        .fold(h, |h, x| mix(h, x as u64));
    h = mix(h, r.quantum_transformed as u64);
    h = mix(h, r.is_race_free() as u64);
    for race in &r.races {
        let (kind, a, b) = race.key;
        h = mix(h, kind as u64);
        h = mix(h, ((a.0 as u64) << 32) | a.1 as u64);
        h = mix(h, ((b.0 as u64) << 32) | b.1 as u64);
        h = mix(h, race.exec_index as u64);
        h = race.description.bytes().fold(h, |h, c| mix(h, c as u64));
    }
    mix(h, r.races.len() as u64)
}

/// Folds one shard's executions, in emission order.
struct Folder(u64);

impl ExecutionVisitor for Folder {
    fn visit(&mut self, e: &Execution) -> bool {
        self.0 = fold_execution(self.0, e);
        true
    }
}

/// How each model views a program's annotations: the checker's views,
/// copied here so that the digest moves only when the enumerator does.
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

/// Fold every execution and every check report of `p` into `h`.
fn fold_program(h: u64, p: &Program, reduction: Reduction, executions: &mut u64) -> u64 {
    let mut h = p.name().bytes().fold(mix(h, reduction as u64), |h, b| mix(h, b as u64));
    let limits = EnumLimits::default();
    for model in MemoryModel::ALL {
        let view = model_view(p, model);
        let quantum_views: &[bool] = if has_quantum(&view) { &[false, true] } else { &[false] };
        for &quantum in quantum_views {
            for threads in THREADS {
                let run = visit_sc_sharded(
                    &view,
                    &limits,
                    quantum,
                    reduction,
                    threads,
                    &|| Folder(0),
                    &|_: &Folder| false,
                )
                .unwrap_or_else(|e| panic!("{} under {model}: {e}", p.name()));
                for (folder, stats) in &run.shards {
                    h = fold_stats(mix(h, folder.0), stats);
                }
                h = fold_stats(mix(h, run.shards.len() as u64), &run.stats);
                *executions += run.stats.explored as u64;
            }
        }
        for threads in THREADS {
            let opts = CheckOptions { threads, reduction, ..CheckOptions::default() };
            let report = check_program_with(p, model, &opts)
                .unwrap_or_else(|e| panic!("{} under {model}: {e}", p.name()));
            h = fold_report(h, &report);
        }
    }
    h
}

/// The digest over the registry, the template corpus and
/// `generate(0..generated)`; `full` adds the stress corpus and the
/// [`FULL_ONLY`] registry programs.
fn digest(full: bool, generated: u64) -> (u64, u64) {
    let mut executions = 0;
    let mut h = 0;
    let registry = all_tests().into_iter().filter(|t| full || !FULL_ONLY.contains(&t.name));
    let stress = if full { stress_tests() } else { Vec::new() };
    for t in registry.chain(stress) {
        h = fold_program(h, &(t.build)(), t.reduction, &mut executions);
    }
    for (_, p) in template_corpus() {
        h = fold_program(h, &p, Reduction::SleepSetMemo, &mut executions);
    }
    for seed in 0..generated {
        let p = generate(seed);
        for reduction in [Reduction::SleepSet, Reduction::SleepSetMemo] {
            h = fold_program(h, &p, reduction, &mut executions);
        }
    }
    (h, executions)
}

#[test]
fn enumeration_matches_the_frozen_digest() {
    let (h, executions) = digest(false, GENERATED);
    assert_eq!(h, FROZEN, "enumeration digest drifted ({executions} executions folded: {h:#018x})");
}

#[test]
#[ignore = "full size; run in release with --include-ignored"]
fn full_enumeration_matches_the_frozen_digest() {
    let (h, executions) = digest(true, GENERATED_FULL);
    assert_eq!(
        h, FROZEN_FULL,
        "full enumeration digest drifted ({executions} executions folded: {h:#018x})"
    );
}
