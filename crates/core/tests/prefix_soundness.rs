//! Prefix soundness of the resilient checker, as a property test:
//! whatever a budget-limited run reports must be a *prefix truth* of
//! the unbudgeted run. Over randomized programs, every race found
//! under any execution budget is also in the unbudgeted race set, the
//! budgeted run never explores more than the unbudgeted one, and a
//! run that completes within its budget reports exactly the full set.

use drfrlx_core::checker::{check_program_resilient, check_program_with, CheckOptions, RaceKey};
use drfrlx_core::resilience::{Resilience, RunStatus};
use drfrlx_core::{MemoryModel, OpClass, Program};
use std::collections::BTreeSet;

/// SplitMix64 — the workspace's standard deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const CLASSES: [OpClass; 7] = [
    OpClass::Data,
    OpClass::Paired,
    OpClass::Unpaired,
    OpClass::Commutative,
    OpClass::NonOrdering,
    OpClass::Quantum,
    OpClass::Speculative,
];

/// A random small program: 2–3 threads, 2–3 memory ops each, over two
/// locations and the paper's seven distinguishable classes. Small
/// enough that the unbudgeted tree always fits the default budget,
/// conflict-heavy enough (two locations) that most seeds race.
fn generate(seed: u64) -> Program {
    let mut rng = Rng(seed);
    let mut p = Program::new("prefix_fuzz");
    let threads = 2 + rng.below(2);
    for _ in 0..threads {
        let mut th = p.thread();
        let ops = 2 + rng.below(2);
        for _ in 0..ops {
            let class = CLASSES[rng.below(CLASSES.len() as u64) as usize];
            let loc = if rng.below(2) == 0 { "x" } else { "y" };
            if rng.below(3) == 0 {
                let r = th.load(class, loc);
                th.observe(r);
            } else {
                th.store(class, loc, rng.below(100) as i64);
            }
        }
    }
    p.build()
}

fn keys(races: &[drfrlx_core::checker::FoundRace]) -> BTreeSet<RaceKey> {
    races.iter().map(|f| f.key).collect()
}

#[test]
fn budgeted_races_are_a_subset_of_the_unbudgeted_set() {
    for seed in 0..24u64 {
        let p = generate(seed);
        let model = if seed % 2 == 0 { MemoryModel::Drfrlx } else { MemoryModel::Drf0 };
        let opts = CheckOptions { threads: 1, early_exit: false, ..CheckOptions::default() };

        let full = check_program_with(&p, model, &opts).expect("small tree fits default budget");
        let full_keys = keys(&full.races);

        for budget in [1usize, 3, 17, 120] {
            let mut tight = opts.clone();
            tight.limits.max_executions = budget;
            let out = check_program_resilient(&p, model, &tight, &Resilience::default());

            // Prefix soundness: nothing invented, nothing over-explored.
            let got = keys(&out.report.races);
            assert!(
                got.is_subset(&full_keys),
                "seed {seed} budget {budget}: budgeted run invented races: \
                 {got:?} ⊄ {full_keys:?}"
            );
            assert!(
                out.report.executions <= full.executions,
                "seed {seed} budget {budget}: explored {} > unbudgeted {}",
                out.report.executions,
                full.executions
            );

            match out.status {
                RunStatus::Complete => {
                    // Fit inside the budget: the verdict is the verdict.
                    assert_eq!(got, full_keys, "seed {seed} budget {budget}");
                    assert_eq!(out.report.executions, full.executions);
                }
                RunStatus::Inconclusive { .. } => {
                    // Ran out: a race-free partial report is not a
                    // race-free verdict, which is exactly why the
                    // status is not Complete.
                }
                RunStatus::Degraded { ref lost } => {
                    panic!("seed {seed}: no faults injected, yet lost shards {lost:?}")
                }
            }
        }
    }
}

/// The same property through the conformance harness's eyes: a
/// budget that ends a run early must surface as a non-Complete
/// status, never as a silently-thinner Complete report.
#[test]
fn an_exhausted_budget_is_never_reported_as_complete() {
    let mut racy = None;
    for seed in 0..24u64 {
        let p = generate(seed);
        let opts = CheckOptions { threads: 1, early_exit: false, ..CheckOptions::default() };
        let full = check_program_with(&p, MemoryModel::Drfrlx, &opts).unwrap();
        if full.executions > 4 {
            racy = Some((p, full));
            break;
        }
    }
    let (p, full) = racy.expect("some seed explores more than 4 executions");
    let mut tight = CheckOptions { threads: 1, early_exit: false, ..CheckOptions::default() };
    tight.limits.max_executions = 4;
    let out = check_program_resilient(&p, MemoryModel::Drfrlx, &tight, &Resilience::default());
    assert!(
        !out.status.is_complete(),
        "explored {} of {} executions but claimed Complete",
        out.report.executions,
        full.executions
    );
}
