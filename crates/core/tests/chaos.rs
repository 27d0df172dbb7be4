//! Chaos suite for the resilient checker: deterministic fault
//! injection (panics, stalls, budget exhaustion) must always come back
//! as a structured `Degraded`/`Inconclusive` report — never a process
//! abort.

use drfrlx_core::checker::{
    check_program_resilient, check_program_with, CheckOptions, CheckReport, CheckResilience,
    RaceKey,
};
use drfrlx_core::exec::{EnumLimits, Reduction};
use drfrlx_core::resilience::{Budget, EngineId, ExhaustReason, Fault, FaultPlan, RunStatus};
use drfrlx_core::{MemoryModel, OpClass, Program};
use std::sync::Arc;
use std::time::Duration;

/// A program whose interleaving tree overflows the 512-execution
/// sharding probe: every store conflicts (same location), so sleep
/// sets prune nothing and 3 threads × 3 stores give 9!/(3!)^3 =
/// 1 680 interleavings.
fn wide() -> Program {
    let mut p = Program::new("wide");
    for t in 0..3 {
        let mut th = p.thread();
        for i in 0..3 {
            th.store(OpClass::Data, "x", (t * 3 + i) as i64);
        }
    }
    p.build()
}

/// Everything a report asserts on, comparable.
#[allow(clippy::type_complexity)]
fn sig(r: &CheckReport) -> (usize, usize, usize, usize, bool, Vec<(RaceKey, usize, String)>) {
    (
        r.executions,
        r.pruned,
        r.memo_pruned,
        r.table_peak,
        r.is_race_free(),
        r.races.iter().map(|f| (f.key, f.exec_index, f.description.clone())).collect(),
    )
}

fn keys(r: &CheckReport) -> Vec<RaceKey> {
    r.races.iter().map(|f| f.key).collect()
}

fn opts(threads: usize) -> CheckOptions {
    CheckOptions { threads, early_exit: false, ..CheckOptions::default() }
}

#[test]
fn resilient_complete_run_matches_the_plain_checker() {
    let p = wide();
    for reduction in [Reduction::SleepSet, Reduction::SleepSetMemo] {
        let o = CheckOptions { reduction, ..opts(1) };
        let plain = check_program_with(&p, MemoryModel::Drfrlx, &o).unwrap();
        for threads in [1, 4] {
            let o = CheckOptions { reduction, ..opts(threads) };
            let out =
                check_program_resilient(&p, MemoryModel::Drfrlx, &o, &CheckResilience::default());
            assert_eq!(out.status, RunStatus::Complete, "{reduction:?} t={threads}");
            assert_eq!(sig(&out.report), sig(&plain), "{reduction:?} t={threads}");
        }
    }
}

#[test]
fn injected_panic_is_retried_and_the_run_completes() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 2, 1, Fault::Panic)),
    };
    let out = check_program_resilient(&p, MemoryModel::Drfrlx, &opts(1), &res);
    assert_eq!(out.status, RunStatus::Complete, "one panic is absorbed by the retry");
    assert_eq!(sig(&out.report), sig(&plain));
}

#[test]
fn injected_stall_is_retried_and_the_run_completes() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 0, 1, Fault::Stall)),
    };
    let out = check_program_resilient(&p, MemoryModel::Drfrlx, &opts(1), &res);
    assert_eq!(out.status, RunStatus::Complete);
    assert_eq!(sig(&out.report), sig(&plain));
}

#[test]
fn repeated_panic_degrades_instead_of_aborting() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 3, 2, Fault::Panic)),
    };
    for threads in [1, 4] {
        let out = check_program_resilient(&p, MemoryModel::Drfrlx, &opts(threads), &res);
        assert_eq!(out.status, RunStatus::Degraded { lost: vec![3] }, "t={threads}");
        // Prefix-soundness: a degraded report never invents races.
        for k in keys(&out.report) {
            assert!(keys(&plain).contains(&k), "t={threads}: degraded race {k:?} not in full set");
        }
        assert!(out.report.executions < plain.executions, "t={threads}");
    }
}

#[test]
fn execution_budget_yields_inconclusive_with_a_frontier() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    // Above the probe budget (so the run shards), below the full tree.
    let o = CheckOptions {
        limits: EnumLimits { max_executions: 600, ..EnumLimits::default() },
        ..opts(1)
    };
    let out = check_program_resilient(&p, MemoryModel::Drfrlx, &o, &CheckResilience::default());
    match &out.status {
        RunStatus::Inconclusive { reason, frontier } => {
            assert_eq!(*reason, ExhaustReason::Executions { limit: 600 });
            assert!(!frontier.is_empty());
            assert_eq!(
                frontier.len() + out.completed_shards,
                out.total_shards,
                "every shard is either completed or on the frontier"
            );
        }
        s => panic!("expected Inconclusive, got {s:?}"),
    }
    // Prefix-soundness: explored ≤ unbudgeted, races ⊆ unbudgeted.
    assert!(out.report.executions <= plain.executions);
    for k in keys(&out.report) {
        assert!(keys(&plain).contains(&k));
    }
}

#[test]
fn an_expired_deadline_yields_inconclusive_not_an_abort() {
    let p = wide();
    let o = CheckOptions {
        limits: EnumLimits {
            budget: Some(Arc::new(Budget::with_timeout(Duration::from_secs(0)))),
            ..EnumLimits::default()
        },
        ..opts(2)
    };
    let out = check_program_resilient(&p, MemoryModel::Drfrlx, &o, &CheckResilience::default());
    match out.status {
        RunStatus::Inconclusive { reason, .. } => {
            assert!(
                matches!(reason, ExhaustReason::Deadline | ExhaustReason::Cancelled),
                "got {reason:?}"
            );
        }
        s => panic!("expected Inconclusive, got {s:?}"),
    }
}

#[test]
fn cancellation_mid_run_keeps_a_sound_prefix() {
    let p = wide();
    let budget = Arc::new(Budget::unlimited());
    budget.cancel();
    let o = CheckOptions {
        limits: EnumLimits { budget: Some(budget), ..EnumLimits::default() },
        ..opts(1)
    };
    let out = check_program_resilient(&p, MemoryModel::Drfrlx, &o, &CheckResilience::default());
    match out.status {
        RunStatus::Inconclusive { reason: ExhaustReason::Cancelled, .. } => {}
        s => panic!("expected Inconclusive(Cancelled), got {s:?}"),
    }
}

#[test]
fn seeded_fault_plans_are_deterministic_and_never_abort() {
    let p = wide();
    for seed in 1..=5u64 {
        let res = CheckResilience { fault_plan: Some(FaultPlan::seeded(seed)) };
        let a = check_program_resilient(&p, MemoryModel::Drfrlx, &opts(1), &res);
        let b = check_program_resilient(&p, MemoryModel::Drfrlx, &opts(1), &res);
        assert_eq!(a.status, b.status, "seed {seed}");
        assert_eq!(sig(&a.report), sig(&b.report), "seed {seed}");
        // A seeded plan never injects at attempt 1 in exactly the
        // spots it hit at attempt 0 unless the hash says so, so some
        // shards may be lost — but the run must always end in a
        // structured status.
        match &a.status {
            RunStatus::Complete | RunStatus::Degraded { .. } | RunStatus::Inconclusive { .. } => {}
        }
    }
}
