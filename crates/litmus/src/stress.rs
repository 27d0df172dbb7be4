//! Four-thread stress corpus for the streaming checker.
//!
//! These programs are deliberately sized past what the seed's
//! materialize-then-check enumerator can finish under the default
//! execution budget: exhaustive interleaving counts run into the
//! millions, while sleep-set partial-order reduction collapses them by
//! orders of magnitude because most adjacent steps touch different
//! locations (or are both reads) and therefore commute. They are the
//! workload behind `results/checker_stress.txt` and the full-size case
//! of `tests/enumeration_digest.rs`.

use drfrlx_core::program::{BinOp, Expr, Program, RmwOp};
use drfrlx_core::OpClass;

/// IRIW with two writers publishing several values each and two readers
/// polling both locations — all paired, so race-free under every model.
/// 14 memory operations across 4 threads: 4,204,200 exhaustive
/// interleavings, far past the default execution budget.
pub fn iriw_stress() -> Program {
    let mut p = Program::new("iriw_stress");
    {
        let mut t = p.thread();
        for v in 1..=4 {
            t.store(OpClass::Paired, "x", v);
        }
    }
    {
        let mut t = p.thread();
        for v in 1..=4 {
            t.store(OpClass::Paired, "y", v);
        }
    }
    for (first, second) in [("x", "y"), ("y", "x")] {
        let mut t = p.thread();
        let r1 = t.load(OpClass::Paired, first);
        let r2 = t.load(OpClass::Paired, second);
        let r3 = t.load(OpClass::Paired, first);
        t.observe(r1);
        t.observe(r2);
        t.observe(r3);
    }
    p.build()
}

/// Event counter with three workers bumping two commutative histogram
/// bins and a main thread joining on all three paired done flags before
/// reading the bins. Race-free under every model; small enough that the
/// materializing reference still finishes, which makes it the
/// apples-to-apples case for comparing it with the streaming checker.
pub fn event_counter_stress() -> Program {
    let mut p = Program::new("event_counter_stress");
    for (i, bin) in ["bin0", "bin1", "bin0"].into_iter().enumerate() {
        let mut t = p.thread();
        t.rmw(OpClass::Commutative, bin, RmwOp::FetchAdd, 1 + i as i64);
        t.store(OpClass::Paired, &format!("done{i}"), 1);
    }
    {
        let mut t = p.thread();
        let d0 = t.load(OpClass::Paired, "done0");
        let d1 = t.load(OpClass::Paired, "done1");
        let d2 = t.load(OpClass::Paired, "done2");
        let joined = Expr::bin(BinOp::And, Expr::bin(BinOp::And, d0.into(), d1.into()), d2.into());
        t.if_nz(joined, |t| {
            let b0 = t.load(OpClass::Data, "bin0");
            let b1 = t.load(OpClass::Data, "bin1");
            t.observe(b0);
            t.observe(b1);
        });
    }
    p.build()
}

/// Seqlock with one writer and three concurrent readers, each doing the
/// full check-read-recheck dance over a speculative payload. Race-free
/// under every model: misspeculated payload values are never observed.
pub fn seqlock_stress() -> Program {
    let mut p = Program::new("seqlock_stress");
    {
        let mut t = p.thread();
        let old = t.cas(OpClass::Paired, "seq", 0, 1);
        let locked = Expr::bin(BinOp::Eq, old.into(), 0.into());
        t.if_nz(locked, |t| {
            t.store(OpClass::Speculative, "data", 10);
            t.store(OpClass::Paired, "seq", 2);
        });
    }
    for _ in 0..3 {
        let mut t = p.thread();
        let seq0 = t.load(OpClass::Paired, "seq");
        let r = t.load(OpClass::Speculative, "data");
        let seq1 = t.rmw(OpClass::Paired, "seq", RmwOp::FetchAdd, 0);
        let same = Expr::bin(BinOp::Eq, seq0.into(), seq1.into());
        let even = Expr::bin(BinOp::Eq, Expr::bin(BinOp::And, seq0.into(), 1.into()), 0.into());
        let ok = Expr::bin(BinOp::And, same, even);
        t.if_nz(ok, |t| {
            t.observe(r);
        });
    }
    p.build()
}

/// Rounds per counter worker in [`seqlock_counter_stress`]. Each round
/// is one commutative counter bump followed by five idempotent paired
/// progress ticks. Sized so sleep sets alone blow the default
/// execution budget (every bump conflicts with every bump and every
/// tick with every tick) while duplicate-state memoization collapses
/// the tree under every model view — including DRF0, whose all-paired
/// view pins the synchronization order of the RMW bumps and therefore
/// merges only the tick cluster. The DRF0 tree must stay within the
/// sharding probe budget so the program runs serially (and therefore
/// in identical wall-clock) at any worker count.
const COUNTER_ROUNDS: usize = 2;

/// The compound memoization workload: a seqlock writer/reader pair
/// sharing the machine with two counter workers. Thread 0 publishes a
/// speculative payload under a paired seqlock; threads 1–2 each run
/// [`COUNTER_ROUNDS`] rounds of bump-the-commutative-counter plus five
/// idempotent paired `tick <- 1` progress signals, then raise a paired
/// done flag; thread 3 runs the full seqlock check-read-recheck dance
/// and then joins on both done flags before reading the counter as
/// plain data. Race-free under every model, but the bumps and ticks
/// conflict pairwise across the workers, so sleep-set reduction alone
/// exceeds the default execution budget — only
/// `Reduction::SleepSetMemo` finishes, by merging interleavings that
/// reach the same abstract state (the bumps commute in value, the
/// ticks store the same value, and the order of same-value paired
/// stores is invisible to every race detector).
pub fn seqlock_counter_stress() -> Program {
    let mut p = Program::new("seqlock_counter_stress");
    {
        let mut t = p.thread();
        let old = t.cas(OpClass::Paired, "seq", 0, 1);
        let locked = Expr::bin(BinOp::Eq, old.into(), 0.into());
        t.if_nz(locked, |t| {
            t.store(OpClass::Speculative, "snap", 7);
            t.store(OpClass::Paired, "seq", 2);
        });
    }
    for flag in ["done0", "done1"] {
        let mut t = p.thread();
        for _ in 0..COUNTER_ROUNDS {
            t.rmw(OpClass::Commutative, "count", RmwOp::FetchAdd, 1);
            for _ in 0..5 {
                t.store(OpClass::Paired, "tick", 1);
            }
        }
        t.store(OpClass::Paired, flag, 1);
    }
    {
        let mut t = p.thread();
        let s0 = t.load(OpClass::Paired, "seq");
        let snap = t.load(OpClass::Speculative, "snap");
        let s1 = t.rmw(OpClass::Paired, "seq", RmwOp::FetchAdd, 0);
        let same = Expr::bin(BinOp::Eq, s0.into(), s1.into());
        let even = Expr::bin(BinOp::Eq, Expr::bin(BinOp::And, s0.into(), 1.into()), 0.into());
        let ok = Expr::bin(BinOp::And, same, even);
        t.if_nz(ok, |t| {
            t.observe(snap);
        });
        let d0 = t.load(OpClass::Paired, "done0");
        let d1 = t.load(OpClass::Paired, "done1");
        let joined = Expr::bin(BinOp::And, d0.into(), d1.into());
        t.if_nz(joined, |t| {
            let c = t.load(OpClass::Data, "count");
            t.observe(c);
        });
    }
    p.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::exec::{
        visit_sc, EnumLimits, EnumStats, Execution, ExecutionVisitor, Reduction,
    };
    use drfrlx_core::ExhaustReason;

    struct Count;
    impl ExecutionVisitor for Count {
        fn visit(&mut self, _e: &Execution) -> bool {
            true
        }
    }

    fn por_stats(p: &Program) -> EnumStats {
        visit_sc(p, &EnumLimits::default(), false, Reduction::SleepSet, &mut Count)
            .expect("partial-order reduction fits the default budget")
    }

    /// The headline acceptance property: with sleep sets every stress
    /// program finishes under the default execution budget, while the
    /// exhaustive reference enumerator blows it on the IRIW and seqlock
    /// variants.
    #[test]
    fn por_finishes_where_exhaustive_exceeds_the_budget() {
        let limits = EnumLimits::default();
        for p in [iriw_stress(), seqlock_stress()] {
            let stats = por_stats(&p);
            assert!(
                stats.explored < limits.max_executions,
                "{}: POR explored {} >= budget",
                p.name(),
                stats.explored
            );
            assert!(stats.pruned > 0, "{}: nothing pruned", p.name());
            let exhaustive = visit_sc(&p, &limits, false, Reduction::Exhaustive, &mut Count);
            assert_eq!(
                exhaustive.unwrap_err(),
                ExhaustReason::Executions { limit: limits.max_executions },
                "{}: exhaustive enumeration was expected to exceed the budget",
                p.name()
            );
        }
    }

    /// The PR-7 acceptance property: `seqlock_counter_stress` defeats
    /// sleep sets (20.1M explored executions, far past the default
    /// budget) but duplicate-state memoization collapses the tree —
    /// under the hardest model view too (DRF0's all-paired view pins
    /// the synchronization order of the RMW bumps and merges least).
    #[test]
    fn memoization_finishes_where_sleep_sets_exceed_the_budget() {
        use drfrlx_core::OpClass;
        let p = seqlock_counter_stress();
        let limits = EnumLimits::default();
        let sleep = visit_sc(&p, &limits, false, Reduction::SleepSet, &mut Count);
        assert_eq!(
            sleep.unwrap_err(),
            ExhaustReason::Executions { limit: limits.max_executions },
            "sleep sets alone were expected to exceed the budget"
        );
        // The DRF0 view is the stress case for the memo: every atomic
        // becomes paired, so the counter bumps stop merging and only
        // the idempotent tick cluster collapses.
        let drf0 = p.map_classes(|c| if c.is_atomic() { OpClass::Paired } else { OpClass::Data });
        for view in [&p, &drf0] {
            let memo = visit_sc(view, &limits, false, Reduction::SleepSetMemo, &mut Count)
                .expect("memoization collapses the tree under the default budget");
            assert!(memo.explored < limits.max_executions, "{}", memo.explored);
            assert!(memo.memo_pruned > 0, "nothing memo-pruned");
            assert!(memo.table_peak > 0, "empty visited table");
        }
    }

    /// `seqlock_stress` under memoization is big enough to fail the
    /// sharding probe, so it exercises the sharded memo path (per-shard
    /// visited tables). The report — verdict, counts, memo statistics,
    /// race descriptions — must still be bit-identical at any worker
    /// count.
    #[test]
    fn sharded_memoization_is_thread_count_invariant() {
        use drfrlx_core::checker::{check_program_with, CheckOptions};
        use drfrlx_core::MemoryModel;
        let p = seqlock_stress();
        let mut reports = Vec::new();
        for threads in [1usize, 2, 4] {
            let opts = CheckOptions {
                threads,
                reduction: Reduction::SleepSetMemo,
                ..CheckOptions::default()
            };
            let r = check_program_with(&p, MemoryModel::Drfrlx, &opts)
                .expect("memoized seqlock_stress fits the default budget");
            assert!(r.is_race_free());
            assert!(r.memo_pruned > 0, "nothing memo-pruned");
            reports.push((threads, format!("{r:?}")));
        }
        let (_, first) = &reports[0];
        for (threads, debug) in &reports[1..] {
            assert_eq!(debug, first, "memoized report differs at {threads} threads");
        }
    }

    /// `event_counter_stress` is the timing control: both enumerators
    /// finish, and they agree on the interleaving count modulo pruning.
    #[test]
    fn event_counter_stress_fits_both_enumerators() {
        let p = event_counter_stress();
        let por = por_stats(&p);
        let full = visit_sc(&p, &EnumLimits::default(), false, Reduction::Exhaustive, &mut Count)
            .expect("exhaustive enumeration fits the default budget");
        assert!(por.explored < full.explored, "POR should shrink the tree");
        assert_eq!(full.pruned, 0);
    }
}
