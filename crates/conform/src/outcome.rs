//! Outcome normalization and the axiomatic oracle.
//!
//! Both halves of the conformance loop report final states in
//! different shapes: the enumerator's [`ExecResult`] keeps sparse
//! per-thread register maps (only registers actually written appear),
//! while the simulator dumps a dense, zero-initialized observation
//! window. An [`Outcome`] is the common normal form — dense final
//! memory plus dense final register files, never-written registers
//! reading as 0 on both sides (exactly the read-as-zero convention of
//! [`drfrlx_core::program::Expr::eval_slice`]).
//!
//! The oracle enumerates the **SC outcome set** of the original
//! program via the streaming visitor. That is the tightest sound
//! baseline for every configuration: the simulator's engine applies
//! functional memory effects atomically at issue time in scheduler
//! order, so any observed outcome corresponds to some SC interleaving
//! — and the DRF0/DRF1/DRFrlx models all admit at least the SC
//! outcomes. An observed outcome outside this set is therefore a
//! genuine soundness violation under *every* model.

use crate::compile::CompiledLitmus;
use drfrlx_core::exec::{
    visit_sc_resilient, EnumError, EnumLimits, EnumStats, ExecResult, Execution, ExecutionVisitor,
    Reduction,
};
use drfrlx_core::program::{Loc, Program, Reg};
use drfrlx_core::resilience::{require_complete, Budget, Resilience};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One normalized final state: dense memory (indexed by `Loc`) and
/// dense per-thread register files (unwritten = 0).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome {
    /// Final value of location `l` at index `l`.
    pub mem: Vec<i64>,
    /// Final register `r` of thread `t` at `regs[t][r]`.
    pub regs: Vec<Vec<i64>>,
}

impl Outcome {
    /// Normalize an axiomatic [`ExecResult`] against the compiled
    /// layout.
    pub fn from_exec(shape: &CompiledLitmus, r: &ExecResult) -> Outcome {
        let p = &shape.program;
        let mem = (0..p.num_locs()).map(|l| *r.memory.get(&Loc(l as u32)).unwrap_or(&0)).collect();
        let regs = shape
            .reg_counts
            .iter()
            .enumerate()
            .map(|(t, &rc)| {
                (0..rc)
                    .map(|i| {
                        r.regs.get(t).and_then(|m| m.get(&Reg(i as u16))).copied().unwrap_or(0)
                    })
                    .collect()
            })
            .collect();
        Outcome { mem, regs }
    }

    /// Normalize a simulator memory image (locations + observation
    /// windows) against the compiled layout.
    pub fn from_sim_memory(shape: &CompiledLitmus, memory: &[u64]) -> Outcome {
        let mem = (0..shape.program.num_locs()).map(|l| memory[l] as i64).collect();
        let regs = shape
            .reg_counts
            .iter()
            .zip(&shape.obs_base)
            .map(|(&rc, &base)| (0..rc).map(|i| memory[base + i] as i64).collect())
            .collect();
        Outcome { mem, regs }
    }

    /// Compact display: `mem=[..] regs=[[..], ..]`.
    pub fn render(&self) -> String {
        format!("mem={:?} regs={:?}", self.mem, self.regs)
    }
}

/// Streaming visitor accumulating the outcome set.
struct OutcomeSet<'a> {
    shape: &'a CompiledLitmus,
    set: BTreeSet<Outcome>,
}

impl ExecutionVisitor for OutcomeSet<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        self.set.insert(Outcome::from_exec(self.shape, &e.result));
        true
    }
}

/// Enumerate the allowed (SC) outcome set of `p` on `threads` workers,
/// polling `budget` (when present). The oracle draws no faults.
///
/// Uses sleep-set partial-order reduction: commuting adjacent steps
/// touch different locations (or are both reads), so the pruned order
/// produces the identical `ExecResult` — the outcome *set* is exact.
/// Memoized reduction would not be (its fingerprint is checker-grade),
/// so it is deliberately not offered here.
///
/// # Errors
///
/// Returns [`EnumError::Executions`] when the interleaving tree
/// exceeds `limits.max_executions`, and the budget's reason when it
/// trips.
///
/// # Panics
///
/// Re-raises the original panic of a shard that panicked on both its
/// try and its retry.
pub fn allowed_outcomes(
    shape: &CompiledLitmus,
    limits: &EnumLimits,
    budget: Option<&Arc<Budget>>,
    threads: usize,
) -> Result<(BTreeSet<Outcome>, EnumStats), EnumError> {
    let p: &Program = &shape.program;
    let mut run = visit_sc_resilient(
        p,
        limits,
        false,
        Reduction::SleepSet,
        threads,
        &|| OutcomeSet { shape, set: BTreeSet::new() },
        &|_| false,
        &Resilience { budget: budget.cloned(), fault_plan: None },
    );
    require_complete(&run.status, run.lost_panic.take())?;
    let mut set = BTreeSet::new();
    for (v, _) in run.shards {
        set.extend(v.set);
    }
    Ok((set, run.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use drfrlx_core::prelude::*;
    use drfrlx_core::OpClass;

    /// Store-buffering shape: the SC set excludes the `(0, 0)` outcome.
    fn sb() -> Program {
        let mut p = Program::new("sb");
        {
            let mut t = p.thread();
            t.store(OpClass::Paired, "x", 1);
            let r = t.load(OpClass::Paired, "y");
            t.observe(r);
        }
        {
            let mut t = p.thread();
            t.store(OpClass::Paired, "y", 1);
            let r = t.load(OpClass::Paired, "x");
            t.observe(r);
        }
        p.build()
    }

    #[test]
    fn sc_set_of_store_buffering_has_no_zero_zero() {
        let p = sb();
        let shape = compile(&p);
        let (allowed, _) = allowed_outcomes(&shape, &EnumLimits::default(), None, 1).unwrap();
        // 3 outcomes: (r1,r2) in {(0,1),(1,0),(1,1)} — never (0,0).
        assert_eq!(allowed.len(), 3);
        assert!(!allowed.iter().any(|o| o.regs[0][0] == 0 && o.regs[1][0] == 0));
    }

    #[test]
    fn sharded_oracle_is_thread_invariant() {
        let p = sb();
        let shape = compile(&p);
        let (t1, _) = allowed_outcomes(&shape, &EnumLimits::default(), None, 1).unwrap();
        let (t4, _) = allowed_outcomes(&shape, &EnumLimits::default(), None, 4).unwrap();
        assert_eq!(t1, t4);
    }

    #[test]
    fn sleep_set_outcome_set_matches_exhaustive() {
        let p = sb();
        let shape = compile(&p);
        let execs = enumerate_sc(&p, &EnumLimits::default()).unwrap();
        let exhaustive: BTreeSet<Outcome> =
            execs.iter().map(|e| Outcome::from_exec(&shape, &e.result)).collect();
        let (reduced, _) = allowed_outcomes(&shape, &EnumLimits::default(), None, 1).unwrap();
        assert_eq!(exhaustive, reduced);
    }

    #[test]
    fn normalization_reads_unwritten_registers_as_zero() {
        let mut p = Program::new("t");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Paired, "x");
            t.observe(r);
        }
        let p = p.build();
        let shape = compile(&p);
        let (allowed, _) = allowed_outcomes(&shape, &EnumLimits::default(), None, 1).unwrap();
        assert_eq!(allowed.len(), 1);
        let o = allowed.iter().next().unwrap();
        assert_eq!(o.mem, vec![0]);
        assert_eq!(o.regs, vec![vec![0]]);
    }
}
