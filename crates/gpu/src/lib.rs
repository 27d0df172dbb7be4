//! # hsim-gpu — GPU execution engine and work-item IR
//!
//! The compute side of the simulated heterogeneous system (paper §4.1):
//! GPU compute units (CUs) running many hardware contexts, per-block
//! scratchpads, block barriers, and — central to the paper — the
//! consistency-model enforcement that differentiates DRF0 / DRF1 /
//! DRFrlx (Table 4):
//!
//! | effective strength | invalidate at loads | flush SB at stores | overlap |
//! |--------------------|--------------------|--------------------|---------|
//! | paired             | yes                | yes                | no      |
//! | unpaired           | no                 | no                 | no      |
//! | relaxed            | no                 | no                 | yes     |
//!
//! Workloads are written against the [`Kernel`] / [`WorkItem`] traits
//! and annotate every access with an [`drfrlx_core::OpClass`]; the same
//! workload binary runs under any model because the engine maps classes
//! to strengths via [`drfrlx_core::MemoryModel::strength_of`].
//!
//! Model enforcement itself is a policy, not engine control flow: a
//! [`ConsistencyPolicy`] turns each (operation, strength) into an
//! [`AccessActions`] table (fence / flush / invalidate / overlap), and
//! the engine executes whatever the table says. The DRF family is
//! [`DrfPolicy`]; [`run_kernel_policy`] accepts any other
//! implementation.
//!
//! Modelling notes (documented substitutions, see DESIGN.md): a
//! "context" executes one work-item instruction stream (warp-level
//! lockstep and intra-warp coalescing are folded into the MSHR/port
//! contention of the memory system); CUs issue one operation per cycle;
//! execution is event-driven and fully deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod consistency;
mod engine;
mod ir;

pub use consistency::{AccessActions, ConsistencyPolicy, DrfPolicy};
pub use engine::{
    run_kernel, run_kernel_policy, run_kernel_traced, EngineParams, EngineReport, IssueJitter,
    MemoryBackend,
};
pub use ir::{Kernel, Op, RmwKind, WorkItem};

/// Simulation time in cycles.
pub type Cycle = u64;

/// Word address in the shared global memory.
pub type Addr = u64;

/// The simulator's value type.
pub type Value = u64;
