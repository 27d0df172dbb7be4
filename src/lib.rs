//! # drfrlx — "Chasing Away RAts" (ISCA 2017), reproduced in Rust
//!
//! This workspace facade re-exports the two halves of the
//! reproduction:
//!
//! * **The DRFrlx memory model** ([`model`] = `drfrlx-core`,
//!   [`litmus`] = `drfrlx-litmus`): SC-centric semantics for relaxed
//!   atomics — unpaired, commutative, non-ordering, quantum and
//!   speculative — with an executable programmer-centric race detector
//!   (the paper's Listing 7) and a system-centric relaxed machine.
//! * **The evaluation platform** ([`sim`] = `hsim-*`,
//!   [`workloads`] = `drfrlx-workloads`): a deterministic cycle-level
//!   simulator of the paper's integrated CPU-GPU system — mesh NoC,
//!   private L1s + banked NUCA L2, GPU and DeNovo coherence, DRF0 /
//!   DRF1 / DRFrlx enforcement — plus every Table 3 workload.
//!
//! See `examples/` for runnable entry points, `crates/bench` for the
//! per-figure/table harnesses, and `EXPERIMENTS.md` for measured
//! results against the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The memory-model core (`drfrlx-core`).
pub mod model {
    pub use drfrlx_core::*;
}

/// The litmus corpus (`drfrlx-litmus`).
pub mod litmus {
    pub use drfrlx_litmus::*;
}

/// The simulator stack (`hsim-sys` and friends).
pub mod sim {
    pub use hsim_coherence as coherence;
    pub use hsim_energy as energy;
    pub use hsim_gpu as gpu;
    pub use hsim_mem as mem;
    pub use hsim_noc as noc;
    pub use hsim_sys::*;
    pub use hsim_trace as trace;
}

/// The evaluation workloads (`drfrlx-workloads`).
pub mod workloads {
    pub use drfrlx_workloads::*;
}

/// The experiment harness (`drfrlx-bench`): the registry of paper
/// artifacts behind `drfrlx bench <id>`.
pub mod bench {
    pub use drfrlx_bench::*;
}

/// The litmus→simulator conformance harness (`drfrlx-conform`):
/// compile litmus tests to kernels, compare simulated outcomes against
/// the axiomatic oracle, fuzz and shrink — behind `drfrlx conform`.
pub mod conform {
    pub use drfrlx_conform::*;
}

pub mod cli;

pub use drfrlx_core::{check_program, CheckReport, MemoryModel, OpClass, Protocol, SystemConfig};
