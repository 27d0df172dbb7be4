//! # drfrlx-core — the DRFrlx memory consistency model
//!
//! This crate is a from-scratch Rust implementation of the memory-model
//! machinery of *"Chasing Away RAts: Semantics and Evaluation for Relaxed
//! Atomics on Heterogeneous Systems"* (Sinclair, Alsop, Adve — ISCA 2017).
//!
//! The paper extends the data-race-free family of consistency models
//! (DRF0, DRF1) with five classes of relaxed atomics — *unpaired*,
//! *commutative*, *non-ordering*, *quantum* and *speculative* — and gives
//! each an SC-centric contract. The paper formalized the model with the
//! Herd tool (its Listing 7); this crate reimplements that formalization
//! natively:
//!
//! * [`program`] — a small litmus-program representation: straight-line
//!   threads of loads/stores/RMWs over named locations, with register
//!   computation and explicit address/data/control dependencies.
//! * [`exec`] — enumeration of **all SC executions** of a program,
//!   producing [`exec::Execution`]s that carry the `po`, `rf`, `co` and
//!   dependency relations.
//! * [`relation`] — a tiny relation-algebra toolkit (union, intersection,
//!   difference, composition, transitive closure, class restriction)
//!   mirroring the combinators Herd models are written in.
//! * [`races`] — the programmer-centric model: the race detectors of
//!   Listing 7 (`data`, `commutative`, `non-ordering`, `quantum`,
//!   `speculative`), including program/conflict-graph ordering paths and
//!   valid paths.
//! * [`checker`] — whole-program verdicts: is this program DRF0 / DRF1 /
//!   DRFrlx? Handles the *quantum transformation* (quantum loads return
//!   arbitrary values) of §3.4.
//! * [`syscentric`] — the system-centric model: an operational relaxed
//!   machine that reorders exactly what a DRFrlx-compliant system may
//!   reorder, used to confirm that race-free programs only produce SC
//!   results (Theorem 3.1, checked empirically).
//! * [`classes`] — the shared vocabulary ([`OpClass`], [`MemoryModel`],
//!   [`Protocol`], [`SystemConfig`]) also used by the `hsim-*` simulator
//!   crates.
//!
//! ## Quickstart
//!
//! ```
//! use drfrlx_core::prelude::*;
//!
//! // The paper's event-counter use case (Listing 2), reduced: two
//! // threads increment a shared counter with commutative atomics.
//! let mut p = Program::new("event_counter");
//! p.thread().rmw(OpClass::Commutative, "count", RmwOp::FetchAdd, 1);
//! p.thread().rmw(OpClass::Commutative, "count", RmwOp::FetchAdd, 1);
//!
//! let report = check_program(&p.build(), MemoryModel::Drfrlx);
//! assert!(report.is_race_free(), "commutative increments are DRFrlx");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axiomatic;
pub mod checker;
pub mod classes;
pub mod emit;
pub mod exec;
mod fingerprint;
pub mod infer;
pub mod parse;
pub mod pretty;
pub mod program;
pub mod quantum;
pub mod races;
pub mod relation;
pub mod resilience;
pub mod syscentric;

/// Convenient glob-import surface for the most common items.
pub mod prelude {
    pub use crate::checker::{check_program, CheckReport, Verdict};
    pub use crate::classes::{MemoryModel, OpClass, Protocol, SystemConfig};
    pub use crate::exec::{enumerate_sc, EnumLimits, Execution};
    pub use crate::program::{Expr, Program, RmwOp, ThreadBuilder};
    pub use crate::races::{analyze, Race, RaceAnalysis, RaceDetector, RaceKind};
    pub use crate::syscentric::{explore_relaxed, RelaxedOutcomes};
}

pub use checker::{check_program, check_program_resilient, CheckOutcome, CheckReport, Verdict};
pub use classes::{MemoryModel, OpClass, Protocol, SystemConfig};
pub use exec::{enumerate_sc, EnumLimits, Execution};
pub use program::{Program, RmwOp};
pub use races::{Race, RaceAnalysis, RaceDetector, RaceKind};
pub use resilience::{Budget, EngineId, ExhaustReason, Fault, FaultPlan, Resilience, RunStatus};
