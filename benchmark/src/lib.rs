//! # drfrlx-benchmark — end-to-end and per-layer measurement
//!
//! Four seeded workloads cover both halves of the system: the
//! simulator (`sim_drf0`, `sim_drfrlx`), the axiomatic checker
//! (`check_corpus`) and the conformance loop that joins them
//! (`conform_fuzz`). An untraced run prints the end-to-end metrics; a
//! separate traced run prints per-layer metrics, measured only from
//! outside: by timing calls into each crate's public functions and by
//! wrapping the public `MemoryBackend`, `Kernel`/`WorkItem` and
//! `ExecutionVisitor` traits. Every op's output is checked.
//!
//! See `benchmark/README.md` for the workloads, metrics and bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod checker;
pub mod compare;
pub mod host;
pub mod oracle;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
