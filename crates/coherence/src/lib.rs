//! # hsim-coherence — pluggable coherence protocols
//!
//! Protocol behaviour is a first-class policy: the [`CoherencePolicy`]
//! trait captures per-line state transitions for loads/stores/atomics,
//! acquire/release actions and writeback/placement decisions, executed
//! against the shared hardware state in [`MemCore`] (per-CU L1s, banked
//! NUCA L2 + directory, store buffers, MSHRs, mesh NoC, DRAM). Three
//! protocols ship as transaction-level timing models:
//!
//! * **GPU coherence** (§2.1) — software-driven: L1s are write-through
//!   with no ownership; paired atomic loads flash-invalidate the entire
//!   L1; paired atomic stores flush the store buffer; *every* atomic is
//!   performed at its home L2 bank, so atomics serialize at the bank
//!   and can never be reused or coalesced at the L1.
//! * **DeNovo** (§2.2) — hybrid: stores and atomics obtain *ownership*
//!   (registration) at the L1 and are performed locally; reads
//!   self-invalidate only non-owned (Valid) lines at acquires; L1 MSHRs
//!   coalesce same-line requests, letting overlapped relaxed atomics to
//!   one address ride a single ownership transfer (§6.3); contended
//!   lines bounce between L1s at remote-L1 latency.
//! * **MESI-WB** — the CPU-class writeback baseline §2 contrasts
//!   against: a directory tracks sharers, writers invalidate them,
//!   reads of owned lines recall the owner, and acquires are free
//!   because the hardware keeps caches coherent.
//!
//! What the protocols share exists once: [`MemCore`] holds the
//! structural steps (directory requests, data replies, DRAM fills,
//! forwarding from an owner L1, self-invalidation, writebacks), and one
//! L1 read front end and one ownership path (store, RMW, registration)
//! serve every protocol that needs them, so each policy states only
//! where its protocol differs. The built-in protocols are built by
//! [`MemorySystem::with_tracer`] from their [`Protocol`]; a protocol
//! defined outside this crate implements [`CoherencePolicy`] and is
//! injected with [`MemorySystem::with_policy`].
//!
//! The memory system is timing + state only: functional values live in
//! the execution engine (`hsim-gpu`/`hsim-sys`), mirroring how
//! GPGPU-Sim executes functionally at issue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod memsys;
mod mesi;
mod policy;

pub use memsys::{AccessKind, CuId, MemCore, MemSysParams, MemorySystem, ProtoStats};
pub use mesi::MesiWbCoherence;
pub use policy::{CoherencePolicy, DeNovoCoherence, GpuCoherence};

pub use drfrlx_core::Protocol;
