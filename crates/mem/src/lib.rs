//! # hsim-mem — memory-hierarchy structures
//!
//! Building blocks for the heterogeneous-system simulator (paper §4.1/
//! Table 2): set-associative cache arrays with pluggable per-line
//! state, miss-status holding registers (MSHRs) with same-address
//! coalescing — the mechanism behind DeNovo's atomic-coalescing
//! advantage (§6.3) — FIFO store buffers, a DRAM timing model, and a
//! generic busy-until [`Resource`] timeline used for cache ports and
//! bank arbitration.
//!
//! These types model structure and timing only: they keep no
//! statistics and emit no trace events. The coherence layer that
//! drives them (`hsim-coherence`'s `MemCore`) counts and traces every
//! memory-hierarchy event, once, from what their calls return.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod mshr;
mod resource;
mod storebuf;

pub use cache::{Cache, CacheParams, EvictedLine};
pub use dram::{Dram, DramParams};
pub use mshr::{Mshr, MshrOutcome};
pub use resource::Resource;
pub use storebuf::StoreBuffer;

/// Word-granular memory address (the simulator's unit of data).
pub type Addr = u64;

/// Simulation time in cycles.
pub type Cycle = u64;

/// A cache-line address: `addr / words_per_line`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Line containing a word address given the line size in words.
    pub fn of(addr: Addr, words_per_line: u64) -> LineAddr {
        LineAddr(addr / words_per_line)
    }
}
