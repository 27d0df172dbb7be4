//! MESI-WB: a writeback, ownership-based MESI-style protocol — the
//! CPU-class baseline the paper's §2 contrasts GPU coherence against.
//!
//! The directory (per-L2-bank line state) tracks either a single owner
//! (M/E collapsed into [`L1State::Registered`]) or a sharer bitmask
//! ([`crate::memsys::L2State::SharedBy`]). Reads fill shared copies; a
//! read of an owned line recalls the owner (downgrade to shared, data
//! returns to the L2). Writes obtain exclusive ownership, invalidating
//! every remote sharer through the directory (writer-initiated
//! invalidation — the inverse of the reader-initiated self-invalidation
//! GPU/DeNovo use). Atomics execute at an owned L1, so repeated atomics
//! reuse ownership exactly like DeNovo.
//!
//! Consistency hooks: **acquire is free** — hardware keeps caches
//! coherent, so there is nothing to self-invalidate; release still
//! waits for the store buffer (pending ownership upgrades) to drain.
//!
//! Stores and atomics take DeNovo's ownership path
//! ([`crate::policy::owned_store`], [`crate::policy::owned_rmw`]);
//! this file holds what differs: the read path that records sharers
//! and downgrades an owner, the sharer invalidation that
//! [`crate::policy::register`] runs for a `SharedBy` line, and the free
//! acquire. No other layer knows MESI exists beyond the
//! `Protocol::MesiWb` label used for construction and reporting.

use crate::memsys::{AccessKind, CuId, L1State, L2State, MemCore};
use crate::policy::{l1_load, owned_rmw, owned_store, CoherencePolicy};
use hsim_mem::{Addr, Cycle, LineAddr};
use hsim_trace::{EventKind, Trace};

/// Writeback MESI-style ownership coherence (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct MesiWbCoherence;

fn bit(cu: CuId) -> u64 {
    assert!(cu < 64, "MESI-WB sharer bitmask supports at most 64 CUs");
    1 << cu
}

/// Invalidate every remote sharer in `mask` via the directory:
/// multicast invalidations, collect acks, drop the copies. Returns the
/// cycle all acks have arrived back at the bank.
pub(crate) fn invalidate_sharers<T: Trace>(
    core: &mut MemCore<T>,
    dir_done: Cycle,
    cu: CuId,
    line: LineAddr,
    mask: u64,
) -> Cycle {
    let b = core.bank_of(line);
    let bank_node = core.banks[b].node;
    let mut acks_done = dir_done;
    let mut dropped = 0u64;
    for sharer in 0..core.params.num_cus {
        if sharer == cu || mask & bit(sharer) == 0 {
            continue;
        }
        let sharer_node = core.params.cu_nodes[sharer];
        let inv_at = core.noc.send(dir_done, bank_node, sharer_node, core.params.ctl_flits);
        // The mask can be stale (shared copies evict silently); only
        // an actual drop costs a tag operation.
        if core.l1s[sharer].cache.remove(line).is_some() {
            core.l1_tag_ops += 1;
            dropped += 1;
        }
        let ack_at = core.noc.send(inv_at, sharer_node, bank_node, core.params.ctl_flits);
        acks_done = acks_done.max(ack_at);
    }
    if dropped > 0 {
        core.stats.sharer_invalidations += dropped;
        core.emit(
            EventKind::SharerInvalidate,
            dir_done,
            cu as u16,
            line.0,
            dropped,
            acks_done - dir_done,
        );
    }
    acks_done
}

impl<T: Trace> CoherencePolicy<T> for MesiWbCoherence {
    /// A read adds the reader to the line's sharers; a read of an owned
    /// line recalls the owner, which downgrades to a shared copy.
    fn load(
        &self,
        core: &mut MemCore<T>,
        now: Cycle,
        cu: CuId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle {
        if kind.is_atomic() {
            return self.rmw(core, now, cu, addr);
        }
        let line = core.line(addr);
        l1_load(core, now, cu, line, |core, start| {
            let (b, dir_done) = core.dir_request(start, cu, line, core.params.ctl_flits);
            match core.banks[b].cache.lookup(line).copied() {
                Some(L2State::Owned(owner)) if owner != cu => {
                    core.forward_from_owner(dir_done, cu, line, owner, |core| {
                        if let Some(s) = core.l1s[owner].cache.lookup(line) {
                            *s = L1State::Valid;
                        }
                        core.banks[b].cache.insert(line, L2State::SharedBy(bit(owner) | bit(cu)));
                    })
                }
                Some(state) => {
                    let sharers = if let L2State::SharedBy(mask) = state { mask } else { 0 };
                    core.banks[b].cache.insert(line, L2State::SharedBy(sharers | bit(cu)));
                    core.reply(dir_done, b, cu)
                }
                None => {
                    let filled = core.dram_fill(dir_done, b, line, L2State::SharedBy(bit(cu)));
                    core.reply(filled, b, cu)
                }
            }
        })
    }

    fn store(
        &self,
        core: &mut MemCore<T>,
        now: Cycle,
        cu: CuId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle {
        if kind.is_atomic() {
            return self.rmw(core, now, cu, addr);
        }
        owned_store(core, now, cu, core.line(addr))
    }

    fn rmw(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId, addr: Addr) -> Cycle {
        owned_rmw(core, now, cu, addr)
    }

    /// Acquire is free: writer-initiated invalidation already keeps
    /// every cached copy coherent, so there is no stale data to drop.
    /// (The consistency layer still orders the access itself.)
    fn acquire(&self, _core: &mut MemCore<T>, now: Cycle, _cu: CuId) -> Cycle {
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemSysParams, MemorySystem, Protocol};

    fn sys() -> MemorySystem {
        MemorySystem::new(Protocol::MesiWb, MemSysParams::default())
    }

    #[test]
    fn load_miss_then_hit_without_acquire_penalty() {
        let mut m = sys();
        let t1 = m.load(0, 0, 100, AccessKind::DataLoad);
        assert!(t1 > 20, "miss goes through the directory: {t1}");
        // Acquire is free and drops nothing.
        let t = m.acquire(t1, 0);
        assert_eq!(t, t1, "MESI acquire costs nothing");
        assert_eq!(m.stats().lines_invalidated, 0);
        let t2 = m.load(t, 0, 100, AccessKind::DataLoad);
        assert_eq!(t2 - t, m.params().l1_hit_latency, "copy survives the acquire");
    }

    #[test]
    fn store_invalidates_remote_sharers() {
        let mut m = sys();
        // Three CUs read the line (shared copies), then CU 0 writes it.
        let mut t = 0;
        for cu in 0..3 {
            t = m.load(t, cu, 100, AccessKind::DataLoad);
        }
        let accepted = m.store(t, 0, 100, AccessKind::DataStore);
        let _ = m.release(accepted, 0);
        assert_eq!(m.stats().sharer_invalidations, 2, "CUs 1 and 2 lose their copies");
        // A reader now misses and recalls the new owner.
        let before = m.stats().l1_misses;
        let _ = m.load(accepted + 500, 1, 100, AccessKind::DataLoad);
        assert_eq!(m.stats().l1_misses, before + 1, "sharer copy was dropped");
        assert!(m.stats().remote_l1_transfers >= 1, "read recalls the owner");
    }

    #[test]
    fn read_of_owned_line_downgrades_owner_to_shared() {
        let mut m = sys();
        let t = m.rmw(0, 0, 200); // CU 0 owns the line
        let t2 = m.load(t, 1, 200, AccessKind::DataLoad); // recall
        assert_eq!(m.stats().remote_l1_transfers, 1);
        // Both keep copies: CU 0 re-reads locally...
        let t3 = m.load(t2, 0, 200, AccessKind::DataLoad);
        assert_eq!(t3 - t2, m.params().l1_hit_latency, "owner kept a shared copy");
        // ...but its next atomic must re-upgrade (invalidating CU 1).
        let _ = m.rmw(t3, 0, 200);
        assert_eq!(m.stats().sharer_invalidations, 1);
    }

    #[test]
    fn atomics_reuse_ownership_like_denovo() {
        let mut m = sys();
        let t1 = m.rmw(0, 3, 200);
        let t2 = m.rmw(t1, 3, 200);
        assert!(t2 - t1 <= 1 + m.params().l1_hit_latency, "second atomic is local: {}", t2 - t1);
        assert_eq!(m.stats().atomic_l1_reuse, 1);
        assert_eq!(m.stats().atomics_at_l1, 2);
        assert_eq!(m.stats().atomics_at_l2, 0);
    }

    #[test]
    fn contended_atomics_bounce_ownership() {
        let mut m = sys();
        let t1 = m.rmw(0, 0, 200);
        let t2 = m.rmw(t1, 5, 200);
        assert!(t2 - t1 > 30, "exclusive transfer is a 3-hop chain: {}", t2 - t1);
        assert_eq!(m.stats().remote_l1_transfers, 1);
    }

    #[test]
    fn evicting_owned_line_writes_back() {
        let mut m = sys();
        let mut t = 0;
        for i in 0..9u64 {
            let addr = i * 64 * 16; // same L1 set, distinct lines
            t = m.rmw(t, 0, addr);
        }
        assert!(m.stats().writebacks >= 1, "owned victim must write back");
    }

    #[test]
    fn invalidation_latency_scales_with_sharers() {
        let mut m = sys();
        let mut t = 0;
        for cu in 0..8 {
            t = m.load(t, cu, 100, AccessKind::DataLoad);
        }
        // The upgrade waits for all invalidation acks before the store
        // drains; measure through release.
        let accepted = m.store(t, 0, 100, AccessKind::DataStore);
        let drained = m.release(accepted, 0);
        assert!(drained - t > 40, "multicast + acks + data reply: {}", drained - t);
        assert_eq!(m.stats().sharer_invalidations, 7);
    }
}
