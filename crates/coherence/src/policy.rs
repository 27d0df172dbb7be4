//! The [`CoherencePolicy`] trait and the paper's two protocols as
//! policy implementations.
//!
//! A policy is pure protocol behaviour — per-line state transitions for
//! loads/stores/atomics, acquire/release actions, writeback/placement
//! decisions — executed against the hardware state in
//! [`MemCore`]. Policies are stateless unit structs: every per-line and
//! per-CU fact lives in the core's caches/directory, so one policy
//! value can drive any number of systems. Adding a protocol means
//! implementing this trait in one file (see `mesi.rs`) and, if it
//! should be constructible by name, extending [`policy_for`].
//!
//! The bodies of [`GpuCoherence`] and [`DeNovoCoherence`] are the former
//! `MemorySystem` match arms moved verbatim (only `self` became `core`);
//! the coherence digests in `tests/simulator_digest.rs` were frozen
//! from the original enum-dispatch monolith, so they prove the move
//! changed nothing.

use crate::memsys::{AccessKind, CuId, L1State, L2State, MemCore};
use crate::MesiWbCoherence;
use drfrlx_core::Protocol;
use hsim_mem::{Addr, Cycle, MshrOutcome};
use hsim_trace::{EventKind, Trace};

/// Per-protocol coherence behaviour, invoked by
/// [`crate::MemorySystem`] once per memory transaction.
///
/// Implementations receive the shared hardware state ([`MemCore`]) and
/// return completion cycles; they are responsible for maintaining every
/// protocol invariant (L1/L2 line states, directory contents, stats and
/// trace events).
pub trait CoherencePolicy<T: Trace> {
    /// A load (data or atomic): cycle the value reaches the CU.
    fn load(
        &self,
        core: &mut MemCore<T>,
        now: Cycle,
        cu: CuId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle;

    /// A store (data or atomic): cycle the CU may proceed (the drain
    /// may complete later, bounded by [`CoherencePolicy::release`]).
    fn store(
        &self,
        core: &mut MemCore<T>,
        now: Cycle,
        cu: CuId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle;

    /// An atomic RMW: cycle the old value is available.
    fn rmw(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId, addr: Addr) -> Cycle;

    /// Acquire-side action for a paired atomic load (self-invalidation
    /// scope is the protocol's decision).
    fn acquire(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId) -> Cycle;

    /// Release-side action for a paired atomic store.
    fn release(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId) -> Cycle {
        core.stats.sb_flushes += 1;
        core.l1s[cu].sb.flush(now)
    }
}

/// The built-in policy for `protocol`.
pub fn policy_for<T: Trace>(protocol: Protocol) -> Box<dyn CoherencePolicy<T>> {
    match protocol {
        Protocol::Gpu => Box::new(GpuCoherence),
        Protocol::DeNovo => Box::new(DeNovoCoherence),
        Protocol::MesiWb => Box::new(MesiWbCoherence),
    }
}

/// Conventional GPU coherence (§2.1): write-through L1s without
/// ownership, flash self-invalidation at acquires, every atomic
/// performed at its home L2 bank.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuCoherence;

impl<T: Trace> CoherencePolicy<T> for GpuCoherence {
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
        core.l1_accesses += 1;
        let start = now;
        // A fill still in flight wins over the (already-installed)
        // cache state: merge rather than hitting data that has not
        // arrived yet.
        if let Some(done) = core.l1s[cu].mshr.pending(start, line) {
            core.stats.mshr_coalesced += 1;
            core.emit(
                EventKind::MshrCoalesce,
                start,
                cu as u16,
                line.0,
                0,
                done.max(start) - start,
            );
            return done.max(start);
        }
        if core.l1s[cu].cache.lookup(line).is_some() {
            core.stats.l1_hits += 1;
            core.emit(EventKind::L1Hit, start, cu as u16, line.0, 0, core.params.l1_hit_latency);
            return start + core.params.l1_hit_latency;
        }
        core.stats.l1_misses += 1;
        core.emit(EventKind::L1Miss, start, cu as u16, line.0, 0, 0);
        // MSHR: merge with an in-flight fill for the same line.
        match core.l1s[cu].mshr.request(start, line) {
            MshrOutcome::Coalesced(done) => {
                core.stats.mshr_coalesced += 1;
                return done;
            }
            MshrOutcome::Full(free_at) => {
                let retry = free_at.max(start);
                return self.load(core, retry, cu, addr, kind);
            }
            MshrOutcome::Allocated => {}
        }
        let flits = core.params.data_flits;
        let done = core
            .bank_round_trip(start, cu, line, flits, |c, arrive| c.l2_access(arrive, line, true));
        core.l1s[cu].cache.insert(line, L1State::Valid);
        core.l1s[cu].mshr.set_completion(line, done);
        done
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
        let line = core.line(addr);
        core.l1_accesses += 1;
        // Write-through: compute the background drain (one-way trip +
        // bank write), then enqueue in the store buffer.
        let cu_node = core.params.cu_nodes[cu];
        let bank_node = core.banks[core.bank_of(line)].node;
        let arrive = core.noc.send(now, cu_node, bank_node, core.params.data_flits);
        let drain_done = core.l2_access(arrive, line, false);
        // Keep any L1 copy coherent with our own writes.
        if core.l1s[cu].cache.peek(line).is_some() {
            core.l1s[cu].cache.insert(line, L1State::Valid);
        }
        let accepted = core.l1s[cu].sb.push(now, line, drain_done);
        accepted + 1
    }

    /// GPU atomics always execute at the home L2 bank: round trip plus
    /// serialized bank occupancy; no reuse, no coalescing (§2.1, §6.3).
    fn rmw(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId, addr: Addr) -> Cycle {
        let line = core.line(addr);
        core.stats.atomics_at_l2 += 1;
        let done = core.bank_round_trip(now, cu, line, core.params.ctl_flits, |c, arrive| {
            c.l2_access(arrive, line, true)
        });
        core.emit(EventKind::AtomicAtL2, now, cu as u16, addr, 0, done - now);
        done
    }

    fn acquire(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId) -> Cycle {
        let dropped = core.l1s[cu].cache.invalidate_where(|_, _| true);
        core.stats.invalidation_events += 1;
        core.stats.lines_invalidated += dropped;
        core.l1_tag_ops += dropped;
        core.emit(EventKind::Invalidate, now, cu as u16, 0, dropped, 2);
        now + 2
    }
}

/// DeNovo (§2.2): ownership (registration) at the L1 for stores and
/// atomics, selective self-invalidation, atomic reuse and MSHR
/// coalescing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeNovoCoherence;

impl DeNovoCoherence {
    /// Obtain registration (ownership) of `line` for `cu`, starting at
    /// `now`; returns the completion cycle. Transfers from a previous
    /// owner cost an extra forward hop (remote-L1 latency).
    fn register<T: Trace>(
        core: &mut MemCore<T>,
        now: Cycle,
        cu: CuId,
        line: hsim_mem::LineAddr,
    ) -> Cycle {
        let cu_node = core.params.cu_nodes[cu];
        let b = core.bank_of(line);
        let bank_node = core.banks[b].node;
        let arrive = core.noc.send(now, cu_node, bank_node, core.params.ctl_flits);
        let start = core.banks[b].port.acquire(arrive, core.params.l2_occupancy);
        core.l2_accesses += 1;
        core.emit(EventKind::L2Access, start, b as u16, line.0, 0, core.params.l2_latency);
        let dir_done = start + core.params.l2_latency;
        let prev = core.banks[b].cache.lookup(line).copied();
        core.banks[b].cache.insert(line, L2State::Owned(cu));
        let data_at_cu = match prev {
            Some(L2State::Owned(owner)) if owner != cu => {
                // Forward to previous owner; it hands the line over.
                core.stats.remote_l1_transfers += 1;
                core.emit(
                    EventKind::OwnershipTransfer,
                    dir_done,
                    cu as u16,
                    line.0,
                    owner as u64,
                    0,
                );
                let owner_node = core.params.cu_nodes[owner];
                core.l1s[owner].cache.remove(line);
                core.l1_tag_ops += 1;
                let at_owner =
                    core.noc.send(dir_done, bank_node, owner_node, core.params.ctl_flits);
                let served = core.l1s[owner].port.acquire(at_owner, 1) + core.params.l1_hit_latency;
                core.l1_accesses += 1;
                core.noc.send(served, owner_node, cu_node, core.params.data_flits)
            }
            Some(_) => {
                // L2 had the data (or we already owned it): reply directly.
                core.noc.send(dir_done, bank_node, cu_node, core.params.data_flits)
            }
            None => {
                // L2 miss: fill from DRAM first.
                core.stats.dram_refills += 1;
                let filled = core.dram.access(dir_done, line.0);
                core.emit(EventKind::DramRefill, dir_done, b as u16, line.0, 0, filled - dir_done);
                core.banks[b].cache.insert(line, L2State::Owned(cu));
                core.noc.send(filled, bank_node, cu_node, core.params.data_flits)
            }
        };
        let evicted = core.l1s[cu]
            .cache
            .insert_with_pin(line, L1State::Registered, |s| *s == L1State::Registered);
        // A full set of registered lines can force a registered victim
        // out; its ownership must return to the L2 (writeback).
        core.handle_l1_eviction(data_at_cu, cu, evicted);
        data_at_cu
    }
}

impl<T: Trace> CoherencePolicy<T> for DeNovoCoherence {
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
        core.l1_accesses += 1;
        let start = now;
        if let Some(done) = core.l1s[cu].mshr.pending(start, line) {
            core.stats.mshr_coalesced += 1;
            core.emit(
                EventKind::MshrCoalesce,
                start,
                cu as u16,
                line.0,
                0,
                done.max(start) - start,
            );
            return done.max(start);
        }
        if core.l1s[cu].cache.lookup(line).is_some() {
            core.stats.l1_hits += 1;
            core.emit(EventKind::L1Hit, start, cu as u16, line.0, 0, core.params.l1_hit_latency);
            return start + core.params.l1_hit_latency;
        }
        core.stats.l1_misses += 1;
        core.emit(EventKind::L1Miss, start, cu as u16, line.0, 0, 0);
        match core.l1s[cu].mshr.request(start, line) {
            MshrOutcome::Coalesced(done) => {
                core.stats.mshr_coalesced += 1;
                return done;
            }
            MshrOutcome::Full(free_at) => {
                let retry = free_at.max(start);
                return self.load(core, retry, cu, addr, kind);
            }
            MshrOutcome::Allocated => {}
        }
        // Read request to the home bank; may be forwarded to an owner.
        let cu_node = core.params.cu_nodes[cu];
        let b = core.bank_of(line);
        let bank_node = core.banks[b].node;
        let arrive = core.noc.send(start, cu_node, bank_node, core.params.ctl_flits);
        let dir_start = core.banks[b].port.acquire(arrive, core.params.l2_occupancy);
        core.l2_accesses += 1;
        core.emit(EventKind::L2Access, dir_start, b as u16, line.0, 0, core.params.l2_latency);
        let dir_done = dir_start + core.params.l2_latency;
        let state = core.banks[b].cache.lookup(line).copied();
        let done = match state {
            Some(L2State::Owned(owner)) if owner != cu => {
                // Forward: remote L1 services the read, keeps ownership.
                core.stats.remote_l1_transfers += 1;
                core.emit(
                    EventKind::OwnershipTransfer,
                    dir_done,
                    cu as u16,
                    line.0,
                    owner as u64,
                    0,
                );
                let owner_node = core.params.cu_nodes[owner];
                let at_owner =
                    core.noc.send(dir_done, bank_node, owner_node, core.params.ctl_flits);
                let served = core.l1s[owner].port.acquire(at_owner, 1) + core.params.l1_hit_latency;
                core.l1_accesses += 1;
                core.noc.send(served, owner_node, cu_node, core.params.data_flits)
            }
            Some(_) => core.noc.send(dir_done, bank_node, cu_node, core.params.data_flits),
            None => {
                core.stats.dram_refills += 1;
                let filled = core.dram.access(dir_done, line.0);
                core.emit(EventKind::DramRefill, dir_done, b as u16, line.0, 0, filled - dir_done);
                core.banks[b].cache.insert(line, L2State::Data);
                core.noc.send(filled, bank_node, cu_node, core.params.data_flits)
            }
        };
        // Fill as Valid (read data never takes ownership in DeNovo).
        let evicted =
            core.l1s[cu].cache.insert_with_pin(line, L1State::Valid, |s| *s == L1State::Registered);
        core.handle_l1_eviction(done, cu, evicted);
        core.l1s[cu].mshr.set_completion(line, done);
        done
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
        let line = core.line(addr);
        core.l1_accesses += 1;
        let start = now;
        let pending = core.l1s[cu].mshr.pending(start, line);
        if pending.is_none() && core.l1s[cu].cache.lookup(line) == Some(&mut L1State::Registered) {
            // Owned: write locally, writeback caching.
            core.stats.l1_hits += 1;
            core.emit(EventKind::L1Hit, start, cu as u16, line.0, 0, core.params.l1_hit_latency);
            return start + core.params.l1_hit_latency;
        }
        core.stats.l1_misses += 1;
        core.emit(EventKind::L1Miss, start, cu as u16, line.0, 0, 0);
        // Pend in the store buffer while registration is in flight.
        let drain_done = match core.l1s[cu].mshr.request(start, line) {
            MshrOutcome::Coalesced(done) => {
                core.stats.mshr_coalesced += 1;
                done
            }
            MshrOutcome::Full(free_at) => {
                let retry = free_at.max(start);
                return self.store(core, retry, cu, addr, kind);
            }
            MshrOutcome::Allocated => {
                let done = DeNovoCoherence::register(core, start, cu, line);
                core.l1s[cu].mshr.set_completion(line, done);
                done
            }
        };
        let accepted = core.l1s[cu].sb.push(start, line, drain_done);
        accepted + 1
    }

    /// DeNovo atomics execute at the L1 once the line is registered —
    /// repeated atomics to the same line hit locally (reuse), and
    /// concurrent requests to one line share a single registration via
    /// the MSHR (coalescing).
    fn rmw(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId, addr: Addr) -> Cycle {
        let line = core.line(addr);
        core.stats.atomics_at_l1 += 1;
        core.emit(EventKind::AtomicAtL1, now, cu as u16, addr, 0, 0);
        core.l1_accesses += 1;
        let start = now;
        if let Some(done) = core.l1s[cu].mshr.pending(start, line) {
            if core.params.atomic_coalescing {
                // Ownership transfer in flight: coalesce, then perform
                // locally once it lands (serialized by the L1 port).
                core.stats.mshr_coalesced += 1;
                core.emit(
                    EventKind::MshrCoalesce,
                    start,
                    cu as u16,
                    line.0,
                    0,
                    done.max(start) - start,
                );
                let served = core.l1s[cu].port.acquire(done.max(start), 1);
                return served + core.params.l1_hit_latency;
            }
            // Ablation: no coalescing — wait out the in-flight fill,
            // then issue a fresh (redundant) registration round trip.
            let refetch = DeNovoCoherence::register(core, done.max(start), cu, line);
            let served = core.l1s[cu].port.acquire(refetch, 1);
            return served + core.params.l1_hit_latency;
        }
        if core.l1s[cu].cache.lookup(line) == Some(&mut L1State::Registered) {
            core.stats.atomic_l1_reuse += 1;
            core.stats.l1_hits += 1;
            core.emit(EventKind::AtomicReuse, start, cu as u16, line.0, 0, 0);
            core.emit(EventKind::L1Hit, start, cu as u16, line.0, 0, core.params.l1_hit_latency);
            // The L1 port serializes atomic performs at one per cycle.
            let served = core.l1s[cu].port.acquire(start, 1);
            return served + core.params.l1_hit_latency;
        }
        core.stats.l1_misses += 1;
        core.emit(EventKind::L1Miss, start, cu as u16, line.0, 0, 0);
        let owned_at = match core.l1s[cu].mshr.request(start, line) {
            MshrOutcome::Coalesced(done) => {
                core.stats.mshr_coalesced += 1;
                done
            }
            MshrOutcome::Full(free_at) => {
                let retry = free_at.max(start);
                return self.rmw(core, retry, cu, addr);
            }
            MshrOutcome::Allocated => {
                let done = DeNovoCoherence::register(core, start, cu, line);
                core.l1s[cu].mshr.set_completion(line, done);
                done
            }
        };
        // Perform locally once owned; the L1 port serializes piled-up
        // coalesced atomics at one per cycle.
        let served = core.l1s[cu].port.acquire(owned_at, 1);
        served + core.params.l1_hit_latency
    }

    fn acquire(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId) -> Cycle {
        let dropped = core.l1s[cu].cache.invalidate_where(|_, s| *s == L1State::Valid);
        core.stats.invalidation_events += 1;
        core.stats.lines_invalidated += dropped;
        core.l1_tag_ops += dropped;
        core.emit(EventKind::Invalidate, now, cu as u16, 0, dropped, 2);
        now + 2
    }
}
