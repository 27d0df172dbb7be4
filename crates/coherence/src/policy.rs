//! The [`CoherencePolicy`] trait, the front ends the protocols share,
//! and the paper's two protocols as policy implementations.
//!
//! A policy is pure protocol behaviour — per-line state transitions for
//! loads/stores/atomics, acquire/release actions, writeback/placement
//! decisions — executed against the hardware state in
//! [`MemCore`]. Policies are stateless unit structs: every per-line and
//! per-CU fact lives in the core's caches/directory, so one policy
//! value can drive any number of systems.
//!
//! The machinery two or three protocols have in common exists once:
//! [`l1_load`] is every protocol's L1 read front end, and
//! [`owned_store`], [`owned_rmw`] and [`register`] are the ownership
//! path DeNovo and MESI-WB share. Each protocol states only where it
//! differs:
//!
//! * GPU: write-through stores, atomics at the L2, flash invalidation;
//! * DeNovo: a read leaves the owner in place, an acquire drops the
//!   `Valid` lines;
//! * MESI-WB (`mesi.rs`): a read records sharers and downgrades the
//!   owner, an acquire is free.
//!
//! The coherence digests in `tests/simulator_digest.rs` pin every
//! protocol's completion cycles, counters and trace events.

use crate::memsys::{AccessKind, CuId, L1State, L2State, MemCore};
use crate::mesi::invalidate_sharers;
use hsim_mem::{Addr, Cycle, LineAddr, MshrOutcome};
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

    /// Release-side action for a paired atomic store. The default
    /// flushes the CU's store buffer and counts and traces the flush.
    fn release(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId) -> Cycle {
        core.stats.sb_flushes += 1;
        let pending = core.l1s[cu].sb.len() as u64;
        let done = core.l1s[cu].sb.flush(now);
        core.emit(EventKind::SbFlush, now, cu as u16, 0, pending, done - now);
        done
    }
}

/// The L1 read front end of every protocol: a fill still in flight
/// wins over the (already-installed) cache state, then a hit, then
/// [`l1_miss`]. `fill` fetches the line from the cycle it is given and
/// returns the cycle it reaches `cu`, where it is installed `Valid`.
pub(crate) fn l1_load<T: Trace>(
    core: &mut MemCore<T>,
    mut now: Cycle,
    cu: CuId,
    line: LineAddr,
    fill: impl Fn(&mut MemCore<T>, Cycle) -> Cycle,
) -> Cycle {
    loop {
        core.l1_accesses += 1;
        if let Some(done) = core.l1s[cu].mshr.pending(now, line) {
            core.stats.mshr_coalesced += 1;
            let done = done.max(now);
            core.emit(EventKind::MshrCoalesce, now, cu as u16, line.0, 0, done - now);
            return done;
        }
        if core.l1s[cu].cache.lookup(line).is_some() {
            core.stats.l1_hits += 1;
            core.emit(EventKind::L1Hit, now, cu as u16, line.0, 0, core.params.l1_hit_latency);
            return now + core.params.l1_hit_latency;
        }
        let fetched = l1_miss(core, now, cu, line, |core, start| {
            let done = fill(core, start);
            let evicted = core.l1s[cu]
                .cache
                .insert_with_pin(line, L1State::Valid, |s| *s == L1State::Registered);
            core.handle_l1_eviction(done, cu, evicted);
            done
        });
        match fetched {
            Ok(done) => return done,
            Err(retry) => now = retry,
        }
    }
}

/// An L1 miss on `line` at `now`: count and trace it, then merge with
/// a same-line request in flight (counted and traced) or take an MSHR
/// entry and `fetch` the line, whose arrival completes the entry.
/// Returns the cycle the line arrives, or `Err` with the cycle to retry
/// the whole access at when every MSHR entry is busy (traced as a
/// stall).
fn l1_miss<T: Trace>(
    core: &mut MemCore<T>,
    now: Cycle,
    cu: CuId,
    line: LineAddr,
    fetch: impl FnOnce(&mut MemCore<T>, Cycle) -> Cycle,
) -> Result<Cycle, Cycle> {
    core.stats.l1_misses += 1;
    core.emit(EventKind::L1Miss, now, cu as u16, line.0, 0, 0);
    match core.l1s[cu].mshr.request(now, line) {
        MshrOutcome::Coalesced(done) => {
            core.stats.mshr_coalesced += 1;
            core.emit(EventKind::MshrCoalesce, now, cu as u16, line.0, 0, done.saturating_sub(now));
            Ok(done)
        }
        MshrOutcome::Full(free_at) => {
            core.emit(EventKind::MshrStall, now, cu as u16, line.0, 0, free_at.saturating_sub(now));
            Err(free_at.max(now))
        }
        MshrOutcome::Allocated => {
            let done = fetch(core, now);
            core.l1s[cu].mshr.set_completion(line, done);
            Ok(done)
        }
    }
}

/// Obtain ownership of `line` for `cu`, starting at `now`: the
/// directory forwards to a previous owner, which hands the line over
/// and drops its copy, or invalidates the sharers a MESI-WB read
/// recorded; then the line is installed [`L1State::Registered`].
/// Returns the cycle the data (and all invalidation acks) reach `cu`.
pub(crate) fn register<T: Trace>(
    core: &mut MemCore<T>,
    now: Cycle,
    cu: CuId,
    line: LineAddr,
) -> Cycle {
    let (b, dir_done) = core.dir_request(now, cu, line, core.params.ctl_flits);
    let prev = core.banks[b].cache.lookup(line).copied();
    core.banks[b].cache.insert(line, L2State::Owned(cu));
    let data_at_cu = match prev {
        Some(L2State::Owned(owner)) if owner != cu => {
            core.forward_from_owner(dir_done, cu, line, owner, |core| {
                core.l1s[owner].cache.remove(line);
                core.l1_tag_ops += 1;
            })
        }
        Some(L2State::SharedBy(mask)) => {
            let acks = invalidate_sharers(core, dir_done, cu, line, mask);
            core.reply(acks, b, cu)
        }
        // The L2 had the data (or we already owned it).
        Some(_) => core.reply(dir_done, b, cu),
        None => {
            let filled = core.dram_fill(dir_done, b, line, L2State::Owned(cu));
            core.reply(filled, b, cu)
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

/// A data store under an ownership protocol: an owned line is written
/// locally (writeback caching); otherwise the store pends in the store
/// buffer until [`register`] (or a same-line registration in flight)
/// completes, retrying when the MSHR is full.
pub(crate) fn owned_store<T: Trace>(
    core: &mut MemCore<T>,
    mut now: Cycle,
    cu: CuId,
    line: LineAddr,
) -> Cycle {
    let drain_done = loop {
        core.l1_accesses += 1;
        let pending = core.l1s[cu].mshr.pending(now, line);
        if pending.is_none() && core.l1s[cu].cache.lookup(line) == Some(&mut L1State::Registered) {
            core.stats.l1_hits += 1;
            core.emit(EventKind::L1Hit, now, cu as u16, line.0, 0, core.params.l1_hit_latency);
            return now + core.params.l1_hit_latency;
        }
        match l1_miss(core, now, cu, line, |core, start| register(core, start, cu, line)) {
            Ok(done) => break done,
            Err(retry) => now = retry,
        }
    };
    core.buffer_store(now, cu, line, drain_done) + 1
}

/// An atomic under an ownership protocol, performed at the L1 once the
/// line is owned: repeated atomics to an owned line hit locally
/// (reuse), and concurrent requests to one line share a single
/// registration via the MSHR (coalescing). The L1 port serializes
/// atomic performs at one per cycle.
pub(crate) fn owned_rmw<T: Trace>(
    core: &mut MemCore<T>,
    mut now: Cycle,
    cu: CuId,
    addr: Addr,
) -> Cycle {
    let line = core.line(addr);
    let owned_at = loop {
        core.stats.atomics_at_l1 += 1;
        core.emit(EventKind::AtomicAtL1, now, cu as u16, addr, 0, 0);
        core.l1_accesses += 1;
        if let Some(done) = core.l1s[cu].mshr.pending(now, line) {
            let done = done.max(now);
            if core.params.atomic_coalescing {
                // Ownership transfer in flight: coalesce, then perform
                // locally once it lands.
                core.stats.mshr_coalesced += 1;
                core.emit(EventKind::MshrCoalesce, now, cu as u16, line.0, 0, done - now);
                break done;
            }
            // Ablation: no coalescing — wait out the in-flight fill,
            // then issue a fresh (redundant) registration round trip.
            break register(core, done, cu, line);
        }
        if core.l1s[cu].cache.lookup(line) == Some(&mut L1State::Registered) {
            core.stats.atomic_l1_reuse += 1;
            core.stats.l1_hits += 1;
            core.emit(EventKind::AtomicReuse, now, cu as u16, line.0, 0, 0);
            core.emit(EventKind::L1Hit, now, cu as u16, line.0, 0, core.params.l1_hit_latency);
            break now;
        }
        match l1_miss(core, now, cu, line, |core, start| register(core, start, cu, line)) {
            Ok(done) => break done,
            Err(retry) => now = retry,
        }
    };
    core.l1s[cu].port.acquire(owned_at, 1) + core.params.l1_hit_latency
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
        l1_load(core, now, cu, line, |core, start| {
            core.bank_round_trip(start, cu, line, core.params.data_flits, |c, arrive| {
                c.l2_access(arrive, line, true)
            })
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
        let line = core.line(addr);
        core.l1_accesses += 1;
        // Write-through: compute the background drain (one-way trip +
        // bank write), then enqueue in the store buffer.
        let cu_node = core.params.cu_nodes[cu];
        let b = core.bank_of(line);
        let bank_node = core.banks[b].node;
        let arrive = core.noc.send(now, cu_node, bank_node, core.params.data_flits);
        let drain_done = core.l2_access(arrive, line, false);
        // Keep any L1 copy coherent with our own writes.
        if core.l1s[cu].cache.peek(line).is_some() {
            core.l1s[cu].cache.insert(line, L1State::Valid);
        }
        core.buffer_store(now, cu, line, drain_done) + 1
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
        core.self_invalidate(now, cu, |_| true)
    }
}

/// DeNovo (§2.2): ownership (registration) at the L1 for stores and
/// atomics, selective self-invalidation, atomic reuse and MSHR
/// coalescing.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeNovoCoherence;

impl<T: Trace> CoherencePolicy<T> for DeNovoCoherence {
    /// A read fills a `Valid` copy and never takes ownership: an owner
    /// serves it and keeps the line.
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
                    core.forward_from_owner(dir_done, cu, line, owner, |_| {})
                }
                Some(_) => core.reply(dir_done, b, cu),
                None => {
                    let filled = core.dram_fill(dir_done, b, line, L2State::Data);
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

    /// Drops only the `Valid` lines: registered lines are up to date.
    fn acquire(&self, core: &mut MemCore<T>, now: Cycle, cu: CuId) -> Cycle {
        core.self_invalidate(now, cu, |s| *s == L1State::Valid)
    }
}
