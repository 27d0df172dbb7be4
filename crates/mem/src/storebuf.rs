//! FIFO store buffer with per-line coalescing.
//!
//! GPU coherence writes dirty data through to the LLC; the store buffer
//! absorbs stores and drains in the background. A paired (release)
//! store must first *flush* it — one of the two overheads DRF1 removes
//! for unpaired atomics (Table 4).

use crate::{Cycle, LineAddr};
use hsim_trace::{EventKind, NoTrace, Trace, TraceEvent};

/// Store-buffer statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreBufferStats {
    /// Stores accepted.
    pub stores: u64,
    /// Stores merged into an existing entry for the same line.
    pub coalesced: u64,
    /// Explicit flushes requested.
    pub flushes: u64,
    /// Cycles some requester spent waiting for space or flush drain.
    pub stall_cycles: u64,
}

/// A bounded FIFO of dirty lines awaiting writeback/write-through.
///
/// ```
/// use hsim_mem::{LineAddr, StoreBuffer};
///
/// let mut sb = StoreBuffer::new(128);
/// sb.push(0, LineAddr(1), 70);  // drains at cycle 70
/// sb.push(0, LineAddr(2), 90);
/// // A release must wait for every pending entry:
/// assert_eq!(sb.flush(10), 90);
/// assert!(sb.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuffer<T: Trace = NoTrace> {
    capacity: usize,
    /// (line, cycle the drain of this entry completes).
    entries: Vec<(LineAddr, Cycle)>,
    /// Lower bound on every drain cycle in `entries` (`Cycle::MAX` when
    /// empty): [`StoreBuffer::expire`] has nothing to drop before it.
    min_done: Cycle,
    stats: StoreBufferStats,
    /// Trace lane (the owning CU).
    owner: u16,
    tracer: T,
}

impl StoreBuffer {
    /// An untraced buffer with `capacity` entries (Table 2: 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> StoreBuffer {
        StoreBuffer::with_tracer(capacity, 0, NoTrace)
    }
}

impl<T: Trace> StoreBuffer<T> {
    /// A buffer emitting [`EventKind::SbStall`] / [`EventKind::SbFlush`]
    /// events into `tracer` on lane `owner` (the CU id).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_tracer(capacity: usize, owner: u16, tracer: T) -> StoreBuffer<T> {
        let mut sb = StoreBuffer {
            capacity,
            entries: Vec::new(),
            min_done: Cycle::MAX,
            stats: StoreBufferStats::default(),
            owner,
            tracer,
        };
        sb.reset(capacity);
        sb
    }

    /// Return to the empty buffer of a fresh [`StoreBuffer::with_tracer`]
    /// with `capacity` entries: nothing pending, statistics zero. Keeps
    /// the entry storage, the trace lane and the tracer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "store buffer needs capacity");
        let StoreBuffer { capacity: cap, entries, min_done, stats, owner: _, tracer: _ } = self;
        *cap = capacity;
        entries.clear();
        *min_done = Cycle::MAX;
        *stats = StoreBufferStats::default();
    }

    /// Drop entries whose drain completed by `now`. Returns at once
    /// while `now` is below the earliest drain, so the check every push
    /// makes costs nothing until some entry can actually have drained.
    pub fn expire(&mut self, now: Cycle) {
        if now < self.min_done {
            return;
        }
        self.entries.retain(|&(_, done)| done > now);
        self.min_done = self.entries.iter().map(|&(_, done)| done).min().unwrap_or(Cycle::MAX);
    }

    /// Push a store to `line` at `now`; `drain_done` says when the
    /// write-through of this entry will complete (the protocol computes
    /// it). Returns the cycle at which the store is accepted (later
    /// than `now` only when the buffer was full and had to drain).
    pub fn push(&mut self, now: Cycle, line: LineAddr, drain_done: Cycle) -> Cycle {
        self.expire(now);
        self.stats.stores += 1;
        if let Some(e) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            // Coalesce into the pending entry; drain covers both. The
            // entry only moves later, so `min_done` stays a lower bound.
            e.1 = e.1.max(drain_done);
            self.stats.coalesced += 1;
            return now;
        }
        let mut at = now;
        if self.entries.len() >= self.capacity {
            // Wait for the oldest entry to drain.
            let oldest = self.entries.iter().map(|&(_, d)| d).min().unwrap_or(now);
            self.stats.stall_cycles += oldest.saturating_sub(now);
            if T::ENABLED {
                self.tracer.record(TraceEvent::new(
                    EventKind::SbStall,
                    now,
                    self.owner,
                    line.0,
                    0,
                    oldest.saturating_sub(now),
                ));
            }
            at = at.max(oldest);
            self.expire(at);
        }
        self.entries.push((line, drain_done));
        self.min_done = self.min_done.min(drain_done);
        at
    }

    /// Flush: the cycle by which every pending entry has drained.
    pub fn flush(&mut self, now: Cycle) -> Cycle {
        self.stats.flushes += 1;
        let done = self.entries.iter().map(|&(_, d)| d).max().unwrap_or(now).max(now);
        self.stats.stall_cycles += done - now;
        if T::ENABLED {
            self.tracer.record(TraceEvent::new(
                EventKind::SbFlush,
                now,
                self.owner,
                0,
                self.entries.len() as u64,
                done - now,
            ));
        }
        self.entries.clear();
        self.min_done = Cycle::MAX;
        done
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Statistics.
    pub fn stats(&self) -> StoreBufferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_coalesce_per_line() {
        let mut sb = StoreBuffer::new(4);
        sb.push(0, LineAddr(1), 100);
        sb.push(1, LineAddr(1), 120);
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.stats().coalesced, 1);
    }

    #[test]
    fn full_buffer_stalls_until_drain() {
        let mut sb = StoreBuffer::new(2);
        sb.push(0, LineAddr(1), 50);
        sb.push(0, LineAddr(2), 80);
        let at = sb.push(0, LineAddr(3), 120);
        assert_eq!(at, 50, "must wait for the oldest entry");
        assert!(sb.stats().stall_cycles >= 50);
    }

    #[test]
    fn flush_waits_for_all() {
        let mut sb = StoreBuffer::new(4);
        sb.push(0, LineAddr(1), 70);
        sb.push(0, LineAddr(2), 90);
        assert_eq!(sb.flush(10), 90);
        assert!(sb.is_empty());
        // Idempotent on empty buffer.
        assert_eq!(sb.flush(95), 95);
    }

    #[test]
    fn entries_expire_over_time() {
        let mut sb = StoreBuffer::new(2);
        sb.push(0, LineAddr(1), 10);
        sb.expire(11);
        assert!(sb.is_empty());
    }

    #[test]
    fn reset_empties_the_buffer_and_takes_the_new_capacity() {
        let mut sb = StoreBuffer::new(4);
        sb.push(0, LineAddr(1), 70);
        sb.push(0, LineAddr(2), 90);
        sb.reset(1);
        assert!(sb.is_empty());
        assert_eq!(sb.stats().stores, 0);
        assert_eq!(sb.flush(5), 5, "nothing left to drain");
        sb.push(0, LineAddr(1), 40);
        assert_eq!(sb.push(0, LineAddr(2), 60), 40, "one entry: the second store waits");
    }
}
