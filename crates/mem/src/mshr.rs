//! Miss-status holding registers with same-address coalescing.
//!
//! The paper's §6.3: "obtaining ownership allows DeNovo's L1 MSHRs to
//! locally coalesce multiple requests for the same address, which
//! reduces network traffic ... and allows DeNovo with DRFrlx to quickly
//! service many overlapped atomic requests." GPU coherence performs
//! atomics at the LLC and "cannot coalesce multiple atomic requests for
//! the same address."

use crate::{Cycle, LineAddr};
use hsim_trace::{EventKind, NoTrace, Trace, TraceEvent};

/// Result of trying to allocate an MSHR entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the request and
    /// then report its completion with [`Mshr::set_completion`].
    Allocated,
    /// Merged into an in-flight entry for the same line; no new request
    /// goes out. Carries the cycle the in-flight request completes.
    Coalesced(Cycle),
    /// No free entry: the requester must stall until one frees up.
    /// Carries the earliest cycle at which an entry completes.
    Full(Cycle),
}

/// A fixed-capacity MSHR file keyed by line address.
///
/// Every access asks the file whether its line is in flight, and each
/// question first retires completed entries. A lower bound on the
/// earliest completion makes that retirement free until some entry can
/// actually have completed, so the per-access cost follows the work
/// done rather than the entries held.
///
/// ```
/// use hsim_mem::{LineAddr, Mshr, MshrOutcome};
///
/// let mut mshr = Mshr::new(128);
/// assert_eq!(mshr.request(0, LineAddr(3)), MshrOutcome::Allocated);
/// mshr.set_completion(LineAddr(3), 80);
/// // A second request for the same in-flight line merges:
/// assert_eq!(mshr.request(5, LineAddr(3)), MshrOutcome::Coalesced(80));
/// ```
#[derive(Debug, Clone)]
pub struct Mshr<T: Trace = NoTrace> {
    capacity: usize,
    /// (line, completion cycle) of each outstanding request, one entry
    /// per line, unordered. A request allocated but not yet given its
    /// completion holds `Cycle::MAX`.
    inflight: Vec<(LineAddr, Cycle)>,
    /// Lower bound on every completion cycle in `inflight` (`Cycle::MAX`
    /// when empty): [`Mshr::expire`] has nothing to retire before it.
    min_done: Cycle,
    allocated: u64,
    coalesced: u64,
    full_stalls: u64,
    /// Trace lane (the owning CU).
    owner: u16,
    tracer: T,
}

impl Mshr {
    /// An untraced MSHR file with `capacity` entries (Table 2: 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mshr {
        Mshr::with_tracer(capacity, 0, NoTrace)
    }
}

impl<T: Trace> Mshr<T> {
    /// An MSHR file emitting [`EventKind::MshrCoalesce`] /
    /// [`EventKind::MshrStall`] events into `tracer` on lane `owner`
    /// (the CU id).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_tracer(capacity: usize, owner: u16, tracer: T) -> Mshr<T> {
        let mut mshr = Mshr {
            capacity,
            inflight: Vec::new(),
            min_done: Cycle::MAX,
            allocated: 0,
            coalesced: 0,
            full_stalls: 0,
            owner,
            tracer,
        };
        mshr.reset(capacity);
        mshr
    }

    /// Return to the empty file of a fresh [`Mshr::with_tracer`] with
    /// `capacity` entries: nothing in flight, counters zero. Keeps the
    /// entry storage, the trace lane and the tracer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "MSHR needs at least one entry");
        let Mshr {
            capacity: cap,
            inflight,
            min_done,
            allocated,
            coalesced,
            full_stalls,
            owner: _,
            tracer: _,
        } = self;
        *cap = capacity;
        inflight.clear();
        *min_done = Cycle::MAX;
        *allocated = 0;
        *coalesced = 0;
        *full_stalls = 0;
    }

    /// Retire every entry whose request completed at or before `now`.
    /// Returns at once while `now` is below the earliest completion.
    pub fn expire(&mut self, now: Cycle) {
        if now < self.min_done {
            return;
        }
        self.inflight.retain(|&(_, done)| done > now);
        self.min_done = self.inflight.iter().map(|&(_, done)| done).min().unwrap_or(Cycle::MAX);
    }

    /// The completion cycle of `line`'s entry, if one is live.
    fn find(&self, line: LineAddr) -> Option<Cycle> {
        self.inflight.iter().find(|&&(l, _)| l == line).map(|&(_, done)| done)
    }

    /// Try to allocate (or merge into) an entry for `line` at `now`.
    /// On `Allocated`, the caller must follow up with
    /// [`Mshr::set_completion`] once it knows when the request finishes.
    pub fn request(&mut self, now: Cycle, line: LineAddr) -> MshrOutcome {
        self.expire(now);
        if let Some(done) = self.find(line) {
            self.coalesced += 1;
            if T::ENABLED {
                self.tracer.record(TraceEvent::new(
                    EventKind::MshrCoalesce,
                    now,
                    self.owner,
                    line.0,
                    0,
                    done.saturating_sub(now),
                ));
            }
            return MshrOutcome::Coalesced(done);
        }
        if self.inflight.len() >= self.capacity {
            self.full_stalls += 1;
            let earliest = self.inflight.iter().map(|&(_, done)| done).min().unwrap_or(now);
            if T::ENABLED {
                self.tracer.record(TraceEvent::new(
                    EventKind::MshrStall,
                    now,
                    self.owner,
                    line.0,
                    0,
                    earliest.saturating_sub(now),
                ));
            }
            return MshrOutcome::Full(earliest);
        }
        self.allocated += 1;
        self.inflight.push((line, Cycle::MAX));
        MshrOutcome::Allocated
    }

    /// Is a request for `line` still in flight at `now`? Returns its
    /// completion cycle. Callers use this *before* a cache lookup so a
    /// line whose fill is still travelling cannot be hit early (the
    /// simulator installs state at issue time).
    pub fn pending(&mut self, now: Cycle, line: LineAddr) -> Option<Cycle> {
        self.expire(now);
        self.find(line)
    }

    /// Record when the outstanding request for `line` completes.
    pub fn set_completion(&mut self, line: LineAddr, done: Cycle) {
        if let Some(e) = self.inflight.iter_mut().find(|(l, _)| *l == line) {
            e.1 = done;
            self.min_done = self.min_done.min(done);
        }
    }

    /// Entries currently live.
    pub fn live(&self) -> usize {
        self.inflight.len()
    }

    /// (allocated, coalesced, full-stalls) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.allocated, self.coalesced, self.full_stalls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_request_to_same_line_coalesces() {
        let mut m = Mshr::new(4);
        assert_eq!(m.request(0, LineAddr(7)), MshrOutcome::Allocated);
        m.set_completion(LineAddr(7), 100);
        assert_eq!(m.request(1, LineAddr(7)), MshrOutcome::Coalesced(100));
        assert_eq!(m.counters(), (1, 1, 0));
    }

    #[test]
    fn entries_expire() {
        let mut m = Mshr::new(1);
        assert_eq!(m.request(0, LineAddr(7)), MshrOutcome::Allocated);
        m.set_completion(LineAddr(7), 50);
        // Before completion: full for other lines.
        assert!(matches!(m.request(10, LineAddr(9)), MshrOutcome::Full(50)));
        // After completion: free again.
        assert_eq!(m.request(51, LineAddr(9)), MshrOutcome::Allocated);
    }

    #[test]
    fn distinct_lines_use_distinct_entries() {
        let mut m = Mshr::new(2);
        assert_eq!(m.request(0, LineAddr(1)), MshrOutcome::Allocated);
        assert_eq!(m.request(0, LineAddr(2)), MshrOutcome::Allocated);
        assert_eq!(m.live(), 2);
        assert!(matches!(m.request(0, LineAddr(3)), MshrOutcome::Full(_)));
    }

    #[test]
    fn reset_empties_the_file_and_takes_the_new_capacity() {
        let mut m = Mshr::new(2);
        assert_eq!(m.request(0, LineAddr(1)), MshrOutcome::Allocated);
        m.set_completion(LineAddr(1), 90);
        m.reset(1);
        assert_eq!((m.live(), m.counters()), (0, (0, 0, 0)));
        assert_eq!(m.request(0, LineAddr(1)), MshrOutcome::Allocated);
        assert!(matches!(m.request(0, LineAddr(2)), MshrOutcome::Full(_)));
    }
}
