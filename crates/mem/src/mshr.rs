//! Miss-status holding registers with same-address coalescing.
//!
//! The paper's §6.3: "obtaining ownership allows DeNovo's L1 MSHRs to
//! locally coalesce multiple requests for the same address, which
//! reduces network traffic ... and allows DeNovo with DRFrlx to quickly
//! service many overlapped atomic requests." GPU coherence performs
//! atomics at the LLC and "cannot coalesce multiple atomic requests for
//! the same address."

use crate::{Cycle, LineAddr};

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

/// A fixed-capacity MSHR file keyed by line address. Structure only:
/// the memory system counts and traces coalesced requests and stalls
/// from the outcomes [`Mshr::request`] returns.
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
pub struct Mshr {
    capacity: usize,
    /// (line, completion cycle) of each outstanding request, one entry
    /// per line, unordered. A request allocated but not yet given its
    /// completion holds `Cycle::MAX`.
    inflight: Vec<(LineAddr, Cycle)>,
    /// Lower bound on every completion cycle in `inflight` (`Cycle::MAX`
    /// when empty): [`Mshr::expire`] has nothing to retire before it.
    min_done: Cycle,
}

impl Mshr {
    /// An MSHR file with `capacity` entries (Table 2: 128).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Mshr {
        let mut mshr = Mshr { capacity, inflight: Vec::new(), min_done: Cycle::MAX };
        mshr.reset(capacity);
        mshr
    }

    /// Return to the empty file of a fresh [`Mshr::new`] with
    /// `capacity` entries: nothing in flight. Keeps the entry storage.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "MSHR needs at least one entry");
        let Mshr { capacity: cap, inflight, min_done } = self;
        *cap = capacity;
        inflight.clear();
        *min_done = Cycle::MAX;
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
            return MshrOutcome::Coalesced(done);
        }
        if self.inflight.len() >= self.capacity {
            let earliest = self.inflight.iter().map(|&(_, done)| done).min().unwrap_or(now);
            return MshrOutcome::Full(earliest);
        }
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
        assert_eq!(m.live(), 1);
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
        assert_eq!(m.live(), 0);
        assert_eq!(m.request(0, LineAddr(1)), MshrOutcome::Allocated);
        assert!(matches!(m.request(0, LineAddr(2)), MshrOutcome::Full(_)));
    }
}
