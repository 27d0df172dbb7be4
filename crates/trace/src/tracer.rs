//! The [`Trace`] capability, its enabled/disabled implementations, and
//! the preallocated event ring they record into.
//!
//! The simulator is generic over `T: Trace` with [`NoTrace`] as the
//! default. Every instrumented site is guarded by `if T::ENABLED`, a
//! constant the optimizer resolves per instantiation — the untraced
//! simulator monomorphizes to exactly the code it had before tracing
//! existed, which is what keeps the committed `results/` artifacts (and
//! the perf trajectory) honest.

use crate::event::{EventKind, TraceEvent, KIND_COUNT};
use std::cell::RefCell;
use std::rc::Rc;

/// The tracing capability threaded through the simulator.
///
/// `ENABLED` is an associated *constant* so disabled call sites fold
/// away entirely; `record` takes `&self` so tracers can be shared by
/// every component of one simulation (interior mutability).
pub trait Trace: Clone + std::fmt::Debug {
    /// Does this tracer record anything? Guard instrumentation with
    /// `if T::ENABLED { ... }`.
    const ENABLED: bool;

    /// Record one event.
    fn record(&self, ev: TraceEvent);
}

/// The disabled tracer: zero-sized, records nothing, compiles to
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl Trace for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&self, _ev: TraceEvent) {}
}

/// Per-kind running totals, updated on every record — complete even
/// when the ring has wrapped and dropped old events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTotals {
    /// Events of this kind recorded.
    pub count: u64,
    /// Sum of their durations.
    pub dur_sum: u64,
    /// Sum of their `arg` payloads.
    pub arg_sum: u64,
}

/// A preallocated keep-newest ring of [`TraceEvent`]s plus complete
/// per-kind totals.
///
/// The ring bounds memory for long runs (oldest events are overwritten
/// once `capacity` is exceeded); the totals always cover the entire
/// run, so profiles and diffs stay exact regardless of ring size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBuffer {
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Write cursor once the ring is full.
    head: usize,
    recorded: u64,
    totals: Vec<KindTotals>,
}

impl TraceBuffer {
    /// An empty buffer keeping at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            capacity,
            events: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            totals: vec![KindTotals::default(); KIND_COUNT],
        }
    }

    /// Record one event.
    pub fn push(&mut self, ev: TraceEvent) {
        let t = &mut self.totals[ev.kind as usize];
        t.count += 1;
        t.dur_sum += ev.dur as u64;
        t.arg_sum += ev.arg;
        self.recorded += 1;
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (≥ [`TraceBuffer::len`]).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Totals for one kind (complete over the whole run).
    pub fn totals(&self, kind: EventKind) -> KindTotals {
        self.totals[kind as usize]
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events[self.head..].iter().chain(self.events[..self.head].iter())
    }
}

/// The enabled tracer: a shared handle onto one [`TraceBuffer`].
///
/// Cloned into every simulator component of a single run
/// (`Rc<RefCell<..>>` — simulations are single-threaded; the sweep
/// engine parallelizes across runs, and each run extracts its buffer
/// with [`SharedTracer::into_buffer`] before crossing threads).
#[derive(Debug, Clone)]
pub struct SharedTracer {
    buf: Rc<RefCell<TraceBuffer>>,
}

impl SharedTracer {
    /// A tracer recording into a fresh ring of `capacity` events.
    pub fn with_capacity(capacity: usize) -> SharedTracer {
        SharedTracer { buf: Rc::new(RefCell::new(TraceBuffer::with_capacity(capacity))) }
    }

    /// Extract the buffer. Cheap (no copy) when this is the last
    /// handle; clones otherwise.
    pub fn into_buffer(self) -> TraceBuffer {
        match Rc::try_unwrap(self.buf) {
            Ok(cell) => cell.into_inner(),
            Err(rc) => rc.borrow().clone(),
        }
    }
}

impl Trace for SharedTracer {
    const ENABLED: bool = true;

    #[inline]
    fn record(&self, ev: TraceEvent) {
        self.buf.borrow_mut().push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, cycle: u64) -> TraceEvent {
        TraceEvent::new(kind, cycle, 0, cycle * 10, 2, 3)
    }

    #[test]
    fn ring_keeps_newest_and_totals_stay_complete() {
        let mut b = TraceBuffer::with_capacity(4);
        for c in 0..10 {
            b.push(ev(EventKind::NocHop, c));
        }
        assert_eq!(b.recorded(), 10);
        assert_eq!(b.len(), 4);
        assert_eq!(b.dropped(), 6);
        let kept: Vec<u64> = b.events().map(|e| e.cycle).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest-first, newest kept");
        let t = b.totals(EventKind::NocHop);
        assert_eq!(t.count, 10, "totals cover dropped events too");
        assert_eq!(t.arg_sum, 20);
        assert_eq!(t.dur_sum, 30);
    }

    #[test]
    fn shared_tracer_routes_to_one_buffer() {
        let t = SharedTracer::with_capacity(16);
        let t2 = t.clone();
        t.record(ev(EventKind::L1Hit, 1));
        t2.record(ev(EventKind::L1Miss, 2));
        drop(t2);
        let buf = t.into_buffer();
        assert_eq!(buf.recorded(), 2);
        assert_eq!(buf.totals(EventKind::L1Hit).count, 1);
        assert_eq!(buf.totals(EventKind::L1Miss).count, 1);
    }

    #[test]
    fn no_trace_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoTrace>(), 0);
        const { assert!(!NoTrace::ENABLED) };
        NoTrace.record(ev(EventKind::Issue, 0)); // no-op, no panic
    }

    #[test]
    fn into_buffer_survives_outstanding_handles() {
        let t = SharedTracer::with_capacity(4);
        let held = t.clone();
        t.record(ev(EventKind::SbFlush, 3));
        let buf = held.clone().into_buffer(); // clones (2 handles live)
        assert_eq!(buf.recorded(), 1);
        drop(held);
        assert_eq!(t.into_buffer().recorded(), 1); // cheap path
    }
}
