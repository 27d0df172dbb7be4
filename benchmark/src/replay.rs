//! Host-time attribution for one simulation job by record and replay.
//!
//! Timing individual calls on the simulator's hot paths inflates a job
//! 1.5–2.5×, so nothing inside the simulated run is timed. Instead the
//! job runs once through two recording wrappers around public traits:
//!
//! * [`RecordingBackend`] wraps the `MemoryBackend` and keeps every call
//!   with the cycle it returned;
//! * [`RecordingKernel`] wraps the `Kernel` so every `WorkItem::next`
//!   argument and the op it produced are kept per item.
//!
//! Each tape is then replayed alone against a fresh memory system or a
//! fresh set of work items, and the caller times each replay as a whole.
//! Replays are deterministic, so they must reproduce every returned
//! cycle and every op; a mismatch fails the traced run.

use crate::oracle::SimStats;
use drfrlx_core::SystemConfig;
use hsim_coherence::MemorySystem;
use hsim_gpu::{run_kernel, Kernel, MemoryBackend, Op, WorkItem};
use hsim_sys::{CoherenceBackend, SysParams};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which `MemoryBackend` method a recorded call went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `load`, data or atomic.
    Load {
        /// The `atomic` argument.
        atomic: bool,
    },
    /// `store`, data or atomic.
    Store {
        /// The `atomic` argument.
        atomic: bool,
    },
    /// `rmw`.
    Rmw,
    /// `acquire`: the consistency action of a paired load.
    Acquire,
    /// `release`: the consistency action of a paired store.
    Release,
}

impl CallKind {
    /// Is this a consistency action (acquire or release)?
    pub fn is_acqrel(self) -> bool {
        matches!(self, CallKind::Acquire | CallKind::Release)
    }
}

/// One recorded memory-system call and the cycle it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Method and flags.
    pub kind: CallKind,
    /// `now` argument.
    pub now: u64,
    /// `cu` argument.
    pub cu: usize,
    /// `addr` argument (0 for acquire and release).
    pub addr: u64,
    /// Returned completion cycle.
    pub ret: u64,
}

/// A `MemoryBackend` that forwards to `inner` and records every call.
struct RecordingBackend<B> {
    inner: B,
    /// Calls in issue order.
    tape: Vec<Call>,
}

impl<B: MemoryBackend> RecordingBackend<B> {
    fn log(&mut self, kind: CallKind, now: u64, cu: usize, addr: u64, ret: u64) -> u64 {
        self.tape.push(Call { kind, now, cu, addr, ret });
        ret
    }
}

impl<B: MemoryBackend> MemoryBackend for RecordingBackend<B> {
    fn load(&mut self, now: u64, cu: usize, addr: u64, atomic: bool) -> u64 {
        let ret = self.inner.load(now, cu, addr, atomic);
        self.log(CallKind::Load { atomic }, now, cu, addr, ret)
    }

    fn store(&mut self, now: u64, cu: usize, addr: u64, atomic: bool) -> u64 {
        let ret = self.inner.store(now, cu, addr, atomic);
        self.log(CallKind::Store { atomic }, now, cu, addr, ret)
    }

    fn rmw(&mut self, now: u64, cu: usize, addr: u64) -> u64 {
        let ret = self.inner.rmw(now, cu, addr);
        self.log(CallKind::Rmw, now, cu, addr, ret)
    }

    fn acquire(&mut self, now: u64, cu: usize) -> u64 {
        let ret = self.inner.acquire(now, cu);
        self.log(CallKind::Acquire, now, cu, 0, ret)
    }

    fn release(&mut self, now: u64, cu: usize) -> u64 {
        let ret = self.inner.release(now, cu);
        self.log(CallKind::Release, now, cu, 0, ret)
    }
}

fn issue(be: &mut dyn MemoryBackend, c: &Call) -> u64 {
    match c.kind {
        CallKind::Load { atomic } => be.load(c.now, c.cu, c.addr, atomic),
        CallKind::Store { atomic } => be.store(c.now, c.cu, c.addr, atomic),
        CallKind::Rmw => be.rmw(c.now, c.cu, c.addr),
        CallKind::Acquire => be.acquire(c.now, c.cu),
        CallKind::Release => be.release(c.now, c.cu),
    }
}

/// The `WorkItem::next` arguments one item saw, and what it returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemTape {
    /// Block index.
    pub block: usize,
    /// Thread index within the block.
    pub thread: usize,
    /// `last` argument of each call.
    pub args: Vec<Option<u64>>,
    /// Op returned by each call.
    pub ops: Vec<Op>,
}

type TapeSink = Arc<Mutex<Vec<ItemTape>>>;

/// A `Kernel` whose work items record their calls.
struct RecordingKernel<'k> {
    inner: &'k dyn Kernel,
    sink: TapeSink,
}

impl<'k> RecordingKernel<'k> {
    fn new(inner: &'k dyn Kernel) -> RecordingKernel<'k> {
        RecordingKernel { inner, sink: Arc::default() }
    }

    /// The tapes of every item dropped so far (all of them once the
    /// run has returned), sorted by `(block, thread)`.
    fn take_tapes(&self) -> Vec<ItemTape> {
        let mut tapes = std::mem::take(&mut *self.sink.lock().expect("tape sink poisoned"));
        tapes.sort_by_key(|t| (t.block, t.thread));
        tapes
    }
}

struct RecordingItem {
    inner: Box<dyn WorkItem>,
    tape: ItemTape,
    sink: TapeSink,
}

impl WorkItem for RecordingItem {
    fn next(&mut self, last: Option<u64>) -> Op {
        let op = self.inner.next(last);
        self.tape.args.push(last);
        self.tape.ops.push(op);
        op
    }
}

impl Drop for RecordingItem {
    fn drop(&mut self) {
        let tape = ItemTape {
            block: self.tape.block,
            thread: self.tape.thread,
            args: std::mem::take(&mut self.tape.args),
            ops: std::mem::take(&mut self.tape.ops),
        };
        // A poisoned sink only loses this tape; the replay then reports
        // a mismatch rather than panicking inside a drop.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(tape);
        }
    }
}

impl Kernel for RecordingKernel<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn blocks(&self) -> usize {
        self.inner.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.inner.threads_per_block()
    }
    fn scratch_words(&self) -> usize {
        self.inner.scratch_words()
    }
    fn memory_words(&self) -> usize {
        self.inner.memory_words()
    }
    fn init_memory(&self, mem: &mut [u64]) {
        self.inner.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        Box::new(RecordingItem {
            inner: self.inner.item(block, thread),
            tape: ItemTape { block, thread, args: Vec::new(), ops: Vec::new() },
            sink: Arc::clone(&self.sink),
        })
    }
    fn validate(&self, mem: &[u64]) -> Result<(), String> {
        self.inner.validate(mem)
    }
}

/// A fresh memory system for `config` on `params`, behind the same
/// adapter `hsim_sys::run_workload` uses.
pub fn fresh_backend(config: SystemConfig, params: &SysParams) -> CoherenceBackend {
    CoherenceBackend::new(MemorySystem::new(config.protocol, params.memsys.clone()))
}

/// What a recorded job produced.
pub struct Recording {
    /// The statistics a result row pins, for comparison with an
    /// unrecorded run of the same job.
    pub stats: SimStats,
    /// Final memory image.
    pub memory: Vec<u64>,
    /// Every memory-system call.
    pub calls: Vec<Call>,
    /// Every work item's calls.
    pub items: Vec<ItemTape>,
}

/// Run `kernel` under `config` through both recorders. The engine and
/// memory system are set up exactly as `hsim_sys::run_workload` sets
/// them up, so the run's statistics must equal an unrecorded run's.
pub fn record(kernel: &dyn Kernel, config: SystemConfig, params: &SysParams) -> Recording {
    let rk = RecordingKernel::new(kernel);
    let mut backend = RecordingBackend { inner: fresh_backend(config, params), tape: Vec::new() };
    let mut engine = params.engine.clone();
    engine.model = config.model;
    let r = run_kernel(&rk, &engine, &mut backend);
    let mem = backend.inner.mem();
    let (l1, l1_tags, l2, dram, flits) = mem.energy_events();
    let counters = [r.core_ops, r.scratch_accesses, l1, l1_tags, l2, dram, flits];
    let stats = SimStats::new(r.cycles, counters, mem.stats(), r.atomics, r.atomics_overlapped);
    Recording { stats, memory: r.memory, calls: backend.tape, items: rk.take_tapes() }
}

/// Result of replaying a memory-system tape.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendReplay {
    /// Summed time of the acquire and release calls alone (only when
    /// asked for; each such call is then timed individually).
    pub acqrel: Duration,
    /// Acquire and release calls replayed.
    pub acqrel_calls: u64,
    /// Calls whose returned cycle differed from the recording.
    pub mismatches: u64,
}

/// Replay `calls` against `backend`. With `time_acqrel`, acquire and
/// release calls are timed one by one; every other call is untimed.
pub fn replay_backend(
    calls: &[Call],
    backend: &mut dyn MemoryBackend,
    time_acqrel: bool,
) -> BackendReplay {
    let mut out = BackendReplay::default();
    for c in calls {
        let ret = if time_acqrel && c.kind.is_acqrel() {
            let t = Instant::now();
            let ret = issue(backend, c);
            out.acqrel += t.elapsed();
            out.acqrel_calls += 1;
            ret
        } else {
            issue(backend, c)
        };
        out.mismatches += u64::from(ret != c.ret);
    }
    out
}

/// Result of replaying work-item tapes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemReplay {
    /// `next` calls replayed.
    pub calls: u64,
    /// Calls that returned a different op, plus items missing a tape.
    pub mismatches: u64,
}

/// Re-create every recorded item from `kernel` and feed it its recorded
/// arguments.
pub fn replay_items(kernel: &dyn Kernel, tapes: &[ItemTape]) -> ItemReplay {
    let mut out = ItemReplay::default();
    for tape in tapes {
        let mut item = kernel.item(tape.block, tape.thread);
        for (arg, want) in tape.args.iter().zip(&tape.ops) {
            out.mismatches += u64::from(item.next(*arg) != *want);
        }
        out.calls += tape.args.len() as u64;
    }
    let expected = (kernel.blocks() * kernel.threads_per_block()) as u64;
    out.mismatches += expected.abs_diff(tapes.len() as u64);
    out
}
