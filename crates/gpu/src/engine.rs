//! The event-driven execution engine.
//!
//! Context selection — "which context runs next?" — is the innermost
//! loop of every simulation: one pick per executed operation. The
//! engine keeps an indexed ready queue (a min-[`BinaryHeap`] ordered by
//! `(ready cycle, context id)`), so each pick costs O(log contexts)
//! instead of a linear scan over every resident context. Ties still
//! break by context id, so schedules — and therefore all reports —
//! are deterministic.
//!
//! The heap stores that pair packed into one `u64`, `at << 20 | ctx`,
//! so every sift compares one word instead of a tuple. Numeric order of
//! the packed key is the order of the pair as long as both fit: a
//! kernel may have at most 2^20 contexts (checked when it launches) and
//! a ready cycle must stay below 2^44 (checked on every push); either
//! violation panics rather than mis-scheduling. A pop leaves its
//! minimum at the root, and the popped context's next push overwrites
//! it in place (see `HeapQueue`).
//!
//! Launch state is flat, and a run allocates only its work items (one
//! box per context) and the memory image it returns. Blocks go to CUs
//! round-robin, so CU `c` runs blocks `c, c + num_cus, …` and needs
//! only the index of its next block. A block's contexts launch
//! together and are contiguous in the context table, so a block is its
//! first context's index. Every block's scratchpad lives in one
//! `blocks × scratch_words` array, and a scratch address past the
//! block's own words panics rather than reaching a neighbour's.
//!
//! The context table, the ready heap, the issue ports, the block
//! indices, the scratch array and the contexts' outstanding-atomic
//! windows belong to the thread, not the run: each thread keeps one
//! set between runs and resets it in place (zeroing scratch to the new
//! size), the way `hsim-sys` keeps one memory system per thread. A run
//! takes the set out of its thread-local slot and puts it back only
//! when it returns, with the context table emptied so the work items
//! drop, so a run that panics drops the set and the thread's next run
//! starts from an empty one.

use crate::consistency::{AccessActions, ConsistencyPolicy, DrfPolicy};
use crate::ir::{Kernel, Op, WorkItem};
use crate::{Addr, Cycle, Value};
use drfrlx_core::MemoryModel;
use hsim_trace::{EventKind, NoTrace, Trace, TraceEvent};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Timing interface to the memory system (implemented over
/// `hsim-coherence` by `hsim-sys`; a fixed-latency stub is used in unit
/// tests). All methods return the completion cycle.
pub trait MemoryBackend {
    /// A load (data or atomic); completion = value available.
    fn load(&mut self, now: Cycle, cu: usize, addr: Addr, atomic: bool) -> Cycle;
    /// A store; completion = store accepted (drain is asynchronous)
    /// for data stores, value globally performed for atomics.
    fn store(&mut self, now: Cycle, cu: usize, addr: Addr, atomic: bool) -> Cycle;
    /// An atomic RMW; completion = old value available.
    fn rmw(&mut self, now: Cycle, cu: usize, addr: Addr) -> Cycle;
    /// Acquire action of a paired load: self-invalidate the L1.
    fn acquire(&mut self, now: Cycle, cu: usize) -> Cycle;
    /// Release action of a paired store: flush the store buffer.
    fn release(&mut self, now: Cycle, cu: usize) -> Cycle;
}

/// Opt-in issue-order perturbation for conformance testing.
///
/// When set, every ready transition of a context is delayed by a
/// pseudo-random `0..=max_delay` cycles, a pure function of
/// `(seed, context, step)` — so a perturbed run is still fully
/// deterministic and reproducible, it just realizes a *different*
/// interleaving than the unperturbed schedule. `None` (the default)
/// leaves timing bit-for-bit identical to previous releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueJitter {
    /// Seed mixed into every delay.
    pub seed: u64,
    /// Largest extra delay, in cycles, applied per ready transition.
    pub max_delay: u64,
}

impl IssueJitter {
    /// The delay for context `ctx`'s `step`-th ready transition:
    /// SplitMix64-style finalizer over `(seed, ctx, step)`, reduced to
    /// `0..=max_delay`.
    fn delay(self, ctx: usize, step: u64) -> Cycle {
        if self.max_delay == 0 {
            return 0;
        }
        let mut z = self
            .seed
            .wrapping_add((ctx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(step.wrapping_mul(0xD1B5_4A32_D192_ED03));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z % (self.max_delay + 1)
    }
}

/// The delay (0 when jitter is off) for a context's next ready time.
#[inline]
fn jitter_delay(jitter: Option<IssueJitter>, ctx: usize, step: u64) -> Cycle {
    jitter.map_or(0, |j| j.delay(ctx, step))
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// Number of GPU compute units.
    pub num_cus: usize,
    /// Hardware contexts per CU (work items resident at once).
    pub max_contexts_per_cu: usize,
    /// Consistency model enforced by the hardware.
    pub model: MemoryModel,
    /// Latency of a block barrier once the last item arrives.
    pub barrier_latency: u64,
    /// Latency of a grid-wide barrier (kernel relaunch cost).
    pub global_barrier_latency: u64,
    /// Cap on overlapped (relaxed) atomics per context.
    pub max_outstanding_atomics: usize,
    /// Deterministic schedule perturbation (`None` = exact legacy
    /// timing; used by the conformance harness to diversify
    /// interleavings).
    pub jitter: Option<IssueJitter>,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            num_cus: 15,
            max_contexts_per_cu: 64,
            model: MemoryModel::Drf0,
            barrier_latency: 4,
            global_barrier_latency: 600,
            max_outstanding_atomics: 8,
            jitter: None,
        }
    }
}

/// What a kernel run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Total cycles (last context retirement).
    pub cycles: Cycle,
    /// Instructions issued (incl. think cycles).
    pub core_ops: u64,
    /// Scratchpad accesses.
    pub scratch_accesses: u64,
    /// Block barriers completed.
    pub barriers: u64,
    /// Final global memory image (for validation).
    pub memory: Vec<Value>,
    /// Atomic operations issued.
    pub atomics: u64,
    /// Atomics that were overlapped (issued without waiting).
    pub atomics_overlapped: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxState {
    Ready(Cycle),
    AtBarrier(Cycle),
    AtGlobalBarrier(Cycle),
    Finished(Cycle),
}

struct Ctx {
    item: Box<dyn WorkItem>,
    cu: usize,
    block: usize,
    state: CtxState,
    last: Option<Value>,
    /// Completion times of overlapped atomics not yet fenced.
    outstanding: Vec<Cycle>,
    /// Ready transitions taken so far; the jitter step counter.
    steps: u64,
}

impl Ctx {
    /// Bump and return the jitter step counter.
    fn next_step(&mut self) -> u64 {
        self.steps += 1;
        self.steps
    }
}

/// Per-CU issue port: one operation per cycle.
#[derive(Debug, Clone, Default)]
struct IssuePort {
    next_free: Cycle,
}

impl IssuePort {
    fn acquire(&mut self, at: Cycle) -> Cycle {
        let start = at.max(self.next_free);
        self.next_free = start + 1;
        start
    }
}

/// Bits of a ready-queue key that hold the context id.
const CTX_BITS: u32 = 20;

/// Contexts one kernel may have: ids must fit in [`CTX_BITS`].
const MAX_CONTEXTS: usize = 1 << CTX_BITS;

/// The ready queue: a min-heap over `(ready cycle, context id)` packed
/// as `at << CTX_BITS | ctx`, so the engine finds the next runnable
/// context in O(log contexts) with one-word comparisons.
///
/// Every `Ready` transition pushes exactly one entry and every entry is
/// consumed at most once, so the heap never holds stale entries for a
/// context that was rescheduled; the state check on pop is a cheap
/// invariant guard, not a lazy-deletion scheme.
///
/// `pop` leaves the minimum at the root, *held*: it counts as removed.
/// Almost every pop is followed by a push of the same context's next
/// ready time, and that push overwrites the held root in place, one
/// sift-down instead of a pop's sift plus a push's sift. A pop that
/// finds the root still held (its context parked or finished and
/// pushed nothing) removes it first. Each context has at most one
/// entry and every key is unique, so the pop order is the one a plain
/// pop-and-push heap gives.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<u64>>,
    /// The root was returned by the last `pop` and is no longer queued.
    held: bool,
}

impl HeapQueue {
    /// Empty the queue and make room for `contexts` entries: the most
    /// that can be ready at once is every resident context.
    fn reset(&mut self, contexts: usize) {
        self.heap.clear();
        self.held = false;
        self.heap.reserve(contexts);
    }

    /// Note that context `ctx` became `Ready(at)`. `ctx` fits in
    /// [`CTX_BITS`]: `run_kernel_with` checks the context count up front.
    ///
    /// # Panics
    ///
    /// Panics if `at` needs more than `64 - CTX_BITS` bits.
    fn push(&mut self, at: Cycle, ctx: usize) {
        assert!(
            at >> (u64::BITS - CTX_BITS) == 0,
            "ready cycle {at} does not fit the ready queue's {}-bit cycle field",
            u64::BITS - CTX_BITS
        );
        let key = Reverse(at << CTX_BITS | ctx as u64);
        if std::mem::take(&mut self.held) {
            *self.heap.peek_mut().expect("a held root is in the heap") = key;
        } else {
            self.heap.push(key);
        }
    }

    /// Remove and return the minimum `(ready cycle, context id)`, or
    /// `None` when no context is runnable.
    fn pop(&mut self, ctxs: &[Ctx]) -> Option<(Cycle, usize)> {
        if std::mem::take(&mut self.held) {
            self.heap.pop();
        }
        while let Some(&Reverse(key)) = self.heap.peek() {
            let (at, i) = (key >> CTX_BITS, (key & (MAX_CONTEXTS as u64 - 1)) as usize);
            if ctxs[i].state == CtxState::Ready(at) {
                self.held = true;
                return Some((at, i));
            }
            self.heap.pop();
        }
        None
    }
}

/// A run's launch state apart from its work items and memory image
/// (see the module doc): one per thread, reset in place by each run.
#[derive(Default)]
struct Launch {
    /// Contexts in launch order; block `b` owns `tpb` of them from
    /// `block_first[b]`.
    ctxs: Vec<Ctx>,
    ready: HeapQueue,
    /// One issue port per CU.
    ports: Vec<IssuePort>,
    /// `next_block[c]`: the next block CU `c` launches.
    next_block: Vec<usize>,
    /// Index of each launched block's first context.
    block_first: Vec<usize>,
    /// Every block's scratchpad, block-major.
    scratch: Vec<Value>,
    /// Empty outstanding-atomic windows of earlier runs' contexts,
    /// handed to new contexts so an overlapping context reuses one.
    windows: Vec<Vec<Cycle>>,
}

impl Launch {
    /// Return to the state a run of `blocks` blocks of `tpb` contexts
    /// with `scratch_words` per block on `num_cus` CUs starts from,
    /// keeping every vector's storage. `resident` bounds the contexts
    /// ready at once.
    fn reset(
        &mut self,
        blocks: usize,
        tpb: usize,
        scratch_words: usize,
        num_cus: usize,
        resident: usize,
    ) {
        // `windows` carries over as it is: every window in it is empty.
        let Launch { ctxs, ready, ports, next_block, block_first, scratch, windows: _ } = self;
        ctxs.clear();
        ctxs.reserve(blocks * tpb);
        ready.reset(resident);
        ports.clear();
        ports.resize(num_cus, IssuePort::default());
        next_block.clear();
        next_block.extend(0..num_cus);
        block_first.clear();
        block_first.resize(blocks, 0);
        scratch.clear();
        scratch.resize(blocks * scratch_words, 0);
    }
}

thread_local! {
    /// This thread's launch state between runs. Empty while a run
    /// holds it, so a run that panics drops it during unwind.
    static LAUNCH: Cell<Option<Launch>> = const { Cell::new(None) };
}

/// Run `kernel` to completion under `params` on `backend`.
///
/// Blocks are assigned to CUs round-robin; when a CU's resident blocks
/// retire, queued blocks launch in order. Execution is event-driven:
/// each step advances the context with the smallest ready time (ties
/// broken by context id), so runs are deterministic.
///
/// # Panics
///
/// Panics if the kernel has no blocks, a block exceeds the CU context
/// capacity, the kernel has more than 2^20 contexts (blocks × threads
/// per block; see the module doc), or a work item keeps emitting ops
/// after `Done`.
pub fn run_kernel(
    kernel: &dyn Kernel,
    params: &EngineParams,
    backend: &mut dyn MemoryBackend,
) -> EngineReport {
    let policy = DrfPolicy(params.model);
    run_kernel_with(kernel, params, backend, &policy, NoTrace)
}

/// [`run_kernel`] under an explicit [`ConsistencyPolicy`] instead of
/// the DRF policy derived from `params.model`. `params.model` is
/// ignored; the policy alone decides per-access strengths and actions.
pub fn run_kernel_policy(
    kernel: &dyn Kernel,
    params: &EngineParams,
    backend: &mut dyn MemoryBackend,
    policy: &dyn ConsistencyPolicy,
) -> EngineReport {
    run_kernel_with(kernel, params, backend, policy, NoTrace)
}

/// [`run_kernel`] emitting per-operation pipeline events (issue, issue
/// stalls, fence drains, barrier releases, block launches, context
/// retirement, atomic overlap) into `tracer`. Timing and the returned
/// [`EngineReport`] are identical to the untraced run.
pub fn run_kernel_traced(
    kernel: &dyn Kernel,
    params: &EngineParams,
    backend: &mut dyn MemoryBackend,
    tracer: impl Trace,
) -> EngineReport {
    let policy = DrfPolicy(params.model);
    run_kernel_with(kernel, params, backend, &policy, tracer)
}

/// Stable per-operation code carried in the `arg` of an
/// [`EventKind::Issue`] event.
fn op_code(op: &Op) -> u64 {
    match op {
        Op::Think(_) => 0,
        Op::ScratchLoad { .. } => 1,
        Op::ScratchStore { .. } => 2,
        Op::Load { .. } => 3,
        Op::Store { .. } => 4,
        Op::Rmw { .. } => 5,
        Op::Barrier => 6,
        Op::GlobalBarrier => 7,
        Op::Done => 8,
    }
}

fn run_kernel_with<T: Trace, P: ConsistencyPolicy + ?Sized>(
    kernel: &dyn Kernel,
    params: &EngineParams,
    backend: &mut dyn MemoryBackend,
    policy: &P,
    tracer: T,
) -> EngineReport {
    assert!(kernel.blocks() > 0, "kernel needs blocks");
    assert!(
        kernel.threads_per_block() <= params.max_contexts_per_cu,
        "block larger than CU context capacity"
    );
    assert!(
        kernel.blocks().saturating_mul(kernel.threads_per_block()) <= MAX_CONTEXTS,
        "kernel has more than {MAX_CONTEXTS} contexts, the most the ready queue can order"
    );
    let mut memory = vec![0; kernel.memory_words()];
    kernel.init_memory(&mut memory);
    let blocks = kernel.blocks();
    let scratch_words = kernel.scratch_words();
    let tpb = kernel.threads_per_block();
    let blocks_per_cu_resident = (params.max_contexts_per_cu / tpb).max(1);
    let resident = blocks.min(params.num_cus * blocks_per_cu_resident) * tpb;

    // Round-robin block → CU assignment: CU `c` runs blocks `c`,
    // `c + num_cus`, … in order, `blocks_per_cu_resident` at a time.
    // A block's contexts launch together, so they are contiguous:
    // block `b` owns `ctxs[block_first[b]..block_first[b] + tpb]`.
    let mut state = LAUNCH.take().unwrap_or_default();
    state.reset(blocks, tpb, scratch_words, params.num_cus, resident);
    let Launch {
        mut ctxs,
        mut ready,
        mut ports,
        mut next_block,
        mut block_first,
        mut scratch,
        mut windows,
    } = state;
    let launch = |block: usize,
                  cu: usize,
                  at: Cycle,
                  ctxs: &mut Vec<Ctx>,
                  block_first: &mut [usize],
                  ready: &mut HeapQueue,
                  windows: &mut Vec<Vec<Cycle>>| {
        if T::ENABLED {
            tracer.record(TraceEvent::new(
                EventKind::BlockLaunch,
                at,
                cu as u16,
                0,
                block as u64,
                0,
            ));
        }
        block_first[block] = ctxs.len();
        for t in 0..tpb {
            let at = at + jitter_delay(params.jitter, ctxs.len(), 0);
            ready.push(at, ctxs.len());
            ctxs.push(Ctx {
                item: kernel.item(block, t),
                cu,
                block,
                state: CtxState::Ready(at),
                last: None,
                outstanding: windows.pop().unwrap_or_default(),
                steps: 0,
            });
        }
    };
    for (cu, next) in next_block.iter_mut().enumerate() {
        for _ in 0..blocks_per_cu_resident {
            if *next >= blocks {
                break;
            }
            launch(*next, cu, 0, &mut ctxs, &mut block_first, &mut ready, &mut windows);
            *next += params.num_cus;
        }
    }

    let mut report = EngineReport {
        cycles: 0,
        core_ops: 0,
        scratch_accesses: 0,
        barriers: 0,
        memory: Vec::new(),
        atomics: 0,
        atomics_overlapped: 0,
    };

    // Pick the ready context with the smallest (time, id) until none is
    // runnable: everyone finished (barrier stalls resolve eagerly below,
    // so queue exhaustion means completion).
    while let Some((at, i)) = ready.pop(&ctxs) {
        let cu = ctxs[i].cu;
        let block = ctxs[i].block;
        let last = ctxs[i].last.take();
        let op = ctxs[i].item.next(last);
        let issue = ports[cu].acquire(at);
        report.core_ops += 1;
        if T::ENABLED {
            if issue > at {
                tracer.record(TraceEvent::new(
                    EventKind::IssueStall,
                    at,
                    cu as u16,
                    0,
                    0,
                    issue - at,
                ));
            }
            tracer.record(TraceEvent::new(EventKind::Issue, issue, cu as u16, 0, op_code(&op), 0));
        }

        let ctx = &mut ctxs[i];
        match op {
            Op::Think(n) => {
                report.core_ops += n as u64;
                let next = issue + 1 + n as u64 + jitter_delay(params.jitter, i, ctx.next_step());
                ctx.state = CtxState::Ready(next);
                ready.push(next, i);
            }
            Op::ScratchLoad { addr } => {
                report.scratch_accesses += 1;
                ctx.last = Some(scratch[scratch_index(block, addr, scratch_words)]);
                let next = issue + 1 + jitter_delay(params.jitter, i, ctx.next_step());
                ctx.state = CtxState::Ready(next);
                ready.push(next, i);
            }
            Op::ScratchStore { addr, value } => {
                report.scratch_accesses += 1;
                scratch[scratch_index(block, addr, scratch_words)] = value;
                let next = issue + 1 + jitter_delay(params.jitter, i, ctx.next_step());
                ctx.state = CtxState::Ready(next);
                ready.push(next, i);
            }
            Op::Load { addr, class } => {
                let a = policy.load_actions(policy.strength_of(class));
                let value = memory[addr as usize];
                let start = begin_access(&tracer, backend, &mut report, ctx, a, issue, cu);
                let performed = backend.load(start, cu, addr, a.atomic);
                let done = finish_access(
                    &tracer,
                    backend,
                    &mut report,
                    ctx,
                    a,
                    issue,
                    cu,
                    addr,
                    performed,
                    params,
                );
                ctx.last = Some(value);
                let done = done + jitter_delay(params.jitter, i, ctx.next_step());
                ctx.state = CtxState::Ready(done);
                ready.push(done, i);
            }
            Op::Store { addr, value, class } => {
                let a = policy.store_actions(policy.strength_of(class));
                let start = begin_access(&tracer, backend, &mut report, ctx, a, issue, cu);
                let performed = backend.store(start, cu, addr, a.atomic);
                let done = finish_access(
                    &tracer,
                    backend,
                    &mut report,
                    ctx,
                    a,
                    issue,
                    cu,
                    addr,
                    performed,
                    params,
                );
                memory[addr as usize] = value;
                let done = done + jitter_delay(params.jitter, i, ctx.next_step());
                ctx.state = CtxState::Ready(done);
                ready.push(done, i);
            }
            Op::Rmw { addr, rmw, operand, class, use_result } => {
                let a = policy.rmw_actions(policy.strength_of(class), use_result);
                let old = memory[addr as usize];
                memory[addr as usize] = rmw.apply(old, operand);
                let start = begin_access(&tracer, backend, &mut report, ctx, a, issue, cu);
                let performed = backend.rmw(start, cu, addr);
                let done = finish_access(
                    &tracer,
                    backend,
                    &mut report,
                    ctx,
                    a,
                    issue,
                    cu,
                    addr,
                    performed,
                    params,
                );
                if use_result {
                    ctx.last = Some(old);
                }
                let done = done + jitter_delay(params.jitter, i, ctx.next_step());
                ctx.state = CtxState::Ready(done);
                ready.push(done, i);
            }
            Op::Barrier => {
                // Wait for own outstanding atomics, then park.
                let fenced = drain_traced(&tracer, &mut ctx.outstanding, issue, cu);
                ctx.state = CtxState::AtBarrier(fenced);
                // Release the block if everyone arrived.
                let mates = block_first[block]..block_first[block] + tpb;
                let all = ctxs[mates.clone()]
                    .iter()
                    .all(|c| matches!(c.state, CtxState::AtBarrier(_) | CtxState::Finished(_)));
                if all {
                    let release = ctxs[mates.clone()]
                        .iter()
                        .filter_map(|c| match c.state {
                            CtxState::AtBarrier(t) => Some(t),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(issue)
                        + params.barrier_latency;
                    report.barriers += 1;
                    if T::ENABLED {
                        tracer.record(TraceEvent::new(
                            EventKind::BarrierRelease,
                            release,
                            cu as u16,
                            0,
                            block as u64,
                            params.barrier_latency,
                        ));
                    }
                    for j in mates {
                        if matches!(ctxs[j].state, CtxState::AtBarrier(_)) {
                            ctxs[j].state = CtxState::Ready(release);
                            ready.push(release, j);
                        }
                    }
                }
            }
            Op::GlobalBarrier => {
                // Kernel-boundary release: fence own atomics, flush.
                let fenced = drain_traced(&tracer, &mut ctx.outstanding, issue, cu);
                let flushed = backend.release(fenced, cu);
                ctx.state = CtxState::AtGlobalBarrier(flushed);
                let all = ctxs.iter().all(|c| {
                    matches!(c.state, CtxState::AtGlobalBarrier(_) | CtxState::Finished(_))
                });
                if all {
                    assert!(
                        next_block.iter().all(|&b| b >= blocks),
                        "GlobalBarrier requires every block to be resident"
                    );
                    let release = ctxs
                        .iter()
                        .filter_map(|c| match c.state {
                            CtxState::AtGlobalBarrier(t) => Some(t),
                            _ => None,
                        })
                        .max()
                        .unwrap_or(issue)
                        + params.global_barrier_latency;
                    // Kernel-boundary acquire: every CU self-invalidates.
                    let mut resume = release;
                    for c in 0..params.num_cus {
                        resume = resume.max(backend.acquire(release, c));
                    }
                    report.barriers += 1;
                    if T::ENABLED {
                        tracer.record(TraceEvent::new(
                            EventKind::GlobalBarrierRelease,
                            resume,
                            0,
                            0,
                            0,
                            params.global_barrier_latency,
                        ));
                    }
                    for (j, c) in ctxs.iter_mut().enumerate() {
                        if matches!(c.state, CtxState::AtGlobalBarrier(_)) {
                            c.state = CtxState::Ready(resume);
                            ready.push(resume, j);
                        }
                    }
                }
            }
            Op::Done => {
                let fenced = drain_traced(&tracer, &mut ctx.outstanding, issue, cu);
                ctx.state = CtxState::Finished(fenced);
                if T::ENABLED {
                    tracer.record(TraceEvent::new(
                        EventKind::CtxFinish,
                        fenced,
                        cu as u16,
                        0,
                        i as u64,
                        0,
                    ));
                }
                report.cycles = report.cycles.max(fenced);
                // Launch the next queued block on this CU if this one
                // fully retired.
                let mates = block_first[block]..block_first[block] + tpb;
                let done_block =
                    ctxs[mates.clone()].iter().all(|c| matches!(c.state, CtxState::Finished(_)));
                if done_block && next_block[cu] < blocks {
                    let retire = ctxs[mates]
                        .iter()
                        .map(|c| match c.state {
                            CtxState::Finished(t) => t,
                            _ => unreachable!(),
                        })
                        .max()
                        .unwrap_or(fenced);
                    let b = next_block[cu];
                    next_block[cu] += params.num_cus;
                    launch(b, cu, retire, &mut ctxs, &mut block_first, &mut ready, &mut windows);
                }
            }
        }
    }

    // Deadlocked barrier check: every context must have finished.
    assert!(
        ctxs.iter().all(|c| matches!(c.state, CtxState::Finished(_))),
        "kernel ended with contexts parked at a barrier"
    );
    // Every context drained its window when it finished; keep the ones
    // that hold storage and drop the work items.
    windows.extend(ctxs.drain(..).map(|c| c.outstanding).filter(|w| w.capacity() > 0));
    LAUNCH.set(Some(Launch { ctxs, ready, ports, next_block, block_first, scratch, windows }));
    report.memory = memory;
    report
}

/// Index of word `addr` of `block`'s scratchpad in the flat scratch
/// array, where block `b` owns words `b * words..(b + 1) * words`.
///
/// # Panics
///
/// Panics if `addr` is not below `words`, the scratchpad size.
fn scratch_index(block: usize, addr: Addr, words: usize) -> usize {
    let addr = addr as usize;
    assert!(addr < words, "scratch address {addr} is outside the {words}-word scratchpad");
    block * words + addr
}

/// Pre-access half of an [`AccessActions`] table: count the atomic,
/// fence outstanding overlapped atomics, flush the store buffer.
/// Returns the cycle at which the access itself may perform.
#[allow(clippy::too_many_arguments)]
fn begin_access<T: Trace>(
    tracer: &T,
    backend: &mut dyn MemoryBackend,
    report: &mut EngineReport,
    ctx: &mut Ctx,
    actions: AccessActions,
    issue: Cycle,
    cu: usize,
) -> Cycle {
    debug_assert!(
        !(actions.overlap && actions.acquire_after),
        "an overlapped access cannot also self-invalidate"
    );
    if actions.counts_atomic {
        report.atomics += 1;
    }
    let t =
        if actions.fence { drain_traced(tracer, &mut ctx.outstanding, issue, cu) } else { issue };
    if actions.release_before {
        backend.release(t, cu)
    } else {
        t
    }
}

/// Post-access half of an [`AccessActions`] table: self-invalidate
/// after an acquire, or detach an overlapped access (record its
/// completion in the outstanding window and let the context continue
/// next cycle). Returns the context's next ready cycle.
#[allow(clippy::too_many_arguments)]
fn finish_access<T: Trace>(
    tracer: &T,
    backend: &mut dyn MemoryBackend,
    report: &mut EngineReport,
    ctx: &mut Ctx,
    actions: AccessActions,
    issue: Cycle,
    cu: usize,
    addr: Addr,
    performed: Cycle,
    params: &EngineParams,
) -> Cycle {
    if actions.overlap {
        report.atomics_overlapped += 1;
        if T::ENABLED {
            tracer.record(TraceEvent::new(
                EventKind::AtomicOverlap,
                issue,
                cu as u16,
                addr,
                0,
                performed.saturating_sub(issue),
            ));
        }
        push_outstanding(&mut ctx.outstanding, performed, params.max_outstanding_atomics);
        issue + 1
    } else if actions.acquire_after {
        backend.acquire(performed, cu)
    } else {
        performed
    }
}

/// Wait for all outstanding atomics: returns the fence completion time
/// and clears the list.
fn drain(outstanding: &mut Vec<Cycle>, now: Cycle) -> Cycle {
    let t = outstanding.iter().copied().max().map_or(now, |m| m.max(now));
    outstanding.clear();
    t
}

/// [`drain`] that also emits an [`EventKind::FenceDrain`] event when
/// there were outstanding atomics to wait for.
fn drain_traced<T: Trace>(
    tracer: &T,
    outstanding: &mut Vec<Cycle>,
    now: Cycle,
    cu: usize,
) -> Cycle {
    let n = outstanding.len() as u64;
    let t = drain(outstanding, now);
    if T::ENABLED && n > 0 {
        tracer.record(TraceEvent::new(EventKind::FenceDrain, now, cu as u16, 0, n, t - now));
    }
    t
}

/// Track an overlapped atomic, stalling on the oldest when the window
/// is full.
fn push_outstanding(outstanding: &mut Vec<Cycle>, done: Cycle, cap: usize) {
    if outstanding.len() >= cap {
        // Retire the earliest (the issue path already priced the stall
        // into `done` via memory-system queuing; we just bound memory).
        let min = outstanding
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .expect("cap > 0 so list non-empty");
        outstanding.remove(min);
    }
    outstanding.push(done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::RmwKind;
    use drfrlx_core::OpClass;

    /// Fixed-latency backend for engine-only tests.
    #[derive(Default)]
    struct FixedLat {
        loads: u64,
        stores: u64,
        rmws: u64,
        acquires: u64,
        releases: u64,
    }

    impl MemoryBackend for FixedLat {
        fn load(&mut self, now: Cycle, _cu: usize, _a: Addr, atomic: bool) -> Cycle {
            self.loads += 1;
            now + if atomic { 50 } else { 10 }
        }
        fn store(&mut self, now: Cycle, _cu: usize, _a: Addr, atomic: bool) -> Cycle {
            self.stores += 1;
            now + if atomic { 50 } else { 2 }
        }
        fn rmw(&mut self, now: Cycle, _cu: usize, _a: Addr) -> Cycle {
            self.rmws += 1;
            now + 50
        }
        fn acquire(&mut self, now: Cycle, _cu: usize) -> Cycle {
            self.acquires += 1;
            now + 2
        }
        fn release(&mut self, now: Cycle, _cu: usize) -> Cycle {
            self.releases += 1;
            now + 20
        }
    }

    /// A kernel of `blocks × tpb` items, each doing `n` RMWs on one
    /// counter with the given class.
    struct CounterKernel {
        blocks: usize,
        tpb: usize,
        n: usize,
        class: OpClass,
    }

    struct CounterItem {
        left: usize,
        class: OpClass,
    }

    impl WorkItem for CounterItem {
        fn next(&mut self, _last: Option<Value>) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            Op::Rmw { addr: 0, rmw: RmwKind::Add, operand: 1, class: self.class, use_result: false }
        }
    }

    impl Kernel for CounterKernel {
        fn name(&self) -> String {
            "counter".into()
        }
        fn blocks(&self) -> usize {
            self.blocks
        }
        fn threads_per_block(&self) -> usize {
            self.tpb
        }
        fn memory_words(&self) -> usize {
            4
        }
        fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
            Box::new(CounterItem { left: self.n, class: self.class })
        }
        fn validate(&self, mem: &[Value]) -> Result<(), String> {
            let expect = (self.blocks * self.tpb * self.n) as Value;
            if mem[0] == expect {
                Ok(())
            } else {
                Err(format!("counter: expected {expect}, got {}", mem[0]))
            }
        }
    }

    fn params(model: MemoryModel) -> EngineParams {
        EngineParams { num_cus: 4, max_contexts_per_cu: 8, model, ..Default::default() }
    }

    #[test]
    fn functional_result_is_model_independent() {
        for model in MemoryModel::ALL {
            let k = CounterKernel { blocks: 4, tpb: 4, n: 8, class: OpClass::Commutative };
            let mut b = FixedLat::default();
            let r = run_kernel(&k, &params(model), &mut b);
            k.validate(&r.memory).unwrap();
        }
    }

    #[test]
    fn relaxed_atomics_overlap_and_run_faster() {
        let k = CounterKernel { blocks: 4, tpb: 4, n: 8, class: OpClass::Commutative };
        let mut b0 = FixedLat::default();
        let c0 = run_kernel(&k, &params(MemoryModel::Drf0), &mut b0).cycles;
        let mut b1 = FixedLat::default();
        let c1 = run_kernel(&k, &params(MemoryModel::Drf1), &mut b1).cycles;
        let mut br = FixedLat::default();
        let rr = run_kernel(&k, &params(MemoryModel::Drfrlx), &mut br);
        assert!(c1 < c0, "DRF1 removes inval/flush: {c1} !< {c0}");
        assert!(rr.cycles < c1, "DRFrlx overlaps atomics: {} !< {c1}", rr.cycles);
        assert!(rr.atomics_overlapped > 0);
        // DRF0 paid acquire + release per atomic.
        assert!(b0.acquires > 0 && b0.releases > 0);
        assert_eq!(br.acquires, 0);
        assert_eq!(br.releases, 0);
    }

    /// Producer/consumer within one block via scratchpad + barrier.
    struct BarrierKernel;

    struct BarrierItem {
        tid: usize,
        step: usize,
    }

    impl WorkItem for BarrierItem {
        fn next(&mut self, last: Option<Value>) -> Op {
            self.step += 1;
            match (self.tid, self.step) {
                // Thread 0 publishes to scratch, all meet the barrier,
                // thread 1 reads and stores globally.
                (0, 1) => Op::ScratchStore { addr: 0, value: 77 },
                (_, 1) => Op::Think(0),
                (_, 2) => Op::Barrier,
                (1, 3) => Op::ScratchLoad { addr: 0 },
                (1, 4) => Op::Store { addr: 0, value: last.unwrap(), class: OpClass::Data },
                _ => Op::Done,
            }
        }
    }

    impl Kernel for BarrierKernel {
        fn name(&self) -> String {
            "barrier".into()
        }
        fn blocks(&self) -> usize {
            1
        }
        fn threads_per_block(&self) -> usize {
            2
        }
        fn scratch_words(&self) -> usize {
            1
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn item(&self, _b: usize, t: usize) -> Box<dyn WorkItem> {
            Box::new(BarrierItem { tid: t, step: 0 })
        }
    }

    #[test]
    fn barrier_orders_scratchpad_communication() {
        let mut b = FixedLat::default();
        let r = run_kernel(&BarrierKernel, &params(MemoryModel::Drf0), &mut b);
        assert_eq!(r.memory[0], 77);
        assert_eq!(r.barriers, 1);
        assert!(r.scratch_accesses >= 2);
    }

    /// Per-block scratchpad traffic: thread 0 fills every word of its
    /// block's scratchpad with `block * WORDS + word + 1`, all meet a
    /// barrier, and thread 1 copies the words to global memory at the
    /// same index.
    struct ScratchKernel;

    const SCRATCH_BLOCKS: usize = 12;
    const WORDS: usize = 3;

    struct ScratchItem {
        block: usize,
        tid: usize,
        step: usize,
    }

    impl WorkItem for ScratchItem {
        fn next(&mut self, last: Option<Value>) -> Op {
            self.step += 1;
            let base = (self.block * WORDS) as Value;
            match (self.tid, self.step) {
                (0, s) if s <= WORDS => {
                    Op::ScratchStore { addr: s as Addr - 1, value: base + s as Value }
                }
                (0, s) if s == WORDS + 1 => Op::Barrier,
                (1, 1) => Op::Barrier,
                // Loads at even steps, stores of what they read at odd.
                (1, s) if s <= 2 * WORDS + 1 => {
                    let word = (s as Addr - 2) / 2;
                    if s % 2 == 0 {
                        Op::ScratchLoad { addr: word }
                    } else {
                        Op::Store { addr: base + word, value: last.unwrap(), class: OpClass::Data }
                    }
                }
                _ => Op::Done,
            }
        }
    }

    impl Kernel for ScratchKernel {
        fn name(&self) -> String {
            "scratch".into()
        }
        fn blocks(&self) -> usize {
            SCRATCH_BLOCKS
        }
        fn threads_per_block(&self) -> usize {
            2
        }
        fn scratch_words(&self) -> usize {
            WORDS
        }
        fn memory_words(&self) -> usize {
            SCRATCH_BLOCKS * WORDS
        }
        fn item(&self, b: usize, t: usize) -> Box<dyn WorkItem> {
            Box::new(ScratchItem { block: b, tid: t, step: 0 })
        }
    }

    #[test]
    fn block_scratchpads_are_private() {
        // 12 blocks on 4 CUs with room for one block each: four blocks
        // share the machine at a time and later ones launch in waves.
        let p = EngineParams {
            num_cus: 4,
            max_contexts_per_cu: 2,
            model: MemoryModel::Drf0,
            ..Default::default()
        };
        let r = run_kernel(&ScratchKernel, &p, &mut FixedLat::default());
        let want: Vec<Value> = (1..=(SCRATCH_BLOCKS * WORDS) as Value).collect();
        assert_eq!(r.memory, want, "each block reads back only its own scratchpad");
        assert_eq!(r.barriers, SCRATCH_BLOCKS as u64);
        assert_eq!(r.scratch_accesses, (2 * SCRATCH_BLOCKS * WORDS) as u64);
    }

    /// `blocks` one-thread blocks that copy their `words`-word
    /// scratchpad to global memory without writing it: every copied
    /// word must read 0.
    struct ScratchDump {
        blocks: usize,
        words: usize,
    }

    struct ScratchDumpItem {
        base: usize,
        words: usize,
        step: usize,
    }

    impl WorkItem for ScratchDumpItem {
        fn next(&mut self, last: Option<Value>) -> Op {
            self.step += 1;
            let word = (self.step - 1) / 2;
            match (word < self.words, self.step % 2) {
                (false, _) => Op::Done,
                (true, 1) => Op::ScratchLoad { addr: word as Addr },
                (true, _) => Op::Store {
                    addr: (self.base + word) as Addr,
                    value: last.expect("a scratch load returns a value"),
                    class: OpClass::Data,
                },
            }
        }
    }

    impl Kernel for ScratchDump {
        fn name(&self) -> String {
            "scratch_dump".into()
        }
        fn blocks(&self) -> usize {
            self.blocks
        }
        fn threads_per_block(&self) -> usize {
            1
        }
        fn scratch_words(&self) -> usize {
            self.words
        }
        fn memory_words(&self) -> usize {
            self.blocks * self.words
        }
        fn init_memory(&self, mem: &mut [Value]) {
            mem.fill(Value::MAX);
        }
        fn item(&self, b: usize, _t: usize) -> Box<dyn WorkItem> {
            Box::new(ScratchDumpItem { base: b * self.words, words: self.words, step: 0 })
        }
    }

    /// `run` on a new thread, which starts with no launch state.
    fn on_a_fresh_thread<R: Send>(run: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(run).join()).expect("the fresh run does not panic")
    }

    #[test]
    fn a_run_after_one_that_dirtied_scratch_matches_a_fresh_run() {
        let p = params(MemoryModel::Drf0);
        let dump = |blocks, words| {
            run_kernel(&ScratchDump { blocks, words }, &p, &mut FixedLat::default())
        };
        // Fewer, equal and more scratch words than the dirtying run
        // left behind (12 blocks × 3 words), on one thread.
        for (blocks, words) in [(4, 3), (12, 3), (5, 9)] {
            let dirty = run_kernel(&ScratchKernel, &p, &mut FixedLat::default());
            assert!(dirty.memory.iter().all(|&v| v != 0), "the first kernel fills scratch");
            let reused = dump(blocks, words);
            assert_eq!(reused, on_a_fresh_thread(|| dump(blocks, words)), "{blocks}×{words}");
            assert!(reused.memory.iter().all(|&v| v == 0), "scratch reads as zero");
        }
    }

    /// Two blocks of two items that issue relaxed stores and a scratch
    /// store; item (1, 0) then panics while the others are queued, with
    /// atomics outstanding.
    struct PanicsMidRun;

    struct PanicsMidRunItem {
        panics: bool,
        step: usize,
    }

    impl WorkItem for PanicsMidRunItem {
        fn next(&mut self, _last: Option<Value>) -> Op {
            self.step += 1;
            match self.step {
                1..=3 => {
                    Op::Store { addr: self.step as Addr, value: 1, class: OpClass::Commutative }
                }
                4 => Op::ScratchStore { addr: 0, value: 9 },
                5 if self.panics => panic!("work item panics mid-run"),
                5 => Op::Think(50),
                _ => Op::Done,
            }
        }
    }

    impl Kernel for PanicsMidRun {
        fn name(&self) -> String {
            "panics".into()
        }
        fn blocks(&self) -> usize {
            2
        }
        fn threads_per_block(&self) -> usize {
            2
        }
        fn scratch_words(&self) -> usize {
            1
        }
        fn memory_words(&self) -> usize {
            4
        }
        fn item(&self, b: usize, t: usize) -> Box<dyn WorkItem> {
            Box::new(PanicsMidRunItem { panics: (b, t) == (1, 0), step: 0 })
        }
    }

    #[test]
    fn a_run_after_a_mid_run_panic_matches_a_fresh_run() {
        let p = params(MemoryModel::Drfrlx);
        let rerun = || {
            let counter = CounterKernel { blocks: 4, tpb: 4, n: 8, class: OpClass::Commutative };
            let counted = run_kernel(&counter, &p, &mut FixedLat::default());
            let dumped =
                run_kernel(&ScratchDump { blocks: 2, words: 1 }, &p, &mut FixedLat::default());
            (counted, dumped)
        };
        let panicked = std::panic::catch_unwind(|| {
            run_kernel(&PanicsMidRun, &p, &mut FixedLat::default());
        });
        assert!(panicked.is_err(), "the first run panics");
        let (counted, dumped) = rerun();
        assert!(counted.atomics_overlapped > 0, "the rerun overlaps atomics");
        assert_eq!((counted, dumped), on_a_fresh_thread(rerun));
    }

    #[test]
    #[should_panic(expected = "outside the 3-word scratchpad")]
    fn scratch_addresses_past_the_block_panic() {
        struct Overrun;
        impl WorkItem for Overrun {
            fn next(&mut self, _last: Option<Value>) -> Op {
                Op::ScratchStore { addr: WORDS as Addr, value: 1 }
            }
        }
        struct K;
        impl Kernel for K {
            fn name(&self) -> String {
                "overrun".into()
            }
            fn blocks(&self) -> usize {
                2
            }
            fn threads_per_block(&self) -> usize {
                1
            }
            fn scratch_words(&self) -> usize {
                WORDS
            }
            fn memory_words(&self) -> usize {
                1
            }
            fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
                Box::new(Overrun)
            }
        }
        run_kernel(&K, &params(MemoryModel::Drf0), &mut FixedLat::default());
    }

    #[test]
    fn blocks_queue_beyond_residency() {
        // 12 blocks on 4 CUs with room for 2 contexts (tpb=2 → 1
        // resident block per CU): blocks launch in waves.
        let k = CounterKernel { blocks: 12, tpb: 2, n: 2, class: OpClass::Paired };
        let mut b = FixedLat::default();
        let p = EngineParams {
            num_cus: 4,
            max_contexts_per_cu: 2,
            model: MemoryModel::Drf0,
            ..Default::default()
        };
        let r = run_kernel(&k, &p, &mut b);
        k.validate(&r.memory).unwrap();
    }

    /// Two-phase kernel across blocks: phase 1 writes, GlobalBarrier,
    /// phase 2 reads what another block wrote.
    struct TwoPhase;

    struct TwoPhaseItem {
        id: usize,
        total: usize,
        step: usize,
    }

    impl WorkItem for TwoPhaseItem {
        fn next(&mut self, last: Option<Value>) -> Op {
            self.step += 1;
            match self.step {
                1 => Op::Store { addr: self.id as u64, value: 7, class: OpClass::Data },
                2 => Op::GlobalBarrier,
                // Read the slot of the "next" work item, which lives in
                // a different block.
                3 => Op::Load { addr: ((self.id + 1) % self.total) as u64, class: OpClass::Data },
                4 => Op::Store {
                    addr: (self.total + self.id) as u64,
                    value: last.unwrap(),
                    class: OpClass::Data,
                },
                _ => Op::Done,
            }
        }
    }

    impl Kernel for TwoPhase {
        fn name(&self) -> String {
            "two_phase".into()
        }
        fn blocks(&self) -> usize {
            4
        }
        fn threads_per_block(&self) -> usize {
            1
        }
        fn memory_words(&self) -> usize {
            8
        }
        fn item(&self, b: usize, t: usize) -> Box<dyn WorkItem> {
            Box::new(TwoPhaseItem { id: b + t, total: 4, step: 0 })
        }
    }

    #[test]
    fn global_barrier_separates_grid_phases() {
        let mut b = FixedLat::default();
        let r = run_kernel(&TwoPhase, &params(MemoryModel::Drf0), &mut b);
        // Every phase-2 read saw the phase-1 value from another block.
        for i in 4..8 {
            assert_eq!(r.memory[i], 7);
        }
        assert_eq!(r.barriers, 1);
        // Kernel-boundary semantics: every CU flushed and invalidated.
        assert!(b.releases >= 4);
        assert!(b.acquires >= 4);
    }

    #[test]
    #[should_panic(expected = "every block to be resident")]
    fn global_barrier_rejects_queued_blocks() {
        struct K;
        struct I {
            step: usize,
        }
        impl WorkItem for I {
            fn next(&mut self, _l: Option<Value>) -> Op {
                self.step += 1;
                match self.step {
                    1 => Op::GlobalBarrier,
                    _ => Op::Done,
                }
            }
        }
        impl Kernel for K {
            fn name(&self) -> String {
                "bad".into()
            }
            fn blocks(&self) -> usize {
                8
            }
            fn threads_per_block(&self) -> usize {
                2
            }
            fn memory_words(&self) -> usize {
                1
            }
            fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
                Box::new(I { step: 0 })
            }
        }
        // 2 CUs x 2 contexts: only 2 of 8 blocks resident.
        let p = EngineParams {
            num_cus: 2,
            max_contexts_per_cu: 2,
            model: MemoryModel::Drf0,
            ..Default::default()
        };
        let mut b = FixedLat::default();
        run_kernel(&K, &p, &mut b);
    }

    #[test]
    fn explicit_drf_policy_matches_model_derived_run() {
        for model in MemoryModel::ALL {
            let k = CounterKernel { blocks: 4, tpb: 4, n: 8, class: OpClass::Commutative };
            let mut b1 = FixedLat::default();
            let implicit = run_kernel(&k, &params(model), &mut b1);
            let mut b2 = FixedLat::default();
            // params.model deliberately disagrees: the policy must win.
            let p = EngineParams { model: MemoryModel::Drf0, ..params(model) };
            let explicit = run_kernel_policy(&k, &p, &mut b2, &DrfPolicy(model));
            assert_eq!(implicit, explicit);
        }
    }

    #[test]
    fn paired_atomics_fence_outstanding_relaxed_ones() {
        // One item: two relaxed RMWs then a paired store. The paired
        // store's release must start no earlier than the atomics'
        // completions (checked indirectly: total cycles exceed the
        // relaxed completions).
        struct Item {
            step: usize,
        }
        impl WorkItem for Item {
            fn next(&mut self, _last: Option<Value>) -> Op {
                self.step += 1;
                match self.step {
                    1 | 2 => Op::Rmw {
                        addr: 0,
                        rmw: RmwKind::Add,
                        operand: 1,
                        class: OpClass::Commutative,
                        use_result: false,
                    },
                    3 => Op::Store { addr: 1, value: 1, class: OpClass::Paired },
                    _ => Op::Done,
                }
            }
        }
        struct K;
        impl Kernel for K {
            fn name(&self) -> String {
                "fence".into()
            }
            fn blocks(&self) -> usize {
                1
            }
            fn threads_per_block(&self) -> usize {
                1
            }
            fn memory_words(&self) -> usize {
                2
            }
            fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
                Box::new(Item { step: 0 })
            }
        }
        let mut b = FixedLat::default();
        let r = run_kernel(&K, &params(MemoryModel::Drfrlx), &mut b);
        // Relaxed RMWs complete at ~51, 52; release adds 20; the store
        // 50 → well past 120.
        assert!(r.cycles >= 50 + 20 + 50, "got {}", r.cycles);
        assert_eq!(b.releases, 1);
    }

    #[test]
    fn jitter_none_and_zero_delay_match_legacy_timing() {
        let k = CounterKernel { blocks: 4, tpb: 4, n: 8, class: OpClass::Commutative };
        let mut b0 = FixedLat::default();
        let base = run_kernel(&k, &params(MemoryModel::Drf0), &mut b0);
        let mut b1 = FixedLat::default();
        let p = EngineParams {
            jitter: Some(IssueJitter { seed: 42, max_delay: 0 }),
            ..params(MemoryModel::Drf0)
        };
        let zero = run_kernel(&k, &p, &mut b1);
        assert_eq!(base, zero, "max_delay=0 must not perturb the schedule");
    }

    #[test]
    fn jitter_perturbs_timing_but_not_function() {
        let k = CounterKernel { blocks: 4, tpb: 4, n: 8, class: OpClass::Commutative };
        let mut b0 = FixedLat::default();
        let base = run_kernel(&k, &params(MemoryModel::Drf0), &mut b0);
        let mut b1 = FixedLat::default();
        let p = EngineParams {
            jitter: Some(IssueJitter { seed: 1, max_delay: 13 }),
            ..params(MemoryModel::Drf0)
        };
        let jit = run_kernel(&k, &p, &mut b1);
        k.validate(&jit.memory).unwrap();
        assert_ne!(base.cycles, jit.cycles, "jitter should move the schedule");
        // Same seed, same run: fully reproducible.
        let mut b2 = FixedLat::default();
        let again = run_kernel(&k, &p, &mut b2);
        assert_eq!(jit, again);
    }

    /// The ids of the contexts issuing their second and third ops, in
    /// issue order.
    type OrderLog = std::sync::Arc<std::sync::Mutex<[Vec<usize>; 2]>>;

    struct OrderKernel {
        contexts: usize,
        log: OrderLog,
    }

    struct OrderItem {
        id: usize,
        n: usize,
        calls: usize,
        log: OrderLog,
    }

    impl WorkItem for OrderItem {
        fn next(&mut self, _last: Option<Value>) -> Op {
            let (id, n) = (self.id, self.n);
            self.calls += 1;
            if self.calls > 1 {
                self.log.lock().unwrap()[self.calls - 2].push(id);
            }
            match self.calls {
                // Issued at cycle `id` (one port): ready again at
                // 2n + 1 - id, so higher ids come back first.
                1 => Op::Think((2 * n - 2 * id) as u32),
                // Issued at 2n + 1 - id: every context is ready again at
                // 3n + 2, pushed in descending id order.
                2 => Op::Think((n + id) as u32),
                _ => Op::Done,
            }
        }
    }

    impl Kernel for OrderKernel {
        fn name(&self) -> String {
            "order".into()
        }
        fn blocks(&self) -> usize {
            1
        }
        fn threads_per_block(&self) -> usize {
            self.contexts
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn item(&self, _b: usize, t: usize) -> Box<dyn WorkItem> {
            Box::new(OrderItem { id: t, n: self.contexts, calls: 0, log: self.log.clone() })
        }
    }

    #[test]
    fn contexts_ready_at_the_same_cycle_run_in_id_order() {
        // 1,040 contexts: ids on both sides of 512 and 1,024, so a
        // context field too narrow for them would mis-order the ties.
        let n = 1040;
        let k = OrderKernel { contexts: n, log: Default::default() };
        let p = EngineParams { num_cus: 1, max_contexts_per_cu: n, ..Default::default() };
        let r = run_kernel(&k, &p, &mut FixedLat::default());
        let [second, third] = std::mem::take(&mut *k.log.lock().unwrap());
        let ascending: Vec<usize> = (0..n).collect();
        let descending: Vec<usize> = (0..n).rev().collect();
        assert_eq!(second, descending, "second ops issue at distinct cycles, high ids first");
        assert_eq!(third, ascending, "ties at cycle 3n + 2 must break by context id");
        // The last tie-breaker issues at 3n + 2 + (n - 1) and retires.
        assert_eq!(r.cycles, 4 * n as Cycle + 1);
    }

    /// A [`HeapQueue`] beside a plain heap, fed the same pushes.
    struct QueueTwin {
        queue: HeapQueue,
        model: BinaryHeap<Reverse<u64>>,
        ctxs: Vec<Ctx>,
        seed: u64,
        draws: u64,
        pops: usize,
    }

    impl QueueTwin {
        /// Make `ctx` ready a few cycles after `now` in both queues;
        /// small offsets give many ties, broken by context id.
        fn push(&mut self, now: Cycle, ctx: usize) {
            let at = now + self.draw(4);
            self.ctxs[ctx].state = CtxState::Ready(at);
            self.queue.push(at, ctx);
            self.model.push(Reverse(at << CTX_BITS | ctx as u64));
        }

        /// Pop both queues, check they agree, and park the popped
        /// context (as one that reached `Barrier` or `Done`).
        fn pop(&mut self) -> Option<(Cycle, usize)> {
            let got = self.queue.pop(&self.ctxs);
            let want = self
                .model
                .pop()
                .map(|Reverse(k)| (k >> CTX_BITS, (k & (MAX_CONTEXTS as u64 - 1)) as usize));
            assert_eq!(got, want, "pop {}", self.pops);
            if let Some((at, i)) = got {
                self.ctxs[i].state = CtxState::AtBarrier(at);
                self.pops += 1;
            }
            got
        }

        /// The next draw in `0..n` of the seed's SplitMix64 stream.
        fn draw(&mut self, n: u64) -> u64 {
            self.draws += 1;
            IssueJitter { seed: self.seed, max_delay: n - 1 }.delay(0, self.draws)
        }
    }

    #[test]
    fn ready_queue_pops_like_a_plain_heap() {
        const N: usize = 48;
        for seed in 0..8u64 {
            let ctxs = (0..N)
                .map(|_| Ctx {
                    item: Box::new(CounterItem { left: 0, class: OpClass::Data }),
                    cu: 0,
                    block: 0,
                    state: CtxState::Finished(0),
                    last: None,
                    outstanding: Vec::new(),
                    steps: 0,
                })
                .collect();
            let mut t = QueueTwin {
                queue: HeapQueue::default(),
                model: BinaryHeap::new(),
                ctxs,
                seed,
                draws: 0,
                pops: 0,
            };
            t.queue.reset(N);
            for c in 0..N {
                t.push(0, c);
            }
            let mut now = 0;
            for _ in 0..4000 {
                // One pop, or several in a row.
                let pops = if t.draw(4) == 0 { 2 + t.draw(3) } else { 1 };
                let mut last = None;
                for _ in 0..pops {
                    if let Some((at, i)) = t.pop() {
                        (now, last) = (at, Some(i));
                    }
                }
                match (t.draw(4), last) {
                    // Pop then push of the same context.
                    (0 | 1, Some(i)) => t.push(now + 1, i),
                    // No push: the context is done.
                    (2, _) => {}
                    // A release: some parked contexts, the popped one
                    // among them, become ready.
                    _ => {
                        let parked: Vec<usize> = (0..N)
                            .filter(|&c| !matches!(t.ctxs[c].state, CtxState::Ready(_)))
                            .collect();
                        let mates = 1 + t.draw(parked.len() as u64) as usize;
                        for &c in &parked[..mates] {
                            t.push(now + 1, c);
                        }
                    }
                }
            }
            while t.pop().is_some() {}
            assert!(t.pops > 4000, "seed {seed}: only {} pops", t.pops);
        }
    }

    /// A kernel that only reports its shape; running any item is a bug.
    struct Oversized;

    impl Kernel for Oversized {
        fn name(&self) -> String {
            "oversized".into()
        }
        fn blocks(&self) -> usize {
            MAX_CONTEXTS / 64 + 1
        }
        fn threads_per_block(&self) -> usize {
            64
        }
        fn memory_words(&self) -> usize {
            1
        }
        fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
            unreachable!("an oversized kernel must be rejected before it launches")
        }
    }

    #[test]
    #[should_panic(expected = "kernel has more than 1048576 contexts")]
    fn kernels_with_more_contexts_than_the_ready_queue_orders_panic() {
        let p = EngineParams { max_contexts_per_cu: 64, ..Default::default() };
        run_kernel(&Oversized, &p, &mut FixedLat::default());
    }
}
