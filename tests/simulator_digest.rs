//! Frozen digests of the simulator's layers.
//!
//! Each test drives seeded inputs through one layer — the NoC mesh,
//! the coherence memory system, the GPU engine's scheduler and the
//! template-built micro kernels on the whole system — SplitMix64-folds
//! every observable the layer reports into one 64-bit value, and
//! compares it against a committed constant.
//!
//! Each constant is the output of the implementation the layer was
//! refactored from: while that reference still existed, the test folded
//! both sides, asserted them equal, and the shared value was committed.
//! The digest also covers the substrate the references shared with
//! production (`Cache`, `Mshr`, `Mesh`, `StoreBuffer`), so a change
//! there moves it too.
//!
//! A change that is *meant* to alter a layer's timing recomputes that
//! layer's constant and says why in the change description.

mod rng;

use drfrlx::sim::coherence::{
    AccessKind, CoherencePolicy, DeNovoCoherence, GpuCoherence, MemSysParams, MemorySystem,
    MesiWbCoherence, ProtoStats,
};
use drfrlx::sim::energy::EnergyCounters;
use drfrlx::sim::gpu::{
    run_kernel, Addr, Cycle, EngineParams, EngineReport, IssueJitter, Kernel, MemoryBackend, Op,
    RmwKind, Value, WorkItem,
};
use drfrlx::sim::noc::{Mesh, NocParams, NocStats, NodeId};
use drfrlx::sim::trace::{EventKind, KindTotals, SharedTracer, Trace, TraceBuffer, TraceEvent};
use drfrlx::sim::{run_workload, RunReport, SysParams};
use drfrlx::workloads::micro::{
    Flags, Hist, HistGlobal, HistGlobalNonOrder, HistParams, RefCounter, Seqlocks, SplitCounter,
};
use drfrlx::{MemoryModel, OpClass, Protocol, SystemConfig};
use rng::{mix, SplitMix64};

/// Fold a sequence of values into `h`.
fn fold(h: u64, xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(h, mix)
}

/// Fold every `ProtoStats` counter; the exhaustive pattern stops a new
/// counter from compiling until it is folded too.
fn fold_proto(h: u64, s: &ProtoStats) -> u64 {
    let &ProtoStats {
        l1_hits,
        l1_misses,
        invalidation_events,
        lines_invalidated,
        sb_flushes,
        atomics_at_l2,
        atomics_at_l1,
        atomic_l1_reuse,
        remote_l1_transfers,
        mshr_coalesced,
        writebacks,
        dram_refills,
        sharer_invalidations,
    } = s;
    fold(
        h,
        [
            l1_hits,
            l1_misses,
            invalidation_events,
            lines_invalidated,
            sb_flushes,
            atomics_at_l2,
            atomics_at_l1,
            atomic_l1_reuse,
            remote_l1_transfers,
            mshr_coalesced,
            writebacks,
            dram_refills,
            sharer_invalidations,
        ],
    )
}

// ---------------------------------------------------------------------
// NoC: flat link tables.
// ---------------------------------------------------------------------

/// The digest of the mesh's arrivals and per-link statistics.
const NOC_FROZEN: u64 = 0x71f3_a9b9_1211_99ec;

/// Every `send` arrival and every link's flit and message counts for a
/// fixed 200-message pattern on a 5×3 mesh, frozen from the map-keyed
/// mesh the flat link tables replaced. An intended timing change
/// recomputes `NOC_FROZEN` and says why in the change description.
#[test]
fn noc_mesh_matches_the_frozen_digest() {
    let mut m = Mesh::new(NocParams { width: 5, height: 3, ..NocParams::default() });
    // 200 messages from an LCG, mixing hotspots and crossings; one
    // departure every three cycles.
    let nodes = m.nodes();
    let mut seed = 0x5EEDu64;
    let mut h = 0;
    for i in 0..200u64 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let src = NodeId(((seed >> 33) % nodes as u64) as u16 % nodes);
        let dst = NodeId((seed >> 17) as u16 % nodes);
        h = mix(h, m.send(i * 3, src, dst, 1 + (seed % 7)));
    }
    for ((from, to), ls) in m.link_stats() {
        h = fold(h, [from.0 as u64, to.0 as u64, ls.flits, ls.messages]);
    }
    assert_eq!(h, NOC_FROZEN, "NoC digest drifted: {h:#018x}");
}

// ---------------------------------------------------------------------
// Coherence: the memory system behind its policy seam.
// ---------------------------------------------------------------------

/// The digest of the 40 short traced tapes.
const COHERENCE_TAPES_FROZEN: u64 = 0xa90c_5a13_3e9d_28de;

/// The digest of the two long contended tapes.
const COHERENCE_LONG_FROZEN: u64 = 0x9dde_0fce_0215_4ae2;

const KINDS: [AccessKind; 5] = [
    AccessKind::DataLoad,
    AccessKind::DataStore,
    AccessKind::AtomicLoad,
    AccessKind::AtomicStore,
    AccessKind::AtomicRmw,
];

/// One step of a generated workload tape.
#[derive(Debug, Clone, Copy)]
enum Step {
    Load(usize, u64, AccessKind),
    Store(usize, u64, AccessKind),
    Rmw(usize, u64),
    Acquire(usize),
    Release(usize),
    /// Let simulated time advance past all in-flight activity.
    Advance(u64),
}

/// A random access tape: mostly clustered on a few hot lines (so
/// ownership bounces, MSHRs coalesce and store buffers fill), with a
/// cold-address tail for evictions and DRAM refills.
fn random_tape(r: &mut SplitMix64, num_cus: usize, len: usize) -> Vec<Step> {
    let hot: Vec<u64> = (0..4).map(|_| r.below(1 << 20)).collect();
    (0..len)
        .map(|_| {
            let cu = r.below(num_cus as u64) as usize;
            let addr = if r.below(4) == 0 { r.below(1 << 20) } else { hot[r.below(4) as usize] };
            let kind = KINDS[r.below(KINDS.len() as u64) as usize];
            match r.below(12) {
                0..=3 => Step::Load(cu, addr, kind),
                4..=7 => Step::Store(cu, addr, kind),
                8..=9 => Step::Rmw(cu, addr),
                10 => {
                    if r.below(2) == 0 {
                        Step::Acquire(cu)
                    } else {
                        Step::Release(cu)
                    }
                }
                _ => Step::Advance(r.below(400)),
            }
        })
        .collect()
}

/// Replay `tape` on `sys` through its public timing API; `now`
/// advances with every completion so later accesses observe earlier
/// ones. Folds the per-step completion cycles, then the protocol, NoC
/// and energy counters, into `h`.
fn fold_replay<T: Trace>(mut h: u64, sys: &mut MemorySystem<T>, tape: &[Step]) -> u64 {
    let mut now: u64 = 0;
    for step in tape {
        let done = match *step {
            Step::Load(cu, addr, kind) => sys.load(now, cu, addr, kind),
            Step::Store(cu, addr, kind) => sys.store(now, cu, addr, kind),
            Step::Rmw(cu, addr) => sys.rmw(now, cu, addr),
            Step::Acquire(cu) => sys.acquire(now, cu),
            Step::Release(cu) => sys.release(now, cu),
            Step::Advance(by) => now + by,
        };
        // Half the steps issue back-to-back at `now`; the others wait
        // for their completion (its parity is the coin).
        if done % 2 == 0 {
            now = now.max(done);
        }
        h = mix(h, done);
    }
    h = fold_proto(h, sys.stats());
    let &NocStats { messages, flit_hops, total_latency, contention_cycles } = sys.noc_stats();
    h = fold(h, [messages, flit_hops, total_latency, contention_cycles]);
    let (l1, l1_tags, l2, dram, noc) = sys.energy_events();
    fold(h, [l1, l1_tags, l2, dram, noc])
}

/// Fold every retained trace event, then the per-kind totals.
fn fold_trace(mut h: u64, buf: &TraceBuffer) -> u64 {
    for &TraceEvent { cycle, addr, arg, dur, lane, kind } in buf.events() {
        h = fold(h, [cycle, addr, arg, dur as u64, lane as u64, kind as u64]);
    }
    for kind in EventKind::ALL {
        let KindTotals { count, dur_sum, arg_sum } = buf.totals(kind);
        h = fold(h, [count, dur_sum, arg_sum]);
    }
    fold(h, [buf.recorded(), buf.len() as u64])
}

/// Replay `tape` on the traced system `build` makes, then fold its
/// trace events too.
fn fold_traced(
    h: u64,
    tape: &[Step],
    build: impl FnOnce(SharedTracer) -> MemorySystem<SharedTracer>,
) -> u64 {
    let tracer = SharedTracer::with_capacity(1 << 14);
    let mut sys = build(tracer.clone());
    let h = fold_replay(h, &mut sys, tape);
    drop(sys);
    fold_trace(h, &tracer.into_buffer())
}

/// Replay the 40 short tapes drawn from `r`, the `case`th traced under
/// `protocol(case)`, and fold their observables and trace events.
fn fold_traced_tapes(r: &mut SplitMix64, protocol: impl Fn(u64) -> Protocol) -> u64 {
    let mut h = 0;
    for case in 0..40u64 {
        let params = MemSysParams::default();
        let len = 120 + r.below(120) as usize;
        let tape = random_tape(r, params.num_cus, len);
        h = fold_traced(h, &tape, |tracer| {
            MemorySystem::with_tracer(protocol(case), params, tracer)
        });
    }
    h
}

/// Every completion cycle, `ProtoStats`, NoC and energy counter, trace
/// event and per-kind trace total of 40 short traced tapes (GPU and
/// DeNovo alternating), frozen from the enum-dispatch memory system
/// the policy seam replaced. An intended timing change recomputes
/// `COHERENCE_TAPES_FROZEN` and says why in the change description.
#[test]
fn coherence_tapes_match_the_frozen_digest() {
    let mut r = SplitMix64::new(0xC0_FFEE_D15C);
    let h = fold_traced_tapes(&mut r, |case| [Protocol::Gpu, Protocol::DeNovo][case as usize % 2]);
    assert_eq!(h, COHERENCE_TAPES_FROZEN, "coherence tape digest drifted: {h:#018x}");
}

/// The digest of the 40 short tapes and one long tape under MESI-WB.
const COHERENCE_MESI_FROZEN: u64 = 0x2e95_5015_fb37_18a1;

/// The same 40 traced tapes under MESI-WB, then one untraced
/// 4000-step tape, frozen from MESI-WB's own copies of the L1 read
/// path, the ownership store and RMW and registration, before the
/// protocols came to share one copy of each. The long tape must
/// invalidate sharers and forward from owners. It writes back no owned
/// line, so MESI-WB evictions stay covered only by
/// `mesi::tests::evicting_owned_line_writes_back`. An intended timing
/// change recomputes `COHERENCE_MESI_FROZEN` and says why in the
/// change description.
#[test]
fn coherence_mesi_tapes_match_the_frozen_digest() {
    let mut r = SplitMix64::new(0xC0_FFEE_D15C);
    let mut h = fold_traced_tapes(&mut r, |_| Protocol::MesiWb);
    let params = MemSysParams::default();
    let tape = random_tape(&mut r, params.num_cus, 4000);
    let mut sys = MemorySystem::new(Protocol::MesiWb, params);
    h = fold_replay(h, &mut sys, &tape);
    let s = sys.stats();
    assert!(s.sharer_invalidations > 0 && s.remote_l1_transfers > 0, "{s:?}");
    assert_eq!(h, COHERENCE_MESI_FROZEN, "MESI-WB coherence digest drifted: {h:#018x}");
}

/// The same observables, untraced, for one 4000-step tape per protocol,
/// frozen from the enum-dispatch memory system. An intended timing
/// change recomputes `COHERENCE_LONG_FROZEN` and says why in the change
/// description.
#[test]
fn coherence_long_contended_run_matches_the_frozen_digest() {
    // One long tape per protocol instead of many short ones, so
    // contention builds up. No tape here fills a 128-entry MSHR, so the
    // `MshrOutcome::Full` retries are pinned by the coherence crate's
    // `an_access_finding_every_mshr_busy_waits_for_one_then_fetches`
    // unit test instead.
    let mut r = SplitMix64::new(0x05EE_D0F5_7A75_u64);
    let mut h = 0;
    for protocol in [Protocol::Gpu, Protocol::DeNovo] {
        let params = MemSysParams::default();
        let tape = random_tape(&mut r, params.num_cus, 4000);
        let mut sys = MemorySystem::new(protocol, params);
        h = fold_replay(h, &mut sys, &tape);
        // The run must have exercised the interesting machinery.
        let s = sys.stats();
        assert!(s.l1_misses > 0 && s.sb_flushes > 0 && s.invalidation_events > 0);
    }
    assert_eq!(h, COHERENCE_LONG_FROZEN, "long contended coherence digest drifted: {h:#018x}");
}

/// Each protocol's own policy, injected through
/// `MemorySystem::with_policy` and so reached through the boxed trait
/// object instead of the static dispatch, replays a tape to the same
/// observables and trace events as the built-in protocol.
#[test]
fn injected_policies_replay_like_the_builtin_ones() {
    let mut r = SplitMix64::new(0x1213_EC7E_D5EA);
    let tape = random_tape(&mut r, MemSysParams::default().num_cus, 1000);
    let policies: [(Protocol, Box<dyn CoherencePolicy<SharedTracer>>); 3] = [
        (Protocol::Gpu, Box::new(GpuCoherence)),
        (Protocol::DeNovo, Box::new(DeNovoCoherence)),
        (Protocol::MesiWb, Box::new(MesiWbCoherence)),
    ];
    for (protocol, policy) in policies {
        let params = MemSysParams::default();
        let builtin = fold_traced(0, &tape, |tracer| {
            MemorySystem::with_tracer(protocol, params.clone(), tracer)
        });
        let injected = fold_traced(0, &tape, |tracer| {
            MemorySystem::with_policy(protocol, policy, params, tracer)
        });
        assert_eq!(injected, builtin, "{protocol}: the injected policy diverged");
    }
}

// ---------------------------------------------------------------------
// Engine: the indexed ready queue.
// ---------------------------------------------------------------------

/// The digest of the 60 random kernels and their jittered reruns.
const ENGINE_FROZEN: u64 = 0xe800_3e1b_aecc_85f1;

/// Deterministic backend whose latencies vary by address and a per-run
/// salt, so schedules are exercised under non-uniform (but replayable)
/// memory timing, not just fixed latencies.
struct VariedLat {
    salt: u64,
}

impl VariedLat {
    fn lat(&self, addr: Addr, base: u64, spread: u64) -> u64 {
        base + (addr.wrapping_mul(0x9E37_79B9).wrapping_add(self.salt) % spread)
    }
}

impl MemoryBackend for VariedLat {
    fn load(&mut self, now: Cycle, _cu: usize, addr: Addr, atomic: bool) -> Cycle {
        now + self.lat(addr, if atomic { 40 } else { 8 }, 17)
    }
    fn store(&mut self, now: Cycle, _cu: usize, addr: Addr, atomic: bool) -> Cycle {
        now + self.lat(addr, if atomic { 40 } else { 2 }, 13)
    }
    fn rmw(&mut self, now: Cycle, _cu: usize, addr: Addr) -> Cycle {
        now + self.lat(addr, 45, 11)
    }
    fn acquire(&mut self, now: Cycle, _cu: usize) -> Cycle {
        now + 2
    }
    fn release(&mut self, now: Cycle, _cu: usize) -> Cycle {
        now + 15
    }
}

const CLASSES: [OpClass; 9] = [
    OpClass::Data,
    OpClass::Paired,
    OpClass::Unpaired,
    OpClass::Commutative,
    OpClass::NonOrdering,
    OpClass::Quantum,
    OpClass::Speculative,
    OpClass::Acquire,
    OpClass::Release,
];

const MEM_WORDS: usize = 16;
const SCRATCH_WORDS: usize = 4;

/// A kernel that replays pre-generated op tapes: `tapes[block][thread]`
/// is the exact op sequence that `(block, thread)` will emit.
struct TapeKernel {
    blocks: usize,
    tpb: usize,
    tapes: Vec<Vec<Vec<Op>>>,
}

struct TapeItem {
    tape: Vec<Op>,
    pc: usize,
}

impl WorkItem for TapeItem {
    fn next(&mut self, _last: Option<Value>) -> Op {
        let op = self.tape.get(self.pc).copied().unwrap_or(Op::Done);
        self.pc += 1;
        op
    }
}

impl Kernel for TapeKernel {
    fn name(&self) -> String {
        "tape".into()
    }
    fn blocks(&self) -> usize {
        self.blocks
    }
    fn threads_per_block(&self) -> usize {
        self.tpb
    }
    fn memory_words(&self) -> usize {
        MEM_WORDS
    }
    fn scratch_words(&self) -> usize {
        SCRATCH_WORDS
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        Box::new(TapeItem { tape: self.tapes[block][thread].clone(), pc: 0 })
    }
}

/// One random non-barrier op.
fn random_op(r: &mut SplitMix64) -> Op {
    let class = CLASSES[r.below(CLASSES.len() as u64) as usize];
    let addr = r.below(MEM_WORDS as u64);
    match r.below(6) {
        0 => Op::Think(r.below(5) as u32),
        1 => Op::ScratchLoad { addr: r.below(SCRATCH_WORDS as u64) },
        2 => Op::ScratchStore { addr: r.below(SCRATCH_WORDS as u64), value: r.below(100) },
        3 => Op::Load { addr, class },
        4 => Op::Store { addr, value: r.below(100), class },
        _ => Op::Rmw {
            addr,
            rmw: RmwKind::Add,
            operand: r.below(8),
            class,
            use_result: r.below(2) == 0,
        },
    }
}

/// Generate one random kernel. The grid shares a segment skeleton —
/// between segments every thread emits the same separator (a block
/// barrier, or a grid barrier when every block is resident) — so the
/// generated kernels never deadlock; within a segment each thread's
/// ops are independent.
fn random_kernel(r: &mut SplitMix64, all_resident: bool) -> TapeKernel {
    let blocks = 1 + r.below(5) as usize;
    let tpb = 1 + r.below(6) as usize;
    let segments = 1 + r.below(3) as usize;
    let separators: Vec<Op> = (1..segments)
        .map(|_| if all_resident && r.below(3) == 0 { Op::GlobalBarrier } else { Op::Barrier })
        .collect();
    let tapes = (0..blocks)
        .map(|_| {
            (0..tpb)
                .map(|_| {
                    let mut tape = Vec::new();
                    for sep in separators.iter().map(Some).chain(std::iter::once(None)) {
                        for _ in 0..r.below(6) {
                            tape.push(random_op(r));
                        }
                        if let Some(&sep) = sep {
                            tape.push(sep);
                        }
                    }
                    tape
                })
                .collect()
        })
        .collect();
    TapeKernel { blocks, tpb, tapes }
}

fn fold_engine(h: u64, r: &EngineReport) -> u64 {
    let EngineReport {
        cycles,
        core_ops,
        scratch_accesses,
        barriers,
        memory,
        atomics,
        atomics_overlapped,
    } = r;
    let h = fold(
        h,
        [
            *cycles,
            *core_ops,
            *scratch_accesses,
            *barriers,
            *atomics,
            *atomics_overlapped,
            memory.len() as u64,
        ],
    );
    fold(h, memory.iter().copied())
}

/// Every `EngineReport` field of 60 random kernels under the three
/// models, and of a jittered rerun of every third one, frozen from the
/// linear-scan scheduler the indexed ready queue replaced. An intended
/// timing change recomputes `ENGINE_FROZEN` and says why in the change
/// description.
#[test]
fn engine_scheduler_matches_the_frozen_digest() {
    let mut r = SplitMix64::new(0xD1FF_5C4E_D011);
    let mut h = 0;
    for case in 0..60u64 {
        let model = MemoryModel::ALL[(case % 3) as usize];
        // Alternate between grids that overflow CU residency (blocks
        // queue and relaunch) and fully resident grids (which may also
        // use grid barriers).
        let all_resident = case % 2 == 0;
        let kernel = random_kernel(&mut r, all_resident);
        let params = EngineParams {
            num_cus: 1 + r.below(3) as usize,
            max_contexts_per_cu: if all_resident {
                // Enough room that every block is resident at launch.
                kernel.tpb * kernel.blocks
            } else {
                kernel.tpb * (1 + r.below(2) as usize)
            },
            model,
            barrier_latency: 1 + r.below(8),
            global_barrier_latency: 100 + r.below(500),
            max_outstanding_atomics: 1 + r.below(8) as usize,
            jitter: None,
        };
        let salt = r.next_u64();
        h = fold_engine(h, &run_kernel(&kernel, &params, &mut VariedLat { salt }));
        // Every third case reruns with issue jitter, whose seeded
        // per-transition delays reorder the ready queue.
        if case % 3 == 2 {
            let jitter = IssueJitter { seed: salt, max_delay: 1 + salt % 13 };
            let params = EngineParams { jitter: Some(jitter), ..params };
            h = fold_engine(h, &run_kernel(&kernel, &params, &mut VariedLat { salt }));
        }
    }
    assert_eq!(h, ENGINE_FROZEN, "engine scheduler digest drifted: {h:#018x}");
}

// ---------------------------------------------------------------------
// Micro kernels: template-built programs on the whole system.
// ---------------------------------------------------------------------

/// The digest of the micro kernels at small and full scale.
const MICRO_FROZEN: u64 = 0x132e_c31f_040d_f232;

/// The digest of the full-scale histograms.
const MICRO_HISTOGRAMS_FROZEN: u64 = 0xf864_7714_ff4d_3ad3;

fn fold_run(h: u64, r: &RunReport) -> u64 {
    let h = fold(h, [r.cycles, r.atomics, r.atomics_overlapped, r.memory.len() as u64]);
    let h = fold(h, r.memory.iter().copied());
    let EnergyCounters {
        core_ops,
        scratch_accesses,
        l1_accesses,
        l1_tag_ops,
        l2_accesses,
        dram_accesses,
        noc_flit_hops,
    } = r.counters;
    let h = fold(
        h,
        [
            core_ops,
            scratch_accesses,
            l1_accesses,
            l1_tag_ops,
            l2_accesses,
            dram_accesses,
            noc_flit_hops,
        ],
    );
    fold_proto(h, &r.proto)
}

/// Fold the run of `kernel` under each of `configs` into `h`.
fn fold_micro(h: u64, kernel: &dyn Kernel, configs: &[SystemConfig]) -> u64 {
    let params = SysParams::integrated();
    configs.iter().fold(h, |h, &config| fold_run(h, &run_workload(kernel, config, &params)))
}

fn cfg(abbrev: &str) -> SystemConfig {
    SystemConfig::from_abbrev(abbrev).unwrap()
}

/// Cycles, final memory, atomic and overlap counts, energy counters and
/// `ProtoStats` of every micro family on the whole system, frozen from
/// the hand-coded kernels the templates replaced. An intended timing
/// change recomputes `MICRO_FROZEN` and says why in the change
/// description.
#[test]
fn micro_kernels_match_the_frozen_digest() {
    // Small instances under all nine protocol × model configurations,
    // the default (figure-scale) instances under two each.
    let all = SystemConfig::extended();
    let hist = HistParams { bins: 32, per_thread: 8, blocks: 4, tpb: 4, seed: 1 };
    let runs: [(&dyn Kernel, &[SystemConfig]); 12] = [
        (&SplitCounter::new(4, 4, 8, 2), &all),
        (&SplitCounter::default(), &[cfg("DD0"), cfg("DDR")]),
        (&RefCounter::new(4, 4, 8, 6), &all),
        (&Flags::new(4, 4, 8, 200), &all),
        (&Flags::default(), &[cfg("GD0"), cfg("DDR")]),
        (&Seqlocks::new(false, 4, 4, 3, 4, 4, 64), &all),
        (&Seqlocks::new(true, 4, 4, 3, 4, 4, 64), &all),
        (&Seqlocks::default(), &[cfg("DD1"), cfg("DDR")]),
        (&Hist::new(hist.clone()), &all),
        (&HistGlobal::new(hist.clone(), OpClass::Commutative), &all),
        (&HistGlobal::new(hist.clone(), OpClass::Release), &all),
        (&HistGlobalNonOrder::new(hist), &all),
    ];
    let h = runs.into_iter().fold(0, |h, (kernel, configs)| fold_micro(h, kernel, configs));
    assert_eq!(h, MICRO_FROZEN, "micro kernel digest drifted: {h:#018x}");
}

/// The same observables for the figure-scale histograms under GD0,
/// frozen from the hand-coded kernels. An intended timing change
/// recomputes `MICRO_HISTOGRAMS_FROZEN` and says why in the change
/// description.
#[test]
#[ignore = "full-scale histograms; run explicitly in release"]
fn micro_histograms_at_full_scale_match_the_frozen_digest() {
    let gd0 = [cfg("GD0")];
    let p = HistParams::default();
    let mut h = fold_micro(0, &Hist::new(p.clone()), &gd0);
    h = fold_micro(h, &HistGlobal::new(p.clone(), OpClass::Commutative), &gd0);
    h = fold_micro(h, &HistGlobalNonOrder::new(HistParams { bins: 4096, ..p }), &gd0);
    assert_eq!(h, MICRO_HISTOGRAMS_FROZEN, "full-scale histogram digest drifted: {h:#018x}");
}
