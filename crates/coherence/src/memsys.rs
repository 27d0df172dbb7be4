//! The shared memory system: per-CU L1s, banked NUCA L2, DRAM, mesh.
//!
//! Protocol behaviour lives behind the [`CoherencePolicy`] trait
//! (`policy` / `mesi` modules); this module owns the hardware state
//! ([`MemCore`]) and the structural steps every protocol composes
//! (bank queuing, directory requests, data replies, DRAM fills,
//! forwarding from an owner L1, self-invalidation, writeback of evicted
//! owned lines), plus the public [`MemorySystem`] facade the execution
//! engine talks to.

use crate::mesi::MesiWbCoherence;
use crate::policy::{CoherencePolicy, DeNovoCoherence, GpuCoherence};
use drfrlx_core::Protocol;
use hsim_mem::{
    Addr, Cache, CacheParams, Cycle, Dram, DramParams, LineAddr, Mshr, Resource, StoreBuffer,
};
use hsim_noc::{Mesh, NocParams, NodeId};
use hsim_trace::{EventKind, NoTrace, Trace, TraceEvent};

/// Index of a compute unit (or CPU core) in the memory system.
pub type CuId = usize;

/// What kind of access the execution engine is making. Atomic accesses
/// carry no strength here — *where* an atomic is performed depends only
/// on the protocol; consistency-model behaviour (invalidate / flush /
/// overlap) is driven by the execution engine calling
/// [`MemorySystem::acquire`] / [`MemorySystem::release`] and deciding
/// whether to wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Ordinary load.
    DataLoad,
    /// Ordinary store.
    DataStore,
    /// Atomic load.
    AtomicLoad,
    /// Atomic store.
    AtomicStore,
    /// Atomic read-modify-write.
    AtomicRmw,
}

impl AccessKind {
    /// Is this any atomic access?
    pub fn is_atomic(self) -> bool {
        !matches!(self, AccessKind::DataLoad | AccessKind::DataStore)
    }
}

/// Memory-system configuration (paper Table 2 defaults live in
/// `hsim-sys`).
#[derive(Debug)]
pub struct MemSysParams {
    /// Words per cache line.
    pub line_words: u64,
    /// Number of L1s (one per CU/core).
    pub num_cus: usize,
    /// Mesh node hosting each CU's L1 (index = CuId).
    pub cu_nodes: Vec<NodeId>,
    /// L1 geometry.
    pub l1: CacheParams,
    /// L1 hit latency.
    pub l1_hit_latency: u64,
    /// L1 MSHR entries.
    pub l1_mshrs: usize,
    /// Store-buffer entries.
    pub store_buffer: usize,
    /// Number of L2 banks (bank `b` lives at mesh node `b % nodes`).
    pub l2_banks: usize,
    /// Geometry of each bank.
    pub l2_bank: CacheParams,
    /// L2 bank access latency.
    pub l2_latency: u64,
    /// Cycles a bank is occupied per access (serialization unit —
    /// atomics hammering one bank queue here).
    pub l2_occupancy: u64,
    /// Flits in a control message.
    pub ctl_flits: u64,
    /// Flits in a data (line) message.
    pub data_flits: u64,
    /// NoC parameters.
    pub noc: NocParams,
    /// DRAM parameters.
    pub dram: DramParams,
    /// Enable L1 MSHR coalescing of same-line requests (DeNovo's §6.3
    /// advantage). Disable for the ablation study.
    pub atomic_coalescing: bool,
}

impl MemSysParams {
    /// Table 2 defaults sized for `noc`: one CU/L1 per mesh node, laid
    /// out in row-major node order. Deriving the CU topology from the
    /// mesh keeps the two in sync — a resized NoC resizes the L1 side
    /// with it instead of silently desyncing from a hardcoded count.
    pub fn for_mesh(noc: NocParams) -> MemSysParams {
        let num_cus = noc.width as usize * noc.height as usize;
        MemSysParams {
            line_words: 16,
            num_cus,
            cu_nodes: (0..num_cus).map(|n| NodeId(n as u16)).collect(),
            l1: CacheParams::with_capacity(32 * 1024, 64, 8),
            l1_hit_latency: 1,
            l1_mshrs: 128,
            store_buffer: 128,
            l2_banks: 16,
            l2_bank: CacheParams::with_capacity(4 * 1024 * 1024 / 16, 64, 16),
            l2_latency: 20,
            l2_occupancy: 4,
            ctl_flits: 1,
            data_flits: 5,
            noc,
            dram: DramParams::default(),
            atomic_coalescing: true,
        }
    }
}

impl Clone for MemSysParams {
    fn clone(&self) -> MemSysParams {
        MemSysParams {
            line_words: self.line_words,
            num_cus: self.num_cus,
            cu_nodes: self.cu_nodes.clone(),
            l1: self.l1.clone(),
            l1_hit_latency: self.l1_hit_latency,
            l1_mshrs: self.l1_mshrs,
            store_buffer: self.store_buffer,
            l2_banks: self.l2_banks,
            l2_bank: self.l2_bank.clone(),
            l2_latency: self.l2_latency,
            l2_occupancy: self.l2_occupancy,
            ctl_flits: self.ctl_flits,
            data_flits: self.data_flits,
            noc: self.noc.clone(),
            dram: self.dram.clone(),
            atomic_coalescing: self.atomic_coalescing,
        }
    }

    /// Field by field, so a machine reset to unchanged geometry
    /// ([`MemorySystem::reset`]) reuses `cu_nodes`' storage; a derived
    /// `clone_from` would allocate a new one.
    fn clone_from(&mut self, source: &MemSysParams) {
        let MemSysParams {
            line_words,
            num_cus,
            cu_nodes,
            l1,
            l1_hit_latency,
            l1_mshrs,
            store_buffer,
            l2_banks,
            l2_bank,
            l2_latency,
            l2_occupancy,
            ctl_flits,
            data_flits,
            noc,
            dram,
            atomic_coalescing,
        } = self;
        *line_words = source.line_words;
        *num_cus = source.num_cus;
        cu_nodes.clone_from(&source.cu_nodes);
        l1.clone_from(&source.l1);
        *l1_hit_latency = source.l1_hit_latency;
        *l1_mshrs = source.l1_mshrs;
        *store_buffer = source.store_buffer;
        *l2_banks = source.l2_banks;
        l2_bank.clone_from(&source.l2_bank);
        *l2_latency = source.l2_latency;
        *l2_occupancy = source.l2_occupancy;
        *ctl_flits = source.ctl_flits;
        *data_flits = source.data_flits;
        noc.clone_from(&source.noc);
        dram.clone_from(&source.dram);
        *atomic_coalescing = source.atomic_coalescing;
    }
}

impl Default for MemSysParams {
    fn default() -> Self {
        // 15 GPU CUs + 1 CPU core on a 4x4 mesh; 32 KB 8-way L1s,
        // 16-bank 4 MB L2 (Table 2).
        MemSysParams::for_mesh(NocParams::default())
    }
}

/// L1 line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L1State {
    /// Readable copy (self-invalidated at acquires; a MESI shared
    /// copy — dropped by writer-initiated invalidation instead).
    Valid,
    /// Owned and writable: DeNovo registration / MESI exclusive-or-
    /// modified. Survives acquires; written back on eviction.
    Registered,
}

/// L2 directory/bank state for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum L2State {
    /// The bank holds the data (no tracked sharers).
    Data,
    /// A CU's L1 owns the line (DeNovo registration / MESI M-or-E).
    Owned(CuId),
    /// MESI only: the bank holds the data and the set CUs hold shared
    /// copies (bitmask over CuId; the protocol asserts `num_cus <= 64`).
    SharedBy(u64),
}

/// Protocol/consistency event statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// L1 load hits / misses (data + atomics performed at L1).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Flash/self-invalidation events (acquires that invalidated).
    pub invalidation_events: u64,
    /// Lines dropped by self-invalidation.
    pub lines_invalidated: u64,
    /// Store-buffer flushes (releases).
    pub sb_flushes: u64,
    /// Atomics performed at the L2 (GPU protocol).
    pub atomics_at_l2: u64,
    /// Atomics performed at the L1 (DeNovo, MESI).
    pub atomics_at_l1: u64,
    /// Of those, ones that hit an already-registered line (reuse).
    pub atomic_l1_reuse: u64,
    /// Requests satisfied by a remote L1 (ownership forwarding).
    pub remote_l1_transfers: u64,
    /// Same-line requests coalesced in L1 MSHRs.
    pub mshr_coalesced: u64,
    /// Writebacks of owned lines to the L2.
    pub writebacks: u64,
    /// DRAM refills.
    pub dram_refills: u64,
    /// Remote sharer copies dropped by writer-initiated invalidation
    /// (MESI only; GPU/DeNovo never set this).
    pub sharer_invalidations: u64,
}

pub(crate) struct L1<T: Trace> {
    pub(crate) cache: Cache<L1State>,
    pub(crate) mshr: Mshr<T>,
    pub(crate) sb: StoreBuffer<T>,
    pub(crate) port: Resource,
}

impl<T: Trace> L1<T> {
    fn build(cu: CuId, params: &MemSysParams, tracer: T) -> L1<T> {
        let mut l1 = L1 {
            cache: Cache::new(params.l1.clone()),
            mshr: Mshr::with_tracer(params.l1_mshrs, cu as u16, tracer.clone()),
            sb: StoreBuffer::with_tracer(params.store_buffer, cu as u16, tracer),
            port: Resource::new(),
        };
        l1.reset(params);
        l1
    }

    fn reset(&mut self, params: &MemSysParams) {
        let L1 { cache, mshr, sb, port } = self;
        cache.reset(&params.l1);
        mshr.reset(params.l1_mshrs);
        sb.reset(params.store_buffer);
        port.reset();
    }
}

pub(crate) struct L2Bank {
    pub(crate) cache: Cache<L2State>,
    pub(crate) port: Resource,
    pub(crate) node: NodeId,
}

impl L2Bank {
    fn build(bank: usize, nodes: u16, params: &MemSysParams) -> L2Bank {
        let mut b = L2Bank {
            cache: Cache::new(params.l2_bank.clone()),
            port: Resource::new(),
            node: NodeId(0),
        };
        b.reset(bank, nodes, params);
        b
    }

    /// Bank `bank` lives at mesh node `bank % nodes`.
    fn reset(&mut self, bank: usize, nodes: u16, params: &MemSysParams) {
        let L2Bank { cache, port, node } = self;
        cache.reset(&params.l2_bank);
        port.reset();
        *node = NodeId((bank % nodes as usize) as u16);
    }
}

/// A set of L1 or L2-bank indices. Indices of 64 and above are not
/// tracked: the set counts them as always present.
#[derive(Clone, Copy, Default)]
struct Touched(u64);

impl Touched {
    /// Every index.
    const ALL: Touched = Touched(u64::MAX);

    fn mark(&mut self, i: usize) {
        if i < 64 {
            self.0 |= 1 << i;
        }
    }

    fn contains(self, i: usize) -> bool {
        i >= 64 || self.0 & (1 << i) != 0
    }
}

/// Do two cache geometries agree?
fn same_geometry(a: &CacheParams, b: &CacheParams) -> bool {
    let CacheParams { sets, ways } = a;
    *sets == b.sets && *ways == b.ways
}

/// All hardware state of the memory system plus the structural helpers
/// shared by every protocol. [`CoherencePolicy`] implementations drive
/// transitions against this; the public surface is [`MemorySystem`].
///
/// Its `reset` is the one place initial state is written: `build`
/// allocates an empty shell and resets it, and a machine reused across
/// runs ([`MemorySystem::reset`]) is reset the same way. Every `reset`
/// down the tree destructures its struct without `..`, so a field added
/// without a reset does not compile.
pub struct MemCore<T: Trace> {
    pub(crate) params: MemSysParams,
    pub(crate) l1s: Vec<L1<T>>,
    pub(crate) banks: Vec<L2Bank>,
    /// L1s an access entry point of [`MemorySystem`] reached since the
    /// last reset.
    touched_l1s: Touched,
    /// Banks [`MemCore::bank_of`] named since the last reset.
    touched_banks: Touched,
    pub(crate) noc: Mesh<T>,
    pub(crate) dram: Dram,
    pub(crate) stats: ProtoStats,
    /// L1 data-array accesses (energy).
    pub(crate) l1_accesses: u64,
    /// L1 tag sweeps from invalidations (energy).
    pub(crate) l1_tag_ops: u64,
    /// L2 accesses (energy).
    pub(crate) l2_accesses: u64,
    pub(crate) tracer: T,
}

impl<T: Trace> MemCore<T> {
    pub(crate) fn build(params: &MemSysParams, tracer: T) -> MemCore<T> {
        let mut core = MemCore {
            params: params.clone(),
            l1s: Vec::new(),
            banks: Vec::new(),
            touched_l1s: Touched::default(),
            touched_banks: Touched::default(),
            noc: Mesh::with_tracer(params.noc.clone(), tracer.clone()),
            dram: Dram::new(params.dram.clone()),
            stats: ProtoStats::default(),
            l1_accesses: 0,
            l1_tag_ops: 0,
            l2_accesses: 0,
            tracer,
        };
        core.reset(params);
        core
    }

    /// Return to the cold machine `params` describes: empty caches,
    /// MSHRs and store buffers, idle ports, links and channels, zero
    /// statistics. L1s and banks beyond the new counts are dropped and
    /// missing ones built; everything else keeps its storage.
    ///
    /// Only the L1s and banks the last run touched are reset, unless a
    /// parameter their resets read changed (the CU or bank count, a
    /// cache geometry, the MSHR or store-buffer size, the mesh size);
    /// then all are. Skipping is exact because an untouched L1 or bank
    /// is still as its last reset left it, and latencies live in
    /// `params`, which is always rewritten. An L1 is marked at the five
    /// access entry points of [`MemorySystem`]; a bank wherever
    /// [`MemCore::bank_of`] derives its index. A remote L1 (an owner
    /// that forwards, a sharer that is invalidated) needs no mark of its
    /// own: the directory only names an L1 that took the line during the
    /// same run, since a touched bank is reset and an untouched one is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `cu_nodes` does not provide a node per CU.
    pub(crate) fn reset(&mut self, params: &MemSysParams) {
        assert_eq!(params.cu_nodes.len(), params.num_cus, "need one node per CU");
        let MemCore {
            params: p,
            l1s,
            banks,
            touched_l1s,
            touched_banks,
            noc,
            dram,
            stats,
            l1_accesses,
            l1_tag_ops,
            l2_accesses,
            tracer,
        } = self;
        let same_l1s = p.num_cus == params.num_cus
            && same_geometry(&p.l1, &params.l1)
            && p.l1_mshrs == params.l1_mshrs
            && p.store_buffer == params.store_buffer;
        let old_nodes = noc.nodes();
        noc.reset(&params.noc);
        let nodes = noc.nodes();
        let same_banks = p.l2_banks == params.l2_banks
            && same_geometry(&p.l2_bank, &params.l2_bank)
            && old_nodes == nodes;
        let dirty_l1s = if same_l1s { *touched_l1s } else { Touched::ALL };
        let dirty_banks = if same_banks { *touched_banks } else { Touched::ALL };
        *touched_l1s = Touched::default();
        *touched_banks = Touched::default();
        p.clone_from(params);
        l1s.truncate(params.num_cus);
        for (cu, l1) in l1s.iter_mut().enumerate() {
            if dirty_l1s.contains(cu) {
                l1.reset(params);
            }
        }
        for cu in l1s.len()..params.num_cus {
            l1s.push(L1::build(cu, params, tracer.clone()));
        }
        banks.truncate(params.l2_banks);
        for (b, bank) in banks.iter_mut().enumerate() {
            if dirty_banks.contains(b) {
                bank.reset(b, nodes, params);
            }
        }
        for b in banks.len()..params.l2_banks {
            banks.push(L2Bank::build(b, nodes, params));
        }
        dram.reset(&params.dram);
        *stats = ProtoStats::default();
        *l1_accesses = 0;
        *l1_tag_ops = 0;
        *l2_accesses = 0;
    }

    /// Emit one trace event (no-op unless `T::ENABLED`).
    #[inline]
    pub(crate) fn emit(
        &self,
        kind: EventKind,
        cycle: Cycle,
        lane: u16,
        addr: u64,
        arg: u64,
        dur: u64,
    ) {
        if T::ENABLED {
            self.tracer.record(TraceEvent::new(kind, cycle, lane, addr, arg, dur));
        }
    }

    pub(crate) fn line(&self, addr: Addr) -> LineAddr {
        LineAddr::of(addr, self.params.line_words)
    }

    /// The home bank of `line`, marked touched for the next reset.
    pub(crate) fn bank_of(&mut self, line: LineAddr) -> usize {
        let b = (line.0 as usize) % self.banks.len();
        self.touched_banks.mark(b);
        b
    }

    /// Queue an access that reaches bank `b` at `arrive` for `line`;
    /// returns the cycle the bank (and its directory) is done.
    fn bank_access(&mut self, arrive: Cycle, b: usize, line: LineAddr) -> Cycle {
        let start = self.banks[b].port.acquire(arrive, self.params.l2_occupancy);
        self.l2_accesses += 1;
        self.emit(EventKind::L2Access, start, b as u16, line.0, 0, self.params.l2_latency);
        start + self.params.l2_latency
    }

    /// L2-bank access for `line` arriving at `arrive`; returns the cycle
    /// the data is ready at the bank. Handles bank queuing and, when
    /// `fill_from_dram`, a DRAM fill on a tag miss.
    pub(crate) fn l2_access(
        &mut self,
        arrive: Cycle,
        line: LineAddr,
        fill_from_dram: bool,
    ) -> Cycle {
        let b = self.bank_of(line);
        let after = self.bank_access(arrive, b, line);
        if !fill_from_dram || self.banks[b].cache.lookup(line).is_some() {
            return after;
        }
        self.dram_fill(after, b, line, L2State::Data)
    }

    /// Round-trip a control request + data response between a CU and a
    /// line's home bank, invoking `at_bank` for the bank-side latency.
    pub(crate) fn bank_round_trip(
        &mut self,
        now: Cycle,
        cu: CuId,
        line: LineAddr,
        resp_flits: u64,
        at_bank: impl FnOnce(&mut Self, Cycle) -> Cycle,
    ) -> Cycle {
        let cu_node = self.params.cu_nodes[cu];
        let b = self.bank_of(line);
        let bank_node = self.banks[b].node;
        let arrive = self.noc.send(now, cu_node, bank_node, self.params.ctl_flits);
        let bank_done = at_bank(self, arrive);
        self.noc.send(bank_done, bank_node, cu_node, resp_flits)
    }

    /// Send a `flits`-flit request for `line` from `cu` to its home
    /// bank at `now`; the bank queues it and reads its directory.
    /// Returns the bank and the cycle the directory is done.
    pub(crate) fn dir_request(
        &mut self,
        now: Cycle,
        cu: CuId,
        line: LineAddr,
        flits: u64,
    ) -> (usize, Cycle) {
        let b = self.bank_of(line);
        let arrive = self.noc.send(now, self.params.cu_nodes[cu], self.banks[b].node, flits);
        (b, self.bank_access(arrive, b, line))
    }

    /// Send a line of data from bank `b` to `cu` at `at`; returns its
    /// arrival.
    pub(crate) fn reply(&mut self, at: Cycle, b: usize, cu: CuId) -> Cycle {
        self.noc.send(at, self.banks[b].node, self.params.cu_nodes[cu], self.params.data_flits)
    }

    /// Fill `line` from DRAM into bank `b` as `state`, starting when
    /// the bank is done at `after`; returns the cycle the data is in.
    pub(crate) fn dram_fill(
        &mut self,
        after: Cycle,
        b: usize,
        line: LineAddr,
        state: L2State,
    ) -> Cycle {
        self.stats.dram_refills += 1;
        let done = self.dram.access(after, line.0);
        self.emit(EventKind::DramRefill, after, b as u16, line.0, 0, done - after);
        self.banks[b].cache.insert(line, state);
        done
    }

    /// Forward `cu`'s request for `line`, which the directory finished
    /// at `dir_done`, to the L1 of `owner`: `owner_copy` updates the
    /// owner's copy (and the directory), then the owner serves the line
    /// to `cu` at remote-L1 latency. Returns the cycle the data reaches
    /// `cu`.
    pub(crate) fn forward_from_owner(
        &mut self,
        dir_done: Cycle,
        cu: CuId,
        line: LineAddr,
        owner: CuId,
        owner_copy: impl FnOnce(&mut Self),
    ) -> Cycle {
        self.stats.remote_l1_transfers += 1;
        self.emit(EventKind::OwnershipTransfer, dir_done, cu as u16, line.0, owner as u64, 0);
        owner_copy(self);
        let b = self.bank_of(line);
        let bank_node = self.banks[b].node;
        let owner_node = self.params.cu_nodes[owner];
        let at_owner = self.noc.send(dir_done, bank_node, owner_node, self.params.ctl_flits);
        let served = self.l1s[owner].port.acquire(at_owner, 1) + self.params.l1_hit_latency;
        self.l1_accesses += 1;
        self.noc.send(served, owner_node, self.params.cu_nodes[cu], self.params.data_flits)
    }

    /// An acquire's self-invalidation: drop every line of `cu`'s L1
    /// whose state `stale` selects. Returns the cycle it is done.
    pub(crate) fn self_invalidate(
        &mut self,
        now: Cycle,
        cu: CuId,
        stale: impl Fn(&L1State) -> bool,
    ) -> Cycle {
        let dropped = self.l1s[cu].cache.invalidate_where(|_, s| stale(s));
        self.stats.invalidation_events += 1;
        self.stats.lines_invalidated += dropped;
        self.l1_tag_ops += dropped;
        self.emit(EventKind::Invalidate, now, cu as u16, 0, dropped, 2);
        now + 2
    }

    /// Writeback an evicted owned line (ownership returns to L2).
    pub(crate) fn handle_l1_eviction(
        &mut self,
        now: Cycle,
        cu: CuId,
        evicted: Option<hsim_mem::EvictedLine<L1State>>,
    ) {
        let Some(ev) = evicted else { return };
        if ev.state != L1State::Registered {
            return;
        }
        self.stats.writebacks += 1;
        self.emit(EventKind::Writeback, now, cu as u16, ev.line.0, 0, 0);
        let (b, _) = self.dir_request(now, cu, ev.line, self.params.data_flits);
        // Only reclaim if the directory still points at us.
        if self.banks[b].cache.peek(ev.line) == Some(&L2State::Owned(cu)) {
            self.banks[b].cache.insert(ev.line, L2State::Data);
        }
    }
}

/// The full memory system for one protocol, generic over the tracing
/// capability (`NoTrace` by default — the instrumented sites compile
/// away entirely).
///
/// A thin facade: hardware state lives in [`MemCore`], per-protocol
/// transitions behind a [`CoherencePolicy`] selected from the
/// [`Protocol`] (or injected via [`MemorySystem::with_policy`]). The
/// built-in protocols dispatch statically through `PolicySlot` so
/// their transitions inline into the access API; only externally
/// injected policies pay a vtable call per transaction.
pub struct MemorySystem<T: Trace = NoTrace> {
    protocol: Protocol,
    policy: PolicySlot<T>,
    core: MemCore<T>,
}

/// The policy slot: built-in protocols as enum variants (static,
/// inlinable dispatch on the hot access path), arbitrary policies
/// behind the boxed trait object. [`CoherencePolicy`] stays the one
/// behavioural seam — the slot only decides how it is reached.
enum PolicySlot<T: Trace> {
    Gpu(GpuCoherence),
    DeNovo(DeNovoCoherence),
    MesiWb(MesiWbCoherence),
    Custom(Box<dyn CoherencePolicy<T>>),
}

impl<T: Trace> PolicySlot<T> {
    fn builtin(protocol: Protocol) -> PolicySlot<T> {
        match protocol {
            Protocol::Gpu => PolicySlot::Gpu(GpuCoherence),
            Protocol::DeNovo => PolicySlot::DeNovo(DeNovoCoherence),
            Protocol::MesiWb => PolicySlot::MesiWb(MesiWbCoherence),
        }
    }
}

/// Invoke one [`CoherencePolicy`] method on whichever policy occupies
/// the slot, monomorphized per built-in variant.
macro_rules! dispatch {
    ($slot:expr, $p:ident => $call:expr) => {
        match $slot {
            PolicySlot::Gpu($p) => $call,
            PolicySlot::DeNovo($p) => $call,
            PolicySlot::MesiWb($p) => $call,
            PolicySlot::Custom($p) => $call,
        }
    };
}

impl MemorySystem {
    /// Build an untraced memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cu_nodes` does not provide a node per CU.
    pub fn new(protocol: Protocol, params: MemSysParams) -> MemorySystem {
        MemorySystem::with_tracer(protocol, params, NoTrace)
    }
}

impl<T: Trace> MemorySystem<T> {
    /// Build a memory system emitting protocol events (hits, misses,
    /// invalidations, ownership transfers, atomic placement, NoC and
    /// DRAM activity) into `tracer`.
    ///
    /// # Panics
    ///
    /// Panics if `cu_nodes` does not provide a node per CU.
    pub fn with_tracer(protocol: Protocol, params: MemSysParams, tracer: T) -> MemorySystem<T> {
        MemorySystem {
            protocol,
            policy: PolicySlot::builtin(protocol),
            core: MemCore::build(&params, tracer),
        }
    }

    /// Build a memory system around an externally supplied policy —
    /// the seam for protocols defined outside this crate. `protocol`
    /// is only a label (reporting, energy attribution); all behaviour
    /// comes from `policy`. A call for CU `cu` may reach another L1 only
    /// through the directory (a forwarding owner, an invalidated sharer):
    /// a reset skips every L1 no access entry point named.
    pub fn with_policy(
        protocol: Protocol,
        policy: Box<dyn CoherencePolicy<T>>,
        params: MemSysParams,
        tracer: T,
    ) -> MemorySystem<T> {
        MemorySystem {
            protocol,
            policy: PolicySlot::Custom(policy),
            core: MemCore::build(&params, tracer),
        }
    }

    /// Turn this machine into the one [`MemorySystem::with_tracer`]
    /// would build for `protocol` and `params`, keeping the tracer and
    /// the storage of the caches, buffers and link tables. Every
    /// statistic and every returned cycle afterwards equals a fresh
    /// machine's; only the work of building one is saved. The cost
    /// follows what the last run touched: L1s and banks it never reached
    /// are skipped unless a parameter their reset reads changes (see
    /// [`MemCore`]'s `reset`). An injected policy is replaced by
    /// `protocol`'s built-in one.
    ///
    /// # Panics
    ///
    /// Panics if `cu_nodes` does not provide a node per CU.
    pub fn reset(&mut self, protocol: Protocol, params: &MemSysParams) {
        let MemorySystem { protocol: p, policy, core } = self;
        *p = protocol;
        *policy = PolicySlot::builtin(protocol);
        core.reset(params);
    }

    /// The protocol in use.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Configuration.
    pub fn params(&self) -> &MemSysParams {
        &self.core.params
    }

    // ------------------------------------------------------------------
    // Public access API (called by the execution engine at issue time).
    // ------------------------------------------------------------------

    /// A load (data or atomic). Returns the cycle the value is
    /// available to the requesting CU.
    pub fn load(&mut self, now: Cycle, cu: CuId, addr: Addr, kind: AccessKind) -> Cycle {
        self.core.touched_l1s.mark(cu);
        dispatch!(&self.policy, p => p.load(&mut self.core, now, cu, addr, kind))
    }

    /// A store (data or atomic). Returns the cycle the CU may proceed
    /// (store accepted); the drain completes in the background, bounded
    /// by [`MemorySystem::release`].
    pub fn store(&mut self, now: Cycle, cu: CuId, addr: Addr, kind: AccessKind) -> Cycle {
        self.core.touched_l1s.mark(cu);
        dispatch!(&self.policy, p => p.store(&mut self.core, now, cu, addr, kind))
    }

    /// An atomic RMW; returns the cycle the old value is available.
    pub fn rmw(&mut self, now: Cycle, cu: CuId, addr: Addr) -> Cycle {
        self.core.touched_l1s.mark(cu);
        dispatch!(&self.policy, p => p.rmw(&mut self.core, now, cu, addr))
    }

    /// Acquire-side consistency action for a *paired* atomic load:
    /// self-invalidate stale data in the CU's L1. GPU coherence drops
    /// every line; DeNovo keeps registered (owned) lines; MESI needs
    /// nothing (writer-initiated invalidation keeps caches coherent).
    /// Returns the cycle the action is done.
    pub fn acquire(&mut self, now: Cycle, cu: CuId) -> Cycle {
        self.core.touched_l1s.mark(cu);
        dispatch!(&self.policy, p => p.acquire(&mut self.core, now, cu))
    }

    /// Release-side consistency action for a *paired* atomic store:
    /// flush the store buffer (GPU: finish write-throughs; DeNovo/MESI:
    /// finish pending ownership registrations). Returns the cycle the
    /// flush completes.
    pub fn release(&mut self, now: Cycle, cu: CuId) -> Cycle {
        self.core.touched_l1s.mark(cu);
        dispatch!(&self.policy, p => p.release(&mut self.core, now, cu))
    }

    // ------------------------------------------------------------------
    // Statistics.
    // ------------------------------------------------------------------

    /// Protocol event statistics.
    pub fn stats(&self) -> &ProtoStats {
        &self.core.stats
    }

    /// NoC statistics.
    pub fn noc_stats(&self) -> &hsim_noc::NocStats {
        self.core.noc.stats()
    }

    /// Energy-relevant counters: (L1 accesses, L1 tag ops, L2 accesses,
    /// DRAM accesses, NoC flit-hops).
    pub fn energy_events(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.core.l1_accesses,
            self.core.l1_tag_ops,
            self.core.l2_accesses,
            self.core.dram.accesses(),
            self.core.noc.stats().flit_hops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(p: Protocol) -> MemorySystem {
        MemorySystem::new(p, MemSysParams::default())
    }

    #[test]
    fn default_params_track_the_mesh() {
        let p = MemSysParams::default();
        assert_eq!(p.num_cus, (p.noc.width * p.noc.height) as usize);
        assert_eq!(p.cu_nodes.len(), p.num_cus);
        // A resized mesh resizes the CU side with it.
        let wide =
            MemSysParams::for_mesh(NocParams { width: 6, height: 4, ..NocParams::default() });
        assert_eq!(wide.num_cus, 24);
        assert_eq!(wide.cu_nodes.len(), 24);
        assert_eq!(wide.cu_nodes[23], NodeId(23));
        MemorySystem::new(Protocol::Gpu, wide); // must not panic
    }

    #[test]
    fn gpu_load_miss_then_hit() {
        let mut m = sys(Protocol::Gpu);
        let t1 = m.load(0, 0, 100, AccessKind::DataLoad);
        assert!(t1 > 20, "miss goes to L2/DRAM: {t1}");
        let t2 = m.load(t1, 0, 100, AccessKind::DataLoad);
        assert_eq!(t2 - t1, m.params().l1_hit_latency, "second access hits L1");
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().l1_misses, 1);
    }

    #[test]
    fn gpu_acquire_drops_everything() {
        let mut m = sys(Protocol::Gpu);
        let t = m.load(0, 0, 100, AccessKind::DataLoad);
        m.acquire(t, 0);
        assert_eq!(m.stats().lines_invalidated, 1);
        let t2 = m.load(t + 10, 0, 100, AccessKind::DataLoad);
        assert!(t2 - (t + 10) > m.params().l1_hit_latency, "reuse destroyed");
    }

    #[test]
    fn gpu_atomics_execute_at_l2_without_reuse() {
        let mut m = sys(Protocol::Gpu);
        let t1 = m.rmw(0, 0, 200);
        let t2 = m.rmw(t1, 0, 200);
        // Both atomics pay a full round trip (no L1 reuse).
        assert!(t2 - t1 >= m.params().l2_latency);
        assert_eq!(m.stats().atomics_at_l2, 2);
        assert_eq!(m.stats().atomics_at_l1, 0);
    }

    #[test]
    fn denovo_atomics_reuse_ownership() {
        let mut m = sys(Protocol::DeNovo);
        let t1 = m.rmw(0, 3, 200);
        let t2 = m.rmw(t1, 3, 200);
        assert!(
            t2 - t1 <= 1 + m.params().l1_hit_latency,
            "second atomic hits the registered line locally: {}",
            t2 - t1
        );
        assert_eq!(m.stats().atomic_l1_reuse, 1);
    }

    #[test]
    fn denovo_acquire_keeps_owned_lines() {
        let mut m = sys(Protocol::DeNovo);
        let t = m.rmw(0, 2, 200); // registers line
        let t = m.load(t, 2, 300, AccessKind::DataLoad); // valid line
        m.acquire(t, 2);
        assert_eq!(m.stats().lines_invalidated, 1, "only the Valid line drops");
        let t2 = m.rmw(t + 10, 2, 200);
        assert!(t2 - (t + 10) <= 1 + m.params().l1_hit_latency, "owned line reused");
    }

    #[test]
    fn denovo_contended_atomics_bounce_ownership() {
        let mut m = sys(Protocol::DeNovo);
        let t1 = m.rmw(0, 0, 200);
        let t2 = m.rmw(t1, 5, 200); // other CU steals ownership
        assert!(t2 - t1 > 30, "remote transfer costs a 3-hop chain: {}", t2 - t1);
        assert_eq!(m.stats().remote_l1_transfers, 1);
        // And the original owner lost the line.
        let t3 = m.rmw(t2, 0, 200);
        assert!(t3 - t2 > 30);
    }

    #[test]
    fn denovo_mshr_coalesces_same_line_atomics() {
        let mut m = sys(Protocol::DeNovo);
        // Three overlapped atomics from one CU to one address: one
        // registration, two coalesces.
        let t1 = m.rmw(0, 1, 400);
        let t2 = m.rmw(1, 1, 400);
        let t3 = m.rmw(2, 1, 400);
        assert!(t2 <= t1 + 2, "coalesced atomic completes right after the first");
        assert!(t3 <= t2 + 2);
        assert_eq!(m.stats().mshr_coalesced, 2);
    }

    #[test]
    fn gpu_atomics_never_coalesce() {
        let mut m = sys(Protocol::Gpu);
        let warm = m.rmw(0, 1, 400); // prime the L2 line
        let t1 = m.rmw(warm, 1, 400);
        let t2 = m.rmw(warm + 1, 1, 400);
        assert!(t2 >= t1 + m.params().l2_occupancy, "bank serializes atomics");
        assert_eq!(m.stats().mshr_coalesced, 0);
    }

    #[test]
    fn release_waits_for_store_drain() {
        for p in [Protocol::Gpu, Protocol::DeNovo, Protocol::MesiWb] {
            let mut m = sys(p);
            let accepted = m.store(0, 0, 100, AccessKind::DataStore);
            let flushed = m.release(accepted, 0);
            assert!(flushed > accepted, "{p}: release must wait for the drain");
            assert_eq!(m.stats().sb_flushes, 1);
        }
    }

    #[test]
    fn an_access_finding_every_mshr_busy_waits_for_one_then_fetches() {
        // Loads take an MSHR under every protocol, atomics and data
        // stores only under the ownership protocols (GPU atomics run at
        // the L2, GPU stores write through).
        let (gpu, denovo, mesi) = (Protocol::Gpu, Protocol::DeNovo, Protocol::MesiWb);
        let (load, rmw, store) =
            (AccessKind::DataLoad, AccessKind::AtomicRmw, AccessKind::DataStore);
        for (p, kind) in [
            (gpu, load),
            (denovo, load),
            (mesi, load),
            (denovo, rmw),
            (mesi, rmw),
            (denovo, store),
            (mesi, store),
        ] {
            let mut m =
                MemorySystem::new(p, MemSysParams { l1_mshrs: 2, ..MemSysParams::default() });
            let (l2, hit) = (m.params().l2_latency, m.params().l1_hit_latency);
            // When the access is done. A store's completion hides its
            // drain behind the store buffer, so the release after it
            // tells when the line was owned.
            let mut access = |now, addr, kind| match kind {
                AccessKind::AtomicRmw => m.rmw(now, 0, addr),
                AccessKind::DataStore => {
                    let accepted = m.store(now, 0, addr, kind);
                    m.release(accepted, 0)
                }
                _ => m.load(now, 0, addr, kind),
            };
            // Two misses to distinct lines take both entries, so a third
            // retries once the earlier fill frees one, then fetches.
            // Stores fill the entries with loads, which leave the store
            // buffer empty, so the release waits for the third's drain
            // alone.
            let fill = if kind == store { load } else { kind };
            let first = access(0, 0, fill);
            let second = access(0, 16, fill);
            let third = access(0, 32, kind);
            let freed = first.min(second);
            assert!(third > freed + l2, "{p}, {kind:?}: {third} vs {freed}");
            let again = access(third, 32, kind);
            assert!(again - third <= 1 + hit, "{p}, {kind:?}: the line stayed in the L1");
        }
    }

    #[test]
    fn denovo_store_hits_owned_line_locally() {
        let mut m = sys(Protocol::DeNovo);
        let t = m.store(0, 0, 100, AccessKind::DataStore); // registers
        let t1 = m.release(t, 0); // drain ownership
        let t2 = m.store(t1, 0, 100, AccessKind::DataStore);
        assert!(t2 - t1 <= 1 + m.params().l1_hit_latency, "owned store is local");
    }

    #[test]
    fn gpu_stores_write_through() {
        let mut m = sys(Protocol::Gpu);
        let a1 = m.store(0, 0, 100, AccessKind::DataStore);
        assert!(a1 <= 2, "store buffered, CU proceeds immediately");
        // The drain shows up as L2 traffic once flushed.
        let flushed = m.release(a1, 0);
        assert!(flushed > 20);
    }

    #[test]
    fn remote_l1_latency_in_paper_range() {
        let mut m = sys(Protocol::DeNovo);
        // CU 0 owns a line; CU 15 (far corner) reads it.
        let t = m.rmw(0, 0, 512);
        let t2 = m.load(t, 15, 512, AccessKind::DataLoad);
        let lat = t2 - t;
        assert!((30..=100).contains(&lat), "remote L1 hit ~35-83 cycles, got {lat}");
    }

    #[test]
    fn l2_hit_latency_in_paper_range() {
        let mut m = sys(Protocol::Gpu);
        // Prime L2 (first access refills from DRAM).
        let t = m.load(0, 0, 640, AccessKind::DataLoad);
        m.acquire(t, 0);
        let t2 = m.load(t + 5, 0, 640, AccessKind::DataLoad);
        let lat = t2 - (t + 5);
        assert!((25..=70).contains(&lat), "L2 hit ~29-61 cycles, got {lat}");
    }

    #[test]
    fn memory_latency_in_paper_range() {
        let mut m = sys(Protocol::Gpu);
        let t = m.load(0, 0, 4096, AccessKind::DataLoad);
        assert!((150..=300).contains(&t), "memory ~197-261 cycles, got {t}");
    }

    #[test]
    fn denovo_evicting_registered_line_writes_back() {
        let mut m = sys(Protocol::DeNovo);
        // Register many lines mapping to one L1 set (same set index,
        // different tags) until eviction: L1 is 64 sets x 8 ways, so 9
        // lines with the same set index force a writeback.
        let mut t = 0;
        for i in 0..9u64 {
            // line index = addr / 16; same set: stride 64 lines x 16 words.
            let addr = i * 64 * 16;
            t = m.rmw(t, 0, addr);
        }
        assert!(m.stats().writebacks >= 1, "registered victim must write back");
        // And the directory reclaimed it: another CU gets it from L2,
        // not via a remote transfer.
        let before = m.stats().remote_l1_transfers;
        let _ = m.load(t + 1, 1, 0, AccessKind::DataLoad);
        assert_eq!(m.stats().remote_l1_transfers, before, "L2 owns the line again");
    }

    #[test]
    fn gpu_full_store_buffer_stalls() {
        let mut m = MemorySystem::new(
            Protocol::Gpu,
            MemSysParams { store_buffer: 2, ..MemSysParams::default() },
        );
        // Three stores to distinct lines: the third must wait for a drain.
        let a1 = m.store(0, 0, 0, AccessKind::DataStore);
        let a2 = m.store(a1, 0, 16, AccessKind::DataStore);
        let a3 = m.store(a2, 0, 32, AccessKind::DataStore);
        assert!(a3 - a2 > 10, "full buffer stalls the third store: {}", a3 - a2);
    }

    #[test]
    fn denovo_release_is_cheap_when_everything_is_owned() {
        let mut m = sys(Protocol::DeNovo);
        let t = m.store(0, 0, 100, AccessKind::DataStore);
        let drained = m.release(t, 0);
        // Second store hits the registered line: no new SB entry.
        let t2 = m.store(drained, 0, 100, AccessKind::DataStore);
        let flushed = m.release(t2, 0);
        assert_eq!(flushed, t2, "nothing pending: release is free");
    }

    #[test]
    fn acquire_preserves_denovo_ownership_across_rounds() {
        let mut m = sys(Protocol::DeNovo);
        let mut t = m.rmw(0, 4, 800);
        for _ in 0..3 {
            t = m.acquire(t, 4);
            t = m.rmw(t, 4, 800);
        }
        // One miss (the initial registration), all later atomics reuse.
        assert_eq!(m.stats().l1_misses, 1);
        assert_eq!(m.stats().atomic_l1_reuse, 3);
    }

    #[test]
    fn energy_events_accumulate() {
        let mut m = sys(Protocol::Gpu);
        m.load(0, 0, 100, AccessKind::DataLoad);
        m.rmw(10, 1, 200);
        let (l1, _tags, l2, dram, flits) = m.energy_events();
        assert!(l1 >= 1);
        assert!(l2 >= 2);
        assert!(dram >= 1);
        assert!(flits > 0);
    }
}
