//! Randomized property tests over generated programs and request
//! streams: the DRF guarantee (Theorem 3.1), enumerator soundness,
//! model monotonicity, and substrate invariants.
//!
//! Uses the repo-local deterministic generator ([`rng`]) instead of an
//! external property-testing crate so the whole workspace builds with
//! zero network dependencies (see README "Offline builds"). Every case
//! is derived from a fixed seed, so failures reproduce bit-for-bit.

mod rng;

use drfrlx::conform::{generate, schedule_params, template_corpus};
use drfrlx::litmus::all_tests;
use drfrlx::model::axiomatic::enumerate_axiomatic;
use drfrlx::model::emit::emit;
use drfrlx::model::exec::{
    enumerate_sc, visit_sc, EnumLimits, Event, Execution, ExecutionVisitor, Reduction,
};
use drfrlx::model::parse::parse as parse_litmus;
use drfrlx::model::program::{Program, RmwOp};
use drfrlx::model::quantum::has_quantum;
use drfrlx::model::relation::Relation;
use drfrlx::model::syscentric::compare_with_sc;
use drfrlx::sim::coherence::{
    AccessKind, CoherencePolicy, CuId, DeNovoCoherence, MemCore, MemSysParams, MemorySystem,
};
use drfrlx::sim::gpu::{Kernel, Op, RmwKind, WorkItem};
use drfrlx::sim::mem::{
    Addr, Cache, CacheParams, Cycle, DramParams, LineAddr, Mshr, MshrOutcome, StoreBuffer,
};
use drfrlx::sim::noc::NocParams;
use drfrlx::sim::trace::NoTrace;
use drfrlx::sim::{run_workload, SysParams};
use drfrlx::{check_program, MemoryModel, OpClass, Protocol, SystemConfig};
use rng::SplitMix64;

/// One generated memory operation.
#[derive(Debug, Clone)]
enum GenOp {
    Load(OpClass, u8),
    Store(OpClass, u8, i64),
    Add(OpClass, u8, i64),
}

const CLASSES: [OpClass; 6] = [
    OpClass::Data,
    OpClass::Paired,
    OpClass::Unpaired,
    OpClass::Commutative,
    OpClass::NonOrdering,
    OpClass::Speculative,
];

fn gen_op(r: &mut SplitMix64) -> GenOp {
    let class = CLASSES[r.below(CLASSES.len() as u64) as usize];
    let loc = r.below(2) as u8;
    let v = r.below(2) as i64;
    match r.below(3) {
        0 => GenOp::Load(class, loc),
        1 => GenOp::Store(class, loc, v),
        _ => GenOp::Add(class, loc, v),
    }
}

/// A random thread body of 1..4 operations.
fn gen_thread(r: &mut SplitMix64) -> Vec<GenOp> {
    let n = 1 + r.below(3) as usize;
    (0..n).map(|_| gen_op(r)).collect()
}

fn build(threads: &[Vec<GenOp>]) -> Program {
    let mut p = Program::new("generated");
    for ops in threads {
        let mut t = p.thread();
        for op in ops {
            match op {
                GenOp::Load(c, l) => {
                    let r = t.load(*c, &format!("x{l}"));
                    t.observe(r);
                }
                GenOp::Store(c, l, v) => {
                    t.store(*c, &format!("x{l}"), *v);
                }
                GenOp::Add(c, l, v) => {
                    t.rmw(*c, &format!("x{l}"), RmwOp::FetchAdd, *v);
                }
            }
        }
    }
    p.build()
}

/// Run `cases` generated two-thread programs through `f`.
fn for_each_program(seed: u64, cases: usize, mut f: impl FnMut(&Program)) {
    let mut r = SplitMix64::new(seed);
    for case in 0..cases {
        let a = gen_thread(&mut r);
        let b = gen_thread(&mut r);
        let p = build(&[a.clone(), b.clone()]);
        let guard = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&p)));
        if let Err(e) = guard {
            eprintln!("failing case {case}: {a:?} / {b:?}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Every enumerated execution is genuinely SC: replaying its total
/// order yields exactly the recorded values and final memory.
#[test]
fn enumerator_only_produces_sc_executions() {
    for_each_program(0xD5F0_0001, 64, |p| {
        let execs = enumerate_sc(p, &EnumLimits::default()).expect("enumerable");
        assert!(!execs.is_empty());
        for e in &execs {
            let mut mem = std::collections::BTreeMap::new();
            for &id in &e.order {
                let ev = &e.events[id];
                if ev.access.reads() {
                    let expect = mem.get(&ev.loc).copied().unwrap_or(0);
                    assert_eq!(ev.rval.unwrap(), expect, "load must see last store");
                }
                if ev.access.writes() {
                    mem.insert(ev.loc, ev.wval.unwrap());
                }
            }
            for (loc, v) in &mem {
                assert_eq!(e.result.memory[loc], *v);
            }
        }
    });
}

/// Checks an execution's `po`, `co`, `rf` and `fr` against their
/// definitions, pair by pair.
struct RelationDefinitions<'p> {
    program: &'p Program,
    executions: usize,
}

impl ExecutionVisitor for RelationDefinitions<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        let n = e.len();
        let writes =
            |a: &Event, b: &Event| a.loc == b.loc && a.access.writes() && b.access.writes();
        for a in &e.events {
            for b in &e.events {
                let (i, j) = (a.id, b.id);
                // po: total on each thread's events, pointing forward.
                assert_eq!(e.po.contains(i, j), a.tid == b.tid && i < j, "po({i}, {j})");
                // co: a strict total order on each location's writes,
                // following the SC order.
                assert_eq!(e.co.contains(i, j), writes(a, b) && i < j, "co({i}, {j})");
                if e.rf.contains(i, j) {
                    assert!(a.access.writes() && b.access.reads() && a.loc == b.loc);
                    assert!(i < j, "rf({i}, {j}) points backward");
                }
            }
        }
        let mut initial_reads = Vec::new();
        for r in e.events.iter().filter(|ev| ev.access.reads()) {
            let sources: Vec<usize> = (0..n).filter(|&w| e.rf.contains(w, r.id)).collect();
            assert!(sources.len() <= 1, "read {} has rf sources {sources:?}", r.id);
            match sources.first() {
                Some(&w) => assert_eq!(r.rval, e.events[w].wval, "read {} value", r.id),
                None => {
                    assert_eq!(r.rval, Some(self.program.init_value(r.loc)), "read {}", r.id);
                    initial_reads.push(r);
                }
            }
        }
        // fr = rf⁻¹;co ∪ (initial-value reads × same-location writes),
        // without the identity pairs of RMWs.
        let init = Relation::from_pairs(
            n,
            initial_reads.iter().flat_map(|r| {
                e.events
                    .iter()
                    .filter(|w| w.loc == r.loc && w.access.writes())
                    .map(|w| (r.id, w.id))
            }),
        );
        let fr = e.rf.inverse().seq(&e.co).union(&init).minus(&Relation::identity(n));
        assert!(e.fr == fr, "fr differs from rf⁻¹;co: {:?} vs {:?}", e.fr.pairs(), fr.pairs());
        self.executions += 1;
        true
    }
}

/// The enumerator derives `po`, `rf`, `co` and `fr` from the event
/// list; every emitted execution of the registry, the template corpus
/// and generated programs — plain and quantum-transformed — must match
/// the relations' definitions.
#[test]
fn derived_relations_match_their_definitions() {
    let registry = all_tests().into_iter().map(|t| ((t.build)(), t.reduction));
    let templates = template_corpus().into_iter().map(|(_, p)| (p, Reduction::SleepSetMemo));
    let generated = (0..64).map(|seed| (generate(seed), Reduction::SleepSet));
    for (p, reduction) in registry.chain(templates).chain(generated) {
        let quantum_views: &[bool] = if has_quantum(&p) { &[false, true] } else { &[false] };
        for &quantum in quantum_views {
            let mut v = RelationDefinitions { program: &p, executions: 0 };
            visit_sc(&p, &EnumLimits::default(), quantum, reduction, &mut v)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(v.executions > 0, "{}", p.name());
        }
    }
}

/// Theorem 3.1, fuzzed: a program the checker declares DRFrlx
/// race-free only produces SC memory results on the relaxed machine.
/// (Quantum-free programs; quantum's guarantee is stated against an
/// unbounded random domain.)
#[test]
fn race_free_programs_stay_sc_on_the_relaxed_machine() {
    for_each_program(0xD5F0_0002, 64, |p| {
        if has_quantum(p) {
            return;
        }
        let limits = EnumLimits::default();
        let report = check_program(p, MemoryModel::Drfrlx);
        if report.is_race_free() {
            let cmp = compare_with_sc(p, MemoryModel::Drfrlx, &limits).expect("explorable");
            assert!(
                cmp.is_sc_only(),
                "Theorem 3.1 violated: non-SC results {:?} for {:?}",
                cmp.non_sc_results,
                p
            );
        }
    });
}

/// The axiomatic and operational formulations of the system-centric
/// model agree on every reachable memory result — two independent
/// implementations of the same relaxed system.
#[test]
fn axiomatic_equals_operational() {
    for_each_program(0xD5F0_0003, 64, |p| {
        for model in MemoryModel::ALL {
            let ax = enumerate_axiomatic(p, model, 2_000_000).expect("axiomatic enumerable");
            let op = drfrlx::model::syscentric::explore_relaxed(p, model, &EnumLimits::default())
                .expect("machine enumerable");
            let ax_mem: std::collections::BTreeSet<_> =
                ax.iter().map(|r| r.memory.clone()).collect();
            assert_eq!(ax_mem, op.memory_results(), "model {model} on {p:?}");
        }
    });
}

/// The textual litmus format round-trips: emitting a random program
/// and re-parsing it preserves executions and checker verdicts.
#[test]
fn litmus_text_roundtrips() {
    for_each_program(0xD5F0_0004, 64, |p| {
        let q = parse_litmus(&emit(p)).expect("emitted text parses");
        let limits = EnumLimits::default();
        let ea = enumerate_sc(p, &limits).expect("enumerable");
        let eb = enumerate_sc(&q, &limits).expect("enumerable");
        assert_eq!(ea.len(), eb.len());
        for model in MemoryModel::ALL {
            assert_eq!(
                check_program(p, model).is_race_free(),
                check_program(&q, model).is_race_free()
            );
        }
    });
}

/// Model monotonicity: DRFrlx race-freedom survives upgrading every
/// atomic to a stronger class (the DRF1 and DRF0 views).
#[test]
fn race_freedom_is_monotone_under_upgrading() {
    for_each_program(0xD5F0_0005, 64, |p| {
        if check_program(p, MemoryModel::Drfrlx).is_race_free() {
            assert!(check_program(p, MemoryModel::Drf1).is_race_free());
            assert!(check_program(p, MemoryModel::Drf0).is_race_free());
        }
    });
}

/// The cache array behaves exactly like a reference LRU model.
#[test]
fn cache_matches_reference_lru() {
    let mut r = SplitMix64::new(0xD5F0_0006);
    for _case in 0..128 {
        let len = 1 + r.below(119) as usize;
        let addrs: Vec<u64> = (0..len).map(|_| r.below(24)).collect();
        let mut cache: Cache<u8> = Cache::new(CacheParams { sets: 2, ways: 4 });
        let mut reference: Vec<(u64, usize)> = Vec::new(); // (line, last use)
        for (time, &a) in addrs.iter().enumerate() {
            let set = a % 2;
            let hit = cache.lookup(LineAddr(a)).is_some();
            let ref_hit = reference.iter().any(|&(l, _)| l == a);
            assert_eq!(hit, ref_hit, "at access {time} to {a} in {addrs:?}");
            if ref_hit {
                reference.retain(|&(l, _)| l != a);
            } else {
                cache.insert(LineAddr(a), 0);
                let in_set: Vec<usize> = reference
                    .iter()
                    .enumerate()
                    .filter(|(_, &(l, _))| l % 2 == set)
                    .map(|(i, _)| i)
                    .collect();
                if in_set.len() >= 4 {
                    // Evict the LRU entry of that set.
                    let victim = *in_set.iter().min_by_key(|&&i| reference[i].1).expect("set full");
                    reference.remove(victim);
                }
            }
            reference.push((a, time));
        }
    }
}

/// Store buffers never lose a drain deadline: flush completes no
/// earlier than the latest pending entry.
#[test]
fn store_buffer_flush_covers_all_entries() {
    let mut r = SplitMix64::new(0xD5F0_0007);
    for _case in 0..128 {
        let len = 1 + r.below(19) as usize;
        let drains: Vec<u64> = (0..len).map(|_| 1 + r.below(999)).collect();
        let mut sb = StoreBuffer::new(32);
        let mut max_drain = 0;
        for (i, &d) in drains.iter().enumerate() {
            sb.push(0, LineAddr(i as u64), d);
            max_drain = max_drain.max(d);
        }
        let flushed = sb.flush(0);
        assert!(flushed >= max_drain, "flush {flushed} < {max_drain} for {drains:?}");
        assert!(sb.is_empty());
    }
}

/// A cycle for a request stream whose clock is not monotone: the
/// structures under test must not assume `now` only grows.
fn wandering_now(r: &mut SplitMix64) -> u64 {
    r.below(200)
}

/// The MSHR file against a naive reference that retires completed
/// entries on every call, over streams whose `now` jumps back and forth.
/// Capacities of 1..4 entries over 8 lines hit `Full` often; some
/// entries never get a completion and stay in flight.
#[test]
fn mshr_matches_naive_reference() {
    struct Reference {
        capacity: usize,
        inflight: Vec<(LineAddr, u64)>,
        counters: (u64, u64, u64),
    }
    impl Reference {
        fn expire(&mut self, now: u64) {
            self.inflight.retain(|&(_, done)| done > now);
        }
        fn find(&self, line: LineAddr) -> Option<u64> {
            self.inflight.iter().find(|&&(l, _)| l == line).map(|&(_, d)| d)
        }
        fn request(&mut self, now: u64, line: LineAddr) -> MshrOutcome {
            self.expire(now);
            if let Some(done) = self.find(line) {
                self.counters.1 += 1;
                return MshrOutcome::Coalesced(done);
            }
            if self.inflight.len() >= self.capacity {
                self.counters.2 += 1;
                let earliest = self.inflight.iter().map(|&(_, d)| d).min().unwrap_or(now);
                return MshrOutcome::Full(earliest);
            }
            self.counters.0 += 1;
            self.inflight.push((line, u64::MAX));
            MshrOutcome::Allocated
        }
    }

    let mut r = SplitMix64::new(0xD5F0_0008);
    let mut full_stalls = 0;
    for case in 0..256 {
        let capacity = 1 + r.below(4) as usize;
        let mut mshr = Mshr::new(capacity);
        let mut reference = Reference { capacity, inflight: Vec::new(), counters: (0, 0, 0) };
        for step in 0..64 {
            let now = wandering_now(&mut r);
            let line = LineAddr(r.below(8));
            let at = format!("case {case} step {step} now {now} {line:?}");
            match r.below(20) {
                0..=7 => {
                    let got = mshr.request(now, line);
                    assert_eq!(got, reference.request(now, line), "request at {at}");
                    // Most allocations learn their completion; a few
                    // stay in flight for good.
                    if got == MshrOutcome::Allocated && r.below(8) != 0 {
                        let done = now + 1 + r.below(60);
                        mshr.set_completion(line, done);
                        if let Some(e) = reference.inflight.iter_mut().find(|(l, _)| *l == line) {
                            e.1 = done;
                        }
                    }
                }
                8..=12 => {
                    reference.expire(now);
                    assert_eq!(mshr.pending(now, line), reference.find(line), "pending at {at}");
                }
                13..=16 => {
                    // Moves a live entry's completion either way, or
                    // touches a line with no entry.
                    let done = now + r.below(60);
                    mshr.set_completion(line, done);
                    if let Some(e) = reference.inflight.iter_mut().find(|(l, _)| *l == line) {
                        e.1 = done;
                    }
                }
                _ => {
                    mshr.expire(now);
                    reference.expire(now);
                }
            }
            assert_eq!(mshr.live(), reference.inflight.len(), "live after {at}");
            assert_eq!(mshr.counters(), reference.counters, "counters after {at}");
        }
        full_stalls += reference.counters.2;
    }
    assert!(full_stalls > 0, "the streams never filled the MSHR file");
}

/// The store buffer against a naive reference that drops drained
/// entries on every call, over streams whose `now` jumps back and
/// forth. Capacities of 1..4 entries over 8 lines hit the full-buffer
/// stall often.
#[test]
fn store_buffer_matches_naive_reference() {
    #[derive(Default)]
    struct Reference {
        capacity: usize,
        entries: Vec<(LineAddr, u64)>,
        stores: u64,
        coalesced: u64,
        flushes: u64,
        stall_cycles: u64,
    }
    impl Reference {
        fn expire(&mut self, now: u64) {
            self.entries.retain(|&(_, done)| done > now);
        }
        fn push(&mut self, now: u64, line: LineAddr, drain_done: u64) -> u64 {
            self.expire(now);
            self.stores += 1;
            if let Some(e) = self.entries.iter_mut().find(|(l, _)| *l == line) {
                e.1 = e.1.max(drain_done);
                self.coalesced += 1;
                return now;
            }
            let mut at = now;
            if self.entries.len() >= self.capacity {
                let oldest = self.entries.iter().map(|&(_, d)| d).min().unwrap_or(now);
                self.stall_cycles += oldest.saturating_sub(now);
                at = at.max(oldest);
                self.expire(at);
            }
            self.entries.push((line, drain_done));
            at
        }
        fn flush(&mut self, now: u64) -> u64 {
            self.flushes += 1;
            let done = self.entries.iter().map(|&(_, d)| d).max().unwrap_or(now).max(now);
            self.stall_cycles += done - now;
            self.entries.clear();
            done
        }
    }

    let mut r = SplitMix64::new(0xD5F0_0009);
    let mut stalled = 0;
    for case in 0..256 {
        let capacity = 1 + r.below(4) as usize;
        let mut sb = StoreBuffer::new(capacity);
        let mut reference = Reference { capacity, ..Reference::default() };
        for step in 0..64 {
            let now = wandering_now(&mut r);
            let at = format!("case {case} step {step} now {now}");
            match r.below(10) {
                0..=6 => {
                    let line = LineAddr(r.below(8));
                    let drain_done = now + 1 + r.below(60);
                    let accepted = sb.push(now, line, drain_done);
                    assert_eq!(
                        accepted,
                        reference.push(now, line, drain_done),
                        "push of {line:?} draining at {drain_done}, {at}"
                    );
                    stalled += u64::from(accepted > now);
                }
                7 => assert_eq!(sb.flush(now), reference.flush(now), "flush at {at}"),
                _ => {
                    sb.expire(now);
                    reference.expire(now);
                }
            }
            assert_eq!(sb.len(), reference.entries.len(), "len after {at}");
            let stats = sb.stats();
            assert_eq!(
                (stats.stores, stats.coalesced, stats.flushes, stats.stall_cycles),
                (reference.stores, reference.coalesced, reference.flushes, reference.stall_cycles),
                "stats after {at}"
            );
        }
    }
    assert!(stalled > 0, "the streams never stalled on a full buffer");
}

/// Flash invalidation against a reference set of resident lines, after
/// random inserts, removes and selective invalidations. The geometries
/// include more than 64 sets, where one occupancy bit covers a group of
/// sets (130 sets: groups of 3, the last one partial).
#[test]
fn cache_invalidation_matches_reference_set() {
    let mut r = SplitMix64::new(0xD5F0_000A);
    for (sets, ways) in [(2, 2), (64, 2), (128, 1), (130, 2)] {
        for case in 0..64 {
            let mut cache: Cache<u8> = Cache::new(CacheParams { sets, ways });
            let mut reference: Vec<(u64, u8)> = Vec::new();
            let mut invalidated = 0;
            // Few lines per case, so most sets stay empty and the
            // summary has groups to skip.
            let lines = 1 + r.below(4 * sets as u64);
            for step in 0..96 {
                let at = format!("{sets}x{ways} case {case} step {step}");
                match r.below(10) {
                    0..=4 => {
                        let (line, state) = (r.below(lines), r.below(4) as u8);
                        if let Some(ev) = cache.insert(LineAddr(line), state) {
                            let i = reference
                                .iter()
                                .position(|&(l, _)| l == ev.line.0)
                                .unwrap_or_else(|| panic!("evicted a non-resident line at {at}"));
                            assert_eq!(ev.line.0 % sets as u64, line % sets as u64, "{at}");
                            reference.remove(i);
                        }
                        reference.retain(|&(l, _)| l != line);
                        reference.push((line, state));
                    }
                    5 => {
                        let line = r.below(lines);
                        let i = reference.iter().position(|&(l, _)| l == line);
                        let expect = i.map(|i| reference.remove(i).1);
                        assert_eq!(cache.remove(LineAddr(line)), expect, "remove {line} at {at}");
                    }
                    _ => {
                        let (kind, k) = (r.below(3), r.below(4));
                        let victim = |line: u64, state: u8| match kind {
                            0 => true,
                            1 => u64::from(state) == k,
                            _ => line % 4 == k,
                        };
                        let before = reference.len();
                        reference.retain(|&(l, s)| !victim(l, s));
                        let dropped = (before - reference.len()) as u64;
                        invalidated += dropped;
                        assert_eq!(
                            cache.invalidate_where(|l, s| victim(l.0, *s)),
                            dropped,
                            "invalidation kind {kind} key {k} at {at}"
                        );
                    }
                }
                let mut resident: Vec<(u64, u8)> = cache.iter().map(|(l, s)| (l.0, *s)).collect();
                resident.sort_unstable();
                let mut expect = reference.clone();
                expect.sort_unstable();
                assert_eq!(resident, expect, "resident lines after {at}");
                assert_eq!(cache.stats().invalidations, invalidated, "{at}");
            }
        }
    }
}

/// A small machine on a 3x2 mesh: fewer CUs, L1 and L2 sets, banks and
/// DRAM channels than Table 2, and buffers small enough to fill.
fn small_memsys() -> MemSysParams {
    let noc = NocParams { width: 3, height: 2, hop_latency: 2, ..NocParams::default() };
    MemSysParams {
        l1: CacheParams { sets: 16, ways: 2 },
        l1_mshrs: 2,
        store_buffer: 4,
        l2_banks: 4,
        l2_bank: CacheParams { sets: 32, ways: 4 },
        dram: DramParams { latency: 90, channels: 3, occupancy: 12 },
        ..MemSysParams::for_mesh(noc)
    }
}

/// The access codes [`drive_lockstep`] draws from: 0 and 1 load, 2 and
/// 3 store, 4 and 5 run an RMW, 6 acquires and 7 releases.
const EVERY_OP: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Every CU of `m`.
fn every_cu(m: &MemorySystem) -> Vec<CuId> {
    (0..m.params().num_cus).collect()
}

/// Drive `steps` random accesses, each by one of `cus` and one of
/// `ops`, into `mems` (every machine gets the same call) and assert that
/// all of them return the same cycle. Lines crowd three L1 sets, so sets
/// overflow and owned lines are evicted; `now` drifts forward but often
/// steps back.
fn drive_lockstep(
    r: &mut SplitMix64,
    mems: &mut [&mut MemorySystem],
    cus: &[CuId],
    ops: &[u64],
    steps: usize,
    at: &str,
) {
    let mut clock = 0u64;
    for step in 0..steps {
        clock += r.below(40);
        let now = clock.saturating_sub(r.below(120));
        let cu = cus[r.below(cus.len() as u64) as usize];
        let line = if r.below(2) == 0 { r.below(12) * 64 + r.below(3) } else { r.below(4096) };
        let addr = line * 16 + r.below(16);
        let op = ops[r.below(ops.len() as u64) as usize];
        let mut cycles = mems.iter_mut().map(|m| match op {
            0 => m.load(now, cu, addr, AccessKind::DataLoad),
            1 => m.load(now, cu, addr, AccessKind::AtomicLoad),
            2 => m.store(now, cu, addr, AccessKind::DataStore),
            3 => m.store(now, cu, addr, AccessKind::AtomicStore),
            4 | 5 => m.rmw(now, cu, addr),
            6 => m.acquire(now, cu),
            _ => m.release(now, cu),
        });
        let first = cycles.next().expect("at least one machine");
        for (i, c) in cycles.enumerate() {
            assert_eq!(
                c,
                first,
                "machine {} at {at} step {step}: op {op} cu {cu} addr {addr}",
                i + 1
            );
        }
    }
}

/// DeNovo, except that an acquire loads and a release stores line 0,
/// one of the lines [`drive_lockstep`] crowds. A policy injected through
/// `MemorySystem::with_policy` can reach an L1 from any access entry
/// point, so a reset must count each of them as touching the CU's L1.
struct AccessingFences;

impl CoherencePolicy<NoTrace> for AccessingFences {
    fn load(
        &self,
        core: &mut MemCore<NoTrace>,
        now: Cycle,
        cu: CuId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle {
        DeNovoCoherence.load(core, now, cu, addr, kind)
    }

    fn store(
        &self,
        core: &mut MemCore<NoTrace>,
        now: Cycle,
        cu: CuId,
        addr: Addr,
        kind: AccessKind,
    ) -> Cycle {
        DeNovoCoherence.store(core, now, cu, addr, kind)
    }

    fn rmw(&self, core: &mut MemCore<NoTrace>, now: Cycle, cu: CuId, addr: Addr) -> Cycle {
        DeNovoCoherence.rmw(core, now, cu, addr)
    }

    fn acquire(&self, core: &mut MemCore<NoTrace>, now: Cycle, cu: CuId) -> Cycle {
        DeNovoCoherence.load(core, now, cu, 0, AccessKind::DataLoad)
    }

    fn release(&self, core: &mut MemCore<NoTrace>, now: Cycle, cu: CuId) -> Cycle {
        DeNovoCoherence.store(core, now, cu, 0, AccessKind::DataStore)
    }
}

/// Reset `a` to `protocol` on `params`, then drive it beside a fresh
/// machine over every CU and assert that the two agree on every
/// returned cycle, statistic, energy counter and NoC statistic.
fn assert_reset_matches_fresh(
    r: &mut SplitMix64,
    mut a: MemorySystem,
    protocol: Protocol,
    params: &MemSysParams,
    at: &str,
) {
    a.reset(protocol, params);
    let mut b = MemorySystem::new(protocol, params.clone());
    assert_eq!(a.protocol(), b.protocol(), "{at}");
    let cus = every_cu(&b);
    drive_lockstep(r, &mut [&mut a, &mut b], &cus, &EVERY_OP, 400, at);
    assert_eq!(a.stats(), b.stats(), "{at}");
    assert_eq!(a.energy_events(), b.energy_events(), "{at}");
    assert_eq!(a.noc_stats(), b.noc_stats(), "{at}");
}

/// One step of a [`ScriptKernel`] work item: an engine op, or a plain
/// store of the value the previous load returned.
#[derive(Debug, Clone, Copy)]
enum Step {
    Op(Op),
    StoreLast(u64),
}

/// Random per-item scripts over a random grid: `scripts` is block-major.
struct ScriptKernel {
    tpb: usize,
    scratch_words: usize,
    scripts: Vec<Vec<Step>>,
}

const SCRIPT_WORDS: u64 = 64;

struct ScriptItem {
    steps: Vec<Step>,
    at: usize,
}

impl WorkItem for ScriptItem {
    fn next(&mut self, last: Option<u64>) -> Op {
        let step = self.steps.get(self.at).copied();
        self.at += 1;
        match step {
            None => Op::Done,
            Some(Step::Op(op)) => op,
            Some(Step::StoreLast(addr)) => Op::Store {
                addr,
                value: last.expect("a load precedes every StoreLast"),
                class: OpClass::Data,
            },
        }
    }
}

impl Kernel for ScriptKernel {
    fn name(&self) -> String {
        "script".into()
    }
    fn blocks(&self) -> usize {
        self.scripts.len() / self.tpb
    }
    fn threads_per_block(&self) -> usize {
        self.tpb
    }
    fn scratch_words(&self) -> usize {
        self.scratch_words
    }
    fn memory_words(&self) -> usize {
        SCRIPT_WORDS as usize
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        Box::new(ScriptItem { steps: self.scripts[block * self.tpb + thread].clone(), at: 0 })
    }
}

/// A random kernel of up to 10 blocks of up to 4 items over up to 6
/// scratch words. Items store to and copy out of scratch and global
/// memory, issue RMWs (some overlapping under relaxed classes) and meet
/// the same number of block barriers, each at its own points.
fn script_kernel(r: &mut SplitMix64) -> ScriptKernel {
    let blocks = 1 + r.below(10) as usize;
    let tpb = 1 + r.below(4) as usize;
    let scratch_words = r.below(7) as usize;
    let barriers = r.below(3);
    let scripts = (0..blocks * tpb)
        .map(|_| {
            let mut steps = Vec::new();
            for _ in 0..1 + r.below(12) {
                let class = CLASSES[r.below(CLASSES.len() as u64) as usize];
                let addr = r.below(SCRIPT_WORDS);
                let value = r.below(1000);
                match r.below(6) {
                    0 | 1 if scratch_words > 0 => {
                        let word = r.below(scratch_words as u64);
                        if r.below(2) == 0 {
                            steps.push(Step::Op(Op::ScratchStore { addr: word, value }));
                        } else {
                            steps.push(Step::Op(Op::ScratchLoad { addr: word }));
                            steps.push(Step::StoreLast(addr));
                        }
                    }
                    2 => steps.push(Step::Op(Op::Store { addr, value, class })),
                    3 => {
                        steps.push(Step::Op(Op::Load { addr, class }));
                        steps.push(Step::StoreLast(r.below(SCRIPT_WORDS)));
                    }
                    4 => {
                        let use_result = r.below(2) == 0;
                        let rmw = RmwKind::Add;
                        steps.push(Step::Op(Op::Rmw {
                            addr,
                            rmw,
                            operand: value,
                            class,
                            use_result,
                        }));
                        if use_result {
                            steps.push(Step::StoreLast(r.below(SCRIPT_WORDS)));
                        }
                    }
                    _ => steps.push(Step::Op(Op::Think(r.below(20) as u32))),
                }
            }
            for _ in 0..barriers {
                // Between steps, never between a load and its StoreLast.
                let at = r.below(steps.len() as u64 + 1) as usize;
                let at = (at..=steps.len())
                    .find(|&i| !matches!(steps.get(i), Some(Step::StoreLast(_))))
                    .expect("the end is a step boundary");
                steps.insert(at, Step::Op(Op::Barrier));
            }
            steps
        })
        .collect();
    ScriptKernel { tpb, scratch_words, scripts }
}

/// A machine reset to new parameters behaves exactly like a freshly
/// built one. Machine A runs a random history under a random protocol
/// and platform, is reset to another protocol and platform (a
/// conformance schedule's perturbed timing, the discrete GPU with two
/// DRAM channels, or a smaller geometry), and then sees the same access
/// stream as a fresh machine B: every returned cycle, every statistic,
/// every energy counter and the NoC statistics must agree.
///
/// A reset skips the L1s and banks the last run did not touch, so a
/// second set of histories has the shape of a conformance job: one to
/// three CUs, often a single kind of access, sometimes under a policy
/// injected through `with_policy`, and a reset that may keep the
/// platform. Most L1s and banks stay untouched; a touched one that the
/// reset skipped shows when the machine then runs over every CU.
///
/// The engine's launch state is reset the same way: random kernels
/// whose grids and scratchpads shrink and grow run in sequence on this
/// thread, where each run resets the thread's machine and launch state,
/// and each report must equal the one from a new thread, which builds
/// both afresh.
#[test]
fn reset_machine_matches_a_fresh_one() {
    let protocols = [Protocol::Gpu, Protocol::DeNovo, Protocol::MesiWb];
    let integrated = SysParams::integrated();
    let platforms = [
        integrated.memsys.clone(),
        schedule_params(&integrated, 7, 3).memsys,
        schedule_params(&integrated, 7, 9).memsys,
        SysParams::discrete_gpu().memsys,
        small_memsys(),
    ];
    let mut r = SplitMix64::new(0xD5F0_000B);
    for protocol in protocols {
        for case in 0..24 {
            let (from, to) = loop {
                let from = r.below(platforms.len() as u64) as usize;
                let to = r.below(platforms.len() as u64) as usize;
                if from != to {
                    break (from, to);
                }
            };
            let before = protocols[r.below(3) as usize];
            let at = format!("{protocol} case {case}: {before} on platform {from} -> {to}");
            let mut a = MemorySystem::new(before, platforms[from].clone());
            let history = 1 + r.below(300) as usize;
            let cus = every_cu(&a);
            drive_lockstep(&mut r, &mut [&mut a], &cus, &EVERY_OP, history, &at);
            assert_reset_matches_fresh(&mut r, a, protocol, &platforms[to], &at);
        }
        // Every even case makes one kind of access, each kind once
        // under the injected policy and once under a built-in one.
        for case in 0..32 {
            let from = r.below(platforms.len() as u64) as usize;
            let to = r.below(platforms.len() as u64) as usize;
            let num_cus = platforms[from].num_cus as u64;
            let cus: Vec<CuId> = (0..1 + r.below(3)).map(|_| r.below(num_cus) as usize).collect();
            let ops = if case % 2 == 0 { vec![case / 2 % 8] } else { EVERY_OP.to_vec() };
            let before = protocols[r.below(3) as usize];
            let injected = case < 16;
            let at = format!(
                "{protocol} confined case {case}: {before} (injected fences {injected}) on CUs \
                 {cus:?}, ops {ops:?}, platform {from} -> {to}"
            );
            let params = platforms[from].clone();
            let mut a = if injected {
                MemorySystem::with_policy(before, Box::new(AccessingFences), params, NoTrace)
            } else {
                MemorySystem::new(before, params)
            };
            let history = 1 + r.below(300) as usize;
            drive_lockstep(&mut r, &mut [&mut a], &cus, &ops, history, &at);
            assert_reset_matches_fresh(&mut r, a, protocol, &platforms[to], &at);
        }
    }

    let configs = SystemConfig::extended();
    let (mut shrank, mut grew) = ([false; 2], [false; 2]);
    let mut last = [0usize; 2];
    for case in 0..32 {
        let kernel = script_kernel(&mut r);
        let config = configs[r.below(configs.len() as u64) as usize];
        let params = schedule_params(&integrated, 11, r.below(4) as usize);
        let at = format!(
            "kernel {case}: {} blocks × {} items, {} scratch words, {config}",
            kernel.blocks(),
            kernel.tpb,
            kernel.scratch_words
        );
        let shape = [kernel.scripts.len(), kernel.blocks() * kernel.scratch_words];
        for d in 0..2 {
            shrank[d] |= shape[d] < last[d];
            grew[d] |= shape[d] > last[d];
        }
        last = shape;
        let reused = format!("{:?}", run_workload(&kernel, config, &params));
        let fresh = std::thread::scope(|s| {
            s.spawn(|| format!("{:?}", run_workload(&kernel, config, &params))).join()
        })
        .expect("the fresh run does not panic");
        assert_eq!(reused, fresh, "{at}");
    }
    assert_eq!((shrank, grew), ([true; 2], [true; 2]), "contexts and scratch shrink and grow");
}
