//! Shared program-shape templates: the single source for litmus use-cases
//! and micro workloads.
//!
//! Each family in this module emits [`Program`] threads from a small set of
//! knobs. The *litmus* instantiations (`crates/litmus/usecases.rs` and
//! `mislabeled.rs`) use tiny parameters (one poll, one visit, one section)
//! and `observe` tails so the axiomatic checkers can enumerate them; the
//! *grid* instantiations (`crates/workloads/micro/*`) use full-scale
//! parameters and publish results through stores so the simulator can
//! validate them. Both are lowered through
//! [`ProgramKernel`](crate::ProgramKernel), so an instruction-semantics bug
//! can only live in one place.
//!
//! Two emission styles coexist:
//!
//! * small shapes (counters, queues, seqlock writers) go through
//!   [`ThreadBuilder`] exactly like the original hand-written litmus tests,
//!   guaranteeing instruction-for-instruction identity with the historical
//!   programs (and hence byte-identical `results/conform_matrix.txt`);
//! * data-dependent loops (flag polling, seqlock retry) are emitted
//!   *forward* with all loop-exit `JumpIfZero`s patched to the end of the
//!   region. Construction is O(n) in the unrolled length, early exit skips
//!   the whole tail in O(1) at run time, and skipped iterations issue zero
//!   memory operations — matching the hand-coded state machines these
//!   templates replaced, call for call.

use drfrlx_core::program::{BinOp, Expr, Instr, Program, Reg, RmwOp, Thread, ThreadBuilder, Value};
use drfrlx_core::OpClass;

/// Left-fold a non-empty register list with `op`. A single register folds
/// to a bare `Expr::Reg`, matching what the hand-written litmus tests
/// build for degenerate instances.
fn fold_regs(op: BinOp, regs: &[Reg]) -> Expr {
    let mut it = regs.iter();
    let first = *it.next().expect("fold_regs needs at least one register");
    it.fold(Expr::Reg(first), |acc, r| Expr::bin(op, acc, Expr::Reg(*r)))
}

/// Split counter (paper §2: per-CU quantum sub-counters, relaxed reader).
pub mod split_counter {
    use super::*;

    /// Shape knobs shared by the litmus use-case and the `SC` micro.
    pub struct Shape {
        /// Sub-counter location names, in reader sweep order.
        pub counters: Vec<String>,
        /// Increments each updater performs on its own sub-counter.
        pub increments: usize,
        /// Full read sweeps the reader performs (micro: 2; litmus: 1).
        pub sweeps: usize,
        /// Think cycles between sweeps (elided when 0).
        pub think_between_sweeps: u32,
        /// Class of the updater RMWs and reader loads (Quantum when
        /// correctly labelled).
        pub update_class: OpClass,
        /// Class of the reader loads (mislabeled variants diverge here).
        pub read_class: OpClass,
    }

    /// Updater thread: `increments` fetch-adds on one sub-counter.
    pub fn updater(t: &mut ThreadBuilder<'_>, shape: &Shape, counter: &str) {
        for _ in 0..shape.increments {
            t.rmw(shape.update_class, counter, RmwOp::FetchAdd, 1);
        }
    }

    /// Reader thread: `sweeps` sweeps over every sub-counter; the final
    /// sweep's sum is observed (litmus) or stored to `publish` (grid).
    pub fn reader(t: &mut ThreadBuilder<'_>, shape: &Shape, publish: Option<&str>) {
        let mut last_sweep: Vec<Reg> = Vec::new();
        for s in 0..shape.sweeps {
            if s > 0 && shape.think_between_sweeps > 0 {
                t.think(shape.think_between_sweeps);
            }
            last_sweep = shape.counters.iter().map(|c| t.load(shape.read_class, c)).collect();
        }
        let sum = fold_regs(BinOp::Add, &last_sweep);
        match publish {
            Some(out) => {
                t.store(OpClass::Data, out, sum);
            }
            None => {
                t.observe(sum);
            }
        }
    }
}

/// Reference counter (paper §2: quantum inc/dec, commutative mark).
pub mod ref_counter {
    use super::*;

    /// One object a visit touches: `(count_loc, mark_loc, mark_value)`.
    pub struct Obj {
        /// Reference-count location.
        pub count: String,
        /// Mark location stored to when the count drops to zero.
        pub mark: String,
        /// Value written to the mark location.
        pub mark_value: Value,
    }

    /// Shape knobs shared by the litmus use-case and the `RC` micro.
    pub struct Shape {
        /// Class of the inc/dec RMWs (Quantum when correctly labelled).
        pub count_class: OpClass,
        /// Class of the mark store (Commutative when correctly labelled).
        pub mark_class: OpClass,
        /// Think cycles between the incs and the decs (elided when 0).
        pub think: u32,
    }

    /// One visit: increment every object's count, work, then decrement
    /// each and mark it when this thread released the last reference.
    pub fn visit(t: &mut ThreadBuilder<'_>, shape: &Shape, objs: &[Obj]) {
        for o in objs {
            t.rmw(shape.count_class, &o.count, RmwOp::FetchAdd, 1);
        }
        if shape.think > 0 {
            t.think(shape.think);
        }
        for o in objs {
            let old = t.rmw(shape.count_class, &o.count, RmwOp::FetchSub, 1);
            let mark_class = shape.mark_class;
            let mark_value = o.mark_value;
            let mark = o.mark.clone();
            t.if_nz(Expr::bin(BinOp::Eq, old.into(), 1.into()), |t| {
                t.store(mark_class, &mark, mark_value);
            });
        }
    }
}

/// Flag-based termination (paper §2: non-ordering stop flag, commutative
/// dirty flag, paired exit handshake).
pub mod flags {
    use super::*;

    /// How a worker announces its exit.
    pub enum Exit {
        /// `store(class, "exited", 1)` — the litmus shape (one worker).
        Store(OpClass),
        /// `fetch_add(class, "exited", 1)` — the grid shape (many
        /// workers, main joins on the count).
        Fadd(OpClass),
    }

    /// Worker-side knobs.
    pub struct Worker {
        /// Class of the stop-flag polls.
        pub stop_class: OpClass,
        /// Class of the dirty-flag stores.
        pub dirty_class: OpClass,
        /// Maximum poll iterations before giving up.
        pub polls: usize,
        /// Think cycles of work per continuing iteration (elided when 0).
        pub think: u32,
        /// Store the dirty flag every `dirty_every`-th continuing
        /// iteration (0 disables; litmus uses 1, the micro uses 4).
        pub dirty_every: usize,
        /// Whether the final poll, if reached, still guards a work body
        /// (litmus: true — its single poll does work; grid: false — the
        /// poll-cap iteration just exits).
        pub last_poll_works: bool,
        /// Observe the first polled value (the `flags_stop_data`
        /// mislabeling uses the poll result directly).
        pub observe_poll: bool,
        /// Exit announcement.
        pub exit: Exit,
    }

    /// Emit a worker thread. Poll iterations are unrolled forward; every
    /// iteration's `stop != 0` test jumps straight to the exit
    /// announcement, so a stopped worker issues no further memory ops.
    pub fn worker(p: &mut Program, w: &Worker) -> Thread {
        let stop = p.intern("stop");
        let dirty = p.intern("dirty");
        let exited = p.intern("exited");
        let mut ins: Vec<Instr> = Vec::new();
        let mut exits: Vec<usize> = Vec::new();
        // Each polled value dies at its own guard, so every iteration
        // past the first shares one register: the unroll count is
        // bounded by the op stream, not the register file. Only the
        // first poll (observable via `observe_poll`) keeps its own.
        let mut reg = 0u16;
        let mut first_poll = None;
        for i in 0..w.polls {
            let s = Reg(reg.min(1));
            reg = (reg + 1).min(2);
            first_poll.get_or_insert(s);
            ins.push(Instr::Load { class: w.stop_class, loc: stop, dst: s });
            if i + 1 == w.polls && !w.last_poll_works {
                break;
            }
            exits.push(ins.len());
            ins.push(Instr::JumpIfZero {
                cond: Expr::bin(BinOp::Eq, Expr::Reg(s), Expr::Const(0)),
                skip: 0,
            });
            if w.think > 0 {
                ins.push(Instr::Think { cycles: w.think });
            }
            if w.dirty_every != 0 && (i + 1) % w.dirty_every == 0 {
                ins.push(Instr::Store { class: w.dirty_class, loc: dirty, val: Expr::Const(1) });
            }
        }
        let end = ins.len();
        for j in exits {
            let skip = end - j - 1;
            if let Instr::JumpIfZero { skip: s, .. } = &mut ins[j] {
                *s = skip;
            }
        }
        if w.observe_poll {
            let s = first_poll.expect("observe_poll requires at least one poll");
            ins.push(Instr::Observe { expr: Expr::Reg(s) });
        }
        match w.exit {
            Exit::Store(class) => {
                ins.push(Instr::Store { class, loc: exited, val: Expr::Const(1) })
            }
            Exit::Fadd(class) => {
                let dst = Reg(reg);
                ins.push(Instr::Rmw {
                    class,
                    loc: exited,
                    op: RmwOp::FetchAdd,
                    operand: Expr::Const(1),
                    operand2: Expr::Const(0),
                    dst,
                });
            }
        }
        Thread { instrs: ins }
    }

    /// What main does after the join completes.
    pub enum Tail {
        /// Observe the (single) join load — the `flags_stop_data` shape.
        ObserveJoin,
        /// `if joined { observe(load(dirty_class, "dirty")) }` — the
        /// litmus use-case shape.
        GuardedObserveDirty(OpClass),
        /// Unconditionally read the dirty flag and republish `dirty + 10`
        /// as Data — the grid shape (validated by the kernel).
        PublishDirty(OpClass),
    }

    /// Main-side knobs.
    pub struct Main {
        /// Think cycles before raising the stop flag. `Some(0)` still
        /// emits a zero-length think (the micro's op stream does);
        /// `None` elides it (the litmus shape).
        pub delay: Option<u32>,
        /// Class of the stop-flag store.
        pub stop_class: OpClass,
        /// Class of the exited-counter join loads.
        pub exited_class: OpClass,
        /// Maximum join polls (litmus: 1; grid: a bound comfortably above
        /// the worst-case worker runtime, checked by differential test).
        pub join_polls: usize,
        /// Join completes once the exited counter reaches this value.
        pub join_target: Value,
        /// Post-join behaviour.
        pub tail: Tail,
    }

    /// Emit the main thread: optional delay, stop store, join loop
    /// (unrolled forward, early-exit jumps patched to the join's end),
    /// then the tail.
    pub fn main(p: &mut Program, m: &Main) -> Thread {
        let stop = p.intern("stop");
        let dirty = p.intern("dirty");
        let exited = p.intern("exited");
        let mut ins: Vec<Instr> = Vec::new();
        let mut reg = 0u16;
        if let Some(d) = m.delay {
            ins.push(Instr::Think { cycles: d });
        }
        ins.push(Instr::Store { class: m.stop_class, loc: stop, val: Expr::Const(1) });
        let mut joins: Vec<usize> = Vec::new();
        // As in `worker`: join loads die at their guard, so iterations
        // past the first (whose value the `ObserveJoin` and
        // `GuardedObserveDirty` tails read) share one register.
        let first = reg;
        let mut first_join = None;
        for k in 0..m.join_polls {
            let j = Reg(reg.min(first + 1));
            reg = (reg + 1).min(first + 2);
            first_join.get_or_insert(j);
            ins.push(Instr::Load { class: m.exited_class, loc: exited, dst: j });
            if k + 1 == m.join_polls {
                break;
            }
            // Keep polling only while the count is still short.
            joins.push(ins.len());
            ins.push(Instr::JumpIfZero {
                cond: Expr::bin(BinOp::Lt, Expr::Reg(j), Expr::Const(m.join_target)),
                skip: 0,
            });
        }
        let end = ins.len();
        for j in joins {
            let skip = end - j - 1;
            if let Instr::JumpIfZero { skip: s, .. } = &mut ins[j] {
                *s = skip;
            }
        }
        let joined = first_join.expect("join_polls must be at least 1");
        match &m.tail {
            Tail::ObserveJoin => ins.push(Instr::Observe { expr: Expr::Reg(joined) }),
            Tail::GuardedObserveDirty(class) => {
                let d = Reg(reg);
                ins.push(Instr::JumpIfZero { cond: Expr::Reg(joined), skip: 2 });
                ins.push(Instr::Load { class: *class, loc: dirty, dst: d });
                ins.push(Instr::Observe { expr: Expr::Reg(d) });
            }
            Tail::PublishDirty(class) => {
                let d = Reg(reg);
                ins.push(Instr::Load { class: *class, loc: dirty, dst: d });
                ins.push(Instr::Store {
                    class: OpClass::Data,
                    loc: dirty,
                    val: Expr::bin(BinOp::Add, Expr::Reg(d), Expr::Const(10)),
                });
            }
        }
        Thread { instrs: ins }
    }

    /// A bare `store(class, "dirty", value)` thread — the
    /// `flags_conflicting_dirty` mislabeling's whole worker.
    pub fn dirty_only(p: &mut Program, class: OpClass, value: Value) -> Thread {
        let dirty = p.intern("dirty");
        Thread { instrs: vec![Instr::Store { class, loc: dirty, val: Expr::Const(value) }] }
    }
}

/// Seqlock (paper §2: paired lock words, speculative payload reads).
pub mod seqlock {
    use super::*;

    /// Writer-side knobs.
    pub struct Writer {
        /// Guard payload stores with a CAS on the sequence word (the
        /// `seqlock_double_writer` mislabeling drops the lock).
        pub lock: bool,
        /// Class of the acquiring CAS.
        pub lock_class: OpClass,
        /// Class of the releasing sequence store.
        pub unlock_class: OpClass,
        /// Class of the payload stores.
        pub payload_class: OpClass,
        /// Payload location names.
        pub payloads: Vec<String>,
        /// Number of writer sections.
        pub writes: usize,
    }

    /// Emit a writer thread. Each section `w` CASes the sequence word
    /// from `2w` to `2w+1`, stores `value(w, i)` to each payload slot,
    /// and releases with `2w+2`. With a single writer the CAS always
    /// succeeds, so guarding each section on its own CAS result is
    /// behaviourally identical to the retry loop it replaces.
    pub fn writer(
        t: &mut ThreadBuilder<'_>,
        w: &Writer,
        mut value: impl FnMut(usize, usize) -> Value,
    ) {
        for wr in 0..w.writes {
            let seq_even = (2 * wr) as Value;
            if w.lock {
                let old = t.cas(w.lock_class, "seq", seq_even, seq_even + 1);
                let locked = Expr::bin(BinOp::Eq, old.into(), Expr::Const(seq_even));
                let payloads = w.payloads.clone();
                let payload_class = w.payload_class;
                let unlock_class = w.unlock_class;
                let vals: Vec<Value> = (0..payloads.len()).map(|i| value(wr, i)).collect();
                t.if_nz(locked, |t| {
                    for (i, loc) in payloads.iter().enumerate() {
                        t.store(payload_class, loc, vals[i]);
                    }
                    t.store(unlock_class, "seq", seq_even + 2);
                });
            } else {
                for (i, loc) in w.payloads.iter().enumerate() {
                    t.store(w.payload_class, loc, value(wr, i));
                }
            }
        }
    }

    /// What the reader does with a completed snapshot.
    pub enum Tail {
        /// `if ok { observe each payload }` — the litmus use-case.
        ObserveChecked,
        /// Observe the payload regardless (and skip the second sequence
        /// read entirely) — the `seqlock_unconditional_use` mislabeling.
        ObserveUnchecked,
        /// Nothing: the grid micro validates final memory instead.
        None,
    }

    /// Reader-side knobs.
    pub struct Reader {
        /// Class of the opening sequence load.
        pub seq0_class: OpClass,
        /// Class of the closing sequence RMW (`fetch_add 0`).
        pub seq1_class: OpClass,
        /// Class of the payload loads.
        pub payload_class: OpClass,
        /// Payload location names.
        pub payloads: Vec<String>,
        /// Snapshot sections to complete.
        pub reads: usize,
        /// Attempts per section before giving it up.
        pub max_retries: usize,
        /// Tail behaviour.
        pub tail: Tail,
    }

    /// Emit a reader thread.
    ///
    /// An attempt is: load `seq`, load each payload, re-read `seq` with a
    /// `fetch_add 0`, and compute `ok = (seq0 == seq1) && even(seq0)`.
    /// The litmus shape is a single attempt with an observe tail. The
    /// grid shape unrolls `reads * max_retries` attempts — the exact
    /// worst case of the retry loop it replaces — with per-attempt
    /// bookkeeping in registers: `done` counts completed sections,
    /// `retr` counts retries within the current section (a section
    /// force-completes at `max_retries` attempts), and every attempt
    /// after the first is guarded by `done < reads` jumping to the end.
    pub fn reader(p: &mut Program, r: &Reader) -> Thread {
        let seq = p.intern("seq");
        let pls: Vec<_> = r.payloads.iter().map(|l| p.intern(l)).collect();
        let attempts = r.reads * r.max_retries;
        assert!(attempts > 0, "seqlock reader needs at least one attempt");
        let mut ins: Vec<Instr> = Vec::new();
        let mut guards: Vec<usize> = Vec::new();
        let mut reg = 0u16;
        let fresh = |reg: &mut u16| {
            let r = Reg(*reg);
            *reg += 1;
            r
        };
        // One attempt: seq0 load, payload loads, closing `fetch_add 0`
        // (skipped by the unchecked mislabeling), returning the
        // consistency test and the snapshot registers.
        let skip_seq1 = matches!(r.tail, Tail::ObserveUnchecked);
        let attempt = |ins: &mut Vec<Instr>, reg: &mut u16| -> (Expr, Vec<Reg>) {
            let seq0 = fresh(reg);
            ins.push(Instr::Load { class: r.seq0_class, loc: seq, dst: seq0 });
            let vals: Vec<Reg> = pls
                .iter()
                .map(|l| {
                    let v = fresh(reg);
                    ins.push(Instr::Load { class: r.payload_class, loc: *l, dst: v });
                    v
                })
                .collect();
            if skip_seq1 {
                return (Expr::Const(1), vals);
            }
            let seq1 = fresh(reg);
            ins.push(Instr::Rmw {
                class: r.seq1_class,
                loc: seq,
                op: RmwOp::FetchAdd,
                operand: Expr::Const(0),
                operand2: Expr::Const(0),
                dst: seq1,
            });
            let same = Expr::bin(BinOp::Eq, Expr::Reg(seq0), Expr::Reg(seq1));
            let even = Expr::bin(
                BinOp::Eq,
                Expr::bin(BinOp::And, Expr::Reg(seq0), Expr::Const(1)),
                Expr::Const(0),
            );
            (Expr::bin(BinOp::And, same, even), vals)
        };
        if attempts == 1 && !matches!(r.tail, Tail::None) {
            // Litmus shape: one attempt, the ok test feeds the tail
            // directly — identical to the historical builder output.
            let (ok_expr, vals) = attempt(&mut ins, &mut reg);
            if matches!(r.tail, Tail::ObserveChecked) {
                ins.push(Instr::JumpIfZero { cond: ok_expr, skip: vals.len() });
            }
            for v in &vals {
                ins.push(Instr::Observe { expr: Expr::Reg(*v) });
            }
            return Thread { instrs: ins };
        }
        // Grid shape: unroll every attempt with register bookkeeping.
        // `done`/`retr` from the previous attempt (constants before the
        // first attempt has run).
        let mut done_prev: Option<Reg> = None;
        let mut retr_prev: Option<Reg> = None;
        for _ in 0..attempts {
            let (ok_expr, _vals) = attempt(&mut ins, &mut reg);
            let ok = fresh(&mut reg);
            ins.push(Instr::Assign { dst: ok, expr: ok_expr });
            let retr_e = retr_prev.map_or(Expr::Const(0), Expr::Reg);
            let done_e = done_prev.map_or(Expr::Const(0), Expr::Reg);
            // The section ends when the snapshot was consistent or this
            // was the section's last permitted attempt.
            let sec_end = fresh(&mut reg);
            ins.push(Instr::Assign {
                dst: sec_end,
                expr: Expr::bin(
                    BinOp::Or,
                    Expr::Reg(ok),
                    Expr::bin(BinOp::Eq, retr_e.clone(), Expr::Const((r.max_retries - 1) as Value)),
                ),
            });
            let done = fresh(&mut reg);
            ins.push(Instr::Assign {
                dst: done,
                expr: Expr::bin(BinOp::Add, done_e, Expr::Reg(sec_end)),
            });
            // retr' = (retr + 1) & (sec_end - 1): the mask is all-ones
            // while the section continues and zero when it ends.
            let retr = fresh(&mut reg);
            ins.push(Instr::Assign {
                dst: retr,
                expr: Expr::bin(
                    BinOp::And,
                    Expr::bin(BinOp::Add, retr_e, Expr::Const(1)),
                    Expr::bin(BinOp::Sub, Expr::Reg(sec_end), Expr::Const(1)),
                ),
            });
            done_prev = Some(done);
            retr_prev = Some(retr);
            guards.push(ins.len());
            ins.push(Instr::JumpIfZero {
                cond: Expr::bin(BinOp::Lt, Expr::Reg(done), Expr::Const(r.reads as Value)),
                skip: 0,
            });
        }
        // The trailing guard after the final attempt is dead weight.
        if guards.last() == Some(&(ins.len() - 1)) {
            guards.pop();
            ins.pop();
        }
        let end = ins.len();
        for g in guards {
            let skip = end - g - 1;
            if let Instr::JumpIfZero { skip: s, .. } = &mut ins[g] {
                *s = skip;
            }
        }
        Thread { instrs: ins }
    }
}

/// Histogram (paper §5: scratchpad-privatised vs global-atomic binning).
pub mod hist {
    use super::*;

    /// Deterministic per-value bin assignment shared with the workload's
    /// `expected()` oracle (SplitMix64 over `(seed, block, thread, i)`).
    pub type BinOf = dyn Fn(usize, usize, usize) -> usize;

    /// Grid geometry and class knobs.
    pub struct Shape {
        /// Histogram bins.
        pub bins: usize,
        /// Values each thread processes.
        pub per_thread: usize,
        /// Threads per block (scratch tile is `tpb * bins` words).
        pub tpb: usize,
        /// Class of the global-memory merge RMWs.
        pub merge_class: OpClass,
    }

    /// `prefix` followed by `n` in decimal, written into `buf`: one
    /// name buffer serves a whole thread instead of a `format!` per
    /// location.
    fn name(buf: &mut String, prefix: char, n: usize) -> &str {
        use std::fmt::Write as _;
        buf.clear();
        buf.push(prefix);
        write!(buf, "{n}").expect("writing to a String cannot fail");
        buf
    }

    /// Scratchpad-privatised thread: count into a private scratch row,
    /// barrier, then merge owned bins (one commutative RMW per non-empty
    /// bin) into global memory.
    pub fn local_thread(
        p: &mut Program,
        s: &Shape,
        block: usize,
        thread: usize,
        bin_of: &BinOf,
    ) -> Thread {
        // Three instructions per value, the barrier, then per owned bin
        // `tpb` scratch loads, the jump and the merge.
        let owned = s.bins.saturating_sub(thread).div_ceil(s.tpb);
        let mut ins: Vec<Instr> = Vec::with_capacity(3 * s.per_thread + 1 + owned * (s.tpb + 2));
        let mut buf = String::new();
        let mut reg = 0u16;
        let gid = |b: usize, t: usize| b * s.tpb + t;
        for i in 0..s.per_thread {
            let input = p.intern(name(&mut buf, 'i', gid(block, thread) * s.per_thread + i));
            let v = Reg(reg);
            reg += 1;
            ins.push(Instr::Load { class: OpClass::Data, loc: input, dst: v });
            let bin = bin_of(block, thread, i);
            let slot = (thread * s.bins + bin) as Value;
            let c = Reg(reg);
            reg += 1;
            ins.push(Instr::ScratchLoad { addr: Expr::Const(slot), dst: c });
            ins.push(Instr::ScratchStore {
                addr: Expr::Const(slot),
                val: Expr::bin(BinOp::Add, Expr::Reg(c), Expr::Const(1)),
            });
        }
        ins.push(Instr::Barrier);
        let mut parts: Vec<Reg> = Vec::with_capacity(s.tpb);
        let mut b = thread;
        while b < s.bins {
            parts.clear();
            for t in 0..s.tpb {
                let slot = (t * s.bins + b) as Value;
                let r = Reg(reg);
                reg += 1;
                ins.push(Instr::ScratchLoad { addr: Expr::Const(slot), dst: r });
                parts.push(r);
            }
            let acc = fold_regs(BinOp::Add, &parts);
            let global = p.intern(name(&mut buf, 'b', b));
            ins.push(Instr::JumpIfZero { cond: acc.clone(), skip: 1 });
            ins.push(Instr::Rmw {
                class: s.merge_class,
                loc: global,
                op: RmwOp::FetchAdd,
                operand: acc,
                operand2: Expr::Const(0),
                dst: Reg(reg),
            });
            reg += 1;
            b += s.tpb;
        }
        Thread { instrs: ins }
    }

    /// Global-atomic thread: one RMW straight to the global bin per
    /// value (the `HG` family; `update_class` is its only knob).
    pub fn global_thread(
        p: &mut Program,
        s: &Shape,
        block: usize,
        thread: usize,
        update_class: OpClass,
        bin_of: &BinOf,
    ) -> Thread {
        let mut ins: Vec<Instr> = Vec::with_capacity(2 * s.per_thread);
        let mut buf = String::new();
        let mut reg = 0u16;
        let gid = block * s.tpb + thread;
        for i in 0..s.per_thread {
            let input = p.intern(name(&mut buf, 'i', gid * s.per_thread + i));
            let v = Reg(reg);
            reg += 1;
            ins.push(Instr::Load { class: OpClass::Data, loc: input, dst: v });
            let global = p.intern(name(&mut buf, 'b', bin_of(block, thread, i)));
            ins.push(Instr::Rmw {
                class: update_class,
                loc: global,
                op: RmwOp::FetchAdd,
                operand: Expr::Const(1),
                operand2: Expr::Const(0),
                dst: Reg(reg),
            });
            reg += 1;
        }
        Thread { instrs: ins }
    }

    /// Read-only non-ordering thread (the `HG-NO` family): a strided
    /// pseudo-random walk of relaxed loads over the bin array.
    pub fn nonorder_thread(
        p: &mut Program,
        bins: usize,
        per_thread: usize,
        gid: usize,
        threads: usize,
    ) -> Thread {
        let mut ins: Vec<Instr> = Vec::with_capacity(per_thread);
        let mut buf = String::new();
        for i in 0..per_thread {
            // Odd multiplier ⇒ bijection on a power-of-two table:
            // spreads logically-adjacent reads across lines and CUs.
            let k = gid as u64 + i as u64 * threads as u64;
            let bin = (k.wrapping_mul(0x9E37_79B1) % bins as u64) as usize;
            let loc = p.intern(name(&mut buf, 'b', bin));
            ins.push(Instr::Load { class: OpClass::NonOrdering, loc, dst: Reg(i as u16) });
        }
        Thread { instrs: ins }
    }
}

/// Work queue (paper §2: unpaired occupancy check, paired re-check).
pub mod work_queue {
    use super::*;

    /// How the producer publishes availability.
    pub enum Publish {
        /// `store(class, loc, 1)`.
        Store(OpClass, String),
        /// `fetch_add(class, loc, 1)` — the `unpublished_slot` shape.
        Fadd(OpClass, String),
    }

    /// Producer: store the task payload, then publish.
    pub fn producer(t: &mut ThreadBuilder<'_>, task: &str, task_value: Value, publish: &Publish) {
        t.store(OpClass::Data, task, task_value);
        match publish {
            Publish::Store(class, loc) => {
                t.store(*class, loc, 1);
            }
            Publish::Fadd(class, loc) => {
                t.rmw(*class, loc, RmwOp::FetchAdd, 1);
            }
        }
    }

    /// Consumer: poll one or more occupancy hints (folded with `|`),
    /// optionally re-check a paired flag, then consume the task.
    pub fn consumer(
        t: &mut ThreadBuilder<'_>,
        polls: &[(OpClass, String)],
        recheck: Option<(OpClass, String)>,
        task: &str,
    ) {
        let regs: Vec<Reg> = polls.iter().map(|(c, l)| t.load(*c, l)).collect();
        let any = fold_regs(BinOp::Or, &regs);
        let task = task.to_string();
        t.if_nz(any, |t| match &recheck {
            Some((class, loc)) => {
                let real = t.load(*class, loc);
                let task = task.clone();
                t.if_nz(real, move |t| {
                    let v = t.load(OpClass::Data, &task);
                    t.observe(v);
                });
            }
            None => {
                let v = t.load(OpClass::Data, &task);
                t.observe(v);
            }
        });
    }
}

/// Event counter (paper §2: commutative fetch-adds joined by paired
/// done flags).
pub mod event_counter {
    use super::*;

    /// One contributing worker.
    pub struct Worker {
        /// Class of the counting RMW.
        pub bin_class: OpClass,
        /// The RMW itself (the `noncommuting` mislabeling swaps in
        /// `Exchange`).
        pub op: RmwOp,
        /// Contribution.
        pub amount: Value,
        /// Observe the RMW's old value (the `observed` mislabeling).
        pub observe: bool,
        /// Done-flag store `(class, loc)`; `None` drops the handshake.
        pub done: Option<(OpClass, String)>,
    }

    /// Emit a worker thread onto `t`.
    pub fn worker(t: &mut ThreadBuilder<'_>, w: &Worker) {
        let old = t.rmw(w.bin_class, "bin", w.op, w.amount);
        if w.observe {
            t.observe(old);
        }
        if let Some((class, loc)) = &w.done {
            t.store(*class, loc, 1);
        }
    }

    /// Emit the main thread: load every done flag, fold with `&`, and
    /// read the counter under that guard.
    pub fn main(t: &mut ThreadBuilder<'_>, joins: &[(OpClass, String)], read_class: OpClass) {
        let regs: Vec<Reg> = joins.iter().map(|(c, l)| t.load(*c, l)).collect();
        let both = fold_regs(BinOp::And, &regs);
        t.if_nz(both, |t| {
            let total = t.load(read_class, "bin");
            t.observe(total);
        });
    }
}
