//! # drfrlx-bridge — the single-source program pipeline
//!
//! One IR, every consumer: a [`drfrlx_core::program::Program`] written
//! once can be checked axiomatically, enumerated by the streaming SC
//! checker, parsed/emitted as litmus text, *and* — through this crate —
//! executed on the `hsim-gpu` cycle simulator. The lowering that used
//! to live privately inside the conformance harness
//! (`drfrlx-conform::compile`) is promoted here and generalized from
//! "one single-thread block per litmus thread" to a parametric grid:
//! a `Program` whose threads are laid out block-major over a
//! `blocks × threads_per_block` grid, with an explicit location→address
//! map so kernels can pad locations to cache lines, and support for
//! the full instruction set including the block-level constructs
//! ([`Instr::Think`], [`Instr::Barrier`], [`Instr::ScratchLoad`],
//! [`Instr::ScratchStore`]).
//!
//! Two lowering modes:
//!
//! * [`ProgramKernel::litmus`] — the conformance-harness shape: one
//!   single-thread block per program thread, word `l` holds `Loc(l)`,
//!   every thread dumps its register file into a private observation
//!   window after its body, and every RMW consumes its result
//!   (`use_result: true`) so outcomes are deterministic functions of
//!   the interleaving alone.
//! * [`ProgramKernel::grid`] — the workload shape: threads block-major
//!   over the grid, a caller-supplied name→address layout, no
//!   observation dumps, and `use_result` computed by register liveness
//!   (an RMW whose destination is never read issues fire-and-forget,
//!   exactly like hand-written work items pass `use_result: false`).
//!   It is the whole-program case of [`GridBuilder`], which also takes
//!   a grid one thread at a time, each thread its own one-thread
//!   program lowered and dropped as soon as it is built, so a grid too
//!   large to unroll never exists as one `Program`.
//!
//! ## Lowered code
//!
//! Each distinct thread body is lowered once into a [`ThreadCode`]
//! that every work item running it shares; the source [`Instr`]s are
//! not kept. A body is one contiguous `Vec` of fixed-size instructions:
//!
//! * location addresses are resolved at lowering (`u32` words, so a
//!   kernel's memory must fit 32-bit addressing);
//! * an RMW carries its destination only when the result is used,
//!   which is its `use_result`;
//! * an operand that is a register or a constant fitting `i32` is
//!   stored inline; any other expression is a postfix run of 8-byte
//!   nodes in the body's arena, constants beyond `i32` in a side pool.
//!
//! A work item's state is a zero-initialised `i64` register file
//! (a register never written reads 0, exactly as
//! [`Expr::eval_slice`] reads it) followed by an evaluation stack sized
//! from the body's deepest postfix run. Operators apply through
//! [`BinOp::apply`], the definition the checker's evaluators use too.
//!
//! ## Value domains
//!
//! Litmus values are `i64`, the simulator's are `u64`; all lowering is
//! bit-pattern faithful (`as` casts). Every RMW — including
//! `FetchMin`/`FetchMax`, which both sides order as *signed* two's
//! complement — computes the same bit pattern in both domains, so a
//! compiled program and its axiomatic oracle can never diverge on
//! arithmetic alone.
//!
//! The [`templates`] module holds the shared program templates that
//! both the litmus corpus (scaled down) and the micro workloads
//! (scaled up) instantiate, so the two never hand-duplicate logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod templates;

use drfrlx_core::program::{BinOp, Expr, Instr, Loc, Program, Reg, RmwOp, Thread, Value};
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Op, RmwKind, WorkItem};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An instruction operand: inline when it is a register or a constant
/// fitting `i32`, otherwise a postfix run of `len` arena nodes.
#[derive(Debug, Clone, Copy)]
enum Operand {
    Const(i32),
    Reg(Reg),
    Expr { len: u16, start: u32 },
}

/// One postfix node. Leaves push a value; `Bin` pops two and pushes
/// `op(left, right)`.
#[derive(Debug, Clone, Copy)]
enum Node {
    Const(i32),
    /// A constant outside `i32`, by index into the body's pool.
    Wide(u32),
    Reg(Reg),
    Bin(BinOp),
}

/// One lowered instruction (see the crate docs, "Lowered code").
#[derive(Debug, Clone, Copy)]
enum Insn {
    /// A dependency or observation marker: no dynamic effect.
    Marker,
    Assign {
        dst: Reg,
        val: Operand,
    },
    JumpIfZero {
        cond: Operand,
        skip: u32,
    },
    Think(u32),
    Barrier,
    ScratchLoad {
        addr: Operand,
        dst: Reg,
    },
    ScratchStore {
        addr: Operand,
        val: Operand,
    },
    Load {
        class: OpClass,
        addr: u32,
        dst: Reg,
    },
    Store {
        class: OpClass,
        addr: u32,
        val: Operand,
    },
    /// `dst` is `None` when no later instruction reads the result.
    Rmw {
        class: OpClass,
        op: RmwOp,
        addr: u32,
        operand: Operand,
        operand2: Operand,
        dst: Option<Reg>,
    },
}

const _: () = assert!(std::mem::size_of::<Node>() == 8);
const _: () = assert!(std::mem::size_of::<Insn>() <= 28);

/// One lowered program thread, shared by every work item that runs it.
///
/// Aligned to two cache lines, so the `Arc` counts that every work
/// item's clone and drop write sit apart from the code and arena
/// headers that `next` reads on another worker, also under adjacent-line
/// prefetch (`align(128)` read 4 % above `align(64)` on `conform_fuzz`).
#[derive(Debug)]
#[repr(align(128))]
pub struct ThreadCode {
    code: Vec<Insn>,
    /// Postfix arena the `Operand::Expr` runs index.
    nodes: Vec<Node>,
    /// Constants outside `i32`, indexed by `Node::Wide`.
    wide: Vec<Value>,
    /// Dense register-file size (`0..reg_count`).
    reg_count: usize,
    /// Deepest evaluation stack any postfix run needs.
    depth: usize,
    /// Register-dump window base, when this thread observes its
    /// registers into memory after the body (litmus mode).
    obs_base: Option<u64>,
}

impl ThreadCode {
    /// Lower `t`, placing location `l` at word `addrs[l]`. With an
    /// observation window every register is read by the final dump, so
    /// every RMW result is used; otherwise an RMW's result is used iff
    /// a later instruction reads its destination.
    fn lower(t: &Thread, addrs: &[u32], obs_base: Option<u64>) -> ThreadCode {
        let reg_count = thread_reg_count(t);
        // One backward pass: `read[r]` = some later instruction reads r.
        // Exact under the builder's fresh-register discipline; a reused
        // destination only errs towards consuming a result.
        let mut read = vec![obs_base.is_some(); reg_count];
        let mut used = vec![false; t.instrs.len()];
        for (i, instr) in t.instrs.iter().enumerate().rev() {
            if let Instr::Rmw { dst, .. } = instr {
                used[i] = read[dst.0 as usize];
            }
            for_each_read(instr, &mut |r| read[r.0 as usize] = true);
        }
        let mut body = ThreadCode {
            code: Vec::with_capacity(t.instrs.len()),
            nodes: Vec::new(),
            wide: Vec::new(),
            reg_count,
            depth: 0,
            obs_base,
        };
        for (i, instr) in t.instrs.iter().enumerate() {
            let insn = match instr {
                Instr::BranchOn { .. } | Instr::Observe { .. } => Insn::Marker,
                Instr::Assign { dst, expr } => Insn::Assign { dst: *dst, val: body.operand(expr) },
                Instr::JumpIfZero { cond, skip } => Insn::JumpIfZero {
                    cond: body.operand(cond),
                    skip: u32::try_from(*skip).expect("jump fits 32 bits"),
                },
                Instr::Think { cycles } => Insn::Think(*cycles),
                Instr::Barrier => Insn::Barrier,
                Instr::ScratchLoad { addr, dst } => {
                    Insn::ScratchLoad { addr: body.operand(addr), dst: *dst }
                }
                Instr::ScratchStore { addr, val } => {
                    Insn::ScratchStore { addr: body.operand(addr), val: body.operand(val) }
                }
                Instr::Load { class, loc, dst } => {
                    Insn::Load { class: *class, addr: addrs[loc.0 as usize], dst: *dst }
                }
                Instr::Store { class, loc, val } => Insn::Store {
                    class: *class,
                    addr: addrs[loc.0 as usize],
                    val: body.operand(val),
                },
                Instr::Rmw { class, loc, op, operand, operand2, dst } => Insn::Rmw {
                    class: *class,
                    op: *op,
                    addr: addrs[loc.0 as usize],
                    operand: body.operand(operand),
                    operand2: body.operand(operand2),
                    dst: used[i].then_some(*dst),
                },
            };
            body.code.push(insn);
        }
        body
    }

    /// Lower an expression operand, inline when it is a leaf that fits.
    fn operand(&mut self, e: &Expr) -> Operand {
        match *e {
            Expr::Reg(r) => Operand::Reg(r),
            Expr::Const(c) if i32::try_from(c).is_ok() => Operand::Const(c as i32),
            _ => {
                let start = self.nodes.len();
                let depth = self.postfix(e);
                self.depth = self.depth.max(depth);
                Operand::Expr {
                    len: u16::try_from(self.nodes.len() - start)
                        .expect("expression of at most 65535 nodes"),
                    start: u32::try_from(start).expect("thread arena fits 32-bit indices"),
                }
            }
        }
    }

    /// Append `e` to the arena in postfix order; returns the stack
    /// depth evaluating it needs.
    fn postfix(&mut self, e: &Expr) -> usize {
        match e {
            Expr::Const(c) => {
                let node = self.leaf_const(*c);
                self.nodes.push(node);
                1
            }
            Expr::Reg(r) => {
                self.nodes.push(Node::Reg(*r));
                1
            }
            Expr::Bin(op, ab) => {
                let [a, b] = &**ab;
                let left = self.postfix(a);
                let right = self.postfix(b);
                self.nodes.push(Node::Bin(*op));
                left.max(1 + right)
            }
        }
    }

    /// A constant leaf: inline when it fits `i32`, else pooled.
    fn leaf_const(&mut self, c: Value) -> Node {
        i32::try_from(c).map(Node::Const).unwrap_or_else(|_| {
            self.wide.push(c);
            Node::Wide(u32::try_from(self.wide.len() - 1).expect("pool fits 32-bit indices"))
        })
    }

    /// Evaluate an operand. `file` is a work item's register file
    /// (`0..reg_count`) followed by its evaluation stack (`depth` words).
    fn eval(&self, op: Operand, file: &mut [Value]) -> Value {
        match op {
            Operand::Const(c) => c.into(),
            Operand::Reg(r) => file[r.0 as usize],
            Operand::Expr { len, start } => {
                let (regs, stack) = file.split_at_mut(self.reg_count);
                let start = start as usize;
                eval_postfix(&self.nodes[start..start + len as usize], &self.wide, regs, stack)
            }
        }
    }
}

/// Run a postfix run. The top of the stack lives in `top`; a push
/// spills the previous top (at first the unused 0) to `stack`, so a
/// run of depth `d` spills at most `d` words.
fn eval_postfix(nodes: &[Node], wide: &[Value], regs: &[Value], stack: &mut [Value]) -> Value {
    let mut top: Value = 0;
    let mut sp = 0;
    for &n in nodes {
        let v = match n {
            Node::Const(c) => c.into(),
            Node::Wide(i) => wide[i as usize],
            Node::Reg(r) => regs[r.0 as usize],
            Node::Bin(op) => {
                sp -= 1;
                top = op.apply(stack[sp], top);
                continue;
            }
        };
        stack[sp] = top;
        sp += 1;
        top = v;
    }
    top
}

/// A [`Program`] lowered onto the simulator grid.
///
/// Implements [`Kernel`]; thread `block * threads_per_block + thread`
/// of the grid runs program thread of the same index, interpreted by
/// [`ProgramItem`].
#[derive(Debug, Clone)]
pub struct ProgramKernel {
    name: String,
    blocks: usize,
    threads_per_block: usize,
    memory_words: usize,
    scratch_words: usize,
    /// Sparse non-zero initial memory (address, value).
    init: Vec<(u64, u64)>,
    /// Block-major: `cells[block * tpb + thread]`.
    cells: Vec<Arc<ThreadCode>>,
}

impl ProgramKernel {
    /// Lower `p` in the conformance-harness shape: one single-thread
    /// block per program thread, identity location addressing, a
    /// per-thread register-dump window after `num_locs`, RMW results
    /// always consumed.
    ///
    /// A program that uses the block-local facilities —
    /// [`Instr::Barrier`] or the scratch instructions — is placed in
    /// **one block** instead, because the axiomatic enumerator
    /// rendezvouses *all* program threads at a barrier and shares one
    /// scratch space between them; a single block is the grid shape
    /// with the same semantics (the engine's barrier and scratchpad
    /// are per block). Scratch is sized from the largest constant
    /// scratch address in the program.
    ///
    /// # Panics
    ///
    /// Panics if the program has no threads (nothing to simulate), if
    /// it addresses scratch through a non-constant expression (the
    /// litmus lowering cannot size the scratchpad for those; use
    /// [`ProgramKernel::grid`] with an explicit `scratch_words`), or if
    /// its memory does not fit 32-bit addressing.
    pub fn litmus(p: &Program) -> ProgramKernel {
        assert!(!p.threads().is_empty(), "cannot lower a program with no threads");
        let name = format!("conform_{}", p.name());
        let scratch_words = litmus_scratch_words(p);
        let one_block = scratch_words.is_some()
            || p.threads().iter().any(|t| t.instrs.iter().any(|i| matches!(i, Instr::Barrier)));
        let addrs: Vec<u32> = (0..p.num_locs() as u32).collect();
        let mut next = p.num_locs() as u64;
        let mut cells = Vec::with_capacity(p.threads().len());
        for t in p.threads() {
            let code = ThreadCode::lower(t, &addrs, Some(next));
            next += code.reg_count as u64;
            cells.push(Arc::new(code));
        }
        let memory_words = (next as usize).max(1);
        check_addressable(&name, memory_words);
        let init = (0..p.num_locs() as u32)
            .map(Loc)
            .filter(|&l| p.init_value(l) != 0)
            .map(|l| (l.0 as u64, p.init_value(l) as u64))
            .collect();
        let (blocks, threads_per_block) =
            if one_block { (1, p.threads().len()) } else { (p.threads().len(), 1) };
        ProgramKernel {
            name,
            blocks,
            threads_per_block,
            memory_words,
            scratch_words: scratch_words.unwrap_or(0),
            init,
            cells,
        }
    }

    /// Lower `p` in the workload shape: program thread `i` becomes grid
    /// thread `(i / tpb, i % tpb)`, locations are placed by `addr_of`
    /// (e.g. padded to cache lines), there are no observation dumps,
    /// and each RMW's `use_result` comes from register liveness.
    ///
    /// This is the whole-program case of [`GridBuilder`]; a grid too
    /// large to unroll into one program builds through that instead.
    ///
    /// # Panics
    ///
    /// Panics if the thread count is not `blocks * tpb` for some
    /// `blocks`, if `memory_words` does not fit 32-bit addressing, if
    /// a location's address falls outside `memory_words`, or if two
    /// locations at one address have different non-zero initial values.
    pub fn grid(
        p: &Program,
        tpb: usize,
        memory_words: usize,
        scratch_words: usize,
        addr_of: impl Fn(&str) -> u64,
    ) -> ProgramKernel {
        let layout: Vec<usize> = (0..p.threads().len()).collect();
        ProgramKernel::grid_with_layout(p, &layout, tpb, memory_words, scratch_words, addr_of)
    }

    /// Like [`ProgramKernel::grid`], but with an explicit replication
    /// layout: grid thread `i` runs program thread `layout[i]`. Grids
    /// that stamp out hundreds of identical bodies (every flags worker,
    /// every seqlock reader) build the program with one thread per
    /// *distinct* body and replicate it here, so the unrolled
    /// instruction stream is lowered exactly once.
    ///
    /// # Panics
    ///
    /// As [`ProgramKernel::grid`], and also if `layout` is empty or an
    /// entry indexes past the program's threads.
    pub fn grid_with_layout(
        p: &Program,
        layout: &[usize],
        tpb: usize,
        memory_words: usize,
        scratch_words: usize,
        addr_of: impl Fn(&str) -> u64,
    ) -> ProgramKernel {
        let mut grid = GridBuilder::new(p.name(), tpb, memory_words, scratch_words, addr_of);
        grid.lower(p, layout);
        grid.finish()
    }

    /// The lowered code grid thread `(block, thread)` runs. Threads
    /// with one body share one [`ThreadCode`].
    pub fn code(&self, block: usize, thread: usize) -> &Arc<ThreadCode> {
        &self.cells[block * self.threads_per_block + thread]
    }

    /// Per-thread dense register-file sizes.
    pub fn reg_counts(&self) -> Vec<usize> {
        self.cells.iter().map(|c| c.reg_count).collect()
    }

    /// Per-thread observation-window bases (litmus mode only).
    pub fn obs_bases(&self) -> Vec<usize> {
        self.cells.iter().filter_map(|c| c.obs_base.map(|b| b as usize)).collect()
    }

    /// Total memory words.
    pub fn memory_words(&self) -> usize {
        self.memory_words
    }

    /// Override the kernel's reported name.
    pub fn named(mut self, name: impl Into<String>) -> ProgramKernel {
        self.name = name.into();
        self
    }
}

/// Lowered instructions hold `u32` word addresses.
fn check_addressable(kernel: &str, memory_words: usize) {
    assert!(
        memory_words as u64 <= 1 << 32,
        "kernel {kernel}: {memory_words} memory words do not fit 32-bit addresses"
    );
}

/// Builds a [`ProgramKernel`] in the workload shape one grid thread at
/// a time, so no unrolled whole-grid [`Program`] is ever held.
///
/// [`GridBuilder::thread`] builds the next grid thread (block-major)
/// into its own one-thread program, places that program's locations
/// with `addr_of`, lowers it, keeps the lowered code and the non-zero
/// initial words, and drops the program. [`ProgramKernel::grid`] is
/// the same builder fed one whole program, so both produce the same
/// kernel for the same threads. Bodies are shared within one program
/// only: a grid that repeats a body builds it once and replicates it
/// with [`ProgramKernel::grid_with_layout`].
///
/// ```
/// # use drfrlx_bridge::GridBuilder;
/// # use drfrlx_core::{program::RmwOp, OpClass};
/// # use hsim_gpu::Kernel;
/// let mut grid = GridBuilder::new("bump", 2, 1, 0, |_| 0);
/// for _ in 0..4 {
///     grid.thread(|p| {
///         p.thread().rmw(OpClass::Commutative, "ctr", RmwOp::FetchAdd, 1);
///     });
/// }
/// let kernel = grid.finish();
/// assert_eq!((kernel.blocks(), kernel.threads_per_block()), (2, 2));
/// ```
pub struct GridBuilder<A> {
    name: String,
    tpb: usize,
    memory_words: usize,
    scratch_words: usize,
    addr_of: A,
    /// Non-zero initial memory by address.
    init: BTreeMap<u64, u64>,
    /// Grid threads so far, block-major.
    cells: Vec<Arc<ThreadCode>>,
}

impl<A: Fn(&str) -> u64> GridBuilder<A> {
    /// An empty grid of `tpb` threads per block over `memory_words`
    /// words of memory and `scratch_words` of scratchpad per block;
    /// `addr_of` places a location by name.
    ///
    /// # Panics
    ///
    /// Panics if `memory_words` does not fit 32-bit addressing.
    pub fn new(
        name: impl Into<String>,
        tpb: usize,
        memory_words: usize,
        scratch_words: usize,
        addr_of: A,
    ) -> GridBuilder<A> {
        let name = name.into();
        check_addressable(&name, memory_words);
        GridBuilder {
            name,
            tpb,
            memory_words,
            scratch_words,
            addr_of,
            init: BTreeMap::new(),
            cells: Vec::new(),
        }
    }

    /// Add the next grid thread: `build` emits exactly one thread into
    /// a fresh program, whose locations and initial values are this
    /// thread's alone.
    ///
    /// # Panics
    ///
    /// Panics if `build` leaves other than one thread, if a location's
    /// address falls outside memory, or if the thread gives an address
    /// a non-zero initial value that differs from one an earlier thread
    /// gave it.
    pub fn thread(&mut self, build: impl FnOnce(&mut Program)) {
        let mut p = Program::new(self.name.as_str());
        build(&mut p);
        assert_eq!(p.threads().len(), 1, "a grid thread is a one-thread program");
        self.lower(&p, &[0]);
    }

    /// Lower each distinct body of `p` once and append one grid thread
    /// per `layout` entry, running program thread `layout[i]`.
    fn lower(&mut self, p: &Program, layout: &[usize]) {
        let memory_words = self.memory_words;
        let addrs: Vec<u32> = (0..p.num_locs() as u32)
            .map(|l| {
                let a = (self.addr_of)(p.loc_name(Loc(l)));
                assert!(
                    (a as usize) < memory_words,
                    "location {} at address {a} outside memory ({memory_words} words)",
                    p.loc_name(Loc(l))
                );
                a as u32
            })
            .collect();
        for (l, &a) in addrs.iter().enumerate() {
            let v = p.init_value(Loc(l as u32)) as u64;
            if v == 0 {
                continue;
            }
            let old = *self.init.entry(a.into()).or_insert(v);
            assert!(
                old == v,
                "kernel {}: address {a} initialised to both {old} and {v}",
                self.name
            );
        }
        // Lower each distinct body once, sharing its ThreadCode even
        // when the program itself repeats bodies.
        let threads = p.threads();
        let mut distinct: Vec<(usize, Arc<ThreadCode>)> = Vec::new();
        let codes: Vec<Arc<ThreadCode>> = threads
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if let Some((_, c)) = distinct.iter().find(|(j, _)| threads[*j].instrs == t.instrs)
                {
                    return Arc::clone(c);
                }
                let c = Arc::new(ThreadCode::lower(t, &addrs, None));
                distinct.push((i, Arc::clone(&c)));
                c
            })
            .collect();
        self.cells.extend(layout.iter().map(|&i| {
            assert!(i < codes.len(), "layout entry {i} has no program thread");
            Arc::clone(&codes[i])
        }));
    }

    /// The finished kernel.
    ///
    /// # Panics
    ///
    /// Panics if no thread was added, or if the thread count is not a
    /// multiple of `tpb`.
    pub fn finish(self) -> ProgramKernel {
        let (n, tpb) = (self.cells.len(), self.tpb);
        assert!(n > 0, "cannot lower a program onto an empty grid");
        assert!(tpb > 0 && n.is_multiple_of(tpb), "grid size {n} is not a multiple of tpb {tpb}");
        ProgramKernel {
            name: self.name,
            blocks: n / tpb,
            threads_per_block: tpb,
            memory_words: self.memory_words,
            scratch_words: self.scratch_words,
            init: self.init.into_iter().collect(),
            cells: self.cells,
        }
    }
}

impl Kernel for ProgramKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn blocks(&self) -> usize {
        self.blocks
    }

    fn threads_per_block(&self) -> usize {
        self.threads_per_block
    }

    fn memory_words(&self) -> usize {
        self.memory_words
    }

    fn scratch_words(&self) -> usize {
        self.scratch_words
    }

    fn init_memory(&self, mem: &mut [u64]) {
        for &(a, v) in &self.init {
            mem[a as usize] = v;
        }
    }

    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        Box::new(ProgramItem::new(Arc::clone(self.code(block, thread))))
    }
}

/// A work item running one lowered program thread.
///
/// Local computation (assignments, markers, structured `if`s) runs inline;
/// memory, scratch, think and barrier instructions are yielded as
/// simulator [`Op`]s. Values delivered back through `last` land in the
/// register recorded in `pending` — the same protocol for global loads,
/// scratch loads and result-consuming RMWs.
pub struct ProgramItem {
    code: Arc<ThreadCode>,
    /// The register file (`0..reg_count`, zero-initialised: a register
    /// never written reads 0, like the axiomatic enumerator's
    /// [`Expr::eval_slice`]) followed by the evaluation stack.
    file: File,
    pc: usize,
    /// Register awaiting the value delivered as `last`.
    pending: Option<Reg>,
    /// Registers dumped so far in the observation phase.
    dumped: usize,
}

/// Register-file words a [`ProgramItem`] holds in its own box, so the
/// item is one allocation. Every thread of the conformance corpora
/// fits: the largest, the seqlock-retry template's reader, has 16
/// registers and a three-word stack.
const INLINE_FILE: usize = 19;

/// A register file: inline when registers plus stack fit
/// [`INLINE_FILE`] words, else on the heap.
enum File {
    Inline([Value; INLINE_FILE]),
    Heap(Vec<Value>),
}

impl ProgramItem {
    /// A fresh item at the top of `code`.
    pub fn new(code: Arc<ThreadCode>) -> ProgramItem {
        let words = code.reg_count + code.depth;
        let file = if words <= INLINE_FILE {
            File::Inline([0; INLINE_FILE])
        } else {
            File::Heap(vec![0; words])
        };
        ProgramItem { code, file, pc: 0, pending: None, dumped: 0 }
    }
}

impl WorkItem for ProgramItem {
    fn next(&mut self, last: Option<u64>) -> Op {
        let ProgramItem { code, file, pc, pending, dumped } = self;
        let file: &mut [Value] = match file {
            File::Inline(words) => words,
            File::Heap(words) => words,
        };
        if let Some(dst) = pending.take() {
            let v = last.expect("memory op with a destination returns a value");
            file[dst.0 as usize] = v as Value;
        }
        let code = &**code;
        while let Some(&insn) = code.code.get(*pc) {
            *pc += 1;
            match insn {
                Insn::Marker => {}
                Insn::Assign { dst, val } => {
                    file[dst.0 as usize] = code.eval(val, file);
                }
                Insn::JumpIfZero { cond, skip } => {
                    if code.eval(cond, file) == 0 {
                        *pc += skip as usize;
                    }
                }
                Insn::Think(cycles) => return Op::Think(cycles),
                Insn::Barrier => return Op::Barrier,
                Insn::ScratchLoad { addr, dst } => {
                    *pending = Some(dst);
                    return Op::ScratchLoad { addr: code.eval(addr, file) as u64 };
                }
                Insn::ScratchStore { addr, val } => {
                    return Op::ScratchStore {
                        addr: code.eval(addr, file) as u64,
                        value: code.eval(val, file) as u64,
                    };
                }
                Insn::Load { class, addr, dst } => {
                    *pending = Some(dst);
                    return Op::Load { addr: addr.into(), class };
                }
                Insn::Store { class, addr, val } => {
                    return Op::Store {
                        addr: addr.into(),
                        value: code.eval(val, file) as u64,
                        class,
                    };
                }
                Insn::Rmw { class, op, addr, operand, operand2, dst } => {
                    let k = code.eval(operand, file);
                    let k2 = code.eval(operand2, file);
                    *pending = dst;
                    return Op::Rmw {
                        addr: addr.into(),
                        rmw: lower_rmw(op, k2),
                        operand: k as u64,
                        class,
                        use_result: dst.is_some(),
                    };
                }
            }
        }
        // Body done. In litmus mode, dump the register file into the
        // observation window, then retire. Plain data stores to
        // thread-private words — racing with nothing, invisible to
        // other threads.
        if let Some(base) = code.obs_base {
            if *dumped < code.reg_count {
                let r = *dumped;
                *dumped += 1;
                return Op::Store {
                    addr: base + r as u64,
                    value: file[r] as u64,
                    class: OpClass::Data,
                };
            }
        }
        Op::Done
    }
}

/// Registers an instruction *reads* (register operands of expressions;
/// destinations are writes, not reads).
fn for_each_read(i: &Instr, f: &mut impl FnMut(Reg)) {
    match i {
        Instr::Load { .. } | Instr::Think { .. } | Instr::Barrier => {}
        Instr::Store { val, .. } => val.for_each_reg(f),
        Instr::Rmw { operand, operand2, .. } => {
            operand.for_each_reg(f);
            operand2.for_each_reg(f);
        }
        Instr::Assign { expr, .. } => expr.for_each_reg(f),
        Instr::BranchOn { cond } | Instr::JumpIfZero { cond, .. } => cond.for_each_reg(f),
        Instr::Observe { expr } => expr.for_each_reg(f),
        Instr::ScratchLoad { addr, .. } => addr.for_each_reg(f),
        Instr::ScratchStore { addr, val } => {
            addr.for_each_reg(f);
            val.for_each_reg(f);
        }
    }
}

/// The register an instruction writes, if any.
fn write_of(i: &Instr) -> Option<Reg> {
    match i {
        Instr::Load { dst, .. }
        | Instr::Rmw { dst, .. }
        | Instr::Assign { dst, .. }
        | Instr::ScratchLoad { dst, .. } => Some(*dst),
        Instr::Store { .. }
        | Instr::BranchOn { .. }
        | Instr::Observe { .. }
        | Instr::JumpIfZero { .. }
        | Instr::Think { .. }
        | Instr::Barrier
        | Instr::ScratchStore { .. } => None,
    }
}

/// Scratchpad size for the litmus lowering: one past the largest
/// constant scratch address, or `None` when the program never touches
/// scratch.
///
/// # Panics
///
/// Panics on a non-constant scratch address — the litmus lowering has
/// no geometry to bound it with.
fn litmus_scratch_words(p: &Program) -> Option<usize> {
    let bound = |e: &Expr| match e {
        Expr::Const(c) if *c >= 0 => *c as usize + 1,
        _ => panic!(
            "litmus lowering of {} requires constant scratch addresses, found {e:?}",
            p.name()
        ),
    };
    let mut words = None;
    for t in p.threads() {
        for i in &t.instrs {
            if let Instr::ScratchLoad { addr, .. } | Instr::ScratchStore { addr, .. } = i {
                words = Some(bound(addr).max(words.unwrap_or(0)));
            }
        }
    }
    words
}

/// Highest register index a thread writes or reads, plus one.
pub fn thread_reg_count(t: &Thread) -> usize {
    let mut max: Option<u16> = None;
    let mut see = |r: Reg| max = Some(max.map_or(r.0, |m: u16| m.max(r.0)));
    for i in &t.instrs {
        for_each_read(i, &mut see);
        if let Some(r) = write_of(i) {
            see(r);
        }
    }
    max.map_or(0, |m| m as usize + 1)
}

/// Map a litmus RMW to the simulator's (same modify function in both
/// value domains; min/max order signed on both sides).
pub fn lower_rmw(op: RmwOp, expected: i64) -> RmwKind {
    match op {
        RmwOp::FetchAdd => RmwKind::Add,
        RmwOp::FetchSub => RmwKind::Sub,
        RmwOp::FetchAnd => RmwKind::And,
        RmwOp::FetchOr => RmwKind::Or,
        RmwOp::FetchXor => RmwKind::Xor,
        RmwOp::FetchMin => RmwKind::Min,
        RmwOp::FetchMax => RmwKind::Max,
        RmwOp::Exchange => RmwKind::Exchange,
        RmwOp::Cas => RmwKind::Cas { expected: expected as u64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::program::RmwOp;
    use hsim_gpu::{run_kernel, EngineParams, MemoryBackend};

    /// Zero-latency functional backend for lowering-only tests.
    struct Instant;
    impl MemoryBackend for Instant {
        fn load(&mut self, now: u64, _cu: usize, _a: u64, _at: bool) -> u64 {
            now + 1
        }
        fn store(&mut self, now: u64, _cu: usize, _a: u64, _at: bool) -> u64 {
            now + 1
        }
        fn rmw(&mut self, now: u64, _cu: usize, _a: u64) -> u64 {
            now + 1
        }
        fn acquire(&mut self, now: u64, _cu: usize) -> u64 {
            now
        }
        fn release(&mut self, now: u64, _cu: usize) -> u64 {
            now
        }
    }

    #[test]
    fn grid_lowering_places_locations_and_infers_use_result() {
        // Two threads in one block bump a padded counter; the second
        // thread also reads its own RMW result into a data store.
        let mut p = Program::new("grid");
        {
            let mut t = p.thread();
            t.rmw(OpClass::Commutative, "ctr", RmwOp::FetchAdd, 1);
        }
        {
            let mut t = p.thread();
            let old = t.rmw(OpClass::Commutative, "ctr", RmwOp::FetchAdd, 1);
            t.store(OpClass::Data, "out", old);
        }
        let p = p.build();
        let k = ProgramKernel::grid(&p, 2, 32, 0, |n| match n {
            "ctr" => 16,
            "out" => 17,
            _ => unreachable!(),
        });
        assert_eq!(k.blocks(), 1);
        assert_eq!(k.threads_per_block(), 2);
        // Thread 0's RMW result is dead, thread 1's is live.
        for (thread, live) in [(0, false), (1, true)] {
            match k.item(0, thread).next(None) {
                Op::Rmw { addr: 16, use_result, .. } => assert_eq!(use_result, live),
                op => panic!("thread {thread} issued {op:?}, expected its RMW first"),
            }
        }
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[16], 2, "both increments landed at the padded address");
        assert!(r.memory[17] == 0 || r.memory[17] == 1, "old value stored");
    }

    #[test]
    fn block_constructs_lower_to_simulator_ops() {
        // Each of two threads publishes into scratch, meets at the
        // barrier, then thread 0 sums the scratch words into memory.
        let mut p = Program::new("scratch");
        {
            let mut t = p.thread();
            t.scratch_store(0, 7);
            t.think(3);
            t.barrier();
            let a = t.scratch_load(0);
            let b = t.scratch_load(1);
            t.store(
                OpClass::Data,
                "sum",
                drfrlx_core::program::Expr::bin(
                    drfrlx_core::program::BinOp::Add,
                    a.into(),
                    b.into(),
                ),
            );
        }
        {
            let mut t = p.thread();
            t.scratch_store(1, 5);
            t.barrier();
        }
        let p = p.build();
        let k = ProgramKernel::grid(&p, 2, 4, 2, |n| match n {
            "sum" => 0,
            _ => unreachable!(),
        });
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[0], 12, "barrier ordered the scratch publication");
        assert_eq!(r.scratch_accesses, 4);
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn litmus_lowering_of_block_constructs_uses_one_block() {
        // Same shape as `block_constructs_lower_to_simulator_ops`, but
        // through the litmus lowering: the barrier forces a single
        // block (the enumerator rendezvouses all program threads), and
        // scratch is sized from the largest constant address.
        let mut p = Program::new("scratch");
        {
            let mut t = p.thread();
            t.scratch_store(0, 7);
            t.think(3);
            t.barrier();
            let a = t.scratch_load(0);
            let b = t.scratch_load(1);
            t.store(
                OpClass::Data,
                "sum",
                drfrlx_core::program::Expr::bin(
                    drfrlx_core::program::BinOp::Add,
                    a.into(),
                    b.into(),
                ),
            );
        }
        {
            let mut t = p.thread();
            t.scratch_store(1, 5);
            t.barrier();
        }
        let p = p.build();
        let k = ProgramKernel::litmus(&p);
        assert_eq!(k.blocks(), 1);
        assert_eq!(k.threads_per_block(), 2);
        assert_eq!(k.scratch_words(), 2);
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[0], 12, "barrier ordered the scratch publication");
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn litmus_lowering_dumps_registers() {
        let mut p = Program::new("t");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 5);
            let r = t.rmw(OpClass::Commutative, "x", RmwOp::FetchAdd, 2);
            t.observe(r);
        }
        let p = p.build();
        let k = ProgramKernel::litmus(&p);
        assert_eq!(k.reg_counts(), vec![1]);
        assert_eq!(k.obs_bases(), vec![1]);
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[0], 7, "x = 5 then fadd 2");
        assert_eq!(r.memory[1], 5, "RMW returned the old value");
    }
    #[test]
    #[should_panic(expected = "kernel huge: ")]
    fn memory_beyond_32_bit_addressing_is_refused_at_lowering() {
        let mut p = Program::new("huge");
        p.thread().store(OpClass::Data, "x", 1);
        ProgramKernel::grid(&p.build(), 1, usize::MAX, 0, |_| 0);
    }

    #[test]
    fn repeated_bodies_share_one_lowered_code() {
        let mut p = Program::new("repeat");
        for loc in ["x", "y", "x"] {
            p.thread().rmw(OpClass::Commutative, loc, RmwOp::FetchAdd, 1);
        }
        let k = ProgramKernel::grid(&p.build(), 3, 2, 0, |n| u64::from(n == "y"));
        assert!(Arc::ptr_eq(k.code(0, 0), k.code(0, 2)));
        assert!(!Arc::ptr_eq(k.code(0, 0), k.code(0, 1)));
    }

    /// Two grid threads, each a one-thread program that stores to `x`
    /// with `x` initialised to `inits[i]`, every location at word 3.
    fn two_initialising_threads(inits: [Value; 2]) -> ProgramKernel {
        let mut grid = GridBuilder::new("init", 2, 4, 0, |_| 3);
        for v in inits {
            grid.thread(|p| {
                p.thread().store(OpClass::Data, "x", 1);
                p.set_init("x", v);
            });
        }
        grid.finish()
    }

    #[test]
    fn threads_may_repeat_an_initial_value() {
        let k = two_initialising_threads([5, 5]);
        assert_eq!(k.init, vec![(3, 5)]);
    }

    #[test]
    #[should_panic(expected = "kernel init: address 3 initialised to both 5 and 6")]
    fn threads_that_disagree_on_an_initial_value_panic() {
        two_initialising_threads([5, 6]);
    }

    /// SplitMix64, for the seeded evaluator test.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    const OPS: [BinOp; 10] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Min,
        BinOp::Max,
    ];

    /// Constants at and beyond the `i32` limits, the `i64` extremes,
    /// and small values that make `Eq`/`Lt` go both ways.
    const EDGES: [Value; 11] = [
        0,
        1,
        -1,
        i32::MAX as Value,
        i32::MIN as Value,
        i32::MAX as Value + 1,
        i32::MIN as Value - 1,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
    ];

    /// Registers `0..REGS`; a random subset is never written.
    const REGS: u16 = 12;

    fn leaf(rng: &mut Rng) -> Expr {
        match rng.below(3) {
            0 => Expr::Reg(Reg(rng.below(REGS as usize) as u16)),
            1 => Expr::Const(EDGES[rng.below(EDGES.len())]),
            _ => Expr::Const(rng.next() as Value >> rng.below(64)),
        }
    }

    fn random_expr(rng: &mut Rng, depth: usize) -> Expr {
        if depth == 0 || rng.below(4) == 0 {
            return leaf(rng);
        }
        let op = OPS[rng.below(OPS.len())];
        Expr::bin(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    }

    /// `((l0 op l1) op l2) ...`, the shape of the templates' `fold_regs`.
    fn left_deep(rng: &mut Rng, terms: usize) -> Expr {
        let op = OPS[rng.below(OPS.len())];
        (1..terms).fold(leaf(rng), |acc, _| Expr::bin(op, acc, leaf(rng)))
    }

    /// `l0 op (l1 op (l2 ...))`: every term waits on the stack.
    fn right_deep(rng: &mut Rng, terms: usize) -> Expr {
        let op = OPS[rng.below(OPS.len())];
        (1..terms).fold(leaf(rng), |acc, _| Expr::bin(op, leaf(rng), acc))
    }

    #[test]
    fn compact_evaluator_matches_eval_slice() {
        let mut rng = Rng(0x5EED_0019);
        let mut seen = [false; OPS.len()];
        for round in 0..200 {
            // Each round is one thread: assignments to a random subset
            // of the registers, then one data store per expression,
            // so all expressions share the thread's arena and stack.
            let regs: Vec<Option<Value>> = (0..REGS)
                .map(|_| {
                    (rng.below(3) != 0).then(|| EDGES[rng.below(EDGES.len())] ^ rng.next() as Value)
                })
                .collect();
            let shallow = 2 + rng.below(8);
            let mut exprs = vec![left_deep(&mut rng, 32), right_deep(&mut rng, shallow)];
            exprs.extend((0..8).map(|_| random_expr(&mut rng, 6)));
            if round % 50 == 0 {
                // Deeper than any fixed 64-slot stack.
                exprs.push(right_deep(&mut rng, 300));
            }
            let mut instrs: Vec<Instr> = regs
                .iter()
                .enumerate()
                .filter_map(|(r, v)| {
                    v.map(|v| Instr::Assign { dst: Reg(r as u16), expr: v.into() })
                })
                .collect();
            let mut p = Program::new("eval");
            let x = p.intern("x");
            instrs.extend(exprs.iter().map(|e| Instr::Store {
                class: OpClass::Data,
                loc: x,
                val: e.clone(),
            }));
            // Read the last register so the file spans all of them.
            instrs.push(Instr::Observe { expr: Expr::Reg(Reg(REGS - 1)) });
            p.push_thread(Thread { instrs });
            let k = ProgramKernel::grid(&p.build(), 1, 1, 0, |_| 0);
            let mut item = k.item(0, 0);
            for e in &exprs {
                let want = e.eval_slice(&regs) as u64;
                match item.next(None) {
                    Op::Store { value, .. } => assert_eq!(value, want, "round {round}: {e:?}"),
                    op => panic!("round {round}: expected a store, got {op:?}"),
                }
                mark_ops(e, &mut seen);
            }
            assert_eq!(item.next(None), Op::Done);
        }
        assert!(seen.iter().all(|&s| s), "every BinOp exercised: {seen:?}");
    }

    fn mark_ops(e: &Expr, seen: &mut [bool; OPS.len()]) {
        if let Expr::Bin(op, ab) = e {
            seen[OPS.iter().position(|o| o == op).unwrap()] = true;
            ab.iter().for_each(|x| mark_ops(x, seen));
        }
    }
}
