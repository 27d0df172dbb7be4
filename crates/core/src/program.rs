//! Litmus-program representation.
//!
//! Programs are collections of straight-line threads over a set of named
//! shared locations. Threads compute with registers; loads write
//! registers, store/RMW operands are register expressions, and a
//! [`ThreadBuilder::branch_on`] marker induces control dependencies on
//! everything that follows it (the Herd `ctrl` relation). This is the
//! same shape of program Herd litmus tests use, which is what the
//! paper's Listing 7 model operates on.

use crate::classes::OpClass;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A shared memory location, interned by [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u32);

/// A per-thread register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

/// The value domain of litmus programs.
pub type Value = i64;

/// A register expression: the right-hand side of stores, RMW operands,
/// assignments and branch conditions.
///
/// An expression is a tree of 16-byte nodes: a [`Expr::Bin`] keeps its
/// two operands in one boxed pair, so building a node costs one heap
/// allocation and a leaf none. Building the histogram H's grid kernel
/// makes about 360,000 `Bin` nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(Value),
    /// A register read.
    Reg(Reg),
    /// A binary operation over its left and right operands.
    Bin(BinOp, Box<[Expr; 2]>),
}

const _: () = assert!(size_of::<Expr>() == 16);

/// Binary operators available in [`Expr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Equality (1 or 0).
    Eq,
    /// Inequality (1 or 0).
    Ne,
    /// Signed less-than (1 or 0).
    Lt,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Apply the operator. The one definition every evaluator shares —
    /// [`Expr::eval`], [`Expr::eval_slice`] and the simulator-side
    /// lowering — so checker and simulator cannot disagree on
    /// arithmetic.
    #[inline]
    pub fn apply(self, a: Value, b: Value) -> Value {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => (a == b) as Value,
            BinOp::Ne => (a != b) as Value,
            BinOp::Lt => (a < b) as Value,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

impl Expr {
    /// Evaluate under a register file.
    pub fn eval(&self, regs: &BTreeMap<Reg, Value>) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Reg(r) => *regs.get(r).unwrap_or(&0),
            Expr::Bin(op, ab) => {
                let [a, b] = &**ab;
                op.apply(a.eval(regs), b.eval(regs))
            }
        }
    }

    /// Registers this expression reads, appended to `out`.
    pub fn regs_read(&self, out: &mut Vec<Reg>) {
        match self {
            Expr::Const(_) => {}
            Expr::Reg(r) => out.push(*r),
            Expr::Bin(_, ab) => {
                let [a, b] = &**ab;
                a.regs_read(out);
                b.regs_read(out);
            }
        }
    }

    /// Visit every register read, without allocating (the streaming
    /// enumerator's hot-loop alternative to [`Expr::regs_read`]).
    pub fn for_each_reg(&self, f: &mut impl FnMut(Reg)) {
        match self {
            Expr::Const(_) => {}
            Expr::Reg(r) => f(*r),
            Expr::Bin(_, ab) => {
                let [a, b] = &**ab;
                a.for_each_reg(f);
                b.for_each_reg(f);
            }
        }
    }

    /// Evaluate against a dense register file (`None` = never written,
    /// which reads as 0 exactly like the map-based [`Expr::eval`]).
    pub fn eval_slice(&self, regs: &[Option<Value>]) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Reg(r) => regs.get(r.0 as usize).copied().flatten().unwrap_or(0),
            Expr::Bin(op, ab) => {
                let [a, b] = &**ab;
                op.apply(a.eval_slice(regs), b.eval_slice(regs))
            }
        }
    }

    /// Shorthand for `Expr::Bin(op, Box::new([a, b]))`.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new([a, b]))
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Expr {
        Expr::Const(v)
    }
}

impl From<Reg> for Expr {
    fn from(r: Reg) -> Expr {
        Expr::Reg(r)
    }
}

/// Read-modify-write operations.
///
/// The loaded (old) value is returned into the destination register; the
/// written value is a function of the old value and the operand(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// `new = old + operand`.
    FetchAdd,
    /// `new = old - operand`.
    FetchSub,
    /// `new = old & operand`.
    FetchAnd,
    /// `new = old | operand`.
    FetchOr,
    /// `new = old ^ operand`.
    FetchXor,
    /// `new = min(old, operand)`.
    FetchMin,
    /// `new = max(old, operand)`.
    FetchMax,
    /// `new = operand` (atomic exchange).
    Exchange,
    /// Compare-and-swap: `new = if old == expected { operand } else { old }`.
    /// The `expected` value is the instruction's second operand.
    Cas,
}

impl RmwOp {
    /// Apply the operation: `(old, operand, operand2) -> new`.
    pub fn apply(self, old: Value, operand: Value, operand2: Value) -> Value {
        match self {
            RmwOp::FetchAdd => old.wrapping_add(operand),
            RmwOp::FetchSub => old.wrapping_sub(operand),
            RmwOp::FetchAnd => old & operand,
            RmwOp::FetchOr => old | operand,
            RmwOp::FetchXor => old ^ operand,
            RmwOp::FetchMin => old.min(operand),
            RmwOp::FetchMax => old.max(operand),
            RmwOp::Exchange => operand,
            RmwOp::Cas => {
                if old == operand2 {
                    operand
                } else {
                    old
                }
            }
        }
    }
}

/// One thread instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = load(class, loc)`.
    Load {
        /// Operation class annotation.
        class: OpClass,
        /// Target location.
        loc: Loc,
        /// Register receiving the loaded value.
        dst: Reg,
    },
    /// `store(class, loc, val)`.
    Store {
        /// Operation class annotation.
        class: OpClass,
        /// Target location.
        loc: Loc,
        /// Stored value.
        val: Expr,
    },
    /// `dst = rmw(class, loc, op, operand[, operand2])`, atomically.
    Rmw {
        /// Operation class annotation.
        class: OpClass,
        /// Target location.
        loc: Loc,
        /// Modify function.
        op: RmwOp,
        /// Primary operand.
        operand: Expr,
        /// Secondary operand (CAS `expected`); `Const(0)` otherwise.
        operand2: Expr,
        /// Register receiving the *old* value.
        dst: Reg,
    },
    /// Local computation `dst = expr` (no memory event; propagates
    /// data dependencies).
    Assign {
        /// Destination register.
        dst: Reg,
        /// Computed expression.
        expr: Expr,
    },
    /// Control-dependency marker: every later memory operation in this
    /// thread control-depends on the registers `cond` reads (Herd's
    /// `ctrl`). Does not change control flow — litmus programs are the
    /// unrolled path of interest.
    BranchOn {
        /// Condition whose source registers induce the dependency.
        cond: Expr,
    },
    /// Observation marker: the loads feeding `expr` are "used by another
    /// instruction in the thread" (paper §3.2.3 / §3.5.3). Herd
    /// approximates observability with `addr | data | ctrl` dependencies
    /// into later memory accesses; `Observe` additionally covers uses
    /// that a litmus test would express as a final-state condition.
    Observe {
        /// Expression whose source loads become observed.
        expr: Expr,
    },
    /// Structured conditional: if `cond` evaluates to zero, skip the
    /// next `skip` instructions. Emitted by [`ThreadBuilder::if_nz`];
    /// only forward skips are expressible, so threads always terminate.
    /// Like [`Instr::BranchOn`], induces control dependencies from the
    /// loads feeding `cond` onto all later memory operations.
    JumpIfZero {
        /// Branch condition.
        cond: Expr,
        /// Number of following instructions skipped when `cond == 0`.
        skip: usize,
    },
    /// Simulator timing hint: `cycles` of local busy work. Axiomatic
    /// no-op — produces no memory event, so it is invisible to the
    /// race axioms; operationally it delays the thread's next issue.
    Think {
        /// Busy cycles consumed when simulated.
        cycles: u32,
    },
    /// Block-level barrier. Every thread of the program arrives, then
    /// all proceed together. For the race axioms this is a
    /// synchronization edge: every event before the barrier
    /// happens-before every event after it, across all threads. Each
    /// thread must execute the same number of barriers (unequal counts
    /// deadlock and are rejected during enumeration).
    Barrier,
    /// `dst = scratch[addr]` — read the block-shared scratchpad.
    /// Scratch is invisible to the race axioms; programs must keep
    /// scratch accesses from different threads to the same slot
    /// separated by a [`Instr::Barrier`] (the enumerator enforces this
    /// discipline and rejects scratch races).
    ScratchLoad {
        /// Scratch slot address expression (evaluated locally).
        addr: Expr,
        /// Register receiving the slot value (0 if never written).
        dst: Reg,
    },
    /// `scratch[addr] = val` — write the block-shared scratchpad. See
    /// [`Instr::ScratchLoad`] for the race-freedom discipline.
    ScratchStore {
        /// Scratch slot address expression (evaluated locally).
        addr: Expr,
        /// Stored value.
        val: Expr,
    },
}

impl Instr {
    /// The memory location accessed, if this is a memory instruction.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Instr::Load { loc, .. } | Instr::Store { loc, .. } | Instr::Rmw { loc, .. } => {
                Some(*loc)
            }
            _ => None,
        }
    }

    /// The class annotation, if this is a memory instruction.
    pub fn class(&self) -> Option<OpClass> {
        match self {
            Instr::Load { class, .. } | Instr::Store { class, .. } | Instr::Rmw { class, .. } => {
                Some(*class)
            }
            _ => None,
        }
    }

    /// Is this a memory instruction (produces a dynamic event)?
    pub fn is_memory(&self) -> bool {
        self.loc().is_some()
    }
}

/// A straight-line thread: a sequence of instructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Thread {
    /// Instructions in program order.
    pub instrs: Vec<Instr>,
}

/// FNV-1a, the location index's hasher: location names are a few
/// bytes long, and SipHash's per-lookup setup costs more than hashing
/// them. Programs are built from trusted templates and files, so the
/// index needs no protection from chosen collisions.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// A whole litmus program.
///
/// Locations are interned: [`Program::intern`] hands out [`Loc`]s in
/// first-seen order. Each name is allocated once and shared by the
/// name table and its hash index, so interning a new name costs one
/// allocation (plus amortized table growth) and a repeated one none.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    threads: Vec<Thread>,
    /// Location names by [`Loc`] index.
    locs: Vec<Arc<str>>,
    /// Name → index of `locs`, sharing `locs`' strings.
    loc_index: HashMap<Arc<str>, u32, BuildHasherDefault<Fnv1a>>,
    init: BTreeMap<Loc, Value>,
}

impl Program {
    /// Start building a program. Use [`Program::thread`] to add threads
    /// and [`Program::build`] (a no-op finisher kept for readability) to
    /// obtain the final program.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            threads: Vec::new(),
            locs: Vec::new(),
            loc_index: HashMap::default(),
            init: BTreeMap::new(),
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Threads of the program.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Number of shared locations mentioned.
    pub fn num_locs(&self) -> usize {
        self.locs.len()
    }

    /// Name of a location.
    pub fn loc_name(&self, loc: Loc) -> &str {
        &self.locs[loc.0 as usize]
    }

    /// Initial value of a location (0 unless set with
    /// [`Program::set_init`]).
    pub fn init_value(&self, loc: Loc) -> Value {
        *self.init.get(&loc).unwrap_or(&0)
    }

    /// Set the initial value of a location.
    pub fn set_init(&mut self, loc: &str, v: Value) {
        let l = self.intern(loc);
        self.init.insert(l, v);
    }

    /// Intern a location name: the [`Loc`] it was given before, or the
    /// next index for a name not seen yet.
    pub fn intern(&mut self, name: &str) -> Loc {
        if let Some(&i) = self.loc_index.get(name) {
            return Loc(i);
        }
        let i = u32::try_from(self.locs.len()).expect("at most 2^32 locations");
        let name: Arc<str> = Arc::from(name);
        self.loc_index.insert(Arc::clone(&name), i);
        self.locs.push(name);
        Loc(i)
    }

    /// Look up an already-interned location.
    pub fn find_loc(&self, name: &str) -> Option<Loc> {
        self.loc_index.get(name).map(|&i| Loc(i))
    }

    /// Append a prebuilt thread body (program templates emit `Thread`
    /// values directly when they need forward jump patching that the
    /// structured builder cannot express).
    pub fn push_thread(&mut self, t: Thread) {
        self.threads.push(t);
    }

    /// Add a thread and return its builder.
    pub fn thread(&mut self) -> ThreadBuilder<'_> {
        self.threads.push(Thread::default());
        let idx = self.threads.len() - 1;
        ThreadBuilder { program: self, idx, next_reg: 0 }
    }

    /// Finish building. Consumes nothing; exists so call sites read
    /// naturally (`p.build()`), and validates basic well-formedness.
    ///
    /// # Panics
    ///
    /// Panics if the program has no threads or a thread writes a
    /// register it also uses before definition — both indicate test bugs.
    pub fn build(self) -> Program {
        assert!(!self.threads.is_empty(), "program {} has no threads", self.name);
        self
    }

    /// Total number of memory instructions across all threads.
    pub fn memory_op_count(&self) -> usize {
        self.threads.iter().map(|t| t.instrs.iter().filter(|i| i.is_memory()).count()).sum()
    }

    /// Classes used anywhere in the program.
    pub fn classes_used(&self) -> Vec<OpClass> {
        let mut out: Vec<OpClass> = Vec::new();
        for t in &self.threads {
            for i in &t.instrs {
                if let Some(c) = i.class() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Replace the thread list wholesale (used by annotation inference
    /// to edit a single instruction's class).
    pub(crate) fn replace_threads(&mut self, threads: Vec<Thread>) {
        self.threads = threads;
    }

    /// A copy of this program with its thread list replaced — name,
    /// locations and initial values are kept. Used by the conformance
    /// shrinker to delta-debug a disagreeing program.
    pub fn with_threads(&self, threads: Vec<Thread>) -> Program {
        let mut p = self.clone();
        p.threads = threads;
        p
    }

    /// Rewrite every memory operation's class through `f` — used by the
    /// checkers to view a DRFrlx program through DRF0/DRF1 eyes.
    pub fn map_classes(&self, f: impl Fn(OpClass) -> OpClass) -> Program {
        let mut p = self.clone();
        for t in &mut p.threads {
            for i in &mut t.instrs {
                match i {
                    Instr::Load { class, .. }
                    | Instr::Store { class, .. }
                    | Instr::Rmw { class, .. } => *class = f(*class),
                    _ => {}
                }
            }
        }
        p
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} ({} threads)", self.name, self.threads.len())
    }
}

/// Fluent builder for a single thread. Obtained from [`Program::thread`].
///
/// Each memory helper returns the destination register (for loads/RMWs)
/// so values can be threaded into later expressions.
#[derive(Debug)]
pub struct ThreadBuilder<'p> {
    program: &'p mut Program,
    idx: usize,
    next_reg: u16,
}

impl<'p> ThreadBuilder<'p> {
    fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn push(&mut self, i: Instr) {
        self.program.threads[self.idx].instrs.push(i);
    }

    /// `r = load(class, loc)`; returns `r`.
    pub fn load(&mut self, class: OpClass, loc: &str) -> Reg {
        let loc = self.program.intern(loc);
        let dst = self.fresh_reg();
        self.push(Instr::Load { class, loc, dst });
        dst
    }

    /// `store(class, loc, val)`.
    pub fn store(&mut self, class: OpClass, loc: &str, val: impl Into<Expr>) -> &mut Self {
        let loc = self.program.intern(loc);
        self.push(Instr::Store { class, loc, val: val.into() });
        self
    }

    /// `r = rmw(class, loc, op, operand)`; returns `r` (the old value).
    pub fn rmw(&mut self, class: OpClass, loc: &str, op: RmwOp, operand: impl Into<Expr>) -> Reg {
        let loc = self.program.intern(loc);
        let dst = self.fresh_reg();
        self.push(Instr::Rmw {
            class,
            loc,
            op,
            operand: operand.into(),
            operand2: Expr::Const(0),
            dst,
        });
        dst
    }

    /// Compare-and-swap: writes `new` if the location holds `expected`;
    /// returns the register holding the old value.
    pub fn cas(
        &mut self,
        class: OpClass,
        loc: &str,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
    ) -> Reg {
        let loc = self.program.intern(loc);
        let dst = self.fresh_reg();
        self.push(Instr::Rmw {
            class,
            loc,
            op: RmwOp::Cas,
            operand: new.into(),
            operand2: expected.into(),
            dst,
        });
        dst
    }

    /// Local computation `r = expr`; returns `r`.
    pub fn assign(&mut self, expr: impl Into<Expr>) -> Reg {
        let dst = self.fresh_reg();
        self.push(Instr::Assign { dst, expr: expr.into() });
        dst
    }

    /// Control-dependency marker on `cond` (see [`Instr::BranchOn`]).
    pub fn branch_on(&mut self, cond: impl Into<Expr>) -> &mut Self {
        self.push(Instr::BranchOn { cond: cond.into() });
        self
    }

    /// Observation marker on `expr` (see [`Instr::Observe`]).
    pub fn observe(&mut self, expr: impl Into<Expr>) -> &mut Self {
        self.push(Instr::Observe { expr: expr.into() });
        self
    }

    /// Structured conditional: `body` executes only when `cond` is
    /// non-zero. Lowered to a forward [`Instr::JumpIfZero`].
    ///
    /// Registers defined inside the body must not be consumed after the
    /// join — when the body is skipped they remain undefined (they read
    /// as 0 in the SC enumerator and stall the relaxed machine).
    pub fn if_nz(&mut self, cond: impl Into<Expr>, body: impl FnOnce(&mut ThreadBuilder<'_>)) {
        let at = self.program.threads[self.idx].instrs.len();
        self.push(Instr::JumpIfZero { cond: cond.into(), skip: 0 });
        body(self);
        let end = self.program.threads[self.idx].instrs.len();
        match &mut self.program.threads[self.idx].instrs[at] {
            Instr::JumpIfZero { skip, .. } => *skip = end - at - 1,
            _ => unreachable!(),
        }
    }

    /// Structured conditional on `cond == 0`: `body` executes only when
    /// `cond` is zero.
    pub fn if_z(&mut self, cond: impl Into<Expr>, body: impl FnOnce(&mut ThreadBuilder<'_>)) {
        let c = Expr::bin(BinOp::Eq, cond.into(), Expr::Const(0));
        self.if_nz(c, body);
    }

    /// Timing hint: `cycles` of local busy work (see [`Instr::Think`]).
    pub fn think(&mut self, cycles: u32) -> &mut Self {
        self.push(Instr::Think { cycles });
        self
    }

    /// Block-level barrier (see [`Instr::Barrier`]).
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Instr::Barrier);
        self
    }

    /// `r = scratch[addr]`; returns `r` (see [`Instr::ScratchLoad`]).
    pub fn scratch_load(&mut self, addr: impl Into<Expr>) -> Reg {
        let dst = self.fresh_reg();
        self.push(Instr::ScratchLoad { addr: addr.into(), dst });
        dst
    }

    /// `scratch[addr] = val` (see [`Instr::ScratchStore`]).
    pub fn scratch_store(&mut self, addr: impl Into<Expr>, val: impl Into<Expr>) -> &mut Self {
        self.push(Instr::ScratchStore { addr: addr.into(), val: val.into() });
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_and_deps() {
        let mut regs = BTreeMap::new();
        regs.insert(Reg(0), 5);
        regs.insert(Reg(1), 3);
        let e = Expr::bin(
            BinOp::Add,
            Expr::Reg(Reg(0)),
            Expr::bin(BinOp::Max, Expr::Reg(Reg(1)), Expr::Const(4)),
        );
        assert_eq!(e.eval(&regs), 9);
        let mut deps = Vec::new();
        e.regs_read(&mut deps);
        assert_eq!(deps, vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn expr_comparison_ops() {
        let regs = BTreeMap::new();
        assert_eq!(Expr::bin(BinOp::Eq, 3.into(), 3.into()).eval(&regs), 1);
        assert_eq!(Expr::bin(BinOp::Ne, 3.into(), 3.into()).eval(&regs), 0);
        assert_eq!(Expr::bin(BinOp::Lt, 2.into(), 3.into()).eval(&regs), 1);
        assert_eq!(Expr::bin(BinOp::Min, 2.into(), 3.into()).eval(&regs), 2);
        assert_eq!(Expr::bin(BinOp::Sub, 2.into(), 3.into()).eval(&regs), -1);
        assert_eq!(Expr::bin(BinOp::Xor, 6.into(), 3.into()).eval(&regs), 5);
        assert_eq!(Expr::bin(BinOp::And, 6.into(), 3.into()).eval(&regs), 2);
        assert_eq!(Expr::bin(BinOp::Or, 6.into(), 3.into()).eval(&regs), 7);
    }

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwOp::FetchAdd.apply(10, 5, 0), 15);
        assert_eq!(RmwOp::FetchSub.apply(10, 5, 0), 5);
        assert_eq!(RmwOp::FetchMin.apply(10, 5, 0), 5);
        assert_eq!(RmwOp::FetchMax.apply(10, 5, 0), 10);
        assert_eq!(RmwOp::Exchange.apply(10, 5, 0), 5);
        assert_eq!(RmwOp::FetchAnd.apply(0b110, 0b011, 0), 0b010);
        assert_eq!(RmwOp::FetchOr.apply(0b110, 0b011, 0), 0b111);
        assert_eq!(RmwOp::FetchXor.apply(0b110, 0b011, 0), 0b101);
        // CAS hits and misses.
        assert_eq!(RmwOp::Cas.apply(7, 42, 7), 42);
        assert_eq!(RmwOp::Cas.apply(8, 42, 7), 8);
    }

    #[test]
    fn builder_interns_locations_once() {
        let mut p = Program::new("t");
        let t = &mut p.thread();
        t.store(OpClass::Data, "x", 1);
        t.store(OpClass::Data, "x", 2);
        t.store(OpClass::Data, "y", 3);
        let p = p.build();
        assert_eq!(p.num_locs(), 2);
        assert_eq!(p.loc_name(Loc(0)), "x");
        assert_eq!(p.loc_name(Loc(1)), "y");
        assert_eq!(p.memory_op_count(), 3);
    }

    #[test]
    fn intern_hands_out_locs_in_first_seen_order() {
        let mut p = Program::new("t");
        let names = ["y", "x", "b7", "i12", "x", "y", "z", "b7"];
        let locs: Vec<Loc> = names.iter().map(|n| p.intern(n)).collect();
        assert_eq!(locs, [0, 1, 2, 3, 1, 0, 4, 2].map(Loc));
        assert_eq!(p.num_locs(), 5);
        for (&n, &l) in names.iter().zip(&locs) {
            assert_eq!(p.find_loc(n), Some(l), "{n}");
            assert_eq!(p.loc_name(l), n);
        }
        assert_eq!(p.find_loc("w"), None);
        assert_eq!(p.find_loc(""), None);
    }

    #[test]
    fn intern_keeps_its_index_past_100k_names() {
        let n = 150_000u32;
        let mut p = Program::new("big");
        for i in 0..n {
            assert_eq!(p.intern(&format!("i{i}")), Loc(i));
        }
        // A repeated name, in any order, gets its first Loc back.
        for i in (0..n).rev().step_by(7) {
            let name = format!("i{i}");
            assert_eq!(p.intern(&name), Loc(i));
            assert_eq!(p.find_loc(&name), Some(Loc(i)));
            assert_eq!(p.loc_name(Loc(i)), name);
        }
        assert_eq!(p.num_locs(), n as usize);
        // A copy shares the names and answers the same lookups.
        let mut q = p.clone();
        assert_eq!(q.find_loc("i99999"), Some(Loc(99_999)));
        assert_eq!(q.intern("fresh"), Loc(n));
        assert_eq!(p.find_loc("fresh"), None);
    }

    #[test]
    fn builder_returns_fresh_registers() {
        let mut p = Program::new("t");
        let mut t = p.thread();
        let r0 = t.load(OpClass::Paired, "x");
        let r1 = t.rmw(OpClass::Paired, "y", RmwOp::FetchAdd, 1);
        assert_ne!(r0, r1);
    }

    #[test]
    fn map_classes_rewrites_annotations() {
        let mut p = Program::new("t");
        let mut t = p.thread();
        t.load(OpClass::Quantum, "x");
        t.store(OpClass::Commutative, "y", 1);
        let p = p.build();
        let q = p.map_classes(|c| if c.is_relaxed() { OpClass::Paired } else { c });
        assert_eq!(q.classes_used(), vec![OpClass::Paired]);
        // Original untouched.
        assert!(p.classes_used().contains(&OpClass::Quantum));
    }

    #[test]
    fn init_values_default_to_zero() {
        let mut p = Program::new("t");
        p.set_init("x", 7);
        let mut t = p.thread();
        t.load(OpClass::Data, "x");
        t.load(OpClass::Data, "y");
        let p = p.build();
        let x = p.find_loc("x").unwrap();
        let y = p.find_loc("y").unwrap();
        assert_eq!(p.init_value(x), 7);
        assert_eq!(p.init_value(y), 0);
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn empty_program_rejected() {
        let _ = Program::new("empty").build();
    }
}
