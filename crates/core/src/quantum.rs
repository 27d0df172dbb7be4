//! The quantum transformation (paper §3.4).
//!
//! A *quantum-equivalent program* P<sub>q</sub> replaces every quantum
//! load with a conceptual `random()` and makes every quantum store
//! write `random()`. DRFrlx requires race-freedom and SC semantics of
//! P<sub>q</sub>, not of the original program — this is how the model
//! stays SC-centric while permitting genuinely non-SC relaxed counters.
//!
//! The transformation itself is implemented inside the enumerator
//! ([`crate::exec::enumerate_sc_quantum`]); this module holds the
//! supporting analysis: detecting whether a program needs the
//! transformation and choosing a sensible finite stand-in for the
//! `random()` value domain.

use crate::classes::OpClass;
use crate::exec::JUNK;
use crate::program::{Expr, Instr, Program, Value};

/// Does the program use any quantum atomics (so checking must run on
/// the quantum-equivalent program)?
pub fn has_quantum(p: &Program) -> bool {
    p.threads().iter().flat_map(|t| &t.instrs).any(|i| i.class() == Some(OpClass::Quantum))
}

/// A finite domain standing in for `random()`.
///
/// `random()` may return *any* value; for race detection on
/// straight-line litmus programs the loaded value can only influence
/// the execution through stored values and dependency shape, so a small
/// domain of "interesting" values suffices: every constant the program
/// mentions, the initial values, and a recognizable junk value that
/// matches nothing. Callers wanting to compare result *sets* against a
/// relaxed machine should extend the domain to cover the values the
/// original program can actually produce.
pub fn default_domain(p: &Program) -> Vec<Value> {
    let mut out: Vec<Value> = vec![0, 1, JUNK];
    let mut add = |v: Value| {
        if !out.contains(&v) {
            out.push(v);
        }
    };
    fn consts(e: &Expr, add: &mut impl FnMut(Value)) {
        match e {
            Expr::Const(v) => add(*v),
            Expr::Reg(_) => {}
            Expr::Bin(_, ab) => {
                let [a, b] = &**ab;
                consts(a, add);
                consts(b, add);
            }
        }
    }
    for t in p.threads() {
        for i in &t.instrs {
            match i {
                Instr::Store { val, .. } => consts(val, &mut add),
                Instr::Rmw { operand, operand2, .. } => {
                    consts(operand, &mut add);
                    consts(operand2, &mut add);
                }
                _ => {}
            }
        }
    }
    for l in 0..p.num_locs() as u32 {
        add(p.init_value(crate::program::Loc(l)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RmwOp;

    #[test]
    fn detects_quantum_usage() {
        let mut p = Program::new("q");
        p.thread().rmw(OpClass::Quantum, "c", RmwOp::FetchAdd, 1);
        assert!(has_quantum(&p.build()));

        let mut p2 = Program::new("nq");
        p2.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        assert!(!has_quantum(&p2.build()));
    }

    #[test]
    fn domain_collects_program_constants() {
        let mut p = Program::new("d");
        p.set_init("x", 9);
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 5);
            t.rmw(OpClass::Quantum, "c", RmwOp::FetchAdd, 3);
        }
        let d = default_domain(&p.build());
        for v in [0, 1, JUNK, 5, 3, 9] {
            assert!(d.contains(&v), "domain missing {v}: {d:?}");
        }
        // No duplicates.
        let mut sorted = d.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), d.len());
    }
}
