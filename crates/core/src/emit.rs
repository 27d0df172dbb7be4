//! Emit a [`Program`] back to the textual litmus format of
//! [`crate::parse`]. Round-tripping is exact for everything the text
//! format can express (which is everything [`Program`] can hold), and
//! is property-tested in the workspace test suite.

use crate::classes::OpClass;
use crate::program::{BinOp, Expr, Instr, Program, Reg, RmwOp};
use std::fmt::Write as _;

fn class_name(c: OpClass) -> &'static str {
    match c {
        OpClass::Data => "data",
        OpClass::Paired => "paired",
        OpClass::Unpaired => "unpaired",
        OpClass::Commutative => "commutative",
        OpClass::NonOrdering => "nonordering",
        OpClass::Quantum => "quantum",
        OpClass::Speculative => "speculative",
        OpClass::Acquire => "acquire",
        OpClass::Release => "release",
    }
}

fn reg_name(r: Reg) -> String {
    format!("r{}", r.0)
}

fn emit_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Const(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Reg(r) => out.push_str(&reg_name(*r)),
        Expr::Bin(op, ab) => {
            let [a, b] = &**ab;
            match op {
                BinOp::Min | BinOp::Max => {
                    out.push_str(if *op == BinOp::Min { "min(" } else { "max(" });
                    emit_expr(a, out);
                    out.push(' ');
                    emit_expr(b, out);
                    out.push(')');
                }
                _ => {
                    out.push('(');
                    emit_expr(a, out);
                    out.push_str(match op {
                        BinOp::Add => " + ",
                        BinOp::Sub => " - ",
                        BinOp::And => " & ",
                        BinOp::Or => " | ",
                        BinOp::Xor => " ^ ",
                        BinOp::Eq => " == ",
                        BinOp::Ne => " != ",
                        BinOp::Lt => " < ",
                        BinOp::Min | BinOp::Max => unreachable!("handled above"),
                    });
                    emit_expr(b, out);
                    out.push(')');
                }
            }
        }
    }
}

fn rmw_name(op: RmwOp) -> &'static str {
    match op {
        RmwOp::FetchAdd => "fadd",
        RmwOp::FetchSub => "fsub",
        RmwOp::FetchAnd => "fand",
        RmwOp::FetchOr => "for",
        RmwOp::FetchXor => "fxor",
        RmwOp::FetchMin => "fmin",
        RmwOp::FetchMax => "fmax",
        RmwOp::Exchange => "xchg",
        RmwOp::Cas => "cas",
    }
}

/// Render `p` in the textual litmus format.
///
/// `parse(&emit(p))` yields a program with identical threads, classes
/// and initial values (names are regenerated as `r<N>` / `t<N>`).
pub fn emit(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "litmus {}", sanitize(p.name()));
    let inits: Vec<(String, i64)> = (0..p.num_locs() as u32)
        .map(crate::program::Loc)
        .filter(|&l| p.init_value(l) != 0)
        .map(|l| (p.loc_name(l).to_string(), p.init_value(l)))
        .collect();
    if !inits.is_empty() {
        let body: Vec<String> = inits.iter().map(|(n, v)| format!("{n} = {v}")).collect();
        let _ = writeln!(out, "init {{ {} }}", body.join("; "));
    }
    for (tid, thread) in p.threads().iter().enumerate() {
        let _ = writeln!(out, "\nthread t{tid} {{");
        emit_instrs(p, &thread.instrs, 1, &mut out);
        out.push_str("}\n");
    }
    out
}

fn indent(n: usize, out: &mut String) {
    for _ in 0..n {
        out.push_str("    ");
    }
}

fn emit_instrs(p: &Program, instrs: &[Instr], depth: usize, out: &mut String) {
    let mut i = 0;
    while i < instrs.len() {
        match &instrs[i] {
            Instr::Load { class, loc, dst } => {
                indent(depth, out);
                let _ = writeln!(
                    out,
                    "{} = load.{} {};",
                    reg_name(*dst),
                    class_name(*class),
                    p.loc_name(*loc)
                );
            }
            Instr::Store { class, loc, val } => {
                indent(depth, out);
                let mut v = String::new();
                emit_expr(val, &mut v);
                let _ = writeln!(out, "store.{} {} {v};", class_name(*class), p.loc_name(*loc));
            }
            Instr::Rmw { class, loc, op, operand, operand2, dst } => {
                indent(depth, out);
                let mut a = String::new();
                emit_expr(operand, &mut a);
                if *op == RmwOp::Cas {
                    let mut e = String::new();
                    emit_expr(operand2, &mut e);
                    let _ = writeln!(
                        out,
                        "{} = cas.{} {} {e} {a};",
                        reg_name(*dst),
                        class_name(*class),
                        p.loc_name(*loc)
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "{} = {}.{} {} {a};",
                        reg_name(*dst),
                        rmw_name(*op),
                        class_name(*class),
                        p.loc_name(*loc)
                    );
                }
            }
            Instr::Assign { dst, expr } => {
                indent(depth, out);
                let mut e = String::new();
                emit_expr(expr, &mut e);
                let _ = writeln!(out, "{} = {e};", reg_name(*dst));
            }
            Instr::BranchOn { cond } => {
                indent(depth, out);
                let mut e = String::new();
                emit_expr(cond, &mut e);
                let _ = writeln!(out, "branch {e};");
            }
            Instr::Observe { expr } => {
                indent(depth, out);
                let mut e = String::new();
                emit_expr(expr, &mut e);
                let _ = writeln!(out, "observe {e};");
            }
            Instr::JumpIfZero { cond, skip } => {
                indent(depth, out);
                let mut e = String::new();
                emit_expr(cond, &mut e);
                let _ = writeln!(out, "if {e} {{");
                emit_instrs(p, &instrs[i + 1..=i + skip], depth + 1, out);
                indent(depth, out);
                out.push_str("}\n");
                i += skip;
            }
            Instr::Think { cycles } => {
                indent(depth, out);
                let _ = writeln!(out, "think {cycles};");
            }
            Instr::Barrier => {
                indent(depth, out);
                out.push_str("barrier;\n");
            }
            Instr::ScratchLoad { addr, dst } => {
                indent(depth, out);
                let mut a = String::new();
                emit_expr(addr, &mut a);
                let _ = writeln!(out, "{} = sload {a};", reg_name(*dst));
            }
            Instr::ScratchStore { addr, val } => {
                indent(depth, out);
                let mut a = String::new();
                emit_expr(addr, &mut a);
                let mut v = String::new();
                emit_expr(val, &mut v);
                let _ = writeln!(out, "sstore {a} {v};");
            }
        }
        i += 1;
    }
}

fn sanitize(name: &str) -> String {
    let mut s: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if s.is_empty() || s.starts_with(|c: char| c.is_ascii_digit()) {
        s.insert(0, 'p');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_program;
    use crate::classes::MemoryModel;
    use crate::exec::{enumerate_sc, EnumLimits};
    use crate::parse::parse;
    use crate::program::Program;

    fn roundtrip(p: &Program) -> Program {
        let text = emit(p);
        parse(&text).unwrap_or_else(|e| panic!("emitted text failed to parse: {e}\n{text}"))
    }

    fn same_behavior(a: &Program, b: &Program) {
        let limits = EnumLimits::default();
        let ea = enumerate_sc(a, &limits).unwrap();
        let eb = enumerate_sc(b, &limits).unwrap();
        assert_eq!(ea.len(), eb.len(), "same execution count");
        for model in MemoryModel::ALL {
            assert_eq!(
                check_program(a, model).is_race_free(),
                check_program(b, model).is_race_free(),
                "same verdict under {model}"
            );
        }
    }

    #[test]
    fn seqlock_roundtrips() {
        // Build via the litmus crate's shape inline to avoid a circular
        // dev-dependency: a CAS + conditional + speculative loads.
        let mut p = Program::new("seq_mini");
        {
            let mut t = p.thread();
            let old = t.cas(crate::OpClass::Paired, "seq", 0, 1);
            let ok = crate::program::Expr::bin(crate::program::BinOp::Eq, old.into(), 0.into());
            t.if_nz(ok, |t| {
                t.store(crate::OpClass::Speculative, "d", 10);
                t.store(crate::OpClass::Paired, "seq", 2);
            });
        }
        {
            let mut t = p.thread();
            let s0 = t.load(crate::OpClass::Paired, "seq");
            let r = t.load(crate::OpClass::Speculative, "d");
            t.branch_on(s0);
            t.observe(r);
        }
        let p = p.build();
        same_behavior(&p, &roundtrip(&p));
    }

    #[test]
    fn inits_and_all_rmws_roundtrip() {
        let mut p = Program::new("rmws");
        p.set_init("x", -7);
        {
            let mut t = p.thread();
            for op in [
                crate::program::RmwOp::FetchAdd,
                crate::program::RmwOp::FetchSub,
                crate::program::RmwOp::FetchAnd,
                crate::program::RmwOp::FetchOr,
                crate::program::RmwOp::FetchXor,
                crate::program::RmwOp::FetchMin,
                crate::program::RmwOp::FetchMax,
                crate::program::RmwOp::Exchange,
            ] {
                t.rmw(crate::OpClass::Unpaired, "x", op, 3);
            }
        }
        let p = p.build();
        let q = roundtrip(&p);
        let limits = EnumLimits::default();
        let ea = &enumerate_sc(&p, &limits).unwrap()[0];
        let eb = &enumerate_sc(&q, &limits).unwrap()[0];
        assert_eq!(
            ea.result.memory.values().collect::<Vec<_>>(),
            eb.result.memory.values().collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_expressions_roundtrip() {
        // Every infix operator, nested on both sides, and min/max calls
        // inside them and around them.
        let src = "litmus nested\n\
            thread t0 {\n\
                r0 = load.data x;\n\
                r1 = load.data y;\n\
                r2 = min((r0 + 3) max(r1 (r0 ^ 6)));\n\
                store.data z ((r2 - 1) & max(min(r0 r1) (7 | r1)));\n\
                if ((r2 == 4) != ((r1 < r0) | (3 < min(r1 2)))) {\n\
                    store.data w max(min(1 2) min(r2 (r0 + (r1 + 5))));\n\
                }\n\
            }\n";
        let p = parse(src).unwrap();
        let q = roundtrip(&p);
        assert_eq!(p.threads(), q.threads());
        assert_eq!(emit(&p), emit(&q));
        let Instr::Assign { expr: Expr::Bin(BinOp::Min, ab), .. } = &p.threads()[0].instrs[2]
        else {
            panic!("r2 is a min: {:?}", p.threads()[0].instrs[2]);
        };
        assert!(matches!(&ab[1], Expr::Bin(BinOp::Max, _)), "its right operand is a max");
    }

    #[test]
    fn weird_names_are_sanitized() {
        let mut p = Program::new("has spaces & symbols!");
        p.thread().store(crate::OpClass::Data, "x", 1);
        let text = emit(&p.build());
        assert!(text.starts_with("litmus has_spaces___symbols_"));
        parse(&text).unwrap();
    }

    #[test]
    fn nested_conditionals_roundtrip() {
        let mut p = Program::new("nested");
        {
            let mut t = p.thread();
            let a = t.load(crate::OpClass::Paired, "a");
            t.if_nz(a, |t| {
                let b = t.load(crate::OpClass::Paired, "b");
                t.if_z(b, |t| {
                    t.store(crate::OpClass::Data, "c", 5);
                });
                t.store(crate::OpClass::Data, "d", 6);
            });
            t.store(crate::OpClass::Data, "e", 7);
        }
        p.thread().store(crate::OpClass::Paired, "a", 1);
        let p = p.build();
        same_behavior(&p, &roundtrip(&p));
    }
}
