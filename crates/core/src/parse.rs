//! A textual litmus format, in the spirit of Herd's `.litmus` files.
//!
//! The paper's Herd models consume small concurrent programs written in
//! a text syntax; this module provides the same workflow for DRFrlx:
//! write a program in the format below, [`parse`] it, and feed it to
//! the checker or the relaxed machine (the `drfrlx` CLI wraps exactly
//! that).
//!
//! ```text
//! litmus mp_paired
//! init { x = 0 }
//!
//! thread producer {
//!     store.data x 42;
//!     store.paired flag 1;
//! }
//!
//! thread consumer {
//!     r0 = load.paired flag;
//!     if r0 {
//!         r1 = load.data x;
//!         observe r1;
//!     }
//! }
//! ```
//!
//! Statements: `store.<class> <loc> <expr>`, `<reg> = load.<class>
//! <loc>`, `<reg> = fadd|fsub|fand|for|fxor|fmin|fmax|xchg.<class>
//! <loc> <expr>`, `<reg> = cas.<class> <loc> <expected> <new>`,
//! `<reg> = <expr>` (local), `branch <expr>`, `observe <expr>`,
//! `if <expr> { ... }`, `ifz <expr> { ... }`, `think <n>` (timing
//! hint), `barrier` (block barrier), `<reg> = sload <addr>` and
//! `sstore <addr> <val>` (block-shared scratch). Classes: `data`,
//! `paired`, `unpaired`, `commutative`, `nonordering`, `quantum`,
//! `speculative`, `acquire`, `release` (unambiguous prefixes
//! accepted). Comments start with
//! `//` or `#`. Expressions support `+ - & | ^ == != < min max`,
//! parentheses, signed integers and registers.

use crate::classes::OpClass;
use crate::program::{BinOp, Expr, Program, RmwOp, ThreadBuilder};
use std::collections::BTreeMap;
use std::fmt;

/// A parse error with full source position and the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column (in bytes) of the offending token; 0 when no
    /// position applies (e.g. an empty program).
    pub col: usize,
    /// The offending token's text, or `end of input`.
    pub token: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {} (at `{}`)", self.line, self.col, self.message, self.token)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(&'static str),
}

impl Tok {
    /// The token's source text (best-effort for integers, which render
    /// in decimal regardless of the literal's base).
    fn render(&self) -> String {
        match self {
            Tok::Ident(s) => s.clone(),
            Tok::Int(v) => v.to_string(),
            Tok::Sym(s) => (*s).to_string(),
        }
    }
}

struct Lexer {
    toks: Vec<(usize, usize, Tok)>,
    pos: usize,
}

const SYMBOLS: [&str; 15] =
    ["==", "!=", "<", "{", "}", "(", ")", "=", ";", ".", "+", "-", "&", "|", "^"];

fn lex(src: &str) -> Result<Lexer, ParseError> {
    let mut toks = Vec::new();
    for (lno, raw) in src.lines().enumerate() {
        let line = lno + 1;
        let code = raw.split("//").next().unwrap_or("");
        let code = code.split('#').next().unwrap_or("");
        let mut rest = code.trim_start();
        'outer: while !rest.is_empty() {
            // `rest` is a suffix of `code`, so the 1-based byte column
            // of the token about to start is the consumed prefix + 1.
            let col = code.len() - rest.len() + 1;
            for sym in SYMBOLS {
                if let Some(r) = rest.strip_prefix(sym) {
                    // A '-' immediately followed by a digit after a
                    // non-value token is a negative literal; handled in
                    // the number branch below by peeking here.
                    if sym == "-"
                        && r.starts_with(|c: char| c.is_ascii_digit())
                        && !matches!(toks.last(), Some((_, _, Tok::Int(_) | Tok::Ident(_))))
                        && !matches!(toks.last(), Some((_, _, Tok::Sym(")"))))
                    {
                        break; // fall through to the number branch
                    }
                    toks.push((line, col, Tok::Sym(sym)));
                    rest = r.trim_start();
                    continue 'outer;
                }
            }
            if rest.starts_with(|c: char| c.is_ascii_digit())
                || (rest.starts_with('-') && rest[1..].starts_with(|c: char| c.is_ascii_digit()))
            {
                let neg = rest.starts_with('-');
                let body = if neg { &rest[1..] } else { rest };
                let end = body
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .unwrap_or(body.len());
                let text: String = body[..end].chars().filter(|&c| c != '_').collect();
                let magnitude =
                    if let Some(hex) = text.strip_prefix("0x").or(text.strip_prefix("0X")) {
                        i64::from_str_radix(hex, 16)
                    } else {
                        text.parse()
                    }
                    .map_err(|_| ParseError {
                        line,
                        col,
                        token: body[..end].to_string(),
                        message: format!("bad integer literal `{}`", &body[..end]),
                    })?;
                toks.push((line, col, Tok::Int(if neg { -magnitude } else { magnitude })));
                rest = body[end..].trim_start();
                continue;
            }
            if rest.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_') {
                let end = rest
                    .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                    .unwrap_or(rest.len());
                toks.push((line, col, Tok::Ident(rest[..end].to_string())));
                rest = rest[end..].trim_start();
                continue;
            }
            let ch = rest.chars().next().unwrap();
            return Err(ParseError {
                line,
                col,
                token: ch.to_string(),
                message: format!("unexpected character `{ch}`"),
            });
        }
    }
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, _, t)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, _, t)| t.clone());
        self.pos += 1;
        t
    }

    /// The `(line, col, rendered token)` triple for the token at `idx`,
    /// clamping past-the-end positions to the last token (rendered as
    /// `end of input`).
    fn position(&self, idx: usize) -> (usize, usize, String) {
        match self.toks.get(idx) {
            Some((line, col, tok)) => (*line, *col, tok.render()),
            None => match self.toks.last() {
                Some((line, col, tok)) => {
                    (*line, col + tok.render().len(), "end of input".to_string())
                }
                None => (0, 0, "end of input".to_string()),
            },
        }
    }

    fn err_at(&self, idx: usize, message: impl Into<String>) -> ParseError {
        let (line, col, token) = self.position(idx);
        ParseError { line, col, token, message: message.into() }
    }

    /// An error blaming the *next* (unconsumed) token.
    fn err(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.pos, message)
    }

    /// An error blaming the token just consumed by [`Lexer::next`].
    fn err_prev(&self, message: impl Into<String>) -> ParseError {
        self.err_at(self.pos.saturating_sub(1), message)
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Sym(s)) if s == sym => Ok(()),
            _ => Err(self.err_prev(format!("expected `{sym}`"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err_prev("expected identifier")),
        }
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }
}

fn parse_class(lx: &Lexer, word: &str) -> Result<OpClass, ParseError> {
    let lower = word.to_ascii_lowercase();
    let matches: Vec<OpClass> = [
        ("data", OpClass::Data),
        ("paired", OpClass::Paired),
        ("unpaired", OpClass::Unpaired),
        ("commutative", OpClass::Commutative),
        ("nonordering", OpClass::NonOrdering),
        ("quantum", OpClass::Quantum),
        ("speculative", OpClass::Speculative),
        ("acquire", OpClass::Acquire),
        ("release", OpClass::Release),
    ]
    .iter()
    .filter(|(name, _)| name.starts_with(&lower))
    .map(|(_, c)| *c)
    .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        [] => Err(lx.err_prev(format!("unknown operation class `{word}`"))),
        _ => Err(lx.err_prev(format!("ambiguous operation class `{word}`"))),
    }
}

/// Registers named in the source, mapped to builder registers.
struct RegEnv {
    map: BTreeMap<String, crate::program::Reg>,
}

impl RegEnv {
    fn get(&self, lx: &Lexer, name: &str) -> Result<Expr, ParseError> {
        self.map
            .get(name)
            .map(|r| Expr::Reg(*r))
            .ok_or_else(|| lx.err_prev(format!("register `{name}` used before definition")))
    }
}

/// Expression grammar: comparison > additive/bitwise > atoms. `min` and
/// `max` are two-argument function calls.
fn parse_expr(lx: &mut Lexer, regs: &RegEnv) -> Result<Expr, ParseError> {
    let lhs = parse_sum(lx, regs)?;
    if lx.eat_sym("==") {
        let rhs = parse_sum(lx, regs)?;
        return Ok(Expr::bin(BinOp::Eq, lhs, rhs));
    }
    if lx.eat_sym("!=") {
        let rhs = parse_sum(lx, regs)?;
        return Ok(Expr::bin(BinOp::Ne, lhs, rhs));
    }
    if lx.eat_sym("<") {
        let rhs = parse_sum(lx, regs)?;
        return Ok(Expr::bin(BinOp::Lt, lhs, rhs));
    }
    Ok(lhs)
}

fn parse_sum(lx: &mut Lexer, regs: &RegEnv) -> Result<Expr, ParseError> {
    let mut acc = parse_atom(lx, regs)?;
    loop {
        let op = match lx.peek() {
            Some(Tok::Sym("+")) => BinOp::Add,
            Some(Tok::Sym("-")) => BinOp::Sub,
            Some(Tok::Sym("&")) => BinOp::And,
            Some(Tok::Sym("|")) => BinOp::Or,
            Some(Tok::Sym("^")) => BinOp::Xor,
            _ => return Ok(acc),
        };
        lx.next();
        let rhs = parse_atom(lx, regs)?;
        acc = Expr::bin(op, acc, rhs);
    }
}

fn parse_atom(lx: &mut Lexer, regs: &RegEnv) -> Result<Expr, ParseError> {
    match lx.next() {
        Some(Tok::Int(v)) => Ok(Expr::Const(v)),
        Some(Tok::Sym("(")) => {
            let e = parse_expr(lx, regs)?;
            lx.expect_sym(")")?;
            Ok(e)
        }
        Some(Tok::Ident(name)) if name == "min" || name == "max" => {
            lx.expect_sym("(")?;
            let a = parse_expr(lx, regs)?;
            // Optional comma would be nice; we accept whitespace only,
            // so the two arguments are juxtaposed expressions.
            let b = parse_expr(lx, regs)?;
            lx.expect_sym(")")?;
            let op = if name == "min" { BinOp::Min } else { BinOp::Max };
            Ok(Expr::bin(op, a, b))
        }
        Some(Tok::Ident(name)) => regs.get(lx, &name),
        _ => Err(lx.err_prev("expected expression")),
    }
}

const RMW_NAMES: [(&str, RmwOp); 8] = [
    ("fadd", RmwOp::FetchAdd),
    ("fsub", RmwOp::FetchSub),
    ("fand", RmwOp::FetchAnd),
    ("for", RmwOp::FetchOr),
    ("fxor", RmwOp::FetchXor),
    ("fmin", RmwOp::FetchMin),
    ("fmax", RmwOp::FetchMax),
    ("xchg", RmwOp::Exchange),
];

fn parse_block(
    lx: &mut Lexer,
    t: &mut ThreadBuilder<'_>,
    regs: &mut RegEnv,
) -> Result<(), ParseError> {
    lx.expect_sym("{")?;
    loop {
        if lx.eat_sym("}") {
            return Ok(());
        }
        let word = match lx.next() {
            Some(Tok::Ident(w)) => w,
            _ => return Err(lx.err_prev("expected statement")),
        };
        match word.as_str() {
            "store" => {
                lx.expect_sym(".")?;
                let cw = lx.expect_ident()?;
                let class = parse_class(lx, &cw)?;
                let loc = lx.expect_ident()?;
                let val = parse_expr(lx, regs)?;
                lx.expect_sym(";")?;
                t.store(class, &loc, val);
            }
            "branch" => {
                let cond = parse_expr(lx, regs)?;
                lx.expect_sym(";")?;
                t.branch_on(cond);
            }
            "think" => {
                let cycles = match lx.next() {
                    Some(Tok::Int(v)) if (0..=u32::MAX as i64).contains(&v) => v as u32,
                    _ => return Err(lx.err_prev("expected cycle count after `think`")),
                };
                lx.expect_sym(";")?;
                t.think(cycles);
            }
            "barrier" => {
                lx.expect_sym(";")?;
                t.barrier();
            }
            "sstore" => {
                let addr = parse_expr(lx, regs)?;
                let val = parse_expr(lx, regs)?;
                lx.expect_sym(";")?;
                t.scratch_store(addr, val);
            }
            "observe" => {
                let e = parse_expr(lx, regs)?;
                lx.expect_sym(";")?;
                t.observe(e);
            }
            "if" | "ifz" => {
                let cond = parse_expr(lx, regs)?;
                // Structured bodies need two passes over the builder;
                // we lower by emitting the jump ourselves via if_nz /
                // if_z with a recursive closure — but closures cannot
                // borrow the lexer mutably twice, so parse the body
                // into a sub-program... Instead, lower directly:
                // collect body statements recursively with a manual
                // jump patch.
                parse_if(lx, t, regs, cond, word == "ifz")?;
            }
            reg_name => {
                // `<reg> = ...`
                lx.expect_sym("=")?;
                if matches!(lx.peek(), Some(Tok::Ident(op)) if op == "sload") {
                    lx.next();
                    let addr = parse_expr(lx, regs)?;
                    lx.expect_sym(";")?;
                    let reg = t.scratch_load(addr);
                    regs.map.insert(reg_name.to_string(), reg);
                    continue;
                }
                let is_memop = matches!(
                    lx.peek(),
                    Some(Tok::Ident(op))
                        if op == "load" || op == "cas" || RMW_NAMES.iter().any(|(n, _)| n == op)
                );
                match is_memop {
                    true => {
                        let op = lx.expect_ident()?;
                        lx.expect_sym(".")?;
                        let cw = lx.expect_ident()?;
                        let class = parse_class(lx, &cw)?;
                        let loc = lx.expect_ident()?;
                        let reg = if op == "load" {
                            t.load(class, &loc)
                        } else if op == "cas" {
                            let expected = parse_expr(lx, regs)?;
                            let new = parse_expr(lx, regs)?;
                            t.cas(class, &loc, expected, new)
                        } else {
                            let rmw = RMW_NAMES
                                .iter()
                                .find(|(n, _)| *n == op)
                                .map(|(_, r)| *r)
                                .expect("matched above");
                            let operand = parse_expr(lx, regs)?;
                            t.rmw(class, &loc, rmw, operand)
                        };
                        lx.expect_sym(";")?;
                        regs.map.insert(reg_name.to_string(), reg);
                    }
                    false => {
                        let e = parse_expr(lx, regs)?;
                        lx.expect_sym(";")?;
                        let reg = t.assign(e);
                        regs.map.insert(reg_name.to_string(), reg);
                    }
                }
            }
        }
    }
}

/// `if`/`ifz` bodies: parsed recursively inside the closure the builder
/// gives us. The borrow checker prevents capturing the lexer in the
/// closure and also using it afterwards, so we snapshot the body's
/// token range first, then replay it.
fn parse_if(
    lx: &mut Lexer,
    t: &mut ThreadBuilder<'_>,
    regs: &mut RegEnv,
    cond: Expr,
    invert: bool,
) -> Result<(), ParseError> {
    // Find the body's token span (balanced braces) without consuming.
    let start = lx.pos;
    if !matches!(lx.peek(), Some(Tok::Sym("{"))) {
        return Err(lx.err("expected `{` after if condition"));
    }
    let mut depth = 0usize;
    let mut end = start;
    loop {
        match lx.toks.get(end).map(|(_, _, t)| t) {
            Some(Tok::Sym("{")) => depth += 1,
            Some(Tok::Sym("}")) => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            None => return Err(lx.err_at(lx.toks.len(), "unterminated if body")),
            _ => {}
        }
        end += 1;
    }
    // Parse the body with a sub-lexer over the same token buffer.
    let mut result = Ok(());
    let body_toks = lx.toks[start..=end].to_vec();
    let build_body = |t: &mut ThreadBuilder<'_>| {
        let mut sub = Lexer { toks: body_toks, pos: 0 };
        result = parse_block(&mut sub, t, regs);
    };
    if invert {
        t.if_z(cond, build_body);
    } else {
        t.if_nz(cond, build_body);
    }
    lx.pos = end + 1;
    result
}

/// Parse a litmus program from its textual form.
///
/// ```
/// use drfrlx_core::parse::parse;
/// use drfrlx_core::{check_program, MemoryModel};
///
/// let p = parse(
///     "litmus inc\n\
///      thread a { r = fadd.commutative c 1; }\n\
///      thread b { s = fadd.commutative c 2; }",
/// )?;
/// assert!(check_program(&p, MemoryModel::Drfrlx).is_race_free());
/// # Ok::<(), drfrlx_core::parse::ParseError>(())
/// ```
///
/// # Errors
///
/// Returns a [`ParseError`] carrying the offending token plus its
/// 1-based line and byte column on malformed input.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut lx = lex(src)?;
    match lx.next() {
        Some(Tok::Ident(kw)) if kw == "litmus" => {}
        _ => return Err(lx.err_prev("expected `litmus <name>` header")),
    }
    let name = lx.expect_ident()?;
    let mut p = Program::new(name);
    // Optional init block.
    if matches!(lx.peek(), Some(Tok::Ident(k)) if k == "init") {
        lx.next();
        lx.expect_sym("{")?;
        while !lx.eat_sym("}") {
            let loc = lx.expect_ident()?;
            lx.expect_sym("=")?;
            let v = match lx.next() {
                Some(Tok::Int(v)) => v,
                _ => return Err(lx.err_prev("expected integer")),
            };
            p.set_init(&loc, v);
            lx.eat_sym(";");
        }
    }
    let mut any = false;
    while let Some(tok) = lx.next() {
        match tok {
            Tok::Ident(kw) if kw == "thread" => {
                let _tname = lx.expect_ident()?;
                let mut regs = RegEnv { map: BTreeMap::new() };
                let mut t = p.thread();
                parse_block(&mut lx, &mut t, &mut regs)?;
                any = true;
            }
            _ => return Err(lx.err_prev("expected `thread`")),
        }
    }
    if !any {
        return Err(ParseError {
            line: 0,
            col: 0,
            token: "end of input".into(),
            message: "program has no threads".into(),
        });
    }
    Ok(p.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_program;
    use crate::classes::MemoryModel;
    use crate::exec::{enumerate_sc, EnumLimits};

    const MP: &str = r#"
litmus mp_paired
init { x = 0 }

thread producer {
    store.data x 42;
    store.paired flag 1;
}

thread consumer {
    r0 = load.paired flag;
    if r0 {
        r1 = load.data x;
        observe r1;
    }
}
"#;

    #[test]
    fn parses_message_passing_and_checks_clean() {
        let p = parse(MP).unwrap();
        assert_eq!(p.name(), "mp_paired");
        assert_eq!(p.threads().len(), 2);
        assert!(check_program(&p, MemoryModel::Drfrlx).is_race_free());
    }

    #[test]
    fn parses_all_statement_forms() {
        let src = r#"
litmus kitchen_sink
init { c = 5; d = 1 }
thread t0 {
    old = fadd.commutative c 2;
    swapped = xchg.paired d 9;
    r = cas.unpaired c 7 8;
    sum = old + swapped - 1;
    branch sum == 8;
    observe r;
    ifz r {
        store.nonordering flag 1;
    }
}
"#;
        let p = parse(src).unwrap();
        let execs = enumerate_sc(&p, &EnumLimits::default()).unwrap();
        assert_eq!(execs.len(), 1);
        let e = &execs[0];
        // fadd 5+2, xchg -> 9, cas expected 7 on c==7 succeeds -> 8.
        assert_eq!(e.result.memory.values().copied().collect::<Vec<_>>().len(), 3);
        let c = p.find_loc("c").unwrap();
        let d = p.find_loc("d").unwrap();
        assert_eq!(e.result.memory[&c], 8);
        assert_eq!(e.result.memory[&d], 9);
        // r = old c value at the cas = 7 -> ifz not taken -> flag never written.
        let flag = p.find_loc("flag").unwrap();
        assert_eq!(e.result.memory[&flag], 0);
    }

    #[test]
    fn class_prefixes_resolve() {
        let p =
            parse("litmus t\nthread a { store.comm x 1; store.spec y 1; store.non z 1; }").unwrap();
        use OpClass::*;
        assert_eq!(p.classes_used(), vec![Commutative, Speculative, NonOrdering]);
    }

    #[test]
    fn negative_and_hex_literals() {
        let p = parse("litmus t\ninit { x = -3 }\nthread a { store.data y 0x10; }").unwrap();
        let x = p.find_loc("x").unwrap();
        assert_eq!(p.init_value(x), -3);
        let e = &enumerate_sc(&p, &EnumLimits::default()).unwrap()[0];
        let y = p.find_loc("y").unwrap();
        assert_eq!(e.result.memory[&y], 16);
    }

    #[test]
    fn subtraction_vs_negative_literal() {
        let p = parse("litmus t\nthread a { r = 5 - 3; store.data x r; }").unwrap();
        let e = &enumerate_sc(&p, &EnumLimits::default()).unwrap()[0];
        let x = p.find_loc("x").unwrap();
        assert_eq!(e.result.memory[&x], 2);
    }

    #[test]
    fn min_max_calls() {
        let p =
            parse("litmus t\nthread a { r = min(4 7); s = max(r 9); store.data x s; }").unwrap();
        let e = &enumerate_sc(&p, &EnumLimits::default()).unwrap()[0];
        let x = p.find_loc("x").unwrap();
        assert_eq!(e.result.memory[&x], 9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("litmus t\nthread a {\n  store.data x @;\n}").unwrap_err();
        assert_eq!(err.line, 3);
        let err = parse("litmus t\nthread a {\n  r = load.bogus x;\n}").unwrap_err();
        assert!(err.message.contains("unknown operation class"));
        let err = parse("litmus t\nthread a { observe nope; }").unwrap_err();
        assert!(err.message.contains("before definition"));
    }

    /// One assertion per reachable [`ParseError`] variant: each reports
    /// the right line, column and offending token.
    #[test]
    fn error_unexpected_character_positions_token() {
        let err = parse("litmus t\nthread a {\n  store.data x @;\n}").unwrap_err();
        assert_eq!((err.line, err.col), (3, 16));
        assert_eq!(err.token, "@");
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn error_bad_integer_literal() {
        let err = parse("litmus t\nthread a { store.data x 0xgg; }").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.token, "0xgg");
        assert_eq!(err.col, 25);
        assert!(err.message.contains("bad integer literal"));
    }

    #[test]
    fn error_expected_symbol_names_found_token() {
        // `store` must be followed by `.<class>`.
        let err = parse("litmus t\nthread a { store data x 1; }").unwrap_err();
        assert!(err.message.contains("expected `.`"), "{err}");
        assert_eq!(err.token, "data");
        assert_eq!((err.line, err.col), (2, 18));
        // Missing semicolon at end of input blames past the last token.
        let err = parse("litmus t\nthread a { store.data x 1 }").unwrap_err();
        assert!(err.message.contains("expected `;`"), "{err}");
        assert_eq!(err.token, "}");
    }

    #[test]
    fn error_expected_identifier() {
        let err = parse("litmus t\nthread a { store.7 x 1; }").unwrap_err();
        assert!(err.message.contains("expected identifier"), "{err}");
        assert_eq!(err.token, "7");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_unknown_operation_class() {
        let err = parse("litmus t\nthread a {\n  r = load.bogus x;\n}").unwrap_err();
        assert!(err.message.contains("unknown operation class `bogus`"), "{err}");
        assert_eq!(err.token, "bogus");
        assert_eq!((err.line, err.col), (3, 12));
    }

    #[test]
    fn error_ambiguous_operation_class() {
        // Unreachable through `parse` (every class has a unique first
        // letter), but the arm is kept defensively; exercise it direct.
        let lx = Lexer { toks: Vec::new(), pos: 0 };
        let err = parse_class(&lx, "").unwrap_err();
        assert!(err.message.contains("ambiguous operation class"), "{err}");
    }

    #[test]
    fn error_register_before_definition() {
        let err = parse("litmus t\nthread a { observe nope; }").unwrap_err();
        assert!(err.message.contains("register `nope` used before definition"), "{err}");
        assert_eq!(err.token, "nope");
        assert_eq!((err.line, err.col), (2, 20));
    }

    #[test]
    fn error_expected_expression() {
        let err = parse("litmus t\nthread a { store.data x ; }").unwrap_err();
        assert!(err.message.contains("expected expression"), "{err}");
        assert_eq!(err.token, ";");
        assert_eq!((err.line, err.col), (2, 25));
    }

    #[test]
    fn error_expected_statement() {
        let err = parse("litmus t\nthread a { 5; }").unwrap_err();
        assert!(err.message.contains("expected statement"), "{err}");
        assert_eq!(err.token, "5");
    }

    #[test]
    fn error_expected_brace_after_if() {
        let err = parse("litmus t\nthread a { r = 1; if r observe r; }").unwrap_err();
        assert!(err.message.contains("expected `{` after if condition"), "{err}");
        assert_eq!(err.token, "observe");
    }

    #[test]
    fn error_unterminated_if_body() {
        let err = parse("litmus t\nthread a { r = 1; if r { store.data x 1;").unwrap_err();
        assert!(err.message.contains("unterminated if body"), "{err}");
        assert_eq!(err.token, "end of input");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_expected_litmus_header() {
        let err = parse("nonsense here").unwrap_err();
        assert!(err.message.contains("expected `litmus <name>` header"), "{err}");
        assert_eq!(err.token, "nonsense");
        assert_eq!((err.line, err.col), (1, 1));
    }

    #[test]
    fn error_expected_integer_in_init() {
        let err = parse("litmus t\ninit { x = y }\nthread a { observe 0; }").unwrap_err();
        assert!(err.message.contains("expected integer"), "{err}");
        assert_eq!(err.token, "y");
        assert_eq!((err.line, err.col), (2, 12));
    }

    #[test]
    fn error_expected_thread() {
        let err = parse("litmus t\nthread a { }\nbogus").unwrap_err();
        assert!(err.message.contains("expected `thread`"), "{err}");
        assert_eq!(err.token, "bogus");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn error_program_has_no_threads() {
        let err = parse("litmus empty").unwrap_err();
        assert!(err.message.contains("program has no threads"), "{err}");
        assert_eq!((err.line, err.col), (0, 0));
        assert_eq!(err.token, "end of input");
    }

    #[test]
    fn error_display_includes_position_and_token() {
        let err = parse("litmus t\nthread a { store data x 1; }").unwrap_err();
        let shown = err.to_string();
        assert!(shown.contains("line 2:18"), "{shown}");
        assert!(shown.contains("(at `data`)"), "{shown}");
    }

    #[test]
    fn nested_ifs_parse() {
        let src = r#"
litmus nested
thread a {
    r = load.paired flag;
    if r {
        s = load.paired inner;
        if s {
            store.data x 1;
        }
    }
}
thread b {
    store.paired flag 1;
}
"#;
        let p = parse(src).unwrap();
        // flag=0 path: only the loads guarded away; enumerate to be sure
        // control flow nests correctly.
        let execs = enumerate_sc(&p, &EnumLimits::default()).unwrap();
        assert!(!execs.is_empty());
    }

    #[test]
    fn missing_threads_rejected() {
        assert!(parse("litmus empty").is_err());
        assert!(parse("nonsense").is_err());
    }
}
