//! Parser for the modeling language.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::ast::{
    range_values, Assign, BinOp, Define, Expr, Module, ObservedDecl, SpecDecl, VarDecl, VarType,
    MAX_RANGE_VALUES,
};
use crate::error::ModelError;
use crate::lex::{lex, TokKind, Token};

const SECTIONS: &[&str] = &[
    "MODULE", "VAR", "IVAR", "ASSIGN", "DEFINE", "SPEC", "FAIRNESS", "OBSERVED",
];

/// A recursive-descent parser over the lexed tokens. It never
/// backtracks, so a consumed token is never read again: identifiers and
/// other payloads are moved out of the token list, not cloned.
struct Parser {
    toks: Vec<Token>,
    idx: usize,
    /// The signal names of the deck's properties, one allocation each.
    names: BTreeSet<Arc<str>>,
}

impl Parser {
    fn peek(&self) -> &TokKind {
        &self.toks[self.idx].kind
    }

    fn peek_tok(&self) -> &Token {
        &self.toks[self.idx]
    }

    /// Moves past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.idx < self.toks.len() - 1 {
            self.idx += 1;
        }
    }

    /// Consumes the current token and returns its kind, moved out of the
    /// token list. At the final `Eof` this returns `Eof` and stays put.
    fn next(&mut self) -> TokKind {
        if self.idx == self.toks.len() - 1 {
            return TokKind::Eof;
        }
        let kind = std::mem::replace(&mut self.toks[self.idx].kind, TokKind::Eof);
        self.idx += 1;
        kind
    }

    fn err(&self, message: impl Into<String>) -> ModelError {
        let t = self.peek_tok();
        ModelError::new(t.line, t.column, message)
    }

    fn expect(&mut self, kind: &TokKind, what: &str) -> Result<(), ModelError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ModelError> {
        let TokKind::Ident(s) = &mut self.toks[self.idx].kind else {
            return Err(self.err(format!("expected {what}")));
        };
        let s = std::mem::take(s);
        self.bump();
        Ok(s)
    }

    fn at_section(&self) -> bool {
        matches!(self.peek(), TokKind::Ident(s) if SECTIONS.contains(&s.as_str()))
            || matches!(self.peek(), TokKind::Eof)
    }

    fn parse_module(&mut self) -> Result<Module, ModelError> {
        let mut m = Module::default();
        // Optional MODULE header.
        if matches!(self.peek(), TokKind::Ident(s) if s == "MODULE") {
            self.bump();
            let name = self.expect_ident("module name")?;
            if name != "main" {
                return Err(self.err("only `MODULE main` is supported"));
            }
        }
        loop {
            let section = match self.peek() {
                TokKind::Eof => break,
                TokKind::Ident(s) => SECTIONS.iter().copied().find(|k| k == s),
                _ => None,
            };
            let line = self.peek_tok().line;
            match section {
                Some(sec @ ("VAR" | "IVAR")) => {
                    self.bump();
                    let input = sec == "IVAR";
                    while !self.at_section() {
                        let decl = self.parse_var_decl(input)?;
                        m.vars.push(decl);
                    }
                }
                Some("ASSIGN") => {
                    self.bump();
                    while !self.at_section() {
                        self.parse_assign(&mut m)?;
                    }
                }
                Some("DEFINE") => {
                    self.bump();
                    while !self.at_section() {
                        let line = self.peek_tok().line;
                        let name = self.expect_ident("DEFINE name")?;
                        self.expect(&TokKind::Assign, "`:=`")?;
                        let expr = self.parse_expr()?;
                        self.expect(&TokKind::Semi, "`;`")?;
                        m.defines.push(Define { name, expr, line });
                    }
                }
                Some("SPEC") => {
                    self.bump();
                    let text = self.capture_until_semi()?;
                    m.specs.push(SpecDecl::new(text, line, &mut self.names));
                }
                Some("FAIRNESS") => {
                    self.bump();
                    let text = self.capture_until_semi()?;
                    m.fairness.push(SpecDecl::new(text, line, &mut self.names));
                }
                Some("OBSERVED") => {
                    self.bump();
                    loop {
                        let line = self.peek_tok().line;
                        let name = self.expect_ident("signal name")?;
                        m.observed.push(ObservedDecl { name, line });
                        if self.peek() == &TokKind::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(&TokKind::Semi, "`;`")?;
                }
                _ => return Err(self.err("expected a section keyword")),
            }
        }
        Ok(m)
    }

    fn parse_var_decl(&mut self, input: bool) -> Result<VarDecl, ModelError> {
        let (line, column) = (self.peek_tok().line, self.peek_tok().column);
        let name = self.expect_ident("variable name")?;
        self.expect(&TokKind::Colon, "`:`")?;
        let ty = match self.peek() {
            TokKind::Ident(s) if s == "boolean" => {
                self.bump();
                VarType::Boolean
            }
            &TokKind::Int(lo) => {
                self.bump();
                self.expect(&TokKind::DotDot, "`..`")?;
                let hi = match self.next() {
                    TokKind::Int(h) => h,
                    _ => return Err(self.err("expected range upper bound")),
                };
                if hi < lo {
                    return Err(self.err(format!("empty range {lo}..{hi}")));
                }
                VarType::Range(lo, hi)
            }
            TokKind::Minus => {
                self.bump();
                let lo = match self.next() {
                    TokKind::Int(l) => -l,
                    _ => return Err(self.err("expected range lower bound")),
                };
                self.expect(&TokKind::DotDot, "`..`")?;
                let neg = if self.peek() == &TokKind::Minus {
                    self.bump();
                    true
                } else {
                    false
                };
                let hi = match self.next() {
                    TokKind::Int(h) => {
                        if neg {
                            -h
                        } else {
                            h
                        }
                    }
                    _ => return Err(self.err("expected range upper bound")),
                };
                if hi < lo {
                    return Err(self.err(format!("empty range {lo}..{hi}")));
                }
                VarType::Range(lo, hi)
            }
            TokKind::LBrace => {
                self.bump();
                let mut lits = Vec::new();
                loop {
                    lits.push(self.expect_ident("enumeration literal")?);
                    match self.next() {
                        TokKind::Comma => continue,
                        TokKind::RBrace => break,
                        _ => return Err(self.err("expected `,` or `}`")),
                    }
                }
                VarType::Enum(lits)
            }
            _ => return Err(self.err("expected a type")),
        };
        if let VarType::Range(lo, hi) = ty {
            if range_values(lo, hi).is_none() {
                return Err(ModelError::new(
                    line,
                    column,
                    format!("range {lo}..{hi} of `{name}` has more than {MAX_RANGE_VALUES} values"),
                ));
            }
        }
        self.expect(&TokKind::Semi, "`;`")?;
        Ok(VarDecl {
            name,
            ty,
            input,
            line,
        })
    }

    fn parse_assign(&mut self, m: &mut Module) -> Result<(), ModelError> {
        let line = self.peek_tok().line;
        let kw = self.expect_ident("`init` or `next`")?;
        if kw != "init" && kw != "next" {
            return Err(self.err("expected `init(...)` or `next(...)`"));
        }
        self.expect(&TokKind::LParen, "`(`")?;
        let name = self.expect_ident("variable name")?;
        self.expect(&TokKind::RParen, "`)`")?;
        self.expect(&TokKind::Assign, "`:=`")?;
        let expr = self.parse_expr()?;
        self.expect(&TokKind::Semi, "`;`")?;
        let assign = Assign { name, expr, line };
        if kw == "init" {
            m.inits.push(assign);
        } else {
            m.nexts.push(assign);
        }
        Ok(())
    }

    /// Re-serializes tokens up to the terminating `;`, separated by single
    /// spaces (for SPEC/FAIRNESS bodies handed to the CTL parser).
    fn capture_until_semi(&mut self) -> Result<String, ModelError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                TokKind::Semi => {
                    self.bump();
                    break;
                }
                TokKind::Eof => return Err(self.err("unterminated SPEC/FAIRNESS (missing `;`)")),
                kind => {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    push_tok_text(&mut text, kind);
                    self.bump();
                }
            }
        }
        if text.is_empty() {
            return Err(self.err("empty SPEC/FAIRNESS body"));
        }
        Ok(text)
    }

    // Expression grammar, loosest binding first.
    fn parse_expr(&mut self) -> Result<Expr, ModelError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_implies()?;
        while self.peek() == &TokKind::DArrow {
            self.bump();
            let rhs = self.parse_implies()?;
            lhs = Expr::bin(BinOp::Iff, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<Expr, ModelError> {
        let lhs = self.parse_or()?;
        if self.peek() == &TokKind::Arrow {
            self.bump();
            let rhs = self.parse_implies()?;
            Ok(Expr::bin(BinOp::Implies, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_and()?;
        loop {
            let op = match self.peek() {
                TokKind::Pipe => BinOp::Or,
                TokKind::Ident(s) if s == "xor" => BinOp::Xor,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_and(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == &TokKind::Amp {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ModelError> {
        let lhs = self.parse_sum()?;
        let op = match self.peek() {
            TokKind::Eq => Some(BinOp::Eq),
            TokKind::Ne => Some(BinOp::Ne),
            TokKind::Lt => Some(BinOp::Lt),
            TokKind::Le => Some(BinOp::Le),
            TokKind::Gt => Some(BinOp::Gt),
            TokKind::Ge => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.parse_sum()?;
            Ok(Expr::bin(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_sum(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_term()?;
        loop {
            match self.peek() {
                TokKind::Plus => {
                    self.bump();
                    let rhs = self.parse_term()?;
                    lhs = Expr::bin(BinOp::Add, lhs, rhs);
                }
                TokKind::Minus => {
                    self.bump();
                    let rhs = self.parse_term()?;
                    lhs = Expr::bin(BinOp::Sub, lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_term(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_unary()?;
        while matches!(self.peek(), TokKind::Ident(s) if s == "mod") {
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(BinOp::Mod, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ModelError> {
        match self.peek() {
            TokKind::Bang => {
                self.bump();
                let e = self.parse_unary()?;
                Ok(e.not())
            }
            TokKind::Minus => {
                self.bump();
                match self.next() {
                    TokKind::Int(v) => Ok(Expr::Int(-v)),
                    _ => Err(self.err("expected integer after unary `-`")),
                }
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ModelError> {
        match self.peek() {
            TokKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(&TokKind::RParen, "`)`")?;
                Ok(e)
            }
            &TokKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokKind::Ident(s) if s == "TRUE" => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            TokKind::Ident(s) if s == "FALSE" => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            TokKind::Ident(s) if s == "case" => {
                self.bump();
                let mut arms = Vec::new();
                loop {
                    if matches!(self.peek(), TokKind::Ident(e) if e == "esac") {
                        self.bump();
                        break;
                    }
                    let guard = self.parse_expr()?;
                    self.expect(&TokKind::Colon, "`:`")?;
                    let value = self.parse_expr()?;
                    self.expect(&TokKind::Semi, "`;`")?;
                    arms.push((guard, value));
                }
                if arms.is_empty() {
                    return Err(self.err("empty case expression"));
                }
                Ok(Expr::Case(arms))
            }
            TokKind::Ident(_) => Ok(Expr::Name(self.expect_ident("an expression")?)),
            _ => Err(self.err("expected an expression")),
        }
    }
}

/// Appends the source spelling of a token to `out`.
fn push_tok_text(out: &mut String, kind: &TokKind) {
    let text = match kind {
        TokKind::Ident(s) => s,
        TokKind::Int(v) => {
            let _ = write!(out, "{v}");
            return;
        }
        TokKind::LParen => "(",
        TokKind::RParen => ")",
        TokKind::LBrace => "{",
        TokKind::RBrace => "}",
        TokKind::LBracket => "[",
        TokKind::RBracket => "]",
        TokKind::Colon => ":",
        TokKind::Semi => ";",
        TokKind::Comma => ",",
        TokKind::DotDot => "..",
        TokKind::Assign => ":=",
        TokKind::Bang => "!",
        TokKind::Amp => "&",
        TokKind::Pipe => "|",
        TokKind::Arrow => "->",
        TokKind::DArrow => "<->",
        TokKind::Eq => "=",
        TokKind::Ne => "!=",
        TokKind::Lt => "<",
        TokKind::Le => "<=",
        TokKind::Gt => ">",
        TokKind::Ge => ">=",
        TokKind::Plus => "+",
        TokKind::Minus => "-",
        TokKind::Eof => "",
    };
    out.push_str(text);
}

/// Parses a model deck into a [`Module`].
///
/// # Errors
///
/// Returns [`ModelError`] with a source position on malformed input.
pub fn parse_module(src: &str) -> Result<Module, ModelError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        idx: 0,
        names: BTreeSet::new(),
    };
    p.parse_module()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DECK: &str = r#"
MODULE main
VAR
  x : boolean;
  count : 0..7;
  state : {idle, busy, done};
IVAR
  stall : boolean;
ASSIGN
  init(x) := FALSE;
  next(x) := !x;
  init(count) := 0;
  next(count) := case
    stall : count;
    count < 7 : count + 1;
    TRUE : 0;
  esac;
DEFINE
  full := count = 7;
SPEC AG (stall -> AX x);
FAIRNESS !stall;
OBSERVED count, x;
"#;

    #[test]
    fn parses_full_deck() {
        let m = parse_module(DECK).expect("parses");
        assert_eq!(m.vars.len(), 4);
        assert_eq!(m.vars[1].ty, VarType::Range(0, 7));
        assert!(matches!(m.vars[2].ty, VarType::Enum(ref l) if l.len() == 3));
        assert!(m.vars[3].input);
        assert_eq!(m.inits.len(), 2);
        assert_eq!(m.nexts.len(), 2);
        assert_eq!(m.defines.len(), 1);
        assert_eq!(m.specs.len(), 1);
        assert_eq!(m.specs[0].text(), "AG ( stall -> AX x )");
        assert_eq!(m.fairness.len(), 1);
        assert_eq!(m.fairness[0].text(), "! stall");
        let observed: Vec<&str> = m.observed.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(observed, vec!["count", "x"]);
    }

    #[test]
    fn declarations_carry_source_lines() {
        let m = parse_module(DECK).expect("parses");
        assert_eq!(m.vars[0].line, 4); // `x : boolean;`
        assert_eq!(m.vars[3].line, 8); // `stall : boolean;` under IVAR
        assert_eq!(m.inits[0].line, 10);
        assert_eq!(m.nexts[1].line, 13);
        assert_eq!(m.defines[0].line, 19);
        assert_eq!(m.specs[0].line(), 20);
        assert_eq!(m.fairness[0].line(), 21);
        assert_eq!(m.observed[0].line, 22);
    }

    #[test]
    fn case_expression_parses() {
        let m = parse_module(DECK).expect("parses");
        let next_count = &m.nexts[1].expr;
        match next_count {
            Expr::Case(arms) => assert_eq!(arms.len(), 3),
            other => panic!("expected case, got {other}"),
        }
    }

    #[test]
    fn spec_text_reparses_with_ctl_parser() {
        let m = parse_module(DECK).expect("parses");
        let f = covest_ctl::parse_formula(m.specs[0].text()).expect("ctl parses");
        assert_eq!(f.to_string(), "AG (stall -> AX x)");
    }

    #[test]
    fn negative_ranges() {
        let m = parse_module("VAR t : -2..3;").expect("parses");
        assert_eq!(m.vars[0].ty, VarType::Range(-2, 3));
    }

    #[test]
    fn oversized_ranges_are_rejected_where_declared() {
        for range in [
            "-9223372036854775807..9223372036854775807",
            "0..9223372036854775807",
            "0..4294967296",
            "0..65536",
        ] {
            let e = parse_module(&format!("VAR ok : boolean;\n  wide : {range};")).unwrap_err();
            assert_eq!((e.line, e.column), (2, 3), "{range}: {e}");
            assert_eq!(
                e.message,
                format!("range {range} of `wide` has more than 65536 values")
            );
        }
        let m = parse_module("VAR x : 0..65535; y : -32768..32767;").expect("at the cap");
        assert_eq!(m.vars[0].ty, VarType::Range(0, 65535));
        assert_eq!(m.vars[1].ty, VarType::Range(-32768, 32767));
    }

    #[test]
    fn specs_are_parsed_once_for_their_signals() {
        let m = parse_module(DECK).expect("parses");
        let names = |i: usize, decls: &[SpecDecl]| -> Vec<String> {
            let signals = decls[i].signals().expect("parses");
            signals.iter().map(|n| n.to_string()).collect()
        };
        assert_eq!(names(0, &m.specs), ["stall", "x"]);
        assert_eq!(names(0, &m.fairness), ["stall"]);
        // One allocation per name across the deck's properties.
        let spec_stall = &m.specs[0].signals().expect("parses")[0];
        let fair_stall = &m.fairness[0].signals().expect("parses")[0];
        assert!(Arc::ptr_eq(spec_stall, fair_stall));
        let m = parse_module("SPEC EG x; FAIRNESS x & & y;").expect("parses");
        let spec = m.specs[0].signals().unwrap_err();
        assert!(spec.to_string().contains("ACTL subset"), "{spec}");
        let fair = m.fairness[0].signals().unwrap_err();
        assert!(fair.to_string().starts_with("parse error"), "{fair}");
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_module("VAR x boolean;").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expected `:`"), "{e}");
        assert!(parse_module("ASSIGN foo(x) := 1;").is_err());
        assert!(parse_module("VAR x : 5..2;").is_err());
        assert!(parse_module("SPEC AG x").is_err()); // missing semicolon
        assert!(parse_module("MODULE other VAR x : boolean;").is_err());
    }

    #[test]
    fn operator_precedence() {
        let m = parse_module("DEFINE d := a + 1 < b & c;").expect("parses");
        let e = &m.defines[0].expr;
        // Parses as ((a+1) < b) & c.
        assert_eq!(e.to_string(), "(((a + 1) < b) & c)");
    }
}
