//! Parser for the modeling language.
//!
//! The deck is lexed once by the shared tokenizer; `SPEC` and
//! `FAIRNESS` bodies are read by the CTL grammar straight from the
//! deck's tokens ([`covest_ctl::BodyReader`]) and kept as their source
//! spelling (see [`SpecDecl`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use covest_ctl::{int_value, too_deep_message, Body, BodyReader, MAX_DEPTH};

use crate::ast::{
    range_values, Assign, BinOp, Define, Expr, Module, ObservedDecl, SpecDecl, VarDecl, VarType,
    MAX_RANGE_VALUES,
};
use crate::error::ModelError;
use crate::lex::{lex, TokKind, Token, Tokens};

const SECTIONS: &[&str] = &[
    "MODULE", "VAR", "IVAR", "ASSIGN", "DEFINE", "SPEC", "FAIRNESS", "OBSERVED",
];

/// A recursive-descent parser over the deck's tokens. It never
/// backtracks; identifiers are copied out of the source only where the
/// syntax tree keeps them.
struct Parser<'a> {
    toks: Tokens<'a>,
    idx: usize,
    /// The 1-based line of the last declaration read: a forward cursor
    /// over the line starts, since declarations come in source order.
    line: usize,
    /// Open nesting levels of the current expression.
    depth: usize,
    /// The signal names of the deck's properties, one allocation each.
    names: BTreeSet<Arc<str>>,
    /// The property grammar's buffers, shared by the deck's bodies.
    bodies: BodyReader,
}

impl<'a> Parser<'a> {
    fn tok(&self) -> Token {
        self.toks.tokens()[self.idx]
    }

    fn peek(&self) -> TokKind {
        self.tok().kind
    }

    /// The current token's text.
    fn text(&self) -> &'a str {
        self.toks.text(self.tok())
    }

    /// The current token is the identifier `word`.
    fn at_word(&self, word: &str) -> bool {
        self.peek() == TokKind::Ident && self.text() == word
    }

    /// The line of the current token, which is never before the last
    /// one asked for.
    fn line(&mut self) -> usize {
        let pos = self.tok().start;
        let starts = self.toks.line_starts();
        while starts.get(self.line).is_some_and(|&s| s <= pos) {
            self.line += 1;
        }
        self.line
    }

    /// Moves past the current token; the final `Eof` is never passed.
    fn bump(&mut self) {
        if self.idx < self.toks.tokens().len() - 1 {
            self.idx += 1;
        }
    }

    /// Consumes the current token and returns it. At the final `Eof`
    /// this returns `Eof` and stays put.
    fn next(&mut self) -> Token {
        let tok = self.tok();
        self.bump();
        tok
    }

    fn error_at(&self, tok: Token, message: impl Into<String>) -> ModelError {
        let (line, column) = self.toks.line_col(tok.start as usize);
        ModelError::new(line, column, message)
    }

    fn err(&self, message: impl Into<String>) -> ModelError {
        self.error_at(self.tok(), message)
    }

    fn expect(&mut self, kind: TokKind, what: &str) -> Result<(), ModelError> {
        if self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<&'a str, ModelError> {
        if self.peek() != TokKind::Ident {
            return Err(self.err(format!("expected {what}")));
        }
        let text = self.text();
        self.bump();
        Ok(text)
    }

    /// The value of the integer `tok`, `None` for any other token.
    fn int(&self, tok: Token) -> Option<i64> {
        (tok.kind == TokKind::Int).then(|| int_value(self.toks.text(tok)))
    }

    /// Opens one nesting level at the current token.
    fn enter(&mut self) -> Result<(), ModelError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(too_deep_message()));
        }
        self.depth += 1;
        Ok(())
    }

    fn at_section(&self) -> bool {
        (self.peek() == TokKind::Ident && SECTIONS.contains(&self.text()))
            || self.peek() == TokKind::Eof
    }

    fn parse_module(&mut self) -> Result<Module, ModelError> {
        let mut m = Module::default();
        // Optional MODULE header.
        if self.at_word("MODULE") {
            self.bump();
            let name = self.expect_ident("module name")?;
            if name != "main" {
                return Err(self.err("only `MODULE main` is supported"));
            }
        }
        loop {
            let section = match self.peek() {
                TokKind::Eof => break,
                TokKind::Ident => SECTIONS.iter().copied().find(|&k| k == self.text()),
                _ => None,
            };
            let line = self.line();
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
                        let line = self.line();
                        let name = self.expect_ident("DEFINE name")?.to_owned();
                        self.expect(TokKind::Assign, "`:=`")?;
                        let expr = self.parse_expr()?;
                        self.expect(TokKind::Semi, "`;`")?;
                        m.defines.push(Define { name, expr, line });
                    }
                }
                Some("SPEC") => {
                    self.bump();
                    let decl = self.parse_body(line)?;
                    m.specs.push(decl);
                }
                Some("FAIRNESS") => {
                    self.bump();
                    let decl = self.parse_body(line)?;
                    m.fairness.push(decl);
                }
                Some("OBSERVED") => {
                    self.bump();
                    loop {
                        let line = self.line();
                        let name = self.expect_ident("signal name")?.to_owned();
                        m.observed.push(ObservedDecl { name, line });
                        if self.peek() == TokKind::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.expect(TokKind::Semi, "`;`")?;
                }
                _ => return Err(self.err("expected a section keyword")),
            }
        }
        Ok(m)
    }

    fn parse_var_decl(&mut self, input: bool) -> Result<VarDecl, ModelError> {
        let decl = self.tok();
        let line = self.line();
        let name = self.expect_ident("variable name")?.to_owned();
        self.expect(TokKind::Colon, "`:`")?;
        let ty = match self.peek() {
            TokKind::Ident if self.text() == "boolean" => {
                self.bump();
                VarType::Boolean
            }
            TokKind::Int | TokKind::Minus => {
                // Only a range with a negative lower bound may spell a
                // negative upper bound.
                let signed = self.peek() == TokKind::Minus;
                let lo = self.parse_bound("range lower bound", signed)?;
                self.expect(TokKind::DotDot, "`..`")?;
                let hi = self.parse_bound("range upper bound", signed)?;
                if hi < lo {
                    return Err(self.err(format!("empty range {lo}..{hi}")));
                }
                VarType::Range(lo, hi)
            }
            TokKind::LBrace => {
                self.bump();
                let mut lits = Vec::new();
                loop {
                    lits.push(self.expect_ident("enumeration literal")?.to_owned());
                    match self.next().kind {
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
                return Err(self.error_at(
                    decl,
                    format!("range {lo}..{hi} of `{name}` has more than {MAX_RANGE_VALUES} values"),
                ));
            }
        }
        self.expect(TokKind::Semi, "`;`")?;
        Ok(VarDecl {
            name,
            ty,
            input,
            line,
        })
    }

    /// A range bound: an integer, negated by a leading `-` when `signed`.
    fn parse_bound(&mut self, what: &str, signed: bool) -> Result<i64, ModelError> {
        let negative = signed && self.peek() == TokKind::Minus;
        if negative {
            self.bump();
        }
        let tok = self.next();
        match self.int(tok) {
            Some(v) if negative => Ok(-v),
            Some(v) => Ok(v),
            None => Err(self.err(format!("expected {what}"))),
        }
    }

    fn parse_assign(&mut self, m: &mut Module) -> Result<(), ModelError> {
        let line = self.line();
        let kw = self.expect_ident("`init` or `next`")?;
        if kw != "init" && kw != "next" {
            return Err(self.err("expected `init(...)` or `next(...)`"));
        }
        self.expect(TokKind::LParen, "`(`")?;
        let name = self.expect_ident("variable name")?.to_owned();
        self.expect(TokKind::RParen, "`)`")?;
        self.expect(TokKind::Assign, "`:=`")?;
        let expr = self.parse_expr()?;
        self.expect(TokKind::Semi, "`;`")?;
        let assign = Assign { name, expr, line };
        if kw == "init" {
            m.inits.push(assign);
        } else {
            m.nexts.push(assign);
        }
        Ok(())
    }

    /// Reads a SPEC/FAIRNESS body up to its terminating `;` with the CTL
    /// grammar, straight from the deck's tokens.
    fn parse_body(&mut self, line: usize) -> Result<SpecDecl, ModelError> {
        let start = self.idx;
        while !matches!(self.peek(), TokKind::Semi | TokKind::Eof) {
            self.bump();
        }
        if self.peek() == TokKind::Eof {
            return Err(self.err("unterminated SPEC/FAIRNESS (missing `;`)"));
        }
        let end = self.idx;
        self.bump();
        if start == end {
            return Err(self.err("empty SPEC/FAIRNESS body"));
        }
        let src = self.toks.source();
        let body = &self.toks.tokens()[start..end];
        let spelling = &src[body[0].start as usize..body[body.len() - 1].end as usize];
        // Written only for a rejected body, so it allocates only then.
        let mut text = String::new();
        let (signals, text) = match self.bodies.read(src, body, &mut text) {
            Body::Signals(found) => {
                let names = found
                    .iter()
                    .map(|&i| {
                        let name = &src[body[i as usize].span()];
                        match self.names.get(name) {
                            Some(shared) => Arc::clone(shared),
                            None => {
                                let shared: Arc<str> = name.into();
                                self.names.insert(Arc::clone(&shared));
                                shared
                            }
                        }
                    })
                    .collect();
                (Ok(names), None)
            }
            Body::Rejected(e) => (Err(Box::new(e)), Some(text.into_boxed_str())),
            Body::TooDeep(i) => return Err(self.error_at(body[i], too_deep_message())),
        };
        Ok(SpecDecl::new(spelling.into(), line, signals, text))
    }

    // Expression grammar, loosest binding first.
    fn parse_expr(&mut self) -> Result<Expr, ModelError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_implies()?;
        while self.peek() == TokKind::DArrow {
            self.bump();
            let rhs = self.parse_implies()?;
            lhs = Expr::bin(BinOp::Iff, lhs, rhs);
        }
        Ok(lhs)
    }

    /// A right-associative chain, parsed in a loop so that its length
    /// costs no stack.
    fn parse_implies(&mut self) -> Result<Expr, ModelError> {
        let mut rhs = self.parse_or()?;
        if self.peek() != TokKind::Arrow {
            return Ok(rhs);
        }
        let mut antecedents = Vec::new();
        while self.peek() == TokKind::Arrow {
            self.bump();
            let next = self.parse_or()?;
            antecedents.push(std::mem::replace(&mut rhs, next));
        }
        Ok(antecedents
            .into_iter()
            .rev()
            .fold(rhs, |rhs, lhs| Expr::bin(BinOp::Implies, lhs, rhs)))
    }

    fn parse_or(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_and()?;
        loop {
            let op = match self.peek() {
                TokKind::Pipe => BinOp::Or,
                TokKind::Ident if self.text() == "xor" => BinOp::Xor,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_and(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == TokKind::Amp {
            self.bump();
            let rhs = self.parse_cmp()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ModelError> {
        let lhs = self.parse_sum()?;
        let op = match self.peek() {
            TokKind::Eq => BinOp::Eq,
            TokKind::Ne => BinOp::Ne,
            TokKind::Lt => BinOp::Lt,
            TokKind::Le => BinOp::Le,
            TokKind::Gt => BinOp::Gt,
            TokKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_sum()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn parse_sum(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek() {
                TokKind::Plus => BinOp::Add,
                TokKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_term()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_term(&mut self) -> Result<Expr, ModelError> {
        let mut lhs = self.parse_unary()?;
        while self.at_word("mod") {
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(BinOp::Mod, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ModelError> {
        match self.peek() {
            TokKind::Bang => {
                self.enter()?;
                self.bump();
                let e = self.parse_unary()?;
                self.depth -= 1;
                Ok(e.not())
            }
            TokKind::Minus => {
                self.bump();
                let tok = self.next();
                match self.int(tok) {
                    Some(v) => Ok(Expr::Int(-v)),
                    None => Err(self.err("expected integer after unary `-`")),
                }
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ModelError> {
        match self.peek() {
            TokKind::LParen => {
                self.enter()?;
                self.bump();
                let e = self.parse_expr()?;
                self.expect(TokKind::RParen, "`)`")?;
                self.depth -= 1;
                Ok(e)
            }
            TokKind::Int => {
                let value = int_value(self.text());
                self.bump();
                Ok(Expr::Int(value))
            }
            TokKind::Ident => match self.text() {
                "TRUE" => {
                    self.bump();
                    Ok(Expr::Bool(true))
                }
                "FALSE" => {
                    self.bump();
                    Ok(Expr::Bool(false))
                }
                "case" => {
                    self.enter()?;
                    self.bump();
                    let mut arms = Vec::new();
                    loop {
                        if self.at_word("esac") {
                            self.bump();
                            break;
                        }
                        let guard = self.parse_expr()?;
                        self.expect(TokKind::Colon, "`:`")?;
                        let value = self.parse_expr()?;
                        self.expect(TokKind::Semi, "`;`")?;
                        arms.push((guard, value));
                    }
                    if arms.is_empty() {
                        return Err(self.err("empty case expression"));
                    }
                    self.depth -= 1;
                    Ok(Expr::Case(arms))
                }
                name => {
                    self.bump();
                    Ok(Expr::Name(name.to_owned()))
                }
            },
            _ => Err(self.err("expected an expression")),
        }
    }
}

/// Parses a model deck into a [`Module`].
///
/// # Errors
///
/// Returns [`ModelError`] with a source position on malformed input,
/// including expressions and property bodies that nest deeper than
/// [`covest_ctl::MAX_DEPTH`] levels.
pub fn parse_module(src: &str) -> Result<Module, ModelError> {
    let mut p = Parser {
        toks: lex(src)?,
        idx: 0,
        line: 0,
        depth: 0,
        names: BTreeSet::new(),
        bodies: BodyReader::default(),
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
