//! A recursive-descent parser for CTL properties over the shared
//! tokenizer's tokens.
//!
//! The grammar accepts general CTL syntax (including constructs outside
//! the acceptable ACTL subset, such as `EX` or temporal disjunction) into
//! a flat arena of nodes, children before parents. Every node records
//! whether its subtree is propositional, so one top-down pass decides
//! the paper's subset, reporting a precise [`SubsetError`] when the
//! property falls outside it. The same code reads a property from a
//! string ([`parse_formula`], or [`parse_ctl`] for general CTL with no
//! subset check), from a slice of a deck's tokens
//! ([`BodyReader`]), so a deck's `SPEC` bodies are lexed with the deck,
//! and from a body's source spelling ([`parse_body`]), which is how
//! compile reads them again.

use crate::ast::{CmpOp, CmpRhs, Formula, PropExpr, SignalRef};
use crate::error::{CtlError, ParseFormulaError, SubsetError};
use crate::general::Ctl;
use crate::lex::{
    int_value, lex_into, LexError, LexErrorKind, TokKind, Token, MAX_DEPTH, MAX_HEIGHT,
};

/// Comparison right-hand side in the arena: a literal or the token index
/// of a name.
#[derive(Debug, Clone, Copy)]
enum Rhs {
    Int(i64),
    Sym(u32),
}

/// Unary temporal operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Temporal {
    Ax,
    Ag,
    Af,
    Ex,
    Eg,
    Ef,
}

/// One arena node. Names are token indices; children are node indices.
#[derive(Debug, Clone, Copy)]
enum Node {
    Const(bool),
    Atom(u32),
    Cmp(u32, CmpOp, Rhs),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Implies(u32, u32),
    Iff(u32, u32),
    Unary(Temporal, u32),
    /// `A[f U g]` (`true`) or `E[f U g]` (`false`).
    Until(bool, u32, u32),
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    node: Node,
    /// The subtree contains no temporal operator.
    prop: bool,
    /// The subtree's height, counted only in a body longer than
    /// [`MAX_HEIGHT`] tokens (0 otherwise).
    height: u32,
}

/// Where and why a token-level parse stopped. `at` is a token index,
/// the slice's length for its end.
#[derive(Debug)]
enum Stop {
    Syntax { at: usize, message: String },
    TooDeep { at: usize },
    TooTall { at: usize },
}

impl Stop {
    fn syntax(at: usize, message: impl Into<String>) -> Self {
        Stop::Syntax {
            at,
            message: message.into(),
        }
    }

    /// The error this stop gives, the token index `at` located by
    /// `position`.
    fn located(self, position: impl Fn(usize) -> usize) -> ParseFormulaError {
        match self {
            Stop::Syntax { at, message } => ParseFormulaError {
                position: position(at),
                message,
            },
            Stop::TooDeep { at } => ParseFormulaError {
                position: position(at),
                message: too_deep_message(),
            },
            Stop::TooTall { at } => ParseFormulaError {
                position: position(at),
                message: too_tall_message(),
            },
        }
    }
}

/// The message of a property nesting deeper than [`MAX_DEPTH`].
pub fn too_deep_message() -> String {
    format!("expression nests deeper than {MAX_DEPTH} levels")
}

/// The message of an expression whose tree is taller than [`MAX_HEIGHT`]
/// levels.
pub fn too_tall_message() -> String {
    format!("expression tree is taller than {MAX_HEIGHT} levels")
}

/// A parsed property: the arena over the tokens it was read from.
struct Parsed<'s, 't> {
    src: &'s str,
    toks: &'t [Token],
    nodes: &'t [Slot],
}

/// The recursive-descent grammar over one property's tokens.
struct Grammar<'s, 't> {
    src: &'s str,
    toks: &'t [Token],
    idx: usize,
    depth: usize,
    /// The body is longer than [`MAX_HEIGHT`] tokens, so its tree may be
    /// taller: heights are counted.
    tall: bool,
    /// Where the first node over [`MAX_HEIGHT`] levels was completed.
    too_tall: Option<usize>,
    nodes: &'t mut Vec<Slot>,
    /// Pending antecedents of right-associative `->` chains.
    chain: &'t mut Vec<u32>,
}

type Parse = Result<u32, Stop>;

impl Grammar<'_, '_> {
    fn kind(&self) -> Option<TokKind> {
        self.toks.get(self.idx).map(|t| t.kind)
    }

    fn text(&self, i: usize) -> &str {
        &self.src[self.toks[i].span()]
    }

    /// Consumes one token and returns its index, `None` past the end.
    /// Like every consumption, it may move the cursor past the end, which
    /// error positions read as the end of input.
    fn bump(&mut self) -> Option<usize> {
        let i = self.idx;
        self.idx += 1;
        (i < self.toks.len()).then_some(i)
    }

    /// The value of the `Int` token `i`, which may carry a glued sign
    /// (see [`parse_str`]).
    fn int(&self, i: usize) -> i64 {
        match self.text(i).strip_prefix('-') {
            Some(digits) => -int_value(digits),
            None => int_value(self.text(i)),
        }
    }

    /// The cursor as an error position.
    fn at(&self) -> usize {
        self.idx.min(self.toks.len())
    }

    fn expect(&mut self, want: TokKind, what: &str) -> Result<(), Stop> {
        if self.kind() == Some(want) {
            self.idx += 1;
            Ok(())
        } else {
            Err(Stop::syntax(self.at(), format!("expected {what}")))
        }
    }

    /// Opens one nesting level at the current token.
    fn enter(&mut self) -> Result<(), Stop> {
        if self.depth == MAX_DEPTH {
            return Err(Stop::TooDeep { at: self.idx });
        }
        self.depth += 1;
        Ok(())
    }

    fn push(&mut self, node: Node) -> u32 {
        let prop = |n: u32| self.nodes[n as usize].prop;
        let prop = match node {
            Node::Const(_) | Node::Atom(_) | Node::Cmp(..) => true,
            Node::Not(a) => prop(a),
            Node::And(a, b) | Node::Or(a, b) | Node::Implies(a, b) | Node::Iff(a, b) => {
                prop(a) && prop(b)
            }
            Node::Unary(..) | Node::Until(..) => false,
        };
        let height = if self.tall { self.height(node) } else { 0 };
        self.nodes.push(Slot { node, prop, height });
        (self.nodes.len() - 1) as u32
    }

    /// The height of `node` over its operands in the arena. The first
    /// node over [`MAX_HEIGHT`] levels records the last token read.
    #[cold]
    fn height(&mut self, node: Node) -> u32 {
        let height = |n: u32| self.nodes[n as usize].height;
        let below = match node {
            Node::Const(_) | Node::Atom(_) | Node::Cmp(..) => 0,
            Node::Not(a) | Node::Unary(_, a) => height(a),
            Node::And(a, b)
            | Node::Or(a, b)
            | Node::Implies(a, b)
            | Node::Iff(a, b)
            | Node::Until(_, a, b) => height(a).max(height(b)),
        };
        if below as usize >= MAX_HEIGHT && self.too_tall.is_none() {
            self.too_tall = Some(self.idx.min(self.toks.len()) - 1);
        }
        below + 1
    }

    // Grammar (loosest binding first):
    //   iff     := implies ( '<->' implies )*
    //   implies := or ( '->' implies )?          (right assoc)
    //   or      := and ( '|' and )*
    //   and     := unary ( '&' unary )*
    //   unary   := '!' unary | temporal | primary
    //   temporal:= ('AX'|'AG'|'AF'|'EX'|'EG'|'EF') unary
    //            | ('A'|'E') '[' iff 'U' iff ']'
    //   primary := '(' iff ')' | const | ident (cmp operand)?
    //   operand := int | '-' int | ident
    fn iff(&mut self) -> Parse {
        let mut lhs = self.implies()?;
        while self.kind() == Some(TokKind::DArrow) {
            self.idx += 1;
            let rhs = self.implies()?;
            lhs = self.push(Node::Iff(lhs, rhs));
        }
        Ok(lhs)
    }

    /// A right-associative chain, parsed in a loop so that its length
    /// costs no stack.
    fn implies(&mut self) -> Parse {
        let base = self.chain.len();
        let mut rhs = self.or()?;
        while self.kind() == Some(TokKind::Arrow) {
            self.idx += 1;
            self.chain.push(rhs);
            rhs = self.or()?;
        }
        while self.chain.len() > base {
            let lhs = self.chain.pop().unwrap_or_default();
            rhs = self.push(Node::Implies(lhs, rhs));
        }
        Ok(rhs)
    }

    fn or(&mut self) -> Parse {
        let mut lhs = self.and()?;
        while self.kind() == Some(TokKind::Pipe) {
            self.idx += 1;
            let rhs = self.and()?;
            lhs = self.push(Node::Or(lhs, rhs));
        }
        Ok(lhs)
    }

    fn and(&mut self) -> Parse {
        let mut lhs = self.unary()?;
        while self.kind() == Some(TokKind::Amp) {
            self.idx += 1;
            let rhs = self.unary()?;
            lhs = self.push(Node::And(lhs, rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Parse {
        match self.kind() {
            Some(TokKind::Bang) => {
                self.enter()?;
                self.idx += 1;
                let inner = self.unary()?;
                self.depth -= 1;
                Ok(self.push(Node::Not(inner)))
            }
            Some(TokKind::Ident) => {
                let op = match self.text(self.idx) {
                    "AX" => Temporal::Ax,
                    "AG" => Temporal::Ag,
                    "AF" => Temporal::Af,
                    "EX" => Temporal::Ex,
                    "EG" => Temporal::Eg,
                    "EF" => Temporal::Ef,
                    "A" | "E" => return self.until(),
                    _ => return self.primary(),
                };
                self.enter()?;
                self.idx += 1;
                let inner = self.unary()?;
                self.depth -= 1;
                Ok(self.push(Node::Unary(op, inner)))
            }
            _ => self.primary(),
        }
    }

    fn until(&mut self) -> Parse {
        let universal = self.text(self.idx) == "A";
        self.enter()?;
        self.idx += 1;
        self.expect(TokKind::LBracket, "'[' after path quantifier")?;
        let f = self.iff()?;
        match self.bump() {
            Some(i) if self.toks[i].kind == TokKind::Ident && self.text(i) == "U" => {}
            _ => return Err(Stop::syntax(self.at(), "expected 'U' in until")),
        }
        let g = self.iff()?;
        self.expect(TokKind::RBracket, "']' closing until")?;
        self.depth -= 1;
        Ok(self.push(Node::Until(universal, f, g)))
    }

    fn primary(&mut self) -> Parse {
        if self.kind() == Some(TokKind::LParen) {
            self.enter()?;
            self.idx += 1;
            let inner = self.iff()?;
            self.expect(TokKind::RParen, "')'")?;
            self.depth -= 1;
            return Ok(inner);
        }
        let Some(i) = self.bump() else {
            return Err(Stop::syntax(self.at(), "unexpected end of input"));
        };
        if self.toks[i].kind != TokKind::Ident {
            return Err(Stop::syntax(self.at(), "unexpected token"));
        }
        match self.text(i) {
            "TRUE" | "true" => return Ok(self.push(Node::Const(true))),
            "FALSE" | "false" => return Ok(self.push(Node::Const(false))),
            _ => {}
        }
        let op = match self.kind() {
            Some(TokKind::Eq) => CmpOp::Eq,
            Some(TokKind::Ne) => CmpOp::Ne,
            Some(TokKind::Lt) => CmpOp::Lt,
            Some(TokKind::Le) => CmpOp::Le,
            Some(TokKind::Gt) => CmpOp::Gt,
            Some(TokKind::Ge) => CmpOp::Ge,
            _ => return Ok(self.push(Node::Atom(i as u32))),
        };
        self.idx += 1;
        let rhs = match self.bump().map(|r| (r, self.toks[r].kind)) {
            Some((r, TokKind::Int)) => Rhs::Int(self.int(r)),
            // [`foreign_token`] let this `-` through: an integer follows.
            Some((r, TokKind::Minus)) => {
                self.idx += 1;
                Rhs::Int(-int_value(self.text(r + 1)))
            }
            Some((r, TokKind::Ident)) => Rhs::Sym(r as u32),
            _ => {
                return Err(Stop::syntax(
                    self.at(),
                    "expected integer or identifier after comparison",
                ))
            }
        };
        Ok(self.push(Node::Cmp(i as u32, op, rhs)))
    }
}

/// The first token no property may contain: deck-only punctuation, or a
/// `-` that is not the sign of an integer on a comparison's right-hand
/// side.
fn foreign_token(src: &str, toks: &[Token]) -> Option<Stop> {
    toks.iter().enumerate().find_map(|(i, t)| match t.kind {
        TokKind::LBrace
        | TokKind::RBrace
        | TokKind::Colon
        | TokKind::Semi
        | TokKind::Comma
        | TokKind::DotDot
        | TokKind::Assign
        | TokKind::Plus => {
            let c = src[t.span()].chars().next().unwrap_or(' ');
            Some(Stop::syntax(i, format!("unexpected character {c:?}")))
        }
        TokKind::Minus if !signs_comparison_int(src, toks, i) => {
            Some(Stop::syntax(i, "unexpected '-'"))
        }
        _ => None,
    })
}

/// Token `i`, a `-`, stands between a comparison operator and an
/// unsigned integer: the sign of a negative literal.
fn signs_comparison_int(src: &str, toks: &[Token], i: usize) -> bool {
    let unsigned_int = |t: &Token| t.kind == TokKind::Int && !src[t.span()].starts_with('-');
    follows_comparison(toks, i) && toks.get(i + 1).is_some_and(unsigned_int)
}

/// Token `i` comes right after a comparison operator.
fn follows_comparison(toks: &[Token], i: usize) -> bool {
    i.checked_sub(1).is_some_and(|p| {
        matches!(
            toks[p].kind,
            TokKind::Eq | TokKind::Ne | TokKind::Lt | TokKind::Le | TokKind::Gt | TokKind::Ge
        )
    })
}

/// Parses the property `toks` (a slice of the tokens of `src`, with no
/// `Eof`) into `nodes`; the root is the last node.
fn parse_tokens(
    src: &str,
    toks: &[Token],
    nodes: &mut Vec<Slot>,
    chain: &mut Vec<u32>,
) -> Result<(), Stop> {
    nodes.clear();
    chain.clear();
    if let Some(stop) = foreign_token(src, toks) {
        return Err(stop);
    }
    let mut g = Grammar {
        src,
        toks,
        idx: 0,
        depth: 0,
        tall: toks.len() > MAX_HEIGHT,
        too_tall: None,
        nodes,
        chain,
    };
    let parsed = match g.iff() {
        Ok(_) if g.idx != toks.len() => Err(Stop::syntax(g.at(), "trailing input after formula")),
        parsed => parsed.map(drop),
    };
    // The arena is flat, so reading on past a too-tall node costs no
    // stack; that node comes before any later stop, and is the error.
    match g.too_tall {
        Some(at) => Err(Stop::TooTall { at }),
        None => parsed,
    }
}

fn subset_error(construct: &str, reason: &str) -> SubsetError {
    SubsetError {
        construct: construct.to_owned(),
        reason: reason.to_owned(),
    }
}

impl Parsed<'_, '_> {
    fn root(&self) -> u32 {
        (self.nodes.len() - 1) as u32
    }

    fn slot(&self, n: u32) -> Slot {
        self.nodes[n as usize]
    }

    fn name(&self, t: u32) -> &str {
        &self.src[self.toks[t as usize].span()]
    }

    /// Decides the acceptable subset top-down in one pass: propositional
    /// subtrees are not entered, and the first offending node in
    /// pre-order gives the error.
    fn check_subset(&self, stack: &mut Vec<u32>) -> Result<(), SubsetError> {
        stack.clear();
        stack.push(self.root());
        while let Some(n) = stack.pop() {
            let slot = self.slot(n);
            if slot.prop {
                continue;
            }
            match slot.node {
                Node::Implies(a, b) => {
                    if !self.slot(a).prop {
                        return Err(subset_error(
                            "f -> g",
                            "implication antecedent must be propositional in the subset",
                        ));
                    }
                    stack.push(b);
                }
                Node::Unary(Temporal::Ax | Temporal::Ag | Temporal::Af, a) => stack.push(a),
                Node::Until(true, a, b) | Node::And(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
                Node::Or(..) => {
                    return Err(subset_error(
                        "f | g",
                        "disjunction of temporal formulas is not in the acceptable subset",
                    ))
                }
                Node::Not(_) => {
                    return Err(subset_error(
                        "!f",
                        "negation of a temporal formula is not in the acceptable subset",
                    ))
                }
                Node::Iff(..) => {
                    return Err(subset_error(
                        "f <-> g",
                        "biconditional over temporal formulas is not in the acceptable subset",
                    ))
                }
                Node::Unary(..) | Node::Until(false, ..) => {
                    return Err(subset_error(
                        "E...",
                        "existential path quantifiers are not universal (ACTL) formulas",
                    ))
                }
                Node::Const(_) | Node::Atom(_) | Node::Cmp(..) => {}
            }
        }
        Ok(())
    }

    /// The token indices of the signal names, first occurrences in
    /// source order: the arena holds leaves in the order they were read.
    fn signals(&self, out: &mut Vec<u32>) {
        out.clear();
        let mut add = |t: u32| {
            if !out.iter().any(|&s| self.name(s) == self.name(t)) {
                out.push(t);
            }
        };
        for slot in self.nodes {
            match slot.node {
                Node::Atom(t) | Node::Cmp(t, _, Rhs::Int(_)) => add(t),
                Node::Cmp(l, _, Rhs::Sym(r)) => {
                    add(l);
                    add(r);
                }
                _ => {}
            }
        }
    }

    fn signal(&self, t: u32) -> SignalRef {
        SignalRef::new(self.name(t))
    }

    fn rhs(&self, rhs: Rhs) -> CmpRhs {
        match rhs {
            Rhs::Int(v) => CmpRhs::Int(v),
            Rhs::Sym(t) => CmpRhs::Sym(self.signal(t)),
        }
    }

    /// The propositional subtree `n` as a [`PropExpr`].
    fn prop(&self, n: u32) -> PropExpr {
        let bin = |a, b| (Box::new(self.prop(a)), Box::new(self.prop(b)));
        match self.slot(n).node {
            Node::Const(c) => PropExpr::Const(c),
            Node::Atom(t) => PropExpr::Atom(self.signal(t)),
            Node::Cmp(l, op, rhs) => PropExpr::Cmp {
                lhs: self.signal(l),
                op,
                rhs: self.rhs(rhs),
            },
            Node::Not(a) => PropExpr::Not(Box::new(self.prop(a))),
            Node::And(a, b) => {
                let (a, b) = bin(a, b);
                PropExpr::And(a, b)
            }
            Node::Or(a, b) => {
                let (a, b) = bin(a, b);
                PropExpr::Or(a, b)
            }
            Node::Implies(a, b) => {
                let (a, b) = bin(a, b);
                PropExpr::Implies(a, b)
            }
            Node::Iff(a, b) => {
                let (a, b) = bin(a, b);
                PropExpr::Iff(a, b)
            }
            Node::Unary(..) | Node::Until(..) => unreachable!("a propositional subtree"),
        }
    }

    /// The subtree `n`, which [`Parsed::check_subset`] accepted, as a
    /// [`Formula`].
    fn formula(&self, n: u32) -> Formula {
        let slot = self.slot(n);
        if slot.prop {
            return Formula::Prop(self.prop(n));
        }
        let sub = |a| Box::new(self.formula(a));
        match slot.node {
            Node::Implies(a, b) => Formula::Implies(self.prop(a), sub(b)),
            Node::Unary(Temporal::Ax, a) => Formula::Ax(sub(a)),
            Node::Unary(Temporal::Ag, a) => Formula::Ag(sub(a)),
            Node::Unary(Temporal::Af, a) => Formula::Af(sub(a)),
            Node::Until(true, a, b) => Formula::Au(sub(a), sub(b)),
            Node::And(a, b) => Formula::And(sub(a), sub(b)),
            _ => unreachable!("outside the subset check"),
        }
    }

    /// The subtree `n` as general CTL: a propositional subtree is one
    /// [`Ctl::Prop`], and a temporal `<->` the conjunction of its two
    /// implications.
    fn ctl(&self, n: u32) -> Ctl {
        let slot = self.slot(n);
        if slot.prop {
            return Ctl::Prop(self.prop(n));
        }
        let sub = |a| Box::new(self.ctl(a));
        match slot.node {
            Node::Not(a) => Ctl::Not(sub(a)),
            Node::And(a, b) => Ctl::And(sub(a), sub(b)),
            Node::Or(a, b) => Ctl::Or(sub(a), sub(b)),
            Node::Implies(a, b) => Ctl::Implies(sub(a), sub(b)),
            Node::Iff(a, b) => Ctl::And(
                Box::new(Ctl::Implies(sub(a), sub(b))),
                Box::new(Ctl::Implies(sub(b), sub(a))),
            ),
            Node::Unary(Temporal::Ax, a) => Ctl::Ax(sub(a)),
            Node::Unary(Temporal::Ag, a) => Ctl::Ag(sub(a)),
            Node::Unary(Temporal::Af, a) => Ctl::Af(sub(a)),
            Node::Unary(Temporal::Ex, a) => Ctl::Ex(sub(a)),
            Node::Unary(Temporal::Eg, a) => Ctl::Eg(sub(a)),
            Node::Unary(Temporal::Ef, a) => Ctl::Ef(sub(a)),
            Node::Until(true, a, b) => Ctl::Au(sub(a), sub(b)),
            Node::Until(false, a, b) => Ctl::Eu(sub(a), sub(b)),
            Node::Const(_) | Node::Atom(_) | Node::Cmp(..) => {
                unreachable!("a leaf is propositional")
            }
        }
    }
}

/// Reads a property from a string: tokenizes it, then parses the tokens
/// into `nodes`. Errors carry byte offsets into `src`.
fn parse_str(
    src: &str,
    toks: &mut Vec<Token>,
    nodes: &mut Vec<Slot>,
) -> Result<(), ParseFormulaError> {
    let lexed = lex_into(src, toks, &mut Vec::new());
    if lexed.is_ok() {
        toks.pop(); // `Eof`
    }
    // A `-` glued to digits is part of the literal, one `Int` token,
    // wherever it stands; a spaced `-` is a sign only on a comparison's
    // right-hand side (see [`foreign_token`]). A deck's body text spaces
    // every `-`.
    let mut kept = 0usize;
    for i in 0..toks.len() {
        let t = toks[i];
        match kept.checked_sub(1).map(|m| &mut toks[m]) {
            Some(m) if m.kind == TokKind::Minus && m.end == t.start && t.kind == TokKind::Int => {
                *m = Token {
                    start: m.start,
                    ..t
                };
            }
            _ => {
                toks[kept] = t;
                kept += 1;
            }
        }
    }
    toks.truncate(kept);
    // A lexing error ends the tokens, but a foreign token before it is
    // reported first: errors come in source order. An out-of-range
    // integer's sign is part of the literal.
    let lexed = lexed.map_err(|mut e| {
        let sign = match toks.last() {
            Some(m) if m.kind == TokKind::Minus => {
                m.end as usize == e.start || follows_comparison(toks, toks.len() - 1)
            }
            _ => false,
        };
        if e.kind == LexErrorKind::IntRange && sign {
            e.start = toks.pop().map_or(e.start, |t| t.start as usize);
        }
        e
    });
    let at = |i: usize| toks.get(i).map_or(src.len(), |t| t.start as usize);
    if let (Err(_), Some(Stop::Syntax { at: i, message })) = (&lexed, foreign_token(src, toks)) {
        return Err(ParseFormulaError {
            position: at(i),
            message,
        });
    }
    lexed.map_err(|e| lex_error(src, e))?;
    parse_tokens(src, toks, nodes, &mut Vec::new()).map_err(|stop| stop.located(at))
}

fn lex_error(src: &str, e: LexError) -> ParseFormulaError {
    let message = match e.kind {
        LexErrorKind::Char(c) => format!("unexpected character {c:?}"),
        LexErrorKind::Dot => "unexpected character '.'".to_owned(),
        LexErrorKind::IntRange => "integer literal out of range".to_owned(),
        LexErrorKind::TooLong => format!("input of {} bytes is too long", src.len()),
    };
    ParseFormulaError {
        position: e.start,
        message,
    }
}

/// Parses a general CTL formula — both path quantifiers, any boolean
/// structure — into the [`Ctl`] the model checker evaluates. It reads
/// the grammar [`parse_formula`] does, without the subset check.
///
/// # Errors
///
/// Returns [`ParseFormulaError`] on malformed input, with the message and
/// position [`parse_formula`] gives.
///
/// # Examples
///
/// ```
/// use covest_ctl::parse_ctl;
/// let f = parse_ctl("EF (p <-> AX q)")?;
/// assert_eq!(f.to_string(), "EF ((p -> AX q) & (AX q -> p))");
/// # Ok::<(), covest_ctl::ParseFormulaError>(())
/// ```
pub fn parse_ctl(src: &str) -> Result<Ctl, ParseFormulaError> {
    let (mut toks, mut nodes) = (Vec::new(), Vec::new());
    parse_str(src, &mut toks, &mut nodes)?;
    let parsed = Parsed {
        src,
        toks: &toks,
        nodes: &nodes,
    };
    Ok(parsed.ctl(parsed.root()))
}

/// Parses a property in the paper's acceptable ACTL subset.
///
/// # Errors
///
/// Returns [`CtlError::Parse`] on malformed syntax and [`CtlError::Subset`]
/// when the formula is valid CTL but not in the acceptable subset.
///
/// # Examples
///
/// ```
/// use covest_ctl::parse_formula;
/// let f = parse_formula("AG (p1 -> AX AX q)")?;
/// assert_eq!(f.to_string(), "AG (p1 -> AX AX q)");
/// // A negative literal may be spelled with a space, as decks print it.
/// assert_eq!(parse_formula("x = - 3")?.to_string(), "x = -3");
/// # Ok::<(), covest_ctl::CtlError>(())
/// ```
pub fn parse_formula(src: &str) -> Result<Formula, CtlError> {
    let (mut toks, mut nodes) = (Vec::new(), Vec::new());
    parse_str(src, &mut toks, &mut nodes)?;
    let parsed = Parsed {
        src,
        toks: &toks,
        nodes: &nodes,
    };
    parsed.check_subset(&mut Vec::new())?;
    Ok(parsed.formula(parsed.root()))
}

/// Writes the deck-body text of `toks`, a slice of the tokens of `src`,
/// into `text`: the tokens separated by single spaces, integers printed
/// by value. Pushes each token's byte offset in the text onto `offsets`.
fn spell(src: &str, toks: &[Token], text: &mut String, offsets: &mut Vec<u32>) {
    text.clear();
    offsets.clear();
    if let (Some(first), Some(last)) = (toks.first(), toks.last()) {
        // The source spelling's length, a close guess for the text's.
        text.reserve((last.end - first.start) as usize + 1);
    }
    for t in toks {
        if !text.is_empty() {
            text.push(' ');
        }
        offsets.push(text.len() as u32);
        match t.kind {
            TokKind::Ident => text.push_str(&src[t.span()]),
            TokKind::Int => {
                let digits = &src[t.span()];
                let trimmed = digits.trim_start_matches('0');
                text.push_str(if trimmed.is_empty() { "0" } else { trimmed });
            }
            kind => text.push_str(kind.spelling()),
        }
    }
}

/// The body `toks` (tokens of `src`, no `Eof`) parsed into `nodes` and
/// checked against the subset, or why not. `stack` is scratch.
fn check_body(
    src: &str,
    toks: &[Token],
    nodes: &mut Vec<Slot>,
    stack: &mut Vec<u32>,
) -> Result<(), BodyStop> {
    parse_tokens(src, toks, nodes, stack).map_err(BodyStop::Parse)?;
    Parsed { src, toks, nodes }
        .check_subset(stack)
        .map_err(BodyStop::Subset)
}

/// Why a body was not accepted.
enum BodyStop {
    Parse(Stop),
    Subset(SubsetError),
}

/// The error of the rejected body `toks` (tokens of `src`), located in
/// its text, which is written into `text`.
fn reject(src: &str, toks: &[Token], stop: BodyStop, text: &mut String) -> CtlError {
    let mut offsets = Vec::with_capacity(toks.len());
    spell(src, toks, text, &mut offsets);
    match stop {
        BodyStop::Subset(e) => CtlError::Subset(e),
        BodyStop::Parse(stop) => {
            CtlError::Parse(stop.located(|i| offsets.get(i).map_or(text.len(), |&o| o as usize)))
        }
    }
}

/// Parses a property body in the acceptable subset from its source
/// spelling, as a deck spells it (comments and line breaks included):
/// the deck's tokenizer, then the grammar and subset check that
/// [`BodyReader`] runs on the deck's tokens. For the spelling of a deck
/// body this is exactly what [`parse_formula`] makes of [`body_text`],
/// error positions included; only an error builds that text.
///
/// # Errors
///
/// Returns [`CtlError::Parse`] on malformed syntax (a spelling that does
/// not lex, which no deck body is, is reported at the offending byte of
/// the spelling) and [`CtlError::Subset`] outside the acceptable subset.
pub fn parse_body(spelling: &str) -> Result<Formula, CtlError> {
    // Unlike `parse_str`, a `-` stays a token of its own, as in a deck.
    let mut toks = Vec::with_capacity(spelling.len() / 2 + 1);
    lex_into(spelling, &mut toks, &mut Vec::new()).map_err(|e| lex_error(spelling, e))?;
    toks.pop(); // `Eof`
    let mut nodes = Vec::with_capacity(toks.len());
    match check_body(spelling, &toks, &mut nodes, &mut Vec::new()) {
        Ok(()) => {
            let parsed = Parsed {
                src: spelling,
                toks: &toks,
                nodes: &nodes,
            };
            Ok(parsed.formula(parsed.root()))
        }
        Err(stop) => Err(reject(spelling, &toks, stop, &mut String::new())),
    }
}

/// The text of a property body from its source spelling: its tokens, as
/// the deck's tokenizer reads them, separated by single spaces, integers
/// printed by value (`x = -03` reads `x = - 3`). A spelling that does not
/// lex, which no deck body is, is spelled up to its first lexing error.
pub fn body_text(spelling: &str) -> String {
    let mut toks = Vec::new();
    if lex_into(spelling, &mut toks, &mut Vec::new()).is_ok() {
        toks.pop(); // `Eof`
    }
    let mut text = String::new();
    spell(spelling, &toks, &mut text, &mut Vec::new());
    text
}

/// What [`BodyReader::read`] makes of a property body.
#[derive(Debug)]
pub enum Body<'r> {
    /// The body is in the subset: the token indices (into the body) of
    /// its signal names, first occurrences in source order.
    Signals(&'r [u32]),
    /// The error [`parse_formula`] gives for the body's text.
    Rejected(CtlError),
    /// The body nests deeper than [`MAX_DEPTH`] at this token index.
    TooDeep(usize),
    /// The body's tree is taller than [`MAX_HEIGHT`] levels at this
    /// token index.
    TooTall(usize),
}

/// Reads the `SPEC` and `FAIRNESS` bodies of a tokenized deck straight
/// from the deck's tokens, with no second lexing pass. It keeps its
/// buffers between bodies, so a deck's properties share one arena.
#[derive(Debug, Default)]
pub struct BodyReader {
    nodes: Vec<Slot>,
    indices: Vec<u32>,
}

impl BodyReader {
    /// Reads the body `toks`, a nonempty slice of the tokens of `src`
    /// without `Eof`. What it returns is exactly what [`parse_formula`]
    /// makes of the body's text ([`body_text`] of its spelling), error
    /// positions included, except that nesting beyond [`MAX_DEPTH`] or a
    /// tree taller than [`MAX_HEIGHT`] names the offending token. It
    /// writes that text into `text` only when it rejects the body: the
    /// text is what a rejection's message quotes and its position points
    /// into.
    pub fn read(&mut self, src: &str, toks: &[Token], text: &mut String) -> Body<'_> {
        match check_body(src, toks, &mut self.nodes, &mut self.indices) {
            Ok(()) => {
                let parsed = Parsed {
                    src,
                    toks,
                    nodes: &self.nodes,
                };
                parsed.signals(&mut self.indices);
                Body::Signals(&self.indices)
            }
            Err(BodyStop::Parse(Stop::TooDeep { at })) => Body::TooDeep(at),
            Err(BodyStop::Parse(Stop::TooTall { at })) => Body::TooTall(at),
            Err(stop) => Body::Rejected(reject(src, toks, stop, text)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_intro_formula() {
        let f = parse_formula("AG (!stall & !reset & count = 3 & count < 5 -> AX count = 4)")
            .expect("acceptable");
        let s = f.to_string();
        assert!(s.starts_with("AG "));
        assert!(s.contains("count < 5"));
    }

    #[test]
    fn parses_until_and_nested_until() {
        let f = parse_formula("AG (p1 -> A[p2 U A[p3 U p4]])").expect("acceptable");
        assert_eq!(f.to_string(), "AG (p1 -> A[p2 U A[p3 U p4]])");
    }

    #[test]
    fn parses_af_sugar() {
        let f = parse_formula("AF done").expect("acceptable");
        assert_eq!(f.normalize().to_string(), "A[TRUE U done]");
    }

    #[test]
    fn conjunction_of_temporal_ok() {
        let f = parse_formula("AG p & AX q").expect("acceptable");
        assert!(matches!(f, Formula::And(..)));
    }

    #[test]
    fn rejects_temporal_disjunction() {
        let e = parse_formula("AG p | AX q").unwrap_err();
        assert!(matches!(e, CtlError::Subset(_)), "{e}");
    }

    #[test]
    fn rejects_existential() {
        let e = parse_formula("EF p").unwrap_err();
        assert!(matches!(e, CtlError::Subset(_)));
        let e = parse_formula("E[p U q]").unwrap_err();
        assert!(matches!(e, CtlError::Subset(_)));
    }

    #[test]
    fn rejects_temporal_negation_and_antecedent() {
        assert!(matches!(
            parse_formula("!AX p").unwrap_err(),
            CtlError::Subset(_)
        ));
        assert!(matches!(
            parse_formula("AX p -> q").unwrap_err(),
            CtlError::Subset(_)
        ));
    }

    #[test]
    fn propositional_connectives_all_allowed() {
        let f = parse_formula("(a | !b) & (c <-> d) -> AX (e != 2)").expect("acceptable");
        assert!(matches!(f, Formula::Implies(..)));
    }

    #[test]
    fn reports_parse_errors_with_position() {
        let e = parse_ctl("AG (p ->").unwrap_err();
        assert!(e.position >= 7, "{e:?}");
        assert!(parse_ctl("p $ q").is_err());
        assert!(parse_ctl("A[p q]").is_err());
        assert!(parse_ctl("p q").is_err());
    }

    #[test]
    fn negative_integers_in_comparisons() {
        let f = parse_formula("x >= -3").expect("acceptable");
        assert_eq!(f.to_string(), "x >= -3");
        // The spaced spelling a deck's body text uses.
        let f = parse_formula("AG (x = - 3 -> AX x = - 2)").expect("acceptable");
        assert_eq!(f.to_string(), "AG (x = -3 -> AX x = -2)");
        // A spaced `-` is a sign only after a comparison operator and
        // before an integer; a glued one is part of the literal anywhere.
        for (src, err) in [
            ("x = - y", "parse error at byte 4: unexpected '-'"),
            ("x = - -3", "parse error at byte 4: unexpected '-'"),
            ("- 3", "parse error at byte 0: unexpected '-'"),
            ("x = y - 1", "parse error at byte 6: unexpected '-'"),
            ("AG - 2", "parse error at byte 3: unexpected '-'"),
            ("-3", "parse error at byte 2: unexpected token"),
            ("AG -2", "parse error at byte 5: unexpected token"),
            (
                "x = y -1",
                "parse error at byte 6: trailing input after formula",
            ),
            ("= - 3", "parse error at byte 2: unexpected token"),
        ] {
            assert_eq!(parse_formula(src).unwrap_err().to_string(), err, "{src}");
        }
        for src in [
            "x = -9223372036854775808",
            "x = - 9223372036854775808",
            "p & -99999999999999999999",
        ] {
            let e = parse_ctl(src).unwrap_err();
            assert_eq!(e.message, "integer literal out of range", "{src}");
            assert_eq!(e.position, src.find('-').expect("a sign"), "{src}");
        }
        let e = parse_formula("p - 99999999999999999999").unwrap_err();
        assert_eq!(e.to_string(), "parse error at byte 2: unexpected '-'");
    }

    #[test]
    fn display_parse_roundtrip() {
        let cases = [
            "AG (p1 -> AX AX q)",
            "A[p1 U q]",
            "AG (!stall -> A[busy U done])",
            "(AG p & AX q)",
            "AG ((a & b) -> AX c)",
        ];
        for src in cases {
            let f = parse_formula(src).expect(src);
            let re = parse_formula(&f.to_string()).expect("roundtrip");
            assert_eq!(f, re, "{src}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested =
            |n: usize, open: &str, close: &str| format!("{}x{}", open.repeat(n), close.repeat(n));
        for (open, close) in [("(", ")"), ("!", ""), ("AX ", ""), ("A[x U ", "]")] {
            let ok = nested(MAX_DEPTH, open, close);
            assert!(parse_ctl(&ok).is_ok(), "{open} x {MAX_DEPTH}");
            let deep = nested(100_000, open, close);
            let e = parse_ctl(&deep).unwrap_err();
            assert_eq!(e.position, MAX_DEPTH * open.len(), "{open}");
            assert_eq!(e.message, too_deep_message());
        }
        // A long `->` chain is read in a loop, and its tree is bounded.
        let chain = vec!["x"; 100_000].join(" -> ");
        let toks = crate::tokenize(&chain).expect("lexes");
        let toks = &toks.tokens()[..toks.tokens().len() - 1];
        let mut reader = BodyReader::default();
        let body = reader.read(&chain, toks, &mut String::new());
        assert!(matches!(body, Body::TooTall(_)), "{body:?}");
    }

    #[test]
    fn height_is_bounded() {
        // An `n`-operand chain is `n` levels tall; `AX` adds one.
        for op in [" | ", " & ", " -> ", " <-> "] {
            let chain = |n: usize| vec!["x"; n].join(op);
            assert!(parse_ctl(&chain(MAX_HEIGHT)).is_ok(), "{op}");
            assert!(parse_formula(&chain(MAX_HEIGHT)).is_ok(), "{op}");
            let tall = chain(MAX_HEIGHT + 1);
            let e = parse_ctl(&tall).unwrap_err();
            assert_eq!(e.message, too_tall_message(), "{op}");
            assert!(e.position > 0, "{op}: located in the chain");
            let e = parse_ctl(&format!("AX ({})", chain(MAX_HEIGHT))).unwrap_err();
            assert_eq!(e.message, too_tall_message(), "{op}");
        }
        // The bound names the last token of the first node over it.
        let tall = vec!["x"; MAX_HEIGHT + 1].join(" | ");
        let e = parse_ctl(&tall).unwrap_err();
        assert_eq!(e.position, tall.len() - 1);
        let toks = crate::tokenize(&tall).expect("lexes");
        let toks = &toks.tokens()[..toks.tokens().len() - 1];
        let mut reader = BodyReader::default();
        let body = reader.read(&tall, toks, &mut String::new());
        assert!(
            matches!(body, Body::TooTall(i) if i == toks.len() - 1),
            "{body:?}"
        );
    }

    #[test]
    fn errors_come_in_source_order() {
        // A deck-only token before a lexing error wins, as does a stray
        // `-` before a foreign token.
        let e = parse_formula("x { $").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at byte 2: unexpected character '{'"
        );
        let e = parse_formula("- { x").unwrap_err();
        assert_eq!(e.to_string(), "parse error at byte 0: unexpected '-'");
        let e = parse_formula("A[p q]").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at byte 5: expected 'U' in until"
        );
        let e = parse_formula("& x").unwrap_err();
        assert_eq!(e.to_string(), "parse error at byte 2: unexpected token");
    }

    #[test]
    fn body_reader_matches_parse_formula_on_the_text() {
        let deck = "x = 007 & AG (y -> AX z) | EF - 3 ..";
        let toks = crate::tokenize(deck).expect("lexes");
        let toks = &toks.tokens()[..toks.tokens().len() - 1];
        let mut reader = BodyReader::default();
        let mut text = String::new();
        for end in 1..=toks.len() {
            let body = &toks[..end];
            let spelling = &deck[body[0].start as usize..body[end - 1].end as usize];
            let spaced = body_text(spelling);
            let direct = parse_formula(&spaced);
            assert_eq!(parse_body(spelling), direct, "{spelling}");
            text.clear();
            match (reader.read(deck, body, &mut text), direct) {
                (Body::Signals(s), Ok(f)) => {
                    let names: Vec<&str> =
                        s.iter().map(|&i| &deck[toks[i as usize].span()]).collect();
                    assert_eq!(names, f.signals(), "{spaced}");
                    assert!(text.is_empty(), "an accepted body is not spelled out");
                }
                (Body::Rejected(e), Err(d)) => {
                    assert_eq!(e, d, "{spaced}");
                    assert_eq!(text, spaced);
                }
                (body, direct) => panic!("{spaced}: {body:?} vs {direct:?}"),
            }
        }
        assert_eq!(text, "x = 7 & AG ( y -> AX z ) | EF - 3 ..");
    }

    #[test]
    fn a_body_reads_the_same_from_its_spelling() {
        for (spelling, text) in [
            ("AG (x = -03 -> AX x = - 2)", "AG ( x = - 3 -> AX x = - 2 )"),
            ("A[p U q] -- a comment\n  & AX\tr", "A [ p U q ] & AX r"),
            ("p -> -- no sign\n - 3", "p -> - 3"),
            ("A[p q]", "A [ p q ]"),
            ("(((p", "( ( ( p"),
            ("EF p", "EF p"),
        ] {
            assert_eq!(body_text(spelling), text, "{spelling}");
            assert_eq!(parse_body(spelling), parse_formula(text), "{spelling}");
        }
        let deep = format!("{}p{}", "(".repeat(200), ")".repeat(200));
        let e = parse_body(&deep).unwrap_err();
        assert_eq!(e, parse_formula(&body_text(&deep)).unwrap_err());
        assert_eq!(
            e.to_string(),
            format!("parse error at byte 256: {}", too_deep_message())
        );
    }
}
