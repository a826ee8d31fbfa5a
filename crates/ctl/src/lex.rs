//! The one tokenizer of the workspace: model decks and CTL properties
//! are lexed by the same code.
//!
//! A token is a kind plus a byte span of the source. An identifier's
//! text and an integer's digits are read back from the source through
//! the span, never copied. `--` starts a comment that runs to the end of
//! the line.

use std::ops::Range;

/// The deepest nesting either grammar accepts: parentheses, `!`, the
/// unary temporal operators, `A[…]`/`E[…]` and `case` each open one
/// level. Both parsers recurse once per level, so the bound keeps a
/// hostile deck from overflowing the stack. It is sized for the costlier
/// grammar in the costlier build: a debug build's deck parser overflows
/// a spawned thread's 2 MiB stack between 256 and 300 parenthesized
/// levels (the property grammar between 600 and 800), so 128 leaves a
/// twofold margin. The bundled and generated decks nest at most 19
/// levels.
pub const MAX_DEPTH: usize = 128;

/// The tallest expression tree either grammar builds: each operator,
/// every link of an operator chain included, is one level. The parsers
/// read chains in loops, but compile's evaluation, the property trees,
/// their lowering, printing and `Drop` recurse once per level, so the
/// bound keeps a long chain (`a & a & … & a`) from overflowing the stack.
/// It is sized like [`MAX_DEPTH`]: a debug build's `check` pipeline
/// (lint, parse, plan, compile, print, verify and cover) on a spawned
/// thread's 2 MiB stack overflows between 552 and 637 levels (a deck
/// expression from 552, a property from 637), so 256 leaves a twofold
/// margin. A tree is never taller than its expression has tokens, so the
/// property grammar checks only bodies longer than the bound. The bundled
/// and generated decks are at most 25 levels tall.
pub const MAX_HEIGHT: usize = 256;

/// Token kinds of the deck language; CTL properties use a subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword: a letter or `_`, then letters, digits, `_`
    /// and `.` (stopping before `..`).
    Ident,
    /// Decimal digits of a value up to `i64::MAX`.
    Int,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `..`
    DotDot,
    /// `:=`
    Assign,
    /// `!`
    Bang,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `->`
    Arrow,
    /// `<->`
    DArrow,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// End of input (an empty span).
    Eof,
}

impl TokKind {
    /// The spelling of a punctuation kind; empty for `Ident`, `Int` and
    /// `Eof`, whose text is their span.
    pub(crate) fn spelling(self) -> &'static str {
        match self {
            TokKind::Ident | TokKind::Int | TokKind::Eof => "",
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
        }
    }
}

/// A token: its kind and its byte span in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Token {
    /// The token's byte range in the source.
    pub fn span(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Why the tokenizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LexErrorKind {
    /// A byte no token starts with, shown as the `char` of that byte.
    Char(char),
    /// A `.` that does not start `..`.
    Dot,
    /// An integer literal above `i64::MAX`; the error's span holds its
    /// digits.
    IntRange,
    /// A source of 4 GiB or more (spans are 32-bit).
    TooLong,
}

/// A tokenizer error with the byte span it concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset where the offending text starts.
    pub start: usize,
    /// Byte offset one past the offending text.
    pub end: usize,
    /// What went wrong.
    pub kind: LexErrorKind,
}

/// The value of an `Int` token's digits, which the tokenizer has checked
/// to fit an `i64`.
pub fn int_value(digits: &str) -> i64 {
    digits.bytes().fold(0i64, |v, d| {
        v.wrapping_mul(10).wrapping_add(i64::from(d - b'0'))
    })
}

/// A tokenized source: its tokens, ending in one `Eof`, and the byte
/// offset of every line start.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    src: &'a str,
    toks: Vec<Token>,
    line_starts: Vec<u32>,
}

impl<'a> Tokens<'a> {
    /// The source the spans point into.
    pub fn source(&self) -> &'a str {
        self.src
    }

    /// Every token, the final `Eof` included.
    pub fn tokens(&self) -> &[Token] {
        &self.toks
    }

    /// The source text of `tok`.
    pub fn text(&self, tok: Token) -> &'a str {
        &self.src[tok.span()]
    }

    /// The byte offset of every line start, the first line's (0)
    /// included.
    pub fn line_starts(&self) -> &[u32] {
        &self.line_starts
    }

    /// The 1-based line and byte column of byte offset `pos`.
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&s| s as usize <= pos);
        let start = self.line_starts[line - 1] as usize;
        (line, pos - start + 1)
    }
}

/// Tokenizes `src`.
///
/// The token buffer is reserved for one token per two source bytes, so
/// it never regrows on a generated deck: the densest, the `counter_m*`
/// decks with a `SPEC` per counter value, spend about 2.5 bytes per token
/// (`counter_m100`: 8,309 bytes, 3,358 tokens), the `pipeline_d*` decks
/// 3.7 and more. The line table is reserved for one line per 16 bytes (the
/// pipelines' lines average 26).
///
/// # Errors
///
/// Returns the first [`LexError`].
pub fn tokenize(src: &str) -> Result<Tokens<'_>, LexError> {
    let mut toks = Vec::with_capacity(src.len() / 2 + 2);
    let mut line_starts = Vec::with_capacity(src.len() / 16 + 1);
    lex_into(src, &mut toks, &mut line_starts)?;
    Ok(Tokens {
        src,
        toks,
        line_starts,
    })
}

/// Lexes `src` onto `toks`, ending in one `Eof`, and pushes the byte
/// offset of every line start onto `line_starts`. On an error `toks`
/// holds the tokens before it, and no `Eof`.
///
/// One loop reads the whole source; a token is pushed where it ends. The
/// `Eof` of a source that ends inside a comment sits where the comment
/// starts.
pub(crate) fn lex_into(
    src: &str,
    toks: &mut Vec<Token>,
    line_starts: &mut Vec<u32>,
) -> Result<(), LexError> {
    if u32::try_from(src.len()).is_err() {
        return Err(LexError {
            start: 0,
            end: 0,
            kind: LexErrorKind::TooLong,
        });
    }
    let bytes = src.as_bytes();
    let error = |start: usize, end: usize, kind| Err(LexError { start, end, kind });
    line_starts.push(0);
    let mut eof_at = bytes.len();
    let mut pos = 0;
    while let Some(&c) = bytes.get(pos) {
        let start = pos;
        let next = bytes.get(pos + 1).copied();
        let (kind, len) = match c {
            b' ' | b'\t' | b'\r' | b'\x0c' => {
                pos += 1;
                continue;
            }
            b'\n' => {
                pos += 1;
                line_starts.push(pos as u32);
                continue;
            }
            b'-' if next == Some(b'-') => {
                match bytes[pos..].iter().position(|&b| b == b'\n') {
                    Some(len) => pos += len,
                    None => {
                        eof_at = pos;
                        pos = bytes.len();
                    }
                }
                continue;
            }
            b'(' => (TokKind::LParen, 1),
            b')' => (TokKind::RParen, 1),
            b'{' => (TokKind::LBrace, 1),
            b'}' => (TokKind::RBrace, 1),
            b'[' => (TokKind::LBracket, 1),
            b']' => (TokKind::RBracket, 1),
            b';' => (TokKind::Semi, 1),
            b',' => (TokKind::Comma, 1),
            b'+' => (TokKind::Plus, 1),
            b'&' => (TokKind::Amp, 1),
            b'|' => (TokKind::Pipe, 1),
            b'=' => (TokKind::Eq, 1),
            b':' if next == Some(b'=') => (TokKind::Assign, 2),
            b':' => (TokKind::Colon, 1),
            b'.' if next == Some(b'.') => (TokKind::DotDot, 2),
            b'.' => return error(start, start + 1, LexErrorKind::Dot),
            b'!' if next == Some(b'=') => (TokKind::Ne, 2),
            b'!' => (TokKind::Bang, 1),
            b'<' if next == Some(b'=') => (TokKind::Le, 2),
            b'<' if next == Some(b'-') && bytes.get(start + 2) == Some(&b'>') => {
                (TokKind::DArrow, 3)
            }
            b'<' => (TokKind::Lt, 1),
            b'>' if next == Some(b'=') => (TokKind::Ge, 2),
            b'>' => (TokKind::Gt, 1),
            b'-' if next == Some(b'>') => (TokKind::Arrow, 2),
            b'-' => (TokKind::Minus, 1),
            b'0'..=b'9' => {
                let len = bytes[start..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                // Eighteen digits always fit; longer runs are checked.
                if len > 18 && src[start..start + len].parse::<i64>().is_err() {
                    return error(start, start + len, LexErrorKind::IntRange);
                }
                (TokKind::Int, len)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut end = start + 1;
                while let Some(&b) = bytes.get(end) {
                    let part = b.is_ascii_alphanumeric()
                        || b == b'_'
                        || (b == b'.' && bytes.get(end + 1) != Some(&b'.'));
                    if !part {
                        break;
                    }
                    end += 1;
                }
                (TokKind::Ident, end - start)
            }
            other => return error(start, start + 1, LexErrorKind::Char(other as char)),
        };
        pos = start + len;
        toks.push(Token {
            kind,
            start: start as u32,
            end: pos as u32,
        });
    }
    toks.push(Token {
        kind: TokKind::Eof,
        start: eof_at as u32,
        end: eof_at as u32,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        tokenize(src)
            .expect(src)
            .tokens()
            .iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn spans_borrow_the_source() {
        let toks = tokenize("AG (req.x -> AX 007)").expect("lexes");
        let texts: Vec<&str> = toks.tokens().iter().map(|&t| toks.text(t)).collect();
        assert_eq!(texts, ["AG", "(", "req.x", "->", "AX", "007", ")", ""]);
        assert_eq!(int_value("007"), 7);
        assert_eq!(int_value("9223372036854775807"), i64::MAX);
    }

    #[test]
    fn minus_is_its_own_token() {
        use TokKind::*;
        assert_eq!(kinds("x = -3"), [Ident, Eq, Minus, Int, Eof]);
        assert_eq!(kinds("a->b<->c"), [Ident, Arrow, Ident, DArrow, Ident, Eof]);
        assert_eq!(kinds("a -- b\n- 3"), [Ident, Minus, Int, Eof]);
    }

    #[test]
    fn integer_range_is_checked() {
        assert!(tokenize("9223372036854775807").is_ok());
        assert!(tokenize("0009223372036854775807").is_ok());
        let e = tokenize("x 9223372036854775808").unwrap_err();
        assert_eq!((e.start, e.end, e.kind), (2, 21, LexErrorKind::IntRange));
        let e = tokenize("a . b").unwrap_err();
        assert_eq!((e.start, e.kind), (2, LexErrorKind::Dot));
        let e = tokenize("a $").unwrap_err();
        assert_eq!((e.start, e.kind), (2, LexErrorKind::Char('$')));
    }

    #[test]
    fn lines_and_the_end_of_a_trailing_comment() {
        let toks = tokenize("a\n  bb -- c").expect("lexes");
        let t = toks.tokens();
        assert_eq!(toks.line_col(t[0].start as usize), (1, 1));
        assert_eq!(toks.line_col(t[1].start as usize), (2, 3));
        // `Eof` sits where the trailing comment starts.
        assert_eq!(toks.line_col(t[2].start as usize), (2, 6));
        let toks = tokenize("a -- c\n").expect("lexes");
        assert_eq!(toks.line_col(toks.tokens()[1].start as usize), (2, 1));
    }
}
