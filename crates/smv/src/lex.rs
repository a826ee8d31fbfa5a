//! The deck's view of the shared tokenizer ([`covest_ctl::tokenize`]):
//! tokens are kinds plus byte spans, and lexing errors become
//! [`ModelError`]s with a line and column.

use covest_ctl::LexErrorKind;
pub use covest_ctl::{TokKind, Token, Tokens};

use crate::error::ModelError;

/// Tokenizes a deck. `--` starts a comment to end of line.
///
/// # Errors
///
/// Returns a [`ModelError`] at the first character no token starts with,
/// a `.` that does not start `..`, or an integer above `i64::MAX`.
pub fn lex(src: &str) -> Result<Tokens<'_>, ModelError> {
    covest_ctl::tokenize(src).map_err(|e| {
        let message = match e.kind {
            LexErrorKind::Char(c) => format!("unexpected character {c:?}"),
            LexErrorKind::Dot => "unexpected '.'".to_owned(),
            LexErrorKind::IntRange => format!("integer `{}` out of range", &src[e.start..e.end]),
            LexErrorKind::TooLong => format!("a deck of {} bytes is too long", src.len()),
        };
        let before = &src.as_bytes()[..e.start];
        let line = 1 + before.iter().filter(|&&b| b == b'\n').count();
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        ModelError::new(line, e.start - line_start + 1, message)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each token's kind with its text.
    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        let toks = lex(src).expect(src);
        toks.tokens()
            .iter()
            .map(|&t| (t.kind, toks.text(t)))
            .collect()
    }

    #[test]
    fn lexes_declarations() {
        let ks = kinds("VAR x : 0..7;");
        assert_eq!(
            ks,
            vec![
                (TokKind::Ident, "VAR"),
                (TokKind::Ident, "x"),
                (TokKind::Colon, ":"),
                (TokKind::Int, "0"),
                (TokKind::DotDot, ".."),
                (TokKind::Int, "7"),
                (TokKind::Semi, ";"),
                (TokKind::Eof, ""),
            ]
        );
    }

    #[test]
    fn lexes_assignment_and_operators() {
        let ks: Vec<TokKind> = kinds("next(x) := !a & b -> c <-> d != 2;")
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert!(ks.contains(&TokKind::Assign));
        assert!(ks.contains(&TokKind::Bang));
        assert!(ks.contains(&TokKind::Arrow));
        assert!(ks.contains(&TokKind::DArrow));
        assert!(ks.contains(&TokKind::Ne));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a -- the rest is gone ; := x\nb");
        assert_eq!(
            ks,
            vec![
                (TokKind::Ident, "a"),
                (TokKind::Ident, "b"),
                (TokKind::Eof, "")
            ]
        );
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("x\n  y").expect("lexes");
        let t = toks.tokens();
        assert_eq!(toks.line_col(t[0].start as usize), (1, 1));
        assert_eq!(toks.line_col(t[1].start as usize), (2, 3));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("a $ b").is_err());
        assert!(lex("a . b").is_err());
        let e = lex("VAR\n  x : 0..99999999999999999999;").unwrap_err();
        assert_eq!((e.line, e.column), (2, 10));
        assert_eq!(e.message, "integer `99999999999999999999` out of range");
        let e = lex("a\n . b").unwrap_err();
        assert_eq!(e.to_string(), "model error at 2:2: unexpected '.'");
    }
}
