//! A golden corpus of malformed and borderline `SPEC`/`FAIRNESS`
//! bodies. For each one the deck parser's stored result — the body text,
//! its signal names or its error (byte offsets included), and
//! `Module::property_error` — must match `golden_bodies.txt`, which was
//! recorded with the earlier parser that re-lexed each body's text with
//! a second, CTL-only lexer.
//!
//! The recording predates two fixes. `FIXED` lists every entry the
//! first one changes: a `-` between a comparison operator and an integer
//! is a negative literal. The second, the nesting bound, changes no entry
//! here; deep bodies are tested in `crates/cli/tests/robustness.rs`,
//! since the earlier parser overflowed its stack on them.

use std::fmt::Write as _;

use covest_smv::{parse_module, SpecDecl};

/// Bodies written out one by one: every parse and subset error, deck-only
/// tokens inside a body, unterminated and empty bodies, integer edges.
const BODIES: &[&str] = &[
    // Accepted, for the text and signal order.
    "AG (p -> AX q)",
    "A[p U A[q U r]]",
    "AF p & AG (q -> AX AX r)",
    "x = 007 & y != 00 -> AX x = 0",
    "x = y & y = x & z < 3",
    "TRUE & FALSE | true -> false",
    "x = TRUE",
    "x = AX",
    "U = 3 & A[U U U]",
    "a.b & a.b.c -> AX a.b",
    "x = 9223372036854775807",
    "x = 0009223372036854775807",
    "AG p -- a comment inside the body\n",
    "(((((((((((((((((((p)))))))))))))))))))",
    "!!!!!!!!!!p",
    "p -> q -> r -> AX s",
    "p <-> q <-> r",
    // expected '[' after path quantifier
    "A p",
    "E x",
    "A",
    "AG A",
    "A (p U q)",
    // expected 'U' in until
    "A[p q]",
    "A[p]",
    "A[p & q r]",
    "E[p -> q V r]",
    "A[p u q]",
    "A[p U",
    "A[p (",
    "A[p 3]",
    "A[p = 3 4]",
    "A[x = - 3 4]",
    // expected ']' closing until
    "A[p U q",
    "A[p U q)",
    "E[p U q q]",
    "A[p U q U r]",
    // expected ')'
    "(p",
    "((p)",
    "(p q)",
    "AG (p -> AX q",
    "(p ]",
    "(x = 3 4)",
    // expected integer or identifier after comparison
    "x =",
    "x = (",
    "x = = 3",
    "x != !y",
    "x >= )",
    "x <= [",
    "x < & y",
    "x > -> y",
    // unexpected token
    ")",
    "& p",
    "p & )",
    "3",
    "AG 3",
    "[p]",
    "]",
    "AX ]",
    "-> p",
    "<-> p",
    "= 3",
    "!=",
    "p | | q",
    "!)",
    "AG (3)",
    // unexpected end of input
    "AG",
    "!",
    "p &",
    "p ->",
    "AX AX",
    "p <->",
    "(",
    "A[",
    "A[p U",
    "p |",
    "E[p U q & ",
    // trailing input after formula
    "p q",
    "p )",
    "x = 3 y",
    "AG p AX q",
    "p ]",
    "A[p U q] ]",
    "TRUE = x",
    "p U q",
    "x = y z",
    "(p) (q)",
    "p 3",
    // deck-only tokens inside a body
    "{",
    "}",
    "{ p }",
    ":",
    "x : y",
    ",",
    "p , q",
    "..",
    "x = 0..3",
    ":=",
    "x := 1",
    "+",
    "x + 1 = 2",
    "x = y + 1",
    "p & { q",
    "AG (p -> { )",
    "x : boolean",
    "next ( x ) = 1",
    "init(x)",
    "p ; q",
    "case p : q; esac",
    "p & (q , r)",
    "A[p U q] , r",
    "x = 1 .. 2 & {",
    // stray minus
    "-",
    "- x",
    "p -",
    "x = y - 1",
    "x - y",
    "x = - y",
    "x = - (3)",
    "- { x",
    "p & - TRUE",
    // subset errors
    "EX p",
    "EF p",
    "EG p",
    "E[p U q]",
    "AG p | AX q",
    "!AX p",
    "AX p -> q",
    "(AG p) <-> q",
    "AG (p | AX q)",
    "AG EF p",
    "AX p & EX q",
    "p -> (AX q | r)",
    "!(AG p)",
    "AG (AX p -> q)",
    "A[EX p U q]",
    "A[p U EG q]",
    "AG !AX p",
    "AF (p <-> AX q)",
    "(AG p | AX q) & EX r",
    "AX p -> EX q",
    "E[p U q] & AG r",
    "AG (p -> AX q) | AG r",
    // integer edges (the deck lexer rejects literals beyond i64::MAX)
    "x = 9223372036854775808",
    "x = 99999999999999999999999",
    "x = 0",
    "x = 00000",
    "x < 10 & x > 0009",
    // unterminated and empty bodies are deck errors
    "",
    "   ",
    "-- only a comment\n",
    // negative literals (the fix changes those after a comparison operator)
    "x = - 3",
    "x = -3",
    "AG (x = - 3 -> AX x = - 2)",
    "x >= - 0",
    "x = - 9223372036854775807",
    "- 3",
    "x = - 3 4",
    "A[p - 3 U q]",
    "x = - 3 & {",
];

/// Prefixes and tails crossed to reach the corners between rules.
const PREFIXES: &[&str] = &["", "AG ", "AX ", "!", "A[p U ", "(", "p -> ", "p & ", "EX "];
const TAILS: &[&str] = &[
    "q", ")", "q )", "x = ", "x = 3 ]", "{ q }", "q U r", "EF q", "x + 1", "AG q | r", "- 2",
    "x = - 2", "",
];

fn corpus() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    for body in BODIES {
        out.push(("SPEC", (*body).to_owned()));
    }
    for prefix in PREFIXES {
        for tail in TAILS {
            out.push(("SPEC", format!("{prefix}{tail}")));
        }
    }
    // FAIRNESS stores the same parse; its compile error differs.
    for body in [
        "p",
        "!p & q",
        "AG p",
        "EF p",
        "p & & q",
        "x = - 1",
        "{",
        "AX p -> q",
        "(p",
    ] {
        out.push(("FAIRNESS", body.to_owned()));
    }
    out
}

fn describe(decl: &SpecDecl) -> String {
    match decl.signals() {
        Ok(names) => {
            let names: Vec<&str> = names.iter().map(|n| &**n).collect();
            format!("signals [{}]", names.join(" "))
        }
        Err(e) => format!("error {e}"),
    }
}

/// One line per corpus entry.
fn render(kind: &str, body: &str) -> String {
    let deck = format!(
        "MODULE main\nVAR x : -3..3; y : 0..7; z : 0..7; p : boolean; q : boolean; \
         r : boolean; s : boolean;\n{kind} {body};\n"
    );
    let mut line = format!("{kind} {body:?} => ");
    match parse_module(&deck) {
        Err(e) => write!(line, "deck error {e}").expect("write to string"),
        Ok(m) => {
            let decl = if kind == "SPEC" {
                &m.specs[0]
            } else {
                &m.fairness[0]
            };
            let compiled = m
                .property_error()
                .map_or_else(|| "none".to_owned(), |e| e.to_string());
            write!(
                line,
                "text {:?}; {}; property_error {compiled}",
                decl.text(),
                describe(decl)
            )
            .expect("write to string");
        }
    }
    line
}

/// The entries the negative-literal fix changes, with their new lines.
const FIXED: &[(&str, &str)] = &[
    (
        r#"SPEC "A[x = - 3 4]""#,
        r#"text "A [ x = - 3 4 ]"; error parse error at byte 14: expected 'U' in until; property_error model error: SPEC `A [ x = - 3 4 ]`: parse error at byte 14: expected 'U' in until"#,
    ),
    (
        r#"SPEC "x = - 3""#,
        r#"text "x = - 3"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "x = -3""#,
        r#"text "x = - 3"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "AG (x = - 3 -> AX x = - 2)""#,
        r#"text "AG ( x = - 3 -> AX x = - 2 )"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "x >= - 0""#,
        r#"text "x >= - 0"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "x = - 9223372036854775807""#,
        r#"text "x = - 9223372036854775807"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "x = - 3 4""#,
        r#"text "x = - 3 4"; error parse error at byte 8: trailing input after formula; property_error model error: SPEC `x = - 3 4`: parse error at byte 8: trailing input after formula"#,
    ),
    (
        r#"SPEC "x = - 3 & {""#,
        r#"text "x = - 3 & {"; error parse error at byte 10: unexpected character '{'; property_error model error: SPEC `x = - 3 & {`: parse error at byte 10: unexpected character '{'"#,
    ),
    (
        r#"SPEC "x = - 2""#,
        r#"text "x = - 2"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "AG x = - 2""#,
        r#"text "AG x = - 2"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "AX x = - 2""#,
        r#"text "AX x = - 2"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "!x = - 2""#,
        r#"text "! x = - 2"; signals [x]; property_error none"#,
    ),
    (
        r#"SPEC "A[p U x = - 2""#,
        r#"text "A [ p U x = - 2"; error parse error at byte 15: expected ']' closing until; property_error model error: SPEC `A [ p U x = - 2`: parse error at byte 15: expected ']' closing until"#,
    ),
    (
        r#"SPEC "(x = - 2""#,
        r#"text "( x = - 2"; error parse error at byte 9: expected ')'; property_error model error: SPEC `( x = - 2`: parse error at byte 9: expected ')'"#,
    ),
    (
        r#"SPEC "p -> x = - 2""#,
        r#"text "p -> x = - 2"; signals [p x]; property_error none"#,
    ),
    (
        r#"SPEC "p & x = - 2""#,
        r#"text "p & x = - 2"; signals [p x]; property_error none"#,
    ),
    (
        r#"SPEC "EX x = - 2""#,
        r#"text "EX x = - 2"; error formula outside the acceptable ACTL subset: E... (existential path quantifiers are not universal (ACTL) formulas); property_error model error: SPEC `EX x = - 2`: formula outside the acceptable ACTL subset: E... (existential path quantifiers are not universal (ACTL) formulas)"#,
    ),
    (
        r#"FAIRNESS "x = - 1""#,
        r#"text "x = - 1"; signals [x]; property_error none"#,
    ),
];

#[test]
fn stored_body_parse_matches_the_recorded_corpus() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_bodies.txt");
    let rendered: Vec<String> = corpus()
        .iter()
        .map(|(kind, body)| render(kind, body))
        .collect();
    let golden = std::fs::read_to_string(path).expect("golden file");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        rendered.len(),
        "corpus and golden file differ in size"
    );
    assert!(rendered.len() >= 200, "{} bodies", rendered.len());
    let mut fixed_seen = 0;
    for (recorded, now) in golden.iter().zip(&rendered) {
        let (entry, _) = now.split_once(" => ").expect("entry");
        match FIXED.iter().find(|(e, _)| *e == entry) {
            Some((_, fixed)) => {
                fixed_seen += 1;
                assert_eq!(now, &format!("{entry} => {fixed}"), "fixed entry changed");
                assert!(
                    recorded.contains("unexpected '-'"),
                    "the recording rejected the `-`: {recorded}"
                );
            }
            None => assert_eq!(now, recorded),
        }
    }
    assert_eq!(
        fixed_seen,
        FIXED.len(),
        "every fixed entry is in the corpus"
    );
}
