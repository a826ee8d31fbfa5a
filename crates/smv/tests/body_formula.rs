//! Compile reads each `SPEC` and `FAIRNESS` formula from the body's
//! source spelling (`SpecDecl::formula`: the deck's tokenizer, then the
//! property grammar and subset check), not from its spaced text. These
//! tests hold that route to the text route, `parse_formula(decl.text())`,
//! on every bundled, fixture and `--size 6` deck and on every body of the
//! golden corpus (`golden_bodies.txt`) whose deck parses: the same
//! formula, printed the same, or the same error.

use std::path::{Path, PathBuf};

use covest_circuits::sized_decks;
use covest_ctl::parse_formula;
use covest_smv::{parse_module, SpecDecl};

/// Checks one declaration; the spelling is read before the text exists.
fn check_decl(name: &str, decl: &SpecDecl) {
    let fresh = decl.formula();
    let text = decl.text();
    let direct = parse_formula(text);
    assert_eq!(fresh, direct, "{name}: {decl:?}");
    let printed = |r: &Result<_, _>| match r {
        Ok(f) => format!("ok {f}"),
        Err(e) => format!("error {e}"),
    };
    assert_eq!(printed(&fresh), printed(&direct), "{name}: `{text}`");
    assert_eq!(decl.signals().is_ok(), fresh.is_ok(), "{name}: `{text}`");
}

/// Checks every property of `src`; returns how many `SPEC`s and
/// `FAIRNESS`es there were, none when the deck itself does not parse.
fn check_deck(name: &str, src: &str) -> (usize, usize) {
    let Ok(module) = parse_module(src) else {
        return (0, 0);
    };
    for decl in module.specs.iter().chain(&module.fairness) {
        check_decl(name, decl);
    }
    (module.specs.len(), module.fairness.len())
}

fn decks_in(dir: &Path) -> Vec<(String, String)> {
    let mut decks: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("deck directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable deck");
            (p.display().to_string(), src)
        })
        .collect();
    decks.sort();
    decks
}

fn models() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

#[test]
fn spelling_route_matches_the_text_route_on_decks() {
    let mut decks = decks_in(&models());
    decks.extend(decks_in(&models().join("lint_fixtures")));
    decks.extend(sized_decks(6));
    let (mut specs, mut fairness) = (0, 0);
    for (name, src) in &decks {
        let (s, f) = check_deck(name, src);
        specs += s;
        fairness += f;
    }
    assert!(
        specs >= 61 && fairness >= 2,
        "{specs} SPECs, {fairness} FAIRNESSes"
    );
}

/// A Rust string literal's contents up to its closing quote. The corpus
/// escapes only `\n`, `\t`, `\"` and `\\`.
fn unquote(s: &str) -> String {
    let mut out = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return out,
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(c @ ('"' | '\\')) => out.push(c),
                other => panic!("unexpected escape {other:?} in {s}"),
            },
            c => out.push(c),
        }
    }
    panic!("unterminated literal: {s}")
}

#[test]
fn spelling_route_matches_the_text_route_on_the_golden_corpus() {
    let golden = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_bodies.txt"),
    )
    .expect("golden corpus");
    let (mut parsed, mut rejected) = (0, 0);
    for line in golden.lines() {
        let (kind, rest) = line.split_once(' ').expect("a kind");
        let body = unquote(rest.strip_prefix('"').expect("a quoted body"));
        // The deck `golden_bodies.rs` wraps each body in.
        let deck = format!(
            "MODULE main\nVAR x : -3..3; y : 0..7; z : 0..7; p : boolean; q : boolean; \
             r : boolean; s : boolean;\n{kind} {body};\n"
        );
        let Ok(m) = parse_module(&deck) else {
            continue;
        };
        let decl = if kind == "SPEC" {
            &m.specs[0]
        } else {
            &m.fairness[0]
        };
        check_decl(line, decl);
        parsed += 1;
        rejected += usize::from(decl.signals().is_err());
    }
    assert_eq!((parsed, rejected), (277, 234));
}
