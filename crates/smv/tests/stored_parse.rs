//! The deck parser parses every `SPEC` and `FAIRNESS` body once and
//! stores what static analysis needs. These tests hold that stored
//! result to the CTL parser's own: the same signal names in the same
//! order, or an error with the same text. They also hold
//! `Module::property_error` to the error compile reports, and check on
//! the same decks that a machine's cached reachable set is closed under
//! successors, which `ModelChecker::set_care` relies on without
//! re-checking it.

use std::path::{Path, PathBuf};

use covest_bdd::BddManager;
use covest_circuits::sized_decks;
use covest_ctl::parse_formula;
use covest_smv::{compile, parse_module};

/// Checks every property of `src`; returns how many there were, or
/// `None` when the deck itself does not parse.
fn check_stored_parse(name: &str, src: &str) -> Option<usize> {
    let module = parse_module(src).ok()?;
    for s in module.specs.iter().chain(&module.fairness) {
        let text = s.text();
        match (parse_formula(text), s.signals()) {
            (Ok(f), Ok(signals)) => {
                let stored: Vec<&str> = signals.iter().map(|n| &**n).collect();
                assert_eq!(f.signals(), stored, "{name}: `{text}`")
            }
            (Err(e), Err(stored)) => {
                assert_eq!(e.to_string(), stored.to_string(), "{name}: `{text}`")
            }
            (fresh, stored) => panic!("{name}: `{text}`: {fresh:?} vs {stored:?}"),
        }
    }
    Some(module.specs.len() + module.fairness.len())
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

/// `models/*.smv` and the `gen-models --size 6` decks.
fn bundled_and_sized_decks() -> Vec<(String, String)> {
    let mut decks = decks_in(&models());
    decks.extend(sized_decks(6));
    decks
}

#[test]
fn stored_property_parse_matches_the_ctl_parser() {
    let mut decks = bundled_and_sized_decks();
    decks.extend(decks_in(&models().join("lint_fixtures")));
    // Bodies the CTL parser rejects, or accepts where compile would not.
    decks.push((
        "bad-bodies".into(),
        "VAR x : boolean; y : boolean;\nASSIGN next(x) := x; next(y) := y;\n\
         SPEC EF (x & &);\nSPEC A [x U y];\nFAIRNESS AG x;\nFAIRNESS EG x;\nFAIRNESS x | (;\n"
            .into(),
    ));

    let mut properties = 0;
    let mut unparsed = 0;
    for (name, src) in &decks {
        match check_stored_parse(name, src) {
            Some(n) => properties += n,
            None => unparsed += 1,
        }
    }
    assert_eq!(unparsed, 1, "only the parse_error fixture fails to parse");
    assert!(properties >= 60, "{properties} properties checked");
}

#[test]
fn reachable_sets_are_closed_under_successors() {
    let decks = bundled_and_sized_decks();
    assert!(decks.len() >= 6, "{} decks", decks.len());
    for (name, src) in &decks {
        let model = compile(&BddManager::new(), src).expect(name);
        let fsm = &model.fsm;
        let reach = fsm.reachable();
        assert!(
            fsm.image(&reach).leq(&reach),
            "{name}: image(reach) ⊄ reach"
        );
        assert!(fsm.is_cached_reachable(&reach), "{name}: reach is cached");
        assert!(
            !fsm.is_cached_reachable(&reach.not()),
            "{name}: only the cached set matches"
        );
    }
}

#[test]
fn property_error_is_the_error_compile_reports() {
    for deck in [
        "SPEC EG x;",
        "SPEC AG (x & &);",
        "SPEC AG x;\nFAIRNESS x & & x;",
        "SPEC AG x;\nFAIRNESS EG x;",
    ] {
        let src = format!("VAR x : boolean;\nASSIGN init(x) := FALSE; next(x) := !x;\n{deck}\n");
        let module = parse_module(&src).expect("deck parses");
        let stored = module.property_error().expect("a body is rejected");
        let compiled = compile(&BddManager::new(), &src).unwrap_err();
        assert_eq!(stored, compiled, "{deck}");
    }
    let clean = parse_module("VAR x : boolean;\nSPEC AG x;\nFAIRNESS AG x;\n").expect("parses");
    assert_eq!(clean.property_error(), None, "compile rejects `AG x` later");
}
