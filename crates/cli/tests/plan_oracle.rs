//! The planner's per-deck step, `plan_machine`, against a naive,
//! name-keyed reference (`naive_plan`): the same tasks, the same reduce
//! decision and a `Debug`-equal module to compile, on every shipped,
//! fixture and sized deck, and on decks that stress name resolution.

mod naive_plan;

use std::path::{Path, PathBuf};

use naive_plan::assert_plan_matches;

fn models() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

/// The `.smv` decks of `dir`, sorted by path.
fn decks_in(dir: &Path) -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("deck directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("readable deck");
            (p.display().to_string(), src)
        })
        .collect()
}

/// Plans `src` for its `OBSERVED` list, for that list reversed with its
/// first entry repeated, and for each declared name alone.
fn check_deck(name: &str, src: &str) {
    let Ok(module) = covest_smv::parse_module(src) else {
        return;
    };
    let observed: Vec<String> = module.observed.iter().map(|o| o.name.clone()).collect();
    let mut shuffled: Vec<String> = observed.iter().rev().cloned().collect();
    shuffled.extend(observed.first().cloned());
    let mut sets = vec![observed, shuffled];
    let declared = module
        .vars
        .iter()
        .map(|d| &d.name)
        .chain(module.defines.iter().map(|d| &d.name));
    sets.extend(declared.map(|n| vec![n.clone()]));
    for signals in &sets {
        assert_plan_matches(&module, signals, &format!("{name} {signals:?}"));
    }
}

#[test]
fn planner_matches_the_naive_reference_on_every_shipped_deck() {
    let mut decks = decks_in(&models());
    decks.extend(decks_in(&models().join("lint_fixtures")));
    decks.extend(covest_circuits::sized_decks(6));
    decks.extend(covest_circuits::sized_decks(20));
    assert!(decks.len() >= 16, "{} decks", decks.len());
    for (name, src) in &decks {
        check_deck(name, src);
    }
}

const HEAD: &str = "MODULE main\nVAR a : boolean;\n    b : boolean;\n    x : boolean;\n    \
    y : boolean;\n";
const ASSIGN: &str = "ASSIGN\n  init(a) := FALSE; next(a) := !a;\n  \
    init(b) := FALSE; next(b) := b;\n  init(y) := FALSE; next(y) := y;\n";

/// A deck over `a`, `b`, `x` and `y` with `rest` (more declarations and
/// `next(x)`), one property over `y` and `x` observed.
fn deck(rest: &str) -> String {
    format!("{HEAD}{rest}{ASSIGN}SPEC AG (y | !y);\nOBSERVED x;\n")
}

/// Decks where names resolve in more than one way: literals shadowed by
/// variables and `DEFINE`s, literals two enumerations declare, repeated
/// variable and `DEFINE` names (an error for every signal set, the
/// empty one included), `DEFINE`s named like variables, `DEFINE` cycles
/// in every declaration order, undefined names, and repeated analyzed
/// signals.
#[test]
fn planner_matches_the_naive_reference_on_name_resolution_edges() {
    let cases = [
        // An enumeration literal shadowed by a variable, then by a DEFINE.
        deck("    m : {a, idle};\n    idle2 : {idle, run};\nDEFINE run := b;\nASSIGN init(x) := FALSE; next(x) := m = a & idle2 = run;\n  init(m) := idle; next(m) := m;\n  init(idle2) := idle; next(idle2) := idle2;\n"),
        // A literal two enumerations declare: the first declaration owns it.
        deck("    p : {lo, hi};\n    q : {hi, top};\nASSIGN init(x) := FALSE; next(x) := q = hi;\n  init(p) := lo; next(p) := case a : hi; TRUE : lo; esac;\n  init(q) := hi; next(q) := q;\n"),
        // A repeated DEFINE name: rejected, whether or not the cone
        // reaches it.
        deck("DEFINE d := a;\n       d := b;\nASSIGN init(x) := FALSE; next(x) := d;\n"),
        deck("DEFINE d := b;\n       d := a;\n       e := d;\nASSIGN init(x) := FALSE; next(x) := e;\n"),
        // A repeated variable name: rejected too.
        deck("    a : 0..3;\nASSIGN init(x) := FALSE; next(x) := a = 2;\n"),
        deck("    x : 0..3;\nASSIGN init(x) := FALSE; next(x) := b;\n"),
        // A DEFINE named like a variable: the variable wins.
        deck("DEFINE a := b;\n       c := a;\nASSIGN init(x) := FALSE; next(x) := c;\n"),
        // DEFINE cycles: two members, in both orders, with the signal
        // reading the member declared second; three members; a self-loop.
        deck("DEFINE p := q | a;\n       q := p & b;\nASSIGN init(x) := FALSE; next(x) := q;\n"),
        deck("DEFINE q := p & b;\n       p := q | a;\nASSIGN init(x) := FALSE; next(x) := p;\n"),
        deck("DEFINE p := r | a;\n       q := p;\n       r := q & b;\nASSIGN init(x) := FALSE; next(x) := q;\n"),
        deck("DEFINE s := s | a;\nASSIGN init(x) := FALSE; next(x) := s;\n"),
        // Undefined names in an assignment, a DEFINE, a property and the
        // OBSERVED list.
        deck("DEFINE g := ghost | b;\nASSIGN init(x) := FALSE; next(x) := g & phantom;\n"),
        format!("{HEAD}ASSIGN init(x) := FALSE; next(x) := x;\n{ASSIGN}SPEC AG (y | nowhere);\nOBSERVED x, missing;\n"),
        // FAIRNESS seeds every cone.
        format!("{HEAD}ASSIGN init(x) := FALSE; next(x) := x;\n{ASSIGN}SPEC AG (y | !y);\nFAIRNESS b;\nOBSERVED x;\n"),
    ];
    let signal_sets: [&[&str]; 7] = [
        &["x"],
        &["x", "x"],
        &["y", "x", "y"],
        &["a"],
        &["d"],
        &["q", "p"],
        &["nope"],
    ];
    for (i, src) in cases.iter().enumerate() {
        let module =
            covest_smv::parse_module(src).unwrap_or_else(|e| panic!("case {i} parses: {e}\n{src}"));
        for signals in signal_sets {
            let signals: Vec<String> = signals.iter().map(|s| s.to_string()).collect();
            assert_plan_matches(&module, &signals, &format!("case {i} {signals:?}\n{src}"));
        }
        check_deck(&format!("case {i}"), src);
    }
}
