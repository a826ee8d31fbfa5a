//! Golden lint tests: every seeded fixture deck under
//! `models/lint_fixtures/` is flagged with exactly the defect it seeds,
//! and every shipped deck under `models/` lints clean.

use std::path::PathBuf;

use covest_analyze::{lint_source, rules, LintReport, Severity};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lint_file(rel: &str) -> LintReport {
    let path = repo_root().join(rel);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    lint_source(&src)
}

/// One expected finding: `(rule, severity, line, name)`.
type Expected = (&'static str, Severity, usize, &'static str);

fn assert_findings(rel: &str, expected: &[Expected]) {
    let report = lint_file(rel);
    let got: Vec<(&str, Severity, usize, &str)> = report
        .diagnostics
        .iter()
        .map(|d| (d.rule, d.severity, d.line, d.name.as_str()))
        .collect();
    let want: Vec<(&str, Severity, usize, &str)> =
        expected.iter().map(|&(r, s, l, n)| (r, s, l, n)).collect();
    assert_eq!(got, want, "unexpected findings for {rel}:\n{report:#?}");
}

#[test]
fn parse_error_fixture() {
    assert_findings(
        "models/lint_fixtures/parse_error.smv",
        &[(rules::PARSE_ERROR, Severity::Error, 5, "")],
    );
}

#[test]
fn bad_property_fixture() {
    assert_findings(
        "models/lint_fixtures/bad_property.smv",
        &[(rules::BAD_PROPERTY, Severity::Error, 8, "")],
    );
}

#[test]
fn duplicate_name_fixture() {
    assert_findings(
        "models/lint_fixtures/duplicate_name.smv",
        &[(rules::DUPLICATE_NAME, Severity::Error, 8, "e")],
    );
}

#[test]
fn undefined_name_fixture() {
    assert_findings(
        "models/lint_fixtures/undefined_name.smv",
        &[(rules::UNDEFINED_NAME, Severity::Error, 7, "ghost")],
    );
}

#[test]
fn define_cycle_fixture() {
    assert_findings(
        "models/lint_fixtures/define_cycle.smv",
        &[
            (rules::DEFINE_CYCLE, Severity::Error, 6, "a"),
            (rules::DEFINE_CYCLE, Severity::Error, 7, "b"),
        ],
    );
}

#[test]
fn missing_next_fixture() {
    assert_findings(
        "models/lint_fixtures/missing_next.smv",
        &[(rules::MISSING_NEXT, Severity::Error, 5, "y")],
    );
}

#[test]
fn dead_var_fixture() {
    assert_findings(
        "models/lint_fixtures/dead_var.smv",
        &[(rules::DEAD_VAR, Severity::Warning, 6, "zombie")],
    );
}

#[test]
fn constant_signal_fixture() {
    assert_findings(
        "models/lint_fixtures/constant_signal.smv",
        &[(rules::CONSTANT_SIGNAL, Severity::Warning, 5, "stuck")],
    );
}

#[test]
fn out_of_cone_fixture() {
    assert_findings(
        "models/lint_fixtures/out_of_cone.smv",
        &[(rules::OUT_OF_CONE, Severity::Warning, 13, "side")],
    );
}

/// Every shipped deck lints clean — the same gate CI runs with
/// `covest lint --strict models/*.smv`.
#[test]
fn shipped_models_lint_clean() {
    let dir = repo_root().join("models");
    let mut checked = 0;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("models dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "smv"))
        .collect();
    entries.sort();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("read deck");
        let report = lint_source(&src);
        assert!(
            report.is_clean(),
            "{} must lint clean:\n{:#?}",
            path.display(),
            report.diagnostics
        );
        checked += 1;
    }
    assert!(checked >= 4, "expected the shipped decks, found {checked}");
}

/// An `allow` pragma without a name suppresses the whole rule; with a
/// name it suppresses only that subject.
#[test]
fn allow_pragmas_filter_findings() {
    let deck = |pragma: &str| {
        format!(
            "MODULE main\n{pragma}\nVAR x : boolean;\n    zombie : boolean;\n\
             ASSIGN\n  init(x) := FALSE;\n  next(x) := !x;\n\
             init(zombie) := FALSE;\n  next(zombie) := zombie & x;\n\
             SPEC AG (x | !x);\nOBSERVED x;\n"
        )
    };
    assert_eq!(lint_source(&deck("")).warnings(), 1);
    assert!(lint_source(&deck("-- covest-lint: allow(dead-var)")).is_clean());
    assert!(lint_source(&deck("-- covest-lint: allow(dead-var, zombie)")).is_clean());
    assert_eq!(
        lint_source(&deck("-- covest-lint: allow(dead-var, other)")).warnings(),
        1
    );
}
