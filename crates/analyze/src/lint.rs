//! The `covest lint` rule catalog: deterministic diagnostics computed from
//! the parsed deck alone.
//!
//! Ordering contract: diagnostics are sorted by (subject declaration
//! index, source line, rule name, subject name), so output is stable
//! across runs and suitable for golden tests. Expression-level findings
//! (no declared subject) sort after declaration-anchored ones on the same
//! line.
//!
//! Suppression: a deck comment of the form
//! `-- covest-lint: allow(rule)` or `-- covest-lint: allow(rule, name)`
//! anywhere in the file suppresses matching diagnostics.

use std::fmt;

use covest_smv::{parse_module, Expr, Module};

use crate::graph::{DepGraph, NameKind};
use crate::reduce::union_cone;

/// Rule identifiers, as printed in diagnostics and accepted by
/// `allow(...)` pragmas.
pub mod rules {
    /// The deck does not parse; nothing else can be checked.
    pub const PARSE_ERROR: &str = "parse-error";
    /// A `SPEC` or `FAIRNESS` body the CTL parser rejects.
    pub const BAD_PROPERTY: &str = "bad-property";
    /// An identifier that is not a variable, `DEFINE`, or enum literal.
    pub const UNDEFINED_NAME: &str = "undefined-name";
    /// A combinational `DEFINE` cycle.
    pub const DEFINE_CYCLE: &str = "define-cycle";
    /// A state variable with no `next(...)` assignment.
    pub const MISSING_NEXT: &str = "missing-next";
    /// A variable outside the cone of every property, fairness
    /// constraint, and observed signal.
    pub const DEAD_VAR: &str = "dead-var";
    /// `next(v) := v` with a constant `init(v)` — the signal never moves.
    pub const CONSTANT_SIGNAL: &str = "constant-signal";
    /// An observed signal outside every single property's cone.
    pub const OUT_OF_CONE: &str = "out-of-cone";
}

/// Diagnostic severity. Errors always fail `covest lint`; warnings fail
/// only under `--strict`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but compilable.
    Warning,
    /// The deck is broken (will not compile, or a property is unusable).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule identifier (see [`rules`]).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// 1-based source line (0 when unknown).
    pub line: usize,
    /// The subject name (a variable, `DEFINE`, or identifier; may be
    /// empty for whole-deck findings).
    pub name: String,
    /// Human-readable explanation.
    pub message: String,
    /// Declaration index of the subject variable, or `usize::MAX` for
    /// findings not anchored to a declaration; primary sort key.
    pub decl_index: usize,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} [{}] {}",
            self.line, self.severity, self.rule, self.message
        )
    }
}

/// The outcome of linting one deck.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Findings in the documented stable order.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// `true` when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lints deck source: parses it, applies every rule, then filters
/// findings suppressed by `-- covest-lint: allow(...)` pragmas and sorts
/// the rest into the documented stable order.
pub fn lint_source(src: &str) -> LintReport {
    let mut diags = match parse_module(src) {
        Ok(module) => lint_module(&module),
        Err(e) => vec![Diagnostic {
            rule: rules::PARSE_ERROR,
            severity: Severity::Error,
            line: e.line,
            name: String::new(),
            message: e.to_string(),
            decl_index: usize::MAX,
        }],
    };
    let allows = parse_allow_pragmas(src);
    diags.retain(|d| {
        !allows
            .iter()
            .any(|(rule, name)| *rule == d.rule && name.as_deref().is_none_or(|n| n == d.name))
    });
    diags.sort_by(|a, b| {
        (a.decl_index, a.line, a.rule, &a.name).cmp(&(b.decl_index, b.line, b.rule, &b.name))
    });
    LintReport { diagnostics: diags }
}

/// Applies every lint rule to a parsed module. Findings are unsorted and
/// unsuppressed; use [`lint_source`] for the full pipeline.
pub fn lint_module(module: &Module) -> Vec<Diagnostic> {
    let graph = DepGraph::new(module);
    let mut out = Vec::new();

    check_undefined_names(module, &graph, &mut out);
    check_properties(module, &graph, &mut out);
    check_define_cycles(module, &graph, &mut out);
    check_vars(module, &graph, &mut out);
    check_observed_cones(module, &graph, &mut out);

    out
}

/// Parses `-- covest-lint: allow(rule[, name])` pragmas out of raw deck
/// source. Malformed pragmas are ignored.
fn parse_allow_pragmas(src: &str) -> Vec<(String, Option<String>)> {
    let mut allows = Vec::new();
    for line in src.lines() {
        let Some(comment) = line.split_once("--").map(|(_, c)| c) else {
            continue;
        };
        let Some(rest) = comment.trim_start().strip_prefix("covest-lint:") else {
            continue;
        };
        let Some(inner) = rest
            .trim_start()
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(inner, _)| inner)
        else {
            continue;
        };
        let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
        match parts.as_slice() {
            [rule] if !rule.is_empty() => allows.push(((*rule).to_owned(), None)),
            [rule, name] if !rule.is_empty() => {
                allows.push(((*rule).to_owned(), Some((*name).to_owned())));
            }
            _ => {}
        }
    }
    allows
}

/// Collects every bare identifier in `e` with no duplicate suppression
/// (first occurrence order is irrelevant here; findings are sorted).
fn expr_names(e: &Expr, out: &mut Vec<String>) {
    match e {
        Expr::Bool(_) | Expr::Int(_) => {}
        Expr::Name(n) => out.push(n.clone()),
        Expr::Not(a) => expr_names(a, out),
        Expr::Bin(_, a, b) => {
            expr_names(a, out);
            expr_names(b, out);
        }
        Expr::Case(arms) => {
            for (g, v) in arms {
                expr_names(g, out);
                expr_names(v, out);
            }
        }
    }
}

fn undefined(name: &str, line: usize, context: &str) -> Diagnostic {
    Diagnostic {
        rule: rules::UNDEFINED_NAME,
        severity: Severity::Error,
        line,
        name: name.to_owned(),
        message: format!("`{name}` in {context} is not a variable, DEFINE, or enum literal"),
        decl_index: usize::MAX,
    }
}

fn check_undefined_names(module: &Module, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    let check_expr = |e: &Expr, line: usize, context: &str, out: &mut Vec<Diagnostic>| {
        let mut names = Vec::new();
        expr_names(e, &mut names);
        names.sort();
        names.dedup();
        for n in names {
            if graph.classify(&n) == NameKind::Unknown {
                out.push(undefined(&n, line, context));
            }
        }
    };

    for a in &module.inits {
        if graph.classify(&a.name) != NameKind::Var {
            out.push(undefined(&a.name, a.line, "an init() target"));
        }
        check_expr(&a.expr, a.line, &format!("init({})", a.name), out);
    }
    for a in &module.nexts {
        if graph.classify(&a.name) != NameKind::Var {
            out.push(undefined(&a.name, a.line, "a next() target"));
        }
        check_expr(&a.expr, a.line, &format!("next({})", a.name), out);
    }
    for d in &module.defines {
        check_expr(&d.expr, d.line, &format!("DEFINE {}", d.name), out);
    }
    for o in &module.observed {
        if graph.classify(&o.name) == NameKind::Unknown {
            out.push(undefined(&o.name, o.line, "the OBSERVED list"));
        }
    }
}

fn check_properties(module: &Module, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    for (section, s) in module
        .specs
        .iter()
        .map(|s| ("SPEC", s))
        .chain(module.fairness.iter().map(|s| ("FAIRNESS", s)))
    {
        match s.signals() {
            Err(e) => out.push(Diagnostic {
                rule: rules::BAD_PROPERTY,
                severity: Severity::Error,
                line: s.line(),
                name: String::new(),
                message: format!("{section} `{}` does not parse: {e}", s.text()),
                decl_index: usize::MAX,
            }),
            Ok(signals) => {
                let mut atoms: Vec<&str> = signals.iter().map(|a| &**a).collect();
                atoms.sort();
                atoms.dedup();
                for a in atoms {
                    if graph.classify(a) == NameKind::Unknown {
                        out.push(undefined(a, s.line(), &format!("a {section} property")));
                    }
                }
            }
        }
    }
}

fn check_define_cycles(module: &Module, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    for name in graph.define_cycles(module) {
        let def = module.define(&name).expect("cycle member is a define");
        out.push(Diagnostic {
            rule: rules::DEFINE_CYCLE,
            severity: Severity::Error,
            line: def.line,
            name: name.clone(),
            message: format!("DEFINE `{name}` lies on a combinational cycle"),
            decl_index: usize::MAX,
        });
    }
}

fn check_vars(module: &Module, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    let live = union_cone(module, graph);
    for (i, d) in module.vars.iter().enumerate() {
        if !d.input && !module.nexts.iter().any(|a| a.name == d.name) {
            out.push(Diagnostic {
                rule: rules::MISSING_NEXT,
                severity: Severity::Error,
                line: d.line,
                name: d.name.clone(),
                message: format!("state variable `{}` has no next() assignment", d.name),
                decl_index: i,
            });
        }
        if !live.contains(&d.name) {
            let kind = if d.input { "input" } else { "state variable" };
            out.push(Diagnostic {
                rule: rules::DEAD_VAR,
                severity: Severity::Warning,
                line: d.line,
                name: d.name.clone(),
                message: format!(
                    "{kind} `{}` is outside the cone of every property and observed signal",
                    d.name
                ),
                decl_index: i,
            });
        }
        let next_is_self = module
            .nexts
            .iter()
            .any(|a| a.name == d.name && a.expr == Expr::Name(d.name.clone()));
        let init_is_const = module.inits.iter().any(|a| {
            a.name == d.name
                && match &a.expr {
                    Expr::Bool(_) | Expr::Int(_) => true,
                    Expr::Name(n) => matches!(graph.classify(n), NameKind::EnumLiteral(_)),
                    _ => false,
                }
        });
        if next_is_self && init_is_const {
            out.push(Diagnostic {
                rule: rules::CONSTANT_SIGNAL,
                severity: Severity::Warning,
                line: d.line,
                name: d.name.clone(),
                message: format!(
                    "`{}` holds its constant init value forever (next({0}) := {0})",
                    d.name
                ),
                decl_index: i,
            });
        }
    }
}

fn check_observed_cones(module: &Module, graph: &DepGraph, out: &mut Vec<Diagnostic>) {
    // Per-property cones (each includes every FAIRNESS constraint: fair
    // CTL satisfaction depends on them).
    let fairness_atoms: Vec<&str> = module
        .fairness
        .iter()
        .flat_map(|s| s.signals().unwrap_or_default())
        .map(|a| &**a)
        .collect();
    let spec_cones: Vec<_> = module
        .specs
        .iter()
        .filter_map(|s| s.signals().ok())
        .map(|signals| {
            let atoms = signals.iter().map(|a| &**a);
            let seeds = graph.resolve_names(module, atoms.chain(fairness_atoms.iter().copied()));
            graph.cone(&seeds)
        })
        .collect();

    for o in &module.observed {
        let vars = graph.resolve_names(module, [o.name.as_str()]);
        if vars.is_empty() {
            continue; // undefined-name already reported
        }
        let in_some_cone = spec_cones
            .iter()
            .any(|cone| vars.iter().any(|v| cone.contains(v)));
        if !in_some_cone {
            out.push(Diagnostic {
                rule: rules::OUT_OF_CONE,
                severity: Severity::Warning,
                line: o.line,
                name: o.name.clone(),
                message: format!(
                    "observed signal `{}` is outside every property's cone; its coverage cannot affect any verdict",
                    o.name
                ),
                decl_index: usize::MAX,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(report: &LintReport) -> Vec<(&'static str, String)> {
        report
            .diagnostics
            .iter()
            .map(|d| (d.rule, d.name.clone()))
            .collect()
    }

    #[test]
    fn clean_deck_is_clean() {
        let report = lint_source(
            r#"
VAR count : 0..3;
IVAR step : boolean;
ASSIGN
  init(count) := 0;
  next(count) := case step : (count + 1) mod 4; TRUE : count; esac;
SPEC AG (count = 3 -> AX count = 0);
OBSERVED count;
"#,
        );
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn every_rule_fires_on_its_defect() {
        let report = lint_source(
            r#"
VAR dead : boolean;
    frozen : boolean;
    nonext : boolean;
    live : boolean;
DEFINE a := b; b := a;
ASSIGN
  init(dead) := FALSE;
  next(dead) := dead | ghost;
  init(frozen) := FALSE;
  next(frozen) := frozen;
  init(nonext) := TRUE;
  init(live) := FALSE;
  next(live) := !live;
SPEC AG (live | missing);
OBSERVED live, frozen;
"#,
        );
        let got = rules_of(&report);
        assert!(got.contains(&(rules::UNDEFINED_NAME, "ghost".into())));
        assert!(got.contains(&(rules::UNDEFINED_NAME, "missing".into())));
        assert!(got.contains(&(rules::DEFINE_CYCLE, "a".into())));
        assert!(got.contains(&(rules::DEFINE_CYCLE, "b".into())));
        assert!(got.contains(&(rules::MISSING_NEXT, "nonext".into())));
        assert!(got.contains(&(rules::DEAD_VAR, "dead".into())));
        assert!(got.contains(&(rules::DEAD_VAR, "nonext".into())));
        assert!(got.contains(&(rules::CONSTANT_SIGNAL, "frozen".into())));
        // `frozen` is observed but appears in no property.
        assert!(got.contains(&(rules::OUT_OF_CONE, "frozen".into())));
        assert!(report.errors() >= 4 && report.warnings() >= 3);
    }

    #[test]
    fn diagnostics_are_stably_ordered() {
        let src = r#"
VAR z : boolean;
    a : boolean;
ASSIGN
  init(z) := FALSE;
  next(z) := z;
  init(a) := FALSE;
  next(a) := a;
SPEC AG TRUE;
"#;
        let r1 = lint_source(src);
        let r2 = lint_source(src);
        assert_eq!(r1.diagnostics, r2.diagnostics);
        // Declaration order, not alphabetical: z (index 0) before a.
        let dead: Vec<&str> = r1
            .diagnostics
            .iter()
            .filter(|d| d.rule == rules::DEAD_VAR)
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(dead, vec!["z", "a"]);
    }

    #[test]
    fn allow_pragmas_suppress() {
        let src = r#"
-- covest-lint: allow(dead-var, z)
VAR z : boolean;
    a : boolean;
ASSIGN
  init(z) := FALSE; next(z) := !z;
  init(a) := FALSE; next(a) := !a;
SPEC AG TRUE;
"#;
        let report = lint_source(src);
        let dead: Vec<&str> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == rules::DEAD_VAR)
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(dead, vec!["a"]);
        // A bare allow(rule) suppresses every instance.
        let report = lint_source(&src.replace("allow(dead-var, z)", "allow(dead-var)"));
        assert!(!report.diagnostics.iter().any(|d| d.rule == rules::DEAD_VAR));
    }

    #[test]
    fn parse_error_is_reported_with_line() {
        let report = lint_source("VAR x : ;\n");
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].rule, rules::PARSE_ERROR);
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert!(report.diagnostics[0].line > 0);
    }

    #[test]
    fn bad_property_is_reported() {
        let report = lint_source(
            "VAR x : boolean;\nASSIGN init(x) := FALSE; next(x) := !x;\nSPEC EF (x & &);\nOBSERVED x;\n",
        );
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.rule == rules::BAD_PROPERTY));
    }
}
