//! `covest-devlint` — source-level invariants of this workspace, checked
//! structurally instead of with brittle CI `grep` one-liners.
//!
//! Rules (see DESIGN.md "Observability" and "Core engine layout"):
//!
//! - `raw-roots` — the raw-roots GC contract was removed in the packed
//!   arena rewrite; no source may mention `protected_refs` again.
//! - `cache-clear` — every direct-mapped compute cache declared on the
//!   BDD `Inner` (fields named `*_memo` / `*_cache` in
//!   `crates/bdd/src/manager.rs`) must be cleared inside
//!   `clear_caches()`, and both `manager.rs` and `reorder.rs` must call
//!   `self.clear_caches();` — refs are reassigned by GC/reorder, so a
//!   stale cache entry is a wrong answer, not a slow one.
//! - `hot-path-hashmap` — no `HashMap` in the BDD apply/quantify/
//!   substitute/simplify kernels (`manager.rs`, `quant.rs`, `subst.rs`,
//!   `simplify.rs`); the packed-arena rewrite replaced them with
//!   open-addressing tables and SipHash must stay off the hot paths.
//! - `raw-instant` — `Instant::now()` is confined to `crates/telemetry`;
//!   everything else must go through `covest_telemetry::Stopwatch` so the
//!   deterministic-counters / timings split stays auditable.
//! - `progress-eprintln` — engine crates must not write to stderr
//!   directly: runtime diagnostics go through the progress/watchdog
//!   channel (`covest_telemetry::progress`), which is throttled,
//!   labeled, and clock-injectable. `eprintln!` is allowed only in the
//!   CLI (user-facing errors/usage), binaries (`src/bin/`), tests, and
//!   the progress module itself.
//! - `one-verifier` — `ModelChecker::new` may not appear in the CLI's or
//!   the pool's sources (`crates/cli/src`, `crates/par/src`): production
//!   code sets up a verification checker in one place,
//!   `CoverageEstimator::checker` in `covest-core`, so `check` and every
//!   `batch` shard run one coverage path.
//!
//! A finding on a line ending in `// devlint: allow(<rule>)` is
//! suppressed. Exit status: 0 clean, 1 findings, 2 usage/IO error.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation.
struct Finding {
    path: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// `true` when a source line opts out of `rule`.
fn allowed(line: &str, rule: &str) -> bool {
    line.split("// devlint: allow(")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .is_some_and(|r| r.trim() == rule)
}

/// Collects all `.rs` files under `dir`, sorted for deterministic output.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_sources(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Flags every line of `src` containing `needle`, minus allowed lines.
fn scan_lines(
    path: &Path,
    src: &str,
    needle: &str,
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
) {
    for (i, line) in src.lines().enumerate() {
        if line.contains(needle) && !allowed(line, rule) {
            out.push(Finding {
                path: path.to_owned(),
                line: i + 1,
                rule,
                message: message.to_owned(),
            });
        }
    }
}

/// The `cache-clear` structural rule on `crates/bdd/src/manager.rs` and
/// `crates/bdd/src/reorder.rs` contents.
fn check_cache_clear(
    manager_path: &Path,
    manager_src: &str,
    reorder_path: &Path,
    reorder_src: &str,
    out: &mut Vec<Finding>,
) {
    for (path, src) in [(manager_path, manager_src), (reorder_path, reorder_src)] {
        if !src.contains("self.clear_caches();") {
            out.push(Finding {
                path: path.to_owned(),
                line: 0,
                rule: "cache-clear",
                message: "must route GC/reorder through `self.clear_caches();`".to_owned(),
            });
        }
    }

    // The body of `pub fn clear_caches` up to the closing brace at the
    // method's indentation level.
    let body: String = manager_src
        .lines()
        .skip_while(|l| !l.contains("pub fn clear_caches"))
        .take_while(|l| *l != "    }")
        .collect::<Vec<_>>()
        .join("\n");

    for (i, line) in manager_src.lines().enumerate() {
        for field in cache_fields(line) {
            if !body.contains(&format!("self.{field}.clear()")) && !allowed(line, "cache-clear") {
                out.push(Finding {
                    path: manager_path.to_owned(),
                    line: i + 1,
                    rule: "cache-clear",
                    message: format!("compute cache `{field}` is not cleared in clear_caches()"),
                });
            }
        }
    }
}

/// Identifiers on `line` matching `[a-z_]+_(memo|cache)` — the compute
/// caches declared on the BDD `Inner`.
fn cache_fields(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut word = String::new();
    for c in line.chars().chain(['\n']) {
        if c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit() {
            word.push(c);
        } else {
            if word.ends_with("_memo") || word.ends_with("_cache") {
                fields.push(std::mem::take(&mut word));
            }
            word.clear();
        }
    }
    fields
}

/// `true` for the paths where `eprintln!` is sanctioned: the CLI's
/// user-facing errors, standalone binaries, tests, and the progress
/// channel itself.
fn eprintln_exempt(crates: &Path, path: &Path) -> bool {
    path.starts_with(crates.join("cli"))
        || path == crates.join("telemetry").join("src").join("progress.rs")
        || path
            .components()
            .any(|c| c.as_os_str() == "bin" || c.as_os_str() == "tests")
}

/// `true` for the sources the `one-verifier` rule covers: the CLI's and
/// the pool's production code.
fn one_verifier_scope(crates: &Path, path: &Path) -> bool {
    path.starts_with(crates.join("cli").join("src"))
        || path.starts_with(crates.join("par").join("src"))
}

fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let crates = root.join("crates");
    let mut sources = Vec::new();
    rust_sources(&crates, &mut sources)?;

    let hot_paths = ["manager.rs", "quant.rs", "subst.rs", "simplify.rs"]
        .map(|f| crates.join("bdd").join("src").join(f));
    let instant_ok = crates.join("telemetry");
    // The linter's own sources spell the forbidden tokens.
    let self_dir = crates.join("devlint");

    let mut findings = Vec::new();
    for path in &sources {
        if path.starts_with(&self_dir) {
            continue;
        }
        let src = std::fs::read_to_string(path)?;
        scan_lines(
            path,
            &src,
            "protected_refs",
            "raw-roots",
            "the raw-roots GC contract was removed; do not reintroduce it",
            &mut findings,
        );
        if hot_paths.iter().any(|p| p == path) {
            for needle in ["HashMap<", "HashMap::"] {
                scan_lines(
                    path,
                    &src,
                    needle,
                    "hot-path-hashmap",
                    "no HashMap on the BDD hot paths (use the packed tables)",
                    &mut findings,
                );
            }
        }
        if !path.starts_with(&instant_ok) {
            scan_lines(
                path,
                &src,
                "Instant::now()",
                "raw-instant",
                "use covest_telemetry::Stopwatch instead of raw Instant",
                &mut findings,
            );
        }
        if one_verifier_scope(&crates, path) {
            scan_lines(
                path,
                &src,
                "ModelChecker::new",
                "one-verifier",
                "set checkers up through CoverageEstimator::checker (one coverage path)",
                &mut findings,
            );
        }
        if !eprintln_exempt(&crates, path) {
            scan_lines(
                path,
                &src,
                "eprintln!",
                "progress-eprintln",
                "engine crates report through covest_telemetry::progress, not stderr",
                &mut findings,
            );
        }
    }

    let manager = crates.join("bdd").join("src").join("manager.rs");
    let reorder = crates.join("bdd").join("src").join("reorder.rs");
    check_cache_clear(
        &manager,
        &std::fs::read_to_string(&manager)?,
        &reorder,
        &std::fs::read_to_string(&reorder)?,
        &mut findings,
    );

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => PathBuf::from("."),
        [r] => PathBuf::from(r),
        _ => {
            eprintln!("usage: covest-devlint [workspace-root]");
            return ExitCode::from(2);
        }
    };
    match run(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("devlint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("devlint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("devlint: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fields_extracts_identifiers() {
        assert_eq!(
            cache_fields("    ite_cache: DirectCache, and_memo: X, other: Y,"),
            vec!["ite_cache".to_owned(), "and_memo".to_owned()]
        );
        assert!(cache_fields("let x = 1;").is_empty());
    }

    #[test]
    fn allow_comment_suppresses_matching_rule_only() {
        let line = "let t = Instant::now(); // devlint: allow(raw-instant)";
        assert!(allowed(line, "raw-instant"));
        assert!(!allowed(line, "raw-roots"));
        assert!(!allowed("let t = Instant::now();", "raw-instant"));
    }

    #[test]
    fn cache_clear_rule_flags_missing_clear() {
        let manager = "struct Inner { foo_cache: C, bar_memo: M }\n\
                       impl Inner {\n    pub fn clear_caches(&mut self) {\n        self.foo_cache.clear();\n    }\n\
                       \n    fn gc(&mut self) { self.clear_caches(); }\n}\n";
        let reorder = "fn reduce() { /* no call */ }\n";
        let mut findings = Vec::new();
        check_cache_clear(
            Path::new("manager.rs"),
            manager,
            Path::new("reorder.rs"),
            reorder,
            &mut findings,
        );
        let rules: Vec<_> = findings.iter().map(|f| f.message.clone()).collect();
        assert!(rules.iter().any(|m| m.contains("bar_memo")));
        assert!(rules.iter().any(|m| m.contains("clear_caches")));
        assert!(!rules.iter().any(|m| m.contains("foo_cache")));
    }

    #[test]
    fn eprintln_exemptions_cover_the_sanctioned_sites_only() {
        let crates = Path::new("crates");
        assert!(eprintln_exempt(crates, &crates.join("cli/src/main.rs")));
        assert!(eprintln_exempt(
            crates,
            &crates.join("telemetry/src/progress.rs")
        ));
        assert!(eprintln_exempt(
            crates,
            &crates.join("circuits/src/bin/gen_models.rs")
        ));
        assert!(eprintln_exempt(crates, &crates.join("par/tests/parity.rs")));
        assert!(!eprintln_exempt(crates, &crates.join("par/src/shard.rs")));
        assert!(!eprintln_exempt(
            crates,
            &crates.join("telemetry/src/lib.rs")
        ));
    }

    #[test]
    fn one_verifier_covers_cli_and_pool_sources_only() {
        let crates = Path::new("crates");
        assert!(one_verifier_scope(crates, &crates.join("cli/src/main.rs")));
        assert!(one_verifier_scope(crates, &crates.join("par/src/shard.rs")));
        assert!(!one_verifier_scope(
            crates,
            &crates.join("core/src/estimator.rs")
        ));
        assert!(!one_verifier_scope(
            crates,
            &crates.join("par/tests/parity.rs")
        ));
        let src = "let mc = ModelChecker::new(&fsm);\n\
                   let oracle = ModelChecker::new(&fsm); // devlint: allow(one-verifier)\n";
        let mut findings = Vec::new();
        scan_lines(
            Path::new("pool.rs"),
            src,
            "ModelChecker::new",
            "one-verifier",
            "",
            &mut findings,
        );
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [1]);
    }

    #[test]
    fn workspace_is_clean() {
        // The real tree must satisfy every rule (this is the CI gate,
        // executed as a unit test too so `cargo test` catches drift).
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run(&root).expect("scan");
        assert!(
            findings.is_empty(),
            "{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
