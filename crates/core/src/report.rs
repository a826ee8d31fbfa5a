//! Table-2-style reporting, plus the machine-readable JSON rendering
//! batch consumers use.
//!
//! The paper's experimental section reports, per observed signal: the
//! number of verified properties, the coverage percentage, and the BDD
//! node count and runtime of verification vs. coverage estimation. This
//! module renders [`CoverageAnalysis`] values in the same layout, and —
//! for the `--json` front-ends — as line-oriented JSON with one row per
//! line, deterministic fields first and timing fields last.

use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

use covest_telemetry::json_string;

use crate::estimator::CoverageAnalysis;

/// One property's outcome inside a report row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyVerdict {
    /// The property, rendered (parseable by `covest-ctl`).
    pub formula: String,
    /// Whether the model satisfies it.
    pub holds: bool,
    /// Whether it passes only vacuously (see
    /// [`crate::PropertyResult::vacuous`]).
    pub vacuous: bool,
}

/// One row of a Table-2-style report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Circuit name (e.g. "Circuit 1 (priority buffer)").
    pub circuit: String,
    /// Observed signal.
    pub signal: String,
    /// Number of properties in the suite.
    pub num_properties: usize,
    /// Coverage percentage.
    pub percent: f64,
    /// Number of covered states.
    pub covered_states: f64,
    /// Number of states in the coverage space.
    pub space_states: f64,
    /// Per-property verdicts, in suite order.
    pub verdicts: Vec<PropertyVerdict>,
    /// Canonical sample of uncovered states (named bit assignments, in
    /// the deterministic declaration-order enumeration — see
    /// [`crate::CoverageEstimator::uncovered_states`]). Filled by the
    /// front-ends; empty when not sampled.
    pub uncovered_sample: Vec<Vec<(String, bool)>>,
    /// BDD table size after verification.
    pub verify_nodes: usize,
    /// Verification wall-clock time.
    pub verify_time: Duration,
    /// BDD table size after coverage estimation.
    pub coverage_nodes: usize,
    /// Coverage-estimation wall-clock time.
    pub coverage_time: Duration,
}

impl ReportRow {
    /// Builds a row from an analysis (the uncovered sample starts empty;
    /// use [`ReportRow::with_uncovered_sample`] to attach one).
    pub fn from_analysis(circuit: impl Into<String>, a: &CoverageAnalysis) -> Self {
        ReportRow {
            circuit: circuit.into(),
            signal: a.observed.clone(),
            num_properties: a.properties.len(),
            percent: a.percent(),
            covered_states: a.covered_count,
            space_states: a.space_count,
            verdicts: a
                .properties
                .iter()
                .map(|p| PropertyVerdict {
                    formula: p.formula.to_string(),
                    holds: p.holds,
                    vacuous: p.vacuous,
                })
                .collect(),
            uncovered_sample: Vec::new(),
            verify_nodes: a.verify_nodes,
            verify_time: a.verify_time,
            coverage_nodes: a.coverage_nodes,
            coverage_time: a.coverage_time,
        }
    }

    /// Attaches a canonical uncovered-state sample.
    pub fn with_uncovered_sample(mut self, sample: Vec<Vec<(String, bool)>>) -> Self {
        self.uncovered_sample = sample;
        self
    }

    /// `true` if every property in the row's suite holds.
    pub fn all_hold(&self) -> bool {
        self.verdicts.iter().all(|v| v.holds)
    }

    /// Renders one uncovered state as the CLI does: `a=0 b=1 …`.
    pub fn render_state(state: &[(String, bool)]) -> String {
        state
            .iter()
            .map(|(name, v)| format!("{name}={}", u8::from(*v)))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The row as one JSON object on a single line. Deterministic fields
    /// (identity, percentages, verdicts, uncovered sample) come first;
    /// run-dependent fields (node counts, milliseconds) come last, so
    /// diff-based parity checks can strip them by suffix.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"circuit\": {}, \"signal\": {}, \"num_properties\": {}, \
             \"percent\": {}, \"covered_states\": {}, \"space_states\": {}",
            json_string(&self.circuit),
            json_string(&self.signal),
            self.num_properties,
            self.percent,
            self.covered_states,
            self.space_states
        );
        out.push_str(", \"properties\": [");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"formula\": {}, \"holds\": {}, \"vacuous\": {}}}",
                json_string(&v.formula),
                v.holds,
                v.vacuous
            );
        }
        out.push_str("], \"uncovered\": [");
        for (i, s) in self.uncovered_sample.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(&Self::render_state(s)));
        }
        let _ = write!(
            out,
            "], \"verify_nodes\": {}, \"coverage_nodes\": {}, \
             \"verify_ms\": {:.3}, \"coverage_ms\": {:.3}}}",
            self.verify_nodes,
            self.coverage_nodes,
            self.verify_time.as_secs_f64() * 1e3,
            self.coverage_time.as_secs_f64() * 1e3
        );
        out
    }
}

/// A collection of rows rendered like the paper's Table 2 (or as JSON).
#[derive(Debug, Clone, Default)]
pub struct CoverageTable {
    rows: Vec<ReportRow>,
}

impl CoverageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: ReportRow) {
        self.rows.push(row);
    }

    /// The rows in insertion order.
    pub fn rows(&self) -> &[ReportRow] {
        &self.rows
    }

    /// The whole table as a JSON document, one row object per line:
    ///
    /// ```json
    /// {
    ///   "rows": [
    ///     {"circuit": "...", "signal": "...", ...},
    ///     ...
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&r.to_json());
            out.push_str(if i + 1 == self.rows.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn fmt_nodes(n: usize) -> String {
    if n >= 1000 {
        format!("{}k", n / 1000)
    } else {
        n.to_string()
    }
}

impl fmt::Display for CoverageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:<10} {:>6} {:>8} {:>16} {:>16}",
            "Circuit", "Signal", "#Prop", "%COV", "Verification", "Coverage"
        )?;
        writeln!(
            f,
            "{:<28} {:<10} {:>6} {:>8} {:>16} {:>16}",
            "", "", "", "", "BDDs - time", "BDDs - time"
        )?;
        let mut last_circuit = None;
        for r in &self.rows {
            let circuit = if last_circuit == Some(&r.circuit) {
                String::new()
            } else {
                r.circuit.clone()
            };
            writeln!(
                f,
                "{:<28} {:<10} {:>6} {:>8.2} {:>16} {:>16}",
                circuit,
                r.signal,
                r.num_properties,
                r.percent,
                format!("{} - {:.2?}", fmt_nodes(r.verify_nodes), r.verify_time),
                format!("{} - {:.2?}", fmt_nodes(r.coverage_nodes), r.coverage_time),
            )?;
            last_circuit = Some(&r.circuit);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(circuit: &str, signal: &str, pct: f64) -> ReportRow {
        ReportRow {
            circuit: circuit.to_owned(),
            signal: signal.to_owned(),
            num_properties: 5,
            percent: pct,
            covered_states: 120.0,
            space_states: 144.0,
            verdicts: vec![PropertyVerdict {
                formula: "AG (p -> AX q)".to_owned(),
                holds: true,
                vacuous: false,
            }],
            uncovered_sample: vec![vec![("a".to_owned(), false), ("b".to_owned(), true)]],
            verify_nodes: 124_000,
            verify_time: Duration::from_millis(59_280),
            coverage_nodes: 150_000,
            coverage_time: Duration::from_millis(60_410),
        }
    }

    #[test]
    fn table_renders_rows_with_headers() {
        let mut t = CoverageTable::new();
        t.push(row("Circuit 1 (priority buffer)", "hi-pri", 100.0));
        t.push(row("Circuit 1 (priority buffer)", "lo-pri", 99.98));
        let s = t.to_string();
        assert!(s.contains("%COV"));
        assert!(s.contains("hi-pri"));
        assert!(s.contains("99.98"));
        assert!(s.contains("124k"));
        // Circuit name shown once per group.
        assert_eq!(s.matches("Circuit 1").count(), 1);
    }

    #[test]
    fn small_node_counts_not_abbreviated() {
        assert_eq!(fmt_nodes(999), "999");
        assert_eq!(fmt_nodes(26_000), "26k");
    }

    #[test]
    fn json_rendering_is_line_oriented_with_timings_last() {
        let mut t = CoverageTable::new();
        t.push(row("Circuit 2 (circular queue)", "wrap", 60.08));
        let json = t.to_json();
        assert!(json.starts_with("{\n  \"rows\": [\n"));
        assert!(json.ends_with("  ]\n}\n"));
        // One row object per line.
        let row_lines: Vec<&str> = json
            .lines()
            .filter(|l| l.trim_start().starts_with('{'))
            .collect();
        assert_eq!(row_lines.len(), 2); // document brace + one row
        let line = row_lines[1];
        assert!(line.contains("\"signal\": \"wrap\""));
        assert!(line.contains("\"percent\": 60.08"));
        assert!(line.contains("\"formula\": \"AG (p -> AX q)\""));
        assert!(line.contains("\"uncovered\": [\"a=0 b=1\"]"));
        // Timing fields come after every deterministic field.
        let t_pos = line.find("\"verify_ms\"").expect("has timings");
        for key in ["\"percent\"", "\"properties\"", "\"uncovered\""] {
            assert!(line.find(key).expect(key) < t_pos, "{key} after timings");
        }
    }

    #[test]
    fn json_string_escapes_per_rfc8259() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), r#""a\"b\\c""#);
        assert_eq!(json_string("tab\there"), "\"tab\\there\"");
        // Control characters take the four-digit form, not Rust's
        // brace-delimited `\u{7}` debug escape.
        assert_eq!(json_string("\u{7}"), "\"\\u0007\"");
        assert!(!json_string("\u{7}").contains('{'));
    }

    #[test]
    fn render_state_formats_bits() {
        assert_eq!(
            ReportRow::render_state(&[("x".to_owned(), true), ("y".to_owned(), false)]),
            "x=1 y=0"
        );
    }

    #[test]
    fn all_hold_reflects_verdicts() {
        let mut r = row("c", "s", 1.0);
        assert!(r.all_hold());
        r.verdicts[0].holds = false;
        assert!(!r.all_hold());
    }
}
