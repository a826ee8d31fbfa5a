//! Regenerates the paper's Table 2: per observed signal, the number of
//! properties, the coverage percentage, and the BDD/table statistics for
//! verification and coverage estimation.
//!
//! Run with `cargo run -p covest-bench --bin table2 [--release]`.
//!
//! Absolute node counts and times differ from the 1999 HP9000 numbers;
//! what reproduces is the *shape*: which signals are fully covered,
//! where the holes are, and coverage estimation costing the same order
//! as verification.

use covest_bench::{run_workload, table2_workloads};
use covest_core::{CoverageTable, ReportRow};

fn main() {
    let mut table = CoverageTable::new();
    println!("TABLE 2 reproduction (paper values in parentheses)\n");
    for w in table2_workloads() {
        let analysis = run_workload(&w);
        let paper = if w.paper_percent.is_nan() {
            "n/a".to_owned()
        } else {
            format!("{:.2}", w.paper_percent)
        };
        println!(
            "{:<28} {:<8} measured {:>7.2}%   (paper {paper}%)",
            w.circuit,
            w.signal,
            analysis.percent()
        );
        table.push(ReportRow::from_analysis(w.circuit, &analysis));
    }
    println!("\n{table}");
    println!(
        "note: the lo-pri / wrap / out rows use the *initial* property \
         suites, i.e. the\npre-hole-closing stage the paper reports; see \
         tests/paper_narratives.rs for the staged runs."
    );
}
