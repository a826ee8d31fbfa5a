//! The paper's Table-2 experiments, each as a ready-to-run bundle of
//! (machine, observed signal, property suite, options).
//!
//! The `table2` binary and the `image_parity` suite both pull from here,
//! so the table and the parity tests run the same workloads.

use covest_bdd::BddManager;
use covest_circuits::{circular_queue, counter, pipeline, priority_buffer};
use covest_core::{CoverageAnalysis, CoverageEstimator, CoverageOptions};
use covest_ctl::Formula;
use covest_smv::CompiledModel;

/// One Table-2 row workload: a circuit, an observed signal and its suite.
pub struct Workload {
    /// Circuit display name (Table 2's first column).
    pub circuit: &'static str,
    /// Observed signal.
    pub signal: &'static str,
    /// Property suite.
    pub properties: Vec<Formula>,
    /// Analysis options (fairness for the pipeline).
    pub options: CoverageOptions,
    /// Expected coverage percentage from the paper, for the report.
    pub paper_percent: f64,
    /// Builder for the circuit model.
    pub build: fn(&BddManager) -> CompiledModel,
}

fn build_buffer(bdd: &BddManager) -> CompiledModel {
    priority_buffer::build(bdd, 4, false).expect("compiles")
}

fn build_queue(bdd: &BddManager) -> CompiledModel {
    circular_queue::build(bdd, 4).expect("compiles")
}

fn build_pipeline(bdd: &BddManager) -> CompiledModel {
    pipeline::build(bdd, 4).expect("compiles")
}

fn build_counter(bdd: &BddManager) -> CompiledModel {
    counter::build(bdd).expect("compiles")
}

/// The six observed-signal workloads of the paper's Table 2, plus the
/// introduction's counter as a seventh row.
pub fn table2_workloads() -> Vec<Workload> {
    let default = CoverageOptions::default;
    let fair_opts = || CoverageOptions {
        fairness: vec![pipeline::fairness()],
        ..Default::default()
    };
    vec![
        Workload {
            circuit: "Circuit 1 (priority buffer)",
            signal: "hi_cnt",
            properties: priority_buffer::hi_suite(4),
            options: default(),
            paper_percent: 100.00,
            build: build_buffer,
        },
        Workload {
            circuit: "Circuit 1 (priority buffer)",
            signal: "lo_cnt",
            properties: priority_buffer::lo_suite_initial(4),
            options: default(),
            paper_percent: 99.98,
            build: build_buffer,
        },
        Workload {
            circuit: "Circuit 2 (circular queue)",
            signal: "wrap",
            properties: circular_queue::wrap_suite_initial(),
            options: default(),
            paper_percent: 60.08,
            build: build_queue,
        },
        Workload {
            circuit: "Circuit 2 (circular queue)",
            signal: "full",
            properties: circular_queue::full_suite(),
            options: default(),
            paper_percent: 100.00,
            build: build_queue,
        },
        Workload {
            circuit: "Circuit 2 (circular queue)",
            signal: "empty",
            properties: circular_queue::empty_suite(),
            options: default(),
            paper_percent: 100.00,
            build: build_queue,
        },
        Workload {
            circuit: "Circuit 3 (pipeline)",
            signal: "out",
            properties: pipeline::out_suite_initial(4),
            options: fair_opts(),
            paper_percent: 74.36,
            build: build_pipeline,
        },
        Workload {
            circuit: "Intro (modulo-5 counter)",
            signal: "count",
            properties: counter::increment_properties(),
            options: default(),
            paper_percent: f64::NAN, // illustrative only in the paper
            build: build_counter,
        },
    ]
}

/// Runs one workload end to end on a fresh manager.
pub fn run_workload(w: &Workload) -> CoverageAnalysis {
    let bdd = BddManager::new();
    let model = (w.build)(&bdd);
    let estimator = CoverageEstimator::new(&model.fsm);
    estimator
        .analyze(w.signal, &w.properties, &w.options)
        .expect("workload analyzes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_run_and_match_paper_shape() {
        for w in table2_workloads() {
            let a = run_workload(&w);
            assert!(a.all_hold(), "{}/{} suite verifies", w.circuit, w.signal);
            if w.paper_percent.is_nan() {
                continue;
            }
            if (w.paper_percent - 100.0).abs() < f64::EPSILON {
                assert_eq!(
                    a.percent(),
                    100.0,
                    "{}/{} fully covered in the paper",
                    w.circuit,
                    w.signal
                );
            } else {
                assert!(
                    a.percent() < 100.0,
                    "{}/{} has a hole in the paper",
                    w.circuit,
                    w.signal
                );
            }
        }
    }
}
