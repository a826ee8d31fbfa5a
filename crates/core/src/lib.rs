//! # covest-core
//!
//! The primary contribution of the DAC'99 paper *"Coverage Estimation for
//! Symbolic Model Checking"* (Hoskote, Kam, Ho, Zhao): a coverage metric
//! for formally verified properties, and the symbolic algorithm that
//! computes it.
//!
//! Given a machine `M`, an *observed signal* `q`, and a property suite in
//! the acceptable ACTL subset, the estimator computes the set of reachable
//! states in which the value of `q` is actually constrained by the
//! verified properties — the **covered set** — and reports coverage as the
//! fraction of reachable states covered (Definition 4).
//!
//! - [`CoveredSets`]: the recursive Table-1 algorithm (`depend`,
//!   `traverse`, `firstreached`, `C(S0, g)`), whose output equals the
//!   Definition-3 covered set of the observability-transformed formula;
//! - [`CoverageEstimator`] / [`CoverageAnalysis`]: multi-property,
//!   multi-signal analysis with don't-cares (Section 4.2), fairness
//!   (Section 4.3), uncovered-state listing and traces to uncovered
//!   states (Section 3) — one [`Verification`] per machine, then one
//!   cover step per observed signal;
//! - [`reference_covered_set`]: the brute-force dual-FSM implementation
//!   of Definition 3 — ground truth for tests and the ablation baseline;
//! - [`CoverageTable`]: Table-2-style reporting.
//!
//! # Example
//!
//! ```
//! use covest_bdd::BddManager;
//! use covest_fsm::Stg;
//! use covest_core::{CoverageEstimator, CoverageOptions};
//! use covest_ctl::parse_formula;
//!
//! // The paper's Figure 2: a chain of p1-states reaching q.
//! let mut stg = Stg::new("figure2");
//! stg.add_states(4);
//! stg.add_path(&[0, 1, 2, 3]);
//! stg.add_edge(3, 3);
//! stg.mark_initial(0);
//! for s in 0..3 { stg.label(s, "p1"); }
//! stg.label(3, "q");
//! let mgr = BddManager::new();
//! let fsm = stg.compile(&mgr)?;
//!
//! let est = CoverageEstimator::new(&fsm);
//! let props = vec![parse_formula("A[p1 U q]").unwrap()];
//! let a = est.analyze("q", &props, &CoverageOptions::default())?;
//! // Exactly the first q-state is covered: 1 of 4 reachable states.
//! assert_eq!(a.percent(), 25.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod covered;
mod error;
mod estimator;
mod reference;
mod report;

pub use covered::CoveredSets;
pub use error::CoverageError;
pub use estimator::{
    CoverageAnalysis, CoverageEstimator, CoverageOptions, PropertyResult, Verification,
};
pub use reference::{reference_covered_set, ReferenceMode, DEFAULT_STATE_LIMIT};
pub use report::{json_string, CoverageTable, PropertyVerdict, ReportRow};
