//! # covest
//!
//! Umbrella crate for the `covest` workspace: a reproduction of
//! *"Coverage Estimation for Symbolic Model Checking"* (Y. Hoskote,
//! T. Kam, P.-H. Ho, X. Zhao — DAC 1999).
//!
//! Re-exports every workspace crate under a stable module name:
//!
//! - [`bdd`] — ROBDD engine (substrate)
//! - [`ctl`] — CTL/ACTL formulas, parser, observability transformation
//! - [`fsm`] — symbolic Mealy machines, reachability, traces
//! - [`smv`] — SMV-like modeling language compiled to symbolic FSMs
//! - [`analyze`] — static deck analysis: dependency graphs, lint, COI
//! - [`mc`] — symbolic CTL model checker with fairness
//! - [`coverage`] — the paper's coverage estimator (the contribution)
//! - [`par`] — parallel coverage engine (deck-sharded worker pool)
//! - [`circuits`] — the paper's example circuits and property suites
//! - [`telemetry`] — engine counters, phase spans and per-task profiles
//!
//! See the workspace `README.md` for a guided tour and `DESIGN.md` for the
//! experiment-by-experiment reproduction index.

pub use covest_analyze as analyze;
pub use covest_bdd as bdd;
pub use covest_circuits as circuits;
pub use covest_core as coverage;
pub use covest_ctl as ctl;
pub use covest_fsm as fsm;
pub use covest_mc as mc;
pub use covest_par as par;
pub use covest_smv as smv;
pub use covest_telemetry as telemetry;
