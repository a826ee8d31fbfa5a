//! Error types for coverage estimation.

use std::error::Error;
use std::fmt;

use covest_fsm::LowerError;

/// Errors produced by the coverage estimator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageError {
    /// A propositional atom could not be lowered against the model.
    Lower(LowerError),
    /// The observed signal is not defined on the model.
    UnknownObserved(String),
    /// The observed signal is numeric; the paper's duality (Definition 2)
    /// is defined for boolean observed signals. Observe individual bits or
    /// a derived boolean proposition instead.
    ObservedNotBoolean(String),
    /// Coverage was requested for a property the model does not satisfy
    /// (Definition 3 presupposes `M, S_I ⊨ f`).
    PropertyFails(String),
    /// A cone-of-influence entry ([`crate::CoverageOptions::cone`]) names
    /// no state bit of the machine, or names one a second time.
    BadConeEntry(String),
    /// The enumerative reference implementation refused to run because the
    /// reachable state space exceeds its limit.
    StateSpaceTooLarge {
        /// Number of reachable states found.
        reachable: usize,
        /// Configured enumeration limit.
        limit: usize,
    },
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::Lower(e) => write!(f, "{e}"),
            CoverageError::UnknownObserved(s) => {
                write!(f, "unknown observed signal `{s}`")
            }
            CoverageError::ObservedNotBoolean(s) => {
                write!(
                    f,
                    "observed signal `{s}` is not boolean; observe its bits instead"
                )
            }
            CoverageError::PropertyFails(p) => {
                write!(
                    f,
                    "coverage is defined for verified properties, but `{p}` fails"
                )
            }
            CoverageError::BadConeEntry(s) => {
                write!(f, "cone entry `{s}` does not name a distinct state bit")
            }
            CoverageError::StateSpaceTooLarge { reachable, limit } => {
                write!(
                    f,
                    "reference implementation limited to {limit} states, model has {reachable}"
                )
            }
        }
    }
}

impl Error for CoverageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoverageError::Lower(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LowerError> for CoverageError {
    fn from(e: LowerError) -> Self {
        CoverageError::Lower(e)
    }
}
