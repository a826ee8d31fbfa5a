//! # covest-smv
//!
//! An SMV-dialect modeling language for the `covest` workspace. The
//! DAC'99 coverage estimator was "implemented on top of SMV"; this crate
//! lets models and property suites be written the way the paper's users
//! wrote them, then compiles them to [`covest_fsm::SymbolicFsm`] machines
//! by bit-blasting.
//!
//! Supported deck sections:
//!
//! - `MODULE main` (optional header)
//! - `VAR x : boolean; y : 0..7; z : {idle, busy};` — state variables;
//!   a range declares at most [`MAX_RANGE_VALUES`] values, and integer
//!   arithmetic that can overflow `i64` where it is used is an error
//! - `IVAR i : boolean;` — primary inputs
//! - `ASSIGN init(x) := …; next(x) := case … esac;` — deterministic
//!   next-state functions with exhaustive `case` expressions
//! - `DEFINE full := count = 7;` — macros, exported as named signals
//! - `SPEC <ACTL property>;` — properties in the acceptable subset,
//!   parsed once by [`parse_module`] for their signal names (see
//!   [`SpecDecl`]) and again by compile into formulas
//! - `FAIRNESS <proposition>;` — fairness constraints (Section 4.3)
//! - `OBSERVED count, full;` — observed signals for coverage (extension)
//!
//! # Example
//!
//! ```
//! use covest_bdd::BddManager;
//! use covest_smv::compile;
//!
//! let deck = r#"
//! MODULE main
//! VAR count : 0..4;
//! IVAR stall : boolean;
//! ASSIGN
//!   init(count) := 0;
//!   next(count) := case
//!     stall : count;
//!     count < 4 : count + 1;
//!     TRUE : 0;
//!   esac;
//! SPEC AG (!stall & count < 4 -> AX count = count);
//! OBSERVED count;
//! "#;
//! let mgr = BddManager::new();
//! let model = compile(&mgr, deck)?;
//! assert_eq!(model.specs.len(), 1);
//! assert!(model.fsm.is_total());
//! # Ok::<(), covest_smv::ModelError>(())
//! ```

mod ast;
mod compile;
mod error;
mod lex;
mod parse;

pub use ast::{
    Assign, BinOp, Define, Expr, Module, ObservedDecl, SpecDecl, VarDecl, VarType, MAX_RANGE_VALUES,
};
pub use compile::{
    compile_module, compile_module_with, decl_bit_names, decl_bit_width, CompiledModel,
};
pub use error::ModelError;
pub use lex::{lex, TokKind, Token};
pub use parse::parse_module;

// Re-exported so downstream consumers (e.g. the CLI) can pick the image
// method without depending on covest-fsm directly.
pub use covest_fsm::{ImageConfig, ImageMethod, SimplifyConfig};

use covest_bdd::BddManager;

/// Parses and compiles a model deck in one step with the default
/// (partitioned) image configuration.
///
/// # Errors
///
/// Returns [`ModelError`] for lexical, syntactic, type, or range errors.
pub fn compile(bdd: &BddManager, src: &str) -> Result<CompiledModel, ModelError> {
    let module = parse_module(src)?;
    compile_module(bdd, &module)
}

/// Parses and compiles a model deck with an explicit image configuration.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_with(
    bdd: &BddManager,
    src: &str,
    image: ImageConfig,
) -> Result<CompiledModel, ModelError> {
    let module = parse_module(src)?;
    compile_module_with(bdd, &module, image)
}
