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
//!   read once by [`parse_module`] from the deck's tokens for their
//!   signal names (see [`SpecDecl`]) and again by compile, from their
//!   source spelling, into formulas;
//!   a comparison may name a negative literal (`x = -3`)
//! - `FAIRNESS <proposition>;` — fairness constraints (Section 4.3)
//! - `OBSERVED count, full;` — observed signals for coverage (extension)
//!
//! The deck and its properties share one tokenizer
//! ([`covest_ctl::tokenize`]), and expressions and property bodies nest
//! at most [`MAX_DEPTH`] levels (parentheses, `!`, temporal operators,
//! `case`) and build trees at most [`MAX_HEIGHT`] levels tall (every
//! link of an operator chain is a level); deeper or taller input is a
//! [`ModelError`] with a line and column.
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
    ImageConfig, ImageMethod, SimplifyConfig,
};
pub use covest_ctl::{MAX_DEPTH, MAX_HEIGHT};
pub use error::ModelError;
pub use lex::{lex, TokKind, Token};
pub use parse::parse_module;

use covest_bdd::BddManager;

/// Parses and compiles a model deck in one step.
///
/// # Errors
///
/// Returns [`ModelError`] for lexical, syntactic, type, or range errors.
pub fn compile(bdd: &BddManager, src: &str) -> Result<CompiledModel, ModelError> {
    let module = parse_module(src)?;
    compile_module(bdd, &module)
}
