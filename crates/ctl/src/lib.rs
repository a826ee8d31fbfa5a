//! # covest-ctl
//!
//! CTL property syntax for the `covest` workspace — the property layer of
//! the DAC'99 paper *"Coverage Estimation for Symbolic Model Checking"*.
//!
//! Three layers:
//!
//! - [`PropExpr`]: propositional state formulas over named signals, with
//!   integer comparisons (`count < 5`) for enum/range variables;
//! - [`Formula`]: the paper's *acceptable ACTL subset*
//!   (`b | b→f | AX f | AG f | A[f U g] | f ∧ g`, plus `AF` sugar), the
//!   only shape the coverage algorithm accepts;
//! - [`Ctl`]: general CTL, used internally by the model checker and as the
//!   codomain of the observability transformation.
//!
//! Plus:
//!
//! - [`parse_formula`]: text → [`Formula`], rejecting out-of-subset
//!   properties with a precise [`SubsetError`]; [`parse_ctl`] reads the
//!   same grammar into general [`Ctl`], with no subset check;
//! - [`tokenize`]: the one tokenizer that model decks share;
//!   [`BodyReader`], which reads a deck's property bodies straight from
//!   the deck's tokens, and [`parse_body`], which reads one again from
//!   its source spelling;
//! - [`observability_transform`]: Definition 5's rewriting `φ`, which
//!   makes coverage attribution intuitive for implications and Until.
//!
//! # Example
//!
//! ```
//! use covest_ctl::{parse_formula, observability_transform};
//!
//! // The paper's Figure 2 example: an eventuality property.
//! let f = parse_formula("A[p1 U q]")?;
//! // Under the raw Definition 3 this property covers nothing; the
//! // transformation splits it so the first q-state is covered:
//! let t = observability_transform(&f, "q");
//! assert_eq!(t.to_string(), "(A[p1 U q] & A[(p1 & !(q)) U q'])");
//! # Ok::<(), covest_ctl::CtlError>(())
//! ```

mod ast;
mod error;
mod general;
mod lex;
mod parse;
mod transform;

pub use ast::{CmpOp, CmpRhs, Formula, PropExpr, SignalRef};
pub use error::{CtlError, ParseFormulaError, SubsetError};
pub use general::Ctl;
pub use lex::{int_value, tokenize, LexError, LexErrorKind, TokKind, Token, Tokens, MAX_DEPTH};
pub use parse::{
    body_text, parse_body, parse_ctl, parse_formula, too_deep_message, Body, BodyReader,
};
pub use transform::observability_transform;
