//! # covest-analyze
//!
//! Static analysis of parsed model decks — everything that can be learned
//! from the [`covest_smv::Module`] AST *before* a single BDD node is
//! built:
//!
//! - [`DepGraph`] — the variable-dependency graph: the support of every
//!   `next`/`init` assignment and `DEFINE` body, with names resolved to
//!   declared variables (enumeration literals resolve to their declaring
//!   variable) and a transitive-closure [`DepGraph::cone`] operation.
//! - [`lint_source`] / [`lint_module`] — the `covest lint` rule catalog:
//!   deterministic, stably-ordered diagnostics for undefined names, dead
//!   variables, constant signals, combinational `DEFINE` cycles, missing
//!   `next` assignments, and observed signals outside every property's
//!   cone. See [`rules`] for the catalog and `DESIGN.md` for semantics.
//! - [`task_cone`] / [`reduce_module`] / [`cone_bit_names`] — classic
//!   cone-of-influence (COI) reduction for a coverage task: the set of
//!   variables the properties, fairness constraints, and one observed
//!   signal transitively depend on, and a pruned deck containing exactly
//!   those variables. The reduced deck compiles to a smaller manager yet
//!   yields bit-identical coverage reports (the exactness argument is in
//!   DESIGN.md §"Static deck analysis & cone-of-influence").
//!
//! # Example
//!
//! ```
//! use covest_analyze::{task_cone, DepGraph};
//! use covest_smv::parse_module;
//!
//! let deck = r#"
//! VAR a : boolean; b : boolean;
//! ASSIGN
//!   init(a) := FALSE; next(a) := !a;
//!   init(b) := FALSE; next(b) := a | b;
//! SPEC AG (a -> AX !a);
//! OBSERVED a;
//! "#;
//! let module = parse_module(deck)?;
//! let graph = DepGraph::new(&module);
//! let cone = task_cone(&module, &graph, "a").unwrap();
//! assert!(cone.contains("a") && !cone.contains("b"));
//! # Ok::<(), covest_smv::ModelError>(())
//! ```

mod graph;
mod lint;
mod reduce;

pub use graph::{DepGraph, NameKind};
pub use lint::{lint_module, lint_source, rules, Diagnostic, LintReport, Severity};
pub use reduce::{
    cone_bit_names, reduce_module, reduce_module_multi, reducible, task_cone, union_cone,
};
