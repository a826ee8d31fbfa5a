//! # covest-fsm
//!
//! Symbolic finite state machines for the `covest` workspace — the model
//! layer of the DAC'99 paper *"Coverage Estimation for Symbolic Model
//! Checking"* (Definition 1's `M = <S, T_M, P, S_I>`).
//!
//! - [`SymbolicFsm`] / [`FsmBuilder`]: Mealy machines over BDD variables,
//!   with image/preimage, `forward`, reachability fixpoints and onion
//!   rings;
//! - [`ImageEngine`]: the transition relation, kept as the builder's
//!   conjunctive partition and conjoined on the first image, so every
//!   image and preimage is one fused relational product;
//! - [`SignalTable`]: named boolean and numeric signals with lowering of
//!   [`covest_ctl::PropExpr`] atoms (including integer comparisons) to
//!   BDDs, plus interpretation *overrides* — the hook used by `depend(b)`,
//!   Definition 2's dual machine `M̂s`, and the primed signal `q'` of the
//!   paper;
//! - [`Trace`] generation: shortest input sequences to target states
//!   (Section 3's "traces to uncovered states");
//! - [`Stg`]: explicit state-transition graphs (the paper's Figures 1–3)
//!   compiled to symbolic machines.
//!
//! Every machine stores owned [`covest_bdd::Func`] handles, so models pin
//! their own BDD state across garbage collection and dynamic reordering —
//! there is no roots contract to maintain.
//!
//! # Example
//!
//! ```
//! use covest_bdd::BddManager;
//! use covest_fsm::Stg;
//!
//! // Figure 2's chain of p1-states ending in a q-state.
//! let mut stg = Stg::new("figure2");
//! stg.add_states(4);
//! stg.add_path(&[0, 1, 2, 3]);
//! stg.mark_initial(0);
//! stg.label(3, "q");
//! let mgr = BddManager::new();
//! let fsm = stg.compile(&mgr)?;
//! let target = stg.state_fn(&fsm, 3);
//! let trace = fsm.trace_to(&target).expect("reachable");
//! assert_eq!(trace.len(), 3);
//! # Ok::<(), covest_fsm::BuildFsmError>(())
//! ```

mod error;
mod fsm;
mod image;
mod reach;
mod signal;
mod stg;
mod trace;

pub use error::{BuildFsmError, LowerError};
pub use fsm::{FsmBuilder, InputBit, StateBit, SymbolicFsm};
pub use image::ImageEngine;
pub use signal::{NumericSignal, SignalTable, SignalValue};
pub use stg::Stg;
pub use trace::{Trace, TraceStep};
