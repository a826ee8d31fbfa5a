//! Circuit 2: the circular queue.
//!
//! "A circular queue controlled by a read pointer, a write pointer and a
//! wrap bit that toggles whenever either pointer wraps around the queue.
//! It also has stall, clear and reset signals as inputs."
//!
//! The paper's narrative: `full` and `empty` reached 100% coverage with
//! two properties each, but the initial five-property suite for the
//! `wrap` bit reached only ~60%. Three additional properties still did
//! not close the hole; tracing inputs to the remaining uncovered states
//! revealed that **the wrap bit was never checked when `stall` was
//! asserted while the write pointer wraps** — a classic missed corner
//! case. One further property brought coverage to 100%.
//!
//! [`wrap_suite_initial`], [`wrap_suite_additional`] and
//! [`wrap_suite_final`] reproduce the three stages.

use covest_bdd::BddManager;
use covest_ctl::{parse_formula, Formula};
use covest_smv::{compile, CompiledModel, ModelError};

/// Generates the circular-queue deck with `depth` slots (≥ 2).
pub fn deck(depth: i64) -> String {
    assert!(depth >= 2, "depth must be at least 2");
    let d = depth;
    let last = d - 1;
    format!(
        r#"
MODULE main
-- Circular queue: read/write pointers plus a wrap parity bit.
VAR
  rp   : 0..{last};
  wp   : 0..{last};
  wrap : boolean;
  -- Status register: a write-pointer wraparound was requested while the
  -- queue was stalled last cycle (the corner case of the paper's hole).
  missed_wrap : boolean;
IVAR
  rd    : boolean;
  wr    : boolean;
  stall : boolean;
  clear : boolean;
  reset : boolean;
DEFINE
  ptr_eq   := rp = wp;
  full     := ptr_eq & wrap;
  empty    := ptr_eq & !wrap;
  active   := !stall & !clear & !reset;
  do_write := wr & !full & active;
  do_read  := rd & !empty & active;
  wp_wraps := do_write & wp = {last};
  rp_wraps := do_read & rp = {last};
ASSIGN
  init(rp) := 0;
  init(wp) := 0;
  init(wrap) := FALSE;
  next(wp) := case
    reset | clear : 0;
    do_write : (wp + 1) mod {d};
    TRUE : wp;
  esac;
  next(rp) := case
    reset | clear : 0;
    do_read : (rp + 1) mod {d};
    TRUE : rp;
  esac;
  next(wrap) := case
    reset | clear : FALSE;
    wp_wraps & rp_wraps : wrap;
    wp_wraps | rp_wraps : !wrap;
    TRUE : wrap;
  esac;
  init(missed_wrap) := FALSE;
  next(missed_wrap) := stall & wr & wp = {last} & !reset & !clear;
OBSERVED wrap, full, empty;
"#
    )
}

/// Compiles the queue.
///
/// # Errors
///
/// Propagates [`ModelError`] (the generated decks always compile).
pub fn build(bdd: &BddManager, depth: i64) -> Result<CompiledModel, ModelError> {
    compile(bdd, &deck(depth))
}

fn f(s: &str) -> Formula {
    parse_formula(s).expect("suite formulas are in the subset")
}

/// The initial five-property suite for `wrap` (≈60% coverage, as in the
/// paper): reset/clear behaviour, both toggle directions, and the
/// idle-hold case — but nothing about stalls.
pub fn wrap_suite_initial() -> Vec<Formula> {
    vec![
        f("AG (reset -> AX !wrap)"),
        f("AG (!reset & clear -> AX !wrap)"),
        f("AG ((wp_wraps & !rp_wraps & !wrap -> AX wrap) & (wp_wraps & !rp_wraps & wrap -> AX !wrap))"),
        f("AG ((rp_wraps & !wp_wraps & !wrap -> AX wrap) & (rp_wraps & !wp_wraps & wrap -> AX !wrap))"),
        f("AG (active & !wr & !rd & !wrap -> AX !wrap)"),
    ]
}

/// The three additional properties (still short of 100%): holds with
/// `wrap` set, writes to a full queue, reads from an empty queue, and
/// simultaneous wraps.
pub fn wrap_suite_additional() -> Vec<Formula> {
    vec![
        f("AG (active & !wr & !rd & wrap -> AX wrap)"),
        f("AG ((active & wr & full & !rd & wrap -> AX wrap) & (active & rd & empty & !wr & !wrap -> AX !wrap))"),
        f("AG ((wp_wraps & rp_wraps & wrap -> AX wrap) & (wp_wraps & rp_wraps & !wrap -> AX !wrap))"),
    ]
}

/// The final property closing the hole the paper describes: with `stall`
/// asserted the wrap bit must hold — **including** the cycle where the
/// write pointer would have wrapped.
pub fn wrap_suite_final() -> Vec<Formula> {
    vec![f(
        "AG ((stall & !clear & !reset & wrap -> AX wrap) & (stall & !clear & !reset & !wrap -> AX !wrap))",
    )]
}

/// The two-property suite for `full` (100% in the paper).
pub fn full_suite() -> Vec<Formula> {
    vec![
        f("AG (ptr_eq & wrap -> full)"),
        f("AG (!ptr_eq -> !full) & AG (ptr_eq & !wrap -> !full)"),
    ]
}

/// The two-property suite for `empty` (100% in the paper).
pub fn empty_suite() -> Vec<Formula> {
    vec![
        f("AG (ptr_eq & !wrap -> empty)"),
        f("AG (!ptr_eq -> !empty) & AG (ptr_eq & wrap -> !empty)"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use covest_mc::ModelChecker;

    #[test]
    fn queue_semantics_sane() {
        let bdd = BddManager::new();
        let model = build(&bdd, 4).expect("compiles");
        let mut mc = ModelChecker::new(&model.fsm);
        for p in [
            "AG (reset -> AX empty)",
            "AG (empty -> !full)",
            "AG (do_write & wp = 1 -> AX wp = 2)",
            "AG (wp_wraps & !rp_wraps & !wrap -> AX wrap)",
        ] {
            let formula = parse_formula(p).expect(p);
            assert!(mc.holds(&formula.into()).expect("checks"), "{p}");
        }
    }

    #[test]
    fn wrap_suites_verify() {
        let bdd = BddManager::new();
        let model = build(&bdd, 4).expect("compiles");
        let mut mc = ModelChecker::new(&model.fsm);
        for p in wrap_suite_initial()
            .into_iter()
            .chain(wrap_suite_additional())
            .chain(wrap_suite_final())
        {
            let text = p.to_string();
            assert!(mc.holds(&p.into()).expect("checks"), "{text}");
        }
    }

    #[test]
    fn full_empty_suites_verify() {
        let bdd = BddManager::new();
        let model = build(&bdd, 4).expect("compiles");
        let mut mc = ModelChecker::new(&model.fsm);
        for p in full_suite().into_iter().chain(empty_suite()) {
            let text = p.to_string();
            assert!(mc.holds(&p.into()).expect("checks"), "{text}");
        }
    }
}
