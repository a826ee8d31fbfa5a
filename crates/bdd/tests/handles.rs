//! Leak/aliveness suite for the RAII handle API: the external-root table
//! must track `Func` ownership exactly.
//!
//! - *Leak freedom*: after every handle produced by a random operation
//!   sequence is dropped, a rootless `gc()` returns `live_nodes()` to the
//!   terminal-only baseline and the root table to empty — no operation
//!   leaks a root slot.
//! - *Aliveness*: handles survive forced `reduce_heap()` / `gc()` calls
//!   injected mid-sequence with unchanged semantics (eval parity against
//!   a truth-table fingerprint taken at construction time).

use covest_bdd::{BddManager, Func, VarId};
use proptest::prelude::*;

const NVARS: usize = 5;

/// One step of a random handle workout.
#[derive(Debug, Clone)]
enum Op {
    /// Push a fresh literal (variable `i`, possibly negated).
    Lit(usize, bool),
    /// Combine the two newest handles (0=and, 1=or, 2=xor, 3=iff).
    Combine(u8),
    /// Negate the newest handle.
    Not,
    /// Quantify variable `i` out of the newest handle (existential?).
    Quant(usize, bool),
    /// Clone the handle at (index modulo len) onto the stack top.
    Dup(usize),
    /// Drop the handle at (index modulo len).
    Pop(usize),
    /// Force a full sift.
    ReduceHeap,
    /// Force a rootless collection.
    Gc,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0..NVARS), any::<bool>()).prop_map(|(i, pos)| Op::Lit(i, pos)),
        (0u8..4).prop_map(Op::Combine),
        Just(Op::Not),
        ((0..NVARS), any::<bool>()).prop_map(|(i, ex)| Op::Quant(i, ex)),
        (0usize..16).prop_map(Op::Dup),
        (0usize..16).prop_map(Op::Pop),
        Just(Op::ReduceHeap),
        Just(Op::Gc),
    ]
}

fn fingerprint(f: &Func) -> Vec<bool> {
    (0..(1u32 << NVARS))
        .map(|bits| f.eval(&|v| bits >> v.index() & 1 == 1))
        .collect()
}

/// Runs the op sequence, checking eval parity across every forced
/// `reduce_heap`/`gc`; every handle it created is dropped by return.
fn run_ops(mgr: &BddManager, vars: &[VarId], ops: &[Op]) -> Result<(), String> {
    // The live working set: handles paired with their truth tables.
    let mut stack: Vec<(Func, Vec<bool>)> = Vec::new();
    for op in ops {
        match op {
            Op::Lit(i, pos) => {
                let f = mgr.literal(vars[*i], *pos);
                let fp = fingerprint(&f);
                stack.push((f, fp));
            }
            Op::Combine(kind) => {
                if stack.len() >= 2 {
                    let (b, _) = stack.pop().expect("len checked");
                    let (a, _) = stack.pop().expect("len checked");
                    let f = match kind {
                        0 => a.and(&b),
                        1 => a.or(&b),
                        2 => a.xor(&b),
                        _ => a.iff(&b),
                    };
                    let fp = fingerprint(&f);
                    stack.push((f, fp));
                }
            }
            Op::Not => {
                if let Some((f, _)) = stack.pop() {
                    let g = f.not();
                    let fp = fingerprint(&g);
                    stack.push((g, fp));
                }
            }
            Op::Quant(i, existential) => {
                if let Some((f, _)) = stack.pop() {
                    let g = if *existential {
                        f.exists(&[vars[*i]])
                    } else {
                        f.forall(&[vars[*i]])
                    };
                    let fp = fingerprint(&g);
                    stack.push((g, fp));
                }
            }
            Op::Dup(i) => {
                if !stack.is_empty() {
                    let entry = stack[i % stack.len()].clone();
                    stack.push(entry);
                }
            }
            Op::Pop(i) => {
                if !stack.is_empty() {
                    let idx = i % stack.len();
                    stack.remove(idx);
                }
            }
            Op::ReduceHeap => {
                mgr.reduce_heap();
            }
            Op::Gc => {
                mgr.gc();
            }
        }
        // Aliveness: every live handle still evaluates identically, even
        // right after a forced reorder or collection.
        if matches!(op, Op::ReduceHeap | Op::Gc) {
            for (f, fp) in &stack {
                prop_assert_eq!(&fingerprint(f), fp, "handle changed semantics at {:?}", op);
            }
        }
    }
    // Final parity sweep over whatever survived the sequence.
    for (f, fp) in &stack {
        prop_assert_eq!(&fingerprint(f), fp);
    }
    Ok(())
}

proptest! {
    /// Random op sequences never leak: dropping every handle returns the
    /// node table to the terminal-only baseline and the root table to
    /// empty.
    #[test]
    fn drops_return_to_terminal_baseline(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        run_ops(&mgr, &vars, &ops)?;
        // Everything is out of scope now.
        prop_assert_eq!(mgr.live_roots(), 0, "an operation leaked a root slot");
        mgr.gc();
        prop_assert_eq!(mgr.live_nodes(), 2, "terminal-only baseline after full drop");
    }

    /// The same sequences followed by a forced sift and a GC checkpoint
    /// keep every handle alive and exact, and leak nothing.
    #[test]
    fn auto_reorder_mid_sequence_preserves_handles(
        ops in proptest::collection::vec(arb_op(), 1..40)
    ) {
        let mgr = BddManager::new();
        let vars = mgr.new_vars(NVARS);
        run_ops(&mgr, &vars, &ops)?;
        mgr.reduce_heap();
        mgr.gc_checkpoint();
        prop_assert_eq!(mgr.live_roots(), 0);
        mgr.gc();
        prop_assert_eq!(mgr.live_nodes(), 2);
    }
}

#[test]
fn clone_heavy_workload_keeps_slot_count_bounded() {
    // Ten thousand clones of one handle must stay O(1) per clone/drop and
    // occupy exactly one root slot.
    let mgr = BddManager::new();
    let vars = mgr.new_vars(4);
    let f = mgr.var(vars[0]).and(&mgr.var(vars[1]));
    let clones: Vec<Func> = (0..10_000).map(|_| f.clone()).collect();
    assert_eq!(mgr.live_roots(), 1);
    drop(clones);
    assert_eq!(mgr.live_roots(), 1);
    drop(f);
    assert_eq!(mgr.live_roots(), 0);
    mgr.gc();
    assert_eq!(mgr.live_nodes(), 2);
}

#[test]
fn many_distinct_roots_allocate_and_recycle_slots() {
    let mgr = BddManager::new();
    let vars = mgr.new_vars(10);
    // Tens of thousands of live roots: handle drop must stay O(1); this
    // is the workload the old `Vec`-scan `unprotect` made quadratic.
    let mut handles = Vec::new();
    for round in 0..20_000 {
        let v = vars[round % vars.len()];
        handles.push(mgr.literal(v, round % 2 == 0));
    }
    assert_eq!(mgr.live_roots(), 20_000);
    handles.truncate(10);
    assert_eq!(mgr.live_roots(), 10);
    mgr.gc();
    for (i, h) in handles.iter().enumerate() {
        assert_eq!(h.eval(&|v| v == vars[i % vars.len()]), i % 2 == 0);
    }
}
