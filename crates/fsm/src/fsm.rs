//! Symbolic Mealy machines: the FSM model of Definition 1.
//!
//! A machine `M = <S, T_M, P, S_I>` is represented symbolically:
//! states are assignments to boolean *state bits* (each with a current and
//! a next BDD variable, interleaved in the order), inputs are free BDD
//! variables, the transition relation `T_M` is a BDD over
//! (current, input, next), and the signal set `P` is a [`SignalTable`]
//! mapping names to functions of the current state (and inputs).
//!
//! Every BDD the machine stores — the initial states, the transition
//! parts and relation, the signal functions — is an owned
//! [`Func`] handle, so the machine pins its own state across garbage
//! collection and dynamic reordering. No root enumeration exists anymore;
//! there is nothing to enumerate.

use std::collections::HashMap;

use covest_bdd::{BddManager, Func, VarId};

use crate::error::BuildFsmError;
use crate::image::ImageEngine;
use crate::signal::SignalTable;

/// A state bit with its current- and next-state BDD variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBit {
    /// Bit name (unique within the machine).
    pub name: String,
    /// Current-state variable.
    pub current: VarId,
    /// Next-state variable.
    pub next: VarId,
}

/// A primary-input bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputBit {
    /// Input name (unique within the machine).
    pub name: String,
    /// The input's BDD variable.
    pub var: VarId,
}

/// A symbolic finite state machine (Mealy machine).
///
/// Construct with [`FsmBuilder`]; query and traverse with the methods here
/// and in the reachability/trace modules. The machine carries its
/// [`BddManager`] handle, so traversal methods need no manager argument.
#[derive(Debug, Clone)]
pub struct SymbolicFsm {
    pub(crate) name: String,
    pub(crate) mgr: BddManager,
    pub(crate) state_bits: Vec<StateBit>,
    pub(crate) input_bits: Vec<InputBit>,
    pub(crate) init: Func,
    pub(crate) engine: ImageEngine,
    pub(crate) signals: SignalTable,
}

impl SymbolicFsm {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The manager the machine's BDDs live on.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// The declared state bits, in declaration order.
    pub fn state_bits(&self) -> &[StateBit] {
        &self.state_bits
    }

    /// The declared input bits, in declaration order.
    pub fn input_bits(&self) -> &[InputBit] {
        &self.input_bits
    }

    /// Current-state variables, in declaration order.
    pub fn current_vars(&self) -> Vec<VarId> {
        self.state_bits.iter().map(|b| b.current).collect()
    }

    /// Next-state variables, in declaration order.
    pub fn next_vars(&self) -> Vec<VarId> {
        self.state_bits.iter().map(|b| b.next).collect()
    }

    /// Input variables, in declaration order.
    pub fn input_vars(&self) -> Vec<VarId> {
        self.input_bits.iter().map(|b| b.var).collect()
    }

    /// The set of initial states `S_I` (a BDD over current variables).
    pub fn init(&self) -> &Func {
        &self.init
    }

    /// The transition relation over (current, input, next), conjoined
    /// from [`SymbolicFsm::trans_parts`] on first request and cached.
    /// Every image and preimage runs on it.
    pub fn trans(&self) -> Func {
        self.engine.relation()
    }

    /// The conjunctive partition of the transition relation, one part per
    /// state bit plus any raw constraints, as emitted by the builder.
    pub fn trans_parts(&self) -> &[Func] {
        self.engine.parts()
    }

    /// The image engine computing every image/preimage for this machine.
    pub fn image_engine(&self) -> &ImageEngine {
        &self.engine
    }

    /// The machine's signal table (the paper's signal set `P`).
    pub fn signals(&self) -> &SignalTable {
        &self.signals
    }

    /// Number of state bits (the paper's "variables" count in Table 2
    /// corresponds to state + input bits of the model).
    pub fn num_state_bits(&self) -> usize {
        self.state_bits.len()
    }

    /// Current→next renaming pairs.
    pub fn cur_to_next(&self) -> Vec<(VarId, VarId)> {
        self.state_bits
            .iter()
            .map(|b| (b.current, b.next))
            .collect()
    }

    /// Next→current renaming pairs.
    pub fn next_to_cur(&self) -> Vec<(VarId, VarId)> {
        self.state_bits
            .iter()
            .map(|b| (b.next, b.current))
            .collect()
    }

    /// All states reachable in **exactly one step** from `set`
    /// (the paper's `forward(S0)`), as a BDD over current variables.
    pub fn image(&self, set: &Func) -> Func {
        self.engine.forward(set).rename(&self.next_to_cur())
    }

    /// All states with **some** successor in `set` under **some** input
    /// (existential preimage, the `EX` operation).
    pub fn preimage(&self, set: &Func) -> Func {
        let set_next = set.rename(&self.cur_to_next());
        self.engine.backward(&set_next)
    }

    /// All states whose **every** successor (under every input) lies in
    /// `set` (universal preimage, the `AX` operation).
    pub fn preimage_univ(&self, set: &Func) -> Func {
        self.preimage(&set.not()).not()
    }

    /// Checks that the transition relation is *total*: every state/input
    /// combination has at least one successor. CTL semantics (and the
    /// paper's path-based definitions) assume totality.
    ///
    /// When no two parts share a next-state variable,
    /// `∃next. ⋀p = ⋀ ∃next. p`, so each part is checked on its own and
    /// the relation is not built; otherwise it is conjoined and checked
    /// whole.
    pub fn is_total(&self) -> bool {
        self.engine.is_total()
    }

    /// The characteristic function of a single state given as bit values
    /// (missing bits default to `false`).
    pub fn state_cube(&self, assignment: &[(&str, bool)]) -> Func {
        let mut cube = self.mgr.constant(true);
        for bit in &self.state_bits {
            let value = assignment
                .iter()
                .find(|(n, _)| *n == bit.name)
                .map(|(_, v)| *v)
                .unwrap_or(false);
            cube = cube.and(&self.mgr.literal(bit.current, value));
        }
        cube
    }
}

/// Builder for [`SymbolicFsm`].
///
/// Variables are allocated interleaved (`bit0`, `bit0'`, `bit1`, `bit1'`,
/// …) which is the standard good ordering for transition relations; input
/// variables are allocated after the state variables by default, or
/// interleaved on request.
///
/// # Examples
///
/// ```
/// use covest_bdd::BddManager;
/// use covest_fsm::FsmBuilder;
///
/// let mgr = BddManager::new();
/// let mut b = FsmBuilder::new(&mgr, "toggler");
/// let t = b.add_state_bit("t");
/// b.set_next("t", mgr.var(t.current).not());
/// b.set_init(mgr.nvar(t.current));
/// let fsm = b.build()?;
/// assert!(fsm.is_total());
/// # Ok::<(), covest_fsm::BuildFsmError>(())
/// ```
#[derive(Debug)]
pub struct FsmBuilder {
    name: String,
    mgr: BddManager,
    state_bits: Vec<StateBit>,
    /// Position in `state_bits` by bit name; the first of a repeated name
    /// wins.
    bit_index: HashMap<String, usize>,
    input_bits: Vec<InputBit>,
    init: Func,
    nexts: Vec<Option<Func>>,
    frees: Vec<bool>,
    raw_constraints: Vec<Func>,
    signals: SignalTable,
}

impl FsmBuilder {
    /// Creates a builder for a machine called `name` on `mgr`.
    pub fn new(mgr: &BddManager, name: impl Into<String>) -> Self {
        FsmBuilder {
            name: name.into(),
            mgr: mgr.clone(),
            state_bits: Vec::new(),
            bit_index: HashMap::new(),
            input_bits: Vec::new(),
            init: mgr.constant(true),
            nexts: Vec::new(),
            frees: Vec::new(),
            raw_constraints: Vec::new(),
            signals: SignalTable::new(),
        }
    }

    /// The manager the machine is being built on.
    pub fn manager(&self) -> &BddManager {
        &self.mgr
    }

    /// Declares a state bit, allocating its current/next variables
    /// (interleaved). Also registers the bit as a boolean signal and
    /// declares the pair as a reorder group, so dynamic reordering keeps
    /// current and next adjacent — the invariant the transition-relation
    /// encoding relies on.
    pub fn add_state_bit(&mut self, name: impl Into<String>) -> StateBit {
        let name = name.into();
        let current = self.mgr.new_named_var(name.clone());
        let next = self.mgr.new_named_var(format!("{name}'"));
        self.mgr.group_vars(&[current, next]);
        let bit = StateBit {
            name: name.clone(),
            current,
            next,
        };
        self.bit_index
            .entry(name.clone())
            .or_insert(self.state_bits.len());
        self.state_bits.push(bit.clone());
        self.nexts.push(None);
        self.frees.push(false);
        let f = self.mgr.var(current);
        self.signals.insert_bool(name, f);
        bit
    }

    /// Declares a *free* state bit: its next value is completely
    /// unconstrained. This is how original SMV models primary inputs —
    /// as unconstrained variables of the machine — and it is what makes
    /// properties that mention inputs (like the paper's counter formula,
    /// whose antecedent tests `stall` and `reset`) well-defined: the
    /// input valuation is part of the state.
    pub fn add_free_bit(&mut self, name: impl Into<String>) -> StateBit {
        let bit = self.add_state_bit(name);
        *self.frees.last_mut().expect("just pushed") = true;
        bit
    }

    /// Declares an input bit and registers it as a boolean signal.
    pub fn add_input_bit(&mut self, name: impl Into<String>) -> InputBit {
        let name = name.into();
        let var = self.mgr.new_named_var(name.clone());
        let bit = InputBit {
            name: name.clone(),
            var,
        };
        self.input_bits.push(bit.clone());
        let f = self.mgr.var(var);
        self.signals.insert_bool(name, f);
        bit
    }

    /// Sets the next-state function of bit `name` to `delta` (a function
    /// of current-state and input variables). The transition part becomes
    /// `name' ↔ delta`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a declared state bit.
    pub fn set_next(&mut self, name: &str, delta: Func) {
        let idx = *self
            .bit_index
            .get(name)
            .unwrap_or_else(|| panic!("unknown state bit `{name}`"));
        self.nexts[idx] = Some(delta);
    }

    /// Adds a raw relational constraint over (current, input, next)
    /// variables, conjoined into the transition relation. Use this for
    /// nondeterministic transitions (e.g. explicit state graphs).
    pub fn add_trans_constraint(&mut self, constraint: Func) {
        self.raw_constraints.push(constraint);
    }

    /// Sets the initial-state predicate (over current variables).
    pub fn set_init(&mut self, init: Func) {
        self.init = init;
    }

    /// Registers a named boolean signal (a function of current/input vars).
    pub fn add_signal(&mut self, name: impl Into<String>, f: Func) {
        self.signals.insert_bool(name, f);
    }

    /// Registers a named numeric signal.
    pub fn add_numeric_signal(
        &mut self,
        name: impl Into<String>,
        sig: crate::signal::NumericSignal,
    ) {
        self.signals.insert_num(name, sig);
    }

    /// Finalizes the machine.
    ///
    /// # Errors
    ///
    /// Returns [`BuildFsmError::MissingNext`] if a state bit has neither a
    /// next-state function nor any raw constraint mentioning its next
    /// variable, and [`BuildFsmError::NotTotal`] if the resulting relation
    /// has a state/input combination with no successor. The totality
    /// check conjoins nothing when no two parts share a next-state
    /// variable, so a compiled deck's relation is first built by its
    /// first image, after the startup sift.
    pub fn build(self) -> Result<SymbolicFsm, BuildFsmError> {
        let mut parts = Vec::new();
        for (idx, bit) in self.state_bits.iter().enumerate() {
            if self.frees[idx] {
                continue; // free bit: next value unconstrained
            }
            match &self.nexts[idx] {
                Some(delta) => {
                    parts.push(self.mgr.var(bit.next).iff(delta));
                }
                None => {
                    // Allowed only if some raw constraint mentions the bit.
                    let mentioned = self
                        .raw_constraints
                        .iter()
                        .any(|c| c.support().contains(&bit.next));
                    if !mentioned {
                        return Err(BuildFsmError::MissingNext(bit.name.clone()));
                    }
                }
            }
        }
        parts.extend(self.raw_constraints.iter().cloned());
        let engine = ImageEngine::build(
            &self.mgr,
            &parts,
            &self
                .state_bits
                .iter()
                .map(|b| b.current)
                .collect::<Vec<_>>(),
            &self.input_bits.iter().map(|b| b.var).collect::<Vec<_>>(),
            &self.state_bits.iter().map(|b| b.next).collect::<Vec<_>>(),
        );
        let fsm = SymbolicFsm {
            name: self.name,
            mgr: self.mgr,
            state_bits: self.state_bits,
            input_bits: self.input_bits,
            init: self.init,
            engine,
            signals: self.signals,
        };
        if !fsm.is_total() {
            return Err(BuildFsmError::NotTotal);
        }
        Ok(fsm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-bit counter that increments each step unless `stall` is high.
    pub(crate) fn counter2(mgr: &BddManager) -> SymbolicFsm {
        let mut b = FsmBuilder::new(mgr, "counter2");
        let b0 = b.add_state_bit("b0");
        let b1 = b.add_state_bit("b1");
        let stall = b.add_input_bit("stall");
        let f0 = mgr.var(b0.current);
        let f1 = mgr.var(b1.current);
        let fs = mgr.var(stall.var);
        // next b0 = stall ? b0 : !b0
        let n0 = fs.ite(&f0, &f0.not());
        // next b1 = stall ? b1 : b1 ^ b0
        let n1 = fs.ite(&f1, &f1.xor(&f0));
        b.set_next("b0", n0);
        b.set_next("b1", n1);
        b.set_init(mgr.nvar(b0.current).and(&mgr.nvar(b1.current)));
        b.build().expect("valid machine")
    }

    #[test]
    fn builder_interleaves_variables() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        let cur = fsm.current_vars();
        let next = fsm.next_vars();
        assert_eq!(mgr.level_of(cur[0]) + 1, mgr.level_of(next[0]));
        assert_eq!(mgr.level_of(cur[1]) + 1, mgr.level_of(next[1]));
    }

    #[test]
    fn image_steps_the_counter() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        // From state 00, one step reaches {00 (stall), 01}.
        let s00 = fsm.state_cube(&[("b0", false), ("b1", false)]);
        let img = fsm.image(&s00);
        let s01 = fsm.state_cube(&[("b0", true), ("b1", false)]);
        assert_eq!(img, s00.or(&s01));
    }

    #[test]
    fn preimage_inverts_image() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        let s01 = fsm.state_cube(&[("b0", true), ("b1", false)]);
        let pre = fsm.preimage(&s01);
        // Predecessors of 01: 00 (increment) and 01 itself (stall).
        let s00 = fsm.state_cube(&[("b0", false), ("b1", false)]);
        assert_eq!(pre, s00.or(&s01));
    }

    #[test]
    fn preimage_univ_requires_all_inputs() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        let s01 = fsm.state_cube(&[("b0", true), ("b1", false)]);
        // No state goes to 01 under *both* stall values except none
        // (00 stays at 00 when stalled; 01 moves to 10 when not stalled).
        let pre_univ = fsm.preimage_univ(&s01);
        assert!(pre_univ.is_false());
        // Universal preimage of {00, 01}: 00 (either stays or increments).
        let s00 = fsm.state_cube(&[("b0", false), ("b1", false)]);
        let set = s00.or(&s01);
        assert_eq!(fsm.preimage_univ(&set), s00);
    }

    #[test]
    fn totality_detected() {
        let mgr = BddManager::new();
        let fsm = counter2(&mgr);
        assert!(fsm.is_total());
    }

    #[test]
    fn missing_next_is_an_error() {
        let mgr = BddManager::new();
        let mut b = FsmBuilder::new(&mgr, "broken");
        b.add_state_bit("x");
        let err = b.build().unwrap_err();
        assert!(matches!(err, BuildFsmError::MissingNext(_)));
    }

    #[test]
    fn raw_constraints_allow_nondeterminism() {
        let mgr = BddManager::new();
        let mut b = FsmBuilder::new(&mgr, "nondet");
        let x = b.add_state_bit("x");
        let pick = b.add_input_bit("pick");
        // x' = x xor pick: from any state both successors are possible.
        let constraint = mgr
            .var(x.next)
            .iff(&mgr.var(x.current).xor(&mgr.var(pick.var)));
        b.add_trans_constraint(constraint);
        b.set_init(mgr.constant(true));
        let fsm = b.build().expect("total");
        let s0 = fsm.state_cube(&[("x", false)]);
        assert!(fsm.image(&s0).is_true());
    }

    /// A raw transition constraint over a toggler's `x`, `x'` and `y'`.
    type Extra = fn(&Func, &Func, &Func) -> Func;

    /// A toggler `x' ↔ ¬x` beside a free bit `y`, plus the raw constraint
    /// `extra(x, x', y')`. A constraint that leaves `x'` alone has
    /// next-state variables of its own; one over `x'` shares it with the
    /// toggler's part.
    fn toggler(mgr: &BddManager, extra: Extra) -> FsmBuilder {
        let mut b = FsmBuilder::new(mgr, "toggler");
        let x = b.add_state_bit("x");
        let y = b.add_free_bit("y");
        let (cur, next) = (mgr.var(x.current), mgr.var(x.next));
        b.set_next("x", cur.not());
        b.add_trans_constraint(extra(&cur, &next, &mgr.var(y.next)));
        b
    }

    /// `build()` rejects a relation with a dead end and accepts a total
    /// one, for parts with disjoint next-state supports (checked part by
    /// part) and for parts sharing one (checked on the conjunction);
    /// `is_total()` agrees on the machines it accepts.
    #[test]
    fn totality_check_matches_the_conjunction() {
        let cases: [(&str, Extra, bool); 4] = [
            // Over current variables: the state x = 1 has no successor.
            ("disjoint, dead end", |x, _, _| x.not(), false),
            // Over y' (the shape of a free input's validity constraint):
            // some y' satisfies it from every state.
            ("disjoint, total", |x, _, y_next| y_next.or(x), true),
            // `x' ↔ x` against `x' ↔ ¬x`: each part is total on its own,
            // their conjunction is empty.
            ("shared, dead end", |x, x_next, _| x_next.iff(x), false),
            // `x' → ¬x` only restates part of `x' ↔ ¬x`.
            (
                "shared, total",
                |x, x_next, _| x_next.implies(&x.not()),
                true,
            ),
        ];
        for (name, extra, total) in cases {
            let mgr = BddManager::new();
            let machine = match toggler(&mgr, extra).build() {
                Ok(machine) => machine,
                Err(e) => {
                    assert!(!total, "{name}: build() rejects a total machine");
                    assert_eq!(e, BuildFsmError::NotTotal, "{name}");
                    continue;
                }
            };
            assert!(total, "{name}: build() accepts a dead end");
            assert_eq!(machine.trans_parts().len(), 2, "{name}");
            assert!(machine.is_total(), "{name}: is_total()");
            // Both answers agree with ∃next. T on the conjoined relation.
            assert!(
                machine.trans().exists(&machine.next_vars()).is_true(),
                "{name}: ∃next. T"
            );
        }
    }
}
