//! Named signal tables and lowering of propositional formulas to BDDs.
//!
//! A [`SignalTable`] maps signal names to their semantic functions over the
//! *current-state* (and input) BDD variables. The coverage machinery of the
//! DAC'99 paper manipulates signal interpretations directly:
//!
//! - `depend(b)` re-lowers `b` with the observed signal interpreted as its
//!   complement;
//! - the dual FSM of Definition 2 flips the observed signal's function on a
//!   single state;
//! - the observability transformation introduces a primed copy `q'` whose
//!   default interpretation equals `q`.
//!
//! All three are expressed through the `overrides` parameter of
//! [`SignalTable::lower_with`].
//!
//! Signal functions are owned [`Func`] handles: storing a table keeps its
//! functions rooted across garbage collection and dynamic reordering, so
//! there is no separate root enumeration to maintain.

use std::collections::HashMap;

use covest_bdd::{BddManager, Func};
use covest_ctl::{CmpOp, CmpRhs, PropExpr, SignalRef};

use crate::error::LowerError;

/// A multi-bit (range or enumeration) signal: an unsigned binary value,
/// LSB first, plus an additive offset and optional enumeration literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumericSignal {
    /// Bit functions, least significant first.
    pub bits: Vec<Func>,
    /// Value represented = binary(bits) + offset.
    pub offset: i64,
    /// Enumeration literals naming particular values (e.g. `idle ↦ 0`).
    pub literals: HashMap<String, i64>,
}

impl NumericSignal {
    /// A plain unsigned signal with the given bit functions (LSB first).
    pub fn unsigned(bits: Vec<Func>) -> Self {
        NumericSignal {
            bits,
            offset: 0,
            literals: HashMap::new(),
        }
    }
}

/// The semantic value of a signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignalValue {
    /// A boolean signal: a single owned BDD handle over state/input
    /// variables.
    Bool(Func),
    /// A multi-bit numeric signal.
    Num(NumericSignal),
}

/// A table of named signals with lowering of [`PropExpr`] to BDDs.
#[derive(Debug, Clone, Default)]
pub struct SignalTable {
    entries: HashMap<String, SignalValue>,
}

impl SignalTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a boolean signal. Returns the previous value, if any.
    pub fn insert_bool(&mut self, name: impl Into<String>, f: Func) -> Option<SignalValue> {
        self.entries.insert(name.into(), SignalValue::Bool(f))
    }

    /// Registers a numeric signal. Returns the previous value, if any.
    pub fn insert_num(
        &mut self,
        name: impl Into<String>,
        sig: NumericSignal,
    ) -> Option<SignalValue> {
        self.entries.insert(name.into(), SignalValue::Num(sig))
    }

    /// Looks up a signal by name.
    pub fn get(&self, name: &str) -> Option<&SignalValue> {
        self.entries.get(name)
    }

    /// Returns `true` if `name` is a registered signal.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Iterates over `(name, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SignalValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of all signals, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Lowers a propositional formula to a BDD over the table's variables.
    ///
    /// # Errors
    ///
    /// See [`LowerError`].
    pub fn lower(&self, bdd: &BddManager, e: &PropExpr) -> Result<Func, LowerError> {
        self.lower_with(bdd, e, &[])
    }

    /// Lowers `e` with interpretation overrides.
    ///
    /// Each override maps an exact occurrence pattern (name + primed flag)
    /// to a replacement value. Primed occurrences without an override fall
    /// back to the unprimed signal (Definition 5: `q'` is defined by the
    /// same function as `q`).
    ///
    /// # Errors
    ///
    /// See [`LowerError`].
    pub fn lower_with(
        &self,
        bdd: &BddManager,
        e: &PropExpr,
        overrides: &[(SignalRef, SignalValue)],
    ) -> Result<Func, LowerError> {
        match e {
            PropExpr::Const(c) => Ok(bdd.constant(*c)),
            PropExpr::Atom(s) => match self.resolve(s, overrides)? {
                SignalValue::Bool(r) => Ok(r),
                SignalValue::Num(_) => Err(LowerError::TypeMismatch {
                    signal: s.name.clone(),
                    expected: "boolean",
                }),
            },
            PropExpr::Cmp { lhs, op, rhs } => self.lower_cmp(bdd, lhs, *op, rhs, overrides),
            PropExpr::Not(a) => Ok(self.lower_with(bdd, a, overrides)?.not()),
            PropExpr::And(a, b) => {
                let fa = self.lower_with(bdd, a, overrides)?;
                let fb = self.lower_with(bdd, b, overrides)?;
                Ok(fa.and(&fb))
            }
            PropExpr::Or(a, b) => {
                let fa = self.lower_with(bdd, a, overrides)?;
                let fb = self.lower_with(bdd, b, overrides)?;
                Ok(fa.or(&fb))
            }
            PropExpr::Implies(a, b) => {
                let fa = self.lower_with(bdd, a, overrides)?;
                let fb = self.lower_with(bdd, b, overrides)?;
                Ok(fa.implies(&fb))
            }
            PropExpr::Iff(a, b) => {
                let fa = self.lower_with(bdd, a, overrides)?;
                let fb = self.lower_with(bdd, b, overrides)?;
                Ok(fa.iff(&fb))
            }
        }
    }

    fn resolve(
        &self,
        s: &SignalRef,
        overrides: &[(SignalRef, SignalValue)],
    ) -> Result<SignalValue, LowerError> {
        if let Some((_, v)) = overrides.iter().find(|(pat, _)| pat == s) {
            return Ok(v.clone());
        }
        // Primed occurrences default to the unprimed interpretation.
        self.entries
            .get(&s.name)
            .cloned()
            .ok_or_else(|| LowerError::UnknownSignal(s.name.clone()))
    }

    fn lower_cmp(
        &self,
        bdd: &BddManager,
        lhs: &SignalRef,
        op: CmpOp,
        rhs: &CmpRhs,
        overrides: &[(SignalRef, SignalValue)],
    ) -> Result<Func, LowerError> {
        let lv = self.resolve(lhs, overrides)?;
        let lnum = match lv {
            SignalValue::Num(n) => n,
            SignalValue::Bool(_) => {
                return Err(LowerError::TypeMismatch {
                    signal: lhs.name.clone(),
                    expected: "numeric",
                })
            }
        };
        match rhs {
            CmpRhs::Int(c) => Ok(cmp_const(bdd, &lnum, op, *c)),
            CmpRhs::Sym(r) => {
                // A signal name takes precedence; otherwise try an
                // enumeration literal of the lhs variable.
                let rhs_resolved = if overrides.iter().any(|(pat, _)| pat == r)
                    || self.entries.contains_key(&r.name)
                {
                    Some(self.resolve(r, overrides)?)
                } else {
                    None
                };
                match rhs_resolved {
                    Some(SignalValue::Num(rnum)) => {
                        if lnum.offset != rnum.offset {
                            return Err(LowerError::IncompatibleEncodings(
                                lhs.name.clone(),
                                r.name.clone(),
                            ));
                        }
                        Ok(cmp_vars(bdd, &lnum.bits, op, &rnum.bits))
                    }
                    Some(SignalValue::Bool(_)) => Err(LowerError::TypeMismatch {
                        signal: r.name.clone(),
                        expected: "numeric",
                    }),
                    None => {
                        let lit = lnum.literals.get(&r.name).copied().ok_or_else(|| {
                            LowerError::UnknownLiteral {
                                lhs: lhs.name.clone(),
                                name: r.name.clone(),
                            }
                        })?;
                        Ok(cmp_const(bdd, &lnum, op, lit))
                    }
                }
            }
        }
    }
}

/// Builds the BDD for `sig op constant`.
fn cmp_const(bdd: &BddManager, sig: &NumericSignal, op: CmpOp, c: i64) -> Func {
    let raw = c - sig.offset;
    let width = sig.bits.len();
    let max_raw: i64 = if width >= 63 {
        i64::MAX
    } else {
        (1 << width) - 1
    };
    // Handle out-of-range constants by the mathematical truth value.
    if raw < 0 {
        return match op {
            CmpOp::Eq => bdd.constant(false),
            CmpOp::Ne => bdd.constant(true),
            CmpOp::Lt | CmpOp::Le => bdd.constant(false),
            CmpOp::Gt | CmpOp::Ge => bdd.constant(true),
        };
    }
    if raw > max_raw {
        return match op {
            CmpOp::Eq => bdd.constant(false),
            CmpOp::Ne => bdd.constant(true),
            CmpOp::Lt | CmpOp::Le => bdd.constant(true),
            CmpOp::Gt | CmpOp::Ge => bdd.constant(false),
        };
    }
    let raw = raw as u64;
    match op {
        CmpOp::Eq => eq_const(bdd, &sig.bits, raw),
        CmpOp::Ne => eq_const(bdd, &sig.bits, raw).not(),
        CmpOp::Lt => lt_const(bdd, &sig.bits, raw),
        CmpOp::Le => lt_const(bdd, &sig.bits, raw + 1),
        CmpOp::Ge => lt_const(bdd, &sig.bits, raw).not(),
        CmpOp::Gt => lt_const(bdd, &sig.bits, raw + 1).not(),
    }
}

fn eq_const(bdd: &BddManager, bits: &[Func], c: u64) -> Func {
    let mut acc = bdd.constant(true);
    for (i, bit) in bits.iter().enumerate() {
        let want = (c >> i) & 1 == 1;
        let term = if want { bit.clone() } else { bit.not() };
        acc = acc.and(&term);
    }
    acc
}

/// `value(bits) < c` for an unsigned constant `c` (which may be `2^width`).
fn lt_const(bdd: &BddManager, bits: &[Func], c: u64) -> Func {
    let width = bits.len() as u32;
    if c == 0 {
        return bdd.constant(false);
    }
    if width < 64 && c >= (1u64 << width) {
        return bdd.constant(true);
    }
    // LSB-first ripple: lt = (bit < c_i) | (bit == c_i) & lt_rest
    let mut lt = bdd.constant(false);
    for (i, bit) in bits.iter().enumerate() {
        let ci = (c >> i) & 1 == 1;
        if ci {
            // bit < 1 when bit = 0; otherwise equal here, defer to rest
            lt = bit.not().or(&bit.and(&lt));
        } else {
            // bit < 0 impossible; equal when bit = 0
            lt = bit.not().and(&lt);
        }
    }
    lt
}

/// `value(a) op value(b)` bitwise (widths may differ; shorter padded).
fn cmp_vars(bdd: &BddManager, a: &[Func], op: CmpOp, b: &[Func]) -> Func {
    let width = a.len().max(b.len());
    let bit = |bits: &[Func], i: usize| -> Func {
        bits.get(i).cloned().unwrap_or_else(|| bdd.constant(false))
    };
    match op {
        CmpOp::Eq | CmpOp::Ne => {
            let mut acc = bdd.constant(true);
            for i in 0..width {
                let (ai, bi) = (bit(a, i), bit(b, i));
                acc = acc.and(&ai.iff(&bi));
            }
            if op == CmpOp::Eq {
                acc
            } else {
                acc.not()
            }
        }
        CmpOp::Lt | CmpOp::Ge => {
            // LSB-first ripple: lt_i = (a_i < b_i) | (a_i == b_i) & lt_{i-1}
            let mut lt = bdd.constant(false);
            for i in 0..width {
                let (ai, bi) = (bit(a, i), bit(b, i));
                let strictly = ai.not().and(&bi);
                let keep = ai.iff(&bi).and(&lt);
                lt = strictly.or(&keep);
            }
            if op == CmpOp::Lt {
                lt
            } else {
                lt.not()
            }
        }
        CmpOp::Gt | CmpOp::Le => {
            let gt = cmp_vars(bdd, b, CmpOp::Lt, a);
            if op == CmpOp::Gt {
                gt
            } else {
                gt.not()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covest_bdd::VarId;
    use covest_ctl::PropExpr;

    /// Builds a table with a boolean `p`, and a 3-bit counter `count`
    /// (range 0..7) made of raw variables.
    fn table(bdd: &BddManager) -> (SignalTable, Vec<VarId>) {
        let p = bdd.new_named_var("p");
        let bits: Vec<_> = (0..3).map(|i| bdd.new_named_var(format!("c{i}"))).collect();
        let mut t = SignalTable::new();
        t.insert_bool("p", bdd.var(p));
        let bit_fns: Vec<Func> = bits.iter().map(|&v| bdd.var(v)).collect();
        t.insert_num("count", NumericSignal::unsigned(bit_fns));
        let mut all = vec![p];
        all.extend(bits);
        (t, all)
    }

    #[test]
    fn lower_atom_and_connectives() {
        let bdd = BddManager::new();
        let (t, _vars) = table(&bdd);
        let e = PropExpr::atom("p").not().or(PropExpr::atom("p"));
        let f = t.lower(&bdd, &e).expect("lowers");
        assert!(f.is_true());
    }

    #[test]
    fn lower_eq_and_ne() {
        let bdd = BddManager::new();
        let (t, vars) = table(&bdd);
        let f = t
            .lower(&bdd, &PropExpr::cmp_int("count", CmpOp::Eq, 5))
            .expect("lowers");
        // p free (2) * 1 assignment of count bits
        assert_eq!(f.sat_count_exact(&vars), 2);
        let g = t
            .lower(&bdd, &PropExpr::cmp_int("count", CmpOp::Ne, 5))
            .expect("lowers");
        assert_eq!(g.sat_count_exact(&vars), 14);
    }

    #[test]
    fn lower_orderings_match_semantics() {
        let bdd = BddManager::new();
        let (t, vars) = table(&bdd);
        for c in 0..=7i64 {
            for (op, expect) in [
                (CmpOp::Lt, (0..8).filter(|v| *v < c).count()),
                (CmpOp::Le, (0..8).filter(|v| *v <= c).count()),
                (CmpOp::Gt, (0..8).filter(|v| *v > c).count()),
                (CmpOp::Ge, (0..8).filter(|v| *v >= c).count()),
            ] {
                let f = t
                    .lower(&bdd, &PropExpr::cmp_int("count", op, c))
                    .expect("lowers");
                assert_eq!(
                    f.sat_count_exact(&vars),
                    2 * expect as u128,
                    "count {op:?} {c}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_constants() {
        let bdd = BddManager::new();
        let (t, _) = table(&bdd);
        let f = t
            .lower(&bdd, &PropExpr::cmp_int("count", CmpOp::Lt, 100))
            .expect("lowers");
        assert!(f.is_true());
        let g = t
            .lower(&bdd, &PropExpr::cmp_int("count", CmpOp::Eq, -1))
            .expect("lowers");
        assert!(g.is_false());
        let h = t
            .lower(&bdd, &PropExpr::cmp_int("count", CmpOp::Ge, -1))
            .expect("lowers");
        assert!(h.is_true());
    }

    #[test]
    fn var_var_comparisons() {
        let bdd = BddManager::new();
        let a_vars = bdd.new_vars(2);
        let b_vars = bdd.new_vars(2);
        let a_bits: Vec<Func> = a_vars.iter().map(|&v| bdd.var(v)).collect();
        let b_bits: Vec<Func> = b_vars.iter().map(|&v| bdd.var(v)).collect();
        let mut t = SignalTable::new();
        t.insert_num("a", NumericSignal::unsigned(a_bits));
        t.insert_num("b", NumericSignal::unsigned(b_bits));
        let vars: Vec<_> = (0..4).map(VarId::from_index).collect();
        // a = b has 4 solutions out of 16; a < b has 6.
        let eq = t
            .lower(&bdd, &PropExpr::cmp_sym("a", CmpOp::Eq, "b"))
            .expect("lowers");
        assert_eq!(eq.sat_count_exact(&vars), 4);
        let lt = t
            .lower(&bdd, &PropExpr::cmp_sym("a", CmpOp::Lt, "b"))
            .expect("lowers");
        assert_eq!(lt.sat_count_exact(&vars), 6);
        let le = t
            .lower(&bdd, &PropExpr::cmp_sym("a", CmpOp::Le, "b"))
            .expect("lowers");
        assert_eq!(le.sat_count_exact(&vars), 10);
    }

    #[test]
    fn enum_literals_resolve() {
        let bdd = BddManager::new();
        let bit = bdd.new_var();
        let fbit = bdd.var(bit);
        let mut t = SignalTable::new();
        let mut sig = NumericSignal::unsigned(vec![fbit.clone()]);
        sig.literals.insert("idle".to_owned(), 0);
        sig.literals.insert("busy".to_owned(), 1);
        t.insert_num("state", sig);
        let f = t
            .lower(&bdd, &PropExpr::cmp_sym("state", CmpOp::Eq, "busy"))
            .expect("lowers");
        assert_eq!(f, fbit);
        let e = t
            .lower(&bdd, &PropExpr::cmp_sym("state", CmpOp::Eq, "bogus"))
            .unwrap_err();
        assert!(matches!(e, LowerError::UnknownLiteral { .. }));
    }

    #[test]
    fn offsets_shift_constants() {
        let bdd = BddManager::new();
        let vars2 = bdd.new_vars(2);
        let bits: Vec<Func> = vars2.iter().map(|&v| bdd.var(v)).collect();
        let mut t = SignalTable::new();
        t.insert_num(
            "x",
            NumericSignal {
                bits,
                offset: 10,
                literals: HashMap::new(),
            },
        );
        let vars: Vec<_> = (0..2).map(VarId::from_index).collect();
        // x ranges over 10..13; x <= 11 has 2 solutions.
        let f = t
            .lower(&bdd, &PropExpr::cmp_int("x", CmpOp::Le, 11))
            .expect("lowers");
        assert_eq!(f.sat_count_exact(&vars), 2);
    }

    #[test]
    fn overrides_replace_interpretation() {
        let bdd = BddManager::new();
        let (t, _) = table(&bdd);
        let q = PropExpr::atom("p");
        let normal = t.lower(&bdd, &q).expect("lowers");
        let flipped = normal.not();
        let via_override = t
            .lower_with(
                &bdd,
                &q,
                &[(SignalRef::new("p"), SignalValue::Bool(flipped.clone()))],
            )
            .expect("lowers");
        assert_eq!(via_override, flipped);
        // Primed occurrences default to the unprimed meaning...
        let primed_expr = PropExpr::Atom(SignalRef::primed("p"));
        let primed_default = t.lower(&bdd, &primed_expr).expect("lowers");
        assert_eq!(primed_default, normal);
        // ...but can be overridden independently.
        let primed_override = t
            .lower_with(
                &bdd,
                &primed_expr,
                &[(SignalRef::primed("p"), SignalValue::Bool(flipped.clone()))],
            )
            .expect("lowers");
        assert_eq!(primed_override, flipped);
    }

    #[test]
    fn errors_are_reported() {
        let bdd = BddManager::new();
        let (t, _) = table(&bdd);
        assert!(matches!(
            t.lower(&bdd, &PropExpr::atom("nope")).unwrap_err(),
            LowerError::UnknownSignal(_)
        ));
        assert!(matches!(
            t.lower(&bdd, &PropExpr::atom("count")).unwrap_err(),
            LowerError::TypeMismatch { .. }
        ));
        assert!(matches!(
            t.lower(&bdd, &PropExpr::cmp_int("p", CmpOp::Eq, 1))
                .unwrap_err(),
            LowerError::TypeMismatch { .. }
        ));
    }
}
