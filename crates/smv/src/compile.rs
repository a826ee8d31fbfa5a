//! Compilation of a parsed [`Module`] to a [`SymbolicFsm`].
//!
//! Booleans lower directly to BDDs. Integer-valued expressions are
//! evaluated as *value partitions*: a list of `(value, condition)` pairs
//! where the conditions are disjoint BDDs covering the state space. This
//! keeps arithmetic exact (including negative ranges and `mod`) at the
//! model sizes typical for property verification, and range-overflow in
//! assignments is detected statically: if an assignment can produce an
//! out-of-range value under a satisfiable condition, compilation fails
//! rather than silently wrapping.

use std::collections::{HashMap, HashSet};

use covest_bdd::{BddManager, Func};
use covest_ctl::{CtlError, ParseFormulaError};
use covest_fsm::{FsmBuilder, NumericSignal, StateBit, SymbolicFsm};

use crate::ast::{range_values, BinOp, Expr, Module, SpecDecl, VarDecl, VarType, MAX_RANGE_VALUES};
use crate::error::ModelError;

/// A compiled value: boolean function or integer value partition.
#[derive(Debug, Clone)]
enum Value {
    Bool(Func),
    /// Pairs `(value, condition)`; conditions are pairwise disjoint and
    /// cover `TRUE` (a total partition).
    Int(Vec<(i64, Func)>),
}

/// Per-variable compile-time info.
#[derive(Debug)]
struct VarInfo<'a> {
    decl: &'a VarDecl,
    /// Position of the declaration in the module.
    index: usize,
    /// State bits, least significant first (bool vars use exactly one).
    /// IVARs compile to free state bits.
    bits: Vec<StateBit>,
    /// Minimum value (offset) for int-typed vars.
    offset: i64,
    /// Number of values (range size); 2 for booleans.
    span: i64,
}

impl VarInfo<'_> {
    /// The variable's value in the current state.
    fn value(&self, bdd: &BddManager) -> Value {
        match self.decl.ty {
            VarType::Boolean => Value::Bool(bdd.var(self.bits[0].current)),
            VarType::Range(..) | VarType::Enum(_) => {
                let mut pairs = Vec::with_capacity(self.span as usize);
                for raw in 0..self.span {
                    let mut cond = bdd.constant(true);
                    for (i, bit) in self.bits.iter().enumerate() {
                        let b = bdd.var(bit.current);
                        let want = (raw >> i) & 1 == 1;
                        let lit = if want { b } else { b.not() };
                        cond = cond.and(&lit);
                    }
                    pairs.push((raw + self.offset, cond));
                }
                Value::Int(pairs)
            }
        }
    }
}

/// Number of bits (at least one) that encode the codes `0..=max_code`.
fn bits_needed(max_code: u64) -> usize {
    (u64::BITS - max_code.leading_zeros()).max(1) as usize
}

/// Number of state bits a declaration of type `ty` compiles to.
pub fn decl_bit_width(ty: &VarType) -> usize {
    match ty {
        VarType::Boolean => 1,
        VarType::Range(lo, hi) => bits_needed(hi.abs_diff(*lo)),
        VarType::Enum(lits) => bits_needed(lits.len().saturating_sub(1) as u64),
    }
}

/// The bit-level state names `decl` expands to, in bit order — exactly
/// the names [`compile_module`] registers on the machine (booleans
/// keep their bare name; multi-bit variables become `{name}.{i}`).
///
/// This is the single naming convention shared by the compiler, the
/// named uncovered states and trace targets the estimator reports, and
/// the static cone analysis in `covest-analyze`.
pub fn decl_bit_names(decl: &VarDecl) -> Vec<String> {
    let nbits = decl_bit_width(&decl.ty);
    (0..nbits)
        .map(|i| {
            if nbits == 1 && matches!(decl.ty, VarType::Boolean) {
                decl.name.clone()
            } else {
                format!("{}.{i}", decl.name)
            }
        })
        .collect()
}

struct Compiler<'a> {
    vars: HashMap<&'a str, VarInfo<'a>>,
    /// `DEFINE` bodies by name.
    defines: HashMap<&'a str, &'a Expr>,
    literals: HashMap<String, i64>,
    define_cache: HashMap<String, Value>,
    define_stack: Vec<String>,
    /// States whose variable encodings are all valid; impossible
    /// conditions outside this set are ignored by range and
    /// exhaustiveness checks.
    valid: Func,
    /// Conditions (conjoined with `valid`) under which the expression
    /// being evaluated is used: the fire conditions of the enclosing
    /// `case` arms. An arithmetic overflow outside them is never seen,
    /// so a guarded `x + 1` may overflow where its guard is false.
    care: Vec<Func>,
    /// The assignment or `DEFINE` being compiled, for error messages.
    site: String,
}

impl<'a> Compiler<'a> {
    fn eval(&mut self, bdd: &BddManager, e: &Expr) -> Result<Value, ModelError> {
        match e {
            Expr::Bool(b) => Ok(Value::Bool(bdd.constant(*b))),
            Expr::Int(v) => Ok(Value::Int(vec![(*v, bdd.constant(true))])),
            Expr::Name(n) => self.eval_name(bdd, n),
            Expr::Not(a) => match self.eval(bdd, a)? {
                Value::Bool(r) => Ok(Value::Bool(r.not())),
                Value::Int(_) => Err(ModelError::nowhere(format!(
                    "`!` applied to integer expression `{a}`"
                ))),
            },
            Expr::Bin(op, a, b) => self.eval_bin(bdd, *op, a, b),
            Expr::Case(arms) => self.eval_case(bdd, arms),
        }
    }

    fn eval_name(&mut self, bdd: &BddManager, n: &str) -> Result<Value, ModelError> {
        if let Some(info) = self.vars.get(n) {
            return Ok(info.value(bdd));
        }
        if let Some(&expr) = self.defines.get(n) {
            if let Some(v) = self.define_cache.get(n) {
                return Ok(v.clone());
            }
            if self.define_stack.iter().any(|d| d == n) {
                return Err(ModelError::nowhere(format!(
                    "cyclic DEFINE involving `{n}`"
                )));
            }
            self.define_stack.push(n.to_owned());
            // The value is cached for every use, so it is evaluated as
            // if used in every valid state.
            let care = std::mem::take(&mut self.care);
            let v = self.eval(bdd, expr);
            self.care = care;
            let v = v?;
            self.define_stack.pop();
            self.define_cache.insert(n.to_owned(), v.clone());
            return Ok(v);
        }
        if let Some(&v) = self.literals.get(n) {
            return Ok(Value::Int(vec![(v, bdd.constant(true))]));
        }
        Err(ModelError::nowhere(format!("unknown name `{n}`")))
    }

    fn eval_bin(
        &mut self,
        bdd: &BddManager,
        op: BinOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<Value, ModelError> {
        let va = self.eval(bdd, a)?;
        let vb = self.eval(bdd, b)?;
        match op {
            BinOp::And | BinOp::Or | BinOp::Implies | BinOp::Iff | BinOp::Xor => {
                let (ra, rb) = match (va, vb) {
                    (Value::Bool(x), Value::Bool(y)) => (x, y),
                    _ => {
                        return Err(ModelError::nowhere(format!(
                            "boolean operator `{op}` applied to integer operand in `{a} {op} {b}`"
                        )))
                    }
                };
                Ok(Value::Bool(match op {
                    BinOp::And => ra.and(&rb),
                    BinOp::Or => ra.or(&rb),
                    BinOp::Implies => ra.implies(&rb),
                    BinOp::Iff => ra.iff(&rb),
                    BinOp::Xor => ra.xor(&rb),
                    _ => unreachable!(),
                }))
            }
            BinOp::Eq | BinOp::Ne => match (va, vb) {
                // Equality works on both kinds.
                (Value::Bool(x), Value::Bool(y)) => {
                    let e = x.iff(&y);
                    Ok(Value::Bool(if op == BinOp::Eq { e } else { e.not() }))
                }
                (Value::Int(pa), Value::Int(pb)) => {
                    let r = int_cmp(bdd, &pa, &pb, |x, y| x == y);
                    Ok(Value::Bool(if op == BinOp::Eq { r } else { r.not() }))
                }
                _ => Err(ModelError::nowhere(format!(
                    "type mismatch in comparison `{a} {op} {b}`"
                ))),
            },
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match (va, vb) {
                (Value::Int(pa), Value::Int(pb)) => {
                    let r = match op {
                        BinOp::Lt => int_cmp(bdd, &pa, &pb, |x, y| x < y),
                        BinOp::Le => int_cmp(bdd, &pa, &pb, |x, y| x <= y),
                        BinOp::Gt => int_cmp(bdd, &pa, &pb, |x, y| x > y),
                        _ => int_cmp(bdd, &pa, &pb, |x, y| x >= y),
                    };
                    Ok(Value::Bool(r))
                }
                _ => Err(ModelError::nowhere(format!(
                    "ordering comparison on boolean operand in `{a} {op} {b}`"
                ))),
            },
            BinOp::Add | BinOp::Sub | BinOp::Mod => match (va, vb) {
                (Value::Int(pa), Value::Int(pb)) => {
                    self.int_arith(op, a, b, &pa, &pb).map(Value::Int)
                }
                _ => Err(ModelError::nowhere(format!(
                    "arithmetic on boolean operand in `{a} {op} {b}`"
                ))),
            },
        }
    }

    fn eval_case(&mut self, bdd: &BddManager, arms: &[(Expr, Expr)]) -> Result<Value, ModelError> {
        // Evaluate guards first; arm i fires when its guard holds and no
        // earlier guard does.
        let mut fire = Vec::with_capacity(arms.len());
        let mut taken = bdd.constant(false);
        for (g, _) in arms {
            let gv = match self.eval(bdd, g)? {
                Value::Bool(r) => r,
                Value::Int(_) => {
                    return Err(ModelError::nowhere(format!(
                        "case guard `{g}` is not boolean"
                    )))
                }
            };
            fire.push(gv.and(&taken.not()));
            taken = taken.or(&gv);
        }
        let covered_all = self.valid.implies(&taken);
        if !covered_all.is_true() {
            return Err(ModelError::nowhere(
                "case expression is not exhaustive (add a `TRUE :` arm)",
            ));
        }
        // Merge arm values, evaluating each arm once: arm 0's value sets
        // the type and is merged too, or a `case` nested in first arms
        // would cost 2^depth evaluations.
        let mix = || ModelError::nowhere("case arms mix boolean and integer values");
        let rest = arms.iter().zip(&fire).skip(1);
        match self.eval_where(bdd, &arms[0].1, &fire[0])? {
            Value::Bool(first) => {
                let mut acc = fire[0].and(&first);
                for ((_, e), cond) in rest {
                    let Value::Bool(r) = self.eval_where(bdd, e, cond)? else {
                        return Err(mix());
                    };
                    acc = acc.or(&cond.and(&r));
                }
                Ok(Value::Bool(acc))
            }
            Value::Int(first) => {
                let mut merged: HashMap<i64, Func> = HashMap::new();
                let mut merge = |cond: &Func, pairs: Vec<(i64, Func)>| {
                    for (v, c) in pairs {
                        let both = cond.and(&c);
                        if !both.is_false() {
                            merged
                                .entry(v)
                                .and_modify(|u| *u = u.or(&both))
                                .or_insert(both);
                        }
                    }
                };
                merge(&fire[0], first);
                for ((_, e), cond) in rest {
                    let Value::Int(pairs) = self.eval_where(bdd, e, cond)? else {
                        return Err(mix());
                    };
                    merge(cond, pairs);
                }
                let mut out: Vec<(i64, Func)> = merged.into_iter().collect();
                out.sort_by_key(|(v, _)| *v);
                Ok(Value::Int(out))
            }
        }
    }

    /// Evaluates `e` where its value is used only under `cond` (within
    /// the enclosing care conditions).
    fn eval_where(&mut self, bdd: &BddManager, e: &Expr, cond: &Func) -> Result<Value, ModelError> {
        self.care.push(cond.clone());
        let v = self.eval(bdd, e);
        self.care.pop();
        v
    }

    /// Pointwise `a op b` on the partitions `pa` and `pb` of `+`, `-` or
    /// `mod`. A sum or difference that overflows `i64` is an error where
    /// its value can be used (see [`Compiler::care`]); elsewhere the
    /// wrapped value stands in for it, which keeps the partition total
    /// while no use of the value can see it.
    fn int_arith(
        &self,
        op: BinOp,
        a: &Expr,
        b: &Expr,
        pa: &[(i64, Func)],
        pb: &[(i64, Func)],
    ) -> Result<Vec<(i64, Func)>, ModelError> {
        let mut merged: HashMap<i64, Func> = HashMap::new();
        for (va, ca) in pa {
            for (vb, cb) in pb {
                let both = ca.and(cb);
                if both.is_false() {
                    continue;
                }
                let (v, overflow) = match op {
                    BinOp::Add => va.overflowing_add(*vb),
                    BinOp::Sub => va.overflowing_sub(*vb),
                    _ if *vb <= 0 => {
                        return Err(ModelError::nowhere(format!(
                            "`mod` by non-positive constant {vb}"
                        )))
                    }
                    _ => (va.rem_euclid(*vb), false),
                };
                if overflow && self.can_use(&both) {
                    return Err(ModelError::nowhere(format!(
                        "{} overflows 64-bit integer arithmetic in `{a} {op} {b}`",
                        self.site
                    )));
                }
                match merged.entry(v) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let u = e.get().or(&both);
                        e.insert(u);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(both);
                    }
                }
            }
        }
        let mut out: Vec<(i64, Func)> = merged.into_iter().collect();
        out.sort_by_key(|(v, _)| *v);
        Ok(out)
    }

    /// `true` when a value computed under `cond` can be used: some valid
    /// state satisfies `cond` and every care condition.
    fn can_use(&self, cond: &Func) -> bool {
        let used = self
            .care
            .iter()
            .fold(cond.and(&self.valid), |acc, c| acc.and(c));
        !used.is_false()
    }
}

/// Pointwise comparison of two partitions.
fn int_cmp(
    bdd: &BddManager,
    pa: &[(i64, Func)],
    pb: &[(i64, Func)],
    rel: impl Fn(i64, i64) -> bool,
) -> Func {
    let mut acc = bdd.constant(false);
    for (va, ca) in pa {
        for (vb, cb) in pb {
            if rel(*va, *vb) {
                acc = acc.or(&ca.and(cb));
            }
        }
    }
    acc
}

/// The result of compiling a module.
#[derive(Debug)]
pub struct CompiledModel {
    /// The symbolic machine.
    pub fsm: SymbolicFsm,
    /// Parsed SPEC properties.
    pub specs: Vec<covest_ctl::Formula>,
    /// Parsed FAIRNESS constraints (propositional).
    pub fairness: Vec<covest_ctl::PropExpr>,
    /// Observed-signal names from the OBSERVED section.
    pub observed: Vec<String>,
}

/// The image method. There is one: the lazily conjoined relation.
///
/// Kept only for the `perfbench` harness, which names
/// `ImageMethod::Partitioned` when it fills an [`ImageConfig`]; nothing
/// under `crates/` reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ImageMethod {
    /// The one method.
    #[default]
    Partitioned,
}

/// The don't-care simplification mode. There is none: no BDD is
/// simplified against a care set.
///
/// Kept only for the `perfbench` harness, which names
/// `SimplifyConfig::Restrict` when it fills an [`ImageConfig`]; nothing
/// under `crates/` reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimplifyConfig {
    /// The one value.
    #[default]
    Restrict,
}

/// Kept only for the `perfbench` harness, which hands one to
/// [`compile_module_with`] and stores one in `ParConfig::image`;
/// nothing under `crates/` reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImageConfig {
    /// Nothing reads it.
    pub method: ImageMethod,
    /// Nothing reads it.
    pub simplify: SimplifyConfig,
}

/// [`compile_module`], taking an [`ImageConfig`] it ignores. Kept only
/// for the `perfbench` harness, which calls it; nothing under `crates/`
/// does.
///
/// # Errors
///
/// See [`compile_module`].
pub fn compile_module_with(
    bdd: &BddManager,
    module: &Module,
    _image: ImageConfig,
) -> Result<CompiledModel, ModelError> {
    compile_module(bdd, module)
}

/// Compiles a parsed module on the given manager.
///
/// The compiler emits one transition part per state bit (plus one per
/// validity invariant on free input encodings) and never conjoins them
/// itself — the machine's image engine (see [`covest_fsm::ImageEngine`])
/// conjoins the relation when the first image needs it, which for a
/// deck is after the startup sift.
///
/// # Errors
///
/// Returns [`ModelError`] for repeated variable or `DEFINE` names, type
/// errors, non-exhaustive cases, range overflows, unknown names, missing
/// `next()` assignments, or SPEC / FAIRNESS bodies that fail to parse.
pub fn compile_module(bdd: &BddManager, module: &Module) -> Result<CompiledModel, ModelError> {
    let _span = covest_telemetry::span("compile");
    if let Some((_, _, e)) = module.repeated_name() {
        return Err(e);
    }
    let mut literals: HashMap<String, i64> = HashMap::new();
    for d in &module.vars {
        if let VarType::Enum(lits) = &d.ty {
            for (i, l) in lits.iter().enumerate() {
                if let Some(&prev) = literals.get(l) {
                    if prev != i as i64 {
                        return Err(ModelError::nowhere(format!(
                            "enumeration literal `{l}` used with conflicting values"
                        )));
                    }
                } else {
                    literals.insert(l.clone(), i as i64);
                }
            }
        }
    }

    let defines: HashMap<&str, &Expr> = module
        .defines
        .iter()
        .map(|def| (def.name.as_str(), &def.expr))
        .collect();

    let mut builder = FsmBuilder::new(bdd, "main");
    let mut vars: HashMap<&str, VarInfo> = HashMap::with_capacity(module.vars.len());
    for (index, d) in module.vars.iter().enumerate() {
        let (offset, span) = match &d.ty {
            VarType::Boolean => (0, 2),
            VarType::Range(lo, hi) => {
                let span = range_values(*lo, *hi).ok_or_else(|| {
                    ModelError::nowhere(format!(
                        "range {lo}..{hi} of `{}` is empty or has more than \
                         {MAX_RANGE_VALUES} values",
                        d.name
                    ))
                })?;
                (*lo, span)
            }
            VarType::Enum(lits) => (0, lits.len() as i64),
        };
        let bit_names = decl_bit_names(d);
        let mut bits = Vec::with_capacity(bit_names.len());
        for bit_name in bit_names {
            if d.input {
                // Inputs compile to *free* state bits (unconstrained next
                // value), matching original SMV: the input valuation is
                // part of the state, so properties may mention inputs.
                bits.push(builder.add_free_bit(bit_name));
            } else {
                bits.push(builder.add_state_bit(bit_name));
            }
        }
        vars.insert(
            &d.name,
            VarInfo {
                decl: d,
                index,
                bits,
                offset,
                span,
            },
        );
    }

    // Invalid encodings of ranged variables must never occur: exclude
    // them from the initial states, and — because inputs are *free* bits
    // whose next value is otherwise unconstrained — also forbid them in
    // the next-state rank of the transition relation. State variables
    // with exact next-value assignments cannot produce invalid codes.
    let mut invalid_codes = bdd.constant(false);
    for d in &module.vars {
        let info = &vars[d.name.as_str()];
        let code_count = 1i64 << info.bits.len();
        let mut invalid_cur = bdd.constant(false);
        let mut invalid_next = bdd.constant(false);
        for raw in info.span..code_count {
            let mut cond_cur = bdd.constant(true);
            let mut cond_next = bdd.constant(true);
            for (i, sb) in info.bits.iter().enumerate() {
                let want = (raw >> i) & 1 == 1;
                cond_cur = cond_cur.and(&bdd.literal(sb.current, want));
                cond_next = cond_next.and(&bdd.literal(sb.next, want));
            }
            invalid_cur = invalid_cur.or(&cond_cur);
            invalid_next = invalid_next.or(&cond_next);
        }
        invalid_codes = invalid_codes.or(&invalid_cur);
        if d.input && !invalid_next.is_false() {
            builder.add_trans_constraint(invalid_next.not());
        }
    }
    let valid = invalid_codes.not();

    let mut compiler = Compiler {
        vars,
        defines,
        literals,
        define_cache: HashMap::new(),
        define_stack: Vec::new(),
        valid: valid.clone(),
        care: Vec::new(),
        site: String::new(),
    };

    // Register signals for properties: numeric signals for int vars,
    // boolean signals are registered by the builder already (but only
    // bit-level names); add whole-variable signals.
    for d in &module.vars {
        let info = &compiler.vars[d.name.as_str()];
        match &d.ty {
            VarType::Boolean => {
                let f = bdd.var(info.bits[0].current);
                builder.add_signal(d.name.clone(), f);
            }
            VarType::Range(lo, _) => {
                let bit_fns: Vec<Func> = info.bits.iter().map(|b| bdd.var(b.current)).collect();
                let mut sig = NumericSignal::unsigned(bit_fns);
                sig.offset = *lo;
                builder.add_numeric_signal(d.name.clone(), sig);
            }
            VarType::Enum(lits) => {
                let bit_fns: Vec<Func> = info.bits.iter().map(|b| bdd.var(b.current)).collect();
                let mut sig = NumericSignal::unsigned(bit_fns);
                for (i, l) in lits.iter().enumerate() {
                    sig.literals.insert(l.clone(), i as i64);
                }
                builder.add_numeric_signal(d.name.clone(), sig);
            }
        }
    }

    // init(x) constraints, each with its variable's declaration index.
    let mut inits = Vec::with_capacity(module.inits.len());
    for a in &module.inits {
        let name = a.name.as_str();
        assignable(&compiler, "init", name)?;
        compiler.site = format!("assignment to `{name}`");
        let v = compiler.eval(bdd, &a.expr)?;
        let info = &compiler.vars[name];
        let constraint = assign_constraint(bdd, &compiler.valid, name, info, &v)?;
        inits.push((info.index, constraint));
    }
    // Conjoin from the last declared variable up, and `valid` last. Levels
    // still follow declaration order here, so each constraint lands above
    // the chain built so far and adds a few nodes; top-down, every step
    // would rebuild the whole chain beneath it, leaving the startup sift
    // an arena mostly of garbage.
    inits.sort_by_key(|&(index, _)| std::cmp::Reverse(index));
    let init = bdd.and_many(inits.iter().map(|(_, c)| c)).and(&valid);
    builder.set_init(init);

    // next(x) assignments.
    for a in &module.nexts {
        let name = a.name.as_str();
        assignable(&compiler, "next", name)?;
        compiler.site = format!("assignment to `{name}`");
        let v = compiler.eval(bdd, &a.expr)?;
        let info = &compiler.vars[name];
        set_next_bits(bdd, &mut builder, &compiler.valid, name, info, &v)?;
    }

    // Every state variable must have a next() assignment.
    let assigned: HashSet<&str> = module.nexts.iter().map(|a| a.name.as_str()).collect();
    for d in &module.vars {
        if !d.input && !assigned.contains(d.name.as_str()) {
            return Err(ModelError::nowhere(format!(
                "state variable `{}` has no next() assignment",
                d.name
            )));
        }
    }

    // DEFINEs become named signals.
    for def in &module.defines {
        let name = &def.name;
        compiler.site = format!("DEFINE `{name}`");
        match compiler.eval(bdd, &Expr::Name(name.clone()))? {
            Value::Bool(r) => {
                builder.add_signal(name.clone(), r);
            }
            Value::Int(pairs) => {
                let min = pairs.iter().map(|(v, _)| *v).min().unwrap_or(0);
                let max = pairs.iter().map(|(v, _)| *v).max().unwrap_or(0);
                let width = bits_needed(max.abs_diff(min));
                let mut bit_fns = vec![bdd.constant(false); width];
                for (v, c) in &pairs {
                    let raw = v.abs_diff(min);
                    for (i, bit) in bit_fns.iter_mut().enumerate() {
                        if (raw >> i) & 1 == 1 {
                            *bit = bit.or(c);
                        }
                    }
                }
                let mut sig = NumericSignal::unsigned(bit_fns);
                sig.offset = min;
                builder.add_numeric_signal(name.clone(), sig);
            }
        }
    }

    let fsm = builder
        .build()
        .map_err(|e| ModelError::nowhere(e.to_string()))?;

    // Read SPEC and FAIRNESS bodies from their spellings.
    let mut specs = Vec::with_capacity(module.specs.len());
    for s in &module.specs {
        specs.push(s.formula().map_err(|e| bad_spec(s, &e))?);
    }
    let mut fairness = Vec::with_capacity(module.fairness.len());
    for s in &module.fairness {
        match s.formula() {
            Ok(covest_ctl::Formula::Prop(p)) => fairness.push(p),
            Err(CtlError::Parse(e)) => return Err(bad_fairness(s, Some(&e))),
            _ => return Err(bad_fairness(s, None)),
        }
    }

    // Validate observed names.
    for o in &module.observed {
        if !fsm.signals().contains(&o.name) {
            return Err(ModelError::nowhere(format!(
                "OBSERVED signal `{}` is not defined",
                o.name
            )));
        }
    }

    Ok(CompiledModel {
        fsm,
        specs,
        fairness,
        observed: module.observed.iter().map(|o| o.name.clone()).collect(),
    })
}

/// Checks that `name`, the target of an `init` or `next` (`kind`)
/// assignment, is a declared state variable.
fn assignable(compiler: &Compiler<'_>, kind: &str, name: &str) -> Result<(), ModelError> {
    match compiler.vars.get(name) {
        None => Err(ModelError::nowhere(format!(
            "{kind} of unknown variable `{name}`"
        ))),
        Some(info) if info.decl.input => Err(ModelError::nowhere(format!(
            "`{name}` is an input; inputs cannot be assigned"
        ))),
        Some(_) => Ok(()),
    }
}

/// Builds the predicate `var == value` of an `init` assignment, checking
/// its range against `valid`.
fn assign_constraint(
    bdd: &BddManager,
    valid: &Func,
    name: &str,
    info: &VarInfo,
    v: &Value,
) -> Result<Func, ModelError> {
    match (&info.decl.ty, v) {
        (VarType::Boolean, Value::Bool(r)) => Ok(bdd.var(info.bits[0].current).iff(r)),
        (VarType::Boolean, Value::Int(_)) => Err(ModelError::nowhere(format!(
            "integer assigned to boolean `{name}`"
        ))),
        (_, Value::Bool(_)) => Err(ModelError::nowhere(format!(
            "boolean assigned to integer `{name}`"
        ))),
        (_, Value::Int(pairs)) => {
            check_range(valid, name, info, pairs)?;
            let mut acc = bdd.constant(false);
            for (val, cond) in pairs {
                // An out-of-range value occurs only where `check_range`
                // found it impossible; its wrapped code is never used.
                let raw = val.wrapping_sub(info.offset);
                let mut eq = bdd.constant(true);
                for (i, bit) in info.bits.iter().enumerate() {
                    let b = bdd.var(bit.current);
                    let want = (raw >> i) & 1 == 1;
                    let lit = if want { b } else { b.not() };
                    eq = eq.and(&lit);
                }
                acc = acc.or(&cond.and(&eq));
            }
            Ok(acc)
        }
    }
}

/// Installs the next-state bit functions of a `next` assignment,
/// checking its range against `valid`.
fn set_next_bits(
    bdd: &BddManager,
    builder: &mut FsmBuilder,
    valid: &Func,
    name: &str,
    info: &VarInfo,
    v: &Value,
) -> Result<(), ModelError> {
    match (&info.decl.ty, v) {
        (VarType::Boolean, Value::Bool(r)) => {
            builder.set_next(name, r.clone());
            Ok(())
        }
        (VarType::Boolean, Value::Int(_)) => Err(ModelError::nowhere(format!(
            "integer assigned to boolean `{name}`"
        ))),
        (_, Value::Bool(_)) => Err(ModelError::nowhere(format!(
            "boolean assigned to integer `{name}`"
        ))),
        (_, Value::Int(pairs)) => {
            check_range(valid, name, info, pairs)?;
            let width = info.bits.len();
            let mut bit_fns = vec![bdd.constant(false); width];
            for (val, cond) in pairs {
                // As in `assign_constraint`: an out-of-range code is unused.
                let raw = val.wrapping_sub(info.offset);
                for (i, bit) in bit_fns.iter_mut().enumerate() {
                    if (raw >> i) & 1 == 1 {
                        *bit = bit.or(cond);
                    }
                }
            }
            for (i, f) in bit_fns.into_iter().enumerate() {
                builder.set_next(&format!("{name}.{i}"), f);
            }
            Ok(())
        }
    }
}

fn check_range(
    valid: &Func,
    name: &str,
    info: &VarInfo,
    pairs: &[(i64, Func)],
) -> Result<(), ModelError> {
    // `span >= 1`, and `max` is the declared upper bound, so neither
    // subtraction nor sum can overflow.
    let max = info.offset + (info.span - 1);
    for (val, cond) in pairs {
        let val = *val;
        let possible = cond.and(valid);
        if !(info.offset..=max).contains(&val) && !possible.is_false() {
            return Err(ModelError::nowhere(format!(
                "assignment to `{name}` can produce out-of-range value {val} \
                 (range {}..{max})",
                info.offset
            )));
        }
    }
    Ok(())
}

/// The error compile reports for a `SPEC` body the CTL parser rejects;
/// it quotes the body's text.
fn bad_spec(decl: &SpecDecl, e: &CtlError) -> ModelError {
    ModelError::nowhere(format!("SPEC `{}`: {e}", decl.text()))
}

/// The error compile reports for a `FAIRNESS` body that does not parse
/// (`Some`) or is not propositional (`None`); it quotes the body's text.
fn bad_fairness(decl: &SpecDecl, parse: Option<&ParseFormulaError>) -> ModelError {
    let text = decl.text();
    match parse {
        Some(e) => ModelError::nowhere(format!("FAIRNESS `{text}`: {e}")),
        None => ModelError::nowhere(format!("FAIRNESS `{text}` must be propositional")),
    }
}

impl Module {
    /// The first repeated name, its line and the error [`compile_module`]
    /// reports for it: the first `VAR`/`IVAR` declaring a name an earlier
    /// one declared, else the first `DEFINE` repeating an earlier
    /// `DEFINE`'s name, as SMV rejects a redefinition; `None` when every
    /// name is declared once. A `DEFINE` named like a variable is legal
    /// (the variable wins). Static analysis fails with it before
    /// anything else, so every command rejects the deck alike, even when
    /// the cone of influence would prune the repeat.
    pub fn repeated_name(&self) -> Option<(&str, usize, ModelError)> {
        let mut seen = HashSet::with_capacity(self.vars.len().max(self.defines.len()));
        if let Some(d) = self.vars.iter().find(|d| !seen.insert(d.name.as_str())) {
            let e = ModelError::nowhere(format!("duplicate variable `{}`", d.name));
            return Some((&d.name, d.line, e));
        }
        seen.clear();
        let d = self
            .defines
            .iter()
            .find(|d| !seen.insert(d.name.as_str()))?;
        let e = ModelError::nowhere(format!("duplicate DEFINE `{}`", d.name));
        Some((&d.name, d.line, e))
    }

    /// The error [`compile_module`] reports for the first `SPEC`, then
    /// `FAIRNESS`, body that [`covest_ctl::parse_formula`] rejects, read
    /// from the parse stored on each declaration; `None` when every body
    /// parses. Static analysis fails with it before anything compiles,
    /// so every command names a bad property the same way.
    pub fn property_error(&self) -> Option<ModelError> {
        fn rejected(decls: &[SpecDecl]) -> Option<(&SpecDecl, &CtlError)> {
            decls.iter().find_map(|s| Some((s, s.signals().err()?)))
        }
        if let Some((decl, e)) = rejected(&self.specs) {
            return Some(bad_spec(decl, e));
        }
        let (decl, e) = rejected(&self.fairness)?;
        Some(match e {
            CtlError::Parse(e) => bad_fairness(decl, Some(e)),
            CtlError::Subset(_) => bad_fairness(decl, None),
        })
    }
}
