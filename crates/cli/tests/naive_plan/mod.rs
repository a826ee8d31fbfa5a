//! A deliberately naive, name-keyed reference for the planner's per-deck
//! step, `covest_par::plan_machine`: every set is a `BTreeSet<String>`,
//! every lookup a scan of the deck, every closure a fixpoint iterated
//! until nothing changes, and the reduction clones what it keeps. It
//! shares no code with the planner's index core (`covest_analyze`), so
//! [`assert_plan_matches`] checks that core independently.
//!
//! The rules it encodes: a deck that declares a variable name twice, or
//! a `DEFINE` name twice, is rejected before anything else, naming the
//! first repeat. A name is a variable if any `VAR`/`IVAR` declares it,
//! else a `DEFINE`, else an enumeration literal of the *first* variable
//! declaring it. A task's cone closes the `SPEC`/`FAIRNESS` atoms and the
//! signal under "reads in `init`/`next`". The reduced deck keeps the
//! union cone's variables and assignments, and every `DEFINE` whose name
//! is reached through `Module::define` (no shadowing: a `DEFINE` named
//! like a variable is kept when the name is reached) from the atoms, the
//! signals and the kept assignments.

use std::collections::{BTreeMap, BTreeSet};

use covest_smv::{decl_bit_names, Expr, Module, ObservedDecl, VarType};

/// The reference plan of one deck.
#[derive(Debug)]
pub struct NaivePlan {
    /// Per analyzed signal: the signal and its cone's state-bit names.
    pub tasks: Vec<(String, Vec<String>)>,
    /// The pruned deck, or `None` when the parsed deck compiles as is.
    pub reduced: Option<Module>,
}

fn expr_names(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Bool(_) | Expr::Int(_) => {}
        Expr::Name(n) => {
            out.insert(n.clone());
        }
        Expr::Not(a) => expr_names(a, out),
        Expr::Bin(_, a, b) => {
            expr_names(a, out);
            expr_names(b, out);
        }
        Expr::Case(arms) => {
            for (g, v) in arms {
                expr_names(g, out);
                expr_names(v, out);
            }
        }
    }
}

fn names_of(e: &Expr) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    expr_names(e, &mut out);
    out
}

/// One deck's names, resolved by scanning it.
struct Resolver<'m> {
    module: &'m Module,
    /// Per `DEFINE` name: the variables it reads, at the fixpoint.
    supports: BTreeMap<String, BTreeSet<String>>,
    /// Per variable name: the variables its assignments read.
    deps: BTreeMap<String, BTreeSet<String>>,
}

impl<'m> Resolver<'m> {
    fn new(module: &'m Module) -> Self {
        let mut r = Resolver {
            module,
            supports: BTreeMap::new(),
            deps: BTreeMap::new(),
        };
        loop {
            let mut changed = false;
            for d in &module.defines {
                let Some(body) = r.define_body(&d.name) else {
                    continue;
                };
                let mut support = r.supports.get(&d.name).cloned().unwrap_or_default();
                for n in names_of(body) {
                    support.extend(r.resolve(&n));
                }
                if r.supports.get(&d.name) != Some(&support) {
                    r.supports.insert(d.name.clone(), support);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for d in &module.vars {
            let mut deps = BTreeSet::new();
            for a in module.inits.iter().chain(&module.nexts) {
                if a.name == d.name {
                    for n in names_of(&a.expr) {
                        deps.extend(r.resolve(&n));
                    }
                }
            }
            r.deps.insert(d.name.clone(), deps);
        }
        r
    }

    fn is_var(&self, name: &str) -> bool {
        self.module.vars.iter().any(|d| d.name == name)
    }

    /// The body a reference to `name` expands.
    fn define_body(&self, name: &str) -> Option<&'m Expr> {
        self.module.define(name).map(|d| &d.expr)
    }

    fn literal_owner(&self, name: &str) -> Option<&'m str> {
        self.module
            .vars
            .iter()
            .find(|d| matches!(&d.ty, VarType::Enum(lits) if lits.iter().any(|l| l == name)))
            .map(|d| d.name.as_str())
    }

    /// The variables a reference to `name` reads.
    fn resolve(&self, name: &str) -> BTreeSet<String> {
        if self.is_var(name) {
            [name.to_owned()].into()
        } else if self.define_body(name).is_some() {
            self.supports.get(name).cloned().unwrap_or_default()
        } else if let Some(owner) = self.literal_owner(name) {
            [owner.to_owned()].into()
        } else {
            BTreeSet::new()
        }
    }

    fn cone<'a>(&self, seeds: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        let mut cone: BTreeSet<String> = seeds.into_iter().flat_map(|s| self.resolve(s)).collect();
        loop {
            let mut next = cone.clone();
            for v in &cone {
                next.extend(self.deps[v].iter().cloned());
            }
            if next == cone {
                return cone;
            }
            cone = next;
        }
    }
}

/// The atom names of every `SPEC` and `FAIRNESS` body that parses.
fn atoms(module: &Module) -> Vec<String> {
    module
        .specs
        .iter()
        .chain(&module.fairness)
        .flat_map(|s| s.signals().unwrap_or_default())
        .map(|a| a.to_string())
        .collect()
}

/// The message compiling `module` gives for its first repeated name: a
/// variable declared after one of the same name, else a `DEFINE`
/// declared after one of the same name.
fn repeated_name(module: &Module) -> Option<String> {
    let vars = &module.vars;
    if let Some(i) = (0..vars.len()).find(|&i| vars[..i].iter().any(|d| d.name == vars[i].name)) {
        return Some(format!(
            "model error: duplicate variable `{}`",
            vars[i].name
        ));
    }
    let defines = &module.defines;
    let i = (0..defines.len()).find(|&i| defines[..i].iter().any(|d| d.name == defines[i].name))?;
    Some(format!(
        "model error: duplicate DEFINE `{}`",
        defines[i].name
    ))
}

/// The reference plan of `module` for `signals`; errors as
/// `plan_machine` does.
pub fn naive_plan(module: &Module, signals: &[String]) -> Result<NaivePlan, String> {
    if let Some(e) = repeated_name(module) {
        return Err(e);
    }
    if signals.is_empty() {
        return Ok(NaivePlan {
            tasks: Vec::new(),
            reduced: None,
        });
    }
    if let Some(e) = module.property_error() {
        return Err(e.to_string());
    }
    let names = Resolver::new(module);
    let atoms = atoms(module);
    let mut union = BTreeSet::new();
    let mut tasks = Vec::new();
    for signal in signals {
        let cone = names.cone(atoms.iter().map(String::as_str).chain([signal.as_str()]));
        let bits = module
            .vars
            .iter()
            .filter(|d| cone.contains(&d.name))
            .flat_map(decl_bit_names)
            .collect();
        tasks.push((signal.clone(), bits));
        union.extend(cone);
    }
    let named = |n: &String| names.is_var(n) || module.define(n).is_some();
    let reducible = signals.iter().all(named) && module.observed.iter().all(|o| named(&o.name));
    if !reducible || module.vars.iter().all(|d| union.contains(&d.name)) {
        return Ok(NaivePlan {
            tasks,
            reduced: None,
        });
    }

    let mut observed: Vec<String> = Vec::new();
    for signal in signals {
        if !observed.contains(signal) {
            observed.push(signal.clone());
        }
    }
    let kept = |a: &&covest_smv::Assign| union.contains(&a.name);
    let mut reached: BTreeSet<String> = atoms.iter().chain(&observed).cloned().collect();
    for a in module.inits.iter().chain(&module.nexts).filter(kept) {
        reached.extend(names_of(&a.expr));
    }
    loop {
        let mut next = reached.clone();
        for n in &reached {
            if let Some(d) = module.define(n) {
                next.extend(names_of(&d.expr));
            }
        }
        if next == reached {
            break;
        }
        reached = next;
    }
    let reduced = Module {
        vars: module
            .vars
            .iter()
            .filter(|d| union.contains(&d.name))
            .cloned()
            .collect(),
        inits: module.inits.iter().filter(kept).cloned().collect(),
        nexts: module.nexts.iter().filter(kept).cloned().collect(),
        defines: module
            .defines
            .iter()
            .filter(|d| reached.contains(&d.name))
            .cloned()
            .collect(),
        specs: module.specs.clone(),
        fairness: module.fairness.clone(),
        observed: observed
            .iter()
            .map(|name| ObservedDecl {
                name: name.clone(),
                line: module
                    .observed
                    .iter()
                    .find(|o| &o.name == name)
                    .map_or(0, |o| o.line),
            })
            .collect(),
    };
    Ok(NaivePlan {
        tasks,
        reduced: Some(reduced),
    })
}

/// Asserts that `plan_machine` plans `module` for `signals` as the naive
/// reference does: the same error, or the same tasks, the same reduce
/// decision and a `Debug`-equal module to compile.
pub fn assert_plan_matches(module: &Module, signals: &[String], context: &str) {
    let naive = naive_plan(module, signals);
    let planned = covest_par::plan_machine(module.clone(), signals);
    match (planned, naive) {
        (Err(got), Err(want)) => assert_eq!(got, want, "{context}: error"),
        (Ok(machine), Ok(naive)) => {
            let tasks: Vec<(String, Vec<String>)> = machine
                .tasks
                .into_iter()
                .map(|t| (t.signal, t.cone))
                .collect();
            assert_eq!(tasks, naive.tasks, "{context}: tasks");
            assert_eq!(
                machine.reduced,
                naive.reduced.is_some(),
                "{context}: reduce decision"
            );
            let want = naive.reduced.unwrap_or_else(|| module.clone());
            assert_eq!(
                format!("{:?}", machine.module),
                format!("{want:?}"),
                "{context}: module"
            );
        }
        (got, want) => panic!("{context}: planner {got:?}, reference {want:?}"),
    }
}
