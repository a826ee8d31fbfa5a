//! Cone-of-influence computation and deck reduction.

use std::collections::BTreeSet;

use covest_smv::{decl_bit_names, Expr, Module, ObservedDecl};

use crate::graph::{DepGraph, NameKind};

/// Collects every bare identifier occurring in an expression.
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

/// The atom names of every `SPEC` and `FAIRNESS` body that parses, as
/// stored on its declaration by the deck parser.
fn parsed_atoms(module: &Module) -> impl Iterator<Item = &str> {
    module
        .specs
        .iter()
        .chain(module.fairness.iter())
        .flat_map(|s| s.signals().unwrap_or_default())
        .map(|name| &**name)
}

/// The cone of influence of one coverage task: the variables that the
/// deck's properties, fairness constraints, and the observed `signal`
/// transitively depend on.
///
/// Every `SPEC` is seeded (a coverage task verifies the full property
/// suite), every `FAIRNESS` is seeded (fair-state computation must be a
/// cone predicate), and the task's observed signal is seeded.
///
/// # Errors
///
/// Returns [`Module::property_error`]'s message for the first property
/// the CTL parser rejects: the message compiling the deck would give.
pub fn task_cone(
    module: &Module,
    graph: &DepGraph,
    signal: &str,
) -> Result<BTreeSet<String>, String> {
    if let Some(e) = module.property_error() {
        return Err(e.to_string());
    }
    let mut atoms: BTreeSet<&str> = parsed_atoms(module).collect();
    atoms.insert(signal);
    let seeds = graph.resolve_names(module, atoms);
    Ok(graph.cone(&seeds))
}

/// The union cone over every property, fairness constraint, and observed
/// signal of the deck — the set of variables that can influence *any*
/// analysis of the deck. Variables outside it are dead (lint `dead-var`).
/// Unparseable properties contribute no atoms (lint reports them
/// separately as `bad-property`).
pub fn union_cone(module: &Module, graph: &DepGraph) -> BTreeSet<String> {
    let observed = module.observed.iter().map(|o| o.name.as_str());
    let atoms: BTreeSet<&str> = parsed_atoms(module).chain(observed).collect();
    let seeds = graph.resolve_names(module, atoms);
    graph.cone(&seeds)
}

/// `true` when a deck can be compiled cone-reduced for `signals`: every
/// analyzed signal and every `OBSERVED` entry names a declared variable
/// or `DEFINE`. Any other name has no cone, and compiling the full deck
/// reports it exactly as a full compile does — an undefined `OBSERVED`
/// entry when the deck compiles, an unknown analyzed signal when its
/// analysis starts.
pub fn reducible(module: &Module, graph: &DepGraph, signals: &[String]) -> bool {
    let observed = module.observed.iter().map(|o| &o.name);
    signals
        .iter()
        .chain(observed)
        .all(|name| matches!(graph.classify(name), NameKind::Var | NameKind::Define))
}

/// The `DEFINE`s reachable — through macro references — from the
/// properties, the fairness constraints, any of `signals`, or any
/// `init`/`next` expression of a cone variable, by name.
fn needed_defines(
    module: &Module,
    cone: &BTreeSet<String>,
    signals: &[String],
) -> BTreeSet<String> {
    let mut seeds: BTreeSet<String> = parsed_atoms(module)
        .chain(signals.iter().map(String::as_str))
        .map(str::to_owned)
        .collect();
    for a in module.inits.iter().chain(module.nexts.iter()) {
        if cone.contains(&a.name) {
            expr_names(&a.expr, &mut seeds);
        }
    }

    let mut needed = BTreeSet::new();
    let mut work: Vec<String> = seeds.into_iter().collect();
    while let Some(n) = work.pop() {
        if let Some(def) = module.define(&n) {
            if needed.insert(n) {
                let mut body = BTreeSet::new();
                expr_names(&def.expr, &mut body);
                work.extend(body);
            }
        }
    }
    needed
}

/// Prunes a deck to the cone of one coverage task: keeps exactly the cone
/// variables (declaration order preserved), their `init`/`next`
/// assignments, the `DEFINE`s the properties and `signal` reach, every
/// `SPEC` and `FAIRNESS`, and observes only `signal`.
///
/// Compiling the result yields a machine over exactly the cone bits, with
/// the same bit names and variable order as the full compile restricted to
/// the cone — the basis for the bit-identical-parity guarantee (see
/// DESIGN.md).
pub fn reduce_module(module: &Module, cone: &BTreeSet<String>, signal: &str) -> Module {
    reduce_module_multi(module, cone, std::slice::from_ref(&signal.to_owned()))
}

/// Prunes a deck to the union cone of a *shard* — a group of coverage
/// tasks that share one compiled machine: keeps exactly the cone
/// variables (declaration order preserved), their `init`/`next`
/// assignments, the `DEFINE`s the properties and any of `signals` reach,
/// every `SPEC` and `FAIRNESS`, and observes exactly `signals` (in the
/// order given, which shard construction keeps as declaration order).
///
/// With a single signal this is [`reduce_module`]; with several, `cone`
/// must be the union of the per-signal cones so that every signal's
/// analysis is exact on the shared machine.
pub fn reduce_module_multi(module: &Module, cone: &BTreeSet<String>, signals: &[String]) -> Module {
    let defines = needed_defines(module, cone, signals);
    let observed = signals
        .iter()
        .map(|signal| ObservedDecl {
            name: signal.clone(),
            line: module
                .observed
                .iter()
                .find(|o| &o.name == signal)
                .map_or(0, |o| o.line),
        })
        .collect();
    Module {
        vars: module
            .vars
            .iter()
            .filter(|d| cone.contains(&d.name))
            .cloned()
            .collect(),
        inits: module
            .inits
            .iter()
            .filter(|a| cone.contains(&a.name))
            .cloned()
            .collect(),
        nexts: module
            .nexts
            .iter()
            .filter(|a| cone.contains(&a.name))
            .cloned()
            .collect(),
        defines: module
            .defines
            .iter()
            .filter(|d| defines.contains(&d.name))
            .cloned()
            .collect(),
        specs: module.specs.clone(),
        fairness: module.fairness.clone(),
        observed,
    }
}

/// The state-bit names of the cone variables, in declaration order — the
/// counting/sampling universe of a cone-restricted coverage analysis and
/// the static size estimate of the task.
pub fn cone_bit_names(module: &Module, cone: &BTreeSet<String>) -> Vec<String> {
    module
        .vars
        .iter()
        .filter(|d| cone.contains(&d.name))
        .flat_map(decl_bit_names)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use covest_smv::parse_module;

    const DECK: &str = r#"
VAR count : 0..3;
    shadow : 0..3;
    flag : boolean;
IVAR step : boolean;
DEFINE full := count = 3;
       ghost := shadow = 0;
ASSIGN
  init(count) := 0;
  next(count) := case step & !full : count + 1; TRUE : count; esac;
  init(shadow) := 0;
  next(shadow) := count;
  init(flag) := FALSE;
  next(flag) := flag;
SPEC AG (full -> AX full);
OBSERVED count, shadow;
"#;

    #[test]
    fn task_cone_follows_macros_and_inputs() {
        let m = parse_module(DECK).expect("parses");
        let g = DepGraph::new(&m);
        let cone = task_cone(&m, &g, "count").unwrap();
        assert!(cone.contains("count") && cone.contains("step"));
        assert!(!cone.contains("shadow") && !cone.contains("flag"));
        // Observing `shadow` drags in `count` (its next reads it).
        let cone = task_cone(&m, &g, "shadow").unwrap();
        assert!(cone.contains("shadow") && cone.contains("count"));
        assert!(!cone.contains("flag"));
    }

    #[test]
    fn reduce_keeps_declaration_order_and_needed_defines() {
        let m = parse_module(DECK).expect("parses");
        let g = DepGraph::new(&m);
        let cone = task_cone(&m, &g, "count").unwrap();
        let r = reduce_module(&m, &cone, "count");
        let names: Vec<&str> = r.vars.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["count", "step"]);
        assert_eq!(r.defines.len(), 1);
        assert_eq!(r.defines[0].name, "full");
        assert_eq!(r.specs.len(), 1);
        assert_eq!(r.observed.len(), 1);
        assert_eq!(r.observed[0].name, "count");
        // The reduced deck still compiles.
        let bdd = covest_bdd::BddManager::new();
        covest_smv::compile_module(&bdd, &r).expect("reduced deck compiles");
    }

    #[test]
    fn reduce_keeps_defines_reached_only_through_assignments() {
        // `hidden` is referenced by next(count) but by no property — the
        // reduced deck must still carry it (regression: priority_buffer's
        // next(hi_cnt) reads DEFINE hi_deq, which no SPEC mentions).
        let deck = r#"
VAR count : 0..3;
    gate : boolean;
DEFINE hidden := gate & count < 3;
ASSIGN
  init(count) := 0;
  next(count) := case hidden : count + 1; TRUE : count; esac;
  init(gate) := TRUE;
  next(gate) := !gate;
SPEC AG (count <= 3);
OBSERVED count;
"#;
        let m = parse_module(deck).expect("parses");
        let g = DepGraph::new(&m);
        let cone = task_cone(&m, &g, "count").unwrap();
        let r = reduce_module(&m, &cone, "count");
        assert!(r.defines.iter().any(|d| d.name == "hidden"));
        let bdd = covest_bdd::BddManager::new();
        covest_smv::compile_module(&bdd, &r).expect("reduced deck compiles");
    }

    #[test]
    fn reducible_needs_declared_signals_and_observed_entries() {
        let m = parse_module(DECK).expect("parses");
        let g = DepGraph::new(&m);
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // Variables and DEFINEs have cones.
        assert!(reducible(&m, &g, &names(&["count", "full"])));
        // An undeclared name has none.
        assert!(!reducible(&m, &g, &names(&["count", "nope"])));
        // A deck whose own OBSERVED list names an undeclared signal is
        // left to the full compile, which reports it.
        let broken =
            parse_module(&DECK.replace("OBSERVED count, shadow;", "OBSERVED count, ghost2;"))
                .expect("parses");
        let g = DepGraph::new(&broken);
        assert!(!reducible(&broken, &g, &names(&["count"])));
    }

    #[test]
    fn cone_bit_names_match_compiled_bit_names() {
        let m = parse_module(DECK).expect("parses");
        let g = DepGraph::new(&m);
        let cone = task_cone(&m, &g, "count").unwrap();
        let bits = cone_bit_names(&m, &cone);
        assert_eq!(bits, vec!["count.0", "count.1", "step"]);
        let r = reduce_module(&m, &cone, "count");
        let bdd = covest_bdd::BddManager::new();
        let model = covest_smv::compile_module(&bdd, &r).unwrap();
        let compiled: Vec<String> = model
            .fsm
            .state_bits()
            .iter()
            .map(|b| b.name.clone())
            .collect();
        assert_eq!(bits, compiled);
    }
}
