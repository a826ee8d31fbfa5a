//! Cone-of-influence computation and deck reduction.

use std::collections::BTreeSet;

use covest_smv::{Module, ObservedDecl};

use crate::graph::{parsed_atoms, Cone, DepGraph, NameKind};

/// The cone of influence of one coverage task: the variables that the
/// deck's properties, fairness constraints, and the observed `signal`
/// transitively depend on, by name.
///
/// Every `SPEC` is seeded (a coverage task verifies the full property
/// suite), every `FAIRNESS` is seeded (fair-state computation must be a
/// cone predicate), and the task's observed signal is seeded: the
/// [`DepGraph::suite_cone`] extended with `signal`.
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
    let mut cone = graph.suite_cone();
    graph.extend_cone(&mut cone, [signal]);
    Ok(cone.var_names(module).map(str::to_owned).collect())
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

/// What pruning a deck to the union cone of a *shard* — a group of
/// coverage tasks that share one compiled machine — keeps: exactly the
/// cone variables, their `init`/`next` assignments, the `DEFINE`s the
/// properties and any of the shard's signals reach, every `SPEC` and
/// `FAIRNESS`; and it observes exactly the shard's signals.
///
/// Compiling the result yields a machine over exactly the cone bits, with
/// the same bit names and variable order as the full compile restricted to
/// the cone — the basis for the bit-identical-parity guarantee (see
/// DESIGN.md).
#[derive(Debug)]
pub struct Reduction {
    vars: Cone,
    inits: Vec<bool>,
    nexts: Vec<bool>,
    defines: Vec<bool>,
    observed: Vec<ObservedDecl>,
}

impl Reduction {
    /// The reduction of `graph`'s deck to `cone`, observing `signals` in
    /// the order given (which shard construction keeps as declaration
    /// order). With several signals, `cone` must be the union of their
    /// task cones so that every signal's analysis is exact on the shared
    /// machine.
    ///
    /// A `DEFINE` is kept when its name is reached, through
    /// [`Module::define`], from a property or fairness atom, one of
    /// `signals`, or an `init`/`next` expression of a cone variable; a
    /// kept name keeps each of its declarations.
    pub fn new(graph: &DepGraph, cone: Cone, signals: &[String]) -> Reduction {
        let module = graph.module;
        let seeds = parsed_atoms(module).into_iter();
        let defines = graph.needed_defines(&cone, seeds.chain(signals.iter().map(String::as_str)));
        let assigned = |targets: &[Option<u32>]| -> Vec<bool> {
            targets
                .iter()
                .map(|t| t.is_some_and(|v| cone.contains(v as usize)))
                .collect()
        };
        let (inits, nexts) = (assigned(&graph.init_targets), assigned(&graph.next_targets));
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
        Reduction {
            vars: cone,
            inits,
            nexts,
            defines,
            observed,
        }
    }

    /// Prunes `module`, the deck the reduction was computed on, in place:
    /// what is kept is moved, never copied, and keeps declaration order.
    pub fn apply(self, module: &mut Module) {
        debug_assert_eq!(
            (module.inits.len(), module.nexts.len(), module.defines.len()),
            (self.inits.len(), self.nexts.len(), self.defines.len()),
            "a reduction applies to the deck it was computed on"
        );
        retain_flagged(&mut module.vars, |i| self.vars.contains(i));
        retain_flagged(&mut module.inits, |i| self.inits[i]);
        retain_flagged(&mut module.nexts, |i| self.nexts[i]);
        retain_flagged(&mut module.defines, |i| self.defines[i]);
        module.observed = self.observed;
    }
}

/// Keeps the items whose index `keep` accepts.
fn retain_flagged<T>(items: &mut Vec<T>, keep: impl Fn(usize) -> bool) {
    let mut i = 0;
    items.retain(|_| {
        i += 1;
        keep(i - 1)
    });
}

/// Prunes a clone of `module` to the union cone `cone` of the shard
/// observing `signals` (see [`Reduction`]). Kept only for the
/// `perfbench` harness, which calls it; nothing under `crates/` does —
/// the planner prunes the parsed deck in place with
/// [`Reduction::apply`].
pub fn reduce_module_multi(module: &Module, cone: &BTreeSet<String>, signals: &[String]) -> Module {
    let graph = DepGraph::new(module);
    let reduction = Reduction::new(&graph, Cone::of_names(module, cone), signals);
    let mut reduced = module.clone();
    reduction.apply(&mut reduced);
    reduced
}

/// The state-bit names of the variables named in `cone`, in declaration
/// order (see [`Cone::bit_names`]).
pub fn cone_bit_names(module: &Module, cone: &BTreeSet<String>) -> Vec<String> {
    Cone::of_names(module, cone).bit_names(module)
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

    /// `m` pruned to the task cone of `signal`, as the planner prunes it.
    fn reduce(m: &Module, signal: &str) -> Module {
        let g = DepGraph::new(m);
        let mut cone = g.suite_cone();
        g.extend_cone(&mut cone, [signal]);
        let reduction = Reduction::new(&g, cone, &[signal.to_owned()]);
        let mut reduced = m.clone();
        reduction.apply(&mut reduced);
        reduced
    }

    #[test]
    fn reduce_keeps_declaration_order_and_needed_defines() {
        let m = parse_module(DECK).expect("parses");
        let r = reduce(&m, "count");
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
        let r = reduce(&m, "count");
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
        let r = reduce(&m, "count");
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
