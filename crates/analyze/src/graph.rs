//! The variable-dependency graph of a parsed deck, over declaration
//! indices.

use std::collections::{BTreeSet, HashMap};

use covest_smv::{decl_bit_names, Assign, Expr, Module, VarDecl, VarType};

/// How a bare identifier in a deck expression resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameKind {
    /// A declared `VAR` or `IVAR`.
    Var,
    /// A `DEFINE` macro.
    Define,
    /// An enumeration literal; the payload is the declaring variable.
    EnumLiteral(String),
    /// Not declared anywhere in the deck.
    Unknown,
}

/// Everything one name is declared as. A name may be several things at
/// once; [`Binding::target`] picks what a reference to it reads.
#[derive(Debug, Clone, Copy, Default)]
struct Binding {
    /// The variable: the last declaration of the name.
    var: Option<u32>,
    /// The `DEFINE` a reference expands: the last of the name (compile
    /// rejects a repeated name).
    define: Option<u32>,
    /// The `DEFINE` [`Module::define`] finds: the first of the name.
    first_define: Option<u32>,
    /// The variable whose enumeration declares the name first.
    literal_of: Option<u32>,
}

/// What a reference to a name reads.
#[derive(Debug, Clone, Copy)]
enum Target {
    Var(u32),
    Define(u32),
}

impl Binding {
    /// Variables shadow `DEFINE`s, which shadow enumeration literals —
    /// the compiler's name lookup.
    fn target(self) -> Option<Target> {
        match (self.var, self.define, self.literal_of) {
            (Some(v), _, _) | (None, None, Some(v)) => Some(Target::Var(v)),
            (None, Some(d), _) => Some(Target::Define(d)),
            (None, None, None) => None,
        }
    }
}

/// A set of a deck's variables, as one flag per declaration in
/// [`Module::vars`]; every declaration of a repeated name has the same
/// flag. Built by [`DepGraph::cone`] and [`DepGraph::extend_cone`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cone {
    member: Vec<bool>,
}

impl Cone {
    /// The variables of `module` named in `names`.
    pub(crate) fn of_names(module: &Module, names: &BTreeSet<String>) -> Cone {
        Cone {
            member: module
                .vars
                .iter()
                .map(|d| names.contains(&d.name))
                .collect(),
        }
    }

    /// `true` when the variable declared at index `decl` is in the cone.
    pub(crate) fn contains(&self, decl: usize) -> bool {
        self.member[decl]
    }

    /// `true` when the cone holds every declared variable.
    pub fn is_full(&self) -> bool {
        self.member.iter().all(|&m| m)
    }

    /// Adds every variable of `other`, a cone of the same deck.
    pub fn union_with(&mut self, other: &Cone) {
        for (m, &o) in self.member.iter_mut().zip(&other.member) {
            *m |= o;
        }
    }

    /// The cone's variable declarations, in declaration order.
    fn decls<'a, 'm: 'a>(&'a self, module: &'m Module) -> impl Iterator<Item = &'m VarDecl> + 'a {
        module
            .vars
            .iter()
            .zip(&self.member)
            .filter(|&(_, &m)| m)
            .map(|(d, _)| d)
    }

    /// The names of the cone's variables, in declaration order.
    pub(crate) fn var_names<'a, 'm: 'a>(
        &'a self,
        module: &'m Module,
    ) -> impl Iterator<Item = &'m str> + 'a {
        self.decls(module).map(|d| d.name.as_str())
    }

    /// The state-bit names of the cone's variables, in declaration
    /// order — the counting/sampling universe of a cone-restricted
    /// coverage analysis and the static size estimate of the task.
    pub fn bit_names(&self, module: &Module) -> Vec<String> {
        self.decls(module).flat_map(decl_bit_names).collect()
    }
}

/// Calls `f` on every bare identifier in `e`. The walk uses `stack`
/// (empty again on return) instead of recursion, since a long operator
/// chain parses into a tree as deep as the chain is long.
pub(crate) fn for_each_name<'e>(
    e: &'e Expr,
    stack: &mut Vec<&'e Expr>,
    mut f: impl FnMut(&'e str),
) {
    stack.push(e);
    while let Some(e) = stack.pop() {
        match e {
            Expr::Bool(_) | Expr::Int(_) => {}
            Expr::Name(n) => f(n),
            Expr::Not(a) => stack.push(a),
            Expr::Bin(_, a, b) => {
                stack.push(b);
                stack.push(a);
            }
            Expr::Case(arms) => {
                for (g, v) in arms.iter().rev() {
                    stack.push(v);
                    stack.push(g);
                }
            }
        }
    }
}

/// The index of `name`'s binding, added empty if it has none yet.
fn intern<'m>(ids: &mut HashMap<&'m str, u32>, bindings: &mut Vec<Binding>, name: &'m str) -> u32 {
    *ids.entry(name).or_insert_with(|| {
        bindings.push(Binding::default());
        (bindings.len() - 1) as u32
    })
}

/// Sorts and deduplicates each list.
fn normalize(lists: &mut [Vec<u32>]) {
    for list in lists {
        list.sort_unstable();
        list.dedup();
    }
}

/// Tarjan's strongly connected components of the graph on
/// `0..succ.len()`, iteratively: `component` gets each one after every
/// component it reaches.
fn components(succ: &[Vec<u32>], mut component: impl FnMut(&[u32])) {
    const UNSEEN: u32 = u32::MAX;
    let n = succ.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // The depth-first walk's frames: a node and its next successor.
    let mut calls: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        calls.push((root as u32, 0));
        while let Some(top) = calls.last_mut() {
            let (v, pos) = (top.0 as usize, top.1);
            if pos == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                on_stack[v] = true;
                stack.push(v as u32);
            }
            if let Some(&w) = succ[v].get(pos) {
                top.1 += 1;
                let w = w as usize;
                if index[w] == UNSEEN {
                    calls.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            calls.pop();
            if let Some(&(parent, _)) = calls.last() {
                low[parent as usize] = low[parent as usize].min(low[v]);
            }
            if low[v] == index[v] {
                let at = stack
                    .iter()
                    .rposition(|&m| m as usize == v)
                    .expect("an open node is on the stack");
                for &m in &stack[at..] {
                    on_stack[m as usize] = false;
                }
                component(&stack[at..]);
                stack.truncate(at);
            }
        }
    }
}

/// The static dependency graph of a module, over declaration indices:
/// for every declared variable, the variables its `next`/`init`
/// expressions read (with `DEFINE` macros expanded and enumeration
/// literals attributed to their declaring variable), and for every
/// `DEFINE`, its variable support.
///
/// One name table resolves every name with the compiler's precedence
/// (see [`DepGraph::classify`]); a repeated `VAR` name is the variable
/// of its last declaration, and a repeated `DEFINE` name expands its
/// last body. Each `DEFINE`'s support is computed once, as the
/// closure over the `DEFINE`-reference graph, and a reference reads the
/// stored support. Index lists are sorted, so everything derived from
/// them is deterministic.
#[derive(Debug)]
pub struct DepGraph<'m> {
    pub(crate) module: &'m Module,
    /// Every declared name, to its index in `bindings`.
    ids: HashMap<&'m str, u32>,
    bindings: Vec<Binding>,
    /// Per variable declaration: the variable its name resolves to. The
    /// per-variable lists below are filled at those indices only.
    pub(crate) var_of: Vec<u32>,
    /// Per variable: the declared names its `init` and `next` bodies
    /// read, as binding indices.
    var_refs: Vec<Vec<u32>>,
    /// Per variable: the variables its `init` and `next` bodies read.
    var_deps: Vec<Vec<u32>>,
    /// Per `DEFINE`: the binding index of its name.
    define_ids: Vec<u32>,
    /// Per `DEFINE`: the declared names its body reads.
    define_refs: Vec<Vec<u32>>,
    /// Per `DEFINE`: its variable support.
    define_support: Vec<Vec<u32>>,
    /// Per `init` and `next` assignment: the variable it assigns.
    pub(crate) init_targets: Vec<Option<u32>>,
    pub(crate) next_targets: Vec<Option<u32>>,
}

impl<'m> DepGraph<'m> {
    /// Builds the dependency graph of `module`.
    pub fn new(module: &'m Module) -> Self {
        let declared = module.vars.len() + module.defines.len();
        let mut ids: HashMap<&'m str, u32> = HashMap::with_capacity(declared);
        let mut bindings: Vec<Binding> = Vec::with_capacity(declared);
        let var_ids: Vec<u32> = module
            .vars
            .iter()
            .map(|d| intern(&mut ids, &mut bindings, &d.name))
            .collect();
        for (i, &id) in var_ids.iter().enumerate() {
            bindings[id as usize].var = Some(i as u32);
        }
        let var_of: Vec<u32> = var_ids
            .iter()
            .map(|&id| bindings[id as usize].var.expect("a declared variable"))
            .collect();
        let define_ids: Vec<u32> = module
            .defines
            .iter()
            .map(|d| intern(&mut ids, &mut bindings, &d.name))
            .collect();
        for (i, &id) in define_ids.iter().enumerate() {
            let b = &mut bindings[id as usize];
            b.define = Some(i as u32);
            b.first_define.get_or_insert(i as u32);
        }
        // First declaration wins for enumeration literals.
        for (d, &owner) in module.vars.iter().zip(&var_of) {
            if let VarType::Enum(lits) = &d.ty {
                for l in lits {
                    let id = intern(&mut ids, &mut bindings, l);
                    bindings[id as usize].literal_of.get_or_insert(owner);
                }
            }
        }

        let mut stack = Vec::new();
        let mut refs_of = |e: &'m Expr, out: &mut Vec<u32>| {
            for_each_name(e, &mut stack, |n| out.extend(ids.get(n).copied()));
        };
        let mut define_refs: Vec<Vec<u32>> = module
            .defines
            .iter()
            .map(|d| {
                let mut refs = Vec::new();
                refs_of(&d.expr, &mut refs);
                refs
            })
            .collect();
        normalize(&mut define_refs);
        let mut var_refs = vec![Vec::new(); module.vars.len()];
        let mut targets = |assigns: &'m [Assign]| -> Vec<Option<u32>> {
            assigns
                .iter()
                .map(|a| {
                    let v = ids
                        .get(a.name.as_str())
                        .and_then(|&id| bindings[id as usize].var)?;
                    refs_of(&a.expr, &mut var_refs[v as usize]);
                    Some(v)
                })
                .collect()
        };
        let next_targets = targets(&module.nexts);
        let init_targets = targets(&module.inits);
        normalize(&mut var_refs);

        let mut g = DepGraph {
            module,
            ids,
            bindings,
            var_of,
            var_refs,
            var_deps: Vec::new(),
            define_ids,
            define_refs,
            define_support: vec![Vec::new(); module.defines.len()],
            init_targets,
            next_targets,
        };
        g.resolve_supports();
        g.var_deps = g.var_refs.iter().map(|refs| g.resolve_refs(refs)).collect();
        g
    }

    /// Computes every `DEFINE`'s support once, component by component of
    /// the reference graph: a component's members share one support,
    /// the variables they read and the supports of the components they
    /// reach, which are complete by then.
    fn resolve_supports(&mut self) {
        let succ = self.define_succ();
        let mut support = std::mem::take(&mut self.define_support);
        components(&succ, |members| {
            let mut vars = Vec::new();
            for &d in members {
                for &id in &self.define_refs[d as usize] {
                    match self.bindings[id as usize].target() {
                        Some(Target::Var(v)) => vars.push(v),
                        // A member's support is still empty here.
                        Some(Target::Define(e)) => vars.extend_from_slice(&support[e as usize]),
                        None => {}
                    }
                }
            }
            vars.sort_unstable();
            vars.dedup();
            for &d in members {
                support[d as usize].clone_from(&vars);
            }
        });
        self.define_support = support;
    }

    /// The `DEFINE` reference graph: per `DEFINE`, the `DEFINE`s its
    /// body reads, the names no variable shadows ([`Binding::target`]).
    fn define_succ(&self) -> Vec<Vec<u32>> {
        self.define_refs
            .iter()
            .map(|refs| {
                refs.iter()
                    .filter_map(|&id| match self.bindings[id as usize].target() {
                        Some(Target::Define(d)) => Some(d),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    /// The variables the declared names `refs` read, sorted.
    fn resolve_refs(&self, refs: &[u32]) -> Vec<u32> {
        let mut vars = Vec::new();
        for &id in refs {
            self.push_vars(self.bindings[id as usize], &mut vars);
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Pushes the variables a reference through `binding` reads: a
    /// variable itself, a `DEFINE`'s support, or a literal's declaring
    /// variable.
    fn push_vars(&self, binding: Binding, out: &mut Vec<u32>) {
        match binding.target() {
            Some(Target::Var(v)) => out.push(v),
            Some(Target::Define(d)) => out.extend_from_slice(&self.define_support[d as usize]),
            None => {}
        }
    }

    /// The binding of `name`, if it is declared.
    fn binding(&self, name: &str) -> Option<Binding> {
        self.ids.get(name).map(|&id| self.bindings[id as usize])
    }

    /// The variables `name` reads, or none when it is undeclared.
    pub(crate) fn name_vars(&self, name: &str) -> Vec<u32> {
        let mut vars = Vec::new();
        if let Some(b) = self.binding(name) {
            self.push_vars(b, &mut vars);
        }
        vars
    }

    /// Classifies a bare identifier the way the deck compiler does:
    /// variables shadow `DEFINE`s, which shadow enumeration literals.
    pub fn classify(&self, name: &str) -> NameKind {
        let Some(b) = self.binding(name) else {
            return NameKind::Unknown;
        };
        match (b.var, b.define, b.literal_of) {
            (Some(_), _, _) => NameKind::Var,
            (None, Some(_), _) => NameKind::Define,
            (None, None, Some(v)) => {
                NameKind::EnumLiteral(self.module.vars[v as usize].name.clone())
            }
            (None, None, None) => NameKind::Unknown,
        }
    }

    fn names(&self, vars: &[u32]) -> Vec<&'m str> {
        vars.iter()
            .map(|&v| self.module.vars[v as usize].name.as_str())
            .collect()
    }

    /// The names of the variables an assigned variable reads through its
    /// `next` and `init` expressions (macros expanded), in declaration
    /// order, or `None` if `name` is not a declared variable.
    pub fn var_deps(&self, name: &str) -> Option<Vec<&'m str>> {
        let v = self.binding(name)?.var?;
        Some(self.names(&self.var_deps[v as usize]))
    }

    /// The names of a `DEFINE`'s support variables, in declaration order,
    /// or `None` if `name` is not a macro.
    pub fn define_vars(&self, name: &str) -> Option<Vec<&'m str>> {
        let d = self.binding(name)?.define?;
        Some(self.names(&self.define_support[d as usize]))
    }

    /// The cone of influence of a set of seed names (variables,
    /// `DEFINE`s, or enumeration literals): the least set of declared
    /// variables containing the variables the seeds read and closed
    /// under [`DepGraph::var_deps`]. Input variables read by cone members
    /// are in the cone; undeclared seeds add nothing.
    pub fn cone<'a>(&self, seeds: impl IntoIterator<Item = &'a str>) -> Cone {
        let mut cone = Cone {
            member: vec![false; self.module.vars.len()],
        };
        self.extend_cone(&mut cone, seeds);
        cone
    }

    /// Adds the cone of `seeds` to `cone`, a cone of this graph, walking
    /// only from the variables `cone` does not hold yet.
    pub fn extend_cone<'a>(&self, cone: &mut Cone, seeds: impl IntoIterator<Item = &'a str>) {
        let mut work = Vec::new();
        for seed in seeds {
            if let Some(b) = self.binding(seed) {
                self.push_vars(b, &mut work);
            }
        }
        work.retain(|&v| !std::mem::replace(&mut cone.member[v as usize], true));
        while let Some(v) = work.pop() {
            for &d in &self.var_deps[v as usize] {
                if !std::mem::replace(&mut cone.member[d as usize], true) {
                    work.push(d);
                }
            }
        }
        // The closure marks each name's variable; its other
        // declarations follow it.
        for (i, &v) in self.var_of.iter().enumerate() {
            if v as usize != i {
                cone.member[i] = cone.member[v as usize];
            }
        }
    }

    /// The cone of every `SPEC` and `FAIRNESS` atom that parses: the part
    /// of every coverage task's cone the property suite seeds.
    pub fn suite_cone(&self) -> Cone {
        self.cone(parsed_atoms(self.module))
    }

    /// Names of `DEFINE`s that lie on a combinational `DEFINE` cycle, in
    /// declaration order: those that reach themselves through the names
    /// their bodies read that are `DEFINE`s (the last of each name) and
    /// not variables, which shadow them as they do in compile.
    pub fn define_cycles(&self) -> Vec<String> {
        let succ = self.define_succ();
        let mut cyclic = vec![false; succ.len()];
        components(&succ, |members| {
            if let [d] = members {
                cyclic[*d as usize] = succ[*d as usize].contains(d);
            } else {
                for &d in members {
                    cyclic[d as usize] = true;
                }
            }
        });
        self.module
            .defines
            .iter()
            .zip(cyclic)
            .filter(|&(_, c)| c)
            .map(|(d, _)| d.name.clone())
            .collect()
    }

    /// The `DEFINE`s reachable — by name, through [`Module::define`] —
    /// from `seeds` and from any `init`/`next` expression of a `cone`
    /// variable: one flag per `DEFINE` declaration, set for every
    /// declaration of a reached name.
    pub(crate) fn needed_defines<'a>(
        &self,
        cone: &Cone,
        seeds: impl IntoIterator<Item = &'a str>,
    ) -> Vec<bool> {
        let mut needed = vec![false; self.bindings.len()];
        let mut work: Vec<u32> = seeds
            .into_iter()
            .filter_map(|n| self.ids.get(n).copied())
            .collect();
        for (v, refs) in self.var_refs.iter().enumerate() {
            if cone.member[v] {
                work.extend_from_slice(refs);
            }
        }
        while let Some(id) = work.pop() {
            if let Some(d) = self.bindings[id as usize].first_define {
                if !std::mem::replace(&mut needed[id as usize], true) {
                    work.extend_from_slice(&self.define_refs[d as usize]);
                }
            }
        }
        self.define_ids
            .iter()
            .map(|&id| needed[id as usize])
            .collect()
    }
}

/// The atom names of every `SPEC` and `FAIRNESS` body that parses, as
/// stored on its declaration by the deck parser. The declarations of a
/// deck share one allocation per name, so a suite that mentions a few
/// names many times yields each allocation once.
pub(crate) fn parsed_atoms(module: &Module) -> Vec<&str> {
    let mut atoms: Vec<&str> = module
        .specs
        .iter()
        .chain(module.fairness.iter())
        .flat_map(|s| s.signals().unwrap_or_default())
        .map(|name| &**name)
        .collect();
    atoms.sort_unstable_by_key(|a| a.as_ptr());
    atoms.dedup_by_key(|a| a.as_ptr());
    atoms
}

#[cfg(test)]
mod tests {
    use super::*;
    use covest_smv::parse_module;

    const DECK: &str = r#"
VAR mode : {idle, run, halt};
    x : boolean;
    y : 0..3;
    z : boolean;
IVAR go : boolean;
DEFINE running := mode = run;
       twice := running & x;
ASSIGN
  init(mode) := idle;
  next(mode) := case go : run; TRUE : mode; esac;
  init(x) := FALSE;
  next(x) := twice | x;
  init(y) := 0;
  next(y) := case y < 3 : y + 1; TRUE : 0; esac;
  init(z) := FALSE;
  next(z) := z;
"#;

    #[test]
    fn classification_and_supports() {
        let m = parse_module(DECK).expect("parses");
        let g = DepGraph::new(&m);
        assert_eq!(g.classify("x"), NameKind::Var);
        assert_eq!(g.classify("go"), NameKind::Var);
        assert_eq!(g.classify("running"), NameKind::Define);
        assert_eq!(g.classify("run"), NameKind::EnumLiteral("mode".into()));
        assert_eq!(g.classify("nope"), NameKind::Unknown);

        // next(x) reads the macro `twice` which expands to {mode, x}.
        let deps = g.var_deps("x").unwrap();
        assert!(deps.contains(&"mode") && deps.contains(&"x"));
        assert!(!deps.contains(&"y"));
        // DEFINE support resolves enum literals to the declaring var.
        assert_eq!(g.define_vars("running").unwrap(), vec!["mode"]);
    }

    #[test]
    fn cone_closes_over_next_supports() {
        let m = parse_module(DECK).expect("parses");
        let g = DepGraph::new(&m);
        let cone: Vec<&str> = g.cone(["x"]).var_names(&m).collect();
        // x ← twice ← {mode, x}; mode ← go. y and z are outside.
        assert!(cone.contains(&"x") && cone.contains(&"mode") && cone.contains(&"go"));
        assert!(!cone.contains(&"y") && !cone.contains(&"z"));
    }

    #[test]
    fn define_cycles_are_detected() {
        let m = parse_module(
            "VAR a : boolean;\nDEFINE p := q | a; q := p; r := a;\nASSIGN init(a) := FALSE; next(a) := a;",
        )
        .expect("parses");
        let g = DepGraph::new(&m);
        assert_eq!(g.define_cycles(), vec!["p".to_owned(), "q".to_owned()]);
        // Cycle resolution still terminates and keeps the sound part.
        assert!(g.define_vars("p").unwrap().contains(&"a"));
    }
}
