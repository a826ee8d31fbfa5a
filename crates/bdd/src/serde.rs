//! BDD export/import: a compact, levelized, **name-keyed** node-dump
//! format ([`BddDump`]) that moves functions between managers.
//!
//! The raison d'être is the parallel coverage engine: a [`crate::Func`]
//! lives on one manager behind an `Rc<RefCell<…>>` and is deliberately
//! not `Send`, so cross-thread reuse of a computed set (the reachable
//! states, a care set, the transition relation) goes through an explicit
//! serialization step. A dump is plain owned data — `Send + Sync`, no
//! references into any manager — and can also be rendered to and parsed
//! from a line-oriented text form for file interchange.
//!
//! Two properties make the format safe across engine boundaries:
//!
//! - **Name keying.** Nodes reference variables by *name*, never by
//!   [`crate::VarId`] index or level. Importing resolves each name
//!   against the target manager (creating missing named variables at the
//!   end of its order), so a function round-trips correctly into a
//!   manager whose variables were created in a different order — or have
//!   been shuffled by dynamic reordering since.
//! - **Levelized, children-first node order.** Nodes are listed bottom-up
//!   (deepest level of the *source* order first); every child reference
//!   points strictly backwards. Import therefore rebuilds each node with
//!   one `ite(var, hi, lo)` over already-imported children, which is
//!   correct under **any** target variable order — the target engine
//!   re-normalizes the graph to its own order as it goes.
//!
//! A dump holds no handles, so exporting then mutating the source
//! manager (more operations, `gc()`, `reduce_heap()`) cannot invalidate
//! it; importing yields fresh owned [`crate::Func`] handles that pin
//! themselves like any other. The round-trip property tests interleave
//! forced collections and reorderings on both sides.

use std::collections::HashMap;

use crate::handle::{BddManager, Func};
use crate::manager::Inner;
use crate::node::Ref;

/// Magic first line of the text rendering (see [`BddDump::to_text`]).
const TEXT_HEADER: &str = "covest-bdd-dump v1";

/// Packed child/root reference inside a dump: `0` is the false terminal,
/// `1` the true terminal, and `n + 2` the `n`-th entry of
/// [`BddDump::nodes`].
type PackedRef = u32;

const PACKED_FALSE: PackedRef = 0;
const PACKED_TRUE: PackedRef = 1;

#[inline]
fn pack(r: Ref, index_of: &HashMap<Ref, u32>) -> PackedRef {
    match r {
        Ref::FALSE => PACKED_FALSE,
        Ref::TRUE => PACKED_TRUE,
        _ => index_of[&r] + 2,
    }
}

/// One exported decision node: `if vars[var] then hi else lo`, with the
/// children given as packed references to earlier entries (or terminals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DumpNode {
    var: u32,
    lo: PackedRef,
    hi: PackedRef,
}

/// A serialized multi-rooted BDD: shared nodes are dumped once, in
/// levelized bottom-up order, referencing variables by name.
///
/// Produced by [`Func::export_bdd`] / [`BddManager::export_bdds`];
/// consumed by [`BddManager::import_bdd`] / [`BddManager::import_bdds`].
/// Plain data — `Clone + Send + Sync`, independent of every manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BddDump {
    /// Names of the support variables, listed in the source manager's
    /// level order (topmost first) at export time. The order is
    /// informational: import keys strictly on the names.
    vars: Vec<String>,
    /// The decision nodes, bottom-up: children strictly precede parents.
    nodes: Vec<DumpNode>,
    /// The exported roots (packed references), in export order.
    roots: Vec<PackedRef>,
}

impl BddDump {
    /// Number of exported roots.
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Number of shared decision nodes in the dump (terminals excluded).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The support variable names, in the source manager's level order at
    /// export time (topmost first).
    pub fn var_names(&self) -> &[String] {
        &self.vars
    }

    /// Renders the dump in the line-oriented text format:
    ///
    /// ```text
    /// covest-bdd-dump v1
    /// vars <count>
    /// <one name per line>
    /// nodes <count>
    /// <var-index> <lo> <hi>      (packed refs: 0=⊥, 1=⊤, n+2=node n)
    /// roots <count>
    /// <one packed ref per line>
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{TEXT_HEADER}");
        let _ = writeln!(out, "vars {}", self.vars.len());
        for v in &self.vars {
            let _ = writeln!(out, "{v}");
        }
        let _ = writeln!(out, "nodes {}", self.nodes.len());
        for n in &self.nodes {
            let _ = writeln!(out, "{} {} {}", n.var, n.lo, n.hi);
        }
        let _ = writeln!(out, "roots {}", self.roots.len());
        for r in &self.roots {
            let _ = writeln!(out, "{r}");
        }
        out
    }

    /// Parses the text format produced by [`BddDump::to_text`],
    /// validating the structural invariants (children-first references,
    /// in-range variable indices).
    ///
    /// # Errors
    ///
    /// [`SerdeError::Malformed`] on any syntactic or structural defect.
    pub fn from_text(text: &str) -> Result<BddDump, SerdeError> {
        let mut lines = text.lines();
        let bad = |what: &str| SerdeError::Malformed(what.to_owned());
        if lines.next() != Some(TEXT_HEADER) {
            return Err(bad("missing header line"));
        }
        fn section_count<'a>(
            lines: &mut impl Iterator<Item = &'a str>,
            keyword: &str,
        ) -> Result<usize, SerdeError> {
            let line = lines
                .next()
                .ok_or_else(|| SerdeError::Malformed(format!("missing `{keyword}` section")))?;
            line.strip_prefix(keyword)
                .and_then(|rest| rest.trim().parse().ok())
                .ok_or_else(|| SerdeError::Malformed(format!("bad `{keyword}` count line")))
        }
        let nvars = section_count(&mut lines, "vars")?;
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let name = lines.next().ok_or_else(|| bad("truncated vars section"))?;
            if name.is_empty() {
                return Err(bad("empty variable name"));
            }
            vars.push(name.to_owned());
        }
        let nnodes = section_count(&mut lines, "nodes")?;
        let mut nodes = Vec::with_capacity(nnodes);
        for i in 0..nnodes {
            let line = lines.next().ok_or_else(|| bad("truncated nodes section"))?;
            let mut fields = line.split_ascii_whitespace();
            let mut field = || -> Result<u32, SerdeError> {
                fields
                    .next()
                    .and_then(|f| f.parse().ok())
                    .ok_or_else(|| SerdeError::Malformed(format!("bad node line `{line}`")))
            };
            let (var, lo, hi) = (field()?, field()?, field()?);
            if fields.next().is_some() {
                return Err(SerdeError::Malformed(format!(
                    "trailing fields on node line `{line}`"
                )));
            }
            nodes.push(DumpNode { var, lo, hi });
            let _ = i;
        }
        let nroots = section_count(&mut lines, "roots")?;
        let mut roots = Vec::with_capacity(nroots);
        for _ in 0..nroots {
            let line = lines.next().ok_or_else(|| bad("truncated roots section"))?;
            roots.push(
                line.trim()
                    .parse()
                    .map_err(|_| SerdeError::Malformed(format!("bad root line `{line}`")))?,
            );
        }
        let dump = BddDump { vars, nodes, roots };
        dump.validate()?;
        Ok(dump)
    }

    /// Checks the structural invariants: every variable index names a
    /// dumped variable, every child reference points strictly backwards
    /// (children-first), and every root is in range.
    fn validate(&self) -> Result<(), SerdeError> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.var as usize >= self.vars.len() {
                return Err(SerdeError::Malformed(format!(
                    "node {i} references variable index {} of {}",
                    n.var,
                    self.vars.len()
                )));
            }
            for child in [n.lo, n.hi] {
                if child >= i as PackedRef + 2 {
                    return Err(SerdeError::Malformed(format!(
                        "node {i} references child {child} at or above itself \
                         (children must precede parents)"
                    )));
                }
            }
            if n.lo == n.hi {
                return Err(SerdeError::Malformed(format!(
                    "node {i} is redundant (equal children) — not a reduced BDD"
                )));
            }
        }
        for (i, &r) in self.roots.iter().enumerate() {
            if r >= self.nodes.len() as PackedRef + 2 {
                return Err(SerdeError::Malformed(format!(
                    "root {i} references missing node {r}"
                )));
            }
        }
        Ok(())
    }
}

/// Errors from BDD export/import.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerdeError {
    /// Export found a support variable with no assigned name; the format
    /// is name-keyed, so every support variable must be named (see
    /// [`BddManager::set_var_name`]).
    UnnamedVar(usize),
    /// [`BddManager::import_bdd`] was handed a dump with a root count
    /// other than one.
    RootCount(usize),
    /// A structurally invalid dump (bad text, dangling references,
    /// forward child references, redundant nodes).
    Malformed(String),
}

impl std::fmt::Display for SerdeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerdeError::UnnamedVar(idx) => write!(
                f,
                "cannot export: support variable v{idx} has no name \
                 (the dump format is keyed by variable name)"
            ),
            SerdeError::RootCount(n) => {
                write!(f, "import_bdd expects a single-root dump, found {n} roots")
            }
            SerdeError::Malformed(why) => write!(f, "malformed BDD dump: {why}"),
        }
    }
}

impl std::error::Error for SerdeError {}

/// Exports the BDDs rooted at `roots` from `inner` as a shared dump.
///
/// The traversal is read-only; the produced dump holds no references
/// into the engine. Nodes are emitted children-first and then levelized
/// (stable-sorted by source level, deepest first) — a child's level is
/// strictly greater than its parent's, so levelizing preserves the
/// children-first invariant.
pub(crate) fn export_dump(inner: &Inner, roots: &[Ref]) -> Result<BddDump, SerdeError> {
    // Post-order DFS: children land in `order` before their parents.
    let mut order: Vec<Ref> = Vec::new();
    let mut seen: HashMap<Ref, bool> = HashMap::new(); // false = open, true = emitted
    for &root in roots {
        if root.is_const() {
            continue;
        }
        let mut stack = vec![(root, false)];
        while let Some((r, expanded)) = stack.pop() {
            if r.is_const() {
                continue;
            }
            if expanded {
                if let Some(emitted) = seen.get_mut(&r) {
                    if !*emitted {
                        *emitted = true;
                        order.push(r);
                    }
                }
                continue;
            }
            if seen.contains_key(&r) {
                continue;
            }
            seen.insert(r, false);
            let n = inner.node(r);
            stack.push((r, true));
            stack.push((n.lo, false));
            stack.push((n.hi, false));
        }
    }
    // Levelize: deepest source level first. Stable, so the children-first
    // property of the post-order survives within equal levels too.
    order.sort_by_key(|&r| std::cmp::Reverse(inner.level(r)));

    // Support variables in source level order, keyed by name.
    let mut var_dump_idx: HashMap<u32, u32> = HashMap::new();
    let mut support: Vec<u32> = order.iter().map(|&r| inner.node(r).var).collect();
    support.sort_by_key(|&v| std::cmp::Reverse(inner.var2level[v as usize]));
    support.dedup();
    support.reverse(); // topmost level first
    let mut vars = Vec::with_capacity(support.len());
    for v in support {
        let name = inner
            .var_name(crate::node::VarId(v))
            .ok_or(SerdeError::UnnamedVar(v as usize))?;
        var_dump_idx.insert(v, vars.len() as u32);
        vars.push(name.to_owned());
    }

    let index_of: HashMap<Ref, u32> = order
        .iter()
        .enumerate()
        .map(|(i, &r)| (r, i as u32))
        .collect();
    let nodes = order
        .iter()
        .map(|&r| {
            let n = inner.node(r);
            DumpNode {
                var: var_dump_idx[&n.var],
                lo: pack(n.lo, &index_of),
                hi: pack(n.hi, &index_of),
            }
        })
        .collect();
    let roots = roots.iter().map(|&r| pack(r, &index_of)).collect();
    Ok(BddDump { vars, nodes, roots })
}

impl BddManager {
    /// Looks up a variable of this manager by its assigned name.
    ///
    /// Linear in the number of variables; import resolves each dump
    /// variable once, so this is never on a hot path.
    pub fn var_by_name(&self, name: &str) -> Option<crate::VarId> {
        self.with_inner(|inner| {
            (0..inner.num_vars())
                .map(crate::VarId::from_index)
                .find(|&v| inner.var_name(v) == Some(name))
        })
    }

    /// Exports several functions of this manager into one shared
    /// [`BddDump`] (common subgraphs are dumped once). The dump is keyed
    /// by variable *name* and holds no references into the manager.
    ///
    /// # Errors
    ///
    /// [`SerdeError::UnnamedVar`] if any support variable has no name.
    ///
    /// # Panics
    ///
    /// Panics if a function belongs to a different manager.
    pub fn export_bdds(&self, funcs: &[&Func]) -> Result<BddDump, SerdeError> {
        let raws = self.raw_refs(funcs);
        self.with_inner(|inner| export_dump(inner, &raws))
    }

    /// Imports a single-root dump, returning the rebuilt function as an
    /// owned handle on this manager.
    ///
    /// Dump variables are resolved by name against this manager's
    /// variables; names with no match get a fresh named variable at the
    /// end of the order. The rebuild goes node by node, children first,
    /// through [`Func::ite`], so it is correct under any variable order —
    /// including orders produced by dynamic reordering on either side.
    ///
    /// # Errors
    ///
    /// [`SerdeError::RootCount`] unless the dump has exactly one root;
    /// [`SerdeError::Malformed`] on structural defects.
    pub fn import_bdd(&self, dump: &BddDump) -> Result<Func, SerdeError> {
        if dump.roots.len() != 1 {
            return Err(SerdeError::RootCount(dump.roots.len()));
        }
        Ok(self.import_bdds(dump)?.pop().expect("one root"))
    }

    /// Imports every root of a dump, in export order. See
    /// [`BddManager::import_bdd`] for the name-resolution and ordering
    /// contract.
    ///
    /// # Errors
    ///
    /// [`SerdeError::Malformed`] on structural defects.
    pub fn import_bdds(&self, dump: &BddDump) -> Result<Vec<Func>, SerdeError> {
        dump.validate()?;
        let vars: Vec<crate::VarId> = dump
            .vars
            .iter()
            .map(|name| {
                self.var_by_name(name)
                    .unwrap_or_else(|| self.new_named_var(name.clone()))
            })
            .collect();
        // Rebuild bottom-up. Each entry is an owned handle, so the
        // intermediate graph survives any interleaved gc/reordering.
        let mut built: Vec<Func> = Vec::with_capacity(dump.nodes.len());
        let resolve = |built: &[Func], packed: PackedRef| -> Func {
            match packed {
                PACKED_FALSE => self.constant(false),
                PACKED_TRUE => self.constant(true),
                n => built[(n - 2) as usize].clone(),
            }
        };
        for n in &dump.nodes {
            let lo = resolve(&built, n.lo);
            let hi = resolve(&built, n.hi);
            built.push(self.var(vars[n.var as usize]).ite(&hi, &lo));
        }
        Ok(dump.roots.iter().map(|&r| resolve(&built, r)).collect())
    }
}

impl Func {
    /// Exports this function as a name-keyed [`BddDump`] — the inverse of
    /// [`BddManager::import_bdd`]. The dump is plain `Send + Sync` data:
    /// it survives (and never blocks) any later operation, collection or
    /// reordering on the source manager.
    ///
    /// # Errors
    ///
    /// [`SerdeError::UnnamedVar`] if any support variable has no name.
    pub fn export_bdd(&self) -> Result<BddDump, SerdeError> {
        self.manager().export_bdds(&[self])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority(mgr: &BddManager) -> Func {
        let x = mgr.new_named_var("x");
        let y = mgr.new_named_var("y");
        let z = mgr.new_named_var("z");
        let (fx, fy, fz) = (mgr.var(x), mgr.var(y), mgr.var(z));
        fx.and(&fy).or(&fy.and(&fz)).or(&fz.and(&fx))
    }

    #[test]
    fn round_trip_same_manager_is_identity() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        let dump = f.export_bdd().expect("exports");
        assert_eq!(dump.num_roots(), 1);
        let g = mgr.import_bdd(&dump).expect("imports");
        assert_eq!(f, g, "canonicity makes the round trip literal equality");
    }

    #[test]
    fn round_trip_into_reversed_order() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        let dump = f.export_bdd().expect("exports");

        let target = BddManager::new();
        // Create the variables in the opposite order.
        for name in ["z", "y", "x"] {
            target.new_named_var(name);
        }
        let g = target.import_bdd(&dump).expect("imports");
        // Same truth table, var by name.
        for bits in 0..8u32 {
            let assign_src = |v: crate::VarId| bits >> v.index() & 1 == 1;
            let expect = f.eval(&assign_src);
            let got = g.eval(&|v: crate::VarId| {
                let name = target.var_name(v).expect("named");
                let idx = ["x", "y", "z"].iter().position(|&n| n == name).unwrap();
                bits >> idx & 1 == 1
            });
            assert_eq!(expect, got, "divergence at assignment {bits:03b}");
        }
    }

    #[test]
    fn import_creates_missing_variables() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        let dump = f.export_bdd().expect("exports");
        let target = BddManager::new();
        assert_eq!(target.num_vars(), 0);
        let g = target.import_bdd(&dump).expect("imports");
        assert_eq!(target.num_vars(), 3);
        assert_eq!(g.support().len(), 3);
        assert_eq!(target.var_by_name("y").map(|v| v.index()), Some(1));
    }

    #[test]
    fn constants_export_with_no_nodes() {
        let mgr = BddManager::new();
        let t = mgr.constant(true);
        let dump = t.export_bdd().expect("exports");
        assert_eq!(dump.num_nodes(), 0);
        let target = BddManager::new();
        assert!(target.import_bdd(&dump).expect("imports").is_true());
    }

    #[test]
    fn multi_root_dump_shares_nodes() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        // The hi-cofactor of the root is a literal subgraph of `f`, so a
        // joint dump must share every one of its nodes.
        let (_, hi) = f.children();
        let dump = mgr.export_bdds(&[&f, &hi]).expect("exports");
        assert_eq!(dump.num_roots(), 2);
        assert_eq!(dump.num_nodes(), f.node_count());
        let target = BddManager::new();
        let out = target.import_bdds(&dump).expect("imports");
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], out[0].children().1);
    }

    #[test]
    fn unnamed_vars_are_rejected() {
        let mgr = BddManager::new();
        let v = mgr.new_var(); // no name
        let f = mgr.var(v);
        assert!(matches!(f.export_bdd(), Err(SerdeError::UnnamedVar(0))));
    }

    #[test]
    fn import_bdd_rejects_multi_root() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        let dump = mgr.export_bdds(&[&f, &f.not()]).expect("exports");
        assert!(matches!(
            mgr.import_bdd(&dump),
            Err(SerdeError::RootCount(2))
        ));
    }

    #[test]
    fn text_round_trip() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        let dump = f.export_bdd().expect("exports");
        let text = dump.to_text();
        let back = BddDump::from_text(&text).expect("parses");
        assert_eq!(dump, back);
        // A hand-checkable shape: header, sections in order.
        assert!(text.starts_with(TEXT_HEADER));
        assert!(text.contains("\nvars 3\n"));
    }

    #[test]
    fn malformed_text_is_rejected() {
        for text in [
            "",
            "not-a-dump",
            "covest-bdd-dump v1\nvars 1\nx\nnodes 1\n0 2 2\nroots 1\n2\n", // forward/self ref
            "covest-bdd-dump v1\nvars 1\nx\nnodes 1\n5 0 1\nroots 1\n2\n", // bad var index
            "covest-bdd-dump v1\nvars 1\nx\nnodes 1\n0 0 0\nroots 1\n2\n", // redundant node
            "covest-bdd-dump v1\nvars 1\nx\nnodes 0\nroots 1\n7\n",        // dangling root
            "covest-bdd-dump v1\nvars 1\nx\nnodes 1\n0 0 1 9\nroots 1\n2\n", // trailing field
        ] {
            assert!(
                BddDump::from_text(text).is_err(),
                "accepted malformed dump: {text:?}"
            );
        }
    }

    #[test]
    fn dump_survives_source_gc_and_reorder() {
        let mgr = BddManager::new();
        let f = majority(&mgr);
        let dump = f.export_bdd().expect("exports");
        drop(f);
        mgr.gc();
        mgr.reduce_heap();
        let target = BddManager::new();
        let g = target.import_bdd(&dump).expect("imports");
        let vars: Vec<_> = ["x", "y", "z"]
            .iter()
            .map(|n| target.var_by_name(n).unwrap())
            .collect();
        // Majority of three has exactly four satisfying assignments.
        assert_eq!(g.sat_count_exact(&vars), 4);
    }
}
