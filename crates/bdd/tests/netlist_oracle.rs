//! Seeded random netlists, each its own oracle. Every gate is computed
//! twice: as a BDD, and as a 64-bit word holding its value under 64
//! seeded probe assignments (bit `j` is the gate's value under probe
//! `j`). Each gate's BDD must evaluate to exactly its word on the probes:
//! after plain apply/ITE construction, next to fused relational products
//! (`and_exists` must equal `and` followed by `exists`), and after every
//! `set_order` permutation flip.

use covest_bdd::{BddManager, Func, VarId};

/// Xorshift64*: tiny, deterministic, dependency-free.
struct Xorshift(u64);

impl Xorshift {
    fn new(seed: u64) -> Self {
        Xorshift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One gate; operands index the pool of everything built before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Ite(usize, usize, usize),
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Not(usize),
}

/// A seeded netlist over `nvars` variables: the pool starts with the
/// `2 * nvars` literals, and every gate appends its result.
#[derive(Debug, PartialEq, Eq)]
struct Netlist {
    nvars: usize,
    gates: Vec<Gate>,
    /// 64 assignments (bit `v` is the value of variable `v`).
    probes: Vec<u64>,
}

/// A layered random netlist: `layers * width` gates, each drawing its
/// operands from everything built so far.
fn netlist(seed: u64, nvars: usize, layers: usize, width: usize) -> Netlist {
    let mut rng = Xorshift::new(seed);
    let pool_sizes = 2 * nvars..2 * nvars + layers * width;
    let gates = pool_sizes
        .map(|pool| {
            let (a, b, c) = (rng.below(pool), rng.below(pool), rng.below(pool));
            match rng.below(5) {
                0 => Gate::Ite(a, b, c),
                1 => Gate::And(a, b),
                2 => Gate::Or(a, b),
                3 => Gate::Xor(a, b),
                _ => Gate::Not(a),
            }
        })
        .collect();
    let probes = (0..64).map(|_| rng.next_u64()).collect();
    Netlist {
        nvars,
        gates,
        probes,
    }
}

/// The netlist built on a fresh manager: its variables, and the pool of
/// literals and gates, each BDD paired with its probe word.
struct Built {
    mgr: BddManager,
    vars: Vec<VarId>,
    pool: Vec<(Func, u64)>,
}

fn build(prog: &Netlist) -> Built {
    let mgr = BddManager::new();
    let vars = mgr.new_vars(prog.nvars);
    let literal = |v: VarId| -> u64 {
        prog.probes
            .iter()
            .enumerate()
            .fold(0, |word, (j, bits)| word | (bits >> v.index() & 1) << j)
    };
    let mut pool: Vec<(Func, u64)> = vars.iter().map(|&v| (mgr.var(v), literal(v))).collect();
    pool.extend(vars.iter().map(|&v| (mgr.var(v).not(), !literal(v))));
    for &gate in &prog.gates {
        let at = |i: usize| &pool[i];
        let built = match gate {
            Gate::Ite(a, b, c) => (
                at(a).0.ite(&at(b).0, &at(c).0),
                (at(a).1 & at(b).1) | (!at(a).1 & at(c).1),
            ),
            Gate::And(a, b) => (at(a).0.and(&at(b).0), at(a).1 & at(b).1),
            Gate::Or(a, b) => (at(a).0.or(&at(b).0), at(a).1 | at(b).1),
            Gate::Xor(a, b) => (at(a).0.xor(&at(b).0), at(a).1 ^ at(b).1),
            Gate::Not(a) => (at(a).0.not(), !at(a).1),
        };
        pool.push(built);
    }
    Built { mgr, vars, pool }
}

/// `f` evaluated under each probe, one bit per probe.
fn signature(f: &Func, probes: &[u64]) -> u64 {
    probes.iter().enumerate().fold(0, |sig, (j, &bits)| {
        sig | u64::from(f.eval(&|v: VarId| bits >> v.index() & 1 == 1)) << j
    })
}

fn assert_signatures(built: &Built, prog: &Netlist, stage: &str) {
    for (i, (f, word)) in built.pool.iter().enumerate() {
        assert_eq!(
            signature(f, &prog.probes),
            *word,
            "{stage}: pool entry {i} disagrees with its probe word"
        );
    }
}

#[test]
fn netlists_are_deterministic() {
    assert_eq!(netlist(42, 8, 2, 4), netlist(42, 8, 2, 4));
    assert_ne!(netlist(42, 8, 2, 4), netlist(43, 8, 2, 4));
}

#[test]
fn ite_netlist_matches_its_probe_words() {
    let prog = netlist(0x5EED_0001, 20, 12, 60);
    assert_eq!(prog.gates.len(), 720);
    let built = build(&prog);
    assert_signatures(&built, &prog, "ite netlist");
}

#[test]
fn and_exists_equals_and_then_exists() {
    let prog = netlist(0x5EED_0002, 22, 10, 48);
    assert_eq!(prog.gates.len(), 480);
    let built = build(&prog);
    assert_signatures(&built, &prog, "and_exists netlist");
    let quantified = &built.vars[..prog.nvars / 2];
    let mut rng = Xorshift::new(0xABCD);
    for pair in 0..256 {
        let (f, wf) = &built.pool[rng.below(built.pool.len())];
        let (g, wg) = &built.pool[rng.below(built.pool.len())];
        let fused = f.and_exists(g, quantified);
        let conj = f.and(g);
        assert_eq!(signature(&conj, &prog.probes), wf & wg, "pair {pair}: and");
        assert_eq!(fused, conj.exists(quantified), "pair {pair}: and_exists");
        // Each probe is one witness for the quantified variables.
        assert_eq!(
            signature(&fused, &prog.probes) & (wf & wg),
            wf & wg,
            "pair {pair}: and_exists drops a probe where f and g both hold"
        );
    }
}

#[test]
fn probe_words_survive_set_order_flips() {
    let prog = netlist(0x5EED_0003, 18, 8, 40);
    assert_eq!(prog.gates.len(), 320);
    let built = build(&prog);
    let identity = built.vars.clone();
    let reversed: Vec<VarId> = identity.iter().rev().copied().collect();
    for round in 0..3 {
        for (name, order) in [("reversed", &reversed), ("identity", &identity)] {
            built.mgr.set_order(order);
            assert_signatures(&built, &prog, &format!("round {round}, {name} order"));
        }
    }
}
