//! End-to-end tests of the deck compiler: semantics of the compiled
//! machine are checked via reachability and model checking.

use covest_bdd::BddManager;
use covest_ctl::parse_formula;
use covest_mc::ModelChecker;
use covest_smv::compile;

fn check(deck: &str, spec: &str) -> bool {
    let bdd = BddManager::new();
    let model = compile(&bdd, deck).expect("compiles");
    let mut mc = ModelChecker::new(&model.fsm);
    for fair in &model.fairness {
        mc.add_fairness(fair).expect("fairness lowers");
    }
    let f = parse_formula(spec).expect(spec);
    mc.holds(&f.into()).expect("checks")
}

const COUNTER: &str = r#"
MODULE main
VAR count : 0..4;
IVAR stall : boolean;
ASSIGN
  init(count) := 0;
  next(count) := case
    stall : count;
    count < 4 : count + 1;
    TRUE : 0;
  esac;
"#;

#[test]
fn counter_increments_and_wraps() {
    assert!(check(COUNTER, "AG (!stall & count = 2 -> AX count = 3)"));
    assert!(check(COUNTER, "AG (!stall & count = 4 -> AX count = 0)"));
    assert!(check(COUNTER, "AG (stall & count = 2 -> AX count = 2)"));
    assert!(!check(COUNTER, "AG (count = 2 -> AX count = 3)")); // stall may hold
    assert!(check(COUNTER, "AG count <= 4"));
}

#[test]
fn reachable_counts_respect_ranges() {
    let bdd = BddManager::new();
    let model = compile(&bdd, COUNTER).expect("compiles");
    // 5 values of count reachable; 3 bits allocated → codes 5..7 excluded.
    // The stall input is a free state bit (SMV-style), so the model has
    // 4 variables and each count value pairs with both stall values.
    let vars = model.fsm.current_vars();
    assert_eq!(vars.len(), 4);
    let r = model.fsm.reachable();
    assert_eq!(r.sat_count_over(&vars), 10.0);
}

#[test]
fn enums_and_defines() {
    let deck = r#"
VAR state : {idle, busy, done};
IVAR go : boolean;
ASSIGN
  init(state) := idle;
  next(state) := case
    state = idle & go : busy;
    state = busy : done;
    state = done : idle;
    TRUE : state;
  esac;
DEFINE working := state = busy;
"#;
    assert!(check(deck, "AG (working -> AX state = done)"));
    assert!(check(deck, "AG (state = done -> AX state = idle)"));
    assert!(!check(deck, "AG (state = idle -> AX state = busy)"));
    assert!(check(deck, "AG (state = idle & go -> AX working)"));
}

#[test]
fn subtraction_and_mod() {
    let deck = r#"
VAR p : 0..3;
ASSIGN
  init(p) := 3;
  next(p) := (p + 1) mod 4;
DEFINE prev := (p - 1 + 4) mod 4;
"#;
    assert!(check(deck, "AG (p = 3 -> AX p = 0)"));
    assert!(check(deck, "AG (p = 1 -> prev = 0)"));
    assert!(check(deck, "AG (p = 0 -> prev = 3)"));
}

#[test]
fn negative_range_arithmetic() {
    let deck = r#"
VAR t : -2..2;
ASSIGN
  init(t) := -2;
  next(t) := case
    t < 2 : t + 1;
    TRUE : -2;
  esac;
"#;
    assert!(check(deck, "AG (t = -2 -> AX t = -1)"));
    assert!(check(deck, "AG (t = 2 -> AX t = -2)"));
    assert!(check(deck, "AG (t >= -2 & t <= 2)"));
}

#[test]
fn bool_var_and_uninitialized_vars() {
    let deck = r#"
VAR x : boolean;
    y : boolean;
ASSIGN
  next(x) := !x;
  next(y) := y;
  init(y) := TRUE;
"#;
    // x uninitialized: both initial values possible.
    assert!(!check(deck, "x"));
    assert!(!check(deck, "!x"));
    assert!(check(deck, "y"));
    assert!(check(deck, "AG (x -> AX !x)"));
}

#[test]
fn fairness_section_applies() {
    let deck = r#"
VAR c : 0..2;
IVAR stall : boolean;
ASSIGN
  init(c) := 0;
  next(c) := case
    stall : c;
    c < 2 : c + 1;
    TRUE : c;
  esac;
FAIRNESS !stall;
"#;
    // Without fairness AF (c = 2) would fail (always-stall path);
    // the deck's fairness makes it hold.
    assert!(check(deck, "AF c = 2"));
}

#[test]
fn specs_and_observed_are_compiled() {
    let deck = r#"
VAR b : boolean;
ASSIGN
  init(b) := FALSE;
  next(b) := !b;
SPEC AG (b -> AX !b);
SPEC AX b;
OBSERVED b;
"#;
    let bdd = BddManager::new();
    let model = compile(&bdd, deck).expect("compiles");
    assert_eq!(model.specs.len(), 2);
    assert_eq!(model.observed, vec!["b".to_owned()]);
    let mut mc = ModelChecker::new(&model.fsm);
    for s in &model.specs {
        assert!(mc.holds(&s.clone().into()).expect("checks"));
    }
}

#[test]
fn error_cases() {
    let bdd = BddManager::new();
    // Out-of-range assignment.
    let e = compile(&bdd, "VAR c : 0..3; ASSIGN init(c) := 0; next(c) := c + 1;").unwrap_err();
    assert!(e.message.contains("out-of-range"), "{e}");
    // Missing next().
    let e = compile(&bdd, "VAR c : 0..3; ASSIGN init(c) := 0;").unwrap_err();
    assert!(e.message.contains("no next()"), "{e}");
    // Non-exhaustive case.
    let e = compile(
        &bdd,
        "VAR b : boolean; ASSIGN next(b) := case b : FALSE; esac;",
    )
    .unwrap_err();
    assert!(e.message.contains("exhaustive"), "{e}");
    // Type errors.
    let e = compile(&bdd, "VAR b : boolean; ASSIGN next(b) := b + 1;").unwrap_err();
    assert!(e.message.contains("arithmetic"), "{e}");
    // Unknown name.
    let e = compile(&bdd, "VAR b : boolean; ASSIGN next(b) := nope;").unwrap_err();
    assert!(e.message.contains("unknown name"), "{e}");
    // Assigning an input.
    let e = compile(
        &bdd,
        "VAR b : boolean; IVAR i : boolean; ASSIGN next(b) := b; next(i) := b;",
    )
    .unwrap_err();
    assert!(e.message.contains("input"), "{e}");
    // Cyclic DEFINE.
    let e = compile(
        &bdd,
        "VAR b : boolean; ASSIGN next(b) := d1; DEFINE d1 := d2; DEFINE d2 := d1;",
    )
    .unwrap_err();
    assert!(e.message.contains("cyclic"), "{e}");
    // Bad SPEC (outside subset).
    let e = compile(&bdd, "VAR b : boolean; ASSIGN next(b) := b; SPEC EF b;").unwrap_err();
    assert!(e.message.contains("SPEC"), "{e}");
    // Temporal FAIRNESS.
    let e = compile(&bdd, "VAR b : boolean; ASSIGN next(b) := b; FAIRNESS AX b;").unwrap_err();
    assert!(e.message.contains("propositional"), "{e}");
    // Unknown OBSERVED.
    let e = compile(&bdd, "VAR b : boolean; ASSIGN next(b) := b; OBSERVED zz;").unwrap_err();
    assert!(e.message.contains("OBSERVED"), "{e}");
}

#[test]
fn enum_literal_conflicts_rejected() {
    let bdd = BddManager::new();
    let e = compile(
        &bdd,
        "VAR a : {x, y}; b : {y, x};\nASSIGN next(a) := a; next(b) := b;",
    )
    .unwrap_err();
    assert!(e.message.contains("conflicting"), "{e}");
}

#[test]
fn var_to_var_comparisons_in_specs() {
    let deck = r#"
VAR rp : 0..3;
    wp : 0..3;
IVAR adv : boolean;
ASSIGN
  init(rp) := 0;
  init(wp) := 0;
  next(rp) := rp;
  next(wp) := case
    adv : (wp + 1) mod 4;
    TRUE : wp;
  esac;
DEFINE same := rp = wp;
"#;
    assert!(check(deck, "rp = wp"));
    assert!(check(deck, "AG (same & adv -> AX !same)"));
    assert!(!check(deck, "AG same"));
}

#[test]
fn auto_reorder_during_compile_keeps_earlier_models_alive() {
    // Compile's auto-reorder checkpoint collects against the root table.
    // A caller keeping an earlier model alive on a shared manager needs
    // no registration at all: the model's owned handles are its pins.
    use covest_bdd::{ReorderConfig, ReorderMode};

    let deck =
        "VAR c : 0..5;\nASSIGN init(c) := 0;\nnext(c) := case c < 5 : c + 1; TRUE : 0; esac;";
    let bdd = BddManager::new();
    bdd.set_reorder_config(ReorderConfig {
        mode: ReorderMode::Auto,
        auto_threshold: 8, // fire inside every compile
        ..Default::default()
    });
    let a = compile(&bdd, deck).expect("first model compiles");
    let reach_before = a.fsm.reachable_count();
    let b = compile(&bdd, deck).expect("second model compiles");
    // Model `a`'s handles still denote the same machine.
    assert!(a.fsm.is_total());
    assert_eq!(a.fsm.reachable_count(), reach_before);
    assert_eq!(b.fsm.reachable_count(), reach_before);
}

/// 64-bit edges: arithmetic that overflows where its value is used is a
/// clean error naming the assignment or `DEFINE`, while a guarded
/// counter at the top of the `i64` range compiles and counts. None of
/// these decks may panic, in a debug build or any other.
#[test]
fn integer_overflow_is_an_error_where_the_value_is_used() {
    let bdd = BddManager::new();
    let e = compile(
        &bdd,
        "VAR x : 9223372036854775806..9223372036854775807;\n\
         ASSIGN init(x) := 9223372036854775806; next(x) := x + 1;",
    )
    .unwrap_err();
    assert_eq!(
        e.to_string(),
        "model error: assignment to `x` overflows 64-bit integer arithmetic in `x + 1`"
    );
    let e = compile(
        &bdd,
        "VAR x : -9223372036854775807..-9223372036854775806;\n\
         ASSIGN init(x) := -9223372036854775806; next(x) := x - 2;",
    )
    .unwrap_err();
    assert!(e.message.contains("`x - 2`"), "{e}");
    // A DEFINE is checked as if used in every valid state.
    let e = compile(
        &bdd,
        "VAR x : 9223372036854775806..9223372036854775807;\n\
         ASSIGN init(x) := 9223372036854775806; next(x) := x;\n\
         DEFINE up := x + 1;",
    )
    .unwrap_err();
    assert_eq!(
        e.message,
        "DEFINE `up` overflows 64-bit integer arithmetic in `x + 1`"
    );

    // The guard keeps `x + 1` away from the maximum, and the range ends
    // at `i64::MAX` itself.
    let guarded = "VAR x : 9223372036854775800..9223372036854775807;\n\
         ASSIGN init(x) := 9223372036854775800;\n\
         next(x) := case x < 9223372036854775807 : x + 1; TRUE : 9223372036854775800; esac;";
    let model = compile(&bdd, guarded).expect("guarded counter compiles");
    assert_eq!(model.fsm.reachable_count(), 8.0);
    assert!(check(
        guarded,
        "AG (x = 9223372036854775807 -> AX x = 9223372036854775800)"
    ));
    assert!(check(
        guarded,
        "AG (x = 9223372036854775806 -> AX x = 9223372036854775807)"
    ));
}

/// A module built without the parser may carry a range the parser would
/// reject; compile reports it instead of overflowing.
#[test]
fn hand_built_oversized_range_is_a_compile_error() {
    use covest_smv::{decl_bit_width, Module, VarDecl, VarType};

    let ty = VarType::Range(i64::MIN, i64::MAX);
    assert_eq!(decl_bit_width(&ty), 64);
    let module = Module {
        vars: vec![VarDecl {
            name: "x".into(),
            ty,
            input: true,
            line: 0,
        }],
        ..Default::default()
    };
    let e = covest_smv::compile_module(&BddManager::new(), &module).unwrap_err();
    assert!(e.message.contains("more than 65536 values"), "{e}");
}
