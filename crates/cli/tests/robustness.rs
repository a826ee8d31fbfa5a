//! Malformed and hostile decks end in an error, never a crash: negative
//! literals in properties, nesting beyond the parsers' depth bound,
//! operator chains beyond their height bound, long `DEFINE` chains, and
//! seeded byte mutations of every shipped and sized deck.

mod naive_plan;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use covest_bdd::BddManager;
use covest_core::{reference_covered_set, ReferenceMode, DEFAULT_STATE_LIMIT};
use covest_mc::ModelChecker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn covest() -> Command {
    Command::new(env!("CARGO_BIN_EXE_covest-cli"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// A fresh temporary directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("covest-robustness-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary directory");
    dir
}

/// Runs `cmd` to completion, failing the test if it outlives `secs`.
fn output_within(cmd: &mut Command, secs: u64) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    let clock = covest_telemetry::Stopwatch::start();
    while child.try_wait().expect("polls").is_none() {
        if clock.elapsed() > Duration::from_secs(secs) {
            let _ = child.kill();
            panic!("{cmd:?} still running after {secs} s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collects output")
}

fn text(out: &Output) -> String {
    format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

/// A deck whose properties compare against negative literals, written
/// the way decks print them (`-` and the digits are separate tokens).
const NEGATIVE_DECK: &str = "MODULE main\nVAR x : -3..3;\nIVAR hold : boolean;\nASSIGN\n  \
    init(x) := -3;\n  next(x) := case\n    hold : x;\n    x < 3 : x + 1;\n    TRUE : -3;\n  \
    esac;\nSPEC AG (x = -3 & !hold -> AX x = -2);\nSPEC AG (x = - 1 & !hold -> AX x = 0);\n\
    FAIRNESS x != -3;\nOBSERVED x;\n";

/// Covered over reachable fair states for `signal`, by Definition 3
/// applied state by state (the enumerative reference).
fn reference_percentage(src: &str, signal: &str) -> String {
    let bdd = BddManager::new();
    let model = covest_smv::compile(&bdd, src).expect("compiles");
    let fsm = &model.fsm;
    let mut mc = ModelChecker::new(fsm);
    for fair in &model.fairness {
        mc.add_fairness(fair).expect("fairness lowers");
    }
    let fairness = mc.fairness().to_vec();
    let space = fsm.reachable().and(&mc.fair_states());
    let mut covered = bdd.constant(false);
    for spec in &model.specs {
        assert!(mc.holds(&spec.clone().into()).expect("checks"), "{spec}");
        let set = reference_covered_set(
            fsm,
            signal,
            spec,
            ReferenceMode::Transformed,
            &fairness,
            DEFAULT_STATE_LIMIT,
        )
        .expect("reference");
        covered = covered.or(&set);
    }
    let vars = fsm.current_vars();
    let covered = covered.and(&space).sat_count_over(&vars);
    format!("{:.2}", 100.0 * covered / space.sat_count_over(&vars))
}

/// `SPEC`/`FAIRNESS` bodies compare against negative literals: both
/// `check` and `lint` accept them, and the printed coverage is the
/// paper's Definition 3 by enumeration.
#[test]
fn negative_literals_in_properties() {
    let dir = fresh_dir("negative");
    let deck = dir.join("negative.smv");
    std::fs::write(&deck, NEGATIVE_DECK).expect("deck");

    let out = output_within(covest().arg("lint").arg(&deck), 60);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));

    let out = output_within(covest().arg("check").arg(&deck).arg("--coverage"), 60);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));
    for verdict in [
        "[PASS] SPEC AG ((x = -3 & !(hold)) -> AX x = -2)",
        "[PASS] SPEC AG ((x = -1 & !(hold)) -> AX x = 0)",
    ] {
        assert!(stdout.contains(verdict), "{stdout}");
    }
    let row = stdout
        .lines()
        .find(|l| l.contains("negative.smv") && l.contains(" x "))
        .unwrap_or_else(|| panic!("no coverage row: {stdout}"));
    let printed = row.split_whitespace().nth(3).expect("%COV column");
    let expected = reference_percentage(NEGATIVE_DECK, "x");
    assert_eq!(printed, expected, "{row}");
    assert_ne!(printed, "0.00", "the properties cover something");
    let _ = std::fs::remove_dir_all(dir);
}

/// Decks nesting 100,000 levels deep: every command that reads them
/// exits 1 with the depth message and a line and column, never a stack
/// overflow (exit 134).
#[test]
fn deep_nesting_fails_cleanly() {
    let dir = fresh_dir("deep");
    let n = 100_000;
    let (open, close) = ("(".repeat(n), ")".repeat(n));
    let head = "MODULE main\nVAR x : boolean;\nASSIGN\n  init(x) := FALSE;\n";
    let decks = [
        (
            "spec",
            format!("{head}  next(x) := !x;\nSPEC {open}x{close};\nOBSERVED x;\n"),
        ),
        (
            "fairness",
            format!("{head}  next(x) := !x;\nFAIRNESS {open}x{close};\nOBSERVED x;\n"),
        ),
        (
            "next",
            format!("{head}  next(x) := {open}x{close};\nOBSERVED x;\n"),
        ),
        (
            "define",
            format!("{head}  next(x) := !x;\nDEFINE d := {open}x{close};\nOBSERVED d;\n"),
        ),
        (
            "bangs",
            format!(
                "{head}  next(x) := {bangs}x;\nSPEC AG {bangs}x;\nOBSERVED x;\n",
                bangs = "!".repeat(n)
            ),
        ),
    ];
    for (name, src) in &decks {
        let deck = dir.join(format!("{name}.smv"));
        std::fs::write(&deck, src).expect("deck");
        let joblist = dir.join(format!("{name}.txt"));
        std::fs::write(&joblist, format!("{}\n", deck.display())).expect("joblist");
        let runs: [Vec<&std::ffi::OsStr>; 3] = [
            vec!["check".as_ref(), deck.as_os_str()],
            vec!["lint".as_ref(), deck.as_os_str()],
            vec![
                "batch".as_ref(),
                joblist.as_os_str(),
                "--jobs".as_ref(),
                "2".as_ref(),
            ],
        ];
        for args in runs {
            let out = output_within(covest().args(&args), 60);
            let all = text(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {all}");
            let message = format!(
                "expression nests deeper than {} levels",
                covest_smv::MAX_DEPTH
            );
            assert!(all.contains(&message), "{name} {args:?}: {all}");
            assert!(all.contains("model error at "), "{name} {args:?}: {all}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Nesting exactly at the bound parses, compiles, verifies and covers
/// on the spawned threads of a debug build's `--jobs 2` batch.
#[test]
fn nesting_at_the_bound_runs_on_spawned_threads() {
    let dir = fresh_dir("at-bound");
    let n = covest_smv::MAX_DEPTH;
    let parens =
        |depth: usize, inner: &str| format!("{}{inner}{}", "(".repeat(depth), ")".repeat(depth));
    let mut src = String::from("MODULE main\nVAR x : boolean;\n    y : boolean;\nASSIGN\n");
    writeln!(src, "  init(x) := FALSE;\n  init(y) := FALSE;").expect("write");
    // `!x` opens one more level inside the parentheses.
    writeln!(src, "  next(x) := {};", parens(n - 1, "!x")).expect("write");
    writeln!(src, "  next(y) := {}y;", "!".repeat(n)).expect("write");
    writeln!(src, "DEFINE d := {};", parens(n, "x & y")).expect("write");
    // `AG (x | !x)` opens three levels: AG, the parentheses and `!`.
    writeln!(src, "SPEC {};", parens(n - 3, "AG (x | !x)")).expect("write");
    writeln!(src, "SPEC AG {}(x | !y);", "AX ".repeat(n - 3)).expect("write");
    writeln!(src, "SPEC {}(x | !y);", "!".repeat(n - 2)).expect("write");
    writeln!(src, "FAIRNESS {};", parens(n, "x | y")).expect("write");
    writeln!(src, "OBSERVED x, d;").expect("write");
    // More decks than `--jobs 2` threads, so that the spawned one plans
    // and runs decks too, not only the calling thread.
    let mut list = String::new();
    for i in 0..3 {
        let deck = dir.join(format!("at_bound_{i}.smv"));
        std::fs::write(&deck, &src).expect("deck");
        writeln!(list, "{}", deck.display()).expect("write");
    }
    let joblist = dir.join("at_bound.txt");
    std::fs::write(&joblist, list).expect("joblist");

    // The front end and compile on a spawned thread's default stack.
    let front_end = src.clone();
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || {
            let module = covest_smv::parse_module(&front_end).expect("parses at the bound");
            assert_eq!(covest_analyze::lint_source(&front_end).errors(), 0);
            let signals = ["x".to_owned(), "d".to_owned()];
            covest_par::plan_machine(module.clone(), &signals).expect("plans");
            let model = covest_smv::compile_module(&BddManager::new(), &module).expect("compiles");
            assert_eq!(model.specs.len(), 3);
        })
        .expect("spawns")
        .join()
        .expect("no stack overflow");

    let out = output_within(
        covest().arg("batch").arg(&joblist).args(["--jobs", "2"]),
        120,
    );
    assert_eq!(out.status.code(), Some(0), "batch: {}", text(&out));
    assert!(
        !text(&out).contains("FAIL"),
        "every SPEC holds: {}",
        text(&out)
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Decks whose operator chains are 100,000 operands long (a `SPEC`, a
/// `FAIRNESS`, a `next()` and a `DEFINE` that a `SPEC` reads): every
/// command that reads them exits 1 with the height message and a line and
/// column, never a stack overflow (exit 134).
#[test]
fn long_chains_fail_cleanly() {
    let dir = fresh_dir("chains");
    let n = 100_000;
    let chain = |op: &str, operand: &str| vec![operand; n].join(op);
    let head = "MODULE main\nVAR x : boolean;\nASSIGN\n  init(x) := FALSE;\n";
    let decks = [
        (
            "spec",
            format!(
                "{head}  next(x) := !x;\nSPEC AG (x | {});\nOBSERVED x;\n",
                chain(" | ", "!x & x")
            ),
        ),
        (
            "fairness",
            format!(
                "{head}  next(x) := !x;\nFAIRNESS {};\nOBSERVED x;\n",
                chain(" | ", "x")
            ),
        ),
        (
            "next",
            format!("{head}  next(x) := {};\nOBSERVED x;\n", chain(" & ", "!x")),
        ),
        (
            "define",
            format!(
                "{head}  next(x) := !x;\nDEFINE d := {};\nSPEC AG (d | !d);\nOBSERVED d;\n",
                chain(" & ", "x")
            ),
        ),
    ];
    let message = format!(
        "expression tree is taller than {} levels",
        covest_smv::MAX_HEIGHT
    );
    for (name, src) in &decks {
        let deck = dir.join(format!("{name}.smv"));
        std::fs::write(&deck, src).expect("deck");
        let joblist = dir.join(format!("{name}.txt"));
        std::fs::write(&joblist, format!("{}\n", deck.display())).expect("joblist");
        let runs: [Vec<&std::ffi::OsStr>; 4] = [
            vec!["check".as_ref(), deck.as_os_str()],
            vec!["check".as_ref(), deck.as_os_str(), "--coverage".as_ref()],
            vec![
                "batch".as_ref(),
                joblist.as_os_str(),
                "--jobs".as_ref(),
                "2".as_ref(),
            ],
            vec!["lint".as_ref(), deck.as_os_str()],
        ];
        for args in runs {
            let out = output_within(covest().args(&args), 60);
            let all = text(&out);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {all}");
            assert!(all.contains(&message), "{name} {args:?}: {all}");
            assert!(all.contains("model error at "), "{name} {args:?}: {all}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Chains exactly at the height bound parse, compile, verify and cover
/// on the spawned threads of a debug build's `--jobs 2` batch, and one
/// more operand is the height error.
#[test]
fn chains_at_the_height_bound_run_on_spawned_threads() {
    let dir = fresh_dir("chain-bound");
    let n = covest_smv::MAX_HEIGHT;
    let chain = |len: usize, op: &str, operand: &str| vec![operand; len].join(op);
    // Every tree is `n` levels tall: an `|` chain of `n - 1` negations
    // (line 7), an `&` chain of `n` atoms, `AG` over `!y` and `n - 3`
    // atoms, `AG` over `d` and `n - 3` negations, an `|` chain of `n`
    // atoms.
    let next_x = |extra: usize| format!("  next(x) := {};", chain(n - 1 + extra, " | ", "!x"));
    let deck = |extra: usize| {
        let mut src = String::from("MODULE main\nVAR x : boolean;\n    y : boolean;\nASSIGN\n");
        writeln!(src, "  init(x) := FALSE;\n  init(y) := FALSE;").expect("write");
        writeln!(src, "{}\n  next(y) := !y;", next_x(extra)).expect("write");
        writeln!(src, "DEFINE d := {};", chain(n, " & ", "x")).expect("write");
        writeln!(src, "SPEC AG (!y | {});", chain(n - 3, " | ", "y")).expect("write");
        writeln!(src, "SPEC AG (d | {});", chain(n - 3, " | ", "!d")).expect("write");
        writeln!(src, "FAIRNESS {};", chain(n, " | ", "x")).expect("write");
        writeln!(src, "OBSERVED x, d;").expect("write");
        src
    };
    // More at-bound twins than `--jobs 2` threads: the calling thread is
    // one of the two, and the spawned one takes decks while it runs.
    let at_bound = dir.join("at_bound.smv");
    std::fs::write(&at_bound, deck(0)).expect("deck");
    let mut list = format!("{}\n", at_bound.display());
    for i in 0..3 {
        let twin = dir.join(format!("at_bound_twin_{i}.smv"));
        std::fs::write(&twin, deck(0)).expect("deck");
        writeln!(list, "{}", twin.display()).expect("write");
    }
    let joblist = dir.join("at_bound.txt");
    std::fs::write(&joblist, list).expect("joblist");
    let runs: [Vec<&std::ffi::OsStr>; 2] = [
        vec![
            "check".as_ref(),
            at_bound.as_os_str(),
            "--coverage".as_ref(),
        ],
        vec![
            "batch".as_ref(),
            joblist.as_os_str(),
            "--jobs".as_ref(),
            "2".as_ref(),
        ],
    ];
    for args in runs {
        let out = output_within(covest().args(&args), 120);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", text(&out));
        assert!(!text(&out).contains("FAIL"), "{args:?}: {}", text(&out));
    }

    let over = dir.join("over.smv");
    std::fs::write(&over, deck(1)).expect("deck");
    let out = output_within(covest().arg("check").arg(&over), 60);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out));
    // At the last `|`, whose node is one level too tall.
    let column = next_x(1).rfind('|').expect("a chain") + 1;
    let message = format!("model error at 7:{column}: expression tree is taller than {n} levels");
    assert!(text(&out).contains(&message), "{}", text(&out));
    let _ = std::fs::remove_dir_all(dir);
}

/// A deck whose boolean and integer `case`s nest `depth` levels deep in
/// their first arms.
fn nested_case_deck(depth: usize) -> String {
    let (mut b, mut n) = ("x".to_owned(), "k".to_owned());
    for level in 0..depth {
        let guard = if level % 2 == 0 { "y" } else { "!y" };
        b = format!("case {guard} : {b}; TRUE : !x; esac");
        n = format!("case {guard} : {n}; k < 3 : k + 1; TRUE : 0; esac");
    }
    format!(
        "MODULE main\nVAR x : boolean;\n    k : 0..3;\nIVAR y : boolean;\nASSIGN\n  \
         init(x) := FALSE;\n  next(x) := {b};\n  init(k) := 0;\n  next(k) := {n};\n\
         SPEC AG (k <= 3);\nOBSERVED x, k;\n"
    )
}

/// `case` nested in first arms as deep as the parser allows compiles in
/// time linear in the depth: each arm is evaluated once, where arm 0's
/// second evaluation used to double the work at every level. One more
/// level is the depth error.
#[test]
fn nested_case_at_the_bound_compiles_quickly() {
    let dir = fresh_dir("nested-case");
    let deck = dir.join("nested_case.smv");
    std::fs::write(&deck, nested_case_deck(covest_smv::MAX_DEPTH - 1)).expect("deck");
    let out = output_within(covest().arg("check").arg(&deck).arg("--coverage"), 60);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));
    assert!(
        text(&out).contains("[PASS] SPEC AG k <= 3"),
        "{}",
        text(&out)
    );

    std::fs::write(&deck, nested_case_deck(covest_smv::MAX_DEPTH)).expect("deck");
    let out = output_within(covest().arg("check").arg(&deck), 60);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out));
    let message = format!("nests deeper than {} levels", covest_smv::MAX_DEPTH);
    assert!(text(&out).contains(&message), "{}", text(&out));
    let _ = std::fs::remove_dir_all(dir);
}

/// A deck whose `n` DEFINEs each read the two before it (`d{i} :=
/// d{i-1} & d{i-2}`), so a DEFINE is reached along fib(n) reference
/// paths; `next(a)` reads the last one.
fn define_chain_deck(n: usize) -> String {
    let mut src =
        String::from("MODULE main\nVAR a : boolean;\n    b : boolean;\nDEFINE d0 := a;\n");
    writeln!(src, "       d1 := d0 & a;").expect("write");
    for i in 2..n {
        writeln!(src, "       d{i} := d{} & d{};", i - 1, i - 2).expect("write");
    }
    write!(
        src,
        "ASSIGN\n  init(a) := FALSE;\n  next(a) := d{};\n  init(b) := FALSE;\n  next(b) := !b;\n\
         SPEC AG !a;\nSPEC AG (!a -> AX !a);\nOBSERVED a;\n",
        n - 1
    )
    .expect("write");
    src
}

/// A 64-DEFINE chain lints, plans and checks in seconds: each DEFINE's
/// support is resolved once, where expanding it along every reference
/// path took fib(64) steps.
#[test]
fn define_chains_resolve_in_linear_time() {
    let src = define_chain_deck(64);
    let report = covest_analyze::lint_source(&src);
    assert_eq!(report.errors(), 0, "{:?}", report.diagnostics);
    let module = covest_smv::parse_module(&src).expect("parses");
    let signals = ["a".to_owned()];
    naive_plan::assert_plan_matches(&module, &signals, "64-DEFINE chain");
    let machine = covest_par::plan_machine(module, &signals).expect("plans");
    assert!(machine.reduced, "the cone of `a` drops `b`");
    assert_eq!(machine.module.defines.len(), 64);

    let dir = fresh_dir("define-chain");
    let deck = dir.join("chain.smv");
    std::fs::write(&deck, &src).expect("deck");
    let out = output_within(covest().arg("check").arg(&deck).arg("--coverage"), 60);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out));
    assert!(text(&out).contains("[PASS] SPEC AG !(a)"), "{}", text(&out));
    let _ = std::fs::remove_dir_all(dir);
}

/// The decks a mutation starts from: `models/*.smv`, the lint fixtures
/// and the `gen-models --size 6` decks.
fn seed_decks() -> Vec<(String, String)> {
    let models = repo_root().join("models");
    let mut decks = Vec::new();
    for dir in [models.clone(), models.join("lint_fixtures")] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("deck directory")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "smv"))
            .collect();
        paths.sort();
        for p in paths {
            let src = std::fs::read_to_string(&p).expect("readable deck");
            decks.push((p.display().to_string(), src));
        }
    }
    decks.extend(covest_circuits::sized_decks(6));
    decks
}

/// Bytes a mutation writes: the deck language's punctuation, digits,
/// keyword letters, whitespace, and a few bytes no token starts with.
const ALPHABET: &[u8] = b"(){}[];:,.=!&|<>-+ \n\t0123456789AEGXFUaxz_$#";

/// `count` deterministic mutants of `src`: each applies one to three
/// byte edits (overwrite, insert, delete, duplicate a span, truncate).
fn mutants(src: &str, seed: u64, count: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let mut bytes = src.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..4) {
            if bytes.is_empty() {
                break;
            }
            let at = rng.gen_range(0..bytes.len());
            let byte = ALPHABET[rng.gen_range(0..ALPHABET.len())];
            match rng.gen_range(0..5) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                2 => {
                    bytes.remove(at);
                }
                3 => {
                    let end = (at + rng.gen_range(1..40usize)).min(bytes.len());
                    let span = bytes[at..end].to_vec();
                    bytes.splice(at..at, span);
                }
                _ => bytes.truncate(at),
            }
        }
        out.push(String::from_utf8_lossy(&bytes).into_owned());
    }
    out
}

/// Runs the front end on every mutant in-process: parse, plan (the cone
/// analysis `check` and `batch` run first) and lint. Errors are fine; a
/// panic fails the test, and a stack overflow aborts it. The plan must
/// equal the naive reference's. Returns the mutants whose deck parses,
/// for the CLI sample.
fn front_end_survives(per_deck: usize) -> (usize, Vec<String>) {
    let mut parsed = Vec::new();
    let mut total = 0;
    for (i, (name, src)) in seed_decks().iter().enumerate() {
        for (j, mutant) in mutants(src, 0xC0FE_0000 + i as u64, per_deck)
            .into_iter()
            .enumerate()
        {
            total += 1;
            let report = covest_analyze::lint_source(&mutant);
            let _ = report.errors();
            let Ok(module) = covest_smv::parse_module(&mutant) else {
                continue;
            };
            let signals: Vec<String> = module.observed.iter().map(|o| o.name.clone()).collect();
            let _ = module.property_error();
            naive_plan::assert_plan_matches(&module, &signals, &format!("mutant {j} of {name}"));
            if j % 7 == 0 {
                parsed.push(format!("-- mutant {j} of {name}\n{mutant}"));
            }
        }
    }
    (total, parsed)
}

/// Runs the `check` and `lint` binaries on `sample` mutants: each exits
/// 0, 1 or 2, never with a panic (101) or an abort.
fn cli_survives(mutants: &[String], sample: usize, dir: &Path) {
    assert!(mutants.len() >= sample, "{} parsed mutants", mutants.len());
    let step = (mutants.len() / sample.max(1)).max(1);
    for (k, mutant) in mutants.iter().step_by(step).take(sample).enumerate() {
        let deck = dir.join(format!("mutant{k}.smv"));
        std::fs::write(&deck, mutant).expect("mutant deck");
        for args in [vec!["check", "--coverage"], vec!["lint", "--strict"]] {
            let out = output_within(covest().arg(args[0]).arg(&deck).args(&args[1..]), 120);
            let all = text(&out);
            assert!(
                matches!(out.status.code(), Some(0..=2)),
                "{args:?} on\n{mutant}\nexited {:?}: {all}",
                out.status
            );
            assert!(!all.contains("panicked"), "{args:?} on\n{mutant}\n{all}");
        }
    }
}

/// Seeded byte mutations of every shipped and sized deck: the front end
/// and the CLI return errors, never panics.
#[test]
fn mutated_decks_never_panic() {
    let (total, parsed) = front_end_survives(100);
    assert!(total >= 1_000, "{total} mutants");
    let dir = fresh_dir("mutants");
    cli_survives(&parsed, 8, &dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// The larger corpus CI runs in release (`--include-ignored`).
#[test]
#[ignore = "large corpus; CI runs it in release"]
fn mutated_decks_never_panic_large_corpus() {
    let (total, parsed) = front_end_survives(4_000);
    assert!(total >= 50_000, "{total} mutants");
    let dir = fresh_dir("mutants-large");
    cli_survives(&parsed, 60, &dir);
    let _ = std::fs::remove_dir_all(dir);
}
