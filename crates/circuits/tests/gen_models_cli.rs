//! Command-line handling of the `gen-models` binary: `--help` prints the
//! usage, unknown flags are rejected before anything is written, and a
//! directory argument with `--size` still writes the sized decks.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// An empty directory private to one test.
fn empty_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs `gen-models` with `args` from inside `cwd`.
fn gen_models(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gen-models"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("runs")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    for flag in ["--help", "-h"] {
        let cwd = empty_dir(&format!("gen-models{flag}"));
        let out = gen_models(&cwd, &[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: gen-models"), "{flag}: {stdout}");
        assert!(entries(&cwd).is_empty(), "{flag} wrote {:?}", entries(&cwd));
    }
}

#[test]
fn unknown_flags_exit_2_and_write_nothing() {
    for args in [
        &["--bogus"][..],
        &["-x"],
        &["out", "--size", "4", "--verbose"],
    ] {
        let cwd = empty_dir("gen-models-unknown");
        let out = gen_models(&cwd, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: gen-models"), "{args:?}: {stderr}");
        assert!(
            entries(&cwd).is_empty(),
            "{args:?} wrote {:?}",
            entries(&cwd)
        );
    }
}

#[test]
fn sized_decks_go_to_the_named_directory() {
    let cwd = empty_dir("gen-models-sized");
    let out = gen_models(&cwd, &["out", "--size", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(entries(&cwd), ["out"]);
    assert_eq!(
        entries(&cwd.join("out")),
        ["counter_m3.smv", "pipeline_d3.smv"]
    );
}
