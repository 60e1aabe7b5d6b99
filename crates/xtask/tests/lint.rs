//! End-to-end linter tests: the shipped tree is clean, and each seeded
//! fixture drives `xtask lint` (the real CLI entry point) to a nonzero
//! exit.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{lint_tree, parse_config, run_with, workspace_root};

#[test]
fn shipped_tree_is_clean() {
    let root = workspace_root();
    let text = fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let config = parse_config(&text).expect("config parses");
    let violations = lint_tree(&root, &config).expect("lint runs");
    let active: Vec<_> = violations.iter().filter(|v| v.is_active()).collect();
    assert!(
        active.is_empty(),
        "shipped tree has active lint violations:\n{}",
        active
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn shipped_tree_waivers_are_all_load_bearing() {
    // Every waiver in the shipped tree must suppress something — the
    // unused_waiver rule turns a dead waiver into an active violation
    // (covered by shipped_tree_is_clean), and this asserts the
    // complementary bound: the waived findings really exist.
    let root = workspace_root();
    let text = fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let config = parse_config(&text).expect("config parses");
    let violations = lint_tree(&root, &config).expect("lint runs");
    let waived = violations.iter().filter(|v| v.waived).count();
    assert!(
        waived >= 1,
        "expected at least one waived finding in the shipped tree"
    );
}

#[test]
fn cli_runs_clean_on_the_workspace() {
    let mut out = Vec::new();
    let code = run_with(&["lint".to_string()], &mut out);
    let text = String::from_utf8(out).expect("utf8");
    assert_eq!(code, 0, "xtask lint failed on the workspace:\n{text}");
    assert!(text.contains("clean"), "{text}");
}

#[test]
fn cli_usage_errors_exit_two() {
    let mut out = Vec::new();
    assert_eq!(run_with(&[], &mut out), 2);
    let mut out = Vec::new();
    assert_eq!(run_with(&["frobnicate".to_string()], &mut out), 2);
    let mut out = Vec::new();
    assert_eq!(
        run_with(&["lint".to_string(), "--bogus".to_string()], &mut out),
        2
    );
}

// ---- seeded fixtures through the real CLI ----

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-lint-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("src")).expect("mkdir");
    dir
}

fn run_lint(root: &Path) -> (i32, String) {
    let args: Vec<String> = ["lint", "--root", root.to_str().expect("utf8")]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    let code = run_with(&args, &mut out);
    (code, String::from_utf8(out).expect("utf8 output"))
}

/// Install `fixture` as `src/seeded.rs` in a scratch tree whose
/// lint.toml has `extra` sections targeting it; assert the CLI exits 1
/// and names `rule`.
fn assert_seeded(name: &str, fixture: &str, extra: &str, rule: &str) {
    let root = scratch(name);
    fs::write(root.join("src/seeded.rs"), fixture).expect("write fixture");
    fs::write(
        root.join("lint.toml"),
        format!("[paths]\nroots = [\"src\"]\n{extra}"),
    )
    .expect("write config");
    let (code, out) = run_lint(&root);
    assert_eq!(code, 1, "fixture `{name}` should fail the lint:\n{out}");
    assert!(
        out.contains(&format!("[{rule}]")),
        "fixture `{name}` should name rule `{rule}`:\n{out}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn seeded_unsafe_allowlist_fails() {
    assert_seeded(
        "unsafe",
        include_str!("fixtures/unsafe_violation.rs"),
        "",
        "unsafe_allowlist",
    );
}

#[test]
fn seeded_safety_comment_fails() {
    assert_seeded(
        "safety",
        include_str!("fixtures/safety_violation.rs"),
        "[unsafe_code]\nallow = [\"src/seeded.rs\"]\n",
        "safety_comment",
    );
}

#[test]
fn seeded_no_panic_fails() {
    assert_seeded(
        "panic",
        include_str!("fixtures/panic_violation.rs"),
        "[hot_path]\nfiles = [\"src/seeded.rs\"]\n",
        "no_panic",
    );
}

#[test]
fn seeded_no_index_fails() {
    assert_seeded(
        "index",
        include_str!("fixtures/index_violation.rs"),
        "[hot_path]\nfiles = [\"src/seeded.rs\"]\n",
        "no_index",
    );
}

#[test]
fn seeded_no_relaxed_fails() {
    assert_seeded(
        "relaxed",
        include_str!("fixtures/relaxed_violation.rs"),
        "[orderings]\nno_relaxed_files = [\"src/seeded.rs\"]\n",
        "no_relaxed",
    );
}

#[test]
fn seeded_ordering_protocol_fails() {
    assert_seeded(
        "orderingprotocol",
        include_str!("fixtures/ordering_violation.rs"),
        "[orderings]\nprotocol_files = [\"src/seeded.rs\"]\n",
        "ordering_protocol",
    );
}

#[test]
fn seeded_failpoint_gate_fails() {
    assert_seeded(
        "failpoint",
        include_str!("fixtures/failpoint_violation.rs"),
        "",
        "failpoint_gate",
    );
}

#[test]
fn seeded_atomic_io_fails() {
    assert_seeded(
        "atomicio",
        include_str!("fixtures/atomic_io_violation.rs"),
        "[atomic_io]\nfiles = [\"src/seeded.rs\"]\n",
        "atomic_io",
    );
}

#[test]
fn seeded_obs_call_site_fails() {
    assert_seeded(
        "obscall",
        include_str!("fixtures/obs_violation.rs"),
        "[obs]\ncall_site_files = [\"src/seeded.rs\"]\n",
        "obs_hot_path",
    );
}

#[test]
fn seeded_obs_metrics_fails() {
    assert_seeded(
        "obsmetrics",
        include_str!("fixtures/obs_metrics_violation.rs"),
        "[obs]\nmetrics_files = [\"src/seeded.rs\"]\n",
        "obs_hot_path",
    );
}

#[test]
fn seeded_unused_waiver_fails() {
    assert_seeded(
        "unusedwaiver",
        include_str!("fixtures/unused_waiver_violation.rs"),
        "[hot_path]\nfiles = [\"src/seeded.rs\"]\n",
        "unused_waiver",
    );
}

#[test]
fn seeded_evasion_corpus_passes() {
    // The inverse of the seeded tests: the evasion corpus is loaded
    // with rule-shaped bait and must come back clean through the CLI.
    let root = scratch("evasion");
    fs::write(
        root.join("src/seeded.rs"),
        include_str!("fixtures/evasion.rs"),
    )
    .expect("write fixture");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\n\
         [hot_path]\nfiles = [\"src/seeded.rs\"]\n\
         [orderings]\nno_relaxed_files = [\"src/seeded.rs\"]\n\
         [atomic_io]\nfiles = [\"src/seeded.rs\"]\n\
         [obs]\ncall_site_files = [\"src/seeded.rs\"]\n",
    )
    .expect("write config");
    let (code, out) = run_lint(&root);
    assert_eq!(code, 0, "evasion corpus must lint clean:\n{out}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn skip_directories_are_not_linted() {
    let root = scratch("skipdir");
    fs::create_dir_all(root.join("src/tests")).expect("mkdir");
    fs::write(
        root.join("src/tests/seeded.rs"),
        "pub fn f(v: Option<u64>) -> u64 { v.unwrap() }\n",
    )
    .expect("write");
    fs::write(
        root.join("lint.toml"),
        "[paths]\nroots = [\"src\"]\nskip = [\"tests\"]\n\
         [hot_path]\nfiles = [\"src/tests/seeded.rs\"]\n",
    )
    .expect("write");
    let (code, out) = run_lint(&root);
    // The hot_path entry exists on disk (path validation passes) but the
    // directory is skipped, so nothing is linted.
    assert_eq!(code, 0, "output: {out}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn syntax_errors_fail_the_lint() {
    let root = scratch("syntax");
    fs::write(root.join("src/seeded.rs"), "fn f() { \"unterminated\n").expect("write");
    fs::write(root.join("lint.toml"), "[paths]\nroots = [\"src\"]\n").expect("write");
    let (code, out) = run_lint(&root);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("[syntax]"), "output: {out}");
    let _ = fs::remove_dir_all(&root);
}
