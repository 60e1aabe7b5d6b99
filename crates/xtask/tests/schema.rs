//! lint.toml schema validation: unknown sections/keys and dangling
//! paths are hard configuration errors (exit 2), never silently
//! ignored — a typo must not quietly disable a rule.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{parse_config, run_with, validate_config_paths};

const GOOD: &str = r#"
[paths]
roots = ["src"]
skip = ["tests"]

[unsafe_code]
allow = ["src/spsc.rs"]

[hot_path]
files = ["src/table.rs"]

[counters]
fields = ["freq", "persist"]

[orderings]
no_relaxed_files = ["src/spsc.rs"]
protocol_files = ["src/spsc.rs"]

[failpoints]
allow = ["src/table.rs"]

[atomic_io]
files = ["src/table.rs"]

[obs]
metrics_files = ["src/metrics.rs"]
call_site_files = ["src/table.rs"]

[bench]
tolerance = 7.5
"#;

#[test]
fn full_schema_parses() {
    let config = parse_config(GOOD).expect("valid config");
    assert_eq!(config.roots, vec!["src"]);
    assert_eq!(config.counter_fields, vec!["freq", "persist"]);
    assert_eq!(config.obs_call_site_files, vec!["src/table.rs"]);
    assert_eq!(config.protocol_files, vec!["src/spsc.rs"]);
    assert_eq!(config.bench_tolerance, Some(7.5));
}

#[test]
fn bench_tolerance_rejects_non_numeric_and_negative_values() {
    for bad in ["-1", "abc", "inf", "nan", "[5.0]"] {
        let err = parse_config(&format!(
            "[paths]\nroots = [\"src\"]\n[bench]\ntolerance = {bad}\n"
        ))
        .expect_err(bad);
        assert!(err.contains("tolerance"), "`{bad}`: {err}");
    }
}

#[test]
fn bench_tolerance_is_optional() {
    let config = parse_config("[paths]\nroots = [\"src\"]\n").expect("valid");
    assert_eq!(config.bench_tolerance, None);
}

#[test]
fn protocol_files_paths_are_validated() {
    let root = scratch("protocol");
    write(&root, "src/real.rs", "pub fn f() {}\n");
    let config = parse_config(
        "[paths]\nroots = [\"src\"]\n[orderings]\nprotocol_files = [\"src/gone.rs\"]\n",
    )
    .expect("parses");
    let err = validate_config_paths(&config, &root).expect_err("must reject");
    assert!(err.contains("[orderings] protocol_files"), "{err}");
    assert!(err.contains("src/gone.rs"), "{err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn multiline_arrays_and_comments_parse() {
    let config =
        parse_config("[paths]\nroots = [\n  \"crates\", # the workspace\n  \"tools\",\n]\n")
            .expect("valid");
    assert_eq!(config.roots, vec!["crates", "tools"]);
}

#[test]
fn unknown_section_is_a_named_error() {
    // A misspelled section, and the retired `[simd]` section.
    for (name, section) in [
        ("hotpath", "[hotpath]\nfiles = []\n"),
        ("simd", "[simd]\nmodules = [\"src/lib.rs\"]\n"),
    ] {
        let text = format!("[paths]\nroots = [\"src\"]\n\n{section}");
        let err = parse_config(&text).expect_err("must reject");
        assert!(
            err.contains(&format!("unknown section `[{name}]`")),
            "{err}"
        );
        assert!(err.contains("lint.toml:4"), "should carry the line: {err}");
        let root = scratch(&format!("section-{name}"));
        write(&root, "src/lib.rs", "pub fn f() {}\n");
        write(&root, "lint.toml", &text);
        let (code, out) = run_lint(&root);
        assert_eq!(code, 2, "output: {out}");
        let _ = fs::remove_dir_all(&root);
    }
}

#[test]
fn unknown_key_is_a_named_error() {
    // `file` misspelled for `files`.
    let err = parse_config("[paths]\nroots = [\"src\"]\n\n[hot_path]\nfile = [\"a.rs\"]\n")
        .expect_err("must reject");
    assert!(err.contains("unknown key `file`"), "{err}");
    assert!(err.contains("[hot_path]"), "{err}");
    assert!(err.contains("files"), "should list valid keys: {err}");
}

#[test]
fn key_in_wrong_section_is_rejected() {
    let err =
        parse_config("[paths]\nroots = [\"src\"]\nfields = [\"freq\"]\n").expect_err("must reject");
    assert!(err.contains("unknown key `fields`"), "{err}");
}

#[test]
fn empty_roots_is_rejected() {
    let err = parse_config("[paths]\nskip = [\"tests\"]\n").expect_err("must reject");
    assert!(err.contains("roots"), "{err}");
}

#[test]
fn malformed_lines_are_rejected() {
    assert!(parse_config("[paths]\nroots\n").is_err());
    assert!(parse_config("[paths]\nroots = [unquoted]\n").is_err());
    assert!(parse_config("[paths]\nroots = [\"open\",\n").is_err());
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-schema-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("src")).expect("mkdir");
    dir
}

fn write(root: &Path, rel: &str, text: &str) {
    fs::write(root.join(rel), text).expect("write");
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

#[test]
fn validate_paths_rejects_dangling_entries() {
    let root = scratch("dangling");
    write(&root, "src/real.rs", "pub fn f() {}\n");
    let config =
        parse_config("[paths]\nroots = [\"src\"]\n[hot_path]\nfiles = [\"src/gone.rs\"]\n")
            .expect("parses");
    let err = validate_config_paths(&config, &root).expect_err("must reject");
    assert!(err.contains("[hot_path] files"), "{err}");
    assert!(err.contains("src/gone.rs"), "{err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn validate_paths_rejects_missing_root_dir() {
    let root = scratch("noroot");
    let config = parse_config("[paths]\nroots = [\"nonexistent\"]\n").expect("parses");
    let err = validate_config_paths(&config, &root).expect_err("must reject");
    assert!(err.contains("nonexistent"), "{err}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cli_misspelled_key_exits_two_with_diagnostic() {
    let root = scratch("typo");
    write(&root, "src/lib.rs", "pub fn f() {}\n");
    // `allow` misspelled as `allowed` in [unsafe_code].
    write(
        &root,
        "lint.toml",
        "[paths]\nroots = [\"src\"]\n\n[unsafe_code]\nallowed = [\"src/lib.rs\"]\n",
    );
    let (code, out) = run_lint(&root);
    assert_eq!(code, 2, "output: {out}");
    assert!(out.contains("unknown key `allowed`"), "output: {out}");
    assert!(out.contains("[unsafe_code]"), "output: {out}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cli_dangling_path_exits_two_with_diagnostic() {
    let root = scratch("stale");
    write(&root, "src/lib.rs", "pub fn f() {}\n");
    write(
        &root,
        "lint.toml",
        "[paths]\nroots = [\"src\"]\n\n[hot_path]\nfiles = [\"src/renamed.rs\"]\n",
    );
    let (code, out) = run_lint(&root);
    assert_eq!(code, 2, "output: {out}");
    assert!(out.contains("src/renamed.rs"), "output: {out}");
    assert!(out.contains("[hot_path] files"), "output: {out}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cli_valid_config_on_clean_tree_exits_zero() {
    let root = scratch("clean");
    write(&root, "src/lib.rs", "pub fn f() -> u64 { 1 }\n");
    write(&root, "lint.toml", "[paths]\nroots = [\"src\"]\n");
    let (code, out) = run_lint(&root);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("clean"), "output: {out}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn shipped_lint_toml_passes_its_own_schema() {
    let root = xtask::workspace_root();
    let text = fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let config = parse_config(&text).expect("shipped config parses");
    validate_config_paths(&config, &root).expect("shipped config paths all exist");
}
