//! `bench-compare` subcommand: the throughput regression gate over the
//! checked-in bench JSON files.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::bench_compare::{compare, flatten_numbers};
use xtask::run_with;

const BASELINE: &str = r#"{
  "bench": "pipeline_speed",
  "host": {"cpus": 1, "os": "linux"},
  "scalar_mops": 10.0,
  "batch": [
    {"batch_size": 64, "mops": 12.0, "speedup_vs_scalar": 1.2},
    {"batch_size": 256, "mops": 14.0, "speedup_vs_scalar": 1.4}
  ],
  "sharded4_batch256_mops": 8.0
}"#;

#[test]
fn flatten_walks_nested_arrays_and_objects() {
    let flat = flatten_numbers(BASELINE).expect("valid json");
    let get = |k: &str| {
        flat.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing {k}: {flat:?}"))
    };
    assert_eq!(get("scalar_mops"), 10.0);
    assert_eq!(get("batch.0.mops"), 12.0);
    assert_eq!(get("batch.1.batch_size"), 256.0);
    assert_eq!(get("sharded4_batch256_mops"), 8.0);
    assert_eq!(get("host.cpus"), 1.0);
    // Strings are not numeric leaves.
    assert!(!flat.iter().any(|(k, _)| k == "bench"));
}

#[test]
fn flatten_rejects_malformed_json() {
    assert!(flatten_numbers("{\"a\": }").is_err());
    assert!(flatten_numbers("{\"a\": 1} trailing").is_err());
    assert!(flatten_numbers("[1, 2").is_err());
}

#[test]
fn compare_filters_to_throughput_keys() {
    let base = flatten_numbers(BASELINE).unwrap();
    let deltas = compare(&base, &base);
    // scalar_mops, batch.0.mops, batch.1.mops, sharded4_batch256_mops —
    // but never batch_size, cpus or the speedup ratios.
    assert_eq!(deltas.len(), 4, "{deltas:?}");
    assert!(deltas.iter().all(|d| d.change_pct == Some(0.0)));
    assert!(deltas.iter().all(|d| !d.regressed(5.0)));
}

#[test]
fn regression_and_missing_keys_fail_the_gate() {
    let base = flatten_numbers(BASELINE).unwrap();
    let fresh = flatten_numbers(
        r#"{"scalar_mops": 9.0, "batch": [{"mops": 12.1}], "sharded4_batch256_mops": 8.4}"#,
    )
    .unwrap();
    let deltas = compare(&base, &fresh);
    let by_key = |k: &str| deltas.iter().find(|d| d.key == k).expect(k);
    // 10.0 → 9.0 is a 10% drop: outside 5%, inside 15%.
    assert!(by_key("scalar_mops").regressed(5.0));
    assert!(!by_key("scalar_mops").regressed(15.0));
    // batch.1.mops vanished: fails at any budget.
    assert!(by_key("batch.1.mops").regressed(100.0));
    // 8.0 → 8.4 improved.
    assert!(!by_key("sharded4_batch256_mops").regressed(0.0));
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtask-bench-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn run_cli(args: &[&str]) -> (i32, String) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = run_with(&args, &mut out);
    (code, String::from_utf8(out).expect("utf8 output"))
}

fn write_json(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    fs::write(&path, text).expect("write");
    path.to_str().expect("utf8").to_string()
}

#[test]
fn cli_passes_within_budget_and_reports_new_keys() {
    let dir = scratch("pass");
    let base = write_json(&dir, "base.json", BASELINE);
    let fresh = write_json(
        &dir,
        "new.json",
        r#"{
          "scalar_mops": 9.8,
          "batch": [
            {"batch_size": 64, "mops": 12.5},
            {"batch_size": 256, "mops": 13.9}
          ],
          "sharded4_batch256_mops": 13.0,
          "simd_mops": 20.0
        }"#,
    );
    let (code, out) = run_cli(&["bench-compare", &base, &fresh]);
    assert_eq!(code, 0, "output: {out}");
    assert!(out.contains("within the 5% budget"), "output: {out}");
    assert!(
        out.contains("simd_mops") && out.contains("new key"),
        "output: {out}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_fails_on_regression_beyond_budget() {
    let dir = scratch("regress");
    let base = write_json(&dir, "base.json", BASELINE);
    let fresh = write_json(
        &dir,
        "new.json",
        r#"{
          "scalar_mops": 8.0,
          "batch": [
            {"batch_size": 64, "mops": 12.0},
            {"batch_size": 256, "mops": 14.0}
          ],
          "sharded4_batch256_mops": 8.0
        }"#,
    );
    let (code, out) = run_cli(&["bench-compare", &base, &fresh]);
    assert_eq!(code, 1, "output: {out}");
    assert!(out.contains("REGRESSED"), "output: {out}");
    // A 20% drop passes with a loosened budget.
    let (code, out) = run_cli(&["bench-compare", &base, &fresh, "--tolerance", "25"]);
    assert_eq!(code, 0, "output: {out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_usage_and_parse_errors_exit_two() {
    let dir = scratch("errors");
    let base = write_json(&dir, "base.json", BASELINE);
    let bad = write_json(&dir, "bad.json", "{not json");
    let no_throughput = write_json(&dir, "latency.json", r#"{"restore_ms": 4.0}"#);
    assert_eq!(run_cli(&["bench-compare"]).0, 2);
    assert_eq!(run_cli(&["bench-compare", &base]).0, 2);
    assert_eq!(run_cli(&["bench-compare", &base, &bad]).0, 2);
    assert_eq!(
        run_cli(&["bench-compare", &base, &base, "--tolerance", "-3"]).0,
        2
    );
    assert_eq!(run_cli(&["bench-compare", &base, &base, "--bogus"]).0, 2);
    // A baseline without throughput keys: nothing to gate on is an
    // error, not a silent pass.
    let (code, out) = run_cli(&["bench-compare", &no_throughput, &base]);
    assert_eq!(code, 2, "output: {out}");
    assert!(out.contains("nothing to gate on"), "output: {out}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cli_tolerance_errors_exit_two() {
    let dir = scratch("badtolerance");
    let base = write_json(&dir, "base.json", BASELINE);
    // `--tolerance` with a missing or negative value.
    assert_eq!(
        run_cli(&["bench-compare", &base, &base, "--tolerance"]).0,
        2
    );
    assert_eq!(
        run_cli(&["bench-compare", &base, &base, "--tolerance", "-2"]).0,
        2
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shipped_baselines_are_self_consistent() {
    // The checked-in bench files must always pass the gate against
    // themselves — this is exactly the invariant CI relies on.
    let root = xtask::workspace_root();
    for name in ["BENCH_pipeline.json", "BENCH_table.json"] {
        let path = root.join(name);
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let flat = flatten_numbers(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let deltas = compare(&flat, &flat);
        assert!(!deltas.is_empty(), "{name} has no mops keys");
        assert!(deltas.iter().all(|d| !d.regressed(0.0)), "{name}");
    }
}
