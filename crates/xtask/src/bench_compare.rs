//! `cargo run -p xtask -- bench-compare <baseline.json> <new.json>`
//!
//! Throughput regression gate over the checked-in bench JSON files
//! (`BENCH_pipeline.json`, `BENCH_table.json`, `BENCH_recovery.json`).
//! Both files are parsed by the vendored `serde_json` and flattened to
//! `dotted.path → number` maps; every numeric key of the baseline whose
//! path contains `mops` (throughput — higher is better) is compared, and
//! the command exits nonzero when any of them dropped by more than the
//! `--tolerance` percent (default 5).
//!
//! Exit codes: `0` within budget, `1` regression detected, `2` usage or
//! parse error. A throughput key that *disappears* from the new file is
//! treated as a regression (a silently dropped measurement must not pass
//! the gate); brand-new keys are reported but never fail.

use serde::Value;
use std::io::Write;
use std::path::PathBuf;

/// Tolerance, percent, when `--tolerance` is not given.
const DEFAULT_TOLERANCE: f64 = 5.0;

/// Keys gated: throughput keys, where a drop is a regression.
const FILTER: &str = "mops";

// ---------------------------------------------------------------------------
// JSON number flattener
// ---------------------------------------------------------------------------

/// Flatten a JSON document to `(dotted path, value)` pairs for every
/// numeric leaf. Array elements use their index as the path segment
/// (`batch.1.mops`); both files come from the same generator, so
/// positions line up. Strings, booleans and nulls are skipped; syntax
/// errors are the parser's, with a byte offset.
pub fn flatten_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    let value = serde_json::parse(text).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    flatten(&value, &mut String::new(), &mut out);
    Ok(out)
}

/// Append `value`'s numeric leaves under `path` to `out`.
fn flatten(value: &Value, path: &mut String, out: &mut Vec<(String, f64)>) {
    let mut member = |segment: &str, value: &Value| {
        let saved = path.len();
        if !path.is_empty() {
            path.push('.');
        }
        path.push_str(segment);
        flatten(value, path, out);
        path.truncate(saved);
    };
    match value {
        Value::Num(n) => out.push((path.clone(), n.as_f64())),
        Value::Arr(items) => {
            for (index, item) in items.iter().enumerate() {
                member(&index.to_string(), item);
            }
        }
        Value::Obj(pairs) => {
            for (key, item) in pairs {
                member(key, item);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// One per-key comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    pub key: String,
    pub baseline: f64,
    pub new: Option<f64>,
    /// Percent change, positive = improvement (None when the key is
    /// missing from the new file or the baseline is not positive).
    pub change_pct: Option<f64>,
}

impl Delta {
    /// Whether this key fails the gate under `max_regress` percent.
    pub fn regressed(&self, max_regress: f64) -> bool {
        match self.change_pct {
            Some(pct) => pct < -max_regress,
            // Missing key or degenerate baseline: fail loudly.
            None => true,
        }
    }
}

/// Compare every throughput (`mops`) key of `baseline` against `new`, in
/// baseline order.
pub fn compare(baseline: &[(String, f64)], new: &[(String, f64)]) -> Vec<Delta> {
    baseline
        .iter()
        .filter(|(k, _)| k.contains(FILTER))
        .map(|(key, base)| {
            let fresh = new.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            let change_pct = fresh.and_then(|v| (*base > 0.0).then(|| (v - base) / base * 100.0));
            Delta {
                key: key.clone(),
                baseline: *base,
                new: fresh,
                change_pct,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

pub fn run(args: &[String], out: &mut dyn Write) -> i32 {
    let mut fail = |message: String| -> i32 {
        let _ = writeln!(out, "xtask bench-compare: {message}");
        2
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut max_regress = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v >= 0.0 => max_regress = v,
                _ => return fail("--tolerance needs a non-negative percent".to_string()),
            },
            flag if flag.starts_with("--") => return fail(format!("unknown option `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let [baseline_path, new_path] = paths.as_slice() else {
        return fail(
            "usage: bench-compare <baseline.json> <new.json> [--tolerance <pct>]".to_string(),
        );
    };
    let load = |path: &PathBuf| -> Result<Vec<(String, f64)>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        flatten_numbers(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let baseline = match load(baseline_path) {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let fresh = match load(new_path) {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let deltas = compare(&baseline, &fresh);
    if deltas.is_empty() {
        return fail(format!(
            "no `{FILTER}` keys in {} — nothing to gate on",
            baseline_path.display()
        ));
    }
    let mut regressions = 0usize;
    for d in &deltas {
        let verdict = if d.regressed(max_regress) {
            regressions = regressions.saturating_add(1);
            "REGRESSED"
        } else {
            "ok"
        };
        match (d.new, d.change_pct) {
            (Some(v), Some(pct)) => {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10.3} -> {:>10.3}  {:>+7.2}%  {verdict}",
                    d.key, d.baseline, v, pct
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10.3} -> {:>10}  {:>8}  {verdict}",
                    d.key, d.baseline, "missing", "-"
                );
            }
        }
    }
    // New keys are informational: they cannot regress, but surfacing
    // them keeps the gate's coverage visible.
    for (key, v) in fresh.iter().filter(|(k, _)| k.contains(FILTER)) {
        if !baseline.iter().any(|(k, _)| k == key) {
            let _ = writeln!(out, "{key:<28} {:>10} -> {v:>10.3}  (new key)", "-");
        }
    }
    if regressions > 0 {
        let _ = writeln!(
            out,
            "bench-compare: {regressions} key(s) regressed more than {max_regress}%"
        );
        1
    } else {
        let _ = writeln!(
            out,
            "bench-compare: {} key(s) within the {max_regress}% budget",
            deltas.len()
        );
        0
    }
}
