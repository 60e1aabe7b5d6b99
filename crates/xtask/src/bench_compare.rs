//! `cargo run -p xtask -- bench-compare <baseline.json> <new.json>`
//!
//! Throughput regression gate over the checked-in bench JSON files
//! (`BENCH_pipeline.json`, `BENCH_table.json`, `BENCH_recovery.json`).
//! Both files are flattened to `dotted.path → number` maps by a minimal
//! zero-dependency JSON reader; every numeric key of the baseline whose
//! path contains `mops` (throughput — higher is better) is compared, and
//! the command exits nonzero when any of them dropped by more than the
//! `--tolerance` percent (default 5).
//!
//! Exit codes: `0` within budget, `1` regression detected, `2` usage or
//! parse error. A throughput key that *disappears* from the new file is
//! treated as a regression (a silently dropped measurement must not pass
//! the gate); brand-new keys are reported but never fail.

use std::io::Write;
use std::path::PathBuf;

/// Tolerance, percent, when `--tolerance` is not given.
const DEFAULT_TOLERANCE: f64 = 5.0;

/// Keys gated: throughput keys, where a drop is a regression.
const FILTER: &str = "mops";

// ---------------------------------------------------------------------------
// Minimal JSON number flattener
// ---------------------------------------------------------------------------

/// Flatten a JSON document to `(dotted path, value)` pairs for every
/// numeric leaf. Array elements use their index as the path segment
/// (`batch.1.mops`); both files come from the same generator, so
/// positions line up. Strings, booleans and nulls are skipped; syntax
/// errors are reported with a byte offset.
pub fn flatten_numbers(text: &str) -> Result<Vec<(String, f64)>, String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut at = 0usize;
    skip_ws(bytes, &mut at);
    value(bytes, &mut at, &mut String::new(), &mut out)?;
    skip_ws(bytes, &mut at);
    if at != bytes.len() {
        return Err(format!("trailing data at byte {at}"));
    }
    Ok(out)
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while bytes
        .get(*at)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *at = at.saturating_add(1);
    }
}

fn value(
    bytes: &[u8],
    at: &mut usize,
    path: &mut String,
    out: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        Some(b'{') => container(bytes, at, path, out, b'}'),
        Some(b'[') => container(bytes, at, path, out, b']'),
        Some(b'"') => string(bytes, at).map(|_| ()),
        Some(b't') => literal(bytes, at, "true"),
        Some(b'f') => literal(bytes, at, "false"),
        Some(b'n') => literal(bytes, at, "null"),
        Some(_) => {
            let n = number(bytes, at)?;
            out.push((path.clone(), n));
            Ok(())
        }
        None => Err(format!("unexpected end of input at byte {at}")),
    }
}

/// Parse `{...}` or `[...]` (selected by `close`), extending `path` per
/// member and recursing into values.
fn container(
    bytes: &[u8],
    at: &mut usize,
    path: &mut String,
    out: &mut Vec<(String, f64)>,
    close: u8,
) -> Result<(), String> {
    *at = at.saturating_add(1); // opening delimiter
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&close) {
        *at = at.saturating_add(1);
        return Ok(());
    }
    let mut index = 0usize;
    loop {
        let segment = if close == b'}' {
            skip_ws(bytes, at);
            let key = string(bytes, at)?;
            skip_ws(bytes, at);
            if bytes.get(*at) != Some(&b':') {
                return Err(format!("expected `:` at byte {at}"));
            }
            *at = at.saturating_add(1);
            key
        } else {
            let key = index.to_string();
            index = index.saturating_add(1);
            key
        };
        let saved = path.len();
        if !path.is_empty() {
            path.push('.');
        }
        path.push_str(&segment);
        value(bytes, at, path, out)?;
        path.truncate(saved);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at = at.saturating_add(1),
            Some(b) if *b == close => {
                *at = at.saturating_add(1);
                return Ok(());
            }
            _ => return Err(format!("expected `,` or closing delimiter at byte {at}")),
        }
    }
}

fn string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    if bytes.get(*at) != Some(&b'"') {
        return Err(format!("expected string at byte {at}"));
    }
    *at = at.saturating_add(1);
    let start = *at;
    while let Some(&b) = bytes.get(*at) {
        match b {
            b'"' => {
                let raw = String::from_utf8_lossy(bytes.get(start..*at).unwrap_or(&[]));
                *at = at.saturating_add(1);
                // Bench keys are plain identifiers; unescaping `\uXXXX`
                // is out of scope, but `\"`/`\\` must not end the string
                // early (handled by the escape skip below), so raw text
                // with backslashes round-trips unmodified.
                return Ok(raw.into_owned());
            }
            b'\\' => *at = at.saturating_add(2),
            _ => *at = at.saturating_add(1),
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn literal(bytes: &[u8], at: &mut usize, word: &str) -> Result<(), String> {
    if bytes.get(*at..at.saturating_add(word.len())) == Some(word.as_bytes()) {
        *at = at.saturating_add(word.len());
        Ok(())
    } else {
        Err(format!("invalid literal at byte {at}"))
    }
}

fn number(bytes: &[u8], at: &mut usize) -> Result<f64, String> {
    let start = *at;
    while bytes
        .get(*at)
        .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *at = at.saturating_add(1);
    }
    let text = std::str::from_utf8(bytes.get(start..*at).unwrap_or(&[]))
        .map_err(|e| format!("bad number at byte {start}: {e}"))?;
    text.parse::<f64>()
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
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
