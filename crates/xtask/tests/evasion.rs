//! Evasion-corpus tests: rule-relevant text hidden in strings,
//! comments, doc text, lookalike identifiers and `#[cfg(test)]` items
//! must never fire a rule — and conversely, formatting tricks (line
//! breaks, mid-statement comments) must never *hide* a real violation.

use xtask::{lint_source, Config, Violation};

/// Route the file onto every rule list at once, so any leak from any
/// rule shows up.
fn everything_config(rel: &str) -> Config {
    Config {
        roots: vec!["src".to_string()],
        skip: vec![],
        unsafe_allow: vec![],
        hot_path: vec![rel.to_string()],
        counter_fields: vec!["freq".to_string()],
        no_relaxed_files: vec![rel.to_string()],
        protocol_files: vec![rel.to_string()],
        failpoint_allow: vec![],
        atomic_io_files: vec![rel.to_string()],
        obs_metrics_files: vec![],
        obs_trace_files: vec![],
        obs_call_site_files: vec![rel.to_string()],
        bench_tolerance: None,
        callgraph_entries: vec![],
        purity_deny: vec![],
        opaque_budget: None,
        unsafe_reach_files: vec![],
    }
}

fn active(rel: &str, src: &str) -> Vec<Violation> {
    lint_source(rel, src, &everything_config(rel))
        .into_iter()
        .filter(Violation::is_active)
        .collect()
}

#[test]
fn evasion_corpus_is_clean_under_every_rule() {
    let src = include_str!("fixtures/evasion.rs");
    let hits = active("src/hot.rs", src);
    assert!(hits.is_empty(), "false positives: {hits:#?}");
}

#[test]
fn string_literals_never_fire() {
    for src in [
        r#"pub const A: &str = ".unwrap() and panic!(now)";"#,
        r##"pub const B: &str = r#"Ordering::Relaxed in a raw string"#;"##,
        r#"pub const C: &[u8] = b"File::create(path)";"#,
        r#"pub const D: &str = "self.freq += 1; slots[i]; unsafe {}";"#,
        r#"pub const E: &str = "fail_point!(\"site\")";"#,
    ] {
        let hits = active("src/hot.rs", src);
        assert!(hits.is_empty(), "{src} produced {hits:?}");
    }
}

#[test]
fn comments_never_fire() {
    for src in [
        "// .unwrap() panic!(x) Ordering::Relaxed\npub fn f() {}",
        "/* File::create(p); freq += 1; slots[i] */\npub fn f() {}",
        "/* nested /* fail_point!(\"x\") */ unsafe {} */\npub fn f() {}",
        "/// Call `.unwrap()` or `panic!` here.\npub fn f() {}",
        "//! Module docs: `Ordering::Relaxed`, `OpenOptions::new()`.\npub fn f() {}",
    ] {
        let hits = active("src/hot.rs", src);
        assert!(hits.is_empty(), "{src} produced {hits:?}");
    }
}

#[test]
fn lookalike_identifiers_never_fire() {
    for src in [
        // Word-boundary: counter field `freq` vs `frequency` / `freq_hint`.
        "pub fn f(c: &mut C) { c.frequency += 1; c.freq_hint += 1; }",
        // `unwrap_or` is not `unwrap`; `expected` is not `expect`.
        "pub fn f(v: Option<u64>) -> u64 { v.unwrap_or(0) }",
        "pub fn f(e: &E) -> bool { e.expected() }",
        // A module named failpoints is not the failpoint:: facility.
        "pub mod failpoints_dashboard { pub fn render() {} }",
        // `Relaxed` without the Ordering:: path (a local enum).
        "pub fn f() -> Mode { Mode::Relaxed }",
    ] {
        let hits = active("src/hot.rs", src);
        assert!(hits.is_empty(), "{src} produced {hits:?}");
    }
}

#[test]
fn line_breaks_do_not_hide_violations() {
    // The old lexical linter matched `.unwrap()` as a substring of one
    // line; splitting the call across lines evaded it. Token-level
    // matching cannot be evaded by formatting.
    let split_unwrap =
        "pub fn f(v: Option<u64>) -> u64 {\n    v\n        .\n        unwrap\n        ()\n}";
    let hits = active("src/hot.rs", split_unwrap);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_panic");

    let split_relaxed =
        "pub fn f(h: &A) -> u64 {\n    h.load(Ordering\n        ::\n        Relaxed)\n}";
    let hits = active("src/conc.rs", split_relaxed);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_relaxed");
}

#[test]
fn mid_statement_comments_do_not_hide_violations() {
    let src = "pub fn f(v: Option<u64>) -> u64 {\n    v. /* why not */ unwrap /* here */ ()\n}";
    let hits = active("src/hot.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_panic");
}

#[test]
fn obs_lock_update_split_across_lines_fires() {
    let src =
        "pub fn f(m: &M, c: &C) {\n    m.lock()\n        .map(|_| c.inc())\n        .ok();\n}";
    let hits = active("src/hot.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "obs_hot_path");
}

#[test]
fn raw_identifiers_still_match_rules() {
    // `r#unwrap` is a *different name* than `unwrap` in Rust — it is
    // only needed for keywords, but either way it must not fire the
    // method rule...
    let src = "pub fn f(v: &V) -> u64 { v.r#unwrap() }";
    assert!(active("src/hot.rs", src).is_empty());
    // ...while indexing through a raw identifier is still indexing.
    let src = "pub fn f(r#type: &[u64]) -> u64 { r#type[0] }";
    let hits = active("src/hot.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_index");
}

#[test]
fn waiver_inside_string_does_not_suppress() {
    // Regression: the old line-based waiver scan honored waiver text
    // anywhere on the line, including inside string literals.
    let src = "pub fn f(v: Result<u64, String>) -> u64 {\n    v.expect(\"// lint:allow(no_panic): not a waiver\")\n}";
    let hits = active("src/hot.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_panic");
    assert!(!hits[0].waived);
}

#[test]
fn waiver_in_doc_comment_does_not_suppress() {
    let src = "pub fn f(v: Option<u64>) -> u64 {\n    /** lint:allow(no_panic): docs are not directives */\n    v.unwrap()\n}";
    let hits = active("src/hot.rs", src);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_panic");
}

#[test]
fn cfg_test_formatting_cannot_leak() {
    // The deleted brace-tracking heuristic required `#[cfg(test)]` at
    // the start of a line and counted braces textually; both of these
    // layouts confused it. Structural evaluation handles any layout.
    for src in [
        "#[cfg(test)] mod t { fn h(v: Option<u64>) -> u64 { v.unwrap() } }",
        "#[cfg(\n    test\n)]\nmod t {\n    fn h(v: Option<u64>) -> u64 { v.unwrap() }\n}",
        "#[rustfmt::skip] #[cfg(test)] fn h(v: Option<u64>) -> u64 { v.unwrap() }",
    ] {
        let hits = active("src/hot.rs", src);
        assert!(hits.is_empty(), "{src:?} produced {hits:?}");
    }
    // And a string containing `#[cfg(test)]` must NOT open an exemption.
    let bait = "pub const S: &str = \"#[cfg(test)] mod t {\";\npub fn f(v: Option<u64>) -> u64 { v.unwrap() }";
    let hits = active("src/hot.rs", bait);
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].rule, "no_panic");
}
