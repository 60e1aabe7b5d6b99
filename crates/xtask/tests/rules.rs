//! Per-rule tests over the seeded-violation fixtures: each lint.toml
//! rule must fire on its fixture, anchored at the right line, and stay
//! silent on the structures that merely resemble its pattern.

use xtask::{lint_source, Config, Violation};

/// A config that routes the fixture `rel` names onto every rule list.
fn fixture_config() -> Config {
    Config {
        roots: vec!["src".to_string()],
        skip: vec![],
        unsafe_allow: vec!["src/allowed_unsafe.rs".to_string()],
        hot_path: vec!["src/hot.rs".to_string()],
        no_relaxed_files: vec!["src/conc.rs".to_string()],
        protocol_files: vec!["src/protocol.rs".to_string()],
        failpoint_allow: vec!["src/failpoint.rs".to_string()],
        atomic_io_files: vec!["src/ckpt.rs".to_string()],
        obs_metrics_files: vec!["src/metrics.rs".to_string()],
        obs_trace_files: vec!["src/trace.rs".to_string()],
        obs_call_site_files: vec!["src/hot.rs".to_string()],
        callgraph_entries: vec![],
        purity_deny: vec![],
        opaque_budget: None,
        unsafe_reach_files: vec![],
    }
}

fn active_rules(rel: &str, src: &str) -> Vec<(&'static str, usize)> {
    lint_source(rel, src, &fixture_config())
        .into_iter()
        .filter(Violation::is_active)
        .map(|v| (v.rule, v.line))
        .collect()
}

#[test]
fn no_panic_fires_on_fixture() {
    let src = include_str!("fixtures/panic_violation.rs");
    let hits = active_rules("src/hot.rs", src);
    assert_eq!(hits.len(), 5, "{hits:?}");
    assert!(hits.iter().all(|(rule, _)| *rule == "no_panic"));
    // unwrap, expect, panic!, unreachable!, todo!
    let lines: Vec<usize> = hits.iter().map(|(_, l)| *l).collect();
    assert_eq!(lines, vec![4, 5, 7, 15, 16]);
}

#[test]
fn no_panic_ignores_the_same_file_off_hot_path() {
    let src = include_str!("fixtures/panic_violation.rs");
    assert!(active_rules("src/other.rs", src).is_empty());
}

#[test]
fn no_index_fires_only_on_index_expressions() {
    let src = include_str!("fixtures/index_violation.rs");
    let hits = active_rules("src/hot.rs", src);
    // `self.slots[i]` and `(arr)[0]`; the attribute, slice pattern,
    // array type and array literal stay silent.
    assert_eq!(
        hits,
        vec![("no_index", 13), ("no_index", 19)],
        "full: {hits:?}"
    );
}

#[test]
fn no_relaxed_fires_on_fixture() {
    let src = include_str!("fixtures/relaxed_violation.rs");
    let hits = active_rules("src/conc.rs", src);
    assert_eq!(hits, vec![("no_relaxed", 6)]);
    // The same file outside the configured list is silent.
    assert!(active_rules("src/other.rs", src).is_empty());
}

#[test]
fn ordering_protocol_fires_on_fixture() {
    let src = include_str!("fixtures/ordering_violation.rs");
    let mut hits = active_rules("src/protocol.rs", src);
    hits.sort_by_key(|&(_, line)| line);
    // 12: `head` has no contract; 14: malformed contract on `mark` AND
    // the resulting missing contract; 16: `lonely` declares load=Acquire
    // with no releasing write in the file; 24: the demotion mirror
    // (store=SeqCst contract, Release store — the static twin of the
    // loom_weakening.rs runtime refutation); 33: rmw access with no rmw
    // entry in the contract; 41: computed (non-literal) ordering.
    assert_eq!(
        hits,
        vec![
            ("ordering_protocol", 12),
            ("ordering_protocol", 14),
            ("ordering_protocol", 14),
            ("ordering_protocol", 16),
            ("ordering_protocol", 24),
            ("ordering_protocol", 33),
            ("ordering_protocol", 41),
        ],
        "full: {hits:?}"
    );
    // The same file off the protocol list is silent — except the now
    // load-free waiver, which the unused_waiver rule correctly calls out.
    let off = active_rules("src/other.rs", src);
    assert_eq!(off, vec![("unused_waiver", 45)], "full: {off:?}");
}

#[test]
fn ordering_protocol_waiver_is_load_bearing() {
    let src = include_str!("fixtures/ordering_violation.rs");
    let all = lint_source("src/protocol.rs", src, &fixture_config());
    // The single-writer Relaxed read on line 46 is found but waived —
    // same shape as the shipped spsc.rs cursor reads.
    assert!(
        all.iter()
            .any(|v| v.rule == "ordering_protocol" && v.waived && v.line == 46),
        "all: {all:?}"
    );
}

#[test]
fn ordering_protocol_messages_name_the_contract() {
    let src = include_str!("fixtures/ordering_violation.rs");
    let msgs: Vec<String> = lint_source("src/protocol.rs", src, &fixture_config())
        .into_iter()
        .filter(|v| v.is_active() && v.rule == "ordering_protocol")
        .map(|v| v.message)
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("weaker than the declared `store=SeqCst` contract")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("no `// ordering:` contract")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("malformed") && m.contains("not a valid load ordering")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("no Release-or-stronger write")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("declares no rmw ordering")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("without a literal `Ordering::` argument")),
        "{msgs:?}"
    );
}

#[test]
fn ordering_protocol_two_ordering_methods_judge_both() {
    // compare_exchange's success ordering is judged as an RMW, the
    // failure ordering as a load — demoting either below the contract
    // fires, and satisfying both stays clean.
    let contract = "// ordering: load=Acquire, rmw=AcqRel -- handshake\n";
    let decl = format!("pub struct S {{\n    {contract}    state: AtomicU64,\n}}\n");
    let ok = format!(
        "{decl}impl S {{\n    pub fn claim(&self) {{\n        let _ = self.state.compare_exchange(\n            0, 1, Ordering::AcqRel, Ordering::Acquire);\n    }}\n}}\n"
    );
    assert!(active_rules("src/protocol.rs", &ok).is_empty());
    let weak_failure = ok.replace(
        "Ordering::AcqRel, Ordering::Acquire",
        "Ordering::AcqRel, Ordering::Relaxed",
    );
    assert_eq!(
        active_rules("src/protocol.rs", &weak_failure).len(),
        1,
        "demoted failure load must fire"
    );
    let weak_success = ok.replace(
        "Ordering::AcqRel, Ordering::Acquire",
        "Ordering::Release, Ordering::Acquire",
    );
    assert_eq!(
        active_rules("src/protocol.rs", &weak_success).len(),
        1,
        "demoted success rmw must fire"
    );
}

#[test]
fn failpoint_gate_fires_outside_allowlist() {
    let src = include_str!("fixtures/failpoint_violation.rs");
    let hits = active_rules("src/other.rs", src);
    assert_eq!(hits, vec![("failpoint_gate", 5), ("failpoint_gate", 9)]);
    assert!(active_rules("src/failpoint.rs", src).is_empty());
}

#[test]
fn atomic_io_fires_on_bare_write_calls() {
    let src = include_str!("fixtures/atomic_io_violation.rs");
    let hits = active_rules("src/ckpt.rs", src);
    assert_eq!(
        hits,
        vec![("atomic_io", 8), ("atomic_io", 13), ("atomic_io", 17)]
    );
    assert!(active_rules("src/other.rs", src).is_empty());
}

#[test]
fn obs_call_site_statement_semantics() {
    let src = include_str!("fixtures/obs_violation.rs");
    let hits = active_rules("src/hot.rs", src);
    let obs: Vec<usize> = hits
        .iter()
        .filter(|(rule, _)| *rule == "obs_hot_path")
        .map(|(_, l)| *l)
        .collect();
    // The multi-line lock+inc statement and the SeqCst+set statement
    // fire; the shared-line pair and the while-header case are clean.
    assert_eq!(obs, vec![13, 18], "full: {hits:?}");
}

#[test]
fn obs_metrics_file_must_stay_wait_free() {
    let src = include_str!("fixtures/obs_metrics_violation.rs");
    let hits = active_rules("src/metrics.rs", src);
    let obs: Vec<usize> = hits
        .iter()
        .filter(|(rule, _)| *rule == "obs_hot_path")
        .map(|(_, l)| *l)
        .collect();
    // `Mutex` (use), `Mutex` (field type), `Ordering::SeqCst`.
    assert_eq!(obs, vec![5, 9, 14], "full: {hits:?}");
}

#[test]
fn obs_trace_file_must_stay_wait_free() {
    let src = include_str!("fixtures/obs_trace_violation.rs");
    let hits = active_rules("src/trace.rs", src);
    let obs: Vec<usize> = hits
        .iter()
        .filter(|(rule, _)| *rule == "obs_hot_path")
        .map(|(_, l)| *l)
        .collect();
    // `Mutex` (use), `Mutex` (field type), `.lock()`, `Ordering::Acquire`.
    assert_eq!(obs, vec![6, 10, 15, 18], "full: {hits:?}");
    // The same file outside the trace list is silent.
    assert!(active_rules("src/other.rs", src)
        .iter()
        .all(|(rule, _)| *rule != "obs_hot_path"));
}

#[test]
fn unsafe_allowlist_fires_off_list() {
    let src = include_str!("fixtures/unsafe_violation.rs");
    let hits = active_rules("src/other.rs", src);
    assert_eq!(hits, vec![("unsafe_allowlist", 7)]);
    // On the allowlist (and SAFETY-covered) it is clean.
    assert!(active_rules("src/allowed_unsafe.rs", src).is_empty());
}

#[test]
fn simd_gate_fires_off_list() {
    let src = include_str!("fixtures/simd_violation.rs");
    let hits = active_rules("src/other.rs", src);
    // The file-level `allow(unsafe_code)` and the `core::arch` path;
    // comments, the decoy `#[allow(dead_code)]` and the module merely
    // *named* arch stay silent.
    assert_eq!(
        hits,
        vec![("simd_gate", 4), ("simd_gate", 6)],
        "full: {hits:?}"
    );
}

#[test]
fn simd_gate_allows_unsafe_override_in_unsafe_allowlist_files() {
    let src = include_str!("fixtures/simd_violation.rs");
    // The SPSC-style file may carry `allow(unsafe_code)` (it is on the
    // unsafe allowlist) but still must not name arch intrinsics.
    let hits = active_rules("src/allowed_unsafe.rs", src);
    assert_eq!(hits, vec![("simd_gate", 6)], "full: {hits:?}");
}

#[test]
fn simd_gate_is_not_waivable() {
    // simd_gate is not in WAIVABLE_RULES: a waiver naming it is itself
    // an active violation, so the build still fails.
    let src = "use core::arch::x86_64::_mm_set1_epi64x; // lint:allow(simd_gate): nope\n";
    let hits = lint_source("src/other.rs", src, &fixture_config());
    assert!(
        hits.iter().any(|v| v.rule == "unused_waiver"
            && v.is_active()
            && v.message.contains("unknown rule `simd_gate`")),
        "{hits:?}"
    );
}

#[test]
fn safety_comment_required_even_on_allowlisted_files() {
    let src = include_str!("fixtures/safety_violation.rs");
    let hits = active_rules("src/allowed_unsafe.rs", src);
    assert_eq!(hits, vec![("safety_comment", 5)]);
}

#[test]
fn unused_and_unknown_waivers_are_violations() {
    let src = include_str!("fixtures/unused_waiver_violation.rs");
    let hits = lint_source("src/hot.rs", src, &fixture_config());
    let msgs: Vec<&str> = hits
        .iter()
        .filter(|v| v.rule == "unused_waiver")
        .map(|v| v.message.as_str())
        .collect();
    assert_eq!(msgs.len(), 2, "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("suppresses nothing")));
    assert!(msgs.iter().any(|m| m.contains("unknown rule `no_panics`")));
}

#[test]
fn waiver_semantics_fixture() {
    let src = include_str!("fixtures/waivers.rs");
    let all = lint_source("src/hot.rs", src, &fixture_config());
    let waived: Vec<usize> = all.iter().filter(|v| v.waived).map(|v| v.line).collect();
    let active: Vec<(usize, &'static str)> = all
        .iter()
        .filter(|v| v.is_active())
        .map(|v| (v.line, v.rule))
        .collect();
    // Same-line, line-above, mid-chain and index-ok waivers suppress.
    assert_eq!(waived, vec![10, 15, 21, 34], "all: {all:?}");
    // String-embedded and doc-comment "waivers" do not.
    assert_eq!(
        active,
        vec![(25, "no_panic"), (30, "no_panic")],
        "all: {all:?}"
    );
}

#[test]
fn violation_positions_and_snippets() {
    let src = "pub fn f(v: Option<u64>) -> u64 {\n    v.unwrap()\n}\n";
    let mut config = fixture_config();
    config.hot_path = vec!["src/hot.rs".to_string()];
    let hits = lint_source("src/hot.rs", src, &config);
    assert_eq!(hits.len(), 1);
    let v = &hits[0];
    assert_eq!((v.line, v.rule), (2, "no_panic"));
    assert_eq!(v.snippet, "v.unwrap()");
    assert!(
        v.col > 1,
        "column should point at the method, got {}",
        v.col
    );
    let shown = format!("{v}");
    assert!(shown.starts_with("src/hot.rs:2:"), "display was {shown:?}");
}

#[test]
fn syntax_error_becomes_a_violation() {
    let hits = lint_source(
        "src/bad.rs",
        "fn f() { \"unterminated \n",
        &fixture_config(),
    );
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, "syntax");
    assert!(hits[0].is_active());
}

#[test]
fn cfg_test_exempts_rule_hits_structurally() {
    let src = "
pub fn live(v: Option<u64>) -> Option<u64> { v }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v: Option<u64> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
";
    assert!(active_rules("src/hot.rs", src).is_empty());
}
