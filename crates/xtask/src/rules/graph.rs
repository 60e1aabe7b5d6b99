//! Interprocedural (call-graph) rules: `hot_path_purity`,
//! `unsafe_reach` and `opaque_call_budget`.
//!
//! Unlike the per-file rules these run once over the whole workspace,
//! after every file has been analyzed and the call graph built. Their
//! diagnostics anchor at the *entry point* (or audited function) and
//! carry the **blame chain** — the call path that connects the entry to
//! the offending construct — because the fix is usually a restructuring
//! at one of the intermediate hops, not at the effect site.
//!
//! Waivers stay statement-anchored at the *effect site*: a
//! `// lint:allow(hot_path_purity)` on the offending statement waives
//! the transitive finding, and where a per-file base rule covers the
//! same construct in the same file (`no_panic` for panic effects,
//! `no_index` for indexing, in `[hot_path] files`), its existing waiver
//! is honored too — one justified escape hatch, not two.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use crate::callgraph::{self, CallGraph, EffectKind};
use crate::resolve::Workspace;
use crate::{collect_waivers, parse_entry_spec, violation_at, Config, Violation, Waiver};

/// Rules evaluated on the call graph rather than per file. Their
/// waivers are usage-checked here, not by the per-file engine.
pub const GRAPH_RULES: &[&str] = &["hot_path_purity", "unsafe_reach", "opaque_call_budget"];

/// Default transitive deny set when `[callgraph] purity_deny` is
/// omitted: everything panic-capable plus blocking and I/O. `alloc`
/// and `arith` are opt-in — batch-amortized scratch allocation is a
/// policy decision, and overflow is clippy's `arithmetic_side_effects`
/// lint's to catch.
const DEFAULT_DENY: &[EffectKind] = &[
    EffectKind::Panic,
    EffectKind::Index,
    EffectKind::Lock,
    EffectKind::Io,
];

/// Run all graph rules. `Err` is a configuration error (unknown entry
/// point, unresolvable spec) and fails the run with exit 2, exactly
/// like a dangling path in `lint.toml`.
pub fn run(ws: &Workspace, graph: &CallGraph, config: &Config) -> Result<Vec<Violation>, String> {
    let mut waivers: Vec<Vec<Waiver>> = ws.files.iter().map(|f| collect_waivers(&f.fa)).collect();
    let mut out = Vec::new();

    let entries = resolve_entries(ws, config)?;
    hot_path_purity(ws, graph, config, &entries, &mut waivers, &mut out);
    opaque_call_budget(ws, graph, config, &entries, &mut waivers, &mut out);
    unsafe_reach(ws, graph, config, &mut waivers, &mut out);

    // Waiver hygiene for graph rules: the per-file engine defers the
    // unused check for these names to us, since only a whole-tree run
    // knows whether they suppress anything.
    for (file, per_file) in waivers.iter().enumerate() {
        let fa = &ws.files[file].fa;
        for waiver in per_file {
            if fa.exempt.get(waiver.token).copied().unwrap_or(false) {
                continue;
            }
            for (k, rule) in waiver.rules.iter().enumerate() {
                if !GRAPH_RULES.contains(&rule.as_str()) {
                    continue;
                }
                if waiver.used.get(k).copied().unwrap_or(false) {
                    continue;
                }
                let message = format!(
                    "waiver for `{rule}` suppresses nothing reachable from the configured \
                     entry points; delete it"
                );
                if let Some(v) = violation_at(fa, waiver.token, "unused_waiver", message, false) {
                    out.push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Resolve every `[callgraph] entries` spec to a `FnDef` id.
fn resolve_entries(ws: &Workspace, config: &Config) -> Result<Vec<usize>, String> {
    let mut entries = Vec::new();
    for spec in &config.callgraph_entries {
        let (file, ty, name) = parse_entry_spec(spec)?;
        let Some(file_idx) = ws.files.iter().position(|f| f.rel == file) else {
            return Err(format!(
                "lint.toml: [callgraph] entries: `{file}` is not part of the linted tree"
            ));
        };
        let matches: Vec<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, d)| {
                d.file == file_idx && d.name == name && d.self_type.as_deref() == ty.as_deref()
            })
            .map(|(i, _)| i)
            .collect();
        if matches.is_empty() {
            let available: Vec<String> = ws
                .fns
                .iter()
                .filter(|d| d.file == file_idx)
                .map(|d| d.display())
                .collect();
            return Err(format!(
                "lint.toml: [callgraph] entries: `{spec}` does not resolve to a function \
                 in `{file}` (found there: {})",
                if available.is_empty() {
                    "<none>".to_string()
                } else {
                    available.join(", ")
                }
            ));
        }
        entries.extend(matches);
    }
    Ok(entries)
}

/// Waive a graph finding anchored at `(file, token)` when any waiver on
/// that statement names one of `accepted`. Graph-rule names are marked
/// used; base-rule names (`no_panic` …) are left to the per-file pass,
/// which marks them against its own finding on the same statement.
fn waived_at(
    ws: &Workspace,
    waivers: &mut [Vec<Waiver>],
    file: usize,
    token: usize,
    accepted: &[&str],
) -> bool {
    let fa = &ws.files[file].fa;
    let Some(stmt) = fa.stmt_of.get(token).copied().flatten() else {
        return false;
    };
    let mut hit = false;
    for waiver in &mut waivers[file] {
        if waiver.stmt != Some(stmt) {
            continue;
        }
        for (k, rule) in waiver.rules.iter().enumerate() {
            if accepted.contains(&rule.as_str()) {
                hit = true;
                if GRAPH_RULES.contains(&rule.as_str()) {
                    if let Some(slot) = waiver.used.get_mut(k) {
                        *slot = true;
                    }
                }
            }
        }
    }
    hit
}

/// The per-file rule that covers `kind` at `rel`, if any — its waiver
/// is accepted for the transitive finding too.
fn base_rule(config: &Config, rel: &str, kind: EffectKind) -> Option<&'static str> {
    if !config.hot_path.iter().any(|f| f == rel) {
        return None;
    }
    match kind {
        EffectKind::Panic => Some("no_panic"),
        EffectKind::Index => Some("no_index"),
        _ => None,
    }
}

/// `hot_path_purity`: nothing in the denied effect set may be
/// transitively reachable from a declared hot-path entry point.
fn hot_path_purity(
    ws: &Workspace,
    graph: &CallGraph,
    config: &Config,
    entries: &[usize],
    waivers: &mut [Vec<Waiver>],
    out: &mut Vec<Violation>,
) {
    let deny: HashSet<EffectKind> = if config.purity_deny.is_empty() {
        DEFAULT_DENY.iter().copied().collect()
    } else {
        config
            .purity_deny
            .iter()
            .filter_map(|s| EffectKind::parse(s))
            .collect()
    };
    let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
    for &entry in entries {
        let reach = callgraph::reachable(graph, entry);
        let mut order: Vec<usize> = reach.set.iter().copied().collect();
        order.sort_unstable();
        for f in order {
            let facts = &graph.facts[f];
            let def = &ws.fns[f];
            let rel = ws.files[def.file].rel.clone();
            for effect in &facts.effects {
                if !deny.contains(&effect.kind) {
                    continue;
                }
                if !seen.insert((entry, f, effect.token)) {
                    continue;
                }
                let mut accepted = vec!["hot_path_purity"];
                if let Some(base) = base_rule(config, &rel, effect.kind) {
                    accepted.push(base);
                }
                let waived = waived_at(ws, waivers, def.file, effect.token, &accepted);
                let entry_def = &ws.fns[entry];
                let effect_line = ws.files[def.file]
                    .fa
                    .tokens
                    .get(effect.token)
                    .map_or(0, |t| t.line);
                let chain = callgraph::blame_chain(ws, &reach, entry, f);
                let message = format!(
                    "hot-path entry `{}` transitively reaches {} ({}) at {rel}:{effect_line}; \
                     call chain: {chain}",
                    entry_def.display(),
                    effect.what,
                    effect.kind.name(),
                );
                let entry_fa = &ws.files[entry_def.file].fa;
                if let Some(v) = violation_at(
                    entry_fa,
                    entry_def.name_token,
                    "hot_path_purity",
                    message,
                    waived,
                ) {
                    out.push(v);
                }
            }
        }
    }
}

/// `opaque_call_budget`: functions on the hot path (reachable from any
/// entry) may not exceed the configured number of syntactically
/// indirect — and therefore unanalyzable — calls.
fn opaque_call_budget(
    ws: &Workspace,
    graph: &CallGraph,
    config: &Config,
    entries: &[usize],
    waivers: &mut [Vec<Waiver>],
    out: &mut Vec<Violation>,
) {
    let Some(budget) = config.opaque_budget else {
        return;
    };
    let mut hot: BTreeSet<usize> = BTreeSet::new();
    for &entry in entries {
        hot.extend(callgraph::reachable(graph, entry).set);
    }
    for f in hot {
        let count = graph.facts[f].opaque.len() as u64;
        if count <= budget {
            continue;
        }
        let def = &ws.fns[f];
        let fa = &ws.files[def.file].fa;
        let waived = waived_at(
            ws,
            waivers,
            def.file,
            def.name_token,
            &["opaque_call_budget"],
        );
        let message = format!(
            "hot-path fn `{}` makes {count} unresolved indirect call(s) (budget {budget}); \
             replace closures/fn-pointers with named calls the analysis can follow, or \
             raise `[callgraph] opaque_budget`",
            def.display(),
        );
        if let Some(v) = violation_at(fa, def.name_token, "opaque_call_budget", message, waived) {
            out.push(v);
        }
    }
}

/// `unsafe_reach`: every public fn in the audited files that
/// transitively reaches an `unsafe` block must name the unsafe module
/// (its file stem, e.g. `spsc`) in the doc/SAFETY comment block
/// directly above the fn.
fn unsafe_reach(
    ws: &Workspace,
    graph: &CallGraph,
    config: &Config,
    waivers: &mut [Vec<Waiver>],
    out: &mut Vec<Violation>,
) {
    for rel in &config.unsafe_reach_files {
        let Some(file_idx) = ws.files.iter().position(|f| &f.rel == rel) else {
            continue; // validate_config_paths guarantees existence on disk
        };
        let fns: Vec<usize> = ws.fns_in_file(file_idx).collect();
        for f in fns {
            let def = &ws.fns[f];
            if !def.is_pub || def.body.is_none() {
                continue;
            }
            let reach = callgraph::reachable(graph, f);
            // Unsafe modules this fn depends on, with one witness chain
            // per module for the diagnostic.
            let mut unsafe_files: BTreeMap<String, usize> = BTreeMap::new();
            for &t in &reach.set {
                if graph.facts[t].has_unsafe {
                    let file = ws.files[ws.fns[t].file].rel.clone();
                    unsafe_files.entry(file).or_insert(t);
                }
            }
            if unsafe_files.is_empty() {
                continue;
            }
            let fa = &ws.files[file_idx].fa;
            let doc = doc_text_above(fa, def.first_token);
            for (unsafe_rel, witness) in unsafe_files {
                let stem = file_stem(&unsafe_rel);
                if doc.contains(stem) {
                    continue;
                }
                let waived = waived_at(ws, waivers, def.file, def.name_token, &["unsafe_reach"]);
                let chain = callgraph::blame_chain(ws, &reach, f, witness);
                let message = format!(
                    "public fn `{}` transitively reaches unsafe code in {unsafe_rel} \
                     (call chain: {chain}) but its doc comment does not mention `{stem}`; \
                     document the safety dependency",
                    def.display(),
                );
                if let Some(v) = violation_at(fa, def.name_token, "unsafe_reach", message, waived) {
                    out.push(v);
                }
            }
        }
    }
}

/// The contiguous comment block directly above the token's line,
/// skipping attribute lines (`#[inline]`) that sit between docs and the
/// item. Returns the concatenated comment text.
fn doc_text_above(fa: &crate::FileAnalysis, token: usize) -> String {
    let Some(first_line) = fa.tokens.get(token).map(|t| t.line) else {
        return String::new();
    };
    let mut out = String::new();
    let mut line = first_line.saturating_sub(1);
    while line >= 1 {
        let text = fa
            .lines
            .get(line.saturating_sub(1))
            .map_or("", |l| l.trim());
        if fa.line_comment_only(line) {
            out.push_str(text);
            out.push('\n');
            line = line.saturating_sub(1);
        } else if text.starts_with("#[") || text.starts_with("#![") {
            line = line.saturating_sub(1);
        } else {
            break;
        }
    }
    out
}

/// `crates/core/src/spsc.rs` → `spsc`.
fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .strip_suffix(".rs")
        .unwrap_or(rel)
}
