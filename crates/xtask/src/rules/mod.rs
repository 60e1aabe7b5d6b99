//! Token-tree lint rules.
//!
//! Every rule is a pure function over a [`FileAnalysis`] (tokens +
//! tree + statement map + cfg-exemption mask) that emits raw
//! [`Finding`]s — token index, rule name, message. Waiver matching,
//! position resolution and formatting happen in the engine
//! (`lib.rs`), so a rule only has to recognize its pattern in *code*
//! tokens; comments, strings and `#[cfg(test)]` items are already
//! invisible by construction.

use crate::lexer::TokenKind;
use crate::FileAnalysis;

pub mod atomic_io;
pub mod failpoints;
pub mod graph;
pub mod index;
pub mod obs;
pub mod orderings;
pub mod panic;
pub mod simd;
pub mod unsafe_code;

/// A raw rule hit: `token` is the index (into `FileAnalysis::tokens`)
/// of the token the diagnostic anchors to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub token: usize,
    pub rule: &'static str,
    pub message: String,
}

/// Rules a `// lint:allow(<rule>)` comment may waive. `unsafe_allowlist`
/// is deliberately absent: the allowlist in lint.toml *is* its waiver
/// mechanism, and `safety_comment` is fixed by writing the SAFETY
/// comment itself.
pub const WAIVABLE_RULES: &[&str] = &[
    "no_panic",
    "no_index",
    "no_relaxed",
    "ordering_protocol",
    "failpoint_gate",
    "atomic_io",
    "obs_hot_path",
    "hot_path_purity",
    "unsafe_reach",
    "opaque_call_budget",
];

/// Run every rule over one analyzed file.
pub fn run_all(fa: &FileAnalysis, config: &crate::Config) -> Vec<Finding> {
    let mut out = Vec::new();
    unsafe_code::check(fa, config, &mut out);
    simd::check(fa, config, &mut out);
    panic::check(fa, config, &mut out);
    index::check(fa, config, &mut out);
    orderings::check(fa, config, &mut out);
    failpoints::check(fa, config, &mut out);
    atomic_io::check(fa, config, &mut out);
    obs::check(fa, config, &mut out);
    out
}

// ---- shared token-pattern helpers (code positions, not token indices) ----

/// The identifier text at code position `pos`, if it is an identifier.
pub(crate) fn ident_at(fa: &FileAnalysis, pos: usize) -> Option<&str> {
    let tok = fa.code_tok(pos)?;
    (tok.kind == TokenKind::Ident).then_some(tok.text.as_str())
}

/// Whether code position `pos` is the punct `text`.
pub(crate) fn punct_at(fa: &FileAnalysis, pos: usize, text: &str) -> bool {
    fa.code_tok(pos)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// `path_at(fa, pos, &["Ordering", "::", "Relaxed"])` — exact token run.
pub(crate) fn path_at(fa: &FileAnalysis, pos: usize, parts: &[&str]) -> bool {
    parts.iter().enumerate().all(|(k, part)| {
        fa.code_tok(pos.saturating_add(k))
            .is_some_and(|t| t.text == *part)
    })
}

/// Method-call pattern at code position `pos`: `.` NAME `(` where NAME is
/// in `names`. Returns the matched name.
pub(crate) fn method_call<'a>(fa: &FileAnalysis, pos: usize, names: &[&'a str]) -> Option<&'a str> {
    if !punct_at(fa, pos, ".") {
        return None;
    }
    let name = ident_at(fa, pos.saturating_add(1))?;
    if !punct_at(fa, pos.saturating_add(2), "(") {
        return None;
    }
    names.iter().find(|n| **n == name).copied()
}

/// Macro-invocation pattern: NAME `!` where NAME is in `names`.
pub(crate) fn macro_call<'a>(fa: &FileAnalysis, pos: usize, names: &[&'a str]) -> Option<&'a str> {
    let name = ident_at(fa, pos)?;
    if !punct_at(fa, pos.saturating_add(1), "!") {
        return None;
    }
    names.iter().find(|n| **n == name).copied()
}

/// Whether the code token at position `pos` sits in a cfg-disabled item.
pub(crate) fn exempt_at(fa: &FileAnalysis, pos: usize) -> bool {
    fa.code
        .get(pos)
        .is_some_and(|&i| fa.exempt.get(i).copied().unwrap_or(false))
}

/// Push a finding anchored at code position `pos`.
pub(crate) fn push_at(
    fa: &FileAnalysis,
    out: &mut Vec<Finding>,
    pos: usize,
    rule: &'static str,
    message: String,
) {
    if let Some(&token) = fa.code.get(pos) {
        out.push(Finding {
            token,
            rule,
            message,
        });
    }
}

/// Whether `rel` appears in `list` (exact workspace-relative match).
pub(crate) fn listed(list: &[String], rel: &str) -> bool {
    list.iter().any(|f| f == rel)
}
