//! Workspace invariant linter (`cargo run -p xtask -- lint`).
//!
//! Enforces the concurrency-and-overflow discipline that the loom
//! models and the clippy configuration establish, so it cannot erode
//! silently. The analysis is **syntax-aware**, not lexical: a
//! zero-dependency Rust tokenizer ([`lexer`]) feeds a brace-matched
//! token tree ([`tokentree`]) with per-token spans; `#[cfg(...)]`
//! attributes are genuinely evaluated ([`mod@cfg`] — `test` is false,
//! features are unknown, only a definitively-false predicate exempts
//! its item); and every rule ([`rules`]) pattern-matches *code tokens*,
//! so nothing hidden in strings, comments or macros-as-text can fire or
//! evade a rule.
//!
//! The rules (configured by `lint.toml`, schema-checked — unknown
//! sections/keys and dangling paths are hard errors):
//!
//! * **unsafe_allowlist** — `unsafe` only in `[unsafe_code] allow`.
//! * **safety_comment** — every `unsafe` token covered by a
//!   `// SAFETY:` comment on the same line or the contiguous comment
//!   block directly above.
//! * **no_panic** — hot-path files: no `.unwrap()` / `.expect(...)` /
//!   panicking macros (`assert!`/`debug_assert!` stay allowed).
//! * **no_index** — hot-path files: no `expr[...]` *index expressions*.
//!   Attributes, macro invocations, slice patterns, array types and
//!   array literals are structurally not indexing and never flagged.
//! * **no_relaxed** — every `Ordering::Relaxed` in the configured
//!   concurrency files carries a justification.
//! * **failpoint_gate** — `fail_point!` / `failpoint::` only in
//!   `[failpoints] allow`.
//! * **atomic_io** — no bare `File::create` / `fs::write` /
//!   `OpenOptions::new` in checkpoint-I/O modules.
//! * **obs_hot_path** — metric-cell files stay `Relaxed`-only; in
//!   call-site files a metric update must not share a *statement* with
//!   a lock or strong ordering (line breaks neither evade nor
//!   false-positive the rule).
//! * **unused_waiver** — a waiver that names an unknown rule or
//!   suppresses nothing is itself a violation, so every shipped waiver
//!   stays load-bearing.
//!
//! Waivers are real comments (never strings or doc text) and attach to
//! the enclosing **statement**:
//!
//! ```text
//! // lint:allow(<rule>): <reason>     — on the statement's line, the
//! //                                    line above, or inside it
//! // lint: index-ok (<reason>)        — shorthand for no_index
//! ```
//!
//! Output formats: human `file:line:col: [rule] message` (default),
//! `--format json` (one `{rule, file, line, col, snippet, waived,
//! message}` record per line, waived findings included), and
//! `--format github` (workflow `::error` annotations).

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

pub mod bench_compare;
pub mod callgraph;
pub mod cfg;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod tokentree;

use cfg::CfgContext;
use lexer::{Token, TokenKind};
use tokentree::{Delim, Tree};

/// One rule finding with full position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based byte column.
    pub col: usize,
    /// 1-based byte column one past the anchor token (for range
    /// annotations; equals `col + token length` on single-line anchors).
    pub end_col: usize,
    /// Which rule fired.
    pub rule: &'static str,
    /// Human-readable explanation with the expected fix.
    pub message: String,
    /// The trimmed source line the finding anchors to.
    pub snippet: String,
    /// True when an attached waiver suppresses this finding. Waived
    /// findings are reported in `--format json` but do not fail the
    /// build.
    pub waived: bool,
}

impl Violation {
    /// Findings that fail the build.
    pub fn is_active(&self) -> bool {
        !self.waived
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// Keep only the findings that fail the build.
pub fn active(violations: &[Violation]) -> Vec<&Violation> {
    violations.iter().filter(|v| v.is_active()).collect()
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    /// Directories (relative to the workspace root) to lint.
    pub roots: Vec<String>,
    /// Directory names skipped anywhere under a root.
    pub skip: Vec<String>,
    /// Files allowed to contain `unsafe`.
    pub unsafe_allow: Vec<String>,
    /// Hot-path files subject to no_panic / no_index.
    pub hot_path: Vec<String>,
    /// Files where `Ordering::Relaxed` needs a justification.
    pub no_relaxed_files: Vec<String>,
    /// Files whose atomics must each declare an `// ordering:` contract,
    /// checked against every access (ordering_protocol rule).
    pub protocol_files: Vec<String>,
    /// Files allowed to reference the failpoint facility.
    pub failpoint_allow: Vec<String>,
    /// Files whose file-writing calls must go through the atomic-rename
    /// helper.
    pub atomic_io_files: Vec<String>,
    /// Metric-cell implementation files that must stay wait-free.
    pub obs_metrics_files: Vec<String>,
    /// Span-ring implementation files under the same wait-free contract
    /// as the metric cells (trace record sits on the hot path).
    pub obs_trace_files: Vec<String>,
    /// Hot-path files where a metric update must not share a statement
    /// with a lock or a strong atomic ordering.
    pub obs_call_site_files: Vec<String>,
    /// Hot-path entry points for the interprocedural purity analysis:
    /// `"path/to/file.rs::Type::fn"` (or `file.rs::fn` for free fns).
    pub callgraph_entries: Vec<String>,
    /// Effect categories denied transitively from the entry points
    /// (subset of panic/index/arith/lock/alloc/io). Empty means the
    /// default deny set (panic, index, lock, io).
    pub purity_deny: Vec<String>,
    /// Max unresolved indirect calls per hot-path function
    /// (opaque_call_budget rule). `None` disables the rule.
    pub opaque_budget: Option<u64>,
    /// Files whose public fns are audited by unsafe_reach: reaching an
    /// `unsafe` block requires the unsafe module's name in the doc text.
    pub unsafe_reach_files: Vec<String>,
}

impl Config {
    /// Whether any interprocedural (call-graph) analysis is configured.
    pub fn callgraph_enabled(&self) -> bool {
        !self.callgraph_entries.is_empty() || !self.unsafe_reach_files.is_empty()
    }
}

/// The `lint.toml` schema: every section and the keys it accepts.
/// Anything outside this table is a hard configuration error — the
/// config can never silently rot.
const SCHEMA: &[(&str, &[&str])] = &[
    ("paths", &["roots", "skip"]),
    ("unsafe_code", &["allow"]),
    ("hot_path", &["files"]),
    ("orderings", &["no_relaxed_files", "protocol_files"]),
    ("failpoints", &["allow"]),
    ("atomic_io", &["files"]),
    ("obs", &["metrics_files", "trace_files", "call_site_files"]),
    (
        "callgraph",
        &[
            "entries",
            "purity_deny",
            "opaque_budget",
            "unsafe_reach_files",
        ],
    ),
];

/// Parse the TOML subset `lint.toml` uses: `[section]` headers and
/// `key = "string"` / `key = ["array", "of", "strings"]` entries
/// (arrays may span lines). Unknown sections and keys are rejected
/// loudly rather than ignored silently.
pub fn parse_config(text: &str) -> Result<Config, String> {
    let mut config = Config::default();
    let mut section = String::new();
    let mut lines = text.lines().enumerate();
    while let Some((idx, raw)) = lines.next() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
            if !SCHEMA.iter().any(|(s, _)| *s == section) {
                return Err(format!(
                    "lint.toml:{}: unknown section `[{}]` (known: {})",
                    idx + 1,
                    section,
                    SCHEMA
                        .iter()
                        .map(|(s, _)| format!("[{s}]"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("lint.toml:{}: expected `key = value`", idx + 1))?;
        let key = key.trim();
        let mut value = value.trim().to_string();
        // Multiline array: keep consuming lines until the closing bracket.
        if value.starts_with('[') && !balanced_array(&value) {
            let mut closed = false;
            for (_, cont) in lines.by_ref() {
                value.push(' ');
                value.push_str(strip_toml_comment(cont).trim());
                if balanced_array(&value) {
                    closed = true;
                    break;
                }
            }
            if !closed {
                return Err(format!("lint.toml:{}: unterminated array", idx + 1));
            }
        }
        // `[callgraph] opaque_budget` is the one integer key.
        if section == "callgraph" && key == "opaque_budget" {
            let n: u64 = value.parse().map_err(|_| {
                format!(
                    "lint.toml:{}: `opaque_budget` must be a non-negative integer, got `{value}`",
                    idx + 1
                )
            })?;
            config.opaque_budget = Some(n);
            continue;
        }
        let values = parse_string_array(&value)
            .map_err(|e| format!("lint.toml:{}: {} (key `{}`)", idx + 1, e, key))?;
        match (section.as_str(), key) {
            ("paths", "roots") => config.roots = values,
            ("paths", "skip") => config.skip = values,
            ("unsafe_code", "allow") => config.unsafe_allow = values,
            ("hot_path", "files") => config.hot_path = values,
            ("orderings", "no_relaxed_files") => config.no_relaxed_files = values,
            ("orderings", "protocol_files") => config.protocol_files = values,
            ("failpoints", "allow") => config.failpoint_allow = values,
            ("atomic_io", "files") => config.atomic_io_files = values,
            ("obs", "metrics_files") => config.obs_metrics_files = values,
            ("obs", "trace_files") => config.obs_trace_files = values,
            ("obs", "call_site_files") => config.obs_call_site_files = values,
            ("callgraph", "entries") => config.callgraph_entries = values,
            ("callgraph", "purity_deny") => {
                for v in &values {
                    if callgraph::EffectKind::parse(v).is_none() {
                        return Err(format!(
                            "lint.toml:{}: unknown effect `{v}` in `purity_deny` (known: {})",
                            idx + 1,
                            callgraph::EffectKind::ALL.join(", ")
                        ));
                    }
                }
                config.purity_deny = values;
            }
            ("callgraph", "unsafe_reach_files") => config.unsafe_reach_files = values,
            _ => {
                let known = SCHEMA
                    .iter()
                    .find(|(s, _)| *s == section)
                    .map_or("<none>".to_string(), |(_, keys)| keys.join(", "));
                return Err(format!(
                    "lint.toml:{}: unknown key `{}` in section `[{}]` (known keys: {})",
                    idx + 1,
                    key,
                    section,
                    known
                ));
            }
        }
    }
    if config.roots.is_empty() {
        return Err("lint.toml: `[paths] roots` must list at least one directory".to_string());
    }
    Ok(config)
}

/// Validate that every path the config names actually exists under
/// `root`, so a rename can never silently drop a file out of a rule's
/// coverage. `[paths] skip` entries are directory *names*, not paths,
/// and are exempt.
pub fn validate_config_paths(config: &Config, root: &Path) -> Result<(), String> {
    for dir in &config.roots {
        if !root.join(dir).is_dir() {
            return Err(format!(
                "lint.toml: [paths] roots: `{dir}` is not a directory under {}",
                root.display()
            ));
        }
    }
    let file_lists: &[(&str, &[String])] = &[
        ("[unsafe_code] allow", &config.unsafe_allow),
        ("[hot_path] files", &config.hot_path),
        ("[orderings] no_relaxed_files", &config.no_relaxed_files),
        ("[orderings] protocol_files", &config.protocol_files),
        ("[failpoints] allow", &config.failpoint_allow),
        ("[atomic_io] files", &config.atomic_io_files),
        ("[obs] metrics_files", &config.obs_metrics_files),
        ("[obs] trace_files", &config.obs_trace_files),
        ("[obs] call_site_files", &config.obs_call_site_files),
        ("[callgraph] unsafe_reach_files", &config.unsafe_reach_files),
    ];
    for (key, list) in file_lists {
        for file in *list {
            if !root.join(file).is_file() {
                return Err(format!(
                    "lint.toml: {key}: `{file}` does not exist — fix the path or remove \
                     the stale entry"
                ));
            }
        }
    }
    // Entry specs: the file part must exist; the fn part is resolved
    // against the collected workspace symbols at analysis time.
    for spec in &config.callgraph_entries {
        let (file, _, _) = parse_entry_spec(spec)?;
        if !root.join(&file).is_file() {
            return Err(format!(
                "lint.toml: [callgraph] entries: `{file}` does not exist — fix the path \
                 or remove the stale entry"
            ));
        }
    }
    Ok(())
}

/// Split `"path/file.rs::Type::fn"` / `"path/file.rs::fn"` into
/// `(file, Some(type), fn)` / `(file, None, fn)`.
pub(crate) fn parse_entry_spec(spec: &str) -> Result<(String, Option<String>, String), String> {
    let parts: Vec<&str> = spec.split("::").collect();
    match parts.as_slice() {
        [file, name] if file.ends_with(".rs") => Ok((file.to_string(), None, name.to_string())),
        [file, ty, name] if file.ends_with(".rs") => {
            Ok((file.to_string(), Some(ty.to_string()), name.to_string()))
        }
        _ => Err(format!(
            "lint.toml: [callgraph] entries: `{spec}` is not of the form \
             `path/to/file.rs::fn` or `path/to/file.rs::Type::fn`"
        )),
    }
}

/// Drop a `#` comment, respecting `"` quoting.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced_array(value: &str) -> bool {
    value.starts_with('[') && value.trim_end().ends_with(']')
}

/// Parse `"a"` or `["a", "b"]` into a vector of strings.
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let value = value.trim();
    if let Some(inner) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) {
        let mut out = Vec::new();
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            out.push(parse_string(part)?);
        }
        Ok(out)
    } else {
        Ok(vec![parse_string(value)?])
    }
}

fn parse_string(value: &str) -> Result<String, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a double-quoted string, got `{value}`"))
}

// ---------------------------------------------------------------------------
// File analysis
// ---------------------------------------------------------------------------

/// Everything the rules need to know about one source file: the token
/// stream, the token tree, the statement map, the cfg-exemption mask
/// and per-line comment info for SAFETY scanning.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    pub rel: String,
    pub tokens: Vec<Token>,
    pub root: Vec<Tree>,
    /// Per token: sits inside a cfg-disabled item (e.g. `#[cfg(test)]`).
    pub exempt: Vec<bool>,
    /// Per token: innermost statement id (None for comments/shebang).
    pub stmt_of: Vec<Option<usize>>,
    pub stmt_count: usize,
    /// Indices of non-comment, non-shebang tokens, in source order.
    pub code: Vec<usize>,
    /// Token index → position in `code`.
    code_positions: Vec<Option<usize>>,
    /// Token indices of `[` delimiters that open bracket groups.
    pub bracket_opens: Vec<usize>,
    /// Per line (0-based): contains only comment tokens.
    comment_only_lines: Vec<bool>,
    /// Per line (0-based): a comment containing `SAFETY:` touches it.
    safety_lines: Vec<bool>,
    /// Source lines, for snippets.
    pub lines: Vec<String>,
}

impl FileAnalysis {
    /// Analyze with the default cfg context (`test` false, features
    /// unknown).
    pub fn analyze(rel: &str, source: &str) -> Result<FileAnalysis, String> {
        FileAnalysis::analyze_with(rel, source, &CfgContext::default())
    }

    pub fn analyze_with(rel: &str, source: &str, ctx: &CfgContext) -> Result<FileAnalysis, String> {
        let tokens = lexer::tokenize(source).map_err(|e| e.to_string())?;
        let root = tokentree::build(&tokens)?;
        let exempt = cfg::exempt_mask(&tokens, &root, ctx);
        let statements = tokentree::segment(&tokens, &root);

        let mut code = Vec::new();
        let mut code_positions = vec![None; tokens.len()];
        for (i, tok) in tokens.iter().enumerate() {
            if !tok.kind.is_comment() && tok.kind != TokenKind::Shebang {
                if let Some(slot) = code_positions.get_mut(i) {
                    *slot = Some(code.len());
                }
                code.push(i);
            }
        }

        let mut bracket_opens = Vec::new();
        collect_bracket_opens(&root, &mut bracket_opens);

        let lines: Vec<String> = source.lines().map(str::to_string).collect();
        let n = lines.len();
        let mut has_code = vec![false; n];
        let mut has_comment = vec![false; n];
        let mut safety_lines = vec![false; n];
        for tok in &tokens {
            let span = tok.line..=tok.line.saturating_add(tok.text.matches('\n').count());
            let comment = tok.kind.is_comment();
            let safety = comment && tok.text.contains("SAFETY:");
            for line in span {
                let Some(idx) = line.checked_sub(1) else {
                    continue;
                };
                if comment {
                    if let Some(slot) = has_comment.get_mut(idx) {
                        *slot = true;
                    }
                    if safety {
                        if let Some(slot) = safety_lines.get_mut(idx) {
                            *slot = true;
                        }
                    }
                } else if let Some(slot) = has_code.get_mut(idx) {
                    *slot = true;
                }
            }
        }
        let comment_only_lines = has_comment
            .iter()
            .zip(&has_code)
            .map(|(&c, &k)| c && !k)
            .collect();

        Ok(FileAnalysis {
            rel: rel.to_string(),
            tokens,
            root,
            exempt,
            stmt_of: statements.stmt_of,
            stmt_count: statements.count,
            code,
            code_positions,
            bracket_opens,
            comment_only_lines,
            safety_lines,
            lines,
        })
    }

    /// The token at code position `pos`.
    pub fn code_tok(&self, pos: usize) -> Option<&Token> {
        self.code.get(pos).and_then(|&i| self.tokens.get(i))
    }

    /// Position in `code` of token index `i`.
    pub fn code_pos(&self, i: usize) -> Option<usize> {
        self.code_positions.get(i).copied().flatten()
    }

    /// 1-based `line` contains only comments.
    pub fn line_comment_only(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.comment_only_lines.get(i).copied())
            .unwrap_or(false)
    }

    /// 1-based `line` is touched by a comment containing `SAFETY:`.
    pub fn line_has_safety(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.safety_lines.get(i).copied())
            .unwrap_or(false)
    }

    /// Trimmed source text of 1-based `line`.
    pub(crate) fn snippet(&self, line: usize) -> String {
        line.checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .map_or(String::new(), |l| l.trim().to_string())
    }
}

fn collect_bracket_opens(trees: &[Tree], out: &mut Vec<usize>) {
    for tree in trees {
        if let Tree::Group(g) = tree {
            if g.delim == Delim::Bracket {
                out.push(g.open);
            }
            collect_bracket_opens(&g.children, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

/// A waiver parsed from a real (non-doc) comment. Attaches to the
/// enclosing statement: the statement whose tokens share the comment's
/// line (looking backward), else the next statement after the comment.
#[derive(Debug, Clone)]
pub(crate) struct Waiver {
    /// Comment token index.
    pub(crate) token: usize,
    /// Statement the waiver attaches to.
    pub(crate) stmt: Option<usize>,
    /// Rule names the comment waives.
    pub(crate) rules: Vec<String>,
    /// Per rule: suppressed at least one finding.
    pub(crate) used: Vec<bool>,
}

/// Extract waived rule names from a comment's text: every
/// `lint:allow(a, b)` list plus the `lint: index-ok` shorthand.
fn waiver_rules(text: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("lint:allow(") {
        let args = &rest[at.saturating_add("lint:allow(".len())..];
        let Some(close) = args.find(')') else {
            break;
        };
        for rule in args[..close].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                rules.push(rule.to_string());
            }
        }
        rest = &args[close..];
    }
    if text.contains("lint: index-ok") && !rules.iter().any(|r| r == "no_index") {
        rules.push("no_index".to_string());
    }
    rules
}

/// Attach a waiver comment to a statement: the statement of the nearest
/// preceding code token that ends on the comment's line, else the
/// statement of the next code token after the comment.
fn attach_stmt(fa: &FileAnalysis, comment_idx: usize) -> Option<usize> {
    let comment = fa.tokens.get(comment_idx)?;
    for j in (0..comment_idx).rev() {
        let Some(tok) = fa.tokens.get(j) else {
            continue;
        };
        if tok.kind.is_comment() || tok.kind == TokenKind::Shebang {
            continue;
        }
        let end_line = tok.line.saturating_add(tok.text.matches('\n').count());
        if end_line == comment.line {
            return fa.stmt_of.get(j).copied().flatten();
        }
        break;
    }
    for (j, tok) in fa
        .tokens
        .iter()
        .enumerate()
        .skip(comment_idx.saturating_add(1))
    {
        if tok.kind.is_comment() || tok.kind == TokenKind::Shebang {
            continue;
        }
        return fa.stmt_of.get(j).copied().flatten();
    }
    None
}

pub(crate) fn collect_waivers(fa: &FileAnalysis) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for (i, tok) in fa.tokens.iter().enumerate() {
        // Doc comments are rendered documentation, not linter
        // directives; strings never carry waivers at all (they are not
        // comment tokens).
        if !tok.kind.is_comment() || tok.kind.is_doc_comment() {
            continue;
        }
        let rules = waiver_rules(&tok.text);
        if rules.is_empty() {
            continue;
        }
        let used = vec![false; rules.len()];
        waivers.push(Waiver {
            token: i,
            stmt: attach_stmt(fa, i),
            rules,
            used,
        });
    }
    waivers
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Build a [`Violation`] anchored at token `token` of `fa`.
pub(crate) fn violation_at(
    fa: &FileAnalysis,
    token: usize,
    rule: &'static str,
    message: String,
    waived: bool,
) -> Option<Violation> {
    let tok = fa.tokens.get(token)?;
    let end_col = if tok.text.contains('\n') {
        tok.col.saturating_add(1)
    } else {
        tok.col.saturating_add(tok.text.len())
    };
    Some(Violation {
        file: fa.rel.clone(),
        line: tok.line,
        col: tok.col,
        end_col,
        rule,
        message,
        snippet: fa.snippet(tok.line),
        waived,
    })
}

/// Lint one source file. `rel` is the workspace-relative path with
/// forward slashes; rules apply according to which config lists contain
/// it. Returns **all** findings — waived ones carry `waived: true` and
/// do not fail the build; use [`active`] to filter. A file that fails
/// to tokenize or brace-match yields a single `syntax` finding.
pub fn lint_source(rel: &str, source: &str, config: &Config) -> Vec<Violation> {
    match FileAnalysis::analyze(rel, source) {
        Ok(fa) => file_violations(&fa, config),
        Err(message) => vec![syntax_violation(rel, message)],
    }
}

fn syntax_violation(rel: &str, message: String) -> Violation {
    // Error strings start with `line:col: `.
    let mut parts = message.splitn(3, ':');
    let line = parts.next().and_then(|p| p.parse().ok()).unwrap_or(1);
    let col: usize = parts.next().and_then(|p| p.parse().ok()).unwrap_or(1);
    Violation {
        file: rel.to_string(),
        line,
        col,
        end_col: col.saturating_add(1),
        rule: "syntax",
        message,
        snippet: String::new(),
        waived: false,
    }
}

/// Per-file rules + waiver matching for one analyzed file. Graph-rule
/// waivers (`hot_path_purity` etc.) are skipped by the unused-waiver
/// hygiene check here — only a whole-tree run can tell whether they
/// suppress anything, and [`lint_tree`]'s graph phase performs that
/// check.
pub(crate) fn file_violations(fa: &FileAnalysis, config: &Config) -> Vec<Violation> {
    let findings = rules::run_all(fa, config);
    let mut waivers = collect_waivers(fa);
    let mut violations = Vec::new();

    for finding in findings {
        let stmt = fa.stmt_of.get(finding.token).copied().flatten();
        let mut waived = false;
        if stmt.is_some() {
            for waiver in &mut waivers {
                if waiver.stmt != stmt {
                    continue;
                }
                for (k, rule) in waiver.rules.iter().enumerate() {
                    if rule == finding.rule {
                        waived = true;
                        if let Some(slot) = waiver.used.get_mut(k) {
                            *slot = true;
                        }
                    }
                }
            }
        }
        if let Some(v) = violation_at(fa, finding.token, finding.rule, finding.message, waived) {
            violations.push(v);
        }
    }

    // Waiver hygiene: unknown rule names and waivers that suppress
    // nothing are violations themselves, so the shipped set of waivers
    // stays load-bearing.
    for waiver in &waivers {
        if fa.exempt.get(waiver.token).copied().unwrap_or(false) {
            continue;
        }
        for (k, rule) in waiver.rules.iter().enumerate() {
            let message = if !rules::WAIVABLE_RULES.contains(&rule.as_str()) {
                format!(
                    "waiver names unknown rule `{rule}` (waivable rules: {})",
                    rules::WAIVABLE_RULES.join(", ")
                )
            } else if rules::graph::GRAPH_RULES.contains(&rule.as_str()) {
                continue; // usage is only known after the graph phase
            } else if !waiver.used.get(k).copied().unwrap_or(false) {
                format!("waiver for `{rule}` suppresses nothing on its statement; delete it")
            } else {
                continue;
            };
            if let Some(v) = violation_at(fa, waiver.token, "unused_waiver", message, false) {
                violations.push(v);
            }
        }
    }

    violations.sort_by(|a, b| {
        (a.line, a.col, a.rule)
            .cmp(&(b.line, b.col, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    violations
}

/// Recursively lint every `.rs` file under the configured roots, then
/// run the interprocedural graph rules over the whole workspace (when
/// `[callgraph]` is configured). Returns all findings, waived included.
pub fn lint_tree(root: &Path, config: &Config) -> Result<Vec<Violation>, String> {
    lint_tree_filtered(root, config, None)
}

/// [`lint_tree`] with an optional changed-file filter: per-file
/// findings are restricted to `changed` paths, but the graph rules are
/// inherently cross-file and always run over (and report against) the
/// full workspace.
pub fn lint_tree_filtered(
    root: &Path,
    config: &Config,
    changed: Option<&[String]>,
) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    for dir in &config.roots {
        collect_rs_files(&root.join(dir), &config.skip, &mut files)?;
    }
    files.sort();
    let mut violations = Vec::new();
    let mut ws = resolve::Workspace::default();
    for path in files {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let include = changed.is_none_or(|list| list.iter().any(|f| f == &rel));
        match FileAnalysis::analyze(&rel, &source) {
            Ok(fa) => {
                if include {
                    violations.extend(file_violations(&fa, config));
                }
                ws.add_file(&rel, fa);
            }
            Err(message) => {
                if include {
                    violations.push(syntax_violation(&rel, message));
                }
            }
        }
    }
    if config.callgraph_enabled() {
        let graph = callgraph::build(&ws);
        violations.extend(rules::graph::run(&ws, &graph, config)?);
    }
    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule)
            .cmp(&(b.file.as_str(), b.line, b.col, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(violations)
}

/// Build the resolved workspace for export commands (no linting).
pub fn build_workspace(root: &Path, config: &Config) -> Result<resolve::Workspace, String> {
    let mut files = Vec::new();
    for dir in &config.roots {
        collect_rs_files(&root.join(dir), &config.skip, &mut files)?;
    }
    files.sort();
    let mut ws = resolve::Workspace::default();
    for path in files {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        match FileAnalysis::analyze(&rel, &source) {
            Ok(fa) => ws.add_file(&rel, fa),
            Err(message) => return Err(format!("{rel}: {message}")),
        }
    }
    Ok(ws)
}

fn collect_rs_files(dir: &Path, skip: &[String], out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(()), // a configured root may not exist in a partial tree
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !skip.contains(&name) {
                collect_rs_files(&path, skip, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------------

/// Escape a string for a JSON value.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len().saturating_add(2));
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// One machine-readable record:
/// `{"rule":…,"file":…,"line":…,"col":…,"snippet":…,"waived":…,"message":…}`.
pub fn json_record(v: &Violation) -> String {
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\"snippet\":\"{}\",\
         \"waived\":{},\"message\":\"{}\"}}",
        json_escape(v.rule),
        json_escape(&v.file),
        v.line,
        v.col,
        json_escape(&v.snippet),
        v.waived,
        json_escape(&v.message)
    )
}

/// A GitHub Actions workflow annotation (`::error file=…`). Newlines in
/// the message are `%0A`-encoded per the workflow-command spec. The
/// annotation carries the full column range (`col`/`endColumn`) and
/// repeats the rule name inside the message body — the `title`
/// property is dropped by some renderers (e.g. the PR files tab), so
/// the rule must survive in the message itself.
pub fn github_annotation(v: &Violation) -> String {
    let message = format!("[{}] {}", v.rule, v.message)
        .replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A");
    format!(
        "::error file={},line={},endLine={},col={},endColumn={},title=xtask lint ({})::{}",
        v.file, v.line, v.line, v.col, v.end_col, v.rule, message
    )
}

/// Output format for the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
    Github,
}

impl Format {
    fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "github" => Some(Format::Github),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

/// CLI entry point; returns the process exit code. `args` excludes the
/// binary name. All output goes to `out` (the real binary passes
/// stdout).
pub fn run_with(args: &[String], out: &mut dyn Write) -> i32 {
    fn fail(out: &mut dyn Write, message: String) -> i32 {
        let _ = writeln!(out, "xtask lint: {message}");
        2
    }
    let mut args = args.iter();
    let mut callgraph_cmd = false;
    match args.next().map(String::as_str) {
        Some("lint") => {}
        Some("callgraph") => callgraph_cmd = true,
        Some("bench-compare") => {
            let rest: Vec<String> = args.cloned().collect();
            return bench_compare::run(&rest, out);
        }
        other => {
            if let Some(command) = other {
                let _ = writeln!(out, "unknown command `{command}`");
            }
            let _ = writeln!(
                out,
                "usage: cargo run -p xtask -- lint [--root <dir>] [--config <lint.toml>] \
                 [--format text|json|github] [--changed]\n       \
                 cargo run -p xtask -- callgraph [--root <dir>] [--config <lint.toml>] \
                 [--format dot|json]\n       \
                 cargo run -p xtask -- bench-compare <baseline.json> <new.json> \
                 [--tolerance <pct>]"
            );
            return 2;
        }
    }
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut format_arg: Option<String> = None;
    let mut changed_only = false;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--changed" => changed_only = true,
            "--root" | "--config" | "--format" => {
                let Some(v) = args.next() else {
                    return fail(out, format!("option `{flag}` needs a value"));
                };
                match flag.as_str() {
                    "--root" => root = Some(PathBuf::from(v)),
                    "--config" => config_path = Some(PathBuf::from(v)),
                    _ => format_arg = Some(v.clone()),
                }
            }
            _ => return fail(out, format!("unknown or incomplete option `{flag}`")),
        }
    }
    let root = root.unwrap_or_else(workspace_root);
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let config_text = match std::fs::read_to_string(&config_path) {
        Ok(text) => text,
        Err(e) => return fail(out, format!("cannot read {}: {e}", config_path.display())),
    };
    let config = match parse_config(&config_text) {
        Ok(config) => config,
        Err(e) => return fail(out, e),
    };
    if let Err(e) = validate_config_paths(&config, &root) {
        return fail(out, e);
    }
    if callgraph_cmd {
        let format = format_arg.as_deref().unwrap_or("dot");
        if format != "dot" && format != "json" {
            return fail(
                out,
                format!("unknown format `{format}` (expected dot or json)"),
            );
        }
        let ws = match build_workspace(&root, &config) {
            Ok(ws) => ws,
            Err(e) => return fail(out, e),
        };
        let graph = callgraph::build(&ws);
        let text = if format == "dot" {
            callgraph::to_dot(&ws, &graph)
        } else {
            callgraph::to_json(&ws, &graph)
        };
        let _ = writeln!(out, "{text}");
        return 0;
    }
    let format = match format_arg.as_deref() {
        None => Format::Text,
        Some(v) => match Format::parse(v) {
            Some(f) => f,
            None => {
                return fail(
                    out,
                    format!("unknown format `{v}` (expected text, json or github)"),
                )
            }
        },
    };
    let changed_list = if changed_only {
        changed_files(&root)
    } else {
        None
    };
    if changed_only && changed_list.is_none() && format == Format::Text {
        let _ = writeln!(
            out,
            "xtask lint: --changed: not a git checkout (or git unavailable); running full lint"
        );
    }
    let violations = match lint_tree_filtered(&root, &config, changed_list.as_deref()) {
        Ok(violations) => violations,
        Err(e) => return fail(out, e),
    };
    let active: Vec<&Violation> = violations.iter().filter(|v| v.is_active()).collect();
    let waived_count = violations.len().saturating_sub(active.len());
    match format {
        Format::Text => {
            for violation in &active {
                let _ = writeln!(out, "{violation}");
            }
            if active.is_empty() {
                let _ = writeln!(out, "xtask lint: clean ({waived_count} waived)");
            } else {
                let _ = writeln!(
                    out,
                    "xtask lint: {} violation(s) ({waived_count} waived)",
                    active.len()
                );
            }
        }
        Format::Json => {
            // Machine-readable: every finding, waived included, one
            // record per line; no summary line.
            for violation in &violations {
                let _ = writeln!(out, "{}", json_record(violation));
            }
        }
        Format::Github => {
            for violation in &active {
                let _ = writeln!(out, "{}", github_annotation(violation));
            }
            let _ = writeln!(
                out,
                "xtask lint: {} violation(s), {waived_count} waived",
                active.len()
            );
        }
    }
    i32::from(!active.is_empty())
}

/// CLI entry point writing to stdout.
pub fn run(args: &[String]) -> i32 {
    let mut stdout = std::io::stdout();
    run_with(args, &mut stdout)
}

/// Workspace-relative paths of files changed in the enclosing git
/// checkout (unstaged + staged), for `lint --changed`. `None` when the
/// root is not inside a work tree or git is unavailable — the caller
/// falls back to a full run.
pub fn changed_files(root: &Path) -> Option<Vec<String>> {
    fn git(root: &Path, args: &[&str]) -> Option<String> {
        let out = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        Some(String::from_utf8_lossy(&out.stdout).into_owned())
    }
    // Paths come back relative to the repository toplevel; the
    // workspace root may sit deeper, so strip its prefix.
    let prefix = git(root, &["rev-parse", "--show-prefix"])?;
    let prefix = prefix.trim();
    let mut files = std::collections::BTreeSet::new();
    for extra in [None, Some("--cached")] {
        let mut args = vec!["diff", "--name-only"];
        if let Some(extra) = extra {
            args.push(extra);
        }
        let listing = git(root, &args)?;
        for line in listing.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rel = if prefix.is_empty() {
                line
            } else {
                match line.strip_prefix(prefix) {
                    Some(rest) => rest,
                    None => continue, // changed outside the workspace
                }
            };
            files.insert(rel.to_string());
        }
    }
    Some(files.into_iter().collect())
}

/// The workspace root, two levels above this crate's manifest.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) => root.to_path_buf(),
        None => manifest,
    }
}
