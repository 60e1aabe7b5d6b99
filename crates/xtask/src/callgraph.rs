//! Conservative workspace call graph, effect collection and
//! reachability.
//!
//! For every collected function body this module records:
//!
//! * **Calls** — free calls (`helper(..)`), path calls
//!   (`Type::assoc(..)`, `module::helper(..)`, `Self::..`, turbofish
//!   included) and method calls (`recv.method(..)`), resolved against
//!   the [`Workspace`] indexes. Resolution is *conservative*: a typed
//!   receiver yields precise edges; an unknown receiver with a
//!   workspace-unique name yields edges to **all** same-name candidates
//!   (`Ambiguous`); a name that only exists in std stays external.
//! * **Opaque calls** — syntactically indirect invocations (`(f)(x)`,
//!   `table[i](x)`) that no name-based resolution can see. They are
//!   counted per function and budgeted by the `opaque_call_budget`
//!   rule, so the blind spots of the analysis are themselves measured.
//! * **Effects** — panic-capable constructs (`unwrap`/`expect`,
//!   panicking macros, index expressions, compound arithmetic
//!   assignment) plus calls into a curated std table of allocating,
//!   locking and I/O-performing names. Workspace-resolved calls carry
//!   no intrinsic effect — their bodies are analyzed instead.
//! * **`unsafe`** — whether the body contains a live `unsafe` token.
//!
//! Reachability is a plain BFS over resolved edges with parent
//! pointers, so every diagnostic can print the *call chain* that makes
//! a distant effect a hot-path problem.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::lexer::{is_keyword, TokenKind};
use crate::resolve::Workspace;
use crate::rules::index::index_expr_open;
use crate::tokentree::{Delim, Tree};
use crate::FileAnalysis;

/// Effect categories the purity rule can deny.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectKind {
    Panic,
    Index,
    Arith,
    Lock,
    Alloc,
    Io,
}

impl EffectKind {
    pub fn name(self) -> &'static str {
        match self {
            EffectKind::Panic => "panic",
            EffectKind::Index => "index",
            EffectKind::Arith => "arith",
            EffectKind::Lock => "lock",
            EffectKind::Alloc => "alloc",
            EffectKind::Io => "io",
        }
    }

    pub fn parse(s: &str) -> Option<EffectKind> {
        match s {
            "panic" => Some(EffectKind::Panic),
            "index" => Some(EffectKind::Index),
            "arith" => Some(EffectKind::Arith),
            "lock" => Some(EffectKind::Lock),
            "alloc" => Some(EffectKind::Alloc),
            "io" => Some(EffectKind::Io),
            _ => None,
        }
    }

    pub const ALL: &'static [&'static str] = &["panic", "index", "arith", "lock", "alloc", "io"];
}

/// One effect site inside a function body.
#[derive(Debug, Clone)]
pub struct Effect {
    pub kind: EffectKind,
    /// Token index (in the owning file) the effect anchors to.
    pub token: usize,
    /// Human-readable description, e.g. "`.unwrap()`" or "`buf[...]` indexing".
    pub what: String,
}

/// How a call edge was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// Name + receiver/path type pinned a unique definition set.
    Direct,
    /// Unknown receiver: edges to every same-name workspace method.
    Ambiguous,
}

/// One named call site.
#[derive(Debug, Clone)]
pub struct Call {
    /// Token index of the callee name at the call site.
    pub token: usize,
    pub callee: String,
    /// Resolved workspace definitions (empty for external calls).
    pub targets: Vec<usize>,
    pub kind: CallKind,
}

/// Per-function facts the rules consume.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    pub effects: Vec<Effect>,
    pub calls: Vec<Call>,
    /// Token indices of the `(` of syntactically indirect calls.
    pub opaque: Vec<usize>,
    pub has_unsafe: bool,
}

/// The workspace call graph: facts parallel to `ws.fns`.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub facts: Vec<FnFacts>,
}

// ---------------------------------------------------------------------------
// External effect tables (curated std knowledge)
// ---------------------------------------------------------------------------

/// Method names that panic on the error/None arm. Detected before
/// resolution: no workspace type shadows them.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that unconditionally panic when reached. `assert!` and
/// `debug_assert!` stay allowed — they state contracts.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Unresolved method names that block or lock.
const LOCK_METHODS: &[&str] = &["lock", "wait", "wait_timeout", "recv", "join", "park"];

/// Unresolved method names that may allocate. `.write(`/`.read(` are
/// deliberately absent: on the hot path those are `MaybeUninit`/raw-ptr
/// operations, not I/O or allocation.
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "reserve",
    "extend",
    "push",
    "insert",
];

/// Unresolved method names that perform file/stream I/O.
const IO_METHODS: &[&str] = &[
    "flush",
    "sync_all",
    "sync_data",
    "write_all",
    "write_fmt",
    "read_exact",
    "read_to_end",
    "read_to_string",
];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// I/O macros. `write!`/`writeln!` are absent: on a `fmt::Formatter`
/// they are pure formatting; real sinks are caught via their own paths.
const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];

/// `(qualifier, name)` path calls with a known std effect. A `"*"`
/// name matches any associated call on the qualifier.
const PATH_EFFECTS: &[(&str, &str, EffectKind)] = &[
    ("thread", "sleep", EffectKind::Lock),
    ("thread", "park", EffectKind::Lock),
    ("fs", "*", EffectKind::Io),
    ("File", "*", EffectKind::Io),
    ("OpenOptions", "*", EffectKind::Io),
    ("Box", "new", EffectKind::Alloc),
    ("Vec", "with_capacity", EffectKind::Alloc),
    ("Vec", "from", EffectKind::Alloc),
    ("String", "with_capacity", EffectKind::Alloc),
    ("String", "from", EffectKind::Alloc),
];

/// Method names so pervasive in std that an *unknown* receiver must
/// not produce ambiguous edges into same-name workspace methods —
/// `buf.write(..)`, `it.next()`, `v.len()` on an untyped local would
/// otherwise wire the graph to every `write`/`next`/`len` in the tree.
/// Typed receivers bypass this list entirely, so real workspace calls
/// (`lane.queue.push(..)` with `queue: Arc<SpscRing<_>>`) keep their
/// precise edges.
const STD_AMBIENT: &[&str] = &[
    "new", "default", "clone", "len", "is_empty", "get", "get_mut", "push", "pop", "insert",
    "remove", "iter", "iter_mut", "next", "write", "read", "load", "store", "swap", "drop", "fmt",
    "eq", "cmp", "hash", "from", "into", "as_ref", "as_mut", "min", "max", "take", "map", "flush",
    "send", "set", "add", "inc", "record", "fill", "contains", "clear",
];

fn method_effect(name: &str) -> Option<EffectKind> {
    if PANIC_METHODS.contains(&name) {
        Some(EffectKind::Panic)
    } else if LOCK_METHODS.contains(&name) {
        Some(EffectKind::Lock)
    } else if ALLOC_METHODS.contains(&name) {
        Some(EffectKind::Alloc)
    } else if IO_METHODS.contains(&name) {
        Some(EffectKind::Io)
    } else {
        None
    }
}

fn macro_effect(name: &str) -> Option<EffectKind> {
    if PANIC_MACROS.contains(&name) {
        Some(EffectKind::Panic)
    } else if ALLOC_MACROS.contains(&name) {
        Some(EffectKind::Alloc)
    } else if IO_MACROS.contains(&name) {
        Some(EffectKind::Io)
    } else {
        None
    }
}

fn path_effect(qualifier: &str, name: &str) -> Option<EffectKind> {
    PATH_EFFECTS
        .iter()
        .find(|(q, n, _)| *q == qualifier && (*n == "*" || *n == name))
        .map(|(_, _, k)| *k)
}

// ---------------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------------

/// Build the call graph for a resolved workspace.
pub fn build(ws: &Workspace) -> CallGraph {
    let mut facts = Vec::with_capacity(ws.fns.len());
    for def in &ws.fns {
        let fa = &ws.files[def.file].fa;
        let mut f = FnFacts::default();
        if let Some((open, close)) = def.body {
            scan_body(ws, def, fa, open, close, &mut f);
        }
        facts.push(f);
    }
    CallGraph { facts }
}

/// Close-bracket token → open-bracket token, for the attribute guard in
/// opaque-call detection.
fn bracket_closes(trees: &[Tree], out: &mut HashMap<usize, usize>) {
    for tree in trees {
        if let Tree::Group(g) = tree {
            if g.delim == Delim::Bracket {
                out.insert(g.close, g.open);
            }
            bracket_closes(&g.children, out);
        }
    }
}

struct BodyScan<'a> {
    ws: &'a Workspace,
    def: &'a crate::resolve::FnDef,
    fa: &'a FileAnalysis,
    bracket_close_to_open: HashMap<usize, usize>,
}

fn scan_body(
    ws: &Workspace,
    def: &crate::resolve::FnDef,
    fa: &FileAnalysis,
    open: usize,
    close: usize,
    out: &mut FnFacts,
) {
    let Some(start) = fa.code_pos(open) else {
        return;
    };
    let Some(end) = fa.code_pos(close) else {
        return;
    };
    let mut closes = HashMap::new();
    bracket_closes(&fa.root, &mut closes);
    let scan = BodyScan {
        ws,
        def,
        fa,
        bracket_close_to_open: closes,
    };

    let mut pos = start.saturating_add(1);
    while pos < end {
        let Some(tok) = fa.code_tok(pos) else {
            break;
        };
        let token_idx = fa.code[pos];
        if fa.exempt.get(token_idx).copied().unwrap_or(false) {
            pos = pos.saturating_add(1);
            continue;
        }
        match tok.kind {
            TokenKind::Ident if tok.text == "unsafe" => {
                out.has_unsafe = true;
            }
            TokenKind::Punct if tok.text == "." => {
                if let Some(next) = scan.method_site(pos, out) {
                    pos = next;
                    continue;
                }
            }
            TokenKind::Punct if matches!(tok.text.as_str(), "+=" | "-=" | "*=") => {
                out.effects.push(Effect {
                    kind: EffectKind::Arith,
                    token: token_idx,
                    what: format!("compound `{}` arithmetic", tok.text),
                });
            }
            TokenKind::Punct if tok.text == "(" => {
                // Opaque call: `(..)` applied directly to the result of
                // a call or an index — `(f)(x)`, `table[i](x)`.
                if let Some(prev) = pos.checked_sub(1).and_then(|p| fa.code_tok(p)) {
                    let prev_idx = fa.code[pos.saturating_sub(1)];
                    let indirect = match prev.text.as_str() {
                        ")" => true,
                        // An attribute's `]` (`#[inline]`) is not an
                        // indexable expression.
                        "]" => scan
                            .bracket_close_to_open
                            .get(&prev_idx)
                            .is_some_and(|&open| index_expr_open(fa, open).is_some()),
                        _ => false,
                    };
                    if indirect {
                        out.opaque.push(token_idx);
                    }
                }
            }
            TokenKind::Ident | TokenKind::RawIdent if !is_keyword(&tok.text) => {
                if let Some(next) = scan.named_site(pos, out) {
                    pos = next;
                    continue;
                }
            }
            _ => {}
        }
        pos = pos.saturating_add(1);
    }

    // Index-expression effects come from the file-wide bracket index,
    // filtered to this body's token range.
    for &bopen in &fa.bracket_opens {
        if bopen <= open || bopen >= close {
            continue;
        }
        if fa.exempt.get(bopen).copied().unwrap_or(false) {
            continue;
        }
        if let Some(prev) = index_expr_open(fa, bopen) {
            out.effects.push(Effect {
                kind: EffectKind::Index,
                token: bopen,
                what: format!("`{prev}[...]` indexing"),
            });
        }
    }
}

impl BodyScan<'_> {
    fn text(&self, pos: usize) -> &str {
        self.fa.code_tok(pos).map_or("", |t| t.text.as_str())
    }

    fn ident(&self, pos: usize) -> Option<&str> {
        self.fa
            .code_tok(pos)
            .filter(|t| {
                matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent) && !is_keyword(&t.text)
            })
            .map(|t| t.text.as_str())
    }

    /// After the name at `pos`, skip an optional turbofish and return
    /// the position of the `(` if this is a call. `::` `<` … `>` `(`.
    fn call_paren(&self, pos: usize) -> Option<usize> {
        let mut p = pos.saturating_add(1);
        if self.text(p) == "::" && self.text(p.saturating_add(1)) == "<" {
            let mut depth: i64 = 0;
            p = p.saturating_add(1);
            loop {
                match self.text(p) {
                    "<" => depth = depth.saturating_add(1),
                    ">" => depth = depth.saturating_sub(1),
                    "<<" => depth = depth.saturating_add(2),
                    ">>" => depth = depth.saturating_sub(2),
                    "" => return None,
                    _ => {}
                }
                p = p.saturating_add(1);
                if depth <= 0 {
                    break;
                }
            }
        }
        (self.text(p) == "(").then_some(p)
    }

    /// Handle `.name(` method call sites. `pos` is the `.`. Returns the
    /// position to resume scanning from (the `(`), or None if this is
    /// not a call.
    fn method_site(&self, pos: usize, out: &mut FnFacts) -> Option<usize> {
        let name = self.ident(pos.saturating_add(1))?.to_string();
        let paren = self.call_paren(pos.saturating_add(1))?;
        let token_idx = *self.fa.code.get(pos.saturating_add(1))?;

        // `.await`, `.0` etc. never reach here (not idents / no paren).
        if PANIC_METHODS.contains(&name.as_str()) {
            out.effects.push(Effect {
                kind: EffectKind::Panic,
                token: token_idx,
                what: format!("`.{name}()`"),
            });
            return Some(paren);
        }

        let recv = self.receiver_type(pos);
        match recv {
            Some(ty) => {
                let ty = self.ws.resolve_alias(&ty).to_string();
                let key = (ty.clone(), name.clone());
                if let Some(targets) = self.ws.methods_by_type.get(&key) {
                    out.calls.push(Call {
                        token: token_idx,
                        callee: format!("{ty}::{name}"),
                        targets: targets.clone(),
                        kind: CallKind::Direct,
                    });
                } else if !self.ws.types.contains(&ty) {
                    // Known non-workspace receiver (Vec, Mutex, u64…):
                    // external — consult the std effect table.
                    if let Some(kind) = method_effect(&name) {
                        out.effects.push(Effect {
                            kind,
                            token: token_idx,
                            what: format!("`.{name}()`"),
                        });
                    }
                }
                // Workspace type without that method (derived/blanket
                // impls): effect-free by the curated-table rule — the
                // workspace's own derives don't lock or do I/O.
            }
            None => {
                // Effect-table names (`lock`, `wait`, `collect`…) on an
                // unknown receiver are read as the std method they almost
                // always are: record the conservative effect and do NOT
                // fan ambiguous edges out to every same-named workspace
                // method — `registry().lock()` must not manufacture a
                // path through an unrelated `Progress::lock`. STD_AMBIENT
                // names get the same treatment (most carry no effect).
                if STD_AMBIENT.contains(&name.as_str()) || method_effect(&name).is_some() {
                    if let Some(kind) = method_effect(&name) {
                        out.effects.push(Effect {
                            kind,
                            token: token_idx,
                            what: format!("`.{name}()`"),
                        });
                    }
                } else if let Some(targets) = self.ws.methods_by_name.get(&name) {
                    out.calls.push(Call {
                        token: token_idx,
                        callee: name.clone(),
                        targets: targets.clone(),
                        kind: CallKind::Ambiguous,
                    });
                }
            }
        }
        Some(paren)
    }

    /// Resolve the receiver chain ending at the `.` at `pos`:
    /// `self.m(` → impl type; `self.field.m(` → field type;
    /// `local.m(` / `local.field.m(` → declared local type (+hop).
    fn receiver_type(&self, dot: usize) -> Option<String> {
        let base = dot.checked_sub(1)?;
        let base_tok = self.fa.code_tok(base)?;
        if !matches!(base_tok.kind, TokenKind::Ident | TokenKind::RawIdent) {
            return None;
        }
        let base_name = base_tok.text.as_str();
        // One-field hop: `<start>.field.m(` — the token before the base
        // must be a `.` preceded by the chain start.
        let hop = base
            .checked_sub(2)
            .filter(|_| self.text(base.saturating_sub(1)) == ".")
            .and_then(|p| {
                let t = self.fa.code_tok(p)?;
                matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent).then(|| t.text.clone())
            });
        match hop {
            Some(start) => {
                // Longer chains (`a.b.c.m(`) stay unresolved: the hop's
                // own predecessor being another `.` means we only see
                // the middle of the chain — give up rather than guess.
                let before = base.checked_sub(3).map(|p| self.text(p).to_string());
                if before.as_deref() == Some(".") {
                    return None;
                }
                let start_ty = if start == "self" {
                    self.def.self_type.clone()?
                } else {
                    self.def.local_types.get(&start)?.clone()
                };
                let start_ty = self.ws.resolve_alias(&start_ty).to_string();
                self.ws
                    .field_types
                    .get(&(start_ty, base_name.to_string()))
                    .cloned()
            }
            None => {
                if base_name == "self" {
                    self.def.self_type.clone()
                } else {
                    self.def.local_types.get(base_name).cloned()
                }
            }
        }
    }

    /// Handle free and path calls where `pos` is a candidate callee
    /// name: `helper(`, `module::helper(`, `Type::assoc(`, `Self::x(`.
    /// Returns the resume position (the `(`), or None if not a call.
    fn named_site(&self, pos: usize, out: &mut FnFacts) -> Option<usize> {
        let name = self.ident(pos)?.to_string();
        let token_idx = *self.fa.code.get(pos)?;

        // Macro invocation: `name!(..)` / `name![..]` / `name!{..}`.
        if self.text(pos.saturating_add(1)) == "!" {
            let delim = self.text(pos.saturating_add(2));
            if matches!(delim, "(" | "[" | "{") {
                if let Some(kind) = macro_effect(&name) {
                    out.effects.push(Effect {
                        kind,
                        token: token_idx,
                        what: format!("`{name}!`"),
                    });
                }
                return Some(pos.saturating_add(2));
            }
            return None;
        }

        let paren = self.call_paren(pos)?;
        // Skip if this ident is a path segment with more to come
        // (`a::B` where the *next* token is `::` was handled by
        // call_paren returning None unless a turbofish followed) or a
        // declaration (`fn name(`).
        let prev = pos.checked_sub(1).map(|p| self.text(p).to_string());
        match prev.as_deref() {
            Some("fn") | Some(".") => return None, // decl / method (handled at the dot)
            Some("::") => {
                // Path call: find the qualifier before the `::`.
                let qual = pos
                    .checked_sub(2)
                    .and_then(|p| self.fa.code_tok(p))
                    .filter(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
                    .map(|t| t.text.clone());
                let Some(qual) = qual else {
                    // `<T as Trait>::f(` and friends: unresolvable
                    // shape; treat as external with no effect.
                    return Some(paren);
                };
                // `self::helper(` / `crate::helper(` → free-fn lookup.
                if qual == "self" || qual == "crate" || qual == "super" {
                    self.free_call(&name, token_idx, out);
                    return Some(paren);
                }
                let qual_res = if qual == "Self" {
                    match &self.def.self_type {
                        Some(t) => t.clone(),
                        None => return Some(paren),
                    }
                } else {
                    self.ws.resolve_alias(&qual).to_string()
                };
                let key = (qual_res.clone(), name.clone());
                if let Some(targets) = self.ws.methods_by_type.get(&key) {
                    out.calls.push(Call {
                        token: token_idx,
                        callee: format!("{qual_res}::{name}"),
                        targets: targets.clone(),
                        kind: CallKind::Direct,
                    });
                } else if self.ws.types.contains(&qual_res) {
                    // Workspace type, derived/absent assoc fn: external
                    // semantics (e.g. `Foo::default()`).
                    if let Some(kind) = path_effect(&qual_res, &name) {
                        out.effects.push(Effect {
                            kind,
                            token: token_idx,
                            what: format!("`{qual_res}::{name}`"),
                        });
                    }
                } else if let Some(targets) = self.ws.free_by_name.get(&name) {
                    // Module-qualified free fn (`seam::publish(..)`).
                    out.calls.push(Call {
                        token: token_idx,
                        callee: name.clone(),
                        targets: targets.clone(),
                        kind: CallKind::Direct,
                    });
                } else if let Some(kind) = path_effect(&qual_res, &name) {
                    out.effects.push(Effect {
                        kind,
                        token: token_idx,
                        what: format!("`{qual_res}::{name}`"),
                    });
                }
                return Some(paren);
            }
            _ => {}
        }

        self.free_call(&name, token_idx, out);
        Some(paren)
    }

    fn free_call(&self, name: &str, token_idx: usize, out: &mut FnFacts) {
        let resolved = self.ws.resolve_alias(name).to_string();
        if let Some(targets) = self.ws.free_by_name.get(&resolved) {
            out.calls.push(Call {
                token: token_idx,
                callee: resolved,
                targets: targets.clone(),
                kind: CallKind::Direct,
            });
        }
        // Unknown free names (`drop(..)`, tuple-struct constructors,
        // closure parameters shadowing nothing) are external and
        // effect-free by the curated-table rule.
    }
}

// ---------------------------------------------------------------------------
// Reachability
// ---------------------------------------------------------------------------

/// BFS result from one entry point.
#[derive(Debug)]
pub struct Reach {
    /// Every reachable `FnDef` id, entry included.
    pub set: HashSet<usize>,
    /// `parent[f] = (caller, call-site token)` on one shortest chain.
    pub parent: HashMap<usize, (usize, usize)>,
}

/// All functions reachable from `entry` over resolved edges.
pub fn reachable(graph: &CallGraph, entry: usize) -> Reach {
    let mut set = HashSet::new();
    let mut parent = HashMap::new();
    let mut queue = VecDeque::new();
    set.insert(entry);
    queue.push_back(entry);
    while let Some(f) = queue.pop_front() {
        let Some(facts) = graph.facts.get(f) else {
            continue;
        };
        for call in &facts.calls {
            for &t in &call.targets {
                if set.insert(t) {
                    parent.insert(t, (f, call.token));
                    queue.push_back(t);
                }
            }
        }
    }
    Reach { set, parent }
}

/// The call chain `entry -> … -> target` as `Type::fn (file:line)`
/// hops, reconstructed from BFS parent pointers.
pub fn blame_chain(ws: &Workspace, reach: &Reach, entry: usize, target: usize) -> String {
    let mut hops = vec![target];
    let mut cur = target;
    while cur != entry {
        let Some(&(p, _)) = reach.parent.get(&cur) else {
            break;
        };
        hops.push(p);
        cur = p;
        if hops.len() > 64 {
            break; // defensive: malformed parent map
        }
    }
    hops.reverse();
    hops.iter()
        .map(|&f| {
            let def = &ws.fns[f];
            format!(
                "{} ({}:{})",
                def.display(),
                ws.files[def.file].rel,
                def.line
            )
        })
        .collect::<Vec<_>>()
        .join(" -> ")
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Graphviz export: one node per function, solid edges for `Direct`,
/// dashed for `Ambiguous`; nodes with effects list them, unsafe nodes
/// are octagons.
pub fn to_dot(ws: &Workspace, graph: &CallGraph) -> String {
    let mut out = String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box];\n");
    for (i, def) in ws.fns.iter().enumerate() {
        let facts = &graph.facts[i];
        let mut label = def.display();
        let mut kinds: Vec<&str> = facts
            .effects
            .iter()
            .map(|e| e.kind.name())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        kinds.sort_unstable();
        if !kinds.is_empty() {
            label.push_str("\\n[");
            label.push_str(&kinds.join(","));
            label.push(']');
        }
        let shape = if facts.has_unsafe {
            " shape=octagon"
        } else {
            ""
        };
        out.push_str(&format!(
            "  n{i} [label=\"{}\" tooltip=\"{}:{}\"{shape}];\n",
            dot_escape(&label),
            dot_escape(&ws.files[def.file].rel),
            def.line
        ));
    }
    for (i, facts) in graph.facts.iter().enumerate() {
        for call in &facts.calls {
            let style = match call.kind {
                CallKind::Direct => "",
                CallKind::Ambiguous => " [style=dashed]",
            };
            let mut targets: Vec<usize> = call.targets.clone();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                out.push_str(&format!("  n{i} -> n{t}{style};\n"));
            }
        }
    }
    out.push_str("}\n");
    out
}

/// JSON export: one object with `fns` and `edges` arrays, hand-rolled
/// but escaped properly.
pub fn to_json(ws: &Workspace, graph: &CallGraph) -> String {
    let esc = crate::json_escape;
    let mut out = String::from("{\"fns\":[");
    for (i, def) in ws.fns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let facts = &graph.facts[i];
        let mut kinds: Vec<&str> = facts
            .effects
            .iter()
            .map(|e| e.kind.name())
            .collect::<HashSet<_>>()
            .into_iter()
            .collect();
        kinds.sort_unstable();
        let effects = kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"self_type\":{},\"file\":\"{}\",\"line\":{},\
             \"pub\":{},\"unsafe\":{},\"effects\":[{effects}],\"opaque_calls\":{}}}",
            esc(&def.name),
            match &def.self_type {
                Some(t) => format!("\"{}\"", esc(t)),
                None => "null".to_string(),
            },
            esc(&ws.files[def.file].rel),
            def.line,
            def.is_pub,
            facts.has_unsafe,
            facts.opaque.len()
        ));
    }
    out.push_str("],\"edges\":[");
    let mut first = true;
    for (i, facts) in graph.facts.iter().enumerate() {
        for call in &facts.calls {
            let mut targets: Vec<usize> = call.targets.clone();
            targets.sort_unstable();
            targets.dedup();
            for t in targets {
                if !first {
                    out.push(',');
                }
                first = false;
                let kind = match call.kind {
                    CallKind::Direct => "direct",
                    CallKind::Ambiguous => "ambiguous",
                };
                out.push_str(&format!("{{\"from\":{i},\"to\":{t},\"kind\":\"{kind}\"}}"));
            }
        }
    }
    out.push_str("]}");
    out
}
