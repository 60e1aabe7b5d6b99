//! Unit tests for the workspace resolver + call-graph layer: edge
//! resolution (typed receivers, field hops, renames, turbofish),
//! conservative ambiguous fan-out and its std-name suppressions, opaque
//! call detection, effect tables, macro-body invisibility, reachability
//! and the dot/JSON exports.

use serde::Value;
use xtask::callgraph::{self, CallKind, EffectKind};
use xtask::resolve::Workspace;
use xtask::FileAnalysis;

fn ws(files: &[(&str, &str)]) -> Workspace {
    let mut ws = Workspace::default();
    for (rel, src) in files {
        ws.add_file(rel, FileAnalysis::analyze(rel, src).expect("analyze"));
    }
    ws
}

fn fn_id(ws: &Workspace, display: &str) -> usize {
    ws.fns
        .iter()
        .position(|d| d.display() == display)
        .unwrap_or_else(|| panic!("no fn `{display}` in workspace"))
}

/// Direct-edge targets of `from`, as display names.
fn direct_targets(ws: &Workspace, graph: &callgraph::CallGraph, from: &str) -> Vec<String> {
    let mut out: Vec<String> = graph.facts[fn_id(ws, from)]
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Direct)
        .flat_map(|c| c.targets.iter().map(|&t| ws.fns[t].display()))
        .collect();
    out.sort();
    out
}

fn effect_kinds(ws: &Workspace, graph: &callgraph::CallGraph, of: &str) -> Vec<EffectKind> {
    graph.facts[fn_id(ws, of)]
        .effects
        .iter()
        .map(|e| e.kind)
        .collect()
}

// ---- edge resolution ----

#[test]
fn self_method_call_resolves_direct() {
    let w = ws(&[(
        "src/a.rs",
        "pub struct A;\nimpl A {\n    pub fn go(&self) -> u64 { self.step() }\n\
         \x20   fn step(&self) -> u64 { 1 }\n}\n",
    )]);
    let g = callgraph::build(&w);
    assert_eq!(direct_targets(&w, &g, "A::go"), vec!["A::step"]);
}

#[test]
fn one_field_hop_resolves_via_struct_field_type() {
    let w = ws(&[(
        "src/a.rs",
        "pub struct Inner;\nimpl Inner {\n    pub fn step(&self) -> u64 { 9 }\n}\n\
         pub struct Outer {\n    inner: Inner,\n}\n\
         impl Outer {\n    pub fn go(&self) -> u64 { self.inner.step() }\n}\n",
    )]);
    let g = callgraph::build(&w);
    assert_eq!(direct_targets(&w, &g, "Outer::go"), vec!["Inner::step"]);
}

#[test]
fn let_constructor_inference_types_the_local() {
    let w = ws(&[(
        "src/a.rs",
        "pub struct Widget;\nimpl Widget {\n    pub fn make() -> Widget { Widget }\n\
         \x20   pub fn spin(&self) -> u64 { 3 }\n}\n\
         pub fn run() -> u64 {\n    let w = Widget::make();\n    w.spin()\n}\n",
    )]);
    let g = callgraph::build(&w);
    let targets = direct_targets(&w, &g, "run");
    assert!(targets.contains(&"Widget::make".to_string()), "{targets:?}");
    assert!(targets.contains(&"Widget::spin".to_string()), "{targets:?}");
}

#[test]
fn turbofish_free_call_resolves() {
    let w = ws(&[(
        "src/a.rs",
        "fn helper<T>(v: T) -> T { v }\n\
         pub fn entry() -> u64 { helper::<u64>(7) }\n",
    )]);
    let g = callgraph::build(&w);
    assert_eq!(direct_targets(&w, &g, "entry"), vec!["helper"]);
}

#[test]
fn use_rename_resolves_to_original() {
    let w = ws(&[
        (
            "src/a.rs",
            "use crate::b::original as alias;\npub fn entry() -> u64 { alias() }\n",
        ),
        ("src/b.rs", "pub fn original() -> u64 { 1 }\n"),
    ]);
    let g = callgraph::build(&w);
    assert_eq!(direct_targets(&w, &g, "entry"), vec!["original"]);
}

#[test]
fn unknown_receiver_fans_out_to_all_same_name_methods() {
    let w = ws(&[(
        "src/a.rs",
        "pub struct A;\nimpl A {\n    pub fn tick(&self) -> u64 { 1 }\n}\n\
         pub struct B;\nimpl B {\n    pub fn tick(&self) -> u64 { 2 }\n}\n\
         fn pick() -> A { A }\n\
         pub fn entry() -> u64 {\n    let h = pick();\n    h.tick()\n}\n",
    )]);
    let g = callgraph::build(&w);
    let calls = &g.facts[fn_id(&w, "entry")].calls;
    let amb: Vec<_> = calls
        .iter()
        .filter(|c| c.kind == CallKind::Ambiguous)
        .collect();
    assert_eq!(amb.len(), 1, "{calls:?}");
    assert_eq!(amb[0].targets.len(), 2, "{calls:?}");
}

/// STD_AMBIENT names on an unknown receiver stay external — no edges
/// into same-name workspace methods, only the table effect (if any).
#[test]
fn std_ambient_name_on_unknown_receiver_stays_external() {
    let w = ws(&[(
        "src/a.rs",
        "pub struct Ring;\nimpl Ring {\n    pub fn push(&self, _v: u64) {}\n}\n\
         fn buf() -> Vec<u64> { Vec::new() }\n\
         pub fn entry() {\n    let mut b = buf();\n    b.push(1);\n}\n",
    )]);
    let g = callgraph::build(&w);
    // The free call `buf()` keeps its edge; `b.push(1)` must not add one.
    assert_eq!(direct_targets(&w, &g, "entry"), vec!["buf"]);
    let calls = &g.facts[fn_id(&w, "entry")].calls;
    assert!(
        calls.iter().all(|c| c.kind == CallKind::Direct),
        "{calls:?}"
    );
    assert_eq!(effect_kinds(&w, &g, "entry"), vec![EffectKind::Alloc]);
}

/// Effect-table names (`lock`, `wait`, …) on an unknown receiver record
/// the std effect and must NOT manufacture edges into unrelated
/// workspace methods that share the name.
#[test]
fn effect_table_name_on_unknown_receiver_records_effect_without_edges() {
    let w = ws(&[(
        "src/a.rs",
        "pub struct Progress;\nimpl Progress {\n    pub fn lock(&self) -> u64 { 0 }\n}\n\
         fn registry() -> std::sync::Mutex<u64> { std::sync::Mutex::new(0) }\n\
         pub fn entry() {\n    let _g = registry().lock();\n}\n",
    )]);
    let g = callgraph::build(&w);
    // The free call `registry()` keeps its edge; `.lock()` must not wire
    // the graph to `Progress::lock`.
    assert_eq!(direct_targets(&w, &g, "entry"), vec!["registry"]);
    let lock = fn_id(&w, "Progress::lock");
    let calls = &g.facts[fn_id(&w, "entry")].calls;
    assert!(
        calls.iter().all(|c| !c.targets.contains(&lock)),
        "{calls:?}"
    );
    assert_eq!(effect_kinds(&w, &g, "entry"), vec![EffectKind::Lock]);
}

// ---- effects ----

#[test]
fn panic_index_arith_macro_and_path_effects() {
    let w = ws(&[(
        "src/a.rs",
        "pub fn a(v: Option<u64>) -> u64 { v.unwrap() }\n\
         pub fn b(s: &[u64]) -> u64 { s[0] }\n\
         pub fn c(mut x: u64) -> u64 { x += 1; x }\n\
         pub fn d() { panic!(\"boom\") }\n\
         pub fn e() { std::thread::sleep(std::time::Duration::from_millis(1)) }\n\
         pub fn f() { let _ = std::fs::write(\"x\", b\"y\"); }\n",
    )]);
    let g = callgraph::build(&w);
    assert_eq!(effect_kinds(&w, &g, "a"), vec![EffectKind::Panic]);
    assert_eq!(effect_kinds(&w, &g, "b"), vec![EffectKind::Index]);
    assert_eq!(effect_kinds(&w, &g, "c"), vec![EffectKind::Arith]);
    assert_eq!(effect_kinds(&w, &g, "d"), vec![EffectKind::Panic]);
    assert_eq!(effect_kinds(&w, &g, "e"), vec![EffectKind::Lock]);
    assert_eq!(effect_kinds(&w, &g, "f"), vec![EffectKind::Io]);
}

#[test]
fn unsafe_token_marks_the_function() {
    let w = ws(&[(
        "src/a.rs",
        "pub fn safe() -> u64 { 1 }\n\
         pub fn raw(p: *const u64) -> u64 {\n    // SAFETY: test\n    unsafe { *p }\n}\n",
    )]);
    let g = callgraph::build(&w);
    assert!(!g.facts[fn_id(&w, "safe")].has_unsafe);
    assert!(g.facts[fn_id(&w, "raw")].has_unsafe);
}

// ---- opaque calls ----

#[test]
fn indirect_invocations_are_counted_as_opaque() {
    let w = ws(&[(
        "src/a.rs",
        "pub fn entry(f: fn(u64) -> u64, tbl: &[fn(u64) -> u64], v: u64) -> u64 {\n\
         \x20   let a = (f)(v);\n\
         \x20   let b = tbl[0](a);\n\
         \x20   a.wrapping_add(b)\n}\n",
    )]);
    let g = callgraph::build(&w);
    assert_eq!(g.facts[fn_id(&w, "entry")].opaque.len(), 2);
}

/// An attribute's `]` directly before a parenthesised expression is not
/// an indexed call.
#[test]
fn attribute_bracket_is_not_an_opaque_call() {
    let w = ws(&[(
        "src/a.rs",
        "pub fn entry(v: u64) -> u64 {\n\
         \x20   #[allow(unused)]\n\
         \x20   (v, 1u64).0\n}\n",
    )]);
    let g = callgraph::build(&w);
    assert!(g.facts[fn_id(&w, "entry")].opaque.is_empty());
}

// ---- macro bodies are invisible ----

/// `macro_rules!` bodies are token soup to the resolver: nothing inside
/// one registers a definition, an edge or an effect.
#[test]
fn macro_rules_bodies_register_nothing() {
    let w = ws(&[(
        "src/a.rs",
        "macro_rules! boom {\n    () => {\n        fn phantom() { v.unwrap() }\n    };\n}\n\
         pub fn outer() -> u64 { 1 }\n",
    )]);
    assert_eq!(w.fns.len(), 1, "{:?}", w.fns);
    assert_eq!(w.fns[0].display(), "outer");
    let g = callgraph::build(&w);
    assert!(g.facts[0].effects.is_empty());
}

// ---- reachability + blame chain ----

#[test]
fn blame_chain_prints_every_hop_with_location() {
    let w = ws(&[
        ("src/a.rs", "pub fn entry() -> u64 { crate::b::mid() }\n"),
        (
            "src/b.rs",
            "pub fn mid() -> u64 { leaf() }\nfn leaf() -> u64 { 1 }\n",
        ),
    ]);
    let g = callgraph::build(&w);
    let entry = fn_id(&w, "entry");
    let leaf = fn_id(&w, "leaf");
    let reach = callgraph::reachable(&g, entry);
    assert!(reach.set.contains(&leaf));
    assert_eq!(
        callgraph::blame_chain(&w, &reach, entry, leaf),
        "entry (src/a.rs:1) -> mid (src/b.rs:1) -> leaf (src/b.rs:2)"
    );
}

// ---- exports ----

#[test]
fn dot_export_has_nodes_edges_and_unsafe_shape() {
    let w = ws(&[(
        "src/a.rs",
        "pub fn entry() { helper() }\n\
         fn helper() {\n    // SAFETY: test\n    unsafe { std::hint::unreachable_unchecked() }\n}\n",
    )]);
    let g = callgraph::build(&w);
    let dot = callgraph::to_dot(&w, &g);
    assert!(dot.starts_with("digraph callgraph {"), "{dot}");
    assert!(dot.contains("label=\"entry\""), "{dot}");
    assert!(dot.contains("shape=octagon"), "{dot}");
    assert!(dot.contains(" -> "), "{dot}");
    assert!(dot.trim_end().ends_with('}'), "{dot}");
}

#[test]
fn json_export_is_valid_json_with_expected_fields() {
    let w = ws(&[
        (
            "src/a.rs",
            "pub fn entry(v: Option<u64>) -> u64 { crate::b::mid(v) }\n",
        ),
        (
            "src/b.rs",
            "pub fn mid(v: Option<u64>) -> u64 { v.unwrap() }\n",
        ),
    ]);
    let g = callgraph::build(&w);
    let json = callgraph::to_json(&w, &g);
    let value = serde_json::parse(&json).expect("export must be valid JSON");
    let Value::Obj(top) = value else {
        panic!("top level must be an object");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, vec!["fns", "edges"], "{json}");
    let Value::Arr(fns) = &top[0].1 else {
        panic!("fns must be an array");
    };
    assert_eq!(fns.len(), 2, "{json}");
    assert!(json.contains("\"effects\":[\"panic\"]"), "{json}");
    let Value::Arr(edges) = &top[1].1 else {
        panic!("edges must be an array");
    };
    assert_eq!(edges.len(), 1, "{json}");
    assert!(json.contains("\"kind\":\"direct\""), "{json}");
}
