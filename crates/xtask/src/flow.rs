//! The one function-body walk and the one call graph.
//!
//! The lock pass needs three facts about a function body: which guards
//! are live where, what it blocks on, and what it calls.
//! [`Flow::build`] walks every governed body exactly once into one
//! event stream ([`Ev`]) and resolves every call site under one rule
//! (`Index::resolve`); the pass only consumes events.
//!
//! **Lock identity** is syntactic: the field or binding the guard came
//! from (`self.state.lock()` → `state`), qualified by crate; a bare
//! `self.lock()` uses the `impl` type. Deliberately coarse — every
//! `RecvSlot.state` is one node — which over-approximates per instance
//! but is exactly right for order discipline, where all instances of a
//! field class must be ranked consistently anyway.
//!
//! **Guard liveness**: a guard bound by `let g = x.lock();` lives until
//! its scope closes or `drop(g)`; any other acquisition is a temporary
//! that dies at the end of its statement.
//!
//! **Call resolution** stays inside one crate and is by shape:
//! `Type::f(` / `Self::f(` resolves exactly to that type's `f`; `.m(`
//! resolves to every *method* named `m` that takes `self` (a
//! receiver-less associated function cannot be called that way); `f(`
//! and `module::f(` resolve to *free functions* named `f` only. A call
//! sharing the enclosing function's name is almost always delegation to
//! an inner object (`fn events() { self.lock().events() }`) and is not a
//! call edge.
//! Blocking primitives are events of their own kind, never call edges.

use std::collections::BTreeMap;

use crate::lex::{Tok, TokKind};
use crate::model::{fn_items, FnItem, WorkspaceModel};

/// Files implementing the lock primitives themselves: their internals
/// (poison recovery, condvar re-lock) are not acquisition *sites*.
const PRIMITIVE_FILES: &[&str] = &["crates/mplite/src/sync.rs"];

/// Blocking primitives a guard must never be held across.
const BLOCKING: &[&str] = &[
    "wait",
    "read_exact_deadline",
    "write_all_deadline",
    "accept_deadline",
];

/// Keywords that look like calls when followed by `(` but are not.
const NON_CALL: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "fn", "pub", "use", "impl",
    "move", "ref", "mut", "where", "unsafe", "dyn", "else", "enum", "struct", "trait", "type",
    "const", "static", "continue", "break", "self", "Self", "super", "crate", "drop", "lock",
];

/// Guards live at an event: `(lock id, acquisition line)`, oldest first.
pub type Held = Vec<(String, u32)>;

/// What a call site names, by shape.
#[derive(Clone, Copy)]
enum Callee<'a> {
    /// `Type::f(` / `Self::f(`.
    Of(&'a str),
    /// `.m(`.
    Method,
    /// `f(` / `module::f(`.
    Free,
}

/// One thing a function body does.
#[derive(Debug)]
pub enum EvKind {
    /// `<expr>.lock()`; `held` is the snapshot *before* it.
    Acquire { id: String },
    /// A blocking primitive; `held` excludes guards passed *into* the
    /// call (the condvar idiom `cv.wait(&mut guard)`).
    Block { name: String },
    /// A call by `name`, resolved to item indices.
    Call { name: String, targets: Vec<usize> },
}

/// An event with its position and the guards live at that point.
#[derive(Debug)]
pub struct Ev {
    /// What happened.
    pub kind: EvKind,
    /// 1-based line.
    pub line: u32,
    /// Guards live at the event.
    pub held: Held,
}

/// Every function of a workspace, its event stream, and the resolved
/// call graph (the `targets` of its `Call` events).
pub struct Flow {
    /// All function items, in file order.
    pub items: Vec<FnItem>,
    /// Event stream per item; `None` for items out of scope (unit
    /// tests, the lock primitives).
    pub events: Vec<Option<Vec<Ev>>>,
}

impl Flow {
    /// Walk every governed function body once and resolve its calls.
    pub fn build(w: &WorkspaceModel) -> Flow {
        let items = fn_items(w);
        let scoped: Vec<bool> = items
            .iter()
            .map(|f| {
                let model = &w.files[f.file].model;
                !PRIMITIVE_FILES.contains(&model.rel.as_str()) && !model.masked(f.line)
            })
            .collect();
        let mut index = Index {
            items: &items,
            by_name: BTreeMap::new(),
        };
        for (ii, f) in items.iter().enumerate() {
            if scoped[ii] {
                let key = (f.krate.as_str(), f.name.as_str());
                index.by_name.entry(key).or_default().push(ii);
            }
        }
        let events = items
            .iter()
            .zip(&scoped)
            .map(|(f, &s)| s.then(|| walk_body(w, f, &index)))
            .collect();
        Flow { events, items }
    }

    /// In-scope items with their event streams.
    pub fn scanned(&self) -> impl Iterator<Item = (usize, &FnItem, &[Ev])> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(ii, evs)| Some((ii, &self.items[ii], evs.as_deref()?)))
    }

    /// Canonical display id of an item: methods are qualified by their
    /// `impl` type so `Crc32c::new` and `FrameDecoder::new` stay distinct.
    pub fn canon(&self, ii: usize) -> String {
        let f = &self.items[ii];
        match &f.self_type {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Resolved callees of an item, in event order.
    pub fn callees(&self, ii: usize) -> impl Iterator<Item = usize> + '_ {
        self.events[ii]
            .iter()
            .flatten()
            .filter_map(|ev| match &ev.kind {
                EvKind::Call { targets, .. } => Some(targets.iter().copied()),
                _ => None,
            })
            .flatten()
    }
}

/// The governed functions of a workspace by `(crate, bare name)`.
struct Index<'a> {
    items: &'a [FnItem],
    by_name: BTreeMap<(&'a str, &'a str), Vec<usize>>,
}

impl Index<'_> {
    /// The one call-resolution rule (see the module docs).
    fn resolve(&self, krate: &str, callee: Callee<'_>, name: &str) -> Vec<usize> {
        let same_name = self.by_name.get(&(krate, name)).into_iter().flatten();
        same_name
            .copied()
            .filter(|&ii| match (callee, self.items[ii].self_type.as_deref()) {
                (Callee::Of(t), owner) => owner == Some(t),
                (Callee::Method, owner) => owner.is_some() && self.items[ii].takes_self,
                (Callee::Free, owner) => owner.is_none(),
            })
            .collect()
    }
}

/// A live guard during the body walk.
struct Guard {
    id: String,
    line: u32,
    /// Binding name (`None` = temporary).
    name: Option<String>,
    /// Brace depth of the binding statement; the guard dies when a `}`
    /// brings the depth below this.
    depth: u32,
    /// Nesting level of the statement; a temporary dies at the first
    /// `;` at or below it.
    nest: u32,
}

/// Walk one function body into its event stream.
fn walk_body(w: &WorkspaceModel, f: &FnItem, index: &Index<'_>) -> Vec<Ev> {
    let model = &w.files[f.file].model;
    let toks = &model.toks;
    let (open, close) = f.body;

    // Token ranges of *other* functions nested inside this body.
    let nested: Vec<(usize, usize)> = index
        .items
        .iter()
        .filter(|g| g.file == f.file && g.body.0 > open && g.body.1 < close)
        .map(|g| g.body)
        .collect();

    let mut evs: Vec<Ev> = Vec::new();
    let mut held: Vec<Guard> = Vec::new();
    let snapshot =
        |held: &[Guard]| -> Held { held.iter().map(|g| (g.id.clone(), g.line)).collect() };
    let mut stmt_start = open + 1;
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, end)) = nested.iter().find(|(s, _)| *s == i) {
            i = end + 1;
            stmt_start = i;
            continue;
        }
        let t = &toks[i];

        // Releases first.
        if t.kind == TokKind::Close && t.text == "}" {
            held.retain(|g| t.depth >= g.depth);
        }
        if t.is_punct(";") {
            held.retain(|g| g.name.is_some() || t.nest > g.nest);
        }

        // Skip nested `fn` headers (their bodies are range-skipped).
        if t.is_ident("fn") {
            while i < close
                && !(toks[i].is_punct(";")
                    || (toks[i].kind == TokKind::Open && toks[i].text == "{"))
            {
                i += 1;
            }
            continue;
        }

        if t.kind == TokKind::Ident && !model.masked(t.line) {
            let prev = |back: usize| i.checked_sub(back).map(|j| &toks[j]);
            let prev_dot = prev(1).is_some_and(|p| p.is_punct("."));
            let prev_path = prev(1).is_some_and(|p| p.is_punct("::"));
            let next = |fwd: usize| toks.get(i + fwd);
            let next_open = next(1).is_some_and(|n| n.is_punct("("));
            let mut emit = |kind: EvKind, held: Held| {
                evs.push(Ev {
                    kind,
                    line: t.line,
                    held,
                });
            };

            // `drop(g)` releases a bound guard.
            if t.text == "drop"
                && next_open
                && next(2).is_some_and(|n| n.kind == TokKind::Ident)
                && next(3).is_some_and(|n| n.is_punct(")"))
            {
                held.retain(|g| g.name.as_deref() != Some(&toks[i + 2].text));
                i += 4;
                continue;
            }

            // Acquisition: `<expr>.lock()`.
            if t.text == "lock" && prev_dot && next_open && next(2).is_some_and(|n| n.is_punct(")"))
            {
                let base = match prev(2) {
                    Some(p) if p.is_ident("self") => f.self_type.as_deref().unwrap_or(&f.name),
                    Some(p) if p.kind == TokKind::Ident => p.text.as_str(),
                    _ => "<anon>",
                };
                let id = format!("{}::{base}", f.krate);
                emit(EvKind::Acquire { id: id.clone() }, snapshot(&held));
                // A guard is *bound* only when the `.lock()` call is the
                // whole initializer (`let g = x.lock();`); with further
                // chained calls (`let n = x.lock().len();`) the guard is
                // a temporary that dies at the statement's end.
                let whole_init = next(3).is_some_and(|n| n.is_punct(";"));
                let (name, depth, nest) = binding_of(toks, stmt_start, i, whole_init);
                held.push(Guard {
                    id,
                    line: t.line,
                    name,
                    depth,
                    nest,
                });
                i += 3;
                continue;
            }

            // Blocking primitives. Recorded even with nothing held: a
            // caller holding guards across a call to this function must
            // still be caught transitively.
            if next_open && BLOCKING.contains(&t.text.as_str()) {
                let args = arg_idents(toks, i + 1, close);
                let held_now = held
                    .iter()
                    .filter(|g| g.name.as_ref().is_none_or(|n| !args.contains(&n.as_str())))
                    .map(|g| (g.id.clone(), g.line))
                    .collect();
                let name = t.text.clone();
                emit(EvKind::Block { name }, held_now);
                i += 1;
                continue;
            }

            // Calls.
            if next_open
                && !NON_CALL.contains(&t.text.as_str())
                && t.text != f.name
                && !prev(1).is_some_and(|p| p.is_ident("fn"))
            {
                let callee = if prev_dot {
                    Some(Callee::Method)
                } else if !prev_path {
                    Some(Callee::Free)
                } else {
                    match prev(2).filter(|h| h.kind == TokKind::Ident) {
                        Some(h) if h.text == "Self" => f.self_type.as_deref().map(Callee::Of),
                        Some(h) if h.text.starts_with(char::is_uppercase) => {
                            Some(Callee::Of(&h.text))
                        }
                        Some(_) => Some(Callee::Free),
                        None => None, // `<T as X>::f(`, `Vec::<u8>::f(`
                    }
                };
                let targets = callee.map_or_else(Vec::new, |c| index.resolve(&f.krate, c, &t.text));
                let name = t.text.clone();
                emit(EvKind::Call { name, targets }, snapshot(&held));
            }
        }

        if t.is_punct(";") || t.is_punct("=>") || t.text == "{" || t.text == "}" {
            stmt_start = i + 1;
        }
        i += 1;
    }
    evs
}

/// Was the acquisition at `at` bound by its statement (`let [mut] name =`)?
/// Returns `(binding name, statement depth, statement nest)`.
fn binding_of(
    toks: &[Tok],
    stmt_start: usize,
    at: usize,
    whole_init: bool,
) -> (Option<String>, u32, u32) {
    let stmt = &toks[stmt_start.min(at)..at];
    let depth = stmt.first().map_or(toks[at].depth, |t| t.depth);
    let nest = stmt.first().map_or(toks[at].nest, |t| t.nest);
    let mut it = stmt.iter();
    if whole_init && it.next().is_some_and(|t| t.is_ident("let")) {
        let mut t = it.next();
        if t.is_some_and(|t| t.is_ident("mut")) {
            t = it.next();
        }
        if let (Some(name), Some(eq)) = (t, it.next()) {
            if name.kind == TokKind::Ident && eq.is_punct("=") {
                return (Some(name.text.clone()), depth, nest);
            }
        }
    }
    (None, depth, nest)
}

/// Identifiers appearing in a call's argument list; `open_at` is the
/// index of the `(`.
fn arg_idents(toks: &[Tok], open_at: usize, limit: usize) -> Vec<&str> {
    let base = toks[open_at].nest;
    toks[open_at + 1..limit]
        .iter()
        .take_while(|t| !(t.kind == TokKind::Close && t.nest == base))
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical ids of the functions `caller` resolves to.
    fn callees_of(src: &str, caller: &str) -> Vec<String> {
        let w = WorkspaceModel::from_sources(&[("crates/mplite/src/x.rs", src)]);
        let flow = Flow::build(&w);
        let ii = (0..flow.items.len())
            .find(|&ii| flow.canon(ii) == caller)
            .expect("caller exists");
        flow.callees(ii).map(|c| flow.canon(c)).collect()
    }

    #[test]
    fn calls_resolve_by_shape() {
        let src = "pub struct A;\npub struct B;\n\
                   impl A {\n    fn go(&self) {}\n    fn make() {}\n}\n\
                   impl B {\n    fn go(&self) {}\n    fn make() {}\n}\n\
                   fn go() {}\nfn make() {}\n\
                   fn typed() { A::make(); }\n\
                   impl B {\n    fn own(&self) { Self::make(); }\n}\n\
                   fn method(a: &A) { a.go(); }\n\
                   fn free() { go(); util::make(); }\n\
                   fn foreign() { Vec::<u8>::make(); Other::make(); }\n\
                   fn slice(h: &mut [u8]) { h.make(); }\n";
        assert_eq!(callees_of(src, "typed"), ["A::make"]);
        assert_eq!(callees_of(src, "B::own"), ["B::make"]);
        assert_eq!(callees_of(src, "method"), ["A::go", "B::go"]);
        assert_eq!(callees_of(src, "free"), ["go", "make"]);
        assert!(callees_of(src, "foreign").is_empty());
        // `.make(` needs a receiver: `A::make()` / `B::make()` take none,
        // so a foreign method of the same name is not an edge to them.
        assert!(callees_of(src, "slice").is_empty());
    }

    #[test]
    fn blocking_sites_are_not_call_edges() {
        let src = "fn wait() {}\nfn f(cv: &Condvar) { cv.wait(1); }\n";
        assert!(callees_of(src, "f").is_empty());
    }
}
