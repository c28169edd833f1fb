//! Guarded-field consistency analysis.
//!
//! A field that is *sometimes* read or written under a mutex guard and
//! *sometimes* bare is the classic shape of a latent data race — in this
//! workspace's hand-rolled safe-Rust sync layer it cannot be UB, but it
//! is exactly the inconsistency that turns into lost wakeups and stale
//! reads once the code runs on real threads. This pass classifies every
//! struct-field access in library code as **guarded** (a tracked guard
//! from the lock-order pass is live at the access point, or the access
//! goes through a guard binding itself) or **bare**, and reports fields
//! that are accessed both ways from code reachable from a thread root
//! (`thread::spawn`, `thread::scope`, or a `.spawn(…)` builder) under
//! the zero-tolerance `race-guarded-field` rule, naming both sites.
//!
//! Exemptions, tuned so the checker is quiet on intentional shapes:
//!
//! * bare accesses in `&mut self` / owned-`self` methods are exempt —
//!   an exclusive borrow cannot race;
//! * accesses that immediately enter a synchronization primitive
//!   (`.lock()`, `.wait()`, `.notify_all()`, atomics, channels,
//!   `.clone()` of a shared handle) are not data accesses;
//! * field identity is `(crate, field name)`, the same coarseness as
//!   lock identity — all instances of a field class share one verdict.
//!
//! Suppression uses the ordinary annotation grammar on the bare site,
//! with `race-guarded-field` as the rule: `// lint:allow(<rule>) -- <reason>`.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::flow::{EvKind, Flow};
use crate::model::{Receiver, WorkspaceModel};
use crate::rules::RawFinding;

/// Methods that make a field access a synchronization operation rather
/// than a data access: the primitive serializes internally.
const SYNC_METHODS: &[&str] = &[
    "lock",
    "read",
    "write",
    "wait",
    "wait_timeout",
    "notify_one",
    "notify_all",
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
    "clone",
    "send",
    "recv",
    "try_send",
    "try_recv",
];

/// One classified field access.
struct Access {
    /// Index of the enclosing function.
    item: usize,
    line: u32,
    /// Lock id live at a guarded access (`None` = bare).
    lock: Option<String>,
}

/// Run the guarded-field pass; findings are keyed by file index.
pub fn race_findings(w: &WorkspaceModel, flow: &Flow) -> Vec<(usize, RawFinding)> {
    let fields: BTreeSet<(&str, &str)> = flow
        .fields
        .iter()
        .map(|d| (d.krate.as_str(), d.name.as_str()))
        .collect();

    // Classify every data access; collect the thread roots.
    let mut accesses: BTreeMap<(&str, &str), Vec<Access>> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (ii, f, evs) in flow.scanned() {
        if evs.iter().any(|ev| matches!(ev.kind, EvKind::Spawn)) {
            queue.push_back(ii);
        }
        for ev in evs {
            let EvKind::Field {
                name,
                via_guard,
                then,
            } = &ev.kind
            else {
                continue;
            };
            // `x.f.sync_op(…)` is a synchronization op, not data.
            let sync = then.as_deref().is_some_and(|m| SYNC_METHODS.contains(&m));
            let key = (f.krate.as_str(), name.as_str());
            if sync || !fields.contains(&key) {
                continue;
            }
            let lock = via_guard
                .clone()
                .or_else(|| ev.held.last().map(|(id, _)| id.clone()));
            if lock.is_some() || f.receiver == Receiver::Shared {
                accesses.entry(key).or_default().push(Access {
                    item: ii,
                    line: ev.line,
                    lock,
                });
            }
        }
    }

    // Thread-reachable set: the roots plus everything they call,
    // transitively, over the shared call graph.
    let mut mt: BTreeSet<usize> = queue.iter().copied().collect();
    while let Some(ii) = queue.pop_front() {
        for callee in flow.callees(ii) {
            if mt.insert(callee) {
                queue.push_back(callee);
            }
        }
    }

    let mut findings: Vec<(usize, RawFinding)> = Vec::new();
    for ((krate, field), accs) in &accesses {
        let first = |guarded: bool| {
            accs.iter()
                .filter(|a| a.lock.is_some() == guarded && mt.contains(&a.item))
                .min_by_key(|a| (flow.items[a.item].file, a.line))
        };
        let (Some(g), Some(b)) = (first(true), first(false)) else {
            continue;
        };
        let (gf, bf) = (&flow.items[g.item], &flow.items[b.item]);
        findings.push((
            bf.file,
            RawFinding {
                line: b.line,
                rule: "race-guarded-field",
                message: format!(
                    "field `{krate}::{field}` accessed bare in `{}` but under guard on \
                     `{}` at {}:{} in `{}`; both are reachable from thread spawn sites — \
                     take the lock here too, or annotate \
                     `lint:allow(race-guarded-field) -- <reason>`",
                    bf.name,
                    g.lock.as_deref().unwrap_or("?"),
                    w.files[gf.file].model.rel,
                    g.line,
                    gf.name,
                ),
            },
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkspaceModel;

    fn findings(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let w = WorkspaceModel::from_sources(files);
        race_findings(&w, &Flow::build(&w))
            .into_iter()
            .map(|(fi, f)| (w.files[fi].model.rel.clone(), f.line, f.message))
            .collect()
    }

    const STRUCT: &str = "pub struct S { state: Mutex<u64>, count: u64 }\n";

    #[test]
    fn mixed_guarded_and_bare_access_is_reported() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn reader(&self) -> u64 {{\n    self.count\n}}\n\
             pub fn run(&self) {{\n    thread::scope(|s| {{\n        \
             self.writer();\n        self.reader();\n    }});\n}}\n}}\n"
        );
        let f = findings(&[("crates/mplite/src/r.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`mplite::count`"), "{}", f[0].2);
        assert!(f[0].2.contains("bare in `reader`"), "{}", f[0].2);
        assert!(f[0].2.contains("in `writer`"), "{}", f[0].2);
    }

    #[test]
    fn single_threaded_mix_is_silent() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn reader(&self) -> u64 {{\n    self.count\n}}\n}}\n"
        );
        assert!(findings(&[("crates/mplite/src/r.rs", &src)]).is_empty());
    }

    #[test]
    fn exclusive_receiver_bare_access_is_exempt() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn setup(&mut self) {{\n    self.count = 0;\n}}\n\
             pub fn run(&self) {{\n    thread::scope(|s| {{\n        \
             self.writer();\n        helper();\n    }});\n}}\n}}\n\
             fn helper() {{}}\n"
        );
        assert!(findings(&[("crates/mplite/src/r.rs", &src)]).is_empty());
    }

    #[test]
    fn guard_projected_access_counts_as_guarded() {
        // Accessing the data *through* the guard binding is the guarded
        // side; the bare side still trips the rule.
        let src = "pub struct Inner { count: u64 }\n\
                   pub struct S { state: Mutex<Inner> }\n\
                   impl S {\n\
                   pub fn writer(&self) {\n    let g = self.state.lock();\n    g.count;\n}\n\
                   pub fn reader(&self, inner: &Inner) {\n    self.peek(inner);\n}\n\
                   fn peek(&self, inner: &Inner) -> u64 {\n    inner.count\n}\n\
                   pub fn run(&self) {\n    thread::spawn(|| {});\n    self.writer();\n}\n}\n";
        // `inner.count` is not a self/guard access, so only the guarded
        // side exists: silent.
        assert!(findings(&[("crates/mplite/src/r.rs", src)]).is_empty());
    }

    #[test]
    fn condvar_and_atomic_style_accesses_are_exempt() {
        let src = "pub struct S { state: Mutex<u64>, cv: Condvar, hits: AtomicU64 }\n\
                   impl S {\n\
                   pub fn sleep(&self) {\n    let mut g = self.state.lock();\n    \
                   self.cv.wait(&mut g);\n}\n\
                   pub fn wake(&self) {\n    self.hits.fetch_add(1, Relaxed);\n    \
                   self.cv.notify_all();\n}\n\
                   pub fn run(&self) {\n    thread::scope(|s| {\n        \
                   self.sleep();\n        self.wake();\n    });\n}\n}\n";
        assert!(findings(&[("crates/mplite/src/r.rs", src)]).is_empty());
    }

    #[test]
    fn cross_file_pair_is_reported_once_at_the_bare_site() {
        let a = "pub struct S { state: Mutex<u64>, count: u64 }\n\
                 impl S {\n\
                 pub fn writer(&self) {\n    let g = self.state.lock();\n    self.count;\n}\n\
                 pub fn run(&self) {\n    thread::scope(|s| {\n        \
                 self.writer();\n        self.reader();\n    });\n}\n}\n";
        let b = "impl S {\n    pub fn reader(&self) -> u64 {\n        self.count\n    }\n}\n";
        let f = findings(&[
            ("crates/mplite/src/r_a.rs", a),
            ("crates/mplite/src/r_b.rs", b),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].0, "crates/mplite/src/r_b.rs");
        assert!(f[0].2.contains("crates/mplite/src/r_a.rs:5"), "{}", f[0].2);
    }

    #[test]
    fn spawn_reachability_propagates_through_calls() {
        let src = format!(
            "{STRUCT}impl S {{\n\
             pub fn writer(&self) {{\n    let g = self.state.lock();\n    self.count;\n}}\n\
             pub fn reader(&self) -> u64 {{\n    self.count\n}}\n\
             fn stage(&self) {{\n    self.writer();\n    self.reader();\n}}\n\
             pub fn run(&self) {{\n    thread::spawn(move || {{}});\n    self.stage();\n}}\n}}\n"
        );
        let f = findings(&[("crates/mplite/src/r.rs", &src)]);
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
