//! Interprocedural hot-path cost analysis.
//!
//! The paper's central claim is that protocol choice shows up as
//! per-message *software* overhead — allocation, copying, and locking on
//! the critical path. This pass makes "cost on the hot path" a
//! machine-checked property:
//!
//! * Hot entry points are declared in source with a checked marker
//!   comment, `// analyze: hot`, on the `fn` line or directly above it
//!   (doc comments and attributes in between are fine, within a
//!   five-line window). A marker attaching to no governed function is a
//!   zero-tolerance `marker-hygiene` finding.
//! * The shared body walk ([`crate::flow`]) yields every function's
//!   direct **cost events**: heap allocations (`Box::new`, `Vec::new`,
//!   `vec!`, `.to_vec()`, `format!`, `String::from`, and `.clone()` on
//!   receivers not provably `Copy`), lock acquisitions, and blocking
//!   primitives.
//! * Every cost site reachable from a hot entry over the shared call
//!   graph is reported once, with the shortest call chain from the
//!   entry, under the budgeted `hot-cost` rule. A deliberate site is
//!   suppressed with the ordinary annotation grammar, naming `hot-cost`.
//!
//! Known limits (see DESIGN.md "Hot-path cost & race analysis"): call
//! resolution stays within one crate — cross-crate edges and closure
//! bodies scheduled as events are not followed. The inventory it
//! produces is a ratcheted burn-down list, not a proof.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::flow::{governed, EvKind, Flow};
use crate::model::{copy_types, WorkspaceModel};
use crate::rules::RawFinding;

/// A hot marker attaches to the first function opening within this many
/// lines below it (room for doc comments and attributes).
const MARKER_WINDOW: usize = 5;

/// Primitive `Copy` types for the `.clone()` receiver heuristic, plus
/// type constructors that are `Copy` whenever their parameters are.
const COPY_PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char", "Option",
];

/// Is a declared type `Copy` as far as the token stream can tell? Shared
/// references are `Copy`; otherwise every identifier in the type must be
/// a primitive or a workspace type deriving `Copy`.
fn is_copy_ty(ty: &[String], copy: &BTreeSet<String>) -> bool {
    if ty.first().is_some_and(|t| t == "&") && ty.get(1).is_none_or(|t| t != "mut") {
        return true;
    }
    let mut idents = ty
        .iter()
        .filter(|t| t.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
        .peekable();
    idents.peek().is_some()
        && idents.all(|t| COPY_PRIMITIVES.contains(&t.as_str()) || copy.contains(t))
}

/// Lines of one file's comment channel carrying the hot-entry marker.
/// Prose that merely mentions the word "analyze" is ignored: only the
/// exact form `analyze: hot` is a marker.
fn hot_marker_lines(line_comment: &[String]) -> Vec<usize> {
    let is_marker = |comment: &String| {
        comment.match_indices("analyze:").any(|(pos, key)| {
            comment[pos + key.len()..]
                .trim_start()
                .strip_prefix("hot")
                .is_some_and(|tail| {
                    !tail.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                })
        })
    };
    line_comment
        .iter()
        .enumerate()
        .filter(|(_, c)| is_marker(c))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Run the hot-path cost pass; findings are keyed by file index.
pub fn hotpath_findings(w: &WorkspaceModel, flow: &Flow) -> Vec<(usize, RawFinding)> {
    let copy = copy_types(w);
    // Field name -> is every declaration of that name a `Copy` type?
    let mut field_copy: BTreeMap<&str, bool> = BTreeMap::new();
    for fd in &flow.fields {
        let c = is_copy_ty(&fd.ty, &copy);
        field_copy
            .entry(fd.name.as_str())
            .and_modify(|v| *v &= c)
            .or_insert(c);
    }

    let mut findings: Vec<(usize, RawFinding)> = Vec::new();

    // Attach hot markers to functions.
    let mut hot_items: BTreeSet<usize> = BTreeSet::new();
    for (fi, wf) in w.files.iter().enumerate() {
        if !governed(wf) {
            continue;
        }
        for line in hot_marker_lines(&wf.model.line_comment) {
            if wf.model.masked(line as u32) {
                continue;
            }
            let window = line..=line + MARKER_WINDOW;
            let attached = flow
                .items
                .iter()
                .enumerate()
                .filter(|(_, f)| f.file == fi && window.contains(&(f.line as usize)))
                .min_by_key(|(_, f)| f.line);
            match attached {
                Some((ii, _)) if flow.events[ii].is_some() => {
                    hot_items.insert(ii);
                }
                _ => findings.push((
                    fi,
                    RawFinding {
                        line: line as u32,
                        rule: "marker-hygiene",
                        message: "`analyze: hot` marker attaches to no library function; \
                                  place it on the `fn` line or directly above it"
                            .to_string(),
                    },
                )),
            }
        }
    }

    // BFS from every hot entry: best (shortest, then lexicographically
    // smallest) call chain per reachable function. All candidates for a
    // node at depth d are seen before any node of depth d is expanded,
    // so replacing on a smaller equal-length chain is exact.
    let mut chains: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for &entry in &hot_items {
        let mut local: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        local.insert(entry, vec![flow.canon(entry)]);
        let mut queue = VecDeque::from([entry]);
        while let Some(ii) = queue.pop_front() {
            for callee in flow.callees(ii) {
                let mut next = local[&ii].clone();
                next.push(flow.canon(callee));
                let known = local.get(&callee);
                if known.is_some_and(|best| (best.len(), best) <= (next.len(), &next)) {
                    continue;
                }
                if known.is_none() {
                    queue.push_back(callee);
                }
                local.insert(callee, next);
            }
        }
        for (ii, chain) in local {
            match chains.get(&ii) {
                Some(best) if (best.len(), best) <= (chain.len(), &chain) => {}
                _ => {
                    chains.insert(ii, chain);
                }
            }
        }
    }

    // Emit one finding per reachable cost site, deduplicated.
    let mut sites: BTreeMap<(usize, u32, String), &Vec<String>> = BTreeMap::new();
    for (ii, f, evs) in flow.scanned() {
        let Some(chain) = chains.get(&ii) else {
            continue;
        };
        for ev in evs {
            let desc = match &ev.kind {
                // `.clone()` on a field whose declared type is provably
                // `Copy` everywhere it is declared costs nothing.
                EvKind::Alloc {
                    what,
                    recv: Some(r),
                } if what == ".clone()" && field_copy.get(r.as_str()) == Some(&true) => continue,
                EvKind::Alloc { what, .. } => format!("allocation `{what}`"),
                EvKind::Acquire { id } => format!("lock acquisition of `{id}`"),
                EvKind::Block { name } => format!("blocking call `{name}`"),
                _ => continue,
            };
            // A site lies in exactly one body, so its chain is unique.
            sites.insert((f.file, ev.line, desc), chain);
        }
    }
    for ((fi, line, desc), chain) in sites {
        findings.push((
            fi,
            RawFinding {
                line,
                rule: "hot-cost",
                message: format!(
                    "hot-path {desc} reachable from `{}` via {}; hoist it off the hot \
                     path or annotate `lint:allow(hot-cost) -- <reason>`",
                    chain[0],
                    chain.join(" -> ")
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

    fn findings(files: &[(&str, &str)]) -> Vec<(String, u32, &'static str, String)> {
        let w = WorkspaceModel::from_sources(files);
        hotpath_findings(&w, &Flow::build(&w))
            .into_iter()
            .map(|(fi, f)| (w.files[fi].model.rel.clone(), f.line, f.rule, f.message))
            .collect()
    }

    #[test]
    fn direct_allocation_in_hot_fn_is_reported() {
        let src = "// analyze: hot\npub fn step(n: u64) -> Box<u64> {\n    Box::new(n)\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "hot-cost");
        assert_eq!(f[0].1, 3);
        assert!(f[0].3.contains("allocation `Box::new`"), "{}", f[0].3);
        assert!(f[0].3.contains("via step"), "{}", f[0].3);
    }

    #[test]
    fn chain_propagates_and_names_full_path() {
        let src = "// analyze: hot\npub fn entry(&self) {\n    middle();\n}\n\
                   fn middle() {\n    leaf();\n}\n\
                   fn leaf() -> String {\n    format!(\"x\")\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("via entry -> middle -> leaf"), "{}", f[0].3);
    }

    #[test]
    fn unreachable_allocation_is_silent() {
        let src = "// analyze: hot\npub fn entry() {}\n\
                   fn cold() -> Vec<u8> {\n    vec![0]\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unattached_marker_is_flagged() {
        let src = "// analyze: hot\n\nconst X: u32 = 1;\n\n\n\n\n\nfn far() {}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].2, "marker-hygiene");
        assert!(f[0].3.contains("attaches to no"), "{}", f[0].3);
    }

    #[test]
    fn clone_of_copy_field_is_free_but_non_copy_is_not() {
        let src = "#[derive(Clone, Copy)]\npub struct Stamp { t: u64 }\n\
                   pub struct Holder { stamp: Stamp, name: String }\n\
                   impl Holder {\n\
                   // analyze: hot\n    pub fn tick(&self) -> (Stamp, String) {\n        \
                   (self.stamp.clone(), self.name.clone())\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("allocation `.clone()`"), "{}", f[0].3);
    }

    #[test]
    fn lock_and_blocking_sites_are_costs() {
        let src = "// analyze: hot\npub fn pump(&self) {\n    \
                   let g = self.state.lock();\n    drop(g);\n    self.cv.wait(1);\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        let msgs: Vec<_> = f.iter().map(|x| x.3.as_str()).collect();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(
            msgs.iter().any(|m| m.contains("lock acquisition")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("blocking call `wait`")),
            "{msgs:?}"
        );
    }

    #[test]
    fn test_code_and_prose_are_ignored() {
        let src = "//! prose about how the analyze pass works\n\
                   #[cfg(test)]\nmod tests {\n    // analyze: hot\n    fn t() { \
                   let b = Box::new(1); }\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn site_reached_twice_is_reported_once_with_shortest_chain() {
        let src = "// analyze: hot\npub fn fast(&self) {\n    leaf();\n}\n\
                   // analyze: hot\npub fn slow(&self) {\n    middle();\n}\n\
                   fn middle() {\n    leaf();\n}\n\
                   fn leaf() -> Vec<u8> {\n    Vec::new()\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("via fast -> leaf"), "{}", f[0].3);
    }

    #[test]
    fn qualified_call_resolves_exactly_and_skips_name_collisions() {
        let src = "pub struct Cheap { n: u64 }\nimpl Cheap {\n    \
                   pub fn new() -> Cheap { Cheap { n: 0 } }\n}\n\
                   pub struct Costly { v: Vec<u8> }\nimpl Costly {\n    \
                   pub fn new() -> Costly {\n        Costly { v: vec![0] }\n    }\n}\n\
                   // analyze: hot\npub fn entry() {\n    Cheap::new();\n}\n";
        assert!(findings(&[("crates/mplite/src/hp.rs", src)]).is_empty());

        let hit = "pub struct Costly { v: Vec<u8> }\nimpl Costly {\n    \
                   pub fn new() -> Costly {\n        Costly { v: vec![0] }\n    }\n}\n\
                   // analyze: hot\npub fn entry() {\n    Costly::new();\n}\n";
        let f = findings(&[("crates/mplite/src/hp.rs", hit)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].3.contains("via entry -> Costly::new"), "{}", f[0].3);
    }
}
