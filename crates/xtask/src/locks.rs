//! Cross-file lock-order analysis.
//!
//! Consumes the shared body walk ([`crate::flow`]): every `.lock()`
//! acquisition with the guards held before it, every blocking primitive
//! with the guards still held, and every resolved call. Acquisition and
//! blocking summaries propagate across calls to a fixpoint. From the
//! per-function event streams it derives:
//!
//! * the **acquisition-order graph** — an edge `A -> B` whenever lock
//!   `B` is taken (directly or transitively through a call) while `A`
//!   is held. Cycles in this graph are potential deadlocks and are
//!   reported under the `lock-order` rule, naming every acquisition
//!   site on the cycle;
//! * **`lock-across-blocking`** findings — a guard held across a
//!   blocking primitive (`wait`, `read_exact_deadline`,
//!   `write_all_deadline`, `accept_deadline`) stalls every other thread
//!   contending for that lock for the full deadline. The one legitimate
//!   shape, passing the guard *into* `Condvar::wait`, is recognized and
//!   exempt.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::flow::{EvKind, Flow};
use crate::model::WorkspaceModel;

/// An edge in the acquisition-order graph.
struct Edge {
    /// File index of the holding function (where the edge is anchored).
    file: usize,
    /// Line where the second lock is taken from the holder's view
    /// (direct acquisition line, or the call line for transitive edges).
    line: u32,
    /// Line the held guard was acquired (same file as `line`).
    hold_line: u32,
}

/// What a function acquires and blocks on, itself or through callees.
#[derive(Default, Clone)]
struct Summary {
    acquires: BTreeSet<String>,
    blocks: BTreeSet<String>,
}

/// Run the lock-order pass.
pub fn lock_findings(w: &WorkspaceModel, flow: &Flow) -> Vec<Diagnostic> {
    // Per-function summaries, propagated across calls to fixpoint.
    let mut summaries = vec![Summary::default(); flow.items.len()];
    for (ii, _, evs) in flow.scanned() {
        for ev in evs {
            match &ev.kind {
                EvKind::Acquire { id } => summaries[ii].acquires.insert(id.clone()),
                EvKind::Block { name } => summaries[ii].blocks.insert(name.clone()),
                _ => false,
            };
        }
    }
    loop {
        let mut changed = false;
        for (ii, _, _) in flow.scanned() {
            for callee in flow.callees(ii) {
                let Summary { acquires, blocks } = summaries[callee].clone();
                let s = &mut summaries[ii];
                let before = s.acquires.len() + s.blocks.len();
                s.acquires.extend(acquires);
                s.blocks.extend(blocks);
                changed |= s.acquires.len() + s.blocks.len() > before;
            }
        }
        if !changed {
            break;
        }
    }

    // Edges + blocking findings.
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut findings: Vec<Diagnostic> = Vec::new();
    for (_, f, evs) in flow.scanned() {
        let rel = &w.files[f.file].model.rel;
        for ev in evs {
            let mut edge_to = |id: &String| {
                for (hid, hline) in &ev.held {
                    edges.entry((hid.clone(), id.clone())).or_insert(Edge {
                        file: f.file,
                        line: ev.line,
                        hold_line: *hline,
                    });
                }
            };
            let mut blocked = |how: String| {
                for (hid, hline) in &ev.held {
                    let message = format!(
                        "guard on `{hid}` (acquired line {hline}) held across {how}; \
                         drop the guard first"
                    );
                    findings.push(Diagnostic::new(
                        rel,
                        ev.line as usize,
                        "lock-across-blocking",
                        message,
                    ));
                }
            };
            match &ev.kind {
                EvKind::Acquire { id } => edge_to(id),
                EvKind::Block { name } => blocked(format!("blocking `{name}`")),
                EvKind::Call { name, targets } if !ev.held.is_empty() => {
                    let mut reach = Summary::default();
                    for &t in targets {
                        reach.acquires.extend(summaries[t].acquires.iter().cloned());
                        reach.blocks.extend(summaries[t].blocks.iter().cloned());
                    }
                    reach.acquires.iter().for_each(&mut edge_to);
                    for b in &reach.blocks {
                        blocked(format!("call to `{name}`, which blocks on `{b}`"));
                    }
                }
                _ => {}
            }
        }
    }

    findings.extend(cycle_findings(w, &edges));
    findings
}

/// Detect self-loops and cycles in the acquisition graph.
fn cycle_findings(w: &WorkspaceModel, edges: &BTreeMap<(String, String), Edge>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().insert(to);
    }

    for ((from, to), e) in edges {
        if from == to {
            out.push(Diagnostic::new(
                &w.files[e.file].model.rel,
                e.line as usize,
                "lock-order",
                format!(
                    "lock `{from}` acquired again while already held (acquired line {}); \
                     the mutex is not reentrant, this self-deadlocks",
                    e.hold_line
                ),
            ));
        }
    }

    // Proper cycles: for each edge a -> b, a shortest path b ~> a closes
    // a cycle; dedupe by the cycle's node set.
    let mut seen: BTreeSet<BTreeSet<String>> = BTreeSet::new();
    for (a, b) in edges.keys() {
        if a == b {
            continue;
        }
        let Some(path) = shortest_path(&adj, b, a) else {
            continue;
        };
        // Cycle node sequence: a, b, ..., a (path = b ... a).
        let mut nodes: Vec<&str> = vec![a.as_str()];
        nodes.extend(path.iter().copied());
        let node_set: BTreeSet<String> = nodes.iter().map(|s| s.to_string()).collect();
        if !seen.insert(node_set) {
            continue;
        }
        let mut parts = Vec::new();
        for pair in nodes.windows(2) {
            let e = &edges[&(pair[0].to_string(), pair[1].to_string())];
            parts.push(format!(
                "`{}` -> `{}` at {}:{}",
                pair[0], pair[1], w.files[e.file].model.rel, e.line
            ));
        }
        let first = &edges[&(a.clone(), b.clone())];
        out.push(Diagnostic::new(
            &w.files[first.file].model.rel,
            first.line as usize,
            "lock-order",
            format!(
                "lock-order cycle: {}; acquire locks in a consistent order",
                parts.join(", ")
            ),
        ));
    }
    out
}

/// Shortest path `from ~> to` over the adjacency map (BFS), returned as
/// the node sequence starting at `from` and ending at `to`.
fn shortest_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut visited: BTreeSet<&str> = BTreeSet::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while cur != from {
                cur = prev[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for next in adj.get(n).into_iter().flatten() {
            if visited.insert(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorkspaceModel;

    fn findings(files: &[(&str, &str)]) -> Vec<(String, usize, String)> {
        let w = WorkspaceModel::from_sources(files);
        lock_findings(&w, &Flow::build(&w))
            .into_iter()
            .map(|d| (d.path, d.line, d.message))
            .collect()
    }

    #[test]
    fn two_lock_cycle_is_reported_with_both_sites() {
        let a = "impl A {\n    pub fn forward(&self) {\n        let g = self.first.lock();\n        let h = self.second.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let b = "impl B {\n    pub fn backward(&self) {\n        let g = self.second.lock();\n        let h = self.first.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let f = findings(&[
            ("crates/mplite/src/cyc_a.rs", a),
            ("crates/mplite/src/cyc_b.rs", b),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].2.contains("crates/mplite/src/cyc_a.rs:4"),
            "{}",
            f[0].2
        );
        assert!(
            f[0].2.contains("crates/mplite/src/cyc_b.rs:4"),
            "{}",
            f[0].2
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = "impl A {\n    pub fn forward(&self) {\n        let g = self.first.lock();\n        let h = self.second.lock();\n        drop(h);\n        drop(g);\n    }\n    pub fn also_forward(&self) {\n        let g = self.first.lock();\n        let h = self.second.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/ord.rs", a)]).is_empty());
    }

    #[test]
    fn transitive_cycle_via_call() {
        let src = "impl E {\n    fn take_b(&self) {\n        let g = self.b_lock.lock();\n        drop(g);\n    }\n    fn outer(&self) {\n        let g = self.a_lock.lock();\n        self.take_b();\n    }\n    fn inner(&self) {\n        let g = self.b_lock.lock();\n        let h = self.a_lock.lock();\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/trans.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("lock-order cycle"), "{}", f[0].2);
    }

    #[test]
    fn scoped_guard_release_breaks_edge() {
        // Guard dropped by scope end before second lock: no edge, no cycle.
        let src = "impl E {\n    fn one(&self) {\n        {\n            let g = self.first.lock();\n        }\n        let h = self.second.lock();\n    }\n    fn two(&self) {\n        {\n            let g = self.second.lock();\n        }\n        let h = self.first.lock();\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/scoped.rs", src)]).is_empty());
    }

    #[test]
    fn guard_across_blocking_flagged_but_condvar_wait_exempt() {
        let bad = "impl S {\n    fn wait_done(&self) {\n        let g = self.state.lock();\n        self.other.wait(1);\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/bad_block.rs", bad)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("held across blocking `wait`"), "{}", f[0].2);

        let ok = "impl S {\n    fn sleep(&self) {\n        let mut st = self.state.lock();\n        self.cv.wait(&mut st);\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/cv_ok.rs", ok)]).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "impl S {\n    fn peek(&self) -> usize {\n        let n = self.first.lock().len();\n        let m = self.second.lock().len();\n        n + m\n    }\n    fn rev(&self) -> usize {\n        let n = self.second.lock().len();\n        let m = self.first.lock().len();\n        n + m\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/temp.rs", src)]).is_empty());
    }

    #[test]
    fn reacquire_same_lock_is_self_deadlock() {
        let src = "impl S {\n    fn oops(&self) {\n        let g = self.state.lock();\n        let h = self.state.lock();\n    }\n}\n";
        let f = findings(&[("crates/mplite/src/re.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("self-deadlocks"), "{}", f[0].2);
    }

    #[test]
    fn self_named_delegation_is_not_a_cycle() {
        // `fn events` calling `.events()` on the guard must not resolve
        // to itself (tracelab::WallTracer wrapper pattern).
        let src = "impl W {\n    fn events(&self) -> usize {\n        self.core.lock().events()\n    }\n}\n";
        assert!(findings(&[("crates/mplite/src/deleg.rs", src)]).is_empty());
    }
}
