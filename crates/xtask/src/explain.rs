//! `--explain RULE`: one self-contained documentation page per rule.

/// Documentation for a rule id, or `None` if the rule is unknown.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "blocking-hygiene" => {
            "blocking-hygiene (real-mode hygiene)\n\
             scope: library code of real-mode crates (faultlab, mplite, netpipe)\n\n\
             A deadline-free read_exact/write_all/accept hangs the whole sweep\n\
             when a peer dies. Use the bounded faultlab::io wrappers\n\
             (read_exact_deadline, write_all_deadline, accept_deadline)."
        }
        "lints-table" => {
            "lints-table (workspace-hygiene family)\n\
             scope: every crate manifest\n\n\
             Each [package] manifest must declare `[lints] workspace = true` so\n\
             rustc/clippy lint policy is set once, at the workspace root (each\n\
             crate root then denies its own rule families)."
        }
        "bad-allow" => {
            "bad-allow (annotation grammar)\n\n\
             An annotation must carry a reason:\n\
             // lint:allow(<rule>) -- <reason>\n\
             The reason is the reviewable artifact; an allow without one is\n\
             rejected."
        }
        "stale-allow" => {
            "stale-allow (annotation grammar)\n\n\
             A lint:allow annotation whose violation no longer exists on that\n\
             line (or the line below) must be removed, or it will silently mask\n\
             a future regression. That includes one naming a rule analyze no\n\
             longer owns: the per-file determinism, panic, print and dbg rules\n\
             are clippy's, excepted with #[expect(clippy::<lint>, reason = ..)]."
        }
        "budget" => {
            "budget (burn-down ratchet)\n\n\
             lint-budget.toml caps un-annotated units and hot-cost counts per\n\
             crate/rule. Counts above an entry fail; counts below fail too\n\
             (ratchet) so the entry is lowered as debt is paid. Regenerate\n\
             with --write-budget."
        }
        "lock-order" => {
            "lock-order (cross-file)\n\
             scope: library code, workspace-wide\n\n\
             The analyzer collects every `.lock()` site, tracks held guards\n\
             through function bodies (scope ends, drop(), statement-end for\n\
             temporaries), and propagates acquisitions across same-crate calls.\n\
             An edge A -> B means B was taken while A was held; a cycle in this\n\
             graph is a deadlock waiting for the right thread interleaving. The\n\
             diagnostic names every acquisition site on the cycle. Fix by\n\
             ranking the locks and always acquiring in rank order (see\n\
             DESIGN.md, \"Cross-file analysis\"). Lock identity is the field\n\
             name qualified by crate — `self.state.lock()` is `mplite::state`."
        }
        "lock-across-blocking" => {
            "lock-across-blocking (cross-file)\n\
             scope: library code, workspace-wide\n\n\
             Holding a mutex guard across wait / read_exact_deadline /\n\
             write_all_deadline / accept_deadline stalls every thread contending\n\
             for that lock for up to the full deadline. Drop the guard before\n\
             blocking, or restructure so the slow call happens lock-free. The\n\
             condvar idiom `cv.wait(&mut guard)` — where the guard is passed\n\
             into the wait — is recognized and exempt."
        }
        "units" => {
            "units (units hygiene; budgeted)\n\
             scope: library code outside simcore::{time,units}\n\n\
             Two shapes are flagged: (1) a magic conversion constant (1e6, 8.0,\n\
             125_000.0, 1_000_000, ...) directly multiplied or divided —\n\
             conversions must go through SimTime/SimDuration or the\n\
             simcore::units helpers so each factor exists exactly once, in one\n\
             audited file; (2) an `as u64`/`as f64` cast in a statement mixing\n\
             time-suffixed (_us/_ns/_s) and rate (rate/bps) identifiers —\n\
             use SimDuration::for_bytes / units::bytes_at_rate instead."
        }
        "nondet-wall-clock" => {
            "nondet-wall-clock (nondeterminism dataflow)\n\
             scope: library code of real-mode crates, minus the clock owners\n\
             (netpipe::real_tcp, netpipe::mplite_driver, faultlab::io)\n\n\
             Real-mode code outside the driver/deadline layer must take\n\
             timestamps as parameters rather than read Instant/SystemTime, so\n\
             replay and fault sweeps stay reproducible. In sim crates clippy's\n\
             disallowed_methods (clippy.toml) bans the clock outright."
        }
        "nondet-hash-iter" => {
            "nondet-hash-iter (nondeterminism dataflow)\n\
             scope: library code of non-sim crates\n\n\
             Iterating a HashMap/HashSet binding leaks SipHash ordering into\n\
             results and reports. Keyed access is fine; iteration needs\n\
             BTreeMap/BTreeSet or an explicit sort. In sim crates clippy's\n\
             disallowed_types (clippy.toml) bans the types outright; clippy's\n\
             own iter_over_hash_type sees only `for` loops."
        }
        "nondet-float-reduction" => {
            "nondet-float-reduction (nondeterminism dataflow)\n\
             scope: library code of sim crates\n\n\
             Float addition is not associative: `.sum()` / `.fold(..)` over f64\n\
             makes accumulation order part of the result. Use\n\
             simcore::stats::OnlineStats (Welford) or a fixed-order loop.\n\
             Integer reductions (`.sum::<u64>()`) and order-insensitive folds\n\
             (f64::max / f64::min) are exempt."
        }
        "hot-cost" => {
            "hot-cost (cross-file; budgeted)\n\
             scope: library code, workspace-wide (markers seeded in the sim\n\
             dispatch, wire, matching, framing, and collective-executor crates)\n\n\
             Functions marked `// analyze: hot` are per-message / per-event\n\
             critical paths. The pass summarizes every function's direct costs\n\
             — heap allocations (Box::new, Vec::new, vec!, format!,\n\
             String::from, .to_vec(), .clone() on non-Copy receivers), lock\n\
             acquisitions, and blocking primitives — and propagates the\n\
             summaries over same-crate calls, reporting each cost site\n\
             reachable from a hot entry with its full call chain. Calls resolve\n\
             by shape: Type::f( exactly, .m( to methods named m, f( and\n\
             module::f( to free functions only. Counts are governed by the\n\
             hot-cost sections of lint-budget.toml (ratchet: they only go\n\
             down). A deliberate site is annotated in place:\n\
             // lint:allow(hot-cost) -- <reason>."
        }
        "race-guarded-field" => {
            "race-guarded-field (cross-file)\n\
             scope: library code, workspace-wide\n\n\
             A struct field accessed both under a mutex guard and bare, from\n\
             code reachable from a thread root (thread::spawn, thread::scope,\n\
             or a .spawn(..) builder), is inconsistently protected: safe Rust\n\
             keeps it from being UB here, but the shape invites stale reads\n\
             and lost updates once both paths run concurrently. Exempt: bare\n\
             accesses behind &mut self / owned self (exclusive borrows cannot\n\
             race) and accesses that immediately enter a sync primitive\n\
             (.lock(), condvar wait/notify, atomics, channels, handle\n\
             .clone()). The diagnostic is anchored at the bare site and names\n\
             the guarded one. Suppress a reviewed exception with\n\
             // lint:allow(race-guarded-field) -- <reason>."
        }
        "marker-hygiene" => {
            "marker-hygiene (marker grammar)\n\
             scope: library code, workspace-wide\n\n\
             The one marker, `// analyze: hot`, is itself checked so it cannot\n\
             silently rot: it must attach to a library function (the `fn` line\n\
             or within five lines below). Suppressions are not markers — they\n\
             use the ordinary lint:allow grammar and its stale/bad-allow checks."
        }
        _ => return None,
    })
}

/// One-line summary per rule, for the `--explain` index listing.
pub fn summary(rule: &str) -> &'static str {
    match rule {
        "blocking-hygiene" => "deadline-free read/write/accept; use the faultlab::io wrappers",
        "lints-table" => "crate manifest missing `[lints] workspace = true`",
        "bad-allow" => "lint:allow annotation without a `-- <reason>` tail",
        "stale-allow" => "lint:allow annotation with no matching violation",
        "budget" => "lint-budget.toml entry above or below the live count",
        "lock-order" => "cycle in the cross-file lock acquisition-order graph",
        "lock-across-blocking" => "mutex guard held across a blocking primitive",
        "units" => "magic unit-conversion constant or mixed time/rate cast (budgeted)",
        "nondet-wall-clock" => "wall-clock read outside the real-mode clock owners",
        "nondet-hash-iter" => "HashMap/HashSet iteration leaks SipHash order into results",
        "nondet-float-reduction" => "order-sensitive f64 sum/fold; use OnlineStats",
        "hot-cost" => "allocation/lock/blocking site reachable from a hot entry (budgeted)",
        "race-guarded-field" => "field accessed both under a guard and bare on threaded paths",
        "marker-hygiene" => "`analyze: hot` marker attached to no library function",
        _ => "",
    }
}

/// The full `--explain` index: every rule id with a one-line summary.
pub fn index() -> String {
    let mut out = String::from("rules (cargo run -p xtask -- analyze --explain <rule>):\n");
    let width = crate::rules::RULES
        .iter()
        .map(|r| r.len())
        .max()
        .unwrap_or(0);
    for rule in crate::rules::RULES {
        out.push_str(&format!("  {rule:width$}  {}\n", summary(rule)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULES;

    #[test]
    fn every_rule_has_an_explanation() {
        for rule in RULES {
            assert!(explain(rule).is_some(), "missing --explain for {rule}");
        }
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn every_rule_has_a_summary_and_the_index_lists_all() {
        let idx = index();
        for rule in RULES {
            assert!(!summary(rule).is_empty(), "missing summary for {rule}");
            assert!(idx.contains(rule), "index missing {rule}");
        }
    }

    #[test]
    fn explanations_name_their_rule() {
        for rule in [
            "lock-order",
            "units",
            "nondet-hash-iter",
            "blocking-hygiene",
        ] {
            assert!(explain(rule).expect("doc").starts_with(rule));
        }
    }
}
