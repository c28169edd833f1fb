//! `--explain RULE`: one self-contained documentation page per rule.

/// Documentation for a rule id, or `None` if the rule is unknown.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "lints-table" => {
            "lints-table (workspace-hygiene family)\n\
             scope: every crate manifest\n\n\
             Each [package] manifest must declare `[lints] workspace = true` so\n\
             rustc/clippy lint policy is set once, at the workspace root (each\n\
             crate root then denies its own rule families)."
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
            "units (units hygiene)\n\
             scope: library code outside simcore::{time,units}\n\n\
             Two shapes are flagged: (1) a magic conversion constant (1e6, 8.0,\n\
             125_000.0, 1_000_000, ...) directly multiplied or divided —\n\
             conversions must go through SimTime/SimDuration or the\n\
             simcore::units helpers so each factor exists exactly once, in one\n\
             audited file; (2) an `as u64`/`as f64` cast in a statement mixing\n\
             time-suffixed (_us/_ns/_s) and rate (rate/bps) identifiers —\n\
             use SimDuration::for_bytes / units::bytes_at_rate instead."
        }
        _ => return None,
    })
}

/// One-line summary per rule, for the `--explain` index listing.
pub fn summary(rule: &str) -> &'static str {
    match rule {
        "lints-table" => "crate manifest missing `[lints] workspace = true`",
        "lock-order" => "cycle in the cross-file lock acquisition-order graph",
        "lock-across-blocking" => "mutex guard held across a blocking primitive",
        "units" => "magic unit-conversion constant or mixed time/rate cast",
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
        for rule in RULES {
            assert!(explain(rule).expect("doc").starts_with(rule));
        }
    }
}
