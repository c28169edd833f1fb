//! Nondeterminism dataflow: sources of run-to-run variation outside the
//! places designed to absorb them.
//!
//! Three rules, complementing the sim crates' clippy determinism bans
//! (`clippy.toml`):
//!
//! * **`nondet-wall-clock`** — `Instant`/`SystemTime` in real-mode
//!   crates (`mplite`, `netpipe`, `faultlab`) outside the small
//!   allowlist of clock-owning modules (the TCP drivers and the
//!   deadline I/O layer). Everything else must take timestamps in, so
//!   replay and fault-injection sweeps stay reproducible;
//! * **`nondet-hash-iter`** — iterating a binding declared as
//!   `HashMap`/`HashSet` in non-sim library code. Sim crates ban the
//!   types outright (clippy's `disallowed_types`); elsewhere the *types*
//!   are fine but *iteration order* must not reach results or reports;
//! * **`nondet-float-reduction`** — `.sum()` / `.fold(` float
//!   reductions in sim-crate library code. Float addition is not
//!   associative, so accumulation order becomes part of the result;
//!   sim statistics must go through `simcore::stats` (Welford) or a
//!   fixed-order loop. Integer reductions (`.sum::<u64>()`) and
//!   order-insensitive folds (`f64::max`/`f64::min`) are exempt.

use crate::context::{FileCtx, REAL_CRATES, SIM_CRATES};
use crate::lex::TokKind;
use crate::model::FileModel;
use crate::rules::RawFinding;

/// Real-mode files that own the wall clock.
const WALL_ALLOWED_FILES: &[&str] = &[
    "crates/netpipe/src/real_tcp.rs",
    "crates/netpipe/src/mplite_driver.rs",
    "crates/faultlab/src/io.rs",
];

/// Integer types whose reductions are order-insensitive.
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Run the nondeterminism pass over one file.
pub fn nondet_findings(model: &FileModel, ctx: &FileCtx) -> Vec<RawFinding> {
    let mut findings: Vec<RawFinding> = Vec::new();
    if !ctx.lib {
        return findings;
    }
    let toks = &model.toks;
    let krate = ctx.crate_name.as_str();
    let mut push = |line: u32, rule: &'static str, message: String| {
        if !findings
            .iter()
            .any(|f| f.line == line && f.rule == rule && f.message == message)
        {
            findings.push(RawFinding {
                line,
                rule,
                message,
            });
        }
    };

    let wall_scope =
        REAL_CRATES.contains(&krate) && !WALL_ALLOWED_FILES.contains(&model.rel.as_str());
    let hash_scope = !SIM_CRATES.contains(&krate);
    let float_scope = SIM_CRATES.contains(&krate);

    // Bindings declared as hash containers (`let m: HashMap<..> = ..`,
    // `let mut s = HashSet::new()`).
    let mut hash_bindings: Vec<String> = Vec::new();
    if hash_scope {
        let mut stmt_start = 0usize;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.is_punct(";") || t.text == "{" || t.text == "}" {
                stmt_start = i + 1;
                continue;
            }
            if (t.is_ident("HashMap") || t.is_ident("HashSet"))
                && toks.get(stmt_start).is_some_and(|s| s.is_ident("let"))
            {
                let mut j = stmt_start + 1;
                if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = toks.get(j).filter(|n| n.kind == TokKind::Ident) {
                    if !hash_bindings.contains(&name.text) {
                        hash_bindings.push(name.text.clone());
                    }
                }
            }
        }
    }

    for (i, t) in toks.iter().enumerate() {
        if model.masked(t.line) {
            continue;
        }

        if wall_scope && (t.is_ident("Instant") || t.is_ident("SystemTime")) {
            push(
                t.line,
                "nondet-wall-clock",
                "wall-clock read outside the real-mode clock modules; take timestamps as \
                 parameters or move this into the driver/deadline layer"
                    .into(),
            );
        }

        if hash_scope && t.kind == TokKind::Ident && hash_bindings.contains(&t.text) {
            // `m.iter()` / `.keys()` / `.values()` / `.drain()` / `.into_iter()`.
            let iterated = toks.get(i + 1).is_some_and(|d| d.is_punct("."))
                && toks.get(i + 2).is_some_and(|m| {
                    matches!(
                        m.text.as_str(),
                        "iter" | "iter_mut" | "keys" | "values" | "into_iter" | "drain"
                    )
                });
            // `for v in m {` / `for v in &m {` — look back over at most
            // the loop header for the `for` keyword.
            let mut j = i;
            while j > 0 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
                j -= 1;
            }
            let for_loop = j >= 1
                && toks[j - 1].is_ident("in")
                && toks[..j - 1]
                    .iter()
                    .rev()
                    .take(12)
                    .take_while(|p| !p.is_punct(";") && p.text != "{" && p.text != "}")
                    .any(|p| p.is_ident("for"));
            if iterated || for_loop {
                push(
                    t.line,
                    "nondet-hash-iter",
                    format!(
                        "iteration over HashMap/HashSet binding `{}` has nondeterministic \
                         order; use BTreeMap/BTreeSet or collect and sort",
                        t.text
                    ),
                );
            }
        }

        if float_scope
            && i >= 1
            && toks[i - 1].is_punct(".")
            && (t.is_ident("sum") || t.is_ident("fold"))
        {
            let exempt = if t.text == "sum" {
                // `.sum::<u64>()` — integer accumulation is exact.
                toks.get(i + 1).is_some_and(|a| a.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct("<"))
                    && toks
                        .get(i + 3)
                        .is_some_and(|a| INT_TYPES.contains(&a.text.as_str()))
            } else {
                // `.fold(x, f64::max)` — min/max are order-insensitive.
                let window = &toks[i..toks.len().min(i + 16)];
                window.windows(3).any(|w| {
                    (w[0].is_ident("f64") || INT_TYPES.contains(&w[0].text.as_str()))
                        && w[1].is_punct("::")
                        && (w[2].is_ident("max") || w[2].is_ident("min") || w[2].is_ident("MAX"))
                })
            };
            if !exempt {
                push(
                    t.line,
                    "nondet-float-reduction",
                    format!(
                        "order-sensitive float reduction `.{}` in sim code; use \
                         simcore::stats::OnlineStats or a fixed-order loop",
                        t.text
                    ),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;

    fn check(path: &str, src: &str) -> Vec<(u32, &'static str)> {
        let ctx = classify(path).expect("classifiable");
        nondet_findings(&FileModel::parse(path, src), &ctx)
            .into_iter()
            .map(|f| (f.line, f.rule))
            .collect()
    }

    #[test]
    fn wall_clock_flagged_outside_allowlist() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        assert_eq!(
            check("crates/mplite/src/comm.rs", src),
            [(1, "nondet-wall-clock"), (2, "nondet-wall-clock")]
        );
        assert!(check("crates/faultlab/src/io.rs", src).is_empty());
        assert!(check("crates/netpipe/src/real_tcp.rs", src).is_empty());
        // Sim crates are clippy's `disallowed_methods` business, not this one's.
        assert!(check("crates/simcore/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_but_keyed_access_clean() {
        let bad = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for v in m.values() { use_it(v); }\n}\n";
        assert_eq!(
            check("crates/netpipe/src/x.rs", bad),
            [(3, "nondet-hash-iter")]
        );
        let ok =
            "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    let v = m.get(&3);\n}\n";
        assert!(check("crates/netpipe/src/x.rs", ok).is_empty());
    }

    #[test]
    fn float_reductions_flagged_in_sim_code() {
        let bad = "fn f(xs: &[f64]) -> f64 {\n    xs.iter().sum()\n}\n";
        assert_eq!(
            check("crates/simcore/src/x.rs", bad),
            [(2, "nondet-float-reduction")]
        );
        // Integer turbofish and f64::max folds are exempt.
        let ok = "fn f(xs: &[u64]) -> u64 {\n    xs.iter().sum::<u64>()\n}\nfn g(xs: &[f64]) -> f64 {\n    xs.iter().fold(0.0, f64::max)\n}\n";
        assert!(check("crates/simcore/src/x.rs", ok).is_empty());
        // Non-sim crates are out of scope.
        assert!(check("crates/netpipe/src/x.rs", bad).is_empty());
    }
}
