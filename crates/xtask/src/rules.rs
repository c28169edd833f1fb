//! The per-file lint rules (token-stream edition) and the shared
//! finding/annotation resolution engine.
//!
//! Three families (see DESIGN "Static analysis & invariants"):
//!
//! * **determinism** (sim crates' library code): `wall-clock`, `sleep`,
//!   `ambient-rng`, `hash-container`, and `trace-hygiene` (sim crates
//!   must stamp trace records with `SimTime`, never the wall-clock
//!   tracing API);
//! * **panic-hygiene** (library crates' library code): `unwrap`,
//!   `expect`, `panic`;
//! * **workspace-hygiene** (everywhere it makes sense): `print`, `dbg`,
//!   plus the manifest-level `lints-table` check in `analyze.rs`.
//!
//! Every other pass (`units`, `nondet`, `locks`, `protocol`, `hotpath`,
//! `races`) adds its rules on top; all findings flow through the same
//! [`resolve`] engine, so the
//! `// lint:allow(<rule>) -- <reason>` annotation grammar covers every
//! rule uniformly. Annotations without a reason (`bad-allow`) or
//! without a matching violation (`stale-allow`) are themselves errors.

use crate::context::FileCtx;
use crate::diag::Diagnostic;
use crate::lex::TokKind;
use crate::model::FileModel;

/// Rule identifiers, used in diagnostics, annotations, and the budget
/// file.
pub const RULES: &[&str] = &[
    "wall-clock",
    "sleep",
    "ambient-rng",
    "hash-container",
    "trace-hygiene",
    "blocking-hygiene",
    "unwrap",
    "expect",
    "panic",
    "print",
    "dbg",
    "lints-table",
    "bad-allow",
    "stale-allow",
    "budget",
    "lock-order",
    "lock-across-blocking",
    "units",
    "nondet-wall-clock",
    "nondet-hash-iter",
    "nondet-float-reduction",
    "protocol-transition",
    "protocol-undeclared",
    "protocol-unreachable",
    "protocol-terminal",
    "protocol-duality",
    "hot-cost",
    "race-guarded-field",
    "marker-hygiene",
];

/// Rules whose counts are governed by the burn-down budget file rather
/// than zero tolerance, so panic debt, legacy conversion debt and the
/// hot-path cost inventory can ratchet down instead of blocking.
pub const BUDGETED_RULES: &[&str] = &["unwrap", "expect", "panic", "units", "hot-cost"];

/// A raw (pre-annotation) finding inside one file.
#[derive(Debug)]
pub struct RawFinding {
    /// 1-based line.
    pub line: u32,
    /// Stable rule id.
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

/// Outcome of checking one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Hard diagnostics (not budget-eligible): determinism, hygiene,
    /// annotation errors.
    pub diagnostics: Vec<Diagnostic>,
    /// Un-annotated budget-eligible findings, keyed by rule.
    pub budgeted: Vec<Diagnostic>,
}

/// Run the per-file lint rules over an already-lexed model.
pub fn file_findings(model: &FileModel, ctx: &FileCtx) -> Vec<RawFinding> {
    let mut findings: Vec<RawFinding> = Vec::new();
    let toks = &model.toks;

    let mut push = |line: u32, rule: &'static str, message: String| {
        // The regex-era linter reported at most one finding per
        // (line, rule, message); keep that contract.
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

    for (i, t) in toks.iter().enumerate() {
        if model.masked(t.line) {
            continue;
        }
        let ident = (t.kind == TokKind::Ident).then_some(t.text.as_str());

        if ctx.determinism_scope() {
            if matches!(ident, Some("Instant") | Some("SystemTime")) {
                push(
                    t.line,
                    "wall-clock",
                    "wall-clock read in sim code; use the simulated clock (Engine::now)".into(),
                );
            }
            if ident == Some("sleep")
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("thread")
            {
                push(
                    t.line,
                    "sleep",
                    "thread::sleep in sim code; schedule an event instead".into(),
                );
            }
            if matches!(ident, Some("thread_rng") | Some("from_entropy"))
                || (ident == Some("random")
                    && i >= 2
                    && toks[i - 1].is_punct("::")
                    && toks[i - 2].is_ident("rand"))
            {
                push(
                    t.line,
                    "ambient-rng",
                    "ambient RNG in sim code; route randomness through SimRng".into(),
                );
            }
            if matches!(ident, Some("HashMap") | Some("HashSet")) {
                push(
                    t.line,
                    "hash-container",
                    "HashMap/HashSet in sim code has nondeterministic iteration order; \
                         use BTreeMap/BTreeSet or sort explicitly"
                        .into(),
                );
            }
        }

        if ctx.trace_hygiene_scope() {
            const WALL_APIS: [&str; 5] = [
                "WallTracer",
                "WallStamp",
                "span_wall",
                "instant_wall",
                "now_wall",
            ];
            if ident.is_some_and(|id| WALL_APIS.contains(&id)) {
                push(
                    t.line,
                    "trace-hygiene",
                    "wall-clock tracing API in sim code; stamp trace records with \
                         SimTime (tracelab::Tracer)"
                        .into(),
                );
            }
        }

        if ctx.blocking_scope() && i >= 1 && toks[i - 1].is_punct(".") {
            let next_open = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            match ident {
                Some(name @ ("read_exact" | "write_all")) if next_open => {
                    push(
                        t.line,
                        "blocking-hygiene",
                        format!(
                            "deadline-free blocking `{name}` in real-mode code; use \
                             faultlab::io::{name}_deadline"
                        ),
                    );
                }
                Some("accept") if next_open && toks.get(i + 2).is_some_and(|n| n.is_punct(")")) => {
                    push(
                        t.line,
                        "blocking-hygiene",
                        "deadline-free blocking `accept` in real-mode code; use \
                         faultlab::io::accept_deadline"
                            .into(),
                    );
                }
                _ => {}
            }
        }

        if ctx.panic_scope() {
            if i >= 1 && toks[i - 1].is_punct(".") {
                if ident == Some("unwrap")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(")"))
                {
                    push(
                        t.line,
                        "unwrap",
                        "unwrap() in library code; propagate the error instead".into(),
                    );
                }
                if ident == Some("expect") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
                    push(
                        t.line,
                        "expect",
                        "expect() in library code; propagate the error instead".into(),
                    );
                }
            }
            if let Some(mac @ ("panic" | "todo" | "unimplemented" | "unreachable")) = ident {
                if toks.get(i + 1).is_some_and(|n| n.is_punct("!")) {
                    push(
                        t.line,
                        "panic",
                        format!("{mac}! in library code; return an error instead"),
                    );
                }
            }
        }

        if ctx.print_scope()
            && matches!(
                ident,
                Some("println") | Some("print") | Some("eprintln") | Some("eprint")
            )
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                t.line,
                "print",
                "print in library code; return strings or take a writer".into(),
            );
        }

        if ctx.dbg_scope()
            && ident == Some("dbg")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(t.line, "dbg", "dbg! left in non-test code".into());
        }
    }
    findings
}

/// Resolve findings against the file's annotations.
///
/// An allow on line N covers a finding on line N or line N+1
/// (comment-above style). Surviving findings of a [`BUDGETED_RULES`]
/// rule go to the budget channel.
pub fn resolve(model: &FileModel, findings: Vec<RawFinding>) -> FileReport {
    let mut used = vec![false; model.allows.len()];
    let mut report = FileReport::default();
    for f in findings {
        let line = f.line as usize;
        let allowed = model.allows.iter().enumerate().any(|(ai, a)| {
            a.rule == f.rule && a.has_reason && (a.line == line || a.line + 1 == line) && {
                used[ai] = true;
                true
            }
        });
        if allowed {
            continue;
        }
        let d = Diagnostic::new(&model.rel, line, f.rule, f.message);
        if BUDGETED_RULES.contains(&f.rule) {
            report.budgeted.push(d);
        } else {
            report.diagnostics.push(d);
        }
    }
    for (ai, a) in model.allows.iter().enumerate() {
        if !a.has_reason {
            report.diagnostics.push(Diagnostic::new(
                &model.rel,
                a.line,
                "bad-allow",
                "malformed annotation; use `lint:allow(<rule>) -- <reason>`",
            ));
        } else if !used[ai] {
            report.diagnostics.push(Diagnostic::new(
                &model.rel,
                a.line,
                "stale-allow",
                format!(
                    "lint:allow({}) has no matching violation; remove it",
                    a.rule
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::classify;

    fn check(path: &str, src: &str) -> FileReport {
        let ctx = classify(path).expect("classifiable path");
        let model = FileModel::parse(path, src);
        let findings = file_findings(&model, &ctx);
        resolve(&model, findings)
    }

    #[test]
    fn determinism_rules_fire_in_sim_lib() {
        let r = check(
            "crates/simcore/src/x.rs",
            "use std::time::Instant;\nlet m: HashMap<u32, u32> = HashMap::new();\n",
        );
        let rules: Vec<_> = r.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"wall-clock"));
        assert!(rules.contains(&"hash-container"));
    }

    #[test]
    fn determinism_rules_silent_outside_sim() {
        let r = check("crates/mplite/src/x.rs", "use std::time::Instant;\n");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn blocking_hygiene_fires_in_real_mode_lib() {
        let src = "s.read_exact(&mut buf)?;\ns.write_all(&buf)?;\nlet (c, _) = l.accept()?;\n";
        for path in ["crates/mplite/src/x.rs", "crates/netpipe/src/x.rs"] {
            let r = check(path, src);
            let rules: Vec<_> = r.diagnostics.iter().map(|d| d.rule).collect();
            assert_eq!(rules, ["blocking-hygiene"; 3], "{path}: {rules:?}");
        }
        // Sim code and test code are out of scope.
        assert!(check("crates/protosim/src/x.rs", src)
            .diagnostics
            .is_empty());
        assert!(check("crates/mplite/tests/x.rs", src)
            .diagnostics
            .is_empty());
        // The deadline wrappers themselves never match the banned forms.
        let clean = "faultlab::io::read_exact_deadline(s, &mut buf, d)?;\n\
                     faultlab::io::accept_deadline(l, d, || true)?;\n";
        assert!(check("crates/mplite/src/x.rs", clean)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn panic_rules_are_budgeted() {
        let r = check("crates/mplite/src/x.rs", "fn f() { x.unwrap(); }\n");
        assert!(r.diagnostics.is_empty());
        assert_eq!(r.budgeted.len(), 1);
        assert_eq!(r.budgeted[0].rule, "unwrap");
    }

    #[test]
    fn annotation_suppresses_and_must_have_reason() {
        let ok = check(
            "crates/mplite/src/x.rs",
            "x.unwrap(); // lint:allow(unwrap) -- checked above\n",
        );
        assert!(ok.diagnostics.is_empty() && ok.budgeted.is_empty());

        let above = check(
            "crates/mplite/src/x.rs",
            "// lint:allow(unwrap) -- checked above\nx.unwrap();\n",
        );
        assert!(above.diagnostics.is_empty() && above.budgeted.is_empty());

        let bad = check(
            "crates/mplite/src/x.rs",
            "x.unwrap(); // lint:allow(unwrap)\n",
        );
        assert!(bad.diagnostics.iter().any(|d| d.rule == "bad-allow"));
    }

    #[test]
    fn stale_annotation_is_flagged() {
        let r = check(
            "crates/mplite/src/x.rs",
            "let y = 1; // lint:allow(unwrap) -- nothing here\n",
        );
        assert!(r.diagnostics.iter().any(|d| d.rule == "stale-allow"));
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); panic!(); }\n}\n";
        let r = check("crates/mplite/src/x.rs", src);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.budgeted.is_empty(), "{:?}", r.budgeted);
    }

    #[test]
    fn code_after_test_region_is_checked_again() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\nfn lib() { y.unwrap(); }\n";
        let r = check("crates/mplite/src/x.rs", src);
        assert_eq!(r.budgeted.len(), 1);
        assert_eq!(r.budgeted[0].line, 5);
    }

    #[test]
    fn strings_and_comments_do_not_trip_rules() {
        let src = "let s = \"call .unwrap() and panic!\"; // mentions thread_rng\n";
        let r = check("crates/mplite/src/x.rs", src);
        assert!(r.diagnostics.is_empty() && r.budgeted.is_empty());
    }

    #[test]
    fn print_allowed_in_bins_and_tests() {
        assert!(
            check("crates/clusterlab/src/bin/probe.rs", "println!(\"x\");\n")
                .diagnostics
                .is_empty()
        );
        assert!(check("tests/t.rs", "println!(\"x\");\n")
            .diagnostics
            .is_empty());
        assert!(
            !check("crates/clusterlab/src/sweep.rs", "println!(\"x\");\n")
                .diagnostics
                .is_empty()
        );
    }

    #[test]
    fn dbg_banned_even_in_bins() {
        assert!(check("crates/clusterlab/src/bin/probe.rs", "dbg!(x);\n")
            .diagnostics
            .iter()
            .any(|d| d.rule == "dbg"));
    }
}
