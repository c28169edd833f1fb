//! The rule inventory, the `blocking-hygiene` rule, and the shared
//! finding/annotation resolution engine.
//!
//! The per-file rules clippy checks by resolved name (determinism,
//! panic hygiene, print, dbg) live in `clippy.toml` and in each crate
//! root's `#![deny(..)]` (DESIGN.md §9). `analyze` keeps what needs its
//! cross-file model or has no clippy equivalent: every other pass
//! (`units`, `nondet`, `locks`, `hotpath`, `races`) adds its
//! rules on top, and all findings flow through the same [`resolve`]
//! engine, so the `// lint:allow(<rule>) -- <reason>` annotation grammar
//! covers every rule uniformly. Annotations without a reason
//! (`bad-allow`) or without a matching violation (`stale-allow`) are
//! themselves errors.

use crate::context::FileCtx;
use crate::diag::Diagnostic;
use crate::lex::TokKind;
use crate::model::FileModel;

/// Rule identifiers, used in diagnostics, annotations, and the budget
/// file.
pub const RULES: &[&str] = &[
    "blocking-hygiene",
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
    "hot-cost",
    "race-guarded-field",
    "marker-hygiene",
];

/// Rules whose counts are governed by the burn-down budget file rather
/// than zero tolerance, so legacy conversion debt and the hot-path cost
/// inventory can ratchet down instead of blocking.
pub const BUDGETED_RULES: &[&str] = &["units", "hot-cost"];

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
    /// Hard diagnostics (not budget-eligible): rule findings and
    /// annotation errors.
    pub diagnostics: Vec<Diagnostic>,
    /// Un-annotated budget-eligible findings, keyed by rule.
    pub budgeted: Vec<Diagnostic>,
}

/// `blocking-hygiene`: deadline-free `.read_exact(`, `.write_all(` and
/// `.accept()` in real-mode library code. Real crates legitimately
/// `thread::sleep` and read clocks, so this cannot share clippy's
/// `disallowed-methods` list with the simulation crates' bans.
pub fn blocking_findings(model: &FileModel, ctx: &FileCtx) -> Vec<RawFinding> {
    let mut findings: Vec<RawFinding> = Vec::new();
    if !ctx.blocking_scope() {
        return findings;
    }
    let toks = &model.toks;
    for (i, t) in toks.iter().enumerate() {
        if model.masked(t.line) || t.kind != TokKind::Ident || i == 0 || !toks[i - 1].is_punct(".")
        {
            continue;
        }
        let next = |k: usize, p: &str| toks.get(i + k).is_some_and(|n| n.is_punct(p));
        let wrapper = match t.text.as_str() {
            name @ ("read_exact" | "write_all") if next(1, "(") => name,
            "accept" if next(1, "(") && next(2, ")") => "accept",
            _ => continue,
        };
        let message = format!(
            "deadline-free blocking `{wrapper}` in real-mode code; use \
             faultlab::io::{wrapper}_deadline"
        );
        if !findings
            .iter()
            .any(|f| f.line == t.line && f.message == message)
        {
            findings.push(RawFinding {
                line: t.line,
                rule: "blocking-hygiene",
                message,
            });
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
        let findings = blocking_findings(&model, &ctx);
        resolve(&model, findings)
    }

    fn rules(r: &FileReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn blocking_hygiene_fires_in_real_mode_lib() {
        let src = "s.read_exact(&mut buf)?;\ns.write_all(&buf)?;\nlet (c, _) = l.accept()?;\n";
        for path in ["crates/mplite/src/x.rs", "crates/netpipe/src/x.rs"] {
            let r = check(path, src);
            assert_eq!(rules(&r), ["blocking-hygiene"; 3], "{path}");
        }
        // Sim code and test code are out of scope.
        assert!(check("crates/protosim/src/x.rs", src)
            .diagnostics
            .is_empty());
        assert!(check("crates/mplite/tests/x.rs", src)
            .diagnostics
            .is_empty());
    }

    #[test]
    fn budgeted_rules_go_to_the_budget_channel() {
        let model = FileModel::parse("crates/hwmodel/src/x.rs", "let x = 1;\n");
        let finding = |rule| RawFinding {
            line: 1,
            rule,
            message: String::new(),
        };
        let r = resolve(&model, vec![finding("units"), finding("lock-order")]);
        assert_eq!(rules(&r), ["lock-order"]);
        assert_eq!(r.budgeted.len(), 1);
        assert_eq!(r.budgeted[0].rule, "units");
    }

    #[test]
    fn annotation_suppresses_and_must_have_reason() {
        let ok = check(
            "crates/mplite/src/x.rs",
            "s.read_exact(&mut b)?; // lint:allow(blocking-hygiene) -- polled above\n",
        );
        assert!(ok.diagnostics.is_empty());

        let above = check(
            "crates/mplite/src/x.rs",
            "// lint:allow(blocking-hygiene) -- polled above\ns.read_exact(&mut b)?;\n",
        );
        assert!(above.diagnostics.is_empty());

        let bad = check(
            "crates/mplite/src/x.rs",
            "s.read_exact(&mut b)?; // lint:allow(blocking-hygiene)\n",
        );
        assert_eq!(rules(&bad), ["blocking-hygiene", "bad-allow"]);
    }

    #[test]
    fn stale_annotation_is_flagged() {
        let r = check(
            "crates/mplite/src/x.rs",
            "let y = 1; // lint:allow(blocking-hygiene) -- nothing here\n",
        );
        assert_eq!(rules(&r), ["stale-allow"]);
    }

    #[test]
    fn code_after_test_region_is_checked_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { s.read_exact(&mut b); }\n}\n\
                   fn lib() { s.read_exact(&mut b); }\n";
        let r = check("crates/mplite/src/x.rs", src);
        assert_eq!(rules(&r), ["blocking-hygiene"]);
        assert_eq!(r.diagnostics[0].line, 5);
    }
}
