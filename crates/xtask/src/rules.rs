//! The rule inventory and the shared finding/annotation resolution
//! engine.
//!
//! The per-file rules clippy checks by resolved name (determinism,
//! blocking calls, panic hygiene, print, dbg) live in `clippy.toml` and
//! in each crate root's `#![deny(..)]` (DESIGN.md §9). `analyze` keeps
//! what needs its cross-file model or has no clippy equivalent: every
//! pass (`units`, `locks`, `races`) feeds its findings through the same
//! [`resolve`] engine, so the `// lint:allow(<rule>) -- <reason>`
//! annotation grammar covers every rule uniformly. Annotations without
//! a reason (`bad-allow`) or without a matching violation
//! (`stale-allow`) are themselves errors.

use crate::diag::Diagnostic;
use crate::model::FileModel;

/// Rule identifiers, used in diagnostics and annotations.
pub const RULES: &[&str] = &[
    "lints-table",
    "bad-allow",
    "stale-allow",
    "lock-order",
    "lock-across-blocking",
    "units",
    "race-guarded-field",
];

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

/// Resolve findings against the file's annotations.
///
/// An allow on line N covers a finding on line N or line N+1
/// (comment-above style). Returns the surviving findings plus the
/// annotation errors.
pub fn resolve(model: &FileModel, findings: Vec<RawFinding>) -> Vec<Diagnostic> {
    let mut used = vec![false; model.allows.len()];
    let mut report = Vec::new();
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
        report.push(Diagnostic::new(&model.rel, line, f.rule, f.message));
    }
    for (ai, a) in model.allows.iter().enumerate() {
        if !a.has_reason {
            report.push(Diagnostic::new(
                &model.rel,
                a.line,
                "bad-allow",
                "malformed annotation; use `lint:allow(<rule>) -- <reason>`",
            ));
        } else if !used[ai] {
            report.push(Diagnostic::new(
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
    use crate::units::units_findings;

    fn check(path: &str, src: &str) -> Vec<&'static str> {
        let ctx = classify(path).expect("classifiable path");
        let model = FileModel::parse(path, src);
        let findings = units_findings(&model, &ctx);
        resolve(&model, findings).iter().map(|d| d.rule).collect()
    }

    const PATH: &str = "crates/hwmodel/src/x.rs";

    #[test]
    fn annotation_suppresses_and_must_have_reason() {
        let ok = check(
            PATH,
            "let hz = mhz * 1e6; // lint:allow(units) -- datasheet MHz\n",
        );
        assert!(ok.is_empty(), "{ok:?}");

        let above = check(
            PATH,
            "// lint:allow(units) -- datasheet MHz\nlet hz = mhz * 1e6;\n",
        );
        assert!(above.is_empty(), "{above:?}");

        let bad = check(PATH, "let hz = mhz * 1e6; // lint:allow(units)\n");
        assert_eq!(bad, ["units", "bad-allow"]);
    }

    #[test]
    fn stale_annotation_is_flagged() {
        let r = check(PATH, "let y = 1; // lint:allow(units) -- nothing here\n");
        assert_eq!(r, ["stale-allow"]);
    }

    #[test]
    fn code_after_test_region_is_checked_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let _ = mhz * 1e6; }\n}\n\
                   fn lib() { let _ = mhz * 1e6; }\n";
        let ctx = classify(PATH).expect("classifiable path");
        let model = FileModel::parse(PATH, src);
        let r = resolve(&model, units_findings(&model, &ctx));
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].rule, r[0].line), ("units", 5));
    }
}
