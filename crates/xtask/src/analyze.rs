//! The workspace analyze pass: the rules clippy cannot check (blocking
//! hygiene, units hygiene, nondeterminism dataflow), the manifest check,
//! and the cross-file passes (lock-order, protocol conformance, hot-path
//! cost, guarded-field consistency) under one annotation grammar and one
//! burn-down budget, with a machine-readable JSON report for CI.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::budget::Budget;
use crate::diag::Diagnostic;
use crate::flow::Flow;
use crate::hotpath::hotpath_findings;
use crate::locks::lock_findings;
use crate::model::WorkspaceModel;
use crate::nondet::nondet_findings;
use crate::protocol::{protocol_findings, protocol_inventory};
use crate::races::race_findings;
use crate::rules::{blocking_findings, resolve, RawFinding, RULES};
use crate::units::units_findings;
use crate::walk::{collect_files, rel_str};

/// Name of the burn-down budget file at the workspace root.
pub const BUDGET_FILE: &str = "lint-budget.toml";

/// Result of analyzing a workspace.
#[derive(Debug, Default)]
pub struct AnalyzeOutcome {
    /// Every diagnostic to print, sorted by file/line.
    pub diagnostics: Vec<Diagnostic>,
    /// Files examined.
    pub files_checked: usize,
    /// Live un-annotated counts per (crate, rule) for budgeted rules.
    pub budget_counts: BTreeMap<(String, String), usize>,
    /// Every `protocol!` machine the conformance pass checked, as
    /// sorted `namespace.role` names.
    pub protocols: Vec<String>,
}

impl AnalyzeOutcome {
    /// Did the pass find anything?
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Analyze an in-memory file set (fixture tests). No manifest or budget
/// checks — just the per-file rules plus the cross-file passes.
pub fn analyze_sources(files: &[(&str, &str)]) -> AnalyzeOutcome {
    let w = WorkspaceModel::from_sources(files);
    let (mut out, budgeted) = analyze_model(&w);
    // With no budget file every budget is 0, so budgeted findings are
    // all over budget: surface them directly.
    out.diagnostics.extend(budgeted.into_iter().map(|(_, d)| d));
    out.diagnostics.sort();
    out.diagnostics.dedup();
    out
}

/// Analyze the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> Result<AnalyzeOutcome, String> {
    let w = WorkspaceModel::load(root)?;
    let (mut out, budgeted) = analyze_model(&w);

    // Manifests: every crate inherits the workspace lints table.
    let manifests = collect_files(root, &|p| p.file_name().is_some_and(|n| n == "Cargo.toml"))
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    for rel in &manifests {
        let rel_s = rel_str(rel);
        let text =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel_s}: {e}"))?;
        if text.contains("[package]") && !has_workspace_lints(&text) {
            out.diagnostics.push(Diagnostic::new(
                &rel_s,
                0,
                "lints-table",
                "crate does not declare `[lints] workspace = true`",
            ));
        }
    }

    // Budget: read, enforce, ratchet. Over budget: every un-annotated
    // violation in that (crate, rule) is reported, plus a summary line.
    let budget_text = fs::read_to_string(root.join(BUDGET_FILE)).unwrap_or_default();
    let budget = Budget::parse(&budget_text).map_err(|e| format!("{BUDGET_FILE}: {e}"))?;
    for ((krate, rule), &count) in &out.budget_counts {
        let allowed = budget.allowed(krate, rule);
        if count > allowed {
            for (k, d) in &budgeted {
                if k == krate && d.rule == *rule {
                    out.diagnostics.push(d.clone());
                }
            }
            out.diagnostics.push(Diagnostic::new(
                BUDGET_FILE,
                0,
                "budget",
                format!("{krate}/{rule}: {count} un-annotated violations exceed budget {allowed}"),
            ));
        } else if count < allowed {
            out.diagnostics.push(Diagnostic::new(
                BUDGET_FILE,
                0,
                "budget",
                format!(
                    "{krate}/{rule}: budget {allowed} is stale, live count is {count}; \
                     lower it (or run `cargo run -p xtask -- analyze --write-budget`)"
                ),
            ));
        }
    }
    for (krate, rule, n) in budget.keys() {
        if n > 0
            && !out
                .budget_counts
                .contains_key(&(krate.to_string(), rule.to_string()))
        {
            out.diagnostics.push(Diagnostic::new(
                BUDGET_FILE,
                0,
                "budget",
                format!("{krate}/{rule}: budget {n} is stale, live count is 0; remove the entry"),
            ));
        }
    }

    out.diagnostics.sort();
    out.diagnostics.dedup();
    Ok(out)
}

/// Shared core: run the per-file rules plus the cross-file passes over
/// a loaded model. Returns the outcome plus the budgeted diagnostics
/// (needed by the over-budget listing).
fn analyze_model(w: &WorkspaceModel) -> (AnalyzeOutcome, Vec<(String, Diagnostic)>) {
    let mut out = AnalyzeOutcome {
        files_checked: w.files.len(),
        protocols: protocol_inventory(w),
        ..AnalyzeOutcome::default()
    };
    let mut budgeted: Vec<(String, Diagnostic)> = Vec::new();

    // Cross-file passes first, findings keyed per file. The three body
    // passes share one walk and one call graph.
    let flow = Flow::build(w);
    let mut per_file: Vec<Vec<RawFinding>> = w.files.iter().map(|_| Vec::new()).collect();
    let cross_file = lock_findings(w, &flow)
        .into_iter()
        .chain(protocol_findings(w))
        .chain(hotpath_findings(w, &flow))
        .chain(race_findings(w, &flow));
    for (fi, finding) in cross_file {
        per_file[fi].push(finding);
    }

    for (fi, wf) in w.files.iter().enumerate() {
        let mut findings = blocking_findings(&wf.model, &wf.ctx);
        findings.extend(units_findings(&wf.model, &wf.ctx));
        findings.extend(nondet_findings(&wf.model, &wf.ctx));
        findings.append(&mut per_file[fi]);

        let report = resolve(&wf.model, findings);
        out.diagnostics.extend(report.diagnostics);
        for d in report.budgeted {
            *out.budget_counts
                .entry((wf.ctx.crate_name.clone(), d.rule.to_string()))
                .or_insert(0) += 1;
            budgeted.push((wf.ctx.crate_name.clone(), d));
        }
    }
    (out, budgeted)
}

/// Does a manifest declare `[lints]` with `workspace = true`?
fn has_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// Write a fresh budget file matching the live counts.
pub fn write_budget(root: &Path, outcome: &AnalyzeOutcome) -> Result<(), String> {
    let text = Budget::render(&outcome.budget_counts);
    fs::write(root.join(BUDGET_FILE), text).map_err(|e| format!("writing {BUDGET_FILE}: {e}"))
}

/// Render the machine-readable JSON report consumed by CI.
pub fn render_report(outcome: &AnalyzeOutcome) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"tool\": \"xtask-analyze\",\n");
    s.push_str(&format!(
        "  \"files_checked\": {},\n  \"clean\": {},\n",
        outcome.files_checked,
        outcome.clean()
    ));
    // The full rule inventory, so CI can assert a pass actually ran
    // (a report missing a family means a stale or truncated tool).
    s.push_str("  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(r));
    }
    s.push_str("],\n");
    // The machines the protocol pass actually parsed and checked, so
    // CI can assert a specific machine is still under conformance.
    s.push_str("  \"protocols\": [");
    for (i, p) in outcome.protocols.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_str(p));
    }
    s.push_str("],\n");
    s.push_str("  \"diagnostics\": [");
    for (i, d) in outcome.diagnostics.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&format!(
            "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&d.path),
            d.line,
            json_str(d.rule),
            json_str(&d.message)
        ));
    }
    s.push_str(if outcome.diagnostics.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    s.push_str("  \"budget\": [");
    let mut first = true;
    for ((krate, rule), count) in &outcome.budget_counts {
        s.push_str(if first { "\n" } else { ",\n" });
        first = false;
        s.push_str(&format!(
            "    {{\"crate\": {}, \"rule\": {}, \"count\": {}}}",
            json_str(krate),
            json_str(rule),
            count
        ));
    }
    s.push_str(if first { "]\n" } else { "\n  ]\n" });
    s.push_str("}\n");
    s
}

/// Minimal JSON string encoder.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lints_detection() {
        assert!(has_workspace_lints(
            "[package]\nname=\"x\"\n[lints]\nworkspace = true\n"
        ));
        assert!(!has_workspace_lints("[package]\nname=\"x\"\n"));
        assert!(!has_workspace_lints("[lints.rust]\nworkspace = true\n"));
    }

    #[test]
    fn report_renders_valid_shape() {
        let mut o = AnalyzeOutcome {
            files_checked: 2,
            ..AnalyzeOutcome::default()
        };
        o.diagnostics.push(Diagnostic::new(
            "crates/x/src/a.rs",
            3,
            "units",
            "magic \"quote\" and \\ backslash",
        ));
        o.budget_counts
            .insert(("mplite".into(), "hot-cost".into()), 1);
        let r = render_report(&o);
        assert!(r.contains("\"files_checked\": 2"));
        assert!(r.contains("\"clean\": false"));
        assert!(r.contains("\\\"quote\\\""));
        assert!(r.contains("\\\\ backslash"));
        assert!(r.contains("\"count\": 1"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = render_report(&AnalyzeOutcome::default());
        assert!(r.contains("\"clean\": true"));
        assert!(r.contains("\"diagnostics\": []"));
        assert!(r.contains("\"budget\": []"));
    }

    #[test]
    fn report_lists_every_rule() {
        let r = render_report(&AnalyzeOutcome::default());
        for rule in RULES {
            assert!(r.contains(&format!("\"{rule}\"")), "missing {rule}");
        }
    }

    #[test]
    fn sources_round_trip_through_all_passes() {
        let out = analyze_sources(&[(
            "crates/hwmodel/src/x.rs",
            "pub fn bps(mhz: f64) -> f64 { mhz * 1e6 }\n",
        )]);
        assert_eq!(out.files_checked, 1);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, "units");
    }
}
