//! The workspace analyze pass: the rules no compiler checks (units
//! hygiene), the manifest check, and the cross-file lock pass (lock
//! order, locks across blocking calls), with a machine-readable JSON
//! report for CI.

use std::fs;
use std::path::Path;

use crate::diag::Diagnostic;
use crate::flow::Flow;
use crate::locks::lock_findings;
use crate::model::WorkspaceModel;
use crate::rules::RULES;
use crate::units::units_findings;
use crate::walk::{collect_files, rel_str};

/// Result of analyzing a workspace.
#[derive(Debug, Default)]
pub struct AnalyzeOutcome {
    /// Every diagnostic to print, sorted by file/line.
    pub diagnostics: Vec<Diagnostic>,
    /// Files examined.
    pub files_checked: usize,
}

impl AnalyzeOutcome {
    /// Did the pass find anything?
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Analyze an in-memory file set (fixture tests). No manifest check —
/// just the units rule plus the lock pass.
pub fn analyze_sources(files: &[(&str, &str)]) -> AnalyzeOutcome {
    analyze_model(&WorkspaceModel::from_sources(files))
}

/// Analyze the workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> Result<AnalyzeOutcome, String> {
    let mut out = analyze_model(&WorkspaceModel::load(root)?);

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
    out.diagnostics.sort();
    Ok(out)
}

/// Shared core: run the units rule plus the lock pass over a loaded
/// model.
fn analyze_model(w: &WorkspaceModel) -> AnalyzeOutcome {
    let mut diagnostics = lock_findings(w, &Flow::build(w));
    for wf in &w.files {
        diagnostics.extend(units_findings(&wf.model, &wf.ctx));
    }
    diagnostics.sort();
    diagnostics.dedup();
    AnalyzeOutcome {
        diagnostics,
        files_checked: w.files.len(),
    }
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
        "]\n"
    } else {
        "\n  ]\n"
    });
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
        let r = render_report(&o);
        assert!(r.contains("\"files_checked\": 2"));
        assert!(r.contains("\"clean\": false"));
        assert!(r.contains("\\\"quote\\\""));
        assert!(r.contains("\\\\ backslash"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = render_report(&AnalyzeOutcome::default());
        assert!(r.contains("\"clean\": true"));
        assert!(r.contains("\"diagnostics\": []"));
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
