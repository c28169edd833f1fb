//! Golden tests for `xtask analyze`: seeded fixture files must produce
//! exactly the expected `file:line: rule-id: message` output from the
//! units rule and the cross-file lock pass alike, clean counterparts
//! and the lexer edge-case fixture must trip nothing, and the real
//! workspace must analyze clean. The per-file rules clippy owns are
//! gated by the clippy fixture crate (`fixtures/clippy`) instead.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_sources, analyze_workspace};
use xtask::rules::RULES;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn diags(files: &[(&str, &str)]) -> Vec<String> {
    analyze_sources(files)
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect()
}

#[test]
fn fixture_tree_end_to_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let outcome = analyze_workspace(&root).expect("analyze runs");
    assert!(!outcome.clean());
    assert_eq!(outcome.files_checked, 2);
    let got: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect();
    let want = vec![
        "crates/mplite/Cargo.toml:0: lints-table: crate does not declare `[lints] workspace = true`"
            .to_string(),
        "crates/simcore/src/lib.rs:4: units: magic unit-conversion constant `1e6` in arithmetic; \
         use simcore::units / SimDuration helpers"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn lock_cycle_golden_names_both_sites() {
    let a = fixture("unit/lock_cycle_a.rs");
    let b = fixture("unit/lock_cycle_b.rs");
    let got = diags(&[
        ("crates/mplite/src/lock_cycle_a.rs", &a),
        ("crates/mplite/src/lock_cycle_b.rs", &b),
    ]);
    let want = vec![
        "crates/mplite/src/lock_cycle_a.rs:14: lock-order: lock-order cycle: \
         `mplite::first` -> `mplite::second` at crates/mplite/src/lock_cycle_a.rs:14, \
         `mplite::second` -> `mplite::first` at crates/mplite/src/lock_cycle_b.rs:9; \
         acquire locks in a consistent order"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn lock_consistent_order_is_silent() {
    let src = fixture("unit/lock_clean.rs");
    let got = diags(&[("crates/mplite/src/lock_clean.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn lock_across_blocking_golden() {
    let src = "impl Port {\n    pub fn drain(&self) {\n        let st = self.state.lock();\n        let n = read_exact_deadline(&self.sock);\n        drop(st);\n        finish(n);\n    }\n}\n";
    let got = diags(&[("crates/mplite/src/fixture.rs", src)]);
    let want = vec![
        "crates/mplite/src/fixture.rs:4: lock-across-blocking: guard on `mplite::state` \
         (acquired line 3) held across blocking `read_exact_deadline`; drop the guard first"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn units_violations_golden() {
    let src = fixture("unit/units_violations.rs");
    let rel = "crates/hwmodel/src/fixture.rs";
    let got = diags(&[(rel, &src)]);
    let magic = "units: magic unit-conversion constant";
    let tail = "in arithmetic; use simcore::units / SimDuration helpers";
    let want = vec![
        format!("{rel}:4: {magic} `1e6` {tail}"),
        format!("{rel}:4: {magic} `8.0` {tail}"),
        format!("{rel}:8: {magic} `1e-6` {tail}"),
        format!(
            "{rel}:8: units: raw unit cast in time/rate arithmetic; \
             use SimDuration::for_bytes / simcore::units helpers"
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn units_clean_is_silent() {
    let src = fixture("unit/units_clean.rs");
    let got = diags(&[("crates/hwmodel/src/fixture.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

/// The lexer edge-case fixture — raw strings full of rule triggers,
/// nested block comments, `b'\''` byte chars, doc comments naming
/// panic! — must trip nothing under any crate's rule set.
#[test]
fn lexer_edge_cases_trip_no_rule_anywhere() {
    let src = fixture("unit/lexer_edge_cases.rs");
    for rel in [
        "crates/simcore/src/fixture.rs",
        "crates/mplite/src/fixture.rs",
        "crates/netpipe/src/fixture.rs",
        "crates/protosim/src/fixture.rs",
    ] {
        let got = diags(&[(rel, &src)]);
        assert!(got.is_empty(), "{rel}: {got:?}");
    }
}

/// Acceptance gate: the real workspace analyzes clean — zero findings
/// across every rule `analyze` owns.
#[test]
fn real_workspace_analyzes_clean() {
    let outcome = analyze_workspace(&workspace_root()).expect("analyze runs");
    let msgs: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect();
    assert!(
        outcome.clean(),
        "workspace analyze found:\n{}",
        msgs.join("\n")
    );
}

#[test]
fn analyze_binary_report_and_exit_codes() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let report = std::env::temp_dir().join(format!("analyze-report-{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--root"])
        .arg(&tree)
        .arg("--report")
        .arg(&report)
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations exit 1");
    // The report is written even when dirty, and is valid JSON as far
    // as our own parser-free checks go: key fields present, balanced.
    let json = std::fs::read_to_string(&report).expect("report written");
    std::fs::remove_file(&report).ok();
    assert!(json.contains("\"tool\": \"xtask-analyze\""), "{json}");
    assert!(json.contains("\"clean\": false"), "{json}");
    assert!(json.contains("\"rule\": \"lints-table\""), "{json}");
    // The rule inventory must list every rule so CI can assert each
    // pass ran.
    for rule in RULES {
        assert!(json.contains(&format!("\"{rule}\"")), "{rule}: {json}");
    }
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces: {json}"
    );

    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violation(s)"), "{stdout}");

    // `analyze` is the only command: the retired `lint` spelling, like
    // any unknown command, and a missing root are usage/IO errors.
    for args in [
        &["lint"][..],
        &["no-such-command"],
        &["analyze", "--root", "/nonexistent"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(args)
            .output()
            .expect("xtask binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} exits 2");
    }

    let explain = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--explain", "lock-order"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(explain.status.code(), Some(0), "--explain exits 0");
    let text = String::from_utf8_lossy(&explain.stdout);
    assert!(text.starts_with("lock-order"), "{text}");

    let unknown = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--explain", "no-such-rule"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(unknown.status.code(), Some(2), "unknown rule exits 2");

    // Bare --explain is the rule index, not an error.
    let index = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["analyze", "--explain"])
        .output()
        .expect("xtask binary runs");
    assert_eq!(index.status.code(), Some(0), "bare --explain exits 0");
    let text = String::from_utf8_lossy(&index.stdout);
    // Exactly the 4 rules `analyze` owns, in inventory order; every
    // other rule has an owner that resolves names (clippy, rustc) or
    // measures (the allocation gate).
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    assert_eq!(listed, RULES, "{text}");
    assert_eq!(
        RULES,
        ["lints-table", "lock-order", "lock-across-blocking", "units"]
    );
}
