//! Golden-diagnostic tests: seeded fixture files must produce exactly
//! the expected `file:line: rule-id: message` output, clean counterparts
//! must produce nothing, and the real workspace must lint clean (which
//! also proves the checked-in budget matches the live counts).

use std::path::{Path, PathBuf};

use xtask::context::classify;
use xtask::lint::lint_workspace;
use xtask::rules::check_file;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Run a unit fixture as if it lived at `rel_path` in the real tree.
fn diags_for(rel_path: &str, fixture_name: &str) -> Vec<String> {
    let ctx = classify(rel_path).expect("classifiable path");
    let src = fixture(fixture_name);
    let report = check_file(rel_path, &src, &ctx);
    let mut out: Vec<String> = report
        .diagnostics
        .iter()
        .chain(report.budgeted.iter())
        .map(ToString::to_string)
        .collect();
    out.sort();
    out
}

#[test]
fn sim_violations_golden() {
    let rel = "crates/simcore/src/fixture.rs";
    let got = diags_for(rel, "unit/sim_violations.rs");
    let want = vec![
        format!("{rel}:2: wall-clock: wall-clock read in sim code; use the simulated clock (Engine::now)"),
        format!("{rel}:3: hash-container: HashMap/HashSet in sim code has nondeterministic iteration order; use BTreeMap/BTreeSet or sort explicitly"),
        format!("{rel}:6: wall-clock: wall-clock read in sim code; use the simulated clock (Engine::now)"),
        format!("{rel}:7: sleep: thread::sleep in sim code; schedule an event instead"),
        format!("{rel}:8: hash-container: HashMap/HashSet in sim code has nondeterministic iteration order; use BTreeMap/BTreeSet or sort explicitly"),
        format!("{rel}:9: ambient-rng: ambient RNG in sim code; route randomness through SimRng"),
    ];
    assert_eq!(got, want);
}

#[test]
fn sim_clean_is_silent() {
    let got = diags_for("crates/simcore/src/fixture.rs", "unit/sim_clean.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn trace_violations_golden() {
    let rel = "crates/mpsim/src/fixture.rs";
    let got = diags_for(rel, "unit/trace_violations.rs");
    let msg = "trace-hygiene: wall-clock tracing API in sim code; \
               stamp trace records with SimTime (tracelab::Tracer)";
    let want = vec![
        format!("{rel}:3: {msg}"),
        format!("{rel}:5: {msg}"),
        format!("{rel}:6: {msg}"),
        format!("{rel}:7: {msg}"),
        format!("{rel}:8: {msg}"),
    ];
    assert_eq!(got, want);
}

#[test]
fn trace_clean_is_silent() {
    let got = diags_for("crates/mpsim/src/fixture.rs", "unit/trace_clean.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn tracelab_itself_is_exempt_from_trace_hygiene() {
    // The crate that implements the wall-clock recorder must be able to
    // name its own API without tripping the rule meant for everyone else.
    let got = diags_for("crates/tracelab/src/fixture.rs", "unit/trace_violations.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn blocking_violations_golden() {
    let rel = "crates/netpipe/src/fixture.rs";
    let got = diags_for(rel, "unit/blocking_violations.rs");
    let want = vec![
        format!("{rel}:3: blocking-hygiene: deadline-free blocking `read_exact` in real-mode code; use faultlab::io::read_exact_deadline"),
        format!("{rel}:4: blocking-hygiene: deadline-free blocking `write_all` in real-mode code; use faultlab::io::write_all_deadline"),
        format!("{rel}:5: blocking-hygiene: deadline-free blocking `accept` in real-mode code; use faultlab::io::accept_deadline"),
    ];
    assert_eq!(got, want);
}

#[test]
fn blocking_clean_is_silent() {
    let got = diags_for("crates/mplite/src/fixture.rs", "unit/blocking_clean.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn blocking_rule_ignores_sim_crates() {
    let got = diags_for(
        "crates/protosim/src/fixture.rs",
        "unit/blocking_violations.rs",
    );
    // The annotated allow is stale there (the rule never fires), which is
    // exactly why the fixture must not be linted under a sim path in the
    // real tree — but the blocking findings themselves must be absent.
    assert!(
        got.iter().all(|d| !d.contains("blocking-hygiene:")),
        "{got:?}"
    );
}

#[test]
fn panic_violations_golden() {
    let rel = "crates/mplite/src/fixture.rs";
    let got = diags_for(rel, "unit/panic_violations.rs");
    let want = vec![
        format!("{rel}:11: stale-allow: lint:allow(unwrap) has no matching violation; remove it"),
        format!("{rel}:13: bad-allow: malformed annotation; use `lint:allow(<rule>) -- <reason>`"),
        format!("{rel}:13: unwrap: unwrap() in library code; propagate the error instead"),
        format!("{rel}:3: unwrap: unwrap() in library code; propagate the error instead"),
        format!("{rel}:6: expect: expect() in library code; propagate the error instead"),
        format!("{rel}:9: panic: panic! in library code; return an error instead"),
    ];
    assert_eq!(got, want);
}

#[test]
fn panic_clean_is_silent() {
    let got = diags_for("crates/mplite/src/fixture.rs", "unit/panic_clean.rs");
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn fixture_tree_end_to_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let outcome = lint_workspace(&root).expect("lint runs");
    assert!(!outcome.clean());
    assert_eq!(outcome.files_checked, 2);
    // mplite/unwrap: live count 1 is inside its budget of 1.
    assert_eq!(
        outcome
            .budget_counts
            .get(&("mplite".into(), "unwrap".into())),
        Some(&1)
    );
    let got: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect();
    let want = vec![
        "crates/mplite/Cargo.toml:0: lints-table: crate does not declare `[lints] workspace = true`"
            .to_string(),
        "crates/simcore/src/lib.rs:3: trace-hygiene: wall-clock tracing API in sim code; stamp trace records with SimTime (tracelab::Tracer)"
            .to_string(),
        "crates/simcore/src/lib.rs:3: wall-clock: wall-clock read in sim code; use the simulated clock (Engine::now)"
            .to_string(),
        "crates/simcore/src/lib.rs:4: wall-clock: wall-clock read in sim code; use the simulated clock (Engine::now)"
            .to_string(),
        "lint-budget.toml:0: budget: mplite/expect: budget 2 is stale, live count is 0; remove the entry"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn binary_exit_codes() {
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["lint", "--root"])
        .arg(&tree)
        .output()
        .expect("xtask binary runs");
    assert_eq!(out.status.code(), Some(1), "violations exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("lints-table"), "{stdout}");
    assert!(stdout.contains("violation(s)"), "{stdout}");

    let usage = std::process::Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("no-such-command")
        .output()
        .expect("xtask binary runs");
    assert_eq!(usage.status.code(), Some(2), "usage errors exit 2");
}

/// The real workspace must be clean: no violations, no stale budget.
/// A clean outcome proves every budget entry equals its live count.
#[test]
fn real_workspace_is_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let outcome = lint_workspace(&root).expect("lint runs");
    let msgs: Vec<String> = outcome
        .diagnostics
        .iter()
        .map(ToString::to_string)
        .collect();
    assert!(
        outcome.clean(),
        "workspace lint found:\n{}",
        msgs.join("\n")
    );
}
