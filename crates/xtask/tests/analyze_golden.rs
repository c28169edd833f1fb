//! Golden tests for `xtask analyze`: seeded fixture files must produce
//! exactly the expected `file:line: rule-id: message` output from the
//! per-file rules and the cross-file passes alike, clean counterparts
//! and the lexer edge-case fixture must trip nothing, the real workspace
//! must analyze clean (which also proves the checked-in budget matches
//! the live counts), and that budget may never rise above its seed
//! values. The per-file rules clippy owns are gated by the clippy
//! fixture crate (`fixtures/clippy`) instead.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_sources, analyze_workspace};
use xtask::budget::Budget;
use xtask::context::SIM_CRATES;
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

/// Run a unit fixture as if it lived at `rel_path` in the real tree.
fn diags_for(rel_path: &str, fixture_name: &str) -> Vec<String> {
    diags(&[(rel_path, &fixture(fixture_name))])
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

/// An old-style annotation for a rule clippy now owns is stale, not a
/// silent no-op: were `expect` or `wall-clock` still live here, each
/// allow would be consumed and this golden would come back empty.
#[test]
fn migrated_rule_allow_is_stale_golden() {
    let rel = "crates/protosim/src/fixture.rs";
    let got = diags_for(rel, "unit/migrated_allow.rs");
    let want = vec![
        format!("{rel}:4: stale-allow: lint:allow(expect) has no matching violation; remove it"),
        format!(
            "{rel}:7: stale-allow: lint:allow(wall-clock) has no matching violation; remove it"
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn fixture_tree_end_to_end() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree");
    let outcome = analyze_workspace(&root).expect("analyze runs");
    assert!(!outcome.clean());
    assert_eq!(outcome.files_checked, 2);
    // simcore/units: live count 1 is inside its budget of 1.
    assert_eq!(
        outcome
            .budget_counts
            .get(&("simcore".into(), "units".into())),
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
        "crates/mplite/src/lib.rs:5: blocking-hygiene: deadline-free blocking `read_exact` in real-mode code; use faultlab::io::read_exact_deadline"
            .to_string(),
        "lint-budget.toml:0: budget: mplite/hot-cost: budget 2 is stale, live count is 0; remove the entry"
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

#[test]
fn nondet_violations_golden() {
    let src = fixture("unit/nondet_violations.rs");
    let rel = "crates/mplite/src/fixture.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![
        format!(
            "{rel}:6: nondet-wall-clock: wall-clock read outside the real-mode clock \
             modules; take timestamps as parameters or move this into the driver/deadline layer"
        ),
        format!(
            "{rel}:16: nondet-hash-iter: iteration over HashMap/HashSet binding `m` has \
             nondeterministic order; use BTreeMap/BTreeSet or collect and sort"
        ),
    ];
    assert_eq!(got, want);
}

#[test]
fn nondet_clean_is_silent() {
    let src = fixture("unit/nondet_clean.rs");
    let got = diags(&[("crates/mplite/src/fixture.rs", &src)]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn float_reduction_golden_in_sim_code() {
    let src = "pub fn mean(xs: &[f64]) -> f64 {\n    xs.iter().sum()\n}\n";
    let got = diags(&[("crates/simcore/src/fixture.rs", src)]);
    let want = vec![
        "crates/simcore/src/fixture.rs:2: nondet-float-reduction: order-sensitive float \
         reduction `.sum` in sim code; use simcore::stats::OnlineStats or a fixed-order loop"
            .to_string(),
    ];
    assert_eq!(got, want);
}

/// A hot chain three levels deep, with two call sites reaching the
/// middle hop: the allocation in the leaf is reported exactly once,
/// with the full entry -> middle -> leaf path in the message.
#[test]
fn hot_chain_three_deep_golden_reports_once_with_full_path() {
    let src = fixture("unit/hot_chain.rs");
    let rel = "crates/mplite/src/hot_chain.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![format!(
        "{rel}:16: hot-cost: hot-path allocation `Vec::new` reachable from `entry` via \
         entry -> middle -> leaf; hoist it off the hot path or annotate \
         `lint:allow(hot-cost) -- <reason>`"
    )];
    assert_eq!(got, want);
}

/// The call graph resolves by shape, not by bare name: `wire::send(` is
/// the free function in module `wire`, never the method `Other::send`
/// that shares its name (nor, through it, `Other::new`). Only the free
/// function's allocation is reported, with the true chain.
#[test]
fn hot_free_fn_call_never_resolves_to_a_method_golden() {
    let src = fixture("unit/hot_resolver.rs");
    let rel = "crates/mplite/src/hot_resolver.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![format!(
        "{rel}:12: hot-cost: hot-path allocation `.to_vec()` reachable from `entry` via \
         entry -> send; hoist it off the hot path or annotate \
         `lint:allow(hot-cost) -- <reason>`"
    )];
    assert_eq!(got, want);
}

/// A well-formed hot-cost allow with no finding on its line or the
/// next is stale like any other annotation: `stale-allow`, not silence.
#[test]
fn stale_hot_alloc_allow_golden() {
    let src = fixture("unit/hot_stale_allow.rs");
    let rel = "crates/mplite/src/hot_stale_allow.rs";
    let got = diags(&[(rel, &src)]);
    let want = vec![format!(
        "{rel}:10: stale-allow: lint:allow(hot-cost) has no matching violation; remove it"
    )];
    assert_eq!(got, want);
}

/// A field guarded in one file and bare in another, both on
/// thread-reachable paths: one finding, at the bare site, naming the
/// guarded site across the file boundary.
#[test]
fn race_guarded_field_pair_across_files_golden() {
    let a = fixture("unit/race_pair_a.rs");
    let b = fixture("unit/race_pair_b.rs");
    let got = diags(&[
        ("crates/mplite/src/race_pair_a.rs", &a),
        ("crates/mplite/src/race_pair_b.rs", &b),
    ]);
    let want = vec![
        "crates/mplite/src/race_pair_b.rs:5: race-guarded-field: field `mplite::count` \
         accessed bare in `reader` but under guard on `mplite::state` at \
         crates/mplite/src/race_pair_a.rs:11 in `writer`; both are reachable from thread \
         spawn sites — take the lock here too, or annotate \
         `lint:allow(race-guarded-field) -- <reason>`"
            .to_string(),
    ];
    assert_eq!(got, want);
}

/// The condvar idiom — guard passed into `wait`, notify calls, atomic
/// ops — must survive the whole pipeline clean: no lock-across-blocking,
/// no race-guarded-field, no hot-cost.
#[test]
fn condvar_style_fixture_is_clean_end_to_end() {
    let src = fixture("unit/race_condvar_clean.rs");
    let got = diags(&[("crates/mplite/src/race_condvar_clean.rs", &src)]);
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

/// `SIM_CRATES` scopes the nondet pass; each crate root's `#![deny(..)]`
/// scopes clippy's determinism bans. The two must name the same crates.
#[test]
fn sim_crates_are_the_crate_roots_denying_the_determinism_bans() {
    let crates = workspace_root().join("crates");
    for entry in std::fs::read_dir(&crates).expect("crates/ lists") {
        let dir = entry.expect("dir entry").path();
        let Ok(root) = std::fs::read_to_string(dir.join("src/lib.rs")) else {
            continue;
        };
        let name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .expect("utf-8 name");
        assert_eq!(
            root.contains("clippy::disallowed_methods")
                && root.contains("clippy::disallowed_types"),
            SIM_CRATES.contains(&name),
            "{name}: crate root and SIM_CRATES disagree"
        );
    }
}

/// Acceptance gate: the real workspace analyzes clean — zero
/// un-annotated findings across every rule `analyze` owns, and the
/// checked-in budget matches live counts.
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

/// The ratchet floor: no budget entry may ever rise above its value at
/// the seed of its section. The `units` rule seeded with **no entries**
/// (every crate at zero); the hot-cost sections seeded at the burn-down
/// inventory recorded when the hot-path pass landed. Any entry above its
/// floor — or any new section — is a regression; entries may only shrink
/// toward zero.
#[test]
fn budget_never_exceeds_seed() {
    const SEED: &[(&str, &str, usize)] = &[
        ("collectives", "hot-cost", 21),
        ("mplite", "hot-cost", 2),
        ("mpsim", "hot-cost", 35),
        ("protosim", "hot-cost", 2),
    ];
    let text = std::fs::read_to_string(workspace_root().join("lint-budget.toml"))
        .expect("budget file exists");
    let budget = Budget::parse(&text).expect("budget parses");
    for (krate, rule, n) in budget.keys() {
        let seed = SEED
            .iter()
            .find(|(k, r, _)| *k == krate && *r == rule)
            .map_or(0, |(_, _, n)| *n);
        assert!(
            n <= seed,
            "{krate}/{rule}: budget {n} exceeds seed value {seed}"
        );
    }
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
    for rule in ["lock-order", "units", "hot-cost", "race-guarded-field"] {
        assert!(text.contains(rule), "index missing {rule}: {text}");
    }
    // The 14 rules `analyze` owns: not one of those clippy took over,
    // nor a `protocol-*` rule (rustc checks a `protocol!` machine).
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    assert_eq!((listed.len(), &listed[..]), (14, RULES), "{text}");
    for gone in
        "wall-clock sleep ambient-rng hash-container trace-hygiene unwrap expect panic print dbg"
            .split(' ')
    {
        assert!(!listed.contains(&gone), "index lists {gone}: {text}");
    }
    assert!(
        !listed.iter().any(|r| r.starts_with("protocol-")),
        "index lists a protocol rule: {text}"
    );
}
