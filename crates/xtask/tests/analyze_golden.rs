//! Golden tests for `xtask analyze`: seeded fixture files must produce
//! exactly the expected `file:line: rule-id: message` output from the
//! per-file rules and the cross-file passes alike, clean counterparts
//! and the lexer edge-case fixture must trip nothing, the real workspace
//! must analyze clean (which also proves the checked-in budget matches
//! the live counts), and that budget may never rise above its seed
//! values.

use std::path::{Path, PathBuf};

use xtask::analyze::{analyze_sources, analyze_workspace};
use xtask::budget::Budget;

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
        format!("{rel}:3: unwrap: unwrap() in library code; propagate the error instead"),
        format!("{rel}:6: expect: expect() in library code; propagate the error instead"),
        format!("{rel}:9: panic: panic! in library code; return an error instead"),
        format!("{rel}:11: stale-allow: lint:allow(unwrap) has no matching violation; remove it"),
        format!("{rel}:13: bad-allow: malformed annotation; use `lint:allow(<rule>) -- <reason>`"),
        format!("{rel}:13: unwrap: unwrap() in library code; propagate the error instead"),
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
    let outcome = analyze_workspace(&root).expect("analyze runs");
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

/// A spec-conformant protocol machine split across two files — the
/// dual roles live in separate compilation units — must pass clean:
/// the duality check is genuinely cross-file.
#[test]
fn protocol_pair_split_across_files_is_clean() {
    let a = fixture("unit/protocol_pair_a.rs");
    let b = fixture("unit/protocol_pair_b.rs");
    let got = diags(&[
        ("crates/mplite/src/protocol_pair_a.rs", &a),
        ("crates/mplite/src/protocol_pair_b.rs", &b),
    ]);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn protocol_duality_violation_golden() {
    let a = fixture("unit/protocol_pair_a.rs");
    let bad = fixture("unit/protocol_pair_bad.rs");
    let got = diags(&[
        ("crates/mplite/src/protocol_pair_a.rs", &a),
        ("crates/mplite/src/protocol_pair_bad.rs", &bad),
    ]);
    let want = vec![
        "crates/mplite/src/protocol_pair_a.rs:4: protocol-duality: fixture.sender \
         receives `ack` but dual fixture.receiver never sends it"
            .to_string(),
        "crates/mplite/src/protocol_pair_bad.rs:4: protocol-duality: fixture.receiver \
         sends `nak` but dual fixture.sender never receives it"
            .to_string(),
    ];
    assert_eq!(got, want);
}

#[test]
fn protocol_transition_violation_golden() {
    let a = fixture("unit/protocol_pair_a.rs");
    let b = fixture("unit/protocol_pair_b.rs");
    let bad = fixture("unit/protocol_transition_bad.rs");
    let got = diags(&[
        ("crates/mplite/src/protocol_pair_a.rs", &a),
        ("crates/mplite/src/protocol_pair_b.rs", &b),
        ("crates/mplite/src/protocol_transition_bad.rs", &bad),
    ]);
    let want = vec![
        "crates/mplite/src/protocol_transition_bad.rs:5: protocol-transition: match arm \
         steps PairSend from `AwaitAck` to `Closing`, but fixture.sender declares no \
         `AwaitAck --…--> Closing` transition"
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

/// Acceptance gate: the real workspace analyzes clean — zero
/// un-annotated findings across every per-file rule and all three
/// cross-file passes, and the checked-in budget matches live counts.
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
/// the seed of its section. The per-file rules seeded with **no
/// entries** (every crate/rule pair at zero); the hot-cost sections
/// seeded at the burn-down inventory recorded when the hot-path pass
/// landed. Any entry above its floor — or any new section — is a
/// regression; entries may only shrink toward zero.
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
    // The rule inventory must list every family — the former `lint`
    // rules included — so CI can assert each pass ran.
    for rule in [
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
        "protocol-transition",
        "protocol-undeclared",
        "protocol-unreachable",
        "protocol-terminal",
        "protocol-duality",
        "hot-cost",
        "race-guarded-field",
        "marker-hygiene",
    ] {
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
    for rule in [
        "lock-order",
        "units",
        "protocol-duality",
        "protocol-transition",
    ] {
        assert!(text.contains(rule), "index missing {rule}: {text}");
    }
}
