//! `cargo run -p xtask -- <command>`: workspace automation.

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::analyze::{analyze_workspace, render_report, write_budget};
use xtask::explain::explain;

const USAGE: &str = "\
usage: cargo run -p xtask -- analyze [options]

  analyze         the static analysis clippy cannot do: blocking
                  hygiene, units hygiene, nondeterminism dataflow,
                  manifest lints tables, and the cross-file passes
                  (lock order, protocol conformance, hot-path cost,
                  guarded-field consistency)
    --root <dir>      analyze a different tree (default: this workspace)
    --report <file>   also write a machine-readable JSON report
    --write-budget    rewrite lint-budget.toml to match live counts
    --explain [rule]  print one rule's documentation page; with no rule,
                      list every rule with a one-line summary

Exits 0 when clean, 1 on violations, 2 on usage/IO errors. Rule ids,
scopes, and the annotation grammar are documented in DESIGN.md
(\"Static analysis & invariants\" and \"Cross-file analysis\").";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze_cmd(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn analyze_cmd(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut write = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            opt @ ("--root" | "--report") => match it.next() {
                Some(p) if opt == "--root" => root = Some(PathBuf::from(p)),
                Some(p) => report = Some(PathBuf::from(p)),
                None => {
                    eprintln!("{opt} needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--write-budget" => write = true,
            "--explain" => {
                return match it.next() {
                    // Bare `--explain` lists every rule with a one-line
                    // summary instead of erroring.
                    None => {
                        println!("{}", xtask::explain::index());
                        ExitCode::SUCCESS
                    }
                    Some(r) => match explain(r) {
                        Some(doc) => {
                            println!("{doc}");
                            ExitCode::SUCCESS
                        }
                        None => {
                            eprintln!("--explain: unknown rule id `{r}`\n");
                            eprintln!("{}", xtask::explain::index());
                            ExitCode::from(2)
                        }
                    },
                };
            }
            other => {
                eprintln!("unknown option {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.unwrap_or_else(workspace_root);

    let outcome = match analyze_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if write {
        if let Err(e) = write_budget(&root, &outcome) {
            eprintln!("xtask analyze: {e}");
            return ExitCode::from(2);
        }
        println!("lint-budget.toml updated");
    }
    if let Some(path) = &report {
        // The report is written clean or dirty — CI uploads it either way.
        if let Err(e) = std::fs::write(path, render_report(&outcome)) {
            eprintln!("xtask analyze: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    for d in &outcome.diagnostics {
        println!("{d}");
    }
    if outcome.clean() {
        println!("xtask analyze: {} files clean", outcome.files_checked);
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask analyze: {} violation(s) in {} files checked",
            outcome.diagnostics.len(),
            outcome.files_checked
        );
        ExitCode::FAILURE
    }
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .map(PathBuf::from)
        .unwrap_or(manifest)
}
