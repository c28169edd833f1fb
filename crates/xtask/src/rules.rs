//! The rule inventory.
//!
//! The per-file rules clippy checks by resolved name (determinism,
//! blocking calls, panic hygiene, print, dbg) live in `clippy.toml` and
//! in each crate root's `#![deny(..)]` (DESIGN.md §9); rustc owns the
//! `protocol!` machine rules and field race-freedom. `analyze` keeps
//! what no compiler sees: the manifest check, units hygiene, and the
//! two lock rules. Every finding is a diagnostic; there is no
//! suppression grammar.

/// Rule identifiers, used in diagnostics and the JSON report.
pub const RULES: &[&str] = &["lints-table", "lock-order", "lock-across-blocking", "units"];
