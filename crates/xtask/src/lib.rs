//! Workspace-native static analysis for the CLUSTER 2002 reproduction.
//!
//! The repo's load-bearing invariants are **sim determinism** (the
//! discrete-event results are only meaningful because runs are exactly
//! reproducible), **panic hygiene** (`mplite` and friends are real
//! libraries) and **liveness** (a real-mode call never waits on a dead
//! peer forever). Their per-file rules — no wall clocks, sleeps, ambient
//! RNGs, hash containers or hash-order iteration in sim crates; no
//! deadline-free `read_exact`/`write_all`/`accept`, clock reads or
//! sleeps outside the real-mode clock owners; no `unwrap`/`expect`/
//! `panic!`, prints or `dbg!` in library code — are checked by clippy
//! on resolved names: `clippy.toml` plus one `#![deny(..)]` per crate
//! root. What the hot path costs is measured, not guessed: the root
//! test `tests/alloc_gate.rs` counts its allocations.
//!
//! One command, `cargo run -p xtask -- analyze`, runs what neither can,
//! the four rules in [`rules::RULES`]:
//!
//! * units hygiene ([`units`]) and the manifest `lints-table` check;
//! * over one body walk and call graph ([`flow`]): lock-order deadlock
//!   detection and locks held across blocking calls ([`locks`]).
//!
//! What rustc already rejects is not here: a `protospec::protocol!`
//! table is checked by its own expansion, and field race-freedom is the
//! borrow checker's (`unsafe_code` is denied, so a field shared across
//! threads is written only through `&mut` or a `Sync` cell).
//!
//! Every finding is a diagnostic; there is no suppression grammar. The
//! command can emit a JSON report (`--report OUT.json`) for CI and
//! documents every rule via `--explain RULE`.
//!
//! It is built on an in-tree lexer ([`lex`]) feeding a token-stream
//! file model ([`model`]) — no syn, no regex, no external dependencies
//! — so the tool builds instantly and works offline. String and char
//! literals are blanked and comments are side-channeled during lexing,
//! so rules never misfire inside `r#"…x * 1e6…"#` or doc comments.
//!
//! See `DESIGN.md` ("Static analysis & invariants" and "Cross-file
//! analysis") for every rule id and its scope.

pub mod analyze;
pub mod context;
pub mod diag;
pub mod explain;
pub mod flow;
pub mod lex;
pub mod locks;
pub mod model;
pub mod rules;
pub mod units;
pub mod walk;
