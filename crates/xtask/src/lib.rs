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
//! One command, `cargo run -p xtask -- analyze`, runs what neither can:
//!
//! * units hygiene ([`units`]) and the manifest `lints-table` check;
//! * over one shared body walk and call graph ([`flow`]): lock-order
//!   deadlock detection and locks held across blocking calls
//!   ([`locks`]), and guarded-field consistency ([`races`]).
//!
//! Protocol conformance is not here: a `protospec::protocol!` table is
//! checked by its own expansion, so rustc rejects a malformed machine
//! or an off-table step.
//!
//! Every finding flows through one annotation grammar
//! ([`rules::resolve`]). The command can emit a JSON report
//! (`--report OUT.json`) for CI and documents every rule via
//! `--explain RULE`.
//!
//! It is built on an in-tree lexer ([`lex`]) feeding a token-stream
//! file model ([`model`]) — no syn, no regex, no external dependencies
//! — so the tool builds instantly and works offline. String and char
//! literals are blanked and comments are side-channeled during lexing,
//! so rules never misfire inside `r#"…x * 1e6…"#` or doc comments.
//!
//! See `DESIGN.md` ("Static analysis & invariants" and "Cross-file
//! analysis") for every rule id, its scope, and the
//! `// lint:allow(<rule>) -- <reason>` annotation grammar.

pub mod analyze;
pub mod context;
pub mod diag;
pub mod explain;
pub mod flow;
pub mod lex;
pub mod locks;
pub mod model;
pub mod races;
pub mod rules;
pub mod units;
pub mod walk;
