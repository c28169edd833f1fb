//! Workspace-native static analysis for the CLUSTER 2002 reproduction.
//!
//! The repo's two load-bearing invariants are **sim determinism** (the
//! discrete-event results are only meaningful because runs are exactly
//! reproducible) and **panic hygiene** (`mplite` and friends are real
//! libraries). Their per-file rules — no wall clocks, sleeps, ambient
//! RNGs or hash containers in sim crates; no `unwrap`/`expect`/`panic!`,
//! prints or `dbg!` in library code — are checked by clippy on resolved
//! names: `clippy.toml` plus one `#![deny(..)]` per crate root.
//!
//! One command, `cargo run -p xtask -- analyze`, runs what clippy
//! cannot:
//!
//! * `blocking-hygiene` (deadline-free socket calls in real-mode code),
//!   units hygiene, and nondeterminism dataflow;
//! * protocol conformance (declared `protospec::protocol!` tables vs.
//!   the match arms that step them), and — over one shared body walk
//!   and call graph ([`flow`]) — lock-order deadlock detection
//!   ([`locks`]), hot-path cost analysis ([`hotpath`], marker-declared
//!   hot entries with interprocedural allocation/lock/blocking
//!   inventories), and guarded-field consistency ([`races`]).
//!
//! Every finding flows through one annotation grammar and one budget
//! ([`rules::resolve`]). The command can emit a JSON report
//! (`--report OUT.json`) for CI and documents every rule via
//! `--explain RULE`.
//!
//! It is built on an in-tree lexer ([`lex`]) feeding a token-stream
//! file model ([`model`]) — no syn, no regex, no external dependencies
//! — so the tool builds instantly and works offline. String and char
//! literals are blanked and comments are side-channeled during lexing,
//! so rules never misfire inside `r#"…read_exact(…"#` or doc comments.
//!
//! See `DESIGN.md` ("Static analysis & invariants" and "Cross-file
//! analysis") for every rule id, its scope, and the
//! `// lint:allow(<rule>) -- <reason>` annotation grammar.

pub mod analyze;
pub mod budget;
pub mod context;
pub mod diag;
pub mod explain;
pub mod flow;
pub mod hotpath;
pub mod lex;
pub mod locks;
pub mod model;
pub mod nondet;
pub mod protocol;
pub mod races;
pub mod rules;
pub mod units;
pub mod walk;
