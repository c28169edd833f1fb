//! Workspace-native static analysis for the CLUSTER 2002 reproduction.
//!
//! One command, `cargo run -p xtask -- analyze`, runs one pipeline:
//!
//! * the per-file rules enforce the repo's two load-bearing invariants
//!   mechanically — **sim determinism** (sim crates must not read wall
//!   clocks, sleep, use ambient RNGs, or iterate hash containers; the
//!   discrete-event results are only meaningful because runs are
//!   exactly reproducible) and **panic hygiene** (`mplite` and friends
//!   are real libraries, so `unwrap`/`expect`/`panic!` in library code
//!   is burned down via a checked-in ratcheting budget);
//! * the cross-file passes add units hygiene, nondeterminism dataflow,
//!   protocol conformance (declared `protospec::protocol!` tables vs.
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
//! so rules never misfire inside `r#"…unwrap()…"#` or doc comments.
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
