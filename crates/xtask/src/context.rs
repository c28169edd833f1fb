//! File classification: which crate a source file belongs to and what
//! kind of target it is, which together decide the applicable rules.

/// Target kind of a source file, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**` outside `src/bin`).
    Lib,
    /// Binary code (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/**`).
    Test,
    /// Benchmarks (`benches/**`).
    Bench,
    /// Examples (`examples/**`).
    Example,
}

/// A classified source file.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate name (directory under `crates/`, or the root package name).
    pub crate_name: String,
    /// Target kind.
    pub kind: FileKind,
}

/// Name used for the workspace root package.
pub const ROOT_CRATE: &str = "netpipe-rs";

/// Sim crates: the determinism rule family applies to their library code.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "hwmodel",
    "protosim",
    "mpsim",
    "clusterlab",
    "collectives",
    "tracelab",
];

/// Library crates: the panic-hygiene rule family applies to their
/// library code.
pub const PANIC_CRATES: &[&str] = &[
    "collectives",
    "faultlab",
    "mplite",
    "netpipe",
    "protosim",
    "protospec",
    "tracelab",
];

/// Real-mode crates: library code that touches genuine kernel sockets.
/// The `blocking-hygiene` rule bans deadline-free blocking socket calls
/// here — a dead peer must never hang a sweep forever. `faultlab` is in
/// scope too: it *implements* the deadline wrappers, and its one
/// unavoidable raw call carries an annotated allowance.
pub const REAL_CRATES: &[&str] = &["faultlab", "mplite", "netpipe"];

/// Crates whose library code is allowed to print (reporting/tooling
/// crates whose whole purpose is console output).
pub const PRINT_EXEMPT_CRATES: &[&str] = &["bench", "xtask"];

/// Classify a workspace-relative, slash-separated path. Returns `None`
/// for paths the linter does not govern.
pub fn classify(rel: &str) -> Option<FileCtx> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest): (String, &[&str]) = if parts.first() == Some(&"crates") {
        if parts.len() < 3 {
            return None;
        }
        (parts[1].to_string(), &parts[2..])
    } else {
        (ROOT_CRATE.to_string(), &parts[..])
    };
    let kind = match rest.first().copied() {
        Some("src") => {
            if rest.get(1) == Some(&"bin") || rest.get(1) == Some(&"main.rs") {
                FileKind::Bin
            } else {
                FileKind::Lib
            }
        }
        Some("tests") => FileKind::Test,
        Some("benches") => FileKind::Bench,
        Some("examples") => FileKind::Example,
        _ => return None,
    };
    Some(FileCtx { crate_name, kind })
}

impl FileCtx {
    /// Does the determinism family apply to this file?
    pub fn determinism_scope(&self) -> bool {
        self.kind == FileKind::Lib && SIM_CRATES.contains(&self.crate_name.as_str())
    }

    /// Does the panic-hygiene family apply to this file?
    pub fn panic_scope(&self) -> bool {
        self.kind == FileKind::Lib && PANIC_CRATES.contains(&self.crate_name.as_str())
    }

    /// Does the trace-hygiene rule apply to this file? Simulation crates
    /// may only stamp trace records with `SimTime`; `tracelab` itself is
    /// exempt because it *implements* the wall-clock recorder (behind its
    /// own annotated `wall-clock` allowances).
    pub fn trace_hygiene_scope(&self) -> bool {
        self.determinism_scope() && self.crate_name != "tracelab"
    }

    /// Does the `blocking-hygiene` rule apply to this file? Real-mode
    /// library code must bound every potentially-blocking socket call
    /// with a deadline (`faultlab::io`).
    pub fn blocking_scope(&self) -> bool {
        self.kind == FileKind::Lib && REAL_CRATES.contains(&self.crate_name.as_str())
    }

    /// Does the no-print rule apply to this file?
    pub fn print_scope(&self) -> bool {
        self.kind == FileKind::Lib && !PRINT_EXEMPT_CRATES.contains(&self.crate_name.as_str())
    }

    /// Does the no-dbg rule apply (all non-test code)?
    pub fn dbg_scope(&self) -> bool {
        !matches!(self.kind, FileKind::Test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_crate_paths() {
        let c = classify("crates/simcore/src/engine.rs").expect("classified");
        assert_eq!(c.crate_name, "simcore");
        assert_eq!(c.kind, FileKind::Lib);
        assert!(c.determinism_scope());
        assert!(!c.panic_scope());

        let c = classify("crates/mplite/src/comm.rs").expect("classified");
        assert!(c.panic_scope());
        assert!(!c.determinism_scope());

        let c = classify("crates/protosim/src/tcp.rs").expect("classified");
        assert!(c.panic_scope());
        assert!(c.determinism_scope());
    }

    #[test]
    fn blocking_scope_covers_real_mode_lib_code_only() {
        assert!(classify("crates/mplite/src/comm.rs")
            .expect("classified")
            .blocking_scope());
        assert!(classify("crates/netpipe/src/real_tcp.rs")
            .expect("classified")
            .blocking_scope());
        assert!(classify("crates/faultlab/src/io.rs")
            .expect("classified")
            .blocking_scope());
        // Sim crates never block on sockets; tests may block freely.
        assert!(!classify("crates/protosim/src/tcp.rs")
            .expect("classified")
            .blocking_scope());
        assert!(!classify("crates/mplite/tests/t.rs")
            .expect("classified")
            .blocking_scope());
    }

    #[test]
    fn classifies_target_kinds() {
        assert_eq!(
            classify("crates/clusterlab/src/bin/probe.rs").map(|c| c.kind),
            Some(FileKind::Bin)
        );
        assert_eq!(
            classify("crates/simcore/tests/proptests.rs").map(|c| c.kind),
            Some(FileKind::Test)
        );
        assert_eq!(
            classify("crates/bench/benches/figures.rs").map(|c| c.kind),
            Some(FileKind::Bench)
        );
        assert_eq!(
            classify("examples/quickstart.rs").map(|c| c.kind),
            Some(FileKind::Example)
        );
        assert_eq!(classify("src/lib.rs").map(|c| c.kind), Some(FileKind::Lib));
        assert_eq!(
            classify("tests/ablations.rs").map(|c| c.kind),
            Some(FileKind::Test)
        );
    }

    #[test]
    fn sim_tests_and_bins_are_out_of_determinism_scope() {
        assert!(!classify("crates/simcore/tests/proptests.rs")
            .expect("classified")
            .determinism_scope());
        assert!(!classify("crates/clusterlab/src/bin/probe.rs")
            .expect("classified")
            .determinism_scope());
    }
}
