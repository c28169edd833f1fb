//! File classification: which crate a source file belongs to and
//! whether it is library code, which together decide the applicable
//! rules.

/// A classified source file.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate name (directory under `crates/`, or the root package name).
    pub crate_name: String,
    /// Library code (`src/**` outside `src/bin` and `src/main.rs`), the
    /// scope of every per-file and body rule? Binaries, tests, benches
    /// and examples still carry annotations and `protocol!` machines.
    pub lib: bool,
}

/// Name used for the workspace root package.
pub const ROOT_CRATE: &str = "netpipe-rs";

/// Sim crates. Their crate roots deny clippy's determinism bans
/// (`clippy.toml`); here they scope `nondet-float-reduction` (sim code)
/// and `nondet-hash-iter` (everything else). A golden test holds this
/// list and the crate roots to each other.
pub const SIM_CRATES: &[&str] = &[
    "simcore",
    "hwmodel",
    "protosim",
    "mpsim",
    "clusterlab",
    "collectives",
    "tracelab",
];

/// Real-mode crates: library code that touches genuine kernel sockets.
/// The `blocking-hygiene` rule bans deadline-free blocking socket calls
/// here — a dead peer must never hang a sweep forever. `faultlab` is in
/// scope too: it *implements* the deadline wrappers, and its one
/// unavoidable raw call carries an annotated allowance.
pub const REAL_CRATES: &[&str] = &["faultlab", "mplite", "netpipe"];

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
    let lib = match rest.first().copied() {
        Some("src") => !matches!(rest.get(1).copied(), Some("bin" | "main.rs")),
        Some("tests" | "benches" | "examples") => false,
        _ => return None,
    };
    Some(FileCtx { crate_name, lib })
}

impl FileCtx {
    /// Does the `blocking-hygiene` rule apply to this file? Real-mode
    /// library code must bound every potentially-blocking socket call
    /// with a deadline (`faultlab::io`).
    pub fn blocking_scope(&self) -> bool {
        self.lib && REAL_CRATES.contains(&self.crate_name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_crate_paths() {
        let c = classify("crates/simcore/src/engine.rs").expect("classified");
        assert_eq!(c.crate_name, "simcore");
        assert!(c.lib);
        assert_eq!(
            classify("src/lib.rs").map(|c| c.crate_name),
            Some(ROOT_CRATE.into())
        );
        assert!(classify("crates/xtask/fixtures/unit/x.rs").is_none());
    }

    #[test]
    fn only_src_outside_bins_is_library_code() {
        for (path, lib) in [
            ("src/lib.rs", true),
            ("crates/faultlab/src/io.rs", true),
            ("crates/clusterlab/src/bin/probe.rs", false),
            ("crates/xtask/src/main.rs", false),
            ("crates/simcore/tests/proptests.rs", false),
            ("crates/bench/benches/figures.rs", false),
            ("examples/quickstart.rs", false),
            ("tests/ablations.rs", false),
        ] {
            assert_eq!(classify(path).map(|c| c.lib), Some(lib), "{path}");
        }
    }
}
