//! File classification: which crate a library source file belongs to.
//! Every rule `analyze` owns governs library code only (`src/**`
//! outside `src/bin` and `src/main.rs`); binaries, tests, benches and
//! examples are not read.

/// A classified library source file.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate name (directory under `crates/`, or the root package name).
    pub crate_name: String,
}

/// Name used for the workspace root package.
pub const ROOT_CRATE: &str = "netpipe-rs";

/// Classify a workspace-relative, slash-separated path. Returns `None`
/// for paths that are not library code.
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
    let lib = rest.first() == Some(&"src") && !matches!(rest.get(1), Some(&("bin" | "main.rs")));
    lib.then_some(FileCtx { crate_name })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_crate_paths() {
        let c = classify("crates/simcore/src/engine.rs").expect("classified");
        assert_eq!(c.crate_name, "simcore");
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
            ("crates/bench/tests/trace_smoke.rs", false),
            ("examples/quickstart.rs", false),
            ("tests/ablations.rs", false),
        ] {
            assert_eq!(classify(path).is_some(), lib, "{path}");
        }
    }
}
