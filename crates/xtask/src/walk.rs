//! Workspace file discovery (no walkdir dependency).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "node_modules"];

/// Collect workspace-relative paths of files whose name passes `keep`,
/// sorted for deterministic diagnostics. Fixture trees
/// (`crates/<crate>/fixtures`) are skipped — they contain violations on
/// purpose.
pub fn collect_files(root: &Path, keep: &dyn Fn(&Path) -> bool) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, root, keep, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(
    root: &Path,
    dir: &Path,
    keep: &dyn Fn(&Path) -> bool,
    out: &mut Vec<PathBuf>,
) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if rel.starts_with("crates") && rel.components().count() == 3 && name == "fixtures" {
                continue;
            }
            walk(root, &path, keep, out)?;
        } else if keep(&path) {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Slash-separated form of a relative path (diagnostics are
/// platform-stable).
pub fn rel_str(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_own_sources() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let files = collect_files(root, &|p| p.extension().is_some_and(|e| e == "rs"))
            .expect("walk succeeds");
        let rels: Vec<String> = files.iter().map(|p| rel_str(p)).collect();
        assert!(rels.iter().any(|r| r == "crates/xtask/src/walk.rs"));
        assert!(rels.iter().any(|r| r == "crates/simcore/src/engine.rs"));
        // Fixtures are excluded from workspace walks.
        assert!(!rels.iter().any(|r| r.contains("/fixtures/")));
        // Deterministic order.
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
    }
}
