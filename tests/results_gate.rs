//! Every deterministic file under `results/` is what the code writes
//! today, byte for byte.
//!
//! The test regenerates the paper's figures and tables (`figures all`),
//! the simulated collective sweeps (`fig_collectives` with no
//! arguments) and the §7 overlap panel (`overlap`) into a scratch
//! directory, through the same `bench` functions the binaries call.
//! The set of files written must equal `results/` minus the files
//! listed in [`NOT_REGENERATED`], and each must equal its committed
//! copy. A second test compares the generated EXPERIMENTS.md text with
//! the committed file.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Files under `results/` that no simulated run writes: the README and
/// the wall-clock figures of the real-mode runs (`fig_collectives
/// --real`, `modern_appendix`), which differ from machine to machine.
const NOT_REGENERATED: [&str; 5] = [
    "README.md",
    "collective_real.csv",
    "collective_real.svg",
    "modern_loopback.csv",
    "modern_loopback.svg",
];

fn committed() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn file_names(dir: &Path) -> BTreeSet<String> {
    fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .into_string()
                .expect("UTF-8 file name")
        })
        .collect()
}

#[test]
fn every_deterministic_results_file_regenerates_byte_identical() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("results_gate");
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).expect("scratch results directory");

    for exp in clusterlab::all_experiments() {
        assert!(
            bench::regenerate(&exp, &out),
            "{}: a shape check failed",
            exp.id
        );
    }
    bench::write_collective_figures(&out);
    bench::write_overlap(&out);

    let written = file_names(&out);
    let mut expected = file_names(&committed());
    for name in NOT_REGENERATED {
        assert!(
            expected.remove(name),
            "{name} is listed but not in results/"
        );
    }
    assert_eq!(
        written.difference(&expected).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "written but not committed under results/"
    );
    assert_eq!(
        expected.difference(&written).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "committed under results/ but no longer written"
    );
    let differing: Vec<&String> = written
        .iter()
        .filter(|name| {
            fs::read(out.join(name)).expect("written file")
                != fs::read(committed().join(name)).expect("committed file")
        })
        .collect();
    assert!(
        differing.is_empty(),
        "regenerated files differ from results/ (fresh copies in {}): {differing:?}",
        out.display()
    );
}

#[test]
fn experiments_md_regenerates_byte_identical() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let want = fs::read_to_string(path).expect("EXPERIMENTS.md");
    let got = bench::experiments_md();
    if got != want {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("EXPERIMENTS.md");
        fs::write(&fresh, &got).expect("write the fresh text");
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or(got.lines().count().min(want.lines().count()), |i| i)
            + 1;
        panic!(
            "EXPERIMENTS.md differs from the generated text at line {line}; fresh text in {}",
            fresh.display()
        );
    }
}
