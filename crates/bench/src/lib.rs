//! Shared plumbing for the figure/table binaries: run an experiment,
//! print the paper-vs-measured report, and persist CSV/SVG/plotfiles
//! under `results/`.

use std::fs;
use std::path::PathBuf;

use clusterlab::{checks_for, compare, evaluate, run_experiment, Experiment};
use netpipe::{ascii_figure, svg_figure, to_csv, to_plotfile, RunOptions};

/// Where regenerated artifacts land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("NETPIPE_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path).expect("cannot create results directory");
    path
}

/// The full-fidelity measurement options used by every figure binary.
pub fn full_options() -> RunOptions {
    RunOptions::default()
}

/// Run `exp`, print the figure + comparison + shape checks, and write
/// `results/<id>.{csv,svg}` plus one `.np` plotfile per curve.
/// Returns `true` when every shape check passed.
pub fn regenerate(exp: &Experiment) -> bool {
    let res = run_experiment(exp, &full_options());
    println!("{}", ascii_figure(exp.title, &res.signatures, 92, 22));
    let rows = compare(exp, &res);
    println!("{}", clusterlab::to_markdown(exp.title, &rows));

    let dir = results_dir();
    fs::write(dir.join(format!("{}.csv", res.id)), to_csv(&res.signatures)).expect("write csv");
    fs::write(
        dir.join(format!("{}.svg", res.id)),
        svg_figure(exp.title, &res.signatures, 840, 520),
    )
    .expect("write svg");
    for sig in &res.signatures {
        let safe: String = sig
            .name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        fs::write(dir.join(format!("{}_{safe}.np", res.id)), to_plotfile(sig))
            .expect("write plotfile");
    }

    let mut all_ok = true;
    for c in evaluate(&res, &checks_for(exp.id)) {
        println!(
            "  [{}] {} (measured {:.2})",
            if c.pass { "ok" } else { "FAIL" },
            c.desc,
            c.measured
        );
        all_ok &= c.pass;
    }
    println!();
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        std::env::set_var("NETPIPE_RESULTS", "/tmp/netpipe-test-results");
        let d = results_dir();
        assert!(d.exists());
        std::env::remove_var("NETPIPE_RESULTS");
    }

    #[test]
    fn full_options_cover_the_paper_range() {
        let o = full_options();
        assert_eq!(o.schedule.max, 8 * 1024 * 1024);
        assert_eq!(o.latency_bound, 64);
    }
}
