//! Drives the built benchmark the way the driver does, in `--smoke` mode:
//! one pass (or a handful of round trips) per workload, every output
//! check exercised, every file it writes loadable by another JSON
//! implementation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn out_file(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(name)
}

/// The lines of `stdout` the driver would read: one per run.
fn result_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("{\"correct\": "))
        .map(str::to_string)
        .collect()
}

fn loads_in_python(path: &PathBuf) {
    let status = Command::new("python3")
        .args(["-m", "json.tool"])
        .arg(path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("python3 is on the path");
    assert!(status.success(), "{} is not valid JSON", path.display());
}

#[test]
fn smoke_passes_every_output_check_on_every_workload() {
    let out = bench(&["--smoke", "--trace", "0", "--seed", "11"]);
    assert!(out.status.success());
    let lines = result_lines(&out);
    assert_eq!(lines.len(), 5, "one result line per workload");
    for line in &lines {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": ")
                && line.contains("\"failed\": 0,"),
            "{line}"
        );
        for metric in [
            "setup_s",
            "ops_per_s",
            "op_p50_us",
            "op_p99_us",
            "peak_rss_mib",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric} in {line}"
            );
        }
    }
    // The last line of standard output is a result line.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().last(), lines.last().map(String::as_str));
    for w in [
        "figures",
        "coll_scaling",
        "coll_sizes",
        "wire_small",
        "wire_large",
    ] {
        loads_in_python(&out_file(&format!("{w}.untraced.result.json")));
    }
}

#[test]
fn smoke_traces_replay_faithfully_and_load() {
    for w in ["coll_sizes", "wire_small"] {
        let out = bench(&["run", "--smoke", "--trace", "1", "--workload", w]);
        assert!(out.status.success());
        let lines = result_lines(&out);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"correct\": true"), "{w}: {}", lines[0]);
        assert!(lines[0].contains("\"harness.trace_overhead_x\": {\"value\": "));
        assert!(lines[0].contains("\"harness.trace_coverage_pct\": {\"value\": "));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("self time per span"), "{stdout}");
        loads_in_python(&out_file(&format!("{w}.trace.json")));
        loads_in_python(&out_file(&format!("{w}.traced.result.json")));
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = bench(&["--workload", "no_such_workload"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(result_lines(&out).is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
