//! Paper-vs-measured reporting.

use std::fmt::Write as _;

use netpipe::Signature;

use crate::presets::Experiment;
use crate::sweep::ExperimentResult;

/// One row of a paper-vs-measured table.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Library name.
    pub name: String,
    /// Paper's throughput, Mbps (if quoted): the plateau of its curve.
    pub paper_mbps: Option<f64>,
    /// Measured throughput at the largest message size, Mbps — the same
    /// 8 MB point the calibration checks read, so it sets plateau against
    /// plateau. A curve's peak would not: a window-limited curve peaks
    /// where a whole message still fits the window (p4 with 32 kB
    /// buffers: 350 Mbps there, against the 75 Mbps the paper reports).
    pub measured_mbps: f64,
    /// Paper's latency, µs (if quoted).
    pub paper_lat_us: Option<f64>,
    /// Measured latency, µs.
    pub measured_lat_us: f64,
    /// Source note.
    pub note: &'static str,
}

impl ComparisonRow {
    /// measured/paper throughput ratio (NaN when the paper gives none).
    pub fn mbps_ratio(&self) -> f64 {
        match self.paper_mbps {
            Some(p) if p > 0.0 => self.measured_mbps / p,
            _ => f64::NAN,
        }
    }
}

/// Join an experiment preset with its measurements.
pub fn compare(exp: &Experiment, res: &ExperimentResult) -> Vec<ComparisonRow> {
    assert_eq!(exp.entries.len(), res.signatures.len(), "mismatched sweep");
    exp.entries
        .iter()
        .zip(&res.signatures)
        .map(|(e, s)| ComparisonRow {
            name: s.name.clone(),
            paper_mbps: e.paper.max_mbps,
            measured_mbps: s.final_mbps(),
            paper_lat_us: e.paper.latency_us,
            measured_lat_us: s.latency_us,
            note: e.paper.note,
        })
        .collect()
}

/// Render the comparison as a markdown table (the EXPERIMENTS.md format).
pub fn to_markdown(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### {title}\n");
    out.push_str(
        "| library | paper Mbps | measured Mbps | ratio | paper lat (us) | measured lat (us) | source |\n",
    );
    out.push_str("|---|---:|---:|---:|---:|---:|---|\n");
    for r in rows {
        let paper_m = r.paper_mbps.map_or("-".to_string(), |v| format!("{v:.0}"));
        let ratio = if r.mbps_ratio().is_nan() {
            "-".to_string()
        } else {
            format!("{:.2}", r.mbps_ratio())
        };
        let paper_l = r
            .paper_lat_us
            .map_or("-".to_string(), |v| format!("{v:.0}"));
        let _ = writeln!(
            out,
            "| {} | {} | {:.0} | {} | {} | {:.1} | {} |",
            r.name, paper_m, r.measured_mbps, ratio, paper_l, r.measured_lat_us, r.note
        );
    }
    out
}

/// A one-line digest of a signature, used by the figure binaries.
pub fn digest(sig: &Signature) -> String {
    format!(
        "{:<42} lat {:>7.1} us   peak {:>7.0} Mbps   at-max {:>7.0} Mbps",
        sig.name,
        sig.latency_us,
        sig.max_mbps,
        sig.final_mbps()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::fig1;
    use crate::sweep::run_experiment;
    use netpipe::RunOptions;

    #[test]
    fn comparison_rows_align_with_entries() {
        let exp = fig1();
        let res = run_experiment(&exp, &RunOptions::quick(1 << 15));
        let rows = compare(&exp, &res);
        assert_eq!(rows.len(), exp.entries.len());
        assert_eq!(rows[0].name, "raw TCP");
        assert!(rows[0].paper_mbps.is_some());
        assert!(rows[0].measured_mbps > 0.0);
    }

    #[test]
    fn markdown_table_has_all_rows() {
        let exp = fig1();
        let res = run_experiment(&exp, &RunOptions::quick(1 << 15));
        let md = to_markdown(exp.title, &compare(&exp, &res));
        assert_eq!(md.lines().count(), 3 + 1 + exp.entries.len());
        assert!(md.contains("| raw TCP |"));
    }

    #[test]
    fn ratio_handles_missing_paper_value() {
        let row = ComparisonRow {
            name: "x".into(),
            paper_mbps: None,
            measured_mbps: 100.0,
            paper_lat_us: None,
            measured_lat_us: 1.0,
            note: "",
        };
        assert!(row.mbps_ratio().is_nan());
    }
}
