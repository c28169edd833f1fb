//! Application scaling predictions from measured signatures.
//!
//! The paper's opening claim: "The main limiting factor in most systems
//! is the inter-processor communication rate. This limits the efficient
//! use of the processing power available, and the ability of applications
//! to scale to large numbers of processors" (§1). This module turns a
//! measured NetPIPE signature into that limit, for a bulk-synchronous
//! halo-exchange application (the 3-D stencil shape of the codes the
//! paper's community ran):
//!
//! * strong scaling: a fixed global problem split over `P` nodes;
//! * per step each node computes over its subdomain, then exchanges halos
//!   with ~6 neighbours; halo bytes shrink as the subdomain's surface,
//!   `(N/P)^(2/3)`;
//! * communication cost is read off the *measured* signature
//!   (`mbps_at`, `latency_us`), so every library pathology — rendezvous
//!   dips, window flattening, daemon routing — flows into the prediction;
//! * the library's overlap efficiency (see [`crate::overlap`]) hides the
//!   overlappable fraction of communication behind the computation.

use netpipe::Signature;
use simcore::units;

/// A bulk-synchronous halo-exchange application.
#[derive(Debug, Clone)]
pub struct AppModel {
    /// Total serial compute time of the whole problem per step, seconds.
    pub(crate) serial_compute_s: f64,
    /// Total problem size in "cells"; halo per node = `cells_per_node^(2/3)
    /// * bytes_per_cell * neighbours`.
    pub(crate) cells: f64,
    /// Bytes exchanged per halo cell.
    pub(crate) bytes_per_cell: f64,
    /// Neighbours each node exchanges with per step (6 for a 3-D stencil).
    pub(crate) neighbours: u32,
}

impl AppModel {
    /// A mid-size 3-D stencil: 512³ cells of 8 bytes, 0.5 s serial step.
    pub fn stencil_3d() -> AppModel {
        AppModel {
            serial_compute_s: 0.5,
            cells: 512.0 * 512.0 * 512.0,
            bytes_per_cell: 8.0,
            neighbours: 6,
        }
    }

    /// Halo bytes each node sends per step with `p` nodes.
    pub(crate) fn halo_bytes(&self, p: u32) -> u64 {
        let per_node = self.cells / f64::from(p);
        (per_node.powf(2.0 / 3.0) * self.bytes_per_cell) as u64 * u64::from(self.neighbours)
    }
}

/// One predicted strong-scaling point.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Node count.
    pub(crate) nodes: u32,
    /// Parallel efficiency: `T(1) / (P * T(P))`.
    pub efficiency: f64,
}

/// Predict strong scaling of `app` on a fabric whose point-to-point
/// behaviour is `sig`, with the library hiding `overlap_eff` of the
/// communication behind computation.
pub fn strong_scaling(
    sig: &Signature,
    overlap_eff: f64,
    app: &AppModel,
    nodes: &[u32],
) -> Vec<ScalingPoint> {
    assert!((0.0..=1.0).contains(&overlap_eff), "efficiency in [0,1]");
    let t1 = app.serial_compute_s;
    nodes
        .iter()
        .map(|&p| {
            let compute = app.serial_compute_s / f64::from(p);
            let comm = if p == 1 {
                0.0
            } else {
                let bytes = app.halo_bytes(p).max(1);
                let mbps = sig.mbps_at(bytes).max(1e-6);
                let wire_s = bytes as f64 / units::mbps_to_bytes_per_sec(mbps);
                f64::from(app.neighbours) * units::us_to_secs(sig.latency_us) + wire_s
            };
            // The overlappable fraction hides behind compute; the rest
            // serializes after it.
            let hidden = (comm * overlap_eff).min(compute.max(0.0));
            let step_s = compute.max(hidden) + (comm - hidden);
            ScalingPoint {
                nodes: p,
                efficiency: t1 / (f64::from(p) * step_s),
            }
        })
        .collect()
}

/// Markdown table of scaling predictions for several libraries.
pub fn to_markdown(rows: &[(String, Vec<ScalingPoint>)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    out.push_str("| library |");
    for p in &rows[0].1 {
        let _ = write!(out, " P={} |", p.nodes);
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &rows[0].1 {
        out.push_str("---:|");
    }
    out.push('\n');
    for (name, points) in rows {
        let _ = write!(out, "| {name} |");
        for p in points {
            let _ = write!(out, " {:.0}% |", p.efficiency * 100.0);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_experiment;
    use netpipe::RunOptions;

    fn measured(lib_prefix: &str) -> Signature {
        let exp = crate::presets::fig1();
        let res = run_experiment(&exp, &RunOptions::quick(1 << 20));
        res.by_prefix(lib_prefix).unwrap().clone()
    }

    #[test]
    fn efficiency_starts_at_one_and_decays() {
        let sig = measured("raw TCP");
        let pts = strong_scaling(&sig, 0.0, &AppModel::stencil_3d(), &[1, 2, 8, 64, 512]);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(
                w[1].efficiency <= w[0].efficiency + 1e-9,
                "efficiency must decay: {pts:?}"
            );
        }
        // At very large P the fixed latencies dominate the shrinking work.
        assert!(pts.last().unwrap().efficiency < 0.8);
    }

    #[test]
    fn faster_library_scales_further() {
        let tcp = measured("raw TCP");
        let pvm = measured("PVM");
        let app = AppModel::stencil_3d();
        let nodes = [16u32, 64, 256];
        let e_tcp = strong_scaling(&tcp, 0.0, &app, &nodes);
        let e_pvm = strong_scaling(&pvm, 0.0, &app, &nodes);
        for (a, b) in e_tcp.iter().zip(&e_pvm) {
            assert!(
                a.efficiency >= b.efficiency,
                "raw TCP must outscale PVM at P={}",
                a.nodes
            );
        }
    }

    #[test]
    fn overlap_buys_efficiency_when_comm_matters() {
        let sig = measured("MPICH");
        let app = AppModel::stencil_3d();
        let none = strong_scaling(&sig, 0.0, &app, &[256]);
        let full = strong_scaling(&sig, 1.0, &app, &[256]);
        assert!(
            full[0].efficiency > none[0].efficiency * 1.05,
            "overlap {} vs none {}",
            full[0].efficiency,
            none[0].efficiency
        );
    }

    #[test]
    fn halo_shrinks_with_node_count() {
        let app = AppModel::stencil_3d();
        assert!(app.halo_bytes(8) < app.halo_bytes(2));
        assert!(app.halo_bytes(1) > 0);
    }

    #[test]
    fn analytic_model_agrees_with_multinode_simulation() {
        // Cross-validation: the closed-form scaling prediction vs an
        // actual N-node discrete-event simulation of the same ring halo
        // exchange (protosim::multinode). The two are independent code
        // paths; they must agree on step time within a factor ~1.5 and on
        // the qualitative trend.
        use hwmodel::presets::pcs_ga620;
        use simcore::SimDuration;

        let spec = pcs_ga620();
        let sig = measured("raw TCP");
        // A ring application: 2 neighbours, fixed 256 kB halos (so the
        // analytic halo term is exact, not a surface-law estimate).
        let serial = 0.2f64;
        for p in [4u32, 8] {
            let halo = 256 * 1024u64;
            let compute = serial / f64::from(p);
            // Analytic: compute + 2 * (lat + bytes/bw), no overlap.
            let comm = 2.0 * (sig.latency_us * 1e-6)
                + 2.0 * (halo as f64 * 8.0 / (sig.mbps_at(halo) * 1e6));
            let model_step = compute + comm;
            // Simulated on the N-node fabric.
            let sim_step = protosim::ring_halo_steps(
                &spec,
                p as usize,
                halo,
                SimDuration::from_secs_f64(compute),
                1,
            );
            let ratio = sim_step / model_step;
            assert!(
                (0.55..1.6).contains(&ratio),
                "P={p}: sim {sim_step:.4}s vs model {model_step:.4}s (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn markdown_renders_all_libraries() {
        let sig = measured("raw TCP");
        let pts = strong_scaling(&sig, 0.5, &AppModel::stencil_3d(), &[2, 4]);
        let md = to_markdown(&[("x".to_string(), pts)]);
        assert!(md.contains("P=2"));
        assert!(md.contains("| x |"));
    }
}
