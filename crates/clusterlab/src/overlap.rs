//! The §7 hypothesis experiment: computation/communication overlap.
//!
//! The paper closes its discussion with a prediction it never measures:
//! "A message-passing library like MPI/Pro that has a message progress
//! thread, or MP_Lite that is SIGIO interrupt driven, will keep data
//! flowing more readily" *inside real applications*, where the receiver
//! is busy computing when messages arrive. NetPIPE's idle ping-pong
//! cannot see this.
//!
//! This experiment makes the prediction measurable: a sender transmits a
//! large message while the receiver computes for `busy` microseconds
//! before posting its receive. Full overlap means the total time is
//! `max(compute, transfer)`; zero overlap means `compute + transfer`.

use hwmodel::ClusterSpec;
use mpsim::{MpLib, Session};
use protosim::Fabric;
use simcore::units::secs_to_ms;
use simcore::SimDuration;
use std::cell::Cell;
use std::rc::Rc;

/// Result of one overlap measurement.
#[derive(Debug, Clone)]
pub struct OverlapPoint {
    /// Library name.
    pub(crate) name: String,
    /// Receiver compute time, seconds.
    pub busy_s: f64,
    /// Transfer time with an idle receiver, seconds.
    pub transfer_alone_s: f64,
    /// Measured total time, seconds.
    pub total_s: f64,
}

impl OverlapPoint {
    /// Overlap efficiency in `[0, 1]`: 1 when `total = max(busy,
    /// transfer)` (perfect overlap), 0 when `total = busy + transfer`
    /// (fully serialized). Clamped against modeling noise.
    pub fn efficiency(&self) -> f64 {
        let ideal = self.busy_s.max(self.transfer_alone_s);
        let worst = self.busy_s + self.transfer_alone_s;
        if worst <= ideal {
            return 1.0;
        }
        ((worst - self.total_s) / (worst - ideal)).clamp(0.0, 1.0)
    }
}

/// Measure the transfer-alone time and the busy-receiver total for one
/// library on one cluster.
pub fn measure_overlap(
    spec: &ClusterSpec,
    lib: &MpLib,
    bytes: u64,
    busy: SimDuration,
) -> OverlapPoint {
    // Transfer with an idle receiver.
    let transfer_alone_s = {
        let mut eng = Fabric::engine(spec.clone());
        let session = Session::establish(&mut eng.world, lib);
        let out = Rc::new(Cell::new(None));
        let out2 = Rc::clone(&out);
        session.send(
            &mut eng,
            0,
            bytes,
            Box::new(move |e| out2.set(Some(e.now().as_secs_f64()))),
        );
        eng.run();
        out.get().expect("idle transfer never completed")
    };
    // Transfer against a computing receiver.
    let total_s = {
        let mut eng = Fabric::engine(spec.clone());
        let session = Session::establish(&mut eng.world, lib);
        let out = Rc::new(Cell::new(None));
        let out2 = Rc::clone(&out);
        session.send_while_receiver_busy(
            &mut eng,
            0,
            bytes,
            busy,
            Box::new(move |e| out2.set(Some(e.now().as_secs_f64()))),
        );
        eng.run();
        out.get().expect("busy transfer never completed")
    };
    OverlapPoint {
        name: lib.name().to_string(),
        busy_s: busy.as_secs_f64(),
        transfer_alone_s,
        total_s,
    }
}

/// The §7 panel: MPICH, MPI/Pro, MP_Lite and PVM on the fig-1 cluster,
/// 1 MB transfers against a compute grain comparable to the transfer.
pub fn section7_panel() -> Vec<OverlapPoint> {
    use mpsim::libs::*;
    let spec = hwmodel::presets::pcs_ga620();
    let busy = SimDuration::from_millis(20);
    let bytes = 1 << 20;
    let libs = [
        raw_tcp(512 * 1024),
        mpich(MpichConfig::tuned()),
        mpipro(MpiProConfig::tuned()),
        mp_lite(&spec.kernel),
        pvm(PvmConfig::tuned()),
        tcgmsg(256 * 1024),
    ];
    libs.iter()
        .map(|lib| measure_overlap(&spec, lib, bytes, busy))
        .collect()
}

/// Markdown table for the overlap panel.
pub fn to_markdown(points: &[OverlapPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "| library | transfer alone (ms) | compute (ms) | total (ms) | overlap efficiency |\n|---|---:|---:|---:|---:|\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "| {} | {:.2} | {:.2} | {:.2} | {:.0}% |",
            p.name,
            secs_to_ms(p.transfer_alone_s),
            secs_to_ms(p.busy_s),
            secs_to_ms(p.total_s),
            p.efficiency() * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_thread_and_sigio_overlap_fully() {
        let panel = section7_panel();
        let by = |prefix: &str| {
            panel
                .iter()
                .find(|p| p.name.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} missing"))
        };
        // §7's prediction, quantified.
        assert!(by("MPI/Pro").efficiency() > 0.9, "{:?}", by("MPI/Pro"));
        assert!(by("MP_Lite").efficiency() > 0.9, "{:?}", by("MP_Lite"));
        assert!(by("raw TCP").efficiency() > 0.9, "{:?}", by("raw TCP"));
        // MPICH above its rendezvous threshold cannot overlap at all.
        assert!(by("MPICH").efficiency() < 0.2, "{:?}", by("MPICH"));
        // PVM (in-call, eager fragments) lands in between: a window's
        // worth overlaps, the rest serializes.
        let pvm_eff = by("PVM").efficiency();
        assert!(
            pvm_eff > by("MPICH").efficiency() && pvm_eff < 0.9,
            "PVM efficiency {pvm_eff}"
        );
    }

    #[test]
    fn efficiency_bounds() {
        let p = OverlapPoint {
            name: "x".into(),
            busy_s: 10e-3,
            transfer_alone_s: 10e-3,
            total_s: 10e-3,
        };
        assert_eq!(p.efficiency(), 1.0);
        let worst = OverlapPoint {
            total_s: 20e-3,
            ..p.clone()
        };
        assert_eq!(worst.efficiency(), 0.0);
        let mid = OverlapPoint {
            total_s: 15e-3,
            ..p
        };
        assert!((mid.efficiency() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn markdown_has_one_row_per_library() {
        let panel = section7_panel();
        let md = to_markdown(&panel);
        assert_eq!(md.lines().count(), 2 + panel.len());
        assert!(md.contains("overlap efficiency"));
    }

    #[test]
    fn zero_busy_time_is_full_efficiency_by_convention() {
        let spec = hwmodel::presets::pcs_ga620();
        let lib = mpsim::libs::raw_tcp(512 * 1024);
        let p = measure_overlap(&spec, &lib, 100_000, SimDuration::ZERO);
        assert_eq!(p.efficiency(), 1.0);
        assert!((p.total_s / p.transfer_alone_s - 1.0).abs() < 0.02);
    }
}
