//! Where does the time go? — the paper's §1 question, made executable.
//!
//! "The first step in improving the overall performance of the
//! message-passing system is to identify where the performance is being
//! lost and determine why." The instrumentation in `tracelab` records a
//! span for every resource reservation; this module runs one traced
//! transfer and folds the per-stage registry into the busy share of each
//! hardware pipeline stage (host CPUs, PCI buses, NIC engines, wires) —
//! the residual is latency gaps and serial library work.

use hwmodel::ClusterSpec;
use mpsim::{MpLib, Session};
use protosim::{cpu_track, nic_track, pci_track, track_label, wire_track, Fabric};
use simcore::units::secs_to_us;
use simcore::SimDuration;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use tracelab::Tracer;

/// Busy time of one pipeline stage during a transfer.
#[derive(Debug, Clone)]
pub struct StageBusy {
    /// Stage name, e.g. `"host0 cpu"`, `"wire ch0 ->"`.
    pub stage: String,
    /// Accumulated busy time.
    pub busy: SimDuration,
    /// Bytes the stage served.
    pub(crate) bytes: u64,
}

/// A transfer's complete stage accounting.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Library measured.
    pub(crate) name: String,
    /// Message size, bytes.
    pub(crate) bytes: u64,
    /// One-way elapsed time, seconds.
    pub elapsed_s: f64,
    /// Per-stage busy times.
    pub stages: Vec<StageBusy>,
}

impl Breakdown {
    /// Busy share of `stage` relative to the elapsed time.
    pub fn share(&self, stage: &str) -> f64 {
        let busy = self
            .stages
            .iter()
            .find(|s| s.stage.starts_with(stage))
            .map_or(SimDuration::ZERO, |s| s.busy);
        busy.as_secs_f64() / self.elapsed_s
    }

    /// Render as an aligned text table with utilization bars
    /// (delegates to [`tracelab::export::breakdown_table`]).
    pub fn to_table(&self) -> String {
        let header = format!(
            "{} — {} bytes, one-way {:.1} us\n",
            self.name,
            self.bytes,
            secs_to_us(self.elapsed_s)
        );
        let rows: Vec<(String, f64, u64)> = self
            .stages
            .iter()
            .map(|s| (s.stage.clone(), s.busy.as_secs_f64(), s.bytes))
            .collect();
        header + &tracelab::export::breakdown_table(&rows, self.elapsed_s)
    }
}

/// Run one `bytes`-sized transfer of `lib` on `spec` under a
/// [`tracelab::Tracer`] and fold the recorded spans into every hardware
/// stage's busy time. Idle stages still appear (with zero busy time) —
/// the hardware pipeline is enumerated from the fabric shape, not from
/// the spans that happened to be recorded.
pub fn measure_breakdown(spec: &ClusterSpec, lib: &MpLib, bytes: u64) -> Breakdown {
    let mut eng = Fabric::engine(spec.clone());
    let tracer = Tracer::new();
    protosim::instrument(&mut eng, tracer.clone());
    let session = Session::establish(&mut eng.world, lib);
    let done = Rc::new(Cell::new(None));
    let d = Rc::clone(&done);
    session.send(
        &mut eng,
        0,
        bytes,
        Box::new(move |e| d.set(Some(e.now().as_secs_f64()))),
    );
    eng.run();
    let elapsed_s = done.get().expect("transfer never completed");

    // Every hardware track this fabric can exercise, in pipeline order.
    let fab = &eng.world;
    let mut tracks: Vec<u32> = Vec::new();
    for (h, host) in fab.hosts.iter().enumerate() {
        tracks.push(cpu_track(h));
        tracks.push(pci_track(h));
        for ch in 0..host.nics.len() {
            tracks.push(nic_track(h, ch));
        }
    }
    for ch in 0..fab.wires.len() {
        tracks.push(wire_track(ch, 0));
        tracks.push(wire_track(ch, 1));
    }

    // The tracer's registry is exact (it survives ring-buffer wrap), so
    // summing span time per track reproduces each resource's busy time.
    let mut by_track: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for t in tracer.stage_totals() {
        let e = by_track.entry(t.track).or_insert((0, 0));
        e.0 += t.busy_ns;
        e.1 += t.bytes;
    }
    let stages = tracks
        .into_iter()
        .map(|track| {
            let (busy_ns, served) = by_track.get(&track).copied().unwrap_or((0, 0));
            StageBusy {
                stage: track_label(track),
                busy: SimDuration::from_nanos(busy_ns),
                bytes: served,
            }
        })
        .collect();
    Breakdown {
        name: lib.name().to_string(),
        bytes,
        elapsed_s,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::{pcs_ga620, pcs_myrinet};
    use mpsim::libs::{mpich, raw_gm, raw_tcp, MpichConfig};
    use protosim::RecvMode;
    use simcore::units::{kib, mib};

    /// The stage with the largest busy time: the bottleneck the paper
    /// hunts per configuration.
    fn bottleneck(b: &Breakdown) -> &StageBusy {
        b.stages
            .iter()
            .max_by(|x, y| x.busy.cmp(&y.busy))
            .expect("at least one stage")
    }

    #[test]
    fn no_stage_exceeds_elapsed_time() {
        let b = measure_breakdown(&pcs_ga620(), &raw_tcp(kib(512)), mib(1));
        for s in &b.stages {
            assert!(
                s.busy.as_secs_f64() <= b.elapsed_s * 1.0001,
                "{} busy {} > elapsed {}",
                s.stage,
                s.busy.as_secs_f64(),
                b.elapsed_s
            );
        }
    }

    #[test]
    fn one_way_transfer_uses_one_wire_direction() {
        let b = measure_breakdown(&pcs_ga620(), &raw_tcp(kib(512)), mib(1));
        let fwd = b.stages.iter().find(|s| s.stage == "wire0 ->").unwrap();
        let rev = b.stages.iter().find(|s| s.stage == "wire0 <-").unwrap();
        assert!(fwd.bytes > mib(1), "payload + headers crossed forward");
        assert_eq!(rev.bytes, 0, "nothing flowed backwards");
    }

    #[test]
    fn ga620_bottleneck_is_the_nic_engine() {
        // The calibrated fig-1 story: the GA620's per-frame firmware cost
        // caps raw TCP, not the wire or the CPU.
        let b = measure_breakdown(&pcs_ga620(), &raw_tcp(kib(512)), mib(4));
        assert!(bottleneck(&b).stage.contains("nic"), "{}", b.to_table());
        assert!(b.share("host0 nic") > 0.8, "{}", b.to_table());
    }

    #[test]
    fn mpich_burns_more_receiver_cpu_than_raw_tcp() {
        // The p4 drain memcpy is receiver-side CPU time.
        let raw = measure_breakdown(&pcs_ga620(), &raw_tcp(kib(512)), mib(4));
        let mpich = measure_breakdown(&pcs_ga620(), &mpich(MpichConfig::tuned()), mib(4));
        let cpu = |b: &Breakdown| {
            b.stages
                .iter()
                .find(|s| s.stage == "host1 cpu")
                .unwrap()
                .busy
                .as_secs_f64()
        };
        assert!(
            cpu(&mpich) > 1.5 * cpu(&raw),
            "mpich rx cpu {} vs raw {}",
            cpu(&mpich),
            cpu(&raw)
        );
    }

    #[test]
    fn gm_bottleneck_is_the_card_not_the_host() {
        // OS bypass: the PCI DMA engine and the 66 MHz LANai are nearly
        // co-saturated (the fig-4 calibration); the host CPU does almost
        // nothing and the wire has headroom — exactly the §5 picture.
        let b = measure_breakdown(&pcs_myrinet(), &raw_gm(RecvMode::Polling), mib(4));
        let hot = bottleneck(&b);
        assert!(
            hot.stage.contains("nic") || hot.stage.contains("pci"),
            "{}",
            b.to_table()
        );
        assert!(b.share("host0 cpu") < 0.10, "{}", b.to_table());
        assert!(b.share("wire0 ->") < 0.80, "{}", b.to_table());
    }

    #[test]
    fn table_renders_every_stage() {
        let b = measure_breakdown(&pcs_ga620(), &raw_tcp(kib(512)), 100_000);
        let t = b.to_table();
        assert!(t.contains("host0 cpu"));
        assert!(t.contains("wire0 ->"));
        assert!(t.contains('%'));
    }
}
