//! One experiment preset per figure and narrative table of the paper.
//!
//! Each [`Experiment`] lists the library configurations measured in that
//! figure, each with the value the paper reports (reconstructed where the
//! scraped text truncated digits — flagged in DESIGN.md). The sweep
//! runner measures them; the comparison report prints paper-vs-measured.

use hwmodel::presets::{
    ds20s_ga622, ds20s_syskonnect_jumbo, pcs_ga620, pcs_giganet, pcs_mvia_syskonnect, pcs_myrinet,
    pcs_trendnet,
};
use hwmodel::ClusterSpec;
use mpsim::libs::{
    ip_over_gm, lammpi, mp_lite, mp_lite_via, mpich, mpich_gm, mpipro, mpipro_gm, mpipro_via,
    mvich, pvm, raw_gm, raw_tcp, tcgmsg, tcgmsg_default, LamConfig, MpiProConfig, MpichConfig,
    MvichConfig, PvmConfig,
};
use mpsim::MpLib;
use protosim::{RawParams, RecvMode};
use simcore::units::kib;

/// What the paper reports for one curve (for the comparison table).
#[derive(Debug, Clone, Default)]
pub(crate) struct PaperValues {
    /// Large-message throughput the paper quotes, Mbps.
    pub(crate) max_mbps: Option<f64>,
    /// Small-message latency the paper quotes, µs.
    pub(crate) latency_us: Option<f64>,
    /// Where in the paper the number comes from.
    pub(crate) note: &'static str,
}

/// One measured curve within an experiment.
pub struct Entry {
    /// The library configuration to measure.
    pub lib: MpLib,
    /// Cluster to run on when it differs from the experiment default
    /// (e.g. fig. 4's GigE reference curve, fig. 5's M-VIA curves).
    pub spec_override: Option<ClusterSpec>,
    /// The paper's reported values.
    pub(crate) paper: PaperValues,
}

impl Entry {
    fn new(lib: MpLib, paper: PaperValues) -> Entry {
        Entry {
            lib,
            spec_override: None,
            paper,
        }
    }

    fn on(spec: ClusterSpec, lib: MpLib, paper: PaperValues) -> Entry {
        Entry {
            lib,
            spec_override: Some(spec),
            paper,
        }
    }
}

/// A figure or table of the paper, as a runnable experiment.
pub struct Experiment {
    /// Identifier: `fig1` … `fig5`, `t1_tuning`, ….
    pub id: &'static str,
    /// Human title (matches the paper's caption).
    pub title: &'static str,
    /// Default cluster configuration.
    pub spec: ClusterSpec,
    /// Curves to measure.
    pub entries: Vec<Entry>,
}

/// The Myrinet cluster as seen by the kernel's IP-over-GM driver: the
/// ip_gm module crosses the kernel/GM boundary per packet, capping the
/// stream well below native GM (the paper: "offers little more than TCP
/// over Gigabit Ethernet on these systems").
pub(crate) fn pcs_myrinet_ip() -> ClusterSpec {
    let mut spec = pcs_myrinet();
    spec.nic.driver_cap_bps = Some(simcore::units::mbps_to_bytes_per_sec(640.0));
    spec.name = "2x P4 PC, Myrinet PCI64A-2 (IP-over-GM driver)";
    spec
}

fn pv(max: f64, note: &'static str) -> PaperValues {
    PaperValues {
        max_mbps: Some(max),
        latency_us: None,
        note,
    }
}

fn pv_full(max: f64, lat: f64, note: &'static str) -> PaperValues {
    PaperValues {
        max_mbps: Some(max),
        latency_us: Some(lat),
        note,
    }
}

/// Figure 1: Netgear GA620 fiber GigE between PCs, all libraries tuned.
pub fn fig1() -> Experiment {
    let kernel = pcs_ga620().kernel;
    Experiment {
        id: "fig1",
        title: "Message-passing performance across Netgear GA620 fiber GigE between PCs",
        spec: pcs_ga620(),
        entries: vec![
            Entry::new(
                raw_tcp(kib(512)),
                pv_full(
                    550.0,
                    120.0,
                    "§4: 550 Mbps max; 2.4-kernel latency (†truncated numeral)",
                ),
            ),
            Entry::new(
                mpich(MpichConfig::tuned()),
                pv(400.0, "§4.1: ~25-30% loss, dip at 128 kB"),
            ),
            Entry::new(
                lammpi(LamConfig::tuned()),
                pv(520.0, "§4.2: -O brings it nearly to raw TCP"),
            ),
            Entry::new(
                mpipro(MpiProConfig::tuned()),
                pv(522.0, "§4.3: within 5% of raw TCP"),
            ),
            Entry::new(
                pvm(PvmConfig::tuned()),
                pv(415.0, "§4.5: direct+InPlace reaches 415 Mbps"),
            ),
            Entry::new(
                mp_lite(&kernel),
                pv(545.0, "§4.4: within a few % of raw TCP"),
            ),
            Entry::new(
                tcgmsg_default(),
                pv(535.0, "§4.6: within a few % of raw TCP"),
            ),
        ],
    }
}

/// Figure 2: TrendNet TEG-PCITX copper GigE between PCs.
pub(crate) fn fig2() -> Experiment {
    let kernel = pcs_trendnet().kernel;
    Experiment {
        id: "fig2",
        title: "Message-passing performance across TrendNet TEG-PCITX copper GigE between PCs",
        spec: pcs_trendnet(),
        entries: vec![
            Entry::new(
                raw_tcp(kib(512)),
                pv_full(
                    550.0,
                    105.0,
                    "§4: 550 Mbps with 512 kB buffers (†latency truncated)",
                ),
            ),
            Entry::new(
                mp_lite(&kernel),
                pv(540.0, "§4.4: matches raw TCP (system-max buffers)"),
            ),
            Entry::new(
                mpich(MpichConfig::tuned()),
                pv(400.0, "§7: only MP_Lite and MPICH worked well"),
            ),
            Entry::new(lammpi(LamConfig::tuned()), pv(275.0, "§4.2: ~50% loss")),
            Entry::new(
                mpipro(MpiProConfig::tuned()),
                pv(250.0, "§4.3: flattens at 250 Mbps"),
            ),
            Entry::new(tcgmsg_default(), pv(250.0, "§4.6: limited to 250 Mbps")),
            Entry::new(
                pvm(PvmConfig::tuned()),
                pv(190.0, "§4.5: limited to 190 Mbps"),
            ),
        ],
    }
}

/// Figure 3: SysKonnect SK-9843 with 9000-byte jumbo frames between DS20s.
pub(crate) fn fig3() -> Experiment {
    let kernel = ds20s_syskonnect_jumbo().kernel;
    Experiment {
        id: "fig3",
        title: "Performance with 9000-byte MTU across SysKonnect GigE between Compaq DS20s",
        spec: ds20s_syskonnect_jumbo(),
        entries: vec![
            Entry::new(
                raw_tcp(kib(512)),
                pv_full(900.0, 48.0, "§4: up to 900 Mbps (†), 48 us latency"),
            ),
            Entry::new(
                mp_lite(&kernel),
                pv(880.0, "§4.4: matches raw TCP within a few %"),
            ),
            Entry::new(
                mpich(MpichConfig::tuned()),
                pv(650.0, "§4.1/§7: 25-30% loss"),
            ),
            Entry::new(
                lammpi(LamConfig::tuned()),
                pv(675.0, "§4.2: loses about 25%"),
            ),
            Entry::new(
                tcgmsg_default(),
                pv(600.0, "§7: 600 Mbps (†) with hardwired 32 kB buffer"),
            ),
            Entry::new(pvm(PvmConfig::tuned()), pv(500.0, "§4.5: ~500 Mbps (†)")),
        ],
    }
}

/// Figure 4: Myrinet PCI64A-2 between PCs.
pub(crate) fn fig4() -> Experiment {
    Experiment {
        id: "fig4",
        title: "Message-passing performance across Myrinet PCI64A-2 cards between PCs",
        spec: pcs_myrinet(),
        entries: vec![
            Entry::new(
                raw_gm(RecvMode::Polling),
                pv_full(800.0, 16.0, "§5: raw GM 800 Mbps, 16 us"),
            ),
            Entry::new(
                mpich_gm(RecvMode::Hybrid),
                pv(780.0, "§5: loses only a few percent"),
            ),
            Entry::new(
                mpipro_gm(RecvMode::Hybrid),
                pv(780.0, "§5: nearly identical to MPICH-GM"),
            ),
            Entry::on(
                pcs_myrinet_ip(),
                ip_over_gm(kib(512)),
                pv_full(600.0, 48.0, "§5: IP-GM: 48 us, like TCP-GigE otherwise"),
            ),
            Entry::on(
                pcs_ga620(),
                raw_tcp(kib(512)),
                pv(550.0, "§5: TCP-over-GigE reference curve"),
            ),
        ],
    }
}

/// Figure 5: Giganet cLAN and M-VIA over SysKonnect between PCs.
pub fn fig5() -> Experiment {
    Experiment {
        id: "fig5",
        title: "VIA performance: Giganet cLAN and M-VIA over SysKonnect between PCs",
        spec: pcs_giganet(),
        entries: vec![
            Entry::new(
                mvich(MvichConfig::tuned(), RawParams::giganet()),
                pv_full(800.0, 10.0, "§6.2: ~800 Mbps, 10 us"),
            ),
            Entry::new(
                mp_lite_via(RawParams::giganet()),
                pv_full(800.0, 10.0, "§6.2: ~800 Mbps, 10 us"),
            ),
            Entry::new(
                mpipro_via(RawParams::giganet()),
                pv_full(800.0, 42.0, "§6.2: ~800 Mbps but 42 us latency"),
            ),
            Entry::on(
                pcs_mvia_syskonnect(),
                mvich(MvichConfig::tuned(), RawParams::mvia_sk98lin()),
                pv_full(425.0, 42.0, "§6.2: M-VIA: 425 Mbps, 42 us"),
            ),
            Entry::on(
                pcs_mvia_syskonnect(),
                mp_lite_via(RawParams::mvia_sk98lin()),
                pv_full(425.0, 42.0, "§6.2: M-VIA: 425 Mbps, 42 us"),
            ),
        ],
    }
}

/// Narrative table T1 (§4): each tuning knob's before→after effect.
pub(crate) fn t1_tuning() -> Experiment {
    Experiment {
        id: "t1_tuning",
        title: "Tuning effects: default vs optimized settings (paper §4 narrative)",
        spec: pcs_ga620(),
        entries: vec![
            Entry::new(
                mpich(MpichConfig::default()),
                pv(75.0, "§4.1: P4_SOCKBUFSIZE=32k default: 75 Mbps"),
            ),
            Entry::new(
                mpich(MpichConfig::tuned()),
                pv(400.0, "§4.1: 256k: five-fold improvement"),
            ),
            Entry::on(
                pcs_trendnet(),
                raw_tcp(kib(64)),
                pv(290.0, "§4: TrendNet default buffers flatten at 290 (†)"),
            ),
            Entry::on(
                pcs_trendnet(),
                raw_tcp(kib(512)),
                pv(550.0, "§4: 512 kB doubles the raw throughput"),
            ),
            Entry::new(
                lammpi(LamConfig::default()),
                pv(350.0, "§4.2: no -O: tops out at 350 Mbps"),
            ),
            Entry::new(
                lammpi(LamConfig::tuned()),
                pv(520.0, "§4.2: -O: nearly raw TCP"),
            ),
            Entry::new(
                lammpi(LamConfig {
                    optimized_o: true,
                    use_lamd: true,
                }),
                pv_full(
                    260.0,
                    245.0,
                    "§4.2: -lamd: 260 Mbps, latency doubles to 245 us",
                ),
            ),
            Entry::new(
                pvm(PvmConfig::default()),
                pv(90.0, "§4.5: via pvmd daemons: ~90 Mbps (†)"),
            ),
            Entry::new(
                pvm(PvmConfig {
                    direct_route: true,
                    in_place: false,
                }),
                pv(330.0, "§4.5: PvmRouteDirect: 330 Mbps"),
            ),
            Entry::new(
                pvm(PvmConfig::tuned()),
                pv(415.0, "§4.5: +PvmDataInPlace: 415 Mbps"),
            ),
            Entry::on(
                ds20s_syskonnect_jumbo(),
                tcgmsg(kib(32)),
                pv(600.0, "§7: TCGMSG 32k hardwired: 600 Mbps (†)"),
            ),
            Entry::on(
                ds20s_syskonnect_jumbo(),
                tcgmsg(kib(128)),
                pv(900.0, "§7: recompiled 128k: 900 Mbps, matching raw TCP"),
            ),
        ],
    }
}

/// Narrative table T2 (§4–§6): small-message latencies per configuration.
pub(crate) fn t2_latency() -> Experiment {
    Experiment {
        id: "t2_latency",
        title: "Small-message latencies across configurations (paper §4-§6 narrative)",
        spec: pcs_ga620(),
        entries: vec![
            Entry::new(
                raw_tcp(kib(512)),
                pv_full(550.0, 120.0, "§4: GA620 under 2.4 kernel (†)"),
            ),
            Entry::on(
                pcs_trendnet(),
                raw_tcp(kib(512)),
                pv_full(550.0, 105.0, "§4: TrendNet (†)"),
            ),
            Entry::on(
                ds20s_syskonnect_jumbo(),
                raw_tcp(kib(512)),
                pv_full(900.0, 48.0, "§4: SysKonnect jumbo on DS20s: 48 us"),
            ),
            Entry::on(
                pcs_myrinet(),
                raw_gm(RecvMode::Polling),
                pv_full(800.0, 16.0, "§5: GM polling"),
            ),
            Entry::on(
                pcs_myrinet(),
                raw_gm(RecvMode::Blocking),
                pv_full(800.0, 36.0, "§5: GM blocking"),
            ),
            Entry::on(
                pcs_myrinet_ip(),
                ip_over_gm(kib(512)),
                pv_full(600.0, 48.0, "§5: IP over GM"),
            ),
            Entry::on(
                pcs_giganet(),
                mp_lite_via(RawParams::giganet()),
                pv_full(800.0, 10.0, "§6.2: Giganet, lean libraries"),
            ),
            Entry::on(
                pcs_giganet(),
                mpipro_via(RawParams::giganet()),
                pv_full(800.0, 42.0, "§6.2: Giganet, MPI/Pro progress thread"),
            ),
            Entry::on(
                pcs_mvia_syskonnect(),
                mvich(MvichConfig::tuned(), RawParams::mvia_sk98lin()),
                pv_full(425.0, 42.0, "§6.2: M-VIA software"),
            ),
            Entry::new(
                lammpi(LamConfig {
                    optimized_o: true,
                    use_lamd: true,
                }),
                pv_full(260.0, 245.0, "§4.2: lamd doubles latency to 245 us"),
            ),
        ],
    }
}

/// Narrative table T3 (§3–§6): rendezvous/RDMA threshold placement.
pub(crate) fn t3_rendezvous() -> Experiment {
    Experiment {
        id: "t3_rendezvous",
        title: "Rendezvous-threshold dips: default vs tuned thresholds",
        spec: pcs_ga620(),
        entries: vec![
            Entry::new(
                mpich(MpichConfig::tuned()),
                pv(400.0, "§4.1: sharp dip at the 128 kB rendezvous"),
            ),
            Entry::new(
                mpipro(MpiProConfig::default()),
                pv(480.0, "§4.3: tcp_long=32k default dips"),
            ),
            Entry::new(
                mpipro(MpiProConfig::tuned()),
                pv(522.0, "§4.3: tcp_long=128k removes the dip"),
            ),
            Entry::on(
                pcs_giganet(),
                mvich(MvichConfig::default(), RawParams::giganet()),
                pv(600.0, "§6.1: default via_long=16k dips; no RPUT copies"),
            ),
            Entry::on(
                pcs_giganet(),
                mvich(MvichConfig::tuned(), RawParams::giganet()),
                pv(800.0, "§6.1: via_long=64k + RPUT"),
            ),
        ],
    }
}

/// Narrative table T4 (§2, §7): kernel and driver comparisons.
pub(crate) fn t4_kernel_driver() -> Experiment {
    let mut ga620_on_22 = pcs_ga620();
    ga620_on_22.kernel = hwmodel::presets::linux_2_2().with_raised_sockbuf_max();
    let mut ga622_new = ds20s_ga622();
    ga622_new.nic = hwmodel::presets::netgear_ga622_new_driver();
    Experiment {
        id: "t4_kernel_driver",
        title: "Kernel 2.4-vs-2.2 latency and GA622 driver maturity (paper §2/§7)",
        spec: pcs_ga620(),
        entries: vec![
            Entry::new(
                raw_tcp(kib(512)),
                pv_full(550.0, 120.0, "§4: Linux 2.4: poor latency (†)"),
            ),
            Entry::on(
                ga620_on_22,
                raw_tcp(kib(512)),
                pv(550.0, "§2: older kernel for comparison"),
            ),
            Entry::on(
                ds20s_ga622(),
                raw_tcp(kib(512)),
                pv(300.0, "§7: GA622: poor even for raw TCP"),
            ),
            Entry::on(
                ga622_new,
                raw_tcp(kib(512)),
                pv(550.0, "§7: newer ns83820/gam drivers improve it"),
            ),
        ],
    }
}

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        fig1(),
        fig2(),
        fig3(),
        fig4(),
        fig5(),
        t1_tuning(),
        t2_latency(),
        t3_rendezvous(),
        t4_kernel_driver(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_cover_all_figures_and_tables() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for want in [
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "t1_tuning",
            "t2_latency",
            "t3_rendezvous",
            "t4_kernel_driver",
        ] {
            assert!(ids.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn every_entry_has_paper_numbers() {
        for exp in all_experiments() {
            assert!(!exp.entries.is_empty(), "{} empty", exp.id);
            for e in &exp.entries {
                assert!(
                    e.paper.max_mbps.is_some() || e.paper.latency_us.is_some(),
                    "{}: {} lacks paper values",
                    exp.id,
                    e.lib.name()
                );
                assert!(!e.paper.note.is_empty());
            }
        }
    }

    #[test]
    fn fig1_measures_seven_curves() {
        assert_eq!(fig1().entries.len(), 7);
    }

    #[test]
    fn fig4_includes_cross_spec_reference() {
        let f = fig4();
        assert!(f.entries.iter().any(|e| e.spec_override.is_some()));
    }
}
