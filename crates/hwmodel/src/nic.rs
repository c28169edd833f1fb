//! Network interface card models.
//!
//! One preset per card family the paper tests (§2, §4–§6). Each parameter
//! maps onto a mechanism the paper names:
//!
//! * `nic_pkt_us` / `nic_byte_rate` — the NIC + driver per-frame pipeline
//!   stage. This is what separates a $55 TrendNet from a $565 SysKonnect
//!   at the same 1 Gb/s wire speed, and what the 66 MHz LANai RISC
//!   processor caps on Myrinet.
//! * `rx_coalesce_us` — receive interrupt mitigation: the dominant term of
//!   the "poor" 100+ µs small-message latencies the paper measures on the
//!   GigE cards under Linux 2.4.
//! * `ack_delay_us` — how long transmitted bytes stay unacknowledged after
//!   delivery (TX-descriptor recycling + delayed window updates). Together
//!   with the socket-buffer size this produces the paper's central effect:
//!   default buffers flatten the TrendNet cards at ~290 Mbps, and the
//!   hardwired 32 kB TCGMSG buffer caps the DS20/jumbo configuration.
//! * `driver_cap_bps` — immature-driver throughput ceiling (the Netgear
//!   GA622 is "poor even for raw TCP" in §7).

use simcore::units::{gbps_to_bytes_per_sec, mbps_to_bytes_per_sec, mbytes_to_bytes_per_sec};

/// A network interface card plus its driver, as a set of pipeline-stage
/// costs. All rates are bytes/second; all times are microseconds.
#[derive(Debug, Clone)]
pub struct NicModel {
    /// Marketing name as used in the paper.
    pub name: &'static str,
    /// Raw signalling rate of the wire in bytes/second.
    pub wire_bps: f64,
    /// Maximum transmission unit (payload bytes per frame). For Ethernet
    /// this is the IP MTU (1500, or 9000 with jumbo frames); message-based
    /// fabrics (GM, VIA) use their native packet size.
    pub(crate) mtu: u32,
    /// Per-frame wire overhead outside the MTU: preamble + interframe gap
    /// + MAC header + FCS for Ethernet.
    pub framing_bytes: u32,
    /// Fixed NIC+driver processing cost per frame (firmware, descriptor
    /// handling), microseconds.
    pub nic_pkt_us: f64,
    /// NIC DMA engine streaming rate, bytes/second (`f64::INFINITY` when
    /// the DMA engine is never the bottleneck).
    pub nic_byte_rate: f64,
    /// Receive interrupt-coalescing delay, microseconds (latency term).
    pub rx_coalesce_us: f64,
    /// Delay between a byte being delivered and the sender's socket-buffer
    /// space being reclaimed, microseconds (window-recycle term).
    pub ack_delay_us: f64,
    /// Hard throughput ceiling from an immature driver, bytes/second.
    pub driver_cap_bps: Option<f64>,
    /// Whether the card can use a 64-bit PCI slot.
    pub(crate) pci_64bit: bool,
    /// Fraction of the PCI bus's theoretical burst rate this card's DMA
    /// engine sustains. The Myrinet/Giganet engines use long bursts
    /// (~0.80); the 2002 GigE cards manage ~0.68 — which is why raw GM
    /// reaches 800 Mbps on the same 32-bit slot that caps SysKonnect
    /// jumbo-frame TCP at ~710 Mbps (§4, §5).
    pub dma_eff: f64,
}

impl NicModel {
    /// Maximum user payload per frame when `headers` bytes of protocol
    /// headers ride inside the MTU (the TCP MSS for Ethernet).
    pub fn mss(&self, headers: u32) -> u32 {
        self.mtu.saturating_sub(headers).max(1)
    }

    /// Effective payload throughput of the *wire* stage alone, in
    /// bytes/second, for full-MTU frames carrying `headers` bytes of
    /// protocol headers inside the MTU.
    pub fn wire_payload_rate(&self, headers: u32) -> f64 {
        let total = f64::from(self.mtu + self.framing_bytes);
        self.wire_bps * f64::from(self.mss(headers)) / total
    }
}

/// Ethernet framing overhead: preamble(8) + IFG(12) + MAC header(14) + FCS(4).
pub(crate) const ETH_FRAMING: u32 = 38;
/// TCP/IP header bytes carried inside each frame (20 + 20 + 12 bytes of
/// timestamp options — Linux 2.4 enables timestamps by default, giving the
/// classic 1448-byte MSS).
pub const TCPIP_HEADERS: u32 = 52;

/// Netgear GA620 fiber Gigabit Ethernet (AceNIC/acenic driver, $220).
///
/// The paper's "mature hardware and drivers at a modest price" (fig. 1
/// testbed). Firmware-based NIC: moderate per-frame cost, high coalescing.
pub(crate) fn netgear_ga620() -> NicModel {
    NicModel {
        name: "Netgear GA620 fiber GigE",
        wire_bps: gbps_to_bytes_per_sec(1.0),
        mtu: 1500,
        framing_bytes: ETH_FRAMING,
        nic_pkt_us: 19.0,
        nic_byte_rate: f64::INFINITY,
        rx_coalesce_us: 62.0,
        ack_delay_us: 50.0,
        driver_cap_bps: None,
        pci_64bit: true,
        dma_eff: 0.68,
    }
}

/// TrendNet TEG-PCITX copper Gigabit Ethernet (ns83820 driver, $55).
///
/// "The new wave of low cost GigE NICs" (fig. 2 testbed). Same wire speed
/// as the GA620 but a slow descriptor/ack recycle: it *needs* 512 kB
/// socket buffers, flattening at ~290 Mbps with the kernel defaults.
pub(crate) fn trendnet_teg_pcitx() -> NicModel {
    NicModel {
        name: "TrendNet TEG-PCITX copper GigE",
        wire_bps: gbps_to_bytes_per_sec(1.0),
        mtu: 1500,
        framing_bytes: ETH_FRAMING,
        nic_pkt_us: 19.0,
        nic_byte_rate: f64::INFINITY,
        rx_coalesce_us: 47.0,
        ack_delay_us: 855.0,
        driver_cap_bps: None,
        pci_64bit: false,
        dma_eff: 0.68,
    }
}

/// Netgear GA622 copper Gigabit Ethernet ($90).
///
/// Identical silicon to the TrendNet but keyed for 64-bit PCI; the paper
/// found it "poor even for raw TCP" with the contemporary ns83820 driver
/// (§7), improving with the pre-2.4.13 drivers — modeled as a raw driver
/// ceiling that the `newer_driver` variant lifts.
pub(crate) fn netgear_ga622() -> NicModel {
    NicModel {
        name: "Netgear GA622 copper GigE",
        wire_bps: gbps_to_bytes_per_sec(1.0),
        mtu: 1500,
        framing_bytes: ETH_FRAMING,
        nic_pkt_us: 19.0,
        nic_byte_rate: f64::INFINITY,
        rx_coalesce_us: 47.0,
        ack_delay_us: 855.0,
        driver_cap_bps: Some(mbps_to_bytes_per_sec(300.0)),
        pci_64bit: true,
        dma_eff: 0.68,
    }
}

/// Netgear GA622 with the improved ns83820/gam drivers from the
/// pre-2.4.13 kernels (§7: "show improved performance and stability").
pub fn netgear_ga622_new_driver() -> NicModel {
    NicModel {
        name: "Netgear GA622 (new driver)",
        driver_cap_bps: None,
        ack_delay_us: 300.0,
        ..netgear_ga622()
    }
}

/// SysKonnect SK-9843 Gigabit Ethernet (sk98lin driver, $565), standard
/// 1500-byte MTU.
pub(crate) fn syskonnect_sk9843() -> NicModel {
    NicModel {
        name: "SysKonnect SK-9843 GigE",
        wire_bps: gbps_to_bytes_per_sec(1.0),
        mtu: 1500,
        framing_bytes: ETH_FRAMING,
        nic_pkt_us: 11.0,
        nic_byte_rate: f64::INFINITY,
        rx_coalesce_us: 7.0,
        ack_delay_us: 80.0,
        driver_cap_bps: None,
        pci_64bit: true,
        dma_eff: 0.68,
    }
}

/// SysKonnect SK-9843 with 9000-byte jumbo frames enabled — the paper's
/// high-bandwidth configuration (fig. 3): "very low latency and … high
/// bandwidth when jumbo frames of 9000 byte MTU size are enabled".
pub(crate) fn syskonnect_sk9843_jumbo() -> NicModel {
    NicModel {
        name: "SysKonnect SK-9843 GigE (9000 MTU)",
        mtu: 9000,
        ..syskonnect_sk9843()
    }
}

/// Myricom Myrinet PCI64A-2 (66 MHz LANai RISC processor, $1000 + switch).
///
/// OS-bypass message fabric (fig. 4): the slower 66 MHz LANai caps the
/// card around 800 Mbps; GM latency is 16 µs in polling mode.
pub(crate) fn myrinet_pci64a() -> NicModel {
    NicModel {
        name: "Myrinet PCI64A-2",
        wire_bps: gbps_to_bytes_per_sec(1.28),
        mtu: 4096,
        framing_bytes: 16,
        nic_pkt_us: 5.0,
        nic_byte_rate: mbytes_to_bytes_per_sec(120.0),
        rx_coalesce_us: 0.0,
        ack_delay_us: 0.0,
        driver_cap_bps: None,
        pci_64bit: true,
        dma_eff: 0.80,
    }
}

/// Giganet (Emulex) cLAN 1000 hardware-VIA card ($650 + $800/port switch).
///
/// Fig. 5: ~800 Mbps through an 8-port cLAN switch with ~10 µs latency for
/// the lean libraries.
pub(crate) fn giganet_clan() -> NicModel {
    NicModel {
        name: "Giganet cLAN",
        wire_bps: gbps_to_bytes_per_sec(1.25),
        mtu: 4096,
        framing_bytes: 16,
        nic_pkt_us: 2.5,
        nic_byte_rate: mbytes_to_bytes_per_sec(115.0),
        rx_coalesce_us: 0.0,
        ack_delay_us: 0.0,
        driver_cap_bps: None,
        pci_64bit: false,
        dma_eff: 0.80,
    }
}

/// 100 Mb/s Fast Ethernet — the "established technology" reference the
/// paper contrasts with GigE ("you cannot just slap in a Gigabit Ethernet
/// card and expect decent performance like you can with … Fast Ethernet").
pub(crate) fn fast_ethernet() -> NicModel {
    NicModel {
        name: "Fast Ethernet 100BASE-TX",
        wire_bps: mbps_to_bytes_per_sec(100.0),
        mtu: 1500,
        framing_bytes: ETH_FRAMING,
        nic_pkt_us: 4.0,
        nic_byte_rate: f64::INFINITY,
        rx_coalesce_us: 20.0,
        ack_delay_us: 40.0,
        driver_cap_bps: None,
        pci_64bit: false,
        dma_eff: 0.68,
    }
}

/// All Ethernet NIC presets (for sweep-style tests and examples).
pub fn all_ethernet() -> Vec<NicModel> {
    vec![
        netgear_ga620(),
        trendnet_teg_pcitx(),
        netgear_ga622(),
        netgear_ga622_new_driver(),
        syskonnect_sk9843(),
        syskonnect_sk9843_jumbo(),
        fast_ethernet(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::bytes_per_sec_to_mbps;

    #[test]
    fn mss_leaves_room_for_the_headers() {
        let nic = netgear_ga620();
        assert_eq!(nic.mss(TCPIP_HEADERS), 1448);
    }

    #[test]
    fn wire_payload_rate_below_signalling_rate() {
        for nic in all_ethernet() {
            let rate = nic.wire_payload_rate(TCPIP_HEADERS);
            assert!(
                rate < nic.wire_bps,
                "{}: payload rate must be below wire rate",
                nic.name
            );
            assert!(
                rate > 0.85 * nic.wire_bps,
                "{}: framing too costly",
                nic.name
            );
        }
    }

    #[test]
    fn gige_wire_goodput_is_about_941_mbps() {
        let nic = netgear_ga620();
        let mbps = bytes_per_sec_to_mbps(nic.wire_payload_rate(TCPIP_HEADERS));
        assert!((935.0..947.0).contains(&mbps), "{mbps}");
    }

    #[test]
    fn jumbo_frames_raise_wire_goodput() {
        let std = syskonnect_sk9843();
        let jumbo = syskonnect_sk9843_jumbo();
        assert!(jumbo.wire_payload_rate(TCPIP_HEADERS) > std.wire_payload_rate(TCPIP_HEADERS));
        let mbps = bytes_per_sec_to_mbps(jumbo.wire_payload_rate(TCPIP_HEADERS));
        assert!(mbps > 985.0, "jumbo goodput {mbps}");
    }

    #[test]
    fn trendnet_is_the_slow_ack_card() {
        // The paper's central fig-2 pathology: TrendNet needs big buffers.
        assert!(trendnet_teg_pcitx().ack_delay_us > 5.0 * netgear_ga620().ack_delay_us);
    }

    #[test]
    fn ga622_has_driver_cap_until_new_driver() {
        assert!(netgear_ga622().driver_cap_bps.is_some());
        assert!(netgear_ga622_new_driver().driver_cap_bps.is_none());
    }

    #[test]
    fn proprietary_fabrics_have_low_latency_terms() {
        for nic in [myrinet_pci64a(), giganet_clan()] {
            assert_eq!(nic.rx_coalesce_us, 0.0, "{}", nic.name);
            assert!(nic.nic_pkt_us < 6.0, "{}", nic.name);
        }
    }

    #[test]
    fn syskonnect_is_premium_low_latency() {
        let sk = syskonnect_sk9843();
        let tn = trendnet_teg_pcitx();
        assert!(sk.rx_coalesce_us < tn.rx_coalesce_us);
    }
}
