//! Host models: CPU protocol-processing costs, memory-copy rates, and PCI
//! buses, for the paper's two machine types (§2): dual 1.8 GHz Pentium 4
//! PCs (32-bit 33 MHz PCI, PC133 memory) and Compaq DS20 Alphas (64-bit
//! 33 MHz PCI).

use simcore::units::mbytes_to_bytes_per_sec;

/// CPU + memory system costs for protocol processing.
///
/// Two distinct copy rates matter (see DESIGN.md §4):
///
/// * `kernel_copy_bps` — the socket-buffer copies inside the TCP stack.
///   These overlap with NIC DMA across *different* packets (softirq vs
///   app thread), so they are pipeline stages, rarely the bottleneck.
/// * `memcpy_bps` — a bulk `memcpy` issued by a message-passing library
///   *after* data has landed (e.g. MPICH/p4 draining its receive buffer
///   into application memory, PVM unpacking). This is serial with the
///   transfer and is exactly the mechanism the paper blames for the
///   25–30 % MPICH/PVM large-message loss (§7).
#[derive(Debug, Clone)]
pub struct CpuModel {
    /// Kernel TCP/IP transmit cost per packet, microseconds.
    pub kernel_pkt_tx_us: f64,
    /// Kernel TCP/IP receive cost per packet (softirq), microseconds.
    pub kernel_pkt_rx_us: f64,
    /// One system-call / context-switch cost, microseconds.
    pub syscall_us: f64,
    /// Serial bulk-memcpy rate (cold buffers), bytes/second.
    pub memcpy_bps: f64,
    /// Pipelined kernel copy rate, bytes/second.
    pub kernel_copy_bps: f64,
}

/// A PCI bus: width, clock and effective efficiency.
#[derive(Debug, Clone, Copy)]
pub struct PciModel {
    /// Bus width in bits (32 or 64).
    pub(crate) width_bits: u32,
    /// Bus clock in MHz (33 or 66).
    pub(crate) mhz: f64,
    /// Per-transaction setup cost, microseconds.
    pub per_txn_us: f64,
}

impl PciModel {
    /// The classic 32-bit 33 MHz slot of commodity PCs.
    pub(crate) fn pci32_33() -> PciModel {
        PciModel {
            width_bits: 32,
            mhz: 33.0,
            per_txn_us: 1.0,
        }
    }

    /// The 64-bit 33 MHz slots of the Compaq DS20s.
    pub(crate) fn pci64_33() -> PciModel {
        PciModel {
            width_bits: 64,
            mhz: 33.0,
            per_txn_us: 1.0,
        }
    }
}

/// A complete host: CPU/memory plus the PCI slot the NIC sits in.
#[derive(Debug, Clone)]
pub struct HostModel {
    /// Human-readable description.
    pub name: &'static str,
    /// Protocol-processing CPU model.
    pub cpu: CpuModel,
    /// The PCI slot the NIC occupies.
    pub pci: PciModel,
}

/// The paper's commodity node: 1.8 GHz Pentium 4, 768 MB PC133, 32-bit
/// 33 MHz PCI, ~$1500.
pub(crate) fn pc_pentium4() -> HostModel {
    HostModel {
        name: "1.8 GHz Pentium 4 PC (PC133, 32-bit PCI)",
        cpu: CpuModel {
            kernel_pkt_tx_us: 7.0,
            kernel_pkt_rx_us: 7.0,
            syscall_us: 3.0,
            memcpy_bps: mbytes_to_bytes_per_sec(200.0),
            kernel_copy_bps: mbytes_to_bytes_per_sec(420.0),
        },
        pci: PciModel::pci32_33(),
    }
}

/// The paper's comparison machine: dual 500 MHz Alpha 21264 Compaq DS20,
/// 64-bit 33 MHz PCI ("offering greater PCI performance").
pub(crate) fn compaq_ds20() -> HostModel {
    HostModel {
        name: "Compaq DS20 (Alpha 21264, 64-bit PCI)",
        cpu: CpuModel {
            kernel_pkt_tx_us: 6.0,
            kernel_pkt_rx_us: 6.0,
            syscall_us: 2.0,
            memcpy_bps: mbytes_to_bytes_per_sec(300.0),
            kernel_copy_bps: mbytes_to_bytes_per_sec(600.0),
        },
        pci: PciModel::pci64_33(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_memcpy_slower_than_kernel_copy() {
        for host in [pc_pentium4(), compaq_ds20()] {
            assert!(
                host.cpu.memcpy_bps < host.cpu.kernel_copy_bps,
                "{}",
                host.name
            );
        }
    }

    #[test]
    fn ds20_copies_faster_than_pc() {
        assert!(compaq_ds20().cpu.memcpy_bps > pc_pentium4().cpu.memcpy_bps);
    }
}
