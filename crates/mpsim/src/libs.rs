//! The paper's message-passing libraries (§3), one constructor each.
//!
//! Every constructor takes the library's tuning knobs — the same knobs the
//! paper turns — and returns an [`MpLib`] binding a [`LibProfile`] to a
//! transport. Defaults match the out-of-the-box settings the paper
//! criticizes; `tuned()` helpers apply the paper's optimizations.

use hwmodel::KernelModel;
use protosim::{RawParams, RecvMode, TcpParams};
use simcore::units::kib;

use crate::profile::{FragmentCfg, LibProfile, MpLib, Progress, Routing, Transport};

// ---------------------------------------------------------------------------
// Raw transport references
// ---------------------------------------------------------------------------

/// Raw TCP with socket buffers of `bufs` bytes — the heavy black reference
/// line of figs. 1–3 ("These TCP curves provide the maximum performance
/// that each message-passing library strives for").
pub fn raw_tcp(bufs: u64) -> MpLib {
    MpLib {
        profile: LibProfile::raw("raw TCP"),
        transport: Transport::Tcp(TcpParams::with_bufs(bufs)),
    }
}

/// Raw GM in the given receive mode (fig. 4 reference).
pub fn raw_gm(mode: RecvMode) -> MpLib {
    MpLib {
        profile: LibProfile::raw("raw GM"),
        transport: Transport::Raw(RawParams::gm(mode)),
    }
}

/// IP over GM: the kernel TCP stack running across the Myrinet fabric
/// (fig. 4: "a latency of 48 µs … but otherwise offers similar
/// performance" to GigE TCP). Instantiate on the Myrinet cluster spec.
pub fn ip_over_gm(bufs: u64) -> MpLib {
    MpLib {
        profile: LibProfile::raw("IP-GM (TCP over GM)"),
        transport: Transport::Tcp(TcpParams::with_bufs(bufs)),
    }
}

// ---------------------------------------------------------------------------
// MPICH / p4
// ---------------------------------------------------------------------------

/// MPICH 1.2.x tuning knobs (§3.1, §4.1).
#[derive(Debug, Clone)]
pub struct MpichConfig {
    /// `P4_SOCKBUFSIZE` — *the* vital parameter: default 32 kB collapses
    /// to ~75 Mbps; 256 kB recovers a five-fold improvement.
    pub(crate) p4_sockbufsize: u64,
    /// The rendezvous cutoff, 128 kB unless the source is edited
    /// (`mpid/ch2/chinit.c`).
    pub(crate) rendezvous: u64,
}

impl Default for MpichConfig {
    fn default() -> Self {
        MpichConfig {
            p4_sockbufsize: kib(32),
            rendezvous: kib(128),
        }
    }
}

impl MpichConfig {
    /// The paper's tuned configuration: `P4_SOCKBUFSIZE=256 kB`.
    pub fn tuned() -> Self {
        MpichConfig {
            p4_sockbufsize: kib(256),
            ..Default::default()
        }
    }
}

/// MPICH over p4/TCP. Mechanisms: p4's block-synchronous writes (exposing
/// the delayed-ACK pathology at small `P4_SOCKBUFSIZE`), the 128 kB
/// rendezvous handshake (the fig. 1 dip), and the receive-into-buffer
/// memcpy that costs 25–30 % on large messages (§7).
pub fn mpich(cfg: MpichConfig) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: format!("MPICH (P4_SOCKBUFSIZE={}k)", cfg.p4_sockbufsize / 1024),
            send_overhead_us: 3.0,
            recv_overhead_us: 2.0,
            send_copies: 0,
            recv_copies: 1,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(cfg.rendezvous),
            ctrl_bytes: 40,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::InCall,
            bonded_channels: 1,
        },
        transport: Transport::Tcp(TcpParams {
            sndbuf: cfg.p4_sockbufsize,
            rcvbuf: cfg.p4_sockbufsize,
            block_sync_writes: true,
        }),
    }
}

// ---------------------------------------------------------------------------
// LAM/MPI
// ---------------------------------------------------------------------------

/// LAM/MPI run modes (§3.2, §4.2).
#[derive(Debug, Clone, Default)]
pub struct LamConfig {
    /// `mpirun -O`: skip heterogeneous data conversion checks
    /// ("greatly improves performance" on homogeneous clusters).
    pub optimized_o: bool,
    /// `mpirun -lamd`: route through the lamd daemons for monitoring
    /// ("greatly reducing the performance": ~260 Mbps, 2x latency).
    pub use_lamd: bool,
}

impl LamConfig {
    /// The tuned homogeneous configuration (`-O`, client-to-client).
    pub fn tuned() -> Self {
        LamConfig {
            optimized_o: true,
            use_lamd: false,
        }
    }
}

/// LAM/MPI 6.5.x over TCP. Fixed internal socket buffers (not user
/// tunable — the 50 % TrendNet loss), a rendezvous dip at its 64 kB
/// short/long threshold, per-byte conversion checks without `-O`, and the
/// lamd relay mode.
pub fn lammpi(cfg: LamConfig) -> MpLib {
    let mode = match (cfg.optimized_o, cfg.use_lamd) {
        (_, true) => "-lamd",
        (true, false) => "-O",
        (false, false) => "default",
    };
    MpLib {
        profile: LibProfile {
            name: format!("LAM/MPI ({mode})"),
            send_overhead_us: 3.0,
            recv_overhead_us: 2.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: if cfg.optimized_o {
                f64::INFINITY
            } else {
                125e6
            },
            rendezvous_bytes: Some(kib(64)),
            ctrl_bytes: 40,
            fragment: if cfg.use_lamd {
                Some(FragmentCfg {
                    bytes: 8192,
                    per_frag_us: 50.0,
                    stop_and_wait: false,
                })
            } else {
                None
            },
            routing: if cfg.use_lamd {
                Routing::Daemon
            } else {
                Routing::Direct
            },
            progress: Progress::InCall,
            bonded_channels: 1,
        },
        transport: Transport::Tcp(TcpParams::with_bufs(kib(64))),
    }
}

// ---------------------------------------------------------------------------
// MPI/Pro
// ---------------------------------------------------------------------------

/// MPI/Pro tuning knobs (§3.3, §4.3).
#[derive(Debug, Clone)]
pub struct MpiProConfig {
    /// `tcp_long`: the TCP rendezvous threshold; default 32 kB dips,
    /// 128 kB "removes much of the dip".
    pub(crate) tcp_long: u64,
}

impl Default for MpiProConfig {
    fn default() -> Self {
        MpiProConfig { tcp_long: kib(32) }
    }
}

impl MpiProConfig {
    /// The tuned configuration: `tcp_long = 128 kB`.
    pub fn tuned() -> Self {
        MpiProConfig { tcp_long: kib(128) }
    }
}

/// MPI/Pro over TCP: a commercial MPI with a separate message-progress
/// thread (small per-message handoff cost; the thread keeps data flowing
/// in real applications), fixed internal socket buffers (the TrendNet
/// flattening at ~250 Mbps — `tcp_buffers` "did not help"), no extra
/// copies ("within 5 % of raw TCP" when tuned).
pub fn mpipro(cfg: MpiProConfig) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: format!("MPI/Pro (tcp_long={}k)", cfg.tcp_long / 1024),
            send_overhead_us: 6.0,
            recv_overhead_us: 5.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(cfg.tcp_long),
            ctrl_bytes: 40,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::Thread,
            bonded_channels: 1,
        },
        transport: Transport::Tcp(TcpParams::with_bufs(kib(64))),
    }
}

// ---------------------------------------------------------------------------
// MP_Lite
// ---------------------------------------------------------------------------

/// MP_Lite 2.3 over TCP (§3.4): the authors' lightweight library. SIGIO
/// interrupt-driven progress, socket buffers raised to the system maximum
/// (its only tuning is `net.core.{r,w}mem_max`), no extra copies, no
/// rendezvous — it tracks raw TCP "to within a few percent".
pub fn mp_lite(kernel: &KernelModel) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: "MP_Lite".to_string(),
            send_overhead_us: 1.5,
            recv_overhead_us: 1.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: None,
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::Sigio,
            bonded_channels: 1,
        },
        transport: Transport::Tcp(TcpParams::with_bufs(kernel.sockbuf_max)),
    }
}

/// MP_Lite with channel bonding across `channels` NICs (the companion
/// MP_Lite paper's headline feature: stripe each large message across
/// parallel Gigabit Ethernet cards). Requires a cluster spec with
/// `nic_count >= channels`; the shared 32-bit PCI bus is then the next
/// bottleneck, so two cards buy well under 2x.
pub fn mp_lite_bonded(kernel: &KernelModel, channels: u32) -> MpLib {
    assert!(channels >= 1);
    let mut lib = mp_lite(kernel);
    lib.profile.name = format!("MP_Lite ({channels}-way bonded)");
    lib.profile.bonded_channels = channels;
    lib
}

// ---------------------------------------------------------------------------
// PVM
// ---------------------------------------------------------------------------

/// PVM 3.4 tuning knobs (§3.5, §4.5).
#[derive(Debug, Clone, Default)]
pub struct PvmConfig {
    /// `pvm_setopt(PvmRoute, PvmRouteDirect)`: bypass the pvmd daemons
    /// (default routes everything through them at ~90 Mbps).
    pub direct_route: bool,
    /// `pvm_initsend(PvmDataInPlace)`: skip the send-side packing copy.
    pub in_place: bool,
}

impl PvmConfig {
    /// Fully tuned: direct routing + in-place packing (≈415 Mbps on the
    /// GA620s, "similar to MPICH").
    pub fn tuned() -> Self {
        PvmConfig {
            direct_route: true,
            in_place: true,
        }
    }
}

/// PVM 3.4: 4080-byte fragments, daemon routing by default (with the
/// stop-and-wait pvmd protocol), a packing copy each side unless
/// `PvmDataInPlace` (receive always unpacks through a buffer).
pub fn pvm(cfg: PvmConfig) -> MpLib {
    let mode = match (cfg.direct_route, cfg.in_place) {
        (false, _) => "via pvmd",
        (true, false) => "direct",
        (true, true) => "direct+InPlace",
    };
    MpLib {
        profile: LibProfile {
            name: format!("PVM ({mode})"),
            send_overhead_us: 5.0,
            recv_overhead_us: 4.0,
            send_copies: u32::from(!cfg.in_place),
            recv_copies: 1,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: None,
            ctrl_bytes: 40,
            fragment: Some(FragmentCfg {
                bytes: 4080,
                per_frag_us: if cfg.direct_route { 6.0 } else { 12.0 },
                stop_and_wait: !cfg.direct_route,
            }),
            routing: if cfg.direct_route {
                Routing::Direct
            } else {
                Routing::Daemon
            },
            progress: Progress::InCall,
            bonded_channels: 1,
        },
        transport: Transport::Tcp(TcpParams::with_bufs(kib(64))),
    }
}

// ---------------------------------------------------------------------------
// TCGMSG
// ---------------------------------------------------------------------------

/// TCGMSG 4.04 (§3.6): a thin blocking layer over TCP — "it passes on
/// nearly all the performance that TCP offers" — except that its socket
/// buffer size is hardwired to `SR_SOCK_BUF_SIZE = 32 kB` in `sndrcvp.h`;
/// recompiling with 128–256 kB recovers raw-TCP levels (§7).
pub fn tcgmsg(sock_buf_size: u64) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: format!("TCGMSG (SR_SOCK_BUF_SIZE={}k)", sock_buf_size / 1024),
            send_overhead_us: 2.0,
            recv_overhead_us: 1.5,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: None,
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::InCall,
            bonded_channels: 1,
        },
        transport: Transport::Tcp(TcpParams::with_bufs(sock_buf_size)),
    }
}

/// TCGMSG as shipped (32 kB hardwired buffer).
pub fn tcgmsg_default() -> MpLib {
    tcgmsg(kib(32))
}

// ---------------------------------------------------------------------------
// GM-hosted MPI implementations (fig. 4)
// ---------------------------------------------------------------------------

/// MPICH-GM: Myricom's MPICH port over GM. "MPICH-GM and MPI/Pro-GM
/// results are nearly identical, losing only a few percent off the raw GM
/// performance in the intermediate range." Eager/rendezvous at 16 kB is
/// "already optimal".
pub fn mpich_gm(mode: RecvMode) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: format!("MPICH-GM ({mode:?})"),
            send_overhead_us: 1.5,
            recv_overhead_us: 1.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(kib(16)),
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::InCall,
            bonded_channels: 1,
        },
        transport: Transport::Raw(RawParams::gm(mode)),
    }
}

/// MPI/Pro's GM interface: like MPICH-GM plus the progress-thread
/// per-message cost.
pub fn mpipro_gm(mode: RecvMode) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: "MPI/Pro-GM".to_string(),
            send_overhead_us: 4.0,
            recv_overhead_us: 3.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(kib(16)),
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::Thread,
            bonded_channels: 1,
        },
        transport: Transport::Raw(RawParams::gm(mode)),
    }
}

// ---------------------------------------------------------------------------
// VIA-hosted libraries (fig. 5)
// ---------------------------------------------------------------------------

/// MVICH tuning knobs (§6.1).
#[derive(Debug, Clone)]
pub struct MvichConfig {
    /// `VIADEV_RPUT_SUPPORT`: RDMA-put for large messages — "vital … to
    /// get good performance"; without it every byte is copied through
    /// pre-registered bounce buffers.
    pub(crate) rput_support: bool,
    /// `via_long`: the RDMA/rendezvous threshold. Default 16 kB dips;
    /// 64 kB removes the dip (higher froze the system).
    pub(crate) via_long: u64,
}

impl Default for MvichConfig {
    fn default() -> Self {
        MvichConfig {
            rput_support: false,
            via_long: kib(16),
        }
    }
}

impl MvichConfig {
    /// The paper's tuned settings.
    pub fn tuned() -> Self {
        MvichConfig {
            rput_support: true,
            via_long: kib(64),
        }
    }
}

/// MVICH 1.0 (MPICH ADI2 over VIA) on the given VIA substrate — pass
/// [`RawParams::giganet`] or [`RawParams::mvia_sk98lin`].
pub fn mvich(cfg: MvichConfig, via: RawParams) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: format!(
                "MVICH (via_long={}k{})",
                cfg.via_long / 1024,
                if cfg.rput_support { ", RPUT" } else { "" }
            ),
            send_overhead_us: 2.0,
            recv_overhead_us: 1.5,
            send_copies: 0,
            recv_copies: u32::from(!cfg.rput_support),
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(cfg.via_long),
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::InCall,
            bonded_channels: 1,
        },
        transport: Transport::Raw(via),
    }
}

/// MP_Lite's VIA module (§6.1) — ~10 µs latency on Giganet.
pub fn mp_lite_via(via: RawParams) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: "MP_Lite-VIA".to_string(),
            send_overhead_us: 1.0,
            recv_overhead_us: 0.5,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(kib(16)),
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::Sigio,
            bonded_channels: 1,
        },
        transport: Transport::Raw(via),
    }
}

/// MPI/Pro's VIA module — the progress thread costs it a 42 µs latency
/// where MVICH and MP_Lite get ~10 µs (§6.2).
pub fn mpipro_via(via: RawParams) -> MpLib {
    MpLib {
        profile: LibProfile {
            name: "MPI/Pro-VIA".to_string(),
            send_overhead_us: 18.0,
            recv_overhead_us: 14.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: Some(kib(64)),
            ctrl_bytes: 24,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::Thread,
            bonded_channels: 1,
        },
        transport: Transport::Raw(via),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpich_defaults_match_paper() {
        let cfg = MpichConfig::default();
        assert_eq!(cfg.p4_sockbufsize, kib(32));
        assert_eq!(cfg.rendezvous, kib(128));
        let lib = mpich(cfg);
        assert_eq!(lib.profile.recv_copies, 1, "p4 always buffers receives");
        match &lib.transport {
            Transport::Tcp(p) => assert!(p.block_sync_writes),
            _ => panic!("mpich runs on tcp"),
        }
    }

    #[test]
    fn lam_o_flag_removes_byte_checks() {
        assert!(lammpi(LamConfig::default())
            .profile
            .byte_check_bps
            .is_finite());
        assert!(lammpi(LamConfig::tuned())
            .profile
            .byte_check_bps
            .is_infinite());
    }

    #[test]
    fn lamd_mode_routes_through_daemons() {
        let lib = lammpi(LamConfig {
            optimized_o: true,
            use_lamd: true,
        });
        assert_eq!(lib.profile.routing, Routing::Daemon);
        assert!(lib.profile.fragment.is_some());
    }

    #[test]
    fn pvm_default_is_daemon_stop_and_wait() {
        let lib = pvm(PvmConfig::default());
        assert_eq!(lib.profile.routing, Routing::Daemon);
        assert!(lib.profile.fragment.unwrap().stop_and_wait);
        assert_eq!(lib.profile.send_copies, 1);
        assert_eq!(lib.profile.recv_copies, 1);
    }

    #[test]
    fn pvm_in_place_only_skips_send_copy() {
        let lib = pvm(PvmConfig::tuned());
        assert_eq!(lib.profile.send_copies, 0);
        assert_eq!(lib.profile.recv_copies, 1, "receive still unpacks");
    }

    #[test]
    fn tcgmsg_buffer_is_the_only_knob() {
        let d = tcgmsg_default();
        match &d.transport {
            Transport::Tcp(p) => assert_eq!(p.sndbuf, kib(32)),
            _ => panic!(),
        }
        assert_eq!(d.profile.recv_copies, 0, "thin layer: no buffering");
    }

    #[test]
    fn mp_lite_uses_system_max_buffers() {
        let kernel = hwmodel::presets::linux_2_4().with_raised_sockbuf_max();
        let lib = mp_lite(&kernel);
        match &lib.transport {
            Transport::Tcp(p) => assert_eq!(p.sndbuf, kernel.sockbuf_max),
            _ => panic!(),
        }
    }

    #[test]
    fn mvich_without_rput_copies() {
        assert_eq!(
            mvich(MvichConfig::default(), RawParams::giganet())
                .profile
                .recv_copies,
            1
        );
        assert_eq!(
            mvich(MvichConfig::tuned(), RawParams::giganet())
                .profile
                .recv_copies,
            0
        );
    }

    #[test]
    fn mpipro_via_has_progress_thread_overhead() {
        let pro = mpipro_via(RawParams::giganet());
        let lite = mp_lite_via(RawParams::giganet());
        let pro_cost = pro.profile.send_overhead_us + pro.profile.recv_overhead_us;
        let lite_cost = lite.profile.send_overhead_us + lite.profile.recv_overhead_us;
        assert!(pro_cost > lite_cost + 25.0, "42us vs 10us latency gap");
    }

    #[test]
    fn gm_libraries_use_16k_threshold() {
        for lib in [mpich_gm(RecvMode::Hybrid), mpipro_gm(RecvMode::Hybrid)] {
            assert_eq!(
                lib.profile.rendezvous_bytes,
                Some(kib(16)),
                "{}",
                lib.name()
            );
        }
    }
}
