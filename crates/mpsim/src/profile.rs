//! Library behaviour profiles.
//!
//! Every message-passing library in the paper is characterized by a small
//! set of architectural mechanisms (§3, §7). A [`LibProfile`] captures
//! them as data; the executor in `crate::session` turns a profile plus a
//! transport binding into simulated message transfers. Keeping behaviour
//! declarative makes each library's model auditable against the paper and
//! lets the ablation benches switch individual mechanisms off.

use protosim::{RawParams, TcpParams};
use simcore::SimDuration;

/// Which native communication layer the library runs on.
#[derive(Debug, Clone)]
pub enum Transport {
    /// Kernel TCP sockets (MPICH, LAM/MPI, MPI/Pro, MP_Lite, PVM, TCGMSG).
    Tcp(TcpParams),
    /// An OS-bypass fabric: GM or VIA (MPICH-GM, MPI/Pro-GM, MVICH,
    /// MP_Lite-VIA, MPI/Pro-VIA).
    Raw(RawParams),
}

/// How messages travel between the two applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Directly over one connection (every tuned configuration).
    Direct,
    /// Relayed through per-host daemons (`pvmd` default, LAM `-lamd`):
    /// application → local daemon → remote daemon → remote application.
    Daemon,
}

/// How a library makes progress on outstanding messages while the
/// application is busy computing (§7: "A message-passing library like
/// MPI/Pro that has a message progress thread, or MP_Lite that is SIGIO
/// interrupt driven, will keep data flowing more readily").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// Progress only inside library calls (MPICH/p4, PVM, TCGMSG): a busy
    /// receiver cannot answer rendezvous handshakes or drain its buffers.
    InCall,
    /// A dedicated progress thread (MPI/Pro) keeps handshakes and
    /// transfers moving.
    Thread,
    /// SIGIO-driven handlers (MP_Lite) run whenever data arrives.
    Sigio,
    /// The kernel itself moves the data (raw TCP/GM): transfers proceed up
    /// to the transport's own buffering regardless of the application.
    Kernel,
}

/// Library-imposed fragmentation above the transport's own segmentation.
#[derive(Debug, Clone, Copy)]
pub struct FragmentCfg {
    /// Fragment payload size (PVM: 4080 bytes).
    pub(crate) bytes: u64,
    /// Per-fragment library overhead at each traversal, µs.
    pub(crate) per_frag_us: f64,
    /// Stop-and-wait acknowledgement per fragment (the pvmd↔pvmd UDP
    /// reliability protocol) — the mechanism that caps daemon-routed PVM
    /// near 90 Mbps (§4.5).
    pub stop_and_wait: bool,
}

/// The architectural mechanisms of one message-passing library.
#[derive(Debug, Clone)]
pub struct LibProfile {
    /// Display name, e.g. `"MPICH 1.2.3"`.
    pub name: String,
    /// Fixed per-message cost on the sending side, µs (argument checking,
    /// queue management, progress-thread handoff).
    pub(crate) send_overhead_us: f64,
    /// Fixed per-message cost on the receiving side, µs.
    pub(crate) recv_overhead_us: f64,
    /// Serial bulk copies *before* the transport send (PVM packing
    /// without `PvmDataInPlace`).
    pub(crate) send_copies: u32,
    /// Serial bulk copies *after* delivery (MPICH/p4 draining its receive
    /// buffer; PVM unpacking). Charged at the host's cold `memcpy` rate —
    /// the paper's §7 explanation for the 25–30 % large-message loss.
    pub recv_copies: u32,
    /// Per-byte data inspection serialized with receive (LAM/MPI without
    /// `-O` checks every element for heterogeneous conversion), bytes/sec;
    /// `f64::INFINITY` disables it.
    pub(crate) byte_check_bps: f64,
    /// Eager→rendezvous threshold: messages above it pay a
    /// request-to-send / clear-to-send handshake (two extra one-way
    /// latencies) before the data moves — the dip every library shows at
    /// its threshold.
    pub rendezvous_bytes: Option<u64>,
    /// Size of a handshake control message.
    pub(crate) ctrl_bytes: u64,
    /// Library-level fragmentation, if any.
    pub fragment: Option<FragmentCfg>,
    /// Direct or daemon-relayed routing.
    pub routing: Routing,
    /// Progress model while the application computes.
    pub(crate) progress: Progress,
    /// Parallel NIC channels to stripe large messages across (MP_Lite's
    /// channel-bonding feature; 1 = normal operation). Requires a cluster
    /// with at least this many cards installed.
    pub bonded_channels: u32,
}

impl LibProfile {
    /// A neutral profile: no overheads, no copies, no handshakes — used
    /// for the raw-transport reference curves ("raw TCP", "raw GM").
    pub(crate) fn raw(name: &str) -> LibProfile {
        LibProfile {
            name: name.to_string(),
            send_overhead_us: 0.0,
            recv_overhead_us: 0.0,
            send_copies: 0,
            recv_copies: 0,
            byte_check_bps: f64::INFINITY,
            rendezvous_bytes: None,
            ctrl_bytes: 32,
            fragment: None,
            routing: Routing::Direct,
            progress: Progress::Kernel,
            bonded_channels: 1,
        }
    }

    /// Serial sender-side CPU work for one message of `bytes`: the fixed
    /// overhead plus `extra_us` (a degraded rank's surcharge), then the
    /// packing copies at the host's `memcpy_bps`.
    pub(crate) fn send_work(&self, bytes: u64, memcpy_bps: f64, extra_us: f64) -> SimDuration {
        SimDuration::from_micros_f64(self.send_overhead_us + extra_us)
            + SimDuration::for_bytes(bytes * u64::from(self.send_copies), memcpy_bps)
    }

    /// Serial receiver-side CPU work for one delivered message of
    /// `bytes`: the fixed overhead, the unpacking copies at `memcpy_bps`,
    /// then the per-byte check.
    pub(crate) fn recv_work(&self, bytes: u64, memcpy_bps: f64) -> SimDuration {
        SimDuration::from_micros_f64(self.recv_overhead_us)
            + SimDuration::for_bytes(bytes * u64::from(self.recv_copies), memcpy_bps)
            + SimDuration::for_bytes(bytes, self.byte_check_bps)
    }
}

/// A library model bound to the transport it runs on.
#[derive(Debug, Clone)]
pub struct MpLib {
    /// Behavioural profile.
    pub profile: LibProfile,
    /// Native layer underneath.
    pub transport: Transport,
}

impl MpLib {
    /// Display name.
    pub fn name(&self) -> &str {
        &self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::kib;

    #[test]
    fn raw_profile_is_transparent() {
        let p = LibProfile::raw("raw TCP");
        assert_eq!(p.send_copies + p.recv_copies, 0);
        assert!(p.rendezvous_bytes.is_none());
        assert_eq!(p.routing, Routing::Direct);
        assert_eq!(p.send_overhead_us, 0.0);
    }

    #[test]
    fn mplib_reports_profile_name() {
        let lib = MpLib {
            profile: LibProfile::raw("x"),
            transport: Transport::Tcp(TcpParams::with_bufs(kib(64))),
        };
        assert_eq!(lib.name(), "x");
    }
}
