//! Operating-system kernel models.
//!
//! The paper runs RedHat 7.2 with Linux 2.4.x for everything except the
//! M-VIA tests (2.4.2 kernel) and "some tests with the older kernel to
//! determine the difference in performance" (§2). Two kernel-level
//! behaviours matter to the measurements:
//!
//! * an extra receive-path wakeup cost in 2.4 relative to 2.2 — the paper
//!   calls the 2.4 GigE latencies "poor";
//! * the delayed-ACK interaction with *small* socket buffers: when the
//!   send buffer is well below the bandwidth-delay envelope, each window
//!   fill strands a sub-MSS tail segment that the receiver acknowledges
//!   only on its delayed-ACK timer. This is the mechanism behind MPICH's
//!   default `P4_SOCKBUFSIZE=32 kB` collapsing to ~75 Mbps (§4.1).
//!
//! The model also records the `net.core.rmem_max`/`wmem_max` sysctl
//! ceiling, which MP_Lite raises to get raw-TCP performance (§3.4).

use simcore::units::kib;

/// Kernel-dependent parameters of the TCP path.
#[derive(Debug, Clone)]
pub struct KernelModel {
    /// Version string.
    pub name: &'static str,
    /// Extra receive-path wakeup latency vs. the 2.2 baseline, µs.
    pub rx_extra_us: f64,
    /// Stall suffered once per window cycle when the effective window is
    /// below [`delack_window_bytes`](Self::delack_window_bytes), µs.
    pub delack_stall_us: f64,
    /// Windows smaller than this hit the delayed-ACK stall.
    pub delack_window_bytes: u64,
    /// Default socket-buffer size handed to unsuspecting applications.
    pub default_sockbuf: u64,
    /// `net.core.{r,w}mem_max`: the ceiling a process may request.
    pub sockbuf_max: u64,
}

impl KernelModel {
    /// Clamp a requested socket-buffer size to the sysctl ceiling.
    pub fn clamp_sockbuf(&self, requested: u64) -> u64 {
        requested.min(self.sockbuf_max)
    }

    /// Apply the paper's `/etc/sysctl.conf` tuning
    /// (`net.core.rmem_max = net.core.wmem_max = 4 MB`), which MP_Lite
    /// relies on (§3.4).
    pub fn with_raised_sockbuf_max(mut self) -> KernelModel {
        self.sockbuf_max = 4 * 1024 * 1024;
        self
    }
}

/// RedHat 7.2's Linux 2.4.x — the paper's main kernel.
pub fn linux_2_4() -> KernelModel {
    KernelModel {
        name: "Linux 2.4 (RedHat 7.2)",
        rx_extra_us: 15.0,
        delack_stall_us: 3000.0,
        delack_window_bytes: kib(64),
        default_sockbuf: kib(64),
        sockbuf_max: kib(128),
    }
}

/// The older Linux 2.2 kernel used for the latency comparison (§2).
pub fn linux_2_2() -> KernelModel {
    KernelModel {
        name: "Linux 2.2",
        rx_extra_us: 0.0,
        delack_stall_us: 3000.0,
        delack_window_bytes: kib(64),
        default_sockbuf: kib(64),
        sockbuf_max: kib(128),
    }
}

/// Linux 2.4.2 — required by the M-VIA beta (§2). TCP-path behaviour is
/// that of 2.4.
pub(crate) fn linux_2_4_2_mvia() -> KernelModel {
    KernelModel {
        name: "Linux 2.4.2 (M-VIA)",
        ..linux_2_4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_24_has_worse_rx_latency_than_22() {
        assert!(linux_2_4().rx_extra_us > linux_2_2().rx_extra_us);
    }

    #[test]
    fn sockbuf_clamping() {
        let k = linux_2_4();
        assert_eq!(k.clamp_sockbuf(kib(32)), kib(32));
        assert_eq!(k.clamp_sockbuf(kib(512)), kib(128));
        let tuned = k.with_raised_sockbuf_max();
        assert_eq!(tuned.clamp_sockbuf(kib(512)), kib(512));
        assert_eq!(tuned.clamp_sockbuf(16 * 1024 * 1024), 4 * 1024 * 1024);
    }

    #[test]
    fn default_buffers_are_small() {
        // The whole point of §4: "The default OS tuning levels have not
        // kept pace with what is needed to communicate at higher speeds."
        assert!(linux_2_4().default_sockbuf <= kib(64));
    }

    #[test]
    fn delack_threshold_spans_small_buffers() {
        let k = linux_2_4();
        assert!(kib(32) < k.delack_window_bytes);
        assert!(kib(256) > k.delack_window_bytes);
    }
}
