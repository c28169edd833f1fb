//! Fault-event accounting, summarizable across runs.

use std::fmt;

/// Counts of injected and observed fault events.
///
/// The sim fabric fills these as its [`crate::FaultLottery`] decides;
/// real-mode drivers bump the timeout/reconnect counters as they retry.
/// `merge` lets a driver that builds a fresh world per measurement keep
/// a running total for the whole sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Segments dropped on the wire.
    pub dropped: u64,
    /// Segments duplicated on the wire.
    pub(crate) duplicated: u64,
    /// Segments delayed (jitter, reorder hold-back, degradation window).
    pub(crate) delayed: u64,
    /// TCP retransmissions performed.
    pub retransmits: u64,
    /// Connections declared dead after exhausting retransmissions.
    pub conn_deaths: u64,
    /// Real-mode operation timeouts.
    pub timeouts: u64,
    /// Real-mode reconnect attempts.
    pub reconnects: u64,
    /// Frames with a bit flipped by the byte-level proxy.
    pub corrupted: u64,
    /// Frames cut short by the proxy (mid-frame EOF downstream).
    pub truncated: u64,
    /// Frames held for the plan's stall duration before forwarding.
    pub stalled: u64,
    /// Frames delivered behind their successor by the proxy.
    pub reordered: u64,
    /// Frames blackholed inside an active partition window.
    pub partitioned: u64,
}

impl FaultCounters {
    /// Add another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.retransmits += other.retransmits;
        self.conn_deaths += other.conn_deaths;
        self.timeouts += other.timeouts;
        self.reconnects += other.reconnects;
        self.corrupted += other.corrupted;
        self.truncated += other.truncated;
        self.stalled += other.stalled;
        self.reordered += other.reordered;
        self.partitioned += other.partitioned;
    }

    /// Did anything at all happen?
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }
}

impl fmt::Display for FaultCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped={} duplicated={} delayed={} retransmits={} conn-deaths={} timeouts={} \
             reconnects={} corrupted={} truncated={} stalled={} reordered={} partitioned={}",
            self.dropped,
            self.duplicated,
            self.delayed,
            self.retransmits,
            self.conn_deaths,
            self.timeouts,
            self.reconnects,
            self.corrupted,
            self.truncated,
            self.stalled,
            self.reordered,
            self.partitioned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = FaultCounters {
            dropped: 1,
            retransmits: 2,
            ..Default::default()
        };
        let b = FaultCounters {
            dropped: 3,
            timeouts: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.dropped, 4);
        assert_eq!(a.retransmits, 2);
        assert_eq!(a.timeouts, 4);
        assert!(a.any());
        assert!(!FaultCounters::default().any());
    }

    #[test]
    fn display_lists_every_field() {
        let s = FaultCounters::default().to_string();
        for key in [
            "dropped",
            "duplicated",
            "delayed",
            "retransmits",
            "conn-deaths",
            "timeouts",
            "reconnects",
            "corrupted",
            "truncated",
            "stalled",
            "reordered",
            "partitioned",
        ] {
            assert!(s.contains(key), "{s} missing {key}");
        }
    }
}
