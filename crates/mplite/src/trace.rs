//! Optional wall-clock tracing for the real library.
//!
//! `mplite` is real multi-threaded code, so its tracer is the
//! process-global [`WallTracer`]: install one with [`install`] before
//! creating a [`crate::Comm`] and every writer/reader thread records
//! its sends, progress-thread work, and deliveries into it. When no
//! tracer is installed (the default) the hooks reduce to one relaxed
//! atomic load — the library stays allocation- and syscall-identical.
//!
//! Track layout mirrors the simulated fabric's convention (one timeline
//! per actor): rank `r`'s application thread is track `4r`, its writer
//! thread `4r + 1`, and its reader (progress) threads `4r + 2`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use tracelab::WallTracer;

/// Application-thread role for [`track`].
pub(crate) const ROLE_APP: u32 = 0;
/// Writer-thread role for [`track`].
pub(crate) const ROLE_WRITER: u32 = 1;
/// Reader-(progress-)thread role for [`track`].
pub(crate) const ROLE_READER: u32 = 2;

static TRACER: OnceLock<Arc<WallTracer>> = OnceLock::new();

/// Install the process-global tracer. Returns `false` if one was already
/// installed (the first install wins; tracing cannot be swapped
/// mid-flight because running threads hold no reference of their own).
pub fn install(tracer: Arc<WallTracer>) -> bool {
    TRACER.set(tracer).is_ok()
}

/// The installed tracer, if any. Cheap enough for per-message paths.
pub(crate) fn installed() -> Option<&'static Arc<WallTracer>> {
    TRACER.get()
}

static NEXT_MSG: AtomicU64 = AtomicU64::new(0);

/// Allocate the next message-correlation id (1-based, process-global so
/// loopback jobs running several ranks in one process never collide).
pub(crate) fn next_msg() -> u64 {
    NEXT_MSG.fetch_add(1, Ordering::Relaxed) + 1
}

/// The trace track (timeline) for `role` of rank `rank`.
pub(crate) fn track(rank: usize, role: u32) -> u32 {
    rank as u32 * 4 + role
}

/// Human label for a track id produced by `track`.
pub fn track_label(t: u32) -> String {
    let rank = t / 4;
    match t % 4 {
        ROLE_APP => format!("rank{rank} app"),
        ROLE_WRITER => format!("rank{rank} writer"),
        ROLE_READER => format!("rank{rank} progress"),
        _ => format!("rank{rank} track{t}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_scheme_is_stable() {
        assert_eq!(track(0, ROLE_APP), 0);
        assert_eq!(track(1, ROLE_WRITER), 5);
        assert_eq!(track(2, ROLE_READER), 10);
        assert_eq!(track_label(5), "rank1 writer");
        assert_eq!(track_label(10), "rank2 progress");
        assert_eq!(track_label(0), "rank0 app");
    }

    #[test]
    fn install_is_first_wins() {
        // Single shared OnceLock across the test binary: the second set
        // must report failure regardless of which test installed first.
        let a = WallTracer::new();
        let first = install(Arc::clone(&a));
        let second = install(WallTracer::new());
        assert!(!second || first);
        assert!(installed().is_some());
    }
}
