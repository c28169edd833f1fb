//! Error types.

use std::fmt;
use std::io;

use crate::frame::FrameError;

/// Errors surfaced by the message-passing API.
#[derive(Debug)]
pub enum MpError {
    /// An underlying socket operation failed.
    Io(io::Error),
    /// A peer closed its connection while traffic was still expected.
    Disconnected {
        /// The peer whose link dropped.
        peer: usize,
    },
    /// An argument referenced a rank outside the job.
    BadRank {
        /// The offending rank.
        rank: usize,
        /// Number of ranks in the job.
        nprocs: usize,
    },
    /// A receive matched a message longer than the provided buffer.
    Truncated {
        /// Bytes available in the matched message.
        got: usize,
        /// Capacity of the receive buffer.
        want: usize,
    },
    /// A peer rank was declared dead: its connection closed without the
    /// shutdown handshake, or it stopped making progress past the
    /// collective round deadline. Unlike [`MpError::Disconnected`]
    /// (a link-level observation), this is a membership verdict — the
    /// rank is gone and the judgment has been propagated to survivors.
    RankDead {
        /// The dead peer's world rank.
        rank: usize,
    },
    /// A peer put malformed bytes on the wire: bad magic, an
    /// unsupported version, a length over the cap, a truncated frame,
    /// or a checksum mismatch. Unlike [`MpError::RankDead`], this names
    /// *what* the peer sent, not just that it vanished.
    Frame {
        /// The rank at the other end of the malformed frame.
        peer: usize,
        /// What exactly was wrong with the bytes.
        err: FrameError,
    },
    /// The communicator has been shut down.
    Finalized,
    /// A call violated the API's calling convention (e.g. a collective
    /// root that supplied no payload).
    BadArg(&'static str),
}

impl MpError {
    /// Wrap an I/O error from operation `op`, keeping the kind so
    /// timeout/disconnect classification still works upstream.
    pub(crate) fn from_io(op: &'static str, e: io::Error) -> MpError {
        MpError::Io(io::Error::new(e.kind(), format!("{op}: {e}")))
    }
}

impl fmt::Display for MpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpError::Io(e) => write!(f, "socket error: {e}"),
            MpError::Disconnected { peer } => write!(f, "peer {peer} disconnected"),
            MpError::BadRank { rank, nprocs } => {
                write!(f, "rank {rank} out of range (nprocs={nprocs})")
            }
            MpError::Truncated { got, want } => {
                write!(f, "message of {got} bytes truncated to buffer of {want}")
            }
            MpError::RankDead { rank } => {
                write!(
                    f,
                    "rank {rank} is dead (unannounced exit or missed deadline)"
                )
            }
            MpError::Frame { peer, err } => {
                write!(f, "rank {peer} sent a malformed frame: {err}")
            }
            MpError::Finalized => write!(f, "communicator already finalized"),
            MpError::BadArg(what) => write!(f, "bad argument: {what}"),
        }
    }
}

impl std::error::Error for MpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for MpError {
    fn from(e: io::Error) -> Self {
        MpError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MpError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = MpError::BadRank { rank: 9, nprocs: 4 };
        assert!(e.to_string().contains("rank 9"));
        let e = MpError::Truncated { got: 10, want: 4 };
        assert!(e.to_string().contains("10"));
        let io = MpError::from(io::Error::new(io::ErrorKind::BrokenPipe, "x"));
        assert!(matches!(io, MpError::Io(_)));
        let dead = MpError::RankDead { rank: 5 };
        assert!(dead.to_string().contains("rank 5 is dead"));
        let frame = MpError::Frame {
            peer: 3,
            err: FrameError::ChecksumMismatch {
                expect: 0xAB,
                got: 0xCD,
            },
        };
        let text = frame.to_string();
        assert!(text.contains("rank 3"), "{text}");
        assert!(text.contains("checksum"), "{text}");
    }
}
