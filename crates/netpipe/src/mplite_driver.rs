//! NetPIPE module for the real `mplite` library — the analogue of the
//! paper's MP_Lite measurements, run over genuine loopback sockets.

use std::time::Instant;

use mplite::{Comm, Universe};

use crate::driver::{Driver, DriverError};

/// Tag used for the ping-pong payload.
const PP_TAG: i32 = 1;
/// Tag used to tell the echo rank to exit.
const QUIT_TAG: i32 = 2;

/// NetPIPE over the real `mplite` message-passing library (two in-process
/// ranks over loopback TCP; rank 1 echoes).
pub struct MpliteDriver {
    comm: Option<Comm>,
    echo: Option<std::thread::JoinHandle<()>>,
    buf: Vec<u8>,
}

impl MpliteDriver {
    /// Boot a two-rank job and start the echo rank.
    pub fn new() -> Result<MpliteDriver, DriverError> {
        let mut comms = Universe::local(2)
            .map_err(|e| DriverError::Io(std::io::Error::other(e.to_string())))?;
        let short_job =
            || DriverError::Io(std::io::Error::other("local(2) returned too few ranks"));
        let echo_comm = comms.pop().ok_or_else(short_job)?;
        let comm = comms.pop().ok_or_else(short_job)?;
        let echo = std::thread::Builder::new()
            .name("mplite-echo".into())
            .spawn(move || echo_rank(echo_comm))
            .map_err(DriverError::Io)?;
        Ok(MpliteDriver {
            comm: Some(comm),
            echo: Some(echo),
            buf: Vec::new(),
        })
    }
}

fn echo_rank(comm: Comm) {
    loop {
        match comm.recv(0, mplite::ANY_TAG) {
            Ok((data, st)) if st.tag == PP_TAG => {
                // Resend the `Bytes` the receive handed over: `send`
                // would copy the payload into a fresh buffer first.
                if comm.isend(0, PP_TAG, data).and_then(|r| r.wait()).is_err() {
                    return;
                }
            }
            _ => return, // QUIT_TAG or error: job over
        }
    }
}

impl Driver for MpliteDriver {
    fn name(&self) -> String {
        "mplite (real sockets)".to_string()
    }

    fn roundtrip(&mut self, bytes: u64) -> Result<f64, DriverError> {
        let comm = self
            .comm
            .as_ref()
            .ok_or_else(|| DriverError::Io(std::io::Error::other("driver already shut down")))?;
        let n = bytes as usize;
        if self.buf.len() < n {
            self.buf = (0..n).map(|i| (i % 247) as u8).collect();
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the driver owns the clock: timing the round trip is its measurement"
        )]
        let start = Instant::now();
        comm.send(1, PP_TAG, &self.buf[..n])
            .map_err(|e| DriverError::Io(std::io::Error::other(e.to_string())))?;
        let (data, _) = comm
            .recv(1, PP_TAG)
            .map_err(|e| DriverError::Io(std::io::Error::other(e.to_string())))?;
        let elapsed = start.elapsed().as_secs_f64();
        if data.len() != n || data[..] != self.buf[..n] {
            return Err(DriverError::Io(std::io::Error::other(
                "mplite echo corrupted",
            )));
        }
        Ok(elapsed)
    }
}

impl Drop for MpliteDriver {
    fn drop(&mut self) {
        if let Some(comm) = self.comm.take() {
            let _ = comm.send(1, QUIT_TAG, b"");
            drop(comm);
        }
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run, RunOptions};

    #[test]
    fn mplite_roundtrip_works() {
        let mut d = MpliteDriver::new().unwrap();
        for size in [0u64, 1, 100, 10_000, 1_000_000] {
            let t = d.roundtrip(size).unwrap();
            assert!(t > 0.0, "size {size}");
        }
    }

    #[test]
    fn mplite_signature_shape() {
        let mut d = MpliteDriver::new().unwrap();
        let sig = run(&mut d, &RunOptions::quick(128 * 1024)).unwrap();
        assert!(
            sig.latency_us > 1.0 && sig.latency_us < 5000.0,
            "{}",
            sig.latency_us
        );
        assert!(sig.max_mbps > 200.0, "peak {}", sig.max_mbps);
    }
}
