//! The two real-wire workloads (`wire_small`, `wire_large`): NetPIPE
//! round trips over the real `mplite` library on the host's loopback
//! interface — never a real link — and their traced replay.

use std::time::Instant;

use mplite::{Comm, Universe};
use netpipe::{Driver, MpliteDriver};
use simcore::SimRng;

use crate::sim::{Budget, Counts, Replay};
use crate::span::{Recorder, OP};

/// Message tags of the replay's echo protocol.
const PING: i32 = 1;
const QUIT: i32 = 2;

/// A fixed-size ping-pong between two in-process `mplite` ranks.
#[derive(Debug, Clone, Copy)]
pub struct WirePlan {
    /// Payload bytes each way.
    pub bytes: u64,
    /// Seconds of untimed round trips after mesh boot. A new mesh can
    /// run three times faster for its first second or two than in the
    /// state it settles in, so the warm-up is long, and it is a time
    /// and not a count: a count would make `setup_s` read 0.4 s or
    /// 1.5 s depending on the mode the mesh happened to boot in.
    pub warmup_s: f64,
    /// Ops per reporting slice: about a second's worth.
    pub slice_ops: usize,
}

impl WirePlan {
    /// 64 B: per-message cost only.
    pub const SMALL: WirePlan = WirePlan {
        bytes: 64,
        warmup_s: 1.0,
        slice_ops: 25_000,
    };
    /// 1 MiB: per-byte cost only.
    pub const LARGE: WirePlan = WirePlan {
        bytes: 1 << 20,
        warmup_s: 1.2,
        slice_ops: 80,
    };

    /// One set-up: boot the two-rank mesh and warm it up for
    /// `warmup_s`. Returns the driver and the round trips it took.
    pub fn boot(&self, warmup_s: f64) -> Result<(MpliteDriver, usize), String> {
        let t0 = Instant::now();
        let mut driver = MpliteDriver::new().map_err(|e| format!("mesh boot: {e}"))?;
        let mut warmup = 0;
        while warmup == 0 || t0.elapsed().as_secs_f64() < warmup_s {
            driver
                .roundtrip(self.bytes)
                .map_err(|e| format!("warm-up round trip: {e}"))?;
            warmup += 1;
        }
        Ok((driver, warmup))
    }
}

/// What the timed loop measured.
pub struct WireRun {
    pub samples_ns: Vec<u64>,
    pub wall_s: f64,
    /// Round trips that returned an error (echo mismatch included).
    pub errors: Vec<String>,
}

/// Closed loop, one client: `Driver::roundtrip(bytes)` until `budget`
/// is spent. The driver verifies the echo of every op.
pub fn timed_roundtrips(driver: &mut MpliteDriver, bytes: u64, budget: Budget) -> WireRun {
    let mut run = WireRun {
        samples_ns: Vec::with_capacity(1 << 20),
        wall_s: 0.0,
        errors: Vec::new(),
    };
    let t0 = Instant::now();
    loop {
        let op0 = Instant::now();
        let result = driver.roundtrip(bytes);
        let now = Instant::now();
        run.samples_ns.push((now - op0).as_nanos() as u64);
        run.wall_s = (now - t0).as_secs_f64();
        if let Err(e) = result {
            run.errors.push(e.to_string());
            // A broken mesh fails every later op the same way.
            break;
        }
        if budget.spent(run.wall_s, run.samples_ns.len()) {
            break;
        }
    }
    run
}

/// `len` payload bytes drawn from `rng`.
pub fn payload(len: usize, rng: &mut SimRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The echo rank of the replay: bounce every `PING` back until told to
/// quit, a span around each library call once the `warmup` is over.
fn echo_rank(comm: Comm, warmup: usize, mut rec: Recorder) -> Recorder {
    let mut off = Recorder::off();
    for i in 0.. {
        let rec = if i < warmup { &mut off } else { &mut rec };
        rec.set_op(i.saturating_sub(warmup) as u32);
        let s = rec.enter("mplite:Comm::recv (echo rank, incl. wait)");
        let got = comm.recv(0, mplite::ANY_TAG);
        rec.exit(s);
        let Ok((data, status)) = got else { break };
        if status.tag != PING {
            break;
        }
        let s = rec.enter("mplite:Comm::send (echo rank)");
        let sent = comm.send(0, PING, &data);
        rec.exit(s);
        if sent.is_err() {
            break;
        }
    }
    rec
}

/// Replay `ops` round trips by driving `Universe::local(2)` directly —
/// what `MpliteDriver` does inside — with spans around rank 0's `send`
/// and `recv` and around the echo rank's `recv` and `send`, after as
/// many untraced warm-up round trips as the timed driver's boot took.
/// The payload comes from `rng`; every echo is compared with it.
pub fn replay(
    bytes: u64,
    warmup: usize,
    ops: usize,
    rng: &mut SimRng,
    rec: &mut Recorder,
) -> Replay {
    let mut out = Replay::default();
    let data = payload(bytes as usize, rng);
    let mut comms = match Universe::local(2) {
        Ok(c) if c.len() == 2 => c,
        Ok(_) => {
            out.errors
                .push("Universe::local(2) returned too few ranks".into());
            return out;
        }
        Err(e) => {
            out.errors.push(format!("mesh boot: {e}"));
            return out;
        }
    };
    let (echo_comm, comm) = (
        comms.pop().expect("two ranks"),
        comms.pop().expect("two ranks"),
    );
    let echo_rec = rec.sibling(1);
    let mut warm = Recorder::off();
    let echo = std::thread::spawn(move || echo_rank(echo_comm, warmup, echo_rec));
    let one = |rec: &mut Recorder, op: u32| -> Result<(), String> {
        rec.set_op(op);
        let root = rec.enter(OP);
        let s = rec.enter("mplite:Comm::send");
        let sent = comm.send(1, PING, &data);
        rec.exit(s);
        let s = rec.enter("mplite:Comm::recv (incl. wait for echo)");
        let got = comm.recv(1, PING);
        rec.exit(s);
        let s = rec.enter("harness:verify echo");
        let verdict = match (sent, got) {
            (Err(e), _) => Err(format!("send: {e}")),
            (_, Err(e)) => Err(format!("recv: {e}")),
            (Ok(()), Ok((echoed, _))) if echoed[..] == data[..] => Ok(()),
            _ => Err("echo differs from what was sent".to_string()),
        };
        rec.exit(s);
        rec.exit(root);
        verdict
    };
    let mut broken = false;
    for _ in 0..warmup {
        if let Err(e) = one(&mut warm, 0) {
            out.errors.push(format!("warm-up: {e}"));
            broken = true;
            break;
        }
    }
    if !broken {
        for op in 0..ops {
            let t0 = Instant::now();
            let result = one(rec, op as u32);
            out.wall_s += t0.elapsed().as_secs_f64();
            out.ops += 1;
            match result {
                Ok(()) => {
                    out.counts += Counts {
                        events: 0,
                        points: 1,
                        bytes: 2 * bytes,
                    }
                }
                Err(e) => {
                    out.errors.push(e);
                    break;
                }
            }
        }
    }
    let _ = comm.send(1, QUIT, b"");
    drop(comm);
    match echo.join() {
        Ok(echo_rec) => rec.absorb(echo_rec),
        Err(_) => out.errors.push("echo rank panicked".into()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_follows_the_seed() {
        let a = payload(100, &mut SimRng::new(5));
        assert_eq!(a.len(), 100);
        assert_eq!(a, payload(100, &mut SimRng::new(5)));
        assert_ne!(a, payload(100, &mut SimRng::new(6)));
        assert!(payload(0, &mut SimRng::new(5)).is_empty());
    }
}
