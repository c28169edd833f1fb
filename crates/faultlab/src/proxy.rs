//! A deterministic byte-level chaos proxy for real TCP connections.
//!
//! The sim-side [`crate::FaultLottery`] injures *modelled* segments; this
//! module injures *actual bytes*. A [`ChaosProxy`] fronts an upstream
//! listener with its own loopback listener and pumps every connection
//! through seeded per-frame fault decisions taken from the byte-level
//! clauses of a [`FaultPlan`] (`corrupt=`, `truncate=`, `stall=`,
//! `partition=`, `reorder-frame`):
//!
//! * **corrupt** — flip one seeded bit anywhere in the frame (the
//!   receiver's CRC must catch it);
//! * **truncate** — forward a seeded prefix, then drop the connection,
//!   so the receiver sees a mid-frame EOF;
//! * **stall** — hold the frame for the plan's stall duration before
//!   forwarding (the receiver's deadline logic must absorb or time out);
//! * **partition** — blackhole whole frames between two rank groups
//!   during a timed window;
//! * **reorder-frame** — hold a frame back so it lands behind its
//!   successor.
//!
//! Determinism is the whole point: every pump direction owns a
//! [`SimRng`] derived from `(plan.seed, a, b, direction, connection)`,
//! the partition clock is a virtual per-direction frame counter (one
//! frame = `FRAME_TICK_US`), and the draw order per frame is fixed
//! (partition → corrupt → truncate → stall → reorder). Two runs of the
//! same workload under the same seed therefore produce byte-identical
//! fault counters and fault logs — a failing chaos run is its own
//! reproducer.
//!
//! The proxy is frame-*aware* but protocol-*agnostic*: a [`FrameFormat`]
//! tells it where the declared payload length sits in the header. It
//! never validates checksums — that is the receiver's job, and exactly
//! what the fuzzer and chaos tests are checking.

use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use simcore::SimRng;

use crate::counters::FaultCounters;
use crate::io::{accept_deadline, connect_retry, read_exact_deadline, write_all_deadline};
use crate::plan::FaultPlan;
use crate::retry::RetryPolicy;

/// Virtual time one forwarded frame advances the partition clock by,
/// microseconds. Partition windows in a plan are expressed against this
/// clock, so `partition=0|1@1ms..4ms` means "frames 10..40 of each
/// direction are inside the window" — wall time never enters into it.
pub(crate) const FRAME_TICK_US: f64 = 100.0;

/// How often an idle pump re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Byte layout the proxy needs to slice a stream into whole frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameFormat {
    /// Fixed header size in bytes.
    pub(crate) header_len: usize,
    /// Offset of the u64 little-endian payload length inside the header.
    pub(crate) len_at: usize,
    /// Declared payloads above this stream through unfaulted (and
    /// unbuffered) — the proxy refuses to allocate on a peer's say-so,
    /// same as the receivers it fronts.
    pub(crate) max_frame: u64,
}

impl FrameFormat {
    /// The mplite/netpipe v2 wire: 24-byte header with the payload
    /// length at bytes 12..20.
    pub const MPLITE_V2: FrameFormat = FrameFormat {
        header_len: 24,
        len_at: 12,
        max_frame: 1 << 28,
    };
}

/// One recorded fault event. Kept structured so logs sort and compare
/// deterministically; `Display` renders the human-readable line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Source rank of the injured direction.
    pub(crate) from: usize,
    /// Destination rank of the injured direction.
    pub(crate) to: usize,
    /// Connection index between the pair (0 for the first accept).
    pub(crate) conn: u64,
    /// Frame index within the direction when the fault fired.
    pub(crate) frame: u64,
    /// What happened (`corrupt bit 13`, `truncate to 7 of 31 bytes`…).
    pub(crate) what: String,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}->{} conn{} frame{}: {}",
            self.from, self.to, self.conn, self.frame, self.what
        )
    }
}

struct Shared {
    plan: FaultPlan,
    format: FrameFormat,
    counters: Mutex<FaultCounters>,
    log: Mutex<Vec<FaultEvent>>,
    shutdown: AtomicBool,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// An in-process TCP interposer applying a [`FaultPlan`]'s byte-level
/// clauses to every frame it forwards. See the module docs for the fault
/// menu and the determinism contract.
pub struct ChaosProxy {
    shared: Arc<Shared>,
    acceptors: Mutex<Vec<JoinHandle<()>>>,
}

impl ChaosProxy {
    /// Build a proxy for `plan`'s byte-level clauses over `format`
    /// frames. One proxy can front any number of (pair, upstream)
    /// connections; they share the counters and the log.
    pub fn new(plan: FaultPlan, format: FrameFormat) -> ChaosProxy {
        ChaosProxy {
            shared: Arc::new(Shared {
                plan,
                format,
                counters: Mutex::new(FaultCounters::default()),
                log: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                pumps: Mutex::new(Vec::new()),
            }),
            acceptors: Mutex::new(Vec::new()),
        }
    }

    /// Open a loopback front for the connection rank `a` is about to
    /// dial to rank `b` at `upstream`. Returns the address to dial
    /// instead. Every connection accepted on the front is pumped
    /// bidirectionally: `a → b` traffic is direction 0, `b → a` is
    /// direction 1, and each (direction, connection) gets its own
    /// derived RNG.
    pub fn front(&self, a: usize, b: usize, upstream: SocketAddr) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let acceptor = std::thread::spawn(move || {
            let conn_idx = AtomicU64::new(0);
            while !shared.shutdown.load(Ordering::SeqCst) {
                let shared_flag = Arc::clone(&shared);
                let down = match accept_deadline(&listener, Duration::from_secs(3600), || {
                    !shared_flag.shutdown.load(Ordering::SeqCst)
                }) {
                    Ok(s) => s,
                    Err(_) => continue, // shutdown or timeout: re-check the flag
                };
                let up = match connect_retry(
                    upstream,
                    Duration::from_secs(1),
                    &RetryPolicy::default(),
                ) {
                    Ok(s) => s,
                    Err(_) => {
                        let _ = down.shutdown(Shutdown::Both);
                        continue;
                    }
                };
                let conn = conn_idx.fetch_add(1, Ordering::SeqCst);
                spawn_pumps(&shared, a, b, conn, down, up);
            }
        });
        relock(&self.acceptors).push(acceptor);
        Ok(addr)
    }

    /// Stop accepting, wait for every pump to drain (they exit on EOF or
    /// on this shutdown flag), and return the final counters and the
    /// sorted fault log. Call after the workload has released its
    /// sockets; the counters are then a pure function of (plan, traffic).
    pub fn finish(self) -> (FaultCounters, Vec<FaultEvent>) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for h in relock(&self.acceptors).drain(..) {
            let _ = h.join();
        }
        let pumps: Vec<_> = relock(&self.shared.pumps).drain(..).collect();
        for h in pumps {
            let _ = h.join();
        }
        let counters = *relock(&self.shared.counters);
        let mut log = relock(&self.shared.log).clone();
        log.sort();
        (counters, log)
    }

    /// Snapshot the counters mid-run (pumps may still be moving bytes;
    /// for the deterministic final numbers use [`ChaosProxy::finish`]).
    pub fn counters(&self) -> FaultCounters {
        *relock(&self.shared.counters)
    }
}

impl Drop for ChaosProxy {
    /// A proxy dropped without [`ChaosProxy::finish`] must not leave
    /// acceptor/pump threads spinning: raise the shutdown flag so they
    /// exit at their next poll (they are not joined — `finish` is the
    /// orderly path).
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Lock a registry even if some pump thread panicked while holding it —
/// chaos tooling must never compound a failure by poisoning itself.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Derive a per-(pair, direction, connection) seed from the plan seed.
/// Any good mixer works; what matters is that it is a pure function of
/// its inputs so reruns line up draw-for-draw.
fn derive_seed(seed: u64, a: u64, b: u64, dir: u64, conn: u64) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [a, b, dir, conn] {
        x = (x ^ v)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .rotate_left(27)
            .wrapping_add(0x94D0_49BB_1331_11EB);
    }
    x
}

fn spawn_pumps(
    shared: &Arc<Shared>,
    a: usize,
    b: usize,
    conn: u64,
    down: TcpStream,
    up: TcpStream,
) {
    let mut handles = Vec::with_capacity(2);
    for (dir, (src, dst)) in [(a, b), (b, a)].into_iter().enumerate() {
        let (from, to) = if dir == 0 {
            (down.try_clone(), up.try_clone())
        } else {
            (up.try_clone(), down.try_clone())
        };
        let (Ok(from), Ok(to)) = (from, to) else {
            let _ = down.shutdown(Shutdown::Both);
            let _ = up.shutdown(Shutdown::Both);
            return;
        };
        let shared = Arc::clone(shared);
        let rng = SimRng::new(derive_seed(
            shared.plan.seed,
            a as u64,
            b as u64,
            dir as u64,
            conn,
        ));
        handles.push(std::thread::spawn(move || {
            pump(&shared, src, dst, conn, from, to, rng);
        }));
    }
    relock(&shared.pumps).extend(handles);
}

/// Pump one direction of one connection, frame by frame, applying the
/// plan's byte-level faults in the fixed draw order.
fn pump(
    shared: &Shared,
    src: usize,
    dst: usize,
    conn: u64,
    mut from: TcpStream,
    mut to: TcpStream,
    mut rng: SimRng,
) {
    let plan = &shared.plan;
    let fmt = shared.format;
    let deadline = plan.io_deadline;
    let mut held: Option<Vec<u8>> = None;
    let mut frame_idx: u64 = 0;

    let record = |what: String, frame: u64| {
        relock(&shared.log).push(FaultEvent {
            from: src,
            to: dst,
            conn,
            frame,
            what,
        });
    };

    loop {
        // Idle wait for the next frame's first byte: short read timeouts
        // so shutdown is honoured, EOF ends the direction cleanly.
        let mut first = [0u8; 1];
        match wait_first_byte(shared, &mut from, &mut first) {
            FirstByte::Got => {}
            FirstByte::Eof | FirstByte::Dead => {
                if let Some(h) = held.take() {
                    let _ = write_all_deadline(&mut to, &h, deadline);
                }
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
        }

        // Rest of the header, then the declared payload.
        let mut frame = vec![0u8; fmt.header_len];
        frame[0] = first[0];
        if read_exact_deadline(&mut from, &mut frame[1..], deadline).is_err() {
            break;
        }
        let mut lenb = [0u8; 8];
        lenb.copy_from_slice(&frame[fmt.len_at..fmt.len_at + 8]);
        let len = u64::from_le_bytes(lenb);
        if len > fmt.max_frame {
            // Refuse to buffer: forward header + payload in bounded
            // chunks, unfaulted. The receiver's own length check is the
            // one under test for frames like this.
            if let Some(h) = held.take() {
                if write_all_deadline(&mut to, &h, deadline).is_err() {
                    break;
                }
            }
            if write_all_deadline(&mut to, &frame, deadline).is_err()
                || !relay(&mut from, &mut to, len, deadline)
            {
                break;
            }
            frame_idx += 1;
            continue;
        }
        let hdr = fmt.header_len;
        frame.resize(hdr + len as usize, 0);
        if read_exact_deadline(&mut from, &mut frame[hdr..], deadline).is_err() {
            break;
        }

        let now_us = frame_idx as f64 * FRAME_TICK_US;
        frame_idx += 1;

        // 1. Partition: a blackhole needs no randomness, only the clock.
        if plan
            .partitions
            .iter()
            .any(|w| w.active(now_us) && w.crosses(src, dst))
        {
            relock(&shared.counters).partitioned += 1;
            record(format!("partitioned at t={now_us}us"), frame_idx - 1);
            continue;
        }
        // 2. Corrupt: flip one seeded bit, let the CRC catch it.
        if plan.corrupt > 0.0 && rng.next_f64() < plan.corrupt {
            let bit = rng.next_below(frame.len() as u64 * 8);
            frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            relock(&shared.counters).corrupted += 1;
            record(format!("corrupt bit {bit}"), frame_idx - 1);
        }
        // 3. Truncate: a strict prefix, then kill the connection.
        if plan.trunc > 0.0 && rng.next_f64() < plan.trunc {
            let keep = rng.next_below(frame.len() as u64) as usize;
            let _ = write_all_deadline(&mut to, &frame[..keep], deadline);
            relock(&shared.counters).truncated += 1;
            record(
                format!("truncate to {keep} of {} bytes", frame.len()),
                frame_idx - 1,
            );
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        // 4. Stall: hold the frame, then deliver late.
        if plan.stall_rate > 0.0 && rng.next_f64() < plan.stall_rate {
            #[expect(
                clippy::disallowed_methods,
                reason = "the stall is the injected fault: the proxy holds the frame on purpose"
            )]
            std::thread::sleep(Duration::from_micros(plan.stall_us as u64));
            relock(&shared.counters).stalled += 1;
            record(format!("stalled {}us", plan.stall_us), frame_idx - 1);
        }
        // 5. Reorder: hold this frame so the next one overtakes it.
        if plan.reorder_frame > 0.0 && rng.next_f64() < plan.reorder_frame && held.is_none() {
            relock(&shared.counters).reordered += 1;
            record("held for reorder".to_string(), frame_idx - 1);
            held = Some(frame);
            continue;
        }

        // Emit: the current frame first, then any held one — that is
        // the reorder taking effect.
        if write_all_deadline(&mut to, &frame, deadline).is_err() {
            break;
        }
        if let Some(h) = held.take() {
            if write_all_deadline(&mut to, &h, deadline).is_err() {
                break;
            }
        }
    }
    // An I/O failure mid-frame: drop both sides so neither end waits on
    // a half-dead pump.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Stream `len` bytes from `from` to `to` in bounded chunks. Returns
/// false on any I/O failure.
fn relay(from: &mut TcpStream, to: &mut TcpStream, len: u64, deadline: Duration) -> bool {
    let mut left = len;
    let mut chunk = vec![0u8; 64 * 1024];
    while left > 0 {
        let n = chunk.len().min(left as usize);
        if read_exact_deadline(from, &mut chunk[..n], deadline).is_err()
            || write_all_deadline(to, &chunk[..n], deadline).is_err()
        {
            return false;
        }
        left -= n as u64;
    }
    true
}

enum FirstByte {
    Got,
    Eof,
    Dead,
}

/// Block for the next frame's first byte with short poll timeouts, so an
/// idle pump still honours shutdown promptly.
fn wait_first_byte(shared: &Shared, from: &mut TcpStream, buf: &mut [u8; 1]) -> FirstByte {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return FirstByte::Dead;
        }
        if from.set_read_timeout(Some(IDLE_POLL)).is_err() {
            return FirstByte::Dead;
        }
        match from.read(buf) {
            Ok(0) => return FirstByte::Eof,
            Ok(_) => {
                let _ = from.set_read_timeout(None);
                return FirstByte::Got;
            }
            Err(e) if crate::io::is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return FirstByte::Dead,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_all_deadline;
    use std::io::Write;

    const DL: Duration = Duration::from_secs(5);

    /// Build a valid MPLITE_V2-shaped frame: header is 24 bytes with
    /// len at 12..20. The CRC field is
    /// arbitrary — the proxy never checks it.
    fn test_frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut f = vec![0u8; 24];
        f[0] = b'M';
        f[1] = b'P';
        f[2] = 2;
        f[8] = tag;
        f[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    /// Start an upstream sink that records every byte it receives, front
    /// it with a proxy for `plan`, and push `frames` through from the
    /// client side. Returns (received bytes, counters, log).
    fn run_one_direction(
        plan: &str,
        frames: &[Vec<u8>],
    ) -> (Vec<u8>, FaultCounters, Vec<FaultEvent>) {
        let plan = FaultPlan::parse(plan).expect("plan parses");
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let up_addr = upstream.local_addr().expect("addr");
        let sink = std::thread::spawn(move || {
            let mut s = accept_deadline(&upstream, DL, || true).expect("accept");
            let mut got = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                s.set_read_timeout(Some(DL)).expect("timeout");
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                }
            }
            got
        });

        let proxy = ChaosProxy::new(plan, FrameFormat::MPLITE_V2);
        let front = proxy.front(0, 1, up_addr).expect("front");
        let mut client = TcpStream::connect(front).expect("connect front");
        for f in frames {
            if write_all_deadline(&mut client, f, DL).is_err() {
                break; // truncation killed the connection mid-run
            }
        }
        let _ = client.shutdown(Shutdown::Write);
        let got = sink.join().expect("sink thread");
        let (counters, log) = proxy.finish();
        (got, counters, log)
    }

    #[test]
    fn lossless_plan_is_a_transparent_pipe() {
        let frames = vec![test_frame(1, b"hello"), test_frame(2, &[0xAA; 300])];
        let (got, counters, log) = run_one_direction("seed=1", &frames);
        let want = frames.concat();
        assert_eq!(got, want, "bytes must pass through unharmed");
        assert!(!counters.any(), "{counters}");
        assert!(log.is_empty());
    }

    #[test]
    fn corrupt_flips_exactly_one_bit_per_event() {
        let frames: Vec<_> = (0..50).map(|i| test_frame(i, &[i; 16])).collect();
        let (got, counters, log) = run_one_direction("seed=7,corrupt=0.3", &frames);
        assert!(counters.corrupted > 0, "{counters}");
        assert_eq!(counters.corrupted as usize, log.len());
        let want = frames.concat();
        assert_eq!(got.len(), want.len(), "corruption never changes length");
        let flipped: u32 = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped as u64, counters.corrupted, "one bit per event");
    }

    #[test]
    fn truncate_cuts_the_stream_and_kills_the_connection() {
        let frames: Vec<_> = (0..200).map(|i| test_frame(i as u8, &[7; 32])).collect();
        let (got, counters, _log) = run_one_direction("seed=3,truncate=0.05", &frames);
        assert_eq!(counters.truncated, 1, "first hit ends the run: {counters}");
        let full: usize = frames.iter().map(Vec::len).sum::<usize>();
        assert!(got.len() < full, "{} of {full} bytes arrived", got.len());
    }

    #[test]
    fn partition_blackholes_only_the_window() {
        // Window covers virtual time [0, 300)us = frames 0, 1 and 2.
        let frames: Vec<_> = (0..6).map(|i| test_frame(i, &[i; 8])).collect();
        let (got, counters, log) = run_one_direction("seed=5,partition=0|1@0us..300us", &frames);
        assert_eq!(counters.partitioned, 3, "{counters}\n{log:?}");
        let want = frames[3..].concat();
        assert_eq!(got, want, "frames after the window pass untouched");
    }

    #[test]
    fn reorder_swaps_whole_frames() {
        let frames = vec![test_frame(1, b"first"), test_frame(2, b"second")];
        let (got, counters, _log) = run_one_direction("seed=1,reorder-frame", &frames);
        assert_eq!(counters.reordered, 1);
        let want = [&frames[1][..], &frames[0][..]].concat();
        assert_eq!(got, want, "frame 1 overtakes frame 0");
    }

    #[test]
    fn stall_delays_but_delivers() {
        let frames = vec![test_frame(1, b"slow")];
        let (got, counters, _log) = run_one_direction("seed=2,stall=10ms@1", &frames);
        assert_eq!(counters.stalled, 1);
        assert_eq!(got, frames[0], "stalled frames still arrive intact");
    }

    #[test]
    fn same_seed_same_traffic_same_verdicts() {
        let frames: Vec<_> = (0..80).map(|i| test_frame(i, &[i; 24])).collect();
        let plan = "seed=11,corrupt=0.1,stall=1ms@0.05,reorder-frame=0.1";
        let (got_a, counters_a, log_a) = run_one_direction(plan, &frames);
        let (got_b, counters_b, log_b) = run_one_direction(plan, &frames);
        assert_eq!(counters_a, counters_b);
        assert_eq!(log_a, log_b);
        assert_eq!(got_a, got_b, "byte-identical downstream streams");
        assert!(
            counters_a.any(),
            "the plan must actually fire: {counters_a}"
        );
    }

    #[test]
    fn derived_seeds_differ_per_lane() {
        let s = derive_seed(1, 0, 1, 0, 0);
        assert_ne!(s, derive_seed(1, 0, 1, 1, 0), "directions differ");
        assert_ne!(s, derive_seed(1, 0, 1, 0, 1), "connections differ");
        assert_ne!(s, derive_seed(2, 0, 1, 0, 0), "plan seeds differ");
        assert_eq!(s, derive_seed(1, 0, 1, 0, 0), "pure function");
    }

    #[test]
    fn oversized_declared_length_streams_through_unfaulted() {
        // Declared len over max_frame: proxy must not buffer it, but the
        // bytes still flow (the receiver's bound check owns the verdict).
        let fmt = FrameFormat {
            max_frame: 16,
            ..FrameFormat::MPLITE_V2
        };
        let plan = FaultPlan::parse("seed=1,corrupt=1").expect("plan");
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind");
        let up_addr = upstream.local_addr().expect("addr");
        let sink = std::thread::spawn(move || {
            let mut s = accept_deadline(&upstream, DL, || true).expect("accept");
            let mut got = Vec::new();
            let mut buf = [0u8; 4096];
            loop {
                s.set_read_timeout(Some(DL)).expect("timeout");
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                }
            }
            got
        });
        let proxy = ChaosProxy::new(plan, fmt);
        let front = proxy.front(0, 1, up_addr).expect("front");
        let mut client = TcpStream::connect(front).expect("connect");
        let big = test_frame(1, &[0x5A; 64]); // 64 > max_frame of 16
        write_all_deadline(&mut client, &big, DL).expect("frame");
        client.flush().expect("flush");
        let _ = client.shutdown(Shutdown::Write);
        let got = sink.join().expect("sink");
        let (counters, _log) = proxy.finish();
        assert_eq!(got, big, "oversized frames pass through byte-exact");
        assert_eq!(counters.corrupted, 0, "no faults on refused frames");
    }
}
