//! The communicator: ranks, tagged point-to-point messaging, requests.
//!
//! Architecture (after MP_Lite's SIGIO design, §3.4 of the paper —
//! "message progress is therefore maintained at all times"):
//!
//! * one **reader thread per peer** drains that peer's socket as soon as
//!   bytes arrive and hands messages to the [`MatchEngine`];
//! * one **writer thread** per communicator serializes outgoing messages,
//!   so `isend` returns immediately and progress never depends on the
//!   application re-entering the library;
//! * the application threads only touch the matching engine and the
//!   writer queue — never the sockets.
//!
//! Failure semantics: teardown is announced. `Drop` sends a `FIN`
//! control message (`FIN_TAG`) to every peer before closing sockets,
//! so a clean EOF *with* a prior FIN is a normal end of job, while an
//! EOF *without* one is an unannounced death — the reader marks the
//! peer dead, poisons the matching engine, and broadcasts a `POISON`
//! control message (`POISON_TAG`, payload: the dead rank) so
//! survivors that never talk to the dead rank learn the verdict too.
//! Collective receives additionally run under a per-round deadline
//! ([`Comm::set_coll_deadline`]); a peer that stays connected but stops
//! making progress is classified [`MpError::RankDead`] the same way
//! instead of hanging the job.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use faultlab::io::{is_timeout, read_exact_counted, write_all_deadline};

use crate::buf::Bytes;
use crate::sync::{Condvar, Mutex};
use std::sync::mpsc::{channel, Sender};

use crate::error::{MpError, Result};
use crate::frame::{self, FrameError};
use crate::message::{InMsg, MatchEngine, RecvSlot, ANY_SOURCE, ANY_TAG};
use crate::trace;
use tracelab::stages;

/// Delivery status of a completed receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: i32,
    /// Payload length in bytes.
    pub(crate) len: usize,
}

/// Completion state shared between an `isend` and the writer thread.
#[derive(Debug)]
pub(crate) struct SendSlot {
    state: Mutex<SendState>,
    cv: Condvar,
}

#[derive(Debug)]
enum SendState {
    Pending,
    Ok,
    Err(String),
}

impl SendSlot {
    fn new() -> Arc<SendSlot> {
        Arc::new(SendSlot {
            state: Mutex::new(SendState::Pending),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: std::result::Result<(), String>) {
        let mut st = self.state.lock();
        *st = match result {
            Ok(()) => SendState::Ok,
            Err(e) => SendState::Err(e),
        };
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<()> {
        let mut st = self.state.lock();
        loop {
            match &*st {
                SendState::Pending => self.cv.wait(&mut st),
                SendState::Ok => return Ok(()),
                SendState::Err(e) => return Err(MpError::Io(std::io::Error::other(e.clone()))),
            }
        }
    }

    fn is_done(&self) -> bool {
        !matches!(*self.state.lock(), SendState::Pending)
    }
}

/// Handle for an asynchronous send.
#[must_use = "wait on the request to guarantee completion"]
pub struct SendRequest {
    slot: Arc<SendSlot>,
}

impl SendRequest {
    /// Block until the message has been handed to the kernel.
    pub fn wait(self) -> Result<()> {
        self.slot.wait()
    }

    /// Non-blocking completion test.
    pub fn test(&self) -> bool {
        self.slot.is_done()
    }
}

/// Handle for an asynchronous receive.
#[must_use = "wait on the request to obtain the message"]
pub struct RecvRequest {
    slot: Arc<RecvSlot>,
}

impl RecvRequest {
    /// Block until a matching message arrives; returns payload and status.
    pub fn wait(self) -> Result<(Bytes, Status)> {
        self.slot.wait().map(unpack)
    }

    /// Non-blocking test; returns the message if it has arrived.
    pub fn test(&self) -> Option<Result<(Bytes, Status)>> {
        self.slot.try_take().map(|r| r.map(unpack))
    }
}

/// Split a matched message into what `recv` returns, moving the payload
/// out: the caller's `Bytes` is the only handle to the receive buffer.
fn unpack(msg: InMsg) -> (Bytes, Status) {
    let status = Status {
        src: msg.src,
        tag: msg.tag,
        len: msg.data.len(),
    };
    (msg.data, status)
}

enum SendJob {
    Msg {
        dst: usize,
        tag: i32,
        data: Bytes,
        slot: Arc<SendSlot>,
    },
    Quit,
}

/// Control tag announcing a clean shutdown; sent by `Drop` to every
/// peer before the sockets close. Outside both the user tag space
/// (`>= 0`) and the collective window (`[-1_000_000, -1]`).
pub(crate) const FIN_TAG: i32 = -2_000_000;

/// Control tag carrying the membership verdict for a dead rank; the
/// 8-byte little-endian payload is the dead rank's number.
pub(crate) const POISON_TAG: i32 = -2_000_001;

/// Per-rank liveness bookkeeping shared by the readers and the
/// application threads.
struct Health {
    /// `fin[p]`: peer `p` announced a clean shutdown.
    fin: Vec<AtomicBool>,
    /// `dead[r]`: rank `r` has been declared dead (locally observed or
    /// learned via a `POISON` broadcast).
    dead: Vec<AtomicBool>,
    /// `frame_errs[p]`: the first malformed-frame verdict recorded
    /// against peer `p` — what exactly it put on the wire (bad magic,
    /// truncation, checksum mismatch, …). Lets
    /// [`Comm::classify_peer_error`] name the lie instead of reporting a
    /// generic death.
    frame_errs: Vec<Mutex<Option<FrameError>>>,
}

impl Health {
    fn new(nprocs: usize) -> Health {
        Health {
            fin: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            dead: (0..nprocs).map(|_| AtomicBool::new(false)).collect(),
            frame_errs: (0..nprocs).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Record the first frame-level verdict against `peer`; later ones
    /// are consequences of the first desync and are dropped.
    fn record_frame(&self, peer: usize, err: FrameError) {
        let mut slot = self.frame_errs[peer].lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// The lowest-ranked peer with a frame verdict on record, if any.
    fn first_frame_err(&self) -> Option<(usize, FrameError)> {
        for (p, slot) in self.frame_errs.iter().enumerate() {
            if let Some(e) = *slot.lock() {
                return Some((p, e));
            }
        }
        None
    }
}

/// Declare `dead` dead exactly once: poison the local engine and
/// broadcast the verdict to every other live peer. Idempotent — the
/// `swap` dedups repeat verdicts, so propagation cannot storm.
fn announce_death(
    engine: &MatchEngine,
    health: &Health,
    tx: &Sender<SendJob>,
    self_rank: usize,
    dead: usize,
    why: &str,
) {
    if health.dead[dead].swap(true, Ordering::AcqRel) {
        return;
    }
    engine.poison(why);
    let payload = Bytes::from((dead as u64).to_le_bytes().to_vec());
    for p in 0..health.dead.len() {
        if p != self_rank && p != dead && !health.dead[p].load(Ordering::Acquire) {
            let slot = SendSlot::new();
            let _ = tx.send(SendJob::Msg {
                dst: p,
                tag: POISON_TAG,
                data: payload.clone(),
                slot,
            });
        }
    }
}

/// A member of a message-passing job: rank `rank` of `nprocs`.
pub struct Comm {
    rank: usize,
    nprocs: usize,
    engine: Arc<MatchEngine>,
    tx: Sender<SendJob>,
    writer: Option<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
    /// Read-halves kept so `Drop` can unblock the reader threads.
    streams: Vec<Option<TcpStream>>,
    shutting_down: Arc<AtomicBool>,
    health: Arc<Health>,
    /// Payload cap enforced on both sides of the wire
    /// ([`frame::max_message_size`], frozen at construction).
    max_msg: u64,
    /// Collective per-round receive deadline, nanoseconds.
    coll_deadline_ns: AtomicU64,
    /// Set by [`Comm::sever`]: crash simulation, skip the FIN handshake.
    severed: AtomicBool,
    pub(crate) coll_seq: AtomicI32,
}

impl Comm {
    /// Assemble a communicator from an established full mesh:
    /// `streams[p]` is the socket to peer `p` (`None` at index `rank`).
    pub(crate) fn from_mesh(rank: usize, streams: Vec<Option<TcpStream>>) -> Result<Comm> {
        Comm::from_mesh_with_deadline(rank, streams, io_deadline())
    }

    /// `from_mesh` with an explicit per-operation socket deadline
    /// (tests shrink it to exercise the timeout paths quickly).
    pub(crate) fn from_mesh_with_deadline(
        rank: usize,
        streams: Vec<Option<TcpStream>>,
        deadline: Duration,
    ) -> Result<Comm> {
        let nprocs = streams.len();
        assert!(rank < nprocs, "rank out of range");
        assert!(streams[rank].is_none(), "no self-connection expected");
        let engine = Arc::new(MatchEngine::new());
        let shutting_down = Arc::new(AtomicBool::new(false));
        let health = Arc::new(Health::new(nprocs));
        let max_msg = frame::max_message_size();
        let (tx, rx) = channel::<SendJob>();

        // Reader thread per peer.
        let mut readers = Vec::new();
        for (peer, s) in streams.iter().enumerate() {
            let Some(s) = s else { continue };
            s.set_nodelay(true).ok();
            // MP_Lite's §3.4 behaviour: raise the socket buffers toward
            // the system maximum (tunable via MPLITE_SOCKBUF; the kernel
            // clamps to net.core.{r,w}mem_max exactly as the paper
            // describes).
            let _ = faultlab::set_socket_buffers(s, sockbuf_request(), sockbuf_request());
            let stream = s.try_clone()?;
            let ctx = ReaderCtx {
                rank,
                peer,
                engine: Arc::clone(&engine),
                shutting_down: Arc::clone(&shutting_down),
                deadline,
                health: Arc::clone(&health),
                tx: tx.clone(),
                max_msg,
            };
            readers.push(
                std::thread::Builder::new()
                    .name(format!("mplite-r{rank}<-{peer}"))
                    .spawn(move || reader_loop(stream, ctx))?,
            );
        }

        // Single writer thread owning the write halves.
        let mut write_halves: Vec<Option<TcpStream>> = Vec::with_capacity(nprocs);
        for s in &streams {
            write_halves.push(match s {
                Some(s) => Some(s.try_clone()?),
                None => None,
            });
        }
        let my_rank = rank as u32;
        let writer = std::thread::Builder::new()
            .name(format!("mplite-w{rank}"))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    match job {
                        SendJob::Quit => break,
                        SendJob::Msg {
                            dst,
                            tag,
                            data,
                            slot,
                        } => {
                            let t0 = trace::installed().map(|t| t.now_wall());
                            let result = (|| -> std::io::Result<()> {
                                let s = write_halves[dst].as_mut().ok_or_else(|| {
                                    std::io::Error::new(
                                        std::io::ErrorKind::NotConnected,
                                        "no socket to destination",
                                    )
                                })?;
                                let (hdr, n) =
                                    frame::build_header(frame::WIRE_V2, my_rank, tag, &data);
                                write_all_deadline(s, &hdr[..n], deadline)?;
                                write_all_deadline(s, &data, deadline)?;
                                Ok(())
                            })();
                            if let (Some(t), Some(start)) = (trace::installed(), t0) {
                                t.span_wall(
                                    stages::SEND,
                                    trace::track(my_rank as usize, trace::ROLE_WRITER),
                                    start,
                                    data.len() as u64,
                                    trace::next_msg(),
                                );
                            }
                            // Release the payload before announcing
                            // completion: once `wait()` returns, the
                            // caller's handle is the only one left.
                            drop(data);
                            slot.complete(result.map_err(|e| e.to_string()));
                        }
                    }
                }
            })?;

        // Mesh connected, service threads up: boot is over. If a reader
        // already poisoned the engine this is a no-op by design.
        engine.ready();

        Ok(Comm {
            rank,
            nprocs,
            engine,
            tx,
            writer: Some(writer),
            readers,
            streams,
            shutting_down,
            health,
            max_msg,
            coll_deadline_ns: AtomicU64::new(coll_deadline_default().as_nanos() as u64),
            severed: AtomicBool::new(false),
            coll_seq: AtomicI32::new(0),
        })
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn check_rank(&self, r: usize) -> Result<()> {
        if r >= self.nprocs || r == self.rank {
            return Err(MpError::BadRank {
                rank: r,
                nprocs: self.nprocs,
            });
        }
        Ok(())
    }

    /// Reject a payload over the wire cap *before* it is queued — the
    /// peer would refuse the frame anyway ([`FrameError::Oversized`]),
    /// so fail fast on the sending side with the same typed verdict.
    fn check_payload(&self, dst: usize, len: usize) -> Result<()> {
        if len as u64 > self.max_msg {
            return Err(MpError::Frame {
                peer: dst,
                err: FrameError::Oversized {
                    len: len as u64,
                    max: self.max_msg,
                },
            });
        }
        Ok(())
    }

    /// Asynchronous tagged send. The returned request completes once the
    /// writer thread has handed the bytes to the kernel.
    pub fn isend(&self, dst: usize, tag: i32, data: impl Into<Bytes>) -> Result<SendRequest> {
        self.check_rank(dst)?;
        assert!(tag >= 0, "negative tags are reserved for collectives");
        let data = data.into();
        self.check_payload(dst, data.len())?;
        let slot = SendSlot::new();
        self.tx
            .send(SendJob::Msg {
                dst,
                tag,
                data,
                slot: Arc::clone(&slot),
            })
            .map_err(|_| MpError::Finalized)?;
        Ok(SendRequest { slot })
    }

    /// Blocking tagged send.
    pub fn send(&self, dst: usize, tag: i32, data: &[u8]) -> Result<()> {
        self.isend(dst, tag, Bytes::copy_from_slice(data))?.wait()
    }

    /// Asynchronous tagged receive; `src`/`tag` may be [`ANY_SOURCE`] /
    /// [`ANY_TAG`].
    pub fn irecv(&self, src: i32, tag: i32) -> RecvRequest {
        RecvRequest {
            slot: self.engine.post(src, tag),
        }
    }

    /// Blocking tagged receive.
    pub fn recv(&self, src: i32, tag: i32) -> Result<(Bytes, Status)> {
        self.irecv(src, tag).wait()
    }

    /// Non-destructive probe for a queued message.
    pub fn probe(&self, src: i32, tag: i32) -> Option<Status> {
        self.engine
            .probe(src, tag)
            .map(|(src, tag, len)| Status { src, tag, len })
    }

    pub(crate) fn isend_internal(&self, dst: usize, tag: i32, data: Bytes) -> Result<SendRequest> {
        self.check_rank(dst)?;
        self.check_payload(dst, data.len())?;
        let slot = SendSlot::new();
        self.tx
            .send(SendJob::Msg {
                dst,
                tag,
                data,
                slot: Arc::clone(&slot),
            })
            .map_err(|_| MpError::Finalized)?;
        Ok(SendRequest { slot })
    }

    /// Post an internal receive (reserved tags) and return the raw slot —
    /// lets collectives post-then-send for deadlock-free symmetric
    /// exchanges.
    pub(crate) fn post_internal(
        &self,
        src: i32,
        tag: i32,
    ) -> std::sync::Arc<crate::message::RecvSlot> {
        self.engine.post(src, tag)
    }

    /// The per-round receive deadline collectives run under.
    pub(crate) fn coll_deadline(&self) -> Duration {
        Duration::from_nanos(self.coll_deadline_ns.load(Ordering::Relaxed))
    }

    /// Change the collective round deadline (default 5 s, or
    /// `MPLITE_COLL_DEADLINE_MS`). Tests and chaos harnesses shrink it
    /// to get fast verdicts.
    pub fn set_coll_deadline(&self, d: Duration) {
        self.coll_deadline_ns
            .store(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Ranks that have been declared dead, in rank order.
    pub(crate) fn dead_ranks(&self) -> Vec<usize> {
        (0..self.nprocs)
            .filter(|&r| self.health.dead[r].load(Ordering::Acquire))
            .collect()
    }

    /// Declare `rank` dead (deadline expiry on the application side):
    /// poison local receives and broadcast the verdict to survivors.
    pub(crate) fn report_dead(&self, rank: usize, why: &str) {
        announce_death(&self.engine, &self.health, &self.tx, self.rank, rank, why);
    }

    /// Sharpen a link-level error into its most specific verdict. A
    /// frame-level verdict ([`MpError::Frame`]) wins over the generic
    /// [`MpError::RankDead`]: a peer whose stream was *truncated or
    /// corrupted mid-frame* is reported as exactly that, not as an
    /// unannounced death. Callers see *what happened*, not just that a
    /// socket or slot failed.
    pub(crate) fn classify_peer_error(&self, e: MpError) -> MpError {
        if let Some((peer, err)) = self.health.first_frame_err() {
            return MpError::Frame { peer, err };
        }
        match self.dead_ranks().first() {
            Some(&rank) => MpError::RankDead { rank },
            None => e,
        }
    }

    /// Simulate a crash of this rank: no FIN handshake, sockets
    /// hard-closed. Peers observe an unannounced death — exactly what a
    /// killed process looks like from the outside. Test hook.
    #[cfg(test)]
    pub(crate) fn sever(&self) {
        self.severed.store(true, Ordering::Release);
        self.shutting_down.store(true, Ordering::Release);
        for s in self.streams.iter().flatten() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Requested per-socket buffer size: `MPLITE_SOCKBUF` or a 1 MiB default
/// (MP_Lite "increases the TCP socket buffer sizes up to the maximum
/// level allowed", §3.4).
fn sockbuf_request() -> u32 {
    std::env::var("MPLITE_SOCKBUF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 20)
}

/// Default collective per-round receive deadline:
/// `MPLITE_COLL_DEADLINE_MS` or 5 s.
fn coll_deadline_default() -> Duration {
    std::env::var("MPLITE_COLL_DEADLINE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(5))
}

/// Per-operation socket deadline once a transfer is underway:
/// `MPLITE_IO_DEADLINE_MS` or 5 s. Idle links are never timed out —
/// only a peer that stops making progress *mid-message*.
fn io_deadline() -> Duration {
    std::env::var("MPLITE_IO_DEADLINE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_secs(5))
}

/// Decoded control frame (reserved tags below the collective window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Control {
    /// Clean-shutdown announcement ([`FIN_TAG`]).
    Fin,
    /// Membership verdict ([`POISON_TAG`]): `dead` has died.
    Poison {
        /// The rank being declared dead.
        dead: usize,
    },
}

/// Interpret a control frame's tag and payload. `None` means the tag is
/// not a control tag, or the payload is unusable (a poison verdict that
/// is not exactly 8 bytes) — classify or ignore, never panic; the
/// in-tree fuzzer ([`crate::fuzz`]) holds this path to that contract.
pub(crate) fn parse_control(tag: i32, payload: &[u8]) -> Option<Control> {
    match tag {
        FIN_TAG => Some(Control::Fin),
        POISON_TAG => {
            let bytes = <[u8; 8]>::try_from(payload).ok()?;
            Some(Control::Poison {
                dead: u64::from_le_bytes(bytes) as usize,
            })
        }
        _ => None,
    }
}

/// Record a malformed-frame verdict against `peer` and declare it dead:
/// once a byte stream has lost framing integrity there is no way to
/// resynchronize it, so the connection is condemned with a verdict that
/// names exactly what the peer sent.
fn fail_frame(
    engine: &MatchEngine,
    health: &Health,
    tx: &Sender<SendJob>,
    rank: usize,
    peer: usize,
    err: FrameError,
) {
    health.record_frame(peer, err);
    announce_death(
        engine,
        health,
        tx,
        rank,
        peer,
        &format!("rank {peer} sent a malformed frame: {err}"),
    );
}

/// Everything one reader thread needs, bundled so the spawn site stays
/// readable.
struct ReaderCtx {
    rank: usize,
    peer: usize,
    engine: Arc<MatchEngine>,
    shutting_down: Arc<AtomicBool>,
    deadline: Duration,
    health: Arc<Health>,
    tx: Sender<SendJob>,
    /// Payload cap enforced before any allocation.
    max_msg: u64,
}

/// Wait for the first byte of `buf` with no deadline — an idle link is
/// healthy. Returns `false` if the reader should exit: a clean EOF after
/// the peer announced FIN (or during our own shutdown) is the normal
/// end-of-job teardown; an EOF *without* one is an unannounced death.
fn read_first_byte_idle(stream: &mut TcpStream, ctx: &ReaderCtx, buf: &mut [u8]) -> bool {
    loop {
        match stream.read(&mut buf[..1]) {
            Ok(0) => {
                if !ctx.health.fin[ctx.peer].load(Ordering::Acquire)
                    && !ctx.shutting_down.load(Ordering::Acquire)
                {
                    announce_death(
                        &ctx.engine,
                        &ctx.health,
                        &ctx.tx,
                        ctx.rank,
                        ctx.peer,
                        &format!("rank {} died (connection closed without FIN)", ctx.peer),
                    );
                }
                return false;
            }
            Ok(_) => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Finish reading a frame section whose first byte already arrived.
/// Distinguishes the two ways it can fail: a *stall* (deadline expiry —
/// the peer is connected but stopped making progress) poisons the
/// engine; everything else (EOF, reset) is a *truncation* — the peer
/// died mid-frame, and the verdict says how many bytes it still owed.
fn read_rest_or_condemn(
    stream: &mut TcpStream,
    ctx: &ReaderCtx,
    buf: &mut [u8],
    already: usize,
    what: &str,
) -> bool {
    let want = already + buf.len();
    if let Err((got, e)) = read_exact_counted(stream, buf, ctx.deadline) {
        if !ctx.shutting_down.load(Ordering::Acquire) {
            if is_timeout(&e) {
                ctx.engine
                    .poison(&format!("peer {} timed out mid-{what}", ctx.peer));
            } else {
                fail_frame(
                    &ctx.engine,
                    &ctx.health,
                    &ctx.tx,
                    ctx.rank,
                    ctx.peer,
                    FrameError::Truncated {
                        got: already + got,
                        want,
                    },
                );
            }
        }
        return false;
    }
    true
}

fn reader_loop(mut stream: TcpStream, ctx: ReaderCtx) {
    loop {
        // Idle wait for the next frame — before the first one the peer's
        // Comm may not even be constructed yet — then the rest of the
        // header under the deadline: a peer that stalls mid-frame is
        // dead, not idle.
        let mut hdr = [0u8; frame::V2_HEADER_LEN];
        if !read_first_byte_idle(&mut stream, &ctx, &mut hdr) {
            return;
        }
        if !read_rest_or_condemn(&mut stream, &ctx, &mut hdr[1..], 1, "header") {
            return;
        }
        // Validate everything — magic, version, flags, and the length
        // against the cap — *before* allocating a payload buffer.
        let pf = match frame::decode_any_header(&hdr, ctx.max_msg) {
            Ok(pf) => pf,
            Err(fe) => {
                if !ctx.shutting_down.load(Ordering::Acquire) {
                    fail_frame(&ctx.engine, &ctx.health, &ctx.tx, ctx.rank, ctx.peer, fe);
                }
                return;
            }
        };
        // The progress-thread span covers pulling the payload out of the
        // socket *and* handing it to the matching engine — the work the
        // paper's §3.4 progress discussion attributes to the library.
        let t0 = trace::installed().map(|t| t.now_wall());
        let mut buf = vec![0u8; pf.len as usize];
        if !read_rest_or_condemn(&mut stream, &ctx, &mut buf, hdr.len(), "message") {
            return;
        }
        if let Err(fe) = pf.verify(&buf) {
            if !ctx.shutting_down.load(Ordering::Acquire) {
                fail_frame(&ctx.engine, &ctx.health, &ctx.tx, ctx.rank, ctx.peer, fe);
            }
            return;
        }
        // Control frames never reach the matching engine — and a
        // membership verdict is only trusted now that its checksum held.
        match pf.tag {
            FIN_TAG | POISON_TAG => match parse_control(pf.tag, &buf) {
                Some(Control::Fin) => {
                    ctx.health.fin[ctx.peer].store(true, Ordering::Release);
                }
                Some(Control::Poison { dead })
                    if dead < ctx.health.dead.len() && dead != ctx.rank =>
                {
                    announce_death(
                        &ctx.engine,
                        &ctx.health,
                        &ctx.tx,
                        ctx.rank,
                        dead,
                        &format!("rank {dead} dead (reported by peer {})", ctx.peer),
                    );
                }
                // An unusable or out-of-range verdict is ignored.
                _ => {}
            },
            _ => engine_deliver(&ctx, pf.src, pf.tag, buf, t0),
        }
    }
}

fn engine_deliver(
    ctx: &ReaderCtx,
    src: u32,
    tag: i32,
    buf: Vec<u8>,
    t0: Option<tracelab::WallStamp>,
) {
    let len = buf.len() as u64;
    ctx.engine.deliver(InMsg {
        src: src as usize,
        tag,
        data: Bytes::from(buf),
    });
    if let (Some(t), Some(start)) = (trace::installed(), t0) {
        let track = trace::track(ctx.rank, trace::ROLE_READER);
        t.span_wall(stages::PROGRESS_THREAD, track, start, len, 0);
        t.instant_wall(stages::RECV, track, len, 0);
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        self.shutting_down.store(true, Ordering::Release);
        if !self.severed.load(Ordering::Acquire) {
            // Announce a clean shutdown so peers can tell planned
            // teardown from a crash (best-effort; a failed write just
            // means the peer is already gone).
            for p in 0..self.nprocs {
                if p != self.rank {
                    let slot = SendSlot::new();
                    let _ = self.tx.send(SendJob::Msg {
                        dst: p,
                        tag: FIN_TAG,
                        data: Bytes::new(),
                        slot,
                    });
                }
            }
        }
        let _ = self.tx.send(SendJob::Quit);
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        // Shut the sockets down so reader threads unblock.
        for s in self.streams.iter().flatten() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        for r in self.readers.drain(..) {
            let _ = r.join();
        }
        self.engine.finalize("communicator finalized");
    }
}

// Silence unused-import warnings for wildcard constants used only by
// callers of the public API.
const _: (i32, i32) = (ANY_SOURCE, ANY_TAG);

#[cfg(test)]
mod tests {
    use super::*;
    use faultlab::io::accept_deadline;
    use std::net::TcpListener;

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let server = accept_deadline(&listener, Duration::from_secs(5), || true).expect("accept");
        (client, server)
    }

    /// A complete, checksummed v2 frame as raw wire bytes.
    fn v2_frame(src: u32, tag: i32, payload: &[u8]) -> Vec<u8> {
        let (h, n) = frame::build_header(frame::WIRE_V2, src, tag, payload);
        let mut out = h[..n].to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn writer_deadline_times_out_on_stalled_peer() {
        let (client, peer_side) = socket_pair();
        let comm =
            Comm::from_mesh_with_deadline(0, vec![None, Some(client)], Duration::from_millis(150))
                .expect("mesh");
        // Far more than the kernel buffers absorb; the peer never reads,
        // so the writer thread must hit its deadline, not hang forever.
        let req = comm.isend(1, 0, vec![0u8; 64 << 20]).expect("queued");
        let err = req.wait().expect_err("peer is stalled");
        assert!(err.to_string().contains("deadline"), "{err}");
        drop(peer_side);
    }

    #[test]
    fn oversized_send_is_rejected_before_queueing() {
        let (client, _peer_side) = socket_pair();
        let comm =
            Comm::from_mesh_with_deadline(0, vec![None, Some(client)], Duration::from_secs(1))
                .expect("mesh");
        let too_big = (comm.max_msg + 1) as usize;
        let err = match comm.isend(1, 0, vec![0u8; too_big]) {
            Err(e) => e,
            Ok(_) => panic!("oversized payload must be refused"),
        };
        assert!(
            matches!(
                err,
                MpError::Frame {
                    peer: 1,
                    err: FrameError::Oversized { .. }
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn first_send_needs_nothing_from_the_peer() {
        let (client, mut peer_side) = socket_pair();
        let comm =
            Comm::from_mesh_with_deadline(0, vec![None, Some(client)], Duration::from_millis(150))
                .expect("mesh");
        // The peer has connected but never written a byte: there is no
        // boot exchange to wait for, so a small send completes at once.
        comm.isend(1, 7, b"hi".to_vec())
            .expect("queued")
            .wait()
            .expect("no handshake to time out on");
        // And the connection begins directly with that v2 frame.
        let mut wire = vec![0u8; frame::V2_HEADER_LEN + 2];
        read_exact_counted(&mut peer_side, &mut wire, Duration::from_secs(1)).expect("frame");
        assert_eq!(wire, v2_frame(0, 7, b"hi"));
    }

    #[test]
    fn other_wire_versions_are_condemned_on_their_first_frame() {
        // A v2-shaped frame stamped version 1, and a legacy 16-byte
        // (src, tag, len) header followed by its 8 payload bytes.
        let (stamped_v1, _) = frame::build_header(1, 1, 0, b"");
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&1u32.to_le_bytes());
        legacy.extend_from_slice(&0i32.to_le_bytes());
        legacy.extend_from_slice(&8u64.to_le_bytes());
        legacy.extend_from_slice(&[0xAB; 8]);
        let cases: [(&[u8], FrameError); 2] = [
            (&stamped_v1, FrameError::VersionMismatch { got: 1 }),
            (&legacy, FrameError::BadMagic { got: [1, 0] }),
        ];
        for (bytes, want) in cases {
            let (client, mut peer_side) = socket_pair();
            let comm =
                Comm::from_mesh_with_deadline(0, vec![None, Some(client)], Duration::from_secs(5))
                    .expect("mesh");
            write_all_deadline(&mut peer_side, bytes, Duration::from_secs(1)).expect("first frame");
            let err = comm
                .recv(ANY_SOURCE, ANY_TAG)
                .expect_err("nothing valid ever arrives");
            match comm.classify_peer_error(err) {
                MpError::Frame { peer: 1, err } => assert_eq!(err, want),
                other => panic!("want a typed frame verdict, got {other}"),
            }
            assert_eq!(comm.engine.unexpected_len(), 0, "nothing was delivered");
        }
    }

    fn test_ctx(engine: &Arc<MatchEngine>, deadline: Duration) -> (ReaderCtx, Arc<Health>) {
        let health = Arc::new(Health::new(2));
        let (tx, _rx) = channel::<SendJob>();
        (
            ReaderCtx {
                rank: 0,
                peer: 1,
                engine: Arc::clone(engine),
                shutting_down: Arc::new(AtomicBool::new(false)),
                deadline,
                health: Arc::clone(&health),
                tx,
                max_msg: frame::DEFAULT_MAX_MESSAGE,
            },
            health,
        )
    }

    #[test]
    fn reader_poisons_with_timeout_on_midmessage_stall() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, _health) = test_ctx(&engine, Duration::from_millis(80));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        // Header promises 100 payload bytes; only 10 ever arrive.
        let wire = v2_frame(1, 0, &[7u8; 100]);
        write_all_deadline(
            &mut client,
            &wire[..frame::V2_HEADER_LEN + 10],
            Duration::from_secs(1),
        )
        .expect("partial frame");
        let err = engine
            .post(ANY_SOURCE, ANY_TAG)
            .wait()
            .expect_err("message can never complete");
        assert!(err.to_string().contains("timed out mid-message"), "{err}");
        reader.join().expect("reader exits");
    }

    #[test]
    fn midmessage_eof_is_a_typed_truncation_not_a_plain_death() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        let wire = v2_frame(1, 0, &[7u8; 100]);
        write_all_deadline(
            &mut client,
            &wire[..frame::V2_HEADER_LEN],
            Duration::from_secs(1),
        )
        .expect("header");
        drop(client); // EOF mid-message, not a stall
        let err = engine
            .post(ANY_SOURCE, ANY_TAG)
            .wait()
            .expect_err("message can never complete");
        assert!(err.to_string().contains("malformed frame"), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        reader.join().expect("reader exits");
        // The satellite fix: the verdict on record is a *truncation*,
        // so classification will name it instead of a generic RankDead.
        let (peer, fe) = health.first_frame_err().expect("verdict recorded");
        assert_eq!(peer, 1);
        assert!(matches!(fe, FrameError::Truncated { .. }), "{fe}");
        assert!(health.dead[1].load(Ordering::Acquire));
    }

    #[test]
    fn header_split_across_writes_is_reassembled() {
        // However a header is cut across segments — after the byte the
        // idle read waits for, or mid-way through the deadline read —
        // the frame is reassembled. The pause lets the first part be
        // consumed before the second exists.
        for cut in [1, 13] {
            let (mut client, server) = socket_pair();
            client.set_nodelay(true).expect("nodelay");
            let engine = Arc::new(MatchEngine::new());
            let (ctx, _health) = test_ctx(&engine, Duration::from_secs(5));
            let reader = std::thread::spawn(move || {
                reader_loop(server, ctx);
            });
            let wire = v2_frame(1, 9, b"split header");
            write_all_deadline(&mut client, &wire[..cut], Duration::from_secs(1)).expect("head");
            std::thread::sleep(Duration::from_millis(30));
            write_all_deadline(&mut client, &wire[cut..], Duration::from_secs(1)).expect("rest");
            let msg = engine.post(1, 9).wait().expect("frame delivered");
            assert_eq!(&msg.data[..], b"split header", "cut at {cut}");
            let fin = v2_frame(1, FIN_TAG, &[]);
            write_all_deadline(&mut client, &fin, Duration::from_secs(1)).expect("fin");
            drop(client);
            reader.join().expect("reader exits");
        }
    }

    #[test]
    fn midheader_failures_keep_their_exact_verdicts() {
        // EOF after 13 of 24 header bytes: a truncation that says so.
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        let wire = v2_frame(1, 0, b"never arrives");
        write_all_deadline(&mut client, &wire[..13], Duration::from_secs(1)).expect("head");
        drop(client);
        reader.join().expect("reader exits");
        let (peer, fe) = health.first_frame_err().expect("verdict recorded");
        assert_eq!((peer, fe), (1, FrameError::Truncated { got: 13, want: 24 }));

        // A stall after 13 bytes: the link is not idle any more, so the
        // deadline applies and the peer is condemned, not waited for.
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, _health) = test_ctx(&engine, Duration::from_millis(80));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        write_all_deadline(&mut client, &wire[..13], Duration::from_secs(1)).expect("head");
        let err = engine
            .post(ANY_SOURCE, ANY_TAG)
            .wait()
            .expect_err("header can never complete");
        assert!(err.to_string().contains("timed out mid-header"), "{err}");
        reader.join().expect("reader exits");
    }

    #[test]
    fn owned_payloads_cross_the_library_without_a_copy() {
        let mut comms = crate::Universe::local(2).expect("mesh");
        let (c1, c0) = (comms.pop().expect("rank 1"), comms.pop().expect("rank 0"));
        let data = Bytes::from(
            (0..1usize << 20)
                .map(|i| (i % 253) as u8)
                .collect::<Vec<u8>>(),
        );
        let at = data.as_ptr();
        c0.isend(1, 3, data.clone())
            .expect("queued")
            .wait()
            .expect("sent");
        // No hidden clone survives the send, and nothing moved.
        assert!(data.is_unique(), "the library kept a handle past wait()");
        assert_eq!(data.as_ptr(), at);
        let (got, st) = c1.recv(0, 3).expect("received");
        assert_eq!((st.src, st.tag, st.len), (0, 3, 1 << 20));
        assert!(got == data, "payload differs");
        // The buffer the reader thread filled is the one handed back,
        // and the engine let go of it.
        assert!(got.is_unique(), "the engine kept a handle past recv()");
    }

    #[test]
    fn garbage_first_frame_is_a_typed_frame_error() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        // A non-mplite peer: a full header's worth of something else.
        let garbage = b"GET /index.html HTTP/1.1\r\n";
        write_all_deadline(&mut client, garbage, Duration::from_secs(1)).expect("garbage");
        reader.join().expect("reader exits");
        let (peer, fe) = health.first_frame_err().expect("verdict recorded");
        assert_eq!(peer, 1);
        assert!(matches!(fe, FrameError::BadMagic { .. }), "{fe}");
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        // A syntactically valid header declaring an absurd length. The
        // length check fires before the checksum is even consulted, so
        // no payload buffer is ever allocated.
        let mut wire = v2_frame(1, 0, &[]);
        wire[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        write_all_deadline(&mut client, &wire, Duration::from_secs(1)).expect("header");
        reader.join().expect("reader exits");
        let (_, fe) = health.first_frame_err().expect("verdict recorded");
        assert!(matches!(fe, FrameError::Oversized { .. }), "{fe}");
    }

    #[test]
    fn corrupted_payload_is_a_checksum_verdict() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        let mut wire = v2_frame(1, 0, b"integrity matters");
        let last = wire.len() - 1;
        wire[last] ^= 0x40; // one flipped bit in the payload
        write_all_deadline(&mut client, &wire, Duration::from_secs(1)).expect("frame");
        reader.join().expect("reader exits");
        let (_, fe) = health.first_frame_err().expect("verdict recorded");
        assert!(matches!(fe, FrameError::ChecksumMismatch { .. }), "{fe}");
        assert!(health.dead[1].load(Ordering::Acquire));
    }

    #[test]
    fn eof_without_fin_is_an_unannounced_death() {
        let (client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        engine.ready();
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        let pending = engine.post(ANY_SOURCE, ANY_TAG);
        drop(client); // idle-link EOF with no FIN ever sent
        reader.join().expect("reader exits");
        assert!(health.dead[1].load(Ordering::Acquire), "peer 1 marked dead");
        let err = pending.wait().expect_err("poisoned");
        assert!(err.to_string().contains("without FIN"), "{err}");
    }

    #[test]
    fn eof_after_fin_is_a_clean_teardown() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        engine.ready();
        let (ctx, health) = test_ctx(&engine, Duration::from_secs(5));
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        let fin = v2_frame(1, FIN_TAG, &[]);
        write_all_deadline(&mut client, &fin, Duration::from_secs(1)).expect("fin");
        drop(client);
        reader.join().expect("reader exits");
        assert!(!health.dead[1].load(Ordering::Acquire), "clean teardown");
        assert!(health.fin[1].load(Ordering::Acquire));
    }

    #[test]
    fn poison_broadcast_marks_the_reported_rank_dead() {
        let (mut client, server) = socket_pair();
        let engine = Arc::new(MatchEngine::new());
        engine.ready();
        let health = Arc::new(Health::new(4));
        let (tx, _rx) = channel::<SendJob>();
        let ctx = ReaderCtx {
            rank: 0,
            peer: 1,
            engine: Arc::clone(&engine),
            shutting_down: Arc::new(AtomicBool::new(false)),
            deadline: Duration::from_secs(5),
            health: Arc::clone(&health),
            tx,
            max_msg: frame::DEFAULT_MAX_MESSAGE,
        };
        let reader = std::thread::spawn(move || {
            reader_loop(server, ctx);
        });
        let pending = engine.post(ANY_SOURCE, ANY_TAG);
        // Peer 1 reports rank 3 dead, then shuts down cleanly.
        let poison = v2_frame(1, POISON_TAG, &3u64.to_le_bytes());
        write_all_deadline(&mut client, &poison, Duration::from_secs(1)).expect("poison");
        let fin = v2_frame(1, FIN_TAG, &[]);
        write_all_deadline(&mut client, &fin, Duration::from_secs(1)).expect("fin");
        drop(client);
        reader.join().expect("reader exits");
        assert!(health.dead[3].load(Ordering::Acquire), "verdict recorded");
        let err = pending.wait().expect_err("poisoned");
        assert!(err.to_string().contains("rank 3 dead"), "{err}");
    }

    #[test]
    fn parse_control_classifies_or_ignores_never_panics() {
        assert_eq!(parse_control(FIN_TAG, &[]), Some(Control::Fin));
        assert_eq!(parse_control(FIN_TAG, &[1, 2, 3]), Some(Control::Fin));
        assert_eq!(
            parse_control(POISON_TAG, &7u64.to_le_bytes()),
            Some(Control::Poison { dead: 7 })
        );
        // Wrong-length poison payloads are unusable, not fatal.
        assert_eq!(parse_control(POISON_TAG, &[1, 2, 3]), None);
        assert_eq!(parse_control(POISON_TAG, &[0; 16]), None);
        assert_eq!(parse_control(0, b"data"), None);
        assert_eq!(parse_control(-5, &[]), None);
    }
}
