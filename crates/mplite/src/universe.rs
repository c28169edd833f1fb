//! Job bootstrap: building the full TCP mesh.
//!
//! Two launch modes, mirroring how MP_Lite jobs started:
//!
//! * [`Universe::local`] — all ranks in the current process (each on its
//!   own thread), connected over loopback TCP. This is what the test
//!   suite, the examples and the NetPIPE driver use.
//! * [`Universe::from_env`] — one rank per OS process, coordinates read
//!   from `MPLITE_RANK`, `MPLITE_NPROCS`, `MPLITE_PORT_BASE` and
//!   `MPLITE_HOSTS` (comma-separated, defaults to loopback), like a
//!   minimal `.nodes` file.

use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use faultlab::io::{accept_deadline, connect_retry, read_exact_deadline, write_all_deadline};
use faultlab::RetryPolicy;

use crate::comm::Comm;
use crate::error::{MpError, Result};

/// Deadline on each mesh-building handshake step. Boot is the one phase
/// where a long wait is legitimate (peers may still be starting), so this
/// is generous — but a vanished peer still cannot hang the job forever.
const BOOT_STEP: Duration = Duration::from_secs(30);

/// Job construction entry points.
pub struct Universe;

impl Universe {
    /// Build an `n`-rank job inside this process. Returns one [`Comm`] per
    /// rank; hand each to its own thread.
    pub fn local(n: usize) -> Result<Vec<Comm>> {
        Universe::local_via(n, |_, _, addr| Ok(addr))
    }

    /// [`Universe::local`] with an interposer: before rank `j` dials rank
    /// `i`, `via(j, i, addr)` may substitute the connect target — e.g. a
    /// `faultlab` chaos proxy front that forwards (and injures) the
    /// bytes on their way to `addr`. The identity function reproduces
    /// `local` exactly.
    pub fn local_via(
        n: usize,
        mut via: impl FnMut(usize, usize, std::net::SocketAddr) -> std::io::Result<std::net::SocketAddr>,
    ) -> Result<Vec<Comm>> {
        assert!(n >= 1, "need at least one rank");
        // Listeners first, so every connect target exists.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<_> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;

        // streams[i][j]: socket rank i uses to talk to rank j.
        let mut streams: Vec<Vec<Option<TcpStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for i in 0..n {
            #[expect(
                clippy::needless_range_loop,
                reason = "indexing both [j][i] and [i][j] rules out an iterator here"
            )]
            for j in (i + 1)..n {
                // j "dials" i; both ends live in this process, so short
                // deadlines suffice — a failure here is a local bug, not
                // a slow-booting peer.
                let target = via(j, i, addrs[i]).map_err(|e| MpError::from_io("mesh via", e))?;
                let client = connect_retry(target, Duration::from_secs(1), &RetryPolicy::default())
                    .map_err(|e| MpError::from_io("mesh connect", e))?;
                let server = accept_deadline(&listeners[i], Duration::from_secs(5), || true)
                    .map_err(|e| MpError::from_io("mesh accept", e))?;
                streams[j][i] = Some(client);
                streams[i][j] = Some(server);
            }
        }
        streams
            .into_iter()
            .enumerate()
            .map(|(rank, mesh)| Comm::from_mesh(rank, mesh))
            .collect()
    }

    /// Run `f` once per rank on `n` in-process ranks and collect the
    /// results in rank order. Panics in a rank propagate.
    pub fn run<F, T>(n: usize, f: F) -> Result<Vec<T>>
    where
        F: Fn(Comm) -> T + Send + Sync,
        T: Send,
    {
        let comms = Universe::local(n)?;
        let f = &f;
        let results: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| scope.spawn(move || f(comm)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        Ok(results)
    }

    /// Build this process's rank from the environment (multi-process
    /// launch). Rank `r` listens on `MPLITE_PORT_BASE + r`; lower ranks
    /// are dialled with retry, higher ranks are accepted.
    pub fn from_env() -> Result<Comm> {
        let rank: usize = env_parse("MPLITE_RANK")?;
        let nprocs: usize = env_parse("MPLITE_NPROCS")?;
        let port_base: u16 = env_parse("MPLITE_PORT_BASE").unwrap_or(17650);
        let hosts_raw = std::env::var("MPLITE_HOSTS").unwrap_or_default();
        let hosts: Vec<String> = if hosts_raw.is_empty() {
            vec!["127.0.0.1".to_string(); nprocs]
        } else {
            let h: Vec<String> = hosts_raw.split(',').map(|s| s.trim().to_string()).collect();
            if h.len() != nprocs {
                return Err(MpError::Io(std::io::Error::other(format!(
                    "MPLITE_HOSTS has {} entries for {} ranks",
                    h.len(),
                    nprocs
                ))));
            }
            h
        };
        if rank >= nprocs {
            return Err(MpError::BadRank { rank, nprocs });
        }

        let listener = TcpListener::bind(("0.0.0.0", port_base + rank as u16))?;
        let mut mesh: Vec<Option<TcpStream>> = (0..nprocs).map(|_| None).collect();

        // Dial every lower rank, with bounded exponential backoff while
        // it boots (~30 s of patience, like the old fixed-interval loop).
        let boot_retry = RetryPolicy {
            max_attempts: 12,
            base: Duration::from_millis(100),
            factor: 2.0,
            cap: Duration::from_secs(5),
        };
        for peer in 0..rank {
            let addr = (hosts[peer].as_str(), port_base + peer as u16)
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| {
                    MpError::Io(std::io::Error::other(format!(
                        "host {} did not resolve",
                        hosts[peer]
                    )))
                })?;
            let stream = connect_retry(addr, Duration::from_secs(2), &boot_retry)
                .map_err(|e| MpError::from_io("boot connect", e))?;
            let mut s = stream.try_clone()?;
            write_all_deadline(&mut s, &(rank as u32).to_le_bytes(), BOOT_STEP)
                .map_err(|e| MpError::from_io("boot hello", e))?;
            mesh[peer] = Some(stream);
        }
        // Accept every higher rank; they identify themselves.
        for _ in (rank + 1)..nprocs {
            let stream = accept_deadline(&listener, BOOT_STEP, || true)
                .map_err(|e| MpError::from_io("boot accept", e))?;
            let mut id = [0u8; 4];
            let mut s = stream.try_clone()?;
            read_exact_deadline(&mut s, &mut id, BOOT_STEP)
                .map_err(|e| MpError::from_io("boot hello", e))?;
            let peer = u32::from_le_bytes(id) as usize;
            if peer <= rank || peer >= nprocs {
                return Err(MpError::BadRank { rank: peer, nprocs });
            }
            mesh[peer] = Some(stream);
        }
        Comm::from_mesh(rank, mesh)
    }
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Result<T> {
    std::env::var(key)
        .map_err(|_| MpError::Io(std::io::Error::other(format!("{key} not set"))))?
        .parse()
        .map_err(|_| MpError::Io(std::io::Error::other(format!("{key} unparsable"))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ANY_SOURCE, ANY_TAG};

    #[test]
    fn two_rank_pingpong() {
        let results = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, b"ping").unwrap();
                let (data, st) = comm.recv(1, 7).unwrap();
                assert_eq!(st.src, 1);
                data.to_vec()
            } else {
                let (data, _) = comm.recv(0, 7).unwrap();
                assert_eq!(&data[..], b"ping");
                comm.send(0, 7, b"pong").unwrap();
                data.to_vec()
            }
        })
        .unwrap();
        assert_eq!(results[0], b"pong");
        assert_eq!(results[1], b"ping");
    }

    #[test]
    fn rank_and_size_reported() {
        let results = Universe::run(4, |comm| (comm.rank(), comm.nprocs())).unwrap();
        for (i, &(r, n)) in results.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(n, 4);
        }
    }

    #[test]
    fn large_message_integrity() {
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        Universe::run(2, move |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &payload).unwrap();
            } else {
                let (data, st) = comm.recv(0, 0).unwrap();
                assert_eq!(st.len, expect.len());
                assert_eq!(&data[..], &expect[..]);
            }
        })
        .unwrap();
    }

    #[test]
    fn wildcard_receive_from_all_peers() {
        Universe::run(4, |comm| {
            if comm.rank() == 0 {
                let mut seen = [false; 4];
                for _ in 0..3 {
                    let (data, st) = comm.recv(ANY_SOURCE, ANY_TAG).unwrap();
                    assert_eq!(data.len(), 4);
                    seen[st.src] = true;
                }
                assert!(seen[1] && seen[2] && seen[3]);
            } else {
                comm.send(0, comm.rank() as i32, &(comm.rank() as u32).to_le_bytes())
                    .unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn isend_irecv_overlap() {
        Universe::run(2, |comm| {
            let peer = 1 - comm.rank();
            // Post the receive before sending: exercises the posted path.
            let r = comm.irecv(peer as i32, 3);
            let s = comm.isend(peer, 3, &b"overlap"[..]).unwrap();
            let (data, _) = r.wait().unwrap();
            s.wait().unwrap();
            assert_eq!(&data[..], b"overlap");
        })
        .unwrap();
    }

    #[test]
    fn many_small_messages_fifo_per_pair() {
        Universe::run(2, |comm| {
            const N: u32 = 2000;
            if comm.rank() == 0 {
                for i in 0..N {
                    comm.send(1, 1, &i.to_le_bytes()).unwrap();
                }
            } else {
                for i in 0..N {
                    let (data, _) = comm.recv(0, 1).unwrap();
                    assert_eq!(u32::from_le_bytes(data[..].try_into().unwrap()), i);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn probe_sees_pending_message() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, b"peek").unwrap();
                // Wait for the ack so rank 1 has definitely seen it.
                let _ = comm.recv(1, 6).unwrap();
            } else {
                // Spin until the message is visible to probe.
                let st = loop {
                    if let Some(st) = comm.probe(0, 5) {
                        break st;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(st.len, 4);
                let (data, _) = comm.recv(0, 5).unwrap();
                assert_eq!(&data[..], b"peek");
                comm.send(0, 6, b"ok").unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn bad_rank_rejected() {
        Universe::run(2, |comm| {
            assert!(matches!(
                comm.send(5, 0, b"x"),
                Err(MpError::BadRank { .. })
            ));
            assert!(matches!(
                comm.send(comm.rank(), 0, b"x"),
                Err(MpError::BadRank { .. })
            ));
        })
        .unwrap();
    }

    #[test]
    fn zero_length_messages() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, b"").unwrap();
            } else {
                let (data, st) = comm.recv(0, 9).unwrap();
                assert_eq!(data.len(), 0);
                assert_eq!(st.len, 0);
            }
        })
        .unwrap();
    }

    #[test]
    fn from_env_requires_variables() {
        // Isolated check that missing env yields a clean error (no panic).
        std::env::remove_var("MPLITE_RANK");
        assert!(Universe::from_env().is_err());
    }
}
