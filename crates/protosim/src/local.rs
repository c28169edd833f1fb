//! Same-host channels: the pipe/loopback hop between an application and a
//! message-passing daemon (`pvmd`, `lamd`).
//!
//! The paper's daemon-routed modes (PVM's default, LAM's `-lamd`) relay
//! every message *application → local daemon → remote daemon → remote
//! application*. The local hops never touch the NIC: they cost two kernel
//! copies plus syscall/wakeup overhead on the host CPU — cheap, but the
//! store-and-forward structure they enable is what collapses throughput
//! (§3.5, §4.2).

use simcore::SimDuration;

use crate::fabric::{complete_at, Conn, ConnId, Continuation, Done, Fabric, Net};

/// A same-host IPC channel (Unix pipe / loopback socket).
pub struct LocalConn {
    /// Host both endpoints live on.
    pub host: usize,
    /// Fixed per-message cost: two syscalls + a scheduler wakeup, µs.
    pub per_msg_us: f64,
    /// Number of memory copies per traversal (user→kernel→user = 2).
    pub copies: u32,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
    /// The last `(bytes, hop cost)`: a relay moves one fragment size.
    memo: (u64, SimDuration),
}

impl LocalConn {
    /// A standard loopback channel on `host`.
    pub fn loopback(host: usize) -> LocalConn {
        LocalConn {
            host,
            per_msg_us: 10.0,
            copies: 2,
            bytes_delivered: 0,
            memo: (u64::MAX, SimDuration::ZERO),
        }
    }
}

/// Open a loopback channel on `host`.
pub fn open(fabric: &mut Fabric, host: usize) -> ConnId {
    assert!(host < 2);
    fabric.push_conn(Conn::Local(LocalConn::loopback(host)))
}

/// Send `bytes` across the local channel.
pub fn send(eng: &mut Net, conn: ConnId, bytes: u64, on_delivered: Continuation) {
    submit(eng, conn, bytes, Done::Call(on_delivered));
}

/// [`send`], completing with `done`.
pub(crate) fn submit(eng: &mut Net, conn: ConnId, bytes: u64, done: Done) {
    let now = eng.now();
    let at = {
        let Fabric {
            spec, hosts, conns, ..
        } = &mut eng.world;
        let local = match &mut conns[conn.0] {
            Conn::Local(l) => l,
            #[expect(
                clippy::panic,
                reason = "ConnId was issued by this module's connect(); a mismatch is a caller bug, not a runtime condition"
            )]
            _ => panic!("connection {conn:?} is not local"),
        };
        local.bytes_delivered += bytes;
        if local.memo.0 != bytes {
            let copy_each = SimDuration::for_bytes(bytes, spec.host.cpu.kernel_copy_bps);
            let dur = SimDuration::from_micros_f64(local.per_msg_us)
                + copy_each * u64::from(local.copies);
            local.memo = (bytes, dur);
        }
        hosts[local.host].cpu.serve_for(now, local.memo.1, bytes)
    };
    complete_at(eng, conn, 0, at, done);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmodel::presets::pcs_ga620;
    use simcore::units::throughput_mbps;
    use std::cell::Cell;
    use std::rc::Rc;

    fn one_way(bytes: u64) -> f64 {
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, 0);
        let done = Rc::new(Cell::new(None));
        let d = Rc::clone(&done);
        send(
            &mut eng,
            conn,
            bytes,
            Box::new(move |e| d.set(Some(e.now()))),
        );
        eng.run();
        done.get().unwrap().as_secs_f64()
    }

    #[test]
    fn local_hop_is_cheap_but_not_free() {
        let lat = one_way(8) * 1e6;
        assert!((5.0..20.0).contains(&lat), "local latency {lat} us");
    }

    #[test]
    fn local_bandwidth_is_copy_limited() {
        let t = one_way(1 << 22);
        let mbps = throughput_mbps(1 << 22, t);
        // Two kernel copies at the PC's 420 MB/s: ~1680 Mbps.
        assert!((1400.0..2000.0).contains(&mbps), "local bw {mbps} Mbps");
    }

    #[test]
    fn local_hop_contends_with_host_cpu() {
        // Two concurrent local sends on the same host serialize.
        let mut eng = Fabric::engine(pcs_ga620());
        let conn = open(&mut eng.world, 0);
        let times = Rc::new(std::cell::RefCell::new(Vec::new()));
        for _ in 0..2 {
            let times = Rc::clone(&times);
            send(
                &mut eng,
                conn,
                1 << 20,
                Box::new(move |e| times.borrow_mut().push(e.now().as_secs_f64())),
            );
        }
        eng.run();
        let t = times.borrow();
        assert!(t[1] > 1.9 * t[0], "second send should queue: {t:?}");
    }

    #[test]
    #[should_panic]
    fn open_rejects_bad_host() {
        let mut fab = Fabric::new(pcs_ga620());
        let _ = open(&mut fab, 2);
    }
}
