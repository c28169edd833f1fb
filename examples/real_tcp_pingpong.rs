//! NetPIPE over *real* kernel TCP on loopback — the measurement the paper
//! runs, alive on today's machine, including the socket-buffer experiment
//! of §4.
//!
//! ```sh
//! cargo run --release --example real_tcp_pingpong
//! ```

use netpipe_rs::prelude::*;

fn main() {
    println!("NetPIPE over real loopback TCP on this machine\n");

    let mut sigs = Vec::new();
    for (label, sockbuf, max) in [
        ("default buffers", 0u32, 4 << 20),
        // The echo server reads a whole message before it answers. Past
        // the 32 kB the kernel grants for a 16 kB request, each round
        // trip waits out the peers' ACK and window-probe timers: 44 ms
        // at 36 kB, 0.3 s at 64 kB, seconds beyond (and a 1 MB write
        // overruns the 5 s I/O deadline). Stop the sweep where the
        // collapse already shows.
        ("16 kB buffers", 16 * 1024, 64 << 10),
        ("512 kB buffers", 512 * 1024, 4 << 20),
    ] {
        let mut driver = RealTcpDriver::new(RealTcpOptions {
            sockbuf,
            nodelay: true,
            ..Default::default()
        })
        .expect("echo server failed to start");
        let (snd, rcv) = driver.effective_buffers();
        let sig = run(
            &mut driver,
            &RunOptions {
                schedule: netpipe::ScheduleOptions {
                    max,
                    ..Default::default()
                },
                trials: 5,
                warmup: 3,
                ..Default::default()
            },
        )
        .expect("measurement failed");
        println!(
            "{label:<16} granted snd/rcv = {snd}/{rcv} B    latency {:>7.1} us    \
             peak {:>8.0} Mbps    at {} kB {:>8.1} Mbps",
            sig.latency_us,
            sig.max_mbps,
            max >> 10,
            sig.final_mbps()
        );
        sigs.push(sig);
    }

    println!();
    println!(
        "{}",
        ascii_figure("real loopback TCP vs socket buffers", &sigs, 88, 18)
    );
    println!(
        "Loopback has no NIC, so absolute numbers dwarf the paper's — but the\n\
         *shape* of the socket-buffer effect survives two decades: the kernel\n\
         clamps requests to wmem_max exactly as §3.4 describes, and undersized\n\
         buffers still cost real throughput."
    );
}
