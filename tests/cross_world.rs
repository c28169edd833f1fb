//! The two simulated worlds, compared where both can run.
//!
//! A message between two ranks can be timed by the two-rank
//! `mpsim::Session` over `protosim::Fabric` (per-segment TCP, windows,
//! the library's own mechanisms) or by the N-rank world's `time_sim`
//! over `protosim::MultiNet` (a 2-rank broadcast: one message). For
//! every paper curve the N-rank world can host — direct-routed,
//! unfragmented, single-channel, over TCP — and every size of
//! NetPIPE's default schedule, one line records the two-rank one-way
//! time, the 2-rank broadcast time and their ratio (N-rank over
//! two-rank). The text is compared with `tests/golden/cross_world.txt`;
//! on a mismatch the fresh text is written to the test binary's scratch
//! directory and the first differing line is reported.
//!
//! The golden pins both worlds at once: a change to either moves a
//! column, and a refactor of either must leave every line as it is.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::rc::Rc;

use collectives::{build, time_sim, Algorithm, CollOp, SimOptions};
use hwmodel::ClusterSpec;
use mpsim::{MpLib, Routing, Session, Transport};
use netpipe::{sizes, ScheduleOptions};
use protosim::Fabric;

const GOLDEN: &str = include_str!("golden/cross_world.txt");

/// Whether the N-rank world models what `lib` does: its fabric is one
/// tuned TCP path per pair, with no daemons, fragments or bonding.
fn hostable(lib: &MpLib) -> bool {
    let p = &lib.profile;
    matches!(lib.transport, Transport::Tcp(_))
        && p.routing == Routing::Direct
        && p.fragment.is_none()
        && p.bonded_channels <= 1
}

/// Simulated seconds until rank 1's receive of a `bytes` message from
/// rank 0 completes, in the two-rank world.
fn two_rank(spec: &ClusterSpec, lib: &MpLib, bytes: u64) -> f64 {
    let mut eng = Fabric::engine(spec.clone());
    let session = Session::establish(&mut eng.world, lib);
    let out = Rc::new(Cell::new(None));
    let o = Rc::clone(&out);
    session.send(
        &mut eng,
        0,
        bytes,
        Box::new(move |e| o.set(Some(e.now().as_secs_f64()))),
    );
    eng.run();
    out.get().expect("the two-rank send completes")
}

/// Simulated seconds of a 2-rank broadcast of `bytes` in the N-rank
/// world: one message, rank 0 to rank 1.
fn n_rank(spec: &ClusterSpec, lib: &MpLib, bytes: u64) -> f64 {
    let schedule = build(CollOp::Bcast, Algorithm::Tree, 2).expect("a 2-rank bcast plans");
    let timing = time_sim(
        spec,
        &lib.profile,
        &schedule,
        0,
        &[bytes, bytes],
        &SimOptions::default(),
    );
    assert!(timing.all_completed());
    timing.seconds
}

fn table() -> String {
    let points = sizes(&ScheduleOptions::default());
    let mut seen = BTreeSet::new();
    let mut out = String::new();
    for exp in clusterlab::all_experiments() {
        for entry in &exp.entries {
            let spec = entry.spec_override.as_ref().unwrap_or(&exp.spec);
            let lib = &entry.lib;
            // Keyed on the whole value: a variant cluster keeps its
            // preset's name, and `raw TCP` is named alike whatever its
            // socket buffers.
            if !hostable(lib) || !seen.insert(format!("{:?}", (spec, lib))) {
                continue;
            }
            for &bytes in &points {
                let two = two_rank(spec, lib, bytes);
                let n = n_rank(spec, lib, bytes);
                writeln!(
                    out,
                    "{} | {} | bytes={bytes} two_rank_us={:.3} n_rank_us={:.3} ratio={:.4}",
                    spec.name,
                    lib.name(),
                    two * 1e6,
                    n * 1e6,
                    n / two,
                )
                .expect("writing to a String cannot fail");
            }
        }
    }
    out
}

#[test]
fn both_worlds_match_their_golden() {
    let got = table();
    if got != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cross_world.txt");
        let _ = std::fs::write(&path, &got);
        let (line, (want, have)) = GOLDEN
            .lines()
            .zip(got.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((
                GOLDEN.lines().count().min(got.lines().count()),
                ("<end>", "<end>"),
            ));
        panic!(
            "the two worlds drifted from tests/golden/cross_world.txt at line {}:\n  golden: {want}\n  now:    {have}\nthe whole new text is in {}",
            line + 1,
            path.display()
        );
    }
}
