//! The names every later performance claim must use: workloads,
//! end-to-end metrics with their regression bounds, and per-layer
//! metrics with the end-to-end metric each is expected to move.
//! `BENCHMARK.json` repeats these tables for the driver; a test keeps
//! the two in step.

/// Seconds one run measures for unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// A closed-loop, single-client workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Figures,
    CollScaling,
    CollSizes,
    WireSmall,
    WireLarge,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Figures,
        Workload::CollScaling,
        Workload::CollSizes,
        Workload::WireSmall,
        Workload::WireLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figures => "figures",
            Workload::CollScaling => "coll_scaling",
            Workload::CollSizes => "coll_sizes",
            Workload::WireSmall => "wire_small",
            Workload::WireLarge => "wire_large",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which layer does the work (one line; `BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Figures => "the paper's job: all 61 NetPIPE curves of fig1-5/t1-t4, serially; two-rank world, a fresh engine per size point (6710 a pass, 880 events each): dispatch and protosim/mpsim event bodies dominate",
            Workload::CollScaling => "N-rank world at scale: 1 KiB allreduce over 4..1024 ranks x 3 algorithms x 2 profiles; per-rank set-up, matching and event dispatch dominate, payload bytes are negligible",
            Workload::CollSizes => "same layers used differently: 16-rank allreduce, 64 B..1 MiB; few ranks and big payloads, so payload hand-off and reduction dominate and set-up does not",
            Workload::WireSmall => "real mplite over loopback TCP, 64 B round trips: per-message cost only (thread hand-offs, syscalls, header encode/decode)",
            Workload::WireLarge => "real mplite over loopback TCP, 1 MiB round trips: per-byte cost only (software CRC32C and buffer copies); hand-offs are noise",
        }
    }
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported on every workload, measured untraced.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    pub what: &'static str,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const OP_P50_US: &str = "op_p50_us";
pub const OP_P99_US: &str = "op_p99_us";
pub const PEAK_RSS_MIB: &str = "peak_rss_mib";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "one set-up = input/plan construction, mesh boot and the untimed warm-up; median of three set-ups",
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "ops completed / seconds spent in them (wire_large: x 2 MiB = goodput); median over slices",
    },
    EndToEnd {
        name: OP_P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median per-op host latency; median over slices",
    },
    EndToEnd {
        name: OP_P99_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "99th percentile per-op host latency of a slice (one pass, or a second of round trips); median over slices",
    },
    EndToEnd {
        name: PEAK_RSS_MIB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the measuring process at exit",
    },
];

/// A metric of one layer (= crate), timed from outside through the
/// crate's public functions. No bound: these explain, they do not gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end `metric@workload` expected to follow; everything
    /// not named is predicted not to move.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
    }
}

const GUARD: &str = "guard: should follow nothing";

pub const PER_LAYER: [PerLayer; 47] = [
    lower(
        "simcore.hold_ns_per_event_1e3",
        "ns",
        "ops_per_s@coll_scaling, weakly @figures",
    ),
    lower(
        "simcore.hold_ns_per_event_1e5",
        "ns",
        "ops_per_s@coll_scaling",
    ),
    lower(
        "simcore.hold_ns_per_event_1e6",
        "ns",
        "ops_per_s@coll_scaling (1024-rank points)",
    ),
    lower("simcore.resource_serve_ns", "ns", "ops_per_s@figures"),
    lower(
        "simcore.events_per_pass.figures",
        "count",
        "exact: identical before/after any simulator-speed-only change",
    ),
    lower(
        "simcore.events_per_pass.coll_scaling",
        "count",
        "exact: identical before/after any simulator-speed-only change",
    ),
    lower(
        "simcore.events_per_pass.coll_sizes",
        "count",
        "exact: identical before/after any simulator-speed-only change",
    ),
    lower(
        "simcore.host_ns_per_event.figures",
        "ns",
        "ops_per_s@figures",
    ),
    lower(
        "simcore.host_ns_per_event.coll_scaling",
        "ns",
        "ops_per_s@coll_scaling",
    ),
    lower(
        "simcore.host_ns_per_event.coll_sizes",
        "ns",
        "ops_per_s@coll_sizes",
    ),
    lower(
        "hwmodel.spec_clone_ns",
        "ns",
        "ops_per_s@figures (paid once per size point)",
    ),
    lower("protosim.fabric_setup_us", "us", "ops_per_s@figures"),
    lower(
        "protosim.tcp_host_ns_per_event",
        "ns",
        "op_p99_us@figures (large-size curves)",
    ),
    lower(
        "protosim.raw_host_ns_per_event",
        "ns",
        "op_p99_us@figures (large-size curves)",
    ),
    lower(
        "protosim.multinet_setup_us_1024",
        "us",
        "ops_per_s@coll_scaling",
    ),
    lower(
        "protosim.multinet_send_ns_per_msg",
        "ns",
        "ops_per_s@coll_scaling",
    ),
    lower("mpsim.session_establish_us", "us", "ops_per_s@figures"),
    lower("mpsim.pingpong_us_64B", "us", "ops_per_s@figures"),
    lower("mpsim.pingpong_us_1MiB", "us", "ops_per_s@figures"),
    lower(
        "mpsim.multisession_new_us_256",
        "us",
        "ops_per_s and op_p99_us@coll_scaling",
    ),
    lower(
        "mpsim.multisession_new_us_1024",
        "us",
        "ops_per_s and op_p99_us@coll_scaling",
    ),
    lower(
        "mpsim.multi_match_ns_per_msg",
        "ns",
        "ops_per_s@coll_scaling",
    ),
    lower("collectives.build_us_1024", "us", "ops_per_s@coll_scaling"),
    lower(
        "collectives.run_local_us_1024",
        "us",
        "ops_per_s@coll_scaling",
    ),
    higher(
        "collectives.run_local_mb_per_s_16x1MiB",
        "MB/s",
        "ops_per_s@coll_sizes",
    ),
    lower(
        "collectives.barrier256_host_ns_per_event",
        "ns",
        "ops_per_s@coll_scaling (continues BENCH_collectives.json)",
    ),
    lower("collectives.recovery64_us", "us", GUARD),
    higher("mplite.crc32c_mb_per_s", "MB/s", "ops_per_s@wire_large"),
    higher(
        "mplite.frame_encode_mb_per_s_64B",
        "MB/s",
        "op_p50_us@wire_small",
    ),
    higher(
        "mplite.frame_encode_mb_per_s_64KiB",
        "MB/s",
        "ops_per_s@wire_large",
    ),
    higher(
        "mplite.frame_decode_mb_per_s_64B",
        "MB/s",
        "op_p50_us@wire_small",
    ),
    higher(
        "mplite.frame_decode_mb_per_s_64KiB",
        "MB/s",
        "ops_per_s@wire_large",
    ),
    lower(
        "mplite.mesh_boot_ms",
        "ms",
        "setup_s@wire_small and @wire_large",
    ),
    lower("mplite.send_call_us_64B", "us", "op_p50_us@wire_small"),
    lower(
        "mplite.overhead_x_64B",
        "x",
        "op_p50_us@wire_small (library / raw TCP, same run)",
    ),
    lower(
        "mplite.overhead_x_1MiB",
        "x",
        "op_p50_us@wire_large (library / raw TCP, same run)",
    ),
    lower(
        "netpipe.rawtcp_p50_us_64B",
        "us",
        "the floor: must not move with mplite changes",
    ),
    lower(
        "netpipe.rawtcp_p50_us_1MiB",
        "us",
        "the floor: must not move with mplite changes",
    ),
    lower("netpipe.runner_overhead_pct", "%", "ops_per_s@figures"),
    lower("netpipe.report_ms", "ms", GUARD),
    lower("clusterlab.checks_failed", "count", "exact: 0"),
    lower(
        "clusterlab.paper_err_max_pct",
        "%",
        "exact: the accuracy figure to state beside every simulator speed-up",
    ),
    lower(
        "clusterlab.run_experiment_x",
        "x",
        "guard for the user-visible fig* binaries (threaded / serial wall)",
    ),
    lower(
        "tracelab.traced_x",
        "x",
        "no end-to-end metric (all are untraced); ROADMAP item 5 target 1.3",
    ),
    lower("faultlab.lossless_plan_x", "x", GUARD),
    lower(
        "harness.trace_overhead_x",
        "x",
        "traced replay / untraced op wall, for the workload run",
    ),
    higher(
        "harness.trace_coverage_pct",
        "%",
        "share of op wall the replay's layer spans cover (must stay >= 95)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit) && seen.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// file says.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for w in Workload::ALL {
            let row = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why());
            assert!(text.contains(&row), "workload row missing: {row}");
        }
        for m in &END_TO_END {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(text.contains(&row), "end_to_end row missing: {row}");
        }
        for m in &PER_LAYER {
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(text.contains(&row), "per_layer row missing: {row}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert_eq!(text.matches("\"why\":").count(), Workload::ALL.len());
    }
}
