//! Kill-the-peer chaos tests against the real TCP driver: when the echo
//! server murders connections (or itself) mid-sweep, a resilience policy
//! must turn that into a partial, annotated signature — never a hang,
//! never a panic, never an `Err` that throws the good points away.

use std::time::Duration;

use faultlab::{FaultPlan, RetryPolicy, SweepPolicy};
use netpipe::{
    fault_report, run, summary_table, to_csv, PointStatus, RealTcpDriver, RealTcpOptions,
    RunOptions,
};

/// An echo peer that kills its connection after `kill_after` messages,
/// and with `kill_listener` stops accepting too.
fn chaotic_opts(kill_after: u64, kill_listener: bool) -> RealTcpOptions {
    RealTcpOptions {
        plan: FaultPlan {
            // Short deadlines and a tight backoff keep a dead peer cheap:
            // the whole test must finish in seconds, not RTO-minutes.
            io_deadline: Duration::from_millis(500),
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(10),
                factor: 2.0,
                cap: Duration::from_millis(100),
            },
            kill_after: Some(kill_after),
            kill_listener,
            ..FaultPlan::default()
        },
        ..RealTcpOptions::default()
    }
}

#[test]
fn killed_connections_degrade_but_the_sweep_survives() {
    let mut driver = RealTcpDriver::new(chaotic_opts(25, false)).expect("driver boots");
    let opts = RunOptions::quick(16 * 1024).with_resilience(SweepPolicy::default());
    let sig = run(&mut driver, &opts).expect("chaos sweep must not abort");

    // The server keeps accepting, so every point eventually lands — but
    // only through the reconnect path, which the signature must record.
    assert_eq!(
        sig.failed_count(),
        0,
        "{}",
        fault_report(std::slice::from_ref(&sig))
    );
    assert!(
        sig.degraded_count() > 0,
        "a kill-after=25 peer must force at least one reconnect"
    );
    assert!(
        driver.fault_counters().reconnects > 0,
        "{}",
        driver.fault_counters()
    );
    let report = fault_report(std::slice::from_ref(&sig));
    assert!(report.contains("degraded"), "{report}");
}

#[test]
fn peer_death_yields_partial_annotated_signature_not_a_hang() {
    let mut driver = RealTcpDriver::new(chaotic_opts(40, true)).expect("driver boots");
    let opts = RunOptions::quick(64 * 1024).with_resilience(SweepPolicy::default());
    let sig = run(&mut driver, &opts).expect("peer death must degrade, not error");

    assert!(
        sig.failed_count() > 0,
        "with the listener dead, later points cannot be measured"
    );
    assert!(sig.is_partial());
    // Early points (before the kill) still measured something real.
    assert!(
        sig.points.iter().any(|p| p.status == PointStatus::Ok),
        "points before the kill must survive untouched"
    );
    // Failures are annotated in the report and absent from the CSV.
    let report = fault_report(std::slice::from_ref(&sig));
    assert!(report.contains("FAILED"), "{report}");
    assert!(summary_table(std::slice::from_ref(&sig)).contains("(partial)"));
    let csv = to_csv(std::slice::from_ref(&sig));
    assert_eq!(csv.lines().count(), 1 + sig.measured_points().count());
}

#[test]
fn without_resilience_peer_death_is_a_typed_error() {
    let mut driver = RealTcpDriver::new(chaotic_opts(10, true)).expect("driver boots");
    let err = run(&mut driver, &RunOptions::quick(64 * 1024))
        .expect_err("legacy mode must propagate the failure");
    let msg = err.to_string();
    assert!(
        msg.contains("timed out") || msg.contains("connect") || msg.contains("reset"),
        "error should name the socket failure: {msg}"
    );
}
