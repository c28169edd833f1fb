//! The A/A check: the same build against itself.
//!
//! Two sets of `n` untraced runs per workload, interleaved and in
//! alternating workload order, every run a fresh process with its own
//! seed. Per metric × workload it prints each set's median, quartiles
//! and spread against the metric's bound, and how much worse the second
//! set's median is than the first's. A spread or a difference beyond
//! the bound is a breach: the benchmark cannot resolve a regression of
//! that size, and the run (or its warm-up) has to get longer. Later
//! performance changes use the same table to size their noise.
//!
//! One traced run per workload and set follows, to check that the
//! counts a simulator-speed-only change must not move are bit-identical
//! from run to run.

use crate::json::{counter_value, metric_value};
use crate::metrics::{Better, Workload, END_TO_END, PER_LAYER, SETUP_S};
use crate::run::Args;
use crate::stats::{quartiles, spread};

/// One run in its own process; returns its result line.
fn child(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let out = crate::child::run(&Args {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
    })
    .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!(
            "{} (seed {seed}, trace {trace}) did not report a correct run:\n{stdout}{}",
            workload.name(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    if counter_value(&line, "failed") != Some(0) {
        return Err(format!("{}: failed ops in {line}", workload.name()));
    }
    Ok(line)
}

/// By how much of `a` is `b` worse, given which way is better.
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Returns whether every metric held its bound.
pub fn check(n: usize, seed: u64, seconds: u64) -> Result<bool, String> {
    // values[set][workload][metric]
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    for i in 0..n {
        for (set, by_workload) in values.iter_mut().enumerate() {
            let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
            if (i + set) % 2 == 1 {
                order.reverse();
            }
            for w in order {
                let run_seed = seed + (2 * i + set) as u64;
                let line = child(Workload::ALL[w], run_seed, seconds, false)?;
                for (m, e) in END_TO_END.iter().enumerate() {
                    let v = metric_value(&line, e.name)
                        .ok_or_else(|| format!("no {} in {line}", e.name))?;
                    by_workload[w][m].push(v);
                }
                eprintln!(
                    "aa: set {} run {}/{n} {} done",
                    ["A", "B"][set],
                    i + 1,
                    Workload::ALL[w].name()
                );
            }
        }
    }

    let mut ok = true;
    println!("A/A over {n} runs per set, {seconds} s per run (!! = breach)\n");
    println!(
        "| workload | metric | unit | A median [q1, q3] | A spread | B median [q1, q3] | B spread | B worse by | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for (m, e) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
            let (sa, sb) = (spread(a), spread(b));
            let worse = worse_by(e.better, a2, b2);
            // Set-up time is bounded on its median only.
            let spread_ok = e.name == SETUP_S || (sa <= e.bound && sb <= e.bound);
            let held = spread_ok && worse <= e.bound;
            ok &= held;
            println!(
                "| {} | {} | {} | {a2:.4} [{a1:.4}, {a3:.4}] | {:.2} % | {b2:.4} [{b1:.4}, {b3:.4}] | {:.2} % | {:+.2} % | {:.0} %{} |",
                workload.name(),
                e.name,
                e.unit,
                100.0 * sa,
                100.0 * sb,
                100.0 * worse,
                100.0 * e.bound,
                if held { "" } else { " !!" }
            );
        }
    }

    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.moves.starts_with("exact"))
        .map(|m| m.name)
        .collect();
    let mut seen: Vec<Option<f64>> = vec![None; exact.len()];
    for set in 0..2u64 {
        for workload in Workload::ALL {
            let line = child(workload, seed + 2 * n as u64 + set, seconds, true)?;
            for (name, first) in exact.iter().zip(&mut seen) {
                let v = metric_value(&line, name).ok_or_else(|| format!("no {name} in {line}"))?;
                match *first {
                    None => *first = Some(v),
                    Some(f) if f.to_bits() == v.to_bits() => {}
                    Some(f) => {
                        ok = false;
                        println!("!! {name} moved between runs of the same build: {f} then {v}");
                    }
                }
            }
            eprintln!("aa: traced {} done", workload.name());
        }
    }
    println!(
        "\nexact counts, identical over {} traced runs:",
        2 * Workload::ALL.len()
    );
    for (name, v) in exact.iter().zip(&seen) {
        println!("  {name} = {}", v.unwrap_or(f64::NAN));
    }
    println!(
        "\n{}",
        if ok {
            "A/A held every bound"
        } else {
            "A/A BREACH"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metrics_direction() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 100.0, 90.0) < 0.0);
    }
}
