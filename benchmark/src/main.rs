//! The repo benchmark: five closed-loop, single-client workloads, five
//! bounded end-to-end metrics (plus the failure count), a per-layer
//! ladder measured from outside, and a traced replay. See `README.md`.
//!
//! ```text
//! benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark aa N [--seed N] [--seconds S]
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` each
//! runs untraced, then traced. Every run is measured in a child process
//! (see `child.rs`). There are no environment-variable knobs.

#![forbid(unsafe_code)]

mod aa;
mod child;
mod json;
mod ladder;
mod metrics;
mod run;
mod sim;
mod span;
mod stats;
mod wire;

use std::io::{self, Write as _};
use std::process::ExitCode;

use metrics::{Workload, RUN_SECONDS};

const USAGE: &str =
    "usage: benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       benchmark aa N [--seed N] [--seconds S]
workloads: figures coll_scaling coll_sizes wire_small wire_large";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    /// `Some(n)`: the A/A check with `n` runs per set.
    aa: Option<usize>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        aa: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    match it.peek().copied() {
        Some("run") => {
            it.next();
        }
        Some("aa") => {
            it.next();
            let n = it.next().ok_or("aa needs the number of runs per set")?;
            match n.parse() {
                Ok(n) if n >= 2 => cli.aa = Some(n),
                _ => return Err(format!("aa: '{n}' is not a run count of at least 2")),
            }
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag {
            "--workload" => {
                cli.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => match number()? {
                s @ 1..=60 => cli.seconds = s,
                _ => return Err("--seconds takes 1 to 60".into()),
            },
            "--trace" => match value {
                "0" => cli.trace = Some(false),
                "1" => cli.trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if cli.aa.is_some() && (cli.workload.is_some() || cli.trace.is_some() || cli.smoke) {
        return Err("aa runs every workload; it takes only --seed and --seconds".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = cli.aa {
        return match aa::check(n, cli.seed, cli.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("aa: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workloads = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let traces = cli.trace.map_or(vec![false, true], |t| vec![t]);
    let mut code = ExitCode::SUCCESS;
    for &workload in &workloads {
        for &trace in &traces {
            let args = run::Args {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
                smoke: cli.smoke,
            };
            if child::is_measuring_process() {
                let outcome = if trace {
                    run::traced(&args)
                } else {
                    run::untraced(&args)
                };
                // The driver reads the last line of standard output.
                println!("{}", outcome.line());
                continue;
            }
            match child::run(&args) {
                Ok(out) => {
                    // Pass on what the run printed, its result line last.
                    let _ = io::stderr().write_all(&out.stderr);
                    let _ = io::stdout().write_all(&out.stdout);
                    if !out.status.success() {
                        code = ExitCode::FAILURE;
                    }
                }
                Err(e) => {
                    eprintln!("cannot start the measuring process: {e}");
                    code = ExitCode::FAILURE;
                }
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "wire_small",
            "--seed",
            "7",
            "--seconds",
            "14",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::WireSmall));
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.smoke),
            (7, 14, Some(true), false)
        );
        assert_eq!(c.aa, None);
    }

    #[test]
    fn a_runs_own_command_line_asks_for_that_run() {
        let args = run::Args {
            workload: Workload::CollSizes,
            seed: 9,
            seconds: 3,
            trace: true,
            smoke: true,
        };
        let c = parse(&args.command_line()).unwrap();
        assert_eq!(c.workload, Some(args.workload));
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.smoke),
            (9, 3, Some(true), true)
        );
    }

    #[test]
    fn defaults_and_subcommands() {
        let c = cli(&[]).unwrap();
        assert_eq!((c.workload, c.trace, c.seconds), (None, None, RUN_SECONDS));
        assert!(cli(&["run", "--smoke"]).unwrap().smoke);
        let c = cli(&["aa", "10", "--seed", "3"]).unwrap();
        assert_eq!((c.aa, c.seed), (Some(10), 3));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seed"],
            &["--seed", "x"],
            &["--frobnicate", "1"],
            &["aa"],
            &["aa", "1"],
            &["aa", "3", "--smoke"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
