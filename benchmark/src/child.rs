//! Every run is measured in a process of its own, started under fixed
//! conditions, so that `peak_rss_mib` is the run's own and so that two
//! things the harness cannot otherwise control do not decide the result:
//!
//! * **The allocator.** glibc keeps freed memory (no trimming, no `mmap`
//!   per large block below 32 MiB, the most glibc allows). Whether a run
//!   re-faults its big buffers on every op otherwise depends on what
//!   happens to sit at the top of the heap; on `coll_sizes` that luck
//!   alone spread `ops_per_s` by 59 % from run to run, against 5 % with
//!   the policy fixed. glibc reads its tunables once, at process start,
//!   hence the fresh process.
//! * **Thread placement.** The run is pinned, through `taskset`, to one
//!   core. Where a mesh's threads land relative to the cores decides the
//!   speed of a loopback round trip and changes every few seconds:
//!   unpinned, `wire_small`'s `op_p50_us` spread by 27 % from run to run
//!   (116-185 us), on one core by 7 % (36-39 us). The simulator workloads
//!   have one thread and read the same either way. Without `taskset` the
//!   run goes ahead unpinned; its result file says which cores it had.
//!
//! Neither is a knob: the harness sets both for itself and ignores what
//! it inherits.

use std::io;
use std::process::{Command, Output};

use crate::run::{proc_status, Args};

const ALLOCATOR: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "1099511627776"),
];

/// Was this process started by [`run`]?
pub fn is_measuring_process() -> bool {
    ALLOCATOR
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
}

/// The first CPU this process may run on.
fn first_allowed_cpu() -> Option<String> {
    let list = proc_status("Cpus_allowed_list:")?;
    let first = list.split([',', '-']).next()?.trim();
    first.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// Measure `args` in a child process under the run conditions, wait for
/// it, and return what it printed.
pub fn run(args: &Args) -> io::Result<Output> {
    let exe = std::env::current_exe()?;
    let spawn = |mut cmd: Command| cmd.args(args.command_line()).envs(ALLOCATOR).output();
    if let Some(cpu) = first_allowed_cpu() {
        let mut pinned = Command::new("taskset");
        pinned.args(["-c", &cpu]).arg(&exe);
        match spawn(pinned) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            done => return done,
        }
    }
    spawn(Command::new(exe))
}
