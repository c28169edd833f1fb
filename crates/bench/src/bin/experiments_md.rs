//! Generate EXPERIMENTS.md: paper-vs-measured for every figure and
//! narrative table, the shape-check verdicts, and the §7 overlap panel.
//!
//! Usage: `cargo run --release -p bench --bin experiments_md > EXPERIMENTS.md`

fn main() {
    print!("{}", bench::experiments_md());
}
