//! The §7 hypothesis, measured: computation/communication overlap per
//! progress model (in-call vs progress thread vs SIGIO vs kernel).

fn main() {
    println!("Computation/communication overlap (1 MB transfer vs 20 ms compute, GA620 cluster)\n");
    println!("{}", bench::write_overlap(&bench::results_dir()));
}
