//! Regenerate the paper's figures and narrative tables by experiment id:
//! `figures fig1 t2_latency`, or `figures all`. Each prints the curves
//! and the paper-vs-measured table and writes `results/<id>.{csv,svg}`
//! and plotfiles; exits 1 when a shape check fails, 2 on a usage error.

fn main() {
    let all = clusterlab::all_experiments();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let unknown = args
        .iter()
        .find(|a| *a != "all" && all.iter().all(|e| e.id != a.as_str()));
    if args.is_empty() || unknown.is_some() {
        let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        if let Some(id) = unknown {
            eprintln!("unknown experiment id `{id}`");
        }
        eprintln!("usage: figures all | <id>...   ids: {}", ids.join(" "));
        std::process::exit(2);
    }
    let mut ok = true;
    for exp in &all {
        if args.iter().any(|a| a == "all" || a == exp.id) {
            ok &= bench::regenerate(exp);
        }
    }
    std::process::exit(if ok { 0 } else { 1 });
}
