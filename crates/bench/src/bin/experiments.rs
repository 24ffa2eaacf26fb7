//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p mpc-bench --release --bin experiments             # everything
//! cargo run -p mpc-bench --release --bin experiments -- table1  # one experiment
//! cargo run -p mpc-bench --release --bin experiments -- --list  # names
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for name in mpc_bench::EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let selected: Vec<&str> = if args.is_empty() {
        mpc_bench::EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in &selected {
        if !mpc_bench::EXPERIMENTS.contains(name) {
            eprintln!("unknown experiment '{name}'; use --list");
            std::process::exit(2);
        }
    }
    println!("# het-mpc experiment suite");
    println!("# (markdown tables; DESIGN.md §4 indexes the experiments)");
    let started = std::time::Instant::now();
    for name in selected {
        let t0 = std::time::Instant::now();
        mpc_bench::run_experiment(name);
        eprintln!("[{name} done in {:.1?}]", t0.elapsed());
    }
    eprintln!("[suite done in {:.1?}]", started.elapsed());
}
