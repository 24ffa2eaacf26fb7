//! CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p mpc-bench --release --bin experiments             # everything
//! cargo run -p mpc-bench --release --bin experiments -- table1  # one experiment
//! cargo run -p mpc-bench --release --bin experiments -- --list  # names
//! ```

use mpc_bench::{Experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for e in EXPERIMENTS {
            println!("{}", e.name);
        }
        return;
    }
    let selected: Vec<&Experiment> = if args.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        args.iter()
            .map(|name| {
                let found = EXPERIMENTS.iter().find(|e| e.name == name);
                found.unwrap_or_else(|| {
                    eprintln!("unknown experiment '{name}'; use --list");
                    std::process::exit(2);
                })
            })
            .collect()
    };
    println!("# het-mpc experiment suite");
    println!("# (markdown tables; DESIGN.md §4 indexes the experiments)");
    let started = std::time::Instant::now();
    for e in selected {
        let t0 = std::time::Instant::now();
        e.run();
        eprintln!("[{} done in {:.1?}]", e.name, t0.elapsed());
    }
    eprintln!("[suite done in {:.1?}]", started.elapsed());
}
