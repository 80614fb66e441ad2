//! `paper <name>` regenerates one table or figure of the paper's
//! evaluation; `paper all` regenerates every one, in order.

use crystalnet_bench::{config, SUBCOMMANDS};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "all" {
        println!("CrystalNet reproduction — full evaluation run");
        println!(
            "scale: L-DC at {} | repetitions: {}",
            if config::full_scale() {
                "1x (full)"
            } else {
                "0.25x (default)"
            },
            config::reps()
        );
        for (_, run) in SUBCOMMANDS {
            run();
        }
        println!("\nevaluation run complete");
    } else if let Some((_, run)) = SUBCOMMANDS.iter().find(|(n, _)| *n == name) {
        run();
    } else {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: paper <all|{}>", names.join("|"));
        std::process::exit(2);
    }
}
