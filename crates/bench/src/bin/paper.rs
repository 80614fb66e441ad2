//! `paper <name>` regenerates one table or figure of the paper's
//! evaluation; `paper all` regenerates every one, in order. It exits 1
//! when a claim fails, and 2 on a bad name or environment value.

use crystalnet_bench::{config::Scale, SUBCOMMANDS};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let runs: Vec<_> = SUBCOMMANDS
        .iter()
        .filter(|(n, _)| name == "all" || *n == name)
        .collect();
    let env = |key| std::env::var(key).ok();
    let scale = match Scale::parse(
        env("CRYSTALNET_FULL").as_deref(),
        env("CRYSTALNET_REPS").as_deref(),
    ) {
        Ok(_) if runs.is_empty() => Err(format!("{name:?} is not a subcommand")),
        parsed => parsed,
    };
    let scale = scale.unwrap_or_else(|why| {
        let names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
        eprintln!("paper: {why}");
        eprintln!(
            "usage: [CRYSTALNET_FULL=0|1] [CRYSTALNET_REPS=n>=1] paper <all|{}>",
            names.join("|")
        );
        std::process::exit(2)
    });
    if name == "all" {
        println!("CrystalNet reproduction — full evaluation run");
        let l_dc = if scale.l_dc < 1.0 {
            "0.25x (default)"
        } else {
            "1x (full)"
        };
        println!("scale: L-DC at {l_dc} | repetitions: {}", scale.reps);
    }
    let mut failed = 0;
    for (_, run) in runs {
        let result = run(&scale);
        print!("{}", result.text);
        failed += result.claims.iter().filter(|c| !c.holds).count();
    }
    if name == "all" {
        println!("\nevaluation run complete");
    }
    if failed > 0 {
        eprintln!("paper: {failed} claim(s) failed");
        std::process::exit(1);
    }
}
