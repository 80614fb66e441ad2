//! Regenerates every table and figure in the CrystalNet paper's
//! evaluation (plus the DESIGN.md ablations) through one binary, and
//! checks the paper's claims against what it measured:
//!
//! ```text
//! cargo run --release -p crystalnet-bench --bin paper -- <name>
//! ```
//!
//! where `<name>` is a row of [`SUBCOMMANDS`], or `all` for every row in
//! order. Everything printed is a deterministic virtual-time result;
//! performance numbers are not produced here — the instrument for those
//! is the standalone `benchmark/` package (contract in `BENCHMARK.json`).
//! The binary exits 1 when any [`Claim`] fails. It reads the run's size
//! from the environment once, into a [`config::Scale`].

/// `writeln!` into a `String`, which cannot fail.
macro_rules! out {
    ($text:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($text, $($arg)*).expect("writing to a String cannot fail")
    }};
}

pub mod boundaries;
pub mod config;
pub mod fig8;
pub mod fig9;
pub mod incidents;
pub mod ops;
pub mod tables;

use config::Scale;

/// One claim of the paper, checked against this run.
pub struct Claim {
    /// What the paper claims, as the bound the check applies.
    pub paper: &'static str,
    /// What this run measured: the value, or the row a per-row check read.
    pub measured: String,
    /// Whether the measurement bears the claim out.
    pub holds: bool,
}

/// A [`Claim`] from its three parts.
pub fn claim(paper: &'static str, measured: impl Into<String>, holds: bool) -> Claim {
    let measured = measured.into();
    Claim {
        paper,
        measured,
        holds,
    }
}

/// What one subcommand prints, and the claims it checked.
pub struct PaperResult {
    /// The rendered tables, ending with the claim block.
    pub text: String,
    /// The checked claims, in the order the claim block lists them.
    pub claims: Vec<Claim>,
}

impl PaperResult {
    /// Appends `claims` to `text` as one `<title> claim checks:` block.
    #[must_use]
    pub fn new(mut text: String, title: &str, claims: Vec<Claim>) -> Self {
        out!(text, "\n{title} claim checks:");
        for c in &claims {
            let mark = if c.holds { "ok" } else { "FAIL" };
            out!(text, "  [{mark}] {}: {}", c.measured, c.paper);
        }
        Self { text, claims }
    }
}

/// One subcommand: runs at a scale, returns what to print.
pub type Subcommand = fn(&Scale) -> PaperResult;

/// The `paper` binary's dispatch table: one subcommand per table or
/// figure, in the order `all` runs them. The docs test reads the names
/// from here, so a documented command cannot outlive its subcommand.
pub const SUBCOMMANDS: [(&str, Subcommand); 8] = [
    ("table1", |_| incidents::table1(42)),
    ("fig1", |_| incidents::fig1(7, 200)),
    ("fig7", |_| boundaries::fig7()),
    ("table3", tables::table3),
    ("table4", |_| tables::table4()),
    ("fig8", fig8::fig8),
    ("fig9", fig9::fig9),
    ("sec83", ops::sec83),
];
