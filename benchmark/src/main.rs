//! The repository's benchmark.
//!
//! Four operator workloads measured from outside, by timing calls into
//! the workspace crates' public functions and reading the counters they
//! already expose. See `README.md` beside this package.
//!
//! ```text
//! crystalnet-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! crystalnet-benchmark run     [--seed N] [--seconds S] [--workload NAME] [--out FILE]
//! crystalnet-benchmark trace   [--seed N] [--seconds S] [--workload NAME] [--out FILE]
//! crystalnet-benchmark compare BASE.json NEW.json
//! ```
//!
//! The first form is the one the driver of `BENCHMARK.json` uses: one
//! workload, in this process, result object on the last line of standard
//! output. `run` and `trace` run that form once per workload in a child
//! process each, so peak memory and allocator state are per workload.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and the CPU-time clocks of 64-bit Linux");

mod compare;
mod inputs;
mod probes;
mod report;
mod spans;
mod stats;
mod workloads;

use report::{object, Spec};
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Params;

/// Where `run` and `trace` leave their files.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// `--name value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a number")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run_set(&f, false)),
        Some("trace") => Flags::parse(&args[1..]).and_then(|f| run_set(&f, true)),
        Some("compare") => compare_sets(&args[1..]),
        Some(_) => Flags::parse(&args).and_then(|f| drive(&f)),
        None => Err("usage: see benchmark/README.md".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("crystalnet-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process: the driver's form of the command.
fn drive(flags: &Flags) -> Result<ExitCode, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let spec = Spec::embedded();
    let name = flags.get("workload").ok_or("--workload is required")?;
    let seed: u64 = flags.number("seed", 42)?;
    let seconds: f64 = flags.number("seconds", spec.run_seconds)?;
    let trace = flags.number::<u8>("trace", 0)? != 0;
    // The pass count, and with it every sample buffer, grows with the
    // request; an hour is far beyond any use and keeps them small.
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    let params = Params {
        seed,
        length: seconds / spec.run_seconds,
        trace,
    };
    let mut outcome = workloads::run(name, params)
        .ok_or_else(|| format!("unknown workload `{name}`; one of {:?}", workloads::NAMES))?;

    // Every workload asks for one worker. CPU time on any other thread
    // means the emulator started threads of its own, joined or not, and
    // the end-to-end numbers would no longer be those of the serial path.
    // (The traced run's parallel-executor probe starts two on purpose.)
    let helpers = workloads::helper_cpu_share();
    if !trace && helpers > 0.01 {
        return Err(format!(
            "{:.1} % of the CPU time was spent off the main thread; refusing to report",
            helpers * 100.0
        ));
    }

    let metrics = if trace {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace.{name}.json"));
        let recorded = outcome.tracer.spans();
        std::fs::write(&path, spans::chrome_trace_json(recorded))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let pass_wall_s: f64 = outcome.pass_wall_s.iter().sum();
        let span_overhead_pct =
            probes::span_cost_ns() * recorded.len() as f64 / (pass_wall_s * 1e9) * 100.0;
        outcome.layers.extend([
            (
                "bench.unattributed_share",
                outcome.tracer.unattributed_share(pass_wall_s),
            ),
            ("telemetry.bench_span_overhead_pct", span_overhead_pct),
        ]);
        report::per_layer_values(&spec, &outcome)
    } else {
        report::end_to_end_values(&spec, &outcome)
    };
    for (metric, value, unit) in &metrics {
        println!("{name} {metric} {value} {unit}");
    }
    for (count, value) in &outcome.exact {
        println!("{name} exact {count} {value}");
    }
    for note in &outcome.checks.notes {
        eprintln!("{name} FAILED: {note}");
    }
    let detail = report::detail(&spec, name, seed, seconds, &outcome);
    if let Some(Value::Array(differing)) = detail.get("exact_vs_record") {
        eprintln!("{name}: exact counts differ from benchmark/exact.json: {differing:?}");
    }
    println!(
        "detail: {}",
        serde_json::to_string(&detail).expect("values serialize")
    );
    println!("{}", report::result_line(&outcome, &metrics));
    Ok(ExitCode::SUCCESS)
}

/// First line of a command's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// `run` / `trace`: every workload in a child process of its own, the
/// results gathered under one header.
fn run_set(flags: &Flags, trace: bool) -> Result<ExitCode, String> {
    let spec = Spec::embedded();
    let seed: u64 = flags.number("seed", 42)?;
    let seconds: f64 = flags.number("seconds", spec.run_seconds)?;
    let names: Vec<&str> = match flags.get("workload") {
        Some(w) => vec![w],
        None => workloads::NAMES.to_vec(),
    };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let started = Instant::now();
    let mut results = Vec::new();
    let mut sizes = Vec::new();
    let mut ok = true;
    for name in &names {
        eprintln!("== {name} (seed {seed})");
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        if !output.status.success() {
            return Err(format!("{name} exited with {}", output.status));
        }
        let last = stdout.lines().last().unwrap_or("");
        let result: Value =
            serde_json::from_str(last).map_err(|e| format!("{name}: result line: {e}"))?;
        let detail: Value = stdout
            .lines()
            .find_map(|l| l.strip_prefix("detail: "))
            .ok_or_else(|| format!("{name}: no detail line"))
            .and_then(|l| serde_json::from_str(l).map_err(|e| format!("{name}: detail: {e}")))?;
        ok &= result.get("correct") == Some(&Value::Bool(true));
        sizes.push((*name, detail.get("sizes").cloned().unwrap_or(Value::Null)));
        results.push(object(vec![("detail", detail), ("result", result)]));
    }
    let header = object(vec![
        (
            "nproc",
            Value::Uint(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("rustc", Value::Str(tool_line("rustc", &["--version"]))),
        (
            "git_commit",
            Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "build_profile",
            Value::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("seed", Value::Uint(seed)),
        ("seconds", Value::Float(seconds)),
        ("sizes", object(sizes)),
        ("traced", Value::Bool(trace)),
        ("set_wall_s", Value::Float(started.elapsed().as_secs_f64())),
    ]);
    let doc = object(vec![("header", header), ("results", Value::Array(results))]);
    let path = match flags.get("out") {
        Some(p) => PathBuf::from(p),
        None => {
            let dir = out_dir();
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            dir.join(if trace {
                "layers.json".to_string()
            } else {
                format!("run-seed{seed}.json")
            })
        }
    };
    let text = serde_json::to_string_pretty(&doc).expect("values serialize");
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one workload failed a correctness check");
        ExitCode::from(1)
    })
}

/// `compare BASE NEW`.
fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("usage: compare BASE.json NEW.json".to_string());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(base)?, load(new)?);
    for (label, set) in [("base", &a), ("new", &b)] {
        if let Some(h) = set.get("header") {
            println!(
                "{label}: {}",
                serde_json::to_string(h).expect("values serialize")
            );
        }
    }
    let (text, flagged) = compare::compare(&Spec::embedded(), &a, &b);
    print!("{text}");
    Ok(if flagged {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
