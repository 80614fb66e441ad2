//! Turning a workload's outcome into the result line the driver reads
//! and the detail line `run`, `trace` and `compare` read.

use crate::stats::Summary;
use crate::workloads::Outcome;
use serde_json::Value;

/// The benchmark's contract, embedded so the binary and the file the
/// driver reads cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Exact counts recorded for the reference seed (42) and the held-out
/// seed (1337) when the sizes were frozen.
const EXACT_JSON: &str = include_str!("../exact.json");

/// One end-to-end metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the base's median by which it may worsen.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the program needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics, in file order.
    pub end_to_end: Vec<EndToEnd>,
    /// Per-layer metric `(name, unit)` pairs, in file order.
    pub per_layer: Vec<(String, String)>,
}

/// A number out of the shim's value model, whatever its variant.
#[must_use]
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Uint(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing string `{key}`"))
        .to_string()
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded file is not the contract's shape — a
    /// build-time mistake, not a run-time condition.
    #[must_use]
    pub fn embedded() -> Self {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing list `{key}`"))
                .to_vec()
        };
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(as_f64).expect("bound"),
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect(),
        }
    }
}

/// A field of `/proc/self/status`, in its own unit (`VmHWM` is kB).
#[must_use]
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// A JSON object from `(key, value)` pairs, in order.
#[must_use]
pub fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(value: f64, unit: &str) -> Value {
    object(vec![
        ("value", Value::Float(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

fn summary(samples: &[f64]) -> Value {
    let s = Summary::of(samples);
    object(vec![
        ("n", Value::Uint(s.n as u64)),
        ("median", Value::Float(s.median)),
        ("min", Value::Float(s.min)),
        ("max", Value::Float(s.max)),
        ("mad", Value::Float(s.mad)),
    ])
}

/// The end-to-end values of one run, in the contract's order.
///
/// # Panics
///
/// Panics on an end-to-end metric the program does not measure.
#[must_use]
pub fn end_to_end_values(spec: &Spec, outcome: &Outcome) -> Vec<(String, f64, String)> {
    spec.end_to_end
        .iter()
        .map(|m| {
            let value = match m.name.as_str() {
                "pass_cpu_s" => crate::stats::median(&outcome.pass_cpu_s),
                "setup_s" => crate::stats::median(&outcome.setup_s),
                "peak_rss_mib" => proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0,
                other => panic!("end-to-end metric `{other}` is not measured"),
            };
            (m.name.clone(), value, m.unit.clone())
        })
        .collect()
}

/// The per-layer values of one run: every metric of the contract, 0 for
/// those this workload does not measure.
///
/// # Panics
///
/// Panics if the workload produced a metric the contract does not list.
#[must_use]
pub fn per_layer_values(spec: &Spec, outcome: &Outcome) -> Vec<(String, f64, String)> {
    for (name, _) in &outcome.layers {
        assert!(
            spec.per_layer.iter().any(|(n, _)| n == name),
            "per-layer metric `{name}` is not in BENCHMARK.json"
        );
    }
    spec.per_layer
        .iter()
        .map(|(name, unit)| {
            let value = outcome
                .layers
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            (name.clone(), value, unit.clone())
        })
        .collect()
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
#[must_use]
pub fn result_line(outcome: &Outcome, metrics: &[(String, f64, String)]) -> String {
    let doc = object(vec![
        ("correct", Value::Bool(outcome.checks.failed == 0)),
        ("attempted", Value::Uint(outcome.checks.attempted.max(1))),
        ("failed", Value::Uint(outcome.checks.failed)),
        (
            "metrics",
            Value::Object(
                metrics
                    .iter()
                    .map(|(n, v, u)| (n.clone(), metric(*v, u)))
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string(&doc).expect("values serialize")
}

/// Exact counts recorded for `(seed, workload)`, if that seed has a
/// record.
#[must_use]
pub fn recorded_exact(seed: u64, workload: &str) -> Option<Vec<(String, u64)>> {
    let doc: Value = serde_json::from_str(EXACT_JSON).expect("exact.json parses");
    let Value::Object(entries) = doc.get(&seed.to_string())?.get(workload)? else {
        return None;
    };
    Some(
        entries
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
    )
}

/// Names of the exact counts that differ from the record (or that the
/// record lacks); `None` when the seed has no record.
#[must_use]
pub fn exact_mismatches(seed: u64, workload: &str, exact: &[(&str, u64)]) -> Option<Vec<String>> {
    let recorded = recorded_exact(seed, workload)?;
    Some(
        exact
            .iter()
            .filter(|(name, value)| {
                recorded.iter().find(|(n, _)| n == name).map(|(_, v)| v) != Some(value)
            })
            .map(|(name, _)| (*name).to_string())
            .collect(),
    )
}

/// Everything about one run that the result line has no key for: what
/// was run, the dispersion of the timed samples, the exact counts and
/// how they compare with the record.
#[must_use]
pub fn detail(spec: &Spec, workload: &str, seed: u64, seconds: f64, outcome: &Outcome) -> Value {
    // Several counts grow with the number of passes, so the record only
    // speaks for the contract's run length.
    let mismatches = (seconds == spec.run_seconds)
        .then(|| exact_mismatches(seed, workload, &outcome.exact))
        .flatten();
    object(vec![
        ("workload", Value::Str(workload.to_string())),
        ("seed", Value::Uint(seed)),
        ("seconds", Value::Float(seconds)),
        ("sizes", Value::Str(outcome.sizes.clone())),
        (
            "samples",
            object(vec![
                ("pass_cpu_s", summary(&outcome.pass_cpu_s)),
                ("pass_wall_s", summary(&outcome.pass_wall_s)),
                ("setup_s", summary(&outcome.setup_s)),
            ]),
        ),
        (
            "exact",
            Value::Object(
                outcome
                    .exact
                    .iter()
                    .map(|(n, v)| ((*n).to_string(), Value::Uint(*v)))
                    .collect(),
            ),
        ),
        (
            "exact_vs_record",
            match &mismatches {
                None => Value::Str("no record for this seed and run length".to_string()),
                Some(m) if m.is_empty() => Value::Str("match".to_string()),
                Some(m) => Value::Array(m.iter().cloned().map(Value::Str).collect()),
            },
        ),
        (
            "failures",
            Value::Array(
                outcome
                    .checks
                    .notes
                    .iter()
                    .cloned()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_has_setup_and_unique_names() {
        let spec = Spec::embedded();
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let mut names: Vec<&String> = spec
            .end_to_end
            .iter()
            .map(|m| &m.name)
            .chain(spec.per_layer.iter().map(|(n, _)| n))
            .collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }

    #[test]
    fn record_covers_both_seeds_and_every_workload() {
        for seed in [42, 1337] {
            for w in crate::workloads::NAMES {
                let rec = recorded_exact(seed, w).unwrap_or_else(|| panic!("{seed}/{w}"));
                assert!(rec.iter().any(|(n, _)| n == "fib_digest"));
            }
        }
        assert!(recorded_exact(7, "mockup_mdc").is_none());
    }

    #[test]
    fn mismatch_lists_changed_and_unrecorded_counts() {
        let rec = recorded_exact(42, "mockup_mdc").unwrap();
        let (name, value) = (rec[0].0.clone(), rec[0].1);
        let leaked: &'static str = Box::leak(name.into_boxed_str());
        assert_eq!(
            exact_mismatches(42, "mockup_mdc", &[(leaked, value)]),
            Some(vec![])
        );
        assert_eq!(
            exact_mismatches(42, "mockup_mdc", &[(leaked, value + 1), ("new.count", 1)]),
            Some(vec![leaked.to_string(), "new.count".to_string()])
        );
        assert_eq!(exact_mismatches(7, "mockup_mdc", &[(leaked, value)]), None);
    }

    #[test]
    fn proc_status_reads_this_process() {
        assert!(proc_status("VmHWM").unwrap() > 0);
        assert_eq!(proc_status("NoSuchField"), None);
    }
}
