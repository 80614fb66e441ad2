//! `compare <a.json> <b.json>`: two sets of `run`, judged by the
//! contract's bounds — the tool the two-set acceptance check and every
//! later performance change use.

use crate::report::{as_f64, EndToEnd, Spec};
use serde_json::Value;

/// How one metric of one workload moved from the base set to the new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The passes of one run spread wider than the bound, so the medians
    /// decide nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Applies one bound. `spread` is the wider of the two runs' spreads, as
/// a share of the median, like `metric.bound`.
#[must_use]
pub fn verdict(metric: &EndToEnd, base: f64, new: f64, spread: f64) -> Verdict {
    if spread > metric.bound {
        return Verdict::Unresolved;
    }
    let allowed = metric.bound * base.abs();
    let worse_by = if metric.lower_is_better {
        new - base
    } else {
        base - new
    };
    if worse_by > allowed {
        Verdict::Worse
    } else if -worse_by > allowed {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One workload's run inside a set file.
fn run_of<'a>(set: &'a Value, workload: &str) -> Option<&'a Value> {
    set.get("results")?.as_array()?.iter().find(|r| {
        r.get("detail")
            .and_then(|d| d.get("workload"))
            .and_then(Value::as_str)
            == Some(workload)
    })
}

fn value(run: &Value, metric: &str) -> Option<f64> {
    as_f64(
        run.get("result")?
            .get("metrics")?
            .get(metric)?
            .get("value")?,
    )
}

/// Spread of a metric between the samples of one run, as a share of
/// their median: twice their MAD, which is the quartile distance of a
/// symmetric sample. 0 for a metric read once (`peak_rss_mib`).
fn spread(run: &Value, metric: &str) -> f64 {
    let within = || {
        let s = run.get("detail")?.get("samples")?.get(metric)?;
        let (mad, med) = (as_f64(s.get("mad")?)?, as_f64(s.get("median")?)?);
        (med > 0.0).then(|| 2.0 * mad / med)
    };
    within().unwrap_or(0.0)
}

fn exact(run: &Value) -> Vec<(String, u64)> {
    let Some(Value::Object(entries)) = run.get("detail").and_then(|d| d.get("exact")) else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect()
}

/// Compares two parsed set files; returns the report and whether any
/// row is `worse` or `unresolved` or any exact count differs.
#[must_use]
pub fn compare(spec: &Spec, base: &Value, new: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    out.push_str(&format!(
        "{:<13} {:<13} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    ));
    for workload in crate::workloads::NAMES {
        let (Some(a), Some(b)) = (run_of(base, workload), run_of(new, workload)) else {
            continue;
        };
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (value(a, &metric.name), value(b, &metric.name)) else {
                continue;
            };
            let spread = spread(a, &metric.name).max(spread(b, &metric.name));
            let v = verdict(metric, va, vb, spread);
            flagged |= matches!(v, Verdict::Worse | Verdict::Unresolved);
            out.push_str(&format!(
                "{:<13} {:<13} {:>12.6} {u:<1} {:>12.6} {u:<1} {:>+8.2}% {:>7.2}% {:>6.1}%  {}\n",
                workload,
                metric.name,
                va,
                vb,
                (vb / va - 1.0) * 100.0,
                spread * 100.0,
                metric.bound * 100.0,
                v.label(),
                u = metric.unit,
            ));
        }
        let (ea, eb) = (exact(a), exact(b));
        for (name, va) in &ea {
            match eb.iter().find(|(n, _)| n == name) {
                Some((_, vb)) if vb == va => {}
                Some((_, vb)) => {
                    flagged = true;
                    out.push_str(&format!(
                        "{workload:<13} exact {name}: {va} -> {vb}  DIFFERS\n"
                    ));
                }
                None => {
                    flagged = true;
                    out.push_str(&format!("{workload:<13} exact {name}: {va} -> missing\n"));
                }
            }
        }
        out.push_str(&format!(
            "{workload:<13} exact counts compared: {}\n",
            ea.len()
        ));
    }
    (out, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, bound: f64, lower: bool) -> EndToEnd {
        EndToEnd {
            name: name.to_string(),
            unit: "s".to_string(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn bound_decides_better_same_worse() {
        let m = metric("pass_wall_s", 0.10, true);
        assert_eq!(verdict(&m, 10.0, 10.9, 0.02), Verdict::Same);
        assert_eq!(verdict(&m, 10.0, 11.1, 0.02), Verdict::Worse);
        assert_eq!(verdict(&m, 10.0, 8.9, 0.02), Verdict::Better);
        let up = metric("throughput", 0.10, false);
        assert_eq!(verdict(&up, 10.0, 8.9, 0.02), Verdict::Worse);
        assert_eq!(verdict(&up, 10.0, 11.1, 0.02), Verdict::Better);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let m = metric("pass_wall_s", 0.10, true);
        assert_eq!(verdict(&m, 10.0, 12.0, 0.11), Verdict::Unresolved);
        assert_eq!(verdict(&m, 10.0, 10.0, 0.11), Verdict::Unresolved);
    }

    fn set(pass_s: f64, mad: f64, exact: u64) -> Value {
        serde_json::from_str(&format!(
            "{{\"results\":[{{\"detail\":{{\"workload\":\"watch_sdc\",\"exact\":{{\"fib_digest\":{exact}}},\
             \"samples\":{{\"pass_cpu_s\":{{\"n\":5,\"median\":{pass_s},\"min\":{pass_s},\"max\":{pass_s},\"mad\":{mad}}}}}}},\
             \"result\":{{\"metrics\":{{\"pass_cpu_s\":{{\"value\":{pass_s},\"unit\":\"s\"}}}}}}}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn sets_compare_by_bound_spread_and_exact_counts() {
        let spec = Spec {
            run_seconds: 20.0,
            end_to_end: vec![metric("pass_cpu_s", 0.10, true)],
            per_layer: vec![],
        };
        let base = set(3.0, 0.03, 9);
        let (text, flagged) = compare(&spec, &base, &set(3.1, 0.03, 9));
        assert!(!flagged && text.contains("same"), "{text}");
        let (text, flagged) = compare(&spec, &base, &set(4.0, 0.03, 9));
        assert!(flagged && text.contains("worse"), "{text}");
        // Twice a MAD of 0.2 is 13 % of 3.0: wider than the bound.
        let (text, flagged) = compare(&spec, &base, &set(3.0, 0.2, 9));
        assert!(flagged && text.contains("unresolved"), "{text}");
        let (text, flagged) = compare(&spec, &base, &set(3.0, 0.03, 8));
        assert!(flagged && text.contains("DIFFERS"), "{text}");
    }
}
