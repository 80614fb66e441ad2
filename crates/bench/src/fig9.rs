//! Figure 9: 95th-percentile VM CPU utilization over time during Mockup,
//! per datacenter scale and fleet size.

use crate::config::{figure8_configs, Scale};
use crate::fig8::run_once;
use crate::{claim, Claim, PaperResult};

/// One CPU-utilization series.
pub struct Fig9Series {
    /// Configuration label.
    pub label: String,
    /// Bucket width in seconds.
    pub bucket_secs: f64,
    /// p95 utilization per bucket (0..=1).
    pub p95: Vec<f64>,
}

impl Fig9Series {
    /// The peak utilization.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.p95.iter().copied().fold(0.0, f64::max)
    }

    /// Minutes until utilization first drops below `level` after its peak.
    #[must_use]
    pub fn quiesce_minute(&self, level: f64) -> Option<f64> {
        // The last bucket at the peak: a plateau quiesces after its end.
        let peak = self.peak();
        let peak_idx = self.p95.iter().rposition(|&u| u == peak)?;
        self.p95[peak_idx..]
            .iter()
            .position(|&u| u < level)
            .map(|off| (peak_idx + off) as f64 * self.bucket_secs / 60.0)
    }
}

/// Figure 9: an ASCII rendering of each configuration's series plus a
/// CSV block, and the paper's two-phase shape checked on every series.
pub fn fig9(scale: &Scale) -> PaperResult {
    let series: Vec<_> = figure8_configs(scale)
        .iter()
        .map(|cfg| {
            eprintln!("fig9: running {}...", cfg.label());
            let emu = run_once(cfg, 1);
            Fig9Series {
                label: cfg.label(),
                bucket_secs: emu.cpu_bucket().as_secs_f64(),
                p95: emu.cpu_p95_series(),
            }
        })
        .collect();
    let mut text = String::new();
    out!(
        text,
        "\n=== Figure 9: p95 VM CPU utilization during Mockup ==="
    );
    let mut csv = String::from("\ncsv,label,minute,p95_util\n");
    for s in &series {
        let (label, peak) = (&s.label, s.peak() * 100.0);
        let quiet = s.quiesce_minute(0.2).unwrap_or(f64::NAN);
        out!(
            text,
            "\n{label} (bucket {}s, peak {peak:.0}%, quiesces below 20% at ~{quiet:.1} min):",
            s.bucket_secs
        );
        // One bar per bucket, 50 columns max.
        for (i, u) in s.p95.iter().enumerate() {
            let t_min = i as f64 * s.bucket_secs / 60.0;
            let bar = "#".repeat((u * 50.0).round() as usize);
            out!(text, "  {t_min:>5.1}min |{bar:<50}| {:>3.0}%", u * 100.0);
            out!(csv, "csv,{label},{t_min:.2},{u:.4}");
        }
    }
    text += &csv;
    PaperResult::new(text, "Figure 9", claims(&series))
}

/// The paper's Figure 9 shape, per series: CPU is busy during bring-up
/// (p95 peaks at ≥ 50%) and near idle once routes converge (below 20%).
#[must_use]
pub fn claims(series: &[Fig9Series]) -> Vec<Claim> {
    let paper = "p95 CPU peaks ≥ 50%, then falls below 20%";
    let shape = |s: &Fig9Series| s.peak() >= 0.5 && s.quiesce_minute(0.2).is_some();
    series
        .iter()
        .map(|s| claim(paper, &s.label, shape(s)))
        .collect()
}
