//! Benchmark scaling knobs (environment-driven).
//!
//! The default harness runs the paper's S-DC and M-DC at full scale and
//! L-DC at 1:4 pod scale (same aggregation layers, a quarter of the
//! pods, VM fleets scaled to keep packing density identical). Setting
//! `CRYSTALNET_FULL=1` runs L-DC at full 4,600-device scale (needs ~10+
//! GB RAM and tens of minutes). `CRYSTALNET_REPS` overrides the
//! repetition count (the paper uses 10).

use crystalnet::PlanOptions;
use crystalnet_net::ClosParams;

/// Whether full-scale L-DC runs are requested.
#[must_use]
pub fn full_scale() -> bool {
    std::env::var("CRYSTALNET_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Repetitions per configuration (paper: 10).
#[must_use]
pub fn reps() -> u64 {
    std::env::var("CRYSTALNET_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

/// One Figure 8 configuration: a datacenter and a VM budget.
#[derive(Clone)]
pub struct DcConfig {
    /// Row label (`S-DC/5`).
    pub label: String,
    /// Clos parameters.
    pub params: ClosParams,
    /// VM fleet size.
    pub vms: u32,
    /// The pod-scale factor applied (1.0 = paper scale).
    pub scale: f64,
}

impl DcConfig {
    /// Planner options matching the paper's packing density for this VM
    /// budget.
    #[must_use]
    pub fn plan_options(&self) -> PlanOptions {
        PlanOptions {
            // The paper packs ~10-25 devices per 4-core VM depending on
            // the run; the caps below let the target fleet size dominate.
            max_devices_per_vm: 40,
            max_ifaces_per_vm: 4_000,
            max_speakers_per_vm: 50,
            vendor_grouping: true,
            target_vms: Some(self.vms),
        }
    }
}

/// The six Figure 8 / Figure 9 configurations.
#[must_use]
pub fn figure8_configs() -> Vec<DcConfig> {
    let l_scale = if full_scale() { 1.0 } else { 0.25 };
    let scale_vms = |v: u32| ((v as f64 * l_scale).round() as u32).max(1);
    vec![
        DcConfig {
            label: "S-DC/5".into(),
            params: ClosParams::s_dc(),
            vms: 5,
            scale: 1.0,
        },
        DcConfig {
            label: "S-DC/10".into(),
            params: ClosParams::s_dc(),
            vms: 10,
            scale: 1.0,
        },
        DcConfig {
            label: "M-DC/50".into(),
            params: ClosParams::m_dc(),
            vms: 50,
            scale: 1.0,
        },
        DcConfig {
            label: "M-DC/100".into(),
            params: ClosParams::m_dc(),
            vms: 100,
            scale: 1.0,
        },
        DcConfig {
            label: format!("L-DC/{}", scale_vms(500)),
            params: ClosParams::l_dc().scaled_pods(l_scale),
            vms: scale_vms(500),
            scale: l_scale,
        },
        DcConfig {
            label: format!("L-DC/{}", scale_vms(1000)),
            params: ClosParams::l_dc().scaled_pods(l_scale),
            vms: scale_vms(1000),
            scale: l_scale,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_configs_cover_three_dcs() {
        let cfgs = figure8_configs();
        assert_eq!(cfgs.len(), 6);
        assert!(cfgs[0].label.starts_with("S-DC"));
        assert!(cfgs[2].label.starts_with("M-DC"));
        assert!(cfgs[4].label.starts_with("L-DC"));
        // Each DC appears with two fleet sizes, the second doubled.
        assert_eq!(cfgs[1].vms, cfgs[0].vms * 2);
        assert_eq!(cfgs[3].vms, cfgs[2].vms * 2);
        assert_eq!(cfgs[5].vms, cfgs[4].vms * 2);
    }

    #[test]
    fn default_reps_match_paper() {
        if std::env::var("CRYSTALNET_REPS").is_err() {
            assert_eq!(reps(), 10);
        }
    }
}
