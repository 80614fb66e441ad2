//! Benchmark scaling, read once from the environment.
//!
//! The default harness runs the paper's S-DC and M-DC at full scale and
//! L-DC at 1:4 pod scale (same aggregation layers, a quarter of the
//! pods, VM fleets scaled to keep packing density identical). Setting
//! `CRYSTALNET_FULL=1` runs L-DC at full 4,600-device scale (needs ~10+
//! GB RAM and tens of minutes). `CRYSTALNET_REPS` overrides the
//! repetition count (the paper uses 10).

use crystalnet::{prepare, BoundaryMode, PlanOptions, PrepareOutput, SpeakerSource};
use crystalnet_net::{ClosParams, Topology};
use std::sync::Arc;

/// How large a run is: L-DC's pod scale and Figure 8's repetitions.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// L-DC's pod-scale factor: 1.0 with `CRYSTALNET_FULL=1`, else 0.25.
    pub l_dc: f64,
    /// Repetitions per Figure 8 configuration (paper: 10).
    pub reps: u64,
}

impl Scale {
    /// Parses the values of `CRYSTALNET_FULL` (`0` or `1`) and
    /// `CRYSTALNET_REPS` (a whole number ≥ 1); `None` is an unset variable.
    pub fn parse(full: Option<&str>, reps: Option<&str>) -> Result<Self, String> {
        let l_dc = match full {
            None | Some("0") => 0.25,
            Some("1") => 1.0,
            Some(v) => return Err(format!("CRYSTALNET_FULL={v}: expected 0 or 1")),
        };
        let reps = match reps {
            None => 10,
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or(format!("CRYSTALNET_REPS={v}: expected a whole number >= 1"))?,
        };
        Ok(Self { l_dc, reps })
    }
}

/// Prepares all of `topo` on `plan`; speakers announce only what the
/// devices they stand in for originate.
pub(crate) fn prepare_whole(topo: &Topology, plan: &PlanOptions) -> Arc<PrepareOutput> {
    let (whole, speakers) = (BoundaryMode::WholeNetwork, SpeakerSource::OriginatedOnly);
    Arc::new(prepare(topo, &[], whole, speakers, plan))
}

/// One Figure 8 configuration: a datacenter and a VM budget.
pub struct DcConfig {
    /// Clos parameters.
    pub params: ClosParams,
    /// VM fleet size.
    pub vms: u32,
}

impl DcConfig {
    /// Row label (`S-DC/5`).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}", self.params.name.to_uppercase(), self.vms)
    }

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

/// The six Figure 8 / Figure 9 configurations: S-DC, M-DC and L-DC, each
/// with two fleet sizes, the second doubled. L-DC's fleets scale with its
/// pods.
#[must_use]
pub fn figure8_configs(scale: &Scale) -> Vec<DcConfig> {
    let l_dc = ClosParams::l_dc().scaled_pods(scale.l_dc);
    let l_vms = ((500.0 * scale.l_dc).round() as u32).max(1);
    [
        (ClosParams::s_dc(), 5),
        (ClosParams::m_dc(), 50),
        (l_dc, l_vms),
    ]
    .into_iter()
    .flat_map(|(params, vms)| {
        [vms, 2 * vms].map(|vms| DcConfig {
            params: params.clone(),
            vms,
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_configs_cover_three_dcs() {
        let cfgs = figure8_configs(&Scale::parse(None, None).unwrap());
        let labels: Vec<_> = cfgs.iter().map(DcConfig::label).collect();
        let want = [
            "S-DC/5", "S-DC/10", "M-DC/50", "M-DC/100", "L-DC/125", "L-DC/250",
        ];
        assert_eq!(labels, want);
        let full = figure8_configs(&Scale::parse(Some("1"), None).unwrap());
        assert_eq!((full[4].vms, full[5].vms), (500, 1000));
    }

    #[test]
    fn scale_defaults_to_the_paper_and_rejects_bad_values() {
        let scale = |full, reps| Scale::parse(full, reps).map(|s| (s.l_dc, s.reps));
        assert_eq!(scale(None, None), Ok((0.25, 10)));
        assert_eq!(scale(Some("1"), Some("3")), Ok((1.0, 3)));
        assert_eq!(scale(Some("0"), None), Ok((0.25, 10)));
        for (full, reps) in [(Some("yes"), None), (None, Some("0")), (None, Some("abc"))] {
            assert!(scale(full, reps).is_err(), "{full:?} {reps:?}");
        }
    }
}
