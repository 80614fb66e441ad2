//! The `Prepare` phase (§3.3, §6.1).
//!
//! `Prepare` gathers everything `Mockup` needs: it takes the operator's
//! must-have device list, computes a safe boundary, pulls topology,
//! configurations (injecting unified SSH credentials) and boundary route
//! snapshots, and plans the VM fleet.

use crate::plan::{plan_vms, sandbox_kind, PlanOptions, VmPlan};
use crystalnet_boundary::{synthesize_speakers, Classification, SpeakerPlan};
use crystalnet_config::{generate_device, DeviceConfig};
use crystalnet_net::{DeviceId, Role, Topology};
use crystalnet_routing::{ControlPlaneSim, PathAttrs, SpeakerScript};
use crystalnet_vnet::ContainerKind;
use std::collections::BTreeSet;
use std::sync::Arc;

/// How the emulated set is chosen.
pub enum BoundaryMode {
    /// Emulate every in-domain device; external peers become speakers
    /// (how the §8.2 whole-datacenter runs work).
    WholeNetwork,
    /// Run Algorithm 1 upward from the must-have devices (§5.2).
    SafeDcBoundary,
    /// An operator-supplied emulated set (validated elsewhere).
    Explicit(BTreeSet<DeviceId>),
}

/// Where speaker announcements come from.
pub enum SpeakerSource<'a> {
    /// Speakers announce the replaced device's own originated prefixes —
    /// exact when the replaced device is a stub (WAN peers at the
    /// datacenter edge).
    OriginatedOnly,
    /// Replay each boundary device's Adj-RIB-In recorded from a converged
    /// production emulation (the general case, §5.1).
    Snapshot(&'a ControlPlaneSim),
}

/// Everything `Mockup` consumes.
pub struct PrepareOutput {
    /// The production topology snapshot. Nothing mutates it after
    /// `Prepare`, so every mockup and fork of this artifact holds this
    /// one copy.
    pub topo: Arc<Topology>,
    /// Devices that will run real firmware.
    pub emulated: BTreeSet<DeviceId>,
    /// The operator's original must-have list.
    pub must_have: Vec<DeviceId>,
    /// Per-device configurations (credentials injected).
    pub configs: Vec<(DeviceId, DeviceConfig)>,
    /// Speaker programs.
    pub speaker_plan: SpeakerPlan,
    /// The VM fleet plan.
    pub vm_plan: VmPlan,
}

impl PrepareOutput {
    /// Speaker device ids in the plan.
    #[must_use]
    pub fn speakers(&self) -> Vec<DeviceId> {
        self.speaker_plan.scripts.iter().map(|(d, _)| *d).collect()
    }

    /// The prepared configuration of `dev`; `None` for speakers and
    /// devices outside the emulation.
    #[must_use]
    pub fn config(&self, dev: DeviceId) -> Option<&DeviceConfig> {
        self.configs.iter().find(|(d, _)| *d == dev).map(|(_, c)| c)
    }

    /// The per-interface scripts of speaker `dev`; `None` if `dev` is
    /// not a planned speaker.
    #[must_use]
    pub fn speaker_scripts(&self, dev: DeviceId) -> Option<&[(u32, SpeakerScript)]> {
        let (_, scripts) = self.speaker_plan.scripts.iter().find(|(d, _)| *d == dev)?;
        Some(scripts)
    }

    /// The container kind `dev`'s sandbox runs as: the speaker agent for
    /// a planned speaker, the vendor's image otherwise.
    pub(crate) fn container_kind(&self, dev: DeviceId) -> ContainerKind {
        if self.speaker_scripts(dev).is_some() {
            ContainerKind::Speaker
        } else {
            sandbox_kind(self.topo.device(dev).vendor)
        }
    }
}

/// Runs `Prepare`: boundary selection, config generation, speaker
/// synthesis, VM planning.
#[must_use]
pub fn prepare(
    topo: &Topology,
    must_have: &[DeviceId],
    boundary: BoundaryMode,
    speaker_source: SpeakerSource<'_>,
    plan_opts: &PlanOptions,
) -> PrepareOutput {
    let emulated: BTreeSet<DeviceId> = match boundary {
        BoundaryMode::WholeNetwork => topo
            .devices()
            .filter(|(_, d)| d.role != Role::External)
            .map(|(id, _)| id)
            .collect(),
        BoundaryMode::SafeDcBoundary => crystalnet_boundary::find_safe_dc_boundary(topo, must_have),
        BoundaryMode::Explicit(set) => set,
    };
    let class = Classification::new(topo, &emulated);

    let configs: Vec<(DeviceId, DeviceConfig)> = emulated
        .iter()
        .map(|&id| (id, generate_device(topo, id)))
        .collect();

    let speaker_plan = match speaker_source {
        SpeakerSource::Snapshot(sim) => synthesize_speakers(topo, &class, sim),
        SpeakerSource::OriginatedOnly => originated_speakers(topo, &class),
    };

    let emulated_vec: Vec<DeviceId> = emulated.iter().copied().collect();
    let speakers: Vec<DeviceId> = speaker_plan.scripts.iter().map(|(d, _)| *d).collect();
    let vm_plan = plan_vms(topo, &emulated_vec, &speakers, plan_opts);

    PrepareOutput {
        topo: Arc::new(topo.clone()),
        emulated,
        must_have: must_have.to_vec(),
        configs,
        speaker_plan,
        vm_plan,
    }
}

/// Builds speaker scripts announcing each replaced device's own
/// originated prefixes (path = just its AS).
fn originated_speakers(topo: &Topology, class: &Classification) -> SpeakerPlan {
    let mut plan = SpeakerPlan::default();
    let emulated = class.emulated();
    for speaker in class.speakers() {
        let dev = topo.device(speaker);
        let routes: Vec<_> = dev
            .originated
            .iter()
            .map(|&p| {
                (
                    p,
                    PathAttrs {
                        as_path: vec![dev.asn],
                        ..PathAttrs::originated(dev.loopback)
                    }
                    .intern(),
                )
            })
            .collect();
        let mut per_iface = Vec::new();
        for (_, local, remote) in topo.neighbors(speaker) {
            if emulated.binary_search(&remote.device).is_ok() {
                per_iface.push((
                    local.iface,
                    SpeakerScript {
                        routes: routes.clone(),
                    },
                ));
            }
        }
        plan.scripts.push((speaker, per_iface));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crystalnet_net::ClosParams;

    #[test]
    fn whole_network_prepare_covers_the_dc() {
        let dc = ClosParams::s_dc().build();
        let prep = prepare(
            &dc.topo,
            &[],
            BoundaryMode::WholeNetwork,
            SpeakerSource::OriginatedOnly,
            &PlanOptions::default(),
        );
        assert_eq!(prep.emulated.len(), dc.internal_device_count());
        assert_eq!(prep.configs.len(), prep.emulated.len());
        // External peers become speakers, announcing default + internet
        // prefixes + loopback.
        assert_eq!(prep.speakers().len(), dc.externals.len());
        assert_eq!(
            prep.speaker_plan.route_count(),
            dc.externals.len() * 10 // loopback + default + 8 internet
        );
        assert!(prep.vm_plan.vm_count() > 0);
        // Credentials are injected everywhere (§6.1).
        assert!(prep.configs.iter().all(|(_, c)| c.credentials.is_some()));
    }

    #[test]
    fn safe_dc_boundary_prepare_shrinks_the_emulation() {
        let dc = ClosParams::s_dc().build();
        let whole = prepare(
            &dc.topo,
            &[],
            BoundaryMode::WholeNetwork,
            SpeakerSource::OriginatedOnly,
            &PlanOptions::default(),
        );
        let must = vec![dc.pods[0].tors[0]];
        let pod = prepare(
            &dc.topo,
            &must,
            BoundaryMode::SafeDcBoundary,
            SpeakerSource::OriginatedOnly,
            &PlanOptions::default(),
        );
        assert!(pod.emulated.len() < whole.emulated.len() / 2);
        assert!(pod.vm_plan.vm_count() < whole.vm_plan.vm_count());
        assert!(pod.emulated.contains(&must[0]));
    }

    #[test]
    fn explicit_boundary_is_respected() {
        let dc = ClosParams::s_dc().build();
        let set: BTreeSet<DeviceId> = [dc.borders[0], dc.borders[1]].into_iter().collect();
        let prep = prepare(
            &dc.topo,
            &[dc.borders[0]],
            BoundaryMode::Explicit(set.clone()),
            SpeakerSource::OriginatedOnly,
            &PlanOptions::default(),
        );
        assert_eq!(prep.emulated, set);
        // Speakers = spines + external peers adjacent to the borders.
        assert!(!prep.speakers().is_empty());
    }
}
