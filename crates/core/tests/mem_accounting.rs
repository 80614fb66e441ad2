//! The memory section adds up: the bytes the device OSes
//! ([`DeviceOs::mem`](crystalnet_routing::DeviceOs::mem)) and the two
//! interners report for a converged S-DC cover at least 85 % of the
//! resident memory its mockup adds to the process. This binary holds one
//! test, so nothing else allocates while it measures.

use crystalnet::{mockup, prepare, BoundaryMode, MockupOptions, PlanOptions, SpeakerSource};
use crystalnet_net::ClosParams;
use crystalnet_routing::{PathAttrs, Provenance};
use std::sync::Arc;

/// The process's resident set (`VmRSS` in `/proc/self/status`), in bytes.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("status has a VmRSS line in kB");
    kib * 1024
}

fn interned_bytes() -> u64 {
    PathAttrs::interned_bytes() + Provenance::interned_bytes()
}

#[test]
fn attributed_bytes_cover_the_rss_a_converged_s_dc_adds() {
    let dc = ClosParams::s_dc().build();
    let prep = Arc::new(prepare(
        &dc.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    ));
    let (rss, interned) = (rss_bytes(), interned_bytes());
    let emu = mockup(
        prep,
        MockupOptions::builder().seed(42).telemetry(false).build(),
    );
    let added = rss_bytes() - rss;
    let devices: u64 = emu
        .sandboxes
        .keys()
        .filter_map(|&dev| emu.sim.os(dev))
        .map(|os| os.mem().total())
        .sum();
    let attributed = devices + interned_bytes() - interned;
    assert!(
        attributed * 100 >= added * 85,
        "the devices ({devices} B) and the interners ({} B) explain {attributed} B \
         of the {added} B the mockup added to the resident set",
        attributed - devices
    );
}
