//! Vendor behaviour profiles and injectable firmware quirks.
//!
//! CrystalNet's core argument (§2) is that production outages come from
//! *real firmware behaviour* — undocumented vendor divergence, outright
//! bugs, ambiguous format changes — which config-level simulators cannot
//! model ("there is no way to make Batfish bug compatible"). The
//! reproduction's firmware images are therefore parameterised by a
//! [`VendorProfile`]: documented divergences (aggregation AS-path
//! selection, FIB-overflow policy) plus a [`Quirks`] set reproducing the
//! §2 and §7 incident bugs. Emulating a network with the right profiles
//! makes the bugs *observable*, which is exactly the paper's pitch.

use crystalnet_net::Vendor;
use crystalnet_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// How a vendor builds the AS path of an `aggregate-address` route —
/// the Figure 1 divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateMode {
    /// Select one contributing route's path and prepend the local AS
    /// ("Vendor-A": R6's behaviour — `{6, 2, 1}`).
    SelectContributorPath,
    /// Announce the aggregate with only the local AS in the path
    /// ("Vendor-C": R7's behaviour — `{7}`), making it look shorter and
    /// attracting all of R8's traffic.
    EmptyPath,
}

/// What the firmware does when the FIB is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FibOverflow {
    /// Install fails silently; the route stays in the RIB and is
    /// re-advertised — the §2 load-balancer blackhole behaviour.
    SilentDrop,
    /// The route is rejected from the RIB too (not re-advertised), so
    /// upstreams route around the full device.
    RejectRoute,
}

/// Injectable firmware bugs (each reproduces a §2/§7 incident class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Quirks {
    /// "New router firmware erroneously stopped announcing certain IP
    /// prefixes": locally originated networks are never advertised.
    pub stop_announcing_networks: bool,
    /// The firmware parses v1 ACL configuration with v2 field order
    /// (source/destination swapped) — the undocumented format change.
    pub acl_v2_misread: bool,
    /// Case 2 CTNR-B dev bug: "failing to update the default route when
    /// routes are learned from BGP".
    pub skip_default_route_fib: bool,
    /// Case 2 CTNR-B dev bug: "failing to forward ARP packets to CPU due
    /// to incorrect trap implementation" — inbound ARP is dropped.
    pub arp_trap_broken: bool,
    /// Case 2 CTNR-B dev bug: "crashing after several BGP sessions
    /// flapped" — the OS crashes after this many session losses.
    pub crash_after_flaps: Option<u32>,
}

impl Quirks {
    /// No bugs: a released, healthy image.
    #[must_use]
    pub fn none() -> Self {
        Quirks::default()
    }

    /// The §7 Case-2 CTNR-B *development build* with all three bugs the
    /// validation pipeline caught.
    #[must_use]
    pub fn ctnr_b_dev_build() -> Self {
        Quirks {
            skip_default_route_fib: true,
            arp_trap_broken: true,
            crash_after_flaps: Some(3),
            ..Quirks::default()
        }
    }
}

/// The behaviour profile of one vendor's firmware image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VendorProfile {
    /// Which vendor this is.
    pub vendor: Vendor,
    /// Mean firmware boot time (containers boot much faster than nested
    /// VM images; §8.2 finds vendor boot speed dominates Mockup).
    pub boot_time: SimDuration,
    /// Aggregation AS-path behaviour.
    pub aggregate_mode: AggregateMode,
    /// FIB overflow policy.
    pub fib_overflow: FibOverflow,
    /// CPU cost per processed route operation.
    pub cpu_per_route_op: SimDuration,
    /// CPU cost of booting the image.
    pub cpu_boot: SimDuration,
    /// MRAI: minimum route advertisement interval (batches updates).
    pub mrai: SimDuration,
    /// Injected bugs.
    pub quirks: Quirks,
}

impl VendorProfile {
    /// CTNR-A: the large commercial vendor's container image (runs the
    /// paper's Border/Spine/Leaf layers).
    #[must_use]
    pub fn ctnr_a() -> Self {
        VendorProfile {
            vendor: Vendor::CtnrA,
            boot_time: SimDuration::from_secs(75),
            aggregate_mode: AggregateMode::SelectContributorPath,
            fib_overflow: FibOverflow::SilentDrop,
            cpu_per_route_op: SimDuration::from_micros(220),
            cpu_boot: SimDuration::from_secs(40),
            mrai: SimDuration::from_millis(400),
            quirks: Quirks::none(),
        }
    }

    /// CTNR-B: the open-source switch OS (runs ToRs). Released build.
    #[must_use]
    pub fn ctnr_b() -> Self {
        VendorProfile {
            vendor: Vendor::CtnrB,
            boot_time: SimDuration::from_secs(55),
            aggregate_mode: AggregateMode::SelectContributorPath,
            fib_overflow: FibOverflow::RejectRoute,
            cpu_per_route_op: SimDuration::from_micros(180),
            cpu_boot: SimDuration::from_secs(25),
            mrai: SimDuration::from_millis(300),
            quirks: Quirks::none(),
        }
    }

    /// CTNR-B development build under test in the §7 Case-2 pipeline.
    #[must_use]
    pub fn ctnr_b_dev() -> Self {
        VendorProfile {
            quirks: Quirks::ctnr_b_dev_build(),
            ..VendorProfile::ctnr_b()
        }
    }

    /// VM-A: a commercial vendor shipping only VM images (nested
    /// virtualization; slow boot, heavier memory).
    #[must_use]
    pub fn vm_a() -> Self {
        VendorProfile {
            vendor: Vendor::VmA,
            boot_time: SimDuration::from_secs(240),
            aggregate_mode: AggregateMode::SelectContributorPath,
            fib_overflow: FibOverflow::SilentDrop,
            cpu_per_route_op: SimDuration::from_micros(350),
            cpu_boot: SimDuration::from_secs(120),
            mrai: SimDuration::from_millis(500),
            quirks: Quirks::none(),
        }
    }

    /// VM-B: the second VM-image vendor — "Vendor-C" of Figure 1, whose
    /// aggregates carry an empty AS path.
    #[must_use]
    pub fn vm_b() -> Self {
        VendorProfile {
            vendor: Vendor::VmB,
            boot_time: SimDuration::from_secs(210),
            aggregate_mode: AggregateMode::EmptyPath,
            fib_overflow: FibOverflow::SilentDrop,
            cpu_per_route_op: SimDuration::from_micros(300),
            cpu_boot: SimDuration::from_secs(100),
            mrai: SimDuration::from_millis(500),
            quirks: Quirks::none(),
        }
    }

    /// The released profile for a vendor enum value.
    #[must_use]
    pub fn for_vendor(vendor: Vendor) -> Self {
        match vendor {
            Vendor::CtnrA => VendorProfile::ctnr_a(),
            Vendor::CtnrB => VendorProfile::ctnr_b(),
            Vendor::VmA => VendorProfile::vm_a(),
            Vendor::VmB => VendorProfile::vm_b(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_match_vendors() {
        for v in Vendor::ALL {
            assert_eq!(VendorProfile::for_vendor(v).vendor, v);
        }
    }

    #[test]
    fn vm_images_boot_slower_than_containers() {
        assert!(VendorProfile::vm_a().boot_time > VendorProfile::ctnr_a().boot_time);
        assert!(VendorProfile::vm_b().boot_time > VendorProfile::ctnr_b().boot_time);
    }

    #[test]
    fn fig1_divergence_is_encoded() {
        assert_eq!(
            VendorProfile::ctnr_a().aggregate_mode,
            AggregateMode::SelectContributorPath
        );
        assert_eq!(
            VendorProfile::vm_b().aggregate_mode,
            AggregateMode::EmptyPath
        );
    }

    #[test]
    fn dev_build_is_buggy_release_is_not() {
        assert_eq!(VendorProfile::ctnr_b().quirks, Quirks::none());
        let dev = VendorProfile::ctnr_b_dev().quirks;
        assert!(dev.skip_default_route_fib);
        assert!(dev.arp_trap_broken);
        assert_eq!(dev.crash_after_flaps, Some(3));
        assert!(!dev.stop_announcing_networks);
    }
}
