//! The CTNR-B ASIC table (§6.2), seen through `fib()`: a released image
//! forwards from its kernel FIB, and the Case-2 development build's ASIC
//! table differs from it only where the quirk says, at the default route.

mod common;

use common::{config, deliver, established, PeerSpec};
use crystalnet_dataplane::FibEntry;
use crystalnet_net::{Asn, Ipv4Prefix};
use crystalnet_routing::attrs::PathAttrs;
use crystalnet_routing::{BgpMsg, BgpRouterOs, DeviceOs, OriginKind, Provenance, VendorProfile};
use crystalnet_sim::EventId;
use std::collections::BTreeMap;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().expect("prefix literal")
}

/// The FIB without its default route, in prefix order.
fn off_default(os: &BgpRouterOs) -> BTreeMap<Ipv4Prefix, FibEntry> {
    os.fib()
        .iter()
        .filter(|(prefix, _)| !prefix.is_default())
        .map(|(prefix, entry)| (prefix, entry.clone()))
        .collect()
}

#[test]
fn released_and_dev_builds_differ_only_at_the_default_route() {
    let peers: Vec<PeerSpec> = (0..2).map(PeerSpec::plain).collect();
    let cfg = config(&peers, 4);
    let mut released = established(VendorProfile::ctnr_b(), cfg.clone(), &peers);
    let mut dev = established(VendorProfile::ctnr_b_dev(), cfg, &peers);

    let update = |i: usize, t: u64, announced: &[&str], withdrawn: &[&str]| {
        let attrs = PathAttrs {
            as_path: vec![peers[i].remote_as, Asn(64_700)],
            ..PathAttrs::originated(common::peer_addr(i))
        }
        .intern();
        let prov = Provenance::originated(OriginKind::Speaker, common::peer_addr(i), EventId::ZERO);
        let msg = BgpMsg::Update {
            announced: announced.iter().map(|s| (p(s), attrs, prov)).collect(),
            withdrawn: withdrawn.iter().map(|s| p(s)).collect(),
        };
        (i, EventId { time_ns: t, key: t }, msg)
    };
    let steps = [
        update(0, 1, &["0.0.0.0/0", "10.1.0.0/24", "10.2.0.0/24"], &[]),
        update(1, 2, &["0.0.0.0/0", "10.2.0.0/24", "10.3.0.0/24"], &[]),
        update(0, 3, &[], &["0.0.0.0/0", "10.1.0.0/24"]),
        update(1, 4, &["10.4.0.0/24"], &["0.0.0.0/0"]),
        update(0, 5, &["0.0.0.0/0"], &["10.2.0.0/24"]),
    ];
    for (i, id, msg) in steps {
        deliver(&mut released, id, i, msg.clone());
        deliver(&mut dev, id, i, msg);
        assert_eq!(off_default(&released), off_default(&dev), "at {id:?}");
        assert!(!off_default(&released).is_empty());
        let in_rib = |os: &BgpRouterOs| os.loc_rib().iter().any(|(q, ..)| q.is_default());
        assert_eq!(in_rib(&released), in_rib(&dev));
        // The released image forwards what its RIB holds; the dev build's
        // ASIC never hears of the default route.
        assert_eq!(
            released.fib().get(Ipv4Prefix::DEFAULT).is_some(),
            in_rib(&released)
        );
        assert!(dev.fib().get(Ipv4Prefix::DEFAULT).is_none());
    }
    assert!(released.fib().get(Ipv4Prefix::DEFAULT).is_some());
}
