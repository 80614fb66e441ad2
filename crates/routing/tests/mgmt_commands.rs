//! Management commands against one `BgpRouterOs`: a command the device
//! rejects leaves its running state as it was, and re-enabling a
//! neighbour restarts only a session that is not up.

mod common;

use common::{boot, config, handle, open, peer_addr, PeerSpec};
use crystalnet_config::{Acl, AclEntry, Action};
use crystalnet_net::Ipv4Addr;
use crystalnet_routing::{BgpMsg, Frame, MgmtCommand, MgmtResponse, OsEvent, VendorProfile};
use crystalnet_sim::EventId;

fn acl(action: Action) -> Acl {
    let any = "0.0.0.0/0".parse().unwrap();
    Acl {
        entries: vec![AclEntry {
            seq: 10,
            action,
            src: any,
            dst: any,
        }],
    }
}

fn apply_acl_in(iface: &str, acl_name: &str, acl: Acl) -> OsEvent {
    OsEvent::Mgmt(MgmtCommand::ApplyAclIn {
        iface: iface.into(),
        acl_name: acl_name.into(),
        acl,
    })
}

/// `ApplyAclIn` toward an interface the device lacks answers `Error`,
/// and must not replace the body of an ACL that already filters another
/// interface under the same name.
#[test]
fn a_rejected_acl_command_leaves_the_bound_acl_alone() {
    let peers: Vec<PeerSpec> = (0..2).map(PeerSpec::plain).collect();
    let mut cfg = config(&peers, 1);
    cfg.acls.insert("X".into(), acl(Action::Permit));
    cfg.interfaces[0].acl_in = Some("X".into());
    let mut os = boot(VendorProfile::ctnr_a(), cfg);
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    assert!(os.acl_permits(0, src, dst));

    let rejected = handle(
        &mut os,
        EventId::ZERO,
        apply_acl_in("et99", "X", acl(Action::Deny)),
    );
    assert!(
        matches!(rejected.response, Some(MgmtResponse::Error(_))),
        "{:?}",
        rejected.response
    );
    assert!(
        os.acl_permits(0, src, dst),
        "a rejected command changed et0's filter"
    );

    // The same command toward a real interface does take effect.
    let accepted = handle(
        &mut os,
        EventId::ZERO,
        apply_acl_in("et1", "X", acl(Action::Deny)),
    );
    assert!(matches!(accepted.response, Some(MgmtResponse::Ok)));
    assert!(!os.acl_permits(0, src, dst));
    assert!(!os.acl_permits(1, src, dst));
}

/// `NeighborEnable` on a neighbour that is not shut down: an established
/// session is left alone, and one stuck short of Established (its Open
/// was lost) is sent a fresh Open, the operator's way to restart it.
#[test]
fn neighbor_enable_re_opens_only_a_session_that_is_not_up() {
    let peers: Vec<PeerSpec> = (0..2).map(PeerSpec::plain).collect();
    let mut os = boot(VendorProfile::ctnr_a(), config(&peers, 1));
    open(&mut os, EventId::ZERO, 1, peers[1].remote_as);
    assert_eq!(os.established_peers(), vec![peer_addr(1)]);
    let enable = |i: usize| OsEvent::Mgmt(MgmtCommand::NeighborEnable(peer_addr(i)));

    let stuck = handle(&mut os, EventId::ZERO, enable(0));
    assert_eq!(stuck.response, Some(MgmtResponse::Ok));
    assert!(
        matches!(stuck.out[..], [(0, Frame::Bgp(BgpMsg::Open { .. }))]),
        "the session in OpenSent must be re-opened: {:?}",
        stuck.out
    );

    let up = handle(&mut os, EventId::ZERO, enable(1));
    assert_eq!(up.response, Some(MgmtResponse::Ok));
    assert!(up.out.is_empty(), "the established session was restarted");
    assert_eq!(os.established_peers(), vec![peer_addr(1)]);
}
