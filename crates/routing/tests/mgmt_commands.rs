//! Management commands against one `BgpRouterOs`: a command the device
//! rejects leaves its running state as it was.

mod common;

use common::{boot, config, handle, PeerSpec};
use crystalnet_config::{Acl, AclEntry, Action};
use crystalnet_net::Ipv4Addr;
use crystalnet_routing::{MgmtCommand, MgmtResponse, OsEvent, VendorProfile};
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
