//! The BGP decision process, arm by arm: crafted UPDATEs into one
//! `BgpRouterOs`, then `(best peer, ECMP set, DecisionReason)` read back
//! through `route_detail()` and `fib()`.

mod common;

use common::{config, deliver, established, peer_addr, PeerSpec};
use crystalnet_net::{Asn, Ipv4Prefix};
use crystalnet_routing::attrs::{Origin, PathAttrs};
use crystalnet_routing::{BgpMsg, DecisionReason, DeviceOs, OriginKind, Provenance, VendorProfile};
use crystalnet_sim::EventId;

/// What one peer announces for the prefix under test.
#[derive(Debug, Clone, Copy)]
struct Cand {
    peer: usize,
    local_pref: u32,
    path_len: usize,
    origin: Origin,
    med: u32,
}

/// A candidate every other one is measured against.
const fn cand(peer: usize) -> Cand {
    Cand {
        peer,
        local_pref: 100,
        path_len: 2,
        origin: Origin::Igp,
        med: 0,
    }
}

/// Forty candidates on 48 sessions, every sixth peer silent: more than
/// the standard library's small-sort cut-off of 20, all attribute-equal.
const WIDE: [Cand; 40] = {
    let mut cands = [cand(0); 40];
    let (mut i, mut peer) = (0, 0);
    while i < cands.len() {
        if peer % 6 != 5 {
            cands[i] = cand(peer);
            i += 1;
        }
        peer += 1;
    }
    cands
};

struct Case {
    name: &'static str,
    /// Configured (and established) sessions, peers `0..sessions`.
    sessions: usize,
    max_paths: u32,
    cands: &'static [Cand],
    best: usize,
    ecmp: &'static [usize],
    reason: DecisionReason,
}

const CASES: &[Case] = &[
    Case {
        name: "a lone candidate",
        sessions: 4,
        max_paths: 4,
        cands: &[cand(2)],
        best: 2,
        ecmp: &[2],
        reason: DecisionReason::OnlyCandidate,
    },
    Case {
        name: "local-pref beats a shorter path",
        sessions: 4,
        max_paths: 4,
        cands: &[
            Cand {
                path_len: 1,
                ..cand(0)
            },
            Cand {
                local_pref: 200,
                ..cand(1)
            },
        ],
        best: 1,
        ecmp: &[1],
        reason: DecisionReason::HigherLocalPref,
    },
    Case {
        name: "a shorter path beats a lower origin code",
        sessions: 4,
        max_paths: 4,
        cands: &[
            Cand {
                path_len: 1,
                origin: Origin::Incomplete,
                ..cand(0)
            },
            cand(1),
        ],
        best: 0,
        ecmp: &[0],
        reason: DecisionReason::ShorterAsPath,
    },
    Case {
        name: "a lower origin code beats a lower MED",
        sessions: 4,
        max_paths: 4,
        cands: &[
            Cand {
                origin: Origin::Egp,
                ..cand(0)
            },
            Cand { med: 9, ..cand(1) },
        ],
        best: 1,
        ecmp: &[1],
        reason: DecisionReason::LowerOriginCode,
    },
    Case {
        name: "a lower MED, all else equal",
        sessions: 4,
        max_paths: 4,
        cands: &[Cand { med: 10, ..cand(0) }, Cand { med: 5, ..cand(1) }],
        best: 1,
        ecmp: &[1],
        reason: DecisionReason::LowerMed,
    },
    Case {
        name: "the reason is the step that beat the *best* loser",
        sessions: 4,
        max_paths: 4,
        cands: &[
            Cand {
                path_len: 3,
                ..cand(0)
            },
            cand(1),
            Cand { med: 1, ..cand(2) },
        ],
        best: 1,
        ecmp: &[1],
        reason: DecisionReason::LowerMed,
    },
    Case {
        name: "ECMP below the limit with a loser keeps the loser's reason",
        sessions: 4,
        max_paths: 4,
        cands: &[
            cand(0),
            Cand {
                path_len: 3,
                ..cand(1)
            },
            cand(3),
        ],
        best: 3,
        ecmp: &[0, 3],
        reason: DecisionReason::ShorterAsPath,
    },
    Case {
        name: "ECMP exactly at the limit is no contest",
        sessions: 4,
        max_paths: 2,
        cands: &[cand(1), cand(2)],
        best: 2,
        ecmp: &[1, 2],
        reason: DecisionReason::OnlyCandidate,
    },
    Case {
        name: "more equal candidates than max_paths: the peer address decides",
        sessions: 4,
        max_paths: 2,
        cands: &[cand(0), cand(1), cand(2), cand(3)],
        best: 3,
        ecmp: &[2, 3],
        reason: DecisionReason::LowerPeerAddr,
    },
    Case {
        name: "max_paths 1 among equals",
        sessions: 4,
        max_paths: 1,
        cands: &[cand(0), cand(1)],
        best: 1,
        ecmp: &[1],
        reason: DecisionReason::LowerPeerAddr,
    },
    Case {
        name: "forty-way tie over 48 sessions: the 32 lowest addresses",
        sessions: 48,
        max_paths: 32,
        cands: &WIDE,
        best: 46,
        // Addresses fall as the index rises: the eight highest-addressed
        // candidates (0–4, 6–8) fall off the limit.
        ecmp: &[
            9, 10, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 24, 25, 26, 27, 28, 30, 31, 32, 33, 34,
            36, 37, 38, 39, 40, 42, 43, 44, 45, 46,
        ],
        reason: DecisionReason::LowerPeerAddr,
    },
];

#[test]
fn every_decision_arm_picks_the_documented_winner() {
    let prefix: Ipv4Prefix = "10.9.0.0/24".parse().unwrap();
    for case in CASES {
        let peers: Vec<PeerSpec> = (0..case.sessions).map(PeerSpec::plain).collect();
        let mut os = established(
            VendorProfile::ctnr_a(),
            config(&peers, case.max_paths),
            &peers,
        );
        // The winner announces last: a decision that leaves best path and
        // ECMP set as they were keeps the entry, and its reason, untouched.
        let (winner, losers): (Vec<&Cand>, Vec<&Cand>) =
            case.cands.iter().partition(|c| c.peer == case.best);
        for c in losers.into_iter().chain(winner) {
            // The next hop names the announcing peer, so the winner can be
            // read back from the installed attributes.
            let attrs = PathAttrs {
                as_path: (0..c.path_len).map(|h| Asn(64600 + h as u32)).collect(),
                local_pref: c.local_pref,
                origin: c.origin,
                med: c.med,
                ..PathAttrs::originated(peer_addr(c.peer))
            };
            let prov =
                Provenance::originated(OriginKind::Speaker, peer_addr(c.peer), EventId::ZERO);
            let update = BgpMsg::Update {
                announced: vec![(prefix, attrs.intern(), prov)],
                withdrawn: vec![],
            };
            deliver(&mut os, EventId::ZERO, c.peer, update);
        }
        let detail = os
            .route_detail(prefix)
            .unwrap_or_else(|| panic!("{}: no route", case.name));
        assert_eq!(
            detail.attrs.next_hop,
            peer_addr(case.best),
            "{}: best peer",
            case.name
        );
        assert_eq!(detail.prov.origin_router, peer_addr(case.best));
        assert_eq!(detail.reason, case.reason, "{}: reason", case.name);
        let mut want: Vec<_> = case
            .ecmp
            .iter()
            .map(|&i| (i as u32, peer_addr(i)))
            .collect();
        want.sort_unstable();
        let installed = os.fib().get(prefix).expect("installed");
        let got: Vec<_> = installed
            .next_hops
            .iter()
            .map(|nh| (nh.iface, nh.via))
            .collect();
        assert_eq!(got, want, "{}: ECMP set", case.name);
    }
}
