//! The export fan-out against its oracle.
//!
//! `BgpRouterOs` builds a route's export once per prefix and event and
//! then only *filters* per peer. [`Reference::export_for`] is the per-peer
//! computation that design replaced, kept here in full; the property
//! drives a router through every path that exports — full table to a new
//! session, an UPDATE's fan-out, a late session, an outbound-policy soft
//! refresh — and requires each peer's Adj-RIB-Out, as the flushed UPDATEs
//! build it, to equal what the reference computes peer by peer.

mod common;

use common::{
    boot, config, deliver, established, flush, handle, open, peer_addr, PeerSpec, LOCAL_AS,
    LOOPBACK,
};
use crystalnet_config::{
    Action, AggregateConfig, DeviceConfig, RouteMap, RouteMapEntry, RouteMatch, RouteSet,
};
use crystalnet_net::{Asn, Ipv4Prefix};
use crystalnet_routing::attrs::{intern_stats, PathAttrs};
use crystalnet_routing::{
    BgpMsg, BgpRouterOs, DecisionReason, DeviceOs, MgmtCommand, OriginKind, OsEvent, Provenance,
    Quirks, VendorProfile,
};
use crystalnet_sim::EventId;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The interner's counters are process-wide and the harness runs a
/// binary's tests on parallel threads: both tests hold this while they
/// drive a router, so the counting one sees only its own interning.
static ROUTER_AT_WORK: Mutex<()> = Mutex::new(());

type RibAttrs = (Arc<PathAttrs>, Arc<Provenance>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Local,
    Aggregate,
    Peer(usize),
}

/// The pre-fan-out `BgpRouterOs::apply_route_map`.
fn reference_route_map<'a>(
    cfg: &DeviceConfig,
    map: &RouteMap,
    prefix: Ipv4Prefix,
    attrs: &'a PathAttrs,
) -> Option<Cow<'a, PathAttrs>> {
    for entry in &map.entries {
        let matched = entry.matches.iter().all(|m| match m {
            RouteMatch::PrefixList(name) => cfg
                .prefix_lists
                .get(name)
                .is_some_and(|pl| pl.permits(prefix)),
            RouteMatch::AsPathContains(asn) => attrs.contains_as(*asn),
            RouteMatch::Community(c) => attrs.communities.contains(c),
        });
        if !matched {
            continue;
        }
        if entry.action == Action::Deny {
            return None;
        }
        if entry.sets.is_empty() {
            return Some(Cow::Borrowed(attrs));
        }
        let mut new = attrs.clone();
        for set in &entry.sets {
            match set {
                RouteSet::LocalPref(v) => new.local_pref = *v,
                RouteSet::Med(v) => new.med = *v,
                RouteSet::AsPathPrepend(n) => {
                    for _ in 0..*n {
                        new.as_path.insert(0, LOCAL_AS);
                    }
                }
                RouteSet::Community(c) => new.communities.push(*c),
            }
        }
        return Some(Cow::Owned(new));
    }
    None
}

/// What the pre-fan-out exporter read off the router besides the route.
struct Reference<'a> {
    cfg: &'a DeviceConfig,
    quirks: &'a Quirks,
    /// The event being handled: stamps the hop of a learned route.
    event: EventId,
}

impl Reference<'_> {
    /// The pre-fan-out `BgpRouterOs::export_for`: everything, per peer.
    fn export_for(
        &self,
        idx: usize,
        prefix: Ipv4Prefix,
        attrs: &Arc<PathAttrs>,
        source: Source,
        prov: &Arc<Provenance>,
    ) -> Option<RibAttrs> {
        let bgp = self.cfg.bgp.as_ref().expect("bgp configured");
        let peer = &bgp.neighbors[idx];
        if self.quirks.stop_announcing_networks && source == Source::Local {
            return None;
        }
        let suppressed = source != Source::Aggregate
            && bgp
                .aggregates
                .iter()
                .any(|a| a.summary_only && a.prefix.covers(prefix) && a.prefix != prefix);
        if suppressed {
            return None;
        }
        if source == Source::Peer(idx) {
            return None;
        }
        let exported = attrs.announced_by(LOCAL_AS, LOOPBACK);
        if exported.contains_as(peer.remote_as) {
            return None;
        }
        let exported = match &peer.route_map_out {
            Some(name) => {
                let map = self.cfg.route_maps.get(name)?;
                match reference_route_map(self.cfg, map, prefix, &exported)? {
                    Cow::Borrowed(_) => exported,
                    Cow::Owned(modified) => modified,
                }
            }
            None => exported,
        };
        let out_prov = match source {
            Source::Peer(_) => prov.extended(LOOPBACK, self.event),
            Source::Local | Source::Aggregate => Arc::clone(prov),
        };
        Some((exported.intern(), out_prov))
    }
}

/// The outbound maps the property draws from, map-free and permitting
/// ones weighted up so that most draws export something (`DANGLING`
/// stays undefined).
const MAPS: [Option<&str>; 10] = [
    None,
    None,
    None,
    Some("PERMIT"),
    Some("PERMIT"),
    Some("SET"),
    Some("SET"),
    Some("DENY"),
    Some("DANGLING"),
    Some("COND"),
];

fn entry(seq: u32, action: Action, matches: Vec<RouteMatch>, sets: Vec<RouteSet>) -> RouteMapEntry {
    RouteMapEntry {
        seq,
        action,
        matches,
        sets,
    }
}

fn route_maps() -> BTreeMap<String, RouteMap> {
    let maps = [
        ("PERMIT", vec![entry(10, Action::Permit, vec![], vec![])]),
        (
            "SET",
            vec![entry(
                10,
                Action::Permit,
                vec![],
                vec![RouteSet::AsPathPrepend(2), RouteSet::Community(77)],
            )],
        ),
        ("DENY", vec![entry(10, Action::Deny, vec![], vec![])]),
        (
            // Outcome depends on the exported attributes themselves.
            "COND",
            vec![
                entry(
                    10,
                    Action::Deny,
                    vec![RouteMatch::AsPathContains(Asn(64700))],
                    vec![],
                ),
                entry(
                    20,
                    Action::Permit,
                    vec![RouteMatch::Community(7)],
                    vec![RouteSet::Med(5)],
                ),
                entry(30, Action::Permit, vec![], vec![]),
            ],
        ),
    ];
    maps.into_iter()
        .map(|(name, entries)| (name.to_string(), RouteMap { entries }))
        .collect()
}

/// One drawn scenario.
#[derive(Debug, Clone)]
struct Scenario {
    /// Per peer: AS plan (4 same-AS sibling, 5 peer 0's AS, else an AS
    /// of its own) and the outbound map before / after the soft refresh.
    peers: Vec<(u8, usize, usize)>,
    stop_announcing_networks: bool,
    /// 0 none, 1 plain, 2 summary-only — over 10.9.0.0/16.
    aggregate: u8,
    local_network: bool,
    /// Announces the learned routes; also the split-horizon peer.
    src: usize,
    /// Establishes only after the learned routes are in; never `src`.
    late: usize,
    /// Whether `src` prepended its own AS, as an eBGP speaker does. Where
    /// it did not, only split horizon keeps the route from going back.
    src_as_first: bool,
    /// Second AS of the learned path: below 4 a stranger (`64700 + n`),
    /// from 4 the AS of peer `n - 4`, whose loop check must then fire.
    transit: usize,
    community: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec((0u8..6, 0usize..MAPS.len(), 0usize..MAPS.len()), 4..9),
        any::<bool>(),
        0u8..3,
        any::<bool>(),
        (0usize..8, 0usize..8, 0u8..4, 0usize..24),
        any::<bool>(),
    )
        .prop_map(
            |(peers, stop_announcing_networks, aggregate, local_network, picks, community)| {
                let k = peers.len();
                Scenario {
                    peers,
                    stop_announcing_networks,
                    aggregate,
                    local_network,
                    src: picks.0 % k,
                    late: (picks.0 % k + 1 + picks.1 % (k - 1)) % k,
                    src_as_first: picks.2 > 0,
                    transit: picks.3 % (k + 4),
                    community,
                }
            },
        )
}

fn remote_as(plan: u8, i: usize) -> Asn {
    match plan {
        4 => LOCAL_AS,
        5 => Asn(65100),
        _ => Asn(65100 + i as u32),
    }
}

fn scenario_config(sc: &Scenario, after_refresh: bool) -> (Vec<PeerSpec>, DeviceConfig) {
    let peers: Vec<PeerSpec> = sc
        .peers
        .iter()
        .enumerate()
        .map(|(i, &(plan, before, after))| PeerSpec {
            remote_as: remote_as(plan, i),
            route_map_out: MAPS[if after_refresh { after } else { before }].map(str::to_string),
        })
        .collect();
    let mut cfg = config(&peers, 4);
    cfg.route_maps = route_maps();
    let bgp = cfg.bgp.as_mut().expect("bgp configured");
    if sc.local_network {
        bgp.networks.push("10.9.2.0/24".parse().unwrap());
    }
    if sc.aggregate > 0 {
        bgp.aggregates.push(AggregateConfig {
            prefix: "10.9.0.0/16".parse().unwrap(),
            summary_only: sc.aggregate == 2,
        });
    }
    (peers, cfg)
}

/// The router plus the two Adj-RIB-Out views the property compares.
struct Bench {
    os: BgpRouterOs,
    quirks: Quirks,
    /// Per peer, what the flushed UPDATEs add up to.
    sent: Vec<BTreeMap<Ipv4Prefix, RibAttrs>>,
    /// Per peer, what the reference says it should be.
    expected: Vec<BTreeMap<Ipv4Prefix, RibAttrs>>,
}

impl Bench {
    /// Flushes the MRAI batch and replays the same step on the model:
    /// every Loc-RIB route re-exported by the reference toward each peer
    /// of `to`, queued only where the attributes toward that peer moved
    /// (an attr-identical re-export keeps its older provenance stamp).
    fn settle(&mut self, cfg: &DeviceConfig, event: EventId, src: usize, to: &[usize]) {
        for (i, (announced, withdrawn)) in flush(&mut self.os, event) {
            for (prefix, attrs, prov) in announced {
                self.sent[i].insert(prefix, (attrs, prov));
            }
            for prefix in withdrawn {
                self.sent[i].remove(&prefix);
            }
        }
        let rib: BTreeMap<Ipv4Prefix, _> = self.os.routes_with_detail().into_iter().collect();
        let reference = Reference {
            cfg,
            quirks: &self.quirks,
            event,
        };
        for &i in to {
            let mut next = BTreeMap::new();
            for (&prefix, detail) in &rib {
                let source = match detail.reason {
                    DecisionReason::LocalOrigination => Source::Local,
                    DecisionReason::AggregateSynthesis => Source::Aggregate,
                    _ => Source::Peer(src),
                };
                let exported = reference.export_for(i, prefix, &detail.attrs, source, &detail.prov);
                if let Some(new) = exported {
                    // A soft refresh re-decides the aggregate's prefix,
                    // finds no path, and re-synthesises it: withdrawn and
                    // announced in one batch, it goes out re-originated.
                    let kept = self.expected[i]
                        .remove(&prefix)
                        .filter(|old| *old.0 == *new.0 && old.1.origin_event == new.1.origin_event);
                    next.insert(prefix, kept.unwrap_or(new));
                }
            }
            self.expected[i] = next;
        }
    }

    fn check(&self, stage: &str) -> Result<(), TestCaseError> {
        for (i, (sent, expected)) in self.sent.iter().zip(&self.expected).enumerate() {
            prop_assert_eq!(sent, expected, "{}: Adj-RIB-Out toward peer {}", stage, i);
            for (prefix, (attrs, prov)) in sent {
                let (want_attrs, want_prov) = &expected[prefix];
                // Interned on both sides, so equal means *the same* Arc —
                // also across the peers that share one reference value.
                prop_assert!(
                    Arc::ptr_eq(attrs, want_attrs),
                    "{}: {} attrs",
                    stage,
                    prefix
                );
                prop_assert!(Arc::ptr_eq(prov, want_prov), "{}: {} prov", stage, prefix);
            }
        }
        Ok(())
    }
}

fn ev(n: u64) -> EventId {
    EventId {
        time_ns: 1_000 * n,
        key: n,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_peer_gets_what_the_per_peer_export_would_send(sc in scenario()) {
        let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
        let (peers, cfg) = scenario_config(&sc, false);
        let k = peers.len();
        let quirks = Quirks {
            stop_announcing_networks: sc.stop_announcing_networks,
            ..Quirks::none()
        };
        let profile = VendorProfile { quirks, ..VendorProfile::ctnr_a() };
        let mut bench = Bench {
            os: boot(profile, cfg.clone()),
            quirks,
            sent: vec![BTreeMap::new(); k],
            expected: vec![BTreeMap::new(); k],
        };
        let early: Vec<usize> = (0..k).filter(|&i| i != sc.late).collect();
        let all: Vec<usize> = (0..k).collect();

        // 1. Sessions come up: the full table (network, aggregate) goes
        //    to each new peer.
        for &i in &early {
            open(&mut bench.os, ev(1), i, peers[i].remote_as);
        }
        bench.settle(&cfg, ev(1), sc.src, &early);
        bench.check("establish")?;

        // 2. One UPDATE from `src`: one route under the aggregate, one
        //    outside it, fanned out to everyone else.
        let first = if sc.src_as_first { peers[sc.src].remote_as } else { Asn(64800) };
        let transit = match sc.transit {
            n @ 0..4 => Asn(64700 + n as u32),
            n => peers[n - 4].remote_as,
        };
        let learned = PathAttrs {
            as_path: vec![first, transit],
            communities: if sc.community { vec![7] } else { vec![] },
            ..PathAttrs::originated(peer_addr(sc.src))
        }
        .intern();
        let origin = Provenance::originated(OriginKind::Speaker, peer_addr(sc.src), ev(0));
        let announced = ["10.9.1.0/24", "172.16.0.0/24"]
            .map(|p| (p.parse().unwrap(), Arc::clone(&learned), Arc::clone(&origin)))
            .to_vec();
        deliver(&mut bench.os, ev(2), sc.src, BgpMsg::Update { announced, withdrawn: vec![] });
        bench.settle(&cfg, ev(2), sc.src, &early);
        bench.check("update fan-out")?;

        // 3. A late session: the full table again, learned routes
        //    included, stamped with *its* event.
        open(&mut bench.os, ev(3), sc.late, peers[sc.late].remote_as);
        bench.settle(&cfg, ev(3), sc.src, &[sc.late]);
        bench.check("late session")?;

        // 4. Outbound policy changes under the sessions: everything is
        //    re-exported and only the differences are sent.
        let (_, refreshed) = scenario_config(&sc, true);
        let update = MgmtCommand::UpdatePolicy(Box::new(refreshed.clone()));
        handle(&mut bench.os, ev(4), OsEvent::Mgmt(update));
        bench.settle(&refreshed, ev(4), sc.src, &all);
        bench.check("soft refresh")?;
    }
}

/// Work follows changed prefixes, not changed prefixes × peers: the
/// deterministic counter behind the `mockup_mdc` wall number.
#[test]
fn one_update_interns_once_per_prefix_not_once_per_peer() {
    const PEERS: usize = 24;
    const PREFIXES: u32 = 200;
    let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
    let peers: Vec<PeerSpec> = (0..PEERS).map(PeerSpec::plain).collect();
    let mut os = established(VendorProfile::ctnr_a(), config(&peers, 4), &peers);
    let origin = Provenance::originated(OriginKind::Speaker, peer_addr(0), ev(0));
    let announced = (0..PREFIXES)
        .map(|n| {
            // One attribute set per prefix: every export is a set the
            // interner has not seen, the expensive case.
            let attrs = PathAttrs {
                as_path: vec![peers[0].remote_as, Asn(64700)],
                communities: vec![n],
                ..PathAttrs::originated(peer_addr(0))
            };
            let prefix = Ipv4Prefix::new(crystalnet_net::Ipv4Addr::new(10, 20, n as u8, 0), 24);
            (prefix, attrs.intern(), Arc::clone(&origin))
        })
        .collect();

    let (hits0, misses0) = intern_stats();
    deliver(
        &mut os,
        ev(1),
        0,
        BgpMsg::Update {
            announced,
            withdrawn: vec![],
        },
    );
    let (hits1, misses1) = intern_stats();

    let sent = flush(&mut os, ev(2));
    assert_eq!(
        sent.len(),
        PEERS - 1,
        "everyone but the announcer hears of it"
    );
    assert!(sent
        .values()
        .all(|(a, w)| a.len() == PREFIXES as usize && w.is_empty()));
    let calls = (hits1 - hits0) + (misses1 - misses0);
    assert!(
        calls <= u64::from(PREFIXES) + 8,
        "{calls} attr-intern calls for {PREFIXES} prefixes toward {} peers",
        PEERS - 1
    );
}
