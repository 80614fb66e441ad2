//! The export fan-out against its oracle.
//!
//! `BgpRouterOs` builds a route's export once per prefix and event and
//! then only *filters* per peer. [`Reference::export_for`] is the per-peer
//! computation that design replaced, kept here in full; the property
//! drives a router through every path that exports — full table to a new
//! session, an UPDATE's fan-out, a late session, an outbound-policy soft
//! refresh — and requires each peer's Adj-RIB-Out, as the flushed UPDATEs
//! build it, to equal what the reference computes peer by peer.
//!
//! The rest counts what the fan-out no longer builds: a provenance hop
//! only for a route that is sent, and the re-announced attributes from a
//! per-router memo that must follow the local AS and travel with a copy.
//! A decision that keeps the best path's attributes and source runs no
//! fan-out at all; that is exact only while every established peer's
//! Adj-RIB-Out equals what the Loc-RIB exports, and a second property
//! walks the session machine at random to check that it always does.

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
    BgpMsg, BgpRouterOs, DecisionReason, DeviceOs, FibOverflow, Interned, MgmtCommand, OriginKind,
    OsEvent, Provenance, Quirks, VendorProfile,
};
use crystalnet_sim::EventId;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// The interner's counters are process-wide and the harness runs a
/// binary's tests on parallel threads: both tests hold this while they
/// drive a router, so the counting one sees only its own interning.
static ROUTER_AT_WORK: Mutex<()> = Mutex::new(());

type RibAttrs = (Interned<PathAttrs>, Interned<Provenance>);

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
        attrs: &Interned<PathAttrs>,
        source: Source,
        prov: &Interned<Provenance>,
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
            Source::Local | Source::Aggregate => *prov,
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
                // Interned on both sides, so equal means *the same* handle —
                // also across the peers that share one reference value.
                prop_assert!(attrs == want_attrs, "{}: {} attrs", stage, prefix);
                prop_assert!(prov == want_prov, "{}: {} prov", stage, prefix);
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
            .map(|p| (p.parse().unwrap(), learned, origin))
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
            (prefix, attrs.intern(), origin)
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

/// `10.30.n.0/24`.
fn nth_prefix(n: u32) -> Ipv4Prefix {
    Ipv4Prefix::new(crystalnet_net::Ipv4Addr::new(10, 30, n as u8, 0), 24)
}

/// One UPDATE announcing `prefixes` with the same learned set and chain.
fn update(
    prefixes: &[Ipv4Prefix],
    attrs: &Interned<PathAttrs>,
    prov: &Interned<Provenance>,
) -> BgpMsg {
    BgpMsg::Update {
        announced: prefixes.iter().map(|&p| (p, *attrs, *prov)).collect(),
        withdrawn: vec![],
    }
}

/// The learned set peer `i` announces: its own AS first, as an eBGP
/// speaker sends it.
fn learned_from(peers: &[PeerSpec], i: usize) -> Interned<PathAttrs> {
    PathAttrs {
        as_path: vec![peers[i].remote_as, Asn(64700)],
        ..PathAttrs::originated(peer_addr(i))
    }
    .intern()
}

/// ECMP growth, the common decision in a Clos fabric: a second spine of
/// the same layer AS announces an attr-identical path. The Loc-RIB entry
/// changes (its ECMP set grows) but keeps its attributes and source, so
/// the decision skips the fan-out: no peer's Adj-RIB-Out can move.
/// Nothing may be queued, no provenance hop built for the routes nobody
/// is sent, and no attribute set interned.
#[test]
fn ecmp_growth_queues_nothing_and_interns_nothing() {
    const PREFIXES: u32 = 50;
    let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
    // Peers 0 and 1 are spines of one layer AS; the rest are plain.
    let peers: Vec<PeerSpec> = (0..6)
        .map(|i| PeerSpec::plain(if i < 2 { 0 } else { i }))
        .collect();
    let mut os = established(VendorProfile::ctnr_a(), config(&peers, 4), &peers);
    let prefixes: Vec<Ipv4Prefix> = (0..PREFIXES).map(nth_prefix).collect();
    // Peer 1 has the lower address, so its path is best and stays best.
    let learned = learned_from(&peers, 1);
    let origin = Provenance::originated(OriginKind::Speaker, peer_addr(1), ev(0));
    deliver(&mut os, ev(1), 1, update(&prefixes, &learned, &origin));
    let first = flush(&mut os, ev(2));
    assert_eq!(
        first.keys().copied().collect::<Vec<_>>(),
        vec![2, 3, 4, 5],
        "every peer outside the spine layer hears of it"
    );

    let chains = Provenance::interned_count();
    let stats = intern_stats();
    let actions = deliver(&mut os, ev(3), 0, update(&prefixes, &learned, &origin));
    assert_eq!(
        Provenance::interned_count(),
        chains,
        "a provenance hop was built for routes nobody is sent"
    );
    assert_eq!(intern_stats(), stats, "an attribute set was interned");
    assert!(actions.timers.is_empty(), "something was queued");
    assert!(flush(&mut os, ev(4)).is_empty(), "something was sent");
    // The decision did run: both spines now carry every prefix.
    for &prefix in &prefixes {
        let installed = os.fib().get(prefix).expect("installed");
        assert_eq!(installed.next_hops.len(), 2, "{prefix}: ECMP set");
    }
}

/// The memoised rewrite depends on the local AS, and a config replace is
/// how the AS changes. A router that has re-announced a learned set and
/// its own network, given a new AS, re-announces both — the same interned
/// sets, so the same memo keys — with the new AS first.
#[test]
fn a_replaced_local_as_reaches_every_later_export() {
    const NEW_AS: Asn = Asn(65001);
    let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
    let peers: Vec<PeerSpec> = (0..3).map(PeerSpec::plain).collect();
    let mut cfg = config(&peers, 4);
    let bgp = cfg.bgp.as_mut().expect("bgp configured");
    bgp.networks.push("10.9.2.0/24".parse().unwrap());
    let mut os = established(VendorProfile::ctnr_a(), cfg.clone(), &peers);
    let learned = learned_from(&peers, 0);
    let origin = Provenance::originated(OriginKind::Speaker, peer_addr(0), ev(0));
    let routes = [nth_prefix(0)];
    let first_as = |sent: &BTreeMap<usize, (Vec<common::Announced>, Vec<Ipv4Prefix>)>| {
        let firsts: Vec<Asn> = sent
            .values()
            .flat_map(|(announced, _)| announced)
            .map(|(_, attrs, _)| attrs.as_path[0])
            .collect();
        // The network toward all three peers, the learned route toward
        // the two that did not announce it.
        assert_eq!(firsts.len(), 5, "announcements flushed");
        firsts
    };

    deliver(&mut os, ev(1), 0, update(&routes, &learned, &origin));
    assert!(first_as(&flush(&mut os, ev(2)))
        .iter()
        .all(|&asn| asn == LOCAL_AS));

    cfg.bgp.as_mut().expect("bgp configured").asn = NEW_AS;
    let replace = MgmtCommand::ReplaceConfig(Box::new(cfg));
    handle(&mut os, ev(3), OsEvent::Mgmt(replace));
    for (i, p) in peers.iter().enumerate() {
        open(&mut os, ev(4), i, p.remote_as);
    }
    deliver(&mut os, ev(5), 0, update(&routes, &learned, &origin));
    let firsts = first_as(&flush(&mut os, ev(6)));
    assert!(
        firsts.iter().all(|&asn| asn == NEW_AS),
        "re-announced with a stale AS: {firsts:?}"
    );
}

/// A fork copies the router with its memo. A warm copy and a router that
/// never exported, given the same UPDATE, send the same messages — down
/// to the interned handles.
#[test]
fn a_warm_copy_and_a_cold_router_send_the_same_update() {
    let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
    let peers: Vec<PeerSpec> = (0..4).map(PeerSpec::plain).collect();
    let learned = learned_from(&peers, 0);
    let origin = Provenance::originated(OriginKind::Speaker, peer_addr(0), ev(0));
    let (first, later) = ([nth_prefix(0)], [nth_prefix(1)]);
    let mut warm = established(VendorProfile::ctnr_a(), config(&peers, 4), &peers);
    deliver(&mut warm, ev(1), 0, update(&first, &learned, &origin));
    flush(&mut warm, ev(2));

    let mut copy = warm.clone_boxed();
    let mut cold = established(VendorProfile::ctnr_a(), config(&peers, 4), &peers);
    deliver(&mut *copy, ev(3), 0, update(&later, &learned, &origin));
    deliver(&mut cold, ev(3), 0, update(&later, &learned, &origin));
    let from_copy = flush(&mut *copy, ev(4));
    let from_cold = flush(&mut cold, ev(4));
    assert_eq!(from_copy.len(), 3, "everyone but the announcer");
    assert_eq!(from_copy, from_cold);
    for (a, b) in from_copy.values().zip(from_cold.values()) {
        for ((_, a_attrs, a_prov), (_, b_attrs, b_prov)) in a.0.iter().zip(&b.0) {
            assert!(a_attrs == b_attrs && a_prov == b_prov);
        }
    }
}

/// Peer `i`'s origination: the chain its announcements carry.
fn speaker_origin(i: usize) -> Interned<Provenance> {
    Provenance::originated(OriginKind::Speaker, peer_addr(i), ev(0))
}

/// Where only split horizon guards the skip: two peers in different ASes
/// announce one interned set that carries neither AS, and the
/// lower-address peer comes second. The attributes stay and the best path
/// moves to it, so it must be sent a withdraw, the old best the route,
/// and nobody else anything.
#[test]
fn a_best_path_moving_under_one_set_swaps_the_split_horizon() {
    let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
    let peers: Vec<PeerSpec> = (0..3).map(PeerSpec::plain).collect();
    let mut os = established(VendorProfile::ctnr_a(), config(&peers, 4), &peers);
    let set = PathAttrs {
        as_path: vec![Asn(64800), Asn(64700)],
        ..PathAttrs::originated(peer_addr(0))
    }
    .intern();
    let routes = [nth_prefix(0)];

    deliver(&mut os, ev(1), 0, update(&routes, &set, &speaker_origin(0)));
    let first = flush(&mut os, ev(2));
    assert_eq!(first.keys().copied().collect::<Vec<_>>(), vec![1, 2]);

    // Peer 1 has the lower address: same set, so ECMP {1, 0}, best 1.
    deliver(&mut os, ev(3), 1, update(&routes, &set, &speaker_origin(1)));
    let moved = flush(&mut os, ev(4));
    assert_eq!(
        moved.keys().copied().collect::<Vec<_>>(),
        vec![0, 1],
        "only the old and the new best path's peers hear of it"
    );
    let (to_old, withdrawn) = &moved[&0];
    assert!(
        to_old.len() == 1 && withdrawn.is_empty(),
        "the old best is sent the route"
    );
    let (announced, to_new) = &moved[&1];
    assert!(
        announced.is_empty() && to_new[..] == routes,
        "the new best is sent a withdraw"
    );
    let installed = os.fib().get(routes[0]).expect("installed");
    assert_eq!(installed.next_hops.len(), 2, "ECMP set");
}

/// One of two same-AS ECMP peers withdraws. Whether the best path stays
/// (its sibling left) or moves (the best left, and the sibling's set
/// re-announces alike), no peer's Adj-RIB-Out changes: nothing may be
/// sent.
#[test]
fn a_same_as_ecmp_peer_withdrawing_sends_nothing() {
    let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
    // Peers 0 and 1 are spines of one layer AS; peer 1 is the best path.
    let peers: Vec<PeerSpec> = (0..5)
        .map(|i| PeerSpec::plain(if i < 2 { 0 } else { i }))
        .collect();
    let prefixes: Vec<Ipv4Prefix> = (0..8).map(nth_prefix).collect();
    for leaving in [0, 1] {
        let mut os = established(VendorProfile::ctnr_a(), config(&peers, 4), &peers);
        for i in [0, 1] {
            let attrs = learned_from(&peers, i);
            deliver(
                &mut os,
                ev(1),
                i,
                update(&prefixes, &attrs, &speaker_origin(i)),
            );
        }
        let first = flush(&mut os, ev(2));
        assert_eq!(first.keys().copied().collect::<Vec<_>>(), vec![2, 3, 4]);

        let gone = BgpMsg::Update {
            announced: vec![],
            withdrawn: prefixes.clone(),
        };
        deliver(&mut os, ev(3), leaving, gone);
        let sent = flush(&mut os, ev(4));
        assert!(
            sent.is_empty(),
            "peer {leaving} withdrew and {sent:?} was sent"
        );
        for &prefix in &prefixes {
            let installed = os.fib().get(prefix).expect("installed");
            assert_eq!(installed.next_hops.len(), 1, "{prefix}: ECMP set");
        }
    }
}

/// The prefixes a walk announces (a step's mask picks among them); the
/// last is also the router's own `network` when the walk has one.
const WALK_PREFIXES: [&str; 3] = ["10.30.0.0/24", "172.16.0.0/24", "10.9.2.0/24"];

/// The remote ASes a walk's peers draw from. Peers may share one, as the
/// spines of one layer do; the last is the router's own.
const WALK_ASES: [Asn; 4] = [Asn(65100), Asn(65101), Asn(65102), LOCAL_AS];

/// The learned sets a walk's peers announce, interned. Sets 0, 1 and 5
/// are re-announced alike (they differ only in next hop and MED); 4 is the
/// shortest; 2 and 3 carry walk ASes, so the sender-side loop check fires;
/// 6 carries the router's own AS and is dropped on receipt.
fn walk_pool() -> Vec<Interned<PathAttrs>> {
    let set = |as_path: &[u32], next_hop: usize, med: u32, communities: Vec<u32>| {
        PathAttrs {
            as_path: as_path.iter().map(|&a| Asn(a)).collect(),
            med,
            communities,
            ..PathAttrs::originated(peer_addr(next_hop))
        }
        .intern()
    };
    vec![
        set(&[64800, 64700], 0, 0, vec![]),
        set(&[64800, 64700], 1, 0, vec![]),
        set(&[65100, 64700], 0, 0, vec![]),
        set(&[65101, 64700, 64701], 1, 0, vec![]),
        set(&[64800], 2, 0, vec![7]),
        set(&[64800, 64700], 2, 10, vec![]),
        set(&[LOCAL_AS.0, 64700], 0, 0, vec![]),
    ]
}

/// One step of a walk; peer indexes are taken modulo the peer count.
#[derive(Debug, Clone)]
enum Step {
    /// The peer announces the prefixes of `mask` with pool set `set`.
    Announce {
        peer: usize,
        mask: u8,
        set: usize,
    },
    /// The peer withdraws the prefixes of `mask`.
    Withdraw {
        peer: usize,
        mask: u8,
    },
    LinkDown(usize),
    LinkUp(usize),
    NeighborShutdown(usize),
    NeighborEnable(usize),
    /// The peer's Open under its current token: the answer to ours.
    Open(usize),
    /// The peer restarts: a new token, then its Open.
    Restart(usize),
    /// New outbound maps, one `MAPS` index per peer.
    Policy(Vec<usize>),
    /// The router's live image boots again (a power-off, then a boot).
    Boot,
    /// The MRAI timer fires.
    Flush,
}

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..17,
        0usize..8,
        1u8..8,
        0usize..7,
        prop::collection::vec(0usize..MAPS.len(), 8..9),
    )
        .prop_map(|(kind, peer, mask, set, maps)| match kind {
            0..=4 => Step::Announce { peer, mask, set },
            5 | 6 => Step::Withdraw { peer, mask },
            7 => Step::LinkDown(peer),
            8 => Step::LinkUp(peer),
            9 => Step::NeighborShutdown(peer),
            10 => Step::NeighborEnable(peer),
            11 | 12 => Step::Open(peer),
            13 => Step::Restart(peer),
            14 => Step::Policy(maps),
            15 => Step::Boot,
            _ => Step::Flush,
        })
}

/// One drawn walk: a router and the steps it is driven through.
#[derive(Debug, Clone)]
struct Walk {
    /// Per peer, its index into `WALK_ASES`.
    ases: Vec<usize>,
    max_paths: u32,
    local_network: bool,
    /// FIB capacity, unlimited at 0; `reject` picks the overflow policy.
    capacity: usize,
    reject: bool,
    stop_announcing_networks: bool,
    steps: Vec<Step>,
}

fn walk() -> impl Strategy<Value = Walk> {
    (
        prop::collection::vec(0usize..WALK_ASES.len(), 3..7),
        1u32..4,
        any::<bool>(),
        0usize..4,
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(step(), 1..40),
    )
        .prop_map(
            |(ases, max_paths, local_network, capacity, reject, stop, steps)| Walk {
                ases,
                max_paths,
                local_network,
                capacity,
                reject,
                stop_announcing_networks: stop,
                steps,
            },
        )
}

/// The walk's configuration with outbound map `MAPS[maps[i]]` on peer `i`.
fn walk_config(w: &Walk, maps: &[usize]) -> DeviceConfig {
    let peers: Vec<PeerSpec> = w
        .ases
        .iter()
        .zip(maps)
        .map(|(&a, &m)| PeerSpec {
            remote_as: WALK_ASES[a],
            route_map_out: MAPS[m].map(str::to_string),
        })
        .collect();
    let mut cfg = config(&peers, w.max_paths);
    cfg.route_maps = route_maps();
    cfg.fib_capacity = (w.capacity > 0).then_some(w.capacity);
    if w.local_network {
        let bgp = cfg.bgp.as_mut().expect("bgp configured");
        bgp.networks.push(WALK_PREFIXES[2].parse().unwrap());
    }
    cfg
}

/// Whether every established peer's Adj-RIB-Out, flushed plus pending,
/// equals what the Loc-RIB exports under `cfg`. Read off a copy of the
/// router: after a flush, a soft refresh under the unchanged config
/// re-exports every Loc-RIB route and must send no UPDATE; then a route
/// refresh from every peer replays its Adj-RIB-Out, which may hold no
/// prefix the Loc-RIB lacks (the soft refresh re-exports only those it
/// holds).
fn adj_ribs_out_match(
    os: &BgpRouterOs,
    cfg: &DeviceConfig,
    k: usize,
    at: EventId,
) -> Result<(), String> {
    let mut copy = os.clone();
    flush(&mut copy, at);
    let unchanged = MgmtCommand::UpdatePolicy(Box::new(cfg.clone()));
    handle(&mut copy, at, OsEvent::Mgmt(unchanged));
    let stale = flush(&mut copy, at);
    if !stale.is_empty() {
        return Err(format!("the soft refresh sent {stale:?}"));
    }
    for i in 0..k {
        deliver(&mut copy, at, i, BgpMsg::RouteRefresh);
    }
    let installed: Vec<Ipv4Prefix> = copy.loc_rib().into_iter().map(|(p, ..)| p).collect();
    for (i, (announced, withdrawn)) in flush(&mut copy, at) {
        let held: Vec<Ipv4Prefix> = announced.iter().map(|(p, ..)| *p).collect();
        if !withdrawn.is_empty() || held.iter().any(|p| !installed.contains(p)) {
            return Err(format!(
                "peer {i} holds {held:?}; the Loc-RIB {installed:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The invariant that makes skipping an ECMP-only decision's fan-out
    /// exact, checked after every step of a random walk through the
    /// session machine: UPDATEs and withdrawals that grow, shrink and move
    /// ECMP sets; duplicate link events; shutting and re-enabling
    /// neighbours, enabled ones included; peer restarts; outbound-policy
    /// changes; a boot of the live image; MRAI flushes, so changes also
    /// wait in the pending batch.
    #[test]
    fn every_adj_rib_out_tracks_the_loc_rib_through_the_session_machine(w in walk()) {
        let _alone = ROUTER_AT_WORK.lock().unwrap_or_else(|e| e.into_inner());
        let k = w.ases.len();
        let mut cfg = walk_config(&w, &vec![0; k]);
        let profile = VendorProfile {
            fib_overflow: if w.reject { FibOverflow::RejectRoute } else { FibOverflow::SilentDrop },
            quirks: Quirks {
                stop_announcing_networks: w.stop_announcing_networks,
                ..Quirks::none()
            },
            ..VendorProfile::ctnr_a()
        };
        let mut os = boot(profile, cfg.clone());
        let pool = walk_pool();
        let remote_as = |i: usize| WALK_ASES[w.ases[i]];
        let prefixes = |mask: u8| -> Vec<Ipv4Prefix> {
            (0..WALK_PREFIXES.len())
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| WALK_PREFIXES[b].parse().unwrap())
                .collect()
        };
        // `open` presents token `1 + i`; a restart moves it on.
        let mut tokens: Vec<u64> = (1..=k as u64).collect();
        for i in 0..k {
            open(&mut os, ev(1), i, remote_as(i));
        }
        for (n, step) in w.steps.iter().enumerate() {
            let at = ev(2 + n as u64);
            match step.clone() {
                Step::Announce { peer, mask, set } => {
                    let i = peer % k;
                    deliver(&mut os, at, i, update(&prefixes(mask), &pool[set], &speaker_origin(i)));
                }
                Step::Withdraw { peer, mask } => {
                    let withdrawn = prefixes(mask);
                    deliver(&mut os, at, peer % k, BgpMsg::Update { announced: vec![], withdrawn });
                }
                Step::LinkDown(peer) => {
                    handle(&mut os, at, OsEvent::LinkDown((peer % k) as u32));
                }
                Step::LinkUp(peer) => {
                    handle(&mut os, at, OsEvent::LinkUp((peer % k) as u32));
                }
                Step::NeighborShutdown(peer) => {
                    let cmd = MgmtCommand::NeighborShutdown(peer_addr(peer % k));
                    handle(&mut os, at, OsEvent::Mgmt(cmd));
                }
                Step::NeighborEnable(peer) => {
                    let cmd = MgmtCommand::NeighborEnable(peer_addr(peer % k));
                    handle(&mut os, at, OsEvent::Mgmt(cmd));
                }
                Step::Open(peer) | Step::Restart(peer) => {
                    let i = peer % k;
                    if matches!(step, Step::Restart(_)) {
                        tokens[i] += 1_000;
                    }
                    let msg = BgpMsg::Open {
                        asn: remote_as(i),
                        router_id: peer_addr(i),
                        hold_secs: 180,
                        session_token: tokens[i],
                    };
                    deliver(&mut os, at, i, msg);
                }
                Step::Policy(maps) => {
                    cfg = walk_config(&w, &maps[..k]);
                    let cmd = MgmtCommand::UpdatePolicy(Box::new(cfg.clone()));
                    handle(&mut os, at, OsEvent::Mgmt(cmd));
                }
                Step::Boot => {
                    handle(&mut os, at, OsEvent::Boot);
                }
                Step::Flush => {
                    flush(&mut os, at);
                }
            }
            if let Err(e) = adj_ribs_out_match(&os, &cfg, k, at) {
                return Err(TestCaseError::fail(format!("after step {n} ({step:?}): {e}")));
            }
        }
    }
}
