//! The BGP-4 routing engine behind the emulated firmware images.
//!
//! This is the reproduction's stand-in for the proprietary vendor NOS
//! images CrystalNet boots: a complete eBGP implementation — session
//! handshake, Adj-RIB-In per peer, the full decision process with ECMP
//! multipath, policy application, `aggregate-address` with vendor-divergent
//! AS-path construction (Figure 1), MRAI-batched advertisement, FIB
//! install with hardware capacity limits (§2's blackhole incident), and
//! the injectable firmware bugs of [`crate::vendor::Quirks`].
//!
//! Design notes for scale (Table 3's O(20M) routes): path attributes are
//! `Arc`-shared; updates are batched per MRAI interval into single
//! messages; the exporter skips peers whose AS already appears in the
//! path (sender-side loop check), which is what makes Clos fabrics with
//! shared layer ASes converge in O(links) messages instead of O(links^2).
//! A changed prefix's export is built and interned once per event
//! (`export_base`) and only filtered per peer (`export_to`), so a decision
//! costs one allocation however many sessions it fans out to; the
//! per-prefix tables are [`PrefixMap`]s.

use crate::attrs::{Origin, PathAttrs};
use crate::msg::{BgpMsg, Frame};
use crate::os::{DeviceOs, MgmtCommand, MgmtResponse, OsActions, OsEvent, TimerKind};
use crate::provenance::{
    DecisionReason, MutationKind, OriginKind, Provenance, RouteDetail, RouteMutation,
};
use crate::vendor::{AggregateMode, FibOverflow, VendorProfile};
use crystalnet_config::{Action, AggregateConfig, DeviceConfig, RouteMap, RouteMatch, RouteSet};
use crystalnet_dataplane::{Fib, FibEntry, NextHop};
use crystalnet_net::{Asn, Ipv4Addr, Ipv4Prefix, PrefixMap};
use crystalnet_sim::{EventId, SimTime};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Attr equality with the interner's pointer fast path: interned handles
/// are `ptr_eq` iff structurally equal, so the deep comparison only runs
/// for attrs that bypassed [`PathAttrs::intern`] (hand-built test fixtures).
#[inline]
fn same_attrs(a: &Arc<PathAttrs>, b: &Arc<PathAttrs>) -> bool {
    Arc::ptr_eq(a, b) || a == b
}

/// Sentinel interface index meaning "locally attached / deliver here".
pub const LOCAL_IFACE: u32 = u32::MAX;

/// BGP session state (simplified FSM: Idle → OpenSent → Established).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Not trying / administratively down / link down.
    Idle,
    /// Open sent, waiting for the peer.
    OpenSent,
    /// Routes flow.
    Established,
}

/// Where a Loc-RIB best route came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteSource {
    /// A `network` statement.
    Local,
    /// An `aggregate-address`.
    Aggregate,
    /// Learned from peer `index` (the best one among the ECMP set).
    Peer(usize),
}

#[derive(Debug, Clone)]
struct LocEntry {
    /// Attributes as learned/originated (pre-export).
    attrs: Arc<PathAttrs>,
    source: RouteSource,
    /// ECMP peer indexes (empty for local/aggregate).
    ecmp: Vec<usize>,
    /// Monotonic change tick (drives timing-dependent aggregate
    /// contributor selection, the §9 non-determinism).
    changed_tick: u64,
    /// Causal chain of the winning path (interned; cloned from the
    /// Adj-RIB-In entry for learned routes, so no per-decision work).
    prov: Arc<Provenance>,
    /// Why the winning path won.
    reason: DecisionReason,
}

/// An Adj-RIB entry: attributes plus the causal chain that announced them
/// (both interned, so cloning the pair is two refcount bumps).
type RibAttrs = (Arc<PathAttrs>, Arc<Provenance>);

#[derive(Debug, Clone)]
struct Peer {
    addr: Ipv4Addr,
    remote_as: Asn,
    iface: u32,
    shutdown: bool,
    route_map_in: Option<String>,
    route_map_out: Option<String>,
    state: SessionState,
    link_up: bool,
    /// Session token of the peer's current incarnation.
    remote_token: Option<u64>,
    adj_in: PrefixMap<RibAttrs>,
    /// Last flushed Adj-RIB-Out.
    advertised: PrefixMap<RibAttrs>,
    /// Pending (MRAI-batched) changes; `None` = withdraw.
    pending: PrefixMap<Option<RibAttrs>>,
}

impl Peer {
    fn effective_advertised(&self, prefix: Ipv4Prefix) -> Option<&RibAttrs> {
        match self.pending.get(&prefix) {
            Some(p) => p.as_ref(),
            None => self.advertised.get(&prefix),
        }
    }
}

/// A BGP router OS instance (one emulated firmware image).
#[derive(Clone)]
pub struct BgpRouterOs {
    profile: VendorProfile,
    config: DeviceConfig,
    hostname: String,
    asn: Asn,
    router_id: Ipv4Addr,
    loopback: Ipv4Addr,
    local_addrs: Vec<Ipv4Addr>,
    iface_addr: HashMap<u32, Ipv4Addr>,
    peers: Vec<Peer>,
    peer_by_iface: HashMap<u32, usize>,
    networks: BTreeSet<Ipv4Prefix>,
    loc_rib: PrefixMap<LocEntry>,
    fib: Fib,
    /// The ASIC view for images with an external forwarding emulator
    /// (CTNR-B + BMv2, §6.2); `None` for single-FIB vendors.
    asic_fib: Option<Fib>,
    dirty: BTreeSet<Ipv4Prefix>,
    mrai_armed: bool,
    change_tick: u64,
    flaps: u32,
    down: bool,
    booted: bool,
    /// This control-plane incarnation's identity (changes on every boot
    /// and config replace — models the TCP connection epoch).
    session_token: u64,
    /// Stable id of the event being handled ([`DeviceOs::begin_event`]);
    /// stamps provenance hops and originations.
    cur_event: EventId,
    /// Whether to journal RIB/FIB mutations for the trace sink.
    tracing: bool,
    /// Mutations journaled since the last `take_route_mutations`.
    mutations: Vec<RouteMutation>,
}

impl BgpRouterOs {
    /// Boots-to-be image with `config` under `profile`.
    ///
    /// The loopback doubles as the router id when the config leaves the
    /// router id unset.
    #[must_use]
    pub fn new(profile: VendorProfile, config: DeviceConfig, loopback: Ipv4Addr) -> Self {
        let has_asic = profile.vendor == crystalnet_net::Vendor::CtnrB;
        let mut os = BgpRouterOs {
            profile,
            hostname: config.hostname.clone(),
            asn: Asn(0),
            router_id: Ipv4Addr::UNSPECIFIED,
            loopback,
            local_addrs: vec![],
            iface_addr: HashMap::new(),
            peers: vec![],
            peer_by_iface: HashMap::new(),
            networks: BTreeSet::new(),
            loc_rib: PrefixMap::default(),
            fib: Fib::new(config.fib_capacity),
            asic_fib: has_asic.then(|| Fib::new(config.fib_capacity)),
            dirty: BTreeSet::new(),
            mrai_armed: false,
            change_tick: 0,
            flaps: 0,
            down: false,
            booted: false,
            session_token: 0,
            cur_event: EventId::ZERO,
            tracing: false,
            mutations: Vec::new(),
            config,
        };
        os.apply_config_internal();
        os
    }

    /// The vendor profile in effect.
    #[must_use]
    pub fn profile(&self) -> &VendorProfile {
        &self.profile
    }

    /// The running configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Addresses owned by this device (interfaces + loopback).
    #[must_use]
    pub fn local_addrs(&self) -> &[Ipv4Addr] {
        &self.local_addrs
    }

    /// Established peer addresses.
    #[must_use]
    pub fn established_peers(&self) -> Vec<Ipv4Addr> {
        self.peers
            .iter()
            .filter(|p| p.state == SessionState::Established)
            .map(|p| p.addr)
            .collect()
    }

    /// The Loc-RIB as `(prefix, attrs, ecmp-width)` rows.
    #[must_use]
    pub fn loc_rib(&self) -> Vec<(Ipv4Prefix, Arc<PathAttrs>, usize)> {
        let mut rows: Vec<_> = self
            .loc_rib
            .iter()
            .map(|(p, e)| (*p, e.attrs.clone(), e.ecmp.len()))
            .collect();
        rows.sort_by_key(|(p, _, _)| *p);
        rows
    }

    /// Evaluates this firmware's inbound ACL on `iface` the way this
    /// vendor parses it — including the §2 v1/v2 misread quirk.
    #[must_use]
    pub fn acl_permits(&self, iface: u32, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let Some(icfg) = self.config.interfaces.get(iface as usize) else {
            return true;
        };
        let Some(name) = &icfg.acl_in else {
            return true;
        };
        let Some(acl) = self.config.acls.get(name) else {
            return true; // unbound ACL name: no filter installed
        };
        if self.profile.quirks.acl_v2_misread {
            acl.permits_v2_misread(src, dst)
        } else {
            acl.permits(src, dst)
        }
    }

    // ------------------------------------------------------------------
    // Configuration
    // ------------------------------------------------------------------

    fn apply_config_internal(&mut self) {
        self.hostname = self.config.hostname.clone();
        self.iface_addr.clear();
        self.local_addrs.clear();
        self.local_addrs.push(self.loopback);
        for (idx, iface) in self.config.interfaces.iter().enumerate() {
            if let Some(cidr) = iface.addr {
                self.iface_addr.insert(idx as u32, cidr.addr);
                self.local_addrs.push(cidr.addr);
            }
        }
        let Some(bgp) = &self.config.bgp else {
            self.peers.clear();
            self.peer_by_iface.clear();
            self.networks.clear();
            return;
        };
        self.asn = bgp.asn;
        self.router_id = if bgp.router_id == Ipv4Addr::UNSPECIFIED {
            self.loopback
        } else {
            bgp.router_id
        };
        self.networks = bgp.networks.iter().copied().collect();
        self.peers = bgp
            .neighbors
            .iter()
            .filter_map(|n| {
                let iface = self.iface_for_peer(n.addr)?;
                let iface_down = self
                    .config
                    .interfaces
                    .get(iface as usize)
                    .is_some_and(|i| i.shutdown);
                Some(Peer {
                    addr: n.addr,
                    remote_as: n.remote_as,
                    iface,
                    shutdown: n.shutdown,
                    route_map_in: n.route_map_in.clone(),
                    route_map_out: n.route_map_out.clone(),
                    state: SessionState::Idle,
                    link_up: !iface_down,
                    remote_token: None,
                    adj_in: PrefixMap::default(),
                    advertised: PrefixMap::default(),
                    pending: PrefixMap::default(),
                })
            })
            .collect();
        self.peer_by_iface = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| (p.iface, i))
            .collect();
    }

    fn iface_for_peer(&self, peer: Ipv4Addr) -> Option<u32> {
        for (idx, iface) in self.config.interfaces.iter().enumerate() {
            if let Some(cidr) = iface.addr {
                if cidr.network().contains(peer) && cidr.addr != peer {
                    return Some(idx as u32);
                }
            }
        }
        None
    }

    fn max_paths(&self) -> usize {
        self.config
            .bgp
            .as_ref()
            .map_or(1, |b| b.max_paths.max(1) as usize)
    }

    // ------------------------------------------------------------------
    // Session machinery
    // ------------------------------------------------------------------

    fn send_open(&self, out: &mut Vec<(u32, Frame)>, peer: &Peer) {
        out.push((
            peer.iface,
            Frame::Bgp(BgpMsg::Open {
                asn: self.asn,
                router_id: self.router_id,
                hold_secs: 180,
                session_token: self.session_token,
            }),
        ));
    }

    fn session_down(&mut self, idx: usize, actions: &mut OsActions) {
        let peer = &mut self.peers[idx];
        let was_established = peer.state == SessionState::Established;
        peer.state = SessionState::Idle;
        peer.pending.clear();
        peer.advertised.clear();
        if was_established {
            self.flaps += 1;
            let flushed: Vec<Ipv4Prefix> = peer.adj_in.drain().map(|(p, _)| p).collect();
            actions.route_ops += flushed.len();
            self.dirty.extend(flushed);
            if let Some(limit) = self.profile.quirks.crash_after_flaps {
                if self.flaps >= limit {
                    // Case-2 bug: the OS crashes after repeated flaps.
                    self.down = true;
                    actions.crashed = true;
                }
            }
        }
    }

    fn establish(&mut self, idx: usize, actions: &mut OsActions) {
        if self.peers[idx].state == SessionState::Established {
            return;
        }
        self.peers[idx].state = SessionState::Established;
        // Full-table advertisement toward the new peer.
        for (&prefix, entry) in &self.loc_rib {
            if let Some(exported) = self.export_to(idx, prefix, entry, &mut None) {
                self.peers[idx].pending.insert(prefix, Some(exported));
                actions.route_ops += 1;
            }
        }
        self.arm_mrai(actions);
    }

    fn arm_mrai(&mut self, actions: &mut OsActions) {
        let any_pending = self.peers.iter().any(|p| !p.pending.is_empty());
        if any_pending && !self.mrai_armed {
            self.mrai_armed = true;
            actions.timers.push((self.profile.mrai, TimerKind::Mrai));
        }
    }

    fn flush_mrai(&mut self, actions: &mut OsActions) {
        self.mrai_armed = false;
        for peer in &mut self.peers {
            if peer.state != SessionState::Established || peer.pending.is_empty() {
                peer.pending.clear();
                continue;
            }
            let mut announced = Vec::new();
            let mut withdrawn = Vec::new();
            for (prefix, change) in peer.pending.drain() {
                match change {
                    Some((attrs, prov)) => {
                        peer.advertised
                            .insert(prefix, (attrs.clone(), prov.clone()));
                        announced.push((prefix, attrs, prov));
                    }
                    None => {
                        if peer.advertised.remove(&prefix).is_some() {
                            withdrawn.push(prefix);
                        }
                    }
                }
            }
            if !announced.is_empty() || !withdrawn.is_empty() {
                announced.sort_by_key(|(p, _, _)| *p);
                withdrawn.sort();
                actions.route_ops += announced.len() + withdrawn.len();
                actions.out.push((
                    peer.iface,
                    Frame::Bgp(BgpMsg::Update {
                        announced,
                        withdrawn,
                    }),
                ));
            }
        }
    }

    // ------------------------------------------------------------------
    // Policy
    // ------------------------------------------------------------------

    /// Returns `Cow::Borrowed` when the matching entry permits without
    /// modifying anything — the common "filter only" policy — so callers
    /// can keep the original allocation (and its interned `Arc`).
    fn apply_route_map<'a>(
        &self,
        map: &RouteMap,
        prefix: Ipv4Prefix,
        attrs: &'a PathAttrs,
    ) -> Option<Cow<'a, PathAttrs>> {
        for entry in &map.entries {
            let matched = entry.matches.iter().all(|m| match m {
                RouteMatch::PrefixList(name) => self
                    .config
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
                            new.as_path.insert(0, self.asn);
                        }
                    }
                    RouteSet::Community(c) => new.communities.push(*c),
                }
            }
            return Some(Cow::Owned(new));
        }
        // No entry matched: implicit deny, as real route maps behave.
        None
    }

    /// The peer-independent half of an export: what `prefix` looks like
    /// once this router re-announces it — the rewritten attributes plus
    /// the causal chain, extended by this router's hop for learned routes
    /// (self-originated routes keep their origin-only chain, matching the
    /// speaker convention). `None` when nobody may hear of the route. The
    /// hop carries the *current* event, so the result is good for the
    /// event being handled and must not be kept beyond it.
    fn export_base(&self, prefix: Ipv4Prefix, entry: &LocEntry) -> Option<RibAttrs> {
        // Firmware bug: stop announcing locally originated networks.
        if self.profile.quirks.stop_announcing_networks && entry.source == RouteSource::Local {
            return None;
        }
        // summary-only aggregates suppress their contributors.
        if self.suppressed_by_aggregate(prefix, entry.source) {
            return None;
        }
        let prov = match entry.source {
            RouteSource::Peer(_) => entry.prov.extended(self.router_id, self.cur_event),
            RouteSource::Local | RouteSource::Aggregate => entry.prov.clone(),
        };
        let announced = entry.attrs.announced_by(self.asn, self.loopback);
        Some((announced.intern(), prov))
    }

    /// The per-peer half: whether peer `idx` is sent `prefix` at all, and
    /// with which attributes. `base` caches [`Self::export_base`] across
    /// the peers of one fan-out; it is filled by the first peer that gets
    /// past the two checks that need no export, so a route that goes to
    /// nobody (a ToR's view of its pod's other leaves) allocates nothing,
    /// and every peer without an outbound map shares the one interned pair.
    fn export_to(
        &self,
        idx: usize,
        prefix: Ipv4Prefix,
        entry: &LocEntry,
        base: &mut Option<Option<RibAttrs>>,
    ) -> Option<RibAttrs> {
        let peer = &self.peers[idx];
        // Split horizon: never export back to the (best) source peer.
        if entry.source == RouteSource::Peer(idx) {
            return None;
        }
        // Sender-side loop check: pointless to send a path the peer will
        // reject (its AS is already in it — ours will be, once announced).
        if peer.remote_as == self.asn || entry.attrs.contains_as(peer.remote_as) {
            return None;
        }
        let base = base
            .get_or_insert_with(|| self.export_base(prefix, entry))
            .as_ref()?;
        let Some(name) = &peer.route_map_out else {
            return Some(base.clone());
        };
        let map = self.config.route_maps.get(name)?;
        match self.apply_route_map(map, prefix, &base.0)? {
            Cow::Borrowed(_) => Some(base.clone()),
            Cow::Owned(modified) => Some((modified.intern(), base.1.clone())),
        }
    }

    fn aggregates(&self) -> &[AggregateConfig] {
        self.config.bgp.as_ref().map_or(&[], |b| &b.aggregates)
    }

    fn suppressed_by_aggregate(&self, prefix: Ipv4Prefix, source: RouteSource) -> bool {
        source != RouteSource::Aggregate
            && self
                .aggregates()
                .iter()
                .any(|a| a.summary_only && a.prefix.covers(prefix) && a.prefix != prefix)
    }

    // ------------------------------------------------------------------
    // Decision process
    // ------------------------------------------------------------------

    /// Total preference order, higher wins: local-pref, then shorter AS
    /// path, then origin, then lower MED, then lower peer address.
    fn candidate_key(attrs: &PathAttrs) -> (u32, Reverse<usize>, Reverse<Origin>, Reverse<u32>) {
        (
            attrs.local_pref,
            Reverse(attrs.as_path.len()),
            Reverse(attrs.origin),
            Reverse(attrs.med),
        )
    }

    fn run_decision(&mut self, actions: &mut OsActions) {
        if self.dirty.is_empty() {
            return;
        }
        for prefix in std::mem::take(&mut self.dirty) {
            self.decide_prefix(prefix, actions);
        }
        self.refresh_aggregates(actions);
        self.arm_mrai(actions);
    }

    fn decide_prefix(&mut self, prefix: Ipv4Prefix, actions: &mut OsActions) {
        actions.route_ops += 1;
        // Local origination always wins (administrative weight).
        let new_entry: Option<LocEntry> = if self.networks.contains(&prefix) {
            Some(LocEntry {
                attrs: PathAttrs::originated(self.loopback).intern(),
                source: RouteSource::Local,
                ecmp: vec![],
                changed_tick: self.change_tick,
                // Stamped with the current event on first origination; the
                // unchanged-check below keeps that first entry alive, so
                // re-decisions never re-stamp it.
                prov: Provenance::originated(OriginKind::Network, self.loopback, self.cur_event),
                reason: DecisionReason::LocalOrigination,
            })
        } else {
            // One walk over the sessions gathers the candidates; best
            // first, ties in peer-address order (stably, so configuration
            // order among equal addresses).
            let mut cands: Vec<_> = self
                .peers
                .iter()
                .enumerate()
                .filter(|(_, p)| p.state == SessionState::Established)
                .filter_map(|(i, p)| {
                    let (attrs, prov) = p.adj_in.get(&prefix)?;
                    Some((Self::candidate_key(attrs), p.addr, i, attrs, prov))
                })
                .collect();
            cands.sort_by_key(|&(key, addr, ..)| (Reverse(key), addr));
            cands.first().map(|&(key, _, bidx, battrs, bprov)| {
                let equal_count = cands.iter().take_while(|&&(k, ..)| k == key).count();
                let ecmp: Vec<usize> = cands[..equal_count.min(self.max_paths())]
                    .iter()
                    .map(|&(_, _, i, ..)| i)
                    .collect();
                // The runner-up key — the best among the losing candidates
                // — names the decision step that eliminated them.
                let reason = match cands.get(equal_count).map(|&(k, ..)| k) {
                    Some(rk) => {
                        if key.0 > rk.0 {
                            DecisionReason::HigherLocalPref
                        } else if key.1 > rk.1 {
                            DecisionReason::ShorterAsPath
                        } else if key.2 > rk.2 {
                            DecisionReason::LowerOriginCode
                        } else {
                            DecisionReason::LowerMed
                        }
                    }
                    // All candidates tied through the attributes: if any
                    // fell off the multipath limit, peer address decided.
                    None if equal_count > ecmp.len() => DecisionReason::LowerPeerAddr,
                    None => DecisionReason::OnlyCandidate,
                };
                LocEntry {
                    attrs: battrs.clone(),
                    source: RouteSource::Peer(bidx),
                    ecmp,
                    changed_tick: self.change_tick,
                    prov: bprov.clone(),
                    reason,
                }
            })
        };

        let old = self.loc_rib.get(&prefix);
        let unchanged = match (&old, &new_entry) {
            (Some(o), Some(n)) => {
                same_attrs(&o.attrs, &n.attrs) && o.ecmp == n.ecmp && o.source == n.source
            }
            (None, None) => true,
            _ => false,
        };
        if unchanged {
            return;
        }
        self.change_tick += 1;

        match new_entry {
            Some(mut entry) => {
                entry.changed_tick = self.change_tick;
                let installed = self.install_fib(prefix, &entry);
                let keep_in_rib =
                    installed || matches!(self.profile.fib_overflow, FibOverflow::SilentDrop);
                if keep_in_rib {
                    self.journal(prefix, MutationKind::Install, Some(&entry));
                    self.loc_rib.insert(prefix, entry);
                } else {
                    // RejectRoute overflow: drop entirely and withdraw.
                    self.journal(prefix, MutationKind::Remove, None);
                    self.loc_rib.remove(&prefix);
                    self.remove_fib(prefix);
                }
            }
            None => {
                self.journal(prefix, MutationKind::Remove, None);
                self.loc_rib.remove(&prefix);
                self.remove_fib(prefix);
            }
        }
        self.enqueue_export(prefix, actions);
    }

    /// Journals one RIB/FIB mutation when tracing is on (no-op otherwise,
    /// so untraced runs pay nothing).
    fn journal(&mut self, prefix: Ipv4Prefix, kind: MutationKind, entry: Option<&LocEntry>) {
        if !self.tracing {
            return;
        }
        self.mutations.push(RouteMutation {
            prefix,
            kind,
            prov: entry.map(|e| e.prov.clone()),
            reason: entry.map(|e| e.reason),
        });
    }

    fn fib_entry_for(&self, entry: &LocEntry) -> FibEntry {
        match entry.source {
            RouteSource::Local => FibEntry::new(vec![NextHop {
                iface: LOCAL_IFACE,
                via: self.loopback,
            }]),
            // Aggregates forward like Null0: present but discard
            // (the more-specific contributors do the real work locally).
            RouteSource::Aggregate => FibEntry::default(),
            RouteSource::Peer(_) => FibEntry::new(
                entry
                    .ecmp
                    .iter()
                    .map(|&i| NextHop {
                        iface: self.peers[i].iface,
                        via: self.peers[i].addr,
                    })
                    .collect(),
            ),
        }
    }

    /// Installs into the kernel FIB (and the ASIC FIB where the image has
    /// one). Returns false when the hardware table overflowed.
    fn install_fib(&mut self, prefix: Ipv4Prefix, entry: &LocEntry) -> bool {
        let fe = self.fib_entry_for(entry);
        let outcome = self.fib.install(prefix, fe.clone());
        if let Some(asic) = &mut self.asic_fib {
            // Case-2 bug: the ASIC sync layer skips default-route updates.
            let skip = self.profile.quirks.skip_default_route_fib && prefix.is_default();
            if !skip {
                asic.install(prefix, fe);
            }
        }
        outcome == crystalnet_dataplane::InstallOutcome::Installed
    }

    fn remove_fib(&mut self, prefix: Ipv4Prefix) {
        self.fib.remove(prefix);
        if let Some(asic) = &mut self.asic_fib {
            let skip = self.profile.quirks.skip_default_route_fib && prefix.is_default();
            if !skip {
                asic.remove(prefix);
            }
        }
    }

    /// Queues, toward every established peer, what the Loc-RIB now holds
    /// for `prefix` — a withdrawal where it holds nothing or the peer may
    /// not hear of it.
    fn enqueue_export(&mut self, prefix: Ipv4Prefix, actions: &mut OsActions) {
        let entry = self.loc_rib.get(&prefix);
        let mut base = None;
        for idx in 0..self.peers.len() {
            if self.peers[idx].state != SessionState::Established {
                continue;
            }
            let exported = entry.and_then(|e| self.export_to(idx, prefix, e, &mut base));
            let peer = &mut self.peers[idx];
            let current = peer.effective_advertised(prefix);
            match (&exported, current) {
                // Same attrs toward this peer ⇒ nothing to send; the
                // provenance is not compared because an attr-identical
                // re-export carries no new routing information.
                (Some(e), Some(c)) if same_attrs(&e.0, &c.0) => {}
                (None, None) => {}
                _ => {
                    actions.route_ops += 1;
                    peer.pending.insert(prefix, exported);
                }
            }
        }
    }

    fn refresh_aggregates(&mut self, actions: &mut OsActions) {
        for i in 0..self.aggregates().len() {
            let agg = self.aggregates()[i];
            // Contributors: more-specific Loc-RIB prefixes under the
            // aggregate.
            let contributor = self
                .loc_rib
                .iter()
                .filter(|(p, e)| {
                    **p != agg.prefix
                        && agg.prefix.covers(**p)
                        && e.source != RouteSource::Aggregate
                })
                // Timing-dependent selection: the most recently changed
                // contributor wins — the §9 non-determinism source.
                .max_by_key(|(p, e)| (e.changed_tick, **p))
                .map(|(p, e)| (*p, e.attrs.clone()));

            match contributor {
                Some((_, contrib_attrs)) => {
                    let attrs = match self.profile.aggregate_mode {
                        AggregateMode::SelectContributorPath => PathAttrs {
                            aggregate: true,
                            next_hop: self.loopback,
                            ..(*contrib_attrs).clone()
                        },
                        AggregateMode::EmptyPath => PathAttrs {
                            as_path: vec![],
                            next_hop: self.loopback,
                            origin: Origin::Igp,
                            med: 0,
                            local_pref: 100,
                            communities: vec![],
                            aggregate: true,
                        },
                    };
                    let attrs = attrs.intern();
                    let changed = self
                        .loc_rib
                        .get(&agg.prefix)
                        .is_none_or(|e| !same_attrs(&e.attrs, &attrs));
                    if changed {
                        self.change_tick += 1;
                        let entry = LocEntry {
                            attrs,
                            source: RouteSource::Aggregate,
                            ecmp: vec![],
                            changed_tick: self.change_tick,
                            prov: Provenance::originated(
                                OriginKind::Aggregate,
                                self.loopback,
                                self.cur_event,
                            ),
                            reason: DecisionReason::AggregateSynthesis,
                        };
                        self.install_fib(agg.prefix, &entry);
                        self.journal(agg.prefix, MutationKind::Install, Some(&entry));
                        self.loc_rib.insert(agg.prefix, entry);
                        self.enqueue_export(agg.prefix, actions);
                    }
                }
                None => {
                    let present = self
                        .loc_rib
                        .get(&agg.prefix)
                        .is_some_and(|e| e.source == RouteSource::Aggregate);
                    if present {
                        self.change_tick += 1;
                        self.journal(agg.prefix, MutationKind::Remove, None);
                        self.loc_rib.remove(&agg.prefix);
                        self.remove_fib(agg.prefix);
                        self.enqueue_export(agg.prefix, actions);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Inbound message handling
    // ------------------------------------------------------------------

    fn on_bgp(&mut self, iface: u32, msg: BgpMsg, actions: &mut OsActions) {
        let Some(&idx) = self.peer_by_iface.get(&iface) else {
            return; // no session configured on this interface
        };
        if self.peers[idx].shutdown || !self.peers[idx].link_up {
            return;
        }
        match msg {
            BgpMsg::Open {
                asn, session_token, ..
            } => {
                if asn != self.peers[idx].remote_as {
                    // Wrong AS (a §2 config-bug class): reject the session
                    // and fall back to Idle so the peer's trailing
                    // Keepalive cannot complete the handshake either.
                    if self.peers[idx].state == SessionState::Established {
                        self.session_down(idx, actions);
                    }
                    self.peers[idx].state = SessionState::Idle;
                    actions
                        .out
                        .push((iface, Frame::Bgp(BgpMsg::Notification { code: 2 })));
                    return;
                }
                // A repeated token is the same incarnation completing the
                // bidirectional Open exchange: nothing to renegotiate.
                if self.peers[idx].remote_token == Some(session_token)
                    && self.peers[idx].state == SessionState::Established
                {
                    return;
                }
                // A *new* token means the peer restarted (Reload, crash
                // recovery): flush the session before re-establishing.
                if self.peers[idx].state == SessionState::Established {
                    self.session_down(idx, actions);
                    if self.down {
                        return; // the flap-crash quirk fired
                    }
                }
                self.peers[idx].remote_token = Some(session_token);
                // Complete the exchange: our Open (so the peer validates
                // our AS and learns our token) plus a Keepalive.
                self.send_open(&mut actions.out, &self.peers[idx]);
                actions.out.push((iface, Frame::Bgp(BgpMsg::Keepalive)));
                self.establish(idx, actions);
            }
            BgpMsg::Keepalive => {
                if self.peers[idx].state == SessionState::OpenSent {
                    self.establish(idx, actions);
                }
            }
            BgpMsg::Update {
                announced,
                withdrawn,
            } => {
                if self.peers[idx].state != SessionState::Established {
                    return;
                }
                actions.route_ops += announced.len() + withdrawn.len();
                for (prefix, attrs, prov) in announced {
                    // eBGP loop prevention: my AS in the path ⇒ discard.
                    if attrs.contains_as(self.asn) {
                        // A previously accepted route may need removal.
                        if self.peers[idx].adj_in.remove(&prefix).is_some() {
                            self.dirty.insert(prefix);
                        }
                        continue;
                    }
                    let accepted = match &self.peers[idx].route_map_in {
                        Some(name) => match self.config.route_maps.get(name) {
                            Some(map) => {
                                self.apply_route_map(map, prefix, &attrs)
                                    .map(|out| match out {
                                        // Permitted unmodified: keep the
                                        // sender's (interned) Arc as-is.
                                        Cow::Borrowed(_) => Arc::clone(&attrs),
                                        Cow::Owned(modified) => modified.intern(),
                                    })
                            }
                            None => Some(attrs),
                        },
                        None => Some(attrs),
                    };
                    match accepted {
                        Some(a) => {
                            // Attr-identical re-announcements keep the old
                            // provenance: no routing change happened, and
                            // event ordering (hence which announcement is
                            // "first") is deterministic.
                            let known = self.peers[idx]
                                .adj_in
                                .get(&prefix)
                                .is_some_and(|cur| same_attrs(&cur.0, &a));
                            if !known {
                                self.peers[idx].adj_in.insert(prefix, (a, prov));
                                self.dirty.insert(prefix);
                            }
                        }
                        None => {
                            if self.peers[idx].adj_in.remove(&prefix).is_some() {
                                self.dirty.insert(prefix);
                            }
                        }
                    }
                }
                for prefix in withdrawn {
                    if self.peers[idx].adj_in.remove(&prefix).is_some() {
                        self.dirty.insert(prefix);
                    }
                }
            }
            BgpMsg::Notification { .. } => {
                self.session_down(idx, actions);
            }
            BgpMsg::RouteRefresh => {
                // RFC 2918 shape: replay the full Adj-RIB-Out toward the
                // requester. The replay goes through the normal MRAI batch
                // and is attribute-identical for unchanged routes, so the
                // receiver's dedup makes it idempotent. Changes already
                // pending toward the peer are newer — keep them.
                if self.peers[idx].state != SessionState::Established {
                    return;
                }
                let peer = &mut self.peers[idx];
                let replay: Vec<(Ipv4Prefix, RibAttrs)> = peer
                    .advertised
                    .iter()
                    .map(|(p, r)| (*p, r.clone()))
                    .collect();
                actions.route_ops += replay.len();
                for (prefix, rib) in replay {
                    peer.pending.entry(prefix).or_insert(Some(rib));
                }
                self.arm_mrai(actions);
            }
        }
    }

    fn on_mgmt(&mut self, command: MgmtCommand, actions: &mut OsActions) {
        match command {
            MgmtCommand::ShowBgpSummary => {
                let rows = self
                    .peers
                    .iter()
                    .map(|p| (p.addr, p.state == SessionState::Established, p.adj_in.len()))
                    .collect();
                actions.response = Some(MgmtResponse::BgpSummary(rows));
            }
            MgmtCommand::ShowRoutes => {
                let rows = self
                    .loc_rib()
                    .into_iter()
                    .map(|(p, a, w)| (p, a.as_path.len(), w))
                    .collect();
                actions.response = Some(MgmtResponse::Routes(rows));
            }
            MgmtCommand::NeighborShutdown(addr) => {
                match self.peers.iter().position(|p| p.addr == addr) {
                    Some(idx) => {
                        self.peers[idx].shutdown = true;
                        actions.out.push((
                            self.peers[idx].iface,
                            Frame::Bgp(BgpMsg::Notification { code: 6 }),
                        ));
                        self.session_down(idx, actions);
                        actions.response = Some(MgmtResponse::Ok);
                    }
                    None => {
                        actions.response = Some(MgmtResponse::Error(format!("no neighbor {addr}")));
                    }
                }
            }
            MgmtCommand::NeighborEnable(addr) => {
                match self.peers.iter().position(|p| p.addr == addr) {
                    Some(idx) => {
                        self.peers[idx].shutdown = false;
                        if self.peers[idx].link_up {
                            self.peers[idx].state = SessionState::OpenSent;
                            self.send_open(&mut actions.out, &self.peers[idx]);
                        }
                        actions.response = Some(MgmtResponse::Ok);
                    }
                    None => {
                        actions.response = Some(MgmtResponse::Error(format!("no neighbor {addr}")));
                    }
                }
            }
            MgmtCommand::AddNetwork(prefix) => {
                if let Some(bgp) = &mut self.config.bgp {
                    bgp.networks.push(prefix);
                }
                self.networks.insert(prefix);
                self.dirty.insert(prefix);
                actions.response = Some(MgmtResponse::Ok);
            }
            MgmtCommand::RemoveNetwork(prefix) => {
                if let Some(bgp) = &mut self.config.bgp {
                    bgp.networks.retain(|p| *p != prefix);
                }
                self.networks.remove(&prefix);
                self.dirty.insert(prefix);
                actions.response = Some(MgmtResponse::Ok);
            }
            MgmtCommand::ApplyAclIn {
                iface,
                acl_name,
                acl,
            } => {
                self.config.acls.insert(acl_name.clone(), acl);
                match self.config.interfaces.iter_mut().find(|i| i.name == iface) {
                    Some(i) => {
                        i.acl_in = Some(acl_name);
                        actions.response = Some(MgmtResponse::Ok);
                    }
                    None => {
                        actions.response =
                            Some(MgmtResponse::Error(format!("no interface {iface}")));
                    }
                }
            }
            MgmtCommand::ReplaceConfig(cfg) => {
                self.config = *cfg;
                self.reset_control_plane();
                // A config replace behaves like a control-plane restart:
                // sessions re-open immediately.
                let boot_actions = self.boot_control_plane();
                actions.out.extend(boot_actions.out);
                actions.timers.extend(boot_actions.timers);
                actions.route_ops += boot_actions.route_ops;
                actions.response = Some(MgmtResponse::Ok);
            }
            MgmtCommand::UpdatePolicy(cfg) => {
                self.soft_refresh(*cfg, actions);
            }
            MgmtCommand::DeviceShutdown => {
                self.down = true;
                actions.response = Some(MgmtResponse::Ok);
            }
        }
    }

    /// Applies a policy-level configuration change without tearing
    /// sessions down (the `SoftRefresh` path of incremental rehearsal).
    ///
    /// Sessions, tokens, and Adj-RIB-In survive. Inbound policy is
    /// re-applied by asking every established peer to replay its
    /// announcements ([`BgpMsg::RouteRefresh`]) — the Adj-RIB-In stores
    /// *post*-import-policy attributes, so both relaxing (denied routes
    /// are absent) and tightening (stale entries must be re-filtered)
    /// need the replay, which goes through the normal Update path under
    /// the new policy. Outbound policy is re-applied locally by
    /// re-exporting the whole Loc-RIB and diffing against each peer's
    /// Adj-RIB-Out ([`BgpRouterOs::refresh_exports`]) — the decision
    /// process alone would not re-export routes whose best path is
    /// unchanged.
    fn soft_refresh(&mut self, cfg: DeviceConfig, actions: &mut OsActions) {
        self.config = cfg;
        self.hostname = self.config.hostname.clone();
        if let Some(bgp) = &self.config.bgp {
            let new_networks: BTreeSet<Ipv4Prefix> = bgp.networks.iter().copied().collect();
            let affected: Vec<Ipv4Prefix> = self
                .networks
                .symmetric_difference(&new_networks)
                .copied()
                .collect();
            self.networks = new_networks;
            self.dirty.extend(affected);
            // Rebind per-peer policy references (session identity — addr,
            // AS, iface — is unchanged by construction: session-affecting
            // edits are classified `SessionReset` and never reach here).
            for peer in &mut self.peers {
                if let Some(n) = bgp.neighbors.iter().find(|n| n.addr == peer.addr) {
                    peer.route_map_in = n.route_map_in.clone();
                    peer.route_map_out = n.route_map_out.clone();
                }
            }
        }
        // Re-decide everything so aggregate/network edits take effect;
        // unchanged prefixes hit the decision process's no-op path.
        let installed: Vec<Ipv4Prefix> = self.loc_rib.keys().copied().collect();
        self.refresh_exports(&installed, actions);
        self.dirty.extend(installed);
        for peer in &self.peers {
            if peer.state == SessionState::Established {
                actions
                    .out
                    .push((peer.iface, Frame::Bgp(BgpMsg::RouteRefresh)));
            }
        }
        actions.response = Some(MgmtResponse::Ok);
    }

    /// Recomputes the export of every Loc-RIB route toward every
    /// established peer and queues the differences (new announcements,
    /// changed attributes, withdrawals of now-denied routes) into the
    /// MRAI batch. Needed after an outbound-policy change: the decision
    /// process only re-exports prefixes whose *best path* changed.
    fn refresh_exports(&mut self, installed: &[Ipv4Prefix], actions: &mut OsActions) {
        for &prefix in installed {
            self.enqueue_export(prefix, actions);
        }
        self.arm_mrai(actions);
    }

    fn reset_control_plane(&mut self) {
        self.loc_rib.clear();
        self.fib.clear();
        if let Some(asic) = &mut self.asic_fib {
            asic.clear();
        }
        self.dirty.clear();
        self.mrai_armed = false;
        self.apply_config_internal();
    }

    fn boot_control_plane(&mut self) -> OsActions {
        let mut actions = OsActions::default();
        self.booted = true;
        // New incarnation: derived from the router id so tokens are
        // globally distinct, bumped per boot so restarts are detectable.
        self.session_token =
            (u64::from(self.router_id.0) << 20) | ((self.session_token & 0xfffff) + 1);
        // Originate configured networks.
        let networks: Vec<Ipv4Prefix> = self.networks.iter().copied().collect();
        self.dirty.extend(networks);
        self.run_decision(&mut actions);
        // Open sessions on all up links.
        for idx in 0..self.peers.len() {
            if self.peers[idx].link_up && !self.peers[idx].shutdown {
                self.peers[idx].state = SessionState::OpenSent;
                self.send_open(&mut actions.out, &self.peers[idx]);
            }
        }
        actions
    }
}

impl DeviceOs for BgpRouterOs {
    fn clone_boxed(&self) -> Box<dyn DeviceOs> {
        Box::new(self.clone())
    }

    fn handle(&mut self, _now: SimTime, event: OsEvent) -> OsActions {
        if self.down {
            return OsActions::default();
        }
        let mut actions = OsActions::default();
        match event {
            OsEvent::Boot => {
                return self.boot_control_plane();
            }
            OsEvent::LinkUp(iface) => {
                if let Some(&idx) = self.peer_by_iface.get(&iface) {
                    self.peers[idx].link_up = true;
                    if !self.peers[idx].shutdown {
                        self.peers[idx].state = SessionState::OpenSent;
                        self.send_open(&mut actions.out, &self.peers[idx]);
                    }
                }
            }
            OsEvent::LinkDown(iface) => {
                if let Some(&idx) = self.peer_by_iface.get(&iface) {
                    self.peers[idx].link_up = false;
                    self.session_down(idx, &mut actions);
                }
            }
            OsEvent::Frame { iface, frame } => match frame {
                Frame::Bgp(msg) => self.on_bgp(iface, msg, &mut actions),
                Frame::Arp(_) if self.profile.quirks.arp_trap_broken => {
                    // Case-2 bug: the trap never delivers ARP to the CPU.
                }
                Frame::Arp(req) if req.is_request => {
                    // Healthy firmware answers ARP for its own addresses.
                    if self.local_addrs.contains(&req.target_ip) {
                        actions.out.push((
                            iface,
                            Frame::Arp(crystalnet_dataplane::ArpMessage {
                                is_request: false,
                                sender_ip: req.target_ip,
                                sender_mac: crystalnet_net::MacAddr::from_id(req.target_ip.0),
                                target_ip: req.sender_ip,
                            }),
                        ));
                    }
                }
                Frame::Arp(_) | Frame::Data(_) | Frame::Ospf(_) => {}
            },
            OsEvent::Timer(TimerKind::Mrai) => {
                self.flush_mrai(&mut actions);
            }
            OsEvent::Timer(_) => {}
            OsEvent::Mgmt(cmd) => {
                self.on_mgmt(cmd, &mut actions);
            }
        }
        if self.booted && !self.down {
            self.run_decision(&mut actions);
        }
        actions
    }

    fn fib(&self) -> &Fib {
        self.asic_fib.as_ref().unwrap_or(&self.fib)
    }

    fn rib_size(&self) -> usize {
        self.loc_rib.len()
    }

    fn is_down(&self) -> bool {
        self.down
    }

    fn hostname(&self) -> &str {
        &self.hostname
    }

    fn local_addrs(&self) -> &[Ipv4Addr] {
        &self.local_addrs
    }

    fn filter_permits(&self, ingress: Option<u32>, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        match ingress {
            Some(iface) => self.acl_permits(iface, src, dst),
            None => true,
        }
    }

    fn adj_rib_in(&self, iface: u32) -> Vec<(Ipv4Prefix, Arc<PathAttrs>)> {
        let Some(&idx) = self.peer_by_iface.get(&iface) else {
            return Vec::new();
        };
        let mut rows: Vec<(Ipv4Prefix, Arc<PathAttrs>)> = self.peers[idx]
            .adj_in
            .iter()
            .map(|(p, (a, _))| (*p, a.clone()))
            .collect();
        rows.sort_by_key(|(p, _)| *p);
        rows
    }

    fn begin_event(&mut self, id: EventId) {
        self.cur_event = id;
    }

    fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.mutations.clear();
        }
    }

    fn take_route_mutations(&mut self) -> Vec<RouteMutation> {
        std::mem::take(&mut self.mutations)
    }

    fn route_detail(&self, prefix: Ipv4Prefix) -> Option<RouteDetail> {
        self.loc_rib.get(&prefix).map(|e| RouteDetail {
            attrs: e.attrs.clone(),
            prov: e.prov.clone(),
            reason: e.reason,
        })
    }

    fn routes_with_detail(&self) -> Vec<(Ipv4Prefix, RouteDetail)> {
        let mut rows: Vec<(Ipv4Prefix, RouteDetail)> = self
            .loc_rib
            .iter()
            .map(|(p, e)| {
                (
                    *p,
                    RouteDetail {
                        attrs: e.attrs.clone(),
                        prov: e.prov.clone(),
                        reason: e.reason,
                    },
                )
            })
            .collect();
        rows.sort_by_key(|(p, _)| *p);
        rows
    }
}
