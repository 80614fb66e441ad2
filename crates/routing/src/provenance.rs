//! Route provenance: the causal record of *why* a RIB/FIB entry exists.
//!
//! Every route a device carries can be explained as a chain: an origin
//! announcement (a static speaker script, a `network` statement, an
//! aggregate, or an OSPF LSA), the sequence of propagation hops that
//! carried it here (each hop naming the re-announcing router and the
//! stable [`EventId`] of the event that sent it), and the best-path
//! decision that made it win. [`Provenance`] packs the first two;
//! [`DecisionReason`] names the third.
//!
//! Provenance records are hash-consed exactly like
//! [`PathAttrs`](crate::attrs::PathAttrs): in a Clos fabric thousands of
//! routes share a handful of propagation shapes, so interning keeps the
//! hot path clone-free — adj-RIB-in entries, Loc-RIB entries and exported
//! updates all hold the same `Arc`.

use crate::intern::Interner;
use crystalnet_net::{Ipv4Addr, Ipv4Prefix};
use crystalnet_sim::EventId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What kind of origination started a route's causal chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OriginKind {
    /// A static speaker script (boundary injection, §5). Lemma 5.1 audits
    /// that every boundary-crossing route has this kind.
    Speaker,
    /// A `network` statement on an emulated device.
    Network,
    /// An `aggregate-address` synthesis.
    Aggregate,
    /// An OSPF-learned route redistributed into the FIB.
    Ospf,
}

impl OriginKind {
    /// Short label for traces and rendered explanations.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            OriginKind::Speaker => "speaker",
            OriginKind::Network => "network",
            OriginKind::Aggregate => "aggregate",
            OriginKind::Ospf => "ospf",
        }
    }
}

/// One propagation hop: a router re-announced the route under an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProvHop {
    /// Router id (loopback) of the re-announcing device.
    pub router_id: Ipv4Addr,
    /// Stable id of the event whose firing sent the announcement.
    pub event: EventId,
}

/// The interned causal record attached to a route.
///
/// Hops run origin-first: `hops[0]` is the first re-announcement after
/// the origination, and the last hop is the neighbor that announced the
/// route to the holder. A directly learned route has a single hop; a
/// locally originated route has none.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Provenance {
    /// How the chain started.
    pub origin_kind: OriginKind,
    /// Router id (loopback) of the originating device.
    pub origin_router: Ipv4Addr,
    /// Stable id of the origination event ([`EventId::ZERO`] when the
    /// origination happened outside the event loop, e.g. at boot
    /// scheduling time).
    pub origin_event: EventId,
    /// Propagation chain, origin-first.
    pub hops: Vec<ProvHop>,
}

static INTERNER: Interner<Provenance> = Interner::new();

impl Provenance {
    /// Interns a freshly originated chain (no hops yet).
    #[must_use]
    pub fn originated(kind: OriginKind, router: Ipv4Addr, event: EventId) -> Arc<Provenance> {
        Provenance {
            origin_kind: kind,
            origin_router: router,
            origin_event: event,
            hops: Vec::new(),
        }
        .intern()
    }

    /// Interns a copy of `self` extended by one propagation hop. The BGP
    /// exporter calls this once per exported prefix and event; the peers
    /// of the fan-out share the returned `Arc`.
    #[must_use]
    pub fn extended(&self, router_id: Ipv4Addr, event: EventId) -> Arc<Provenance> {
        let mut hops = Vec::with_capacity(self.hops.len() + 1);
        hops.extend_from_slice(&self.hops);
        hops.push(ProvHop { router_id, event });
        Provenance {
            origin_kind: self.origin_kind,
            origin_router: self.origin_router,
            origin_event: self.origin_event,
            hops,
        }
        .intern()
    }

    /// Hash-conses `self`: two interned handles are `Arc::ptr_eq` iff
    /// their contents are `==`.
    #[must_use]
    pub fn intern(self) -> Arc<Provenance> {
        INTERNER.intern(self).0
    }

    /// Number of distinct chains currently interned.
    #[must_use]
    pub fn interned_count() -> usize {
        INTERNER.len()
    }

    /// Drops interned chains no longer referenced outside the table.
    pub fn intern_sweep() {
        INTERNER.sweep();
    }

    /// The device chain implied by the provenance: origin router first,
    /// then each re-announcing router in propagation order.
    #[must_use]
    pub fn router_chain(&self) -> Vec<Ipv4Addr> {
        let mut chain = Vec::with_capacity(self.hops.len() + 1);
        chain.push(self.origin_router);
        chain.extend(self.hops.iter().map(|h| h.router_id));
        chain
    }

    /// A deterministic content digest (FNV-1a over the chain), used to
    /// reference this provenance compactly from packet-hop trace records.
    /// Deterministic because every component — kinds, router ids, event
    /// ids — is itself deterministic for a fixed seed.
    #[must_use]
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(match self.origin_kind {
            OriginKind::Speaker => 1,
            OriginKind::Network => 2,
            OriginKind::Aggregate => 3,
            OriginKind::Ospf => 4,
        });
        eat(u64::from(self.origin_router.0));
        eat(self.origin_event.time_ns);
        eat(self.origin_event.key);
        for hop in &self.hops {
            eat(u64::from(hop.router_id.0));
            eat(hop.event.time_ns);
            eat(hop.event.key);
        }
        h
    }
}

/// Why the best-path decision picked (or synthesized) this route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DecisionReason {
    /// Locally originated routes beat everything learned.
    LocalOrigination,
    /// Synthesized by `aggregate-address`.
    AggregateSynthesis,
    /// The only viable candidate — no contest.
    OnlyCandidate,
    /// Won on higher `LOCAL_PREF`.
    HigherLocalPref,
    /// Won on shorter `AS_PATH`.
    ShorterAsPath,
    /// Won on lower origin code (IGP < EGP < Incomplete).
    LowerOriginCode,
    /// Won on lower MED.
    LowerMed,
    /// Tied through the attribute comparison; lowest peer address wins.
    LowerPeerAddr,
}

impl DecisionReason {
    /// Short label for traces and rendered explanations.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DecisionReason::LocalOrigination => "local-origination",
            DecisionReason::AggregateSynthesis => "aggregate-synthesis",
            DecisionReason::OnlyCandidate => "only-candidate",
            DecisionReason::HigherLocalPref => "higher-local-pref",
            DecisionReason::ShorterAsPath => "shorter-as-path",
            DecisionReason::LowerOriginCode => "lower-origin-code",
            DecisionReason::LowerMed => "lower-med",
            DecisionReason::LowerPeerAddr => "lower-peer-addr",
        }
    }
}

/// What a best-path run did to one prefix's FIB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// A (new or replacement) best path was installed.
    Install,
    /// The prefix lost its last viable path and was removed.
    Remove,
}

impl MutationKind {
    /// Short label for traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::Install => "fib_install",
            MutationKind::Remove => "fib_remove",
        }
    }
}

/// One RIB/FIB mutation performed while handling an event, reported by
/// [`DeviceOs::take_route_mutations`](crate::os::DeviceOs::take_route_mutations)
/// so the harness can emit trace records without the OS knowing about
/// recorders.
#[derive(Debug, Clone)]
pub struct RouteMutation {
    /// The mutated prefix.
    pub prefix: Ipv4Prefix,
    /// Install or remove.
    pub kind: MutationKind,
    /// Provenance of the winning path (`None` for removals).
    pub prov: Option<Arc<Provenance>>,
    /// Decision reason for the winning path (`None` for removals).
    pub reason: Option<DecisionReason>,
}

/// Everything known about one installed route, for `explain_route`.
#[derive(Debug, Clone)]
pub struct RouteDetail {
    /// The winning path's attributes.
    pub attrs: Arc<crate::attrs::PathAttrs>,
    /// The winning path's causal chain.
    pub prov: Arc<Provenance>,
    /// Why it won.
    pub reason: DecisionReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, k: u64) -> EventId {
        EventId { time_ns: t, key: k }
    }

    #[test]
    fn interning_shares_equal_chains() {
        let a = Provenance::originated(OriginKind::Speaker, Ipv4Addr(900_001), ev(5, 7));
        let b = Provenance::originated(OriginKind::Speaker, Ipv4Addr(900_001), ev(5, 7));
        assert!(Arc::ptr_eq(&a, &b));
        let c = a.extended(Ipv4Addr(900_002), ev(9, 11));
        let d = a.extended(Ipv4Addr(900_002), ev(9, 11));
        assert!(Arc::ptr_eq(&c, &d));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.hops.len(), 1);
        assert_eq!(c.origin_router, Ipv4Addr(900_001));
    }

    #[test]
    fn router_chain_runs_origin_first() {
        let p = Provenance::originated(OriginKind::Network, Ipv4Addr(1), ev(0, 1))
            .extended(Ipv4Addr(2), ev(1, 2))
            .extended(Ipv4Addr(3), ev(2, 3));
        assert_eq!(
            p.router_chain(),
            vec![Ipv4Addr(1), Ipv4Addr(2), Ipv4Addr(3)]
        );
    }

    #[test]
    fn digest_distinguishes_chains() {
        let a = Provenance::originated(OriginKind::Speaker, Ipv4Addr(800_001), ev(5, 7));
        let b = a.extended(Ipv4Addr(800_002), ev(9, 11));
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.digest());
        let a2 = Provenance::originated(OriginKind::Speaker, Ipv4Addr(800_001), ev(5, 7));
        assert_eq!(a.digest(), a2.digest());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(OriginKind::Speaker.label(), "speaker");
        assert_eq!(DecisionReason::LowerPeerAddr.label(), "lower-peer-addr");
        assert_eq!(MutationKind::Install.label(), "fib_install");
    }
}
