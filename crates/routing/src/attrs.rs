//! BGP path attributes and route representation.
//!
//! [`PathAttrs::intern`] hash-conses attribute sets fleet-wide:
//! structurally identical `PathAttrs` resolve to the *same* [`Interned`]
//! handle, across devices and worker threads. In a Clos fabric most routes
//! to a prefix carry one of a handful of attribute shapes, so interning
//! collapses O(devices × prefixes) allocations to O(distinct shapes) — at
//! L-DC scale the emulation holds O(20M) routing-table entries (Table 3).
//! A handle is a `Copy` reference, so an Adj-RIB entry is plain data:
//! copying those tables copies bytes, and comparing two sets is one
//! address comparison.

use crate::intern::{HeapBytes, Interned, Interner};
use crystalnet_net::{Asn, Ipv4Addr};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lookups served from the table without allocating.
static INTERN_HITS: AtomicU64 = AtomicU64::new(0);
/// Lookups that interned a new canonical set.
static INTERN_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide interner statistics as `(hits, misses)` since process
/// start. The table outlives individual emulations (and is shared by
/// parallel workers), so treat these as execution diagnostics rather than
/// canonical per-run facts. The BGP exporter memoises its re-announced
/// sets per device, so it interns once per learned set a device
/// re-announces, not per prefix, event or receiving peer: a hit means
/// another device (or another learned set) built the same set, and the
/// hit share measures fleet-wide sharing, not fan-out width.
#[must_use]
pub fn intern_stats() -> (u64, u64) {
    (
        INTERN_HITS.load(Ordering::Relaxed),
        INTERN_MISSES.load(Ordering::Relaxed),
    )
}

/// BGP route origin, in decision-process preference order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// Originated by an IGP (`network` statement).
    Igp,
    /// EGP (legacy).
    Egp,
    /// Incomplete (redistributed).
    Incomplete,
}

/// Path attributes attached to an announced prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathAttrs {
    /// Flattened `AS_PATH` (AS_SEQUENCE only; production modifications are
    /// "mostly just repeating individual ASes", §5.2).
    pub as_path: Vec<Asn>,
    /// `NEXT_HOP`: address of the announcing interface.
    pub next_hop: Ipv4Addr,
    /// Origin code.
    pub origin: Origin,
    /// Multi-exit discriminator.
    pub med: u32,
    /// Local preference (meaningful within an AS; default 100).
    pub local_pref: u32,
    /// Community values.
    pub communities: Vec<u32>,
    /// Set when this route was produced by `aggregate-address` — the
    /// source of the §9 non-determinism the FIB comparator tolerates.
    pub aggregate: bool,
}

impl PathAttrs {
    /// Attributes for a locally originated prefix.
    #[must_use]
    pub fn originated(next_hop: Ipv4Addr) -> Self {
        PathAttrs {
            as_path: Vec::new(),
            next_hop,
            origin: Origin::Igp,
            med: 0,
            local_pref: 100,
            communities: Vec::new(),
            aggregate: false,
        }
    }

    /// Whether the path contains `asn` (eBGP loop prevention).
    #[must_use]
    pub fn contains_as(&self, asn: Asn) -> bool {
        self.as_path.contains(&asn)
    }

    /// A copy re-announced by `asn` from `next_hop`: prepends the AS and
    /// rewrites the next hop, resetting non-transitive attributes as eBGP
    /// does.
    #[must_use]
    pub fn announced_by(&self, asn: Asn, next_hop: Ipv4Addr) -> PathAttrs {
        let mut as_path = Vec::with_capacity(self.as_path.len() + 1);
        as_path.push(asn);
        as_path.extend_from_slice(&self.as_path);
        PathAttrs {
            as_path,
            next_hop,
            origin: self.origin,
            med: 0,          // MED is non-transitive across ASes
            local_pref: 100, // local-pref never crosses an eBGP session
            communities: self.communities.clone(),
            aggregate: self.aggregate,
        }
    }
}

static INTERNER: Interner<PathAttrs> = Interner::new();

impl PathAttrs {
    /// Hash-conses `self`: returns the canonical handle for this
    /// attribute set, allocating only if no structurally equal set has been
    /// interned before.
    ///
    /// The guarantee callers rely on (and the differential tests assert):
    /// two interned handles are `==` **iff** their contents are. The table
    /// is process-wide and `Mutex`-guarded, so threads share it safely;
    /// interning order never affects which value a handle dereferences to,
    /// so it cannot perturb determinism.
    #[must_use]
    pub fn intern(self) -> Interned<PathAttrs> {
        let (handle, hit) = INTERNER.intern(self);
        let counter = if hit { &INTERN_HITS } else { &INTERN_MISSES };
        counter.fetch_add(1, Ordering::Relaxed);
        handle
    }

    /// Number of distinct attribute sets interned since process start.
    /// The table keeps every set it interns, so this follows the distinct
    /// sets a process has seen, not the routes alive now.
    #[must_use]
    pub fn interned_count() -> usize {
        INTERNER.len()
    }

    /// Bytes the interned attribute sets hold (each set and its AS path
    /// and communities, plus the intern table), since process start.
    #[must_use]
    pub fn interned_bytes() -> u64 {
        INTERNER.bytes()
    }
}

impl HeapBytes for PathAttrs {
    fn heap_bytes(&self) -> usize {
        self.as_path.capacity() * size_of::<Asn>() + self.communities.capacity() * size_of::<u32>()
    }
}

impl Deserialize for Interned<PathAttrs> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        PathAttrs::from_value(v).map(PathAttrs::intern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_preference_order() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
    }

    #[test]
    fn announced_by_prepends_and_resets() {
        let base = PathAttrs {
            as_path: vec![Asn(2), Asn(1)],
            next_hop: Ipv4Addr(9),
            origin: Origin::Igp,
            med: 50,
            local_pref: 300,
            communities: vec![7],
            aggregate: false,
        };
        let out = base.announced_by(Asn(6), Ipv4Addr(10));
        assert_eq!(out.as_path, vec![Asn(6), Asn(2), Asn(1)]);
        assert_eq!(out.next_hop, Ipv4Addr(10));
        assert_eq!(out.med, 0);
        assert_eq!(out.local_pref, 100);
        assert_eq!(out.communities, vec![7]); // communities are transitive
    }

    #[test]
    fn loop_detection() {
        let attrs = PathAttrs {
            as_path: vec![Asn(6), Asn(2), Asn(1)],
            ..PathAttrs::originated(Ipv4Addr(0))
        };
        assert!(attrs.contains_as(Asn(2)));
        assert!(!attrs.contains_as(Asn(3)));
    }

    #[test]
    fn interning_shares_structurally_equal_sets() {
        let a = PathAttrs {
            as_path: vec![Asn(65001), Asn(65002)],
            ..PathAttrs::originated(Ipv4Addr(42))
        };
        let b = a.clone();
        let c = PathAttrs {
            med: 1,
            ..a.clone()
        };
        let ia = a.intern();
        let ib = b.intern();
        let ic = c.intern();
        assert!(ia == ib && ia.as_ptr() == ib.as_ptr());
        assert!(ia != ic);
        assert_ne!(*ia, *ic);
    }

    #[test]
    fn intern_stats_count_hits_and_misses() {
        let (h0, m0) = intern_stats();
        let unique = PathAttrs {
            communities: vec![0x57a7_0001],
            ..PathAttrs::originated(Ipv4Addr(0x57a7))
        };
        let _first = unique.clone().intern(); // miss: allocates
        let _second = unique.intern(); // hit: shared
        let (h1, m1) = intern_stats();
        // Counters are process-global and only ever advance, so with other
        // tests running concurrently we can only assert monotonicity.
        assert!(h1 > h0, "expected at least one hit");
        assert!(m1 > m0, "expected at least one miss");
    }

    #[test]
    fn originated_defaults() {
        let a = PathAttrs::originated(Ipv4Addr(5));
        assert!(a.as_path.is_empty());
        assert_eq!(a.local_pref, 100);
        assert_eq!(a.origin, Origin::Igp);
        assert!(!a.aggregate);
    }
}
