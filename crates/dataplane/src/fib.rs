//! The forwarding information base: longest-prefix-match with ECMP sets
//! and hardware capacity limits.
//!
//! Two of the paper's §2 incidents live here: a router whose FIB filled up
//! and silently dropped route installs (blackholing a software load
//! balancer's /24 blocks), and vendor-divergent behaviour "after FIB is
//! full". [`Fib`] therefore models a bounded table with an explicit,
//! observable overflow outcome that vendor profiles interpret differently.

use crystalnet_net::{IdMap, Ipv4Addr, Ipv4Prefix};
use serde::{Deserialize, Serialize};

/// A resolved next hop: egress interface plus the peer's address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NextHop {
    /// Egress interface index on the local device.
    pub iface: u32,
    /// Address of the adjacent device on that interface.
    pub via: Ipv4Addr,
}

/// A FIB entry: the ECMP set for one prefix.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FibEntry {
    /// Equal-cost next hops, kept sorted for deterministic hashing.
    pub next_hops: Vec<NextHop>,
}

impl FibEntry {
    /// An entry with the given hops (deduplicated and sorted).
    #[must_use]
    pub fn new(mut next_hops: Vec<NextHop>) -> Self {
        next_hops.sort_unstable();
        next_hops.dedup();
        FibEntry { next_hops }
    }

    /// Whether the entry can forward anywhere.
    #[must_use]
    pub fn is_reachable(&self) -> bool {
        !self.next_hops.is_empty()
    }
}

/// Outcome of a FIB install attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstallOutcome {
    /// Installed (or updated in place).
    Installed,
    /// The table is at capacity and the entry was **silently dropped** —
    /// the behaviour behind the §2 load-balancer blackhole.
    DroppedFull,
}

/// A longest-prefix-match table with an optional hardware capacity.
///
/// Lookup walks per-length maps from /32 down to /0; inserts of an
/// existing prefix update in place and never count against capacity twice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fib {
    by_len: Vec<IdMap<u32, FibEntry>>,
    len_present: u64,
    count: usize,
    capacity: Option<usize>,
    dropped: u64,
}

impl Default for Fib {
    fn default() -> Self {
        Fib::new(None)
    }
}

impl Fib {
    /// An empty FIB with the given hardware capacity.
    #[must_use]
    pub fn new(capacity: Option<usize>) -> Self {
        Fib {
            by_len: (0..=32).map(|_| IdMap::default()).collect(),
            len_present: 0,
            count: 0,
            capacity,
            dropped: 0,
        }
    }

    /// Number of installed prefixes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total routing-table entries counting each ECMP next hop
    /// (the unit of Table 3's "#Routes" column).
    #[must_use]
    pub fn route_entry_count(&self) -> usize {
        self.by_len
            .iter()
            .flat_map(|m| m.values())
            .map(|e| e.next_hops.len().max(1))
            .sum()
    }

    /// Installs (or replaces) an entry.
    pub fn install(&mut self, prefix: Ipv4Prefix, entry: FibEntry) -> InstallOutcome {
        let map = &mut self.by_len[prefix.len() as usize];
        let key = prefix.network().0;
        if let std::collections::hash_map::Entry::Occupied(mut e) = map.entry(key) {
            e.insert(entry);
            return InstallOutcome::Installed;
        }
        if let Some(cap) = self.capacity {
            if self.count >= cap {
                self.dropped += 1;
                return InstallOutcome::DroppedFull;
            }
        }
        map.insert(key, entry);
        self.len_present |= 1u64 << prefix.len();
        self.count += 1;
        InstallOutcome::Installed
    }

    /// Removes a prefix; returns the old entry if present.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> Option<FibEntry> {
        let map = &mut self.by_len[prefix.len() as usize];
        let removed = map.remove(&prefix.network().0);
        if removed.is_some() {
            self.count -= 1;
            if map.is_empty() {
                self.len_present &= !(1u64 << prefix.len());
            }
        }
        removed
    }

    /// The entry for an exact prefix.
    #[must_use]
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&FibEntry> {
        self.by_len[prefix.len() as usize].get(&prefix.network().0)
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &FibEntry)> {
        for len in (0..=32u8).rev() {
            if self.len_present & (1u64 << len) == 0 {
                continue;
            }
            let key = addr.0 & Ipv4Prefix::mask(len);
            if let Some(e) = self.by_len[len as usize].get(&key) {
                return Some((Ipv4Prefix::new(Ipv4Addr(key), len), e));
            }
        }
        None
    }

    /// Iterates all `(prefix, entry)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &FibEntry)> {
        self.by_len.iter().enumerate().flat_map(|(len, map)| {
            map.iter()
                .map(move |(k, e)| (Ipv4Prefix::new(Ipv4Addr(*k), len as u8), e))
        })
    }

    /// Installs dropped due to a full table so far.
    #[must_use]
    pub fn dropped_installs(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        for m in &mut self.by_len {
            m.clear();
        }
        self.len_present = 0;
        self.count = 0;
    }
}

/// Deterministic 5-tuple ECMP hash, selecting one hop from an entry.
///
/// Mirrors hardware behaviour: the same flow always picks the same member,
/// different flows spread across members.
#[must_use]
pub fn ecmp_select(
    entry: &FibEntry,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    proto: u8,
    flow: u16,
) -> Option<NextHop> {
    if entry.next_hops.is_empty() {
        return None;
    }
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in [
        src.0 as u64,
        dst.0 as u64,
        u64::from(proto),
        u64::from(flow),
    ] {
        h ^= v;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    let idx = (h % entry.next_hops.len() as u64) as usize;
    Some(entry.next_hops[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }
    fn hop(i: u32) -> NextHop {
        NextHop {
            iface: i,
            via: Ipv4Addr(i),
        }
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut fib = Fib::default();
        fib.install(p("0.0.0.0/0"), FibEntry::new(vec![hop(0)]));
        fib.install(p("10.0.0.0/8"), FibEntry::new(vec![hop(1)]));
        fib.install(p("10.1.0.0/16"), FibEntry::new(vec![hop(2)]));
        fib.install(p("10.1.2.0/24"), FibEntry::new(vec![hop(3)]));

        let cases = [
            ("10.1.2.3", 3u32),
            ("10.1.9.9", 2),
            ("10.9.9.9", 1),
            ("99.9.9.9", 0),
        ];
        for (addr, want) in cases {
            let (_, e) = fib.lookup(a(addr)).unwrap();
            assert_eq!(e.next_hops[0].iface, want, "addr {addr}");
        }
    }

    #[test]
    fn lookup_miss_without_default() {
        let mut fib = Fib::default();
        fib.install(p("10.0.0.0/8"), FibEntry::new(vec![hop(1)]));
        assert!(fib.lookup(a("11.0.0.1")).is_none());
    }

    #[test]
    fn reinstall_updates_in_place() {
        let mut fib = Fib::new(Some(1));
        assert_eq!(
            fib.install(p("10.0.0.0/8"), FibEntry::new(vec![hop(1)])),
            InstallOutcome::Installed
        );
        // Same prefix again: updates even at capacity.
        assert_eq!(
            fib.install(p("10.0.0.0/8"), FibEntry::new(vec![hop(2)])),
            InstallOutcome::Installed
        );
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.get(p("10.0.0.0/8")).unwrap().next_hops[0].iface, 2);
    }

    #[test]
    fn capacity_overflow_is_silent_drop() {
        // The §2 incident: /16 split into /24s, downstream FIB too small.
        let mut fib = Fib::new(Some(100));
        let blocks = p("10.1.0.0/16").subnets(24);
        let mut dropped = 0;
        for b in blocks {
            if fib.install(b, FibEntry::new(vec![hop(1)])) == InstallOutcome::DroppedFull {
                dropped += 1;
            }
        }
        assert_eq!(fib.len(), 100);
        assert_eq!(dropped, 156);
        assert_eq!(fib.dropped_installs(), 156);
        // Traffic to a dropped block blackholes (no default route).
        assert!(fib.lookup(a("10.1.200.1")).is_none());
    }

    #[test]
    fn remove_and_clear() {
        let mut fib = Fib::default();
        fib.install(p("10.0.0.0/8"), FibEntry::new(vec![hop(1)]));
        fib.install(p("20.0.0.0/8"), FibEntry::new(vec![hop(2)]));
        assert!(fib.remove(p("10.0.0.0/8")).is_some());
        assert!(fib.remove(p("10.0.0.0/8")).is_none());
        assert_eq!(fib.len(), 1);
        assert!(fib.lookup(a("10.1.1.1")).is_none());
        fib.clear();
        assert!(fib.is_empty());
        assert!(fib.lookup(a("20.1.1.1")).is_none());
    }

    #[test]
    fn entry_normalizes_hops() {
        let e = FibEntry::new(vec![hop(3), hop(1), hop(3), hop(2)]);
        assert_eq!(e.next_hops, vec![hop(1), hop(2), hop(3)]);
        assert!(e.is_reachable());
        assert!(!FibEntry::default().is_reachable());
    }

    #[test]
    fn route_entry_count_counts_multipath() {
        let mut fib = Fib::default();
        fib.install(p("10.0.0.0/8"), FibEntry::new(vec![hop(1), hop(2)]));
        fib.install(p("20.0.0.0/8"), FibEntry::new(vec![hop(1)]));
        assert_eq!(fib.route_entry_count(), 3);
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let e = FibEntry::new((0..4).map(hop).collect());
        let pick = |flow: u16| {
            ecmp_select(&e, a("10.0.0.1"), a("10.0.0.2"), 6, flow)
                .unwrap()
                .iface
        };
        // Deterministic per flow.
        assert_eq!(pick(7), pick(7));
        // Spreads across members over many flows.
        let mut seen = std::collections::BTreeSet::new();
        for flow in 0..64 {
            seen.insert(pick(flow));
        }
        assert_eq!(seen.len(), 4);
        // Empty entry yields nothing.
        assert!(ecmp_select(&FibEntry::default(), a("1.1.1.1"), a("2.2.2.2"), 6, 0).is_none());
    }
}
