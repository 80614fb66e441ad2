//! The forwarding information base: longest-prefix-match with ECMP sets
//! and hardware capacity limits.
//!
//! Two of the paper's §2 incidents live here: a router whose FIB filled up
//! and silently dropped route installs (blackholing a software load
//! balancer's /24 blocks), and vendor-divergent behaviour "after FIB is
//! full". [`Fib`] therefore models a bounded table with an explicit,
//! observable overflow outcome that vendor profiles interpret differently.

use crystalnet_net::{CowBytes, CowMap, Ipv4Addr, Ipv4Prefix, SetTable};
use serde::{Deserialize, Serialize};
use std::num::NonZeroU32;

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

/// A group id as the per-length maps store it: one more than its
/// position in the group table, so a map slot stays eight bytes with room
/// for a copy's tombstone.
type Slot = NonZeroU32;

fn slot(group: u32) -> Slot {
    Slot::MIN.saturating_add(group)
}

fn group_of(slot: Slot) -> u32 {
    slot.get() - 1
}

/// A longest-prefix-match table with an optional hardware capacity.
///
/// Lookup walks one map per installed prefix length, longest first;
/// inserts of an existing prefix update in place and never count against
/// capacity twice. The maps hold `u32` ids into a per-table [`SetTable`]
/// of next-hop groups, so an entry is plain data, and they are
/// [`CowMap`]s: a copy of a FIB reads each map's base, the source's own
/// storage, and shares the group table; it owns only the prefixes it
/// writes. `==` compares what the tables forward (prefix → next hops),
/// their capacity and their dropped count — never group ids, which
/// depend on install order.
#[derive(Debug, Clone)]
pub struct Fib {
    /// `(prefix length, network → group slot)` for every length that has
    /// an entry, longest first: the order a lookup probes them in.
    by_len: Vec<(u8, CowMap<u32, Slot>)>,
    groups: SetTable<FibEntry>,
    count: usize,
    capacity: Option<usize>,
    dropped: u64,
}

impl Default for Fib {
    fn default() -> Self {
        Fib::new(None)
    }
}

impl PartialEq for Fib {
    /// Equal counts, and every entry of `self` forwarding as `other`'s
    /// entry for the same prefix does.
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.capacity == other.capacity
            && self.dropped == other.dropped
            && self.by_len.iter().all(|(len, a)| {
                let b = other.map(*len);
                a.iter().all(|(k, &g)| {
                    b.and_then(|b| b.get(k)).is_some_and(|&h| {
                        self.groups.get(group_of(g)) == other.groups.get(group_of(h))
                    })
                })
            })
    }
}

impl Fib {
    /// An empty FIB with the given hardware capacity.
    #[must_use]
    pub fn new(capacity: Option<usize>) -> Self {
        Fib {
            by_len: Vec::new(),
            groups: SetTable::default(),
            count: 0,
            capacity,
            dropped: 0,
        }
    }

    /// The map of prefix length `len`, if any prefix has it.
    fn map(&self, len: u8) -> Option<&CowMap<u32, Slot>> {
        self.by_len.iter().find(|(l, _)| *l == len).map(|(_, m)| m)
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
        self.iter().map(|(_, e)| e.next_hops.len().max(1)).sum()
    }

    /// Distinct next-hop sets stored: at most the distinct sets installed
    /// since the last [`Fib::clear`].
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.values().len()
    }

    /// Bytes the table holds ([`Fib::mem`], both halves).
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.mem().total()
    }

    /// Bytes the table holds, split as [`CowMap::bytes`] splits them:
    /// each per-length map's heap bytes (a copy with no writes reads as
    /// its source), plus, as this table's own, the per-length headers
    /// and the group table — every distinct next-hop set once. Prefixes
    /// that share a set add index bytes only.
    #[must_use]
    pub fn mem(&self) -> CowBytes {
        let maps: CowBytes = self.by_len.iter().map(|(_, m)| m.bytes()).sum();
        let headers = size_of_val(self.by_len.as_slice()) as u64;
        maps + CowBytes {
            own: headers + self.group_bytes(),
            shared: 0,
        }
    }

    /// The group table by length, not capacity: what a copy holds.
    fn group_bytes(&self) -> u64 {
        let groups = self.groups.values();
        let hops: usize = groups
            .iter()
            .map(|e| size_of_val(e.next_hops.as_slice()))
            .sum();
        (size_of_val(groups) + hops) as u64
    }

    /// The id of `entry`'s next-hop set in this table's group table,
    /// stored first if new: what [`Fib::install_group`] installs. An id
    /// names the same set until [`Fib::clear`].
    pub fn group(&mut self, entry: &FibEntry) -> u32 {
        self.groups.intern(entry)
    }

    /// Installs (or replaces) an entry.
    pub fn install(&mut self, prefix: Ipv4Prefix, entry: FibEntry) -> InstallOutcome {
        self.install_with(prefix, |groups| groups.intern(&entry))
    }

    /// Installs (or replaces) `prefix` → the next-hop set `group` names
    /// ([`Fib::group`]): one map write.
    pub fn install_group(&mut self, prefix: Ipv4Prefix, group: u32) -> InstallOutcome {
        self.install_with(prefix, |_| group)
    }

    /// The one install path: `group` names the entry's set, and is asked
    /// only when the install goes in, so a dropped install stores no set.
    fn install_with(
        &mut self,
        prefix: Ipv4Prefix,
        group: impl FnOnce(&mut SetTable<FibEntry>) -> u32,
    ) -> InstallOutcome {
        let (len, key) = (prefix.len(), prefix.network().0);
        let at = self.by_len.partition_point(|(l, _)| *l > len);
        let has_len = self.by_len.get(at).is_some_and(|(l, _)| *l == len);
        if has_len {
            if let Some(installed) = self.by_len[at].1.get_mut(&key) {
                *installed = slot(group(&mut self.groups));
                return InstallOutcome::Installed;
            }
        }
        if let Some(cap) = self.capacity {
            if self.count >= cap {
                self.dropped += 1;
                return InstallOutcome::DroppedFull;
            }
        }
        if !has_len {
            self.by_len.insert(at, (len, CowMap::default()));
        }
        self.by_len[at].1.insert(key, slot(group(&mut self.groups)));
        self.count += 1;
        InstallOutcome::Installed
    }

    /// Removes a prefix; returns whether it was installed.
    pub fn remove(&mut self, prefix: Ipv4Prefix) -> bool {
        let Some(at) = self.by_len.iter().position(|(l, _)| *l == prefix.len()) else {
            return false;
        };
        let map = &mut self.by_len[at].1;
        let removed = map.remove(&prefix.network().0).is_some();
        if removed {
            self.count -= 1;
            if map.is_empty() {
                self.by_len.remove(at);
            }
        }
        removed
    }

    /// The entry for an exact prefix.
    #[must_use]
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&FibEntry> {
        self.map(prefix.len())?
            .get(&prefix.network().0)
            .map(|&g| self.groups.get(group_of(g)))
    }

    /// Longest-prefix-match lookup.
    #[must_use]
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &FibEntry)> {
        self.by_len.iter().find_map(|&(len, ref map)| {
            let key = addr.0 & Ipv4Prefix::mask(len);
            let entry = self.groups.get(group_of(*map.get(&key)?));
            Some((Ipv4Prefix::new(Ipv4Addr(key), len), entry))
        })
    }

    /// Iterates all `(prefix, entry)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Prefix, &FibEntry)> {
        self.by_len.iter().flat_map(move |(len, map)| {
            map.iter().map(move |(k, &g)| {
                let prefix = Ipv4Prefix::new(Ipv4Addr(*k), *len);
                (prefix, self.groups.get(group_of(g)))
            })
        })
    }

    /// The prefixes whose entries may differ between `self` and `other`
    /// (unordered, possibly repeated): per prefix length, the writes
    /// either side holds over a base both read ([`CowMap::diff_keys`]),
    /// or every prefix of both where they read none. A FIB and its copy
    /// therefore differ only where either side wrote since the copy.
    pub fn diff_prefixes<'a>(&'a self, other: &'a Fib) -> impl Iterator<Item = Ipv4Prefix> + 'a {
        let prefixes = |len: u8| move |k: &u32| Ipv4Prefix::new(Ipv4Addr(*k), len);
        let mine = self.by_len.iter().flat_map(move |(len, a)| {
            let (shared, alone) = match other.map(*len) {
                Some(b) => (Some(a.diff_keys(b)), None),
                None => (None, Some(a.keys())),
            };
            let keys = shared
                .into_iter()
                .flatten()
                .chain(alone.into_iter().flatten());
            keys.map(prefixes(*len))
        });
        let theirs = other
            .by_len
            .iter()
            .filter(|(len, _)| self.map(*len).is_none())
            .flat_map(move |(len, b)| b.keys().map(prefixes(*len)));
        mine.chain(theirs)
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

    /// Removes everything, the group table included.
    pub fn clear(&mut self) {
        self.by_len.clear();
        self.groups.clear();
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
        assert!(fib.remove(p("10.0.0.0/8")));
        assert!(!fib.remove(p("10.0.0.0/8")));
        assert_eq!(fib.len(), 1);
        assert!(fib.lookup(a("10.1.1.1")).is_none());
        fib.clear();
        assert!(fib.is_empty());
        assert!(fib.lookup(a("20.1.1.1")).is_none());
    }

    #[test]
    fn prefixes_sharing_a_set_add_index_bytes_only() {
        let mut fib = Fib::default();
        let shared = FibEntry::new(vec![hop(1), hop(2)]);
        fib.install(p("10.0.0.0/24"), shared.clone());
        let groups = fib.group_bytes();
        for b in p("10.1.0.0/16").subnets(24) {
            fib.install(b, shared.clone());
        }
        assert_eq!(fib.len(), 257);
        assert_eq!(fib.group_bytes(), groups, "one set, stored once");
        let maps: u64 = fib.by_len.iter().map(|(_, m)| m.bytes().total()).sum();
        let headers = size_of_val(fib.by_len.as_slice()) as u64;
        assert_eq!(fib.mem_bytes(), maps + headers + groups);
        // A second set is the one thing that adds group bytes.
        fib.install(p("10.2.0.0/24"), FibEntry::new(vec![hop(3)]));
        let one_hop = size_of::<FibEntry>() + size_of::<NextHop>();
        assert_eq!(fib.group_bytes(), groups + one_hop as u64);
        // A copy holds the same bytes.
        assert_eq!(fib.clone().mem_bytes(), fib.mem_bytes());
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
