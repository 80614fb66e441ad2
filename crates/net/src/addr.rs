//! IPv4 and Ethernet addressing primitives.
//!
//! CrystalNet emulates production networks whose configurations, routing
//! state and packets are all IPv4-centric (the paper's networks are
//! BGP-over-IPv4 Clos fabrics), so this module implements compact `u32`
//! based address and prefix types with the operations the rest of the
//! system needs: containment, overlap, subnetting and aggregation.

use core::fmt;
use core::str::FromStr;
use serde::{Deserialize, Serialize};

/// Errors produced when parsing addresses and prefixes from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrParseError {
    /// The text is not a dotted quad.
    BadAddress(String),
    /// The prefix length is missing or not a number.
    BadLength(String),
    /// The prefix length exceeds 32.
    LengthOutOfRange(u8),
}

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrParseError::BadAddress(s) => write!(f, "invalid IPv4 address `{s}`"),
            AddrParseError::BadLength(s) => write!(f, "invalid prefix length `{s}`"),
            AddrParseError::LengthOutOfRange(l) => write!(f, "prefix length {l} > 32"),
        }
    }
}

impl std::error::Error for AddrParseError {}

/// An IPv4 address stored as a host-order `u32`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// The all-zero address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr(0);

    /// Builds an address from dotted-quad octets.
    #[must_use]
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4Addr {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | (d as u32))
    }

    /// The four octets, most significant first.
    #[must_use]
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Address plus `n`, saturating at the top of the space.
    #[must_use]
    pub fn offset(self, n: u32) -> Ipv4Addr {
        Ipv4Addr(self.0.saturating_add(n))
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for Ipv4Addr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for slot in &mut octets {
            let part = parts
                .next()
                .ok_or_else(|| AddrParseError::BadAddress(s.to_string()))?;
            *slot = part
                .parse()
                .map_err(|_| AddrParseError::BadAddress(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError::BadAddress(s.to_string()));
        }
        Ok(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 prefix in CIDR form, always stored canonically (host bits zero).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ipv4Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Ipv4Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix {
        addr: Ipv4Addr::UNSPECIFIED,
        len: 0,
    };

    /// Builds a prefix, masking off host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[must_use]
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Prefix {
        assert!(len <= 32, "prefix length {len} > 32");
        Ipv4Prefix {
            addr: Ipv4Addr(addr.0 & Self::mask(len)),
            len,
        }
    }

    /// A /32 host route for `addr`.
    #[must_use]
    pub fn host(addr: Ipv4Addr) -> Ipv4Prefix {
        Ipv4Prefix::new(addr, 32)
    }

    /// The network mask for a prefix length.
    #[must_use]
    pub const fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The network address.
    #[must_use]
    pub fn network(self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a prefix length, not a container
    pub fn len(self) -> u8 {
        self.len
    }

    /// Whether this is the default route.
    #[must_use]
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// Whether `addr` falls inside this prefix.
    #[must_use]
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.addr.0
    }

    /// Whether `other` is fully contained in (or equal to) this prefix.
    #[must_use]
    pub fn covers(self, other: Ipv4Prefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Whether the two prefixes share any address.
    #[must_use]
    pub fn overlaps(self, other: Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `i`-th host address inside the prefix (0 = network address).
    #[must_use]
    pub fn nth(self, i: u32) -> Ipv4Addr {
        self.addr.offset(i)
    }

    /// Splits into the two child prefixes of length `len + 1`.
    ///
    /// Returns `None` for a /32.
    #[must_use]
    pub fn split(self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let child_len = self.len + 1;
        let low = Ipv4Prefix::new(self.addr, child_len);
        let high = Ipv4Prefix::new(Ipv4Addr(self.addr.0 | (1 << (32 - child_len))), child_len);
        Some((low, high))
    }

    /// Enumerates the `2^(new_len - len)` subnets of length `new_len`.
    ///
    /// Returns an empty vector if `new_len < len` or `new_len > 32`.
    #[must_use]
    pub fn subnets(self, new_len: u8) -> Vec<Ipv4Prefix> {
        if new_len < self.len || new_len > 32 {
            return Vec::new();
        }
        let count = 1u64 << (new_len - self.len);
        let step = 1u64 << (32 - new_len);
        (0..count)
            .map(|i| Ipv4Prefix::new(Ipv4Addr(self.addr.0 + (i * step) as u32), new_len))
            .collect()
    }

    /// The immediate parent prefix (one bit shorter), or `None` for /0.
    #[must_use]
    pub fn parent(self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::new(self.addr, self.len - 1))
        }
    }

    /// The smallest single prefix covering all `prefixes`
    /// (the BGP `aggregate-address` computation of Figure 1).
    ///
    /// Returns `None` for an empty input.
    #[must_use]
    pub fn aggregate(prefixes: &[Ipv4Prefix]) -> Option<Ipv4Prefix> {
        let mut iter = prefixes.iter();
        let mut acc = *iter.next()?;
        for p in iter {
            while !acc.covers(*p) {
                acc = acc.parent()?;
                if acc.is_default() {
                    break;
                }
            }
        }
        Some(acc)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| AddrParseError::BadLength(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse()?;
        let len: u8 = len
            .parse()
            .map_err(|_| AddrParseError::BadLength(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError::LengthOutOfRange(len));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

/// An [`IdMap`] keyed by [`Ipv4Prefix`]: the routing tables, whose keys
/// come from inside the emulation and whose hashing sits on the hot path.
pub type PrefixMap<V> = IdMap<Ipv4Prefix, V>;

/// A `HashMap` with [`PrefixHasher`] for any key made of a few 32-bit
/// ids and prefixes (`DeviceId`, `(DeviceId, LinkId)`,
/// `(DeviceId, Ipv4Prefix)`, …): hot-path state that is looked up, not
/// listed. The hasher has no per-process key, so the iteration order is
/// the same in every run; it is still no order a reader should show,
/// so a reader that lists one sorts, and state that is mostly listed is
/// a `BTreeMap` instead. This file is the only place in the emulator
/// that names std's hashed containers.
pub type IdMap<K, V> =
    std::collections::HashMap<K, V, core::hash::BuildHasherDefault<PrefixHasher>>;

/// The set form of [`IdMap`], with the same contract.
pub type IdSet<T> = std::collections::HashSet<T, core::hash::BuildHasherDefault<PrefixHasher>>;

/// Deterministic multiply-rotate hasher for a few small integers: the two
/// of an [`Ipv4Prefix`] (`write_u32` network, `write_u8` length), or the
/// `u32`s of the ids an [`IdMap`] is keyed by.
#[derive(Debug, Default, Clone, Copy)]
pub struct PrefixHasher(u64);

impl core::hash::Hasher for PrefixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u32(u32::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Folds the high half into the low one. A multiply only carries
    /// entropy upwards, and canonical prefixes have all-zero host bits:
    /// without the fold a table of /24s would share its low (bucket) bits.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// An interface address: a host address *plus* its subnet length, without
/// canonicalization (unlike [`Ipv4Prefix`], the host bits are preserved).
///
/// This is what appears in `ip address 100.64.0.1/31` interface
/// configuration lines.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Ipv4Cidr {
    /// The host address.
    pub addr: Ipv4Addr,
    /// The subnet length.
    pub len: u8,
}

impl Ipv4Cidr {
    /// Builds an interface address.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    #[must_use]
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Cidr {
        assert!(len <= 32, "prefix length {len} > 32");
        Ipv4Cidr { addr, len }
    }

    /// The subnet this address lives in.
    #[must_use]
    pub fn network(self) -> Ipv4Prefix {
        Ipv4Prefix::new(self.addr, self.len)
    }

    /// Whether `other` is in the same subnet.
    #[must_use]
    pub fn same_subnet(self, other: Ipv4Cidr) -> bool {
        self.len == other.len && self.network() == other.network()
    }
}

impl fmt::Display for Ipv4Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Ipv4Cidr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| AddrParseError::BadLength(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse()?;
        let len: u8 = len
            .parse()
            .map_err(|_| AddrParseError::BadLength(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError::LengthOutOfRange(len));
        }
        Ok(Ipv4Cidr { addr, len })
    }
}

/// A 48-bit Ethernet MAC address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered unicast MAC derived from a 32-bit id.
    #[must_use]
    pub fn from_id(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x1c, b[0], b[1], b[2], b[3]])
    }

    /// Whether this is the broadcast address.
    #[must_use]
    pub fn is_broadcast(self) -> bool {
        self == MacAddr::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn address_round_trip() {
        let a: Ipv4Addr = "10.1.2.3".parse().unwrap();
        assert_eq!(a, Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(a.to_string(), "10.1.2.3");
        assert_eq!(a.octets(), [10, 1, 2, 3]);
    }

    #[test]
    fn address_parse_errors() {
        assert!("10.1.2".parse::<Ipv4Addr>().is_err());
        assert!("10.1.2.3.4".parse::<Ipv4Addr>().is_err());
        assert!("10.1.2.256".parse::<Ipv4Addr>().is_err());
        assert!("ten.one.two.three".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn prefix_canonicalizes_host_bits() {
        let pfx = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 24);
        assert_eq!(pfx.to_string(), "10.1.2.0/24");
        assert_eq!(p("10.1.2.3/24"), p("10.1.2.0/24"));
    }

    #[test]
    fn prefix_parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn containment_and_overlap() {
        let pfx = p("10.1.0.0/16");
        assert!(pfx.contains("10.1.255.255".parse().unwrap()));
        assert!(!pfx.contains("10.2.0.0".parse().unwrap()));
        assert!(pfx.covers(p("10.1.2.0/24")));
        assert!(!p("10.1.2.0/24").covers(pfx));
        assert!(pfx.overlaps(p("10.1.2.0/24")));
        assert!(pfx.overlaps(p("10.0.0.0/8")));
        assert!(!pfx.overlaps(p("10.2.0.0/16")));
        assert!(Ipv4Prefix::DEFAULT.covers(pfx));
    }

    #[test]
    fn split_and_subnets() {
        let (lo, hi) = p("10.0.0.0/8").split().unwrap();
        assert_eq!(lo, p("10.0.0.0/9"));
        assert_eq!(hi, p("10.128.0.0/9"));
        assert!(p("1.2.3.4/32").split().is_none());

        // The paper's software-load-balancer incident: a /16 broken into
        // 256 x /24 blocks.
        let blocks = p("10.1.0.0/16").subnets(24);
        assert_eq!(blocks.len(), 256);
        assert_eq!(blocks[0], p("10.1.0.0/24"));
        assert_eq!(blocks[255], p("10.1.255.0/24"));
        assert!(p("10.0.0.0/16").subnets(8).is_empty());
    }

    #[test]
    fn aggregation_fig1() {
        // Figure 1: P1 and P2 aggregate to P3.
        let p1 = p("10.1.0.0/17");
        let p2 = p("10.1.128.0/17");
        assert_eq!(Ipv4Prefix::aggregate(&[p1, p2]), Some(p("10.1.0.0/16")));
        assert_eq!(Ipv4Prefix::aggregate(&[p1]), Some(p1));
        assert_eq!(Ipv4Prefix::aggregate(&[]), None);
        assert_eq!(
            Ipv4Prefix::aggregate(&[p("10.0.0.0/16"), p("10.255.0.0/16")]),
            Some(p("10.0.0.0/8"))
        );
    }

    #[test]
    fn parent_chain_terminates() {
        let mut pfx = p("10.1.2.3/32");
        let mut steps = 0;
        while let Some(parent) = pfx.parent() {
            pfx = parent;
            steps += 1;
        }
        assert_eq!(steps, 32);
        assert!(pfx.is_default());
    }

    fn prefix_hash(pfx: Ipv4Prefix) -> u64 {
        use core::hash::BuildHasher;
        PrefixMap::<()>::default().hasher().hash_one(pfx)
    }

    #[test]
    fn prefix_hash_sees_the_length() {
        let hashes =
            [8, 16, 24].map(|len| prefix_hash(Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), len)));
        assert_ne!(hashes[0], hashes[1]);
        assert_ne!(hashes[1], hashes[2]);
        assert_ne!(hashes[0], hashes[2]);
    }

    /// The zero-host-bits guard: hashbrown indexes buckets with the low
    /// bits, and every /24 and /31 of the M-DC plan ends in zeros.
    #[test]
    fn prefix_hash_spreads_low_bits_over_the_m_dc_plan() {
        use std::collections::BTreeSet;
        let dc = crate::clos::ClosParams::m_dc().build();
        let mut plan = BTreeSet::new();
        for (_, dev) in dc.topo.devices() {
            plan.insert(Ipv4Prefix::host(dev.loopback));
            plan.extend(dev.originated.iter().copied());
            plan.extend(
                dev.ifaces
                    .iter()
                    .filter_map(|i| i.addr)
                    .map(Ipv4Cidr::network),
            );
        }
        // Per length class as well as overall: the /24s are few beside
        // the /31s and /32s, and they are the ones with eight zero bits.
        for len in [None, Some(24), Some(31), Some(32)] {
            let class: Vec<_> = plan
                .iter()
                .filter(|p| len.is_none_or(|l| p.len() == l))
                .collect();
            assert!(!class.is_empty(), "plan has no {len:?}");
            let buckets: BTreeSet<u64> = class.iter().map(|p| prefix_hash(**p) & 0xfff).collect();
            let possible = class.len().min(1 << 12);
            assert!(
                buckets.len() * 2 >= possible,
                "{len:?}: {} prefixes fall into {} of {possible} low-12-bit values",
                class.len(),
                buckets.len()
            );
        }
    }

    #[test]
    fn mac_formatting() {
        let m = MacAddr::from_id(0xdead_beef);
        assert_eq!(m.to_string(), "02:1c:de:ad:be:ef");
        assert!(!m.is_broadcast());
        assert!(MacAddr::BROADCAST.is_broadcast());
    }
}
