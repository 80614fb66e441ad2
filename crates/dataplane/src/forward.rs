//! Per-device forwarding decisions.
//!
//! Combines FIB lookup, TTL handling, local delivery and packet filters
//! into the single decision a device's "ASIC" makes per packet. The packet
//! filter is abstract (a closure) because ACL semantics are
//! vendor-interpreted — including the §2 v1/v2 ACL misread — and vendor
//! profiles live in the routing crate.

use crate::fib::{ecmp_select, Fib, FibEntry, NextHop};
use crate::packet::Ipv4Packet;
use crystalnet_net::Ipv4Addr;
use serde::{Deserialize, Serialize};

/// What a device decides to do with a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ForwardDecision {
    /// Send out the selected next hop.
    Forward(NextHop),
    /// The packet is addressed to this device.
    Deliver,
    /// No route: blackhole.
    DropNoRoute,
    /// TTL expired.
    DropTtlExpired,
    /// Denied by an ACL.
    DropAcl,
}

/// Decides the fate of `packet` on a device owning `local_addrs`.
///
/// `acl_permits` is consulted first (inbound filter), mirroring hardware
/// pipelines where the ACL TCAM stage precedes the L3 lookup.
pub fn decide(
    fib: &Fib,
    local_addrs: &[Ipv4Addr],
    packet: &Ipv4Packet,
    acl_permits: impl Fn(Ipv4Addr, Ipv4Addr) -> bool,
) -> ForwardDecision {
    let entry = fib.lookup(packet.dst).map(|(_, entry)| entry);
    verdict(entry, local_addrs, packet, acl_permits)
}

/// [`decide`] for a caller that has already run the longest-prefix match:
/// `entry` is what the device's FIB holds for `packet.dst`. A packet
/// walker needs the matched entry whatever the verdict is, so it looks
/// up once and asks for the verdict on the result.
pub fn verdict(
    entry: Option<&FibEntry>,
    local_addrs: &[Ipv4Addr],
    packet: &Ipv4Packet,
    acl_permits: impl Fn(Ipv4Addr, Ipv4Addr) -> bool,
) -> ForwardDecision {
    if !acl_permits(packet.src, packet.dst) {
        return ForwardDecision::DropAcl;
    }
    if local_addrs.contains(&packet.dst) {
        return ForwardDecision::Deliver;
    }
    if packet.ttl <= 1 {
        return ForwardDecision::DropTtlExpired;
    }
    entry
        .and_then(|entry| {
            ecmp_select(
                entry,
                packet.src,
                packet.dst,
                packet.protocol,
                packet.identification,
            )
        })
        .map_or(ForwardDecision::DropNoRoute, ForwardDecision::Forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use crystalnet_net::Ipv4Prefix;

    fn pkt(src: &str, dst: &str, ttl: u8) -> Ipv4Packet {
        Ipv4Packet {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            protocol: 6,
            ttl,
            identification: 1,
            payload: Bytes::new(),
        }
    }

    fn fib_with(prefix: &str, iface: u32) -> Fib {
        let mut fib = Fib::default();
        fib.install(
            prefix.parse::<Ipv4Prefix>().unwrap(),
            FibEntry::new(vec![NextHop {
                iface,
                via: Ipv4Addr(iface),
            }]),
        );
        fib
    }

    #[test]
    fn forwards_on_route() {
        let fib = fib_with("10.0.0.0/8", 3);
        let d = decide(&fib, &[], &pkt("1.1.1.1", "10.1.1.1", 64), |_, _| true);
        assert!(matches!(d, ForwardDecision::Forward(h) if h.iface == 3));
    }

    #[test]
    fn delivers_local() {
        let fib = fib_with("10.0.0.0/8", 3);
        let me: Ipv4Addr = "10.1.1.1".parse().unwrap();
        let d = decide(&fib, &[me], &pkt("1.1.1.1", "10.1.1.1", 64), |_, _| true);
        assert_eq!(d, ForwardDecision::Deliver);
    }

    #[test]
    fn drops_without_route() {
        let fib = fib_with("10.0.0.0/8", 3);
        let d = decide(&fib, &[], &pkt("1.1.1.1", "11.1.1.1", 64), |_, _| true);
        assert_eq!(d, ForwardDecision::DropNoRoute);
    }

    #[test]
    fn ttl_expiry_checked_before_lookup() {
        let fib = fib_with("10.0.0.0/8", 3);
        let d = decide(&fib, &[], &pkt("1.1.1.1", "10.1.1.1", 1), |_, _| true);
        assert_eq!(d, ForwardDecision::DropTtlExpired);
    }

    #[test]
    fn acl_checked_first() {
        let fib = fib_with("10.0.0.0/8", 3);
        let d = decide(&fib, &[], &pkt("1.1.1.1", "10.1.1.1", 1), |_, _| false);
        assert_eq!(d, ForwardDecision::DropAcl);
    }

    #[test]
    fn local_delivery_ignores_ttl() {
        let fib = Fib::default();
        let me: Ipv4Addr = "10.1.1.1".parse().unwrap();
        let d = decide(&fib, &[me], &pkt("1.1.1.1", "10.1.1.1", 1), |_, _| true);
        assert_eq!(d, ForwardDecision::Deliver);
    }
}
