//! Control-plane and data-plane messages carried over virtual links.
//!
//! The emulation's virtual links carry two traffic classes: control
//! messages (BGP/OSPF sessions between device firmwares) and data packets
//! (operator-injected probes, ARP). Control messages travel as structured
//! values whose route attributes are interned handles — a copied address
//! per prefix, no matter how many links it crosses — while data packets
//! use the real wire encodings from `crystalnet-dataplane`.

use crate::attrs::PathAttrs;
use crate::intern::Interned;
use crate::provenance::Provenance;
use crystalnet_dataplane::{ArpMessage, Ipv4Packet};
use crystalnet_net::{Asn, Ipv4Addr, Ipv4Prefix};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A BGP message (RFC 4271 shapes, simplified to the fields the decision
/// process consumes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum BgpMsg {
    /// Session open.
    Open {
        /// Sender AS.
        asn: Asn,
        /// Sender router id.
        router_id: Ipv4Addr,
        /// Proposed hold time in seconds; `0` disables keepalive policing
        /// (used by static speakers, which must never tear sessions down).
        hold_secs: u16,
        /// Identity of the sender's control-plane incarnation (models the
        /// TCP connection): a peer seeing a *new* token knows the sender
        /// restarted and must flush the session; a repeated token is the
        /// same session (duplicate Open exchange) and is ignored.
        session_token: u64,
    },
    /// Route advertisement/withdrawal. Announcements share attribute and
    /// provenance objects; real BGP packs many prefixes per UPDATE the
    /// same way.
    Update {
        /// Newly announced prefixes with their attributes and the causal
        /// chain that produced them (both interned, so the fan-out cost
        /// per link is two copied handles per prefix).
        announced: Vec<(Ipv4Prefix, Interned<PathAttrs>, Interned<Provenance>)>,
        /// Withdrawn prefixes.
        withdrawn: Vec<Ipv4Prefix>,
    },
    /// Session keepalive.
    Keepalive,
    /// Route-refresh request (RFC 2918 shape): "re-send me everything you
    /// advertised on this session". Sent after a soft policy refresh —
    /// the receiver's Adj-RIB-In holds only *post*-import-policy routes,
    /// so relaxing an inbound policy needs the peer to replay its
    /// announcements. Replays are attribute-identical for unchanged
    /// routes and deduplicated on receipt, so the refresh is idempotent.
    RouteRefresh,
    /// Fatal notification; the session closes.
    Notification {
        /// RFC 4271 error code.
        code: u8,
    },
}

impl BgpMsg {
    /// Number of route operations this message carries (for CPU costing).
    #[must_use]
    pub fn route_ops(&self) -> usize {
        match self {
            BgpMsg::Update {
                announced,
                withdrawn,
            } => announced.len() + withdrawn.len(),
            _ => 1,
        }
    }
}

/// An OSPF message (v2 shapes, single area).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OspfMsg {
    /// Neighbor discovery and DR/BDR election input.
    Hello {
        /// Sender router id.
        router_id: Ipv4Addr,
        /// Sender priority (0 = never DR).
        priority: u8,
        /// Neighbors the sender has heard from.
        seen: Vec<Ipv4Addr>,
    },
    /// Link-state advertisement flood.
    Lsa(Arc<crate::ospf::RouterLsa>),
    /// Acknowledgement of an LSA.
    LsAck {
        /// Originating router of the acknowledged LSA.
        origin: Ipv4Addr,
        /// Acknowledged sequence number.
        seq: u32,
    },
}

/// Anything that traverses a virtual link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Frame {
    /// BGP control traffic.
    Bgp(BgpMsg),
    /// OSPF control traffic.
    Ospf(OspfMsg),
    /// ARP request/reply.
    Arp(ArpMessage),
    /// An IPv4 data packet (probe/telemetry traffic).
    Data(Ipv4Packet),
}

impl Frame {
    /// Short label for logs and traces.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Bgp(_) => "bgp",
            Frame::Ospf(_) => "ospf",
            Frame::Arp(_) => "arp",
            Frame::Data(_) => "data",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_prov() -> Interned<Provenance> {
        Provenance::originated(
            crate::provenance::OriginKind::Network,
            Ipv4Addr(1),
            crystalnet_sim::EventId::ZERO,
        )
    }

    #[test]
    fn update_route_ops() {
        let attrs = PathAttrs::originated(Ipv4Addr(1)).intern();
        let prov = test_prov();
        let m = BgpMsg::Update {
            announced: vec![
                ("10.0.0.0/24".parse().unwrap(), attrs, prov),
                ("10.0.1.0/24".parse().unwrap(), attrs, prov),
            ],
            withdrawn: vec!["10.0.2.0/24".parse().unwrap()],
        };
        assert_eq!(m.route_ops(), 3);
        assert_eq!(BgpMsg::Keepalive.route_ops(), 1);
    }

    #[test]
    fn frame_kinds() {
        assert_eq!(Frame::Bgp(BgpMsg::Keepalive).kind(), "bgp");
        let arp = ArpMessage {
            is_request: true,
            sender_ip: Ipv4Addr(1),
            sender_mac: crystalnet_net::MacAddr::from_id(1),
            target_ip: Ipv4Addr(2),
        };
        assert_eq!(Frame::Arp(arp).kind(), "arp");
    }

    #[test]
    fn shared_attrs_are_cheap_to_fan_out() {
        let attrs = PathAttrs::originated(Ipv4Addr(1)).intern();
        let prov = test_prov();
        let updates: Vec<BgpMsg> = (0..100)
            .map(|_| BgpMsg::Update {
                announced: vec![("10.0.0.0/24".parse().unwrap(), attrs, prov)],
                withdrawn: vec![],
            })
            .collect();
        // Every copy is the one interned set and the one chain: the
        // fan-out duplicated addresses, not values.
        for update in &updates {
            let (_, a, p) = announced_of(update)[0];
            assert!(a.as_ptr() == attrs.as_ptr() && p.as_ptr() == prov.as_ptr());
        }
    }

    fn announced_of(m: &BgpMsg) -> &[(Ipv4Prefix, Interned<PathAttrs>, Interned<Provenance>)] {
        match m {
            BgpMsg::Update { announced, .. } => announced,
            _ => &[],
        }
    }

    #[test]
    fn decoded_updates_carry_the_interned_handles() {
        let attrs = PathAttrs {
            as_path: vec![Asn(65_001), Asn(65_002)],
            communities: vec![0x5ede_0001],
            ..PathAttrs::originated(Ipv4Addr(7))
        }
        .intern();
        let prov =
            test_prov().extended(Ipv4Addr(2), crystalnet_sim::EventId { time_ns: 3, key: 4 });
        let sent = BgpMsg::Update {
            announced: vec![("10.0.0.0/24".parse().unwrap(), attrs, prov)],
            withdrawn: vec!["10.0.1.0/24".parse().unwrap()],
        };
        let back: BgpMsg = Deserialize::from_value(&sent.to_value()).expect("round trip");
        assert_eq!(back, sent);
        let (_, a, p) = announced_of(&back)[0];
        assert!(a.as_ptr() == attrs.as_ptr() && p.as_ptr() == prov.as_ptr());
    }
}
