//! Packet-level telemetry (§3.3).
//!
//! Operators "specify the packets to be injected and CrystalNet injects
//! them with a pre-defined signature. All emulated devices capture all seen
//! packets, filter and dump traces based on the signature. These traces can
//! be used for analyzing network behavior." `PullPackets` optionally
//! computes packet paths and counters from the traces — this module
//! implements the capture store and the path/counter computation.

use crate::forward::ForwardDecision;
use crate::packet::Ipv4Packet;
use crystalnet_net::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The telemetry signature carried in the IPv4 identification field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Signature(pub u16);

/// One captured event: a device saw (and decided the fate of) a packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual-time nanoseconds of the capture.
    pub at_nanos: u64,
    /// The capturing device.
    pub device: DeviceId,
    /// Ingress interface index (`None` for locally injected packets).
    pub ingress: Option<u32>,
    /// What the device did with it.
    pub decision: ForwardDecision,
    /// Hop count position within its packet's journey (0 = injection).
    pub hop: u32,
    /// Content digest of the provenance record behind the FIB entry that
    /// forwarded this packet, when the control plane recorded one. Links a
    /// packet hop back to the route announcement chain that created it.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub prov: Option<u64>,
}

/// The per-signature trace store each PhyNet container contributes to.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceStore {
    traces: BTreeMap<Signature, Vec<TraceEvent>>,
}

impl TraceStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// Records a capture if the packet carries a known signature filter.
    ///
    /// Devices capture *all* packets but only dump those matching the
    /// signature, so the store is keyed by signature directly.
    pub fn capture(&mut self, packet: &Ipv4Packet, event: TraceEvent) {
        self.traces
            .entry(Signature(packet.identification))
            .or_default()
            .push(event);
    }

    /// All events for a signature, in capture order.
    #[must_use]
    pub fn events(&self, sig: Signature) -> &[TraceEvent] {
        self.traces.get(&sig).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Signatures with at least one capture.
    pub fn signatures(&self) -> impl Iterator<Item = Signature> + '_ {
        self.traces.keys().copied()
    }

    /// Clears traces for one signature (the "clean traces after pulling"
    /// option of `PullPackets`).
    pub fn clear(&mut self, sig: Signature) {
        self.traces.remove(&sig);
    }

    /// Merges another store (traces pulled from many devices).
    pub fn merge(&mut self, other: TraceStore) {
        for (sig, mut events) in other.traces {
            self.traces.entry(sig).or_default().append(&mut events);
        }
    }

    /// The device-by-device path a signature's packet took, ordered by hop
    /// then capture time.
    #[must_use]
    pub fn path(&self, sig: Signature) -> Vec<DeviceId> {
        let mut events: Vec<&TraceEvent> = self.events(sig).iter().collect();
        events.sort_by_key(|e| (e.hop, e.at_nanos));
        events.iter().map(|e| e.device).collect()
    }

    /// The terminal fate of a signature's packet, if captured.
    #[must_use]
    pub fn outcome(&self, sig: Signature) -> Option<ForwardDecision> {
        let mut events: Vec<&TraceEvent> = self.events(sig).iter().collect();
        events.sort_by_key(|e| (e.hop, e.at_nanos));
        events.last().map(|e| e.decision)
    }

    /// Per-device capture counters for a signature (traffic distribution —
    /// how the Figure 1 imbalance is measured).
    #[must_use]
    pub fn counters(&self, sig: Signature) -> BTreeMap<DeviceId, u64> {
        let mut out = BTreeMap::new();
        for e in self.events(sig) {
            *out.entry(e.device).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::NextHop;
    use bytes::Bytes;
    use crystalnet_net::Ipv4Addr;

    fn pkt(sig: u16) -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr(1),
            dst: Ipv4Addr(2),
            protocol: 6,
            ttl: 64,
            identification: sig,
            payload: Bytes::new(),
        }
    }

    fn ev(device: u32, hop: u32, at: u64, decision: ForwardDecision) -> TraceEvent {
        TraceEvent {
            at_nanos: at,
            device: DeviceId(device),
            ingress: None,
            decision,
            hop,
            prov: None,
        }
    }

    const FWD: ForwardDecision = ForwardDecision::Forward(NextHop {
        iface: 0,
        via: Ipv4Addr(0),
    });

    #[test]
    fn path_reconstruction_orders_by_hop() {
        let mut store = TraceStore::new();
        let p = pkt(7);
        // Captures arrive out of order (pulled from devices in parallel).
        store.capture(&p, ev(30, 2, 300, ForwardDecision::Deliver));
        store.capture(&p, ev(10, 0, 100, FWD));
        store.capture(&p, ev(20, 1, 200, FWD));
        assert_eq!(
            store.path(Signature(7)),
            vec![DeviceId(10), DeviceId(20), DeviceId(30)]
        );
        assert_eq!(store.outcome(Signature(7)), Some(ForwardDecision::Deliver));
    }

    #[test]
    fn signatures_are_isolated() {
        let mut store = TraceStore::new();
        store.capture(&pkt(1), ev(1, 0, 0, FWD));
        store.capture(&pkt(2), ev(2, 0, 0, FWD));
        assert_eq!(store.events(Signature(1)).len(), 1);
        assert_eq!(store.events(Signature(2)).len(), 1);
        assert_eq!(store.events(Signature(3)).len(), 0);
        assert_eq!(store.signatures().count(), 2);
    }

    #[test]
    fn counters_count_per_device() {
        let mut store = TraceStore::new();
        for i in 0..5 {
            store.capture(&pkt(9), ev(1, i, u64::from(i), FWD));
        }
        store.capture(&pkt(9), ev(2, 5, 99, ForwardDecision::DropNoRoute));
        let c = store.counters(Signature(9));
        assert_eq!(c[&DeviceId(1)], 5);
        assert_eq!(c[&DeviceId(2)], 1);
        assert_eq!(
            store.outcome(Signature(9)),
            Some(ForwardDecision::DropNoRoute)
        );
    }

    #[test]
    fn clear_and_merge() {
        let mut a = TraceStore::new();
        a.capture(&pkt(1), ev(1, 0, 0, FWD));
        let mut b = TraceStore::new();
        b.capture(&pkt(1), ev(2, 1, 1, FWD));
        b.capture(&pkt(2), ev(3, 0, 0, FWD));
        a.merge(b);
        assert_eq!(a.events(Signature(1)).len(), 2);
        assert_eq!(a.events(Signature(2)).len(), 1);
        a.clear(Signature(1));
        assert!(a.events(Signature(1)).is_empty());
        assert_eq!(a.events(Signature(2)).len(), 1);
    }
}
