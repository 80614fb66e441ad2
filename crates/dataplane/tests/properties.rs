//! Property tests: the FIB agrees with a naive oracle and with a map
//! model under random install / remove / clear sequences; packet encodings
//! round-trip for arbitrary contents; a trace's path and fate equal a
//! stable sort of its captures.

use bytes::Bytes;
use crystalnet_dataplane::{
    compare_fibs,
    ecmp_select,
    CompareOptions,
    EthernetFrame,
    Fib,
    FibEntry,
    ForwardDecision,
    InstallOutcome,
    Ipv4Packet,
    NextHop,
    Signature,
    TraceEvent,
    TraceStore,
    UdpDatagram,
    VxlanPacket, //
};
use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix, MacAddr};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Ipv4Prefix::new(Ipv4Addr(a), l))
}

fn arb_entry() -> impl Strategy<Value = FibEntry> {
    prop::collection::vec((0u32..8, any::<u32>()), 0..4).prop_map(|hops| {
        FibEntry::new(
            hops.into_iter()
                .map(|(iface, via)| NextHop {
                    iface,
                    via: Ipv4Addr(via),
                })
                .collect(),
        )
    })
}

/// The model test's prefixes: nested, so lookups fall through lengths,
/// and few, so installs replace and removes hit.
const MODEL_PREFIXES: [&str; 10] = [
    "0.0.0.0/0",
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.1.2.128/25",
    "10.1.2.3/32",
    "10.1.3.0/24",
    "10.2.0.0/16",
    "20.0.0.0/8",
    "20.0.0.0/9",
];

/// Addresses inside, between and outside [`MODEL_PREFIXES`].
const MODEL_PROBES: [&str; 9] = [
    "10.1.2.3",
    "10.1.2.200",
    "10.1.2.7",
    "10.1.3.7",
    "10.2.9.9",
    "10.9.9.9",
    "20.200.1.1",
    "20.1.1.1",
    "99.9.9.9",
];

/// Entries drawn from a few hops, so sets repeat across prefixes.
fn small_entry() -> impl Strategy<Value = FibEntry> {
    prop::collection::vec((0u32..3, 0u32..2), 0..3).prop_map(|hops| {
        FibEntry::new(
            hops.into_iter()
                .map(|(iface, via)| NextHop {
                    iface,
                    via: Ipv4Addr(via),
                })
                .collect(),
        )
    })
}

/// Naive oracle: scan every installed prefix, pick the longest that
/// contains the address.
fn oracle_lookup(routes: &[(Ipv4Prefix, FibEntry)], addr: Ipv4Addr) -> Option<Ipv4Prefix> {
    routes
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, _)| *p)
}

proptest! {
    /// LPM lookup matches the brute-force oracle on random route tables.
    #[test]
    fn fib_matches_oracle(
        routes in prop::collection::vec((arb_prefix(), arb_entry()), 0..64),
        probes in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        // Dedup prefixes: later installs overwrite earlier ones, so keep
        // only the last per prefix for the oracle.
        let mut fib = Fib::default();
        let mut dedup: std::collections::HashMap<Ipv4Prefix, FibEntry> = Default::default();
        for (p, e) in &routes {
            fib.install(*p, e.clone());
            dedup.insert(*p, e.clone());
        }
        let table: Vec<(Ipv4Prefix, FibEntry)> = dedup.into_iter().collect();
        for probe in probes {
            let addr = Ipv4Addr(probe);
            let got = fib.lookup(addr).map(|(p, _)| p);
            prop_assert_eq!(got, oracle_lookup(&table, addr));
        }
    }

    /// Capacity never exceeded; dropped installs are counted exactly.
    #[test]
    fn fib_capacity_invariant(
        cap in 1usize..32,
        routes in prop::collection::vec(arb_prefix(), 0..64),
    ) {
        let mut fib = Fib::new(Some(cap));
        let mut unique = std::collections::HashSet::new();
        let mut dropped = 0u64;
        for p in routes {
            let out = fib.install(p, FibEntry::default());
            if out == crystalnet_dataplane::InstallOutcome::DroppedFull {
                dropped += 1;
            } else {
                unique.insert(p);
            }
        }
        prop_assert!(fib.len() <= cap);
        prop_assert_eq!(fib.len(), unique.len().min(cap));
        prop_assert_eq!(fib.dropped_installs(), dropped);
    }

    /// Random install / replace / remove / clear sequences, with and
    /// without a capacity, against a sorted-map model: after every step
    /// the reads agree with the model, and the group table holds no more
    /// sets than were installed since the last clear. At the end, a FIB
    /// built to the same content through another history is `==` exactly
    /// when it dropped as many installs.
    #[test]
    fn fib_agrees_with_a_map_model(
        cap in prop::option::of(1usize..8),
        ops in prop::collection::vec((0u8..10, 0usize..MODEL_PREFIXES.len(), small_entry()), 0..48),
    ) {
        let mut fib = Fib::new(cap);
        let mut model: BTreeMap<Ipv4Prefix, FibEntry> = BTreeMap::new();
        let mut dropped = 0u64;
        let mut sets_since_clear: BTreeSet<Vec<NextHop>> = BTreeSet::new();
        let pool: Vec<Ipv4Prefix> = MODEL_PREFIXES.iter().map(|s| s.parse().unwrap()).collect();
        for (kind, at, entry) in ops {
            let prefix = pool[at];
            match kind {
                0..=5 => {
                    let full = cap.is_some_and(|c| model.len() >= c);
                    let out = fib.install(prefix, entry.clone());
                    if model.contains_key(&prefix) || !full {
                        prop_assert_eq!(out, InstallOutcome::Installed);
                        sets_since_clear.insert(entry.next_hops.clone());
                        model.insert(prefix, entry);
                    } else {
                        prop_assert_eq!(out, InstallOutcome::DroppedFull);
                        dropped += 1;
                    }
                }
                6..=8 => prop_assert_eq!(fib.remove(prefix), model.remove(&prefix).is_some()),
                _ => {
                    fib.clear();
                    model.clear();
                    sets_since_clear.clear();
                }
            }
            for p in &pool {
                prop_assert_eq!(fib.get(*p), model.get(p));
            }
            for probe in MODEL_PROBES {
                let addr: Ipv4Addr = probe.parse().unwrap();
                let want = model.iter().filter(|(p, _)| p.contains(addr)).max_by_key(|(p, _)| p.len());
                prop_assert_eq!(fib.lookup(addr), want.map(|(p, e)| (*p, e)));
            }
            let mut rows: Vec<(Ipv4Prefix, &FibEntry)> = fib.iter().collect();
            rows.sort_by_key(|(p, _)| *p);
            prop_assert_eq!(rows, model.iter().map(|(p, e)| (*p, e)).collect::<Vec<_>>());
            prop_assert_eq!(fib.len(), model.len());
            prop_assert_eq!(
                fib.route_entry_count(),
                model.values().map(|e| e.next_hops.len().max(1)).sum::<usize>()
            );
            prop_assert_eq!(fib.dropped_installs(), dropped);
            prop_assert!(fib.group_count() <= sets_since_clear.len());
        }
        // Another history to the same content: a set no entry keeps, then
        // the entries in reverse order, so every group id differs.
        let mut twin = Fib::new(cap);
        twin.install(pool[0], FibEntry::new(vec![NextHop { iface: 99, via: Ipv4Addr(99) }]));
        twin.remove(pool[0]);
        for (p, e) in model.iter().rev() {
            twin.install(*p, e.clone());
        }
        prop_assert_eq!(fib == twin, dropped == 0);
    }

    /// ECMP selection always returns a member of the set.
    #[test]
    fn ecmp_selects_a_member(
        entry in arb_entry(),
        src in any::<u32>(),
        dst in any::<u32>(),
        proto in any::<u8>(),
        flow in any::<u16>(),
    ) {
        match ecmp_select(&entry, Ipv4Addr(src), Ipv4Addr(dst), proto, flow) {
            Some(hop) => prop_assert!(entry.next_hops.contains(&hop)),
            None => prop_assert!(entry.next_hops.is_empty()),
        }
    }

    /// A FIB always equals itself; comparison is symmetric in difference
    /// count.
    #[test]
    fn compare_reflexive_symmetric(
        routes_a in prop::collection::vec((arb_prefix(), arb_entry()), 0..16),
        routes_b in prop::collection::vec((arb_prefix(), arb_entry()), 0..16),
    ) {
        let build = |routes: &[(Ipv4Prefix, FibEntry)]| {
            let mut f = Fib::default();
            for (p, e) in routes {
                f.install(*p, e.clone());
            }
            f
        };
        let a = build(&routes_a);
        let b = build(&routes_b);
        let opts = CompareOptions::strict();
        prop_assert!(compare_fibs(&a, &a, &opts).is_empty());
        prop_assert_eq!(
            compare_fibs(&a, &b, &opts).len(),
            compare_fibs(&b, &a, &opts).len()
        );
    }

    /// Ethernet/IPv4/UDP/VXLAN encodings round-trip arbitrary payloads.
    #[test]
    fn packet_round_trips(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        sig in any::<u16>(),
        vni in 0u32..(1 << 24),
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in 1u8..255,
    ) {
        let ip = Ipv4Packet {
            src: Ipv4Addr(src),
            dst: Ipv4Addr(dst),
            protocol: 17,
            ttl,
            identification: sig,
            payload: Bytes::from(payload.clone()),
        };
        prop_assert_eq!(&Ipv4Packet::decode(ip.encode()).unwrap(), &ip);

        let frame = EthernetFrame {
            dst: MacAddr::from_id(dst),
            src: MacAddr::from_id(src),
            ethertype: 0x0800,
            payload: ip.encode(),
        };
        prop_assert_eq!(&EthernetFrame::decode(frame.encode()).unwrap(), &frame);

        let vx = VxlanPacket { vni, inner: frame.encode() };
        let vx2 = VxlanPacket::decode(vx.encode()).unwrap();
        prop_assert_eq!(vx2.vni, vni);

        let udp = UdpDatagram { src_port: 1, dst_port: 4789, payload: vx.encode() };
        prop_assert_eq!(&UdpDatagram::decode(udp.encode()).unwrap(), &udp);
    }

    /// `PullPackets`' path and fate equal a stable sort of the captures
    /// by (hop, time), whether they arrive in order (read in place) or
    /// shuffled, ties included.
    #[test]
    fn trace_path_and_outcome_equal_a_stable_sort(
        captures in prop::collection::vec((0u32..4, 0u64..4, 0u32..1000, 0u8..3), 0..12),
        in_order in any::<bool>(),
    ) {
        let mut events: Vec<TraceEvent> = captures
            .into_iter()
            .map(|(hop, at_nanos, device, fate)| TraceEvent {
                at_nanos,
                device: DeviceId(device),
                ingress: None,
                decision: [
                    ForwardDecision::Deliver,
                    ForwardDecision::DropNoRoute,
                    ForwardDecision::DropAcl,
                ][usize::from(fate)],
                hop,
                prov: None,
            })
            .collect();
        if in_order {
            events.sort_by_key(|e| (e.hop, e.at_nanos));
        }
        let sig = Signature(5);
        let pkt = Ipv4Packet {
            src: Ipv4Addr(1),
            dst: Ipv4Addr(2),
            protocol: 17,
            ttl: 64,
            identification: sig.0,
            payload: Bytes::new(),
        };
        let mut store = TraceStore::new();
        for e in &events {
            store.capture(&pkt, e.clone());
        }
        let mut reference: Vec<&TraceEvent> = events.iter().collect();
        reference.sort_by_key(|e| (e.hop, e.at_nanos));
        prop_assert_eq!(
            store.path(sig),
            reference.iter().map(|e| e.device).collect::<Vec<_>>()
        );
        prop_assert_eq!(store.outcome(sig), reference.last().map(|e| e.decision));
    }
}
