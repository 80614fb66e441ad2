//! Causal tracing + route provenance tests: the merged trace export is a
//! pure function of the seed (byte-identical across repetitions),
//! `explain_route` agrees with packet tracing, the ring
//! buffer caps memory deterministically, the Chrome export round-trips
//! through serde, and the runtime Lemma 5.1 audit passes on a real
//! speaker boundary.

use crystalnet::prelude::*;
use crystalnet::PlanOptions;
use crystalnet_net::fixtures::fig7;
use crystalnet_net::DeviceId;
use crystalnet_routing::harness::build_full_bgp_sim;
use crystalnet_routing::{OriginKind, UniformWorkModel};
use std::collections::BTreeSet;

fn fig7_emu(seed: u64, trace_capacity: usize) -> Emulation {
    let f = fig7();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::WholeNetwork,
        SpeakerSource::OriginatedOnly,
        &PlanOptions::default(),
    );
    mockup(
        Arc::new(prep),
        MockupOptions::builder()
            .seed(seed)
            .trace_capacity(trace_capacity)
            .build(),
    )
}

/// Injects the same probe in any emulation so packet hops join the trace.
fn probe(emu: &mut Emulation) {
    let f = fig7();
    let src = "10.7.0.5".parse().unwrap();
    let dst = "10.7.5.9".parse().unwrap();
    let _ = emu.inject_packet(f.tors[0], src, dst);
}

/// Flaps one ToR uplink so link transitions and re-convergence appear in
/// the trace.
fn flap(emu: &mut Emulation) {
    let f = fig7();
    let (lid, _, _) = f.topo.neighbors(f.tors[0]).next().unwrap();
    emu.disconnect(lid);
    emu.settle().expect("re-converges after disconnect");
    emu.connect(lid);
    emu.settle().expect("re-converges after reconnect");
}

#[test]
fn trace_export_is_byte_identical_across_worker_counts_and_reps() {
    let mut first = fig7_emu(7, 65_536);
    let mut again = fig7_emu(7, 65_536);
    for emu in [&mut first, &mut again] {
        flap(emu);
        probe(emu);
    }

    let a = first.trace_jsonl();
    assert!(!a.is_empty());
    assert_eq!(
        a,
        again.trace_jsonl(),
        "JSONL trace must reproduce across repetitions"
    );
    assert_eq!(
        first.trace_chrome_json(),
        again.trace_chrome_json(),
        "Chrome trace must reproduce across repetitions"
    );

    // The merged stream carries all the record families.
    for kind in [
        "boot_done",
        "link_state",
        "frame_rx",
        "fib_install",
        "packet_hop",
    ] {
        assert!(a.contains(kind), "trace is missing {kind:?} records");
    }
}

#[test]
fn capped_trace_is_still_deterministic_and_counts_drops() {
    let first = fig7_emu(9, 500);
    let again = fig7_emu(9, 500);
    let a = first.trace_jsonl();
    assert_eq!(
        a,
        again.trace_jsonl(),
        "newest-capped trace must reproduce across repetitions"
    );
    assert_eq!(a.lines().count(), 500, "ring buffer keeps exactly the cap");

    let report = first.pull_report();
    let emitted = report.counters["telemetry.trace_emitted"];
    let retained = report.counters["telemetry.trace_retained"];
    let dropped = report.counters["telemetry.trace_dropped"];
    assert_eq!(retained, 500);
    assert!(dropped > 0, "a 500-record cap must drop on fig7");
    assert_eq!(emitted, retained + dropped);

    // Capacity 0 is rejected eagerly instead of silently disabling
    // collection: `try_build` reports a typed error.
    assert!(matches!(
        MockupOptions::builder().trace_capacity(0).try_build(),
        Err(EmulationError::InvalidOption(_))
    ));
}

#[test]
fn explain_route_agrees_with_packet_trace() {
    let mut emu = fig7_emu(3, 65_536);
    let f = fig7();
    let prefix: crystalnet_net::Ipv4Prefix = "10.7.5.0/24".parse().unwrap();

    // Every FIB entry on every device explains completely.
    for (id, d) in emu.topo.devices() {
        let Some(os) = emu.sim.os(id) else { continue };
        for (p, _) in os.routes_with_detail() {
            let ex = emu.explain_route(&d.name, p).expect("every entry explains");
            assert!(!ex.chain.is_empty(), "{}: empty chain for {p}", d.name);
            assert!(ex.prov_digest != 0);
        }
    }

    // The s1 explanation for T6's subnet starts at T6's announcement...
    let ex = emu.explain_route("s1", prefix).unwrap();
    assert_eq!(ex.origin_kind, OriginKind::Network);
    assert_eq!(ex.chain[0].hostname.as_deref(), Some("t6"));
    assert_eq!(ex.chain[0].router, emu.topo.device(f.tors[5]).loopback);
    assert_eq!(ex.as_path, vec![400, 506], "leaf AS then T6's origin AS");
    // ...and the chain reversed is an adjacency-valid forwarding path
    // from s1 toward the origin.
    let mut walk = vec![f.spines[0]];
    walk.extend(ex.chain.iter().rev().filter_map(|h| {
        h.hostname
            .as_deref()
            .and_then(|name| emu.topo.by_name(name))
    }));
    assert_eq!(walk.len(), ex.chain.len() + 1, "every hop resolves");
    for pair in walk.windows(2) {
        assert!(
            emu.topo.neighbor_devices(pair[0]).any(|n| n == pair[1]),
            "chain hop {:?} -> {:?} is not a topology edge",
            pair[0],
            pair[1]
        );
    }

    // A probe toward the prefix lands where the chain says it began, and
    // its first hop carries the provenance digest of the FIB entry s1
    // would use.
    let sig = emu.inject_packet(
        f.spines[0],
        emu.topo.device(f.spines[0]).loopback,
        prefix.nth(9),
    );
    let (path, outcome) = emu.pull_packets(sig).unwrap();
    assert_eq!(outcome, ForwardDecision::Deliver);
    assert_eq!(path.first(), Some(&f.spines[0]));
    assert_eq!(path.last(), Some(&f.tors[5]));
    let trace = emu.pull_trace();
    let hop0 = trace
        .iter()
        .find(|r| r.name == "packet_hop" && r.device == Some(f.spines[0].0))
        .expect("first hop is traced");
    let prov = hop0.fields.iter().find(|(k, _)| *k == "prov").unwrap();
    assert_eq!(prov.1, FieldValue::U64(ex.prov_digest));
}

#[test]
fn captured_hops_carry_the_real_ingress_next_hop_and_provenance() {
    let mut emu = fig7_emu(3, 1024);
    let f = fig7();
    // T1 → T6 crosses the fabric: ToR, leaf, spine, leaf, ToR.
    let (src, dst) = ("10.7.0.5".parse().unwrap(), "10.7.5.9".parse().unwrap());
    let sig = emu.inject_packet(f.tors[0], src, dst);
    let events = emu.traces.events(sig).to_vec();
    let (path, outcome) = emu.pull_packets(sig).unwrap();
    assert_eq!(outcome, ForwardDecision::Deliver);
    assert_eq!(path.len(), 5, "a cross-fabric path: {path:?}");
    assert_eq!(events.len(), path.len());

    assert_eq!(events[0].ingress, None, "hop 0 is the injection");
    for (here, next) in events.iter().zip(&events[1..]) {
        // The captured decision names the interface the packet really
        // left on and the neighbour address it was sent to; the next
        // capture names the interface it really arrived on.
        let ForwardDecision::Forward(hop) = here.decision else {
            panic!("mid-path device did not forward: {here:?}");
        };
        let (_, _, remote) = (emu.topo.neighbors(here.device))
            .find(|(_, local, _)| local.iface == hop.iface)
            .expect("the egress interface is wired");
        assert_eq!(remote.device, next.device);
        assert_eq!(next.ingress, Some(remote.iface));
        let entry = emu.sim.fib(here.device).unwrap().lookup(dst).unwrap().1;
        assert!(entry.next_hops.contains(&hop), "{hop:?} not in {entry:?}");
    }

    // Hop 0 still joins to the control plane: its digest is the one
    // `explain_route` gives for the prefix the ToR matched.
    let (prefix, _) = emu.sim.fib(f.tors[0]).unwrap().lookup(dst).unwrap();
    let ex = emu.explain_route("t1", prefix).unwrap();
    assert_eq!(events[0].prov, Some(ex.prov_digest));
}

#[test]
fn a_wrapped_signature_names_only_the_latest_packet() {
    let mut emu = fig7_emu(3, 1024);
    let f = fig7();
    // An address nothing routes: every journey is one device long.
    let (src, dst) = ("10.7.0.5".parse().unwrap(), "192.0.2.1".parse().unwrap());
    let first = emu.inject_packet(f.spines[0], src, dst);
    for _ in 0..u16::MAX - 1 {
        emu.inject_packet(f.spines[0], src, dst);
    }
    // The 16-bit signature space is used up: the next injection reuses
    // the first signature, from another device.
    let again = emu.inject_packet(f.spines[1], src, dst);
    assert_eq!(again, first);
    let (path, _) = emu.pull_packets(again).unwrap();
    assert_eq!(path, vec![f.spines[1]], "one journey, the latest");
    assert_eq!(emu.traces.signatures().count(), usize::from(u16::MAX));
}

#[test]
fn explain_route_failures_are_typed() {
    let emu = fig7_emu(5, 1024);
    let absent: crystalnet_net::Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
    match emu.explain_route("s1", absent) {
        Err(EmulationError::NoRoute { device, prefix }) => {
            assert_eq!(device, "s1");
            assert_eq!(prefix, absent);
        }
        other => panic!("expected NoRoute, got {other:?}"),
    }
    assert!(matches!(
        emu.explain_route("nonesuch", absent),
        Err(EmulationError::UnknownDevice(_))
    ));
}

#[test]
fn chrome_trace_round_trips_through_serde() {
    let mut emu = fig7_emu(2, 4096);
    probe(&mut emu);

    let chrome = emu.trace_chrome_json();
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("valid JSON document");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), emu.pull_trace().len());
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "args"] {
            assert!(ev.get(key).is_some(), "event missing {key:?}: {ev:?}");
        }
    }

    // Every JSONL line is itself a parseable record with the id fields.
    let jsonl = emu.trace_jsonl();
    for line in jsonl.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL line");
        assert!(v.get("at_ns").is_some() && v.get("id").is_some() && v.get("name").is_some());
    }
}

#[test]
fn boundary_audit_passes_and_explains_speaker_routes() {
    // Figure 7b boundary: emulate S1-2, L1-4, T1-4; L5/L6 become static
    // speakers replaying what the spines heard in production.
    let f = fig7();
    let mut prod = build_full_bgp_sim(
        &f.topo,
        Box::new(UniformWorkModel {
            boot: SimDuration::from_secs(1),
            ..UniformWorkModel::default()
        }),
    );
    prod.boot_all(SimTime::ZERO);
    prod.run_until_quiet(
        SimDuration::from_secs(5),
        SimTime::ZERO + SimDuration::from_mins(60),
    )
    .unwrap();
    let emulated: BTreeSet<DeviceId> = f
        .spines
        .iter()
        .chain(&f.leaves[..4])
        .chain(&f.tors[..4])
        .copied()
        .collect();
    let prep = prepare(
        &f.topo,
        &[],
        BoundaryMode::Explicit(emulated),
        SpeakerSource::Snapshot(&prod),
        &PlanOptions::default(),
    );
    let emu = mockup(Arc::new(prep), MockupOptions::builder().seed(1).build());

    // Lemma 5.1, checked at runtime over every converged route's
    // provenance chain.
    emu.audit_boundary().expect("figure 7b boundary is safe");

    // A route that crossed the boundary explains as a speaker origin.
    let prefix: crystalnet_net::Ipv4Prefix = "10.7.4.0/24".parse().unwrap();
    let ex = emu.explain_route("s1", prefix).unwrap();
    assert_eq!(ex.origin_kind, OriginKind::Speaker);
    assert!(
        matches!(ex.chain[0].hostname.as_deref(), Some("l5" | "l6")),
        "speaker origin, got {:?}",
        ex.chain[0]
    );
    assert!(ex.render().contains("origin: speaker"));
}
