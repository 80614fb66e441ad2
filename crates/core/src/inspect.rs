//! The Table 2 read side of a running [`Emulation`]: `PullStates`,
//! `PullConfig`, `PullPackets`, `List`/`Login`, the run report with its
//! memory section, route explanations, the causal-trace export, the
//! incident timeline and the Lemma 5.1 boundary audit. `InjectPackets`
//! sits here with the `PullPackets` it feeds.

use crate::emulation::{Emulation, EmulationError};
use crate::explain::RouteExplanation;
use crate::metrics::JournalEvent;
use bytes::Bytes;
use crystalnet_config::DeviceConfig;
use crystalnet_dataplane::{FibEntry, ForwardDecision, Ipv4Packet, NextHop, Signature, TraceEvent};
use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix};
use crystalnet_routing::{DeviceOs, MgmtCommand, MgmtResponse};
use crystalnet_sim::{EventId, SimDuration, SimTime};
use crystalnet_telemetry::{
    trace_chrome_json, trace_jsonl, CowStats, DeviceMem, DeviceMemTotals, FieldValue, InternerMem,
    MemRecorder, MemorySection, QueueMem, Recorder, RunReport, SpanRecord, TraceRecord,
};
use crystalnet_vnet::CloudParams;
use std::collections::BTreeSet;

/// Stable label for a forwarding decision in exported trace records.
fn decision_label(d: ForwardDecision) -> &'static str {
    match d {
        ForwardDecision::Forward(_) => "forward",
        ForwardDecision::Deliver => "deliver",
        ForwardDecision::DropNoRoute => "drop-no-route",
        ForwardDecision::DropTtlExpired => "drop-ttl-expired",
        ForwardDecision::DropAcl => "drop-acl",
    }
}

/// Adds one device's RIB/FIB footprint to `totals` and returns it:
/// entry counts × struct-size estimates, the unit of the memory section
/// and of a fork's sharing statistics alike.
pub(crate) fn add_device_mem(
    totals: &mut DeviceMemTotals,
    dev: DeviceId,
    os: &dyn DeviceOs,
) -> DeviceMem {
    use std::mem::size_of;
    // A RIB entry holds a prefix plus an interned-attrs handle and
    // per-peer bookkeeping: a flat per-entry estimate.
    const RIB_ENTRY_BYTES: u64 = 48;
    let rib_entries = os.rib_size() as u64;
    let fib = os.fib();
    let prefixes = fib.len() as u64;
    let routes = fib.route_entry_count() as u64;
    let fib_bytes = prefixes * size_of::<(Ipv4Prefix, FibEntry)>() as u64
        + routes * size_of::<NextHop>() as u64;
    let rib_bytes = rib_entries * RIB_ENTRY_BYTES;
    totals.devices += 1;
    totals.rib_entries += rib_entries;
    totals.rib_bytes += rib_bytes;
    totals.fib_prefixes += prefixes;
    totals.fib_route_entries += routes;
    totals.fib_bytes += fib_bytes;
    DeviceMem {
        device: dev.0,
        rib_bytes,
        fib_bytes,
    }
}

impl Emulation {
    /// `PullReport`: the run's observability snapshot — phase and
    /// recovery spans, the merged metrics registry, orchestrator events,
    /// and the time-sorted journal. Canonical JSON
    /// ([`RunReport::to_json`]) is bit-identical across repetitions for
    /// the same seed; the empty report is returned when the mockup was
    /// built with `telemetry(false)`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use crystalnet::prelude::*;
    /// # use crystalnet::PlanOptions;
    /// # use crystalnet_net::fixtures::fig7;
    /// # let f = fig7();
    /// # let prep = prepare(&f.topo, &[], BoundaryMode::WholeNetwork,
    /// #     SpeakerSource::OriginatedOnly, &PlanOptions::default());
    /// let emu = mockup(Arc::new(prep), MockupOptions::builder().build());
    ///
    /// let report = emu.pull_report();
    /// assert!(report.enabled);
    /// assert!(report.counters["routing.devices_booted"] > 0);
    /// let json = report.to_json(); // the canonical artifact CI validates
    /// # assert!(json.contains("\"spans\""));
    /// ```
    #[must_use]
    pub fn pull_report(&self) -> RunReport {
        let Some(mem) = MemRecorder::from_recorder(&*self.sim.engine.world.recorder) else {
            return RunReport::disabled();
        };
        let mut report = mem
            .report()
            .with_meta("seed", FieldValue::U64(self.options.seed))
            .with_meta("devices", FieldValue::U64(self.sandboxes.len() as u64))
            .with_meta("vms", FieldValue::U64(self.vm_ids.len() as u64))
            .with_meta("quiet", FieldValue::Dur(self.options.quiet))
            .with_meta("deadline", FieldValue::Dur(self.options.deadline))
            .with_meta("network_ready", FieldValue::Dur(self.metrics.network_ready))
            .with_meta("route_ready", FieldValue::Dur(self.metrics.route_ready));
        // Per-device convergence spans, derived from the last
        // route-activity gauge: boot start → final route installation.
        if let Some(per_dev) = mem.device_gauge("routing.convergence_ns") {
            let start = self.metrics.ready_at - self.metrics.route_ready;
            for (&dev, &end_ns) in per_dev {
                report.spans.push(SpanRecord {
                    name: "convergence".to_string(),
                    device: Some(dev),
                    start,
                    end: SimTime(end_ns),
                });
            }
        }
        report.journal = self
            .journal
            .sorted()
            .events
            .iter()
            .map(JournalEvent::to_event_record)
            .collect();
        // Execution-shape facts: never part of the canonical sections.
        report.diagnostics.insert(
            "sim.engine.events_executed".to_string(),
            self.sim.engine.events_executed(),
        );
        report.diagnostics.insert(
            "sim.engine.queue_high_water".to_string(),
            self.sim.engine.queue_high_water() as u64,
        );
        let (hits, misses) = crystalnet_routing::intern_stats();
        report
            .diagnostics
            .insert("routing.intern_hits".to_string(), hits);
        report
            .diagnostics
            .insert("routing.intern_misses".to_string(), misses);
        if mem.profiling_enabled() {
            report.memory = Some(self.memory_section(None));
        }
        report
    }

    /// Builds the memory-accounting section of a profiled report.
    ///
    /// Byte figures are entry counts multiplied by struct-size
    /// estimates, not allocator measurements — deterministic for a seed
    /// on a given platform, which is what a regression baseline needs.
    pub(crate) fn memory_section(&self, fork_cow: Option<CowStats>) -> MemorySection {
        // An interned attrs record amortizes an AS path and a hash-table
        // slot; a queued event is its envelope. Flat per-entry estimates.
        const ATTRS_BYTES: u64 = 96;
        const QUEUE_EVENT_BYTES: u64 = 128;

        let mut totals = DeviceMemTotals::default();
        let mut per_dev: Vec<DeviceMem> = self
            .sandboxes
            .keys()
            .filter_map(|&dev| Some(add_device_mem(&mut totals, dev, self.sim.os(dev)?)))
            .collect();
        per_dev.sort_by_key(|d| (std::cmp::Reverse(d.rib_bytes + d.fib_bytes), d.device));
        per_dev.truncate(8);

        let (hits, _misses) = crystalnet_routing::intern_stats();
        let entries = crystalnet_routing::PathAttrs::interned_count() as u64;
        let pending = self.sim.engine.events_pending() as u64;
        MemorySection {
            devices: totals,
            top_devices: per_dev,
            interner: InternerMem {
                entries,
                table_bytes: entries * ATTRS_BYTES,
                hits,
                hit_bytes_saved: hits * ATTRS_BYTES,
            },
            event_queue: QueueMem {
                pending_events: pending,
                residue_bytes: pending * QUEUE_EVENT_BYTES,
            },
            fork_cow,
        }
    }

    /// The health plane's gauges as a canonical
    /// [`HealthReport`](crate::health::HealthReport) (see
    /// [`crate::health`]). When the health plane is off
    /// ([`MockupOptionsBuilder::health`](crate::MockupOptionsBuilder::health) not called), returns
    /// [`HealthReport::disabled`](crate::health::HealthReport::disabled).
    #[must_use]
    pub fn pull_health(&self) -> crate::health::HealthReport {
        match self.sim.health() {
            Some(state) => {
                crate::health::HealthReport::from_state(state, |d| self.topo.device(d).name.clone())
            }
            None => crate::health::HealthReport::disabled(),
        }
    }

    /// The traffic plane's gauges as a canonical
    /// [`TrafficReport`](crate::traffic::TrafficReport) (see
    /// [`crate::traffic`]). When the traffic plane is off
    /// ([`MockupOptionsBuilder::traffic`](crate::MockupOptionsBuilder::traffic) not called), returns
    /// [`TrafficReport::disabled`](crate::traffic::TrafficReport::disabled).
    #[must_use]
    pub fn pull_traffic(&self) -> crate::traffic::TrafficReport {
        match self.sim.traffic() {
            Some(state) => crate::traffic::TrafficReport::from_state(state, |d| {
                self.topo.device(d).name.clone()
            }),
            None => crate::traffic::TrafficReport::disabled(),
        }
    }

    /// The incident timeline with causes correlated: every watchdog
    /// firing (blackhole, forwarding loop, SLO breach, FIB-churn
    /// anomaly, and — when the traffic plane runs — link
    /// over-subscription, ECMP polarisation, flow SLO breach) in
    /// virtual-time order, each attributed to the nearest preceding
    /// fault, recovery action, or applied change within
    /// [`crate::health::CORRELATION_WINDOW`].
    #[must_use]
    pub fn incidents(&self) -> Vec<crate::health::CorrelatedIncident> {
        // Each plane keeps its log in timeline order, so the shared
        // timeline is a two-way merge by reference.
        let health = self.sim.health().map_or(&[][..], |h| &h.incidents);
        let traffic = self.sim.traffic().map_or(&[][..], |t| &t.incidents);
        let (mut health, mut traffic) = (health.iter().peekable(), traffic.iter().peekable());
        let merged = std::iter::from_fn(|| match (health.peek(), traffic.peek()) {
            (Some(h), Some(t)) if t.sort_key() < h.sort_key() => traffic.next(),
            (Some(_), _) => health.next(),
            (None, _) => traffic.next(),
        });
        crate::health::correlate(merged, &self.journal, &self.change_log, |d| {
            self.topo.device(d).name.clone()
        })
    }

    /// [`Self::incidents`] as JSONL — one canonical object per line,
    /// artifact-friendly.
    #[must_use]
    pub fn incidents_jsonl(&self) -> String {
        crate::health::incidents_jsonl(&self.incidents())
    }

    /// `List`: all emulated devices with hostnames and liveness.
    #[must_use]
    pub fn list(&self) -> Vec<(DeviceId, String, bool)> {
        self.sandboxes
            .keys()
            .map(|&d| (d, self.topo.device(d).name.clone(), self.sim.is_up(d)))
            .collect()
    }

    /// `Login`: resolve a device by management DNS name and run a command
    /// over the management overlay.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if the name does not resolve,
    /// [`EmulationError::VmDown`] / [`EmulationError::DeviceRecovering`]
    /// if the device is unreachable mid-fault, and
    /// [`EmulationError::DeviceUnresponsive`] if it resolved but did not
    /// answer (powered off or shut down).
    pub fn login_and_run(
        &mut self,
        name: &str,
        cmd: MgmtCommand,
    ) -> Result<MgmtResponse, EmulationError> {
        let dev = self
            .mgmt
            .resolve(name)
            .and_then(|addr| self.mgmt.reverse(addr))
            .and_then(|host| self.topo.by_name(host))
            .ok_or_else(|| EmulationError::UnknownDevice(name.to_string()))?;
        self.guard(dev)?;
        self.sim
            .mgmt_sync(dev, cmd)
            .ok_or_else(|| EmulationError::DeviceUnresponsive(name.to_string()))
    }

    /// `PullStates`: forwarding/RIB summary for one device.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`], [`EmulationError::VmDown`], or
    /// [`EmulationError::DeviceRecovering`] when the device is absent or
    /// unreachable mid-fault.
    pub fn pull_states(&self, dev: DeviceId) -> Result<DeviceState, EmulationError> {
        self.guard(dev)?;
        let os = self.sim.os(dev).ok_or_else(|| self.unknown_device(dev))?;
        Ok(DeviceState {
            device: dev,
            hostname: os.hostname().to_string(),
            up: self.sim.is_up(dev),
            rib_size: os.rib_size(),
            fib_prefixes: os.fib().len(),
            fib_route_entries: os.fib().route_entry_count(),
        })
    }

    /// `PullConfig`: the running configuration text for rollback.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if no prepared configuration
    /// exists for `dev` (speakers, unemulated ids), plus the
    /// `guard` reachability errors.
    pub fn pull_config(&self, dev: DeviceId) -> Result<String, EmulationError> {
        self.guard(dev)?;
        self.effective_config(dev)
            .map(crystalnet_config::render)
            .ok_or_else(|| self.unknown_device(dev))
    }

    /// The configuration the device is *currently* running: the last one
    /// applied by [`Self::reload`] / `apply_change`, falling back to the
    /// prepared snapshot. `None` for speakers and unemulated ids.
    pub(crate) fn effective_config(&self, dev: DeviceId) -> Option<&DeviceConfig> {
        self.config_overrides
            .get(&dev)
            .or_else(|| self.prep.config(dev))
    }

    /// `InjectPackets`: sends a probe with a fresh telemetry signature
    /// from `from`, captures per-hop traces, and returns the signature.
    ///
    /// Signatures are 16 bits wide (the IPv4 identification field) and
    /// wrap after 65,535 injections: a signature names the *latest*
    /// packet injected under it, whose trace replaces the earlier one.
    pub fn inject_packet(&mut self, from: DeviceId, src: Ipv4Addr, dst: Ipv4Addr) -> Signature {
        let sig = Signature(self.next_signature);
        self.next_signature = self.next_signature.wrapping_add(1).max(1);
        let pkt = Ipv4Packet {
            src,
            dst,
            protocol: crystalnet_dataplane::ipproto::UDP,
            ttl: 64,
            identification: sig.0,
            payload: Bytes::new(),
        };
        let now = self.now().as_nanos();
        self.traces.clear(sig);
        let mut hops = 0;
        self.sim.walk_packet(from, &pkt, |hop| {
            // Join the packet hop to the control plane: the digest of the
            // provenance chain behind the FIB entry this device used.
            let prov = hop
                .os
                .zip(hop.matched)
                .and_then(|(os, prefix)| Some(os.route_detail(prefix)?.prov.digest()));
            self.traces.capture(
                &pkt,
                TraceEvent {
                    at_nanos: now + u64::from(hops) * 1_000,
                    device: hop.device,
                    ingress: hop.ingress,
                    decision: hop.decision,
                    hop: hops,
                    prov,
                },
            );
            hops += 1;
        });
        sig
    }

    /// `PullPackets`: the path a signature took and its fate.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownSignature`] if no trace was captured
    /// under `sig`.
    pub fn pull_packets(
        &self,
        sig: Signature,
    ) -> Result<(Vec<DeviceId>, ForwardDecision), EmulationError> {
        match self.traces.outcome(sig) {
            Some(outcome) => Ok((self.traces.path(sig), outcome)),
            None => Err(EmulationError::UnknownSignature(sig.0)),
        }
    }

    /// `ExplainRoute`: the full causal answer to "why does `device`
    /// forward `prefix` that way?" — origin announcement, per-hop
    /// propagation chain (with hostnames and event ids), and the
    /// best-path decision reason.
    ///
    /// # Errors
    ///
    /// [`EmulationError::UnknownDevice`] if the hostname does not
    /// resolve, the `guard` reachability errors, and
    /// [`EmulationError::NoRoute`] if the device holds no FIB entry for
    /// `prefix`.
    pub fn explain_route(
        &self,
        device: &str,
        prefix: Ipv4Prefix,
    ) -> Result<RouteExplanation, EmulationError> {
        let dev = self
            .topo
            .by_name(device)
            .ok_or_else(|| EmulationError::UnknownDevice(device.to_string()))?;
        self.guard(dev)?;
        let os = self
            .sim
            .os(dev)
            .ok_or_else(|| EmulationError::UnknownDevice(device.to_string()))?;
        let detail = os.route_detail(prefix).ok_or(EmulationError::NoRoute {
            device: device.to_string(),
            prefix,
        })?;
        Ok(RouteExplanation::from_detail(
            dev,
            os.hostname().to_string(),
            prefix,
            &detail,
            |router| self.hostname_of_loopback(router),
        ))
    }

    /// Resolves a router loopback back to its production hostname.
    fn hostname_of_loopback(&self, loopback: Ipv4Addr) -> Option<String> {
        (0..self.topo.device_count() as u32)
            .map(DeviceId)
            .find(|&d| self.topo.device(d).loopback == loopback)
            .map(|d| self.topo.device(d).name.clone())
    }

    /// `PullTrace`: the merged deterministic causal trace — control-plane
    /// records (boots, link transitions, frame deliveries, FIB mutations
    /// with provenance) from the ring-buffer sink, plus one `packet_hop`
    /// record per captured [`TraceEvent`], each carrying the provenance
    /// digest of the FIB entry that forwarded it. Sorted by the global
    /// rank, so the stream is byte-identical across repetitions for a
    /// fixed seed.
    #[must_use]
    pub fn pull_trace(&self) -> Vec<TraceRecord> {
        let mut recs: Vec<TraceRecord> =
            MemRecorder::from_recorder(&*self.sim.engine.world.recorder)
                .and_then(MemRecorder::trace_sink)
                .map(crystalnet_telemetry::TraceSink::records)
                .unwrap_or_default();
        for sig in self.traces.signatures() {
            for ev in self.traces.events(sig) {
                // Synthetic event id in a key range no scheduled event
                // uses (high bit set), so packet hops interleave with
                // control-plane records by time without colliding.
                let id = EventId {
                    time_ns: ev.at_nanos,
                    key: (1 << 63) | (u64::from(sig.0) << 16) | u64::from(ev.hop),
                };
                let mut fields = vec![
                    ("signature", FieldValue::U64(u64::from(sig.0))),
                    ("hop", FieldValue::U64(u64::from(ev.hop))),
                    (
                        "decision",
                        FieldValue::Str(decision_label(ev.decision).to_string()),
                    ),
                ];
                if let Some(p) = ev.prov {
                    fields.push(("prov", FieldValue::U64(p)));
                }
                recs.push(TraceRecord::new(
                    SimTime(ev.at_nanos),
                    id,
                    None,
                    "packet_hop",
                    Some(ev.device.0),
                    fields,
                ));
            }
        }
        recs.sort_by_key(TraceRecord::rank);
        recs
    }

    /// The merged trace as JSON Lines (one record per line).
    #[must_use]
    pub fn trace_jsonl(&self) -> String {
        trace_jsonl(&self.pull_trace())
    }

    /// The merged trace as a Chrome trace-event JSON document, loadable
    /// in Perfetto / `chrome://tracing`.
    #[must_use]
    pub fn trace_chrome_json(&self) -> String {
        trace_chrome_json(&self.pull_trace())
    }

    /// Runtime Lemma 5.1 audit
    /// ([`audit_provenance`](crystalnet_boundary::audit_provenance)) over
    /// every converged route: a boundary-crossing route must *originate*
    /// at a speaker (the legal single crossing) and must never pass
    /// *through* one mid-chain (a second crossing).
    ///
    /// # Errors
    ///
    /// The first offending route, in device-id then iteration order.
    pub fn audit_boundary(&self) -> Result<(), crystalnet_boundary::ProvenanceWitness> {
        let speakers: BTreeSet<Ipv4Addr> = self
            .prep
            .speakers()
            .into_iter()
            .map(|d| self.topo.device(d).loopback)
            .collect();
        let mut devs: Vec<DeviceId> = self.sandboxes.keys().copied().collect();
        devs.sort_unstable_by_key(|d| d.0);
        for dev in devs {
            let Some(os) = self.sim.os(dev) else { continue };
            let rows = os.routes_with_detail();
            crystalnet_boundary::audit_provenance(
                rows.iter().map(|(p, detail)| (dev, *p, &*detail.prov)),
                &speakers,
            )?;
        }
        Ok(())
    }

    /// 95th-percentile CPU utilization across VMs per time bucket
    /// (Figure 9's series).
    #[must_use]
    pub fn cpu_p95_series(&self) -> Vec<f64> {
        let cloud = self.cloud.lock().expect("cloud lock poisoned");
        let until = self.now();
        let series: Vec<Vec<f64>> = cloud
            .vms()
            .iter()
            .map(|vm| vm.cpu.utilization_series(until))
            .collect();
        crystalnet_sim::metrics::pointwise_percentile(&series, 95.0)
    }

    /// The CPU histogram bucket width.
    #[must_use]
    pub fn cpu_bucket(&self) -> SimDuration {
        CloudParams::default().cpu_bucket
    }
}

/// A `PullStates` row.
#[derive(Debug, Clone)]
pub struct DeviceState {
    /// Device id.
    pub device: DeviceId,
    /// Hostname.
    pub hostname: String,
    /// Whether the device is up.
    pub up: bool,
    /// Loc-RIB prefixes.
    pub rib_size: usize,
    /// FIB prefixes.
    pub fib_prefixes: usize,
    /// FIB entries counting ECMP members (Table 3's unit).
    pub fib_route_entries: usize,
}
