//! The harness's typed events: what can be scheduled, which shard owns
//! it, whether it counts against quiescence, and what firing it does.

use super::{ControlPlaneEngine, ControlPlaneWorld, WorkKind};
use crate::health::ProbeOutcome;
use crate::msg::{BgpMsg, Frame};
use crate::os::{MgmtCommand, OsActions, OsEvent, TimerKind};
use crate::plane::{plane_tick, walk_hop, walk_report, Plane, Walk};
use crystalnet_net::{DeviceId, LinkId};
use crystalnet_sim::{EventFire, EventId};
use crystalnet_telemetry::{FieldValue, Recorder, TraceRecord};

/// A typed harness event: no per-event heap allocation or dynamic
/// dispatch, and a content-derived tie-break key.
///
/// Keys are `(source + 1) << 32 | per-source counter` for device-sourced
/// events (frame deliveries, timers, boot completions — keyed by the
/// *emitting* device) and a plain counter for control-plane-script events
/// (boots, link flaps, management injections). Every key is globally
/// unique, so `(time, key)` totally orders harness events regardless of
/// the order they were pushed into any queue — the property the parallel
/// executor's cross-shard merge relies on for bit-identical replay.
///
/// The causal parent travels *inside* the event (not in engine
/// bookkeeping): the parallel executor drains, ships, and re-schedules
/// events across shard queues, and the cause link must survive that trip.
#[derive(Debug, Clone)]
pub struct HarnessEvent {
    pub(crate) key: u64,
    /// Stable id of the event whose firing scheduled this one; `None` for
    /// script-scheduled events (boots, link flaps, management injections).
    pub(crate) cause: Option<EventId>,
    pub(crate) kind: HarnessEventKind,
}

#[derive(Debug, Clone)]
pub(crate) enum HarnessEventKind {
    /// Boot requested: ask the work model for the boot completion time.
    BootStart(DeviceId),
    /// Boot work finished: the OS comes up.
    BootDone(DeviceId),
    /// A link changes state; both endpoint OSes are notified.
    LinkState {
        lid: LinkId,
        up: bool,
        a: DeviceId,
        ia: u32,
        b: DeviceId,
        ib: u32,
    },
    /// A management command arrives over the jumpbox.
    Mgmt(DeviceId, MgmtCommand),
    /// An armed OS timer fires.
    Timer(DeviceId, TimerKind),
    /// A frame arrives at `dev` on `iface` (link state re-checked on
    /// delivery).
    Deliver {
        dev: DeviceId,
        iface: u32,
        frame: Frame,
        link: LinkId,
    },
    /// A round of `plane` begins (broadcast: every shard replays the
    /// identical tick and launches walks for the sources it owns).
    PlaneTick { plane: Plane, round: u64 },
    /// A walk's packet arrives at `walk.at` for a forwarding decision.
    WalkHop { plane: Plane, walk: Walk },
    /// A walk's fate travels back to its source's gauges.
    WalkReport {
        plane: Plane,
        walk: Walk,
        outcome: ProbeOutcome,
    },
}

impl HarnessEvent {
    /// The device whose shard must process this event; `None` for
    /// broadcast events (link state, plane ticks), which every shard
    /// replays.
    pub(crate) fn target_device(&self) -> Option<DeviceId> {
        match &self.kind {
            HarnessEventKind::BootStart(d)
            | HarnessEventKind::BootDone(d)
            | HarnessEventKind::Mgmt(d, _)
            | HarnessEventKind::Timer(d, _) => Some(*d),
            HarnessEventKind::Deliver { dev, .. } => Some(*dev),
            HarnessEventKind::WalkHop { walk, .. } => Some(walk.at),
            HarnessEventKind::WalkReport { walk, .. } => Some(walk.src),
            HarnessEventKind::LinkState { .. } | HarnessEventKind::PlaneTick { .. } => None,
        }
    }

    /// Whether this event counts against `causal_pending` while queued.
    /// Everything but pure timers and the packet-walk planes does:
    /// boots, link changes, management injections, and frame deliveries
    /// can all trigger route activity. Plane events are observers by
    /// construction — keeping them non-causal is what makes probing (or
    /// loading) a network not change when it is declared converged.
    pub(crate) fn is_causal(&self) -> bool {
        !matches!(
            self.kind,
            HarnessEventKind::Timer(..)
                | HarnessEventKind::PlaneTick { .. }
                | HarnessEventKind::WalkHop { .. }
                | HarnessEventKind::WalkReport { .. }
        )
    }
}

impl EventFire<ControlPlaneWorld> for HarnessEvent {
    fn key(&self) -> u64 {
        self.key
    }

    fn cause(&self) -> Option<EventId> {
        self.cause
    }

    fn fire(self, e: &mut ControlPlaneEngine) {
        match self.kind {
            HarnessEventKind::BootStart(dev) => {
                let ready = e.world.work.completion(dev, WorkKind::Boot, e.now());
                let key = e.world.device_key(dev);
                let cause = e.current_event();
                e.schedule_event_at(
                    ready,
                    HarnessEvent {
                        key,
                        cause,
                        kind: HarnessEventKind::BootDone(dev),
                    },
                );
            }
            HarnessEventKind::BootDone(dev) => {
                e.world.causal_pending -= 1;
                e.world.booted[dev.index()] = true;
                if e.world.recorder.enabled() {
                    let now = e.now().as_nanos();
                    e.world.recorder.counter_add("routing.devices_booted", 1);
                    e.world.recorder.gauge_max("routing.last_boot_done_ns", now);
                }
                if e.world.recorder.trace_enabled() {
                    trace_here(e, "boot_done", Some(dev), vec![]);
                }
                dispatch(e, dev, OsEvent::Boot);
            }
            HarnessEventKind::LinkState {
                lid,
                up,
                a,
                ia,
                b,
                ib,
            } => {
                e.world.causal_pending -= 1;
                e.world.link_up.insert(lid, up);
                let (ev_a, ev_b) = if up {
                    (OsEvent::LinkUp(ia), OsEvent::LinkUp(ib))
                } else {
                    (OsEvent::LinkDown(ia), OsEvent::LinkDown(ib))
                };
                // The transition is recorded per *endpoint* (guarded by OS
                // presence) so each record is emitted exactly once — on the
                // shard owning that endpoint — even though every shard
                // replays the wiring change itself.
                for (dev, _iface) in [(a, ia), (b, ib)] {
                    if e.world.recorder.trace_enabled() && e.world.oses[dev.index()].is_some() {
                        trace_here(
                            e,
                            "link_state",
                            Some(dev),
                            vec![
                                ("link", FieldValue::U64(u64::from(lid.0))),
                                ("up", FieldValue::Bool(up)),
                            ],
                        );
                    }
                }
                dispatch(e, a, ev_a);
                dispatch(e, b, ev_b);
            }
            HarnessEventKind::Mgmt(dev, cmd) => {
                e.world.causal_pending -= 1;
                if e.world.recorder.trace_enabled() {
                    trace_here(e, "mgmt", Some(dev), vec![]);
                }
                dispatch(e, dev, OsEvent::Mgmt(cmd));
            }
            HarnessEventKind::Timer(dev, kind) => {
                dispatch(e, dev, OsEvent::Timer(kind));
            }
            HarnessEventKind::Deliver {
                dev,
                iface,
                frame,
                link,
            } => {
                e.world.causal_pending -= 1;
                // Re-check link state at delivery time.
                if e.world.link_is_up(link) {
                    if e.world.recorder.enabled() {
                        record_frame(&mut *e.world.recorder, &frame, false);
                    }
                    if e.world.recorder.trace_enabled() {
                        trace_here(
                            e,
                            "frame_rx",
                            Some(dev),
                            vec![
                                ("kind", FieldValue::Str(frame.kind().to_string())),
                                ("iface", FieldValue::U64(u64::from(iface))),
                            ],
                        );
                    }
                    dispatch(e, dev, OsEvent::Frame { iface, frame });
                }
            }
            HarnessEventKind::PlaneTick { plane, round } => plane_tick(e, plane, round),
            HarnessEventKind::WalkHop { plane, walk } => walk_hop(e, plane, walk),
            HarnessEventKind::WalkReport {
                plane,
                walk,
                outcome,
            } => walk_report(e, plane, walk, outcome),
        }
    }
}

/// Emits one trace record under the currently firing event. The id falls
/// back to [`EventId::ZERO`] for synchronous out-of-event calls
/// (`mgmt_sync`), which by construction happen before or after the run.
pub(crate) fn trace_here(
    e: &mut ControlPlaneEngine,
    name: &'static str,
    dev: Option<DeviceId>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let id = e.current_event().unwrap_or(EventId::ZERO);
    let cause = e.current_cause();
    let rec = TraceRecord::new(e.now(), id, cause, name, dev.map(|d| d.0), fields);
    e.world.recorder.trace(rec);
}

/// Core dispatcher: feeds `event` to `dev`'s OS and schedules the actions.
pub(crate) fn dispatch(e: &mut ControlPlaneEngine, dev: DeviceId, event: OsEvent) {
    let now = e.now();
    let idx = dev.index();
    let cur = e.current_event().unwrap_or(EventId::ZERO);
    let actions: OsActions = {
        let world = &mut e.world;
        // Frames reach only booted devices; timers/mgmt likewise.
        let is_boot = matches!(event, OsEvent::Boot);
        if !is_boot && !world.booted[idx] {
            return;
        }
        let Some(os) = world.os_mut(dev) else {
            return;
        };
        // Stamp the event id first: provenance chains the OS builds while
        // handling must point at this event.
        os.begin_event(cur);
        os.handle(now, event)
    };
    // Journaled RIB/FIB mutations become trace records naming the causal
    // chain and decision reason of the installed path.
    if e.world.recorder.trace_enabled() {
        let muts = e
            .world
            .os_mut(dev)
            .map(|os| os.take_route_mutations())
            .unwrap_or_default();
        for m in muts {
            let mut fields = vec![("prefix", FieldValue::Str(m.prefix.to_string()))];
            if let Some(prov) = &m.prov {
                fields.push((
                    "origin",
                    FieldValue::Str(prov.origin_kind.label().to_string()),
                ));
                fields.push(("prov", FieldValue::U64(prov.digest())));
                fields.push(("chain_len", FieldValue::U64(prov.hops.len() as u64 + 1)));
            }
            if let Some(reason) = m.reason {
                fields.push(("reason", FieldValue::Str(reason.label().to_string())));
            }
            trace_here(e, m.kind.label(), Some(dev), fields);
        }
    }
    let done = if actions.route_ops > 0 {
        let t = e
            .world
            .work
            .completion(dev, WorkKind::RouteOps(actions.route_ops), now);
        e.world.route_ops_total += actions.route_ops as u64;
        *e.world.route_ops_by_dev.entry(dev).or_insert(0) += actions.route_ops as u64;
        e.world.last_route_activity = e.world.last_route_activity.max(t);
        if let Some(h) = e.world.planes.health.as_mut() {
            *h.ops_since_tick.entry(dev).or_insert(0) += actions.route_ops as u64;
        }
        if e.world.recorder.enabled() {
            let rec = &mut *e.world.recorder;
            rec.device_counter_add("routing.route_churn", dev.0, actions.route_ops as u64);
            rec.device_gauge_max("routing.convergence_ns", dev.0, t.as_nanos());
            rec.gauge_max("routing.last_route_activity_ns", t.as_nanos());
        }
        t
    } else {
        now
    };
    if actions.crashed {
        e.world.crashes.push((now, dev));
    }
    if let Some(resp) = actions.response {
        e.world.mgmt_responses.push((dev, resp));
    }
    let cause = e.current_event();
    for (delay, kind) in actions.timers {
        let key = e.world.device_key(dev);
        e.schedule_event_at(
            done + delay,
            HarnessEvent {
                key,
                cause,
                kind: HarnessEventKind::Timer(dev, kind),
            },
        );
    }
    for (iface, frame) in actions.out {
        let Some(Some(adj)) = e.world.adjacency[idx].get(iface as usize) else {
            continue;
        };
        let (rdev, riface, link) = (adj.remote_dev, adj.remote_iface, adj.link);
        if !e.world.link_is_up(link) {
            continue;
        }
        let arrive = done + e.world.work.link_delay(link, done);
        // Counted here, after the link-up check: frames *actually sent*
        // are a world fact the parallel replay reproduces exactly.
        if e.world.recorder.enabled() {
            record_frame(&mut *e.world.recorder, &frame, true);
        }
        if e.world.recorder.trace_enabled() {
            trace_here(
                e,
                "frame_tx",
                Some(dev),
                vec![
                    ("kind", FieldValue::Str(frame.kind().to_string())),
                    ("iface", FieldValue::U64(u64::from(iface))),
                ],
            );
        }
        // Keyed by the *sender*: the key travels with the frame, so a
        // cross-shard delivery merges into the receiver's queue at exactly
        // the position the serial engine would have given it.
        let key = e.world.device_key(dev);
        let ev = HarnessEvent {
            key,
            cause,
            kind: HarnessEventKind::Deliver {
                dev: rdev,
                iface: riface,
                frame,
                link,
            },
        };
        if let Some(route) = &mut e.world.shard_route {
            let dest = route.shard_of[rdev.index()];
            if dest != route.self_shard {
                // The receiving shard accounts for the causal unit when
                // it enqueues the envelope at the next window barrier.
                route.outbox.push((dest, arrive, ev));
                continue;
            }
        }
        e.world.causal_pending += 1;
        e.schedule_event_at(arrive, ev);
    }
}

/// Classifies a frame into the canonical counter set. `sent` selects the
/// TX names (counted after the link-up check in [`dispatch`]) versus the
/// RX names (counted at delivery); both sets are world facts that the
/// parallel replay reproduces bit-identically.
fn record_frame(rec: &mut dyn Recorder, frame: &Frame, sent: bool) {
    let (frames, opens, updates, keepalives, notifications) = if sent {
        (
            "routing.frames_sent",
            "routing.bgp_opens_sent",
            "routing.bgp_updates_sent",
            "routing.bgp_keepalives_sent",
            "routing.bgp_notifications_sent",
        )
    } else {
        (
            "routing.frames_delivered",
            "routing.bgp_opens_received",
            "routing.bgp_updates_received",
            "routing.bgp_keepalives_received",
            "routing.bgp_notifications_received",
        )
    };
    rec.counter_add(frames, 1);
    if let Frame::Bgp(msg) = frame {
        match msg {
            BgpMsg::Open { .. } => rec.counter_add(opens, 1),
            BgpMsg::Update {
                announced,
                withdrawn,
            } => {
                rec.counter_add(updates, 1);
                if sent {
                    rec.counter_add("routing.bgp_prefixes_announced", announced.len() as u64);
                    rec.counter_add("routing.bgp_prefixes_withdrawn", withdrawn.len() as u64);
                }
            }
            BgpMsg::Keepalive => rec.counter_add(keepalives, 1),
            BgpMsg::Notification { .. } => rec.counter_add(notifications, 1),
            BgpMsg::RouteRefresh => rec.counter_add(
                if sent {
                    "routing.bgp_refreshes_sent"
                } else {
                    "routing.bgp_refreshes_received"
                },
                1,
            ),
        }
    }
}
