//! The harness's typed events: what can be scheduled, which device it is
//! addressed to, which lane it waits in, and what firing it does.

use super::{ControlPlaneEngine, ControlPlaneWorld, WorkKind};
use crate::health::ProbeOutcome;
use crate::msg::{BgpMsg, Frame};
use crate::os::{MgmtCommand, OsActions, OsEvent, TimerKind};
use crate::plane::{plane_tick, walk_hop, walk_report, Plane, Walk};
use crystalnet_net::{DeviceId, LinkId};
use crystalnet_sim::{EventFire, EventId, Lane};
use crystalnet_telemetry::{FieldValue, TraceRecord};

/// A typed harness event: no per-event heap allocation or dynamic
/// dispatch, and a content-derived tie-break key.
///
/// Keys are `(source + 1) << 32 | per-source counter` for device-sourced
/// events (frame deliveries, timers, boot completions — keyed by the
/// *emitting* device) and a plain counter for control-plane-script events
/// (boots, link flaps, management injections). Every key is globally
/// unique, so `(time, key)` totally orders harness events regardless of
/// the order they were pushed into a queue: a queue that
/// [`ControlPlaneSim::remove_device`](super::ControlPlaneSim::remove_device)
/// drains and requeues fires in the order it would have, under the same
/// event ids.
///
/// The causal parent travels *inside* the event (not in engine
/// bookkeeping), so the cause link survives a drain and requeue.
///
/// Each event's kind also fixes the engine lane it waits in
/// ([`EventFire::lane`]); the work lane's length is what
/// [`ControlPlaneSim::run_until_quiet`](super::ControlPlaneSim::run_until_quiet)
/// reads to tell whether routes can still change.
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
    /// A round of `plane` begins.
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
    /// The device this event is addressed to — the one whose removal
    /// drops it; `None` for link state and plane events. Link state
    /// belongs to no one device (it notifies both endpoints); a walk
    /// belongs to its plane, and outlives any device on its path: a hop
    /// that reaches a removed device ends there `DeviceDown`, and a
    /// report to a removed source still lands, so every walk is counted
    /// delivered or lost.
    pub(crate) fn target_device(&self) -> Option<DeviceId> {
        match &self.kind {
            HarnessEventKind::BootStart(d)
            | HarnessEventKind::BootDone(d)
            | HarnessEventKind::Mgmt(d, _)
            | HarnessEventKind::Timer(d, _) => Some(*d),
            HarnessEventKind::Deliver { dev, .. } => Some(*dev),
            HarnessEventKind::LinkState { .. }
            | HarnessEventKind::PlaneTick { .. }
            | HarnessEventKind::WalkHop { .. }
            | HarnessEventKind::WalkReport { .. } => None,
        }
    }
}

impl EventFire<ControlPlaneWorld> for HarnessEvent {
    fn key(&self) -> u64 {
        self.key
    }

    fn cause(&self) -> Option<EventId> {
        self.cause
    }

    /// Boots, link changes, management injections and frame deliveries
    /// can all trigger route activity, so they are [`Lane::Work`]: the
    /// events `run_until_quiet` waits for. OS timers and plane ticks are
    /// [`Lane::Timer`]. A walk's hops and report are [`Lane::Walk`], the
    /// plane events `walk_hop` may run inline (`crate::plane`, **Inline
    /// hops**). Plane events are observers by construction; keeping them
    /// out of the work lane is what makes probing (or loading) a network
    /// not change when it is declared converged.
    fn lane(&self) -> Lane {
        match self.kind {
            HarnessEventKind::Timer(..) | HarnessEventKind::PlaneTick { .. } => Lane::Timer,
            HarnessEventKind::WalkHop { .. } | HarnessEventKind::WalkReport { .. } => Lane::Walk,
            HarnessEventKind::BootStart(_)
            | HarnessEventKind::BootDone(_)
            | HarnessEventKind::LinkState { .. }
            | HarnessEventKind::Mgmt(..)
            | HarnessEventKind::Deliver { .. } => Lane::Work,
        }
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
                e.world.booted[dev.index()] = true;
                e.world.boots += 1;
                e.world.last_boot_done = e.world.last_boot_done.max(e.now());
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
                e.world.link_up[lid.index()] = up;
                let (ev_a, ev_b) = if up {
                    (OsEvent::LinkUp(ia), OsEvent::LinkUp(ib))
                } else {
                    (OsEvent::LinkDown(ia), OsEvent::LinkDown(ib))
                };
                // The transition is recorded per *endpoint* that has an
                // OS.
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
                // Re-check link state at delivery time.
                if e.world.link_is_up(link) {
                    e.world.frames.count(&frame, false);
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
        e.world.route_ops_by_dev[dev.index()] += actions.route_ops as u64;
        e.world.last_route_activity = e.world.last_route_activity.max(t);
        let last = &mut e.world.last_route_op_by_dev[dev.index()];
        *last = (*last).max(t);
        if let Some(h) = e.world.planes.health.as_mut() {
            *h.ops_since_tick.entry(dev).or_insert(0) += actions.route_ops as u64;
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
        // Counted here, after the link-up check: frames *actually sent*.
        e.world.frames.count(&frame, true);
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
        // Keyed by the *sender*, whose counter alone orders its frames:
        // the receiver's queue position does not depend on when anything
        // else was scheduled.
        let key = e.world.device_key(dev);
        e.schedule_event_at(
            arrive,
            HarnessEvent {
                key,
                cause,
                kind: HarnessEventKind::Deliver {
                    dev: rdev,
                    iface: riface,
                    frame,
                    link,
                },
            },
        );
    }
}

/// Frames and BGP messages one direction carried, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FrameCounts {
    pub(crate) frames: u64,
    pub(crate) opens: u64,
    pub(crate) updates: u64,
    pub(crate) keepalives: u64,
    pub(crate) notifications: u64,
    pub(crate) refreshes: u64,
}

/// The world's frame tallies: what was sent (counted after the link-up
/// check in [`dispatch`]), what was delivered (counted on an up link,
/// before dispatch), and the prefixes sent UPDATEs carried.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FrameTallies {
    pub(crate) sent: FrameCounts,
    pub(crate) delivered: FrameCounts,
    pub(crate) prefixes_announced: u64,
    pub(crate) prefixes_withdrawn: u64,
}

impl FrameTallies {
    /// Counts one frame, sent or delivered.
    fn count(&mut self, frame: &Frame, sent: bool) {
        let dir = if sent {
            &mut self.sent
        } else {
            &mut self.delivered
        };
        dir.frames += 1;
        let Frame::Bgp(msg) = frame else { return };
        match msg {
            BgpMsg::Open { .. } => dir.opens += 1,
            BgpMsg::Update {
                announced,
                withdrawn,
            } => {
                dir.updates += 1;
                if sent {
                    self.prefixes_announced += announced.len() as u64;
                    self.prefixes_withdrawn += withdrawn.len() as u64;
                }
            }
            BgpMsg::Keepalive => dir.keepalives += 1,
            BgpMsg::Notification { .. } => dir.notifications += 1,
            BgpMsg::RouteRefresh => dir.refreshes += 1,
        }
    }
}
