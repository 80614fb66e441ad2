//! Static speaker devices (§5.1).
//!
//! Speakers replace the un-emulatable world beyond the boundary. They do
//! exactly two things: keep links and routing sessions alive with boundary
//! devices, and inject a *fixed*, pre-recorded set of announcements. They
//! deliberately never react to anything they hear — the safety theory of
//! §5 exists precisely so this non-reactivity cannot be observed from
//! inside a safe boundary. (The production implementation was ExaBGP; it
//! likewise "does not reflect announcements to other peers", §6.2.)

use crate::attrs::PathAttrs;
use crate::intern::Interned;
use crate::msg::{BgpMsg, Frame};
use crate::os::{DeviceOs, MgmtCommand, MgmtResponse, OsActions, OsEvent, OsMem};
use crate::provenance::{OriginKind, Provenance};
use crystalnet_dataplane::Fib;
use crystalnet_net::{Asn, CowBytes, Ipv4Addr, Ipv4Prefix};
use crystalnet_sim::{EventId, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The announcement program for one speaker session.
#[derive(Debug, Clone, Default)]
pub struct SpeakerScript {
    /// Routes to announce once the session is up.
    pub routes: Vec<(Ipv4Prefix, Interned<PathAttrs>)>,
}

/// A static BGP speaker standing in for one external device.
#[derive(Clone)]
pub struct SpeakerOs {
    hostname: String,
    asn: Asn,
    router_id: Ipv4Addr,
    /// Per-interface scripts (one boundary device per interface).
    scripts: BTreeMap<u32, SpeakerScript>,
    /// Sessions currently up, keyed by interface, holding the peer's
    /// session token.
    established: BTreeMap<u32, Option<u64>>,
    /// Everything received from boundary devices, dumped for analysis
    /// ("dump the received announcements for potential analysis", §6.2).
    received: Vec<(u32, Ipv4Prefix, Option<Interned<PathAttrs>>)>,
    fib: Fib,
    down: bool,
    /// Incarnation counter mixed into the session token. A speaker agent
    /// restarted by crash recovery must present a *fresh* token, otherwise
    /// boundary peers treat its Open as the same incarnation completing
    /// the old exchange and never flush/resync the session.
    epoch: u64,
    /// Stable id of the event being handled; stamps the origin of every
    /// announced route's causal chain (Lemma 5.1 audits the kind).
    cur_event: EventId,
}

impl SpeakerOs {
    /// A speaker with `asn`/`router_id` and per-interface scripts.
    #[must_use]
    pub fn new(hostname: String, asn: Asn, router_id: Ipv4Addr) -> Self {
        SpeakerOs {
            hostname,
            asn,
            router_id,
            scripts: BTreeMap::new(),
            established: BTreeMap::new(),
            received: Vec::new(),
            fib: Fib::default(),
            down: false,
            epoch: 0,
            cur_event: EventId::ZERO,
        }
    }

    /// Sets the announcement script for the session on `iface`.
    pub fn set_script(&mut self, iface: u32, script: SpeakerScript) {
        self.scripts.insert(iface, script);
    }

    /// Marks this instance as the `epoch`-th incarnation of the agent.
    ///
    /// Crash recovery builds a fresh [`SpeakerOs`] and bumps the epoch;
    /// the changed session token makes every boundary peer flush the old
    /// session and re-establish, after which the script replays — the
    /// restart-resync path.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The incarnation epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The session token this incarnation presents in its Opens.
    #[must_use]
    pub fn session_token(&self) -> u64 {
        (u64::from(self.router_id.0) << 20) | (self.epoch & 0xfffff)
    }

    /// The speaker's AS.
    #[must_use]
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Everything received (announcements as `Some`, withdrawals as
    /// `None`), in arrival order.
    #[must_use]
    pub fn received(&self) -> &[(u32, Ipv4Prefix, Option<Interned<PathAttrs>>)] {
        &self.received
    }

    /// Whether the session on `iface` is established.
    #[must_use]
    pub fn session_up(&self, iface: u32) -> bool {
        self.established.get(&iface).copied().flatten().is_some()
    }

    fn announce(&self, iface: u32, actions: &mut OsActions) {
        if let Some(script) = self.scripts.get(&iface) {
            if !script.routes.is_empty() {
                actions.route_ops += script.routes.len();
                // Every scripted route starts a Speaker-kind causal chain
                // here: one interner hit per event, free copies after.
                let prov =
                    Provenance::originated(OriginKind::Speaker, self.router_id, self.cur_event);
                actions.out.push((
                    iface,
                    Frame::Bgp(BgpMsg::Update {
                        announced: script.routes.iter().map(|&(p, a)| (p, a, prov)).collect(),
                        withdrawn: vec![],
                    }),
                ));
            }
        }
    }
}

impl DeviceOs for SpeakerOs {
    fn clone_shared(&self) -> Arc<dyn DeviceOs> {
        Arc::new(self.clone())
    }

    fn clone_boxed(&self) -> Box<dyn DeviceOs> {
        Box::new(self.clone())
    }

    fn handle(&mut self, _now: SimTime, event: OsEvent) -> OsActions {
        if self.down {
            return OsActions::default();
        }
        let mut actions = OsActions::default();
        match event {
            OsEvent::Boot | OsEvent::LinkUp(_) => {
                let ifaces: Vec<u32> = self.scripts.keys().copied().collect();
                let targets = match event {
                    OsEvent::LinkUp(i) => vec![i],
                    _ => ifaces,
                };
                for iface in targets {
                    actions.out.push((
                        iface,
                        Frame::Bgp(BgpMsg::Open {
                            asn: self.asn,
                            router_id: self.router_id,
                            // Speakers never police hold time: the session
                            // must stay up no matter what.
                            hold_secs: 0,
                            session_token: self.session_token(),
                        }),
                    ));
                }
            }
            OsEvent::LinkDown(iface) => {
                self.established.insert(iface, None);
            }
            OsEvent::Frame { iface, frame } => match frame {
                Frame::Bgp(BgpMsg::Open { session_token, .. }) => {
                    // A new peer incarnation (fresh token): answer the
                    // exchange and replay the script — a rebooted boundary
                    // device must hear the announcements again.
                    let known = self.established.get(&iface).copied().flatten();
                    if known != Some(session_token) {
                        actions.out.push((
                            iface,
                            Frame::Bgp(BgpMsg::Open {
                                asn: self.asn,
                                router_id: self.router_id,
                                hold_secs: 0,
                                session_token: self.session_token(),
                            }),
                        ));
                        actions.out.push((iface, Frame::Bgp(BgpMsg::Keepalive)));
                        self.established.insert(iface, Some(session_token));
                        self.announce(iface, &mut actions);
                    }
                }
                Frame::Bgp(BgpMsg::Keepalive) => {}
                Frame::Bgp(BgpMsg::Update {
                    announced,
                    withdrawn,
                }) => {
                    // Record, never react, never reflect.
                    for (p, a, _) in announced {
                        self.received.push((iface, p, Some(a)));
                    }
                    for p in withdrawn {
                        self.received.push((iface, p, None));
                    }
                }
                Frame::Bgp(BgpMsg::Notification { .. }) => {
                    self.established.insert(iface, None);
                }
                Frame::Bgp(BgpMsg::RouteRefresh) if self.session_up(iface) => {
                    // Replaying the fixed script is the one "response" a
                    // static speaker is allowed: it re-states what it
                    // already said, so non-reactivity is preserved.
                    self.announce(iface, &mut actions);
                }
                _ => {}
            },
            OsEvent::Timer(_) => {}
            OsEvent::Mgmt(cmd) => match cmd {
                MgmtCommand::ShowBgpSummary => {
                    let rows = self
                        .scripts
                        .keys()
                        .map(|&i| (Ipv4Addr(i), self.session_up(i), 0))
                        .collect();
                    actions.response = Some(MgmtResponse::BgpSummary(rows));
                }
                MgmtCommand::DeviceShutdown => {
                    self.down = true;
                    actions.response = Some(MgmtResponse::Ok);
                }
                _ => {
                    actions.response =
                        Some(MgmtResponse::Error("speakers are not configurable".into()));
                }
            },
        }
        actions
    }

    fn fib(&self) -> &Fib {
        &self.fib
    }

    fn rib_size(&self) -> usize {
        0
    }

    fn mem(&self) -> OsMem {
        let received = size_of_val(self.received.as_slice()) as u64;
        OsMem {
            adj_rib_in: CowBytes {
                own: received,
                shared: 0,
            },
            fib: self.fib.mem(),
            sessions: size_of::<Self>() as u64,
            ..OsMem::default()
        }
    }

    fn is_down(&self) -> bool {
        self.down
    }

    fn hostname(&self) -> &str {
        &self.hostname
    }

    fn begin_event(&mut self, id: EventId) {
        self.cur_event = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::PathAttrs;

    fn script(prefix: &str) -> SpeakerScript {
        SpeakerScript {
            routes: vec![(
                prefix.parse().unwrap(),
                PathAttrs {
                    as_path: vec![Asn(64600)],
                    ..PathAttrs::originated(Ipv4Addr(1))
                }
                .intern(),
            )],
        }
    }

    #[test]
    fn speaker_announces_script_after_session_up() {
        let mut s = SpeakerOs::new("sp0".into(), Asn(64600), Ipv4Addr(1));
        s.set_script(0, script("0.0.0.0/0"));
        // Boot: speaker opens.
        let a = s.handle(SimTime::ZERO, OsEvent::Boot);
        assert_eq!(a.out.len(), 1);
        assert!(!s.session_up(0));
        // Peer's Open arrives: speaker answers Open+Keepalive+Update.
        let a = s.handle(
            SimTime::ZERO,
            OsEvent::Frame {
                iface: 0,
                frame: Frame::Bgp(BgpMsg::Open {
                    asn: Asn(65000),
                    router_id: Ipv4Addr(9),
                    hold_secs: 180,
                    session_token: 7,
                }),
            },
        );
        assert!(s.session_up(0));
        let kinds: Vec<bool> = a
            .out
            .iter()
            .map(|(_, f)| matches!(f, Frame::Bgp(BgpMsg::Update { .. })))
            .collect();
        assert_eq!(a.out.len(), 3);
        assert!(kinds[2], "script announced last");
    }

    #[test]
    fn boot_and_summary_follow_interface_order_in_every_speaker() {
        // Each Open takes the next event key in send order, so an order
        // that differs between two fresh speakers changes the trace.
        for _ in 0..32 {
            let mut s = SpeakerOs::new("sp0".into(), Asn(64600), Ipv4Addr(1));
            for iface in [5, 0, 3, 1, 4, 2] {
                s.set_script(iface, script("0.0.0.0/0"));
            }
            let boot = s.handle(SimTime::ZERO, OsEvent::Boot);
            let opens: Vec<u32> = boot.out.iter().map(|(iface, _)| *iface).collect();
            assert_eq!(opens, [0, 1, 2, 3, 4, 5]);
            let summary = s.handle(SimTime::ZERO, OsEvent::Mgmt(MgmtCommand::ShowBgpSummary));
            let Some(MgmtResponse::BgpSummary(rows)) = summary.response else {
                panic!("a speaker answers ShowBgpSummary");
            };
            let listed: Vec<u32> = rows.iter().map(|(peer, _, _)| peer.0).collect();
            assert_eq!(listed, [0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn speaker_never_reacts_to_updates() {
        let mut s = SpeakerOs::new("sp0".into(), Asn(64600), Ipv4Addr(1));
        s.set_script(0, script("0.0.0.0/0"));
        s.handle(SimTime::ZERO, OsEvent::Boot);
        s.handle(
            SimTime::ZERO,
            OsEvent::Frame {
                iface: 0,
                frame: Frame::Bgp(BgpMsg::Keepalive),
            },
        );
        // An update arrives from the boundary: recorded, nothing sent.
        let attrs = PathAttrs::originated(Ipv4Addr(7)).intern();
        let prov = Provenance::originated(
            OriginKind::Network,
            Ipv4Addr(7),
            crystalnet_sim::EventId::ZERO,
        );
        let a = s.handle(
            SimTime::ZERO,
            OsEvent::Frame {
                iface: 0,
                frame: Frame::Bgp(BgpMsg::Update {
                    announced: vec![("10.1.0.0/16".parse().unwrap(), attrs, prov)],
                    withdrawn: vec!["10.2.0.0/16".parse().unwrap()],
                }),
            },
        );
        assert!(a.out.is_empty(), "static speakers never react");
        assert_eq!(s.received().len(), 2);
        assert!(s.received()[0].2.is_some());
        assert!(s.received()[1].2.is_none());
    }

    #[test]
    fn restarted_incarnation_presents_fresh_token() {
        let mut gen1 = SpeakerOs::new("sp0".into(), Asn(64600), Ipv4Addr(1));
        gen1.set_script(0, script("0.0.0.0/0"));
        let mut gen2 = SpeakerOs::new("sp0".into(), Asn(64600), Ipv4Addr(1));
        gen2.set_script(0, script("0.0.0.0/0"));
        gen2.set_epoch(1);
        assert_ne!(
            gen1.session_token(),
            gen2.session_token(),
            "a restarted speaker must look like a new incarnation to peers"
        );
        // The fresh incarnation opens with the bumped token, so a peer that
        // remembers the old token flushes and resyncs.
        let a = gen2.handle(SimTime::ZERO, OsEvent::Boot);
        match &a.out[0].1 {
            Frame::Bgp(BgpMsg::Open { session_token, .. }) => {
                assert_eq!(*session_token, gen2.session_token());
            }
            other => panic!("expected Open, got {other:?}"),
        }
        // And replays its script once the peer answers.
        let a = gen2.handle(
            SimTime::ZERO,
            OsEvent::Frame {
                iface: 0,
                frame: Frame::Bgp(BgpMsg::Open {
                    asn: Asn(65000),
                    router_id: Ipv4Addr(9),
                    hold_secs: 180,
                    session_token: 7,
                }),
            },
        );
        assert!(a
            .out
            .iter()
            .any(|(_, f)| matches!(f, Frame::Bgp(BgpMsg::Update { .. }))));
    }

    #[test]
    fn speaker_is_not_configurable() {
        let mut s = SpeakerOs::new("sp0".into(), Asn(64600), Ipv4Addr(1));
        let a = s.handle(
            SimTime::ZERO,
            OsEvent::Mgmt(MgmtCommand::AddNetwork("1.0.0.0/8".parse().unwrap())),
        );
        assert!(matches!(a.response, Some(MgmtResponse::Error(_))));
    }
}
