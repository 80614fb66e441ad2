//! An OSPFv2 engine: hellos, adjacency, LSA flooding, Dijkstra SPF, and
//! DR/BDR election.
//!
//! The paper's safe-boundary theory covers link-state IGPs too:
//! Proposition 5.4 requires boundary-adjacent links to stay unchanged and
//! the DR/BDR to be emulated devices. This module provides a real (single
//! area, router-LSA) OSPF implementation so those scenarios execute, plus
//! the election logic the proposition references.

use crate::msg::{Frame, OspfMsg};
use crate::os::{DeviceOs, MgmtCommand, MgmtResponse, OsActions, OsEvent, TimerKind};
use crate::provenance::{DecisionReason, OriginKind, Provenance, RouteDetail};
use crystalnet_dataplane::{Fib, FibEntry, NextHop};
use crystalnet_net::{Ipv4Addr, Ipv4Prefix};
use crystalnet_sim::{EventId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// A router LSA: the originator's view of its adjacencies and prefixes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterLsa {
    /// Originating router id.
    pub origin: Ipv4Addr,
    /// Monotonic sequence number.
    pub seq: u32,
    /// Adjacent router ids with link costs.
    pub links: Vec<(Ipv4Addr, u32)>,
    /// Prefixes attached to the originator with costs.
    pub prefixes: Vec<(Ipv4Prefix, u32)>,
}

/// DR/BDR election (RFC 2328 §9.4, simplified): highest priority wins,
/// router id breaks ties; priority 0 is ineligible; the runner-up is BDR.
#[must_use]
pub fn elect_dr_bdr(candidates: &[(Ipv4Addr, u8)]) -> (Option<Ipv4Addr>, Option<Ipv4Addr>) {
    let mut eligible: Vec<&(Ipv4Addr, u8)> = candidates.iter().filter(|(_, p)| *p > 0).collect();
    eligible.sort_by_key(|(id, p)| (std::cmp::Reverse(*p), std::cmp::Reverse(*id)));
    let dr = eligible.first().map(|(id, _)| *id);
    let bdr = eligible.get(1).map(|(id, _)| *id);
    (dr, bdr)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NeighborState {
    router_id: Ipv4Addr,
    /// Two-way: the neighbor lists us in its hello.
    adjacent: bool,
}

/// An OSPF router OS instance.
#[derive(Clone)]
pub struct OspfRouterOs {
    hostname: String,
    router_id: Ipv4Addr,
    priority: u8,
    /// Interfaces that run OSPF.
    ifaces: Vec<u32>,
    link_up: BTreeMap<u32, bool>,
    neighbors: BTreeMap<u32, NeighborState>,
    lsdb: BTreeMap<Ipv4Addr, Arc<RouterLsa>>,
    my_seq: u32,
    prefixes: Vec<(Ipv4Prefix, u32)>,
    fib: Fib,
    /// Per installed prefix: the LSA origin router and the event of the
    /// SPF run that installed it (feeds [`DeviceOs::route_detail`]).
    route_meta: BTreeMap<Ipv4Prefix, (Ipv4Addr, EventId)>,
    hello_interval: SimDuration,
    hello_armed: bool,
    down: bool,
    /// Stable id of the event being handled ([`DeviceOs::begin_event`]).
    cur_event: EventId,
}

impl OspfRouterOs {
    /// A router running OSPF on `ifaces`, originating `prefixes`.
    #[must_use]
    pub fn new(
        hostname: String,
        router_id: Ipv4Addr,
        priority: u8,
        ifaces: Vec<u32>,
        prefixes: Vec<Ipv4Prefix>,
    ) -> Self {
        OspfRouterOs {
            hostname,
            router_id,
            priority,
            link_up: ifaces.iter().map(|&i| (i, true)).collect(),
            ifaces,
            neighbors: BTreeMap::new(),
            lsdb: BTreeMap::new(),
            my_seq: 0,
            prefixes: prefixes.into_iter().map(|p| (p, 0)).collect(),
            fib: Fib::default(),
            route_meta: BTreeMap::new(),
            hello_interval: SimDuration::from_secs(1),
            hello_armed: false,
            down: false,
            cur_event: EventId::ZERO,
        }
    }

    /// The router id.
    #[must_use]
    pub fn router_id(&self) -> Ipv4Addr {
        self.router_id
    }

    /// The election priority.
    #[must_use]
    pub fn priority(&self) -> u8 {
        self.priority
    }

    /// Adjacent neighbor router ids.
    #[must_use]
    pub fn adjacencies(&self) -> Vec<Ipv4Addr> {
        let mut v: Vec<Ipv4Addr> = self
            .neighbors
            .values()
            .filter(|n| n.adjacent)
            .map(|n| n.router_id)
            .collect();
        v.sort_unstable();
        v
    }

    fn send_hellos(&self, actions: &mut OsActions) {
        let seen: Vec<Ipv4Addr> = self.neighbors.values().map(|n| n.router_id).collect();
        for &iface in &self.ifaces {
            if self.link_up.get(&iface).copied().unwrap_or(false) {
                actions.out.push((
                    iface,
                    Frame::Ospf(OspfMsg::Hello {
                        router_id: self.router_id,
                        priority: self.priority,
                        seen: seen.clone(),
                    }),
                ));
            }
        }
    }

    fn all_adjacent(&self) -> bool {
        self.ifaces
            .iter()
            .filter(|i| self.link_up.get(i).copied().unwrap_or(false))
            .all(|i| self.neighbors.get(i).is_some_and(|n| n.adjacent))
    }

    fn arm_hello(&mut self, actions: &mut OsActions) {
        if !self.hello_armed && !self.all_adjacent() {
            self.hello_armed = true;
            actions
                .timers
                .push((self.hello_interval, TimerKind::OspfHello));
        }
    }

    fn originate_lsa(&mut self, actions: &mut OsActions) {
        self.my_seq += 1;
        let lsa = Arc::new(RouterLsa {
            origin: self.router_id,
            seq: self.my_seq,
            links: self
                .neighbors
                .values()
                .filter(|n| n.adjacent)
                .map(|n| (n.router_id, 1))
                .collect(),
            prefixes: self.prefixes.clone(),
        });
        self.lsdb.insert(self.router_id, lsa.clone());
        self.flood(None, &lsa, actions);
        self.run_spf(actions);
    }

    fn flood(&self, except: Option<u32>, lsa: &Arc<RouterLsa>, actions: &mut OsActions) {
        for (&iface, n) in &self.neighbors {
            if n.adjacent && Some(iface) != except {
                actions
                    .out
                    .push((iface, Frame::Ospf(OspfMsg::Lsa(lsa.clone()))));
            }
        }
    }

    fn sync_lsdb_to(&self, iface: u32, actions: &mut OsActions) {
        for lsa in self.lsdb.values() {
            actions
                .out
                .push((iface, Frame::Ospf(OspfMsg::Lsa(lsa.clone()))));
        }
    }

    /// Dijkstra over the LSDB; installs prefixes via first-hop neighbors.
    fn run_spf(&mut self, actions: &mut OsActions) {
        actions.route_ops += self.lsdb.len();
        // Bidirectionality check: an edge counts only if both ends agree.
        let has_edge = |a: Ipv4Addr, b: Ipv4Addr| -> Option<u32> {
            let la = self.lsdb.get(&a)?;
            let lb = self.lsdb.get(&b)?;
            let cost_ab = la.links.iter().find(|(n, _)| *n == b)?.1;
            lb.links.iter().find(|(n, _)| *n == a)?;
            Some(cost_ab)
        };

        // Dijkstra from self over router nodes.
        let mut dist: BTreeMap<Ipv4Addr, (u32, Option<Ipv4Addr>)> = BTreeMap::new();
        dist.insert(self.router_id, (0, None));
        let mut heap: BinaryHeap<std::cmp::Reverse<(u32, Ipv4Addr, Option<Ipv4Addr>)>> =
            BinaryHeap::new();
        heap.push(std::cmp::Reverse((0, self.router_id, None)));
        while let Some(std::cmp::Reverse((d, node, first_hop))) = heap.pop() {
            if dist.get(&node).map(|(bd, _)| *bd < d).unwrap_or(false) {
                continue;
            }
            let Some(lsa) = self.lsdb.get(&node) else {
                continue;
            };
            for (next, cost) in &lsa.links {
                let Some(edge_cost) = has_edge(node, *next) else {
                    continue;
                };
                let _ = cost;
                let nd = d + edge_cost;
                // The first hop from self is the neighbor itself.
                let fh = if node == self.router_id {
                    Some(*next)
                } else {
                    first_hop
                };
                let better = dist.get(next).map(|(bd, _)| nd < *bd).unwrap_or(true);
                if better {
                    dist.insert(*next, (nd, fh));
                    heap.push(std::cmp::Reverse((nd, *next, fh)));
                }
            }
        }

        // Rebuild the FIB from reachable routers' prefixes, keeping the
        // lowest-cost route per prefix (ties broken by next-hop id for
        // determinism).
        let mut routes: Vec<(Ipv4Prefix, u32, NextHop, Ipv4Addr)> = Vec::new();
        for (&router, &(cost, first_hop)) in &dist {
            let Some(lsa) = self.lsdb.get(&router) else {
                continue;
            };
            for (prefix, pcost) in &lsa.prefixes {
                let hop = match first_hop {
                    None => NextHop {
                        iface: crate::bgp::LOCAL_IFACE,
                        via: self.router_id,
                    },
                    Some(fh) => {
                        let Some((&iface, _)) = self
                            .neighbors
                            .iter()
                            .find(|(_, n)| n.router_id == fh && n.adjacent)
                        else {
                            continue;
                        };
                        NextHop { iface, via: fh }
                    }
                };
                routes.push((*prefix, cost + pcost, hop, lsa.origin));
            }
        }
        routes.sort_by_key(|(p, cost, hop, _)| (*p, *cost, hop.via));
        self.fib.clear();
        self.route_meta.clear();
        for (prefix, _, hop, origin) in routes {
            if self.fib.get(prefix).is_none() {
                self.fib.install(prefix, FibEntry::new(vec![hop]));
                self.route_meta.insert(prefix, (origin, self.cur_event));
            }
        }
    }

    fn on_hello(
        &mut self,
        iface: u32,
        router_id: Ipv4Addr,
        seen: Vec<Ipv4Addr>,
        actions: &mut OsActions,
    ) {
        let entry = self.neighbors.entry(iface).or_insert(NeighborState {
            router_id,
            adjacent: false,
        });
        entry.router_id = router_id;
        let two_way = seen.contains(&self.router_id);
        let newly_adjacent = two_way && !entry.adjacent;
        entry.adjacent = two_way;
        if newly_adjacent {
            // Full adjacency: exchange databases and re-originate.
            self.sync_lsdb_to(iface, actions);
            self.originate_lsa(actions);
        }
        // Always answer hellos until everyone is adjacent.
        if !self.all_adjacent() {
            self.send_hellos(actions);
            self.arm_hello(actions);
        }
    }

    fn on_lsa(&mut self, iface: u32, lsa: Arc<RouterLsa>, actions: &mut OsActions) {
        let newer = self
            .lsdb
            .get(&lsa.origin)
            .map(|old| lsa.seq > old.seq)
            .unwrap_or(true);
        if !newer {
            return;
        }
        actions.route_ops += 1;
        self.lsdb.insert(lsa.origin, lsa.clone());
        self.flood(Some(iface), &lsa, actions);
        self.run_spf(actions);
    }
}

impl DeviceOs for OspfRouterOs {
    fn clone_boxed(&self) -> Box<dyn DeviceOs> {
        Box::new(self.clone())
    }

    fn handle(&mut self, _now: SimTime, event: OsEvent) -> OsActions {
        if self.down {
            return OsActions::default();
        }
        let mut actions = OsActions::default();
        match event {
            OsEvent::Boot => {
                self.originate_lsa(&mut actions);
                self.send_hellos(&mut actions);
                self.arm_hello(&mut actions);
            }
            OsEvent::LinkUp(iface) => {
                self.link_up.insert(iface, true);
                self.send_hellos(&mut actions);
                self.hello_armed = false;
                self.arm_hello(&mut actions);
            }
            OsEvent::LinkDown(iface) => {
                self.link_up.insert(iface, false);
                if self.neighbors.remove(&iface).is_some() {
                    self.originate_lsa(&mut actions);
                }
            }
            OsEvent::Frame { iface, frame } => match frame {
                Frame::Ospf(OspfMsg::Hello {
                    router_id,
                    priority: _,
                    seen,
                }) => self.on_hello(iface, router_id, seen, &mut actions),
                Frame::Ospf(OspfMsg::Lsa(lsa)) => self.on_lsa(iface, lsa, &mut actions),
                _ => {}
            },
            OsEvent::Timer(TimerKind::OspfHello) => {
                self.hello_armed = false;
                if !self.all_adjacent() {
                    self.send_hellos(&mut actions);
                    self.arm_hello(&mut actions);
                }
            }
            OsEvent::Timer(_) => {}
            OsEvent::Mgmt(cmd) => match cmd {
                MgmtCommand::ShowRoutes => {
                    let rows = self
                        .fib
                        .iter()
                        .map(|(p, e)| (p, 0usize, e.next_hops.len()))
                        .collect();
                    actions.response = Some(MgmtResponse::Routes(rows));
                }
                MgmtCommand::DeviceShutdown => {
                    self.down = true;
                    actions.response = Some(MgmtResponse::Ok);
                }
                _ => {
                    actions.response = Some(MgmtResponse::Error("unsupported".into()));
                }
            },
        }
        actions
    }

    fn fib(&self) -> &Fib {
        &self.fib
    }

    fn rib_size(&self) -> usize {
        self.fib.len()
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

    fn route_detail(&self, prefix: Ipv4Prefix) -> Option<RouteDetail> {
        let (origin, event) = self.route_meta.get(&prefix)?;
        Some(ospf_detail(*origin, *event))
    }

    fn routes_with_detail(&self) -> Vec<(Ipv4Prefix, RouteDetail)> {
        self.route_meta
            .iter()
            .map(|(p, (origin, event))| (*p, ospf_detail(*origin, *event)))
            .collect()
    }
}

/// SPF installs one lowest-cost route per prefix, so the decision is a
/// single-candidate one; the chain names the LSA's originating router and
/// the SPF run that installed the route.
fn ospf_detail(origin: Ipv4Addr, event: EventId) -> RouteDetail {
    RouteDetail {
        attrs: crate::attrs::PathAttrs::originated(origin).intern(),
        prov: Provenance::originated(OriginKind::Ospf, origin, event),
        reason: DecisionReason::OnlyCandidate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dr_election_prefers_priority_then_id() {
        let c = [
            (Ipv4Addr(10), 1u8),
            (Ipv4Addr(20), 5),
            (Ipv4Addr(30), 5),
            (Ipv4Addr(40), 0), // ineligible
        ];
        let (dr, bdr) = elect_dr_bdr(&c);
        assert_eq!(dr, Some(Ipv4Addr(30))); // higher id among priority 5
        assert_eq!(bdr, Some(Ipv4Addr(20)));
    }

    #[test]
    fn dr_election_empty_and_all_ineligible() {
        assert_eq!(elect_dr_bdr(&[]), (None, None));
        assert_eq!(elect_dr_bdr(&[(Ipv4Addr(1), 0)]), (None, None));
        let (dr, bdr) = elect_dr_bdr(&[(Ipv4Addr(1), 1)]);
        assert_eq!(dr, Some(Ipv4Addr(1)));
        assert_eq!(bdr, None);
    }
}
