//! `explain_route`: the human-readable end of route provenance.
//!
//! The paper's operators debug by asking "why does this device forward
//! this prefix that way?" — in production the answer is scattered across
//! vendor `show` commands on many devices. Here every FIB entry carries
//! an interned `Provenance` chain (who originated the route, which
//! routers re-announced it, under which simulator events) plus the
//! best-path [`DecisionReason`], so the emulation can answer directly.
//! [`crate::Emulation::explain_route`] resolves a hostname + prefix to a
//! [`RouteExplanation`], mapping router loopbacks back to production
//! hostnames along the way.

use crystalnet_net::{DeviceId, Ipv4Addr, Ipv4Prefix};
use crystalnet_routing::{DecisionReason, OriginKind, RouteDetail};
use crystalnet_sim::EventId;
use std::fmt::Write as _;

/// One element of a route's propagation chain: a router that originated
/// or re-announced the route, and the simulator event it did so under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainHop {
    /// The router's loopback / router-id.
    pub router: Ipv4Addr,
    /// The production hostname, when the loopback maps to an emulated
    /// device (speaker stand-ins always do; synthetic origins may not).
    pub hostname: Option<String>,
    /// The event under which this router announced the route.
    /// [`EventId::ZERO`] for announcements made outside event context
    /// (initial scripts applied at boot).
    pub event: EventId,
}

/// The full causal answer to "why does `device` have a route to
/// `prefix`?": origin, propagation chain, and the best-path decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteExplanation {
    /// The device whose FIB entry is being explained.
    pub device: DeviceId,
    /// Its production hostname.
    pub hostname: String,
    /// The explained prefix.
    pub prefix: Ipv4Prefix,
    /// Where the route ultimately came from.
    pub origin_kind: OriginKind,
    /// Why this path won best-path selection on `device`.
    pub reason: DecisionReason,
    /// Content digest of the provenance record — the same value packet
    /// hops carry, so a trace's `prov` field joins against this.
    pub prov_digest: u64,
    /// The propagation chain, origin first. The final holder (`device`
    /// itself) is not repeated.
    pub chain: Vec<ExplainHop>,
    /// The AS path the winning announcement carried (empty for local and
    /// OSPF routes).
    pub as_path: Vec<u32>,
}

impl RouteExplanation {
    /// Builds an explanation from a device's [`RouteDetail`], resolving
    /// router loopbacks to hostnames through `resolve`.
    pub(crate) fn from_detail(
        device: DeviceId,
        hostname: String,
        prefix: Ipv4Prefix,
        detail: &RouteDetail,
        mut resolve: impl FnMut(Ipv4Addr) -> Option<String>,
    ) -> Self {
        let prov = &detail.prov;
        let mut chain = Vec::with_capacity(prov.hops.len() + 1);
        chain.push(ExplainHop {
            router: prov.origin_router,
            hostname: resolve(prov.origin_router),
            event: prov.origin_event,
        });
        chain.extend(prov.hops.iter().map(|h| ExplainHop {
            router: h.router_id,
            hostname: resolve(h.router_id),
            event: h.event,
        }));
        RouteExplanation {
            device,
            hostname,
            prefix,
            origin_kind: detail.prov.origin_kind,
            reason: detail.reason,
            prov_digest: detail.prov.digest(),
            chain,
            as_path: detail.attrs.as_path.iter().map(|asn| asn.0).collect(),
        }
    }

    /// A multi-line human-readable rendering, in the spirit of a vendor
    /// `show ip route <prefix>` that actually explains itself.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "route {} on {} ({})",
            self.prefix, self.hostname, self.device
        );
        let _ = writeln!(
            out,
            "  origin: {} (provenance {:#018x})",
            self.origin_kind.label(),
            self.prov_digest
        );
        if !self.as_path.is_empty() {
            let path: Vec<String> = self.as_path.iter().map(u32::to_string).collect();
            let _ = writeln!(out, "  as-path: {}", path.join(" "));
        }
        for (i, hop) in self.chain.iter().enumerate() {
            let role = if i == 0 { "originated by" } else { "via" };
            let name = hop
                .hostname
                .clone()
                .unwrap_or_else(|| hop.router.to_string());
            let _ = writeln!(
                out,
                "  {role} {name} [{}] at event t={}ns #{}",
                hop.router, hop.event.time_ns, hop.event.key
            );
        }
        let _ = writeln!(out, "  selected because: {}", self.reason.label());
        out
    }
}
