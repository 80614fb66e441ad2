//! Data plane for the CrystalNet reproduction: packets, forwarding tables,
//! forwarding decisions, ARP, packet telemetry, and FIB comparison.
//!
//! CrystalNet focuses on *control-plane* fidelity — but it still needs a
//! real enough data plane to probe routes, trace injected packets
//! (`InjectPackets`/`PullPackets`), and compare forwarding tables between
//! emulation and production (§9). This crate provides that substrate:
//! wire-encoded Ethernet/IPv4/UDP/VXLAN, a capacity-bounded
//! longest-prefix-match FIB with ECMP, per-device forwarding decisions,
//! ARP messages, telemetry capture with path reconstruction, and the
//! ECMP/aggregation-aware FIB comparator.

#![warn(missing_docs)]

pub mod arp;
pub mod compare;
pub mod fib;
pub mod forward;
pub mod packet;
pub mod telemetry;

pub use arp::ArpMessage;
pub use compare::{compare_fibs, fibs_equal, CompareOptions, FibDifference};
pub use fib::{ecmp_select, Fib, FibEntry, InstallOutcome, NextHop};
pub use forward::{decide, verdict, ForwardDecision};
pub use packet::{
    ethertype,
    ipproto,
    DecodeError,
    EthernetFrame,
    Ipv4Packet,
    UdpDatagram,
    VxlanPacket,
    VXLAN_PORT, //
};
pub use telemetry::{Signature, TraceEvent, TraceStore};
