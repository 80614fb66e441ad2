//! ARP: address resolution on the emulated Ethernet links.
//!
//! CTNR-B's "failing to forward ARP packets to CPU due to incorrect trap
//! implementation" (§7 Case 2) lives at this layer: the firmware drops
//! inbound ARP messages. The §2 "ARP refreshing failed" bug is not
//! modelled.

use crystalnet_net::{Ipv4Addr, MacAddr};
use serde::{Deserialize, Serialize};

/// An ARP message (request or reply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArpMessage {
    /// True for a request, false for a reply.
    pub is_request: bool,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}
