//! Wire-format packet types: Ethernet, IPv4, UDP and VXLAN.
//!
//! CrystalNet's virtual links "transfer Ethernet packets just like real
//! physical links" (§3.2), and its data-plane overlay tunnels them in
//! VXLAN-over-UDP so emulations can span clouds and NATs (§4.2). The
//! reproduction keeps real wire encodings (via [`bytes`]) so the encap
//! path — veth → bridge → VXLAN → underlay UDP — is exercised with actual
//! serialization, and telemetry signatures survive round trips.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crystalnet_net::{Ipv4Addr, MacAddr};
use serde::{Deserialize, Serialize};

/// EtherType values used by the emulation.
pub mod ethertype {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP.
    pub const ARP: u16 = 0x0806;
}

/// IP protocol numbers used by the emulation.
pub mod ipproto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
    /// ICMP.
    pub const ICMP: u8 = 1;
}

/// Errors from decoding wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the fixed header requires.
    Truncated(&'static str),
    /// A version or magic field did not match.
    BadField(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated(what) => write!(f, "truncated {what}"),
            DecodeError::BadField(what) => write!(f, "bad field {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// An Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Encoded length in bytes.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        14 + self.payload.len()
    }

    /// Serializes to wire format.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses from wire format.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] on short input.
    pub fn decode(mut bytes: Bytes) -> Result<Self, DecodeError> {
        if bytes.len() < 14 {
            return Err(DecodeError::Truncated("ethernet header"));
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        bytes.copy_to_slice(&mut dst);
        bytes.copy_to_slice(&mut src);
        let ethertype = bytes.get_u16();
        Ok(EthernetFrame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: bytes,
        })
    }
}

/// An IPv4 packet (20-byte header, no options).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Identification field — CrystalNet's telemetry signature rides here
    /// (operators "inject them with a pre-defined signature", §3.3).
    pub identification: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Serializes to wire format, computing the header checksum.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let total_len = 20 + self.payload.len();
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16(total_len as u16);
        buf.put_u16(self.identification);
        buf.put_u16(0); // flags/fragment
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_u32(self.src.0);
        buf.put_u32(self.dst.0);
        let csum = ipv4_checksum(&buf[..20]);
        buf[10] = (csum >> 8) as u8;
        buf[11] = (csum & 0xff) as u8;
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses from wire format, verifying version and checksum.
    ///
    /// # Errors
    ///
    /// Fails on short input, a non-IPv4 version nibble, or a bad checksum.
    pub fn decode(mut bytes: Bytes) -> Result<Self, DecodeError> {
        if bytes.len() < 20 {
            return Err(DecodeError::Truncated("ipv4 header"));
        }
        if ipv4_checksum(&bytes[..20]) != 0 {
            return Err(DecodeError::BadField("ipv4 checksum"));
        }
        let vihl = bytes.get_u8();
        if vihl != 0x45 {
            return Err(DecodeError::BadField("ipv4 version/ihl"));
        }
        let _tos = bytes.get_u8();
        let total_len = bytes.get_u16() as usize;
        let identification = bytes.get_u16();
        let _frag = bytes.get_u16();
        let ttl = bytes.get_u8();
        let protocol = bytes.get_u8();
        let _csum = bytes.get_u16();
        let src = Ipv4Addr(bytes.get_u32());
        let dst = Ipv4Addr(bytes.get_u32());
        if total_len < 20 || total_len - 20 > bytes.len() {
            return Err(DecodeError::Truncated("ipv4 payload"));
        }
        let payload = bytes.slice(..total_len - 20);
        Ok(Ipv4Packet {
            src,
            dst,
            protocol,
            ttl,
            identification,
            payload,
        })
    }

    /// A copy with TTL decremented; `None` once the TTL hits zero
    /// (the packet must be dropped).
    #[must_use]
    pub fn forwarded(&self) -> Option<Ipv4Packet> {
        if self.ttl <= 1 {
            return None;
        }
        let mut p = self.clone();
        p.ttl -= 1;
        Some(p)
    }
}

/// RFC 1071 internet checksum over a header slice.
#[must_use]
pub fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += u32::from(word);
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A UDP datagram (used by the VXLAN underlay).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Serializes to wire format (checksum 0 = unused, as VXLAN allows).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.payload.len());
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(8 + self.payload.len() as u16);
        buf.put_u16(0);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses from wire format.
    ///
    /// # Errors
    ///
    /// Fails on short input or an inconsistent length field.
    pub fn decode(mut bytes: Bytes) -> Result<Self, DecodeError> {
        if bytes.len() < 8 {
            return Err(DecodeError::Truncated("udp header"));
        }
        let src_port = bytes.get_u16();
        let dst_port = bytes.get_u16();
        let len = bytes.get_u16() as usize;
        let _csum = bytes.get_u16();
        if len < 8 || len - 8 > bytes.len() {
            return Err(DecodeError::Truncated("udp payload"));
        }
        Ok(UdpDatagram {
            src_port,
            dst_port,
            payload: bytes.slice(..len - 8),
        })
    }
}

/// The IANA VXLAN UDP port.
pub const VXLAN_PORT: u16 = 4789;

/// A VXLAN header + inner frame (RFC 7348).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VxlanPacket {
    /// The 24-bit VXLAN network identifier; CrystalNet assigns one per
    /// virtual link for isolation (§4.2).
    pub vni: u32,
    /// The encapsulated Ethernet frame bytes.
    pub inner: Bytes,
}

impl VxlanPacket {
    /// Serializes to wire format.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.inner.len());
        buf.put_u8(0x08); // flags: I bit set
        buf.put_u8(0);
        buf.put_u16(0);
        buf.put_u32(self.vni << 8);
        buf.put_slice(&self.inner);
        buf.freeze()
    }

    /// Parses from wire format.
    ///
    /// # Errors
    ///
    /// Fails on short input or a missing VNI flag.
    pub fn decode(mut bytes: Bytes) -> Result<Self, DecodeError> {
        if bytes.len() < 8 {
            return Err(DecodeError::Truncated("vxlan header"));
        }
        let flags = bytes.get_u8();
        if flags & 0x08 == 0 {
            return Err(DecodeError::BadField("vxlan I flag"));
        }
        let _r = bytes.get_u8();
        let _r2 = bytes.get_u16();
        let vni = bytes.get_u32() >> 8;
        Ok(VxlanPacket { vni, inner: bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u32) -> MacAddr {
        MacAddr::from_id(n)
    }

    #[test]
    fn ethernet_round_trip() {
        let f = EthernetFrame {
            dst: mac(1),
            src: mac(2),
            ethertype: ethertype::IPV4,
            payload: Bytes::from_static(b"hello"),
        };
        let wire = f.encode();
        assert_eq!(wire.len(), f.wire_len());
        let back = EthernetFrame::decode(wire).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn ethernet_truncated() {
        assert_eq!(
            EthernetFrame::decode(Bytes::from_static(b"short")),
            Err(DecodeError::Truncated("ethernet header"))
        );
    }

    #[test]
    fn ipv4_round_trip_and_checksum() {
        let p = Ipv4Packet {
            src: "10.0.0.1".parse().unwrap(),
            dst: "10.0.0.2".parse().unwrap(),
            protocol: ipproto::UDP,
            ttl: 64,
            identification: 0xbeef,
            payload: Bytes::from_static(b"payload"),
        };
        let wire = p.encode();
        // Checksum over an intact header verifies to zero.
        assert_eq!(ipv4_checksum(&wire[..20]), 0);
        let back = Ipv4Packet::decode(wire.clone()).unwrap();
        assert_eq!(p, back);
        // Corrupt a byte: decode must fail.
        let mut bad = wire.to_vec();
        bad[16] ^= 0xff;
        assert!(Ipv4Packet::decode(Bytes::from(bad)).is_err());
    }

    #[test]
    fn ttl_expiry() {
        let mut p = Ipv4Packet {
            src: Ipv4Addr(1),
            dst: Ipv4Addr(2),
            protocol: 1,
            ttl: 2,
            identification: 0,
            payload: Bytes::new(),
        };
        p = p.forwarded().unwrap();
        assert_eq!(p.ttl, 1);
        assert!(p.forwarded().is_none());
    }

    #[test]
    fn udp_round_trip() {
        let d = UdpDatagram {
            src_port: 49152,
            dst_port: VXLAN_PORT,
            payload: Bytes::from_static(b"x"),
        };
        assert_eq!(UdpDatagram::decode(d.encode()).unwrap(), d);
    }

    #[test]
    fn vxlan_round_trip_carries_vni() {
        let inner = EthernetFrame {
            dst: mac(3),
            src: mac(4),
            ethertype: ethertype::ARP,
            payload: Bytes::from_static(b"arp"),
        };
        let v = VxlanPacket {
            vni: 0x00ab_cdef,
            inner: inner.encode(),
        };
        let back = VxlanPacket::decode(v.encode()).unwrap();
        assert_eq!(back.vni, 0x00ab_cdef);
        let inner_back = EthernetFrame::decode(back.inner).unwrap();
        assert_eq!(inner_back, inner);
    }

    #[test]
    fn full_encap_stack_round_trip() {
        // device frame -> VXLAN -> UDP -> underlay IPv4, and back.
        let frame = EthernetFrame {
            dst: mac(9),
            src: mac(8),
            ethertype: ethertype::IPV4,
            payload: Bytes::from_static(b"inner packet"),
        };
        let vxlan = VxlanPacket {
            vni: 42,
            inner: frame.encode(),
        };
        let udp = UdpDatagram {
            src_port: 55555,
            dst_port: VXLAN_PORT,
            payload: vxlan.encode(),
        };
        let ip = Ipv4Packet {
            src: "203.0.113.5".parse().unwrap(),
            dst: "203.0.113.9".parse().unwrap(),
            protocol: ipproto::UDP,
            ttl: 64,
            identification: 7,
            payload: udp.encode(),
        };
        let wire = ip.encode();

        let ip2 = Ipv4Packet::decode(wire).unwrap();
        let udp2 = UdpDatagram::decode(ip2.payload.clone()).unwrap();
        let vx2 = VxlanPacket::decode(udp2.payload.clone()).unwrap();
        let frame2 = EthernetFrame::decode(vx2.inner.clone()).unwrap();
        assert_eq!(frame2, frame);
        assert_eq!(vx2.vni, 42);
    }

    #[test]
    fn vxlan_requires_i_flag() {
        let mut wire = VxlanPacket {
            vni: 1,
            inner: Bytes::new(),
        }
        .encode()
        .to_vec();
        wire[0] = 0;
        assert_eq!(
            VxlanPacket::decode(Bytes::from(wire)),
            Err(DecodeError::BadField("vxlan I flag"))
        );
    }
}
