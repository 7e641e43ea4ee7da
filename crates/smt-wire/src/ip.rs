//! Minimal IPv4 and IPv6 header representations.
//!
//! SMT uses the IPv4 identification field (IPID) as the per-packet offset within a
//! TSO segment (paper §4.3): the NIC increments IPID for every packet it generates
//! from a TSO segment, so the receiver can reorder the packets of a segment even
//! though the overlay TCP header (including the TSO offset) is identical across
//! them.  IPv6 has no IPID, which is why the paper discusses a reduced-TSO mode
//! (§7 "Segmentation", reproduced by the Fig. 11 harness).

use crate::{WireError, WireResult, IPV4_HEADER_LEN, IPV6_HEADER_LEN};
use serde::{Deserialize, Serialize};

/// An IPv4 header restricted to the fields the SMT stack actually uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Header {
    /// Total length of the IP datagram (header + payload) in bytes.
    pub total_length: u16,
    /// Identification field; incremented per packet by the TSO engine and used by
    /// the SMT receiver as the packet offset within a TSO segment.
    pub identification: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol number (e.g. [`crate::IPPROTO_SMT`]).
    pub protocol: u8,
    /// ECN codepoint (RFC 3168, low two bits of the DSCP/ECN byte):
    /// [`Ipv4Header::ECN_ECT0`] on ECN-capable data, [`Ipv4Header::ECN_CE`]
    /// once a congested queue has marked the packet.
    pub ecn: u8,
    /// Source address.
    pub src: [u8; 4],
    /// Destination address.
    pub dst: [u8; 4],
}

impl Ipv4Header {
    /// ECN codepoint: not ECN-capable transport.
    pub const ECN_NOT_ECT: u8 = 0b00;
    /// ECN codepoint: ECN-capable transport, ECT(0).
    pub const ECN_ECT0: u8 = 0b10;
    /// ECN codepoint: congestion experienced (set by a marking queue).
    pub const ECN_CE: u8 = 0b11;

    /// Creates a header with sensible defaults (TTL 64).
    pub fn new(src: [u8; 4], dst: [u8; 4], protocol: u8, total_length: u16) -> Self {
        Self {
            total_length,
            identification: 0,
            ttl: 64,
            protocol,
            ecn: Self::ECN_NOT_ECT,
            src,
            dst,
        }
    }

    /// True once a congested queue has marked this packet.
    pub fn is_ce_marked(&self) -> bool {
        self.ecn == Self::ECN_CE
    }

    /// True if the sender declared the packet ECN-capable (a queue may mark
    /// it instead of dropping it).
    pub fn is_ecn_capable(&self) -> bool {
        self.ecn == Self::ECN_ECT0 || self.ecn == Self::ECN_CE
    }

    /// Encoded length in bytes (no options are supported).
    pub const fn len(&self) -> usize {
        IPV4_HEADER_LEN
    }

    /// Returns true if the encoded representation would be empty (it never is).
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Computes the standard Internet checksum over the encoded header.
    pub fn checksum(&self) -> u16 {
        let mut buf = [0u8; IPV4_HEADER_LEN];
        self.encode_raw(&mut buf, 0);
        internet_checksum(&buf)
    }

    fn encode_raw(&self, out: &mut [u8], checksum: u16) {
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.ecn & 0b11; // DSCP zero, ECN codepoint in the low bits
        out[2..4].copy_from_slice(&self.total_length.to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        out[6..8].copy_from_slice(&0u16.to_be_bytes()); // flags/fragment offset
        out[8] = self.ttl;
        out[9] = self.protocol;
        out[10..12].copy_from_slice(&checksum.to_be_bytes());
        out[12..16].copy_from_slice(&self.src);
        out[16..20].copy_from_slice(&self.dst);
    }

    /// Encodes the header (with checksum) into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        if out.len() < IPV4_HEADER_LEN {
            return Err(WireError::NoSpace {
                needed: IPV4_HEADER_LEN,
                available: out.len(),
            });
        }
        let csum = self.checksum();
        self.encode_raw(&mut out[..IPV4_HEADER_LEN], csum);
        Ok(IPV4_HEADER_LEN)
    }

    /// Decodes a header from `buf`, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: IPV4_HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::UnsupportedIpVersion(version));
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(WireError::invalid("ihl", format!("unsupported IHL {ihl}")));
        }
        let hdr = Self {
            total_length: u16::from_be_bytes([buf[2], buf[3]]),
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            ttl: buf[8],
            protocol: buf[9],
            ecn: buf[1] & 0b11,
            src: [buf[12], buf[13], buf[14], buf[15]],
            dst: [buf[16], buf[17], buf[18], buf[19]],
        };
        Ok((hdr, IPV4_HEADER_LEN))
    }
}

/// An IPv6 fixed header restricted to the fields the SMT stack uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv6Header {
    /// Payload length (bytes following the fixed header).
    pub payload_length: u16,
    /// Next-header (transport protocol) number.
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Source address.
    pub src: [u8; 16],
    /// Destination address.
    pub dst: [u8; 16],
}

impl Ipv6Header {
    /// Creates a header with sensible defaults (hop limit 64).
    pub fn new(src: [u8; 16], dst: [u8; 16], next_header: u8, payload_length: u16) -> Self {
        Self {
            payload_length,
            next_header,
            hop_limit: 64,
            src,
            dst,
        }
    }

    /// Encoded length in bytes.
    pub const fn len(&self) -> usize {
        IPV6_HEADER_LEN
    }

    /// Returns true if the encoded representation would be empty (it never is).
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Encodes the header into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        if out.len() < IPV6_HEADER_LEN {
            return Err(WireError::NoSpace {
                needed: IPV6_HEADER_LEN,
                available: out.len(),
            });
        }
        out[0] = 0x60; // version 6
        out[1] = 0;
        out[2] = 0;
        out[3] = 0;
        out[4..6].copy_from_slice(&self.payload_length.to_be_bytes());
        out[6] = self.next_header;
        out[7] = self.hop_limit;
        out[8..24].copy_from_slice(&self.src);
        out[24..40].copy_from_slice(&self.dst);
        Ok(IPV6_HEADER_LEN)
    }

    /// Decodes a header from `buf`, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        if buf.len() < IPV6_HEADER_LEN {
            return Err(WireError::Truncated {
                needed: IPV6_HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 6 {
            return Err(WireError::UnsupportedIpVersion(version));
        }
        let mut src = [0u8; 16];
        let mut dst = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        dst.copy_from_slice(&buf[24..40]);
        let hdr = Self {
            payload_length: u16::from_be_bytes([buf[4], buf[5]]),
            next_header: buf[6],
            hop_limit: buf[7],
            src,
            dst,
        };
        Ok((hdr, IPV6_HEADER_LEN))
    }
}

/// Either an IPv4 or an IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IpHeader {
    /// IPv4 header (carries the IPID used as SMT packet offset).
    V4(Ipv4Header),
    /// IPv6 header (no IPID; see paper §7 "Segmentation").
    V6(Ipv6Header),
}

impl IpHeader {
    /// Transport protocol number carried by this header.
    pub fn protocol(&self) -> u8 {
        match self {
            IpHeader::V4(h) => h.protocol,
            IpHeader::V6(h) => h.next_header,
        }
    }

    /// The per-packet identification value, if the IP version provides one.
    ///
    /// SMT uses this as the packet offset within a TSO segment; IPv6 returns
    /// `None`, forcing the reduced-TSO mode evaluated in Fig. 11.
    pub fn packet_id(&self) -> Option<u16> {
        match self {
            IpHeader::V4(h) => Some(h.identification),
            IpHeader::V6(_) => None,
        }
    }

    /// True once a congested queue has CE-marked this packet (IPv4 only; the
    /// substrate's IPv6 path does not model ECN).
    pub fn is_ce_marked(&self) -> bool {
        match self {
            IpHeader::V4(h) => h.is_ce_marked(),
            IpHeader::V6(_) => false,
        }
    }

    /// True if the sender declared the packet ECN-capable.
    pub fn is_ecn_capable(&self) -> bool {
        match self {
            IpHeader::V4(h) => h.is_ecn_capable(),
            IpHeader::V6(_) => false,
        }
    }

    /// Declares the packet ECN-capable (ECT(0)); what a stream sender
    /// stamps on egress data.
    pub fn set_ecn_capable(&mut self) {
        if let IpHeader::V4(h) = self {
            h.ecn = Ipv4Header::ECN_ECT0;
        }
    }

    /// Marks congestion experienced — what a marking queue does to an
    /// ECN-capable packet instead of dropping it.  No-op on packets that are
    /// not ECN-capable (a non-cc sender must not see phantom marks).
    pub fn mark_ce(&mut self) {
        if let IpHeader::V4(h) = self {
            if h.is_ecn_capable() {
                h.ecn = Ipv4Header::ECN_CE;
            }
        }
    }

    /// Encoded length of the header.
    pub fn len(&self) -> usize {
        match self {
            IpHeader::V4(h) => h.len(),
            IpHeader::V6(h) => h.len(),
        }
    }

    /// Returns true if the encoded representation would be empty (it never is).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Encodes the header into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        match self {
            IpHeader::V4(h) => h.encode(out),
            IpHeader::V6(h) => h.encode(out),
        }
    }

    /// Decodes either IP version based on the version nibble.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        if buf.is_empty() {
            return Err(WireError::Truncated {
                needed: 1,
                available: 0,
            });
        }
        match buf[0] >> 4 {
            4 => Ipv4Header::decode(buf).map(|(h, n)| (IpHeader::V4(h), n)),
            6 => Ipv6Header::decode(buf).map(|(h, n)| (IpHeader::V6(h), n)),
            v => Err(WireError::UnsupportedIpVersion(v)),
        }
    }
}

/// Standard ones-complement Internet checksum.
fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let Some(&b) = chunks.remainder().first() {
        sum += u32::from(u16::from_be_bytes([b, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IPPROTO_SMT;

    #[test]
    fn ipv4_roundtrip() {
        let mut h = Ipv4Header::new([10, 0, 0, 1], [10, 0, 0, 2], IPPROTO_SMT, 1500);
        h.identification = 0x1234;
        let mut buf = [0u8; 64];
        let n = h.encode(&mut buf).unwrap();
        assert_eq!(n, IPV4_HEADER_LEN);
        let (decoded, consumed) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(consumed, n);
        assert_eq!(decoded, h);
    }

    #[test]
    fn ipv4_checksum_validates() {
        let h = Ipv4Header::new([192, 168, 1, 1], [192, 168, 1, 2], 6, 40);
        let mut buf = [0u8; IPV4_HEADER_LEN];
        h.encode(&mut buf).unwrap();
        // Checksumming the full header including the checksum field yields 0.
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn ipv6_roundtrip() {
        let h = Ipv6Header::new([1; 16], [2; 16], IPPROTO_SMT, 9000);
        let mut buf = [0u8; 64];
        let n = h.encode(&mut buf).unwrap();
        let (decoded, consumed) = Ipv6Header::decode(&buf).unwrap();
        assert_eq!(consumed, n);
        assert_eq!(decoded, h);
    }

    #[test]
    fn ip_header_dispatch() {
        let v4 = IpHeader::V4(Ipv4Header::new(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            IPPROTO_SMT,
            100,
        ));
        let v6 = IpHeader::V6(Ipv6Header::new([1; 16], [2; 16], IPPROTO_SMT, 100));
        assert_eq!(v4.packet_id(), Some(0));
        assert_eq!(v6.packet_id(), None);
        assert_eq!(v4.protocol(), IPPROTO_SMT);
        assert_eq!(v6.protocol(), IPPROTO_SMT);

        let mut buf = [0u8; 64];
        let n = v4.encode(&mut buf).unwrap();
        let (back, _) = IpHeader::decode(&buf[..n]).unwrap();
        assert_eq!(back, v4);

        let n = v6.encode(&mut buf).unwrap();
        let (back, _) = IpHeader::decode(&buf[..n]).unwrap();
        assert_eq!(back, v6);
    }

    #[test]
    fn truncated_input_rejected() {
        assert!(matches!(
            Ipv4Header::decode(&[0x45, 0, 0]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            IpHeader::decode(&[]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            IpHeader::decode(&[0x70; 40]),
            Err(WireError::UnsupportedIpVersion(7))
        ));
    }

    #[test]
    fn ecn_roundtrips_and_marks() {
        let mut h = Ipv4Header::new([10, 0, 0, 1], [10, 0, 0, 2], IPPROTO_SMT, 1500);
        h.ecn = Ipv4Header::ECN_ECT0;
        let mut buf = [0u8; 64];
        h.encode(&mut buf).unwrap();
        let (decoded, _) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(decoded.ecn, Ipv4Header::ECN_ECT0);
        assert!(decoded.is_ecn_capable());
        assert!(!decoded.is_ce_marked());

        // A marking queue upgrades ECT(0) to CE ...
        let mut ip = IpHeader::V4(decoded);
        ip.mark_ce();
        assert!(ip.is_ce_marked());
        // ... but never invents a mark on non-ECT traffic.
        let mut plain = IpHeader::V4(Ipv4Header::new([1; 4], [2; 4], IPPROTO_SMT, 40));
        plain.mark_ce();
        assert!(!plain.is_ce_marked());
    }

    #[test]
    fn bad_version_rejected() {
        let h = Ipv6Header::new([0; 16], [0; 16], 6, 0);
        let mut buf = [0u8; 40];
        h.encode(&mut buf).unwrap();
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(WireError::UnsupportedIpVersion(6))
        ));
    }

    #[test]
    fn no_space_rejected() {
        let h = Ipv4Header::new([1, 1, 1, 1], [2, 2, 2, 2], 6, 40);
        let mut buf = [0u8; 10];
        assert!(matches!(h.encode(&mut buf), Err(WireError::NoSpace { .. })));
    }
}
