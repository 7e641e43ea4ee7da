//! Complete packets and TSO segments.
//!
//! A [`Packet`] is one on-the-wire datagram: an IP header, the SMT overlay header
//! (TCP common header + option area) and a payload.  A [`TsoSegment`] is the unit
//! the host stack hands to the NIC: up to 64 KB of payload behind a single set of
//! headers, which the NIC (or the software GSO fallback) splits into MTU-sized
//! packets, replicating the overlay header and incrementing the IPID on each
//! generated packet (paper §2.2, §4.3).

use crate::homa::{HomaAck, HomaBusy, HomaGrant, HomaResend, SmtSack};
use crate::ip::{IpHeader, Ipv4Header};
use crate::overlay::{SmtOptionArea, SmtOverlayHeader};
use crate::{PacketType, WireError, WireResult, IPV4_HEADER_LEN};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// The payload of a packet: either opaque (possibly encrypted) data bytes or a
/// decoded Homa-style control message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketPayload {
    /// DATA / CONTROL payload bytes (TLS records or handshake flights).
    Data(Bytes),
    /// GRANT control packet.
    Grant(HomaGrant),
    /// RESEND control packet.
    Resend(HomaResend),
    /// ACK control packet.
    Ack(HomaAck),
    /// BUSY control packet.
    Busy(HomaBusy),
    /// SACK control packet (stream transports: selective ack + ECN echo).
    Sack(SmtSack),
}

impl PacketPayload {
    /// Number of payload bytes this variant occupies on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            PacketPayload::Data(b) => b.len(),
            PacketPayload::Grant(_) => HomaGrant::LEN,
            PacketPayload::Resend(_) => HomaResend::LEN,
            PacketPayload::Ack(_) => HomaAck::LEN,
            PacketPayload::Busy(_) => HomaBusy::LEN,
            PacketPayload::Sack(s) => s.wire_len(),
        }
    }

    /// Returns the data bytes if this is a DATA/CONTROL payload.
    pub fn as_data(&self) -> Option<&Bytes> {
        match self {
            PacketPayload::Data(b) => Some(b),
            _ => None,
        }
    }
}

/// One on-the-wire packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Network-layer header; the IPv4 identification doubles as the packet offset
    /// within a TSO segment.
    pub ip: IpHeader,
    /// Overlay TCP header + SMT option area (identical across a segment's packets).
    pub overlay: SmtOverlayHeader,
    /// Payload.
    pub payload: PacketPayload,
    /// Marks the payload as corrupted by an out-of-sequence offload encryption
    /// (paper Fig. 2 "Out-seq."). Simulation-only flag; it never appears on a real
    /// wire but models the NIC producing undecryptable ciphertext.
    pub corrupted: bool,
}

impl Packet {
    /// Total wire length of this packet (IP + overlay + payload).
    pub fn wire_len(&self) -> usize {
        self.ip.len() + self.overlay.len() + self.payload.wire_len()
    }

    /// The packet offset within its TSO segment, from the IPID (IPv4 only).
    pub fn packet_offset(&self) -> Option<u16> {
        self.ip.packet_id()
    }

    /// Encodes the full packet (headers + payload) into `out`.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        let need = self.wire_len();
        if out.len() < need {
            return Err(WireError::NoSpace {
                needed: need,
                available: out.len(),
            });
        }
        let mut at = self.ip.encode(out)?;
        at += self.overlay.encode(&mut out[at..])?;
        match &self.payload {
            PacketPayload::Data(b) => {
                out[at..at + b.len()].copy_from_slice(b);
                at += b.len();
            }
            PacketPayload::Grant(g) => at += g.encode(&mut out[at..])?,
            PacketPayload::Resend(r) => at += r.encode(&mut out[at..])?,
            PacketPayload::Ack(a) => at += a.encode(&mut out[at..])?,
            PacketPayload::Busy(b) => at += b.encode(&mut out[at..])?,
            PacketPayload::Sack(s) => at += s.encode(&mut out[at..])?,
        }
        Ok(at)
    }

    /// Decodes a packet from `buf`. The payload interpretation follows the packet
    /// type in the overlay header.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        let (ip, mut at) = IpHeader::decode(buf)?;
        let (overlay, n) = SmtOverlayHeader::decode(&buf[at..])?;
        at += n;
        let rest = &buf[at..];
        let (payload, used) = match overlay.tcp.packet_type {
            PacketType::Data | PacketType::Control => (
                PacketPayload::Data(Bytes::copy_from_slice(rest)),
                rest.len(),
            ),
            PacketType::Grant => {
                let (g, n) = HomaGrant::decode(rest)?;
                (PacketPayload::Grant(g), n)
            }
            PacketType::Resend => {
                let (r, n) = HomaResend::decode(rest)?;
                (PacketPayload::Resend(r), n)
            }
            PacketType::Ack => {
                let (a, n) = HomaAck::decode(rest)?;
                (PacketPayload::Ack(a), n)
            }
            PacketType::Busy => {
                let (b, n) = HomaBusy::decode(rest)?;
                (PacketPayload::Busy(b), n)
            }
            PacketType::Sack => {
                let (s, n) = SmtSack::decode(rest)?;
                (PacketPayload::Sack(s), n)
            }
        };
        Ok((
            Self {
                ip,
                overlay,
                payload,
                corrupted: false,
            },
            at + used,
        ))
    }
}

/// TLS-offload metadata attached to a TSO segment handed to the NIC.
///
/// This mirrors the descriptor contents of autonomous offload (paper §3.2): the
/// flow-context the NIC should use and the record sequence number the first record
/// of this segment must be encrypted with.  The actual keys live in the NIC's flow
/// context (programmed out-of-band), never in the descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlsOffloadDescriptor {
    /// Identifier of the NIC flow context to use.
    pub flow_context_id: u32,
    /// Composite record sequence number of the first record in this segment.
    pub first_record_seq: u64,
    /// Whether a resync descriptor precedes this segment in the queue, adjusting
    /// the context's expected sequence number to `first_record_seq`.
    pub resync: bool,
}

/// A TSO segment: one set of headers plus up to 64 KB of payload, to be split into
/// MTU-sized packets by the NIC TSO engine (or software GSO).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsoSegment {
    /// Source IPv4 address (the substrate currently segments IPv4 only; IPv6 uses
    /// the reduced-TSO path, see paper §7).
    pub src: [u8; 4],
    /// Destination IPv4 address.
    pub dst: [u8; 4],
    /// Transport protocol number to stamp into generated packets.
    pub protocol: u8,
    /// Overlay header replicated onto every generated packet.
    pub overlay: SmtOverlayHeader,
    /// Segment payload (one or more TLS records, or plaintext for unencrypted
    /// transports). At most [`crate::MAX_TSO_SEGMENT`] bytes.
    pub payload: Bytes,
    /// Optional TLS autonomous-offload descriptor; `None` means the payload is
    /// already encrypted (software crypto) or not encrypted at all.
    pub offload: Option<TlsOffloadDescriptor>,
}

impl TsoSegment {
    /// Creates a plain (already-encrypted or plaintext) segment.
    pub fn new(
        src: [u8; 4],
        dst: [u8; 4],
        protocol: u8,
        overlay: SmtOverlayHeader,
        payload: Bytes,
    ) -> Self {
        Self {
            src,
            dst,
            protocol,
            overlay,
            payload,
            offload: None,
        }
    }

    /// Total payload length of the segment.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the segment carries no payload (pure control segments).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Payload bytes per generated packet at `mtu`, the network-layer MTU (IP
    /// header + transport header + payload per packet).
    fn per_packet(mtu: usize) -> WireResult<usize> {
        let per_packet = crate::max_payload_per_packet(mtu);
        if per_packet == 0 || mtu <= IPV4_HEADER_LEN + SmtOverlayHeader::LEN {
            return Err(WireError::invalid("mtu", format!("mtu {mtu} too small")));
        }
        Ok(per_packet)
    }

    /// How many packets the segment splits into at `mtu`: one per MTU's worth
    /// of payload, and one with no payload for a control-only segment.
    pub fn packet_count(&self, mtu: usize) -> WireResult<usize> {
        Ok(self.payload.len().div_ceil(Self::per_packet(mtu)?).max(1))
    }

    /// The `index`-th packet the segment splits into at `mtu` — the overlay
    /// header replicated, the IPID set to `index` (the receiver reads it as
    /// the packet offset, §4.3), the payload a view of the segment's own
    /// storage.  `None` past the last packet or at an MTU too small to
    /// carry any payload.  A NIC cuts packets as they leave; this is that
    /// cut for one packet.
    pub fn packet_at(&self, index: usize, mtu: usize) -> Option<Packet> {
        let per_packet = Self::per_packet(mtu).ok()?;
        let start = index.checked_mul(per_packet)?;
        if start >= self.payload.len().max(1) {
            return None;
        }
        let end = self.payload.len().min(start + per_packet);
        let mut ip = Ipv4Header::new(
            self.src,
            self.dst,
            self.protocol,
            (IPV4_HEADER_LEN + SmtOverlayHeader::LEN + (end - start)) as u16,
        );
        ip.identification = index as u16;
        Some(Packet {
            ip: IpHeader::V4(ip),
            overlay: self.overlay,
            payload: PacketPayload::Data(self.payload.slice(start..end)),
            corrupted: false,
        })
    }

    /// Splits the segment into MTU-sized packets, replicating the overlay header
    /// and incrementing the IPID per packet — the wire-format half of what a NIC
    /// TSO engine does.  `mtu` is the network-layer MTU (IP header + transport
    /// header + payload per packet).
    ///
    /// Encryption is *not* performed here; the NIC model in `smt-sim` runs its
    /// offload engine over the segment before calling this.
    pub fn packetize(&self, mtu: usize) -> WireResult<Vec<Packet>> {
        let count = self.packet_count(mtu)?;
        Ok((0..count)
            .map(|i| {
                self.packet_at(i, mtu)
                    .expect("index below the packet count")
            })
            .collect())
    }

    /// Convenience: the option area of the overlay header.
    pub fn options(&self) -> &SmtOptionArea {
        &self.overlay.options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DEFAULT_MTU, IPPROTO_SMT};

    fn segment(payload_len: usize) -> TsoSegment {
        let overlay = SmtOverlayHeader::data(1234, 5678, 42, payload_len as u32);
        TsoSegment::new(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            IPPROTO_SMT,
            overlay,
            Bytes::from(vec![0xabu8; payload_len]),
        )
    }

    #[test]
    fn packetize_splits_at_mtu() {
        let seg = segment(4000);
        let pkts = seg.packetize(DEFAULT_MTU).unwrap();
        let per = crate::max_payload_per_packet(DEFAULT_MTU);
        assert_eq!(pkts.len(), 4000usize.div_ceil(per));
        // Every packet carries the same overlay header (replicated by TSO) ...
        for p in &pkts {
            assert_eq!(p.overlay, seg.overlay);
            assert!(p.payload.wire_len() <= per);
        }
        // ... and consecutive IPIDs.
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.packet_offset(), Some(i as u16));
        }
        // Payload survives intact when reassembled in IPID order.
        let mut whole = Vec::new();
        for p in &pkts {
            whole.extend_from_slice(p.payload.as_data().unwrap());
        }
        assert_eq!(whole, seg.payload);
    }

    #[test]
    fn cutting_one_packet_at_a_time_equals_packetize() {
        for mtu in [DEFAULT_MTU, crate::JUMBO_MTU] {
            let per = crate::max_payload_per_packet(mtu);
            for len in [0, 1, per - 1, per, per + 1, 65_536] {
                let seg = segment(len);
                let pkts = seg.packetize(mtu).unwrap();
                assert_eq!(seg.packet_count(mtu).unwrap(), pkts.len(), "{len} @ {mtu}");
                for (i, p) in pkts.iter().enumerate() {
                    assert_eq!(
                        seg.packet_at(i, mtu).as_ref(),
                        Some(p),
                        "{len} @ {mtu} #{i}"
                    );
                }
                assert_eq!(seg.packet_at(pkts.len(), mtu), None, "{len} @ {mtu}");
            }
        }
        assert!(segment(100).packet_count(40).is_err());
        assert_eq!(segment(100).packet_at(0, 40), None);
    }

    #[test]
    fn small_segment_single_packet() {
        let seg = segment(64);
        let pkts = seg.packetize(DEFAULT_MTU).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload.wire_len(), 64);
    }

    #[test]
    fn empty_segment_yields_control_packet() {
        let seg = segment(0);
        let pkts = seg.packetize(DEFAULT_MTU).unwrap();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload.wire_len(), 0);
    }

    #[test]
    fn tiny_mtu_rejected() {
        let seg = segment(100);
        assert!(seg.packetize(40).is_err());
    }

    #[test]
    fn packet_encode_decode_data() {
        let seg = segment(300);
        let pkts = seg.packetize(DEFAULT_MTU).unwrap();
        let mut buf = vec![0u8; 2048];
        let n = pkts[0].encode(&mut buf).unwrap();
        let (decoded, consumed) = Packet::decode(&buf[..n]).unwrap();
        assert_eq!(consumed, n);
        assert_eq!(decoded.overlay, pkts[0].overlay);
        assert_eq!(decoded.payload, pkts[0].payload);
    }

    #[test]
    fn packet_encode_decode_control() {
        use crate::homa::{HomaGrant, PacketType};
        let overlay = SmtOverlayHeader {
            tcp: crate::overlay::OverlayTcpHeader::new(1, 2, PacketType::Grant),
            options: SmtOptionArea::new(77, 0),
        };
        let pkt = Packet {
            ip: IpHeader::V4(Ipv4Header::new([1, 1, 1, 1], [2, 2, 2, 2], IPPROTO_SMT, 81)),
            overlay,
            payload: PacketPayload::Grant(HomaGrant {
                message_id: 77,
                granted_offset: 4096,
                priority: 1,
            }),
            corrupted: false,
        };
        let mut buf = vec![0u8; 256];
        let n = pkt.encode(&mut buf).unwrap();
        let (decoded, consumed) = Packet::decode(&buf[..n]).unwrap();
        assert_eq!(consumed, n);
        assert_eq!(decoded.payload, pkt.payload);
    }

    #[test]
    fn wire_len_matches_encoding() {
        let seg = segment(777);
        for p in seg.packetize(DEFAULT_MTU).unwrap() {
            let mut buf = vec![0u8; p.wire_len()];
            let n = p.encode(&mut buf).unwrap();
            assert_eq!(n, p.wire_len());
        }
    }

    #[test]
    fn jumbo_mtu_fewer_packets() {
        let seg = segment(32 * 1024);
        let small = seg.packetize(DEFAULT_MTU).unwrap().len();
        let jumbo = seg.packetize(crate::JUMBO_MTU).unwrap().len();
        assert!(jumbo < small);
    }
}
