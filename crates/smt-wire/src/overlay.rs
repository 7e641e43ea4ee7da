//! The SMT overlay TCP header and option area (paper Fig. 3).
//!
//! SMT (like Homa) lays its packets out so that the first 20 bytes look like a TCP
//! common header and the following bytes occupy the TCP options space.  A NIC
//! performing TCP Segmentation Offload (TSO) replicates this whole area onto every
//! MTU-sized packet it generates from a TSO segment, which is exactly what SMT
//! needs: the message ID, message length, TSO offset and packet type are identical
//! for all packets of a segment.  The per-packet position inside the segment comes
//! from the IPID in the network header instead (see [`crate::ip`]).
//!
//! Everything in this header is **plaintext** by design (paper §1, §7): the network
//! or the host stack can perform message-granularity operations (multi-path load
//! balancing, per-message CPU-core steering, in-network compute) without touching
//! the encrypted payload.
//!
//! One per-*packet* field rides in the TCP common header: a DATA packet may carry
//! the acknowledgement of a message its sender delivered, in the
//! acknowledgement-number word Fig. 3 leaves unused ([`SmtOptionArea::ack`]).  TSO
//! replicates that word verbatim too, so the transport sets it on the packet it
//! cuts from a segment, never on the segment.

use crate::homa::PacketType;
use crate::{WireError, WireResult, SMT_OPTION_AREA_LEN, TCP_COMMON_HEADER_LEN};
use serde::{Deserialize, Serialize};

/// The 20-byte TCP common header that SMT overlays.
///
/// Only the fields SMT actually uses are modelled.  The sequence-number word is
/// unused on the wire (Fig. 3) and left zero; the data-offset field must cover
/// the option area so that TSO replicates it.  The acknowledgement-number word
/// carries [`SmtOptionArea::ack`], valid (like TCP's) only when a flag bit says
/// so: bit 0 of the data-offset byte's low nibble, which TCP leaves reserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OverlayTcpHeader {
    /// Source port (part of the session's 5-tuple).
    pub src_port: u16,
    /// Destination port (part of the session's 5-tuple).
    pub dst_port: u16,
    /// SMT packet type, carried where TCP keeps its flags/reserved bits.
    pub packet_type: PacketType,
}

/// The SMT option area carried in the TCP options space (36 bytes).
///
/// TSO copies this area verbatim onto every generated packet, so it may only
/// contain per-*segment* (not per-packet) information — but for
/// [`ack`](Self::ack), which the wire carries in the TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SmtOptionArea {
    /// Message identifier, unique within the secure session (§4.4.1).
    pub message_id: u64,
    /// Total length of the message in bytes.
    pub message_length: u32,
    /// Offset of this TSO segment within the message (§4.3).
    pub tso_offset: u32,
    /// For retransmitted packets: the original packet offset within the segment,
    /// so the receiver can place the payload even though the retransmission is a
    /// stand-alone packet ("Resend packet offset", Fig. 3). Zero otherwise.
    pub resend_packet_offset: u16,
    /// Number of TLS records contained in this TSO segment (≥1 for DATA).
    pub record_count: u16,
    /// Index of the first TLS record of this segment within the message
    /// (used to reconstruct composite record sequence numbers on receive).
    pub first_record_index: u16,
    /// Flags (bit 0: segment carries a partial trailing record — reserved,
    /// bit 1: sender requests no-TSO handling, bit 2: retransmission).
    pub flags: u16,
    /// Reserved / padding to keep the area 4-byte aligned.
    pub reserved: u32,
    /// Connection identifier: demuxes concurrent connections sharing one
    /// listener socket. Zero for plain point-to-point endpoint pairs.
    pub connection_id: u32,
    /// Key epoch of the records in this segment. Incremented on each
    /// key-update so the receiver knows which traffic keys to apply
    /// (an old-epoch drain window tolerates reordering across a rekey).
    pub epoch: u16,
    /// Network priority of this segment (Homa-style SRPT: the receiver's
    /// GRANT tells the sender which priority to stamp; 0 = highest, used for
    /// unscheduled data and control).  Carried in the first former-padding
    /// byte of the option area so TSO replicates it per segment.
    pub priority: u8,
    /// The ACK a DATA packet carries, if any: the low 32 bits of a message ID
    /// its sender delivered, big-endian, which the receiver applies exactly as
    /// an ACK packet naming that ID, taking the high bits from its own
    /// in-flight window.  Plaintext, as the ACK packet it replaces is.  Per
    /// packet, not per segment, and not part of the 36-byte area on the wire:
    /// it is the TCP header's acknowledgement-number word.  It is held here, as
    /// bytes, because this struct's spare room is the only place it costs a
    /// [`crate::Packet`] nothing — every packet move on both engines' paths
    /// pays for a larger one.
    pub ack: Option<[u8; 4]>,
}

impl SmtOptionArea {
    /// Flag bit: this segment is a retransmission.
    pub const FLAG_RETRANSMISSION: u16 = 0x0004;
    /// Flag bit: the sender disabled TSO for this segment (Fig. 11 mode).
    pub const FLAG_NO_TSO: u16 = 0x0002;
    /// Flag bit: the sender runs congestion control and understands ECN
    /// marks (the segment is sent ECN-capable; queues may mark instead of
    /// dropping).
    pub const FLAG_ECN_CAPABLE: u16 = 0x0008;

    /// Creates an option area for the first segment of a fresh message.
    pub fn new(message_id: u64, message_length: u32) -> Self {
        Self {
            message_id,
            message_length,
            tso_offset: 0,
            resend_packet_offset: 0,
            record_count: 1,
            first_record_index: 0,
            flags: 0,
            reserved: 0,
            connection_id: 0,
            epoch: 0,
            priority: 0,
            ack: None,
        }
    }

    /// True if this segment is flagged as a retransmission.
    pub fn is_retransmission(&self) -> bool {
        self.flags & Self::FLAG_RETRANSMISSION != 0
    }
}

/// A full overlay header: TCP common header + SMT option area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SmtOverlayHeader {
    /// The 20-byte TCP-compatible part.
    pub tcp: OverlayTcpHeader,
    /// The SMT option area in the TCP options space.
    pub options: SmtOptionArea,
}

/// Bit of the data-offset byte saying the acknowledgement word is valid.
const ACK_VALID: u8 = 0x01;

/// Total encoded length of [`SmtOverlayHeader`].
pub const SMT_OVERLAY_LEN: usize = TCP_COMMON_HEADER_LEN + SMT_OPTION_AREA_LEN;

impl OverlayTcpHeader {
    /// Encoded length of the TCP common header.
    pub const LEN: usize = TCP_COMMON_HEADER_LEN;

    /// Creates an overlay TCP header.
    pub fn new(src_port: u16, dst_port: u16, packet_type: PacketType) -> Self {
        Self {
            src_port,
            dst_port,
            packet_type,
        }
    }
}

impl SmtOverlayHeader {
    /// Encoded length of the full overlay header.
    pub const LEN: usize = SMT_OVERLAY_LEN;

    /// Creates a header for a DATA segment of the given message.
    pub fn data(src_port: u16, dst_port: u16, message_id: u64, message_length: u32) -> Self {
        Self {
            tcp: OverlayTcpHeader::new(src_port, dst_port, PacketType::Data),
            options: SmtOptionArea::new(message_id, message_length),
        }
    }

    /// Encoded length in bytes.
    pub const fn len(&self) -> usize {
        SMT_OVERLAY_LEN
    }

    /// Returns true if the encoded representation would be empty (it never is).
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Encodes the header into `out`, returning the number of bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        if out.len() < SMT_OVERLAY_LEN {
            return Err(WireError::NoSpace {
                needed: SMT_OVERLAY_LEN,
                available: out.len(),
            });
        }
        // --- TCP common header (20 bytes) -----------------------------------
        out[0..2].copy_from_slice(&self.tcp.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.tcp.dst_port.to_be_bytes());
        // Sequence word (4 B) unused: zero.
        out[4..8].fill(0);
        // Acknowledgement word (4 B): the carried ACK, zero without one.
        out[8..12].copy_from_slice(&self.options.ack.unwrap_or_default());
        // Data offset: (20 + options) / 4 words, in the upper nibble; the
        // lower nibble's bit 0 says the acknowledgement word is valid.
        let data_offset_words = (SMT_OVERLAY_LEN / 4) as u8;
        let ack_valid = if self.options.ack.is_some() {
            ACK_VALID
        } else {
            0
        };
        out[12] = (data_offset_words << 4) | ack_valid;
        // Packet type rides where TCP keeps flags.
        out[13] = self.tcp.packet_type as u8;
        // Window (2 B) unused.
        out[14..16].fill(0);
        // Checksum (2 B): zero — SMT does not use the TCP checksum; integrity
        // comes from AEAD (paper §7 "Message integrity").
        out[16..18].fill(0);
        // Urgent pointer (2 B) unused.
        out[18..20].fill(0);

        // --- SMT option area (36 bytes) --------------------------------------
        let o = &mut out[TCP_COMMON_HEADER_LEN..SMT_OVERLAY_LEN];
        o[0..8].copy_from_slice(&self.options.message_id.to_be_bytes());
        o[8..12].copy_from_slice(&self.options.message_length.to_be_bytes());
        o[12..16].copy_from_slice(&self.options.tso_offset.to_be_bytes());
        o[16..18].copy_from_slice(&self.options.resend_packet_offset.to_be_bytes());
        o[18..20].copy_from_slice(&self.options.record_count.to_be_bytes());
        o[20..22].copy_from_slice(&self.options.first_record_index.to_be_bytes());
        o[22..24].copy_from_slice(&self.options.flags.to_be_bytes());
        o[24..28].copy_from_slice(&self.options.reserved.to_be_bytes());
        o[28..32].copy_from_slice(&self.options.connection_id.to_be_bytes());
        o[32..34].copy_from_slice(&self.options.epoch.to_be_bytes());
        o[34] = self.options.priority;
        // Padding to keep the area 4-byte aligned.
        o[35] = 0;
        Ok(SMT_OVERLAY_LEN)
    }

    /// Decodes a header from `buf`, returning it and the bytes consumed.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        if buf.len() < SMT_OVERLAY_LEN {
            return Err(WireError::Truncated {
                needed: SMT_OVERLAY_LEN,
                available: buf.len(),
            });
        }
        let data_offset_words = buf[12] >> 4;
        let declared = data_offset_words as usize * 4;
        if declared != SMT_OVERLAY_LEN {
            return Err(WireError::invalid(
                "data_offset",
                format!("expected {SMT_OVERLAY_LEN} bytes of header, found {declared}"),
            ));
        }
        let packet_type = PacketType::from_u8(buf[13])?;
        let o = &buf[TCP_COMMON_HEADER_LEN..SMT_OVERLAY_LEN];
        let options = SmtOptionArea {
            message_id: u64::from_be_bytes(o[0..8].try_into().unwrap()),
            message_length: u32::from_be_bytes(o[8..12].try_into().unwrap()),
            tso_offset: u32::from_be_bytes(o[12..16].try_into().unwrap()),
            resend_packet_offset: u16::from_be_bytes(o[16..18].try_into().unwrap()),
            record_count: u16::from_be_bytes(o[18..20].try_into().unwrap()),
            first_record_index: u16::from_be_bytes(o[20..22].try_into().unwrap()),
            flags: u16::from_be_bytes(o[22..24].try_into().unwrap()),
            reserved: u32::from_be_bytes(o[24..28].try_into().unwrap()),
            connection_id: u32::from_be_bytes(o[28..32].try_into().unwrap()),
            epoch: u16::from_be_bytes(o[32..34].try_into().unwrap()),
            priority: o[34],
            ack: (buf[12] & ACK_VALID != 0).then(|| buf[8..12].try_into().unwrap()),
        };
        let hdr = Self {
            tcp: OverlayTcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                packet_type,
            },
            options,
        };
        Ok((hdr, SMT_OVERLAY_LEN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SmtOverlayHeader {
        let mut h = SmtOverlayHeader::data(40000, 5201, 0xabcdef0123, 1 << 20);
        h.options.tso_offset = 65536;
        h.options.record_count = 4;
        h.options.first_record_index = 4;
        h.options.resend_packet_offset = 3;
        h.options.flags = SmtOptionArea::FLAG_RETRANSMISSION;
        h.options.connection_id = 0xdead_beef;
        h.options.epoch = 7;
        h.options.priority = 5;
        h
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = [0u8; 64];
        let n = h.encode(&mut buf).unwrap();
        assert_eq!(n, SMT_OVERLAY_LEN);
        let (d, consumed) = SmtOverlayHeader::decode(&buf).unwrap();
        assert_eq!(consumed, n);
        assert_eq!(d, h);
        assert!(d.options.is_retransmission());
    }

    #[test]
    fn a_carried_ack_round_trips_in_the_acknowledgement_word() {
        for ack in [None, Some(0), Some(1), Some(0x8000_0001), Some(u32::MAX)] {
            let mut h = sample();
            h.options.ack = ack.map(u32::to_be_bytes);
            let mut buf = [0u8; 64];
            h.encode(&mut buf).unwrap();
            assert_eq!(buf[8..12], ack.unwrap_or(0).to_be_bytes(), "{ack:?}");
            assert_eq!((buf[12] >> 4) as usize * 4, SMT_OVERLAY_LEN, "{ack:?}");
            // Nothing of the 36-byte option area moved.
            let mut without = [0u8; 64];
            sample().encode(&mut without).unwrap();
            assert_eq!(
                buf[TCP_COMMON_HEADER_LEN..],
                without[TCP_COMMON_HEADER_LEN..]
            );
            assert_eq!(SmtOverlayHeader::decode(&buf).unwrap().0, h, "{ack:?}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_packet_stays_two_cache_lines() {
        assert_eq!(std::mem::size_of::<crate::Packet>(), 128);
    }

    #[test]
    fn looks_like_tcp_to_tso() {
        // The data-offset nibble must declare the full overlay length so a NIC
        // performing TSO replicates the option area onto every packet.
        let h = sample();
        let mut buf = [0u8; 64];
        h.encode(&mut buf).unwrap();
        assert_eq!((buf[12] >> 4) as usize * 4, SMT_OVERLAY_LEN);
        // Ports are in the standard TCP locations.
        assert_eq!(u16::from_be_bytes([buf[0], buf[1]]), 40000);
        assert_eq!(u16::from_be_bytes([buf[2], buf[3]]), 5201);
    }

    #[test]
    fn bad_data_offset_rejected() {
        let h = sample();
        let mut buf = [0u8; 64];
        h.encode(&mut buf).unwrap();
        buf[12] = 5 << 4; // claim a bare 20-byte header
        assert!(matches!(
            SmtOverlayHeader::decode(&buf),
            Err(WireError::InvalidField { .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let h = sample();
        let mut buf = [0u8; 64];
        h.encode(&mut buf).unwrap();
        buf[13] = 0xee;
        assert!(matches!(
            SmtOverlayHeader::decode(&buf),
            Err(WireError::UnknownPacketType(0xee))
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            SmtOverlayHeader::decode(&[0u8; 30]),
            Err(WireError::Truncated { .. })
        ));
        let h = sample();
        assert!(h.encode(&mut [0u8; 30]).is_err());
    }

    #[test]
    fn option_area_per_segment_only() {
        // All fields of the option area are per-segment; two packets generated
        // from the same segment must decode to identical headers.
        let h = sample();
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        h.encode(&mut a).unwrap();
        h.encode(&mut b).unwrap();
        assert_eq!(&a[..SMT_OVERLAY_LEN], &b[..SMT_OVERLAY_LEN]);
    }
}
