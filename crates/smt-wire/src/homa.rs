//! Homa-style packet types and control packets.
//!
//! SMT reuses Homa's packet taxonomy (paper §2.2): DATA packets carry message
//! payload, GRANT packets implement the receiver-driven congestion control (the
//! receiver grants the sender permission to transmit more bytes of a message),
//! RESEND packets request retransmission of a byte range, and ACK packets
//! confirm complete message delivery so the sender can release state.  Homa's
//! BUSY is left out: nothing here would send it.
//!
//! NDP maps naturally onto these types (NACK ↔ RESEND, PULL ↔ GRANT), which is
//! why the paper argues the Homa stack generalizes to other message-based
//! datacenter transports.

use crate::{WireError, WireResult};
use serde::{Deserialize, Serialize};

/// Packet type carried in the SMT/Homa overlay header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum PacketType {
    /// Message payload (possibly one MTU-sized slice of a TSO segment).
    Data = 0x10,
    /// Receiver grants the sender permission to send more bytes (receiver-driven).
    Grant = 0x11,
    /// Receiver requests retransmission of a byte range of a message.
    Resend = 0x12,
    /// Receiver acknowledges complete receipt of a message.
    Ack = 0x13,
    /// Handshake / session-control payload (TLS handshake flights ride on these).
    Control = 0x15,
    /// Stream selective acknowledgement: cumulative ack, received ranges above
    /// it, and the DCTCP ECN echo (CE-marked / total packet counts).
    Sack = 0x16,
}

impl PacketType {
    /// Decodes a packet type from its wire discriminant.
    pub fn from_u8(v: u8) -> WireResult<Self> {
        match v {
            0x10 => Ok(PacketType::Data),
            0x11 => Ok(PacketType::Grant),
            0x12 => Ok(PacketType::Resend),
            0x13 => Ok(PacketType::Ack),
            0x15 => Ok(PacketType::Control),
            0x16 => Ok(PacketType::Sack),
            other => Err(WireError::UnknownPacketType(other)),
        }
    }

    /// True for packet types that carry application payload.
    pub fn carries_payload(self) -> bool {
        matches!(self, PacketType::Data | PacketType::Control)
    }
}

/// GRANT control packet: the receiver allows the sender to transmit message bytes
/// up to `granted_offset`, at network priority `priority`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomaGrant {
    /// Message being granted.
    pub message_id: u64,
    /// Byte offset (exclusive) up to which the sender may now transmit.
    pub granted_offset: u32,
    /// Network priority the sender should use for the granted bytes.
    pub priority: u8,
}

/// RESEND control packet: the receiver says where its first gap in a message
/// starts and the sender retransmits from there.  SMT data packets do not
/// carry a byte offset into the message, so the gap is named in the
/// coordinates they do carry: the TSO offset of their segment and their
/// packet offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomaResend {
    /// Message with data missing.
    pub message_id: u64,
    /// TSO offset of the first segment that has a packet missing.
    pub offset: u32,
    /// Length, in packets, of the run held from that segment's start: the
    /// packet offset of the first missing one.
    pub length: u32,
    /// Priority for the retransmitted data.
    pub priority: u8,
}

/// ACK control packet: the receiver has fully received (and, for SMT, fully
/// authenticated) the message, so the sender can release its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomaAck {
    /// The completed message.
    pub message_id: u64,
}

/// One received byte range above the cumulative ack in a [`SmtSack`]:
/// `[start, end)` in stream-offset space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SackRange {
    /// First byte of the received block.
    pub start: u64,
    /// One past the last byte of the received block.
    pub end: u64,
}

/// SACK control packet for the stream transports: carries the cumulative ack,
/// up to [`SmtSack::MAX_RANGES`] received byte ranges above it (from the
/// receiver's reorder buffer), and the DCTCP ECN echo — how many of the data
/// packets seen since the last SACK carried a CE mark.
///
/// The decoder *validates* rather than trusts: the range count is bounded,
/// every range must be non-empty, strictly above the cumulative ack, and
/// strictly increasing.  A mutated SACK therefore either fails to decode or
/// describes a well-formed (hence bounded) receive state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtSack {
    /// Cumulative acknowledgement: every stream byte below this offset has
    /// been received in order.
    pub ack_offset: u64,
    /// Data packets carrying an ECN CE mark seen since the last SACK.
    pub ecn_ce: u16,
    /// Total data packets seen since the last SACK (denominator of the
    /// DCTCP mark fraction; `ecn_ce <= ecn_total` after validation).
    pub ecn_total: u16,
    /// Received blocks above `ack_offset`, ascending and non-overlapping.
    pub ranges: Vec<SackRange>,
}

const GRANT_LEN: usize = 8 + 4 + 1;
const RESEND_LEN: usize = 8 + 4 + 4 + 1;
const ACK_LEN: usize = 8;

macro_rules! check_space {
    ($out:expr, $need:expr) => {
        if $out.len() < $need {
            return Err(WireError::NoSpace {
                needed: $need,
                available: $out.len(),
            });
        }
    };
}

macro_rules! check_len {
    ($buf:expr, $need:expr) => {
        if $buf.len() < $need {
            return Err(WireError::Truncated {
                needed: $need,
                available: $buf.len(),
            });
        }
    };
}

impl SmtSack {
    /// Maximum number of SACK ranges carried per frame (mirrors TCP's
    /// options-space limit and bounds decoder allocation).
    pub const MAX_RANGES: usize = 4;

    /// Encoded length of the fixed part (before the ranges).
    pub const FIXED_LEN: usize = 8 + 2 + 2 + 1;

    /// Encoded length of this frame in bytes.
    pub fn wire_len(&self) -> usize {
        Self::FIXED_LEN + self.ranges.len() * 16
    }

    /// Validates the frame's invariants (used by both encode and decode so a
    /// locally-built frame cannot emit what the decoder would reject).
    fn validate(&self) -> WireResult<()> {
        if self.ranges.len() > Self::MAX_RANGES {
            return Err(WireError::invalid(
                "sack_ranges",
                format!(
                    "{} ranges exceeds max {}",
                    self.ranges.len(),
                    Self::MAX_RANGES
                ),
            ));
        }
        if self.ecn_ce > self.ecn_total {
            return Err(WireError::invalid(
                "ecn_ce",
                format!("{} CE marks out of {} packets", self.ecn_ce, self.ecn_total),
            ));
        }
        let mut floor = self.ack_offset;
        for r in &self.ranges {
            if r.start < floor || r.end <= r.start {
                return Err(WireError::invalid(
                    "sack_range",
                    format!(
                        "range [{}, {}) below floor {floor} or empty",
                        r.start, r.end
                    ),
                ));
            }
            floor = r.end;
        }
        Ok(())
    }

    /// Encodes into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        self.validate()?;
        let need = self.wire_len();
        check_space!(out, need);
        out[0..8].copy_from_slice(&self.ack_offset.to_be_bytes());
        out[8..10].copy_from_slice(&self.ecn_ce.to_be_bytes());
        out[10..12].copy_from_slice(&self.ecn_total.to_be_bytes());
        out[12] = self.ranges.len() as u8;
        let mut at = Self::FIXED_LEN;
        for r in &self.ranges {
            out[at..at + 8].copy_from_slice(&r.start.to_be_bytes());
            out[at + 8..at + 16].copy_from_slice(&r.end.to_be_bytes());
            at += 16;
        }
        Ok(at)
    }

    /// Decodes from `buf`, returning the value and bytes consumed.  Rejects
    /// over-long range counts, empty or overlapping ranges, ranges at or
    /// below the cumulative ack, and an ECN numerator above its denominator.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        check_len!(buf, Self::FIXED_LEN);
        let count = buf[12] as usize;
        if count > Self::MAX_RANGES {
            return Err(WireError::invalid(
                "sack_ranges",
                format!("{count} ranges exceeds max {}", Self::MAX_RANGES),
            ));
        }
        let need = Self::FIXED_LEN + count * 16;
        check_len!(buf, need);
        let mut ranges = Vec::with_capacity(count);
        let mut at = Self::FIXED_LEN;
        for _ in 0..count {
            ranges.push(SackRange {
                start: u64::from_be_bytes(buf[at..at + 8].try_into().unwrap()),
                end: u64::from_be_bytes(buf[at + 8..at + 16].try_into().unwrap()),
            });
            at += 16;
        }
        let sack = Self {
            ack_offset: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            ecn_ce: u16::from_be_bytes(buf[8..10].try_into().unwrap()),
            ecn_total: u16::from_be_bytes(buf[10..12].try_into().unwrap()),
            ranges,
        };
        sack.validate()?;
        Ok((sack, at))
    }
}

impl HomaGrant {
    /// Encoded length in bytes.
    pub const LEN: usize = GRANT_LEN;

    /// Encodes into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        check_space!(out, GRANT_LEN);
        out[0..8].copy_from_slice(&self.message_id.to_be_bytes());
        out[8..12].copy_from_slice(&self.granted_offset.to_be_bytes());
        out[12] = self.priority;
        Ok(GRANT_LEN)
    }

    /// Decodes from `buf`, returning the value and bytes consumed.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        check_len!(buf, GRANT_LEN);
        Ok((
            Self {
                message_id: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
                granted_offset: u32::from_be_bytes(buf[8..12].try_into().unwrap()),
                priority: buf[12],
            },
            GRANT_LEN,
        ))
    }
}

impl HomaResend {
    /// Encoded length in bytes.
    pub const LEN: usize = RESEND_LEN;

    /// Encodes into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        check_space!(out, RESEND_LEN);
        out[0..8].copy_from_slice(&self.message_id.to_be_bytes());
        out[8..12].copy_from_slice(&self.offset.to_be_bytes());
        out[12..16].copy_from_slice(&self.length.to_be_bytes());
        out[16] = self.priority;
        Ok(RESEND_LEN)
    }

    /// Decodes from `buf`, returning the value and bytes consumed.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        check_len!(buf, RESEND_LEN);
        Ok((
            Self {
                message_id: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
                offset: u32::from_be_bytes(buf[8..12].try_into().unwrap()),
                length: u32::from_be_bytes(buf[12..16].try_into().unwrap()),
                priority: buf[16],
            },
            RESEND_LEN,
        ))
    }
}

impl HomaAck {
    /// Encoded length in bytes.
    pub const LEN: usize = ACK_LEN;

    /// Encodes into `out`, returning the bytes written.
    pub fn encode(&self, out: &mut [u8]) -> WireResult<usize> {
        check_space!(out, ACK_LEN);
        out[0..8].copy_from_slice(&self.message_id.to_be_bytes());
        Ok(ACK_LEN)
    }

    /// Decodes from `buf`, returning the value and bytes consumed.
    pub fn decode(buf: &[u8]) -> WireResult<(Self, usize)> {
        check_len!(buf, ACK_LEN);
        Ok((
            Self {
                message_id: u64::from_be_bytes(buf[0..8].try_into().unwrap()),
            },
            ACK_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_type_roundtrip() {
        for t in [
            PacketType::Data,
            PacketType::Grant,
            PacketType::Resend,
            PacketType::Ack,
            PacketType::Control,
            PacketType::Sack,
        ] {
            assert_eq!(PacketType::from_u8(t as u8).unwrap(), t);
        }
        // 0x14 is Homa's BUSY, which nothing here sends: unknown like any
        // other unassigned byte.
        for unknown in [0x14, 0xff] {
            assert!(matches!(
                PacketType::from_u8(unknown),
                Err(WireError::UnknownPacketType(t)) if t == unknown
            ));
        }
    }

    #[test]
    fn payload_carrying_types() {
        assert!(PacketType::Data.carries_payload());
        assert!(PacketType::Control.carries_payload());
        assert!(!PacketType::Grant.carries_payload());
        assert!(!PacketType::Ack.carries_payload());
    }

    #[test]
    fn grant_roundtrip() {
        let g = HomaGrant {
            message_id: 7,
            granted_offset: 131072,
            priority: 3,
        };
        let mut buf = [0u8; 32];
        let n = g.encode(&mut buf).unwrap();
        let (d, m) = HomaGrant::decode(&buf).unwrap();
        assert_eq!((d, m), (g, n));
    }

    #[test]
    fn resend_roundtrip() {
        let r = HomaResend {
            message_id: 9,
            offset: 3000,
            length: 1500,
            priority: 0,
        };
        let mut buf = [0u8; 32];
        let n = r.encode(&mut buf).unwrap();
        let (d, m) = HomaResend::decode(&buf).unwrap();
        assert_eq!((d, m), (r, n));
    }

    #[test]
    fn ack_roundtrip() {
        let a = HomaAck { message_id: 1 };
        let mut buf = [0u8; 16];
        let n = a.encode(&mut buf).unwrap();
        assert_eq!(HomaAck::decode(&buf).unwrap(), (a, n));
    }

    #[test]
    fn sack_roundtrip() {
        let s = SmtSack {
            ack_offset: 100_000,
            ecn_ce: 3,
            ecn_total: 17,
            ranges: vec![
                SackRange {
                    start: 101_448,
                    end: 104_344,
                },
                SackRange {
                    start: 110_000,
                    end: 111_448,
                },
            ],
        };
        let mut buf = [0u8; 128];
        let n = s.encode(&mut buf).unwrap();
        assert_eq!(n, s.wire_len());
        let (d, m) = SmtSack::decode(&buf).unwrap();
        assert_eq!((d, m), (s, n));
    }

    #[test]
    fn sack_empty_ranges_ok() {
        let s = SmtSack {
            ack_offset: 0,
            ecn_ce: 0,
            ecn_total: 0,
            ranges: Vec::new(),
        };
        let mut buf = [0u8; 32];
        let n = s.encode(&mut buf).unwrap();
        assert_eq!(n, SmtSack::FIXED_LEN);
        assert_eq!(SmtSack::decode(&buf).unwrap().0, s);
    }

    #[test]
    fn sack_malformed_rejected() {
        let good = SmtSack {
            ack_offset: 1000,
            ecn_ce: 0,
            ecn_total: 1,
            ranges: vec![SackRange {
                start: 2000,
                end: 3000,
            }],
        };
        let mut buf = [0u8; 128];
        good.encode(&mut buf).unwrap();

        // Range count above the bound.
        let mut bad = buf;
        bad[12] = (SmtSack::MAX_RANGES + 1) as u8;
        assert!(SmtSack::decode(&bad).is_err());

        // Empty range (end == start).
        let mut bad = buf;
        bad[SmtSack::FIXED_LEN + 8..SmtSack::FIXED_LEN + 16]
            .copy_from_slice(&2000u64.to_be_bytes());
        assert!(SmtSack::decode(&bad).is_err());

        // Range at or below the cumulative ack.
        let mut bad = buf;
        bad[SmtSack::FIXED_LEN..SmtSack::FIXED_LEN + 8].copy_from_slice(&500u64.to_be_bytes());
        assert!(SmtSack::decode(&bad).is_err());

        // CE count above the packet total.
        let mut bad = buf;
        bad[8..10].copy_from_slice(&9u16.to_be_bytes());
        assert!(SmtSack::decode(&bad).is_err());

        // Overlapping / non-ascending ranges never encode in the first place.
        let bad_frame = SmtSack {
            ack_offset: 0,
            ecn_ce: 0,
            ecn_total: 0,
            ranges: vec![
                SackRange { start: 10, end: 30 },
                SackRange { start: 20, end: 40 },
            ],
        };
        assert!(bad_frame.encode(&mut buf).is_err());
    }

    #[test]
    fn truncation_rejected() {
        assert!(HomaGrant::decode(&[0u8; 4]).is_err());
        assert!(HomaResend::decode(&[0u8; 4]).is_err());
        assert!(HomaAck::decode(&[0u8; 4]).is_err());
        assert!(SmtSack::decode(&[0u8; 4]).is_err());
        // Fixed part declaring ranges the buffer does not contain.
        let mut short = [0u8; SmtSack::FIXED_LEN];
        short[12] = 2;
        assert!(SmtSack::decode(&short).is_err());
        let g = HomaGrant {
            message_id: 1,
            granted_offset: 2,
            priority: 3,
        };
        assert!(g.encode(&mut [0u8; 4]).is_err());
    }
}
