//! Sender-side segmentation: application message → TLS records → TSO segments
//! (paper §4.3 "Offload-Friendly Encrypted Message Format").
//!
//! A message is segmented in two stages.  First it is cut into TLS records of at
//! most 16 KB, each carrying a framing header (application-data length) followed
//! by application bytes.  Records are then packed into TSO segments of at most
//! 64 KB such that **records never span segment boundaries** — the NIC encrypts
//! whole records and TSO replicates the overlay header, so a record split across
//! segments could not be reassembled.  Each segment's overlay option area carries
//! the message ID, total message length, the TSO offset (application-byte offset
//! of the segment within the message), the index of its first record and the
//! record count; the per-packet offset within a segment comes from the IPID
//! assigned by the (real or software) TSO engine.
//!
//! Sealing is one pass per segment: the records that fit and their exact wire
//! size are counted first, the segment's payload is reserved once, and each
//! record is sealed straight into it with its framing header built on the
//! stack.  A message allocates its segment payloads and the vector that holds
//! the segments, nothing else.
//!
//! Depending on [`CryptoMode`]:
//! * `Plaintext` — segments carry raw application bytes (the Homa baseline);
//! * `Software` — records are encrypted here, on the CPU;
//! * `HardwareOffload` — records are encrypted under the same composite sequence
//!   numbers, and every segment additionally carries a
//!   [`TlsOffloadDescriptor`](smt_wire::TlsOffloadDescriptor)
//!   obtained from the [`FlowContextManager`]; the simulator charges the AEAD
//!   work to the NIC and verifies the descriptor/resync discipline of §4.4.2.

use crate::config::{CryptoMode, SmtConfig};
use crate::flow_context::FlowContextManager;
use crate::{SmtError, SmtResult};
use bytes::{Bytes, BytesMut};
use smt_crypto::record::{Padding, RecordProtector};
use smt_crypto::SeqnoLayout;
use smt_wire::{
    ContentType, FramingHeader, PacketType, SmtOptionArea, SmtOverlayHeader, TsoSegment,
    FRAMING_HEADER_LEN, IPPROTO_SMT,
};

/// Addressing information for one direction of a session (the flow 5-tuple minus
/// the protocol number, which is always [`IPPROTO_SMT`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathInfo {
    /// Source IPv4 address.
    pub src: [u8; 4],
    /// Destination IPv4 address.
    pub dst: [u8; 4],
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl PathInfo {
    /// A loopback-style path used by tests and examples.
    pub fn loopback(src_port: u16, dst_port: u16) -> Self {
        Self {
            src: [127, 0, 0, 1],
            dst: [127, 0, 0, 1],
            src_port,
            dst_port,
        }
    }

    /// The two directions of one connection between the canonical evaluation
    /// hosts (10.0.0.1 → 10.0.0.2): the client path and the matching reversed
    /// server path.  Tests, examples, `session_pair` and the endpoint builder
    /// all derive their addresses from this single helper.
    pub fn pair(client_port: u16, server_port: u16) -> (Self, Self) {
        let client = Self {
            src: [10, 0, 0, 1],
            dst: [10, 0, 0, 2],
            src_port: client_port,
            dst_port: server_port,
        };
        (client, client.reversed())
    }

    /// The same path as seen from the other end.
    pub fn reversed(&self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }
}

/// A fully segmented outgoing message, ready to hand to the transport/NIC.
#[derive(Debug, Clone)]
pub struct OutgoingMessage {
    /// The message ID within the session.
    pub message_id: u64,
    /// Total application bytes in the message.
    pub app_len: usize,
    /// Total wire payload bytes across all segments (records + framing + tags).
    pub wire_len: usize,
    /// Number of TLS records produced.
    pub record_count: usize,
    /// The TSO segments in transmission order.
    pub segments: Vec<TsoSegment>,
    /// NIC queue the message was assigned to (all segments of one message use
    /// the same queue, §4.4.2).
    pub queue: usize,
}

/// The segmentation engine for one sending direction of a session.
#[derive(Debug)]
pub struct SmtSegmenter {
    config: SmtConfig,
    layout: SeqnoLayout,
    /// Key epoch stamped into every produced segment's option area; bumped by
    /// the session on rekey so the receiver picks the matching traffic keys.
    send_epoch: u16,
}

impl SmtSegmenter {
    /// Creates a segmenter.
    pub fn new(config: SmtConfig, layout: SeqnoLayout) -> Self {
        Self {
            config,
            layout,
            send_epoch: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmtConfig {
        &self.config
    }

    /// The key epoch currently stamped on outgoing segments.
    pub fn send_epoch(&self) -> u16 {
        self.send_epoch
    }

    /// Sets the key epoch stamped on subsequently produced segments (the
    /// session bumps this when it ratchets its send traffic secret).
    pub fn set_send_epoch(&mut self, epoch: u16) {
        self.send_epoch = epoch;
    }

    /// Maximum payload bytes a segment may carry under the current configuration.
    fn segment_payload_limit(&self) -> usize {
        if self.config.tso_enabled {
            smt_wire::MAX_TSO_SEGMENT
        } else {
            // Without TSO every segment must fit into a single packet (§7).
            smt_wire::max_payload_per_packet(self.config.mtu)
        }
    }

    /// Maximum application bytes per record such that one full record (header,
    /// framing, payload, tag) always fits within a segment.
    fn record_chunk_limit(&self) -> usize {
        let seg_limit = self.segment_payload_limit();
        let overhead = smt_wire::RECORD_EXPANSION
            + 1 // inner content type byte
            + FRAMING_HEADER_LEN;
        let fit_segment = seg_limit.saturating_sub(overhead);
        self.config.record_app_capacity().min(fit_segment).max(1)
    }

    /// Segments `data` into an [`OutgoingMessage`].
    ///
    /// * `cipher` must be `Some` for the `Software` and `HardwareOffload` modes.
    /// * `flow_contexts` must be `Some` for `HardwareOffload`.
    /// * `queue` is the NIC TX queue chosen by the sending core.
    #[allow(clippy::too_many_arguments)]
    pub fn segment_message(
        &self,
        path: PathInfo,
        message_id: u64,
        data: &[u8],
        queue: usize,
        cipher: Option<&RecordProtector>,
        flow_contexts: Option<&mut FlowContextManager>,
        max_message_size: usize,
    ) -> SmtResult<OutgoingMessage> {
        if data.len() > max_message_size {
            return Err(SmtError::MessageTooLarge {
                size: data.len(),
                limit: max_message_size,
            });
        }
        if message_id > self.layout.max_message_id() {
            return Err(SmtError::MessageIdExhausted);
        }
        match self.config.crypto_mode {
            CryptoMode::Plaintext => self.segment_plaintext(path, message_id, data, queue),
            CryptoMode::Software => {
                let cipher = cipher
                    .ok_or_else(|| SmtError::Session("software mode requires a cipher".into()))?;
                self.segment_encrypted(path, message_id, data, queue, cipher, None)
            }
            CryptoMode::HardwareOffload => {
                let cipher = cipher
                    .ok_or_else(|| SmtError::Session("offload mode requires a cipher".into()))?;
                let fc = flow_contexts.ok_or_else(|| {
                    SmtError::Session("offload mode requires a flow-context manager".into())
                })?;
                self.segment_encrypted(path, message_id, data, queue, cipher, Some(fc))
            }
        }
    }

    fn overlay_for(
        &self,
        path: PathInfo,
        message_id: u64,
        message_len: usize,
        tso_offset: usize,
        first_record_index: usize,
        record_count: usize,
    ) -> SmtOverlayHeader {
        let mut overlay =
            SmtOverlayHeader::data(path.src_port, path.dst_port, message_id, message_len as u32);
        overlay.options.tso_offset = tso_offset as u32;
        overlay.options.first_record_index = first_record_index as u16;
        overlay.options.record_count = record_count as u16;
        overlay.options.epoch = self.send_epoch;
        if !self.config.tso_enabled {
            overlay.options.flags |= SmtOptionArea::FLAG_NO_TSO;
        }
        overlay
    }

    fn segment_plaintext(
        &self,
        path: PathInfo,
        message_id: u64,
        data: &[u8],
        queue: usize,
    ) -> SmtResult<OutgoingMessage> {
        let seg_limit = self.segment_payload_limit();
        let mut segments = Vec::new();
        let mut offset = 0usize;
        loop {
            let take = seg_limit.min(data.len() - offset);
            let overlay = self.overlay_for(path, message_id, data.len(), offset, 0, 0);
            segments.push(TsoSegment::new(
                path.src,
                path.dst,
                IPPROTO_SMT,
                overlay,
                Bytes::copy_from_slice(&data[offset..offset + take]),
            ));
            offset += take;
            if offset >= data.len() {
                break;
            }
        }
        let wire_len = segments.iter().map(|s| s.len()).sum();
        Ok(OutgoingMessage {
            message_id,
            app_len: data.len(),
            wire_len,
            record_count: 0,
            segments,
            queue,
        })
    }

    /// One pass per segment: count the records that fit and their exact wire
    /// size (known in advance via `wire_record_len_with`), reserve the
    /// segment's payload once, then seal each record straight into it, its
    /// framing header built on the stack.  Records never straddle segment
    /// boundaries.
    fn segment_encrypted(
        &self,
        path: PathInfo,
        message_id: u64,
        data: &[u8],
        queue: usize,
        cipher: &RecordProtector,
        mut flow_contexts: Option<&mut FlowContextManager>,
    ) -> SmtResult<OutgoingMessage> {
        let chunk_limit = self.record_chunk_limit();
        let seg_limit = self.segment_payload_limit();
        let seq_of = |record_index: u64| {
            self.layout
                .compose(message_id, record_index)
                .map_err(|_| SmtError::MessageTooLarge {
                    size: data.len(),
                    limit: self.layout.max_records_per_message() as usize * chunk_limit,
                })
        };

        let mut segments = Vec::with_capacity(data.len() / seg_limit + 1);
        let mut wire_len = 0usize;
        let mut offset = 0usize;
        let mut record_index: u64 = 0;
        loop {
            let (tso_offset, first_record_index) = (offset, record_index);
            let mut records = 0usize;
            let mut seg_bytes = 0usize;
            let mut end = offset;
            loop {
                let take = chunk_limit.min(data.len() - end);
                let rec_len =
                    cipher.wire_record_len_with(FRAMING_HEADER_LEN + take, Padding::Default);
                if records > 0 && seg_bytes + rec_len > seg_limit {
                    break; // this record opens the next segment
                }
                if rec_len > seg_limit {
                    // A single record larger than the segment limit cannot
                    // happen by construction (record_chunk_limit), but guard
                    // against padding pushing one over.
                    return Err(SmtError::Session(
                        "record larger than TSO segment limit".into(),
                    ));
                }
                records += 1;
                seg_bytes += rec_len;
                end += take;
                if end >= data.len() {
                    break;
                }
            }

            let mut payload = BytesMut::with_capacity(seg_bytes);
            for _ in 0..records {
                let chunk = &data[offset..end.min(offset + chunk_limit)];
                let mut hdr = [0u8; FRAMING_HEADER_LEN];
                FramingHeader::new(chunk.len() as u32).encode(&mut hdr)?;
                cipher.seal_parts_into(
                    seq_of(record_index)?.value(),
                    ContentType::ApplicationData,
                    &[&hdr, chunk],
                    Padding::Default,
                    &mut payload,
                )?;
                record_index += 1;
                offset += chunk.len();
            }
            debug_assert_eq!(payload.len(), seg_bytes);

            let overlay = self.overlay_for(
                path,
                message_id,
                data.len(),
                tso_offset,
                first_record_index as usize,
                records,
            );
            wire_len += seg_bytes;
            let mut seg =
                TsoSegment::new(path.src, path.dst, IPPROTO_SMT, overlay, payload.freeze());
            if let Some(fc) = flow_contexts.as_deref_mut() {
                let first_seq = seq_of(first_record_index)?.value();
                let update = fc.prepare_segment(queue, first_seq, records as u64);
                seg.offload = Some(update.descriptor);
            }
            segments.push(seg);
            if offset >= data.len() {
                break;
            }
        }

        Ok(OutgoingMessage {
            message_id,
            app_len: data.len(),
            wire_len,
            record_count: record_index as usize,
            segments,
            queue,
        })
    }

    /// Marks a packet as a retransmission: sets the retransmission flag and
    /// stores the original packet offset in the plaintext option area so the
    /// receiver can place the payload (paper §4.3, "Resend packet offset").
    pub fn mark_retransmission(packet: &mut smt_wire::Packet) {
        let original_offset = packet.packet_offset().unwrap_or(0);
        packet.overlay.options.flags |= SmtOptionArea::FLAG_RETRANSMISSION;
        packet.overlay.options.resend_packet_offset = original_offset;
        debug_assert_eq!(packet.overlay.tcp.packet_type, PacketType::Data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_crypto::key_schedule::Secret;
    use smt_crypto::CipherSuite;

    fn cipher() -> RecordProtector {
        RecordProtector::from_secret(
            CipherSuite::Aes128GcmSha256,
            &Secret::from_slice(&[7u8; 32]).unwrap(),
        )
        .unwrap()
    }

    fn segmenter(config: SmtConfig) -> SmtSegmenter {
        SmtSegmenter::new(config, SeqnoLayout::default())
    }

    #[test]
    fn small_message_single_record_single_segment() {
        let s = segmenter(SmtConfig::software());
        let c = cipher();
        let msg = s
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                b"hello",
                0,
                Some(&c),
                None,
                1 << 20,
            )
            .unwrap();
        assert_eq!(msg.segments.len(), 1);
        assert_eq!(msg.record_count, 1);
        assert_eq!(msg.app_len, 5);
        let opt = msg.segments[0].options();
        assert_eq!(opt.message_id, 0);
        assert_eq!(opt.record_count, 1);
        assert_eq!(opt.message_length, 5);
        // Ciphertext is larger than plaintext (framing + record overhead).
        assert!(msg.wire_len > msg.app_len);
    }

    #[test]
    fn large_message_multiple_records_and_segments() {
        let s = segmenter(SmtConfig::software());
        let c = cipher();
        let data = vec![0xabu8; 200 * 1024];
        let msg = s
            .segment_message(
                PathInfo::loopback(1, 2),
                3,
                &data,
                1,
                Some(&c),
                None,
                1 << 20,
            )
            .unwrap();
        assert!(msg.record_count > 1);
        assert!(msg.segments.len() > 1);
        // Segments respect the TSO limit and record indices are contiguous.
        let mut expected_index = 0u16;
        for seg in &msg.segments {
            assert!(seg.len() <= smt_wire::MAX_TSO_SEGMENT);
            assert_eq!(seg.options().first_record_index, expected_index);
            expected_index += seg.options().record_count;
        }
        assert_eq!(expected_index as usize, msg.record_count);
    }

    #[test]
    fn plaintext_mode_has_no_records() {
        let s = segmenter(SmtConfig::plaintext());
        let data = vec![1u8; 100_000];
        let msg = s
            .segment_message(PathInfo::loopback(1, 2), 0, &data, 0, None, None, 1 << 20)
            .unwrap();
        assert_eq!(msg.record_count, 0);
        assert_eq!(msg.wire_len, data.len());
        let total: usize = msg.segments.iter().map(|s| s.len()).sum();
        assert_eq!(total, data.len());
    }

    #[test]
    fn no_tso_limits_segments_to_one_packet() {
        let s = segmenter(SmtConfig::software().without_tso());
        let c = cipher();
        let data = vec![9u8; 8 * 1024];
        let msg = s
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &data,
                0,
                Some(&c),
                None,
                1 << 20,
            )
            .unwrap();
        let per_packet = smt_wire::max_payload_per_packet(smt_wire::DEFAULT_MTU);
        for seg in &msg.segments {
            assert!(seg.len() <= per_packet);
            assert!(seg.options().flags & SmtOptionArea::FLAG_NO_TSO != 0);
        }
        // Many more segments than the TSO case.
        assert!(msg.segments.len() >= 6);
    }

    #[test]
    fn offload_mode_attaches_descriptors() {
        let s = segmenter(SmtConfig::hardware_offload());
        let c = cipher();
        let mut fc = FlowContextManager::new(4, 1);
        let data = vec![5u8; 100 * 1024];
        let msg = s
            .segment_message(
                PathInfo::loopback(1, 2),
                7,
                &data,
                2,
                Some(&c),
                Some(&mut fc),
                1 << 20,
            )
            .unwrap();
        let layout = SeqnoLayout::default();
        for seg in &msg.segments {
            let desc = seg.offload.expect("descriptor attached");
            let (mid, idx) = layout.decompose(desc.first_record_seq);
            assert_eq!(mid, 7);
            assert_eq!(idx, seg.options().first_record_index as u64);
        }
        // Consecutive segments of one message stay in sequence: only the first
        // requires a resync of the fresh context.
        assert_eq!(fc.stats.resyncs, 1);
        assert_eq!(fc.stats.in_sequence as usize, msg.segments.len() - 1);
    }

    #[test]
    fn offload_requires_flow_contexts() {
        let s = segmenter(SmtConfig::hardware_offload());
        let c = cipher();
        assert!(s
            .segment_message(PathInfo::loopback(1, 2), 0, b"x", 0, Some(&c), None, 1024)
            .is_err());
    }

    #[test]
    fn software_requires_cipher() {
        let s = segmenter(SmtConfig::software());
        assert!(s
            .segment_message(PathInfo::loopback(1, 2), 0, b"x", 0, None, None, 1024)
            .is_err());
    }

    #[test]
    fn oversize_message_rejected() {
        let s = segmenter(SmtConfig::software());
        let c = cipher();
        let data = vec![0u8; 2048];
        assert!(matches!(
            s.segment_message(PathInfo::loopback(1, 2), 0, &data, 0, Some(&c), None, 1024),
            Err(SmtError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn message_id_overflow_rejected() {
        let s = segmenter(SmtConfig::software());
        let c = cipher();
        assert!(matches!(
            s.segment_message(
                PathInfo::loopback(1, 2),
                1 << 48,
                b"x",
                0,
                Some(&c),
                None,
                1024
            ),
            Err(SmtError::MessageIdExhausted)
        ));
    }

    #[test]
    fn empty_message_produces_one_record() {
        let s = segmenter(SmtConfig::software());
        let c = cipher();
        let msg = s
            .segment_message(PathInfo::loopback(1, 2), 0, b"", 0, Some(&c), None, 1024)
            .unwrap();
        assert_eq!(msg.record_count, 1);
        assert_eq!(msg.app_len, 0);
        assert_eq!(msg.segments.len(), 1);
    }

    #[test]
    fn retransmission_marking() {
        let s = segmenter(SmtConfig::software());
        let c = cipher();
        let data = vec![1u8; 10_000];
        let msg = s
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &data,
                0,
                Some(&c),
                None,
                1 << 20,
            )
            .unwrap();
        let mut packets = msg.segments[0].packetize(smt_wire::DEFAULT_MTU).unwrap();
        let pkt = &mut packets[2];
        SmtSegmenter::mark_retransmission(pkt);
        assert!(pkt.overlay.options.is_retransmission());
        assert_eq!(pkt.overlay.options.resend_packet_offset, 2);
    }
}
