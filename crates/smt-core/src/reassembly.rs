//! Receiver-side reassembly and decryption (paper §4.3/§4.4).
//!
//! The receiver reverses the sender's two-stage segmentation:
//!
//! 1. **Packets → TSO segments.**  All packets generated from one TSO segment
//!    carry the same overlay header (message ID, TSO offset, record count, ...);
//!    their position inside the segment comes from the IPID (packet offset).  A
//!    segment is complete once a contiguous prefix of packets contains all of its
//!    records.
//! 2. **Segments → records → message.**  Each record is decrypted with the
//!    composite sequence number `(message ID, first record index + i)`; the
//!    framing header gives the application-data length; the decrypted bytes are
//!    placed at the segment's TSO offset.  The message is delivered once all
//!    `message_length` bytes are present.
//!
//! Replay protection (§4.4.1): packets whose message ID has already completed are
//! discarded **without decryption**; spurious retransmissions of packets already
//! received are ignored idempotently.

use crate::config::SmtConfig;
use crate::replay::ReplayGuard;
use crate::{SmtError, SmtResult};
use serde::{Deserialize, Serialize};
use smt_crypto::handshake::ratchet_secret;
use smt_crypto::key_schedule::Secret;
use smt_crypto::record::RecordProtector;
use smt_crypto::CipherSuite;
use smt_crypto::SeqnoLayout;
use smt_wire::{FramingHeader, Packet, PacketType, TlsRecordHeader};
use std::collections::{BTreeMap, HashMap};

/// A fully reassembled (and, when encrypted, authenticated) message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceivedMessage {
    /// The message ID within the session.
    pub message_id: u64,
    /// Sender's port.
    pub src_port: u16,
    /// Receiver's port.
    pub dst_port: u16,
    /// The application payload.
    pub data: Vec<u8>,
}

/// Cap on the number of messages concurrently under reassembly.  Packets of
/// forged message IDs never complete, so without a cap an attacker grows one
/// `MessageBuf` per garbage datagram; beyond this many the receiver evicts
/// (DESIGN.md §8 state-bounds table).
pub const MAX_IN_PROGRESS_MESSAGES: usize = 1024;

/// Cap on the total bytes buffered across every in-progress message.  The
/// sender's flow control keeps legitimate traffic far below this; an
/// attacker spraying partial segments hits it and triggers eviction.
pub const MAX_TRACKED_BYTES: usize = 4 << 20;

/// Counters exposed for tests, the simulator and the experiment harness.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct ReceiverStats {
    /// Packets accepted and buffered or consumed.
    pub packets_accepted: u64,
    /// Packets dropped because their message ID was already completed (replay).
    pub packets_replayed: u64,
    /// Packets dropped as duplicates/spurious retransmissions within a message.
    pub packets_duplicate: u64,
    /// Messages delivered to the application.
    pub messages_delivered: u64,
    /// Records that failed authentication.
    pub auth_failures: u64,
    /// In-progress message buffers evicted to stay under the state caps.
    pub state_evictions: u64,
    /// High-water mark of bytes retained across all reassembly buffers.
    pub peak_tracked_bytes: u64,
    /// Packets dropped because their key epoch is outside the receive window
    /// (current, next, or the previous-epoch drain window).
    pub epoch_rejected: u64,
}

#[derive(Debug, Default)]
struct SegmentBuf {
    /// Payload chunks keyed by packet offset (IPID).
    chunks: BTreeMap<u16, Vec<u8>>,
    record_count: u16,
    first_record_index: u16,
    /// Key epoch declared by this segment's packets (all must agree).
    epoch: u16,
    decoded: bool,
}

impl SegmentBuf {
    fn contiguous_prefix(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut next = 0u16;
        for (&off, chunk) in &self.chunks {
            if off != next {
                break;
            }
            out.extend_from_slice(chunk);
            next = next.wrapping_add(1);
        }
        out
    }
}

#[derive(Debug, Default)]
struct MessageBuf {
    message_length: u32,
    src_port: u16,
    dst_port: u16,
    /// Decrypted application bytes keyed by application offset.
    app_chunks: BTreeMap<u32, Vec<u8>>,
    app_bytes: usize,
    /// Per-TSO-offset segment reassembly buffers.
    segments: HashMap<u32, SegmentBuf>,
    /// Bytes retained by this buffer (chunks + decrypted app bytes), kept as
    /// a running count so the eviction policy never rescans.
    buf_bytes: usize,
}

/// The receive-side engine for one direction of an SMT session.
#[derive(Debug)]
pub struct SmtReceiver {
    config: SmtConfig,
    layout: SeqnoLayout,
    cipher: Option<RecordProtector>,
    /// Traffic secret behind `cipher`; required to ratchet forward on a
    /// key-update (epoch bump).  `None` disables rekey support.
    recv_secret: Option<Secret>,
    suite: Option<CipherSuite>,
    /// Current receive key epoch.
    recv_epoch: u16,
    /// Previous-epoch protector kept for one epoch as a drain window, so
    /// retransmissions of packets sealed before a rekey still authenticate.
    prev_cipher: Option<RecordProtector>,
    replay: ReplayGuard,
    in_progress: HashMap<u64, MessageBuf>,
    /// Total bytes retained across every in-progress buffer.
    tracked_bytes: usize,
    /// Usage counters.
    pub stats: ReceiverStats,
}

impl SmtReceiver {
    /// Creates a receiver. `cipher` must be `Some` unless the mode is plaintext.
    pub fn new(config: SmtConfig, layout: SeqnoLayout, cipher: Option<RecordProtector>) -> Self {
        Self {
            config,
            layout,
            cipher,
            recv_secret: None,
            suite: None,
            recv_epoch: 0,
            prev_cipher: None,
            replay: ReplayGuard::new(),
            in_progress: HashMap::new(),
            tracked_bytes: 0,
            stats: ReceiverStats::default(),
        }
    }

    /// Enables key-update support: with the traffic secret retained, the
    /// receiver can ratchet to the next epoch when the sender stamps
    /// `epoch + 1` in the overlay (and keeps the old keys for a one-epoch
    /// drain window).  Without this, non-zero epochs are dropped.
    pub fn with_rekey(mut self, suite: CipherSuite, secret: &Secret) -> Self {
        self.suite = Some(suite);
        self.recv_secret = Some(secret.clone());
        self
    }

    /// Current receive key epoch.
    pub fn recv_epoch(&self) -> u16 {
        self.recv_epoch
    }

    /// Number of messages currently being reassembled.
    pub fn in_progress(&self) -> usize {
        self.in_progress.len()
    }

    /// Bytes currently retained across every reassembly buffer (bounded by
    /// [`MAX_TRACKED_BYTES`]).
    pub fn tracked_bytes(&self) -> usize {
        self.tracked_bytes
    }

    /// Forced low-water advances taken by the message-ID replay guard to
    /// stay under its cap.
    pub fn replay_guard_evictions(&self) -> u64 {
        self.replay.evictions()
    }

    /// True if `message_id` can no longer be delivered: it already was, or
    /// the replay guard skipped it (replay detection).
    pub fn already_delivered(&self, message_id: u64) -> bool {
        self.replay.is_replayed(message_id)
    }

    /// True if `message_id` really was delivered (see
    /// [`ReplayGuard::was_delivered`]).
    pub fn was_delivered(&self, message_id: u64) -> bool {
        self.replay.was_delivered(message_id)
    }

    /// Processes one received DATA packet.  Returns the completed message when
    /// this packet finishes its reassembly, `None` otherwise.
    pub fn on_packet(&mut self, packet: &Packet) -> SmtResult<Option<ReceivedMessage>> {
        if packet.overlay.tcp.packet_type != PacketType::Data {
            return Err(SmtError::malformed(format!(
                "receiver handed a {:?} packet",
                packet.overlay.tcp.packet_type
            )));
        }
        if packet.corrupted {
            // An out-of-sequence offload encryption produced undecryptable bytes
            // (paper Fig. 2 "Out-seq."); authentication necessarily fails.
            self.stats.auth_failures += 1;
            return Err(SmtError::Crypto(
                smt_crypto::CryptoError::AuthenticationFailed,
            ));
        }
        let opt = &packet.overlay.options;
        let message_id = opt.message_id;

        // Replay of a completed message: drop without decryption (§6.1).
        if self.replay.is_replayed(message_id) {
            self.stats.packets_replayed += 1;
            return Ok(None);
        }

        // Key-epoch window: accept the current epoch, the next one (the
        // sender rekeyed; we ratchet on first successful decrypt), and the
        // previous one while its drain-window protector is still held.
        // Anything else is undecryptable — drop without buffering so forged
        // epochs cannot occupy reassembly state.
        if self.config.crypto_mode.is_encrypted() {
            let cur = self.recv_epoch;
            let in_window = opt.epoch == cur
                || (opt.epoch == cur.wrapping_add(1) && self.recv_secret.is_some())
                || (opt.epoch == cur.wrapping_sub(1) && self.prev_cipher.is_some());
            if !in_window {
                self.stats.epoch_rejected += 1;
                return Ok(None);
            }
        }

        // Packet offset: IPID normally, the explicit resend offset for
        // retransmitted packets (§4.3).
        let packet_offset = if opt.is_retransmission() {
            opt.resend_packet_offset
        } else {
            packet
                .packet_offset()
                .ok_or_else(|| SmtError::malformed("IPv6 packet without explicit packet offset"))?
        };

        let payload = packet
            .payload
            .as_data()
            .ok_or_else(|| SmtError::malformed("DATA packet without data payload"))?
            .to_vec();

        let msg = self
            .in_progress
            .entry(message_id)
            .or_insert_with(|| MessageBuf {
                message_length: opt.message_length,
                src_port: packet.overlay.tcp.src_port,
                dst_port: packet.overlay.tcp.dst_port,
                ..MessageBuf::default()
            });
        if msg.message_length != opt.message_length {
            return Err(SmtError::malformed(
                "inconsistent message length across packets",
            ));
        }

        let seg = msg
            .segments
            .entry(opt.tso_offset)
            .or_insert_with(|| SegmentBuf {
                record_count: opt.record_count,
                first_record_index: opt.first_record_index,
                epoch: opt.epoch,
                ..SegmentBuf::default()
            });
        if seg.record_count != opt.record_count
            || seg.first_record_index != opt.first_record_index
            || seg.epoch != opt.epoch
        {
            // Geometry disagrees with what earlier packets of this segment
            // declared: forged or corrupted metadata.
            return Err(SmtError::malformed(
                "inconsistent segment geometry across packets",
            ));
        }
        if seg.decoded {
            self.stats.packets_duplicate += 1;
            return Ok(None);
        }
        if let Some(existing) = seg.chunks.get(&packet_offset) {
            if *existing == payload {
                // A spurious retransmission: byte-identical, idempotent.
                self.stats.packets_duplicate += 1;
                return Ok(None);
            }
            // A coalescing attack: a second, different payload for an offset
            // we already buffered.  Without per-packet authentication the
            // receiver cannot arbitrate, so it surfaces the conflict instead
            // of silently preferring either copy (DESIGN.md §8).
            return Err(SmtError::malformed(
                "conflicting payload for already-buffered packet offset",
            ));
        }
        let payload_len = payload.len();
        seg.chunks.insert(packet_offset, payload);
        msg.buf_bytes += payload_len;
        self.tracked_bytes += payload_len;
        self.stats.packets_accepted += 1;

        // Try to decode the segment, then check message completion.
        self.try_decode_segment(message_id, opt.tso_offset)?;
        let delivered = self.try_complete(message_id)?;
        self.enforce_bounds();
        self.stats.peak_tracked_bytes =
            self.stats.peak_tracked_bytes.max(self.tracked_bytes as u64);
        Ok(delivered)
    }

    /// Evicts in-progress buffers (fewest retained bytes first, newest
    /// message ID breaking ties — the profile of single-packet forgeries)
    /// until both state caps hold again.  Evicted messages are *not* marked
    /// replayed: a legitimate sender's retransmissions can still rebuild and
    /// deliver them.
    fn enforce_bounds(&mut self) {
        while self.in_progress.len() > MAX_IN_PROGRESS_MESSAGES
            || self.tracked_bytes > MAX_TRACKED_BYTES
        {
            let victim = self
                .in_progress
                .iter()
                .min_by_key(|(&id, m)| (m.buf_bytes, std::cmp::Reverse(id)))
                .map(|(&id, _)| id);
            let Some(id) = victim else {
                // No buffers left to evict; reset the byte count defensively.
                self.tracked_bytes = 0;
                return;
            };
            if let Some(evicted) = self.in_progress.remove(&id) {
                self.tracked_bytes = self.tracked_bytes.saturating_sub(evicted.buf_bytes);
            }
            self.stats.state_evictions += 1;
        }
    }

    fn try_decode_segment(&mut self, message_id: u64, tso_offset: u32) -> SmtResult<()> {
        let encrypted = self.config.crypto_mode.is_encrypted();
        let Some(msg) = self.in_progress.get_mut(&message_id) else {
            return Ok(());
        };
        let Some(seg) = msg.segments.get_mut(&tso_offset) else {
            return Ok(());
        };
        if seg.decoded {
            return Ok(());
        }
        let prefix = seg.contiguous_prefix();

        if !encrypted {
            // Plaintext (Homa baseline): bytes land directly at the TSO offset.
            // We only know a plaintext segment is complete when the whole message
            // byte count adds up, so place the contiguous prefix incrementally.
            let already: usize = msg
                .app_chunks
                .get(&tso_offset)
                .map(|c| c.len())
                .unwrap_or(0);
            if prefix.len() > already {
                let grown = prefix.len() - already;
                msg.app_bytes += grown;
                msg.buf_bytes += grown;
                msg.app_chunks.insert(tso_offset, prefix);
                self.tracked_bytes += grown;
            }
            return Ok(());
        }

        // Encrypted: parse whole records out of the contiguous prefix.
        let mut complete_records = 0u16;
        let mut consumed = 0usize;
        while complete_records < seg.record_count {
            let rest = &prefix[consumed..];
            let Ok((hdr, hdr_len)) = TlsRecordHeader::decode(rest) else {
                break;
            };
            if rest.len() < hdr_len + hdr.length as usize {
                break;
            }
            consumed += hdr_len + hdr.length as usize;
            complete_records += 1;
        }
        if complete_records < seg.record_count {
            return Ok(()); // not yet complete
        }

        // All records present: open the whole contiguous run in one batched
        // call through the shared datapath. Records of one segment carry
        // consecutive record indices, so their composite sequence numbers are
        // consecutive too; composing the first and last indices validates the
        // full range. Only the application bytes are then copied out of the
        // protector's scratch into the message assembly.
        //
        // Key selection is by the segment's declared epoch.  A next-epoch
        // segment is opened under a *candidate* ratcheted protector; the roll
        // is only committed once authentication succeeds, so a forged epoch
        // stamp cannot push the receiver's key schedule forward.
        let seg_epoch = seg.epoch;
        let cur = self.recv_epoch;
        let mut candidate: Option<(RecordProtector, Secret)> = None;
        let cipher: &mut RecordProtector = if seg_epoch == cur {
            self.cipher.as_mut().ok_or_else(|| {
                SmtError::Session("encrypted session without a receive cipher".into())
            })?
        } else if seg_epoch == cur.wrapping_add(1) {
            let (suite, secret) = match (self.suite, self.recv_secret.as_ref()) {
                (Some(s), Some(sec)) => (s, sec),
                _ => {
                    // Rekey material was never provided; the on_packet window
                    // should have filtered this.  Drop the segment defensively.
                    let held: usize = seg.chunks.values().map(|c| c.len()).sum();
                    msg.segments.remove(&tso_offset);
                    msg.buf_bytes = msg.buf_bytes.saturating_sub(held);
                    self.tracked_bytes = self.tracked_bytes.saturating_sub(held);
                    self.stats.epoch_rejected += 1;
                    return Ok(());
                }
            };
            let next = ratchet_secret(secret);
            let protector = RecordProtector::from_secret(suite, &next).map_err(SmtError::Crypto)?;
            candidate = Some((protector, next));
            &mut candidate.as_mut().expect("just set").0
        } else if let (true, Some(prev)) =
            (seg_epoch == cur.wrapping_sub(1), self.prev_cipher.as_mut())
        {
            prev
        } else {
            // The window moved between buffering and decode (e.g. the rekey
            // committed while this old segment was still partial and its
            // drain window has since closed).  Undecryptable: drop it.
            let held: usize = seg.chunks.values().map(|c| c.len()).sum();
            msg.segments.remove(&tso_offset);
            msg.buf_bytes = msg.buf_bytes.saturating_sub(held);
            self.tracked_bytes = self.tracked_bytes.saturating_sub(held);
            self.stats.epoch_rejected += 1;
            return Ok(());
        };
        let first_index = seg.first_record_index as u64;
        let first_seq = self
            .layout
            .compose(message_id, first_index)
            .map_err(SmtError::Crypto)?;
        let last_seq = self
            .layout
            .compose(message_id, first_index + seg.record_count.max(1) as u64 - 1)
            .map_err(SmtError::Crypto)?;
        debug_assert_eq!(
            last_seq.value() - first_seq.value(),
            seg.record_count.max(1) as u64 - 1,
            "contiguous record indices must compose to consecutive seqnos"
        );
        let batch = cipher
            .open_batch(first_seq.value(), seg.record_count as usize, &prefix)
            .map_err(|e| {
                self.stats.auth_failures += 1;
                SmtError::Crypto(e)
            })?;
        let mut app_offset = tso_offset;
        let mut delta = 0isize;
        for plain in batch.iter() {
            let app: &[u8] = if self.config.framing_header {
                let (framing, flen) = FramingHeader::decode(plain.plaintext)?;
                let end = flen + framing.app_data_len as usize;
                if plain.plaintext.len() < end {
                    return Err(SmtError::malformed("framing header exceeds record"));
                }
                &plain.plaintext[flen..end]
            } else {
                plain.plaintext
            };
            let len = app.len();
            let replaced = msg
                .app_chunks
                .insert(app_offset, app.to_vec())
                .map_or(0, |old| old.len());
            msg.app_bytes += len;
            delta += len as isize - replaced as isize;
            app_offset += len as u32;
        }
        seg.decoded = true;
        let cleared: usize = seg.chunks.values().map(|c| c.len()).sum();
        seg.chunks.clear();
        delta -= cleared as isize;
        msg.buf_bytes = msg.buf_bytes.saturating_add_signed(delta);
        self.tracked_bytes = self.tracked_bytes.saturating_add_signed(delta);
        if let Some((protector, next)) = candidate {
            // A next-epoch segment authenticated: commit the ratchet and keep
            // the outgoing keys for the drain window.
            self.prev_cipher = self.cipher.replace(protector);
            self.recv_secret = Some(next);
            self.recv_epoch = self.recv_epoch.wrapping_add(1);
        }
        Ok(())
    }

    fn try_complete(&mut self, message_id: u64) -> SmtResult<Option<ReceivedMessage>> {
        let done = {
            let Some(msg) = self.in_progress.get(&message_id) else {
                return Ok(None);
            };
            msg.app_bytes >= msg.message_length as usize
        };
        if !done {
            return Ok(None);
        }
        let Some(msg) = self.in_progress.remove(&message_id) else {
            return Ok(None);
        };
        self.tracked_bytes = self.tracked_bytes.saturating_sub(msg.buf_bytes);
        let mut data = Vec::with_capacity(msg.message_length as usize);
        let mut expected = 0u32;
        for (&off, chunk) in &msg.app_chunks {
            if off != expected {
                return Err(SmtError::malformed(format!(
                    "gap in reassembled message at offset {expected} (next chunk at {off})"
                )));
            }
            data.extend_from_slice(chunk);
            expected += chunk.len() as u32;
        }
        if data.len() != msg.message_length as usize {
            return Err(SmtError::malformed("reassembled length mismatch"));
        }
        let guard_evictions_before = self.replay.evictions();
        self.replay.mark_completed(message_id);
        self.stats.state_evictions += self.replay.evictions() - guard_evictions_before;
        self.stats.messages_delivered += 1;
        Ok(Some(ReceivedMessage {
            message_id,
            src_port: msg.src_port,
            dst_port: msg.dst_port,
            data,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{PathInfo, SmtSegmenter};
    use crate::SmtConfig;
    use smt_crypto::key_schedule::Secret;
    use smt_crypto::CipherSuite;
    use smt_wire::DEFAULT_MTU;

    fn cipher() -> RecordProtector {
        RecordProtector::from_secret(
            CipherSuite::Aes128GcmSha256,
            &Secret::from_slice(&[7u8; 32]).unwrap(),
        )
        .unwrap()
    }

    fn send_receive(config: SmtConfig, data: &[u8], shuffle: bool) -> ReceivedMessage {
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx_cipher = cipher();
        let use_cipher = config.crypto_mode.is_encrypted();
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(10, 20),
                5,
                data,
                0,
                use_cipher.then_some(&tx_cipher),
                None,
                4 << 20,
            )
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), use_cipher.then(cipher));
        let mut packets: Vec<Packet> = msg
            .segments
            .iter()
            .flat_map(|s| s.packetize(DEFAULT_MTU).unwrap())
            .collect();
        if shuffle {
            packets.reverse();
        }
        let mut delivered = None;
        for p in &packets {
            if let Some(m) = rx.on_packet(p).unwrap() {
                delivered = Some(m);
            }
        }
        delivered.expect("message delivered")
    }

    #[test]
    fn roundtrip_small_encrypted() {
        let m = send_receive(SmtConfig::software(), b"hello world", false);
        assert_eq!(m.data, b"hello world");
        assert_eq!(m.message_id, 5);
        assert_eq!(m.src_port, 10);
        assert_eq!(m.dst_port, 20);
    }

    #[test]
    fn roundtrip_large_encrypted_out_of_order() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let m = send_receive(SmtConfig::software(), &data, true);
        assert_eq!(m.data, data);
    }

    #[test]
    fn roundtrip_plaintext() {
        let data = vec![3u8; 50_000];
        let m = send_receive(SmtConfig::plaintext(), &data, false);
        assert_eq!(m.data, data);
    }

    #[test]
    fn roundtrip_without_framing_header() {
        let mut config = SmtConfig::software();
        config.framing_header = false;
        let data = vec![9u8; 40_000];
        let m = send_receive(config, &data, false);
        assert_eq!(m.data, data);
    }

    #[test]
    fn roundtrip_without_tso() {
        let config = SmtConfig::software().without_tso();
        let data = vec![4u8; 20_000];
        let m = send_receive(config, &data, true);
        assert_eq!(m.data, data);
    }

    #[test]
    fn duplicate_packets_ignored() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &vec![1u8; 10_000],
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        // Deliver the first packet twice before the rest.
        rx.on_packet(&packets[0]).unwrap();
        rx.on_packet(&packets[0]).unwrap();
        assert_eq!(rx.stats.packets_duplicate, 1);
        let mut delivered = None;
        for p in &packets[1..] {
            if let Some(m) = rx.on_packet(p).unwrap() {
                delivered = Some(m);
            }
        }
        assert_eq!(delivered.unwrap().data, vec![1u8; 10_000]);
    }

    #[test]
    fn conflicting_duplicate_payload_rejected() {
        // Coalescing attack: a second copy of an already-buffered packet
        // offset carrying *different* bytes must surface a typed error, not
        // be silently dropped in favor of the first copy.
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &vec![1u8; 10_000],
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        rx.on_packet(&packets[0]).unwrap();
        // Same packet offset, tampered payload bytes.
        let mut forged = packets[0].clone();
        if let smt_wire::PacketPayload::Data(b) = &forged.payload {
            let mut v = b.to_vec();
            v[0] ^= 0x55;
            forged.payload = smt_wire::PacketPayload::Data(v.into());
        }
        assert!(matches!(
            rx.on_packet(&forged),
            Err(SmtError::MalformedPacket(_))
        ));
        // A byte-identical retransmission is still absorbed idempotently.
        assert!(rx.on_packet(&packets[0]).unwrap().is_none());
        assert_eq!(rx.stats.packets_duplicate, 1);
    }

    #[test]
    fn inconsistent_segment_geometry_rejected() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &vec![1u8; 10_000],
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        rx.on_packet(&packets[0]).unwrap();
        // A later packet of the same segment claiming different geometry.
        let mut forged = packets[1].clone();
        forged.overlay.options.first_record_index += 7;
        assert!(matches!(
            rx.on_packet(&forged),
            Err(SmtError::MalformedPacket(_))
        ));
    }

    #[test]
    fn garbage_message_flood_stays_bounded() {
        // One packet per forged message ID: without the cap this grows one
        // MessageBuf per datagram forever.
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        for id in 0..3 * MAX_IN_PROGRESS_MESSAGES as u64 {
            // A real first packet of a large message that never completes.
            let msg = segmenter
                .segment_message(
                    PathInfo::loopback(1, 2),
                    id,
                    &vec![0xab; 4000],
                    0,
                    Some(&tx),
                    None,
                    1 << 20,
                )
                .unwrap();
            let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
            rx.on_packet(&packets[0]).unwrap();
        }
        assert!(rx.in_progress() <= MAX_IN_PROGRESS_MESSAGES);
        assert!(rx.tracked_bytes() <= MAX_TRACKED_BYTES);
        assert!(rx.stats.state_evictions > 0);
        assert!(rx.stats.peak_tracked_bytes <= MAX_TRACKED_BYTES as u64);
        // The receiver still works: a fresh complete message delivers.
        let id = 4 * MAX_IN_PROGRESS_MESSAGES as u64;
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                id,
                b"still alive",
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let mut delivered = None;
        for p in msg.segments[0].packetize(DEFAULT_MTU).unwrap() {
            if let Some(m) = rx.on_packet(&p).unwrap() {
                delivered = Some(m);
            }
        }
        assert_eq!(delivered.unwrap().data, b"still alive");
    }

    #[test]
    fn eviction_recovers_via_retransmission() {
        // An evicted legitimate message is not marked replayed: resending it
        // from scratch still delivers.
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let victim = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &vec![7u8; 9000],
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let victim_packets = victim.segments[0].packetize(DEFAULT_MTU).unwrap();
        // Buffer only the (short) final packet, so the victim holds the
        // fewest bytes and is deterministically first in eviction order,
        // then flood until it gets evicted.
        rx.on_packet(victim_packets.last().unwrap()).unwrap();
        for id in 1..=MAX_IN_PROGRESS_MESSAGES as u64 + 8 {
            let msg = segmenter
                .segment_message(
                    PathInfo::loopback(1, 2),
                    id,
                    &vec![0xcd; 6000],
                    0,
                    Some(&tx),
                    None,
                    1 << 20,
                )
                .unwrap();
            let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
            rx.on_packet(&packets[0]).unwrap();
        }
        assert!(rx.stats.state_evictions > 0);
        // Full retransmission of the victim delivers it.
        let mut delivered = None;
        for p in &victim_packets {
            let mut retx = p.clone();
            SmtSegmenter::mark_retransmission(&mut retx);
            if let Some(m) = rx.on_packet(&retx).unwrap() {
                delivered = Some(m);
            }
        }
        assert_eq!(delivered.unwrap().data, vec![7u8; 9000]);
    }

    #[test]
    fn replayed_message_dropped_without_decryption() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                9,
                b"only once",
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        let mut count = 0;
        for p in &packets {
            if rx.on_packet(p).unwrap().is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 1);
        assert!(rx.already_delivered(9));
        // Replaying the entire message yields nothing and is counted.
        for p in &packets {
            assert!(rx.on_packet(p).unwrap().is_none());
        }
        assert_eq!(rx.stats.packets_replayed as usize, packets.len());
        assert_eq!(rx.stats.messages_delivered, 1);
    }

    #[test]
    fn tampered_payload_detected() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                b"sensitive",
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let mut packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        // Flip a ciphertext byte.
        if let smt_wire::PacketPayload::Data(b) = &packets[0].payload {
            let mut v = b.to_vec();
            let last = v.len() - 1;
            v[last] ^= 0xff;
            packets[0].payload = smt_wire::PacketPayload::Data(v.into());
        }
        let err = rx.on_packet(&packets[0]);
        assert!(matches!(
            err,
            Err(SmtError::Crypto(
                smt_crypto::CryptoError::AuthenticationFailed
            ))
        ));
        assert_eq!(rx.stats.auth_failures, 1);
    }

    #[test]
    fn corrupted_offload_packet_rejected() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let msg = segmenter
            .segment_message(PathInfo::loopback(1, 2), 0, b"x", 0, Some(&tx), None, 1024)
            .unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let mut packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        packets[0].corrupted = true;
        assert!(rx.on_packet(&packets[0]).is_err());
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        // The property that motivates SMT: different messages of one session can
        // arrive interleaved and out of order without head-of-line blocking.
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let data_a: Vec<u8> = vec![0xaa; 60_000];
        let data_b: Vec<u8> = vec![0xbb; 45_000];
        let msg_a = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                1,
                &data_a,
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let msg_b = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                2,
                &data_b,
                1,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let pkts_a: Vec<Packet> = msg_a
            .segments
            .iter()
            .flat_map(|s| s.packetize(DEFAULT_MTU).unwrap())
            .collect();
        let pkts_b: Vec<Packet> = msg_b
            .segments
            .iter()
            .flat_map(|s| s.packetize(DEFAULT_MTU).unwrap())
            .collect();

        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let mut delivered = Vec::new();
        // Interleave: one packet of A, one of B, alternating; B finishes first.
        let mut ia = pkts_a.iter();
        let mut ib = pkts_b.iter();
        loop {
            let mut progressed = false;
            if let Some(p) = ib.next() {
                if let Some(m) = rx.on_packet(p).unwrap() {
                    delivered.push(m);
                }
                progressed = true;
            }
            if let Some(p) = ia.next() {
                if let Some(m) = rx.on_packet(p).unwrap() {
                    delivered.push(m);
                }
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(delivered.len(), 2);
        let a = delivered.iter().find(|m| m.message_id == 1).unwrap();
        let b = delivered.iter().find(|m| m.message_id == 2).unwrap();
        assert_eq!(a.data, data_a);
        assert_eq!(b.data, data_b);
        // The shorter message B completed before the larger A.
        assert_eq!(delivered[0].message_id, 2);
    }

    #[test]
    fn retransmitted_packet_fills_gap() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let data = vec![7u8; 12_000];
        let msg = segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                0,
                &data,
                0,
                Some(&tx),
                None,
                1 << 20,
            )
            .unwrap();
        let packets = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        // Deliver all but packet 3 (simulated loss).
        for (i, p) in packets.iter().enumerate() {
            if i != 3 {
                assert!(rx.on_packet(p).unwrap().is_none());
            }
        }
        // Retransmit packet 3 with the resend-offset marking.
        let mut retx = packets[3].clone();
        SmtSegmenter::mark_retransmission(&mut retx);
        let m = rx.on_packet(&retx).unwrap().expect("message completes");
        assert_eq!(m.data, data);
    }

    #[test]
    fn wrong_packet_type_rejected() {
        let config = SmtConfig::software();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        let overlay = smt_wire::SmtOverlayHeader {
            tcp: smt_wire::OverlayTcpHeader::new(1, 2, PacketType::Grant),
            options: smt_wire::SmtOptionArea::new(0, 0),
        };
        let pkt = Packet {
            ip: smt_wire::IpHeader::V4(smt_wire::Ipv4Header::new(
                [1, 1, 1, 1],
                [2, 2, 2, 2],
                smt_wire::IPPROTO_SMT,
                60,
            )),
            overlay,
            payload: smt_wire::PacketPayload::Grant(smt_wire::HomaGrant {
                message_id: 0,
                granted_offset: 0,
                priority: 0,
            }),
            corrupted: false,
        };
        assert!(rx.on_packet(&pkt).is_err());
    }
}
