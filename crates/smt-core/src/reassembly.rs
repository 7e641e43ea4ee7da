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
//!
//! A packet costs the same however many bytes are already buffered.  A segment
//! keeps *views* of its packets' payloads plus two cursors that only move
//! forward — how far the packets are contiguous, and how many whole records
//! that run holds — so each payload byte is looked at once when it joins the
//! run.  When the last record is whole, the ciphertext is gathered out of the
//! packets straight into the protector's scratch (copy one), opened there, and
//! the application bytes are appended to the message's buffer (copy two), which
//! is handed to the application as is.  Only a segment that completes before
//! an earlier one pays a third copy, when the gap before it closes.  Nothing
//! is ever sized from a length the wire declares.
//!
//! A segment's first packet that by itself holds the segment's every record —
//! a small RPC's only packet, every packet when TSO is off — is opened where it
//! lies: no view of it is kept, the same two copies are made, and when that
//! segment is the whole message nothing of the message is ever buffered.  It
//! goes through the same opening routine as a buffered segment
//! (`RecordOpener::open_into`, which takes the run of chunks to read from), so
//! key epochs, counters and errors are those of the buffered path.
//!
//! A segment whose records fail to open is discarded whole: without per-packet
//! authentication the receiver cannot tell which of its packets was forged,
//! and a kept forgery would reject the genuine copy as a conflicting duplicate
//! on every retransmission.

use crate::config::SmtConfig;
use crate::replay::ReplayGuard;
use crate::{SmtError, SmtResult};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use smt_crypto::handshake::ratchet_secret;
use smt_crypto::key_schedule::Secret;
use smt_crypto::record::RecordProtector;
use smt_crypto::CipherSuite;
use smt_crypto::SeqnoLayout;
use smt_wire::{FramingHeader, Packet, PacketType, SmtOptionArea, TlsRecordHeader};
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

/// Forward-only scan for record boundaries over a segment's contiguous
/// bytes, fed chunk by chunk as the run grows (a header may straddle packets).
#[derive(Debug, Default)]
struct RecordScan {
    /// Whole records (header and body) the run holds so far.
    records: u16,
    /// Bytes of the current record's body still to come; `None` between
    /// records, while the next header is being gathered.
    body_left: Option<usize>,
    /// The next record's header bytes gathered so far.
    header: [u8; TlsRecordHeader::LEN],
    header_len: usize,
    /// A header in the run does not parse.  Buffered bytes never change, so
    /// the segment can never complete; it lingers until evicted.
    stuck: bool,
}

impl RecordScan {
    /// Scans the next `bytes` of the run, stopping once `want` records are
    /// whole.
    fn feed(&mut self, mut bytes: &[u8], want: u16) {
        while self.records < want && !self.stuck {
            if let Some(left) = self.body_left {
                let n = left.min(bytes.len());
                bytes = &bytes[n..];
                if n < left {
                    self.body_left = Some(left - n);
                    return;
                }
                self.body_left = None;
                self.records += 1;
                continue;
            }
            let n = (TlsRecordHeader::LEN - self.header_len).min(bytes.len());
            self.header[self.header_len..self.header_len + n].copy_from_slice(&bytes[..n]);
            self.header_len += n;
            bytes = &bytes[n..];
            if self.header_len < TlsRecordHeader::LEN {
                return;
            }
            self.header_len = 0;
            match TlsRecordHeader::decode(&self.header) {
                Ok((hdr, _)) => self.body_left = Some(hdr.length as usize),
                Err(_) => self.stuck = true,
            }
        }
    }

    /// True when `bytes` by themselves hold `want` whole records.
    fn holds(bytes: &[u8], want: u16) -> bool {
        let mut scan = Self::default();
        scan.feed(bytes, want);
        scan.records >= want
    }
}

/// What every packet of one segment declares about it (all must agree).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SegmentGeometry {
    record_count: u16,
    first_record_index: u16,
    /// Key epoch the segment was sealed under.
    epoch: u16,
}

impl SegmentGeometry {
    fn of(opt: &SmtOptionArea) -> Self {
        Self {
            record_count: opt.record_count,
            first_record_index: opt.first_record_index,
            epoch: opt.epoch,
        }
    }
}

#[derive(Debug, Default)]
struct SegmentBuf {
    /// Packet payloads keyed by packet offset (IPID): views of the packets'
    /// own storage, not copies.
    chunks: BTreeMap<u16, Bytes>,
    geometry: SegmentGeometry,
    decoded: bool,
    /// Contiguity cursor: packets `0..run_packets` are buffered without a
    /// gap and hold `run_bytes` bytes.  Only ever moves forward.
    run_packets: u32,
    run_bytes: usize,
    /// Record-boundary cursor over the run (encrypted modes).
    scan: RecordScan,
}

impl SegmentBuf {
    /// The contiguous run, packet by packet.
    fn run(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks
            .values()
            .take(self.run_packets as usize)
            .map(|chunk| &chunk[..])
    }
}

/// A message's application bytes as they become known.  Nothing here is
/// sized from a wire-declared length: both buffers grow only by bytes
/// actually placed.
#[derive(Debug, Default)]
struct AppBuf {
    /// Bytes `0..data.len()` of the message, at their final position: this
    /// vector becomes [`ReceivedMessage::data`].
    data: Vec<u8>,
    /// Runs that start beyond `data` because an earlier segment is still
    /// missing, keyed by the application offset of their first byte.
    parked: BTreeMap<u32, Vec<u8>>,
    /// Bytes held in `data` and `parked` together.
    bytes: usize,
}

impl AppBuf {
    /// Appends `bytes` to the run that starts at application offset `start`
    /// and already holds `len` bytes: to `data` itself when the run extends
    /// it, else to the run's parked buffer.
    fn append(&mut self, start: u32, len: usize, bytes: &[u8]) {
        self.bytes += bytes.len();
        if start as usize + len != self.data.len() {
            self.parked
                .entry(start)
                .or_default()
                .extend_from_slice(bytes);
            return;
        }
        self.data.extend_from_slice(bytes);
        // The gap before a parked run may just have closed.
        while let Some(run) = u32::try_from(self.data.len())
            .ok()
            .and_then(|end| self.parked.remove(&end))
        {
            self.data.extend_from_slice(&run);
        }
    }
}

/// The application bytes of one opened record: what its framing header
/// delimits.
fn record_app_bytes(plaintext: &[u8]) -> SmtResult<&[u8]> {
    let (framing, flen) = FramingHeader::decode(plaintext)?;
    plaintext
        .get(flen..flen + framing.app_data_len as usize)
        .ok_or_else(|| SmtError::malformed("framing header exceeds record"))
}

#[derive(Debug, Default)]
struct MessageBuf {
    message_length: u32,
    src_port: u16,
    dst_port: u16,
    /// Decrypted (or plaintext) application bytes.
    app: AppBuf,
    /// Per-TSO-offset segment reassembly buffers.
    segments: HashMap<u32, SegmentBuf>,
    /// Bytes retained by this buffer (chunks + application bytes), kept as
    /// a running count so the eviction policy never rescans.
    buf_bytes: usize,
}

/// Why a segment's records did not become application bytes.
enum OpenError {
    /// The segment's key epoch is outside the receive window: undecryptable.
    OutsideWindow,
    /// The records did not open (authentication, truncation).  Without
    /// per-packet authentication there is no telling which of the segment's
    /// bytes were forged, so none of them can be kept.
    Records(smt_crypto::CryptoError),
    /// Anything else; it says nothing about the segment's bytes.
    Other(SmtError),
}

impl From<SmtError> for OpenError {
    fn from(e: SmtError) -> Self {
        OpenError::Other(e)
    }
}

/// Turns a segment's records into application bytes: the receive keys of
/// the current epoch and its neighbours, and the record layout they are
/// applied under.
#[derive(Debug)]
struct RecordOpener {
    layout: SeqnoLayout,
    /// `None` only in plaintext mode.
    cipher: Option<RecordProtector>,
    /// Traffic secret behind `cipher`; required to ratchet forward on a
    /// key-update (epoch bump).  `None` disables rekey support.
    recv_secret: Option<Secret>,
    suite: Option<CipherSuite>,
    /// Current receive key epoch.
    epoch: u16,
    /// Previous-epoch protector kept for one epoch as a drain window, so
    /// retransmissions of packets sealed before a rekey still authenticate.
    prev_cipher: Option<RecordProtector>,
}

impl RecordOpener {
    /// The key-epoch window: the current epoch, the next one (the sender
    /// rekeyed; we ratchet on first successful decrypt), and the previous
    /// one while its drain-window protector is still held.
    fn in_window(&self, epoch: u16) -> bool {
        epoch == self.epoch
            || (epoch == self.epoch.wrapping_add(1) && self.recv_secret.is_some())
            || (epoch == self.epoch.wrapping_sub(1) && self.prev_cipher.is_some())
    }

    /// Opens the records of message `message_id`'s segment at `tso_offset`
    /// out of `chunks` — the packet payloads that hold them, in order — and
    /// appends their application bytes to `app`.  Returns how many were
    /// placed; on any error `app` is untouched.
    ///
    /// The ciphertext is gathered out of the chunks straight into the
    /// protector's scratch and opened there in one batched call through the
    /// shared datapath.  Records of one segment carry consecutive record
    /// indices, so their composite sequence numbers are consecutive too;
    /// composing the first and last indices validates the full range.  Only
    /// the application bytes are then copied out of the scratch, once.
    ///
    /// Key selection is by the segment's declared epoch.  A next-epoch
    /// segment is opened under a *candidate* ratcheted protector; the roll
    /// is only committed once authentication succeeds, so a forged epoch
    /// stamp cannot push the receiver's key schedule forward.
    fn open_into<'c>(
        &mut self,
        message_id: u64,
        tso_offset: u32,
        geometry: SegmentGeometry,
        chunks: impl IntoIterator<Item = &'c [u8]>,
        app: &mut AppBuf,
    ) -> Result<usize, OpenError> {
        let cur = self.epoch;
        let mut candidate: Option<(RecordProtector, Secret)> = None;
        let cipher: &mut RecordProtector = if geometry.epoch == cur {
            self.cipher.as_mut().ok_or_else(|| {
                SmtError::Session("encrypted session without a receive cipher".into())
            })?
        } else if let (true, Some(suite), Some(secret)) = (
            geometry.epoch == cur.wrapping_add(1),
            self.suite,
            self.recv_secret.as_ref(),
        ) {
            let next = ratchet_secret(secret);
            let protector = RecordProtector::from_secret(suite, &next).map_err(SmtError::Crypto)?;
            &mut candidate.insert((protector, next)).0
        } else if let (true, Some(prev)) = (
            geometry.epoch == cur.wrapping_sub(1),
            self.prev_cipher.as_mut(),
        ) {
            prev
        } else {
            // The window moved between buffering and decode (e.g. the rekey
            // committed while this old segment was still partial and its
            // drain window has since closed), or rekey material was never
            // provided and the on_packet window should have filtered this.
            return Err(OpenError::OutsideWindow);
        };
        let first_index = geometry.first_record_index as u64;
        let first_seq = self
            .layout
            .compose(message_id, first_index)
            .map_err(SmtError::Crypto)?;
        let last_seq = self
            .layout
            .compose(
                message_id,
                first_index + geometry.record_count.max(1) as u64 - 1,
            )
            .map_err(SmtError::Crypto)?;
        debug_assert_eq!(
            last_seq.value() - first_seq.value(),
            geometry.record_count.max(1) as u64 - 1,
            "contiguous record indices must compose to consecutive seqnos"
        );
        let batch = cipher
            .open_batch_chunked(first_seq.value(), geometry.record_count as usize, chunks)
            .map_err(OpenError::Records)?;
        // Framing is checked on every record before any byte is placed, so a
        // malformed segment leaves the message untouched.
        for plain in batch.iter() {
            record_app_bytes(plain.plaintext)?;
        }
        let mut placed = 0usize;
        for plain in batch.iter() {
            let bytes = record_app_bytes(plain.plaintext)?;
            app.append(tso_offset, placed, bytes);
            placed += bytes.len();
        }
        if let Some((protector, next)) = candidate {
            // A next-epoch segment authenticated: commit the ratchet and keep
            // the outgoing keys for the drain window.
            self.prev_cipher = self.cipher.replace(protector);
            self.recv_secret = Some(next);
            self.epoch = self.epoch.wrapping_add(1);
        }
        Ok(placed)
    }
}

/// The receive-side engine for one direction of an SMT session.
#[derive(Debug)]
pub struct SmtReceiver {
    config: SmtConfig,
    opener: RecordOpener,
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
            opener: RecordOpener {
                layout,
                cipher,
                recv_secret: None,
                suite: None,
                epoch: 0,
                prev_cipher: None,
            },
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
        self.opener.suite = Some(suite);
        self.opener.recv_secret = Some(secret.clone());
        self
    }

    /// Current receive key epoch.
    pub fn recv_epoch(&self) -> u16 {
        self.opener.epoch
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

    /// The first packet an in-progress message is still missing, by the
    /// coordinates every DATA packet carries: its segment's TSO offset and its
    /// packet offset within that segment.  `None` for a message with nothing
    /// buffered.  Everything before the named packet has arrived; what lies
    /// beyond it is not described.  This is what a RESEND should ask for.
    pub fn first_missing(&self, message_id: u64) -> Option<(u32, u16)> {
        let msg = self.in_progress.get(&message_id)?;
        // Segments lie end to end in application-byte order and `app.data`
        // is the prefix placed so far, so the first incomplete segment is the
        // undecoded one that starts at or before its end (a plaintext run is
        // placed packet by packet, so the frontier may sit inside it).  None
        // buffered there: not one packet of the segment that starts at the
        // frontier has arrived.
        let frontier = u32::try_from(msg.app.data.len()).ok()?;
        let holding = msg
            .segments
            .iter()
            .filter(|(&tso_offset, seg)| tso_offset <= frontier && !seg.decoded)
            .max_by_key(|(&tso_offset, _)| tso_offset);
        Some(match holding {
            Some((&tso_offset, seg)) => (
                tso_offset,
                u16::try_from(seg.run_packets).unwrap_or(u16::MAX),
            ),
            None => (frontier, 0),
        })
    }

    /// Drops everything buffered of an in-progress message, because whoever
    /// drives this receiver has given up waiting for the rest.  The message
    /// is *not* marked replayed: packets that do arrive later start it
    /// afresh instead of being rejected as duplicates of bytes nobody is
    /// waiting on.
    pub fn forget(&mut self, message_id: u64) {
        if let Some(msg) = self.in_progress.remove(&message_id) {
            self.tracked_bytes = self.tracked_bytes.saturating_sub(msg.buf_bytes);
        }
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

        // Anything outside the key-epoch window is undecryptable — drop
        // without buffering so forged epochs cannot occupy reassembly state.
        let encrypted = self.config.crypto_mode.is_encrypted();
        if encrypted && !self.opener.in_window(opt.epoch) {
            self.stats.epoch_rejected += 1;
            return Ok(None);
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
            .ok_or_else(|| SmtError::malformed("DATA packet without data payload"))?;

        // A segment's first packet that by itself holds the segment's every
        // record is opened where it lies, with no view of it kept; and when
        // nothing of its message is buffered either, the message gets a
        // buffer of its own only if it goes on beyond this segment.
        let whole = encrypted && packet_offset == 0 && RecordScan::holds(payload, opt.record_count);
        let new_message = || MessageBuf {
            message_length: opt.message_length,
            src_port: packet.overlay.tcp.src_port,
            dst_port: packet.overlay.tcp.dst_port,
            ..MessageBuf::default()
        };
        let mut unbuffered = None;
        let msg = if whole && !self.in_progress.contains_key(&message_id) {
            unbuffered.insert(new_message())
        } else {
            self.in_progress
                .entry(message_id)
                .or_insert_with(new_message)
        };
        if msg.message_length != opt.message_length {
            return Err(SmtError::malformed(
                "inconsistent message length across packets",
            ));
        }

        // (An `unbuffered` message has no segments, so it always takes this
        // branch and never reaches the buffering below.)
        let geometry = SegmentGeometry::of(opt);
        if whole && !msg.segments.contains_key(&opt.tso_offset) {
            self.stats.packets_accepted += 1;
            let opened = self.opener.open_into(
                message_id,
                opt.tso_offset,
                geometry,
                std::iter::once(&payload[..]),
                &mut msg.app,
            );
            let complete = msg.app.bytes >= msg.message_length as usize;
            if let Ok(placed) = opened {
                msg.buf_bytes += placed;
                self.tracked_bytes += placed;
                if !complete {
                    // What later copies of this packet are duplicates of.
                    let decoded = SegmentBuf {
                        geometry,
                        decoded: true,
                        ..SegmentBuf::default()
                    };
                    msg.segments.insert(opt.tso_offset, decoded);
                }
            }
            if !self.settle(message_id, opt.tso_offset, opened)? {
                return Ok(None);
            }
            let delivered = match unbuffered {
                Some(msg) if complete => Some(self.finish(message_id, msg)?),
                Some(msg) => {
                    self.in_progress.insert(message_id, msg);
                    None
                }
                None => self.try_complete(message_id)?,
            };
            self.within_bounds();
            return Ok(delivered);
        }

        let seg = msg
            .segments
            .entry(opt.tso_offset)
            .or_insert_with(|| SegmentBuf {
                geometry,
                ..SegmentBuf::default()
            });
        if seg.geometry != geometry {
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
            if existing == payload {
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
        seg.chunks.insert(packet_offset, payload.clone());
        let mut held = payload.len();
        self.stats.packets_accepted += 1;

        // Walk the contiguity cursor over every packet now adjacent to the
        // run; each payload is looked at once, when it joins.  A packet that
        // lands beyond a gap stops at the first lookup.
        while let Some(chunk) = u16::try_from(seg.run_packets)
            .ok()
            .and_then(|next| seg.chunks.get(&next))
        {
            if encrypted {
                seg.scan.feed(chunk, geometry.record_count);
            } else {
                // Plaintext (Homa baseline): bytes land directly at the TSO
                // offset.  We only know a plaintext segment is complete when
                // the whole message byte count adds up, so place the newly
                // contiguous bytes as they come.
                msg.app.append(opt.tso_offset, seg.run_bytes, chunk);
                held += chunk.len();
            }
            seg.run_packets += 1;
            seg.run_bytes += chunk.len();
        }
        let records_whole = encrypted && seg.scan.records >= geometry.record_count;
        msg.buf_bytes += held;
        self.tracked_bytes += held;

        if records_whole {
            self.open_segment(message_id, opt.tso_offset)?;
        }
        let delivered = self.try_complete(message_id)?;
        self.within_bounds();
        Ok(delivered)
    }

    /// Ends every call that may have grown the buffers: evicts down to the
    /// state caps and notes the high-water mark.
    fn within_bounds(&mut self) {
        self.enforce_bounds();
        self.stats.peak_tracked_bytes =
            self.stats.peak_tracked_bytes.max(self.tracked_bytes as u64);
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
            self.forget(id);
            self.stats.state_evictions += 1;
        }
    }

    /// Removes a segment that can never be opened and un-accounts its bytes;
    /// a message left with nothing goes too.  Whatever the sender retransmits
    /// rebuilds it from scratch.
    fn discard_segment(&mut self, message_id: u64, tso_offset: u32) {
        let Some(msg) = self.in_progress.get_mut(&message_id) else {
            return;
        };
        if let Some(seg) = msg.segments.remove(&tso_offset) {
            let held: usize = seg.chunks.values().map(|c| c.len()).sum();
            msg.buf_bytes = msg.buf_bytes.saturating_sub(held);
            self.tracked_bytes = self.tracked_bytes.saturating_sub(held);
        }
        if msg.segments.is_empty() && msg.app.bytes == 0 {
            self.in_progress.remove(&message_id);
        }
    }

    /// Acts on what [`RecordOpener::open_into`] said about a segment, buffered
    /// or opened in place: `true` when its application bytes joined the
    /// message, `false` when it was dropped as undecryptable.  A segment
    /// that did not open is discarded whole — kept, any forged packet in it
    /// would reject the genuine copy as a conflicting duplicate forever — so
    /// the sender's RESEND path rebuilds it (DESIGN.md §8).
    fn settle(
        &mut self,
        message_id: u64,
        tso_offset: u32,
        opened: Result<usize, OpenError>,
    ) -> SmtResult<bool> {
        match opened {
            Ok(_) => Ok(true),
            Err(OpenError::OutsideWindow) => {
                self.discard_segment(message_id, tso_offset);
                self.stats.epoch_rejected += 1;
                Ok(false)
            }
            Err(OpenError::Records(e)) => {
                self.stats.auth_failures += 1;
                self.discard_segment(message_id, tso_offset);
                Err(SmtError::Crypto(e))
            }
            Err(OpenError::Other(e)) => Err(e),
        }
    }

    /// Opens a buffered segment whose every record is whole in its
    /// contiguous run, and lets go of the packets it was opened from.
    fn open_segment(&mut self, message_id: u64, tso_offset: u32) -> SmtResult<()> {
        let Some(msg) = self.in_progress.get_mut(&message_id) else {
            return Ok(());
        };
        let Some(seg) = msg.segments.get_mut(&tso_offset) else {
            return Ok(());
        };
        let opened = self.opener.open_into(
            message_id,
            tso_offset,
            seg.geometry,
            seg.run(),
            &mut msg.app,
        );
        if let Ok(placed) = opened {
            seg.decoded = true;
            let cleared: usize = seg.chunks.values().map(|c| c.len()).sum();
            seg.chunks.clear();
            let delta = placed as isize - cleared as isize;
            msg.buf_bytes = msg.buf_bytes.saturating_add_signed(delta);
            self.tracked_bytes = self.tracked_bytes.saturating_add_signed(delta);
        }
        self.settle(message_id, tso_offset, opened).map(drop)
    }

    fn try_complete(&mut self, message_id: u64) -> SmtResult<Option<ReceivedMessage>> {
        match self.in_progress.get(&message_id) {
            Some(msg) if msg.app.bytes >= msg.message_length as usize => {}
            _ => return Ok(None),
        }
        match self.in_progress.remove(&message_id) {
            Some(msg) => self.finish(message_id, msg).map(Some),
            None => Ok(None),
        }
    }

    /// Delivers a message whose every byte has been placed; `msg` is no
    /// longer (or never was) in `in_progress`.
    fn finish(&mut self, message_id: u64, msg: MessageBuf) -> SmtResult<ReceivedMessage> {
        self.tracked_bytes = self.tracked_bytes.saturating_sub(msg.buf_bytes);
        // Every placed byte must have joined `data`, and nothing beyond the
        // declared length.
        let data = msg.app.data;
        if let Some(off) = msg.app.parked.keys().next() {
            return Err(SmtError::malformed(format!(
                "gap in reassembled message at offset {} (next chunk at {off})",
                data.len()
            )));
        }
        if data.len() != msg.message_length as usize {
            return Err(SmtError::malformed("reassembled length mismatch"));
        }
        let guard_evictions_before = self.replay.evictions();
        self.replay.mark_completed(message_id);
        self.stats.state_evictions += self.replay.evictions() - guard_evictions_before;
        self.stats.messages_delivered += 1;
        Ok(ReceivedMessage {
            message_id,
            src_port: msg.src_port,
            dst_port: msg.dst_port,
            data,
        })
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
    fn roundtrip_without_tso() {
        let config = SmtConfig::software().without_tso();
        let data = vec![4u8; 20_000];
        let m = send_receive(config, &data, true);
        assert_eq!(m.data, data);
    }

    #[test]
    fn first_missing_names_the_first_packet_not_yet_received() {
        for config in [SmtConfig::software(), SmtConfig::plaintext()] {
            let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
            let tx = cipher();
            let encrypted = config.crypto_mode.is_encrypted();
            let data: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
            let msg = segmenter
                .segment_message(
                    PathInfo::loopback(1, 2),
                    9,
                    &data,
                    0,
                    encrypted.then_some(&tx),
                    None,
                    4 << 20,
                )
                .unwrap();
            assert!(msg.segments.len() > 2, "several segments");
            // In sender order: segment by segment, packet by packet.
            let packets: Vec<Packet> = msg
                .segments
                .iter()
                .flat_map(|s| s.packetize(DEFAULT_MTU).unwrap())
                .collect();
            let key = |p: &Packet| (p.overlay.options.tso_offset, p.packet_offset().unwrap());
            let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), encrypted.then(cipher));
            assert_eq!(rx.first_missing(9), None, "nothing buffered yet");

            // Arrivals in a scrambled order (a stride coprime to the count).
            let n = packets.len();
            let stride = (1..n)
                .rev()
                .find(|s| gcd(*s, n) == 1 && *s < n / 2)
                .unwrap();
            let mut arrived = vec![false; n];
            for step in 0..n {
                let i = (7 + step * stride) % n;
                arrived[i] = true;
                let delivered = rx.on_packet(&packets[i]).unwrap();
                let first_gap = arrived.iter().position(|a| !a);
                match first_gap {
                    // The sender goes back to the first retained packet at or
                    // past the named coordinates: exactly the first gap.
                    Some(gap) => {
                        let named = rx.first_missing(9).expect("in progress");
                        assert_eq!(
                            packets.partition_point(|p| key(p) < named),
                            gap,
                            "after {step} arrivals, named {named:?}"
                        );
                    }
                    None => assert_eq!(delivered.expect("complete").data, data),
                }
            }
            assert_eq!(rx.first_missing(9), None, "delivered");
        }
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
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

    /// A copy of `packet` with one payload byte flipped.
    fn forged_copy(packet: &Packet) -> Packet {
        let mut forged = packet.clone();
        let mut bytes = packet.payload.as_data().unwrap().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        forged.payload = smt_wire::PacketPayload::Data(bytes.into());
        forged
    }

    #[test]
    fn forged_packet_ahead_of_the_genuine_one_does_not_poison_the_message() {
        // An injected copy of packet 0 that wins the race is buffered; the
        // genuine packet 0 is then a "conflicting payload" and the completed
        // segment cannot authenticate.  The segment must go, forged packet
        // included, or every later retransmission is rejected the same way
        // and the message never delivers.
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let data = vec![6u8; 10_000];
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
        rx.on_packet(&forged_copy(&packets[0])).unwrap();
        assert!(matches!(
            rx.on_packet(&packets[0]),
            Err(SmtError::MalformedPacket(_))
        ));
        for p in &packets[1..packets.len() - 1] {
            assert!(rx.on_packet(p).unwrap().is_none());
        }
        assert!(matches!(
            rx.on_packet(packets.last().unwrap()),
            Err(SmtError::Crypto(
                smt_crypto::CryptoError::AuthenticationFailed
            ))
        ));
        assert_eq!(rx.stats.auth_failures, 1);
        // Nothing of the failed segment is kept or accounted.
        assert_eq!(rx.in_progress(), 0);
        assert_eq!(rx.tracked_bytes(), 0);

        // One retransmission round rebuilds and delivers it.
        let mut delivered = None;
        for p in &packets {
            let mut retx = p.clone();
            SmtSegmenter::mark_retransmission(&mut retx);
            delivered = delivered.or(rx.on_packet(&retx).unwrap());
        }
        assert_eq!(delivered.expect("delivered after resend").data, data);
        assert_eq!(rx.stats.auth_failures, 1);
    }

    /// The segments of message `message_id` under `config`, sealed by `tx`.
    fn segments_of(
        segmenter: &SmtSegmenter,
        tx: &RecordProtector,
        message_id: u64,
        data: &[u8],
    ) -> Vec<smt_wire::TsoSegment> {
        segmenter
            .segment_message(
                PathInfo::loopback(1, 2),
                message_id,
                data,
                0,
                Some(tx),
                None,
                1 << 20,
            )
            .unwrap()
            .segments
    }

    #[test]
    fn forged_one_packet_message_leaves_nothing_and_the_genuine_copy_delivers() {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let packets = segments_of(&segmenter, &cipher(), 3, b"sixty-four bytes or so")[0]
            .packetize(DEFAULT_MTU)
            .unwrap();
        assert_eq!(packets.len(), 1);
        let forged = forged_copy(&packets[0]);
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        assert!(matches!(
            rx.on_packet(&forged),
            Err(SmtError::Crypto(
                smt_crypto::CryptoError::AuthenticationFailed
            ))
        ));
        assert_eq!(rx.stats.auth_failures, 1);
        assert_eq!(rx.stats.packets_accepted, 1);
        assert_eq!((rx.in_progress(), rx.tracked_bytes()), (0, 0));
        assert_eq!(rx.first_missing(3), None);

        let delivered = rx.on_packet(&packets[0]).unwrap().expect("delivered");
        assert_eq!(delivered.data, b"sixty-four bytes or so");
        assert_eq!((delivered.src_port, delivered.dst_port), (1, 2));
        assert_eq!(rx.stats.packets_accepted, 2);
        assert_eq!(rx.stats.messages_delivered, 1);
        assert_eq!((rx.in_progress(), rx.tracked_bytes()), (0, 0));
        assert_eq!(rx.stats.peak_tracked_bytes, 0, "nothing was ever buffered");

        // Replays are counted and not decrypted: the forgery would fail to
        // authenticate if it were.
        assert!(rx.on_packet(&packets[0]).unwrap().is_none());
        assert!(rx.on_packet(&forged).unwrap().is_none());
        assert_eq!(rx.stats.packets_replayed, 2);
        assert_eq!(rx.stats.auth_failures, 1);
        assert_eq!(rx.stats.messages_delivered, 1);
    }

    #[test]
    fn one_packet_message_ratchets_the_receiver_and_the_old_epoch_drains() {
        let config = SmtConfig::software();
        let suite = CipherSuite::Aes128GcmSha256;
        let secret = Secret::from_slice(&[7u8; 32]).unwrap();
        let mut segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let old_tx = cipher();
        let old_data = vec![0x11u8; 4000];
        let old = segments_of(&segmenter, &old_tx, 0, &old_data)[0]
            .packetize(DEFAULT_MTU)
            .unwrap();
        let old_small = segments_of(&segmenter, &old_tx, 1, b"sealed before the rekey")[0]
            .packetize(DEFAULT_MTU)
            .unwrap();
        segmenter.set_send_epoch(1);
        let new_tx = RecordProtector::from_secret(suite, &ratchet_secret(&secret)).unwrap();
        let new = segments_of(&segmenter, &new_tx, 2, b"first after the rekey")[0]
            .packetize(DEFAULT_MTU)
            .unwrap();
        assert_eq!((old.len(), old_small.len(), new.len()), (3, 1, 1));

        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()))
            .with_rekey(suite, &secret);
        assert!(rx.on_packet(&old[0]).unwrap().is_none());
        assert!(rx.on_packet(&old[1]).unwrap().is_none());
        // A forged next-epoch packet moves nothing.
        assert!(rx.on_packet(&forged_copy(&new[0])).is_err());
        assert_eq!(rx.recv_epoch(), 0);
        // The genuine one is opened under the candidate keys and commits them.
        let first = rx.on_packet(&new[0]).unwrap().expect("delivered");
        assert_eq!(first.data, b"first after the rekey");
        assert_eq!(rx.recv_epoch(), 1);
        // Previous-epoch traffic still opens in the drain window: a late
        // one-packet message where it lies, a buffered one on its last packet.
        let late = rx.on_packet(&old_small[0]).unwrap().expect("delivered");
        assert_eq!(late.data, b"sealed before the rekey");
        let mut retx = old[2].clone();
        SmtSegmenter::mark_retransmission(&mut retx);
        assert_eq!(
            rx.on_packet(&retx).unwrap().expect("delivered").data,
            old_data
        );
        assert_eq!(rx.recv_epoch(), 1);
        assert_eq!(rx.stats.auth_failures, 1);
        assert_eq!(rx.stats.epoch_rejected, 0);
        assert_eq!((rx.in_progress(), rx.tracked_bytes()), (0, 0));
    }

    #[test]
    fn without_tso_every_packet_is_opened_where_it_lies() {
        let config = SmtConfig::software().without_tso();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let data: Vec<u8> = (0..27_000u32).map(|i| (i % 249) as u8).collect();
        let packets: Vec<Packet> = segments_of(&segmenter, &cipher(), 4, &data)
            .iter()
            .flat_map(|s| s.packetize(DEFAULT_MTU).unwrap())
            .collect();
        assert_eq!(packets.len(), 20, "one packet per segment");
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));

        // The first segment whole, the message not: its bytes are placed,
        // the packet is not kept, and the next segment is what is missing.
        assert!(rx.on_packet(&packets[0]).unwrap().is_none());
        let first_len = packets[1].overlay.options.tso_offset;
        assert_eq!(rx.in_progress(), 1);
        assert_eq!(rx.tracked_bytes(), first_len as usize);
        assert_eq!(rx.first_missing(4), Some((first_len, 0)));

        // The rest in a scrambled order, each packet twice.
        let mut delivered = None;
        for step in 0..19 {
            let p = &packets[1 + (step * 7) % 19];
            let first = rx.on_packet(p).unwrap();
            let again = rx.on_packet(p).unwrap();
            assert!(again.is_none());
            delivered = delivered.or(first);
        }
        assert_eq!(delivered.expect("delivered").data, data);
        assert_eq!(rx.stats.packets_accepted, 20);
        // 18 duplicates of packets of the message in progress, one replay of
        // the packet that completed it.
        assert_eq!(rx.stats.packets_duplicate, 18);
        assert_eq!(rx.stats.packets_replayed, 1);
        assert_eq!((rx.in_progress(), rx.tracked_bytes()), (0, 0));
        assert!(rx.stats.peak_tracked_bytes <= data.len() as u64);
    }

    #[test]
    fn failed_segment_leaves_the_rest_of_the_message_in_place() {
        // Only the segment that failed is discarded: an already decoded
        // neighbour keeps its application bytes and stays accounted.
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher();
        let data: Vec<u8> = (0..150_000u32).map(|i| (i % 253) as u8).collect();
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
        assert!(msg.segments.len() >= 2);
        let first = msg.segments[0].packetize(DEFAULT_MTU).unwrap();
        let second = msg.segments[1].packetize(DEFAULT_MTU).unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher()));
        for p in &first {
            assert!(rx.on_packet(p).unwrap().is_none());
        }
        let held = rx.tracked_bytes();
        assert!(held > 0);
        rx.on_packet(&forged_copy(&second[0])).unwrap();
        for p in &second[1..second.len() - 1] {
            rx.on_packet(p).unwrap();
        }
        assert!(rx.on_packet(second.last().unwrap()).is_err());
        assert_eq!(rx.in_progress(), 1);
        assert_eq!(rx.tracked_bytes(), held);

        let mut delivered = None;
        for seg in &msg.segments[1..] {
            for p in seg.packetize(DEFAULT_MTU).unwrap() {
                delivered = delivered.or(rx.on_packet(&p).unwrap());
            }
        }
        assert_eq!(delivered.expect("delivered").data, data);
        assert_eq!(rx.tracked_bytes(), 0);
    }

    #[test]
    fn forged_geometry_cannot_size_an_allocation() {
        // A first packet declaring a 4 GiB message, placed just under its
        // end: whatever the receiver keeps for it is bounded by the bytes
        // that actually arrived, never by the declared lengths.
        for config in [SmtConfig::software(), SmtConfig::plaintext()] {
            let encrypted = config.crypto_mode.is_encrypted();
            let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
            let tx = cipher();
            let msg = segmenter
                .segment_message(
                    PathInfo::loopback(1, 2),
                    0,
                    &[0xee; 1000],
                    0,
                    encrypted.then_some(&tx),
                    None,
                    1 << 20,
                )
                .unwrap();
            let mut forged = msg.segments[0].packetize(DEFAULT_MTU).unwrap().remove(0);
            forged.overlay.options.message_length = u32::MAX;
            forged.overlay.options.tso_offset = u32::MAX - 4096;
            let payload = forged.payload.as_data().unwrap().len();
            let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), encrypted.then(cipher));
            assert!(rx.on_packet(&forged).unwrap().is_none());
            assert_eq!(rx.in_progress(), 1);
            // Encrypted: the opened application bytes replace the packet.
            // Plaintext: the packet view and the placed copy both count.
            let bound = if encrypted { payload } else { 2 * payload };
            assert!(
                rx.tracked_bytes() <= bound,
                "{} > {bound}",
                rx.tracked_bytes()
            );
            assert_eq!(rx.stats.peak_tracked_bytes, rx.tracked_bytes() as u64);
        }
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
