//! The stream reliability engine: TCP, user-space TLS, kTLS-sw, kTLS-hw and
//! TCPLS.
//!
//! These stacks share one shape (paper §2.1): a reliable in-order bytestream
//! with the TLS record layer — or nothing, for plain TCP — layered on top, and
//! the application's own message framing above that.  This engine implements
//! that shape under the connection [`Shell`]:
//!
//! * **Framing.**  Each send writes a 12-byte frame header (message ID +
//!   length) plus the payload onto the stream — the delimiting work TCP
//!   applications must do themselves, which SMT gets for free from message
//!   boundaries.
//! * **Record layer.**  Encrypted stacks run the framed bytes through the
//!   shared kTLS machinery ([`KtlsSender`]/[`KtlsReceiver`] from `smt-core`),
//!   so the crypto datapath is byte-identical to the kernel TLS baseline.
//!   kTLS-hw registers its offload key exactly like the kernel interface;
//!   receive-side crypto is always software (§5: nobody offloads receive).
//! * **Reliable delivery.**  The wire bytes are carried in TSO segments
//!   through the simulated NIC, with the stream offset in the overlay option
//!   area.  The receiver reassembles out-of-order segments, drops duplicates
//!   (counting them as replays) and acknowledges with a SACK frame —
//!   cumulative offset, reorder-buffer ranges, DCTCP ECN echo.  The sender
//!   recovers by **selective retransmit** inside a DCTCP window: the third
//!   duplicate SACK or the shell's retransmission timer rewinds to the
//!   cumulative offset and resends only the holes the scoreboard shows.
//!   Plain go-back-N from the cumulative offset is the fallback after two
//!   timer fires without progress, when the scoreboard is distrusted.
//!   Either way the defining limitation stays: bytes — and therefore
//!   records — can only be *consumed* in order.
//!
//! The 64-bit stream offset is carried in the overlay option area: the low
//! 32 bits in `tso_offset` and the high 32 bits in the reserved word, so the
//! stream never wraps.
//!
//! In-band connection setup (the TLS-style pre-data exchange, 0-RTT early
//! data, the queue of sends waiting for keys) is the shell's; the engine
//! sees `install_keys` once and then `send`s that already carry their IDs.

use super::shell::Shell;
use super::{EndpointError, EndpointResult, EndpointStats, Event, MessageId};
use crate::cc::{CcConfig, DctcpWindow};
use crate::stack::StackKind;
use bytes::{Buf, Bytes, BytesMut};
use smt_core::config::CryptoMode;
use smt_core::ktls::{KtlsReceiver, KtlsSender, KtlsSession};
use smt_core::segment::PathInfo;
use smt_crypto::handshake::SessionKeys;
use smt_sim::nic::NicModel;
use smt_sim::Nanos;
use smt_wire::{
    max_payload_per_packet, OverlayTcpHeader, Packet, PacketPayload, PacketType, SackRange,
    SmtOptionArea, SmtOverlayHeader, SmtSack, TsoSegment, IPPROTO_TCP, MAX_TSO_SEGMENT,
};
use std::collections::{BTreeMap, VecDeque};

/// Bytes of frame header preceding every message on the stream: message ID
/// (8 bytes BE) + payload length (4 bytes BE).
const FRAME_HEADER: usize = 12;

/// Cap on bytes parked in the out-of-order reorder buffer.  Everything in it
/// is attacker-influenceable wire data; beyond the cap the furthest-ahead
/// segment is evicted (the sender's loss recovery resends it) — DESIGN.md §8.
const MAX_OOO_BYTES: usize = 4 << 20;

/// Largest length a stream frame header may declare, and so the largest
/// message `send` accepts.  A larger value arriving means the stream framing
/// is corrupted (on plain TCP, undetectably injected): without the cap the
/// frame buffer would grow forever waiting for a 4 GiB frame that never
/// completes.
const MAX_FRAME_LEN: usize = 16 << 20;

/// The TCP-like reliable bytestream under the connection shell.
pub(crate) struct StreamEngine {
    mtu: usize,
    tso: bool,
    nic: NicModel,
    /// Record layer, `None` for plain TCP (or before the in-band handshake
    /// installs the negotiated keys).
    tls_tx: Option<KtlsSender>,
    tls_rx: Option<KtlsReceiver>,
    /// Record crypto mode of this stack (`None` for plain TCP).
    crypto_mode: Option<CryptoMode>,

    // Transmit side.
    /// Unacknowledged wire bytes; `wire[0]` is stream offset `wire_base`.
    wire: BytesMut,
    /// Stream offset of the first retained (= first unacked) wire byte.
    wire_base: u64,
    /// Next stream offset to put on the wire (rewound by retransmission).
    next_send: u64,
    /// Highest cumulative offset the peer acknowledged.
    acked: u64,
    /// Outstanding messages: (id, wire offset at which the message ends).
    inflight: VecDeque<(u64, u64)>,
    /// Highest stream offset ever handed to the NIC; emitting below this
    /// marks packets as retransmissions.
    sent_high: u64,

    // Receive side.
    /// Next in-order stream offset expected.
    recv_next: u64,
    /// Out-of-order wire segments keyed by stream offset.
    ooo: BTreeMap<u64, Bytes>,
    /// Bytes held in `ooo` (bounded by [`MAX_OOO_BYTES`]).
    ooo_bytes: usize,
    /// Decrypted, in-order plaintext awaiting frame delimiting.
    frame_buf: BytesMut,
    /// A SACK should be emitted on the next poll.
    ack_pending: bool,

    // Congestion control (DESIGN.md §10).
    /// DCTCP window machine.
    cwnd: DctcpWindow,
    /// Peer-SACKed byte ranges above `acked` (start → end, disjoint): data
    /// the receiver already holds, which selective retransmit skips.
    sacked: BTreeMap<u64, u64>,
    /// `(chunk end offset, send time)` of never-retransmitted chunks, for
    /// Karn-safe RTT sampling; cleared whenever anything is retransmitted.
    timed: VecDeque<(u64, Nanos)>,
    /// CE-marked / total data packets received since the last SACK went out
    /// (the receiver's DCTCP ECN echo).
    ecn_ce_pending: u64,
    ecn_total_pending: u64,
    /// RTO fires without cumulative progress; at two in a row the sender
    /// distrusts its SACK scoreboard (possibly forged) and goes back-N.
    consecutive_timeouts: u32,
    /// Duplicate SACKs (no cumulative progress, ranges present) since the
    /// last advance; the third triggers fast retransmit of the holes.
    dup_sacks: u32,
}

/// Record crypto mode of one of the stream-based stacks.
///
/// User-space TLS, kTLS-sw and TCPLS all run software record crypto over the
/// same datapath; their differences (syscall boundary, record size,
/// multiplexing) live in the cost profiles.
fn stack_crypto_mode(stack: StackKind) -> Option<CryptoMode> {
    match stack {
        StackKind::Tcp => None,
        StackKind::KtlsHw => Some(CryptoMode::HardwareOffload),
        _ => Some(CryptoMode::Software),
    }
}

impl StreamEngine {
    /// Disjoint SACKed ranges tracked at most; beyond this new ranges are
    /// dropped (the RTO still recovers them), so forged SACKs cannot grow
    /// sender state without bound.
    const MAX_SACK_SCOREBOARD: usize = 64;

    pub(crate) fn new(stack: StackKind, mtu: usize, tso: bool, cc: CcConfig) -> Self {
        debug_assert!(!stack.is_message_based());
        Self {
            mtu,
            tso,
            nic: NicModel::new(mtu, tso),
            tls_tx: None,
            tls_rx: None,
            crypto_mode: stack_crypto_mode(stack),
            wire: BytesMut::new(),
            wire_base: 0,
            next_send: 0,
            acked: 0,
            inflight: VecDeque::new(),
            sent_high: 0,
            recv_next: 0,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            frame_buf: BytesMut::new(),
            ack_pending: false,
            cwnd: DctcpWindow::new(cc),
            sacked: BTreeMap::new(),
            timed: VecDeque::new(),
            ecn_ce_pending: 0,
            ecn_total_pending: 0,
            consecutive_timeouts: 0,
            dup_sacks: 0,
        }
    }

    /// Builds the record layer from handshake keys (kTLS-hw registers its
    /// offload key with the NIC here, mirroring `setsockopt(SOL_TLS)`).
    pub(crate) fn install_keys(&mut self, keys: &SessionKeys) -> Result<(), smt_core::SmtError> {
        let mode = self
            .crypto_mode
            .expect("only encrypted stacks install keys");
        let session = KtlsSession::new(keys, mode)?;
        self.tls_tx = Some(session.sender);
        self.tls_rx = Some(session.receiver);
        Ok(())
    }

    /// NIC model statistics (TSO expansion of the stream).
    pub(crate) fn nic_stats(&self) -> smt_sim::nic::NicStats {
        self.nic.stats
    }

    /// Stream offset one past the last produced wire byte.
    fn produced(&self) -> u64 {
        self.wire_base + self.wire.len() as u64
    }

    /// True while produced stream bytes are unacknowledged.
    pub(crate) fn work_outstanding(&self) -> bool {
        self.produced() > self.acked
    }

    /// A fatal record-layer or framing failure: the in-order stream can
    /// never resynchronise, so the connection dies with it.
    fn fatal(shell: &mut Shell, msg: String) -> EndpointError {
        // The datagram whose bytes failed is discarded.
        shell.stats.datagrams_dropped += 1;
        shell.fail(msg.clone());
        EndpointError::Stream(msg)
    }

    /// Records the current high-water mark of attacker-growable buffers.
    fn note_tracked_bytes(&self, stats: &mut EndpointStats) {
        let tracked = (self.ooo_bytes + self.frame_buf.len()) as u64;
        stats.peak_tracked_bytes = stats.peak_tracked_bytes.max(tracked);
    }

    /// The receiver's acknowledgement for the next poll: a SACK frame
    /// carrying the cumulative offset, up to [`SmtSack::MAX_RANGES`]
    /// reorder-buffer ranges (the sender's selective retransmit scoreboard)
    /// and the DCTCP ECN echo.
    fn recv_report(&mut self, path: &PathInfo) -> Packet {
        // Coalesce the reorder buffer into disjoint, ascending ranges.  Keys
        // are strictly above `recv_next` (the in-order prefix was drained),
        // which is exactly what the SACK codec's validator demands.
        let mut ranges: Vec<SackRange> = Vec::new();
        for (&off, chunk) in &self.ooo {
            let end = off + chunk.len() as u64;
            match ranges.last_mut() {
                Some(last) if off <= last.end => last.end = last.end.max(end),
                _ => {
                    if ranges.len() == SmtSack::MAX_RANGES {
                        break;
                    }
                    ranges.push(SackRange { start: off, end });
                }
            }
        }
        let ecn_total = self.ecn_total_pending.min(u64::from(u16::MAX)) as u16;
        let ecn_ce = self.ecn_ce_pending.min(u64::from(ecn_total)) as u16;
        self.ecn_ce_pending = 0;
        self.ecn_total_pending = 0;
        let sack = SmtSack {
            ack_offset: self.recv_next,
            ecn_ce,
            ecn_total,
            ranges,
        };
        let overlay = SmtOverlayHeader {
            tcp: OverlayTcpHeader::new(path.src_port, path.dst_port, PacketType::Sack),
            options: SmtOptionArea::new(0, 0),
        };
        Packet {
            ip: smt_wire::IpHeader::V4(smt_wire::Ipv4Header::new(
                path.src,
                path.dst,
                IPPROTO_TCP,
                (smt_wire::IPV4_HEADER_LEN + smt_wire::SMT_OVERLAY_LEN + sack.wire_len()) as u16,
            )),
            overlay,
            payload: PacketPayload::Sack(sack),
            corrupted: false,
        }
    }

    /// Consumes newly in-order wire bytes: record-layer decryption (when
    /// encrypted), then frame delimiting into delivered messages.
    fn deliver_in_order(&mut self, shell: &mut Shell, bytes: &[u8]) -> EndpointResult<()> {
        let plaintext = match &mut self.tls_rx {
            Some(rx) => match rx.on_bytes(bytes) {
                Ok(p) => p,
                Err(e) => {
                    if matches!(
                        e,
                        smt_core::SmtError::Crypto(smt_crypto::CryptoError::AuthenticationFailed)
                    ) {
                        shell.stats.auth_failures += 1;
                    }
                    return Err(Self::fatal(
                        shell,
                        format!("record layer failed on in-order stream: {e}"),
                    ));
                }
            },
            None => bytes.to_vec(),
        };
        self.frame_buf.extend_from_slice(&plaintext);
        self.note_tracked_bytes(&mut shell.stats);
        while self.frame_buf.len() >= FRAME_HEADER {
            let header: &[u8] = &self.frame_buf;
            let Some(id_bytes) = header.get(..8).and_then(|s| <[u8; 8]>::try_from(s).ok()) else {
                break;
            };
            let Some(len_bytes) = header.get(8..12).and_then(|s| <[u8; 4]>::try_from(s).ok())
            else {
                break;
            };
            let id = u64::from_be_bytes(id_bytes);
            let len = u32::from_be_bytes(len_bytes) as usize;
            if len > MAX_FRAME_LEN {
                // A corrupted (or, on plain TCP, injected) frame header: the
                // stream can never resynchronise, and waiting for the declared
                // bytes would grow the frame buffer without bound.
                shell.stats.malformed_rejected += 1;
                return Err(Self::fatal(
                    shell,
                    format!(
                        "stream framing corrupted: declared frame of {len} bytes exceeds \
                         {MAX_FRAME_LEN}"
                    ),
                ));
            }
            if self.frame_buf.len() < FRAME_HEADER + len {
                break;
            }
            let data = self.frame_buf[FRAME_HEADER..FRAME_HEADER + len].to_vec();
            self.frame_buf.advance(FRAME_HEADER + len);
            shell.stats.messages_delivered += 1;
            shell.stats.bytes_delivered += data.len() as u64;
            shell.events.push_back(Event::MessageDelivered {
                id: MessageId(id),
                data,
            });
        }
        Ok(())
    }

    fn handle_data(&mut self, shell: &mut Shell, datagram: &Packet) -> EndpointResult<()> {
        let Some(bytes) = datagram.payload.as_data() else {
            return Ok(());
        };
        if bytes.is_empty() {
            return Ok(());
        }
        shell.stats.wire_bytes_received += bytes.len() as u64;
        // DCTCP ECN echo: count every data packet and the CE-marked subset
        // since the last SACK went out.
        self.ecn_total_pending += 1;
        if datagram.ip.is_ce_marked() {
            self.ecn_ce_pending += 1;
        }
        // Stream offset of this packet: the segment's 64-bit base offset
        // (low word in tso_offset, high word in the reserved field) plus the
        // packet's position within the TSO expansion, at the sender's stride
        // (carried in the resend-packet-offset word; fall back to our own MTU
        // for a peer that did not stamp it).
        let stride = match datagram.overlay.options.resend_packet_offset {
            0 => max_payload_per_packet(self.mtu) as u64,
            s => u64::from(s),
        };
        let base = (u64::from(datagram.overlay.options.reserved) << 32)
            | u64::from(datagram.overlay.options.tso_offset);
        let offset = base + u64::from(datagram.packet_offset().unwrap_or(0)) * stride;
        let end = offset + bytes.len() as u64;

        if end <= self.recv_next {
            // Entirely old data: a network duplicate or a spurious
            // retransmission. Re-ACK so the sender advances.
            shell.stats.replays_rejected += 1;
            self.ack_pending = true;
            return Ok(());
        }
        match self.ooo.get(&offset) {
            Some(existing) if existing.len() >= bytes.len() => {
                // Byte-identical duplicate still waiting in the reorder buffer.
                shell.stats.replays_rejected += 1;
                self.ack_pending = true;
                return Ok(());
            }
            _ => {
                if let Some(replaced) = self.ooo.insert(offset, bytes.clone()) {
                    self.ooo_bytes = self.ooo_bytes.saturating_sub(replaced.len());
                }
                self.ooo_bytes += bytes.len();
            }
        }
        // Bounded reorder buffer: evict the furthest-ahead segment (the
        // sender's loss recovery covers it again) until back under the cap.
        while self.ooo_bytes > MAX_OOO_BYTES {
            let Some((&far, _)) = self.ooo.iter().next_back() else {
                self.ooo_bytes = 0;
                break;
            };
            if let Some(evicted) = self.ooo.remove(&far) {
                self.ooo_bytes = self.ooo_bytes.saturating_sub(evicted.len());
            }
            shell.stats.state_evictions += 1;
        }
        self.note_tracked_bytes(&mut shell.stats);

        // Advance the in-order prefix through the reorder buffer.
        let mut in_order = Vec::new();
        while let Some((&off, _)) = self.ooo.iter().next() {
            if off > self.recv_next {
                break;
            }
            let Some(chunk) = self.ooo.remove(&off) else {
                break;
            };
            self.ooo_bytes = self.ooo_bytes.saturating_sub(chunk.len());
            let chunk_end = off + chunk.len() as u64;
            if chunk_end <= self.recv_next {
                continue; // Buffered bytes that a larger chunk already covered.
            }
            let skip = (self.recv_next - off) as usize;
            in_order.extend_from_slice(&chunk[skip..]);
            self.recv_next = chunk_end;
        }
        self.ack_pending = true;
        if in_order.is_empty() {
            return Ok(());
        }
        self.deliver_in_order(shell, &in_order)
    }

    /// Frames `data` as message `id` and appends it to the reliable stream
    /// (through the record layer when encrypted).
    pub(crate) fn send(&mut self, shell: &mut Shell, id: u64, data: &[u8]) -> EndpointResult<()> {
        if data.len() > MAX_FRAME_LEN {
            // The peer would take the frame for corrupted framing and die.
            return Err(smt_core::SmtError::MessageTooLarge {
                size: data.len(),
                limit: MAX_FRAME_LEN,
            }
            .into());
        }
        shell.stats.messages_sent += 1;
        shell.stats.bytes_sent += data.len() as u64;
        let mut framed = Vec::with_capacity(FRAME_HEADER + data.len());
        framed.extend_from_slice(&id.to_be_bytes());
        framed.extend_from_slice(&(data.len() as u32).to_be_bytes());
        framed.extend_from_slice(data);
        let appended = match &mut self.tls_tx {
            Some(tx) => tx.send_into(&framed, &mut self.wire)?,
            None => {
                self.wire.extend_from_slice(&framed);
                framed.len()
            }
        };
        self.inflight.push_back((id, self.produced()));
        shell.stats.wire_bytes_sent += appended as u64;
        Ok(())
    }

    /// Ratchets the send keys one epoch forward by appending an in-band TLS
    /// KeyUpdate record to the reliable stream (RFC 8446 §4.6.3): the
    /// KeyUpdate is sealed under the *current* keys, and every later record
    /// seals under the ratcheted secret with its sequence number reset.
    /// Fails on plain TCP.
    pub(crate) fn rekey(&mut self, shell: &mut Shell, now: Nanos) -> EndpointResult<u16> {
        let Some(tx) = &mut self.tls_tx else {
            return Err(EndpointError::Config(
                "plain TCP has no record keys to rekey".into(),
            ));
        };
        let ku = tx.key_update()?;
        let epoch = tx.epoch();
        shell.stats.wire_bytes_sent += ku.len() as u64;
        self.wire.extend_from_slice(&ku);
        // The KeyUpdate record itself needs reliable delivery: arm the
        // retransmission timer if it was idle.
        shell.rto.arm_if_idle(now);
        Ok(epoch)
    }

    fn handle_ack(&mut self, shell: &mut Shell, offset: u64, now: Nanos) {
        let offset = offset.min(self.produced());
        if offset <= self.acked {
            return;
        }
        self.acked = offset;
        self.consecutive_timeouts = 0;
        self.dup_sacks = 0;
        // Progress restarts the retransmission timer; full acknowledgement
        // disarms it.
        shell.rto.progress();
        if offset < self.produced() {
            shell.rto.arm(now);
        } else {
            shell.rto.disarm();
        }
        if self.next_send < offset {
            self.next_send = offset;
        }
        // Release the acknowledged prefix of the retransmit buffer.
        let drop = (offset - self.wire_base) as usize;
        self.wire.advance(drop);
        self.wire_base = offset;
        // SACKed ranges at or below the cumulative offset are history.
        while let Some((&start, &end)) = self.sacked.iter().next() {
            if start >= offset {
                break;
            }
            self.sacked.remove(&start);
            if end > offset {
                self.sacked.insert(offset, end);
            }
        }
        // Karn-safe RTT samples: `timed` only holds never-retransmitted
        // chunks (it is cleared on every retransmission), so any entry the
        // cumulative offset covers is a clean round trip.
        while let Some(&(end, sent_at)) = self.timed.front() {
            if end > offset {
                break;
            }
            self.timed.pop_front();
            shell.rto.sample(now.saturating_sub(sent_at));
        }
        while let Some(&(id, end)) = self.inflight.front() {
            if end > offset {
                break;
            }
            self.inflight.pop_front();
            shell.acked(id, now);
        }
    }

    /// Records one peer-SACKed range, merging overlaps and keeping the
    /// scoreboard bounded (a hostile peer cannot grow it past
    /// [`Self::MAX_SACK_SCOREBOARD`] disjoint ranges).
    fn insert_sacked(&mut self, mut start: u64, mut end: u64) {
        let mut merged: Vec<u64> = Vec::new();
        for (&s, &e) in self.sacked.range(..=end) {
            if e >= start {
                start = start.min(s);
                end = end.max(e);
                merged.push(s);
            }
        }
        let absorbed = !merged.is_empty();
        for s in merged {
            self.sacked.remove(&s);
        }
        if absorbed || self.sacked.len() < Self::MAX_SACK_SCOREBOARD {
            self.sacked.insert(start, end);
        }
    }

    /// Processes one SACK frame: cumulative progress, the DCTCP ECN echo,
    /// scoreboard updates, and duplicate-SACK fast retransmit.
    fn handle_sack(&mut self, shell: &mut Shell, sack: &SmtSack, now: Nanos) {
        let produced = self.produced();
        let prev_acked = self.acked;
        let newly = sack.ack_offset.min(produced).saturating_sub(prev_acked);
        let total = u64::from(sack.ecn_total).max(u64::from(sack.ecn_ce));
        self.cwnd.on_ack(newly, u64::from(sack.ecn_ce), total, now);
        self.handle_ack(shell, sack.ack_offset, now);
        for r in &sack.ranges {
            // Clamp to reality: a forged range cannot mark bytes that were
            // never produced, or rewrite already-acknowledged history.
            let start = r.start.max(self.acked);
            let end = r.end.min(produced);
            if end > start {
                self.insert_sacked(start, end);
            }
        }
        // Duplicate SACKs with ranges mean later data keeps landing while a
        // hole stays open: on the third, infer loss and retransmit the holes
        // now instead of waiting out the RTO (fast retransmit).
        if self.acked == prev_acked && !sack.ranges.is_empty() && self.acked < produced {
            self.dup_sacks += 1;
            if self.dup_sacks == 3 {
                self.cwnd.on_loss(now);
                self.timed.clear();
                self.next_send = self.acked;
                shell.rto.arm(now);
            }
        }
    }

    pub(crate) fn handle_datagram(
        &mut self,
        shell: &mut Shell,
        datagram: &Packet,
        now: Nanos,
    ) -> EndpointResult<()> {
        match datagram.overlay.tcp.packet_type {
            PacketType::Data => self.handle_data(shell, datagram),
            PacketType::Sack => {
                if let PacketPayload::Sack(sack) = &datagram.payload {
                    self.handle_sack(shell, sack, now);
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    pub(crate) fn poll_transmit(&mut self, shell: &mut Shell, now: Nanos, out: &mut Vec<Packet>) {
        let path = shell.path;
        if self.ack_pending {
            self.ack_pending = false;
            let report = self.recv_report(&path);
            out.push(report);
        }
        // Hand the unsent stream suffix to the NIC in TSO segments (one MTU
        // payload per segment when TSO is off, like the real no-TSO path).
        let seg_max = if self.tso {
            MAX_TSO_SEGMENT
        } else {
            max_payload_per_packet(self.mtu)
        };
        let window = self.cwnd.window();
        while self.next_send < self.produced() {
            // Selective retransmit: hop over ranges the peer already SACKed
            // instead of resending them.
            loop {
                match self.sacked.range(..=self.next_send).next_back() {
                    Some((_, &end)) if end > self.next_send => self.next_send = end,
                    _ => break,
                }
            }
            if self.next_send >= self.produced() {
                break;
            }
            // DCTCP window: pause once a window's worth is in flight; the
            // next SACK reopens it.
            if self.next_send.saturating_sub(self.acked) >= window {
                break;
            }
            let start = (self.next_send - self.wire_base) as usize;
            let mut take = seg_max.min(self.wire.len() - start);
            // A chunk must stop at the next SACKed range, not overlap it.
            if let Some((&s, _)) = self.sacked.range(self.next_send + 1..).next() {
                take = take.min((s - self.next_send) as usize);
            }
            let chunk = Bytes::copy_from_slice(&self.wire[start..start + take]);
            let mut overlay = SmtOverlayHeader {
                tcp: OverlayTcpHeader::new(path.src_port, path.dst_port, PacketType::Data),
                options: SmtOptionArea::new(0, take as u32),
            };
            overlay.options.tso_offset = self.next_send as u32;
            overlay.options.reserved = (self.next_send >> 32) as u32;
            // The receiver reconstructs each packet's stream offset as
            // base + IPID * stride, where the stride is the *sender's* NIC
            // per-packet payload. Carry it in the (otherwise unused on a
            // stream flow) resend-packet-offset word so mixed-MTU endpoints
            // cannot desync.
            overlay.options.resend_packet_offset =
                max_payload_per_packet(self.mtu).min(u16::MAX as usize) as u16;
            let segment = TsoSegment::new(path.src, path.dst, IPPROTO_TCP, overlay, chunk);
            let (mut packets, _nic_ns) = self.nic.transmit(0, &segment);
            // Egress data is ECN-capable: fabric queues past their marking
            // threshold CE-mark it instead of dropping.
            for p in &mut packets {
                p.ip.set_ecn_capable();
                p.overlay.options.flags |= SmtOptionArea::FLAG_ECN_CAPABLE;
            }
            if self.next_send < self.sent_high {
                // The chunk's prefix below the high-water mark has been on
                // the wire before (selective or go-back-N recovery); packets
                // past it carry fresh bytes and are not retransmissions.
                let retx_bytes = (self.sent_high - self.next_send).min(take as u64);
                let stride = max_payload_per_packet(self.mtu).max(1) as u64;
                shell.stats.retransmissions +=
                    retx_bytes.div_ceil(stride).min(packets.len() as u64);
            } else if self.timed.len() < 1024 {
                // An entirely-fresh chunk is a clean RTT probe (Karn's rule:
                // retransmitted ranges are never sampled).
                self.timed.push_back((self.next_send + take as u64, now));
            }
            out.extend(packets);
            self.next_send += take as u64;
            self.sent_high = self.sent_high.max(self.next_send);
        }
    }

    /// The retransmission timer fired with unacknowledged data: rewind to the
    /// cumulative offset.  The scoreboard makes the resend selective; two
    /// fires in a row without progress discard it.
    pub(crate) fn recover(&mut self, now: Nanos) {
        self.consecutive_timeouts += 1;
        self.cwnd.on_loss(now);
        self.timed.clear();
        if self.consecutive_timeouts >= 2 {
            // The scoreboard failed to produce progress — stale or forged
            // SACKs.  Distrust it: plain go-back-N recovers whatever the
            // peer actually holds.
            self.sacked.clear();
        }
        self.next_send = self.acked;
    }

    /// Records the host sealed: those of a software record layer (an
    /// offloading NIC seals its own, and the plaintext stacks seal none).
    pub(crate) fn records_sealed(&self) -> u64 {
        self.tls_tx
            .as_ref()
            .filter(|tx| tx.crypto_mode() == CryptoMode::Software)
            .map_or(0, |tx| tx.records_sent)
    }

    /// Adds the gauges the window machine and the record layer keep.
    pub(crate) fn read_stats(&self, stats: &mut EndpointStats) {
        stats.ecn_marks_seen = self.cwnd.ecn_marks_seen();
        stats.cwnd_bytes = self.cwnd.window();
        stats.records_sealed += self.records_sealed();
    }
}
