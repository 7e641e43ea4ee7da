//! A packet-level, receiver-driven message transport (Homa-style) carrying SMT.
//!
//! This is the correctness-level datapath: it runs the real SMT engine
//! (`smt-core`) over the NIC model (`smt-sim::nic`), exercising the protocol
//! mechanisms the paper relies on:
//!
//! * **unscheduled data** — the first part of every message is sent without
//!   waiting for the receiver (first-RTT data, §2.2/§4.2);
//! * **GRANTs** — the receiver paces the remainder of large messages;
//! * **RESENDs** — the receiver names the first packet it is missing and the
//!   sender goes back to it, marking retransmitted packets with the resend
//!   packet offset (§4.3);
//! * **ACKs** — a message has send or receive state exactly while it is in
//!   flight (§2.2, §4.4.1): the ACK releases the sender's state, retained
//!   segments included, and delivery releases the receiver's.  All that
//!   outlives a message is its ID in the session's bounded replay guard,
//!   which is what lets a duplicate of a delivered message be re-ACKed
//!   without resurrecting any state.  This endpoint answers a delivery with
//!   an ACK packet at once; a caller may instead take the ACKed IDs and carry
//!   each on a later DATA packet to the same peer, in the overlay's
//!   acknowledgement word ([`SmtOptionArea::ack`]), as Homa/Linux does.
//!   A carried ACK is applied before its packet's payload, through the same
//!   release as an ACK packet.  An ACK for a message whose packets have not
//!   all been sent once cannot be genuine and is dropped as malformed;
//! * encryption, reassembly and replay rejection come from the SMT session.
//!
//! **A sender keeps segments, not packets.**  `send_message` seals the message
//! into TSO segments and gives each one's descriptor to the NIC model, which
//! runs its flow-context discipline and counters then and there.  The sealed
//! segments are what is retained until the ACK; a packet is cut from its
//! segment ([`TsoSegment::packet_at`]) only when the grant window, a RESEND or
//! a probe lets it leave, straight into the caller's buffer — the way a NIC
//! cuts a TSO segment as it drains its queue.  A RESEND's (TSO offset, packet
//! offset) is resolved by arithmetic on the segments.
//!
//! **A poll costs what changed, not what is in flight.**  Only two things let
//! first transmissions out: `send_message` (the unscheduled prefix) and a
//! GRANT that raises a window past what was sent.  Each puts the message in
//! an ordered ready set beside the send state; `poll_transmit` drains exactly
//! that set, in ascending message ID; a message is out of it before its ACK
//! can be genuine.  With 64 RPCs outstanding a poll therefore walks the one
//! or two messages a packet just granted, not all 64.
//!
//! Simplifications relative to Homa/Linux, documented here and in DESIGN.md: the
//! grant window is tracked in packets rather than bytes, and a RESEND names
//! where the first gap starts (in the coordinates DATA packets carry: segment
//! TSO offset, packet offset within it) rather than a byte range.  None of
//! these affect the properties the integration tests verify (reliable,
//! encrypted, unordered message delivery over a lossy link).
//!
//! **Loss recovery is per message** (DESIGN.md §10).  Every in-flight message
//! carries its own recovery clock, which vanishes with its state on ACK /
//! delivery: a send is probed only after one full period with none of its
//! packets transmitted and no GRANT / RESEND naming it, a receive is RESENT
//! only after one full period in which no packet *added bytes* to it, and
//! each repeat doubles that message's wait.  A receive given up on is
//! forgotten by the session as well, so a sender that comes back starts it
//! afresh.  An endpoint is told the time and
//! the connection's RTO by its driver ([`HomaEndpoint::set_clock`]); one that
//! never is sits at time zero with a zero period, where everything in flight
//! is always due — the poll-when-quiet discipline of a driver with no clock.
//!
//! Grants come from the receiver-driven SRPT scheduler
//! ([`crate::cc::SrptGrantScheduler`], DESIGN.md §10): incomplete messages are ranked by remaining packets, only
//! the top few are granted, each carries a network priority the sender stamps
//! into the overlay option area, and the summed granted-but-unreceived backlog
//! is capped — what bounds receiver queue occupancy under deep incast.

use crate::cc::{MsgView, SrptGrantScheduler, MAX_RESEND_ATTEMPTS, MAX_RTO_NS};
use crate::stack::StackKind;
use smt_core::reassembly::ReceivedMessage;
use smt_core::segment::PathInfo;
use smt_core::{SmtConfig, SmtSession};
use smt_crypto::handshake::SessionKeys;
use smt_sim::nic::NicModel;
use smt_sim::Nanos;
use smt_wire::{
    HomaAck, HomaGrant, HomaResend, OverlayTcpHeader, Packet, PacketPayload, PacketType,
    SmtOptionArea, SmtOverlayHeader, TsoSegment,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::Range;

/// Packets of a message sent unscheduled (before any GRANT) — Homa's
/// RTT-bytes.  At deep incast the aggregate first-RTT burst is `senders ×
/// prefix`; a large blind prefix is exactly what overflows the receiver's
/// ingress buffer before the grant scheduler ever gets a say.  The receiver
/// paces everything beyond it, and a RESEND is answered with half of it.
pub const UNSCHEDULED_PACKETS: usize = 8;

/// Configuration of the packet-level transport.
#[derive(Debug, Clone, Copy)]
pub struct HomaConfig {
    /// Network MTU.
    pub mtu: usize,
    /// Whether the NIC performs TSO.
    pub tso: bool,
}

impl Default for HomaConfig {
    fn default() -> Self {
        Self {
            mtu: smt_wire::DEFAULT_MTU,
            tso: true,
        }
    }
}

/// One in-flight message's recovery clock: when it is next due for a probe
/// (send) or a RESEND (receive), and the wait that led there.  Activity on
/// the message restarts it one period out; acting on it doubles the wait.
#[derive(Debug, Clone, Copy)]
struct RecoveryClock {
    due: Nanos,
    wait: Nanos,
}

/// The endpoint's notion of time, and where every recovery clock starts.
#[derive(Debug, Default)]
struct RecoveryTime {
    /// The time and the connection's RTO, as last told by
    /// [`HomaEndpoint::set_clock`]; both zero until then (module docs).
    now: Nanos,
    rto: Nanos,
    /// The second half of Karn's algorithm (RFC 6298 §5): the longest wait
    /// a probe has doubled any send to.  Clocks start no shorter than this
    /// from then on, and only an RTT sample from a message that was never
    /// retransmitted clears it.  Arrivals do not: with 64 messages in flight
    /// something always arrives, and a period that keeps snapping back below
    /// the real round trip probes every message and never sees a clean
    /// sample.  (Not a count of probing fires: those can come a quarter
    /// period apart, and a period doubled per fire outruns the clock — 200
    /// RPCs deep it reached the 10 ms ceiling in 100 µs.)
    backed_off: Nanos,
    /// Earliest due time among the clocks started since
    /// [`HomaEndpoint::take_wake_by`]: a driver holding a later wake-up must
    /// pull it in.
    wake_by: Option<Nanos>,
}

impl RecoveryTime {
    /// The period a clock starts with: the RTO, backed off.
    fn period(&self) -> Nanos {
        self.rto.max(self.backed_off)
    }

    /// (Re)starts a message's clock one period out.
    fn start(&mut self) -> RecoveryClock {
        let wait = self.period();
        let due = self.now + wait;
        self.wake_by = Some(self.wake_by.map_or(due, |w| w.min(due)));
        RecoveryClock { due, wait }
    }

    /// The message sat out its whole wait and was acted on: its next wait is
    /// twice as long, up to [`MAX_RTO_NS`].  (No `wake_by`: the fire that
    /// acts re-arms from [`HomaEndpoint::next_due`].)
    fn back_off(&self, clock: &mut RecoveryClock) {
        let doubled = clock.wait.saturating_mul(2).min(MAX_RTO_NS);
        clock.wait = clock.wait.max(doubled);
        clock.due = self.now + clock.wait;
    }
}

/// One sealed TSO segment of an in-flight message, as the NIC took it.
#[derive(Debug)]
struct SentSegment {
    segment: TsoSegment,
    /// Index, within the message, of the first packet the segment is cut
    /// into, and how many it is cut into.
    first_packet: usize,
    packets: usize,
    /// The NIC's verdict on the segment, which every packet cut from it
    /// carries ([`Submitted::corrupted`](smt_sim::nic::Submitted)).
    corrupted: bool,
}

#[derive(Debug)]
struct PendingSend {
    /// The sealed segments, in transmission order, retained until the ACK.
    /// Packets are cut from them as they leave — first transmissions, RESEND
    /// answers and probes alike — and numbered across the message in that
    /// order: segment by segment, packet offset by packet offset.
    segments: Vec<SentSegment>,
    /// Packets the segments are cut into altogether.
    packets: usize,
    granted: usize,
    sent: usize,
    /// Network priority the receiver assigned in its last GRANT (0 =
    /// highest); stamped into the plaintext option area of every granted
    /// data packet this message emits.
    priority: u8,
    /// When the first packet left; the ACK's RTT sample is measured from
    /// here.
    first_sent_at: Nanos,
    /// Any packet of this message was sent twice (probe or RESEND response):
    /// its ACK cannot say which copy it answers, so it yields no RTT sample
    /// (Karn's rule, per message).
    retransmitted: bool,
    /// Due one period after the last transmission of any of its packets or
    /// the last GRANT / RESEND naming it; each probe doubles the wait.
    probe: RecoveryClock,
}

impl PendingSend {
    /// Cuts packets `range` of the message at `mtu`, in order, handing each
    /// to `emit`.
    fn cut(&self, range: Range<usize>, mtu: usize, mut emit: impl FnMut(Packet)) {
        let from = self
            .segments
            .partition_point(|s| s.first_packet + s.packets <= range.start);
        for seg in &self.segments[from..] {
            if seg.first_packet >= range.end {
                break;
            }
            let within =
                range.start.max(seg.first_packet)..range.end.min(seg.first_packet + seg.packets);
            for i in within {
                let mut p = seg
                    .segment
                    .packet_at(i - seg.first_packet, mtu)
                    .expect("the NIC counted this packet");
                p.corrupted = seg.corrupted;
                emit(p);
            }
        }
    }

    /// [`Self::cut`], each packet marked as a retransmission.
    fn cut_again(&self, range: Range<usize>, mtu: usize, out: &mut Vec<Packet>) {
        self.cut(range, mtu, |mut p| {
            smt_core::segment::SmtSegmenter::mark_retransmission(&mut p);
            out.push(p);
        });
    }

    /// The first packet at or past the coordinates DATA packets carry
    /// (segment TSO offset, packet offset within it): where a RESEND naming
    /// them is answered from.  Segments lie in TSO-offset order, so this is
    /// arithmetic on the one that starts there — or, when none does, on the
    /// next one.
    fn packet_index(&self, tso_offset: u32, packet_offset: u16) -> usize {
        let at = self
            .segments
            .partition_point(|s| s.segment.options().tso_offset < tso_offset);
        match self.segments.get(at) {
            Some(seg) if seg.segment.options().tso_offset == tso_offset => {
                seg.first_packet + usize::from(packet_offset).min(seg.packets)
            }
            Some(seg) => seg.first_packet,
            None => self.packets,
        }
    }
}

#[derive(Debug)]
struct RecvProgress {
    /// Packets the session actually accepted (authenticated, well-formed,
    /// not a conflicting duplicate).  A message with zero accepted packets
    /// is never granted and never solicits RESENDs: an attacker spraying
    /// forged IDs must not be able to make this receiver transmit — that
    /// would hand an unauthenticated peer both amplification and a way to
    /// keep the recovery timer busy forever.
    packets_seen: usize,
    granted: usize,
    total_estimate: usize,
    /// RESENDs issued since a packet last added bytes; the receiver abandons
    /// the message at [`MAX_RESEND_ATTEMPTS`] instead of requesting forever.
    resends: u32,
    /// Due one period after the last packet that added bytes (or, with none
    /// yet, after the entry appeared); each RESEND doubles the wait.
    resend: RecoveryClock,
}

/// Incomplete receives tracked at most; beyond this the receiver evicts the
/// incomplete message with the least progress (an attacker spraying bogus
/// message IDs gets its own state evicted first, not legitimate transfers).
const MAX_INCOMPLETE_RECVS: usize = 1024;

/// One endpoint of the packet-level transport.
pub struct HomaEndpoint {
    session: SmtSession,
    nic: NicModel,
    config: HomaConfig,
    /// The SRPT grant machine, consulted on every accepted data arrival.
    scheduler: SrptGrantScheduler,
    path: PathInfo,
    // BTreeMaps, not HashMaps: the probe and RESEND timers iterate these,
    // and the discrete-event harness needs iteration order (hence packet
    // emission order) to be deterministic across runs.
    sends: BTreeMap<u64, PendingSend>,
    recvs: BTreeMap<u64, RecvProgress>,
    /// The sends with granted-but-unsent packets, in ascending ID order
    /// (module docs).  A sorted `Vec`, not a `BTreeSet`: it is emptied on
    /// every poll, and a set would allocate a node each time it refills.
    ready: Vec<u64>,
    delivered: Vec<ReceivedMessage>,
    acked: Vec<u64>,
    /// Data packets retransmitted (RESEND-triggered plus sender-timeout).
    retransmitted_packets: u64,
    /// Received packets the session rejected (failed authentication or
    /// malformed) and this endpoint therefore dropped, plus ACKs, standalone
    /// or carried, that could not be genuine.
    recv_errors: u64,
    /// Incomplete receives abandoned: RESEND give-up plus cap evictions.
    recv_state_evictions: u64,
    time: RecoveryTime,
    /// Round trip of the message the last ACK released, if it was never
    /// retransmitted.
    rtt_sample: Option<Nanos>,
}

impl std::fmt::Debug for HomaEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomaEndpoint")
            .field("pending_sends", &self.sends.len())
            .field("pending_recvs", &self.recvs.len())
            .finish_non_exhaustive()
    }
}

/// The engine configuration a message-based stack runs with: where its
/// records are sealed, if anywhere.
fn base_smt_config(stack: StackKind) -> SmtConfig {
    match stack {
        StackKind::SmtHw => SmtConfig::hardware_offload(),
        StackKind::Homa => SmtConfig::plaintext(),
        _ => SmtConfig::software(),
    }
}

impl HomaEndpoint {
    /// Creates an encrypted endpoint (SMT-sw or SMT-hw depending on `stack`).
    ///
    /// Fails if the handshake keys cannot drive the negotiated cipher suite
    /// (truncated secrets, unsupported suite) rather than panicking, so callers
    /// holding attacker-supplied or deserialized keys can recover.
    pub fn new(
        keys: &SessionKeys,
        stack: StackKind,
        config: HomaConfig,
        path: PathInfo,
    ) -> Result<Self, smt_core::SmtError> {
        let mut smt_config = base_smt_config(stack);
        smt_config.mtu = config.mtu;
        smt_config.tso_enabled = config.tso;
        let session = if stack == StackKind::Homa {
            SmtSession::plaintext(smt_config, path)
        } else {
            SmtSession::new(keys, smt_config, path)?
        };
        Ok(Self::from_session(session, config, path))
    }

    /// Creates an unencrypted (plain Homa) endpoint.
    pub fn plaintext(config: HomaConfig, path: PathInfo) -> Self {
        let smt_config = SmtConfig::plaintext().with_mtu(config.mtu);
        Self::from_session(SmtSession::plaintext(smt_config, path), config, path)
    }

    fn from_session(session: SmtSession, config: HomaConfig, path: PathInfo) -> Self {
        Self {
            session,
            nic: NicModel::new(config.mtu, config.tso),
            config,
            scheduler: SrptGrantScheduler::new(),
            path,
            sends: BTreeMap::new(),
            recvs: BTreeMap::new(),
            ready: Vec::new(),
            delivered: Vec::new(),
            acked: Vec::new(),
            retransmitted_packets: 0,
            recv_errors: 0,
            recv_state_evictions: 0,
            time: RecoveryTime::default(),
            rtt_sample: None,
        }
    }

    /// Access to the underlying SMT session (statistics, replay checks).
    pub fn session(&self) -> &SmtSession {
        &self.session
    }

    /// Granted-but-unreceived packets after the scheduler's last round — the
    /// invited backlog.
    pub fn grants_outstanding(&self) -> u64 {
        self.scheduler.outstanding()
    }

    /// Ratchets the session's send keys one epoch forward (see
    /// [`SmtSession::rekey`]).  Subsequent segments carry the new epoch in
    /// their overlay option area; stored retransmission state keeps its
    /// old-epoch ciphertext, which the peer drains through its one-epoch
    /// window.  Returns the new send epoch.
    pub fn rekey(&mut self) -> Result<u16, smt_core::SmtError> {
        self.session.rekey()
    }

    /// NIC statistics.
    pub fn nic_stats(&self) -> smt_sim::nic::NicStats {
        self.nic.stats
    }

    /// Messages delivered so far (drains the queue).
    pub fn take_delivered(&mut self) -> Vec<ReceivedMessage> {
        std::mem::take(&mut self.delivered)
    }

    /// Message IDs whose ACK arrived since the last call (drains the queue).
    pub fn take_acked(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.acked)
    }

    /// [`Self::take_delivered`] for a caller that consumes the messages on
    /// the spot: the queue keeps its storage.
    pub(crate) fn drain_delivered(&mut self) -> std::vec::Drain<'_, ReceivedMessage> {
        self.delivered.drain(..)
    }

    /// [`Self::take_acked`], the queue keeping its storage.
    pub(crate) fn drain_acked(&mut self) -> std::vec::Drain<'_, u64> {
        self.acked.drain(..)
    }

    /// Number of messages with unacknowledged send state.
    pub fn pending_sends(&self) -> usize {
        self.sends.len()
    }

    /// Number of messages that started arriving but have not completed.
    pub fn incomplete_recvs(&self) -> usize {
        self.recvs.len()
    }

    /// Incomplete receives abandoned to stay within bounds: RESEND give-up
    /// after [`MAX_RESEND_ATTEMPTS`] quiet timeouts, plus evictions at the
    /// `MAX_INCOMPLETE_RECVS` cap.
    pub fn recv_state_evictions(&self) -> u64 {
        self.recv_state_evictions
    }

    /// Data packets retransmitted so far (RESEND-triggered plus
    /// sender-timeout).
    pub fn retransmitted_packets(&self) -> u64 {
        self.retransmitted_packets
    }

    /// Received packets the session rejected and this endpoint dropped, plus
    /// ACKs for messages not yet sent in full.
    pub fn recv_errors(&self) -> u64 {
        self.recv_errors
    }

    /// Tells the endpoint the time and the connection's RTO (as estimated;
    /// the endpoint applies Karn's backoff itself).  A clock
    /// (re)started from here on is due one period after `now`.
    pub fn set_clock(&mut self, now: Nanos, rto: Nanos) {
        self.time.now = now;
        self.time.rto = rto;
    }

    /// The earliest due time among the recovery clocks (re)started since the
    /// last call, which a driver holding a later wake-up must pull in.
    /// Packets the session rejected start no clock.
    pub fn take_wake_by(&mut self) -> Option<Nanos> {
        self.time.wake_by.take()
    }

    /// First transmission to ACK of the message the last handled ACK
    /// released — `None` if any of its packets was sent twice (Karn's rule,
    /// judged per message: what happened to its neighbours is irrelevant).
    pub fn take_rtt_sample(&mut self) -> Option<Nanos> {
        self.rtt_sample.take()
    }

    /// The earliest time an in-flight message comes due for a probe or a
    /// RESEND: what the driver's timer is a wake-up for.
    pub fn next_due(&self) -> Option<Nanos> {
        let probes = self.sends.values().map(|s| s.probe.due);
        let resends = self.recvs.values().map(|r| r.resend.due);
        probes.chain(resends).min()
    }

    /// Queues a message for transmission; returns its message ID.  Every
    /// segment's descriptor goes to the NIC here, in order; the packets are
    /// cut when they leave.
    pub fn send_message(&mut self, data: &[u8], queue: usize) -> Result<u64, smt_core::SmtError> {
        let out = self.session.send_message(data, queue)?;
        let mut packets = 0;
        let segments = out
            .segments
            .into_iter()
            .map(|segment| {
                let verdict = self.nic.submit(queue, &segment);
                let first_packet = packets;
                packets += verdict.packets;
                SentSegment {
                    segment,
                    first_packet,
                    packets: verdict.packets,
                    corrupted: verdict.corrupted,
                }
            })
            .collect();
        let granted = UNSCHEDULED_PACKETS.min(packets);
        self.sends.insert(
            out.message_id,
            PendingSend {
                segments,
                packets,
                granted,
                sent: 0,
                priority: 0,
                first_sent_at: self.time.now,
                retransmitted: false,
                probe: self.time.start(),
            },
        );
        if granted > 0 {
            mark_ready(&mut self.ready, out.message_id);
        }
        Ok(out.message_id)
    }

    /// Emits any packets allowed by the current grant windows.
    pub fn poll_transmit(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        self.poll_transmit_into(&mut out);
        out
    }

    /// [`Self::poll_transmit`] into the caller's buffer.  Each packet is cut
    /// from its sealed segment here, and the receiver-assigned priority
    /// stamped into its plaintext option area — safe post-seal because the
    /// option area is outside the AEAD envelope (see
    /// [`smt_core::segment::SmtSegmenter::mark_retransmission`]).
    ///
    /// Walks only the ready sends, in ascending ID order — the order a scan
    /// of every send would emit them in, since only these have anything to
    /// emit — and leaves none ready.
    pub(crate) fn poll_transmit_into(&mut self, out: &mut Vec<Packet>) {
        debug_assert!(
            self.sends.iter().all(|(id, send)| {
                send.sent >= send.granted.min(send.packets) || self.ready.binary_search(id).is_ok()
            }),
            "a send with granted-but-unsent packets is missing from the ready set"
        );
        let mtu = self.nic.mtu();
        for id in &self.ready {
            let send = self.sends.get_mut(id).expect("a ready send is in flight");
            let end = send.granted.min(send.packets);
            debug_assert!(send.sent < end, "a ready send has packets to emit");
            if send.sent == 0 {
                send.first_sent_at = self.time.now;
            }
            send.probe = self.time.start();
            let priority = send.priority;
            out.reserve(end - send.sent);
            send.cut(send.sent..end, mtu, |mut p| {
                p.overlay.options.priority = priority;
                out.push(p);
            });
            send.sent = end;
        }
        self.ready.clear();
    }

    fn control_packet(&self, payload: PacketPayload, ptype: PacketType, message_id: u64) -> Packet {
        let overlay = SmtOverlayHeader {
            tcp: OverlayTcpHeader::new(self.path.src_port, self.path.dst_port, ptype),
            options: SmtOptionArea::new(message_id, 0),
        };
        Packet {
            ip: smt_wire::IpHeader::V4(smt_wire::Ipv4Header::new(
                self.path.src,
                self.path.dst,
                smt_wire::IPPROTO_SMT,
                (smt_wire::IPV4_HEADER_LEN + smt_wire::SMT_OVERLAY_LEN) as u16,
            )),
            overlay,
            payload,
            corrupted: false,
        }
    }

    /// An ACK packet for message `message_id`.
    pub(crate) fn ack_packet(&self, message_id: u64) -> Packet {
        self.control_packet(
            PacketPayload::Ack(HomaAck { message_id }),
            PacketType::Ack,
            message_id,
        )
    }

    /// Acknowledges message `id`: an ACK packet into `out`, or, for a caller
    /// that carries ACKs on its DATA, the ID into `held`.
    fn acknowledge(&self, id: u64, out: &mut Vec<Packet>, held: Option<&mut Vec<u64>>) {
        match held {
            Some(held) => held.push(id),
            None => out.push(self.ack_packet(id)),
        }
    }

    /// Handles one received packet, possibly emitting control packets (GRANT /
    /// ACK) or retransmissions in response, and recording delivered messages.
    pub fn handle_packet(&mut self, packet: &Packet) -> Vec<Packet> {
        let mut out = Vec::new();
        self.handle_packet_into(packet, &mut out, None);
        out
    }

    /// [`Self::handle_packet`], the responses appended to the caller's buffer.
    /// With `held`, the ACKs the packet earns are not built: their message
    /// IDs go there, one per ACK, for the caller to carry on later DATA.
    pub(crate) fn handle_packet_into(
        &mut self,
        packet: &Packet,
        out: &mut Vec<Packet>,
        mut held: Option<&mut Vec<u64>>,
    ) {
        match packet.overlay.tcp.packet_type {
            PacketType::Data => {
                // The ACK the peer carried first: it is independent of the
                // payload, which may yet fail to authenticate.
                if let Some(low) = packet.overlay.options.ack {
                    self.apply_carried_ack(u32::from_be_bytes(low));
                }
                // Geometry sanity before any state is allocated: a data
                // packet whose segment offset lies outside the message it
                // claims to belong to is forged or corrupt, and tracking it
                // would let an attacker mint receive state (and the grants /
                // RESENDs that come with it) from thin air.
                let opts = &packet.overlay.options;
                if opts.tso_offset != 0 && opts.tso_offset >= opts.message_length {
                    self.recv_errors += 1;
                    return;
                }
                let message_id = opts.message_id;
                let tracked = self.recvs.contains_key(&message_id);
                // A finished message has no entry, and its packets create
                // none: the session below counts the replay without
                // decrypting, and the re-ACK at the end needs only the
                // guard's word that the message was delivered.
                let finished = !tracked && self.session.already_delivered(message_id);
                if !tracked && !finished {
                    // A fresh message ID at the incomplete-receive cap evicts
                    // the tracked message with the least progress (newest ID
                    // breaks ties), so a spray of forged IDs cannibalizes its
                    // own state while transfers that are actually progressing
                    // survive.  Legitimate evicted messages recover via the
                    // sender-side unscheduled-prefix retransmission.
                    if self.recvs.len() >= MAX_INCOMPLETE_RECVS {
                        let victim = self
                            .recvs
                            .iter()
                            .min_by_key(|(&id, p)| (p.packets_seen, std::cmp::Reverse(id)))
                            .map(|(&id, _)| id);
                        if let Some(id) = victim {
                            self.abandon(id);
                        }
                    }
                    // Track receive progress for grant decisions.
                    let per_packet = smt_wire::max_payload_per_packet(self.config.mtu).max(1);
                    self.recvs.insert(
                        message_id,
                        RecvProgress {
                            packets_seen: 0,
                            granted: UNSCHEDULED_PACKETS,
                            total_estimate: (opts.message_length as usize)
                                .div_ceil(per_packet)
                                .max(1),
                            resends: 0,
                            resend: self.time.start(),
                        },
                    );
                }
                let accepted_before = self.session.receiver_stats().packets_accepted;
                match self.session.receive_packet(packet) {
                    Ok(Some(message)) => {
                        let id = message.message_id;
                        self.delivered.push(message);
                        self.recvs.remove(&id);
                        self.acknowledge(id, out, held.as_deref_mut());
                        // The finished message freed grant slots and backlog
                        // budget: re-rank the survivors now, or a message
                        // whose granted data fully arrived would stall until
                        // a timer fires.
                        self.schedule_grants(out);
                    }
                    // "No error" is not progress: a replay of a finished
                    // message, a byte-identical duplicate and a packet
                    // outside the epoch window all return `Ok(None)` too.
                    // Only a packet that added bytes counts, restarts the
                    // stall clock and may earn a grant — or whoever replays
                    // one genuine packet of a stalled message keeps it alive
                    // past the abandonment cap and inflates the count the
                    // scheduler ranks it by.
                    Ok(None)
                        if self.session.receiver_stats().packets_accepted == accepted_before => {}
                    Ok(None) => {
                        if let Some(p) = self.recvs.get_mut(&message_id) {
                            p.packets_seen += 1;
                            p.resends = 0;
                            p.resend = self.time.start();
                        }
                        self.schedule_grants(out);
                    }
                    Err(_) => {
                        // Authentication failure or malformed packet: drop. A
                        // RESEND will recover the data if it was real loss.
                        self.recv_errors += 1;
                    }
                }
                // Re-ACK a delivered message in case the original ACK was
                // lost and the sender is retransmitting to get one — but
                // never an ID the replay guard merely skipped: that would
                // tell the sender a message arrived that never did.
                if finished && self.session.was_delivered(message_id) {
                    self.acknowledge(message_id, out, held);
                }
            }
            PacketType::Grant => {
                if let PacketPayload::Grant(g) = &packet.payload {
                    if let Some(send) = self.sends.get_mut(&g.message_id) {
                        send.granted = send.granted.max(g.granted_offset as usize);
                        send.priority = g.priority;
                        // The receiver knows the message and is pacing it.
                        send.probe = self.time.start();
                        if send.granted.min(send.packets) > send.sent {
                            mark_ready(&mut self.ready, g.message_id);
                        }
                    }
                }
            }
            PacketType::Resend => {
                if let PacketPayload::Resend(r) = &packet.payload {
                    let window = UNSCHEDULED_PACKETS.div_ceil(2);
                    // No send state means the message was acknowledged: such
                    // a RESEND is stale or forged, and honoring it would
                    // retransmit data nobody is missing.
                    if let Some(send) = self.sends.get_mut(&r.message_id) {
                        // Go back to the packet the receiver names as its
                        // first gap.  Everything before it arrived; a gap
                        // beyond what was sent so far is the grant's
                        // business, not a retransmission's.
                        let limit = send.sent.min(send.packets);
                        let packet_offset = u16::try_from(r.length).unwrap_or(u16::MAX);
                        let start = send.packet_index(r.offset, packet_offset).min(limit);
                        // A bounded window from there, half the unscheduled
                        // prefix.  The first packet is wanted for sure; the
                        // rest are a guess at how far the gap runs, and
                        // re-blasting everything behind it is exactly the
                        // burst that re-overflows a deep-incast receiver
                        // queue (DESIGN.md §10 has the measurements).  The
                        // receiver asks again from its next gap.
                        let end = (start + window).min(limit);
                        // The receiver knows the message and is driving its
                        // recovery: no probe until it goes quiet again.
                        send.probe = self.time.start();
                        send.retransmitted |= end > start;
                        self.retransmitted_packets += (end - start) as u64;
                        send.cut_again(start..end, self.nic.mtu(), out);
                    }
                }
            }
            PacketType::Ack => {
                if let PacketPayload::Ack(a) = &packet.payload {
                    self.release(a.message_id);
                }
            }
            PacketType::Control | PacketType::Sack => {}
        }
    }

    /// Applies an ACK carried on DATA.  `low` is the acknowledged ID's low 32
    /// bits; the rest come from the in-flight window, every unacknowledged ID
    /// lying less than 2^32 above the oldest.  Nothing in flight, or no send
    /// at the resolved ID, makes it a duplicate.
    fn apply_carried_ack(&mut self, low: u32) {
        if let Some(&oldest) = self.sends.keys().next() {
            self.release(oldest + u64::from(low.wrapping_sub(oldest as u32)));
        }
    }

    /// What an ACK naming `message_id` does, standalone or carried: releases
    /// the send state, retained segments included; a duplicate ACK finds
    /// nothing and reports nothing.  An ACK for a message whose packets have
    /// not all been sent once cannot be genuine — the receiver cannot have
    /// delivered it — and is dropped as malformed: honoring it would lose the
    /// message mid-transfer, its RESENDs finding no send state.
    fn release(&mut self, message_id: u64) {
        let Entry::Occupied(entry) = self.sends.entry(message_id) else {
            return;
        };
        if entry.get().sent < entry.get().packets {
            self.recv_errors += 1;
            return;
        }
        // Sent in full, so not in the ready set either.
        let send = entry.remove();
        debug_assert!(self.ready.binary_search(&message_id).is_err());
        self.acked.push(message_id);
        self.rtt_sample =
            (!send.retransmitted).then(|| self.time.now.saturating_sub(send.first_sent_at));
        if self.rtt_sample.is_some() {
            self.time.backed_off = 0;
        }
    }

    /// Gives up on an incomplete receive, here and in the session: bytes the
    /// session went on holding would turn the sender's probe into duplicates
    /// that earn no progress and solicit no RESEND, and the message could
    /// never be delivered however long the link stays healed.
    fn abandon(&mut self, message_id: u64) {
        self.recvs.remove(&message_id);
        self.session.forget(message_id);
        self.recv_state_evictions += 1;
    }

    /// One SRPT scheduling round over every incomplete, grant-eligible
    /// message (total beyond the unscheduled prefix).  Applies the decisions
    /// to the tracked grant offsets and appends the GRANT packets to `out`.
    fn schedule_grants(&mut self, out: &mut Vec<Packet>) {
        let views: Vec<MsgView> = self
            .recvs
            .iter()
            .filter(|(_, p)| p.packets_seen > 0 && p.total_estimate > UNSCHEDULED_PACKETS)
            .map(|(&id, p)| MsgView {
                id,
                seen: p.packets_seen,
                granted: p.granted,
                total: p.total_estimate,
            })
            .collect();
        for d in self.scheduler.schedule(&views) {
            if let Some(p) = self.recvs.get_mut(&d.message_id) {
                p.granted = p.granted.max(d.granted_packets as usize);
            }
            out.push(self.control_packet(
                PacketPayload::Grant(HomaGrant {
                    message_id: d.message_id,
                    granted_offset: d.granted_packets,
                    priority: d.priority,
                }),
                PacketType::Grant,
                d.message_id,
            ));
        }
    }

    /// Probes each unacknowledged send that has gone quiet — one full wait
    /// with none of its packets transmitted and no GRANT / RESEND naming it —
    /// by retransmitting its first two packets, and doubles that send's wait
    /// (the sender-side timeout).  This recovers the two cases
    /// receiver-driven RESENDs cannot: a message whose every packet was lost
    /// (the receiver never learned it exists) and a completed message whose
    /// ACK was lost.  Two packets suffice: they recreate the receiver's
    /// progress state, whose RESENDs then drive recovery, and re-elicit a
    /// lost ACK.  Sends that are not due are left alone, whatever happened to
    /// their neighbours.
    pub fn poll_retransmit_unacked(&mut self) -> Vec<Packet> {
        const PROBE_PACKETS: usize = 2;
        let mut out = Vec::new();
        for send in self.sends.values_mut() {
            if send.probe.due > self.time.now {
                continue;
            }
            self.time.back_off(&mut send.probe);
            let limit = send.sent.min(PROBE_PACKETS).min(send.packets);
            if limit > 0 {
                send.retransmitted = true;
                self.time.backed_off = self.time.backed_off.max(send.probe.wait);
            }
            send.cut_again(0..limit, self.nic.mtu(), &mut out);
        }
        self.retransmitted_packets += out.len() as u64;
        out
    }

    /// Issues a RESEND for each incomplete receive that has stalled — one
    /// full wait in which no packet added bytes to it — and doubles that
    /// receive's wait (standing in for Homa's timeout-driven RESEND).  A
    /// message that stays stalled through [`MAX_RESEND_ATTEMPTS`] of its own
    /// waits is abandoned — a forged message ID must not keep the
    /// receiver's timer armed forever.  Receives that are not due are left
    /// alone.
    pub fn poll_resend(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        let due: Vec<u64> = self
            .recvs
            .iter()
            .filter(|(_, p)| p.resend.due <= self.time.now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let Some(progress) = self.recvs.get_mut(&id) else {
                continue;
            };
            if progress.resends >= MAX_RESEND_ATTEMPTS {
                self.abandon(id);
                continue;
            }
            progress.resends += 1;
            self.time.back_off(&mut progress.resend);
            // A message with no accepted packet still ages toward
            // abandonment above, but gets no RESEND on the wire: requesting
            // retransmission of a message only an attacker ever referenced
            // would let forged traffic farm control packets out of this
            // endpoint indefinitely.
            if progress.packets_seen == 0 {
                continue;
            }
            let granted = progress.granted;
            // Name the first gap, so the sender goes straight to it.  The
            // session holding nothing of the message (its one segment failed
            // authentication and was discarded whole) asks from the start.
            let (offset, held) = self.session.first_missing(id).unwrap_or((0, 0));
            out.push(self.control_packet(
                PacketPayload::Resend(HomaResend {
                    message_id: id,
                    offset,
                    length: u32::from(held),
                    priority: 0,
                }),
                PacketType::Resend,
                id,
            ));
            // Re-advertise the current grant alongside the RESEND.  Grants
            // are receiver state: if the GRANT packet itself was lost, the
            // receiver's ledger says `granted` but the sender never advanced,
            // and the SRPT scheduler never re-issues an offset it already
            // recorded (it only grants when desired > granted) — the
            // transfer would deadlock with the sender's retransmissions
            // forever capped at the stale sent window.  The grant is
            // idempotent (the sender takes the max), so repeating it on the
            // stall timer costs one packet and repairs the loss.
            if granted > UNSCHEDULED_PACKETS {
                out.push(self.control_packet(
                    PacketPayload::Grant(HomaGrant {
                        message_id: id,
                        granted_offset: granted as u32,
                        priority: 0,
                    }),
                    PacketType::Grant,
                    id,
                ));
            }
        }
        out
    }
}

/// Adds `id` to the sorted ready set unless it is there already.  Message
/// IDs are issued increasing, so a new send lands at the end.
fn mark_ready(ready: &mut Vec<u64>, id: u64) {
    if let Err(at) = ready.binary_search(&id) {
        ready.insert(at, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{
        ACTIVE_GRANTS, GRANT_WINDOW_PACKETS, MAX_GRANT_BACKLOG_PACKETS, PRIORITY_LEVELS,
    };
    use smt_crypto::cert::CertificateAuthority;
    use smt_crypto::handshake::{establish, ClientConfig, ServerConfig};
    use smt_sim::net::{Admission, FaultConfig, FaultyLink};
    use std::collections::VecDeque;

    /// Test-only FIFO flight channel applying the repository's one fault
    /// model (`smt_sim::net::FaultyLink`) per pushed packet.  Production
    /// consumers move packets through the fabric (`endpoint::drive_pair`,
    /// `smt_sim::net::run_scenario`); this exists so these unit tests can
    /// observe the raw GRANT/RESEND/ACK exchange flight by flight.
    struct LossyChannel {
        queue: VecDeque<Packet>,
        faults: FaultyLink,
    }

    impl LossyChannel {
        fn new(loss: f64, seed: u64) -> Self {
            Self {
                queue: VecDeque::new(),
                faults: FaultyLink::new(FaultConfig::lossy(loss, seed)),
            }
        }

        fn reliable() -> Self {
            Self::new(0.0, 0)
        }

        fn push(&mut self, packets: Vec<Packet>) {
            for p in packets {
                if self.faults.admit() != Admission::Drop {
                    self.queue.push_back(p);
                }
            }
        }

        fn drain(&mut self) -> Vec<Packet> {
            self.queue.drain(..).collect()
        }

        fn dropped(&self) -> u64 {
            self.faults.stats.dropped
        }
    }

    /// Protocol-level drive loop for exercising `HomaEndpoint` directly.
    /// Production consumers drive stacks through
    /// [`crate::endpoint::drive_pair`]; this helper exists only so these unit
    /// tests can observe the raw GRANT/RESEND/ACK exchange.
    fn drive(
        a: &mut HomaEndpoint,
        b: &mut HomaEndpoint,
        a_to_b: &mut LossyChannel,
        b_to_a: &mut LossyChannel,
        max_rounds: usize,
    ) -> usize {
        for round in 0..max_rounds {
            let mut activity = false;

            let tx = a.poll_transmit();
            if !tx.is_empty() {
                activity = true;
                a_to_b.push(tx);
            }
            let tx = b.poll_transmit();
            if !tx.is_empty() {
                activity = true;
                b_to_a.push(tx);
            }

            for p in a_to_b.drain() {
                activity = true;
                let responses = b.handle_packet(&p);
                if !responses.is_empty() {
                    b_to_a.push(responses);
                }
            }
            for p in b_to_a.drain() {
                activity = true;
                let responses = a.handle_packet(&p);
                if !responses.is_empty() {
                    a_to_b.push(responses);
                }
            }

            if !activity {
                // Quiet: ask both sides to recover anything missing.
                let ra = a.poll_resend();
                let rb = b.poll_resend();
                if ra.is_empty() && rb.is_empty() {
                    return round;
                }
                a_to_b.push(ra);
                b_to_a.push(rb);
            }
        }
        max_rounds
    }

    fn keys() -> (SessionKeys, SessionKeys) {
        let ca = CertificateAuthority::new("ca");
        let id = ca.issue_identity("server");
        establish(
            ClientConfig::new(ca.verifying_key(), "server"),
            ServerConfig::new(id, ca.verifying_key()),
        )
        .unwrap()
    }

    fn pair(stack: StackKind, config: HomaConfig) -> (HomaEndpoint, HomaEndpoint) {
        let (ck, sk) = keys();
        let (client_path, server_path) = PathInfo::pair(4000, 5201);
        (
            HomaEndpoint::new(&ck, stack, config, client_path).unwrap(),
            HomaEndpoint::new(&sk, stack, config, server_path).unwrap(),
        )
    }

    #[test]
    fn small_message_one_round_trip() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        a.send_message(b"hello over smt", 0).unwrap();
        drive(&mut a, &mut b, &mut ab, &mut ba, 16);
        let got = b.take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, b"hello over smt");
        assert_eq!(a.pending_sends(), 0, "ACK released sender state");
    }

    #[test]
    fn large_message_requires_grants() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 255) as u8).collect();
        let id = a.send_message(&data, 0).unwrap();
        assert!(a.sends[&id].packets > UNSCHEDULED_PACKETS + GRANT_WINDOW_PACKETS);
        assert_eq!(a.sends[&id].granted, UNSCHEDULED_PACKETS, "the rest waits");
        drive(&mut a, &mut b, &mut ab, &mut ba, 200);
        let got = b.take_delivered();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, data);
        assert!(b.scheduler.grants_issued() > 1, "paced by GRANTs");
    }

    #[test]
    fn lossy_link_recovers_via_resend() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::new(0.10, 42);
        let mut ba = LossyChannel::reliable();
        let data = vec![0x5au8; 120_000];
        a.send_message(&data, 0).unwrap();
        drive(&mut a, &mut b, &mut ab, &mut ba, 500);
        let got = b.take_delivered();
        assert_eq!(got.len(), 1, "dropped {} packets", ab.dropped());
        assert_eq!(got[0].data, data);
        assert!(ab.dropped() > 0, "loss did occur");
    }

    #[test]
    fn injected_packet_ahead_of_the_genuine_one_costs_one_resend_round() {
        // A forged copy of the first packet reaches the receiver before the
        // genuine flight.  Its segment cannot authenticate and is discarded
        // whole, so the quiet-timer RESEND rebuilds it from the sender's
        // retransmissions instead of rejecting them against the forgery.
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 241) as u8).collect();
        a.send_message(&data, 0).unwrap();
        let flight = a.poll_transmit();
        let mut forged = flight[0].clone();
        let mut bytes = forged.payload.as_data().unwrap().to_vec();
        bytes[40] ^= 0x01;
        forged.payload = PacketPayload::Data(bytes.into());
        assert!(b.handle_packet(&forged).is_empty());
        ab.push(flight);
        drive(&mut a, &mut b, &mut ab, &mut ba, 64);
        let got = b.take_delivered();
        assert_eq!(got.len(), 1, "delivered after the RESEND round");
        assert_eq!(got[0].data, data);
        // The conflicting genuine packet and the segment that failed to open.
        assert_eq!(b.recv_errors(), 2);
        assert_eq!(b.session().receiver_stats().auth_failures, 1);
        assert!(a.retransmitted_packets() > 0);
        assert_eq!(a.pending_sends(), 0, "ACK released sender state");
        assert_eq!(b.incomplete_recvs(), 0);
    }

    #[test]
    fn bidirectional_and_interleaved_messages() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        for i in 0..10u8 {
            a.send_message(&vec![i; 2000 + i as usize * 111], i as usize % 4)
                .unwrap();
            b.send_message(&vec![0xf0 | i; 500], i as usize % 4)
                .unwrap();
        }
        drive(&mut a, &mut b, &mut ab, &mut ba, 200);
        assert_eq!(b.take_delivered().len(), 10);
        assert_eq!(a.take_delivered().len(), 10);
    }

    #[test]
    fn plaintext_homa_works_too() {
        let (mut a, mut b) = pair(StackKind::Homa, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        let data = vec![1u8; 50_000];
        a.send_message(&data, 0).unwrap();
        drive(&mut a, &mut b, &mut ab, &mut ba, 100);
        assert_eq!(b.take_delivered()[0].data, data);
    }

    #[test]
    fn hardware_offload_descriptors_flow_through_nic() {
        let (mut a, mut b) = pair(StackKind::SmtHw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        let data = vec![2u8; 150_000];
        a.send_message(&data, 1).unwrap();
        drive(&mut a, &mut b, &mut ab, &mut ba, 200);
        assert_eq!(b.take_delivered()[0].data, data);
        let stats = a.nic_stats();
        assert!(stats.offload_records > 0);
        assert!(stats.resyncs >= 1);
        assert_eq!(stats.out_of_sequence, 0, "stack kept contexts in sequence");
    }

    #[test]
    fn srpt_scheduler_grants_priorities_and_bounds_backlog() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        // More concurrent messages than grant slots, sizes chosen so SRPT
        // must rank them.
        let sizes = [200_000usize, 150_000, 100_000, 60_000, 40_000, 20_000];
        assert!(sizes.len() > ACTIVE_GRANTS);
        for (i, len) in sizes.iter().enumerate() {
            a.send_message(&vec![i as u8; *len], i).unwrap();
        }
        // Drive manually so we can watch the invited backlog every round.
        let (mut peak, mut priorities) = (0, [false; PRIORITY_LEVELS as usize]);
        for _ in 0..4000 {
            ab.push(a.poll_transmit());
            let mut responses = Vec::new();
            for p in ab.drain() {
                responses.extend(b.handle_packet(&p));
            }
            peak = peak.max(b.grants_outstanding());
            for p in &responses {
                if let PacketPayload::Grant(g) = &p.payload {
                    priorities[usize::from(g.priority)] = true;
                }
            }
            ba.push(responses);
            for p in ba.drain() {
                ab.push(a.handle_packet(&p));
            }
            if b.session().stats().messages_received >= sizes.len() as u64 && a.pending_sends() == 0
            {
                break;
            }
        }
        assert_eq!(
            peak, MAX_GRANT_BACKLOG_PACKETS as u64,
            "the invited backlog reaches its cap and never exceeds it"
        );
        assert_eq!(
            priorities[..ACTIVE_GRANTS],
            [true; ACTIVE_GRANTS],
            "one priority per grant slot"
        );
        assert!(!priorities[ACTIVE_GRANTS..].contains(&true));
        assert_eq!(
            b.session().stats().messages_received,
            sizes.len() as u64,
            "all messages delivered under scheduled grants"
        );
        assert_eq!(a.pending_sends(), 0, "ACKs released sender state");
    }

    #[test]
    fn replayed_message_not_delivered_twice() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        a.send_message(b"only once", 0).unwrap();
        // Capture the data packets so we can replay them afterwards.
        let packets = a.poll_transmit();
        ab.push(packets.clone());
        drive(&mut a, &mut b, &mut ab, &mut ba, 16);
        assert_eq!(b.take_delivered().len(), 1);
        // Replay the captured packets wholesale.
        for p in &packets {
            b.handle_packet(p);
        }
        assert!(b.take_delivered().is_empty());
        assert!(b.session().receiver_stats().packets_replayed > 0);
    }

    #[test]
    fn finished_messages_leave_no_state_behind() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        for i in 0..10_000u32 {
            let request = i.to_le_bytes().repeat(16);
            a.send_message(&request, 0).unwrap();
            drive(&mut a, &mut b, &mut ab, &mut ba, 16);
            let got = b.take_delivered();
            assert_eq!(got.len(), 1);
            b.send_message(&got[0].data, 0).unwrap();
            drive(&mut a, &mut b, &mut ab, &mut ba, 16);
            assert_eq!(a.take_delivered()[0].data, request);
        }
        for ep in [&a, &b] {
            assert!(ep.sends.is_empty(), "ACK released every send");
            assert!(ep.recvs.is_empty(), "delivery released every receive");
            let debug = format!("{ep:?}");
            assert!(debug.contains("pending_sends: 0"), "{debug}");
            assert!(debug.contains("pending_recvs: 0"), "{debug}");
        }
    }

    /// The period the hand-driven clock tests tell both ends.
    const PERIOD: Nanos = 40_000;

    /// Steps `ep`'s clock in quarter periods up to `periods` and returns the
    /// times at which `poll` emitted anything.
    fn fires(
        ep: &mut HomaEndpoint,
        periods: u64,
        mut poll: impl FnMut(&mut HomaEndpoint) -> Vec<Packet>,
    ) -> Vec<Nanos> {
        let mut at = Vec::new();
        for step in 1..=periods * 4 {
            let now = step * PERIOD / 4;
            ep.set_clock(now, PERIOD);
            if !poll(ep).is_empty() {
                at.push(now);
            }
        }
        at
    }

    #[test]
    fn successive_probes_and_resends_of_one_message_double_their_wait() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        a.set_clock(0, PERIOD);
        b.set_clock(0, PERIOD);
        a.send_message(&[1u8; 3000], 0).unwrap();
        let flight = a.poll_transmit();
        assert!(flight.len() > 1);
        assert_eq!(a.next_due(), Some(PERIOD));

        // Every packet lost: the send is probed after 1, then 2, 4, 8 periods.
        let probes = fires(&mut a, 16, |a| a.poll_retransmit_unacked());
        assert_eq!(probes, [PERIOD, 3 * PERIOD, 7 * PERIOD, 15 * PERIOD]);
        assert_eq!(a.next_due(), Some(31 * PERIOD));

        // Only the first packet arrives: the receive is RESENT on the same
        // schedule, and the silence of its neighbour-less timer is no excuse.
        b.handle_packet(&flight[0]);
        assert_eq!(b.take_wake_by(), Some(PERIOD));
        let resends = fires(&mut b, 16, |b| b.poll_resend());
        assert_eq!(resends, [PERIOD, 3 * PERIOD, 7 * PERIOD, 15 * PERIOD]);
        assert_eq!(
            b.take_wake_by(),
            None,
            "a backed-off clock pulls nothing in"
        );
    }

    #[test]
    fn a_duplicate_is_not_progress() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let id = a.send_message(&[7u8; 3000], 0).unwrap();
        let flight = a.poll_transmit();
        assert!(flight.len() > 1);
        b.set_clock(0, PERIOD);
        b.handle_packet(&flight[0]);
        assert_eq!(b.take_wake_by(), Some(PERIOD));
        // The message stalls with one packet delivered, and whoever replays
        // that packet is not its sender making progress: the receive still
        // ages through `max_resend_attempts` of its own waits and is
        // abandoned, and the count the grant scheduler ranks it by stays put.
        let max_attempts = MAX_RESEND_ATTEMPTS;
        for attempt in 0..max_attempts {
            let due = b.next_due().expect("still tracked");
            b.set_clock(due, PERIOD);
            let out = b.poll_resend();
            assert_eq!(
                out[0].overlay.tcp.packet_type,
                PacketType::Resend,
                "RESEND {attempt}"
            );
            assert!(b.handle_packet(&flight[0]).is_empty());
            assert_eq!(b.recvs[&id].packets_seen, 1);
            assert_eq!(b.take_wake_by(), None, "a duplicate starts no clock");
        }
        let due = b.next_due().expect("still tracked");
        b.set_clock(due, PERIOD);
        assert!(b.poll_resend().is_empty());
        assert_eq!(b.incomplete_recvs(), 0, "abandoned");
        assert_eq!(b.recv_state_evictions(), 1);
        assert_eq!(b.next_due(), None);
        assert_eq!(
            b.session().receiver_stats().packets_duplicate,
            u64::from(max_attempts)
        );
    }

    #[test]
    fn only_a_message_that_was_never_retransmitted_yields_an_rtt_sample() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        a.set_clock(0, PERIOD);
        let lost = a.send_message(&[1u8; 500], 0).unwrap();
        let clean = a.send_message(&[2u8; 500], 0).unwrap();
        let flight = a.poll_transmit();
        assert_eq!(flight.len(), 2);
        // `lost` never arrives; `clean` does and its ACK is back at 10 µs.
        a.set_clock(10_000, PERIOD);
        for ack in b.handle_packet(&flight[clean as usize]) {
            a.handle_packet(&ack);
        }
        assert_eq!(a.take_acked(), [clean]);
        assert_eq!(a.take_rtt_sample(), Some(10_000));
        // One period on only `lost` is due; its neighbour's fate is not its
        // own, in either direction.
        a.set_clock(PERIOD, PERIOD);
        let probe = a.poll_retransmit_unacked();
        assert!(!probe.is_empty());
        assert!(
            probe
                .iter()
                .all(|p| p.overlay.options.message_id == lost
                    && p.overlay.options.is_retransmission())
        );
        a.set_clock(PERIOD + 10_000, PERIOD);
        for p in &probe {
            for ack in b.handle_packet(p) {
                a.handle_packet(&ack);
            }
        }
        assert_eq!(a.take_acked(), [lost]);
        assert_eq!(a.take_rtt_sample(), None, "a probed message is no sample");
        assert_eq!(b.take_delivered().len(), 2);
    }

    #[test]
    fn a_resend_names_the_first_gap_and_the_sender_goes_back_to_it() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let id = a.send_message(&data, 0).unwrap();
        // The unscheduled prefix, then the rest on one GRANT.
        let mut flight = a.poll_transmit();
        a.handle_packet(&grant(&a, id, u32::MAX, 0));
        flight.extend(a.poll_transmit());
        assert!(flight.len() > 25, "the whole message in one flight");
        // Packets 3 and 4 are lost.
        for (i, p) in flight.iter().enumerate() {
            if i != 3 && i != 4 {
                assert!(b
                    .handle_packet(p)
                    .iter()
                    .all(|r| { r.overlay.tcp.packet_type == PacketType::Grant }));
            }
        }
        let resend = b
            .poll_resend()
            .into_iter()
            .find(|p| p.overlay.tcp.packet_type == PacketType::Resend)
            .expect("stalled receive asks");
        let PacketPayload::Resend(named) = resend.payload else {
            unreachable!()
        };
        assert_eq!(
            (named.offset, named.length),
            (flight[3].overlay.options.tso_offset, 3)
        );
        // The answer is a window of half the unscheduled prefix from the gap,
        // never what came before it.
        let answer = a.handle_packet(&resend);
        assert_eq!(answer.len(), UNSCHEDULED_PACKETS / 2);
        for (retx, original) in answer.iter().zip(&flight[3..]) {
            assert!(retx.overlay.options.is_retransmission());
            assert_eq!(retx.payload, original.payload);
        }
        for p in &answer {
            b.handle_packet(p);
        }
        assert_eq!(b.take_delivered()[0].data, data);
    }

    #[test]
    fn an_abandoned_receive_is_forgotten_by_the_session_too() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        a.set_clock(0, PERIOD);
        b.set_clock(0, PERIOD);
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 247) as u8).collect();
        let id = a.send_message(&data, 0).unwrap();
        let flight = a.poll_transmit();
        assert_eq!(flight.len(), 3);
        // Packets 0 and 1 arrive; packet 2 and every RESEND are lost until
        // the receiver gives the message up.
        b.handle_packet(&flight[0]);
        b.handle_packet(&flight[1]);
        while b.recv_state_evictions() == 0 {
            let due = b.next_due().expect("still tracked");
            b.set_clock(due, PERIOD);
            b.poll_resend();
        }
        assert_eq!(b.recv_state_evictions(), 1);
        assert_eq!(b.incomplete_recvs(), 0);
        assert_eq!(b.session().receiver_stats().packets_accepted, 2);

        // The link heals.  The sender's probe is its first two packets: were
        // they still buffered in the session they would be duplicates, earn
        // no progress, solicit no RESEND, and packet 2 would never be asked
        // for again.
        let mut now = b.next_due().unwrap_or(0);
        for _ in 0..64 {
            now = [a.next_due(), b.next_due()]
                .into_iter()
                .flatten()
                .min()
                .map_or(now, |due| due.max(now));
            a.set_clock(now, PERIOD);
            b.set_clock(now, PERIOD);
            let mut to_b = a.poll_retransmit_unacked();
            let mut to_a = b.poll_resend();
            while !(to_a.is_empty() && to_b.is_empty()) {
                let from_b: Vec<Packet> = to_b.iter().flat_map(|p| b.handle_packet(p)).collect();
                to_b = to_a.iter().flat_map(|p| a.handle_packet(p)).collect();
                to_a = from_b;
            }
            if a.pending_sends() == 0 {
                break;
            }
        }
        assert_eq!(a.take_acked(), [id], "delivered once the link healed");
        assert_eq!(b.take_delivered()[0].data, data);
        assert_eq!(b.incomplete_recvs(), 0);
    }

    /// A control packet as `to`'s peer would send it.
    fn from_peer(to: &HomaEndpoint, payload: PacketPayload, message_id: u64) -> Packet {
        let ptype = match payload {
            PacketPayload::Grant(_) => PacketType::Grant,
            PacketPayload::Resend(_) => PacketType::Resend,
            _ => PacketType::Ack,
        };
        let mut p = to.control_packet(payload, ptype, message_id);
        std::mem::swap(&mut p.overlay.tcp.src_port, &mut p.overlay.tcp.dst_port);
        p
    }

    fn grant(to: &HomaEndpoint, message_id: u64, granted_offset: u32, priority: u8) -> Packet {
        let grant = HomaGrant {
            message_id,
            granted_offset,
            priority,
        };
        from_peer(to, PacketPayload::Grant(grant), message_id)
    }

    #[test]
    fn cutting_packets_as_they_leave_equals_cutting_them_at_send() {
        let (ck, _) = keys();
        let (path, _) = PathInfo::pair(4000, 5201);
        for stack in [StackKind::SmtSw, StackKind::SmtHw, StackKind::Homa] {
            for tso in [true, false] {
                let config = HomaConfig {
                    tso,
                    ..HomaConfig::default()
                };
                let mut a = HomaEndpoint::new(&ck, stack, config, path).unwrap();
                // The same messages through a session and a NIC of their
                // own, every packet cut on the spot.
                let mut smt_config = base_smt_config(stack);
                smt_config.mtu = config.mtu;
                smt_config.tso_enabled = tso;
                let mut session = if stack == StackKind::Homa {
                    SmtSession::plaintext(smt_config, path)
                } else {
                    SmtSession::new(&ck, smt_config, path).unwrap()
                };
                let mut nic = NicModel::new(config.mtu, tso);

                for (queue, size) in [0, 64, 1461, 8192, 200_000, 1 << 20]
                    .into_iter()
                    .enumerate()
                {
                    let label = format!("{stack:?} tso={tso} {size} B");
                    let data: Vec<u8> = (0..size).map(|i| (i % 239) as u8).collect();
                    let out = session.send_message(&data, queue).unwrap();
                    let reference: Vec<Packet> = out
                        .segments
                        .iter()
                        .flat_map(|seg| nic.transmit(queue, seg).0)
                        .collect();
                    let id = a.send_message(&data, queue).unwrap();
                    assert_eq!(id, out.message_id);

                    // First transmissions, let out by GRANTs of uneven sizes
                    // and changing priorities.
                    let mut emitted = a.poll_transmit();
                    let mut expected: Vec<Packet> = reference[..emitted.len()].to_vec();
                    assert_eq!(emitted.len(), reference.len().min(UNSCHEDULED_PACKETS));
                    let mut step = 0usize;
                    while emitted.len() < reference.len() {
                        step += 1;
                        let priority = (step % 8) as u8;
                        let granted = emitted.len() + [1, 7, 2, 45, 3, 90][step % 6];
                        a.handle_packet(&grant(&a, id, granted as u32, priority));
                        let window = a.poll_transmit();
                        assert_eq!(
                            window.len(),
                            granted.min(reference.len()) - emitted.len(),
                            "{label}"
                        );
                        for p in &reference[emitted.len()..emitted.len() + window.len()] {
                            let mut p = p.clone();
                            p.overlay.options.priority = priority;
                            expected.push(p);
                        }
                        emitted.extend(window);
                    }
                    assert_eq!(emitted, expected, "{label}");
                    assert!(a.poll_transmit().is_empty(), "{label}");

                    // A probe is the head of the message again: its first
                    // two packets.
                    let probe = a.poll_retransmit_unacked();
                    let want: Vec<Packet> = reference.iter().take(2).map(marked).collect();
                    assert_eq!(probe, want, "{label}");
                    let ack = PacketPayload::Ack(HomaAck { message_id: id });
                    a.handle_packet(&from_peer(&a, ack, id));
                    assert_eq!(a.pending_sends(), 0, "{label}");
                }
                assert_eq!(a.nic_stats().packets, nic.stats.packets);
                assert_eq!(a.nic_stats().segments, nic.stats.segments);
                assert_eq!(a.nic_stats().offload_records, nic.stats.offload_records);
                assert_eq!(a.nic_stats().out_of_sequence, nic.stats.out_of_sequence);
            }
        }
    }

    /// `packet` as it is retransmitted.
    fn marked(packet: &Packet) -> Packet {
        let mut p = packet.clone();
        smt_core::segment::SmtSegmenter::mark_retransmission(&mut p);
        p
    }

    #[test]
    fn a_resend_is_answered_from_the_packet_a_scan_of_precut_packets_would_pick() {
        let (ck, _) = keys();
        let (path, _) = PathInfo::pair(4000, 5201);
        for stack in [StackKind::SmtSw, StackKind::SmtHw, StackKind::Homa] {
            for tso in [true, false] {
                let config = HomaConfig {
                    tso,
                    ..HomaConfig::default()
                };
                for size in [0, 64, 1461, 8192, 200_000] {
                    let label = format!("{stack:?} tso={tso} {size} B");
                    let mut a = HomaEndpoint::new(&ck, stack, config, path).unwrap();
                    let data: Vec<u8> = (0..size).map(|i| (i % 233) as u8).collect();
                    let id = a.send_message(&data, 0).unwrap();
                    // What was sent is the first 100 packets, past several
                    // segments; for the largest message that leaves a tail a
                    // RESEND must not reach.
                    let mut reference = a.poll_transmit();
                    a.handle_packet(&grant(&a, id, 100, 0));
                    reference.extend(a.poll_transmit());
                    let sent = reference.len();
                    a.handle_packet(&grant(&a, id, u32::MAX, 0));
                    reference.extend(a.poll_transmit());
                    a.sends.get_mut(&id).unwrap().sent = sent;
                    assert_eq!(size == 200_000, sent < reference.len(), "{label}");

                    // Every coordinate a receiver can name: each packet, one
                    // past each segment's last, a TSO offset inside a
                    // segment, past the end of the message.
                    let key =
                        |p: &Packet| (p.overlay.options.tso_offset, p.packet_offset().unwrap());
                    let mut gaps: Vec<(u32, u16)> = Vec::new();
                    for p in &reference {
                        let (tso_offset, packet_offset) = key(p);
                        gaps.push((tso_offset, packet_offset));
                        gaps.push((tso_offset, packet_offset + 1));
                        gaps.push((tso_offset + 1, 0));
                        gaps.push((tso_offset + 1, packet_offset));
                    }
                    gaps.push((size as u32, 0));
                    gaps.push((u32::MAX, u16::MAX));
                    gaps.push((0, u16::MAX));
                    // The answer is a window of half the unscheduled prefix
                    // from there, cut short where the sent prefix ends.
                    let window = UNSCHEDULED_PACKETS / 2;
                    for gap in gaps {
                        let start = reference[..sent].partition_point(|p| key(p) < gap);
                        let end = (start + window).min(sent);
                        let resend = PacketPayload::Resend(HomaResend {
                            message_id: id,
                            offset: gap.0,
                            length: u32::from(gap.1),
                            priority: 0,
                        });
                        let resend = from_peer(&a, resend, id);
                        let answer = a.handle_packet(&resend);
                        let want: Vec<Packet> = reference[start..end].iter().map(marked).collect();
                        assert_eq!(answer, want, "{label} gap {gap:?}");
                    }
                }
            }
        }
    }

    /// `poll_transmit` as a scan of every send, in ID order: the reference
    /// the ready set must emit exactly the same packets as.
    fn poll_transmit_by_scan(ep: &mut HomaEndpoint) -> Vec<Packet> {
        let mut out = Vec::new();
        let mtu = ep.nic.mtu();
        for send in ep.sends.values_mut() {
            let end = send.granted.min(send.packets);
            if send.sent >= end {
                continue;
            }
            if send.sent == 0 {
                send.first_sent_at = ep.time.now;
            }
            send.probe = ep.time.start();
            let priority = send.priority;
            send.cut(send.sent..end, mtu, |mut p| {
                p.overlay.options.priority = priority;
                out.push(p);
            });
            send.sent = end;
        }
        ep.ready.clear();
        out
    }

    #[test]
    fn the_ready_set_emits_what_a_scan_of_every_send_would() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const RTO: Nanos = 20_000;
        const SIZES: [usize; 8] = [0, 64, 1461, 2922, 8192, 11_680, 20_000, 60_000];
        let (ck, _) = keys();
        let (path, _) = PathInfo::pair(4000, 5201);
        for (seed, stack, depth) in [
            (1, StackKind::Homa, 1),
            (2, StackKind::SmtSw, 8),
            (3, StackKind::Homa, 64),
            (4, StackKind::SmtSw, 64),
            (5, StackKind::Homa, 200),
            (6, StackKind::SmtHw, 200),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = HomaConfig::default();
            let mut fast = HomaEndpoint::new(&ck, stack, config, path).unwrap();
            let mut scan = HomaEndpoint::new(&ck, stack, config, path).unwrap();
            let mut live: Vec<u64> = Vec::new();
            let (mut now, mut peak, mut emitted) = (0, 0, 0);
            for step in 0..1_500 {
                let label = format!("{stack:?} seed {seed} depth {depth} step {step}");
                now += rng.gen_range(0..2_000u64);
                let pick = if live.is_empty() {
                    0
                } else {
                    live[rng.gen_range(0..live.len())]
                };
                let (got, want) = match rng.gen_range(0..7u32) {
                    0 | 1 if live.len() < depth => {
                        let data = vec![step as u8; SIZES[rng.gen_range(0..SIZES.len())]];
                        fast.set_clock(now, RTO);
                        scan.set_clock(now, RTO);
                        let id = fast.send_message(&data, step % 4).unwrap();
                        assert_eq!(scan.send_message(&data, step % 4).unwrap(), id);
                        live.push(id);
                        peak = peak.max(live.len());
                        (Vec::new(), Vec::new())
                    }
                    2 if !live.is_empty() => {
                        // Anything from a stale offset to past the end.
                        let packets = fast.sends[&pick].packets as u32;
                        let offset = rng.gen_range(0..packets + 4);
                        let g = grant(&fast, pick, offset, rng.gen_range(0..8u8));
                        fast.set_clock(now, RTO);
                        scan.set_clock(now, RTO);
                        (fast.handle_packet(&g), scan.handle_packet(&g))
                    }
                    3 if !live.is_empty() => {
                        let segments = &fast.sends[&pick].segments;
                        let seg = &segments[rng.gen_range(0..segments.len())];
                        let resend = PacketPayload::Resend(HomaResend {
                            message_id: pick,
                            offset: seg.segment.options().tso_offset + rng.gen_range(0..2u32),
                            length: rng.gen_range(0..48u32),
                            priority: 0,
                        });
                        let resend = from_peer(&fast, resend, pick);
                        fast.set_clock(now, RTO);
                        scan.set_clock(now, RTO);
                        (fast.handle_packet(&resend), scan.handle_packet(&resend))
                    }
                    4 => {
                        // Sometimes long enough for every clock to be due.
                        now += rng.gen_range(0..4 * RTO);
                        fast.set_clock(now, RTO);
                        scan.set_clock(now, RTO);
                        (
                            fast.poll_retransmit_unacked(),
                            scan.poll_retransmit_unacked(),
                        )
                    }
                    5 if !live.is_empty() => {
                        let ack = from_peer(
                            &fast,
                            PacketPayload::Ack(HomaAck { message_id: pick }),
                            pick,
                        );
                        fast.set_clock(now, RTO);
                        scan.set_clock(now, RTO);
                        live.retain(|&id| id != pick);
                        (fast.handle_packet(&ack), scan.handle_packet(&ack))
                    }
                    _ => {
                        fast.set_clock(now, RTO);
                        scan.set_clock(now, RTO);
                        let got = fast.poll_transmit();
                        emitted += got.len();
                        (got, poll_transmit_by_scan(&mut scan))
                    }
                };
                assert_eq!(got, want, "{label}");
                assert_eq!(fast.next_due(), scan.next_due(), "{label}");
                assert_eq!(fast.take_wake_by(), scan.take_wake_by(), "{label}");
                assert_eq!(fast.take_rtt_sample(), scan.take_rtt_sample(), "{label}");
                assert_eq!(fast.take_acked(), scan.take_acked(), "{label}");
            }
            assert_eq!(peak, depth, "{stack:?} seed {seed}: reached its depth");
            assert!(emitted > 0, "{stack:?} seed {seed}");
        }
    }

    #[test]
    fn an_ack_for_a_message_not_yet_sent_in_full_is_ignored_as_malformed() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 229) as u8).collect();
        let id = a.send_message(&data, 0).unwrap();
        let forged = from_peer(&a, PacketPayload::Ack(HomaAck { message_id: id }), id);
        // Nothing sent yet, then only the unscheduled prefix: a forged ACK
        // packet releases nothing ...
        assert!(a.handle_packet(&forged).is_empty());
        let prefix = a.poll_transmit();
        assert_eq!(prefix.len(), UNSCHEDULED_PACKETS);
        assert!(a.handle_packet(&forged).is_empty());
        // ... nor does one carried on the peer's DATA, whose payload is still
        // delivered.
        b.send_message(b"carrier", 0).unwrap();
        let mut carrier = b.poll_transmit();
        carrier[0].overlay.options.ack = Some((id as u32).to_be_bytes());
        a.handle_packet(&carrier[0]);
        assert_eq!(a.take_delivered()[0].data, b"carrier");
        assert_eq!(a.pending_sends(), 1);
        assert!(a.take_acked().is_empty());
        assert_eq!(a.recv_errors(), 3, "each counted as malformed");
        assert_eq!(a.session().receiver_stats().auth_failures, 0);
        // The transfer goes on and the genuine ACK releases it.
        let mut ab = LossyChannel::reliable();
        let mut ba = LossyChannel::reliable();
        ab.push(prefix);
        drive(&mut a, &mut b, &mut ab, &mut ba, 200);
        assert_eq!(b.take_delivered()[0].data, data);
        assert_eq!(a.take_acked(), [id]);
        assert_eq!(a.pending_sends(), 0);
    }

    #[test]
    fn a_carried_ack_releases_what_an_ack_packet_would() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        a.set_clock(0, PERIOD);
        let ids: Vec<u64> = (0..3)
            .map(|i| a.send_message(&[i; 100], 0).unwrap())
            .collect();
        for p in a.poll_transmit() {
            b.handle_packet(&p);
        }
        assert_eq!(b.take_delivered().len(), 3);
        // The peer carries the ACK of the middle one, alone, on its DATA.
        b.send_message(b"reply", 0).unwrap();
        let mut reply = b.poll_transmit();
        reply[0].overlay.options.ack = Some((ids[1] as u32).to_be_bytes());
        a.set_clock(7_000, PERIOD);
        a.handle_packet(&reply[0]);
        assert_eq!(a.take_acked(), [ids[1]]);
        assert_eq!(a.take_rtt_sample(), Some(7_000));
        assert_eq!(a.pending_sends(), 2);
        // Again, as a duplicate: nothing in flight answers to it.
        a.handle_packet(&reply[0]);
        assert!(a.take_acked().is_empty());
        assert_eq!(a.recv_errors(), 0);
        assert_eq!(
            a.take_delivered().len(),
            1,
            "the duplicate was not delivered"
        );
    }

    #[test]
    fn only_delivered_messages_are_acked_again() {
        let (mut a, mut b) = pair(StackKind::SmtSw, HomaConfig::default());
        // Message 0 is sent but never arrives ...
        a.send_message(&[0u8; 3000], 0).unwrap();
        let lost = a.poll_transmit();
        assert!(lost.len() > 1);
        // ... while enough later ones complete above it that the receiver's
        // replay guard gives up on the gap and skips it.
        let mut last = Vec::new();
        for i in 0..=smt_core::replay::MAX_TRACKED_IDS {
            a.send_message(&[i as u8; 3000], 0).unwrap();
            last = a.poll_transmit();
            for p in &last {
                for ack in b.handle_packet(p) {
                    a.handle_packet(&ack);
                }
            }
        }
        assert_eq!(
            b.take_delivered().len(),
            smt_core::replay::MAX_TRACKED_IDS + 1
        );
        assert_eq!(
            a.pending_sends(),
            1,
            "only message 0 is still unacknowledged"
        );
        assert!(
            b.session().already_delivered(0),
            "the guard skipped message 0"
        );
        assert_eq!(b.incomplete_recvs(), 0);

        // The skipped message's packets draw no ACK — it never arrived — and
        // mint no receive state.
        for p in &lost {
            assert!(b.handle_packet(p).is_empty());
        }
        assert_eq!(b.incomplete_recvs(), 0);
        // A duplicate of a delivered message draws exactly one ACK per packet.
        for p in &last {
            let out = b.handle_packet(p);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].overlay.tcp.packet_type, PacketType::Ack);
        }
        assert_eq!(b.incomplete_recvs(), 0);
        assert!(b.take_delivered().is_empty());
    }
}
