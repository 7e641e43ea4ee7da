//! The connection shell: everything a connection does the same way on every
//! stack, around one of two reliability engines.
//!
//! The paper's design point is that SMT reuses what TLS/TCP has — handshake,
//! record layer, NIC offload — and differs only in the reliability engine
//! underneath.  [`Endpoint`] says so in its type: a [`Shell`] plus an
//! engine, either the receiver-driven [`MessageEngine`] (Homa, SMT-sw,
//! SMT-hw) or the in-order [`StreamEngine`] (TCP, TLS, kTLS-sw, kTLS-hw,
//! TCPLS).  The shell is the single owner of these decisions:
//!
//! * **Handshake-to-data transition** — the [`HandshakeDriver`], the bounded
//!   pre-handshake send queue, 0-RTT early-data candidate selection (and its
//!   re-queue when a derived attempt falls back to a full handshake), the
//!   order of `HandshakeComplete` / `TicketReceived` / `MessageAcked(0)`, and
//!   the flush of queued sends under the IDs they were promised.  An engine
//!   contributes only `install_keys` and `send`.
//! * **The retransmission timer** — one [`RtoTimer`] computes the RTO (RTT
//!   estimated, opening at [`INITIAL_RTO_NS`] and clamped to
//!   [`MAX_RTO_NS`]) and holds the deadline.  *When*
//!   to arm, restart or disarm stays engine policy: the stream engine
//!   restarts it on cumulative progress and backs it off per fire; for the
//!   message engine it is a wake-up for the earliest of its per-message
//!   recovery clocks, which an arrival never extends.  The message engine's
//!   held ACKs carry a deadline of their own beside it, and the connection's
//!   timer fires at the earlier of the two.
//! * **Statistics** — the connection's one [`EndpointStats`].  The handshake
//!   driver and the engines increment it where the event happens; counters
//!   kept by `SmtSession` / `HomaEndpoint` (public APIs in their own right)
//!   are read at [`SecureEndpoint::stats`] time.
//! * **Connection plumbing** — the event queue, connection-ID stamping on
//!   egress, and the `dead` gate: after a fatal handshake or record-layer
//!   error the endpoint drops all ingress, emits nothing, reports no timer,
//!   and `send` / `rekey` fail with one error.

use super::handshake::{
    control_proto, DriverOutcome, HandshakeDriver, EARLY_DATA_MAX, MAX_QUEUED_BYTES,
};
use super::message::MessageEngine;
use super::stream::StreamEngine;
use super::{
    missing_keys, AcceptConfig, ConnectConfig, EndpointBuilder, EndpointError, EndpointResult,
    EndpointStats, Event, MessageId, SecureEndpoint,
};
use crate::cc::{RttEstimator, INITIAL_RTO_NS, MAX_RTO_NS};
use crate::homa::HomaConfig;
use crate::stack::StackKind;
use smt_core::segment::PathInfo;
use smt_crypto::handshake::{HandshakeTimings, SessionKeys};
use smt_sim::Nanos;
use smt_wire::{Packet, PacketType};
use std::collections::VecDeque;

/// The retransmission timer both engines arm: the period and the deadline.
#[derive(Debug)]
pub(crate) struct RtoTimer {
    /// RFC 6298 estimator; sampled under Karn's rule by the engines.
    rtt: RttEstimator,
    /// Exponential backoff shift on the estimated period, stream engine only:
    /// doubled on every fire, cleared on progress (as Linux clears it on a
    /// cumulative advance) — repeated fires with no progress mean the
    /// estimate is stale, while a recovering incast round makes progress
    /// every RTO and keeps the baseline cadence.  The message engine's
    /// backoff answers to probes and clean samples instead and lives beside
    /// its per-message clocks, in `HomaEndpoint`.
    backoff: u32,
    /// What [`rto`](Self::rto) returns, recomputed when an input moves: the
    /// message engine reads it on every call, to tell its transport.
    rto_ns: Nanos,
    deadline: Option<Nanos>,
    /// When the message engine's held ACKs leave as ACK packets, if no DATA
    /// carries them first: a second deadline beside the recovery one, which
    /// the connection's timer also fires at.
    pub(crate) ack_deadline: Option<Nanos>,
}

impl RtoTimer {
    fn new() -> Self {
        Self {
            rtt: RttEstimator::new(),
            backoff: 0,
            rto_ns: INITIAL_RTO_NS,
            deadline: None,
            ack_deadline: None,
        }
    }

    fn refresh(&mut self) {
        self.rto_ns = self
            .rtt
            .rto_ns()
            .saturating_mul(1 << self.backoff)
            .min(MAX_RTO_NS);
    }

    /// The period the next arming uses.
    pub(crate) fn rto(&self) -> Nanos {
        self.rto_ns
    }

    pub(crate) fn deadline(&self) -> Option<Nanos> {
        self.deadline
    }

    /// The earlier of the recovery and the held-ACK deadlines: when the
    /// connection's timer fires.
    fn next(&self) -> Option<Nanos> {
        match (self.deadline, self.ack_deadline) {
            (Some(recovery), Some(acks)) => Some(recovery.min(acks)),
            (recovery, acks) => recovery.or(acks),
        }
    }

    /// (Re)starts the timer one full period from `now`.
    pub(crate) fn arm(&mut self, now: Nanos) {
        self.deadline = Some(now + self.rto());
    }

    /// Starts the timer unless it is already running.
    pub(crate) fn arm_if_idle(&mut self, now: Nanos) {
        if self.deadline.is_none() {
            self.arm(now);
        }
    }

    /// Sets the deadline to `at`.
    pub(crate) fn arm_at(&mut self, at: Nanos) {
        self.deadline = Some(at);
    }

    /// Starts the timer for `at`, or pulls a later deadline in to it; an
    /// earlier deadline stands.
    pub(crate) fn arm_by(&mut self, at: Nanos) {
        if self.deadline.is_none_or(|deadline| at < deadline) {
            self.deadline = Some(at);
        }
    }

    pub(crate) fn disarm(&mut self) {
        self.deadline = None;
    }

    /// The timer fired with work outstanding: back the period off.
    fn fired(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
        self.refresh();
    }

    /// The peer made progress: the estimate is trustworthy again.
    pub(crate) fn progress(&mut self) {
        if self.backoff != 0 {
            self.backoff = 0;
            self.refresh();
        }
    }

    /// Feeds one Karn-clean round-trip measurement.
    pub(crate) fn sample(&mut self, rtt_ns: Nanos) {
        self.rtt.on_sample(rtt_ns);
        self.backoff = 0;
        self.refresh();
    }
}

/// The stack-independent half of a connection; see the module docs.
pub(crate) struct Shell {
    pub(crate) stack: StackKind,
    pub(crate) path: PathInfo,
    /// The in-band handshake driver; `None` on key-injected and plaintext
    /// endpoints.
    hs: Option<HandshakeDriver>,
    /// Sends queued while the handshake runs, under their promised IDs.
    queued: VecDeque<(u64, Vec<u8>)>,
    /// Bytes held in `queued` (bounded by [`MAX_QUEUED_BYTES`]).
    queued_bytes: usize,
    /// The ID the next accepted [`SecureEndpoint::send`] returns.
    next_id: u64,
    pub(crate) events: VecDeque<Event>,
    pub(crate) stats: EndpointStats,
    pub(crate) rto: RtoTimer,
    /// Timing breakdown of the completed in-band handshake (Table 2).
    hs_timings: Option<HandshakeTimings>,
    /// Set by a fatal handshake or record-layer error.
    dead: bool,
    /// Stamped into every egress packet when nonzero (listener demux).
    connection_id: u32,
}

impl Shell {
    /// True while the in-band handshake is still running (sends must queue).
    fn handshaking(&self) -> bool {
        self.hs.as_ref().is_some_and(|h| h.in_progress())
    }

    /// Kills the connection: every later call hits the `dead` gate.
    pub(crate) fn fail(&mut self, msg: String) {
        self.dead = true;
        self.events.push_back(Event::Error(msg));
    }

    /// Completes message `id` end to end: tells the application.
    pub(crate) fn acked(&mut self, id: u64) {
        self.events.push_back(Event::MessageAcked(MessageId(id)));
    }

    fn note_queued_bytes(&mut self) {
        self.stats.peak_tracked_bytes = self.stats.peak_tracked_bytes.max(self.queued_bytes as u64);
    }

    /// Takes the first queued message as 0-RTT early data, if it fits in one
    /// record.
    fn take_early_candidate(&mut self) -> Option<Vec<u8>> {
        let eligible = matches!(
            self.queued.front(),
            Some((0, data)) if data.len() <= EARLY_DATA_MAX
        );
        if !eligible {
            return None;
        }
        let (_, data) = self.queued.pop_front()?;
        self.queued_bytes = self.queued_bytes.saturating_sub(data.len());
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        Some(data)
    }

    /// Starts the client handshake on the first poll (so a queued send can
    /// ride the first flight as early data) and emits pending flights.
    fn poll_handshake(&mut self, now: Nanos, out: &mut Vec<Packet>) {
        if self.hs.as_ref().is_some_and(|hs| hs.needs_start()) {
            let mut hs = self.hs.take().expect("checked above");
            let early = if hs.wants_early_data() {
                self.take_early_candidate()
            } else {
                None
            };
            if let Err(e) = hs.start_client(now, early) {
                self.fail(e);
            }
            self.hs = Some(hs);
        }
        if let Some(hs) = &mut self.hs {
            hs.poll_transmit(out, &mut self.stats);
        }
    }
}

fn dead_error() -> EndpointError {
    EndpointError::Config("endpoint is dead (fatal handshake or record-layer error)".into())
}

/// The reliability engine under the shell.  Held inline: a connection is
/// built once and driven in place, so the spare bytes of the smaller variant
/// cost less than a pointer chase on every call.
#[allow(clippy::large_enum_variant)]
enum Engine {
    Message(MessageEngine),
    Stream(StreamEngine),
}

impl Engine {
    fn install_keys(
        &mut self,
        shell: &Shell,
        keys: &SessionKeys,
    ) -> Result<(), smt_core::SmtError> {
        match self {
            Engine::Message(m) => m.install_keys(shell, keys),
            Engine::Stream(s) => s.install_keys(keys),
        }
    }

    fn send(&mut self, shell: &mut Shell, id: u64, data: &[u8], now: Nanos) -> EndpointResult<()> {
        match self {
            Engine::Message(m) => m.send(shell, id, data, now),
            Engine::Stream(s) => s.send(shell, id, data),
        }
    }

    /// True while the retransmission timer has something to recover.
    fn work_outstanding(&self) -> bool {
        match self {
            Engine::Message(m) => m.work_outstanding(),
            Engine::Stream(s) => s.work_outstanding(),
        }
    }
}

/// How a new endpoint comes by its keys.
pub(super) enum Keying<'a> {
    /// Out-of-band keys (`None` is valid on the plaintext stacks only).
    Injected(Option<&'a SessionKeys>),
    /// In-band handshake, client side.
    Connect(ConnectConfig),
    /// In-band handshake, server side.
    Accept(AcceptConfig),
}

/// One endpoint of any evaluated stack, built by [`Endpoint::builder`]: the
/// connection shell shared by every stack around the message engine (Homa,
/// SMT-sw, SMT-hw) or the stream engine (TCP, TLS, kTLS-sw, kTLS-hw, TCPLS).
pub struct Endpoint {
    shell: Shell,
    engine: Engine,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("stack", &self.shell.stack)
            .field("handshaking", &self.shell.handshaking())
            .field("dead", &self.shell.dead)
            .field("events", &self.shell.events.len())
            .field("rto_deadline", &self.shell.rto.deadline())
            .finish_non_exhaustive()
    }
}

impl Endpoint {
    /// Starts building an endpoint.
    pub fn builder() -> EndpointBuilder {
        EndpointBuilder::default()
    }

    /// `stats().records_sealed`, without the rest of the snapshot (whose
    /// op-latency quantiles walk a histogram): the scenario runner reads it
    /// around every send it charges sealing time for.
    pub(crate) fn records_sealed(&self) -> u64 {
        self.shell.stats.records_sealed
            + match &self.engine {
                Engine::Message(m) => m.records_sealed(),
                Engine::Stream(s) => s.records_sealed(),
            }
    }

    /// The one construction path behind [`EndpointBuilder::build`],
    /// [`connect`](EndpointBuilder::connect) and
    /// [`accept`](EndpointBuilder::accept).
    pub(super) fn new(b: EndpointBuilder, keying: Keying<'_>) -> EndpointResult<Self> {
        let path = b.path.ok_or_else(|| {
            EndpointError::Config("endpoint path not set (builder.path(..))".into())
        })?;
        let mut engine = if b.stack.is_message_based() {
            let homa = HomaConfig {
                mtu: b.mtu,
                tso: b.tso,
            };
            Engine::Message(MessageEngine::new(b.stack, homa, path))
        } else {
            Engine::Stream(StreamEngine::new(b.stack, b.mtu, b.tso))
        };
        let mut shell = Shell {
            stack: b.stack,
            path,
            hs: None,
            queued: VecDeque::new(),
            queued_bytes: 0,
            next_id: 0,
            events: VecDeque::new(),
            stats: EndpointStats::default(),
            rto: RtoTimer::new(),
            hs_timings: None,
            dead: false,
            connection_id: b.connection_id,
        };
        // The plaintext stacks (TCP, Homa) have nothing to negotiate or
        // install, whichever way they were built.
        if b.stack.is_encrypted() {
            let proto = control_proto(b.stack);
            match keying {
                Keying::Injected(None) => return Err(missing_keys(b.stack)),
                Keying::Injected(Some(keys)) => {
                    engine.install_keys(&shell, keys)?;
                    shell.events.push_back(Event::HandshakeComplete {
                        peer_identity: keys.peer_identity.clone(),
                        forward_secret: keys.forward_secret,
                        rtt_ns: 0,
                        resumed: keys.resumed,
                    });
                }
                Keying::Connect(config) => {
                    shell.hs = Some(HandshakeDriver::client(config, path, b.mtu, proto));
                }
                Keying::Accept(config) => {
                    shell.hs = Some(HandshakeDriver::server(config, path, b.mtu, proto));
                }
            }
        }
        Ok(Self { shell, engine })
    }

    /// Ratchets this endpoint's send keys one epoch forward — the key-update
    /// that keeps long-lived connections from ever exhausting a key's safe
    /// data volume or sequence space.  Message stacks stamp the new epoch in
    /// the segment overlay (the peer keeps the old keys for a one-epoch drain
    /// window); stream stacks append an in-band TLS KeyUpdate record and
    /// reset the record sequence number.  Returns the new send epoch.  Fails
    /// on the plaintext stacks (TCP, Homa), before handshake completion and
    /// on a dead endpoint.  Each direction rekeys independently — the peer's
    /// send keys are untouched until it calls its own `rekey`.
    pub fn rekey(&mut self, now: Nanos) -> EndpointResult<u16> {
        let shell = &mut self.shell;
        if shell.dead {
            return Err(dead_error());
        }
        if shell.handshaking() {
            return Err(EndpointError::Config(
                "cannot rekey before handshake completion".into(),
            ));
        }
        match &mut self.engine {
            Engine::Message(m) => m.rekey(),
            Engine::Stream(s) => s.rekey(shell, now),
        }
    }

    /// The per-operation timing breakdown (paper Table 2) measured by this
    /// endpoint's completed **in-band** handshake: wall-clock durations of
    /// each crypto phase on this side, recorded by the handshake machines as
    /// they ran.  `None` before completion and for key-injected endpoints
    /// (which never handshake).
    pub fn handshake_timings(&self) -> Option<&HandshakeTimings> {
        self.shell.hs_timings.as_ref()
    }

    /// NIC model statistics of this endpoint's transmit path (TSO
    /// expansion, offload records, resyncs).
    pub fn nic_stats(&self) -> smt_sim::nic::NicStats {
        match &self.engine {
            Engine::Message(m) => m.nic_stats(),
            Engine::Stream(s) => s.nic_stats(),
        }
    }

    /// Applies the effects of one handled handshake CONTROL packet.
    fn apply_hs_outcome(&mut self, outcome: DriverOutcome, now: Nanos) {
        let shell = &mut self.shell;
        if let Some(data) = outcome.requeue_early {
            // A rejected derived attempt collapsed to a full handshake, which
            // cannot carry early data: message 0 goes back to the front of
            // the queue (its send counters were bumped when it was taken) and
            // flushes normally on completion.
            shell.stats.messages_sent = shell.stats.messages_sent.saturating_sub(1);
            shell.stats.bytes_sent = shell.stats.bytes_sent.saturating_sub(data.len() as u64);
            shell.queued_bytes += data.len();
            shell.queued.push_front((0, data));
            shell.note_queued_bytes();
        }
        if let Some(early) = outcome.early_data {
            // Delivered ahead of completion — the point of the 0-RTT exchange.
            if let Engine::Message(m) = &mut self.engine {
                m.early_data_delivered();
            }
            shell.stats.messages_delivered += 1;
            shell.stats.bytes_delivered += early.len() as u64;
            shell.events.push_back(Event::MessageDelivered {
                id: MessageId(0),
                data: early,
            });
        }
        if let Some(err) = outcome.error {
            shell.fail(err);
            return;
        }
        let Some(result) = outcome.complete else {
            return;
        };
        shell.hs_timings = Some(result.keys.timings.clone());
        if let Err(e) = self.engine.install_keys(shell, &result.keys) {
            shell.fail(format!("installing negotiated keys failed: {e}"));
            return;
        }
        shell.events.push_back(Event::HandshakeComplete {
            peer_identity: result.keys.peer_identity.clone(),
            forward_secret: result.keys.forward_secret,
            rtt_ns: result.rtt_ns,
            resumed: result.resumed,
        });
        if let Some(ticket) = result.ticket {
            shell
                .events
                .push_back(Event::TicketReceived(Box::new(ticket)));
        }
        if result.early_data_sent {
            // The server flight proves the 0-RTT record was accepted and
            // decrypted; the piggybacked message is done end to end.
            if let Engine::Message(m) = &mut self.engine {
                m.early_data_acked();
            }
            shell.acked(0);
        }
        // Flush the sends that queued during the handshake.
        shell.queued_bytes = 0;
        for (id, data) in std::mem::take(&mut shell.queued) {
            if let Err(e) = self.engine.send(shell, id, &data, now) {
                shell.fail(format!("flushing queued send failed: {e}"));
                return;
            }
        }
        if self.engine.work_outstanding() {
            shell.rto.arm_if_idle(now);
        }
    }
}

impl SecureEndpoint for Endpoint {
    fn stack(&self) -> StackKind {
        self.shell.stack
    }

    fn send(&mut self, data: &[u8], now: Nanos) -> EndpointResult<MessageId> {
        let shell = &mut self.shell;
        if shell.dead {
            return Err(dead_error());
        }
        let id = shell.next_id;
        if shell.handshaking() {
            // Queue behind the handshake; the first queued message may ride
            // the first client flight as 0-RTT early data.  Send counters are
            // bumped when the bytes actually leave (flush or piggyback).
            if shell.queued_bytes + data.len() > MAX_QUEUED_BYTES {
                return Err(EndpointError::Config(format!(
                    "handshake send queue full ({MAX_QUEUED_BYTES} bytes); retry after \
                     HandshakeComplete"
                )));
            }
            shell.queued.push_back((id, data.to_vec()));
            shell.queued_bytes += data.len();
            shell.note_queued_bytes();
        } else {
            self.engine.send(shell, id, data, now)?;
            shell.rto.arm_if_idle(now);
        }
        shell.next_id += 1;
        Ok(MessageId(id))
    }

    fn handle_datagram(&mut self, datagram: &Packet, now: Nanos) -> EndpointResult<()> {
        let shell = &mut self.shell;
        if shell.dead {
            shell.stats.datagrams_dropped += 1;
            return Ok(());
        }
        if datagram.overlay.tcp.packet_type == PacketType::Control {
            if let Some(hs) = &mut shell.hs {
                let outcome = hs.handle_control(datagram, now, &mut shell.stats);
                self.apply_hs_outcome(outcome, now);
            }
            return Ok(());
        }
        if shell.handshaking() {
            // Data raced ahead of the handshake (reordering): the sender's
            // retransmission machinery recovers it once keys are installed.
            shell.stats.datagrams_dropped += 1;
            return Ok(());
        }
        match &mut self.engine {
            Engine::Message(m) => {
                m.handle_datagram(shell, datagram, now);
                Ok(())
            }
            Engine::Stream(s) => s.handle_datagram(shell, datagram, now),
        }
    }

    fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize {
        let shell = &mut self.shell;
        // A dead endpoint emits nothing — in particular not a pending ACK
        // covering bytes the record layer rejected, which would make the
        // sender release (and report as acknowledged) an undelivered message.
        if shell.dead {
            return 0;
        }
        let before = out.len();
        shell.poll_handshake(now, out);
        if !shell.dead {
            match &mut self.engine {
                Engine::Message(m) => m.poll_transmit(shell, now, out),
                Engine::Stream(s) => s.poll_transmit(shell, now, out),
            }
        }
        if shell.connection_id != 0 {
            for p in &mut out[before..] {
                p.overlay.options.connection_id = shell.connection_id;
            }
        }
        out.len() - before
    }

    fn poll_event(&mut self) -> Option<Event> {
        self.shell.events.pop_front()
    }

    fn next_timeout(&self) -> Option<Nanos> {
        if self.shell.dead {
            return None;
        }
        let hs = self.shell.hs.as_ref().and_then(|h| h.next_timeout());
        [hs, self.shell.rto.next()].into_iter().flatten().min()
    }

    fn on_timeout(&mut self, now: Nanos) {
        let shell = &mut self.shell;
        if shell.dead {
            return;
        }
        if let Some(hs) = &mut shell.hs {
            hs.on_timeout(now, &mut shell.stats);
        }
        if let Engine::Message(m) = &mut self.engine {
            m.flush_acks(shell, now);
        }
        if shell.rto.deadline().is_none_or(|deadline| now < deadline) {
            return; // Not armed, or an early tick.
        }
        if !self.engine.work_outstanding() {
            shell.rto.disarm();
            return;
        }
        match &mut self.engine {
            // Per-message clocks: the engine decides what, if anything, was
            // due and when to wake next.
            Engine::Message(m) => m.recover(shell, now),
            Engine::Stream(s) => {
                shell.stats.timeouts_fired += 1;
                shell.rto.fired();
                s.recover(now);
                // A fired timer always re-arms one full (backed-off) period
                // out.
                shell.rto.arm(now);
            }
        }
    }

    fn stats(&self) -> EndpointStats {
        let mut stats = self.shell.stats;
        stats.srtt_ns = self.shell.rto.rtt.srtt_ns();
        match &self.engine {
            Engine::Message(m) => m.read_stats(&mut stats),
            Engine::Stream(s) => s.read_stats(&mut stats),
        }
        stats
    }
}
