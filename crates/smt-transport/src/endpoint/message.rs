//! The message reliability engine: Homa, SMT-sw and SMT-hw.
//!
//! A thin adapter between the connection [`Shell`] and [`HomaEndpoint`],
//! which already runs the real SMT engine (encryption, segmentation,
//! reassembly, replay rejection) over the simulated NIC and the
//! receiver-driven Homa mechanisms (unscheduled data, GRANTs, RESENDs, ACKs).
//! This engine owns what is specific to that transport: the control-packet
//! outbox, NIC-queue spreading, batch-crypto staging of whole messages, the
//! Karn-filtered RTT probe per message, and the timer *policy* — armed
//! whenever sends are unacknowledged or receives incomplete, never extended
//! by an arrival.  `HomaEndpoint` holds a message's state only while it is
//! in flight, so "work outstanding" is two map lengths, and a duplicate of a
//! finished message is re-ACKed without bringing back state that would arm
//! the timer.
//!
//! The underlying session numbers its messages from zero, while a 0-RTT
//! early-data message consumed public ID 0 without ever entering the
//! session.  The engine therefore keeps a send/receive ID offset (1 after
//! early data, else 0) — private here, since only this translation needs it —
//! so the flushed queue and every later message keep the IDs the shell
//! promised the application.

use super::shell::Shell;
use super::{EndpointError, EndpointResult, EndpointStats, Event, MessageId};
use crate::cc::CcConfig;
use crate::homa::{HomaConfig, HomaEndpoint};
use crate::stack::StackKind;
use smt_core::config::CryptoMode;
use smt_core::segment::{PathInfo, StagedMessage};
use smt_crypto::handshake::SessionKeys;
use smt_crypto::RecordSealer;
use smt_sim::Nanos;
use smt_wire::{Packet, PacketType};
use std::collections::{BTreeMap, VecDeque};

/// The receiver-driven message transport under the connection shell.
pub(crate) struct MessageEngine {
    config: HomaConfig,
    /// Congestion-control tuning pushed into the keyed transport (SRPT
    /// grants, DESIGN.md §10).
    cc: CcConfig,
    /// The keyed transport; `None` until the in-band handshake installs keys.
    inner: Option<HomaEndpoint>,
    /// Public ID = session ID + offset, on the send side (1 after 0-RTT
    /// early data consumed the first public ID without entering the session).
    tx_id_offset: u64,
    /// Same offset on the receive side (1 after early data was accepted).
    rx_id_offset: u64,
    outbox: VecDeque<Packet>,
    nic_queues: usize,
    next_queue: usize,
    /// Session-ID → (wire send time, retransmit counter at send) for RTT
    /// sampling; entries leave on ack, bounded for abandoned sends.
    send_times: BTreeMap<u64, (Nanos, u64)>,
    /// Messages staged with the batch engine, awaiting the next poll's
    /// fused flush.
    staged: Vec<StagedMessage>,
}

impl MessageEngine {
    pub(crate) fn new(stack: StackKind, config: HomaConfig, path: PathInfo, cc: CcConfig) -> Self {
        debug_assert!(stack.is_message_based());
        let mut engine = Self {
            config,
            cc,
            inner: None,
            tx_id_offset: 0,
            rx_id_offset: 0,
            outbox: VecDeque::new(),
            // The session configuration HomaEndpoint will build with, so the
            // NIC queue count is known before the keys are.
            nic_queues: crate::homa::base_smt_config(stack).nic_queues.max(1),
            next_queue: 0,
            send_times: BTreeMap::new(),
            staged: Vec::new(),
        };
        if !stack.is_encrypted() {
            engine.install(HomaEndpoint::plaintext(config, path));
        }
        engine
    }

    /// Installs a keyed transport, pushing the congestion-control tuning
    /// down so its grant machinery matches the builder's configuration.
    fn install(&mut self, mut inner: HomaEndpoint) {
        inner.set_cc(self.cc);
        self.inner = Some(inner);
    }

    pub(crate) fn install_keys(
        &mut self,
        shell: &Shell,
        keys: &SessionKeys,
    ) -> Result<(), smt_core::SmtError> {
        self.install(HomaEndpoint::new(
            keys,
            shell.stack,
            self.config,
            shell.path,
        )?);
        Ok(())
    }

    /// The session's seal half when it seals in software (SMT-hw seals in
    /// the NIC, so there is nothing to batch).
    pub(crate) fn sealer(&self) -> Option<RecordSealer> {
        let session = self.inner.as_ref()?.session();
        if session.config().crypto_mode != CryptoMode::Software {
            return None;
        }
        session.sender_sealer()
    }

    /// The first public ID was delivered from 0-RTT early data.
    pub(crate) fn early_data_delivered(&mut self) {
        self.rx_id_offset = 1;
    }

    /// The first public ID was sent, and acknowledged, as 0-RTT early data.
    pub(crate) fn early_data_acked(&mut self) {
        self.tx_id_offset = 1;
    }

    pub(crate) fn nic_stats(&self) -> smt_sim::nic::NicStats {
        self.inner
            .as_ref()
            .map(|i| i.nic_stats())
            .unwrap_or_default()
    }

    /// True while sends are unacknowledged, receives incomplete, or messages
    /// are staged with the batch engine awaiting the next poll's flush.
    pub(crate) fn work_outstanding(&self) -> bool {
        !self.staged.is_empty()
            || self
                .inner
                .as_ref()
                .is_some_and(|i| i.incomplete_recvs() > 0 || i.pending_sends() > 0)
    }

    /// Sends `data` through the keyed session as public message `id`.
    pub(crate) fn send(
        &mut self,
        shell: &mut Shell,
        id: u64,
        data: &[u8],
        now: Nanos,
    ) -> EndpointResult<()> {
        // Spread messages across the NIC TX queues round-robin, one queue per
        // message (§4.4.2: all segments of a message share a queue).
        let queue = self.next_queue;
        self.next_queue = (self.next_queue + 1) % self.nic_queues;
        let inner = self.inner.as_mut().expect("the shell sends once keyed");
        let retx_at_send = inner.retransmitted_packets();
        let session_id = if let Some((batch, conn)) = shell.batch() {
            // Stage the record seal work with the shared batch engine; the
            // ciphertext is produced at the next poll's fused flush. The plan
            // (IDs, segment boundaries, exact wire sizes) is final now.
            let staged = inner.stage_message(data, queue, batch, conn)?;
            let session_id = staged.message_id;
            self.staged.push(staged);
            session_id
        } else {
            inner.send_message(data, queue)?
        };
        debug_assert_eq!(
            session_id + self.tx_id_offset,
            id,
            "send kept its public ID"
        );
        // RTT probe for the adaptive RTO (bounded: abandoned sends must not
        // grow the map forever).
        if shell.rto.is_adaptive() && self.send_times.len() < 1024 {
            self.send_times.insert(session_id, (now, retx_at_send));
        }
        Ok(())
    }

    pub(crate) fn handle_datagram(&mut self, shell: &mut Shell, datagram: &Packet, now: Nanos) {
        let inner = self
            .inner
            .as_mut()
            .expect("the shell routes data once keyed");
        let errors_before = inner.recv_errors();
        let responses = inner.handle_packet(datagram);
        self.outbox.extend(responses);
        // Data the session accepted is packet-level progress: a per-flow
        // endpoint may wait a long time for *message*-level progress (one
        // message per flow), and recovery must keep its ~RTO cadence while
        // the peer is demonstrably still delivering.  Rejected data (forged,
        // garbage, conflicting duplicates) must NOT reset the clock, or an
        // attacker feeding junk keeps the timer hot forever.
        if datagram.overlay.tcp.packet_type == PacketType::Data
            && inner.recv_errors() == errors_before
        {
            shell.rto.progress();
        }
        // Surface deliveries and acks.
        let mut progressed = false;
        for m in inner.take_delivered() {
            progressed = true;
            shell.events.push_back(Event::MessageDelivered {
                id: MessageId(m.message_id + self.rx_id_offset),
                data: m.data,
            });
        }
        let retx_now = inner.retransmitted_packets();
        for session_id in inner.take_acked() {
            progressed = true;
            // Karn's rule, conservatively: any retransmission between this
            // message's send and its ack disqualifies the sample.
            if let Some((sent_at, retx_at_send)) = self.send_times.remove(&session_id) {
                if retx_now == retx_at_send {
                    shell.rto.sample(now.saturating_sub(sent_at));
                }
            }
            shell.acked(session_id + self.tx_id_offset, now);
        }
        if progressed {
            shell.rto.progress();
        }
        // Arrivals never *extend* an armed deadline — on a busy session,
        // traffic for other messages would otherwise starve the only recovery
        // path of a fully-lost message (the sender timeout) indefinitely.
        // They only arm a missing timer or disarm a no-longer-needed one.
        if self.work_outstanding() {
            shell.rto.arm_if_idle(now);
        } else {
            shell.rto.disarm();
        }
    }

    pub(crate) fn poll_transmit(&mut self, shell: &mut Shell, out: &mut Vec<Packet>) {
        // A failed flush kills the connection; this poll still drains what
        // was already committed to the wire.
        let _ = self.flush_staged(shell);
        if let Some(inner) = &mut self.inner {
            out.extend(self.outbox.drain(..));
            out.extend(inner.poll_transmit());
        }
    }

    /// The timer fired with work outstanding.  Receiver side: request
    /// RESENDs for incomplete messages.  Sender side: retransmit the
    /// unscheduled prefix of unacknowledged sends (recovers fully-lost
    /// messages and lost ACKs).
    pub(crate) fn recover(&mut self) {
        let Some(inner) = &mut self.inner else { return };
        let resends = inner.poll_resend();
        self.outbox.extend(resends);
        let retx = inner.poll_retransmit_unacked();
        self.outbox.extend(retx);
    }

    /// The SMT key-update: the new epoch rides in every subsequent segment's
    /// overlay option area, and the peer keeps the old keys for a one-epoch
    /// drain window.
    pub(crate) fn rekey(&mut self, shell: &mut Shell) -> EndpointResult<u16> {
        // Records staged under the old key must be sealed under it.
        self.flush_staged(shell)?;
        let inner = self.inner.as_mut().expect("the shell rekeys once keyed");
        Ok(inner.rekey()?)
    }

    /// Adds the counters the session and the transport keep themselves.
    pub(crate) fn read_stats(&self, stats: &mut EndpointStats) {
        let Some(inner) = &self.inner else { return };
        let session = inner.session().stats();
        let receiver = inner.session().receiver_stats();
        stats.messages_sent += session.messages_sent;
        stats.bytes_sent += session.bytes_sent;
        stats.wire_bytes_sent += session.wire_bytes_sent;
        stats.messages_delivered += session.messages_received;
        stats.bytes_delivered += session.bytes_received;
        stats.wire_bytes_received += session.wire_bytes_received;
        stats.replays_rejected += receiver.packets_replayed + receiver.packets_duplicate;
        stats.retransmissions += inner.retransmitted_packets();
        stats.datagrams_dropped += inner.recv_errors() + receiver.epoch_rejected;
        stats.records_sealed += session.records_sealed;
        stats.auth_failures += receiver.auth_failures;
        // Typed-error rejections that were not authentication failures
        // were malformed wire input.
        stats.malformed_rejected += inner.recv_errors().saturating_sub(receiver.auth_failures);
        stats.state_evictions += receiver.state_evictions + inner.recv_state_evictions();
        stats.peak_tracked_bytes = stats.peak_tracked_bytes.max(receiver.peak_tracked_bytes);
        stats.grants_outstanding = inner.grants_outstanding();
    }

    /// Materialises engine-staged messages: runs the shared fused flush (the
    /// first endpoint on the host to poll seals *every* registered
    /// connection's staged records in one pass), drains this connection's
    /// ciphertext and hands the finished messages to the transport.  A
    /// failure is fatal to the connection.
    fn flush_staged(&mut self, shell: &mut Shell) -> EndpointResult<()> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let (batch, conn) = shell.batch().expect("staged implies registration");
        batch.flush();
        let mut sealed = batch.drain(conn);
        let inner = self.inner.as_mut().expect("staged implies keyed");
        for staged in std::mem::take(&mut self.staged) {
            match staged.finish(&mut sealed) {
                Ok(out) => {
                    inner.send_prepared(out);
                }
                Err(e) => {
                    let msg = format!("finishing staged message failed: {e}");
                    shell.fail(msg.clone());
                    return Err(EndpointError::Config(msg));
                }
            }
        }
        debug_assert!(sealed.is_empty(), "drained ciphertext fully consumed");
        Ok(())
    }
}
