//! The message reliability engine: Homa, SMT-sw and SMT-hw.
//!
//! A thin adapter between the connection [`Shell`] and [`HomaEndpoint`],
//! which already runs the real SMT engine (encryption, segmentation,
//! reassembly, replay rejection) over the simulated NIC and the
//! receiver-driven Homa mechanisms (unscheduled data, GRANTs, RESENDs, ACKs).
//! This engine owns what is specific to that transport: the control-packet
//! outbox, NIC-queue spreading, and the timer *policy*.  Packets are built in
//! the buffer they leave from: `HomaEndpoint` appends its responses to the
//! outbox and cuts data packets into the caller's `out`, and its delivered /
//! acked queues are drained where they stand.
//!
//! **Loss recovery is per message, and `HomaEndpoint` owns it** (its module
//! docs and DESIGN.md §10 state the rules): a recovery clock in every
//! in-flight message's own state, Karn's rule judged per message, the
//! connection's backoff raised by probes and cleared only by a clean sample.
//! This engine tells the transport the time and the RTO ([`RtoTimer::rto`]),
//! feeds the estimator the samples it hands back, and keeps the connection
//! timer as a wake-up for the earliest due message: an arrival never extends
//! it (traffic for other messages must not starve the probe of a fully-lost
//! one), a freshly started clock pulls it in, and a fire re-arms it from the
//! earliest due time, at least a quarter of the RTO out.  `HomaEndpoint`
//! holds a message's state only while it is in flight, so "work outstanding"
//! is two map lengths, and a duplicate of a finished message is re-ACKed
//! without bringing back state that would arm the timer.
//!
//! **ACKs ride on DATA.**  The ACK a handled packet earns (for a delivered
//! message, or again for a duplicate of one) is held here, not sent: the next
//! DATA packets this connection emits — first transmissions, RESEND answers
//! and probes alike — carry the held ACKs, one per packet, in the overlay's
//! acknowledgement word.  An ACK still held 1 ns after the instant it was
//! earned leaves as an ACK packet.  So a reply or next request sent in the
//! instant of delivery makes an RPC two packets, not four, and no ACK leaves
//! more than 1 ns later than an immediate one would.  Held ACKs have a
//! deadline of their own beside the recovery wake-up
//! ([`RtoTimer::ack_deadline`]; the connection's timer fires at the earlier of
//! the two), which an ACK that leaves on DATA takes with it, and a fire that
//! only flushes ACKs is no recovery timeout.
//! Holding pays only where replies leave in the instant of delivery; where
//! they do not (a deferred reply, a burst the CPU charge stamps later,
//! one-way traffic) it costs the driver a wake-up per message and saves no
//! packet.  So a held ACK that had to leave on its own makes the connection
//! send the ACKs after it at once, until DATA leaves in the instant an ACK
//! was earned again.
//!
//! The underlying session numbers its messages from zero, while a 0-RTT
//! early-data message consumed public ID 0 without ever entering the
//! session.  The engine therefore keeps a send/receive ID offset (1 after
//! early data, else 0) — private here, since only this translation needs it —
//! so the flushed queue and every later message keep the IDs the shell
//! promised the application.

use super::shell::{RtoTimer, Shell};
use super::{EndpointResult, EndpointStats, Event, MessageId};
use crate::homa::{HomaConfig, HomaEndpoint};
use crate::stack::StackKind;
use smt_core::segment::PathInfo;
use smt_core::NIC_QUEUES;
use smt_crypto::handshake::SessionKeys;
use smt_sim::Nanos;
use smt_wire::{Packet, PacketType};

/// After a fire the next wake-up is the earliest due time among in-flight
/// messages, but no sooner than the RTO over this: without a floor a
/// connection whose messages come due back to back wakes once per message,
/// with a whole period a message lost just after a fire waits almost two
/// (DESIGN.md §10 has the measurements).
const WAKE_SPACING: Nanos = 4;

/// The receiver-driven message transport under the connection shell.
pub(crate) struct MessageEngine {
    config: HomaConfig,
    /// The keyed transport; `None` until the in-band handshake installs keys.
    inner: Option<HomaEndpoint>,
    /// Public ID = session ID + offset, on the send side (1 after 0-RTT
    /// early data consumed the first public ID without entering the session).
    tx_id_offset: u64,
    /// Same offset on the receive side (1 after early data was accepted).
    rx_id_offset: u64,
    /// Responses to handled packets and recovery traffic, until the next
    /// `poll_transmit` moves them out.
    outbox: Vec<Packet>,
    /// Session IDs of the ACKs waiting for DATA to ride on, oldest first.
    held_acks: Vec<u64>,
    /// Whether ACKs wait for DATA (module docs): cleared when a held ACK had
    /// to leave on its own, set again when DATA leaves in the instant an ACK
    /// was earned.
    hold_acks: bool,
    /// The instant the last ACK was earned.
    acked_at: Nanos,
    next_queue: usize,
}

impl MessageEngine {
    pub(crate) fn new(stack: StackKind, config: HomaConfig, path: PathInfo) -> Self {
        debug_assert!(stack.is_message_based());
        Self {
            config,
            inner: (!stack.is_encrypted()).then(|| HomaEndpoint::plaintext(config, path)),
            tx_id_offset: 0,
            rx_id_offset: 0,
            outbox: Vec::new(),
            held_acks: Vec::new(),
            hold_acks: true,
            acked_at: 0,
            next_queue: 0,
        }
    }

    pub(crate) fn install_keys(
        &mut self,
        shell: &Shell,
        keys: &SessionKeys,
    ) -> Result<(), smt_core::SmtError> {
        self.inner = Some(HomaEndpoint::new(
            keys,
            shell.stack,
            self.config,
            shell.path,
        )?);
        Ok(())
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

    /// True while sends are unacknowledged or receives incomplete.
    pub(crate) fn work_outstanding(&self) -> bool {
        self.inner
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
        self.next_queue = (self.next_queue + 1) % NIC_QUEUES;
        let inner = self.inner.as_mut().expect("the shell sends once keyed");
        inner.set_clock(now, shell.rto.rto());
        let session_id = inner.send_message(data, queue)?;
        debug_assert_eq!(
            session_id + self.tx_id_offset,
            id,
            "send kept its public ID"
        );
        self.sync_timer(&mut shell.rto);
        Ok(())
    }

    /// Ends every call that may have moved a message's clock.  A clock
    /// (re)started just now is due one period out, so the wake-up must come
    /// no later; nothing else an arrival does may move the deadline.
    fn sync_timer(&mut self, rto: &mut RtoTimer) {
        let wake_by = self.inner.as_mut().and_then(|i| i.take_wake_by());
        if !self.work_outstanding() {
            rto.disarm();
        } else if let Some(due) = wake_by {
            rto.arm_by(due);
        }
    }

    pub(crate) fn handle_datagram(&mut self, shell: &mut Shell, datagram: &Packet, now: Nanos) {
        let inner = self
            .inner
            .as_mut()
            .expect("the shell routes data once keyed");
        inner.set_clock(now, shell.rto.rto());
        inner.handle_packet_into(datagram, &mut self.outbox, Some(&mut self.held_acks));
        if !self.held_acks.is_empty() {
            self.acked_at = now;
            if self.hold_acks {
                shell.rto.ack_deadline.get_or_insert(now + 1);
            } else {
                let acks = self.held_acks.drain(..).map(|id| inner.ack_packet(id));
                self.outbox.extend(acks);
            }
        }
        // Surface deliveries and acks.
        for m in inner.drain_delivered() {
            shell.events.push_back(Event::MessageDelivered {
                id: MessageId(m.message_id + self.rx_id_offset),
                data: m.data,
            });
        }
        // Karn's rule per message: only the ACK of a message that was never
        // retransmitted carries a sample.
        if let Some(rtt) = inner.take_rtt_sample() {
            shell.rto.sample(rtt);
        }
        for session_id in inner.drain_acked() {
            shell.acked(session_id + self.tx_id_offset);
        }
        self.sync_timer(&mut shell.rto);
    }

    pub(crate) fn poll_transmit(&mut self, shell: &mut Shell, now: Nanos, out: &mut Vec<Packet>) {
        let Some(inner) = &mut self.inner else { return };
        inner.set_clock(now, shell.rto.rto());
        let before = out.len();
        out.append(&mut self.outbox);
        inner.poll_transmit_into(out);
        // Transmitting (re)starts clocks; it cannot finish outstanding work.
        if let Some(due) = inner.take_wake_by() {
            shell.rto.arm_by(due);
        }
        let is_data = |p: &Packet| p.overlay.tcp.packet_type == PacketType::Data;
        // Held ACKs ride on the DATA leaving now, unless their instant is
        // over: then the fire at their deadline sends them as they are.
        if shell.rto.ack_deadline.is_some_and(|due| now <= due) {
            let data = out[before..].iter_mut().filter(|p| is_data(p));
            let mut carried = 0;
            for (p, &id) in data.zip(&self.held_acks) {
                p.overlay.options.ack = Some((id as u32).to_be_bytes());
                carried += 1;
            }
            self.held_acks.drain(..carried);
            if self.held_acks.is_empty() {
                shell.rto.ack_deadline = None;
            }
        } else if !self.hold_acks && now == self.acked_at && out[before..].iter().any(is_data) {
            // DATA follows a delivery in its instant again: the next ACK
            // can wait for it.
            self.hold_acks = true;
        }
    }

    /// The held ACKs' deadline came: each leaves as an ACK packet, and the
    /// ones earned after them leave at once.
    pub(crate) fn flush_acks(&mut self, shell: &mut Shell, now: Nanos) {
        if shell.rto.ack_deadline.is_none_or(|due| now < due) {
            return;
        }
        let inner = self.inner.as_ref().expect("only a keyed engine holds ACKs");
        self.outbox
            .extend(self.held_acks.drain(..).map(|id| inner.ack_packet(id)));
        shell.rto.ack_deadline = None;
        self.hold_acks = false;
    }

    /// The timer fired with work outstanding.  Receiver side: request
    /// RESENDs for the incomplete messages that have stalled.  Sender side:
    /// probe the unacknowledged sends that have gone quiet (recovers
    /// fully-lost messages and lost ACKs).  Messages that are not due are
    /// left alone, and a wake-up that finds nothing due only re-arms.
    pub(crate) fn recover(&mut self, shell: &mut Shell, now: Nanos) {
        let Some(inner) = &mut self.inner else { return };
        inner.set_clock(now, shell.rto.rto());
        if inner.next_due().is_some_and(|due| due <= now) {
            shell.stats.timeouts_fired += 1;
            self.outbox.extend(inner.poll_resend());
            self.outbox.extend(inner.poll_retransmit_unacked());
        }
        let floor = now + shell.rto.rto() / WAKE_SPACING;
        match inner.next_due() {
            Some(due) => shell.rto.arm_at(due.max(floor)),
            // The fire abandoned the last stalled receive: nothing is in
            // flight any more.
            None => shell.rto.disarm(),
        }
    }

    /// The SMT key-update: the new epoch rides in every subsequent segment's
    /// overlay option area, and the peer keeps the old keys for a one-epoch
    /// drain window.
    pub(crate) fn rekey(&mut self) -> EndpointResult<u16> {
        let inner = self.inner.as_mut().expect("the shell rekeys once keyed");
        Ok(inner.rekey()?)
    }

    /// Records the session sealed; none before the keys are installed.
    pub(crate) fn records_sealed(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.session().stats().records_sealed)
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
        stats.records_sealed += self.records_sealed();
        stats.auth_failures += receiver.auth_failures;
        // Typed-error rejections that were not authentication failures
        // were malformed wire input.
        stats.malformed_rejected += inner.recv_errors().saturating_sub(receiver.auth_failures);
        stats.state_evictions += receiver.state_evictions + inner.recv_state_evictions();
        stats.peak_tracked_bytes = stats.peak_tracked_bytes.max(receiver.peak_tracked_bytes);
        stats.grants_outstanding = inner.grants_outstanding();
    }
}

#[cfg(test)]
mod tests {
    use crate::cc::INITIAL_RTO_NS;
    use crate::endpoint::tests::keys;
    use crate::endpoint::{
        drive_pair, take_delivered, Endpoint, EndpointResult, EndpointStats, Event, MessageId,
        PairFabric, SecureEndpoint,
    };
    use crate::stack::StackKind;
    use smt_sim::net::{FaultConfig, LinkConfig};
    use smt_sim::Nanos;
    use smt_wire::{Packet, PacketType};

    /// An endpoint whose egress passes a filter: `keep(now, packet)` sees
    /// every packet as it leaves and decides whether the wire carries it.
    /// Lets [`drive_pair`] lose exactly the packets a test names.
    struct Tapped<F> {
        inner: Endpoint,
        keep: F,
    }

    impl<F: FnMut(Nanos, &Packet) -> bool> SecureEndpoint for Tapped<F> {
        fn stack(&self) -> StackKind {
            self.inner.stack()
        }
        fn send(&mut self, data: &[u8], now: Nanos) -> EndpointResult<MessageId> {
            self.inner.send(data, now)
        }
        fn handle_datagram(&mut self, datagram: &Packet, now: Nanos) -> EndpointResult<()> {
            self.inner.handle_datagram(datagram, now)
        }
        fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize {
            let mut sent = Vec::new();
            self.inner.poll_transmit(now, &mut sent);
            let before = out.len();
            out.extend(sent.into_iter().filter(|p| (self.keep)(now, p)));
            out.len() - before
        }
        fn poll_event(&mut self) -> Option<Event> {
            self.inner.poll_event()
        }
        fn next_timeout(&self) -> Option<Nanos> {
            self.inner.next_timeout()
        }
        fn on_timeout(&mut self, now: Nanos) {
            self.inner.on_timeout(now)
        }
        fn stats(&self) -> EndpointStats {
            self.inner.stats()
        }
    }

    fn pair(stack: StackKind) -> (Endpoint, Endpoint) {
        let (ck, sk) = keys();
        Endpoint::builder()
            .stack(stack)
            .pair(&ck, &sk, 4000, 5201)
            .unwrap()
    }

    fn smt_pair() -> (Endpoint, Endpoint) {
        pair(StackKind::SmtSw)
    }

    const MESSAGE_STACKS: [StackKind; 3] = [StackKind::SmtSw, StackKind::SmtHw, StackKind::Homa];

    /// `requests` echo RPCs at depth 1, each reply and each next request sent
    /// in the instant the message before it was delivered, then the pair
    /// driven to quiescence.  Returns the replies delivered and the requests
    /// acknowledged.
    fn echo(
        client: &mut impl SecureEndpoint,
        server: &mut impl SecureEndpoint,
        link: &mut PairFabric,
        requests: usize,
    ) -> (usize, usize) {
        let request = [5u8; 64];
        client.send(&request, link.now()).unwrap();
        let (mut sent, mut replies, mut acked) = (1, 0, 0);
        while drive_pair(client, server, link, 1) > 0 {
            let now = link.now();
            for (_, data) in take_delivered(server) {
                server.send(&data, now).unwrap();
            }
            while let Some(event) = client.poll_event() {
                match event {
                    Event::MessageDelivered { .. } => {
                        replies += 1;
                        if sent < requests {
                            client.send(&request, now).unwrap();
                            sent += 1;
                        }
                    }
                    Event::MessageAcked(_) => acked += 1,
                    _ => {}
                }
            }
        }
        (replies, acked)
    }

    fn is_ack(p: &Packet) -> bool {
        p.overlay.tcp.packet_type == PacketType::Ack
    }

    #[test]
    fn a_steady_echo_carries_every_ack_on_data() {
        for stack in MESSAGE_STACKS {
            let (client, server) = pair(stack);
            let (mut client_acks, mut server_acks, mut carried) = (0, 0, 0);
            let mut client = Tapped {
                inner: client,
                keep: |_, p: &Packet| {
                    client_acks += usize::from(is_ack(p));
                    carried += usize::from(p.overlay.options.ack.is_some());
                    true
                },
            };
            let mut server = Tapped {
                inner: server,
                keep: |_, p: &Packet| {
                    server_acks += usize::from(is_ack(p));
                    true
                },
            };
            let mut link = PairFabric::reliable();
            assert_eq!(echo(&mut client, &mut server, &mut link, 100), (100, 100));
            // Two packets per RPC, plus the one ACK no request was left to
            // carry: the last reply's.
            assert_eq!(link.delivered(), 2 * 100 + 1, "{stack:?}");
            assert_eq!(client.next_timeout(), None, "{stack:?}");
            assert_eq!(server.next_timeout(), None, "{stack:?}");
            let (client_stats, server_stats) = (client.stats(), server.stats());
            assert_eq!(client_stats.timeouts_fired, 0, "{stack:?}");
            assert_eq!(server_stats.timeouts_fired, 0, "{stack:?}");
            assert_eq!(client_stats.retransmissions, 0, "{stack:?}");
            drop((client, server));
            assert_eq!((client_acks, server_acks), (1, 0), "{stack:?}");
            assert_eq!(carried, 99, "{stack:?}: every later request carried one");
        }
    }

    #[test]
    fn a_one_way_message_is_acked_one_nanosecond_after_delivery() {
        for stack in MESSAGE_STACKS {
            for size in [64, 40_000] {
                let (mut client, server) = pair(stack);
                let mut acks_at = Vec::new();
                let mut server = Tapped {
                    inner: server,
                    keep: |now, p: &Packet| {
                        if is_ack(p) {
                            acks_at.push(now);
                        }
                        true
                    },
                };
                let mut link = PairFabric::reliable();
                let id = client.send(&vec![9u8; size], 0).unwrap();
                let mut delivered_at = None;
                while drive_pair(&mut client, &mut server, &mut link, 1) > 0 {
                    if !take_delivered(&mut server).is_empty() {
                        delivered_at = Some(link.now());
                    }
                }
                let acked = std::iter::from_fn(|| client.poll_event())
                    .any(|e| e == Event::MessageAcked(id));
                assert!(acked, "{stack:?} {size} B: the ACK released the send");
                assert_eq!(client.next_timeout(), None, "{stack:?} {size} B");
                assert_eq!(server.next_timeout(), None, "{stack:?} {size} B");
                assert_eq!(client.stats().timeouts_fired, 0, "{stack:?} {size} B");
                assert_eq!(server.stats().timeouts_fired, 0, "{stack:?} {size} B");
                drop(server);
                let delivered_at = delivered_at.expect("delivered");
                assert_eq!(acks_at, [delivered_at + 1], "{stack:?} {size} B");
            }
        }
    }

    #[test]
    fn an_ack_that_had_to_leave_alone_sends_the_next_at_once_until_an_echo() {
        for stack in MESSAGE_STACKS {
            let (mut client, server) = pair(stack);
            let mut acks_at = Vec::new();
            let mut server = Tapped {
                inner: server,
                keep: |now, p: &Packet| {
                    if is_ack(p) {
                        acks_at.push(now);
                    }
                    true
                },
            };
            let mut link = PairFabric::reliable();
            // Two one-way messages, then three echoes.
            let mut delivered_at = Vec::new();
            for _ in 0..2 {
                client.send(&[1u8; 64], link.now()).unwrap();
                while drive_pair(&mut client, &mut server, &mut link, 1) > 0 {
                    if !take_delivered(&mut server).is_empty() {
                        delivered_at.push(link.now());
                    }
                }
            }
            let acked = std::iter::from_fn(|| client.poll_event())
                .filter(|e| matches!(e, Event::MessageAcked(_)))
                .count();
            assert_eq!(acked, 2, "{stack:?}");
            assert_eq!(echo(&mut client, &mut server, &mut link, 3), (3, 3));
            assert_eq!(server.stats().timeouts_fired, 0, "{stack:?}");
            drop(server);
            // The first ACK waited its 1 ns in vain, so the second left at
            // once, and so did the first echo's; its reply left in that
            // instant, and the other two requests' ACKs rode on replies.
            assert_eq!(acks_at.len(), 3, "{stack:?}: {acks_at:?}");
            assert_eq!(
                acks_at[..2],
                [delivered_at[0] + 1, delivered_at[1]],
                "{stack:?}"
            );
        }
    }

    #[test]
    fn a_lost_data_packet_carrying_an_ack_is_recovered_by_a_probe_and_the_re_ack() {
        for stack in MESSAGE_STACKS {
            let (client, server) = pair(stack);
            let mut lost = 0;
            let mut server = Tapped {
                inner: server,
                keep: |_, p: &Packet| {
                    if p.overlay.options.ack.is_some() && lost == 0 {
                        lost += 1;
                        return false;
                    }
                    true
                },
            };
            let mut client = client;
            let mut link = PairFabric::reliable();
            // The reply, and the request's ACK riding on it, are lost; the
            // re-ACK releases the request all the same.
            assert_eq!(echo(&mut client, &mut server, &mut link, 1), (1, 1));
            assert_eq!(client.next_timeout(), None, "{stack:?}");
            assert_eq!(server.next_timeout(), None, "{stack:?}");
            // Each end probed once: the client its request, whose duplicate
            // drew the re-ACK, and the server its reply.
            let (client_stats, server_stats) = (client.stats(), server.stats());
            assert_eq!(client_stats.timeouts_fired, 1, "{stack:?}");
            assert_eq!(server_stats.timeouts_fired, 1, "{stack:?}");
            assert_eq!(server_stats.replays_rejected, 1, "{stack:?}");
            assert_eq!(server_stats.messages_delivered, 1, "{stack:?}");
            assert_eq!(client_stats.messages_delivered, 1, "{stack:?}");
            drop(server);
            assert_eq!(lost, 1, "{stack:?}");
        }
    }

    #[test]
    fn a_deep_pipeline_with_slow_acks_stops_retransmitting_once_it_has_a_clean_sample() {
        let (mut client, mut server) = smt_pair();
        // An ACK is back some 150 µs after its message left: almost four
        // times the opening period, on a link that loses nothing.
        let slow = LinkConfig {
            propagation_ns: 75_000,
            buffer_packets: 4096,
            ..LinkConfig::default()
        };
        assert!(2 * slow.propagation_ns > 3 * INITIAL_RTO_NS);
        let mut link = PairFabric::with_config(slow, FaultConfig::none());
        let request = vec![7u8; 8192];
        let (depth, total) = (64, 64 * 8);
        for _ in 0..depth {
            client.send(&request, 0).unwrap();
        }
        let (mut sent, mut replies) = (depth, 0);
        // Each end's retransmission count when its estimator first had a
        // sample, and when the run ended.
        let mut at_first_sample: [Option<u64>; 2] = [None; 2];
        while replies < total {
            assert!(drive_pair(&mut client, &mut server, &mut link, 1) > 0);
            let now = link.now();
            for (_, data) in take_delivered(&mut server) {
                server.send(&data, now).unwrap();
            }
            for _ in take_delivered(&mut client) {
                replies += 1;
                if sent < total {
                    client.send(&request, now).unwrap();
                    sent += 1;
                }
            }
            for (seen, ep) in at_first_sample.iter_mut().zip([&client, &server]) {
                let stats = ep.stats();
                if seen.is_none() && stats.srtt_ns > 0 {
                    *seen = Some(stats.retransmissions);
                }
            }
        }
        drive_pair(&mut client, &mut server, &mut link, 100_000);
        for (seen, ep) in at_first_sample.iter().zip([&client, &server]) {
            let stats = ep.stats();
            // Without the backoff surviving arrivals, the period snaps back
            // to 40 µs with every packet, every message is probed before its
            // ACK can arrive, and no message is ever clean enough to sample.
            assert!(stats.srtt_ns > 100_000, "sampled: {stats:?}");
            assert!(
                stats.retransmissions > 0,
                "the opening period was too short"
            );
            assert_eq!(
                Some(stats.retransmissions),
                *seen,
                "nothing retransmitted once the round trip was known"
            );
        }
    }

    /// Runs `depth` echo RPCs closed-loop from `client` while its message
    /// `victim` loses every first transmission, for `span` of simulated time
    /// and then to quiescence.  Returns when the victim's last original
    /// packet and its first retransmitted one left.
    fn lose_one_of_many(span: Nanos) -> (Nanos, Nanos, EndpointStats) {
        const VICTIM: u64 = 7;
        let (client, mut server) = smt_pair();
        let (mut last_original, mut first_retransmission) = (0, None);
        let mut client = Tapped {
            inner: client,
            keep: |now, p: &Packet| {
                let opts = &p.overlay.options;
                if p.overlay.tcp.packet_type != PacketType::Data || opts.message_id != VICTIM {
                    return true;
                }
                if opts.is_retransmission() {
                    first_retransmission.get_or_insert(now);
                    return true;
                }
                last_original = now;
                false
            },
        };
        let mut link = PairFabric::reliable();
        let request = vec![3u8; 2000];
        for _ in 0..64 {
            client.send(&request, 0).unwrap();
        }
        let mut victim_delivered = false;
        let mut running = true;
        while running {
            running = drive_pair(&mut client, &mut server, &mut link, 1) > 0;
            let now = link.now();
            for (id, data) in take_delivered(&mut server) {
                victim_delivered |= id == MessageId(VICTIM);
                server.send(&data, now).unwrap();
            }
            // The other 63 keep completing and being replaced.
            for _ in take_delivered(&mut client) {
                if now < span {
                    client.send(&request, now).unwrap();
                    running = true;
                }
            }
        }
        assert!(victim_delivered, "the lost message was recovered");
        let stats = client.stats();
        drop(client);
        (
            last_original,
            first_retransmission.expect("the victim was probed"),
            stats,
        )
    }

    #[test]
    fn a_fully_lost_message_is_probed_on_time_however_busy_its_neighbours_are() {
        let period = INITIAL_RTO_NS;
        let (last_original, probed_at, stats) = lose_one_of_many(4 * period);
        let waited = probed_at - last_original;
        // No earlier than one full period after its last transmission, and no
        // later than the wake-up spacing allows past that.
        assert!(
            (period..=period + period / super::WAKE_SPACING).contains(&waited),
            "probed {waited} ns after its last transmission"
        );
        // Its 63 neighbours and their successors were left alone.
        assert!(
            stats.retransmissions <= 8,
            "{} retransmissions",
            stats.retransmissions
        );
    }

    #[test]
    fn a_lost_ack_is_recovered_by_a_probe_and_the_re_ack() {
        let (mut client, server) = smt_pair();
        let mut acks_lost = 0;
        let mut server = Tapped {
            inner: server,
            keep: |_, p: &Packet| {
                if p.overlay.tcp.packet_type == PacketType::Ack && acks_lost == 0 {
                    acks_lost += 1;
                    return false;
                }
                true
            },
        };
        let mut link = PairFabric::reliable();
        let id = client.send(b"acknowledge me", 0).unwrap();
        drive_pair(&mut client, &mut server, &mut link, 10_000);
        assert_eq!(take_delivered(&mut server).len(), 1, "delivered once");
        let mut acked = false;
        while let Some(event) = client.poll_event() {
            acked |= event == Event::MessageAcked(id);
        }
        assert!(acked, "the re-ACK released the send");
        assert_eq!(client.next_timeout(), None);
        assert_eq!(client.stats().timeouts_fired, 1, "one probe");
        assert!(client.stats().retransmissions > 0);
        // The probe's duplicate was counted, not delivered.
        assert_eq!(server.stats().replays_rejected, 1);
        assert_eq!(server.stats().messages_delivered, 1);
    }
}
