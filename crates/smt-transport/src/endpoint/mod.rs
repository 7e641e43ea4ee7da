//! The unified event-driven endpoint API over every evaluated stack.
//!
//! The paper's evaluation (§5, Figs. 6–10) compares eight transport stacks, but
//! each one is a different machine: SMT is a message transport driven packet by
//! packet, kTLS/TLS/TCPLS are record layers over an in-order TCP bytestream.
//! This module puts one interface in front of all of them — a poll-based
//! contract in the style of s2n-quic's `Connection`/`poll_transmit` model — so
//! applications, benches, examples and tests drive any stack through the same
//! calls:
//!
//! * [`SecureEndpoint::send`] — queue an application message, get a
//!   [`MessageId`] back;
//! * [`SecureEndpoint::handle_datagram`] — feed one received packet in;
//! * [`SecureEndpoint::poll_transmit`] — collect the packets the endpoint wants
//!   on the wire (data, GRANTs, ACKs, retransmissions);
//! * [`SecureEndpoint::poll_event`] — observe what happened ([`Event`]:
//!   handshake completion, message delivery, message acknowledgement, errors).
//!
//! [`Endpoint`] is one struct for all eight stacks: a **connection shell**
//! around one of two **reliability engines** — the paper's design point (SMT
//! reuses the handshake, record layer and NIC offload of TLS/TCP and differs
//! only in the reliability engine underneath) stated in the type.
//! [`Endpoint::builder`] picks the engine for a [`StackKind`]: the
//! message-based stacks (Homa, SMT-sw, SMT-hw) run the receiver-driven
//! [`crate::homa::HomaEndpoint`]; the stream-based stacks (TCP, TLS, kTLS-sw,
//! kTLS-hw, TCPLS) run a TCP-like reliable bytestream (SACK selective
//! retransmit inside a DCTCP window, out-of-order segment reassembly)
//! carrying the kTLS record layer from `smt-core`.  Both engines emit
//! packets through the simulated NIC substrate, so every stack pays its
//! structural costs (TSO expansion, offload descriptors) in the same place.
//!
//! Decisions owned once, by the shell (`shell.rs`), for every stack:
//!
//! * the handshake-to-data transition — in-band handshake driver, the bounded
//!   pre-handshake send queue, 0-RTT early-data selection and re-queue, event
//!   order at completion, flush of queued sends under their promised IDs;
//! * the retransmission-timer *period* (RTT-estimated, backoff, clamp) and
//!   deadline — when to arm stays engine policy;
//! * the connection's [`EndpointStats`] (defined beside the simulator's
//!   `SimEndpoint` contract and re-exported here), incremented where events
//!   happen ([`EndpointStats::absorb`] is the one aggregation rule);
//! * the `dead` gate after a fatal error, and the queue-full refusal;
//! * connection-ID stamping, the event queue.
//!
//! The driving contract is sans-IO **and clocked**: endpoints never touch a
//! socket or a wall clock, but every driving call carries the caller's virtual
//! time (`now: Nanos`), and [`SecureEndpoint::next_timeout`] exposes the
//! endpoint's retransmission deadline (opening at
//! [`crate::cc::INITIAL_RTO_NS`], then RTT-estimated) so a discrete-event
//! driver can schedule it.  One driver steps every harness
//! ([`smt_sim::net::Driver`]): [`drive_pair`] over a two-host fabric,
//! [`ListenerFabric::drive`] over one listener and its clients, and
//! `smt_sim::net::run_scenario` over arbitrary topologies and workloads.

mod handshake;
mod listener;
mod message;
mod shell;
mod sim;
mod stream;

pub use handshake::{
    AcceptConfig, ConnectConfig, SharedPathSecrets, ZeroRttAcceptor, EARLY_DATA_MAX,
};
pub use listener::{Listener, ListenerFabric};
pub use shell::Endpoint;
pub use sim::{handshake_scenario_endpoints, scenario_endpoints};
pub use smt_sim::net::EndpointStats;

use crate::stack::StackKind;
use serde::{Deserialize, Serialize};
use shell::Keying;
use smt_core::segment::PathInfo;
use smt_crypto::handshake::{SessionKeys, SmtTicket};
use smt_sim::net::{Driver, Fabric, FabricStats, FaultConfig, Hosts, LinkConfig, PortId};
use smt_sim::Nanos;
use smt_wire::Packet;
use thiserror::Error;

/// Identifier of a message within one endpoint's send direction.
///
/// Message-based stacks use the SMT session's message ID (also carried in the
/// packet option area); stream-based stacks allocate sequential IDs for the
/// frames they write onto the bytestream.  Either way IDs start at 0 and
/// increment per [`SecureEndpoint::send`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// Something that happened inside an endpoint, observed via
/// [`SecureEndpoint::poll_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The session's handshake keys are installed and the endpoint is ready to
    /// send.  Emitted once by every encrypted stack.  On key-injected
    /// endpoints ([`EndpointBuilder::build`]) it is synthesized immediately
    /// with `rtt_ns = 0`; on in-band endpoints ([`EndpointBuilder::connect`] /
    /// [`EndpointBuilder::accept`]) it carries the measured setup latency.
    /// 0-RTT early-data deliveries may precede it on the accepting side —
    /// that is the point of the 0-RTT exchange.
    HandshakeComplete {
        /// Authenticated peer identity (certificate subject), when available.
        peer_identity: Option<String>,
        /// Whether the session's application keys are forward secret.
        forward_secret: bool,
        /// Virtual time between this side's first handshake action (first
        /// flight transmitted for the client, ClientHello arrival for the
        /// server) and handshake completion.  Zero for injected keys.
        rtt_ns: Nanos,
        /// Whether the session resumed a previous one (PSK or SMT-ticket
        /// 0-RTT).
        resumed: bool,
    },
    /// The server spliced a fresh SMT-ticket into its flight (in-band ticket
    /// distribution): keep it and pass it to
    /// [`ConnectConfig::resume`] to make the next connection 0-RTT.
    TicketReceived(Box<SmtTicket>),
    /// A complete message was delivered by the receive side.
    MessageDelivered {
        /// The sender-assigned message ID.
        id: MessageId,
        /// The reassembled (and, on encrypted stacks, decrypted) payload.
        data: Vec<u8>,
    },
    /// The peer acknowledged a message end to end; its send state is released.
    MessageAcked(MessageId),
    /// The endpoint failed fatally (stream cipher desync, authentication
    /// failure on the in-order stream).  The endpoint drops all traffic after
    /// emitting this.
    Error(String),
}

/// Errors from endpoint construction and driving.
#[derive(Debug, Error)]
pub enum EndpointError {
    /// The builder was asked for an impossible configuration, or the call
    /// is not valid in the endpoint's current state: the endpoint is dead,
    /// the pre-handshake send queue is full, or a rekey was asked for before
    /// the handshake completed or on a plaintext stack.
    #[error("endpoint configuration: {0}")]
    Config(String),
    /// The underlying SMT engine failed.
    #[error(transparent)]
    Core(#[from] smt_core::SmtError),
    /// The in-order stream failed fatally while receiving (record-layer
    /// authentication or desync, corrupted framing).
    #[error("stream transport: {0}")]
    Stream(String),
}

/// Result alias for endpoint operations.
pub type EndpointResult<T> = Result<T, EndpointError>;

/// The error for building an encrypted endpoint without key material, naming
/// both remedies: the in-band handshake and the key-injection fast path.
pub(crate) fn missing_keys(stack: StackKind) -> EndpointError {
    EndpointError::Config(format!(
        "stack {} requires handshake keys: establish them in-band with \
         Endpoint::builder().connect(ConnectConfig) / .accept(AcceptConfig), or inject \
         out-of-band keys via build(Some(&keys)) / pair(..) (the key-injection fast \
         path for tests and benches)",
        stack.label()
    ))
}

/// The uniform, clocked, poll-based driving contract over every evaluated
/// stack.
///
/// The calling pattern is the same for all implementations:
///
/// 1. [`send`](Self::send) any number of messages at the current virtual time;
/// 2. [`poll_transmit`](Self::poll_transmit) and put the packets on the wire;
/// 3. feed arriving packets to [`handle_datagram`](Self::handle_datagram);
/// 4. drain [`poll_event`](Self::poll_event) for deliveries/acks;
/// 5. when [`next_timeout`](Self::next_timeout) comes due, call
///    [`on_timeout`](Self::on_timeout) and go to 2 (loss recovery).
///
/// Time is the caller's virtual clock in nanoseconds; endpoints never read a
/// wall clock.  [`drive_pair`] runs this loop for two endpoints, on the
/// driver every harness shares (`smt_sim::net::Driver`).
pub trait SecureEndpoint {
    /// Which evaluated stack this endpoint implements.
    fn stack(&self) -> StackKind;

    /// Queues `data` as one application message for transmission at virtual
    /// time `now`.
    fn send(&mut self, data: &[u8], now: Nanos) -> EndpointResult<MessageId>;

    /// Processes one packet received from the wire at virtual time `now`.
    /// Responses (ACKs, GRANTs, retransmissions) are queued internally and
    /// surface on the next [`poll_transmit`](Self::poll_transmit) — except a
    /// message stack's ACK, which rides on the next DATA the endpoint sends
    /// in that instant, or else leaves at the deadline
    /// [`next_timeout`](Self::next_timeout) reports 1 ns later; deliveries
    /// surface as [`Event`]s.  Recoverable conditions (loss-damaged, replayed
    /// or unauthenticated packets on message stacks) are absorbed; a fatal
    /// error (stream cipher desync) is returned *and* emitted as
    /// [`Event::Error`], after which the endpoint is dead: it drops all
    /// ingress, emits nothing and reports no timer.
    fn handle_datagram(&mut self, datagram: &Packet, now: Nanos) -> EndpointResult<()>;

    /// Appends every packet the endpoint currently wants on the wire to `out`,
    /// returning how many were appended.
    fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize;

    /// Returns the next pending event, if any.
    fn poll_event(&mut self) -> Option<Event>;

    /// The absolute virtual time of the endpoint's retransmission deadline,
    /// if it has outstanding work (unacknowledged sends, incomplete
    /// receives, ACKs held for DATA to carry).  `None` means the endpoint is
    /// quiescent and needs no timer.
    fn next_timeout(&self) -> Option<Nanos>;

    /// Fires the retransmission timer at virtual time `now`: the endpoint
    /// queues whatever recovery traffic it needs — Homa RESENDs and probes,
    /// a stream rewind to the cumulative offset (selective under SACK,
    /// go-back-N once the scoreboard is distrusted) — and re-arms
    /// [`next_timeout`](Self::next_timeout).  A call before the deadline is a
    /// no-op.
    fn on_timeout(&mut self, now: Nanos);

    /// Aggregate statistics, uniform across stacks.
    fn stats(&self) -> EndpointStats;

    /// Drains the event queue, returning every pending
    /// [`Event::MessageDelivered`] as `(id, payload)` pairs. Non-delivery
    /// events (handshake, acks, errors) are consumed and discarded — use
    /// [`poll_event`](Self::poll_event) directly when those matter.
    fn take_delivered(&mut self) -> Vec<(MessageId, Vec<u8>)>
    where
        Self: Sized,
    {
        take_delivered(self)
    }
}

/// Drains every pending delivery from `ep` (object-safe form of
/// [`SecureEndpoint::take_delivered`]).  Non-delivery events are dropped —
/// use [`SecureEndpoint::poll_event`] directly when acks or errors matter.
pub fn take_delivered(ep: &mut (impl SecureEndpoint + ?Sized)) -> Vec<(MessageId, Vec<u8>)> {
    let mut out = Vec::new();
    while let Some(ev) = ep.poll_event() {
        if let Event::MessageDelivered { id, data } = ev {
            out.push((id, data));
        }
    }
    out
}

/// A two-host fabric for [`drive_pair`]: endpoint A on host 0 / port 0,
/// endpoint B on host 1 / port 1, queued links and the shared seeded fault
/// model between them, and the [`Driver`] that owns them and the pair's
/// virtual clock.
///
/// This is the substrate every example, bench and test drives stack pairs
/// over; loss, reordering and duplication come from the same
/// `smt_sim::net::FaultyLink` model the multi-host scenarios use.
#[derive(Debug)]
pub struct PairFabric {
    driver: Driver,
}

impl PairFabric {
    /// A lossless pair link with default datacenter parameters
    /// (100 Gb/s, 1 µs one-way propagation).
    pub fn reliable() -> Self {
        Self::with_config(LinkConfig::default(), FaultConfig::none())
    }

    /// A pair link dropping packets with probability `loss` (seeded).
    pub fn lossy(loss: f64, seed: u64) -> Self {
        Self::with_config(LinkConfig::default(), FaultConfig::lossy(loss, seed))
    }

    /// A pair link with explicit link parameters and fault model.
    pub fn with_config(link: LinkConfig, faults: FaultConfig) -> Self {
        let mut fabric = Fabric::new(link, faults);
        let h0 = fabric.add_host();
        let h1 = fabric.add_host();
        let a = fabric.add_port(h0);
        let b = fabric.add_port(h1);
        fabric.connect(a, b);
        debug_assert_eq!((a, b), (0, 1));
        Self {
            driver: Driver::new(fabric),
        }
    }

    /// The pair's current virtual time; pass this as `now` when calling
    /// endpoint methods between [`drive_pair`] invocations.
    pub fn now(&self) -> Nanos {
        self.driver.now()
    }

    /// Full fabric counters.
    pub fn stats(&self) -> FabricStats {
        self.driver.fabric.stats
    }
}

impl Default for PairFabric {
    fn default() -> Self {
        Self::reliable()
    }
}

/// The two ends of a [`drive_pair`] call: `a` in slot 0 on port 0, `b` in
/// slot 1 on port 1.
struct Ends<'a, A: ?Sized, B: ?Sized>(&'a mut A, &'a mut B);

impl<A, B> Hosts for Ends<'_, A, B>
where
    A: SecureEndpoint + ?Sized,
    B: SecureEndpoint + ?Sized,
{
    fn deliver(&mut self, port: PortId, packet: &Packet, now: Nanos) -> Option<usize> {
        let _ = match port {
            0 => self.0.handle_datagram(packet, now),
            _ => self.1.handle_datagram(packet, now),
        };
        Some(port)
    }

    fn fire(&mut self, slot: usize, now: Nanos) {
        match slot {
            0 => self.0.on_timeout(now),
            _ => self.1.on_timeout(now),
        }
    }

    fn flush(&mut self, slot: usize, t: Nanos, fabric: &mut Fabric, buf: &mut Vec<Packet>) {
        let n = match slot {
            0 => self.0.poll_transmit(t, buf),
            _ => self.1.poll_transmit(t, buf),
        };
        if n > 0 {
            fabric.send(t, slot, buf.drain(..));
        }
    }

    fn deadline(&self, slot: usize) -> Option<Nanos> {
        match slot {
            0 => self.0.next_timeout(),
            _ => self.1.next_timeout(),
        }
    }
}

/// Drives two endpoints over a two-host fabric in simulated time until
/// traffic quiesces (no packets in flight, no armed timers producing new
/// traffic) or `max_events` events have been processed.  Returns the number
/// of events processed.
///
/// One call into the pair's [`Driver`], under its event and clock rules:
/// both ends are flushed, `a` first, and their deadlines re-read on entry,
/// since callers `send` between calls; after that an end is polled only when
/// an event reached it (a delivery, or its timer firing, `a` before `b`).
/// That emits exactly what polling both ends after every event would.
pub fn drive_pair(
    a: &mut (impl SecureEndpoint + ?Sized),
    b: &mut (impl SecureEndpoint + ?Sized),
    link: &mut PairFabric,
    max_events: usize,
) -> usize {
    link.driver.drive(&mut Ends(a, b), 2, max_events as u64) as usize
}

/// Builds [`Endpoint`]s: picks the backing machinery for a [`StackKind`] and
/// carries what a figure or a fabric varies per connection — the MTU, TSO,
/// the path and the connection ID.  The transport's tuning (RTO bounds,
/// DCTCP window, SRPT grants, the unscheduled prefix) is the network's, not a
/// connection's: constants in [`crate::cc`] and [`crate::homa`].
#[derive(Debug, Clone)]
pub struct EndpointBuilder {
    stack: StackKind,
    mtu: usize,
    tso: bool,
    path: Option<PathInfo>,
    connection_id: u32,
}

impl Default for EndpointBuilder {
    fn default() -> Self {
        Self {
            stack: StackKind::SmtSw,
            mtu: smt_wire::DEFAULT_MTU,
            tso: true,
            path: None,
            connection_id: 0,
        }
    }
}

impl EndpointBuilder {
    /// Selects the evaluated stack (defaults to SMT-sw).
    pub fn stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    /// Sets the network MTU (the §5.2 jumbo-frame experiment uses 9000).
    pub fn mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    /// Enables or disables TSO (Fig. 11 ablation).
    pub fn tso(mut self, tso: bool) -> Self {
        self.tso = tso;
        self
    }

    /// Sets this endpoint's path (source/destination addresses and ports).
    pub fn path(mut self, path: PathInfo) -> Self {
        self.path = Some(path);
        self
    }

    /// Stamps `id` into the option area of every packet this endpoint emits,
    /// so a [`Listener`] on the far side can demux many connections arriving
    /// over one socket.  Zero (the default) means "not multiplexed" and
    /// stamps nothing; a [`Listener`] allocates nonzero IDs for the
    /// connections it accepts and clients dial with the ID they chose.
    pub fn connection_id(mut self, id: u32) -> Self {
        self.connection_id = id;
        self
    }

    /// Builds one endpoint from out-of-band keys — the **key-injection fast
    /// path** used by tests and benches that measure the established data
    /// path without paying connection setup.  `keys` may be `None` only for
    /// the unencrypted stacks (TCP, Homa); every encrypted stack needs
    /// handshake keys.  Production-shaped consumers establish keys in-band
    /// with [`connect`](Self::connect) / [`accept`](Self::accept) instead.
    pub fn build(self, keys: Option<&SessionKeys>) -> EndpointResult<Endpoint> {
        Endpoint::new(self, Keying::Injected(keys))
    }

    /// Builds a client endpoint that establishes its session **in-band**: the
    /// handshake flights travel in CONTROL packets through the same fabric as
    /// the data, covered by the endpoint's RTO/retransmit machinery.  The
    /// message stacks piggyback the ClientHello (plus 0-RTT early data when
    /// [`ConnectConfig::resume`]ing) on the first flight; the stream stacks
    /// run the same exchange as a TLS-style pre-data handshake.  Application
    /// [`send`](SecureEndpoint::send)s queue until
    /// [`Event::HandshakeComplete`] and then flush with their promised IDs.
    ///
    /// For the unencrypted stacks (TCP, Homa) this simply builds a plaintext
    /// endpoint — there is nothing to negotiate.
    pub fn connect(self, config: ConnectConfig) -> EndpointResult<Endpoint> {
        Endpoint::new(self, Keying::Connect(config))
    }

    /// Builds a server endpoint that accepts one in-band handshake (the
    /// server side of [`connect`](Self::connect)).  Give every accepted
    /// endpoint of one listener the same [`ZeroRttAcceptor`] via
    /// [`AcceptConfig::zero_rtt`] to accept SMT-ticket 0-RTT resumption and
    /// to mint in-band tickets — its shared anti-replay cache is what makes a
    /// replayed 0-RTT first flight fail no matter which endpoint it hits.
    pub fn accept(self, config: AcceptConfig) -> EndpointResult<Endpoint> {
        Endpoint::new(self, Keying::Accept(config))
    }

    /// Builds a connected client/server pair that performs the handshake
    /// in-band over the fabric, on the canonical evaluation path
    /// ([`PathInfo::pair`]).
    ///
    /// ```
    /// use smt_crypto::cert::CertificateAuthority;
    /// use smt_transport::endpoint::{AcceptConfig, ConnectConfig};
    /// use smt_transport::{drive_pair, take_delivered, Endpoint, Event, PairFabric,
    ///                     SecureEndpoint, StackKind};
    ///
    /// let ca = CertificateAuthority::new("dc-internal-ca");
    /// let id = ca.issue_identity("server.dc.local");
    /// let (mut client, mut server) = Endpoint::builder()
    ///     .stack(StackKind::SmtSw)
    ///     .handshake_pair(
    ///         ConnectConfig::new(ca.verifying_key(), "server.dc.local"),
    ///         AcceptConfig::new(id, ca.verifying_key()),
    ///         4000,
    ///         5201,
    ///     )
    ///     .unwrap();
    /// // Sends queue behind the in-band handshake and flush on completion.
    /// client.send(b"hello in-band", 0).unwrap();
    /// let mut link = PairFabric::reliable();
    /// drive_pair(&mut client, &mut server, &mut link, 1_000_000);
    /// assert_eq!(take_delivered(&mut server)[0].1, b"hello in-band");
    /// // The client observed a real, measured handshake.
    /// let hs = client.poll_event().unwrap();
    /// assert!(matches!(hs, Event::HandshakeComplete { rtt_ns, resumed: false, .. } if rtt_ns > 0));
    /// ```
    pub fn handshake_pair(
        self,
        connect: ConnectConfig,
        accept: AcceptConfig,
        client_port: u16,
        server_port: u16,
    ) -> EndpointResult<(Endpoint, Endpoint)> {
        let (client_path, server_path) = PathInfo::pair(client_port, server_port);
        Ok((
            self.clone().path(client_path).connect(connect)?,
            self.path(server_path).accept(accept)?,
        ))
    }

    /// Builds a connected client/server pair from the two ends' handshake keys
    /// on the canonical evaluation path ([`PathInfo::pair`]) — the
    /// key-injection fast path (see [`build`](Self::build)).  For the
    /// unencrypted stacks the keys are ignored.
    pub fn pair(
        self,
        client_keys: &SessionKeys,
        server_keys: &SessionKeys,
        client_port: u16,
        server_port: u16,
    ) -> EndpointResult<(Endpoint, Endpoint)> {
        let (client_path, server_path) = PathInfo::pair(client_port, server_port);
        Ok((
            self.clone().path(client_path).build(Some(client_keys))?,
            self.path(server_path).build(Some(server_keys))?,
        ))
    }

    /// Builds a connected keyless pair; only the unencrypted stacks (TCP,
    /// Homa) accept this.
    pub fn pair_plaintext(
        self,
        client_port: u16,
        server_port: u16,
    ) -> EndpointResult<(Endpoint, Endpoint)> {
        let (client_path, server_path) = PathInfo::pair(client_port, server_port);
        Ok((
            self.clone().path(client_path).build(None)?,
            self.path(server_path).build(None)?,
        ))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use smt_crypto::cert::CertificateAuthority;
    use smt_crypto::handshake::{establish, ClientConfig, ServerConfig};

    pub(crate) fn keys() -> (SessionKeys, SessionKeys) {
        let ca = CertificateAuthority::new("ep-ca");
        let id = ca.issue_identity("server");
        establish(
            ClientConfig::new(ca.verifying_key(), "server"),
            ServerConfig::new(id, ca.verifying_key()),
        )
        .unwrap()
    }

    #[test]
    fn every_stack_roundtrips_through_the_trait() {
        for stack in StackKind::all() {
            let (ck, sk) = keys();
            let (mut c, mut s) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 4000, 5201)
                .unwrap();
            assert_eq!(c.stack(), stack);
            let payloads: [&[u8]; 3] = [b"alpha", &[0x5a; 40_000], b""];
            let mut ids = Vec::new();
            for p in payloads {
                ids.push(c.send(p, 0).unwrap());
            }
            let mut link = PairFabric::reliable();
            drive_pair(&mut c, &mut s, &mut link, 1_000_000);
            let mut got = take_delivered(&mut s);
            got.sort_by_key(|(id, _)| *id);
            assert_eq!(got.len(), 3, "stack {}", stack.label());
            for ((id, data), (want_id, want)) in got.iter().zip(ids.iter().zip(payloads)) {
                assert_eq!(id, want_id, "stack {}", stack.label());
                assert_eq!(data.as_slice(), want, "stack {}", stack.label());
            }
            let stats = s.stats();
            assert_eq!(stats.messages_delivered, 3);
            assert_eq!(stats.bytes_delivered, 40_005);
            assert_eq!(stats.wire_bytes_received, c.stats().wire_bytes_sent);
            assert_eq!(
                c.stats().retransmissions,
                0,
                "lossless link needs no retransmission on {}",
                stack.label()
            );
        }
    }

    #[test]
    fn every_encrypted_stack_emits_handshake_complete_first() {
        for stack in StackKind::all().into_iter().filter(|s| s.is_encrypted()) {
            let (ck, sk) = keys();
            let (mut c, _s) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 1, 2)
                .unwrap();
            match c.poll_event() {
                Some(Event::HandshakeComplete { .. }) => {}
                other => panic!(
                    "stack {}: expected handshake event, got {other:?}",
                    stack.label()
                ),
            }
        }
    }

    #[test]
    fn acks_surface_per_message() {
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let (ck, sk) = keys();
            let (mut c, mut s) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 1, 2)
                .unwrap();
            let id0 = c.send(b"first", 0).unwrap();
            let id1 = c.send(&[1u8; 9000], 0).unwrap();
            let mut link = PairFabric::reliable();
            drive_pair(&mut c, &mut s, &mut link, 1_000_000);
            let mut acked = Vec::new();
            while let Some(ev) = c.poll_event() {
                if let Event::MessageAcked(id) = ev {
                    acked.push(id);
                }
            }
            acked.sort();
            assert_eq!(acked, vec![id0, id1], "stack {}", stack.label());
        }
    }

    #[test]
    fn replaying_a_finished_message_is_acked_but_resurrects_nothing() {
        for stack in [StackKind::SmtSw, StackKind::Homa] {
            let (ck, sk) = keys();
            let (mut c, mut s) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 1, 2)
                .unwrap();
            c.send(&[7u8; 4000], 0).unwrap();
            let mut data = Vec::new();
            c.poll_transmit(0, &mut data);
            assert!(data.len() > 1, "stack {}", stack.label());
            let mut acks = Vec::new();
            for p in &data {
                s.handle_datagram(p, 1_000).unwrap();
            }
            // With no DATA to carry it, the ACK leaves at its deadline.
            let due = s.next_timeout().expect("the held ACK");
            s.on_timeout(due);
            s.poll_transmit(due, &mut acks);
            for p in &acks {
                c.handle_datagram(p, 2_000).unwrap();
            }
            assert_eq!(take_delivered(&mut s).len(), 1);
            assert_eq!(s.next_timeout(), None, "stack {}", stack.label());
            assert_eq!(c.next_timeout(), None, "stack {}", stack.label());

            // The finished message's packets again: each is counted as a
            // replay and acknowledged once more, but no receive state comes
            // back to deliver anything or to arm the recovery timer.
            let before = s.stats();
            for p in &data {
                s.handle_datagram(p, 3_000).unwrap();
            }
            let mut reacks = Vec::new();
            s.poll_transmit(3_000, &mut reacks);
            assert_eq!(reacks.len(), data.len(), "stack {}", stack.label());
            assert!(reacks
                .iter()
                .all(|p| p.overlay.tcp.packet_type == smt_wire::PacketType::Ack));
            assert_eq!(
                s.stats().replays_rejected,
                before.replays_rejected + data.len() as u64
            );
            assert!(take_delivered(&mut s).is_empty());
            assert_eq!(s.next_timeout(), None, "stack {}", stack.label());
        }
    }

    #[test]
    fn encrypted_stacks_require_keys() {
        for stack in StackKind::all().into_iter().filter(|s| s.is_encrypted()) {
            let err = Endpoint::builder()
                .stack(stack)
                .path(PathInfo::loopback(1, 2))
                .build(None)
                .unwrap_err();
            assert!(matches!(err, EndpointError::Config(_)));
        }
        // The unencrypted stacks accept a keyless pair.
        for stack in [StackKind::Tcp, StackKind::Homa] {
            Endpoint::builder()
                .stack(stack)
                .pair_plaintext(1, 2)
                .unwrap();
        }
    }

    #[test]
    fn lossy_channels_recover_on_every_stack() {
        for stack in StackKind::all() {
            let (ck, sk) = keys();
            let (mut c, mut s) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 7, 8)
                .unwrap();
            let data = vec![0xabu8; 120_000];
            c.send(&data, 0).unwrap();
            let mut link = PairFabric::lossy(0.08, 42);
            drive_pair(&mut c, &mut s, &mut link, 1_000_000);
            let got = take_delivered(&mut s);
            assert_eq!(
                got.len(),
                1,
                "stack {} dropped {}",
                stack.label(),
                link.stats().dropped()
            );
            assert_eq!(got[0].1, data, "stack {}", stack.label());
            assert!(
                link.stats().dropped() > 0,
                "stack {}: loss occurred",
                stack.label()
            );
            // Recovery is visible in the counters: the sender retransmitted
            // (dup-SACK fast retransmit, receiver RESENDs or a fired timer).
            let stats = c.stats();
            assert!(
                stats.retransmissions > 0,
                "stack {}: loss recovery must count retransmissions (got {stats:?})",
                stack.label()
            );
        }
    }

    #[test]
    fn a_bare_ack_does_not_release_a_stream_senders_data() {
        use smt_wire::{
            HomaAck, IpHeader, Ipv4Header, OverlayTcpHeader, PacketPayload, PacketType,
            SmtOptionArea, SmtOverlayHeader, IPPROTO_TCP, IPV4_HEADER_LEN, SMT_OVERLAY_LEN,
        };
        let (ck, sk) = keys();
        let (mut c, mut s) = Endpoint::builder()
            .stack(StackKind::KtlsSw)
            .pair(&ck, &sk, 1, 2)
            .unwrap();
        let id = c.send(&[9u8; 9000], 0).unwrap();
        // The first flight is lost.
        let mut lost = Vec::new();
        c.poll_transmit(0, &mut lost);
        assert!(!lost.is_empty());
        // A bare cumulative ACK claiming the whole stream: no conforming
        // peer sends one on a stream flow, so it acknowledges nothing.
        let path = PathInfo::pair(1, 2).1;
        let bare_ack = Packet {
            ip: IpHeader::V4(Ipv4Header::new(
                path.src,
                path.dst,
                IPPROTO_TCP,
                (IPV4_HEADER_LEN + SMT_OVERLAY_LEN + HomaAck::LEN) as u16,
            )),
            overlay: SmtOverlayHeader {
                tcp: OverlayTcpHeader::new(path.src_port, path.dst_port, PacketType::Ack),
                options: SmtOptionArea::new(0, 0),
            },
            payload: PacketPayload::Ack(HomaAck {
                message_id: u64::MAX,
            }),
            corrupted: false,
        };
        c.handle_datagram(&bare_ack, 1_000).unwrap();
        while let Some(event) = c.poll_event() {
            assert!(
                !matches!(event, Event::MessageAcked(_)),
                "a bare ACK released {event:?}"
            );
        }
        assert!(c.next_timeout().is_some(), "retransmission timer disarmed");
        // The retransmit buffer still holds the bytes: the timer resends
        // them and the message is delivered and acknowledged.
        let mut link = PairFabric::reliable();
        drive_pair(&mut c, &mut s, &mut link, 1_000_000);
        assert_eq!(take_delivered(&mut s), [(id, vec![9u8; 9000])]);
        assert!(c.stats().retransmissions > 0);
        let mut acked = false;
        while let Some(event) = c.poll_event() {
            acked |= event == Event::MessageAcked(id);
        }
        assert!(acked);
    }

    #[test]
    fn tampered_stream_surfaces_error_event() {
        let (ck, sk) = keys();
        let (mut c, mut s) = Endpoint::builder()
            .stack(StackKind::KtlsSw)
            .pair(&ck, &sk, 1, 2)
            .unwrap();
        c.send(b"to be tampered with", 0).unwrap();
        let mut pkts = Vec::new();
        c.poll_transmit(0, &mut pkts);
        // Corrupt the first data packet's ciphertext.
        if let smt_wire::PacketPayload::Data(b) = &pkts[0].payload {
            let mut bytes = b.to_vec();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
            pkts[0].payload = smt_wire::PacketPayload::Data(bytes.into());
        }
        assert!(s.handle_datagram(&pkts[0], 0).is_err());
        // Skip the handshake event, then expect the error.
        let mut saw_error = false;
        while let Some(ev) = s.poll_event() {
            if matches!(ev, Event::Error(_)) {
                saw_error = true;
            }
        }
        assert!(saw_error);
        // A dead endpoint must not ACK the rejected bytes: the sender never
        // sees the message acknowledged.
        let mut from_s = Vec::new();
        assert_eq!(s.poll_transmit(0, &mut from_s), 0);
        assert!(s.stats().datagrams_dropped > 0);
        let mut link = PairFabric::reliable();
        drive_pair(&mut c, &mut s, &mut link, 10_000);
        while let Some(ev) = c.poll_event() {
            assert!(
                !matches!(ev, Event::MessageAcked(_)),
                "undelivered message must not be acknowledged"
            );
        }
    }

    #[test]
    fn mixed_mtu_stream_endpoints_interoperate() {
        // A jumbo-frame sender talking to a default-MTU receiver: the stream
        // offset stride is the sender's, carried on the wire, so the receiver
        // reconstructs offsets correctly.
        let (ck, sk) = keys();
        let (client_path, server_path) = PathInfo::pair(1, 2);
        let mut c = Endpoint::builder()
            .stack(StackKind::KtlsSw)
            .mtu(smt_wire::JUMBO_MTU)
            .path(client_path)
            .build(Some(&ck))
            .unwrap();
        let mut s = Endpoint::builder()
            .stack(StackKind::KtlsSw)
            .path(server_path)
            .build(Some(&sk))
            .unwrap();
        let data = vec![0x61u8; 100_000];
        c.send(&data, 0).unwrap();
        let mut link = PairFabric::reliable();
        drive_pair(&mut c, &mut s, &mut link, 1_000_000);
        let got = take_delivered(&mut s);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, data);
    }

    #[test]
    fn drive_pair_advances_virtual_time_and_quiesces() {
        let (ck, sk) = keys();
        let (mut c, mut s) = Endpoint::builder()
            .stack(StackKind::SmtSw)
            .pair(&ck, &sk, 1, 2)
            .unwrap();
        c.send(&[7u8; 30_000], 0).unwrap();
        let mut link = PairFabric::reliable();
        let events = drive_pair(&mut c, &mut s, &mut link, 1_000_000);
        assert!(events > 0);
        assert!(
            link.now() > LinkConfig::default().propagation_ns,
            "virtual clock advanced past one propagation delay"
        );
        assert_eq!(take_delivered(&mut s).len(), 1);
        // Quiesced: both timers disarmed, nothing in flight.
        assert_eq!(c.next_timeout(), None);
        assert_eq!(s.next_timeout(), None);
        // A second drive call does nothing.
        assert_eq!(drive_pair(&mut c, &mut s, &mut link, 1_000_000), 0);
    }

    /// Builds a connect/accept pair on `stack` sharing the given path-secret
    /// state, drives `payload` through it, and returns the client's observed
    /// `(resumed, rtt_ns)` from its `HandshakeComplete`.
    fn run_with_secrets(
        stack: StackKind,
        ca: &CertificateAuthority,
        client_secrets: &SharedPathSecrets,
        server_secrets: &SharedPathSecrets,
        payload: &[u8],
    ) -> (bool, Nanos) {
        let id = ca.issue_identity("server.dc.local");
        let (mut c, mut s) = Endpoint::builder()
            .stack(stack)
            .handshake_pair(
                ConnectConfig::new(ca.verifying_key(), "server.dc.local")
                    .path_secrets(client_secrets.clone()),
                AcceptConfig::new(id, ca.verifying_key()).path_secrets(server_secrets.clone()),
                4000,
                5201,
            )
            .unwrap();
        c.send(payload, 0).unwrap();
        let mut link = PairFabric::reliable();
        drive_pair(&mut c, &mut s, &mut link, 1_000_000);
        let got = take_delivered(&mut s);
        assert_eq!(got.len(), 1, "stack {}", stack.label());
        assert_eq!(got[0].0, MessageId(0), "stack {}", stack.label());
        assert_eq!(got[0].1, payload, "stack {}", stack.label());
        let mut result = None;
        let mut acked = false;
        while let Some(ev) = c.poll_event() {
            match ev {
                Event::HandshakeComplete {
                    resumed, rtt_ns, ..
                } => result = Some((resumed, rtt_ns)),
                Event::MessageAcked(MessageId(0)) => acked = true,
                Event::Error(e) => panic!("stack {}: {e}", stack.label()),
                _ => {}
            }
        }
        assert!(
            acked,
            "stack {}: message 0 never acknowledged",
            stack.label()
        );
        result.unwrap_or_else(|| panic!("stack {}: no HandshakeComplete", stack.label()))
    }

    #[test]
    fn path_secrets_amortize_handshakes_across_connections() {
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let ca = CertificateAuthority::new("path-ca");
            let client_secrets = SharedPathSecrets::new(16, 256);
            let server_secrets = SharedPathSecrets::new(16, 256);

            // Connection 1: full handshake; both sides mint the path secret.
            let (resumed, _) =
                run_with_secrets(stack, &ca, &client_secrets, &server_secrets, b"full");
            assert!(!resumed, "stack {}", stack.label());
            assert_eq!(client_secrets.len(), 1);
            assert_eq!(server_secrets.len(), 1);

            // Connection 2: derived from the path secret — no public-key
            // work, early data on the first flight, reported as resumed.
            let (resumed, _) = run_with_secrets(
                stack,
                &ca,
                &client_secrets,
                &server_secrets,
                b"derived early",
            );
            assert!(resumed, "stack {}: derived connect", stack.label());
            // Derived completions reuse the minted secret, not replace it.
            assert_eq!(client_secrets.len(), 1);
            assert_eq!(server_secrets.len(), 1);
        }
    }

    #[test]
    fn derived_connect_after_server_eviction_falls_back_to_full() {
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let ca = CertificateAuthority::new("evict-ca");
            let client_secrets = SharedPathSecrets::new(16, 256);
            let server_secrets = SharedPathSecrets::new(16, 256);
            let (resumed, _) =
                run_with_secrets(stack, &ca, &client_secrets, &server_secrets, b"mint");
            assert!(!resumed);
            assert_eq!(client_secrets.len(), 1);

            // The server "restarts" (or evicted the secret): a fresh map.
            // The client still tries the derived handshake, gets rejected,
            // and transparently falls back to the full handshake on the same
            // connection — the queued message (taken as derived early data,
            // then handed back) still arrives as message 0.
            let fresh_server = SharedPathSecrets::new(16, 256);
            let (resumed, _) = run_with_secrets(
                stack,
                &ca,
                &client_secrets,
                &fresh_server,
                b"after eviction",
            );
            assert!(
                !resumed,
                "stack {}: fallback is a full handshake",
                stack.label()
            );
            // The stale client secret was dropped and the fallback minted a
            // fresh one on both sides, so the next connection derives again.
            assert_eq!(client_secrets.len(), 1);
            assert_eq!(fresh_server.len(), 1);
            let (resumed, _) =
                run_with_secrets(stack, &ca, &client_secrets, &fresh_server, b"derived again");
            assert!(resumed, "stack {}: re-minted secret derives", stack.label());
        }
    }

    #[test]
    fn derived_setup_beats_full_handshake_at_the_server() {
        // The point of path-secret amortization: the server sees the first
        // application byte of a derived connection at 0.5 RTT (early data on
        // the hello), where a full handshake needs 1.5 RTT before data flows.
        let ca = CertificateAuthority::new("ttfb-ca");
        let client_secrets = SharedPathSecrets::new(4, 64);
        let server_secrets = SharedPathSecrets::new(4, 64);
        let make_pair = |cs: &SharedPathSecrets, ss: &SharedPathSecrets| {
            let id = ca.issue_identity("server.dc.local");
            Endpoint::builder()
                .stack(StackKind::SmtSw)
                .handshake_pair(
                    ConnectConfig::new(ca.verifying_key(), "server.dc.local")
                        .path_secrets(cs.clone()),
                    AcceptConfig::new(id, ca.verifying_key()).path_secrets(ss.clone()),
                    4000,
                    5201,
                )
                .unwrap()
        };
        let ttfb = |mut c: Endpoint, mut s: Endpoint| {
            c.send(b"request", 0).unwrap();
            let mut link = PairFabric::reliable();
            let mut first_delivery = None;
            // Drive one event at a time so delivery time is observable.
            loop {
                let before = link.now();
                if drive_pair(&mut c, &mut s, &mut link, 1) == 0 {
                    break;
                }
                let _ = before;
                if first_delivery.is_none() && !take_delivered(&mut s).is_empty() {
                    first_delivery = Some(link.now());
                }
            }
            first_delivery.expect("request delivered")
        };
        let (c1, s1) = make_pair(&client_secrets, &server_secrets);
        let full_ttfb = ttfb(c1, s1);
        let (c2, s2) = make_pair(&client_secrets, &server_secrets);
        let derived_ttfb = ttfb(c2, s2);
        assert!(
            derived_ttfb < full_ttfb,
            "derived ttfb {derived_ttfb} must beat full ttfb {full_ttfb}"
        );
    }

    #[test]
    fn a_dead_endpoint_is_inert_and_says_so_the_same_way_on_both_engines() {
        let mut errors = Vec::new();
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            // The client trusts a different CA, so the server's certificate
            // fails verification: a fatal handshake error on the client.
            let ca = CertificateAuthority::new("real-ca");
            let rogue = CertificateAuthority::new("rogue-ca");
            let id = ca.issue_identity("server.dc.local");
            let connect = || ConnectConfig::new(rogue.verifying_key(), "server.dc.local");
            let (mut c, mut s) = Endpoint::builder()
                .stack(stack)
                .handshake_pair(
                    connect(),
                    AcceptConfig::new(id, ca.verifying_key()),
                    4000,
                    5201,
                )
                .unwrap();
            c.send(b"never delivered", 0).unwrap();
            let mut link = PairFabric::reliable();
            // The abandoned server keeps retransmitting its flight; bound it.
            drive_pair(&mut c, &mut s, &mut link, 200);
            let mut died = false;
            while let Some(ev) = c.poll_event() {
                died |= matches!(ev, Event::Error(_));
            }
            assert!(died, "stack {}: handshake must fail", stack.label());

            let now = link.now();
            let send_err = c.send(b"x", now).unwrap_err();
            let rekey_err = c.rekey(now).unwrap_err();
            assert!(matches!(send_err, EndpointError::Config(_)), "{send_err}");
            assert_eq!(send_err.to_string(), rekey_err.to_string());

            // All ingress is dropped — handshake CONTROL packets included.
            let mut first_flight = Vec::new();
            Endpoint::builder()
                .stack(stack)
                .path(PathInfo::pair(4000, 5201).1)
                .connect(connect())
                .unwrap()
                .poll_transmit(now, &mut first_flight);
            assert_eq!(
                first_flight[0].overlay.tcp.packet_type,
                smt_wire::PacketType::Control
            );
            let before = c.stats();
            c.handle_datagram(&first_flight[0], now).unwrap();
            let after = c.stats();
            assert_eq!(after.datagrams_dropped, before.datagrams_dropped + 1);
            assert_eq!(after.wire_bytes_received, before.wire_bytes_received);
            assert_eq!(c.poll_event(), None, "stack {}", stack.label());
            assert_eq!(c.poll_transmit(now, &mut Vec::new()), 0);
            assert_eq!(c.next_timeout(), None, "stack {}", stack.label());
            errors.push(send_err.to_string());
        }
        assert_eq!(errors[0], errors[1], "one error for a dead endpoint");
    }

    #[test]
    fn a_full_handshake_queue_refuses_the_send_without_consuming_its_id() {
        let mut errors = Vec::new();
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let ca = CertificateAuthority::new("queue-ca");
            let mut c = Endpoint::builder()
                .stack(stack)
                .path(PathInfo::pair(4000, 5201).0)
                .connect(ConnectConfig::new(ca.verifying_key(), "server.dc.local"))
                .unwrap();
            // Fill the 16 MiB pre-handshake queue exactly.
            let chunk = vec![0u8; 4 << 20];
            for want in 0..4 {
                assert_eq!(c.send(&chunk, 0).unwrap(), MessageId(want));
            }
            let err = c.send(b"one byte too many", 0).unwrap_err();
            assert!(matches!(err, EndpointError::Config(_)), "{err}");
            // The refused send consumed nothing: the next accepted one (an
            // empty message still fits) gets the next ID.
            assert_eq!(
                c.send(b"", 0).unwrap(),
                MessageId(4),
                "stack {}",
                stack.label()
            );
            assert_eq!(c.stats().peak_tracked_bytes, 16 << 20);
            errors.push(err.to_string());
        }
        assert_eq!(errors[0], errors[1], "one error for a full queue");
    }

    /// An endpoint that logs every packet it puts on the wire: when, and
    /// where in the order both ends of its pair emitted theirs.
    struct Logged {
        inner: Endpoint,
        order: std::rc::Rc<std::cell::Cell<u64>>,
        sent: Vec<(u64, Nanos, Packet)>,
    }

    impl Logged {
        fn pair((a, b): (Endpoint, Endpoint)) -> (Self, Self) {
            let order = std::rc::Rc::default();
            let logged = |inner| Logged {
                inner,
                order: std::rc::Rc::clone(&order),
                sent: Vec::new(),
            };
            (logged(a), logged(b))
        }
    }

    impl SecureEndpoint for Logged {
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
            let before = out.len();
            let n = self.inner.poll_transmit(now, out);
            for p in &out[before..] {
                self.sent.push((self.order.get(), now, p.clone()));
                self.order.set(self.order.get() + 1);
            }
            n
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

    /// The pair loop that polls both ends after every event and every
    /// fabric pop: what [`drive_pair`] must emit the same packets as.
    fn drive_pair_polling_both(
        a: &mut Logged,
        b: &mut Logged,
        link: &mut PairFabric,
        max_events: usize,
    ) -> usize {
        let driver = &mut link.driver;
        let mut scratch = Vec::new();
        let mut events = 0usize;
        loop {
            let now = driver.now();
            if a.poll_transmit(now, &mut scratch) > 0 {
                driver.fabric.send(now, 0, scratch.drain(..));
            }
            if b.poll_transmit(now, &mut scratch) > 0 {
                driver.fabric.send(now, 1, scratch.drain(..));
            }
            if events >= max_events {
                return events;
            }
            let t_net = driver.fabric.next_arrival();
            let t_timer = [a.next_timeout(), b.next_timeout()]
                .into_iter()
                .flatten()
                .min();
            match (t_net, t_timer) {
                (None, None) => return events,
                (Some(tn), tt) if tt.is_none_or(|tt| tn <= tt) => {
                    let Some((at, port, packet)) = driver.fabric.pop_arrival() else {
                        continue;
                    };
                    driver.event(at);
                    events += 1;
                    let _ = match port {
                        0 => a.handle_datagram(&packet, driver.now()),
                        _ => b.handle_datagram(&packet, driver.now()),
                    };
                }
                (_, Some(tt)) => {
                    driver.event(tt);
                    events += 1;
                    let now = driver.now();
                    if a.next_timeout().is_some_and(|d| d <= now) {
                        a.on_timeout(now);
                    }
                    if b.next_timeout().is_some_and(|d| d <= now) {
                        b.on_timeout(now);
                    }
                }
                (Some(_), None) => unreachable!(),
            }
        }
    }

    /// What one echo workload leaves behind: each end's packets with their
    /// send times and its events, the fabric's counters and the clock.
    type EchoTrace = (
        Vec<(u64, Nanos, Packet)>,
        Vec<(u64, Nanos, Packet)>,
        Vec<Event>,
        Vec<Event>,
        FabricStats,
        Nanos,
    );

    /// Two rounds of `depth` requests echoed back, driven in slices of a few
    /// dozen events so that calls return, and re-enter, mid-exchange.
    fn echo_trace(
        drive: fn(&mut Logged, &mut Logged, &mut PairFabric, usize) -> usize,
        stack: StackKind,
        keys: &(SessionKeys, SessionKeys),
        faults: FaultConfig,
        depth: usize,
    ) -> EchoTrace {
        const SLICE: usize = 37;
        let (mut c, mut s) = Logged::pair(
            Endpoint::builder()
                .stack(stack)
                .pair(&keys.0, &keys.1, 4000, 5201)
                .unwrap(),
        );
        let mut link = PairFabric::with_config(LinkConfig::default(), faults);
        let (mut c_events, mut s_events) = (Vec::new(), Vec::new());
        let settle = |c: &mut Logged, s: &mut Logged, link: &mut PairFabric| {
            for _ in 0..100_000 {
                if drive(c, s, link, SLICE) < SLICE {
                    return;
                }
            }
            panic!("{stack:?} did not quiesce");
        };
        for round in 0..2 {
            for i in 0..depth {
                let size = [64, 1_000, 3_000, 9_000][(i + round) % 4];
                c.send(&vec![(i + round) as u8; size], link.now()).unwrap();
            }
            settle(&mut c, &mut s, &mut link);
            while let Some(event) = s.poll_event() {
                if let Event::MessageDelivered { data, .. } = &event {
                    s.send(data, link.now()).unwrap();
                }
                s_events.push(event);
            }
            settle(&mut c, &mut s, &mut link);
            c_events.extend(std::iter::from_fn(|| c.poll_event()));
        }
        (c.sent, s.sent, c_events, s_events, link.stats(), link.now())
    }

    #[test]
    fn polling_only_what_an_event_reached_emits_what_polling_both_ends_did() {
        let keys = keys();
        let hostile = FaultConfig {
            loss: 0.03,
            duplicate: 0.05,
            reorder: 0.1,
            reorder_delay_ns: 5_000,
            seed: 9,
        };
        for stack in StackKind::all() {
            for (fabric, faults) in [("reliable", FaultConfig::none()), ("hostile", hostile)] {
                for depth in [1, 64] {
                    let label = format!("{} {fabric} depth {depth}", stack.label());
                    let got = echo_trace(drive_pair, stack, &keys, faults, depth);
                    let want = echo_trace(drive_pair_polling_both, stack, &keys, faults, depth);
                    let delivered = |events: &[Event]| {
                        events
                            .iter()
                            .filter(|e| matches!(e, Event::MessageDelivered { .. }))
                            .count()
                    };
                    assert_eq!(delivered(&got.3), 2 * depth, "{label}: requests arrived");
                    assert_eq!(delivered(&got.2), 2 * depth, "{label}: echoes arrived");
                    if fabric == "hostile" {
                        assert!(got.4.dropped() > 0, "{label}: the fabric dropped");
                    }
                    for (end, got, want) in
                        [("client", &got.0, &want.0), ("server", &got.1, &want.1)]
                    {
                        let first =
                            (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i));
                        assert_eq!(first, None, "{label}: the {end}'s packets diverge here");
                    }
                    assert!(got.2 == want.2, "{label}: the client's events diverge");
                    assert!(got.3 == want.3, "{label}: the server's events diverge");
                    assert_eq!((got.4, got.5), (want.4, want.5), "{label}");
                }
            }
        }
    }

    #[test]
    fn timers_firing_at_once_flush_a_before_b() {
        let keys = keys();
        let blackhole = FaultConfig::lossy(1.0, 1);
        let run = |drive: fn(&mut Logged, &mut Logged, &mut PairFabric, usize) -> usize| {
            let (mut a, mut b) = Logged::pair(
                Endpoint::builder()
                    .stack(StackKind::SmtSw)
                    .pair(&keys.0, &keys.1, 4000, 5201)
                    .unwrap(),
            );
            a.send(b"from a", 0).unwrap();
            b.send(b"from b", 0).unwrap();
            let mut link = PairFabric::with_config(LinkConfig::default(), blackhole);
            assert_eq!(drive(&mut a, &mut b, &mut link, 6), 6);
            (a.sent, b.sent)
        };
        let (a, b) = run(drive_pair);
        // Every fire probes both ends at one instant, `a` first.
        assert!(a.len() > 2 && a.len() == b.len());
        for (a, b) in a.iter().zip(&b) {
            assert_eq!(a.1, b.1);
            assert!(a.0 < b.0);
        }
        assert!((a, b) == run(drive_pair_polling_both));
    }

    #[test]
    fn the_first_deadline_after_a_send_is_one_opening_rto_out() {
        let (ck, sk) = keys();
        for stack in StackKind::all() {
            let (mut c, _s) = Endpoint::builder()
                .stack(stack)
                .pair(&ck, &sk, 1, 2)
                .unwrap();
            assert_eq!(c.next_timeout(), None, "{}", stack.label());
            c.send(b"timer me", 1_000).unwrap();
            assert_eq!(
                c.next_timeout(),
                Some(1_000 + crate::cc::INITIAL_RTO_NS),
                "{}",
                stack.label()
            );
        }
    }
}
