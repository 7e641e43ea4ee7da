//! In-band connection setup: handshake flights carried in CONTROL packets
//! over the fabric, with clocked RTO retransmission.
//!
//! [`EndpointBuilder::connect`](super::EndpointBuilder::connect) and
//! [`EndpointBuilder::accept`](super::EndpointBuilder::accept) build endpoints
//! that establish their own keys on the wire instead of receiving them out of
//! band.  The connection shell drives the machinery in this module for every
//! stack:
//!
//! * **Flight carrier.** A handshake flight (the byte strings produced by
//!   `smt_crypto::handshake::machine`) is fragmented into
//!   [`PacketType::Control`] packets — option area: `message_id` = flight
//!   sequence number, `message_length` = flight length, `tso_offset` =
//!   fragment offset — and reassembled on the far side.  Flights 0/2 travel
//!   client→server (ClientHello + optional 0-RTT record, then Finished),
//!   flight 1 server→client (ServerHello + optional in-band SMT-ticket +
//!   encrypted messages).
//! * **Loss recovery.** The sender of a flight retransmits it when its RTO
//!   (the data path's opening RTO, [`INITIAL_RTO_NS`]) expires without the
//!   next flight arriving, and either side answers a *duplicate* of the previous flight
//!   by resending its own — the receiver-driven half of recovery.  Duplicate
//!   final flights are absorbed without response, so duplication faults
//!   cannot create retransmission storms.
//! * **Timing.** The driver stamps the virtual time of its first transmit
//!   (client) or first ClientHello arrival (server); the difference to the
//!   completing flight is the `rtt_ns` reported in
//!   [`Event::HandshakeComplete`](super::Event::HandshakeComplete).
//!
//! The [`ZeroRttAcceptor`] is the shared server-side state of the paper's
//! SMT-ticket handshake (§4.5.2/§4.5.3): the long-term ticket issuer plus the
//! ClientHello-random anti-replay cache, shared by every accepted endpoint of
//! one listener so a replayed 0-RTT first flight is rejected no matter which
//! connection it is replayed against.
//!
//! [`SharedPathSecrets`] is the per-host state of **path-secret amortized**
//! handshakes: the first full handshake between a pair of hosts mints a path
//! secret on both sides, and every later connection between them derives
//! fresh per-connection keys from it in one symmetric-crypto flight each way
//! — zero extra round trips, no public-key operations.  When the server has
//! evicted the secret (bounded map, restart), the driver transparently falls
//! back to the full handshake on the same connection.

use super::EndpointStats;
use crate::cc::INITIAL_RTO_NS;
use crate::stack::StackKind;
use bytes::Bytes;
use smt_core::segment::PathInfo;
use smt_crypto::cert::{Identity, VerifyingKey};
use smt_crypto::handshake::{
    derived_reject_flight, derived_server_respond, is_derived_flight,
    ClientConfig as CryptoClientConfig, ClientMachine, ClientMode, DerivedClient,
    DerivedClientOutcome, DerivedServerOutcome, PathSecret, PathSecretMap, ReplayCache,
    ServerConfig as CryptoServerConfig, ServerMachine, SessionKeys, SmtTicket, SmtTicketIssuer,
    ZeroRttContext,
};
use smt_sim::Nanos;
use smt_wire::{
    max_payload_per_packet, IpHeader, Ipv4Header, OverlayTcpHeader, Packet, PacketPayload,
    PacketType, SmtOptionArea, SmtOverlayHeader, IPV4_HEADER_LEN, SMT_OVERLAY_LEN,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Largest application payload that may piggyback as 0-RTT early data on the
/// first flight (one TLS record).
pub const EARLY_DATA_MAX: usize = 16 * 1024;

/// Cap on application bytes queued while an in-band handshake runs; beyond
/// it `send` returns a typed error instead of buffering without bound.
pub(crate) const MAX_QUEUED_BYTES: usize = 16 << 20;

/// Hard cap on one reassembled handshake flight.  Real flights are a few KiB
/// (the certificate chain dominates); the flight length is attacker-declared
/// wire data, so anything larger is rejected before a single byte of it is
/// buffered (DESIGN.md §8 state-bounds table).
pub const MAX_FLIGHT_BYTES: usize = 64 * 1024;

/// Client-side configuration for [`super::EndpointBuilder::connect`].
///
/// A fresh configuration performs the full 1-RTT handshake; [`resume`] turns
/// it into the SMT-ticket 0-RTT handshake that piggybacks the first queued
/// message as early data.
///
/// [`resume`]: ConnectConfig::resume
pub struct ConnectConfig {
    pub(crate) crypto: CryptoClientConfig,
    pub(crate) resume: Option<ResumeTicket>,
    pub(crate) forward_secrecy: bool,
    pub(crate) secrets: Option<SharedPathSecrets>,
}

pub(crate) struct ResumeTicket {
    pub(crate) ticket: SmtTicket,
    pub(crate) now: u64,
}

impl std::fmt::Debug for ConnectConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnectConfig")
            .field("server_name", &self.crypto.server_name)
            .field("resume", &self.resume.is_some())
            .finish_non_exhaustive()
    }
}

impl ConnectConfig {
    /// A client that authenticates the server against the internal CA.
    pub fn new(ca_key: VerifyingKey, server_name: impl Into<String>) -> Self {
        Self {
            crypto: CryptoClientConfig::new(ca_key, server_name),
            resume: None,
            forward_secrecy: false,
            secrets: None,
        }
    }

    /// Resumes with an SMT-ticket: the 0-RTT handshake that sends the first
    /// queued message as early data in the very first flight.  `now` is the
    /// client's clock for ticket expiry (same epoch as the ticket).
    pub fn resume(mut self, ticket: SmtTicket, now: u64) -> Self {
        self.resume = Some(ResumeTicket { ticket, now });
        self
    }

    /// Requests the forward-secret 0-RTT variant ("Init-FS").  Must match the
    /// server's `resumption_forward_secrecy` configuration.  Order-independent
    /// with [`resume`](Self::resume); it only takes effect when resuming.
    pub fn forward_secrecy(mut self, on: bool) -> Self {
        self.forward_secrecy = on;
        self
    }

    /// Attaches the host's shared path-secret state.  When the map already
    /// holds a secret for this server, the connection runs the **derived
    /// handshake**: per-connection keys HKDF-derived from the path secret in
    /// one symmetric-crypto flight each way, early data riding the hello —
    /// no extra round trips and no public-key work.  Otherwise the
    /// full/ticket handshake runs and mints the path secret into the map so
    /// the next connection to the same server can derive.  A server that has
    /// meanwhile evicted the secret triggers a transparent fallback to the
    /// full handshake on the same connection.
    pub fn path_secrets(mut self, secrets: SharedPathSecrets) -> Self {
        self.secrets = Some(secrets);
        self
    }
}

/// The shared server-side state of the SMT-ticket 0-RTT handshake: the
/// long-term ticket issuer and the ClientHello-random anti-replay cache
/// (§4.5.3), shared across every endpoint accepted by one listener.
#[derive(Clone)]
pub struct ZeroRttAcceptor {
    pub(crate) issuer: Arc<SmtTicketIssuer>,
    pub(crate) replay: Arc<Mutex<ReplayCache>>,
}

impl std::fmt::Debug for ZeroRttAcceptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZeroRttAcceptor")
            .field("ticket_id", &self.issuer.ticket_id())
            .finish_non_exhaustive()
    }
}

impl ZeroRttAcceptor {
    /// Wraps a ticket issuer and a replay cache bounded to `replay_capacity`
    /// ClientHello randoms.
    pub fn new(issuer: SmtTicketIssuer, replay_capacity: usize) -> Self {
        Self {
            issuer: Arc::new(issuer),
            replay: Arc::new(Mutex::new(ReplayCache::new(replay_capacity))),
        }
    }

    /// Mints the current SMT-ticket, as the internal DNS resolver would
    /// publish it (out-of-band distribution; accepted endpoints also splice
    /// it into their server flight for in-band distribution).
    pub fn ticket(&self, now: u64) -> SmtTicket {
        self.issuer.ticket(now)
    }
}

/// The shared per-host state of path-secret amortized handshakes: the
/// bounded [`PathSecretMap`] that completed full handshakes mint into, and
/// the derived-hello anti-replay cache (a derived hello plus its early data
/// is replayable wholesale, exactly like a 0-RTT ClientHello).
///
/// Clone one instance into every endpoint of a host — into
/// [`ConnectConfig::path_secrets`] on the client side and
/// [`AcceptConfig::path_secrets`] on the server side — so all connections
/// between a pair of hosts amortize a single public-key handshake.
#[derive(Clone)]
pub struct SharedPathSecrets {
    pub(crate) map: Arc<Mutex<PathSecretMap>>,
    pub(crate) replay: Arc<Mutex<ReplayCache>>,
}

impl std::fmt::Debug for SharedPathSecrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPathSecrets")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl SharedPathSecrets {
    /// A path-secret map bounded to `capacity` peers, with a derived-hello
    /// replay cache bounded to `replay_capacity` client randoms.  Both evict
    /// oldest-first and count their evictions.
    pub fn new(capacity: usize, replay_capacity: usize) -> Self {
        Self {
            map: Arc::new(Mutex::new(PathSecretMap::new(capacity))),
            replay: Arc::new(Mutex::new(ReplayCache::new(replay_capacity))),
        }
    }

    fn lock_map(&self) -> std::sync::MutexGuard<'_, PathSecretMap> {
        // Recover from a poisoned lock: the map contents (peer → secret)
        // stay valid even if another endpoint panicked mid-insert.
        self.map.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The path secret shared with `peer`, if one is held.
    pub fn get(&self, peer: &str) -> Option<PathSecret> {
        self.lock_map().get(peer).cloned()
    }

    /// Inserts (or replaces) `secret` under its peer name, evicting the
    /// oldest entry when at capacity.
    pub fn insert(&self, secret: PathSecret) {
        self.lock_map().insert(secret);
    }

    /// Removes and returns the path secret shared with `peer` (used to drop
    /// a secret the server has evicted, and by churn tests to force the
    /// full-handshake fallback).
    pub fn remove(&self, peer: &str) -> Option<PathSecret> {
        self.lock_map().remove(peer)
    }

    /// Number of path secrets currently held.
    pub fn len(&self) -> usize {
        self.lock_map().len()
    }

    /// True when no path secrets are held.
    pub fn is_empty(&self) -> bool {
        self.lock_map().is_empty()
    }

    /// Path secrets evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.lock_map().evictions()
    }
}

/// Server-side configuration for [`super::EndpointBuilder::accept`].
pub struct AcceptConfig {
    pub(crate) crypto: CryptoServerConfig,
    pub(crate) acceptor: Option<ZeroRttAcceptor>,
    pub(crate) ticket_now: u64,
    pub(crate) secrets: Option<SharedPathSecrets>,
}

impl std::fmt::Debug for AcceptConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AcceptConfig")
            .field("zero_rtt", &self.acceptor.is_some())
            .finish_non_exhaustive()
    }
}

impl AcceptConfig {
    /// A server presenting `identity`, validating clients (under mTLS)
    /// against the internal CA.
    pub fn new(identity: Identity, ca_key: VerifyingKey) -> Self {
        Self {
            crypto: CryptoServerConfig::new(identity, ca_key),
            acceptor: None,
            ticket_now: 0,
            secrets: None,
        }
    }

    /// Enables SMT-ticket 0-RTT: the endpoint accepts ticket ClientHellos
    /// through the shared `acceptor` *and* splices a fresh ticket into its
    /// server flight so the client can resume in-band.
    pub fn zero_rtt(mut self, acceptor: ZeroRttAcceptor) -> Self {
        self.acceptor = Some(acceptor);
        self
    }

    /// Sets the issue timestamp stamped on in-band minted tickets (same
    /// epoch the resuming client passes to [`ConnectConfig::resume`]).
    pub fn ticket_time(mut self, now: u64) -> Self {
        self.ticket_now = now;
        self
    }

    /// Attaches the host's shared path-secret state: derived hellos are
    /// answered from the map (replay-checked against the shared cache), a
    /// hello whose path secret was evicted is rejected so the client falls
    /// back, and completed full handshakes mint fresh path secrets into the
    /// map for later connections to derive from.
    pub fn path_secrets(mut self, secrets: SharedPathSecrets) -> Self {
        self.secrets = Some(secrets);
        self
    }
}

/// Everything a completed in-band handshake hands to the owning endpoint.
pub(crate) struct HandshakeResult {
    pub keys: SessionKeys,
    /// Virtual time between this side's first handshake action and
    /// completion.
    pub rtt_ns: Nanos,
    /// Whether the session was resumed (PSK or SMT-ticket).
    pub resumed: bool,
    /// In-band SMT-ticket received from the server (client side only).
    pub ticket: Option<SmtTicket>,
    /// Whether this (client) side piggybacked early data that the server
    /// accepted.
    pub early_data_sent: bool,
}

/// What one handled CONTROL packet produced.
#[derive(Default)]
pub(crate) struct DriverOutcome {
    /// 0-RTT early data decrypted from the first flight (server side),
    /// surfaced before the handshake completes — the point of the exchange.
    pub early_data: Option<Vec<u8>>,
    /// Present exactly once, when the handshake completes on this side.
    pub complete: Option<Box<HandshakeResult>>,
    /// A fatal handshake failure; the endpoint goes dead.
    pub error: Option<String>,
    /// Early data reclaimed from a rejected derived attempt whose full
    /// fallback handshake cannot carry it; the endpoint re-queues it as
    /// message 0 so it flushes normally on completion.
    pub requeue_early: Option<Vec<u8>>,
}

enum Role {
    Client {
        pending: Option<Box<(CryptoClientConfig, Option<ResumeTicket>, bool)>>,
        machine: Option<Box<ClientMachine>>,
        /// In-flight derived handshake, when a held path secret allowed one.
        /// `pending` is kept alongside as the transparent fallback.
        derived: Option<Box<DerivedClient>>,
        /// The host's shared path-secret state (derive from + mint into).
        secrets: Option<SharedPathSecrets>,
        /// Peer name: the path-secret map key on this side.
        server_name: String,
        /// Early data attached to the derived hello, kept so a fallback can
        /// re-carry it (ticket 0-RTT) or hand it back (full handshake).
        early_payload: Option<Vec<u8>>,
    },
    Server {
        machine: Box<ServerMachine>,
        acceptor: Option<ZeroRttAcceptor>,
        /// The host's shared path-secret state (answer derived hellos, mint
        /// on full completions).
        secrets: Option<SharedPathSecrets>,
    },
}

/// Reassembly state of one incoming flight.
struct FlightRx {
    total: usize,
    frags: BTreeMap<usize, Bytes>,
    frag_bytes: usize,
}

impl FlightRx {
    fn new(total: usize) -> Self {
        Self {
            total,
            frags: BTreeMap::new(),
            frag_bytes: 0,
        }
    }

    /// Inserts a fragment.  Returns `false` when the fragment lies outside
    /// `[0, total)` (forged geometry) or disagrees byte-for-byte with a copy
    /// already received at the same offset (a coalescing/corruption attack);
    /// the first authentic copy is kept and the conflict is surfaced to the
    /// caller's counters.
    fn insert(&mut self, offset: usize, data: &Bytes) -> bool {
        if data.is_empty() || offset >= self.total || data.len() > self.total - offset {
            return false;
        }
        match self.frags.entry(offset) {
            std::collections::btree_map::Entry::Occupied(existing) => existing.get() == data,
            std::collections::btree_map::Entry::Vacant(slot) => {
                self.frag_bytes += data.len();
                slot.insert(data.clone());
                true
            }
        }
    }

    /// Bytes currently buffered for this flight (bounded by `total`, which is
    /// itself bounded by [`MAX_FLIGHT_BYTES`]).
    fn tracked_bytes(&self) -> usize {
        self.frag_bytes
    }

    /// Returns the flight bytes once the fragments cover `[0, total)`.
    fn try_assemble(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.total);
        for (&off, frag) in &self.frags {
            if off > out.len() {
                return None; // Gap.
            }
            if off + frag.len() > out.len() {
                out.extend_from_slice(&frag[out.len() - off..]);
            }
        }
        (out.len() >= self.total).then_some(out)
    }
}

/// The per-endpoint in-band handshake driver: owns the state machine, the
/// flight carrier and the retransmission timer.  The connection shell routes
/// CONTROL packets here; the driver counts what it does straight into the
/// connection's [`EndpointStats`], passed in by the shell.
pub(crate) struct HandshakeDriver {
    role: Role,
    path: PathInfo,
    mtu: usize,
    proto: u8,
    deadline: Option<Nanos>,
    started_at: Option<Nanos>,
    outbox: VecDeque<Packet>,
    last_flight: Vec<Packet>,
    last_flight_seq: u64,
    rx_expected: u64,
    rx: Option<FlightRx>,
    complete: bool,
    failed: bool,
    early_sent: bool,
}

impl std::fmt::Debug for HandshakeDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandshakeDriver")
            .field("client", &matches!(self.role, Role::Client { .. }))
            .field("complete", &self.complete)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl HandshakeDriver {
    /// A client driver; the first flight is built lazily at the first
    /// `poll_transmit` so queued application data can piggyback as 0-RTT
    /// early data.
    pub fn client(config: ConnectConfig, path: PathInfo, mtu: usize, proto: u8) -> Self {
        let server_name = config.crypto.server_name.clone();
        Self::new(
            Role::Client {
                pending: Some(Box::new((
                    config.crypto,
                    config.resume,
                    config.forward_secrecy,
                ))),
                machine: None,
                derived: None,
                secrets: config.secrets,
                server_name,
                early_payload: None,
            },
            1,
            path,
            mtu,
            proto,
        )
    }

    /// A server driver awaiting a ClientHello flight.
    pub fn server(config: AcceptConfig, path: PathInfo, mtu: usize, proto: u8) -> Self {
        let ticket = config
            .acceptor
            .as_ref()
            .map(|a| a.issuer.ticket(config.ticket_now));
        Self::new(
            Role::Server {
                machine: Box::new(ServerMachine::new(config.crypto, ticket)),
                acceptor: config.acceptor,
                secrets: config.secrets,
            },
            0,
            path,
            mtu,
            proto,
        )
    }

    fn new(role: Role, rx_expected: u64, path: PathInfo, mtu: usize, proto: u8) -> Self {
        Self {
            role,
            path,
            mtu,
            proto,
            deadline: None,
            started_at: None,
            outbox: VecDeque::new(),
            last_flight: Vec::new(),
            last_flight_seq: 0,
            rx_expected,
            rx: None,
            complete: false,
            failed: false,
            early_sent: false,
        }
    }

    /// True while the handshake is neither complete nor failed — application
    /// data must be queued, not transmitted.
    pub fn in_progress(&self) -> bool {
        !self.complete && !self.failed
    }

    /// True when this is a client driver that has not built its first flight
    /// yet.
    pub fn needs_start(&self) -> bool {
        matches!(
            &self.role,
            Role::Client {
                pending: Some(_),
                machine: None,
                derived: None,
                ..
            }
        )
    }

    /// True when the pending client start can carry the first queued message
    /// as early data on its first flight: an SMT-ticket resumption, or a
    /// derived handshake from a held path secret.
    pub fn wants_early_data(&self) -> bool {
        match &self.role {
            Role::Client {
                pending: Some(boxed),
                machine: None,
                derived: None,
                secrets,
                server_name,
                ..
            } => {
                boxed.1.is_some()
                    || secrets
                        .as_ref()
                        .is_some_and(|s| s.get(server_name).is_some())
            }
            _ => false,
        }
    }

    /// Builds and queues the first client flight at virtual time `now`,
    /// piggybacking `early_data` when resuming or deriving.  Returns an
    /// error message on failure (expired ticket, bad configuration); the
    /// endpoint goes dead.
    pub fn start_client(&mut self, now: Nanos, early_data: Option<Vec<u8>>) -> Result<(), String> {
        // A held path secret short-circuits the public-key handshake: derive
        // fresh connection keys from it with one symmetric-crypto flight each
        // way, early data riding the hello.  `pending` is kept untouched —
        // it is the transparent fallback if the server rejects.
        let derived_flight = {
            let Role::Client {
                pending,
                machine,
                derived,
                secrets,
                server_name,
                ..
            } = &mut self.role
            else {
                return Ok(());
            };
            if pending.is_none() || machine.is_some() || derived.is_some() {
                return Ok(());
            }
            match secrets.as_ref().and_then(|s| s.get(server_name)) {
                Some(path) => {
                    match DerivedClient::start(&path, early_data.as_deref().unwrap_or(&[])) {
                        Ok((dc, flight)) => {
                            *derived = Some(Box::new(dc));
                            Some(flight)
                        }
                        Err(_) => {
                            // Unusable path secret (suite mismatch after a
                            // redeploy, internal error): drop it and run the
                            // full handshake below.
                            if let Some(s) = secrets {
                                s.remove(server_name);
                            }
                            None
                        }
                    }
                }
                None => None,
            }
        };
        if let Some(flight) = derived_flight {
            self.early_sent = early_data.as_ref().is_some_and(|d| !d.is_empty());
            if let Role::Client { early_payload, .. } = &mut self.role {
                *early_payload = early_data;
            }
            self.started_at = Some(now);
            self.set_flight(0, &flight);
            self.deadline = Some(now + INITIAL_RTO_NS);
            return Ok(());
        }
        let Role::Client {
            pending, machine, ..
        } = &mut self.role
        else {
            return Ok(());
        };
        let Some(boxed) = pending.take() else {
            return Ok(());
        };
        let (crypto, resume, forward_secrecy) = *boxed;
        let mode = match resume {
            None => ClientMode::Full,
            Some(r) => ClientMode::ZeroRtt {
                ticket: r.ticket,
                early_data: early_data.clone().unwrap_or_default(),
                forward_secrecy,
                now: r.now,
            },
        };
        self.early_sent = early_data.is_some_and(|d| !d.is_empty());
        match ClientMachine::start(crypto, mode) {
            Ok((m, flight)) => {
                *machine = Some(Box::new(m));
                self.started_at = Some(now);
                self.set_flight(0, &flight);
                self.deadline = Some(now + INITIAL_RTO_NS);
                Ok(())
            }
            Err(e) => {
                self.failed = true;
                Err(format!("handshake start failed: {e}"))
            }
        }
    }

    /// Handles one CONTROL packet at virtual time `now`.
    pub fn handle_control(
        &mut self,
        packet: &Packet,
        now: Nanos,
        stats: &mut EndpointStats,
    ) -> DriverOutcome {
        let mut outcome = DriverOutcome::default();
        let Some(data) = packet.payload.as_data() else {
            return outcome;
        };
        stats.wire_bytes_received += data.len() as u64;
        if self.failed {
            stats.datagrams_dropped += 1;
            return outcome;
        }
        let seq = packet.overlay.options.message_id;
        let total = packet.overlay.options.message_length as usize;
        let offset = packet.overlay.options.tso_offset as usize;
        if seq < self.rx_expected {
            // A duplicate of a flight we already answered: if our own next
            // flight is that answer, resend it (the peer evidently lost it).
            // Only the flight's first fragment triggers the resend, so a
            // k-fragment duplicate costs one reply, not k.  Duplicates of the
            // final flight are absorbed silently so duplication faults cannot
            // ping-pong forever.
            if seq + 1 == self.last_flight_seq && !self.last_flight.is_empty() && offset == 0 {
                stats.retransmissions += self.last_flight.len() as u64;
                self.outbox.extend(self.last_flight.iter().cloned());
            }
            return outcome;
        }
        if seq != self.rx_expected || total == 0 {
            // A flight from the future (or malformed): unusable.
            stats.datagrams_dropped += 1;
            return outcome;
        }
        if total > MAX_FLIGHT_BYTES {
            // Attacker-declared flight length: reject before buffering.
            stats.malformed_rejected += 1;
            stats.datagrams_dropped += 1;
            return outcome;
        }
        let rx = self.rx.get_or_insert_with(|| FlightRx::new(total));
        if rx.total != total || !rx.insert(offset, data) {
            // Geometry inconsistent with the flight under assembly, or a
            // conflicting copy of an already-buffered fragment: a forged or
            // corrupted packet.  Keep what we have — the authentic sender
            // retransmits on its RTO if the flight cannot complete.
            stats.malformed_rejected += 1;
            stats.datagrams_dropped += 1;
            return outcome;
        }
        stats.peak_tracked_bytes = stats.peak_tracked_bytes.max(rx.tracked_bytes() as u64);
        let Some(flight) = rx.try_assemble() else {
            return outcome;
        };
        self.rx = None;
        // Flight sequence numbers alternate directions (client 0 → server 1 →
        // client 2), so the next flight *we* can receive is two ahead.
        self.rx_expected = seq + 2;

        // Drive the state machine with the assembled flight.  Replies always
        // carry the next flight sequence number (`seq + 1`): flights keep
        // alternating directions even when a rejected derived attempt splices
        // a full handshake into the same connection (derived hello 0 →
        // reject 1 → ClientHello 2 → ServerHello 3 → Finished 4).
        let mut reply: Option<(u64, Vec<u8>)> = None;
        let mut completion: Option<(SessionKeys, bool, Option<SmtTicket>)> = None;
        let mut derived_completion = false;
        let mut clear_early_sent = false;
        let mut first_arrival = false;
        match &mut self.role {
            Role::Client {
                machine,
                pending,
                derived,
                secrets,
                server_name,
                early_payload,
            } => {
                if let Some(dc) = derived.take() {
                    match dc.on_server_flight(&flight) {
                        Ok(DerivedClientOutcome::Complete(keys)) => {
                            *pending = None;
                            *early_payload = None;
                            derived_completion = true;
                            completion = Some((*keys, true, None));
                        }
                        Ok(DerivedClientOutcome::Rejected { .. }) => {
                            // The server no longer holds the path secret
                            // (bounded-map eviction, restart): drop the stale
                            // copy and fall back to the full handshake on the
                            // same connection, re-carrying the early data
                            // when a ticket still allows 0-RTT.
                            if let Some(s) = secrets {
                                s.remove(server_name);
                            }
                            match pending.take() {
                                Some(boxed) => {
                                    let (crypto, resume, forward_secrecy) = *boxed;
                                    let early = early_payload.take();
                                    let mode = match resume {
                                        None => {
                                            // A full handshake cannot carry
                                            // early data: hand it back for
                                            // re-queueing as message 0.
                                            outcome.requeue_early = early;
                                            clear_early_sent = true;
                                            ClientMode::Full
                                        }
                                        Some(r) => ClientMode::ZeroRtt {
                                            ticket: r.ticket,
                                            early_data: early.unwrap_or_default(),
                                            forward_secrecy,
                                            now: r.now,
                                        },
                                    };
                                    match ClientMachine::start(crypto, mode) {
                                        Ok((m, hello)) => {
                                            *machine = Some(Box::new(m));
                                            reply = Some((seq + 1, hello));
                                        }
                                        Err(e) => {
                                            outcome.error =
                                                Some(format!("handshake fallback failed: {e}"));
                                        }
                                    }
                                }
                                None => {
                                    outcome.error = Some(
                                        "derived handshake rejected with no fallback \
                                         configuration"
                                            .into(),
                                    );
                                }
                            }
                        }
                        Err(e) => outcome.error = Some(format!("handshake failed: {e}")),
                    }
                } else {
                    let Some(machine) = machine.as_mut() else {
                        stats.datagrams_dropped += 1;
                        return outcome;
                    };
                    match machine.on_server_flight(&flight) {
                        Ok(out) => {
                            if let Some(fin) = out.reply {
                                reply = Some((seq + 1, fin));
                            }
                            if let Some(keys) = out.keys {
                                completion = Some((*keys, machine.resumed(), out.ticket));
                            }
                        }
                        Err(e) => outcome.error = Some(format!("handshake failed: {e}")),
                    }
                }
            }
            Role::Server {
                machine,
                acceptor,
                secrets,
            } => {
                first_arrival = true;
                if is_derived_flight(&flight) {
                    match secrets {
                        Some(s) => {
                            let map = s.map.lock().unwrap_or_else(|p| p.into_inner());
                            let mut replay = s.replay.lock().unwrap_or_else(|p| p.into_inner());
                            match derived_server_respond(&map, &mut replay, &flight) {
                                Ok(DerivedServerOutcome::Accepted(resp)) => {
                                    let resp = *resp;
                                    outcome.early_data = resp.early_data;
                                    reply = Some((seq + 1, resp.flight));
                                    derived_completion = true;
                                    completion = Some((resp.keys, true, None));
                                }
                                Ok(DerivedServerOutcome::Unknown { reject }) => {
                                    // Evicted (or never-minted) path secret:
                                    // tell the client to fall back.  The full
                                    // ClientHello arrives as the next flight
                                    // and the untouched machine handles it.
                                    reply = Some((seq + 1, reject));
                                }
                                Err(e) => {
                                    outcome.error = Some(format!("handshake failed: {e}"));
                                }
                            }
                        }
                        None => {
                            // No path-secret state on this endpoint at all:
                            // same fallback signal as an evicted secret.
                            reply =
                                Some((seq + 1, derived_reject_flight("path secrets not enabled")));
                        }
                    }
                } else {
                    let result = match acceptor {
                        Some(a) => {
                            // Recover the cache even if another accepted endpoint
                            // panicked while holding the lock: the cache contents
                            // (a set of ClientHello randoms) stay valid.
                            let mut replay = a.replay.lock().unwrap_or_else(|p| p.into_inner());
                            machine.on_flight(
                                &flight,
                                Some(ZeroRttContext {
                                    issuer: &a.issuer,
                                    replay: &mut replay,
                                }),
                            )
                        }
                        None => machine.on_flight(&flight, None),
                    };
                    match result {
                        Ok(out) => {
                            outcome.early_data = out.early_data;
                            if let Some(bytes) = out.reply {
                                reply = Some((seq + 1, bytes));
                            }
                            if let Some(keys) = out.keys {
                                completion = Some((*keys, machine.resumed(), None));
                            }
                        }
                        Err(e) => outcome.error = Some(format!("handshake failed: {e}")),
                    }
                }
            }
        }

        if clear_early_sent {
            self.early_sent = false;
        }
        if outcome.error.is_some() {
            self.failed = true;
            self.deadline = None;
            return outcome;
        }
        if first_arrival && self.started_at.is_none() {
            self.started_at = Some(now);
        }
        // A completed public-key handshake mints the path secret for this
        // peer into the shared map — both sides derive identical material
        // from the shared resumption master — so the next connection between
        // these hosts can run the derived handshake.  Derived completions
        // leave the existing secret in place.
        if !derived_completion {
            if let Some((keys, _, _)) = &completion {
                match &self.role {
                    Role::Client {
                        secrets: Some(s),
                        server_name,
                        ..
                    } => {
                        s.insert(PathSecret::mint(keys, server_name));
                    }
                    Role::Server {
                        secrets: Some(s), ..
                    } => {
                        // Lookups on this side are by wire id; a client
                        // without an mTLS identity is minted anonymous.
                        let peer = keys.peer_identity.as_deref().unwrap_or_default();
                        s.insert(PathSecret::mint(keys, peer));
                    }
                    _ => {}
                }
            }
        }
        if let Some((seq, bytes)) = reply {
            self.set_flight(seq, &bytes);
            if !self.complete {
                self.deadline = Some(now + INITIAL_RTO_NS);
            }
        }
        if let Some((keys, resumed, ticket)) = completion {
            self.complete = true;
            self.deadline = None;
            let rtt_ns = now.saturating_sub(self.started_at.unwrap_or(now));
            outcome.complete = Some(Box::new(HandshakeResult {
                keys,
                rtt_ns,
                resumed,
                ticket,
                early_data_sent: self.early_sent,
            }));
        }
        outcome
    }

    /// Appends every queued handshake packet to `out`.
    pub fn poll_transmit(&mut self, out: &mut Vec<Packet>, stats: &mut EndpointStats) -> usize {
        let n = self.outbox.len();
        for p in self.outbox.drain(..) {
            stats.wire_bytes_sent += p.payload.wire_len() as u64;
            out.push(p);
        }
        n
    }

    /// The armed retransmission deadline, if the handshake is in flight.
    pub fn next_timeout(&self) -> Option<Nanos> {
        if self.in_progress() {
            self.deadline
        } else {
            None
        }
    }

    /// Fires the retransmission timer: re-queues the current flight.
    pub fn on_timeout(&mut self, now: Nanos, stats: &mut EndpointStats) {
        if !self.in_progress() {
            return;
        }
        let Some(deadline) = self.deadline else {
            return;
        };
        if now < deadline || self.last_flight.is_empty() {
            return;
        }
        stats.timeouts_fired += 1;
        stats.retransmissions += self.last_flight.len() as u64;
        self.outbox.extend(self.last_flight.iter().cloned());
        self.deadline = Some(now + INITIAL_RTO_NS);
    }

    /// Fragments `bytes` into CONTROL packets, records them as the current
    /// outgoing flight and queues them for transmission.
    fn set_flight(&mut self, seq: u64, bytes: &[u8]) {
        debug_assert!(!bytes.is_empty(), "handshake flights are never empty");
        let per = max_payload_per_packet(self.mtu).max(1);
        let total = bytes.len() as u32;
        let mut packets = Vec::with_capacity(bytes.len().div_ceil(per));
        let mut off = 0usize;
        while off < bytes.len() {
            let take = per.min(bytes.len() - off);
            let mut options = SmtOptionArea::new(seq, total);
            options.tso_offset = off as u32;
            let overlay = SmtOverlayHeader {
                tcp: OverlayTcpHeader::new(
                    self.path.src_port,
                    self.path.dst_port,
                    PacketType::Control,
                ),
                options,
            };
            packets.push(Packet {
                ip: IpHeader::V4(Ipv4Header::new(
                    self.path.src,
                    self.path.dst,
                    self.proto,
                    (IPV4_HEADER_LEN + SMT_OVERLAY_LEN + take) as u16,
                )),
                overlay,
                payload: PacketPayload::Data(Bytes::copy_from_slice(&bytes[off..off + take])),
                corrupted: false,
            });
            off += take;
        }
        self.last_flight = packets.clone();
        self.last_flight_seq = seq;
        self.outbox.extend(packets);
    }
}

/// Computes the per-stack transport protocol number stamped on handshake
/// CONTROL packets (cosmetic — the fabric routes by port).
pub(crate) fn control_proto(stack: StackKind) -> u8 {
    if stack.is_message_based() {
        smt_wire::IPPROTO_SMT
    } else {
        smt_wire::IPPROTO_TCP
    }
}
