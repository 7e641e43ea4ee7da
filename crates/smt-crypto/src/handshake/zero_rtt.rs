//! The SMT-ticket 0-RTT exchange (paper §4.5.2/§4.5.3; "Init" and "Init-FS" in
//! Fig. 12).
//!
//! Datacenter transports such as Homa and NDP send an RPC in the very first RTT
//! without a transport-level handshake.  To let SMT do the same with encryption,
//! the server's long-term ECDH public share is pre-distributed (in the paper: via
//! the internal DNS resolver, which the cloud provider can co-locate with its
//! internal CA) inside a signed **SMT-ticket**.  A client that holds a valid
//! ticket can:
//!
//! 1. verify the ticket offline (certificate chain + ticket signature),
//! 2. derive an *SMT-key* from the server's long-term share and a fresh client
//!    ephemeral share, and
//! 3. send its ClientHello **and encrypted application data** in the first flight.
//!
//! The exchange itself is the PSK-with-early-data path of the one TLS 1.3
//! state machine in [`super::full`] ([`ClientMode::ZeroRtt`] on the client, a
//! [`ZeroRttContext`] on the server), with the SMT-key as its PSK.  This
//! module holds the server's long-term key ([`SmtTicketIssuer`]), its
//! anti-replay cache ([`ReplayCache`]) and an in-memory driver
//! ([`establish_zero_rtt`]).
//!
//! Without forward secrecy ("Init"), the SMT-key protects the whole session.
//! With forward secrecy enabled ("Init-FS"), the server replies with an ephemeral
//! share; both sides then derive an *fs-key* and switch to it for subsequent data.
//! 0-RTT data itself is never forward secret (§4.5.3); the mitigations are a short
//! ticket lifetime (≤ 1 hour) and server-side tracking of ClientHello randoms.

use super::full::{
    ClientConfig, ClientHandshake, ClientMode, ServerConfig, ServerHandshake, ZeroRttContext,
};
use super::keys::EcdhKeyPair;
use super::messages::SmtTicket;
use super::SessionKeys;
use crate::cert::{random_bytes, Identity, VerifyingKey};
use crate::key_schedule::{hkdf_extract, Secret};
use crate::suite::CipherSuite;
use crate::CryptoResult;
use std::collections::HashSet;

/// Server-side manager of the long-term SMT-ticket key.
///
/// Production deployments rotate this hourly (§4.5.3, following Cloudflare's
/// practice for 0-RTT session-ticket keys); [`SmtTicketIssuer::rotate`] models
/// that rotation.
pub struct SmtTicketIssuer {
    identity: Identity,
    long_term: EcdhKeyPair,
    ticket_id: u64,
    validity_secs: u32,
}

impl std::fmt::Debug for SmtTicketIssuer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtTicketIssuer")
            .field("ticket_id", &self.ticket_id)
            .field("validity_secs", &self.validity_secs)
            .finish_non_exhaustive()
    }
}

impl SmtTicketIssuer {
    /// Creates an issuer for the given server identity.
    pub fn new(identity: Identity, validity_secs: u32) -> Self {
        Self {
            identity,
            long_term: EcdhKeyPair::generate(),
            ticket_id: u64::from_be_bytes(random_bytes(8).try_into().expect("8 bytes")),
            validity_secs,
        }
    }

    /// The current ticket identity.
    pub fn ticket_id(&self) -> u64 {
        self.ticket_id
    }

    /// Mints the SMT-ticket to publish via the internal DNS resolver.
    pub fn ticket(&self, now: u64) -> SmtTicket {
        let mut t = SmtTicket {
            ticket_id: self.ticket_id,
            server_dh_public: self.long_term.public_bytes(),
            chain: self.identity.chain.clone(),
            validity_secs: self.validity_secs,
            issued_at: now,
            signature: Vec::new(),
        };
        t.signature = self.identity.key.sign(&t.to_be_signed());
        t
    }

    /// Rotates the long-term key (hourly in production), invalidating old tickets.
    pub fn rotate(&mut self) {
        self.long_term = EcdhKeyPair::generate();
        self.ticket_id = u64::from_be_bytes(random_bytes(8).try_into().expect("8 bytes"));
    }

    pub(super) fn shared_with(&self, client_share: &[u8]) -> CryptoResult<Vec<u8>> {
        self.long_term.diffie_hellman(client_share)
    }
}

/// Server-side record of recently seen ClientHello randoms (anti-replay for 0-RTT
/// data, §4.5.3 / RFC 8446 §8).
///
/// The cache is bounded: once `capacity` randoms are tracked, each new insert
/// evicts the *oldest* tracked random (insertion order) rather than resetting
/// the whole window, so an attacker flooding the cache can only shrink the
/// replay window gradually and the eviction shows up in [`ReplayCache::evictions`].
/// Storage grows with the randoms actually tracked; the bound reserves nothing.
#[derive(Debug, Default)]
pub struct ReplayCache {
    seen: HashSet<[u8; 32]>,
    order: std::collections::VecDeque<[u8; 32]>,
    capacity: usize,
    evictions: u64,
}

impl ReplayCache {
    /// Creates an empty cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Records `random`; returns `false` if it was already present (replay).
    pub fn check_and_insert(&mut self, random: &[u8; 32]) -> bool {
        if self.seen.contains(random) {
            return false;
        }
        while self.seen.len() >= self.capacity.max(1) {
            // Evict the oldest tracked random. Ticket rotation bounds the
            // replay window; counted eviction keeps memory bounded without
            // discarding the whole window at once.
            if let Some(oldest) = self.order.pop_front() {
                self.seen.remove(&oldest);
                self.evictions += 1;
            } else {
                break;
            }
        }
        self.order.push_back(*random);
        self.seen.insert(*random)
    }

    /// Number of randoms currently tracked.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when no randoms are tracked.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Number of randoms evicted to stay within the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

pub(super) fn smt_key_from_shared(shared: &[u8]) -> Secret {
    // SMT-key = HKDF-Extract(0, ECDH(long-term server share, client ephemeral)).
    hkdf_extract(&Secret::zero(), shared)
}

/// Drives a complete in-memory 0-RTT exchange, returning
/// `(client_keys, server_keys, early_data_received_by_server)`.
#[allow(clippy::too_many_arguments)]
pub fn establish_zero_rtt(
    suite: CipherSuite,
    ca_key: &VerifyingKey,
    server_name: &str,
    issuer: &SmtTicketIssuer,
    replay: &mut ReplayCache,
    early_data: &[u8],
    forward_secrecy: bool,
    now: u64,
) -> CryptoResult<(SessionKeys, SessionKeys, Option<Vec<u8>>)> {
    let mut client = ClientConfig::new(ca_key.clone(), server_name);
    client.suite = suite;
    let mode = ClientMode::ZeroRtt {
        ticket: issuer.ticket(now),
        early_data: early_data.to_vec(),
        forward_secrecy,
        now,
    };
    let (client_hs, flight) = ClientHandshake::start(client, mode)?;
    let mut server = ServerConfig::new(issuer.identity.clone(), ca_key.clone());
    server.suites = vec![suite];
    server.resumption_forward_secrecy = forward_secrecy;
    let (server_hs, server_flight, early) =
        ServerHandshake::respond(server, &flight, Some(ZeroRttContext { issuer, replay }))?;
    let (client_fin, client_keys) = client_hs.process_server_flight(&server_flight)?;
    Ok((client_keys, server_hs.finish(&client_fin)?, early))
}

#[cfg(test)]
mod tests {
    use super::super::timing::OpId;
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::record::RecordProtectorPair;
    use crate::CryptoError;
    use smt_wire::ContentType;

    fn setup() -> (CertificateAuthority, SmtTicketIssuer) {
        let ca = CertificateAuthority::new("dc-ca");
        let identity = ca.issue_identity("server.dc.local");
        (ca, SmtTicketIssuer::new(identity, 3600))
    }

    fn check_keys_work(client: &SessionKeys, server: &SessionKeys) {
        let c = RecordProtectorPair::derive(client.suite, &client.send_secret, &client.recv_secret)
            .unwrap();
        let mut s =
            RecordProtectorPair::derive(server.suite, &server.send_secret, &server.recv_secret)
                .unwrap();
        let wire = c
            .sender
            .encrypt_record(9, ContentType::ApplicationData, b"post-handshake")
            .unwrap();
        assert_eq!(
            s.receiver.decrypt_record(9, &wire).unwrap().0.plaintext,
            b"post-handshake"
        );
    }

    #[test]
    fn zero_rtt_delivers_early_data() {
        let (ca, issuer) = setup();
        let mut replay = ReplayCache::new(1024);
        for fs in [false, true] {
            let (ck, sk, early) = establish_zero_rtt(
                CipherSuite::Aes128GcmSha256,
                &ca.verifying_key(),
                "server.dc.local",
                &issuer,
                &mut replay,
                b"GET /object/42",
                fs,
                1_000_000,
            )
            .unwrap();
            assert_eq!(early.as_deref(), Some(&b"GET /object/42"[..]));
            assert!(ck.early_data_accepted && sk.early_data_accepted);
            assert_eq!(ck.forward_secret, fs);
            check_keys_work(&ck, &sk);
        }
    }

    /// The 0-RTT first flight of a client that trusts `ca_key` and holds `ticket`.
    fn first_flight(ca_key: VerifyingKey, ticket: SmtTicket, now: u64) -> CryptoResult<Vec<u8>> {
        let mode = ClientMode::ZeroRtt {
            ticket,
            early_data: b"withdraw $100".to_vec(),
            forward_secrecy: false,
            now,
        };
        let config = ClientConfig::new(ca_key, "server.dc.local");
        ClientHandshake::start(config, mode).map(|(_, flight)| flight)
    }

    /// The early data the server accepts from `flight`, or its error.
    fn respond(
        ca: &CertificateAuthority,
        issuer: &SmtTicketIssuer,
        replay: &mut ReplayCache,
        flight: &[u8],
    ) -> CryptoResult<Option<Vec<u8>>> {
        let config = ServerConfig::new(issuer.identity.clone(), ca.verifying_key());
        let zero_rtt = Some(ZeroRttContext { issuer, replay });
        ServerHandshake::respond(config, flight, zero_rtt).map(|(_, _, early)| early)
    }

    #[test]
    fn a_server_requiring_client_certificates_rejects_a_zero_rtt_hello() {
        let (ca, issuer) = setup();
        let mut replay = ReplayCache::new(16);
        let flight = first_flight(ca.verifying_key(), issuer.ticket(0), 0).unwrap();
        let mut config = ServerConfig::new(issuer.identity.clone(), ca.verifying_key());
        config.require_client_auth = true;
        let zero_rtt = Some(ZeroRttContext {
            issuer: &issuer,
            replay: &mut replay,
        });
        let Err(err) = ServerHandshake::respond(config, &flight, zero_rtt) else {
            panic!("a 0-RTT hello carries no client certificate");
        };
        assert!(matches!(err, CryptoError::Handshake(_)), "{err}");
        // Rejected before any key was derived or the replay cache consulted.
        assert!(replay.is_empty());
    }

    #[test]
    fn replayed_client_hello_rejected() {
        let (ca, issuer) = setup();
        let mut replay = ReplayCache::new(1024);
        let flight = first_flight(ca.verifying_key(), issuer.ticket(0), 0).unwrap();
        // First delivery is accepted ...
        respond(&ca, &issuer, &mut replay, &flight).unwrap();
        // ... a byte-for-byte replay is rejected.
        let err = respond(&ca, &issuer, &mut replay, &flight).expect_err("replay must be rejected");
        assert!(matches!(err, CryptoError::Replay(_)));
    }

    #[test]
    fn expired_ticket_rejected() {
        let (ca, issuer) = setup();
        let err = first_flight(ca.verifying_key(), issuer.ticket(1000), 1000 + 3601)
            .expect_err("expired ticket must be rejected");
        assert!(matches!(err, CryptoError::Certificate(_)));
    }

    #[test]
    fn forged_ticket_rejected() {
        let (ca, issuer) = setup();
        let mut ticket = issuer.ticket(0);
        // Swap in an attacker-controlled DH share without a valid signature.
        ticket.server_dh_public = EcdhKeyPair::generate().public_bytes();
        assert!(first_flight(ca.verifying_key(), ticket, 0).is_err());
    }

    #[test]
    fn rotated_ticket_id_rejected_by_server() {
        let (ca, mut issuer) = setup();
        let flight = first_flight(ca.verifying_key(), issuer.ticket(0), 0).unwrap();
        issuer.rotate();
        let mut replay = ReplayCache::new(16);
        assert!(respond(&ca, &issuer, &mut replay, &flight).is_err());
    }

    #[test]
    fn wrong_ca_rejected() {
        let (_, issuer) = setup();
        let other_ca = CertificateAuthority::new("other");
        assert!(first_flight(other_ca.verifying_key(), issuer.ticket(0), 0).is_err());
    }

    #[test]
    fn zero_rtt_without_early_data() {
        let (ca, issuer) = setup();
        let mut replay = ReplayCache::new(16);
        let (ck, sk, early) = establish_zero_rtt(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            "server.dc.local",
            &issuer,
            &mut replay,
            b"",
            false,
            0,
        )
        .unwrap();
        assert!(early.is_none());
        check_keys_work(&ck, &sk);
    }

    #[test]
    fn replay_cache_bounds_memory() {
        let mut cache = ReplayCache::new(2);
        assert!(cache.check_and_insert(&[1u8; 32]));
        assert!(cache.check_and_insert(&[2u8; 32]));
        assert!(!cache.check_and_insert(&[1u8; 32]));
        // Inserting beyond capacity evicts the oldest random, counted.
        assert!(cache.check_and_insert(&[3u8; 32]));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // [1; 32] was the oldest and is no longer tracked; [3; 32] still is.
        assert!(cache.check_and_insert(&[1u8; 32]));
        assert!(!cache.check_and_insert(&[3u8; 32]));
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn replay_cache_reserves_nothing_up_front_and_still_evicts_at_its_bound() {
        let bound = 1 << 16;
        let mut cache = ReplayCache::new(bound);
        assert_eq!((cache.seen.capacity(), cache.order.capacity()), (0, 0));
        let random = |i: usize| {
            let mut r = [0u8; 32];
            r[..8].copy_from_slice(&(i as u64).to_le_bytes());
            r
        };
        for i in 0..bound + 3 {
            assert!(cache.check_and_insert(&random(i)));
        }
        assert_eq!(cache.len(), bound);
        assert_eq!(cache.evictions(), 3);
        // The three oldest went first; the newest is still tracked.
        assert!(cache.check_and_insert(&random(0)));
        assert!(!cache.check_and_insert(&random(bound + 2)));
    }

    #[test]
    fn timings_reflect_skipped_operations() {
        let (ca, issuer) = setup();
        let mut replay = ReplayCache::new(16);
        let (ck, sk, _) = establish_zero_rtt(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            "server.dc.local",
            &issuer,
            &mut replay,
            b"hello",
            false,
            0,
        )
        .unwrap();
        // No certificate processing on the client (verified from the ticket in
        // advance) and no CertificateVerify generation on the server.
        assert!(ck.timings.get(OpId::C3_2VerifyCert).is_none());
        assert!(ck.timings.get(OpId::C4_2VerifyCertVerify).is_none());
        assert!(sk.timings.get(OpId::S2_5CertVerifyGen).is_none());
    }
}
