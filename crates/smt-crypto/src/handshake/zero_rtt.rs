//! The SMT-ticket 0-RTT handshake (paper §4.5.2/§4.5.3; "Init" and "Init-FS" in
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
//! Without forward secrecy ("Init"), the SMT-key protects the whole session.
//! With forward secrecy enabled ("Init-FS"), the server replies with an ephemeral
//! share; both sides then derive an *fs-key* and switch to it for subsequent data.
//! 0-RTT data itself is never forward secret (§4.5.3); the mitigations are a short
//! ticket lifetime (≤ 1 hour) and server-side tracking of ClientHello randoms.

use super::keys::EcdhKeyPair;
use super::messages::*;
use super::timing::{HandshakeTimings, OpId};
use super::{layout_from_extension, SessionKeys};
use crate::cert::{random_bytes, validate_chain, Identity, VerifyingKey};
use crate::key_schedule::{hkdf_extract, transcript_hash, KeySchedule, Secret};
use crate::record::RecordProtector;
use crate::suite::CipherSuite;
use crate::{CryptoError, CryptoResult};
use smt_wire::ContentType;
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

    fn shared_with(&self, client_share: &[u8]) -> CryptoResult<Vec<u8>> {
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

fn smt_key_from_shared(shared: &[u8]) -> Secret {
    // SMT-key = HKDF-Extract(0, ECDH(long-term server share, client ephemeral)).
    hkdf_extract(&Secret::zero(), shared)
}

/// Client side of the 0-RTT handshake.
pub struct ZeroRttClientHandshake {
    suite: CipherSuite,
    forward_secrecy: bool,
    ephemeral: EcdhKeyPair,
    smt_key: Secret,
    transcript: Vec<u8>,
    extensions: SmtExtensions,
    server_name: String,
    timings: HandshakeTimings,
}

impl ZeroRttClientHandshake {
    /// Verifies `ticket`, derives the SMT-key and builds the first flight:
    /// ClientHello plus `early_data` already encrypted under the client early
    /// traffic secret.  `now` is the client's clock for ticket expiry.
    ///
    /// `pregenerated_key` removes C1.1 from the critical path (§4.5.1); the
    /// ticket's certificate chain is assumed to have been verified when the ticket
    /// was fetched from DNS, which is why C3.1/C3.2 do not appear here (§5.6).
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        suite: CipherSuite,
        ca_key: &VerifyingKey,
        server_name: &str,
        ticket: &SmtTicket,
        extensions: SmtExtensions,
        early_data: &[u8],
        forward_secrecy: bool,
        pregenerated_key: Option<EcdhKeyPair>,
        now: u64,
    ) -> CryptoResult<(Self, Vec<u8>)> {
        let mut timings = HandshakeTimings::new();

        // Ticket verification happens ahead of time in deployment; validate here
        // anyway (outside the timed C-rows) so misuse is caught.
        if ticket.expired(now) {
            return Err(CryptoError::Certificate("SMT-ticket expired".into()));
        }
        let leaf_key = validate_chain(&ticket.chain, ca_key, Some(server_name))?;
        leaf_key
            .verify(&ticket.to_be_signed(), &ticket.signature)
            .map_err(|_| CryptoError::Certificate("SMT-ticket signature invalid".into()))?;

        // C1.1 — ephemeral key (pre-generated in the common case).
        let ephemeral = timings.time(OpId::C1_1KeyGen, || {
            pregenerated_key.unwrap_or_else(EcdhKeyPair::generate)
        });

        // C2.2 — ECDH against the server's long-term share (the 0-RTT exchange).
        let shared = timings.time(OpId::C2_2EcdhExchange, || {
            ephemeral.diffie_hellman(&ticket.server_dh_public)
        })?;
        let smt_key = smt_key_from_shared(&shared);

        // C1.2 — ClientHello.
        let hello = timings.time(OpId::C1_2OthersGen, || ClientHello {
            random: random_bytes(32).try_into().expect("32 bytes"),
            key_share: ephemeral.public_bytes(),
            cipher_suites: vec![suite.code()],
            extensions,
            psk_identity: None,
            psk_binder: None,
            smt_ticket_id: Some(ticket.ticket_id),
            early_data: !early_data.is_empty(),
            offer_client_auth: false,
        });
        let ch_encoded = HandshakeMessage::ClientHello(hello).encode();
        let transcript = ch_encoded.clone();

        // C2.3 — derive the early traffic secret and protect the 0-RTT data.
        let mut flight = ch_encoded;
        if !early_data.is_empty() {
            let early_secret = timings.time(OpId::C2_3SecretDerive, || {
                KeySchedule::new(suite, Some(&smt_key))
                    .early_traffic_secret(&transcript_hash(&transcript))
            })?;
            let cipher = RecordProtector::from_secret(suite, &early_secret)?;
            let record = cipher.encrypt_record(0, ContentType::ApplicationData, early_data)?;
            flight.extend_from_slice(&record);
        }

        Ok((
            Self {
                suite,
                forward_secrecy,
                ephemeral,
                smt_key,
                transcript,
                extensions,
                server_name: server_name.to_string(),
                timings,
            },
            flight,
        ))
    }

    /// Processes the server flight and completes the handshake, returning the
    /// client's Finished flight and the session keys.
    pub fn process_server_flight(mut self, flight: &[u8]) -> CryptoResult<(Vec<u8>, SessionKeys)> {
        let mut timings = std::mem::take(&mut self.timings);

        // C2.1 — ServerHello.
        let (sh, encrypted_rest) = timings.time(OpId::C2_1ProcessShlo, || {
            let mut r = crate::codec::Reader::new(flight);
            let msg = HandshakeMessage::decode_from(&mut r)?;
            let HandshakeMessage::ServerHello(sh) = msg else {
                return Err(CryptoError::handshake("expected ServerHello"));
            };
            Ok::<_, CryptoError>((sh, flight[flight.len() - r.remaining()..].to_vec()))
        })?;
        if !sh.early_data_accepted {
            return Err(CryptoError::handshake("server rejected 0-RTT data"));
        }
        self.transcript
            .extend_from_slice(&HandshakeMessage::ServerHello(sh.clone()).encode());

        // C2.2 — optional forward-secrecy ECDHE with the server's ephemeral share.
        let dhe = timings.time(OpId::C2_2EcdhExchange, || {
            match (&sh.key_share, self.forward_secrecy) {
                (Some(share), true) => self.ephemeral.diffie_hellman(share),
                (None, false) => Ok(Vec::new()),
                (Some(_), false) => Ok(Vec::new()),
                (None, true) => Err(CryptoError::handshake(
                    "forward secrecy requested but server omitted its key share",
                )),
            }
        })?;

        // C2.3 — derive handshake and application secrets from the SMT-key ladder.
        let mut ks = KeySchedule::new(self.suite, Some(&self.smt_key));
        let hs_secrets = timings.time(OpId::C2_3SecretDerive, || {
            ks.into_handshake(&dhe, &transcript_hash(&self.transcript))
        })?;

        // Decrypt EncryptedExtensions + Finished.
        let mut server_hs_cipher = RecordProtector::from_secret(self.suite, &hs_secrets.server)?;
        let (inner, _) = server_hs_cipher.decrypt_record(0, &encrypted_rest)?;
        let msgs = decode_flight(&inner.plaintext)?;
        let mut iter = msgs.into_iter();
        let Some(HandshakeMessage::EncryptedExtensions(ee)) = iter.next() else {
            return Err(CryptoError::handshake("expected EncryptedExtensions"));
        };
        self.transcript
            .extend_from_slice(&HandshakeMessage::EncryptedExtensions(ee).encode());
        let Some(HandshakeMessage::Finished(server_fin)) = iter.next() else {
            return Err(CryptoError::handshake("expected server Finished"));
        };

        // C5 — verify the server Finished (possession of the long-term key),
        // derive the application secrets, emit the client Finished.
        let (client_flight, app) = timings.time(OpId::C5ProcessFinished, || {
            let expected =
                KeySchedule::finished_mac(&hs_secrets.server, &transcript_hash(&self.transcript));
            if expected != server_fin.verify_data {
                return Err(CryptoError::handshake(
                    "server Finished verification failed",
                ));
            }
            self.transcript
                .extend_from_slice(&HandshakeMessage::Finished(server_fin).encode());
            let app = ks.into_application(&transcript_hash(&self.transcript))?;
            let fin = Finished {
                verify_data: KeySchedule::finished_mac(
                    &hs_secrets.client,
                    &transcript_hash(&self.transcript),
                ),
            };
            let inner_flight = encode_flight(&[HandshakeMessage::Finished(fin)]);
            let cipher = RecordProtector::from_secret(self.suite, &hs_secrets.client)?;
            let protected = cipher.encrypt_record(0, ContentType::Handshake, &inner_flight)?;
            Ok::<_, CryptoError>((protected, app))
        })?;

        let keys = SessionKeys {
            suite: self.suite,
            is_client: true,
            send_secret: app.client,
            recv_secret: app.server,
            resumption_master: app.resumption,
            seqno_layout: layout_from_extension(self.extensions.msg_id_bits)?,
            max_message_size: self.extensions.max_message_size,
            peer_identity: Some(self.server_name),
            early_data_accepted: true,
            resumed: true,
            forward_secret: self.forward_secrecy,
            timings,
            issued_ticket: None,
        };
        Ok((client_flight, keys))
    }
}

/// Server side of the 0-RTT handshake.
pub struct ZeroRttServerHandshake {
    suite: CipherSuite,
    transcript: Vec<u8>,
    client_hs_secret: Secret,
    app_client: Secret,
    app_server: Secret,
    resumption_master: Secret,
    extensions: SmtExtensions,
    forward_secret: bool,
    timings: HandshakeTimings,
}

/// Output of the server's first processing step: its response flight and the
/// decrypted 0-RTT application data (delivered to the application immediately,
/// which is the whole point of the exchange).
pub struct ZeroRttServerResponse {
    /// The in-flight server state (complete with [`ZeroRttServerHandshake::finish`]).
    pub state: ZeroRttServerHandshake,
    /// The server's flight to send back.
    pub flight: Vec<u8>,
    /// Decrypted 0-RTT application data, if any was attached.
    pub early_data: Option<Vec<u8>>,
}

impl ZeroRttServerHandshake {
    /// Processes a 0-RTT ClientHello flight.
    pub fn respond(
        suite: CipherSuite,
        issuer: &SmtTicketIssuer,
        extensions: SmtExtensions,
        forward_secrecy: bool,
        replay: &mut ReplayCache,
        flight: &[u8],
        pregenerated_key: Option<EcdhKeyPair>,
    ) -> CryptoResult<ZeroRttServerResponse> {
        let mut timings = HandshakeTimings::new();

        // S1 — parse the ClientHello (and locate any trailing early-data record).
        let (ch, early_record) = timings.time(OpId::S1ProcessChlo, || {
            let mut r = crate::codec::Reader::new(flight);
            let msg = HandshakeMessage::decode_from(&mut r)?;
            let HandshakeMessage::ClientHello(ch) = msg else {
                return Err(CryptoError::handshake("expected ClientHello"));
            };
            let rest = flight[flight.len() - r.remaining()..].to_vec();
            Ok::<_, CryptoError>((ch, rest))
        })?;
        if ch.smt_ticket_id != Some(issuer.ticket_id()) {
            return Err(CryptoError::handshake("unknown or rotated SMT-ticket id"));
        }
        // §4.5.3: reject replayed ClientHello randoms.
        if !replay.check_and_insert(&ch.random) {
            return Err(CryptoError::Replay("repeated ClientHello random".into()));
        }

        // S2.2 — ECDH between the long-term key and the client's ephemeral share.
        let shared = timings.time(OpId::S2_2EcdhExchange, || issuer.shared_with(&ch.key_share))?;
        let smt_key = smt_key_from_shared(&shared);

        let mut transcript = HandshakeMessage::ClientHello(ch.clone()).encode();

        // Decrypt 0-RTT data under the client early traffic secret.
        let early_data = if ch.early_data && !early_record.is_empty() {
            let early_secret = KeySchedule::new(suite, Some(&smt_key))
                .early_traffic_secret(&transcript_hash(&transcript))?;
            let mut cipher = RecordProtector::from_secret(suite, &early_secret)?;
            let (plain, _) = cipher.decrypt_record(0, &early_record)?;
            Some(plain.plaintext)
        } else {
            None
        };

        // S2.1 — ephemeral key generation (only for forward secrecy).
        let ephemeral = timings.time(OpId::S2_1KeyGen, || {
            if forward_secrecy {
                Some(pregenerated_key.unwrap_or_else(EcdhKeyPair::generate))
            } else {
                None
            }
        });
        // S2.2 (continued) — forward-secrecy ECDHE.
        let dhe = timings.time(OpId::S2_2EcdhExchange, || match &ephemeral {
            Some(e) => e.diffie_hellman(&ch.key_share),
            None => Ok(Vec::new()),
        })?;

        // S2.3 — ServerHello.
        let sh = timings.time(OpId::S2_3ShloGen, || ServerHello {
            random: random_bytes(32).try_into().expect("32 bytes"),
            key_share: ephemeral.as_ref().map(|e| e.public_bytes()),
            cipher_suite: suite.code(),
            psk_accepted: true,
            early_data_accepted: early_data.is_some() || !ch.early_data,
        });
        let sh_encoded = HandshakeMessage::ServerHello(sh).encode();
        transcript.extend_from_slice(&sh_encoded);

        // S2.6 — secrets.
        let mut ks = KeySchedule::new(suite, Some(&smt_key));
        let hs_secrets = timings.time(OpId::S2_6SecretDerive, || {
            ks.into_handshake(&dhe, &transcript_hash(&transcript))
        })?;

        // S2.4 — EncryptedExtensions (no certificate: the ticket authenticated us).
        let negotiated = SmtExtensions {
            msg_id_bits: ch.extensions.msg_id_bits.min(extensions.msg_id_bits),
            max_message_size: ch
                .extensions
                .max_message_size
                .min(extensions.max_message_size),
        };
        let ee = timings.time(OpId::S2_4EeCertEncode, || {
            HandshakeMessage::EncryptedExtensions(EncryptedExtensions {
                extensions: negotiated,
                request_client_auth: false,
            })
        });
        transcript.extend_from_slice(&ee.encode());

        // Finished + application secrets (S2.6 continued).
        let (fin, app) = timings.time(OpId::S2_6SecretDerive, || {
            let fin = Finished {
                verify_data: KeySchedule::finished_mac(
                    &hs_secrets.server,
                    &transcript_hash(&transcript),
                ),
            };
            transcript.extend_from_slice(&HandshakeMessage::Finished(fin).encode());
            let app = ks.into_application(&transcript_hash(&transcript))?;
            Ok::<_, CryptoError>((fin, app))
        })?;

        let inner_flight = encode_flight(&[ee, HandshakeMessage::Finished(fin)]);
        let server_hs_cipher = RecordProtector::from_secret(suite, &hs_secrets.server)?;
        let protected =
            server_hs_cipher.encrypt_record(0, ContentType::Handshake, &inner_flight)?;
        let mut flight_out = sh_encoded;
        flight_out.extend_from_slice(&protected);

        Ok(ZeroRttServerResponse {
            state: Self {
                suite,
                transcript,
                client_hs_secret: hs_secrets.client,
                app_client: app.client,
                app_server: app.server,
                resumption_master: app.resumption,
                extensions: negotiated,
                forward_secret: forward_secrecy,
                timings,
            },
            flight: flight_out,
            early_data,
        })
    }

    /// Verifies the client Finished and returns the server's session keys.
    pub fn finish(mut self, client_flight: &[u8]) -> CryptoResult<SessionKeys> {
        let mut timings = std::mem::take(&mut self.timings);
        let mut cipher = RecordProtector::from_secret(self.suite, &self.client_hs_secret)?;
        let (inner, _) = cipher.decrypt_record(0, client_flight)?;
        let msgs = decode_flight(&inner.plaintext)?;
        let Some(HandshakeMessage::Finished(fin)) = msgs.into_iter().next() else {
            return Err(CryptoError::handshake("expected client Finished"));
        };
        timings.time(OpId::S3ProcessFinished, || {
            let expected = KeySchedule::finished_mac(
                &self.client_hs_secret,
                &transcript_hash(&self.transcript),
            );
            if expected != fin.verify_data {
                return Err(CryptoError::handshake(
                    "client Finished verification failed",
                ));
            }
            Ok(())
        })?;
        Ok(SessionKeys {
            suite: self.suite,
            is_client: false,
            send_secret: self.app_server,
            recv_secret: self.app_client,
            resumption_master: self.resumption_master,
            seqno_layout: layout_from_extension(self.extensions.msg_id_bits)?,
            max_message_size: self.extensions.max_message_size,
            peer_identity: None,
            early_data_accepted: true,
            resumed: true,
            forward_secret: self.forward_secret,
            timings,
            issued_ticket: None,
        })
    }
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
    let ticket = issuer.ticket(now);
    let (client, flight) = ZeroRttClientHandshake::start(
        suite,
        ca_key,
        server_name,
        &ticket,
        SmtExtensions::default(),
        early_data,
        forward_secrecy,
        None,
        now,
    )?;
    let resp = ZeroRttServerHandshake::respond(
        suite,
        issuer,
        SmtExtensions::default(),
        forward_secrecy,
        replay,
        &flight,
        None,
    )?;
    let (client_fin, client_keys) = client.process_server_flight(&resp.flight)?;
    let server_keys = resp.state.finish(&client_fin)?;
    Ok((client_keys, server_keys, resp.early_data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::record::RecordProtectorPair;

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

    #[test]
    fn replayed_client_hello_rejected() {
        let (ca, issuer) = setup();
        let mut replay = ReplayCache::new(1024);
        let ticket = issuer.ticket(0);
        let (_, flight) = ZeroRttClientHandshake::start(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            "server.dc.local",
            &ticket,
            SmtExtensions::default(),
            b"withdraw $100",
            false,
            None,
            0,
        )
        .unwrap();
        // First delivery is accepted ...
        ZeroRttServerHandshake::respond(
            CipherSuite::Aes128GcmSha256,
            &issuer,
            SmtExtensions::default(),
            false,
            &mut replay,
            &flight,
            None,
        )
        .unwrap();
        // ... a byte-for-byte replay is rejected.
        let err = ZeroRttServerHandshake::respond(
            CipherSuite::Aes128GcmSha256,
            &issuer,
            SmtExtensions::default(),
            false,
            &mut replay,
            &flight,
            None,
        )
        .err()
        .expect("replay must be rejected");
        assert!(matches!(err, CryptoError::Replay(_)));
    }

    #[test]
    fn expired_ticket_rejected() {
        let (ca, issuer) = setup();
        let ticket = issuer.ticket(1000);
        let err = ZeroRttClientHandshake::start(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            "server.dc.local",
            &ticket,
            SmtExtensions::default(),
            b"x",
            false,
            None,
            1000 + 3601,
        )
        .err()
        .expect("expired ticket must be rejected");
        assert!(matches!(err, CryptoError::Certificate(_)));
    }

    #[test]
    fn forged_ticket_rejected() {
        let (ca, issuer) = setup();
        let mut ticket = issuer.ticket(0);
        // Swap in an attacker-controlled DH share without a valid signature.
        ticket.server_dh_public = EcdhKeyPair::generate().public_bytes();
        assert!(ZeroRttClientHandshake::start(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            "server.dc.local",
            &ticket,
            SmtExtensions::default(),
            b"x",
            false,
            None,
            0,
        )
        .is_err());
    }

    #[test]
    fn rotated_ticket_id_rejected_by_server() {
        let (ca, mut issuer) = setup();
        let old_ticket = issuer.ticket(0);
        let (_, flight) = ZeroRttClientHandshake::start(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            "server.dc.local",
            &old_ticket,
            SmtExtensions::default(),
            b"x",
            false,
            None,
            0,
        )
        .unwrap();
        issuer.rotate();
        let mut replay = ReplayCache::new(16);
        assert!(ZeroRttServerHandshake::respond(
            CipherSuite::Aes128GcmSha256,
            &issuer,
            SmtExtensions::default(),
            false,
            &mut replay,
            &flight,
            None,
        )
        .is_err());
    }

    #[test]
    fn wrong_ca_rejected() {
        let (_, issuer) = setup();
        let other_ca = CertificateAuthority::new("other");
        let ticket = issuer.ticket(0);
        assert!(ZeroRttClientHandshake::start(
            CipherSuite::Aes128GcmSha256,
            &other_ca.verifying_key(),
            "server.dc.local",
            &ticket,
            SmtExtensions::default(),
            b"x",
            false,
            None,
            0,
        )
        .is_err());
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
