//! The TLS 1.3 handshake state machine, with the Table 2 timing breakdown.
//!
//! One exchange covers every Fig. 12 configuration: the standard 1-RTT
//! handshake ("Init-1RTT"), PSK session resumption ("Rsmp" / "Rsmp-FS"), and
//! the SMT-ticket 0-RTT exchange ("Init" / "Init-FS", §4.5.2).  The last is
//! the PSK handshake with early data; only the PSK's origin differs: the
//! *SMT-key*, the ECDH of a fresh client share with the server's long-term
//! share from the ticket (see [`super::zero_rtt`]), instead of a resumption
//! ticket.
//!
//! Message flow (certificates omitted when a PSK is accepted):
//!
//! ```text
//! Client                                                 Server
//! ClientHello (+key share, +psk identity/binder
//!              or SMT-ticket id) [+0-RTT data]    ----->
//!                                      ServerHello (+key share)
//!                       {EncryptedExtensions, Certificate,
//!                        CertificateVerify, Finished}  <-----
//! {Certificate*, CertificateVerify*, Finished}    ----->
//! ```
//!
//! `{...}` flights are protected with the handshake traffic keys, as in TLS 1.3.
//! A PSK exchange runs ECDHE only for forward secrecy (Rsmp-FS, Init-FS).
//! Mutual authentication (mTLS, §4.2) is supported via `require_client_auth` /
//! `offer_client_auth`; the SMT-ticket exchange authenticates only the server,
//! so a server that requires a client certificate refuses it.  A client whose
//! resumption PSK the server does not accept completes the full handshake the
//! server falls back to.

use super::keys::EcdhKeyPair;
use super::messages::*;
use super::timing::{HandshakeTimings, OpId};
use super::zero_rtt::{smt_key_from_shared, ReplayCache, SmtTicketIssuer};
use super::{layout_from_extension, SessionKeys};
use crate::cert::{random_bytes, validate_chain, Identity, VerifyingKey};
use crate::codec::Reader;
use crate::key_schedule::{transcript_hash, KeySchedule, Secret};
use crate::record::RecordProtector;
use crate::suite::CipherSuite;
use crate::{CryptoError, CryptoResult};
use smt_wire::ContentType;
use std::collections::HashMap;

/// Client-side resumption state carried over from a previous session.
#[derive(Debug, Clone)]
pub struct ClientResumption {
    /// Ticket identity from the server's NewSessionTicket.
    pub ticket_id: u64,
    /// The resumption PSK derived from the previous session.
    pub psk: Secret,
    /// Whether to perform a fresh ECDHE exchange on top of the PSK (Rsmp-FS).
    pub forward_secrecy: bool,
}

/// Client handshake configuration.
pub struct ClientConfig {
    /// Cipher suite to offer (first preference).
    pub suite: CipherSuite,
    /// The internal CA's verification key (pre-installed, §4.5.1).
    pub ca_key: VerifyingKey,
    /// Expected server certificate subject.
    pub server_name: String,
    /// Client identity for mutual authentication, if offered.
    pub identity: Option<Identity>,
    /// Requested SMT extensions (seqno layout, max message size).
    pub extensions: SmtExtensions,
    /// Pre-generated ephemeral key (§4.5.1); `None` generates on demand.
    pub pregenerated_key: Option<EcdhKeyPair>,
    /// Resumption state, if resuming a previous session.
    pub resumption: Option<ClientResumption>,
}

impl ClientConfig {
    /// A minimal configuration for a client that only authenticates the server.
    pub fn new(ca_key: VerifyingKey, server_name: impl Into<String>) -> Self {
        Self {
            suite: CipherSuite::default(),
            ca_key,
            server_name: server_name.into(),
            identity: None,
            extensions: SmtExtensions::default(),
            pregenerated_key: None,
            resumption: None,
        }
    }
}

/// How the client establishes the session.
#[derive(Debug)]
pub enum ClientMode {
    /// The standard 1-RTT exchange ("Init-1RTT"), or PSK resumption
    /// ("Rsmp"/"Rsmp-FS") when the [`ClientConfig`] carries resumption state.
    Full,
    /// The SMT-ticket 0-RTT exchange ("Init"/"Init-FS", §4.5.2): ClientHello
    /// and encrypted early data in the very first flight.  It offers neither
    /// the config's resumption state nor its client identity.
    ZeroRtt {
        /// The DNS- or in-band-distributed SMT-ticket for the server.
        ticket: SmtTicket,
        /// Application data to piggyback on the first flight (may be empty).
        early_data: Vec<u8>,
        /// Whether to run the ephemeral exchange on top ("Init-FS").  Must
        /// match the server's `resumption_forward_secrecy` configuration.
        forward_secrecy: bool,
        /// The client's clock for ticket expiry (same epoch as the ticket).
        now: u64,
    },
}

/// Server handshake configuration.
pub struct ServerConfig {
    /// Cipher suites the server accepts.
    pub suites: Vec<CipherSuite>,
    /// The server's identity (certificate chain + signing key).
    pub identity: Identity,
    /// The internal CA key, used to validate client certificates under mTLS.
    pub ca_key: VerifyingKey,
    /// Whether to require a client certificate (mTLS).  The SMT-ticket
    /// exchange cannot carry one, so such a server rejects SMT-ticket hellos.
    pub require_client_auth: bool,
    /// Server-side SMT extension limits.
    pub extensions: SmtExtensions,
    /// Pre-generated ephemeral key (§4.5.1).
    pub pregenerated_key: Option<EcdhKeyPair>,
    /// Resumption PSKs by ticket id.
    pub resumption_psks: HashMap<u64, Secret>,
    /// Whether a PSK exchange (resumed or SMT-ticket) performs a fresh ECDHE
    /// exchange (Rsmp-FS, Init-FS).
    pub resumption_forward_secrecy: bool,
    /// Whether to issue a NewSessionTicket at the end of a handshake that did
    /// not use an SMT-ticket.
    pub issue_session_ticket: bool,
}

impl ServerConfig {
    /// A minimal configuration for a server with the given identity.
    pub fn new(identity: Identity, ca_key: VerifyingKey) -> Self {
        Self {
            suites: vec![CipherSuite::Aes128GcmSha256, CipherSuite::Aes256GcmSha256],
            identity,
            ca_key,
            require_client_auth: false,
            extensions: SmtExtensions::default(),
            pregenerated_key: None,
            resumption_psks: HashMap::new(),
            resumption_forward_secrecy: false,
            issue_session_ticket: true,
        }
    }
}

/// Shared server-side 0-RTT state, borrowed per ClientHello: the long-term
/// ticket issuer and the ClientHello-random anti-replay cache (§4.5.3).  Both
/// live across connections — the transport layer typically shares them
/// between every accepted endpoint of one listener.
pub struct ZeroRttContext<'a> {
    /// The issuer holding the long-term ECDH key the tickets point at.
    pub issuer: &'a SmtTicketIssuer,
    /// Rejects replayed 0-RTT first flights (each exactly once per random).
    pub replay: &'a mut ReplayCache,
}

fn certverify_signed_data(is_server: bool, transcript: &[u8; 32]) -> Vec<u8> {
    let mut data = vec![0x20u8; 64];
    data.extend_from_slice(if is_server {
        b"SMT TLS 1.3, server CertificateVerify"
    } else {
        b"SMT TLS 1.3, client CertificateVerify"
    });
    data.push(0);
    data.extend_from_slice(transcript);
    data
}

fn binder_for(psk: &Secret, suite: CipherSuite, ch_without_binder: &[u8]) -> [u8; 32] {
    let ks = KeySchedule::new(suite, Some(psk));
    let binder_key = ks.binder_key().expect("fresh schedule");
    crate::key_schedule::hmac(binder_key.as_bytes(), &transcript_hash(ch_without_binder))
}

/// In-flight client handshake state (after sending ClientHello).
pub struct ClientHandshake {
    config: ClientConfig,
    ephemeral: EcdhKeyPair,
    transcript: Vec<u8>,
    /// The offered PSK: the resumption PSK or the SMT-key.
    psk: Option<Secret>,
    /// Whether a PSK exchange must still run ECDHE (Rsmp-FS, Init-FS).
    forward_secrecy: bool,
    /// Whether the PSK is the SMT-key (the 0-RTT exchange).
    smt_ticket: bool,
    timings: HandshakeTimings,
}

impl ClientHandshake {
    /// Builds the first flight: the ClientHello, followed in
    /// [`ClientMode::ZeroRtt`] by the early data encrypted under the client
    /// early traffic secret.  Returns the state plus the flight bytes to hand
    /// to the transport (the paper carries them in CONTROL packets).
    ///
    /// An SMT-ticket is verified here (expiry, chain, signature), outside the
    /// timed rows: deployments verify it when fetching it from DNS, which is
    /// why C3.1/C3.2 do not appear in the 0-RTT breakdown (§5.6).
    pub fn start(mut config: ClientConfig, mode: ClientMode) -> CryptoResult<(Self, Vec<u8>)> {
        let mut timings = HandshakeTimings::new();
        let (ticket, early_data, forward_secrecy) = match mode {
            ClientMode::Full => {
                let fs = config
                    .resumption
                    .as_ref()
                    .is_some_and(|r| r.forward_secrecy);
                (None, Vec::new(), fs)
            }
            ClientMode::ZeroRtt {
                ticket,
                early_data,
                forward_secrecy,
                now,
            } => {
                if ticket.expired(now) {
                    return Err(CryptoError::Certificate("SMT-ticket expired".into()));
                }
                let leaf_key =
                    validate_chain(&ticket.chain, &config.ca_key, Some(&config.server_name))?;
                leaf_key
                    .verify(&ticket.to_be_signed(), &ticket.signature)
                    .map_err(|_| CryptoError::Certificate("SMT-ticket signature invalid".into()))?;
                config.identity = None;
                config.resumption = None;
                (Some(ticket), early_data, forward_secrecy)
            }
        };

        // C1.1 — ephemeral key generation (free if pre-generated, §4.5.1).
        let pregen = config.pregenerated_key.take();
        let ephemeral = timings.time(OpId::C1_1KeyGen, || {
            pregen.unwrap_or_else(EcdhKeyPair::generate)
        });

        // The PSK: the SMT-key from C2.2, ECDH against the ticket's long-term
        // share (the 0-RTT exchange), or the resumption PSK.
        let psk = match &ticket {
            Some(ticket) => Some(smt_key_from_shared(
                &timings.time(OpId::C2_2EcdhExchange, || {
                    ephemeral.diffie_hellman(&ticket.server_dh_public)
                })?,
            )),
            None => config.resumption.as_ref().map(|r| r.psk.clone()),
        };

        // C1.2 — everything else in the ClientHello.
        let transcript = timings.time(OpId::C1_2OthersGen, || {
            let random: [u8; 32] = random_bytes(32).try_into().expect("32 bytes");
            let mut hello = ClientHello {
                random,
                key_share: ephemeral.public_bytes(),
                cipher_suites: vec![config.suite.code()],
                extensions: config.extensions,
                psk_identity: config.resumption.as_ref().map(|r| r.ticket_id),
                psk_binder: None,
                smt_ticket_id: ticket.as_ref().map(|t| t.ticket_id),
                early_data: !early_data.is_empty(),
                offer_client_auth: config.identity.is_some(),
            };
            if let Some(res) = &config.resumption {
                // Binder covers the hello without the binder itself.
                let without = HandshakeMessage::ClientHello(hello.clone()).encode();
                hello.psk_binder = Some(binder_for(&res.psk, config.suite, &without));
            }
            HandshakeMessage::ClientHello(hello).encode()
        });

        // C2.3 — early data only ever comes with the SMT-key: protect it under
        // the client early traffic secret.
        let mut flight = transcript.clone();
        if let Some(smt_key) = psk.as_ref().filter(|_| !early_data.is_empty()) {
            let early_secret = timings.time(OpId::C2_3SecretDerive, || {
                KeySchedule::new(config.suite, Some(smt_key))
                    .early_traffic_secret(&transcript_hash(&transcript))
            })?;
            let cipher = RecordProtector::from_secret(config.suite, &early_secret)?;
            flight.extend(cipher.encrypt_record(0, ContentType::ApplicationData, &early_data)?);
        }
        Ok((
            Self {
                config,
                ephemeral,
                transcript,
                psk,
                forward_secrecy,
                smt_ticket: ticket.is_some(),
                timings,
            },
            flight,
        ))
    }

    /// Whether the ClientHello offers a PSK (resumption or SMT-ticket).
    pub fn resumed(&self) -> bool {
        self.psk.is_some()
    }

    /// Processes the server's flight and produces the client's final flight plus
    /// the established session keys.
    pub fn process_server_flight(mut self, flight: &[u8]) -> CryptoResult<(Vec<u8>, SessionKeys)> {
        let mut timings = std::mem::take(&mut self.timings);

        // C2.1 — parse the ServerHello (the only plaintext message in the flight).
        let (sh, encrypted_rest) = timings.time(OpId::C2_1ProcessShlo, || {
            let mut r = Reader::new(flight);
            let msg = HandshakeMessage::decode_from(&mut r)?;
            let HandshakeMessage::ServerHello(sh) = msg else {
                return Err(CryptoError::handshake("expected ServerHello"));
            };
            let rest = flight[flight.len() - r.remaining()..].to_vec();
            Ok::<_, CryptoError>((sh, rest))
        })?;
        let suite = CipherSuite::from_code(sh.cipher_suite)
            .ok_or_else(|| CryptoError::handshake("server chose unknown cipher suite"))?;
        if suite != self.config.suite {
            return Err(CryptoError::handshake(
                "server chose unoffered cipher suite",
            ));
        }
        if self.smt_ticket && !sh.early_data_accepted {
            return Err(CryptoError::handshake("server rejected 0-RTT data"));
        }
        let resuming = sh.psk_accepted;
        if resuming && self.psk.is_none() {
            return Err(CryptoError::handshake(
                "server accepted a PSK we never offered",
            ));
        }

        self.transcript
            .extend_from_slice(&HandshakeMessage::ServerHello(sh.clone()).encode());

        // C2.2 — ECDHE shared secret (empty for a PSK without forward secrecy).
        let dhe = timings.time(OpId::C2_2EcdhExchange, || match &sh.key_share {
            Some(share) => self.ephemeral.diffie_hellman(share),
            None if resuming && !self.forward_secrecy => Ok(Vec::new()),
            None => Err(CryptoError::handshake("server omitted key share")),
        })?;

        // C2.3 — handshake secret derivation.  A PSK the server did not
        // accept keys nothing: the server fell back to the full handshake.
        let mut ks = KeySchedule::new(suite, self.psk.as_ref().filter(|_| resuming));
        let hs_secrets = timings.time(OpId::C2_3SecretDerive, || {
            ks.into_handshake(&dhe, &transcript_hash(&self.transcript))
        })?;

        // Decrypt the protected part of the server flight.
        let mut server_hs_cipher = RecordProtector::from_secret(suite, &hs_secrets.server)?;
        let (inner, _) = server_hs_cipher.decrypt_record(0, &encrypted_rest)?;
        if inner.content_type != ContentType::Handshake {
            return Err(CryptoError::handshake(
                "server flight is not handshake data",
            ));
        }
        let messages = decode_flight(&inner.plaintext)?;
        let mut iter = messages.into_iter().peekable();

        // EncryptedExtensions.
        let Some(HandshakeMessage::EncryptedExtensions(ee)) = iter.next() else {
            return Err(CryptoError::handshake("expected EncryptedExtensions"));
        };
        self.transcript
            .extend_from_slice(&HandshakeMessage::EncryptedExtensions(ee).encode());

        // Certificate + CertificateVerify (full handshake only).  The SMT-ticket
        // chain was validated against `server_name` in `start`.
        let mut peer_identity = self.smt_ticket.then(|| self.config.server_name.clone());
        if !resuming {
            let Some(HandshakeMessage::Certificate(cert_msg)) = iter.next() else {
                return Err(CryptoError::handshake("expected Certificate"));
            };
            // C3.1 — decode is already done by the flight parser; account the
            // re-encoding we add to the transcript as the decode cost.
            let cert_encoded = timings.time(OpId::C3_1DecodeCert, || {
                HandshakeMessage::Certificate(cert_msg.clone()).encode()
            });
            // C3.2 — validate the chain against the pre-installed CA key.
            let leaf_key = timings.time(OpId::C3_2VerifyCert, || {
                validate_chain(
                    &cert_msg.chain,
                    &self.config.ca_key,
                    Some(self.config.server_name.as_str()),
                )
            })?;
            peer_identity = Some(cert_msg.chain.leaf()?.subject.clone());
            let transcript_to_cert =
                transcript_hash(&[self.transcript.as_slice(), cert_encoded.as_slice()].concat());
            self.transcript.extend_from_slice(&cert_encoded);

            let Some(HandshakeMessage::CertificateVerify(cv)) = iter.next() else {
                return Err(CryptoError::handshake("expected CertificateVerify"));
            };
            // C4.1 — rebuild the signed data.
            let signed_data = timings.time(OpId::C4_1BuildSignData, || {
                certverify_signed_data(true, &transcript_to_cert)
            });
            // C4.2 — verify the signature.
            timings.time(OpId::C4_2VerifyCertVerify, || {
                leaf_key.verify(&signed_data, &cv.signature)
            })?;
            self.transcript
                .extend_from_slice(&HandshakeMessage::CertificateVerify(cv).encode());
        }

        // C5 — verify the server Finished, derive application secrets and build
        // our own Finished (plus client certificate when doing mTLS).
        let Some(HandshakeMessage::Finished(server_fin)) = iter.next() else {
            return Err(CryptoError::handshake("expected server Finished"));
        };
        let (client_flight, app, ee_ext) = timings.time(OpId::C5ProcessFinished, || {
            let expected =
                KeySchedule::finished_mac(&hs_secrets.server, &transcript_hash(&self.transcript));
            if expected != server_fin.verify_data {
                return Err(CryptoError::handshake(
                    "server Finished verification failed",
                ));
            }
            self.transcript
                .extend_from_slice(&HandshakeMessage::Finished(server_fin).encode());

            // Application secrets cover the transcript through the server Finished.
            let app = ks.into_application(&transcript_hash(&self.transcript))?;

            // Build our final flight.
            let mut msgs = Vec::new();
            if ee.request_client_auth {
                let identity = self.config.identity.as_ref().ok_or_else(|| {
                    CryptoError::handshake("server requires a client certificate (mTLS)")
                })?;
                let cert_msg = HandshakeMessage::Certificate(CertificateMsg {
                    chain: identity.chain.clone(),
                });
                let cert_encoded = cert_msg.encode();
                let th = transcript_hash(
                    &[self.transcript.as_slice(), cert_encoded.as_slice()].concat(),
                );
                self.transcript.extend_from_slice(&cert_encoded);
                let signature = identity.key.sign(&certverify_signed_data(false, &th));
                let cv = HandshakeMessage::CertificateVerify(CertificateVerify { signature });
                self.transcript.extend_from_slice(&cv.encode());
                msgs.push(cert_msg);
                msgs.push(cv);
            }
            let client_fin = Finished {
                verify_data: KeySchedule::finished_mac(
                    &hs_secrets.client,
                    &transcript_hash(&self.transcript),
                ),
            };
            msgs.push(HandshakeMessage::Finished(client_fin));
            let inner_flight = encode_flight(&msgs);
            let client_hs_cipher = RecordProtector::from_secret(suite, &hs_secrets.client)?;
            let protected =
                client_hs_cipher.encrypt_record(0, ContentType::Handshake, &inner_flight)?;
            Ok::<_, CryptoError>((protected, app, ee.extensions))
        })?;

        let keys = SessionKeys {
            suite,
            is_client: true,
            send_secret: app.client,
            recv_secret: app.server,
            resumption_master: app.resumption,
            seqno_layout: layout_from_extension(ee_ext.msg_id_bits)?,
            max_message_size: ee_ext.max_message_size,
            peer_identity,
            early_data_accepted: self.smt_ticket,
            resumed: resuming,
            forward_secret: sh.key_share.is_some(),
            timings,
            issued_ticket: None,
        };
        Ok((client_flight, keys))
    }
}

/// In-flight server handshake state (after sending its flight).
pub struct ServerHandshake {
    suite: CipherSuite,
    config: ServerConfig,
    transcript: Vec<u8>,
    client_hs_secret: Secret,
    app_client: Secret,
    app_server: Secret,
    resumption_master: Secret,
    negotiated: SmtExtensions,
    resumed: bool,
    forward_secret: bool,
    /// Whether the client must send a certificate (mTLS).
    client_auth: bool,
    /// Whether the PSK is the SMT-key (the 0-RTT exchange).
    smt_ticket: bool,
    timings: HandshakeTimings,
}

impl ServerHandshake {
    /// Processes a first flight and produces the server's response flight,
    /// plus the decrypted 0-RTT early data, delivered to the application at
    /// once (the point of the exchange, §4.5.2).  SMT-ticket ClientHellos are
    /// accepted only when `zero_rtt` is supplied.
    pub fn respond(
        mut config: ServerConfig,
        flight: &[u8],
        zero_rtt: Option<ZeroRttContext<'_>>,
    ) -> CryptoResult<(Self, Vec<u8>, Option<Vec<u8>>)> {
        let mut timings = HandshakeTimings::new();

        // S1 — parse the ClientHello (and locate any trailing 0-RTT record).
        let (ch, early_record) = timings.time(OpId::S1ProcessChlo, || {
            let mut r = Reader::new(flight);
            let HandshakeMessage::ClientHello(ch) = HandshakeMessage::decode_from(&mut r)? else {
                return Err(CryptoError::handshake("expected ClientHello"));
            };
            Ok::<_, CryptoError>((ch, &flight[flight.len() - r.remaining()..]))
        })?;
        let suite = ch
            .cipher_suites
            .iter()
            .filter_map(|c| CipherSuite::from_code(*c))
            .find(|c| config.suites.contains(c))
            .ok_or_else(|| CryptoError::handshake("no mutually supported cipher suite"))?;

        let mut transcript = HandshakeMessage::ClientHello(ch.clone()).encode();

        // The PSK: the SMT-key of a fresh SMT-ticket hello, or a resumption
        // PSK whose binder verifies.
        let mut early_data = None;
        let psk = if let Some(ticket_id) = ch.smt_ticket_id {
            // The SMT-ticket exchange authenticates only the server: a server
            // that requires a client certificate cannot complete it.
            if config.require_client_auth {
                return Err(CryptoError::handshake(
                    "0-RTT ClientHello but this server requires a client certificate (mTLS)",
                ));
            }
            let Some(ZeroRttContext { issuer, replay }) = zero_rtt else {
                return Err(CryptoError::handshake(
                    "0-RTT ClientHello but this endpoint has no ticket issuer",
                ));
            };
            if ticket_id != issuer.ticket_id() {
                return Err(CryptoError::handshake("unknown or rotated SMT-ticket id"));
            }
            // §4.5.3: reject replayed ClientHello randoms.
            if !replay.check_and_insert(&ch.random) {
                return Err(CryptoError::Replay("repeated ClientHello random".into()));
            }
            // S2.2 — ECDH between the long-term key and the client's share.
            let shared =
                timings.time(OpId::S2_2EcdhExchange, || issuer.shared_with(&ch.key_share))?;
            let smt_key = smt_key_from_shared(&shared);
            // Decrypt 0-RTT data under the client early traffic secret.
            if ch.early_data && !early_record.is_empty() {
                let early_secret = KeySchedule::new(suite, Some(&smt_key))
                    .early_traffic_secret(&transcript_hash(&transcript))?;
                let (plain, _) = RecordProtector::from_secret(suite, &early_secret)?
                    .decrypt_record(0, early_record)?;
                early_data = Some(plain.plaintext);
            }
            Some(smt_key)
        } else if let Some((candidate, binder)) = ch
            .psk_identity
            .zip(ch.psk_binder)
            .and_then(|(id, binder)| Some((config.resumption_psks.get(&id)?, binder)))
        {
            let mut ch_no_binder = ch.clone();
            ch_no_binder.psk_binder = None;
            let without = HandshakeMessage::ClientHello(ch_no_binder).encode();
            if binder_for(candidate, suite, &without) != binder {
                return Err(CryptoError::handshake("PSK binder verification failed"));
            }
            Some(candidate.clone())
        } else {
            None
        };
        if early_data.is_none() && !early_record.is_empty() {
            return Err(CryptoError::handshake("unexpected data after ClientHello"));
        }
        let resumed = psk.is_some();
        let smt_ticket = ch.smt_ticket_id.is_some();

        // Decide whether to do ECDHE: always for full handshakes, and for PSK
        // exchanges only when forward secrecy is requested (Rsmp-FS, Init-FS).
        let do_ecdhe = !resumed || config.resumption_forward_secrecy;

        // S2.1 — server ephemeral key generation (free with pre-generation).
        let pregen = config.pregenerated_key.take();
        let ephemeral = timings.time(OpId::S2_1KeyGen, || {
            if do_ecdhe {
                Some(pregen.unwrap_or_else(EcdhKeyPair::generate))
            } else {
                None
            }
        });

        // S2.2 — ECDH.
        let dhe = timings.time(OpId::S2_2EcdhExchange, || match &ephemeral {
            Some(e) => e.diffie_hellman(&ch.key_share),
            None => Ok(Vec::new()),
        })?;

        // S2.3 — ServerHello.
        let sh = timings.time(OpId::S2_3ShloGen, || ServerHello {
            random: random_bytes(32).try_into().expect("32 bytes"),
            key_share: ephemeral.as_ref().map(|e| e.public_bytes()),
            cipher_suite: suite.code(),
            psk_accepted: resumed,
            early_data_accepted: smt_ticket && (early_data.is_some() || !ch.early_data),
        });
        let sh_encoded = HandshakeMessage::ServerHello(sh.clone()).encode();
        transcript.extend_from_slice(&sh_encoded);

        // S2.6 (part 1) — handshake secrets.
        let mut ks = KeySchedule::new(suite, psk.as_ref());
        let hs_secrets = timings.time(OpId::S2_6SecretDerive, || {
            ks.into_handshake(&dhe, &transcript_hash(&transcript))
        })?;

        // Negotiate extensions: the server clamps the client's requests.
        let negotiated = SmtExtensions {
            msg_id_bits: ch.extensions.msg_id_bits.min(config.extensions.msg_id_bits),
            max_message_size: ch
                .extensions
                .max_message_size
                .min(config.extensions.max_message_size),
        };
        // An SMT-ticket hello never gets here with mTLS required (above).
        let client_auth = config.require_client_auth;

        // S2.4 — EncryptedExtensions and Certificate encoding.
        let (ee_msg, cert_msg) = timings.time(OpId::S2_4EeCertEncode, || {
            let ee = HandshakeMessage::EncryptedExtensions(EncryptedExtensions {
                extensions: negotiated,
                request_client_auth: client_auth,
            });
            let cert = if resumed {
                None
            } else {
                Some(HandshakeMessage::Certificate(CertificateMsg {
                    chain: config.identity.chain.clone(),
                }))
            };
            (ee, cert)
        });
        transcript.extend_from_slice(&ee_msg.encode());
        let mut inner_msgs = vec![ee_msg];

        if let Some(cert_msg) = cert_msg {
            let cert_encoded = cert_msg.encode();
            let th = transcript_hash(&[transcript.as_slice(), cert_encoded.as_slice()].concat());
            transcript.extend_from_slice(&cert_encoded);
            // S2.5 — CertificateVerify (ECDSA sign).
            let cv = timings.time(OpId::S2_5CertVerifyGen, || {
                let signed_data = certverify_signed_data(true, &th);
                HandshakeMessage::CertificateVerify(CertificateVerify {
                    signature: config.identity.key.sign(&signed_data),
                })
            });
            transcript.extend_from_slice(&cv.encode());
            inner_msgs.push(cert_msg);
            inner_msgs.push(cv);
        }

        // Server Finished + application secrets (S2.6 part 2).
        let (server_fin, app) = timings.time(OpId::S2_6SecretDerive, || {
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
        inner_msgs.push(HandshakeMessage::Finished(server_fin));

        // Protect everything after the ServerHello with the handshake keys.
        let inner_flight = encode_flight(&inner_msgs);
        let server_hs_cipher = RecordProtector::from_secret(suite, &hs_secrets.server)?;
        let protected =
            server_hs_cipher.encrypt_record(0, ContentType::Handshake, &inner_flight)?;

        let mut flight_out = sh_encoded;
        flight_out.extend_from_slice(&protected);

        Ok((
            Self {
                suite,
                config,
                transcript,
                client_hs_secret: hs_secrets.client,
                app_client: app.client,
                app_server: app.server,
                resumption_master: app.resumption,
                negotiated,
                resumed,
                forward_secret: do_ecdhe,
                client_auth,
                smt_ticket,
                timings,
            },
            flight_out,
            early_data,
        ))
    }

    /// Processes the client's final flight, completing the handshake.
    pub fn finish(mut self, client_flight: &[u8]) -> CryptoResult<SessionKeys> {
        let mut timings = std::mem::take(&mut self.timings);
        let mut client_hs_cipher =
            RecordProtector::from_secret(self.suite, &self.client_hs_secret)?;
        let (inner, _) = client_hs_cipher.decrypt_record(0, client_flight)?;
        if inner.content_type != ContentType::Handshake {
            return Err(CryptoError::handshake(
                "client flight is not handshake data",
            ));
        }
        let msgs = decode_flight(&inner.plaintext)?;
        let mut iter = msgs.into_iter().peekable();

        // Optional client certificate (mTLS).
        let mut peer_identity = None;
        if self.client_auth {
            let Some(HandshakeMessage::Certificate(cert_msg)) = iter.next() else {
                return Err(CryptoError::handshake("client certificate required (mTLS)"));
            };
            let leaf_key = validate_chain(&cert_msg.chain, &self.config.ca_key, None)?;
            peer_identity = Some(cert_msg.chain.leaf()?.subject.clone());
            let cert_encoded = HandshakeMessage::Certificate(cert_msg).encode();
            let th =
                transcript_hash(&[self.transcript.as_slice(), cert_encoded.as_slice()].concat());
            self.transcript.extend_from_slice(&cert_encoded);
            let Some(HandshakeMessage::CertificateVerify(cv)) = iter.next() else {
                return Err(CryptoError::handshake("expected client CertificateVerify"));
            };
            leaf_key.verify(&certverify_signed_data(false, &th), &cv.signature)?;
            self.transcript
                .extend_from_slice(&HandshakeMessage::CertificateVerify(cv).encode());
        }

        // S3 — verify the client Finished.
        let Some(HandshakeMessage::Finished(fin)) = iter.next() else {
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

        // Mint a resumption ticket (sent to the client as a post-handshake
        // message by the caller); SMT-ticket clients resume with their ticket.
        let issued_ticket = if self.config.issue_session_ticket && !self.smt_ticket {
            Some(NewSessionTicket {
                ticket_id: u64::from_be_bytes(random_bytes(8).try_into().expect("8 bytes")),
                nonce: random_bytes(16),
                lifetime_secs: 3600,
            })
        } else {
            None
        };

        Ok(SessionKeys {
            suite: self.suite,
            is_client: false,
            send_secret: self.app_server,
            recv_secret: self.app_client,
            resumption_master: self.resumption_master,
            seqno_layout: layout_from_extension(self.negotiated.msg_id_bits)?,
            max_message_size: self.negotiated.max_message_size,
            peer_identity,
            early_data_accepted: self.smt_ticket,
            resumed: self.resumed,
            forward_secret: self.forward_secret,
            timings,
            issued_ticket,
        })
    }

    /// Whether the handshake resumed a previous session via PSK (resumption
    /// or SMT-ticket).
    pub fn resumed(&self) -> bool {
        self.resumed
    }
}

/// Drives a complete in-memory handshake between a client and a server
/// configuration, returning `(client_keys, server_keys)`.
///
/// This is the convenience entry point used by tests, examples and the
/// simulator; real deployments exchange the three flights over the transport.
pub fn establish(
    client: ClientConfig,
    server: ServerConfig,
) -> CryptoResult<(SessionKeys, SessionKeys)> {
    let (client_hs, ch_flight) = ClientHandshake::start(client, ClientMode::Full)?;
    let (server_hs, server_flight, _) = ServerHandshake::respond(server, &ch_flight, None)?;
    let (client_fin_flight, client_keys) = client_hs.process_server_flight(&server_flight)?;
    let server_keys = server_hs.finish(&client_fin_flight)?;
    Ok((client_keys, server_keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::record::RecordProtectorPair;

    fn setup() -> (CertificateAuthority, Identity, Identity) {
        let ca = CertificateAuthority::new("dc-internal-ca");
        let server_id = ca.issue_identity("server.dc.local");
        let client_id = ca.issue_identity("client.dc.local");
        (ca, server_id, client_id)
    }

    fn check_keys_work(client: &SessionKeys, server: &SessionKeys) {
        // Client-to-server direction.
        let mut c =
            RecordProtectorPair::derive(client.suite, &client.send_secret, &client.recv_secret)
                .unwrap();
        let mut s =
            RecordProtectorPair::derive(server.suite, &server.send_secret, &server.recv_secret)
                .unwrap();
        let wire = c
            .sender
            .encrypt_record(1, ContentType::ApplicationData, b"request")
            .unwrap();
        assert_eq!(
            s.receiver.decrypt_record(1, &wire).unwrap().0.plaintext,
            b"request"
        );
        // Server-to-client direction.
        let wire = s
            .sender
            .encrypt_record(2, ContentType::ApplicationData, b"response")
            .unwrap();
        assert_eq!(
            c.receiver.decrypt_record(2, &wire).unwrap().0.plaintext,
            b"response"
        );
    }

    #[test]
    fn full_handshake_establishes_matching_keys() {
        let (ca, server_id, _) = setup();
        let client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        let server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        let (ck, sk) = establish(client_cfg, server_cfg).unwrap();
        assert!(ck.forward_secret && sk.forward_secret);
        assert_eq!(ck.peer_identity.as_deref(), Some("server.dc.local"));
        assert_eq!(ck.seqno_layout.msg_id_bits, 48);
        check_keys_work(&ck, &sk);
        // Timing rows were recorded on both sides.
        assert!(ck.timings.get(OpId::C2_2EcdhExchange).is_some());
        assert!(ck.timings.get(OpId::C3_2VerifyCert).is_some());
        assert!(sk.timings.get(OpId::S2_5CertVerifyGen).is_some());
        assert!(sk.timings.get(OpId::S3ProcessFinished).is_some());
    }

    #[test]
    fn mutual_authentication() {
        let (ca, server_id, client_id) = setup();
        let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        client_cfg.identity = Some(client_id);
        let mut server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        server_cfg.require_client_auth = true;
        let (ck, sk) = establish(client_cfg, server_cfg).unwrap();
        assert_eq!(sk.peer_identity.as_deref(), Some("client.dc.local"));
        check_keys_work(&ck, &sk);
    }

    #[test]
    fn mtls_without_client_identity_fails() {
        let (ca, server_id, _) = setup();
        let client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        let mut server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        server_cfg.require_client_auth = true;
        assert!(establish(client_cfg, server_cfg).is_err());
    }

    #[test]
    fn wrong_server_name_rejected() {
        let (ca, server_id, _) = setup();
        let client_cfg = ClientConfig::new(ca.verifying_key(), "other.dc.local");
        let server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        assert!(establish(client_cfg, server_cfg).is_err());
    }

    #[test]
    fn wrong_ca_rejected() {
        let (_, server_id, _) = setup();
        let rogue_ca = CertificateAuthority::new("rogue");
        let client_cfg = ClientConfig::new(rogue_ca.verifying_key(), "server.dc.local");
        let server_cfg = ServerConfig::new(server_id, rogue_ca.verifying_key());
        // Server cert was signed by the real CA, client trusts the rogue CA.
        assert!(establish(client_cfg, server_cfg).is_err());
    }

    #[test]
    fn tampered_server_flight_rejected() {
        let (ca, server_id, _) = setup();
        let client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        let server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        let (client_hs, ch) = ClientHandshake::start(client_cfg, ClientMode::Full).unwrap();
        let (_, mut server_flight, _) = ServerHandshake::respond(server_cfg, &ch, None).unwrap();
        let last = server_flight.len() - 1;
        server_flight[last] ^= 1;
        assert!(client_hs.process_server_flight(&server_flight).is_err());
    }

    #[test]
    fn resumption_without_and_with_forward_secrecy() {
        let (ca, server_id, _) = setup();

        // Initial full handshake to obtain a ticket.
        let client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        let server_cfg = ServerConfig::new(server_id.clone(), ca.verifying_key());
        let (ck, sk) = establish(client_cfg, server_cfg).unwrap();
        let ticket = sk.issued_ticket.clone().expect("server issued a ticket");
        let client_psk = ck.resumption_psk(&ticket);
        let server_psk = sk.resumption_psk(&ticket);
        assert_eq!(client_psk.as_bytes(), server_psk.as_bytes());

        for fs in [false, true] {
            let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
            client_cfg.resumption = Some(ClientResumption {
                ticket_id: ticket.ticket_id,
                psk: client_psk.clone(),
                forward_secrecy: fs,
            });
            let mut server_cfg = ServerConfig::new(server_id.clone(), ca.verifying_key());
            server_cfg
                .resumption_psks
                .insert(ticket.ticket_id, server_psk.clone());
            server_cfg.resumption_forward_secrecy = fs;
            let (rck, rsk) = establish(client_cfg, server_cfg).unwrap();
            assert_eq!(rck.forward_secret, fs);
            assert_eq!(rsk.forward_secret, fs);
            // Resumed handshakes skip certificate processing entirely.
            assert!(rck.timings.get(OpId::C3_2VerifyCert).is_none());
            assert!(rsk.timings.get(OpId::S2_5CertVerifyGen).is_none());
            check_keys_work(&rck, &rsk);
        }
    }

    #[test]
    fn bad_psk_binder_rejected() {
        let (ca, server_id, _) = setup();
        let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        client_cfg.resumption = Some(ClientResumption {
            ticket_id: 7,
            psk: Secret::from_slice(&[1u8; 32]).unwrap(),
            forward_secrecy: false,
        });
        let mut server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        // Server knows a *different* PSK under the same identity.
        server_cfg
            .resumption_psks
            .insert(7, Secret::from_slice(&[2u8; 32]).unwrap());
        assert!(establish(client_cfg, server_cfg).is_err());
    }

    #[test]
    fn a_psk_the_server_does_not_know_falls_back_to_the_full_handshake() {
        let (ca, server_id, _) = setup();
        let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        client_cfg.resumption = Some(ClientResumption {
            ticket_id: 99,
            psk: Secret::from_slice(&[1u8; 32]).unwrap(),
            forward_secrecy: false,
        });
        let server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        let (ck, sk) = establish(client_cfg, server_cfg).expect("full handshake");
        assert!(!ck.resumed && !sk.resumed);
        assert!(ck.forward_secret && sk.forward_secret);
        assert_eq!(ck.peer_identity.as_deref(), Some("server.dc.local"));
        assert!(ck.timings.get(OpId::C3_2VerifyCert).is_some());
        check_keys_work(&ck, &sk);
    }

    #[test]
    fn pregenerated_keys_still_negotiate() {
        let (ca, server_id, _) = setup();
        let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        client_cfg.pregenerated_key = Some(EcdhKeyPair::generate());
        let mut server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        server_cfg.pregenerated_key = Some(EcdhKeyPair::generate());
        let (ck, sk) = establish(client_cfg, server_cfg).unwrap();
        check_keys_work(&ck, &sk);
    }

    #[test]
    fn extension_negotiation_clamps_to_server_limits() {
        let (ca, server_id, _) = setup();
        let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
        client_cfg.extensions = SmtExtensions {
            msg_id_bits: 56,
            max_message_size: 64 * 1024 * 1024,
        };
        let mut server_cfg = ServerConfig::new(server_id, ca.verifying_key());
        server_cfg.extensions = SmtExtensions {
            msg_id_bits: 48,
            max_message_size: 1024 * 1024,
        };
        let (ck, sk) = establish(client_cfg, server_cfg).unwrap();
        assert_eq!(ck.seqno_layout.msg_id_bits, 48);
        assert_eq!(ck.max_message_size, 1024 * 1024);
        assert_eq!(sk.seqno_layout.msg_id_bits, 48);
    }

    #[test]
    fn sessions_have_unique_keys() {
        let (ca, server_id, _) = setup();
        let mk = || {
            establish(
                ClientConfig::new(ca.verifying_key(), "server.dc.local"),
                ServerConfig::new(server_id.clone(), ca.verifying_key()),
            )
            .unwrap()
        };
        let (a, _) = mk();
        let (b, _) = mk();
        assert_ne!(a.send_secret.as_bytes(), b.send_secret.as_bytes());
    }
}
