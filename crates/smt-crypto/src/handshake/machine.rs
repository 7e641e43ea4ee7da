//! Resumable client/server handshake machines over wire flights.
//!
//! The TLS 1.3 state machine in [`super::full`] consumes itself flight by
//! flight, which is the right shape for in-memory key derivation but not for
//! a transport that loses, reorders and duplicates packets.  This module wraps
//! it in **resumable machines** that a transport endpoint can drive with raw
//! flight bytes received from the wire:
//!
//! * [`ClientMachine`] — built from a [`ClientConfig`] and a [`ClientMode`]
//!   (full 1-RTT, PSK resumption via `config.resumption`, or SMT-ticket 0-RTT
//!   with piggybacked early data).  [`ClientMachine::start`] returns the first
//!   flight (ClientHello, plus the encrypted 0-RTT record when resuming);
//!   [`ClientMachine::on_server_flight`] consumes the server's flight and
//!   returns the Finished flight plus the established [`SessionKeys`].
//! * [`ServerMachine`] — built from a [`ServerConfig`]; 0-RTT ClientHellos are
//!   accepted when the caller supplies a [`ZeroRttContext`] (the long-term
//!   ticket issuer and the anti-replay cache, both shared across connections).
//!   The state machine detects the handshake variant from the ClientHello.
//!
//! Both machines are **duplicate-tolerant**: feeding a flight to a machine
//! that already consumed it returns the response it produced the first time
//! (client) or an explicit no-op (server), so the transport's retransmission
//! machinery can replay flights freely without corrupting the transcript.
//! Transcript-level state never rewinds — a tampered or out-of-order flight
//! fails the handshake exactly as the one-shot exchange would.
//!
//! The machines also carry the paper's in-band ticket distribution: a server
//! given a fresh [`SmtTicket`] splices it (plaintext — the ticket is public,
//! signature-protected data that normally travels through DNS, §4.5.2) into
//! its flight between the ServerHello and the encrypted messages, and the
//! client machine strips and surfaces it so the *next* connection can do
//! 0-RTT without any out-of-band distribution channel.

use super::full::{
    ClientConfig, ClientHandshake, ClientMode, ServerConfig, ServerHandshake, ZeroRttContext,
};
use super::messages::{HandshakeMessage, SmtTicket};
use super::SessionKeys;
use crate::codec::Reader;
use crate::{CryptoError, CryptoResult};

/// Wire type byte of a ClientHello message (first byte of a first flight).
const TYPE_CLIENT_HELLO: u8 = 1;
/// Wire type byte of a ServerHello message.
const TYPE_SERVER_HELLO: u8 = 2;
/// Wire type byte of the SMT-ticket message.
const TYPE_SMT_TICKET: u8 = 0xF0;

/// What one consumed flight produced on the client side.
#[derive(Debug, Default)]
pub struct ClientFlightOutcome {
    /// A flight to transmit in response (the client Finished flight).
    pub reply: Option<Vec<u8>>,
    /// The established session keys; present exactly once, on completion.
    pub keys: Option<Box<SessionKeys>>,
    /// An in-band SMT-ticket the server spliced into its flight, usable for
    /// 0-RTT on the next connection.
    pub ticket: Option<SmtTicket>,
}

enum ClientState {
    AwaitServer(Box<ClientHandshake>),
    Complete,
    Failed,
}

/// The resumable client side of the handshake.
pub struct ClientMachine {
    state: ClientState,
    /// The Finished flight, retained so a duplicated server flight (our
    /// Finished was lost) can be answered after completion.
    finished_flight: Vec<u8>,
    resumed: bool,
}

impl std::fmt::Debug for ClientMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientMachine")
            .field("complete", &self.is_complete())
            .field("resumed", &self.resumed)
            .finish_non_exhaustive()
    }
}

impl ClientMachine {
    /// Builds the machine and the first flight to put on the wire.
    pub fn start(config: ClientConfig, mode: ClientMode) -> CryptoResult<(Self, Vec<u8>)> {
        let (hs, flight) = ClientHandshake::start(config, mode)?;
        Ok((
            Self {
                resumed: hs.resumed(),
                state: ClientState::AwaitServer(Box::new(hs)),
                finished_flight: Vec::new(),
            },
            flight,
        ))
    }

    /// Consumes the server's flight.  On first receipt this completes the
    /// handshake (keys + Finished reply); a duplicate receipt after completion
    /// returns the retained Finished flight so the server can recover from a
    /// lost final flight.
    pub fn on_server_flight(&mut self, flight: &[u8]) -> CryptoResult<ClientFlightOutcome> {
        match std::mem::replace(&mut self.state, ClientState::Failed) {
            ClientState::AwaitServer(hs) => {
                let (stripped, ticket) = strip_inband_ticket(flight)?;
                let (reply, keys) = hs.process_server_flight(&stripped)?;
                self.finished_flight = reply.clone();
                self.state = ClientState::Complete;
                Ok(ClientFlightOutcome {
                    reply: Some(reply),
                    keys: Some(Box::new(keys)),
                    ticket,
                })
            }
            ClientState::Complete => {
                self.state = ClientState::Complete;
                Ok(ClientFlightOutcome {
                    reply: Some(self.finished_flight.clone()),
                    ..ClientFlightOutcome::default()
                })
            }
            ClientState::Failed => Err(CryptoError::handshake("client handshake already failed")),
        }
    }

    /// True once the session keys have been produced.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, ClientState::Complete)
    }

    /// Whether this machine resumed a previous session (PSK or SMT-ticket).
    pub fn resumed(&self) -> bool {
        self.resumed
    }
}

/// What one consumed flight produced on the server side.
#[derive(Debug, Default)]
pub struct ServerFlightOutcome {
    /// A flight to transmit in response (the ServerHello flight).
    pub reply: Option<Vec<u8>>,
    /// The established session keys; present exactly once, when the client
    /// Finished verifies.
    pub keys: Option<Box<SessionKeys>>,
    /// Decrypted 0-RTT early data, surfaced as soon as the first flight is
    /// processed — the whole point of the exchange (§4.5.2).
    pub early_data: Option<Vec<u8>>,
}

enum ServerState {
    AwaitHello(Box<ServerConfig>),
    AwaitFinished(Box<ServerHandshake>),
    Complete,
    Failed,
}

/// The resumable server side of the handshake.
pub struct ServerMachine {
    state: ServerState,
    /// The server flight, retained so a duplicated ClientHello (our flight
    /// was lost) can be answered without re-deriving anything.
    server_flight: Vec<u8>,
    /// The random of the accepted ClientHello, to tell retransmissions of this
    /// connection's hello apart from cross-connection replays.
    accepted_random: Option<[u8; 32]>,
    /// A fresh SMT-ticket to splice into the server flight (in-band ticket
    /// distribution), if the listener mints them.
    issue_ticket: Option<SmtTicket>,
    resumed: bool,
}

impl std::fmt::Debug for ServerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMachine")
            .field("complete", &self.is_complete())
            .field("resumed", &self.resumed)
            .finish_non_exhaustive()
    }
}

impl ServerMachine {
    /// Builds a machine awaiting a ClientHello.  `issue_ticket` is spliced
    /// (plaintext, signature-protected) into the server flight for in-band
    /// 0-RTT ticket distribution.
    pub fn new(config: ServerConfig, issue_ticket: Option<SmtTicket>) -> Self {
        Self {
            state: ServerState::AwaitHello(Box::new(config)),
            server_flight: Vec::new(),
            accepted_random: None,
            issue_ticket,
            resumed: false,
        }
    }

    /// Consumes one client flight (ClientHello or Finished, distinguished by
    /// the leading wire byte).  `zero_rtt` must be supplied for the machine to
    /// accept SMT-ticket ClientHellos; without it they are rejected.
    ///
    /// Duplicate flights are absorbed: a retransmitted ClientHello of *this*
    /// connection re-returns the server flight, a duplicate Finished after
    /// completion is a no-op.  A ClientHello with an unknown random after one
    /// was accepted is rejected (one machine serves one connection).
    pub fn on_flight(
        &mut self,
        flight: &[u8],
        zero_rtt: Option<ZeroRttContext<'_>>,
    ) -> CryptoResult<ServerFlightOutcome> {
        if flight.first() == Some(&TYPE_CLIENT_HELLO) {
            self.on_client_hello(flight, zero_rtt)
        } else {
            self.on_finished(flight)
        }
    }

    fn on_client_hello(
        &mut self,
        flight: &[u8],
        zero_rtt: Option<ZeroRttContext<'_>>,
    ) -> CryptoResult<ServerFlightOutcome> {
        // Peek the hello without consuming state: duplicate detection and
        // variant selection both need it.
        let mut r = Reader::new(flight);
        let HandshakeMessage::ClientHello(ch) = HandshakeMessage::decode_from(&mut r)? else {
            return Err(CryptoError::handshake("expected ClientHello"));
        };
        if let Some(accepted) = self.accepted_random {
            return if accepted == ch.random {
                // A retransmission of the hello we already answered: the
                // client did not get our flight — resend it.
                Ok(ServerFlightOutcome {
                    reply: Some(self.server_flight.clone()),
                    ..ServerFlightOutcome::default()
                })
            } else {
                Err(CryptoError::handshake(
                    "second ClientHello with a different random on one connection",
                ))
            };
        }
        let ServerState::AwaitHello(config) =
            std::mem::replace(&mut self.state, ServerState::Failed)
        else {
            // accepted_random is set whenever we left AwaitHello.
            return Err(CryptoError::handshake("server handshake already failed"));
        };

        let (hs, mut reply, early_data) = ServerHandshake::respond(*config, flight, zero_rtt)?;
        self.resumed = hs.resumed();
        self.state = ServerState::AwaitFinished(Box::new(hs));
        self.accepted_random = Some(ch.random);
        if let Some(ticket) = &self.issue_ticket {
            reply = splice_inband_ticket(&reply, ticket)?;
        }
        self.server_flight = reply.clone();
        Ok(ServerFlightOutcome {
            reply: Some(reply),
            keys: None,
            early_data,
        })
    }

    fn on_finished(&mut self, flight: &[u8]) -> CryptoResult<ServerFlightOutcome> {
        match std::mem::replace(&mut self.state, ServerState::Failed) {
            ServerState::AwaitFinished(hs) => {
                let keys = hs.finish(flight)?;
                self.state = ServerState::Complete;
                Ok(ServerFlightOutcome {
                    keys: Some(Box::new(keys)),
                    ..ServerFlightOutcome::default()
                })
            }
            ServerState::Complete => {
                // Duplicate Finished (network duplication): already verified.
                self.state = ServerState::Complete;
                Ok(ServerFlightOutcome::default())
            }
            ServerState::AwaitHello(config) => {
                self.state = ServerState::AwaitHello(config);
                Err(CryptoError::handshake(
                    "client Finished before any ClientHello",
                ))
            }
            ServerState::Failed => Err(CryptoError::handshake("server handshake already failed")),
        }
    }

    /// True once the client Finished has verified.
    pub fn is_complete(&self) -> bool {
        matches!(self.state, ServerState::Complete)
    }

    /// Whether the accepted handshake resumed a session (PSK or SMT-ticket).
    pub fn resumed(&self) -> bool {
        self.resumed
    }
}

/// Splices an SMT-ticket message between the (plaintext) ServerHello and the
/// encrypted remainder of a server flight.  The ticket never enters either
/// side's transcript, so the spliced flight verifies exactly like the
/// original.
fn splice_inband_ticket(flight: &[u8], ticket: &SmtTicket) -> CryptoResult<Vec<u8>> {
    if flight.first() != Some(&TYPE_SERVER_HELLO) {
        return Err(CryptoError::handshake(
            "cannot splice a ticket into a flight that does not start with ServerHello",
        ));
    }
    let mut r = Reader::new(flight);
    let sh = HandshakeMessage::decode_from(&mut r)?;
    let rest_at = flight.len() - r.remaining();
    let mut out = sh.encode();
    out.extend_from_slice(&HandshakeMessage::SmtTicket(ticket.clone()).encode());
    out.extend_from_slice(&flight[rest_at..]);
    Ok(out)
}

/// Removes (and returns) an in-band SMT-ticket spliced after the ServerHello,
/// yielding the flight the inner handshake state machines expect.  Flights
/// without a ticket pass through unchanged.
fn strip_inband_ticket(flight: &[u8]) -> CryptoResult<(Vec<u8>, Option<SmtTicket>)> {
    if flight.first() != Some(&TYPE_SERVER_HELLO) {
        return Ok((flight.to_vec(), None));
    }
    let mut r = Reader::new(flight);
    let sh = HandshakeMessage::decode_from(&mut r)?;
    let after_sh = flight.len() - r.remaining();
    // The encrypted remainder is a TLS record whose leading content-type byte
    // (21–23) never collides with the SMT-ticket message type byte.
    if flight.get(after_sh) != Some(&TYPE_SMT_TICKET) {
        return Ok((flight.to_vec(), None));
    }
    let HandshakeMessage::SmtTicket(ticket) = HandshakeMessage::decode_from(&mut r)? else {
        return Err(CryptoError::handshake("malformed in-band SMT-ticket"));
    };
    let rest_at = flight.len() - r.remaining();
    let mut stripped = sh.encode();
    stripped.extend_from_slice(&flight[rest_at..]);
    Ok((stripped, Some(ticket)))
}

#[cfg(test)]
mod tests {
    use super::super::zero_rtt::{ReplayCache, SmtTicketIssuer};
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::cert::Identity;
    use crate::record::RecordProtectorPair;
    use smt_wire::ContentType;

    fn setup() -> (CertificateAuthority, Identity) {
        let ca = CertificateAuthority::new("machine-ca");
        let id = ca.issue_identity("server.dc.local");
        (ca, id)
    }

    fn client_config(ca: &CertificateAuthority) -> ClientConfig {
        ClientConfig::new(ca.verifying_key(), "server.dc.local")
    }

    fn check_keys_work(client: &SessionKeys, server: &SessionKeys) {
        let mut c =
            RecordProtectorPair::derive(client.suite, &client.send_secret, &client.recv_secret)
                .unwrap();
        let mut s =
            RecordProtectorPair::derive(server.suite, &server.send_secret, &server.recv_secret)
                .unwrap();
        let wire = c
            .sender
            .encrypt_record(1, ContentType::ApplicationData, b"ping")
            .unwrap();
        assert_eq!(
            s.receiver.decrypt_record(1, &wire).unwrap().0.plaintext,
            b"ping"
        );
        let wire = s
            .sender
            .encrypt_record(2, ContentType::ApplicationData, b"pong")
            .unwrap();
        assert_eq!(
            c.receiver.decrypt_record(2, &wire).unwrap().0.plaintext,
            b"pong"
        );
    }

    fn drive(
        client: &mut ClientMachine,
        server: &mut ServerMachine,
        first_flight: &[u8],
        issuer: Option<&SmtTicketIssuer>,
        replay: &mut ReplayCache,
    ) -> (SessionKeys, SessionKeys, Option<Vec<u8>>, Option<SmtTicket>) {
        let s1 = server
            .on_flight(
                first_flight,
                issuer.map(|i| ZeroRttContext { issuer: i, replay }),
            )
            .unwrap();
        let c1 = client
            .on_server_flight(s1.reply.as_deref().unwrap())
            .unwrap();
        let s2 = server
            .on_flight(c1.reply.as_deref().unwrap(), None)
            .unwrap();
        (
            *c1.keys.unwrap(),
            *s2.keys.unwrap(),
            s1.early_data,
            c1.ticket,
        )
    }

    #[test]
    fn full_exchange_with_inband_ticket_then_zero_rtt_resumption() {
        let (ca, id) = setup();
        let issuer = SmtTicketIssuer::new(id.clone(), 3600);
        let mut replay = ReplayCache::new(64);

        // Cold connection: full handshake, ticket spliced in-band.
        let (mut cm, flight0) = ClientMachine::start(client_config(&ca), ClientMode::Full).unwrap();
        let mut sm = ServerMachine::new(
            ServerConfig::new(id.clone(), ca.verifying_key()),
            Some(issuer.ticket(100)),
        );
        let (ck, sk, early, ticket) = drive(&mut cm, &mut sm, &flight0, None, &mut replay);
        assert!(early.is_none());
        assert!(!cm.resumed() && !sm.resumed());
        let ticket = ticket.expect("in-band ticket delivered");
        check_keys_work(&ck, &sk);

        // Resumed connection: 0-RTT with early data through the same issuer.
        let (mut cm, flight0) = ClientMachine::start(
            client_config(&ca),
            ClientMode::ZeroRtt {
                ticket,
                early_data: b"GET /0rtt".to_vec(),
                forward_secrecy: false,
                now: 200,
            },
        )
        .unwrap();
        let mut sm = ServerMachine::new(ServerConfig::new(id, ca.verifying_key()), None);
        let (ck, sk, early, _) = drive(&mut cm, &mut sm, &flight0, Some(&issuer), &mut replay);
        assert_eq!(early.as_deref(), Some(&b"GET /0rtt"[..]));
        assert!(cm.resumed() && sm.resumed());
        assert!(ck.early_data_accepted && sk.early_data_accepted);
        check_keys_work(&ck, &sk);
    }

    #[test]
    fn duplicate_flights_are_absorbed() {
        let (ca, id) = setup();
        let (mut cm, flight0) = ClientMachine::start(client_config(&ca), ClientMode::Full).unwrap();
        let mut sm = ServerMachine::new(ServerConfig::new(id, ca.verifying_key()), None);

        let s1 = sm.on_flight(&flight0, None).unwrap();
        let server_flight = s1.reply.unwrap();
        // Duplicate ClientHello: the server re-answers with the same flight.
        let dup = sm.on_flight(&flight0, None).unwrap();
        assert_eq!(dup.reply.as_deref(), Some(server_flight.as_slice()));
        assert!(dup.keys.is_none());

        let c1 = cm.on_server_flight(&server_flight).unwrap();
        let fin = c1.reply.unwrap();
        assert!(c1.keys.is_some());
        // Duplicate server flight: the client re-answers with its Finished.
        let dup = cm.on_server_flight(&server_flight).unwrap();
        assert_eq!(dup.reply.as_deref(), Some(fin.as_slice()));
        assert!(dup.keys.is_none());

        let s2 = sm.on_flight(&fin, None).unwrap();
        assert!(s2.keys.is_some());
        // Duplicate Finished: a no-op.
        let dup = sm.on_flight(&fin, None).unwrap();
        assert!(dup.reply.is_none() && dup.keys.is_none());
        assert!(sm.is_complete() && cm.is_complete());
    }

    #[test]
    fn replayed_zero_rtt_hello_rejected_on_a_fresh_machine() {
        let (ca, id) = setup();
        let issuer = SmtTicketIssuer::new(id.clone(), 3600);
        let mut replay = ReplayCache::new(64);
        let ticket = issuer.ticket(0);
        let (_, flight0) = ClientMachine::start(
            client_config(&ca),
            ClientMode::ZeroRtt {
                ticket,
                early_data: b"withdraw $100".to_vec(),
                forward_secrecy: false,
                now: 0,
            },
        )
        .unwrap();

        let mut sm = ServerMachine::new(ServerConfig::new(id.clone(), ca.verifying_key()), None);
        let ok = sm
            .on_flight(
                &flight0,
                Some(ZeroRttContext {
                    issuer: &issuer,
                    replay: &mut replay,
                }),
            )
            .unwrap();
        assert_eq!(ok.early_data.as_deref(), Some(&b"withdraw $100"[..]));

        // The same first flight replayed at a *different* server machine
        // sharing the replay cache is rejected.
        let mut sm2 = ServerMachine::new(ServerConfig::new(id, ca.verifying_key()), None);
        let err = sm2
            .on_flight(
                &flight0,
                Some(ZeroRttContext {
                    issuer: &issuer,
                    replay: &mut replay,
                }),
            )
            .unwrap_err();
        assert!(matches!(err, CryptoError::Replay(_)));
    }

    #[test]
    fn zero_rtt_hello_without_issuer_rejected() {
        let (ca, id) = setup();
        let issuer = SmtTicketIssuer::new(id.clone(), 3600);
        let (_, flight0) = ClientMachine::start(
            client_config(&ca),
            ClientMode::ZeroRtt {
                ticket: issuer.ticket(0),
                early_data: Vec::new(),
                forward_secrecy: false,
                now: 0,
            },
        )
        .unwrap();
        let mut sm = ServerMachine::new(ServerConfig::new(id, ca.verifying_key()), None);
        assert!(sm.on_flight(&flight0, None).is_err());
    }

    #[test]
    fn second_hello_with_new_random_rejected() {
        let (ca, id) = setup();
        let (_, flight_a) = ClientMachine::start(client_config(&ca), ClientMode::Full).unwrap();
        let (_, flight_b) = ClientMachine::start(client_config(&ca), ClientMode::Full).unwrap();
        let mut sm = ServerMachine::new(ServerConfig::new(id, ca.verifying_key()), None);
        sm.on_flight(&flight_a, None).unwrap();
        assert!(sm.on_flight(&flight_b, None).is_err());
    }

    #[test]
    fn ticket_splice_roundtrip_is_transparent() {
        let (ca, id) = setup();
        let issuer = SmtTicketIssuer::new(id.clone(), 3600);
        let ticket = issuer.ticket(7);
        let (_, flight0) = ClientMachine::start(client_config(&ca), ClientMode::Full).unwrap();
        let (_, plain_reply, _) =
            ServerHandshake::respond(ServerConfig::new(id, ca.verifying_key()), &flight0, None)
                .unwrap();
        let spliced = splice_inband_ticket(&plain_reply, &ticket).unwrap();
        assert_ne!(spliced, plain_reply);
        let (stripped, got) = strip_inband_ticket(&spliced).unwrap();
        assert_eq!(stripped, plain_reply);
        assert_eq!(got, Some(ticket));
        // A flight without a ticket passes through unchanged.
        let (unchanged, none) = strip_inband_ticket(&plain_reply).unwrap();
        assert_eq!(unchanged, plain_reply);
        assert!(none.is_none());
    }

    #[test]
    fn psk_resumption_via_full_mode() {
        use super::super::full::ClientResumption;
        let (ca, id) = setup();
        // Cold handshake to obtain a PSK.
        let (mut cm, f0) = ClientMachine::start(client_config(&ca), ClientMode::Full).unwrap();
        let mut sm = ServerMachine::new(ServerConfig::new(id.clone(), ca.verifying_key()), None);
        let (ck, sk, _, _) = drive(&mut cm, &mut sm, &f0, None, &mut ReplayCache::new(4));
        let nst = sk.issued_ticket.clone().expect("server minted a ticket");
        let psk = ck.resumption_psk(&nst);

        let mut cfg = client_config(&ca);
        cfg.resumption = Some(ClientResumption {
            ticket_id: nst.ticket_id,
            psk: psk.clone(),
            forward_secrecy: false,
        });
        let (mut cm, f0) = ClientMachine::start(cfg, ClientMode::Full).unwrap();
        assert!(cm.resumed());
        let mut scfg = ServerConfig::new(id, ca.verifying_key());
        scfg.resumption_psks
            .insert(nst.ticket_id, sk.resumption_psk(&nst));
        let mut sm = ServerMachine::new(scfg, None);
        let (rck, rsk, _, _) = drive(&mut cm, &mut sm, &f0, None, &mut ReplayCache::new(4));
        assert!(sm.resumed());
        check_keys_work(&rck, &rsk);
    }
}
