//! Checks of the SMT-ticket 0-RTT exchange that only a misbehaving peer can
//! trip: each test plays one side by hand with the key-schedule primitives
//! and derives every secret exactly as an honest peer would, so the one field
//! it gets wrong is the only reason for the rejection.

use smt_crypto::cert::{CertificateAuthority, Identity};
use smt_crypto::codec::Reader;
use smt_crypto::handshake::messages::*;
use smt_crypto::handshake::{ClientConfig, ServerConfig};
use smt_crypto::handshake::{
    ClientMachine, ClientMode, EcdhKeyPair, ReplayCache, ServerMachine, SmtTicketIssuer,
    ZeroRttContext,
};
use smt_crypto::key_schedule::{hkdf_extract, transcript_hash, HandshakeSecrets};
use smt_crypto::{CipherSuite, KeySchedule, RecordProtector, Secret};
use smt_wire::ContentType;

const SUITE: CipherSuite = CipherSuite::Aes128GcmSha256;

fn pki() -> (CertificateAuthority, Identity) {
    let ca = CertificateAuthority::new("checks-ca");
    let id = ca.issue_identity("server.dc.local");
    (ca, id)
}

fn zero_rtt_client(ca: &CertificateAuthority, ticket: SmtTicket) -> (ClientMachine, Vec<u8>) {
    let mode = ClientMode::ZeroRtt {
        ticket,
        early_data: Vec::new(),
        forward_secrecy: false,
        now: 0,
    };
    ClientMachine::start(
        ClientConfig::new(ca.verifying_key(), "server.dc.local"),
        mode,
    )
    .unwrap()
}

fn decode_one(r: &mut Reader<'_>) -> HandshakeMessage {
    HandshakeMessage::decode_from(r).unwrap()
}

/// The handshake secrets of a non-forward-secret SMT-ticket exchange whose
/// transcript so far is `ch_sh`.
fn handshake_secrets(shared: &[u8], ch_sh: &[u8]) -> HandshakeSecrets {
    let smt_key = hkdf_extract(&Secret::zero(), shared);
    let mut ks = KeySchedule::new(SUITE, Some(&smt_key));
    ks.into_handshake(&[], &transcript_hash(ch_sh)).unwrap()
}

/// A server flight answering the 0-RTT `first_flight`, built as the server
/// builds it except for the ServerHello's suite code and the content type of
/// the protected record.
fn server_reply(
    long_term: &EcdhKeyPair,
    first_flight: &[u8],
    suite_code: u16,
    content_type: ContentType,
) -> Vec<u8> {
    let HandshakeMessage::ClientHello(ch) = decode_one(&mut Reader::new(first_flight)) else {
        panic!("first flight starts with a ClientHello");
    };
    let sh = HandshakeMessage::ServerHello(ServerHello {
        random: [7; 32],
        key_share: None,
        cipher_suite: suite_code,
        psk_accepted: true,
        early_data_accepted: true,
    });
    let mut transcript = HandshakeMessage::ClientHello(ch.clone()).encode();
    transcript.extend(sh.encode());
    let shared = long_term.diffie_hellman(&ch.key_share).unwrap();
    let hs = handshake_secrets(&shared, &transcript);
    let ee = HandshakeMessage::EncryptedExtensions(EncryptedExtensions {
        extensions: ch.extensions,
        request_client_auth: false,
    });
    transcript.extend(ee.encode());
    let fin = HandshakeMessage::Finished(Finished {
        verify_data: KeySchedule::finished_mac(&hs.server, &transcript_hash(&transcript)),
    });
    let cipher = RecordProtector::from_secret(SUITE, &hs.server).unwrap();
    let mut flight = sh.encode();
    flight.extend(
        cipher
            .encrypt_record(0, content_type, &encode_flight(&[ee, fin]))
            .unwrap(),
    );
    flight
}

#[test]
fn zero_rtt_client_checks_the_suite_echo_and_the_server_flight_content_type() {
    let (ca, id) = pki();
    let long_term = EcdhKeyPair::generate();
    let mut ticket = SmtTicket {
        ticket_id: 1,
        server_dh_public: long_term.public_bytes(),
        chain: id.chain.clone(),
        validity_secs: 3600,
        issued_at: 0,
        signature: Vec::new(),
    };
    ticket.signature = id.key.sign(&ticket.to_be_signed());
    let other_suite = CipherSuite::Aes256GcmSha256.code();
    let cases = [
        (SUITE.code(), ContentType::Handshake, true),
        (other_suite, ContentType::Handshake, false),
        (SUITE.code(), ContentType::ApplicationData, false),
    ];
    for (suite_code, content_type, accepted) in cases {
        let (mut client, first_flight) = zero_rtt_client(&ca, ticket.clone());
        let reply = server_reply(&long_term, &first_flight, suite_code, content_type);
        assert_eq!(
            client.on_server_flight(&reply).is_ok(),
            accepted,
            "suite {suite_code:#06x}, {content_type:?}"
        );
    }
}

#[test]
fn zero_rtt_server_checks_the_client_finished_content_type() {
    let (ca, id) = pki();
    let issuer = SmtTicketIssuer::new(id.clone(), 3600);
    let ticket = issuer.ticket(0);
    let mut replay = ReplayCache::new(8);
    for (content_type, accepted) in [
        (ContentType::Handshake, true),
        (ContentType::ApplicationData, false),
    ] {
        let ephemeral = EcdhKeyPair::generate();
        let ch = HandshakeMessage::ClientHello(ClientHello {
            random: [content_type as u8; 32],
            key_share: ephemeral.public_bytes(),
            cipher_suites: vec![SUITE.code()],
            extensions: SmtExtensions::default(),
            psk_identity: None,
            psk_binder: None,
            smt_ticket_id: Some(ticket.ticket_id),
            early_data: false,
            offer_client_auth: false,
        });
        let mut server =
            ServerMachine::new(ServerConfig::new(id.clone(), ca.verifying_key()), None);
        let zero_rtt = Some(ZeroRttContext {
            issuer: &issuer,
            replay: &mut replay,
        });
        let reply = server
            .on_flight(&ch.encode(), zero_rtt)
            .unwrap()
            .reply
            .unwrap();

        // Complete the exchange as the client does.
        let mut r = Reader::new(&reply);
        let sh = decode_one(&mut r);
        let mut transcript = ch.encode();
        transcript.extend(sh.encode());
        let shared = ephemeral.diffie_hellman(&ticket.server_dh_public).unwrap();
        let hs = handshake_secrets(&shared, &transcript);
        let protected = &reply[reply.len() - r.remaining()..];
        let mut server_cipher = RecordProtector::from_secret(SUITE, &hs.server).unwrap();
        let (inner, _) = server_cipher.decrypt_record(0, protected).unwrap();
        for msg in decode_flight(&inner.plaintext).unwrap() {
            transcript.extend(msg.encode());
        }
        let fin = HandshakeMessage::Finished(Finished {
            verify_data: KeySchedule::finished_mac(&hs.client, &transcript_hash(&transcript)),
        });
        let cipher = RecordProtector::from_secret(SUITE, &hs.client).unwrap();
        let flight = cipher
            .encrypt_record(0, content_type, &fin.encode())
            .unwrap();
        assert_eq!(
            server.on_flight(&flight, None).is_ok(),
            accepted,
            "{content_type:?}"
        );
    }
}
