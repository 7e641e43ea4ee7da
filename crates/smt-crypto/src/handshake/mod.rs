//! SMT session establishment.
//!
//! SMT initiates a secure session with a TLS 1.3 handshake performed by the
//! application (paper §4.2); the negotiated traffic secrets are then registered
//! with the SMT socket, exactly as kTLS does for TCP.  One TLS 1.3 state
//! machine ([`full`]) runs every configuration measured in Fig. 12; they
//! differ only in the PSK the ClientHello offers and whether ECDHE runs:
//!
//! | Variant        | PSK                          | Paper name | RTTs before data | Forward secrecy |
//! |----------------|------------------------------|------------|------------------|-----------------|
//! | Standard 1-RTT | none                         | Init-1RTT  | 1                | yes             |
//! | SMT-ticket     | SMT-key ([`zero_rtt`])       | Init       | 0                | no (0-RTT data) |
//! | SMT-ticket +FS | SMT-key ([`zero_rtt`])       | Init-FS    | 0 (data), 1 (FS) | yes after SH    |
//! | Resumption     | resumption ticket            | Rsmp       | 1                | no              |
//! | Resumption +FS | resumption ticket            | Rsmp-FS    | 1                | yes             |
//!
//! The state machine records the per-operation timing breakdown of Table 2
//! ([`timing::HandshakeTimings`]); [`derived`] is the separate path-secret
//! exchange with its own wire format.
//!
//! The state machine is one-shot and in-memory.  [`machine`]
//! wraps it in **resumable, duplicate-tolerant** client/server machines that
//! consume raw flight bytes from the wire — the form the in-band connection
//! setup in `smt-transport` drives over a lossy fabric — and adds in-band
//! SMT-ticket distribution so a second connection can do 0-RTT without a DNS
//! side channel.

pub mod derived;
pub mod full;
pub mod keys;
pub mod machine;
pub mod messages;
pub mod timing;
pub mod zero_rtt;

pub use derived::{
    derived_reject_flight, derived_server_respond, is_derived_flight, ratchet_secret,
    DerivedClient, DerivedClientOutcome, DerivedServerOutcome, DerivedServerResponse, PathSecret,
    PathSecretMap,
};
pub use full::{
    establish, ClientConfig, ClientHandshake, ClientMode, ServerConfig, ServerHandshake,
    ZeroRttContext,
};
pub use keys::{EcdhKeyPair, KeyCache};
pub use machine::{ClientFlightOutcome, ClientMachine, ServerFlightOutcome, ServerMachine};
pub use messages::{
    decode_flight, encode_flight, ClientHello, EncryptedExtensions, Finished, HandshakeMessage,
    NewSessionTicket, ServerHello, SmtExtensions, SmtTicket,
};
pub use timing::{HandshakeTimings, OpId};
pub use zero_rtt::{ReplayCache, SmtTicketIssuer};

use crate::key_schedule::Secret;
use crate::seqno::SeqnoLayout;
use crate::suite::CipherSuite;
use crate::{CryptoError, CryptoResult};

/// The output of a completed handshake: everything the SMT protocol engine needs
/// to protect application messages in both directions.
#[derive(Debug)]
pub struct SessionKeys {
    /// Negotiated cipher suite.
    pub suite: CipherSuite,
    /// True on the client side.
    pub is_client: bool,
    /// Traffic secret protecting data this endpoint sends.
    pub send_secret: Secret,
    /// Traffic secret protecting data this endpoint receives.
    pub recv_secret: Secret,
    /// Resumption master secret (mints session tickets).
    pub resumption_master: Secret,
    /// Negotiated composite-sequence-number layout (§4.4.1).
    pub seqno_layout: SeqnoLayout,
    /// Negotiated maximum message size in bytes.
    pub max_message_size: u32,
    /// Authenticated peer identity (certificate subject), when available.
    pub peer_identity: Option<String>,
    /// Whether 0-RTT early data was sent/accepted in this handshake.
    pub early_data_accepted: bool,
    /// Whether this session resumed a previous one (PSK or SMT-ticket).
    pub resumed: bool,
    /// Whether the session's application keys are forward secret.
    pub forward_secret: bool,
    /// Per-operation timing breakdown (Table 2).
    pub timings: HandshakeTimings,
    /// Session ticket issued by the server for future resumption, if any.
    pub issued_ticket: Option<NewSessionTicket>,
}

impl SessionKeys {
    /// Derives the resumption PSK for a ticket minted from this session
    /// (both sides derive the same value, RFC 8446 §4.6.1).
    pub fn resumption_psk(&self, ticket: &NewSessionTicket) -> Secret {
        crate::key_schedule::KeySchedule::resumption_psk(&self.resumption_master, &ticket.nonce)
    }

    /// Validates that the negotiated extension values are coherent and returns
    /// the seqno layout (convenience for the protocol engine).
    pub fn layout(&self) -> SeqnoLayout {
        self.seqno_layout
    }
}

/// Builds a [`SeqnoLayout`] from the negotiated `msg_id_bits` extension value.
pub fn layout_from_extension(msg_id_bits: u8) -> CryptoResult<SeqnoLayout> {
    if msg_id_bits == 0 || msg_id_bits as u32 >= 64 {
        return Err(CryptoError::handshake(format!(
            "invalid msg_id_bits extension {msg_id_bits}"
        )));
    }
    SeqnoLayout::new(msg_id_bits as u32, 64 - msg_id_bits as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_from_extension_bounds() {
        assert!(layout_from_extension(0).is_err());
        assert!(layout_from_extension(64).is_err());
        let l = layout_from_extension(48).unwrap();
        assert_eq!(l.record_index_bits, 16);
    }

    /// Pins, for each of the five Fig. 12 variants and on both sides, the
    /// Table 2 rows the handshake records and the session flags it reports.
    #[test]
    fn each_variant_records_its_table2_ops_and_session_flags() {
        use crate::cert::CertificateAuthority;
        use OpId::*;

        let ca = CertificateAuthority::new("ops-ca");
        let id = ca.issue_identity("server.dc.local");
        let client = || ClientConfig::new(ca.verifying_key(), "server.dc.local");
        let server = || ServerConfig::new(id.clone(), ca.verifying_key());
        let ops = |k: &SessionKeys| k.timings.rows().map(|(op, _)| op).collect::<Vec<_>>();
        // (peer_identity, early_data_accepted, resumed, forward_secret, issued_ticket)
        let flags = |k: &SessionKeys| {
            (
                k.peer_identity.clone(),
                k.early_data_accepted,
                k.resumed,
                k.forward_secret,
                k.issued_ticket.is_some(),
            )
        };
        let server_name = Some("server.dc.local".to_string());

        // Init-1RTT: every row on both sides.
        let (ck, sk) = establish(client(), server()).unwrap();
        assert_eq!(
            ops(&ck),
            [
                C1_1KeyGen,
                C1_2OthersGen,
                C2_1ProcessShlo,
                C2_2EcdhExchange,
                C2_3SecretDerive,
                C3_1DecodeCert,
                C3_2VerifyCert,
                C4_1BuildSignData,
                C4_2VerifyCertVerify,
                C5ProcessFinished,
            ]
        );
        assert_eq!(
            ops(&sk),
            [
                S1ProcessChlo,
                S2_1KeyGen,
                S2_2EcdhExchange,
                S2_3ShloGen,
                S2_4EeCertEncode,
                S2_5CertVerifyGen,
                S2_6SecretDerive,
                S3ProcessFinished,
            ]
        );
        assert_eq!(flags(&ck), (server_name.clone(), false, false, true, false));
        assert_eq!(flags(&sk), (None, false, false, true, true));

        // Rsmp, Rsmp-FS, Init and Init-FS skip every certificate row.
        let psk_client = [
            C1_1KeyGen,
            C1_2OthersGen,
            C2_1ProcessShlo,
            C2_2EcdhExchange,
            C2_3SecretDerive,
            C5ProcessFinished,
        ];
        let psk_server = [
            S1ProcessChlo,
            S2_1KeyGen,
            S2_2EcdhExchange,
            S2_3ShloGen,
            S2_4EeCertEncode,
            S2_6SecretDerive,
            S3ProcessFinished,
        ];
        let nst = sk.issued_ticket.clone().unwrap();
        let issuer = SmtTicketIssuer::new(id.clone(), 3600);
        let mut replay = ReplayCache::new(8);
        for fs in [false, true] {
            let mut c = client();
            c.resumption = Some(full::ClientResumption {
                ticket_id: nst.ticket_id,
                psk: ck.resumption_psk(&nst),
                forward_secrecy: fs,
            });
            let mut s = server();
            s.resumption_psks
                .insert(nst.ticket_id, sk.resumption_psk(&nst));
            s.resumption_forward_secrecy = fs;
            let (rck, rsk) = establish(c, s).unwrap();
            assert_eq!(
                (ops(&rck), ops(&rsk)),
                (psk_client.to_vec(), psk_server.to_vec())
            );
            assert_eq!(flags(&rck), (None, false, true, fs, false), "Rsmp fs={fs}");
            assert_eq!(flags(&rsk), (None, false, true, fs, true), "Rsmp fs={fs}");

            for early in [&b"early"[..], b""] {
                let (zck, zsk, _) = zero_rtt::establish_zero_rtt(
                    CipherSuite::default(),
                    &ca.verifying_key(),
                    "server.dc.local",
                    &issuer,
                    &mut replay,
                    early,
                    fs,
                    0,
                )
                .unwrap();
                assert_eq!(
                    (ops(&zck), ops(&zsk)),
                    (psk_client.to_vec(), psk_server.to_vec())
                );
                let init = format!("Init fs={fs} early={}", early.len());
                assert_eq!(
                    flags(&zck),
                    (server_name.clone(), true, true, fs, false),
                    "{init}"
                );
                assert_eq!(flags(&zsk), (None, true, true, fs, false), "{init}");
            }
        }
    }
}
