//! The SMT session: keys + segmentation + reassembly + flow contexts for one
//! secure session (flow 5-tuple), as registered by the application after the
//! handshake (paper §4.2).

use crate::config::{CryptoMode, SmtConfig};
use crate::flow_context::FlowContextManager;
use crate::reassembly::{ReceivedMessage, SmtReceiver};
use crate::segment::{OutgoingMessage, PathInfo, SmtSegmenter};
use crate::{SmtError, SmtResult};
use serde::{Deserialize, Serialize};
use smt_crypto::handshake::{ratchet_secret, SessionKeys};
use smt_crypto::key_schedule::Secret;
use smt_crypto::record::RecordProtector;
use smt_crypto::{CipherSuite, SeqnoLayout};
use smt_wire::Packet;

/// NIC TX queues a session spreads its messages over (one per sending core
/// in the evaluation setup).
pub const NIC_QUEUES: usize = 4;

/// NIC flow contexts per TX queue (§4.4.2; the paper's implementation uses
/// one per queue).
pub const FLOW_CONTEXTS_PER_QUEUE: usize = 1;

/// Aggregate counters for a session.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct SessionStats {
    /// Messages segmented for transmission.
    pub messages_sent: u64,
    /// Application bytes accepted for transmission.
    pub bytes_sent: u64,
    /// Wire payload bytes produced (records + framing + tags).
    pub wire_bytes_sent: u64,
    /// TLS records sealed by the send side; what the simulator's per-record
    /// CPU charge counts.
    pub records_sealed: u64,
    /// Messages delivered by the receiver.
    pub messages_received: u64,
    /// Application bytes delivered.
    pub bytes_received: u64,
    /// Wire payload bytes handed to the receiver, counted before reassembly or
    /// authentication — the receive-side mirror of `wire_bytes_sent` (replays
    /// and corrupt packets still arrived on the wire, so they count too).
    pub wire_bytes_received: u64,
}

/// One endpoint's view of an SMT session.
pub struct SmtSession {
    config: SmtConfig,
    layout: SeqnoLayout,
    path: PathInfo,
    segmenter: SmtSegmenter,
    receiver: SmtReceiver,
    send_cipher: Option<RecordProtector>,
    /// Negotiated suite + current send traffic secret, retained so the
    /// session can ratchet forward on [`SmtSession::rekey`].
    suite: Option<CipherSuite>,
    send_secret: Option<Secret>,
    /// Raw send traffic secret + suite, retained so the simulated NIC can be
    /// programmed with the key for autonomous offload (mirrors the kTLS
    /// `setsockopt(SOL_TLS)` registration the paper reuses, §4.2).
    offload_key: Option<(CipherSuite, Secret)>,
    flow_contexts: FlowContextManager,
    next_message_id: u64,
    max_message_size: usize,
    stats: SessionStats,
}

impl std::fmt::Debug for SmtSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmtSession")
            .field("config", &self.config)
            .field("next_message_id", &self.next_message_id)
            .finish_non_exhaustive()
    }
}

impl SmtSession {
    /// Creates an encrypted session from completed handshake keys.
    pub fn new(keys: &SessionKeys, config: SmtConfig, path: PathInfo) -> SmtResult<Self> {
        if !config.crypto_mode.is_encrypted() {
            return Err(SmtError::Session(
                "use SmtSession::plaintext() for the unencrypted baseline".into(),
            ));
        }
        let layout = keys.seqno_layout;
        let send_cipher = RecordProtector::from_secret(keys.suite, &keys.send_secret)?;
        let recv_cipher = RecordProtector::from_secret(keys.suite, &keys.recv_secret)?;
        let offload_key = config
            .crypto_mode
            .is_offloaded()
            .then(|| (keys.suite, keys.send_secret.clone()));
        Ok(Self {
            config,
            layout,
            path,
            segmenter: SmtSegmenter::new(config, layout),
            receiver: SmtReceiver::new(config, layout, Some(recv_cipher))
                .with_rekey(keys.suite, &keys.recv_secret),
            send_cipher: Some(send_cipher),
            suite: Some(keys.suite),
            send_secret: Some(keys.send_secret.clone()),
            offload_key,
            flow_contexts: FlowContextManager::new(NIC_QUEUES, FLOW_CONTEXTS_PER_QUEUE),
            next_message_id: 0,
            max_message_size: keys.max_message_size as usize,
            stats: SessionStats::default(),
        })
    }

    /// Creates an unencrypted session (the Homa baseline in the evaluation).
    pub fn plaintext(config: SmtConfig, path: PathInfo) -> Self {
        let config = SmtConfig {
            crypto_mode: CryptoMode::Plaintext,
            ..config
        };
        let layout = SeqnoLayout::default();
        Self {
            config,
            layout,
            path,
            segmenter: SmtSegmenter::new(config, layout),
            receiver: SmtReceiver::new(config, layout, None),
            send_cipher: None,
            suite: None,
            send_secret: None,
            offload_key: None,
            flow_contexts: FlowContextManager::new(NIC_QUEUES, FLOW_CONTEXTS_PER_QUEUE),
            next_message_id: 0,
            max_message_size: smt_wire::DEFAULT_MAX_MESSAGE_SIZE,
            stats: SessionStats::default(),
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SmtConfig {
        &self.config
    }

    /// The negotiated composite-seqno layout.
    pub fn layout(&self) -> SeqnoLayout {
        self.layout
    }

    /// The path (addresses/ports) of this session.
    pub fn path(&self) -> PathInfo {
        self.path
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Flow-context statistics (offload mode).
    pub fn flow_context_stats(&self) -> crate::flow_context::FlowContextStats {
        self.flow_contexts.stats
    }

    /// Receive-side statistics.
    pub fn receiver_stats(&self) -> crate::reassembly::ReceiverStats {
        self.receiver.stats
    }

    /// The cipher-suite and traffic secret to program into the NIC for
    /// autonomous offload, if this session uses hardware offload.
    pub fn offload_key(&self) -> Option<(CipherSuite, &Secret)> {
        self.offload_key.as_ref().map(|(s, k)| (*s, k))
    }

    /// Number of message IDs already consumed.
    pub fn messages_allocated(&self) -> u64 {
        self.next_message_id
    }

    /// Segments `data` into a new outgoing message on NIC queue `queue`.
    pub fn send_message(&mut self, data: &[u8], queue: usize) -> SmtResult<OutgoingMessage> {
        if self.next_message_id > self.layout.max_message_id() {
            return Err(SmtError::MessageIdExhausted);
        }
        let message_id = self.next_message_id;
        let out = self.segmenter.segment_message(
            self.path,
            message_id,
            data,
            queue,
            self.send_cipher.as_ref(),
            self.config
                .crypto_mode
                .is_offloaded()
                .then_some(&mut self.flow_contexts),
            self.max_message_size,
        )?;
        self.next_message_id += 1;
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.stats.wire_bytes_sent += out.wire_len as u64;
        if self.config.crypto_mode == CryptoMode::Software {
            self.stats.records_sealed += out.record_count as u64;
        }
        Ok(out)
    }

    /// Processes a received DATA packet, returning a completed message if this
    /// packet finishes its reassembly.
    pub fn receive_packet(&mut self, packet: &Packet) -> SmtResult<Option<ReceivedMessage>> {
        self.stats.wire_bytes_received += packet.payload.wire_len() as u64;
        let out = self.receiver.on_packet(packet)?;
        if let Some(m) = &out {
            self.stats.messages_received += 1;
            self.stats.bytes_received += m.data.len() as u64;
        }
        Ok(out)
    }

    /// The first packet an in-progress receive is still missing (see
    /// [`SmtReceiver::first_missing`](crate::reassembly::SmtReceiver::first_missing)).
    pub fn first_missing(&self, message_id: u64) -> Option<(u32, u16)> {
        self.receiver.first_missing(message_id)
    }

    /// Drops everything buffered of an in-progress receive the transport has
    /// given up on (see
    /// [`SmtReceiver::forget`](crate::reassembly::SmtReceiver::forget)).
    pub fn forget(&mut self, message_id: u64) {
        self.receiver.forget(message_id);
    }

    /// True if `message_id` can no longer be delivered: it already was, or
    /// the replay guard skipped it (replay detection).
    pub fn already_delivered(&self, message_id: u64) -> bool {
        self.receiver.already_delivered(message_id)
    }

    /// True if `message_id` really was delivered — what a transport checks
    /// before acknowledging a duplicate of it again.
    pub fn was_delivered(&self, message_id: u64) -> bool {
        self.receiver.was_delivered(message_id)
    }

    /// Key epoch stamped into segments currently being produced.
    pub fn send_epoch(&self) -> u16 {
        self.segmenter.send_epoch()
    }

    /// Key epoch the receive side currently decrypts under.
    pub fn recv_epoch(&self) -> u16 {
        self.receiver.recv_epoch()
    }

    /// Ratchets the send traffic secret one epoch forward (RFC 8446 §7.2
    /// `traffic upd` style), rebuilds the send cipher, and stamps the new
    /// epoch into every subsequently produced segment's overlay option area.
    /// Message IDs are *not* reset — the composite seqno space is keyed by
    /// monotonically increasing message IDs, so the rekey bounds the data
    /// volume per key without disturbing reassembly or replay state.  The
    /// peer rolls forward when the first next-epoch segment authenticates and
    /// keeps the old keys for a one-epoch drain window, so retransmissions of
    /// packets sealed before the rekey still deliver.  Returns the new send
    /// epoch.  Plaintext sessions cannot rekey.
    pub fn rekey(&mut self) -> SmtResult<u16> {
        let (suite, secret) = match (self.suite, self.send_secret.as_ref()) {
            (Some(su), Some(se)) => (su, se),
            _ => {
                return Err(SmtError::Session(
                    "plaintext session has no keys to rekey".into(),
                ))
            }
        };
        let next = ratchet_secret(secret);
        let cipher = RecordProtector::from_secret(suite, &next)?;
        if self.offload_key.is_some() {
            // Re-program the NIC key registration (the kTLS-style
            // `setsockopt(SOL_TLS)` the paper reuses) with the new secret.
            self.offload_key = Some((suite, next.clone()));
        }
        self.send_cipher = Some(cipher);
        self.send_secret = Some(next);
        let epoch = self.segmenter.send_epoch().wrapping_add(1);
        self.segmenter.set_send_epoch(epoch);
        Ok(epoch)
    }
}

/// Builds a connected pair of sessions (client and server ends) from a pair of
/// handshake outputs — a convenience for tests, examples and the simulator.
pub fn session_pair(
    client_keys: &SessionKeys,
    server_keys: &SessionKeys,
    config: SmtConfig,
    client_port: u16,
    server_port: u16,
) -> SmtResult<(SmtSession, SmtSession)> {
    let (client_path, server_path) = PathInfo::pair(client_port, server_port);
    Ok((
        SmtSession::new(client_keys, config, client_path)?,
        SmtSession::new(server_keys, config, server_path)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_crypto::cert::CertificateAuthority;
    use smt_crypto::handshake::{establish, ClientConfig, ServerConfig};
    use smt_wire::DEFAULT_MTU;

    fn handshake() -> (SessionKeys, SessionKeys) {
        let ca = CertificateAuthority::new("test-ca");
        let id = ca.issue_identity("server");
        establish(
            ClientConfig::new(ca.verifying_key(), "server"),
            ServerConfig::new(id, ca.verifying_key()),
        )
        .unwrap()
    }

    fn deliver(
        from: &mut SmtSession,
        to: &mut SmtSession,
        data: &[u8],
        queue: usize,
    ) -> ReceivedMessage {
        let out = from.send_message(data, queue).unwrap();
        let mut delivered = None;
        for seg in &out.segments {
            for pkt in seg.packetize(DEFAULT_MTU).unwrap() {
                if let Some(m) = to.receive_packet(&pkt).unwrap() {
                    delivered = Some(m);
                }
            }
        }
        delivered.expect("delivered")
    }

    #[test]
    fn end_to_end_over_real_handshake() {
        let (ck, sk) = handshake();
        let (mut client, mut server) =
            session_pair(&ck, &sk, SmtConfig::software(), 4000, 5201).unwrap();

        let m = deliver(&mut client, &mut server, b"GET /key/xyz", 0);
        assert_eq!(m.data, b"GET /key/xyz");
        let r = deliver(&mut server, &mut client, b"VALUE abc", 1);
        assert_eq!(r.data, b"VALUE abc");

        assert_eq!(client.stats().messages_sent, 1);
        assert_eq!(client.stats().messages_received, 1);
        assert_eq!(server.stats().messages_received, 1);
        // Wire accounting is symmetric over a lossless in-memory link.
        assert_eq!(
            server.stats().wire_bytes_received,
            client.stats().wire_bytes_sent
        );
        assert_eq!(
            client.stats().wire_bytes_received,
            server.stats().wire_bytes_sent
        );
    }

    #[test]
    fn message_ids_increment_and_replay_rejected() {
        let (ck, sk) = handshake();
        let (mut client, mut server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        let a = client.send_message(b"first", 0).unwrap();
        let b = client.send_message(b"second", 0).unwrap();
        assert_eq!(a.message_id, 0);
        assert_eq!(b.message_id, 1);
        assert_eq!(client.messages_allocated(), 2);

        for seg in a.segments.iter().chain(b.segments.iter()) {
            for pkt in seg.packetize(DEFAULT_MTU).unwrap() {
                server.receive_packet(&pkt).ok();
            }
        }
        assert!(server.already_delivered(0));
        assert!(server.already_delivered(1));
        // Replaying message 0's packets yields nothing.
        for seg in &a.segments {
            for pkt in seg.packetize(DEFAULT_MTU).unwrap() {
                assert!(server.receive_packet(&pkt).unwrap().is_none());
            }
        }
        assert_eq!(server.receiver_stats().packets_replayed, 1);
    }

    #[test]
    fn hardware_offload_session_provides_nic_key_and_descriptors() {
        let (ck, sk) = handshake();
        let (mut client, _server) =
            session_pair(&ck, &sk, SmtConfig::hardware_offload(), 1, 2).unwrap();
        assert!(client.offload_key().is_some());
        let out = client.send_message(&vec![0u8; 100_000], 3).unwrap();
        for seg in &out.segments {
            assert!(seg.offload.is_some());
        }
        assert!(client.flow_context_stats().allocations >= 1);
    }

    #[test]
    fn software_session_has_no_offload_key() {
        let (ck, sk) = handshake();
        let (client, _server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        assert!(client.offload_key().is_none());
    }

    #[test]
    fn plaintext_session_roundtrip() {
        let mut a = SmtSession::plaintext(SmtConfig::plaintext(), PathInfo::loopback(1, 2));
        let mut b = SmtSession::plaintext(SmtConfig::plaintext(), PathInfo::loopback(2, 1));
        let m = deliver(&mut a, &mut b, &vec![0x5a; 30_000], 0);
        assert_eq!(m.data.len(), 30_000);
    }

    #[test]
    fn plaintext_constructor_guard() {
        let (ck, _) = handshake();
        assert!(SmtSession::new(&ck, SmtConfig::plaintext(), PathInfo::loopback(1, 2)).is_err());
    }

    #[test]
    fn oversize_message_respects_negotiated_limit() {
        let (ck, sk) = handshake();
        let (mut client, _server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        // Negotiated max message size is 1 MB (Homa default).
        let too_big = vec![0u8; (1 << 20) + 1];
        assert!(matches!(
            client.send_message(&too_big, 0),
            Err(SmtError::MessageTooLarge { .. })
        ));
    }

    #[test]
    fn rekey_mid_stream_delivers_across_epochs() {
        let (ck, sk) = handshake();
        let (mut client, mut server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        let m = deliver(&mut client, &mut server, b"epoch zero", 0);
        assert_eq!(m.data, b"epoch zero");
        assert_eq!(client.rekey().unwrap(), 1);
        assert_eq!(client.send_epoch(), 1);
        let m = deliver(&mut client, &mut server, b"epoch one", 0);
        assert_eq!(m.data, b"epoch one");
        assert_eq!(server.recv_epoch(), 1);
        // Back-to-back rekeys keep delivering; the receiver tracks each roll.
        for e in 2u16..5 {
            assert_eq!(client.rekey().unwrap(), e);
            let msg = format!("epoch {e}");
            let m = deliver(&mut client, &mut server, msg.as_bytes(), 0);
            assert_eq!(m.data, msg.as_bytes());
            assert_eq!(server.recv_epoch(), e);
        }
        // The reverse direction has its own schedule, still at epoch 0.
        let r = deliver(&mut server, &mut client, b"reply", 0);
        assert_eq!(r.data, b"reply");
        assert_eq!(client.recv_epoch(), 0);
        assert_eq!(server.receiver_stats().epoch_rejected, 0);
        assert_eq!(server.receiver_stats().auth_failures, 0);
    }

    #[test]
    fn drain_window_delivers_pre_rekey_retransmission() {
        let (ck, sk) = handshake();
        let (mut client, mut server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        let data = vec![7u8; 12_000];
        let out = client.send_message(&data, 0).unwrap();
        let packets: Vec<_> = out
            .segments
            .iter()
            .flat_map(|s| s.packetize(DEFAULT_MTU).unwrap())
            .collect();
        // Lose one packet of the epoch-0 message, then rekey and deliver a
        // whole epoch-1 message so the receiver commits the roll.
        for (i, p) in packets.iter().enumerate() {
            if i != 3 {
                assert!(server.receive_packet(p).unwrap().is_none());
            }
        }
        client.rekey().unwrap();
        let m = deliver(&mut client, &mut server, b"fresh epoch", 0);
        assert_eq!(m.data, b"fresh epoch");
        assert_eq!(server.recv_epoch(), 1);
        // The retransmission still carries the old epoch stamp (it is the
        // stored pre-rekey ciphertext); the drain-window keys decrypt it.
        let mut retx = packets[3].clone();
        crate::segment::SmtSegmenter::mark_retransmission(&mut retx);
        let m = server
            .receive_packet(&retx)
            .unwrap()
            .expect("pre-rekey message completes through the drain window");
        assert_eq!(m.data, data);
        assert_eq!(server.receiver_stats().epoch_rejected, 0);
    }

    #[test]
    fn forged_epoch_outside_window_dropped_and_counted() {
        let (ck, sk) = handshake();
        let (mut client, mut server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        let out = client.send_message(b"legit", 0).unwrap();
        let mut pkt = out.segments[0].packetize(DEFAULT_MTU).unwrap()[0].clone();
        pkt.overlay.options.epoch = 7;
        // Far-future epoch: dropped without buffering or decryption.
        assert!(server.receive_packet(&pkt).unwrap().is_none());
        assert_eq!(server.receiver_stats().epoch_rejected, 1);
        assert_eq!(server.receiver_stats().packets_accepted, 0);
        // A forged next-epoch stamp fails authentication instead of rolling
        // the receiver's key schedule forward.
        pkt.overlay.options.epoch = 1;
        assert!(server.receive_packet(&pkt).is_err());
        assert_eq!(server.recv_epoch(), 0);
        assert_eq!(server.receiver_stats().auth_failures, 1);
        // A fresh genuine message still delivers at epoch 0 afterwards.
        let m = deliver(&mut client, &mut server, b"still epoch zero", 0);
        assert_eq!(m.data, b"still epoch zero");
        assert_eq!(server.recv_epoch(), 0);
    }

    #[test]
    fn plaintext_session_cannot_rekey() {
        let mut s = SmtSession::plaintext(SmtConfig::plaintext(), PathInfo::loopback(1, 2));
        assert!(s.rekey().is_err());
    }

    #[test]
    fn offload_rekey_reprograms_nic_key() {
        let (ck, sk) = handshake();
        let (mut client, _server) =
            session_pair(&ck, &sk, SmtConfig::hardware_offload(), 1, 2).unwrap();
        let before = client.offload_key().map(|(_, s)| s.clone()).unwrap();
        client.rekey().unwrap();
        let after = client.offload_key().map(|(_, s)| s.clone()).unwrap();
        assert_ne!(before, after, "NIC key registration must be refreshed");
    }

    #[test]
    fn cross_direction_keys_are_independent() {
        // A packet sent by the client cannot be decrypted as if it were
        // server-to-client traffic: feed the client's own packet back to it.
        let (ck, sk) = handshake();
        let (mut client, _server) = session_pair(&ck, &sk, SmtConfig::software(), 1, 2).unwrap();
        let out = client.send_message(b"to the server", 0).unwrap();
        let pkt = &out.segments[0].packetize(DEFAULT_MTU).unwrap()[0];
        assert!(client.receive_packet(pkt).is_err());
    }
}
