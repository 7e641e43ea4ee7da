//! The kTLS/TCP baseline record layer (paper §2.1, evaluated as kTLS-sw/kTLS-hw).
//!
//! TLS over TCP maps the connection's single in-order bytestream onto a single
//! record sequence number space.  The sender cuts application data into records
//! with a monotonically increasing sequence number; the receiver must consume the
//! bytestream **in order**, which is exactly the property that causes
//! head-of-line blocking on packet loss and on a CPU core (§2).  This module
//! implements that record layer so the evaluation can compare SMT against it over
//! the simulated TCP transport.
//!
//! The crypto is *identical* to SMT's — both drive the shared
//! [`RecordProtector`] seal/open datapath in `smt-crypto`; only the
//! sequence-number space (per-connection counter here, composite message‖index
//! there) and the delivery model differ.  Whole sends and whole runs of
//! received records go through the **batched** record API
//! (`seal_batch_into`/`open_batch`): one reservation, one scratch fill and one
//! fused-AEAD drive per call instead of per record.

use crate::config::CryptoMode;
use crate::{SmtError, SmtResult};
use bytes::{Buf, BytesMut};
use smt_crypto::handshake::{ratchet_secret, SessionKeys};
use smt_crypto::key_schedule::Secret;
use smt_crypto::record::{Padding, RecordProtector, SealRequest};
use smt_crypto::{CipherSuite, CryptoError};
use smt_wire::{ContentType, TlsRecordHeader, MAX_TLS_RECORD};

/// The TLS 1.3 KeyUpdate handshake message with `update_not_requested`
/// (RFC 8446 §4.6.3): msg_type 24, 3-byte length 1, request field 0. Sent
/// in-band as a Handshake record to signal "subsequent records from me are
/// under the next-epoch traffic secret".
const KEY_UPDATE_MESSAGE: [u8; 5] = [24, 0, 0, 1, 0];

/// Maximum application bytes per kTLS record (leave room for framing overhead).
const KTLS_RECORD_PAYLOAD: usize = MAX_TLS_RECORD - 256;

/// Caps on one batched receive-open run: at most this many records and (soft)
/// this many wire bytes per `open_batch` call, so the protector's reusable
/// scratch stays burst-independent while still amortizing across a run.
const KTLS_OPEN_BATCH_RECORDS: usize = 16;
const KTLS_OPEN_BATCH_BYTES: usize = 64 * 1024;

/// Sender half: application bytes → TLS record stream appended to the TCP
/// bytestream.
pub struct KtlsSender {
    protector: RecordProtector,
    seq: u64,
    suite: CipherSuite,
    secret: Secret,
    epoch: u16,
    crypto_mode: CryptoMode,
    /// Raw traffic secret + suite retained for NIC offload registration
    /// (kTLS-hw), mirroring the kernel TLS offload interface.
    offload_key: Option<(CipherSuite, Secret)>,
    /// Bytes of application data sent.
    pub bytes_sent: u64,
    /// Records produced.
    pub records_sent: u64,
}

impl std::fmt::Debug for KtlsSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KtlsSender")
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl KtlsSender {
    /// Creates a sender from a traffic secret.
    pub fn new(suite: CipherSuite, secret: &Secret, crypto_mode: CryptoMode) -> SmtResult<Self> {
        Ok(Self {
            protector: RecordProtector::from_secret(suite, secret)?,
            seq: 0,
            suite,
            secret: secret.clone(),
            epoch: 0,
            crypto_mode,
            offload_key: crypto_mode.is_offloaded().then(|| (suite, secret.clone())),
            bytes_sent: 0,
            records_sent: 0,
        })
    }

    /// Emits an in-band TLS KeyUpdate record sealed under the *current* keys,
    /// then ratchets the send traffic secret forward one epoch and resets the
    /// record sequence number (RFC 8446 §4.6.3 / §7.2). The returned bytes
    /// must be appended to the send stream before any post-rekey record.
    pub fn key_update(&mut self) -> SmtResult<Vec<u8>> {
        let wire =
            self.protector
                .encrypt_record(self.seq, ContentType::Handshake, &KEY_UPDATE_MESSAGE)?;
        self.records_sent += 1;
        self.secret = ratchet_secret(&self.secret);
        self.protector = RecordProtector::from_secret(self.suite, &self.secret)?;
        self.seq = 0;
        self.epoch += 1;
        if self.offload_key.is_some() {
            // Re-program the NIC flow context with the new-epoch key, exactly
            // as the kernel re-issues the kTLS setsockopt after a KeyUpdate.
            self.offload_key = Some((self.suite, self.secret.clone()));
        }
        Ok(wire)
    }

    /// The current send-direction key epoch (number of KeyUpdates emitted).
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// The key material to program into the NIC for kTLS-hw.
    pub fn offload_key(&self) -> Option<(CipherSuite, &Secret)> {
        self.offload_key.as_ref().map(|(s, k)| (*s, k))
    }

    /// The next record sequence number (the NIC's self-incrementing counter
    /// tracks this value for offloaded connections).
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Encrypts `data` into one or more records, appending the wire bytes to
    /// `out`. The whole send is cut into records up front and sealed through
    /// the batched [`RecordProtector`] datapath in one call, so `out` grows at
    /// most once and every record runs the fused AEAD pass back to back.
    /// Returns the number of bytes appended.
    pub fn send_into(&mut self, data: &[u8], out: &mut BytesMut) -> SmtResult<usize> {
        // Record chunking: every KTLS_RECORD_PAYLOAD bytes, with one (possibly
        // empty) record for an empty send.
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[]]
        } else {
            data.chunks(KTLS_RECORD_PAYLOAD).collect()
        };
        let batch: Vec<SealRequest<'_>> = chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| SealRequest {
                seq: self.seq + i as u64,
                content_type: ContentType::ApplicationData,
                parts: std::slice::from_ref(chunk),
                padding: Padding::Default,
            })
            .collect();
        let appended = self.protector.seal_batch_into(&batch, out)?;
        self.seq += chunks.len() as u64;
        self.records_sent += chunks.len() as u64;
        self.bytes_sent += data.len() as u64;
        Ok(appended)
    }

    /// Encrypts `data` into one or more records and returns the bytes to append
    /// to the TCP send stream (allocating convenience over [`Self::send_into`]).
    pub fn send(&mut self, data: &[u8]) -> SmtResult<Vec<u8>> {
        let mut out = BytesMut::with_capacity(self.wire_len_for(data.len()));
        self.send_into(data, &mut out)?;
        Ok(out.into_vec())
    }

    /// Number of wire bytes `send` would produce for `len` application bytes
    /// (sizes a buffer without materialising the ciphertext).
    pub fn wire_len_for(&self, len: usize) -> usize {
        if len == 0 {
            return self.protector.wire_record_len(0);
        }
        let full = len / KTLS_RECORD_PAYLOAD;
        let rem = len % KTLS_RECORD_PAYLOAD;
        let mut total = full * self.protector.wire_record_len(KTLS_RECORD_PAYLOAD);
        if rem > 0 {
            total += self.protector.wire_record_len(rem);
        }
        total
    }

    /// Whether this sender's crypto is performed by the NIC.
    pub fn crypto_mode(&self) -> CryptoMode {
        self.crypto_mode
    }
}

/// Receiver half: in-order TCP bytestream → decrypted application bytes.
pub struct KtlsReceiver {
    protector: RecordProtector,
    seq: u64,
    suite: CipherSuite,
    secret: Secret,
    epoch: u16,
    buffer: BytesMut,
    /// Bytes of application data delivered.
    pub bytes_delivered: u64,
    /// Records decrypted.
    pub records_received: u64,
}

impl std::fmt::Debug for KtlsReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KtlsReceiver")
            .field("seq", &self.seq)
            .field("buffered", &self.buffer.len())
            .finish_non_exhaustive()
    }
}

impl KtlsReceiver {
    /// Creates a receiver from a traffic secret.
    pub fn new(suite: CipherSuite, secret: &Secret) -> SmtResult<Self> {
        Ok(Self {
            protector: RecordProtector::from_secret(suite, secret)?,
            seq: 0,
            suite,
            secret: secret.clone(),
            epoch: 0,
            buffer: BytesMut::new(),
            bytes_delivered: 0,
            records_received: 0,
        })
    }

    /// The current receive-direction key epoch (KeyUpdates processed).
    pub fn epoch(&self) -> u16 {
        self.epoch
    }

    /// Appends in-order bytes from the TCP stream and returns any application
    /// data that became available.  Partial records stay buffered (this is the
    /// stream reassembly the application would otherwise do itself, §2).
    ///
    /// Complete records in the buffer are opened in batched calls under their
    /// consecutive sequence numbers, capped at `KTLS_OPEN_BATCH_RECORDS` /
    /// `KTLS_OPEN_BATCH_BYTES` per call so the protector's reusable scratch
    /// stays bounded regardless of burst size.
    ///
    /// A Handshake record carrying a TLS KeyUpdate ratchets the receive
    /// traffic secret forward one epoch and resets the sequence number, so
    /// records after it open under the next-epoch keys.  When a KeyUpdate sits
    /// mid-run, the records behind it fail to authenticate under the old keys
    /// and the run is retried one record at a time from the head; every other
    /// failure poisons the delivery (the TCP stream is dead at that point
    /// anyway).
    pub fn on_bytes(&mut self, bytes: &[u8]) -> SmtResult<Vec<u8>> {
        self.buffer.extend_from_slice(bytes);
        let mut out = Vec::new();
        loop {
            // Scan one capped run of complete records at the head.
            let mut run_records = 0usize;
            let mut run_len = 0usize;
            let mut first_len = 0usize;
            while run_records < KTLS_OPEN_BATCH_RECORDS && run_len < KTLS_OPEN_BATCH_BYTES {
                let rest = &self.buffer[run_len..];
                let Ok((hdr, hdr_len)) = TlsRecordHeader::decode(rest) else {
                    break;
                };
                if rest.len() < hdr_len + hdr.length as usize {
                    break;
                }
                run_len += hdr_len + hdr.length as usize;
                if run_records == 0 {
                    first_len = run_len;
                }
                run_records += 1;
            }
            if run_records == 0 {
                break;
            }

            let before = out.len();
            let (records, len, rekey) = match Self::open_run(
                &mut self.protector,
                self.seq,
                run_records,
                &self.buffer[..run_len],
                &mut out,
            ) {
                Ok(rekey) => (run_records, run_len, rekey),
                // A KeyUpdate mid-run makes the records behind it fail under
                // the pre-update keys; if the head record alone opens we are
                // in that case (the rekey below re-syncs), otherwise the
                // stream is genuinely corrupt.
                Err(e) if run_records > 1 => {
                    out.truncate(before);
                    match Self::open_run(
                        &mut self.protector,
                        self.seq,
                        1,
                        &self.buffer[..first_len],
                        &mut out,
                    ) {
                        Ok(rekey) => (1, first_len, rekey),
                        Err(_) => return Err(SmtError::Crypto(e)),
                    }
                }
                Err(e) => return Err(SmtError::Crypto(e)),
            };
            self.seq += records as u64;
            self.records_received += records as u64;
            self.bytes_delivered += (out.len() - before) as u64;
            // Drop the fully-processed run from the stream buffer, keeping any
            // partial tail for the next delivery.
            self.buffer.advance(len);
            if rekey {
                self.secret = ratchet_secret(&self.secret);
                self.protector = RecordProtector::from_secret(self.suite, &self.secret)?;
                self.seq = 0;
                self.epoch += 1;
            }
        }
        Ok(out)
    }

    /// Opens one run of records and appends the application bytes to `out`,
    /// returning whether the run ended with a KeyUpdate.  A KeyUpdate can only
    /// authenticate as the *last* record of an opened run: anything the peer
    /// sealed after it used the next-epoch keys and fails under the current
    /// protector, so the caller's run simply ends there.
    fn open_run(
        protector: &mut RecordProtector,
        seq: u64,
        records: usize,
        wire: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<bool, CryptoError> {
        let batch = protector.open_batch(seq, records, wire)?;
        debug_assert_eq!(batch.consumed, wire.len());
        out.reserve(batch.plaintext_len());
        let mut rekey = false;
        for record in batch.iter() {
            match record.content_type {
                ContentType::ApplicationData => out.extend_from_slice(record.plaintext),
                ContentType::Handshake => {
                    if record.plaintext != KEY_UPDATE_MESSAGE {
                        return Err(CryptoError::handshake(
                            "unexpected handshake record on kTLS stream",
                        ));
                    }
                    rekey = true;
                }
                _ => {
                    return Err(CryptoError::handshake(
                        "unexpected content type on kTLS stream",
                    ))
                }
            }
        }
        Ok(rekey)
    }

    /// Bytes currently buffered waiting for the rest of a record.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }
}

/// A bidirectional kTLS endpoint (sender + receiver halves) built from handshake
/// keys — the moral equivalent of a kTLS-enabled TCP socket.
#[derive(Debug)]
pub struct KtlsSession {
    /// Sender half (our traffic secret).
    pub sender: KtlsSender,
    /// Receiver half (peer's traffic secret).
    pub receiver: KtlsReceiver,
}

impl KtlsSession {
    /// Builds an endpoint from handshake keys.
    pub fn new(keys: &SessionKeys, crypto_mode: CryptoMode) -> SmtResult<Self> {
        Ok(Self {
            sender: KtlsSender::new(keys.suite, &keys.send_secret, crypto_mode)?,
            receiver: KtlsReceiver::new(keys.suite, &keys.recv_secret)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_crypto::cert::CertificateAuthority;
    use smt_crypto::handshake::{establish, ClientConfig, ServerConfig};

    fn keys() -> (SessionKeys, SessionKeys) {
        let ca = CertificateAuthority::new("ca");
        let id = ca.issue_identity("server");
        establish(
            ClientConfig::new(ca.verifying_key(), "server"),
            ServerConfig::new(id, ca.verifying_key()),
        )
        .unwrap()
    }

    #[test]
    fn stream_roundtrip() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();

        let wire = client.sender.send(b"GET /index").unwrap();
        let got = server.receiver.on_bytes(&wire).unwrap();
        assert_eq!(got, b"GET /index");

        let wire = server.sender.send(b"200 OK").unwrap();
        let got = client.receiver.on_bytes(&wire).unwrap();
        assert_eq!(got, b"200 OK");
    }

    #[test]
    fn send_into_reuses_stream_buffer() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let mut stream = BytesMut::with_capacity(16 * 1024);
        let n1 = client.sender.send_into(b"first", &mut stream).unwrap();
        let n2 = client.sender.send_into(b"second", &mut stream).unwrap();
        assert_eq!(stream.len(), n1 + n2);
        let got = server.receiver.on_bytes(&stream).unwrap();
        assert_eq!(got, b"firstsecond");
    }

    #[test]
    fn partial_delivery_buffers_until_complete() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let wire = client.sender.send(&vec![7u8; 5000]).unwrap();
        // Deliver in small chunks as TCP would after segmentation.
        let mut got = Vec::new();
        for chunk in wire.chunks(1448) {
            got.extend_from_slice(&server.receiver.on_bytes(chunk).unwrap());
        }
        assert_eq!(got, vec![7u8; 5000]);
        assert_eq!(server.receiver.buffered(), 0);
    }

    #[test]
    fn out_of_order_bytes_break_the_stream() {
        // The defining limitation of TLS-over-TCP: records must arrive in order.
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let w1 = client.sender.send(b"first record").unwrap();
        let w2 = client.sender.send(b"second record").unwrap();
        // Deliver the second record first: decryption under seq 0 fails.
        assert!(server.receiver.on_bytes(&w2).is_err());
        drop(w1);
    }

    #[test]
    fn large_send_splits_into_records() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let data = vec![1u8; 100_000];
        let wire = client.sender.send(&data).unwrap();
        assert!(client.sender.records_sent > 1);
        assert_eq!(client.sender.wire_len_for(data.len()), wire.len());
        let got = server.receiver.on_bytes(&wire).unwrap();
        assert_eq!(got, data);
        assert_eq!(server.receiver.records_received, client.sender.records_sent);
    }

    #[test]
    fn tampered_stream_detected() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let mut wire = client.sender.send(b"payload").unwrap();
        let mid = wire.len() / 2;
        wire[mid] ^= 1;
        assert!(server.receiver.on_bytes(&wire).is_err());
    }

    #[test]
    fn offload_key_only_in_hw_mode() {
        let (ck, _) = keys();
        let sw = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let hw = KtlsSession::new(&ck, CryptoMode::HardwareOffload).unwrap();
        assert!(sw.sender.offload_key().is_none());
        assert!(hw.sender.offload_key().is_some());
        assert_eq!(hw.sender.crypto_mode(), CryptoMode::HardwareOffload);
    }

    #[test]
    fn sequence_numbers_increment_per_record() {
        let (ck, _) = keys();
        let mut s = KtlsSender::new(ck.suite, &ck.send_secret, CryptoMode::Software).unwrap();
        assert_eq!(s.next_seq(), 0);
        s.send(b"one").unwrap();
        s.send(b"two").unwrap();
        assert_eq!(s.next_seq(), 2);
    }

    #[test]
    fn key_update_roundtrip_mid_stream() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();

        let mut stream = BytesMut::new();
        client
            .sender
            .send_into(b"before rekey ", &mut stream)
            .unwrap();
        let ku = client.sender.key_update().unwrap();
        stream.extend_from_slice(&ku);
        client
            .sender
            .send_into(b"after rekey", &mut stream)
            .unwrap();

        // The whole run (old-epoch data, KeyUpdate, new-epoch data) arrives in
        // one delivery; the receiver ratchets mid-buffer.
        let got = server.receiver.on_bytes(&stream).unwrap();
        assert_eq!(got, b"before rekey after rekey");
        assert_eq!(client.sender.epoch(), 1);
        assert_eq!(server.receiver.epoch(), 1);
        // Both sides restarted their per-epoch sequence space.
        assert_eq!(client.sender.next_seq(), 1);

        // The new keys keep working in both directions of time.
        let wire = client.sender.send(b"still alive").unwrap();
        assert_eq!(server.receiver.on_bytes(&wire).unwrap(), b"still alive");
    }

    #[test]
    fn key_update_survives_byte_at_a_time_delivery() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let mut stream = BytesMut::new();
        for i in 0..3u8 {
            client.sender.send_into(&[i; 100], &mut stream).unwrap();
            stream.extend_from_slice(&client.sender.key_update().unwrap());
        }
        client.sender.send_into(b"tail", &mut stream).unwrap();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            got.extend_from_slice(&server.receiver.on_bytes(chunk).unwrap());
        }
        let mut want = Vec::new();
        for i in 0..3u8 {
            want.extend_from_slice(&[i; 100]);
        }
        want.extend_from_slice(b"tail");
        assert_eq!(got, want);
        assert_eq!(server.receiver.epoch(), 3);
    }

    #[test]
    fn forged_handshake_record_rejected() {
        // A Handshake-typed record that is not a KeyUpdate must surface a
        // typed error, not silently ratchet the receiver.
        let (ck, sk) = keys();
        let client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let wire = client
            .sender
            .protector
            .encrypt_record(0, ContentType::Handshake, b"not a key update")
            .unwrap();
        assert!(server.receiver.on_bytes(&wire).is_err());
    }

    #[test]
    fn corruption_after_key_update_still_detected() {
        // The single-record fallback must not mask genuine corruption: tamper
        // with the record after the KeyUpdate and the stream still dies.
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let mut stream = BytesMut::new();
        client.sender.send_into(b"ok", &mut stream).unwrap();
        stream.extend_from_slice(&client.sender.key_update().unwrap());
        client.sender.send_into(b"tampered", &mut stream).unwrap();
        let last = stream.len() - 1;
        stream[last] ^= 0xff;
        assert!(server.receiver.on_bytes(&stream).is_err());
    }

    #[test]
    fn empty_send_produces_one_record() {
        let (ck, sk) = keys();
        let mut client = KtlsSession::new(&ck, CryptoMode::Software).unwrap();
        let mut server = KtlsSession::new(&sk, CryptoMode::Software).unwrap();
        let wire = client.sender.send(b"").unwrap();
        assert!(!wire.is_empty());
        let got = server.receiver.on_bytes(&wire).unwrap();
        assert!(got.is_empty());
    }
}
