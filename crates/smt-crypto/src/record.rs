//! TLS 1.3 record protection as used by SMT, kTLS and TCPLS — the **single
//! shared record datapath** for the whole workspace.
//!
//! A protected record is `AEAD(plaintext ‖ content-type ‖ zero-padding)` with the
//! serialized record header as additional authenticated data and a nonce derived
//! from the per-direction IV and the record sequence number (RFC 8446 §5.2/§5.3).
//!
//! For **TLS/TCP and kTLS** the sequence number is the per-connection counter; for
//! **SMT** it is the composite value from [`crate::seqno`] (message ID ‖ record
//! index), which keeps nonces unique across the per-message sequence spaces
//! (paper §4.4, Fig. 4).  [`RecordProtector`] is agnostic: it just takes a 64-bit
//! number — both the SMT segmenter/reassembler and the kTLS baseline drive the
//! same seal/open implementation, so the evaluation compares *sequence-number
//! disciplines*, never two different AEAD framings.
//!
//! Three API levels exist:
//!
//! * the **batched hot path** — [`RecordProtector::seal_batch_into`] seals a
//!   whole run of records into one output buffer with a single size
//!   computation and reservation, and [`RecordProtector::open_batch`] opens a
//!   contiguous run of wire records (consecutive sequence numbers) into the
//!   shared scratch in one call — [`RecordProtector::open_batch_chunked`]
//!   straight from the packets that carry them, without joining the packets
//!   first. Nonce construction, AAD encoding and scratch
//!   management are amortized across the batch; this is what the segmenter,
//!   the reassembler and the kTLS stream drive per message/segment.
//! * the **single-record zero-copy path** — [`RecordProtector::seal_parts_into`]
//!   appends one finished wire record straight into a caller-supplied
//!   [`BytesMut`] and encrypts in place; [`RecordProtector::open`] decrypts
//!   into the internal reusable scratch buffer and lends the plaintext out by
//!   reference. In steady state neither direction performs a per-record heap
//!   allocation.
//! * the **allocating conveniences** — [`RecordProtector::encrypt_record`] /
//!   [`RecordProtector::decrypt_record`] keep the original `Vec`-returning shape
//!   for handshake flights, tests and examples.
//!
//! Padding (`pad_to`) implements the length-concealment mechanism discussed in
//! §6.1: the true application-data length is hidden by zero padding inside the
//! ciphertext, and the plaintext framing/length metadata then reflects the padded
//! size.

use crate::aead::{AeadKey, Iv, TAG_LEN};
use crate::key_schedule::{Secret, TrafficKeys};
use crate::suite::CipherSuite;
use crate::{CryptoError, CryptoResult};
use bytes::BytesMut;
use smt_wire::{ContentType, TlsRecordHeader, MAX_TLS_RECORD};

/// A decrypted record: its inner content type and plaintext (padding removed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordPlaintext {
    /// The inner content type (application data, handshake, alert).
    pub content_type: ContentType,
    /// The plaintext with padding stripped.
    pub plaintext: Vec<u8>,
}

/// A decrypted record borrowed from the protector's scratch buffer
/// (the zero-copy counterpart of [`RecordPlaintext`]).
#[derive(Debug, PartialEq, Eq)]
pub struct OpenedRecord<'a> {
    /// The inner content type (application data, handshake, alert).
    pub content_type: ContentType,
    /// The plaintext with padding stripped, valid until the next `open` call.
    pub plaintext: &'a [u8],
}

/// Padding policy for one sealed record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Padding {
    /// Use the protector's configured policy (`with_padding`).
    #[default]
    Default,
    /// No padding for this record, regardless of configuration.
    None,
    /// Pad this record's plaintext up to a multiple of the given granularity.
    Granularity(usize),
}

/// One record of a [`RecordProtector::seal_batch_into`] batch.
#[derive(Clone, Copy)]
pub struct SealRequest<'a> {
    /// Record sequence number (composite for SMT, counter for kTLS).
    pub seq: u64,
    /// Inner content type.
    pub content_type: ContentType,
    /// Plaintext parts, concatenated in order into the record body.
    pub parts: &'a [&'a [u8]],
    /// Padding policy for this record.
    pub padding: Padding,
}

impl std::fmt::Debug for SealRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealRequest")
            .field("seq", &self.seq)
            .field("content_type", &self.content_type)
            .field("len", &self.parts.iter().map(|p| p.len()).sum::<usize>())
            .field("padding", &self.padding)
            .finish()
    }
}

/// Index entry for one record opened into the batch scratch.
#[derive(Debug, Clone, Copy)]
struct BatchEntry {
    content_type: ContentType,
    start: usize,
    end: usize,
}

/// A batch of opened records, borrowed from the protector's scratch buffer
/// (the multi-record counterpart of [`OpenedRecord`]). Valid until the next
/// `open`/`open_batch` call.
#[derive(Debug)]
pub struct OpenedBatch<'a> {
    scratch: &'a [u8],
    entries: &'a [BatchEntry],
    /// Total wire bytes consumed from the input.
    pub consumed: usize,
}

impl<'a> OpenedBatch<'a> {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `i`-th opened record.
    pub fn get(&self, i: usize) -> Option<OpenedRecord<'a>> {
        self.entries.get(i).map(|e| OpenedRecord {
            content_type: e.content_type,
            plaintext: &self.scratch[e.start..e.end],
        })
    }

    /// Iterates the opened records in wire order.
    pub fn iter(&self) -> impl Iterator<Item = OpenedRecord<'a>> + '_ {
        self.entries.iter().map(|e| OpenedRecord {
            content_type: e.content_type,
            plaintext: &self.scratch[e.start..e.end],
        })
    }

    /// Total plaintext bytes across the batch.
    pub fn plaintext_len(&self) -> usize {
        self.entries.iter().map(|e| e.end - e.start).sum()
    }
}

/// One direction of record protection: seals or opens records given an explicit
/// 64-bit record sequence number. This is the one shared datapath driven by the
/// SMT composite-seqno engine and the kTLS per-connection baseline alike.
pub struct RecordProtector {
    key: AeadKey,
    iv: Iv,
    /// Optional padded size: every record is padded up to a multiple of this
    /// value (length concealment, §6.1). `None` disables padding.
    pad_to: Option<usize>,
    /// Reusable decrypt scratch; cleared and refilled on every open call.
    scratch: BytesMut,
    /// Reusable per-batch record index into `scratch`.
    batch_entries: Vec<BatchEntry>,
}

impl std::fmt::Debug for RecordProtector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordProtector")
            .field("pad_to", &self.pad_to)
            .finish_non_exhaustive()
    }
}

impl RecordProtector {
    /// Creates a record protector from derived traffic keys.
    pub fn new(keys: TrafficKeys) -> Self {
        Self {
            key: keys.key,
            iv: keys.iv,
            pad_to: None,
            scratch: BytesMut::new(),
            batch_entries: Vec::new(),
        }
    }

    /// Creates a record protector directly from a traffic secret.
    pub fn from_secret(suite: CipherSuite, secret: &Secret) -> CryptoResult<Self> {
        Ok(Self::new(TrafficKeys::derive(suite, secret)?))
    }

    /// Enables length-concealment padding to multiples of `granularity` bytes.
    pub fn with_padding(mut self, granularity: usize) -> Self {
        self.pad_to = if granularity <= 1 {
            None
        } else {
            Some(granularity)
        };
        self
    }

    fn granularity_for(&self, padding: Padding) -> Option<usize> {
        match padding {
            Padding::Default => self.pad_to,
            Padding::None => None,
            Padding::Granularity(g) if g > 1 => Some(g),
            Padding::Granularity(_) => None,
        }
    }

    fn padded_len_with(&self, len: usize, padding: Padding) -> usize {
        match self.granularity_for(padding) {
            Some(g) => len.div_ceil(g).max(1) * g,
            None => len,
        }
    }

    /// Size of the on-the-wire record (header + ciphertext + tag) produced for a
    /// plaintext of `len` bytes under the configured padding policy.
    pub fn wire_record_len(&self, len: usize) -> usize {
        self.wire_record_len_with(len, Padding::Default)
    }

    /// [`Self::wire_record_len`] under an explicit padding policy.
    pub fn wire_record_len_with(&self, len: usize, padding: Padding) -> usize {
        let padded = self.padded_len_with(len, padding);
        TlsRecordHeader::LEN + TlsRecordHeader::ciphertext_len(padded)
    }

    /// Seals one record whose plaintext is the concatenation of `parts`,
    /// appending the full wire encoding (5-byte header, ciphertext, tag) to
    /// `out`. Returns the number of bytes appended.
    ///
    /// This is the zero-allocation hot path: the inner plaintext is assembled
    /// directly in `out` and encrypted in place, so a warmed-up `out` buffer
    /// makes the whole seal allocation-free.
    pub fn seal_parts_into(
        &self,
        seq: u64,
        content_type: ContentType,
        parts: &[&[u8]],
        padding: Padding,
        out: &mut BytesMut,
    ) -> CryptoResult<usize> {
        let plaintext_len: usize = parts.iter().map(|p| p.len()).sum();
        if plaintext_len > MAX_TLS_RECORD {
            return Err(CryptoError::RecordTooLarge {
                size: plaintext_len,
                max: MAX_TLS_RECORD,
            });
        }
        let padded_len = self.padded_len_with(plaintext_len, padding);
        if padded_len > MAX_TLS_RECORD {
            return Err(CryptoError::RecordTooLarge {
                size: padded_len,
                max: MAX_TLS_RECORD,
            });
        }

        // Inner plaintext: content ‖ content-type ‖ zero padding, assembled
        // directly in the output buffer after the 5-byte header.
        let inner_len = padded_len + 1;
        let body_len = inner_len + TAG_LEN;
        let header = TlsRecordHeader::application_data(body_len)?;
        let aad = header.aad();
        let start = out.len();
        out.reserve(TlsRecordHeader::LEN + body_len);
        out.extend_from_slice(&aad);
        for part in parts {
            out.extend_from_slice(part);
        }
        out.put_u8(content_type as u8);
        out.resize(start + TlsRecordHeader::LEN + inner_len, 0);

        let nonce = self.iv.nonce_for(seq);
        let body_start = start + TlsRecordHeader::LEN;
        let tag = self
            .key
            .seal_in_place_detached(&nonce, &aad, &mut out[body_start..]);
        out.extend_from_slice(&tag);
        Ok(TlsRecordHeader::LEN + body_len)
    }

    /// Seals a whole batch of records, appending their wire encodings to `out`
    /// in order. Returns the number of bytes appended.
    ///
    /// The exact total wire size is computed up front so `out` grows (at most)
    /// once for the entire batch, and every record is then assembled and
    /// encrypted in place — the per-record cost is the AEAD work itself.
    pub fn seal_batch_into(
        &self,
        batch: &[SealRequest<'_>],
        out: &mut BytesMut,
    ) -> CryptoResult<usize> {
        let total: usize = batch
            .iter()
            .map(|r| {
                let len: usize = r.parts.iter().map(|p| p.len()).sum();
                self.wire_record_len_with(len, r.padding)
            })
            .sum();
        out.reserve(total);
        let start = out.len();
        for r in batch {
            self.seal_parts_into(r.seq, r.content_type, r.parts, r.padding, out)?;
        }
        debug_assert_eq!(out.len() - start, total);
        Ok(out.len() - start)
    }

    /// Seals one record, appending its wire encoding to `out`
    /// (single-slice convenience over [`Self::seal_parts_into`]).
    pub fn seal_into(
        &self,
        seq: u64,
        content_type: ContentType,
        plaintext: &[u8],
        out: &mut BytesMut,
    ) -> CryptoResult<usize> {
        self.seal_parts_into(seq, content_type, &[plaintext], Padding::Default, out)
    }
}

/// Forward-only reader over wire bytes held as a run of chunks.
struct ChunkReader<'c, I> {
    /// Unread remainder of the chunk being read.
    head: &'c [u8],
    rest: I,
    /// Bytes read so far.
    at: usize,
}

impl<'c, I: Iterator<Item = &'c [u8]>> ChunkReader<'c, I> {
    /// Hands the next `n` bytes to `sink`, chunk piece by chunk piece.
    /// Returns `false` when the chunks ran out first (what there was has
    /// been handed over).
    fn read(&mut self, mut n: usize, mut sink: impl FnMut(&[u8])) -> bool {
        while n > 0 {
            if self.head.is_empty() {
                match self.rest.next() {
                    Some(chunk) => self.head = chunk,
                    None => return false,
                }
                continue;
            }
            let (piece, later) = self.head.split_at(n.min(self.head.len()));
            sink(piece);
            self.head = later;
            self.at += piece.len();
            n -= piece.len();
        }
        true
    }

    /// Fills `buf` from the next bytes; returns how many there were.
    fn read_into(&mut self, buf: &mut [u8]) -> usize {
        let mut got = 0;
        self.read(buf.len(), |piece| {
            buf[got..got + piece.len()].copy_from_slice(piece);
            got += piece.len();
        });
        got
    }
}

impl RecordProtector {
    /// Opens one record from its full wire encoding (header + body), decrypting
    /// into the internal scratch buffer. Returns the borrowed plaintext and the
    /// number of wire bytes consumed. No per-record heap allocation occurs once
    /// the scratch buffer has warmed up.
    pub fn open(&mut self, seq: u64, wire: &[u8]) -> CryptoResult<(OpenedRecord<'_>, usize)> {
        let batch = self.open_batch(seq, 1, wire)?;
        let consumed = batch.consumed;
        let record = batch.get(0).expect("a batch of one holds one record");
        Ok((record, consumed))
    }

    /// Opens a contiguous run of `count` records from `wire`, under consecutive
    /// sequence numbers `first_seq, first_seq + 1, ..` — the layout both the
    /// SMT composite space (consecutive record indices within a message) and
    /// the kTLS counter produce for adjacent records.
    ///
    /// All plaintexts land in the shared scratch buffer in wire order and are
    /// lent out through the returned [`OpenedBatch`]; nonce derivation, AAD
    /// decoding and scratch management are amortized over the run. On any
    /// failure (truncation, authentication) the whole batch errs and nothing is
    /// lent out.
    pub fn open_batch(
        &mut self,
        first_seq: u64,
        count: usize,
        wire: &[u8],
    ) -> CryptoResult<OpenedBatch<'_>> {
        self.open_batch_chunked(first_seq, count, std::iter::once(wire))
    }

    /// [`Self::open_batch`] over wire bytes that arrive as a run of chunks —
    /// the packets of one TSO segment, in order.  Records may straddle chunk
    /// boundaries anywhere (headers and tags included); each ciphertext byte
    /// is gathered straight into the scratch it is decrypted in, so the
    /// caller never joins the chunks first.
    pub fn open_batch_chunked<'c>(
        &mut self,
        first_seq: u64,
        count: usize,
        chunks: impl IntoIterator<Item = &'c [u8]>,
    ) -> CryptoResult<OpenedBatch<'_>> {
        self.scratch.clear();
        self.batch_entries.clear();
        self.batch_entries.reserve(count);
        let mut wire = ChunkReader {
            head: &[],
            rest: chunks.into_iter(),
            at: 0,
        };
        for i in 0..count {
            let seq = first_seq.wrapping_add(i as u64);
            let record_at = wire.at;
            let mut hdr = [0u8; TlsRecordHeader::LEN];
            let got = wire.read_into(&mut hdr);
            let (header, hdr_len) = TlsRecordHeader::decode(&hdr[..got])?;
            let body_len = header.length as usize;
            if body_len < TAG_LEN + 1 {
                return Err(CryptoError::AuthenticationFailed);
            }
            let ct_start = self.scratch.len();
            let mut tag = [0u8; TAG_LEN];
            let whole = wire.read(body_len - TAG_LEN, |b| self.scratch.extend_from_slice(b))
                && wire.read_into(&mut tag) == TAG_LEN;
            if !whole {
                // The reader ran dry: everything there was has been read.
                return Err(CryptoError::Wire(smt_wire::WireError::Truncated {
                    needed: record_at + hdr_len + body_len,
                    available: wire.at,
                }));
            }
            let aad = header.aad();
            let nonce = self.iv.nonce_for(seq);
            self.key
                .open_in_place_detached(&nonce, &aad, &mut self.scratch[ct_start..], &tag)?;

            // Strip zero padding, then the inner content type byte
            // (RFC 8446 §5.4). Padding remnants stay in the scratch between
            // records; the index entries carry the trimmed ranges.
            let mut end = self.scratch.len();
            while end > ct_start && self.scratch[end - 1] == 0 {
                end -= 1;
            }
            if end == ct_start {
                return Err(CryptoError::AuthenticationFailed);
            }
            let content_type =
                ContentType::from_u8(self.scratch[end - 1]).map_err(CryptoError::Wire)?;
            self.batch_entries.push(BatchEntry {
                content_type,
                start: ct_start,
                end: end - 1,
            });
        }
        Ok(OpenedBatch {
            scratch: &self.scratch,
            entries: &self.batch_entries,
            consumed: wire.at,
        })
    }

    /// Encrypts one record, returning the full wire encoding as a fresh `Vec`
    /// (allocating convenience over [`Self::seal_parts_into`]).
    pub fn encrypt_record(
        &self,
        seq: u64,
        content_type: ContentType,
        plaintext: &[u8],
    ) -> CryptoResult<Vec<u8>> {
        let mut out = BytesMut::with_capacity(self.wire_record_len(plaintext.len()));
        self.seal_into(seq, content_type, plaintext, &mut out)?;
        Ok(out.into_vec())
    }

    /// Decrypts one record from its full wire encoding, returning an owned
    /// plaintext plus the number of bytes consumed (allocating convenience over
    /// [`Self::open`]).
    pub fn decrypt_record(
        &mut self,
        seq: u64,
        wire: &[u8],
    ) -> CryptoResult<(RecordPlaintext, usize)> {
        let (opened, consumed) = self.open(seq, wire)?;
        Ok((
            RecordPlaintext {
                content_type: opened.content_type,
                plaintext: opened.plaintext.to_vec(),
            },
            consumed,
        ))
    }
}

/// A matched pair of record protectors for a bidirectional session
/// (convenience for tests and the simulator).
pub struct RecordProtectorPair {
    /// Protector sealing data we send.
    pub sender: RecordProtector,
    /// Protector opening data we receive.
    pub receiver: RecordProtector,
}

impl RecordProtectorPair {
    /// Derives a symmetric pair from two traffic secrets.
    pub fn derive(
        suite: CipherSuite,
        send_secret: &Secret,
        recv_secret: &Secret,
    ) -> CryptoResult<Self> {
        Ok(Self {
            sender: RecordProtector::from_secret(suite, send_secret)?,
            receiver: RecordProtector::from_secret(suite, recv_secret)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key_schedule::HASH_LEN;

    fn cipher_pair() -> (RecordProtector, RecordProtector) {
        let secret = Secret([0x33; HASH_LEN]);
        let a = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
        let b = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
        (a, b)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (tx, mut rx) = cipher_pair();
        let wire = tx
            .encrypt_record(5, ContentType::ApplicationData, b"hello smt")
            .unwrap();
        let (pt, consumed) = rx.decrypt_record(5, &wire).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(pt.plaintext, b"hello smt");
        assert_eq!(pt.content_type, ContentType::ApplicationData);
    }

    #[test]
    fn zero_copy_seal_open_roundtrip() {
        let (tx, mut rx) = cipher_pair();
        let mut out = BytesMut::with_capacity(4096);
        let n1 = tx
            .seal_parts_into(
                1,
                ContentType::ApplicationData,
                &[b"hello ", b"zero-copy"],
                Padding::Default,
                &mut out,
            )
            .unwrap();
        let n2 = tx
            .seal_into(2, ContentType::ApplicationData, b"second", &mut out)
            .unwrap();
        assert_eq!(out.len(), n1 + n2);

        let (first, used1) = rx.open(1, &out).unwrap();
        assert_eq!(first.plaintext, b"hello zero-copy");
        assert_eq!(used1, n1);
        let (second, used2) = rx.open(2, &out[n1..]).unwrap();
        assert_eq!(second.plaintext, b"second");
        assert_eq!(used2, n2);
    }

    #[test]
    fn zero_copy_matches_allocating_path() {
        let (tx, mut rx) = cipher_pair();
        let mut out = BytesMut::new();
        tx.seal_into(9, ContentType::ApplicationData, b"same bytes", &mut out)
            .unwrap();
        let wire = tx
            .encrypt_record(9, ContentType::ApplicationData, b"same bytes")
            .unwrap();
        assert_eq!(out.as_ref(), wire.as_slice());
        assert_eq!(
            rx.decrypt_record(9, &wire).unwrap().0.plaintext,
            b"same bytes"
        );
    }

    #[test]
    fn steady_state_seal_reuses_buffer_capacity() {
        let (tx, _) = cipher_pair();
        let mut out = BytesMut::with_capacity(8192);
        tx.seal_into(0, ContentType::ApplicationData, &[7u8; 1024], &mut out)
            .unwrap();
        let cap = out.capacity();
        for seq in 1..50u64 {
            out.clear();
            tx.seal_into(seq, ContentType::ApplicationData, &[7u8; 1024], &mut out)
                .unwrap();
        }
        // The warmed buffer is never regrown by the hot path.
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn wrong_sequence_number_rejected() {
        // This is the property the NIC autonomous offload relies on: a record
        // encrypted under seq N only decrypts under seq N (paper Fig. 2).
        let (tx, mut rx) = cipher_pair();
        let wire = tx
            .encrypt_record(7, ContentType::ApplicationData, b"data")
            .unwrap();
        assert!(rx.decrypt_record(8, &wire).is_err());
        assert!(rx.decrypt_record(7, &wire).is_ok());
    }

    #[test]
    fn tampering_rejected() {
        let (tx, mut rx) = cipher_pair();
        let mut wire = tx
            .encrypt_record(1, ContentType::ApplicationData, b"data")
            .unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x80;
        assert_eq!(
            rx.decrypt_record(1, &wire).unwrap_err(),
            CryptoError::AuthenticationFailed
        );
    }

    #[test]
    fn header_is_authenticated() {
        let (tx, mut rx) = cipher_pair();
        let mut wire = tx
            .encrypt_record(1, ContentType::ApplicationData, b"data")
            .unwrap();
        // Forge the declared length (part of the AAD): must fail authentication
        // or truncation, never return plaintext.
        wire[4] = wire[4].wrapping_add(1);
        assert!(rx.decrypt_record(1, &wire).is_err());
    }

    #[test]
    fn handshake_content_type_preserved() {
        let (tx, mut rx) = cipher_pair();
        let wire = tx
            .encrypt_record(0, ContentType::Handshake, b"finished")
            .unwrap();
        let (pt, _) = rx.decrypt_record(0, &wire).unwrap();
        assert_eq!(pt.content_type, ContentType::Handshake);
    }

    #[test]
    fn padding_conceals_length() {
        let secret = Secret([0x44; HASH_LEN]);
        let tx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret)
            .unwrap()
            .with_padding(256);
        let mut rx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();

        let w1 = tx
            .encrypt_record(1, ContentType::ApplicationData, b"a")
            .unwrap();
        let w2 = tx
            .encrypt_record(2, ContentType::ApplicationData, &[b'b'; 200])
            .unwrap();
        // Both pad to the same wire size...
        assert_eq!(w1.len(), w2.len());
        assert_eq!(tx.wire_record_len(1), w1.len());
        // ...but decrypt to the true plaintexts.
        assert_eq!(rx.decrypt_record(1, &w1).unwrap().0.plaintext, b"a");
        assert_eq!(
            rx.decrypt_record(2, &w2).unwrap().0.plaintext,
            vec![b'b'; 200]
        );
    }

    #[test]
    fn per_record_padding_override() {
        let (tx, mut rx) = cipher_pair();
        let mut out = BytesMut::new();
        tx.seal_parts_into(
            1,
            ContentType::ApplicationData,
            &[b"x"],
            Padding::Granularity(128),
            &mut out,
        )
        .unwrap();
        assert_eq!(
            out.len(),
            tx.wire_record_len_with(1, Padding::Granularity(128))
        );
        assert_eq!(rx.open(1, &out).unwrap().0.plaintext, b"x");
    }

    #[test]
    fn zero_length_plaintext_roundtrips() {
        let (tx, mut rx) = cipher_pair();
        let wire = tx
            .encrypt_record(9, ContentType::ApplicationData, b"")
            .unwrap();
        let (pt, _) = rx.decrypt_record(9, &wire).unwrap();
        assert!(pt.plaintext.is_empty());
    }

    #[test]
    fn oversize_record_rejected() {
        let (tx, _) = cipher_pair();
        let big = vec![0u8; MAX_TLS_RECORD + 1];
        assert!(matches!(
            tx.encrypt_record(0, ContentType::ApplicationData, &big),
            Err(CryptoError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn truncated_wire_rejected() {
        let (tx, mut rx) = cipher_pair();
        let wire = tx
            .encrypt_record(0, ContentType::ApplicationData, b"data")
            .unwrap();
        assert!(rx.decrypt_record(0, &wire[..wire.len() - 4]).is_err());
        assert!(rx.decrypt_record(0, &wire[..3]).is_err());
    }

    #[test]
    fn composite_seqnos_give_unique_nonces_across_messages() {
        use crate::seqno::SeqnoLayout;
        let (tx, mut rx) = cipher_pair();
        let layout = SeqnoLayout::default();
        // Record 0 of message 1 and record 0 of message 2 share a record index
        // but must not share a nonce: decrypting one under the other's seq fails.
        let s1 = layout.compose(1, 0).unwrap().value();
        let s2 = layout.compose(2, 0).unwrap().value();
        let wire = tx
            .encrypt_record(s1, ContentType::ApplicationData, b"msg1")
            .unwrap();
        assert!(rx.decrypt_record(s2, &wire).is_err());
        assert_eq!(rx.decrypt_record(s1, &wire).unwrap().0.plaintext, b"msg1");
    }

    #[test]
    fn seal_batch_matches_sequential_seals() {
        let (tx, _) = cipher_pair();
        let payloads: [&[u8]; 3] = [b"first", b"second record", b""];
        let mut sequential = BytesMut::new();
        for (i, p) in payloads.iter().enumerate() {
            tx.seal_parts_into(
                i as u64,
                ContentType::ApplicationData,
                &[p],
                Padding::Default,
                &mut sequential,
            )
            .unwrap();
        }

        let parts: Vec<[&[u8]; 1]> = payloads.iter().map(|p| [*p]).collect();
        let batch: Vec<SealRequest<'_>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| SealRequest {
                seq: i as u64,
                content_type: ContentType::ApplicationData,
                parts: &p[..],
                padding: Padding::Default,
            })
            .collect();
        let mut batched = BytesMut::new();
        let n = tx.seal_batch_into(&batch, &mut batched).unwrap();
        assert_eq!(n, batched.len());
        assert_eq!(batched.as_ref(), sequential.as_ref());
    }

    #[test]
    fn open_batch_roundtrips_contiguous_run() {
        let (tx, mut rx) = cipher_pair();
        let payloads: [&[u8]; 4] = [b"alpha", b"bravo charlie", b"", b"delta"];
        let mut wire = BytesMut::new();
        for (i, p) in payloads.iter().enumerate() {
            tx.seal_into(7 + i as u64, ContentType::ApplicationData, p, &mut wire)
                .unwrap();
        }
        let batch = rx.open_batch(7, payloads.len(), &wire).unwrap();
        assert_eq!(batch.len(), payloads.len());
        assert!(!batch.is_empty());
        assert_eq!(batch.consumed, wire.len());
        assert_eq!(
            batch.plaintext_len(),
            payloads.iter().map(|p| p.len()).sum::<usize>()
        );
        for (opened, expect) in batch.iter().zip(payloads.iter()) {
            assert_eq!(opened.content_type, ContentType::ApplicationData);
            assert_eq!(opened.plaintext, *expect);
        }
        assert_eq!(batch.get(1).unwrap().plaintext, b"bravo charlie");
        assert!(batch.get(4).is_none());
    }

    #[test]
    fn open_batch_rejects_tamper_and_truncation_atomically() {
        let (tx, mut rx) = cipher_pair();
        let mut wire = BytesMut::new();
        tx.seal_into(0, ContentType::ApplicationData, b"one", &mut wire)
            .unwrap();
        let first_len = wire.len();
        tx.seal_into(1, ContentType::ApplicationData, b"two", &mut wire)
            .unwrap();

        // Tamper with the second record: the whole batch fails.
        let mut tampered = wire.to_vec();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        assert!(rx.open_batch(0, 2, &tampered).is_err());

        // Truncated second record: truncation error, not plaintext.
        assert!(rx.open_batch(0, 2, &wire[..wire.len() - 3]).is_err());

        // A shorter count over the same bytes still succeeds.
        let batch = rx.open_batch(0, 1, &wire).unwrap();
        assert_eq!(batch.consumed, first_len);
        assert_eq!(batch.get(0).unwrap().plaintext, b"one");
    }

    #[test]
    fn chunked_open_equals_contiguous_open_at_every_cut() {
        let (tx, mut rx) = cipher_pair();
        let payloads: [&[u8]; 4] = [b"alpha", &[0x11; 300], b"", b"delta"];
        let mut wire = BytesMut::new();
        for (i, p) in payloads.iter().enumerate() {
            tx.seal_into(3 + i as u64, ContentType::ApplicationData, p, &mut wire)
                .unwrap();
        }
        // Fixed-size packets from one byte up: every header, body and tag
        // gets cut at every position; empty chunks in the run are harmless.
        for size in (1..=40).chain([wire.len() - 1, wire.len()]) {
            let chunks = wire.chunks(size).flat_map(|c| [c, &[][..]]);
            let batch = rx.open_batch_chunked(3, payloads.len(), chunks).unwrap();
            assert_eq!(batch.consumed, wire.len(), "packet size {size}");
            for (opened, expect) in batch.iter().zip(payloads.iter()) {
                assert_eq!(opened.plaintext, *expect, "packet size {size}");
            }
        }
        // A run that ends early is truncated wherever the cut falls, and
        // bytes past the last record are left alone.
        for cut in 0..wire.len() {
            let err = rx
                .open_batch_chunked(3, payloads.len(), wire[..cut].chunks(7))
                .unwrap_err();
            assert!(matches!(err, CryptoError::Wire(_)), "cut at {cut}: {err:?}");
        }
        let batch = rx.open_batch_chunked(3, 1, wire.chunks(9)).unwrap();
        assert_eq!(batch.get(0).unwrap().plaintext, b"alpha");
        assert!(batch.consumed < wire.len());
    }

    #[test]
    fn open_batch_with_padded_records() {
        let secret = Secret([0x55; HASH_LEN]);
        let tx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret)
            .unwrap()
            .with_padding(128);
        let mut rx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
        let mut wire = BytesMut::new();
        tx.seal_into(0, ContentType::ApplicationData, b"short", &mut wire)
            .unwrap();
        tx.seal_into(1, ContentType::Handshake, &[9u8; 100], &mut wire)
            .unwrap();
        let batch = rx.open_batch(0, 2, &wire).unwrap();
        assert_eq!(batch.get(0).unwrap().plaintext, b"short");
        assert_eq!(
            batch.get(0).unwrap().content_type,
            ContentType::ApplicationData
        );
        assert_eq!(batch.get(1).unwrap().plaintext, &[9u8; 100]);
        assert_eq!(batch.get(1).unwrap().content_type, ContentType::Handshake);
    }

    #[test]
    fn cipher_pair_helper() {
        let c = Secret([1u8; HASH_LEN]);
        let s = Secret([2u8; HASH_LEN]);
        let client = RecordProtectorPair::derive(CipherSuite::Aes128GcmSha256, &c, &s).unwrap();
        let mut server = RecordProtectorPair::derive(CipherSuite::Aes128GcmSha256, &s, &c).unwrap();
        let wire = client
            .sender
            .encrypt_record(0, ContentType::ApplicationData, b"ping")
            .unwrap();
        let (pt, _) = server.receiver.decrypt_record(0, &wire).unwrap();
        assert_eq!(pt.plaintext, b"ping");
    }
}
