//! Property-based tests on the core data structures and invariants.

use bytes::BytesMut;
use proptest::prelude::*;
use smt::core::segment::{PathInfo, SmtSegmenter};
use smt::core::{reassembly::SmtReceiver, SmtConfig};
use smt::crypto::key_schedule::Secret;
use smt::crypto::record::{Padding, RecordProtector, SealRequest};
use smt::crypto::{CipherSuite, SeqnoLayout};
use smt::wire::{ContentType, MessageHeader, Packet, SmtOverlayHeader, TlsRecordHeader};

fn cipher(byte: u8) -> RecordProtector {
    RecordProtector::from_secret(
        CipherSuite::Aes128GcmSha256,
        &Secret::from_slice(&[byte; 32]).unwrap(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (message id, record index) pair composes and decomposes losslessly,
    /// and distinct pairs never collide (non-replayability foundation, §4.4.1).
    #[test]
    fn composite_seqno_roundtrip(id in 0u64..(1 << 48), idx in 0u64..(1 << 16)) {
        let layout = SeqnoLayout::default();
        let s = layout.compose(id, idx).unwrap();
        prop_assert_eq!(s.message_id(), id);
        prop_assert_eq!(s.record_index(), idx);
        let (id2, idx2) = layout.decompose(s.value());
        prop_assert_eq!((id2, idx2), (id, idx));
    }

    /// Record protection round-trips arbitrary payloads and rejects any
    /// single-bit corruption of the ciphertext body.
    #[test]
    fn record_roundtrip_and_tamper(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                   seq in any::<u64>(),
                                   flip in 0usize..4096) {
        let tx = cipher(1);
        let mut rx = cipher(1);
        let wire = tx.encrypt_record(seq, ContentType::ApplicationData, &data).unwrap();
        let (plain, used) = rx.decrypt_record(seq, &wire).unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(plain.plaintext, data);

        let mut tampered = wire.clone();
        let idx = TlsRecordHeader::LEN + (flip % (tampered.len() - TlsRecordHeader::LEN));
        tampered[idx] ^= 0x01;
        prop_assert!(rx.decrypt_record(seq, &tampered).is_err());
    }

    /// Segmentation followed by reassembly is the identity for any payload and
    /// any packet delivery order (reversal as a worst case).
    #[test]
    fn segment_reassemble_identity(data in proptest::collection::vec(any::<u8>(), 0..100_000),
                                   reverse in any::<bool>(),
                                   queue in 0usize..4) {
        let config = SmtConfig::software();
        let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
        let tx = cipher(9);
        let out = segmenter.segment_message(
            PathInfo::loopback(1, 2), 3, &data, queue, Some(&tx), None, 1 << 20,
        ).unwrap();
        let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), Some(cipher(9)));
        let mut packets: Vec<_> = out.segments.iter()
            .flat_map(|s| s.packetize(1500).unwrap())
            .collect();
        if reverse {
            packets.reverse();
        }
        let mut delivered = None;
        for p in &packets {
            if let Some(m) = rx.on_packet(p).unwrap() {
                delivered = Some(m);
            }
        }
        let m = delivered.expect("message must complete");
        prop_assert_eq!(m.data, data);
    }

    /// Wire headers decode exactly what they encoded.
    #[test]
    fn header_roundtrips(src in any::<u16>(), dst in any::<u16>(),
                         id in any::<u64>(), len in 0u32..(1 << 20),
                         off in 0u32..(1 << 20)) {
        let off = off.min(len);
        let mh = MessageHeader { src_port: src, dst_port: dst, message_id: id,
                                 message_length: len, message_offset: off };
        let mut buf = [0u8; 64];
        let n = mh.encode(&mut buf).unwrap();
        let (back, used) = MessageHeader::decode(&buf[..n]).unwrap();
        prop_assert_eq!(back, mh);
        prop_assert_eq!(used, n);

        let mut overlay = SmtOverlayHeader::data(src, dst, id, len);
        overlay.options.tso_offset = off;
        let n = overlay.encode(&mut buf).unwrap();
        let (back, _) = SmtOverlayHeader::decode(&buf[..n]).unwrap();
        prop_assert_eq!(back, overlay);
    }

    /// The batched seal produces byte-identical wire output to sealing the
    /// same records one at a time, for any batch size, record lengths and
    /// padding policy — one AEAD framing, whichever API level drives it.
    #[test]
    fn seal_batch_equals_sequential_seals(
        lens in proptest::collection::vec(0usize..2048, 1..17),
        first_seq in 0u64..(1 << 40),
        pad in 0usize..3,
    ) {
        let padding = match pad {
            0 => Padding::None,
            1 => Padding::Granularity(256),
            _ => Padding::Default,
        };
        let tx = cipher(4);
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| (0..l).map(|j| (i * 31 + j) as u8).collect())
            .collect();

        let mut sequential = BytesMut::new();
        for (i, p) in payloads.iter().enumerate() {
            tx.seal_parts_into(
                first_seq + i as u64,
                ContentType::ApplicationData,
                &[p],
                padding,
                &mut sequential,
            )
            .unwrap();
        }

        let parts: Vec<[&[u8]; 1]> = payloads.iter().map(|p| [p.as_slice()]).collect();
        let batch: Vec<SealRequest<'_>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| SealRequest {
                seq: first_seq + i as u64,
                content_type: ContentType::ApplicationData,
                parts: &p[..],
                padding,
            })
            .collect();
        let mut batched = BytesMut::new();
        let n = tx.seal_batch_into(&batch, &mut batched).unwrap();
        prop_assert_eq!(n, batched.len());
        prop_assert_eq!(batched.as_ref(), sequential.as_ref());
    }

    /// Opening a contiguous run in one batched call recovers exactly what
    /// per-record opens recover: same plaintexts, same content types, same
    /// consumed byte count.
    #[test]
    fn open_batch_equals_sequential_opens(
        lens in proptest::collection::vec(0usize..1024, 1..17),
        first_seq in 0u64..(1 << 40),
    ) {
        let tx = cipher(6);
        let mut rx_single = cipher(6);
        let mut rx_batch = cipher(6);
        let payloads: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| (0..l).map(|j| (i * 7 + j * 3) as u8).collect())
            .collect();
        let mut wire = BytesMut::new();
        for (i, p) in payloads.iter().enumerate() {
            tx.seal_into(first_seq + i as u64, ContentType::ApplicationData, p, &mut wire)
                .unwrap();
        }

        let mut at = 0usize;
        let mut singles = Vec::new();
        for i in 0..payloads.len() {
            let (opened, used) = rx_single.open(first_seq + i as u64, &wire[at..]).unwrap();
            singles.push((opened.content_type, opened.plaintext.to_vec()));
            at += used;
        }

        let batch = rx_batch.open_batch(first_seq, payloads.len(), &wire).unwrap();
        prop_assert_eq!(batch.consumed, at);
        prop_assert_eq!(batch.len(), singles.len());
        for (opened, (ct, plain)) in batch.iter().zip(singles.iter()) {
            prop_assert_eq!(opened.content_type, *ct);
            prop_assert_eq!(opened.plaintext, plain.as_slice());
        }
    }

    /// The replay guard accepts each message id exactly once regardless of
    /// completion order.
    #[test]
    fn replay_guard_uniqueness(mut ids in proptest::collection::vec(0u64..500, 1..200)) {
        let mut guard = smt::core::ReplayGuard::new();
        let mut accepted = std::collections::HashSet::new();
        for id in ids.drain(..) {
            let fresh = guard.mark_completed(id);
            prop_assert_eq!(fresh, accepted.insert(id));
            prop_assert!(guard.is_replayed(id));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Composite sequence numbers never produce a duplicate AEAD nonce within a
    /// session: for any set of distinct (message ID, record index) pairs, the
    /// nonces derived from the session IV are pairwise distinct, and equal
    /// nonces imply equal pairs (paper §4.4.1, Fig. 4 — the property that makes
    /// the per-message record sequence spaces safe under one traffic key).
    #[test]
    fn composite_seqnos_never_repeat_a_nonce(
        iv_bytes in proptest::collection::vec(any::<u8>(), 12..13),
        pairs in proptest::collection::vec(any::<u64>(), 2..64),
    ) {
        use smt::crypto::aead::{Iv, NONCE_LEN};
        let mut iv = [0u8; NONCE_LEN];
        iv.copy_from_slice(&iv_bytes);
        let iv = Iv(iv);
        let layout = SeqnoLayout::default();

        // Map arbitrary u64s into in-range (id, idx) pairs; duplicates in the
        // input are allowed — the claim is injectivity, not mere distinctness.
        let pairs: Vec<(u64, u64)> = pairs
            .iter()
            .map(|v| (v >> 16, v & 0xffff))
            .collect();
        let mut seen: std::collections::HashMap<[u8; NONCE_LEN], (u64, u64)> =
            std::collections::HashMap::new();
        for &(id, idx) in &pairs {
            let seq = layout.compose(id, idx).unwrap();
            let nonce = iv.nonce_for(seq.value());
            if let Some(prev) = seen.insert(nonce, (id, idx)) {
                prop_assert_eq!(prev, (id, idx), "nonce collision across distinct pairs");
            }
        }
    }

    /// The shared RecordProtector datapath round-trips under BOTH sequence
    /// disciplines — SMT's composite (message ID ‖ record index) and kTLS's
    /// per-connection counter — and produces byte-identical wire records for
    /// identical (seq, plaintext): there is exactly one AEAD framing.
    #[test]
    fn record_protector_shared_by_smt_and_ktls_paths(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        message_id in 0u64..(1 << 48),
        record_index in 0u64..(1 << 16),
    ) {
        let layout = SeqnoLayout::default();
        let composite = layout.compose(message_id, record_index).unwrap().value();

        // SMT path: composite sequence number.
        let smt_tx = cipher(5);
        let mut smt_rx = cipher(5);
        let smt_wire = smt_tx
            .encrypt_record(composite, ContentType::ApplicationData, &data)
            .unwrap();
        let (plain, used) = smt_rx.decrypt_record(composite, &smt_wire).unwrap();
        prop_assert_eq!(used, smt_wire.len());
        prop_assert_eq!(&plain.plaintext, &data);

        // kTLS path: the same protector type under a per-connection counter.
        let ktls_tx = cipher(5);
        let mut ktls_rx = cipher(5);
        let ktls_seq = record_index; // a plain counter value
        let ktls_wire = ktls_tx
            .encrypt_record(ktls_seq, ContentType::ApplicationData, &data)
            .unwrap();
        prop_assert_eq!(
            &ktls_rx.decrypt_record(ktls_seq, &ktls_wire).unwrap().0.plaintext,
            &data
        );

        // One framing: sealing under the same raw seq yields identical bytes,
        // whichever discipline produced that seq.
        let again = ktls_tx
            .encrypt_record(composite, ContentType::ApplicationData, &data)
            .unwrap();
        prop_assert_eq!(&again, &smt_wire);
        // And cross-opening works: a kTLS-opened record sealed by the SMT path.
        prop_assert_eq!(
            &ktls_rx.decrypt_record(composite, &smt_wire).unwrap().0.plaintext,
            &data
        );
    }
}

/// The three receive configurations the reassembly properties run under:
/// SMT-sw, plaintext Homa, and one packet per segment.
fn receiver_config(mode: usize) -> SmtConfig {
    match mode {
        0 => SmtConfig::software(),
        1 => SmtConfig::plaintext(),
        _ => SmtConfig::software().without_tso(),
    }
}

/// Every packet of message `id` carrying `data`, in send order.
fn message_packets(config: SmtConfig, id: u64, data: &[u8]) -> Vec<Packet> {
    let tx = cipher(9);
    let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
    let out = segmenter
        .segment_message(
            PathInfo::loopback(1, 2),
            id,
            data,
            0,
            config.crypto_mode.is_encrypted().then_some(&tx),
            None,
            1 << 20,
        )
        .unwrap();
    out.segments
        .iter()
        .flat_map(|s| s.packetize(1500).unwrap())
        .collect()
}

fn receiver(config: SmtConfig) -> SmtReceiver {
    let rx = config.crypto_mode.is_encrypted().then(|| cipher(9));
    SmtReceiver::new(config, SeqnoLayout::default(), rx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever order the packets of two interleaved messages arrive in —
    /// permuted, duplicated, some copies carrying the retransmission mark —
    /// the receiver delivers exactly the bytes sent, counts every distinct
    /// packet as accepted and every repeat as a duplicate, and is left
    /// holding nothing.
    #[test]
    fn receiver_is_order_and_duplicate_independent(
        mode in 0usize..3,
        // From one packet up to three TSO segments each.
        len_a in 0usize..190_000,
        len_b in 0usize..190_000,
        shrink_a in 0u32..3,
        shrink_b in 0u32..3,
        repeats in 0usize..40,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let config = receiver_config(mode);
        let messages: Vec<Vec<u8>> = [(len_a, shrink_a), (len_b, shrink_b)]
            .iter()
            .map(|&(len, shrink)| (0..len >> (5 * shrink)).map(|_| rng.gen::<u8>()).collect())
            .collect();

        // One packet of each message is held back to the very end, so every
        // repeat meets a message still in progress (a repeat of a delivered
        // message is a replay, counted elsewhere).
        let mut feed: Vec<Packet> = Vec::new();
        let mut last: Vec<Packet> = Vec::new();
        for (id, data) in messages.iter().enumerate() {
            let mut packets = message_packets(config, id as u64 + 1, data);
            last.push(packets.swap_remove(rng.gen_range(0..packets.len())));
            feed.append(&mut packets);
        }
        let distinct = feed.len() + last.len();
        let repeated = if feed.is_empty() { 0 } else { repeats };
        for _ in 0..repeated {
            feed.push(feed[rng.gen_range(0..feed.len())].clone());
        }
        for i in (1..feed.len()).rev() {
            feed.swap(i, rng.gen_range(0..i + 1));
        }
        feed.append(&mut last);
        for packet in &mut feed {
            if rng.gen_range(0..4u32) == 0 {
                SmtSegmenter::mark_retransmission(packet);
            }
        }

        let mut rx = receiver(config);
        let mut delivered = Vec::new();
        for packet in &feed {
            delivered.extend(rx.on_packet(packet).unwrap());
        }
        delivered.sort_by_key(|m| m.message_id);
        prop_assert_eq!(delivered.len(), 2);
        for (m, data) in delivered.iter().zip(&messages) {
            prop_assert_eq!(&m.data, data);
        }
        prop_assert_eq!(rx.tracked_bytes(), 0);
        prop_assert_eq!(rx.in_progress(), 0);
        prop_assert_eq!(rx.stats.packets_accepted, distinct as u64);
        prop_assert_eq!(rx.stats.packets_duplicate, repeated as u64);
        prop_assert_eq!(rx.stats.packets_replayed, 0);
    }
}

/// In-order delivery holds exactly as many bytes at its peak as it always
/// has: the accounting (packet views plus placed application bytes) is what
/// the state caps and the eviction order are defined on.
#[test]
fn peak_tracked_bytes_of_in_order_delivery_is_pinned() {
    // (mode, [peak for 64 B, 8 KiB, 256 KiB]) as measured before the
    // receiver kept views and cursors instead of copies.
    const PINNED: [[u64; 3]; 3] = [
        [0, 7_120, 261_056],
        [0, 14_240, 524_224],
        [0, 6_990, 261_426],
    ];
    for (mode, pinned) in PINNED.iter().enumerate() {
        for (len, want) in [64usize, 8 << 10, 256 << 10].into_iter().zip(pinned) {
            let config = receiver_config(mode);
            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut rx = receiver(config);
            let mut delivered = None;
            for packet in message_packets(config, 1, &data) {
                delivered = delivered.or(rx.on_packet(&packet).unwrap());
            }
            assert_eq!(delivered.expect("delivered").data, data);
            assert_eq!(
                rx.stats.peak_tracked_bytes, *want,
                "mode {mode}, {len} B message"
            );
        }
    }
}
