//! Criterion micro-benchmarks of the record layer: software AES-128-GCM record
//! protection with composite sequence numbers (the SMT data-path hot loop).
//!
//! Each size is measured through the API levels of the shared datapath:
//! the allocating `encrypt_record`/`decrypt_record` conveniences, the
//! zero-copy `seal_into`/`open` hot path, and the batched
//! `seal_batch_into`/`open_batch` entry points that the segmenter, reassembler
//! and kTLS baseline drive per message segmentation in steady state.
use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smt_crypto::key_schedule::Secret;
use smt_crypto::record::{Padding, RecordProtector, SealRequest};
use smt_crypto::{CipherSuite, SeqnoLayout};
use smt_wire::ContentType;

/// Records per batch in the batched benchmarks (a 16-record run is what a
/// 64 KB TSO segmentation of 4 KB records produces).
const BATCH: usize = 16;

fn bench_record_protection(c: &mut Criterion) {
    // Which of the four dispatch tiers (vaes-avx512 / clmul-wide /
    // aesni-shoup / portable) these numbers were produced on; CI runs the
    // bench capped at SMT_CRYPTO_TIER=clmul and at SMT_CRYPTO_TIER=portable.
    println!("crypto tier: {}", smt_crypto::active_tier().name());
    let secret = Secret::from_slice(&[7u8; 32]).unwrap();
    let tx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
    let mut rx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
    let layout = SeqnoLayout::default();

    let mut group = c.benchmark_group("record_layer");
    for size in [64usize, 1024, 4096, 16 * 1024 - 256] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("encrypt", size), &data, |b, data| {
            let mut i = 0u64;
            b.iter(|| {
                let seq = layout.compose(1, i % 65_536).unwrap().value();
                i += 1;
                tx.encrypt_record(seq, ContentType::ApplicationData, data)
                    .unwrap()
            });
        });
        group.bench_with_input(BenchmarkId::new("seal_into", size), &data, |b, data| {
            let mut i = 0u64;
            let mut out = BytesMut::with_capacity(size + 64);
            b.iter(|| {
                let seq = layout.compose(1, i % 65_536).unwrap().value();
                i += 1;
                out.clear();
                tx.seal_into(seq, ContentType::ApplicationData, data, &mut out)
                    .unwrap()
            });
        });
        let seq = layout.compose(1, 0).unwrap().value();
        let wire = tx
            .encrypt_record(seq, ContentType::ApplicationData, &data)
            .unwrap();
        group.bench_with_input(BenchmarkId::new("decrypt", size), &wire, |b, wire| {
            b.iter(|| rx.decrypt_record(seq, wire).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("open", size), &wire, |b, wire| {
            b.iter(|| {
                let (opened, used) = rx.open(seq, wire).unwrap();
                (opened.plaintext.len(), used)
            });
        });

        // Batched paths: a run of BATCH records per call, as the segmenter
        // and reassembler drive them per message segmentation.
        group.throughput(Throughput::Bytes((size * BATCH) as u64));
        let parts: Vec<[&[u8]; 1]> = (0..BATCH).map(|_| [data.as_slice()]).collect();
        group.bench_with_input(
            BenchmarkId::new(format!("seal_batch{BATCH}"), size),
            &parts,
            |b, parts| {
                let mut msg = 1u64;
                let mut out = BytesMut::with_capacity(BATCH * (size + 64));
                b.iter(|| {
                    msg += 1;
                    let batch: Vec<SealRequest<'_>> = parts
                        .iter()
                        .enumerate()
                        .map(|(i, p)| SealRequest {
                            seq: layout.compose(msg, i as u64).unwrap().value(),
                            content_type: ContentType::ApplicationData,
                            parts: &p[..],
                            padding: Padding::Default,
                        })
                        .collect();
                    out.clear();
                    tx.seal_batch_into(&batch, &mut out).unwrap()
                });
            },
        );
        let mut wire_batch = BytesMut::new();
        let first_seq = layout.compose(2, 0).unwrap().value();
        for i in 0..BATCH {
            tx.seal_into(
                first_seq + i as u64,
                ContentType::ApplicationData,
                &data,
                &mut wire_batch,
            )
            .unwrap();
        }
        group.bench_with_input(
            BenchmarkId::new(format!("open_batch{BATCH}"), size),
            &wire_batch,
            |b, wire| {
                b.iter(|| {
                    let batch = rx.open_batch(first_seq, BATCH, wire).unwrap();
                    (batch.plaintext_len(), batch.consumed)
                });
            },
        );
    }
    group.finish();
}

fn bench_segmentation(c: &mut Criterion) {
    use smt_core::segment::{PathInfo, SmtSegmenter};
    use smt_core::SmtConfig;
    let secret = Secret::from_slice(&[7u8; 32]).unwrap();
    let cipher = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
    let segmenter = SmtSegmenter::new(SmtConfig::software(), SeqnoLayout::default());
    let mut group = c.benchmark_group("segmentation");
    for size in [1024usize, 65_536, 512 * 1024] {
        let data = vec![1u8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("segment_message", size), &data, |b, d| {
            let mut id = 0u64;
            b.iter(|| {
                id += 1;
                segmenter
                    .segment_message(
                        PathInfo::loopback(1, 2),
                        id,
                        d,
                        0,
                        Some(&cipher),
                        None,
                        4 << 20,
                    )
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_record_protection, bench_segmentation);
criterion_main!(benches);
