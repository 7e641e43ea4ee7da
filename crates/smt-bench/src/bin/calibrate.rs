//! Measures the record layer on the machine running the benches and prints
//! `CostModel`-ready numbers: the per-record intercept and per-byte slope of
//! software sealing/opening.
//!
//! The defaults baked into `smt_sim::cost::CostModel::calibrated()` were
//! produced by this binary (see the comments there); rerun it after record-
//! layer changes and paste the suggested block when the numbers move.
//!
//! ```text
//! cargo run --release -p smt-bench --bin calibrate
//! ```

use bytes::BytesMut;
use smt_crypto::key_schedule::Secret;
use smt_crypto::record::RecordProtector;
use smt_crypto::{active_tier, CipherSuite, SeqnoLayout};
use smt_wire::ContentType;
use std::time::Instant;

/// The small/large anchor sizes of the two-point linear fit.  The large point
/// is the biggest single record the segmenter emits (16 KB minus framing);
/// the small point keeps the per-record intercept honest.
const SMALL: usize = 64;
const LARGE: usize = 16 * 1024 - 256;

/// Minimum measured wall time per sample; iteration counts adapt to it.
const MIN_SAMPLE_NS: u128 = 25_000_000;

/// Samples per point; the fastest wins (the standard microbenchmark noise
/// filter — scheduler preemption and frequency dips only ever add time).
const SAMPLES: usize = 7;

/// Best-of-[`SAMPLES`] mean nanoseconds per call of `f`, each sample spanning
/// at least [`MIN_SAMPLE_NS`] of wall time (after an untimed warm-up).
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..64 {
        f();
    }
    let mut iters = 256u64;
    let sample = |iters: u64, f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos()
    };
    // Grow the iteration count until one sample spans the minimum window.
    loop {
        let elapsed = sample(iters, &mut f);
        if elapsed >= MIN_SAMPLE_NS {
            break;
        }
        let scale = (MIN_SAMPLE_NS as f64 / elapsed.max(1) as f64).ceil() as u64 + 1;
        iters = iters.saturating_mul(scale.min(64)).max(iters + 1);
    }
    let mut best = u128::MAX;
    for _ in 0..SAMPLES {
        best = best.min(sample(iters, &mut f));
    }
    best as f64 / iters as f64
}

/// `(per_record_ns, ns_per_byte)` from mean times at the two anchor sizes.
fn two_point_fit(small_ns: f64, large_ns: f64) -> (f64, f64) {
    let slope = (large_ns - small_ns) / (LARGE - SMALL) as f64;
    let intercept = small_ns - slope * SMALL as f64;
    (intercept.max(0.0), slope.max(0.0))
}

fn seal_mean_ns(tx: &RecordProtector, layout: &SeqnoLayout, size: usize) -> f64 {
    let data = vec![0xabu8; size];
    let mut out = BytesMut::with_capacity(size + 64);
    let mut i = 0u64;
    time_ns(|| {
        let seq = layout.compose(1, i % 65_536).unwrap().value();
        i += 1;
        out.clear();
        tx.seal_into(seq, ContentType::ApplicationData, &data, &mut out)
            .unwrap();
    })
}

fn open_mean_ns(
    tx: &RecordProtector,
    rx: &mut RecordProtector,
    layout: &SeqnoLayout,
    size: usize,
) -> f64 {
    let data = vec![0xabu8; size];
    let seq = layout.compose(1, 0).unwrap().value();
    let wire = tx
        .encrypt_record(seq, ContentType::ApplicationData, &data)
        .unwrap();
    time_ns(|| {
        let (opened, _used) = rx.open(seq, &wire).unwrap();
        std::hint::black_box(opened.plaintext.len());
    })
}

fn main() {
    let secret = Secret::from_slice(&[7u8; 32]).unwrap();
    let tx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
    let mut rx = RecordProtector::from_secret(CipherSuite::Aes128GcmSha256, &secret).unwrap();
    let layout = SeqnoLayout::default();

    println!("crypto tier: {}", active_tier().name());

    let seal_small = seal_mean_ns(&tx, &layout, SMALL);
    let seal_large = seal_mean_ns(&tx, &layout, LARGE);
    let open_small = open_mean_ns(&tx, &mut rx, &layout, SMALL);
    let open_large = open_mean_ns(&tx, &mut rx, &layout, LARGE);
    let (seal_rec, seal_byte) = two_point_fit(seal_small, seal_large);
    let (open_rec, open_byte) = two_point_fit(open_small, open_large);

    println!("seal_into: {SMALL} B = {seal_small:.1} ns, {LARGE} B = {seal_large:.1} ns");
    println!("open:      {SMALL} B = {open_small:.1} ns, {LARGE} B = {open_large:.1} ns");
    println!("fit seal:  {seal_rec:.1} ns/record + {seal_byte:.4} ns/byte");
    println!("fit open:  {open_rec:.1} ns/record + {open_byte:.4} ns/byte");
    println!();

    // The CostModel keeps one sw-crypto line; receive crypto is always
    // software (§5), so the suggestion takes the dearer of the two
    // directions for the shared per-record/per-byte pair.
    let rec = seal_rec.max(open_rec);
    let byte = seal_byte.max(open_byte);
    println!(
        "suggested CostModel::calibrated() values ({}):",
        active_tier().name()
    );
    println!("    crypto_sw_ns_per_byte: {byte:.2},");
    println!("    crypto_sw_per_record_ns: {:.0},", rec.ceil());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_intercept_and_slope() {
        // t(n) = 100 + 0.25 n exactly.
        let (rec, byte) = two_point_fit(100.0 + 0.25 * SMALL as f64, 100.0 + 0.25 * LARGE as f64);
        assert!((rec - 100.0).abs() < 1e-6);
        assert!((byte - 0.25).abs() < 1e-9);
    }

    #[test]
    fn fit_clamps_negative_terms_to_zero() {
        let (rec, byte) = two_point_fit(50.0, 10.0);
        assert_eq!(byte, 0.0);
        assert!(rec >= 0.0);
    }
}
