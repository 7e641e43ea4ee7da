//! Stack profiles: closed-form wire accounting for each evaluated transport.
//!
//! A [`StackProfile`] turns (stack, message size) into the records, TSO
//! segments, packets and wire bytes that stack emits for one message.  The
//! functional figure pipeline's `Predictor` (in `smt-bench`) builds every
//! figure's cross-check band from these counts plus the fabric's link
//! parameters and the measured seal cost; the tests below pin the counts to
//! what the real segmenter and the real endpoints put on the wire.

use crate::stack::StackKind;
use smt_wire::{
    FRAMING_HEADER_LEN, IPV4_HEADER_LEN, MAX_TLS_RECORD, MAX_TSO_SEGMENT, RECORD_EXPANSION,
    SMT_OVERLAY_HEADER_LEN,
};

/// TCP per-packet header bytes (IP + TCP with typical options).
const TCP_HEADERS: usize = IPV4_HEADER_LEN + 32;
/// SMT/Homa per-packet header bytes (IP + overlay TCP header + option area).
const SMT_HEADERS: usize = IPV4_HEADER_LEN + SMT_OVERLAY_HEADER_LEN;
/// Application payload per kTLS record.
const KTLS_RECORD_PAYLOAD: usize = MAX_TLS_RECORD - 256;
/// Application payload per SMT record (matches `SmtConfig::default`).
const SMT_RECORD_PAYLOAD: usize = MAX_TLS_RECORD - FRAMING_HEADER_LEN - 64;
/// Application payload per TCPLS record (TCPLS frames streams in 4 KB records).
const TCPLS_RECORD_PAYLOAD: usize = 4096;

/// Wire accounting for a message of a given size on a given stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCounts {
    /// TLS records (0 for unencrypted stacks).
    pub records: usize,
    /// TSO segments handed to the NIC (with TSO on; without it the stack
    /// hands over one segment per packet).
    pub segments: usize,
    /// MTU-sized packets on the wire.
    pub packets: usize,
    /// Total bytes on the wire including all headers.
    pub wire_bytes: usize,
}

/// A per-stack wire-accounting profile.
#[derive(Debug, Clone, Copy)]
pub struct StackProfile {
    /// Which stack this profile models.
    pub stack: StackKind,
    /// Network MTU.
    pub mtu: usize,
}

impl StackProfile {
    /// Creates a profile at the default MTU.
    pub fn new(stack: StackKind) -> Self {
        Self {
            stack,
            mtu: smt_wire::DEFAULT_MTU,
        }
    }

    /// Overrides the MTU (§5.2 jumbo-frame experiment).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    /// Wire accounting for a message of `size` application bytes.
    pub fn counts(&self, size: usize) -> WireCounts {
        let size = size.max(1);
        let message_based = self.stack.is_message_based();
        let encrypted = self.stack.is_encrypted();
        let headers = if message_based {
            SMT_HEADERS
        } else {
            TCP_HEADERS
        };
        let per_packet_payload = self.mtu - headers;

        let (records, payload_bytes) = if !encrypted {
            (0, size)
        } else if message_based {
            let records = size.div_ceil(SMT_RECORD_PAYLOAD).max(1);
            (
                records,
                size + records * (RECORD_EXPANSION + 1 + FRAMING_HEADER_LEN),
            )
        } else if self.stack == StackKind::Tcpls {
            // TCPLS multiplexes streams over 4 KB TLS records.
            let records = size.div_ceil(TCPLS_RECORD_PAYLOAD).max(1);
            (
                records,
                size + records * (RECORD_EXPANSION + 1 + FRAMING_HEADER_LEN),
            )
        } else {
            let records = size.div_ceil(KTLS_RECORD_PAYLOAD).max(1);
            (records, size + records * (RECORD_EXPANSION + 1))
        };

        let packets = payload_bytes.div_ceil(per_packet_payload).max(1);
        WireCounts {
            records,
            segments: payload_bytes.div_ceil(MAX_TSO_SEGMENT).max(1),
            packets,
            wire_bytes: payload_bytes + packets * headers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_roughly_matches_real_segmenter() {
        // Cross-check the analytic accounting against the real SMT engine.
        use smt_core::segment::{PathInfo, SmtSegmenter};
        use smt_crypto::key_schedule::Secret;
        use smt_crypto::record::RecordProtector;
        let profile = StackProfile::new(StackKind::SmtSw);
        let segmenter = SmtSegmenter::new(smt_core::SmtConfig::software(), Default::default());
        let cipher = RecordProtector::from_secret(
            smt_crypto::CipherSuite::Aes128GcmSha256,
            &Secret::from_slice(&[1u8; 32]).unwrap(),
        )
        .unwrap();
        for size in [64usize, 1024, 8192, 65536] {
            let counts = profile.counts(size);
            let data = vec![0u8; size];
            let real = segmenter
                .segment_message(
                    PathInfo::loopback(1, 2),
                    0,
                    &data,
                    0,
                    Some(&cipher),
                    None,
                    4 << 20,
                )
                .unwrap();
            assert_eq!(counts.records, real.record_count, "records at {size}");
            assert_eq!(counts.segments, real.segments.len(), "segments at {size}");
            // Wire payload bytes agree within a few bytes per record (padding of
            // the analytic model).
            let diff =
                counts.wire_bytes as i64 - (real.wire_len + counts.packets * SMT_HEADERS) as i64;
            assert!(diff.abs() < 64, "wire bytes at {size}: {diff}");
        }
    }

    #[test]
    fn counts_monotone_in_size() {
        let p = StackProfile::new(StackKind::SmtSw);
        let small = p.counts(64);
        let large = p.counts(65536);
        assert!(large.packets > small.packets);
        assert!(large.records >= small.records);
        assert!(large.wire_bytes > small.wire_bytes);
        assert_eq!(small.records, 1);
    }

    #[test]
    fn analytic_wire_accounting_matches_functional_endpoints() {
        // The profiles feed the figure bands from closed-form wire
        // accounting; the endpoint API runs the same stacks functionally.
        // The two must agree on payload wire bytes (records + tags + framing,
        // excluding per-packet headers) to within a few percent, or the
        // predictions drift away from what the datapath actually emits.
        use crate::endpoint::{drive_pair, Endpoint, PairFabric, SecureEndpoint};
        use smt_crypto::cert::CertificateAuthority;
        use smt_crypto::handshake::{establish, ClientConfig, ServerConfig};

        let ca = CertificateAuthority::new("profile-ca");
        let id = ca.issue_identity("server");
        for stack in [
            StackKind::SmtSw,
            StackKind::KtlsSw,
            StackKind::Tcpls,
            StackKind::Tcp,
            StackKind::Homa,
        ] {
            for size in [1024usize, 16_000, 120_000] {
                let profile = StackProfile::new(stack);
                let c = profile.counts(size);
                let headers = if stack.is_message_based() {
                    SMT_HEADERS
                } else {
                    TCP_HEADERS
                };
                let analytic_payload = (c.wire_bytes - c.packets * headers) as f64;

                let (ck, sk) = establish(
                    ClientConfig::new(ca.verifying_key(), "server"),
                    ServerConfig::new(id.clone(), ca.verifying_key()),
                )
                .unwrap();
                let (mut a, mut b) = Endpoint::builder()
                    .stack(stack)
                    .pair(&ck, &sk, 1, 2)
                    .unwrap();
                a.send(&vec![0u8; size], 0).unwrap();
                let mut link = PairFabric::reliable();
                drive_pair(&mut a, &mut b, &mut link, 1_000_000);
                let measured = a.stats().wire_bytes_sent as f64;

                let tolerance = analytic_payload * 0.05 + 96.0;
                assert!(
                    (measured - analytic_payload).abs() <= tolerance,
                    "{} at {size}B: analytic {analytic_payload} vs measured {measured}",
                    stack.label()
                );
            }
        }
    }
}
