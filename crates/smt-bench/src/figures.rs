//! The figures that are not virtual-time measurements: Fig. 5 is a static
//! bit-allocation table, and Table 2 and Fig. 12 time real handshake crypto
//! on the host's wall clock.  The `figures` binary prints them beside the
//! functional rows ([`crate::functional`]), but they stay out of
//! `BENCH_figures.json`, which holds only deterministic virtual-time rows.

use crate::functional::Predictor;
use serde::{Deserialize, Serialize};
use smt_crypto::cert::CertificateAuthority;
use smt_crypto::handshake::zero_rtt::establish_zero_rtt;
use smt_crypto::handshake::{
    establish, ClientConfig, HandshakeTimings, ReplayCache, ServerConfig, SmtTicketIssuer,
};
use smt_crypto::seqno::SeqnoLayout;
use smt_crypto::CipherSuite;
use smt_sim::net::LinkConfig;
use smt_transport::StackKind;

/// One row of a figure: a labelled series point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Series (legend) label, e.g. "SMT-hw".
    pub series: String,
    /// X value (RPC size, concurrency, iodepth, workload...).
    pub x: String,
    /// Y value.
    pub y: f64,
    /// Unit of the Y value.
    pub unit: String,
}

fn point(series: &str, x: impl ToString, y: f64, unit: &str) -> SeriesPoint {
    SeriesPoint {
        series: series.to_string(),
        x: x.to_string(),
        y,
        unit: unit.to_string(),
    }
}

/// Table 2: per-operation handshake latency breakdown (µs), measured on this
/// machine with the real ECDHE-P256 / ECDSA-P256 / HKDF implementations.
pub fn table2_handshake_breakdown(iterations: usize) -> Vec<(String, String, f64)> {
    let ca = CertificateAuthority::new("dc-internal-ca");
    let id = ca.issue_identity("server.dc.local");
    let mut merged = HandshakeTimings::new();
    for _ in 0..iterations.max(1) {
        let (ck, sk) = establish(
            ClientConfig::new(ca.verifying_key(), "server.dc.local"),
            ServerConfig::new(id.clone(), ca.verifying_key()),
        )
        .expect("handshake");
        merged.merge(&ck.timings);
        merged.merge(&sk.timings);
    }
    merged
        .rows()
        .map(|(op, d)| {
            (
                op.label().to_string(),
                op.description().to_string(),
                d.as_secs_f64() * 1e6 / iterations.max(1) as f64,
            )
        })
        .collect()
}

/// Fig. 5: the bit-allocation trade-off of the composite sequence number.
pub fn fig5_seqno_tradeoff() -> Vec<(u32, u32, u128, u128)> {
    SeqnoLayout::tradeoff_sweep(8, 17)
        .into_iter()
        .map(|r| {
            (
                r.record_index_bits,
                r.msg_id_bits,
                r.max_messages,
                r.max_message_size_small_records,
            )
        })
        .collect()
}

/// Fig. 12: key-exchange latency (µs of crypto compute + simulated RTTs) for the
/// five handshake variants over different first-flight RPC sizes.  The RTT
/// term is the functional Fig. 6 prediction for a 256 B SMT-sw echo on the
/// default link.
pub fn fig12_key_exchange(iterations: usize) -> Vec<SeriesPoint> {
    let ca = CertificateAuthority::new("dc-internal-ca");
    let id = ca.issue_identity("server.dc.local");
    let suite = CipherSuite::Aes128GcmSha256;
    let rtt_us =
        Predictor::new(LinkConfig::default()).rtt_ns(StackKind::SmtSw, 256, 256, 0, 0) / 1e3;
    let mut out = Vec::new();

    let sizes = [64usize, 128, 256, 1024, 4096, 8192];
    for &size in &sizes {
        let payload = vec![0u8; size];
        // --- Init: SMT-ticket 0-RTT, no forward secrecy --------------------
        // --- Init-FS: SMT-ticket 0-RTT with forward secrecy ----------------
        for (label, fs) in [("Init", false), ("Init-FS", true)] {
            let mut total = 0.0;
            for i in 0..iterations.max(1) {
                let issuer = SmtTicketIssuer::new(id.clone(), 3600);
                let mut replay = ReplayCache::new(1 << 16);
                let start = std::time::Instant::now();
                let (ck, sk, _early) = establish_zero_rtt(
                    suite,
                    &ca.verifying_key(),
                    "server.dc.local",
                    &issuer,
                    &mut replay,
                    &payload,
                    fs,
                    i as u64,
                )
                .expect("0-RTT handshake");
                let crypto_us = start.elapsed().as_secs_f64() * 1e6;
                let _ = (ck, sk);
                // 0-RTT: data flows on the first flight — one RTT total to get
                // the response back.
                total += crypto_us + rtt_us;
            }
            out.push(point(label, size, total / iterations.max(1) as f64, "us"));
        }
        // --- Init-1RTT: standard TLS 1.3 handshake then data ----------------
        {
            let mut total = 0.0;
            for _ in 0..iterations.max(1) {
                let start = std::time::Instant::now();
                let (ck, sk) = establish(
                    ClientConfig::new(ca.verifying_key(), "server.dc.local"),
                    ServerConfig::new(id.clone(), ca.verifying_key()),
                )
                .expect("handshake");
                let crypto_us = start.elapsed().as_secs_f64() * 1e6;
                let _ = (ck, sk);
                // Handshake RTT plus the data RTT.
                total += crypto_us + 2.0 * rtt_us;
            }
            out.push(point(
                "Init-1RTT",
                size,
                total / iterations.max(1) as f64,
                "us",
            ));
        }
        // --- Rsmp / Rsmp-FS: session resumption ------------------------------
        for (label, fs) in [("Rsmp", false), ("Rsmp-FS", true)] {
            let mut total = 0.0;
            for _ in 0..iterations.max(1) {
                // Prior session provides the ticket (outside the timed window).
                let (ck0, sk0) = establish(
                    ClientConfig::new(ca.verifying_key(), "server.dc.local"),
                    ServerConfig::new(id.clone(), ca.verifying_key()),
                )
                .expect("initial handshake");
                let ticket = sk0.issued_ticket.clone().expect("ticket issued");
                let psk_c = ck0.resumption_psk(&ticket);
                let psk_s = sk0.resumption_psk(&ticket);

                let start = std::time::Instant::now();
                let mut client_cfg = ClientConfig::new(ca.verifying_key(), "server.dc.local");
                client_cfg.resumption = Some(smt_crypto::handshake::full::ClientResumption {
                    ticket_id: ticket.ticket_id,
                    psk: psk_c,
                    forward_secrecy: fs,
                });
                client_cfg.pregenerated_key = Some(smt_crypto::handshake::EcdhKeyPair::generate());
                let mut server_cfg = ServerConfig::new(id.clone(), ca.verifying_key());
                server_cfg.resumption_psks.insert(ticket.ticket_id, psk_s);
                server_cfg.resumption_forward_secrecy = fs;
                server_cfg.pregenerated_key = Some(smt_crypto::handshake::EcdhKeyPair::generate());
                let (ck, sk) = establish(client_cfg, server_cfg).expect("resumption");
                let crypto_us = start.elapsed().as_secs_f64() * 1e6;
                let _ = (ck, sk);
                total += crypto_us + 2.0 * rtt_us;
            }
            out.push(point(label, size, total / iterations.max(1) as f64, "us"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_all_rows() {
        let rows = table2_handshake_breakdown(2);
        assert!(rows.len() >= 14, "got {} rows", rows.len());
        // ECDH and certificate verification are the dominant client costs.
        let c32 = rows.iter().find(|(l, _, _)| l == "C3.2").unwrap();
        let c21 = rows.iter().find(|(l, _, _)| l == "C2.1").unwrap();
        assert!(c32.2 > c21.2);
    }

    #[test]
    fn fig5_rows() {
        let rows = fig5_seqno_tradeoff();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, 8);
    }

    #[test]
    fn fig12_has_all_variants_and_sizes() {
        // Ordering between variants is asserted under `--release` conditions by
        // the Fig. 12 harness itself; in debug builds the pure-Rust P-256
        // operations are slow and noisy, so this test only checks structure.
        let rows = fig12_key_exchange(1);
        assert_eq!(rows.len(), 6 * 5, "6 sizes x 5 variants");
        for variant in ["Init", "Init-FS", "Init-1RTT", "Rsmp", "Rsmp-FS"] {
            assert!(rows.iter().any(|p| p.series == variant && p.y > 0.0));
        }
    }
}
