//! # smt-fuzz — seeded structure-aware fuzz harness (DESIGN.md §8)
//!
//! The build environment has no registry access, so cargo-fuzz/libFuzzer are
//! unavailable; this crate implements the same discipline as a plain library
//! plus a driver binary.  Every target is a deterministic, seeded corpus
//! runner over one attacker-facing parser or state machine:
//!
//! * it feeds **arbitrary byte soup** (the unstructured half of the corpus),
//! * and **mutated copies of known-valid encodings** — bit flips, truncations,
//!   extensions, zeroed spans and splices — which reach far deeper into the
//!   parse tree than random bytes ever would,
//! * and checks the crash-safety contract on every input: malformed data
//!   returns a **typed error, never a panic**; valid encodings **round-trip
//!   to identical bytes**; and for the authenticated paths (handshake flights,
//!   record AEAD) **no tampered input is ever accepted**.
//!
//! A panic aborts the run with a backtrace — that *is* the fuzzer's failure
//! signal; there is no in-band crash report.  Each target is pure in its
//! `(iterations, seed)` inputs, so any failure reproduces exactly with the
//! printed seed.
//!
//! Run via the `smt-fuzz` binary: `smt-fuzz --target wire_packet --iters
//! 10000 --seed 1`, or `--target all`.  The CI `fuzz-smoke` job drives every
//! target for at least 10 000 iterations on both crypto tiers.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smt_crypto::cert::CertificateAuthority;
use smt_crypto::handshake::full::ClientResumption;
use smt_crypto::handshake::{
    decode_flight, derived_reject_flight, derived_server_respond, encode_flight, is_derived_flight,
    ClientConfig, ClientMachine, ClientMode, DerivedClient, DerivedClientOutcome,
    DerivedServerOutcome, HandshakeMessage, PathSecret, PathSecretMap, ReplayCache, ServerConfig,
    ServerMachine, SmtTicketIssuer, ZeroRttContext,
};
use smt_crypto::record::{Padding, RecordProtector, SealRequest};
use smt_crypto::{CipherSuite, Secret};
use smt_wire::{
    ContentType, FramingHeader, HomaAck, HomaGrant, HomaResend, IpHeader, Ipv4Header,
    MessageHeader, Packet, PacketPayload, PacketType, SmtOptionArea, SmtOverlayHeader,
    TlsRecordHeader, TsoSegment, MAX_RECORD_BODY, MESSAGE_HEADER_LEN,
};

/// Outcome of one fuzz-target run: how many inputs the parser accepted
/// (decoded successfully) versus rejected with a typed error.  The absence of
/// a panic over `iterations` inputs is the property under test; the counters
/// exist so a run that silently stopped exercising the parser (e.g. every
/// input rejected at the first length check) is visible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Target name, as listed by [`target_names`].
    pub target: &'static str,
    /// Inputs fed to the parser.
    pub iterations: u64,
    /// Inputs the parser accepted (decoded / verified successfully).
    pub accepted: u64,
    /// Inputs the parser rejected with a typed error.
    pub rejected: u64,
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<22} {:>8} iterations  {:>8} accepted  {:>8} rejected",
            self.target, self.iterations, self.accepted, self.rejected
        )
    }
}

/// Seeded input generator: arbitrary bytes and structure-aware mutations of
/// valid encodings.
struct Mutator {
    rng: StdRng,
}

impl Mutator {
    fn new(seed: u64) -> Self {
        Self {
            // Decorrelate from other seeded components fed the same user seed.
            rng: StdRng::seed_from_u64(seed ^ 0xf002_2e5d_dead_beef),
        }
    }

    /// A uniformly random value below `bound` (`bound` ≥ 1).
    fn below(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound.max(1))
    }

    /// Arbitrary bytes, length in `0..=max_len`.
    fn arbitrary(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        let mut out = vec![0u8; len];
        for b in &mut out {
            *b = self.rng.gen();
        }
        out
    }

    /// A mutated copy of `base`: an in-place corruption, a random-prefix
    /// truncation, or an extension with random bytes.  May return bytes equal
    /// to `base` (e.g. a zeroed span that was already zero); callers that
    /// assert rejection must compare against the original first.
    fn mutate(&mut self, base: &[u8]) -> Vec<u8> {
        match self.below(5) {
            // Truncate to a random prefix (possibly the whole input).
            0 => base[..self.below(base.len() + 1)].to_vec(),
            // Extend with random bytes.
            1 => {
                let mut out = base.to_vec();
                let extra = self.arbitrary(64);
                out.extend_from_slice(&extra);
                out
            }
            _ => self.corrupt(base),
        }
    }

    /// Corrupts `base` **without growing it**: bit flips, a zeroed span, a
    /// self-splice, or a strict-prefix truncation.  Every altered byte lies
    /// within the original length, so on authenticated paths (handshake
    /// flights, record AEAD) a result that differs from `base` must be
    /// rejected — unlike [`Mutator::mutate`], whose extensions may land in
    /// trailing bytes a parser legitimately ignores.
    fn corrupt(&mut self, base: &[u8]) -> Vec<u8> {
        let mut out = base.to_vec();
        if out.is_empty() {
            return out;
        }
        match self.below(4) {
            // Flip 1..=8 random bits.
            0 => {
                for _ in 0..self.rng.gen_range(1..=8u32) {
                    let at = self.below(out.len());
                    out[at] ^= 1 << self.below(8);
                }
            }
            // Truncate to a strict prefix.
            1 => out.truncate(self.below(out.len())),
            // Zero a random span.
            2 => {
                let start = self.below(out.len());
                let end = (start + 1 + self.below(16)).min(out.len());
                out[start..end].fill(0);
            }
            // Splice: overwrite a span with bytes from another offset.
            _ => {
                if out.len() >= 2 {
                    let src = self.below(out.len());
                    let dst = self.below(out.len());
                    let n = (1 + self.below(32)).min(out.len() - src.max(dst));
                    let chunk: Vec<u8> = out[src..src + n].to_vec();
                    out[dst..dst + n].copy_from_slice(&chunk);
                }
            }
        }
        out
    }
}

/// One fuzz target: a name and its runner.
type Target = (&'static str, fn(u64, u64) -> FuzzReport);

/// All registered fuzz targets.
const TARGETS: &[Target] = &[
    ("wire_packet", fuzz_wire_packet),
    ("wire_overlay", fuzz_wire_overlay),
    ("wire_framing", fuzz_wire_framing),
    ("wire_tls_record", fuzz_wire_tls_record),
    ("crypto_handshake_msg", fuzz_crypto_handshake_msg),
    ("crypto_client_flight", fuzz_crypto_client_flight),
    ("crypto_server_flight", fuzz_crypto_server_flight),
    ("crypto_derived_flight", fuzz_crypto_derived_flight),
    ("record_open_batch", fuzz_record_open_batch),
    ("transport_listener_demux", fuzz_transport_listener_demux),
    ("cc_control_frames", fuzz_cc_control_frames),
    ("apps_codec", fuzz_apps_codec),
];

/// Names of every registered fuzz target.
pub fn target_names() -> Vec<&'static str> {
    TARGETS.iter().map(|(name, _)| *name).collect()
}

/// Runs one target for `iters` inputs derived from `seed`.  Returns `None`
/// for an unknown target name.
pub fn run_target(name: &str, iters: u64, seed: u64) -> Option<FuzzReport> {
    TARGETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f(iters, seed))
}

/// Runs every registered target for `iters` inputs each.
pub fn run_all(iters: u64, seed: u64) -> Vec<FuzzReport> {
    TARGETS.iter().map(|(_, f)| f(iters, seed)).collect()
}

/// Decodes `buf` as a [`Packet`] and, on success, checks the decoded value
/// re-encodes without panicking.  Returns whether the input was accepted.
fn check_packet_decode(buf: &[u8]) -> bool {
    match Packet::decode(buf) {
        Ok((packet, consumed)) => {
            assert!(consumed <= buf.len(), "consumed past end of input");
            let mut out = vec![0u8; packet.wire_len()];
            // Re-encoding a decoded packet must succeed: decode only builds
            // values whose invariants encode relies on.
            let n = packet.encode(&mut out).expect("re-encode decoded packet");
            assert_eq!(n, packet.wire_len());
            true
        }
        Err(_) => false,
    }
}

fn fuzz_wire_packet(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    // Valid corpus: MTU-split data packets, a control packet for each Homa
    // control type, and an empty data packet.
    let overlay = SmtOverlayHeader::data(40_001, 40_002, 7, 4000);
    let seg = TsoSegment::new(
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        smt_wire::IPPROTO_SMT,
        overlay,
        bytes::Bytes::from(vec![0x5a; 4000]),
    );
    let mut corpus_packets = seg.packetize(smt_wire::DEFAULT_MTU).expect("packetize");
    let control = |ptype, payload| Packet {
        ip: IpHeader::V4(Ipv4Header::new(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            smt_wire::IPPROTO_SMT,
            81,
        )),
        overlay: SmtOverlayHeader {
            tcp: smt_wire::OverlayTcpHeader::new(40_001, 40_002, ptype),
            options: SmtOptionArea::new(7, 4000),
        },
        payload,
        corrupted: false,
    };
    corpus_packets.push(control(
        PacketType::Grant,
        PacketPayload::Grant(HomaGrant {
            message_id: 7,
            granted_offset: 4096,
            priority: 1,
        }),
    ));
    corpus_packets.push(control(
        PacketType::Resend,
        PacketPayload::Resend(HomaResend {
            message_id: 7,
            offset: 0,
            length: 1200,
            priority: 2,
        }),
    ));
    corpus_packets.push(control(
        PacketType::Ack,
        PacketPayload::Ack(HomaAck { message_id: 7 }),
    ));
    let corpus: Vec<Vec<u8>> = corpus_packets
        .iter()
        .map(|p| {
            let mut buf = vec![0u8; p.wire_len()];
            let n = p.encode(&mut buf).expect("encode corpus packet");
            buf.truncate(n);
            buf
        })
        .collect();

    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = match i % 3 {
            // Valid input: must decode, and round-trip to identical bytes.
            0 => {
                let valid = &corpus[m.below(corpus.len())];
                let (packet, consumed) = Packet::decode(valid).expect("valid packet decodes");
                assert_eq!(consumed, valid.len());
                let mut out = vec![0u8; packet.wire_len()];
                let n = packet.encode(&mut out).expect("re-encode");
                assert_eq!(&out[..n], &valid[..], "packet round-trip identity");
                true
            }
            1 => {
                let at = m.below(corpus.len());
                check_packet_decode(&m.mutate(&corpus[at]))
            }
            _ => check_packet_decode(&m.arbitrary(1600)),
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "wire_packet",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_wire_overlay(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = match i % 3 {
            // A random but structurally valid header must round-trip.
            0 => {
                let header = SmtOverlayHeader {
                    tcp: smt_wire::OverlayTcpHeader::new(
                        m.rng.gen(),
                        m.rng.gen(),
                        [
                            PacketType::Data,
                            PacketType::Grant,
                            PacketType::Resend,
                            PacketType::Ack,
                            PacketType::Control,
                            PacketType::Sack,
                        ][m.below(6)],
                    ),
                    options: SmtOptionArea {
                        message_id: m.rng.gen(),
                        message_length: m.rng.gen(),
                        tso_offset: m.rng.gen(),
                        resend_packet_offset: m.rng.gen(),
                        record_count: m.rng.gen(),
                        first_record_index: m.rng.gen(),
                        flags: m.rng.gen(),
                        reserved: m.rng.gen(),
                        connection_id: m.rng.gen(),
                        epoch: m.rng.gen(),
                        priority: m.rng.gen(),
                    },
                };
                let mut buf = vec![0u8; SmtOverlayHeader::LEN];
                let n = header.encode(&mut buf).expect("encode overlay");
                let (decoded, consumed) = SmtOverlayHeader::decode(&buf).expect("decode overlay");
                assert_eq!(consumed, n);
                assert_eq!(decoded, header, "overlay round-trip identity");
                true
            }
            1 => {
                let header =
                    SmtOverlayHeader::data(m.rng.gen(), m.rng.gen(), m.rng.gen(), m.rng.gen());
                let mut buf = vec![0u8; SmtOverlayHeader::LEN];
                header.encode(&mut buf).expect("encode overlay");
                SmtOverlayHeader::decode(&m.mutate(&buf)).is_ok()
            }
            _ => SmtOverlayHeader::decode(&m.arbitrary(2 * SmtOverlayHeader::LEN)).is_ok(),
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "wire_overlay",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_wire_framing(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = match i % 6 {
            0 => {
                let header = FramingHeader {
                    app_data_len: m.rng.gen(),
                };
                let mut buf = vec![0u8; FramingHeader::LEN];
                header.encode(&mut buf).expect("encode framing");
                let (decoded, _) = FramingHeader::decode(&buf).expect("decode framing");
                assert_eq!(decoded, header, "framing round-trip identity");
                true
            }
            1 => {
                let length: u32 = m.rng.gen();
                let header = MessageHeader {
                    src_port: m.rng.gen(),
                    dst_port: m.rng.gen(),
                    message_id: m.rng.gen(),
                    message_length: length,
                    message_offset: if length == 0 {
                        0
                    } else {
                        m.rng.gen_range(0..=length)
                    },
                };
                let mut buf = vec![0u8; MESSAGE_HEADER_LEN];
                header.encode(&mut buf).expect("encode message header");
                let (decoded, _) = MessageHeader::decode(&buf).expect("decode message header");
                assert_eq!(decoded, header, "message header round-trip identity");
                // A mutated copy must never panic.
                let _ = MessageHeader::decode(&m.mutate(&buf));
                true
            }
            2 => {
                let grant = HomaGrant {
                    message_id: m.rng.gen(),
                    granted_offset: m.rng.gen(),
                    priority: m.rng.gen(),
                };
                let mut buf = vec![0u8; HomaGrant::LEN];
                grant.encode(&mut buf).expect("encode grant");
                let (decoded, _) = HomaGrant::decode(&buf).expect("decode grant");
                assert_eq!(decoded, grant, "grant round-trip identity");
                true
            }
            3 => {
                let resend = HomaResend {
                    message_id: m.rng.gen(),
                    offset: m.rng.gen(),
                    length: m.rng.gen(),
                    priority: m.rng.gen(),
                };
                let mut buf = vec![0u8; HomaResend::LEN];
                resend.encode(&mut buf).expect("encode resend");
                let (decoded, _) = HomaResend::decode(&buf).expect("decode resend");
                assert_eq!(decoded, resend, "resend round-trip identity");
                true
            }
            4 => {
                let ip = Ipv4Header::new(
                    [m.rng.gen(), m.rng.gen(), m.rng.gen(), m.rng.gen()],
                    [m.rng.gen(), m.rng.gen(), m.rng.gen(), m.rng.gen()],
                    m.rng.gen(),
                    m.rng.gen(),
                );
                let mut buf = vec![0u8; 64];
                let n = ip.encode(&mut buf).expect("encode ipv4");
                let (decoded, _) = Ipv4Header::decode(&buf[..n]).expect("decode ipv4");
                assert_eq!(decoded.src, ip.src);
                assert_eq!(decoded.dst, ip.dst);
                let _ = IpHeader::decode(&m.mutate(&buf[..n]));
                true
            }
            _ => {
                let soup = m.arbitrary(64);
                let mut any = false;
                any |= FramingHeader::decode(&soup).is_ok();
                any |= MessageHeader::decode(&soup).is_ok();
                any |= HomaGrant::decode(&soup).is_ok();
                any |= HomaResend::decode(&soup).is_ok();
                any |= HomaAck::decode(&soup).is_ok();
                any |= IpHeader::decode(&soup).is_ok();
                any
            }
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "wire_framing",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_wire_tls_record(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = match i % 3 {
            0 => {
                let len = m.below(MAX_RECORD_BODY + 1);
                let header = match m.below(3) {
                    0 => TlsRecordHeader::application_data(len).expect("legal body length"),
                    1 => TlsRecordHeader::handshake(len).expect("legal body length"),
                    _ => TlsRecordHeader {
                        content_type: ContentType::Alert,
                        length: len as u16,
                    },
                };
                let mut buf = vec![0u8; TlsRecordHeader::LEN];
                let n = header.encode(&mut buf).expect("encode record header");
                let (decoded, consumed) = TlsRecordHeader::decode(&buf).expect("decode header");
                assert_eq!(consumed, n);
                assert_eq!(decoded, header, "record header round-trip identity");
                assert_eq!(decoded.aad()[..], buf[..], "AAD matches encoding");
                // Oversize bodies are rejected at construction.
                assert!(
                    TlsRecordHeader::application_data(MAX_RECORD_BODY + 1 + m.below(1024)).is_err()
                );
                true
            }
            1 => {
                let header = TlsRecordHeader::application_data(m.below(MAX_RECORD_BODY + 1))
                    .expect("legal body length");
                let mut buf = vec![0u8; TlsRecordHeader::LEN];
                header.encode(&mut buf).expect("encode record header");
                TlsRecordHeader::decode(&m.mutate(&buf)).is_ok()
            }
            _ => TlsRecordHeader::decode(&m.arbitrary(2 * TlsRecordHeader::LEN)).is_ok(),
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "wire_tls_record",
        iterations: iters,
        accepted,
        rejected,
    }
}

/// Fixed test PKI for the crypto targets.  Key generation is randomized
/// internally, but nothing the fuzz assertions depend on varies with it.
struct TestPki {
    ca: CertificateAuthority,
    identity: smt_crypto::cert::Identity,
}

impl TestPki {
    fn new() -> Self {
        let ca = CertificateAuthority::new("fuzz-ca");
        let identity = ca.issue_identity("server.fuzz.local");
        Self { ca, identity }
    }

    fn client_config(&self) -> ClientConfig {
        ClientConfig::new(self.ca.verifying_key(), "server.fuzz.local")
    }

    /// A client config resuming with the fixed fuzz PSK (cheap: the resumed
    /// handshake skips certificate processing entirely).
    fn resuming_client_config(&self) -> ClientConfig {
        let mut config = self.client_config();
        config.resumption = Some(ClientResumption {
            ticket_id: 42,
            psk: fuzz_psk(),
            forward_secrecy: false,
        });
        config
    }

    fn server_config(&self) -> ServerConfig {
        let mut config = ServerConfig::new(self.identity.clone(), self.ca.verifying_key());
        config.resumption_psks.insert(42, fuzz_psk());
        config
    }
}

fn fuzz_psk() -> Secret {
    Secret::from_slice(&[0x42u8; 32]).expect("32-byte PSK")
}

/// Produces one valid (client machine, server flight) pair.  `full` selects
/// the certificate handshake; otherwise the cheap PSK resumption path.
fn client_round(pki: &TestPki, full: bool) -> (ClientMachine, Vec<u8>) {
    let config = if full {
        pki.client_config()
    } else {
        pki.resuming_client_config()
    };
    let (client, hello) = ClientMachine::start(config, ClientMode::Full).expect("client start");
    let mut server = ServerMachine::new(pki.server_config(), None);
    let outcome = server
        .on_flight(&hello, None)
        .expect("server accepts hello");
    (client, outcome.reply.expect("server flight"))
}

fn fuzz_crypto_handshake_msg(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let pki = TestPki::new();
    // Corpus: every flight of one full handshake (ClientHello, the server
    // flight with certificate/CV/Finished, the client Finished) plus a
    // resumption ClientHello with PSK identity and binder.
    let (mut client, server_flight) = client_round(&pki, true);
    let hello = {
        let (_, hello) =
            ClientMachine::start(pki.client_config(), ClientMode::Full).expect("client start");
        hello
    };
    let finished = client
        .on_server_flight(&server_flight)
        .expect("client completes")
        .reply
        .expect("client Finished flight");
    let resumed_hello = {
        let (_, hello) = ClientMachine::start(pki.resuming_client_config(), ClientMode::Full)
            .expect("resuming client start");
        hello
    };
    let corpus = [hello, server_flight, finished, resumed_hello];

    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = match i % 3 {
            // Valid flight: decode and re-encode to identical bytes.  The
            // server flight is a protected record, not a raw flight, so
            // decode_flight legitimately rejects it — both outcomes count.
            0 => {
                let valid = &corpus[m.below(corpus.len())];
                match decode_flight(valid) {
                    Ok(messages) => {
                        assert_eq!(
                            &encode_flight(&messages),
                            valid,
                            "flight round-trip identity"
                        );
                        // Each message also round-trips individually.
                        for message in &messages {
                            let encoded = message.encode();
                            let decoded =
                                HandshakeMessage::decode(&encoded).expect("message decodes");
                            assert_eq!(&decoded, message, "message round-trip identity");
                        }
                        true
                    }
                    Err(_) => false,
                }
            }
            1 => {
                let at = m.below(corpus.len());
                decode_flight(&m.mutate(&corpus[at])).is_ok()
            }
            _ => {
                let soup = m.arbitrary(512);
                let mut any = decode_flight(&soup).is_ok();
                any |= HandshakeMessage::decode(&soup).is_ok();
                any
            }
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "crypto_handshake_msg",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_crypto_client_flight(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let pki = TestPki::new();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        // The certificate path is ~10x the PSK path; sample it 1-in-16 so a
        // 10k-iteration run still covers it hundreds of times.
        let (mut client, server_flight) = client_round(&pki, i % 16 == 0);
        let ok = match i % 4 {
            // The untampered flight must complete the handshake.
            0 => {
                let outcome = client
                    .on_server_flight(&server_flight)
                    .expect("valid server flight accepted");
                assert!(outcome.keys.is_some(), "completion produces session keys");
                true
            }
            3 => {
                let soup = m.arbitrary(2048);
                client.on_server_flight(&soup).is_ok()
            }
            _ => {
                // In-place corruption only: appended trailing bytes are
                // legitimately ignored by the record parser, but every byte
                // *within* the flight is covered by the record AEAD, the
                // transcript signature or the Finished MAC.
                let corrupted = m.corrupt(&server_flight);
                if corrupted == server_flight {
                    // The corruption happened to be the identity; nothing to assert.
                    client.on_server_flight(&corrupted).is_ok()
                } else {
                    let result = client.on_server_flight(&corrupted);
                    assert!(
                        result.is_err(),
                        "tampered server flight rejected (iteration {i}, seed {seed})"
                    );
                    false
                }
            }
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "crypto_client_flight",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_crypto_server_flight(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let pki = TestPki::new();
    let issuer = SmtTicketIssuer::new(pki.identity.clone(), 3600);
    let ticket = issuer.ticket(1_000);
    let mut replay = ReplayCache::new(4096);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = if i % 16 == 8 {
            // 0-RTT path: a fresh ticket ClientHello must be accepted once and
            // rejected as a replay on re-presentation; mutated copies must
            // never panic the server.
            let (_, hello) = ClientMachine::start(
                pki.client_config(),
                ClientMode::ZeroRtt {
                    ticket: ticket.clone(),
                    early_data: b"early".to_vec(),
                    forward_secrecy: false,
                    now: 1_001,
                },
            )
            .expect("0-RTT client start");
            let mut server = ServerMachine::new(pki.server_config(), None);
            let outcome = server
                .on_flight(
                    &hello,
                    Some(ZeroRttContext {
                        issuer: &issuer,
                        replay: &mut replay,
                    }),
                )
                .expect("fresh 0-RTT hello accepted");
            assert_eq!(
                outcome.early_data.as_deref(),
                Some(&b"early"[..]),
                "early data decrypted on accept"
            );
            let mut second = ServerMachine::new(pki.server_config(), None);
            assert!(
                second
                    .on_flight(
                        &hello,
                        Some(ZeroRttContext {
                            issuer: &issuer,
                            replay: &mut replay,
                        }),
                    )
                    .is_err(),
                "replayed 0-RTT hello rejected (iteration {i}, seed {seed})"
            );
            let mut third = ServerMachine::new(pki.server_config(), None);
            let _ = third.on_flight(
                &m.mutate(&hello),
                Some(ZeroRttContext {
                    issuer: &issuer,
                    replay: &mut replay,
                }),
            );
            true
        } else {
            // 1-RTT / resumption path.  An unauthenticated ClientHello is
            // *allowed* to survive mutation (a flipped random is just a
            // different hello); the property is no-panic plus typed errors.
            let full = i % 16 == 0;
            let config = if full {
                pki.client_config()
            } else {
                pki.resuming_client_config()
            };
            let (_, hello) = ClientMachine::start(config, ClientMode::Full).expect("client start");
            let mut server = ServerMachine::new(pki.server_config(), None);
            let input = match i % 4 {
                0 => hello.clone(),
                3 => m.arbitrary(1024),
                _ => m.mutate(&hello),
            };
            let result = server.on_flight(&input, None);
            if input == hello {
                assert!(result.is_ok(), "valid ClientHello accepted");
            }
            result.is_ok()
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "crypto_server_flight",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_crypto_derived_flight(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let pki = TestPki::new();
    // The path secret under test is minted from a real completed handshake,
    // exactly as the transport layer does it.
    let (mut client, server_flight) = client_round(&pki, true);
    let keys = client
        .on_server_flight(&server_flight)
        .expect("client completes")
        .keys
        .expect("completion produces session keys");
    let path = PathSecret::mint(&keys, "server.fuzz.local");
    let mut map = PathSecretMap::new(16);
    map.insert(path.clone());
    let mut replay = ReplayCache::new(4096);

    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let ok = match i % 4 {
            // The untampered hello is accepted exactly once (the replay cache
            // rejects a re-presentation), the accept flight completes the
            // client, and both sides agree on the early data.
            0 => {
                let (dc, hello) = DerivedClient::start(&path, b"early").expect("derived start");
                assert!(is_derived_flight(&hello), "hello is recognizably derived");
                let DerivedServerOutcome::Accepted(response) =
                    derived_server_respond(&map, &mut replay, &hello)
                        .expect("fresh derived hello accepted")
                else {
                    panic!("held path secret reported unknown (iteration {i}, seed {seed})");
                };
                assert_eq!(
                    response.early_data.as_deref(),
                    Some(&b"early"[..]),
                    "early data decrypted on accept"
                );
                assert!(
                    derived_server_respond(&map, &mut replay, &hello).is_err(),
                    "replayed derived hello rejected (iteration {i}, seed {seed})"
                );
                let DerivedClientOutcome::Complete(_) = dc
                    .on_server_flight(&response.flight)
                    .expect("valid accept flight verifies")
                else {
                    panic!("valid accept flight did not complete (iteration {i}, seed {seed})");
                };
                true
            }
            // In-place corruption of the hello: every byte is covered by the
            // path-secret MAC, the early-data AEAD, or the id lookup, so a
            // changed flight must never be accepted — a typed error or an
            // unknown-path reject, never a panic, never keys.
            1 => {
                let (_, hello) = DerivedClient::start(&path, b"early").expect("derived start");
                let corrupted = m.corrupt(&hello);
                let _ = is_derived_flight(&corrupted);
                if corrupted == hello {
                    // Identity corruption: consume the hello as the valid slice does.
                    derived_server_respond(&map, &mut replay, &corrupted).is_ok()
                } else {
                    match derived_server_respond(&map, &mut replay, &corrupted) {
                        Ok(DerivedServerOutcome::Accepted(_)) => {
                            panic!("tampered derived hello accepted (iteration {i}, seed {seed})")
                        }
                        Ok(DerivedServerOutcome::Unknown { .. }) => false,
                        Err(_) => false,
                    }
                }
            }
            // In-place corruption of the accept flight: the client must never
            // complete from it (a parse/MAC error or a reject-shaped flight
            // that triggers fallback are both safe outcomes).
            2 => {
                let (dc, hello) = DerivedClient::start(&path, b"").expect("derived start");
                let DerivedServerOutcome::Accepted(response) =
                    derived_server_respond(&map, &mut replay, &hello)
                        .expect("fresh derived hello accepted")
                else {
                    panic!("held path secret reported unknown (iteration {i}, seed {seed})");
                };
                let corrupted = m.corrupt(&response.flight);
                match dc.on_server_flight(&corrupted) {
                    Ok(DerivedClientOutcome::Complete(_)) => {
                        assert_eq!(
                            corrupted, response.flight,
                            "tampered accept flight completed (iteration {i}, seed {seed})"
                        );
                        true
                    }
                    Ok(DerivedClientOutcome::Rejected { .. }) => false,
                    Err(_) => false,
                }
            }
            // Byte soup into both sides, plus the reject-flight round trip.
            _ => {
                let soup = m.arbitrary(512);
                let _ = is_derived_flight(&soup);
                let server_ok = derived_server_respond(&map, &mut replay, &soup)
                    .is_ok_and(|o| matches!(o, DerivedServerOutcome::Accepted(_)));
                assert!(
                    !server_ok,
                    "byte soup forged a hello (iteration {i}, seed {seed})"
                );
                let (dc, _) = DerivedClient::start(&path, b"").expect("derived start");
                if let Ok(DerivedClientOutcome::Complete(_)) = dc.on_server_flight(&soup) {
                    panic!("byte soup forged an accept (iteration {i}, seed {seed})");
                }
                let reject = derived_reject_flight("fuzz reason");
                match dc.on_server_flight(&reject).expect("reject flight parses") {
                    DerivedClientOutcome::Rejected { reason } => {
                        assert_eq!(reason, "fuzz reason", "reject reason round-trips")
                    }
                    DerivedClientOutcome::Complete(_) => {
                        panic!("reject flight completed (iteration {i}, seed {seed})")
                    }
                }
                false
            }
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "crypto_derived_flight",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_transport_listener_demux(iters: u64, seed: u64) -> FuzzReport {
    use smt_transport::{ConnectConfig, Endpoint, Listener, SecureEndpoint};

    let mut m = Mutator::new(seed);
    let ca = CertificateAuthority::new("fuzz-demux-ca");
    let identity = ca.issue_identity("server.fuzz.local");
    const CAPACITY: usize = 8;
    let mut listener = Listener::new(
        Endpoint::builder().stack(smt_transport::StackKind::SmtSw),
        identity,
        ca.verifying_key(),
        CAPACITY,
    );
    // Valid corpus: the first flight of a real connect on each of four
    // connection IDs, as encoded wire bytes.
    let corpus: Vec<Vec<u8>> = (1..=4u32)
        .flat_map(|cid| {
            let mut client = Endpoint::builder()
                .stack(smt_transport::StackKind::SmtSw)
                .connection_id(cid)
                .path(smt_core::segment::PathInfo::pair(4000, 5201).0)
                .connect(ConnectConfig::new(ca.verifying_key(), "server.fuzz.local"))
                .expect("demux client");
            client.send(b"hello listener", 0).expect("queue request");
            let mut flight = Vec::new();
            client.poll_transmit(0, &mut flight);
            flight
                .iter()
                .map(|p| {
                    let mut buf = vec![0u8; p.wire_len()];
                    let n = p.encode(&mut buf).expect("encode corpus packet");
                    buf.truncate(n);
                    buf
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        let now = i;
        let ok = match i % 3 {
            // Valid first-flight packets demux into per-connection endpoints
            // (re-presenting them later is a carrier-level duplicate).
            0 => {
                let bytes = &corpus[m.below(corpus.len())];
                let (packet, _) = Packet::decode(bytes).expect("valid corpus packet decodes");
                listener.handle_datagram(&packet, now).is_ok()
            }
            // Byte-level mutations: whatever still parses as a packet goes
            // straight into the demux path.
            1 => {
                let at = m.below(corpus.len());
                match Packet::decode(&m.mutate(&corpus[at])) {
                    Ok((packet, _)) => listener.handle_datagram(&packet, now).is_ok(),
                    Err(_) => false,
                }
            }
            // Structurally valid packets with adversarial demux coordinates:
            // random/zero/known connection IDs, random packet types and
            // epochs.  Unknown-ID data is dropped and counted; unknown-ID
            // control packets spawn connections into the bounded table.
            _ => {
                let bytes = &corpus[m.below(corpus.len())];
                let (mut packet, _) = Packet::decode(bytes).expect("valid corpus packet decodes");
                packet.overlay.options.connection_id = match m.below(4) {
                    0 => 0,
                    1 => 1 + m.below(4) as u32,
                    _ => m.rng.gen(),
                };
                packet.overlay.options.epoch = m.rng.gen();
                if m.below(2) == 0 {
                    let types = [
                        PacketType::Data,
                        PacketType::Grant,
                        PacketType::Resend,
                        PacketType::Ack,
                        PacketType::Control,
                    ];
                    packet.overlay.tcp.packet_type = types[m.below(types.len())];
                }
                listener.handle_datagram(&packet, now).is_ok()
            }
        };
        // The hard invariants, checked every input: the connection table
        // never exceeds its bound, and forged traffic never panics the
        // listener or grows its event queue without bound.
        assert!(
            listener.len() <= CAPACITY,
            "listener table exceeded capacity (iteration {i}, seed {seed})"
        );
        while listener.poll_event().is_some() {}
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "transport_listener_demux",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_record_open_batch(iters: u64, seed: u64) -> FuzzReport {
    let mut m = Mutator::new(seed);
    let secret = Secret::from_slice(&[0x5c; 32]).expect("32-byte secret");
    let suite = CipherSuite::default();
    let sealer = RecordProtector::from_secret(suite, &secret).expect("sealer");
    let mut opener = RecordProtector::from_secret(suite, &secret).expect("opener");
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        // Seal a batch of 1..=4 records with random plaintexts.
        let count = 1 + m.below(4);
        let first_seq = m.rng.gen::<u32>() as u64;
        let plaintexts: Vec<Vec<u8>> = (0..count).map(|_| m.arbitrary(1200)).collect();
        let parts: Vec<[&[u8]; 1]> = plaintexts.iter().map(|p| [p.as_slice()]).collect();
        let requests: Vec<SealRequest<'_>> = parts
            .iter()
            .enumerate()
            .map(|(k, part)| SealRequest {
                seq: first_seq + k as u64,
                content_type: ContentType::ApplicationData,
                parts: &part[..],
                padding: Padding::Default,
            })
            .collect();
        let mut wire_buf = BytesMut::new();
        sealer
            .seal_batch_into(&requests, &mut wire_buf)
            .expect("seal batch");
        let wire = wire_buf.into_vec();

        let ok = match i % 4 {
            // The untampered batch opens to the original plaintexts.
            0 => {
                let batch = opener
                    .open_batch(first_seq, count, &wire)
                    .expect("valid batch opens");
                assert_eq!(batch.consumed, wire.len());
                assert_eq!(batch.len(), count);
                for (k, record) in batch.iter().enumerate() {
                    assert_eq!(record.plaintext, &plaintexts[k][..], "record {k} plaintext");
                    assert_eq!(record.content_type, ContentType::ApplicationData);
                }
                // The same bytes cut into arbitrary packets (headers and tags
                // may straddle the cuts) open identically.
                let mut chunks: Vec<&[u8]> = Vec::new();
                let mut rest = &wire[..];
                while !rest.is_empty() {
                    let (chunk, later) = rest.split_at(1 + m.below(rest.len().min(1500)));
                    chunks.push(chunk);
                    rest = later;
                }
                let batch = opener
                    .open_batch_chunked(first_seq, count, chunks)
                    .expect("valid chunked batch opens");
                assert_eq!(batch.consumed, wire.len());
                for (k, record) in batch.iter().enumerate() {
                    assert_eq!(record.plaintext, &plaintexts[k][..], "chunked record {k}");
                }
                true
            }
            // Tamper evidence: any in-place bit flip lands in the header
            // (authenticated as AAD) or the ciphertext/tag, so the batch must
            // never open.
            1 => {
                let mut tampered = wire.clone();
                let at = m.below(tampered.len());
                tampered[at] ^= 1 << m.below(8);
                assert!(
                    opener.open_batch(first_seq, count, &tampered).is_err(),
                    "bit-flipped batch rejected (iteration {i}, seed {seed})"
                );
                false
            }
            // Truncation and wrong sequence numbers are typed errors too.
            2 => {
                let cut = m.below(wire.len());
                assert!(
                    opener.open_batch(first_seq, count, &wire[..cut]).is_err(),
                    "truncated batch rejected (iteration {i}, seed {seed})"
                );
                assert!(
                    opener
                        .open_batch(first_seq.wrapping_add(1), count, &wire)
                        .is_err(),
                    "wrong-sequence batch rejected (iteration {i}, seed {seed})"
                );
                false
            }
            // Arbitrary bytes cannot forge the AEAD.
            _ => {
                let soup = m.arbitrary(4096);
                assert!(
                    opener.open_batch(first_seq, 1, &soup).is_err(),
                    "arbitrary bytes rejected (iteration {i}, seed {seed})"
                );
                false
            }
        };
        if ok {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "record_open_batch",
        iterations: iters,
        accepted,
        rejected,
    }
}

fn fuzz_cc_control_frames(iters: u64, seed: u64) -> FuzzReport {
    use smt_transport::cc::{
        MsgView, SrptGrantScheduler, MAX_CWND_BYTES, MAX_GRANT_BACKLOG_PACKETS, MIN_CWND_BYTES,
        PRIORITY_LEVELS,
    };
    use smt_transport::DctcpWindow;
    use smt_wire::{SackRange, SmtSack};

    let mut m = Mutator::new(seed);
    // Long-lived consumers: state accumulated across iterations reaches
    // deeper than a fresh machine per input would.
    let mut window = DctcpWindow::new();
    let mut scheduler = SrptGrantScheduler::new();
    let mut acked = 0u64;
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        // A structurally valid frame per iteration; odd iterations mutate
        // its encoding before decoding.
        let buf = match i % 3 {
            0 => {
                let ack_offset = acked + m.below(1 << 20) as u64;
                let mut ranges = Vec::new();
                let mut floor = ack_offset;
                for _ in 0..m.below(SmtSack::MAX_RANGES + 1) {
                    let start = floor + 1 + m.below(4096) as u64;
                    let end = start + 1 + m.below(8192) as u64;
                    ranges.push(SackRange { start, end });
                    floor = end;
                }
                let total = m.rng.gen::<u16>();
                let sack = SmtSack {
                    ack_offset,
                    ecn_ce: if total == 0 {
                        0
                    } else {
                        m.rng.gen_range(0..=total)
                    },
                    ecn_total: total,
                    ranges,
                };
                let mut out = vec![0u8; sack.wire_len()];
                let n = sack.encode(&mut out).expect("valid sack encodes");
                out.truncate(n);
                out
            }
            1 => {
                let grant = HomaGrant {
                    message_id: m.rng.gen(),
                    granted_offset: m.rng.gen(),
                    priority: m.rng.gen(),
                };
                let mut out = vec![0u8; 16];
                let n = grant.encode(&mut out).expect("grant encodes");
                out.truncate(n);
                out
            }
            _ => {
                let resend = HomaResend {
                    message_id: m.rng.gen(),
                    offset: m.rng.gen(),
                    length: m.rng.gen(),
                    priority: m.rng.gen(),
                };
                let mut out = vec![0u8; 24];
                let n = resend.encode(&mut out).expect("resend encodes");
                out.truncate(n);
                out
            }
        };
        let input = match (i / 3) % 3 {
            0 => buf,
            1 => m.mutate(&buf),
            _ => m.arbitrary(96),
        };

        // Decode as every control-frame codec; whatever survives decoding
        // drives the live congestion controllers.
        let mut any = false;
        if let Ok((sack, _)) = SmtSack::decode(&input) {
            any = true;
            // The decoder enforces the frame invariants even on mutated
            // input: whatever it accepts must be internally consistent.
            assert!(
                sack.ecn_ce <= sack.ecn_total,
                "decoded SACK with ce {} > total {} (iteration {i}, seed {seed})",
                sack.ecn_ce,
                sack.ecn_total
            );
            let mut floor = sack.ack_offset;
            for r in &sack.ranges {
                assert!(
                    r.start >= floor && r.end > r.start,
                    "decoded SACK range [{}, {}) violates floor {floor}",
                    r.start,
                    r.end
                );
                floor = r.end;
            }
            // Feed the DCTCP window exactly as the stream endpoint would: an
            // adversarial echo must never push the window outside its
            // bounds.
            let newly = sack.ack_offset.saturating_sub(acked);
            acked = acked.max(sack.ack_offset);
            window.on_ack(
                newly,
                u64::from(sack.ecn_ce),
                u64::from(sack.ecn_total),
                i.wrapping_mul(7) + 1,
            );
            if i % 17 == 0 {
                window.on_loss(i.wrapping_mul(7) + 1);
            }
            assert!(
                window.window() <= MAX_CWND_BYTES,
                "SACK echo inflated cwnd past the ceiling (iteration {i}, seed {seed})"
            );
            assert!(
                window.window() >= MIN_CWND_BYTES,
                "SACK echo collapsed cwnd below one MSS (iteration {i}, seed {seed})"
            );
        }
        if let Ok((grant, _)) = HomaGrant::decode(&input) {
            any = true;
            // A forged grant feeds the SRPT scheduler as a message view; the
            // decisions must stay inside every bound.
            let total = (grant.granted_offset as usize) % 512;
            let seen = m.below(total + 1);
            let views = [MsgView {
                id: grant.message_id,
                seen,
                granted: seen,
                total,
            }];
            let backlog_before = seen;
            for d in scheduler.schedule(&views) {
                assert!(
                    (d.granted_packets as usize) <= total + 4,
                    "grant decision overshoots the message (iteration {i}, seed {seed})"
                );
                assert!(
                    (d.granted_packets as usize).saturating_sub(backlog_before)
                        <= MAX_GRANT_BACKLOG_PACKETS,
                    "grant decision exceeds the backlog cap (iteration {i}, seed {seed})"
                );
                assert!(
                    d.priority < PRIORITY_LEVELS,
                    "grant priority outside the priority levels (iteration {i}, seed {seed})"
                );
            }
        }
        if let Ok((resend, _)) = HomaResend::decode(&input) {
            any = true;
            // Nothing stateful consumes a raw RESEND here; decoding without
            // panic plus byte-exact re-encode is the contract.
            let mut out = vec![0u8; 24];
            let n = resend.encode(&mut out).expect("re-encode decoded resend");
            assert_eq!(&out[..n], &input[..n], "resend round-trip");
        }
        if any {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    FuzzReport {
        target: "cc_control_frames",
        iterations: iters,
        accepted,
        rejected,
    }
}

/// Target 12 — the application wire codecs behind the figure pipeline: KV
/// request/response framing ([`KvRequest`]/[`KvResponse`]) and the NVMe-oF
/// command capsule ([`BlockRequest`]), fed straight into the long-lived
/// servers (`KvStore::handle_wire`, `BlockStore::handle_wire`) exactly as a
/// network peer would.  Contract: mutated framing never panics, the servers
/// answer garbage with typed error responses, accepted requests round-trip
/// canonically, and server state stays bounded by what was legitimately
/// accepted (garbage never creates keys or blocks).
fn fuzz_apps_codec(iters: u64, seed: u64) -> FuzzReport {
    use smt_apps::blockstore::RESPONSE_HEADER_BYTES;
    use smt_apps::{BlockRequest, BlockStore, BlockStoreConfig, KvRequest, KvResponse, KvStore};

    let mut m = Mutator::new(seed);
    let kv_records = 64usize;
    let block_config = BlockStoreConfig {
        blocks: 4_096,
        block_size: 512,
        ..BlockStoreConfig::default()
    };
    // Long-lived servers: state accumulated across iterations (written
    // blocks, inserted keys) reaches deeper than a fresh store per input.
    let mut kv = KvStore::new();
    kv.load(kv_records, 100);
    let mut blocks = BlockStore::new(block_config);
    let mut puts_accepted = 0usize;
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..iters {
        // A structurally valid encoding per iteration; two thirds of the
        // inputs are mutated copies or raw byte soup.
        let base = match i % 4 {
            0 => {
                let key = format!("user{:08}", m.below(kv_records * 2));
                match m.below(4) {
                    0 => KvRequest::Get { key },
                    1 => KvRequest::Put {
                        key,
                        value: m.arbitrary(256),
                    },
                    2 => KvRequest::Scan {
                        start: key,
                        count: m.below(64) as u32,
                    },
                    _ => KvRequest::Delete { key },
                }
                .encode()
            }
            1 => {
                let lba = m.below(block_config.blocks as usize * 2) as u64;
                if m.below(2) == 0 {
                    BlockRequest::Read { lba }.encode(None)
                } else {
                    BlockRequest::Write { lba }.encode(Some(&m.arbitrary(block_config.block_size)))
                }
            }
            2 => match m.below(4) {
                0 => KvResponse::Value(m.arbitrary(256)),
                1 => KvResponse::Values(vec![m.arbitrary(64), m.arbitrary(64)]),
                2 => KvResponse::Ok,
                _ => KvResponse::NotFound,
            }
            .encode(),
            _ => BlockRequest::encode_response(m.rng.gen(), m.rng.gen(), &m.arbitrary(128)),
        };
        let input = match (i / 4) % 3 {
            0 => base,
            1 => m.mutate(&base),
            _ => m.arbitrary(160),
        };

        let mut any = false;
        if let Some(req) = KvRequest::decode(&input) {
            any = true;
            // Canonical round trip: re-encoding what the parser accepted and
            // re-parsing it lands on the same request.
            let canonical = req.encode();
            assert_eq!(
                KvRequest::decode(&canonical).as_ref(),
                Some(&req),
                "KV request canonical round-trip (iteration {i}, seed {seed})"
            );
            if matches!(req, KvRequest::Put { .. }) {
                puts_accepted += 1;
            }
        }
        // The server answers *every* input — garbage included — with a
        // well-formed, decodable response and never panics.
        let kv_resp = kv.handle_wire(&input);
        assert!(
            KvResponse::decode(&kv_resp).is_some(),
            "KV server emitted an undecodable response (iteration {i}, seed {seed})"
        );
        assert!(
            kv.len() <= kv_records + puts_accepted,
            "KV store grew past the accepted puts: {} keys after {} puts \
             (iteration {i}, seed {seed})",
            kv.len(),
            puts_accepted
        );

        if let Some((breq, payload)) = BlockRequest::decode(&input) {
            any = true;
            let canonical = breq.encode(payload.as_deref());
            assert_eq!(
                BlockRequest::decode(&canonical),
                Some((breq, payload)),
                "block capsule canonical round-trip (iteration {i}, seed {seed})"
            );
        }
        let (block_resp, device_ns) = blocks.handle_wire(&input);
        assert!(
            block_resp.len() >= RESPONSE_HEADER_BYTES,
            "block response lost its completion header (iteration {i}, seed {seed})"
        );
        if block_resp[0] != 0 {
            // Rejected capsules (malformed or out-of-range LBA) must not
            // touch the media or return data.
            assert_eq!(device_ns, 0, "rejected capsule charged device time");
            assert_eq!(
                block_resp.len(),
                RESPONSE_HEADER_BYTES,
                "rejected capsule returned data (iteration {i}, seed {seed})"
            );
        }
        if KvResponse::decode(&input).is_some() {
            any = true;
        }

        if any {
            accepted += 1;
        } else {
            rejected += 1;
        }

        // Bound harness memory on long runs without weakening the growth
        // invariant above: periodically reset to the freshly loaded state.
        if i % 4_096 == 4_095 {
            kv = KvStore::new();
            kv.load(kv_records, 100);
            puts_accepted = 0;
            blocks = BlockStore::new(block_config);
        }
    }
    FuzzReport {
        target: "apps_codec",
        iterations: iters,
        accepted,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke coverage: every target survives a few hundred iterations.  CI's
    /// fuzz-smoke job runs the binary for ≥10k iterations per target.
    #[test]
    fn every_target_survives_a_short_run() {
        for name in target_names() {
            let report = run_target(name, 200, 1).expect("known target");
            assert_eq!(report.iterations, 200);
            assert_eq!(
                report.accepted + report.rejected,
                200,
                "{name}: counters add up"
            );
        }
    }

    #[test]
    fn wire_targets_both_accept_and_reject() {
        for name in [
            "wire_packet",
            "wire_overlay",
            "wire_framing",
            "wire_tls_record",
        ] {
            let report = run_target(name, 300, 7).expect("known target");
            assert!(report.accepted > 0, "{name}: valid corpus accepted");
            assert!(report.rejected > 0, "{name}: malformed inputs rejected");
        }
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let a = run_target("wire_packet", 250, 99).unwrap();
        let b = run_target("wire_packet", 250, 99).unwrap();
        assert_eq!(a, b);
        let c = run_target("wire_packet", 250, 100).unwrap();
        // Same iteration count, but the accept/reject split shifts with the seed.
        assert_eq!(c.iterations, 250);
    }

    #[test]
    fn unknown_target_is_refused() {
        assert!(run_target("no_such_target", 10, 1).is_none());
    }

    #[test]
    fn machine_targets_reject_tampered_flights() {
        // 64 iterations crosses both the full-handshake (i % 16 == 0) and the
        // 0-RTT (i % 16 == 8) slices at least twice each.
        let client = run_target("crypto_client_flight", 64, 3).unwrap();
        assert!(client.accepted > 0, "valid flights complete");
        assert!(client.rejected > 0, "tampered flights rejected");
        let server = run_target("crypto_server_flight", 64, 3).unwrap();
        assert!(server.accepted > 0, "valid hellos accepted");
        let record = run_target("record_open_batch", 64, 3).unwrap();
        assert!(record.accepted > 0 && record.rejected > 0);
    }

    #[test]
    fn forged_message_geometry_cannot_size_an_allocation() {
        // A first packet declaring a 4 GiB message and a segment just under
        // its end.  CI runs this suite under `ulimit -v`: a reassembly buffer
        // sized from either declared length aborts here instead of hiding
        // behind overcommit.
        use smt_core::reassembly::SmtReceiver;
        use smt_core::segment::{PathInfo, SmtSegmenter};
        use smt_core::SmtConfig;
        use smt_crypto::SeqnoLayout;

        let secret = Secret::from_slice(&[0x5c; 32]).expect("32-byte secret");
        let cipher = || RecordProtector::from_secret(CipherSuite::default(), &secret).unwrap();
        for config in [SmtConfig::software(), SmtConfig::plaintext()] {
            let encrypted = config.crypto_mode.is_encrypted();
            let tx = cipher();
            let segmenter = SmtSegmenter::new(config, SeqnoLayout::default());
            let message = segmenter
                .segment_message(
                    PathInfo::loopback(1, 2),
                    0,
                    &[0xee; 1000],
                    0,
                    encrypted.then_some(&tx),
                    None,
                    1 << 20,
                )
                .unwrap();
            let mut forged = message.segments[0].packetize(1500).unwrap().remove(0);
            forged.overlay.options.message_length = u32::MAX;
            forged.overlay.options.tso_offset = u32::MAX - 4096;
            let payload = forged.payload.as_data().unwrap().len();
            let mut rx = SmtReceiver::new(config, SeqnoLayout::default(), encrypted.then(cipher));
            assert!(rx.on_packet(&forged).unwrap().is_none());
            // Plaintext counts the packet view and the placed copy.
            let bound = if encrypted { payload } else { 2 * payload };
            assert!(
                rx.tracked_bytes() <= bound,
                "{} > {bound}",
                rx.tracked_bytes()
            );
        }
    }

    #[test]
    fn cc_control_frames_target_accepts_and_rejects() {
        // 300 iterations crosses every (frame kind × input treatment) slice
        // of the 3×3 schedule many times.
        let report = run_target("cc_control_frames", 300, 5).unwrap();
        assert!(report.accepted > 0, "valid control frames decoded");
        assert!(report.rejected > 0, "byte soup rejected by every codec");
    }

    #[test]
    fn apps_codec_target_accepts_and_rejects() {
        // 600 iterations crosses every (encoding kind × input treatment)
        // slice of the 4×3 schedule many times.
        let report = run_target("apps_codec", 600, 5).unwrap();
        assert!(report.accepted > 0, "valid app framing decoded");
        assert!(report.rejected > 0, "byte soup rejected by every app codec");
    }

    #[test]
    fn derived_and_demux_targets_accept_and_reject() {
        // 64 iterations crosses every i % 4 slice of the derived codec
        // target (valid / corrupt hello / corrupt accept / soup) many times.
        let derived = run_target("crypto_derived_flight", 64, 3).unwrap();
        assert!(derived.accepted > 0, "valid derived flights complete");
        assert!(derived.rejected > 0, "tampered derived flights rejected");
        let demux = run_target("transport_listener_demux", 150, 3).unwrap();
        assert!(demux.accepted > 0, "valid packets demuxed");
        assert!(demux.rejected > 0, "mangled packets dropped");
    }
}
