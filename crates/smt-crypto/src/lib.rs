//! # smt-crypto — cryptography for the Secure Message Transport protocol
//!
//! This crate provides every cryptographic building block SMT needs, mirroring the
//! design of the paper *"Designing Transport-Level Encryption for Datacenter
//! Networks"*:
//!
//! * [`aead`] — AES-128/256-GCM AEAD with the TLS 1.3 per-record nonce
//!   construction (static IV XOR record sequence number);
//! * [`seqno`] — the **composite 64-bit record sequence number** of §4.4.1: a
//!   configurable split between a message-ID field (upper bits, default 48) and an
//!   intra-message record index (lower bits, default 16), plus the Fig. 5
//!   trade-off computation;
//! * [`key_schedule`] — the TLS 1.3 key schedule (HKDF-SHA256 extract / expand
//!   label) producing handshake, application, resumption and exporter secrets;
//! * [`record`] — TLS 1.3 record protection (inner content type, optional padding
//!   for length concealment, AAD derived from the record header);
//! * [`cert`] — a minimal datacenter-internal certificate model: ECDSA-P256 keys,
//!   a single internal CA, short chains (§4.5.1);
//! * [`handshake`] — TLS 1.3-style handshakes: the standard 1-RTT exchange, the
//!   pre-shared-key resumption exchange, and the paper's **SMT-ticket 0-RTT**
//!   exchange with or without forward secrecy (§4.5.2/§4.5.3), all instrumented
//!   with the per-operation timing breakdown of Table 2.
//!
//! The crate is transport-agnostic: it never touches packets or sockets.  The SMT
//! protocol engine (`smt-core`) combines these primitives with the wire formats
//! from `smt-wire`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aead;
pub mod cert;
pub mod codec;
pub mod error;
pub mod handshake;
pub mod key_schedule;
pub mod record;
pub mod seqno;
pub mod suite;

pub use aead::{AeadAlgorithm, AeadKey, Iv, NONCE_LEN};
pub use aes_gcm::{active_tier, CryptoTier};
pub use cert::{Certificate, CertificateAuthority, CertificateChain, SigningKey, VerifyingKey};
pub use error::CryptoError;
pub use key_schedule::{KeySchedule, Secret, TrafficKeys};
pub use record::{OpenedRecord, Padding, RecordPlaintext, RecordProtector, RecordProtectorPair};
pub use seqno::{CompositeSeqno, SeqnoLayout};
pub use suite::CipherSuite;

/// Result alias for crypto operations.
pub type CryptoResult<T> = std::result::Result<T, CryptoError>;
