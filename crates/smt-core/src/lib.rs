//! # smt-core — the Secure Message Transport protocol engine
//!
//! This crate implements the paper's primary contribution: **transport-level
//! encryption** for a message-based datacenter transport.  It combines the wire
//! formats of `smt-wire` with the cryptography of `smt-crypto` into an engine
//! that:
//!
//! * maintains an [`session::SmtSession`] established by a TLS 1.3 (or SMT-ticket)
//!   handshake, holding the traffic keys and the negotiated composite
//!   sequence-number layout;
//! * **segments** application messages into TLS records aligned to TSO-segment
//!   boundaries (paper §4.3), either encrypting in software or emitting
//!   autonomous-offload descriptors for the NIC ([`segment`]);
//! * **reassembles** messages on the receive side from out-of-order packets —
//!   packets → TSO segments (by IPID packet offset) → records (decrypted with the
//!   per-message record sequence space) → messages (by TSO offset) ([`reassembly`]);
//! * enforces **message uniqueness / non-replayability** (§4.4.1, §6.1) via
//!   [`replay::ReplayGuard`];
//! * manages **NIC flow contexts** per (5-tuple, queue) with resync-on-reuse
//!   semantics (§4.4.2, [`flow_context`]);
//! * provides the **kTLS/TCP record layer** used as the paper's baseline
//!   ([`ktls`]), which shares the record protection code but uses a single
//!   per-connection sequence space over an in-order bytestream.
//!
//! The engine is transport- and I/O-agnostic: `smt-transport` drives it over the
//! simulated Homa/TCP stacks, and the examples drive it directly in memory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod error;
pub mod flow_context;
pub mod ktls;
pub mod reassembly;
pub mod replay;
pub mod segment;
pub mod session;

pub use config::{CryptoMode, SmtConfig};
pub use error::SmtError;
pub use flow_context::{FlowContextManager, FlowContextUpdate};
pub use ktls::{KtlsReceiver, KtlsSender, KtlsSession};
pub use reassembly::{ReceivedMessage, SmtReceiver};
pub use replay::ReplayGuard;
pub use segment::{OutgoingMessage, SmtSegmenter};
pub use session::{SessionStats, SmtSession, NIC_QUEUES};

/// Result alias for the protocol engine.
pub type SmtResult<T> = std::result::Result<T, SmtError>;
