//! # smt-wire — wire formats for the Secure Message Transport (SMT) protocol
//!
//! This crate defines every on-the-wire structure used by SMT and the transports
//! it is evaluated against, following the packet layouts of the paper
//! *"Designing Transport-Level Encryption for Datacenter Networks"*:
//!
//! * the **generalized message-based transport header** (paper Fig. 1): source and
//!   destination ports, message ID, message length, and message offset;
//! * the **SMT TSO segment layout** (paper Fig. 3): an overlay TCP common header and
//!   option area carrying the message ID, message length, TSO offset, resend packet
//!   offset and packet type in plaintext, followed by one TLS record (record header,
//!   framing header(s), application data, authentication tag);
//! * the **TLS record header** (5 bytes) and AEAD tag accounting;
//! * the **framing header** that prefixes application data inside a record;
//! * **Homa control packets** (GRANT, RESEND, ACK) reused by SMT;
//! * minimal **IPv4/IPv6 headers** — enough for the simulator substrate and for the
//!   IPID-based packet-offset mechanism SMT uses to reassemble TSO segments.
//!
//! All structures offer `encode`/`decode` pairs operating on byte slices
//! (`bytes::BufMut`/`bytes::Buf` style), are independent of any particular I/O
//! substrate, and carry no allocation requirements beyond the payload itself.
//!
//! The crate is deliberately free of cryptography and transport logic; it is the
//! lowest layer of the workspace and is consumed by `smt-crypto`, `smt-core`,
//! `smt-sim` and `smt-transport`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod constants;
pub mod error;
pub mod framing;
pub mod homa;
pub mod ip;
pub mod message;
pub mod overlay;
pub mod packet;
pub mod tls_record;

pub use constants::*;
pub use error::WireError;
pub use framing::FramingHeader;
pub use homa::{HomaAck, HomaGrant, HomaResend, PacketType, SackRange, SmtSack};
pub use ip::{IpHeader, Ipv4Header, Ipv6Header};
pub use message::{MessageHeader, MESSAGE_HEADER_LEN};
pub use overlay::{OverlayTcpHeader, SmtOptionArea, SmtOverlayHeader, SMT_OVERLAY_LEN};
pub use packet::{Packet, PacketPayload, TlsOffloadDescriptor, TsoSegment};
pub use tls_record::{ContentType, TlsRecordHeader, LEGACY_RECORD_VERSION, MAX_RECORD_BODY};

/// Result alias used throughout the wire crate.
pub type WireResult<T> = std::result::Result<T, WireError>;
