//! Error type shared by all cryptographic operations.

use thiserror::Error;

/// Errors produced by the SMT cryptography layer.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// AEAD decryption failed: the ciphertext or tag was tampered with, the wrong
    /// key/nonce was used, or an out-of-sequence NIC offload corrupted the record.
    #[error("AEAD authentication failed")]
    AuthenticationFailed,

    /// A key, IV or other parameter had the wrong length.
    #[error("invalid {what} length: expected {expected}, got {got}")]
    InvalidLength {
        /// What was being checked.
        what: &'static str,
        /// Expected byte length.
        expected: usize,
        /// Actual byte length.
        got: usize,
    },

    /// The composite sequence number space was exhausted or mis-used.
    #[error("sequence number error: {0}")]
    Seqno(String),

    /// A handshake message was malformed or arrived out of order.
    #[error("handshake error: {0}")]
    Handshake(String),

    /// Signature creation or verification failed.
    #[error("signature error: {0}")]
    Signature(String),

    /// Certificate validation failed (unknown issuer, expired ticket, bad chain).
    #[error("certificate error: {0}")]
    Certificate(String),

    /// A record exceeded the maximum TLS record size.
    #[error("record too large: {size} > {max}")]
    RecordTooLarge {
        /// Attempted record size.
        size: usize,
        /// Maximum allowed.
        max: usize,
    },

    /// Wire-format error bubbled up from `smt-wire`.
    #[error("wire error: {0}")]
    Wire(#[from] smt_wire::WireError),

    /// Replay detected: a message ID or record sequence number was reused.
    #[error("replay detected: {0}")]
    Replay(String),
}

impl CryptoError {
    /// Convenience constructor for handshake errors.
    pub fn handshake(msg: impl Into<String>) -> Self {
        CryptoError::Handshake(msg.into())
    }

    /// Convenience constructor for seqno errors.
    pub fn seqno(msg: impl Into<String>) -> Self {
        CryptoError::Seqno(msg.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(CryptoError::AuthenticationFailed
            .to_string()
            .contains("authentication"));
        assert!(CryptoError::handshake("bad flight")
            .to_string()
            .contains("bad flight"));
        let e = CryptoError::InvalidLength {
            what: "key",
            expected: 16,
            got: 5,
        };
        assert!(e.to_string().contains("16"));
    }

    #[test]
    fn wire_error_converts() {
        let w = smt_wire::WireError::UnknownPacketType(3);
        let c: CryptoError = w.into();
        assert!(matches!(c, CryptoError::Wire(_)));
    }
}
