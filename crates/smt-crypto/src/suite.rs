//! Cipher suites supported by SMT.
//!
//! The paper's evaluation uses `TLS_AES_128_GCM_SHA256` (§5 "HW&OS"); the NIC used
//! also supports 256-bit keys (§7 "Post-quantum resistance"), so both AES-128-GCM
//! and AES-256-GCM are available here.  The hash for the key schedule is SHA-256
//! in both cases (as in `aes128gcmsha256`, the suite named in §5.6).

use crate::aead::AeadAlgorithm;
use serde::{Deserialize, Serialize};

/// A TLS 1.3 cipher suite as used by SMT sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum CipherSuite {
    /// TLS_AES_128_GCM_SHA256 — the suite used throughout the paper's evaluation.
    #[default]
    Aes128GcmSha256,
    /// TLS_AES_256_GCM_SHA384-style suite with a SHA-256 key schedule (the paper
    /// notes the NIC supports 256-bit keys for offload).
    Aes256GcmSha256,
}

impl CipherSuite {
    /// The AEAD algorithm of this suite.
    pub fn aead(self) -> AeadAlgorithm {
        match self {
            CipherSuite::Aes128GcmSha256 => AeadAlgorithm::Aes128Gcm,
            CipherSuite::Aes256GcmSha256 => AeadAlgorithm::Aes256Gcm,
        }
    }

    /// AEAD key length in bytes.
    pub fn key_len(self) -> usize {
        self.aead().key_len()
    }

    /// IANA-style code point (used in handshake negotiation).
    pub fn code(self) -> u16 {
        match self {
            CipherSuite::Aes128GcmSha256 => 0x1301,
            CipherSuite::Aes256GcmSha256 => 0x1302,
        }
    }

    /// Parses a code point back into a suite.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            0x1301 => Some(CipherSuite::Aes128GcmSha256),
            0x1302 => Some(CipherSuite::Aes256GcmSha256),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for s in [CipherSuite::Aes128GcmSha256, CipherSuite::Aes256GcmSha256] {
            assert_eq!(CipherSuite::from_code(s.code()), Some(s));
        }
        assert_eq!(CipherSuite::from_code(0xffff), None);
    }

    #[test]
    fn key_lengths() {
        assert_eq!(CipherSuite::Aes128GcmSha256.key_len(), 16);
        assert_eq!(CipherSuite::Aes256GcmSha256.key_len(), 32);
        assert_eq!(CipherSuite::default(), CipherSuite::Aes128GcmSha256);
    }
}
