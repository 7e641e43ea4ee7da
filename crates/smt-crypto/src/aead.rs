//! AEAD encryption (AES-GCM) with the TLS 1.3 nonce construction.
//!
//! TLS 1.3 (and SMT, which keeps the record format) computes the per-record nonce
//! by XOR-ing the 64-bit record sequence number, left-padded to 12 bytes, into the
//! static per-direction IV negotiated during the handshake (RFC 8446 §5.3).  For
//! SMT the sequence number is the *composite* value of §4.4.1 (message ID ‖ record
//! index), which is what gives each record in the session a unique nonce even
//! though per-message record indices restart at zero — see paper Fig. 4.

use crate::{CryptoError, CryptoResult};
use aes_gcm::aead::KeyInit;
use aes_gcm::{Aes128Gcm, Aes256Gcm};
use serde::{Deserialize, Serialize};

/// AEAD nonce length (96 bits) for AES-GCM.
pub const NONCE_LEN: usize = 12;

/// AEAD authentication tag length (128 bits).
pub const TAG_LEN: usize = 16;

/// Supported AEAD algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AeadAlgorithm {
    /// AES-128-GCM (the paper's evaluation cipher).
    Aes128Gcm,
    /// AES-256-GCM (supported by the NIC offload per §7).
    Aes256Gcm,
}

impl AeadAlgorithm {
    /// Key length in bytes.
    pub fn key_len(self) -> usize {
        match self {
            AeadAlgorithm::Aes128Gcm => 16,
            AeadAlgorithm::Aes256Gcm => 32,
        }
    }
}

/// A static per-direction initialisation vector (write IV).
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Iv(pub [u8; NONCE_LEN]);

impl std::fmt::Debug for Iv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print IV material.
        write!(f, "Iv(..)")
    }
}

impl Iv {
    /// Builds an IV from a slice, checking its length.
    pub fn from_slice(s: &[u8]) -> CryptoResult<Self> {
        if s.len() != NONCE_LEN {
            return Err(CryptoError::InvalidLength {
                what: "iv",
                expected: NONCE_LEN,
                got: s.len(),
            });
        }
        let mut iv = [0u8; NONCE_LEN];
        iv.copy_from_slice(s);
        Ok(Self(iv))
    }

    /// Computes the per-record nonce: IV XOR left-padded sequence number
    /// (RFC 8446 §5.3; paper Fig. 4).
    pub fn nonce_for(&self, seq: u64) -> [u8; NONCE_LEN] {
        let mut nonce = self.0;
        let seq_bytes = seq.to_be_bytes();
        for (i, b) in seq_bytes.iter().enumerate() {
            nonce[NONCE_LEN - 8 + i] ^= b;
        }
        nonce
    }
}

enum Inner {
    A128(Box<Aes128Gcm>),
    A256(Box<Aes256Gcm>),
}

/// An AEAD key bound to one direction of one session.
pub struct AeadKey {
    inner: Inner,
    algorithm: AeadAlgorithm,
}

impl std::fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AeadKey")
            .field("algorithm", &self.algorithm)
            .finish_non_exhaustive()
    }
}

impl AeadKey {
    /// Creates an AEAD key from raw key material.
    ///
    /// Key install is where per-key work happens: the AES round keys are
    /// expanded and the GHASH key material (powers `H..H¹⁶`, 256 B, on the
    /// CLMUL tiers; Shoup tables for `H..H⁴`, 16 KB, otherwise) is
    /// precomputed here once per connection direction, so sealing and opening
    /// records runs the fused multi-block engine with zero per-record setup.
    pub fn new(algorithm: AeadAlgorithm, key: &[u8]) -> CryptoResult<Self> {
        if key.len() != algorithm.key_len() {
            return Err(CryptoError::InvalidLength {
                what: "aead key",
                expected: algorithm.key_len(),
                got: key.len(),
            });
        }
        let inner = match algorithm {
            AeadAlgorithm::Aes128Gcm => Inner::A128(Box::new(
                Aes128Gcm::new_from_slice(key).expect("length checked"),
            )),
            AeadAlgorithm::Aes256Gcm => Inner::A256(Box::new(
                Aes256Gcm::new_from_slice(key).expect("length checked"),
            )),
        };
        Ok(Self { inner, algorithm })
    }

    /// The algorithm of this key.
    pub fn algorithm(&self) -> AeadAlgorithm {
        self.algorithm
    }

    /// Encrypts `buf` in place, returning the detached 16-byte tag. This is the
    /// zero-allocation primitive the record datapath is built on.
    pub fn seal_in_place_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        match &self.inner {
            Inner::A128(k) => k.encrypt_in_place_detached(nonce, aad, buf),
            Inner::A256(k) => k.encrypt_in_place_detached(nonce, aad, buf),
        }
    }

    /// Verifies `tag` over `buf` and decrypts it in place; on failure the buffer
    /// is left as ciphertext and an error is returned.
    pub fn open_in_place_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
        tag: &[u8],
    ) -> CryptoResult<()> {
        match &self.inner {
            Inner::A128(k) => k.decrypt_in_place_detached(nonce, aad, buf, tag),
            Inner::A256(k) => k.decrypt_in_place_detached(nonce, aad, buf, tag),
        }
        .map_err(|_| CryptoError::AuthenticationFailed)
    }

    /// Encrypts `plaintext` with `nonce` and additional authenticated data `aad`,
    /// returning ciphertext with the 16-byte tag appended (allocating
    /// convenience over [`Self::seal_in_place_detached`]).
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `ciphertext` (with appended tag); fails if authentication fails.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> CryptoResult<Vec<u8>> {
        if ciphertext.len() < TAG_LEN {
            return Err(CryptoError::AuthenticationFailed);
        }
        let (body, tag) = ciphertext.split_at(ciphertext.len() - TAG_LEN);
        let mut out = body.to_vec();
        self.open_in_place_detached(nonce, aad, &mut out, tag)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key128() -> AeadKey {
        AeadKey::new(AeadAlgorithm::Aes128Gcm, &[0x42; 16]).unwrap()
    }

    #[test]
    fn seal_open_roundtrip() {
        let key = key128();
        let iv = Iv([7u8; NONCE_LEN]);
        let nonce = iv.nonce_for(3);
        let ct = key.seal(&nonce, b"aad", b"secret message");
        assert_eq!(ct.len(), 14 + TAG_LEN);
        let pt = key.open(&nonce, b"aad", &ct).unwrap();
        assert_eq!(pt, b"secret message");
    }

    #[test]
    fn tamper_detected() {
        let key = key128();
        let nonce = [0u8; NONCE_LEN];
        let mut ct = key.seal(&nonce, b"", b"payload");
        ct[0] ^= 1;
        assert_eq!(
            key.open(&nonce, b"", &ct),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn aad_mismatch_detected() {
        let key = key128();
        let nonce = [0u8; NONCE_LEN];
        let ct = key.seal(&nonce, b"header-a", b"payload");
        assert!(key.open(&nonce, b"header-b", &ct).is_err());
    }

    #[test]
    fn wrong_nonce_fails() {
        let key = key128();
        let iv = Iv([1u8; NONCE_LEN]);
        let ct = key.seal(&iv.nonce_for(1), b"", b"payload");
        assert!(key.open(&iv.nonce_for(2), b"", &ct).is_err());
    }

    #[test]
    fn nonce_construction_xors_low_bytes() {
        let iv = Iv([0u8; NONCE_LEN]);
        let n = iv.nonce_for(0x0102_0304_0506_0708);
        assert_eq!(&n[..4], &[0, 0, 0, 0]);
        assert_eq!(&n[4..], &[1, 2, 3, 4, 5, 6, 7, 8]);

        // XOR with a non-zero IV flips exactly those bytes.
        let iv = Iv([0xff; NONCE_LEN]);
        let n = iv.nonce_for(0);
        assert_eq!(n, [0xff; NONCE_LEN]);
    }

    #[test]
    fn distinct_seqnos_distinct_nonces() {
        let iv = Iv([9u8; NONCE_LEN]);
        assert_ne!(iv.nonce_for(1), iv.nonce_for(2));
    }

    #[test]
    fn aes256_works_and_key_lengths_enforced() {
        let key = AeadKey::new(AeadAlgorithm::Aes256Gcm, &[1u8; 32]).unwrap();
        let nonce = [0u8; NONCE_LEN];
        let ct = key.seal(&nonce, b"x", b"y");
        assert_eq!(key.open(&nonce, b"x", &ct).unwrap(), b"y");

        assert!(AeadKey::new(AeadAlgorithm::Aes128Gcm, &[1u8; 15]).is_err());
        assert!(AeadKey::new(AeadAlgorithm::Aes256Gcm, &[1u8; 16]).is_err());
        assert!(Iv::from_slice(&[0u8; 11]).is_err());
    }

    #[test]
    fn debug_does_not_leak_material() {
        let key = key128();
        let iv = Iv([3u8; NONCE_LEN]);
        assert!(!format!("{key:?}").contains("42"));
        assert_eq!(format!("{iv:?}"), "Iv(..)");
    }
}
