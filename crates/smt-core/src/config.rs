//! Protocol-engine configuration.

use serde::{Deserialize, Serialize};
use smt_wire::{DEFAULT_MTU, FRAMING_HEADER_LEN, MAX_TLS_RECORD};

/// Application bytes per TLS record behind its framing header; the record
/// stays under 16 KB.
pub const MAX_RECORD_PAYLOAD: usize = MAX_TLS_RECORD - FRAMING_HEADER_LEN - 64;

/// Where encryption happens for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CryptoMode {
    /// No encryption (the plain Homa baseline in the evaluation).
    Plaintext,
    /// Software AES-GCM performed by the host CPU (SMT-sw / kTLS-sw).
    #[default]
    Software,
    /// NIC autonomous offload: the stack emits plaintext records plus offload
    /// descriptors and the NIC encrypts on transmit (SMT-hw / kTLS-hw).
    HardwareOffload,
}

impl CryptoMode {
    /// True when the NIC performs the cryptography.
    pub fn is_offloaded(self) -> bool {
        matches!(self, CryptoMode::HardwareOffload)
    }

    /// True when any encryption is applied.
    pub fn is_encrypted(self) -> bool {
        !matches!(self, CryptoMode::Plaintext)
    }
}

/// Configuration of the SMT protocol engine for one endpoint: what a figure
/// varies (MTU, TSO, where encryption happens).  Every record carries the
/// framing header and the protector's padding policy.  Sizes the engine never
/// varies are constants: the
/// record payload [`MAX_RECORD_PAYLOAD`], the TSO segment
/// [`smt_wire::MAX_TSO_SEGMENT`], and the NIC geometry
/// [`NIC_QUEUES`](crate::session::NIC_QUEUES) ×
/// [`FLOW_CONTEXTS_PER_QUEUE`](crate::session::FLOW_CONTEXTS_PER_QUEUE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtConfig {
    /// Network MTU in bytes.
    pub mtu: usize,
    /// Whether TSO is available (Fig. 11 evaluates the no-TSO fallback; without
    /// TSO each packet is sent as its own segment of at most one MTU).
    pub tso_enabled: bool,
    /// Where encryption happens.
    pub crypto_mode: CryptoMode,
}

impl Default for SmtConfig {
    fn default() -> Self {
        Self {
            mtu: DEFAULT_MTU,
            tso_enabled: true,
            crypto_mode: CryptoMode::Software,
        }
    }
}

impl SmtConfig {
    /// Configuration matching the paper's SMT-sw setup.
    pub fn software() -> Self {
        Self::default()
    }

    /// Configuration matching the paper's SMT-hw setup (NIC TLS offload).
    pub fn hardware_offload() -> Self {
        Self {
            crypto_mode: CryptoMode::HardwareOffload,
            ..Self::default()
        }
    }

    /// Configuration of the unencrypted Homa baseline.
    pub fn plaintext() -> Self {
        Self {
            crypto_mode: CryptoMode::Plaintext,
            ..Self::default()
        }
    }

    /// Disables TSO (Fig. 11 "SMT-HW-w/o-TSO" mode).
    pub fn without_tso(mut self) -> Self {
        self.tso_enabled = false;
        self
    }

    /// Sets the MTU (the §5.2 jumbo-frame experiment uses 9000).
    pub fn with_mtu(mut self, mtu: usize) -> Self {
        self.mtu = mtu;
        self
    }

    /// Largest application payload a single record may carry.
    pub fn record_app_capacity(&self) -> usize {
        MAX_RECORD_PAYLOAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(SmtConfig::software().crypto_mode, CryptoMode::Software);
        assert_eq!(
            SmtConfig::hardware_offload().crypto_mode,
            CryptoMode::HardwareOffload
        );
        assert_eq!(SmtConfig::plaintext().crypto_mode, CryptoMode::Plaintext);
        assert!(CryptoMode::HardwareOffload.is_offloaded());
        assert!(!CryptoMode::Plaintext.is_encrypted());
    }

    #[test]
    fn builders() {
        let c = SmtConfig::software().without_tso().with_mtu(9000);
        assert!(!c.tso_enabled);
        assert_eq!(c.mtu, 9000);
    }
}
