//! Protocol-engine configuration.

use serde::{Deserialize, Serialize};
use smt_wire::{DEFAULT_MTU, FRAMING_HEADER_LEN, MAX_TLS_RECORD, MAX_TSO_SEGMENT};

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

/// Configuration of the SMT protocol engine for one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtConfig {
    /// Network MTU in bytes.
    pub mtu: usize,
    /// Maximum TSO segment payload handed to the NIC.
    pub max_tso_segment: usize,
    /// Maximum plaintext bytes per TLS record (≤ 16 KB).
    pub max_record_payload: usize,
    /// Whether TSO is available (Fig. 11 evaluates the no-TSO fallback; without
    /// TSO each packet is sent as its own segment of at most one MTU).
    pub tso_enabled: bool,
    /// Whether the per-record framing header is emitted (§4.3 notes it could be
    /// removed; the ablation bench flips this).
    pub framing_header: bool,
    /// Where encryption happens.
    pub crypto_mode: CryptoMode,
    /// Length-concealment padding granularity in bytes (0 disables padding).
    pub padding_granularity: usize,
    /// Maximum number of NIC flow contexts per TX queue for this session
    /// (§4.4.2; the paper's implementation uses one per queue).
    pub flow_contexts_per_queue: usize,
    /// Number of NIC TX queues (one per sending core in the evaluation setup).
    pub nic_queues: usize,
    /// Baseline network round-trip time in nanoseconds, used to derive the
    /// sender retransmission timeout (the paper's testbed RTT is a few µs).
    pub base_rtt_ns: u64,
    /// Sender retransmission timeout as a multiple of `base_rtt_ns` (the
    /// message engine's unscheduled-prefix retransmit and the stream engine's
    /// rewind to the cumulative ACK both fire after [`SmtConfig::rto_ns`]).
    pub rto_rtt_multiple: u32,
}

impl Default for SmtConfig {
    fn default() -> Self {
        Self {
            mtu: DEFAULT_MTU,
            max_tso_segment: MAX_TSO_SEGMENT,
            max_record_payload: MAX_TLS_RECORD - FRAMING_HEADER_LEN - 64,
            tso_enabled: true,
            framing_header: true,
            crypto_mode: CryptoMode::Software,
            padding_granularity: 0,
            flow_contexts_per_queue: 1,
            nic_queues: 4,
            base_rtt_ns: 10_000,
            rto_rtt_multiple: 4,
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

    /// Sets the baseline RTT the retransmission timeout is derived from.
    pub fn with_base_rtt_ns(mut self, rtt_ns: u64) -> Self {
        self.base_rtt_ns = rtt_ns;
        self
    }

    /// The sender retransmission timeout: `base_rtt_ns * rto_rtt_multiple`,
    /// never zero.
    pub fn rto_ns(&self) -> u64 {
        (self.base_rtt_ns * u64::from(self.rto_rtt_multiple)).max(1)
    }

    /// Largest application payload a single record may carry under this
    /// configuration (accounts for the framing header when enabled).
    pub fn record_app_capacity(&self) -> usize {
        if self.framing_header {
            self.max_record_payload
        } else {
            self.max_record_payload + FRAMING_HEADER_LEN
        }
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

    #[test]
    fn rto_is_an_rtt_multiple_and_never_zero() {
        let c = SmtConfig::default();
        assert_eq!(c.rto_ns(), c.base_rtt_ns * u64::from(c.rto_rtt_multiple));
        let z = SmtConfig {
            base_rtt_ns: 0,
            ..SmtConfig::default()
        };
        assert_eq!(z.rto_ns(), 1);
        assert_eq!(
            SmtConfig::default().with_base_rtt_ns(25_000).rto_ns(),
            100_000
        );
    }

    #[test]
    fn record_capacity_respects_framing() {
        let with = SmtConfig::default();
        let without = SmtConfig {
            framing_header: false,
            ..SmtConfig::default()
        };
        assert_eq!(
            without.record_app_capacity(),
            with.record_app_capacity() + FRAMING_HEADER_LEN
        );
        assert!(with.max_record_payload + FRAMING_HEADER_LEN <= MAX_TLS_RECORD);
    }
}
