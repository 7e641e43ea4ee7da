//! The measured host cost of software record sealing.
//!
//! Absolute numbers from the paper's testbed (two Xeon Silver 4314 hosts, CX-7
//! NICs, Linux 6.2) cannot be reproduced without the hardware.  What the
//! simulated host charges instead is the one cost this repository measures on
//! its own silicon: sealing a record in software, as a per-record intercept
//! plus a per-byte slope.  The scenario runner applies it to every record an
//! endpoint seals ([`CostModel::cpu_charge`]); offloaded and plaintext stacks
//! seal nothing and pay nothing.

use crate::time::Nanos;

/// Software-crypto cost parameters (nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-byte cost of software AES-128-GCM.  Not a guess: measured by the
    /// `calibrate` binary (`cargo run --release -p smt-bench --bin
    /// calibrate`) against this repository's fused record engine — see
    /// [`CostModel::calibrated`].
    pub crypto_sw_ns_per_byte: f64,
    /// Fixed per-record cost of software AEAD (nonce, tag, framing); the
    /// intercept of the `calibrate` binary's two-point fit over `seal_into`
    /// and `open`.
    pub crypto_sw_per_record_ns: Nanos,
}

impl CostModel {
    /// The calibrated defaults used throughout the evaluation harness.
    ///
    /// Both parameters are **measured**, not chosen: the `calibrate` binary
    /// in `smt-bench` times this repository's record engine (best-of-7
    /// samples, two-point linear fit over 64 B and 16128 B records) and
    /// prints a drop-in replacement for the block below.  Values here are
    /// from a CLMUL-tier (`clmul-wide`) run — seal 155–179 ns/record +
    /// 0.28–0.30 ns/B across runs — rounded to mid-range.  Rerun `calibrate`
    /// and paste when the record layer changes.
    pub fn calibrated() -> Self {
        Self {
            crypto_sw_ns_per_byte: 0.29,
            crypto_sw_per_record_ns: 170,
        }
    }

    /// Replaces the software-crypto terms with freshly measured values (what
    /// the `calibrate` binary prints).
    pub fn with_sw_crypto(mut self, per_record_ns: Nanos, ns_per_byte: f64) -> Self {
        self.crypto_sw_per_record_ns = per_record_ns;
        self.crypto_sw_ns_per_byte = ns_per_byte;
        self
    }

    /// The per-send CPU charge the scenario runner applies for software
    /// record sealing, built from this model's measured crypto terms.
    pub fn cpu_charge(&self) -> crate::net::CpuCharge {
        crate::net::CpuCharge {
            sw_per_record_ns: self.crypto_sw_per_record_ns,
            sw_ns_per_byte: self.crypto_sw_ns_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_cost_grows_with_bytes_and_records() {
        let charge = CostModel::calibrated().cpu_charge();
        assert!(charge.seal_ns(16384, 1) > charge.seal_ns(64, 1));
        assert!(charge.seal_ns(64, 2) > charge.seal_ns(64, 1));
    }

    #[test]
    fn cpu_charge_mirrors_the_measured_crypto_terms() {
        let m = CostModel::calibrated().with_sw_crypto(200, 0.5);
        let charge = m.cpu_charge();
        assert_eq!(charge.sw_per_record_ns, 200);
        assert_eq!(charge.sw_ns_per_byte, 0.5);
        // Three records of 4096 B: 3 × 200 ns + 4096 × 0.5 ns.
        assert_eq!(charge.seal_ns(4096, 3), 600 + 2048);
        // The calibrated terms are the ones `bench/` and the figures charge.
        let calibrated = CostModel::calibrated().cpu_charge();
        assert_eq!(calibrated.sw_per_record_ns, 170);
        assert_eq!(calibrated.sw_ns_per_byte, 0.29);
    }
}
