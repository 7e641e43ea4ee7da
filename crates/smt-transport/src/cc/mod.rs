//! Congestion control for the evaluated transports.
//!
//! The paper's encrypted-vs-plaintext comparison (§5) only means something
//! under realistic datacenter load, which requires the stacks to *react* to
//! that load.  This module provides the two reaction styles the evaluation
//! compares:
//!
//! * **Receiver-driven SRPT grants** ([`SrptGrantScheduler`]) for the
//!   message-based stacks (Homa / SMT-sw / SMT-hw): the receiver ranks
//!   incomplete messages by remaining bytes, grants only the top few, and
//!   assigns each a network priority that the sender stamps into the overlay
//!   option area (Homa §2.2 / "It's Time to Replace TCP in the Datacenter").
//!
//! * **DCTCP-style ECN windowing** ([`DctcpWindow`]) for the stream-based
//!   stacks (TCP / TLS / kTLS-sw / kTLS-hw / TCPLS): queues CE-mark
//!   ECN-capable packets past a threshold, the receiver echoes the mark
//!   fraction in SACK frames, and the sender cuts its window in proportion
//!   to the smoothed fraction `alpha` instead of halving on every mark.
//!
//! Both share one clock discipline: an RFC 6298 [`RttEstimator`]
//! (SRTT/RTTVAR) that derives the retransmission timeout the endpoints arm,
//! replacing the fixed RTO multiple previously hard-coded in the backends.
//!
//! Everything here is deterministic and allocation-light; the endpoints in
//! [`crate::endpoint`] own the instances and surface their counters through
//! `EndpointStats`.

mod dctcp;
mod srpt;

pub use dctcp::DctcpWindow;
pub use srpt::{GrantDecision, MsgView, SrptGrantScheduler};

use smt_sim::Nanos;

/// Tuning for the congestion-control subsystem of one endpoint, carried by
/// `EndpointBuilder`.  The defaults reproduce the paper's testbed discipline
/// (base RTT a few µs, RTO a small RTT multiple) and are shared by the
/// window machinery and the timers so both run off one clock model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcConfig {
    /// Initial congestion window in bytes (stream backend).
    pub initial_cwnd_bytes: u64,
    /// Window floor: one MSS so progress never stalls entirely.
    pub min_cwnd_bytes: u64,
    /// Window ceiling; also the bound a mutated SACK/GRANT can never push
    /// the window past (fuzzed in `smt-fuzz::cc_control_frames`).
    pub max_cwnd_bytes: u64,
    /// DCTCP EWMA gain as a shift: `alpha += (frac - alpha) >> gain_shift`
    /// (the canonical g = 1/16 is `gain_shift = 4`).
    pub gain_shift: u32,
    /// Whether the RTO follows the [`RttEstimator`] (SRTT + 4·RTTVAR).
    /// `EndpointBuilder::rto_ns` clears this so an explicit override pins a
    /// fixed, exactly-predictable deadline.
    pub adaptive_rto: bool,
    /// Initial retransmission timeout before any RTT sample exists.
    pub initial_rto_ns: Nanos,
    /// Lower clamp of the estimated RTO.  Defaults to the initial RTO: on a
    /// datacenter fabric the estimator's job is to *raise* the timer above
    /// the unloaded baseline when queueing delay appears (loss recovery
    /// speed comes from SACK fast retransmit and receiver RESENDs, not from
    /// shaving the timer), and a floor near the true RTT fires spuriously
    /// whenever a tail ack queues behind a burst.
    pub min_rto_ns: Nanos,
    /// Upper clamp of the estimated RTO.
    pub max_rto_ns: Nanos,
    /// RESEND attempts before the message-backend receiver abandons a
    /// stalled incomplete message (formerly a module-local constant).
    pub max_resend_attempts: u32,
    /// Concurrently granted messages on the message-backend receiver
    /// (Homa's "overcommitment degree").
    pub active_grants: usize,
    /// Cap on granted-but-unreceived packets across all messages — what
    /// bounds receiver queue occupancy under deep incast.
    pub max_grant_backlog_packets: usize,
    /// Number of network priority levels for granted data (0 = highest).
    pub priority_levels: u8,
}

impl Default for CcConfig {
    fn default() -> Self {
        Self {
            initial_cwnd_bytes: 10 * 1448,
            min_cwnd_bytes: 1448,
            max_cwnd_bytes: 1 << 20,
            gain_shift: 4,
            adaptive_rto: true,
            initial_rto_ns: 40_000,
            min_rto_ns: 40_000,
            max_rto_ns: 10_000_000,
            max_resend_attempts: 8,
            active_grants: 4,
            max_grant_backlog_packets: 64,
            priority_levels: 8,
        }
    }
}

/// RFC 6298 round-trip estimator: SRTT/RTTVAR with the standard gains,
/// clamped RTO.  Retransmitted ranges must not be sampled (Karn's rule) —
/// that filtering is the caller's job.
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    /// RTO before the first sample arrives.
    initial_rto_ns: Nanos,
    min_rto_ns: Nanos,
    max_rto_ns: Nanos,
    samples: u64,
}

impl RttEstimator {
    /// Creates an estimator with the configured initial/clamp timeouts.
    pub fn new(config: &CcConfig) -> Self {
        Self {
            srtt_ns: 0,
            rttvar_ns: 0,
            initial_rto_ns: config.initial_rto_ns.max(1),
            min_rto_ns: config.min_rto_ns.max(1),
            max_rto_ns: config.max_rto_ns.max(1),
            samples: 0,
        }
    }

    /// Feeds one RTT measurement (send of an un-retransmitted range to the
    /// ack that covered it).
    pub fn on_sample(&mut self, rtt_ns: u64) {
        let rtt = rtt_ns.max(1);
        if self.samples == 0 {
            self.srtt_ns = rtt;
            self.rttvar_ns = rtt / 2;
        } else {
            // RFC 6298: RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - RTT|,
            //           SRTT   = 7/8 SRTT + 1/8 RTT.
            let err = self.srtt_ns.abs_diff(rtt);
            self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
            self.srtt_ns = (7 * self.srtt_ns + rtt) / 8;
        }
        self.samples += 1;
    }

    /// Smoothed RTT (zero before the first sample).
    pub fn srtt_ns(&self) -> u64 {
        self.srtt_ns
    }

    /// Samples absorbed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The retransmission timeout: `SRTT + 4·RTTVAR`, clamped, or the
    /// configured initial RTO before any sample exists.
    pub fn rto_ns(&self) -> Nanos {
        if self.samples == 0 {
            return self.initial_rto_ns;
        }
        (self.srtt_ns + 4 * self.rttvar_ns).clamp(self.min_rto_ns, self.max_rto_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_starts_at_initial_rto() {
        let est = RttEstimator::new(&CcConfig::default());
        assert_eq!(est.rto_ns(), CcConfig::default().initial_rto_ns);
        assert_eq!(est.srtt_ns(), 0);
    }

    #[test]
    fn estimator_converges_and_clamps() {
        let config = CcConfig {
            min_rto_ns: 20_000,
            max_rto_ns: 100_000,
            ..CcConfig::default()
        };
        let mut est = RttEstimator::new(&config);
        for _ in 0..64 {
            est.on_sample(10_000);
        }
        // A steady 10 µs RTT collapses RTTVAR; the RTO hits the floor.
        assert_eq!(est.rto_ns(), 20_000);
        assert!((9_000..=11_000).contains(&est.srtt_ns()));
        for _ in 0..64 {
            est.on_sample(10_000_000);
        }
        assert_eq!(est.rto_ns(), 100_000, "ceiling clamp");
    }

    #[test]
    fn estimator_tracks_variance() {
        let config = CcConfig {
            min_rto_ns: 1_000,
            ..CcConfig::default()
        };
        let mut est = RttEstimator::new(&config);
        est.on_sample(10_000);
        // First sample: RTO = RTT + 4 * RTT/2 = 3 * RTT.
        assert_eq!(est.rto_ns(), 30_000);
    }
}
