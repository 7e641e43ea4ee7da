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
//! The tuning is the paper's testbed discipline, fixed as the network's and
//! not any one connection's (Homa's overcommitment degree and RTTbytes are
//! protocol constants too): each value is a `const` beside the code that
//! reads it — the DCTCP window bounds and gain on [`DctcpWindow`], the SRPT
//! grant slots, backlog cap and priority levels on [`SrptGrantScheduler`],
//! and the RTO bounds and the resend budget here.
//!
//! Everything here is deterministic and allocation-light; the endpoints in
//! [`crate::endpoint`] own the instances and surface their counters through
//! `EndpointStats`.

mod dctcp;
mod srpt;

pub use dctcp::{DctcpWindow, INITIAL_CWND_BYTES, MAX_CWND_BYTES, MIN_CWND_BYTES};
pub use srpt::{
    GrantDecision, MsgView, SrptGrantScheduler, ACTIVE_GRANTS, GRANT_WINDOW_PACKETS,
    MAX_GRANT_BACKLOG_PACKETS, PRIORITY_LEVELS,
};

use smt_sim::Nanos;

/// The retransmission timeout every endpoint opens with, before any RTT
/// sample exists, and the floor of the estimated RTO afterwards: a few base
/// RTTs of the paper's testbed.  The handshake driver's flight timer runs on
/// it too.  A floor equal to the
/// opening keeps the estimator's job on a datacenter fabric to *raise* the
/// timer when queueing delay appears: loss recovery speed comes from SACK
/// fast retransmit and receiver RESENDs, not from shaving the timer, and a
/// floor near the true RTT fires spuriously whenever a tail ack queues
/// behind a burst.
pub const INITIAL_RTO_NS: Nanos = 40_000;

/// Ceiling of the estimated RTO, its backoff, and every per-message
/// recovery wait.
pub const MAX_RTO_NS: Nanos = 10_000_000;

/// RESEND attempts before the message-backend receiver abandons a stalled
/// incomplete message.
pub const MAX_RESEND_ATTEMPTS: u32 = 8;

/// RFC 6298 round-trip estimator: SRTT/RTTVAR with the standard gains,
/// clamped RTO.  Retransmitted ranges must not be sampled (Karn's rule) —
/// that filtering is the caller's job.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    samples: u64,
}

impl RttEstimator {
    /// Creates an estimator with no samples yet.
    pub fn new() -> Self {
        Self::default()
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

    /// The retransmission timeout: `SRTT + 4·RTTVAR`, clamped to
    /// [`INITIAL_RTO_NS`]..=[`MAX_RTO_NS`], or [`INITIAL_RTO_NS`] before any
    /// sample exists.
    pub fn rto_ns(&self) -> Nanos {
        if self.samples == 0 {
            return INITIAL_RTO_NS;
        }
        (self.srtt_ns + 4 * self.rttvar_ns).clamp(INITIAL_RTO_NS, MAX_RTO_NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_starts_at_initial_rto() {
        let est = RttEstimator::new();
        assert_eq!(est.rto_ns(), INITIAL_RTO_NS);
        assert_eq!(est.srtt_ns(), 0);
    }

    #[test]
    fn estimator_converges_and_clamps() {
        let mut est = RttEstimator::new();
        for _ in 0..64 {
            est.on_sample(10_000);
        }
        // A steady 10 µs RTT collapses RTTVAR; the RTO hits the floor.
        assert_eq!(est.rto_ns(), INITIAL_RTO_NS);
        assert!((9_000..=11_000).contains(&est.srtt_ns()));
        for _ in 0..64 {
            est.on_sample(100_000_000);
        }
        assert_eq!(est.rto_ns(), MAX_RTO_NS, "ceiling clamp");
    }

    #[test]
    fn estimator_tracks_variance() {
        let mut est = RttEstimator::new();
        est.on_sample(20_000);
        // First sample: RTO = RTT + 4 * RTT/2 = 3 * RTT, above the floor.
        assert_eq!(est.rto_ns(), 60_000);
        // A steady RTT pulls RTTVAR, and so the RTO, back down.
        for _ in 0..8 {
            est.on_sample(20_000);
        }
        let settled = est.rto_ns();
        assert!((INITIAL_RTO_NS..60_000).contains(&settled), "{settled}");
    }
}
