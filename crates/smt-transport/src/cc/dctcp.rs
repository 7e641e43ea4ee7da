//! DCTCP-style ECN-reaction window (Alizadeh et al., SIGCOMM 2010).
//!
//! The sender keeps an EWMA `alpha` of the fraction of its packets the
//! network CE-marked and, once per window, cuts the congestion window by
//! `alpha / 2` — a proportional backoff that keeps queues short without the
//! throughput collapse of halving on every mark.  Loss events (RTO, SACK
//! holes) still halve, as in the original.

use smt_sim::Nanos;

/// Fixed-point scale for `alpha` (1.0 == `ALPHA_ONE`).
const ALPHA_ONE: u64 = 1024;

/// Window floor: one MSS, so progress never stalls entirely.
pub const MIN_CWND_BYTES: u64 = 1448;

/// Congestion window a connection opens with: ten MSS.
pub const INITIAL_CWND_BYTES: u64 = 10 * MIN_CWND_BYTES;

/// Window ceiling; also the bound a mutated SACK/GRANT can never push the
/// window past (fuzzed in `smt-fuzz::cc_control_frames`).
pub const MAX_CWND_BYTES: u64 = 1 << 20;

/// DCTCP EWMA gain as a shift: `alpha += (frac - alpha) >> GAIN_SHIFT`
/// (the canonical g = 1/16).
const GAIN_SHIFT: u32 = 4;

/// The DCTCP window machine driven by SACK ECN echoes.
#[derive(Debug, Clone, Copy)]
pub struct DctcpWindow {
    cwnd: u64,
    ssthresh: u64,
    /// Smoothed CE fraction, fixed-point over [`ALPHA_ONE`].
    alpha: u64,
    /// CE-marked / total packets accumulated in the current observation
    /// window (roughly one RTT of acks).
    window_marked: u64,
    window_total: u64,
    /// Bytes acked since the window opened; at `cwnd` the window closes.
    window_acked: u64,
    ecn_marks_seen: u64,
}

impl Default for DctcpWindow {
    fn default() -> Self {
        Self::new()
    }
}

impl DctcpWindow {
    /// Creates a window at [`INITIAL_CWND_BYTES`].
    pub fn new() -> Self {
        Self {
            cwnd: INITIAL_CWND_BYTES,
            ssthresh: MAX_CWND_BYTES,
            alpha: 0,
            window_marked: 0,
            window_total: 0,
            window_acked: 0,
            ecn_marks_seen: 0,
        }
    }

    fn clamp(&mut self) {
        self.cwnd = self.cwnd.clamp(MIN_CWND_BYTES, MAX_CWND_BYTES);
    }

    /// Closes the current observation window: folds the mark fraction into
    /// `alpha` and applies the proportional cut if anything was marked.
    fn end_window(&mut self) {
        if self.window_total > 0 {
            // u128 intermediate and a cap at 1.0: the counts come off the
            // wire and must not be able to overflow or overshoot the EWMA.
            let frac = ((u128::from(self.window_marked) * u128::from(ALPHA_ONE))
                / u128::from(self.window_total))
            .min(u128::from(ALPHA_ONE)) as u64;
            // alpha += (frac - alpha) >> GAIN_SHIFT, in signed arithmetic.
            let shifted = (frac as i64 - self.alpha as i64) >> GAIN_SHIFT;
            self.alpha = (self.alpha as i64 + shifted).max(0) as u64;
            if self.window_marked > 0 {
                // cwnd *= 1 - alpha/2.
                let cut = (self.cwnd * self.alpha) / (2 * ALPHA_ONE);
                self.cwnd -= cut;
                self.ssthresh = self.cwnd;
                self.clamp();
            }
        }
        self.window_marked = 0;
        self.window_total = 0;
        self.window_acked = 0;
    }

    /// Current DCTCP alpha in permille, for stats.
    pub fn alpha_permille(&self) -> u64 {
        (self.alpha * 1000) / ALPHA_ONE
    }

    /// ECN CE marks observed in SACK echoes, for stats.
    pub fn ecn_marks_seen(&self) -> u64 {
        self.ecn_marks_seen
    }

    /// Acknowledgement progress: `newly_acked` bytes left flight, of the
    /// `total` data packets the peer saw since its last report `marked`
    /// carried CE.
    pub fn on_ack(&mut self, newly_acked: u64, marked: u64, total: u64, _now: Nanos) {
        self.ecn_marks_seen += marked;
        self.window_marked += marked;
        self.window_total += total;
        self.window_acked += newly_acked;

        // Growth: slow start below ssthresh, one MSS per window above it.
        if self.cwnd < self.ssthresh {
            self.cwnd = self.cwnd.saturating_add(newly_acked);
        } else {
            let gain = MIN_CWND_BYTES
                .saturating_mul(newly_acked)
                .checked_div(self.cwnd)
                .unwrap_or(0);
            self.cwnd = self.cwnd.saturating_add(gain);
        }
        self.clamp();

        if self.window_acked >= self.cwnd {
            self.end_window();
        }
    }

    /// A loss event (retransmission timeout or SACK-inferred hole).
    pub fn on_loss(&mut self, _now: Nanos) {
        self.cwnd /= 2;
        self.ssthresh = self.cwnd;
        self.clamp();
        // The observation window restarts: a loss already carries the
        // strongest congestion signal this RTT had to offer.
        self.window_marked = 0;
        self.window_total = 0;
        self.window_acked = 0;
    }

    /// Bytes the controller currently permits in flight.
    pub fn window(&self) -> u64 {
        self.cwnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> DctcpWindow {
        DctcpWindow::new()
    }

    #[test]
    fn slow_start_doubles_until_ceiling() {
        let mut w = window();
        let start = w.window();
        for _ in 0..200 {
            let acked = w.window();
            w.on_ack(acked, 0, 10, 0);
        }
        assert!(w.window() > start);
        assert_eq!(w.window(), MAX_CWND_BYTES, "ceiling");
    }

    #[test]
    fn marks_cut_proportionally_not_by_half() {
        let mut w = window();
        // Grow to the ceiling mark-free first.
        for _ in 0..200 {
            w.on_ack(w.window(), 0, 10, 0);
        }
        let before = w.window();
        // One fully-marked window: alpha jumps, window cut follows alpha.
        w.on_ack(before, 100, 100, 0);
        let after = w.window();
        assert!(after < before, "marked window shrinks cwnd");
        assert!(
            after > before / 4,
            "first proportional cut is gentler than a halving: {after} vs {before}"
        );
        assert!(w.alpha_permille() > 0);
        assert_eq!(w.ecn_marks_seen(), 100);
    }

    #[test]
    fn sustained_marks_converge_alpha_to_one() {
        let mut w = window();
        for _ in 0..100 {
            w.on_ack(w.window(), 50, 50, 0);
        }
        assert!(
            w.alpha_permille() > 900,
            "alpha {} after sustained full marking",
            w.alpha_permille()
        );
    }

    #[test]
    fn loss_halves_and_floors() {
        let mut w = window();
        w.on_loss(0);
        let half = w.window();
        assert!(half < INITIAL_CWND_BYTES);
        for _ in 0..64 {
            w.on_loss(0);
        }
        assert_eq!(w.window(), MIN_CWND_BYTES, "floor");
    }

    #[test]
    fn hostile_ack_cannot_inflate_past_ceiling() {
        let mut w = window();
        // An attacker-controlled SACK claiming absurd progress and totals.
        w.on_ack(u64::MAX / 2, 0, u64::MAX / 2, 0);
        assert!(w.window() <= MAX_CWND_BYTES);
        w.on_ack(u64::MAX / 2, u64::MAX / 2, u64::MAX / 2, 0);
        assert!(w.window() >= MIN_CWND_BYTES);
    }
}
