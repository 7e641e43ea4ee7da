//! Message-uniqueness enforcement (paper §4.4.1, §6.1 "Non-replayability").
//!
//! Per-message record sequence number spaces mean the *relative* record sequence
//! number can repeat across messages, so TLS's implicit replay protection no
//! longer applies at the record level.  SMT instead guarantees that a **message
//! ID is accepted at most once per session**: the receiver discards any packet
//! whose message ID it has already completed (or abandoned), without decrypting —
//! just as TCP discards packets with past sequence numbers.
//!
//! Message IDs are allocated monotonically by the sender, so the guard tracks a
//! low-water mark plus the sparse set of IDs above it that are complete or in
//! progress; memory stays bounded no matter how many messages a session carries.

use std::collections::BTreeSet;

/// Caps the sparse completed-ID set.  Message IDs are allocated monotonically
/// by the sender, so a peer whose newest completions sit more than this many
/// gaps above the oldest outstanding ID is either broken or hostile; the
/// guard force-advances the low-water mark past the oldest tracked ID,
/// treating the skipped gap IDs as rejected (they can no longer complete).
pub const MAX_TRACKED_IDS: usize = 4096;

/// Tracks which message IDs have been seen/completed on the receive side.
#[derive(Debug, Default)]
pub struct ReplayGuard {
    /// Every ID strictly below this value has been completed (or rejected).
    low_water: u64,
    /// Completed IDs at or above the low-water mark.
    completed: BTreeSet<u64>,
    /// Forced low-water advances taken to stay under [`MAX_TRACKED_IDS`].
    evictions: u64,
    /// Exclusive upper bound of the highest gap a forced advance skipped
    /// (zero until one happens): below it, "replayed" no longer implies
    /// "delivered".
    skipped_below: u64,
}

impl ReplayGuard {
    /// Creates an empty guard.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `id` has already been completed (i.e. accepting more packets for
    /// it would constitute a replay).
    pub fn is_replayed(&self, id: u64) -> bool {
        id < self.low_water || self.completed.contains(&id)
    }

    /// True if `id` is known to have completed for real, not merely been
    /// skipped by a forced low-water advance — the only IDs a transport may
    /// acknowledge again.  Conservative after a forced advance: everything
    /// below the skipped gap answers `false`, delivered or not.
    pub fn was_delivered(&self, id: u64) -> bool {
        id >= self.skipped_below && self.is_replayed(id)
    }

    /// Marks `id` as completed. Returns `false` if it was already completed
    /// (a replay), `true` if this is the first completion.
    pub fn mark_completed(&mut self, id: u64) -> bool {
        if self.is_replayed(id) {
            return false;
        }
        if id == self.low_water {
            // In order, the common case: the mark moves and nothing is tracked.
            self.low_water += 1;
        } else {
            self.completed.insert(id);
        }
        self.compact();
        // Bounded memory even against an adversarial ID pattern: evict the
        // oldest tracked ID (and thereby reject every gap below it) once the
        // sparse set would exceed its cap.
        while self.completed.len() > MAX_TRACKED_IDS {
            if let Some(&oldest) = self.completed.iter().next() {
                self.completed.remove(&oldest);
                // `oldest` survived compaction, so [low_water, oldest) is a
                // non-empty gap of IDs that never completed.
                self.skipped_below = oldest;
                self.low_water = oldest + 1;
                self.evictions += 1;
                self.compact();
            }
        }
        true
    }

    /// Number of IDs tracked above the low-water mark (bounded-memory check).
    pub fn tracked(&self) -> usize {
        self.completed.len()
    }

    /// The current low-water mark (all IDs below it are considered replayed).
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Forced low-water advances taken to keep the sparse set under
    /// [`MAX_TRACKED_IDS`] (surfaced as `state_evictions`).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn compact(&mut self) {
        // Advance the low-water mark over any contiguous prefix of completed IDs.
        while self.completed.remove(&self.low_water) {
            self.low_water += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_completion_accepted_second_rejected() {
        let mut g = ReplayGuard::new();
        assert!(!g.is_replayed(5));
        assert!(g.mark_completed(5));
        assert!(g.is_replayed(5));
        assert!(!g.mark_completed(5));
    }

    #[test]
    fn low_water_compacts_contiguous_ids() {
        let mut g = ReplayGuard::new();
        for id in 0..1000 {
            assert!(g.mark_completed(id));
        }
        // All contiguous from zero: memory stays O(1).
        assert_eq!(g.tracked(), 0);
        assert_eq!(g.low_water(), 1000);
        assert!(g.is_replayed(999));
        assert!(!g.is_replayed(1000));
    }

    #[test]
    fn out_of_order_completion_tracked_sparsely() {
        let mut g = ReplayGuard::new();
        // Messages complete out of order (the whole point of SMT/Homa).
        assert!(g.mark_completed(3));
        assert!(g.mark_completed(1));
        assert!(g.mark_completed(4));
        assert_eq!(g.tracked(), 3);
        assert!(!g.is_replayed(0));
        assert!(!g.is_replayed(2));
        // Filling the gaps collapses the set.
        assert!(g.mark_completed(0));
        assert!(g.mark_completed(2));
        assert_eq!(g.tracked(), 0);
        assert_eq!(g.low_water(), 5);
    }

    #[test]
    fn adversarial_gap_pattern_stays_bounded() {
        let mut g = ReplayGuard::new();
        // Complete only odd IDs: every completion leaves a gap, the worst
        // case for the sparse set.
        for id in 0..3 * MAX_TRACKED_IDS as u64 {
            g.mark_completed(2 * id + 1);
        }
        assert!(g.tracked() <= MAX_TRACKED_IDS);
        assert!(g.evictions() > 0);
        // Evicted gap IDs count as replayed — they can no longer complete.
        assert!(g.is_replayed(0));
        assert!(!g.mark_completed(0));
    }

    #[test]
    fn was_delivered_excludes_ids_a_forced_advance_skipped() {
        let mut g = ReplayGuard::new();
        // ID 0 stays outstanding under a long run of completions above it.
        for id in 1..=MAX_TRACKED_IDS as u64 {
            g.mark_completed(id);
            assert!(g.was_delivered(id));
        }
        assert!(!g.is_replayed(0) && !g.was_delivered(0));
        assert_eq!(g.evictions(), 0);
        // One more completion forces the low-water mark past the gap.
        let newest = MAX_TRACKED_IDS as u64 + 1;
        g.mark_completed(newest);
        assert_eq!(g.evictions(), 1);
        assert!(g.is_replayed(0), "the skipped ID can no longer complete");
        assert!(!g.was_delivered(0), "but it never arrived");
        assert!(g.is_replayed(1) && g.was_delivered(1));
        assert!(g.was_delivered(newest));
        assert!(!g.was_delivered(newest + 1), "not yet seen at all");
    }

    #[test]
    fn replay_below_low_water_rejected() {
        let mut g = ReplayGuard::new();
        for id in 0..10 {
            g.mark_completed(id);
        }
        assert!(g.is_replayed(0));
        assert!(!g.mark_completed(7));
    }
}
