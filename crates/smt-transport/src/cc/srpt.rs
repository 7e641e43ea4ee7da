//! Receiver-driven SRPT grant scheduling for the message-based stacks.
//!
//! Homa's congestion control runs at the receiver (paper §2.2): senders blast
//! an unscheduled prefix, and the receiver paces everything beyond it with
//! GRANTs.  This scheduler decides those grants with two Homa behaviours:
//!
//! * **SRPT ordering** — incomplete messages are ranked by remaining
//!   packets; only the top [`CcConfig::active_grants`] are granted (Homa's
//!   overcommitment degree), each stamped with a network priority equal to
//!   its rank (0 = shortest remaining = highest priority).
//! * **A granted-backlog cap** — the sum of granted-but-unreceived packets
//!   across all messages never exceeds
//!   [`CcConfig::max_grant_backlog_packets`], which is what bounds the
//!   receiver's queue occupancy under deep incast: the receiver never
//!   invites more traffic than its downlink can absorb.

use super::CcConfig;

/// The receiver's view of one incomplete message, fed to
/// [`SrptGrantScheduler::schedule`].
#[derive(Debug, Clone, Copy)]
pub struct MsgView {
    /// Message ID.
    pub id: u64,
    /// Packets of the message received so far.
    pub seen: usize,
    /// Packets granted so far (including the unscheduled prefix).
    pub granted: usize,
    /// Estimated total packets of the message.
    pub total: usize,
}

/// One grant the scheduler decided to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantDecision {
    /// Message being granted.
    pub message_id: u64,
    /// New granted offset, in packets (monotonically non-decreasing).
    pub granted_packets: u32,
    /// Network priority for the granted bytes (0 = highest).
    pub priority: u8,
}

/// The SRPT grant machine.  Pure policy: the caller owns the per-message
/// receive state and feeds a view of it on every arrival.
#[derive(Debug, Clone)]
pub struct SrptGrantScheduler {
    config: CcConfig,
    /// Packets granted ahead of `seen` per scheduling round.
    grant_window: usize,
    grants_issued: u64,
    outstanding: u64,
}

impl SrptGrantScheduler {
    /// Creates a scheduler granting `grant_window` packets ahead per round.
    pub fn new(config: CcConfig, grant_window: usize) -> Self {
        Self {
            config,
            grant_window: grant_window.max(1),
            grants_issued: 0,
            outstanding: 0,
        }
    }

    /// GRANTs issued over the scheduler's lifetime.
    pub fn grants_issued(&self) -> u64 {
        self.grants_issued
    }

    /// Granted-but-unreceived packets after the last scheduling round — the
    /// invited backlog, surfaced as `grants_outstanding` in endpoint stats.
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Ranks the grant-eligible messages SRPT-style and returns the grants
    /// to issue now.  `views` is the receiver's incomplete, grant-eligible
    /// messages (total beyond the unscheduled prefix); order does not
    /// matter.  Decisions never lower an existing grant, never exceed the
    /// message's estimated total by more than the round-off slack, and keep
    /// the summed backlog under the configured cap.
    pub fn schedule(&mut self, views: &[MsgView]) -> Vec<GrantDecision> {
        let mut ranked: Vec<&MsgView> = views.iter().collect();
        // Shortest remaining processing time; message ID breaks ties so the
        // order (hence the packet trace) is deterministic.
        ranked.sort_by_key(|m| (m.total.saturating_sub(m.seen), m.id));

        // Backlog already invited across every message, granted or not.
        let mut backlog: usize = views.iter().map(|m| m.granted.saturating_sub(m.seen)).sum();
        let mut out = Vec::new();
        for (rank, m) in ranked.iter().enumerate().take(self.config.active_grants) {
            let priority = (rank as u8).min(self.config.priority_levels.saturating_sub(1));
            // Keep `grant_window` packets in flight beyond what arrived; the
            // +4 slack absorbs the total-estimate round-off.
            let desired = (m.seen + self.grant_window).min(m.total + 4);
            if desired <= m.granted {
                continue;
            }
            let room = self
                .config
                .max_grant_backlog_packets
                .saturating_sub(backlog);
            let add = (desired - m.granted).min(room);
            if add == 0 {
                continue;
            }
            backlog += add;
            self.grants_issued += 1;
            out.push(GrantDecision {
                message_id: m.id,
                granted_packets: (m.granted + add) as u32,
                priority,
            });
        }
        self.outstanding = backlog as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> SrptGrantScheduler {
        SrptGrantScheduler::new(CcConfig::default(), 16)
    }

    #[test]
    fn shortest_remaining_granted_first_and_highest_priority() {
        let mut s = scheduler();
        let views = [
            MsgView {
                id: 1,
                seen: 10,
                granted: 10,
                total: 100,
            },
            MsgView {
                id: 2,
                seen: 10,
                granted: 10,
                total: 20,
            },
        ];
        let grants = s.schedule(&views);
        assert_eq!(grants[0].message_id, 2, "fewest remaining first");
        assert_eq!(grants[0].priority, 0);
        assert_eq!(grants[1].message_id, 1);
        assert_eq!(grants[1].priority, 1);
    }

    #[test]
    fn only_top_k_messages_granted() {
        let config = CcConfig {
            active_grants: 2,
            max_grant_backlog_packets: 1024,
            ..CcConfig::default()
        };
        let mut s = SrptGrantScheduler::new(config, 8);
        let views: Vec<MsgView> = (0..10)
            .map(|i| MsgView {
                id: i,
                seen: 8,
                granted: 8,
                total: 50 + i as usize,
            })
            .collect();
        let grants = s.schedule(&views);
        assert_eq!(grants.len(), 2, "overcommitment degree respected");
        assert_eq!(grants[0].message_id, 0);
        assert_eq!(grants[1].message_id, 1);
    }

    #[test]
    fn backlog_cap_bounds_invited_traffic() {
        let config = CcConfig {
            active_grants: 8,
            max_grant_backlog_packets: 20,
            ..CcConfig::default()
        };
        let mut s = SrptGrantScheduler::new(config, 16);
        let views: Vec<MsgView> = (0..8)
            .map(|i| MsgView {
                id: i,
                seen: 0,
                granted: 0,
                total: 100,
            })
            .collect();
        let grants = s.schedule(&views);
        let invited: u32 = grants.iter().map(|g| g.granted_packets).sum();
        assert!(invited <= 20, "invited {invited} packets past the cap");
        assert_eq!(s.outstanding(), u64::from(invited));
    }

    #[test]
    fn grants_never_regress_or_overshoot() {
        let mut s = scheduler();
        let views = [MsgView {
            id: 7,
            seen: 95,
            granted: 98,
            total: 100,
        }];
        let grants = s.schedule(&views);
        for g in &grants {
            assert!(g.granted_packets as usize > 98);
            assert!(g.granted_packets as usize <= 104, "total + slack cap");
        }
    }

    #[test]
    fn fully_granted_messages_get_nothing() {
        let mut s = scheduler();
        let views = [MsgView {
            id: 1,
            seen: 0,
            granted: 104,
            total: 100,
        }];
        assert!(s.schedule(&views).is_empty());
    }
}
