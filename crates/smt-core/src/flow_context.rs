//! NIC flow-context management for TLS autonomous offload (paper §4.4.2).
//!
//! Autonomous offload keeps a *flow context* in NIC memory: the AEAD key, the
//! static IV and a **self-incrementing record sequence number**.  A segment whose
//! first record does not match the context's expected sequence number must be
//! preceded by a *resync descriptor* in the same queue, otherwise the NIC
//! produces corrupted ciphertext (paper Fig. 2).
//!
//! Per-message record sequence spaces make this workable for a message-based
//! transport: messages that share a (5-tuple, queue) pair can share one flow
//! context, because segments within a queue are serialized, so a resync
//! descriptor deterministically applies to the segment that follows it.  Messages
//! sent from different cores go to different queues and therefore use different
//! contexts, avoiding the cross-queue ordering problem of §3.2.  The paper's
//! implementation allocates **one context per queue per 5-tuple**, which is the
//! default here; the ablation benches vary `contexts_per_queue`.

use serde::{Deserialize, Serialize};
use smt_wire::TlsOffloadDescriptor;

/// What the sender must do for a segment it is about to queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowContextUpdate {
    /// The offload descriptor to attach to the TSO segment.
    pub descriptor: TlsOffloadDescriptor,
    /// True if a new flow context had to be allocated in NIC memory (expensive:
    /// requires programming the key) rather than reusing one via resync.
    pub allocated: bool,
}

#[derive(Debug, Clone, Copy)]
struct FlowContext {
    id: u32,
    /// Record sequence number the NIC expects next, `None` until first use.
    expected_seq: Option<u64>,
}

/// Allocates and tracks flow contexts for one session (one 5-tuple).
#[derive(Debug)]
pub struct FlowContextManager {
    queues: Vec<Vec<FlowContext>>,
    contexts_per_queue: usize,
    next_context_id: u32,
    /// Counters for the ablation study.
    pub stats: FlowContextStats,
}

/// Statistics on flow-context usage.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct FlowContextStats {
    /// Contexts allocated (key programmed into NIC memory).
    pub allocations: u64,
    /// Segments that required a resync descriptor.
    pub resyncs: u64,
    /// Segments that matched the context's expected sequence number.
    pub in_sequence: u64,
}

impl FlowContextManager {
    /// Creates a manager for `nic_queues` queues with at most
    /// `contexts_per_queue` contexts each.
    pub fn new(nic_queues: usize, contexts_per_queue: usize) -> Self {
        Self {
            queues: vec![Vec::new(); nic_queues.max(1)],
            contexts_per_queue: contexts_per_queue.max(1),
            next_context_id: 0,
            stats: FlowContextStats::default(),
        }
    }

    /// Total contexts currently allocated (across queues).
    pub fn allocated_contexts(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Prepares a segment whose first record uses `first_record_seq` and which
    /// contains `record_count` records, to be sent on `queue`.
    ///
    /// Returns the offload descriptor (flow context id + resync flag) and
    /// advances the chosen context's expected sequence number past the segment.
    pub fn prepare_segment(
        &mut self,
        queue: usize,
        first_record_seq: u64,
        record_count: u64,
    ) -> FlowContextUpdate {
        let queue_idx = queue % self.queues.len();
        let contexts_per_queue = self.contexts_per_queue;

        // Prefer a context already expecting exactly this sequence number
        // (continuation of the same message on the same queue: no resync).
        let q = &mut self.queues[queue_idx];
        let position = q
            .iter()
            .position(|c| c.expected_seq == Some(first_record_seq));

        let (idx, allocated) = match position {
            Some(i) => (i, false),
            None => {
                if q.len() < contexts_per_queue {
                    // Allocate a fresh context (programs the key into the NIC).
                    let id = self.next_context_id;
                    self.next_context_id += 1;
                    q.push(FlowContext {
                        id,
                        expected_seq: None,
                    });
                    self.stats.allocations += 1;
                    (q.len() - 1, true)
                } else {
                    // Reuse the least-recently-used context via resync (cheaper
                    // than allocation, §4.4.2).
                    (0, false)
                }
            }
        };

        let ctx = &mut q[idx];
        let resync = ctx.expected_seq != Some(first_record_seq);
        if resync {
            self.stats.resyncs += 1;
        } else {
            self.stats.in_sequence += 1;
        }
        ctx.expected_seq = Some(first_record_seq + record_count);
        // Move the context to the back so repeated reuse cycles fairly (LRU).
        let ctx_copy = *ctx;
        q.remove(idx);
        q.push(ctx_copy);

        FlowContextUpdate {
            descriptor: TlsOffloadDescriptor {
                flow_context_id: ctx_copy.id,
                first_record_seq,
                resync,
            },
            allocated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_message_same_queue_needs_no_resync() {
        let mut m = FlowContextManager::new(4, 1);
        // Message 0: records 0..4 sent as two segments of two records each.
        let a = m.prepare_segment(0, 0, 2);
        let b = m.prepare_segment(0, 2, 2);
        assert!(a.allocated);
        assert!(a.descriptor.resync); // first use of a fresh context
        assert!(!b.descriptor.resync); // continuation is in sequence
        assert_eq!(a.descriptor.flow_context_id, b.descriptor.flow_context_id);
        assert_eq!(m.stats.in_sequence, 1);
    }

    #[test]
    fn new_message_on_same_queue_reuses_context_with_resync() {
        let mut m = FlowContextManager::new(1, 1);
        let layout = smt_crypto::SeqnoLayout::default();
        let msg1 = layout.compose(1, 0).unwrap().value();
        let msg2 = layout.compose(2, 0).unwrap().value();
        let a = m.prepare_segment(0, msg1, 1);
        let b = m.prepare_segment(0, msg2, 1);
        // One context total: the second message resyncs it rather than
        // allocating a new one (cheap reuse, §4.4.2).
        assert_eq!(m.allocated_contexts(), 1);
        assert_eq!(a.descriptor.flow_context_id, b.descriptor.flow_context_id);
        assert!(b.descriptor.resync);
        assert!(!b.allocated);
        assert_eq!(m.stats.allocations, 1);
        assert_eq!(m.stats.resyncs, 2);
    }

    #[test]
    fn different_queues_use_different_contexts() {
        let mut m = FlowContextManager::new(4, 1);
        let a = m.prepare_segment(0, 0, 1);
        let b = m.prepare_segment(1, 100, 1);
        assert_ne!(a.descriptor.flow_context_id, b.descriptor.flow_context_id);
        assert_eq!(m.allocated_contexts(), 2);
    }

    #[test]
    fn interleaved_messages_alternate_resyncs() {
        // Two messages interleaving on one queue with one context: every switch
        // between them costs a resync, but correctness is preserved because the
        // queue serializes descriptor + segment pairs.
        let mut m = FlowContextManager::new(1, 1);
        let layout = smt_crypto::SeqnoLayout::default();
        let m1r0 = layout.compose(1, 0).unwrap().value();
        let m2r0 = layout.compose(2, 0).unwrap().value();
        let m1r1 = layout.compose(1, 1).unwrap().value();
        let m2r1 = layout.compose(2, 1).unwrap().value();
        m.prepare_segment(0, m1r0, 1);
        m.prepare_segment(0, m2r0, 1);
        m.prepare_segment(0, m1r1, 1);
        m.prepare_segment(0, m2r1, 1);
        assert_eq!(m.stats.resyncs, 4);
        assert_eq!(m.stats.in_sequence, 0);
    }

    #[test]
    fn more_contexts_reduce_resyncs_for_interleaving() {
        // Ablation: with two contexts per queue, two interleaved messages each
        // keep their own context and stay in sequence after the first segment.
        let mut m = FlowContextManager::new(1, 2);
        let layout = smt_crypto::SeqnoLayout::default();
        for record in 0..4u64 {
            for msg in [1u64, 2u64] {
                let seq = layout.compose(msg, record).unwrap().value();
                m.prepare_segment(0, seq, 1);
            }
        }
        assert_eq!(m.allocated_contexts(), 2);
        // First segment of each message is a resync; the remaining 6 are not.
        assert_eq!(m.stats.resyncs, 2);
        assert_eq!(m.stats.in_sequence, 6);
    }

    #[test]
    fn queue_index_wraps() {
        let mut m = FlowContextManager::new(2, 1);
        let a = m.prepare_segment(5, 0, 1); // 5 % 2 == 1
        let b = m.prepare_segment(1, 1, 1);
        assert_eq!(a.descriptor.flow_context_id, b.descriptor.flow_context_id);
    }
}
