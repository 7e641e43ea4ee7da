//! Packet-level NIC model: TSO and TLS autonomous offload (paper §2.3, §3.2,
//! Fig. 2).
//!
//! The model enforces the interface contract of the ConnectX-6/7 "autonomous
//! offload" architecture as described by Pismenny et al. and the kernel TLS
//! offload documentation, which is what SMT's flow-context design (§4.4.2) is
//! built against:
//!
//! * each **flow context** lives in NIC memory and holds a self-incrementing
//!   expected record sequence number;
//! * a segment whose first record matches the context's expectation is encrypted
//!   correctly and the expectation advances by the segment's record count;
//! * a **resync descriptor** queued before a segment re-targets the expectation;
//! * a segment that arrives out of sequence *without* a resync produces corrupted
//!   ciphertext (modelled by the `corrupted` packet flag), exactly the "Out-seq."
//!   case of Fig. 2;
//! * descriptors are only ordered **within one queue** — the model keeps
//!   per-queue state and nothing else, so cross-queue races surface naturally.
//!
//! The actual AEAD bytes were already produced by `smt-core` (see DESIGN.md);
//! the NIC model validates the descriptor discipline when a segment is
//! submitted, counts the MTU-sized packets it expands into, and accounts the
//! offloaded crypto bytes.  The expansion itself (overlay header replicated,
//! IPIDs stamped) is [`TsoSegment::packet_at`]: [`NicModel::transmit`] cuts
//! every packet on the spot, while a transport that paces a message cuts each
//! one as it leaves.

use crate::time::Nanos;
use serde::{Deserialize, Serialize};
use smt_wire::{Packet, TsoSegment};
use std::collections::HashMap;

/// Counters kept by the NIC model.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
pub struct NicStats {
    /// TSO segments submitted.
    pub segments: u64,
    /// Packets emitted onto the wire.
    pub packets: u64,
    /// Payload bytes emitted.
    pub bytes: u64,
    /// Records encrypted by the offload engine.
    pub offload_records: u64,
    /// Payload bytes encrypted by the offload engine.
    pub offload_bytes: u64,
    /// Resync descriptors processed.
    pub resyncs: u64,
    /// Flow contexts allocated in NIC memory.
    pub contexts_allocated: u64,
    /// Segments encrypted with a stale sequence expectation (corrupted output).
    pub out_of_sequence: u64,
}

#[derive(Debug, Clone, Copy)]
struct FlowContextState {
    expected_seq: u64,
    valid: bool,
}

/// What [`NicModel::submit`] decided for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submitted {
    /// Packets the segment is cut into at the NIC's MTU.
    pub packets: usize,
    /// The offload engine encrypted under a stale sequence expectation:
    /// every packet of the segment is undecryptable.
    pub corrupted: bool,
    /// NIC processing time to charge.
    pub nic_ns: Nanos,
}

/// The transmit-side NIC model for one host.
#[derive(Debug)]
pub struct NicModel {
    mtu: usize,
    tso_enabled: bool,
    /// Per-queue flow-context tables: (queue, context id) → state.
    contexts: HashMap<(usize, u32), FlowContextState>,
    /// Counters.
    pub stats: NicStats,
}

impl NicModel {
    /// Creates a NIC with the given MTU and TSO capability.
    pub fn new(mtu: usize, tso_enabled: bool) -> Self {
        Self {
            mtu,
            tso_enabled,
            contexts: HashMap::new(),
            stats: NicStats::default(),
        }
    }

    /// The configured MTU.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Whether TSO is enabled.
    pub fn tso_enabled(&self) -> bool {
        self.tso_enabled
    }

    /// Number of flow contexts currently held in NIC memory.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Takes one TSO segment's descriptor on `queue`: runs the flow-context
    /// discipline, counts what will go onto the wire, and says how the
    /// segment's packets come out.  The packets themselves are cut from the
    /// segment by whoever lets them leave ([`TsoSegment::packet_at`]), each
    /// flagged `corrupted` when the verdict says so.
    ///
    /// If the segment carries an offload descriptor, the flow-context discipline
    /// is enforced: out-of-sequence submissions without a resync yield packets
    /// flagged `corrupted` (undecryptable at the receiver).
    pub fn submit(&mut self, queue: usize, segment: &TsoSegment) -> Submitted {
        self.stats.segments += 1;
        let record_count = segment.options().record_count as u64;

        let mut corrupted = false;
        if let Some(desc) = segment.offload {
            let key = (queue, desc.flow_context_id);
            let entry = self.contexts.entry(key).or_insert_with(|| {
                self.stats.contexts_allocated += 1;
                FlowContextState {
                    expected_seq: 0,
                    valid: false,
                }
            });
            if desc.resync {
                self.stats.resyncs += 1;
                entry.expected_seq = desc.first_record_seq;
                entry.valid = true;
            }
            if !entry.valid || entry.expected_seq != desc.first_record_seq {
                // Fig. 2 "Out-seq.": the engine encrypts with the wrong counter.
                corrupted = true;
                self.stats.out_of_sequence += 1;
            }
            // The self-incrementing counter advances over the segment's records
            // regardless (that is what makes the corruption persistent until the
            // next resync).
            entry.expected_seq = entry.expected_seq.wrapping_add(record_count);
            entry.valid = true;

            self.stats.offload_records += record_count;
            self.stats.offload_bytes += segment.len() as u64;
        }

        let packets = segment
            .packet_count(self.mtu)
            .expect("segment within limits");
        self.stats.packets += packets as u64;
        self.stats.bytes += segment.len() as u64;

        // NIC processing time: DMA + per-packet emission; crypto is effectively
        // line-rate in the offload engine and hidden behind serialization.
        let per_packet_ns: Nanos = 15;
        Submitted {
            packets,
            corrupted,
            nic_ns: per_packet_ns * record_count.max(1),
        }
    }

    /// [`Self::submit`] with every packet cut at once: the packets that go
    /// onto the wire and the NIC processing time to charge.
    pub fn transmit(&mut self, queue: usize, segment: &TsoSegment) -> (Vec<Packet>, Nanos) {
        let verdict = self.submit(queue, segment);
        let mut packets = segment.packetize(self.mtu).expect("segment within limits");
        for p in &mut packets {
            p.corrupted = verdict.corrupted;
        }
        (packets, verdict.nic_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use smt_wire::{SmtOverlayHeader, TlsOffloadDescriptor, DEFAULT_MTU, IPPROTO_SMT};

    fn segment(message_id: u64, first_record_index: u16, records: u16, len: usize) -> TsoSegment {
        let mut overlay = SmtOverlayHeader::data(1, 2, message_id, len as u32);
        overlay.options.record_count = records;
        overlay.options.first_record_index = first_record_index;
        TsoSegment::new(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            IPPROTO_SMT,
            overlay,
            Bytes::from(vec![0u8; len]),
        )
    }

    fn with_offload(mut seg: TsoSegment, ctx: u32, seq: u64, resync: bool) -> TsoSegment {
        seg.offload = Some(TlsOffloadDescriptor {
            flow_context_id: ctx,
            first_record_seq: seq,
            resync,
        });
        seg
    }

    #[test]
    fn tso_expands_and_stamps_ipids() {
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        let (pkts, _) = nic.transmit(0, &segment(1, 0, 3, 40_000));
        assert!(pkts.len() > 20);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.packet_offset(), Some(i as u16));
            assert!(!p.corrupted);
        }
        assert_eq!(nic.stats.packets as usize, pkts.len());
    }

    #[test]
    fn in_sequence_offload_is_clean() {
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        // Fresh context, resync on first segment, continuation in sequence.
        let (p1, _) = nic.transmit(0, &with_offload(segment(1, 0, 2, 3000), 7, 0, true));
        let (p2, _) = nic.transmit(0, &with_offload(segment(1, 2, 2, 3000), 7, 2, false));
        assert!(p1.iter().chain(p2.iter()).all(|p| !p.corrupted));
        assert_eq!(nic.stats.out_of_sequence, 0);
        assert_eq!(nic.stats.contexts_allocated, 1);
        assert_eq!(nic.stats.resyncs, 1);
    }

    #[test]
    fn out_of_sequence_without_resync_corrupts() {
        // Paper Fig. 2: S3 after S1 without R3 produces a corrupted segment.
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        nic.transmit(0, &with_offload(segment(1, 0, 1, 1000), 7, 0, true));
        // Skip ahead (a different message's seqno) without a resync.
        let (pkts, _) = nic.transmit(0, &with_offload(segment(2, 0, 1, 1000), 7, 1 << 16, false));
        assert!(pkts.iter().all(|p| p.corrupted));
        assert_eq!(nic.stats.out_of_sequence, 1);
    }

    #[test]
    fn resync_recovers_out_of_sequence() {
        // Fig. 2 "Out-resync": the resync descriptor retargets the counter.
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        nic.transmit(0, &with_offload(segment(1, 0, 1, 1000), 7, 0, true));
        let (pkts, _) = nic.transmit(0, &with_offload(segment(2, 0, 1, 1000), 7, 1 << 16, true));
        assert!(pkts.iter().all(|p| !p.corrupted));
    }

    #[test]
    fn queues_have_independent_contexts() {
        // The same context id on different queues is a different piece of NIC
        // state (descriptors are only ordered within a queue, §3.2).
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        nic.transmit(0, &with_offload(segment(1, 0, 1, 100), 7, 0, true));
        nic.transmit(1, &with_offload(segment(2, 0, 1, 100), 7, 99, true));
        assert_eq!(nic.context_count(), 2);
        assert_eq!(nic.stats.out_of_sequence, 0);
    }

    #[test]
    fn unprogrammed_context_without_resync_is_corrupted() {
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        let (pkts, _) = nic.transmit(0, &with_offload(segment(1, 0, 1, 100), 3, 42, false));
        assert!(pkts.iter().all(|p| p.corrupted));
    }

    #[test]
    fn plain_segments_pass_through() {
        let mut nic = NicModel::new(DEFAULT_MTU, true);
        let (pkts, _) = nic.transmit(0, &segment(9, 0, 0, 512));
        assert_eq!(pkts.len(), 1);
        assert_eq!(nic.stats.offload_records, 0);
    }
}
