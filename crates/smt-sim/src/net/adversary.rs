//! A seeded, deterministic network adversary for the scenario harness.
//!
//! [`FaultyLink`](super::fabric::FaultyLink) models an *unlucky* network —
//! loss, reordering, duplication.  The [`Adversary`] models a *hostile* one:
//! an attacker who taps the fabric, records flights, and injects forged
//! traffic at the victim.  Its capabilities split along the classic threat
//! model line:
//!
//! * **In-path (recoverable)** — the adversary may withhold traffic for a
//!   bounded window ([`AdversaryConfig::stall_from_ns`] ..
//!   [`AdversaryConfig::stall_until_ns`]), releasing it verbatim at the
//!   window's end.  This stresses mid-handshake RTO paths without destroying
//!   data: an in-path attacker who drops forever is indistinguishable from a
//!   cut cable, which no transport survives.
//! * **Off-path forgery** — recorded packets are re-injected after
//!   [`AdversaryConfig::inject_delay_ns`] as verbatim replays, bit-corrupted
//!   copies, truncated copies, or copies whose payload is spliced from a
//!   *different* recorded packet (the coalescing attack against reassembly).
//!   Synthesized garbage datagrams carry fresh bogus message IDs and
//!   far-future stream offsets, so they land in receiver tracking state
//!   rather than colliding with live transfers — exactly the state-exhaustion
//!   vector the bounded-buffer hardening exists for.
//!
//! Forgeries mutate **payloads only**, never delivery coordinates of live
//! data: the original packets always pass untouched (modulo the stall
//! window), so a correct transport must deliver 100% of legitimate traffic
//! under any adversary profile — the invariant the chaos suite asserts.
//!
//! All randomness comes from one seeded [`StdRng`]; identical seeds reproduce
//! identical attack traces, so adversarial scenarios stay bit-deterministic
//! and diffable like every other scenario.

use super::event::EventQueue;
use super::fabric::PortId;
use crate::time::Nanos;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smt_wire::{Packet, PacketPayload};
use std::collections::VecDeque;

/// Recorded payloads kept for splicing into coalesced forgeries.
const RECORD_DEPTH: usize = 64;

/// Declarative adversary parameters; lands in scenario JSON next to
/// [`FaultConfig`](super::fabric::FaultConfig).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdversaryConfig {
    /// RNG seed; the same seed reproduces the same attack trace.
    pub seed: u64,
    /// Probability an observed packet is replayed verbatim.
    pub replay: f64,
    /// Copies injected per replayed packet (a replay *flood* when > 1).
    pub replay_depth: u32,
    /// Probability an observed data packet spawns a bit-corrupted copy.
    pub corrupt: f64,
    /// Probability an observed data packet spawns a truncated copy.
    pub truncate: f64,
    /// Probability an observed data packet spawns a copy whose payload is
    /// spliced from a different recorded packet (coalescing attack).
    pub coalesce: f64,
    /// Probability an observed packet triggers a garbage burst at its
    /// destination.
    pub garbage: f64,
    /// Garbage datagrams injected per triggered burst.
    pub garbage_burst: u32,
    /// Delay between observing a packet and injecting forgeries derived from
    /// it.  Must exceed the propagation delay so originals land first; the
    /// default (50 µs) is ~50 RTTs of headroom on the default link.
    pub inject_delay_ns: Nanos,
    /// Start of the in-path stall window (virtual time).
    pub stall_from_ns: Nanos,
    /// End of the in-path stall window; traffic withheld during the window is
    /// released verbatim at this instant.  Zero disables stalling.
    pub stall_until_ns: Nanos,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            replay: 0.0,
            replay_depth: 1,
            corrupt: 0.0,
            truncate: 0.0,
            coalesce: 0.0,
            garbage: 0.0,
            garbage_burst: 1,
            inject_delay_ns: 50_000,
            stall_from_ns: 0,
            stall_until_ns: 0,
        }
    }
}

impl AdversaryConfig {
    /// Corrupts, truncates and coalesces recorded flights — the wire-format
    /// forgery profile.
    pub fn corruptor(seed: u64) -> Self {
        Self {
            seed,
            corrupt: 0.4,
            truncate: 0.2,
            coalesce: 0.2,
            ..Self::default()
        }
    }

    /// Replays half of everything it sees, several copies deep — the replay
    /// flood (0-RTT ClientHello replays included when aimed at a handshake
    /// scenario).
    pub fn replay_flood(seed: u64) -> Self {
        Self {
            seed,
            replay: 0.5,
            replay_depth: 4,
            ..Self::default()
        }
    }

    /// Answers every observed packet with a burst of synthesized garbage —
    /// the state-exhaustion profile.
    pub fn garbage_storm(seed: u64) -> Self {
        Self {
            seed,
            garbage: 1.0,
            garbage_burst: 4,
            ..Self::default()
        }
    }

    /// Withholds all traffic inside `[from_ns, until_ns)`, releasing it at
    /// the window's end — the mid-handshake stall profile.
    pub fn staller(seed: u64, from_ns: Nanos, until_ns: Nanos) -> Self {
        Self {
            seed,
            stall_from_ns: from_ns,
            stall_until_ns: until_ns,
            ..Self::default()
        }
    }

    /// Everything at once: forgery, replay, garbage and an early stall.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            replay: 0.25,
            replay_depth: 2,
            corrupt: 0.2,
            truncate: 0.1,
            coalesce: 0.1,
            garbage: 0.25,
            garbage_burst: 2,
            ..Self::default()
        }
    }
}

/// What the adversary did to the traffic so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdversaryStats {
    /// Packets observed on the tap.
    pub observed: u64,
    /// Verbatim copies injected.
    pub replayed: u64,
    /// Bit-corrupted copies injected.
    pub corrupted: u64,
    /// Truncated copies injected.
    pub truncated: u64,
    /// Spliced-payload (coalescing-attack) copies injected.
    pub coalesced: u64,
    /// Synthesized garbage datagrams injected.
    pub garbage: u64,
    /// Packets withheld in the stall window (all released at its end).
    pub stalled: u64,
}

impl AdversaryStats {
    /// Total forged datagrams injected (everything except stalls, which
    /// delay originals rather than adding traffic).
    pub fn injected(&self) -> u64 {
        self.replayed + self.corrupted + self.truncated + self.coalesced + self.garbage
    }
}

/// The attack engine: taps outgoing flights, schedules forged injections.
///
/// The scenario runner calls [`tap`](Self::tap) on every flight before it
/// enters the fabric and treats [`next_injection`](Self::next_injection) /
/// [`pop_due`](Self::pop_due) as one more event source; injected packets
/// enter the fabric from the recorded source port, i.e. the adversary spoofs
/// the victim's peer.
#[derive(Debug)]
pub struct Adversary {
    config: AdversaryConfig,
    rng: StdRng,
    injections: EventQueue<(PortId, Packet)>,
    /// Recently observed data payloads, the splice donors for coalesced
    /// forgeries (bounded).
    recent: VecDeque<bytes::Bytes>,
    /// What happened so far.
    pub stats: AdversaryStats,
}

impl Adversary {
    /// Builds the attack engine from its declarative config (seeded RNG).
    pub fn new(config: AdversaryConfig) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0xbad0_5eed_f0e5_c0de),
            injections: EventQueue::new(),
            recent: VecDeque::new(),
            stats: AdversaryStats::default(),
        }
    }

    /// Observes one outgoing flight from `src` at time `now`, scheduling
    /// forged injections.  Inside the stall window the flight is withheld
    /// (drained from `packets`) and re-scheduled verbatim for the window's
    /// end; otherwise the originals pass untouched.
    pub fn tap(&mut self, now: Nanos, src: PortId, packets: &mut Vec<Packet>) {
        let c = self.config;
        self.stats.observed += packets.len() as u64;
        if c.stall_until_ns > 0 && now >= c.stall_from_ns && now < c.stall_until_ns {
            for p in packets.drain(..) {
                self.stats.stalled += 1;
                self.injections.push(c.stall_until_ns, (src, p));
            }
            return;
        }
        for p in packets.iter() {
            if let Some(b) = p.payload.as_data() {
                if !b.is_empty() {
                    self.recent.push_back(b.clone());
                    if self.recent.len() > RECORD_DEPTH {
                        self.recent.pop_front();
                    }
                }
            }
            let at = now + c.inject_delay_ns;
            if c.replay > 0.0 && self.rng.gen::<f64>() < c.replay {
                for i in 0..c.replay_depth.max(1) as Nanos {
                    self.stats.replayed += 1;
                    self.injections.push(at + i, (src, p.clone()));
                }
            }
            if c.corrupt > 0.0 && self.rng.gen::<f64>() < c.corrupt {
                if let Some(forged) = self.corrupt_copy(p) {
                    self.stats.corrupted += 1;
                    self.injections.push(at, (src, forged));
                }
            }
            if c.truncate > 0.0 && self.rng.gen::<f64>() < c.truncate {
                if let Some(forged) = Self::truncate_copy(p) {
                    self.stats.truncated += 1;
                    self.injections.push(at, (src, forged));
                }
            }
            if c.coalesce > 0.0 && self.rng.gen::<f64>() < c.coalesce {
                if let Some(forged) = self.coalesce_copy(p) {
                    self.stats.coalesced += 1;
                    self.injections.push(at, (src, forged));
                }
            }
            if c.garbage > 0.0 && self.rng.gen::<f64>() < c.garbage {
                for i in 0..c.garbage_burst.max(1) as Nanos {
                    let forged = self.garbage_packet(p);
                    self.stats.garbage += 1;
                    self.injections.push(at + i, (src, forged));
                }
            }
        }
    }

    /// Time of the next pending injection, if any — one more candidate cause
    /// for the scenario event loop.
    pub fn next_injection(&self) -> Option<Nanos> {
        self.injections.next_at()
    }

    /// Pops every injection due at or before `now` as `(src_port, packet)`
    /// pairs ready for `Fabric::send`.
    pub fn pop_due(&mut self, now: Nanos) -> Vec<(PortId, Packet)> {
        let mut out = Vec::new();
        while self.injections.next_at().is_some_and(|t| t <= now) {
            if let Some((_, inj)) = self.injections.pop() {
                out.push(inj);
            }
        }
        out
    }

    /// A copy with one payload byte flipped: wire-valid coordinates, broken
    /// content — must fail authentication (encrypted stacks) or surface as a
    /// conflicting duplicate (typed rejection), never panic.
    fn corrupt_copy(&mut self, p: &Packet) -> Option<Packet> {
        let data = p.payload.as_data()?;
        if data.is_empty() {
            return None;
        }
        let mut bytes = data.to_vec();
        let at = self.rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << self.rng.gen_range(0..8u8);
        let mut forged = p.clone();
        forged.payload = PacketPayload::Data(bytes.into());
        Some(forged)
    }

    /// A copy with the payload cut short (headers still declare the original
    /// lengths) — the length-consistency attack.
    fn truncate_copy(p: &Packet) -> Option<Packet> {
        let data = p.payload.as_data()?;
        if data.len() < 2 {
            return None;
        }
        let mut forged = p.clone();
        forged.payload = PacketPayload::Data(data.slice(0..data.len() / 2));
        Some(forged)
    }

    /// A copy whose payload is spliced from a *different* recorded packet:
    /// same delivery coordinates, inconsistent content — the coalescing
    /// attack against reassembly's duplicate handling.
    fn coalesce_copy(&mut self, p: &Packet) -> Option<Packet> {
        let data = p.payload.as_data()?;
        if data.is_empty() || self.recent.is_empty() {
            return None;
        }
        let donor = &self.recent[self.rng.gen_range(0..self.recent.len())];
        if donor == data || donor.is_empty() {
            return None;
        }
        // Splice the donor's bytes at the victim's length so declared and
        // actual lengths still agree (pure content conflict).
        let take = data.len().min(donor.len());
        let mut bytes = donor.slice(0..take).to_vec();
        bytes.resize(data.len(), 0xa5);
        let mut forged = p.clone();
        forged.payload = PacketPayload::Data(bytes.into());
        Some(forged)
    }

    /// A synthesized garbage datagram aimed at `template`'s destination:
    /// fresh bogus message ID (≥ 2^40), far-future segment coordinates and
    /// random payload bytes.  Lands in receiver tracking state instead of
    /// colliding with live transfers — the state-exhaustion probe.
    fn garbage_packet(&mut self, template: &Packet) -> Packet {
        let mut forged = template.clone();
        forged.overlay.options.message_id = (1u64 << 40) | self.rng.gen::<u32>() as u64;
        let len = self.rng.gen_range(1..=1200usize);
        forged.overlay.options.message_length = len as u32;
        // Far-future stream offset (reserved:tso_offset ≥ 2^40 combined) so
        // stream stacks buffer it out of order instead of desyncing in-order
        // delivery.
        forged.overlay.options.reserved = (1u32 << 8) | self.rng.gen_range(0..256u32);
        forged.overlay.options.tso_offset = self.rng.gen::<u32>();
        forged.overlay.options.resend_packet_offset = 0;
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = self.rng.gen();
        }
        forged.payload = PacketPayload::Data(bytes.into());
        forged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_wire::{
        IpHeader, Ipv4Header, OverlayTcpHeader, PacketType, SmtOptionArea, SmtOverlayHeader,
        IPPROTO_SMT, IPV4_HEADER_LEN, SMT_OVERLAY_LEN,
    };

    fn packet(id: u64, len: usize) -> Packet {
        Packet {
            ip: IpHeader::V4(Ipv4Header::new(
                [10, 0, 0, 1],
                [10, 0, 0, 2],
                IPPROTO_SMT,
                (IPV4_HEADER_LEN + SMT_OVERLAY_LEN + len) as u16,
            )),
            overlay: SmtOverlayHeader {
                tcp: OverlayTcpHeader::new(1, 2, PacketType::Data),
                options: SmtOptionArea::new(id, len as u32),
            },
            payload: PacketPayload::Data(vec![0x42u8; len].into()),
            corrupted: false,
        }
    }

    fn drain(adv: &mut Adversary) -> Vec<(PortId, Packet)> {
        adv.pop_due(Nanos::MAX)
    }

    #[test]
    fn originals_pass_untouched_outside_the_stall_window() {
        let mut adv = Adversary::new(AdversaryConfig::chaos(1));
        let mut flight = vec![packet(0, 100), packet(1, 200)];
        let orig = flight.clone();
        adv.tap(0, 0, &mut flight);
        assert_eq!(flight, orig, "live packets are never mutated in place");
    }

    #[test]
    fn forgeries_inject_after_the_configured_delay() {
        let mut adv = Adversary::new(AdversaryConfig::replay_flood(7));
        let mut flight: Vec<Packet> = (0..32).map(|i| packet(i, 64)).collect();
        adv.tap(1_000, 3, &mut flight);
        assert!(adv.stats.replayed > 0);
        let t = adv.next_injection().unwrap();
        assert!(t >= 1_000 + AdversaryConfig::default().inject_delay_ns);
        assert!(
            adv.pop_due(t - 1).is_empty(),
            "nothing due before the delay"
        );
        let due = drain(&mut adv);
        assert_eq!(due.len() as u64, adv.stats.replayed);
        assert!(due.iter().all(|(port, _)| *port == 3), "spoofs the source");
    }

    #[test]
    fn corrupt_and_truncate_mutate_payload_only() {
        let mut adv = Adversary::new(AdversaryConfig {
            corrupt: 1.0,
            truncate: 1.0,
            ..AdversaryConfig::default()
        });
        let mut flight = vec![packet(9, 400)];
        adv.tap(0, 0, &mut flight);
        let due = drain(&mut adv);
        assert_eq!(due.len(), 2);
        for (_, forged) in &due {
            assert_eq!(forged.overlay.options, flight[0].overlay.options);
            assert_ne!(forged.payload, flight[0].payload);
        }
        assert_eq!(adv.stats.corrupted, 1);
        assert_eq!(adv.stats.truncated, 1);
    }

    #[test]
    fn garbage_never_collides_with_live_message_ids() {
        let mut adv = Adversary::new(AdversaryConfig::garbage_storm(3));
        let mut flight = vec![packet(5, 100)];
        adv.tap(0, 0, &mut flight);
        let due = drain(&mut adv);
        assert!(!due.is_empty());
        for (_, g) in &due {
            assert!(g.overlay.options.message_id >= 1 << 40);
            assert!(g.overlay.options.reserved >= 1 << 8, "far-future offset");
        }
    }

    #[test]
    fn stall_window_withholds_then_releases_verbatim() {
        let mut adv = Adversary::new(AdversaryConfig::staller(0, 1_000, 5_000));
        let mut flight = vec![packet(0, 50)];
        let orig = flight.clone();
        adv.tap(2_000, 1, &mut flight);
        assert!(flight.is_empty(), "withheld in the window");
        assert_eq!(adv.stats.stalled, 1);
        assert_eq!(adv.next_injection(), Some(5_000));
        let released = drain(&mut adv);
        assert_eq!(released, vec![(1, orig[0].clone())]);
        // Outside the window traffic passes.
        let mut after = vec![packet(1, 50)];
        adv.tap(6_000, 1, &mut after);
        assert_eq!(after.len(), 1);
    }

    #[test]
    fn identical_seeds_reproduce_identical_attack_traces() {
        let run = |seed| {
            let mut adv = Adversary::new(AdversaryConfig::chaos(seed));
            for i in 0..64 {
                let mut flight = vec![packet(i, 64 + i as usize)];
                adv.tap(i * 1_000, (i % 4) as PortId, &mut flight);
            }
            let due: Vec<_> = drain(&mut adv);
            (adv.stats, due)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }
}
