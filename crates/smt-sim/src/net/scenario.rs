//! The scenario layer: hosts real protocol engines on the fabric, drives them
//! in simulated time, and reports what happened.
//!
//! A [`Scenario`] describes a topology (hosts + flows), a workload (a
//! time-sorted list of [`ScheduledSend`]s) and the network conditions
//! ([`LinkConfig`] + [`FaultConfig`]).  [`run_scenario`] couples it to a set
//! of [`SimEndpoint`]s — two per flow, the real `smt-transport` engines in
//! production use — and steps them on the one [`Driver`] every harness
//! shares, bringing in the workload sends, deferred app sends and adversary
//! injections as the driver's caller-counted causes, until traffic quiesces
//! or the event budget runs out.
//!
//! Everything observable lands in a [`ScenarioReport`]: per-message latency
//! percentiles and goodput measured by the runner, the endpoints'
//! [`EndpointStats`] folded into one, the fabric's counters, and an
//! order-sensitive [`trace_hash`] digest of the full event sequence that the
//! determinism tests compare across runs.  [`EndpointStats`] is defined here,
//! beside the [`SimEndpoint`] contract that returns it.
//!
//! [`trace_hash`]: ScenarioReport::trace_hash

use super::adversary::{Adversary, AdversaryConfig, AdversaryStats};
use super::driver::{Driver, Hosts};
use super::event::TraceHash;
use super::fabric::{
    EcnConfig, Fabric, FabricStats, FaultConfig, HostId, LinkConfig, PortId, Topology,
};
use crate::time::{to_micros, Nanos, SECOND};
use serde::{Deserialize, Serialize};
use smt_wire::Packet;
use std::collections::BTreeMap;

/// Aggregate counters for one endpoint, uniform across protocol stacks: the
/// engines increment it, `smt-transport` re-exports it as its endpoints'
/// `stats()` type, and [`ScenarioReport::endpoints`] folds every endpoint's
/// with [`absorb`](Self::absorb).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EndpointStats {
    /// Messages accepted by the endpoint's `send`.
    pub messages_sent: u64,
    /// Application bytes accepted for transmission.
    pub bytes_sent: u64,
    /// Wire payload bytes produced (records + framing + tags).
    pub wire_bytes_sent: u64,
    /// Messages delivered to the application.
    pub messages_delivered: u64,
    /// Application bytes delivered.
    pub bytes_delivered: u64,
    /// Wire payload bytes received (mirror of `wire_bytes_sent`, counted
    /// before authentication — replays and corrupt packets still arrived).
    pub wire_bytes_received: u64,
    /// Replayed or duplicate data packets rejected by the receive side.
    pub replays_rejected: u64,
    /// Data packets retransmitted by the send side (RESEND-triggered,
    /// go-back-N, or sender-timeout).
    pub retransmissions: u64,
    /// Retransmission timers that fired (timeout calls that found expired
    /// work).
    pub timeouts_fired: u64,
    /// Received datagrams this endpoint discarded: failed authentication,
    /// malformed, or arrived after a fatal error.
    pub datagrams_dropped: u64,
    /// TLS records sealed in software on the send side.  Offloaded stacks
    /// (NIC-sealed records) and plaintext stacks leave this at zero;
    /// [`run_scenario`] charges [`Scenario::cpu`] per record counted here.
    pub records_sealed: u64,
    /// Received datagrams rejected as structurally malformed before any
    /// cryptographic check: bad framing, inconsistent segment geometry,
    /// oversized declared lengths, handshake fragments outside their flight.
    pub malformed_rejected: u64,
    /// Received records or packets whose AEAD tag (or stream-cipher state)
    /// failed authentication — forged or corrupted ciphertext.
    pub auth_failures: u64,
    /// Times a bounded per-peer buffer (reassembly, out-of-order stream
    /// segments, replay guard, handshake queue) hit its cap and evicted state
    /// to stay within it.  Legitimate traffic recovers via retransmission.
    pub state_evictions: u64,
    /// High-water mark of attacker-influenceable buffered bytes across the
    /// endpoint's bounded buffers (reassembly + out-of-order + queued sends +
    /// handshake fragments).  Chaos scenarios assert this stays under the
    /// configured caps even under floods.
    pub peak_tracked_bytes: u64,
    /// ECN CE marks the congestion controller has reacted to (stream stacks:
    /// CE counts echoed back in SACK frames).  Zero on message stacks.
    pub ecn_marks_seen: u64,
    /// Instantaneous congestion window in bytes (stream stacks).
    pub cwnd_bytes: u64,
    /// Instantaneous smoothed RTT estimate in nanoseconds (zero before the
    /// first Karn-clean sample).
    pub srtt_ns: u64,
    /// Granted-but-unreceived packets the message-engine receiver has
    /// invited (the SRPT scheduler's bounded backlog).  Zero on stream
    /// stacks.
    pub grants_outstanding: u64,
}

impl EndpointStats {
    /// Folds another endpoint's statistics into this aggregate: event
    /// counters (and the instantaneous grant backlog, which adds across
    /// connections) are summed; per-connection gauges — the high-water mark,
    /// the window and the RTT estimate — keep the largest value seen.
    pub fn absorb(&mut self, other: &EndpointStats) {
        self.messages_sent += other.messages_sent;
        self.bytes_sent += other.bytes_sent;
        self.wire_bytes_sent += other.wire_bytes_sent;
        self.messages_delivered += other.messages_delivered;
        self.bytes_delivered += other.bytes_delivered;
        self.wire_bytes_received += other.wire_bytes_received;
        self.replays_rejected += other.replays_rejected;
        self.retransmissions += other.retransmissions;
        self.timeouts_fired += other.timeouts_fired;
        self.datagrams_dropped += other.datagrams_dropped;
        self.records_sealed += other.records_sealed;
        self.malformed_rejected += other.malformed_rejected;
        self.auth_failures += other.auth_failures;
        self.state_evictions += other.state_evictions;
        self.ecn_marks_seen += other.ecn_marks_seen;
        self.grants_outstanding += other.grants_outstanding;
        self.peak_tracked_bytes = self.peak_tracked_bytes.max(other.peak_tracked_bytes);
        self.cwnd_bytes = self.cwnd_bytes.max(other.cwnd_bytes);
        self.srtt_ns = self.srtt_ns.max(other.srtt_ns);
    }
}

/// The former name of [`EndpointStats`], kept only because the repository
/// benchmark (`bench/`) still names it; the next change to that benchmark
/// drops the name and this alias with it.
pub type SimEndpointStats = EndpointStats;

/// The contract a protocol engine implements to live on the fabric.
///
/// This is the time-based mirror of `smt-transport`'s `SecureEndpoint`: every
/// driving call carries the virtual clock, and the endpoint exposes its next
/// retransmission deadline instead of relying on a caller-owned tick loop.
/// (`smt-transport` implements it for its unified `Endpoint`, so any of the
/// eight evaluated stacks drops in here.)
pub trait SimEndpoint {
    /// Queues one application message at time `now`; returns its ID, or
    /// `None` if the endpoint refused it (fatal prior error).
    fn send(&mut self, data: &[u8], now: Nanos) -> Option<u64>;

    /// Processes one packet received from the fabric at time `now`.
    fn handle_datagram(&mut self, packet: &Packet, now: Nanos);

    /// Appends every packet the endpoint wants on the wire at time `now`,
    /// returning how many were appended.
    fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize;

    /// The absolute time of the endpoint's next retransmission deadline, if
    /// it has outstanding work.
    fn next_timeout(&self) -> Option<Nanos>;

    /// Fires the retransmission timer at time `now`.
    fn on_timeout(&mut self, now: Nanos);

    /// Drains completed deliveries as `(message_id, payload)` pairs.
    fn take_delivered(&mut self) -> Vec<(u64, Vec<u8>)>;

    /// The endpoint's counters; [`run_scenario`] folds every endpoint's
    /// into [`ScenarioReport::endpoints`] with [`EndpointStats::absorb`].
    fn sim_stats(&self) -> EndpointStats;

    /// `sim_stats().records_sealed`, which the runner reads around every
    /// charged send; override it where one counter is cheaper than the whole
    /// snapshot.
    fn records_sealed(&self) -> u64 {
        self.sim_stats().records_sealed
    }
}

/// One bidirectional flow between two hosts; the scenario allocates a port
/// (and an endpoint) for each end.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Host of the initiating (client) end.
    pub src_host: HostId,
    /// Host of the responding (server) end.
    pub dst_host: HostId,
}

/// A reply produced by a [`ScenarioApp`] host for one delivered request.
///
/// The two delay terms model the paper's two kinds of server-side time:
/// `compute_ns` occupies the (single) application core serving that endpoint
/// — back-to-back requests queue behind it, the Redis model — while
/// `fixed_ns` is pure latency that burns no CPU (an NVMe read in flight, the
/// blockstore model).  Both zero sends the reply at delivery time, exactly
/// like the plain `run_scenario` closure path.
#[derive(Debug, Clone)]
pub struct AppReply {
    /// Reply payload sent back on the same flow.
    pub data: Vec<u8>,
    /// Server application compute that occupies the endpoint's app core.
    pub compute_ns: Nanos,
    /// Server-side fixed latency that occupies no CPU (device time).
    pub fixed_ns: Nanos,
}

impl AppReply {
    /// A reply with no server-side delay (the echo server).
    pub fn immediate(data: Vec<u8>) -> Self {
        Self {
            data,
            compute_ns: 0,
            fixed_ns: 0,
        }
    }
}

/// An application host driven by [`run_scenario_app`]: the netbench-style
/// driver/scenario split.  The scenario owns time and the network; the app
/// owns request semantics (what a server replies, what a client asks next).
///
/// `on_request` runs at every server-end delivery and may return a clocked
/// [`AppReply`].  `on_reply` runs at every client-end reply delivery and may
/// return the *next* request for that flow — the closed-loop hook the
/// throughput and YCSB figures drive: seed the loop with `concurrency`
/// scheduled sends, then keep exactly that many RPCs outstanding.
pub trait ScenarioApp {
    /// Called for every workload message delivered at a server end; a
    /// returned reply is sent back on the same flow after its delays.
    fn on_request(&mut self, flow: usize, id: u64, request: &[u8], now: Nanos) -> Option<AppReply>;

    /// Called for every reply delivered back at a client end; a returned
    /// payload is sent as a fresh workload request on the same flow
    /// (closed-loop generation).  Defaults to open-loop (no new request).
    fn on_reply(&mut self, _flow: usize, _id: u64, _reply: &[u8], _now: Nanos) -> Option<Vec<u8>> {
        None
    }

    /// Called when a scheduled workload send fires, letting the app replace
    /// the deterministic filler payload with a real encoded request for the
    /// flow (the KV and blockstore hosts need request framing the scenario's
    /// size-only send list can't carry).  Defaults to the filler.
    fn initial_request(&mut self, _flow: usize, _size: usize, _now: Nanos) -> Option<Vec<u8>> {
        None
    }
}

/// Adapts the plain `run_scenario` reply closure to the [`ScenarioApp`]
/// contract (open-loop, zero server delay).
struct FnApp<F>(F);

impl<F: FnMut(usize, u64, &[u8], Nanos) -> Option<Vec<u8>>> ScenarioApp for FnApp<F> {
    fn on_request(&mut self, flow: usize, id: u64, request: &[u8], now: Nanos) -> Option<AppReply> {
        (self.0)(flow, id, request, now).map(AppReply::immediate)
    }
}

/// One workload-initiated message: at time `at`, the client end of `flow`
/// sends `size` bytes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScheduledSend {
    /// Virtual send time.
    pub at: Nanos,
    /// Index into [`Scenario::flows`].
    pub flow: usize,
    /// Application payload size in bytes.
    pub size: usize,
}

/// Sender-side CPU cost charged against the virtual clock for each workload
/// send, modelling the protocol-stack time a real host would burn sealing
/// records before the first byte reaches the wire.
///
/// The per-record and per-byte terms mirror `smt_sim::cost::CostModel`'s
/// software-crypto split (`CostModel::cpu_charge` builds one of these from
/// the calibrated model).  The charge is applied once per scheduled send,
/// scaled by how many records the endpoint actually sealed for it — an
/// offloaded or plaintext stack seals zero records and pays nothing, which
/// is exactly the asymmetry the paper's CPU-vs-latency trade-off hinges on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuCharge {
    /// Fixed cost per sealed record (AEAD setup, framing, seqno).
    pub sw_per_record_ns: Nanos,
    /// Marginal cost per application byte encrypted.
    pub sw_ns_per_byte: f64,
}

impl CpuCharge {
    /// Nanoseconds to seal `bytes` application bytes as `records` records.
    pub fn seal_ns(&self, bytes: u64, records: u64) -> Nanos {
        records * self.sw_per_record_ns + (bytes as f64 * self.sw_ns_per_byte) as Nanos
    }
}

/// A complete scenario description: topology, workload, network conditions.
#[derive(Debug, Clone, Serialize)]
pub struct Scenario {
    /// Human-readable scenario name (lands in the report and bench JSON).
    pub name: String,
    /// Number of hosts in the fabric.
    pub n_hosts: usize,
    /// The flows; endpoint pair `2*i` / `2*i + 1` serves flow `i`.
    pub flows: Vec<FlowSpec>,
    /// Workload sends, sorted by time.
    pub sends: Vec<ScheduledSend>,
    /// Link parameters shared by every host.
    pub link: LinkConfig,
    /// Fault injection applied to all traffic.
    pub faults: FaultConfig,
    /// Hard cap on processed events (a runaway-protocol backstop).
    pub max_events: u64,
    /// Sender CPU cost charged per workload send, scaled by the records the
    /// endpoint sealed for it.  `None` (the default) charges no CPU time.
    pub cpu: Option<CpuCharge>,
    /// Hostile-network model composed on top of [`Self::faults`]: forged
    /// replays, corrupted/truncated/spliced copies, garbage floods and an
    /// in-path stall window.  `None` (the default) runs without an
    /// adversary.
    pub adversary: Option<AdversaryConfig>,
    /// Switching topology.  Defaults to the single big switch.
    pub topology: Topology,
    /// ECN marking at fabric queues.  `None` (the default) never marks.
    pub ecn: Option<EcnConfig>,
}

impl Scenario {
    /// A scenario skeleton with default network conditions and event budget.
    pub fn new(name: impl Into<String>, n_hosts: usize) -> Self {
        Self {
            name: name.into(),
            n_hosts,
            flows: Vec::new(),
            sends: Vec::new(),
            link: LinkConfig::default(),
            faults: FaultConfig::none(),
            max_events: 20_000_000,
            cpu: None,
            adversary: None,
            topology: Topology::BigSwitch,
            ecn: None,
        }
    }

    /// Total workload bytes scheduled.
    pub fn offered_bytes(&self) -> u64 {
        self.sends.iter().map(|s| s.size as u64).sum()
    }

    /// Sorts the workload by `(time, flow)`; [`run_scenario`] requires sorted
    /// sends, and generators call this before returning.
    pub fn sort_sends(&mut self) {
        self.sends.sort_by_key(|s| (s.at, s.flow, s.size));
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_us: f64,
    /// Median latency.
    pub p50_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Minimum latency.
    pub min_us: f64,
    /// Maximum latency.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarises a set of latencies given in nanoseconds.
    pub fn from_nanos(mut samples: Vec<Nanos>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let pick = |q: f64| {
            let idx = ((samples.len() - 1) as f64 * q).round() as usize;
            to_micros(samples[idx])
        };
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        Self {
            mean_us: to_micros((sum / samples.len() as u128) as Nanos),
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            min_us: to_micros(samples[0]),
            max_us: to_micros(*samples.last().unwrap()),
        }
    }
}

/// Everything measured over one scenario run.
#[derive(Debug, Default, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Workload messages handed to `send`.
    pub messages_sent: u64,
    /// Workload messages delivered end to end (excludes replies).
    pub messages_delivered: u64,
    /// Replies delivered back to the requesting end (RPC scenarios).
    pub replies_delivered: u64,
    /// Application bytes delivered (workload + replies).
    pub bytes_delivered: u64,
    /// Virtual time of the last processed event.
    pub duration_ns: Nanos,
    /// One-way delivery latency over workload messages (and replies, measured
    /// from their own send).
    pub latency: LatencySummary,
    /// Per-op application latency: full request-send → reply-delivery round
    /// trips, one sample per completed RPC (empty for reply-less scenarios).
    /// Figure bins read p50/p99 from here instead of re-deriving them.
    pub rpc_latency: LatencySummary,
    /// Delivered application bytes over the run duration, in Gb/s.
    pub goodput_gbps: f64,
    /// Every endpoint's [`SimEndpoint::sim_stats`] at the end of the run,
    /// folded with [`EndpointStats::absorb`]: counters (retransmissions,
    /// timeouts, records sealed, malformed and forged datagrams rejected,
    /// evictions, ...) are summed over all endpoints, and
    /// `peak_tracked_bytes` — the chaos suite's boundedness gauge — is the
    /// largest of any endpoint.
    pub endpoints: EndpointStats,
    /// What the adversary did (all zeros when [`Scenario::adversary`] is
    /// `None`).
    pub adversary: AdversaryStats,
    /// Fabric counters (offered/delivered/dropped/duplicated).
    pub fabric: FabricStats,
    /// Order-sensitive digest of the processed event sequence; equal digests
    /// mean bit-identical runs.
    pub trace_hash: u64,
    /// Events processed.
    pub events: u64,
    /// True when the run hit [`Scenario::max_events`] before quiescing.
    pub truncated: bool,
}

/// What caused an event, folded into the trace digest.
mod trace_tag {
    pub const SEND: u64 = 1;
    pub const ARRIVAL: u64 = 2;
    pub const TIMEOUT: u64 = 3;
    pub const DELIVERY: u64 = 4;
    pub const INJECT: u64 = 5;
    pub const APP: u64 = 6;
}

/// Runs `scenario` over `endpoints` (two per flow: index `2*f` is the client
/// end of flow `f`, `2*f + 1` the server end).
///
/// `on_deliver(flow, message_id, payload, now)` is invoked for every workload
/// message delivered at a server end; returning `Some(reply)` makes the
/// server end send that reply back on the same flow (the RPC pattern — the
/// bench harness plugs `smt-apps`' echo server in here).  Replies' deliveries
/// at the client end are measured like any other message but are counted
/// separately in the report.
pub fn run_scenario(
    scenario: &Scenario,
    endpoints: &mut [Box<dyn SimEndpoint + '_>],
    on_deliver: impl FnMut(usize, u64, &[u8], Nanos) -> Option<Vec<u8>>,
) -> ScenarioReport {
    run_scenario_app(scenario, endpoints, &mut FnApp(on_deliver))
}

/// An app send queued for a later virtual time, as (endpoint, payload,
/// request send time): a server reply held for its compute/device delay,
/// keyed back to its request, or a closed-loop client request (`None`).
type PendingSend = (usize, Vec<u8>, Option<Nanos>);

/// What [`run_scenario_app`] keeps beside its [`Driver`]: the hosted
/// endpoints (endpoint `i` in slot `i`, on port `i`), the app, the
/// adversary, and the accounting the report is built from.
struct Run<'a, 'e> {
    endpoints: &'a mut [Box<dyn SimEndpoint + 'e>],
    app: &'a mut dyn ScenarioApp,
    adversary: Option<Adversary>,
    cpu: Option<CpuCharge>,
    trace: TraceHash,
    /// The message counters, filled in as the run goes.
    report: ScenarioReport,
    /// (endpoint index, message id) -> send time, for latency measurement.
    in_flight: BTreeMap<(usize, u64), Nanos>,
    latencies: Vec<Nanos>,
    /// (server endpoint, reply id) -> originating request's send time, for
    /// round-trip per-op latency.
    reply_origin: BTreeMap<(usize, u64), Nanos>,
    rpc_latencies: Vec<Nanos>,
    /// App sends queued for a later virtual time, ordered (time, sequence).
    pending: BTreeMap<(Nanos, u64), PendingSend>,
    pending_seq: u64,
    /// The virtual time each server endpoint's application core frees up:
    /// requests with compute cost queue behind each other (one app thread).
    app_free: Vec<Nanos>,
    /// The virtual time each endpoint's CPU frees up under the CPU charge,
    /// so back-to-back sends on one host serialize behind each other's
    /// sealing work (a busy core, not a busy network).
    cpu_free: Vec<Nanos>,
}

impl Run<'_, '_> {
    fn note(&mut self, words: &[u64]) {
        for &word in words {
            self.trace.note(word);
        }
    }

    /// The one charged send, for workload sends (`tag` SEND) and deferred app
    /// sends (`tag` APP): sends `data` on `ep` now, records it for the
    /// latency accounting, and flushes `ep` once its packets may leave.  That
    /// is now, or later by the [`Scenario::cpu`] charge for the records the
    /// send sealed (counted by the endpoint, so offloaded and plaintext
    /// stacks pay nothing): consecutive sends on one endpoint queue behind
    /// each other's sealing work, without warping the shared clock.
    fn send(&mut self, driver: &mut Driver, tag: u64, ep: usize, data: &[u8], req: Option<Nanos>) {
        let now = driver.now();
        self.note(&[tag, now, ep as u64, data.len() as u64]);
        let sealed_before = self.cpu.map(|_| self.endpoints[ep].records_sealed());
        self.start(ep, data, now, req);
        let mut tx_at = now;
        if let (Some(cpu), Some(before)) = (self.cpu, sealed_before) {
            let records = self.endpoints[ep].records_sealed().saturating_sub(before);
            if records > 0 {
                let seal_ns = cpu.seal_ns(data.len() as u64, records).min(SECOND);
                tx_at = self.cpu_free[ep].max(now) + seal_ns;
                self.cpu_free[ep] = tx_at;
            }
        }
        driver.flush(self, ep, tx_at);
    }

    /// Sends `data` on `ep` at `now` and records it for the latency
    /// accounting (`req`: a reply's request send time); false when the
    /// endpoint refused it.
    fn start(&mut self, ep: usize, data: &[u8], now: Nanos, req: Option<Nanos>) -> bool {
        let Some(id) = self.endpoints[ep].send(data, now) else {
            return false;
        };
        // A client end's send is a request; a server end's, a reply.
        self.report.messages_sent += u64::from(ep.is_multiple_of(2));
        self.in_flight.insert((ep, id), now);
        if let Some(start) = req {
            self.reply_origin.insert((ep, id), start);
        }
        true
    }

    fn defer(&mut self, at: Nanos, ep: usize, data: Vec<u8>, req_start: Option<Nanos>) {
        self.pending
            .insert((at, self.pending_seq), (ep, data, req_start));
        self.pending_seq += 1;
    }

    /// Accounts one message delivered at `ep` at `t` and hands it to the app;
    /// true when `ep` replied at once.
    fn delivered(&mut self, ep: usize, id: u64, data: &[u8], t: Nanos) -> bool {
        let len = data.len() as u64;
        self.note(&[trace_tag::DELIVERY, t, ep as u64, id, len]);
        self.report.bytes_delivered += len;
        let flow = ep / 2;
        if ep.is_multiple_of(2) {
            self.report.replies_delivered += 1;
            if let Some(start) = self.in_flight.remove(&(ep + 1, id)) {
                self.latencies.push(t.saturating_sub(start));
            }
            if let Some(start) = self.reply_origin.remove(&(ep + 1, id)) {
                self.rpc_latencies.push(t.saturating_sub(start));
            }
            if let Some(next) = self.app.on_reply(flow, id, data, t) {
                self.defer(t, ep, next, None);
            }
            return false;
        }
        self.report.messages_delivered += 1;
        let req_start = self.in_flight.remove(&(ep - 1, id));
        if let Some(start) = req_start {
            self.latencies.push(t.saturating_sub(start));
        }
        let Some(reply) = self.app.on_request(flow, id, data, t) else {
            return false;
        };
        // Compute occupies the app core (requests queue behind each other);
        // device time adds latency on top without holding the core.
        let ready = self.app_free[ep].max(t) + reply.compute_ns.min(SECOND);
        if reply.compute_ns > 0 {
            self.app_free[ep] = ready;
        }
        let send_at = ready + reply.fixed_ns.min(SECOND);
        if send_at > t {
            self.defer(send_at, ep, reply.data, req_start);
            return false;
        }
        // An immediate reply: uncharged, and sent on by the flush under way.
        self.start(ep, &reply.data, t, req_start)
    }
}

impl Hosts for Run<'_, '_> {
    fn deliver(&mut self, port: PortId, packet: &Packet, now: Nanos) -> Option<usize> {
        let len = packet.wire_len() as u64;
        self.note(&[trace_tag::ARRIVAL, now, port as u64, len]);
        self.endpoints[port].handle_datagram(packet, now);
        Some(port)
    }

    fn fire(&mut self, slot: usize, now: Nanos) {
        self.note(&[trace_tag::TIMEOUT, now, slot as u64]);
        self.endpoints[slot].on_timeout(now);
    }

    /// Hands `ep`'s packets to the fabric, through the adversary's tap, and
    /// its deliveries to the accounting and the app; polls `ep` once more
    /// when it replied at once.
    fn flush(&mut self, ep: usize, t: Nanos, fabric: &mut Fabric, buf: &mut Vec<Packet>) {
        loop {
            if self.endpoints[ep].poll_transmit(t, buf) > 0 {
                if let Some(adv) = self.adversary.as_mut() {
                    adv.tap(t, ep, buf);
                }
                fabric.send(t, ep, buf.drain(..));
            }
            let mut replied = false;
            for (id, data) in self.endpoints[ep].take_delivered() {
                replied |= self.delivered(ep, id, &data, t);
            }
            if !replied {
                return;
            }
        }
    }

    fn deadline(&self, slot: usize) -> Option<Nanos> {
        self.endpoints[slot].next_timeout()
    }
}

/// [`run_scenario`] with a full [`ScenarioApp`] host instead of the plain
/// reply closure: clocked server replies (compute occupies the app core,
/// device time doesn't) and closed-loop client generation.  Deferred app
/// sends pay the [`Scenario::cpu`] sealing charge exactly like scheduled
/// workload sends; immediate replies keep the original uncharged fast path,
/// so closure-driven scenarios reproduce their previous traces bit for bit.
pub fn run_scenario_app(
    scenario: &Scenario,
    endpoints: &mut [Box<dyn SimEndpoint + '_>],
    app: &mut dyn ScenarioApp,
) -> ScenarioReport {
    let n = endpoints.len();
    assert_eq!(n, scenario.flows.len() * 2, "one endpoint per flow end");
    let (link, faults, ecn) = (scenario.link, scenario.faults, scenario.ecn);
    let mut driver = Driver::new(Fabric::with_topology(link, faults, scenario.topology, ecn));
    for _ in 0..scenario.n_hosts {
        driver.fabric.add_host();
    }
    for (flow, spec) in scenario.flows.iter().enumerate() {
        let a = driver.fabric.add_port(spec.src_host);
        let b = driver.fabric.add_port(spec.dst_host);
        driver.fabric.connect(a, b);
        // Ports are allocated densely in endpoint order, so an endpoint's
        // port is its slot.
        debug_assert_eq!((a, b), (2 * flow, 2 * flow + 1));
    }
    let mut run = Run {
        endpoints,
        app,
        adversary: scenario.adversary.map(Adversary::new),
        cpu: scenario.cpu,
        trace: TraceHash::new(),
        report: ScenarioReport::default(),
        in_flight: BTreeMap::new(),
        latencies: Vec::new(),
        reply_origin: BTreeMap::new(),
        rpc_latencies: Vec::new(),
        pending: BTreeMap::new(),
        pending_seq: 0,
        app_free: vec![0; n],
        cpu_free: vec![0; n],
    };
    driver.watch(&run, n);
    let mut sends = scenario.sends.iter().peekable();
    while driver.events() < scenario.max_events {
        // Deterministic cause priority at equal times: workload sends, then
        // the fabric, then deferred app sends, then adversary injections,
        // then timers.
        let next = [
            sends.peek().map(|s| (s.at, 0u8)),
            driver.fabric.next_arrival().map(|t| (t, 1)),
            run.pending.keys().next().map(|&(at, _)| (at, 2)),
            run.adversary
                .as_ref()
                .and_then(Adversary::next_injection)
                .map(|t| (t, 3)),
            driver.next_deadline().map(|t| (t, 4)),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some((t, cause)) = next else {
            break;
        };
        if cause == 1 || cause == 4 {
            // A fabric step or a timer instant: the driver's own rule picks
            // the one this order picked.
            driver.step(&mut run);
            continue;
        }
        driver.event(t);
        let now = driver.now();
        match cause {
            0 => {
                let s = sends.next().expect("a workload send is due");
                // Deterministic filler payload; contents don't matter to the
                // engines beyond their length.
                let fill = (s.flow as u8).wrapping_mul(31).wrapping_add(s.size as u8);
                let data = run
                    .app
                    .initial_request(s.flow, s.size, now)
                    .unwrap_or_else(|| vec![fill; s.size]);
                run.send(&mut driver, trace_tag::SEND, s.flow * 2, &data, None);
            }
            2 => {
                let (_, (ep, data, req)) = run.pending.pop_first().expect("a deferred send is due");
                run.send(&mut driver, trace_tag::APP, ep, &data, req);
            }
            _ => {
                // Forged traffic enters the fabric from the recorded source
                // port — the adversary spoofing the victim's peer.  Injections
                // bypass the tap (the adversary does not forge its own
                // forgeries).
                let forged = run.adversary.as_mut().map(|a| a.pop_due(now));
                for (port, packet) in forged.unwrap_or_default() {
                    let len = packet.wire_len() as u64;
                    run.note(&[trace_tag::INJECT, now, port as u64, len]);
                    driver.fabric.send(now, port, std::iter::once(packet));
                }
            }
        }
    }

    let mut report = run.report;
    for ep in run.endpoints.iter() {
        report.endpoints.absorb(&ep.sim_stats());
    }
    report.name = scenario.name.clone();
    report.duration_ns = driver.now().max(1);
    report.latency = LatencySummary::from_nanos(run.latencies);
    report.rpc_latency = LatencySummary::from_nanos(run.rpc_latencies);
    let seconds = report.duration_ns as f64 / SECOND as f64;
    report.goodput_gbps = report.bytes_delivered as f64 * 8.0 / seconds / 1e9;
    report.adversary = run.adversary.map(|a| a.stats).unwrap_or_default();
    report.fabric = driver.fabric.stats;
    report.trace_hash = run.trace.digest();
    report.events = driver.events();
    report.truncated = driver.events() >= scenario.max_events;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy reliable endpoint: sends each message as one packet, retransmits
    /// on timeout until the peer's ACK arrives.  Exercises the runner without
    /// pulling protocol crates into smt-sim.
    #[derive(Default)]
    struct ToyEndpoint {
        outbox: Vec<Packet>,
        unacked: BTreeMap<u64, (Packet, Nanos)>,
        next_id: u64,
        delivered: Vec<(u64, Vec<u8>)>,
        seen: std::collections::BTreeSet<u64>,
        stats: EndpointStats,
        rto: Nanos,
        deadline: Option<Nanos>,
        port: (u16, u16),
        /// `next_timeout` calls, shared so a test can read it after the run.
        timeout_polls: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl ToyEndpoint {
        fn new(src: u16, dst: u16) -> Self {
            Self {
                rto: 100_000,
                port: (src, dst),
                ..Self::default()
            }
        }

        fn packet(&self, id: u64, payload: &[u8], ack: bool) -> Packet {
            use smt_wire::*;
            let ptype = if ack {
                PacketType::Ack
            } else {
                PacketType::Data
            };
            Packet {
                ip: IpHeader::V4(Ipv4Header::new(
                    [10, 0, 0, 1],
                    [10, 0, 0, 2],
                    IPPROTO_SMT,
                    (IPV4_HEADER_LEN + SMT_OVERLAY_LEN + payload.len()) as u16,
                )),
                overlay: SmtOverlayHeader {
                    tcp: OverlayTcpHeader::new(self.port.0, self.port.1, ptype),
                    options: SmtOptionArea::new(id, payload.len() as u32),
                },
                payload: if ack {
                    PacketPayload::Ack(HomaAck { message_id: id })
                } else {
                    PacketPayload::Data(payload.to_vec().into())
                },
                corrupted: false,
            }
        }
    }

    impl SimEndpoint for ToyEndpoint {
        fn send(&mut self, data: &[u8], now: Nanos) -> Option<u64> {
            let id = self.next_id;
            self.next_id += 1;
            let p = self.packet(id, data, false);
            self.stats.wire_bytes_sent += data.len() as u64;
            // The toy stack pretends to software-seal one record per message
            // so the CPU-charge path is exercised without protocol crates.
            self.stats.records_sealed += 1;
            self.outbox.push(p.clone());
            self.unacked.insert(id, (p, now));
            self.deadline = Some(
                self.deadline
                    .map_or(now + self.rto, |d| d.min(now + self.rto)),
            );
            Some(id)
        }

        fn handle_datagram(&mut self, packet: &Packet, now: Nanos) {
            use smt_wire::{PacketPayload, PacketType};
            match packet.overlay.tcp.packet_type {
                PacketType::Data => {
                    let id = packet.overlay.options.message_id;
                    if let PacketPayload::Data(d) = &packet.payload {
                        if self.seen.insert(id) {
                            self.delivered.push((id, d.to_vec()));
                            self.stats.messages_delivered += 1;
                        }
                    }
                    self.outbox.push(self.packet(id, &[], true));
                }
                PacketType::Ack => {
                    if let PacketPayload::Ack(a) = &packet.payload {
                        self.unacked.remove(&a.message_id);
                        if self.unacked.is_empty() {
                            self.deadline = None;
                        } else {
                            self.deadline = Some(now + self.rto);
                        }
                    }
                }
                _ => {}
            }
        }

        fn poll_transmit(&mut self, _now: Nanos, out: &mut Vec<Packet>) -> usize {
            let n = self.outbox.len();
            out.append(&mut self.outbox);
            n
        }

        fn next_timeout(&self) -> Option<Nanos> {
            self.timeout_polls.set(self.timeout_polls.get() + 1);
            self.deadline
        }

        fn on_timeout(&mut self, now: Nanos) {
            self.stats.timeouts_fired += 1;
            for (p, _) in self.unacked.values() {
                self.stats.retransmissions += 1;
                self.outbox.push(p.clone());
            }
            self.deadline = if self.unacked.is_empty() {
                None
            } else {
                Some(now + self.rto)
            };
        }

        fn take_delivered(&mut self) -> Vec<(u64, Vec<u8>)> {
            std::mem::take(&mut self.delivered)
        }

        fn sim_stats(&self) -> EndpointStats {
            self.stats
        }
    }

    fn toy_scenario(faults: FaultConfig) -> Scenario {
        let mut s = Scenario::new("toy", 2);
        s.flows.push(FlowSpec {
            src_host: 0,
            dst_host: 1,
        });
        s.faults = faults;
        for i in 0..40u64 {
            s.sends.push(ScheduledSend {
                at: i * 10_000,
                flow: 0,
                size: 600,
            });
        }
        s.sort_sends();
        s
    }

    fn toy_endpoints() -> Vec<Box<dyn SimEndpoint>> {
        vec![
            Box::new(ToyEndpoint::new(1, 2)),
            Box::new(ToyEndpoint::new(2, 1)),
        ]
    }

    #[test]
    fn absorb_sums_counters_and_keeps_the_largest_gauge() {
        let a = EndpointStats {
            messages_sent: 1,
            bytes_sent: 2,
            wire_bytes_sent: 3,
            messages_delivered: 4,
            bytes_delivered: 5,
            wire_bytes_received: 6,
            replays_rejected: 7,
            retransmissions: 8,
            timeouts_fired: 9,
            datagrams_dropped: 10,
            records_sealed: 11,
            malformed_rejected: 12,
            auth_failures: 13,
            state_evictions: 14,
            peak_tracked_bytes: 9_000,
            ecn_marks_seen: 16,
            cwnd_bytes: 17,
            srtt_ns: 18_000,
            grants_outstanding: 19,
        };
        let b = EndpointStats {
            messages_sent: 100,
            bytes_sent: 200,
            wire_bytes_sent: 300,
            messages_delivered: 400,
            bytes_delivered: 500,
            wire_bytes_received: 600,
            replays_rejected: 700,
            retransmissions: 800,
            timeouts_fired: 900,
            datagrams_dropped: 1_000,
            records_sealed: 1_100,
            malformed_rejected: 1_200,
            auth_failures: 1_300,
            state_evictions: 1_400,
            peak_tracked_bytes: 15,
            ecn_marks_seen: 1_600,
            cwnd_bytes: 64_000,
            srtt_ns: 18,
            grants_outstanding: 1_900,
        };
        let expected = EndpointStats {
            messages_sent: 101,
            bytes_sent: 202,
            wire_bytes_sent: 303,
            messages_delivered: 404,
            bytes_delivered: 505,
            wire_bytes_received: 606,
            replays_rejected: 707,
            retransmissions: 808,
            timeouts_fired: 909,
            datagrams_dropped: 1_010,
            records_sealed: 1_111,
            malformed_rejected: 1_212,
            auth_failures: 1_313,
            state_evictions: 1_414,
            peak_tracked_bytes: 9_000,
            ecn_marks_seen: 1_616,
            cwnd_bytes: 64_000,
            srtt_ns: 18_000,
            grants_outstanding: 1_919,
        };
        // Folding in either order gives the same totals, so a gauge that kept
        // the first or the last operand instead of the larger fails one order.
        let mut ab = a;
        ab.absorb(&b);
        let mut ba = b;
        ba.absorb(&a);
        assert_eq!(ab, expected);
        assert_eq!(ba, expected);
    }

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::from_nanos(vec![1000, 2000, 3000, 4000, 100_000]);
        assert!(s.p50_us <= s.p99_us);
        assert_eq!(s.min_us, 1.0);
        assert_eq!(s.max_us, 100.0);
        let empty = LatencySummary::from_nanos(vec![]);
        assert_eq!(empty.mean_us, 0.0);
    }

    #[test]
    fn lossless_run_delivers_everything_without_retransmission() {
        let s = toy_scenario(FaultConfig::none());
        let mut eps = toy_endpoints();
        let report = run_scenario(&s, &mut eps, |_, _, _, _| None);
        assert_eq!(report.messages_sent, 40);
        assert_eq!(report.messages_delivered, 40);
        assert_eq!(report.endpoints.retransmissions, 0);
        assert!(!report.truncated);
        assert!(report.latency.p50_us > 0.0);
        assert!(report.goodput_gbps > 0.0);
    }

    #[test]
    fn lossy_run_recovers_via_timeouts() {
        let s = toy_scenario(FaultConfig::lossy(0.3, 9));
        let mut eps = toy_endpoints();
        let report = run_scenario(&s, &mut eps, |_, _, _, _| None);
        assert_eq!(report.messages_delivered, 40, "all messages recovered");
        assert!(report.endpoints.retransmissions > 0);
        assert!(report.endpoints.timeouts_fired > 0);
        assert!(report.fabric.dropped_faults > 0);
    }

    #[test]
    fn idle_endpoints_are_not_asked_for_their_deadline_per_event() {
        let mut s = toy_scenario(FaultConfig::lossy(0.3, 9));
        let mut eps = toy_endpoints();
        let mut idle_polls = Vec::new();
        for _ in 0..8 {
            s.flows.push(FlowSpec {
                src_host: 0,
                dst_host: 1,
            });
            for _ in 0..2 {
                let ep = ToyEndpoint::new(3, 4);
                idle_polls.push(ep.timeout_polls.clone());
                eps.push(Box::new(ep));
            }
        }
        let report = run_scenario(&s, &mut eps, |_, _, _, _| None);
        assert_eq!(report.messages_delivered, 40);
        assert!(report.endpoints.timeouts_fired > 0 && report.events > 100);
        // Only flow 0 carries traffic: the runner learns each idle
        // endpoint's (absent) deadline once and never calls into it again.
        for polls in idle_polls {
            assert_eq!(polls.get(), 1);
        }
    }

    #[test]
    fn rpc_replies_flow_back_and_are_measured() {
        let s = toy_scenario(FaultConfig::none());
        let mut eps = toy_endpoints();
        let report = run_scenario(&s, &mut eps, |_, _, req, _| Some(req.to_vec()));
        assert_eq!(report.messages_delivered, 40);
        assert_eq!(report.replies_delivered, 40);
        assert_eq!(report.bytes_delivered, 2 * 40 * 600);
    }

    #[test]
    fn cpu_charge_delays_delivery_in_proportion_to_sealed_records() {
        let free = {
            let s = toy_scenario(FaultConfig::none());
            let mut eps = toy_endpoints();
            run_scenario(&s, &mut eps, |_, _, _, _| None)
        };
        let charged = {
            let mut s = toy_scenario(FaultConfig::none());
            s.cpu = Some(CpuCharge {
                sw_per_record_ns: 5_000,
                sw_ns_per_byte: 1.0,
            });
            let mut eps = toy_endpoints();
            run_scenario(&s, &mut eps, |_, _, _, _| None)
        };
        assert_eq!(free.messages_delivered, 40);
        assert_eq!(charged.messages_delivered, 40);
        assert_eq!(charged.endpoints.records_sealed, 40);
        // Every send sealed one record: 5 µs + 600 B × 1 ns/B = 5.6 µs of
        // sender CPU now sits in front of each message's wire time.
        let added_us = charged.latency.p50_us - free.latency.p50_us;
        assert!(
            (added_us - 5.6).abs() < 0.5,
            "p50 grew by {added_us} µs, expected ≈5.6 µs"
        );
        assert_ne!(free.trace_hash, charged.trace_hash);
    }

    #[test]
    fn rpc_round_trips_land_in_rpc_latency() {
        let s = toy_scenario(FaultConfig::none());
        let mut eps = toy_endpoints();
        let report = run_scenario(&s, &mut eps, |_, _, req, _| Some(req.to_vec()));
        assert_eq!(report.replies_delivered, 40);
        // Every reply closes a request → 40 round-trip samples, and a round
        // trip is strictly longer than either one-way leg.
        assert!(report.rpc_latency.p50_us > report.latency.p50_us);
        assert!(report.rpc_latency.p99_us >= report.rpc_latency.p50_us);
    }

    #[test]
    fn app_host_closed_loop_and_clocked_replies() {
        struct KvLikeApp {
            remaining: usize,
        }
        impl ScenarioApp for KvLikeApp {
            fn on_request(
                &mut self,
                _flow: usize,
                _id: u64,
                request: &[u8],
                _now: Nanos,
            ) -> Option<AppReply> {
                Some(AppReply {
                    data: request.to_vec(),
                    compute_ns: 2_000,
                    fixed_ns: 50_000,
                })
            }
            fn on_reply(
                &mut self,
                _flow: usize,
                _id: u64,
                _reply: &[u8],
                _now: Nanos,
            ) -> Option<Vec<u8>> {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    Some(vec![9u8; 600])
                } else {
                    None
                }
            }
        }
        let mut s = toy_scenario(FaultConfig::none());
        // Seed the loop with 4 outstanding requests; the app issues 20 more.
        s.sends.truncate(4);
        let mut eps = toy_endpoints();
        let mut app = KvLikeApp { remaining: 20 };
        let report = run_scenario_app(&s, &mut eps, &mut app);
        assert_eq!(report.messages_sent, 24, "closed loop issued the rest");
        assert_eq!(report.messages_delivered, 24);
        assert_eq!(report.replies_delivered, 24);
        // The 50 µs device delay plus 2 µs compute sits inside every round
        // trip but in none of the one-way legs.
        assert!(report.rpc_latency.p50_us > 52.0, "{report:?}");
        assert!(report.latency.p50_us < 52.0, "{report:?}");
    }

    #[test]
    fn identical_seeds_produce_identical_reports_and_traces() {
        let run = |seed| {
            let s = toy_scenario(FaultConfig::lossy(0.25, seed));
            let mut eps = toy_endpoints();
            run_scenario(&s, &mut eps, |_, _, _, _| None)
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a, b);
        assert_ne!(run(5).trace_hash, run(6).trace_hash);
    }
}
