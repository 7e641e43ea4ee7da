//! The scenario layer: hosts real protocol engines on the fabric, drives them
//! in simulated time, and reports what happened.
//!
//! A [`Scenario`] describes a topology (hosts + flows), a workload (a
//! time-sorted list of [`ScheduledSend`]s) and the network conditions
//! ([`LinkConfig`] + [`FaultConfig`]).  [`run_scenario`] couples it to a set
//! of [`SimEndpoint`]s — two per flow, the real `smt-transport` engines in
//! production use — and runs the discrete-event loop: workload sends, packet
//! arrivals and retransmission timers, all on the virtual clock, until traffic
//! quiesces or the event budget runs out.
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// One application send queued for a later virtual time: a server reply held
/// for its compute/device delay, or a closed-loop client request.
struct PendingSend {
    ep: usize,
    data: Vec<u8>,
    /// `Some(request send time)` marks this as a reply, keyed back to its
    /// originating request for round-trip latency accounting.
    req_start: Option<Nanos>,
}

/// Endpoint deadlines with the earliest at hand: a tournament tree over
/// endpoint slots.  Leaves hold each slot's deadline and every inner node the
/// earlier of its two children, so setting a slot costs O(log n) and the
/// earliest deadline O(1).
struct DeadlineIndex {
    /// Node `i`'s children are `2i` and `2i + 1`; slot `s` is leaf
    /// `leaves + s`.
    nodes: Vec<Option<Nanos>>,
    leaves: usize,
}

/// The earlier of two deadlines, `None` being no deadline at all.
fn earlier(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl DeadlineIndex {
    fn new(slots: usize) -> Self {
        let leaves = slots.next_power_of_two();
        Self {
            nodes: vec![None; 2 * leaves],
            leaves,
        }
    }

    fn set(&mut self, slot: usize, deadline: Option<Nanos>) {
        let mut i = self.leaves + slot;
        if self.nodes[i] == deadline {
            return;
        }
        self.nodes[i] = deadline;
        while i > 1 {
            i /= 2;
            let min = earlier(self.nodes[2 * i], self.nodes[2 * i + 1]);
            if self.nodes[i] == min {
                return;
            }
            self.nodes[i] = min;
        }
    }

    fn earliest(&self) -> Option<Nanos> {
        self.nodes[1]
    }

    /// Appends every slot whose deadline is at or before `now`, in slot
    /// order, visiting only subtrees that hold one.
    fn due(&self, now: Nanos, out: &mut Vec<usize>) {
        self.collect_due(1, now, out);
    }

    fn collect_due(&self, node: usize, now: Nanos, out: &mut Vec<usize>) {
        if self.nodes[node].is_none_or(|d| d > now) {
            return;
        }
        if node >= self.leaves {
            out.push(node - self.leaves);
        } else {
            self.collect_due(2 * node, now, out);
            self.collect_due(2 * node + 1, now, out);
        }
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
    assert_eq!(
        endpoints.len(),
        scenario.flows.len() * 2,
        "one endpoint per flow end"
    );
    let mut adversary = scenario.adversary.map(Adversary::new);
    let mut fabric = Fabric::with_topology(
        scenario.link,
        scenario.faults,
        scenario.topology,
        scenario.ecn,
    );
    for _ in 0..scenario.n_hosts {
        fabric.add_host();
    }
    let mut ports: Vec<PortId> = Vec::with_capacity(endpoints.len());
    for flow in &scenario.flows {
        let a = fabric.add_port(flow.src_host);
        let b = fabric.add_port(flow.dst_host);
        fabric.connect(a, b);
        ports.push(a);
        ports.push(b);
    }
    // Ports are allocated densely in endpoint order, so PortId == endpoint
    // index; keep the assertion in case the fabric ever changes.
    debug_assert!(ports.iter().enumerate().all(|(i, &p)| i == p));

    let mut trace = TraceHash::new();
    let mut now: Nanos = 0;
    let mut events: u64 = 0;
    let mut truncated = false;
    let mut send_idx = 0usize;
    // (endpoint index, message id) -> send time, for latency measurement.
    let mut in_flight: BTreeMap<(usize, u64), Nanos> = BTreeMap::new();
    let mut latencies: Vec<Nanos> = Vec::new();
    // (server endpoint, reply id) -> originating request's send time, for
    // round-trip per-op latency.
    let mut reply_origin: BTreeMap<(usize, u64), Nanos> = BTreeMap::new();
    let mut rpc_latencies: Vec<Nanos> = Vec::new();
    // App sends queued for a later virtual time, ordered (time, sequence).
    let mut pending: BTreeMap<(Nanos, u64), PendingSend> = BTreeMap::new();
    let mut pending_seq: u64 = 0;
    // The virtual time each server endpoint's application core frees up:
    // requests with compute cost queue behind each other (one app thread).
    let mut app_free: Vec<Nanos> = vec![0; endpoints.len()];
    let mut messages_sent: u64 = 0;
    let mut messages_delivered: u64 = 0;
    let mut replies_delivered: u64 = 0;
    let mut bytes_delivered: u64 = 0;
    let mut scratch: Vec<Packet> = Vec::new();

    // When the CPU charge is enabled: the virtual time each endpoint's CPU
    // becomes free again, so back-to-back sends on one host serialize behind
    // each other's sealing work (a busy core, not a busy network).
    let mut cpu_free: Vec<Nanos> = vec![0; endpoints.len()];

    // Each endpoint's timer deadline, with the earliest at hand.  An
    // endpoint's deadline moves only when the runner calls into it, and every
    // arm that does so pumps it afterwards, so `pump!` refreshing the entry
    // keeps this exact without asking every endpoint on every event.
    let mut deadlines = DeadlineIndex::new(endpoints.len());
    for (i, e) in endpoints.iter().enumerate() {
        deadlines.set(i, e.next_timeout());
    }
    // The endpoints the next `pump!` drains, reused across events.
    let mut work: Vec<usize> = Vec::new();

    // Drains transmit queues and deliveries of the endpoints in `work`,
    // feeding transmissions into the fabric and deliveries into the latency
    // accounting (and the reply hook, which may add further endpoints).
    // Only the endpoints an event reached are polled, once per pop.
    // The one-argument form stamps this pump's transmissions with a later
    // time — the Send arm uses it to hold a sealed burst until the sending
    // host's CPU charge has elapsed, without warping the shared clock (which
    // would fire every other endpoint's retransmission timers spuriously).
    macro_rules! pump {
        () => {
            pump!(now)
        };
        ($t:expr) => {{
            let t: Nanos = $t;
            while let Some(ep) = work.pop() {
                if endpoints[ep].poll_transmit(t, &mut scratch) > 0 {
                    if let Some(adv) = adversary.as_mut() {
                        adv.tap(t, ports[ep], &mut scratch);
                    }
                    fabric.send(t, ports[ep], scratch.drain(..));
                }
                for (id, data) in endpoints[ep].take_delivered() {
                    trace.note(trace_tag::DELIVERY);
                    trace.note(t);
                    trace.note(ep as u64);
                    trace.note(id);
                    trace.note(data.len() as u64);
                    bytes_delivered += data.len() as u64;
                    let is_server_end = ep % 2 == 1;
                    if is_server_end {
                        messages_delivered += 1;
                        let flow = ep / 2;
                        let req_start = in_flight.remove(&(flow * 2, id));
                        if let Some(start) = req_start {
                            latencies.push(t.saturating_sub(start));
                        }
                        if let Some(reply) = app.on_request(flow, id, &data, t) {
                            // Compute occupies the app core (requests queue
                            // behind each other); device time adds latency on
                            // top without holding the core.
                            let ready = app_free[ep].max(t) + reply.compute_ns.min(SECOND);
                            if reply.compute_ns > 0 {
                                app_free[ep] = ready;
                            }
                            let send_at = ready + reply.fixed_ns.min(SECOND);
                            if send_at <= t {
                                if let Some(rid) = endpoints[ep].send(&reply.data, t) {
                                    in_flight.insert((ep, rid), t);
                                    if let Some(start) = req_start {
                                        reply_origin.insert((ep, rid), start);
                                    }
                                    if !work.contains(&ep) {
                                        work.push(ep);
                                    }
                                }
                            } else {
                                pending.insert(
                                    (send_at, pending_seq),
                                    PendingSend {
                                        ep,
                                        data: reply.data,
                                        req_start,
                                    },
                                );
                                pending_seq += 1;
                            }
                        }
                    } else {
                        replies_delivered += 1;
                        let flow = ep / 2;
                        if let Some(start) = in_flight.remove(&(flow * 2 + 1, id)) {
                            latencies.push(t.saturating_sub(start));
                        }
                        if let Some(start) = reply_origin.remove(&(flow * 2 + 1, id)) {
                            rpc_latencies.push(t.saturating_sub(start));
                        }
                        if let Some(next) = app.on_reply(flow, id, &data, t) {
                            pending.insert(
                                (t, pending_seq),
                                PendingSend {
                                    ep,
                                    data: next,
                                    req_start: None,
                                },
                            );
                            pending_seq += 1;
                        }
                    }
                }
                // A reply sent above pushed `ep` back onto `work`, so its
                // packets go out on the next pop, at this `t`; taking the
                // deliveries queues nothing else to send.
                deadlines.set(ep, endpoints[ep].next_timeout());
            }
        }};
    }

    loop {
        if events >= scenario.max_events {
            truncated = true;
            break;
        }
        let t_send = scenario.sends.get(send_idx).map(|s| s.at);
        let t_net = fabric.next_arrival();
        let t_app = pending.keys().next().map(|(at, _)| *at);
        let t_adv = adversary.as_ref().and_then(|a| a.next_injection());
        let t_timer = deadlines.earliest();
        // Deterministic cause priority at equal times: workload sends, then
        // packet arrivals, then deferred app sends, then adversary
        // injections, then timers.
        enum Cause {
            Send,
            Net,
            App,
            Inject,
            Timer,
        }
        let next = [
            t_send.map(|t| (t, 0u8)),
            t_net.map(|t| (t, 1u8)),
            t_app.map(|t| (t, 2u8)),
            t_adv.map(|t| (t, 3u8)),
            t_timer.map(|t| (t, 4u8)),
        ]
        .into_iter()
        .flatten()
        .min();
        let Some((t, tag)) = next else { break };
        let cause = match tag {
            0 => Cause::Send,
            1 => Cause::Net,
            2 => Cause::App,
            3 => Cause::Inject,
            _ => Cause::Timer,
        };
        now = now.max(t);
        events += 1;
        match cause {
            Cause::Send => {
                let s = scenario.sends[send_idx];
                send_idx += 1;
                let ep = s.flow * 2;
                // Deterministic filler payload; contents don't matter to the
                // engines beyond their length.
                let fill = (s.flow as u8).wrapping_mul(31).wrapping_add(s.size as u8);
                let data = app
                    .initial_request(s.flow, s.size, now)
                    .unwrap_or_else(|| vec![fill; s.size]);
                trace.note(trace_tag::SEND);
                trace.note(now);
                trace.note(ep as u64);
                trace.note(data.len() as u64);
                let sealed_before = scenario.cpu.map(|_| endpoints[ep].records_sealed());
                if let Some(id) = endpoints[ep].send(&data, now) {
                    messages_sent += 1;
                    in_flight.insert((ep, id), now);
                }
                // Charge the sender's CPU for the records this send sealed
                // (counted by the endpoint, so offloaded and plaintext
                // stacks pay nothing): the sealed burst leaves the host only
                // once its core is free — consecutive sends on one endpoint
                // queue behind each other's sealing work.
                let mut tx_at = now;
                if let (Some(cpu), Some(before)) = (scenario.cpu, sealed_before) {
                    let records = endpoints[ep].records_sealed().saturating_sub(before);
                    if records > 0 {
                        tx_at =
                            cpu_free[ep].max(now) + cpu.seal_ns(s.size as u64, records).min(SECOND);
                        cpu_free[ep] = tx_at;
                    }
                }
                work.push(ep);
                pump!(tx_at);
            }
            Cause::Net => {
                let Some((at, port, packet)) = fabric.pop_arrival() else {
                    continue;
                };
                now = now.max(at);
                trace.note(trace_tag::ARRIVAL);
                trace.note(now);
                trace.note(port as u64);
                trace.note(packet.wire_len() as u64);
                endpoints[port].handle_datagram(&packet, now);
                work.push(port);
                pump!();
            }
            Cause::App => {
                let Some((&key, _)) = pending.iter().next() else {
                    continue;
                };
                let ps = pending.remove(&key).expect("key just observed");
                trace.note(trace_tag::APP);
                trace.note(now);
                trace.note(ps.ep as u64);
                trace.note(ps.data.len() as u64);
                let is_client_end = ps.ep.is_multiple_of(2);
                let sealed_before = scenario.cpu.map(|_| endpoints[ps.ep].records_sealed());
                if let Some(id) = endpoints[ps.ep].send(&ps.data, now) {
                    if is_client_end {
                        // A closed-loop request: accounted exactly like a
                        // scheduled workload send.
                        messages_sent += 1;
                        in_flight.insert((ps.ep, id), now);
                    } else {
                        in_flight.insert((ps.ep, id), now);
                        if let Some(start) = ps.req_start {
                            reply_origin.insert((ps.ep, id), start);
                        }
                    }
                }
                // Deferred app sends pay the sealing charge like workload
                // sends — the server's reply crypto is host CPU too.
                let mut tx_at = now;
                if let (Some(cpu), Some(before)) = (scenario.cpu, sealed_before) {
                    let records = endpoints[ps.ep].records_sealed().saturating_sub(before);
                    if records > 0 {
                        tx_at = cpu_free[ps.ep].max(now)
                            + cpu.seal_ns(ps.data.len() as u64, records).min(SECOND);
                        cpu_free[ps.ep] = tx_at;
                    }
                }
                work.push(ps.ep);
                pump!(tx_at);
            }
            Cause::Inject => {
                // Forged traffic enters the fabric from the recorded source
                // port — the adversary spoofing the victim's peer.  Injections
                // bypass the tap (the adversary does not forge its own
                // forgeries).
                if let Some(adv) = adversary.as_mut() {
                    for (port, packet) in adv.pop_due(now) {
                        trace.note(trace_tag::INJECT);
                        trace.note(now);
                        trace.note(port as u64);
                        trace.note(packet.wire_len() as u64);
                        fabric.send(now, port, std::iter::once(packet));
                    }
                }
            }
            Cause::Timer => {
                deadlines.due(now, &mut work);
                for &i in &work {
                    trace.note(trace_tag::TIMEOUT);
                    trace.note(now);
                    trace.note(i as u64);
                    endpoints[i].on_timeout(now);
                }
                pump!();
            }
        }
    }

    let mut totals = EndpointStats::default();
    for ep in endpoints.iter() {
        totals.absorb(&ep.sim_stats());
    }
    let duration_ns = now.max(1);
    ScenarioReport {
        name: scenario.name.clone(),
        messages_sent,
        messages_delivered,
        replies_delivered,
        bytes_delivered,
        duration_ns,
        latency: LatencySummary::from_nanos(latencies),
        rpc_latency: LatencySummary::from_nanos(rpc_latencies),
        goodput_gbps: (bytes_delivered as f64 * 8.0) / (duration_ns as f64 / SECOND as f64) / 1e9,
        endpoints: totals,
        adversary: adversary.map(|a| a.stats).unwrap_or_default(),
        fabric: fabric.stats,
        trace_hash: trace.digest(),
        events,
        truncated,
    }
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

    #[test]
    fn deadline_index_agrees_with_a_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(25);
        for slots in [1, 2, 3, 7, 64, 65] {
            let mut index = DeadlineIndex::new(slots);
            let mut linear: Vec<Option<Nanos>> = vec![None; slots];
            for _ in 0..2_000 {
                // A narrow range makes equal deadlines common; a quarter of
                // the updates clear the slot.
                let slot = rng.gen_range(0..slots);
                let deadline = rng.gen_bool(0.75).then(|| rng.gen_range(0..16));
                index.set(slot, deadline);
                linear[slot] = deadline;
                assert_eq!(index.earliest(), linear.iter().flatten().min().copied());
                let now = rng.gen_range(0..18);
                let mut due = Vec::new();
                index.due(now, &mut due);
                let want: Vec<usize> = (0..slots)
                    .filter(|&i| linear[i].is_some_and(|d| d <= now))
                    .collect();
                assert_eq!(due, want, "{slots} slots, now {now}");
            }
        }
    }
}
