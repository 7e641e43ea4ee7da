//! The one adapter between the benchmark and the repository's public API.
//!
//! Every call into `smt-*` is in this file: building endpoints and scenarios,
//! the driver calls (`drive_pair`, `run_scenario[_app]`,
//! `ListenerFabric::drive`), the decorators that record a span around each
//! call into a layer, and the isolated replays that call one layer's public
//! functions alone.  An API refactor therefore needs a follow-up here and
//! nowhere else; `workloads.rs` sees only the plain types this file exports,
//! and the workload and metric names survive the refactor.
//!
//! No real link is crossed anywhere: all traffic is in-process over
//! `smt_sim::net::Fabric`.

use crate::stats::GapSeries;
use crate::trace::{self, span, span_if, Span, SpanCost, Tracer};
use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use smt_apps::YcsbWorkload;
use smt_apps::{KvHost, KvRequest, KvResponse, KvStore, RpcApp, YcsbConfig, YcsbGenerator};
use smt_core::segment::PathInfo;
use smt_core::{CryptoMode, KtlsReceiver, KtlsSender, SmtConfig, SmtSession};
use smt_crypto::cert::CertificateAuthority;
use smt_crypto::handshake::zero_rtt::establish_zero_rtt;
use smt_crypto::handshake::{
    derived_server_respond, establish, ClientConfig, DerivedClient, DerivedClientOutcome,
    DerivedServerOutcome, PathSecret, PathSecretMap, ReplayCache, ServerConfig, SessionKeys,
    SmtTicket, SmtTicketIssuer,
};
use smt_crypto::record::SealRequest;
use smt_crypto::{CipherSuite, Padding, RecordProtector};
use smt_sim::net::{
    incast_scenario, run_scenario, run_scenario_app, AppReply, EcnConfig, EventQueue, Fabric,
    FabricStats, FaultConfig, FlowSpec, LeafSpineConfig, LinkConfig, Scenario, ScenarioApp,
    ScenarioReport, ScheduledSend, SimEndpoint, SimEndpointStats, Topology,
};
use smt_sim::nic::NicModel;
use smt_sim::{CostModel, Nanos};
use smt_transport::{
    drive_pair, AcceptConfig, ConnectConfig, Endpoint, EndpointResult, EndpointStats, Event,
    HomaConfig, HomaEndpoint, Listener, ListenerFabric, MessageId, PairFabric, SecureEndpoint,
    SharedPathSecrets, StackKind, ZeroRttAcceptor,
};
use smt_wire::{ContentType, Packet};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Driver events after which a missing reply counts as a failed op.
const MAX_EVENTS_PER_OP: u64 = 1_000_000;

/// The two stacks the workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// SMT with software crypto: the paper's stack, on the message backend.
    SmtSw,
    /// kTLS with software crypto: the paper's TLS/TCP baseline, on the stream
    /// backend.
    KtlsSw,
}

impl Stack {
    fn kind(self) -> StackKind {
        match self {
            Stack::SmtSw => StackKind::SmtSw,
            Stack::KtlsSw => StackKind::KtlsSw,
        }
    }
}

/// The AES-GCM tier the record layer dispatched to on this machine.
pub fn crypto_tier() -> String {
    format!("{:?}", smt_crypto::active_tier())
}

const SERVER_NAME: &str = "bench.dc.local";

/// Both ends' keys from one full in-memory handshake, for the key-injected
/// workloads.  Keys are fresh random ones in every process; nothing measured
/// depends on their value.
pub struct Keys {
    client: SessionKeys,
    server: SessionKeys,
}

/// Runs one full handshake and keeps both ends' keys.
pub fn establish_keys() -> Keys {
    let ca = CertificateAuthority::new("bench-ca");
    let id = ca.issue_identity(SERVER_NAME);
    let (client, server) = establish(
        ClientConfig::new(ca.verifying_key(), SERVER_NAME),
        ServerConfig::new(id, ca.verifying_key()),
    )
    .expect("in-memory handshake");
    Keys { client, server }
}

/// Counters read from the layers at a window boundary (sums over the
/// workload's endpoints unless noted).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `EndpointStats::retransmissions`.
    pub retransmissions: u64,
    /// `EndpointStats::timeouts_fired`.
    pub timeouts_fired: u64,
    /// `EndpointStats::replays_rejected`.
    pub replays_rejected: u64,
    /// `EndpointStats::records_sealed`.
    pub records_sealed: u64,
    /// Largest `EndpointStats::peak_tracked_bytes` of any endpoint.
    pub peak_tracked_bytes: u64,
    /// Largest `EndpointStats::srtt_ns` of any sending endpoint.
    pub srtt_ns: u64,
    /// `EndpointStats::ecn_marks_seen`.
    pub ecn_marks_seen: u64,
    /// Largest `EndpointStats::cwnd_bytes` of any endpoint.
    pub cwnd_bytes: u64,
    /// `FabricStats::offered`.
    pub fabric_offered: u64,
    /// `FabricStats::wire_bytes`.
    pub fabric_wire_bytes: u64,
    /// `FabricStats::dropped()`.
    pub fabric_dropped: u64,
    /// `FabricStats::ecn_marked`.
    pub fabric_ecn_marked: u64,
    /// `FabricStats::peak_ingress_backlog_packets`.
    pub fabric_peak_ingress: u64,
    /// Events the driver call processed.
    pub events: u64,
    /// The fabric's virtual clock, nanoseconds.
    pub sim_now_ns: u64,
}

impl Counters {
    fn of_endpoint(s: &EndpointStats) -> Self {
        Self {
            retransmissions: s.retransmissions,
            timeouts_fired: s.timeouts_fired,
            replays_rejected: s.replays_rejected,
            records_sealed: s.records_sealed,
            peak_tracked_bytes: s.peak_tracked_bytes,
            srtt_ns: s.srtt_ns,
            ecn_marks_seen: s.ecn_marks_seen,
            cwnd_bytes: s.cwnd_bytes,
            ..Self::default()
        }
    }

    fn of_fabric(f: &FabricStats, events: u64, sim_now_ns: u64) -> Self {
        Self {
            fabric_offered: f.offered,
            fabric_wire_bytes: f.wire_bytes,
            fabric_dropped: f.dropped(),
            fabric_ecn_marked: f.ecn_marked,
            fabric_peak_ingress: f.peak_ingress_backlog_packets,
            events,
            sim_now_ns,
            ..Self::default()
        }
    }

    /// Adds another endpoint's, window's or round's counters to this one:
    /// sums for counts, maxima for gauges.
    pub fn absorb(&mut self, o: &Counters) {
        self.retransmissions += o.retransmissions;
        self.timeouts_fired += o.timeouts_fired;
        self.replays_rejected += o.replays_rejected;
        self.records_sealed += o.records_sealed;
        self.peak_tracked_bytes = self.peak_tracked_bytes.max(o.peak_tracked_bytes);
        self.srtt_ns = self.srtt_ns.max(o.srtt_ns);
        self.ecn_marks_seen += o.ecn_marks_seen;
        self.cwnd_bytes = self.cwnd_bytes.max(o.cwnd_bytes);
        self.fabric_offered += o.fabric_offered;
        self.fabric_wire_bytes += o.fabric_wire_bytes;
        self.fabric_dropped += o.fabric_dropped;
        self.fabric_ecn_marked += o.fabric_ecn_marked;
        self.fabric_peak_ingress = self.fabric_peak_ingress.max(o.fabric_peak_ingress);
        self.events += o.events;
        self.sim_now_ns += o.sim_now_ns;
    }
}

// ---------------------------------------------------------------------------
// Decorators: forward to the real object, record a span around each call
// ---------------------------------------------------------------------------

/// Packets kept from `poll_transmit` in traced runs, for the wire and fabric
/// replays.
const CAPTURE_PACKETS: usize = 512;

thread_local! {
    static CAPTURED: RefCell<Vec<Packet>> = const { RefCell::new(Vec::new()) };
}

fn capture(packets: &[Packet]) {
    CAPTURED.with(|c| {
        let mut c = c.borrow_mut();
        let room = CAPTURE_PACKETS.saturating_sub(c.len());
        c.extend(packets.iter().take(room).cloned());
    });
}

/// Hands over (and forgets) the packets captured so far.
fn take_captured() -> Vec<Packet> {
    CAPTURED.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// A [`SecureEndpoint`] that forwards to `E` inside a span per call.
pub struct Traced<E>(E);

impl<E: SecureEndpoint> SecureEndpoint for Traced<E> {
    fn stack(&self) -> StackKind {
        self.0.stack()
    }

    fn send(&mut self, data: &[u8], now: Nanos) -> EndpointResult<MessageId> {
        span(Span::Send, || self.0.send(data, now))
    }

    fn handle_datagram(&mut self, datagram: &Packet, now: Nanos) -> EndpointResult<()> {
        span(Span::HandleDatagram, || {
            self.0.handle_datagram(datagram, now)
        })
    }

    fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize {
        let before = out.len();
        let n = span(Span::PollTransmit, || self.0.poll_transmit(now, out));
        capture(&out[before..]);
        n
    }

    fn poll_event(&mut self) -> Option<Event> {
        span(Span::PollEvent, || self.0.poll_event())
    }

    fn next_timeout(&self) -> Option<Nanos> {
        trace::count(Span::NextTimeout);
        self.0.next_timeout()
    }

    fn on_timeout(&mut self, now: Nanos) {
        span(Span::OnTimeout, || self.0.on_timeout(now))
    }

    fn stats(&self) -> EndpointStats {
        span(Span::Stats, || self.0.stats())
    }
}

/// A [`SimEndpoint`] that forwards to a borrowed [`Endpoint`] inside a span
/// per call; the benchmark keeps the endpoint, so it can read its full
/// [`EndpointStats`] after the scenario runner is done with it.
struct TracedSim<'a>(&'a mut Endpoint);

impl SimEndpoint for TracedSim<'_> {
    fn send(&mut self, data: &[u8], now: Nanos) -> Option<u64> {
        span(Span::Send, || SimEndpoint::send(self.0, data, now))
    }

    fn handle_datagram(&mut self, packet: &Packet, now: Nanos) {
        span(Span::HandleDatagram, || {
            SimEndpoint::handle_datagram(self.0, packet, now)
        })
    }

    fn poll_transmit(&mut self, now: Nanos, out: &mut Vec<Packet>) -> usize {
        let before = out.len();
        let n = span(Span::PollTransmit, || {
            SimEndpoint::poll_transmit(self.0, now, out)
        });
        capture(&out[before..]);
        n
    }

    fn next_timeout(&self) -> Option<Nanos> {
        trace::count(Span::NextTimeout);
        SimEndpoint::next_timeout(&*self.0)
    }

    fn on_timeout(&mut self, now: Nanos) {
        span(Span::OnTimeout, || SimEndpoint::on_timeout(self.0, now))
    }

    fn take_delivered(&mut self) -> Vec<(u64, Vec<u8>)> {
        span(Span::PollEvent, || SimEndpoint::take_delivered(self.0))
    }

    fn sim_stats(&self) -> SimEndpointStats {
        span(Span::Stats, || SimEndpoint::sim_stats(&*self.0))
    }
}

/// A [`ScenarioApp`] that forwards to the real host `A`, stamps one
/// `Instant::now()` per completed op into the gap series, and checks every
/// reply; with `TRACE` it also records a span around each forwarded call.
struct Hooked<'a, A, const TRACE: bool> {
    inner: A,
    gaps: &'a mut GapSeries,
    reply_ok: fn(&[u8]) -> bool,
    bad_replies: u64,
}

impl<A: ScenarioApp, const TRACE: bool> ScenarioApp for Hooked<'_, A, TRACE> {
    fn on_request(&mut self, flow: usize, id: u64, request: &[u8], now: Nanos) -> Option<AppReply> {
        span_if::<TRACE, _>(Span::OnRequest, || {
            self.inner.on_request(flow, id, request, now)
        })
    }

    fn on_reply(&mut self, flow: usize, id: u64, reply: &[u8], now: Nanos) -> Option<Vec<u8>> {
        let next = span_if::<TRACE, _>(Span::OnReply, || self.inner.on_reply(flow, id, reply, now));
        if !(self.reply_ok)(reply) {
            self.bad_replies += 1;
        }
        self.gaps.complete(Instant::now());
        if TRACE {
            trace::next_op();
        }
        next
    }

    fn initial_request(&mut self, flow: usize, size: usize, now: Nanos) -> Option<Vec<u8>> {
        span_if::<TRACE, _>(Span::InitialRequest, || {
            self.inner.initial_request(flow, size, now)
        })
    }
}

// ---------------------------------------------------------------------------
// Pair workloads: one key-injected connection over PairFabric, depth 1
// ---------------------------------------------------------------------------

/// Two endpoints of one stack on a lossless two-host fabric, plain for timed
/// windows or behind the span decorators for traced ones.
pub struct PairRig {
    ends: PairEnds,
    link: PairFabric,
    events: u64,
}

enum PairEnds {
    Plain(Endpoint, Endpoint),
    Traced(Traced<Endpoint>, Traced<Endpoint>),
}

/// What one completed RPC measured on the simulated clock.
pub struct Rpc {
    /// Simulated request→reply time.
    pub sim_ns: u64,
}

/// A key-injected pair on `PairFabric::reliable()`.
pub fn pair_rig(stack: Stack, keys: &Keys, traced: bool) -> PairRig {
    let (client, server) = Endpoint::builder()
        .stack(stack.kind())
        .pair(&keys.client, &keys.server, 4000, 5201)
        .expect("valid pair configuration");
    PairRig {
        ends: if traced {
            PairEnds::Traced(Traced(client), Traced(server))
        } else {
            PairEnds::Plain(client, server)
        },
        link: PairFabric::reliable(),
        events: 0,
    }
}

impl PairRig {
    /// One closed-loop RPC at depth 1: sends `request`, steps the pair one
    /// driver event at a time, has the server answer with the request's first
    /// `reply_len` bytes, and returns when the client has the reply.  Both
    /// payloads are compared byte for byte.
    pub fn rpc<const TRACE: bool>(
        &mut self,
        request: &[u8],
        reply_len: usize,
    ) -> Result<Rpc, String> {
        let (link, events) = (&mut self.link, &mut self.events);
        match &mut self.ends {
            PairEnds::Plain(c, s) => rpc_over::<_, TRACE>(c, s, link, events, request, reply_len),
            PairEnds::Traced(c, s) => rpc_over::<_, TRACE>(c, s, link, events, request, reply_len),
        }
    }

    /// The layers' counters as of now.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::of_fabric(&self.link.stats(), self.events, self.link.now());
        let (client, server) = match &self.ends {
            PairEnds::Plain(c, s) => (c.stats(), s.stats()),
            PairEnds::Traced(c, s) => (c.stats(), s.stats()),
        };
        c.absorb(&Counters::of_endpoint(&client));
        c.absorb(&Counters::of_endpoint(&server));
        c
    }
}

fn rpc_over<E: SecureEndpoint, const TRACE: bool>(
    client: &mut E,
    server: &mut E,
    link: &mut PairFabric,
    total_events: &mut u64,
    request: &[u8],
    reply_len: usize,
) -> Result<Rpc, String> {
    let start = link.now();
    client
        .send(request, start)
        .map_err(|e| format!("client send: {e}"))?;
    let mut events = 0u64;
    loop {
        let n = span_if::<TRACE, _>(Span::DrivePair, || drive_pair(client, server, link, 1)) as u64;
        events += n;
        *total_events += n;
        while let Some(ev) = server.poll_event() {
            match ev {
                Event::MessageDelivered { data, .. } => {
                    if data != request {
                        return Err("request arrived altered".into());
                    }
                    server
                        .send(&data[..reply_len], link.now())
                        .map_err(|e| format!("server send: {e}"))?;
                }
                Event::Error(e) => return Err(format!("server: {e}")),
                _ => {}
            }
        }
        let mut done = false;
        while let Some(ev) = client.poll_event() {
            match ev {
                Event::MessageDelivered { data, .. } => {
                    if data != request[..reply_len] {
                        return Err("reply arrived altered".into());
                    }
                    done = true;
                }
                Event::Error(e) => return Err(format!("client: {e}")),
                _ => {}
            }
        }
        if done {
            return Ok(Rpc {
                sim_ns: link.now() - start,
            });
        }
        if n == 0 || events > MAX_EVENTS_PER_OP {
            return Err(format!("no reply after {events} driver events"));
        }
    }
}

// ---------------------------------------------------------------------------
// Round workloads: a fixed scenario run to completion on fresh endpoints
// ---------------------------------------------------------------------------

/// Which fixed scenario a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Fig. 7 shape: one flow, 64 outstanding 8 KiB echo RPCs.
    ConcurrentRpc,
    /// YCSB-A through `KvHost`, 4 flows x 8 outstanding, seeded faults.
    LossyKv,
    /// 32→1 incast of 64 KiB messages on a leaf–spine fabric.
    Incast,
}

const RPC_BYTES: usize = 8 * 1024;
const RPC_DEPTH: usize = 64;
const KV_FLOWS: usize = 4;
const KV_DEPTH: usize = 8;
const KV_RECORDS: usize = 10_000;
const KV_VALUE_BYTES: usize = 1024;
const INCAST_SENDERS: usize = 32;
const INCAST_BYTES: usize = 64 * 1024;

/// The fabric `incast_sim` runs on: leaf–spine, 16 hosts per leaf, 4 spines,
/// no oversubscription, ECN marking at the default threshold.
fn incast_fabric() -> (Topology, Option<EcnConfig>) {
    let shape = LeafSpineConfig {
        hosts_per_leaf: 16,
        spines: 4,
        oversubscription: 1.0,
    };
    (Topology::LeafSpine(shape), Some(EcnConfig::default()))
}

/// A round's scenario, ready to run any number of times.
pub struct RoundPlan {
    kind: RoundKind,
    scenario: Scenario,
    seed: u64,
    /// Ops one round attempts.
    pub ops: u64,
}

/// Clients × depth: how many ops a round keeps in flight.
pub fn round_outstanding(kind: RoundKind) -> u64 {
    match kind {
        RoundKind::ConcurrentRpc => RPC_DEPTH as u64,
        RoundKind::LossyKv => (KV_FLOWS * KV_DEPTH) as u64,
        RoundKind::Incast => INCAST_SENDERS as u64,
    }
}

/// Builds the scenario for `kind` sized to about `ops` ops per round (rounded
/// to what the shape allows; read the exact count back from the plan).
pub fn round_plan(kind: RoundKind, ops: u64, seed: u64) -> RoundPlan {
    let cpu = Some(CostModel::calibrated().cpu_charge());
    let seeds = |scenario: &mut Scenario, flows: usize, depth: usize, size: usize| {
        for flow in 0..flows {
            for i in 0..depth {
                scenario.sends.push(ScheduledSend {
                    at: i as Nanos * 100,
                    flow,
                    size,
                });
            }
        }
        scenario.sort_sends();
    };
    let (scenario, ops) = match kind {
        RoundKind::ConcurrentRpc => {
            let mut s = Scenario::new("concurrent_rpc", 2);
            s.flows.push(FlowSpec {
                src_host: 0,
                dst_host: 1,
            });
            // Deep buffers, as in the Fig. 7 harness: 64 in-flight 8 KiB RPCs
            // through one port must not become a tail-drop benchmark.
            s.link.buffer_packets = 4096;
            s.cpu = cpu;
            seeds(&mut s, 1, RPC_DEPTH, RPC_BYTES);
            (s, ops.max(RPC_DEPTH as u64))
        }
        RoundKind::LossyKv => {
            let mut s = Scenario::new("lossy_kv", KV_FLOWS + 1);
            for client in 0..KV_FLOWS {
                s.flows.push(FlowSpec {
                    src_host: client,
                    dst_host: KV_FLOWS,
                });
            }
            s.faults = FaultConfig {
                loss: 0.01,
                reorder: 0.05,
                duplicate: 0.01,
                seed,
                ..FaultConfig::default()
            };
            s.cpu = cpu;
            seeds(&mut s, KV_FLOWS, KV_DEPTH, 32);
            let per_flow = (ops / KV_FLOWS as u64).max(KV_DEPTH as u64);
            (s, per_flow * KV_FLOWS as u64)
        }
        RoundKind::Incast => {
            let each = (ops / INCAST_SENDERS as u64).max(1) as usize;
            let mut s = incast_scenario(
                INCAST_SENDERS,
                INCAST_BYTES,
                each,
                LinkConfig::default(),
                FaultConfig::none(),
            );
            (s.topology, s.ecn) = incast_fabric();
            s.cpu = cpu;
            (s, (INCAST_SENDERS * each) as u64)
        }
    };
    RoundPlan {
        kind,
        scenario,
        seed,
        ops,
    }
}

/// What one round did, in plain numbers.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// Ops completed and correct.
    pub ok: u64,
    /// Why the round as a whole is wrong, if it is (then `ok` is zero).
    pub violation: Option<String>,
    /// Application payload bytes delivered, both directions.
    pub app_bytes: u64,
    /// Simulated median op time (request→reply; one-way for incast).
    pub sim_p50_ns: f64,
    /// Simulated 99th-percentile op time.
    pub sim_p99_ns: f64,
    /// Simulated goodput.
    pub sim_goodput_gbps: f64,
    /// Digest of the round's event sequence.
    pub trace_hash: u64,
    /// Layer counters (endpoint part only in traced rounds).
    pub counters: Counters,
}

fn rpc_reply_ok(reply: &[u8]) -> bool {
    reply.len() == RPC_BYTES && reply.iter().all(|&b| b == 0xA5)
}

fn kv_reply_ok(reply: &[u8]) -> bool {
    match KvResponse::decode(reply) {
        Some(KvResponse::Value(v)) => v.len() == KV_VALUE_BYTES,
        Some(KvResponse::Ok) => true,
        _ => false,
    }
}

/// Runs one round of `plan` on fresh endpoints (and a fresh app host),
/// stamping op completions into `gaps`.
pub fn run_round<const TRACE: bool>(
    plan: &RoundPlan,
    keys: &Keys,
    gaps: &mut GapSeries,
) -> RoundOutcome {
    let scenario = &plan.scenario;
    let mut endpoints: Vec<Endpoint> = span_if::<TRACE, _>(Span::ConnectBuild, || {
        (0..scenario.flows.len())
            .flat_map(|flow| {
                let base = 10_000u16 + flow as u16 * 2;
                let (client, server) = Endpoint::builder()
                    .stack(StackKind::SmtSw)
                    .pair(&keys.client, &keys.server, base, base + 1)
                    .expect("valid scenario endpoint configuration");
                [client, server]
            })
            .collect()
    });
    // Timed rounds hand the endpoints themselves to the runner; traced rounds
    // lend them out behind the span decorator and read their stats afterwards.
    let mut hosted: Vec<Box<dyn SimEndpoint + '_>> = if TRACE {
        endpoints
            .iter_mut()
            .map(|e| Box::new(TracedSim(e)) as Box<dyn SimEndpoint + '_>)
            .collect()
    } else {
        endpoints
            .drain(..)
            .map(|e| Box::new(e) as Box<dyn SimEndpoint>)
            .collect()
    };

    let (report, bad_replies, mut violation) = match plan.kind {
        RoundKind::ConcurrentRpc => {
            let follow_ups = plan.ops - RPC_DEPTH as u64;
            let mut app = Hooked::<_, TRACE> {
                inner: RpcApp::new(1, RPC_BYTES, RPC_BYTES, follow_ups),
                gaps,
                reply_ok: rpc_reply_ok,
                bad_replies: 0,
            };
            let report = span_if::<TRACE, _>(Span::RunScenario, || {
                run_scenario_app(scenario, &mut hosted, &mut app)
            });
            (report, app.bad_replies, None)
        }
        RoundKind::LossyKv => {
            let config = YcsbConfig {
                record_count: KV_RECORDS,
                value_size: KV_VALUE_BYTES,
                seed: plan.seed,
                ..YcsbConfig::default()
            };
            let follow_ups = plan.ops / KV_FLOWS as u64 - KV_DEPTH as u64;
            let host = span_if::<TRACE, _>(Span::AppBuild, || {
                KvHost::new(YcsbWorkload::A, config, KV_FLOWS, follow_ups)
            });
            let mut app = Hooked::<_, TRACE> {
                inner: host,
                gaps,
                reply_ok: kv_reply_ok,
                bad_replies: 0,
            };
            let report = span_if::<TRACE, _>(Span::RunScenario, || {
                run_scenario_app(scenario, &mut hosted, &mut app)
            });
            let served = app.inner.server_operations();
            let violation = (served != report.replies_delivered).then(|| {
                format!(
                    "store served {served} operations for {} replies",
                    report.replies_delivered
                )
            });
            (report, app.bad_replies, violation)
        }
        RoundKind::Incast => {
            let mut short = 0u64;
            let report = span_if::<TRACE, _>(Span::RunScenario, || {
                run_scenario(scenario, &mut hosted, |_, _, data, _| {
                    if data.len() != INCAST_BYTES {
                        short += 1;
                    }
                    gaps.complete(Instant::now());
                    if TRACE {
                        trace::next_op();
                    }
                    None
                })
            });
            (report, short, None)
        }
    };
    drop(hosted);

    let completed = match plan.kind {
        RoundKind::Incast => report.messages_delivered,
        _ => report.replies_delivered,
    };
    if violation.is_none() {
        violation = round_violation(plan, &report, completed);
    }
    let mut counters = Counters::of_fabric(&report.fabric, report.events, report.duration_ns);
    for e in &endpoints {
        counters.absorb(&Counters::of_endpoint(&e.stats()));
    }
    let latency = match plan.kind {
        RoundKind::Incast => report.latency,
        _ => report.rpc_latency,
    };
    RoundOutcome {
        ok: if violation.is_some() {
            0
        } else {
            completed.saturating_sub(bad_replies)
        },
        violation,
        app_bytes: report.bytes_delivered,
        sim_p50_ns: latency.p50_us * 1e3,
        sim_p99_ns: latency.p99_us * 1e3,
        sim_goodput_gbps: report.goodput_gbps,
        trace_hash: report.trace_hash,
        counters,
    }
}

fn round_violation(plan: &RoundPlan, report: &ScenarioReport, completed: u64) -> Option<String> {
    if report.truncated {
        return Some("scenario truncated at its event cap".into());
    }
    if report.messages_delivered != report.messages_sent {
        return Some(format!(
            "{} requests sent, {} delivered",
            report.messages_sent, report.messages_delivered
        ));
    }
    if completed != plan.ops {
        return Some(format!("{completed} ops completed of {}", plan.ops));
    }
    None
}

// ---------------------------------------------------------------------------
// Connect churn: waves of in-band connects to one Listener
// ---------------------------------------------------------------------------

/// The three connect modes, in wave round-robin order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Cold,
    Resumed,
    Derived,
}

const MODES: [Mode; 3] = [Mode::Cold, Mode::Resumed, Mode::Derived];

/// Connects per wave: 4 cold, 4 ticket-resumed, 4 path-secret derived.
pub const WAVE_CONNECTS: usize = 12;

/// Bytes of the one request each connection sends.
pub const CHURN_REQUEST_BYTES: usize = 256;

/// One `Listener` on a `ListenerFabric::reliable()`, plus the client host's
/// tickets and path secrets.
pub struct ChurnRig {
    ca: CertificateAuthority,
    listener: Listener,
    fabric: ListenerFabric,
    client_secrets: SharedPathSecrets,
    tickets: Vec<SmtTicket>,
    next_ticket: usize,
    next_cid: u32,
    request: Vec<u8>,
    events: u64,
}

/// What one wave did.
#[derive(Debug, Default)]
pub struct WaveOutcome {
    /// Connects whose first request arrived intact and whose handshake
    /// reported the right `resumed` flag.
    pub ok: u64,
    /// The first thing that went wrong, if anything did.
    pub violation: Option<String>,
    /// Simulated wave-start→first-request time of each connect that arrived.
    pub sim_setup_ns: Vec<u64>,
}

/// Builds the listener and runs the mint wave: one cold connect that mints
/// the host pair's path secret and the first resumption ticket.
pub fn churn_rig(request: Vec<u8>) -> Result<ChurnRig, String> {
    let ca = CertificateAuthority::new("bench-ca");
    let identity = ca.issue_identity(SERVER_NAME);
    let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 16);
    let listener = Listener::new(
        Endpoint::builder().stack(StackKind::SmtSw),
        identity,
        ca.verifying_key(),
        WAVE_CONNECTS * 2,
    )
    .zero_rtt(acceptor)
    .ticket_time(100)
    // Sized for the whole run: every full handshake mints an entry, and the
    // hot secret must not be evicted under the storm.
    .path_secrets(SharedPathSecrets::new(1 << 16, 1 << 16));
    let mut rig = ChurnRig {
        ca,
        listener,
        fabric: ListenerFabric::reliable(),
        client_secrets: SharedPathSecrets::new(64, 1 << 16),
        tickets: Vec::new(),
        next_ticket: 0,
        next_cid: 1,
        request,
        events: 0,
    };
    let mut unused = GapSeries::new(Instant::now());
    let mint = rig.run_wave::<false>(&[(Mode::Cold, true)], &mut unused);
    if let Some(v) = mint.violation {
        return Err(format!("mint wave: {v}"));
    }
    if rig.client_secrets.is_empty() || rig.tickets.is_empty() {
        return Err("mint wave left no path secret or ticket".into());
    }
    Ok(rig)
}

impl ChurnRig {
    /// One wave of [`WAVE_CONNECTS`] concurrent in-band connects, each sending
    /// one request and then closing; a completion is stamped into `gaps` when
    /// the listener delivers a connection's request.
    pub fn wave<const TRACE: bool>(&mut self, gaps: &mut GapSeries) -> WaveOutcome {
        let plan: Vec<(Mode, bool)> = (0..WAVE_CONNECTS)
            .map(|i| (MODES[i % MODES.len()], false))
            .collect();
        self.run_wave::<TRACE>(&plan, gaps)
    }

    /// `plan` is `(mode, mint)` per client; a minting cold connect carries the
    /// client host's path-secret map so the handshake stores the secret.
    fn run_wave<const TRACE: bool>(
        &mut self,
        plan: &[(Mode, bool)],
        gaps: &mut GapSeries,
    ) -> WaveOutcome {
        let mut out = WaveOutcome::default();
        let wave_start = self.fabric.now();
        let mut clients: Vec<(u32, Endpoint)> = Vec::with_capacity(plan.len());
        let first_cid = self.next_cid;
        for &(mode, mint) in plan {
            let cid = self.next_cid;
            self.next_cid += 1;
            let built = span_if::<TRACE, _>(Span::ConnectBuild, || {
                let mut config = ConnectConfig::new(self.ca.verifying_key(), SERVER_NAME);
                match mode {
                    Mode::Resumed => {
                        let t = self.tickets[self.next_ticket % self.tickets.len()].clone();
                        self.next_ticket += 1;
                        let at = t.issued_at;
                        config = config.resume(t, at);
                    }
                    Mode::Derived => config = config.path_secrets(self.client_secrets.clone()),
                    Mode::Cold if mint => config = config.path_secrets(self.client_secrets.clone()),
                    Mode::Cold => {}
                }
                self.fabric.attach(cid);
                let mut client = Endpoint::builder()
                    .stack(StackKind::SmtSw)
                    .connection_id(cid)
                    .path(PathInfo::pair(4000, 5201).0)
                    .connect(config)?;
                SecureEndpoint::send(&mut client, &self.request, wave_start)?;
                Ok::<_, smt_transport::EndpointError>(client)
            });
            match built {
                Ok(client) => clients.push((cid, client)),
                Err(e) => {
                    out.violation.get_or_insert(format!("connect {cid}: {e}"));
                }
            }
        }

        // One fabric event per step, so a delivery's completion instant (and
        // `fabric.now()`) is that connection's own.
        let mut arrived = vec![false; plan.len()];
        let mut events = 0u64;
        loop {
            let n = span_if::<TRACE, _>(Span::ListenerDrive, || {
                self.fabric.drive(&mut clients, &mut self.listener, 1)
            }) as u64;
            events += n;
            while let Some((cid, ev)) =
                span_if::<TRACE, _>(Span::PollEvent, || self.listener.poll_event())
            {
                match ev {
                    Event::MessageDelivered { data, .. } => {
                        let slot = (cid - first_cid) as usize;
                        if data == self.request && !arrived[slot] {
                            arrived[slot] = true;
                            out.sim_setup_ns.push(self.fabric.now() - wave_start);
                            gaps.complete(Instant::now());
                            if TRACE {
                                trace::next_op();
                            }
                        } else {
                            out.violation.get_or_insert(format!(
                                "connect {cid}: request altered or repeated"
                            ));
                        }
                    }
                    Event::Error(e) => {
                        out.violation
                            .get_or_insert(format!("listener, connect {cid}: {e}"));
                    }
                    _ => {}
                }
            }
            if n == 0 || events > MAX_EVENTS_PER_OP {
                break;
            }
        }
        self.events += events;

        for (cid, client) in clients.iter_mut() {
            let slot = (*cid - first_cid) as usize;
            let mode = plan[slot].0;
            let mut resumed_flag = None;
            while let Some(ev) = span_if::<TRACE, _>(Span::PollEvent, || client.poll_event()) {
                match ev {
                    Event::HandshakeComplete { resumed, .. } => resumed_flag = Some(resumed),
                    Event::TicketReceived(t) if self.tickets.len() < 1 << 12 => {
                        self.tickets.push(*t)
                    }
                    Event::Error(e) => {
                        out.violation.get_or_insert(format!("connect {cid}: {e}"));
                    }
                    _ => {}
                }
            }
            let want = mode != Mode::Cold;
            if arrived[slot] && resumed_flag == Some(want) {
                out.ok += 1;
            } else {
                out.violation.get_or_insert(format!(
                    "connect {cid} ({mode:?}): arrived={}, resumed={resumed_flag:?}",
                    arrived[slot]
                ));
            }
            span_if::<TRACE, _>(Span::ListenerClose, || drop(self.listener.close(*cid)));
        }
        out
    }

    /// The layers' counters as of now (listener-side endpoints only: the
    /// clients are gone with their waves).
    pub fn counters(&self) -> Counters {
        let mut c = Counters::of_fabric(&self.fabric.stats(), self.events, self.fabric.now());
        c.absorb(&Counters::of_endpoint(&self.listener.stats()));
        c
    }
}

// ---------------------------------------------------------------------------
// Isolated replays: one layer's public functions, called alone
// ---------------------------------------------------------------------------

/// How long one replay may run.
const REPLAY_BUDGET: Duration = Duration::from_millis(60);

/// Work units replayed per span name, so a span total turns into time per
/// unit.  A span covers a batch of units wherever one unit is too short to
/// time on its own.
pub struct Replays {
    units: Vec<u64>,
}

impl Replays {
    fn new() -> Self {
        Self {
            units: vec![0; Span::ALL.len()],
        }
    }

    /// Repeats `round` until the budget is spent (three times at least).
    /// Each round opens one span of every name in `names` and replays `batch`
    /// units inside it.
    fn rounds(&mut self, names: &[Span], batch: u64, mut round: impl FnMut()) {
        let begin = Instant::now();
        let mut rounds = 0;
        while rounds < 3 || begin.elapsed() < REPLAY_BUDGET {
            round();
            rounds += 1;
        }
        for &name in names {
            self.units[name as usize] += rounds * batch;
        }
    }

    /// [`rounds`](Self::rounds) for a single span around `batch` calls of
    /// `unit`.
    fn timed(&mut self, name: Span, batch: u64, mut unit: impl FnMut()) {
        self.rounds(&[name], batch, || {
            span(name, || {
                for _ in 0..batch {
                    unit();
                }
            })
        });
    }

    /// Mean nanoseconds per replayed unit of `name` (zero if never replayed).
    pub fn ns_per_unit(&self, tracer: &Tracer, name: Span, cost: &SpanCost) -> f64 {
        crate::stats::per(
            tracer.total_ns(name, cost),
            self.units[name as usize] as f64,
        )
    }
}

/// What the replays need to know about the workload they follow.
pub struct ReplayInput<'a> {
    /// The stack on the workload's data path.
    pub stack: Stack,
    /// Application message sizes of one op, in sending order.
    pub op_messages: &'a [usize],
    /// Whether handshakes are on the workload's path (connect churn).
    pub handshakes: bool,
    /// Whether the KV app is on the workload's path.
    pub kv: bool,
    /// Whether the workload runs on the leaf–spine fabric.
    pub leaf_spine: bool,
    /// Packets the workload keeps in flight, for the event-queue replay.
    pub queue_depth: usize,
    /// The workload seed.
    pub seed: u64,
}

/// Numbers the replays produce that are not span times.
#[derive(Debug, Default)]
pub struct ReplayFacts {
    /// `pending_sends() + incomplete_recvs()` of the bare message backend
    /// after 10 000 completed messages.
    pub homa_pending_after_10k: u64,
    /// Mean header bytes (wire length minus payload) of the captured packets.
    pub hdr_bytes_per_pkt: f64,
}

/// `len` bytes drawn from `seed`.
pub fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut data = vec![0u8; len];
    StdRng::seed_from_u64(seed).fill_bytes(&mut data);
    data
}

/// Runs every replay that applies to the workload, each call (or batch of
/// calls) inside a span named for its layer.  Install a tracer first.
pub fn replay_all(input: &ReplayInput<'_>, keys: &Keys) -> (Replays, ReplayFacts) {
    let mut r = Replays::new();
    let mut facts = ReplayFacts::default();
    let messages: Vec<Vec<u8>> = input
        .op_messages
        .iter()
        .enumerate()
        .map(|(i, &len)| seeded_bytes(len, input.seed ^ i as u64))
        .collect();
    let op_bytes: usize = input.op_messages.iter().sum();
    // Spans of roughly 32 KiB of payload: long enough to time, short enough
    // to repeat.
    let batch = (32 * 1024 / op_bytes.max(1)).clamp(1, 32) as u64;

    replay_next_timeout(&mut r, input.stack, keys);
    replay_record(&mut r, keys, &messages, batch);
    match input.stack {
        Stack::SmtSw => {
            replay_core(&mut r, keys, &messages, batch);
            replay_homa_op(&mut r, keys, &messages);
            facts.homa_pending_after_10k = replay_homa_history(&mut r, keys);
        }
        Stack::KtlsSw => replay_ktls(&mut r, keys, &messages, batch),
    }
    if input.handshakes {
        replay_handshakes(&mut r);
    }
    if input.kv {
        replay_kv(&mut r, input.seed);
    }
    let mut captured = take_captured();
    if captured.is_empty() {
        captured = capture_handshake_packets();
    }
    replay_fabric(&mut r, &captured, input.leaf_spine);
    replay_event_queue(&mut r, input.queue_depth);
    facts.hdr_bytes_per_pkt = replay_wire(&mut r, &captured);
    (r, facts)
}

/// `next_timeout` on an endpoint with a message in flight (an armed timer),
/// in batches: in situ the call is only counted, being shorter than the clock
/// read that would time it.
fn replay_next_timeout(r: &mut Replays, stack: Stack, keys: &Keys) {
    let (mut client, _server) = Endpoint::builder()
        .stack(stack.kind())
        .pair(&keys.client, &keys.server, 4000, 5201)
        .expect("valid pair configuration");
    SecureEndpoint::send(&mut client, &[0x42; 64], 0).expect("send");
    SecureEndpoint::poll_transmit(&mut client, 0, &mut Vec::new());
    r.timed(Span::NextTimeout, 256, || {
        std::hint::black_box(SecureEndpoint::next_timeout(std::hint::black_box(&client)));
    });
}

/// Cuts each message into records of the engine's record capacity and
/// returns them as seal requests' plaintext slices.
fn record_chunks(messages: &[Vec<u8>]) -> Vec<&[u8]> {
    let capacity = SmtConfig::software().record_app_capacity();
    messages
        .iter()
        .flat_map(|m| m.chunks(capacity.max(1)))
        .collect()
}

fn seal_requests<'a>(parts: &'a [[&'a [u8]; 1]]) -> Vec<SealRequest<'a>> {
    parts
        .iter()
        .enumerate()
        .map(|(i, p)| SealRequest {
            seq: i as u64,
            content_type: ContentType::ApplicationData,
            parts: p,
            padding: Padding::Default,
        })
        .collect()
}

/// `RecordProtector::seal_batch_into` / `open_batch` on one op's records,
/// plus single 64 B and 16 KiB seals for the per-byte slope.
fn replay_record(r: &mut Replays, keys: &Keys, messages: &[Vec<u8>], batch: u64) {
    let suite = keys.client.suite;
    let sealer = RecordProtector::from_secret(suite, &keys.client.send_secret).expect("send keys");
    let mut opener =
        RecordProtector::from_secret(suite, &keys.server.recv_secret).expect("recv keys");
    let parts: Vec<[&[u8]; 1]> = record_chunks(messages).into_iter().map(|c| [c]).collect();
    let requests = seal_requests(&parts);
    let mut wire = BytesMut::new();
    r.timed(Span::RecordSeal, batch, || {
        wire.clear();
        sealer
            .seal_batch_into(std::hint::black_box(&requests), &mut wire)
            .expect("seal");
    });
    r.timed(Span::RecordOpen, batch, || {
        let opened = opener
            .open_batch(0, requests.len(), std::hint::black_box(&wire))
            .expect("open what was sealed");
        std::hint::black_box(opened.plaintext_len());
    });
    let big = vec![0x5au8; 16 * 1024];
    for (name, len, batch) in [
        (Span::RecordSeal64, 64, 32),
        (Span::RecordSeal16k, big.len(), 2),
    ] {
        let parts = [[&big[..len]]];
        let one = seal_requests(&parts);
        r.timed(name, batch, || {
            wire.clear();
            sealer
                .seal_batch_into(std::hint::black_box(&one), &mut wire)
                .expect("seal");
        });
    }
}

/// `SmtSession::send_message` → NIC model → `receive_packet`, keyed and
/// plaintext, on one op's messages.
fn replay_core(r: &mut Replays, keys: &Keys, messages: &[Vec<u8>], batch: u64) {
    let (client_path, server_path) = PathInfo::pair(4000, 5201);
    let config = SmtConfig::software();
    let sessions = [
        (
            SmtSession::new(&keys.client, config, client_path).expect("client session"),
            SmtSession::new(&keys.server, config, server_path).expect("server session"),
            Span::SegmentSeal,
            Span::ReassemblyOpen,
        ),
        (
            SmtSession::plaintext(SmtConfig::plaintext(), client_path),
            SmtSession::plaintext(SmtConfig::plaintext(), server_path),
            Span::Segment,
            Span::Reassembly,
        ),
    ];
    for (mut tx, mut rx, send_span, recv_span) in sessions {
        let mut nic = NicModel::new(config.mtu, config.tso_enabled);
        r.rounds(&[send_span, recv_span], batch, || {
            let sent = span(send_span, || {
                let mut sent = Vec::with_capacity(batch as usize * messages.len());
                for _ in 0..batch {
                    for m in messages {
                        sent.push(tx.send_message(m, 0).expect("segment"));
                    }
                }
                sent
            });
            let packets: Vec<Packet> = sent
                .iter()
                .flat_map(|out| out.segments.iter())
                .flat_map(|seg| nic.transmit(0, seg).0)
                .collect();
            let delivered = span(recv_span, || {
                packets
                    .iter()
                    .filter_map(|p| rx.receive_packet(p).expect("reassemble"))
                    .count()
            });
            assert_eq!(delivered, sent.len(), "core replay lost a message");
        });
    }
}

/// `KtlsSender::send_into` / `KtlsReceiver::on_bytes` on one op's messages.
fn replay_ktls(r: &mut Replays, keys: &Keys, messages: &[Vec<u8>], batch: u64) {
    let suite = keys.client.suite;
    let mut tx =
        KtlsSender::new(suite, &keys.client.send_secret, CryptoMode::Software).expect("sender");
    let mut rx = KtlsReceiver::new(suite, &keys.server.recv_secret).expect("receiver");
    let mut wire = BytesMut::new();
    r.rounds(&[Span::KtlsSend, Span::KtlsRecv], batch, || {
        wire.clear();
        span(Span::KtlsSend, || {
            for _ in 0..batch {
                for m in messages {
                    tx.send_into(m, &mut wire).expect("send");
                }
            }
        });
        let plain = span(Span::KtlsRecv, || rx.on_bytes(&wire).expect("receive"));
        assert_eq!(
            plain.len() as u64,
            batch * messages.iter().map(|m| m.len() as u64).sum::<u64>(),
            "ktls replay lost bytes"
        );
    });
}

fn homa_pair(keys: &Keys) -> (HomaEndpoint, HomaEndpoint) {
    let (client_path, server_path) = PathInfo::pair(4000, 5201);
    let new = |k, path| {
        HomaEndpoint::new(k, StackKind::SmtSw, HomaConfig::default(), path).expect("backend")
    };
    (
        new(&keys.client, client_path),
        new(&keys.server, server_path),
    )
}

/// One message through the bare message backend: send → `poll_transmit` →
/// `handle_packet` → responses back, until both sides are quiet.
fn homa_message(a: &mut HomaEndpoint, b: &mut HomaEndpoint, data: &[u8]) {
    a.send_message(data, 0).expect("send");
    let mut to_b = a.poll_transmit();
    while !to_b.is_empty() {
        let to_a: Vec<Packet> = to_b.iter().flat_map(|p| b.handle_packet(p)).collect();
        to_b = to_a.iter().flat_map(|p| a.handle_packet(p)).collect();
        to_b.extend(a.poll_transmit());
    }
    assert_eq!(b.take_delivered().len(), 1, "bare backend lost a message");
    a.take_acked();
}

/// One op's messages through the bare (keyed) message backend, on a fresh
/// pair per span so no history accumulates.
fn replay_homa_op(r: &mut Replays, keys: &Keys, messages: &[Vec<u8>]) {
    r.rounds(&[Span::HomaOp], 8, || {
        let (mut a, mut b) = homa_pair(keys);
        span(Span::HomaOp, || {
            for _ in 0..8 {
                for m in messages {
                    homa_message(&mut a, &mut b, m);
                }
            }
        });
    });
}

/// 10 000 64-byte messages over one bare backend pair: messages 1–100 and
/// 9 901–10 000 are timed.  Returns the state still pending at the end.
fn replay_homa_history(r: &mut Replays, keys: &Keys) -> u64 {
    let (mut a, mut b) = homa_pair(keys);
    let data = [0x42u8; 64];
    for i in 0..10_000 {
        match i {
            0..100 => span(Span::HomaEarly, || homa_message(&mut a, &mut b, &data)),
            9_900.. => span(Span::HomaLate, || homa_message(&mut a, &mut b, &data)),
            _ => homa_message(&mut a, &mut b, &data),
        }
    }
    r.units[Span::HomaEarly as usize] += 100;
    r.units[Span::HomaLate as usize] += 100;
    (a.pending_sends() + b.incomplete_recvs()) as u64
}

/// `establish`, `establish_zero_rtt`, and `DerivedClient::start` +
/// `derived_server_respond` + `on_server_flight`, each alone.
fn replay_handshakes(r: &mut Replays) {
    let ca = CertificateAuthority::new("bench-ca");
    let id = ca.issue_identity(SERVER_NAME);
    let mut keys = None;
    r.timed(Span::HandshakeCold, 1, || {
        keys = Some(
            establish(
                ClientConfig::new(ca.verifying_key(), SERVER_NAME),
                ServerConfig::new(id.clone(), ca.verifying_key()),
            )
            .expect("cold handshake"),
        );
    });
    let issuer = SmtTicketIssuer::new(id.clone(), 3600);
    let mut replay = ReplayCache::new(1 << 16);
    let mut now = 0u64;
    r.timed(Span::HandshakeResumed, 1, || {
        now += 1;
        establish_zero_rtt(
            CipherSuite::Aes128GcmSha256,
            &ca.verifying_key(),
            SERVER_NAME,
            &issuer,
            &mut replay,
            b"early",
            false,
            now,
        )
        .expect("0-RTT handshake");
    });
    let (client_keys, server_keys) = keys.expect("cold handshake ran");
    let path = PathSecret::mint(&client_keys, SERVER_NAME);
    let mut map = PathSecretMap::new(16);
    map.insert(PathSecret::mint(&server_keys, "client"));
    r.timed(Span::HandshakeDerived, 4, || {
        let (client, hello) = DerivedClient::start(&path, b"early").expect("derived hello");
        let Ok(DerivedServerOutcome::Accepted(accept)) =
            derived_server_respond(&map, &mut replay, &hello)
        else {
            panic!("derived hello not accepted");
        };
        let Ok(DerivedClientOutcome::Complete(_)) = client.on_server_flight(&accept.flight) else {
            panic!("derived accept not completed");
        };
    });
}

/// `KvRequest`/`KvResponse` encode + decode, and `KvStore::execute`, on the
/// workload's own operation stream.
fn replay_kv(r: &mut Replays, seed: u64) {
    let config = YcsbConfig {
        record_count: KV_RECORDS,
        value_size: KV_VALUE_BYTES,
        seed,
        ..YcsbConfig::default()
    };
    let mut generator = YcsbGenerator::new(YcsbWorkload::A, config);
    let requests: Vec<KvRequest> = (0..256).map(|_| generator.next_op().request).collect();
    let mut store = KvStore::new();
    store.load(KV_RECORDS, KV_VALUE_BYTES);
    let responses: Vec<KvResponse> = requests.iter().map(|q| store.execute(q)).collect();
    let mut at = 0;
    r.timed(Span::KvStore, 16, || {
        std::hint::black_box(store.execute(&requests[at % requests.len()]));
        at += 1;
    });
    at = 0;
    r.timed(Span::KvCodec, 16, || {
        let i = at % responses.len();
        let request = requests[i].encode();
        let response = responses[i].encode();
        let decoded = (KvRequest::decode(&request), KvResponse::decode(&response));
        assert!(
            decoded.0.is_some() && decoded.1.is_some(),
            "kv codec replay"
        );
        at += 1;
    });
}

/// A decorated in-band handshake over `drive_pair`, run only to have packets
/// to replay for the workload whose clients the repo's own harness owns.
fn capture_handshake_packets() -> Vec<Packet> {
    let ca = CertificateAuthority::new("bench-ca");
    let id = ca.issue_identity(SERVER_NAME);
    let (client, server) = Endpoint::builder()
        .stack(StackKind::SmtSw)
        .handshake_pair(
            ConnectConfig::new(ca.verifying_key(), SERVER_NAME),
            AcceptConfig::new(id, ca.verifying_key()),
            4000,
            5201,
        )
        .expect("valid handshake pair");
    let (mut client, mut server) = (Traced(client), Traced(server));
    let _ = client.send(&[0x42; CHURN_REQUEST_BYTES], 0);
    drive_pair(
        &mut client,
        &mut server,
        &mut PairFabric::reliable(),
        100_000,
    );
    take_captured()
}

/// `Fabric::send` + `pop_arrival` over the captured packets on the
/// workload's topology, no endpoints attached.
fn replay_fabric(r: &mut Replays, captured: &[Packet], leaf_spine: bool) {
    if captured.is_empty() {
        return;
    }
    let ((topology, ecn), hosts) = if leaf_spine {
        (incast_fabric(), INCAST_SENDERS + 1)
    } else {
        ((Topology::BigSwitch, None), 2)
    };
    let link = LinkConfig {
        buffer_packets: 4096,
        ..LinkConfig::default()
    };
    let mut fabric = Fabric::with_topology(link, FaultConfig::none(), topology, ecn);
    for _ in 0..hosts {
        fabric.add_host();
    }
    // First and last host: across the spine when there is one.
    let a = fabric.add_port(0);
    let b = fabric.add_port(hosts - 1);
    fabric.connect(a, b);
    let mut now: Nanos = 0;
    r.rounds(&[Span::FabricPkts], captured.len() as u64, || {
        let flight = captured.to_vec();
        let arrived = span(Span::FabricPkts, || {
            fabric.send(now, a, flight);
            let mut arrived = 0;
            while fabric.next_arrival().is_some() {
                if let Some((at, _, _)) = fabric.pop_arrival() {
                    now = now.max(at);
                    arrived += 1;
                }
            }
            arrived
        });
        assert_eq!(arrived, captured.len(), "fabric replay dropped packets");
    });
}

/// `EventQueue` push + pop held at `depth` pending events.
fn replay_event_queue(r: &mut Replays, depth: usize) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = StdRng::seed_from_u64(depth as u64);
    for i in 0..depth.max(1) as u64 {
        queue.push(rng.next_u64() % 10_000, i);
    }
    r.timed(Span::EventQueue, 64, || {
        let (at, event) = queue.pop().expect("queue held at depth");
        queue.push(
            at + 1 + rng.next_u64() % 10_000,
            std::hint::black_box(event),
        );
    });
}

/// `Packet::encode` / `Packet::decode` on the captured packets.  Returns the
/// mean header bytes per packet.
fn replay_wire(r: &mut Replays, captured: &[Packet]) -> f64 {
    if captured.is_empty() {
        return 0.0;
    }
    let mut buf = vec![0u8; captured.iter().map(Packet::wire_len).max().unwrap_or(0)];
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(captured.len());
    for p in captured {
        let n = p.encode(&mut buf).expect("sized for the longest packet");
        encoded.push(buf[..n].to_vec());
    }
    let mut at = 0;
    r.timed(Span::WireEncode, 16, || {
        let p = &captured[at % captured.len()];
        std::hint::black_box(p.encode(&mut buf).expect("encode"));
        at += 1;
    });
    at = 0;
    r.timed(Span::WireDecode, 16, || {
        let bytes = &encoded[at % encoded.len()];
        std::hint::black_box(Packet::decode(bytes).expect("decode what was encoded"));
        at += 1;
    });
    let header_bytes: usize = captured
        .iter()
        .map(|p| p.wire_len() - p.payload.wire_len())
        .sum();
    header_bytes as f64 / captured.len() as f64
}
