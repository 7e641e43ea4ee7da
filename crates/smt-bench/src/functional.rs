//! The functional figure pipeline: Figs. 6–11, the §5.2 CPU usage and
//! Table 2 measured on the **real datapath**.
//!
//! Each figure drives the actual applications (`smt-apps` echo RPC, KV/YCSB,
//! blockstore) through the endpoint API over the `smt-sim` discrete-event
//! fabric: real record sealing, real acks and retransmit machinery, closed-loop
//! clients keeping a fixed number of operations in flight.  Every measured row
//! is cross-checked **in process** against a [`Predictor`] band assembled
//! from the exact quantities the simulator charges — `StackProfile::counts`
//! wire bytes, `LinkConfig` serialization/propagation, and the calibrated
//! `CpuCharge` seal cost — and asserted to land inside a tolerance band, the
//! same validation discipline `profile.rs` applies to its wire accounting.
//!
//! The simulated host charges only record sealing, so the virtual-time rows
//! show what sealing, serialization and propagation cost and nothing else:
//! a stack's per-packet and per-message software overhead is not in them.
//!
//! Table 2 is measured from the in-band machinery: per-op handshake timings
//! captured by the real crypto (`Endpoint::handshake_timings`), plus setup
//! (time-to-first-byte) comparisons between cold, ticket-resumed and
//! path-secret-derived connections, asserting resumed and derived setup beat
//! cold on every encrypted stack.
//!
//! The `figures` binary prints all of it and emits `BENCH_figures.json`,
//! gated in CI by `bench_diff --max-regress` like the scenario matrix.

use crate::scenarios::scenario_keys;
use smt_apps::host::BLOCK_TARGET_COMPUTE_NS;
use smt_apps::{
    BlockHost, BlockStoreConfig, KvHost, KvResponse, KvStore, RpcApp, YcsbConfig, YcsbGenerator,
    YcsbWorkload,
};
use smt_crypto::cert::{CertificateAuthority, Identity};
use smt_crypto::handshake::{SessionKeys, SmtTicket, SmtTicketIssuer};
use smt_sim::net::{
    run_scenario_app, CpuCharge, FlowSpec, LinkConfig, Scenario, ScenarioApp, ScenarioReport,
    ScheduledSend,
};
use smt_sim::{CostModel, Nanos};
use smt_transport::{
    drive_pair, AcceptConfig, ConnectConfig, Endpoint, Event, Listener, ListenerFabric, PairFabric,
    SecureEndpoint, SharedPathSecrets, StackKind, StackProfile, ZeroRttAcceptor,
};

/// One functional figure row: the measured value, its [`Predictor`] value
/// and the tolerance band the measurement must land in.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FigRow {
    /// Which figure the row belongs to (`"fig6"` … `"fig11"`, `"cpu"`,
    /// `"fanin"`).
    pub figure: String,
    /// Series (legend) label, e.g. `"SMT-hw-1024B"`.
    pub series: String,
    /// X value (RPC size, concurrency, workload, iodepth).
    pub x: String,
    /// Measured value from the functional run.
    pub measured: f64,
    /// Prediction from the profile/link/CPU model.
    pub predicted: f64,
    /// Relative tolerance (fraction of `predicted`).
    pub tol_rel: f64,
    /// Absolute tolerance floor, in `unit`.
    pub tol_abs: f64,
    /// Unit of `measured`/`predicted`.
    pub unit: String,
    /// Completed operations behind the measurement.
    pub ops: u64,
}

impl FigRow {
    /// Half-width of the acceptance band around the prediction.
    pub fn band(&self) -> f64 {
        self.predicted * self.tol_rel + self.tol_abs
    }

    /// Whether the measurement landed inside the band.
    pub fn within_band(&self) -> bool {
        (self.measured - self.predicted).abs() <= self.band()
    }

    /// Panics unless the measurement is inside the band.
    pub fn check(&self) {
        assert!(
            self.within_band(),
            "{}/{}/x={}: measured {:.2} {} outside Predictor band {:.2} ± {:.2}",
            self.figure,
            self.series,
            self.x,
            self.measured,
            self.unit,
            self.predicted,
            self.band(),
        );
    }
}

/// Asserts every row against its band (the in-process cross-check),
/// reporting **all** offending rows at once — a full-scale run takes the
/// better part of an hour, so one failure must name every violation.
pub fn assert_rows(rows: &[FigRow]) {
    let violations: Vec<String> = rows
        .iter()
        .filter(|r| !r.within_band())
        .map(|r| {
            format!(
                "{}/{}/x={}: measured {:.2} {} outside Predictor band {:.2} ± {:.2}",
                r.figure,
                r.series,
                r.x,
                r.measured,
                r.unit,
                r.predicted,
                r.band(),
            )
        })
        .collect();
    assert!(
        violations.is_empty(),
        "{} of {} rows outside their Predictor bands:\n{}",
        violations.len(),
        rows.len(),
        violations.join("\n"),
    );
}

/// Renders figure rows for [`crate::output::print_table`] under the usual
/// `figure / series / x / measured / predicted / band / unit / ops` header.
pub fn fig_table(rows: &[FigRow]) -> Vec<Vec<String>> {
    use crate::output::f2;
    rows.iter()
        .map(|r| {
            vec![
                r.figure.clone(),
                r.series.clone(),
                r.x.clone(),
                f2(r.measured),
                f2(r.predicted),
                f2(r.band()),
                r.unit.clone(),
                r.ops.to_string(),
            ]
        })
        .collect()
}

/// Column header matching [`fig_table`].
pub const FIG_TABLE_HEADER: [&str; 8] = [
    "figure",
    "series",
    "x",
    "measured",
    "predicted",
    "band",
    "unit",
    "ops",
];

/// Workload scale for the functional runs.
#[derive(Debug, Clone)]
pub struct FigScale {
    /// RPC sizes swept in Figs. 6, 10 and 11.
    pub fig6_sizes: Vec<usize>,
    /// Operations per unloaded-RTT point (Figs. 6, 10 and 11; one in flight).
    pub fig6_ops: u64,
    /// RPC sizes swept in Fig. 7.
    pub fig7_sizes: Vec<usize>,
    /// Concurrency sweep in Fig. 7.
    pub fig7_concurrency: Vec<usize>,
    /// Operations per Fig. 7 point.
    pub fig7_ops: u64,
    /// Value sizes swept in Fig. 8.
    pub fig8_value_sizes: Vec<usize>,
    /// Operations per Fig. 8 point.
    pub fig8_ops: u64,
    /// Records loaded into the KV store.
    pub fig8_records: usize,
    /// In-flight operations per Fig. 8 point.
    pub fig8_concurrency: usize,
    /// Iodepth sweep in Fig. 9.
    pub fig9_iodepth: Vec<usize>,
    /// Operations per Fig. 9 point.
    pub fig9_ops: u64,
    /// Concurrent clients in the listener fan-in case.
    pub fanin_clients: usize,
    /// Operations per fan-in client.
    pub fanin_ops: u64,
}

impl FigScale {
    /// The CI smoke scale: every figure exercised end to end in seconds.
    pub fn smoke() -> Self {
        Self {
            fig6_sizes: vec![256, 4096],
            fig6_ops: 40,
            fig7_sizes: vec![1024],
            fig7_concurrency: vec![16],
            fig7_ops: 400,
            fig8_value_sizes: vec![1024],
            fig8_ops: 300,
            fig8_records: 2_000,
            fig8_concurrency: 16,
            fig9_iodepth: vec![1, 4],
            fig9_ops: 200,
            fanin_clients: 4,
            fanin_ops: 50,
        }
    }

    /// The full paper-parity scale (~1M operations across all figures).
    pub fn full() -> Self {
        Self {
            fig6_sizes: vec![
                64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
            ],
            fig6_ops: 300,
            fig7_sizes: vec![64, 1024, 8192],
            fig7_concurrency: vec![50, 100, 150, 200],
            fig7_ops: 3_000,
            fig8_value_sizes: vec![64, 1024, 4096],
            fig8_ops: 5_000,
            fig8_records: 100_000,
            fig8_concurrency: 32,
            fig9_iodepth: vec![1, 2, 4, 8],
            fig9_ops: 2_000,
            fanin_clients: 8,
            fanin_ops: 250,
        }
    }
}

// ---------------------------------------------------------------------------
// Predictions
// ---------------------------------------------------------------------------

/// Assembles predictions from the same quantities the simulator charges:
/// profile wire counts, link serialization/propagation, CPU seal cost.
#[derive(Debug, Clone)]
pub struct Predictor {
    link: LinkConfig,
    cpu: CpuCharge,
}

impl Predictor {
    /// A predictor for the given fabric link.
    pub fn new(link: LinkConfig) -> Self {
        Self {
            link,
            cpu: CostModel::calibrated().cpu_charge(),
        }
    }

    /// A predictor for harnesses that charge no host CPU (the listener
    /// fan-in fabric drives endpoints without a seal charge).
    pub fn without_cpu(link: LinkConfig) -> Self {
        Self {
            link,
            cpu: CpuCharge {
                sw_per_record_ns: 0,
                sw_ns_per_byte: 0.0,
            },
        }
    }

    fn profile(&self, stack: StackKind) -> StackProfile {
        StackProfile::new(stack).with_mtu(self.link.mtu)
    }

    /// Unloaded one-way fabric latency for `bytes` application bytes:
    /// egress serialization of the whole message, core propagation, ingress
    /// serialization of the last packet (earlier packets pipeline).
    fn oneway_ns(&self, stack: StackKind, bytes: usize) -> f64 {
        let c = self.profile(stack).counts(bytes);
        let last_packet = c.wire_bytes.div_ceil(c.packets.max(1));
        (self.link.serialization_ns(c.wire_bytes)
            + self.link.propagation_ns
            + self.link.serialization_ns(last_packet)) as f64
    }

    /// Host CPU charged for sealing `bytes` as records (zero for plaintext
    /// and TX-offloaded stacks — they seal nothing on the host).
    fn seal_ns(&self, stack: StackKind, bytes: usize) -> f64 {
        if !stack.is_encrypted() || stack.offloads_tx_crypto() {
            return 0.0;
        }
        let c = self.profile(stack).counts(bytes);
        self.cpu.seal_ns(bytes as u64, c.records as u64) as f64
    }

    /// Predicted request→reply round-trip time in nanoseconds for one
    /// outstanding RPC.
    pub fn rtt_ns(
        &self,
        stack: StackKind,
        request: usize,
        response: usize,
        compute_ns: u64,
        fixed_ns: u64,
    ) -> f64 {
        self.seal_ns(stack, request)
            + self.oneway_ns(stack, request)
            + compute_ns as f64
            + fixed_ns as f64
            + self.seal_ns(stack, response)
            + self.oneway_ns(stack, response)
    }

    /// Predicted closed-loop throughput (ops/s) at `concurrency` in flight:
    /// pipelining until the tightest serial resource saturates (client seal
    /// core, server seal+compute core, either link direction).
    pub fn throughput_rps(
        &self,
        stack: StackKind,
        request: usize,
        response: usize,
        compute_ns: u64,
        concurrency: usize,
    ) -> f64 {
        let rtt = self.rtt_ns(stack, request, response, compute_ns, 0);
        let p = self.profile(stack);
        let req_wire = p.counts(request).wire_bytes;
        let resp_wire = p.counts(response).wire_bytes;
        // Each link direction also serializes the reverse path's
        // acknowledgement reports (cumulative ACK / SACK, roughly one per
        // delivered message): invisible next to an 8 KB message, nearly a
        // doubling next to a 64 B one.
        let report_wire =
            smt_wire::IPV4_HEADER_LEN + smt_wire::SMT_OVERLAY_LEN + smt_wire::SmtSack::FIXED_LEN;
        // Each term is its own serial resource in the simulator: the client
        // and server protocol cores (record sealing), the server app core
        // (compute), and the two link directions — the tightest one caps the
        // pipeline.
        let service = self
            .seal_ns(stack, request)
            .max(self.seal_ns(stack, response))
            .max(compute_ns as f64)
            .max(self.link.serialization_ns(req_wire + report_wire) as f64)
            .max(self.link.serialization_ns(resp_wire + report_wire) as f64)
            .max(1.0);
        (concurrency as f64 * 1e9 / rtt).min(1e9 / service)
    }

    /// Predicted busy fraction of one host's seal core in a closed-loop echo
    /// of `size`-byte RPCs at `concurrency` in flight: each host seals one
    /// message per RPC, at the predicted throughput.
    pub fn seal_core_busy(&self, stack: StackKind, size: usize, concurrency: usize) -> f64 {
        self.seal_ns(stack, size) * self.throughput_rps(stack, size, size, 0, concurrency) / 1e9
    }
}

// ---------------------------------------------------------------------------
// Scenario plumbing
// ---------------------------------------------------------------------------

/// A one-flow two-host scenario with `concurrency` seeds at t=0 (staggered a
/// hair so the event order is stable) and the calibrated CPU charge applied.
fn one_flow_scenario(name: &str, concurrency: usize, request_bytes: usize) -> Scenario {
    let mut scenario = Scenario::new(name, 2);
    scenario.flows.push(FlowSpec {
        src_host: 0,
        dst_host: 1,
    });
    // Deep buffers for the loaded sweeps: Fig. 7 pushes up to 200 in-flight
    // 8 KB RPCs through one port, which the default shallow tail-drop queue
    // would turn into a retransmission benchmark instead.  Deep enough for
    // the sender's own CPU queue too: the runner stamps a sealed burst with
    // the time its core frees up, the link counts that as backlog, and 200
    // software-sealed 8 KB requests are 509 µs of it — past the 491 µs a
    // 4096-packet buffer holds, where every ACK the client sent "now" was
    // tail-dropped at its own port.
    scenario.link.buffer_packets = 8192;
    for i in 0..concurrency {
        scenario.sends.push(ScheduledSend {
            at: i as Nanos * 100,
            flow: 0,
            size: request_bytes,
        });
    }
    scenario.cpu = Some(CostModel::calibrated().cpu_charge());
    scenario.sort_sends();
    scenario
}

/// The client/server pair of a one-flow figure scenario, on the ports
/// `scenario_endpoints` gives flow 0.  `tso: false` is Fig. 11's ablation:
/// the stack hands the NIC one segment per packet.
pub fn figure_endpoints(
    stack: StackKind,
    tso: bool,
    keys: &(SessionKeys, SessionKeys),
) -> (Endpoint, Endpoint) {
    Endpoint::builder()
        .stack(stack)
        .tso(tso)
        .pair(&keys.0, &keys.1, 10_000, 10_001)
        .expect("valid figure endpoint configuration")
}

fn run_app(
    scenario: &Scenario,
    (client, server): (Endpoint, Endpoint),
    app: &mut dyn ScenarioApp,
) -> ScenarioReport {
    let stack = client.stack();
    let mut endpoints: Vec<Box<dyn smt_sim::SimEndpoint>> =
        vec![Box::new(client), Box::new(server)];
    let report = run_scenario_app(scenario, &mut endpoints, app);
    assert!(
        !report.truncated,
        "{}/{}: truncated",
        scenario.name,
        stack.label()
    );
    report
}

fn ops_per_sec(report: &ScenarioReport) -> f64 {
    report.replies_delivered as f64 * 1e9 / report.duration_ns.max(1) as f64
}

// ---------------------------------------------------------------------------
// Figures 6–11 and CPU usage on the real datapath
// ---------------------------------------------------------------------------

/// Unloaded RTT — one echo RPC in flight, p50 of the measured
/// request→reply round trips — for one series over the Fig. 6 sizes.
fn unloaded_rtt_rows(
    figure: &str,
    series: &str,
    stack: StackKind,
    tso: bool,
    scale: &FigScale,
    keys: &(SessionKeys, SessionKeys),
) -> Vec<FigRow> {
    let mut rows = Vec::new();
    for &size in &scale.fig6_sizes {
        let scenario = one_flow_scenario(figure, 1, size);
        let predictor = Predictor::new(scenario.link);
        let mut app = RpcApp::new(1, size, size, scale.fig6_ops - 1);
        let report = run_app(&scenario, figure_endpoints(stack, tso, keys), &mut app);
        assert_eq!(report.replies_delivered, scale.fig6_ops, "{series}");
        rows.push(FigRow {
            figure: figure.into(),
            series: series.into(),
            x: size.to_string(),
            measured: report.rpc_latency.p50_us,
            predicted: predictor.rtt_ns(stack, size, size, 0, 0) / 1e3,
            tol_rel: 0.35,
            tol_abs: 6.0,
            unit: "us".into(),
            ops: report.replies_delivered,
        });
    }
    rows
}

/// Fig. 6 (functional): unloaded RTT of every Fig. 6 stack.
pub fn fig6_functional(scale: &FigScale, keys: &(SessionKeys, SessionKeys)) -> Vec<FigRow> {
    StackKind::figure6_set()
        .into_iter()
        .flat_map(|stack| unloaded_rtt_rows("fig6", stack.label(), stack, true, scale, keys))
        .collect()
}

/// Fig. 10 (functional): TCPLS unloaded RTT.  Its SMT-sw and SMT-hw series
/// are the Fig. 6 rows.
pub fn fig10_functional(scale: &FigScale, keys: &(SessionKeys, SessionKeys)) -> Vec<FigRow> {
    let stack = StackKind::Tcpls;
    unloaded_rtt_rows("fig10", stack.label(), stack, true, scale, keys)
}

/// Fig. 11 (functional): SMT-hw unloaded RTT with TSO off.  Its TSO series
/// is the Fig. 6 SMT-hw row.
pub fn fig11_functional(scale: &FigScale, keys: &(SessionKeys, SessionKeys)) -> Vec<FigRow> {
    unloaded_rtt_rows(
        "fig11",
        "SMT-hw-noTSO",
        StackKind::SmtHw,
        false,
        scale,
        keys,
    )
}

/// Fig. 7 (functional): closed-loop echo throughput over a concurrency
/// sweep, followed by the §5.2 CPU usage read from the same runs: the busy
/// fraction of one host's seal core (%) on every stack that seals on the
/// host.  Offloaded and plaintext stacks seal nothing and get no row.
pub fn fig7_functional(scale: &FigScale, keys: &(SessionKeys, SessionKeys)) -> Vec<FigRow> {
    let mut rows = Vec::new();
    let mut cpu_rows = Vec::new();
    for &size in &scale.fig7_sizes {
        for stack in StackKind::figure6_set() {
            for &concurrency in &scale.fig7_concurrency {
                let scenario = one_flow_scenario("fig7", concurrency, size);
                let predictor = Predictor::new(scenario.link);
                let budget = scale.fig7_ops.saturating_sub(concurrency as u64);
                let mut app = RpcApp::new(1, size, size, budget);
                let report = run_app(&scenario, figure_endpoints(stack, true, keys), &mut app);
                assert_eq!(
                    report.replies_delivered,
                    scale.fig7_ops,
                    "{}",
                    stack.label()
                );
                rows.push(FigRow {
                    figure: "fig7".into(),
                    series: format!("{}-{}B", stack.label(), size),
                    x: concurrency.to_string(),
                    measured: ops_per_sec(&report),
                    predicted: predictor.throughput_rps(stack, size, size, 0, concurrency),
                    tol_rel: 0.45,
                    tol_abs: 0.0,
                    unit: "rpc/s".into(),
                    ops: report.replies_delivered,
                });
                if stack.is_encrypted() && !stack.offloads_tx_crypto() {
                    // An echo is symmetric: each host sealed half the records
                    // and half the delivered bytes.
                    let cpu = scenario.cpu.expect("figure scenarios charge sealing");
                    let busy_ns =
                        cpu.seal_ns(report.bytes_delivered, report.endpoints.records_sealed);
                    cpu_rows.push(FigRow {
                        figure: "cpu".into(),
                        series: format!("{}-{}B", stack.label(), size),
                        x: concurrency.to_string(),
                        measured: busy_ns as f64 / 2.0 / report.duration_ns as f64 * 100.0,
                        predicted: predictor.seal_core_busy(stack, size, concurrency) * 100.0,
                        tol_rel: 0.45,
                        tol_abs: 0.0,
                        unit: "%".into(),
                        ops: report.replies_delivered,
                    });
                }
            }
        }
    }
    rows.extend(cpu_rows);
    rows
}

/// Fig. 8 (functional): KV/YCSB throughput — the real `KvStore` served
/// through the endpoint API, zipfian key mixes, closed loop.
pub fn fig8_functional(scale: &FigScale, keys: &(SessionKeys, SessionKeys)) -> Vec<FigRow> {
    let mut rows = Vec::new();
    for &value_size in &scale.fig8_value_sizes {
        for workload in YcsbWorkload::all() {
            let config = YcsbConfig {
                value_size,
                record_count: scale.fig8_records,
                // Bounded scans keep workload E's replies inside one message
                // flight; the prediction uses the same cap.
                max_scan_len: 16,
                ..YcsbConfig::default()
            };
            // The prediction uses the mean request/response sizes of
            // the same generator stream the functional run will draw.
            let (req_mean, resp_mean) = YcsbGenerator::new(workload, config).mean_sizes(2_000);
            let compute = KvStore::compute_cost_ns(resp_mean);
            for stack in StackKind::figure8_set() {
                let scenario = one_flow_scenario("fig8", scale.fig8_concurrency, req_mean.max(1));
                let predictor = Predictor::new(scenario.link);
                let budget = scale.fig8_ops.saturating_sub(scale.fig8_concurrency as u64);
                let mut app = KvHost::new(workload, config, 1, budget);
                let report = run_app(&scenario, figure_endpoints(stack, true, keys), &mut app);
                assert_eq!(
                    report.replies_delivered,
                    scale.fig8_ops,
                    "{}/{}",
                    stack.label(),
                    workload.label()
                );
                assert_eq!(app.server_operations(), scale.fig8_ops);
                rows.push(FigRow {
                    figure: "fig8".into(),
                    series: format!("{}-{}B", stack.label(), value_size),
                    x: workload.label().into(),
                    measured: ops_per_sec(&report),
                    predicted: predictor.throughput_rps(
                        stack,
                        req_mean,
                        resp_mean,
                        compute,
                        scale.fig8_concurrency,
                    ),
                    tol_rel: 0.45,
                    tol_abs: 0.0,
                    unit: "ops/s".into(),
                    ops: report.replies_delivered,
                });
            }
        }
    }
    rows
}

/// Fig. 9 (functional): blockstore random-read latency over iodepth — the
/// simulated SSD's 80 µs rides in `fixed_ns`, target software on the app core.
pub fn fig9_functional(scale: &FigScale, keys: &(SessionKeys, SessionKeys)) -> Vec<FigRow> {
    let mut rows = Vec::new();
    let store_cfg = BlockStoreConfig::default();
    let (req_size, resp_size) = (
        smt_apps::blockstore::CAPSULE_BYTES,
        store_cfg.block_size + smt_apps::blockstore::RESPONSE_HEADER_BYTES,
    );
    for stack in StackKind::figure6_set() {
        for &iodepth in &scale.fig9_iodepth {
            let scenario = one_flow_scenario("fig9", iodepth, req_size);
            let predictor = Predictor::new(scenario.link);
            let budget = scale.fig9_ops.saturating_sub(iodepth as u64);
            let mut app = BlockHost::new(store_cfg, 1, budget, 0xF19);
            let report = run_app(&scenario, figure_endpoints(stack, true, keys), &mut app);
            assert_eq!(
                report.replies_delivered,
                scale.fig9_ops,
                "{}",
                stack.label()
            );
            assert_eq!(app.reads(), scale.fig9_ops);
            let base = predictor.rtt_ns(
                stack,
                req_size,
                resp_size,
                BLOCK_TARGET_COMPUTE_NS,
                store_cfg.read_latency_ns,
            );
            // With D in flight the target's per-command software serializes on
            // the app core; median waits behind about half the batch, the tail
            // behind all of it.
            let queue = (iodepth.saturating_sub(1)) as f64 * BLOCK_TARGET_COMPUTE_NS as f64;
            for (quantile, measured, extra) in [
                ("p50", report.rpc_latency.p50_us, queue / 2.0),
                ("p99", report.rpc_latency.p99_us, queue),
            ] {
                rows.push(FigRow {
                    figure: "fig9".into(),
                    series: format!("{}-{}", stack.label(), quantile),
                    x: iodepth.to_string(),
                    measured,
                    predicted: (base + extra) / 1e3,
                    tol_rel: 0.30,
                    tol_abs: 15.0,
                    unit: "us".into(),
                    ops: report.replies_delivered,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Multi-client fan-in over a Listener
// ---------------------------------------------------------------------------

/// Fan-in (functional): N clients dial one `Listener` through in-band
/// handshakes on the shared listener fabric and run closed-loop KV gets; the
/// measured aggregate ops/s is cross-checked like the other figures.
pub fn fanin_functional(scale: &FigScale, stacks: &[StackKind]) -> Vec<FigRow> {
    let mut rows = Vec::new();
    for &stack in stacks {
        let ca = CertificateAuthority::new("fanin-ca");
        let id = ca.issue_identity("server.dc.local");
        let mut listener = Listener::new(
            Endpoint::builder().stack(stack),
            id,
            ca.verifying_key(),
            scale.fanin_clients + 4,
        );
        let mut fabric = ListenerFabric::reliable();
        let mut store = KvStore::new();
        store.load(scale.fig8_records.min(10_000), 256);
        let config = YcsbConfig {
            value_size: 256,
            record_count: scale.fig8_records.min(10_000),
            max_scan_len: 16,
            ..YcsbConfig::default()
        };
        let mut gens: Vec<YcsbGenerator> = (0..scale.fanin_clients)
            .map(|i| {
                YcsbGenerator::new(
                    YcsbWorkload::C,
                    YcsbConfig {
                        seed: 42 + i as u64,
                        ..config
                    },
                )
            })
            .collect();
        let mut remaining: Vec<u64> = vec![scale.fanin_ops.saturating_sub(1); scale.fanin_clients];
        let mut clients: Vec<(u32, Endpoint)> = (0..scale.fanin_clients)
            .map(|i| {
                let cid = i as u32 + 1;
                fabric.attach(cid);
                let mut client = Endpoint::builder()
                    .stack(stack)
                    .connection_id(cid)
                    .path(smt_core::segment::PathInfo::pair(4000, 5201).0)
                    .connect(ConnectConfig::new(ca.verifying_key(), "server.dc.local"))
                    .expect("fan-in dial");
                let first = gens[i].next_op().request.encode();
                client.send(&first, 0).expect("first fan-in request");
                (cid, client)
            })
            .collect();

        let mut completed = 0u64;
        let total = scale.fanin_ops * scale.fanin_clients as u64;
        loop {
            let processed = fabric.drive(&mut clients, &mut listener, 5_000_000);
            // Serve everything the listener delivered.
            let now = fabric.now();
            for (cid, _, request) in listener.take_delivered() {
                let response = store.handle_wire(&request);
                listener
                    .send(cid, &response, now)
                    .expect("fan-in KV response");
            }
            // Closed loop: every client reply spawns the next request.
            let mut progressed = false;
            for (cid, client) in clients.iter_mut() {
                let idx = (*cid - 1) as usize;
                for (_, reply) in smt_transport::take_delivered(client) {
                    assert!(
                        KvResponse::decode(&reply).is_some(),
                        "{}: undecodable fan-in reply",
                        stack.label()
                    );
                    completed += 1;
                    progressed = true;
                    if remaining[idx] > 0 {
                        remaining[idx] -= 1;
                        let next = gens[idx].next_op().request.encode();
                        client.send(&next, now).expect("next fan-in request");
                    }
                }
            }
            if completed >= total {
                break;
            }
            assert!(
                processed > 0 || progressed,
                "{}: fan-in stalled at {completed}/{total}",
                stack.label()
            );
        }
        assert_eq!(completed, total, "{}", stack.label());
        let (req_mean, resp_mean) = YcsbGenerator::new(YcsbWorkload::C, config).mean_sizes(1_000);
        // The listener fabric drives endpoints directly: no seal charge, no
        // app-core compute delay — the prediction must match.
        let predictor = Predictor::without_cpu(LinkConfig::default());
        let measured = completed as f64 * 1e9 / fabric.now().max(1) as f64;
        rows.push(FigRow {
            figure: "fanin".into(),
            series: format!("{}-kvC", stack.label()),
            x: scale.fanin_clients.to_string(),
            measured,
            predicted: predictor.throughput_rps(stack, req_mean, resp_mean, 0, scale.fanin_clients),
            tol_rel: 0.60,
            tol_abs: 0.0,
            unit: "ops/s".into(),
            ops: completed,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 2 from the in-band machinery
// ---------------------------------------------------------------------------

/// How a connection obtained its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupMode {
    /// Full handshake (certificates, ECDHE, signatures).
    Cold,
    /// SMT-ticket 0-RTT resumption.
    Resumed,
    /// Path-secret derived (no public-key operations).
    Derived,
}

impl SetupMode {
    /// The row label.
    pub fn label(self) -> &'static str {
        match self {
            SetupMode::Cold => "cold",
            SetupMode::Resumed => "resumed",
            SetupMode::Derived => "derived",
        }
    }
}

/// One measured in-band connection setup.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SetupPoint {
    /// Stack label.
    pub stack: String,
    /// `"cold"`, `"resumed"` or `"derived"`.
    pub mode: &'static str,
    /// Virtual time the server delivered the first request (time to first
    /// byte — the paper's setup-latency metric).
    pub ttfb_ns: Nanos,
    /// The client's measured handshake RTT.
    pub hs_rtt_ns: Nanos,
    /// Wall-clock crypto compute across both ends (µs), from the in-band
    /// per-op handshake timings.
    pub crypto_us: f64,
    /// Whether the endpoint reported the abbreviated (resumed) path.
    pub resumed: bool,
}

/// Table 2, measured functionally: the per-op breakdown of one in-band cold
/// handshake plus the cold/resumed/derived setup comparison per stack.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table2Functional {
    /// Per-op rows (label, description, µs) from the in-band cold handshake
    /// on SMT-sw, client and server merged.
    pub ops: Vec<(String, String, f64)>,
    /// Setup points for every encrypted stack × mode (plus plaintext colds).
    pub setup: Vec<SetupPoint>,
}

/// What one setup run yields: the measured point, any resumption ticket the
/// server issued, and (cold runs only) the per-op handshake breakdown plus
/// its total crypto time.
type SetupOutcome = (
    SetupPoint,
    Option<SmtTicket>,
    Option<(Vec<(String, String, f64)>, f64)>,
);

fn run_setup(
    stack: StackKind,
    ca: &CertificateAuthority,
    identity: &Identity,
    acceptor: &ZeroRttAcceptor,
    mode: SetupMode,
    ticket: Option<&SmtTicket>,
    secrets: Option<(&SharedPathSecrets, &SharedPathSecrets)>,
) -> SetupOutcome {
    let mut connect = ConnectConfig::new(ca.verifying_key(), "setup.dc.local");
    if let Some(t) = ticket {
        connect = connect.resume(t.clone(), t.issued_at);
    }
    let mut accept = AcceptConfig::new(identity.clone(), ca.verifying_key())
        .zero_rtt(acceptor.clone())
        .ticket_time(ticket.map_or(100, |t| t.issued_at));
    if let Some((cs, ss)) = secrets {
        connect = connect.path_secrets(cs.clone());
        accept = accept.path_secrets(ss.clone());
    }
    let (mut client, mut server) = Endpoint::builder()
        .stack(stack)
        .handshake_pair(connect, accept, 4000, 4443)
        .expect("setup endpoints");
    client.send(&[0x42u8; 512], 0).expect("first request");

    let mut link = PairFabric::reliable();
    let mut ttfb: Option<Nanos> = None;
    let mut hs_rtt = 0;
    let mut resumed = false;
    let mut got_ticket = None;
    loop {
        let processed = drive_pair(&mut client, &mut server, &mut link, 1);
        while let Some(ev) = server.poll_event() {
            if matches!(ev, Event::MessageDelivered { .. }) && ttfb.is_none() {
                ttfb = Some(link.now());
            }
        }
        while let Some(ev) = client.poll_event() {
            match ev {
                Event::HandshakeComplete {
                    rtt_ns, resumed: r, ..
                } => {
                    hs_rtt = rtt_ns;
                    resumed = r;
                }
                Event::TicketReceived(t) => got_ticket = Some(*t),
                Event::Error(e) => panic!("{}/{}: {e}", stack.label(), mode.label()),
                _ => {}
            }
        }
        if processed == 0 {
            break;
        }
    }
    // Merge the per-op timings both ends captured during the real in-band
    // handshake (the Table 2 breakdown).
    let mut merged = smt_crypto::handshake::HandshakeTimings::new();
    let mut have_timings = false;
    for timings in [client.handshake_timings(), server.handshake_timings()]
        .into_iter()
        .flatten()
    {
        merged.merge(timings);
        have_timings = true;
    }
    let crypto_us = merged.total().as_secs_f64() * 1e6;
    let breakdown = have_timings.then(|| {
        let rows = merged
            .rows()
            .map(|(op, d)| {
                (
                    op.label().to_string(),
                    op.description().to_string(),
                    d.as_secs_f64() * 1e6,
                )
            })
            .collect();
        (rows, crypto_us)
    });
    let point = SetupPoint {
        stack: stack.label().to_string(),
        mode: mode.label(),
        ttfb_ns: ttfb.unwrap_or_else(|| panic!("{}/{}: no delivery", stack.label(), mode.label())),
        hs_rtt_ns: hs_rtt,
        crypto_us,
        resumed,
    };
    (point, got_ticket, breakdown)
}

/// Measures Table 2 from the in-band machinery and asserts the acceptance
/// criterion: resumed and derived setup strictly beat cold on every
/// encrypted stack.
pub fn table2_functional() -> Table2Functional {
    let ca = CertificateAuthority::new("table2-ca");
    let identity = ca.issue_identity("setup.dc.local");
    let mut ops = Vec::new();
    let mut setup = Vec::new();
    for stack in StackKind::all() {
        let acceptor = ZeroRttAcceptor::new(SmtTicketIssuer::new(identity.clone(), 3600), 1 << 16);
        let client_secrets = SharedPathSecrets::new(16, 256);
        let server_secrets = SharedPathSecrets::new(16, 256);
        // Cold: mints the ticket and the path secret for the two warm modes.
        let (cold, ticket, breakdown) = run_setup(
            stack,
            &ca,
            &identity,
            &acceptor,
            SetupMode::Cold,
            None,
            Some((&client_secrets, &server_secrets)),
        );
        if stack == StackKind::SmtSw {
            if let Some((rows, _)) = breakdown {
                ops = rows;
            }
        }
        setup.push(cold.clone());
        if !stack.is_encrypted() {
            continue;
        }
        let ticket = ticket.expect("cold handshake mints an in-band ticket");
        let (resumed, _, _) = run_setup(
            stack,
            &ca,
            &identity,
            &acceptor,
            SetupMode::Resumed,
            Some(&ticket),
            None,
        );
        let (derived, _, _) = run_setup(
            stack,
            &ca,
            &identity,
            &acceptor,
            SetupMode::Derived,
            None,
            Some((&client_secrets, &server_secrets)),
        );
        assert!(
            resumed.resumed,
            "{}: ticket run did not resume",
            stack.label()
        );
        assert!(
            derived.resumed,
            "{}: derived run did not resume",
            stack.label()
        );
        assert!(
            resumed.ttfb_ns < cold.ttfb_ns,
            "{}: resumed setup ({} ns) not faster than cold ({} ns)",
            stack.label(),
            resumed.ttfb_ns,
            cold.ttfb_ns
        );
        assert!(
            derived.ttfb_ns < cold.ttfb_ns,
            "{}: derived setup ({} ns) not faster than cold ({} ns)",
            stack.label(),
            derived.ttfb_ns,
            cold.ttfb_ns
        );
        setup.push(resumed);
        setup.push(derived);
    }
    assert!(!ops.is_empty(), "SMT-sw cold handshake captured no timings");
    Table2Functional { ops, setup }
}

// ---------------------------------------------------------------------------
// The full pipeline
// ---------------------------------------------------------------------------

/// Everything the functional pipeline produced, every row already asserted
/// against its Predictor band.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FunctionalFigures {
    /// Fig. 6–11, CPU-usage and fan-in rows.
    pub rows: Vec<FigRow>,
    /// Table 2 breakdown and setup comparison.
    pub table2: Table2Functional,
}

/// Runs the complete functional figure pipeline (smoke or full scale),
/// asserting every cross-check in process.
pub fn run_figures(smoke: bool) -> FunctionalFigures {
    let scale = if smoke {
        FigScale::smoke()
    } else {
        FigScale::full()
    };
    let keys = scenario_keys();
    let started = std::time::Instant::now();
    // A full-scale run takes tens of minutes, so narrate progress and every
    // row to stderr as each figure lands — a late band violation must not
    // cost the whole run's visibility.
    let stage = |label: &str, new_rows: &[FigRow]| {
        for r in new_rows {
            eprintln!(
                "[figures +{:>5}s] {}/{}/x={}: measured {:.2} predicted {:.2} ± {:.2} {} {}",
                started.elapsed().as_secs(),
                r.figure,
                r.series,
                r.x,
                r.measured,
                r.predicted,
                r.band(),
                r.unit,
                if r.within_band() { "ok" } else { "OUT-OF-BAND" },
            );
        }
        eprintln!(
            "[figures +{:>5}s] {label} done ({} rows)",
            started.elapsed().as_secs(),
            new_rows.len(),
        );
    };
    let mut rows = Vec::new();
    let fig6 = fig6_functional(&scale, &keys);
    stage("fig6", &fig6);
    rows.extend(fig6);
    let fig10 = fig10_functional(&scale, &keys);
    stage("fig10", &fig10);
    rows.extend(fig10);
    let fig11 = fig11_functional(&scale, &keys);
    stage("fig11", &fig11);
    rows.extend(fig11);
    let fig7 = fig7_functional(&scale, &keys);
    stage("fig7 + cpu", &fig7);
    rows.extend(fig7);
    let fig8 = fig8_functional(&scale, &keys);
    stage("fig8", &fig8);
    rows.extend(fig8);
    let fig9 = fig9_functional(&scale, &keys);
    stage("fig9", &fig9);
    rows.extend(fig9);
    let fanin_stacks: Vec<StackKind> = if smoke {
        vec![StackKind::SmtSw]
    } else {
        vec![StackKind::SmtSw, StackKind::KtlsSw, StackKind::SmtHw]
    };
    let fanin = fanin_functional(&scale, &fanin_stacks);
    stage("fanin", &fanin);
    rows.extend(fanin);
    assert_rows(&rows);
    let table2 = table2_functional();
    FunctionalFigures { rows, table2 }
}

/// Serializes the pipeline as a bench-diff-compatible report.  Latency rows
/// gate on p50 ns; throughput rows gate on ns/op (so a regression always
/// reads as a larger number); CPU-usage rows on seal-core busy ns per second;
/// Table 2 setup rows gate on ttfb ns.
pub fn bench_json(figs: &FunctionalFigures) -> String {
    let as_ns = |unit: &str, value: f64| match unit {
        "us" => value * 1e3,
        "%" => value * 1e7,
        _ => 1e9 / value.max(1e-9),
    };
    let mut entries: Vec<String> = Vec::new();
    for row in &figs.rows {
        entries.push(format!(
            concat!(
                "    {{\"name\": \"{figure}/{series}/{x}\", \"mean_ns\": {mean:.1}, ",
                "\"predicted_ns\": {pred:.1}, \"ops\": {ops}}}"
            ),
            figure = row.figure,
            series = row.series,
            x = row.x,
            mean = as_ns(&row.unit, row.measured),
            pred = as_ns(&row.unit, row.predicted),
            ops = row.ops,
        ));
    }
    for point in &figs.table2.setup {
        entries.push(format!(
            "    {{\"name\": \"table2/{}/{}/ttfb\", \"mean_ns\": {}}}",
            point.stack, point.mode, point.ttfb_ns
        ));
    }
    format!(
        "{{\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_smoke_rows_land_in_band() {
        let scale = FigScale::smoke();
        let keys = scenario_keys();
        let rows = fig6_functional(&scale, &keys);
        assert_eq!(
            rows.len(),
            StackKind::figure6_set().len() * scale.fig6_sizes.len()
        );
        assert_rows(&rows);
    }

    #[test]
    fn table2_functional_orders_modes() {
        let t2 = table2_functional();
        assert!(t2.ops.len() >= 14, "got {} op rows", t2.ops.len());
        // Every encrypted stack has all three modes; 8 stacks, 6 encrypted.
        assert_eq!(t2.setup.len(), 8 + 2 * 6);
    }

    #[test]
    fn predictor_orders_stacks_sanely() {
        let p = Predictor::new(LinkConfig::default());
        // Software sealing costs CPU: SMT-sw RTT ≥ SMT-hw RTT at every size.
        for size in [64usize, 4096, 65536] {
            let sw = p.rtt_ns(StackKind::SmtSw, size, size, 0, 0);
            let hw = p.rtt_ns(StackKind::SmtHw, size, size, 0, 0);
            assert!(sw >= hw, "{size}: sw {sw} < hw {hw}");
        }
        // Throughput saturates: more concurrency never predicts less.
        let lo = p.throughput_rps(StackKind::SmtSw, 1024, 1024, 0, 8);
        let hi = p.throughput_rps(StackKind::SmtSw, 1024, 1024, 0, 64);
        assert!(hi >= lo);
    }
}
