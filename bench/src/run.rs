//! One run of one workload: the timed run behind the end-to-end metrics, and
//! the traced run behind the per-layer ledger.
//!
//! End-to-end numbers come only from untraced windows.  The traced run times
//! an untraced reference window first, then a traced window of the same
//! length on fresh state — their ratio is the cost of tracing — and then
//! replays each layer's public functions alone.

use crate::layers::{self, ReplayInput};
use crate::report::{RunResult, Values, END_TO_END, PER_LAYER};
use crate::stats::{self, per};
use crate::trace::{self, Layer, Span, Tracer};
use crate::workloads::{self, Kind, Rig, Window, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-ups per timed run: at least five, then as many as fit in the budget;
/// `setup_s` is the fastest of them (other tenants of the box only ever slow
/// one down, and a 5 ms set-up is over before a stall ends).
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_S: f64 = 0.75;
/// Full spans are kept for this many ops (and at most this many spans);
/// per-name aggregates cover the rest.
const FULL_SPAN_OPS: u64 = 5_000;
const FULL_SPANS: usize = 100_000;
/// Where trace files and `results.json` go, relative to the repo root the
/// benchmark is run from.
pub const OUT_DIR: &str = "bench/out";

/// Connection lives or rounds a window holds at least: round 0 and round 1
/// must replay the same event sequence, so there are always two; a timed
/// window takes the median of at least three.
fn min_units(timed: bool) -> u64 {
    if timed {
        3
    } else {
        2
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kb / 1024.0
}

fn report_violations(window: &Window) {
    for v in &window.violations {
        eprintln!("  incorrect: {v}");
    }
}

/// `--trace 0`: set-up and warm-up (several times, for a steady `setup_s`),
/// then one untraced window of `seconds`.
pub fn run_timed(workload: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut rig = None;
    let first = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && first.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(rig.take());
        let begin = Instant::now();
        rig = Some(workloads::set_up(workload, seed, false)?);
        setups.push(begin.elapsed().as_secs_f64());
    }
    let mut rig: Rig = rig.expect("at least one set-up");
    let window = workloads::run_window::<false>(&mut rig, seconds, min_units(true));
    let rss = peak_rss_mb();
    report_violations(&window);

    let mut metrics = Values::new(&END_TO_END);
    metrics.set("setup_s", stats::percentile_of(&mut setups, 0.0));
    metrics.set("ops_per_s", window.ops_per_s());
    metrics.set("app_mb_per_s", window.app_mb_per_s());
    metrics.set("host_p50_ns", window.host_p50_ns());
    metrics.set("peak_rss_mb", rss);
    println!(
        "  timed window: {:.3} s host time, {} ops ({} completion gaps, {} slices), tracing off",
        window.elapsed_s,
        window.ok,
        window.gaps.len(),
        window.slices.len()
    );
    Ok(RunResult {
        correct: window.ok == window.attempted && window.violations.is_empty(),
        attempted: window.attempted,
        failed: window.attempted - window.ok,
        metrics,
    })
}

/// `--trace 1`: an untraced reference window and a traced window of
/// `seconds / 2` each, then the isolated replays; writes the trace file.
pub fn run_traced(workload: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let half = seconds / 2.0;
    let rounds = min_units(false);
    let mut reference = {
        let mut rig = workloads::set_up(workload, seed, false)?;
        workloads::run_window::<false>(&mut rig, half, rounds)
    };
    report_violations(&reference);

    let mut rig = workloads::set_up(workload, seed, true)?;
    trace::install(Tracer::new(FULL_SPAN_OPS, FULL_SPANS));
    let traced = trace::span(Span::Window, || {
        workloads::run_window::<true>(&mut rig, half, rounds)
    });
    let in_situ = trace::take();
    report_violations(&traced);
    drop(rig);

    trace::install(Tracer::new(0, 0));
    let (replays, facts) = layers::replay_all(
        &ReplayInput {
            stack: workload.stack(),
            op_messages: &workload.op_messages(),
            handshakes: matches!(workload.kind, Kind::Churn),
            kv: matches!(
                workload.kind,
                Kind::Round {
                    kind: layers::RoundKind::LossyKv,
                    ..
                }
            ),
            leaf_spine: matches!(
                workload.kind,
                Kind::Round {
                    kind: layers::RoundKind::Incast,
                    ..
                }
            ),
            queue_depth: (per(traced.counters.fabric_offered as f64, traced.ok as f64)
                * workload.outstanding() as f64)
                .clamp(1.0, 65_536.0) as usize,
            seed,
        },
        &layers::establish_keys(),
    );
    let replayed = trace::take();

    let cost = trace::measure_span_cost();
    let ops = traced.ok as f64;
    let root = in_situ.of(Span::Window);
    let per_op = |s: Span| per(in_situ.total_ns(s, &cost), ops);
    let layer_ns = |l: Layer| in_situ.layer_self_ns(l, &cost);
    let unit_ns = |s: Span| replays.ns_per_unit(&replayed, s, &cost);
    let c = &traced.counters;
    let p50 = reference.host_p50_ns();
    // Host time per op of the untraced reference window: what a layer's
    // replayed time per op is a share of.
    let op_ns = per(1e9, reference.ops_per_s());

    let mut m = Values::new(&PER_LAYER);
    m.set("sim_rpc_p50_ns", traced.sim.p50_ns);
    m.set("sim_rpc_p99_ns", traced.sim.p99_ns);
    m.set("sim_goodput_gbps", traced.sim.goodput_gbps);
    m.set("wire_amp", traced.sim.wire_amp);
    let attempted = reference.attempted + traced.attempted;
    let failed = attempted - reference.ok - traced.ok;
    m.set("failed_ratio", per(failed as f64, attempted as f64));

    m.set("transport.send_ns", per_op(Span::Send));
    m.set("transport.handle_datagram_ns", per_op(Span::HandleDatagram));
    m.set("transport.poll_transmit_ns", per_op(Span::PollTransmit));
    m.set("transport.poll_event_ns", per_op(Span::PollEvent));
    m.set("transport.on_timeout_ns", per_op(Span::OnTimeout));
    // Counted in situ, timed in the replay: calls x replayed time per call,
    // moved from the drive loops' self time (where it was spent) to transport.
    let next_timeout_ns = in_situ.of(Span::NextTimeout).count as f64 * unit_ns(Span::NextTimeout);
    m.set("transport.next_timeout_ns", per(next_timeout_ns, ops));
    m.set("transport.stats_ns", per_op(Span::Stats));
    m.set("transport.connect_build_ns", per_op(Span::ConnectBuild));
    m.set("transport.listener_drive_ns", per_op(Span::ListenerDrive));
    m.set("transport.listener_close_ns", per_op(Span::ListenerClose));
    m.set(
        "transport.calls_per_op",
        per(in_situ.layer_calls(Layer::Transport) as f64, ops),
    );
    m.set("apps.on_request_ns", per_op(Span::OnRequest));
    m.set("apps.on_reply_ns", per_op(Span::OnReply));
    m.set("apps.build_ns", per_op(Span::AppBuild));
    let moved_ns = next_timeout_ns.min(layer_ns(Layer::Sim));
    let sim_ns = layer_ns(Layer::Sim) - moved_ns;
    m.set("sim.self_ns", per(sim_ns, ops));
    m.set("sim.self_ns_per_event", per(sim_ns, c.events as f64));
    m.set(
        "sim.events_per_s",
        per(c.events as f64, root.total_ns as f64 / 1e9),
    );
    // Self times under the root span add up to its duration, so the four
    // layers partition the traced window's host time (less what recording
    // the spans cost).
    let layers_ns = [
        layer_ns(Layer::Driver),
        layer_ns(Layer::Transport) + moved_ns,
        layer_ns(Layer::Apps),
        sim_ns,
    ];
    let [driver, transport, apps, sim] = stats::shares(layers_ns);
    m.set("driver.share", driver);
    m.set("transport.share", transport);
    m.set("apps.share", apps);
    m.set("sim.share", sim);

    m.set("transport.retx_per_op", per(c.retransmissions as f64, ops));
    m.set(
        "transport.timeouts_per_op",
        per(c.timeouts_fired as f64, ops),
    );
    m.set(
        "transport.dup_rejected_per_op",
        per(c.replays_rejected as f64, ops),
    );
    m.set(
        "transport.records_per_op",
        per(c.records_sealed as f64, ops),
    );
    m.set(
        "transport.peak_tracked_kb",
        c.peak_tracked_bytes as f64 / 1024.0,
    );
    m.set("cc.srtt_ns_end", c.srtt_ns as f64);
    m.set("cc.ecn_marks_per_op", per(c.ecn_marks_seen as f64, ops));
    m.set("cc.cwnd_kb_end", c.cwnd_bytes as f64 / 1024.0);
    m.set("sim.fabric.drops_per_op", per(c.fabric_dropped as f64, ops));
    m.set(
        "sim.fabric.ecn_marks_per_op",
        per(c.fabric_ecn_marked as f64, ops),
    );
    m.set("sim.fabric.peak_ingress_pkts", c.fabric_peak_ingress as f64);
    m.set("driver.events_per_op", per(c.events as f64, ops));
    m.set("driver.pkts_per_op", per(c.fabric_offered as f64, ops));

    let ref_ops = reference.ok as f64;
    m.set(
        "driver.allocs_per_op",
        per(reference.allocs.calls as f64, ref_ops),
    );
    m.set(
        "driver.alloc_bytes_per_op",
        per(reference.allocs.bytes as f64, ref_ops),
    );
    m.set("driver.live_kb_end", reference.live_delta as f64 / 1024.0);
    m.set("driver.host_p90_ns", reference.gaps.percentile(0.90) as f64);
    m.set("driver.host_p99_ns", reference.gaps.percentile(0.99) as f64);
    m.set(
        "trace.overhead_ratio",
        per(traced.ops_per_s(), reference.ops_per_s()),
    );
    m.set("trace.span_cost_ns", cost.inside_ns + cost.outside_ns);

    let record_ns = unit_ns(Span::RecordSeal) + unit_ns(Span::RecordOpen);
    m.set("crypto.record.seal_ns", unit_ns(Span::RecordSeal));
    m.set("crypto.record.open_ns", unit_ns(Span::RecordOpen));
    m.set(
        "crypto.record.seal_ns_per_byte",
        (unit_ns(Span::RecordSeal16k) - unit_ns(Span::RecordSeal64)) / (16.0 * 1024.0 - 64.0),
    );
    m.set("crypto.record.share", per(record_ns, op_ns));
    m.set("core.segment_ns", unit_ns(Span::Segment));
    m.set("core.segment_seal_ns", unit_ns(Span::SegmentSeal));
    m.set("core.reassembly_ns", unit_ns(Span::Reassembly));
    m.set("core.reassembly_open_ns", unit_ns(Span::ReassemblyOpen));
    m.set("core.ktls.send_ns", unit_ns(Span::KtlsSend));
    m.set("core.ktls.recv_ns", unit_ns(Span::KtlsRecv));
    // Only the workload's own backend was replayed; the other reads zero.
    let core_ns = unit_ns(Span::SegmentSeal)
        + unit_ns(Span::ReassemblyOpen)
        + unit_ns(Span::KtlsSend)
        + unit_ns(Span::KtlsRecv);
    m.set("core.share", per(core_ns, op_ns));
    let early = unit_ns(Span::HomaEarly);
    m.set("transport.homa.op_ns", unit_ns(Span::HomaOp));
    m.set("transport.homa.msg_ns_h100", early);
    m.set("transport.homa.msg_ns_h10k", unit_ns(Span::HomaLate));
    m.set(
        "transport.homa.history_slope",
        per(unit_ns(Span::HomaLate), early),
    );
    m.set(
        "transport.homa.pending_after_10k",
        facts.homa_pending_after_10k as f64,
    );
    // The bare backend (keyed message backend, or the kTLS record framing)
    // already contains core and crypto.record; what is left of the in-situ
    // transport time is the endpoint wrapper chain's own.
    let bare_backend_ns = unit_ns(Span::HomaOp) + unit_ns(Span::KtlsSend) + unit_ns(Span::KtlsRecv);
    m.set(
        "transport.shell_residual_ns",
        per(layer_ns(Layer::Transport) + moved_ns, ops) - bare_backend_ns,
    );
    let handshakes = [
        unit_ns(Span::HandshakeCold),
        unit_ns(Span::HandshakeResumed),
        unit_ns(Span::HandshakeDerived),
    ];
    m.set("crypto.handshake.cold_us", handshakes[0] / 1e3);
    m.set("crypto.handshake.resumed_us", handshakes[1] / 1e3);
    m.set("crypto.handshake.derived_us", handshakes[2] / 1e3);
    // A wave is one third of each mode.
    m.set(
        "crypto.handshake.share",
        per(handshakes.iter().sum::<f64>() / 3.0, op_ns),
    );
    m.set("sim.fabric.ns_per_pkt", unit_ns(Span::FabricPkts));
    m.set("sim.eventq.ns_per_event", unit_ns(Span::EventQueue));
    m.set("apps.kv.codec_ns", unit_ns(Span::KvCodec));
    m.set("apps.kv.store_ns", unit_ns(Span::KvStore));
    m.set("wire.encode_ns_per_pkt", unit_ns(Span::WireEncode));
    m.set("wire.decode_ns_per_pkt", unit_ns(Span::WireDecode));
    m.set("wire.hdr_bytes_per_pkt", facts.hdr_bytes_per_pkt);
    m.set("trace.ops", ops);
    m.set("trace.reference_ops_per_s", reference.ops_per_s());
    m.set("trace.reference_host_p50_ns", p50);

    println!(
        "  reference window: {:.3} s host time, {} ops, tracing off; traced window: {:.3} s, {} ops, {} spans kept in full",
        reference.elapsed_s,
        reference.ok,
        traced.elapsed_s,
        traced.ok,
        in_situ.spans.len()
    );
    let result = RunResult {
        correct: failed == 0 && reference.violations.is_empty() && traced.violations.is_empty(),
        attempted,
        failed,
        metrics: m,
    };
    write_trace_file(
        workload, seed, &in_situ, &replayed, &replays, &cost, &result,
    )?;
    Ok(result)
}

/// Writes `bench/out/trace-<workload>.json`: the full spans of the first ops
/// (one row each: name index, start, end, parent row, op), the per-name
/// aggregates of every span of the traced window and of the replays, and the
/// metrics and counters sampled at the same boundaries.
fn write_trace_file(
    workload: &Workload,
    seed: u64,
    in_situ: &Tracer,
    replayed: &Tracer,
    replays: &layers::Replays,
    cost: &trace::SpanCost,
    result: &RunResult,
) -> Result<(), String> {
    let mut out = String::with_capacity(64 + in_situ.spans.len() * 40);
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"clock\": \"host time, ns since the traced window opened\",\n\"span_cost_ns\": {{\"inside\": {}, \"outside\": {}, \"count\": {}}},\n\"names\": [",
        workload.name, cost.inside_ns, cost.outside_ns, cost.count_ns
    );
    for (i, s) in Span::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{{\"name\": \"{}\", \"layer\": \"{}\"}}",
            s.name(),
            s.layer().name()
        );
    }
    out.push_str("],\n\"span_columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"spans\": [");
    for (i, s) in in_situ.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let parent = s.parent.map_or(-1, i64::from);
        let _ = write!(
            out,
            "{sep}\n[{},{},{},{parent},{}]",
            s.span as u8, s.start_ns, s.end_ns, s.op
        );
    }
    out.push_str("],\n");
    for (key, tracer, units) in [
        ("aggregates", in_situ, None),
        ("replay_aggregates", replayed, Some(replays)),
    ] {
        let _ = write!(out, "\"{key}\": [");
        let mut first = true;
        for &s in Span::ALL {
            let a = tracer.of(s);
            if a.count == 0 {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                out,
                "{sep}\n{{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}",
                s.name(),
                a.count,
                a.total_ns,
                a.self_ns
            );
            if let Some(r) = units {
                let _ = write!(out, ", \"ns_per_unit\": {}", r.ns_per_unit(tracer, s, cost));
            }
            out.push('}');
        }
        out.push_str("],\n");
    }
    let _ = writeln!(out, "\"result\": {}}}", result.json_line());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}.json", workload.name);
    std::fs::write(&path, out).map_err(|e| format!("write {path}: {e}"))?;
    println!("  trace written to {path}");
    Ok(())
}
