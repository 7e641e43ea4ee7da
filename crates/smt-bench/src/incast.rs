//! The incast scenario family: deep N→1 bursts, mice-vs-elephants mixes and
//! a loaded-latency sweep on a leaf–spine fabric — the congestion-control
//! evaluation.
//!
//! Every case runs on a two-tier leaf–spine topology ([`Topology::LeafSpine`])
//! with ECN marking at the switch queues, and every `(scenario, stack)` cell
//! is measured once, under the congestion control every stack runs
//! (receiver-driven SRPT grants on the message stacks, DCTCP windowing plus
//! SACK selective retransmit on the stream stacks).  The `incast` binary
//! asserts what congestion control buys in-process, as absolute bounds on
//! the deep incast ([`deep_incast_violation`]).
//!
//! Sender CPU is charged per sealed record from the **measured** record-layer
//! numbers: [`measured_cost_model`] reads the committed
//! `BENCH_record_layer.json` and two-point-fits the per-record intercept and
//! per-byte slope, so protocol CPU shows up in loaded-scenario latency at
//! whatever the current record engine actually costs (falling back to
//! [`CostModel::calibrated`] when the file is absent, e.g. in a bare
//! checkout).

use smt_sim::net::{
    background_elephants, incast_scenario, poisson_pair_scenario, run_scenario, EcnConfig,
    FaultConfig, LeafSpineConfig, LinkConfig, Scenario, ScenarioReport, SizeMix, Topology,
};
use smt_sim::CostModel;
use smt_transport::{scenario_endpoints, StackKind};

use crate::scenarios::scenario_keys;

/// One `(scenario, stack)` cell of the incast matrix.
#[derive(Debug, Clone, serde::Serialize)]
pub struct IncastRow {
    /// Scenario name.
    pub scenario: String,
    /// Stack label (paper legend).
    pub stack: String,
    /// Message slowdown at the median: p50 completion over the run's best
    /// observed completion (the self-normalized unloaded reference).
    pub slowdown_p50: f64,
    /// Message slowdown at the 99th percentile.
    pub slowdown_p99: f64,
    /// p99 completion delta vs the stack's plaintext counterpart, in percent
    /// (`None` on the plaintext stacks themselves).
    pub vs_plaintext_p99_pct: Option<f64>,
    /// Everything measured.
    pub report: ScenarioReport,
}

/// The plaintext stack an encrypted stack is compared against for the
/// encrypted-vs-plaintext delta (`None` for the plaintext stacks).
fn plaintext_counterpart(stack: StackKind) -> Option<StackKind> {
    if !stack.is_encrypted() {
        return None;
    }
    Some(if stack.is_message_based() {
        StackKind::Homa
    } else {
        StackKind::Tcp
    })
}

/// Builds a [`CostModel`] whose software-crypto terms come from the
/// committed `BENCH_record_layer.json` (two-point linear fit over the 64 B
/// and 1024 B `seal_into` rows), falling back to the calibrated defaults
/// when the file or the rows are missing.
pub fn measured_cost_model() -> CostModel {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_record_layer.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return CostModel::calibrated();
    };
    let Ok(value) = serde_json::from_str(&text) else {
        return CostModel::calibrated();
    };
    let mean = |name: &str| -> Option<f64> {
        value
            .get("benchmarks")?
            .as_array()?
            .iter()
            .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))?
            .get("mean_ns")?
            .as_f64()
    };
    let (Some(small), Some(large)) = (
        mean("record_layer/seal_into/64"),
        mean("record_layer/seal_into/1024"),
    ) else {
        return CostModel::calibrated();
    };
    let ns_per_byte = ((large - small) / (1024.0 - 64.0)).max(0.0);
    let per_record_ns = (small - 64.0 * ns_per_byte).max(0.0).round() as u64;
    CostModel::calibrated().with_sw_crypto(per_record_ns, ns_per_byte)
}

/// The leaf–spine shape every incast case runs on.
fn fabric_shape(oversubscription: f64) -> Topology {
    Topology::LeafSpine(LeafSpineConfig {
        hosts_per_leaf: 16,
        spines: 4,
        oversubscription,
    })
}

/// Applies the shared fabric knobs: leaf–spine topology, switch-queue ECN
/// marking and the measured per-record CPU charge.
fn dress(mut s: Scenario, oversubscription: f64) -> Scenario {
    s.topology = fabric_shape(oversubscription);
    s.ecn = Some(EcnConfig::default());
    s.cpu = Some(measured_cost_model().cpu_charge());
    s
}

/// The deep incast: 128→1 on the full run, 32→1 in the smoke subset.
/// Scheduled packets overflow the 256-packet ingress buffer many times over
/// when every sender blasts unpaced, which is exactly what the grant
/// scheduler and the DCTCP window are there to prevent.  64 KB messages:
/// tens of packets each, so only the unscheduled prefix or the initial
/// window goes unpaced — the regime where receiver-driven grants and the ECN
/// window govern the queue rather than just cleaning up after the first-RTT
/// burst.
pub fn deep_incast(smoke: bool) -> Scenario {
    let senders = if smoke { 32 } else { 128 };
    let link = LinkConfig::default();
    let mut deep = incast_scenario(senders, 64 * 1024, 1, link, FaultConfig::none());
    deep.name = "deep-incast".into();
    dress(deep, 1.0)
}

/// The incast suite.  `smoke` keeps the same scenario names at reduced
/// scale, so the CI gate diffs against the committed full-scale baseline the
/// way the churn gate does (smoke latencies sit at or below it).
pub fn suite(smoke: bool) -> Vec<Scenario> {
    let link = LinkConfig::default();
    // Mice sharing the fabric with seeded background elephants over a 4:1
    // oversubscribed core: the mice's completion tail is what the priority
    // grants protect.
    let (mice, elephants) = if smoke { (8, 2) } else { (24, 6) };
    let mut mix = incast_scenario(mice, 2048, 2, link, FaultConfig::none());
    mix.name = "mice-elephants".into();
    background_elephants(&mut mix, elephants, 128 * 1024, 4, 50_000, 9);

    // Open-loop loaded latency at a medium arrival rate (the sweep's knee
    // point); the measured CPU charge makes software crypto visible here.
    let mut loaded = poisson_pair_scenario(
        200_000.0,
        2 * smt_sim::time::MILLISECOND,
        &SizeMix::rpc_medium(),
        11,
        link,
        FaultConfig::none(),
    );
    loaded.name = "loaded-200k".into();

    vec![deep_incast(smoke), dress(mix, 4.0), dress(loaded, 1.0)]
}

/// Runs one scenario on one stack.
pub fn run_cell(scenario: &Scenario, stack: StackKind) -> ScenarioReport {
    let keys = scenario_keys();
    let mut endpoints = scenario_endpoints(scenario, stack, &keys.0, &keys.1);
    run_scenario(scenario, &mut endpoints, |_, _, _, _| None)
}

/// Runs the matrix: every suite scenario on every stack (`smoke`: the
/// reduced suite on SMT-sw, kTLS-sw and their plaintext counterparts, which
/// the deltas need).
pub fn incast_matrix(smoke: bool) -> Vec<IncastRow> {
    let stacks: Vec<StackKind> = if smoke {
        vec![
            StackKind::Homa,
            StackKind::SmtSw,
            StackKind::Tcp,
            StackKind::KtlsSw,
        ]
    } else {
        StackKind::all().to_vec()
    };
    let mut rows = Vec::new();
    for scenario in suite(smoke) {
        for &stack in &stacks {
            let report = run_cell(&scenario, stack);
            let floor = report.latency.min_us.max(1e-3);
            rows.push(IncastRow {
                scenario: scenario.name.clone(),
                stack: stack.label().to_string(),
                slowdown_p50: report.latency.p50_us / floor,
                slowdown_p99: report.latency.p99_us / floor,
                vs_plaintext_p99_pct: None,
                report,
            });
        }
    }
    // Encrypted-vs-plaintext deltas within each scenario.
    let reference: Vec<(String, String, f64)> = rows
        .iter()
        .map(|r| (r.scenario.clone(), r.stack.clone(), r.report.latency.p99_us))
        .collect();
    for row in &mut rows {
        let Some(base) = StackKind::all()
            .into_iter()
            .find(|s| s.label() == row.stack)
            .and_then(plaintext_counterpart)
        else {
            continue;
        };
        if let Some((.., base_p99)) = reference
            .iter()
            .find(|(sc, st, _)| *sc == row.scenario && *st == base.label())
        {
            if *base_p99 > 0.0 {
                row.vs_plaintext_p99_pct =
                    Some((row.report.latency.p99_us / base_p99 - 1.0) * 100.0);
            }
        }
    }
    rows
}

/// Deep-incast p99 completion may reach this multiple of the burst's payload
/// drain time at the receiver's link rate.  Congestion-controlled rows read
/// 1.28–2.06; the go-back-N baseline on the message stacks read 2.95–10.6
/// (EXPERIMENTS.md, "The no-cc baseline, frozen").
pub const MAX_P99_OVER_DRAIN: f64 = 2.5;

/// Deep-incast retransmissions may reach this many per data packet of the
/// burst.  Congestion-controlled rows read 0.2–0.39 on the message stacks and
/// 1.15–3.8 on the stream stacks; the full-scale baseline read 24–44.
pub const MAX_RETX_PER_DATA_PACKET: u64 = 5;

/// Why a deep-incast run misses congestion control's absolute bounds, or
/// `None` when it meets them: every message delivered in a run that quiesced,
/// p99 within [`MAX_P99_OVER_DRAIN`] × the time the receiver's link needs to
/// drain the burst's payload, and at most [`MAX_RETX_PER_DATA_PACKET`]
/// retransmissions per data packet of the burst.  Both bounds are computed
/// from `scenario` and its [`LinkConfig`].
///
/// There is no bound on the peak receiver-ingress backlog: every deep-incast
/// row, with or without congestion control, reads 256 — the buffer itself —
/// so such a check could never fail.
pub fn deep_incast_violation(scenario: &Scenario, report: &ScenarioReport) -> Option<String> {
    if report.messages_delivered != report.messages_sent || report.truncated {
        return Some(format!(
            "delivered {} of {} messages (truncated: {})",
            report.messages_delivered, report.messages_sent, report.truncated
        ));
    }
    let link = scenario.link;
    let drain_ns = link.serialization_ns(scenario.offered_bytes() as usize) as f64;
    let p99_ns = report.latency.p99_us * 1000.0;
    if p99_ns > MAX_P99_OVER_DRAIN * drain_ns {
        return Some(format!(
            "p99 {p99_ns:.0} ns is {:.2} x the {drain_ns:.0} ns drain time (bound {MAX_P99_OVER_DRAIN})",
            p99_ns / drain_ns
        ));
    }
    let per_packet = smt_wire::max_payload_per_packet(link.mtu).max(1);
    let data_packets: u64 = scenario
        .sends
        .iter()
        .map(|s| s.size.div_ceil(per_packet).max(1) as u64)
        .sum();
    if report.retransmissions > MAX_RETX_PER_DATA_PACKET * data_packets {
        return Some(format!(
            "{} retransmissions for {data_packets} data packets (bound {MAX_RETX_PER_DATA_PACKET} each)",
            report.retransmissions
        ));
    }
    None
}

/// Asserts [`deep_incast_violation`] finds nothing on every row of `deep`.
pub fn assert_deep_incast_bounds(deep: &Scenario, rows: &[IncastRow]) {
    let mut checked = 0;
    for row in rows.iter().filter(|r| r.scenario == deep.name) {
        if let Some(why) = deep_incast_violation(deep, &row.report) {
            panic!("{}/{}: {why}", row.scenario, row.stack);
        }
        checked += 1;
    }
    assert!(checked > 0, "no {} rows to check", deep.name);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_cost_model_tracks_committed_bench_json() {
        let m = measured_cost_model();
        // The committed record-layer numbers sit in the same regime the
        // calibrated model was fit from; a parse failure would silently
        // return the fallback, so pin the measured values' plausibility.
        assert!(m.crypto_sw_per_record_ns > 50 && m.crypto_sw_per_record_ns < 1000);
        assert!(m.crypto_sw_ns_per_byte > 0.05 && m.crypto_sw_ns_per_byte < 2.0);
    }

    #[test]
    fn deep_incast_meets_absolute_bounds_on_a_message_and_a_stream_stack() {
        // The smoke suite's 32→1 fan-in.
        let deep = deep_incast(true);
        for stack in [StackKind::SmtSw, StackKind::KtlsSw] {
            let report = run_cell(&deep, stack);
            assert_eq!(deep_incast_violation(&deep, &report), None, "{stack:?}");
        }
    }

    #[test]
    fn the_deep_incast_checker_rejects_a_row_over_each_bound() {
        let mut deep = incast_scenario(4, 64 * 1024, 1, LinkConfig::default(), FaultConfig::none());
        deep.name = "deep-incast".into();
        let good = run_cell(&deep, StackKind::Homa);
        assert_eq!(deep_incast_violation(&deep, &good), None);
        // 4 × 64 KiB drains in 20 972 ns at 100 Gb/s, in 4 × 47 packets.
        let drain_us = 20.972;
        let packets = 4 * 47;

        let mut inside = good.clone();
        inside.latency.p99_us = MAX_P99_OVER_DRAIN * drain_us - 0.01;
        inside.retransmissions = MAX_RETX_PER_DATA_PACKET * packets;
        assert_eq!(deep_incast_violation(&deep, &inside), None);

        let mut lost = good.clone();
        lost.messages_delivered -= 1;
        let mut truncated = good.clone();
        truncated.truncated = true;
        let mut slow = good.clone();
        slow.latency.p99_us = MAX_P99_OVER_DRAIN * drain_us + 0.01;
        let mut retransmitting = good;
        retransmitting.retransmissions = MAX_RETX_PER_DATA_PACKET * packets + 1;
        for (label, row, why) in [
            ("lost", lost, "delivered 3 of 4"),
            ("truncated", truncated, "truncated: true"),
            ("slow", slow, "x the 20972 ns drain time"),
            ("retx", retransmitting, "941 retransmissions for 188"),
        ] {
            let verdict = deep_incast_violation(&deep, &row).unwrap_or_default();
            assert!(verdict.contains(why), "{label}: {verdict:?}");
        }
    }

    #[test]
    fn leaf_spine_run_marks_ecn_and_uses_spines() {
        let link = LinkConfig::default();
        let mut deep = incast_scenario(16, 64 * 1024, 1, link, FaultConfig::none());
        deep.name = "deep-incast".into();
        let deep = dress(deep, 1.0);
        let report = run_cell(&deep, StackKind::SmtSw);
        assert!(
            report.fabric.peak_ingress_backlog_packets > 0,
            "incast queued at the receiver: {report:?}"
        );
    }
}
