//! Figure-parity tier: the functional Fig. 6–11 and CPU-usage pipeline (real
//! apps over the real datapath on the simulated fabric) must land inside the
//! `Predictor` cross-check bands at smoke scale, every one of the eight
//! stacks must obey the same unloaded-RTT prediction, and a scenario's
//! `trace_hash` must be bit-identical for a given fault seed — the property
//! the bench-diff CI gate stands on.

use proptest::prelude::*;
use smt::apps::RpcApp;
use smt::crypto::cert::CertificateAuthority;
use smt::crypto::handshake::{establish, ClientConfig, ServerConfig, SessionKeys};
use smt::sim::net::{run_scenario_app, FaultConfig, FlowSpec, Scenario, ScheduledSend};
use smt::sim::{CostModel, Nanos};
use smt::transport::{drive_pair, scenario_endpoints, PairFabric, SecureEndpoint, StackKind};
use smt_bench::functional::{
    fig10_functional, fig11_functional, fig6_functional, fig7_functional, fig8_functional,
    fig9_functional, figure_endpoints, FigRow, FigScale, Predictor,
};

fn handshake() -> (SessionKeys, SessionKeys) {
    let ca = CertificateAuthority::new("figures-ca");
    let id = ca.issue_identity("server");
    establish(
        ClientConfig::new(ca.verifying_key(), "server"),
        ServerConfig::new(id, ca.verifying_key()),
    )
    .unwrap()
}

/// One echo flow with `concurrency` closed-loop operations in flight and the
/// calibrated CPU charge — the same shape the functional figure pipeline
/// drives internally.
fn echo_scenario(concurrency: usize, size: usize, faults: FaultConfig) -> Scenario {
    let mut scenario = Scenario::new("figures-test", 2);
    scenario.flows.push(FlowSpec {
        src_host: 0,
        dst_host: 1,
    });
    scenario.link.buffer_packets = 4096;
    scenario.faults = faults;
    for i in 0..concurrency {
        scenario.sends.push(ScheduledSend {
            at: i as Nanos * 100,
            flow: 0,
            size,
        });
    }
    scenario.cpu = Some(CostModel::calibrated().cpu_charge());
    scenario.sort_sends();
    scenario
}

/// Figs. 6, 9, 10 and 11 at smoke scale: every functional row inside its
/// Predictor band (the row's `check()` panics with the offending figure
/// otherwise).
#[test]
fn fig6_and_fig9_rows_land_in_analytic_bands() {
    let keys = handshake();
    let scale = FigScale::smoke();
    let rows: Vec<FigRow> = [
        fig6_functional(&scale, &keys),
        fig9_functional(&scale, &keys),
        fig10_functional(&scale, &keys),
        fig11_functional(&scale, &keys),
    ]
    .concat();
    for figure in ["fig10", "fig11"] {
        assert_eq!(
            rows.iter().filter(|r| r.figure == figure).count(),
            scale.fig6_sizes.len(),
            "{figure}"
        );
    }
    for row in rows {
        row.check();
    }
}

/// Fig. 11's ablation really is one: with `.tso(false)` the SMT-hw sender
/// hands the NIC one segment per packet, so the row cannot silently measure
/// TSO twice.
#[test]
fn tso_off_hands_the_nic_one_segment_per_packet() {
    let keys = handshake();
    for tso in [true, false] {
        let (mut client, mut server) = figure_endpoints(StackKind::SmtHw, tso, &keys);
        client.send(&[7u8; 8192], 0).unwrap();
        drive_pair(
            &mut client,
            &mut server,
            &mut PairFabric::reliable(),
            1_000_000,
        );
        let nic = client.nic_stats();
        assert!(nic.packets > 1, "tso={tso}: {nic:?}");
        assert_eq!(nic.segments == nic.packets, !tso, "tso={tso}: {nic:?}");
    }
}

/// Figs. 7 and 8 and the CPU-usage rows read from Fig. 7's runs, at a
/// reduced smoke scale (these are the loaded sweeps, so the test tier trims
/// the op counts the CI `figures --smoke` run uses).
#[test]
fn fig7_and_fig8_rows_land_in_analytic_bands() {
    let keys = handshake();
    let scale = FigScale {
        fig7_ops: 200,
        fig8_ops: 150,
        fig8_records: 1_000,
        ..FigScale::smoke()
    };
    let fig7 = fig7_functional(&scale, &keys);
    // One busy-fraction row per host-sealing stack (kTLS-sw, SMT-sw).
    assert_eq!(fig7.iter().filter(|r| r.figure == "cpu").count(), 2);
    for row in fig7 {
        row.check();
    }
    for row in fig8_functional(&scale, &keys) {
        row.check();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// All eight stacks (the figure sets cover six or seven) obey the same
    /// unloaded-RTT prediction on the real datapath: one echo RPC
    /// in flight, measured p50 within the Fig. 6 tolerance band.
    #[test]
    fn all_eight_stacks_match_unloaded_rtt_prediction(
        size in 64usize..4096,
    ) {
        let keys = handshake();
        let ops = 20u64;
        for stack in StackKind::all() {
            let scenario = echo_scenario(1, size, FaultConfig::none());
            let predictor = Predictor::new(scenario.link);
            let mut app = RpcApp::new(1, size, size, ops - 1);
            let mut endpoints = scenario_endpoints(&scenario, stack, &keys.0, &keys.1);
            let report = run_scenario_app(&scenario, &mut endpoints, &mut app);
            prop_assert_eq!(report.replies_delivered, ops, "{} stalled", stack.label());
            let row = FigRow {
                figure: "fig6-all".into(),
                series: stack.label().into(),
                x: size.to_string(),
                measured: report.rpc_latency.p50_us,
                predicted: predictor.rtt_ns(stack, size, size, 0, 0) / 1e3,
                tol_rel: 0.35,
                tol_abs: 6.0,
                unit: "us".into(),
                ops: report.replies_delivered,
            };
            prop_assert!(
                row.within_band(),
                "{}: measured {:.2}us outside Predictor band {:.2} ± {:.2}us",
                stack.label(), row.measured, row.predicted, row.band()
            );
        }
    }

    /// The figure pipeline is reproducible: for a given fault seed the
    /// scenario trace hash is bit-identical across runs, and a different
    /// seed perturbs the trace.  This is what lets CI gate the committed
    /// `BENCH_figures.json` with `bench_diff` — same inputs, same figures.
    #[test]
    fn trace_hash_is_bit_identical_per_seed(seed in any::<u64>()) {
        let keys = handshake();
        let faults = FaultConfig {
            reorder: 0.5,
            ..FaultConfig::lossy(0.25, seed)
        };
        let run = |faults: FaultConfig| {
            let scenario = echo_scenario(8, 1024, faults);
            let mut app = RpcApp::new(1, 1024, 1024, 40);
            let mut endpoints =
                scenario_endpoints(&scenario, StackKind::SmtSw, &keys.0, &keys.1);
            run_scenario_app(&scenario, &mut endpoints, &mut app)
        };
        let a = run(faults);
        let b = run(faults);
        prop_assert_eq!(a.trace_hash, b.trace_hash, "same seed must replay bit-identically");
        prop_assert_eq!(a.duration_ns, b.duration_ns);
        prop_assert_eq!(a.replies_delivered, b.replies_delivered);

        let other = FaultConfig {
            seed: seed.wrapping_add(1),
            ..faults
        };
        let c = run(other);
        prop_assert_ne!(
            a.trace_hash, c.trace_hash,
            "a different fault seed must perturb the trace"
        );
    }
}
