//! Runs the discrete-event scenario matrix — incast, all-to-all RPC mesh and
//! a Poisson load sweep over every evaluated stack — and emits
//! `BENCH_scenarios.json`.
//!
//! ```text
//! scenarios [--smoke] [--json] [--out <path>]
//! ```
//!
//! * `--smoke` — the CI subset: incast + one load point on SMT-sw and
//!   kTLS-sw only.
//! * `--json` — print the rows as JSON instead of a table.
//! * `--out <path>` — where to write the bench-diff-compatible report
//!   (default `BENCH_scenarios.json` in the current directory).
//!
//! The JSON uses the same `{"benchmarks": [...]}` shape as the criterion
//! shim: `mean_ns` is the p50 message latency, so
//! `bench_diff BENCH_scenarios.json <new> --max-regress P` gates scenario
//! latency regressions.  Simulation output is deterministic per seed — any
//! delta is a behavioural change, not machine noise.

use smt_bench::output::{maybe_json, print_table};
use smt_bench::scenarios::{scenario_matrix, ScenarioRow};

fn bench_json(rows: &[ScenarioRow]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        out.push_str(&format!(
            concat!(
                "    {{\"name\": \"{name}/{stack}\", \"mean_ns\": {mean:.1}, ",
                "\"p99_ns\": {p99:.1}, \"throughput_mib_per_sec\": {mib:.3}, ",
                "\"messages_sent\": {sent}, \"messages_delivered\": {delivered}, ",
                "\"retransmissions\": {retx}, \"timeouts_fired\": {timeouts}, ",
                "\"fabric_dropped\": {dropped}}}{comma}\n"
            ),
            name = row.scenario,
            stack = row.stack,
            mean = r.latency.p50_us * 1_000.0,
            p99 = r.latency.p99_us * 1_000.0,
            mib = r.goodput_gbps * 1e9 / 8.0 / (1024.0 * 1024.0),
            sent = r.messages_sent,
            delivered = r.messages_delivered,
            retx = r.endpoints.retransmissions,
            timeouts = r.endpoints.timeouts_fired,
            dropped = r.fabric.dropped(),
            comma = if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scenarios.json".to_string());

    let rows = scenario_matrix(smoke);

    if !maybe_json(&rows) {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                let r = &row.report;
                vec![
                    row.scenario.clone(),
                    row.stack.clone(),
                    r.messages_sent.to_string(),
                    r.messages_delivered.to_string(),
                    format!("{:.1}", r.latency.p50_us),
                    format!("{:.1}", r.latency.p99_us),
                    format!("{:.2}", r.goodput_gbps),
                    r.endpoints.retransmissions.to_string(),
                    r.endpoints.timeouts_fired.to_string(),
                    r.fabric.dropped().to_string(),
                ]
            })
            .collect();
        print_table(
            if smoke {
                "scenario matrix (smoke subset)"
            } else {
                "scenario matrix (all stacks)"
            },
            &[
                "scenario",
                "stack",
                "sent",
                "delivered",
                "p50(us)",
                "p99(us)",
                "goodput(Gb/s)",
                "retx",
                "timeouts",
                "dropped",
            ],
            &table,
        );
    }

    std::fs::write(&out_path, bench_json(&rows)).expect("write scenario report");
    eprintln!("wrote {out_path}");

    // Sanity: the harness must never lose messages (loss scenarios recover).
    for row in &rows {
        assert_eq!(
            row.report.messages_sent, row.report.messages_delivered,
            "{}/{} lost messages",
            row.scenario, row.stack
        );
    }
}
