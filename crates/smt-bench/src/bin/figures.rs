//! Regenerates every figure and table of the paper's evaluation: the
//! functional pipeline (Figs. 6–11, CPU usage and Table 2's setup comparison
//! on the real datapath), which it writes to `BENCH_figures.json`, plus
//! Fig. 5, the Table 2 per-operation breakdown and Fig. 12, which it only
//! prints (they are static or wall-clock rows, not virtual-time ones).
//!
//! ```text
//! figures [--smoke] [--json] [--out <path>]
//! ```
//!
//! * `--smoke` — the CI subset: every figure exercised end to end at small
//!   scale.
//! * `--json` — print the rows as JSON instead of tables.
//! * `--out <path>` — where to write the bench-diff-compatible report
//!   (default `BENCH_figures.json` in the current directory).
//!
//! Every functional row is asserted in process against its Predictor band
//! before anything is written; the emitted JSON gates regressions in CI via
//! `bench_diff --max-regress`, like the scenario matrix.

use smt_bench::figures::{
    fig12_key_exchange, fig5_seqno_tradeoff, table2_handshake_breakdown, SeriesPoint,
};
use smt_bench::functional::{
    bench_json, fig_table, run_figures, FunctionalFigures, FIG_TABLE_HEADER,
};
use smt_bench::output::{f2, maybe_json, print_table};

/// Everything `--json` prints.
#[derive(serde::Serialize)]
struct Report {
    functional: FunctionalFigures,
    fig5: Vec<(u32, u32, u128, u128)>,
    table2_breakdown: Vec<(String, String, f64)>,
    fig12: Vec<SeriesPoint>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_figures.json".to_string());

    // `run_figures` asserts every cross-check band internally.
    let report = Report {
        functional: run_figures(smoke),
        fig5: fig5_seqno_tradeoff(),
        table2_breakdown: table2_handshake_breakdown(50),
        fig12: fig12_key_exchange(10),
    };

    let figs = &report.functional;
    if !maybe_json(&report) {
        print_table(
            if smoke {
                "functional figures (smoke scale)"
            } else {
                "functional figures (full scale)"
            },
            &FIG_TABLE_HEADER,
            &fig_table(&figs.rows),
        );

        let t2: Vec<Vec<String>> = figs
            .table2
            .ops
            .iter()
            .map(|(label, desc, us)| vec![label.clone(), desc.clone(), format!("{us:.1}")])
            .collect();
        print_table(
            "Table 2 (functional, in-band SMT-sw cold handshake)",
            &["op", "description", "us"],
            &t2,
        );

        let setup: Vec<Vec<String>> = figs
            .table2
            .setup
            .iter()
            .map(|p| {
                vec![
                    p.stack.clone(),
                    p.mode.to_string(),
                    format!("{:.1}", p.ttfb_ns as f64 / 1e3),
                    format!("{:.1}", p.hs_rtt_ns as f64 / 1e3),
                    format!("{:.1}", p.crypto_us),
                    p.resumed.to_string(),
                ]
            })
            .collect();
        print_table(
            "connection setup (in-band, cold vs resumed vs derived)",
            &[
                "stack",
                "mode",
                "ttfb(us)",
                "hs-rtt(us)",
                "crypto(us)",
                "resumed",
            ],
            &setup,
        );

        let fig5: Vec<Vec<String>> = report
            .fig5
            .iter()
            .map(|(idx_bits, id_bits, max_msgs, max_size)| {
                vec![
                    idx_bits.to_string(),
                    id_bits.to_string(),
                    format!("{:.1}P", *max_msgs as f64 / 1e15),
                    format!("{:.1} MB", *max_size as f64 / 1e6),
                ]
            })
            .collect();
        print_table(
            "Fig. 5: message-size bits vs message-ID bits",
            &[
                "size bits",
                "ID bits",
                "max messages",
                "max msg size (1.5KB rec)",
            ],
            &fig5,
        );

        let breakdown: Vec<Vec<String>> = report
            .table2_breakdown
            .iter()
            .map(|(id, op, us)| vec![id.clone(), op.clone(), f2(*us)])
            .collect();
        print_table(
            "Table 2: handshake per-operation latency (ECDSA-P256, 50 handshakes, wall clock)",
            &["ID", "Operation", "Overhead (us)"],
            &breakdown,
        );

        let fig12: Vec<Vec<String>> = report
            .fig12
            .iter()
            .map(|p| vec![p.series.clone(), p.x.clone(), f2(p.y)])
            .collect();
        print_table(
            "Fig. 12: key exchange latency (us, crypto wall clock + predicted RTTs)",
            &["variant", "RPC size (B)", "latency (us)"],
            &fig12,
        );
    }

    std::fs::write(&out_path, bench_json(figs)).expect("write figures report");
    eprintln!("wrote {out_path}");
}
