//! # smt-bench — experiment harness for every table and figure
//!
//! Every figure has one producing path.  [`functional`] measures Figs. 6–11,
//! the §5.2 CPU usage and Table 2's setup comparison by running the real
//! applications through the endpoint API over the simulated fabric, and
//! checks each row against its `Predictor` band; [`figures`] holds the
//! static Fig. 5 table and the wall-clock Table 2 / Fig. 12 handshake
//! timings.  The `figures` binary prints all of them (text or `--json`) and
//! writes the virtual-time rows to `BENCH_figures.json`; the other binaries
//! in `src/bin/` run the scenario, incast, churn, chaos and setup-latency
//! suites.  The criterion benches in `benches/` micro-benchmark the real
//! crypto and record-layer hot paths.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod churn;
pub mod figures;
pub mod functional;
pub mod incast;
pub mod output;
pub mod scenarios;
pub mod setup_latency;

pub use figures::*;
pub use output::print_table;
