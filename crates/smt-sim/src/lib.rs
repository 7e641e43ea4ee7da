//! # smt-sim — simulated datacenter host/NIC/link substrate
//!
//! The paper evaluates SMT on two Xeon servers connected back-to-back with
//! ConnectX-7 100 Gb/s NICs running a patched Linux kernel.  That testbed is not
//! available to this reproduction, so this crate provides the substitute
//! substrate (see DESIGN.md §1):
//!
//! * [`cost`] — the **measured software-crypto cost** a host pays to seal a
//!   record (per record and per byte), from which the scenario runner's
//!   [`net::CpuCharge`] is built;
//! * [`nic`] — a packet-level **NIC model** implementing TSO (header replication +
//!   IPID increment) and **TLS autonomous offload** semantics: per-queue flow
//!   contexts with self-incrementing record sequence numbers and resync
//!   descriptors; out-of-sequence segments without a resync produce corrupted
//!   records exactly as in paper Fig. 2;
//! * [`net`] — the **discrete-event network harness**: a virtual clock and
//!   deterministic event queue, a multi-host fabric of queued links with
//!   finite tail-drop buffers and seeded loss/reorder/duplication injection,
//!   open-loop workload generators (Poisson arrivals, incast, all-to-all
//!   mesh), and a scenario runner that hosts the *real* protocol engines in
//!   simulated time and reports latency percentiles / goodput / retransmits.
//!
//! The protocol engines themselves (`smt-core`, `smt-crypto`) are *not*
//! simulated — they run for real; only time is.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod net;
pub mod nic;
pub mod time;

pub use cost::CostModel;
pub use net::{
    run_scenario, run_scenario_app, AppReply, EcnConfig, Fabric, FabricStats, FaultConfig,
    FaultyLink, LatencySummary, LeafSpineConfig, LinkConfig, Scenario, ScenarioApp, ScenarioReport,
    SimEndpoint, SimEndpointStats, Topology,
};
pub use nic::{NicModel, NicStats};
pub use time::Nanos;
