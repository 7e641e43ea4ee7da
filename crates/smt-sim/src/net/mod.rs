//! # `smt_sim::net` — the discrete-event network harness
//!
//! The paper evaluates SMT against kTLS/TLS/TCPLS under load sweeps,
//! message-size mixes, loss and incast — scenarios a lossless two-endpoint
//! drive loop cannot express.  This module family is the scenario machine
//! (DESIGN.md §4):
//!
//! * [`event`] — the deterministic core: a virtual [`Clock`], a binary-heap
//!   [`EventQueue`] ordered by `(time, sequence)`, and the [`TraceHash`]
//!   digest the determinism tests compare;
//! * [`fabric`] — a multi-host big-switch fabric of queued links (bandwidth,
//!   propagation, finite tail-drop buffers) with one seeded [`FaultyLink`]
//!   fault model (loss / reordering / duplication) shared with the
//!   conformance tests;
//! * [`adversary`] — a seeded hostile-network model on top of the fault
//!   model: records flights and injects forged replays, corrupted/truncated
//!   copies, coalescing-attack splices and garbage floods, plus an in-path
//!   stall window (the chaos suite's substrate);
//! * [`workload`] — open-loop generators: Poisson arrivals over the paper's
//!   message-size mixes, N→1 incast, all-to-all mesh;
//! * [`scenario`] — the [`SimEndpoint`] hosting contract, the [`Scenario`]
//!   description and the [`run_scenario`] event loop producing a
//!   [`ScenarioReport`] ([`LatencySummary`] percentiles, goodput, retransmit
//!   counts, trace hash).
//!
//! The protocol engines are *hosted*, not simulated: `smt-transport`
//! implements [`SimEndpoint`] for its unified `Endpoint`, so every evaluated
//! stack runs its real code over these modeled links, with only time being
//! virtual.

pub mod adversary;
pub mod event;
pub mod fabric;
pub mod scenario;
pub mod workload;

pub use adversary::{Adversary, AdversaryConfig, AdversaryStats};
pub use event::{Clock, EventQueue, TraceHash};
pub use fabric::{
    Admission, EcnConfig, Fabric, FabricStats, FaultConfig, FaultStats, FaultyLink, HostId,
    LeafSpineConfig, LinkConfig, PortId, Topology,
};
pub use scenario::{
    run_scenario, run_scenario_app, AppReply, CpuCharge, FlowSpec, LatencySummary, Scenario,
    ScenarioApp, ScenarioReport, ScheduledSend, SimEndpoint, SimEndpointStats,
};
pub use workload::{
    all_to_all_scenario, background_elephants, incast_scenario, poisson_flow,
    poisson_pair_scenario, SizeMix,
};
