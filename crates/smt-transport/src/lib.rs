//! # smt-transport — transports over the simulated substrate
//!
//! Four layers live here:
//!
//! * [`endpoint`] — the **unified event-driven endpoint API**: a
//!   [`SecureEndpoint`] trait (send / handle_datagram / poll_transmit /
//!   poll_event) and one [`Endpoint`] type for every evaluated
//!   [`StackKind`] — a connection shell (in-band handshake, pre-handshake
//!   send queue, retransmission timer, statistics, event queue) around one
//!   of two reliability engines, message-based or stream-based.  This is the
//!   only surface applications, examples, benches and integration tests
//!   drive stacks through.
//!
//! * [`stack`] / [`profile`] — the **stack profiles** used by the evaluation
//!   harness: for each transport the paper compares (TCP, kTLS-sw, kTLS-hw,
//!   Homa, SMT-sw, SMT-hw, TCPLS), a profile derives the per-RPC byte / packet /
//!   record / segment counts from the real protocol engines (`smt-core`) and
//!   converts them into the per-stage costs the pipeline simulator consumes.
//!   This is where the structural differences live: which stack pays software
//!   AEAD and where, which can use TSO and TLS offload, which suffers 5-tuple
//!   core affinity, and which is throttled by the single Homa pacer thread.
//!
//! * [`homa`] — a packet-level, receiver-driven message transport (unscheduled
//!   data + GRANTs + RESENDs, paper §2.2) running the real SMT engine over the
//!   NIC model.  It is the message reliability engine of [`Endpoint`];
//!   consumers reach it through the [`endpoint`] layer.
//!
//! * [`cc`] — the **congestion-control subsystem** both reliability engines
//!   share: receiver-driven SRPT grant scheduling for the message stacks,
//!   DCTCP-style ECN windowing with SACK-based selective retransmit for the
//!   stream stacks, and the RFC 6298 RTT estimator that disciplines every
//!   retransmission timer.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cc;
pub mod endpoint;
pub mod homa;
pub mod profile;
pub mod stack;

pub use cc::{CcConfig, DctcpWindow, RttEstimator};
pub use endpoint::{
    drive_pair, handshake_scenario_endpoints, scenario_endpoints, take_delivered, AcceptConfig,
    ConnectConfig, Endpoint, EndpointBuilder, EndpointError, EndpointResult, EndpointStats, Event,
    Listener, ListenerFabric, MessageId, PairFabric, SecureEndpoint, SharedPathSecrets,
    ZeroRttAcceptor,
};
pub use homa::{HomaConfig, HomaEndpoint};
pub use profile::{RpcWorkload, StackProfile};
pub use stack::StackKind;
