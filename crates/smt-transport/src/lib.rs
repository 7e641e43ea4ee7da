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
//! * [`stack`] / [`profile`] — the **stacks** the paper compares (TCP,
//!   TLS, kTLS-sw, kTLS-hw, TCPLS, Homa, SMT-sw, SMT-hw) and, per stack, the
//!   closed-form record / segment / packet / wire-byte counts of one message
//!   that the functional figures' cross-check bands are built from.
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
pub use profile::StackProfile;
pub use stack::StackKind;
