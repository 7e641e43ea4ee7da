//! The eight workloads and the run protocol: set-up, warm-up, window.
//!
//! All loops are closed: a client issues its next request the moment a reply
//! is delivered.  An op in flight when the window closes is finished and
//! counted.  `--seed` drives every generator (payload bytes, YCSB keys, fault
//! pattern); the programs under test receive only the generated inputs.

use crate::alloc;
use crate::layers::{
    self, ChurnRig, Counters, Keys, PairRig, RoundKind, RoundOutcome, RoundPlan, Stack,
};
use crate::stats::{self, GapSeries};
use crate::trace::{self, Span};
use std::time::{Duration, Instant};

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Key-injected connections at depth 1, stepped one driver event at a
    /// time; each lives for a fixed number of ops and is then replaced by a
    /// fresh one.
    Pair {
        /// The stack under test.
        stack: Stack,
        /// Request payload bytes.
        request: usize,
        /// Reply payload bytes (a prefix of the request).
        reply: usize,
        /// Ops in one connection's life.
        life_ops: u64,
    },
    /// A fixed scenario run to completion on fresh endpoints, repeatedly.
    Round {
        /// Which scenario.
        kind: RoundKind,
        /// Ops per round.
        ops: u64,
    },
    /// Waves of 12 in-band connects to one listener.
    Churn,
}

/// One named workload and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in every report.
    pub name: &'static str,
    /// One line: what it stresses that the others do not.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

/// Ops in one connection's life in the pair workloads: long enough that state
/// a connection keeps per completed message dominates its cost today (op
/// 4 000 of `small_rpc_smt` costs two hundred times op 1), and fixed, so that
/// every life is the same work and its time can be compared across runs.  A
/// window that timed one ever-growing connection instead would report a rate
/// that depends on the window's length and on every stall before its middle.
const SMALL_LIFE_OPS: u64 = 4_000;
const BULK_LIFE_OPS: u64 = 400;
/// Ops of the discarded warm-up round of a round workload.
const WARMUP_ROUND_OPS: u64 = 200;
/// Discarded waves before a churn window.
const WARMUP_WAVES: u64 = 4;
/// Ops of the first connection (pair; the whole life if it is shorter) and
/// waves (churn) whose simulated-time results are reported: a fixed prefix,
/// so they do not depend on how far a run got.
const SIM_PREFIX_OPS: u64 = 500;
const SIM_PREFIX_WAVES: u64 = 50;

/// The workloads, in suite order.
pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "small_rpc_smt",
        why: "64 B echo at depth 1 on SMT-sw, 4000 ops per connection: per-message and per-packet software overhead is everything, per-byte cost nothing; the connection's life exposes state kept per message.",
        kind: Kind::Pair {
            stack: Stack::SmtSw,
            request: 64,
            reply: 64,
            life_ops: SMALL_LIFE_OPS,
        },
    },
    Workload {
        name: "small_rpc_ktls",
        why: "The same 64 B echo on kTLS-sw, the paper's TLS/TCP baseline: bypasses every message-backend change and exercises every stream-backend change.",
        kind: Kind::Pair {
            stack: Stack::KtlsSw,
            request: 64,
            reply: 64,
            life_ops: SMALL_LIFE_OPS,
        },
    },
    Workload {
        name: "bulk_smt",
        why: "256 KiB request, 64 B reply on SMT-sw: ~180 packets per op through segmentation, TSO, seal, GRANTs, reassembly and open, so per-byte and per-packet-in-a-train costs dominate.",
        kind: Kind::Pair {
            stack: Stack::SmtSw,
            request: 256 * 1024,
            reply: 64,
            life_ops: BULK_LIFE_OPS,
        },
    },
    Workload {
        name: "bulk_ktls",
        why: "The same 256 KiB transfer on kTLS-sw: the same record layer behind KtlsSender batching, the DCTCP window and SACK; its per-packet cost is far above small_rpc_ktls's.",
        kind: Kind::Pair {
            stack: Stack::KtlsSw,
            request: 256 * 1024,
            reply: 64,
            life_ops: BULK_LIFE_OPS,
        },
    },
    Workload {
        name: "concurrent_rpc",
        why: "Fig. 7 shape, 64 outstanding 8 KiB echo RPCs on one SMT-sw flow: SRPT grant scheduling, pending-send scans and quiet-timer probing, which depth-1 workloads bypass.",
        kind: Kind::Round {
            kind: RoundKind::ConcurrentRpc,
            ops: 2_000,
        },
    },
    Workload {
        name: "connect_churn",
        why: "Waves of 12 in-band connects (cold, ticket-resumed, path-secret derived) to one Listener: handshake crypto, listener demux and set-up/tear-down, which key-injected workloads bypass.",
        kind: Kind::Churn,
    },
    Workload {
        name: "lossy_kv",
        why: "YCSB-A through KvHost on 4 flows x 8 outstanding with seeded loss, reordering and duplication: the transport's recovery path, with writes beside reads and the only real app layer.",
        kind: Kind::Round {
            kind: RoundKind::LossyKv,
            ops: 2_000,
        },
    },
    Workload {
        name: "incast_sim",
        why: "32-to-1 incast of 64 KiB messages on a leaf-spine fabric with ECN: 64 endpoints with short histories, so fabric queues, ECMP and the event loop take their largest share.",
        kind: Kind::Round {
            kind: RoundKind::Incast,
            ops: 128,
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Application message sizes of one op, in sending order.
    pub fn op_messages(&self) -> Vec<usize> {
        match self.kind {
            Kind::Pair { request, reply, .. } => vec![request, reply],
            Kind::Round { kind, .. } => match kind {
                RoundKind::ConcurrentRpc => vec![8 * 1024, 8 * 1024],
                // Half reads (key out, value back) and half updates (key and
                // value out, ack back): the mean request and the mean reply.
                RoundKind::LossyKv => vec![536, 520],
                RoundKind::Incast => vec![64 * 1024],
            },
            Kind::Churn => vec![layers::CHURN_REQUEST_BYTES],
        }
    }

    /// Ops the workload keeps in flight (clients × depth).
    pub fn outstanding(&self) -> u64 {
        match self.kind {
            Kind::Pair { .. } => 1,
            Kind::Round { kind, .. } => layers::round_outstanding(kind),
            Kind::Churn => layers::WAVE_CONNECTS as u64,
        }
    }

    /// The stack on the workload's data path.
    pub fn stack(&self) -> Stack {
        match self.kind {
            Kind::Pair { stack, .. } => stack,
            _ => Stack::SmtSw,
        }
    }
}

/// A workload's live state between set-up and the end of its window.
// One per run, never moved in a loop: the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Rig {
    /// A pair and its seeded request.
    Pair(PairState),
    /// A round plan and the keys its endpoints are built from.
    Round {
        /// The scenario.
        plan: RoundPlan,
        /// Keys injected into every round's fresh endpoints.
        keys: Keys,
    },
    /// The listener and its fabric.
    Churn(ChurnRig),
}

/// The current connection of a pair workload, what it takes to replace it,
/// and the seeded request.
pub struct PairState {
    stack: Stack,
    keys: Keys,
    traced: bool,
    rig: PairRig,
    life_ops: u64,
    request: Vec<u8>,
    reply: usize,
    sent: u64,
}

impl PairState {
    /// Ends the current connection's life and starts a fresh one.
    fn reconnect<const TRACE: bool>(&mut self) {
        self.rig = trace::span_if::<TRACE, _>(Span::ConnectBuild, || {
            layers::pair_rig(self.stack, &self.keys, self.traced)
        });
    }

    /// One RPC; each request carries its op number in its first bytes, so no
    /// two messages are the same.
    fn op<const TRACE: bool>(&mut self) -> Result<layers::Rpc, String> {
        self.request[..8].copy_from_slice(&self.sent.to_le_bytes());
        self.sent += 1;
        self.rig.rpc::<TRACE>(&self.request, self.reply)
    }
}

/// Builds the workload's state from `seed` and runs its warm-up: everything
/// between process start and the first timed op.
pub fn set_up(workload: &Workload, seed: u64, traced: bool) -> Result<Rig, String> {
    match workload.kind {
        Kind::Pair {
            stack,
            request,
            reply,
            life_ops,
        } => {
            let keys = layers::establish_keys();
            let mut state = PairState {
                stack,
                rig: layers::pair_rig(stack, &keys, traced),
                keys,
                traced,
                life_ops,
                request: layers::seeded_bytes(request, seed),
                reply,
                sent: 0,
            };
            // A warm-up connection: a tenth of a life, 200 ops at most.
            for _ in 0..(life_ops / 10).min(200) {
                state.op::<false>()?;
            }
            Ok(Rig::Pair(state))
        }
        Kind::Round { kind, ops } => {
            let keys = layers::establish_keys();
            let warmup = layers::round_plan(kind, WARMUP_ROUND_OPS.min(ops), seed);
            let mut unused = GapSeries::new(Instant::now());
            let outcome = layers::run_round::<false>(&warmup, &keys, &mut unused);
            if let Some(v) = outcome.violation {
                return Err(format!("warm-up round: {v}"));
            }
            Ok(Rig::Round {
                plan: layers::round_plan(kind, ops, seed),
                keys,
            })
        }
        Kind::Churn => {
            let mut rig =
                layers::churn_rig(layers::seeded_bytes(layers::CHURN_REQUEST_BYTES, seed))?;
            let mut unused = GapSeries::new(Instant::now());
            for _ in 0..WARMUP_WAVES {
                if let Some(v) = rig.wave::<false>(&mut unused).violation {
                    return Err(format!("warm-up wave: {v}"));
                }
            }
            Ok(Rig::Churn(rig))
        }
    }
}

/// Simulated-time results over the window's fixed prefix.  Deterministic per
/// seed: two runs of the same code agree bit for bit (up to ECDSA signature
/// lengths in `connect_churn`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimSummary {
    /// Median simulated op time.
    pub p50_ns: f64,
    /// 99th-percentile simulated op time.
    pub p99_ns: f64,
    /// Application bytes delivered over simulated duration.
    pub goodput_gbps: f64,
    /// Wire bytes over application bytes delivered.
    pub wire_amp: f64,
}

/// A stretch of a window: ops and payload bytes completed in it, and how long
/// it took.  One slice per connection life, round or wave: the same fixed
/// work every time, so a slice's time is comparable with every other's.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Ops completed correctly.
    pub ops: u64,
    /// Application payload bytes delivered, both directions.
    pub app_bytes: u64,
    /// Host seconds.
    pub seconds: f64,
    /// Median host-time gap between the slice's op completions.
    pub p50_gap_ns: u64,
}

/// What one window measured.
pub struct Window {
    /// Host seconds from the window's start to the end of its last unit.
    pub elapsed_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops completed correctly.
    pub ok: u64,
    /// Application payload bytes delivered, both directions.
    pub app_bytes: u64,
    /// Host-time gaps between successive op completions.
    pub gaps: GapSeries,
    /// The window in stretches, for rates that ignore a stalled stretch.
    pub slices: Vec<Slice>,
    /// Allocator activity inside the window.
    pub allocs: alloc::Snapshot,
    /// Heap bytes live at the window's end minus at its start.
    pub live_delta: i64,
    /// What went wrong, first few only.
    pub violations: Vec<String>,
    /// Simulated-time results (traced windows only).
    pub sim: SimSummary,
    /// Layer counters over the window (traced windows only).
    pub counters: Counters,
}

impl Window {
    fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Ops per host second: the fast-decile slice (the slice rate that nine
    /// slices in ten stay below).  Every slice is the same work, and on a
    /// shared box other tenants only ever slow a slice down — stalls of a few
    /// hundred milliseconds, and stretches of many seconds at three quarters
    /// of the speed when the work is memory-bound.  The window's mean, and
    /// even its median slice, then say more about the neighbours than about
    /// the code, while the fast edge of the slices repeats.
    pub fn ops_per_s(&self) -> f64 {
        self.fast_decile(|s| stats::per(s.ops as f64, s.seconds), 0.90)
    }

    /// Application payload megabytes per host second, the same way.
    pub fn app_mb_per_s(&self) -> f64 {
        self.fast_decile(|s| stats::per(s.app_bytes as f64 / 1e6, s.seconds), 0.90)
    }

    /// Median host-time gap between successive op completions: the
    /// fast-decile slice's median, for the same reason.
    pub fn host_p50_ns(&self) -> f64 {
        self.fast_decile(|s| s.p50_gap_ns as f64, 0.10)
    }

    fn fast_decile(&self, of: impl Fn(&Slice) -> f64, p: f64) -> f64 {
        let mut values: Vec<f64> = self.slices.iter().map(of).collect();
        stats::percentile_of(&mut values, p)
    }
}

fn counters_delta(end: &Counters, start: &Counters) -> Counters {
    Counters {
        retransmissions: end.retransmissions - start.retransmissions,
        timeouts_fired: end.timeouts_fired - start.timeouts_fired,
        replays_rejected: end.replays_rejected - start.replays_rejected,
        records_sealed: end.records_sealed - start.records_sealed,
        ecn_marks_seen: end.ecn_marks_seen - start.ecn_marks_seen,
        fabric_offered: end.fabric_offered - start.fabric_offered,
        fabric_wire_bytes: end.fabric_wire_bytes - start.fabric_wire_bytes,
        fabric_dropped: end.fabric_dropped - start.fabric_dropped,
        fabric_ecn_marked: end.fabric_ecn_marked - start.fabric_ecn_marked,
        events: end.events - start.events,
        sim_now_ns: end.sim_now_ns - start.sim_now_ns,
        // Gauges keep their end-of-window reading.
        ..*end
    }
}

fn sim_summary(samples: &mut [u64], app_bytes: u64, prefix: &Counters) -> SimSummary {
    samples.sort_unstable();
    SimSummary {
        p50_ns: stats::percentile(samples, 0.50) as f64,
        p99_ns: stats::percentile(samples, 0.99) as f64,
        goodput_gbps: stats::per(app_bytes as f64 * 8.0, prefix.sim_now_ns as f64),
        wire_amp: stats::per(prefix.fabric_wire_bytes as f64, app_bytes as f64),
    }
}

/// Runs `rig` closed-loop until `seconds` of host time have passed and at
/// least `min_units` connection lives or rounds are done.  `TRACE` selects
/// the span-recording code paths and the simulated-time and counter
/// bookkeeping; without it the only benchmark code on the path is the
/// generator, the payload checks and one `Instant::now()` per completed op.
pub fn run_window<const TRACE: bool>(rig: &mut Rig, seconds: f64, min_units: u64) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut w = Window {
        elapsed_s: 0.0,
        attempted: 0,
        ok: 0,
        app_bytes: 0,
        gaps: GapSeries::new(start),
        slices: Vec::with_capacity(1 << 12),
        allocs: alloc::Snapshot::default(),
        live_delta: 0,
        violations: Vec::new(),
        sim: SimSummary::default(),
        counters: Counters::default(),
    };
    let before = alloc::snapshot();
    match rig {
        Rig::Pair(state) => pair_window::<TRACE>(state, &mut w, start, window, min_units),
        Rig::Round { plan, keys } => {
            round_window::<TRACE>(plan, keys, &mut w, start, window, min_units)
        }
        Rig::Churn(churn) => churn_window::<TRACE>(churn, &mut w, start, window),
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    let after = alloc::snapshot();
    w.allocs = alloc::Snapshot {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        live: after.live,
    };
    w.live_delta = after.live as i64 - before.live as i64;
    w
}

fn pair_window<const TRACE: bool>(
    state: &mut PairState,
    w: &mut Window,
    start: Instant,
    window: Duration,
    min_lives: u64,
) {
    let op_bytes = (state.request.len() + state.reply) as u64;
    let prefix_ops = SIM_PREFIX_OPS.min(state.life_ops);
    let mut sim_samples = Vec::with_capacity(prefix_ops as usize);
    let mut lives = 0;
    'window: while lives < min_lives || start.elapsed() < window {
        let begin = Instant::now();
        state.reconnect::<TRACE>();
        for _ in 0..state.life_ops {
            w.attempted += 1;
            match state.op::<TRACE>() {
                Ok(rpc) => {
                    w.gaps.complete(Instant::now());
                    w.ok += 1;
                    w.app_bytes += op_bytes;
                    if TRACE {
                        trace::next_op();
                        if w.ok <= prefix_ops {
                            sim_samples.push(rpc.sim_ns);
                        }
                        if w.ok == prefix_ops {
                            // A fresh connection's counters start at zero.
                            w.sim =
                                sim_summary(&mut sim_samples, w.app_bytes, &state.rig.counters());
                        }
                    }
                }
                Err(e) => {
                    // The connection's state is unknown after a failed op.
                    w.violation(format!("op {}: {e}", w.attempted));
                    break 'window;
                }
            }
        }
        w.slices.push(Slice {
            ops: state.life_ops,
            app_bytes: state.life_ops * op_bytes,
            seconds: begin.elapsed().as_secs_f64(),
            p50_gap_ns: w.gaps.end_slice(),
        });
        lives += 1;
        if TRACE {
            w.counters.absorb(&state.rig.counters());
        }
    }
}

fn round_window<const TRACE: bool>(
    plan: &RoundPlan,
    keys: &Keys,
    w: &mut Window,
    start: Instant,
    window: Duration,
    min_rounds: u64,
) {
    let mut first: Option<RoundOutcome> = None;
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < window {
        let begin = Instant::now();
        let outcome = layers::run_round::<TRACE>(plan, keys, &mut w.gaps);
        w.slices.push(Slice {
            ops: outcome.ok,
            app_bytes: outcome.app_bytes,
            seconds: begin.elapsed().as_secs_f64(),
            p50_gap_ns: w.gaps.end_slice(),
        });
        rounds += 1;
        w.attempted += plan.ops;
        w.app_bytes += outcome.app_bytes;
        w.counters.absorb(&outcome.counters);
        // Every round is the same seeded scenario on fresh state, so every
        // round must replay round 0's event sequence bit for bit.
        let hash_differs = first
            .as_ref()
            .is_some_and(|f| f.trace_hash != outcome.trace_hash);
        if let Some(v) = &outcome.violation {
            w.violation(format!("round {rounds}: {v}"));
        } else if hash_differs {
            w.violation(format!("round {rounds}: trace_hash differs from round 1"));
        } else {
            w.ok += outcome.ok;
        }
        if outcome.ok != plan.ops && outcome.violation.is_none() {
            w.violation(format!(
                "round {rounds}: {} of {} replies correct",
                outcome.ok, plan.ops
            ));
        }
        first.get_or_insert(outcome);
    }
    if let Some(first) = first {
        w.sim = SimSummary {
            p50_ns: first.sim_p50_ns,
            p99_ns: first.sim_p99_ns,
            goodput_gbps: first.sim_goodput_gbps,
            wire_amp: stats::per(
                first.counters.fabric_wire_bytes as f64,
                first.app_bytes as f64,
            ),
        };
    }
}

fn churn_window<const TRACE: bool>(
    churn: &mut ChurnRig,
    w: &mut Window,
    start: Instant,
    window: Duration,
) {
    let at_start = if TRACE {
        churn.counters()
    } else {
        Counters::default()
    };
    let mut sim_samples = Vec::new();
    let mut waves = 0;
    while start.elapsed() < window {
        let begin = Instant::now();
        let outcome = churn.wave::<TRACE>(&mut w.gaps);
        w.slices.push(Slice {
            ops: outcome.ok,
            app_bytes: outcome.ok * layers::CHURN_REQUEST_BYTES as u64,
            seconds: begin.elapsed().as_secs_f64(),
            p50_gap_ns: w.gaps.end_slice(),
        });
        waves += 1;
        w.attempted += layers::WAVE_CONNECTS as u64;
        w.ok += outcome.ok;
        w.app_bytes += outcome.ok * layers::CHURN_REQUEST_BYTES as u64;
        if let Some(v) = outcome.violation {
            w.violation(format!("wave {waves}: {v}"));
        }
        if TRACE && waves <= SIM_PREFIX_WAVES {
            sim_samples.extend(outcome.sim_setup_ns);
            if waves == SIM_PREFIX_WAVES {
                let prefix = counters_delta(&churn.counters(), &at_start);
                w.sim = sim_summary(&mut sim_samples, w.app_bytes, &prefix);
            }
        }
    }
    if TRACE {
        w.counters = counters_delta(&churn.counters(), &at_start);
        if waves < SIM_PREFIX_WAVES {
            w.sim = sim_summary(&mut sim_samples, w.app_bytes, &w.counters);
        }
    }
}
