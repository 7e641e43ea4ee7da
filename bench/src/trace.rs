//! Span tracing from outside the program: the benchmark records a span around
//! each of its own calls into a layer, keeps them in memory, and writes them
//! out when the workload ends.
//!
//! A span's *self time* is its duration minus the part its child spans cover,
//! so the self times of everything under one root span add up to the root's
//! duration exactly — that is what lets `driver` + `transport` + `apps` +
//! `sim` partition the host time of a traced window.

use std::cell::RefCell;
use std::time::Instant;

/// The layers spans are attributed to (this repo's crates, plus the
/// benchmark's own driver code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own generator, checks and bookkeeping.
    Driver,
    /// `smt-transport`: endpoints, listener, backends.
    Transport,
    /// `smt-apps`: the application hosts.
    Apps,
    /// `smt-sim`: fabric, event queue, scenario runner, drive loops.
    Sim,
    /// `smt-crypto`: record layer and handshakes.
    Crypto,
    /// `smt-core`: segmentation, reassembly, kTLS record framing.
    Core,
    /// `smt-wire`: the packet codec.
    Wire,
}

impl Layer {
    /// Lower-case layer name as it appears in metric names and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::Transport => "transport",
            Layer::Apps => "apps",
            Layer::Sim => "sim",
            Layer::Crypto => "crypto",
            Layer::Core => "core",
            Layer::Wire => "wire",
        }
    }
}

macro_rules! spans {
    ($($variant:ident => $name:literal, $layer:ident;)*) => {
        /// Every span the benchmark records, named `<layer>.<call>`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum Span { $($variant,)* }

        impl Span {
            /// All spans, in declaration order (index = discriminant).
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// The span's name in trace files.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name,)* }
            }

            /// The layer the span's self time is attributed to.
            pub fn layer(self) -> Layer {
                match self { $(Span::$variant => Layer::$layer,)* }
            }
        }
    };
}

spans! {
    // In situ: the traced window and the driver calls under it.
    Window => "driver.window", Driver;
    DrivePair => "sim.drive_pair", Sim;
    RunScenario => "sim.run_scenario", Sim;
    Send => "transport.send", Transport;
    HandleDatagram => "transport.handle_datagram", Transport;
    PollTransmit => "transport.poll_transmit", Transport;
    PollEvent => "transport.poll_event", Transport;
    OnTimeout => "transport.on_timeout", Transport;
    NextTimeout => "transport.next_timeout", Transport;
    Stats => "transport.stats", Transport;
    ConnectBuild => "transport.connect_build", Transport;
    ListenerDrive => "transport.listener_drive", Transport;
    ListenerClose => "transport.listener_close", Transport;
    OnRequest => "apps.on_request", Apps;
    OnReply => "apps.on_reply", Apps;
    InitialRequest => "apps.initial_request", Apps;
    AppBuild => "apps.build", Apps;
    // Isolated replays: one layer's public functions called alone.
    Empty => "trace.empty", Driver;
    RecordSeal => "crypto.record.seal", Crypto;
    RecordOpen => "crypto.record.open", Crypto;
    RecordSeal64 => "crypto.record.seal_64", Crypto;
    RecordSeal16k => "crypto.record.seal_16k", Crypto;
    Segment => "core.segment", Core;
    SegmentSeal => "core.segment_seal", Core;
    Reassembly => "core.reassembly", Core;
    ReassemblyOpen => "core.reassembly_open", Core;
    KtlsSend => "core.ktls.send", Core;
    KtlsRecv => "core.ktls.recv", Core;
    HomaOp => "transport.homa.op", Transport;
    HomaEarly => "transport.homa.msg_h100", Transport;
    HomaLate => "transport.homa.msg_h10k", Transport;
    HandshakeCold => "crypto.handshake.cold", Crypto;
    HandshakeResumed => "crypto.handshake.resumed", Crypto;
    HandshakeDerived => "crypto.handshake.derived", Crypto;
    FabricPkts => "sim.fabric.pkts", Sim;
    EventQueue => "sim.eventq", Sim;
    KvCodec => "apps.kv.codec", Apps;
    KvStore => "apps.kv.store", Apps;
    WireEncode => "wire.encode", Wire;
    WireDecode => "wire.decode", Wire;
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Spans opened directly inside them.
    pub children: u64,
    /// Calls [`count`]ed (not timed) directly inside them.
    pub counted: u64,
}

/// One fully recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Which call.
    pub span: Span,
    /// Start, nanoseconds since the tracer was installed.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing recorded span, if any.
    pub parent: Option<u32>,
    /// The op in progress when the span opened.
    pub op: u64,
}

struct Open {
    span: Span,
    start_ns: u64,
    children_ns: u64,
    record: Option<u32>,
}

/// Spans kept in memory for one traced stretch of a run.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    op: u64,
    full_ops: u64,
    full_spans: usize,
    /// Full spans of the first ops, in opening order.
    pub spans: Vec<SpanRecord>,
    /// Per-name aggregates over every span, indexed by `Span as usize`.
    pub aggregates: Vec<Aggregate>,
}

impl Tracer {
    /// A tracer that keeps full spans for the first `full_ops` ops (at most
    /// `full_spans` of them) and per-name aggregates for everything.
    pub fn new(full_ops: u64, full_spans: usize) -> Self {
        Self {
            epoch: Instant::now(),
            open: Vec::with_capacity(16),
            op: 0,
            full_ops,
            full_spans,
            spans: Vec::with_capacity(full_spans),
            aggregates: vec![Aggregate::default(); Span::ALL.len()],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, span: Span) {
        let start_ns = self.now_ns();
        let record = (self.op < self.full_ops && self.spans.len() < self.full_spans).then(|| {
            self.spans.push(SpanRecord {
                span,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|o| o.record),
                op: self.op,
            });
            (self.spans.len() - 1) as u32
        });
        self.open.push(Open {
            span,
            start_ns,
            children_ns: 0,
            record,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let done = self.open.pop().expect("exit without enter");
        let duration = end_ns - done.start_ns;
        let agg = &mut self.aggregates[done.span as usize];
        agg.count += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(done.children_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
            self.aggregates[parent.span as usize].children += 1;
        }
        if let Some(i) = done.record {
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// The aggregate of one span name.
    pub fn of(&self, span: Span) -> Aggregate {
        self.aggregates[span as usize]
    }

    /// Time inside every span of one name, less what recording them cost.
    pub fn total_ns(&self, span: Span, cost: &SpanCost) -> f64 {
        let a = self.of(span);
        (a.total_ns as f64 - a.count as f64 * cost.inside_ns).max(0.0)
    }

    /// Self time of every span of one name, less what recording them and
    /// their direct children cost.
    pub fn self_ns(&self, span: Span, cost: &SpanCost) -> f64 {
        let a = self.of(span);
        let overhead = a.count as f64 * cost.inside_ns
            + a.children as f64 * cost.outside_ns
            + a.counted as f64 * cost.count_ns;
        (a.self_ns as f64 - overhead).max(0.0)
    }

    /// Summed [`self_ns`](Self::self_ns) of every span attributed to `layer`.
    pub fn layer_self_ns(&self, layer: Layer, cost: &SpanCost) -> f64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| self.self_ns(s, cost))
            .sum()
    }

    /// Summed span count of every span attributed to `layer`.
    pub fn layer_calls(&self, layer: Layer) -> u64 {
        Span::ALL
            .iter()
            .filter(|s| s.layer() == layer)
            .map(|&s| self.of(s).count)
            .sum()
    }
}

/// What recording one span costs, measured on empty spans: the part that
/// falls between the span's own two clock reads (and so inside its recorded
/// duration), and the part that falls outside them (and so inside its
/// parent's self time).  A workload that makes tens of thousands of
/// nanosecond-sized calls per op would otherwise show mostly this.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCost {
    /// Nanoseconds inside the span's recorded duration.
    pub inside_ns: f64,
    /// Nanoseconds outside it, charged to the enclosing span.
    pub outside_ns: f64,
    /// Nanoseconds one [`count`] call charges to the enclosing span.
    pub count_ns: f64,
}

/// Measures [`SpanCost`] on this machine, now.
pub fn measure_span_cost() -> SpanCost {
    const SPANS: u64 = 20_000;
    let (mut inside, mut outside, mut counting) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        install(Tracer::new(0, 0));
        span(Span::Window, || {
            for _ in 0..SPANS {
                span(Span::Empty, || ());
            }
        });
        span(Span::DrivePair, || {
            for _ in 0..SPANS {
                count(Span::Empty);
            }
        });
        let t = take();
        inside.push(t.of(Span::Empty).total_ns as f64 / SPANS as f64);
        outside.push(t.of(Span::Window).self_ns as f64 / SPANS as f64);
        counting.push(t.of(Span::DrivePair).self_ns as f64 / SPANS as f64);
    }
    SpanCost {
        inside_ns: crate::stats::median(&mut inside),
        outside_ns: crate::stats::median(&mut outside),
        count_ns: crate::stats::median(&mut counting),
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread.
pub fn install(tracer: Tracer) {
    TRACER.with(|t| *t.borrow_mut() = Some(tracer));
}

/// Stops recording and hands the spans back.
pub fn take() -> Tracer {
    TRACER
        .with(|t| t.borrow_mut().take())
        .expect("no tracer installed")
}

/// Marks the start of the next op: spans opened from now on carry its number.
pub fn next_op() {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.op += 1;
        }
    });
}

/// Counts a call without timing it: for a call shorter than a clock read
/// (`next_timeout` returns a stored deadline, and the scenario runner asks all
/// 64 incast endpoints for it on every event).  Its time stays in the
/// enclosing span's self time; the ledger moves it out again at the per-call
/// cost an isolated replay measured.
pub fn count(span: Span) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.aggregates[span as usize].count += 1;
            if let Some(parent) = t.open.last() {
                t.aggregates[parent.span as usize].counted += 1;
            }
        }
    });
}

/// Runs `f` inside a span.  Without an installed tracer it only runs `f`.
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    // The borrow is released while `f` runs: `f` opens child spans.
    let on = TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(t) => {
            t.enter(span);
            true
        }
        None => false,
    });
    let out = f();
    if on {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.exit();
            }
        });
    }
    out
}

/// [`span`] when `ON`, a plain call otherwise — decided at compile time, so
/// the timed window carries no tracing code at all.
#[inline(always)]
pub fn span_if<const ON: bool, R>(s: Span, f: impl FnOnce() -> R) -> R {
    if ON {
        span(s, f)
    } else {
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        install(Tracer::new(10, 100));
        span(Span::Window, || {
            spin(200_000);
            span(Span::DrivePair, || {
                spin(100_000);
                span(Span::Send, || spin(300_000));
                span(Span::PollEvent, || spin(50_000));
            });
        });
        let t = take();
        let (root, drive, send, poll) = (
            t.of(Span::Window),
            t.of(Span::DrivePair),
            t.of(Span::Send),
            t.of(Span::PollEvent),
        );
        // Leaves: self == total.
        assert_eq!(send.self_ns, send.total_ns);
        assert_eq!(poll.self_ns, poll.total_ns);
        // Parents: self == total minus direct children.
        assert_eq!(
            drive.self_ns,
            drive.total_ns - send.total_ns - poll.total_ns
        );
        assert_eq!(root.self_ns, root.total_ns - drive.total_ns);
        // So self times partition the root's duration exactly.
        assert_eq!(
            root.self_ns + drive.self_ns + send.self_ns + poll.self_ns,
            root.total_ns
        );
        assert!(send.self_ns >= 300_000 && drive.self_ns >= 100_000 && root.self_ns >= 200_000);
        let free = SpanCost::default();
        let by_layer: f64 = [Layer::Driver, Layer::Sim, Layer::Transport, Layer::Apps]
            .into_iter()
            .map(|l| t.layer_self_ns(l, &free))
            .sum();
        assert_eq!(by_layer, root.total_ns as f64);
        assert_eq!(t.layer_calls(Layer::Transport), 2);
        assert_eq!((root.children, drive.children, send.children), (1, 2, 0));
        // Recording costs come off the span itself (inside) and off its
        // parent (outside), and never push a time below zero.
        let cost = SpanCost {
            inside_ns: 1_000.0,
            outside_ns: 500.0,
            count_ns: 0.0,
        };
        assert_eq!(
            t.total_ns(Span::Send, &cost),
            send.total_ns as f64 - 1_000.0
        );
        assert_eq!(
            t.self_ns(Span::DrivePair, &cost),
            drive.self_ns as f64 - 1_000.0 - 2.0 * 500.0
        );
        let huge = SpanCost {
            inside_ns: 1e12,
            ..SpanCost::default()
        };
        assert_eq!(t.total_ns(Span::Send, &huge), 0.0);
    }

    #[test]
    fn full_spans_record_parent_and_op_then_stop() {
        install(Tracer::new(2, 100));
        for _ in 0..3 {
            span(Span::DrivePair, || span(Span::Send, || ()));
            next_op();
        }
        let t = take();
        // Ops 0 and 1 are kept in full, op 2 only aggregated.
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.of(Span::Send).count, 3);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!((t.spans[1].op, t.spans[3].op), (0, 1));
        assert!(t.spans[1].end_ns >= t.spans[1].start_ns);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }

    #[test]
    fn counted_calls_are_not_timed() {
        install(Tracer::new(0, 0));
        span(Span::DrivePair, || {
            for _ in 0..8 {
                count(Span::NextTimeout);
            }
        });
        let t = take();
        let (parent, counted) = (t.of(Span::DrivePair), t.of(Span::NextTimeout));
        assert_eq!((counted.count, counted.total_ns), (8, 0));
        assert_eq!((parent.counted, parent.children), (8, 0));
        assert_eq!(parent.self_ns, parent.total_ns);
        let cost = SpanCost {
            count_ns: 10.0,
            ..SpanCost::default()
        };
        assert_eq!(
            t.self_ns(Span::DrivePair, &cost),
            parent.self_ns as f64 - 80.0
        );
    }

    #[test]
    fn span_cost_is_small_and_positive() {
        let cost = measure_span_cost();
        assert!(
            cost.inside_ns > 0.0 && cost.inside_ns < 10_000.0,
            "{cost:?}"
        );
        assert!(
            cost.outside_ns > 0.0 && cost.outside_ns < 10_000.0,
            "{cost:?}"
        );
        assert!(
            cost.count_ns > 0.0 && cost.count_ns < cost.inside_ns + cost.outside_ns,
            "{cost:?}"
        );
    }

    #[test]
    fn span_without_tracer_just_runs() {
        assert_eq!(span(Span::Send, || 7), 7);
        assert_eq!(span_if::<false, _>(Span::Send, || 8), 8);
    }
}
