//! The metric registry — every metric's name, unit and direction, in report
//! order — and the result line a run prints.
//!
//! Two clocks, and every line says which: **host** time is wall-clock on this
//! machine (what the code costs); **sim** time is the fabric's virtual clock
//! (what the modelled protocol delivers; deterministic per seed).

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit; `sim_` marks the simulated clock.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system would see, all on the host clock, all from the
/// untraced window.  The bounds are as wide as the contract allows: on the
/// shared box this was written on, the machine itself moves the host-time
/// numbers by 2-8 % between runs of the same code on a good stretch and by
/// 10-18 % on a bad one (and with them the memory of every workload whose
/// state grows with the ops it completes), and a bound inside the noise
/// resolves nothing.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "op/s", "higher", 0.25),
    e2e("app_mb_per_s", "MB/s", "higher", 0.25),
    e2e("host_p50_ns", "ns", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Single layers, from the traced window, the layer counters and the isolated
/// replays; normalised per op unless the name says otherwise.  The
/// simulated-time results are here too: they are deterministic per seed, so
/// they are compared for exact equality (`repeat`), not against a noise bound.
pub const PER_LAYER: [Metric; 77] = [
    // Simulated clock, fixed prefix of the window.
    layer("sim_rpc_p50_ns", "sim_ns", "lower"),
    layer("sim_rpc_p99_ns", "sim_ns", "lower"),
    layer("sim_goodput_gbps", "sim_Gb/s", "higher"),
    layer("wire_amp", "ratio", "lower"),
    layer("failed_ratio", "ratio", "lower"),
    // In situ: spans around the benchmark's own calls, traced window.
    layer("transport.send_ns", "ns", "lower"),
    layer("transport.handle_datagram_ns", "ns", "lower"),
    layer("transport.poll_transmit_ns", "ns", "lower"),
    layer("transport.poll_event_ns", "ns", "lower"),
    layer("transport.on_timeout_ns", "ns", "lower"),
    layer("transport.next_timeout_ns", "ns", "lower"),
    layer("transport.stats_ns", "ns", "lower"),
    layer("transport.connect_build_ns", "ns", "lower"),
    layer("transport.listener_drive_ns", "ns", "lower"),
    layer("transport.listener_close_ns", "ns", "lower"),
    layer("transport.calls_per_op", "count", "lower"),
    layer("transport.share", "ratio", "lower"),
    layer("apps.on_request_ns", "ns", "lower"),
    layer("apps.on_reply_ns", "ns", "lower"),
    layer("apps.build_ns", "ns", "lower"),
    layer("apps.share", "ratio", "lower"),
    layer("sim.self_ns", "ns", "lower"),
    layer("sim.self_ns_per_event", "ns", "lower"),
    layer("sim.events_per_s", "1/s", "higher"),
    layer("sim.share", "ratio", "lower"),
    layer("driver.share", "ratio", "lower"),
    // Layer counters over the traced window.
    layer("transport.retx_per_op", "count", "lower"),
    layer("transport.timeouts_per_op", "count", "lower"),
    layer("transport.dup_rejected_per_op", "count", "lower"),
    layer("transport.records_per_op", "count", "lower"),
    layer("transport.peak_tracked_kb", "KB", "lower"),
    layer("cc.srtt_ns_end", "sim_ns", "lower"),
    layer("cc.ecn_marks_per_op", "count", "lower"),
    layer("cc.cwnd_kb_end", "KB", "higher"),
    layer("sim.fabric.drops_per_op", "count", "lower"),
    layer("sim.fabric.ecn_marks_per_op", "count", "lower"),
    layer("sim.fabric.peak_ingress_pkts", "count", "lower"),
    layer("driver.events_per_op", "count", "lower"),
    layer("driver.pkts_per_op", "count", "lower"),
    // Untraced reference window of the same run.
    layer("driver.allocs_per_op", "count", "lower"),
    layer("driver.alloc_bytes_per_op", "B", "lower"),
    layer("driver.live_kb_end", "KB", "lower"),
    layer("driver.host_p90_ns", "ns", "lower"),
    layer("driver.host_p99_ns", "ns", "lower"),
    layer("trace.overhead_ratio", "ratio", "higher"),
    layer("trace.span_cost_ns", "ns", "lower"),
    // Isolated replays.
    layer("crypto.record.seal_ns", "ns", "lower"),
    layer("crypto.record.open_ns", "ns", "lower"),
    layer("crypto.record.seal_ns_per_byte", "ns/B", "lower"),
    layer("crypto.record.share", "ratio", "lower"),
    layer("core.segment_ns", "ns", "lower"),
    layer("core.segment_seal_ns", "ns", "lower"),
    layer("core.reassembly_ns", "ns", "lower"),
    layer("core.reassembly_open_ns", "ns", "lower"),
    layer("core.ktls.send_ns", "ns", "lower"),
    layer("core.ktls.recv_ns", "ns", "lower"),
    layer("core.share", "ratio", "lower"),
    layer("transport.homa.op_ns", "ns", "lower"),
    layer("transport.homa.msg_ns_h100", "ns", "lower"),
    layer("transport.homa.msg_ns_h10k", "ns", "lower"),
    layer("transport.homa.history_slope", "ratio", "lower"),
    layer("transport.homa.pending_after_10k", "count", "lower"),
    layer("transport.shell_residual_ns", "ns", "lower"),
    layer("crypto.handshake.cold_us", "us", "lower"),
    layer("crypto.handshake.resumed_us", "us", "lower"),
    layer("crypto.handshake.derived_us", "us", "lower"),
    layer("crypto.handshake.share", "ratio", "lower"),
    layer("sim.fabric.ns_per_pkt", "ns", "lower"),
    layer("sim.eventq.ns_per_event", "ns", "lower"),
    layer("apps.kv.codec_ns", "ns", "lower"),
    layer("apps.kv.store_ns", "ns", "lower"),
    layer("wire.encode_ns_per_pkt", "ns", "lower"),
    layer("wire.decode_ns_per_pkt", "ns", "lower"),
    layer("wire.hdr_bytes_per_pkt", "B", "lower"),
    // How much the traced window and the reference window measured.
    layer("trace.ops", "count", "higher"),
    layer("trace.reference_ops_per_s", "op/s", "higher"),
    layer("trace.reference_host_p50_ns", "ns", "lower"),
];

/// Which clock a unit is on, for the human-readable lines.
pub fn clock(unit: &str) -> &'static str {
    if unit.starts_with("sim_") {
        "simulated"
    } else if matches!(unit, "count" | "ratio" | "B" | "KB" | "MB") {
        "-"
    } else {
        "host"
    }
}

/// Metric values in registry order.
pub struct Values {
    registry: &'static [Metric],
    values: Vec<f64>,
}

impl Values {
    /// All zeros for `registry`.
    pub fn new(registry: &'static [Metric]) -> Self {
        Self {
            registry,
            values: vec![0.0; registry.len()],
        }
    }

    /// Sets one metric; the name must be in the registry.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .registry
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// `(metric, value)` in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.registry.iter().zip(self.values.iter().copied())
    }
}

/// What one run reports.
pub struct RunResult {
    /// Every output was correct.
    pub correct: bool,
    /// Ops attempted in the window the metrics come from.
    pub attempted: u64,
    /// Of those, ops not completed correctly.
    pub failed: u64,
    /// The metrics of the run's mode.
    pub metrics: Values,
}

impl RunResult {
    /// The one-line JSON object a run prints last.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One aligned line per metric: name, value, unit, clock.
    pub fn print_table(&self) {
        for (m, v) in self.metrics.iter() {
            println!(
                "  {:<36} {:>18.4} {:<9} {}",
                m.name,
                v,
                m.unit,
                clock(m.unit)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut metrics = Values::new(&END_TO_END);
        metrics.set("setup_s", 0.8127);
        metrics.set("ops_per_s", f64::NAN);
        let line = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        }
        .json_line();
        assert!(!line.contains('\n'));
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&serde_json::Value::Bool(true)));
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value"),
            Some(&serde_json::Value::Number("0.8127".into()))
        );
        assert_eq!(
            setup.get("unit"),
            Some(&serde_json::Value::String("s".into()))
        );
        // A value that could not be measured reads zero, never NaN.
        let ops = v
            .get("metrics")
            .and_then(|m| m.get("ops_per_s"))
            .expect("ops_per_s");
        assert_eq!(
            ops.get("value"),
            Some(&serde_json::Value::Number("0".into()))
        );
    }
}
