//! Metric names and units, failure accounting, order statistics and the
//! JSON the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("vectors_per_s", "vectors/s"),
    m("req_per_s", "req/s"),
    m("req_ms_p50", "ms"),
    m("req_ms_p99", "ms"),
    m("peak_rss_mb", "MiB"),
];

/// Printed by every traced run, on every workload. A layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("netlist.ingest_s", "s"),
    m("lint.check_s", "s"),
    m("lint.findings", "count"),
    m("techmap.map_s", "s"),
    m("techmap.luts", "count"),
    m("techmap.eco_map_s", "s"),
    m("techmap.cut_reuse", "ratio"),
    m("core.phased_s", "s"),
    m("core.arcs", "count"),
    m("core.ee_s", "s"),
    m("core.ee_pairs", "count"),
    m("core.trigger_hit_ratio", "ratio"),
    m("core.area_gates", "gates"),
    m("sim.scalar_s", "s"),
    m("sim.scalar_events", "count"),
    m("sim.scalar_events_per_s", "events/s"),
    m("sim.plain_delay_ns", "ns"),
    m("sim.ee_delay_ns", "ns"),
    m("sim.batch_s", "s"),
    m("sim.batch_events", "count"),
    m("sim.batch_events_per_s", "events/s"),
    m("sim.sync_s", "s"),
    m("sim.sync_vectors_per_s", "vectors/s"),
    m("sim.durable_s", "s"),
    m("sim.run_stream_s", "s"),
    m("sim.durable_overhead", "ratio"),
    m("sim.checkpoint_bytes", "bytes"),
    m("sim.windows", "count"),
    m("sim.windows_retried", "count"),
    m("flow.simulate_self_s", "s"),
    m("flow.eco_apply_ms_p50", "ms"),
    m("flow.eco_downstream_s", "s"),
    m("flow.eco_skip_ratio", "ratio"),
    m("serve.hit_ms_p50", "ms"),
    m("serve.miss_ms_p50", "ms"),
    m("serve.eco_ms_p50", "ms"),
    m("serve.reject_ms_p50", "ms"),
    m("serve.overhead_ms_p50", "ms"),
    m("serve.hit_ratio", "ratio"),
    m("serve.evictions", "count"),
    m("serve.rejects", "count"),
    m("trace.uncovered_share", "ratio"),
    m("trace.overhead", "ratio"),
];

/// Counts checked operations and the ones that failed. A failed check
/// never aborts the run; it is counted and its first few causes kept.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub causes: Vec<String>,
}

impl Checker {
    /// Records `ops` operations whose check came out `ok`.
    pub fn check(&mut self, ops: u64, ok: bool, cause: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.causes.len() < 16 {
                self.causes.push(cause());
            }
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for c in other.causes {
            if self.causes.len() < 16 {
                self.causes.push(c);
            }
        }
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub check: Checker,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample count behind each metric that aggregates samples.
    pub samples: BTreeMap<&'static str, usize>,
    /// The per-pass or per-phase values behind a median, in run order.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Deterministic values that must repeat exactly at the same seed:
    /// simulated metrics, counts and output digests.
    pub repeatable: BTreeMap<String, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn samples(&mut self, name: &'static str, n: usize) {
        self.samples.insert(name, n);
    }

    pub fn pin(&mut self, key: impl Into<String>, value: impl ToString) {
        self.repeatable.insert(key.into(), value.to_string());
    }
}

/// Median of the samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Nearest-rank percentile `q` in `(0, 1]` of the samples (0 for none).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive samples (0 for none).
pub fn geomean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object from already-encoded values.
pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: every metric of `table` with its unit. A metric the
/// run did not set reads 0 and is listed in the returned `missing`.
pub fn result_line(outcome: &Outcome, table: &[Metric]) -> (String, Vec<&'static str>) {
    let mut missing = Vec::new();
    let metrics = object(table.iter().map(|m| {
        let value = outcome.metrics.get(m.name).copied().unwrap_or_else(|| {
            missing.push(m.name);
            0.0
        });
        (
            m.name,
            object([("value", num(value)), ("unit", string(m.unit))]),
        )
    }));
    let line = object([
        ("correct", (outcome.check.failed == 0).to_string()),
        ("attempted", outcome.check.attempted.to_string()),
        ("failed", outcome.check.failed.to_string()),
        ("metrics", metrics),
    ]);
    (line, missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_escapes_and_numbers() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(
            object([("k", num(2.0))]),
            "{\"k\": 2}",
            "integral values print without a fraction"
        );
    }
}
