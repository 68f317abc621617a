//! The metric registry and the result formats.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of truth for
//! metric names, units and directions; `BENCHMARK.json` at the repo root
//! mirrors them (a test compares the two), and the README glossary
//! explains them.

use serde_json::Value;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [MetricDef; 4] = [
    e2e("frames_per_s", "1/s", "higher", 0.24),
    e2e("inline_frames_per_s", "1/s", "higher", 0.24),
    e2e("heap_peak_mb", "MB", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

pub const PER_LAYER: [MetricDef; 64] = [
    layer("distill.ns_per_frame", "ns", "lower"),
    layer("distill.share", "share", "lower"),
    layer("distill.sip_ns", "ns", "lower"),
    layer("distill.rtp_ns", "ns", "lower"),
    layer("distill.footprints_per_frame", "count", "higher"),
    layer("routing.ns_per_frame", "ns", "lower"),
    layer("routing.share", "share", "lower"),
    layer("routing.synthetic_share", "share", "lower"),
    layer("routing.interner_live", "count", "lower"),
    layer("routing.media_index_live", "count", "lower"),
    layer("trail.ns_per_frame", "ns", "lower"),
    layer("trail.share", "share", "lower"),
    layer("trail.live_peak", "count", "lower"),
    layer("trail.retained_footprints_peak", "count", "lower"),
    layer("trail.expired", "count", "higher"),
    layer("trail.evicted", "count", "higher"),
    layer("event.ns_per_frame", "ns", "lower"),
    layer("event.share", "share", "lower"),
    layer("event.sip_ns", "ns", "lower"),
    layer("event.rtp_ns", "ns", "lower"),
    layer("event.events_per_frame", "count", "lower"),
    layer("event.session_plane_peak", "count", "lower"),
    layer("rules.ns_per_event", "ns", "lower"),
    layer("rules.ns_per_frame", "ns", "lower"),
    layer("rules.share", "share", "lower"),
    layer("rules.invocations_per_event", "count", "lower"),
    layer("rules.alerts_per_kframe", "count", "lower"),
    layer("rules.state_peak", "count", "lower"),
    layer("rules.detect_delay_ms", "ms", "lower"),
    layer("rules.detect_delay_max_ms", "ms", "lower"),
    layer("check.failed_share", "share", "lower"),
    layer("rate.bytes", "B", "lower"),
    layer("rate.fold_bytes", "B", "lower"),
    layer("rate.folds", "count", "lower"),
    layer("rate.fold_candidates", "count", "lower"),
    layer("rate.fold_barrier_us", "us", "lower"),
    layer("shard.submit_ns_per_frame", "ns", "lower"),
    layer("shard.dispatcher_busy_share", "share", "lower"),
    layer("shard.finish_ms", "ms", "lower"),
    layer("shard.batches", "count", "lower"),
    layer("shard.batch_fill_mean", "count", "higher"),
    layer("shard.enqueue_blocked", "count", "lower"),
    layer("shard.max_queue_depth", "count", "lower"),
    layer("shard.skew", "ratio", "lower"),
    layer("shard.overhead_share", "share", "lower"),
    layer("engine.ns_per_frame", "ns", "lower"),
    layer("engine.stage_sum_ns", "ns", "lower"),
    layer("engine.residual_share", "share", "lower"),
    layer("engine.frame_p50_us", "us", "lower"),
    layer("engine.frame_p99_us", "us", "lower"),
    layer("engine.frame_p999_us", "us", "lower"),
    layer("engine.frame_max_ms", "ms", "lower"),
    layer("engine.allocs_per_frame", "count", "lower"),
    layer("engine.alloc_bytes_per_frame", "B", "lower"),
    layer("observe.overhead_share", "share", "lower"),
    layer("trace.overhead_share", "share", "lower"),
    layer("trace.timer_ns", "ns", "lower"),
    layer("gen.materialise_s", "s", "lower"),
    layer("gen.frames", "count", "higher"),
    layer("gen.bytes_per_frame", "B", "higher"),
    layer("gen.sip_share", "share", "higher"),
    layer("gen.rtp_share", "share", "higher"),
    layer("gen.capture_s", "s", "higher"),
    layer("gen.fingerprint", "fnv32", "higher"),
];

/// Measured values in registry order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `defs`,
    /// each with its value and unit.
    ///
    /// # Panics
    ///
    /// Panics if a registered metric was not measured — the result line
    /// must carry every declared metric.
    pub fn to_json(&self, defs: &[MetricDef]) -> Value {
        Value::Map(
            defs.iter()
                .map(|d| {
                    let value = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                    (
                        d.name.to_string(),
                        Value::Map(vec![
                            ("value".to_string(), Value::F64(value)),
                            ("unit".to_string(), Value::Str(d.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric of `defs`.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            if let Some(v) = self.get(d.name) {
                println!("  {:<34} {:>16} {}", d.name, format_value(v), d.unit);
            }
        }
    }
}

fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The value under `key` of a JSON object.
pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
