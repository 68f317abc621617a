//! Pipeline observability: counters, gauges, fixed-bucket histograms and
//! an optional decision trace, snapshottable as a serializable
//! [`PipelineObservation`].
//!
//! The paper's evaluation (§4.3, §6) needs detection delay, drop/miss
//! accounting and per-component load; a production deployment needs to
//! see queue depths, match latencies and state growth *before* they
//! become outages. This module is the one place all of that lives:
//!
//! * **Counters** — monotonic `u64`s already kept by each stage
//!   ([`crate::engine::PipelineStats`], [`crate::distill::DistillStats`],
//!   [`crate::shard::DispatchStats`]) plus per-severity alert counts.
//! * **Gauges** ([`StateGauges`]) — the sizes that must plateau for the
//!   engine to be deployable: live trails, media correlation index,
//!   session interner, memoized synthetic keys — and the lifecycle
//!   counters proving expiry actually runs.
//! * **Histograms** ([`Histogram`]) — fixed-bucket, allocation-free
//!   recording of rule-evaluation latency (wall clock), detection delay
//!   (sim time from trail creation to alert), dispatch batch linger
//!   (capture time) and batch fill.
//! * **Trace** ([`DecisionTrace`]) — a bounded ring of the last N
//!   routing/match decisions, **off by default** (`trace_depth = 0`),
//!   enabled per engine via [`ObserveConfig`] for debugging misrouted
//!   footprints.
//!
//! Overhead discipline: with default settings (histograms on, trace
//! off) observation performs **zero heap allocations** on the per-frame
//! path — histograms are fixed arrays, gauges are field reads, and the
//! only per-frame cost is two `Instant::now()` calls on one footprint
//! in [`RULE_EVAL_SAMPLE`] (a deterministic latency sample). The bench
//! gate (`exp_observe_overhead`, wired into `scripts/ci.sh`) fails CI
//! if observation costs more than 5% of pipeline throughput.

use crate::alert::Severity;
use crate::distill::DistillStats;
use crate::engine::PipelineStats;
use scidive_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Observation settings, part of [`crate::engine::ScidiveConfig`].
#[derive(Debug, Clone)]
pub struct ObserveConfig {
    /// Record latency/delay/linger histograms. Cheap (no allocation,
    /// two `Instant::now()` per footprint); on by default.
    pub histograms: bool,
    /// Depth of the per-engine decision trace ring buffer. `0` (the
    /// default) disables tracing entirely — the per-frame path then
    /// allocates nothing for observation.
    pub trace_depth: usize,
}

impl Default for ObserveConfig {
    fn default() -> ObserveConfig {
        ObserveConfig {
            histograms: true,
            trace_depth: 0,
        }
    }
}

/// Bucket upper bounds for rule-evaluation wall-clock latency, in
/// nanoseconds: one footprint's evaluation takes tens to hundreds.
pub const RULE_EVAL_BUCKETS_NS: [u64; 11] = [
    25, 50, 100, 250, 500, 1_000, 2_500, 10_000, 100_000, 1_000_000, 10_000_000,
];

/// Bucket upper bounds for detection delay (trail creation → alert), in
/// sim-time milliseconds.
pub const DETECTION_DELAY_BUCKETS_MS: [u64; 11] =
    [1, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000];

/// Bucket upper bounds for dispatch batch linger (oldest buffered frame
/// → flush), in capture-time milliseconds.
pub const BATCH_LINGER_BUCKETS_MS: [u64; 9] = [1, 2, 5, 10, 25, 50, 100, 250, 1_000];

/// Bucket upper bounds for dispatch batch fill (frames per channel
/// send).
pub const BATCH_FILL_BUCKETS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// A fixed-bucket histogram: recording is a linear scan over a handful
/// of bounds plus three field updates — no allocation, ever.
///
/// `counts[i]` holds samples `<= bounds[i]` (and greater than the
/// previous bound); one extra overflow slot holds everything larger
/// than the last bound.
///
/// # Examples
///
/// ```
/// use scidive_core::observe::Histogram;
///
/// let mut h = Histogram::new(&[10, 100]);
/// h.record(3);
/// h.record(42);
/// h.record(9_000); // overflow bucket
/// assert_eq!(h.count, 3);
/// assert_eq!(h.max, 9_000);
/// assert_eq!(h.quantile(0.5), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive bucket upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts; `bounds.len() + 1` entries, the last
    /// being the overflow bucket.
    pub counts: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl Histogram {
    /// Creates an empty histogram over the given bounds.
    pub fn new(bounds: &[u64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of the `q`-quantile: the bound of the bucket
    /// in which the quantile falls, clamped to `max` (no sample is
    /// larger, and the overflow bucket has no bound of its own).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return self.bounds.get(i).map_or(self.max, |b| (*b).min(self.max));
            }
        }
        self.max
    }

    /// Folds another histogram (same bounds) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    fn summary(&self, label: &str, unit: &str) -> String {
        if self.is_empty() {
            return format!("{label:<22} (no samples)");
        }
        format!(
            "{label:<22} count={} mean={:.1}{unit} p50={}{unit} p95={}{unit} max={}{unit}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.95),
            self.max,
        )
    }
}

/// Alert counts broken down by severity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeverityCounts {
    /// Informational alerts.
    pub info: u64,
    /// Warning alerts.
    pub warning: u64,
    /// Critical alerts.
    pub critical: u64,
}

impl SeverityCounts {
    /// Counts one alert.
    pub fn record(&mut self, severity: Severity) {
        match severity {
            Severity::Info => self.info += 1,
            Severity::Warning => self.warning += 1,
            Severity::Critical => self.critical += 1,
        }
    }

    /// Total across severities.
    pub fn total(&self) -> u64 {
        self.info + self.warning + self.critical
    }
}

impl std::ops::Add for SeverityCounts {
    type Output = SeverityCounts;
    fn add(self, rhs: SeverityCounts) -> SeverityCounts {
        SeverityCounts {
            info: self.info + rhs.info,
            warning: self.warning + rhs.warning,
            critical: self.critical + rhs.critical,
        }
    }
}

/// The state sizes that must plateau for long-lived deployment, plus
/// the lifecycle counters proving expiry is doing its job.
///
/// The media index, interner and synthetic-key gauges read the one
/// index that attributes: a single engine's trail store's, or the
/// sharded dispatcher's router's (shard workers hold none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateGauges {
    /// Live trails across all engines.
    pub trails: u64,
    /// Learned `(addr, port) → session` media mappings.
    pub media_index: u64,
    /// Distinct interned session keys.
    pub interner: u64,
    /// Memoized synthetic keys (flow/other/sip-anon/sip-malformed).
    pub synthetic_keys: u64,
    /// Session entries held by rule state maps (partial matches and
    /// fired-once markers) across all rules.
    pub rule_state: u64,
    /// Per-session dialog states held by the event generators' session
    /// planes across all engines.
    pub session_plane: u64,
    /// `(flow, SSRC)` sequence histories held by the session planes (the
    /// per-flow SSRC sets never hold more flows than this).
    pub rtp_flows: u64,
    /// AOR → address bindings held by the identity plane.
    pub identity_bindings: u64,
    /// Trails dropped by the idle timeout (monotonic).
    pub expired_trails: u64,
    /// Trails evicted, oldest `last_active` first, at the live-trail cap
    /// [`crate::idle::MAX_LIVE_ENTRIES`] (monotonic; each a session
    /// whose history the rules lose early).
    pub trails_evicted: u64,
    /// Media mappings dropped by idle expiry (monotonic).
    pub media_expired: u64,
    /// Memoized synthetic keys dropped by idle expiry (monotonic).
    pub synthetic_expired: u64,
    /// Interned session keys dropped by idle expiry (monotonic).
    pub interner_expired: u64,
    /// Rule state entries dropped by idle expiry (monotonic).
    pub rule_state_expired: u64,
    /// Session-plane dialog states dropped by idle expiry (monotonic).
    pub session_plane_expired: u64,
    /// Threshold observations the engines' own tables dropped by cap
    /// eviction (monotonic; each a possible miss, never a false alarm).
    /// The fold plane's evictions are
    /// [`DispatchCounters::fold_evicted`].
    pub rule_state_evicted: u64,
    /// Entries evicted at [`crate::idle::MAX_LIVE_ENTRIES`] from every
    /// idle-expiring store other than the trails — media index, key
    /// memos, session planes, RTP flow history, identity bindings, rule
    /// state maps (monotonic; each a possible miss).
    pub evicted_entries: u64,
    /// Events generated but not kept for cooperative exchange because
    /// the log was at [`crate::engine::ScidiveConfig::event_log_cap`]
    /// (monotonic).
    pub event_log_dropped: u64,
    /// Bytes pinned by rate state: the identity plane's flood and guess
    /// tables (together capped at [`crate::rate::TABLE_BYTES_CAP`]) plus
    /// the engines' threshold tables (each capped at it) and fold
    /// outboxes.
    pub rate_bytes: u64,
    /// Identity-plane flood/guess observations dropped by the tables'
    /// cap eviction (monotonic; each a possible miss, never a false
    /// alarm).
    pub rate_evicted: u64,
    /// Bytes pinned by the dispatcher's cross-shard fold plane: one
    /// threshold table per clause, each capped at
    /// [`crate::rate::TABLE_BYTES_CAP`] (0 unless the sharded pipeline
    /// runs with aggregation on).
    pub fold_rate_bytes: u64,
    /// Generation of the installed ruleset (0 for the boot ruleset,
    /// bumped by every [`crate::shard::ShardedScidive::swap_ruleset`] /
    /// [`crate::engine::Scidive::swap_ruleset`]; merged by max, since
    /// every engine installs the same blueprint at a swap barrier).
    pub ruleset_generation: u64,
}

impl std::ops::Add for StateGauges {
    type Output = StateGauges;
    fn add(self, rhs: StateGauges) -> StateGauges {
        StateGauges {
            trails: self.trails + rhs.trails,
            media_index: self.media_index + rhs.media_index,
            interner: self.interner + rhs.interner,
            synthetic_keys: self.synthetic_keys + rhs.synthetic_keys,
            rule_state: self.rule_state + rhs.rule_state,
            session_plane: self.session_plane + rhs.session_plane,
            rtp_flows: self.rtp_flows + rhs.rtp_flows,
            identity_bindings: self.identity_bindings + rhs.identity_bindings,
            expired_trails: self.expired_trails + rhs.expired_trails,
            trails_evicted: self.trails_evicted + rhs.trails_evicted,
            media_expired: self.media_expired + rhs.media_expired,
            synthetic_expired: self.synthetic_expired + rhs.synthetic_expired,
            interner_expired: self.interner_expired + rhs.interner_expired,
            rule_state_expired: self.rule_state_expired + rhs.rule_state_expired,
            session_plane_expired: self.session_plane_expired + rhs.session_plane_expired,
            rule_state_evicted: self.rule_state_evicted + rhs.rule_state_evicted,
            evicted_entries: self.evicted_entries + rhs.evicted_entries,
            event_log_dropped: self.event_log_dropped + rhs.event_log_dropped,
            rate_bytes: self.rate_bytes + rhs.rate_bytes,
            rate_evicted: self.rate_evicted + rhs.rate_evicted,
            fold_rate_bytes: self.fold_rate_bytes + rhs.fold_rate_bytes,
            ruleset_generation: self.ruleset_generation.max(rhs.ruleset_generation),
        }
    }
}

/// Dispatcher-side counters and queue gauges (all zero for a plain
/// single engine driven via [`crate::engine::Scidive::on_frame`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatchCounters {
    /// Frames submitted to the dispatcher.
    pub frames: u64,
    /// Frames that produced no footprint (fragments in flight).
    pub empty_frames: u64,
    /// Footprints resolved to synthetic (unattributable) sessions.
    pub overflow_frames: u64,
    /// Frames dropped (structurally zero: backpressure blocks instead).
    pub dropped: u64,
    /// Batches shipped over shard channels.
    pub batches_sent: u64,
    /// Flushes that found a shard queue full and had to block.
    pub enqueue_blocked: u64,
    /// Highest per-shard queue depth (in batches) observed at any flush.
    pub max_queue_depth: u64,
    /// Per-shard queue depth (in batches) at snapshot time.
    pub queue_depths: Vec<u64>,
    /// Fold barriers executed by the cross-shard rate plane (periodic +
    /// the finish fold; 0 with aggregation off).
    pub folds: u64,
    /// Per-shard rate deltas absorbed across all folds.
    pub fold_deltas: u64,
    /// Threshold observations shards forwarded for global evaluation.
    pub fold_candidates: u64,
    /// Alerts the global rate evaluation emitted.
    pub fold_alerts: u64,
    /// Observations the fold plane dropped at its byte cap (each a
    /// possible miss, never a false alarm).
    pub fold_evicted: u64,
    /// Ruleset hot swaps executed (each one a full swap barrier across
    /// every shard).
    pub ruleset_swaps: u64,
    /// Ruleset swap attempts rejected because the replacement program
    /// failed to compile (the running ruleset stays installed).
    pub ruleset_compile_errors: u64,
}

/// The fixed histogram set recorded across the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObservedHistograms {
    /// Wall-clock rule-evaluation latency per footprint, nanoseconds.
    pub rule_eval_ns: Histogram,
    /// Sim-time from the triggering trail's creation to each alert,
    /// milliseconds.
    pub detection_delay_ms: Histogram,
    /// Capture-time a batch's oldest frame waited before its flush,
    /// milliseconds.
    pub batch_linger_ms: Histogram,
    /// Frames per dispatched batch.
    pub batch_fill: Histogram,
}

impl Default for ObservedHistograms {
    fn default() -> ObservedHistograms {
        ObservedHistograms {
            rule_eval_ns: Histogram::new(&RULE_EVAL_BUCKETS_NS),
            detection_delay_ms: Histogram::new(&DETECTION_DELAY_BUCKETS_MS),
            batch_linger_ms: Histogram::new(&BATCH_LINGER_BUCKETS_MS),
            batch_fill: Histogram::new(&BATCH_FILL_BUCKETS),
        }
    }
}

impl ObservedHistograms {
    /// Folds another set into this one.
    pub fn merge(&mut self, other: &ObservedHistograms) {
        self.rule_eval_ns.merge(&other.rule_eval_ns);
        self.detection_delay_ms.merge(&other.detection_delay_ms);
        self.batch_linger_ms.merge(&other.batch_linger_ms);
        self.batch_fill.merge(&other.batch_fill);
    }
}

/// Which component recorded a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceStage {
    /// A dispatcher routing verdict.
    Route,
    /// An engine match outcome.
    Match,
}

impl std::fmt::Display for TraceStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraceStage::Route => "route",
            TraceStage::Match => "match",
        })
    }
}

/// One traced decision: either a dispatcher routing verdict
/// ([`TraceStage::Route`]) or an engine match outcome
/// ([`TraceStage::Match`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Footprint ordinal within the recording component.
    pub seq: u64,
    /// Capture time of the footprint.
    pub time: SimTime,
    /// Owning shard (dispatcher: the routing verdict; engine entries
    /// are stamped with their shard id at merge, 0 for a single engine).
    pub shard: usize,
    /// The recording component.
    pub stage: TraceStage,
    /// The resolved session key text.
    pub session: String,
    /// The footprint's protocol trail.
    pub proto: String,
    /// Events the footprint generated (match entries only).
    pub events: u32,
    /// Alerts the footprint raised (match entries only).
    pub alerts: u32,
}

/// A bounded ring of the last N [`TraceEntry`]s. Depth 0 (the default)
/// disables recording entirely.
#[derive(Debug, Clone, Default)]
pub struct DecisionTrace {
    depth: usize,
    entries: VecDeque<TraceEntry>,
}

impl DecisionTrace {
    /// Creates a trace ring of the given depth (0 = disabled).
    pub fn new(depth: usize) -> DecisionTrace {
        DecisionTrace {
            depth,
            entries: VecDeque::with_capacity(depth.min(1024)),
        }
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// Records an entry, evicting the oldest beyond the depth. No-op
    /// when disabled.
    pub fn push(&mut self, entry: TraceEntry) {
        if self.depth == 0 {
            return;
        }
        if self.entries.len() == self.depth {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Drains the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<TraceEntry> {
        self.entries.into()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Exact `on_event` invocation count for one rule. The compiled
/// dispatch table made these counters nearly free (one array increment
/// per dispatched rule), so they are exact, not sampled — unlike the
/// wall-clock latency histogram, which stays on its 1-in-
/// [`RULE_EVAL_SAMPLE`] schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleEval {
    /// The rule id.
    pub rule: String,
    /// Times the rule's `on_event` ran.
    pub evals: u64,
}

/// Folds per-rule invocation counts from one engine into a merged list,
/// matching by rule id (shards run identical rulesets, so ids line up;
/// unseen ids append in the order they arrive).
pub fn merge_rule_evals(into: &mut Vec<RuleEval>, other: &[RuleEval]) {
    for o in other {
        if let Some(e) = into.iter_mut().find(|e| e.rule == o.rule) {
            e.evals += o.evals;
        } else {
            into.push(o.clone());
        }
    }
}

/// The engine-side slice of an observation: what one [`crate::engine::Scidive`]
/// (a shard worker, or the whole pipeline when unsharded) contributes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineObservation {
    /// The engine's pipeline counters.
    pub stats: PipelineStats,
    /// Its alerts by severity.
    pub severity: SeverityCounts,
    /// Rule-evaluation latency histogram, nanoseconds.
    pub rule_eval_ns: Histogram,
    /// Detection-delay histogram.
    pub detection_delay_ms: Histogram,
    /// Exact per-rule `on_event` invocation counts.
    pub rule_evals: Vec<RuleEval>,
    /// Its trail-store / media-index gauges.
    pub gauges: StateGauges,
    /// Its decision trace (empty unless `trace_depth > 0`).
    pub trace: Vec<TraceEntry>,
}

/// The per-engine recorder: histograms, severity counts and the trace
/// ring. Owned by every [`crate::engine::Scidive`].
#[derive(Debug)]
pub struct EngineObserver {
    histograms: bool,
    rule_eval_ns: Histogram,
    detection_delay_ms: Histogram,
    severity: SeverityCounts,
    trace: DecisionTrace,
    seq: u64,
    /// Footprint counter driving the 1-in-[`RULE_EVAL_SAMPLE`]
    /// rule-eval timing sample.
    sampler: u32,
}

/// Rule-evaluation latency is timed for one footprint in this many:
/// clock reads are the only per-frame cost of observation, and a
/// deterministic 1-in-8 sample keeps the histogram representative while
/// making that cost negligible.
pub const RULE_EVAL_SAMPLE: u32 = 8;

impl EngineObserver {
    /// Creates a recorder for the given settings.
    pub fn new(config: &ObserveConfig) -> EngineObserver {
        EngineObserver {
            histograms: config.histograms,
            rule_eval_ns: Histogram::new(&RULE_EVAL_BUCKETS_NS),
            detection_delay_ms: Histogram::new(&DETECTION_DELAY_BUCKETS_MS),
            severity: SeverityCounts::default(),
            trace: DecisionTrace::new(config.trace_depth),
            seq: 0,
            sampler: 0,
        }
    }

    /// Starts timing one footprint's rule evaluation. Returns `None`
    /// when histograms are off, and for all but one footprint in
    /// [`RULE_EVAL_SAMPLE`] — the caller then skips `Instant` entirely.
    pub fn match_timer(&mut self) -> Option<std::time::Instant> {
        if !self.histograms {
            return None;
        }
        self.sampler = self.sampler.wrapping_add(1);
        self.sampler
            .is_multiple_of(RULE_EVAL_SAMPLE)
            .then(std::time::Instant::now)
    }

    /// Records the elapsed rule-evaluation time.
    pub fn record_match(&mut self, timer: Option<std::time::Instant>) {
        if let Some(t) = timer {
            self.rule_eval_ns.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// Records one alert: severity count plus detection delay measured
    /// from the triggering trail's creation.
    pub fn record_alert(&mut self, severity: Severity, delay: Option<SimDuration>) {
        self.severity.record(severity);
        if self.histograms {
            if let Some(d) = delay {
                self.detection_delay_ms.record(d.as_micros() / 1_000);
            }
        }
    }

    /// Whether the trace ring is recording (callers skip building
    /// entries when not).
    pub fn trace_enabled(&self) -> bool {
        self.trace.enabled()
    }

    /// Records a match decision in the trace ring and returns the
    /// footprint ordinal used.
    pub fn push_trace(&mut self, time: SimTime, session: String, proto: String, events: u32, alerts: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.trace.push(TraceEntry {
            seq,
            time,
            shard: 0,
            stage: TraceStage::Match,
            session,
            proto,
            events,
            alerts,
        });
    }

    /// Alert counts by severity so far.
    pub fn severity(&self) -> SeverityCounts {
        self.severity
    }

    /// Snapshot of the engine-side observation, given the engine's
    /// counters, state gauges and exact per-rule invocation counts.
    pub fn observation(
        &self,
        stats: PipelineStats,
        gauges: StateGauges,
        rule_evals: Vec<RuleEval>,
    ) -> EngineObservation {
        EngineObservation {
            stats,
            severity: self.severity,
            rule_eval_ns: self.rule_eval_ns.clone(),
            detection_delay_ms: self.detection_delay_ms.clone(),
            rule_evals,
            gauges,
            trace: self.trace.clone().into_vec(),
        }
    }
}

/// A full, serializable snapshot of what the pipeline has been doing:
/// every stage's counters, the state gauges that must plateau, the
/// latency histograms, and (when enabled) the decision trace.
///
/// Returned by [`crate::engine::Scidive::observation`] and
/// [`crate::shard::ShardedScidive::observation`] /
/// [`crate::shard::ShardedReport::observation`]; render it with
/// [`PipelineObservation::report`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineObservation {
    /// Summed engine pipeline counters (frames/footprints/events/alerts).
    pub pipeline: PipelineStats,
    /// Alerts by severity.
    pub severity: SeverityCounts,
    /// Distiller counters (dispatcher-side in a sharded deployment).
    pub distill: DistillStats,
    /// Dispatcher counters and queue gauges.
    pub dispatch: DispatchCounters,
    /// State sizes and lifecycle counters.
    pub gauges: StateGauges,
    /// The histogram set.
    pub hist: ObservedHistograms,
    /// Exact per-rule `on_event` invocation counts, summed across
    /// engines.
    pub rule_evals: Vec<RuleEval>,
    /// Merged decision trace, empty unless `trace_depth > 0`.
    pub trace: Vec<TraceEntry>,
}

impl PipelineObservation {
    /// Renders the observation as the `results/`-style text report the
    /// bench harness emits.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== SCIDIVE pipeline observation ==");
        let _ = writeln!(
            out,
            "pipeline   frames={} footprints={} events={} alerts={} (crit={} warn={} info={})",
            self.pipeline.frames,
            self.pipeline.footprints,
            self.pipeline.events,
            self.pipeline.alerts,
            self.severity.critical,
            self.severity.warning,
            self.severity.info,
        );
        let _ = writeln!(
            out,
            "distill    frames={} footprints={} frag_buffered={} reassembled={} corrupt_udp={} malformed_sip={}",
            self.distill.frames,
            self.distill.footprints,
            self.distill.fragments_buffered,
            self.distill.reassembled,
            self.distill.corrupt_udp,
            self.distill.malformed_sip,
        );
        let _ = writeln!(
            out,
            "dispatch   frames={} batches={} empty={} overflow={} dropped={} blocked={} max_queue={} queues={:?}",
            self.dispatch.frames,
            self.dispatch.batches_sent,
            self.dispatch.empty_frames,
            self.dispatch.overflow_frames,
            self.dispatch.dropped,
            self.dispatch.enqueue_blocked,
            self.dispatch.max_queue_depth,
            self.dispatch.queue_depths,
        );
        let _ = writeln!(
            out,
            "state      trails={} media_index={} interner={} synthetic_keys={} rule_state={} session_plane={}",
            self.gauges.trails,
            self.gauges.media_index,
            self.gauges.interner,
            self.gauges.synthetic_keys,
            self.gauges.rule_state,
            self.gauges.session_plane,
        );
        let _ = writeln!(
            out,
            "lifecycle  expired_trails={} trails_evicted={} media_expired={} synthetic_expired={} interner_expired={} rule_state_expired={} rule_state_evicted={} session_plane_expired={} rtp_flows={} identity_bindings={} evicted_entries={} event_log_dropped={}",
            self.gauges.expired_trails,
            self.gauges.trails_evicted,
            self.gauges.media_expired,
            self.gauges.synthetic_expired,
            self.gauges.interner_expired,
            self.gauges.rule_state_expired,
            self.gauges.rule_state_evicted,
            self.gauges.session_plane_expired,
            self.gauges.rtp_flows,
            self.gauges.identity_bindings,
            self.gauges.evicted_entries,
            self.gauges.event_log_dropped,
        );
        let _ = writeln!(
            out,
            "rate       bytes={} evicted={}",
            self.gauges.rate_bytes,
            self.gauges.rate_evicted,
        );
        let _ = writeln!(
            out,
            "fold       folds={} deltas={} observations={} evicted={} alerts={} bytes={}",
            self.dispatch.folds,
            self.dispatch.fold_deltas,
            self.dispatch.fold_candidates,
            self.dispatch.fold_evicted,
            self.dispatch.fold_alerts,
            self.gauges.fold_rate_bytes,
        );
        let _ = writeln!(
            out,
            "ruleset    generation={} swaps={} compile_errors={}",
            self.gauges.ruleset_generation,
            self.dispatch.ruleset_swaps,
            self.dispatch.ruleset_compile_errors,
        );
        if !self.rule_evals.is_empty() {
            let _ = write!(out, "rule_evals");
            for e in &self.rule_evals {
                let _ = write!(out, " {}={}", e.rule, e.evals);
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "{}", self.hist.rule_eval_ns.summary("rule_eval", "ns"));
        let _ = writeln!(
            out,
            "{}",
            self.hist.detection_delay_ms.summary("detection_delay", "ms")
        );
        let _ = writeln!(
            out,
            "{}",
            self.hist.batch_linger_ms.summary("batch_linger", "ms")
        );
        let _ = writeln!(out, "{}", self.hist.batch_fill.summary("batch_fill", ""));
        if !self.trace.is_empty() {
            let _ = writeln!(out, "trace      (last {} decisions)", self.trace.len());
            for e in &self.trace {
                let _ = writeln!(
                    out,
                    "  [{}] #{:<6} {:<5} shard={} {} {} events={} alerts={}",
                    e.time, e.seq, e.stage, e.shard, e.proto, e.session, e.events, e.alerts
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 5, 10, 11, 99, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.counts, vec![3, 3, 0, 1]);
        assert_eq!(h.max, 5000);
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(0.5), 100);
        assert_eq!(h.quantile(1.0), 5000); // overflow bucket → max
        assert!((h.mean() - (1 + 5 + 10 + 11 + 99 + 100 + 5000) as f64 / 7.0).abs() < 1e-9);
    }

    /// A bucket's upper bound can exceed every sample in it; a reported
    /// quantile never exceeds the reported maximum.
    #[test]
    fn quantile_is_clamped_to_the_largest_sample() {
        let mut h = Histogram::new(&DETECTION_DELAY_BUCKETS_MS);
        h.record(1_020);
        assert_eq!((h.quantile(0.5), h.quantile(0.95), h.max), (1_020, 1_020, 1_020));
        h.record(3);
        assert_eq!((h.quantile(0.5), h.quantile(1.0)), (5, 1_020));
    }

    #[test]
    fn histogram_merge_sums() {
        let mut a = Histogram::new(&RULE_EVAL_BUCKETS_NS);
        let mut b = Histogram::new(&RULE_EVAL_BUCKETS_NS);
        a.record(3);
        b.record(30);
        b.record(300_000);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.max, 300_000);
    }

    /// A sub-microsecond rule evaluation reads as its nanoseconds, not
    /// as zero.
    #[test]
    fn rule_eval_records_nanoseconds() {
        let mut observer = EngineObserver::new(&ObserveConfig::default());
        let started = std::time::Instant::now() - std::time::Duration::from_nanos(600);
        observer.record_match(Some(started));
        let hist = observer
            .observation(Default::default(), StateGauges::default(), Vec::new())
            .rule_eval_ns;
        assert_eq!(hist.count, 1);
        assert!(hist.max >= 600, "{hist:?}");
    }

    #[test]
    #[should_panic(expected = "histogram bounds mismatch")]
    fn histogram_merge_checks_bounds() {
        let mut a = Histogram::new(&[1]);
        a.merge(&Histogram::new(&[2]));
    }

    #[test]
    fn trace_ring_caps_and_evicts() {
        let mut t = DecisionTrace::new(2);
        for seq in 0..5 {
            t.push(TraceEntry {
                seq,
                time: SimTime::from_millis(seq),
                shard: 0,
                stage: TraceStage::Match,
                session: format!("s{seq}"),
                proto: "Sip".into(),
                events: 0,
                alerts: 0,
            });
        }
        let kept: Vec<u64> = t.entries().map(|e| e.seq).collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = DecisionTrace::new(0);
        assert!(!t.enabled());
        t.push(TraceEntry {
            seq: 0,
            time: SimTime::ZERO,
            shard: 0,
            stage: TraceStage::Route,
            session: "s".into(),
            proto: "Rtp".into(),
            events: 0,
            alerts: 0,
        });
        assert!(t.is_empty());
    }

    #[test]
    fn rule_evals_merge_by_id() {
        let mut a = vec![
            RuleEval {
                rule: "x".into(),
                evals: 2,
            },
            RuleEval {
                rule: "y".into(),
                evals: 1,
            },
        ];
        let b = vec![
            RuleEval {
                rule: "y".into(),
                evals: 5,
            },
            RuleEval {
                rule: "z".into(),
                evals: 3,
            },
        ];
        merge_rule_evals(&mut a, &b);
        assert_eq!(a.len(), 3);
        assert_eq!(a[1].evals, 6);
        assert_eq!(a[2].rule, "z");
    }

    #[test]
    fn severity_counts_add_up() {
        let mut s = SeverityCounts::default();
        s.record(Severity::Info);
        s.record(Severity::Critical);
        s.record(Severity::Critical);
        assert_eq!(s.total(), 3);
        assert_eq!((s + s).critical, 4);
    }

    #[test]
    fn observation_report_renders() {
        let obs = PipelineObservation {
            pipeline: PipelineStats {
                frames: 10,
                footprints: 9,
                events: 4,
                alerts: 2,
            },
            severity: SeverityCounts {
                info: 0,
                warning: 1,
                critical: 1,
            },
            distill: DistillStats::default(),
            dispatch: DispatchCounters::default(),
            gauges: StateGauges::default(),
            hist: ObservedHistograms::default(),
            rule_evals: vec![RuleEval {
                rule: "sip-format".into(),
                evals: 4,
            }],
            trace: vec![],
        };
        let text = obs.report();
        assert!(text.contains("frames=10"));
        assert!(text.contains("sip-format=4"));
        assert!(text.contains("crit=1"));
        assert!(text.contains("rule_eval"));
        // Round-trips through the vendored serde.
        let v = serde::Serialize::to_value(&obs);
        let back: PipelineObservation = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back.pipeline, obs.pipeline);
    }
}
