//! One workload, measured: the end-to-end run (tracing off) and the
//! per-layer run (traced), each yielding the result line the driver
//! reads.

use crate::check::{self, Verdict};
use crate::gen::Workload;
use crate::report::{map, median, Metrics};
use crate::sut::{self, ComposedRun, InlineRun, ShardedRun};
use crate::trace::{self, Stage, Trace};
use scidive_netsim::time::SimDuration;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up measurements per run; the median is reported.
const SETUP_REPS: usize = 31;
/// Measured inline+sharded pairs per end-to-end run, whatever `--seconds`
/// says: a median needs at least three samples.
const MIN_PAIRS: usize = 3;
const MAX_PAIRS: usize = 25;

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Keep starting new repetitions until this much time has passed.
    pub seconds: f64,
    /// Exactly this many repetitions instead, when set.
    pub reps: Option<usize>,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Values that must repeat exactly between two runs of the same
    /// code on the same seed.
    pub exact: String,
    /// Extra facts for the results header (repetitions, shards, ...).
    pub facts: Value,
    /// The span dump of a per-layer run.
    pub trace: Option<Value>,
}

impl Outcome {
    /// The line the driver parses: `correct`, `attempted`, `failed` and
    /// the metrics of `defs`.
    pub fn result_line(&self, defs: &[crate::report::MetricDef]) -> String {
        let line = map(vec![
            ("correct", Value::Bool(self.failed == 0)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", self.metrics.to_json(defs)),
        ]);
        serde_json::to_string(&line).expect("the stub serialiser is total")
    }
}

/// Accumulates failed checks.
#[derive(Debug, Default)]
struct Failures {
    count: u64,
    lines: Vec<String>,
}

impl Failures {
    fn add(&mut self, n: u64, what: impl FnOnce() -> String) {
        if n > 0 {
            self.count += n;
            self.lines.push(what());
        }
    }

    fn verdict(&mut self, path: &str, v: &Verdict) {
        for (kind, items) in [
            ("missing detection", &v.missing),
            ("late detection", &v.late),
            ("unexplained Critical alert", &v.unexplained),
        ] {
            for item in items {
                self.add(1, || format!("{path}: {kind}: {item}"));
            }
        }
    }
}

/// The checks every inline+sharded pair must pass: all frames accounted
/// for, every attack detected in time on both paths, nothing unexplained,
/// and both alert streams equal.
fn check_pair(
    w: &Workload,
    fold_interval: SimDuration,
    inline: &InlineRun,
    sharded: &ShardedRun,
    fails: &mut Failures,
) -> Verdict {
    let frames = w.frames.len() as u64;
    let report = &sharded.report;
    fails.add(report.dispatch.dropped, || {
        "sharded: frames dropped".to_string()
    });
    fails.add(frames.abs_diff(report.dispatch.frames), || {
        format!(
            "sharded: dispatcher saw {} of {frames} frames",
            report.dispatch.frames
        )
    });
    fails.add(frames.abs_diff(report.stats.frames), || {
        format!(
            "sharded: shards processed {} of {frames} frames",
            report.stats.frames
        )
    });
    fails.add(frames.abs_diff(inline.stats.frames), || {
        format!(
            "inline: engine processed {} of {frames} frames",
            inline.stats.frames
        )
    });
    let v_sharded = check::verdict(&w.attacks, &report.alerts, fold_interval);
    let v_inline = check::verdict(&w.attacks, &inline.alerts, SimDuration::from_micros(0));
    fails.verdict("sharded", &v_sharded);
    fails.verdict("inline", &v_inline);
    fails.add(
        check::stream_differences(&report.alerts, &inline.alerts),
        || "sharded and inline alert streams differ".to_string(),
    );
    v_sharded
}

fn samples_json(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|v| Value::F64(*v)).collect())
}

fn facts(w: &Workload, shards: usize, reps: usize, samples: Vec<(&str, Value)>) -> Value {
    let mut entries = vec![
        ("shards", Value::U64(shards as u64)),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("queue_depth", Value::U64(sut::QUEUE_DEPTH as u64)),
        ("repetitions", Value::U64(reps as u64)),
        ("expected_detections", Value::U64(w.attacks.len() as u64)),
    ];
    entries.extend(samples);
    map(entries)
}

/// The end-to-end run: set-up measured [`SETUP_REPS`] times, then
/// alternating inline and sharded passes over the whole workload until
/// the budget is spent; every throughput and the heap peak are medians
/// over the passes. Tracing is off.
pub fn end_to_end(w: &Workload, budget: Budget) -> Outcome {
    let shards = sut::shard_count();
    let cfg = sut::config(&w.spec, true);
    let frames = w.frames.len() as f64;
    let mut fails = Failures::default();

    let setup_reps = if budget.reps == Some(1) {
        3
    } else {
        SETUP_REPS
    };
    let setups: Vec<f64> = (0..setup_reps)
        .map(|_| sut::setup(&w.frames, &w.spec, shards).as_secs_f64())
        .collect();

    let started = Instant::now();
    let (mut inline_fps, mut sharded_fps, mut heap_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<(u64, u64, u64)> = None;
    let mut exact = String::new();
    loop {
        let inline = sut::inline(&w.frames, &cfg);
        let sharded = sut::sharded(&w.frames, &cfg, shards);
        inline_fps.push(frames / inline.wall.as_secs_f64());
        sharded_fps.push(frames / sharded.wall.as_secs_f64());
        heap_mb.push(sharded.heap_peak as f64 / 1e6);
        let counts = (
            sharded.report.alerts.len() as u64,
            sharded.report.stats.events,
            inline.stats.events,
        );
        match first {
            None => {
                let v = check_pair(w, cfg.fold.interval, &inline, &sharded, &mut fails);
                exact = format!(
                    "alerts={} events={} detected={} delay_ms={:.3} fingerprint={:016x}",
                    counts.0,
                    counts.1,
                    v.delays_ms.len(),
                    median_or_zero(&v.delays_ms),
                    w.stats.fingerprint
                );
                first = Some(counts);
            }
            Some(expected) => fails.add(u64::from(counts != expected), || {
                format!("repetition produced {counts:?} (alerts, events, inline events), first produced {expected:?}")
            }),
        }
        let done = match budget.reps {
            Some(n) => inline_fps.len() >= n,
            None => {
                inline_fps.len() >= MIN_PAIRS && started.elapsed().as_secs_f64() >= budget.seconds
            }
        };
        if done || inline_fps.len() >= MAX_PAIRS {
            break;
        }
    }

    let mut metrics = Metrics::default();
    metrics.set("frames_per_s", median(&sharded_fps));
    metrics.set("inline_frames_per_s", median(&inline_fps));
    metrics.set("heap_peak_mb", median(&heap_mb));
    metrics.set("setup_s", median(&setups));
    Outcome {
        attempted: w.frames.len() as u64 + w.attacks.len() as u64,
        failed: fails.count,
        metrics,
        failures: fails.lines,
        exact,
        facts: facts(
            w,
            shards,
            inline_fps.len(),
            vec![
                ("frames_per_s_samples", samples_json(&sharded_fps)),
                ("inline_frames_per_s_samples", samples_json(&inline_fps)),
                ("heap_peak_mb_samples", samples_json(&heap_mb)),
                ("setup_s_samples", samples_json(&setups)),
            ],
        ),
        trace: None,
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean span of `count` spans totalling `total_ns`, net of one clock read.
fn net_mean(total_ns: u64, count: u64, timer_ns: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        (total_ns as f64 / count as f64 - timer_ns).max(0.0)
    }
}

/// Net time of a stage: its spans minus one clock read each.
fn net_ns(trace: &Trace, stage: Stage, timer_ns: f64) -> f64 {
    let a = trace.aggregate(stage);
    (a.total_ns as f64 - a.count as f64 * timer_ns).max(0.0)
}

/// The per-layer run: one set of passes — stage composition untraced and
/// traced, `Scidive::on_frame` with the product's observation on and off,
/// the dispatcher-side routing probe, the sharded pipeline traced and
/// untraced — repeated while the budget lasts. Times are medians over the
/// sets; counts come from the first set and repeat exactly.
pub fn per_layer(w: &Workload, budget: Budget) -> Outcome {
    let shards = sut::shard_count();
    let cfg = sut::config(&w.spec, true);
    let cfg_quiet = sut::config(&w.spec, false);
    let frames = w.frames.len() as f64;
    let timer_ns = trace::timer_cost_ns();
    let mut fails = Failures::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut metrics = Metrics::default();
    let mut dump = None;
    let mut sets = 0usize;
    let started = Instant::now();
    loop {
        let plain = sut::composed(&w.frames, &cfg);
        let mut stages = Trace::new();
        let traced = sut::composed_traced(&w.frames, &cfg, &mut stages);
        let inline = sut::inline(&w.frames, &cfg);
        let quiet = sut::inline(&w.frames, &cfg_quiet);
        let mut routes = Trace::new();
        let routed = sut::route_probe(&w.frames, &cfg, shards, &mut routes);
        let mut submits = Trace::new();
        let sharded_traced = sut::sharded_traced(&w.frames, &cfg, shards, &mut submits);
        let sharded = sut::sharded(&w.frames, &cfg, shards);

        // Stage times, net of the clock reads that delimit them.
        let distill = net_ns(&stages, Stage::Distill, timer_ns);
        let trail = net_ns(&stages, Stage::Trail, timer_ns);
        let event = net_ns(&stages, Stage::Event, timer_ns);
        let rules = net_ns(&stages, Stage::Rules, timer_ns);
        let stage_sum = distill + trail + event + rules;
        let route = net_ns(&routes, Stage::Route, timer_ns);
        let submit = net_ns(&submits, Stage::Submit, timer_ns);
        let inline_ns = inline.wall.as_nanos() as f64;
        let sharded_ns = sharded.wall.as_nanos() as f64;
        let barrier_spans: Vec<f64> = sharded_traced
            .fold_submit_ns
            .iter()
            .map(|&n| n as f64)
            .collect();
        for (name, value) in [
            ("distill.ns_per_frame", distill / frames),
            ("distill.share", ratio(distill, stage_sum)),
            (
                "distill.sip_ns",
                net_mean(traced.distill.sip_ns, traced.distill.sip_frames, timer_ns),
            ),
            (
                "distill.rtp_ns",
                net_mean(traced.distill.rtp_ns, traced.distill.rtp_frames, timer_ns),
            ),
            ("routing.ns_per_frame", route / frames),
            ("routing.share", ratio(route, submit)),
            ("trail.ns_per_frame", trail / frames),
            ("trail.share", ratio(trail, stage_sum)),
            ("event.ns_per_frame", event / frames),
            ("event.share", ratio(event, stage_sum)),
            (
                "event.sip_ns",
                net_mean(traced.event.sip_ns, traced.event.sip_frames, timer_ns),
            ),
            (
                "event.rtp_ns",
                net_mean(traced.event.rtp_ns, traced.event.rtp_frames, timer_ns),
            ),
            ("rules.ns_per_event", ratio(rules, traced.events as f64)),
            ("rules.ns_per_frame", rules / frames),
            ("rules.share", ratio(rules, stage_sum)),
            ("rate.fold_barrier_us", median_or_zero(&barrier_spans) / 1e3),
            ("shard.submit_ns_per_frame", submit / frames),
            (
                "shard.dispatcher_busy_share",
                ratio(distill + route, sharded_ns),
            ),
            ("shard.finish_ms", sharded.finish.as_secs_f64() * 1e3),
            ("shard.overhead_share", sharded_ns / inline_ns - 1.0),
            ("engine.ns_per_frame", inline_ns / frames),
            ("engine.stage_sum_ns", stage_sum / frames),
            ("engine.residual_share", (inline_ns - stage_sum) / inline_ns),
            (
                "engine.frame_p50_us",
                stages.frame_quantile(0.5).0 as f64 / 1e3,
            ),
            (
                "engine.frame_p99_us",
                stages.frame_quantile(0.99).0 as f64 / 1e3,
            ),
            (
                "engine.frame_p999_us",
                stages.frame_quantile(0.999).0 as f64 / 1e3,
            ),
            (
                "engine.frame_max_ms",
                stages.frame_quantile(1.0).0 as f64 / 1e6,
            ),
            (
                "observe.overhead_share",
                inline_ns / quiet.wall.as_nanos() as f64 - 1.0,
            ),
            (
                "trace.overhead_share",
                traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0,
            ),
        ] {
            samples.entry(name).or_default().push(value);
        }

        if sets == 0 {
            let verdict = check_pair(w, cfg.fold.interval, &inline, &sharded, &mut fails);
            check_composition(
                &plain,
                &traced,
                &inline,
                &quiet,
                &sharded_traced,
                &sharded,
                &mut fails,
            );
            counts_into(
                &mut metrics,
                w,
                &traced,
                &inline,
                &sharded,
                &routed,
                &verdict,
            );
            dump = Some(map(vec![
                ("stages", stages.to_json()),
                ("route", routes.to_json()),
                ("sharded", submits.to_json()),
            ]));
        }
        sets += 1;
        let done = match budget.reps {
            Some(n) => sets >= n,
            None => started.elapsed().as_secs_f64() >= budget.seconds,
        };
        if done || sets >= MAX_PAIRS {
            break;
        }
    }
    for (name, values) in &samples {
        metrics.set(name, median(values));
    }
    metrics.set("trace.timer_ns", timer_ns);
    let attempted = w.frames.len() as u64 + w.attacks.len() as u64;
    metrics.set("check.failed_share", fails.count as f64 / attempted as f64);
    Outcome {
        attempted,
        failed: fails.count,
        metrics,
        failures: fails.lines,
        exact: String::new(),
        facts: facts(w, shards, sets, Vec::new()),
        trace: dump,
    }
}

/// The traced composition must be the engine: same footprints, events
/// and alerts as `Scidive` on the same frames, traced or not, observed or
/// not; and tracing `submit` must not change what the pipeline reports.
fn check_composition(
    plain: &ComposedRun,
    traced: &ComposedRun,
    inline: &InlineRun,
    quiet: &InlineRun,
    sharded_traced: &ShardedRun,
    sharded: &ShardedRun,
    fails: &mut Failures,
) {
    let engine = (
        inline.stats.footprints,
        inline.stats.events,
        inline.stats.alerts,
    );
    for (what, got) in [
        (
            "untraced composition",
            (plain.footprints, plain.events, plain.alerts),
        ),
        (
            "traced composition",
            (traced.footprints, traced.events, traced.alerts),
        ),
        (
            "engine with observation off",
            (
                quiet.stats.footprints,
                quiet.stats.events,
                quiet.stats.alerts,
            ),
        ),
    ] {
        fails.add(u64::from(got != engine), || {
            format!("{what} produced {got:?} (footprints, events, alerts), the engine {engine:?}")
        });
    }
    fails.add(
        u64::from(sharded_traced.report.alerts != sharded.report.alerts),
        || "traced and untraced sharded passes raised different alerts".to_string(),
    );
}

/// Count-type metrics: read from reports and observations after the
/// passes, deterministic for a given seed.
fn counts_into(
    metrics: &mut Metrics,
    w: &Workload,
    traced: &ComposedRun,
    inline: &InlineRun,
    sharded: &ShardedRun,
    routed: &sut::RouteRun,
    verdict: &Verdict,
) {
    let frames = w.frames.len() as f64;
    let obs = &sharded.report.observation;
    let evals: u64 = inline.observation.rule_evals.iter().map(|e| e.evals).sum();
    let dispatched: Vec<f64> = sharded
        .report
        .shards
        .iter()
        .map(|s| s.dispatched as f64)
        .collect();
    let mean_dispatched = dispatched.iter().sum::<f64>() / dispatched.len() as f64;
    let max_dispatched = dispatched.iter().copied().fold(0.0, f64::max);
    let delays = &verdict.delays_ms;
    let s = &w.stats;
    for (name, value) in [
        (
            "distill.footprints_per_frame",
            traced.footprints as f64 / frames,
        ),
        (
            "routing.synthetic_share",
            ratio(routed.synthetic as f64, routed.footprints as f64),
        ),
        ("routing.interner_live", routed.interner_live as f64),
        ("routing.media_index_live", routed.media_index_live as f64),
        ("trail.live_peak", traced.live_trails_peak as f64),
        (
            "trail.retained_footprints_peak",
            traced.retained_footprints_peak as f64,
        ),
        ("trail.expired", inline.trail.expired_trails as f64),
        ("trail.evicted", inline.trail.evicted as f64),
        (
            "event.events_per_frame",
            inline.stats.events as f64 / frames,
        ),
        ("event.session_plane_peak", traced.session_plane_peak as f64),
        (
            "rules.invocations_per_event",
            ratio(evals as f64, inline.stats.events as f64),
        ),
        (
            "rules.alerts_per_kframe",
            sharded.report.alerts.len() as f64 * 1e3 / frames,
        ),
        ("rules.state_peak", traced.rule_state_peak as f64),
        ("rules.detect_delay_ms", median_or_zero(delays)),
        (
            "rules.detect_delay_max_ms",
            delays.iter().copied().fold(0.0, f64::max),
        ),
        ("rate.bytes", obs.gauges.rate_bytes as f64),
        ("rate.fold_bytes", obs.gauges.fold_rate_bytes as f64),
        ("rate.folds", obs.dispatch.folds as f64),
        ("rate.fold_candidates", obs.dispatch.fold_candidates as f64),
        ("shard.batches", obs.dispatch.batches_sent as f64),
        ("shard.batch_fill_mean", obs.hist.batch_fill.mean()),
        ("shard.enqueue_blocked", obs.dispatch.enqueue_blocked as f64),
        ("shard.max_queue_depth", obs.dispatch.max_queue_depth as f64),
        ("shard.skew", ratio(max_dispatched, mean_dispatched)),
        ("engine.allocs_per_frame", inline.allocs as f64 / frames),
        (
            "engine.alloc_bytes_per_frame",
            inline.alloc_bytes as f64 / frames,
        ),
        ("gen.materialise_s", s.materialise_s),
        ("gen.frames", s.frames as f64),
        ("gen.bytes_per_frame", s.bytes as f64 / frames),
        ("gen.sip_share", s.sip as f64 / frames),
        ("gen.rtp_share", s.rtp as f64 / frames),
        ("gen.capture_s", s.capture_s),
        ("gen.fingerprint", (s.fingerprint & 0xffff_ffff) as f64),
    ] {
        metrics.set(name, value);
    }
}
