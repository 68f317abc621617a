//! Every call into the product lives in this file.
//!
//! The end-to-end passes use only `ShardedScidive::{new, submit, finish}`
//! and `Scidive::{new, on_frame, alerts}`. The traced passes additionally
//! compose the four stage types the way `Scidive::on_frame` does —
//! `Distiller::distill` → `TrailStore::insert` →
//! `EventGenerator::on_footprint` → `CompiledRuleset::dispatch` — so a
//! span can sit on each boundary without touching the product. Counts
//! are read from the report after `finish()`, never inside a timed loop.

use crate::alloc;
use crate::gen::{Spec, ACCT_IP, PROXY_IP};
use crate::trace::{Stage, Trace};
use scidive_core::alert::Alert;
use scidive_core::distill::Distiller;
use scidive_core::engine::{PipelineStats, Scidive, ScidiveConfig};
use scidive_core::footprint::TrailProto;
use scidive_core::observe::PipelineObservation;
use scidive_core::proto::EventGenerator;
use scidive_core::rate::RateHub;
use scidive_core::routing::SessionRouter;
use scidive_core::rules::{AlertSink, RuleCtx};
use scidive_core::shard::{ShardedReport, ShardedScidive};
use scidive_core::trail::{TrailStats, TrailStore};
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

pub type Frames = [(SimTime, IpPacket)];

/// Batches each shard ring can hold before `submit` blocks.
pub const QUEUE_DEPTH: usize = 64;

/// Identity-plane idle timeout in capture seconds: short enough that
/// expiry runs inside every capture, long enough to outlive the lead a
/// fake-IM victim's own message has on the forgery.
pub const IDENTITY_TIMEOUT_S: u64 = 10;

/// Footprints kept per trail: a call's RTP trail passes this within three
/// seconds, so media trails append and evict in steady state.
pub const MAX_FOOTPRINTS_PER_TRAIL: usize = 256;

/// Frames pushed through a fresh pipeline by one set-up measurement.
pub const SETUP_FRAMES: usize = 512;

/// Worker shards: one thread per core is left to the dispatcher, which
/// is the benchmark thread itself.
pub fn shard_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).clamp(1, 4)
}

/// The product configuration for a workload: sketch-mode rate state, the
/// fold plane on, the generator's relays as infrastructure, and the
/// workload's retention settings. `observe` toggles the product's own
/// histograms (on by default in the product).
pub fn config(spec: &Spec, observe: bool) -> ScidiveConfig {
    let mut cfg = ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    };
    cfg.fold.enabled = true;
    cfg.observe.histograms = observe;
    cfg.events.infrastructure_ips = vec![PROXY_IP, ACCT_IP];
    cfg.events.session_timeout = SimDuration::from_millis(spec.retention_ms);
    cfg.events.identity_timeout = SimDuration::from_secs(IDENTITY_TIMEOUT_S);
    cfg.trails.idle_timeout = SimDuration::from_millis(spec.retention_ms);
    cfg.trails.max_footprints_per_trail = MAX_FOOTPRINTS_PER_TRAIL;
    cfg
}

/// Result of one pass through the sharded pipeline.
#[derive(Debug)]
pub struct ShardedRun {
    /// First `submit` to `finish()` returning.
    pub wall: Duration,
    /// Peak live heap during the pass above the level before the
    /// pipeline was built (the input is allocated earlier and excluded).
    pub heap_peak: usize,
    pub finish: Duration,
    /// `submit` spans of frames that crossed a fold boundary.
    pub fold_submit_ns: Vec<u64>,
    pub report: ShardedReport,
}

/// One closed-loop pass, tracing off: the calling thread submits back to
/// back, a full ring blocks it, nothing is shed.
pub fn sharded(frames: &Frames, cfg: &ScidiveConfig, shards: usize) -> ShardedRun {
    sharded_pass::<false>(frames, cfg, shards, &mut Trace::new())
}

/// The same pass with a span around every `submit` and the `finish`.
pub fn sharded_traced(
    frames: &Frames,
    cfg: &ScidiveConfig,
    shards: usize,
    trace: &mut Trace,
) -> ShardedRun {
    sharded_pass::<true>(frames, cfg, shards, trace)
}

fn sharded_pass<const TRACED: bool>(
    frames: &Frames,
    cfg: &ScidiveConfig,
    shards: usize,
    trace: &mut Trace,
) -> ShardedRun {
    let fold_us = cfg.fold.interval.as_micros().max(1);
    let baseline = alloc::reset_peak();
    let mut ids = ShardedScidive::new(cfg.clone(), shards, QUEUE_DEPTH);
    let start = Instant::now();
    let mut fold_submit_ns = Vec::new();
    let mut last_epoch = 0;
    for (seq, (time, pkt)) in frames.iter().enumerate() {
        if TRACED {
            let t0 = Instant::now();
            ids.submit(*time, pkt);
            let t1 = Instant::now();
            let ns = trace.span(Stage::Submit, seq as u64, t0, t1);
            trace.frame_ns.push(ns.min(u64::from(u32::MAX)) as u32);
            let epoch = time.as_micros() / fold_us;
            if epoch != last_epoch && seq > 0 {
                fold_submit_ns.push(ns);
            }
            last_epoch = epoch;
        } else {
            ids.submit(*time, pkt);
        }
    }
    let finishing = Instant::now();
    let report = ids.finish();
    let end = Instant::now();
    if TRACED {
        trace.span(Stage::Finish, 0, finishing, end);
    }
    ShardedRun {
        wall: end - start,
        heap_peak: alloc::snapshot().peak.saturating_sub(baseline),
        finish: end - finishing,
        fold_submit_ns,
        report,
    }
}

/// Set-up cost as a user restarting the tap pays it: configuration to a
/// pipeline that has taken its first [`SETUP_FRAMES`] frames and drained
/// (ruleset compile, worker spawn, first-use initialisation, join).
pub fn setup(frames: &Frames, spec: &Spec, shards: usize) -> Duration {
    let start = Instant::now();
    let cfg = config(spec, true);
    let mut ids = ShardedScidive::new(cfg, shards, QUEUE_DEPTH);
    for (time, pkt) in &frames[..frames.len().min(SETUP_FRAMES)] {
        ids.submit(*time, pkt);
    }
    let report = ids.finish();
    let elapsed = start.elapsed();
    std::hint::black_box(report);
    elapsed
}

/// Result of one pass through a single engine.
#[derive(Debug)]
pub struct InlineRun {
    pub wall: Duration,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub alerts: Vec<Alert>,
    pub stats: PipelineStats,
    pub trail: TrailStats,
    pub observation: PipelineObservation,
}

/// The serial baseline: one `Scidive::on_frame` loop on this thread.
pub fn inline(frames: &Frames, cfg: &ScidiveConfig) -> InlineRun {
    let mut ids = Scidive::new(cfg.clone());
    let before = alloc::snapshot();
    let start = Instant::now();
    for (time, pkt) in frames {
        ids.on_frame(*time, pkt);
    }
    let wall = start.elapsed();
    let after = alloc::snapshot();
    InlineRun {
        wall,
        allocs: after.allocs - before.allocs,
        alloc_bytes: after.bytes - before.bytes,
        alerts: ids.alerts().to_vec(),
        stats: ids.stats(),
        trail: ids.trail_stats(),
        observation: ids.observation(),
    }
}

/// Per-protocol split of a stage's time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtoSplit {
    pub sip_ns: u64,
    pub sip_frames: u64,
    pub rtp_ns: u64,
    pub rtp_frames: u64,
}

impl ProtoSplit {
    fn add(&mut self, proto: TrailProto, ns: u64) {
        match proto {
            TrailProto::Sip => {
                self.sip_ns += ns;
                self.sip_frames += 1;
            }
            TrailProto::Rtp => {
                self.rtp_ns += ns;
                self.rtp_frames += 1;
            }
            _ => {}
        }
    }
}

/// Result of one pass through the stage composition.
#[derive(Debug, Default)]
pub struct ComposedRun {
    pub wall: Duration,
    pub footprints: u64,
    pub events: u64,
    pub alerts: u64,
    pub distill: ProtoSplit,
    pub event: ProtoSplit,
    /// Peaks of the state gauges, sampled every 1,024 frames.
    pub live_trails_peak: u64,
    pub retained_footprints_peak: u64,
    pub session_plane_peak: u64,
    pub rule_state_peak: u64,
}

/// The four stages composed exactly as `Scidive::process_footprint`
/// composes them, built from the same `ScidiveConfig`, with no clock in
/// the loop: the stage sum itself.
pub fn composed(frames: &Frames, cfg: &ScidiveConfig) -> ComposedRun {
    composed_pass::<false>(frames, cfg, &mut Trace::new())
}

/// The same composition with a clock read on every stage boundary; the
/// difference between the two passes is the tracing overhead.
pub fn composed_traced(frames: &Frames, cfg: &ScidiveConfig, trace: &mut Trace) -> ComposedRun {
    composed_pass::<true>(frames, cfg, trace)
}

fn composed_pass<const TRACED: bool>(
    frames: &Frames,
    cfg: &ScidiveConfig,
    trace: &mut Trace,
) -> ComposedRun {
    let blueprint = cfg.blueprint().expect("built-in ruleset compiles");
    let mut rules = blueprint.build(cfg.full_scan_rules, cfg.trails.idle_timeout);
    let mut events_cfg = cfg.events.clone();
    events_cfg.exact_rate_state = cfg.exact_rate_state;
    events_cfg.rate = cfg.rate.clone();
    let rates = RateHub::new(cfg.rate.clone(), cfg.exact_rate_state);
    let mut distiller = Distiller::with_protocols(cfg.distiller.clone(), cfg.protocols.clone());
    let mut trails = TrailStore::with_protocols(cfg.trails.clone(), cfg.protocols.clone());
    let mut generator = EventGenerator::with_protocols(events_cfg, &cfg.protocols);
    let mut run = ComposedRun::default();
    let mut alerts: Vec<Alert> = Vec::new();
    let start = Instant::now();
    // One code path for both passes: untraced, `stamp` is a constant
    // `None` and every clock read and span below compiles away.
    let stamp = || TRACED.then(Instant::now);
    for (seq, (time, pkt)) in frames.iter().enumerate() {
        let seq = seq as u64;
        let t0 = stamp();
        let fp = distiller.distill(*time, pkt);
        let t1 = stamp();
        let mut staged = None;
        if let Some(fp) = fp {
            let proto = fp.proto();
            run.footprints += 1;
            let (fp, key) = trails.insert(fp);
            let t2 = stamp();
            let events = generator.on_footprint(&fp, &key, &trails);
            let t3 = stamp();
            {
                let ctx = RuleCtx {
                    now: *time,
                    trails: &trails,
                    rates: &rates,
                };
                let mut sink = AlertSink::new(&mut alerts);
                for ev in &events {
                    rules.dispatch(ev, &ctx, &mut sink);
                }
            }
            let t4 = stamp();
            run.events += events.len() as u64;
            staged = Some((proto, t2, t3, t4));
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let distill_ns = trace.span(Stage::Distill, seq, t0, t1);
            let mut end = t1;
            if let Some((proto, Some(t2), Some(t3), Some(t4))) = staged {
                trace.span(Stage::Trail, seq, t1, t2);
                let event_ns = trace.span(Stage::Event, seq, t2, t3);
                trace.span(Stage::Rules, seq, t3, t4);
                run.distill.add(proto, distill_ns);
                run.event.add(proto, event_ns);
                end = t4;
            }
            let ns = trace.span(Stage::Frame, seq, t0, end);
            trace.frame_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        }
        // State gauges, sampled between frames and outside every span.
        if seq.is_multiple_of(1_024) {
            run.live_trails_peak = run.live_trails_peak.max(trails.trail_count() as u64);
            run.retained_footprints_peak = run
                .retained_footprints_peak
                .max(trails.footprint_count() as u64);
            run.session_plane_peak = run.session_plane_peak.max(generator.session_count() as u64);
            run.rule_state_peak = run.rule_state_peak.max(rules.state_stats().sessions);
        }
    }
    run.wall = start.elapsed();
    run.alerts = alerts.len() as u64;
    run
}

/// Result of the dispatcher-side routing probe.
#[derive(Debug, Default)]
pub struct RouteRun {
    pub footprints: u64,
    pub route_ns: u64,
    pub synthetic: u64,
    pub interner_live: u64,
    pub media_index_live: u64,
}

/// Times `SessionRouter::route` over the workload's footprints the way
/// `ShardedScidive::submit` calls it: distilled on the spot, routed once,
/// in capture order. Not part of the inline stage sum — inline engines
/// attribute inside `TrailStore::insert`.
pub fn route_probe(
    frames: &Frames,
    cfg: &ScidiveConfig,
    shards: usize,
    trace: &mut Trace,
) -> RouteRun {
    let mut distiller = Distiller::with_protocols(cfg.distiller.clone(), cfg.protocols.clone());
    let mut router =
        SessionRouter::with_protocols(shards, cfg.trails.idle_timeout, cfg.protocols.clone());
    let mut run = RouteRun::default();
    for (seq, (time, pkt)) in frames.iter().enumerate() {
        let Some(fp) = distiller.distill(*time, pkt) else {
            continue;
        };
        let t0 = Instant::now();
        let decision = router.route(&fp);
        let t1 = Instant::now();
        run.route_ns += trace.span(Stage::Route, seq as u64, t0, t1);
        run.footprints += 1;
        run.synthetic += u64::from(decision.overflow);
    }
    run.interner_live = router.index().interner_len() as u64;
    run.media_index_live = router.index().len() as u64;
    run
}
