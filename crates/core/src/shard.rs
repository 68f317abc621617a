//! Sharded parallel deployment of the engine.
//!
//! [`ShardedScidive`] runs `N` independent [`Scidive`] workers and a
//! dispatcher that routes every frame to a shard by a stable hash of its
//! resolved session key ([`crate::routing::SessionRouter`]). Because all
//! of SCIDIVE's session-plane state — trails, dialog machines, per-flow
//! sequence history, rule partial matches — is keyed by session, and the
//! one piece of cross-session state (the [`IdentityPlane`]) is lifted
//! into the dispatcher, the merged output is **byte-identical** to a
//! single engine processing the same capture, for any shard count and
//! any worker-thread timing:
//!
//! * every footprint of a session lands on the same shard, so each
//!   shard's trail store and event generator see exactly the session
//!   slice a single engine would maintain for those sessions;
//! * identity-plane detection (REGISTER floods, password guessing, IM
//!   source checks) runs in the dispatcher in dispatch order, and its
//!   events are injected behind the owning footprint, preserving the
//!   single-engine event order (session events first, identity events
//!   after);
//! * workers tag each alert with the dispatch sequence number of the
//!   frame that raised it and its index within that frame's batch; the
//!   merge stage sorts by that tag, which is exactly single-engine alert
//!   order;
//! * rate-threshold rules whose key is *not* the routing key (SPIT /
//!   rapid-connect: keyed by caller, routed by Call-ID) run in **two
//!   planes**: workers keep no window and forward each observation
//!   raw, and the dispatcher folds the per-shard deltas into a
//!   [`crate::rate::GlobalRatePlane`] on a capture-time cadence
//!   ([`crate::rate::FoldConfig`]), replaying them in time order
//!   through the same exact per-key table a single engine's rule
//!   feeds per event. Fold alerts are injected into the
//!   merge stream with a stable tag, so the sharded pipeline's full
//!   alert stream is a pure function of the capture, independent of the
//!   shard count. (Identity-plane floods and guessing were always
//!   global: that plane lives in the dispatcher.)
//!
//! Frames whose session cannot be attributed (media to unannounced
//! sinks, undecodable SIP) resolve to synthetic per-flow sessions —
//! counted as overflow, never silently dropped — and spread across
//! shards by the same stable session hash as real sessions, so
//! chaos/garbage traffic cannot hotspot one worker (each synthetic flow
//! is its own session and sticks to its hashed shard). Only session-less
//! frames (fragments still reassembling) fall to the designated
//! [`crate::routing::SessionRouter::overflow_shard`]. Each shard queue
//! is a bounded [`std::sync::mpsc::sync_channel`]: the dispatcher is
//! its only producer and the shard worker its only consumer. A full
//! queue blocks the dispatcher (backpressure, recorded in
//! [`ShardStats::enqueue_blocked`]) instead of shedding frames, so
//! [`DispatchStats::dropped`] is structurally zero.
//!
//! The dispatcher and every worker feed the [`crate::observe`] layer:
//! queue-depth gauges and batch histograms on the dispatch side,
//! rule-latency/detection-delay histograms and state gauges per shard,
//! merged into one [`PipelineObservation`] by
//! [`ShardedScidive::finish`] (or snapshotted mid-run by
//! [`ShardedScidive::observation`] — worker histograms and traces are
//! collected at join, so a mid-run snapshot carries counters and gauges
//! but only the dispatcher's histograms).
//!
//! Dispatch is **batched**: each shard accumulates frames into a small
//! buffer that ships as one channel send when full, when the capture
//! clock moves a linger window past the buffer's oldest frame, or at
//! `finish()`. Batching only amortizes the per-send channel cost; it
//! changes neither the shard a frame lands on, the per-shard frame
//! order, nor the `(seq, idx)` merge — the equivalence tests run with
//! batching enabled.
//!
//! One caveat bounds the equivalence claim: a media flow observed
//! *before* the SDP that names its sink resolves to a synthetic session
//! first and to the real session after the announcement. A single
//! engine carries the flow's sequence history across that transition;
//! with shards the two halves may land on different workers. Captures
//! where media follows signalling — every testbed scenario, and any
//! well-formed call — are unaffected.

use crate::alert::{Alert, Severity};
use crate::distill::{DistillStats, Distiller};
use crate::engine::{DistilledFootprint, PipelineStats, RulesetSource, Scidive, ScidiveConfig};
use crate::event::IdentityPlane;
use crate::observe::{
    merge_rule_evals, DecisionTrace, DispatchCounters, EngineObservation, Histogram,
    ObservedHistograms, PipelineObservation, SeverityCounts, StateGauges, TraceEntry, TraceStage,
};
use crate::rate::{GlobalRatePlane, RateDelta};
use crate::routing::SessionRouter;
use crate::rules::{Diagnostic, RuleToggles, RulesetBlueprint};
use parking_lot::Mutex;
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Frames accumulated per shard before one channel send. The per-send
/// cost (channel synchronization + wakeup) amortizes over eight frames,
/// and the heap held in flight stays small: a shard queue holds
/// `queue_depth` batches, and a SIP frame in one holds only its
/// footprint and the datagram buffer that the footprint's text slices.
const DEFAULT_BATCH: usize = 8;

/// Capture-time bound on how long a buffered frame may wait for its
/// batch to fill. In online deployments capture time tracks wall time,
/// so this is also the added detection latency ceiling.
const DEFAULT_LINGER: SimDuration = SimDuration::from_millis(100);

/// One dispatched frame: the distiller ran in the dispatcher, so shards
/// receive footprints, not packets. `fp` is `None` for frames that
/// produced no footprint (fragments awaiting reassembly) — still sent so
/// per-shard frame counters sum to the dispatcher's.
#[derive(Debug)]
struct ShardFrame {
    /// Dispatch sequence number, the global merge key.
    seq: u64,
    time: SimTime,
    fp: Option<DistilledFootprint>,
}

/// What rides a shard channel: a frame batch, a fold barrier, or a
/// ruleset-swap barrier. The queue is FIFO, so by the time a worker
/// handles `Fold` or `Swap` it has fully processed every batch the
/// dispatcher sent before the token — exactly the frames the barrier is
/// meant to cover, giving every shard the same deterministic boundary.
#[derive(Debug)]
enum ShardMsg {
    /// Frames to process.
    Batch(Vec<ShardFrame>),
    /// Take the engine's rate delta ([`Scidive::take_rate_delta`]) and
    /// reply on the fold channel.
    Fold,
    /// Install the blueprint's ruleset ([`Scidive::swap_ruleset`]),
    /// adopting surviving rule state. No reply: FIFO ordering already
    /// guarantees every frame dispatched after the token is evaluated
    /// by the new ruleset.
    Swap(Arc<RulesetBlueprint>),
}

/// An alert tagged with its merge position: dispatch sequence number of
/// the raising frame, then index within that frame's alert batch.
type TaggedAlert = (u64, u32, Alert);

/// Index base for fold-plane alerts within their merge slot. A fold at
/// capture-time boundary `b` covers every frame dispatched before it and
/// tags its alerts `(last_covered_seq, GLOBAL_IDX_BASE + i)` — sharing
/// the last covered frame's sequence number but sorting after all of
/// that frame's own alerts (worker indices count up from 0 and a frame
/// raises far fewer than 2^16 alerts). The tag depends only on capture
/// content, never on shard count, so the merged stream stays
/// byte-identical across 1/2/4 shards.
const GLOBAL_IDX_BASE: u32 = 1 << 16;

/// Dispatcher-resident fold state: the global rate plane plus the
/// capture-time cadence bookkeeping (see [`ShardedScidive::maybe_fold`]).
#[derive(Debug)]
struct FoldState {
    plane: GlobalRatePlane,
    /// Fold cadence in capture time.
    interval: SimDuration,
    /// Next capture-time boundary (a multiple of `interval`) at which to
    /// fold.
    next_boundary: SimTime,
    /// Where workers reply with their deltas: one unbounded channel
    /// that every shard answers a barrier on. Arrival order is
    /// irrelevant because the plane sorts what it absorbs.
    replies: std::sync::mpsc::Receiver<RateDelta>,
    /// Severity tally of the alerts injected by folds, added to the
    /// merged report alongside the worker severities.
    severity: SeverityCounts,
}

/// The counters and gauges an observation sums over the workers and the
/// dispatcher. Each worker publishes its engine's values as one `Tally`
/// after every batch, so a new engine counter or gauge reaches the
/// mid-run snapshot with no per-field mirroring here.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    pipeline: PipelineStats,
    severity: SeverityCounts,
    gauges: StateGauges,
}

impl std::ops::Add for Tally {
    type Output = Tally;
    fn add(self, rhs: Tally) -> Tally {
        Tally {
            pipeline: self.pipeline + rhs.pipeline,
            severity: self.severity + rhs.severity,
            gauges: self.gauges + rhs.gauges,
        }
    }
}

/// What one worker shares with the dispatcher. `tally` is monitoring:
/// replaced whole after every batch and swap, read by mid-run
/// [`ShardedScidive::observation`] snapshots (slight staleness is fine).
/// The two atomics are synchronisation, not telemetry: together they are
/// the [`ShardedScidive::alerts_snapshot`] prefix watermark.
#[derive(Debug, Default)]
struct ShardTelemetry {
    tally: Mutex<Tally>,
    /// Batches currently queued *or being processed* by this shard: the
    /// dispatcher increments on send, the worker decrements only after
    /// it has fully processed a batch (so `0` means the shard is truly
    /// idle, not merely mid-batch). A queue-side length would count only
    /// undelivered batches, so depth is tracked here instead.
    queue_batches: AtomicU64,
    /// One past the dispatch sequence number of the last frame this
    /// shard has fully processed; `0` until its first batch completes.
    /// Stored with `Release` *after* the batch's alerts reached the
    /// shared sink, so a reader that `Acquire`-loads this value is
    /// guaranteed to see those alerts — the basis of the
    /// [`ShardedScidive::alerts_snapshot`] prefix watermark.
    processed_seq: AtomicU64,
}

impl ShardTelemetry {
    /// Publishes the worker engine's current counters and gauges.
    fn publish(&self, ids: &Scidive) {
        let tally = Tally {
            pipeline: ids.stats(),
            severity: ids.severity_counts(),
            gauges: ids.gauges(),
        };
        *self.tally.lock() = tally;
    }
}

/// Counters for one shard of a [`ShardedScidive`].
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Which shard (0 also receives session-less frames).
    pub shard: usize,
    /// The shard engine's own pipeline counters.
    pub pipeline: PipelineStats,
    /// Frames the dispatcher routed here.
    pub dispatched: u64,
    /// Times the dispatcher found this shard's queue full and had to
    /// block (backpressure; nothing is dropped).
    pub enqueue_blocked: u64,
}

/// Dispatcher-side counters of a [`ShardedScidive`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchStats {
    /// Frames submitted.
    pub frames: u64,
    /// Frames that produced no footprint (e.g. fragments still
    /// reassembling); accounted to the overflow shard.
    pub empty_frames: u64,
    /// Footprints whose session was synthetic (unattributable); spread
    /// across shards by hash like any other session.
    pub overflow_frames: u64,
    /// Frames dropped. Structurally zero — a full queue blocks the
    /// dispatcher instead — kept as an explicit invariant counter.
    pub dropped: u64,
}

/// The merged result of a sharded run.
#[derive(Debug)]
pub struct ShardedReport {
    /// All alerts, in single-engine order.
    pub alerts: Vec<Alert>,
    /// Sum of the per-shard pipeline counters; equals a single engine's
    /// [`PipelineStats`] over the same capture.
    pub stats: PipelineStats,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
    /// Dispatcher counters.
    pub dispatch: DispatchStats,
    /// The full pipeline observation: counters, gauges, histograms and
    /// (when enabled) the merged decision trace.
    pub observation: PipelineObservation,
}

/// A sharded SCIDIVE: dispatcher + `N` worker engines + deterministic
/// merge.
///
/// # Examples
///
/// ```
/// use scidive_core::engine::ScidiveConfig;
/// use scidive_core::shard::ShardedScidive;
/// use scidive_netsim::packet::IpPacket;
/// use scidive_netsim::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut ids = ShardedScidive::new(ScidiveConfig::default(), 4, 64);
/// ids.submit(SimTime::ZERO, &IpPacket::udp(
///     Ipv4Addr::new(10, 0, 0, 1), 5060,
///     Ipv4Addr::new(10, 0, 0, 2), 5060,
///     b"OPTIONS sip:b@lab SIP/2.0\r\nCall-ID: x\r\n\r\n".as_ref(),
/// ));
/// let report = ids.finish();
/// assert_eq!(report.stats.frames, 1);
/// assert_eq!(report.dispatch.dropped, 0);
/// assert!(report.alerts.iter().all(|a| a.rule == "sip-format"));
/// ```
#[derive(Debug)]
pub struct ShardedScidive {
    distiller: Distiller,
    router: SessionRouter,
    identity: IdentityPlane,
    senders: Vec<SyncSender<ShardMsg>>,
    workers: Vec<JoinHandle<(PipelineStats, EngineObservation)>>,
    sink: Arc<Mutex<Vec<TaggedAlert>>>,
    seq: u64,
    dispatch: DispatchStats,
    dispatched: Vec<u64>,
    blocked: Vec<u64>,
    /// Per-shard accumulation buffers: up to `batch` frames ride one
    /// channel send. Flushed on batch-full, when a newly submitted
    /// frame's capture time is `linger` past a buffer's oldest frame,
    /// and unconditionally by [`ShardedScidive::finish`].
    buffers: Vec<Vec<ShardFrame>>,
    batch: usize,
    linger: SimDuration,
    /// Per-shard state the workers publish into (see
    /// [`ShardTelemetry`]).
    telemetry: Vec<Arc<ShardTelemetry>>,
    batches_sent: u64,
    max_queue_depth: u64,
    /// Whether the dispatch histograms below are recording.
    histograms: bool,
    batch_fill: Histogram,
    batch_linger_ms: Histogram,
    /// Dispatcher-side routing trace (empty ring unless enabled).
    trace: DecisionTrace,
    /// Capture time of the most recent submit, used to measure linger at
    /// flush time.
    last_time: SimTime,
    /// The cross-shard rate fold plane.
    fold: FoldState,
    /// The builtin toggles the pipeline booted with, which every
    /// [`ShardedScidive::swap_ruleset`] carries forward.
    toggles: RuleToggles,
    /// Generation of the installed ruleset (0 at boot).
    ruleset_generation: u64,
    /// Swap barriers executed.
    ruleset_swaps: u64,
    /// Swap attempts rejected at dispatcher-side compile.
    ruleset_compile_errors: u64,
}

impl ShardedScidive {
    /// Spawns `shards` worker engines, each behind a bounded channel
    /// holding up to `queue_depth` batches. A `queue_depth` of zero
    /// means one: a zero-capacity [`sync_channel`] is a rendezvous
    /// channel, which would make every send wait for its worker.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or if the configured
    /// [`ScidiveConfig::ruleset`] DSL program does not compile (the
    /// program is resolved once, dispatcher-side, and shipped to every
    /// worker as a [`RulesetBlueprint`]).
    pub fn new(config: ScidiveConfig, shards: usize, queue_depth: usize) -> ShardedScidive {
        assert!(shards >= 1, "a sharded engine needs at least one shard");
        let blueprint = Arc::new(config.blueprint().expect("configured ruleset compiles"));
        let sink: Arc<Mutex<Vec<TaggedAlert>>> = Arc::new(Mutex::new(Vec::new()));
        let (fold_tx, fold_rx) = std::sync::mpsc::channel::<RateDelta>();
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut telemetry = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = sync_channel::<ShardMsg>(queue_depth.max(1));
            let cfg = config.clone();
            let boot = blueprint.clone();
            let shard_sink = sink.clone();
            let tel = Arc::new(ShardTelemetry::default());
            let shard_tel = tel.clone();
            let shard_fold_tx = fold_tx.clone();
            workers.push(std::thread::spawn(move || {
                let mut ids = Scidive::data_plane_from_blueprint(cfg, &boot);
                while let Ok(msg) = rx.recv() {
                    let batch = match msg {
                        ShardMsg::Batch(batch) => batch,
                        ShardMsg::Fold => {
                            // FIFO queue: every batch sent before this
                            // barrier is already processed. A dead
                            // dispatcher is fine — the reply just goes
                            // unread.
                            let _ = shard_fold_tx.send(ids.take_rate_delta());
                            continue;
                        }
                        ShardMsg::Swap(blueprint) => {
                            // Same FIFO discipline: every pre-swap frame
                            // is done, so the install point is the same
                            // frame boundary on every shard. Surviving
                            // rules adopt their session state wholesale.
                            ids.swap_ruleset(&blueprint);
                            shard_tel.publish(&ids);
                            continue;
                        }
                    };
                    let last_seq = batch.last().map(|f| f.seq);
                    for frame in batch {
                        let new = ids.on_distilled(frame.time, frame.fp);
                        if !new.is_empty() {
                            let mut sink = shard_sink.lock();
                            for (idx, alert) in new.into_iter().enumerate() {
                                sink.push((frame.seq, idx as u32, alert));
                            }
                        }
                    }
                    shard_tel.publish(&ids);
                    // Order matters for the snapshot watermark: alerts
                    // first (above), then the processed mark, then the
                    // in-flight count.
                    if let Some(seq) = last_seq {
                        shard_tel.processed_seq.store(seq + 1, Ordering::Release);
                    }
                    shard_tel.queue_batches.fetch_sub(1, Ordering::Release);
                }
                (ids.stats(), ids.engine_observation())
            }));
            senders.push(tx);
            telemetry.push(tel);
        }
        let mut plane = GlobalRatePlane::new();
        // The evaluation plane follows the ruleset: it knows exactly the
        // threshold clauses the blueprint's rules forward.
        plane.set_clauses(blueprint.threshold_specs());
        let fold = FoldState {
            plane,
            interval: config.fold.interval,
            next_boundary: SimTime::ZERO + config.fold.interval,
            replies: fold_rx,
            severity: SeverityCounts::default(),
        };
        let histograms = config.observe.histograms;
        let trace = DecisionTrace::new(config.observe.trace_depth);
        let toggles = config.rules.clone();
        ShardedScidive {
            distiller: Distiller::with_protocols(config.distiller, config.protocols.clone()),
            router: SessionRouter::with_protocols(
                shards,
                config.trails.idle_timeout,
                config.protocols,
            ),
            identity: IdentityPlane::new(config.events),
            senders,
            workers,
            sink,
            seq: 0,
            dispatch: DispatchStats::default(),
            dispatched: vec![0; shards],
            blocked: vec![0; shards],
            buffers: (0..shards).map(|_| Vec::new()).collect(),
            batch: DEFAULT_BATCH,
            linger: DEFAULT_LINGER,
            telemetry,
            batches_sent: 0,
            max_queue_depth: 0,
            histograms,
            batch_fill: Histogram::new(&crate::observe::BATCH_FILL_BUCKETS),
            batch_linger_ms: Histogram::new(&crate::observe::BATCH_LINGER_BUCKETS_MS),
            trace,
            last_time: SimTime::ZERO,
            fold,
            toggles,
            ruleset_generation: 0,
            ruleset_swaps: 0,
            ruleset_compile_errors: 0,
        }
    }

    /// Atomically hot-reloads the ruleset across every shard: validates
    /// and lowers `source` once dispatcher-side, flushes every dispatch
    /// buffer, and sends a `Swap` barrier token down each shard queue —
    /// the same FIFO-barrier pattern as a rate fold. Each worker
    /// installs the new ruleset after the last pre-swap frame and
    /// before the first post-swap one, so the boundary is the same
    /// dispatch sequence number on every shard at every shard count,
    /// and the merged alert stream stays deterministic. Rules that
    /// survive the swap unchanged (same id and
    /// [`crate::rules::Rule::state_signature`]) adopt their session
    /// state — partial sequences, fired latches, threshold tables —
    /// so no session is dropped; changed or new rules start fresh from
    /// the boundary. The dispatcher's fold plane swaps its threshold
    /// clauses from the same blueprint on the same terms: an unchanged
    /// clause keeps its table, a changed one starts empty. The builtin
    /// toggles stay the ones the pipeline booted with.
    ///
    /// Returns the new ruleset generation.
    ///
    /// # Errors
    ///
    /// Returns the program's [`Diagnostic`] (and leaves the running
    /// ruleset installed, counting one compile error) if it does not
    /// compile or its file cannot be read.
    pub fn swap_ruleset(&mut self, source: &RulesetSource) -> Result<u64, Diagnostic> {
        // Validate once, dispatcher-side: a broken program never
        // reaches a worker and the running ruleset stays installed.
        let program = match source.program() {
            Ok(program) => program,
            Err(e) => {
                self.ruleset_compile_errors += 1;
                return Err(e);
            }
        };
        let blueprint = Arc::new(RulesetBlueprint {
            toggles: self.toggles.clone(),
            program,
            generation: self.ruleset_generation + 1,
        });
        // Barrier: flush every dispatch buffer first so each queue holds
        // exactly the frames dispatched so far — buffer occupancy varies
        // with shard count and must not leak into where the swap lands.
        for shard in 0..self.buffers.len() {
            self.flush(shard);
        }
        for tx in &self.senders {
            // Blocking send keeps the barrier lossless under a full
            // queue; a dead worker is skipped (surfaced at finish()).
            let _ = tx.send(ShardMsg::Swap(blueprint.clone()));
        }
        self.fold.plane.set_clauses(blueprint.threshold_specs());
        self.ruleset_generation = blueprint.generation;
        self.ruleset_swaps += 1;
        Ok(self.ruleset_generation)
    }

    /// Generation of the installed ruleset (0 until the first swap).
    pub fn ruleset_generation(&self) -> u64 {
        self.ruleset_generation
    }

    /// Overrides the dispatch batching parameters: `batch` frames per
    /// channel send at most, no frame buffered longer than `linger` of
    /// capture time. `batch = 1` restores unbatched per-frame dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batching(mut self, batch: usize, linger: SimDuration) -> ShardedScidive {
        assert!(batch >= 1, "batch size must be at least 1");
        self.batch = batch;
        self.linger = linger;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Read access to the session router (and its media index).
    pub fn router(&self) -> &SessionRouter {
        &self.router
    }

    /// Dispatcher-side distiller counters.
    pub fn distill_stats(&self) -> DistillStats {
        self.distiller.stats()
    }

    /// Feeds one frame: distills it, resolves its session, routes it to
    /// its shard's batch buffer. Blocks while that shard's queue is full
    /// at a batch flush.
    pub fn submit(&mut self, time: SimTime, pkt: &IpPacket) {
        // Fold barrier first: a crossed capture-time boundary is
        // evaluated over the frames dispatched *before* this one (this
        // frame's observations belong to the next fold period).
        self.maybe_fold(time);
        self.dispatch.frames += 1;
        self.last_time = time;
        let seq = self.seq;
        self.seq += 1;
        // Time-boundary flush: any shard whose oldest buffered frame is
        // `linger` behind the capture clock ships now. Driven purely by
        // the frame sequence, so dispatch stays deterministic.
        self.flush_lingering(time);
        let Some(fp) = self.distiller.distill(time, pkt) else {
            // No footprint (fragment in flight): account the frame on
            // the overflow shard so per-shard frame counters still sum
            // to the dispatcher's frame count.
            self.dispatch.empty_frames += 1;
            self.buffer(self.router.overflow_shard(), ShardFrame { seq, time, fp: None });
            return;
        };
        let decision = self.router.route(&fp);
        if decision.overflow {
            self.dispatch.overflow_frames += 1;
        }
        if self.trace.enabled() {
            self.trace.push(TraceEntry {
                seq,
                time,
                shard: decision.shard,
                stage: TraceStage::Route,
                session: decision.session.to_string(),
                proto: format!("{:?}", fp.proto()),
                events: 0,
                alerts: 0,
            });
        }
        // The identity plane sees every footprint in dispatch order; its
        // events ride along to the owning shard.
        let injected_events = self.identity.on_footprint(&fp);
        self.buffer(
            decision.shard,
            ShardFrame {
                seq,
                time,
                fp: Some(DistilledFootprint {
                    footprint: fp,
                    injected_events,
                }),
            },
        );
    }

    /// Appends a frame to its shard's batch, flushing on batch-full.
    fn buffer(&mut self, shard: usize, frame: ShardFrame) {
        self.dispatched[shard] += 1;
        self.buffers[shard].push(frame);
        if self.buffers[shard].len() >= self.batch {
            self.flush(shard);
        }
    }

    /// Flushes every shard whose oldest buffered frame has waited
    /// `linger` or more of capture time.
    fn flush_lingering(&mut self, now: SimTime) {
        for shard in 0..self.buffers.len() {
            if let Some(first) = self.buffers[shard].first() {
                if now.saturating_since(first.time) >= self.linger {
                    self.flush(shard);
                }
            }
        }
    }

    /// Ships a shard's buffered batch as one channel send.
    fn flush(&mut self, shard: usize) {
        if self.buffers[shard].is_empty() {
            return;
        }
        // A buffer sized for a whole batch, so the next pushes do not
        // regrow it.
        let batch = std::mem::replace(&mut self.buffers[shard], Vec::with_capacity(self.batch));
        self.batches_sent += 1;
        if self.histograms {
            self.batch_fill.record(batch.len() as u64);
            // How long the batch's oldest frame waited for this flush,
            // in capture time.
            if let Some(first) = batch.first() {
                let waited = self.last_time.saturating_since(first.time);
                self.batch_linger_ms.record(waited.as_micros() / 1_000);
            }
        }
        // Depth *after* this send; the worker decrements once it has
        // processed the batch, so in-flight work counts as depth.
        let depth = self.telemetry[shard].queue_batches.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_queue_depth = self.max_queue_depth.max(depth);
        match self.senders[shard].try_send(ShardMsg::Batch(batch)) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                // Backpressure: block until the shard drains. Frames are
                // never shed, so `dispatch.dropped` stays zero.
                self.blocked[shard] += 1;
                let _ = self.senders[shard].send(msg);
            }
            Err(TrySendError::Disconnected(_)) => {
                // Worker died (panicked); surfaced by finish().
            }
        }
    }

    /// Runs a fold if the capture clock has crossed the next boundary.
    /// Boundaries are multiples of the fold interval in capture time —
    /// a pure function of the frame timestamps, identical at every shard
    /// count and batch size, which is what keeps fold-alert timestamps
    /// (and hence the merged stream) deterministic. Skipped until the
    /// first frame is dispatched: there is nothing to fold.
    fn maybe_fold(&mut self, time: SimTime) {
        if self.seq == 0 || time < self.fold.next_boundary {
            return;
        }
        let us = self.fold.interval.as_micros().max(1);
        // The largest boundary at or before `time`; intermediate
        // boundaries an idle gap skipped over carry no new deltas, so
        // evaluating once at the latest is equivalent.
        let boundary = SimTime::from_micros((time.as_micros() / us) * us);
        self.run_fold(boundary);
        self.fold.next_boundary = boundary + self.fold.interval;
    }

    /// The fold barrier: flushes every dispatch buffer (so each worker's
    /// queue holds all frames dispatched so far — buffer occupancy varies
    /// with shard count and must not leak into what a fold sees), asks
    /// every shard for its rate delta, absorbs the replies into the
    /// global plane, evaluates the threshold clauses at `at`, and
    /// injects the resulting alerts into the merge stream (tagged; see
    /// [`GLOBAL_IDX_BASE`]).
    fn run_fold(&mut self, at: SimTime) {
        for shard in 0..self.buffers.len() {
            self.flush(shard);
        }
        let fold = &mut self.fold;
        let mut expected = 0usize;
        for tx in &self.senders {
            // A blocking send keeps the barrier lossless under a full
            // queue; a dead worker is skipped and, crucially, not waited
            // for below.
            if tx.send(ShardMsg::Fold).is_ok() {
                expected += 1;
            }
        }
        for _ in 0..expected {
            match fold.replies.recv() {
                Ok(delta) => fold.plane.absorb(delta),
                Err(_) => break,
            }
        }
        let alerts = fold.plane.evaluate(at);
        if !alerts.is_empty() {
            let last_covered = self.seq - 1;
            let mut sink = self.sink.lock();
            for (i, alert) in alerts.into_iter().enumerate() {
                match alert.severity {
                    Severity::Info => fold.severity.info += 1,
                    Severity::Warning => fold.severity.warning += 1,
                    Severity::Critical => fold.severity.critical += 1,
                }
                sink.push((last_covered, GLOBAL_IDX_BASE + i as u32, alert));
            }
        }
    }

    /// Replays a capture (time, packet) in order.
    pub fn process_capture<'a, I>(&mut self, frames: I)
    where
        I: IntoIterator<Item = (SimTime, &'a IpPacket)>,
    {
        for (time, pkt) in frames {
            self.submit(time, pkt);
        }
    }

    /// Snapshot of the alerts published so far, in merge order. The
    /// result is always a *prefix* of the final merged stream: alerts
    /// past the slowest busy shard's processed-through watermark are
    /// withheld until every earlier frame has been processed, so a
    /// fast shard can never surface an alert ahead of a still-pending
    /// earlier one. Shards still working may append more; `finish` is
    /// authoritative.
    pub fn alerts_snapshot(&self) -> Vec<Alert> {
        // Frames with seq < watermark are fully processed everywhere.
        // A shard counts as busy while it has buffered frames at the
        // dispatcher or batches queued/in flight (`queue_batches` is
        // decremented only after a batch completes); idle shards
        // constrain nothing. Reading the telemetry *before* locking the
        // sink pairs with the worker's release stores, so every alert
        // below the watermark is visible by the time we read the sink.
        let mut watermark = u64::MAX;
        for (shard, tel) in self.telemetry.iter().enumerate() {
            let busy = !self.buffers[shard].is_empty()
                || tel.queue_batches.load(Ordering::Acquire) > 0;
            if busy {
                watermark = watermark.min(tel.processed_seq.load(Ordering::Acquire));
            }
        }
        // Sorting in place under the lock (instead of cloning the whole
        // tagged vector first) keeps the snapshot to one pass of alert
        // clones. Merge order is unaffected: the sort key is the same
        // one `finish` uses, and sorting is idempotent.
        let mut sink = self.sink.lock();
        sink.sort_by_key(|&(seq, idx, _)| (seq, idx));
        sink.iter()
            .take_while(|&&(seq, _, _)| seq < watermark)
            .map(|(_, _, a)| a.clone())
            .collect()
    }

    /// Builds the dispatch-counter slice of an observation from the
    /// dispatcher's own state plus a queue-depth snapshot.
    fn dispatch_counters(&self, queue_depths: Vec<u64>) -> DispatchCounters {
        let fold = self.fold.plane.fold_stats();
        DispatchCounters {
            frames: self.dispatch.frames,
            empty_frames: self.dispatch.empty_frames,
            overflow_frames: self.dispatch.overflow_frames,
            dropped: self.dispatch.dropped,
            batches_sent: self.batches_sent,
            enqueue_blocked: self.blocked.iter().sum(),
            max_queue_depth: self.max_queue_depth,
            queue_depths,
            folds: fold.folds,
            fold_deltas: fold.deltas_absorbed,
            fold_candidates: fold.observations,
            fold_alerts: fold.alerts,
            fold_evicted: fold.evicted,
            ruleset_swaps: self.ruleset_swaps,
            ruleset_compile_errors: self.ruleset_compile_errors,
        }
    }

    /// The dispatcher's contribution to the state gauges: the router's
    /// own media index, interner and synthetic-key caches (kept in
    /// lock-step with the per-shard trail stores, but counted
    /// separately) and the identity plane's bindings and tables.
    fn router_gauges(&self) -> StateGauges {
        let [media, interner, synthetic] = self.router.index().gauges();
        let bindings = self.identity.binding_gauge();
        let rate = self.identity.rate_stats();
        StateGauges {
            router_media_index: media.live,
            router_interner: interner.live,
            router_synthetic_keys: synthetic.live,
            identity_bindings: bindings.live,
            evicted_entries: [media, interner, synthetic, bindings]
                .iter()
                .map(|g| g.evicted)
                .sum(),
            rate_bytes: rate.bytes,
            rate_evicted: rate.evicted,
            fold_rate_bytes: self.fold.plane.bytes(),
            ..StateGauges::default()
        }
    }

    /// The dispatcher's own contribution to an observation: the router
    /// gauges, plus the alerts the fold plane raised (dispatcher-side,
    /// so no worker counts them) — without which the totals would not
    /// match the alert stream, nor a 1-shard report a 4-shard one.
    fn dispatcher_tally(&self) -> Tally {
        let mut tally = Tally {
            gauges: self.router_gauges(),
            severity: self.fold.severity,
            ..Tally::default()
        };
        tally.pipeline.alerts = self.fold.plane.fold_stats().alerts;
        tally
    }

    /// A live observation snapshot, read from the tallies the workers
    /// publish after every batch (so counters may trail the submit side
    /// by up to one in-flight batch per shard). Worker histograms and
    /// traces are only collected at [`ShardedScidive::finish`]; the
    /// histogram section here carries the dispatcher's batch histograms.
    pub fn observation(&self) -> PipelineObservation {
        let mut tally = self.dispatcher_tally();
        let mut queue_depths = Vec::with_capacity(self.telemetry.len());
        for tel in &self.telemetry {
            tally = tally + *tel.tally.lock();
            queue_depths.push(tel.queue_batches.load(Ordering::Relaxed));
        }
        PipelineObservation {
            pipeline: tally.pipeline,
            severity: tally.severity,
            distill: self.distiller.stats(),
            dispatch: self.dispatch_counters(queue_depths),
            gauges: tally.gauges,
            hist: ObservedHistograms {
                batch_fill: self.batch_fill.clone(),
                batch_linger_ms: self.batch_linger_ms.clone(),
                ..ObservedHistograms::default()
            },
            // Per-rule eval counters live in the workers and are
            // collected at join, like worker histograms.
            rule_evals: Vec::new(),
            trace: self.trace.clone().into_vec(),
        }
    }

    /// Closes the queues (flushing any partial batches), waits for every
    /// shard to drain, and returns the merged report. The alert stream
    /// and summed pipeline counters equal a single engine's output over
    /// the same capture.
    ///
    /// # Panics
    ///
    /// Panics if a shard worker panicked.
    pub fn finish(mut self) -> ShardedReport {
        for shard in 0..self.buffers.len() {
            self.flush(shard);
        }
        // Final fold at the last capture timestamp: a campaign whose
        // crossing falls after the last periodic boundary still gets its
        // global evaluation. `last_time` is a property of the capture,
        // so the extra fold is as deterministic as the periodic ones.
        if self.seq > 0 {
            self.run_fold(self.last_time);
        }
        let mut dispatch_counters = self.dispatch_counters(Vec::new());
        let mut tally = self.dispatcher_tally();
        let mut hist = ObservedHistograms {
            batch_fill: self.batch_fill.clone(),
            batch_linger_ms: self.batch_linger_ms.clone(),
            ..ObservedHistograms::default()
        };
        let mut rule_evals = Vec::new();
        let mut trace = self.trace.clone().into_vec();
        let ShardedScidive {
            senders,
            workers,
            sink,
            dispatch,
            dispatched,
            blocked,
            distiller,
            telemetry,
            ..
        } = self;
        drop(senders);
        let mut shards = Vec::with_capacity(workers.len());
        for (shard, worker) in workers.into_iter().enumerate() {
            let (pipeline, engine) = worker.join().expect("shard worker panicked");
            shards.push(ShardStats {
                shard,
                pipeline,
                dispatched: dispatched[shard],
                enqueue_blocked: blocked[shard],
            });
            tally = tally
                + Tally {
                    pipeline,
                    severity: engine.severity,
                    gauges: engine.gauges,
                };
            hist.rule_eval_ns.merge(&engine.rule_eval_ns);
            hist.detection_delay_ms.merge(&engine.detection_delay_ms);
            merge_rule_evals(&mut rule_evals, &engine.rule_evals);
            for mut entry in engine.trace {
                entry.shard = shard;
                trace.push(entry);
            }
        }
        // Queues are drained, so every shard's depth reads zero; record
        // the final snapshot anyway for report shape consistency.
        dispatch_counters.queue_depths = telemetry
            .iter()
            .map(|t| t.queue_batches.load(Ordering::Relaxed))
            .collect();
        // Interleave dispatcher route entries with worker match entries
        // by capture time (each component's entries are already ordered).
        trace.sort_by_key(|e| (e.time, e.seq));
        let observation = PipelineObservation {
            pipeline: tally.pipeline,
            severity: tally.severity,
            distill: distiller.stats(),
            dispatch: dispatch_counters,
            gauges: tally.gauges,
            hist,
            rule_evals,
            trace,
        };
        // Workers have all joined, so the Arc is normally unique; if a
        // stale handle keeps it alive, take the contents rather than
        // cloning the whole tagged vector.
        let mut tagged = Arc::try_unwrap(sink)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| std::mem::take(&mut *arc.lock()));
        tagged.sort_by_key(|&(seq, idx, _)| (seq, idx));
        let alerts = tagged.into_iter().map(|(_, _, a)| a).collect();
        ShardedReport {
            alerts,
            stats: tally.pipeline,
            shards,
            dispatch,
            observation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sip_frame(payload: &str) -> IpPacket {
        IpPacket::udp(
            Ipv4Addr::new(10, 0, 0, 2),
            5060,
            Ipv4Addr::new(10, 0, 0, 1),
            5060,
            payload.as_bytes().to_vec(),
        )
    }

    fn options(call_id: &str) -> IpPacket {
        sip_frame(&format!(
            "OPTIONS sip:b@lab SIP/2.0\r\nCall-ID: {call_id}\r\n\r\n"
        ))
    }

    #[test]
    fn sharded_matches_single_engine() {
        let frames: Vec<(SimTime, IpPacket)> = (0..40)
            .map(|i| (SimTime::from_millis(i), options(&format!("call-{}", i % 5))))
            .collect();

        let mut single = Scidive::new(ScidiveConfig::default());
        for (t, f) in &frames {
            single.on_frame(*t, f);
        }

        for shards in [1, 2, 4] {
            let mut sharded = ShardedScidive::new(ScidiveConfig::default(), shards, 8);
            sharded.process_capture(frames.iter().map(|(t, f)| (*t, f)));
            let report = sharded.finish();
            assert_eq!(report.alerts, single.alerts(), "shards={shards}");
            assert_eq!(report.stats, single.stats(), "shards={shards}");
            assert_eq!(report.dispatch.dropped, 0);
            assert_eq!(report.observation.pipeline, report.stats);
            assert_eq!(
                report.observation.severity.total(),
                report.alerts.len() as u64
            );
        }
    }

    #[test]
    fn snapshot_while_running() {
        let mut ids = ShardedScidive::new(ScidiveConfig::default(), 1, 4);
        ids.submit(SimTime::ZERO, &options("x"));
        // Snapshots are best-effort; finish() is authoritative.
        let _ = ids.alerts_snapshot();
        assert!(ids.observation().dispatch.frames >= 1);
        assert!(!ids.finish().alerts.is_empty());
    }

    #[test]
    fn per_shard_counters_sum_to_dispatch() {
        let mut sharded = ShardedScidive::new(ScidiveConfig::default(), 3, 4);
        for i in 0..30 {
            sharded.submit(SimTime::from_millis(i), &options(&format!("c{}", i % 7)));
        }
        let report = sharded.finish();
        assert_eq!(report.dispatch.frames, 30);
        assert_eq!(
            report.shards.iter().map(|s| s.dispatched).sum::<u64>(),
            30
        );
        assert_eq!(
            report.shards.iter().map(|s| s.pipeline.frames).sum::<u64>(),
            30
        );
    }

    /// One established call on the wire: the INVITE at `at` and its
    /// 200 OK ten milliseconds later, under Call-ID `{id}@lab`.
    fn call_frames(caller: &str, callee: &str, id: &str, at: SimTime) -> [(SimTime, IpPacket); 2] {
        use scidive_sip::prelude::*;
        let mut b = RequestBuilder::new(Method::Invite, callee.parse().unwrap());
        b.from(NameAddr::new(caller.parse().unwrap()).with_tag("t"))
            .to(NameAddr::new(callee.parse().unwrap()))
            .call_id(format!("{id}@lab"))
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.2:5060", format!("z9hG4bK-{id}")));
        let invite = b.build();
        let ok = response_to(&invite, StatusCode::OK, Some("r"));
        [
            (at, sip_frame(&String::from_utf8_lossy(&invite.to_bytes()))),
            (
                at + SimDuration::from_millis(10),
                sip_frame(&String::from_utf8_lossy(&ok.to_bytes())),
            ),
        ]
    }

    /// More distinct callers in one window than the fold plane's table
    /// holds, then one real fan-out, through the whole pipeline at 1
    /// and 4 shards: the table stays under its cap, every dropped
    /// observation shows in the dispatch counter and the report line,
    /// the survivors (hence the alerts) do not depend on the shard
    /// count, and nobody but the real campaign is accused.
    #[test]
    fn fold_plane_over_its_cap_evicts_identically_at_any_shard_count() {
        const CAP: usize = 24 * 1024;
        let mut frames = Vec::new();
        for i in 0..3_000u64 {
            frames.extend(call_frames(
                &format!("sip:c{i}@lab"),
                &format!("sip:peer{i}@lab"),
                &format!("crowd-{i}"),
                SimTime::from_millis(i),
            ));
        }
        for i in 0..14u64 {
            frames.extend(call_frames(
                "sip:spammer@lab",
                &format!("sip:victim{i}@lab"),
                &format!("fan-{i}"),
                SimTime::from_millis(3_000 + 100 * i),
            ));
        }
        frames.sort_by_key(|f| f.0);

        let mut outcomes = Vec::new();
        for shards in [1usize, 4] {
            let config = ScidiveConfig::default();
            let specs = config.blueprint().unwrap().threshold_specs();
            let mut ids = ShardedScidive::new(config, shards, 64);
            ids.fold.plane = GlobalRatePlane::with_table_cap(specs, CAP);
            for (t, f) in &frames {
                ids.submit(*t, f);
                assert!(ids.router_gauges().fold_rate_bytes <= CAP as u64);
            }
            let report = ids.finish();
            let accused: Vec<&Alert> = report
                .alerts
                .iter()
                .filter(|a| a.rule == "rapid-connect")
                .collect();
            assert_eq!(accused.len(), 1, "{accused:?}");
            assert!(accused[0].message.contains("spammer@lab"));
            let obs = &report.observation;
            assert_eq!(obs.dispatch.fold_candidates, 3_014);
            assert!(obs.dispatch.fold_evicted > 2_000, "{:?}", obs.dispatch);
            assert!(obs
                .report()
                .contains(&format!("evicted={} ", obs.dispatch.fold_evicted)));
            outcomes.push((
                report.alerts,
                obs.dispatch.fold_evicted,
                obs.gauges.fold_rate_bytes,
            ));
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardedScidive::new(ScidiveConfig::default(), 0, 4);
    }
}
