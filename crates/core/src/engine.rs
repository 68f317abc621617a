//! The assembled SCIDIVE engine: Distiller → Trails → Event Generator →
//! Ruleset, plus a simulator node for live endpoint deployment.

use crate::alert::Alert;
use crate::distill::{Distiller, DistillerConfig, DistillStats};
use crate::event::{Event, EventGenConfig, EventGenerator};
use crate::footprint::Footprint;
use crate::observe::{
    merge_rule_evals, DispatchCounters, EngineObservation, EngineObserver, ObserveConfig,
    ObservedHistograms, PipelineObservation, RuleEval, StateGauges,
};
use crate::proto::ProtocolSet;
use crate::rate::{FoldConfig, RateConfig, RateDelta, RateHub};
use crate::rules::{
    dsl, AlertSink, CompiledRuleset, Diagnostic, Program, Rule, RuleCtx, RuleToggles,
    RulesetBlueprint,
};
use crate::trail::{TrailStats, TrailStore, TrailStoreConfig};
use scidive_netsim::node::{Node, NodeCtx};
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::path::PathBuf;

/// Where an engine's ruleset comes from.
///
/// The built-in rules are always governed by [`ScidiveConfig::rules`];
/// the DSL variants *append* an operator program (see
/// [`crate::rules::dsl`]) behind them, exactly like
/// [`Scidive::add_rules_from_spec`] would, but resolved at build time so
/// the sharded pipeline can compile the same program on every worker.
#[derive(Debug, Clone, Default)]
pub enum RulesetSource {
    /// Only the toggled built-in rules.
    #[default]
    Builtin,
    /// Built-ins plus an operator DSL program given inline.
    Dsl(String),
    /// Built-ins plus an operator DSL program loaded from a file
    /// (conventionally `*.scid`).
    DslFile(PathBuf),
}

impl RulesetSource {
    /// Resolves the source into a validated [`Program`] (`None` for
    /// [`RulesetSource::Builtin`]).
    ///
    /// # Errors
    ///
    /// Returns the program's first [`Diagnostic`]; a file that cannot
    /// be read is one at line 0.
    pub fn program(&self) -> Result<Option<Program>, Diagnostic> {
        match self {
            RulesetSource::Builtin => Ok(None),
            RulesetSource::Dsl(text) => Ok(Some(Program::parse(text)?)),
            RulesetSource::DslFile(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| Diagnostic {
                    line: 0,
                    col: 0,
                    len: 0,
                    message: format!("cannot read {}: {e}", path.display()),
                    hint: None,
                })?;
                Ok(Some(Program::parse(&text)?))
            }
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct ScidiveConfig {
    /// Distiller settings.
    pub distiller: DistillerConfig,
    /// Trail retention settings.
    pub trails: TrailStoreConfig,
    /// Event-generation settings (incl. the stateful / cross-protocol
    /// ablation switches).
    pub events: EventGenConfig,
    /// Which built-in rules to install.
    pub rules: RuleToggles,
    /// Observability settings (histograms on, trace off by default).
    pub observe: ObserveConfig,
    /// Cap on undrained events retained for cooperative exchange (see
    /// [`Scidive::drain_events`]). The default, `0`, keeps none; events
    /// past the cap are counted in
    /// [`crate::observe::StateGauges::event_log_dropped`].
    pub event_log_cap: usize,
    /// Run the ruleset as a full scan (every rule sees every event)
    /// instead of the compiled event-class dispatch table. The reference
    /// mode for equivalence testing; slower, never needed in production.
    pub full_scan_rules: bool,
    /// The protocol-module registry every pipeline stage dispatches
    /// through (classification, attribution, event generation). Built
    /// via [`crate::proto::ProtocolSetBuilder`]; the default covers
    /// SIP / RTP / RTCP / accounting plus the fallback.
    pub protocols: ProtocolSet,
    /// Inert: every rate clause — the identity plane's flood and
    /// password guessing, `rapid-connect`, DSL `threshold` clauses — is
    /// decided on exact, capped per-key state
    /// ([`crate::rate::ThresholdTable`]) whatever this says. Kept only
    /// so existing configurations still build.
    pub exact_rate_state: bool,
    /// Hash seed for threshold-clause window keys.
    pub rate: RateConfig,
    /// Cross-shard rate aggregation (the fold plane). Consulted only by
    /// [`crate::shard::ShardedScidive`]; a single engine evaluates rate
    /// clauses locally either way.
    pub fold: FoldConfig,
    /// Where the ruleset comes from: the toggled built-ins alone, or
    /// built-ins plus an operator DSL program (inline or from a file).
    pub ruleset: RulesetSource,
}

impl Default for ScidiveConfig {
    fn default() -> ScidiveConfig {
        ScidiveConfig {
            distiller: DistillerConfig::default(),
            trails: TrailStoreConfig::default(),
            events: EventGenConfig::default(),
            rules: RuleToggles::default(),
            observe: ObserveConfig::default(),
            event_log_cap: 0,
            full_scan_rules: false,
            protocols: ProtocolSet::default(),
            exact_rate_state: true,
            rate: RateConfig::default(),
            fold: FoldConfig::default(),
            ruleset: RulesetSource::default(),
        }
    }
}

impl ScidiveConfig {
    /// Resolves [`ScidiveConfig::ruleset`] into a generation-0
    /// [`RulesetBlueprint`] — the sharded pipeline ships this to every
    /// worker so they all lower the identical ruleset.
    ///
    /// # Errors
    ///
    /// Returns the [`Diagnostic`] if the configured DSL program does not
    /// compile (or its file cannot be read).
    pub fn blueprint(&self) -> Result<RulesetBlueprint, Diagnostic> {
        Ok(RulesetBlueprint {
            toggles: self.rules.clone(),
            program: self.ruleset.program()?,
            generation: 0,
        })
    }
}

/// Pipeline counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Frames offered to the engine.
    pub frames: u64,
    /// Footprints distilled.
    pub footprints: u64,
    /// Events generated.
    pub events: u64,
    /// Alerts raised.
    pub alerts: u64,
}

impl std::ops::Add for PipelineStats {
    type Output = PipelineStats;
    fn add(self, rhs: PipelineStats) -> PipelineStats {
        PipelineStats {
            frames: self.frames + rhs.frames,
            footprints: self.footprints + rhs.footprints,
            events: self.events + rhs.events,
            alerts: self.alerts + rhs.alerts,
        }
    }
}

/// A footprint that already passed distillation, plus any events an
/// upstream [`crate::event::IdentityPlane`] generated for it. The unit a
/// [`crate::shard::ShardedScidive`] dispatcher hands to its shards.
#[derive(Debug)]
pub struct DistilledFootprint {
    /// The distilled footprint.
    pub footprint: Footprint,
    /// Identity-plane events to append behind the footprint's own
    /// session-plane events.
    pub injected_events: Vec<Event>,
}

/// The SCIDIVE intrusion detection engine.
///
/// # Examples
///
/// ```
/// use scidive_core::engine::{Scidive, ScidiveConfig};
/// use scidive_netsim::packet::IpPacket;
/// use scidive_netsim::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut ids = Scidive::new(ScidiveConfig::default());
/// let frame = IpPacket::udp(
///     Ipv4Addr::new(10, 0, 0, 1), 5060,
///     Ipv4Addr::new(10, 0, 0, 2), 5060,
///     b"OPTIONS sip:b@lab SIP/2.0\r\nCall-ID: x\r\n\r\n".as_ref(),
/// );
/// let alerts = ids.on_frame(SimTime::ZERO, &frame);
/// // A lone OPTIONS only trips the format rule (missing headers).
/// assert!(alerts.iter().all(|a| a.rule == "sip-format"));
/// ```
pub struct Scidive {
    distiller: Distiller,
    trails: TrailStore,
    events: EventGenerator,
    rules: CompiledRuleset,
    alerts: Vec<Alert>,
    stats: PipelineStats,
    observer: EngineObserver,
    /// Undrained events, kept for cooperative exchange (paper §6:
    /// detectors "exchange event objects"). Bounded by
    /// `event_log_cap`; drained by [`Scidive::drain_events`].
    event_log: Vec<crate::event::Event>,
    event_log_cap: usize,
    /// Events not logged because the log was full.
    event_log_dropped: u64,
    /// The per-footprint event buffer, reused: empty between
    /// footprints, its capacity kept.
    event_buf: Vec<Event>,
    /// The ruleset's rate hub (see [`crate::rate::RateHub`]).
    rates: RateHub,
    /// Generation of the installed ruleset (bumped by hot swaps).
    ruleset_generation: u64,
    /// Final eval counters of rulesets retired by hot swaps, folded
    /// into every observation so invocation totals stay monotonic.
    retired_evals: Vec<RuleEval>,
}

impl Scidive {
    /// Builds the engine with its configured ruleset, compiled into the
    /// event-class dispatch table (or full-scan when
    /// [`ScidiveConfig::full_scan_rules`] is set).
    ///
    /// # Panics
    ///
    /// Panics if [`ScidiveConfig::ruleset`] names a DSL program that
    /// does not compile; use [`Scidive::try_new`] to handle that case.
    pub fn new(config: ScidiveConfig) -> Scidive {
        Scidive::try_new(config).expect("configured ruleset compiles")
    }

    /// [`Scidive::new`], surfacing ruleset compile errors instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`Diagnostic`] if the configured DSL program does not
    /// compile (or its file cannot be read).
    pub fn try_new(config: ScidiveConfig) -> Result<Scidive, Diagnostic> {
        let blueprint = config.blueprint()?;
        Ok(Scidive::assemble(config, &blueprint, false))
    }

    /// Builds a shard engine — the entry point the sharded workers use,
    /// both at boot and (indirectly, via [`Scidive::swap_ruleset`]) at
    /// swap barriers, so a swapped-in ruleset and a boot ruleset built
    /// from the same blueprint are the same object graph. Identical to
    /// [`Scidive::new`] except the event generator runs without an
    /// identity plane, because the sharded dispatcher owns the one
    /// shared plane and injects its events via
    /// [`Scidive::on_distilled`]; and the rate hub runs in aggregated
    /// mode ([`crate::rate::RateHub::new_aggregated`]): threshold rules
    /// forward their observations, and the dispatcher's
    /// [`crate::rate::GlobalRatePlane`] owns threshold evaluation.
    pub fn data_plane_from_blueprint(
        config: ScidiveConfig,
        blueprint: &RulesetBlueprint,
    ) -> Scidive {
        Scidive::assemble(config, blueprint, true)
    }

    fn assemble(config: ScidiveConfig, blueprint: &RulesetBlueprint, data_plane: bool) -> Scidive {
        let rules = blueprint.build(config.full_scan_rules, config.trails.idle_timeout);
        let rates = if data_plane {
            RateHub::new_aggregated(config.rate.clone(), config.exact_rate_state)
        } else {
            RateHub::new(config.rate.clone(), config.exact_rate_state)
        };
        let events = if data_plane {
            EventGenerator::data_plane_with_protocols(config.events, &config.protocols)
        } else {
            EventGenerator::with_protocols(config.events, &config.protocols)
        };
        Scidive {
            distiller: Distiller::with_protocols(config.distiller, config.protocols.clone()),
            trails: TrailStore::with_protocols(config.trails, config.protocols.clone()),
            events,
            rules,
            alerts: Vec::new(),
            stats: PipelineStats::default(),
            observer: EngineObserver::new(&config.observe),
            event_log: Vec::new(),
            event_log_cap: config.event_log_cap,
            event_log_dropped: 0,
            event_buf: Vec::new(),
            rates,
            ruleset_generation: blueprint.generation,
            retired_evals: Vec::new(),
        }
    }

    /// Atomically replaces the installed ruleset with the blueprint's,
    /// adopting the per-session state of every rule that survived the
    /// swap unchanged ([`CompiledRuleset::adopt_state`]): partial
    /// sequences, fired-once latches and threshold tables carry
    /// over; changed or new rules start fresh. The old ruleset's eval
    /// counters are retired into this engine's observation so per-rule
    /// invocation totals stay monotonic across swaps.
    ///
    /// For a single engine the "barrier" is trivial — the swap happens
    /// between two frames. The sharded pipeline reaches this through a
    /// FIFO barrier token so every shard swaps at the same frame
    /// boundary; see [`crate::shard::ShardedScidive::swap_ruleset`].
    ///
    /// Returns the number of rules whose state carried over.
    pub fn swap_ruleset(&mut self, blueprint: &RulesetBlueprint) -> usize {
        let mut fresh = blueprint.build(self.rules.is_full_scan(), self.rules.state_timeout());
        let old = std::mem::replace(&mut self.rules, CompiledRuleset::new(Vec::new(), false));
        let (adopted, retired) = fresh.adopt_state(old);
        self.rules = fresh;
        merge_rule_evals(&mut self.retired_evals, &retired);
        self.ruleset_generation = blueprint.generation;
        adopted
    }

    /// Swaps out this engine's accumulated fold-plane delta
    /// ([`crate::rate::RateHub::take_delta`]) — the shard side of a fold
    /// barrier. Empty unless the hub runs in aggregated mode.
    pub fn take_rate_delta(&mut self) -> RateDelta {
        self.rates.take_delta()
    }

    /// Adds a custom rule alongside the built-ins. The rule is indexed
    /// by its [`crate::rules::Rule::interests`] and inherits the
    /// trail-store idle timeout for its per-session state.
    pub fn add_rule(&mut self, rule: Box<dyn Rule>) {
        self.rules.push(rule);
    }

    /// Compiles an operator rule program (see [`crate::rules::dsl`])
    /// and installs its rules behind the ones already installed.
    ///
    /// # Errors
    ///
    /// Returns the program's first [`Diagnostic`], installing nothing,
    /// if it does not compile.
    pub fn add_rules_from_spec(&mut self, spec: &str) -> Result<usize, Diagnostic> {
        let rules = dsl::compile_program(&Program::parse(spec)?);
        let n = rules.len();
        for rule in rules {
            self.rules.push(rule);
        }
        Ok(n)
    }

    /// Feeds one frame; returns the alerts it raised (also retained).
    pub fn on_frame(&mut self, time: SimTime, pkt: &IpPacket) -> Vec<Alert> {
        self.stats.frames += 1;
        let mut new_alerts = Vec::new();
        if let Some(fp) = self.distiller.distill(time, pkt) {
            self.process_footprint(time, fp, Vec::new(), &mut new_alerts);
        }
        self.stats.alerts += new_alerts.len() as u64;
        self.alerts.extend(new_alerts.iter().cloned());
        new_alerts
    }

    /// Feeds one frame's already-distilled footprint (the shard-side
    /// entry point: the dispatcher runs the distiller and the identity
    /// plane, shards run everything downstream). Counts one frame
    /// whether or not it carried a footprint — `None` marks frames that
    /// produced nothing (fragments in flight), so per-shard frame
    /// counters still sum to the number of frames the dispatcher saw.
    ///
    /// Unlike [`Scidive::on_frame`], the alerts are returned but not
    /// retained ([`Scidive::alerts`] does not see them, though
    /// `stats().alerts` counts them): the sharded pipeline merges each
    /// worker's alerts into its shared sink, so a worker-side copy would
    /// only grow for as long as the run lasts.
    pub fn on_distilled(
        &mut self,
        time: SimTime,
        footprint: Option<DistilledFootprint>,
    ) -> Vec<Alert> {
        self.stats.frames += 1;
        let mut new_alerts = Vec::new();
        if let Some(dfp) = footprint {
            self.process_footprint(time, dfp.footprint, dfp.injected_events, &mut new_alerts);
        }
        self.stats.alerts += new_alerts.len() as u64;
        new_alerts
    }

    /// Runs one footprint through trails → events → rules. `injected`
    /// events (from an external identity plane) are appended after the
    /// footprint's own events, matching the embedded-plane event order.
    fn process_footprint(
        &mut self,
        time: SimTime,
        fp: Footprint,
        injected: Vec<Event>,
        new_alerts: &mut Vec<Alert>,
    ) {
        self.stats.footprints += 1;
        let (fp, key) = self.trails.insert(fp);
        let mut events = std::mem::take(&mut self.event_buf);
        self.events
            .on_footprint_into(&fp, &key, &self.trails, &mut events);
        events.extend(injected);
        self.stats.events += events.len() as u64;
        let alerts_before = new_alerts.len();
        let timer = self.observer.match_timer();
        {
            // One context and one sink for the whole batch: the inner
            // loop does no allocation or rebuild work per (event, rule).
            let ctx = RuleCtx {
                now: time,
                trails: &self.trails,
                rates: &self.rates,
            };
            let mut sink = AlertSink::new(new_alerts);
            for ev in &events {
                self.rules.dispatch(ev, &ctx, &mut sink);
            }
        }
        self.observer.record_match(timer);
        if new_alerts.len() > alerts_before {
            // The detection delay is sim-time from the triggering
            // trail's birth to the alert — the paper's end-to-end
            // latency notion.
            let delay = self
                .trails
                .trail(&key)
                .map(|t| time.saturating_since(t.created()));
            for alert in &new_alerts[alerts_before..] {
                self.observer.record_alert(alert.severity, delay);
            }
        }
        if self.observer.trace_enabled() {
            self.observer.push_trace(
                time,
                key.session.to_string(),
                format!("{:?}", key.proto),
                events.len() as u32,
                (new_alerts.len() - alerts_before) as u32,
            );
        }
        if self.event_log.len() < self.event_log_cap {
            self.event_log.append(&mut events);
        } else {
            self.event_log_dropped += events.len() as u64;
        }
        events.clear();
        self.event_buf = events;
    }

    /// Replays a capture (time, packet) in order.
    pub fn process_capture<'a, I>(&mut self, frames: I) -> usize
    where
        I: IntoIterator<Item = (SimTime, &'a IpPacket)>,
    {
        let before = self.alerts.len();
        for (time, pkt) in frames {
            self.on_frame(time, pkt);
        }
        self.alerts.len() - before
    }

    /// All alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Drains the events generated since the last drain — the "event
    /// objects" a cooperative deployment exchanges between detectors
    /// (bounded at [`ScidiveConfig::event_log_cap`] between drains).
    pub fn drain_events(&mut self) -> Vec<crate::event::Event> {
        std::mem::take(&mut self.event_log)
    }

    /// Pipeline counters.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Distiller counters.
    pub fn distill_stats(&self) -> DistillStats {
        self.distiller.stats()
    }

    /// Trail-store counters.
    pub fn trail_stats(&self) -> TrailStats {
        self.trails.stats()
    }

    /// Read access to the trails (for harness inspection).
    pub fn trails(&self) -> &TrailStore {
        &self.trails
    }

    /// Alert counts by severity so far.
    pub fn severity_counts(&self) -> crate::observe::SeverityCounts {
        self.observer.severity()
    }

    /// Current sizes and lifecycle counters of this engine's stateful
    /// stores — the gauges that must plateau under sustained load, each
    /// read off its store's [`crate::idle::StoreGauge`].
    pub fn gauges(&self) -> StateGauges {
        let trails = self.trails.gauge();
        let [media, interner, synthetic] = self.trails.media_index().gauges();
        let generator = self.events.gauges();
        let [sessions, rtp_flows, bindings] = generator;
        let rule_state = self.rules.state_stats();
        // Rate bytes: the identity plane's tables, the threshold rules'
        // tables, and whatever is queued for the next fold. Evictions:
        // the identity plane's (the rules' are `rule_state_evicted`).
        let identity = self.events.rate_stats();
        let rate_bytes = self.rates.stats().bytes + identity.bytes + rule_state.bytes;
        let evicted: u64 = [media, interner, synthetic]
            .iter()
            .chain(&generator)
            .map(|g| g.evicted)
            .sum();
        StateGauges {
            trails: trails.live,
            media_index: media.live,
            interner: interner.live,
            synthetic_keys: synthetic.live,
            rule_state: rule_state.sessions,
            session_plane: sessions.live,
            rtp_flows: rtp_flows.live,
            identity_bindings: bindings.live,
            expired_trails: trails.expired,
            trails_evicted: trails.evicted,
            media_expired: media.expired,
            synthetic_expired: synthetic.expired,
            interner_expired: interner.expired,
            rule_state_expired: rule_state.expired,
            rule_state_evicted: rule_state.evicted,
            session_plane_expired: sessions.expired,
            evicted_entries: evicted + rule_state.entries_evicted,
            event_log_dropped: self.event_log_dropped,
            router_media_index: 0,
            router_interner: 0,
            router_synthetic_keys: 0,
            rate_bytes,
            rate_evicted: identity.evicted,
            // The fold plane is dispatcher state; a lone engine (or one
            // shard worker) reports none.
            fold_rate_bytes: 0,
            ruleset_generation: self.ruleset_generation,
        }
    }

    /// Generation of the installed ruleset (0 until the first hot swap).
    pub fn ruleset_generation(&self) -> u64 {
        self.ruleset_generation
    }

    /// This engine's contribution to an observation: counters, gauges,
    /// histograms and trace. One shard's slice in a sharded deployment.
    pub fn engine_observation(&self) -> EngineObservation {
        // Evals retired by ruleset swaps are folded back in so a rule
        // that survived N swaps reports its lifetime invocation count.
        let mut evals = self.retired_evals.clone();
        merge_rule_evals(&mut evals, &self.rules.rule_evals());
        self.observer.observation(self.stats, self.gauges(), evals)
    }

    /// A full pipeline observation for this standalone engine. The
    /// dispatch section is structurally zero (no dispatcher is
    /// involved when frames come in via [`Scidive::on_frame`]).
    pub fn observation(&self) -> PipelineObservation {
        let eo = self.engine_observation();
        PipelineObservation {
            pipeline: eo.stats,
            severity: eo.severity,
            distill: self.distiller.stats(),
            dispatch: DispatchCounters::default(),
            gauges: eo.gauges,
            hist: ObservedHistograms {
                rule_eval_ns: eo.rule_eval_ns,
                detection_delay_ms: eo.detection_delay_ms,
                ..ObservedHistograms::default()
            },
            rule_evals: eo.rule_evals,
            trace: eo.trace,
        }
    }
}

impl std::fmt::Debug for Scidive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scidive")
            .field("stats", &self.stats)
            .field("rules", &self.rules.len())
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

/// A simulator node wrapping the engine: attach it promiscuously to the
/// hub to reproduce the paper's endpoint IDS (Fig. 3/4).
#[derive(Debug)]
pub struct IdsNode {
    ids: Scidive,
}

impl IdsNode {
    /// Creates the node.
    pub fn new(config: ScidiveConfig) -> IdsNode {
        IdsNode {
            ids: Scidive::new(config),
        }
    }

    /// The wrapped engine.
    pub fn ids(&self) -> &Scidive {
        &self.ids
    }

    /// Mutable access (e.g. to add rules before the run).
    pub fn ids_mut(&mut self) -> &mut Scidive {
        &mut self.ids
    }
}

impl Node for IdsNode {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: IpPacket) {
        self.ids.on_frame(ctx.now(), &pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
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

    #[test]
    fn pipeline_counts_flow_through() {
        let mut ids = Scidive::new(ScidiveConfig::default());
        ids.on_frame(
            SimTime::ZERO,
            &sip_frame("OPTIONS sip:b@lab SIP/2.0\r\nCall-ID: x\r\n\r\n"),
        );
        let stats = ids.stats();
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.footprints, 1);
        assert!(stats.events >= 1); // format violations
        assert_eq!(stats.alerts as usize, ids.alerts().len());
    }

    #[test]
    fn capture_replay_matches_streaming() {
        let frames: Vec<(SimTime, IpPacket)> = (0..10)
            .map(|i| {
                (
                    SimTime::from_millis(i),
                    sip_frame("OPTIONS sip:b@lab SIP/2.0\r\nCall-ID: x\r\n\r\n"),
                )
            })
            .collect();
        let mut streaming = Scidive::new(ScidiveConfig::default());
        for (t, f) in &frames {
            streaming.on_frame(*t, f);
        }
        let mut replay = Scidive::new(ScidiveConfig::default());
        replay.process_capture(frames.iter().map(|(t, f)| (*t, f)));
        assert_eq!(streaming.alerts(), replay.alerts());
    }

    /// Sampled rule evaluations reach the engine's histogram, with a
    /// nonzero time. A release-build evaluation takes well under a
    /// microsecond, so there this also fails a histogram of whole
    /// microseconds; a debug build's can exceed one, and
    /// `observe::tests::rule_eval_records_nanoseconds` holds the unit.
    #[test]
    fn rule_evaluation_time_is_recorded() {
        let mut ids = Scidive::new(ScidiveConfig::default());
        for i in 0..(2 * crate::observe::RULE_EVAL_SAMPLE as u64) {
            ids.on_frame(
                SimTime::from_millis(i),
                &sip_frame("OPTIONS sip:b@lab SIP/2.0\r\nCall-ID: x\r\n\r\n"),
            );
        }
        assert!(ids.stats().events > 0);
        let hist = ids.observation().hist.rule_eval_ns;
        assert_eq!(hist.count, 2);
        assert!(hist.max > 0, "{hist:?}");
    }

    #[test]
    fn benign_well_formed_traffic_raises_nothing() {
        let mut ids = Scidive::new(ScidiveConfig::default());
        let raw = "OPTIONS sip:b@lab SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.2:5060;branch=z9hG4bK1\r\nFrom: <sip:a@lab>;tag=1\r\nTo: <sip:b@lab>\r\nCall-ID: x\r\nCSeq: 1 OPTIONS\r\nMax-Forwards: 70\r\n\r\n";
        let alerts = ids.on_frame(SimTime::ZERO, &sip_frame(raw));
        assert!(alerts.is_empty(), "{alerts:?}");
    }
}
