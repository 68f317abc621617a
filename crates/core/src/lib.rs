//! # scidive-core — the SCIDIVE intrusion detection engine
//!
//! A reproduction of the architecture of *"SCIDIVE: A Stateful and Cross
//! Protocol Intrusion Detection Architecture for Voice-over-IP
//! Environments"* (Wu, Bagchi, Garg, Singh, Tsai — DSN 2004):
//!
//! ```text
//!  frames ──▶ Distiller ──▶ Footprints ──▶ Trails ──▶ Event Generator
//!                                                          │
//!                                    Alerts ◀── Ruleset ◀──┘ Events
//! ```
//!
//! * [`distill::Distiller`] reassembles IP fragments and decodes
//!   SIP / RTP / RTCP / accounting into [`footprint::Footprint`]s.
//! * [`trail::TrailStore`] groups footprints into per-session,
//!   per-protocol trails, correlating RTP flows to the SIP dialog whose
//!   SDP announced them — the substrate of **cross-protocol detection**.
//! * [`event::EventGenerator`] runs the **stateful** per-session
//!   machines (dialog lifecycle, registration churn, sequence history,
//!   identity→address history) and condenses footprints into
//!   [`event::Event`]s.
//! * [`proto`] is the protocol-module layer: classification,
//!   attribution and event generation are all dispatched through a
//!   [`proto::ProtocolSet`] of pluggable per-protocol modules, so a new
//!   protocol (see [`proto::mgcp`]) plugs in without touching the
//!   pipeline stages.
//! * [`rules`] matches events — single-event rules, ordered
//!   [`rules::SequenceRule`]s and unordered [`rules::CombinationRule`]s —
//!   raising [`alert::Alert`]s. The built-in ruleset covers all seven
//!   attacks the paper discusses.
//! * [`engine::Scidive`] assembles the pipeline; [`engine::IdsNode`]
//!   deploys it as the paper's endpoint tap.
//! * [`routing`] resolves any footprint to its session key up front (the
//!   SDP-derived media-correlation index lives here) and
//!   [`shard::ShardedScidive`] uses it to fan the pipeline out over `N`
//!   worker engines whose merged output is byte-identical to one engine
//!   (`N = 1` is the plain threaded deployment); batches travel over
//!   one bounded [`std::sync::mpsc::sync_channel`] per shard.
//! * [`idle::IdleMap`] is the one idle-expiring, capped map every
//!   session store is built on: trails, the media index, the session
//!   plane, identity bindings and rule state (paper §3.3's memory
//!   bounds).
//! * [`observe`] watches the whole pipeline — monotonic counters, state
//!   gauges, fixed-bucket histograms and an optional decision trace —
//!   snapshottable as a serializable [`observe::PipelineObservation`].
//! * [`baseline::SnortLike`] is the stateless, session-blind comparison
//!   matcher of §3.3/§5; [`metrics`] scores alert streams into the
//!   paper's `D`, `P_f`, `P_m`.
//!
//! ## Example: catching a forged BYE offline
//!
//! ```no_run
//! use scidive_core::engine::{Scidive, ScidiveConfig};
//! use scidive_netsim::time::SimTime;
//!
//! let mut ids = Scidive::new(ScidiveConfig::default());
//! # let captured: Vec<(SimTime, scidive_netsim::packet::IpPacket)> = vec![];
//! for (time, frame) in &captured {
//!     for alert in ids.on_frame(*time, frame) {
//!         println!("{alert}");
//!     }
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alert;
pub mod baseline;
pub mod cooperative;
pub mod distill;
pub mod engine;
pub mod event;
pub mod footprint;
pub mod idle;
pub mod metrics;
pub mod observe;
pub mod proto;
pub mod rate;
pub mod routing;
pub mod rules;
pub mod shard;
pub mod trail;

/// Convenient glob import of the common IDS types.
pub mod prelude {
    pub use crate::alert::{Alert, Severity};
    pub use crate::baseline::{Signature, SnortLike};
    pub use crate::cooperative::{
        CooperativeCluster, CooperativeConfig, EndpointDetector, TaggedEvent,
    };
    pub use crate::distill::{Distiller, DistillerConfig};
    pub use crate::engine::{
        DistilledFootprint, IdsNode, PipelineStats, RulesetSource, Scidive, ScidiveConfig,
    };
    pub use crate::event::{
        Event, EventClass, EventGenConfig, EventGenerator, EventKind, FlowKey, IdentityPlane,
    };
    pub use crate::footprint::{
        CorruptReason, ExtBody, ExtData, Footprint, FootprintBody, PacketMeta, TrailProto,
    };
    pub use crate::idle::{IdleMap, StoreGauge};
    pub use crate::metrics::{DetectionReport, InjectedAttack, RateAccumulator};
    pub use crate::proto::{
        AttributeCtx, GenCtx, ProtocolModule, ProtocolSet, ProtocolSetBuilder,
    };
    pub use crate::observe::{
        merge_rule_evals, DecisionTrace, DispatchCounters, EngineObservation, Histogram,
        ObserveConfig, ObservedHistograms, PipelineObservation, RuleEval, SeverityCounts,
        StateGauges, TraceEntry, TraceStage,
    };
    pub use crate::rate::{
        FoldConfig, FoldStats, GlobalRatePlane, RateConfig, RateDelta, RateHub, RateObservation,
        RateStats, ThresholdTable,
    };
    pub use crate::routing::{
        stable_session_hash, MediaIndex, RouteDecision, SessionRouter,
    };
    pub use crate::shard::{DispatchStats, ShardStats, ShardedReport, ShardedScidive};
    pub use crate::rules::{
        builtin_ruleset, collect_alerts, rapid_spec, AlertSink, CombinationRule, CompiledRuleset,
        Diagnostic, PredicateRule, Program, Rule, RuleCtx, RuleInfo, RuleInterest, RuleStateStats,
        RuleToggles, RulesetBlueprint, SequenceRule, SessionMap, ThresholdRule, ThresholdSpec,
    };
    pub use crate::trail::{SessionKey, Trail, TrailKey, TrailStore, TrailStoreConfig};
}
