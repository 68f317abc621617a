//! The protocol-module layer: every protocol the pipeline understands
//! is one self-contained module behind the [`ProtocolModule`] trait.
//!
//! SCIDIVE's core claim is a *cross-protocol* architecture that "can be
//! expanded to include other protocols" beyond SIP/RTP. This layer is
//! that expansion seam. A protocol plays three roles in the pipeline,
//! and the trait covers all of them:
//!
//! * **classify/decode** — payload + port hints → [`FootprintBody`]
//!   (drives [`crate::distill::Distiller`]);
//! * **attribute** — footprint → session key, plus media-flow learning
//!   (drives [`crate::routing::MediaIndex`], and through it both the
//!   trail store and the sharded dispatcher);
//! * **generate** — footprint + trail state → [`Event`]s (drives
//!   [`EventGenerator`]).
//!
//! The built-in five (SIP, RTP, RTCP, accounting, fallback "other")
//! live in the sibling files of this directory; [`crate::proto::mgcp`]
//! is a fifth protocol added purely through this registry — zero edits
//! to the distiller, router, or generator dispatch — proving the seam
//! works. Modules never import each other: anything shared (the
//! session plane, the contexts) lives here in the parent.
//!
//! ## Determinism
//!
//! Classification order is decided by each module's explicit
//! [`ProtocolModule::classify_priority`] (ties broken by name), never
//! by registration order — registering the same modules in any order
//! builds the same registry, byte for byte. The property tests in
//! `crates/core/tests/properties.rs` prove it on random payloads.

pub mod acct;
pub mod mgcp;
pub mod other;
pub mod rtcp;
pub mod rtp;
pub mod sip;

use crate::distill::DistillerConfig;
use crate::event::{ByeOrigin, Event, EventGenConfig, EventKind, FlowKey};
use crate::footprint::{Footprint, FootprintBody, PacketMeta};
use crate::idle::{IdleMap, StoreGauge};
use crate::routing::MediaIndex;
use crate::trail::{SessionKey, TrailKey, TrailStore};
use bytes::Bytes;
use scidive_netsim::time::{SimDuration, SimTime};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

pub use sip::IdentityPlane;

/// One protocol's contract with the pipeline. Implementations are
/// self-contained: a new protocol is one file implementing this trait
/// plus a [`ProtocolSetBuilder::register`] call — no edits to the
/// distiller, router, trail store, or event generator.
pub trait ProtocolModule: Send + Sync + std::fmt::Debug {
    /// Stable module name (lower-case, e.g. `"sip"`). Also the tag
    /// extension footprints carry in [`crate::footprint::TrailProto::Ext`].
    fn name(&self) -> &'static str;

    /// Classification precedence: lower runs earlier. Priorities are
    /// explicit so the registry's behavior is independent of
    /// registration order; ties are broken by `name()`.
    fn classify_priority(&self) -> u16;

    /// A fresh instance carrying no mutable state. The registry shares
    /// one prototype per module for classify/attribute (which are
    /// `&self`); each [`EventGenerator`] gets its own `fresh()` copies
    /// so `generate` can keep per-engine state.
    fn fresh(&self) -> Box<dyn ProtocolModule>;

    /// Whether this module owns a footprint body for attribution (and
    /// is the module whose `learn` runs for it). Exactly one registered
    /// module should own any body the registry can produce; unowned
    /// bodies fall back to the module owning
    /// [`FootprintBody::UdpOther`].
    fn owns(&self, body: &FootprintBody) -> bool;

    /// Attempts to decode a UDP payload. `None` passes the payload to
    /// the next module in priority order; the registry falls back to
    /// [`FootprintBody::UdpOther`] when every module declines.
    fn classify(
        &self,
        _payload: &Bytes,
        _meta: &PacketMeta,
        _cfg: &DistillerConfig,
    ) -> Option<FootprintBody> {
        None
    }

    /// Derives the session a footprint belongs to. Must be a pure
    /// function of the footprint and the index state reachable through
    /// `ctx` — the trail store and the sharded dispatcher both call it
    /// and must agree bit-for-bit.
    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey;

    /// Learns correlation state (media sinks) a footprint announces,
    /// e.g. SDP bodies. Returns whether anything was learned.
    fn learn(
        &self,
        _fp: &Footprint,
        _session: &SessionKey,
        _ctx: &mut AttributeCtx<'_>,
    ) -> bool {
        false
    }

    /// Condenses a footprint into events. Called for **every**
    /// footprint (not only owned bodies), so cross-protocol modules can
    /// watch other protocols' traffic — the heart of the paper's
    /// stateful cross-protocol detection. Modules run in priority
    /// order; a module that does not care about a body does nothing.
    fn generate(&mut self, _fp: &Footprint, _key: &TrailKey, _ctx: &mut GenCtx<'_>) {}
}

/// Context handed to [`ProtocolModule::attribute`] /
/// [`ProtocolModule::learn`]: the capture clock plus the shared
/// correlation index, exposed through a narrow API so modules cannot
/// diverge from the lifecycle rules (exact staleness at resolve time).
pub struct AttributeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) index: &'a mut MediaIndex,
}

impl AttributeCtx<'_> {
    /// The observing footprint's capture time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Interns a real session identifier (e.g. a Call-ID): repeated
    /// footprints of one session share one allocation.
    pub fn intern(&mut self, id: &str) -> SessionKey {
        self.index.intern_key(id, self.now)
    }

    /// Resolves a media sink to its owning session with the exact idle
    /// lifecycle rule (stale entries read as absent and are dropped).
    pub fn resolve_media(&mut self, addr: Ipv4Addr, port: u16) -> Option<SessionKey> {
        self.index.resolve_fresh(addr, port, self.now)
    }

    /// A memoized synthetic session key for uncorrelatable traffic:
    /// `"{prefix}-{addr}:{port}"` (or `"{prefix}-{addr}"` without a
    /// port). The first packet pays one construction; later packets get
    /// a clone of the shared key.
    pub fn synthetic(
        &mut self,
        prefix: &'static str,
        addr: Ipv4Addr,
        port: Option<u16>,
    ) -> SessionKey {
        self.index.synthetic_key(prefix, addr, port, self.now)
    }

    /// Records a negotiated media target (and its RTCP companion port)
    /// as belonging to `session`.
    pub fn learn_target(&mut self, addr: Ipv4Addr, port: u16, session: &SessionKey) {
        self.index.learn_target(addr, port, session, self.now);
    }
}

/// The session-scoped state shared by the built-in generation modules:
/// per-session dialog machines and per-flow sequence history. Lives in
/// the [`EventGenerator`] and is reachable from [`GenCtx`]; extension
/// modules outside the crate keep their own state instead.
///
/// Both stores are [`IdleMap`]s that drop an entry idle for *longer*
/// than [`EventGenConfig::session_timeout`]: a session or flow that
/// resumes after that much silence starts fresh. For an in-order
/// capture, expiry is decided by each key's own footprint times, so
/// single-engine and sharded deployments — which see different
/// interleavings of *other* sessions — agree.
#[derive(Debug)]
pub struct SessionPlane {
    pub(crate) sessions: IdleMap<SessionKey, SessionState>,
    /// flow → SSRC → last sequence number. Sequence discipline runs on
    /// every RTP frame, attributed to a session or not; a redirect
    /// snapshots the abandoned flow's SSRCs from here.
    pub(crate) flows: IdleMap<FlowKey, HashMap<u32, u16>>,
}

impl SessionPlane {
    fn new(session_timeout: SimDuration) -> SessionPlane {
        // The maps drop entries idle for the timeout or longer; the
        // plane's boundary is "longer than", one microsecond later.
        let timeout = SimDuration::from_micros(session_timeout.as_micros().saturating_add(1));
        SessionPlane {
            sessions: IdleMap::new(timeout),
            flows: IdleMap::new(timeout),
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Teardown {
    pub(crate) at: SimTime,
    pub(crate) by_media_ip: Option<Ipv4Addr>,
    /// The session's latest BYE, for the orphan-media event.
    pub(crate) bye: ByeOrigin,
}

#[derive(Debug, Clone)]
pub(crate) struct Redirect {
    pub(crate) at: SimTime,
    pub(crate) old_target: (Ipv4Addr, u16),
    /// SSRCs the abandoned endpoint was using (new flows after genuine
    /// mobility use fresh SSRCs and must not alarm).
    pub(crate) old_ssrcs: HashSet<u32>,
    /// The sink the victim still listens on.
    pub(crate) victim_sink: Option<(Ipv4Addr, u16)>,
}

#[derive(Debug, Default)]
pub(crate) struct SessionState {
    pub(crate) caller_aor: Option<String>,
    pub(crate) callee_aor: Option<String>,
    pub(crate) caller_media: Option<(Ipv4Addr, u16)>,
    pub(crate) callee_media: Option<(Ipv4Addr, u16)>,
    pub(crate) established: bool,
    pub(crate) torn_down: Option<Teardown>,
    pub(crate) redirected: Option<Redirect>,
    pub(crate) orphan_bye_emitted: bool,
    pub(crate) orphan_redirect_emitted: bool,
    pub(crate) acct_checked: bool,
    pub(crate) unknown_src_flows: HashSet<FlowKey>,
    pub(crate) active_flows: HashSet<FlowKey>,
    pub(crate) garbage_emitted: u32,
    /// SSRC → (goodbye time, already alarmed).
    pub(crate) rtcp_byes: HashMap<u32, (SimTime, bool)>,
}

/// Context handed to [`ProtocolModule::generate`]: the generator
/// config, the shared session plane, read access to the trails, and the
/// event output.
pub struct GenCtx<'a> {
    pub(crate) config: &'a EventGenConfig,
    pub(crate) plane: &'a mut SessionPlane,
    pub(crate) trails: &'a TrailStore,
    pub(crate) out: &'a mut Vec<Event>,
}

impl GenCtx<'_> {
    /// The generator configuration.
    pub fn config(&self) -> &EventGenConfig {
        self.config
    }

    /// Read access to the trail store (the paper's "crude information
    /// directly from the Trails").
    pub fn trails(&self) -> &TrailStore {
        self.trails
    }

    /// The session's dialog state at `now`, created blank if the
    /// session is new or went idle for longer than the timeout.
    pub(crate) fn session_entry(&mut self, key: &SessionKey, now: SimTime) -> &mut SessionState {
        self.plane
            .sessions
            .get_or_insert_with(key.clone(), now, SessionState::default)
    }

    /// The session's dialog state at `now`, if it is live.
    pub(crate) fn session_mut(
        &mut self,
        key: &SessionKey,
        now: SimTime,
    ) -> Option<&mut SessionState> {
        self.plane.sessions.get_mut(key, now)
    }

    /// Emits one event.
    pub fn emit(&mut self, time: SimTime, session: Option<SessionKey>, kind: EventKind) {
        self.out.push(Event {
            time,
            session,
            kind,
        });
    }
}

/// The protocol registry: the modules the pipeline runs, sorted by
/// explicit `(classify_priority, name)` so behavior is independent of
/// registration order. Cloning is an `Arc` refcount bump — the
/// distiller, router, trail store and every shard share one module set.
#[derive(Clone)]
pub struct ProtocolSet {
    modules: Arc<Vec<Box<dyn ProtocolModule>>>,
    /// Index of the module owning [`FootprintBody::UdpOther`]: the
    /// attribution fallback for bodies no module claims.
    fallback: usize,
}

impl Default for ProtocolSet {
    fn default() -> ProtocolSet {
        ProtocolSetBuilder::new().build()
    }
}

impl std::fmt::Debug for ProtocolSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.modules.iter().map(|m| m.name()))
            .finish()
    }
}

impl ProtocolSet {
    /// Module names in classification order.
    pub fn names(&self) -> Vec<&'static str> {
        self.modules.iter().map(|m| m.name()).collect()
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the registry is empty (it never is after `build`).
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Classifies a UDP payload: first module (in priority order) to
    /// return a body wins; [`FootprintBody::UdpOther`] when all
    /// decline.
    pub fn classify(
        &self,
        payload: &Bytes,
        meta: &PacketMeta,
        cfg: &DistillerConfig,
    ) -> FootprintBody {
        for m in self.modules.iter() {
            if let Some(body) = m.classify(payload, meta, cfg) {
                return body;
            }
        }
        FootprintBody::UdpOther {
            payload_len: payload.len(),
        }
    }

    /// The module owning a body for attribution, falling back to the
    /// [`FootprintBody::UdpOther`] owner.
    pub fn module_for(&self, body: &FootprintBody) -> &dyn ProtocolModule {
        self.modules
            .iter()
            .find(|m| m.owns(body))
            .unwrap_or(&self.modules[self.fallback])
            .as_ref()
    }

    /// Fresh, stateless-to-start module instances in priority order,
    /// for one engine's event generation.
    pub fn fresh_modules(&self) -> Vec<Box<dyn ProtocolModule>> {
        self.modules.iter().map(|m| m.fresh()).collect()
    }
}

/// Builds a [`ProtocolSet`].
///
/// # Examples
///
/// Registration order does not matter — priorities decide:
///
/// ```
/// use scidive_core::proto::ProtocolSetBuilder;
///
/// let a = ProtocolSetBuilder::new().build();
/// let b = ProtocolSetBuilder::new().build();
/// assert_eq!(a.names(), b.names());
/// ```
pub struct ProtocolSetBuilder {
    modules: Vec<Box<dyn ProtocolModule>>,
}

impl Default for ProtocolSetBuilder {
    fn default() -> ProtocolSetBuilder {
        ProtocolSetBuilder::new()
    }
}

impl ProtocolSetBuilder {
    /// Starts from the built-in five: SIP, RTP, RTCP, accounting, and
    /// the fallback "other" module.
    pub fn new() -> ProtocolSetBuilder {
        ProtocolSetBuilder {
            modules: vec![
                Box::new(sip::SipModule::new()),
                Box::new(rtp::RtpModule::new()),
                Box::new(rtcp::RtcpModule::new()),
                Box::new(acct::AcctModule::new()),
                Box::new(other::OtherModule::new()),
            ],
        }
    }

    /// Starts empty (the fallback module is still appended at `build`
    /// if nothing registered owns [`FootprintBody::UdpOther`]).
    pub fn empty() -> ProtocolSetBuilder {
        ProtocolSetBuilder {
            modules: Vec::new(),
        }
    }

    /// Registers one module.
    ///
    /// # Panics
    ///
    /// Panics if a module with the same name is already registered.
    pub fn register(mut self, module: Box<dyn ProtocolModule>) -> ProtocolSetBuilder {
        assert!(
            self.modules.iter().all(|m| m.name() != module.name()),
            "protocol module {:?} registered twice",
            module.name()
        );
        self.modules.push(module);
        self
    }

    /// Finalizes the registry: sorts by `(classify_priority, name)` and
    /// locates (appending if necessary) the fallback module.
    pub fn build(mut self) -> ProtocolSet {
        let probe = FootprintBody::UdpOther { payload_len: 0 };
        if !self.modules.iter().any(|m| m.owns(&probe)) {
            self.modules.push(Box::new(other::OtherModule::new()));
        }
        self.modules
            .sort_by_key(|m| (m.classify_priority(), m.name()));
        let fallback = self
            .modules
            .iter()
            .position(|m| m.owns(&probe))
            .expect("a fallback module owning UdpOther is always present");
        ProtocolSet {
            modules: Arc::new(self.modules),
            fallback,
        }
    }
}

/// The Event Generator (paper §3.1): fans every footprint out to the
/// protocol modules' [`ProtocolModule::generate`] hooks, which condense
/// footprints into [`Event`]s against the shared [`SessionPlane`].
///
/// "The Event Generator maps footprints into a single event. ... It
/// helps performance by hiding some computationally expensive matching,
/// e.g., by triggering the ruleset at the moment of interest instead of
/// triggering it upon each incoming RTP Footprint."
#[derive(Debug)]
pub struct EventGenerator {
    config: EventGenConfig,
    plane: SessionPlane,
    /// Per-engine module instances ([`ProtocolModule::fresh`] copies),
    /// in priority order.
    modules: Vec<Box<dyn ProtocolModule>>,
    /// The embedded identity plane; `None` in data-plane (shard) mode,
    /// where the dispatcher owns the single shared plane.
    identity: Option<IdentityPlane>,
}

impl EventGenerator {
    /// Creates a generator with an embedded identity plane (the normal,
    /// single-engine configuration) and the default protocol registry.
    pub fn new(config: EventGenConfig) -> EventGenerator {
        EventGenerator::with_protocols(config, &ProtocolSet::default())
    }

    /// Creates a generator driving the given protocol registry.
    pub fn with_protocols(config: EventGenConfig, protocols: &ProtocolSet) -> EventGenerator {
        let identity = Some(IdentityPlane::new(config.clone()));
        EventGenerator {
            plane: SessionPlane::new(config.session_timeout),
            config,
            modules: protocols.fresh_modules(),
            identity,
        }
    }

    /// Creates a session-plane-only generator over a protocol registry:
    /// identity-plane detection (floods, password guessing, IM source
    /// checks) is disabled because some external [`IdentityPlane`] owns
    /// that state. Used by the shards of [`crate::shard::ShardedScidive`].
    pub fn data_plane_with_protocols(
        config: EventGenConfig,
        protocols: &ProtocolSet,
    ) -> EventGenerator {
        EventGenerator {
            plane: SessionPlane::new(config.session_timeout),
            config,
            modules: protocols.fresh_modules(),
            identity: None,
        }
    }

    /// Sessions currently tracked.
    pub fn session_count(&self) -> usize {
        self.plane.sessions.len()
    }

    /// Size and lifecycle counters of the generator's stores, in order:
    /// session dialogs, RTP flows, and the embedded identity plane's AOR
    /// bindings (zero in data-plane mode).
    pub fn gauges(&self) -> [StoreGauge; 3] {
        let bindings = self.identity.as_ref().map(IdentityPlane::binding_gauge);
        [
            self.plane.sessions.gauge(),
            self.plane.flows.gauge(),
            bindings.unwrap_or_default(),
        ]
    }

    /// Rate-tracker telemetry from the embedded identity plane (zero in
    /// data-plane mode, where the dispatcher owns the one plane).
    pub fn rate_stats(&self) -> crate::rate::RateStats {
        self.identity
            .as_ref()
            .map(IdentityPlane::rate_stats)
            .unwrap_or_default()
    }

    /// Processes one footprint in the context of its trail: every
    /// module's `generate` hook runs (priority order), then the
    /// identity plane. A footprint's session events always precede its
    /// identity events — the sharded dispatcher relies on exactly this
    /// order when it injects plane events behind a shard's own output.
    pub fn on_footprint(
        &mut self,
        fp: &Footprint,
        key: &TrailKey,
        store: &TrailStore,
    ) -> Vec<Event> {
        let mut out = Vec::new();
        self.on_footprint_into(fp, key, store, &mut out);
        out
    }

    /// [`EventGenerator::on_footprint`], appending the events to `out`
    /// instead: a caller that keeps one buffer across footprints pays
    /// no allocation for the event list.
    pub fn on_footprint_into(
        &mut self,
        fp: &Footprint,
        key: &TrailKey,
        store: &TrailStore,
        out: &mut Vec<Event>,
    ) {
        let now = fp.meta.time;
        self.plane.sessions.reclaim(now);
        self.plane.flows.reclaim(now);
        let mut ctx = GenCtx {
            config: &self.config,
            plane: &mut self.plane,
            trails: store,
            out,
        };
        for m in &mut self.modules {
            m.generate(fp, key, &mut ctx);
        }
        if let Some(plane) = self.identity.as_mut() {
            out.extend(plane.on_footprint(fp));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;
    use crate::footprint::{PacketMeta, SipFootprint};
    use crate::trail::{TrailStore, TrailStoreConfig};
    use scidive_netsim::time::{SimDuration, SimTime};
    use scidive_rtp::packet::RtpHeader;
    use scidive_sip::header::{CSeq, HeaderName, NameAddr, Via};
    use scidive_sip::method::Method;
    use scidive_sip::msg::{response_to, RequestBuilder, SipMessage};
    use scidive_sip::sdp::SessionDescription;
    use scidive_sip::status::StatusCode;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
    const ATTACKER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 66);

    struct Harness {
        store: TrailStore,
        gen: EventGenerator,
        now: u64,
    }

    impl Harness {
        fn new(config: EventGenConfig) -> Harness {
            Harness {
                store: TrailStore::new(TrailStoreConfig::default()),
                gen: EventGenerator::new(config),
                now: 0,
            }
        }

        fn feed(&mut self, fp: Footprint) -> Vec<Event> {
            let (fp, key) = self.store.insert(fp);
            self.gen.on_footprint(&fp, &key, &self.store)
        }

        fn feed_sip(&mut self, src: Ipv4Addr, dst: Ipv4Addr, msg: &SipMessage) -> Vec<Event> {
            self.now += 1;
            self.feed(Footprint {
                meta: PacketMeta {
                    time: SimTime::from_millis(self.now),
                    src,
                    src_port: 5060,
                    dst,
                    dst_port: 5060,
                },
                body: FootprintBody::Sip(SipFootprint::parse(msg.to_bytes()).unwrap()),
            })
        }

        fn feed_rtp(
            &mut self,
            src: Ipv4Addr,
            dst: Ipv4Addr,
            port: u16,
            ssrc: u32,
            seq: u16,
        ) -> Vec<Event> {
            self.now += 1;
            self.feed(Footprint {
                meta: PacketMeta {
                    time: SimTime::from_millis(self.now),
                    src,
                    src_port: 9000,
                    dst,
                    dst_port: port,
                },
                body: FootprintBody::Rtp {
                    header: RtpHeader::new(0, seq, 0, ssrc),
                    payload_len: 160,
                },
            })
        }

        /// Plays a full A→B call setup, returning the events.
        fn establish_call(&mut self) -> Vec<Event> {
            let inv = invite("c1");
            let mut evs = self.feed_sip(A_IP, B_IP, &inv);
            let ok = ok_with_sdp(&inv);
            evs.extend(self.feed_sip(B_IP, A_IP, &ok));
            evs
        }
    }

    fn invite(call_id: &str) -> SipMessage {
        let sdp = SessionDescription::audio_offer("alice", A_IP, 8000);
        let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
        b.from(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
            .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
            .call_id(call_id)
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.2:5060", "z9hG4bK-1"))
            .contact(NameAddr::new("sip:alice@10.0.0.2:5060".parse().unwrap()))
            .body("application/sdp", sdp.to_string());
        b.build()
    }

    fn ok_with_sdp(inv: &SipMessage) -> SipMessage {
        let mut ok = response_to(inv, StatusCode::OK, Some("tb"));
        let sdp = SessionDescription::audio_offer("bob", B_IP, 9000);
        ok.headers.set(HeaderName::ContentType, "application/sdp");
        ok.body = sdp.to_string().into_bytes().into();
        ok
    }

    fn bye_claiming_bob(call_id: &str) -> SipMessage {
        let mut b = RequestBuilder::new(Method::Bye, "sip:alice@10.0.0.2:5060".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("tb"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
            .call_id(call_id)
            .cseq(CSeq::new(100, Method::Bye))
            .via(Via::udp("10.0.0.3:5060", "z9hG4bK-forged"));
        b.build()
    }

    #[test]
    fn registry_order_is_priority_not_registration() {
        // Register the builtins by hand in two different orders; the
        // built sets must classify identically (same sorted order).
        let forward = ProtocolSetBuilder::empty()
            .register(Box::new(sip::SipModule::new()))
            .register(Box::new(rtp::RtpModule::new()))
            .register(Box::new(rtcp::RtcpModule::new()))
            .register(Box::new(acct::AcctModule::new()))
            .build();
        let backward = ProtocolSetBuilder::empty()
            .register(Box::new(acct::AcctModule::new()))
            .register(Box::new(rtcp::RtcpModule::new()))
            .register(Box::new(rtp::RtpModule::new()))
            .register(Box::new(sip::SipModule::new()))
            .build();
        assert_eq!(forward.names(), backward.names());
        // The fallback module was appended automatically.
        assert!(forward.names().contains(&"other"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_module_name_panics() {
        let _ = ProtocolSetBuilder::new().register(Box::new(sip::SipModule::new()));
    }

    #[test]
    fn default_registry_lists_builtins_in_priority_order() {
        let set = ProtocolSet::default();
        assert_eq!(set.names(), vec!["acct", "sip", "rtcp", "rtp", "other"]);
    }

    #[test]
    fn idle_session_expires_and_state_restarts() {
        let timeout = SimDuration::from_secs(2);
        let mut h = Harness::new(EventGenConfig {
            session_timeout: timeout,
            ..EventGenConfig::default()
        });
        h.establish_call();
        assert_eq!(h.gen.session_count(), 1);
        assert_eq!(h.gen.gauges()[0].expired, 0);
        // The session sits idle past the timeout; the next footprint on
        // an unrelated session reclaims it.
        h.now += 3_000;
        h.feed_sip(A_IP, B_IP, &invite("c2"));
        assert_eq!(
            h.gen.session_count(),
            1,
            "only the fresh session remains"
        );
        assert_eq!(h.gen.gauges()[0].expired, 1);
        // The expired dialog's state is gone: a 200 OK for the dead
        // call now lands on a blank session and establishes nothing.
        let evs = h.feed_sip(B_IP, A_IP, &ok_with_sdp(&invite("c1")));
        assert!(!evs.iter().any(|e| e.class() == EventClass::CallEstablished));
    }

    #[test]
    fn a_dead_dialog_restarts_blank() {
        // A re-INVITE on a long-dead session starts a fresh dialog
        // instead of reading stale endpoints.
        let timeout = SimDuration::from_secs(2);
        let mut h = Harness::new(EventGenConfig {
            session_timeout: timeout,
            ..EventGenConfig::default()
        });
        h.establish_call();
        h.now += 10_000;
        // Same Call-ID, after the dialog expired: treated as a brand-new
        // INVITE (caller learned afresh), not a re-INVITE redirect.
        let sdp = SessionDescription::audio_offer("bob", ATTACKER, 7000);
        let mut b =
            RequestBuilder::new(Method::Invite, "sip:alice@10.0.0.2:5060".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("tb"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
            .call_id("c1")
            .cseq(CSeq::new(101, Method::Invite))
            .via(Via::udp("10.0.0.3:5060", "z9hG4bK-late"))
            .body("application/sdp", sdp.to_string());
        let evs = h.feed_sip(B_IP, A_IP, &b.build());
        assert!(
            !evs.iter().any(|e| e.class() == EventClass::CallRedirected),
            "{evs:?}"
        );
        assert!(h.gen.gauges()[0].expired >= 1);
    }

    #[test]
    fn active_session_survives_idle_expiry() {
        let timeout = SimDuration::from_secs(2);
        let mut h = Harness::new(EventGenConfig {
            session_timeout: timeout,
            ..EventGenConfig::default()
        });
        h.establish_call();
        // Keep the call alive with media at sub-timeout intervals across
        // many timeouts.
        for i in 0..20u16 {
            h.now += 1_000;
            h.feed_rtp(B_IP, A_IP, 8000, 7, 100 + i);
        }
        assert_eq!(h.gen.session_count(), 1);
        assert_eq!(h.gen.gauges()[0].expired, 0);
    }

    #[test]
    fn call_setup_produces_established_event() {
        let mut h = Harness::new(EventGenConfig::default());
        let evs = h.establish_call();
        assert!(evs
            .iter()
            .any(|e| e.class() == EventClass::CallEstablished));
    }

    #[test]
    fn bye_then_rtp_is_orphan() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        let evs = h.feed_sip(B_IP, A_IP, &bye_claiming_bob("c1"));
        assert!(evs.iter().any(|e| e.class() == EventClass::CallTornDown));
        // RTP from B to A's sink right after the BYE.
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        assert!(
            evs.iter().any(|e| e.class() == EventClass::OrphanRtpAfterBye),
            "{evs:?}"
        );
        // Only the first orphan packet produces the event.
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 101);
        assert!(!evs.iter().any(|e| e.class() == EventClass::OrphanRtpAfterBye));
    }

    /// Feeds `byes` (source, BYE) after an established call, then RTP
    /// from the callee, and returns the orphan event's BYE origin.
    fn orphan_bye_origin(byes: &[(Ipv4Addr, SipMessage)]) -> ByeOrigin {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        for (src, bye) in byes {
            h.feed_sip(*src, A_IP, bye);
        }
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        evs.into_iter()
            .find_map(|e| match e.kind {
                EventKind::OrphanRtpAfterBye { bye, .. } => Some(bye),
                _ => None,
            })
            .expect("RTP from the claimed terminator is orphan")
    }

    #[test]
    fn orphan_event_names_the_bye_originator() {
        let bye = orphan_bye_origin(&[(ATTACKER, bye_claiming_bob("c1"))]);
        assert_eq!(
            bye,
            ByeOrigin {
                claimed_aor: Some("bob@lab".to_string()),
                src_ip: ATTACKER,
                cseq: Some(100),
            }
        );
        assert_eq!(
            EventKind::OrphanRtpAfterBye {
                flow: FlowKey {
                    src: B_IP,
                    dst: A_IP,
                    dst_port: 8000,
                },
                gap: SimDuration::from_millis(1),
                bye,
            }
            .to_string(),
            "orphan media after teardown; the BYE claimed bob@lab and came from \
             10.0.0.66 (CSeq 100)"
        );
    }

    #[test]
    fn latest_bye_names_the_originator() {
        let mut later = bye_claiming_bob("c1");
        later.headers.set(HeaderName::CSeq, "102 BYE");
        let bye = orphan_bye_origin(&[(B_IP, bye_claiming_bob("c1")), (ATTACKER, later)]);
        assert_eq!(bye.src_ip, ATTACKER);
        assert_eq!(bye.cseq, Some(102));
    }

    #[test]
    fn bye_without_a_parseable_from_renders_unknown() {
        let mut garbled = bye_claiming_bob("c1");
        garbled.headers.set(HeaderName::From, "not an address");
        let bye = orphan_bye_origin(&[(B_IP, bye_claiming_bob("c1")), (ATTACKER, garbled)]);
        assert_eq!(bye.claimed_aor, None);
        assert_eq!(
            bye.to_string(),
            "the BYE claimed <unknown> and came from 10.0.0.66 (CSeq 100)"
        );
    }

    #[test]
    fn rtp_outside_monitor_window_is_not_orphan() {
        let mut h = Harness::new(EventGenConfig {
            monitor_window: SimDuration::from_millis(50),
            ..EventGenConfig::default()
        });
        h.establish_call();
        h.feed_sip(B_IP, A_IP, &bye_claiming_bob("c1"));
        h.now += 100; // beyond m
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        assert!(!evs.iter().any(|e| e.class() == EventClass::OrphanRtpAfterBye));
    }

    #[test]
    fn rtp_from_caller_after_callee_bye_is_fine() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        h.feed_sip(B_IP, A_IP, &bye_claiming_bob("c1"));
        // A→B packets (src A) are not from the claimed terminator.
        let evs = h.feed_rtp(A_IP, B_IP, 9000, 9, 50);
        assert!(!evs.iter().any(|e| e.class() == EventClass::OrphanRtpAfterBye));
    }

    #[test]
    fn cross_protocol_off_kills_orphan_events() {
        let mut h = Harness::new(EventGenConfig {
            cross_protocol: false,
            ..EventGenConfig::default()
        });
        h.establish_call();
        h.feed_sip(B_IP, A_IP, &bye_claiming_bob("c1"));
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        assert!(!evs.iter().any(|e| e.class() == EventClass::OrphanRtpAfterBye));
    }

    #[test]
    fn forged_reinvite_with_continuing_old_stream_is_orphan() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        // B's legit stream to A is running with ssrc 7.
        h.feed_rtp(B_IP, A_IP, 8000, 7, 10);
        h.feed_rtp(B_IP, A_IP, 8000, 7, 11);
        // Forged re-INVITE: "bob moved to the attacker".
        let sdp = SessionDescription::audio_offer("bob", ATTACKER, 7000);
        let mut b =
            RequestBuilder::new(Method::Invite, "sip:alice@10.0.0.2:5060".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("tb"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
            .call_id("c1")
            .cseq(CSeq::new(101, Method::Invite))
            .via(Via::udp("10.0.0.3:5060", "z9hG4bK-forged-r"))
            .body("application/sdp", sdp.to_string());
        let evs = h.feed_sip(B_IP, A_IP, &b.build());
        assert!(evs.iter().any(|e| e.class() == EventClass::CallRedirected));
        // B's old stream continues: orphan.
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 12);
        assert!(
            evs.iter()
                .any(|e| e.class() == EventClass::OrphanRtpAfterRedirect),
            "{evs:?}"
        );
    }

    #[test]
    fn genuine_migration_with_fresh_ssrc_is_clean() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        h.feed_rtp(B_IP, A_IP, 8000, 7, 10);
        // Genuine re-INVITE from B: new port on B, old stream stops.
        let sdp = SessionDescription::audio_offer("bob", B_IP, 9100);
        let mut b =
            RequestBuilder::new(Method::Invite, "sip:alice@10.0.0.2:5060".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("tb"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
            .call_id("c1")
            .cseq(CSeq::new(2, Method::Invite))
            .via(Via::udp("10.0.0.3:5060", "z9hG4bK-mig"))
            .body("application/sdp", sdp.to_string());
        h.feed_sip(B_IP, A_IP, &b.build());
        // New stream from B with a fresh SSRC: not an orphan.
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 99, 500);
        assert!(
            !evs.iter()
                .any(|e| e.class() == EventClass::OrphanRtpAfterRedirect),
            "{evs:?}"
        );
    }

    #[test]
    fn seq_jump_emits_violation() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 101);
        assert!(!evs.iter().any(|e| e.class() == EventClass::RtpSeqViolation));
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 5000);
        assert!(evs.iter().any(
            |e| matches!(&e.kind, EventKind::RtpSeqViolation { delta, .. } if *delta == 4899)
        ));
    }

    #[test]
    fn a_flow_resuming_after_the_session_timeout_starts_fresh() {
        let mut h = Harness::new(EventGenConfig {
            session_timeout: SimDuration::from_secs(2),
            ..EventGenConfig::default()
        });
        h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        assert_eq!(h.gen.gauges()[1].live, 1);
        // Silent for exactly the timeout: still the same flow.
        h.now += 1_999;
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 5000);
        assert!(evs.iter().any(|e| e.class() == EventClass::RtpSeqViolation));
        // Silent for longer: its history is gone, so no jump is seen.
        h.now += 2_000;
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 40_000);
        assert!(!evs.iter().any(|e| e.class() == EventClass::RtpSeqViolation));
        let flows = h.gen.gauges()[1];
        assert_eq!((flows.live, flows.expired, flows.evicted), (1, 1, 0));
    }

    #[test]
    fn small_loss_does_not_violate_seq() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        h.feed_rtp(B_IP, A_IP, 8000, 7, 100);
        let evs = h.feed_rtp(B_IP, A_IP, 8000, 7, 150); // 50 lost
        assert!(!evs.iter().any(|e| e.class() == EventClass::RtpSeqViolation));
    }

    #[test]
    fn unknown_source_rtp_flagged_once() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        let evs = h.feed_rtp(ATTACKER, A_IP, 8000, 55, 40_000);
        assert!(evs.iter().any(|e| e.class() == EventClass::RtpUnknownSource));
        let evs = h.feed_rtp(ATTACKER, A_IP, 8000, 55, 40_001);
        assert!(!evs.iter().any(|e| e.class() == EventClass::RtpUnknownSource));
    }

    #[test]
    fn garbage_to_media_sink_emits() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        h.now += 1;
        let evs = h.feed(Footprint {
            meta: PacketMeta {
                time: SimTime::from_millis(h.now),
                src: ATTACKER,
                src_port: 4444,
                dst: A_IP,
                dst_port: 8000,
            },
            body: FootprintBody::UdpOther { payload_len: 172 },
        });
        assert!(evs.iter().any(|e| e.class() == EventClass::MediaPortGarbage));
    }

    #[test]
    fn malformed_sip_event_from_violations() {
        let mut h = Harness::new(EventGenConfig::default());
        // An INVITE missing Max-Forwards (the fraud craft).
        let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
        b.from(NameAddr::new("sip:mallory@lab".parse().unwrap()).with_tag("tm"))
            .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
            .call_id("fraud-1")
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.66:5060", "z9hG4bK-f"))
            .without(&HeaderName::MaxForwards);
        let evs = h.feed_sip(ATTACKER, Ipv4Addr::new(10, 0, 0, 1), &b.build());
        assert!(evs.iter().any(|e| e.class() == EventClass::SipMalformed));
    }

    #[test]
    fn acct_mismatch_when_billed_party_never_called() {
        let mut h = Harness::new(EventGenConfig::default());
        // mallory calls bob (SIP observed)...
        let sdp = SessionDescription::audio_offer("mallory", ATTACKER, 7200);
        let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
        b.from(NameAddr::new("sip:mallory@lab".parse().unwrap()).with_tag("tm"))
            .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
            .call_id("fraud-1")
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.66:5060", "z9hG4bK-f"))
            .body("application/sdp", sdp.to_string());
        h.feed_sip(ATTACKER, Ipv4Addr::new(10, 0, 0, 1), &b.build());
        // ...but the accounting system bills alice.
        h.now += 1;
        let evs = h.feed(Footprint {
            meta: PacketMeta {
                time: SimTime::from_millis(h.now),
                src: Ipv4Addr::new(10, 0, 0, 1),
                src_port: 2427,
                dst: Ipv4Addr::new(10, 0, 0, 4),
                dst_port: 2427,
            },
            body: FootprintBody::Acct("ACCT START alice@lab bob@lab fraud-1".parse().unwrap()),
        });
        assert!(evs.iter().any(|e| matches!(
            &e.kind,
            EventKind::AcctMismatch { billed, observed_caller: Some(c), .. }
                if billed == "alice@lab" && c == "mallory@lab"
        )));
    }

    #[test]
    fn honest_billing_produces_no_mismatch() {
        let mut h = Harness::new(EventGenConfig::default());
        h.establish_call();
        h.now += 1;
        let evs = h.feed(Footprint {
            meta: PacketMeta {
                time: SimTime::from_millis(h.now),
                src: Ipv4Addr::new(10, 0, 0, 1),
                src_port: 2427,
                dst: Ipv4Addr::new(10, 0, 0, 4),
                dst_port: 2427,
            },
            body: FootprintBody::Acct("ACCT START alice@lab bob@lab c1".parse().unwrap()),
        });
        assert!(!evs.iter().any(|e| e.class() == EventClass::AcctMismatch));
    }

    fn register(src_user: &str, n: u32) -> SipMessage {
        let aor: scidive_sip::uri::SipUri = format!("sip:{src_user}@lab").parse().unwrap();
        let mut b = RequestBuilder::new(Method::Register, "sip:lab".parse().unwrap());
        b.from(NameAddr::new(aor.clone()).with_tag("t"))
            .to(NameAddr::new(aor))
            .call_id(format!("reg-{src_user}-{n}"))
            .cseq(CSeq::new(n, Method::Register))
            .via(Via::udp("10.0.0.9:5060", format!("z9hG4bK-{n}")));
        b.build()
    }

    #[test]
    fn register_flood_detected_per_source() {
        let mut h = Harness::new(EventGenConfig {
            flood_threshold: 5,
            ..EventGenConfig::default()
        });
        let proxy = Ipv4Addr::new(10, 0, 0, 1);
        let mut flood_events = 0;
        for n in 1..=6u32 {
            let req = register("mallory", n);
            flood_events += h
                .feed_sip(ATTACKER, proxy, &req)
                .iter()
                .filter(|e| e.class() == EventClass::RegisterFlood)
                .count();
            let mut resp = response_to(&req, StatusCode::UNAUTHORIZED, None);
            resp.headers.set(
                HeaderName::WwwAuthenticate,
                "Digest realm=\"lab\", nonce=\"n1\"",
            );
            // 401 travels proxy → attacker.
            flood_events += h
                .feed_sip(proxy, ATTACKER, &resp)
                .iter()
                .filter(|e| e.class() == EventClass::RegisterFlood)
                .count();
        }
        assert_eq!(flood_events, 1, "flood event fires exactly once");
    }

    #[test]
    fn benign_auth_cycle_not_flood() {
        let mut h = Harness::new(EventGenConfig {
            flood_threshold: 5,
            ..EventGenConfig::default()
        });
        let proxy = Ipv4Addr::new(10, 0, 0, 1);
        // Six different clients each do one challenge cycle.
        let mut events = 0;
        for i in 0..6u8 {
            let client = Ipv4Addr::new(10, 0, 1, i + 1);
            let req = register(&format!("user{i}"), 1);
            events += h.feed_sip(client, proxy, &req).len();
            let resp = response_to(&req, StatusCode::UNAUTHORIZED, None);
            events += h
                .feed_sip(proxy, client, &resp)
                .iter()
                .filter(|e| e.class() == EventClass::RegisterFlood)
                .count();
        }
        assert_eq!(events, 0, "stateful tracking keeps sources apart");
    }

    #[test]
    fn stateless_mode_floods_on_benign_churn() {
        let mut h = Harness::new(EventGenConfig {
            flood_threshold: 5,
            stateful: false,
            ..EventGenConfig::default()
        });
        let proxy = Ipv4Addr::new(10, 0, 0, 1);
        let mut flood = 0;
        for i in 0..6u8 {
            let client = Ipv4Addr::new(10, 0, 1, i + 1);
            let req = register(&format!("user{i}"), 1);
            h.feed_sip(client, proxy, &req);
            let resp = response_to(&req, StatusCode::UNAUTHORIZED, None);
            flood += h
                .feed_sip(proxy, client, &resp)
                .iter()
                .filter(|e| e.class() == EventClass::RegisterFlood)
                .count();
        }
        assert_eq!(flood, 1, "global 4xx counting false-alarms");
    }

    #[test]
    fn password_guessing_detected_by_distinct_responses() {
        let mut h = Harness::new(EventGenConfig {
            guess_threshold: 3,
            ..EventGenConfig::default()
        });
        let proxy = Ipv4Addr::new(10, 0, 0, 1);
        let mut hits = 0;
        for n in 1..=4u32 {
            let mut req = register("alice", n);
            req.headers.set(
                HeaderName::Authorization,
                format!(
                    "Digest username=\"alice\", realm=\"lab\", nonce=\"n1\", uri=\"sip:lab\", response=\"{:032x}\"",
                    n
                ),
            );
            hits += h
                .feed_sip(ATTACKER, proxy, &req)
                .iter()
                .filter(|e| e.class() == EventClass::PasswordGuessing)
                .count();
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn single_retry_auth_is_not_guessing() {
        let mut h = Harness::new(EventGenConfig {
            guess_threshold: 3,
            ..EventGenConfig::default()
        });
        let proxy = Ipv4Addr::new(10, 0, 0, 1);
        let mut req = register("alice", 2);
        req.headers.set(
            HeaderName::Authorization,
            "Digest username=\"alice\", realm=\"lab\", nonce=\"n1\", uri=\"sip:lab\", response=\"aaaa\"",
        );
        let evs = h.feed_sip(A_IP, proxy, &req);
        assert!(!evs.iter().any(|e| e.class() == EventClass::PasswordGuessing));
    }

    fn message_from(aor: &str, src_tag: &str) -> SipMessage {
        let from: scidive_sip::uri::SipUri = format!("sip:{aor}").parse().unwrap();
        let mut b = RequestBuilder::new(Method::Message, "sip:alice@lab".parse().unwrap());
        b.from(NameAddr::new(from).with_tag(src_tag))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()))
            .call_id(format!("im-{src_tag}"))
            .cseq(CSeq::new(1, Method::Message))
            .via(Via::udp("10.0.0.3:5060", format!("z9hG4bK-{src_tag}")))
            .body("text/plain", "hi");
        b.build()
    }

    #[test]
    fn fake_im_mismatch_detected() {
        let mut h = Harness::new(EventGenConfig::default());
        // bob's identity is learned from his REGISTER.
        h.feed_sip(B_IP, Ipv4Addr::new(10, 0, 0, 1), &register("bob", 1));
        // Fake message claiming bob, from the attacker's address.
        let evs = h.feed_sip(ATTACKER, A_IP, &message_from("bob@lab", "x1"));
        assert!(evs.iter().any(|e| matches!(
            &e.kind,
            EventKind::ImSourceMismatch { claimed_aor, src_ip, expected_ip }
                if claimed_aor == "bob@lab" && *src_ip == ATTACKER && *expected_ip == B_IP
        )));
    }

    #[test]
    fn legit_im_from_known_ip_is_clean() {
        let mut h = Harness::new(EventGenConfig::default());
        h.feed_sip(B_IP, Ipv4Addr::new(10, 0, 0, 1), &register("bob", 1));
        let evs = h.feed_sip(B_IP, A_IP, &message_from("bob@lab", "x2"));
        assert!(!evs.iter().any(|e| e.class() == EventClass::ImSourceMismatch));
    }

    #[test]
    fn mobility_after_interval_is_allowed() {
        let mut h = Harness::new(EventGenConfig {
            im_mobility_interval: SimDuration::from_millis(100),
            ..EventGenConfig::default()
        });
        h.feed_sip(B_IP, Ipv4Addr::new(10, 0, 0, 1), &register("bob", 1));
        h.now += 200; // bob has had time to move
        let new_home = Ipv4Addr::new(10, 0, 0, 30);
        let evs = h.feed_sip(new_home, A_IP, &message_from("bob@lab", "x3"));
        assert!(!evs.iter().any(|e| e.class() == EventClass::ImSourceMismatch));
        // And the new address is now the expected one.
        let evs = h.feed_sip(ATTACKER, A_IP, &message_from("bob@lab", "x4"));
        assert!(evs.iter().any(|e| matches!(
            &e.kind,
            EventKind::ImSourceMismatch { expected_ip, .. } if *expected_ip == new_home
        )));
    }

    #[test]
    fn spoofed_fake_im_evades_endpoint_rule() {
        // The paper's concession: an attacker who spoofs the IP too is
        // indistinguishable at the endpoint.
        let mut h = Harness::new(EventGenConfig::default());
        h.feed_sip(B_IP, Ipv4Addr::new(10, 0, 0, 1), &register("bob", 1));
        let evs = h.feed_sip(B_IP, A_IP, &message_from("bob@lab", "x5"));
        assert!(!evs.iter().any(|e| e.class() == EventClass::ImSourceMismatch));
    }

    #[test]
    fn relayed_im_is_not_checked_against_relay_ip() {
        let proxy = Ipv4Addr::new(10, 0, 0, 1);
        let mut h = Harness::new(EventGenConfig {
            infrastructure_ips: vec![proxy],
            ..EventGenConfig::default()
        });
        h.feed_sip(B_IP, proxy, &register("bob", 1));
        // The proxy-relayed copy (src = proxy) is skipped entirely.
        let evs = h.feed_sip(proxy, A_IP, &message_from("bob@lab", "x6"));
        assert!(!evs.iter().any(|e| e.class() == EventClass::ImSourceMismatch));
    }
}
