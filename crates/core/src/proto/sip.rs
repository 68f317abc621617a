//! The SIP protocol module: port-primed (and off-port sniffed)
//! classification, Call-ID attribution, SDP media learning, per-session
//! dialog-state event generation, and the identity plane.

use crate::distill::DistillerConfig;
use crate::event::{Event, EventGenConfig, EventKind, FlowKey};
use crate::footprint::{Footprint, FootprintBody, PacketMeta, PooledSip};
use crate::proto::{parse_sdp, AttributeCtx, GenCtx, ProtocolModule, Redirect, Teardown};
use crate::rate::{hash_parts, LatchSet, RateStats, WindowedDistinct, WindowedSketch};
use crate::trail::{SessionKey, TrailKey};
use bytes::Bytes;
use scidive_netsim::time::{SimDuration, SimTime};
use scidive_sip::auth::DigestCredentials;
use scidive_sip::header::HeaderName;
use scidive_sip::method::Method;
use scidive_sip::msg::SipMessage;
use scidive_sip::parse::looks_like_sip;
use scidive_sip::sdp::SessionDescription;
use std::collections::{HashMap, VecDeque};
use std::net::Ipv4Addr;

/// The SIP module. Owns [`FootprintBody::Sip`] and
/// [`FootprintBody::SipMalformed`]; generates the dialog-machine events
/// (establishment, teardown, redirect, malformed) that the
/// cross-protocol media checks in the RTP module arm themselves on.
#[derive(Debug, Default)]
pub struct SipModule;

impl SipModule {
    /// Creates the module.
    pub fn new() -> SipModule {
        SipModule
    }
}

impl ProtocolModule for SipModule {
    fn name(&self) -> &'static str {
        "sip"
    }

    fn classify_priority(&self) -> u16 {
        20
    }

    fn fresh(&self) -> Box<dyn ProtocolModule> {
        Box::new(SipModule)
    }

    fn owns(&self, body: &FootprintBody) -> bool {
        matches!(
            body,
            FootprintBody::Sip(_) | FootprintBody::SipMalformed { .. }
        )
    }

    fn classify(
        &self,
        payload: &Bytes,
        meta: &PacketMeta,
        cfg: &DistillerConfig,
    ) -> Option<FootprintBody> {
        let on_sip_port = cfg.sip_ports.contains(&meta.dst_port)
            || cfg.sip_ports.contains(&meta.src_port);
        if on_sip_port {
            // A signalling port consumes its traffic: what does not
            // parse is a malformed-SIP footprint, not someone else's.
            return Some(match SipMessage::parse_bytes(payload.clone()) {
                Ok(msg) => FootprintBody::Sip(PooledSip::new(msg)),
                Err(e) => FootprintBody::SipMalformed {
                    reason: e.to_string(),
                    prefix: payload.iter().take(32).copied().collect(),
                },
            });
        }
        // Off-port SIP (attackers do not respect port conventions).
        if looks_like_sip(payload) {
            if let Ok(msg) = SipMessage::parse_bytes(payload.clone()) {
                return Some(FootprintBody::Sip(PooledSip::new(msg)));
            }
        }
        None
    }

    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey {
        match &fp.body {
            FootprintBody::Sip(msg) => match msg.call_id() {
                Ok(id) => ctx.intern(id),
                Err(_) => ctx.synthetic("sip-anon", fp.meta.src, None),
            },
            _ => ctx.synthetic("sip-malformed", fp.meta.src, None),
        }
    }

    fn learn(
        &self,
        fp: &Footprint,
        session: &SessionKey,
        ctx: &mut AttributeCtx<'_>,
    ) -> bool {
        let FootprintBody::Sip(msg) = &fp.body else {
            return false;
        };
        if msg.content_type() != Some("application/sdp") {
            return false;
        }
        let Ok(text) = std::str::from_utf8(&msg.body) else {
            return false;
        };
        let Ok(sdp) = text.parse::<SessionDescription>() else {
            return false;
        };
        if let Some((addr, port)) = sdp.rtp_target() {
            ctx.learn_target(addr, port, session);
            return true;
        }
        false
    }

    fn generate(&mut self, fp: &Footprint, key: &TrailKey, ctx: &mut GenCtx<'_>) {
        match &fp.body {
            FootprintBody::Sip(msg) => on_sip(fp, key, msg, ctx),
            FootprintBody::SipMalformed { reason, .. } => {
                ctx.emit(
                    fp.meta.time,
                    Some(key.session.clone()),
                    EventKind::SipMalformed {
                        violations: vec![reason.clone()],
                        src: fp.meta.src,
                    },
                );
            }
            _ => {}
        }
    }
}

fn on_sip(fp: &Footprint, key: &TrailKey, msg: &SipMessage, ctx: &mut GenCtx<'_>) {
    let time = fp.meta.time;
    let session = key.session.clone();

    // Format discipline (billing-fraud condition 1).
    let violations = msg.format_violations();
    if !violations.is_empty() {
        ctx.emit(
            time,
            Some(session.clone()),
            EventKind::SipMalformed {
                violations,
                src: fp.meta.src,
            },
        );
    }

    match msg.method() {
        Some(Method::Invite) => on_sip_invite(fp, &session, msg, ctx),
        Some(Method::Bye) => on_sip_bye(fp, &session, msg, ctx),
        // REGISTER and MESSAGE are pure identity-plane traffic,
        // handled by [`IdentityPlane::on_footprint`].
        Some(_) => {}
        None => on_sip_response(fp, &session, msg, ctx),
    }
}

fn on_sip_invite(
    fp: &Footprint,
    session: &SessionKey,
    msg: &SipMessage,
    ctx: &mut GenCtx<'_>,
) {
    let time = fp.meta.time;
    let (Ok(from), Ok(to)) = (msg.from_(), msg.to()) else {
        return;
    };
    let sdp = parse_sdp(msg);
    let state = ctx.session_entry(session, time);
    if state.caller_aor.is_none() {
        // New session: the INVITE defines the caller.
        state.caller_aor = Some(from.uri.aor());
        state.callee_aor = Some(to.uri.aor());
        if let Some(target) = sdp.as_ref().and_then(SessionDescription::rtp_target) {
            state.caller_media = Some(target);
        }
        return;
    }
    if !state.established {
        return; // retransmission / proxy copy of the initial INVITE
    }
    // Re-INVITE on an established session.
    let claimed_aor = from.uri.aor();
    let Some(new_target) = sdp.as_ref().and_then(SessionDescription::rtp_target) else {
        return;
    };
    let claimant_is_callee = Some(&claimed_aor) == state.callee_aor.as_ref();
    let old_target = if claimant_is_callee {
        state.callee_media
    } else {
        state.caller_media
    };
    let Some(old_target) = old_target else {
        return;
    };
    if old_target == new_target {
        return; // session refresh, nothing moved
    }
    let victim_sink = if claimant_is_callee {
        state.caller_media
    } else {
        state.callee_media
    };
    // Snapshot the abandoned endpoint's flow SSRCs: genuine movers
    // stop these; forged re-INVITEs leave them running.
    let old_ssrcs = victim_sink
        .map(|(dst, dst_port)| FlowKey {
            src: old_target.0,
            dst,
            dst_port,
        })
        .and_then(|flow| ctx.plane.flow_ssrcs.get(&flow).cloned())
        .unwrap_or_default();
    let state = ctx.plane.sessions.get_mut(session).expect("present");
    state.redirected = Some(Redirect {
        at: time,
        old_target,
        old_ssrcs,
        victim_sink,
    });
    state.orphan_redirect_emitted = false;
    if claimant_is_callee {
        state.callee_media = Some(new_target);
    } else {
        state.caller_media = Some(new_target);
    }
    ctx.emit(
        time,
        Some(session.clone()),
        EventKind::CallRedirected {
            claimed_aor,
            old_target,
            new_target,
        },
    );
}

fn on_sip_bye(
    fp: &Footprint,
    session: &SessionKey,
    msg: &SipMessage,
    ctx: &mut GenCtx<'_>,
) {
    let time = fp.meta.time;
    let Ok(from) = msg.from_() else {
        return;
    };
    let by_aor = from.uri.aor();
    let Some(state) = ctx.session_mut(session, time) else {
        return;
    };
    if state.torn_down.is_some() {
        return; // proxy copy of the same BYE
    }
    let by_media_ip = if Some(&by_aor) == state.callee_aor.as_ref() {
        state.callee_media.map(|(ip, _)| ip)
    } else {
        state.caller_media.map(|(ip, _)| ip)
    };
    state.torn_down = Some(Teardown { at: time, by_media_ip });
    ctx.emit(
        time,
        Some(session.clone()),
        EventKind::CallTornDown { by_aor, by_media_ip },
    );
}

fn on_sip_response(
    fp: &Footprint,
    session: &SessionKey,
    msg: &SipMessage,
    ctx: &mut GenCtx<'_>,
) {
    let time = fp.meta.time;
    let Some(status) = msg.status() else {
        return;
    };
    if !status.is_success() {
        // 4xx churn feeds the identity plane's flood window, not the
        // session plane.
        return;
    }
    let Ok(cseq) = msg.cseq() else {
        return;
    };
    if cseq.method != Method::Invite {
        return;
    }
    // 2xx to an INVITE: learn the answering side's media and mark
    // established.
    let sdp = parse_sdp(msg);
    let from_aor = msg.from_().ok().map(|f| f.uri.aor());
    let Some(state) = ctx.session_mut(session, time) else {
        return;
    };
    let answerer_is_callee = from_aor
        .and_then(|aor| state.caller_aor.as_ref().map(|c| *c == aor))
        .unwrap_or(true);
    if let Some(target) = sdp.as_ref().and_then(SessionDescription::rtp_target) {
        if answerer_is_callee {
            if state.callee_media.is_none() || !state.established {
                state.callee_media = Some(target);
            }
        } else if state.caller_media.is_none() || !state.established {
            state.caller_media = Some(target);
        }
    }
    if !state.established {
        state.established = true;
        let caller = state.caller_aor.clone().unwrap_or_default();
        let callee = state.callee_aor.clone().unwrap_or_default();
        ctx.emit(
            time,
            Some(session.clone()),
            EventKind::CallEstablished { caller, callee },
        );
    }
}

// ----------------------------------------------------------------------
// The identity plane
// ----------------------------------------------------------------------

#[derive(Debug, Default)]
struct RegWindow {
    requests: VecDeque<SimTime>,
    errors: VecDeque<SimTime>,
    flood_emitted: bool,
}

#[derive(Debug, Default)]
struct GuessWindow {
    responses: VecDeque<(SimTime, String)>,
    emitted: bool,
}

/// The wildcard source used for stateless (global) flood tracking.
const GLOBAL_SRC: Ipv4Addr = Ipv4Addr::UNSPECIFIED;

/// The constant-memory sketch side of the identity plane (see
/// [`crate::rate`]). In sketch mode (`exact_rate_state = false`) these
/// structures *are* the flood / guess state; in exact mode they shadow
/// the exact windows so divergence between the two is observable as
/// telemetry without affecting behaviour. Built lazily on the first
/// flood- or guess-relevant footprint; from then on the byte footprint
/// is fixed regardless of how many sources the traffic carries.
#[derive(Debug)]
struct IdentityRates {
    /// REGISTER sightings per flood key.
    requests: WindowedSketch,
    /// 4xx sightings per flood key.
    errors: WindowedSketch,
    /// Distinct digest responses per (src, username).
    guesses: WindowedDistinct,
    /// Flood fired-latch per flood key (cleared on hysteresis).
    flood_latch: LatchSet,
    /// Guess fired-latch per (src, username) (never cleared).
    guess_latch: LatchSet,
    /// Exact-vs-estimate shadow divergence (exact mode only).
    divergence: RateStats,
}

impl IdentityRates {
    fn new(config: &EventGenConfig) -> IdentityRates {
        let r = &config.rate;
        IdentityRates {
            requests: WindowedSketch::new(
                config.flood_window,
                r.window_buckets,
                r.counter_width,
                r.counter_depth,
                r.tracker_seed("identity-requests"),
            ),
            errors: WindowedSketch::new(
                config.flood_window,
                r.window_buckets,
                r.counter_width,
                r.counter_depth,
                r.tracker_seed("identity-errors"),
            ),
            guesses: WindowedDistinct::new(
                config.guess_window,
                r.distinct_buckets,
                r.distinct_slots,
                r.distinct_registers,
                r.tracker_seed("identity-guesses"),
            ),
            flood_latch: LatchSet::new(r.latch_bits, r.tracker_seed("identity-flood-latch")),
            guess_latch: LatchSet::new(r.latch_bits, r.tracker_seed("identity-guess-latch")),
            divergence: RateStats::default(),
        }
    }

    fn stats(&self) -> RateStats {
        let mut s = self.divergence;
        s.trackers = 5;
        s.bytes = (self.requests.bytes()
            + self.errors.bytes()
            + self.guesses.bytes()
            + self.flood_latch.bytes()
            + self.guess_latch.bytes()) as u64;
        s
    }
}

/// The identity plane: the cross-session detection state keyed by IP
/// address or user identity rather than by session — registration /
/// 4xx churn windows (§3.3 flood DoS), digest-response windows (§3.3
/// password guessing), and the AOR → IP bindings behind the fake-IM
/// check (§4.2.2).
///
/// In the single-engine pipeline it lives inside the
/// [`crate::proto::EventGenerator`]. The sharded pipeline
/// ([`crate::shard`]) lifts it into the dispatcher — it is the one
/// stateful component that must see every SIP frame regardless of
/// session — and runs the per-shard generators with the plane disabled
/// ([`crate::proto::EventGenerator::data_plane`]), injecting the
/// plane's events into the owning shard's stream instead.
#[derive(Debug)]
pub struct IdentityPlane {
    config: EventGenConfig,
    reg_windows: HashMap<Ipv4Addr, RegWindow>,
    guess_windows: HashMap<(Ipv4Addr, String), GuessWindow>,
    /// identity AOR → (ip, last_change).
    aor_ips: HashMap<String, (Ipv4Addr, SimTime)>,
    /// Sketch state: authoritative when `exact_rate_state` is off,
    /// shadow telemetry when it is on. Lazily built.
    rates: Option<IdentityRates>,
    last_sweep: SimTime,
    events_emitted: u64,
}

impl IdentityPlane {
    /// Creates an empty identity plane.
    pub fn new(config: EventGenConfig) -> IdentityPlane {
        IdentityPlane {
            config,
            reg_windows: HashMap::new(),
            guess_windows: HashMap::new(),
            aor_ips: HashMap::new(),
            rates: None,
            last_sweep: SimTime::ZERO,
            events_emitted: 0,
        }
    }

    /// Events produced so far by this plane.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Identities currently bound to an address.
    pub fn identity_count(&self) -> usize {
        self.aor_ips.len()
    }

    /// Snapshot of the sketch-side telemetry: tracker count, pinned
    /// bytes, and (exact mode) the shadow divergence between estimates
    /// and the exact windows.
    pub fn rate_stats(&self) -> RateStats {
        self.rates.as_ref().map(IdentityRates::stats).unwrap_or_default()
    }

    fn rates_mut(&mut self) -> &mut IdentityRates {
        if self.rates.is_none() {
            self.rates = Some(IdentityRates::new(&self.config));
        }
        self.rates.as_mut().expect("just initialised")
    }

    /// Processes one footprint; only SIP footprints carry identity-plane
    /// signal (REGISTER churn, digest credentials, MESSAGE sources, 4xx
    /// error responses), everything else returns no events.
    pub fn on_footprint(&mut self, fp: &Footprint) -> Vec<Event> {
        let mut out = Vec::new();
        self.maybe_sweep(fp.meta.time);
        if let FootprintBody::Sip(msg) = &fp.body {
            self.on_sip(fp, msg, &mut out);
        }
        out
    }

    /// Drops identity state idle past [`EventGenConfig::identity_timeout`]
    /// (checked at quarter-timeout cadence, like the session-plane
    /// sweeps). AOR bindings idle that long would be re-learned as
    /// plausible mobility anyway (the timeout is far above
    /// `im_mobility_interval`); rate windows are dropped only when every
    /// retained entry is older than the timeout *and* the entry's latch
    /// would release at a zero count, so sweeping never suppresses or
    /// invents an alert.
    fn maybe_sweep(&mut self, now: SimTime) {
        let timeout = self.config.identity_timeout;
        if now.saturating_since(self.last_sweep) < timeout / 4 {
            return;
        }
        self.last_sweep = now;
        self.aor_ips
            .retain(|_, &mut (_, last)| now.saturating_since(last) <= timeout);
        let flood_clears = self.config.flood_threshold / 2 > 0;
        self.reg_windows.retain(|_, w| {
            let idle = w
                .requests
                .back()
                .into_iter()
                .chain(w.errors.back())
                .all(|&t| now.saturating_since(t) > timeout);
            let latch_safe = !w.flood_emitted || flood_clears;
            !(idle && latch_safe)
        });
        self.guess_windows.retain(|_, w| {
            // Fired guess latches are permanent in the reference
            // semantics, so their entries are never dropped.
            let idle = w
                .responses
                .back()
                .is_none_or(|&(t, _)| now.saturating_since(t) > timeout);
            !idle || w.emitted
        });
    }

    fn emit(&mut self, out: &mut Vec<Event>, time: SimTime, kind: EventKind) {
        self.events_emitted += 1;
        // Identity-plane events are never session-scoped: floods, digest
        // windows and IM histories are keyed by address or AOR.
        out.push(Event {
            time,
            session: None,
            kind,
        });
    }

    fn on_sip(&mut self, fp: &Footprint, msg: &SipMessage, out: &mut Vec<Event>) {
        let time = fp.meta.time;
        // Identity → IP learning from originating (non-relay) legs.
        let from_relay = self.config.infrastructure_ips.contains(&fp.meta.src);
        match msg.method() {
            Some(Method::Register) => {
                if !from_relay {
                    if let Ok(from) = msg.from_() {
                        self.learn_identity(&from.uri.aor(), fp.meta.src, time);
                    }
                }
                self.track_register_request(fp.meta.src, time, out);
                self.track_auth_response(fp.meta.src, msg, time, out);
            }
            Some(Method::Message) => {
                if !from_relay {
                    self.on_im(fp, msg, out);
                }
            }
            Some(_) => {}
            None => {
                // Registration churn: 4xx responses feed the flood
                // window keyed by the challenged client (the response's
                // destination).
                if msg.status().is_some_and(|s| s.is_client_error()) {
                    self.track_error_response(fp.meta.dst, time, out);
                }
            }
        }
    }

    fn on_im(&mut self, fp: &Footprint, msg: &SipMessage, out: &mut Vec<Event>) {
        let time = fp.meta.time;
        let Ok(from) = msg.from_() else {
            return;
        };
        let claimed = from.uri.aor();
        let src = fp.meta.src;
        if let Ok(call_id) = msg.call_id() {
            self.emit(
                out,
                time,
                EventKind::ImObserved {
                    claimed_aor: claimed.clone(),
                    src_ip: src,
                    dst_ip: fp.meta.dst,
                    call_id: call_id.to_string(),
                },
            );
        }
        if !self.config.stateful {
            // Stateless approximation: only the last IP, no mobility
            // allowance — any change alarms.
            match self.aor_ips.get(&claimed) {
                Some(&(known, _)) if known != src => {
                    self.emit(
                        out,
                        time,
                        EventKind::ImSourceMismatch {
                            claimed_aor: claimed,
                            src_ip: src,
                            expected_ip: known,
                        },
                    );
                }
                _ => {
                    self.aor_ips.insert(claimed, (src, time));
                }
            }
            return;
        }
        match self.aor_ips.get(&claimed) {
            None => {
                self.learn_identity(&claimed, src, time);
            }
            Some(&(known, _)) if known == src => {
                self.aor_ips.insert(claimed, (src, time));
            }
            Some(&(known, last_change)) => {
                let elapsed = time.saturating_since(last_change);
                if elapsed >= self.config.im_mobility_interval {
                    // Plausible mobility: accept and re-learn.
                    self.learn_identity(&claimed, src, time);
                } else {
                    self.emit(
                        out,
                        time,
                        EventKind::ImSourceMismatch {
                            claimed_aor: claimed,
                            src_ip: src,
                            expected_ip: known,
                        },
                    );
                }
            }
        }
    }

    fn learn_identity(&mut self, aor: &str, ip: Ipv4Addr, time: SimTime) {
        match self.aor_ips.get(aor) {
            Some(&(known, _)) if known == ip => {
                self.aor_ips.insert(aor.to_string(), (ip, time));
            }
            _ => {
                self.aor_ips.insert(aor.to_string(), (ip, time));
            }
        }
    }

    // ------------------------------------------------------------------
    // Registration flood / password guessing (§3.3)
    //
    // Two-plane note: unlike rapid-connect (keyed by caller while the
    // shard router keys by Call-ID, so its threshold clause is evaluated
    // on the dispatcher's global fold plane — see `crate::rate::fold`),
    // REGISTER-flood and password-guess events are produced by the
    // dispatcher-resident `IdentityPlane` in sharded mode. Every
    // REGISTER/4xx for a given source reaches the *same* tracker there,
    // so the local evaluation below is already global; no fold-plane
    // candidate path is needed for these clauses.
    // ------------------------------------------------------------------

    fn flood_key(&self, src: Ipv4Addr) -> Ipv4Addr {
        if self.config.stateful {
            src
        } else {
            GLOBAL_SRC
        }
    }

    fn flood_hash(&self, key: Ipv4Addr) -> u64 {
        hash_parts(self.config.rate.seed, &[b"flood", &key.octets()])
    }

    fn track_register_request(&mut self, src: Ipv4Addr, time: SimTime, out: &mut Vec<Event>) {
        let key = self.flood_key(src);
        if self.config.exact_rate_state {
            let window = self.config.flood_window;
            let w = self.reg_windows.entry(key).or_default();
            w.requests.push_back(time);
            prune(&mut w.requests, time, window);
        }
        let khash = self.flood_hash(key);
        self.rates_mut().requests.observe(time, khash);
        self.check_flood(key, time, out);
    }

    fn track_error_response(&mut self, dst: Ipv4Addr, time: SimTime, out: &mut Vec<Event>) {
        let key = self.flood_key(dst);
        if self.config.exact_rate_state {
            let window = self.config.flood_window;
            let w = self.reg_windows.entry(key).or_default();
            w.errors.push_back(time);
            prune(&mut w.errors, time, window);
        }
        let khash = self.flood_hash(key);
        self.rates_mut().errors.observe(time, khash);
        self.check_flood(key, time, out);
    }

    fn check_flood(&mut self, key: Ipv4Addr, time: SimTime, out: &mut Vec<Event>) {
        let threshold = self.config.flood_threshold;
        let stateful = self.config.stateful;
        let exact = self.config.exact_rate_state;
        let khash = self.flood_hash(key);
        // Sketch-side count: authoritative in sketch mode, shadow
        // telemetry in exact mode. Never undercounts the true windowed
        // count (see `crate::rate::window`).
        let estimated = {
            let r = self.rates_mut();
            let requests = r.requests.estimate(time, khash);
            let errors = r.errors.estimate(time, khash);
            flood_alternations(requests, errors, stateful)
        };
        let (count, latched) = if exact {
            let Some(w) = self.reg_windows.get(&key) else {
                return;
            };
            let count = flood_alternations(
                w.requests.len() as u32,
                w.errors.len() as u32,
                stateful,
            );
            let latched = w.flood_emitted;
            self.rates_mut().divergence.record_divergence(estimated, count);
            (count, latched)
        } else {
            (estimated, self.rates_mut().flood_latch.get(khash))
        };
        if count >= threshold && !latched {
            if exact {
                if let Some(w) = self.reg_windows.get_mut(&key) {
                    w.flood_emitted = true;
                }
            } else {
                self.rates_mut().flood_latch.put(khash, true);
            }
            self.emit(out, time, EventKind::RegisterFlood { src: key, count });
        } else if count < threshold / 2 {
            if exact {
                if let Some(w) = self.reg_windows.get_mut(&key) {
                    w.flood_emitted = false;
                }
            } else {
                self.rates_mut().flood_latch.put(khash, false);
            }
        }
    }

    fn track_auth_response(
        &mut self,
        src: Ipv4Addr,
        msg: &SipMessage,
        time: SimTime,
        out: &mut Vec<Event>,
    ) {
        let Some(creds) = msg
            .headers
            .get(&HeaderName::Authorization)
            .and_then(|v| DigestCredentials::parse(v).ok())
        else {
            return;
        };
        let key = if self.config.stateful {
            (src, creds.username.clone())
        } else {
            (GLOBAL_SRC, String::new())
        };
        let threshold = self.config.guess_threshold;
        let exact = self.config.exact_rate_state;
        let seed = self.config.rate.seed;
        let khash = hash_parts(seed, &[b"guess", &key.0.octets(), key.1.as_bytes()]);
        let item = hash_parts(seed, &[b"resp", creds.response.as_bytes()]);
        // Sketch-side distinct estimate (authoritative in sketch mode;
        // exact at threshold-scale cardinalities via linear counting).
        let estimated = self.rates_mut().guesses.observe(time, khash, item);
        let (distinct_responses, emitted) = if exact {
            let window = self.config.guess_window;
            let w = self.guess_windows.entry(key).or_default();
            w.responses.push_back((time, creds.response.clone()));
            while let Some(&(t, _)) = w.responses.front() {
                if time.saturating_since(t) > window {
                    w.responses.pop_front();
                } else {
                    break;
                }
            }
            let distinct: std::collections::HashSet<&str> =
                w.responses.iter().map(|(_, r)| r.as_str()).collect();
            let exact_distinct = distinct.len() as u32;
            let emitted = w.emitted;
            if exact_distinct >= threshold && !emitted {
                w.emitted = true;
            }
            self.rates_mut()
                .divergence
                .record_divergence(estimated, exact_distinct);
            (exact_distinct, emitted)
        } else {
            (estimated, self.rates_mut().guess_latch.get(khash))
        };
        if distinct_responses >= threshold && !emitted {
            if !exact {
                self.rates_mut().guess_latch.put(khash, true);
            }
            let username = creds.username;
            self.emit(
                out,
                time,
                EventKind::PasswordGuessing {
                    src,
                    username,
                    distinct_responses,
                },
            );
        }
    }
}

/// The flood-clause count from windowed request / 4xx-error tallies.
///
/// Stateful mode implements the paper's "continuous, alternating SIP
/// requests and 4XX error messages": the alternation count is the lesser
/// of the two tallies. A stateless matcher can only count 4xx sightings.
/// Shared by the exact (per-key deque) and sketch evaluation arms of
/// `check_flood` so both planes apply the identical clause.
pub(crate) fn flood_alternations(requests: u32, errors: u32, stateful: bool) -> u32 {
    if stateful {
        requests.min(errors)
    } else {
        errors
    }
}

fn prune(q: &mut VecDeque<SimTime>, now: SimTime, window: SimDuration) {
    while let Some(&t) = q.front() {
        if now.saturating_since(t) > window {
            q.pop_front();
        } else {
            break;
        }
    }
}
