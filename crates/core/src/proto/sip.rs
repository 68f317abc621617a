//! The SIP protocol module: port-primed (and off-port sniffed)
//! classification, Call-ID attribution, SDP media learning, per-session
//! dialog-state event generation, and the identity plane.

use crate::distill::DistillerConfig;
use crate::alert::Severity;
use crate::event::{ByeOrigin, Event, EventClass, EventGenConfig, EventKind, FlowKey};
use crate::footprint::{Footprint, FootprintBody, PacketMeta, SipFootprint};
use crate::idle::{IdleMap, StoreGauge};
use crate::proto::{AttributeCtx, GenCtx, ProtocolModule, Redirect, Teardown};
use crate::rate::{hash_parts, RateStats, ThresholdTable, DEFAULT_RATE_SEED, TABLE_BYTES_CAP};
use crate::rules::ThresholdSpec;
use crate::trail::{SessionKey, TrailKey};
use bytes::Bytes;
use scidive_netsim::time::{SimDuration, SimTime};
use scidive_sip::auth::DigestCredentials;
use scidive_sip::method::Method;
use scidive_sip::parse::looks_like_sip;
use std::net::Ipv4Addr;
use std::sync::Arc;

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
            return Some(match SipFootprint::parse(payload.clone()) {
                Ok(sip) => FootprintBody::Sip(sip),
                Err(e) => FootprintBody::SipMalformed {
                    reason: e.to_string(),
                    prefix: payload.iter().take(32).copied().collect(),
                },
            });
        }
        // Off-port SIP (attackers do not respect port conventions).
        if looks_like_sip(payload) {
            if let Ok(sip) = SipFootprint::parse(payload.clone()) {
                return Some(FootprintBody::Sip(sip));
            }
        }
        None
    }

    fn attribute(&self, fp: &Footprint, ctx: &mut AttributeCtx<'_>) -> SessionKey {
        match &fp.body {
            FootprintBody::Sip(sip) => match sip.call_id() {
                Some(id) => ctx.intern(id),
                None => ctx.synthetic("sip-anon", fp.meta.src, None),
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
        let FootprintBody::Sip(sip) = &fp.body else {
            return false;
        };
        let Some((addr, port)) = sip.rtp_target() else {
            return false;
        };
        ctx.learn_target(addr, port, session);
        true
    }

    fn generate(&mut self, fp: &Footprint, key: &TrailKey, ctx: &mut GenCtx<'_>) {
        match &fp.body {
            FootprintBody::Sip(sip) => on_sip(fp, key, sip, ctx),
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

fn on_sip(fp: &Footprint, key: &TrailKey, msg: &SipFootprint, ctx: &mut GenCtx<'_>) {
    let time = fp.meta.time;
    let session = key.session.clone();

    // Format discipline (billing-fraud condition 1): decided in the
    // parse's line scan; the violation text is rendered only for an
    // unclean message.
    if !msg.is_clean() {
        ctx.emit(
            time,
            Some(session.clone()),
            EventKind::SipMalformed {
                violations: msg.format_violations(),
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

fn on_sip_invite(fp: &Footprint, session: &SessionKey, msg: &SipFootprint, ctx: &mut GenCtx<'_>) {
    let time = fp.meta.time;
    let (Some(from_aor), Some(to_aor)) = (msg.from_aor(), msg.to_aor()) else {
        return;
    };
    let sdp_target = msg.rtp_target();
    let state = ctx.session_entry(session, time);
    if state.caller_aor.is_none() {
        // New session: the INVITE defines the caller.
        state.caller_aor = Some(from_aor.to_string());
        state.callee_aor = Some(to_aor.to_string());
        if let Some(target) = sdp_target {
            state.caller_media = Some(target);
        }
        return;
    }
    if !state.established {
        return; // retransmission / proxy copy of the initial INVITE
    }
    // Re-INVITE on an established session.
    let Some(new_target) = sdp_target else {
        return;
    };
    let claimant_is_callee = Some(from_aor) == state.callee_aor.as_deref();
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
        .and_then(|flow| ctx.plane.flows.get(&flow, time))
        .map(|ssrcs| ssrcs.keys().copied().collect())
        .unwrap_or_default();
    let state = ctx.session_mut(session, time).expect("read above");
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
            claimed_aor: from_aor.to_string(),
            old_target,
            new_target,
        },
    );
}

fn on_sip_bye(fp: &Footprint, session: &SessionKey, msg: &SipFootprint, ctx: &mut GenCtx<'_>) {
    let time = fp.meta.time;
    let Some(state) = ctx.session_mut(session, time) else {
        return;
    };
    // Who sent it (§3.1: "who prematurely tears down the session"). Each
    // later BYE, proxy copies and unparseable From headers included,
    // replaces the record, so the orphan-media event names the latest.
    let by_aor = msg.from_aor();
    let bye = ByeOrigin {
        claimed_aor: by_aor.map(str::to_string),
        src_ip: fp.meta.src,
        cseq: msg.cseq().map(|c| c.seq),
    };
    if let Some(teardown) = &mut state.torn_down {
        teardown.bye = bye;
        return;
    }
    let Some(by_aor) = by_aor else {
        return;
    };
    let by_media_ip = if Some(by_aor) == state.callee_aor.as_deref() {
        state.callee_media.map(|(ip, _)| ip)
    } else {
        state.caller_media.map(|(ip, _)| ip)
    };
    state.torn_down = Some(Teardown {
        at: time,
        by_media_ip,
        bye,
    });
    ctx.emit(
        time,
        Some(session.clone()),
        EventKind::CallTornDown {
            by_aor: by_aor.to_string(),
            by_media_ip,
        },
    );
}

fn on_sip_response(fp: &Footprint, session: &SessionKey, msg: &SipFootprint, ctx: &mut GenCtx<'_>) {
    let time = fp.meta.time;
    let Some(status) = msg.status() else {
        return;
    };
    if !status.is_success() {
        // 4xx churn feeds the identity plane's flood window, not the
        // session plane.
        return;
    }
    if msg.cseq().is_none_or(|cseq| cseq.method != Method::Invite) {
        return;
    }
    // 2xx to an INVITE: learn the answering side's media and mark
    // established.
    let Some(state) = ctx.session_mut(session, time) else {
        return;
    };
    let answerer_is_callee = msg
        .from_aor()
        .and_then(|aor| state.caller_aor.as_deref().map(|c| c == aor))
        .unwrap_or(true);
    if let Some(target) = msg.rtp_target() {
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

/// The wildcard source used for stateless (global) flood tracking.
const GLOBAL_SRC: Ipv4Addr = Ipv4Addr::UNSPECIFIED;

/// The identity plane: the cross-session detection state keyed by IP
/// address or user identity rather than by session — registration /
/// 4xx churn windows (§3.3 flood DoS), digest-response windows (§3.3
/// password guessing), and the AOR → IP bindings behind the fake-IM
/// check (§4.2.2).
///
/// Both §3.3 clauses are decided on [`ThresholdTable`]s, the exact,
/// capped per-key window store that also decides `rapid-connect`: no
/// other key's traffic can raise a key's count, and what the cap drops
/// is counted ([`IdentityPlane::rate_stats`]).
///
/// In the single-engine pipeline it lives inside the
/// [`crate::proto::EventGenerator`]. The sharded pipeline
/// ([`crate::shard`]) lifts it into the dispatcher — it is the one
/// stateful component that must see every SIP frame regardless of
/// session — and runs the per-shard generators with the plane disabled
/// ([`crate::proto::EventGenerator::data_plane_with_protocols`]),
/// injecting the plane's events into the owning shard's stream instead.
#[derive(Debug)]
pub struct IdentityPlane {
    config: EventGenConfig,
    /// REGISTER and 4xx sightings per flood source, under one key each.
    floods: ThresholdTable,
    /// Digest-response hashes per `(src, username)`, judged against
    /// `guess_spec`.
    guesses: ThresholdTable,
    guess_spec: ThresholdSpec,
    /// identity AOR → (ip, last_change). Reads leave the idle clock
    /// alone, so a binding lives for [`EventGenConfig::identity_timeout`]
    /// after it was last (re-)learned and reads as absent once idle for
    /// longer than that.
    aor_ips: IdleMap<Arc<str>, (Ipv4Addr, SimTime)>,
}

impl IdentityPlane {
    /// Creates an empty identity plane; its two tables share
    /// [`TABLE_BYTES_CAP`].
    pub fn new(config: EventGenConfig) -> IdentityPlane {
        IdentityPlane::with_cap(config, TABLE_BYTES_CAP / 2)
    }

    /// An empty plane whose tables are capped at `bytes` each.
    fn with_cap(config: EventGenConfig, bytes: usize) -> IdentityPlane {
        // Password guessing as a threshold clause: `guess_threshold`
        // distinct responses per key within `guess_window` (a distinct
        // count never exceeds the count, so the count bar is implied).
        // Only the window and the two bars are consulted.
        let guess_spec = ThresholdSpec {
            clause: "password-guess",
            class: EventClass::PasswordGuessing,
            key_field: "username",
            distinct_field: Some("response"),
            window: config.guess_window,
            count_threshold: config.guess_threshold,
            distinct_threshold: config.guess_threshold,
            severity: Severity::Critical,
            template: "{distinct} distinct digest responses for {key}",
        };
        IdentityPlane {
            floods: ThresholdTable::with_cap(bytes),
            guesses: ThresholdTable::with_cap(bytes),
            guess_spec,
            // Bindings die once idle for longer than the timeout.
            aor_ips: IdleMap::new(SimDuration::from_micros(
                config.identity_timeout.as_micros().saturating_add(1),
            )),
            config,
        }
    }

    /// The AOR bindings' size and lifecycle counters.
    pub fn binding_gauge(&self) -> StoreGauge {
        self.aor_ips.gauge()
    }

    /// Bytes the flood and guess tables pin, and the observations their
    /// caps dropped.
    pub fn rate_stats(&self) -> RateStats {
        RateStats {
            bytes: self.floods.bytes() + self.guesses.bytes(),
            evicted: self.floods.evicted() + self.guesses.evicted(),
        }
    }

    /// Processes one footprint; only SIP footprints carry identity-plane
    /// signal (REGISTER churn, digest credentials, MESSAGE sources, 4xx
    /// error responses), everything else returns no events.
    pub fn on_footprint(&mut self, fp: &Footprint) -> Vec<Event> {
        let mut out = Vec::new();
        self.aor_ips.reclaim(fp.meta.time);
        if let FootprintBody::Sip(msg) = &fp.body {
            self.on_sip(fp, msg, &mut out);
        }
        out
    }

    fn emit(&mut self, out: &mut Vec<Event>, time: SimTime, kind: EventKind) {
        // Identity-plane events are never session-scoped: floods, digest
        // windows and IM histories are keyed by address or AOR.
        out.push(Event {
            time,
            session: None,
            kind,
        });
    }

    fn on_sip(&mut self, fp: &Footprint, msg: &SipFootprint, out: &mut Vec<Event>) {
        let time = fp.meta.time;
        // Identity → IP learning from originating (non-relay) legs.
        let from_relay = self.config.infrastructure_ips.contains(&fp.meta.src);
        match msg.method() {
            Some(Method::Register) => {
                if !from_relay {
                    if let Some(aor) = msg.from_aor() {
                        self.learn_identity(aor, fp.meta.src, time);
                    }
                }
                self.track_flood(fp.meta.src, false, time, out);
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
                    self.track_flood(fp.meta.dst, true, time, out);
                }
            }
        }
    }

    fn on_im(&mut self, fp: &Footprint, msg: &SipFootprint, out: &mut Vec<Event>) {
        let time = fp.meta.time;
        let Some(claimed) = msg.from_aor() else {
            return;
        };
        let src = fp.meta.src;
        if let Some(call_id) = msg.call_id() {
            self.emit(
                out,
                time,
                EventKind::ImObserved {
                    claimed_aor: claimed.to_string(),
                    src_ip: src,
                    dst_ip: fp.meta.dst,
                    call_id: call_id.to_string(),
                },
            );
        }
        if !self.config.stateful {
            // Stateless approximation: only the last IP, no mobility
            // allowance — any change alarms.
            match self.aor_ips.get(claimed, time) {
                Some(&(known, _)) if known != src => {
                    self.emit(
                        out,
                        time,
                        EventKind::ImSourceMismatch {
                            claimed_aor: claimed.to_string(),
                            src_ip: src,
                            expected_ip: known,
                        },
                    );
                }
                _ => self.learn_identity(claimed, src, time),
            }
            return;
        }
        match self.aor_ips.get(claimed, time) {
            // A new source inside the mobility interval is a spoof.
            Some(&(known, last_change))
                if known != src
                    && time.saturating_since(last_change) < self.config.im_mobility_interval =>
            {
                self.emit(
                    out,
                    time,
                    EventKind::ImSourceMismatch {
                        claimed_aor: claimed.to_string(),
                        src_ip: src,
                        expected_ip: known,
                    },
                );
            }
            // First sighting, the known source, or plausible mobility:
            // (re-)learn.
            _ => self.learn_identity(claimed, src, time),
        }
    }

    /// Binds `aor` to `ip` as of `time`: only an AOR the plane does not
    /// hold allocates its key.
    fn learn_identity(&mut self, aor: &str, ip: Ipv4Addr, time: SimTime) {
        let key = match self.aor_ips.peek_key(aor) {
            Some(key) => key.clone(),
            None => Arc::from(aor),
        };
        self.aor_ips.insert(key, (ip, time), time);
    }

    // ------------------------------------------------------------------
    // Registration flood / password guessing (§3.3)
    //
    // Two-plane note: unlike rapid-connect (keyed by caller while the
    // shard router keys by Call-ID, so its threshold clause is evaluated
    // on the dispatcher's global fold plane — see `crate::rate::fold`),
    // REGISTER-flood and password-guess events are produced by the
    // dispatcher-resident `IdentityPlane` in sharded mode. Every
    // REGISTER/4xx for a given source reaches the *same* table there,
    // so the local evaluation below is already global; no fold-plane
    // path is needed for these clauses.
    // ------------------------------------------------------------------

    /// One REGISTER from `ip` (`error = false`) or one 4xx to it
    /// (`error = true`): requests and errors are kept under two keys of
    /// the source, and the table judges their alternation count over
    /// `[time − flood_window, time]` with hysteresis — after firing, the
    /// source stays latched until its count falls below half the
    /// threshold.
    fn track_flood(&mut self, ip: Ipv4Addr, error: bool, time: SimTime, out: &mut Vec<Event>) {
        let stateful = self.config.stateful;
        let src = if stateful { ip } else { GLOBAL_SRC };
        let keys = [b"flood-req", b"flood-4xx"]
            .map(|side| hash_parts(DEFAULT_RATE_SEED, &[side, &src.octets()]));
        let fired = self.floods.observe_pair(
            time,
            keys,
            usize::from(error),
            self.config.flood_window,
            self.config.flood_threshold,
            |requests, errors| flood_alternations(requests, errors, stateful),
        );
        if let Some(count) = fired {
            self.emit(out, time, EventKind::RegisterFlood { src, count });
        }
    }

    fn track_auth_response(
        &mut self,
        src: Ipv4Addr,
        msg: &SipFootprint,
        time: SimTime,
        out: &mut Vec<Event>,
    ) {
        let Some(creds) = msg
            .authorization()
            .and_then(|v| DigestCredentials::parse(v).ok())
        else {
            return;
        };
        let (key_ip, user) = if self.config.stateful {
            (src, creds.username.as_str())
        } else {
            (GLOBAL_SRC, "")
        };
        let key = hash_parts(DEFAULT_RATE_SEED, &[b"guess", &key_ip.octets(), user.as_bytes()]);
        let item = hash_parts(DEFAULT_RATE_SEED, &[b"resp", creds.response.as_bytes()]);
        if let Some((_, distinct_responses)) = self.guesses.observe(time, key, item, &self.guess_spec)
        {
            self.emit(
                out,
                time,
                EventKind::PasswordGuessing {
                    src,
                    username: creds.username,
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
fn flood_alternations(requests: u32, errors: u32, stateful: bool) -> u32 {
    if stateful {
        requests.min(errors)
    } else {
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::PacketMeta;
    use scidive_sip::header::{CSeq, NameAddr, Via};
    use scidive_sip::msg::{response_to, RequestBuilder, SipMessage};
    use scidive_sip::status::StatusCode;

    fn footprint(ms: u64, src: Ipv4Addr, dst: Ipv4Addr, msg: &SipMessage) -> Footprint {
        Footprint {
            meta: PacketMeta {
                time: SimTime::from_millis(ms),
                src,
                src_port: 5060,
                dst,
                dst_port: 5060,
            },
            body: FootprintBody::Sip(SipFootprint::parse(msg.to_bytes()).unwrap()),
        }
    }

    /// The flood tests' table cap: 1,024 observations.
    const CAP: usize = 24 * 1024;
    const REGISTRAR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const FLOODER: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

    /// Feeds one REGISTER from `src` and its 401 challenge at `ms`.
    fn register_pair(plane: &mut IdentityPlane, ms: u64, src: Ipv4Addr) -> Vec<Event> {
        let aor: scidive_sip::uri::SipUri = "sip:mallory@lab".parse().unwrap();
        let mut b = RequestBuilder::new(Method::Register, "sip:lab".parse().unwrap());
        b.from(NameAddr::new(aor.clone()).with_tag("t"))
            .to(NameAddr::new(aor))
            .call_id("reg-1")
            .cseq(CSeq::new(1, Method::Register))
            .via(Via::udp("10.0.0.9:5060", "z9hG4bK-1"));
        let req = b.build();
        let challenge = response_to(&req, StatusCode::UNAUTHORIZED, None);
        let mut events = plane.on_footprint(&footprint(ms, src, REGISTRAR, &req));
        events.extend(plane.on_footprint(&footprint(ms, REGISTRAR, src, &challenge)));
        events
    }

    /// A binding lives for `identity_timeout` after it was last learned,
    /// however often it is read, and reads as absent once idle longer.
    #[test]
    fn an_aor_binding_idle_past_the_identity_timeout_reads_as_absent() {
        let config = EventGenConfig {
            identity_timeout: SimDuration::from_secs(600),
            im_mobility_interval: SimDuration::from_secs(900),
            ..EventGenConfig::default()
        };
        let mut plane = IdentityPlane::new(config);
        let bob = Ipv4Addr::new(10, 0, 0, 3);
        let spoofer = Ipv4Addr::new(10, 0, 0, 66);
        let mut b = RequestBuilder::new(Method::Message, "sip:alice@lab".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("t"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()))
            .call_id("im-1")
            .cseq(CSeq::new(1, Method::Message))
            .via(Via::udp("10.0.0.3:5060", "z9hG4bK-im"));
        let im = b.build();
        let mismatches = |events: Vec<Event>| {
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::ImSourceMismatch { .. }))
                .count()
        };
        let mut im_at = |ms, src| {
            let events = plane.on_footprint(&footprint(ms, src, REGISTRAR, &im));
            mismatches(events)
        };
        im_at(0, bob);
        assert_eq!(im_at(600_000, spoofer), 1);
        // 600 s plus a millisecond after bob's binding was learned it is
        // gone, though the spoof above read it: the spoofer binds afresh.
        assert_eq!(im_at(600_001, spoofer), 0);
        let bindings = plane.binding_gauge();
        assert_eq!((bindings.live, bindings.expired), (1, 1));
    }

    /// A key-minting REGISTER flood — every request/challenge pair from
    /// a fresh source — against a flood table capped at 24 KiB: the
    /// bytes stay under the cap, every observation the cap drops is
    /// counted, and no minted source is accused. A real flooder inside
    /// the churn keeps its own window and is caught exactly once.
    #[test]
    fn key_minting_flood_stays_under_the_cap_and_never_accuses() {
        let mut plane = IdentityPlane::with_cap(EventGenConfig::default(), CAP);
        let mut events = Vec::new();
        for i in 0..4_000u32 {
            let ms = u64::from(i);
            events.extend(register_pair(&mut plane, ms, Ipv4Addr::from(0x0b00_0000 + i)));
            if i % 100 == 0 {
                events.extend(register_pair(&mut plane, ms, FLOODER));
            }
            assert!(plane.rate_stats().bytes <= CAP as u64, "{:?}", plane.rate_stats());
        }
        assert!(plane.rate_stats().evicted > 6_000, "{:?}", plane.rate_stats());
        let floods: Vec<&EventKind> = events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            floods,
            vec![&EventKind::RegisterFlood {
                src: FLOODER,
                count: 10
            }]
        );
    }

    /// One flooder alone outgrows its capped table — 5,000 pairs inside
    /// one flood window, on one source's keys, or in stateless mode on
    /// the one global key. The cap trims the oldest observations but
    /// keeps the latch on the newest, so the flood alerts exactly once.
    #[test]
    fn a_flood_past_the_cap_alerts_once() {
        for stateful in [true, false] {
            let config = EventGenConfig {
                stateful,
                ..EventGenConfig::default()
            };
            let mut plane = IdentityPlane::with_cap(config, CAP);
            let mut events = Vec::new();
            for ms in 0..5_000 {
                events.extend(register_pair(&mut plane, ms, FLOODER));
                assert!(plane.rate_stats().bytes <= CAP as u64, "{:?}", plane.rate_stats());
            }
            assert!(plane.rate_stats().evicted > 8_000, "{:?}", plane.rate_stats());
            let src = if stateful { FLOODER } else { GLOBAL_SRC };
            let floods: Vec<&EventKind> = events.iter().map(|e| &e.kind).collect();
            assert_eq!(floods, vec![&EventKind::RegisterFlood { src, count: 10 }]);
        }
    }
}
