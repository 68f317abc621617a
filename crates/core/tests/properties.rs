//! Property-based tests for the IDS core: the Distiller is total over
//! arbitrary bytes, trail accounting balances, metric identities hold,
//! routing is stable, and the sharded pipeline is shard-count
//! invariant over random interleaved SIP/RTP schedules.

use proptest::prelude::*;
use scidive_core::alert::{Alert, Severity};
use scidive_core::distill::{Distiller, DistillerConfig};
use scidive_core::engine::{Scidive, ScidiveConfig};
use scidive_core::event::{Event, EventClass, EventKind, FlowKey};
use scidive_core::footprint::{Footprint, FootprintBody, PacketMeta};
use scidive_core::metrics::{DetectionReport, InjectedAttack};
use scidive_core::rate::RateHub;
use scidive_core::routing::SessionRouter;
use scidive_core::rules::{AlertSink, CompiledRuleset, Rule, RuleCtx, RuleInterest};
use scidive_core::shard::ShardedScidive;
use scidive_core::trail::{SessionKey, TrailKey, TrailStats, TrailStore, TrailStoreConfig};
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::SimTime;
use scidive_rtp::packet::{RtpHeader, RtpPacket};
use scidive_sip::header::{CSeq, HeaderName, NameAddr, Via};
use scidive_sip::method::Method;
use scidive_sip::msg::{response_to, RequestBuilder, SipMessage, SipView};
use scidive_sip::sdp::SessionDescription;
use scidive_sip::status::StatusCode;
use std::collections::HashMap;
use std::net::Ipv4Addr;

fn ip() -> impl Strategy<Value = Ipv4Addr> {
    (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Ipv4Addr::new(10, a, 0, b))
}

proptest! {
    #[test]
    fn distiller_is_total_over_arbitrary_udp(
        src in ip(), dst in ip(),
        sport in any::<u16>(), dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut d = Distiller::new(DistillerConfig::default());
        let pkt = IpPacket::udp(src, sport, dst, dport, payload);
        let fp = d.distill(SimTime::ZERO, &pkt);
        // Unfragmented input: exactly one footprint, meta preserved.
        prop_assert!(fp.is_some());
        let fp = fp.unwrap();
        prop_assert_eq!(fp.meta.src, src);
        prop_assert_eq!(fp.meta.dst, dst);
        prop_assert_eq!(fp.meta.src_port, sport);
        prop_assert_eq!(fp.meta.dst_port, dport);
    }

    #[test]
    fn engine_never_panics_on_arbitrary_frames(
        frames in proptest::collection::vec(
            (any::<u16>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..128)),
            0..40,
        ),
    ) {
        let mut ids = Scidive::new(ScidiveConfig::default());
        for (i, (sport, dport, payload)) in frames.iter().enumerate() {
            let pkt = IpPacket::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                *sport,
                Ipv4Addr::new(10, 0, 0, 2),
                *dport,
                payload.clone(),
            );
            ids.on_frame(SimTime::from_millis(i as u64), &pkt);
        }
        let stats = ids.stats();
        prop_assert_eq!(stats.frames, frames.len() as u64);
        prop_assert!(stats.footprints <= stats.frames);
        prop_assert_eq!(stats.alerts as usize, ids.alerts().len());
    }

    #[test]
    fn trail_store_accounting_balances(
        inserts in proptest::collection::vec((0u16..32, any::<u16>()), 1..300),
    ) {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        // Inserts per port since its trail was created (no idle expiry
        // at these times, so every trail lives from its first insert).
        let mut model: HashMap<u16, usize> = HashMap::new();
        for (i, (port, seq)) in inserts.iter().enumerate() {
            let fp = Footprint {
                meta: PacketMeta {
                    time: SimTime::from_millis(i as u64),
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    src_port: 9000,
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: *port,
                    },
                body: FootprintBody::Rtp {
                    header: RtpHeader::new(0, *seq, 0, 1),
                    payload_len: 160,
                },
            };
            store.insert(fp);
            *model.entry(*port).or_default() += 1;
        }
        prop_assert_eq!(store.stats().inserted, inserts.len() as u64);
        prop_assert_eq!(store.trail_count(), model.len());
        for (port, want) in &model {
            let key = scidive_core::trail::TrailKey {
                session: scidive_core::trail::SessionKey::new(
                    format!("flow-10.0.0.2:{port}"),
                ),
                proto: scidive_core::footprint::TrailProto::Rtp,
            };
            let trail = store.trail(&key);
            prop_assert!(trail.is_some(), "{:?} missing", key);
            prop_assert_eq!(trail.unwrap().len(), *want);
        }
    }

    #[test]
    fn detection_report_identity(
        n_attacks in 0usize..6,
        n_alerts in 0usize..6,
        offsets in proptest::collection::vec(any::<u64>(), 0..12),
    ) {
        let attacks: Vec<InjectedAttack> = (0..n_attacks)
            .map(|i| InjectedAttack::new(
                "bye-attack",
                SimTime::from_millis(*offsets.get(i).unwrap_or(&0) % 1000),
            ))
            .collect();
        let alerts: Vec<Alert> = (0..n_alerts)
            .map(|i| Alert::new(
                "bye-attack",
                Severity::Critical,
                SimTime::from_millis(*offsets.get(i + n_attacks).unwrap_or(&0) % 1000),
                None,
                "x",
            ))
            .collect();
        let report = DetectionReport::evaluate(&alerts, &attacks);
        // Identities: detected + missed = injected; every alert is either
        // credited to an attack or a false alarm.
        prop_assert_eq!(report.detected_count() + report.missed_count(), n_attacks);
        prop_assert_eq!(
            report.detected_count() + report.false_alarms.len(),
            n_alerts.max(report.detected_count())
        );
        // Delays are never negative.
        for o in &report.outcomes {
            if let Some(d) = o.delay() {
                prop_assert!(d.as_micros() < u64::MAX);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Random interleaved SIP/RTP schedules.
//
// A schedule is a list of (call, op, noise) triples lowered to concrete
// frames by a per-call dialog state machine, so every generated capture
// is causally well-formed: media only flows to sinks that were already
// announced in SDP, or to sinks that are *never* announced (pure
// noise). That restriction mirrors the documented sharding caveat —
// RTP that races its own announcement may split generator-local state
// across shards — and keeps the differential property exact.
// ---------------------------------------------------------------------------

/// One randomly chosen schedule step, before lowering.
type Op = (usize, u8, u16);

const CALLS: usize = 4;

fn caller_ip(call: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1, call as u8 + 1)
}

fn callee_ip(call: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 2, call as u8 + 1)
}

fn caller_media_port(call: usize) -> u16 {
    8000 + 2 * call as u16
}

fn callee_media_port(call: usize) -> u16 {
    9000 + 2 * call as u16
}

fn sip_frame(src: Ipv4Addr, dst: Ipv4Addr, msg: &SipMessage) -> IpPacket {
    IpPacket::udp(src, 5060, dst, 5060, msg.to_bytes())
}

fn invite_msg(call: usize) -> SipMessage {
    let sdp = SessionDescription::audio_offer("alice", caller_ip(call), caller_media_port(call));
    let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
    b.from(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("a"))
        .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
        .call_id(format!("prop-call-{call}"))
        .cseq(CSeq::new(1, Method::Invite))
        .via(Via::udp("10.0.1.1:5060", "z9hG4bK-p"))
        .body("application/sdp", sdp.to_string());
    b.build()
}

fn invite_packet(call: usize) -> IpPacket {
    sip_frame(caller_ip(call), callee_ip(call), &invite_msg(call))
}

/// 200 OK answering the INVITE, carrying the callee's SDP answer.
fn ok_packet(call: usize) -> IpPacket {
    let sdp = SessionDescription::audio_offer("bob", callee_ip(call), callee_media_port(call));
    let mut resp = response_to(&invite_msg(call), StatusCode::OK, Some("b"));
    resp.headers.set(HeaderName::ContentType, "application/sdp");
    resp.body = sdp.to_string().into();
    sip_frame(callee_ip(call), caller_ip(call), &resp)
}

fn bye_packet(call: usize) -> IpPacket {
    let mut b = RequestBuilder::new(Method::Bye, "sip:bob@lab".parse().unwrap());
    b.from(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("a"))
        .to(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("b"))
        .call_id(format!("prop-call-{call}"))
        .cseq(CSeq::new(2, Method::Bye))
        .via(Via::udp("10.0.1.1:5060", "z9hG4bK-q"));
    sip_frame(caller_ip(call), callee_ip(call), &b.build())
}

fn rtp_packet(src: Ipv4Addr, sport: u16, dst: Ipv4Addr, dport: u16, seq: u16, ssrc: u32) -> IpPacket {
    let pkt = RtpPacket::new(RtpHeader::new(0, seq, seq as u32 * 160, ssrc), vec![0u8; 160]);
    IpPacket::udp(src, sport, dst, dport, pkt.encode())
}

/// RTP to a sink no SDP ever announces: always unattributable, always
/// the overflow shard.
fn noise_rtp(noise: u16, seq: u16) -> IpPacket {
    rtp_packet(
        Ipv4Addr::new(10, 9, 1, 1),
        7000,
        Ipv4Addr::new(10, 9, 0, noise as u8),
        40000 + noise % 1000,
        seq,
        0x9999,
    )
}

/// Non-RTP garbage to an equally never-announced sink.
fn garbage_udp(noise: u16) -> IpPacket {
    IpPacket::udp(
        Ipv4Addr::new(10, 9, 1, 2),
        7001,
        Ipv4Addr::new(10, 9, 0, noise as u8),
        41000 + noise % 1000,
        b"not media, not signalling".as_ref(),
    )
}

/// REGISTER from a rotating set of users: exercises the identity plane
/// (learning, registration windows) that lives in the dispatcher.
fn register_packet(noise: u16) -> IpPacket {
    let user = noise % 8;
    let src = Ipv4Addr::new(10, 3, user as u8, 1);
    let mut b = RequestBuilder::new(Method::Register, "sip:lab".parse().unwrap());
    b.from(NameAddr::new(format!("sip:user{user}@lab").parse().unwrap()).with_tag("r"))
        .to(NameAddr::new(format!("sip:user{user}@lab").parse().unwrap()))
        .call_id(format!("reg-{user}"))
        .cseq(CSeq::new(1, Method::Register))
        .via(Via::udp("10.3.0.1:5060", "z9hG4bK-s"))
        .contact(NameAddr::new(format!("sip:user{user}@{src}").parse().unwrap()))
        .expires(3600);
    sip_frame(src, Ipv4Addr::new(10, 0, 0, 100), &b.build())
}

/// Lowers a random op list to a causally well-formed capture with
/// strictly monotone timestamps.
fn schedule_frames(ops: &[Op]) -> Vec<(SimTime, IpPacket)> {
    // Dialog phase per call: 0 idle, 1 invited (caller SDP announced),
    // 2 established (both SDPs announced), 3 torn down.
    let mut phase = [0u8; CALLS];
    let mut frames = Vec::new();
    for (step, &(call, kind, noise)) in ops.iter().enumerate() {
        let seq = step as u16;
        let pkt = match kind {
            0 => match phase[call] {
                0 => {
                    phase[call] = 1;
                    Some(invite_packet(call))
                }
                1 => {
                    phase[call] = 2;
                    Some(ok_packet(call))
                }
                2 => {
                    phase[call] = 3;
                    Some(bye_packet(call))
                }
                _ => None,
            },
            // Media toward the caller's sink: valid once the INVITE
            // announced it.
            1 if phase[call] >= 1 => Some(rtp_packet(
                callee_ip(call),
                callee_media_port(call),
                caller_ip(call),
                caller_media_port(call),
                seq,
                0x1000 + call as u32,
            )),
            // Media toward the callee's sink: valid once the 200 OK
            // answered.
            2 if phase[call] >= 2 => Some(rtp_packet(
                caller_ip(call),
                caller_media_port(call),
                callee_ip(call),
                callee_media_port(call),
                seq,
                0x2000 + call as u32,
            )),
            3 => Some(noise_rtp(noise, seq)),
            4 => Some(garbage_udp(noise)),
            5 => Some(register_packet(noise)),
            _ => None,
        };
        if let Some(p) = pkt {
            frames.push((SimTime::from_millis(10 * step as u64 + 1), p));
        }
    }
    frames
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0usize..CALLS, 0u8..6, any::<u16>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Routing stability: the dispatcher's session resolution is
    /// deterministic, agrees with the trail store's keying (the two
    /// views of "which session does this footprint belong to" never
    /// diverge), and every footprint of a session lands on the same
    /// shard for the whole capture.
    #[test]
    fn routing_is_stable_over_random_schedules(ops in ops()) {
        let frames = schedule_frames(&ops);
        let mut router_a = SessionRouter::new(5);
        let mut router_b = SessionRouter::new(5);
        let mut store = TrailStore::new(TrailStoreConfig::default());
        let mut distiller = Distiller::new(DistillerConfig::default());
        let mut pinned: HashMap<SessionKey, usize> = HashMap::new();
        for (t, pkt) in &frames {
            if let Some(fp) = distiller.distill(*t, pkt) {
                let da = router_a.route(&fp);
                let db = router_b.route(&fp);
                prop_assert_eq!(&da, &db);
                let (_, key) = store.insert(fp);
                prop_assert_eq!(&da.session, &key.session);
                if let Some(prev) = pinned.insert(da.session.clone(), da.shard) {
                    prop_assert_eq!(prev, da.shard);
                }
            }
        }
    }

    /// Shard-count invariance: replaying any causally well-formed
    /// random schedule through `ShardedScidive` yields the same alert
    /// stream and the same summed counters as a single `Scidive`, for
    /// every shard count — including a prime that divides nothing.
    #[test]
    fn random_schedules_are_shard_count_invariant(ops in ops()) {
        let frames = schedule_frames(&ops);
        let mut single = Scidive::new(ScidiveConfig::default());
        for (t, pkt) in &frames {
            single.on_frame(*t, pkt);
        }
        for shards in [1usize, 2, 5] {
            let mut sharded = ShardedScidive::new(ScidiveConfig::default(), shards, 16);
            for (t, pkt) in &frames {
                sharded.submit(*t, pkt);
            }
            let report = sharded.finish();
            prop_assert_eq!(&report.alerts[..], single.alerts());
            prop_assert_eq!(report.stats, single.stats());
            prop_assert_eq!(report.dispatch.dropped, 0);
            prop_assert_eq!(report.dispatch.frames, frames.len() as u64);
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol-module registry: classification over random payloads to every
// registered port is total (never panics), deterministic, and
// independent of the order modules were registered in.
// ---------------------------------------------------------------------------

use bytes::Bytes;
use scidive_core::proto::{
    acct::AcctModule, mgcp::MgcpModule, rtcp::RtcpModule, rtp::RtpModule, sip::SipModule,
    ProtocolSet, ProtocolSetBuilder,
};

fn registry_forward() -> ProtocolSet {
    ProtocolSetBuilder::empty()
        .register(Box::new(SipModule::new()))
        .register(Box::new(RtpModule::new()))
        .register(Box::new(RtcpModule::new()))
        .register(Box::new(AcctModule::new()))
        .register(Box::new(MgcpModule::new()))
        .build()
}

fn registry_reverse() -> ProtocolSet {
    ProtocolSetBuilder::empty()
        .register(Box::new(MgcpModule::new()))
        .register(Box::new(AcctModule::new()))
        .register(Box::new(RtcpModule::new()))
        .register(Box::new(RtpModule::new()))
        .register(Box::new(SipModule::new()))
        .build()
}

proptest! {
    /// Every registered port (SIP 5060, RTP/RTCP media pair, accounting
    /// 2427, MGCP 2727) plus arbitrary ports, fed arbitrary bytes:
    /// classification never panics, is a pure function of the input,
    /// and two registries built from opposite registration orders agree
    /// byte-for-byte — explicit priority, not Vec order, decides.
    #[test]
    fn classification_is_total_deterministic_and_order_independent(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        port_pick in 0usize..8,
        arbitrary_port in any::<u16>(),
        sport in any::<u16>(),
        src in ip(), dst in ip(),
    ) {
        let ports = [5060u16, 8000, 8001, 9001, 2427, 2727, 40000, arbitrary_port];
        let dst_port = ports[port_pick];
        let meta = PacketMeta {
            time: SimTime::from_millis(1),
            src,
            src_port: sport,
            dst,
            dst_port,
        };
        let bytes = Bytes::from(payload);
        let cfg = DistillerConfig::default();
        let forward = registry_forward();
        let reverse = registry_reverse();
        prop_assert_eq!(forward.names(), reverse.names());
        let a = forward.classify(&bytes, &meta, &cfg);
        let b = forward.classify(&bytes, &meta, &cfg);
        prop_assert_eq!(&a, &b, "classification is not deterministic");
        let c = reverse.classify(&bytes, &meta, &cfg);
        prop_assert_eq!(&a, &c, "registration order changed classification");
        // Attribution stays with whichever module owns the body in
        // both registries — the dispatch target is order-independent
        // too.
        prop_assert_eq!(
            forward.module_for(&a).name(),
            reverse.module_for(&c).name()
        );
    }
}

// ---------------------------------------------------------------------------
// Compiled rule dispatch: a rule subscribed to a random subset of event
// classes sees exactly the events of those classes, in stream order.
// ---------------------------------------------------------------------------

/// The event-class pool the dispatch property draws from.
const DISPATCH_CLASSES: [EventClass; 6] = [
    EventClass::CallEstablished,
    EventClass::CallTornDown,
    EventClass::RtpSeqViolation,
    EventClass::SipMalformed,
    EventClass::MediaPortGarbage,
    EventClass::RtpUnknownSource,
];

/// A synthetic event of the pool class `which`, stamped with `step` so
/// each event in a stream is distinguishable.
fn synthetic_event(which: u8, step: usize) -> Event {
    let flow = FlowKey {
        src: Ipv4Addr::new(10, 0, 0, 3),
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 8000,
    };
    let kind = match which % 6 {
        0 => EventKind::CallEstablished {
            caller: "a@lab".to_string(),
            callee: "b@lab".to_string(),
        },
        1 => EventKind::CallTornDown {
            by_aor: "a@lab".to_string(),
            by_media_ip: None,
        },
        2 => EventKind::RtpSeqViolation { flow, delta: 7000 },
        3 => EventKind::SipMalformed {
            violations: vec!["missing Via".to_string()],
            src: Ipv4Addr::new(10, 0, 0, 9),
        },
        4 => EventKind::MediaPortGarbage {
            sink: (Ipv4Addr::new(10, 0, 0, 2), 8000),
            reason: "short".to_string(),
        },
        _ => EventKind::RtpUnknownSource { flow },
    };
    Event {
        time: SimTime::from_millis(step as u64),
        session: Some(SessionKey::new(format!("s{}", step % 3))),
        kind,
    }
}

/// Records every event offered to it; `classes` empty means "all"
/// (the [`RuleInterest::all`] escape hatch).
struct RecorderRule {
    classes: Vec<EventClass>,
    seen: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, EventClass)>>>,
}

impl Rule for RecorderRule {
    fn id(&self) -> &str {
        "recorder"
    }

    fn description(&self) -> &str {
        "records offered events"
    }

    fn is_cross_protocol(&self) -> bool {
        false
    }

    fn is_stateful(&self) -> bool {
        false
    }

    fn interests(&self) -> RuleInterest {
        if self.classes.is_empty() {
            RuleInterest::all()
        } else {
            RuleInterest::of(&self.classes)
        }
    }

    fn on_event(&mut self, ev: &Event, _ctx: &RuleCtx<'_>, _sink: &mut AlertSink<'_>) {
        self.seen.borrow_mut().push((ev.time, ev.class()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled dispatch table offers a rule exactly the events of
    /// its subscribed classes, in stream order — and a rule with the
    /// "all" escape hatch sees the entire stream.
    #[test]
    fn compiled_dispatch_offers_exactly_the_subscribed_classes(
        stream in proptest::collection::vec(0u8..6, 1..80),
        mask in any::<u8>(),
    ) {
        let subscribed: Vec<EventClass> = DISPATCH_CLASSES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let rule = RecorderRule {
            classes: subscribed.clone(),
            seen: seen.clone(),
        };
        let mut ruleset = CompiledRuleset::new(vec![Box::new(rule)], false);
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = RateHub::default();
        let mut scratch = Vec::new();
        for (step, which) in stream.iter().enumerate() {
            let ev = synthetic_event(*which, step);
            let ctx = RuleCtx { now: ev.time, trails: &store, rates: &rates };
            ruleset.dispatch(&ev, &ctx, &mut AlertSink::new(&mut scratch));
        }
        let expected: Vec<(SimTime, EventClass)> = stream
            .iter()
            .enumerate()
            .map(|(step, which)| {
                let ev = synthetic_event(*which, step);
                (ev.time, ev.class())
            })
            .filter(|(_, class)| subscribed.is_empty() || subscribed.contains(class))
            .collect();
        prop_assert_eq!(seen.borrow().clone(), expected);
        // The exact eval counter agrees with what the rule observed.
        prop_assert_eq!(
            ruleset.rule_evals()[0].evals as usize,
            seen.borrow().len()
        );
    }
}

// ----------------------------------------------------------------------
// The identity plane's §3.3 clauses vs a naive per-key oracle
// ----------------------------------------------------------------------

use scidive_core::event::{EventGenConfig, IdentityPlane};
use scidive_netsim::time::SimDuration;

const ORACLE_FLOOD_WINDOW_MS: u64 = 2_000;
const ORACLE_FLOOD_THRESHOLD: u32 = 4;
const ORACLE_GUESS_WINDOW_MS: u64 = 3_000;
const ORACLE_GUESS_THRESHOLD: u32 = 3;
const ORACLE_REGISTRAR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// The identity plane's flood and password-guess clauses restated
/// naively: every observation of every key kept in a plain list, each
/// judged over the list entries inside its own `[t − window, t]` — for a
/// late observation, nothing older than one window behind the newest
/// time the clause has seen.
///
/// * Flood: `min(requests, 4xx)` (4xx alone when stateless) reaching the
///   threshold fires unless the key is latched; a latched key releases
///   when its count falls below half the threshold. The latch is read
///   as the key's latest earlier in-window observation left it — for an
///   in-order stream, simply the key's flag.
/// * Guessing: distinct digest responses reaching the threshold fire
///   once per campaign; the key re-arms when no fired observation is
///   left in its window.
#[derive(Default)]
struct IdentityOracle {
    stateful: bool,
    /// Flood key → `(time ms, is 4xx, latched after)`.
    floods: HashMap<Ipv4Addr, Vec<(u64, bool, bool)>>,
    /// `(src, username)` → `(time ms, response, fired after)`.
    guesses: HashMap<(Ipv4Addr, String), Vec<GuessSeen>>,
    /// Newest time each clause has seen.
    flood_newest: u64,
    guess_newest: u64,
}

type GuessSeen = (u64, String, bool);

/// Whether `t` is visible to an observation at `at`, given the newest
/// time seen before it.
fn in_window(t: u64, at: u64, newest: u64, window_ms: u64) -> bool {
    at.max(newest).saturating_sub(window_ms) <= t && t <= at
}

impl IdentityOracle {
    fn flood(&mut self, ip: Ipv4Addr, error: bool, at: u64) -> Option<EventKind> {
        let src = if self.stateful { ip } else { Ipv4Addr::UNSPECIFIED };
        let newest = self.flood_newest;
        self.flood_newest = newest.max(at);
        let seen = self.floods.entry(src).or_default();
        let window: Vec<_> = seen
            .iter()
            .filter(|o| in_window(o.0, at, newest, ORACLE_FLOOD_WINDOW_MS))
            .collect();
        let errors = window.iter().filter(|o| o.1).count() + usize::from(error);
        let requests = window.len() + 1 - errors;
        let count = if self.stateful { requests.min(errors) } else { errors } as u32;
        let last = window.iter().map(|o| o.0).max();
        let latched = window.iter().any(|o| Some(o.0) == last && o.2);
        let fire = count >= ORACLE_FLOOD_THRESHOLD && !latched;
        let after = fire || (latched && count >= ORACLE_FLOOD_THRESHOLD / 2);
        seen.push((at, error, after));
        fire.then_some(EventKind::RegisterFlood { src, count })
    }

    fn guess(&mut self, src: Ipv4Addr, user: &str, response: &str, at: u64) -> Option<EventKind> {
        let key = if self.stateful {
            (src, user.to_string())
        } else {
            (Ipv4Addr::UNSPECIFIED, String::new())
        };
        let newest = self.guess_newest;
        self.guess_newest = newest.max(at);
        let seen = self.guesses.entry(key).or_default();
        let window: Vec<_> = seen
            .iter()
            .filter(|o| in_window(o.0, at, newest, ORACLE_GUESS_WINDOW_MS))
            .collect();
        let latched = window.iter().any(|o| o.2);
        let mut distinct: HashSet<&str> = window.iter().map(|o| o.1.as_str()).collect();
        distinct.insert(response);
        let distinct_responses = distinct.len() as u32;
        let fire = !latched && distinct_responses >= ORACLE_GUESS_THRESHOLD;
        seen.push((at, response.to_string(), latched || fire));
        fire.then(|| EventKind::PasswordGuessing {
            src,
            username: user.to_string(),
            distinct_responses,
        })
    }
}

/// A REGISTER from `user`, with digest credentials when `response` is
/// given.
fn oracle_register(user: &str, n: usize, response: Option<&str>) -> SipMessage {
    let aor: scidive_sip::uri::SipUri = format!("sip:{user}@lab").parse().unwrap();
    let mut b = RequestBuilder::new(Method::Register, "sip:lab".parse().unwrap());
    b.from(NameAddr::new(aor.clone()).with_tag("t"))
        .to(NameAddr::new(aor))
        .call_id(format!("reg-{n}"))
        .cseq(CSeq::new(n as u32 + 1, Method::Register))
        .via(Via::udp("10.0.0.9:5060", format!("z9hG4bK-{n}")));
    let mut req = b.build();
    if let Some(response) = response {
        req.headers.set(
            HeaderName::Authorization,
            format!(
                "Digest username=\"{user}\", realm=\"lab\", nonce=\"n\", uri=\"sip:lab\", response=\"{response}\""
            ),
        );
    }
    req
}

fn sip_footprint(at: u64, src: Ipv4Addr, dst: Ipv4Addr, msg: SipMessage) -> Footprint {
    Footprint {
        meta: PacketMeta {
            time: SimTime::from_millis(at),
            src,
            src_port: 5060,
            dst,
            dst_port: 5060,
        },
        body: FootprintBody::Sip(SipFootprint::parse(msg.to_bytes()).unwrap()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random REGISTER / 4xx / `Authorization` streams over a few to a
    /// few dozen sources, with timestamps that step backwards as well
    /// as forwards: the identity plane raises exactly the oracle's
    /// flood and guess events, in order, with the oracle's counts.
    #[test]
    fn identity_plane_matches_the_naive_per_key_oracle(
        steps in proptest::collection::vec(
            // (source, user, kind: 0 REGISTER / 1 4xx / 2 REGISTER +
            // credentials, response, time step in ms)
            (0u32..64, 0u8..2, 0u8..3, 0u8..5, -400i64..700),
            1..400,
        ),
        sources in 1u32..40,
        stateful in any::<bool>(),
    ) {
        let mut plane = IdentityPlane::new(EventGenConfig {
            flood_window: SimDuration::from_millis(ORACLE_FLOOD_WINDOW_MS),
            flood_threshold: ORACLE_FLOOD_THRESHOLD,
            guess_window: SimDuration::from_millis(ORACLE_GUESS_WINDOW_MS),
            guess_threshold: ORACLE_GUESS_THRESHOLD,
            stateful,
            ..EventGenConfig::default()
        });
        let mut oracle = IdentityOracle { stateful, ..IdentityOracle::default() };
        let mut at = 10_000u64;
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (n, &(source, user, kind, response, step)) in steps.iter().enumerate() {
            at = at.saturating_add_signed(step);
            let client = Ipv4Addr::new(10, 1, 0, (source % sources) as u8 + 2);
            let user = format!("user{user}");
            let response = format!("{response:032x}");
            let fp = match kind {
                1 => {
                    let req = oracle_register(&user, n, None);
                    let challenge = response_to(&req, StatusCode::UNAUTHORIZED, None);
                    want.extend(oracle.flood(client, true, at).map(|e| (n, e)));
                    sip_footprint(at, ORACLE_REGISTRAR, client, challenge)
                }
                _ => {
                    let creds = (kind == 2).then_some(response.as_str());
                    want.extend(oracle.flood(client, false, at).map(|e| (n, e)));
                    if let Some(response) = creds {
                        want.extend(oracle.guess(client, &user, response, at).map(|e| (n, e)));
                    }
                    sip_footprint(at, client, ORACLE_REGISTRAR, oracle_register(&user, n, creds))
                }
            };
            got.extend(plane.on_footprint(&fp).into_iter().map(|e| (n, e.kind)));
        }
        prop_assert_eq!(got, want);
    }
}

// ----------------------------------------------------------------------
// Trail expiry: the deadline queue against a retain-on-every-insert model
// ----------------------------------------------------------------------

/// One model trail: what a store that scans every live trail on every
/// insert would hold for it.
struct ModelTrail {
    created: SimTime,
    last_active: SimTime,
    len: usize,
}

/// The trail-store semantics the deadline queue must reproduce: before
/// each insert, drop every trail with `now - last_active ≥ timeout`.
#[derive(Default)]
struct TrailModel {
    trails: HashMap<TrailKey, ModelTrail>,
    stats: TrailStats,
}

impl TrailModel {
    fn expire(&mut self, now: SimTime, timeout: SimDuration) {
        let before = self.trails.len();
        self.trails
            .retain(|_, t| now.saturating_since(t.last_active) < timeout);
        self.stats.expired_trails += (before - self.trails.len()) as u64;
    }

    fn file(&mut self, key: TrailKey, now: SimTime) {
        let trail = self.trails.entry(key).or_insert(ModelTrail {
            created: now,
            last_active: now,
            len: 0,
        });
        trail.last_active = now;
        trail.len += 1;
        self.stats.inserted += 1;
    }
}

/// SIP with SDP for one of a few sessions, RTP to its announced sink,
/// or RTP to a sink no SDP announces.
fn trail_footprint(kind: u8, session: usize, at: SimTime) -> Footprint {
    let rtp = |dst: Ipv4Addr, dst_port: u16| Footprint {
        meta: PacketMeta {
            time: at,
            src: Ipv4Addr::new(10, 0, 3, 1),
            src_port: 9000,
            dst,
            dst_port,
        },
        body: FootprintBody::Rtp {
            header: RtpHeader::new(0, 1, 0, 7),
            payload_len: 160,
        },
    };
    match kind {
        0 => Footprint {
            meta: PacketMeta {
                time: at,
                src: caller_ip(session),
                src_port: 5060,
                dst: callee_ip(session),
                dst_port: 5060,
            },
            body: FootprintBody::Sip(SipFootprint::parse(invite_msg(session).to_bytes()).unwrap()),
        },
        1 => rtp(caller_ip(session), caller_media_port(session)),
        _ => rtp(Ipv4Addr::new(10, 9, 0, 1), 40_000 + session as u16),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random SIP and RTP footprints over several sessions, with time
    /// steps from -timeout to +2 timeout (at least a millisecond either
    /// way), through the store and through the naive model: after every
    /// insert they hold the same trails with the same counters.
    #[test]
    fn trail_expiry_matches_the_retain_every_insert_model(
        steps in proptest::collection::vec((0u8..3, 0usize..6, 0.0f64..1.0), 1..300),
        timeout_us in prop_oneof![Just(0u64), Just(1u64), 2u64..200_000],
    ) {
        let timeout = SimDuration::from_micros(timeout_us);
        let mut store = TrailStore::new(TrailStoreConfig {
            idle_timeout: timeout,
            ..TrailStoreConfig::default()
        });
        let mut model = TrailModel::default();
        let span = timeout_us.max(1_000) as f64;
        let mut at = 1_000_000u64;
        for &(kind, session, step) in &steps {
            // step ∈ [0, 1) maps onto [-span, +2 span).
            at = at.saturating_add_signed((step * 3.0 * span - span) as i64);
            let now = SimTime::from_micros(at);
            model.expire(now, timeout);
            let (_, key) = store.insert(trail_footprint(kind, session, now));
            model.file(key, now);

            prop_assert_eq!(store.stats(), model.stats);
            prop_assert_eq!(store.trail_count(), model.trails.len());
            for (key, want) in &model.trails {
                let got = store.trail(key);
                prop_assert!(got.is_some(), "{:?} missing", key);
                let got = got.unwrap();
                prop_assert_eq!(got.created(), want.created);
                prop_assert_eq!(got.last_active(), want.last_active);
                prop_assert_eq!(got.len(), want.len);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Threshold clauses: shard invariance, and histogram quantile order
// ----------------------------------------------------------------------

/// One established call on the wire: `caller`'s INVITE to `callee` at
/// `at` and the 200 OK ten milliseconds later, under its own Call-ID so
/// the shard router places each dialog independently.
fn established_call(caller: u8, callee: u8, n: usize, at: SimTime) -> [(SimTime, IpPacket); 2] {
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 40), Ipv4Addr::new(10, 0, 0, 1));
    let callee = format!("sip:callee-{callee}@lab");
    let mut req = RequestBuilder::new(Method::Invite, callee.parse().unwrap());
    req.from(NameAddr::new(format!("sip:caller-{caller}@lab").parse().unwrap()).with_tag("t"))
        .to(NameAddr::new(callee.parse().unwrap()))
        .call_id(format!("pop-{n}@lab"))
        .cseq(CSeq::new(1, Method::Invite))
        .via(Via::udp("10.0.0.40:5060", format!("z9hG4bK-pop-{n}")));
    let invite = req.build();
    let ok = response_to(&invite, StatusCode::OK, Some("r"));
    [
        (at, sip_frame(a, b, &invite)),
        (at + SimDuration::from_millis(10), sip_frame(b, a, &ok)),
    ]
}

/// The sorted `(rule, severity, message)` of every rapid-connect alert.
fn rapid_verdicts(alerts: &[Alert]) -> Vec<(String, Severity, String)> {
    let mut verdicts: Vec<_> = alerts
        .iter()
        .filter(|a| a.rule == "rapid-connect")
        .map(|a| (a.rule.clone(), a.severity, a.message.clone()))
        .collect();
    verdicts.sort();
    verdicts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the caller population, call spacing and shard count,
    /// the sharded pipeline reaches the single engine's rapid-connect
    /// verdicts — same callers, same counts in the message — because
    /// the fold plane replays the same observations through the same
    /// table in the same order. (Only time and session may differ.)
    #[test]
    fn sharded_rapid_connect_verdicts_equal_the_single_engines(
        calls in proptest::collection::vec((0u8..6, 0u8..12, 50u64..1_500), 20..160),
        shards in 1usize..8,
        exact in any::<bool>(),
    ) {
        let mut at = SimTime::ZERO;
        let mut frames = Vec::new();
        for (n, &(caller, callee, gap_ms)) in calls.iter().enumerate() {
            at += SimDuration::from_millis(gap_ms);
            frames.extend(established_call(caller, callee, n, at));
        }
        frames.sort_by_key(|f| f.0);
        let config = ScidiveConfig { exact_rate_state: exact, ..ScidiveConfig::default() };
        let mut single = Scidive::new(config.clone());
        let mut sharded = ShardedScidive::new(config, shards, 64);
        for (t, p) in &frames {
            single.on_frame(*t, p);
            sharded.submit(*t, p);
        }
        let report = sharded.finish();
        prop_assert_eq!(report.observation.dispatch.fold_evicted, 0);
        prop_assert_eq!(rapid_verdicts(&report.alerts), rapid_verdicts(single.alerts()));
    }

    /// Reported quantiles are ordered and never exceed the reported
    /// maximum, for any samples and across merges.
    #[test]
    fn histogram_quantiles_are_ordered_and_bounded_by_max(
        left in proptest::collection::vec(0u64..20_000, 0..60),
        right in proptest::collection::vec(0u64..20_000, 1..60),
    ) {
        use scidive_core::observe::{Histogram, DETECTION_DELAY_BUCKETS_MS};
        let mut h = Histogram::new(&DETECTION_DELAY_BUCKETS_MS);
        let mut other = h.clone();
        left.iter().for_each(|&v| h.record(v));
        right.iter().for_each(|&v| other.record(v));
        for _ in 0..2 {
            let (p50, p95, p99) = (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
            prop_assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max, "{p50} {p95} {p99} {}", h.max);
            h.merge(&other);
        }
    }
}

// ----------------------------------------------------------------------
// Differential parsing: the SWAR fast path vs the retained reference
// ----------------------------------------------------------------------

/// Header names mixing the interned well-knowns, compact forms, unknown
/// extensions, and near-miss spellings that must all take the same
/// interning decisions on both parser paths.
fn header_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("Via".to_string()),
        Just("v".to_string()),
        Just("From".to_string()),
        Just("TO".to_string()),
        Just("Call-ID".to_string()),
        Just("CSeq".to_string()),
        Just("Content-Length".to_string()),
        Just("X-Custom-Header".to_string()),
        Just("Vial".to_string()),
        "[A-Za-z][A-Za-z0-9-]{0,24}",
    ]
}

/// Header values of many lengths: the empty value, short values,
/// values of 30-45 and 55-70 bytes, and long ones past 90 bytes.
/// Interior whitespace and non-ASCII exercise the trim paths.
fn header_value() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ -~]{1,20}",
        "[ -~]{30,45}",
        "[ -~]{55,70}",
        "[ -~]{90,140}",
        "[a-z]{3} {1,3}[a-z]{3}",
        Just("café \u{2603} value".to_string()),
    ]
}

/// One header line with adversarial framing: CRLF or bare-LF
/// termination, optional whitespace padding around the colon, optional
/// folded continuation line, or a torn line with no colon at all.
fn header_line() -> impl Strategy<Value = String> {
    (
        header_name(),
        header_value(),
        any::<bool>(), // bare LF instead of CRLF
        any::<bool>(), // pad around the colon
        0u8..4,              // 1-3: append a folded continuation
    )
        .prop_map(|(name, value, bare_lf, pad, fold)| {
            let eol = if bare_lf { "\n" } else { "\r\n" };
            let colon = if pad { " : " } else { ":" };
            let mut line = format!("{name}{colon}{value}{eol}");
            match fold {
                1 => line.push_str(&format!(" folded continuation{eol}")),
                2 => line.push_str(&format!("\tfolded\ttab{eol}")),
                3 => line.push_str(&format!("   {eol}")), // fold to nothing
                _ => {}
            }
            line
        })
}

fn start_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("INVITE sip:bob@lab SIP/2.0\r\n".to_string()),
        Just("REGISTER sip:lab;transport=udp SIP/2.0\r\n".to_string()),
        Just("OPTIONS sip:a@b:5060 SIP/2.0\n".to_string()),
        Just("SIP/2.0 200 OK\r\n".to_string()),
        Just("SIP/2.0 401 Unauthorized Here\r\n".to_string()),
        Just("SIP/2.0 180\r\n".to_string()),
        Just("BANANA sip:x SIP/2.0\r\n".to_string()),
        Just("INVITE\r\n".to_string()),
        // Request URIs at the edges of the URI grammar: the view's
        // start-line decision must stay the owned parse's.
        Just("INVITE sip: SIP/2.0\r\n".to_string()),
        Just("INVITE sip:@ SIP/2.0\r\n".to_string()),
        Just("INVITE sips:a@h SIP/2.0\r\n".to_string()),
        Just("BYE sip:a@h:99999 SIP/2.0\r\n".to_string()),
        Just("MESSAGE sip:a@h:+5 SIP/2.0\r\n".to_string()),
        Just("INVITE sip:h;lr SIP/2.0\r\n".to_string()),
        Just("INVITE sip:a@h:5060;transport=udp SIP/2.0\r\n".to_string()),
        "[ -~]{0,30}\r\n",
    ]
}

/// Assembles a SIP-shaped byte string, then optionally tears it: an
/// arbitrary truncation offset and an arbitrary single-byte stomp.
fn sip_like_input() -> impl Strategy<Value = Vec<u8>> {
    (
        start_line(),
        proptest::collection::vec(header_line(), 0..12),
        any::<bool>(), // terminate with bare LF-LF
        proptest::collection::vec(any::<u8>(), 0..40), // body
        any::<u16>(), // truncation selector
        proptest::option::of((any::<u16>(), any::<u8>())), // byte stomp
    )
        .prop_map(|(start, headers, bare_end, body, cut, stomp)| {
            let mut text = start;
            for h in headers {
                text.push_str(&h);
            }
            text.push_str(if bare_end { "\n" } else { "\r\n" });
            let mut bytes = text.into_bytes();
            bytes.extend_from_slice(&body);
            if let Some((at, val)) = stomp {
                if !bytes.is_empty() {
                    let at = at as usize % bytes.len();
                    bytes[at] = val;
                }
            }
            // cut == u16::MAX keeps the full message more often than a
            // uniform cut would.
            let cut = cut as usize;
            if cut < bytes.len() {
                bytes.truncate(cut);
            }
            bytes
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The fast parser and the retained reference parser are
    /// observationally identical over adversarial SIP-shaped inputs:
    /// same accept/reject decision, same error, and the same parsed
    /// message.
    #[test]
    fn fast_sip_parser_matches_reference(input in sip_like_input()) {
        let bytes = bytes::Bytes::from(input);
        let fast = SipMessage::parse_bytes(bytes.clone());
        let reference = SipMessage::parse_bytes_reference(bytes.clone());
        prop_assert_eq!(&fast, &reference, "diverged on {:?}", bytes);
        // And both survive the sniffer disagreeing-free.
        prop_assert_eq!(
            scidive_sip::parse::looks_like_sip(&bytes),
            scidive_sip::parse::looks_like_sip_reference(&bytes)
        );
    }

    /// Pure byte soup (no SIP shape at all) must also never split the
    /// two parsers — most of it is rejected, and rejection reasons
    /// must match.
    #[test]
    fn parser_paths_agree_on_byte_soup(soup in proptest::collection::vec(any::<u8>(), 0..256)) {
        let bytes = bytes::Bytes::from(soup);
        let fast = SipMessage::parse_bytes(bytes.clone());
        let reference = SipMessage::parse_bytes_reference(bytes.clone());
        prop_assert_eq!(&fast, &reference, "diverged on {:?}", bytes);
    }
}

// ----------------------------------------------------------------------
// The SIP footprint: `parse_bytes`, the accessor parsers and
// `format_violations` are its oracles
// ----------------------------------------------------------------------

use scidive_core::footprint::{SipFootprint, SipTextError};

/// The footprint read off `bytes` is refused exactly when `parse_bytes`
/// refuses them, with its error; otherwise its message is the parsed
/// one and every accessor equals the allocating accessor it replaced.
fn check_footprint_against_oracles(bytes: Bytes) {
    let (msg, fp) = match (
        SipMessage::parse_bytes(bytes.clone()),
        SipFootprint::parse(bytes.clone()),
    ) {
        (Err(parsed), Err(read)) => {
            prop_assert_eq!(SipTextError::Parse(parsed), read, "on {:?}", bytes);
            return;
        }
        (Ok(msg), Ok(fp)) => (msg, fp),
        (parsed, read) => panic!("{parsed:?} against {read:?} on {bytes:?}"),
    };
    prop_assert_eq!(&fp.message(), &msg, "message of {:?}", bytes);
    let violations = msg.format_violations();
    prop_assert_eq!(
        fp.is_clean(),
        violations.is_empty(),
        "{:?} on {}",
        violations,
        msg
    );
    prop_assert_eq!(fp.method(), msg.method(), "method of {}", msg);
    prop_assert_eq!(fp.status(), msg.status(), "status of {}", msg);
    prop_assert_eq!(fp.is_request(), msg.is_request(), "start of {}", msg);
    prop_assert_eq!(fp.call_id(), msg.call_id().ok(), "Call-ID of {}", msg);
    let from = msg.from_().ok().map(|f| f.uri.aor());
    let to = msg.to().ok().map(|t| t.uri.aor());
    prop_assert_eq!(fp.from_aor(), from.as_deref(), "From of {}", msg);
    prop_assert_eq!(fp.to_aor(), to.as_deref(), "To of {}", msg);
    prop_assert_eq!(
        fp.authorization(),
        msg.headers.get(&HeaderName::Authorization),
        "Authorization of {}",
        msg
    );
    prop_assert_eq!(fp.cseq(), msg.cseq().ok(), "CSeq of {}", msg);
    let sdp = match msg.content_type() {
        Some("application/sdp") => std::str::from_utf8(&msg.body)
            .ok()
            .and_then(|text| text.parse::<SessionDescription>().ok())
            .and_then(|sdp| sdp.rtp_target()),
        _ => None,
    };
    prop_assert_eq!(fp.rtp_target(), sdp, "SDP of {}", msg);
}

/// The violation text the IDS renders off a message's text without
/// building the message is `format_violations` of the parsed message:
/// on the wire bytes, which may fold, and on the footprint's text.
fn check_violations_against_oracle(bytes: Bytes) {
    let parsed = SipMessage::parse_bytes(bytes.clone());
    prop_assert_eq!(
        SipView::format_violations(&bytes),
        parsed.as_ref().map(SipMessage::format_violations).map_err(Clone::clone),
        "on {:?}",
        bytes
    );
    if let (Ok(msg), Ok(fp)) = (&parsed, SipFootprint::parse(bytes)) {
        prop_assert_eq!(fp.format_violations(), msg.format_violations(), "on {}", msg);
    }
}

/// A From/To value at and around the `name-addr` grammar's edges:
/// quoted, token and unterminated display names; `<` with and without
/// `>`; wrong schemes; empty users and hosts; ports valid, out of range,
/// signed and non-numeric; URI and header parameters; padding, including
/// the whitespace a byte scanner can get wrong (VT, which `trim_ascii`
/// keeps, and Unicode NBSP, EM SPACE and NEL).
fn name_addr_value() -> impl Strategy<Value = String> {
    let display = prop_oneof![
        Just(""),
        Just("\"Alice W\" "),
        Just("\"q\""),
        Just("Bob "),
        Just("\"unterminated "),
        Just("\x0B"),
        Just("\x0B\"unterminated "),
        Just("\u{A0}"),
        Just("\"q\"\u{2003}"),
        Just("Bob\u{85}"),
    ];
    let scheme = prop_oneof![Just("sip:"), Just("sip:"), Just("sips:"), Just("http://")];
    let user = prop_oneof![
        Just(String::new()),
        Just("alice@".to_string()),
        Just("@".to_string()),
        "[a-z0-9.]{1,8}@",
    ];
    let host = prop_oneof![
        Just(String::new()),
        Just("lab".to_string()),
        Just("10.0.0.7".to_string()),
        "[a-z]{1,6}\\.[a-z]{2,3}",
    ];
    let port = prop_oneof![
        Just(""),
        Just(""),
        Just(":5060"),
        Just(":99999"),
        Just(":+5"),
        Just(":x"),
        Just(":"),
    ];
    let uri_params = prop_oneof![Just(""), Just(";lr"), Just(";transport=udp;x=>")];
    let brackets = 0u8..4; // 0: addr-spec, 1: <...>, 2: < without >, 3: > only
    let tail = prop_oneof![
        Just(""),
        Just(";tag=a1"),
        Just(" ;tag=b2;x"),
        Just(" "),
        Just(">"),
        Just("\x0B"),
        Just("\x0B;tag=a1"),
        Just("\u{A0}"),
        Just("\u{2003};tag=a1"),
        Just("\u{85}"),
    ];
    (
        display, scheme, user, host, port, uri_params, brackets, tail,
    )
        .prop_map(
            |(display, scheme, user, host, port, params, brackets, tail)| {
                let uri = format!("{scheme}{user}{host}{port}{params}");
                match brackets {
                    0 => format!("{display}{uri}{tail}"),
                    1 => format!("{display}<{uri}>{tail}"),
                    2 => format!("{display}<{uri}{tail}"),
                    _ => format!("{display}{uri}>{tail}"),
                }
            },
        )
}

fn via_value() -> impl Strategy<Value = String> {
    let prefix = prop_oneof![
        Just("SIP/2.0/"),
        Just("SIP/2.0/"),
        Just("SIP/2.0"),
        Just(" SIP/2.0/"),
        Just("\x0BSIP/2.0/"),
        Just("\u{A0}SIP/2.0/"),
    ];
    let sent_by = prop_oneof![
        Just("10.0.0.9:5060"),
        Just(""),
        Just("  "),
        Just("h"),
        Just("\x0B"),
        Just("\u{A0}"),
        Just("\u{2003}"),
        Just("\u{85}"),
    ];
    (
        prefix,
        prop_oneof![Just("UDP "), Just("UDP"), Just("TCP  ")],
        sent_by,
        any::<bool>(),
    )
        .prop_map(|(prefix, transport, sent_by, branch)| {
            let branch = if branch { ";branch=z9hG4bK-1" } else { "" };
            format!("{prefix}{transport}{sent_by}{branch}")
        })
}

fn cseq_value() -> impl Strategy<Value = String> {
    let seq = prop_oneof![
        Just("1".to_string()),
        Just("4294967296".to_string()),
        Just("x".to_string()),
        Just(String::new()),
        "[0-9]{1,5}",
    ];
    let method = prop_oneof![
        Just(" INVITE"),
        Just(" BYE"),
        Just(" REGISTER"),
        Just(" MESSAGE"),
        Just(" NOPE"),
        Just(""),
        Just(" INVITE extra"),
        Just("\x0BINVITE"),
        Just("\x0BBYE\x0B"),
        Just("\u{A0}INVITE"),
        Just(" INVITE\u{2003}"),
        Just("\u{85}BYE"),
    ];
    (seq, method).prop_map(|(seq, method)| format!("{seq}{method}"))
}

/// An SDP body: a well-formed offer, one without audio, one with the
/// connection or origin missing, or a broken line; or an offer whose
/// fields are separated or padded by VT or Unicode whitespace.
fn sdp_body() -> impl Strategy<Value = String> {
    let offer = SessionDescription::audio_offer("alice", Ipv4Addr::new(10, 0, 0, 2), 8000);
    let mut silent = offer.clone();
    silent.media[0].media = "video".to_string();
    prop_oneof![
        Just(offer.to_string()),
        Just(offer.to_string()),
        Just(
            offer
                .retargeted(Ipv4Addr::new(10, 0, 0, 66), 7000)
                .to_string()
        ),
        Just(silent.to_string()),
        Just(offer.to_string().replace("c=IN IP4", "c=IN IP6")),
        Just(offer.to_string().replace("o=", "x=")),
        Just(offer.to_string().replace("8000", "80000")),
        Just(format!(
            "{offer}m=audio 9 RTP/AVP 0\r\nc=IN IP4 10.0.0.9\r\n"
        )),
        Just("v=0\r\n".to_string()),
        Just(offer.to_string().replace(' ', "\x0B")),
        Just(offer.to_string().replace("v=0", "v=0\x0B")),
        Just(offer.to_string().replace("IN IP4 ", "IN IP4\u{A0}")),
        Just(offer.to_string().replace("v=0", "v=0\u{2003}")),
        Just(offer.to_string().replace("m=audio ", "m=audio\u{85}")),
    ]
}

/// How a mandatory header is set: the builder's well-formed value,
/// removed, replaced by a generated value, or duplicated with a
/// generated value after the well-formed one (only the first counts).
#[derive(Debug, Clone)]
enum HeaderEdit {
    Keep,
    Remove,
    Replace(String),
    Append(String),
}

fn header_edit<S: Strategy<Value = String> + 'static>(
    value: fn() -> S,
) -> impl Strategy<Value = HeaderEdit> {
    // The vendored `prop_oneof!` ignores weights: repeated arms bias the
    // draw towards kept (well-formed) headers.
    prop_oneof![
        Just(HeaderEdit::Keep),
        Just(HeaderEdit::Keep),
        Just(HeaderEdit::Keep),
        Just(HeaderEdit::Keep),
        Just(HeaderEdit::Remove),
        value().prop_map(HeaderEdit::Replace),
        value().prop_map(HeaderEdit::Replace),
        Just(HeaderEdit::Append("<sip:second@lab>".to_string())),
    ]
}

/// A builder-made INVITE, 200, BYE, REGISTER or MESSAGE (plus ACK and
/// CANCEL, which the CSeq rule exempts, and a 401), with or without an
/// SDP body, whose mandatory headers are then kept, removed, replaced
/// or duplicated.
fn built_sip_message() -> impl Strategy<Value = SipMessage> {
    let kind = 0u8..8;
    let edits = (
        header_edit(name_addr_value),
        header_edit(name_addr_value),
        header_edit(cseq_value),
        header_edit(via_value),
        (0u8..5).prop_map(|n| n > 0), // Call-ID kept
        (0u8..5).prop_map(|n| n > 0), // Max-Forwards kept
    );
    let body = proptest::option::of((
        prop_oneof![
            Just("application/sdp"),
            Just("application/sdp"),
            Just("application/SDP"),
            Just("text/plain"),
        ],
        sdp_body(),
    ));
    (kind, edits, body).prop_map(|(kind, edits, body)| {
        let method = match kind {
            0 | 5 | 7 => Method::Invite,
            1 => Method::Bye,
            2 | 6 => Method::Register,
            3 => Method::Message,
            _ => [Method::Ack, Method::Cancel][usize::from(kind) % 2],
        };
        let alice: scidive_sip::uri::SipUri = "sip:alice@10.0.0.2:5060".parse().unwrap();
        let mut b = RequestBuilder::new(method, "sip:bob@lab".parse().unwrap());
        b.from(NameAddr::new(alice).with_display("Alice").with_tag("a1"))
            .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
            .call_id("view-1@10.0.0.2")
            .cseq(CSeq::new(7, method))
            .via(Via::udp("10.0.0.2:5060", "z9hG4bK-v"));
        let mut msg = b.build();
        if kind == 5 {
            msg = response_to(&msg, StatusCode::OK, Some("b1"));
        } else if kind == 6 {
            msg = response_to(&msg, StatusCode::UNAUTHORIZED, None);
        }
        let (from, to, cseq, via, call_id, max_forwards) = edits;
        for (name, edit) in [
            (HeaderName::From, from),
            (HeaderName::To, to),
            (HeaderName::CSeq, cseq),
            (HeaderName::Via, via),
        ] {
            match edit {
                HeaderEdit::Keep => {}
                HeaderEdit::Remove => {
                    msg.headers.remove(&name);
                }
                HeaderEdit::Replace(value) => msg.headers.set(name, value),
                HeaderEdit::Append(value) => msg.headers.push(name, value),
            }
        }
        if !call_id {
            msg.headers.remove(&HeaderName::CallId);
        }
        if !max_forwards {
            msg.headers.remove(&HeaderName::MaxForwards);
        }
        if let Some((content_type, sdp)) = body {
            msg.headers.set(HeaderName::ContentType, content_type);
            msg.body = Bytes::from(sdp);
        }
        msg
    })
}

/// A dialog header line as a peer may send it: long, compact or
/// odd-case name; a name-addr, Via, CSeq, digest or arbitrary value,
/// padded with SP, VT or NBSP; and sometimes folded at any character
/// boundary of the value, continuation indent included.
fn dialog_header_line() -> impl Strategy<Value = String> {
    let name = prop_oneof![
        Just("Call-ID"),
        Just("i"),
        Just("CALL-ID"),
        Just("From"),
        Just("f"),
        Just("To"),
        Just("t"),
        Just("Authorization"),
        Just("CSeq"),
        Just("Via"),
        Just("v"),
        Just("Max-Forwards"),
    ];
    let value = prop_oneof![
        name_addr_value(),
        via_value(),
        cseq_value(),
        Just("Digest username=\"u\", realm=\"lab\", response=\"r1\"".to_string()),
        "[ -~]{0,24}",
    ];
    let pad = || prop_oneof![Just(""), Just(""), Just(" "), Just("\x0B"), Just("\u{A0}")];
    let fold = prop_oneof![
        Just(None),
        Just(None),
        Just(Some("\r\n ")),
        Just(Some("\n\t")),
        Just(Some("\r\n \u{A0}")),
        Just(Some("\r\n\n\t")),
    ];
    (name, value, pad(), pad(), fold, any::<u8>()).prop_map(
        |(name, value, lead, trail, fold, at)| {
            let mut value = format!("{lead}{value}{trail}");
            if let Some(fold) = fold {
                let mut at = usize::from(at) % (value.len() + 1);
                while !value.is_char_boundary(at) {
                    at -= 1;
                }
                value.insert_str(at, fold);
            }
            format!("{name}:{value}\r\n")
        },
    )
}

/// A SIP message whose dialog headers are drawn, repeated (the first
/// counts) and folded by [`dialog_header_line`], with or without an
/// SDP body.
fn dialog_wire_input() -> impl Strategy<Value = Vec<u8>> {
    (
        start_line(),
        proptest::collection::vec(dialog_header_line(), 0..10),
        proptest::option::of(sdp_body()),
    )
        .prop_map(|(start, headers, sdp)| {
            let mut text = start;
            for h in headers {
                text.push_str(&h);
            }
            if let Some(sdp) = &sdp {
                text.push_str("Content-Type: application/sdp\r\n");
                text.push_str(&format!("Content-Length: {}\r\n", sdp.len()));
            }
            text.push_str("\r\n");
            text.push_str(sdp.as_deref().unwrap_or(""));
            text.into_bytes()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On the adversarial wire generator (torn lines, folds, stomped
    /// bytes), every footprint accessor equals its oracle.
    #[test]
    fn sip_footprint_matches_the_oracles_on_wire_input(input in sip_like_input()) {
        check_footprint_against_oracles(Bytes::from(input));
    }

    /// On folded, compact, repeated and VT- or NBSP-padded dialog
    /// headers, every footprint accessor equals its oracle.
    #[test]
    fn sip_footprint_matches_the_oracles_on_dialog_headers(input in dialog_wire_input()) {
        check_footprint_against_oracles(Bytes::from(input));
    }

    /// On builder-made messages with edited headers and SDP bodies,
    /// which enter as their wire text, every footprint accessor equals
    /// its oracle.
    #[test]
    fn sip_footprint_matches_the_oracles_on_built_messages(msg in built_sip_message()) {
        check_footprint_against_oracles(msg.to_bytes());
    }

    #[test]
    fn sip_footprint_matches_the_oracles_on_byte_soup(soup in proptest::collection::vec(any::<u8>(), 0..256)) {
        check_footprint_against_oracles(Bytes::from(soup));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Unclean messages are the point of these generators: missing,
    /// repeated, folded and malformed dialog headers, torn start lines.
    #[test]
    fn sip_violation_text_matches_the_message_on_wire_input(input in sip_like_input()) {
        check_violations_against_oracle(Bytes::from(input));
    }

    #[test]
    fn sip_violation_text_matches_the_message_on_dialog_headers(input in dialog_wire_input()) {
        check_violations_against_oracle(Bytes::from(input));
    }

    #[test]
    fn sip_violation_text_matches_the_message_on_built_messages(msg in built_sip_message()) {
        check_violations_against_oracle(msg.to_bytes());
    }
}

// ----------------------------------------------------------------------
// The rule DSL: derived interests are sound, printing is a fixed point
// ----------------------------------------------------------------------

use scidive_core::rules::dsl::ast::Clause;
use scidive_core::rules::dsl::{compile_program, print_program, threshold_specs};
use scidive_core::rules::Program;
use std::collections::HashSet;

fn dsl_class() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(
        EventClass::ALL.iter().map(|c| c.name()).collect::<Vec<_>>(),
    )
}

/// An `any-of` class spec, sometimes narrowed by well-typed predicates.
fn any_of_spec() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => dsl_class().prop_map(str::to_string),
        1 => Just("RtpSeqViolation(delta >= 5000)".to_string()),
        1 => Just("CallEstablished(caller == \"alice@lab\")".to_string()),
        1 => Just("CallEstablished(caller contains \"@lab\", callee != \"x\")".to_string()),
        1 => Just("CallTornDown(by_media_ip == \"10.0.0.1\")".to_string()),
    ]
}

/// A `threshold` clause drawn from text-keyed classes, with optional
/// distinct term and emit template.
fn threshold_body() -> impl Strategy<Value = String> {
    (
        proptest::sample::select(vec![
            ("CallEstablished", "caller", "callee"),
            ("ImObserved", "claimed_aor", "call_id"),
            ("AcctMismatch", "billed", "call_id"),
            ("PasswordGuessing", "username", "src"),
        ]),
        1u32..=30,
        proptest::option::of(1u32..=64),
        proptest::sample::select(vec!["500ms", "2s", "60s"]),
        proptest::option::of(proptest::sample::select(vec![
            "caller {key} hit {count} in {window}s",
            "{key}: {count}/{distinct}",
            "plain text",
        ])),
    )
        .prop_map(|((class, key, dfield), count, distinct, within, emit)| {
            let mut s = format!("threshold {class} by {key} count >= {count}");
            if let Some(d) = distinct {
                s += &format!(" distinct {dfield} >= {d}");
            }
            s += &format!(" within {within}");
            if let Some(e) = emit {
                s += &format!(" emit \"{e}\"");
            }
            s
        })
}

fn rule_clause() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(dsl_class(), 1..4)
            .prop_map(|cs| format!("sequence {}", cs.join(", "))),
        proptest::collection::vec(dsl_class(), 1..4)
            .prop_map(|cs| format!("all-of {}", cs.join(", "))),
        proptest::collection::vec(any_of_spec(), 1..3)
            .prop_map(|cs| format!("any-of {}", cs.join(", "))),
        threshold_body(),
    ]
}

/// A random well-formed program: unique rule ids, valid classes and
/// fields, windows only on the clause kinds that read them.
fn program_src() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (
            rule_clause(),
            proptest::option::of(proptest::sample::select(vec![
                "info", "warning", "critical",
            ])),
            proptest::option::of(proptest::sample::select(vec!["500ms", "2s", "90s"])),
            proptest::option::of(proptest::sample::select(vec![
                "media after teardown",
                "caller {key} fans out",
                "x",
            ])),
            any::<bool>(),
            any::<bool>(),
        ),
        1..5,
    )
    .prop_map(|rules| {
        let mut src = String::new();
        for (i, (clause, severity, window, description, cross, stateful)) in
            rules.iter().enumerate()
        {
            src += &format!("rule r{i}");
            // Header items come in any order; the printer normalises it.
            if *stateful {
                src += " stateful";
            }
            if let Some(d) = description {
                src += &format!(" description \"{d}\"");
            }
            if let Some(s) = severity {
                src += &format!(" severity {s}");
            }
            if *cross {
                src += " cross-protocol";
            }
            // `window` only matters (and prints) on sequence / all-of;
            // elsewhere it would draw a --deny-warnings diagnostic.
            if window.is_some()
                && (clause.starts_with("sequence") || clause.starts_with("all-of"))
            {
                src += &format!(" window {}", window.unwrap());
            }
            src += &format!(" {{ {clause} }}\n");
        }
        src
    })
}

/// The classes a clause names on its surface — the spec the derived
/// `RuleInterest` must match exactly.
fn named_classes(clause: &Clause) -> HashSet<EventClass> {
    match clause {
        Clause::Sequence(specs) | Clause::AllOf(specs) | Clause::AnyOf(specs) => specs
            .iter()
            .map(|s| EventClass::parse_name(&s.class.node).expect("validated class"))
            .collect(),
        Clause::Threshold(t) => {
            std::iter::once(EventClass::parse_name(&t.class.node).expect("validated class"))
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Derived-interest soundness: for every rule of every fuzzed
    /// program, the compiled `RuleInterest` admits exactly the event
    /// classes the clause names — nothing leaks in (wasted dispatch),
    /// nothing is dropped (missed events).
    #[test]
    fn dsl_interests_are_exactly_the_named_classes(src in program_src()) {
        let program = Program::parse(&src).expect("generated program is valid");
        let rules = compile_program(&program);
        prop_assert_eq!(rules.len(), program.rules.len());
        for (decl, rule) in program.rules.iter().zip(&rules) {
            prop_assert_eq!(rule.id(), decl.id.node.as_str());
            let named = named_classes(&decl.clause);
            let interests = rule.interests();
            for class in EventClass::ALL {
                prop_assert_eq!(
                    interests.contains(class),
                    named.contains(&class),
                    "rule `{}`: interest for {:?} diverges from the clause ({})",
                    decl.id.node, class, src
                );
            }
        }
    }

    /// `parse → print → parse → print` is a fixed point, and printing
    /// preserves semantics: the reprinted program compiles to rules with
    /// the same ids and interests and to identical threshold specs.
    #[test]
    fn dsl_print_is_a_semantic_fixed_point(src in program_src()) {
        let p1 = Program::parse(&src).expect("generated program is valid");
        let s1 = print_program(&p1);
        let p2 = Program::parse(&s1).expect("printed program re-parses");
        let s2 = print_program(&p2);
        prop_assert_eq!(&s1, &s2, "printer is not a fixed point over reparse");

        let r1 = compile_program(&p1);
        let r2 = compile_program(&p2);
        prop_assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            prop_assert_eq!(a.id(), b.id());
            prop_assert_eq!(a.description(), b.description());
            prop_assert_eq!(a.is_cross_protocol(), b.is_cross_protocol());
            prop_assert_eq!(a.is_stateful(), b.is_stateful());
            for class in EventClass::ALL {
                prop_assert_eq!(a.interests().contains(class), b.interests().contains(class));
            }
        }
        prop_assert_eq!(threshold_specs(&p1), threshold_specs(&p2));
    }
}
