//! Chaos robustness: a node spraying random bytes at every port of every
//! host while a call proceeds. Nothing may panic, the call must
//! complete, and the IDS must keep its accounting straight.

use rand::RngCore;
use scidive::prelude::*;
use std::any::Any;

/// Sprays random UDP at random hosts/ports every few ms.
struct ChaosMonkey {
    targets: Vec<std::net::Ipv4Addr>,
    shots: u32,
    max_shots: u32,
}

impl Node for ChaosMonkey {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(600), 1);
    }
    fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: IpPacket) {}
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _token: u64) {
        if self.shots >= self.max_shots {
            return;
        }
        self.shots += 1;
        let target = self.targets[(ctx.rng().range(0, self.targets.len() as u64)) as usize];
        let port = ctx.rng().range(1, 65535) as u16;
        let len = ctx.rng().range(0, 300) as usize;
        let mut payload = vec![0u8; len];
        ctx.rng().fill_bytes(&mut payload);
        ctx.send_udp(4999, target, port, payload);
        ctx.set_timer(SimDuration::from_millis(5), 1);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Leak plateau: run chaos-shaped traffic long enough to cross the
/// trail idle timeout and check — via the observability gauges — that
/// every piece of per-session state (trails, media index, interner,
/// memoized synthetic keys) levels off instead of growing monotonically.
#[test]
fn state_gauges_plateau_across_idle_expiry() {
    let chaos_ip = std::net::Ipv4Addr::new(10, 0, 0, 99);
    let caller_ip = std::net::Ipv4Addr::new(10, 0, 0, 2);
    let target_ip = std::net::Ipv4Addr::new(10, 0, 0, 1);

    // One burst of mixed traffic starting at `base` (ms): two calls
    // with SDP (media index + interner), RTP to the negotiated and to
    // 40 unannounced ports (synthetic flow keys), plus anonymous SIP.
    let burst = |ids: &mut Scidive, base: u64| {
        for call in 0..2u16 {
            let media_port = 8_000 + call * 2;
            let sdp = SessionDescription::audio_offer("alice", caller_ip, media_port);
            let mut b = RequestBuilder::new(Method::Invite, "sip:b@lab".parse().unwrap());
            b.from(NameAddr::new("sip:a@lab".parse().unwrap()).with_tag("t"))
                .to(NameAddr::new("sip:b@lab".parse().unwrap()))
                .call_id(format!("chaos-{base}-{call}"))
                .cseq(CSeq::new(1, Method::Invite))
                .via(Via::udp("10.0.0.2:5060", "z9hG4bK-x"))
                .body("application/sdp", sdp.to_string());
            let invite = b.build().to_bytes();
            ids.on_frame(
                SimTime::from_millis(base + u64::from(call)),
                &IpPacket::udp(caller_ip, 5060, target_ip, 5060, invite.as_ref()),
            );
        }
        for i in 0..120u64 {
            let t = SimTime::from_millis(base + 10 + i * 5);
            // RTP-shaped garbage to rotating unannounced ports.
            let rtp = [0x80u8, 96, 0, (i & 0xff) as u8, 0, 0, 0, 1, 0, 0, 0, 2];
            let port = 20_000 + (i % 40) as u16;
            ids.on_frame(
                t,
                &IpPacket::udp(chaos_ip, 4_999, target_ip, port, rtp.as_ref()),
            );
            // And to a negotiated sink, keeping the learned mapping warm.
            ids.on_frame(
                t,
                &IpPacket::udp(chaos_ip, 4_999, caller_ip, 8_000, rtp.as_ref()),
            );
        }
    };

    let mut config = ScidiveConfig::default();
    config.trails.idle_timeout = SimDuration::from_secs(2);
    config.events.session_timeout = SimDuration::from_secs(2);
    let mut ids = Scidive::new(config);

    burst(&mut ids, 0); // ends ~0.6s
    let first = ids.gauges();
    assert!(first.trails > 0 && first.media_index > 0 && first.interner > 0);
    assert!(first.synthetic_keys > 0);
    assert!(first.rule_state > 0, "rules hold per-session state");
    assert!(first.session_plane > 0, "dialog machines hold session state");

    // Cross the idle timeout several times over, then repeat the same
    // shape of traffic twice more.
    burst(&mut ids, 10_000);
    burst(&mut ids, 20_000);
    let later = ids.gauges();

    // Plateau: a steady-state burst leaves no more state behind than
    // the first one did — nothing accumulates across idle periods.
    assert!(
        later.trails <= first.trails,
        "trail count grew: {} -> {}",
        first.trails,
        later.trails
    );
    assert!(
        later.media_index <= first.media_index,
        "media index grew: {} -> {}",
        first.media_index,
        later.media_index
    );
    assert!(
        later.interner <= first.interner,
        "interner grew: {} -> {}",
        first.interner,
        later.interner
    );
    assert!(
        later.synthetic_keys <= first.synthetic_keys,
        "synthetic key memos grew: {} -> {}",
        first.synthetic_keys,
        later.synthetic_keys
    );
    assert!(
        later.rule_state <= first.rule_state,
        "rule session state grew: {} -> {}",
        first.rule_state,
        later.rule_state
    );
    assert!(
        later.session_plane <= first.session_plane,
        "session-plane dialog state grew: {} -> {}",
        first.session_plane,
        later.session_plane
    );
    // And the lifecycle counters prove expiry actually ran.
    assert!(later.expired_trails > 0);
    assert_eq!(later.trails_evicted, 0, "far under the live-trail cap");
    assert!(later.media_expired > 0);
    assert!(later.synthetic_expired > 0);
    assert!(later.interner_expired > 0);
    assert!(later.rule_state_expired > 0, "rule state never expired");
    assert!(
        later.session_plane_expired > 0,
        "session-plane state never expired"
    );
    assert_eq!(later.evicted_entries, 0, "far under every store's cap");
}

#[test]
fn call_and_ids_survive_random_byte_spray() {
    for seed in [901u64, 902, 903] {
        let mut tb = TestbedBuilder::new(seed)
            .standard_call(
                SimDuration::from_millis(500),
                Some(SimDuration::from_secs(4)),
            )
            .build();
        let ep = tb.endpoints.clone();
        let mut config = ScidiveConfig::default();
        config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
        let ids = tb.add_node(
            "ids",
            ep.tap_ip,
            LinkParams::lan(),
            Box::new(IdsNode::new(config)),
        );
        tb.add_node(
            "chaos",
            std::net::Ipv4Addr::new(10, 0, 0, 99),
            LinkParams::lan(),
            Box::new(ChaosMonkey {
                targets: vec![ep.proxy_ip, ep.a_ip, ep.b_ip, ep.acct_ip],
                shots: 0,
                max_shots: 400,
            }),
        );
        tb.run_for(SimDuration::from_secs(6));

        // The call completed despite the noise.
        assert!(
            tb.a_events()
                .iter()
                .any(|e| matches!(e.kind, UaEventKind::CallEstablished { .. })),
            "seed {seed}: call failed under chaos"
        );
        assert_eq!(tb.cdrs().len(), 1);
        // The IDS processed everything without losing count.
        let engine = tb.sim.node_as::<IdsNode>(ids).unwrap().ids();
        let stats = engine.stats();
        assert!(stats.frames > 400);
        assert_eq!(stats.alerts as usize, engine.alerts().len());
        // Any critical alerts must be media-plane complaints about the
        // garbage (rtp-attack is legitimate here: random bytes DID hit
        // negotiated media ports); nothing else may fire.
        for alert in engine.alerts() {
            if alert.severity == Severity::Critical {
                assert_eq!(
                    alert.rule, "rtp-attack",
                    "seed {seed}: unexpected critical alert {alert}"
                );
            }
        }
    }
}

/// Minting frames: `MINT_RATE` RTP frames per capture second for
/// `MINTED` frames, each with a fresh SSRC, over `MINT_PORTS`
/// destination ports, so every frame opens a `(flow, SSRC)` history.
const MINTED: u64 = 200_000;
const MINT_RATE: u64 = 1_000;
const MINT_PORTS: u64 = 50_000;
/// Retention of trails and session-plane state, in seconds.
const MINT_RETENTION_S: u64 = 2;
const ALICE: std::net::Ipv4Addr = std::net::Ipv4Addr::new(10, 0, 0, 2);
const BOB: std::net::Ipv4Addr = std::net::Ipv4Addr::new(10, 0, 0, 3);

fn minted_rtp(i: u64) -> IpPacket {
    let ssrc = i as u32;
    let header = RtpHeader::new(0, (i % 65_536) as u16, 0, ssrc);
    let payload = RtpPacket::new(header, vec![0u8; 20]).encode();
    let port = 10_000 + (i % MINT_PORTS) as u16;
    IpPacket::udp(
        std::net::Ipv4Addr::new(10, 0, 5, 66),
        7_000,
        std::net::Ipv4Addr::new(10, 0, 5, 1),
        port,
        payload,
    )
}

/// One real call, alice ↔ bob, whose media keeps flowing after a BYE
/// forged in bob's name: the paper's BYE attack, in capture order.
fn forged_bye_call() -> Vec<(SimTime, IpPacket)> {
    let sip = |src, dst, msg: &SipMessage| IpPacket::udp(src, 5060, dst, 5060, msg.to_bytes());
    let rtp = |src, dst, port, seq: u16, ssrc| {
        let pkt = RtpPacket::new(
            RtpHeader::new(0, seq, u32::from(seq) * 160, ssrc),
            vec![0u8; 160],
        );
        IpPacket::udp(src, port, dst, port, pkt.encode())
    };
    let sdp = SessionDescription::audio_offer("alice", ALICE, 8_000);
    let mut b = RequestBuilder::new(Method::Invite, "sip:bob@lab".parse().unwrap());
    b.from(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
        .to(NameAddr::new("sip:bob@lab".parse().unwrap()))
        .call_id("minted-real-call")
        .cseq(CSeq::new(1, Method::Invite))
        .via(Via::udp("10.0.0.2:5060", "z9hG4bK-real"))
        .contact(NameAddr::new("sip:alice@10.0.0.2:5060".parse().unwrap()))
        .body("application/sdp", sdp.to_string());
    let invite = b.build();
    let mut ok = response_to(&invite, StatusCode::OK, Some("tb"));
    ok.headers.set(HeaderName::ContentType, "application/sdp");
    ok.body = SessionDescription::audio_offer("bob", BOB, 9_000)
        .to_string()
        .into();
    let mut bye = RequestBuilder::new(Method::Bye, "sip:alice@10.0.0.2:5060".parse().unwrap());
    bye.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("tb"))
        .to(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
        .call_id("minted-real-call")
        .cseq(CSeq::new(100, Method::Bye))
        .via(Via::udp("10.0.0.66:5060", "z9hG4bK-forged"));
    let mut frames = vec![
        (SimTime::from_millis(1_000), sip(ALICE, BOB, &invite)),
        (SimTime::from_millis(1_010), sip(BOB, ALICE, &ok)),
        (
            SimTime::from_millis(3_000),
            sip(std::net::Ipv4Addr::new(10, 0, 0, 66), ALICE, &bye.build()),
        ),
    ];
    for n in 0..150u16 {
        let at = SimTime::from_millis(1_020 + 20 * u64::from(n));
        frames.push((at, rtp(BOB, ALICE, 8_000, n, 0xb0b)));
        frames.push((at, rtp(ALICE, BOB, 9_000, n, 0xa11ce)));
    }
    frames.sort_by_key(|(at, _)| *at);
    frames
}

/// The minting frames with the real call merged in, in capture order.
fn minting_capture() -> impl Iterator<Item = (SimTime, IpPacket)> {
    let mut call = forged_bye_call().into_iter().peekable();
    (0..MINTED).flat_map(move |i| {
        let at = SimTime::from_millis(i * 1_000 / MINT_RATE);
        let mut frames = Vec::new();
        while let Some((_, pkt)) = call.next_if(|(t, _)| *t <= at) {
            frames.push((at, pkt));
        }
        frames.push((at, minted_rtp(i)));
        frames
    })
}

/// An SSRC-minting flood beside a real call under a forged BYE, through
/// one engine and through 4 shards: the RTP flow history stays within
/// twice what the session timeout lets live (rate × timeout), nothing
/// is evicted, the BYE attack is caught and nothing else is Critical.
#[test]
fn ssrc_minting_keeps_rtp_flow_history_bounded() {
    let mut config = ScidiveConfig::default();
    config.trails.idle_timeout = SimDuration::from_secs(MINT_RETENTION_S);
    config.events.session_timeout = SimDuration::from_secs(MINT_RETENTION_S);
    let bound = 2 * MINT_RATE * MINT_RETENTION_S;
    let check = |what: &str, gauges: &[StateGauges], alerts: &[Alert]| {
        let peak = gauges.iter().map(|g| g.rtp_flows).max().unwrap_or(0);
        assert!(
            peak <= bound,
            "{what}: rtp_flows peaked at {peak} > {bound}"
        );
        assert!(
            peak >= bound / 4,
            "{what}: the flood never minted ({peak} flows)"
        );
        for g in gauges {
            assert_eq!(
                (g.evicted_entries, g.trails_evicted),
                (0, 0),
                "{what}: {g:?}"
            );
        }
        let critical: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.severity == Severity::Critical)
            .collect();
        assert!(
            critical.iter().any(|a| a.rule == "bye-attack"),
            "{what}: the forged BYE went unnoticed"
        );
        for a in critical {
            assert_eq!(a.rule, "bye-attack", "{what}: false critical {a}");
            assert_eq!(
                a.session.as_ref().map(SessionKey::as_str),
                Some("minted-real-call"),
                "{what}: false critical {a}"
            );
        }
    };

    let mut engine = Scidive::new(config.clone());
    let mut gauges = Vec::new();
    for (n, (at, pkt)) in minting_capture().enumerate() {
        engine.on_frame(at, &pkt);
        if n % 10_000 == 9_999 {
            gauges.push(engine.gauges());
        }
    }
    check("one engine", &gauges, engine.alerts());

    let mut sharded = ShardedScidive::new(config, 4, 64);
    let mut gauges = Vec::new();
    for (n, (at, pkt)) in minting_capture().enumerate() {
        sharded.submit(at, &pkt);
        if n % 10_000 == 9_999 {
            gauges.push(sharded.observation().gauges);
        }
    }
    let report = sharded.finish();
    gauges.push(report.observation.gauges);
    check("4 shards", &gauges, &report.alerts);
}
