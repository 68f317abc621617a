//! Differential tests for the sharded pipeline: replay the same capture
//! through a single `Scidive` and through `ShardedScidive` at several
//! shard counts, and require the merged alert stream and the summed
//! pipeline counters to be **identical** — over benign traffic and over
//! every attack capture, including the cross-protocol BYE whose
//! detection spans SIP and RTP trails.

use scidive::prelude::*;

/// Shard counts exercised by every equivalence check: the degenerate
/// single shard, powers of two, and a prime that doesn't divide
/// anything evenly.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn ids_config(ep: &Endpoints) -> ScidiveConfig {
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    config
}

/// Replays `frames` through both deployments and asserts equivalence at
/// every shard count. Returns the single-engine alerts for scenario
/// assertions.
fn assert_shard_invariant(frames: &[CapturedFrame], ep: &Endpoints) -> Vec<Alert> {
    let config = ids_config(ep);
    let mut single = Scidive::new(config.clone());
    for f in frames {
        single.on_frame(f.time, &f.packet);
    }
    for shards in SHARD_COUNTS {
        let mut sharded = ShardedScidive::new(config.clone(), shards, 64);
        for f in frames {
            sharded.submit(f.time, &f.packet);
        }
        let report = sharded.finish();
        assert_eq!(
            report.alerts,
            single.alerts(),
            "alert stream diverged at {shards} shards"
        );
        assert_eq!(
            report.stats,
            single.stats(),
            "summed pipeline counters diverged at {shards} shards"
        );
        // No silent drops, ever: backpressure blocks instead.
        assert_eq!(report.dispatch.dropped, 0);
        assert_eq!(report.dispatch.frames, frames.len() as u64);
        // Every frame is accounted to exactly one shard.
        assert_eq!(
            report.shards.iter().map(|s| s.dispatched).sum::<u64>(),
            frames.len() as u64,
            "dispatched counters don't cover the capture at {shards} shards"
        );
        assert_eq!(report.shards.len(), shards);
    }
    single.alerts().to_vec()
}

/// Builds the Fig-4 testbed with one scripted call, taps the hub, and
/// optionally injects an attacker node.
fn capture_scenario(
    seed: u64,
    hangup: Option<SimDuration>,
    attacker: Option<Box<dyn Node>>,
) -> (Vec<CapturedFrame>, Endpoints) {
    let mut tb = TestbedBuilder::new(seed)
        .standard_call(SimDuration::from_millis(500), hangup)
        .build();
    let ep = tb.endpoints.clone();
    let collector = Collector::new();
    let tap = collector.handle();
    tb.add_node("capture", ep.tap_ip, LinkParams::lan(), Box::new(collector));
    if let Some(node) = attacker {
        tb.add_node("attacker", ep.attacker_ip, LinkParams::lan(), node);
    }
    tb.run_for(SimDuration::from_secs(5));
    let frames = tap.borrow().clone();
    (frames, ep)
}

#[test]
fn benign_call_is_shard_invariant_and_silent() {
    let (frames, ep) = capture_scenario(601, Some(SimDuration::from_secs(3)), None);
    assert!(frames.len() > 100, "capture too small: {}", frames.len());
    let alerts = assert_shard_invariant(&frames, &ep);
    assert!(alerts.is_empty(), "benign capture alarmed: {alerts:?}");
}

#[test]
fn bye_attack_fires_identically_through_the_dispatcher() {
    // The §4.2.1 forged BYE: cross-protocol — the teardown is SIP, the
    // evidence (orphan media from the claimed terminator) is RTP. Both
    // trails must land on the same shard for the rule to fire.
    let (frames, ep) = capture_scenario(
        602,
        None,
        Some(Box::new(ByeAttacker::new(ByeAttackConfig::new(
            Endpoints::default().attacker_ip,
            Endpoints::default().a_ip,
            Endpoints::default().b_ip,
            SimDuration::from_secs(1),
        )))),
    );
    let alerts = assert_shard_invariant(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "bye-attack"),
        "cross-protocol BYE detection missing: {alerts:?}"
    );
}

#[test]
fn call_hijack_fires_identically_through_the_dispatcher() {
    let (frames, ep) = capture_scenario(
        603,
        None,
        Some(Box::new(Hijacker::new(HijackConfig::new(
            Endpoints::default().attacker_ip,
            Endpoints::default().a_ip,
            Endpoints::default().b_ip,
            SimDuration::from_secs(1),
        )))),
    );
    let alerts = assert_shard_invariant(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "call-hijack"),
        "hijack detection missing: {alerts:?}"
    );
}

#[test]
fn fake_im_fires_identically_through_the_dispatcher() {
    // Identity-plane detection: the IM source history lives in the
    // dispatcher, and its events must merge back in engine order.
    let (frames, ep) = capture_scenario(
        604,
        Some(SimDuration::from_secs(2)),
        Some(Box::new(FakeImAttacker::new(FakeImConfig::new(
            Endpoints::default().attacker_ip,
            Endpoints::default().a_ip,
            Endpoints::default().b_ip,
            SimDuration::from_millis(2_500),
        )))),
    );
    let alerts = assert_shard_invariant(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "fake-im"),
        "fake IM detection missing: {alerts:?}"
    );
}

#[test]
fn rtp_flood_fires_identically_through_the_dispatcher() {
    let (frames, ep) = capture_scenario(
        605,
        None,
        Some(Box::new(RtpFlooder::new(RtpFloodConfig::new(
            Endpoints::default().attacker_ip,
            Endpoints::default().b_ip,
            SimDuration::from_secs(1),
        )))),
    );
    let alerts = assert_shard_invariant(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "rtp-attack"),
        "RTP flood detection missing: {alerts:?}"
    );
}

#[test]
fn shard_counters_break_down_the_capture() {
    let (frames, ep) = capture_scenario(606, Some(SimDuration::from_secs(3)), None);
    let mut sharded = ShardedScidive::new(ids_config(&ep), 4, 64);
    for f in &frames {
        sharded.submit(f.time, &f.packet);
    }
    let report = sharded.finish();
    // With per-session hashing, a single call's SIP+RTP+accounting all
    // land on one shard; the overflow shard holds at most unattributable
    // noise.
    let busy: Vec<_> = report
        .shards
        .iter()
        .filter(|s| s.pipeline.footprints > 0)
        .collect();
    assert!(!busy.is_empty());
    assert_eq!(
        report.shards.iter().map(|s| s.pipeline.footprints).sum::<u64>(),
        report.stats.footprints
    );
    assert_eq!(report.dispatch.dropped, 0);
}

/// The media index, interner and synthetic-key gauges, live and
/// expired.
fn index_gauges(g: &StateGauges) -> [u64; 6] {
    [
        g.media_index,
        g.interner,
        g.synthetic_keys,
        g.media_expired,
        g.interner_expired,
        g.synthetic_expired,
    ]
}

/// Replays `frames` through one engine and through 1, 2 and 4 shards:
/// the sharded report's index gauges equal the engine's, so the one
/// index that attributes (the dispatcher's) is counted once and no
/// worker keeps a second. Returns the engine's gauges.
fn assert_index_counted_once(frames: &[(SimTime, IpPacket)], config: &ScidiveConfig) -> [u64; 6] {
    let mut single = Scidive::new(config.clone());
    for (t, f) in frames {
        single.on_frame(*t, f);
    }
    let expected = index_gauges(&single.gauges());
    for shards in [1, 2, 4] {
        let mut sharded = ShardedScidive::new(config.clone(), shards, 64);
        for (t, f) in frames {
            sharded.submit(*t, f);
        }
        let report = sharded.finish();
        assert_eq!(report.alerts, single.alerts(), "alerts at {shards} shards");
        assert_eq!(
            index_gauges(&report.observation.gauges),
            expected,
            "index gauges [media, interner, synthetic, media_expired, \
             interner_expired, synthetic_expired] at {shards} shards"
        );
    }
    expected
}

/// Two calls announcing media, RTP-shaped garbage to 40 unannounced
/// ports and to one announced sink, starting at `base` ms: the shape of
/// `tests/chaos.rs`'s leak-plateau burst.
fn chaos_burst(base: u64) -> Vec<(SimTime, IpPacket)> {
    let chaos_ip = std::net::Ipv4Addr::new(10, 0, 0, 99);
    let caller_ip = std::net::Ipv4Addr::new(10, 0, 0, 2);
    let target_ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let mut frames = Vec::new();
    for call in 0..2u16 {
        let sdp = SessionDescription::audio_offer("alice", caller_ip, 8_000 + call * 2);
        let mut b = RequestBuilder::new(Method::Invite, "sip:b@lab".parse().unwrap());
        b.from(NameAddr::new("sip:a@lab".parse().unwrap()).with_tag("t"))
            .to(NameAddr::new("sip:b@lab".parse().unwrap()))
            .call_id(format!("chaos-{base}-{call}"))
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.2:5060", "z9hG4bK-x"))
            .body("application/sdp", sdp.to_string());
        frames.push((
            SimTime::from_millis(base + u64::from(call)),
            IpPacket::udp(caller_ip, 5060, target_ip, 5060, b.build().to_bytes()),
        ));
    }
    for i in 0..120u64 {
        let t = SimTime::from_millis(base + 10 + i * 5);
        let rtp = [0x80u8, 96, 0, (i & 0xff) as u8, 0, 0, 0, 1, 0, 0, 0, 2];
        let port = 20_000 + (i % 40) as u16;
        frames.push((t, IpPacket::udp(chaos_ip, 4_999, target_ip, port, rtp.to_vec())));
        frames.push((t, IpPacket::udp(chaos_ip, 4_999, caller_ip, 8_000, rtp.to_vec())));
    }
    frames
}

#[test]
fn the_media_index_is_counted_once_at_every_shard_count() {
    // The captures of the tests above, by seed: the benign call, the
    // forged BYE, the hijack, the fake IM and the RTP flood.
    let attacker = |seed: u64| -> Option<Box<dyn Node>> {
        let ep = Endpoints::default();
        match seed {
            602 => Some(Box::new(ByeAttacker::new(ByeAttackConfig::new(
                ep.attacker_ip,
                ep.a_ip,
                ep.b_ip,
                SimDuration::from_secs(1),
            )))),
            603 => Some(Box::new(Hijacker::new(HijackConfig::new(
                ep.attacker_ip,
                ep.a_ip,
                ep.b_ip,
                SimDuration::from_secs(1),
            )))),
            604 => Some(Box::new(FakeImAttacker::new(FakeImConfig::new(
                ep.attacker_ip,
                ep.a_ip,
                ep.b_ip,
                SimDuration::from_millis(2_500),
            )))),
            605 => Some(Box::new(RtpFlooder::new(RtpFloodConfig::new(
                ep.attacker_ip,
                ep.b_ip,
                SimDuration::from_secs(1),
            )))),
            _ => None,
        }
    };
    for seed in 601..=605 {
        let hangup = match seed {
            601 => Some(SimDuration::from_secs(3)),
            604 => Some(SimDuration::from_secs(2)),
            _ => None,
        };
        let (frames, ep) = capture_scenario(seed, hangup, attacker(seed));
        let frames: Vec<(SimTime, IpPacket)> =
            frames.into_iter().map(|f| (f.time, f.packet)).collect();
        let gauges = assert_index_counted_once(&frames, &ids_config(&ep));
        assert!(gauges[0] > 0 && gauges[1] > 0, "seed {seed}: {gauges:?}");
    }

    // Bursts 10 s apart under a 2 s idle timeout: every cache expires
    // entries between bursts, and the expiry counts must match too.
    let mut config = ScidiveConfig::default();
    config.trails.idle_timeout = SimDuration::from_secs(2);
    config.events.session_timeout = SimDuration::from_secs(2);
    let frames: Vec<(SimTime, IpPacket)> = [0, 10_000, 20_000]
        .into_iter()
        .flat_map(chaos_burst)
        .collect();
    let gauges = assert_index_counted_once(&frames, &config);
    assert!(
        gauges[3..].iter().all(|&expired| expired > 0),
        "every cache expired something: {gauges:?}"
    );
}

/// Garbage aimed at a media sink raises `MediaPortGarbage` only when
/// attribution found the sink in the media index. The worker learns
/// that from its dispatcher, not from the session's name: a sink
/// announced by an INVITE without a Call-ID (session `sip-anon-…`) or
/// under a Call-ID spelled `other-…` belongs to a session that reads
/// as synthetic, and still counts; a sink never announced does not.
#[test]
fn garbage_to_announced_sinks_counts_whatever_the_session_is_called() {
    use std::net::Ipv4Addr;
    let proxy = Ipv4Addr::new(10, 0, 0, 1);
    let invite = |src: Ipv4Addr, call_id: Option<&str>, port: u16| {
        let sdp = SessionDescription::audio_offer("caller", src, port).to_string();
        let call_id = call_id.map(|id| format!("Call-ID: {id}\r\n")).unwrap_or_default();
        let text = format!(
            "INVITE sip:bob@lab SIP/2.0\r\n\
             Via: SIP/2.0/UDP {src}:5060;branch=z9hG4bK-{port}\r\n\
             From: <sip:caller@lab>;tag=t{port}\r\n\
             To: <sip:bob@lab>\r\n\
             {call_id}CSeq: 1 INVITE\r\n\
             Max-Forwards: 70\r\n\
             Content-Type: application/sdp\r\n\
             Content-Length: {}\r\n\r\n{sdp}",
            sdp.len()
        );
        IpPacket::udp(src, 5060, proxy, 5060, text.into_bytes())
    };
    // (a) a normal call, (b) no Call-ID, (c) a Call-ID spelled like a
    // synthetic key, (d) never announced, on (c)'s host.
    let sinks = [
        (Ipv4Addr::new(10, 0, 0, 2), 8_000),
        (Ipv4Addr::new(10, 0, 0, 5), 8_200),
        (Ipv4Addr::new(10, 0, 0, 3), 8_400),
        (Ipv4Addr::new(10, 0, 0, 3), 9_400),
    ];
    let mut frames = vec![
        (SimTime::from_millis(1), invite(sinks[0].0, Some("edge-a@lab"), sinks[0].1)),
        (SimTime::from_millis(2), invite(sinks[1].0, None, sinks[1].1)),
        (SimTime::from_millis(3), invite(sinks[2].0, Some("other-10.0.0.3"), sinks[2].1)),
    ];
    let attacker = Ipv4Addr::new(10, 0, 0, 66);
    for n in 0..40u16 {
        let at = SimTime::from_millis(100 + 20 * u64::from(n));
        for (i, &(host, port)) in sinks.iter().enumerate() {
            let rtp = RtpPacket::new(
                RtpHeader::new(0, n, u32::from(n) * 160, 0x5000 + i as u32),
                vec![0u8; 160],
            );
            frames.push((at, IpPacket::udp(attacker, 7_000, host, port, rtp.encode())));
            frames.push((at, IpPacket::udp(attacker, 7_001, host, port, vec![0u8; 48])));
        }
    }

    let config = ScidiveConfig {
        event_log_cap: 1 << 16,
        ..ScidiveConfig::default()
    };
    let mut single = Scidive::new(config.clone());
    for (t, f) in &frames {
        single.on_frame(*t, f);
    }
    let garbage_sinks: std::collections::BTreeSet<(Ipv4Addr, u16)> = single
        .drain_events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::MediaPortGarbage { sink, .. } => Some(sink),
            _ => None,
        })
        .collect();
    assert_eq!(
        garbage_sinks,
        sinks[..3].iter().copied().collect(),
        "garbage counts at the three announced sinks only"
    );

    for shards in [1, 2, 4] {
        let mut sharded = ShardedScidive::new(config.clone(), shards, 64);
        for (t, f) in &frames {
            sharded.submit(*t, f);
        }
        let report = sharded.finish();
        assert_eq!(report.alerts, single.alerts(), "alerts at {shards} shards");
        assert_eq!(
            report.stats.events,
            single.stats().events,
            "events at {shards} shards"
        );
        assert_eq!(report.stats, single.stats(), "counters at {shards} shards");
    }
}
