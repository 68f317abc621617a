//! The online (threaded) deployment — `ShardedScidive` with one worker
//! or several behind bounded rings: identical verdicts to the offline
//! engine over real attack captures, backpressure instead of drops, and
//! live snapshots that account for every alert they show.

use scidive::prelude::*;

fn capture_attack_frames(seed: u64) -> (Vec<CapturedFrame>, Endpoints) {
    let mut tb = TestbedBuilder::new(seed)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let collector = Collector::new();
    let tap = collector.handle();
    tb.add_node("capture", ep.tap_ip, LinkParams::lan(), Box::new(collector));
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(Hijacker::new(HijackConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            ep.b_ip,
            SimDuration::from_secs(1),
        ))),
    );
    tb.run_for(SimDuration::from_secs(4));
    let frames = tap.borrow().clone();
    (frames, ep)
}

#[test]
fn online_engine_matches_offline_on_attack_capture() {
    let (frames, ep) = capture_attack_frames(501);
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];

    let mut offline = Scidive::new(config.clone());
    for f in &frames {
        offline.on_frame(f.time, &f.packet);
    }

    let mut online = ShardedScidive::new(config, 1, 128);
    for f in &frames {
        online.submit(f.time, &f.packet);
    }
    let ShardedReport {
        alerts,
        stats,
        observation,
        ..
    } = online.finish();

    assert_eq!(alerts, offline.alerts());
    assert_eq!(stats.frames, frames.len() as u64);
    // The observation's counters must account for every frame submitted
    // and every alert raised.
    assert_eq!(observation.pipeline, stats);
    assert_eq!(observation.dispatch.frames, frames.len() as u64);
    assert_eq!(observation.severity.total(), alerts.len() as u64);
    assert!(alerts.iter().any(|a| a.rule == "call-hijack"));
}

#[test]
fn online_engine_with_tiny_queue_backpressures_correctly() {
    let (frames, ep) = capture_attack_frames(502);
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    // Queue depth 1: every submit contends with the worker.
    let mut online = ShardedScidive::new(config.clone(), 1, 1);
    for f in &frames {
        online.submit(f.time, &f.packet);
    }
    let ShardedReport { alerts, stats, .. } = online.finish();
    assert_eq!(stats.frames, frames.len() as u64);

    let mut offline = Scidive::new(config);
    for f in &frames {
        offline.on_frame(f.time, &f.packet);
    }
    assert_eq!(alerts, offline.alerts());
}

#[test]
fn bounded_queues_block_instead_of_dropping() {
    // Depth-1 queues on a multi-shard engine: every submit can find its
    // shard's queue full, and the dispatcher must block — never drop.
    let (frames, ep) = capture_attack_frames(503);
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    let mut sharded = ShardedScidive::new(config, 4, 1);
    for f in &frames {
        sharded.submit(f.time, &f.packet);
    }
    let report = sharded.finish();
    // Every frame made it through: counted, dispatched, processed.
    assert_eq!(report.dispatch.dropped, 0);
    assert_eq!(report.dispatch.frames, frames.len() as u64);
    assert_eq!(report.stats.frames, frames.len() as u64);
    assert_eq!(
        report.shards.iter().map(|s| s.dispatched).sum::<u64>(),
        frames.len() as u64
    );
}

#[test]
fn finish_drains_every_shard() {
    // Submit a large capture and immediately finish: the merged report
    // must still contain the work queued on every shard, and the alert
    // snapshot taken before finish can only be a prefix of the truth.
    let (frames, ep) = capture_attack_frames(504);
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];

    let mut offline = Scidive::new(config.clone());
    for f in &frames {
        offline.on_frame(f.time, &f.packet);
    }

    let mut sharded = ShardedScidive::new(config, 4, 256);
    for f in &frames {
        sharded.submit(f.time, &f.packet);
    }
    let early = sharded.alerts_snapshot();
    let report = sharded.finish();
    assert!(early.len() <= report.alerts.len());
    assert_eq!(report.alerts, offline.alerts());
    assert_eq!(report.stats, offline.stats());
    assert!(report.alerts.iter().any(|a| a.rule == "call-hijack"));
}

#[test]
fn clean_run_keeps_drop_and_blocked_counters_honest() {
    // A roomy queue on a benign capture: nothing dropped, and with
    // depth >= capture size nothing can even block.
    let mut tb = TestbedBuilder::new(505)
        .standard_call(SimDuration::from_millis(500), Some(SimDuration::from_secs(3)))
        .build();
    let ep = tb.endpoints.clone();
    let collector = Collector::new();
    let tap = collector.handle();
    tb.add_node("capture", ep.tap_ip, LinkParams::lan(), Box::new(collector));
    tb.run_for(SimDuration::from_secs(5));
    let frames = tap.borrow().clone();

    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    let mut sharded = ShardedScidive::new(config, 2, frames.len().max(1));
    for f in &frames {
        sharded.submit(f.time, &f.packet);
    }
    let report = sharded.finish();
    assert_eq!(report.dispatch.dropped, 0);
    assert!(report.alerts.is_empty(), "benign capture alarmed: {:?}", report.alerts);
    for shard in &report.shards {
        assert_eq!(
            shard.enqueue_blocked, 0,
            "shard {} blocked with an oversized queue",
            shard.shard
        );
    }
}

/// One caller establishing `calls` calls to distinct callees, 100 ms
/// apart, each under its own Call-ID so the dialogs spread over shards.
fn fanout_capture(calls: u64) -> Vec<(SimTime, IpPacket)> {
    let caller_ip = std::net::Ipv4Addr::new(10, 0, 0, 40);
    let proxy_ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let mut frames = Vec::new();
    for n in 0..calls {
        let at = SimTime::from_millis(100 * n);
        let callee = format!("sip:victim-{n}@lab");
        let mut b = RequestBuilder::new(Method::Invite, callee.parse().unwrap());
        b.from(NameAddr::new("sip:spammer@lab".parse().unwrap()).with_tag("spam"))
            .to(NameAddr::new(callee.parse().unwrap()))
            .call_id(format!("fan-{n}@lab"))
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.40:5060", format!("z9hG4bK-fan-{n}")));
        let invite = b.build();
        let ok = response_to(&invite, StatusCode::OK, Some(&format!("vt-{n}")));
        frames.push((
            at,
            IpPacket::udp(caller_ip, 5060, proxy_ip, 5060, invite.to_bytes().as_ref()),
        ));
        frames.push((
            at + SimDuration::from_millis(10),
            IpPacket::udp(proxy_ip, 5060, caller_ip, 5060, ok.to_bytes().as_ref()),
        ));
    }
    frames
}

/// A live observation counts the alerts the dispatcher's fold plane
/// raised, not only the workers': once the snapshot shows the
/// `rapid-connect` fold alert, the observation's alert total and its
/// severity tally both equal the snapshot's length.
#[test]
fn live_observation_counts_fold_plane_alerts() {
    let mut frames = fanout_capture(14);
    // A quiet frame past the 2 s fold boundary: submitting it runs the
    // fold that judges the fan-out, which crossed its threshold at 1.1 s.
    frames.push((
        SimTime::from_millis(2_500),
        IpPacket::udp(
            std::net::Ipv4Addr::new(10, 0, 0, 7),
            4444,
            std::net::Ipv4Addr::new(10, 0, 0, 8),
            8000,
            vec![0u8; 40],
        ),
    ));
    // Unit batches: nothing is left buffered at the dispatcher, so the
    // snapshot's prefix watermark can reach the end of the capture.
    let mut ids =
        ShardedScidive::new(ScidiveConfig::default(), 2, 64).with_batching(1, SimDuration::ZERO);
    for (t, p) in &frames {
        ids.submit(*t, p);
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut seen = ids.alerts_snapshot();
    while !seen.iter().any(|a| a.rule == "rapid-connect") {
        assert!(
            std::time::Instant::now() < deadline,
            "fold alert never reached the snapshot: {seen:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
        seen = ids.alerts_snapshot();
    }
    let live = ids.observation();
    assert_eq!(live.dispatch.fold_alerts, 1);
    assert_eq!(live.pipeline.alerts, seen.len() as u64, "{seen:?}");
    assert_eq!(live.severity.total(), seen.len() as u64);

    let report = ids.finish();
    assert_eq!(report.alerts, seen, "the snapshot already held every alert");
    assert_eq!(report.observation.pipeline.alerts, live.pipeline.alerts);
    assert_eq!(report.observation.severity, live.severity);
}
