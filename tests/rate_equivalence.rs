//! Differential tests for rate state: replay the same capture with
//! `exact_rate_state` on (the default) and off — the setting the repo
//! benchmark runs — single engine and sharded at 1/2/4, and require
//! **byte-identical** alert streams.
//!
//! The switch is inert: every rate clause is decided on exact, capped
//! per-key tables (`ThresholdTable`) whatever it says, so every scenario
//! must fire identically under both settings, and benign traffic must
//! stay silent under both. The crowd cases pin what exact per-key state
//! buys at realistic populations: no key's count or latch can be moved
//! by another key's traffic, so honest neighbours neither raise a false
//! alarm nor re-arm an attacker's latch.
//!
//! Threshold clauses (rapid-connect) are pinned further: a key that
//! lives as long as its window whatever the trail timeout, and an alert
//! stream that is invariant under the shard count at a realistic
//! (10,000-caller) population.

use scidive::prelude::*;

fn config_for(ep: &Endpoints, exact: bool) -> ScidiveConfig {
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    config.exact_rate_state = exact;
    config
}

/// Builds a testbed (customized by `shape`), taps the hub, optionally
/// injects an attacker, and runs for `run`.
fn capture_scenario(
    seed: u64,
    shape: impl FnOnce(TestbedBuilder) -> TestbedBuilder,
    attacker: Option<Box<dyn Node>>,
    run: SimDuration,
) -> (Vec<CapturedFrame>, Endpoints) {
    let mut tb = shape(TestbedBuilder::new(seed)).build();
    let ep = tb.endpoints.clone();
    let collector = Collector::new();
    let tap = collector.handle();
    tb.add_node("capture", ep.tap_ip, LinkParams::lan(), Box::new(collector));
    if let Some(node) = attacker {
        tb.add_node("attacker", ep.attacker_ip, LinkParams::lan(), node);
    }
    tb.run_for(run);
    let frames = tap.borrow().clone();
    (frames, ep)
}

/// Replays `frames` with `exact_rate_state` on and off — single engine,
/// then both settings sharded at 1/2/4 — asserting identical alert
/// streams everywhere. Returns the reference alerts for
/// scenario assertions.
fn assert_rate_equivalence(frames: &[CapturedFrame], ep: &Endpoints) -> Vec<Alert> {
    let mut exact = Scidive::new(config_for(ep, true));
    for f in frames {
        exact.on_frame(f.time, &f.packet);
    }

    let mut sketch = Scidive::new(config_for(ep, false));
    for f in frames {
        sketch.on_frame(f.time, &f.packet);
    }
    assert_eq!(
        sketch.alerts(),
        exact.alerts(),
        "sketch-mode alerts diverged from the exact reference"
    );
    assert_eq!(sketch.stats(), exact.stats());

    for shards in [1usize, 2, 4] {
        for mode_exact in [true, false] {
            let mut sharded = ShardedScidive::new(config_for(ep, mode_exact), shards, 64);
            for f in frames {
                sharded.submit(f.time, &f.packet);
            }
            let report = sharded.finish();
            assert_eq!(
                report.alerts,
                exact.alerts(),
                "sharded run (exact={mode_exact}) diverged at {shards} shards"
            );
            assert_eq!(
                report.stats,
                exact.stats(),
                "counters (exact={mode_exact}) diverged at {shards} shards"
            );
        }
    }
    exact.alerts().to_vec()
}

#[test]
fn benign_call_is_silent_in_both_modes() {
    let (frames, ep) = capture_scenario(
        711,
        |tb| tb.standard_call(SimDuration::from_millis(500), Some(SimDuration::from_secs(3))),
        None,
        SimDuration::from_secs(5),
    );
    assert!(frames.len() > 100, "capture too small: {}", frames.len());
    let alerts = assert_rate_equivalence(&frames, &ep);
    assert!(alerts.is_empty(), "benign capture alarmed: {alerts:?}");
}

#[test]
fn register_flood_fires_identically_in_both_modes() {
    let ep0 = Endpoints::default();
    let (frames, ep) = capture_scenario(
        712,
        |tb| {
            tb.with_auth(&[("alice", "pw-a"), ("bob", "pw-b")]).a_script(vec![
                ScriptStep::new(SimDuration::from_millis(10), UaAction::Register),
            ])
        },
        Some(Box::new(RegisterFlooder::new(RegisterDosConfig::new(
            ep0.attacker_ip,
            ep0.proxy_ip,
            SimDuration::from_millis(500),
        )))),
        SimDuration::from_secs(10),
    );
    let alerts = assert_rate_equivalence(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "register-dos"),
        "REGISTER flood missing: {alerts:?}"
    );
    // The benign client's single challenge round-trip stays unflagged.
    assert!(!alerts.iter().any(|a| a.rule == "password-guess"));
}

#[test]
fn password_guess_fires_identically_in_both_modes() {
    let ep0 = Endpoints::default();
    let (frames, ep) = capture_scenario(
        713,
        |tb| tb.with_auth(&[("alice", "super-secret")]),
        Some(Box::new(PasswordGuesser::new(PasswordGuessConfig::new(
            ep0.attacker_ip,
            ep0.proxy_ip,
            SimDuration::from_millis(500),
            10,
        )))),
        SimDuration::from_secs(10),
    );
    let alerts = assert_rate_equivalence(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "password-guess"),
        "password guessing missing: {alerts:?}"
    );
}

#[test]
fn non_rate_rules_are_untouched_by_the_mode_switch() {
    // A cross-protocol BYE attack exercises rules that never consult
    // the rate hub; the mode flag must be completely inert for them.
    let ep0 = Endpoints::default();
    let (frames, ep) = capture_scenario(
        714,
        |tb| tb.standard_call(SimDuration::from_millis(500), None),
        Some(Box::new(ByeAttacker::new(ByeAttackConfig::new(
            ep0.attacker_ip,
            ep0.a_ip,
            ep0.b_ip,
            SimDuration::from_secs(1),
        )))),
        SimDuration::from_secs(5),
    );
    let alerts = assert_rate_equivalence(&frames, &ep);
    assert!(
        alerts.iter().any(|a| a.rule == "bye-attack"),
        "cross-protocol BYE detection missing: {alerts:?}"
    );
}

/// Builds the synthetic fan-out capture: one caller establishing
/// `calls` calls to distinct callees, 100ms apart, each with its own
/// Call-ID so the shard router spreads the dialogs across every shard.
fn fanout_capture(calls: u64) -> Vec<(SimTime, IpPacket)> {
    fanout_capture_spaced(calls, SimDuration::from_millis(100))
}

/// [`fanout_capture`] with the calls `spacing` apart.
fn fanout_capture_spaced(calls: u64, spacing: SimDuration) -> Vec<(SimTime, IpPacket)> {
    let caller_ip = std::net::Ipv4Addr::new(10, 0, 0, 40);
    let proxy_ip = std::net::Ipv4Addr::new(10, 0, 0, 1);
    let mut frames = Vec::new();
    for n in 0..calls {
        let at = SimTime::ZERO + spacing * n;
        let callee = format!("sip:victim-{n}@lab");
        let mut b = RequestBuilder::new(Method::Invite, callee.parse().unwrap());
        b.from(NameAddr::new("sip:spammer@lab".parse().unwrap()).with_tag("spam"))
            .to(NameAddr::new(callee.parse().unwrap()))
            .call_id(format!("fan-{n}@lab"))
            .cseq(CSeq::new(1, Method::Invite))
            .via(Via::udp("10.0.0.40:5060", format!("z9hG4bK-fan-{n}")));
        let invite = b.build();
        frames.push((
            at,
            IpPacket::udp(caller_ip, 5060, proxy_ip, 5060, invite.to_bytes().as_ref()),
        ));
        let ok = response_to(&invite, StatusCode::OK, Some(&format!("vt-{n}")));
        frames.push((
            at + SimDuration::from_millis(10),
            IpPacket::udp(proxy_ip, 5060, caller_ip, 5060, ok.to_bytes().as_ref()),
        ));
    }
    frames
}

fn run_sharded_fanout(frames: &[(SimTime, IpPacket)], exact: bool, shards: usize) -> ShardedReport {
    let config = ScidiveConfig {
        exact_rate_state: exact,
        ..ScidiveConfig::default()
    };
    let mut ids = ShardedScidive::new(config, shards, 64);
    for (t, p) in frames {
        ids.submit(*t, p);
    }
    ids.finish()
}

/// One caller fanning out calls to 14 distinct callees inside the
/// 60-second window: the rapid-connect rule must fire exactly once, and
/// identically, in both modes. Single engine here; the sharded pipeline
/// evaluates this clause on the dispatcher's global fold plane — see
/// `rapid_connect_fanout_is_shard_count_invariant` below.
#[test]
fn rapid_connect_fanout_fires_identically_in_both_modes() {
    let frames = fanout_capture(14);

    let run = |exact: bool| {
        let config = ScidiveConfig {
            exact_rate_state: exact,
            ..ScidiveConfig::default()
        };
        let mut ids = Scidive::new(config);
        for (t, p) in &frames {
            ids.on_frame(*t, p);
        }
        ids.alerts().to_vec()
    };
    let exact_alerts = run(true);
    let sketch_alerts = run(false);
    assert_eq!(
        sketch_alerts, exact_alerts,
        "rapid-connect diverged between modes"
    );
    assert_eq!(
        exact_alerts
            .iter()
            .filter(|a| a.rule == "rapid-connect")
            .count(),
        1,
        "fan-out should fire rapid-connect exactly once: {exact_alerts:?}"
    );
}

/// The tentpole invariant: a flood whose dialogs hash across every
/// shard produces a byte-identical alert stream at 1, 2 and 4 shards,
/// in exact and sketch modes alike. The rapid-connect clause is
/// evaluated against the dispatcher's *global* fold plane, so per-shard
/// slices of the caller's fan-out (3–4 calls each at 4 shards, far
/// below the 12-attempt threshold) cannot suppress the alert.
#[test]
fn rapid_connect_fanout_is_shard_count_invariant() {
    let frames = fanout_capture(14);
    let reference = run_sharded_fanout(&frames, true, 1);
    assert_eq!(
        reference
            .alerts
            .iter()
            .filter(|a| a.rule == "rapid-connect")
            .count(),
        1,
        "fold plane should fire rapid-connect exactly once: {:?}",
        reference.alerts
    );
    for shards in [1usize, 2, 4] {
        for exact in [true, false] {
            let report = run_sharded_fanout(&frames, exact, shards);
            assert_eq!(
                report.alerts, reference.alerts,
                "fold-plane alerts diverged at {shards} shards (exact={exact})"
            );
            assert_eq!(
                report.stats, reference.stats,
                "pipeline stats diverged at {shards} shards (exact={exact})"
            );
        }
    }
}

/// The `(rule, severity, message)` of every rapid-connect alert, in
/// stream order — what must not depend on where the clause was judged.
fn rapid_verdicts(alerts: &[Alert]) -> Vec<(&str, Severity, &str)> {
    alerts
        .iter()
        .filter(|a| a.rule == "rapid-connect")
        .map(|a| (a.rule.as_str(), a.severity, a.message.as_str()))
        .collect()
}

/// A threshold key lives as long as its *window*, not as long as the
/// rule-state idle timeout: a fan-out whose calls arrive a second apart
/// under a 300 ms trail timeout still accumulates over the 60-second
/// rapid-connect window and fires once, at the 12th establishment, in
/// both modes. (The exact arm used to reset the key between calls and
/// never fired.)
#[test]
fn rapid_connect_key_outlives_the_rule_state_timeout() {
    let frames = fanout_capture_spaced(14, SimDuration::from_secs(1));
    // The 200 OK completing the 12th call.
    let twelfth = SimTime::from_millis(11_010);
    for exact in [true, false] {
        let mut config = ScidiveConfig {
            exact_rate_state: exact,
            ..ScidiveConfig::default()
        };
        config.trails.idle_timeout = SimDuration::from_millis(300);
        let mut ids = Scidive::new(config);
        for (t, p) in &frames {
            ids.on_frame(*t, p);
        }
        let rapid: Vec<&Alert> = ids
            .alerts()
            .iter()
            .filter(|a| a.rule == "rapid-connect")
            .collect();
        assert_eq!(rapid.len(), 1, "exact={exact}: {:?}", ids.alerts());
        assert_eq!(rapid[0].time, twelfth, "exact={exact}");
        assert!(rapid[0].message.contains("12 calls to 12 distinct"));
    }
}

/// The population the sketch-fed fold plane broke on: 10,000 distinct
/// benign callers, one or two calls each to their own dedicated callee,
/// all inside one 60-second rapid-connect window — and one real fan-out
/// attacker among them. No key's count can be raised by another key's
/// traffic, so the merged stream is byte-identical at 1/2/4/7 shards in
/// both rate modes, carries exactly one rapid-connect, and that alert
/// says what the single engine's says — at most one fold interval
/// later. (With merged count-min / pooled-distinct estimators every
/// global cell read past the clause at this population and each added
/// shard lowered the nomination bar: 0 / 10 / 284 false Criticals at
/// 1 / 2 / 4 shards.)
#[test]
fn crowded_window_accuses_only_the_attacker_at_every_shard_count() {
    let crowd = scidive_voip::synth::SynthConfig {
        callers: 10_000,
        spacing: SimDuration::from_millis(5),
        churn_every: 0,
        start: SimTime::ZERO,
        ..scidive_voip::synth::SynthConfig::load(10_500, 100)
    };
    assert!(crowd.span() < SimDuration::from_secs(60));
    let mut frames: Vec<(SimTime, IpPacket)> = crowd.stream().collect();
    frames.extend(fanout_capture(14));
    frames.sort_by_key(|f| f.0);

    // Short trail / session retention keeps the per-frame trail scan —
    // and this test — cheap; threshold keys do not depend on it.
    let config = |exact: bool| {
        let mut config = ScidiveConfig {
            exact_rate_state: exact,
            ..ScidiveConfig::default()
        };
        config.trails.idle_timeout = SimDuration::from_secs(1);
        config.events.session_timeout = SimDuration::from_secs(1);
        config
    };
    let sharded = |exact: bool, shards: usize| {
        let mut ids = ShardedScidive::new(config(exact), shards, 64);
        for (t, p) in &frames {
            ids.submit(*t, p);
        }
        ids.finish()
    };

    let mut single = Scidive::new(config(true));
    for (t, p) in &frames {
        single.on_frame(*t, p);
    }
    let truth = rapid_verdicts(single.alerts());
    assert_eq!(truth.len(), 1, "{truth:?}");
    assert!(truth[0].2.contains("spammer@lab"), "{truth:?}");
    let truth_at = single
        .alerts()
        .iter()
        .find(|a| a.rule == "rapid-connect")
        .map(|a| a.time)
        .expect("one rapid-connect");

    let reference = sharded(true, 1);
    for shards in [1usize, 2, 4, 7] {
        for exact in [true, false] {
            let report = sharded(exact, shards);
            assert_eq!(
                report.alerts, reference.alerts,
                "alert stream diverged at {shards} shards (exact={exact})"
            );
            assert_eq!(report.observation.dispatch.fold_evicted, 0);
        }
    }
    assert_eq!(rapid_verdicts(&reference.alerts), truth);
    let folded_at = reference
        .alerts
        .iter()
        .find(|a| a.rule == "rapid-connect")
        .map(|a| a.time)
        .expect("one rapid-connect");
    let slack = ScidiveConfig::default().fold.interval;
    assert!(truth_at <= folded_at && folded_at <= truth_at + slack);
}

/// The registrar every crowd member talks to.
const REGISTRAR: std::net::Ipv4Addr = std::net::Ipv4Addr::new(10, 0, 0, 1);

/// The `n`th crowd source, `10.100.x.y`.
fn crowd_ip(n: u32) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::from(0x0a64_0000 + n + 1)
}

/// `user`'s `n`th REGISTER from `src`, carrying a digest `Authorization`
/// with `response` when given.
fn register_from(src: std::net::Ipv4Addr, user: &str, n: u32, response: Option<&str>) -> SipMessage {
    let aor: SipUri = format!("sip:{user}@lab").parse().unwrap();
    let mut b = RequestBuilder::new(Method::Register, "sip:lab".parse().unwrap());
    b.from(NameAddr::new(aor.clone()).with_tag("t"))
        .to(NameAddr::new(aor))
        .call_id(format!("reg-{user}-{n}"))
        .cseq(CSeq::new(n, Method::Register))
        .via(Via::udp(format!("{src}:5060"), format!("z9hG4bK-{user}-{n}")));
    let mut req = b.build();
    if let Some(response) = response {
        req.headers.set(
            HeaderName::Authorization,
            format!(
                "Digest username=\"{user}\", realm=\"lab\", nonce=\"n1\", uri=\"sip:lab\", response=\"{response}\""
            ),
        );
    }
    req
}

fn sip_udp(src: std::net::Ipv4Addr, dst: std::net::Ipv4Addr, msg: &SipMessage) -> IpPacket {
    IpPacket::udp(src, 5060, dst, 5060, msg.to_bytes().as_ref())
}

/// One honest registration from `src` at `at`: REGISTER, 401 challenge,
/// REGISTER with digest credentials, 200 OK — one request/4xx
/// alternation and one digest response.
fn honest_registration(src: std::net::Ipv4Addr, user: &str, at: SimTime) -> Vec<(SimTime, IpPacket)> {
    let ms = SimDuration::from_millis;
    let first = register_from(src, user, 1, None);
    let challenge = response_to(&first, StatusCode::UNAUTHORIZED, None);
    let response = format!("{:032x}", u32::from(src));
    let second = register_from(src, user, 2, Some(&response));
    let ok = response_to(&second, StatusCode::OK, None);
    vec![
        (at, sip_udp(src, REGISTRAR, &first)),
        (at + ms(1), sip_udp(REGISTRAR, src, &challenge)),
        (at + ms(2), sip_udp(src, REGISTRAR, &second)),
        (at + ms(3), sip_udp(REGISTRAR, src, &ok)),
    ]
}

/// The single engine's alerts, then each shard count's, on `frames`
/// with `exact_rate_state` off (the benchmark's setting).
fn benchmark_setting_alerts(frames: &[(SimTime, IpPacket)]) -> Vec<(String, Vec<Alert>)> {
    let mut single = Scidive::new(ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    });
    for (t, p) in frames {
        single.on_frame(*t, p);
    }
    let mut runs = vec![("single engine".to_string(), single.alerts().to_vec())];
    for shards in [1usize, 2, 4] {
        let report = run_sharded_fanout(frames, false, shards);
        runs.push((format!("{shards} shard(s)"), report.alerts));
    }
    runs
}

/// 1,024 honest sources each authenticate once inside one 30-second
/// guess window: one digest response per `(src, username)` key, so no
/// key comes near the 3-distinct-response clause. (Pooled distinct
/// estimators shared 32 slots among the keys and accused hundreds.)
#[test]
fn once_authenticating_crowd_raises_no_password_guess_at_every_shard_count() {
    let mut frames = Vec::new();
    for n in 0..1_024u32 {
        let at = SimTime::ZERO + SimDuration::from_millis(20) * u64::from(n);
        frames.extend(honest_registration(crowd_ip(n), &format!("user{n}"), at));
    }
    assert!(frames.last().unwrap().0 < SimTime::from_secs(30));
    for (run, alerts) in benchmark_setting_alerts(&frames) {
        assert!(alerts.is_empty(), "{run} raised {} alerts: {:?}", alerts.len(), alerts.first());
    }
}

/// 64 REGISTER flooders among 1,024 honest clients' challenge round
/// trips, all inside one 10-second flood window. Each flooder raises
/// exactly one `register-dos`, at its own tenth alternation: its latch
/// can only be released by its own count falling below half the
/// threshold, never by a neighbour's sub-threshold churn. (Latch bits
/// shared across keys were cleared by honest REGISTERs and re-fired
/// floods; shared by two flooders, they suppressed one.)
#[test]
fn each_flooder_in_a_churning_crowd_alerts_exactly_once() {
    const FLOODERS: u32 = 64;
    const PAIRS: u64 = 24;
    let mut frames = Vec::new();
    for n in 0..1_024u32 {
        // An honest client's challenge round trip: one alternation.
        let (src, at) = (crowd_ip(n), SimTime::ZERO + SimDuration::from_micros(9_200) * u64::from(n));
        let req = register_from(src, &format!("user{n}"), 1, None);
        let challenge = response_to(&req, StatusCode::UNAUTHORIZED, None);
        frames.push((at, sip_udp(src, REGISTRAR, &req)));
        frames.push((at + SimDuration::from_millis(1), sip_udp(REGISTRAR, src, &challenge)));
    }
    for f in 0..FLOODERS {
        let src = crowd_ip(2_000 + f);
        for k in 0..PAIRS {
            let at = SimTime::ZERO
                + SimDuration::from_micros(100) * u64::from(f)
                + SimDuration::from_millis(400) * k;
            let req = register_from(src, &format!("flood{f}"), k as u32 + 1, None);
            let challenge = response_to(&req, StatusCode::UNAUTHORIZED, None);
            frames.push((at, sip_udp(src, REGISTRAR, &req)));
            frames.push((at + SimDuration::from_millis(1), sip_udp(REGISTRAR, src, &challenge)));
        }
    }
    frames.sort_by_key(|f| f.0);
    assert!(frames.last().unwrap().0 < SimTime::from_secs(10));
    for (run, alerts) in benchmark_setting_alerts(&frames) {
        assert!(
            alerts.iter().all(|a| a.rule == "register-dos"),
            "{run}: {:?}",
            alerts.iter().find(|a| a.rule != "register-dos")
        );
        // Every flooder's alerts, by the source its message names.
        let off: Vec<(u32, Vec<&str>)> = (0..FLOODERS)
            .map(|f| {
                let from = format!(" alternations from {}", crowd_ip(2_000 + f));
                let own = alerts.iter().filter(|a| a.message.ends_with(&from));
                (f, own.map(|a| a.message.as_str()).collect::<Vec<_>>())
            })
            .filter(|(f, own)| {
                let tenth = format!(": 10 request/4xx alternations from {}", crowd_ip(2_000 + f));
                own.len() != 1 || !own[0].ends_with(&tenth)
            })
            .collect();
        assert!(off.is_empty(), "{run}: flooders not alerted exactly once: {off:?}");
        assert_eq!(alerts.len(), FLOODERS as usize, "{run}");
    }
}
