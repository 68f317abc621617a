//! End-to-end detection of the paper's four implemented attacks
//! (Table 1) plus the two §3.3 scenarios and §3.2 billing fraud:
//! testbed + attacker + endpoint IDS on the hub, in virtual time.

use scidive::prelude::*;

/// Deploys an IDS tap configured with the testbed's infrastructure IPs.
fn deploy_ids(tb: &mut Testbed) -> scidive::netsim::node::NodeId {
    let ep = tb.endpoints.clone();
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    tb.add_node(
        "ids",
        ep.tap_ip,
        LinkParams::lan(),
        Box::new(IdsNode::new(config)),
    )
}

fn alerts_of(tb: &Testbed, ids: scidive::netsim::node::NodeId) -> Vec<Alert> {
    tb.sim
        .node_as::<IdsNode>(ids)
        .expect("ids node")
        .ids()
        .alerts()
        .to_vec()
}

fn critical_rules(alerts: &[Alert]) -> Vec<&str> {
    alerts
        .iter()
        .filter(|a| a.severity == Severity::Critical)
        .map(|a| a.rule.as_str())
        .collect()
}

#[test]
fn bye_attack_detected_with_small_delay() {
    let mut tb = TestbedBuilder::new(101)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    let attacker = tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(ByeAttacker::new(ByeAttackConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            ep.b_ip,
            SimDuration::from_secs(1),
        ))),
    );
    tb.run_for(SimDuration::from_secs(5));

    let alerts = alerts_of(&tb, ids);
    let fired_at = tb
        .sim
        .node_as::<ByeAttacker>(attacker)
        .unwrap()
        .fired_at
        .expect("attack fired");
    let report = DetectionReport::evaluate(
        &alerts,
        &[InjectedAttack::new("bye-attack", fired_at)],
    );
    assert_eq!(report.detected_count(), 1, "alerts: {alerts:?}");
    // §4.3.1: detection happens within roughly one RTP period plus
    // network delays — tens of milliseconds, not seconds.
    let delay = report.outcomes[0].delay().unwrap();
    assert!(
        delay <= SimDuration::from_millis(100),
        "detection delay {delay}"
    );
    assert!(report.false_alarms.is_empty(), "{:?}", report.false_alarms);
}

/// The seed-1 BYE attack of `exp_table1 --trace`, with `tap` attached
/// as `capture` before the attacker; `tap` is built from the IDS config
/// for the testbed. Returns the run testbed, the tap and that config.
fn seed1_bye_attack(
    tap: impl FnOnce(ScidiveConfig) -> Box<dyn Node>,
) -> (Testbed, NodeId, ScidiveConfig) {
    let mut tb = TestbedBuilder::new(1)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    let id = tb.add_node("capture", ep.tap_ip, LinkParams::lan(), tap(config.clone()));
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(ByeAttacker::new(ByeAttackConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            ep.b_ip,
            SimDuration::from_micros(1_009_770),
        ))),
    );
    tb.run_for(SimDuration::from_secs(8));
    (tb, id, config)
}

/// The BYE figure of `exp_table1 --trace` (seed 1, its ~9.8 ms strike
/// jitter; the capture tap shifts frame times, not content): the alert
/// names the forged BYE's claimed AOR, the address it came from and its
/// CSeq, identically through one engine and through the sharded
/// pipeline.
#[test]
fn bye_attack_alert_names_the_forged_bye() {
    const MESSAGE: &str = "no RTP should be seen from a user agent after its BYE: orphan \
                           media after teardown; the BYE claimed bob@lab and came from \
                           10.0.0.3 (CSeq 101)";
    let collector = Collector::new();
    let tap = collector.handle();
    let (_, _, config) = seed1_bye_attack(|_| Box::new(collector));
    let frames = tap.borrow().clone();

    let bye_alerts = |alerts: &[Alert]| -> Vec<(String, Option<String>)> {
        alerts
            .iter()
            .filter(|a| a.rule == "bye-attack")
            .map(|a| (a.message.clone(), a.session.as_ref().map(|s| s.to_string())))
            .collect()
    };
    let want = [(
        MESSAGE.to_string(),
        Some("call-alice-5@10.0.0.2".to_string()),
    )];
    let mut single = Scidive::new(config.clone());
    for f in &frames {
        single.on_frame(f.time, &f.packet);
    }
    assert_eq!(bye_alerts(single.alerts()), want);
    for shards in [2, 4] {
        let mut sharded = ShardedScidive::new(config.clone(), shards, 64);
        for f in &frames {
            sharded.submit(f.time, &f.packet);
        }
        assert_eq!(
            bye_alerts(&sharded.finish().alerts),
            want,
            "{shards} shards"
        );
    }
}

/// The simulator seeds each node's link RNG from its name and attach
/// position, so the tap's timing depends on those two alone: an online
/// `IdsNode` and a `Collector` replayed offline, both named `capture`
/// and attached in the same place, raise the same rendered `bye-attack`
/// alert, time included.
#[test]
fn online_and_replayed_taps_agree_when_named_alike() {
    let bye_alerts = |alerts: &[Alert]| -> Vec<String> {
        alerts
            .iter()
            .filter(|a| a.rule == "bye-attack")
            .map(|a| a.to_string())
            .collect()
    };
    let (online, ids, _) = seed1_bye_attack(|config| Box::new(IdsNode::new(config)));
    let live = bye_alerts(&alerts_of(&online, ids));

    let collector = Collector::new();
    let tap = collector.handle();
    let (_, _, config) = seed1_bye_attack(|_| Box::new(collector));
    let mut offline = Scidive::new(config);
    for f in tap.borrow().iter() {
        offline.on_frame(f.time, &f.packet);
    }
    let replayed = bye_alerts(offline.alerts());

    assert_eq!(live.len(), 1, "{live:?}");
    assert_eq!(live, replayed);
}

#[test]
fn call_hijack_detected() {
    let mut tb = TestbedBuilder::new(102)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    let attacker = tb.add_node(
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
    tb.run_for(SimDuration::from_secs(5));

    let alerts = alerts_of(&tb, ids);
    let fired_at = tb
        .sim
        .node_as::<Hijacker>(attacker)
        .unwrap()
        .fired_at
        .expect("attack fired");
    let report = DetectionReport::evaluate(
        &alerts,
        &[InjectedAttack::new("call-hijack", fired_at)],
    );
    assert_eq!(report.detected_count(), 1, "alerts: {alerts:?}");
    assert!(report.outcomes[0].delay().unwrap() <= SimDuration::from_millis(100));
}

#[test]
fn fake_im_detected_and_spoofed_variant_evades() {
    // Unspoofed: detected.
    let mut tb = TestbedBuilder::new(103)
        .a_script(vec![ScriptStep::new(SimDuration::from_millis(10), UaAction::Register)])
        .b_script(vec![ScriptStep::new(SimDuration::from_millis(20), UaAction::Register)])
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(FakeImAttacker::new(FakeImConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            ep.b_ip,
            SimDuration::from_millis(500),
        ))),
    );
    tb.run_for(SimDuration::from_secs(2));
    let alerts = alerts_of(&tb, ids);
    assert!(
        critical_rules(&alerts).contains(&"fake-im"),
        "alerts: {alerts:?}"
    );

    // Spoofed source: the endpoint rule cannot tell (paper's concession).
    let mut tb = TestbedBuilder::new(104)
        .a_script(vec![ScriptStep::new(SimDuration::from_millis(10), UaAction::Register)])
        .b_script(vec![ScriptStep::new(SimDuration::from_millis(20), UaAction::Register)])
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    let mut cfg = FakeImConfig::new(
        ep.attacker_ip,
        ep.a_ip,
        ep.b_ip,
        SimDuration::from_millis(500),
    );
    cfg.spoof_ip = true;
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(FakeImAttacker::new(cfg)),
    );
    tb.run_for(SimDuration::from_secs(2));
    let alerts = alerts_of(&tb, ids);
    assert!(
        !critical_rules(&alerts).contains(&"fake-im"),
        "spoofed fake IM should evade the endpoint rule: {alerts:?}"
    );
}

#[test]
fn rtp_garbage_attack_detected() {
    let mut tb = TestbedBuilder::new(105)
        .standard_call(SimDuration::from_millis(500), None)
        .a_fragile(5)
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(RtpFlooder::new(RtpFloodConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            SimDuration::from_secs(1),
        ))),
    );
    tb.run_for(SimDuration::from_secs(5));
    let alerts = alerts_of(&tb, ids);
    assert!(
        critical_rules(&alerts).contains(&"rtp-attack"),
        "alerts: {alerts:?}"
    );
    // The victim crashed (X-Lite behaviour) — and the IDS saw the attack.
    assert!(tb.ua(tb.a).unwrap().is_crashed());
}

#[test]
fn rtp_wild_seq_attack_detected() {
    let mut tb = TestbedBuilder::new(106)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    let mut cfg = RtpFloodConfig::new(ep.attacker_ip, ep.a_ip, SimDuration::from_secs(1));
    cfg.mode = FloodMode::WildSeq;
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(RtpFlooder::new(cfg)),
    );
    tb.run_for(SimDuration::from_secs(5));
    let alerts = alerts_of(&tb, ids);
    assert!(
        critical_rules(&alerts).contains(&"rtp-attack"),
        "alerts: {alerts:?}"
    );
}

#[test]
fn register_dos_detected() {
    let mut tb = TestbedBuilder::new(107)
        .with_auth(&[("alice", "pw-a"), ("bob", "pw-b")])
        .a_script(vec![ScriptStep::new(SimDuration::from_millis(10), UaAction::Register)])
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(RegisterFlooder::new(RegisterDosConfig::new(
            ep.attacker_ip,
            ep.proxy_ip,
            SimDuration::from_millis(500),
        ))),
    );
    tb.run_for(SimDuration::from_secs(10));
    let alerts = alerts_of(&tb, ids);
    assert!(
        critical_rules(&alerts).contains(&"register-dos"),
        "alerts: {alerts:?}"
    );
    // The benign client's one challenge round-trip is not flagged.
    assert!(!critical_rules(&alerts).contains(&"password-guess"));
}

#[test]
fn password_guessing_detected() {
    let mut tb = TestbedBuilder::new(108)
        .with_auth(&[("alice", "super-secret")])
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(PasswordGuesser::new(PasswordGuessConfig::new(
            ep.attacker_ip,
            ep.proxy_ip,
            SimDuration::from_millis(500),
            10,
        ))),
    );
    tb.run_for(SimDuration::from_secs(10));
    let alerts = alerts_of(&tb, ids);
    assert!(
        critical_rules(&alerts).contains(&"password-guess"),
        "alerts: {alerts:?}"
    );
}

#[test]
fn billing_fraud_detected_cross_protocol() {
    let mut tb = TestbedBuilder::new(109)
        .with_billing_vuln()
        .a_script(vec![ScriptStep::new(SimDuration::from_millis(10), UaAction::Register)])
        .b_script(vec![ScriptStep::new(SimDuration::from_millis(20), UaAction::Register)])
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(BillingFraudster::new(BillingFraudConfig::new(
            ep.attacker_ip,
            ep.proxy_ip,
            SimDuration::from_millis(500),
        ))),
    );
    tb.run_for(SimDuration::from_secs(6));
    let alerts = alerts_of(&tb, ids);
    assert!(
        critical_rules(&alerts).contains(&"billing-fraud"),
        "alerts: {alerts:?}"
    );
    // Ground truth: the victim really was billed.
    assert_eq!(tb.cdrs()[0].caller, "alice@lab");
}

#[test]
fn forged_rtcp_bye_detected_via_rtcp_trail() {
    // Extension attack: the RTCP teardown forgery — same orphan
    // structure as the SIP BYE attack, one protocol further down the
    // paper's SIP→RTP→RTCP chain.
    let mut tb = TestbedBuilder::new(110)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let ids = deploy_ids(&mut tb);
    let attacker = tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(RtcpByeForger::new(RtcpByeConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            ep.b_ip,
            SimDuration::from_millis(800),
        ))),
    );
    tb.run_for(SimDuration::from_secs(4));
    let alerts = alerts_of(&tb, ids);
    let fired_at = tb
        .sim
        .node_as::<RtcpByeForger>(attacker)
        .unwrap()
        .fired_at
        .expect("attack fired");
    let report = DetectionReport::evaluate(
        &alerts,
        &[InjectedAttack::new("rtcp-bye-anomaly", fired_at)],
    );
    assert_eq!(report.detected_count(), 1, "alerts: {alerts:?}");
    // Detection within roughly one RTP period, like the SIP BYE attack.
    assert!(report.outcomes[0].delay().unwrap() <= SimDuration::from_millis(100));
    assert!(report.false_alarms.is_empty(), "{:?}", report.false_alarms);
}

#[test]
fn benign_teardown_rtcp_byes_do_not_alarm() {
    // Legitimate hangups now emit real RTCP BYEs; the rtcp-bye-anomaly
    // rule must stay quiet on them.
    for seed in [111u64, 112, 113] {
        let mut tb = TestbedBuilder::new(seed)
            .standard_call(
                SimDuration::from_millis(500),
                Some(SimDuration::from_secs(3)),
            )
            .build();
        let ids = deploy_ids(&mut tb);
        tb.run_for(SimDuration::from_secs(5));
        let alerts = alerts_of(&tb, ids);
        assert!(
            alerts
                .iter()
                .all(|a| a.severity != Severity::Critical),
            "seed {seed}: {alerts:?}"
        );
    }
}
