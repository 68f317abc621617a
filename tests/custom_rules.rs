//! Operator-defined rules from the text spec, deployed against real
//! attack traffic: the paper's "extended for detecting new classes of
//! attacks" without code changes.

use scidive::prelude::*;

fn hijack_capture(seed: u64) -> (Trace, Endpoints) {
    let mut tb = TestbedBuilder::new(seed)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
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
    (tb.sim.trace().clone(), ep)
}

#[test]
fn spec_rule_catches_hijack_with_builtins_disabled() {
    let (trace, ep) = hijack_capture(1001);
    // Engine with ALL built-in rules off; only the operator spec armed.
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    config.rules = RuleToggles {
        bye_attack: false,
        call_hijack: false,
        fake_im: false,
        rtp_attack: false,
        register_dos: false,
        password_guess: false,
        billing_fraud: false,
        sip_format: false,
        rtcp_bye: false,
        mgcp: false,
        rapid_connect: false,
    };
    let mut ids = Scidive::new(config);
    let installed = ids
        .add_rules_from_spec(
            "# operator: watch for redirects followed by orphan media\n\
             rule ops-hijack severity critical window 1s {\n\
                 sequence CallRedirected, OrphanRtpAfterRedirect\n\
             }\n",
        )
        .unwrap();
    assert_eq!(installed, 1);
    for rec in trace.records() {
        ids.on_frame(rec.time, &rec.packet);
    }
    let alerts = ids.alerts();
    assert!(
        alerts.iter().any(|a| a.rule == "ops-hijack"),
        "{alerts:?}"
    );
    // Nothing else fired (no built-ins were armed).
    assert!(alerts.iter().all(|a| a.rule == "ops-hijack"));
}

#[test]
fn spec_rules_stay_quiet_on_benign_traffic() {
    let mut tb = TestbedBuilder::new(1002)
        .standard_call(
            SimDuration::from_millis(500),
            Some(SimDuration::from_secs(3)),
        )
        .b_script(vec![ScriptStep::new(
            SimDuration::from_secs(2),
            UaAction::MigrateMedia { new_rtp_port: 9600 },
        )])
        .build();
    tb.run_for(SimDuration::from_secs(5));

    let mut ids = Scidive::new(ScidiveConfig::default());
    ids.add_rules_from_spec(
        "rule ops-hijack severity critical window 1s {\n\
             sequence CallRedirected, OrphanRtpAfterRedirect\n\
         }\n\
         rule ops-fraud severity critical window 60s {\n\
             all-of SipMalformed, AcctMismatch\n\
         }\n",
    )
    .unwrap();
    for rec in tb.sim.trace().records() {
        ids.on_frame(rec.time, &rec.packet);
    }
    // Genuine mobility produced a CallRedirected event but no orphan:
    // the operator sequence rule must not fire.
    assert!(
        ids.alerts()
            .iter()
            .all(|a| a.severity != Severity::Critical),
        "{:?}",
        ids.alerts()
    );
}

#[test]
fn bad_spec_installs_nothing() {
    let mut ids = Scidive::new(ScidiveConfig::default());
    let err = ids
        .add_rules_from_spec("rule broken {\n sequence NoSuchClass\n}\n")
        .unwrap_err();
    assert!(err.to_string().contains("NoSuchClass"));
}

/// Forged IMs raise session-less events: there is no dialog to latch
/// on, so an operator `any-of` rule alerts on each forgery, as the
/// builtin `fake-im` does — two attackers, two alerts.
#[test]
fn session_less_operator_rule_alerts_on_every_forged_im() {
    let mut tb = TestbedBuilder::new(1003)
        .a_script(vec![ScriptStep::new(SimDuration::from_millis(10), UaAction::Register)])
        .b_script(vec![ScriptStep::new(SimDuration::from_millis(20), UaAction::Register)])
        .build();
    let ep = tb.endpoints.clone();
    let second_attacker = std::net::Ipv4Addr::new(10, 0, 0, 67);
    for (name, ip, at) in [
        ("attacker", ep.attacker_ip, 500),
        ("attacker-2", second_attacker, 800),
    ] {
        tb.add_node(
            name,
            ip,
            LinkParams::lan(),
            Box::new(FakeImAttacker::new(FakeImConfig::new(
                ip,
                ep.a_ip,
                ep.b_ip,
                SimDuration::from_millis(at),
            ))),
        );
    }
    tb.run_for(SimDuration::from_secs(2));

    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    config.rules = RuleToggles {
        bye_attack: false,
        call_hijack: false,
        fake_im: false,
        rtp_attack: false,
        register_dos: false,
        password_guess: false,
        billing_fraud: false,
        sip_format: false,
        rtcp_bye: false,
        mgcp: false,
        rapid_connect: false,
    };
    let mut ids = Scidive::new(config);
    ids.add_rules_from_spec("rule ops-im { any-of ImSourceMismatch }")
        .unwrap();
    for rec in tb.sim.trace().records() {
        ids.on_frame(rec.time, &rec.packet);
    }
    let sources: Vec<bool> = ids
        .alerts()
        .iter()
        .map(|a| a.message.contains(&second_attacker.to_string()))
        .collect();
    assert_eq!(sources, [false, true], "{:?}", ids.alerts());
}
