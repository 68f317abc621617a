//! The built-in ruleset: one rule per attack the paper covers.
//!
//! Every builtin is a clause of `builtin.scid`, parsed once per process
//! and lowered by the same DSL compiler as an operator's program, so the
//! paper's detections and an operator's are one rule path. Table 1 maps each attack to the protocols involved and
//! whether its rule is cross-protocol and stateful; those columns are
//! the rules' header flags in that text, which is where the experiment
//! harnesses read them from.

use crate::rules::dsl::{self, Program};
use crate::rules::threshold::ThresholdSpec;
use crate::rules::Rule;
use std::sync::OnceLock;

/// The builtin program, parsed and validated once per process.
pub(crate) fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        Program::parse(include_str!("builtin.scid")).expect("builtin.scid compiles")
    })
}

/// The built-in SPIT / war-dialing clause, `rapid-connect` of
/// `builtin.scid`, as a compiled [`ThresholdSpec`] — the single
/// definition evaluated by the local [`crate::rules::ThresholdRule`] and
/// by the dispatcher's [`crate::rate::GlobalRatePlane`] under sharding,
/// so a campaign crosses at exactly the same counts regardless of where
/// the evaluation runs.
pub fn rapid_spec() -> ThresholdSpec {
    dsl::threshold_specs(program())
        .into_iter()
        .find(|spec| spec.clause == "rapid-connect")
        .expect("builtin.scid declares rapid-connect")
}

/// Which built-in rules to install (ablation knobs).
#[derive(Debug, Clone)]
pub struct RuleToggles {
    /// §4.2.1 BYE attack.
    pub bye_attack: bool,
    /// §4.2.3 call hijacking.
    pub call_hijack: bool,
    /// §4.2.2 fake instant messaging.
    pub fake_im: bool,
    /// §4.2.4 RTP attack.
    pub rtp_attack: bool,
    /// §3.3 REGISTER-flood DoS.
    pub register_dos: bool,
    /// §3.3 password guessing.
    pub password_guess: bool,
    /// §3.2 billing fraud (cross-protocol combination).
    pub billing_fraud: bool,
    /// SIP format discipline (warning-level).
    pub sip_format: bool,
    /// RTCP BYE vs. continuing media consistency.
    pub rtcp_bye: bool,
    /// MGCP gateway teardown evasion (inert unless the MGCP protocol
    /// module is registered — without it the rule's event never fires).
    pub mgcp: bool,
    /// SPIT / war-dialing: one caller fanning out to many distinct
    /// callees (the `threshold` clause [`rapid_spec`]).
    pub rapid_connect: bool,
}

impl Default for RuleToggles {
    fn default() -> RuleToggles {
        RuleToggles {
            bye_attack: true,
            call_hijack: true,
            fake_im: true,
            rtp_attack: true,
            register_dos: true,
            password_guess: true,
            billing_fraud: true,
            sip_format: true,
            rtcp_bye: true,
            mgcp: true,
            rapid_connect: true,
        }
    }
}

impl RuleToggles {
    /// Whether the builtin rule `id` is switched on.
    pub(crate) fn includes(&self, id: &str) -> bool {
        match id {
            "bye-attack" => self.bye_attack,
            "call-hijack" => self.call_hijack,
            "fake-im" => self.fake_im,
            "rtp-attack" => self.rtp_attack,
            "register-dos" => self.register_dos,
            "password-guess" => self.password_guess,
            "billing-fraud" => self.billing_fraud,
            "sip-format" => self.sip_format,
            "rtcp-bye-anomaly" => self.rtcp_bye,
            "mgcp-teardown" => self.mgcp,
            "rapid-connect" => self.rapid_connect,
            other => unreachable!("builtin rule `{other}` has no toggle"),
        }
    }
}

/// Builds the built-in ruleset: the toggled rules of `builtin.scid` in
/// declaration order.
pub fn builtin_ruleset(toggles: &RuleToggles) -> Vec<Box<dyn Rule>> {
    dsl::compile_program(program())
        .into_iter()
        .filter(|rule| toggles.includes(rule.id()))
        .collect()
}

/// Window of the hand-written rapid-connect spec `builtin.scid` replaced.
#[cfg(test)]
pub(crate) const RAPID_WINDOW: scidive_netsim::time::SimDuration =
    scidive_netsim::time::SimDuration::from_secs(60);
/// Calls within the window that make a caller suspicious.
#[cfg(test)]
pub(crate) const RAPID_ATTEMPTS: u32 = 12;
/// Distinct callees within the window that make it a campaign (a hot
/// legitimate line redials the *same* peer; a SPIT campaign fans out).
#[cfg(test)]
pub(crate) const RAPID_DISTINCT: u32 = 8;
/// Clause name shared by the local rule and the fold plane.
#[cfg(test)]
pub(crate) const RAPID_CLAUSE: &str = "rapid-connect";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::{Alert, Severity};
    use crate::event::{Event, EventClass, EventKind, FlowKey};
    use crate::rules::{collect_alerts, RuleCtx};
    use crate::trail::{SessionKey, TrailStore, TrailStoreConfig};
    use scidive_netsim::time::{SimDuration, SimTime};
    use std::net::Ipv4Addr;

    /// Install order, which the alert order of every run depends on.
    const IDS: [&str; 11] = [
        "bye-attack",
        "call-hijack",
        "fake-im",
        "rtp-attack",
        "register-dos",
        "password-guess",
        "billing-fraud",
        "rtcp-bye-anomaly",
        "sip-format",
        "mgcp-teardown",
        "rapid-connect",
    ];

    /// A freshly built builtin rule, looked up by id.
    fn builtin(id: &str) -> Box<dyn Rule> {
        builtin_ruleset(&RuleToggles::default())
            .into_iter()
            .find(|r| r.id() == id)
            .unwrap_or_else(|| panic!("missing {id}"))
    }

    fn orphan_event(session: &str) -> Event {
        Event {
            time: SimTime::from_millis(10),
            session: Some(SessionKey::new(session)),
            kind: EventKind::OrphanRtpAfterRedirect {
                flow: FlowKey {
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: 8000,
                },
                gap: SimDuration::from_millis(4),
            },
        }
    }

    fn harness() -> (TrailStore, crate::rate::RateHub) {
        (
            TrailStore::new(TrailStoreConfig::default()),
            crate::rate::RateHub::default(),
        )
    }

    #[test]
    fn default_ruleset_installs_every_rule_in_order() {
        let rules = builtin_ruleset(&RuleToggles::default());
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids, IDS);
    }

    #[test]
    fn toggles_remove_rules() {
        let toggles = RuleToggles {
            bye_attack: false,
            billing_fraud: false,
            ..RuleToggles::default()
        };
        let ids: Vec<String> = builtin_ruleset(&toggles)
            .iter()
            .map(|r| r.id().to_string())
            .collect();
        assert!(!ids.contains(&"bye-attack".to_string()));
        assert!(!ids.contains(&"billing-fraud".to_string()));
        assert!(ids.contains(&"call-hijack".to_string()));
    }

    #[test]
    fn builtin_program_checks_clean_and_prints_to_a_fixed_point() {
        let (parsed, warnings) = Program::check(include_str!("builtin.scid")).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let printed = dsl::print_program(&parsed);
        let reparsed = Program::parse(&printed).unwrap();
        assert_eq!(reparsed, parsed, "printing lost a header item or clause");
        assert_eq!(dsl::print_program(&reparsed), printed);
    }

    /// The `threshold` clause of `builtin.scid` is the spec that was
    /// written out by hand in Rust before it, field for field.
    #[test]
    fn rapid_spec_is_the_hand_written_spec() {
        let spec = rapid_spec();
        assert_eq!(spec.clause, RAPID_CLAUSE);
        assert_eq!(spec.class, EventClass::CallEstablished);
        assert_eq!(spec.key_field, "caller");
        assert_eq!(spec.distinct_field, Some("callee"));
        assert_eq!(spec.window, RAPID_WINDOW);
        assert_eq!(spec.count_threshold, RAPID_ATTEMPTS);
        assert_eq!(spec.distinct_threshold, RAPID_DISTINCT);
        assert_eq!(spec.severity, Severity::Critical);
        assert_eq!(
            spec.template,
            "rapid connections: caller {key} established {count} calls to \
             {distinct} distinct callees within {window}s"
        );
        let blueprint = crate::rules::RulesetBlueprint {
            toggles: RuleToggles::default(),
            program: None,
            generation: 0,
        };
        assert_eq!(blueprint.threshold_specs(), vec![spec]);
    }

    #[test]
    fn fire_once_rule_fires_once_per_session() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = builtin("call-hijack");
        assert_eq!(
            collect_alerts(rule.as_mut(), &orphan_event("c1"), &ctx).len(),
            1
        );
        assert_eq!(
            collect_alerts(rule.as_mut(), &orphan_event("c1"), &ctx).len(),
            0
        );
        assert_eq!(
            collect_alerts(rule.as_mut(), &orphan_event("c2"), &ctx).len(),
            1
        );
        assert_eq!(rule.state_stats().sessions, 2);
    }

    #[test]
    fn fire_once_marker_expires_with_idle_sessions() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = builtin("call-hijack");
        rule.set_state_timeout(SimDuration::from_secs(2));
        assert_eq!(
            collect_alerts(rule.as_mut(), &orphan_event("c1"), &ctx).len(),
            1
        );
        // The same session recurring after the idle timeout alarms
        // again: its trails (and thus the marker's context) are gone.
        let mut late = orphan_event("c1");
        late.time = SimTime::from_secs(60);
        assert_eq!(collect_alerts(rule.as_mut(), &late, &ctx).len(), 1);
        assert_eq!(rule.state_stats().expired, 1);
    }

    #[test]
    fn fire_once_rule_declares_its_classes_as_interests() {
        let i = builtin("rtp-attack").interests();
        assert!(i.contains(EventClass::RtpSeqViolation));
        assert!(i.contains(EventClass::RtpUnknownSource));
        assert!(i.contains(EventClass::MediaPortGarbage));
        assert!(!i.contains(EventClass::OrphanRtpAfterBye));
        assert!(!i.is_all());
    }

    /// Table 1's columns for every builtin, as `builtin.scid` declares
    /// them.
    #[test]
    fn table1_attributes() {
        let rules = builtin_ruleset(&RuleToggles::default());
        let columns: Vec<(&str, bool, bool)> = rules
            .iter()
            .map(|r| (r.id(), r.is_cross_protocol(), r.is_stateful()))
            .collect();
        assert_eq!(
            columns,
            [
                ("bye-attack", true, true),
                ("call-hijack", true, true),
                ("fake-im", true, false),
                ("rtp-attack", true, true),
                ("register-dos", false, true),
                ("password-guess", false, true),
                ("billing-fraud", true, true),
                ("rtcp-bye-anomaly", true, true),
                ("sip-format", false, false),
                ("mgcp-teardown", true, true),
                ("rapid-connect", false, true),
            ]
        );
    }

    #[test]
    fn alert_messages_are_descriptive() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = builtin("call-hijack");
        let alerts = collect_alerts(rule.as_mut(), &orphan_event("c1"), &ctx);
        assert_eq!(
            alerts[0].message,
            "no RTP should be seen from an endpoint after its re-INVITE moved it: \
             RTP flow 10.0.0.3 -> 10.0.0.2:8000 continued 4.000ms after the re-INVITE"
        );
    }

    /// `bye-attack` names the BYE's originator from its event alone: an
    /// empty trail store changes nothing, and it fires once per session.
    #[test]
    fn bye_attack_names_the_originator_without_reading_trails() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = builtin("bye-attack");
        let mut ev = orphan_event("c1");
        ev.kind = EventKind::OrphanRtpAfterBye {
            flow: FlowKey {
                src: Ipv4Addr::new(10, 0, 0, 3),
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dst_port: 8000,
            },
            gap: SimDuration::from_millis(4),
            bye: crate::event::ByeOrigin {
                claimed_aor: Some("bob@lab".to_string()),
                src_ip: Ipv4Addr::new(10, 0, 0, 66),
                cseq: Some(101),
            },
        };
        let alerts = collect_alerts(rule.as_mut(), &ev, &ctx);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].severity, Severity::Critical);
        assert_eq!(
            alerts[0].message,
            "no RTP should be seen from a user agent after its BYE: orphan media after \
             teardown; the BYE claimed bob@lab and came from 10.0.0.66 (CSeq 101)"
        );
        assert!(collect_alerts(rule.as_mut(), &ev, &ctx).is_empty());
    }

    /// The MGCP rule matches its module's signal, not its class alone.
    #[test]
    fn mgcp_teardown_matches_the_orphan_signal_only() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = builtin("mgcp-teardown");
        let mut ev = Event {
            time: SimTime::from_millis(10),
            session: Some(SessionKey::new("gw")),
            kind: EventKind::Protocol {
                class: EventClass::Ext1,
                signal: "some-other-signal",
                detail: "x".to_string(),
            },
        };
        assert!(collect_alerts(rule.as_mut(), &ev, &ctx).is_empty());
        ev.kind = EventKind::Protocol {
            class: EventClass::Ext1,
            signal: crate::proto::mgcp::ORPHAN_SIGNAL,
            detail: "flow 12us after DLCX".to_string(),
        };
        let alerts = collect_alerts(rule.as_mut(), &ev, &ctx);
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].message,
            "RTP continues after a DLCX deleted the gateway connection: \
             mgcp-rtp-after-dlcx: flow 12us after DLCX"
        );
    }

    fn call_event(n: u32, caller: &str, callee: &str) -> Event {
        Event {
            time: SimTime::from_millis(100 * u64::from(n)),
            session: Some(SessionKey::new(format!("dialog-{n}"))),
            kind: EventKind::CallEstablished {
                caller: caller.to_string(),
                callee: callee.to_string(),
            },
        }
    }

    /// Drives a fan-out campaign (one caller, distinct callees, all
    /// within the window) through the rule under the given hub and
    /// returns the alerts.
    fn rapid_campaign(rates: &crate::rate::RateHub) -> Vec<Alert> {
        let store = TrailStore::new(TrailStoreConfig::default());
        let mut rule = builtin("rapid-connect");
        let mut alerts = Vec::new();
        for n in 0..RAPID_ATTEMPTS + 3 {
            let ev = call_event(n, "spitter@lab", &format!("victim-{n}@lab"));
            let ctx = RuleCtx {
                now: ev.time,
                trails: &store,
                rates,
            };
            alerts.extend(collect_alerts(rule.as_mut(), &ev, &ctx));
        }
        alerts
    }

    #[test]
    fn rapid_connect_fires_once_on_fanout() {
        let rates = crate::rate::RateHub::default();
        let alerts = rapid_campaign(&rates);
        assert_eq!(alerts.len(), 1, "one alert for the campaign");
        assert_eq!(alerts[0].rule, "rapid-connect");
        assert!(alerts[0].message.contains("spitter@lab"));
        assert!(alerts[0].message.contains("12 calls"));
    }

    /// A shard worker under the fold plane decides nothing: the same
    /// campaign raises no local alert and every observation is shipped.
    #[test]
    fn rapid_connect_forwards_instead_of_judging_under_the_fold() {
        let rates = crate::rate::RateHub::new_aggregated(crate::rate::RateConfig::default(), true);
        assert!(rapid_campaign(&rates).is_empty());
        let delta = rates.take_delta();
        assert_eq!(delta.observations.len() as u32, RAPID_ATTEMPTS + 3);
        assert!(delta
            .observations
            .iter()
            .all(|o| o.clause == RAPID_CLAUSE && o.display == "spitter@lab"));
    }

    #[test]
    fn rapid_connect_ignores_redials_to_one_callee() {
        let (store, rates) = harness();
        let mut rule = builtin("rapid-connect");
        for n in 0..4 * RAPID_ATTEMPTS {
            // A hot legitimate line: many calls, one peer.
            let ev = call_event(n, "alice@lab", "bob@lab");
            let ctx = RuleCtx {
                now: ev.time,
                trails: &store,
                rates: &rates,
            };
            assert!(collect_alerts(rule.as_mut(), &ev, &ctx).is_empty());
        }
    }

    #[test]
    fn rapid_connect_window_forgets_slow_fanout() {
        let (store, rates) = harness();
        let mut rule = builtin("rapid-connect");
        for n in 0..4 * RAPID_ATTEMPTS {
            // One call every two minutes never accumulates in the 60s
            // window, distinct callees or not.
            let mut ev = call_event(n, "slow@lab", &format!("peer-{n}@lab"));
            ev.time = SimTime::from_secs(120 * u64::from(n));
            let ctx = RuleCtx {
                now: ev.time,
                trails: &store,
                rates: &rates,
            };
            assert!(collect_alerts(rule.as_mut(), &ev, &ctx).is_empty());
        }
    }
}
