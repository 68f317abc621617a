//! The built-in ruleset: one rule per attack the paper covers.
//!
//! Table 1 maps each attack to the protocols involved and whether its
//! rule is cross-protocol and stateful; the structures here carry those
//! attributes so experiment harnesses can reproduce the table.

use crate::alert::{Alert, Severity};
use crate::event::{Event, EventClass, EventKind};
use crate::rules::combo::CombinationRule;
use crate::rules::threshold::{ThresholdRule, ThresholdSpec};
use crate::rules::{AlertSink, Rule, RuleCtx, RuleInterest, RuleStateStats, SessionMap};
use scidive_netsim::time::SimDuration;

/// A rule that fires on any event of the given classes, once per
/// session (or globally de-duplicated by message for session-less
/// events). The fired-once markers live in a [`SessionMap`], so a
/// session idle past the trail timeout sheds its marker along with its
/// trails (and may legitimately alarm again if the attack recurs).
#[derive(Debug)]
pub struct EventRule {
    id: &'static str,
    description: &'static str,
    classes: &'static [EventClass],
    severity: Severity,
    cross_protocol: bool,
    stateful: bool,
    fired_sessions: SessionMap<()>,
    global_fired: u32,
    /// Maximum global (session-less) firings; 0 = unlimited.
    global_cap: u32,
}

impl EventRule {
    /// Creates a single-event rule.
    pub fn new(
        id: &'static str,
        description: &'static str,
        classes: &'static [EventClass],
        severity: Severity,
        cross_protocol: bool,
        stateful: bool,
    ) -> EventRule {
        EventRule {
            id,
            description,
            classes,
            severity,
            cross_protocol,
            stateful,
            fired_sessions: SessionMap::default(),
            global_fired: 0,
            global_cap: 0,
        }
    }
}

impl Rule for EventRule {
    fn id(&self) -> &str {
        self.id
    }

    fn description(&self) -> &str {
        self.description
    }

    fn is_cross_protocol(&self) -> bool {
        self.cross_protocol
    }

    fn is_stateful(&self) -> bool {
        self.stateful
    }

    fn interests(&self) -> RuleInterest {
        RuleInterest::of(self.classes)
    }

    fn on_event(&mut self, ev: &Event, _ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        if !self.classes.contains(&ev.class()) {
            return;
        }
        if let Some(session) = &ev.session {
            if self.fired_sessions.get_mut(session, ev.time).is_some() {
                return;
            }
            self.fired_sessions.insert(session.clone(), (), ev.time);
        } else {
            if self.global_cap != 0 && self.global_fired >= self.global_cap {
                return;
            }
            self.global_fired += 1;
        }
        sink.push(Alert::new(
            self.id,
            self.severity,
            ev.time,
            ev.session.clone(),
            format!("{}: {}", self.description, describe(&ev.kind)),
        ));
    }

    fn set_state_timeout(&mut self, timeout: SimDuration) {
        self.fired_sessions.set_timeout(timeout);
    }

    fn state_stats(&self) -> RuleStateStats {
        self.fired_sessions.gauge().into()
    }

    fn state_signature(&self) -> u64 {
        let mut parts: Vec<&[u8]> = vec![
            b"event",
            self.id.as_bytes(),
            match self.severity {
                Severity::Info => b"i",
                Severity::Warning => b"w",
                Severity::Critical => b"c",
            },
            if self.cross_protocol { b"x" } else { b"-" },
            if self.stateful { b"s" } else { b"-" },
        ];
        parts.extend(self.classes.iter().map(|c| c.name().as_bytes()));
        crate::rate::hash_parts(0x6576_656e_745f_7369, &parts)
    }
}

fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::OrphanRtpAfterBye { flow, gap } => {
            format!("RTP flow {flow} continued {gap} after the BYE")
        }
        EventKind::OrphanRtpAfterRedirect { flow, gap } => {
            format!("RTP flow {flow} continued {gap} after the re-INVITE")
        }
        EventKind::RtpSeqViolation { flow, delta } => {
            format!("sequence jumped by {delta} on {flow}")
        }
        EventKind::RtpUnknownSource { flow } => {
            format!("media from unnegotiated source on {flow}")
        }
        EventKind::MediaPortGarbage { sink, reason } => {
            format!("undecodable media at {}:{} ({reason})", sink.0, sink.1)
        }
        EventKind::ImSourceMismatch {
            claimed_aor,
            src_ip,
            expected_ip,
        } => format!("message claims {claimed_aor} but came from {src_ip} (expected {expected_ip})"),
        EventKind::RegisterFlood { src, count } => {
            format!("{count} request/4xx alternations from {src}")
        }
        EventKind::PasswordGuessing {
            src,
            username,
            distinct_responses,
        } => format!("{distinct_responses} distinct digest responses for {username} from {src}"),
        EventKind::SipMalformed { violations, src } => {
            format!("{} violation(s) from {src}: {}", violations.len(), violations.join("; "))
        }
        EventKind::RtpAfterRtcpBye { flow, ssrc, gap } => {
            format!("SSRC {ssrc:#010x} kept streaming on {flow} {gap} after its RTCP BYE")
        }
        EventKind::AcctMismatch {
            billed,
            observed_caller,
            call_id,
        } => format!(
            "billing charges {billed} for call {call_id} initiated by {}",
            observed_caller.as_deref().unwrap_or("<nobody>")
        ),
        EventKind::Protocol { signal, detail, .. } => format!("{signal}: {detail}"),
        other => format!("{other:?}"),
    }
}

/// Window for rapid-connection (SPIT / war-dial) detection.
pub(crate) const RAPID_WINDOW: SimDuration = SimDuration::from_secs(60);
/// Calls within the window that make a caller suspicious.
pub(crate) const RAPID_ATTEMPTS: u32 = 12;
/// Distinct callees within the window that make it a campaign (a hot
/// legitimate line redials the *same* peer; a SPIT campaign fans out).
pub(crate) const RAPID_DISTINCT: u32 = 8;

/// Clause name shared by the local rule and the fold plane.
pub(crate) const RAPID_CLAUSE: &str = "rapid-connect";

/// The built-in SPIT / war-dialing clause as a compiled
/// [`ThresholdSpec`] — the single definition evaluated by the local
/// [`ThresholdRule`] and by the dispatcher's
/// [`crate::rate::GlobalRatePlane`] under sharding, so a campaign
/// crosses at exactly the same counts regardless of where the
/// evaluation runs. A DSL program declaring the same clause compiles to
/// a spec `==` to this one (hash prefixes, template and all), which is
/// what makes the DSL twin byte-identical.
pub fn rapid_spec() -> ThresholdSpec {
    ThresholdSpec {
        clause: RAPID_CLAUSE,
        class: EventClass::CallEstablished,
        key_field: "caller",
        distinct_field: Some("callee"),
        window: RAPID_WINDOW,
        count_threshold: RAPID_ATTEMPTS,
        distinct_threshold: RAPID_DISTINCT,
        severity: Severity::Critical,
        template: "rapid connections: caller {key} established {count} calls to \
                   {distinct} distinct callees within {window}s",
    }
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
    /// callees (a [`ThresholdRule`] over [`rapid_spec`]).
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

/// Builds the built-in ruleset.
pub fn builtin_ruleset(toggles: &RuleToggles) -> Vec<Box<dyn Rule>> {
    let mut rules: Vec<Box<dyn Rule>> = Vec::new();
    if toggles.bye_attack {
        // The enriched variant: besides matching the event, it performs
        // the paper's "crude information directly from the Trails"
        // lookup to name the BYE's claimed originator.
        rules.push(Box::new(crate::rules::bye_rule::ByeAttackRule::new()));
    }
    if toggles.call_hijack {
        rules.push(Box::new(EventRule::new(
            "call-hijack",
            "no RTP should be seen from an endpoint after its re-INVITE moved it",
            &[EventClass::OrphanRtpAfterRedirect],
            Severity::Critical,
            true,
            true,
        )));
    }
    if toggles.fake_im {
        rules.push(Box::new(EventRule::new(
            "fake-im",
            "instant-message source must match the claimed sender",
            &[EventClass::ImSourceMismatch],
            Severity::Critical,
            true,  // SIP + IP
            false, // per Table 1: an address check, not session state
        )));
    }
    if toggles.rtp_attack {
        rules.push(Box::new(EventRule::new(
            "rtp-attack",
            "RTP must come from a negotiated source with disciplined sequence numbers",
            &[
                EventClass::RtpSeqViolation,
                EventClass::RtpUnknownSource,
                EventClass::MediaPortGarbage,
            ],
            Severity::Critical,
            true, // RTP + IP
            true, // sequence history
        )));
    }
    if toggles.register_dos {
        rules.push(Box::new(EventRule::new(
            "register-dos",
            "repeated unauthenticated requests answered by 4xx",
            &[EventClass::RegisterFlood],
            Severity::Critical,
            false,
            true,
        )));
    }
    if toggles.password_guess {
        rules.push(Box::new(EventRule::new(
            "password-guess",
            "many distinct digest responses against one account",
            &[EventClass::PasswordGuessing],
            Severity::Critical,
            false,
            true,
        )));
    }
    if toggles.billing_fraud {
        rules.push(Box::new(
            CombinationRule::new(
                "billing-fraud",
                "malformed call setup whose billing attribution has no matching SIP initiation",
                vec![EventClass::SipMalformed, EventClass::AcctMismatch],
                SimDuration::from_secs(120),
            )
            .with_severity(Severity::Critical),
        ));
    }
    if toggles.rtcp_bye {
        rules.push(Box::new(EventRule::new(
            "rtcp-bye-anomaly",
            "a source must stop transmitting after its RTCP BYE",
            &[EventClass::RtpAfterRtcpBye],
            Severity::Critical,
            true, // RTP + RTCP
            true, // per-SSRC goodbye state
        )));
    }
    if toggles.sip_format {
        rules.push(Box::new(EventRule::new(
            "sip-format",
            "SIP message violates mandatory format",
            &[EventClass::SipMalformed],
            Severity::Warning,
            false,
            false,
        )));
    }
    if toggles.mgcp {
        rules.push(Box::new(crate::proto::mgcp::MgcpTeardownRule::new()));
    }
    if toggles.rapid_connect {
        // Appended last so the alert ordering of the pre-existing rules
        // is untouched.
        rules.push(Box::new(ThresholdRule::new(rapid_spec())));
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlowKey;
    use crate::rules::collect_alerts;
    use crate::trail::{SessionKey, TrailStore, TrailStoreConfig};
    use scidive_netsim::time::SimTime;
    use std::net::Ipv4Addr;

    fn orphan_event(session: &str) -> Event {
        Event {
            time: SimTime::from_millis(10),
            session: Some(SessionKey::new(session)),
            kind: EventKind::OrphanRtpAfterBye {
                flow: FlowKey {
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: 8000,
                },
                gap: SimDuration::from_millis(4),
            },
        }
    }

    #[test]
    fn default_ruleset_has_all_rules() {
        let rules = builtin_ruleset(&RuleToggles::default());
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        for expected in [
            "bye-attack",
            "call-hijack",
            "fake-im",
            "rtp-attack",
            "register-dos",
            "password-guess",
            "billing-fraud",
            "sip-format",
            "mgcp-teardown",
            "rapid-connect",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
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
    fn event_rule_fires_once_per_session() {
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = EventRule::new(
            "bye-attack",
            "test",
            &[EventClass::OrphanRtpAfterBye],
            Severity::Critical,
            true,
            true,
        );
        assert_eq!(collect_alerts(&mut rule, &orphan_event("c1"), &ctx).len(), 1);
        assert_eq!(collect_alerts(&mut rule, &orphan_event("c1"), &ctx).len(), 0);
        assert_eq!(collect_alerts(&mut rule, &orphan_event("c2"), &ctx).len(), 1);
        assert_eq!(rule.state_stats().sessions, 2);
    }

    #[test]
    fn event_rule_fired_marker_expires_with_idle_sessions() {
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = EventRule::new(
            "bye-attack",
            "test",
            &[EventClass::OrphanRtpAfterBye],
            Severity::Critical,
            true,
            true,
        );
        rule.set_state_timeout(SimDuration::from_secs(2));
        assert_eq!(collect_alerts(&mut rule, &orphan_event("c1"), &ctx).len(), 1);
        // The same session recurring after the idle timeout alarms
        // again: its trails (and thus the marker's context) are gone.
        let mut late = orphan_event("c1");
        late.time = SimTime::from_secs(60);
        assert_eq!(collect_alerts(&mut rule, &late, &ctx).len(), 1);
        assert_eq!(rule.state_stats().expired, 1);
    }

    #[test]
    fn event_rule_declares_its_classes_as_interests() {
        let rule = EventRule::new(
            "rtp-attack",
            "test",
            &[EventClass::RtpSeqViolation, EventClass::RtpUnknownSource],
            Severity::Critical,
            true,
            true,
        );
        let i = rule.interests();
        assert!(i.contains(EventClass::RtpSeqViolation));
        assert!(i.contains(EventClass::RtpUnknownSource));
        assert!(!i.contains(EventClass::OrphanRtpAfterBye));
        assert!(!i.is_all());
    }

    #[test]
    fn table1_attributes() {
        let rules = builtin_ruleset(&RuleToggles::default());
        let find = |id: &str| {
            rules
                .iter()
                .find(|r| r.id() == id)
                .unwrap_or_else(|| panic!("missing {id}"))
        };
        // Table 1 rows.
        assert!(find("bye-attack").is_cross_protocol());
        assert!(find("bye-attack").is_stateful());
        assert!(find("fake-im").is_cross_protocol());
        assert!(!find("fake-im").is_stateful());
        assert!(find("call-hijack").is_cross_protocol());
        assert!(find("call-hijack").is_stateful());
        assert!(find("rtp-attack").is_cross_protocol());
        assert!(find("rtp-attack").is_stateful());
    }

    #[test]
    fn alert_messages_are_descriptive() {
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = EventRule::new(
            "bye-attack",
            "no RTP after BYE",
            &[EventClass::OrphanRtpAfterBye],
            Severity::Critical,
            true,
            true,
        );
        let alerts = collect_alerts(&mut rule, &orphan_event("c1"), &ctx);
        assert!(alerts[0].message.contains("10.0.0.3"));
        assert!(alerts[0].message.contains("after the BYE"));
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
        let mut rule = ThresholdRule::new(rapid_spec());
        let mut alerts = Vec::new();
        for n in 0..RAPID_ATTEMPTS + 3 {
            let ev = call_event(n, "spitter@lab", &format!("victim-{n}@lab"));
            let ctx = RuleCtx {
                now: ev.time,
                trails: &store,
                rates,
            };
            alerts.extend(collect_alerts(&mut rule, &ev, &ctx));
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
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let mut rule = ThresholdRule::new(rapid_spec());
        for n in 0..4 * RAPID_ATTEMPTS {
            // A hot legitimate line: many calls, one peer.
            let ev = call_event(n, "alice@lab", "bob@lab");
            let ctx = RuleCtx {
                now: ev.time,
                trails: &store,
                rates: &rates,
            };
            assert!(collect_alerts(&mut rule, &ev, &ctx).is_empty());
        }
    }

    #[test]
    fn rapid_connect_window_forgets_slow_fanout() {
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let mut rule = ThresholdRule::new(rapid_spec());
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
            assert!(collect_alerts(&mut rule, &ev, &ctx).is_empty());
        }
    }
}
