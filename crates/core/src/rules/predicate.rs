//! Event-class predicate rules: `any-of` / `match` clause bodies.
//!
//! A [`PredicateRule`] is the compiled form of the DSL's `any-of` (and
//! its synonym `match`) clause: a list of [`ClassMatcher`]s, each an
//! event class plus zero or more field predicates over the payload
//! fields [`EventKind::field`] exposes. It is the one fire-once rule:
//! every single-event builtin (`call-hijack`, `fake-im`, `rtp-attack`,
//! ..., `mgcp-teardown`) is an `any-of` clause in `builtin.scid`. A
//! match alerts once per session per rule — and on every match of a
//! session-less event, whose source is the only identity it has — with
//! message `"{description}: {event}"`.
//!
//! The [`RuleInterest`] of a predicate rule is *derived*: exactly the
//! classes its matchers name. Field predicates can only narrow a
//! matcher, never widen it, so the derived interest set is sound by
//! construction — a class no matcher names can never match.

use crate::alert::{Alert, Severity};
use crate::event::{Event, EventClass, EventKind, FieldValue};
use crate::rules::{AlertSink, Rule, RuleCtx, RuleInfo, RuleInterest, RuleStateStats, SessionMap};
use scidive_netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// Comparison operator of a field predicate. Which operators are legal
/// against which field types is enforced by the DSL validator
/// (`contains` needs text, ordering needs numbers); at evaluation time
/// an ill-typed comparison is simply false.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// Substring containment (text fields only).
    Contains,
}

impl CmpOp {
    /// The operator's surface syntax, for printing and diagnostics.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Contains => "contains",
        }
    }

    fn ordering_holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Ge => ord.is_ge(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Contains => false,
        }
    }
}

/// A literal a field is compared against.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PredValue {
    /// An integer literal.
    Int(i64),
    /// A quoted string literal (also matches IP-typed fields by
    /// parsing the string as an address).
    Str(String),
}

/// One field comparison, e.g. `delta >= 1000` or `caller contains "@lab"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldPredicate {
    /// Field name, interned — one of [`EventKind::field_names`] for the
    /// matcher's class.
    pub field: &'static str,
    /// The comparison.
    pub op: CmpOp,
    /// The right-hand literal.
    pub value: PredValue,
}

impl FieldPredicate {
    /// Whether the predicate holds for the event payload. A field the
    /// payload does not carry (optional payloads, or a name unknown to
    /// this class) never matches — not even under `!=` — so predicates
    /// only ever narrow a matcher.
    fn matches(&self, kind: &EventKind) -> bool {
        let Some(actual) = kind.field(self.field) else {
            return false;
        };
        match (&actual, &self.value) {
            (FieldValue::Int(have), PredValue::Int(want)) => {
                self.op.ordering_holds(have.cmp(want))
            }
            (FieldValue::Str(have), PredValue::Str(want)) => match self.op {
                CmpOp::Contains => have.contains(want.as_str()),
                op => op.ordering_holds(have.cmp(&want.as_str())),
            },
            (FieldValue::Ip(have), PredValue::Str(want)) => want
                .parse::<Ipv4Addr>()
                .is_ok_and(|want| self.op.ordering_holds(have.cmp(&want))),
            _ => false,
        }
    }
}

/// An event class plus the predicates that must all hold for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassMatcher {
    /// The event class this matcher accepts.
    pub class: EventClass,
    /// Conjunction of field predicates (empty = class alone matches).
    pub preds: Vec<FieldPredicate>,
}

impl ClassMatcher {
    fn matches(&self, ev: &Event) -> bool {
        ev.class() == self.class && self.preds.iter().all(|p| p.matches(&ev.kind))
    }
}

/// A fire-once rule matching any of its class matchers: one alert per
/// session, and one per session-less match.
#[derive(Debug)]
pub struct PredicateRule {
    id: String,
    info: RuleInfo,
    matchers: Vec<ClassMatcher>,
    severity: Severity,
    fired: SessionMap<()>,
}

impl PredicateRule {
    /// Creates the rule. `matchers` must be non-empty (the DSL
    /// validator guarantees this; an empty rule would match nothing and
    /// derive an empty interest anyway).
    pub fn new(
        id: impl Into<String>,
        info: impl Into<RuleInfo>,
        matchers: Vec<ClassMatcher>,
        severity: Severity,
    ) -> PredicateRule {
        PredicateRule {
            id: id.into(),
            info: info.into(),
            matchers,
            severity,
            fired: SessionMap::default(),
        }
    }
}

impl Rule for PredicateRule {
    fn id(&self) -> &str {
        &self.id
    }

    fn description(&self) -> &str {
        &self.info.description
    }

    fn is_cross_protocol(&self) -> bool {
        self.info.cross_protocol
    }

    fn is_stateful(&self) -> bool {
        self.info.stateful
    }

    fn interests(&self) -> RuleInterest {
        let classes: Vec<EventClass> = self.matchers.iter().map(|m| m.class).collect();
        RuleInterest::of(&classes)
    }

    fn state_signature(&self) -> u64 {
        let mut parts: Vec<Vec<u8>> = vec![self.id.as_bytes().to_vec(), vec![self.severity as u8]];
        parts.extend(self.info.signature_parts().map(<[u8]>::to_vec));
        for m in &self.matchers {
            parts.push(m.class.name().as_bytes().to_vec());
            for p in &m.preds {
                parts.push(p.field.as_bytes().to_vec());
                parts.push(p.op.symbol().as_bytes().to_vec());
                match &p.value {
                    PredValue::Int(i) => parts.push(i.to_le_bytes().to_vec()),
                    PredValue::Str(s) => parts.push(s.as_bytes().to_vec()),
                }
            }
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        crate::rate::hash_parts(0x7072_6564_5f73_6967, &refs)
    }

    fn on_event(&mut self, ev: &Event, _ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        if !self.matchers.iter().any(|m| m.matches(ev)) {
            return;
        }
        if let Some(session) = &ev.session {
            if self.fired.get_mut(session, ev.time).is_some() {
                return;
            }
            self.fired.insert(session.clone(), (), ev.time);
        }
        sink.push(Alert::new(
            self.id.clone(),
            self.severity,
            ev.time,
            ev.session.clone(),
            format!("{}: {}", self.info.description, ev.kind),
        ));
    }

    fn set_state_timeout(&mut self, timeout: SimDuration) {
        self.fired.set_timeout(timeout);
    }

    fn state_stats(&self) -> RuleStateStats {
        self.fired.gauge().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlowKey;
    use crate::rules::collect_alerts;
    use crate::trail::{SessionKey, TrailStore, TrailStoreConfig};
    use scidive_netsim::time::SimTime;

    fn seq_violation(session: &str, delta: i32) -> Event {
        Event {
            time: SimTime::from_millis(1),
            session: Some(SessionKey::new(session)),
            kind: EventKind::RtpSeqViolation {
                flow: FlowKey {
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: 8000,
                },
                delta,
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
    fn class_only_matcher_behaves_like_any_of() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(5),
            trails: &store,
            rates: &rates,
        };
        let mut rule = PredicateRule::new(
            "ops",
            "test",
            vec![ClassMatcher {
                class: EventClass::RtpSeqViolation,
                preds: vec![],
            }],
            Severity::Critical,
        );
        let ev = seq_violation("c1", 7000);
        assert_eq!(collect_alerts(&mut rule, &ev, &ctx).len(), 1);
        assert!(collect_alerts(&mut rule, &ev, &ctx).is_empty(), "per-session latch");
        assert_eq!(
            collect_alerts(&mut rule, &seq_violation("c2", 7000), &ctx).len(),
            1
        );
    }

    /// Session-less events (the identity plane's: forged IMs, floods,
    /// guessing) carry no session to latch on, so every match alerts —
    /// a second forged IM from another source is a second attack.
    #[test]
    fn session_less_matches_alert_every_time() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(5),
            trails: &store,
            rates: &rates,
        };
        let mut rule = PredicateRule::new(
            "ops-im",
            "forged IM",
            vec![ClassMatcher {
                class: EventClass::ImSourceMismatch,
                preds: vec![],
            }],
            Severity::Critical,
        );
        let forged = |src: u8| Event {
            time: SimTime::from_millis(1),
            session: None,
            kind: EventKind::ImSourceMismatch {
                claimed_aor: "alice@lab".to_string(),
                src_ip: Ipv4Addr::new(10, 0, 0, src),
                expected_ip: Ipv4Addr::new(10, 0, 0, 2),
            },
        };
        let first = collect_alerts(&mut rule, &forged(66), &ctx);
        let second = collect_alerts(&mut rule, &forged(67), &ctx);
        assert_eq!((first.len(), second.len()), (1, 1));
        assert_eq!(
            second[0].message,
            "forged IM: message claims alice@lab but came from 10.0.0.67 (expected 10.0.0.2)"
        );
        assert_eq!(rule.state_stats().sessions, 0, "nothing latched");
    }

    #[test]
    fn field_predicates_narrow_the_match() {
        let (store, rates) = harness();
        let ctx = RuleCtx {
            now: SimTime::from_millis(5),
            trails: &store,
            rates: &rates,
        };
        let mut rule = PredicateRule::new(
            "big-jump",
            "test",
            vec![ClassMatcher {
                class: EventClass::RtpSeqViolation,
                preds: vec![
                    FieldPredicate {
                        field: "delta",
                        op: CmpOp::Ge,
                        value: PredValue::Int(5000),
                    },
                    FieldPredicate {
                        field: "flow.src",
                        op: CmpOp::Eq,
                        value: PredValue::Str("10.0.0.3".to_string()),
                    },
                ],
            }],
            Severity::Critical,
        );
        assert!(collect_alerts(&mut rule, &seq_violation("c1", 100), &ctx).is_empty());
        assert_eq!(collect_alerts(&mut rule, &seq_violation("c2", 7000), &ctx).len(), 1);
    }

    #[test]
    fn missing_field_never_matches_even_under_ne() {
        let pred = FieldPredicate {
            field: "by_media_ip",
            op: CmpOp::Ne,
            value: PredValue::Str("10.0.0.9".to_string()),
        };
        let torn = EventKind::CallTornDown {
            by_aor: "bob@lab".to_string(),
            by_media_ip: None,
        };
        assert!(!pred.matches(&torn));
    }

    #[test]
    fn interests_derive_from_matcher_classes() {
        let rule = PredicateRule::new(
            "ops",
            "test",
            vec![
                ClassMatcher {
                    class: EventClass::RtpSeqViolation,
                    preds: vec![],
                },
                ClassMatcher {
                    class: EventClass::MediaPortGarbage,
                    preds: vec![],
                },
            ],
            Severity::Warning,
        );
        let i = rule.interests();
        assert!(i.contains(EventClass::RtpSeqViolation));
        assert!(i.contains(EventClass::MediaPortGarbage));
        assert!(!i.contains(EventClass::CallTornDown));
        assert!(!i.is_all());
    }

    #[test]
    fn signature_tracks_construction_params() {
        let mk = |sev| {
            PredicateRule::new(
                "ops",
                "test",
                vec![ClassMatcher {
                    class: EventClass::RtpSeqViolation,
                    preds: vec![],
                }],
                sev,
            )
        };
        assert_eq!(
            mk(Severity::Critical).state_signature(),
            mk(Severity::Critical).state_signature()
        );
        assert_ne!(
            mk(Severity::Critical).state_signature(),
            mk(Severity::Warning).state_signature()
        );
    }
}
