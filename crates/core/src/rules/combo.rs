//! Generic sequence / combination rules over event classes.
//!
//! The paper's Ruleset is "triggered by a sequence of Events"; these two
//! engines give rule authors that declaratively: [`SequenceRule`]
//! requires its steps in order, [`CombinationRule`] requires them in any
//! order, both per-session within a time window.

use crate::alert::{Alert, Severity};
use crate::event::{Event, EventClass};
use crate::rules::{AlertSink, Rule, RuleCtx, RuleInfo, RuleInterest, RuleStateStats, SessionMap};
use scidive_netsim::time::{SimDuration, SimTime};

/// Construction-parameter hash shared by both rule kinds, for
/// [`Rule::state_signature`]: two instances agree exactly when every
/// behavior-determining parameter agrees, which is the hot-reload
/// state-adoption criterion.
fn signature(
    kind: &'static [u8],
    id: &str,
    info: &RuleInfo,
    classes: &[EventClass],
    window: SimDuration,
    severity: Severity,
) -> u64 {
    let window_bytes = window.as_micros().to_le_bytes();
    let [description, flags] = info.signature_parts();
    let mut parts: Vec<&[u8]> = vec![
        kind,
        id.as_bytes(),
        description,
        flags,
        &window_bytes,
        match severity {
            Severity::Info => b"i",
            Severity::Warning => b"w",
            Severity::Critical => b"c",
        },
    ];
    for c in classes {
        parts.push(c.name().as_bytes());
    }
    crate::rate::hash_parts(0x636f_6d62_6f5f_7369, &parts)
}

/// A rule requiring events of given classes in order, per session,
/// within a window.
///
/// # Examples
///
/// ```
/// use scidive_core::rules::{Rule, SequenceRule};
/// use scidive_core::event::EventClass;
/// use scidive_netsim::time::SimDuration;
///
/// let rule = SequenceRule::new(
///     "teardown-then-media",
///     "media after teardown",
///     vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
///     SimDuration::from_secs(1),
/// );
/// assert_eq!(rule.id(), "teardown-then-media");
/// ```
#[derive(Debug)]
pub struct SequenceRule {
    id: String,
    info: RuleInfo,
    steps: Vec<EventClass>,
    window: SimDuration,
    severity: Severity,
    /// session → (next step index, time of first matched step).
    partial: SessionMap<(usize, SimTime)>,
    fired: SessionMap<()>,
}

impl SequenceRule {
    /// Creates a sequence rule.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(
        id: impl Into<String>,
        info: impl Into<RuleInfo>,
        steps: Vec<EventClass>,
        window: SimDuration,
    ) -> SequenceRule {
        assert!(!steps.is_empty(), "sequence rule needs at least one step");
        SequenceRule {
            id: id.into(),
            info: info.into(),
            steps,
            window,
            severity: Severity::Critical,
            partial: SessionMap::default(),
            fired: SessionMap::default(),
        }
    }

    /// Sets the severity (builder-style).
    pub fn with_severity(mut self, severity: Severity) -> SequenceRule {
        self.severity = severity;
        self
    }
}

impl Rule for SequenceRule {
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
        RuleInterest::of(&self.steps)
    }

    fn state_signature(&self) -> u64 {
        signature(b"sequence", &self.id, &self.info, &self.steps, self.window, self.severity)
    }

    fn on_event(&mut self, ev: &Event, _ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        // Self-filter first: events outside the step classes must not
        // touch per-session state, so compiled dispatch (which never
        // offers them) stays state-identical to a full scan.
        if !self.steps.contains(&ev.class()) {
            return;
        }
        let Some(session) = &ev.session else {
            return;
        };
        if self.fired.get_mut(session, ev.time).is_some() {
            return;
        }
        let (next, started) = self
            .partial
            .get_mut(session, ev.time)
            .map(|p| *p)
            .unwrap_or((0, ev.time));
        // Window expiry resets progress.
        let (next, started) = if next > 0 && ev.time.saturating_since(started) > self.window {
            (0, ev.time)
        } else {
            (next, started)
        };
        if ev.class() != self.steps[next] {
            self.partial
                .insert(session.clone(), (next, started), ev.time);
            return;
        }
        let started = if next == 0 { ev.time } else { started };
        let next = next + 1;
        if next == self.steps.len() {
            self.partial.remove(session, ev.time);
            self.fired.insert(session.clone(), (), ev.time);
            sink.push(Alert::new(
                self.id.clone(),
                self.severity,
                ev.time,
                Some(session.clone()),
                format!("{} (sequence complete)", self.info.description),
            ));
            return;
        }
        self.partial
            .insert(session.clone(), (next, started), ev.time);
    }

    fn set_state_timeout(&mut self, timeout: SimDuration) {
        self.partial.set_timeout(timeout);
        self.fired.set_timeout(timeout);
    }

    fn state_stats(&self) -> RuleStateStats {
        RuleStateStats::from(self.partial.gauge()) + self.fired.gauge().into()
    }
}

/// A rule requiring events of all given classes, in any order, per
/// session, within a window.
#[derive(Debug)]
pub struct CombinationRule {
    id: String,
    info: RuleInfo,
    required: Vec<EventClass>,
    window: SimDuration,
    severity: Severity,
    /// session → (matched mask, earliest match time).
    partial: SessionMap<(u64, SimTime)>,
    fired: SessionMap<()>,
}

impl CombinationRule {
    /// Creates a combination rule.
    ///
    /// # Panics
    ///
    /// Panics if `required` is empty or longer than 64 classes.
    pub fn new(
        id: impl Into<String>,
        info: impl Into<RuleInfo>,
        required: Vec<EventClass>,
        window: SimDuration,
    ) -> CombinationRule {
        assert!(
            !required.is_empty() && required.len() <= 64,
            "combination rule needs 1..=64 classes"
        );
        CombinationRule {
            id: id.into(),
            info: info.into(),
            required,
            window,
            severity: Severity::Critical,
            partial: SessionMap::default(),
            fired: SessionMap::default(),
        }
    }

    /// Sets the severity (builder-style).
    pub fn with_severity(mut self, severity: Severity) -> CombinationRule {
        self.severity = severity;
        self
    }
}

impl Rule for CombinationRule {
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
        RuleInterest::of(&self.required)
    }

    fn state_signature(&self) -> u64 {
        signature(b"all-of", &self.id, &self.info, &self.required, self.window, self.severity)
    }

    fn on_event(&mut self, ev: &Event, _ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        let Some(bit) = self.required.iter().position(|c| *c == ev.class()) else {
            return;
        };
        let Some(session) = &ev.session else {
            return;
        };
        if self.fired.get_mut(session, ev.time).is_some() {
            return;
        }
        let (mask, started) = self
            .partial
            .get_mut(session, ev.time)
            .map(|p| *p)
            .unwrap_or((0, ev.time));
        let (mask, started) = if mask != 0 && ev.time.saturating_since(started) > self.window {
            (0, ev.time)
        } else {
            (mask, started)
        };
        let mask = mask | (1u64 << bit);
        let full = (1u64 << self.required.len()) - 1;
        if mask == full {
            self.partial.remove(session, ev.time);
            self.fired.insert(session.clone(), (), ev.time);
            sink.push(Alert::new(
                self.id.clone(),
                self.severity,
                ev.time,
                Some(session.clone()),
                format!("{} (all conditions met)", self.info.description),
            ));
            return;
        }
        self.partial.insert(session.clone(), (mask, started), ev.time);
    }

    fn set_state_timeout(&mut self, timeout: SimDuration) {
        self.partial.set_timeout(timeout);
        self.fired.set_timeout(timeout);
    }

    fn state_stats(&self) -> RuleStateStats {
        RuleStateStats::from(self.partial.gauge()) + self.fired.gauge().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ByeOrigin, EventKind, FlowKey};
    use crate::rules::collect_alerts;
    use crate::trail::{SessionKey, TrailStore, TrailStoreConfig};
    use std::net::Ipv4Addr;

    fn ev(t: u64, session: &str, kind: EventKind) -> Event {
        Event {
            time: SimTime::from_millis(t),
            session: Some(SessionKey::new(session)),
            kind,
        }
    }

    fn flow() -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(10, 0, 0, 3),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: 8000,
        }
    }

    fn torn() -> EventKind {
        EventKind::CallTornDown {
            by_aor: "bob@lab".to_string(),
            by_media_ip: Some(Ipv4Addr::new(10, 0, 0, 3)),
        }
    }

    fn orphan() -> EventKind {
        EventKind::OrphanRtpAfterBye {
            flow: flow(),
            gap: SimDuration::from_millis(5),
            bye: ByeOrigin {
                claimed_aor: Some("bob@lab".to_string()),
                src_ip: Ipv4Addr::new(10, 0, 0, 66),
                cseq: Some(101),
            },
        }
    }

    fn store() -> TrailStore {
        TrailStore::new(TrailStoreConfig::default())
    }

    fn ctx<'a>(t: u64, s: &'a TrailStore) -> RuleCtx<'a> {
        RuleCtx {
            now: SimTime::from_millis(t),
            trails: s,
            rates: Box::leak(Box::new(crate::rate::RateHub::default())),
        }
    }

    #[test]
    fn sequence_fires_in_order_once() {
        let s = store();
        let mut rule = SequenceRule::new(
            "seq",
            "teardown then orphan",
            vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
            SimDuration::from_secs(1),
        );
        assert!(collect_alerts(&mut rule, &ev(1, "c1", torn()), &ctx(1, &s)).is_empty());
        let alerts = collect_alerts(&mut rule, &ev(2, "c1", orphan()), &ctx(2, &s));
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "seq");
        // Does not re-fire for the same session.
        assert!(collect_alerts(&mut rule, &ev(3, "c1", orphan()), &ctx(3, &s)).is_empty());
    }

    #[test]
    fn sequence_requires_order() {
        let s = store();
        let mut rule = SequenceRule::new(
            "seq",
            "x",
            vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
            SimDuration::from_secs(1),
        );
        // Orphan first: no progress.
        assert!(collect_alerts(&mut rule, &ev(1, "c1", orphan()), &ctx(1, &s)).is_empty());
        assert!(collect_alerts(&mut rule, &ev(2, "c1", torn()), &ctx(2, &s)).is_empty());
        // Now the orphan completes it.
        assert_eq!(
            collect_alerts(&mut rule, &ev(3, "c1", orphan()), &ctx(3, &s)).len(),
            1
        );
    }

    #[test]
    fn sequence_window_expires() {
        let s = store();
        let mut rule = SequenceRule::new(
            "seq",
            "x",
            vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
            SimDuration::from_millis(10),
        );
        collect_alerts(&mut rule, &ev(1, "c1", torn()), &ctx(1, &s));
        // Too late: resets; the orphan is step 1, not step 2.
        assert!(collect_alerts(&mut rule, &ev(100, "c1", orphan()), &ctx(100, &s)).is_empty());
    }

    #[test]
    fn sequence_sessions_are_independent() {
        let s = store();
        let mut rule = SequenceRule::new(
            "seq",
            "x",
            vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
            SimDuration::from_secs(1),
        );
        collect_alerts(&mut rule, &ev(1, "c1", torn()), &ctx(1, &s));
        // c2's orphan must not complete c1's sequence.
        assert!(collect_alerts(&mut rule, &ev(2, "c2", orphan()), &ctx(2, &s)).is_empty());
        assert_eq!(
            collect_alerts(&mut rule, &ev(3, "c1", orphan()), &ctx(3, &s)).len(),
            1
        );
    }

    #[test]
    fn combination_any_order() {
        let s = store();
        let mut rule = CombinationRule::new(
            "combo",
            "both things",
            vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
            SimDuration::from_secs(1),
        );
        assert!(collect_alerts(&mut rule, &ev(1, "c1", orphan()), &ctx(1, &s)).is_empty());
        assert_eq!(
            collect_alerts(&mut rule, &ev(2, "c1", torn()), &ctx(2, &s)).len(),
            1
        );
    }

    #[test]
    fn combination_ignores_unrelated_events() {
        let s = store();
        let mut rule = CombinationRule::new(
            "combo",
            "x",
            vec![EventClass::CallTornDown],
            SimDuration::from_secs(1),
        );
        let unrelated = ev(1, "c1", EventKind::RtpFlowActive { flow: flow() });
        assert!(collect_alerts(&mut rule, &unrelated, &ctx(1, &s)).is_empty());
        // Unrelated events leave no per-session residue behind.
        assert_eq!(rule.state_stats().sessions, 0);
    }

    #[test]
    fn sequence_declares_step_classes_and_expires_idle_state() {
        let s = store();
        let mut rule = SequenceRule::new(
            "seq",
            "x",
            vec![EventClass::CallTornDown, EventClass::OrphanRtpAfterBye],
            SimDuration::from_secs(100),
        );
        let interest = rule.interests();
        assert!(interest.contains(EventClass::CallTornDown));
        assert!(interest.contains(EventClass::OrphanRtpAfterBye));
        assert!(!interest.contains(EventClass::RtpFlowActive));

        rule.set_state_timeout(SimDuration::from_millis(50));
        collect_alerts(&mut rule, &ev(1, "c1", torn()), &ctx(1, &s));
        assert_eq!(rule.state_stats().sessions, 1);
        // Well past the idle timeout: partial state is dropped on access,
        // so the orphan is treated as step 1 and nothing fires.
        assert!(collect_alerts(&mut rule, &ev(500, "c1", orphan()), &ctx(500, &s)).is_empty());
        assert!(rule.state_stats().expired >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_sequence_panics() {
        SequenceRule::new("x", "y", vec![], SimDuration::ZERO);
    }
}
