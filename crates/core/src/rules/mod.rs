//! The Ruleset and rule-matching engine (paper §3.1).
//!
//! "Ruleset is triggered by a sequence of Events. ... The matching in
//! the Ruleset is based on Events that can potentially encapsulate
//! information from multiple packets and can bear state information.
//! Besides the information that Events provide, the Ruleset can also
//! perform the matching based on crude information directly from the
//! Trails."
//!
//! The ruleset is **compiled**: at install time every rule declares its
//! [`RuleInterest`] — the set of [`EventClass`]es it can possibly react
//! to — and [`CompiledRuleset`] indexes the rules by class so an event
//! is only offered to the rules subscribed to it. A benign RTP event
//! touches zero or one rule regardless of how many rules are installed;
//! matching cost scales with *interested* rules, not total rules.

pub(crate) mod builtin;
mod combo;
pub mod dsl;
mod predicate;
pub(crate) mod threshold;

pub use builtin::{builtin_ruleset, rapid_spec, RuleToggles};
pub use combo::{CombinationRule, SequenceRule};
pub use dsl::{Diagnostic, Program};
pub use predicate::{ClassMatcher, CmpOp, FieldPredicate, PredValue, PredicateRule};
pub use threshold::{ThresholdRule, ThresholdSpec, MAX_DISTINCT_THRESHOLD};

use crate::alert::Alert;
use crate::event::{Event, EventClass};
use crate::idle::{IdleMap, StoreGauge};
use crate::observe::RuleEval;
use crate::trail::{SessionKey, TrailStore};
use scidive_netsim::time::{SimDuration, SimTime};

/// Context a rule sees while matching: the current time plus read access
/// to the trails (the paper's "crude information" escape hatch).
pub struct RuleCtx<'a> {
    /// Current time.
    pub now: SimTime,
    /// The trail store: the paper's escape hatch for a custom rule that
    /// needs "crude information directly from the Trails". Trails
    /// retain no footprint, so what it offers is each trail's summary
    /// (created, last active, footprints filed) and the media index; a
    /// rule that wants footprint history keeps its own state. No
    /// builtin reads it; the BYE's originator, the one datum the paper
    /// cites, travels on [`crate::event::EventKind::OrphanRtpAfterBye`].
    pub trails: &'a TrailStore,
    /// The engine's rate hub (see [`crate::rate`]): the seeded key
    /// hash, and under the sharded fold plane the outbox threshold
    /// rules forward their observations into.
    pub rates: &'a crate::rate::RateHub,
}

/// Where a rule emits its alerts. A thin push handle over the engine's
/// alert buffer — rules append in place instead of returning a
/// `Vec<Alert>` per `(event, rule)` call, so the common no-match case
/// costs nothing.
pub struct AlertSink<'a> {
    out: &'a mut Vec<Alert>,
}

impl<'a> AlertSink<'a> {
    /// Wraps an alert buffer.
    pub fn new(out: &'a mut Vec<Alert>) -> AlertSink<'a> {
        AlertSink { out }
    }

    /// Emits one alert.
    pub fn push(&mut self, alert: Alert) {
        self.out.push(alert);
    }

    /// Alerts in the underlying buffer so far (including ones emitted
    /// before this sink was created).
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether the underlying buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

/// The set of [`EventClass`]es a rule subscribes to: a bitset over the
/// class enum plus an "all events" escape hatch for rules that cannot
/// enumerate their triggers.
///
/// See [`Rule::interests`] for the contract implementors must uphold.
///
/// # Examples
///
/// ```
/// use scidive_core::event::EventClass;
/// use scidive_core::rules::RuleInterest;
///
/// let i = RuleInterest::of(&[EventClass::SipMalformed]);
/// assert!(i.contains(EventClass::SipMalformed));
/// assert!(!i.contains(EventClass::RtpFlowActive));
/// assert!(RuleInterest::all().contains(EventClass::RtpFlowActive));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInterest {
    bits: u32,
    all: bool,
}

impl RuleInterest {
    /// Subscribes to nothing (useful as a fold seed).
    pub const fn none() -> RuleInterest {
        RuleInterest { bits: 0, all: false }
    }

    /// Subscribes to every event class, present and future — the escape
    /// hatch (and the default for custom rules that do not override
    /// [`Rule::interests`]).
    pub const fn all() -> RuleInterest {
        RuleInterest { bits: 0, all: true }
    }

    /// Subscribes to exactly the given classes.
    pub fn of(classes: &[EventClass]) -> RuleInterest {
        let mut i = RuleInterest::none();
        for c in classes {
            i = i.with(*c);
        }
        i
    }

    /// Adds one class (builder-style).
    pub fn with(mut self, class: EventClass) -> RuleInterest {
        self.bits |= 1 << (class as u32);
        self
    }

    /// Whether events of `class` are subscribed.
    pub fn contains(self, class: EventClass) -> bool {
        self.all || self.bits & (1 << (class as u32)) != 0
    }

    /// Whether this is the all-events escape hatch.
    pub fn is_all(self) -> bool {
        self.all
    }
}

/// Live/expired entry counts of a rule's keyed state, summed into the
/// engine's [`crate::observe::StateGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStateStats {
    /// Live session entries across the rule's state maps (for a
    /// threshold rule, the keys its table retains).
    pub sessions: u64,
    /// Entries dropped by idle expiry so far (monotonic).
    pub expired: u64,
    /// Threshold observations dropped by cap eviction so far
    /// (monotonic; see [`crate::rate::ThresholdTable`]).
    pub evicted: u64,
    /// Session entries evicted at the state maps' cap so far
    /// (monotonic).
    pub entries_evicted: u64,
    /// Bytes pinned by threshold tables.
    pub bytes: u64,
}

impl From<StoreGauge> for RuleStateStats {
    fn from(gauge: StoreGauge) -> RuleStateStats {
        RuleStateStats {
            sessions: gauge.live,
            expired: gauge.expired,
            entries_evicted: gauge.evicted,
            ..RuleStateStats::default()
        }
    }
}

impl std::ops::Add for RuleStateStats {
    type Output = RuleStateStats;
    fn add(self, rhs: RuleStateStats) -> RuleStateStats {
        RuleStateStats {
            sessions: self.sessions + rhs.sessions,
            expired: self.expired + rhs.expired,
            evicted: self.evicted + rhs.evicted,
            entries_evicted: self.entries_evicted + rhs.entries_evicted,
            bytes: self.bytes + rhs.bytes,
        }
    }
}

/// Session-keyed rule state: an [`IdleMap`] under the same contract as
/// the session's trails. Before any access at `now`, every entry idle
/// for the timeout is gone, so for an in-order event stream a rule
/// observes exactly the entries its own events kept alive, whatever
/// other sessions an engine sees — which keeps sharded and
/// single-engine deployments byte-identical. Every access refreshes the
/// entry's idle clock: a session the rule keeps seeing (through its
/// subscribed classes) never expires mid-conversation; a non-refreshing
/// [`IdleMap::get`] reads without that. A capture that steps back gets
/// the retain-every-access model of [`crate::idle`]. The map reclaims
/// on its own accesses only, so a rule that stops seeing events keeps
/// its idle entries (counted as live) until its next one. The engine sets
/// the timeout to the trail store's at install
/// ([`Rule::set_state_timeout`]); report the map's
/// [`IdleMap::gauge`] through [`Rule::state_stats`].
pub type SessionMap<V> = IdleMap<SessionKey, V>;

/// What a rule reports about itself beside its id: a one-line
/// description (the prefix of a fire-once rule's alert messages) and
/// Table 1's "Cross-protocol?" and "Stateful?" columns. A DSL rule takes
/// all three from its header (`description "..."`, `cross-protocol`,
/// `stateful`); a bare description converts with both columns unset,
/// which is what a header without the flags declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleInfo {
    /// One-line description.
    pub description: String,
    /// Whether the rule correlates more than one protocol.
    pub cross_protocol: bool,
    /// Whether the rule relies on state spanning multiple packets.
    pub stateful: bool,
}

impl RuleInfo {
    /// The info's bytes, for folding into a [`Rule::state_signature`].
    pub(crate) fn signature_parts(&self) -> [&[u8]; 2] {
        const FLAGS: [&[u8]; 4] = [b"--", b"-s", b"x-", b"xs"];
        let flags = 2 * usize::from(self.cross_protocol) + usize::from(self.stateful);
        [self.description.as_bytes(), FLAGS[flags]]
    }
}

impl From<&str> for RuleInfo {
    fn from(description: &str) -> RuleInfo {
        RuleInfo {
            description: description.to_string(),
            cross_protocol: false,
            stateful: false,
        }
    }
}

/// A detection rule.
///
/// # Implementing `interests` (the dispatch contract)
///
/// The engine compiles the ruleset into an event-class-indexed dispatch
/// table: [`Rule::on_event`] is only invoked for events whose class is
/// in the rule's declared [`RuleInterest`]. Implementors must uphold:
///
/// * **Soundness** — every event class the rule can react to (emit an
///   alert for, or mutate state on) must be in the interest set. A
///   class left out is never delivered; under-declaring silently
///   disables part of the rule.
/// * **Stability** — the set must not change after the rule is
///   installed: it is read once at install time. Rules whose triggers
///   are dynamic must return [`RuleInterest::all`].
/// * **Indifference** — the rule must not *depend* on seeing events
///   outside its interest set (e.g. for timekeeping or state expiry).
///   The default implementation returns [`RuleInterest::all`], so a
///   custom rule that ignores this method keeps full-scan semantics and
///   simply forgoes the dispatch speedup.
///
/// Rules holding per-session state should keep it in a [`SessionMap`]
/// (and report it via [`Rule::state_stats`]) so it expires with the
/// trail-store idle timeout instead of growing across sessions forever.
pub trait Rule {
    /// Stable rule identifier (kebab-case).
    fn id(&self) -> &str;

    /// One-line description.
    fn description(&self) -> &str;

    /// Whether the rule correlates more than one protocol (Table 1's
    /// "Cross-protocol?" column).
    fn is_cross_protocol(&self) -> bool;

    /// Whether the rule relies on state spanning multiple packets
    /// (Table 1's "Stateful?" column).
    fn is_stateful(&self) -> bool;

    /// The event classes this rule subscribes to (see the trait-level
    /// contract). Defaults to every event, which is always sound.
    fn interests(&self) -> RuleInterest {
        RuleInterest::all()
    }

    /// Hot-reload state-adoption key. Two instances returning the same
    /// non-zero value promise to be **behaviorally interchangeable** —
    /// built from identical parameters, with identical [`Rule::interests`]
    /// — so [`CompiledRuleset::adopt_state`] may move one's accumulated
    /// session state wholesale into the other's slot across a ruleset
    /// swap. Implementations must fold *every* behavior-determining
    /// construction parameter into the hash. The default `0` means "not
    /// adoptable": the rule restarts stateless after a swap, which is
    /// always sound, merely forgetful.
    fn state_signature(&self) -> u64 {
        0
    }

    /// Feeds one event; alerts are pushed into `sink`.
    fn on_event(&mut self, ev: &Event, ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>);

    /// Sets the idle timeout for the rule's session-keyed state. The
    /// engine calls this at install with the trail-store timeout so
    /// rule state and trails expire together. Stateless rules ignore it.
    fn set_state_timeout(&mut self, _timeout: SimDuration) {}

    /// Live/expired counts of the rule's session-keyed state, for the
    /// leak-plateau gauges. Stateless rules report zero.
    fn state_stats(&self) -> RuleStateStats {
        RuleStateStats::default()
    }
}

/// Test/tooling convenience: runs one event through a rule, collecting
/// the alerts it emits into a fresh `Vec`.
pub fn collect_alerts(rule: &mut dyn Rule, ev: &Event, ctx: &RuleCtx<'_>) -> Vec<Alert> {
    let mut out = Vec::new();
    rule.on_event(ev, ctx, &mut AlertSink::new(&mut out));
    out
}

/// The ruleset compiled for dispatch: rules in install order plus a
/// per-[`EventClass`] index of the rules subscribed to that class.
///
/// Dispatch offers an event only to its class's subscribers, in install
/// order — the same relative order a full scan would reach them in —
/// and rules never mutate state on classes outside their interest set,
/// so compiled dispatch and the full-scan reference
/// (`full_scan = true`, every event to every rule) produce **byte-
/// identical** alert streams. `scripts/ci.sh` proves it on benign plus
/// all four attack scenarios (`tests/rule_dispatch_equivalence.rs`).
pub struct CompiledRuleset {
    rules: Vec<Box<dyn Rule>>,
    /// `class as usize` → indices into `rules`, install order.
    by_class: Vec<Vec<u32>>,
    /// Exact per-rule `on_event` invocation counts (same indexing as
    /// `rules`). Dispatch makes these nearly free, so they are exact
    /// counters, not samples.
    evals: Vec<u64>,
    full_scan: bool,
    state_timeout: SimDuration,
}

impl CompiledRuleset {
    /// Compiles a ruleset. With `full_scan` every event is offered to
    /// every rule — the reference mode equivalence tests and benchmarks
    /// compare dispatch against.
    pub fn new(rules: Vec<Box<dyn Rule>>, full_scan: bool) -> CompiledRuleset {
        let mut compiled = CompiledRuleset {
            rules: Vec::new(),
            by_class: vec![Vec::new(); EventClass::COUNT],
            evals: Vec::new(),
            full_scan,
            // The engine installs its configured trail timeout over
            // this default (`set_state_timeout`).
            state_timeout: crate::idle::DEFAULT_IDLE_TIMEOUT,
        };
        for rule in rules {
            compiled.push(rule);
        }
        compiled
    }

    /// Moves accumulated per-rule session state from `old` (the ruleset
    /// being replaced in a hot reload) into this one, wherever a rule
    /// survived the swap.
    ///
    /// A rule survives when some old rule has the same id **and** the
    /// same non-zero [`Rule::state_signature`] — i.e. it was built from
    /// identical parameters. The old instance is then moved wholesale
    /// into the new ruleset's slot (same signature ⇒ same interests, so
    /// the dispatch index stays valid) and keeps its `SessionMap`s,
    /// partial sequences, fired latches, and threshold tables.
    /// Rules that changed, are new, or report signature 0 start fresh —
    /// exactly the "new ruleset from the boundary onward" semantics.
    ///
    /// Returns the number of adopted rules and the old ruleset's final
    /// eval counters (for the engine to retire into its observation so
    /// invocation totals stay monotonic across swaps).
    pub fn adopt_state(&mut self, old: CompiledRuleset) -> (usize, Vec<RuleEval>) {
        let retired = old.rule_evals();
        let timeout = self.state_timeout;
        let mut pool: Vec<Option<(u64, Box<dyn Rule>)>> = old
            .rules
            .into_iter()
            .map(|r| Some((r.state_signature(), r)))
            .collect();
        let mut adopted = 0;
        for slot in &mut self.rules {
            let sig = slot.state_signature();
            if sig == 0 {
                continue;
            }
            let hit = pool.iter().position(|e| {
                e.as_ref()
                    .is_some_and(|(s, r)| *s == sig && r.id() == slot.id())
            });
            if let Some(i) = hit {
                let (_, mut old_rule) = pool[i].take().expect("position matched Some");
                // The new ruleset's timeout wins (it may differ if the
                // config changed between installs).
                old_rule.set_state_timeout(timeout);
                *slot = old_rule;
                adopted += 1;
            }
        }
        (adopted, retired)
    }

    /// Installs one rule: indexes its interest set and applies the
    /// state timeout.
    pub fn push(&mut self, mut rule: Box<dyn Rule>) {
        rule.set_state_timeout(self.state_timeout);
        let idx = self.rules.len() as u32;
        let interest = rule.interests();
        for class in EventClass::ALL {
            if interest.contains(class) {
                self.by_class[class as usize].push(idx);
            }
        }
        self.rules.push(rule);
        self.evals.push(0);
    }

    /// Sets the idle timeout for every installed (and future) rule's
    /// session state.
    pub fn set_state_timeout(&mut self, timeout: SimDuration) {
        self.state_timeout = timeout;
        for rule in &mut self.rules {
            rule.set_state_timeout(timeout);
        }
    }

    /// Offers one event to its subscribed rules (or to every rule in
    /// full-scan mode), in install order.
    pub fn dispatch(&mut self, ev: &Event, ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        if self.full_scan {
            for (i, rule) in self.rules.iter_mut().enumerate() {
                self.evals[i] += 1;
                rule.on_event(ev, ctx, sink);
            }
            return;
        }
        let class = ev.class() as usize;
        for k in 0..self.by_class[class].len() {
            let i = self.by_class[class][k] as usize;
            self.evals[i] += 1;
            self.rules[i].on_event(ev, ctx, sink);
        }
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Whether this instance runs the full-scan reference path.
    pub fn is_full_scan(&self) -> bool {
        self.full_scan
    }

    /// The idle timeout applied to per-rule session state.
    pub fn state_timeout(&self) -> SimDuration {
        self.state_timeout
    }

    /// Read access to the installed rules, install order.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Rule> {
        self.rules.iter().map(|r| r.as_ref())
    }

    /// Exact per-rule `on_event` invocation counts, install order.
    pub fn rule_evals(&self) -> Vec<RuleEval> {
        self.rules
            .iter()
            .zip(&self.evals)
            .map(|(rule, evals)| RuleEval {
                rule: rule.id().to_string(),
                evals: *evals,
            })
            .collect()
    }

    /// Summed session-state gauges across all rules.
    pub fn state_stats(&self) -> RuleStateStats {
        self.rules
            .iter()
            .fold(RuleStateStats::default(), |acc, r| acc + r.state_stats())
    }
}

impl std::fmt::Debug for CompiledRuleset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledRuleset")
            .field("rules", &self.rules.len())
            .field("full_scan", &self.full_scan)
            .finish()
    }
}

/// Everything needed to build a [`CompiledRuleset`] — the form a
/// ruleset takes while crossing threads during a hot reload.
///
/// `Box<dyn Rule>` is not `Send`, so the sharded pipeline cannot ship
/// compiled rules to its workers. It ships this instead: the builtin
/// toggles plus the **validated** DSL program (plain `Send + Sync`
/// data), and every worker lowers it locally at the swap barrier. The
/// lowering is deterministic, so all workers (and the single-engine
/// reference) build behaviorally identical rulesets from one blueprint.
#[derive(Debug, Clone)]
pub struct RulesetBlueprint {
    /// Which built-in rules to install.
    pub toggles: RuleToggles,
    /// Operator rules appended after the builtins, if any. Must be
    /// validated ([`Program::parse`] / [`Program::check`]) — lowering
    /// assumes it.
    pub program: Option<Program>,
    /// Monotonic ruleset generation, stamped by the engine that created
    /// the blueprint and surfaced as a gauge after installs.
    pub generation: u64,
}

impl RulesetBlueprint {
    /// Lowers the blueprint: toggled builtins first (their relative
    /// order is fixed), then the program's rules in declaration order.
    pub fn build(&self, full_scan: bool, state_timeout: SimDuration) -> CompiledRuleset {
        let mut rules = builtin_ruleset(&self.toggles);
        if let Some(program) = &self.program {
            rules.extend(dsl::compile_program(program));
        }
        let mut compiled = CompiledRuleset::new(rules, full_scan);
        compiled.set_state_timeout(state_timeout);
        compiled
    }

    /// The threshold clauses the fold plane must evaluate for this
    /// blueprint: the toggled builtin ones followed by the program's,
    /// each in declaration order.
    pub fn threshold_specs(&self) -> Vec<threshold::ThresholdSpec> {
        let mut specs: Vec<_> = dsl::threshold_specs(builtin::program())
            .into_iter()
            .filter(|spec| self.toggles.includes(spec.clause))
            .collect();
        if let Some(program) = &self.program {
            specs.extend(dsl::threshold_specs(program));
        }
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Severity;
    use crate::event::{EventKind, FlowKey};
    use crate::trail::{TrailStore, TrailStoreConfig};
    use std::net::Ipv4Addr;

    #[test]
    fn event_class_cast_matches_all_ordering() {
        // The dispatch table indexes by `class as usize`; `ALL` must
        // enumerate the variants in declaration (discriminant) order.
        for (i, c) in EventClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "EventClass::ALL out of order at {c:?}");
        }
        assert_eq!(EventClass::ALL.len(), EventClass::COUNT);
    }

    #[test]
    fn interest_bitset_and_all() {
        let i = RuleInterest::of(&[EventClass::SipMalformed, EventClass::AcctMismatch]);
        assert!(i.contains(EventClass::SipMalformed));
        assert!(i.contains(EventClass::AcctMismatch));
        assert!(!i.contains(EventClass::RtpFlowActive));
        assert!(!i.is_all());
        assert!(RuleInterest::all().contains(EventClass::RtpFlowActive));
        assert!(RuleInterest::all().is_all());
        assert!(!RuleInterest::none().contains(EventClass::SipMalformed));
    }

    #[test]
    fn session_map_expires_on_access_and_counts() {
        let mut m: SessionMap<u32> = SessionMap::default();
        m.set_timeout(SimDuration::from_secs(2));
        let k = SessionKey::new("c1");
        m.insert(k.clone(), 7, SimTime::from_millis(0));
        // Fresh access refreshes the idle clock.
        assert_eq!(
            m.get_mut(&k, SimTime::from_millis(1_500)).copied(),
            Some(7)
        );
        // 1.5s + 1.9s idle < timeout from the refresh: still there.
        assert_eq!(
            m.get_mut(&k, SimTime::from_millis(3_400)).copied(),
            Some(7)
        );
        // Now cross the timeout from the last touch: gone, counted.
        assert!(m.get_mut(&k, SimTime::from_millis(5_500)).is_none());
        assert_eq!(m.gauge().expired, 1);
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn session_map_reclaims_untouched_entries() {
        let mut m: SessionMap<()> = SessionMap::default();
        m.set_timeout(SimDuration::from_secs(2));
        for i in 0..10 {
            m.insert(SessionKey::new(format!("s{i}")), (), SimTime::from_millis(i));
        }
        assert_eq!(m.len(), 10);
        // An access far in the future reclaims everything stale even
        // though none of the stale keys is touched directly.
        m.insert(SessionKey::new("fresh"), (), SimTime::from_secs(60));
        assert_eq!(m.len(), 1);
        assert_eq!(m.gauge().expired, 10);
    }

    struct CountingRule {
        id: String,
        interest: RuleInterest,
        seen: u64,
    }

    impl Rule for CountingRule {
        fn id(&self) -> &str {
            &self.id
        }
        fn description(&self) -> &str {
            "counts deliveries"
        }
        fn is_cross_protocol(&self) -> bool {
            false
        }
        fn is_stateful(&self) -> bool {
            false
        }
        fn interests(&self) -> RuleInterest {
            self.interest
        }
        fn on_event(&mut self, _ev: &Event, _ctx: &RuleCtx<'_>, _sink: &mut AlertSink<'_>) {
            self.seen += 1;
        }
    }

    fn malformed(t: u64) -> Event {
        Event {
            time: SimTime::from_millis(t),
            session: Some(SessionKey::new("c1")),
            kind: EventKind::SipMalformed {
                violations: vec!["x".into()],
                src: Ipv4Addr::new(10, 0, 0, 9),
            },
        }
    }

    fn rtp_active(t: u64) -> Event {
        Event {
            time: SimTime::from_millis(t),
            session: Some(SessionKey::new("c1")),
            kind: EventKind::RtpFlowActive {
                flow: FlowKey {
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: 8000,
                },
            },
        }
    }

    #[test]
    fn dispatch_skips_uninterested_rules_and_counts_exactly() {
        let narrow = CountingRule {
            id: "narrow".into(),
            interest: RuleInterest::of(&[EventClass::SipMalformed]),
            seen: 0,
        };
        let wide = CountingRule {
            id: "wide".into(),
            interest: RuleInterest::all(),
            seen: 0,
        };
        let mut compiled = CompiledRuleset::new(vec![Box::new(narrow), Box::new(wide)], false);
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::ZERO,
            trails: &store,
            rates: &rates,
        };
        let mut out = Vec::new();
        let mut sink = AlertSink::new(&mut out);
        compiled.dispatch(&malformed(1), &ctx, &mut sink);
        compiled.dispatch(&rtp_active(2), &ctx, &mut sink);
        compiled.dispatch(&rtp_active(3), &ctx, &mut sink);
        let evals = compiled.rule_evals();
        assert_eq!(evals[0].rule, "narrow");
        assert_eq!(evals[0].evals, 1); // only the SipMalformed event
        assert_eq!(evals[1].rule, "wide");
        assert_eq!(evals[1].evals, 3); // the all-events escape hatch
    }

    #[test]
    fn full_scan_offers_everything_to_everyone() {
        let narrow = CountingRule {
            id: "narrow".into(),
            interest: RuleInterest::of(&[EventClass::SipMalformed]),
            seen: 0,
        };
        let mut compiled = CompiledRuleset::new(vec![Box::new(narrow)], true);
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::ZERO,
            trails: &store,
            rates: &rates,
        };
        let mut out = Vec::new();
        let mut sink = AlertSink::new(&mut out);
        compiled.dispatch(&rtp_active(1), &ctx, &mut sink);
        assert_eq!(compiled.rule_evals()[0].evals, 1);
    }

    #[test]
    fn sink_collects_in_emission_order() {
        let mut out = Vec::new();
        let mut sink = AlertSink::new(&mut out);
        sink.push(Alert::new("a", Severity::Info, SimTime::ZERO, None, "1"));
        sink.push(Alert::new("b", Severity::Info, SimTime::ZERO, None, "2"));
        assert_eq!(sink.len(), 2);
        assert_eq!(out[0].rule, "a");
        assert_eq!(out[1].rule, "b");
    }
}
