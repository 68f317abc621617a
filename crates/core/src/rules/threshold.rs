//! Generic threshold-clause rules over [`crate::rate::ThresholdTable`].
//!
//! A [`ThresholdSpec`] is the *compiled artifact* of a threshold clause:
//! "events of class C, keyed by field K, crossing `count >= N` (and
//! optionally `distinct(D) >= M`) within a window". The spec is plain
//! data, and exactly one state machine ever decides it —
//! [`crate::rate::ThresholdTable`], an exact per-key window table:
//!
//! * a single engine's [`ThresholdRule`] owns a table and feeds it per
//!   event;
//! * a shard worker under the fold plane keeps no window at all — its
//!   [`ThresholdRule`] forwards each observation raw — and the
//!   dispatcher's [`crate::rate::GlobalRatePlane`] replays every
//!   shard's observations through the same table type in time order.
//!
//! The built-in rapid-connect (SPIT) rule is a `threshold` clause of
//! `builtin.scid` like any operator's: one DSL compiler lowers both,
//! so an operator program declaring the same clause compiles to a spec
//! `==` to [`crate::rules::rapid_spec`], and the byte-identity of the two
//! is structural rather than coincidental.

use crate::alert::{Alert, Severity};
use crate::event::{Event, EventClass, FieldValue};
use crate::rate::ThresholdTable;
use crate::rules::{AlertSink, Rule, RuleCtx, RuleInfo, RuleInterest, RuleStateStats};
use scidive_netsim::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Interns a string into a process-lifetime `&'static str`, deduplicated
/// so repeated ruleset compiles (and hot-reload loops) never grow the
/// table beyond the set of distinct names. [`ThresholdSpec`] and the
/// fold-plane observations name clauses by `&'static str`; DSL-compiled
/// specs go through here to obtain those names.
pub(crate) fn intern(s: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("intern table poisoned");
    if let Some(existing) = table.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// A compiled threshold clause. All names are `&'static str` (interned
/// for DSL programs, literal for builtins) so equality is cheap and the
/// spec can cross threads inside a [`crate::rules::RulesetBlueprint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdSpec {
    /// Rule id, alert rule name, and fold-plane clause name — one
    /// identity for the whole clause.
    pub clause: &'static str,
    /// The triggering event class.
    pub class: EventClass,
    /// Field of `class` whose value keys the window (e.g. `caller`).
    pub key_field: &'static str,
    /// Field whose values are counted distinctly (e.g. `callee`);
    /// `None` for a pure count threshold.
    pub distinct_field: Option<&'static str>,
    /// The sliding window.
    pub window: SimDuration,
    /// Events within the window that cross the clause.
    pub count_threshold: u32,
    /// Distinct values within the window that cross the clause
    /// (ignored when `distinct_field` is `None`).
    pub distinct_threshold: u32,
    /// Alert severity.
    pub severity: Severity,
    /// Alert message template; `{key}`, `{count}`, `{distinct}` and
    /// `{window}` (whole seconds) are substituted.
    pub template: &'static str,
}

impl ThresholdSpec {
    /// Renders the alert message from the template.
    pub fn render(&self, key: &str, count: u32, distinct: u32) -> String {
        let mut out = String::with_capacity(self.template.len() + key.len() + 8);
        let mut rest = self.template;
        while let Some(open) = rest.find('{') {
            out.push_str(&rest[..open]);
            rest = &rest[open..];
            let close = match rest.find('}') {
                Some(c) => c,
                None => break,
            };
            match &rest[..=close] {
                "{key}" => out.push_str(key),
                "{count}" => {
                    let _ = write!(out, "{count}");
                }
                "{distinct}" => {
                    let _ = write!(out, "{distinct}");
                }
                "{window}" => {
                    let _ = write!(out, "{}", self.window.as_micros() / 1_000_000);
                }
                other => out.push_str(other),
            }
            rest = &rest[close + 1..];
        }
        out.push_str(rest);
        out
    }

    /// Builds the clause's alert — used by both evaluation planes so a
    /// local crossing and a fold-boundary crossing differ only in time
    /// and session, never in shape.
    pub fn alert_at(
        &self,
        time: SimTime,
        session: Option<crate::trail::SessionKey>,
        key: &str,
        count: u32,
        distinct: u32,
    ) -> Alert {
        Alert::new(
            self.clause,
            self.severity,
            time,
            session,
            self.render(key, count, distinct),
        )
    }
}

/// Fixed-capacity stack string for rendering non-string key fields
/// (addresses, integers) without touching the allocator on the
/// per-event path.
struct KeyBuf {
    buf: [u8; 48],
    len: usize,
}

impl KeyBuf {
    fn new() -> KeyBuf {
        KeyBuf {
            buf: [0; 48],
            len: 0,
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).unwrap_or("")
    }
}

impl std::fmt::Write for KeyBuf {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let take = s.len().min(self.buf.len() - self.len);
        self.buf[self.len..self.len + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take;
        Ok(())
    }
}

/// Renders a field value into `buf` (for Ip/Int) or borrows it directly
/// (for Str), returning the canonical text used for both hashing and
/// the alert message.
fn field_text<'a>(value: &FieldValue<'a>, buf: &'a mut KeyBuf) -> &'a str {
    match value {
        FieldValue::Str(s) => s,
        FieldValue::Ip(ip) => {
            let _ = write!(buf, "{ip}");
            buf.as_str()
        }
        FieldValue::Int(i) => {
            let _ = write!(buf, "{i}");
            buf.as_str()
        }
    }
}

/// Validator-enforced ceiling on `distinct_threshold`: the table's
/// distinct probe is a fixed stack array of this many slots, so the
/// per-event path stays allocation-free.
pub const MAX_DISTINCT_THRESHOLD: u32 = 64;

/// A threshold clause evaluated per event: one key fanning out `count`
/// events (to `distinct` items) inside a sliding window, decided on the
/// rule's own [`ThresholdTable`]. Under the sharded pipeline's fold
/// plane ([`crate::rate::RateHub::aggregated`]) the rule sees only a
/// slice of each key's events, so it keeps no window and decides
/// nothing: every observation is forwarded raw, and the dispatcher's
/// [`crate::rate::GlobalRatePlane`] feeds the same table type with the
/// whole stream.
#[derive(Debug)]
pub struct ThresholdRule {
    spec: ThresholdSpec,
    info: RuleInfo,
    table: ThresholdTable,
}

impl ThresholdRule {
    /// Creates the rule from its compiled clause.
    pub fn new(spec: ThresholdSpec, info: impl Into<RuleInfo>) -> ThresholdRule {
        ThresholdRule {
            spec,
            info: info.into(),
            table: ThresholdTable::new(),
        }
    }
}

impl Rule for ThresholdRule {
    fn id(&self) -> &str {
        self.spec.clause
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
        RuleInterest::of(&[self.spec.class])
    }

    fn state_signature(&self) -> u64 {
        let spec = &self.spec;
        let [description, flags] = self.info.signature_parts();
        crate::rate::hash_parts(
            0x7472_6573_686f_6c64, // "treshold" tag: distinguishes rule kinds
            &[
                description,
                flags,
                spec.clause.as_bytes(),
                spec.class.name().as_bytes(),
                spec.key_field.as_bytes(),
                spec.distinct_field.unwrap_or("").as_bytes(),
                &spec.window.as_micros().to_le_bytes(),
                &spec.count_threshold.to_le_bytes(),
                &spec.distinct_threshold.to_le_bytes(),
                &[spec.severity as u8],
                spec.template.as_bytes(),
            ],
        )
    }

    fn on_event(&mut self, ev: &Event, ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        if ev.class() != self.spec.class {
            return;
        }
        let Some(key_value) = ev.kind.field(self.spec.key_field) else {
            return;
        };
        let mut key_buf = KeyBuf::new();
        let key_text = field_text(&key_value, &mut key_buf);
        if key_text.is_empty() {
            return;
        }
        // The key field's text identifies the window, the distinct
        // field's text is the distinct item; both travel as seeded
        // hashes, so the per-event path allocates no strings.
        let key = ctx.rates.key(&[self.spec.clause.as_bytes(), key_text.as_bytes()]);
        let item = match self.spec.distinct_field {
            Some(field) => {
                let Some(item_value) = ev.kind.field(field) else {
                    return;
                };
                let mut item_buf = KeyBuf::new();
                let item_text = field_text(&item_value, &mut item_buf);
                ctx.rates.key(&[field.as_bytes(), item_text.as_bytes()])
            }
            None => 0,
        };
        if ctx.rates.aggregated() {
            ctx.rates
                .forward(self.spec.clause, key, ev.time, item, key_text);
        } else if let Some((count, distinct)) = self.table.observe(ev.time, key, item, &self.spec) {
            let alert = self
                .spec
                .alert_at(ev.time, ev.session.clone(), key_text, count, distinct);
            sink.push(alert);
        }
    }

    fn state_stats(&self) -> RuleStateStats {
        RuleStateStats {
            sessions: self.table.keys(),
            evicted: self.table.evicted(),
            bytes: self.table.bytes(),
            ..RuleStateStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let a = intern("swap-test-tracker-a");
        let b = intern(&String::from("swap-test-tracker-a"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "swap-test-tracker-a");
    }

    #[test]
    fn template_rendering_substitutes_all_placeholders() {
        let spec = ThresholdSpec {
            clause: "t",
            class: EventClass::CallEstablished,
            key_field: "caller",
            distinct_field: Some("callee"),
            window: SimDuration::from_secs(60),
            count_threshold: 12,
            distinct_threshold: 8,
            severity: Severity::Critical,
            template: "{key} hit {count}/{distinct} in {window}s ({unknown} {open",
        };
        assert_eq!(
            spec.render("alice", 12, 9),
            "alice hit 12/9 in 60s ({unknown} {open"
        );
    }

    /// The engine-side plane at its cap: more distinct callers than the
    /// table holds, then one real fan-out. Bytes stay under the cap,
    /// every dropped observation is counted, and nobody but the real
    /// campaign is accused.
    #[test]
    fn rule_over_its_cap_stays_bounded_counts_evictions_and_never_accuses() {
        use crate::event::EventKind;
        use crate::rules::collect_alerts;
        use crate::trail::{TrailStore, TrailStoreConfig};
        const CAP: usize = 24 * 1024;
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let mut rule = ThresholdRule::new(crate::rules::rapid_spec(), "test");
        rule.table = ThresholdTable::with_cap(CAP);
        let mut alerts = Vec::new();
        let mut call = |ms: u64, caller: String, callee: String| {
            let ev = Event {
                time: SimTime::from_millis(ms),
                session: None,
                kind: EventKind::CallEstablished { caller, callee },
            };
            let ctx = RuleCtx {
                now: ev.time,
                trails: &store,
                rates: &rates,
            };
            alerts.extend(collect_alerts(&mut rule, &ev, &ctx));
            assert!(rule.state_stats().bytes <= CAP as u64);
        };
        for i in 0..4_000u64 {
            call(i, format!("c{i}@lab"), format!("peer{i}@lab"));
        }
        for i in 0..14u64 {
            call(4_000 + 100 * i, "spitter@lab".into(), format!("victim{i}@lab"));
        }
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!(alerts[0].message.contains("spitter@lab"));
        let stats = rule.state_stats();
        assert!(stats.evicted > 3_000, "evicted only {}", stats.evicted);
        assert!(stats.sessions > 0 && stats.sessions + stats.evicted <= 4_001);
    }

    #[test]
    fn key_buf_truncates_not_panics() {
        let mut buf = KeyBuf::new();
        let long = "x".repeat(100);
        let _ = write!(buf, "{long}");
        assert_eq!(buf.as_str().len(), 48);
    }
}
