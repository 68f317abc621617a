//! The BYE-attack rule with the paper's "crude trail access".
//!
//! "Besides the information that Events provide, the Ruleset can also
//! perform the matching based on crude information directly from the
//! Trails in case no suitable Event is available. For example, we might
//! be interested in knowing who prematurely tears down the session. To
//! achieve this, we probably need to have a look at the corresponding
//! SIP Footprint to identify the ID and IP address of the originator."
//!
//! This rule fires on the orphan-flow event like the simple variant, but
//! then digs into the session's SIP trail to name the BYE's claimed
//! originator and the network address the teardown actually came from —
//! forensic detail the condensed event does not carry.

use crate::alert::{Alert, Severity};
use crate::event::{Event, EventClass};
use crate::footprint::{FootprintBody, TrailProto};
use crate::rules::{AlertSink, Rule, RuleCtx, RuleInterest, RuleStateStats, SessionMap};
use crate::trail::{SessionKey, TrailKey};
use scidive_netsim::time::SimDuration;
use scidive_sip::method::Method;
use std::net::Ipv4Addr;

/// Who sent the fatal BYE, per the SIP trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByeOrigin {
    /// The AOR the BYE's From header claims.
    pub claimed_aor: Option<String>,
    /// The IP the BYE packet actually came from.
    pub src_ip: Ipv4Addr,
    /// The BYE's CSeq number (forged BYEs often jump it).
    pub cseq: Option<u32>,
}

/// The enriched BYE-attack rule.
#[derive(Debug, Default)]
pub struct ByeAttackRule {
    fired: SessionMap<()>,
}

impl ByeAttackRule {
    /// Creates the rule.
    pub fn new() -> ByeAttackRule {
        ByeAttackRule::default()
    }

    /// Crude trail access: finds the (last) BYE footprint in the
    /// session's SIP trail and extracts originator details.
    pub fn bye_origin(ctx: &RuleCtx<'_>, session: &SessionKey) -> Option<ByeOrigin> {
        let key = TrailKey {
            session: session.clone(),
            proto: TrailProto::Sip,
        };
        let trail = ctx.trails.trail(&key)?;
        // Search backwards: the fatal BYE is the most recent one.
        let bye = trail
            .footprints()
            .rev()
            .find(|fp| matches!(&fp.body, FootprintBody::Sip(m) if m.method() == Some(Method::Bye)))?;
        let FootprintBody::Sip(msg) = &bye.body else {
            unreachable!("filtered to SIP above");
        };
        Some(ByeOrigin {
            claimed_aor: msg.from_aor().map(str::to_string),
            src_ip: bye.meta.src,
            cseq: msg.view().cseq().map(|c| c.seq),
        })
    }
}

impl Rule for ByeAttackRule {
    fn id(&self) -> &str {
        "bye-attack"
    }

    fn description(&self) -> &str {
        "no RTP should be seen from a user agent after its BYE"
    }

    fn is_cross_protocol(&self) -> bool {
        true
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn interests(&self) -> RuleInterest {
        RuleInterest::of(&[EventClass::OrphanRtpAfterBye])
    }

    fn on_event(&mut self, ev: &Event, ctx: &RuleCtx<'_>, sink: &mut AlertSink<'_>) {
        if ev.class() != EventClass::OrphanRtpAfterBye {
            return;
        }
        let Some(session) = &ev.session else {
            return;
        };
        if self.fired.get_mut(session, ev.time).is_some() {
            return;
        }
        self.fired.insert(session.clone(), (), ev.time);
        let origin = Self::bye_origin(ctx, session);
        let forensics = match &origin {
            Some(o) => format!(
                "; the BYE claimed {} and came from {} (CSeq {})",
                o.claimed_aor.as_deref().unwrap_or("<unknown>"),
                o.src_ip,
                o.cseq.map(|c| c.to_string()).unwrap_or_else(|| "?".into()),
            ),
            None => String::new(),
        };
        sink.push(Alert::new(
            "bye-attack",
            Severity::Critical,
            ev.time,
            Some(session.clone()),
            format!(
                "{}: orphan media after teardown{forensics}",
                self.description()
            ),
        ));
    }

    fn set_state_timeout(&mut self, timeout: SimDuration) {
        self.fired.set_timeout(timeout);
    }

    fn state_stats(&self) -> RuleStateStats {
        self.fired.gauge().into()
    }

    fn state_signature(&self) -> u64 {
        // No tunable parameters: any instance can adopt any other's
        // fired-once markers.
        crate::rate::hash_parts(0x6279_655f_7369_6721, &[b"bye-attack"])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, FlowKey};
    use crate::footprint::{Footprint, PacketMeta};
    use crate::rules::collect_alerts;
    use crate::trail::{TrailStore, TrailStoreConfig};
    use scidive_netsim::time::SimTime;
    use scidive_sip::header::{CSeq, NameAddr, Via};
    use scidive_sip::msg::RequestBuilder;

    fn bye_footprint(src: Ipv4Addr, cseq: u32) -> Footprint {
        let mut b = RequestBuilder::new(Method::Bye, "sip:alice@10.0.0.2".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("tb"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()).with_tag("ta"))
            .call_id("c1")
            .cseq(CSeq::new(cseq, Method::Bye))
            .via(Via::udp("10.0.0.3:5060", "z9hG4bK-x"));
        Footprint {
            meta: PacketMeta {
                time: SimTime::from_millis(1),
                src,
                src_port: 5060,
                dst: Ipv4Addr::new(10, 0, 0, 2),
                dst_port: 5060,
            },
            body: FootprintBody::Sip(b.build().into()),
        }
    }

    fn orphan_event() -> Event {
        Event {
            time: SimTime::from_millis(10),
            session: Some(SessionKey::new("c1")),
            kind: EventKind::OrphanRtpAfterBye {
                flow: FlowKey {
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: 8000,
                },
                gap: SimDuration::from_millis(3),
            },
        }
    }

    #[test]
    fn alert_names_the_bye_originator_from_the_trail() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(bye_footprint(Ipv4Addr::new(10, 0, 0, 66), 101));
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = ByeAttackRule::new();
        let alerts = collect_alerts(&mut rule, &orphan_event(), &ctx);
        assert_eq!(alerts.len(), 1);
        let msg = &alerts[0].message;
        assert!(msg.contains("bob@lab"), "{msg}");
        assert!(msg.contains("10.0.0.66"), "{msg}");
        assert!(msg.contains("CSeq 101"), "{msg}");
    }

    #[test]
    fn latest_bye_wins() {
        let mut store = TrailStore::new(TrailStoreConfig::default());
        store.insert(bye_footprint(Ipv4Addr::new(10, 0, 0, 3), 2));
        store.insert(bye_footprint(Ipv4Addr::new(10, 0, 0, 66), 102));
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let origin = ByeAttackRule::bye_origin(&ctx, &SessionKey::new("c1")).unwrap();
        assert_eq!(origin.src_ip, Ipv4Addr::new(10, 0, 0, 66));
        assert_eq!(origin.cseq, Some(102));
    }

    #[test]
    fn fires_once_per_session_and_survives_missing_trail() {
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(10),
            trails: &store,
            rates: &rates,
        };
        let mut rule = ByeAttackRule::new();
        // No SIP trail at all: still alarms (without forensics).
        let alerts = collect_alerts(&mut rule, &orphan_event(), &ctx);
        assert_eq!(alerts.len(), 1);
        assert!(!alerts[0].message.contains("came from"));
        assert!(collect_alerts(&mut rule, &orphan_event(), &ctx).is_empty());
    }
}
