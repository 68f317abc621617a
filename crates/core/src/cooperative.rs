//! Cooperative detection between multiple SCIDIVE instances (paper §6).
//!
//! "We can use a similar idea by deploying SCIDIVE-enabled IDS on both
//! end-points of the VoIP system. In such an installation, the two IDSs
//! could exchange event objects and portions of trails to enhance the
//! overall detection accuracy and efficiency."
//!
//! Each endpoint detector sees its own host's traffic (inbound frames
//! addressed to it, plus the frames its host actually transmitted —
//! host-based knowledge a wire sniffer does not have). The cluster
//! periodically collects each detector's event objects and runs
//! cross-detector rules. The flagship win is the attack the paper
//! concedes at §4.2.2: a fake instant message with a *spoofed* source
//! IP is indistinguishable at the victim's endpoint — but the
//! impersonated user's own detector knows its host never sent the
//! message, and the exchange exposes the forgery.

use crate::alert::{Alert, Severity};
use crate::engine::{Scidive, ScidiveConfig};
use crate::event::{Event, EventKind};
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::{SimDuration, SimTime};
use scidive_netsim::trace::Trace;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// One endpoint's detector in the cluster.
pub struct EndpointDetector {
    /// Detector name (usually the host it protects).
    pub name: String,
    /// The protected host's address.
    pub monitored_ip: Ipv4Addr,
    /// The node name of the protected host in the simulator trace (used
    /// to recognise frames the host *actually* transmitted — host-based
    /// knowledge).
    pub host_node: String,
    /// The wrapped engine.
    pub ids: Scidive,
}

impl EndpointDetector {
    /// Creates a detector for one endpoint; its engine keeps up to
    /// 100,000 undrained events for the exchange.
    pub fn new(
        name: impl Into<String>,
        monitored_ip: Ipv4Addr,
        host_node: impl Into<String>,
        config: ScidiveConfig,
    ) -> EndpointDetector {
        EndpointDetector {
            name: name.into(),
            monitored_ip,
            host_node: host_node.into(),
            ids: Scidive::new(ScidiveConfig {
                event_log_cap: 100_000,
                ..config
            }),
        }
    }

    /// Whether this detector's endpoint view includes a frame: inbound
    /// to the host, or genuinely transmitted by the host.
    fn sees(&self, dst: Ipv4Addr, sender_node: &str) -> bool {
        dst == self.monitored_ip || sender_node == self.host_node
    }
}

/// An event tagged with the detector that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedEvent {
    /// Producing detector's name.
    pub detector: String,
    /// The event object.
    pub event: Event,
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct CooperativeConfig {
    /// Which detector is "home" for each identity (AOR → detector
    /// name): the detector whose host-based view is authoritative for
    /// what that identity actually sent.
    pub identity_home: HashMap<String, String>,
    /// How long after a delivery to wait for the matching send before
    /// declaring it forged.
    pub exchange_window: SimDuration,
}

impl Default for CooperativeConfig {
    fn default() -> CooperativeConfig {
        CooperativeConfig {
            identity_home: HashMap::new(),
            exchange_window: SimDuration::from_secs(2),
        }
    }
}

impl CooperativeConfig {
    /// Registers the home detector of an identity (builder-style).
    pub fn with_home(
        mut self,
        aor: impl Into<String>,
        detector: impl Into<String>,
    ) -> CooperativeConfig {
        self.identity_home.insert(aor.into(), detector.into());
        self
    }
}

/// A cluster of endpoint detectors with an event-exchange correlator.
pub struct CooperativeCluster {
    config: CooperativeConfig,
    detectors: Vec<EndpointDetector>,
    exchanged: Vec<TaggedEvent>,
    cooperative_alerts: Vec<Alert>,
}

impl CooperativeCluster {
    /// Creates a cluster.
    pub fn new(config: CooperativeConfig, detectors: Vec<EndpointDetector>) -> CooperativeCluster {
        CooperativeCluster {
            config,
            detectors,
            exchanged: Vec::new(),
            cooperative_alerts: Vec::new(),
        }
    }

    /// The detectors (for per-endpoint alert inspection).
    pub fn detectors(&self) -> &[EndpointDetector] {
        &self.detectors
    }

    /// All events exchanged so far.
    pub fn exchanged_events(&self) -> &[TaggedEvent] {
        &self.exchanged
    }

    /// Alerts produced by cross-detector correlation (the per-endpoint
    /// engines' own alerts live on each [`EndpointDetector::ids`]).
    pub fn cooperative_alerts(&self) -> &[Alert] {
        &self.cooperative_alerts
    }

    /// Feeds a whole simulator trace: each frame is routed to the
    /// detectors whose endpoint view includes it, then detectors
    /// exchange events and the correlator runs.
    pub fn process_trace(&mut self, trace: &Trace) -> Vec<Alert> {
        for rec in trace.records() {
            self.offer(rec.time, &rec.packet, &rec.from_name);
        }
        self.exchange_and_correlate()
    }

    /// Offers one frame (with the name of the node that actually sent
    /// it) to every detector whose view includes it.
    pub fn offer(&mut self, time: SimTime, pkt: &IpPacket, sender_node: &str) {
        for det in &mut self.detectors {
            if det.sees(pkt.dst, sender_node) {
                det.ids.on_frame(time, pkt);
            }
        }
    }

    /// Runs the exchange round: drains every detector's event objects,
    /// then applies the cross-detector rules. Returns new cooperative
    /// alerts.
    pub fn exchange_and_correlate(&mut self) -> Vec<Alert> {
        for det in &mut self.detectors {
            let name = det.name.clone();
            self.exchanged.extend(
                det.ids
                    .drain_events()
                    .into_iter()
                    .map(|event| TaggedEvent {
                        detector: name.clone(),
                        event,
                    }),
            );
        }
        let new = self.correlate_forged_im();
        self.cooperative_alerts.extend(new.iter().cloned());
        new
    }

    /// Cross-detector rule: a message delivered somewhere claiming
    /// identity X, with no matching send observed by X's home detector
    /// within the exchange window, is forged — even if the source IP
    /// was spoofed perfectly.
    fn correlate_forged_im(&mut self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let already: Vec<crate::trail::SessionKey> = self
            .cooperative_alerts
            .iter()
            .filter(|a| a.rule == "coop-forged-im")
            .filter_map(|a| a.session.clone())
            .collect();
        for delivered in &self.exchanged {
            let EventKind::ImObserved {
                claimed_aor,
                dst_ip,
                call_id,
                ..
            } = &delivered.event.kind
            else {
                continue;
            };
            // Only deliveries seen at the *recipient's* detector count
            // (the home detector also logs genuine outbound sends).
            let recipient_det = self
                .detectors
                .iter()
                .find(|d| d.name == delivered.detector)
                .map(|d| d.monitored_ip);
            if recipient_det != Some(*dst_ip) {
                continue;
            }
            let Some(home) = self.config.identity_home.get(claimed_aor) else {
                continue; // nobody is authoritative for this identity
            };
            if home == &delivered.detector {
                continue; // a host cannot forge to itself this way
            }
            if already.iter().any(|s| s.as_str() == call_id.as_str()) {
                continue;
            }
            // Does the home detector have a matching send?
            let confirmed_send = self.exchanged.iter().any(|te| {
                te.detector == *home
                    && matches!(
                        &te.event.kind,
                        EventKind::ImObserved { call_id: c, claimed_aor: a, .. }
                            if c == call_id && a == claimed_aor
                    )
            });
            // Window: only judge once the exchange window has passed
            // (events are exchanged in batches; lateness is bounded by
            // the window).
            if !confirmed_send {
                alerts.push(Alert::new(
                    "coop-forged-im",
                    Severity::Critical,
                    delivered.event.time,
                    Some(crate::trail::SessionKey::new(call_id.clone())),
                    format!(
                        "message claiming {claimed_aor} delivered at {} but {}'s detector \
                         observed no matching send (call-id {call_id})",
                        delivered.detector, home
                    ),
                ));
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scidive_sip::header::{CSeq, NameAddr, Via};
    use scidive_sip::method::Method;
    use scidive_sip::msg::RequestBuilder;

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    fn message_from_bob(call_id: &str) -> IpPacket {
        let mut b = RequestBuilder::new(Method::Message, "sip:alice@lab".parse().unwrap());
        b.from(NameAddr::new("sip:bob@lab".parse().unwrap()).with_tag("t"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()))
            .call_id(call_id)
            .cseq(CSeq::new(1, Method::Message))
            .via(Via::udp("10.0.0.3:5060", format!("z9hG4bK-{call_id}")))
            .body("text/plain", "hello");
        // Spoofed at the IP layer: claims B's address.
        IpPacket::udp(B_IP, 5060, A_IP, 5060, b.build().to_bytes())
    }

    fn cluster() -> CooperativeCluster {
        let config = CooperativeConfig::default()
            .with_home("alice@lab", "ids-a")
            .with_home("bob@lab", "ids-b");
        CooperativeCluster::new(
            config,
            vec![
                EndpointDetector::new("ids-a", A_IP, "ua-a", ScidiveConfig::default()),
                EndpointDetector::new("ids-b", B_IP, "ua-b", ScidiveConfig::default()),
            ],
        )
    }

    #[test]
    fn spoofed_im_is_caught_cooperatively() {
        let mut cluster = cluster();
        // The attacker node transmits the spoofed frame; B's host did not
        // send it, so only A's detector sees the delivery.
        cluster.offer(SimTime::from_millis(10), &message_from_bob("im-1"), "attacker");
        let alerts = cluster.exchange_and_correlate();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].rule, "coop-forged-im");
        assert!(alerts[0].message.contains("bob"));
    }

    #[test]
    fn genuine_im_is_confirmed_by_home_detector() {
        let mut cluster = cluster();
        // B's host genuinely transmits the message: B's detector logs the
        // send, A's logs the delivery — they match.
        cluster.offer(SimTime::from_millis(10), &message_from_bob("im-2"), "ua-b");
        let alerts = cluster.exchange_and_correlate();
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn forged_im_alert_fires_once_per_message() {
        let mut cluster = cluster();
        cluster.offer(SimTime::from_millis(10), &message_from_bob("im-3"), "attacker");
        assert_eq!(cluster.exchange_and_correlate().len(), 1);
        assert!(cluster.exchange_and_correlate().is_empty());
        assert_eq!(cluster.cooperative_alerts().len(), 1);
    }

    #[test]
    fn unknown_identity_is_not_judged() {
        let mut cluster = cluster();
        let mut b = RequestBuilder::new(Method::Message, "sip:alice@lab".parse().unwrap());
        b.from(NameAddr::new("sip:stranger@elsewhere".parse().unwrap()).with_tag("t"))
            .to(NameAddr::new("sip:alice@lab".parse().unwrap()))
            .call_id("im-4")
            .cseq(CSeq::new(1, Method::Message))
            .via(Via::udp("9.9.9.9:5060", "z9hG4bK-x"));
        let pkt = IpPacket::udp(Ipv4Addr::new(9, 9, 9, 9), 5060, A_IP, 5060, b.build().to_bytes());
        cluster.offer(SimTime::from_millis(10), &pkt, "outsider");
        assert!(cluster.exchange_and_correlate().is_empty());
    }

    #[test]
    fn per_endpoint_views_are_disjoint_where_expected() {
        let mut cluster = cluster();
        // A frame between A and B is seen by both; a frame from the
        // attacker to A is seen only by A's detector.
        cluster.offer(SimTime::from_millis(1), &message_from_bob("im-5"), "ua-b");
        cluster.offer(SimTime::from_millis(2), &message_from_bob("im-6"), "attacker");
        cluster.exchange_and_correlate();
        let a_events = cluster
            .exchanged_events()
            .iter()
            .filter(|te| te.detector == "ids-a")
            .count();
        let b_events = cluster
            .exchanged_events()
            .iter()
            .filter(|te| te.detector == "ids-b")
            .count();
        assert!(a_events >= 2, "A sees both deliveries");
        assert!(b_events >= 1 && b_events < a_events, "B sees only its own send");
    }
}
