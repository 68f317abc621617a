//! The event vocabulary (paper §3.1).
//!
//! "The Event Generator maps footprints into a single event. ... It
//! helps performance by hiding some computationally expensive matching,
//! e.g., by triggering the ruleset at the moment of interest instead of
//! triggering it upon each incoming RTP Footprint."
//!
//! This module defines the *vocabulary* the rule engine matches on —
//! [`EventClass`], [`Event`], [`EventKind`], [`FlowKey`], [`ByeOrigin`]
//! and the generator's [`EventGenConfig`]. The generation machinery
//! itself (the [`EventGenerator`], the [`IdentityPlane`], and the
//! per-protocol handlers) lives in [`crate::proto`], one module per
//! protocol, and is re-exported here so existing import paths keep
//! working.

use crate::trail::SessionKey;
use scidive_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

pub use crate::proto::{EventGenerator, IdentityPlane};

/// Identifies an RTP (or garbage) flow towards a media sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Claimed source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dst_port: u16,
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}:{}", self.src, self.dst, self.dst_port)
    }
}

/// Who sent a BYE: the forensic detail of the paper's "who prematurely
/// tears down the session", recorded by the session plane on every BYE
/// and carried by [`EventKind::OrphanRtpAfterBye`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByeOrigin {
    /// The AOR the BYE's From header claims, if it parses.
    pub claimed_aor: Option<String>,
    /// The IP the BYE packet actually came from.
    pub src_ip: Ipv4Addr,
    /// The BYE's CSeq number (forged BYEs often jump it).
    pub cseq: Option<u32>,
}

impl fmt::Display for ByeOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let aor = self.claimed_aor.as_deref().unwrap_or("<unknown>");
        write!(
            f,
            "the BYE claimed {aor} and came from {} (CSeq ",
            self.src_ip
        )?;
        match self.cseq {
            Some(n) => write!(f, "{n})"),
            None => f.write_str("?)"),
        }
    }
}

/// The class of an event, used by rules for matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventClass {
    /// A call reached the established state.
    CallEstablished,
    /// A BYE was observed tearing a session down.
    CallTornDown,
    /// A re-INVITE moved a session's media target.
    CallRedirected,
    /// RTP from the teardown's claimed sender after the BYE.
    OrphanRtpAfterBye,
    /// RTP from the old endpoint after a re-INVITE claimed it moved.
    OrphanRtpAfterRedirect,
    /// Consecutive sequence numbers differ by more than the threshold.
    RtpSeqViolation,
    /// RTP towards a session sink from an address outside the session.
    RtpUnknownSource,
    /// Undecodable bytes aimed at a known media sink.
    MediaPortGarbage,
    /// A SIP message that is not correctly formatted.
    SipMalformed,
    /// An instant message whose source does not match its claimed sender.
    ImSourceMismatch,
    /// Any instant message observed on a non-relay leg (cooperative
    /// detection correlates these across detectors).
    ImObserved,
    /// Repeated SIP requests / 4xx churn beyond the flood threshold.
    RegisterFlood,
    /// Many distinct digest responses for one identity: brute force.
    PasswordGuessing,
    /// An accounting transaction with no matching SIP call setup.
    AcctMismatch,
    /// First packet of a media flow within a session.
    RtpFlowActive,
    /// RTP from an SSRC continuing after that SSRC's RTCP BYE.
    RtpAfterRtcpBye,
    /// Extension class 0, claimable by out-of-core protocol modules via
    /// [`EventKind::Protocol`].
    Ext0,
    /// Extension class 1 (see [`EventClass::Ext0`]).
    Ext1,
    /// Extension class 2 (see [`EventClass::Ext0`]).
    Ext2,
    /// Extension class 3 (see [`EventClass::Ext0`]).
    Ext3,
}

impl EventClass {
    /// Number of event classes. The enum is fieldless with default
    /// discriminants, so `class as usize` is a valid index in
    /// `0..COUNT` — the basis of the compiled rule dispatch table.
    pub const COUNT: usize = 20;

    /// All classes, for spec parsing and enumeration, in discriminant
    /// order (`ALL[i] as usize == i`).
    pub const ALL: [EventClass; 20] = [
        EventClass::CallEstablished,
        EventClass::CallTornDown,
        EventClass::CallRedirected,
        EventClass::OrphanRtpAfterBye,
        EventClass::OrphanRtpAfterRedirect,
        EventClass::RtpSeqViolation,
        EventClass::RtpUnknownSource,
        EventClass::MediaPortGarbage,
        EventClass::SipMalformed,
        EventClass::ImSourceMismatch,
        EventClass::ImObserved,
        EventClass::RegisterFlood,
        EventClass::PasswordGuessing,
        EventClass::AcctMismatch,
        EventClass::RtpFlowActive,
        EventClass::RtpAfterRtcpBye,
        EventClass::Ext0,
        EventClass::Ext1,
        EventClass::Ext2,
        EventClass::Ext3,
    ];

    /// The class's canonical name (its variant name).
    pub fn name(self) -> &'static str {
        match self {
            EventClass::CallEstablished => "CallEstablished",
            EventClass::CallTornDown => "CallTornDown",
            EventClass::CallRedirected => "CallRedirected",
            EventClass::OrphanRtpAfterBye => "OrphanRtpAfterBye",
            EventClass::OrphanRtpAfterRedirect => "OrphanRtpAfterRedirect",
            EventClass::RtpSeqViolation => "RtpSeqViolation",
            EventClass::RtpUnknownSource => "RtpUnknownSource",
            EventClass::MediaPortGarbage => "MediaPortGarbage",
            EventClass::SipMalformed => "SipMalformed",
            EventClass::ImSourceMismatch => "ImSourceMismatch",
            EventClass::ImObserved => "ImObserved",
            EventClass::RegisterFlood => "RegisterFlood",
            EventClass::PasswordGuessing => "PasswordGuessing",
            EventClass::AcctMismatch => "AcctMismatch",
            EventClass::RtpFlowActive => "RtpFlowActive",
            EventClass::RtpAfterRtcpBye => "RtpAfterRtcpBye",
            EventClass::Ext0 => "Ext0",
            EventClass::Ext1 => "Ext1",
            EventClass::Ext2 => "Ext2",
            EventClass::Ext3 => "Ext3",
        }
    }

    /// Parses a class by its canonical name (case-insensitive).
    pub fn parse_name(name: &str) -> Option<EventClass> {
        EventClass::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
    }
}

/// A generated event: the unit the rule engine matches on.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// When the triggering footprint was observed.
    pub time: SimTime,
    /// The owning session, when the event is session-scoped.
    pub session: Option<SessionKey>,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// The event's class.
    pub fn class(&self) -> EventClass {
        self.kind.class()
    }
}

/// Event payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// See [`EventClass::CallEstablished`].
    CallEstablished {
        /// Caller AOR.
        caller: String,
        /// Callee AOR.
        callee: String,
    },
    /// See [`EventClass::CallTornDown`].
    CallTornDown {
        /// Who the BYE claims sent it.
        by_aor: String,
        /// That side's media address, if negotiated.
        by_media_ip: Option<Ipv4Addr>,
    },
    /// See [`EventClass::CallRedirected`].
    CallRedirected {
        /// Who the re-INVITE claims moved.
        claimed_aor: String,
        /// The endpoint being abandoned.
        old_target: (Ipv4Addr, u16),
        /// The new media target.
        new_target: (Ipv4Addr, u16),
    },
    /// See [`EventClass::OrphanRtpAfterBye`].
    OrphanRtpAfterBye {
        /// The continuing flow.
        flow: FlowKey,
        /// Time since the BYE.
        gap: SimDuration,
        /// Who sent the session's latest BYE.
        bye: ByeOrigin,
    },
    /// See [`EventClass::OrphanRtpAfterRedirect`].
    OrphanRtpAfterRedirect {
        /// The continuing flow.
        flow: FlowKey,
        /// Time since the re-INVITE.
        gap: SimDuration,
    },
    /// See [`EventClass::RtpSeqViolation`].
    RtpSeqViolation {
        /// The offending flow.
        flow: FlowKey,
        /// The sequence delta observed.
        delta: i32,
    },
    /// See [`EventClass::RtpUnknownSource`].
    RtpUnknownSource {
        /// The offending flow.
        flow: FlowKey,
    },
    /// See [`EventClass::MediaPortGarbage`].
    MediaPortGarbage {
        /// The targeted sink.
        sink: (Ipv4Addr, u16),
        /// Why it did not decode.
        reason: String,
    },
    /// See [`EventClass::SipMalformed`].
    SipMalformed {
        /// The format violations found.
        violations: Vec<String>,
        /// Source of the message.
        src: Ipv4Addr,
    },
    /// See [`EventClass::ImSourceMismatch`].
    ImSourceMismatch {
        /// The identity the message claims.
        claimed_aor: String,
        /// Where it actually came from.
        src_ip: Ipv4Addr,
        /// Where that identity was last seen.
        expected_ip: Ipv4Addr,
    },
    /// See [`EventClass::ImObserved`].
    ImObserved {
        /// The identity the message claims.
        claimed_aor: String,
        /// Network source of the leg.
        src_ip: Ipv4Addr,
        /// Network destination of the leg.
        dst_ip: Ipv4Addr,
        /// The message's Call-ID (the cross-detector join key).
        call_id: String,
    },
    /// See [`EventClass::RegisterFlood`].
    RegisterFlood {
        /// The flooding source (unspecified in stateless mode).
        src: Ipv4Addr,
        /// Request/4xx alternations counted in the window.
        count: u32,
    },
    /// See [`EventClass::PasswordGuessing`].
    PasswordGuessing {
        /// The guessing source.
        src: Ipv4Addr,
        /// The identity under attack.
        username: String,
        /// Distinct digest responses tried.
        distinct_responses: u32,
    },
    /// See [`EventClass::AcctMismatch`].
    AcctMismatch {
        /// Who the billing system is charging.
        billed: String,
        /// Who the SIP trail says initiated the call, if anyone.
        observed_caller: Option<String>,
        /// The billed Call-ID.
        call_id: String,
    },
    /// See [`EventClass::RtpFlowActive`].
    RtpFlowActive {
        /// The new flow.
        flow: FlowKey,
    },
    /// See [`EventClass::RtpAfterRtcpBye`].
    RtpAfterRtcpBye {
        /// The continuing flow.
        flow: FlowKey,
        /// The SSRC that said goodbye.
        ssrc: u32,
        /// Time since the RTCP BYE.
        gap: SimDuration,
    },
    /// An event emitted by an extension protocol module, carried on one
    /// of the [`EventClass::Ext0`]..[`EventClass::Ext3`] classes so
    /// rules can subscribe to it through the compiled dispatch table
    /// without core knowing the protocol.
    Protocol {
        /// The extension class the module claimed.
        class: EventClass,
        /// A stable, machine-matchable signal name (rules match on
        /// this, not on the detail text).
        signal: &'static str,
        /// Human-readable detail for alert messages.
        detail: String,
    },
}

/// A field value extracted from an [`EventKind`] payload by name, for
/// operator-rule predicates ([`crate::rules::dsl`]). Borrowed where the
/// payload owns a string so extraction never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue<'a> {
    /// Numeric payload (counts, deltas, ports, millisecond gaps).
    Int(i64),
    /// Text payload (AORs, usernames, call IDs, detail strings).
    Str(&'a str),
    /// Address payload.
    Ip(Ipv4Addr),
}

impl EventKind {
    /// The matchable field names of a class, for spec validation. Every
    /// name here is extractable via [`EventKind::field`] on a payload of
    /// the class (optional payloads may still yield `None` at runtime).
    pub fn field_names(class: EventClass) -> &'static [&'static str] {
        const FLOW: [&str; 3] = ["flow.src", "flow.dst", "flow.dst_port"];
        match class {
            EventClass::CallEstablished => &["caller", "callee"],
            EventClass::CallTornDown => &["by_aor", "by_media_ip"],
            EventClass::CallRedirected => &["claimed_aor"],
            EventClass::OrphanRtpAfterBye | EventClass::OrphanRtpAfterRedirect => {
                &["flow.src", "flow.dst", "flow.dst_port", "gap_ms"]
            }
            EventClass::RtpSeqViolation => &["flow.src", "flow.dst", "flow.dst_port", "delta"],
            EventClass::RtpUnknownSource | EventClass::RtpFlowActive => &FLOW,
            EventClass::MediaPortGarbage => &["reason"],
            EventClass::SipMalformed => &["src", "violations"],
            EventClass::ImSourceMismatch => &["claimed_aor", "src_ip", "expected_ip"],
            EventClass::ImObserved => &["claimed_aor", "src_ip", "dst_ip", "call_id"],
            EventClass::RegisterFlood => &["src", "count"],
            EventClass::PasswordGuessing => &["src", "username", "distinct_responses"],
            EventClass::AcctMismatch => &["billed", "observed_caller", "call_id"],
            EventClass::RtpAfterRtcpBye => {
                &["flow.src", "flow.dst", "flow.dst_port", "ssrc", "gap_ms"]
            }
            EventClass::Ext0 | EventClass::Ext1 | EventClass::Ext2 | EventClass::Ext3 => {
                &["signal", "detail"]
            }
        }
    }

    /// Extracts a named field from this payload. Returns `None` when the
    /// name does not belong to this class, or when an optional payload
    /// (e.g. `CallTornDown.by_media_ip`) is absent — a predicate on an
    /// absent field simply does not match.
    pub fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        fn flow(f: &FlowKey, name: &str) -> Option<FieldValue<'static>> {
            match name {
                "flow.src" => Some(FieldValue::Ip(f.src)),
                "flow.dst" => Some(FieldValue::Ip(f.dst)),
                "flow.dst_port" => Some(FieldValue::Int(i64::from(f.dst_port))),
                _ => None,
            }
        }
        fn gap_ms(g: &SimDuration) -> FieldValue<'static> {
            FieldValue::Int(g.as_micros() as i64 / 1000)
        }
        match (self, name) {
            (EventKind::CallEstablished { caller, .. }, "caller") => {
                Some(FieldValue::Str(caller))
            }
            (EventKind::CallEstablished { callee, .. }, "callee") => {
                Some(FieldValue::Str(callee))
            }
            (EventKind::CallTornDown { by_aor, .. }, "by_aor") => Some(FieldValue::Str(by_aor)),
            (EventKind::CallTornDown { by_media_ip, .. }, "by_media_ip") => {
                by_media_ip.map(FieldValue::Ip)
            }
            (EventKind::CallRedirected { claimed_aor, .. }, "claimed_aor") => {
                Some(FieldValue::Str(claimed_aor))
            }
            (EventKind::OrphanRtpAfterBye { gap, .. }, "gap_ms")
            | (EventKind::OrphanRtpAfterRedirect { gap, .. }, "gap_ms")
            | (EventKind::RtpAfterRtcpBye { gap, .. }, "gap_ms") => Some(gap_ms(gap)),
            (EventKind::OrphanRtpAfterBye { flow: f, .. }, _)
            | (EventKind::OrphanRtpAfterRedirect { flow: f, .. }, _)
            | (EventKind::RtpSeqViolation { flow: f, .. }, _)
            | (EventKind::RtpUnknownSource { flow: f }, _)
            | (EventKind::RtpFlowActive { flow: f }, _)
            | (EventKind::RtpAfterRtcpBye { flow: f, .. }, _)
                if name.starts_with("flow.") =>
            {
                flow(f, name)
            }
            (EventKind::RtpSeqViolation { delta, .. }, "delta") => {
                Some(FieldValue::Int(i64::from(*delta)))
            }
            (EventKind::MediaPortGarbage { reason, .. }, "reason") => {
                Some(FieldValue::Str(reason))
            }
            (EventKind::SipMalformed { src, .. }, "src") => Some(FieldValue::Ip(*src)),
            (EventKind::SipMalformed { violations, .. }, "violations") => {
                Some(FieldValue::Int(violations.len() as i64))
            }
            (EventKind::ImSourceMismatch { claimed_aor, .. }, "claimed_aor")
            | (EventKind::ImObserved { claimed_aor, .. }, "claimed_aor") => {
                Some(FieldValue::Str(claimed_aor))
            }
            (EventKind::ImSourceMismatch { src_ip, .. }, "src_ip")
            | (EventKind::ImObserved { src_ip, .. }, "src_ip") => Some(FieldValue::Ip(*src_ip)),
            (EventKind::ImSourceMismatch { expected_ip, .. }, "expected_ip") => {
                Some(FieldValue::Ip(*expected_ip))
            }
            (EventKind::ImObserved { dst_ip, .. }, "dst_ip") => Some(FieldValue::Ip(*dst_ip)),
            (EventKind::ImObserved { call_id, .. }, "call_id")
            | (EventKind::AcctMismatch { call_id, .. }, "call_id") => {
                Some(FieldValue::Str(call_id))
            }
            (EventKind::RegisterFlood { src, .. }, "src")
            | (EventKind::PasswordGuessing { src, .. }, "src") => Some(FieldValue::Ip(*src)),
            (EventKind::RegisterFlood { count, .. }, "count") => {
                Some(FieldValue::Int(i64::from(*count)))
            }
            (EventKind::PasswordGuessing { username, .. }, "username") => {
                Some(FieldValue::Str(username))
            }
            (EventKind::PasswordGuessing { distinct_responses, .. }, "distinct_responses") => {
                Some(FieldValue::Int(i64::from(*distinct_responses)))
            }
            (EventKind::AcctMismatch { billed, .. }, "billed") => Some(FieldValue::Str(billed)),
            (EventKind::AcctMismatch { observed_caller, .. }, "observed_caller") => {
                observed_caller.as_deref().map(FieldValue::Str)
            }
            (EventKind::RtpAfterRtcpBye { ssrc, .. }, "ssrc") => {
                Some(FieldValue::Int(i64::from(*ssrc)))
            }
            (EventKind::Protocol { signal, .. }, "signal") => Some(FieldValue::Str(signal)),
            (EventKind::Protocol { detail, .. }, "detail") => Some(FieldValue::Str(detail)),
            _ => None,
        }
    }

    /// The class of this payload.
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::CallEstablished { .. } => EventClass::CallEstablished,
            EventKind::CallTornDown { .. } => EventClass::CallTornDown,
            EventKind::CallRedirected { .. } => EventClass::CallRedirected,
            EventKind::OrphanRtpAfterBye { .. } => EventClass::OrphanRtpAfterBye,
            EventKind::OrphanRtpAfterRedirect { .. } => EventClass::OrphanRtpAfterRedirect,
            EventKind::RtpSeqViolation { .. } => EventClass::RtpSeqViolation,
            EventKind::RtpUnknownSource { .. } => EventClass::RtpUnknownSource,
            EventKind::MediaPortGarbage { .. } => EventClass::MediaPortGarbage,
            EventKind::SipMalformed { .. } => EventClass::SipMalformed,
            EventKind::ImSourceMismatch { .. } => EventClass::ImSourceMismatch,
            EventKind::ImObserved { .. } => EventClass::ImObserved,
            EventKind::RegisterFlood { .. } => EventClass::RegisterFlood,
            EventKind::PasswordGuessing { .. } => EventClass::PasswordGuessing,
            EventKind::AcctMismatch { .. } => EventClass::AcctMismatch,
            EventKind::RtpFlowActive { .. } => EventClass::RtpFlowActive,
            EventKind::RtpAfterRtcpBye { .. } => EventClass::RtpAfterRtcpBye,
            EventKind::Protocol { class, .. } => *class,
        }
    }
}

/// The payload as an alert renders it after the rule's description
/// (`"{description}: {event}"`); classes without a phrasing of their
/// own print their `Debug` form.
impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::OrphanRtpAfterBye { bye, .. } => {
                write!(f, "orphan media after teardown; {bye}")
            }
            EventKind::OrphanRtpAfterRedirect { flow, gap } => {
                write!(f, "RTP flow {flow} continued {gap} after the re-INVITE")
            }
            EventKind::RtpSeqViolation { flow, delta } => {
                write!(f, "sequence jumped by {delta} on {flow}")
            }
            EventKind::RtpUnknownSource { flow } => {
                write!(f, "media from unnegotiated source on {flow}")
            }
            EventKind::MediaPortGarbage { sink, reason } => {
                write!(f, "undecodable media at {}:{} ({reason})", sink.0, sink.1)
            }
            EventKind::ImSourceMismatch {
                claimed_aor,
                src_ip,
                expected_ip,
            } => write!(
                f,
                "message claims {claimed_aor} but came from {src_ip} (expected {expected_ip})"
            ),
            EventKind::RegisterFlood { src, count } => {
                write!(f, "{count} request/4xx alternations from {src}")
            }
            EventKind::PasswordGuessing {
                src,
                username,
                distinct_responses: n,
            } => {
                write!(f, "{n} distinct digest responses for {username} from {src}")
            }
            EventKind::SipMalformed { violations, src } => {
                let (n, all) = (violations.len(), violations.join("; "));
                write!(f, "{n} violation(s) from {src}: {all}")
            }
            EventKind::RtpAfterRtcpBye { flow, ssrc: s, gap } => {
                write!(
                    f,
                    "SSRC {s:#010x} kept streaming on {flow} {gap} after its RTCP BYE"
                )
            }
            EventKind::AcctMismatch {
                billed,
                observed_caller,
                call_id,
            } => {
                let caller = observed_caller.as_deref().unwrap_or("<nobody>");
                write!(
                    f,
                    "billing charges {billed} for call {call_id} initiated by {caller}"
                )
            }
            EventKind::Protocol { signal, detail, .. } => write!(f, "{signal}: {detail}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Event-generator configuration.
#[derive(Debug, Clone)]
pub struct EventGenConfig {
    /// The monitoring window `m` of §4.3: how long after a BYE/re-INVITE
    /// orphan media still triggers an event.
    pub monitor_window: SimDuration,
    /// The §4.2.4 sequence-jump threshold ("difference greater than
    /// 100").
    pub seq_jump_threshold: i32,
    /// Sliding window for REGISTER-flood counting.
    pub flood_window: SimDuration,
    /// Request/4xx alternations within the window that mean a flood.
    pub flood_threshold: u32,
    /// Sliding window for password-guess counting.
    pub guess_window: SimDuration,
    /// Distinct digest responses within the window that mean guessing.
    pub guess_threshold: u32,
    /// Fastest plausible legitimate mobility: identity-to-IP changes
    /// quicker than this are suspicious (§4.2.2 "rate of user mobility").
    pub im_mobility_interval: SimDuration,
    /// Grace period after an RTCP BYE during which already-in-flight
    /// media is not treated as an anomaly. A source emits its RTCP BYE
    /// at the instant it stops, so frames sent just before are still on
    /// the wire — unlike the SIP BYE case, where well-behaved clients
    /// stop media a beat earlier (and where the paper's P_f model
    /// deliberately keeps the race).
    pub rtcp_bye_grace: SimDuration,
    /// Known relays (proxies, accounting) whose source addresses do not
    /// identify the originating user.
    pub infrastructure_ips: Vec<Ipv4Addr>,
    /// Stateful detection: keep per-source / per-identity state. When
    /// disabled, registration and IM tracking degrade to the global,
    /// session-unaware counting a stateless matcher would do (§3.3).
    pub stateful: bool,
    /// Cross-protocol detection: correlate SIP/RTP/accounting trails.
    /// When disabled, no orphan-flow or billing-mismatch events exist.
    pub cross_protocol: bool,
    /// Inert: the identity plane decides floods and password guessing
    /// on exact, capped per-key tables ([`crate::rate::ThresholdTable`])
    /// whatever this says. Kept only so existing configurations still
    /// build.
    pub exact_rate_state: bool,
    /// Inert: the identity plane hashes its keys with
    /// [`crate::rate::DEFAULT_RATE_SEED`]. Kept only so existing
    /// configurations still build.
    pub rate: crate::rate::RateConfig,
    /// Idle expiry for identity-plane AOR→IP bindings: a binding not
    /// re-learned for longer than this reads as absent. Far above
    /// `im_mobility_interval`, so expiring an idle binding never turns a
    /// plausible re-registration into a mismatch.
    pub identity_timeout: SimDuration,
    /// Idle expiry for per-session dialog state and RTP flow history in
    /// the [`crate::proto::SessionPlane`]: a session or flow with no
    /// footprint for longer than this reads as absent, and starts fresh
    /// when it resumes. Far above `monitor_window`,
    /// so expiry never races an armed orphan-media watch; a dialog
    /// genuinely idle this long has long since left every window the
    /// rules care about.
    pub session_timeout: SimDuration,
}

impl Default for EventGenConfig {
    fn default() -> EventGenConfig {
        EventGenConfig {
            monitor_window: SimDuration::from_millis(200),
            seq_jump_threshold: 100,
            flood_window: SimDuration::from_secs(10),
            flood_threshold: 10,
            guess_window: SimDuration::from_secs(30),
            guess_threshold: 3,
            im_mobility_interval: SimDuration::from_secs(60),
            rtcp_bye_grace: SimDuration::from_millis(5),
            infrastructure_ips: Vec::new(),
            stateful: true,
            cross_protocol: true,
            exact_rate_state: true,
            rate: crate::rate::RateConfig::default(),
            identity_timeout: SimDuration::from_secs(600),
            session_timeout: SimDuration::from_secs(600),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_discriminants_index_all() {
        for (i, class) in EventClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, i);
            assert_eq!(EventClass::parse_name(class.name()), Some(class));
        }
        assert_eq!(EventClass::ALL.len(), EventClass::COUNT);
    }

    #[test]
    fn class_names_parse_case_insensitively() {
        for c in EventClass::ALL {
            assert_eq!(
                EventClass::parse_name(&c.name().to_ascii_lowercase()),
                Some(c)
            );
        }
        assert_eq!(EventClass::parse_name("NotAClass"), None);
    }

    #[test]
    fn every_declared_field_extracts_from_a_sample_payload() {
        let samples: Vec<EventKind> = vec![
            EventKind::CallEstablished {
                caller: "a@x".into(),
                callee: "b@x".into(),
            },
            EventKind::CallTornDown {
                by_aor: "a@x".into(),
                by_media_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
            },
            EventKind::CallRedirected {
                claimed_aor: "a@x".into(),
                old_target: (Ipv4Addr::new(10, 0, 0, 1), 1),
                new_target: (Ipv4Addr::new(10, 0, 0, 2), 2),
            },
            EventKind::OrphanRtpAfterBye {
                flow: sample_flow(),
                gap: SimDuration::from_millis(7),
                bye: ByeOrigin {
                    claimed_aor: Some("a@x".into()),
                    src_ip: Ipv4Addr::new(10, 0, 0, 9),
                    cseq: Some(2),
                },
            },
            EventKind::OrphanRtpAfterRedirect {
                flow: sample_flow(),
                gap: SimDuration::from_millis(7),
            },
            EventKind::RtpSeqViolation {
                flow: sample_flow(),
                delta: 200,
            },
            EventKind::RtpUnknownSource { flow: sample_flow() },
            EventKind::MediaPortGarbage {
                sink: (Ipv4Addr::new(10, 0, 0, 2), 9000),
                reason: "short".into(),
            },
            EventKind::SipMalformed {
                violations: vec!["x".into()],
                src: Ipv4Addr::new(10, 0, 0, 9),
            },
            EventKind::ImSourceMismatch {
                claimed_aor: "a@x".into(),
                src_ip: Ipv4Addr::new(10, 0, 0, 9),
                expected_ip: Ipv4Addr::new(10, 0, 0, 1),
            },
            EventKind::ImObserved {
                claimed_aor: "a@x".into(),
                src_ip: Ipv4Addr::new(10, 0, 0, 1),
                dst_ip: Ipv4Addr::new(10, 0, 0, 2),
                call_id: "c1".into(),
            },
            EventKind::RegisterFlood {
                src: Ipv4Addr::new(10, 0, 0, 9),
                count: 11,
            },
            EventKind::PasswordGuessing {
                src: Ipv4Addr::new(10, 0, 0, 9),
                username: "bob".into(),
                distinct_responses: 4,
            },
            EventKind::AcctMismatch {
                billed: "a@x".into(),
                observed_caller: Some("b@x".into()),
                call_id: "c1".into(),
            },
            EventKind::RtpFlowActive { flow: sample_flow() },
            EventKind::RtpAfterRtcpBye {
                flow: sample_flow(),
                ssrc: 42,
                gap: SimDuration::from_millis(3),
            },
            EventKind::Protocol {
                class: EventClass::Ext0,
                signal: "sig",
                detail: "d".into(),
            },
        ];
        for kind in &samples {
            for name in EventKind::field_names(kind.class()) {
                assert!(
                    kind.field(name).is_some(),
                    "{:?} field {name} did not extract",
                    kind.class()
                );
            }
            assert_eq!(kind.field("no_such_field"), None);
        }
        // Absent optional payloads yield None rather than a dummy value.
        let torn = EventKind::CallTornDown {
            by_aor: "a@x".into(),
            by_media_ip: None,
        };
        assert_eq!(torn.field("by_media_ip"), None);
    }

    fn sample_flow() -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            dst_port: 9000,
        }
    }

    #[test]
    fn protocol_kind_reports_its_claimed_class() {
        let kind = EventKind::Protocol {
            class: EventClass::Ext2,
            signal: "x",
            detail: String::new(),
        };
        assert_eq!(kind.class(), EventClass::Ext2);
    }
}
