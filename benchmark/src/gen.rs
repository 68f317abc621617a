//! Seeded workload generator: the wire bytes of a VoIP tap, plus the
//! ground truth the correctness check needs.
//!
//! Everything a workload contains is derived from `(Spec, seed)`; the
//! product only ever sees the resulting `(SimTime, IpPacket)` frames.
//!
//! Capture rates are chosen so that a full-speed replay runs some ten to
//! thirty times faster than the capture clock, not hundreds of times:
//! the product's time-driven machinery (fold barrier every capture
//! second, 100 ms batch linger, quarter-timeout sweeps) is paid per
//! capture second, so a sparse capture replayed at full speed measures
//! mostly that. At 30 dialogs per second a signalling workload spent 60 %
//! of its sharded wall time in 440 fold barriers; at 600 it crosses 23.
//! Hold times and retention shrink with the rate, which keeps live state
//! where the workload wants it.
//!
//! Benign registration churn deliberately carries no `Authorization`
//! header: in sketch mode the password-guess estimator pools the digest
//! responses of every `(source, user)` key that shares one of its 32
//! slots, so a thousand honestly authenticating sources read as guessing.
//! That is a product dimensioning limit, reported in the README, not
//! something the generator may paper over with a bigger `RateConfig`.

use scidive_netsim::frag::fragment;
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::SimTime;
use scidive_rtp::packet::{RtpHeader, RtpPacket};
use scidive_rtp::rtcp::RtcpPacket;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::Instant;

pub const PROXY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
pub const ACCT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);
const SIP_PORT: u16 = 5060;
const ACCT_PORT: u16 = 2427;
const DOMAIN: &str = "bench.example";
/// RTP packetisation: G.711, 20 ms frames, 160 payload bytes.
const PTIME_US: u64 = 20_000;
const RTP_PAYLOAD: usize = 160;
/// RTCP sender-report cadence per direction.
const RTCP_EVERY_US: u64 = 2_000_000;
/// Fragmenting a ~1 kB INVITE at this MTU yields exactly two fragments.
const FRAG_MTU: usize = 576;
/// First frame of every capture.
const START_US: u64 = 1_000_000;
const MS: u64 = 1_000;

/// splitmix64: small, seedable, and good enough to decorrelate streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5c1d_17e5_eed0_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` (`lo` when the range is empty).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }
}

/// The eight attacks the built-in ruleset covers, in [`Spec::attacks`]
/// index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    ByeAttack,
    CallHijack,
    RtpAttack,
    BillingFraud,
    FakeIm,
    RegisterDos,
    PasswordGuess,
    RapidConnect,
}

impl AttackKind {
    pub const ALL: [AttackKind; 8] = [
        AttackKind::ByeAttack,
        AttackKind::CallHijack,
        AttackKind::RtpAttack,
        AttackKind::BillingFraud,
        AttackKind::FakeIm,
        AttackKind::RegisterDos,
        AttackKind::PasswordGuess,
        AttackKind::RapidConnect,
    ];

    /// The built-in rule id that must fire.
    pub fn rule(self) -> &'static str {
        match self {
            AttackKind::ByeAttack => "bye-attack",
            AttackKind::CallHijack => "call-hijack",
            AttackKind::RtpAttack => "rtp-attack",
            AttackKind::BillingFraud => "billing-fraud",
            AttackKind::FakeIm => "fake-im",
            AttackKind::RegisterDos => "register-dos",
            AttackKind::PasswordGuess => "password-guess",
            AttackKind::RapidConnect => "rapid-connect",
        }
    }

    /// Whether the attack rides on a call with media (and so cannot be a
    /// canary in a signalling-only workload).
    pub fn needs_media(self) -> bool {
        matches!(
            self,
            AttackKind::ByeAttack
                | AttackKind::CallHijack
                | AttackKind::RtpAttack
                | AttackKind::BillingFraud
        )
    }
}

/// Ground truth for one injected attack.
#[derive(Debug, Clone)]
pub struct Attack {
    pub kind: AttackKind,
    /// Call-ID the alert must be attributed to, for session-bound rules.
    pub session: Option<String>,
    /// For session-less rules: a string unique to this attack that the
    /// alert message must contain (attacker address or identity).
    pub marker: String,
    /// Capture time of the first malicious frame.
    pub first_frame: SimTime,
    /// Capture time of the frame that completes the pattern: an inline
    /// engine must have alerted by then. The sharded pipeline may add one
    /// fold interval for fold-plane rules.
    pub complete_at: SimTime,
}

/// What a workload contains. Plain data so a test can shrink or strip it.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Benign dialogs and their arrival rate in capture time.
    pub dialogs: u32,
    pub dialogs_per_s: u32,
    /// Call hold time, uniform in this range.
    pub hold_ms: (u64, u64),
    /// Whether calls carry RTP both ways, RTCP and accounting records.
    pub media: bool,
    /// REGISTER/401/REGISTER/200 cycles per second from 1,024 rotating
    /// sources.
    pub churn_per_s: u32,
    /// Benign instant messages per second.
    pub im_per_s: u32,
    /// Injected attacks per [`AttackKind::ALL`] entry.
    pub attacks: [u32; 8],
    /// Undecodable UDP datagrams per thousand benign frames.
    pub garbage_per_mille: u32,
    /// Send every call's INVITE as two IP fragments.
    pub fragment_invites: bool,
    /// Idle timeout, in capture milliseconds, of trails and of session-plane
    /// state; copied into the product config.
    pub retention_ms: u64,
}

pub const WORKLOADS: [&str; 4] = ["sig_steady", "media_steady", "state_scale", "attack_mix"];

impl Spec {
    /// The named workload at full size.
    pub fn named(name: &str) -> Option<Spec> {
        // Attack counts in AttackKind::ALL order:
        //   bye hijack rtp billing | fake-im reg-dos pw-guess rapid
        let sig_canaries = [0, 0, 0, 0, 2, 2, 2, 1];
        let spec = match name {
            "sig_steady" => Spec {
                name: "sig_steady",
                why: "signalling only, small live state: SIP parsing and SIP event generation do the work while trail maps stay small",
                dialogs: 13_000,
                dialogs_per_s: 600,
                hold_ms: (150, 250),
                media: false,
                churn_per_s: 160,
                im_per_s: 40,
                attacks: sig_canaries,
                garbage_per_mille: 0,
                fragment_invites: false,
                retention_ms: 300,
            },
            "state_scale" => Spec {
                name: "state_scale",
                why: "same generator and frame shape as sig_steady with hold and retention stretched: session state becomes large insert-and-expire maps, so per-frame cost that grows with live state shows here only",
                hold_ms: (2_500, 3_500),
                retention_ms: 3_500,
                ..Spec::named("sig_steady")?
            },
            "media_steady" => Spec {
                name: "media_steady",
                why: "media dominated: RTP decode, media-index attribution and append/evict on long-lived trails; SIP work is negligible, so a SIP-side change must not move it",
                dialogs: 750,
                dialogs_per_s: 75,
                hold_ms: (3_500, 4_500),
                media: true,
                churn_per_s: 2,
                im_per_s: 0,
                attacks: [2, 2, 2, 2, 0, 0, 0, 0],
                garbage_per_mille: 0,
                fragment_invites: false,
                retention_ms: 2_000,
            },
            "attack_mix" => Spec {
                name: "attack_mix",
                why: "benign calls with one session in ten attacked across all eight kinds, plus undecodable UDP and fragmented SIP: rule dispatch, rule state, rate sketches, fold candidates and reassembly do real work",
                dialogs: 1_500,
                dialogs_per_s: 100,
                hold_ms: (1_500, 2_500),
                media: true,
                churn_per_s: 40,
                im_per_s: 20,
                attacks: [50, 50, 50, 25, 150, 40, 40, 6],
                garbage_per_mille: 20,
                fragment_invites: true,
                retention_ms: 2_000,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// The same shape at `1/divisor` of the dialogs and attacks (at least
    /// one of every attack kind the workload has).
    pub fn shrunk(mut self, divisor: u32) -> Spec {
        let divisor = divisor.max(1);
        self.dialogs = (self.dialogs / divisor).max(20);
        for n in &mut self.attacks {
            if *n > 0 {
                *n = (*n / divisor).max(1);
            }
        }
        self
    }

    pub fn without_attacks(mut self) -> Spec {
        self.attacks = [0; 8];
        self
    }

    /// Capture time over which benign dialogs arrive (rounded up, so
    /// `span × rate` recovers the dialog count exactly).
    fn span_us(&self) -> u64 {
        (u64::from(self.dialogs) * 1_000_000).div_ceil(u64::from(self.dialogs_per_s.max(1)))
    }
}

/// Coarse wire class of a generated frame, for the class-mix header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Sip,
    Rtp,
    Rtcp,
    Acct,
    Other,
}

/// What the generator made, for the results header.
#[derive(Debug, Clone, Copy, Default)]
pub struct GenStats {
    pub frames: u64,
    pub bytes: u64,
    pub sip: u64,
    pub rtp: u64,
    pub rtcp: u64,
    pub acct: u64,
    pub other: u64,
    /// FNV-1a over every frame's time, addresses, fragment state and
    /// payload.
    pub fingerprint: u64,
    pub capture_s: f64,
    pub materialise_s: f64,
}

/// A materialised workload.
#[derive(Debug)]
pub struct Workload {
    pub spec: Spec,
    pub seed: u64,
    pub frames: Vec<(SimTime, IpPacket)>,
    pub attacks: Vec<Attack>,
    pub stats: GenStats,
}

/// Generates the workload for `(spec, seed)`.
pub fn generate(spec: &Spec, seed: u64) -> Workload {
    let started = Instant::now();
    let mut b = Builder::new(seed);
    b.background(spec);
    b.inject_attacks(spec);
    b.garbage(spec);
    b.into_workload(spec.clone(), seed, started)
}

/// One attack of `kind` with only the context it needs (a victim call, a
/// victim's earlier message), for the generator self-tests.
pub fn attack_alone(kind: AttackKind, seed: u64) -> Workload {
    let started = Instant::now();
    let mut b = Builder::new(seed);
    b.attack(kind, START_US);
    let spec = Spec::named("attack_mix")
        .expect("known workload")
        .without_attacks();
    b.into_workload(spec, seed, started)
}

#[derive(Debug, Clone)]
struct User {
    aor: String,
    ip: Ipv4Addr,
}

/// Benign subscriber `idx`: a /10 pool under 10.64.0.0.
fn subscriber(idx: u32) -> User {
    User {
        aor: format!("u{idx:06x}@{DOMAIN}"),
        ip: Ipv4Addr::new(
            10,
            64 | ((idx >> 16) as u8 & 63),
            (idx >> 8) as u8,
            idx as u8,
        ),
    }
}

/// Registration-churn source `idx`, pooled under 10.128.0.0.
fn churn_source(idx: u32) -> User {
    User {
        aor: format!("r{idx:04x}@{DOMAIN}"),
        ip: Ipv4Addr::new(10, 128, (idx >> 8) as u8, idx as u8),
    }
}

/// Instant-messaging user `idx`, pooled under 10.160.0.0.
fn im_user(idx: u32) -> User {
    User {
        aor: format!("im{idx:04x}@{DOMAIN}"),
        ip: Ipv4Addr::new(10, 160, (idx >> 8) as u8, idx as u8),
    }
}

/// How a call is torn down and what rides on it.
#[derive(Debug, Clone)]
struct Call {
    id: String,
    caller: User,
    callee: User,
    caller_port: u16,
    callee_port: u16,
    t_invite: u64,
    t_bye: u64,
    bye_by_caller: bool,
    media: bool,
    /// Drop `Max-Forwards` from the INVITE (billing-fraud craft).
    malformed_invite: bool,
    /// Who the accounting START bills; the caller when `None`.
    billed: Option<String>,
    /// When the callee's media stops, if before its normal end.
    callee_media_until: Option<u64>,
    fragment_invite: bool,
    ssrc_caller: u32,
    ssrc_callee: u32,
    /// Offset of each party's 20 ms RTP grid from the start of media.
    caller_rtp_phase: u64,
    callee_rtp_phase: u64,
}

impl Call {
    fn t_ringing(&self) -> u64 {
        self.t_invite + 2 * MS
    }
    fn t_answer(&self) -> u64 {
        self.t_invite + 5 * MS
    }
    fn t_ack(&self) -> u64 {
        self.t_invite + 7 * MS
    }
    fn t_acct_start(&self) -> u64 {
        self.t_invite + 8 * MS
    }
    fn t_media_start(&self) -> u64 {
        self.t_invite + 10 * MS
    }
    /// Capture time of the caller's first RTP packet strictly after `t_us`.
    fn caller_rtp_after(&self, t_us: u64) -> u64 {
        let start = self.t_media_start() + self.caller_rtp_phase;
        if t_us < start {
            start
        } else {
            start + ((t_us - start) / PTIME_US + 1) * PTIME_US
        }
    }
}

struct Builder {
    rng: Rng,
    frames: Vec<(u64, Class, IpPacket)>,
    attacks: Vec<Attack>,
    /// Unique-id counters: calls, attackers, fragmented datagrams.
    next_call: u32,
    next_attacker: u32,
    next_ip_id: u16,
}

impl Builder {
    fn new(seed: u64) -> Builder {
        Builder {
            rng: Rng::new(seed),
            frames: Vec::new(),
            attacks: Vec::new(),
            next_call: 0,
            next_attacker: 0,
            next_ip_id: 1,
        }
    }

    fn push(&mut self, t_us: u64, class: Class, pkt: IpPacket) {
        self.frames.push((t_us, class, pkt));
    }

    fn sip(&mut self, t_us: u64, src: Ipv4Addr, dst: Ipv4Addr, text: String) {
        let pkt = IpPacket::udp(src, SIP_PORT, dst, SIP_PORT, text.into_bytes());
        self.push(t_us, Class::Sip, pkt);
    }

    /// A SIP datagram sent as two IP fragments 50 µs apart.
    fn sip_fragmented(&mut self, t_us: u64, src: Ipv4Addr, dst: Ipv4Addr, text: String) {
        let id = self.next_ip_id;
        self.next_ip_id = self.next_ip_id.wrapping_add(1).max(1);
        let whole = IpPacket::udp(src, SIP_PORT, dst, SIP_PORT, text.into_bytes()).with_id(id);
        for (i, frag) in fragment(&whole, FRAG_MTU).into_iter().enumerate() {
            self.push(t_us + 50 * i as u64, Class::Sip, frag);
        }
    }

    /// An attacker address whose every octet has three digits, so no
    /// attacker's dotted quad is a prefix of another's (markers are
    /// matched as substrings of alert messages).
    fn attacker_ip(&mut self) -> Ipv4Addr {
        let n = self.next_attacker;
        self.next_attacker += 1;
        Ipv4Addr::new(
            10,
            200 + (n / (150 * 150)) as u8 % 50,
            100 + (n / 150 % 150) as u8,
            100 + (n % 150) as u8,
        )
    }

    /// A fresh caller/callee pair and Call-ID. Pairs come from a pool of
    /// 8,192 disjoint subscriber pairs; multiplying by an odd constant
    /// modulo a power of two is a bijection, so a pair recurs only every
    /// 8,192 calls and no benign caller comes near the rapid-connect count.
    fn new_call(&mut self, t_invite: u64, hold_us: u64, media: bool) -> Call {
        let n = self.next_call;
        self.next_call += 1;
        let pair = n.wrapping_mul(2_654_435_761) % 8_192;
        let port = 16_384 + (n % 8_000) as u16 * 2;
        Call {
            id: format!("{:08x}{:08x}@{DOMAIN}", self.rng.next_u64() as u32, n),
            caller: subscriber(2 * pair),
            callee: subscriber(2 * pair + 1),
            caller_port: port,
            callee_port: port + 16_000,
            t_invite,
            t_bye: t_invite + hold_us,
            bye_by_caller: self.rng.next_u64() & 1 == 0,
            media,
            malformed_invite: false,
            billed: None,
            callee_media_until: None,
            fragment_invite: false,
            ssrc_caller: self.rng.next_u64() as u32,
            ssrc_callee: self.rng.next_u64() as u32,
            caller_rtp_phase: self.rng.range(0, PTIME_US),
            callee_rtp_phase: self.rng.range(0, PTIME_US),
        }
    }

    // ------------------------------------------------------------------
    // Benign traffic
    // ------------------------------------------------------------------

    /// Jittered instants at `per_s` per second, for `span_us` of capture.
    fn periodic(&mut self, span_us: u64, per_s: u32) -> Vec<u64> {
        let count = span_us * u64::from(per_s) / 1_000_000;
        (0..count)
            .map(|j| {
                let every = 1_000_000 / u64::from(per_s);
                START_US + j * every + self.rng.range(0, every / 2)
            })
            .collect()
    }

    fn background(&mut self, spec: &Spec) {
        let span = spec.span_us();
        for t in self.periodic(span, spec.dialogs_per_s) {
            let hold = self.rng.range(spec.hold_ms.0, spec.hold_ms.1) * MS;
            let mut call = self.new_call(t, hold, spec.media);
            call.fragment_invite = spec.fragment_invites;
            self.emit_call(&call);
        }
        for (j, t) in (0u64..).zip(self.periodic(span, spec.churn_per_s)) {
            self.churn_cycle(t, (j % 1_024) as u32, j / 1_024 + 1);
        }
        for (j, t) in (0u64..).zip(self.periodic(span, spec.im_per_s)) {
            let user = im_user((j % 256) as u32);
            self.instant_message(t, &user.aor, user.ip, j);
        }
    }

    /// A complete benign dialog as the tap on the proxy's callee-side leg
    /// sees it: INVITE+SDP / 180 / 200+SDP / ACK, optional accounting and
    /// media, BYE / 200.
    fn emit_call(&mut self, c: &Call) {
        let invite = invite_text(c);
        if c.fragment_invite {
            self.sip_fragmented(c.t_invite, PROXY_IP, c.callee.ip, invite);
        } else {
            self.sip(c.t_invite, PROXY_IP, c.callee.ip, invite);
        }
        self.sip(
            c.t_ringing(),
            c.callee.ip,
            PROXY_IP,
            response_text(c, "180 Ringing", "INVITE", 1, false),
        );
        self.sip(
            c.t_answer(),
            c.callee.ip,
            PROXY_IP,
            response_text(c, "200 OK", "INVITE", 1, true),
        );
        self.sip(
            c.t_ack(),
            PROXY_IP,
            c.callee.ip,
            in_dialog_request(c, "ACK", 1, true),
        );
        let billed = c.billed.as_deref().unwrap_or(&c.caller.aor);
        if c.media {
            self.acct(c.t_acct_start(), "START", billed, c);
            self.media(c);
        }
        // The caller's BYE arrives through the proxy; the callee's leaves
        // towards it. The 200 goes the other way.
        let (bye_src, bye_dst) = if c.bye_by_caller {
            (PROXY_IP, c.callee.ip)
        } else {
            (c.callee.ip, PROXY_IP)
        };
        self.sip(
            c.t_bye,
            bye_src,
            bye_dst,
            in_dialog_request(c, "BYE", 2, c.bye_by_caller),
        );
        self.sip(
            c.t_bye + 2 * MS,
            bye_dst,
            bye_src,
            response_text(c, "200 OK", "BYE", 2, false),
        );
        if c.media {
            self.acct(c.t_bye + 3 * MS, "STOP", billed, c);
        }
    }

    fn acct(&mut self, t_us: u64, kind: &str, billed: &str, c: &Call) {
        let line = format!("ACCT {kind} {billed} {} {}", c.callee.aor, c.id);
        let pkt = IpPacket::udp(PROXY_IP, ACCT_PORT, ACCT_IP, ACCT_PORT, line.into_bytes());
        self.push(t_us, Class::Acct, pkt);
    }

    /// Both RTP directions plus periodic RTCP sender reports. The party
    /// that hangs up stops a beat before its BYE (a well-behaved client;
    /// media after one's own BYE is exactly the BYE-attack signature),
    /// the other a beat after.
    fn media(&mut self, c: &Call) {
        let (caller_until, callee_until) = if c.bye_by_caller {
            (c.t_bye - 2 * MS, c.t_bye + 3 * MS)
        } else {
            (c.t_bye + 3 * MS, c.t_bye - 2 * MS)
        };
        let callee_until = c.callee_media_until.unwrap_or(callee_until);
        let from = c.t_media_start();
        self.rtp_stream(
            (c.caller.ip, c.caller_port),
            (c.callee.ip, c.callee_port),
            c.ssrc_caller,
            from + c.caller_rtp_phase,
            caller_until,
        );
        self.rtp_stream(
            (c.callee.ip, c.callee_port),
            (c.caller.ip, c.caller_port),
            c.ssrc_callee,
            from + c.callee_rtp_phase,
            callee_until,
        );
    }

    fn rtp_stream(
        &mut self,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        ssrc: u32,
        from: u64,
        until: u64,
    ) {
        let mut seq = self.rng.next_u64() as u16;
        let mut ts = self.rng.next_u64() as u32;
        let payload = vec![0xd5u8; RTP_PAYLOAD];
        let mut t = from;
        let mut sent = 0u32;
        let mut next_report = from + RTCP_EVERY_US;
        while t < until {
            let rtp = RtpPacket::new(RtpHeader::new(0, seq, ts, ssrc), payload.clone());
            self.push(
                t,
                Class::Rtp,
                IpPacket::udp(src.0, src.1, dst.0, dst.1, rtp.encode()),
            );
            seq = seq.wrapping_add(1);
            ts = ts.wrapping_add(RTP_PAYLOAD as u32);
            sent += 1;
            if t >= next_report {
                let sr = RtcpPacket::SenderReport {
                    ssrc,
                    rtp_timestamp: ts,
                    packet_count: sent,
                    octet_count: sent * RTP_PAYLOAD as u32,
                    reports: Vec::new(),
                };
                let pkt = IpPacket::udp(src.0, src.1 + 1, dst.0, dst.1 + 1, sr.encode());
                self.push(t + 100, Class::Rtcp, pkt);
                next_report += RTCP_EVERY_US;
            }
            t += PTIME_US;
        }
    }

    /// REGISTER → 401 → REGISTER → 200 from one churn source.
    fn churn_cycle(&mut self, t_us: u64, source: u32, round: u64) {
        let user = churn_source(source);
        let call_id = format!("reg-{source:04x}@{DOMAIN}");
        let cseq = round * 2;
        let nonce = self.rng.next_u64();
        self.sip(
            t_us,
            user.ip,
            PROXY_IP,
            register_text(&user.aor, user.ip, &call_id, cseq - 1, nonce, None),
        );
        self.sip(
            t_us + 2 * MS,
            PROXY_IP,
            user.ip,
            register_response(
                &user.aor,
                user.ip,
                &call_id,
                cseq - 1,
                nonce,
                "401 Unauthorized",
            ),
        );
        self.sip(
            t_us + 4 * MS,
            user.ip,
            PROXY_IP,
            register_text(&user.aor, user.ip, &call_id, cseq, nonce, None),
        );
        self.sip(
            t_us + 6 * MS,
            PROXY_IP,
            user.ip,
            register_response(&user.aor, user.ip, &call_id, cseq, nonce, "200 OK"),
        );
    }

    /// MESSAGE from `src` claiming `aor`, and the proxy's 200.
    fn instant_message(&mut self, t_us: u64, aor: &str, src: Ipv4Addr, n: u64) {
        let call_id = format!("im-{:08x}{n:06x}@{DOMAIN}", self.rng.next_u64() as u32);
        let peer = im_user(((n + 97) % 256) as u32);
        self.sip(
            t_us,
            src,
            PROXY_IP,
            message_text(aor, src, &peer.aor, &call_id, false),
        );
        self.sip(
            t_us + 2 * MS,
            PROXY_IP,
            src,
            message_text(aor, src, &peer.aor, &call_id, true),
        );
    }

    /// Undecodable UDP aimed at ports nobody announced.
    fn garbage(&mut self, spec: &Spec) {
        if spec.garbage_per_mille == 0 || self.frames.is_empty() {
            return;
        }
        let n = self.frames.len() as u64 * u64::from(spec.garbage_per_mille) / 1_000;
        let end = self.frames.iter().map(|f| f.0).max().unwrap_or(START_US);
        for _ in 0..n {
            let t = self.rng.range(START_US, end);
            let src = Ipv4Addr::new(10, 180, 0, self.rng.range(1, 250) as u8);
            let dst = Ipv4Addr::new(10, 181, 0, self.rng.range(1, 64) as u8);
            let len = self.rng.range(8, 200) as usize;
            // First byte 0x00: neither RTP/RTCP version 2 nor SIP text.
            let payload = vec![0u8; len];
            let pkt = IpPacket::udp(
                src,
                40_000,
                dst,
                self.rng.range(40_000, 40_064) as u16,
                payload,
            );
            self.push(t, Class::Other, pkt);
        }
    }

    // ------------------------------------------------------------------
    // Attacks
    // ------------------------------------------------------------------

    fn inject_attacks(&mut self, spec: &Spec) {
        let span = spec.span_us();
        for (kind, &count) in AttackKind::ALL.iter().zip(&spec.attacks) {
            assert!(
                count == 0 || spec.media || !kind.needs_media(),
                "{kind:?} needs a workload with media"
            );
            for _ in 0..count {
                // Leave the tail free so a slow pattern (rapid-connect
                // takes ~4 s) completes inside the benign span.
                let t = START_US + self.rng.range(span / 20, span * 6 / 10);
                self.attack(*kind, t);
            }
        }
    }

    fn attack(&mut self, kind: AttackKind, t_us: u64) {
        match kind {
            AttackKind::ByeAttack => self.bye_attack(t_us),
            AttackKind::CallHijack => self.call_hijack(t_us),
            AttackKind::RtpAttack => self.rtp_attack(t_us),
            AttackKind::BillingFraud => self.billing_fraud(t_us),
            AttackKind::FakeIm => self.fake_im(t_us),
            AttackKind::RegisterDos => self.register_dos(t_us),
            AttackKind::PasswordGuess => self.password_guess(t_us),
            AttackKind::RapidConnect => self.rapid_connect(t_us),
        }
    }

    fn record(
        &mut self,
        kind: AttackKind,
        session: Option<&str>,
        marker: String,
        first: u64,
        complete: u64,
    ) {
        self.attacks.push(Attack {
            kind,
            session: session.map(str::to_string),
            marker,
            first_frame: SimTime::from_micros(first),
            complete_at: SimTime::from_micros(complete),
        });
    }

    /// A two-second victim call whose caller hangs up at the end, for the
    /// three mid-call attacks. Returns the call and the capture time of
    /// the caller's first RTP packet (its 20 ms grid anchor).
    fn victim_call(&mut self, t_us: u64) -> Call {
        let mut call = self.new_call(t_us, 2_000 * MS, true);
        call.bye_by_caller = true;
        call
    }

    /// §4.2.1: a third party forges the caller's BYE; the callee stops,
    /// the caller — who never hung up — keeps streaming.
    fn bye_attack(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let mut call = self.victim_call(t_us);
        let t_forged = call.t_invite + 800 * MS + self.rng.range(0, 100 * MS);
        call.callee_media_until = Some(t_forged + MS);
        self.emit_call(&call);
        self.sip(
            t_forged,
            attacker,
            call.callee.ip,
            in_dialog_request(&call, "BYE", 2, true),
        );
        let detect = call.caller_rtp_after(t_forged);
        self.record(
            AttackKind::ByeAttack,
            Some(&call.id),
            attacker.to_string(),
            t_forged,
            detect,
        );
    }

    /// §4.2.3: a forged re-INVITE moves the caller's media to the
    /// attacker; the real caller keeps streaming from the old address.
    fn call_hijack(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let call = self.victim_call(t_us);
        self.emit_call(&call);
        let t_forged = call.t_invite + 800 * MS + self.rng.range(0, 100 * MS);
        let mut moved = call.clone();
        moved.caller.ip = attacker;
        moved.caller_port = 30_000;
        self.sip(
            t_forged,
            attacker,
            call.callee.ip,
            reinvite_text(&call, &moved),
        );
        let detect = call.caller_rtp_after(t_forged);
        self.record(
            AttackKind::CallHijack,
            Some(&call.id),
            attacker.to_string(),
            t_forged,
            detect,
        );
    }

    /// §4.2.4: RTP from an address the session never negotiated.
    fn rtp_attack(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let call = self.victim_call(t_us);
        self.emit_call(&call);
        let t_first = call.t_invite + 800 * MS + self.rng.range(0, 100 * MS);
        let ssrc = self.rng.next_u64() as u32;
        self.rtp_stream(
            (attacker, 31_000),
            (call.callee.ip, call.callee_port),
            ssrc,
            t_first,
            t_first + 5 * PTIME_US,
        );
        self.record(
            AttackKind::RtpAttack,
            Some(&call.id),
            attacker.to_string(),
            t_first,
            t_first,
        );
    }

    /// §3.2: a malformed INVITE tricks the proxy into billing a victim.
    fn billing_fraud(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let victim = subscriber(self.rng.range(0, 16_384) as u32);
        let mut call = self.new_call(t_us, 1_000 * MS, true);
        call.caller = User {
            aor: format!("mallory{:04x}@{DOMAIN}", self.next_attacker),
            ip: attacker,
        };
        call.malformed_invite = true;
        call.billed = Some(victim.aor);
        self.emit_call(&call);
        self.record(
            AttackKind::BillingFraud,
            Some(&call.id),
            attacker.to_string(),
            call.t_invite,
            call.t_acct_start(),
        );
    }

    /// §4.2.2: a message claiming a user who was just seen elsewhere.
    fn fake_im(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let n = u64::from(self.next_attacker);
        let victim = User {
            aor: format!("victim{n:05x}@{DOMAIN}"),
            ip: Ipv4Addr::new(10, 170, (n >> 8) as u8, n as u8),
        };
        // The victim's own message binds the identity to its address.
        let lead = self
            .rng
            .range(1_000 * MS, 5_000 * MS)
            .min(t_us - START_US / 2);
        self.instant_message(t_us - lead, &victim.aor, victim.ip, n);
        self.instant_message(t_us, &victim.aor, attacker, n + 1);
        self.record(
            AttackKind::FakeIm,
            None,
            format!("from {attacker} "),
            t_us,
            t_us,
        );
    }

    /// §3.3: REGISTER / 401 alternations from one source; the tenth 401
    /// inside the 10 s flood window completes the pattern.
    fn register_dos(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let aor = format!("flood{:05x}@{DOMAIN}", self.next_attacker);
        let call_id = format!("flood-{:05x}@{DOMAIN}", self.next_attacker);
        let gap = 40 * MS + self.rng.range(0, 20 * MS);
        let mut complete = t_us;
        for i in 0..11u64 {
            let t = t_us + i * gap;
            let nonce = self.rng.next_u64();
            self.sip(
                t,
                attacker,
                PROXY_IP,
                register_text(&aor, attacker, &call_id, i + 1, nonce, None),
            );
            self.sip(
                t + 2 * MS,
                PROXY_IP,
                attacker,
                register_response(&aor, attacker, &call_id, i + 1, nonce, "401 Unauthorized"),
            );
            if i == 9 {
                complete = t + 2 * MS;
            }
        }
        self.record(
            AttackKind::RegisterDos,
            None,
            format!("from {attacker}"),
            t_us,
            complete,
        );
    }

    /// §3.3: distinct digest responses against one account; the third
    /// inside the 30 s window completes the pattern.
    fn password_guess(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let username = format!("target{:05x}", self.next_attacker);
        let aor = format!("{username}@{DOMAIN}");
        let call_id = format!("guess-{:05x}@{DOMAIN}", self.next_attacker);
        let gap = 150 * MS + self.rng.range(0, 100 * MS);
        let mut complete = t_us;
        for i in 0..4u64 {
            let t = t_us + i * gap;
            let nonce = self.rng.next_u64();
            let guess = self.rng.next_u64();
            self.sip(
                t,
                attacker,
                PROXY_IP,
                register_text(
                    &aor,
                    attacker,
                    &call_id,
                    i + 1,
                    nonce,
                    Some((&username, guess)),
                ),
            );
            self.sip(
                t + 2 * MS,
                PROXY_IP,
                attacker,
                register_response(&aor, attacker, &call_id, i + 1, nonce, "401 Unauthorized"),
            );
            if i == 2 {
                complete = t;
            }
        }
        self.record(
            AttackKind::PasswordGuess,
            None,
            format!("for {username} from {attacker}"),
            t_us,
            complete,
        );
    }

    /// SPIT fan-out: one caller establishes fourteen short calls to
    /// distinct callees, each under its own Call-ID so the shard router
    /// spreads them; the twelfth 200 inside the 60 s window completes it.
    fn rapid_connect(&mut self, t_us: u64) {
        let attacker = self.attacker_ip();
        let spitter = User {
            aor: format!("spit{:05x}@{DOMAIN}", self.next_attacker),
            ip: attacker,
        };
        let gap = 250 * MS + self.rng.range(0, 100 * MS);
        let mut complete = t_us;
        for i in 0..14u64 {
            let mut call = self.new_call(t_us + i * gap, 100 * MS, false);
            call.caller = spitter.clone();
            call.bye_by_caller = true;
            if i == 11 {
                complete = call.t_answer();
            }
            self.emit_call(&call);
        }
        self.record(
            AttackKind::RapidConnect,
            None,
            format!("caller {} ", spitter.aor),
            t_us,
            complete,
        );
    }

    /// Sorts by capture time (stable: same-instant frames keep causal
    /// order) and computes the class mix and fingerprint.
    fn into_workload(mut self, spec: Spec, seed: u64, started: Instant) -> Workload {
        self.frames.sort_by_key(|f| f.0);
        self.attacks.sort_by_key(|a| a.first_frame);
        let mut stats = GenStats {
            fingerprint: 0xcbf2_9ce4_8422_2325,
            ..GenStats::default()
        };
        for (t, class, pkt) in &self.frames {
            stats.frames += 1;
            stats.bytes += pkt.wire_len() as u64;
            match class {
                Class::Sip => stats.sip += 1,
                Class::Rtp => stats.rtp += 1,
                Class::Rtcp => stats.rtcp += 1,
                Class::Acct => stats.acct += 1,
                Class::Other => stats.other += 1,
            }
            let mut fnv = |bytes: &[u8]| {
                for b in bytes {
                    stats.fingerprint ^= u64::from(*b);
                    stats.fingerprint = stats.fingerprint.wrapping_mul(0x100_0000_01b3);
                }
            };
            fnv(&t.to_le_bytes());
            fnv(&pkt.src.octets());
            fnv(&pkt.dst.octets());
            fnv(&pkt.id.to_le_bytes());
            fnv(&pkt.frag.offset.to_le_bytes());
            fnv(&[u8::from(pkt.frag.more)]);
            fnv(&pkt.payload);
        }
        if let (Some(first), Some(last)) = (self.frames.first(), self.frames.last()) {
            stats.capture_s = (last.0 - first.0) as f64 / 1e6;
        }
        let frames = self
            .frames
            .into_iter()
            .map(|(t, _, pkt)| (SimTime::from_micros(t), pkt))
            .collect();
        stats.materialise_s = started.elapsed().as_secs_f64();
        Workload {
            spec,
            seed,
            frames,
            attacks: self.attacks,
            stats,
        }
    }
}

// ----------------------------------------------------------------------
// Wire templates
// ----------------------------------------------------------------------

fn sdp(user: &str, ip: Ipv4Addr, port: u16) -> String {
    format!(
        "v=0\r\n\
         o={user} 2890844526 2890844526 IN IP4 {ip}\r\n\
         s=call\r\n\
         c=IN IP4 {ip}\r\n\
         t=0 0\r\n\
         m=audio {port} RTP/AVP 0 8 101\r\n\
         a=rtpmap:0 PCMU/8000\r\n\
         a=rtpmap:8 PCMA/8000\r\n\
         a=rtpmap:101 telephone-event/8000\r\n\
         a=fmtp:101 0-16\r\n\
         a=ptime:20\r\n\
         a=sendrecv\r\n"
    )
}

fn user_part(aor: &str) -> &str {
    aor.split('@').next().unwrap_or(aor)
}

/// Appends the body headers and body (empty when `body` is empty).
fn finish_message(mut head: String, content_type: &str, body: &str) -> String {
    if !body.is_empty() {
        let _ = write!(head, "Content-Type: {content_type}\r\n");
    }
    let _ = write!(head, "Content-Length: {}\r\n\r\n{body}", body.len());
    head
}

/// The proxy-forwarded INVITE: two Vias, Record-Route, the caller's SDP.
fn invite_text(c: &Call) -> String {
    let mut head = format!(
        "INVITE sip:{callee}@{callee_ip}:5060 SIP/2.0\r\n\
         Via: SIP/2.0/UDP {PROXY_IP}:5060;branch=z9hG4bK-p-{id8}INVITE1;rport\r\n\
         Via: SIP/2.0/UDP {caller_ip}:5060;branch=z9hG4bK-c-{id8}INVITE1;received={caller_ip}\r\n\
         Record-Route: <sip:{PROXY_IP}:5060;lr>\r\n\
         From: \"{caller_user}\" <sip:{caller}>;tag=f-{id8}\r\n\
         To: <sip:{callee}>\r\n\
         Call-ID: {id}\r\n\
         CSeq: 1 INVITE\r\n\
         Contact: <sip:{caller_user}@{caller_ip}:5060;transport=udp>\r\n\
         User-Agent: bench-softphone/2.4 (build 1187)\r\n\
         Allow: INVITE, ACK, CANCEL, BYE, OPTIONS, MESSAGE, REFER, NOTIFY, INFO\r\n\
         Supported: replaces, timer, 100rel\r\n\
         Session-Expires: 1800\r\n",
        callee = c.callee.aor,
        callee_ip = c.callee.ip,
        caller = c.caller.aor,
        caller_ip = c.caller.ip,
        caller_user = user_part(&c.caller.aor),
        id = c.id,
        id8 = &c.id[..8],
    );
    if !c.malformed_invite {
        head.push_str("Max-Forwards: 69\r\n");
    }
    finish_message(
        head,
        "application/sdp",
        &sdp(user_part(&c.caller.aor), c.caller.ip, c.caller_port),
    )
}

/// A response from the callee side (or, for a callee-sent BYE, from the
/// proxy): the Via chain of the request it answers.
fn response_text(c: &Call, status: &str, method: &str, cseq: u32, with_sdp: bool) -> String {
    let head = format!(
        "SIP/2.0 {status}\r\n\
         Via: SIP/2.0/UDP {PROXY_IP}:5060;branch=z9hG4bK-p-{id8}{method}{cseq};rport=5060\r\n\
         Via: SIP/2.0/UDP {caller_ip}:5060;branch=z9hG4bK-c-{id8}{method}{cseq};received={caller_ip}\r\n\
         Record-Route: <sip:{PROXY_IP}:5060;lr>\r\n\
         From: \"{caller_user}\" <sip:{caller}>;tag=f-{id8}\r\n\
         To: <sip:{callee}>;tag=t-{id8}\r\n\
         Call-ID: {id}\r\n\
         CSeq: {cseq} {method}\r\n\
         Contact: <sip:{callee_user}@{callee_ip}:5060;transport=udp>\r\n\
         Server: bench-softphone/2.4 (build 1187)\r\n\
         Allow: INVITE, ACK, CANCEL, BYE, OPTIONS, MESSAGE, REFER, NOTIFY, INFO\r\n",
        caller = c.caller.aor,
        caller_ip = c.caller.ip,
        caller_user = user_part(&c.caller.aor),
        callee = c.callee.aor,
        callee_ip = c.callee.ip,
        callee_user = user_part(&c.callee.aor),
        id = c.id,
        id8 = &c.id[..8],
    );
    let body = if with_sdp {
        sdp(user_part(&c.callee.aor), c.callee.ip, c.callee_port)
    } else {
        String::new()
    };
    finish_message(head, "application/sdp", &body)
}

/// ACK or BYE inside the dialog, sent by the caller (through the proxy)
/// or by the callee.
fn in_dialog_request(c: &Call, method: &str, cseq: u32, by_caller: bool) -> String {
    let (from, from_tag, to, to_tag, target_user, target_ip) = if by_caller {
        (
            &c.caller,
            "f",
            &c.callee,
            "t",
            user_part(&c.callee.aor),
            c.callee.ip,
        )
    } else {
        (
            &c.callee,
            "t",
            &c.caller,
            "f",
            user_part(&c.caller.aor),
            c.caller.ip,
        )
    };
    let head = format!(
        "{method} sip:{target_user}@{target_ip}:5060 SIP/2.0\r\n\
         Via: SIP/2.0/UDP {PROXY_IP}:5060;branch=z9hG4bK-p-{id8}{method}{cseq};rport\r\n\
         Via: SIP/2.0/UDP {from_ip}:5060;branch=z9hG4bK-u-{id8}{method}{cseq};received={from_ip}\r\n\
         Route: <sip:{PROXY_IP}:5060;lr>\r\n\
         From: \"{from_user}\" <sip:{from_aor}>;tag={from_tag}-{id8}\r\n\
         To: <sip:{to_aor}>;tag={to_tag}-{id8}\r\n\
         Call-ID: {id}\r\n\
         CSeq: {cseq} {method}\r\n\
         Max-Forwards: 69\r\n\
         User-Agent: bench-softphone/2.4 (build 1187)\r\n",
        from_ip = from.ip,
        from_user = user_part(&from.aor),
        from_aor = from.aor,
        to_aor = to.aor,
        id = c.id,
        id8 = &c.id[..8],
    );
    finish_message(head, "", "")
}

/// A re-INVITE claiming to come from `c`'s caller but announcing
/// `moved`'s media address.
fn reinvite_text(c: &Call, moved: &Call) -> String {
    let head = format!(
        "INVITE sip:{callee_user}@{callee_ip}:5060 SIP/2.0\r\n\
         Via: SIP/2.0/UDP {attacker_ip}:5060;branch=z9hG4bK-x-{id8}\r\n\
         From: \"{caller_user}\" <sip:{caller}>;tag=f-{id8}\r\n\
         To: <sip:{callee}>;tag=t-{id8}\r\n\
         Call-ID: {id}\r\n\
         CSeq: 3 INVITE\r\n\
         Max-Forwards: 70\r\n\
         Contact: <sip:{caller_user}@{attacker_ip}:5060>\r\n",
        callee = c.callee.aor,
        callee_ip = c.callee.ip,
        callee_user = user_part(&c.callee.aor),
        caller = c.caller.aor,
        caller_user = user_part(&c.caller.aor),
        attacker_ip = moved.caller.ip,
        id = c.id,
        id8 = &c.id[..8],
    );
    finish_message(
        head,
        "application/sdp",
        &sdp(user_part(&c.caller.aor), moved.caller.ip, moved.caller_port),
    )
}

fn register_text(
    aor: &str,
    ip: Ipv4Addr,
    call_id: &str,
    cseq: u64,
    nonce: u64,
    credentials: Option<(&str, u64)>,
) -> String {
    let user = user_part(aor);
    let mut head = format!(
        "REGISTER sip:{DOMAIN} SIP/2.0\r\n\
         Via: SIP/2.0/UDP {ip}:5060;branch=z9hG4bK-r-{nonce:016x}{cseq};rport\r\n\
         From: \"{user}\" <sip:{aor}>;tag=r-{nonce:08x}\r\n\
         To: \"{user}\" <sip:{aor}>\r\n\
         Call-ID: {call_id}\r\n\
         CSeq: {cseq} REGISTER\r\n\
         Max-Forwards: 70\r\n\
         Contact: <sip:{user}@{ip}:5060;transport=udp>;expires=3600\r\n\
         Expires: 3600\r\n\
         User-Agent: bench-softphone/2.4 (build 1187)\r\n\
         Allow: INVITE, ACK, CANCEL, BYE, OPTIONS, MESSAGE, REFER, NOTIFY, INFO\r\n\
         Supported: path, outbound, gruu\r\n",
        nonce = nonce >> 32,
    );
    if let Some((username, guess)) = credentials {
        let _ = write!(
            head,
            "Authorization: Digest username=\"{username}\", realm=\"{DOMAIN}\", \
             nonce=\"{nonce:016x}\", uri=\"sip:{DOMAIN}\", \
             response=\"{guess:016x}{guess:016x}\"\r\n"
        );
    }
    finish_message(head, "", "")
}

fn register_response(
    aor: &str,
    ip: Ipv4Addr,
    call_id: &str,
    cseq: u64,
    nonce: u64,
    status: &str,
) -> String {
    let user = user_part(aor);
    let mut head = format!(
        "SIP/2.0 {status}\r\n\
         Via: SIP/2.0/UDP {ip}:5060;branch=z9hG4bK-r-{short:016x}{cseq};rport=5060;received={ip}\r\n\
         From: \"{user}\" <sip:{aor}>;tag=r-{short:08x}\r\n\
         To: \"{user}\" <sip:{aor}>;tag=reg-{nonce:08x}\r\n\
         Call-ID: {call_id}\r\n\
         CSeq: {cseq} REGISTER\r\n\
         Server: bench-registrar/7.1\r\n",
        short = nonce >> 32,
        nonce = nonce as u32,
    );
    if status.starts_with("401") {
        let _ = write!(
            head,
            "WWW-Authenticate: Digest realm=\"{DOMAIN}\", nonce=\"{nonce:016x}\", algorithm=MD5\r\n"
        );
    } else {
        let _ = write!(
            head,
            "Contact: <sip:{user}@{ip}:5060;transport=udp>;expires=3600\r\n"
        );
    }
    finish_message(head, "", "")
}

/// MESSAGE from `src` claiming `aor` (or, with `ok`, the proxy's 200).
fn message_text(aor: &str, src: Ipv4Addr, peer_aor: &str, call_id: &str, ok: bool) -> String {
    let start = if ok {
        "SIP/2.0 200 OK".to_string()
    } else {
        format!("MESSAGE sip:{peer_aor} SIP/2.0")
    };
    let user = user_part(aor);
    let mut head = format!(
        "{start}\r\n\
         Via: SIP/2.0/UDP {src}:5060;branch=z9hG4bK-m-{id8};rport\r\n\
         From: \"{user}\" <sip:{aor}>;tag=m-{id8}\r\n\
         To: <sip:{peer_aor}>{to_tag}\r\n\
         Call-ID: {call_id}\r\n\
         CSeq: 1 MESSAGE\r\n",
        id8 = &call_id[3..11],
        to_tag = if ok { ";tag=srv" } else { "" },
    );
    if ok {
        return finish_message(head, "", "");
    }
    head.push_str("Max-Forwards: 70\r\nUser-Agent: bench-softphone/2.4 (build 1187)\r\n");
    finish_message(
        head,
        "text/plain",
        "Running ten minutes late, start without me and I will catch up on the notes afterwards.",
    )
}
