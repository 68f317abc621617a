//! Allocation-regression gate for the hot path.
//!
//! Replays captures through a fresh engine under the counting global
//! allocator and fails if allocations per frame creep past a budget.
//! Each budget is its capture's measured value with ~30% headroom: it
//! will not trip on allocator noise, but a change that reintroduces
//! per-frame `format!`/`to_string`/`Vec` construction in the distiller,
//! router, trail store or event generator blows straight through it.
//! A last test holds the SIP view path itself at zero allocations.
//!
//! Runs only with `--features count-allocs` (the counting allocator is
//! process-global, so it is opt-in):
//!
//! ```text
//! cargo test -p scidive-bench --features count-allocs --test alloc_budget
//! ```
#![cfg(feature = "count-allocs")]

use scidive_bench::alloc_count;
use scidive_bench::harness::{run_attack, run_benign_capture, AttackKind, ScenarioOptions};
use scidive_core::prelude::*;
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::SimTime;
use scidive_voip::synth::SynthConfig;

/// Heap allocations allowed per frame on the RTP-heavy benign testbed
/// capture, end to end (distill → route → trails → events → rules).
/// Measured 0.23 (87 allocations over 381 frames): a SIP footprint is
/// its wire text plus the fields the IDS reads, so no header list,
/// header value or message box is built per frame, and an RTP frame
/// allocates nothing. What remains is per-session state and the text
/// events carry. One new allocation on every RTP frame fails it.
const BENIGN_ALLOCS_PER_FRAME_BUDGET: f64 = 0.3;

/// The same for the forged-BYE capture, where the rules fire: measured
/// 0.09 (40 allocations over 447 frames).
const BYE_ATTACK_ALLOCS_PER_FRAME_BUDGET: f64 = 0.12;

/// Heap allocations allowed per frame on a signalling-only capture,
/// where every frame is a SIP message. Measured 11.47 while the event
/// generator re-parsed From/To/CSeq/Via and the SDP body per consumer,
/// 5.28 once every consumer read the one view computed per message
/// (DESIGN §14), and 2.25 (14,592 allocations over 6,499 frames) since
/// trails stopped retaining footprints. The SIP parse itself allocates
/// nothing (the last test below); what remains is per-session state
/// (the trail, dialog and rule entries of each new Call-ID) and the
/// AOR and Call-ID text that events carry. One more allocation per SIP
/// frame fails it.
const SIGNALLING_ALLOCS_PER_FRAME_BUDGET: f64 = 2.9;

/// Heap allocations allowed per frame on a flood of malformed INVITEs
/// (no Max-Forwards, a From without a URI scheme) over 16 Call-IDs,
/// the billing-fraud craft the rules key on. Every frame is unclean, so
/// each renders its violation text and raises a `SipMalformed` event
/// carrying it. Measured 9.40 (3,748 allocations over 399 frames) with
/// an owned message of inline strings parsed per unclean frame, 27.39
/// when that message's strings became `String`s, and 7.39 (2,950) since
/// the text is read off the wire without building a message: 7 per
/// frame are the text itself (its `Vec`, the Max-Forwards line and five
/// for the From parser's error). The count is exact, so the headroom is
/// under one allocation: one more per unclean frame fails it.
const MALFORMED_ALLOCS_PER_FRAME_BUDGET: f64 = 8.0;

/// Heap allocations allowed per frame on the signalling-only capture
/// through the sharded pipeline at one shard, dispatcher and worker
/// together (the counter is process-global), `finish` included.
/// Measured 3.05 (19,802 allocations over 6,499 frames) while the
/// worker resolved every footprint again, through a second media index
/// that interned each Call-ID and learned each SDP sink, and 2.70
/// (17,530) since it files under the session the dispatcher resolved.
/// One more allocation per frame, on either thread, fails it.
const SHARDED_SIGNALLING_ALLOCS_PER_FRAME_BUDGET: f64 = 3.5;

/// The counter is process-global and `cargo test` runs tests on parallel
/// threads, so each test holds this for its whole body — the other
/// test's capture generation would otherwise be charged to whichever
/// replay is being measured.
static COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn counter() -> std::sync::MutexGuard<'static, ()> {
    // A failed sibling poisons the lock; its budget verdict is its own.
    COUNTER.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_within_budget(label: &str, frames: &[(SimTime, IpPacket)], budget: f64) {
    assert!(frames.len() > 200, "{label} capture too small: {}", frames.len());
    let mut ids = Scidive::new(ScidiveConfig::default());
    // Warm one frame so lazily initialized tables (rule set, interner
    // buckets) are charged to setup, not the steady state.
    ids.on_frame(frames[0].0, &frames[0].1);
    let rest = &frames[1..];
    let (_, used) = alloc_count::measure(|| {
        ids.process_capture(rest.iter().map(|(t, p)| (*t, p)));
    });
    let per_frame = used.allocs as f64 / rest.len() as f64;
    println!(
        "{label} replay: {:.2} allocs/frame ({} allocs / {} frames, {} bytes)",
        per_frame,
        used.allocs,
        rest.len(),
        used.bytes
    );
    assert!(
        per_frame <= budget,
        "allocation regression: {label} at {per_frame:.2} allocs/frame exceeds budget of \
         {budget} — a hot-path allocation crept back in"
    );
}

#[test]
fn benign_replay_stays_within_alloc_budget() {
    let _measuring = counter();
    let frames = run_benign_capture(42, &ScenarioOptions::default());
    assert_within_budget("benign", &frames, BENIGN_ALLOCS_PER_FRAME_BUDGET);
}

/// The attack path allocates too: events, alerts, and rule session
/// state all materialize. The budget must hold while rules actually
/// fire, not just on silent traffic.
#[test]
fn bye_attack_replay_stays_within_alloc_budget() {
    let _measuring = counter();
    let frames: Vec<(SimTime, IpPacket)> = run_attack(AttackKind::Bye, 43, &ScenarioOptions::default())
        .trace
        .records()
        .iter()
        .map(|r| (r.time, r.packet.clone()))
        .collect();
    assert_within_budget("bye-attack", &frames, BYE_ATTACK_ALLOCS_PER_FRAME_BUDGET);
}

/// Signalling only — INVITE/200/BYE dialogs, 100 concurrent, with
/// REGISTER/401 churn — so every frame exercises the SIP event path:
/// the format check, the session handlers, the identity plane and SDP
/// media learning.
#[test]
fn signalling_replay_stays_within_alloc_budget() {
    let _measuring = counter();
    let frames: Vec<(SimTime, IpPacket)> = SynthConfig::load(2_000, 100).stream().collect();
    assert_within_budget("signalling", &frames, SIGNALLING_ALLOCS_PER_FRAME_BUDGET);
}

/// The same signalling replay through `ShardedScidive` with one worker:
/// the dispatcher distills, routes and runs the identity plane, and the
/// worker files each footprint under the session the dispatcher
/// resolved. A worker that interned Call-IDs or learned SDP sinks
/// again, or built a key per frame, would blow through the budget.
#[test]
fn sharded_signalling_replay_stays_within_alloc_budget() {
    let _measuring = counter();
    let frames: Vec<(SimTime, IpPacket)> = SynthConfig::load(2_000, 100).stream().collect();
    let mut ids = ShardedScidive::new(ScidiveConfig::default(), 1, 64);
    // Warm one frame, as the single-engine replays do.
    ids.submit(frames[0].0, &frames[0].1);
    let rest = &frames[1..];
    // `finish` joins the worker, so every allocation it made for these
    // frames is counted, however far behind the dispatcher it ran.
    let (report, used) = alloc_count::measure(|| {
        for (t, p) in rest {
            ids.submit(*t, p);
        }
        ids.finish()
    });
    assert_eq!(report.stats.frames, frames.len() as u64);
    let per_frame = used.allocs as f64 / rest.len() as f64;
    println!(
        "sharded signalling replay: {:.2} allocs/frame ({} allocs / {} frames, {} bytes)",
        per_frame,
        used.allocs,
        rest.len(),
        used.bytes
    );
    assert!(
        per_frame <= SHARDED_SIGNALLING_ALLOCS_PER_FRAME_BUDGET,
        "allocation regression: sharded signalling at {per_frame:.2} allocs/frame exceeds \
         budget of {SHARDED_SIGNALLING_ALLOCS_PER_FRAME_BUDGET} — a per-frame allocation \
         crept into the dispatcher or the worker"
    );
}

/// An attacker sets the share of unclean SIP frames, so their cost is
/// gated too: a flood of malformed INVITEs, each with an SDP offer and
/// an extension header, none with Max-Forwards, each From missing its
/// `sip:` scheme.
#[test]
fn malformed_invite_flood_stays_within_alloc_budget() {
    use std::net::Ipv4Addr;

    let _measuring = counter();
    let (attacker, proxy) = (Ipv4Addr::new(10, 0, 0, 66), Ipv4Addr::new(10, 0, 0, 2));
    let sdp = "v=0\r\no=mallory 1 1 IN IP4 10.0.0.66\r\ns=-\r\n\
               c=IN IP4 10.0.0.66\r\nt=0 0\r\nm=audio 9000 RTP/AVP 0\r\n";
    let frames: Vec<(SimTime, IpPacket)> = (0..400u64)
        .map(|i| {
            let wire = format!(
                "INVITE sip:bob@10.0.0.3 SIP/2.0\r\n\
                 Via: SIP/2.0/UDP 10.0.0.66:5060;branch=z9hG4bK-flood-{i}\r\n\
                 From: <alice@10.0.0.66>;tag=flood-{i}\r\n\
                 To: <sip:bob@10.0.0.3>\r\n\
                 Call-ID: flood-{}@10.0.0.66\r\n\
                 CSeq: {} INVITE\r\n\
                 P-Billing-Id: victim@lab\r\n\
                 Content-Type: application/sdp\r\n\
                 Content-Length: {}\r\n\r\n{sdp}",
                i % 16,
                i / 16 + 1,
                sdp.len(),
            );
            let time = SimTime::from_millis(10 * i);
            (time, IpPacket::udp(attacker, 5060, proxy, 5060, wire.into_bytes()))
        })
        .collect();
    assert_within_budget("malformed-invite", &frames, MALFORMED_ALLOCS_PER_FRAME_BUDGET);
}

/// The IDS reads SIP only through `SipFootprint::parse`, which builds
/// no owned SIP value: not the request URI (with its parameter list),
/// not an extension header's name, not a response's reason phrase. A
/// clean INVITE with an SDP offer, a parameterised request URI and
/// three extension headers, and the 200 OK answering it, parse with no
/// allocation at all.
#[test]
fn sip_footprint_parse_allocates_nothing() {
    use scidive_core::footprint::SipFootprint;
    use scidive_sip::prelude::*;
    use std::net::Ipv4Addr;

    let _measuring = counter();
    let mut invite = RequestBuilder::new(
        Method::Invite,
        "sip:bob@10.0.0.3:5060;transport=udp".parse().unwrap(),
    );
    invite
        .from(NameAddr::new("sip:alice@10.0.0.1".parse().unwrap()).with_tag("a1"))
        .to(NameAddr::new("sip:bob@10.0.0.3".parse().unwrap()))
        .call_id("call-1@10.0.0.1")
        .cseq(CSeq::new(1, Method::Invite))
        .via(Via::udp("10.0.0.1:5060", "z9hG4bK1"))
        .header(HeaderName::extension("Allow"), "INVITE, ACK, BYE, CANCEL")
        .header(HeaderName::extension("Supported"), "timer")
        .header(HeaderName::extension("Session-Expires"), "1800")
        .body(
            "application/sdp",
            SessionDescription::audio_offer("alice", Ipv4Addr::new(10, 0, 0, 1), 8000).to_string(),
        );
    let invite = invite.build();
    let mut ok = response_to(&invite, StatusCode::OK, Some("b1"));
    ok.headers
        .push(HeaderName::extension("Server"), "scidive-ua");

    for (label, wire) in [("INVITE", invite.to_bytes()), ("200 OK", ok.to_bytes())] {
        let footprint = SipFootprint::parse(wire.clone()).unwrap();
        assert!(footprint.is_clean(), "{label} must be clean");
        // The counter is process-global, and the test harness's own
        // thread can allocate while a round runs (reporting a sibling
        // test that just released the lock). An allocation in the parse
        // shows in every round; the harness's, in one at most.
        let fewest = (0..5)
            .map(|_| {
                let (_, used) = alloc_count::measure(|| {
                    for _ in 0..100 {
                        std::hint::black_box(SipFootprint::parse(wire.clone()).unwrap());
                    }
                });
                used.allocs
            })
            .min()
            .unwrap();
        println!("{label} footprint: {fewest} allocs / 100 parses (fewest of 5 rounds)");
        assert_eq!(fewest, 0, "the SIP view path allocated parsing the {label}");
    }
    let offer = SipFootprint::parse(invite.to_bytes()).unwrap();
    assert!(offer.rtp_target().is_some(), "the INVITE's SDP is read");
}
