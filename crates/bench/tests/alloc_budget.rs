//! Allocation-regression gate for the hot path.
//!
//! Replays a benign capture through a fresh engine under the counting
//! global allocator and fails if allocations per frame creep past a
//! budget. The budget is set from a measured value with ~30% headroom:
//! it will not trip on allocator noise or small feature work, but a
//! change that reintroduces per-frame `format!`/`to_string`/`Vec`
//! construction in the distiller, router, or header parser blows
//! straight through it.
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

/// Heap allocations allowed per frame on the RTP-heavy testbed
/// captures, end to end (distill → route → trails → events → rules).
/// Measured ~3.2 after the interning/zero-copy work, ~2.6 once
/// sink-based rule emission removed the per-(event, rule) `Vec<Alert>`
/// returns, ~1.8/~1.4 (benign/bye) once the per-media-frame endpoint
/// `Vec` went, and 0.23/0.09 (87 allocations over 381 frames, 40 over
/// 447) since a SIP footprint is its wire text plus the fields the IDS
/// reads: no header list or message box is built per frame. 2 gives
/// headroom for noise without letting any per-frame allocation back
/// into the distiller, router, trail store, or event generator.
const ALLOCS_PER_FRAME_BUDGET: f64 = 2.0;

/// Heap allocations allowed per frame on a signalling-only capture,
/// where every frame is a SIP message. Measured 11.47 while the event
/// generator re-parsed From/To/CSeq/Via and the SDP body per consumer,
/// 5.28 once every consumer read the one view computed per message
/// (DESIGN §14), and 2.2 (14.6k allocations over 6.5k frames) since
/// trails stopped retaining footprints; a footprint that holds the wire
/// text and spans instead of a parsed message reads the same 2.2. What
/// remains is per-session state (the trail, dialog and rule entries of
/// each new Call-ID) and the AOR and Call-ID text that events carry.
/// 3.0 leaves room for noise; one more allocation per SIP frame fails
/// it.
const SIGNALLING_ALLOCS_PER_FRAME_BUDGET: f64 = 3.0;

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
        "{label} replay: {:.1} allocs/frame ({} allocs / {} frames, {} bytes)",
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
    assert_within_budget("benign", &frames, ALLOCS_PER_FRAME_BUDGET);
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
    assert_within_budget("bye-attack", &frames, ALLOCS_PER_FRAME_BUDGET);
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
