//! Million-session soak: the bounded-memory claim, gate-enforced.
//!
//! Drives hours of virtual time of template-stamped dialog load (see
//! [`scidive_voip::synth`]) through one engine with
//! `exact_rate_state = false` (the repo benchmark's setting) and checks,
//! from the observability gauges alone, that
//!
//! * the identity plane's flood/guess tables and the rapid-connect
//!   threshold table beside them are live, under their hard cap at every
//!   checkpoint, and evict nothing — regardless of how many dialogs or
//!   registration sources pass by;
//! * every per-session gauge (trails, media index, interner, synthetic
//!   keys, session plane) and the threshold table's key count plateau —
//!   the second half of the run leaves no more state behind than its
//!   middle — and the expiry counters prove the lifecycle actually ran;
//! * the benign load raises no alerts.
//!
//! Scale via `SCIDIVE_SOAK_DIALOGS` (default 2 000 so debug `cargo
//! test` stays fast; `scripts/ci.sh` runs a release profile at 100 000,
//! through one engine and through the 4-shard fold plane alike).

use scidive::prelude::*;
use scidive_core::rate::TABLE_BYTES_CAP;
use scidive_voip::synth::SynthConfig;

/// Hard bound on the bytes each rate store may pin: the identity plane's
/// two tables together, and each threshold table.
const RATE_BYTES_CAP: u64 = TABLE_BYTES_CAP as u64;

fn soak_dialogs() -> u64 {
    std::env::var("SCIDIVE_SOAK_DIALOGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

#[test]
fn soak_rate_state_bounded_and_gauges_plateau() {
    let dialogs = soak_dialogs();
    let concurrent = (dialogs / 4).max(64);
    let mut synth = SynthConfig::load(dialogs, concurrent);
    // Every caller has dialled by the first checkpoint at any scale, so
    // the threshold table's key count has a plateau to hold.
    synth.callers = (dialogs / 8).clamp(64, 4_096) as u32;
    // Stretch the schedule tenfold so the run spans hours of virtual
    // time at the full scale (1M dialogs -> ~3.5 h) and comfortably
    // crosses every idle timeout at the debug scale.
    synth.spacing = SimDuration::from_millis(10);
    synth.hold = SimDuration::from_millis(10 * concurrent);
    let span = synth.span();

    // State windows well inside the run, so the plateau (not just the
    // ramp) is what the checkpoints observe.
    let window = SimDuration::from_micros((span.as_micros() / 16).max(2_000_000));
    let mut config = ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    };
    config.trails.idle_timeout = window;
    config.events.identity_timeout = window;
    config.events.session_timeout = window;

    let mut ids = Scidive::new(config.clone());
    // The same engine minus its one threshold rule: what it reports as
    // rate bytes is the identity plane's tables alone, which isolates
    // the threshold table's share of `ids`'s. Trail and session
    // retention do not touch the identity plane, so keep this one's
    // short and its trail scans cheap.
    config.rules.rapid_connect = false;
    config.trails.idle_timeout = SimDuration::from_secs(1);
    config.events.session_timeout = SimDuration::from_secs(1);
    let mut identity_only = Scidive::new(config);
    let total = synth.total_frames();
    let checkpoint_every = (total / 8).max(1);
    let mut gauges = Vec::new();
    let mut identity_bytes = Vec::new();
    for (n, (time, pkt)) in synth.stream().enumerate() {
        ids.on_frame(time, &pkt);
        identity_only.on_frame(time, &pkt);
        if (n as u64 + 1).is_multiple_of(checkpoint_every) {
            gauges.push(ids.gauges());
            identity_bytes.push(identity_only.gauges().rate_bytes);
        }
    }

    let stats = ids.stats();
    assert_eq!(stats.frames, total);
    assert!(
        stats.events >= dialogs,
        "every dialog should at least establish: {} events for {dialogs} dialogs",
        stats.events
    );
    assert!(
        ids.alerts().is_empty(),
        "benign synthetic load raised alerts: {:?}",
        ids.alerts().first()
    );

    // Rate state. The identity plane's tables and the threshold table:
    // live, under their cap at every checkpoint, and never evicting — at
    // the 100k-dialog scale that last one is what proves aged-out
    // observations are reclaimed (unreclaimed, they would outgrow the
    // cap).
    assert!(!identity_bytes.is_empty(), "at least one checkpoint");
    for (i, (g, identity)) in gauges.iter().zip(&identity_bytes).enumerate() {
        assert!(*identity > 0, "identity tables empty at checkpoint {i}");
        assert!(
            *identity <= RATE_BYTES_CAP,
            "identity table bytes {identity} broke the {RATE_BYTES_CAP} cap at checkpoint {i}"
        );
        assert_eq!(g.rate_evicted, 0, "identity tables evicted at checkpoint {i}");
        let table = g.rate_bytes - identity;
        assert!(table > 0, "threshold table empty at checkpoint {i}");
        assert!(
            table <= RATE_BYTES_CAP,
            "threshold table bytes {table} broke the {RATE_BYTES_CAP} cap at checkpoint {i}"
        );
        assert_eq!(g.rule_state_evicted, 0, "evicted at checkpoint {i}");
        assert_eq!(g.trails_evicted, 0, "trails evicted at checkpoint {i}");
        assert_eq!(g.evicted_entries, 0, "entries evicted at checkpoint {i}");
    }

    // Plateau: the last checkpoint retains no more per-session state
    // than the biggest mid-run checkpoint (10% + constant headroom for
    // checkpoint phase vs. sweep cadence).
    type Gauge = fn(&StateGauges) -> u64;
    let last = gauges.last().expect("checkpoints");
    let mid = &gauges[gauges.len() / 2..gauges.len() - 1];
    let cap = |f: Gauge| {
        let peak = mid.iter().map(f).max().unwrap_or(0);
        peak + peak / 10 + 64
    };
    let checks: [(&str, Gauge); 7] = [
        ("trails", |g| g.trails),
        ("retained_footprints", |g| g.retained_footprints),
        ("media_index", |g| g.media_index),
        ("interner", |g| g.interner),
        ("synthetic_keys", |g| g.synthetic_keys),
        ("session_plane", |g| g.session_plane),
        ("rule_state", |g| g.rule_state),
    ];
    for (name, f) in checks {
        assert!(
            f(last) <= cap(f),
            "{name} kept growing: final {} vs mid-run cap {}",
            f(last),
            cap(f)
        );
    }
    // Rule state is the threshold table's keys (nothing fires here, so
    // no fired-once markers exist): one per caller in the window.
    assert!(last.rule_state > 0, "no caller ever entered the threshold table");
    assert!(last.rule_state <= u64::from(synth.callers));

    // The lifecycle counters prove expiry ran rather than the load
    // being too small to matter.
    assert!(last.expired_trails > 0, "no trail ever expired");
    assert!(last.interner_expired > 0, "no interned key ever expired");
    assert!(
        last.session_plane_expired > 0,
        "no session-plane dialog ever expired"
    );
}

/// The sharded pipeline's global fold plane under sustained benign
/// load: the dispatcher-side table materializes with the first fold,
/// then follows the in-window call population — it is exact per-key
/// state, so it is bounded rather than constant — and at every
/// checkpoint stays inside the same hard cap, however many dialogs pass
/// by. Under the cap nothing may be evicted, and the periodic folds
/// raise no alerts on benign traffic.
#[test]
fn soak_sharded_fold_plane_bytes_stay_bounded() {
    let dialogs = soak_dialogs();
    let mut synth = SynthConfig::load(dialogs, 256);
    // Stretch the schedule so the virtual span (~20 s at the default
    // scale, 100 calls a second at any scale) crosses the 1s fold
    // cadence dozens of times before the first checkpoint samples it.
    synth.spacing = SimDuration::from_millis(10);
    synth.hold = SimDuration::from_millis(10 * 256);
    let config = ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    };
    let mut ids = ShardedScidive::new(config, 4, 64);
    let total = synth.total_frames();
    let checkpoint_every = (total / 8).max(1);
    let mut fold_bytes = Vec::new();
    for (n, (time, pkt)) in synth.stream().enumerate() {
        ids.submit(time, &pkt);
        if (n as u64 + 1).is_multiple_of(checkpoint_every) {
            fold_bytes.push(ids.observation().gauges.fold_rate_bytes);
        }
    }
    let report = ids.finish();
    assert!(
        report.alerts.is_empty(),
        "benign sharded load raised fold-plane alerts: {:?}",
        report.alerts.first()
    );
    let dispatch = &report.observation.dispatch;
    assert!(dispatch.folds > 0, "the periodic fold cadence never ran");
    assert_eq!(
        dispatch.fold_candidates, dialogs,
        "every established call is one fold-plane observation"
    );
    assert_eq!(
        dispatch.fold_evicted, 0,
        "one window's observations are far under the cap: nothing may be evicted"
    );

    assert!(!fold_bytes.is_empty(), "at least one checkpoint");
    for (i, b) in fold_bytes.iter().enumerate() {
        assert!(*b > 0, "fold table never materialized (checkpoint {i})");
        assert!(
            *b <= RATE_BYTES_CAP,
            "fold-plane bytes {b} broke the {RATE_BYTES_CAP} cap at checkpoint {i}"
        );
    }
    // Workers keep no threshold state of their own under the fold —
    // what they report is the dispatcher's identity tables plus
    // whatever sits in their outboxes — and nothing evicts.
    let gauges = &report.observation.gauges;
    assert!(gauges.rate_bytes > 0 && gauges.rate_bytes < RATE_BYTES_CAP);
    assert_eq!((gauges.rule_state, gauges.rule_state_evicted), (0, 0));
    assert_eq!(gauges.rate_evicted, 0);
    assert_eq!(gauges.trails_evicted, 0);
    assert_eq!(gauges.evicted_entries, 0);
}

/// Hot reload under sustained load: swap the ruleset every ~6% of the
/// stream (alternating built-in ↔ built-in + an operator sequence rule)
/// and require that nothing observable changes — alerts, pipeline
/// counters, and session-state gauges all match the never-swapped
/// baseline, the per-session gauges still plateau (adopted state keeps
/// expiring), and the generation gauge climbs one step per swap.
#[test]
fn soak_swap_every_n_dialogs_preserves_state() {
    const OP_DSL: &str = "rule op-teardown severity critical window 2s {\n\
                          \tsequence CallTornDown, OrphanRtpAfterBye\n\
                          }\n";
    let mut synth = SynthConfig::load(2_000, 256);
    synth.spacing = SimDuration::from_millis(10);
    synth.hold = SimDuration::from_millis(10 * 256);
    let span = synth.span();
    let window = SimDuration::from_micros((span.as_micros() / 16).max(2_000_000));
    let mut config = ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    };
    config.trails.idle_timeout = window;
    config.events.identity_timeout = window;
    config.events.session_timeout = window;

    let mut base = ShardedScidive::new(config.clone(), 4, 64);
    for (time, pkt) in synth.stream() {
        base.submit(time, &pkt);
    }
    let baseline = base.finish();
    assert!(baseline.alerts.is_empty(), "baseline load is not benign");

    let sources = [
        RulesetSource::Dsl(OP_DSL.to_string()),
        RulesetSource::Builtin,
    ];
    let mut ids = ShardedScidive::new(config, 4, 64);
    let total = synth.total_frames();
    let swap_every = (total / 16).max(1);
    let checkpoint_every = (total / 8).max(1);
    let mut swaps = 0u64;
    let mut generations = Vec::new();
    let mut gauges = Vec::new();
    for (n, (time, pkt)) in synth.stream().enumerate() {
        if n > 0 && (n as u64).is_multiple_of(swap_every) {
            let gen = ids
                .swap_ruleset(&sources[swaps as usize % 2])
                .expect("swap source compiles");
            swaps += 1;
            assert_eq!(gen, swaps, "generation must climb one step per swap");
            generations.push(gen);
        }
        ids.submit(time, &pkt);
        if (n as u64 + 1).is_multiple_of(checkpoint_every) {
            gauges.push(ids.observation().gauges);
        }
    }
    let report = ids.finish();

    assert!(swaps >= 8, "load too small to exercise repeated swaps");
    assert!(generations.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(report.observation.dispatch.ruleset_swaps, swaps);
    assert_eq!(report.observation.dispatch.ruleset_compile_errors, 0);
    assert_eq!(report.observation.gauges.ruleset_generation, swaps);

    // Nothing observable may change: same (empty) alert stream, same
    // counters, same retained session state as the never-swapped run.
    assert_eq!(report.alerts, baseline.alerts);
    assert_eq!(report.stats, baseline.stats);
    assert_eq!(report.observation.gauges.trails, baseline.observation.gauges.trails);
    assert_eq!(
        report.observation.gauges.session_plane,
        baseline.observation.gauges.session_plane
    );
    assert_eq!(
        report.observation.gauges.expired_trails,
        baseline.observation.gauges.expired_trails
    );

    // The per-session gauges still plateau with swaps in the loop: the
    // second half of the run leaves no more state behind than its
    // middle, so adopted rule state keeps flowing through expiry.
    let last = gauges.last().expect("checkpoints");
    let mid = &gauges[gauges.len() / 2..gauges.len() - 1];
    for (name, f) in [
        ("trails", (|g| g.trails) as fn(&StateGauges) -> u64),
        ("session_plane", |g| g.session_plane),
        ("rule_state", |g| g.rule_state),
    ] {
        let peak = mid.iter().map(f).max().unwrap_or(0);
        let cap = peak + peak / 10 + 64;
        assert!(
            f(last) <= cap,
            "{name} kept growing across swaps: final {} vs mid-run cap {cap}",
            f(last)
        );
    }
}
