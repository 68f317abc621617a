//! Generator self-tests: the workloads are what they claim to be, and
//! the ground truth they carry is what the product actually does.

use scidive_core::alert::Severity;
use scidive_netsim::time::SimDuration;
use scidive_perf::check::{stream_differences, verdict};
use scidive_perf::gen::{attack_alone, generate, AttackKind, Spec, WORKLOADS};
use scidive_perf::sut;
use scidive_perf::trace::Trace;
use std::collections::BTreeSet;

fn small(name: &str) -> Spec {
    Spec::named(name).expect("known workload").shrunk(50)
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for name in WORKLOADS {
        let a = generate(&small(name), 7);
        let b = generate(&small(name), 7);
        let c = generate(&small(name), 8);
        assert_eq!(
            a.stats.fingerprint, b.stats.fingerprint,
            "{name}: seed 7 twice"
        );
        assert_eq!(a.frames, b.frames, "{name}: seed 7 twice");
        assert_ne!(
            a.stats.fingerprint, c.stats.fingerprint,
            "{name}: seed 7 vs 8"
        );
    }
}

#[test]
fn seed_moves_contents_not_scale() {
    // Frame counts stay within a few percent across seeds, so throughput
    // is comparable from seed to seed.
    for name in WORKLOADS {
        let spec = Spec::named(name).expect("known workload").shrunk(5);
        let n = generate(&spec, 7).frames.len() as f64;
        let m = generate(&spec, 8).frames.len() as f64;
        assert!((n - m).abs() / n < 0.03, "{name}: {n} vs {m} frames");
    }
}

#[test]
fn frames_are_time_ordered() {
    for name in WORKLOADS {
        let w = generate(&small(name), 3);
        assert!(
            w.frames.windows(2).all(|p| p[0].0 <= p[1].0),
            "{name}: capture not sorted"
        );
        assert_eq!(w.stats.frames as usize, w.frames.len());
    }
}

#[test]
fn workloads_separate_by_construction() {
    let share = |n: u64, of: u64| n as f64 / of as f64;
    let sig = generate(&small("sig_steady"), 1).stats;
    assert!(share(sig.sip, sig.frames) >= 0.99);
    let media = generate(&small("media_steady"), 1).stats;
    assert!(share(media.rtp, media.frames) >= 0.97);
    let mix = generate(&small("attack_mix"), 1);
    assert!(mix.stats.other > 0, "attack_mix carries undecodable UDP");
    for kind in AttackKind::ALL {
        assert!(
            mix.attacks.iter().any(|a| a.kind == kind),
            "attack_mix lacks {kind:?}"
        );
    }
}

#[test]
fn each_attack_alone_raises_exactly_its_rule() {
    for kind in AttackKind::ALL {
        for seed in [1, 2] {
            let w = attack_alone(kind, seed);
            let run = sut::inline(&w.frames, &sut::config(&w.spec, true));
            let critical: BTreeSet<&str> = run
                .alerts
                .iter()
                .filter(|a| a.severity == Severity::Critical)
                .map(|a| a.rule.as_str())
                .collect();
            assert_eq!(
                critical,
                BTreeSet::from([kind.rule()]),
                "{kind:?} seed {seed}: {:?}",
                run.alerts
            );
            let v = verdict(&w.attacks, &run.alerts, SimDuration::from_micros(0));
            assert_eq!(v.failures(), 0, "{kind:?} seed {seed}: {v:?}");
            assert_eq!(v.delays_ms.len(), 1);
        }
    }
}

#[test]
fn benign_background_alone_raises_nothing() {
    for name in WORKLOADS {
        let spec = Spec::named(name)
            .expect("known workload")
            .shrunk(10)
            .without_attacks();
        let w = generate(&spec, 5);
        assert!(w.attacks.is_empty());
        let run = sut::inline(&w.frames, &sut::config(&w.spec, true));
        assert!(
            run.alerts.is_empty(),
            "{name}: {:?}",
            &run.alerts[..run.alerts.len().min(3)]
        );
        assert_eq!(run.stats.frames as usize, w.frames.len());
    }
}

#[test]
fn sharded_and_inline_streams_agree_on_attack_mix() {
    let w = generate(&small("attack_mix"), 11);
    let cfg = sut::config(&w.spec, true);
    let inline = sut::inline(&w.frames, &cfg);
    for shards in [1, 2] {
        let sharded = sut::sharded(&w.frames, &cfg, shards);
        assert_eq!(
            stream_differences(&sharded.report.alerts, &inline.alerts),
            0,
            "{shards} shard(s)"
        );
        let v = verdict(&w.attacks, &sharded.report.alerts, cfg.fold.interval);
        assert_eq!(v.failures(), 0, "{shards} shard(s): {v:?}");
        assert_eq!(sharded.report.dispatch.dropped, 0);
        assert_eq!(sharded.report.stats.frames as usize, w.frames.len());
    }
}

#[test]
fn traced_composition_is_the_engine() {
    let w = generate(&small("attack_mix"), 4);
    let cfg = sut::config(&w.spec, true);
    let engine = sut::inline(&w.frames, &cfg);
    let mut trace = Trace::new();
    let traced = sut::composed_traced(&w.frames, &cfg, &mut trace);
    let plain = sut::composed(&w.frames, &cfg);
    for run in [&traced, &plain] {
        assert_eq!(run.footprints, engine.stats.footprints);
        assert_eq!(run.events, engine.stats.events);
        assert_eq!(run.alerts, engine.stats.alerts);
    }
    assert_eq!(trace.frame_ns.len(), w.frames.len());
}
