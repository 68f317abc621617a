//! **Experiment C1** — capacity: engine state vs session scale.
//!
//! Drives the template-stamped mass-dialog synthesizer
//! ([`scidive_voip::synth`]) through a sketch-mode pipeline
//! (`exact_rate_state = false`) at a ladder of scales — 10 k, 100 k and
//! 1 M dialogs — and records, per rung, throughput (frames/s, events/s)
//! and the state gauges: bytes pinned by rate state (the identity
//! plane's constant-memory sketches plus the capped threshold tables),
//! rule-state entries, and the peak trail count.
//!
//! With `--shards N` (what `scripts/ci.sh` passes, at 4) each rung runs
//! the sharded deployment with the global rate fold plane on, and the
//! report carries the **fold-plane bytes alongside the summed engine
//! bytes**. Threshold tables are exact per-key state that follows the
//! in-window call population, so nothing here is equal across rungs by
//! construction; what must hold on **every rung** is the hard cap
//! `tests/soak.rs` enforces — for the fold plane, and `shards x` it for
//! the engine sum. Without the flag a single engine runs and the fold
//! column reads zero.
//!
//! The headline claim the artifact documents: **rate state stays under
//! its cap on every rung** — two orders of magnitude more dialogs and
//! registration churn do not grow the flood/guess/rapid-connect
//! detection state — while throughput stays flat. Writes
//! `BENCH_capacity.json` at the workspace root and
//! `results/capacity.txt`. With `--gate` exits nonzero unless the cap
//! checks hold. `--test` runs a two-rung miniature and writes nothing.

use scidive_bench::report::{f2, Table};
use scidive_core::prelude::*;
use scidive_netsim::time::SimDuration;
use scidive_voip::synth::SynthConfig;
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// Must match `RATE_BYTES_CAP` in `tests/soak.rs`. Applies per engine
/// (so `shards x` it for the per-shard sum) and to the global fold plane.
const RATE_BYTES_CAP: u64 = 2 * 1024 * 1024;

#[derive(Serialize)]
struct Rung {
    dialogs: u64,
    concurrent: u64,
    shards: u64,
    frames: u64,
    events: u64,
    wall_secs: f64,
    frames_per_sec: f64,
    events_per_sec: f64,
    rate_trackers: u64,
    rate_bytes: u64,
    fold_rate_bytes: u64,
    rule_state: u64,
    peak_trails: u64,
    peak_retained_footprints: u64,
    alerts: u64,
}

#[derive(Serialize)]
struct BenchReport {
    mode: String,
    shards: u64,
    rungs: Vec<Rung>,
    rate_bytes_under_cap: bool,
    fold_rate_bytes_under_cap: bool,
    rate_bytes_cap: u64,
}

fn rung_config(synth: &SynthConfig) -> ScidiveConfig {
    // Keep retention windows inside the run so steady-state (not
    // everything-since-start) is what the gauges measure.
    let span = synth.span();
    let window = SimDuration::from_micros((span.as_micros() / 16).clamp(2_000_000, 60_000_000));
    let mut config = ScidiveConfig {
        exact_rate_state: false,
        ..ScidiveConfig::default()
    };
    config.trails.idle_timeout = window;
    config.events.identity_timeout = window;
    config
}

fn run_rung(dialogs: u64, shards: usize) -> Rung {
    let concurrent = (dialogs / 4).max(64);
    let mut synth = SynthConfig::load(dialogs, concurrent);
    // Stretch the schedule like tests/soak.rs does: the caller pool is
    // fixed, so per-caller call rate — not total load — stays flat as
    // dialogs scale. Virtual time is free; wall-clock throughput is
    // unaffected.
    synth.spacing = SimDuration::from_millis(10);
    synth.hold = SimDuration::from_millis(10 * concurrent);
    let config = rung_config(&synth);

    let total = synth.total_frames();
    let sample_every = (total / 16).max(1);
    let mut peak_trails = 0u64;
    let mut peak_retained = 0u64;

    let (wall, stats, gauges) = if shards == 0 {
        let mut ids = Scidive::new(config);
        let start = Instant::now();
        for (n, (time, pkt)) in synth.stream().enumerate() {
            ids.on_frame(time, &pkt);
            if (n as u64 + 1).is_multiple_of(sample_every) {
                let g = ids.gauges();
                peak_trails = peak_trails.max(g.trails);
                peak_retained = peak_retained.max(g.retained_footprints);
            }
        }
        let wall = start.elapsed().as_secs_f64();
        (wall, ids.stats(), ids.gauges())
    } else {
        // Sharded deployment with the global fold plane on (the
        // default): the gauges sum the engines' rate state and report
        // the dispatcher's fold-plane tables separately.
        let mut ids = ShardedScidive::new(config, shards, 64);
        let start = Instant::now();
        for (n, (time, pkt)) in synth.stream().enumerate() {
            ids.submit(time, &pkt);
            if (n as u64 + 1).is_multiple_of(sample_every) {
                let g = ids.observation().gauges;
                peak_trails = peak_trails.max(g.trails);
                peak_retained = peak_retained.max(g.retained_footprints);
            }
        }
        let report = ids.finish();
        let wall = start.elapsed().as_secs_f64();
        (wall, report.stats, report.observation.gauges)
    };
    Rung {
        dialogs,
        concurrent,
        shards: shards as u64,
        frames: stats.frames,
        events: stats.events,
        wall_secs: wall,
        frames_per_sec: stats.frames as f64 / wall,
        events_per_sec: stats.events as f64 / wall,
        rate_trackers: gauges.rate_trackers,
        rate_bytes: gauges.rate_bytes,
        fold_rate_bytes: gauges.fold_rate_bytes,
        rule_state: gauges.rule_state,
        peak_trails,
        peak_retained_footprints: peak_retained,
        alerts: stats.alerts,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let gate = args.iter().any(|a| a == "--gate");
    let shards: usize = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);

    let ladder: &[u64] = if test_mode {
        &[500, 2_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    let mut out = String::new();
    let _ = writeln!(out, "# Capacity ladder: state vs session scale (exp_capacity)");
    let deployment = if shards == 0 {
        "single engine".to_string()
    } else {
        format!("{shards}-shard pipeline + global rate fold plane")
    };
    let _ = writeln!(
        out,
        "# sketch mode (exact_rate_state = false), {deployment}, synthetic dialogs + registration churn\n"
    );
    let mut table = Table::new(&[
        "dialogs",
        "concurrent",
        "frames",
        "frames/s",
        "events/s",
        "rate bytes",
        "fold bytes",
        "rule state",
        "peak trails",
    ]);
    let mut rungs = Vec::new();
    for &dialogs in ladder {
        let rung = run_rung(dialogs, shards);
        table.row(&[
            rung.dialogs.to_string(),
            rung.concurrent.to_string(),
            rung.frames.to_string(),
            format!("{:.0}", rung.frames_per_sec),
            format!("{:.0}", rung.events_per_sec),
            rung.rate_bytes.to_string(),
            rung.fold_rate_bytes.to_string(),
            rung.rule_state.to_string(),
            rung.peak_trails.to_string(),
        ]);
        rungs.push(rung);
    }
    let _ = writeln!(out, "{}", table.render());

    // The cap is per engine (each worker holds its own rate state, so
    // `shards x` it for their sum); the global fold plane gets the
    // single-engine cap.
    let shard_cap = RATE_BYTES_CAP * shards.max(1) as u64;
    let under_cap = rungs.iter().all(|r| r.rate_bytes <= shard_cap);
    let fold_under_cap = rungs.iter().all(|r| r.fold_rate_bytes <= RATE_BYTES_CAP);
    let fold_materialized = shards == 0 || rungs.iter().all(|r| r.fold_rate_bytes > 0);
    let benign = rungs.iter().all(|r| r.alerts == 0);
    let spread = rungs.last().map(|r| r.dialogs).unwrap_or(0) as f64
        / rungs.first().map(|r| r.dialogs.max(1)).unwrap_or(1) as f64;
    let verdict = |ok: bool| if ok { "under the cap" } else { "OVER THE CAP" };
    let _ = writeln!(
        out,
        "rate-state bytes {} on every rung of a {}x session spread (cap {shard_cap})",
        verdict(under_cap),
        f2(spread),
    );
    if shards > 0 {
        let _ = writeln!(
            out,
            "global fold-plane bytes {} on every rung (cap {RATE_BYTES_CAP})",
            verdict(fold_under_cap),
        );
    }

    print!("{out}");

    let report = BenchReport {
        mode: if shards == 0 {
            "sketch".to_string()
        } else {
            format!("sketch+fold x{shards}")
        },
        shards: shards as u64,
        rungs,
        rate_bytes_under_cap: under_cap,
        fold_rate_bytes_under_cap: fold_under_cap,
        rate_bytes_cap: RATE_BYTES_CAP,
    };
    if test_mode {
        // Exercise serialization without publishing artifacts.
        std::hint::black_box(serde_json::to_string(&report).expect("serialize"));
    } else {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write(root.join("BENCH_capacity.json"), json + "\n")
            .expect("write BENCH_capacity.json");
        let results = root.join("results");
        let _ = std::fs::create_dir_all(&results);
        let _ = std::fs::write(results.join("capacity.txt"), &out);
    }

    if gate {
        if !under_cap {
            eprintln!("FAIL: rate-state bytes broke the {shard_cap}-byte cap");
            std::process::exit(1);
        }
        if !fold_under_cap {
            eprintln!("FAIL: fold-plane bytes broke the {RATE_BYTES_CAP}-byte cap");
            std::process::exit(1);
        }
        if !fold_materialized {
            eprintln!("FAIL: sharded run never materialized the global fold plane");
            std::process::exit(1);
        }
        if !benign {
            eprintln!("FAIL: benign synthetic load raised alerts");
            std::process::exit(1);
        }
        println!(
            "gate ok: rate state under {shard_cap}, fold plane under {RATE_BYTES_CAP}, on every rung"
        );
    }
}
