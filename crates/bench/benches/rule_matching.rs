//! **Experiment P1c** — rule matching: compiled event-class dispatch vs
//! the full-scan reference as the ruleset grows.
//!
//! Harvests the event stream of one captured BYE-attack scenario, then
//! drives it straight through rulesets padded with inert,
//! interest-scoped rules (their trigger classes never occur in the
//! capture, so the compiled table never invokes them while the full
//! scan offers them every event). Measures the matching stage's
//! events/second and — exactly, from the per-rule eval counters — rule
//! invocations per event, at ruleset paddings 8/32/128; with
//! `--features count-allocs` also whole-pipeline heap allocations per
//! frame at the same paddings.
//!
//! Writes `BENCH_rules.json` (full-scan = before, compiled = after) and
//! `results/rule_dispatch.txt`. With `--gate <x>` (what `scripts/ci.sh`
//! passes) it writes nothing and exits nonzero unless compiled
//! throughput at 128 padding rules is at least `x` times the full-scan
//! baseline; regenerating the artifacts is a run without `--gate`.
//! `--test` runs a single quick iteration and writes nothing.

use scidive_bench::harness::{run_attack, AttackKind, ScenarioOptions};
use scidive_bench::report::{f2, Table};
use scidive_core::event::EventClass;
use scidive_core::prelude::*;
use scidive_netsim::packet::IpPacket;
use scidive_netsim::time::{SimDuration, SimTime};
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: [usize; 3] = [8, 32, 128];

fn capture() -> Vec<(SimTime, IpPacket)> {
    run_attack(AttackKind::Bye, 1, &ScenarioOptions::default())
        .trace
        .records()
        .iter()
        .map(|r| (r.time, r.packet.clone()))
        .collect()
}

/// `extra` inert padding rules. Their interest classes (identity-plane
/// registration attacks) never occur in the BYE capture: compiled
/// dispatch skips them entirely, a full scan pays one `on_event` per
/// rule per event.
fn padding(extra: usize) -> impl Iterator<Item = Box<dyn Rule>> {
    (0..extra).map(|i| {
        Box::new(SequenceRule::new(
            format!("padding-{i}"),
            "inert interest-scoped padding",
            vec![EventClass::PasswordGuessing, EventClass::RegisterFlood],
            SimDuration::from_secs(60),
        )) as Box<dyn Rule>
    })
}

/// The full built-in ruleset plus `extra` padding rules, compiled or
/// full-scan.
fn ruleset(extra: usize, full_scan: bool) -> CompiledRuleset {
    let mut rules = builtin_ruleset(&RuleToggles::default());
    rules.extend(padding(extra));
    CompiledRuleset::new(rules, full_scan)
}

/// One timed pass of the matching stage: the harvested event stream,
/// driven `repeats` times through one ruleset (amplifying the tiny
/// per-stream cost into a measurable region; later repeats exercise the
/// fired-marker fast paths, which both modes share). Returns (elapsed
/// seconds, events dispatched, rule evals).
fn match_stage(
    events: &[Event],
    trails: &TrailStore,
    repeats: usize,
    extra: usize,
    full_scan: bool,
) -> (f64, u64, u64) {
    let mut rules = ruleset(extra, full_scan);
    let mut alerts = Vec::new();
    let rates = &scidive_core::rate::RateHub::default();
    let start = Instant::now();
    {
        let mut sink = AlertSink::new(&mut alerts);
        for _ in 0..repeats {
            for ev in events {
                let ctx = RuleCtx {
                    now: ev.time,
                    trails,
                    rates,
                };
                rules.dispatch(ev, &ctx, &mut sink);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(alerts.len());
    let evals = rules.rule_evals().iter().map(|e| e.evals).sum();
    (elapsed, (events.len() * repeats) as u64, evals)
}

/// A whole-pipeline engine with the same padding, for the allocs/frame
/// measurement.
#[cfg(feature = "count-allocs")]
fn engine(extra: usize, full_scan: bool) -> Scidive {
    let mut config = ScidiveConfig::default();
    config.full_scan_rules = full_scan;
    let mut ids = Scidive::new(config);
    for rule in padding(extra) {
        ids.add_rule(rule);
    }
    ids
}

#[cfg(feature = "count-allocs")]
fn allocs_per_frame(frames: &[(SimTime, IpPacket)], extra: usize, full_scan: bool) -> Option<f64> {
    use scidive_bench::alloc_count;
    let mut ids = engine(extra, full_scan);
    let (_, used) = alloc_count::measure(|| {
        ids.process_capture(frames.iter().map(|(t, p)| (*t, p)));
    });
    Some(used.allocs as f64 / frames.len() as f64)
}

#[cfg(not(feature = "count-allocs"))]
fn allocs_per_frame(_frames: &[(SimTime, IpPacket)], _extra: usize, _full_scan: bool) -> Option<f64> {
    None
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// One mode's measurements at one ruleset size.
#[derive(Serialize)]
struct ModeRow {
    events_per_sec: f64,
    rule_invocations_per_event: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    allocs_per_frame: Option<f64>,
}

#[derive(Serialize)]
struct SizeRow {
    extra_rules: usize,
    full_scan: ModeRow,
    compiled: ModeRow,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    capture: String,
    frames: usize,
    events: u64,
    iterations: usize,
    sizes: Vec<SizeRow>,
    speedup_at_128: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let test_mode = args.iter().any(|a| a == "--test");
    let gate: Option<f64> = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--gate takes a speedup factor"));

    let (iters, warmup) = if test_mode { (1, 0) } else { (31, 3) };
    let frames = capture();
    // Harvest the event stream (and the trail store the rules consult)
    // once; the timed region is the matching stage alone.
    let mut harvester = Scidive::new(ScidiveConfig {
        event_log_cap: 100_000,
        ..ScidiveConfig::default()
    });
    harvester.process_capture(frames.iter().map(|(t, p)| (*t, p)));
    let events = harvester.drain_events();
    let trails = harvester.trails();

    let mut out = String::new();
    let _ = writeln!(out, "# Rule matching: compiled dispatch vs full scan (rule_matching)");
    let _ = writeln!(
        out,
        "# BYE capture, {} frames -> {} events; {iters} interleaved matching passes per mode, median reported",
        frames.len(),
        events.len()
    );
    let _ = writeln!(
        out,
        "# padding rules are interest-scoped to classes the capture never produces\n"
    );

    let mut table = Table::new(&[
        "extra rules",
        "full-scan ev/s",
        "compiled ev/s",
        "speedup",
        "full-scan invoc/ev",
        "compiled invoc/ev",
    ]);
    let mut sizes = Vec::new();
    let repeats = if test_mode { 2 } else { 100 };
    for extra in SIZES {
        for _ in 0..warmup {
            match_stage(&events, trails, repeats, extra, true);
            match_stage(&events, trails, repeats, extra, false);
        }
        let mut full = Vec::with_capacity(iters);
        let mut compiled = Vec::with_capacity(iters);
        let mut full_evals = 0u64;
        let mut compiled_evals = 0u64;
        let mut dispatched = 0u64;
        // Interleave so drift (thermal, scheduler) hits both modes
        // equally.
        for _ in 0..iters {
            let (t, n, evals) = match_stage(&events, trails, repeats, extra, true);
            full.push(t);
            dispatched = n;
            full_evals = evals;
            let (t, _, evals) = match_stage(&events, trails, repeats, extra, false);
            compiled.push(t);
            compiled_evals = evals;
        }
        let full_med = median(&mut full);
        let compiled_med = median(&mut compiled);
        let full_eps = dispatched as f64 / full_med;
        let compiled_eps = dispatched as f64 / compiled_med;
        let speedup = compiled_eps / full_eps;
        let full_ipe = full_evals as f64 / dispatched as f64;
        let compiled_ipe = compiled_evals as f64 / dispatched as f64;
        table.row(&[
            extra.to_string(),
            format!("{:.0}", full_eps),
            format!("{:.0}", compiled_eps),
            f2(speedup),
            f2(full_ipe),
            f2(compiled_ipe),
        ]);
        sizes.push(SizeRow {
            extra_rules: extra,
            full_scan: ModeRow {
                events_per_sec: full_eps,
                rule_invocations_per_event: full_ipe,
                allocs_per_frame: allocs_per_frame(&frames, extra, true),
            },
            compiled: ModeRow {
                events_per_sec: compiled_eps,
                rule_invocations_per_event: compiled_ipe,
                allocs_per_frame: allocs_per_frame(&frames, extra, false),
            },
            speedup,
        });
    }
    let _ = writeln!(out, "{}", table.render());

    let speedup_at_128 = sizes.last().map(|s| s.speedup).unwrap_or(0.0);
    let _ = writeln!(
        out,
        "speedup at 128 padding rules: {}x (compiled invocations scale with interested rules, not ruleset size)",
        f2(speedup_at_128)
    );

    print!("{out}");

    if !test_mode && gate.is_none() {
        let report = BenchReport {
            capture: "Bye".to_string(),
            frames: frames.len(),
            events: events.len() as u64,
            iterations: iters,
            sizes,
            speedup_at_128,
        };
        // `cargo bench` sets the CWD to the package dir; anchor the
        // artifacts at the workspace root like the exp_* binaries do.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        let json = serde_json::to_string_pretty(&report).expect("serialize bench report");
        std::fs::write(root.join("BENCH_rules.json"), json + "\n")
            .expect("write BENCH_rules.json");
        let results = root.join("results");
        let _ = std::fs::create_dir_all(&results);
        let _ = std::fs::write(results.join("rule_dispatch.txt"), &out);
    }

    if let Some(min_speedup) = gate {
        if speedup_at_128 < min_speedup {
            eprintln!(
                "FAIL: compiled dispatch speedup {}x at 128 rules is below the {min_speedup}x gate",
                f2(speedup_at_128)
            );
            std::process::exit(1);
        }
        println!(
            "gate ok: speedup {}x >= {min_speedup}x at 128 rules",
            f2(speedup_at_128)
        );
    }
}
