//! Operator rules from `.scid` files, hot-swapped onto a live sharded
//! pipeline.
//!
//! The run starts with the built-in ruleset only, replays a forged-BYE
//! attack capture, and mid-run — without stopping the pipeline — swaps
//! in the operator rules from a `.scid` file. The swap rides the same
//! FIFO barrier as the periodic rate fold, so it lands at the same
//! frame boundary on every shard and the attack detections that were
//! mid-sequence survive the install.
//!
//! ```sh
//! cargo run --example dsl_rules                         # default rules file
//! cargo run --example dsl_rules -- examples/rules/predicates.scid
//! cargo run --example dsl_rules -- --check              # compile-gate every .scid
//! ```
//!
//! `--check` compiles every program under `examples/rules/`, and the
//! builtin ruleset `crates/core/src/rules/builtin.scid`, with warnings
//! denied — the CI gate for the shipped rule files.

use scidive::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn rules_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/rules")
}

/// Compiles every `.scid` file under `examples/rules/` and the builtin
/// program, treating validator warnings as errors. Returns failure if
/// any file has a diagnostic.
fn check_all() -> ExitCode {
    let mut failed = false;
    let mut entries: Vec<PathBuf> = std::fs::read_dir(rules_dir())
        .expect("examples/rules exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scid"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no .scid files under examples/rules/");
    entries.push(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/rules/builtin.scid"));
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("rule file is readable");
        match Program::check(&src) {
            Err(err) => {
                eprintln!("{}: FAILED\n{}", path.display(), err.render(&src));
                failed = true;
            }
            Ok((_, warnings)) if !warnings.is_empty() => {
                for w in &warnings {
                    eprintln!("{}: warning\n{}", path.display(), w.render(&src));
                }
                failed = true;
            }
            Ok((program, _)) => {
                println!("ok  {} ({} rules)", path.display(), program.rules.len());
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--check") {
        return check_all();
    }
    let rules_file = arg.map_or_else(|| rules_dir().join("teardown.scid"), PathBuf::from);

    // Capture a forged-BYE attack on the Fig-4 testbed.
    let mut tb = TestbedBuilder::new(42)
        .standard_call(SimDuration::from_millis(500), None)
        .build();
    let ep = tb.endpoints.clone();
    let collector = Collector::new();
    let tap = collector.handle();
    tb.add_node("capture", ep.tap_ip, LinkParams::lan(), Box::new(collector));
    tb.add_node(
        "attacker",
        ep.attacker_ip,
        LinkParams::lan(),
        Box::new(ByeAttacker::new(ByeAttackConfig::new(
            ep.attacker_ip,
            ep.a_ip,
            ep.b_ip,
            SimDuration::from_secs(1),
        ))),
    );
    tb.run_for(SimDuration::from_secs(5));
    let frames = tap.borrow().clone();

    // A sharded pipeline booted with the built-in ruleset only.
    let mut config = ScidiveConfig::default();
    config.events.infrastructure_ips = vec![ep.proxy_ip, ep.acct_ip];
    let mut ids = ShardedScidive::new(config, 4, 64);

    // Replay; at 500ms of capture time, hot-swap the operator rules in.
    let source = RulesetSource::DslFile(rules_file.clone());
    let swap_at = frames
        .iter()
        .position(|f| f.time >= SimTime::ZERO + SimDuration::from_millis(500))
        .unwrap_or(0);
    for (i, f) in frames.iter().enumerate() {
        if i == swap_at {
            match ids.swap_ruleset(&source) {
                Ok(generation) => println!(
                    "[{}] installed {} (generation {generation})",
                    f.time,
                    rules_file.display()
                ),
                Err(e) => {
                    eprintln!("swap rejected, keeping the running ruleset: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        ids.submit(f.time, &f.packet);
    }

    let report = ids.finish();
    println!(
        "\n{} frames, {} alerts, {} swaps, generation {}",
        report.stats.frames,
        report.alerts.len(),
        report.observation.dispatch.ruleset_swaps,
        report.observation.gauges.ruleset_generation,
    );
    for alert in &report.alerts {
        println!("  {alert}");
    }
    ExitCode::SUCCESS
}
