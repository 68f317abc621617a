//! scidive-perf command line. See README.md.
//!
//! With `--workload` this process measures that one workload and prints
//! the driver's result line last. Without it, it runs every workload —
//! each in a child process of its own, one after another — and writes
//! `out/results.json`.

use scidive_perf::gen::{self, Spec, Workload, WORKLOADS};
use scidive_perf::report::{field, map, MetricDef, END_TO_END, PER_LAYER};
use scidive_perf::run::{self, Budget, Outcome};
use scidive_perf::{alloc, sut};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of BENCHMARK.json, for runs that do not say.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--quick` shrinks every workload by this much.
const QUICK_DIVISOR: u32 = 50;

const USAGE: &str = "usage: scidive-perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--reps N] [--out DIR] [--quick] [--check-repeat]
  --workload NAME   measure one of sig_steady, media_steady, state_scale, attack_mix
                    in this process (default: all four, each in a child process)
  --seed N          workload seed (default 1)
  --seconds S       keep repeating passes for S seconds (default 20)
  --trace 0|1       0: end-to-end metrics, tracing off; 1: per-layer metrics, traced
                    (default: both, end-to-end first)
  --reps N          exactly N repetitions instead of a time budget
  --out DIR         where results and traces go (default benchmark/out)
  --quick           every workload at 1/50 scale, one repetition: a smoke run
  --check-repeat    run the end-to-end set twice, print each metric's spread beside
                    its bound, exit non-zero if any spread exceeds its bound";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    reps: Option<usize>,
    out: PathBuf,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        reps: None,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        quick: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--reps" => {
                let n: usize = value("a number")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                args.reps = Some(n);
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick && args.reps.is_none() {
        args.reps = Some(1);
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("scidive-perf: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.workload {
        Some(name) => single(&args, name),
        None if args.check_repeat => check_repeat(&args),
        None => suite(&args),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("scidive-perf: {msg}");
            ExitCode::FAILURE
        }
    }
}

// ----------------------------------------------------------------------
// One workload in this process
// ----------------------------------------------------------------------

fn workload_header(w: &Workload) -> Value {
    let s = &w.stats;
    map(vec![
        ("workload", Value::Str(w.spec.name.to_string())),
        ("why", Value::Str(w.spec.why.to_string())),
        ("seed", Value::U64(w.seed)),
        ("frames", Value::U64(s.frames)),
        ("bytes", Value::U64(s.bytes)),
        ("capture_s", Value::F64(s.capture_s)),
        (
            "class_mix",
            map(vec![
                ("sip", Value::U64(s.sip)),
                ("rtp", Value::U64(s.rtp)),
                ("rtcp", Value::U64(s.rtcp)),
                ("acct", Value::U64(s.acct)),
                ("other", Value::U64(s.other)),
            ]),
        ),
        ("fingerprint", Value::Str(format!("{:016x}", s.fingerprint))),
        (
            "retention",
            map(vec![
                ("trail_idle_ms", Value::U64(w.spec.retention_ms)),
                ("session_ms", Value::U64(w.spec.retention_ms)),
                ("identity_s", Value::U64(sut::IDENTITY_TIMEOUT_S)),
                (
                    "max_footprints_per_trail",
                    Value::U64(sut::MAX_FOOTPRINTS_PER_TRAIL as u64),
                ),
            ]),
        ),
        ("materialise_s", Value::F64(s.materialise_s)),
    ])
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("the stub serialiser is total");
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Measures one workload and prints the result line last. Exits 0 when
/// the run completed, whatever its verdict: correctness travels in the
/// result line.
fn single(args: &Args, name: &str) -> Result<ExitCode, String> {
    let spec = Spec::named(name).expect("validated by parse_args");
    let spec = if args.quick {
        spec.shrunk(QUICK_DIVISOR)
    } else {
        spec
    };
    // Input is generated, sorted and fingerprinted before any clock starts.
    let w = gen::generate(&spec, args.seed);
    let header = workload_header(&w);
    let s = &w.stats;
    println!(
        "{name} seed {}: {} frames, {:.0} B/frame, sip {:.4} rtp {:.4}, {:.1} s of capture, \
         {} injected attacks, fingerprint {:016x}, generated in {:.2} s",
        args.seed,
        s.frames,
        s.bytes as f64 / s.frames as f64,
        s.sip as f64 / s.frames as f64,
        s.rtp as f64 / s.frames as f64,
        s.capture_s,
        w.attacks.len(),
        s.fingerprint,
        s.materialise_s,
    );
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let budget = Budget {
        seconds: args.seconds,
        reps: args.reps,
    };
    // `--trace` unset means both, end-to-end first; the result line is
    // then the end-to-end one.
    let mut last_line = String::new();
    for traced in [false, true] {
        if args.trace.is_some_and(|t| t != traced) {
            continue;
        }
        let (outcome, defs, kind): (Outcome, &[MetricDef], &str) = if traced {
            (run::per_layer(&w, budget), &PER_LAYER, "layers")
        } else {
            (run::end_to_end(&w, budget), &END_TO_END, "e2e")
        };
        println!("{name} {kind}:");
        outcome.metrics.print(defs);
        if !outcome.exact.is_empty() {
            println!("exact {name} {}", outcome.exact);
        }
        println!(
            "{name} {kind}: {} checked, {} failed, {} shard(s)",
            outcome.attempted,
            outcome.failed,
            sut::shard_count()
        );
        for line in &outcome.failures {
            println!("  FAILED {line}");
        }
        write_json(
            &args.out.join(format!("{kind}-{name}.json")),
            &map(vec![
                ("header", header.clone()),
                ("facts", outcome.facts.clone()),
                ("attempted", Value::U64(outcome.attempted)),
                ("failed", Value::U64(outcome.failed)),
                (
                    "failures",
                    Value::Seq(outcome.failures.iter().cloned().map(Value::Str).collect()),
                ),
                ("metrics", outcome.metrics.to_json(defs)),
            ]),
        )?;
        if let Some(dump) = &outcome.trace {
            write_json(&args.out.join(format!("trace-{name}.json")), dump)?;
        }
        if last_line.is_empty() {
            last_line = outcome.result_line(defs);
        }
    }
    println!("{last_line}");
    Ok(ExitCode::SUCCESS)
}

// ----------------------------------------------------------------------
// All workloads, one child process each
// ----------------------------------------------------------------------

/// What a child's standard output said.
#[derive(Debug)]
struct ChildResult {
    result: Value,
    exact: String,
}

/// Runs this executable on one workload, echoes what it prints, and
/// parses its result line. The child has ended when this returns.
fn run_child(args: &Args, name: &str, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(n) = args.reps {
        cmd.args(["--reps", &n.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("child for {name} exited with {}", output.status));
    }
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("child for {name}: bad result line: {e}"))?;
    let exact = lines
        .iter()
        .find_map(|l| l.strip_prefix("exact "))
        .unwrap_or_default()
        .to_string();
    Ok(ChildResult { result, exact })
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    field(field(field(result, "metrics")?, name)?, "value")?.as_f64()
}

fn failed(result: &Value) -> u64 {
    field(result, "failed")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX)
}

/// First line of a command's output, or `unknown`.
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, end-to-end then per-layer, each in its own child;
/// writes `out/results.json`. Exits non-zero if any check failed.
fn suite(args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let header = map(vec![
        (
            "commit",
            Value::Str(tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Value::Str(tool_line("rustc", &["-V"]))),
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("shards", Value::U64(sut::shard_count() as u64)),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("quick", Value::Bool(args.quick)),
    ]);
    println!(
        "scidive-perf: {}",
        serde_json::to_string(&header).expect("total")
    );
    let mut workloads = Vec::new();
    let mut any_failed = false;
    let mut inline_fps = Vec::new();
    for name in WORKLOADS {
        let e2e = run_child(args, name, false)?;
        let layers = run_child(args, name, true)?;
        any_failed |= failed(&e2e.result) > 0 || failed(&layers.result) > 0;
        inline_fps.push((name, metric(&e2e.result, "inline_frames_per_s")));
        workloads.push((
            name,
            map(vec![
                ("end_to_end", e2e.result),
                ("per_layer", layers.result),
            ]),
        ));
    }
    // The capacity slope on one workload shape: same generator, ten
    // times the live state.
    let fps = |w: &str| {
        inline_fps
            .iter()
            .find(|(n, _)| *n == w)
            .and_then(|(_, v)| *v)
    };
    let scale_ratio = match (fps("state_scale"), fps("sig_steady")) {
        (Some(big), Some(small)) if small > 0.0 => big / small,
        _ => 0.0,
    };
    println!(
        "derived:\n  {:<34} {scale_ratio:>16.4} ratio",
        "engine.scale_ratio"
    );
    write_json(
        &args.out.join("results.json"),
        &map(vec![
            ("header", header),
            ("workloads", map(workloads)),
            (
                "derived",
                map(vec![("engine.scale_ratio", Value::F64(scale_ratio))]),
            ),
        ]),
    )?;
    println!("wrote {}", args.out.join("results.json").display());
    Ok(if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Two end-to-end sets back to back on the same seed: every metric's
/// spread (distance between the two readings over their mean) must stay
/// inside its bound, and everything deterministic must repeat exactly.
fn check_repeat(args: &Args) -> Result<ExitCode, String> {
    let mut ok = true;
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "spread", "bound"
    );
    for name in WORKLOADS {
        let a = run_child(args, name, false)?;
        let b = run_child(args, name, false)?;
        ok &= failed(&a.result) == 0 && failed(&b.result) == 0;
        for def in END_TO_END {
            let (Some(x), Some(y)) = (metric(&a.result, def.name), metric(&b.result, def.name))
            else {
                return Err(format!("{name}: result line lacks {}", def.name));
            };
            let spread = (x - y).abs() / ((x + y) / 2.0);
            let bound = def.bound.expect("end-to-end metrics are bounded");
            let verdict = if spread <= bound { "" } else { "  EXCEEDS" };
            ok &= spread <= bound;
            println!(
                "{name:<14} {:<22} {x:>14.4} {y:>14.4} {spread:>8.4} {bound:>7.2}{verdict}",
                def.name
            );
        }
        if a.exact != b.exact {
            ok = false;
            println!(
                "{name:<14} deterministic values differ:\n  {}\n  {}",
                a.exact, b.exact
            );
        }
    }
    println!("check-repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
