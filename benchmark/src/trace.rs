//! In-memory span recorder for the traced passes.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! (around the public call into the layer), never inside the product.
//! Every span feeds an aggregate; one frame in [`SAMPLE_EVERY`] also
//! keeps its full spans (frame sequence number as the shared id, the
//! `frame` span as parent) so a trace file shows real frames without
//! holding a span per stage per frame. Nothing is written until the
//! pass is over.

use serde_json::Value;
use std::time::Instant;

/// One frame in this many keeps its full spans.
pub const SAMPLE_EVERY: u64 = 256;

/// The layer boundaries a span can sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One frame through the whole inline composition (parent span).
    Frame,
    Distill,
    Trail,
    Event,
    Rules,
    /// Dispatcher-side `SessionRouter::route` probe.
    Route,
    /// One `ShardedScidive::submit` call.
    Submit,
    /// The `ShardedScidive::finish` call.
    Finish,
}

impl Stage {
    const ALL: [Stage; 8] = [
        Stage::Frame,
        Stage::Distill,
        Stage::Trail,
        Stage::Event,
        Stage::Rules,
        Stage::Route,
        Stage::Submit,
        Stage::Finish,
    ];
    const COUNT: usize = Stage::ALL.len();

    pub fn name(self) -> &'static str {
        match self {
            Stage::Frame => "frame",
            Stage::Distill => "distill",
            Stage::Trail => "trail",
            Stage::Event => "event",
            Stage::Rules => "rules",
            Stage::Route => "route",
            Stage::Submit => "submit",
            Stage::Finish => "finish",
        }
    }

    fn parent(self) -> Option<Stage> {
        match self {
            Stage::Distill | Stage::Trail | Stage::Event | Stage::Rules => Some(Stage::Frame),
            _ => None,
        }
    }
}

/// Count and total time of every span of one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aggregate {
    pub count: u64,
    pub total_ns: u64,
}

impl Aggregate {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    stage: Stage,
    frame: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder for one pass.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    aggregates: [Aggregate; Stage::COUNT],
    spans: Vec<Span>,
    /// Duration of every frame-level span (`Frame` or `Submit`), for the
    /// latency percentiles.
    pub frame_ns: Vec<u32>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            aggregates: [Aggregate::default(); Stage::COUNT],
            spans: Vec::new(),
            frame_ns: Vec::new(),
        }
    }

    /// Records one span of `stage` belonging to frame `frame`.
    #[inline]
    pub fn span(&mut self, stage: Stage, frame: u64, start: Instant, end: Instant) -> u64 {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.aggregates[stage as usize].add(ns);
        if frame.is_multiple_of(SAMPLE_EVERY) {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                stage,
                frame,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        ns
    }

    pub fn aggregate(&self, stage: Stage) -> Aggregate {
        self.aggregates[stage as usize]
    }

    /// The `q`-quantile of the frame-level spans in nanoseconds, and how
    /// many samples lie beyond it.
    pub fn frame_quantile(&mut self, q: f64) -> (u64, usize) {
        if self.frame_ns.is_empty() {
            return (0, 0);
        }
        self.frame_ns.sort_unstable();
        let idx = ((self.frame_ns.len() - 1) as f64 * q).round() as usize;
        (u64::from(self.frame_ns[idx]), self.frame_ns.len() - 1 - idx)
    }

    /// Aggregates and sampled spans as JSON.
    pub fn to_json(&self) -> Value {
        let aggregates = Stage::ALL
            .into_iter()
            .filter(|s| self.aggregate(*s).count > 0)
            .map(|s| {
                let a = self.aggregate(s);
                (
                    s.name().to_string(),
                    Value::Map(vec![
                        ("count".to_string(), Value::U64(a.count)),
                        ("total_ns".to_string(), Value::U64(a.total_ns)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(s.stage.name().to_string())),
                    ("frame".to_string(), Value::U64(s.frame)),
                    (
                        "parent".to_string(),
                        s.stage
                            .parent()
                            .map_or(Value::Null, |p| Value::Str(p.name().to_string())),
                    ),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("sample_every".to_string(), Value::U64(SAMPLE_EVERY)),
            ("aggregates".to_string(), Value::Map(aggregates)),
            ("spans".to_string(), Value::Seq(spans)),
        ])
    }
}

/// Cost of one `Instant::now()` in nanoseconds, measured here so stage
/// sums can be reported net of the clock reads that delimit them.
pub fn timer_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..N {
        last = std::hint::black_box(Instant::now());
    }
    last.duration_since(start).as_nanos() as f64 / f64::from(N)
}
