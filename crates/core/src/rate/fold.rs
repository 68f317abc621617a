//! The cross-shard fold plane: global threshold evaluation above the shards.
//!
//! The sharded pipeline routes frames by session hash, so a caller whose
//! Call-IDs hash across `N` shards is seen only in `1/N` slices by any
//! one worker — per-shard threshold evaluation undercounts it by up to
//! `N×` and can miss it entirely. The fold plane restores the
//! single-vantage-point semantics SCIDIVE's stateful rules assume:
//! workers keep no window at all and forward each threshold observation
//! raw in their [`RateDelta`]; on a fixed capture-time cadence the
//! dispatcher collects the deltas into one [`GlobalRatePlane`] and
//! replays their union, in `(time, clause, key, item)` order, through
//! the same [`ThresholdTable`] a single engine's
//! [`crate::rules::ThresholdRule`] feeds per event.
//!
//! Same code, same order, same counts: the sharded decision *is* the
//! single-engine decision on the time-sorted stream, under any
//! partition of it, by construction. Only two things differ, and
//! neither depends on the shard count: fold alerts carry the boundary
//! time (boundaries are multiples of the fold interval in capture time,
//! see `shard.rs`) and no session.

use crate::alert::Alert;
use crate::rate::{RateDelta, RateObservation, ThresholdTable};
use crate::rules::threshold::ThresholdSpec;
use scidive_netsim::time::{SimDuration, SimTime};

/// Fold-plane knobs, part of [`crate::engine::ScidiveConfig`]. Only the
/// sharded pipeline consults them; a single engine evaluates rate
/// clauses locally regardless.
#[derive(Debug, Clone)]
pub struct FoldConfig {
    /// Whether the sharded pipeline runs the fold plane at all. Off
    /// restores the pre-fold per-shard-slice evaluation — kept as a
    /// switch so the detection-miss regression stays testable.
    pub enabled: bool,
    /// Capture-time fold cadence: shards are folded at every multiple
    /// of this interval (quantised from time zero), plus once at
    /// finish. Smaller intervals tighten detection latency; the merged
    /// alert stream stays identical either way, only its timestamps
    /// quantise differently.
    pub interval: SimDuration,
}

impl Default for FoldConfig {
    fn default() -> FoldConfig {
        FoldConfig {
            enabled: true,
            interval: SimDuration::from_secs(1),
        }
    }
}

/// Fold-plane telemetry counters, surfaced through
/// [`crate::observe::DispatchCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Fold barriers executed (including the finish fold).
    pub folds: u64,
    /// Shard deltas absorbed across all folds.
    pub deltas_absorbed: u64,
    /// Observations received across all folds.
    pub observations: u64,
    /// Observations dropped by cap eviction.
    pub evicted: u64,
    /// Alerts the global evaluation emitted.
    pub alerts: u64,
}

/// The dispatcher-resident threshold state: one [`ThresholdTable`] per
/// installed clause (see module docs).
#[derive(Debug, Default)]
pub struct GlobalRatePlane {
    clauses: Vec<(ThresholdSpec, ThresholdTable)>,
    /// Observations absorbed since the last evaluation.
    pending: Vec<RateObservation>,
    stats: FoldStats,
}

impl GlobalRatePlane {
    /// Creates an empty plane knowing no clauses; they are installed via
    /// [`GlobalRatePlane::set_clauses`].
    pub fn new() -> GlobalRatePlane {
        GlobalRatePlane::default()
    }

    /// A plane whose tables are bounded by `bytes` each instead of the
    /// product's constant cap, so tests reach eviction cheaply.
    #[cfg(test)]
    pub(crate) fn with_table_cap(specs: Vec<ThresholdSpec>, bytes: usize) -> GlobalRatePlane {
        GlobalRatePlane {
            clauses: specs
                .into_iter()
                .map(|spec| (spec, ThresholdTable::with_cap(bytes)))
                .collect(),
            ..GlobalRatePlane::default()
        }
    }

    /// Installs (or, on hot reload, replaces) the threshold clauses the
    /// global pass evaluates. A clause that survives the swap unchanged
    /// keeps its table — window history and fired flags; a changed or
    /// new clause starts empty, like its worker-side rule.
    pub fn set_clauses(&mut self, specs: Vec<ThresholdSpec>) {
        let mut old = std::mem::take(&mut self.clauses);
        self.clauses = specs
            .into_iter()
            .map(|spec| match old.iter().position(|(s, _)| *s == spec) {
                Some(i) => old.swap_remove(i),
                None => (spec, ThresholdTable::new()),
            })
            .collect();
    }

    /// Queues one shard's observations for the next evaluation. Arrival
    /// order is irrelevant: [`GlobalRatePlane::evaluate`] sorts.
    pub fn absorb(&mut self, delta: RateDelta) {
        self.stats.deltas_absorbed += 1;
        self.stats.observations += delta.observations.len() as u64;
        self.pending.extend(delta.observations);
    }

    /// Runs the global threshold pass at a fold boundary: replays the
    /// pending observations in `(time, clause, key, item)` order — the
    /// same at every shard count — through their clause's table and
    /// returns the alerts, timestamped `now`. An observation whose
    /// clause is not installed (a retired rule's) is dropped rather
    /// than guessed at.
    pub fn evaluate(&mut self, now: SimTime) -> Vec<Alert> {
        self.stats.folds += 1;
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by(|a, b| {
            (a.time, a.clause, a.key, a.item).cmp(&(b.time, b.clause, b.key, b.item))
        });
        let evicted_before = self.evicted();
        let mut alerts = Vec::new();
        for o in &pending {
            let Some((spec, table)) = self.clauses.iter_mut().find(|(s, _)| s.clause == o.clause)
            else {
                continue;
            };
            if let Some((count, distinct)) = table.observe(o.time, o.key, o.item, spec) {
                alerts.push(spec.alert_at(now, None, &o.display, count, distinct));
            }
        }
        self.stats.alerts += alerts.len() as u64;
        self.stats.evicted += self.evicted() - evicted_before;
        alerts
    }

    fn evicted(&self) -> u64 {
        self.clauses.iter().map(|(_, t)| t.evicted()).sum()
    }

    /// Fold-plane telemetry counters.
    pub fn fold_stats(&self) -> FoldStats {
        self.stats
    }

    /// Bytes the tables pin between folds.
    pub fn bytes(&self) -> u64 {
        self.clauses.iter().map(|(_, t)| t.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rate::RateHub;
    use crate::rules::builtin::{rapid_spec, RAPID_ATTEMPTS};

    fn observation(caller: &str, time: SimTime, callee: u64) -> RateObservation {
        let spec = rapid_spec();
        RateObservation {
            clause: spec.clause,
            key: RateHub::default().key(&[spec.clause.as_bytes(), caller.as_bytes()]),
            time,
            item: callee << 1,
            display: caller.to_string(),
        }
    }

    fn plane() -> GlobalRatePlane {
        let mut plane = GlobalRatePlane::new();
        plane.set_clauses(vec![rapid_spec()]);
        plane
    }

    /// `calls` fan-out calls from one caller, 100 ms apart.
    fn campaign(caller: &str, start: SimTime, calls: u64) -> Vec<RateObservation> {
        (0..calls)
            .map(|i| observation(caller, start + SimDuration::from_millis(100 * i), i))
            .collect()
    }

    /// Absorbs `observations` dealt round-robin over `shards` deltas,
    /// as a Call-ID router would spread one caller's dialogs.
    fn absorb_split(plane: &mut GlobalRatePlane, observations: &[RateObservation], shards: usize) {
        let mut deltas: Vec<RateDelta> = (0..shards).map(|_| RateDelta::default()).collect();
        for (i, o) in observations.iter().enumerate() {
            deltas[i % shards].observations.push(o.clone());
        }
        // Reverse arrival order: absorbs must commute.
        for delta in deltas.into_iter().rev() {
            plane.absorb(delta);
        }
    }

    /// The fold-plane invariant: a campaign split over 1, 2, 4 or 7
    /// deltas produces the identical global alert, although at 4 shards
    /// no slice comes near the threshold — and the alert carries the
    /// counts the single engine would print, at the boundary's time.
    #[test]
    fn global_evaluation_is_shard_count_invariant() {
        assert!(14u32.div_ceil(4) < RAPID_ATTEMPTS);
        let calls = campaign("sip:spammer@lab", SimTime::ZERO, 14);
        let boundary = SimTime::from_secs(2);
        let expected = rapid_spec().alert_at(
            boundary,
            None,
            "sip:spammer@lab",
            RAPID_ATTEMPTS,
            RAPID_ATTEMPTS,
        );
        for shards in [1usize, 2, 4, 7] {
            let mut plane = plane();
            absorb_split(&mut plane, &calls, shards);
            assert_eq!(plane.evaluate(boundary), vec![expected.clone()], "{shards} shards");
        }
    }

    /// One alert per campaign across folds, and an identity
    /// `set_clauses` (a hot reload that keeps the clause) preserves the
    /// window and the fired flag mid-campaign.
    #[test]
    fn fires_once_per_campaign_across_folds_and_swaps() {
        let mut plane = plane();
        absorb_split(&mut plane, &campaign("sip:spammer@lab", SimTime::ZERO, 8), 2);
        assert!(plane.evaluate(SimTime::from_secs(1)).is_empty());
        plane.set_clauses(vec![rapid_spec()]);
        absorb_split(
            &mut plane,
            &campaign("sip:spammer@lab", SimTime::from_secs(1), 8),
            2,
        );
        assert_eq!(plane.evaluate(SimTime::from_secs(2)).len(), 1);
        plane.set_clauses(vec![rapid_spec()]);
        absorb_split(
            &mut plane,
            &campaign("sip:spammer@lab", SimTime::from_secs(2), 14),
            2,
        );
        assert!(plane.evaluate(SimTime::from_secs(4)).is_empty(), "re-alerted");
        assert!(plane.bytes() > 0);
        let s = plane.fold_stats();
        assert_eq!((s.folds, s.alerts, s.observations, s.evicted), (3, 1, 30, 0));
    }

    /// A changed clause starts from an empty table; an observation for
    /// a clause the plane does not know is dropped, not guessed at.
    #[test]
    fn changed_clause_starts_fresh_and_unknown_clause_is_dropped() {
        let mut plane = plane();
        absorb_split(&mut plane, &campaign("sip:spammer@lab", SimTime::ZERO, 11), 1);
        assert!(plane.evaluate(SimTime::from_secs(2)).is_empty());
        plane.set_clauses(vec![ThresholdSpec {
            count_threshold: RAPID_ATTEMPTS + 1,
            ..rapid_spec()
        }]);
        absorb_split(
            &mut plane,
            &campaign("sip:spammer@lab", SimTime::from_secs(2), 11),
            1,
        );
        assert!(plane.evaluate(SimTime::from_secs(4)).is_empty());

        let mut empty = GlobalRatePlane::new();
        absorb_split(&mut empty, &campaign("sip:spammer@lab", SimTime::ZERO, 14), 1);
        assert!(empty.evaluate(SimTime::from_secs(2)).is_empty());
        assert_eq!(empty.bytes(), 0);
    }
}
