//! Output checks against the generator's ground truth.
//!
//! A run is correct when every injected attack raised its rule on its
//! session (or, for session-less rules, naming its attacker) no later
//! than the frame that completes the pattern, no Critical alert is left
//! unexplained, and the sharded and inline alert streams agree.

use crate::gen::{Attack, AttackKind};
use scidive_core::alert::{Alert, Severity};
use scidive_netsim::time::SimDuration;

/// What the alert stream says about the injected attacks.
#[derive(Debug, Default)]
pub struct Verdict {
    pub expected: u64,
    /// Attacks with no matching alert.
    pub missing: Vec<String>,
    /// Attacks whose first matching alert came after the pattern was
    /// complete (plus `slack` for fold-plane rules).
    pub late: Vec<String>,
    /// Critical alerts that match no injected attack.
    pub unexplained: Vec<String>,
    /// Capture-time delay from each detected attack's first malicious
    /// frame to its first matching alert, in milliseconds.
    pub delays_ms: Vec<f64>,
}

impl Verdict {
    pub fn failures(&self) -> u64 {
        (self.missing.len() + self.late.len() + self.unexplained.len()) as u64
    }
}

fn matches(attack: &Attack, alert: &Alert) -> bool {
    if alert.rule != attack.kind.rule() {
        return false;
    }
    match &attack.session {
        Some(id) => alert.session.as_ref().is_some_and(|s| s.as_str() == id),
        None => alert.message.contains(&attack.marker),
    }
}

/// Checks `alerts` against `attacks`. `fold_slack` is how much later
/// than pattern completion a fold-plane rule (rapid-connect) may fire:
/// zero for an inline engine, one fold interval for the sharded pipeline.
pub fn verdict(attacks: &[Attack], alerts: &[Alert], fold_slack: SimDuration) -> Verdict {
    let mut v = Verdict {
        expected: attacks.len() as u64,
        ..Verdict::default()
    };
    let mut explained = vec![false; alerts.len()];
    for attack in attacks {
        let mut first = None;
        for (i, alert) in alerts.iter().enumerate() {
            if matches(attack, alert) {
                explained[i] = true;
                first.get_or_insert(alert);
            }
        }
        let label = format!(
            "{} at {:.3}s ({})",
            attack.kind.rule(),
            attack.first_frame.as_micros() as f64 / 1e6,
            attack.session.as_deref().unwrap_or(&attack.marker)
        );
        let Some(alert) = first else {
            v.missing.push(label);
            continue;
        };
        let slack = if attack.kind == AttackKind::RapidConnect {
            fold_slack
        } else {
            SimDuration::from_micros(0)
        };
        if alert.time > attack.complete_at + slack {
            v.late.push(format!(
                "{label}: alert at {:.3}s, pattern complete at {:.3}s",
                alert.time.as_micros() as f64 / 1e6,
                attack.complete_at.as_micros() as f64 / 1e6
            ));
        }
        v.delays_ms.push(
            alert
                .time
                .saturating_since(attack.first_frame)
                .as_millis_f64(),
        );
    }
    for (alert, explained) in alerts.iter().zip(explained) {
        if alert.severity == Severity::Critical && !explained {
            v.unexplained.push(alert.to_string());
        }
    }
    v
}

/// Who a rapid-connect alert names; its counts and timestamp depend on
/// where the clause was evaluated (locally per event, or at a fold
/// boundary), its subject does not.
fn rapid_subject(alert: &Alert) -> &str {
    alert
        .message
        .split(" established")
        .next()
        .unwrap_or(&alert.message)
}

/// Number of differences between the sharded and the inline alert
/// stream: every alert but rapid-connect must be identical and in the
/// same order; rapid-connect alerts must name the same callers.
pub fn stream_differences(sharded: &[Alert], inline: &[Alert]) -> u64 {
    let is_rapid = |a: &&Alert| a.rule == AttackKind::RapidConnect.rule();
    let a: Vec<&Alert> = sharded.iter().filter(|a| !is_rapid(a)).collect();
    let b: Vec<&Alert> = inline.iter().filter(|a| !is_rapid(a)).collect();
    let mut differences = a.len().abs_diff(b.len()) as u64;
    differences += a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
    let mut ra: Vec<&str> = sharded.iter().filter(is_rapid).map(rapid_subject).collect();
    let mut rb: Vec<&str> = inline.iter().filter(is_rapid).map(rapid_subject).collect();
    ra.sort_unstable();
    rb.sort_unstable();
    if ra != rb {
        differences += ra.len().abs_diff(rb.len()).max(1) as u64;
    }
    differences
}
