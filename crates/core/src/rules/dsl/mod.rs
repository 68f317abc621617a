//! The operator rule DSL: text programs compiled to runtime rules.
//!
//! The paper positions SCIDIVE as configurable — it "can, without
//! substantial system customization, be extended for detecting new
//! classes of attacks", with accuracy "a function of the input rule
//! base". This module is that rule base as *compiled artifacts*: a
//! small declarative language (in the lineage of SecSip's stateful SIP
//! protection specifications) whose programs lower onto the exact same
//! runtime structs the built-in rules use, so declaring a rule and
//! hand-writing it are indistinguishable at runtime. The paper's own
//! detections are a program in it (`rules/builtin.scid`).
//!
//! ```text
//! # Teardown followed by orphan media within half a second.
//! rule ops-bye severity critical window 500ms {
//!     sequence CallTornDown, OrphanRtpAfterBye
//! }
//!
//! # Field predicates narrow a match (any-of / match clauses only); the
//! # description opens the alert message, the flags are Table 1's columns.
//! rule big-jump severity warning cross-protocol stateful
//!     description "RTP sequence jumped far" {
//!     any-of RtpSeqViolation(delta >= 5000)
//! }
//!
//! # Caller-keyed fan-out threshold, evaluated globally under sharding.
//! rule spit severity critical {
//!     threshold CallEstablished by caller count >= 12
//!         distinct callee >= 8 within 60s
//!         emit "caller {key}: {count} calls, {distinct} callees in {window}s"
//! }
//! ```
//!
//! Pipeline: [`lexer`] → [`parser`] (spanned AST) → [`validator`]
//! (class/field/type resolution, bounds, warnings) → [`compiler`]
//! (lowering). [`Program::parse`] runs the first three; a validated
//! program compiles infallibly. Each rule's [`crate::rules::RuleInterest`]
//! is *derived* from the classes its clause names — never declared —
//! so compiled dispatch stays sound by construction.

pub mod ast;
mod compiler;
mod lexer;
mod parser;
mod printer;
mod validator;

pub use ast::Program;
pub use compiler::{compile_program, threshold_specs};
pub use printer::print_program;

use crate::alert::Severity;
use scidive_netsim::time::SimDuration;
use std::fmt;

/// A compile-time error or warning, anchored to the operator's source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// Length of the offending region in characters.
    pub len: usize,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when there is a concrete suggestion.
    pub hint: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)?;
        if let Some(hint) = &self.hint {
            write!(f, " (hint: {hint})")?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

impl Diagnostic {
    /// Renders the diagnostic with a caret line against `src`, the way
    /// a compiler would:
    ///
    /// ```text
    /// error: unknown event class `NotAClass`
    ///  --> line 2
    ///   |     sequence NotAClass
    ///   |              ^^^^^^^^^
    ///   = hint: one of: CallEstablished, ...
    /// ```
    pub fn render(&self, src: &str) -> String {
        let mut out = format!("error: {}\n --> line {}\n", self.message, self.line);
        if let Some(line) = src.lines().nth(self.line.saturating_sub(1)) {
            out.push_str("  | ");
            out.push_str(line);
            out.push_str("\n  | ");
            for _ in 1..self.col {
                out.push(' ');
            }
            for _ in 0..self.len.max(1) {
                out.push('^');
            }
            out.push('\n');
        }
        if let Some(hint) = &self.hint {
            out.push_str("  = hint: ");
            out.push_str(hint);
            out.push('\n');
        }
        out
    }
}

pub(crate) fn parse_severity(word: &str) -> Option<Severity> {
    match word.to_ascii_lowercase().as_str() {
        "info" => Some(Severity::Info),
        "warning" | "warn" => Some(Severity::Warning),
        "critical" | "crit" => Some(Severity::Critical),
        _ => None,
    }
}

pub(crate) fn severity_name(severity: Severity) -> &'static str {
    match severity {
        Severity::Info => "info",
        Severity::Warning => "warning",
        Severity::Critical => "critical",
    }
}

pub(crate) fn parse_duration(word: &str) -> Option<SimDuration> {
    if let Some(ms) = word.strip_suffix("ms") {
        return ms.parse::<u64>().ok().map(SimDuration::from_millis);
    }
    if let Some(s) = word.strip_suffix('s') {
        return s.parse::<u64>().ok().map(SimDuration::from_secs);
    }
    None
}

pub(crate) fn duration_text(d: SimDuration) -> String {
    let micros = d.as_micros();
    if micros.is_multiple_of(1_000_000) {
        format!("{}s", micros / 1_000_000)
    } else {
        format!("{}ms", micros / 1_000)
    }
}

impl Program {
    /// Parses and validates a program, dropping any warnings. The first
    /// error (lexical, syntactic, or semantic) aborts with its
    /// [`Diagnostic`].
    ///
    /// # Errors
    ///
    /// Returns the first [`Diagnostic`] the pipeline produces.
    pub fn parse(src: &str) -> Result<Program, Diagnostic> {
        Program::check(src).map(|(p, _)| p)
    }

    /// Parses and validates a program, returning the validator's
    /// warnings alongside it (for `--deny-warnings` tooling).
    ///
    /// # Errors
    ///
    /// Returns the first [`Diagnostic`] the pipeline produces.
    pub fn check(src: &str) -> Result<(Program, Vec<Diagnostic>), Diagnostic> {
        let program = parser::parse(src)?;
        let warnings = validator::validate(&program)?;
        Ok((program, warnings))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventClass;

    #[test]
    fn parses_validates_and_compiles_every_clause_kind() {
        let src = r#"
rule ops-seq severity critical window 500ms {
    sequence CallTornDown, OrphanRtpAfterBye
}
rule ops-combo severity warning window 2s {
    all-of SipMalformed, AcctMismatch
}
rule ops-any {
    any-of RtpSeqViolation(delta >= 5000), MediaPortGarbage
}
rule ops-spit {
    threshold CallEstablished by caller count >= 12 distinct callee >= 8 within 60s
}
"#;
        let (program, warnings) = Program::check(src).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        let rules = compile_program(&program);
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].id(), "ops-seq");
        assert_eq!(rules[3].id(), "ops-spit");
        assert!(rules[2].interests().contains(EventClass::RtpSeqViolation));
        assert!(!rules[2].interests().contains(EventClass::CallTornDown));
        let specs = threshold_specs(&program);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].clause, "ops-spit");
    }

    #[test]
    fn compiled_sequence_rule_fires_at_its_severity() {
        use crate::alert::Severity;
        use crate::event::{Event, EventKind, FlowKey};
        use crate::rules::{collect_alerts, RuleCtx};
        use crate::trail::{SessionKey, TrailStore, TrailStoreConfig};
        use scidive_netsim::time::SimTime;
        use std::net::Ipv4Addr;

        let program = Program::parse(
            "rule demo-seq severity warning window 500ms {\n\
             \tsequence CallTornDown, OrphanRtpAfterBye\n\
             }\n",
        )
        .unwrap();
        let mut rules = compile_program(&program);
        let store = TrailStore::new(TrailStoreConfig::default());
        let rates = crate::rate::RateHub::default();
        let ctx = RuleCtx {
            now: SimTime::from_millis(5),
            trails: &store,
            rates: &rates,
        };
        let session = Some(SessionKey::new("c1"));
        let torn = Event {
            time: SimTime::from_millis(1),
            session: session.clone(),
            kind: EventKind::CallTornDown {
                by_aor: "bob@lab".to_string(),
                by_media_ip: None,
            },
        };
        let orphan = Event {
            time: SimTime::from_millis(2),
            session,
            kind: EventKind::OrphanRtpAfterBye {
                flow: FlowKey {
                    src: Ipv4Addr::new(10, 0, 0, 3),
                    dst: Ipv4Addr::new(10, 0, 0, 2),
                    dst_port: 8000,
                },
                gap: SimDuration::from_millis(1),
                bye: crate::event::ByeOrigin {
                    claimed_aor: Some("bob@lab".to_string()),
                    src_ip: Ipv4Addr::new(10, 0, 0, 66),
                    cseq: Some(101),
                },
            },
        };
        assert!(collect_alerts(rules[0].as_mut(), &torn, &ctx).is_empty());
        let alerts = collect_alerts(rules[0].as_mut(), &orphan, &ctx);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "demo-seq");
        assert_eq!(alerts[0].severity, Severity::Warning);
    }

    #[test]
    fn header_items_reach_the_compiled_rule() {
        let program = Program::parse(
            "rule told stateful description \"media after teardown\" cross-protocol {\n\
             \tany-of OrphanRtpAfterBye\n\
             }\n\
             rule bare { all-of SipMalformed, AcctMismatch }\n",
        )
        .unwrap();
        let rules = compile_program(&program);
        assert_eq!(rules[0].description(), "media after teardown");
        assert!(rules[0].is_cross_protocol() && rules[0].is_stateful());
        assert_eq!(rules[1].description(), "operator-defined rule `bare`");
        assert!(!rules[1].is_cross_protocol() && !rules[1].is_stateful());
    }

    #[test]
    fn comments_and_blank_lines_compile_to_nothing() {
        let program = Program::parse("# nothing here\n\n# still nothing\n").unwrap();
        assert!(compile_program(&program).is_empty());
    }

    #[test]
    fn print_is_a_fixed_point_over_reparse() {
        let src = "rule a severity warning { any-of SipMalformed }\n\
                   rule b { sequence CallTornDown, OrphanRtpAfterBye }\n";
        let p1 = Program::parse(src).unwrap();
        let s1 = print_program(&p1);
        let p2 = Program::parse(&s1).unwrap();
        let s2 = print_program(&p2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn dsl_rapid_connect_twin_compiles_to_the_builtin_spec() {
        let src = r#"
rule rapid-connect severity critical {
    threshold CallEstablished by caller count >= 12 distinct callee >= 8 within 60s
        emit "rapid connections: caller {key} established {count} calls to {distinct} distinct callees within {window}s"
}
"#;
        let program = Program::parse(src).unwrap();
        let specs = threshold_specs(&program);
        assert_eq!(specs, vec![crate::rules::rapid_spec()]);
    }

    #[test]
    fn render_carets_the_offending_token() {
        let src = "rule broken {\n    sequence NotAClass\n}\n";
        let err = Program::parse(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("NotAClass"));
        assert!(rendered.contains("^^^^^^^^^"));
    }
}
