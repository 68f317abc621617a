//! Lowering a validated [`Program`] onto the runtime rule types.
//!
//! Each clause compiles to the *same* struct its hand-written twin
//! uses — `sequence` to [`SequenceRule`], `all-of` to
//! [`CombinationRule`], `any-of` to [`PredicateRule`], `threshold` to
//! [`ThresholdRule`] — so a DSL rule and a Rust rule built with the
//! same parameters are indistinguishable at runtime: same alert bytes,
//! same derived [`crate::rules::RuleInterest`], same state signature
//! (which is what lets hot reload adopt state across a Rust→DSL swap).
//!
//! Compilation is infallible by construction: the validator has already
//! proved every resolution this module performs.

use super::ast::{ClassSpec, Clause, Program, RuleDecl, ValueAst};
use crate::alert::Severity;
use crate::event::EventClass;
use crate::rules::combo::{CombinationRule, SequenceRule};
use crate::rules::predicate::{ClassMatcher, FieldPredicate, PredValue, PredicateRule};
use crate::rules::threshold::{intern, ThresholdRule, ThresholdSpec};
use crate::rules::{Rule, RuleInfo};
use scidive_netsim::time::SimDuration;

/// Default header values, matching the historical spec format.
const DEFAULT_SEVERITY: Severity = Severity::Critical;
const DEFAULT_WINDOW: SimDuration = SimDuration::from_secs(60);

fn class_of(spec_name: &str) -> EventClass {
    EventClass::parse_name(spec_name).expect("validator resolved every class")
}

fn classes_of(specs: &[ClassSpec]) -> Vec<EventClass> {
    specs.iter().map(|s| class_of(&s.class.node)).collect()
}

fn matchers_of(specs: &[ClassSpec]) -> Vec<ClassMatcher> {
    specs
        .iter()
        .map(|s| ClassMatcher {
            class: class_of(&s.class.node),
            preds: s
                .preds
                .iter()
                .map(|p| FieldPredicate {
                    field: intern(&p.field.node),
                    op: p.op.node,
                    value: match &p.value.node {
                        ValueAst::Int(i) => PredValue::Int(*i),
                        ValueAst::Str(s) => PredValue::Str(s.clone()),
                    },
                })
                .collect(),
        })
        .collect()
}

/// The spec a `threshold` rule lowers to. The clause name is the rule
/// id, so an operator rule declaring the built-in rapid-connect shape
/// compiles to a spec `==` to [`crate::rules::rapid_spec`].
fn threshold_spec_of(rule: &RuleDecl) -> Option<ThresholdSpec> {
    let Clause::Threshold(t) = &rule.clause else {
        return None;
    };
    let id = rule.id.node.as_str();
    let default_template = match t.distinct {
        Some(_) => "threshold: {key} reached {count} events ({distinct} distinct) within {window}s",
        None => "threshold: {key} reached {count} events within {window}s",
    };
    Some(ThresholdSpec {
        clause: intern(id),
        class: class_of(&t.class.node),
        key_field: intern(&t.key_field.node),
        distinct_field: t.distinct.as_ref().map(|(f, _)| intern(&f.node)),
        window: t.within.node,
        count_threshold: t.count_threshold.node,
        distinct_threshold: t.distinct.as_ref().map_or(0, |(_, n)| n.node),
        severity: rule.severity.as_ref().map_or(DEFAULT_SEVERITY, |s| s.node),
        template: t
            .emit
            .as_ref()
            .map_or(default_template, |e| intern(&e.node)),
    })
}

fn compile_rule(rule: &RuleDecl) -> Box<dyn Rule> {
    let id = rule.id.node.clone();
    let severity = rule.severity.as_ref().map_or(DEFAULT_SEVERITY, |s| s.node);
    let window = rule.window.as_ref().map_or(DEFAULT_WINDOW, |w| w.node);
    let info = RuleInfo {
        description: rule.description.as_ref().map_or_else(
            || format!("operator-defined rule `{id}`"),
            |d| d.node.clone(),
        ),
        cross_protocol: rule.cross_protocol,
        stateful: rule.stateful,
    };
    match &rule.clause {
        Clause::Sequence(specs) => {
            Box::new(SequenceRule::new(id, info, classes_of(specs), window).with_severity(severity))
        }
        Clause::AllOf(specs) => Box::new(
            CombinationRule::new(id, info, classes_of(specs), window).with_severity(severity),
        ),
        Clause::AnyOf(specs) => {
            Box::new(PredicateRule::new(id, info, matchers_of(specs), severity))
        }
        Clause::Threshold(_) => Box::new(ThresholdRule::new(
            threshold_spec_of(rule).expect("clause is a threshold"),
            info,
        )),
    }
}

/// Compiles every rule of a **validated** program, in declaration
/// (= install) order.
///
/// # Examples
///
/// ```
/// use scidive_core::rules::dsl::compile_program;
/// use scidive_core::rules::Program;
///
/// let program = Program::parse(
///     "rule demo severity critical window 1s {\n\
///      \tsequence CallTornDown, OrphanRtpAfterBye\n\
///      }\n",
/// )?;
/// let rules = compile_program(&program);
/// assert_eq!(rules.len(), 1);
/// assert_eq!(rules[0].id(), "demo");
/// # Ok::<(), scidive_core::rules::Diagnostic>(())
/// ```
pub fn compile_program(program: &Program) -> Vec<Box<dyn Rule>> {
    program.rules.iter().map(compile_rule).collect()
}

/// The [`ThresholdSpec`]s of a validated program's threshold clauses,
/// declaration order — what the fold plane needs to evaluate them
/// globally under sharding.
pub fn threshold_specs(program: &Program) -> Vec<ThresholdSpec> {
    program.rules.iter().filter_map(threshold_spec_of).collect()
}
