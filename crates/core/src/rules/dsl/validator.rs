//! Semantic validation of a parsed [`Program`].
//!
//! Everything the compiler assumes is proved here, so compilation is
//! infallible: class names resolve, field names exist on their class,
//! operators are typed against their field, threshold bounds fit the
//! runtime's fixed buffers, and emit templates only use known
//! placeholders. Violations are hard errors; stylistic hazards (an
//! explicit `window` header on a clause that never reads it) are
//! warnings, which the `.scid` CI gate treats as errors via
//! `--deny-warnings`.

use super::ast::{ClassSpec, Clause, Program, Spanned};
use super::Diagnostic;
use crate::event::{ByeOrigin, EventClass, EventKind, FieldValue};
use crate::rules::predicate::CmpOp;
use crate::rules::threshold::MAX_DISTINCT_THRESHOLD;
use std::collections::HashSet;

fn diag<T>(s: &Spanned<T>, message: String, hint: Option<String>) -> Diagnostic {
    Diagnostic {
        line: s.span.line,
        col: s.span.col,
        len: s.span.len,
        message,
        hint,
    }
}

fn class_list_hint() -> String {
    format!(
        "one of: {}",
        EventClass::ALL
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn resolve_class(name: &Spanned<String>) -> Result<EventClass, Diagnostic> {
    EventClass::parse_name(&name.node).ok_or_else(|| {
        diag(
            name,
            format!("unknown event class `{}`", name.node),
            Some(class_list_hint()),
        )
    })
}

fn resolve_field(class: EventClass, field: &Spanned<String>) -> Result<(), Diagnostic> {
    let names = EventKind::field_names(class);
    if names.contains(&field.node.as_str()) {
        return Ok(());
    }
    Err(diag(
        field,
        format!("unknown field `{}` for {}", field.node, class.name()),
        Some(if names.is_empty() {
            format!("{} has no matchable fields", class.name())
        } else {
            format!("fields of {}: {}", class.name(), names.join(", "))
        }),
    ))
}

/// A representative payload per class, used to type-check predicates
/// (which [`FieldValue`] shape does this field produce?). The samples
/// carry every optional payload populated so each declared field
/// extracts.
fn sample_kind(class: EventClass) -> EventKind {
    use std::net::Ipv4Addr;
    let flow = crate::event::FlowKey {
        src: Ipv4Addr::new(10, 0, 0, 1),
        dst: Ipv4Addr::new(10, 0, 0, 2),
        dst_port: 8000,
    };
    let d = scidive_netsim::time::SimDuration::from_millis(5);
    match class {
        EventClass::CallEstablished => EventKind::CallEstablished {
            caller: String::new(),
            callee: String::new(),
        },
        EventClass::CallTornDown => EventKind::CallTornDown {
            by_aor: String::new(),
            by_media_ip: Some(flow.src),
        },
        EventClass::CallRedirected => EventKind::CallRedirected {
            claimed_aor: String::new(),
            old_target: (flow.src, 8000),
            new_target: (flow.dst, 8002),
        },
        EventClass::OrphanRtpAfterBye => EventKind::OrphanRtpAfterBye {
            flow,
            gap: d,
            bye: ByeOrigin {
                claimed_aor: None,
                src_ip: flow.src,
                cseq: None,
            },
        },
        EventClass::OrphanRtpAfterRedirect => EventKind::OrphanRtpAfterRedirect { flow, gap: d },
        EventClass::RtpSeqViolation => EventKind::RtpSeqViolation { flow, delta: 0 },
        EventClass::RtpUnknownSource => EventKind::RtpUnknownSource { flow },
        EventClass::RtpFlowActive => EventKind::RtpFlowActive { flow },
        EventClass::MediaPortGarbage => EventKind::MediaPortGarbage {
            sink: (flow.dst, 8000),
            reason: String::new(),
        },
        EventClass::SipMalformed => EventKind::SipMalformed {
            violations: Vec::new(),
            src: flow.src,
        },
        EventClass::ImSourceMismatch => EventKind::ImSourceMismatch {
            claimed_aor: String::new(),
            src_ip: flow.src,
            expected_ip: flow.dst,
        },
        EventClass::ImObserved => EventKind::ImObserved {
            claimed_aor: String::new(),
            src_ip: flow.src,
            dst_ip: flow.dst,
            call_id: String::new(),
        },
        EventClass::RegisterFlood => EventKind::RegisterFlood {
            src: flow.src,
            count: 0,
        },
        EventClass::PasswordGuessing => EventKind::PasswordGuessing {
            src: flow.src,
            username: String::new(),
            distinct_responses: 0,
        },
        EventClass::AcctMismatch => EventKind::AcctMismatch {
            billed: String::new(),
            observed_caller: Some(String::new()),
            call_id: String::new(),
        },
        EventClass::RtpAfterRtcpBye => EventKind::RtpAfterRtcpBye {
            flow,
            ssrc: 0,
            gap: d,
        },
        EventClass::Ext0 | EventClass::Ext1 | EventClass::Ext2 | EventClass::Ext3 => {
            EventKind::Protocol {
                class,
                signal: "",
                detail: String::new(),
            }
        }
    }
}

/// What a field's value looks like, for operator typing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FieldShape {
    Int,
    Text,
    Ip,
}

fn field_shape(class: EventClass, field: &str) -> FieldShape {
    match sample_kind(class).field(field) {
        Some(FieldValue::Int(_)) => FieldShape::Int,
        Some(FieldValue::Str(_)) => FieldShape::Text,
        Some(FieldValue::Ip(_)) => FieldShape::Ip,
        None => unreachable!("resolve_field admitted `{field}` for {class:?}"),
    }
}

fn check_specs(
    specs: &[ClassSpec],
    preds_allowed: bool,
) -> Result<Vec<EventClass>, Diagnostic> {
    let mut classes = Vec::new();
    for spec in specs {
        let class = resolve_class(&spec.class)?;
        classes.push(class);
        if !preds_allowed && !spec.preds.is_empty() {
            return Err(diag(
                &spec.preds[0].field,
                "field predicates are only supported in any-of clauses".to_string(),
                Some("move the predicate into an `any-of` rule".to_string()),
            ));
        }
        for p in &spec.preds {
            resolve_field(class, &p.field)?;
            let shape = field_shape(class, &p.field.node);
            let is_int_value = matches!(p.value.node, super::ast::ValueAst::Int(_));
            match (shape, is_int_value) {
                (FieldShape::Int, false) => {
                    return Err(diag(
                        &p.value,
                        format!("field `{}` is a number; compare it to a number", p.field.node),
                        None,
                    ));
                }
                (FieldShape::Text | FieldShape::Ip, true) => {
                    return Err(diag(
                        &p.value,
                        format!("field `{}` is text; compare it to a quoted string", p.field.node),
                        None,
                    ));
                }
                _ => {}
            }
            match (p.op.node, shape) {
                (CmpOp::Contains, FieldShape::Int | FieldShape::Ip) => {
                    return Err(diag(
                        &p.op,
                        "`contains` needs a text field".to_string(),
                        None,
                    ));
                }
                (CmpOp::Ge | CmpOp::Le | CmpOp::Gt | CmpOp::Lt, FieldShape::Text) => {
                    return Err(diag(
                        &p.op,
                        format!(
                            "ordering comparison `{}` needs a numeric field",
                            p.op.node.symbol()
                        ),
                        None,
                    ));
                }
                (CmpOp::Ge | CmpOp::Le | CmpOp::Gt | CmpOp::Lt, FieldShape::Ip) => {
                    return Err(diag(
                        &p.op,
                        "only `==` and `!=` apply to an IP field".to_string(),
                        None,
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(classes)
}

const TEMPLATE_PLACEHOLDERS: [&str; 4] = ["key", "count", "distinct", "window"];

fn check_template(emit: &Spanned<String>) -> Result<(), Diagnostic> {
    let mut rest = emit.node.as_str();
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            // No closing brace: rendered verbatim, nothing to check.
            break;
        };
        let name = &rest[open + 1..open + close];
        if !TEMPLATE_PLACEHOLDERS.contains(&name) {
            return Err(diag(
                emit,
                format!("unknown placeholder `{{{name}}}` in emit template"),
                Some("placeholders: {key}, {count}, {distinct}, {window}".to_string()),
            ));
        }
        rest = &rest[open + close + 1..];
    }
    Ok(())
}

/// Validates `program`. On success returns the (possibly empty) warning
/// list; the first hard error aborts validation.
pub fn validate(program: &Program) -> Result<Vec<Diagnostic>, Diagnostic> {
    let mut warnings = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for rule in &program.rules {
        if !seen.insert(rule.id.node.as_str()) {
            return Err(diag(
                &rule.id,
                format!("duplicate rule id `{}`", rule.id.node),
                None,
            ));
        }
        if let Some(d) = rule
            .description
            .as_ref()
            .filter(|d| d.node.trim().is_empty())
        {
            return Err(diag(
                d,
                format!("rule `{}`: description is empty", rule.id.node),
                Some("say what the rule detects, or drop the header".to_string()),
            ));
        }
        match &rule.clause {
            Clause::Sequence(specs) | Clause::AllOf(specs) => {
                let classes = check_specs(specs, false)?;
                if matches!(rule.clause, Clause::AllOf(_)) && classes.len() > 64 {
                    return Err(diag(
                        &rule.id,
                        "all-of lists more than 64 classes".to_string(),
                        None,
                    ));
                }
            }
            Clause::AnyOf(specs) => {
                check_specs(specs, true)?;
                if let Some(w) = &rule.window {
                    warnings.push(diag(
                        w,
                        format!(
                            "rule `{}`: `window` has no effect on an any-of clause",
                            rule.id.node
                        ),
                        Some("any-of fires on the first match; drop the header".to_string()),
                    ));
                }
            }
            Clause::Threshold(t) => {
                let class = resolve_class(&t.class)?;
                resolve_field(class, &t.key_field)?;
                if field_shape(class, &t.key_field.node) == FieldShape::Int {
                    return Err(diag(
                        &t.key_field,
                        format!("threshold key field `{}` must be text", t.key_field.node),
                        Some("key the window by an identity, not a measurement".to_string()),
                    ));
                }
                if t.count_threshold.node == 0 {
                    return Err(diag(
                        &t.count_threshold,
                        "count threshold must be at least 1".to_string(),
                        None,
                    ));
                }
                if let Some((field, n)) = &t.distinct {
                    resolve_field(class, field)?;
                    if n.node > MAX_DISTINCT_THRESHOLD {
                        return Err(diag(
                            n,
                            format!(
                                "distinct threshold {} exceeds the maximum {}",
                                n.node, MAX_DISTINCT_THRESHOLD
                            ),
                            Some("the exact-mode probe buffer is fixed-size".to_string()),
                        ));
                    }
                    if n.node == 0 {
                        return Err(diag(
                            n,
                            "distinct threshold must be at least 1".to_string(),
                            None,
                        ));
                    }
                }
                if let Some(emit) = &t.emit {
                    check_template(emit)?;
                }
                if let Some(w) = &rule.window {
                    warnings.push(diag(
                        w,
                        format!(
                            "rule `{}`: `window` has no effect on a threshold clause",
                            rule.id.node
                        ),
                        Some("the sliding window comes from `within`".to_string()),
                    ));
                }
            }
        }
    }
    Ok(warnings)
}
