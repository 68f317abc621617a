//! Canonical printer for [`Program`]s.
//!
//! Prints a normal form: one rule per block, four-space indent, explicit
//! `severity` always, `window` only where a clause consults it, then
//! the declared `cross-protocol`, `stateful` and `description`. The
//! normal form is a fixed point — `parse(print(p))` equals `p` up to
//! spans and elided defaults, and `print(parse(print(p))) == print(p)`
//! exactly, which the property tests pin.

use super::ast::{ClassSpec, Clause, Program, RuleDecl, ThresholdClause, ValueAst};
use super::{duration_text, severity_name};

fn class_spec(out: &mut String, spec: &ClassSpec) {
    out.push_str(&spec.class.node);
    if spec.preds.is_empty() {
        return;
    }
    out.push('(');
    for (i, p) in spec.preds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.field.node);
        out.push(' ');
        out.push_str(p.op.node.symbol());
        out.push(' ');
        match &p.value.node {
            ValueAst::Int(n) => out.push_str(&n.to_string()),
            ValueAst::Str(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
        }
    }
    out.push(')');
}

fn class_list(out: &mut String, specs: &[ClassSpec]) {
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        class_spec(out, spec);
    }
}

fn threshold(out: &mut String, t: &ThresholdClause) {
    out.push_str("threshold ");
    out.push_str(&t.class.node);
    out.push_str(" by ");
    out.push_str(&t.key_field.node);
    out.push_str(&format!(" count >= {}", t.count_threshold.node));
    if let Some((field, n)) = &t.distinct {
        out.push_str(&format!(" distinct {} >= {}", field.node, n.node));
    }
    out.push_str(" within ");
    out.push_str(&duration_text(t.within.node));
    if let Some(emit) = &t.emit {
        out.push_str(" emit \"");
        out.push_str(&emit.node);
        out.push('"');
    }
}

fn rule(out: &mut String, r: &RuleDecl) {
    out.push_str("rule ");
    out.push_str(&r.id.node);
    out.push_str(" severity ");
    out.push_str(severity_name(
        r.severity
            .as_ref()
            .map_or(crate::alert::Severity::Critical, |s| s.node),
    ));
    // `window` only means something to sequence / all-of clauses; the
    // validator warns on it elsewhere, so the normal form elides it.
    if matches!(r.clause, Clause::Sequence(_) | Clause::AllOf(_)) {
        out.push_str(" window ");
        out.push_str(&duration_text(r.window.as_ref().map_or(
            scidive_netsim::time::SimDuration::from_secs(60),
            |w| w.node,
        )));
    }
    if r.cross_protocol {
        out.push_str(" cross-protocol");
    }
    if r.stateful {
        out.push_str(" stateful");
    }
    if let Some(d) = &r.description {
        out.push_str(" description \"");
        out.push_str(&d.node);
        out.push('"');
    }
    out.push_str(" {\n    ");
    match &r.clause {
        Clause::Sequence(specs) => {
            out.push_str("sequence ");
            class_list(out, specs);
        }
        Clause::AllOf(specs) => {
            out.push_str("all-of ");
            class_list(out, specs);
        }
        Clause::AnyOf(specs) => {
            out.push_str("any-of ");
            class_list(out, specs);
        }
        Clause::Threshold(t) => threshold(out, t),
    }
    out.push_str("\n}\n");
}

/// Prints the canonical form of `program`.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, r) in program.rules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        rule(&mut out, r);
    }
    out
}
