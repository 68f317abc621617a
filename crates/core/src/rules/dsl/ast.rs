//! Abstract syntax of the rule DSL.
//!
//! The AST keeps the *surface* form — class and field names as spanned
//! strings, not resolved enums — so diagnostics can point at the
//! operator's source and so `parse → print → parse` is a fixed point.
//! Resolution to [`crate::event::EventClass`] / field accessors happens
//! in the validator (which proves it can't fail) and again, infallibly,
//! in the compiler.

use crate::alert::Severity;
use scidive_netsim::time::SimDuration;

/// A half-open source location: 1-based line and column plus length in
/// characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// Length in characters.
    pub len: usize,
}

/// A node plus where it came from. Equality ignores the span — two
/// programs that differ only in layout compare equal, which is what the
/// round-trip property tests rely on.
#[derive(Debug, Clone)]
pub struct Spanned<T> {
    /// The node.
    pub node: T,
    /// Its source location.
    pub span: Span,
}

impl<T: PartialEq> PartialEq for Spanned<T> {
    fn eq(&self, other: &Spanned<T>) -> bool {
        self.node == other.node
    }
}

impl<T: Eq> Eq for Spanned<T> {}

/// A parsed rule program: zero or more rule declarations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The declarations, in source order (which is install order).
    pub rules: Vec<RuleDecl>,
}

/// One `rule <id> ... { <clause> }` block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDecl {
    /// The rule identifier.
    pub id: Spanned<String>,
    /// Explicit `severity` header, if any (defaults to critical).
    pub severity: Option<Spanned<Severity>>,
    /// Explicit `window` header, if any (defaults to 60s; only
    /// sequence / all-of clauses consult it).
    pub window: Option<Spanned<SimDuration>>,
    /// `description "<text>"` header, if any (defaults to
    /// ``operator-defined rule `<id>` ``): what the rule reports and the
    /// prefix of its alert messages.
    pub description: Option<Spanned<String>>,
    /// The bare `cross-protocol` header flag: Table 1's
    /// "Cross-protocol?" column.
    pub cross_protocol: bool,
    /// The bare `stateful` header flag: Table 1's "Stateful?" column.
    pub stateful: bool,
    /// The single clause in the body.
    pub clause: Clause,
}

/// The body of a rule: exactly one clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clause {
    /// `sequence A, B, ...` — the classes in order, within the window.
    Sequence(Vec<ClassSpec>),
    /// `all-of A, B, ...` — the classes in any order, within the window.
    AllOf(Vec<ClassSpec>),
    /// `any-of A(p, ...), B, ...` (synonym `match`) — first match fires.
    AnyOf(Vec<ClassSpec>),
    /// `threshold Class by field count >= N [distinct field >= M]
    /// within DUR [emit "..."]`. Boxed: the clause dwarfs the other
    /// variants.
    Threshold(Box<ThresholdClause>),
}

/// An event class, optionally narrowed by field predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSpec {
    /// The class name as written.
    pub class: Spanned<String>,
    /// Conjunction of field predicates (only legal under `any-of`).
    pub preds: Vec<PredicateAst>,
}

/// One `field op value` comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateAst {
    /// The field name as written.
    pub field: Spanned<String>,
    /// The comparison operator.
    pub op: Spanned<crate::rules::predicate::CmpOp>,
    /// The right-hand literal.
    pub value: Spanned<ValueAst>,
}

/// A literal on the right of a comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueAst {
    /// An integer.
    Int(i64),
    /// A quoted string.
    Str(String),
}

/// A `threshold` clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThresholdClause {
    /// The event class the threshold counts.
    pub class: Spanned<String>,
    /// The field whose value keys the sliding window (`by <field>`).
    pub key_field: Spanned<String>,
    /// `count >= N`.
    pub count_threshold: Spanned<u32>,
    /// `distinct <field> >= M`, if present.
    pub distinct: Option<(Spanned<String>, Spanned<u32>)>,
    /// `within <duration>` — the sliding window.
    pub within: Spanned<SimDuration>,
    /// `emit "<template>"` — alert message template with `{key}`,
    /// `{count}`, `{distinct}`, `{window}` placeholders.
    pub emit: Option<Spanned<String>>,
}
