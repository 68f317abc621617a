//! Recursive-descent parser for the rule DSL.
//!
//! Produces the surface [`Program`] AST; every name stays a string with
//! a span. Anything that needs the event-class schema (class and field
//! resolution, operator typing, threshold bounds) is the validator's
//! job — the parser only knows the shape of the language.

use super::ast::{
    ClassSpec, Clause, PredicateAst, Program, RuleDecl, Span, Spanned, ThresholdClause, ValueAst,
};
use super::lexer::{lex, Tok, Token};
use super::{parse_duration, parse_severity, Diagnostic};
use crate::rules::predicate::CmpOp;

struct Cursor {
    toks: Vec<Token>,
    pos: usize,
    /// Span to blame when the input ends unexpectedly.
    end: Span,
}

impl Cursor {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_word(&self) -> Option<&str> {
        match self.peek() {
            Some(Token {
                tok: Tok::Word(w), ..
            }) => Some(w.as_str()),
            _ => None,
        }
    }

    /// Next token inside rule `id`'s block; running out of input here
    /// means the block is unterminated.
    fn want(&mut self, id: &str) -> Result<Token, Diagnostic> {
        self.next().ok_or_else(|| Diagnostic {
            line: self.end.line,
            col: self.end.col,
            len: self.end.len,
            message: format!("rule `{id}` is not closed with `}}`"),
            hint: None,
        })
    }

    fn want_word(&mut self, id: &str, what: &str) -> Result<Spanned<String>, Diagnostic> {
        let t = self.want(id)?;
        match t.tok {
            Tok::Word(w) => Ok(Spanned { node: w, span: t.span }),
            _ => Err(diag(t.span, format!("expected {what}"), None)),
        }
    }
}

fn diag(span: Span, message: String, hint: Option<String>) -> Diagnostic {
    Diagnostic {
        line: span.line,
        col: span.col,
        len: span.len,
        message,
        hint,
    }
}

/// Parses source text into a [`Program`] (syntax only; run the
/// validator before compiling).
pub fn parse(src: &str) -> Result<Program, Diagnostic> {
    let toks = lex(src)?;
    let end = toks.last().map_or(
        Span { line: 1, col: 1, len: 1 },
        |t| Span {
            line: t.span.line,
            col: t.span.col + t.span.len,
            len: 1,
        },
    );
    let mut cur = Cursor { toks, pos: 0, end };
    let mut rules = Vec::new();
    while let Some(t) = cur.next() {
        match &t.tok {
            Tok::Word(w) if w == "rule" => rules.push(parse_rule(&mut cur)?),
            _ => {
                return Err(diag(
                    t.span,
                    "expected `rule <id> <header items> {`".to_string(),
                    Some(HEADER_KEYS.to_string()),
                ));
            }
        }
    }
    Ok(Program { rules })
}

/// The header items a rule may declare, each once, between its id and
/// its body.
const HEADER_KEYS: &str = "severity | window | description | cross-protocol | stateful";

fn parse_rule(cur: &mut Cursor) -> Result<RuleDecl, Diagnostic> {
    let id = match cur.next() {
        Some(Token {
            tok: Tok::Word(w),
            span,
        }) => Spanned { node: w, span },
        Some(t) => return Err(diag(t.span, "missing rule id".to_string(), None)),
        None => {
            return Err(diag(cur.end, "missing rule id".to_string(), None));
        }
    };
    let mut severity = None;
    let mut window = None;
    let mut description = None;
    let mut cross_protocol = false;
    let mut stateful = false;
    let mut seen: Vec<String> = Vec::new();
    loop {
        let t = match cur.next() {
            Some(Token {
                tok: Tok::LBrace, ..
            }) => break,
            Some(t) => t,
            None => {
                return Err(diag(
                    cur.end,
                    format!("rule `{}` is not closed with `}}`", id.node),
                    None,
                ));
            }
        };
        let Tok::Word(key) = &t.tok else {
            return Err(diag(
                t.span,
                "expected `{` to open the rule body".to_string(),
                Some(HEADER_KEYS.to_string()),
            ));
        };
        // A repeated item is an error at its second occurrence, not a
        // silent override of the first.
        if seen.contains(key) {
            return Err(diag(
                t.span,
                format!("rule `{}` declares `{key}` twice", id.node),
                Some("each header item appears at most once".to_string()),
            ));
        }
        seen.push(key.clone());
        match key.as_str() {
            "severity" => {
                let v = value_word(cur, &id.node, "severity")?;
                let sev = parse_severity(&v.node).ok_or_else(|| {
                    diag(
                        v.span,
                        format!("unknown severity `{}`", v.node),
                        Some("info | warning | critical".to_string()),
                    )
                })?;
                severity = Some(Spanned { node: sev, span: v.span });
            }
            "window" => {
                let v = value_word(cur, &id.node, "window")?;
                let dur = parse_duration(&v.node).ok_or_else(|| {
                    diag(
                        v.span,
                        format!("bad duration `{}`", v.node),
                        Some("use e.g. 500ms, 2s".to_string()),
                    )
                })?;
                window = Some(Spanned { node: dur, span: v.span });
            }
            "description" => match cur.want(&id.node)? {
                Token {
                    tok: Tok::Str(text),
                    span,
                } => description = Some(Spanned { node: text, span }),
                t => {
                    return Err(diag(
                        t.span,
                        "`description` needs a quoted string".to_string(),
                        Some("description \"what the rule detects\"".to_string()),
                    ));
                }
            },
            "cross-protocol" => cross_protocol = true,
            "stateful" => stateful = true,
            _ => {
                return Err(diag(
                    t.span,
                    format!("unknown header key `{key}`"),
                    Some(HEADER_KEYS.to_string()),
                ));
            }
        }
    }
    let clause = parse_clause(cur, &id.node)?;
    let close = cur.want(&id.node)?;
    if close.tok != Tok::RBrace {
        return Err(diag(
            close.span,
            "expected `}` (one clause per rule)".to_string(),
            None,
        ));
    }
    Ok(RuleDecl {
        id,
        severity,
        window,
        description,
        cross_protocol,
        stateful,
        clause,
    })
}

/// The value word after a header key (`severity critical`, `window 2s`).
fn value_word(cur: &mut Cursor, id: &str, key: &str) -> Result<Spanned<String>, Diagnostic> {
    match cur.next() {
        Some(Token {
            tok: Tok::Word(w),
            span,
        }) => Ok(Spanned { node: w, span }),
        Some(t) => Err(diag(t.span, format!("`{key}` needs a value"), None)),
        None => Err(diag(
            cur.end,
            format!("rule `{id}` is not closed with `}}` (`{key}` needs a value)"),
            None,
        )),
    }
}

fn parse_clause(cur: &mut Cursor, id: &str) -> Result<Clause, Diagnostic> {
    let t = cur.want(id)?;
    let (kind, kind_span) = match &t.tok {
        Tok::RBrace => {
            return Err(diag(t.span, "rule body is empty".to_string(), None));
        }
        Tok::Word(w) => (w.clone(), t.span),
        _ => {
            return Err(diag(
                t.span,
                "expected a clause keyword".to_string(),
                Some("sequence | all-of | any-of | threshold".to_string()),
            ));
        }
    };
    match kind.as_str() {
        "sequence" => Ok(Clause::Sequence(parse_class_list(cur, id)?)),
        "all-of" => Ok(Clause::AllOf(parse_class_list(cur, id)?)),
        "any-of" | "match" => Ok(Clause::AnyOf(parse_class_list(cur, id)?)),
        "threshold" => Ok(Clause::Threshold(Box::new(parse_threshold(cur, id)?))),
        other => Err(diag(
            kind_span,
            format!("unknown body kind `{other}`"),
            Some("sequence | all-of | any-of | threshold".to_string()),
        )),
    }
}

fn parse_class_list(cur: &mut Cursor, id: &str) -> Result<Vec<ClassSpec>, Diagnostic> {
    let mut specs = Vec::new();
    loop {
        if specs.is_empty() {
            if let Some(Token {
                tok: Tok::RBrace,
                span,
            }) = cur.peek()
            {
                return Err(diag(*span, "no event classes listed".to_string(), None));
            }
        }
        let class = cur.want_word(id, "an event class name")?;
        let mut preds = Vec::new();
        if matches!(cur.peek(), Some(Token { tok: Tok::LParen, .. })) {
            cur.next();
            loop {
                preds.push(parse_predicate(cur, id)?);
                match cur.want(id)? {
                    Token { tok: Tok::Comma, .. } => continue,
                    Token { tok: Tok::RParen, .. } => break,
                    t => {
                        return Err(diag(
                            t.span,
                            "expected `,` or `)` after a predicate".to_string(),
                            None,
                        ));
                    }
                }
            }
        }
        specs.push(ClassSpec { class, preds });
        if matches!(cur.peek(), Some(Token { tok: Tok::Comma, .. })) {
            cur.next();
            continue;
        }
        return Ok(specs);
    }
}

fn parse_predicate(cur: &mut Cursor, id: &str) -> Result<PredicateAst, Diagnostic> {
    let field = cur.want_word(id, "a field name")?;
    let op = parse_op(cur, id)?;
    let value = match cur.want(id)? {
        Token {
            tok: Tok::Word(w),
            span,
        } => {
            let n = w.parse::<i64>().map_err(|_| {
                diag(
                    span,
                    format!("expected a number or quoted string, got `{w}`"),
                    Some("quote text values: caller == \"alice@lab\"".to_string()),
                )
            })?;
            Spanned {
                node: ValueAst::Int(n),
                span,
            }
        }
        Token {
            tok: Tok::Str(s),
            span,
        } => Spanned {
            node: ValueAst::Str(s),
            span,
        },
        t => {
            return Err(diag(
                t.span,
                "expected a number or quoted string".to_string(),
                None,
            ));
        }
    };
    Ok(PredicateAst { field, op, value })
}

fn parse_op(cur: &mut Cursor, id: &str) -> Result<Spanned<CmpOp>, Diagnostic> {
    let t = cur.want(id)?;
    let op = match &t.tok {
        Tok::Op("==") => Some(CmpOp::Eq),
        Tok::Op("!=") => Some(CmpOp::Ne),
        Tok::Op(">=") => Some(CmpOp::Ge),
        Tok::Op("<=") => Some(CmpOp::Le),
        Tok::Op(">") => Some(CmpOp::Gt),
        Tok::Op("<") => Some(CmpOp::Lt),
        Tok::Word(w) if w == "contains" => Some(CmpOp::Contains),
        _ => None,
    };
    op.map(|node| Spanned { node, span: t.span }).ok_or_else(|| {
        diag(
            t.span,
            "expected a comparison operator".to_string(),
            Some("== != >= <= > < contains".to_string()),
        )
    })
}

/// `threshold Class by field count >= N [distinct field >= M] within DUR
/// [emit "..."]`.
fn parse_threshold(cur: &mut Cursor, id: &str) -> Result<ThresholdClause, Diagnostic> {
    let class = cur.want_word(id, "an event class name")?;
    expect_keyword(cur, id, "by")?;
    let key_field = cur.want_word(id, "a field name")?;
    expect_keyword(cur, id, "count")?;
    expect_ge(cur, id)?;
    let count_threshold = parse_count(cur, id)?;
    let mut distinct = None;
    if cur.peek_word() == Some("distinct") {
        cur.next();
        let field = cur.want_word(id, "a field name")?;
        expect_ge(cur, id)?;
        let n = parse_count(cur, id)?;
        distinct = Some((field, n));
    }
    expect_keyword(cur, id, "within")?;
    let w = cur.want_word(id, "a duration")?;
    let within = parse_duration(&w.node)
        .map(|dur| Spanned { node: dur, span: w.span })
        .ok_or_else(|| {
            diag(
                w.span,
                format!("bad duration `{}`", w.node),
                Some("use e.g. 500ms, 2s".to_string()),
            )
        })?;
    let mut emit = None;
    if cur.peek_word() == Some("emit") {
        cur.next();
        match cur.want(id)? {
            Token {
                tok: Tok::Str(s),
                span,
            } => emit = Some(Spanned { node: s, span }),
            t => {
                return Err(diag(
                    t.span,
                    "`emit` needs a quoted template".to_string(),
                    Some("emit \"caller {key} crossed {count} in {window}s\"".to_string()),
                ));
            }
        }
    }
    Ok(ThresholdClause {
        class,
        key_field,
        count_threshold,
        distinct,
        within,
        emit,
    })
}

fn expect_keyword(cur: &mut Cursor, id: &str, kw: &str) -> Result<(), Diagnostic> {
    let t = cur.want(id)?;
    match &t.tok {
        Tok::Word(w) if w == kw => Ok(()),
        _ => Err(diag(
            t.span,
            format!("expected `{kw}`"),
            Some(
                "threshold <Class> by <field> count >= <N> [distinct <field> >= <M>] \
                 within <dur> [emit \"...\"]"
                    .to_string(),
            ),
        )),
    }
}

fn expect_ge(cur: &mut Cursor, id: &str) -> Result<(), Diagnostic> {
    let t = cur.want(id)?;
    match t.tok {
        Tok::Op(">=") => Ok(()),
        _ => Err(diag(
            t.span,
            "threshold comparisons use `>=`".to_string(),
            None,
        )),
    }
}

fn parse_count(cur: &mut Cursor, id: &str) -> Result<Spanned<u32>, Diagnostic> {
    let w = cur.want_word(id, "a number")?;
    let n = w
        .node
        .parse::<u32>()
        .map_err(|_| diag(w.span, format!("expected a number, got `{}`", w.node), None))?;
    Ok(Spanned { node: n, span: w.span })
}
