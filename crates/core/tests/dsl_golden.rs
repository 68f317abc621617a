//! Golden-message tests for every DSL diagnostic.
//!
//! Each lexer, parser, and validator error (and each validator warning)
//! is pinned down to its exact span (`line`, `col`, `len`), message,
//! and hint. These are the strings operators see when a `.scid` file is
//! rejected — changing any of them is a user-visible change and must
//! show up here.

use scidive_core::event::EventClass;
use scidive_core::rules::{Diagnostic, Program};

/// Asserts that `src` fails with exactly this diagnostic.
#[track_caller]
fn expect_err(src: &str, line: usize, col: usize, len: usize, message: &str, hint: Option<&str>) {
    let err = Program::parse(src).expect_err("program unexpectedly compiled");
    let want = Diagnostic {
        line,
        col,
        len,
        message: message.to_string(),
        hint: hint.map(str::to_string),
    };
    assert_eq!(err, want, "\nsource: {src:?}\nrendered:\n{}", err.render(src));
}

/// Asserts that `src` compiles but produces exactly this warning.
#[track_caller]
fn expect_warning(
    src: &str,
    line: usize,
    col: usize,
    len: usize,
    message: &str,
    hint: Option<&str>,
) {
    let (_, warnings) = Program::check(src).expect("program should compile");
    let want = Diagnostic {
        line,
        col,
        len,
        message: message.to_string(),
        hint: hint.map(str::to_string),
    };
    assert_eq!(warnings, vec![want], "\nsource: {src:?}");
}

// ---------------------------------------------------------------- lexer

#[test]
fn unterminated_string_literal() {
    expect_err(
        "emit \"oops",
        1,
        6,
        5,
        "string literal is not closed",
        Some("close it with `\"` on the same line"),
    );
}

#[test]
fn lone_equals_is_not_an_operator() {
    expect_err(
        "rule x { any-of A(f = 1) }",
        1,
        21,
        1,
        "unexpected character `=`",
        Some("comparison operators are == != >= <= > <"),
    );
}

#[test]
fn stray_punctuation_is_rejected() {
    expect_err("rule x;", 1, 7, 1, "unexpected character `;`", None);
}

// --------------------------------------------------------------- parser

#[test]
fn top_level_must_start_with_rule() {
    expect_err(
        "sequence A",
        1,
        1,
        8,
        "expected `rule <id> <header items> {`",
        Some("severity | window | description | cross-protocol | stateful"),
    );
}

#[test]
fn missing_rule_id_before_brace() {
    expect_err("rule {", 1, 6, 1, "missing rule id", None);
}

#[test]
fn missing_rule_id_at_eof() {
    expect_err("rule", 1, 5, 1, "missing rule id", None);
}

#[test]
fn unknown_severity_word() {
    expect_err(
        "rule x severity loud { any-of A }",
        1,
        17,
        4,
        "unknown severity `loud`",
        Some("info | warning | critical"),
    );
}

#[test]
fn bad_window_duration() {
    expect_err(
        "rule x window 5 { any-of A }",
        1,
        15,
        1,
        "bad duration `5`",
        Some("use e.g. 500ms, 2s"),
    );
}

#[test]
fn unknown_header_key() {
    expect_err(
        "rule x frequency 5 { any-of A }",
        1,
        8,
        9,
        "unknown header key `frequency`",
        Some("severity | window | description | cross-protocol | stateful"),
    );
}

#[test]
fn repeated_header_item_is_an_error_at_the_second() {
    expect_err(
        "rule x severity warning description \"a\" severity info { any-of A }",
        1,
        41,
        8,
        "rule `x` declares `severity` twice",
        Some("each header item appears at most once"),
    );
    expect_err(
        "rule x stateful stateful { any-of A }",
        1,
        17,
        8,
        "rule `x` declares `stateful` twice",
        Some("each header item appears at most once"),
    );
}

#[test]
fn punctuation_cannot_open_the_body() {
    expect_err(
        "rule x , { any-of A }",
        1,
        8,
        1,
        "expected `{` to open the rule body",
        Some("severity | window | description | cross-protocol | stateful"),
    );
}

#[test]
fn description_needs_a_quoted_string() {
    expect_err(
        "rule x description spoof { any-of A }",
        1,
        20,
        5,
        "`description` needs a quoted string",
        Some("description \"what the rule detects\""),
    );
}

#[test]
fn unterminated_rule_block() {
    expect_err("rule x {", 1, 9, 1, "rule `x` is not closed with `}`", None);
}

#[test]
fn header_value_missing_at_eof() {
    expect_err(
        "rule x severity",
        1,
        16,
        1,
        "rule `x` is not closed with `}` (`severity` needs a value)",
        None,
    );
}

#[test]
fn header_key_without_value() {
    expect_err(
        "rule x severity { any-of A }",
        1,
        17,
        1,
        "`severity` needs a value",
        None,
    );
}

#[test]
fn empty_rule_body() {
    expect_err("rule x { }", 1, 10, 1, "rule body is empty", None);
}

#[test]
fn clause_keyword_must_be_a_word() {
    expect_err(
        "rule x { , }",
        1,
        10,
        1,
        "expected a clause keyword",
        Some("sequence | all-of | any-of | threshold"),
    );
}

#[test]
fn unknown_body_kind() {
    expect_err(
        "rule x { when A }",
        1,
        10,
        4,
        "unknown body kind `when`",
        Some("sequence | all-of | any-of | threshold"),
    );
}

#[test]
fn class_list_cannot_be_empty() {
    expect_err("rule x { sequence }", 1, 19, 1, "no event classes listed", None);
}

#[test]
fn class_name_must_be_a_word() {
    expect_err(
        "rule x { sequence , }",
        1,
        19,
        1,
        "expected an event class name",
        None,
    );
}

#[test]
fn predicate_list_needs_comma_or_close() {
    expect_err(
        "rule x { any-of A(delta >= 5 { }",
        1,
        30,
        1,
        "expected `,` or `)` after a predicate",
        None,
    );
}

#[test]
fn predicate_field_must_be_a_word() {
    expect_err(
        "rule x { any-of A(, }",
        1,
        19,
        1,
        "expected a field name",
        None,
    );
}

#[test]
fn predicate_needs_a_comparison_operator() {
    expect_err(
        "rule x { any-of A(delta near 5) }",
        1,
        25,
        4,
        "expected a comparison operator",
        Some("== != >= <= > < contains"),
    );
}

#[test]
fn unquoted_text_value_is_rejected_with_a_hint() {
    expect_err(
        "rule x { any-of A(delta == five) }",
        1,
        28,
        4,
        "expected a number or quoted string, got `five`",
        Some("quote text values: caller == \"alice@lab\""),
    );
}

#[test]
fn predicate_value_must_be_number_or_string() {
    expect_err(
        "rule x { any-of A(delta == () }",
        1,
        28,
        1,
        "expected a number or quoted string",
        None,
    );
}

#[test]
fn one_clause_per_rule() {
    expect_err(
        "rule x { any-of A any-of B }",
        1,
        19,
        6,
        "expected `}` (one clause per rule)",
        None,
    );
}

const THRESHOLD_GRAMMAR: &str = "threshold <Class> by <field> count >= <N> \
                                 [distinct <field> >= <M>] within <dur> [emit \"...\"]";

#[test]
fn threshold_requires_by() {
    expect_err(
        "rule x { threshold A from caller count >= 5 within 60s }",
        1,
        22,
        4,
        "expected `by`",
        Some(THRESHOLD_GRAMMAR),
    );
}

#[test]
fn threshold_comparisons_are_ge_only() {
    expect_err(
        "rule x { threshold A by caller count > 5 within 60s }",
        1,
        38,
        1,
        "threshold comparisons use `>=`",
        None,
    );
}

#[test]
fn threshold_count_must_be_numeric() {
    expect_err(
        "rule x { threshold A by caller count >= many within 60s }",
        1,
        41,
        4,
        "expected a number, got `many`",
        None,
    );
}

#[test]
fn threshold_within_needs_a_duration() {
    expect_err(
        "rule x { threshold A by caller count >= 5 within soon }",
        1,
        50,
        4,
        "bad duration `soon`",
        Some("use e.g. 500ms, 2s"),
    );
}

#[test]
fn emit_template_must_be_quoted() {
    expect_err(
        "rule x { threshold A by caller count >= 5 within 60s emit busy }",
        1,
        59,
        4,
        "`emit` needs a quoted template",
        Some("emit \"caller {key} crossed {count} in {window}s\""),
    );
}

// ------------------------------------------------------------ validator

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

#[test]
fn unknown_event_class_lists_all_classes() {
    expect_err(
        "rule x { sequence NotAClass }",
        1,
        19,
        9,
        "unknown event class `NotAClass`",
        Some(&class_list_hint()),
    );
}

#[test]
fn unknown_field_lists_the_class_fields() {
    expect_err(
        "rule x { any-of CallEstablished(direction == \"in\") }",
        1,
        33,
        9,
        "unknown field `direction` for CallEstablished",
        Some("fields of CallEstablished: caller, callee"),
    );
}

#[test]
fn predicates_are_any_of_only() {
    expect_err(
        "rule x { sequence CallTornDown(by_aor == \"a\"), OrphanRtpAfterBye }",
        1,
        32,
        6,
        "field predicates are only supported in any-of clauses",
        Some("move the predicate into an `any-of` rule"),
    );
}

#[test]
fn numeric_field_rejects_string_value() {
    expect_err(
        "rule x { any-of RtpSeqViolation(delta == \"big\") }",
        1,
        42,
        5,
        "field `delta` is a number; compare it to a number",
        None,
    );
}

#[test]
fn text_field_rejects_numeric_value() {
    expect_err(
        "rule x { any-of CallEstablished(caller == 5) }",
        1,
        43,
        1,
        "field `caller` is text; compare it to a quoted string",
        None,
    );
}

#[test]
fn contains_needs_a_text_field() {
    expect_err(
        "rule x { any-of RtpSeqViolation(delta contains 5) }",
        1,
        39,
        8,
        "`contains` needs a text field",
        None,
    );
}

#[test]
fn ordering_comparison_needs_a_numeric_field() {
    expect_err(
        "rule x { any-of CallEstablished(caller >= \"a\") }",
        1,
        40,
        2,
        "ordering comparison `>=` needs a numeric field",
        None,
    );
}

#[test]
fn ip_fields_only_support_equality() {
    expect_err(
        "rule x { any-of CallTornDown(by_media_ip > \"10.0.0.9\") }",
        1,
        42,
        1,
        "only `==` and `!=` apply to an IP field",
        None,
    );
}

#[test]
fn duplicate_rule_ids_are_rejected() {
    expect_err(
        "rule x { any-of SipMalformed }\nrule x { any-of SipMalformed }",
        2,
        6,
        1,
        "duplicate rule id `x`",
        None,
    );
}

#[test]
fn empty_description_is_rejected() {
    expect_err(
        "rule x description \" \" { any-of SipMalformed }",
        1,
        20,
        3,
        "rule `x`: description is empty",
        Some("say what the rule detects, or drop the header"),
    );
}

#[test]
fn all_of_is_capped_at_64_classes() {
    let src = format!(
        "rule big {{ all-of {} }}",
        vec!["SipMalformed"; 65].join(", ")
    );
    expect_err(&src, 1, 6, 3, "all-of lists more than 64 classes", None);
}

#[test]
fn threshold_key_field_must_be_text() {
    expect_err(
        "rule x { threshold RtpSeqViolation by delta count >= 5 within 60s }",
        1,
        39,
        5,
        "threshold key field `delta` must be text",
        Some("key the window by an identity, not a measurement"),
    );
}

#[test]
fn count_threshold_must_be_positive() {
    expect_err(
        "rule x { threshold CallEstablished by caller count >= 0 within 60s }",
        1,
        55,
        1,
        "count threshold must be at least 1",
        None,
    );
}

#[test]
fn distinct_threshold_is_capped() {
    expect_err(
        "rule x { threshold CallEstablished by caller count >= 5 distinct callee >= 65 within 60s }",
        1,
        76,
        2,
        "distinct threshold 65 exceeds the maximum 64",
        Some("the exact-mode probe buffer is fixed-size"),
    );
}

#[test]
fn distinct_threshold_must_be_positive() {
    expect_err(
        "rule x { threshold CallEstablished by caller count >= 5 distinct callee >= 0 within 60s }",
        1,
        76,
        1,
        "distinct threshold must be at least 1",
        None,
    );
}

#[test]
fn unknown_emit_placeholder() {
    expect_err(
        "rule x { threshold CallEstablished by caller count >= 5 within 60s emit \"caller {who}\" }",
        1,
        73,
        14,
        "unknown placeholder `{who}` in emit template",
        Some("placeholders: {key}, {count}, {distinct}, {window}"),
    );
}

// ------------------------------------------------------------- warnings

#[test]
fn window_on_any_of_warns() {
    expect_warning(
        "rule x window 5s { any-of SipMalformed }",
        1,
        15,
        2,
        "rule `x`: `window` has no effect on an any-of clause",
        Some("any-of fires on the first match; drop the header"),
    );
}

#[test]
fn window_on_threshold_warns() {
    expect_warning(
        "rule x window 5s { threshold CallEstablished by caller count >= 5 within 60s }",
        1,
        15,
        2,
        "rule `x`: `window` has no effect on a threshold clause",
        Some("the sliding window comes from `within`"),
    );
}

// ------------------------------------------------------------ rendering

#[test]
fn display_includes_location_and_hint() {
    let err = Program::parse("rule x severity loud { any-of A }").unwrap_err();
    assert_eq!(
        err.to_string(),
        "line 1, col 17: unknown severity `loud` (hint: info | warning | critical)"
    );
}

#[test]
fn render_golden_output() {
    let src = "rule broken {\n    sequence NotAClass\n}\n";
    let err = Program::parse(src).unwrap_err();
    let expected = format!(
        "error: unknown event class `NotAClass`\n\
         --> line 2\n\
         |     sequence NotAClass\n\
         |              ^^^^^^^^^\n\
         = hint: {}\n",
        class_list_hint()
    );
    // `render` indents the gutter; normalize leading whitespace per line.
    let rendered = err.render(src);
    let got: Vec<&str> = rendered.lines().map(str::trim_start).collect();
    let want: Vec<&str> = expected.lines().map(str::trim_start).collect();
    assert_eq!(got, want);
}
