//! A nested `def` is a scope of its own: its `global` declarations and
//! assignments say nothing about the enclosing function's locals, as in
//! both engines. The scope lints read that rule from
//! `vine_lang::ast::ScopeNames`.

use vine_lint::{lint_source, Report};

/// The source text each finding with `code` points at.
fn flagged<'a>(report: &Report, src: &'a str, code: &str) -> Vec<&'a str> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.code == code)
        .filter_map(|d| d.span)
        .map(|span| span.slice(src))
        .collect()
}

#[test]
fn inner_global_does_not_hide_the_outer_dead_store() {
    let src = "def outer() { x = 1; x = 2; def inner() { global x; x = 3 }; inner(); return x }\n";
    let report = lint_source("t.vine", src);
    assert_eq!(
        flagged(&report, src, "V017"),
        ["x = 1"],
        "{}",
        report.render()
    );
}

#[test]
fn inner_global_does_not_hide_the_outer_unused_local() {
    let src = "def outer() { x = 1; def inner() { global x; x = 3 }; inner(); return 0 }\n";
    let report = lint_source("t.vine", src);
    assert_eq!(
        flagged(&report, src, "V011"),
        ["x = 1"],
        "{}",
        report.render()
    );
}
