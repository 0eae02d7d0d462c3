//! Waiver-syntax behaviour and the clean-workspace self-run gate.

use std::path::Path;

use tq_lint::{lint_source, L_OPID, L_WAIVER};

const BAD_REPLY: &str = "Reply { op_id: OpId::fresh(), round_epoch: 0, result: r }";

fn one_opid_diag(src: &str) -> tq_lint::Diagnostic {
    let diags = lint_source("crates/cluster/src/x.rs", src);
    let mut hits = diags.into_iter().filter(|d| d.lint == L_OPID);
    let d = hits.next().expect("opid-echo should fire");
    assert!(hits.next().is_none(), "expected exactly one opid-echo hit");
    d
}

#[test]
fn trailing_waiver_covers_its_own_line() {
    let src = format!(
        "fn f(r: R) -> Reply {{\n    {BAD_REPLY} // tq-lint: allow(opid-echo) -- fixture: fabricated on purpose\n}}\n"
    );
    assert!(one_opid_diag(&src).waived);
}

#[test]
fn own_line_waiver_covers_the_next_code_line() {
    let src = format!(
        "fn f(r: R) -> Reply {{\n    // tq-lint: allow(opid-echo) -- fixture: fabricated on purpose\n    {BAD_REPLY}\n}}\n"
    );
    assert!(one_opid_diag(&src).waived);
}

#[test]
fn waiver_does_not_leak_past_the_next_line() {
    let src = format!(
        "fn f(r: R) -> Reply {{\n    // tq-lint: allow(opid-echo) -- fixture: only covers the next line\n    let x = 1;\n    {BAD_REPLY}\n}}\n"
    );
    assert!(!one_opid_diag(&src).waived);
}

#[test]
fn waiver_for_a_different_lint_does_not_apply() {
    // An `opid-echo` waiver over a line whose finding is a malformed
    // waiver (`waiver-syntax`): the lints differ, so nothing is excused.
    let src = "fn f() {\n    // tq-lint: allow(opid-echo) -- names a different lint on purpose\n    let x = 1; // tq-lint: allow(no-such-lint) -- bogus\n}\n";
    let diags = lint_source("crates/cluster/src/x.rs", src);
    let unknown = diags
        .iter()
        .find(|d| d.message.contains("no-such-lint"))
        .expect("the unknown lint is reported");
    assert_eq!(
        (unknown.lint, unknown.line, unknown.waived),
        (L_WAIVER, 3, false)
    );
}

#[test]
fn a_waiver_that_excuses_nothing_is_an_error() {
    // The reply threads the envelope's op id, so `opid-echo` has nothing
    // to excuse on the line the waiver covers.
    let src = "fn f(env: Envelope) -> Reply {\n    // tq-lint: allow(opid-echo) -- stale: the reply echoes its envelope\n    Reply { op_id: env.op_id, round_epoch: 0, result: r }\n}\n";
    let diags = lint_source("crates/cluster/src/x.rs", src);
    let stale: Vec<_> = diags.iter().filter(|d| d.lint == L_WAIVER).collect();
    assert_eq!(stale.len(), 1, "{diags:?}");
    assert_eq!(stale[0].line, 2);
    assert!(
        stale[0].message.contains("excuses no finding"),
        "{}",
        stale[0]
    );
    assert!(!stale[0].waived);
}

#[test]
fn missing_justification_is_rejected_and_does_not_waive() {
    let src = format!("fn f(r: R) -> Reply {{\n    {BAD_REPLY} // tq-lint: allow(opid-echo)\n}}\n");
    let diags = lint_source("crates/cluster/src/x.rs", &src);
    assert!(
        diags
            .iter()
            .any(|d| d.lint == L_WAIVER && d.message.contains("justification")),
        "malformed waiver must produce a waiver-syntax diagnostic"
    );
    assert!(
        diags.iter().any(|d| d.lint == L_OPID && !d.waived),
        "a malformed waiver must not suppress the underlying diagnostic"
    );
}

#[test]
fn unknown_lint_name_is_rejected() {
    let src = "fn f() {}\n// tq-lint: allow(no-such-lint) -- bogus\n";
    let diags = lint_source("crates/cluster/src/x.rs", src);
    assert!(diags
        .iter()
        .any(|d| d.lint == L_WAIVER && d.message.contains("no-such-lint")));
}

#[test]
fn waiver_syntax_itself_cannot_be_waived() {
    let src = "fn f() {}\n// tq-lint: allow(waiver-syntax) -- nice try\n";
    let diags = lint_source("crates/cluster/src/x.rs", src);
    assert!(
        diags.iter().any(|d| d.lint == L_WAIVER && !d.waived),
        "waiving the waiver meta-lint must be rejected"
    );
}

/// The standing gate: the workspace itself lints clean under
/// `--deny-all`. Run from the lint crate, two levels below the root.
#[test]
fn workspace_is_clean_under_deny_all() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = tq_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        report.files > 50,
        "walk found too few files: {}",
        report.files
    );
    let errors: Vec<String> = report.errors().map(|d| d.to_string()).collect();
    assert!(
        errors.is_empty(),
        "unwaived lint errors in the workspace:\n{}",
        errors.join("\n")
    );
    assert!(
        report.waived() >= 1,
        "the documented in-tree waivers should be visible to the walk"
    );
}
