//! Every lint must demonstrably fire on its known-bad fixture, at the
//! right spans — no lint is allowed to be vacuous. Fixtures mark each
//! expected diagnostic line with a `FIRE` comment (twice for lines that
//! produce two diagnostics); the tests compare the marker multiset
//! against the diagnostics the lint actually produced.

use std::collections::BTreeMap;

use tq_lint::lint_source;

/// `(line, expected diagnostic count)` for every marked fixture line.
fn fire_lines(src: &str) -> Vec<(u32, usize)> {
    src.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            let c = l.matches("FIRE").count();
            if c > 0 {
                Some((u32::try_from(i + 1).unwrap_or(0), c))
            } else {
                None
            }
        })
        .collect()
}

/// `(line, count)` of unwaived diagnostics of `lint` in `src`.
fn diag_lines(path: &str, src: &str, lint: &str) -> Vec<(u32, usize)> {
    let mut by_line: BTreeMap<u32, usize> = BTreeMap::new();
    for d in lint_source(path, src) {
        if d.lint == lint && !d.waived {
            *by_line.entry(d.line).or_default() += 1;
        }
    }
    by_line.into_iter().collect()
}

fn assert_fires(fixture: &str, virtual_path: &str, lint: &str) {
    let expected = fire_lines(fixture);
    assert!(
        !expected.is_empty(),
        "fixture for {lint} has no FIRE markers"
    );
    let got = diag_lines(virtual_path, fixture, lint);
    assert_eq!(
        got, expected,
        "{lint} diagnostics (left) did not match the FIRE markers (right)"
    );
}

#[test]
fn l2_opid_echo_fires() {
    assert_fires(
        include_str!("fixtures/l2_reply.rs"),
        "crates/cluster/src/reply_site.rs",
        "opid-echo",
    );
}
