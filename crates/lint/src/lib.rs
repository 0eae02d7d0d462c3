//! Workspace invariant linter for the TRAP-ERC reproduction.
//!
//! `tq-lint` tokenizes every first-party source file with a hand-rolled
//! lexer (the workspace builds from vendored stand-ins; no
//! syn/proc-macro2) and runs the one project-specific rule that neither
//! rustc nor clippy expresses yet. Every other contract lives in the
//! compiler or in a debug-build check: privacy keeps the applied-op
//! window's set behind its monotone helpers, exhaustive `match`es over
//! the `#[repr(u8)]` wire tags keep every decoder total, `clippy.toml`
//! plus a scoped `deny` bans wall clocks, entropy, raw mutexes and panics
//! where they would break determinism or totality, a
//! `tq_cluster::sync::Mutex` guard held across a round panics a debug
//! build, a re-issue cannot be written without the `RetryPermit` the
//! retry budget hands out, and the workspace forbids `unsafe_code`
//! outside `tq-gf256`. What is left here:
//!
//! * `opid-echo` — every `Reply`/`RoundReply` literal must thread the
//!   incoming envelope's `op_id` (PR 4's echo contract).
//!
//! Waivers are inline comments of the form `// <marker> allow(NAME) --
//! JUSTIFICATION`, where `<marker>` is the crate name followed by a colon
//! (spelled out in [`WAIVER_MARKER`]; written indirectly here so this very
//! doc comment does not parse as a waiver). The justification is mandatory.
//! A trailing waiver covers its own line; a waiver on a line of its own
//! covers the next code line. Malformed or unknown waivers, and a waiver
//! that excuses no finding of its lint (the rule `#[expect]` keeps for
//! rustc's lints), are themselves diagnostics (`waiver-syntax`) and are
//! never waivable.

use std::path::Path;

pub const L_OPID: &str = "opid-echo";
pub const L_WAIVER: &str = "waiver-syntax";

/// The lint catalog: `(name, what it enforces)`. `waiver-syntax` is the
/// meta-lint for malformed or stale waivers and cannot itself be waived.
pub const LINTS: &[(&str, &str)] = &[
    (
        L_OPID,
        "Reply/RoundReply literals must thread the incoming op_id (echo contract, PR 4)",
    ),
    (
        L_WAIVER,
        "waivers must parse as allow(<lint>) -- <justification> and excuse a finding (not waivable)",
    ),
];

#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub lint: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub waived: bool,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = if self.waived { " (waived)" } else { "" };
        write!(
            f,
            "{}:{}: [{}]{} {}",
            self.file, self.line, self.lint, w, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Kind {
    Ident,
    Punct(char),
    Lit,
}

#[derive(Debug, Clone)]
struct Tok {
    kind: Kind,
    text: String,
    line: u32,
}

#[derive(Debug, Clone)]
struct Comment {
    line: u32,
    text: String,
    own_line: bool,
}

fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let c: Vec<char> = src.chars().collect();
    let n = c.len();
    let mut toks: Vec<Tok> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut last_tok_line = 0u32;

    let ident_start = |ch: char| ch.is_alphabetic() || ch == '_';
    let ident_char = |ch: char| ch.is_alphanumeric() || ch == '_';

    while i < n {
        let ch = c[i];
        if ch == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (includes doc comments).
        if ch == '/' && i + 1 < n && c[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && c[j] != '\n' {
                j += 1;
            }
            comments.push(Comment {
                line,
                text: c[start..j].iter().collect(),
                own_line: last_tok_line != line,
            });
            i = j;
            continue;
        }
        // Block comment, nested.
        if ch == '/' && i + 1 < n && c[i + 1] == '*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if c[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if c[j] == '/' && j + 1 < n && c[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if c[j] == '*' && j + 1 < n && c[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // String literal.
        if ch == '"' {
            let tline = line;
            let mut j = i + 1;
            while j < n {
                if c[j] == '\\' {
                    j += 2;
                } else if c[j] == '"' {
                    j += 1;
                    break;
                } else {
                    if c[j] == '\n' {
                        line += 1;
                    }
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: Kind::Lit,
                text: String::new(),
                line: tline,
            });
            last_tok_line = tline;
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if ch == '\'' {
            if i + 1 < n && c[i + 1] == '\\' {
                let mut j = i + 3; // opening quote, backslash, escaped char
                while j < n && c[j] != '\'' {
                    j += 1;
                }
                toks.push(Tok {
                    kind: Kind::Lit,
                    text: String::new(),
                    line,
                });
                last_tok_line = line;
                i = j + 1;
                continue;
            }
            if i + 2 < n && c[i + 2] == '\'' {
                toks.push(Tok {
                    kind: Kind::Lit,
                    text: String::new(),
                    line,
                });
                last_tok_line = line;
                i += 3;
                continue;
            }
            // Lifetime: skip the tick and its identifier, emit nothing.
            let mut j = i + 1;
            while j < n && ident_char(c[j]) {
                j += 1;
            }
            i = j;
            continue;
        }
        // Number literal.
        if ch.is_ascii_digit() {
            let tline = line;
            let mut j = i + 1;
            while j < n && (c[j].is_ascii_alphanumeric() || c[j] == '_') {
                j += 1;
            }
            if j + 1 < n && c[j] == '.' && c[j + 1].is_ascii_digit() {
                j += 1;
                while j < n && (c[j].is_ascii_alphanumeric() || c[j] == '_') {
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: Kind::Lit,
                text: String::new(),
                line: tline,
            });
            last_tok_line = tline;
            i = j;
            continue;
        }
        // Identifier (with raw/byte string prefix handling).
        if ident_start(ch) {
            let tline = line;
            let mut j = i + 1;
            while j < n && ident_char(c[j]) {
                j += 1;
            }
            let word: String = c[i..j].iter().collect();
            // Raw strings: r"..", r#".."#, br".."
            if (word == "r" || word == "br") && j < n && (c[j] == '"' || c[j] == '#') {
                let mut hashes = 0usize;
                let mut k = j;
                while k < n && c[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && c[k] == '"' {
                    k += 1;
                    'raw: while k < n {
                        if c[k] == '\n' {
                            line += 1;
                        } else if c[k] == '"' {
                            let mut h = 0usize;
                            while h < hashes && k + 1 + h < n && c[k + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                k += 1 + hashes;
                                break 'raw;
                            }
                        }
                        k += 1;
                    }
                    toks.push(Tok {
                        kind: Kind::Lit,
                        text: String::new(),
                        line: tline,
                    });
                    last_tok_line = tline;
                    i = k;
                    continue;
                }
            }
            // Byte strings/chars: b".." / b'..' — let the next loop pass
            // lex the quoted part as a normal string/char literal.
            toks.push(Tok {
                kind: Kind::Ident,
                text: word,
                line: tline,
            });
            last_tok_line = tline;
            i = j;
            continue;
        }
        // Everything else: single-char punctuation.
        toks.push(Tok {
            kind: Kind::Punct(ch),
            text: String::new(),
            line,
        });
        last_tok_line = line;
        i += 1;
    }
    (toks, comments)
}

// ---------------------------------------------------------------------------
// Context pass: test regions and enum bodies
// ---------------------------------------------------------------------------

struct Ctx {
    in_test: Vec<bool>,
    in_enum: Vec<bool>,
}

fn build_ctx(toks: &[Tok]) -> Ctx {
    let n = toks.len();
    let mut ctx = Ctx {
        in_test: vec![false; n],
        in_enum: vec![false; n],
    };
    let mut depth: i32 = 0;
    let mut paren: i32 = 0;
    let mut brack: i32 = 0;
    let mut test_stack: Vec<i32> = Vec::new();
    let mut enum_stack: Vec<i32> = Vec::new();
    let mut pending_attr_test = false;
    let mut pending_test_item = false;
    let mut pending_enum = false;

    let is_p = |i: usize, ch: char| matches!(toks.get(i), Some(t) if t.kind == Kind::Punct(ch));

    let mut i = 0usize;
    while i < n {
        ctx.in_test[i] = !test_stack.is_empty();
        ctx.in_enum[i] = !enum_stack.is_empty();

        // Attributes: scan `#[..]` / `#![..]` wholesale so their contents
        // (derive lists, cfg predicates) never reach keyword handling.
        if is_p(i, '#') {
            let open = if is_p(i + 1, '[') {
                Some(i + 2)
            } else if is_p(i + 1, '!') && is_p(i + 2, '[') {
                Some(i + 3)
            } else {
                None
            };
            if let Some(start) = open {
                let mut bd = 1i32;
                let mut saw_test = false;
                let mut saw_not = false;
                let mut j = start;
                while j < n && bd > 0 {
                    match &toks[j].kind {
                        Kind::Punct('[') => bd += 1,
                        Kind::Punct(']') => bd -= 1,
                        Kind::Ident => {
                            saw_test |= toks[j].text == "test";
                            saw_not |= toks[j].text == "not";
                        }
                        _ => {}
                    }
                    ctx.in_test[j] = !test_stack.is_empty();
                    ctx.in_enum[j] = !enum_stack.is_empty();
                    j += 1;
                }
                if saw_test && !saw_not {
                    pending_attr_test = true;
                }
                i = j;
                continue;
            }
        }

        match &toks[i].kind {
            Kind::Ident => match toks[i].text.as_str() {
                "fn" | "mod" | "struct" | "impl" | "trait" | "union" | "type" | "static"
                | "use"
                    if pending_attr_test =>
                {
                    pending_test_item = true;
                    pending_attr_test = false;
                }
                "enum" => {
                    if pending_attr_test {
                        pending_test_item = true;
                        pending_attr_test = false;
                    }
                    pending_enum = true;
                }
                _ => {}
            },
            Kind::Punct('(') => paren += 1,
            Kind::Punct(')') => paren -= 1,
            Kind::Punct('[') => brack += 1,
            Kind::Punct(']') => brack -= 1,
            Kind::Punct(';') if paren == 0 && brack == 0 => {
                // Bodyless items: trait method decls, `mod x;`, uses.
                pending_enum = false;
                pending_test_item = false;
                pending_attr_test = false;
            }
            Kind::Punct('{') => {
                depth += 1;
                if pending_test_item {
                    test_stack.push(depth);
                    pending_test_item = false;
                }
                if pending_enum {
                    enum_stack.push(depth);
                    pending_enum = false;
                }
            }
            Kind::Punct('}') => {
                while test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                while enum_stack.last() == Some(&depth) {
                    enum_stack.pop();
                }
                depth -= 1;
            }
            _ => {}
        }
        i += 1;
    }
    ctx
}

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

/// The comment marker that introduces a waiver.
pub const WAIVER_MARKER: &str = "tq-lint:";

#[derive(Debug)]
struct Waiver {
    lint: String,
    /// The waiver comment's own line, where a stale waiver is reported.
    line: u32,
    /// The lines it covers: its own, and the next code line when the
    /// comment stands alone.
    lines: Vec<u32>,
}

fn parse_waivers(comments: &[Comment], toks: &[Tok], file: &str) -> (Vec<Waiver>, Vec<Diagnostic>) {
    let mut waivers = Vec::new();
    let mut diags = Vec::new();
    let mut bad = |line: u32, message: String| {
        diags.push(Diagnostic {
            lint: L_WAIVER,
            file: file.to_string(),
            line,
            message,
            waived: false,
        });
    };
    for cm in comments {
        let Some(pos) = cm.text.find(WAIVER_MARKER) else {
            continue;
        };
        let rest = cm.text[pos + WAIVER_MARKER.len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            bad(
                cm.line,
                "malformed waiver: expected `allow(<lint>) -- <justification>`".to_string(),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad(cm.line, "malformed waiver: missing `)`".to_string());
            continue;
        };
        let name = rest[..close].trim();
        if !LINTS.iter().any(|&(l, _)| l == name) || name == L_WAIVER {
            bad(cm.line, format!("waiver names unknown lint `{name}`"));
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let Some(just) = after.strip_prefix("--") else {
            bad(
                cm.line,
                format!("waiver for `{name}` is missing the mandatory `-- <justification>`"),
            );
            continue;
        };
        if just.trim().is_empty() {
            bad(
                cm.line,
                format!("waiver for `{name}` has an empty justification"),
            );
            continue;
        }
        let mut lines = vec![cm.line];
        if cm.own_line {
            // An own-line waiver covers the next code line.
            if let Some(t) = toks.iter().find(|t| t.line > cm.line) {
                lines.push(t.line);
            }
        }
        waivers.push(Waiver {
            lint: name.to_string(),
            line: cm.line,
            lines,
        });
    }
    (waivers, diags)
}
// ---------------------------------------------------------------------------
// Shared pass scaffolding
// ---------------------------------------------------------------------------

struct FileCtx<'a> {
    path: &'a str,
    toks: &'a [Tok],
    ctx: &'a Ctx,
}

impl FileCtx<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i) {
            Some(t) if t.kind == Kind::Ident => Some(&t.text),
            _ => None,
        }
    }
    fn p(&self, i: usize, ch: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == Kind::Punct(ch))
    }
    fn line(&self, i: usize) -> u32 {
        self.toks.get(i).map_or(0, |t| t.line)
    }
    fn diag(&self, lint: &'static str, i: usize, message: String) -> Diagnostic {
        Diagnostic {
            lint,
            file: self.path.to_string(),
            line: self.line(i),
            message,
            waived: false,
        }
    }
    /// Index of the `}` matching the `{` at `open` (brace counting only).
    fn match_brace(&self, open: usize) -> usize {
        let mut d = 0i32;
        for (k, t) in self.toks.iter().enumerate().skip(open) {
            match t.kind {
                Kind::Punct('{') => d += 1,
                Kind::Punct('}') => {
                    d -= 1;
                    if d == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
        self.toks.len().saturating_sub(1)
    }
}
// ---------------------------------------------------------------------------
// L2: opid-echo
// ---------------------------------------------------------------------------

fn l2_opid_echo(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let n = f.toks.len();
    for i in 0..n {
        if f.ctx.in_test[i] || f.ctx.in_enum[i] {
            continue;
        }
        let Some(name) = f.ident(i) else { continue };
        if name != "Reply" && name != "RoundReply" {
            continue;
        }
        if !f.p(i + 1, '{') {
            continue;
        }
        // Not a literal: type/item positions (`-> Reply {`, `impl Reply {`,
        // `struct Reply {`) and path-qualified enum variants
        // (`LimboMsg::Reply {`) are skipped.
        if i > 0 {
            match &f.toks[i - 1].kind {
                Kind::Punct('>') | Kind::Punct(':') => continue,
                Kind::Ident => {
                    if matches!(
                        f.toks[i - 1].text.as_str(),
                        "struct" | "enum" | "union" | "trait" | "impl" | "for" | "dyn" | "mod"
                    ) {
                        continue;
                    }
                }
                _ => {}
            }
        }
        let open = i + 1;
        let close = f.match_brace(open);
        // Scan the literal body at nesting depth 0 (relative to the braces).
        let mut d = 0i32;
        let mut has_dotdot = false;
        let mut op_id_ok: Option<bool> = None; // None: no op_id field at all
        let mut j = open + 1;
        while j < close {
            match &f.toks[j].kind {
                Kind::Punct('{') | Kind::Punct('(') | Kind::Punct('[') => d += 1,
                Kind::Punct('}') | Kind::Punct(')') | Kind::Punct(']') => d -= 1,
                Kind::Punct('.') if d == 0 && f.p(j + 1, '.') => {
                    has_dotdot = true;
                }
                Kind::Ident if d == 0 && f.toks[j].text == "op_id" => {
                    let field_pos = j == open + 1 || f.p(j - 1, ',');
                    if field_pos {
                        if f.p(j + 1, ':') {
                            // `op_id: <expr>` — the expression must mention
                            // an `op_id` (e.g. `env.op_id`, `header.op_id`).
                            let mut k = j + 2;
                            let mut vd = 0i32;
                            let mut ok = false;
                            while k < close {
                                match &f.toks[k].kind {
                                    Kind::Punct('{') | Kind::Punct('(') | Kind::Punct('[') => {
                                        vd += 1
                                    }
                                    Kind::Punct('}') | Kind::Punct(')') | Kind::Punct(']') => {
                                        vd -= 1
                                    }
                                    Kind::Punct(',') if vd == 0 => break,
                                    Kind::Ident if f.toks[k].text == "op_id" => ok = true,
                                    _ => {}
                                }
                                k += 1;
                            }
                            op_id_ok = Some(ok);
                        } else {
                            // Shorthand `op_id` — threads the binding.
                            op_id_ok = Some(true);
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if has_dotdot {
            // Destructuring pattern or struct-update from an existing reply;
            // either way the op_id originates from a real reply.
            continue;
        }
        match op_id_ok {
            None => out.push(f.diag(
                L_OPID,
                i,
                format!(
                    "`{name}` literal without an `op_id` field; every reply must echo the \
                     incoming envelope's op id (use `Reply::to(&env, ..)`)"
                ),
            )),
            Some(false) => out.push(f.diag(
                L_OPID,
                i,
                format!(
                    "`{name}` literal fabricates its identity: the `op_id` expression does \
                     not thread an incoming `op_id`"
                ),
            )),
            Some(true) => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint a single source file. `path` is the workspace-relative path with
/// forward slashes that diagnostics report, so tests can feed fixture
/// sources under virtual paths.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let (toks, comments) = lex(src);
    let ctx = build_ctx(&toks);
    let f = FileCtx {
        path,
        toks: &toks,
        ctx: &ctx,
    };
    let (waivers, mut diags) = parse_waivers(&comments, &toks, path);
    l2_opid_echo(&f, &mut diags);
    let excuses = |w: &Waiver, d: &Diagnostic| w.lint == d.lint && w.lines.contains(&d.line);
    for d in &mut diags {
        d.waived = waivers.iter().any(|w| excuses(w, d));
    }
    // A waiver whose finding is gone would silently excuse the next one
    // written on its line: like an unfulfilled `#[expect]`, it is an error.
    for w in &waivers {
        if !diags.iter().any(|d| excuses(w, d)) {
            diags.push(Diagnostic {
                lint: L_WAIVER,
                file: path.to_string(),
                line: w.line,
                message: format!("waiver for `{}` excuses no finding; delete it", w.lint),
                waived: false,
            });
        }
    }
    diags.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    diags
}

pub struct Report {
    pub files: usize,
    pub diags: Vec<Diagnostic>,
}

impl Report {
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| !d.waived)
    }
    pub fn waived(&self) -> usize {
        self.diags.iter().filter(|d| d.waived).count()
    }
}

/// Walk the first-party source tree under `root` and lint every `.rs` file.
/// `vendor/`, `target/`, and fixture directories are skipped.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for top in ["src", "crates", "tests", "examples"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let mut diags = Vec::new();
    for file in &files {
        let src = std::fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        diags.extend(lint_source(&rel, &src));
    }
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    Ok(Report {
        files: files.len(),
        diags,
    })
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
