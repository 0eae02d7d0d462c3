//! Workspace invariant linter for the TRAP-ERC reproduction.
//!
//! `tq-lint` tokenizes every first-party source file with a hand-rolled
//! lexer (the container is offline; no syn/proc-macro2) and runs a catalog
//! of project-specific lints, each enforcing a contract a past PR
//! established dynamically:
//!
//! * `idempotent-mutation` — node-state mutations in
//!   `crates/cluster/src/node.rs` must go through the monotone helpers
//!   (PR 4's idempotency contract).
//! * `opid-echo` — every `Reply`/`RoundReply` literal must thread the
//!   incoming envelope's `op_id` (PR 4's echo contract).
//! * `wire-tag-coverage` — every wire tag constant is unique within its
//!   decoder's namespace, every emitted tag has a decoder arm, and the
//!   `FrameKind` code tables stay symmetric (PR 7's total-decoding
//!   contract at the catalog level).
//! * `sim-determinism` — no wall clocks, OS entropy, or default-hashed
//!   maps in sim-reachable modules (PR 3's DST determinism contract).
//! * `panic-freedom` — no `unwrap`/`expect`/`panic!`/slice-indexing in
//!   wire decode paths or `NodeApi::execute` serve paths (PR 7).
//! * `lock-across-transport` — a lock guard's scope may not enclose a
//!   `transport.` call.
//! * `unsafe-allow` — no new `allow(unsafe_code)` beyond the documented
//!   `crates/gf256/src/simd.rs` site.
//! * `bounded-retry` — a loop in a client dispatch surface that puts
//!   envelopes on the wire must consult `RetryBudget::try_spend` or
//!   carry a waiver naming why it is bounded (PR 10's retry-storm
//!   contract: unbudgeted retry loops amplify load exactly when the
//!   cluster can least afford it).
//!
//! Waivers are inline comments of the form `// <marker> allow(NAME) --
//! JUSTIFICATION`, where `<marker>` is the crate name followed by a colon
//! (spelled out in [`WAIVER_MARKER`]; written indirectly here so this very
//! doc comment does not parse as a waiver). The justification is mandatory.
//! A trailing waiver covers its own line; a waiver on a line of its own
//! covers the next code line. Malformed or unknown waivers are themselves
//! diagnostics (`waiver-syntax`) and are never waivable.

use std::path::Path;

pub const L_IDEMPOTENT: &str = "idempotent-mutation";
pub const L_OPID: &str = "opid-echo";
pub const L_WIRETAG: &str = "wire-tag-coverage";
pub const L_SIMDET: &str = "sim-determinism";
pub const L_PANIC: &str = "panic-freedom";
pub const L_LOCK: &str = "lock-across-transport";
pub const L_UNSAFE: &str = "unsafe-allow";
pub const L_RETRY: &str = "bounded-retry";
pub const L_WAIVER: &str = "waiver-syntax";

/// The lint catalog: `(name, what it enforces)`. `waiver-syntax` is the
/// meta-lint for malformed waivers and cannot itself be waived.
pub const LINTS: &[(&str, &str)] = &[
    (
        L_IDEMPOTENT,
        "node.rs: .insert()/.remove() only inside the monotone helpers (idempotency, PR 4)",
    ),
    (
        L_OPID,
        "Reply/RoundReply literals must thread the incoming op_id (echo contract, PR 4)",
    ),
    (
        L_WIRETAG,
        "wire.rs: tag values unique per decoder, every emitted/defined tag has a decoder arm",
    ),
    (
        L_SIMDET,
        "sim-reachable code: no Instant/SystemTime::now, thread::sleep, thread_rng, or default-hashed HashMap/HashSet",
    ),
    (
        L_PANIC,
        "wire decode + node serve paths: no unwrap/expect/panic!/slice indexing (totality, PR 7)",
    ),
    (
        L_LOCK,
        "a lock guard scope may not enclose a transport. call",
    ),
    (
        L_UNSAFE,
        "no allow(unsafe_code) outside crates/gf256/src/simd.rs",
    ),
    (
        L_RETRY,
        "client dispatch loops must consult RetryBudget::try_spend (or carry a waiver naming why the loop is bounded)",
    ),
    (
        L_WAIVER,
        "waivers must parse as allow(<lint>) -- <justification> (not waivable)",
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
        // Number literal (keep text: tag/kind values are needed).
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
                text: c[i..j].iter().collect(),
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
// Context pass: test regions, enum bodies, enclosing functions
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FnInfo {
    name: String,
    /// Token range `[start, end)` covering `fn` keyword through the body `{`.
    sig: (usize, usize),
    /// Token indices of the body's opening and closing braces (inclusive).
    body: (usize, usize),
    is_test: bool,
}

struct Ctx {
    in_test: Vec<bool>,
    in_enum: Vec<bool>,
    fn_of: Vec<Option<usize>>,
    fns: Vec<FnInfo>,
}

fn build_ctx(toks: &[Tok]) -> Ctx {
    let n = toks.len();
    let mut ctx = Ctx {
        in_test: vec![false; n],
        in_enum: vec![false; n],
        fn_of: vec![None; n],
        fns: Vec::new(),
    };
    let mut depth: i32 = 0;
    let mut paren: i32 = 0;
    let mut brack: i32 = 0;
    let mut test_stack: Vec<i32> = Vec::new();
    let mut enum_stack: Vec<i32> = Vec::new();
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut pending_attr_test = false;
    let mut pending_test_item = false;
    let mut pending_enum = false;
    // (name, sig_start): a fn header seen, waiting for its body `{`.
    let mut awaiting: Option<(String, usize)> = None;

    let is_p = |i: usize, ch: char| matches!(toks.get(i), Some(t) if t.kind == Kind::Punct(ch));

    let mut i = 0usize;
    while i < n {
        ctx.in_test[i] = !test_stack.is_empty();
        ctx.in_enum[i] = !enum_stack.is_empty();
        ctx.fn_of[i] = fn_stack.last().map(|&(f, _)| f);

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
                    ctx.fn_of[j] = fn_stack.last().map(|&(f, _)| f);
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
                "fn" => {
                    if pending_attr_test {
                        pending_test_item = true;
                        pending_attr_test = false;
                    }
                    // Only a named fn item (not a fn-pointer type) opens a
                    // new function frame.
                    if let Some(t) = toks.get(i + 1) {
                        if t.kind == Kind::Ident {
                            awaiting = Some((t.text.clone(), i));
                        }
                    }
                }
                "mod" | "struct" | "impl" | "trait" | "union" | "type" | "static" | "use"
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
                awaiting = None;
                pending_enum = false;
                pending_test_item = false;
                pending_attr_test = false;
            }
            Kind::Punct('{') => {
                depth += 1;
                if let Some((name, sig_start)) = awaiting.take() {
                    let idx = ctx.fns.len();
                    ctx.fns.push(FnInfo {
                        name,
                        sig: (sig_start, i),
                        body: (i, n.saturating_sub(1)),
                        is_test: pending_test_item || !test_stack.is_empty(),
                    });
                    fn_stack.push((idx, depth));
                }
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
                while fn_stack.last().is_some_and(|&(_, d)| d == depth) {
                    let (f, _) = fn_stack.pop().unwrap_or((0, 0));
                    ctx.fns[f].body.1 = i;
                }
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
    fn id(&self, i: usize, s: &str) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == Kind::Ident && t.text == s)
    }
    fn ident(&self, i: usize) -> Option<&str> {
        match self.toks.get(i) {
            Some(t) if t.kind == Kind::Ident => Some(&t.text),
            _ => None,
        }
    }
    fn p(&self, i: usize, ch: char) -> bool {
        matches!(self.toks.get(i), Some(t) if t.kind == Kind::Punct(ch))
    }
    fn lit(&self, i: usize) -> Option<&str> {
        match self.toks.get(i) {
            Some(t) if t.kind == Kind::Lit => Some(&t.text),
            _ => None,
        }
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

fn parse_u8(text: &str) -> Option<u8> {
    let t = text.replace('_', "");
    let t = t.strip_suffix("u8").unwrap_or(&t);
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else if let Some(bin) = t.strip_prefix("0b") {
        u8::from_str_radix(bin, 2).ok()
    } else {
        t.parse().ok()
    }
}

// ---------------------------------------------------------------------------
// L1: idempotent-mutation
// ---------------------------------------------------------------------------

/// Monotone helpers that are allowed to touch node-state maps directly.
const L1_ALLOWED_FNS: &[&str] = &["remember"];

fn l1_idempotent_mutation(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !f.path.ends_with("crates/cluster/src/node.rs") {
        return;
    }
    for i in 1..f.toks.len() {
        if f.ctx.in_test[i] {
            continue;
        }
        let Some(m) = f.ident(i) else { continue };
        if (m == "insert" || m == "remove") && f.p(i - 1, '.') && f.p(i + 1, '(') {
            let fname = f.ctx.fn_of[i]
                .map(|x| f.ctx.fns[x].name.as_str())
                .unwrap_or("");
            if !L1_ALLOWED_FNS.contains(&fname) {
                out.push(f.diag(
                    L_IDEMPOTENT,
                    i,
                    format!(
                        "direct `.{m}(` on node state in `{fname}`; mutations must go through \
                         a monotone-conditional helper ({L1_ALLOWED_FNS:?}) so redelivered \
                         ops stay idempotent"
                    ),
                ));
            }
        }
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
// L3: wire-tag-coverage
// ---------------------------------------------------------------------------

fn l3_wire_tag_coverage(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !f.path.ends_with("wire.rs") {
        return;
    }
    let n = f.toks.len();

    // 1. Collect `pub const NAME: u8 = <lit>;` inside `mod tag { .. }`.
    let mut tag_mod: Option<(usize, usize)> = None;
    for i in 0..n {
        if f.id(i, "mod") && f.id(i + 1, "tag") && f.p(i + 2, '{') {
            tag_mod = Some((i + 2, f.match_brace(i + 2)));
            break;
        }
    }
    let mut consts: Vec<(String, u8, usize)> = Vec::new(); // (name, value, tok idx)
    if let Some((o, c)) = tag_mod {
        let mut j = o + 1;
        while j < c {
            if f.id(j, "const") {
                if let Some(name) = f.ident(j + 1) {
                    let cname = name.to_string();
                    let mut k = j + 2;
                    let mut val = None;
                    while k < c && !f.p(k, ';') {
                        if f.p(k, '=') {
                            if let Some(v) = f.lit(k + 1).and_then(parse_u8) {
                                val = Some(v);
                            }
                        }
                        k += 1;
                    }
                    if let Some(v) = val {
                        consts.push((cname, v, j + 1));
                    }
                    j = k;
                }
            }
            j += 1;
        }
    }

    // 2. Classify every `tag::NAME` use outside the module as a decoder arm
    //    (`tag::NAME =>`, or an alternation limb) or an emission.
    let (mod_o, mod_c) = tag_mod.unwrap_or((usize::MAX, 0));
    let mut arms: Vec<(String, Option<usize>)> = Vec::new();
    let mut emits: Vec<(String, usize)> = Vec::new();
    for i in 0..n {
        if f.ctx.in_test[i] || (i >= mod_o && i <= mod_c) {
            continue;
        }
        if !(f.id(i, "tag") && f.p(i + 1, ':') && f.p(i + 2, ':')) {
            continue;
        }
        let Some(name) = f.ident(i + 3) else { continue };
        if !consts.iter().any(|(c, _, _)| c == name) {
            continue;
        }
        let after = i + 4;
        let is_arm = (f.p(after, '=') && f.p(after + 1, '>'))
            || f.p(after, '|')
            || (i > 0 && f.p(i - 1, '|'));
        if is_arm {
            arms.push((name.to_string(), f.ctx.fn_of[i]));
        } else {
            emits.push((name.to_string(), i));
        }
    }

    // 3a. Within one decoder fn, two tag names must not share a value.
    let mut fns_with_arms: Vec<Option<usize>> = arms.iter().map(|&(_, fx)| fx).collect();
    fns_with_arms.sort_unstable();
    fns_with_arms.dedup();
    for fx in fns_with_arms {
        let names: Vec<&str> = arms
            .iter()
            .filter(|&&(_, a)| a == fx)
            .map(|(nm, _)| nm.as_str())
            .collect();
        for (ai, a) in names.iter().enumerate() {
            for b in names.iter().skip(ai + 1) {
                if a == b {
                    continue;
                }
                let va = consts.iter().find(|(c, _, _)| c == a).map(|&(_, v, _)| v);
                let vb = consts.iter().find(|(c, _, _)| c == b).map(|&(_, v, _)| v);
                if va.is_some() && va == vb {
                    let idx = consts
                        .iter()
                        .find(|(c, _, _)| c == b)
                        .map(|&(_, _, k)| k)
                        .unwrap_or(0);
                    let fname = fx.map(|x| f.ctx.fns[x].name.as_str()).unwrap_or("?");
                    out.push(f.diag(
                        L_WIRETAG,
                        idx,
                        format!(
                            "`tag::{a}` and `tag::{b}` share value {:#04x} but are matched \
                             by the same decoder `{fname}`; one arm is unreachable",
                            va.unwrap_or(0)
                        ),
                    ));
                }
            }
        }
    }

    // 3b. Every emitted tag needs a decoder arm somewhere.
    let has_arm = |name: &str| arms.iter().any(|(a, _)| a == name);
    let mut reported: Vec<&str> = Vec::new();
    for (name, i) in &emits {
        if !has_arm(name) && !reported.contains(&name.as_str()) {
            reported.push(name);
            out.push(f.diag(
                L_WIRETAG,
                *i,
                format!("`tag::{name}` is emitted by an encoder but no decoder arm matches it"),
            ));
        }
    }

    // 3c. Every locally defined tag needs an explicit arm: the
    //     forward-compat skip path only excuses tags we did NOT define.
    for (name, _, idx) in &consts {
        if !has_arm(name) {
            out.push(f.diag(
                L_WIRETAG,
                *idx,
                format!(
                    "`tag::{name}` is defined but no decoder arm matches it; the \
                     forward-compat skip path only covers foreign tags"
                ),
            ));
        }
    }

    // 4. FrameKind code tables must stay symmetric and collision-free.
    let mut enc: Vec<(String, u8, usize)> = Vec::new();
    let mut dec: Vec<(String, u8)> = Vec::new();
    for i in 0..n {
        if f.ctx.in_test[i] {
            continue;
        }
        if !(f.id(i, "FrameKind") && f.p(i + 1, ':') && f.p(i + 2, ':')) {
            continue;
        }
        let Some(name) = f.ident(i + 3) else { continue };
        if f.p(i + 4, '=') && f.p(i + 5, '>') {
            if let Some(v) = f.lit(i + 6).and_then(parse_u8) {
                enc.push((name.to_string(), v, i));
                continue;
            }
        }
        // Decode arm: `<lit> => .. FrameKind::Name ..` a few tokens back.
        let lo = i.saturating_sub(8);
        for j in (lo..i).rev() {
            if f.p(j, '>') && j > 0 && f.p(j - 1, '=') {
                if let Some(v) = f.lit(j.saturating_sub(2)).and_then(parse_u8) {
                    dec.push((name.to_string(), v));
                }
                break;
            }
        }
    }
    for (name, v, i) in &enc {
        if !dec.iter().any(|(dn, dv)| dn == name && dv == v) {
            out.push(f.diag(
                L_WIRETAG,
                *i,
                format!(
                    "`FrameKind::{name}` encodes as {v:#04x} but `from_code` has no \
                     matching arm"
                ),
            ));
        }
        if enc.iter().any(|(on, ov, _)| on != name && ov == v) {
            out.push(f.diag(
                L_WIRETAG,
                *i,
                format!("`FrameKind::{name}` shares code {v:#04x} with another kind"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// L4: sim-determinism
// ---------------------------------------------------------------------------

/// Modules that must stay deterministic: the sim crate itself plus every
/// node-logic module reachable from `SimTransport` — the dispatch driver
/// included: it runs under the simulator's virtual clock, so a wall
/// clock or a sleep in it is an error. `tcp.rs` is excluded — it is
/// real-clock by nature and unreachable from the simulator.
fn l4_in_scope(path: &str) -> bool {
    path.contains("crates/sim/")
        || [
            "crates/cluster/src/sim.rs",
            "crates/cluster/src/driver.rs",
            "crates/cluster/src/node.rs",
            "crates/cluster/src/storage.rs",
            "crates/cluster/src/rpc.rs",
            "crates/cluster/src/wire.rs",
            "crates/cluster/src/quorum_round.rs",
            "crates/cluster/src/transport.rs",
            "crates/cluster/src/detmap.rs",
            "crates/cluster/src/health.rs",
        ]
        .iter()
        .any(|s| path.ends_with(s))
}

fn l4_sim_determinism(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !l4_in_scope(f.path) {
        return;
    }
    for i in 0..f.toks.len() {
        if f.ctx.in_test[i] {
            continue;
        }
        let Some(name) = f.ident(i) else { continue };
        let path_head =
            |head: &str| i >= 3 && f.p(i - 1, ':') && f.p(i - 2, ':') && f.id(i - 3, head);
        match name {
            "now" if path_head("Instant") || path_head("SystemTime") => {
                out.push(f.diag(
                    L_SIMDET,
                    i,
                    "wall-clock read in sim-reachable code; use the virtual clock".to_string(),
                ));
            }
            "sleep" if path_head("thread") => {
                out.push(
                    f.diag(
                        L_SIMDET,
                        i,
                        "`thread::sleep` in sim-reachable code; schedule on the virtual clock"
                            .to_string(),
                    ),
                );
            }
            "thread_rng" => {
                out.push(f.diag(
                    L_SIMDET,
                    i,
                    "OS entropy in sim-reachable code; thread the seeded DST rng".to_string(),
                ));
            }
            "HashMap" | "HashSet" | "RandomState" => {
                out.push(f.diag(
                    L_SIMDET,
                    i,
                    format!(
                        "`{name}` uses per-process random hashing (nondeterministic iteration \
                         order); use `detmap::Det{}`",
                        if name == "HashSet" {
                            "HashSet"
                        } else {
                            "HashMap"
                        }
                    ),
                ));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// L5: panic-freedom
// ---------------------------------------------------------------------------

fn l5_panic_freedom(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let is_wire = f.path.ends_with("wire.rs");
    let is_node = f.path.ends_with("crates/cluster/src/node.rs");
    if !is_wire && !is_node {
        return;
    }
    let sig_mentions = |fx: &FnInfo, names: &[&str]| {
        f.toks[fx.sig.0..fx.sig.1]
            .iter()
            .any(|t| t.kind == Kind::Ident && names.contains(&t.text.as_str()))
    };
    for fx in &f.ctx.fns {
        if fx.is_test {
            continue;
        }
        // Decode paths return DecodeError; serve paths return Reply or
        // NodeError. Everything else (encoders, lock plumbing) is free to
        // use infallible idioms.
        let scoped = if is_wire {
            sig_mentions(fx, &["DecodeError"])
        } else {
            sig_mentions(fx, &["NodeError", "Reply"])
        };
        if !scoped {
            continue;
        }
        let (open, close) = fx.body;
        for i in open..=close.min(f.toks.len().saturating_sub(1)) {
            if f.ctx.in_test[i] {
                continue;
            }
            match &f.toks[i].kind {
                Kind::Ident => {
                    let t = f.toks[i].text.as_str();
                    if (t == "unwrap" || t == "expect") && i > 0 && f.p(i - 1, '.') {
                        out.push(f.diag(
                            L_PANIC,
                            i,
                            format!(
                                "`.{t}()` in the total path `{}`; decode/serve paths must \
                                 return errors, never panic",
                                fx.name
                            ),
                        ));
                    } else if matches!(
                        t,
                        "panic"
                            | "unreachable"
                            | "todo"
                            | "unimplemented"
                            | "assert"
                            | "assert_eq"
                            | "assert_ne"
                    ) && f.p(i + 1, '!')
                    {
                        out.push(f.diag(
                            L_PANIC,
                            i,
                            format!("`{t}!` in the total path `{}`", fx.name),
                        ));
                    }
                }
                Kind::Punct('[') if i > 0 => {
                    // Indexing: `expr[..]`. Array types/literals and
                    // attributes are preceded by punctuation, never by an
                    // ident/`)`/`]`.
                    let indexing = match &f.toks[i - 1].kind {
                        Kind::Ident => !matches!(
                            f.toks[i - 1].text.as_str(),
                            // keywords that can directly precede `[`
                            // (`let [v] = ..` destructures, no panic)
                            "let" | "mut" | "return" | "in" | "as" | "else" | "match" | "if"
                        ),
                        Kind::Punct(')') | Kind::Punct(']') => true,
                        _ => false,
                    };
                    if indexing {
                        out.push(f.diag(
                            L_PANIC,
                            i,
                            format!(
                                "slice indexing can panic in the total path `{}`; use \
                                 `.get(..)` and return an error",
                                fx.name
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// L6: lock-across-transport
// ---------------------------------------------------------------------------

fn lock_like(name: &str) -> bool {
    name == "lock" || name == "lock_arc" || name.ends_with("_lock")
}

fn l6_lock_across_transport(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    let n = f.toks.len();
    let mut guards: Vec<(String, i32, u32)> = Vec::new(); // (binding, depth, line)
    let mut depth: i32 = 0;
    let mut i = 0usize;
    while i < n {
        if f.p(i, '{') {
            depth += 1;
            i += 1;
            continue;
        }
        if f.p(i, '}') {
            guards.retain(|&(_, d, _)| d < depth);
            depth -= 1;
            i += 1;
            continue;
        }
        if f.ctx.in_test[i] {
            i += 1;
            continue;
        }
        // Explicit release.
        if f.id(i, "drop") && f.p(i + 1, '(') && f.p(i + 3, ')') {
            if let Some(name) = f.ident(i + 2) {
                guards.retain(|(g, _, _)| g != name);
            }
        }
        // `let [mut] <name> [: ty] = <expr ending in a lock() call>;`
        if f.id(i, "let") && !(i > 0 && (f.id(i - 1, "if") || f.id(i - 1, "while"))) {
            let mut j = i + 1;
            if f.id(j, "mut") {
                j += 1;
            }
            if let Some(name) = f.ident(j) {
                let binding = name.to_string();
                let mut k = j + 1;
                while k < n && !f.p(k, '=') && !f.p(k, ';') {
                    k += 1;
                }
                if f.p(k, '=') && binding != "_" {
                    let start = k + 1;
                    let mut d2 = 0i32;
                    let mut m = start;
                    while m < n {
                        match &f.toks[m].kind {
                            Kind::Punct('(') | Kind::Punct('[') | Kind::Punct('{') => d2 += 1,
                            Kind::Punct(')') | Kind::Punct(']') | Kind::Punct('}') => {
                                if d2 == 0 {
                                    break;
                                }
                                d2 -= 1;
                            }
                            Kind::Punct(';') if d2 == 0 => break,
                            _ => {}
                        }
                        m += 1;
                    }
                    let mut last = m;
                    if last > start && f.p(last - 1, '?') {
                        last -= 1;
                    }
                    // Guard iff the initializer's final call is lock-like:
                    // `..lock(..)` as the last tokens of the expression.
                    if last > start + 1 && f.p(last - 1, ')') {
                        let close = last - 1;
                        let mut d3 = 0i32;
                        let mut o = close;
                        loop {
                            match &f.toks[o].kind {
                                Kind::Punct(')') => d3 += 1,
                                Kind::Punct('(') => {
                                    d3 -= 1;
                                    if d3 == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            if o == start {
                                break;
                            }
                            o -= 1;
                        }
                        if d3 == 0 && o > start {
                            if let Some(mname) = f.ident(o - 1) {
                                if lock_like(mname) {
                                    guards.push((binding, depth, f.line(i)));
                                }
                            }
                        }
                    }
                }
            }
        }
        if f.id(i, "transport") && f.p(i + 1, '.') && !guards.is_empty() {
            let (g, _, gl) = &guards[guards.len() - 1];
            out.push(f.diag(
                L_LOCK,
                i,
                format!(
                    "`transport.` call while lock guard `{g}` (taken line {gl}) is live; \
                     release the guard before any transport round-trip"
                ),
            ));
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// L7: unsafe-allow
// ---------------------------------------------------------------------------

/// The single sanctioned `allow(unsafe_code)` site: runtime-detected SIMD
/// intrinsics.
const L7_EXEMPT: &str = "crates/gf256/src/simd.rs";

fn l7_unsafe_allow(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    if f.path.ends_with(L7_EXEMPT) {
        return;
    }
    let n = f.toks.len();
    for i in 0..n {
        if !(f.id(i, "allow") && f.p(i + 1, '(')) {
            continue;
        }
        let mut d = 1i32;
        let mut j = i + 2;
        while j < n && d > 0 {
            match &f.toks[j].kind {
                Kind::Punct('(') => d += 1,
                Kind::Punct(')') => d -= 1,
                Kind::Ident if f.toks[j].text == "unsafe_code" => {
                    out.push(f.diag(
                        L_UNSAFE,
                        j,
                        format!(
                            "`allow(unsafe_code)` outside the sanctioned site \
                             ({L7_EXEMPT}); the workspace bans unsafe code"
                        ),
                    ));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// L8: bounded-retry
// ---------------------------------------------------------------------------

/// Client-side dispatch surfaces: the protocol client crate, the
/// dispatch driver (the one loop that re-sends an envelope: its hedge)
/// and the transports' links. The quorum engine (`quorum_round.rs`) is
/// out of scope — its loops walk distinct ops/slots and dispatch each
/// envelope exactly once per round by construction.
fn l8_in_scope(path: &str) -> bool {
    path.contains("crates/core/src/")
        || [
            "crates/cluster/src/driver.rs",
            "crates/cluster/src/tcp.rs",
            "crates/cluster/src/transport.rs",
            "crates/cluster/src/sim.rs",
        ]
        .iter()
        .any(|s| path.ends_with(s))
}

/// Call idioms that put an envelope (or a whole round of them) on the
/// wire. A loop whose body contains one is re-dispatching under its own
/// control flow, which is exactly where an unbudgeted retry storm hides.
/// The driver's own idiom, `link.send(..)`, is matched with its
/// receiver (see [`l8_bounded_retry`]): a bare `send` is every channel.
const L8_DISPATCH: &[&str] = &[
    "dispatch",
    "multicall",
    "run_recorded",
    "run_fused",
    "schedule_request",
];

/// Idioms that prove the loop draws on the retry budget.
const L8_BUDGET: &[&str] = &["try_spend", "RetryBudget"];

fn l8_bounded_retry(f: &FileCtx, out: &mut Vec<Diagnostic>) {
    if !l8_in_scope(f.path) {
        return;
    }
    let n = f.toks.len();
    // Collect loop bodies as (open, close) brace token indices. Only the
    // open-ended forms count: a `for` loop is bounded by its iterator by
    // construction (fan-outs and level walks dispatch each target once),
    // and lexing `for` naively would also swallow `impl Trait for Type`
    // headers. `loop`/`while` have no such intrinsic bound — there the
    // budget is the only thing standing between a straggler and a storm.
    let mut loops: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        let Some(kw) = f.ident(i) else { continue };
        if !matches!(kw, "loop" | "while") {
            continue;
        }
        // `.loop`-like method paths lex as their own idents; a loop
        // keyword is never preceded by `.`.
        if i > 0 && f.p(i - 1, '.') {
            continue;
        }
        // The body `{` follows immediately for `loop`; for `while` it is
        // the first brace outside the header's parens/brackets.
        let mut j = i + 1;
        let (mut paren, mut brack) = (0i32, 0i32);
        let open = loop {
            match f.toks.get(j).map(|t| &t.kind) {
                None => break None,
                Some(Kind::Punct('(')) => paren += 1,
                Some(Kind::Punct(')')) => paren -= 1,
                Some(Kind::Punct('[')) => brack += 1,
                Some(Kind::Punct(']')) => brack -= 1,
                Some(Kind::Punct('{')) if paren == 0 && brack == 0 => break Some(j),
                Some(Kind::Punct(';')) if paren == 0 => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = open else { continue };
        loops.push((open, f.match_brace(open)));
    }
    for d in 0..n {
        if f.ctx.in_test[d] {
            continue;
        }
        let Some(name) = f.ident(d) else { continue };
        let link_send = name == "send" && d >= 2 && f.p(d - 1, '.') && f.id(d - 2, "link");
        if !(L8_DISPATCH.contains(&name) || link_send) || !f.p(d + 1, '(') {
            continue;
        }
        if d > 0 && f.id(d - 1, "fn") {
            continue; // a definition, not a call
        }
        // Attribute the call to its innermost enclosing loop; calls
        // outside any loop (or in a loop header's iterator expression)
        // dispatch once and are fine.
        let Some(&(open, close)) = loops
            .iter()
            .filter(|&&(o, c)| o < d && d < c)
            .min_by_key(|&&(o, c)| c - o)
        else {
            continue;
        };
        let consults =
            (open..=close).any(|k| matches!(f.ident(k), Some(t) if L8_BUDGET.contains(&t)));
        if !consults {
            out.push(f.diag(
                L_RETRY,
                d,
                format!(
                    "`{name}` inside a loop with no retry-budget consult; a re-dispatch loop \
                     must call `try_spend` (or carry a waiver naming why it is bounded)"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Lint a single source file. `path` is the workspace-relative path with
/// forward slashes; lint applicability is decided from its suffix, so tests
/// can feed fixture sources under virtual paths.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let (toks, comments) = lex(src);
    let ctx = build_ctx(&toks);
    let f = FileCtx {
        path,
        toks: &toks,
        ctx: &ctx,
    };
    let (waivers, mut diags) = parse_waivers(&comments, &toks, path);
    l1_idempotent_mutation(&f, &mut diags);
    l2_opid_echo(&f, &mut diags);
    l3_wire_tag_coverage(&f, &mut diags);
    l4_sim_determinism(&f, &mut diags);
    l5_panic_freedom(&f, &mut diags);
    l6_lock_across_transport(&f, &mut diags);
    l7_unsafe_allow(&f, &mut diags);
    l8_bounded_retry(&f, &mut diags);
    for d in &mut diags {
        if d.lint != L_WAIVER
            && waivers
                .iter()
                .any(|w| w.lint == d.lint && w.lines.contains(&d.line))
        {
            d.waived = true;
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
