//! The six repo-specific rules, each grounded in a shipped bug.
//!
//! Every rule reports `Violation`s against lexed code (comments and
//! string contents already blanked, test regions marked). A trailing
//! `// lint:allow(<rule>): <reason>` suppresses a finding on its
//! line — the reason is mandatory; a reasonless allow suppresses
//! nothing and is itself flagged by the annotation checker.

use crate::lexer::SourceFile;

/// One finding: workspace-relative file, 1-based line, rule id, and
/// a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Rule ids, as written inside `lint:allow(...)`.
pub const RULES: [&str; 7] = [
    "wire-abi",
    "sans-io-purity",
    "nondet-iter",
    "discarded-result",
    "no-panic-path",
    "bounded-channels",
    "lint-annotation",
];

/// True for paths whose *whole file* is test/bench/example code and
/// therefore exempt from the runtime-code rules.
fn is_test_path(p: &str) -> bool {
    p.split('/').any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

fn exempt(file: &SourceFile, idx: usize) -> bool {
    file.lines[idx].in_test || is_test_path(&file.rel_path)
}

/// Reports `v` unless a reasoned allow covers the line.
fn push(out: &mut Vec<Violation>, file: &SourceFile, v: Violation) {
    if file.allow_for(v.line, v.rule).is_some_and(|a| a.has_reason) {
        return;
    }
    out.push(v);
}

/// Runs every per-file rule (the wire-ABI check lives in [`crate::abi`],
/// it compares two files against the lockfile rather than scanning one).
pub fn lint_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    check_annotations(file, &mut out);
    sans_io_purity(file, &mut out);
    nondet_iter(file, &mut out);
    discarded_result(file, &mut out);
    no_panic_path(file, &mut out);
    bounded_channels(file, &mut out);
    out
}

/// Flags malformed annotations anywhere in the workspace: unknown
/// rule names (typos silently suppress nothing) and missing reasons.
fn check_annotations(file: &SourceFile, out: &mut Vec<Violation>) {
    let mut seen = Vec::new();
    for allow in file.allows.iter().flatten() {
        if seen.contains(&allow.line) {
            continue; // the comment-line copy and its forwarded copy
        }
        seen.push(allow.line);
        if allow.rules.is_empty() {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: allow.line,
                rule: "lint-annotation",
                msg: "malformed lint:allow — expected lint:allow(<rule>, ...): <reason>"
                    .to_string(),
            });
            continue;
        }
        for rule in &allow.rules {
            if !RULES.contains(&rule.as_str()) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: allow.line,
                    rule: "lint-annotation",
                    msg: format!("unknown rule `{rule}` in lint:allow"),
                });
            }
        }
        if !allow.has_reason {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: allow.line,
                rule: "lint-annotation",
                msg: "lint:allow without a reason — write lint:allow(<rule>): <why this is safe>"
                    .to_string(),
            });
        }
    }
}

/// R2 `sans-io-purity`: the engines and the protocol data layers are
/// sans-IO state machines — time arrives as an argument, IO lives in
/// drivers. Wall-clock reads, sleeps, sockets, or file IO here would
/// silently diverge the three runtimes.
fn sans_io_purity(file: &SourceFile, out: &mut Vec<Violation>) {
    const SCOPE: [&str; 4] = [
        "crates/wedge-core/src/engine/",
        "crates/wedge-lsmerkle/src/",
        "crates/wedge-log/src/",
        "crates/wedge-crypto/src/",
    ];
    if !SCOPE.iter().any(|s| file.rel_path.starts_with(s)) {
        return;
    }
    const BANNED: [(&str, &str); 10] = [
        ("Instant::now", "wall-clock read in sans-IO code — take time as an argument"),
        ("SystemTime::now", "wall-clock read in sans-IO code — take time as an argument"),
        ("thread::sleep", "sleeping in sans-IO code — deadlines are engine state, drivers wait"),
        ("std::net", "socket use in sans-IO code — IO lives in the drivers"),
        ("TcpStream", "socket use in sans-IO code — IO lives in the drivers"),
        ("TcpListener", "socket use in sans-IO code — IO lives in the drivers"),
        ("UdpSocket", "socket use in sans-IO code — IO lives in the drivers"),
        ("std::fs", "file IO in sans-IO code — persistence belongs to a driver"),
        ("File::open", "file IO in sans-IO code — persistence belongs to a driver"),
        ("File::create", "file IO in sans-IO code — persistence belongs to a driver"),
    ];
    for (idx, line) in file.lines.iter().enumerate() {
        if exempt(file, idx) {
            continue;
        }
        for (token, why) in BANNED {
            if line.code.contains(token) {
                push(
                    out,
                    file,
                    Violation {
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        rule: "sans-io-purity",
                        msg: format!("`{token}`: {why}"),
                    },
                );
            }
        }
    }
}

/// Iteration adapters whose visit order leaks `HashMap` seeding into
/// behaviour.
const ITER_ADAPTERS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain()",
    ".into_keys()",
    ".into_values()",
];

/// Statement-local evidence that iteration order cannot escape:
/// order-insensitive folds, or an explicit sort/ordered collect.
const ORDER_SAFE: [&str; 12] = [
    ".min()", ".min_by", ".max()", ".max_by", ".sum::", ".sum()", ".count()", ".any(", ".all(",
    ".sort", "BTreeMap", "BTreeSet",
];

/// R3 `nondet-iter`: PR 1 shipped nondeterministic gossip because the
/// cloud iterated a `HashMap` of edges directly — run-to-run order
/// depended on the hasher seed, so runtimes diverged. In protocol
/// crates, iterating a hash container requires a sort, an
/// order-insensitive consumer, or an annotation saying why order
/// cannot matter.
fn nondet_iter(file: &SourceFile, out: &mut Vec<Violation>) {
    const SCOPE: [&str; 7] = [
        "crates/wedge-core/src/",
        "crates/wedge-log/src/",
        "crates/wedge-lsmerkle/src/",
        "crates/wedge-crypto/src/",
        "crates/wedge-net/src/",
        "crates/wedge-sim/src/",
        "crates/wedge-baselines/src/",
    ];
    if !SCOPE.iter().any(|s| file.rel_path.starts_with(s)) {
        return;
    }
    // Pass 1: learn which identifiers name hash containers, from
    // declarations (`name: HashMap<..>`) and constructions
    // (`let mut name = HashMap::new()`).
    let mut names: Vec<String> = Vec::new();
    for line in &file.lines {
        let code = &line.code;
        for marker in ["HashMap", "HashSet"] {
            for pos in find_all(code, marker) {
                if pos > 0 && code[..pos].ends_with(is_ident) {
                    continue; // e.g. `ShardedHashMap`
                }
                if let Some(name) = declared_name(&code[..pos]) {
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    // Pass 2: flag direct iteration over those identifiers.
    for (idx, line) in file.lines.iter().enumerate() {
        if exempt(file, idx) {
            continue;
        }
        let code = &line.code;
        let mut hit: Option<(String, &str)> = None;
        for adapter in ITER_ADAPTERS {
            for pos in find_all(code, adapter) {
                if let Some(recv) = trailing_ident(&code[..pos]) {
                    if names.contains(&recv) {
                        hit = Some((recv, adapter));
                    }
                }
            }
        }
        // `for x in &self.name {` / `for x in name {`
        if let Some(for_pos) = code.find("for ") {
            if let Some(in_pos) = code[for_pos..].find(" in ") {
                let expr = code[for_pos + in_pos + 4..].trim_end().trim_end_matches('{').trim_end();
                if let Some(recv) = trailing_ident(expr) {
                    if names.contains(&recv) && !ITER_ADAPTERS.iter().any(|a| expr.contains(a)) {
                        hit = Some((recv, "for .. in"));
                    }
                }
            }
        }
        let Some((name, how)) = hit else { continue };
        let stmt = file.statement_from(idx + 1);
        let lookahead: String = file
            .lines
            .iter()
            .skip(idx + 1)
            .take(3)
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        if ORDER_SAFE.iter().any(|t| stmt.contains(t)) {
            continue;
        }
        // collect-then-sort across adjacent statements is fine.
        if stmt.contains(".collect") && lookahead.contains(".sort") {
            continue;
        }
        // So is iterating a local that was sorted just above (a sorted
        // Vec shadowing the hash container's name, e.g. `let mut xs:
        // Vec<_> = self.xs.iter().collect(); xs.sort(); for x in xs`).
        let lookbehind: String = file.lines[idx.saturating_sub(3)..idx]
            .iter()
            .map(|l| l.code.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        if lookbehind.contains(&format!("{name}.sort")) {
            continue;
        }
        push(
            out,
            file,
            Violation {
                file: file.rel_path.clone(),
                line: idx + 1,
                rule: "nondet-iter",
                msg: format!(
                    "iteration over hash container `{name}` via `{how}` — order depends on \
                     hasher seeding; sort first, use an order-insensitive fold, or annotate \
                     why order cannot matter"
                ),
            },
        );
    }
}

/// The real-time driver: the shared cluster and both links, by
/// directory, so a file added there is in scope without naming it.
const DRIVER_SCOPE: [&str; 2] = ["crates/wedge-core/src/driver/", "crates/wedge-net/src/"];

/// R4 `discarded-result`: PR 5's root cause — `let _ =` swallowing a
/// failed `write_frame` silently wedged a partition. In the transport
/// layers, a discarded send/write/shutdown result must either be
/// counted or carry an annotation explaining why loss is benign.
fn discarded_result(file: &SourceFile, out: &mut Vec<Violation>) {
    if !DRIVER_SCOPE.iter().any(|s| file.rel_path.starts_with(s)) {
        return;
    }
    const SINKS: [&str; 7] =
        [".send(", ".try_send(", ".write", "write_frame", "send_wire", ".shutdown(", ".flush("];
    for (idx, line) in file.lines.iter().enumerate() {
        if exempt(file, idx) {
            continue;
        }
        let trimmed = line.code.trim_start();
        if !trimmed.starts_with("let _ =") && !trimmed.starts_with("let _=") {
            continue;
        }
        let stmt = file.statement_from(idx + 1);
        if let Some(sink) = SINKS.iter().find(|s| stmt.contains(*s)) {
            push(
                out,
                file,
                Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "discarded-result",
                    msg: format!(
                        "`let _ =` discards the result of `{}..` — count the failure or \
                         annotate why loss is benign (PR 5: a swallowed write_frame error \
                         wedged a partition)",
                        sink.trim_end_matches('(')
                    ),
                },
            );
        }
    }
}

/// R5 `no-panic-path`: a panic in an engine or a service thread takes
/// down the runtime (or worse, one partition of it). Non-test engine
/// and service-thread code must use typed errors, counters, or an
/// annotation arguing unreachability.
fn no_panic_path(file: &SourceFile, out: &mut Vec<Violation>) {
    let p = &file.rel_path;
    if !p.starts_with("crates/wedge-core/src/engine/")
        && !DRIVER_SCOPE.iter().any(|s| p.starts_with(s))
    {
        return;
    }
    const BANNED: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];
    for (idx, line) in file.lines.iter().enumerate() {
        if exempt(file, idx) {
            continue;
        }
        for token in BANNED {
            if line.code.contains(token) {
                push(
                    out,
                    file,
                    Violation {
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        rule: "no-panic-path",
                        msg: format!(
                            "`{}` in engine/service-thread code — a panic here kills a \
                             partition; use a typed error, a counter, or annotate why it \
                             cannot fire",
                            token.trim_start_matches('.').trim_end_matches('(')
                        ),
                    },
                );
            }
        }
    }
}

/// R6 `bounded-channels`: unbounded `mpsc::channel()` hides overload
/// until memory runs out; every queue in the runtimes is bounded so
/// backpressure is visible (`sync_channel` only, PR 1/PR 4 lineage).
fn bounded_channels(file: &SourceFile, out: &mut Vec<Violation>) {
    let p = &file.rel_path;
    let in_scope = (p.starts_with("crates/") && p.contains("/src/") || p.starts_with("src/"))
        && !p.starts_with("crates/wedge-bench/");
    if !in_scope {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if exempt(file, idx) {
            continue;
        }
        for pos in find_all(&line.code, "channel") {
            let before = &line.code[..pos];
            if before.ends_with(is_ident) {
                continue; // sync_channel, my_channel
            }
            // Accept an optional turbofish between the name and the
            // call: `channel::<ClientIn>()` is still unbounded.
            let mut after = &line.code[pos + "channel".len()..];
            if let Some(rest) = after.strip_prefix("::<") {
                let Some(close) = rest.find('>') else { continue };
                after = &rest[close + 1..];
            }
            if !after.starts_with('(') {
                continue;
            }
            push(
                out,
                file,
                Violation {
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "bounded-channels",
                    msg: "unbounded `mpsc::channel()` — use `sync_channel(n)` so overload \
                          becomes visible backpressure, or annotate why this queue cannot grow"
                        .to_string(),
                },
            );
        }
    }
}

/// Byte offsets of every occurrence of `needle` in `hay`.
fn find_all(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// The identifier a method-call chain ends with, e.g.
/// `self.pending_certs` → `pending_certs`.
fn trailing_ident(before: &str) -> Option<String> {
    let trimmed = before.trim_end();
    let tail: String = trimmed
        .chars()
        .rev()
        .take_while(|&c| is_ident(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if tail.is_empty() || tail.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        None
    } else {
        Some(tail)
    }
}

/// Extracts the declared name from text preceding a `HashMap`/`HashSet`
/// marker: `name: HashMap<..>`, `name: std::collections::HashMap<..>`,
/// or `let mut name = HashMap::new()`.
fn declared_name(before: &str) -> Option<String> {
    let mut t = before.trim_end();
    // Walk backwards over qualifying path segments (`collections::`).
    while let Some(rest) = t.strip_suffix("::") {
        let ident_bytes =
            rest.bytes().rev().take_while(|b| b.is_ascii_alphanumeric() || *b == b'_').count();
        t = rest[..rest.len() - ident_bytes].trim_end();
    }
    if let Some(rest) = t.strip_suffix(':') {
        // A lone `:` is a binding's type ascription; `::` was already
        // consumed above, so no path confusion remains.
        return trailing_ident(rest);
    }
    if let Some(rest) = t.strip_suffix('=') {
        return trailing_ident(rest.trim_end_matches('=').trim_end());
    }
    None
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}
