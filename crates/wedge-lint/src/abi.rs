//! R1 `wire-abi`: the machine-checked wire-ABI lockfile.
//!
//! The envelope tag space (`WireMsg::kind()` in
//! `crates/wedge-core/src/messages.rs`) and the frame header
//! constants (`crates/wedge-log/src/frame.rs`) ARE the wire ABI:
//! renumbering, deleting, or reusing a tag silently breaks every
//! deployed peer. `WIRE_ABI.lock` pins the mapping; this module
//! extracts the live mapping from source, parses the committed lock,
//! and diffs the two with append-only semantics. The legal changes
//! are a brand-new tag strictly greater than everything already
//! allocated, and retiring a tag: moving it, with its name, from
//! `[tags]` to `[retired]` (declared in source as
//! `RETIRED_WIRE_TAGS`). A retired number or name is never reused and
//! never leaves `[retired]`. Either change is followed by the matching
//! lockfile regeneration.

use crate::rules::Violation;

/// Source paths the manifest is extracted from, workspace-relative.
pub const MESSAGES_PATH: &str = "crates/wedge-core/src/messages.rs";
pub const FRAME_PATH: &str = "crates/wedge-log/src/frame.rs";
/// The committed manifest.
pub const LOCK_PATH: &str = "WIRE_ABI.lock";

/// The wire ABI surface: envelope constants plus tag → variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAbi {
    pub magic: String,
    pub version: u64,
    pub header_len: u64,
    pub max_payload: u64,
    /// Sorted by tag. `(tag, variant, source_line)` — the line is 0
    /// for manifests parsed from a lockfile.
    pub tags: Vec<(u8, String, usize)>,
    /// Tags no longer in use, same shape, sorted by tag.
    pub retired: Vec<(u8, String, usize)>,
}

impl WireAbi {
    /// Renders the canonical lockfile text. Stable: same ABI, same
    /// bytes — CI diffs the regenerated file against the committed
    /// one.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# WIRE_ABI.lock — machine-checked wire-ABI manifest.\n");
        out.push_str("#\n");
        out.push_str("# Envelope tags are append-only: the legal changes are adding a NEW\n");
        out.push_str("# tag greater than every tag below, and retiring a tag by moving it,\n");
        out.push_str("# name and all, from [tags] to [retired] (RETIRED_WIRE_TAGS in\n");
        out.push_str("# messages.rs), then regenerating this file. Renumbering, deleting,\n");
        out.push_str("# renaming, or reusing a tag, or reusing a retired number or name, is\n");
        out.push_str("# a silent ABI break and fails `wedge-lint`.\n");
        out.push_str("#\n");
        out.push_str("# Regenerate: cargo run -p wedge-lint -- --write-abi\n");
        out.push_str("\n[envelope]\n");
        out.push_str(&format!("magic = \"{}\"\n", self.magic));
        out.push_str(&format!("version = {}\n", self.version));
        out.push_str(&format!("header_len = {}\n", self.header_len));
        out.push_str(&format!("max_payload = {}\n", self.max_payload));
        for (section, entries) in [("tags", &self.tags), ("retired", &self.retired)] {
            out.push_str(&format!("\n[{section}]\n"));
            for (tag, name, _) in entries {
                out.push_str(&format!("{tag} = {name}\n"));
            }
        }
        out
    }

    /// Parses a lockfile previously produced by [`WireAbi::render`].
    pub fn parse(text: &str) -> Result<WireAbi, String> {
        let mut magic = None;
        let mut version = None;
        let mut header_len = None;
        let mut max_payload = None;
        let mut tags: Vec<(u8, String, usize)> = Vec::new();
        let mut retired: Vec<(u8, String, usize)> = Vec::new();
        let mut section = "";
        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = match name {
                    "envelope" => "envelope",
                    "tags" => "tags",
                    "retired" => "retired",
                    other => return Err(format!("line {}: unknown section [{other}]", n + 1)),
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`", n + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            match section {
                "envelope" => match key {
                    "magic" => magic = Some(value.trim_matches('"').to_string()),
                    "version" => version = Some(parse_u64(value, n + 1)?),
                    "header_len" => header_len = Some(parse_u64(value, n + 1)?),
                    "max_payload" => max_payload = Some(parse_u64(value, n + 1)?),
                    other => return Err(format!("line {}: unknown envelope key {other}", n + 1)),
                },
                "tags" | "retired" => {
                    let tag = parse_u64(key, n + 1)?;
                    if tag == 0 || tag > u8::MAX as u64 {
                        return Err(format!("line {}: tag {tag} out of range", n + 1));
                    }
                    let list = if section == "tags" { &mut tags } else { &mut retired };
                    list.push((tag as u8, value.to_string(), 0));
                }
                _ => return Err(format!("line {}: entry before any [section]", n + 1)),
            }
        }
        tags.sort_by_key(|(tag, _, _)| *tag);
        retired.sort_by_key(|(tag, _, _)| *tag);
        Ok(WireAbi {
            magic: magic.ok_or("missing envelope.magic")?,
            version: version.ok_or("missing envelope.version")?,
            header_len: header_len.ok_or("missing envelope.header_len")?,
            max_payload: max_payload.ok_or("missing envelope.max_payload")?,
            tags,
            retired,
        })
    }
}

fn parse_u64(s: &str, line: usize) -> Result<u64, String> {
    s.parse().map_err(|_| format!("line {line}: `{s}` is not an integer"))
}

/// Extracts the live ABI from the two source files. Works on raw
/// source (string literals matter here — the magic is one).
pub fn extract(messages_src: &str, frame_src: &str) -> Result<WireAbi, String> {
    let tags = extract_tags(messages_src)?;
    let retired = extract_retired(messages_src)?;
    let magic =
        find_str_const(frame_src, "FRAME_MAGIC").ok_or("FRAME_MAGIC not found in frame.rs")?;
    let version =
        find_int_const(frame_src, "FRAME_VERSION").ok_or("FRAME_VERSION not found in frame.rs")?;
    let header_len = find_int_const(frame_src, "FRAME_HEADER_LEN")
        .ok_or("FRAME_HEADER_LEN not found in frame.rs")?;
    let max_payload = find_int_const(frame_src, "MAX_FRAME_PAYLOAD")
        .ok_or("MAX_FRAME_PAYLOAD not found in frame.rs")?;
    Ok(WireAbi { magic, version, header_len, max_payload, tags, retired })
}

/// Parses `RETIRED_WIRE_TAGS`: the `(N, "Name")` tuples between its
/// `=` and the closing `];`. A source without the constant has
/// retired nothing.
fn extract_retired(messages_src: &str) -> Result<Vec<(u8, String, usize)>, String> {
    let lines: Vec<&str> = messages_src.lines().collect();
    let Some(start) =
        lines.iter().position(|l| l.contains("const RETIRED_WIRE_TAGS") && l.contains('='))
    else {
        return Ok(Vec::new());
    };
    let mut retired = Vec::new();
    for (off, line) in lines.iter().enumerate().skip(start) {
        let body = if off == start { line.split_once('=').map_or("", |(_, r)| r) } else { line };
        for tuple in body.split('(').skip(1) {
            let Some((tag, rest)) = tuple.split_once(',') else { continue };
            let name = rest.split('"').nth(1).ok_or("RETIRED_WIRE_TAGS entry without a name")?;
            let tag: u8 = tag.trim().parse().map_err(|_| format!("bad retired tag `{tag}`"))?;
            retired.push((tag, name.to_string(), off + 1));
        }
        if body.contains("];") {
            break;
        }
    }
    retired.sort_by_key(|(tag, _, _)| *tag);
    Ok(retired)
}

/// Parses the arms of `WireMsg::kind()`: `WireMsg::Name { .. } => N,`.
fn extract_tags(messages_src: &str) -> Result<Vec<(u8, String, usize)>, String> {
    let lines: Vec<&str> = messages_src.lines().collect();
    let start = lines
        .iter()
        .position(|l| l.contains("fn kind(") && l.contains("u8"))
        .ok_or("fn kind() not found in messages.rs")?;
    let mut tags: Vec<(u8, String, usize)> = Vec::new();
    let mut depth = 0i64;
    let mut entered = false;
    for (off, line) in lines.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    entered = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if let Some((tag, name)) = parse_arm(line) {
            tags.push((tag, name, off + 1));
        }
        if entered && depth <= 0 {
            break;
        }
    }
    if tags.is_empty() {
        return Err("no `WireMsg::Variant => tag` arms found in kind()".into());
    }
    tags.sort_by_key(|(tag, _, _)| *tag);
    Ok(tags)
}

/// One match arm: `WireMsg::Name(..) => 7,` → `(7, "Name")`.
fn parse_arm(line: &str) -> Option<(u8, String)> {
    let pos = line.find("WireMsg::")?;
    let rest = &line[pos + "WireMsg::".len()..];
    let name: String =
        rest.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        return None;
    }
    let arrow = rest.find("=>")?;
    let tag_text: String =
        rest[arrow + 2..].trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
    let tag: u8 = tag_text.parse().ok()?;
    Some((tag, name))
}

/// Finds `NAME: <ty> = *b"...."` and returns the string contents.
fn find_str_const(src: &str, name: &str) -> Option<String> {
    for line in src.lines() {
        if !line.contains(name) || !line.contains('=') {
            continue;
        }
        let rhs = line.split('=').nth(1)?;
        let open = rhs.find('"')? + 1;
        let close = rhs[open..].find('"')? + open;
        return Some(rhs[open..close].to_string());
    }
    None
}

/// Finds `NAME: <ty> = <int expr>;` where the expression is an
/// integer or a `*`-product of integers (e.g. `16 * 1024 * 1024`).
fn find_int_const(src: &str, name: &str) -> Option<u64> {
    for line in src.lines() {
        let Some(pos) = line.find(name) else { continue };
        if !line.contains("const") {
            continue;
        }
        let rhs = line[pos..].split('=').nth(1)?;
        let expr = rhs.split(';').next()?.trim();
        let mut product: u64 = 1;
        for factor in expr.split('*') {
            let factor = factor.trim().replace('_', "");
            product = product.checked_mul(factor.parse().ok()?)?;
        }
        return Some(product);
    }
    None
}

/// Diffs the committed lock against the live source extraction with
/// append-only semantics. Every finding is a `wire-abi` violation.
pub fn check(committed: &WireAbi, current: &WireAbi) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |file: &str, line: usize, msg: String| {
        out.push(Violation { file: file.to_string(), line, rule: "wire-abi", msg });
    };
    for (field, locked, live) in [
        ("magic", committed.magic.clone(), current.magic.clone()),
        ("version", committed.version.to_string(), current.version.to_string()),
        ("header_len", committed.header_len.to_string(), current.header_len.to_string()),
        ("max_payload", committed.max_payload.to_string(), current.max_payload.to_string()),
    ] {
        if locked != live {
            push(
                FRAME_PATH,
                1,
                format!(
                    "envelope.{field} changed: locked `{locked}`, source says `{live}` — \
                     this breaks every deployed peer"
                ),
            );
        }
    }
    // Duplicate tags in source: reuse, the worst break of all.
    for pair in current.tags.windows(2) {
        if pair[0].0 == pair[1].0 {
            push(
                MESSAGES_PATH,
                pair[1].2,
                format!(
                    "tag {} assigned to both {} and {} — tags are never reused",
                    pair[1].0, pair[0].1, pair[1].1
                ),
            );
        }
    }
    let find = |list: &[(u8, String, usize)], tag: u8| {
        list.iter().find(|(t, _, _)| *t == tag).map(|(_, name, line)| (name.clone(), *line))
    };
    for (tag, name, _) in &committed.tags {
        match (find(&current.tags, *tag), find(&current.retired, *tag)) {
            (Some((live, line)), _) | (None, Some((live, line))) if live != *name => push(
                MESSAGES_PATH,
                line,
                format!(
                    "tag {tag} is locked as {name} but source says {live} — a tag's \
                     meaning is frozen at first ship"
                ),
            ),
            (Some(_), _) | (None, Some(_)) => {}
            (None, None) => push(
                MESSAGES_PATH,
                1,
                format!(
                    "tag {tag} ({name}) is locked but gone from kind() — deleting or \
                     renumbering a shipped tag breaks the wire ABI; a tag leaves [tags] \
                     only by moving to RETIRED_WIRE_TAGS"
                ),
            ),
        }
    }
    for (tag, name, _) in &committed.retired {
        match find(&current.retired, *tag) {
            Some((live, _)) if live == *name => {}
            Some((live, line)) => push(
                MESSAGES_PATH,
                line,
                format!(
                    "retired tag {tag} is locked as {name} but source says {live} — a \
                     tag's meaning is frozen at first ship"
                ),
            ),
            None => push(
                MESSAGES_PATH,
                1,
                format!(
                    "retired tag {tag} ({name}) left RETIRED_WIRE_TAGS — retirement is \
                     permanent"
                ),
            ),
        }
    }
    for (tag, name, line) in &current.retired {
        let shipped = committed.tags.iter().chain(&committed.retired).any(|(t, _, _)| t == tag);
        if !shipped {
            push(
                MESSAGES_PATH,
                *line,
                format!("retired tag {tag} ({name}) was never locked — only a shipped tag retires"),
            );
        }
    }
    let retired: Vec<&(u8, String, usize)> =
        committed.retired.iter().chain(&current.retired).collect();
    let max_locked = committed.tags.iter().chain(&committed.retired).map(|(t, _, _)| *t).max();
    let max_locked = max_locked.unwrap_or(0);
    for (tag, name, line) in &current.tags {
        if let Some((_, was, _)) = retired.iter().find(|(t, _, _)| t == tag) {
            push(
                MESSAGES_PATH,
                *line,
                format!(
                    "tag {tag} is retired (it was {was}) — a retired number is never \
                     reused; append tag {} instead",
                    max_locked + 1
                ),
            );
            continue;
        }
        if retired.iter().any(|(_, was, _)| was == name) {
            push(
                MESSAGES_PATH,
                *line,
                format!("variant name {name} is retired — a retired name is never reused"),
            );
            continue;
        }
        if committed.tags.iter().any(|(t, _, _)| t == tag) {
            continue;
        }
        if *tag <= max_locked {
            push(
                MESSAGES_PATH,
                *line,
                format!(
                    "new variant {name} uses tag {tag}, which is below the locked maximum \
                     {max_locked} — a retired number must never be reassigned; append tag \
                     {} instead",
                    max_locked + 1
                ),
            );
        } else {
            push(
                MESSAGES_PATH,
                *line,
                format!(
                    "tag {tag} ({name}) is not in {LOCK_PATH} — append it by regenerating: \
                     cargo run -p wedge-lint -- --write-abi"
                ),
            );
        }
    }
    out
}
