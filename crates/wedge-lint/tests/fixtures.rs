//! Per-rule fixture tests: every rule gets a positive case (the
//! violation fires), a negative case (clean code stays clean), and an
//! allowlist case (a reasoned `lint:allow` suppresses it, a reasonless
//! one does not). Paths are fabricated — rule scoping comes entirely
//! from `rel_path`, so no fixture files need to exist on disk.

use wedge_lint::{abi, lint_file_source, Violation};

/// Rules that fired, in file order.
fn fired(rel_path: &str, source: &str) -> Vec<&'static str> {
    lint_file_source(rel_path, source).into_iter().map(|v| v.rule).collect()
}

fn assert_clean(rel_path: &str, source: &str) {
    let v = lint_file_source(rel_path, source);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

// --- lexer behaviour the rules depend on ---------------------------------

#[test]
fn comments_and_strings_are_not_code() {
    // The banned token appears only in a comment and a string literal.
    assert_clean(
        "crates/wedge-core/src/engine/fixture.rs",
        r#"
// Instant::now() would be a violation in code.
fn f() -> &'static str {
    "Instant::now()"
}
"#,
    );
}

#[test]
fn raw_strings_are_blanked() {
    assert_clean(
        "crates/wedge-core/src/engine/fixture.rs",
        r###"
fn f() -> &'static str {
    r#"thread::sleep inside a raw string"#
}
"###,
    );
}

#[test]
fn test_regions_are_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u8> = None;
        x.unwrap();
    }
}
"#;
    assert_clean("crates/wedge-core/src/engine/fixture.rs", src);
}

#[test]
fn cfg_test_attribute_on_use_does_not_open_a_region() {
    // `#[cfg(test)] use ...;` is cancelled by the `;` — the unwrap
    // after it is still runtime code.
    let src = "
#[cfg(test)]
use std::collections::HashMap;

fn f(x: Option<u8>) -> u8 {
    x.unwrap()
}
";
    assert_eq!(fired("crates/wedge-core/src/engine/fixture.rs", src), ["no-panic-path"]);
}

// --- R2 sans-io-purity ---------------------------------------------------

#[test]
fn sans_io_fires_on_wall_clock_in_engine() {
    let src = "fn now() -> std::time::Instant { Instant::now() }\n";
    assert_eq!(fired("crates/wedge-core/src/engine/fixture.rs", src), ["sans-io-purity"]);
    // Same code outside the sans-IO scope is fine.
    assert_clean("crates/wedge-bench/src/fixture.rs", src);
}

#[test]
fn sans_io_fires_on_sockets_and_files_in_protocol_layers() {
    assert_eq!(
        fired("crates/wedge-log/src/fixture.rs", "fn f() { let _x = TcpStream::connect(a); }\n"),
        ["sans-io-purity"]
    );
    assert_eq!(
        fired("crates/wedge-lsmerkle/src/fixture.rs", "fn f() { std::fs::write(p, b); }\n"),
        ["sans-io-purity"]
    );
}

#[test]
fn sans_io_allow_with_reason_suppresses() {
    let src = "fn f() { thread::sleep(d); } // lint:allow(sans-io-purity): fixture reason\n";
    assert_clean("crates/wedge-crypto/src/fixture.rs", src);
}

// --- R3 nondet-iter ------------------------------------------------------

#[test]
fn nondet_iter_fires_on_hash_map_values() {
    let src = "
struct S { waiters: HashMap<u64, u64> }
impl S {
    fn f(&self) -> Vec<u64> {
        self.waiters.values().copied().collect()
    }
}
";
    assert_eq!(fired("crates/wedge-core/src/fixture.rs", src), ["nondet-iter"]);
}

#[test]
fn nondet_iter_fires_on_for_in() {
    let src = "
fn f() {
    let mut peers = HashMap::new();
    peers.insert(1u8, 2u8);
    for p in &peers {
        observe(p);
    }
}
";
    assert_eq!(fired("crates/wedge-net/src/fixture.rs", src), ["nondet-iter"]);
}

#[test]
fn nondet_iter_accepts_order_insensitive_folds() {
    assert_clean(
        "crates/wedge-core/src/fixture.rs",
        "
struct S { deadlines: HashMap<u64, u64> }
impl S {
    fn next(&self) -> Option<u64> {
        self.deadlines.values().copied().min()
    }
    fn total(&self) -> u64 {
        self.deadlines.values().sum::<u64>()
    }
}
",
    );
}

#[test]
fn nondet_iter_accepts_collect_then_sort() {
    assert_clean(
        "crates/wedge-core/src/fixture.rs",
        "
struct S { pending: HashMap<u64, u64> }
impl S {
    fn drain_sorted(&self) -> Vec<u64> {
        let mut due: Vec<u64> = self.pending.keys().copied().collect();
        due.sort_unstable();
        due
    }
}
",
    );
}

#[test]
fn nondet_iter_accepts_iterating_a_sorted_local_shadow() {
    // A sorted Vec shadowing the hash container's name (the
    // gossip-round pattern in engine/cloud.rs).
    assert_clean(
        "crates/wedge-core/src/fixture.rs",
        "
struct S { edges: HashMap<u64, u64> }
impl S {
    fn round(&self) {
        let mut edges: Vec<(u64, u64)> = self.edges.iter().map(|(k, v)| (*k, *v)).collect();
        edges.sort_by_key(|(k, _)| *k);
        for (k, v) in edges {
            observe(k, v);
        }
    }
}
",
    );
}

#[test]
fn nondet_iter_btree_is_fine() {
    assert_clean(
        "crates/wedge-core/src/fixture.rs",
        "
struct S { ordered: BTreeMap<u64, u64> }
impl S {
    fn f(&self) -> Vec<u64> {
        self.ordered.values().copied().collect()
    }
}
",
    );
}

#[test]
fn nondet_iter_allow_with_reason_suppresses() {
    let src = "
struct S { peers: HashMap<u64, u64> }
impl S {
    fn f(&mut self) {
        // lint:allow(nondet-iter): per-peer state, cross-peer order unobservable
        for p in self.peers.values_mut() {
            flush(p);
        }
    }
}
";
    assert_clean("crates/wedge-net/src/fixture.rs", src);
}

// --- R4 discarded-result -------------------------------------------------

#[test]
fn discarded_result_fires_on_swallowed_send() {
    let src = "
fn f(tx: Sender<u8>) {
    let _ = tx.send(1);
}
";
    assert_eq!(fired("crates/wedge-net/src/fixture.rs", src), ["discarded-result"]);
    assert_eq!(fired("crates/wedge-core/src/driver/cluster.rs", src), ["discarded-result"]);
    // Out of the transport scope: the engines return effects, they
    // don't send, so the rule does not apply there.
    assert_clean("crates/wedge-core/src/engine/fixture.rs", src);
}

#[test]
fn driver_rules_cover_every_file_under_the_driver_directories() {
    // Scope is by directory: a file added next to the shared cluster,
    // or a new link in wedge-net, is checked without being named.
    let send = "fn f(tx: Sender<u8>) {\n    let _ = tx.send(1);\n}\n";
    let unwrap = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    for path in ["crates/wedge-core/src/driver/new_link.rs", "crates/wedge-net/src/quic.rs"] {
        assert_eq!(fired(path, send), ["discarded-result"], "{path}");
        assert_eq!(fired(path, unwrap), ["no-panic-path"], "{path}");
    }
    // A sibling module outside the directory is not driver code.
    assert_clean("crates/wedge-core/src/driverless.rs", unwrap);
}

#[test]
fn discarded_result_fires_on_multiline_statement() {
    let src = "
fn f(tx: Sender<u8>) {
    let _ = tx
        .send(1);
}
";
    assert_eq!(fired("crates/wedge-net/src/fixture.rs", src), ["discarded-result"]);
}

#[test]
fn discarded_result_ignores_non_sink_discards() {
    assert_clean("crates/wedge-net/src/fixture.rs", "fn f() { let _ = compute(); }\n");
}

#[test]
fn discarded_result_allow_with_reason_suppresses() {
    let src = "
fn f(tx: Sender<u8>) {
    let _ = tx.send(1); // lint:allow(discarded-result): fixture reason
}
";
    assert_clean("crates/wedge-net/src/fixture.rs", src);
}

// --- R5 no-panic-path ----------------------------------------------------

#[test]
fn no_panic_path_fires_on_each_panicky_form() {
    for (snippet, what) in [
        ("fn f(x: Option<u8>) -> u8 { x.unwrap() }", "unwrap"),
        ("fn f(x: Option<u8>) -> u8 { x.expect(\"msg\") }", "expect"),
        ("fn f() { panic!(\"boom\") }", "panic!"),
        ("fn f() { unreachable!() }", "unreachable!"),
    ] {
        assert_eq!(
            fired("crates/wedge-core/src/engine/fixture.rs", snippet),
            ["no-panic-path"],
            "form: {what}"
        );
    }
}

#[test]
fn no_panic_path_scope_is_engines_and_services() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
    // The sim driver and the data layers may unwrap (sim panics are
    // loud and deterministic; this rule is about service threads).
    assert_clean("crates/wedge-sim/src/fixture.rs", src);
    assert_clean("crates/wedge-lsmerkle/src/fixture.rs", src);
}

#[test]
fn no_panic_path_reasonless_allow_does_not_suppress() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint:allow(no-panic-path)\n";
    let rules = fired("crates/wedge-core/src/engine/fixture.rs", src);
    // The violation survives AND the malformed annotation is flagged.
    assert!(rules.contains(&"no-panic-path"), "got {rules:?}");
    assert!(rules.contains(&"lint-annotation"), "got {rules:?}");
}

#[test]
fn no_panic_path_allow_on_preceding_comment_line() {
    let src = "
fn f(x: Option<u8>) -> u8 {
    // lint:allow(no-panic-path): fixture reason
    x.unwrap()
}
";
    assert_clean("crates/wedge-core/src/engine/fixture.rs", src);
}

// --- R6 bounded-channels -------------------------------------------------

#[test]
fn bounded_channels_fires_on_unbounded_channel() {
    let src = "fn f() { let (tx, rx) = channel(); }\n";
    assert_eq!(fired("crates/wedge-core/src/fixture.rs", src), ["bounded-channels"]);
}

#[test]
fn bounded_channels_sees_through_turbofish() {
    let src = "fn f() { let (tx, rx) = channel::<u64>(); }\n";
    assert_eq!(fired("crates/wedge-core/src/fixture.rs", src), ["bounded-channels"]);
}

#[test]
fn bounded_channels_accepts_sync_channel() {
    assert_clean(
        "crates/wedge-core/src/fixture.rs",
        "fn f() { let (tx, rx) = sync_channel(1); }\n",
    );
    assert_clean(
        "crates/wedge-core/src/fixture.rs",
        "fn f() { let (tx, rx) = sync_channel::<u64>(8); }\n",
    );
}

#[test]
fn bounded_channels_exempts_tests_and_benches() {
    let src = "fn f() { let (tx, rx) = channel(); }\n";
    assert_clean("crates/wedge-core/tests/fixture.rs", src);
    assert_clean("crates/wedge-bench/benches/fixture.rs", src);
}

// --- annotation grammar --------------------------------------------------

#[test]
fn unknown_rule_in_allow_is_flagged() {
    let src = "fn f() {} // lint:allow(no-such-rule): reason\n";
    assert_eq!(fired("crates/wedge-core/src/fixture.rs", src), ["lint-annotation"]);
}

#[test]
fn allow_covers_only_the_named_rule() {
    // The allow names nondet-iter but the line's violation is R6.
    let src = "fn f() { let (tx, rx) = channel(); } // lint:allow(nondet-iter): wrong rule\n";
    assert_eq!(fired("crates/wedge-core/src/fixture.rs", src), ["bounded-channels"]);
}

#[test]
fn allow_can_name_several_rules() {
    // One line, two violations (hash iteration + unwrap), one allow
    // naming both rules.
    let bare = "
struct S { m: HashMap<u64, Option<u8>> }
impl S {
    fn f(&self) {
        for v in self.m.values() { observe(v.unwrap()) }
    }
}
";
    let mut rules = fired("crates/wedge-core/src/engine/fixture.rs", bare);
    rules.sort_unstable();
    assert_eq!(rules, ["no-panic-path", "nondet-iter"]);
    let allowed = bare.replace(
        "{ observe(v.unwrap()) }",
        "{ observe(v.unwrap()) } // lint:allow(nondet-iter, no-panic-path): fixture reason for both",
    );
    assert_clean("crates/wedge-core/src/engine/fixture.rs", &allowed);
}

// --- R1 wire-abi: lockfile round-trip and append-only diffs --------------

fn abi_fixture() -> abi::WireAbi {
    abi::WireAbi {
        magic: "WDGC".into(),
        version: 1,
        header_len: 10,
        max_payload: 16 * 1024 * 1024,
        tags: vec![(1, "BatchAdd".into(), 10), (2, "LogRead".into(), 11), (3, "Get".into(), 12)],
        retired: vec![],
    }
}

/// `abi_fixture` after LogRead (tag 2) was retired.
fn retired_fixture() -> abi::WireAbi {
    abi::WireAbi {
        tags: vec![(1, "BatchAdd".into(), 10), (3, "Get".into(), 12)],
        retired: vec![(2, "LogRead".into(), 30)],
        ..abi_fixture()
    }
}

#[test]
fn lockfile_round_trips_bytewise() {
    let a = abi_fixture();
    let text = a.render();
    let b = abi::WireAbi::parse(&text).expect("parse rendered lock");
    // Source lines are not serialized; compare everything else.
    assert_eq!(
        (&a.magic, a.version, a.header_len, a.max_payload),
        (&b.magic, b.version, b.header_len, b.max_payload)
    );
    assert_eq!(
        a.tags.iter().map(|(t, n, _)| (*t, n.clone())).collect::<Vec<_>>(),
        b.tags.iter().map(|(t, n, _)| (*t, n.clone())).collect::<Vec<_>>()
    );
    // Render is stable: same ABI, same bytes.
    assert_eq!(text, b.render());
}

#[test]
fn identical_abis_are_clean() {
    assert!(abi::check(&abi_fixture(), &abi_fixture()).is_empty());
}

#[test]
fn renumbering_a_tag_is_flagged() {
    let mut live = abi_fixture();
    live.tags[2] = (4, "Get".into(), 12); // Get: 3 -> 4
    live.tags.sort_by_key(|(t, _, _)| *t);
    let v = abi::check(&abi_fixture(), &live);
    // Two findings: locked tag 3 gone, and Get appearing under a new
    // number (which is at least "not in lock").
    assert!(v.iter().all(|f| f.rule == "wire-abi"));
    assert!(v.iter().any(|f| f.msg.contains("tag 3")), "got {v:?}");
}

#[test]
fn deleting_a_tag_is_flagged() {
    let mut live = abi_fixture();
    live.tags.pop(); // drop Get entirely
    let v = abi::check(&abi_fixture(), &live);
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("locked but gone"), "got {}", v[0].msg);
}

#[test]
fn renaming_a_tag_is_flagged() {
    let mut live = abi_fixture();
    live.tags[1].1 = "LogReadV2".into();
    let v = abi::check(&abi_fixture(), &live);
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("frozen at first ship"), "got {}", v[0].msg);
}

#[test]
fn reusing_a_retired_number_is_flagged() {
    let mut committed = abi_fixture();
    committed.tags.remove(1); // pretend LogRead (tag 2) was retired from the lock...
                              // ...no: retire it from SOURCE but keep it locked is `deleting`.
                              // Reuse is: source gains a NEW variant under a number <= max
                              // locked that the lock maps to nothing. Lock tags 1 and 3 only:
    committed = abi::WireAbi {
        tags: vec![(1, "BatchAdd".into(), 0), (3, "Get".into(), 0)],
        ..abi_fixture()
    };
    let mut live = committed.clone();
    live.tags.push((2, "Brand".into(), 44));
    live.tags.sort_by_key(|(t, _, _)| *t);
    let v = abi::check(&committed, &live);
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("never be reassigned"), "got {}", v[0].msg);
}

#[test]
fn retiring_a_tag_moves_it_to_retired() {
    // Source retires tag 2: legal against the lock that still lists it
    // under [tags], and against the regenerated lock.
    assert!(abi::check(&abi_fixture(), &retired_fixture()).is_empty());
    assert!(abi::check(&retired_fixture(), &retired_fixture()).is_empty());
    // The regenerated lock carries the [retired] section and parses
    // back to the same manifest.
    let text = retired_fixture().render();
    assert!(text.contains("\n[retired]\n2 = LogRead\n"), "got:\n{text}");
    let back = abi::WireAbi::parse(&text).expect("parse");
    assert_eq!(
        back.retired.iter().map(|(t, n, _)| (*t, n.as_str())).collect::<Vec<_>>(),
        [(2, "LogRead")]
    );
    assert_eq!(back.render(), text);
}

#[test]
fn retiring_under_another_name_is_flagged() {
    let mut live = retired_fixture();
    live.retired[0].1 = "LogReadV2".into();
    let v = abi::check(&abi_fixture(), &live);
    assert_eq!(v.len(), 1, "got {v:?}");
    assert!(v[0].msg.contains("frozen at first ship"), "got {}", v[0].msg);
}

#[test]
fn a_retired_number_can_never_be_reused() {
    for committed in [abi_fixture(), retired_fixture()] {
        let mut live = retired_fixture();
        live.tags.push((2, "Brand".into(), 44));
        live.tags.sort_by_key(|(t, _, _)| *t);
        let v = abi::check(&committed, &live);
        assert!(
            v.iter().any(|f| f.line == 44 && f.msg.contains("retired number is never reused")),
            "got {v:?}"
        );
    }
}

#[test]
fn a_retired_name_can_never_be_reused() {
    let mut live = retired_fixture();
    live.tags.push((4, "LogRead".into(), 45));
    let v = abi::check(&retired_fixture(), &live);
    assert_eq!(v.len(), 1, "got {v:?}");
    assert!(v[0].msg.contains("retired name is never reused"), "got {}", v[0].msg);
}

#[test]
fn a_retired_tag_never_leaves_retired() {
    // Dropping it from source, or bringing the variant back.
    let mut dropped = retired_fixture();
    dropped.retired.clear();
    let mut restored = abi_fixture();
    restored.tags[1].2 = 11;
    for live in [dropped, restored] {
        let v = abi::check(&retired_fixture(), &live);
        assert!(v.iter().any(|f| f.msg.contains("retirement is permanent")), "got {v:?}");
    }
}

#[test]
fn only_a_shipped_tag_can_retire() {
    let mut live = abi_fixture();
    live.retired.push((9, "NeverShipped".into(), 31));
    let v = abi::check(&abi_fixture(), &live);
    assert_eq!(v.len(), 1, "got {v:?}");
    assert!(v[0].msg.contains("never locked"), "got {}", v[0].msg);
}

#[test]
fn appending_past_the_max_asks_for_regeneration() {
    let mut live = abi_fixture();
    live.tags.push((4, "Brand".into(), 99));
    let v = abi::check(&abi_fixture(), &live);
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("--write-abi"), "got {}", v[0].msg);
    assert_eq!(v[0].line, 99, "points at the new arm's source line");
}

#[test]
fn envelope_drift_is_flagged() {
    let mut live = abi_fixture();
    live.max_payload = 32 * 1024 * 1024;
    let v = abi::check(&abi_fixture(), &live);
    assert_eq!(v.len(), 1);
    assert!(v[0].msg.contains("max_payload"), "got {}", v[0].msg);
}

#[test]
fn violation_display_is_file_line_rule() {
    let v = Violation {
        file: "crates/x/src/lib.rs".into(),
        line: 7,
        rule: "no-panic-path",
        msg: "boom".into(),
    };
    assert_eq!(v.to_string(), "crates/x/src/lib.rs:7: [no-panic-path] boom");
}
