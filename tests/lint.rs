//! The workspace lints itself: plain `cargo test` runs wedge-lint
//! over every crate and checks `WIRE_ABI.lock` against the live
//! sources, so a policy violation or an unlocked wire-tag change
//! fails the suite, not just the dedicated CI job.

use std::path::Path;

fn workspace_root() -> &'static Path {
    // The root package's manifest dir IS the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let violations = wedge_lint::lint_workspace(workspace_root()).expect("walk workspace");
    assert!(
        violations.is_empty(),
        "wedge-lint found {} violation(s):\n{}",
        violations.len(),
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn wire_abi_lock_matches_source() {
    let root = workspace_root();
    let live = wedge_lint::current_abi(root).expect("read wire sources").expect("extract wire ABI");
    let committed = std::fs::read_to_string(root.join(wedge_lint::abi::LOCK_PATH))
        .expect("WIRE_ABI.lock is committed");
    // `--write-abi` is stable: regenerating must reproduce the
    // committed bytes exactly (this is what the CI drift check runs).
    assert_eq!(
        live.render(),
        committed,
        "WIRE_ABI.lock is stale — regenerate: cargo run -p wedge-lint -- --write-abi"
    );
}

#[test]
fn wire_abi_covers_every_wire_msg_tag() {
    let live = wedge_lint::current_abi(workspace_root())
        .expect("read wire sources")
        .expect("extract wire ABI");
    // The seed protocol shipped 20 tags; the count of allocated tags
    // (live plus retired) may only grow.
    let allocated = live.tags.len() + live.retired.len();
    assert!(allocated >= 20, "only {allocated} tags extracted");
    assert_eq!(live.magic, "WDGC");
    let mut tags: Vec<u8> = live.tags.iter().chain(&live.retired).map(|(t, _, _)| *t).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), allocated, "duplicate wire tags");
}
