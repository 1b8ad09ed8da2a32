//! apc-lint self-tests: every rule must catch its bad fixture and accept
//! the good one, and the CLI must exit 0/1 accordingly.
//!
//! The fixtures under `crates/xtask/fixtures/` are miniature workspace
//! trees mirroring the real layout (the rules scope by relative path), so
//! these tests pin the *behavior* of each rule, not just its plumbing.

use std::path::PathBuf;
use std::process::Command;
use xtask::{lint_tree, RuleId};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Lints a bad fixture and asserts it yields exactly `expected` findings,
/// all of `rule`.
fn assert_only(name: &str, rule: RuleId, expected: usize) {
    let v = lint_tree(&fixture(name)).expect("lint_tree runs on fixture");
    assert_eq!(v.len(), expected, "{name}: {v:#?}");
    assert!(v.iter().all(|f| f.rule == rule), "{name}: {v:#?}");
}

#[test]
fn good_fixture_is_clean() {
    let v = lint_tree(&fixture("good")).expect("lint_tree runs on fixture");
    assert!(v.is_empty(), "expected a clean tree, got: {v:#?}");
}

#[test]
fn l1_catches_missing_crate_root_attributes() {
    assert_only("bad/l1", RuleId::L1, 2);
}

#[test]
fn l2_catches_unwrap_expect_and_panic() {
    assert_only("bad/l2", RuleId::L2, 3);
}

#[test]
fn l3_catches_bare_narrowing_casts() {
    assert_only("bad/l3", RuleId::L3, 2);
}

#[test]
fn l4_catches_missing_paper_anchors() {
    assert_only("bad/l4", RuleId::L4, 3);
}

#[test]
fn l5_catches_manifest_rot() {
    assert_only("bad/l5", RuleId::L5, 5);
}

#[test]
fn l6_catches_cells_in_pub_struct_fields() {
    assert_only("bad/l6", RuleId::L6, 2);
}

#[test]
fn l7_catches_sleep_polling_in_the_serving_and_network_layers() {
    // Two findings in the serve fixture, two in the net fixture; the
    // net fixture's `src/bin/probe.rs` sleep is out of scope (binaries
    // are operator tooling) and must stay unflagged.
    assert_only("bad/l7", RuleId::L7, 4);
}

#[test]
fn l8_catches_bare_lock_unwraps() {
    assert_only("bad/l8", RuleId::L8, 2);
}

#[test]
fn l9_catches_lock_order_cycles() {
    assert_only("bad/l9", RuleId::L9, 2);
}

#[test]
fn l10_catches_time_domain_mixing() {
    assert_only("bad/l10", RuleId::L10, 4);
}

#[test]
fn l11_catches_bare_limb_arithmetic() {
    // Four direct findings in the nat fixture plus three in the sliced
    // fixture that are only reachable through flow-through typing
    // (element load, range reborrow, enumerate element).
    assert_only("bad/l11", RuleId::L11, 7);
}

#[test]
fn l12_catches_relaxed_flag_atomics() {
    // Two relaxed accesses each on the serve shutdown gate, the core
    // pattern-cache gate, and the vendored pool latch; the statistic
    // counters beside them stay unflagged.
    assert_only("bad/l12", RuleId::L12, 6);
}

/// L12's scope reaches into the pool behind the rayon facade: two of the
/// six bad-fixture findings are the relaxed latch store/probe in
/// `vendor/rayon/src/pool.rs`, while the good tree's Acquire/Release pool
/// flags (and its justified Relaxed probe) stay clean.
#[test]
fn l12_audits_the_vendored_pool() {
    let v = lint_tree(&fixture("bad/l12")).expect("lint_tree runs on fixture");
    let pool_findings = v
        .iter()
        .filter(|f| f.file == PathBuf::from("vendor/rayon/src/pool.rs"))
        .count();
    assert_eq!(pool_findings, 2, "latch store + probe: {v:#?}");
}

/// A cache gate flag is a workspace flag like any other: both relaxed
/// accesses on the pattern-cache switch in the l12 fixture surface, while
/// the relaxed hit statistic beside them is not flagged.
#[test]
fn l12_flags_the_relaxed_cache_gate() {
    let v = lint_tree(&fixture("bad/l12")).expect("lint_tree runs on fixture");
    let cache_findings = v
        .iter()
        .filter(|f| f.file == PathBuf::from("crates/core/src/pattern_cache.rs"))
        .count();
    assert_eq!(cache_findings, 2, "gate store + probe: {v:#?}");
}

#[test]
fn l0_catches_malformed_directives() {
    assert_only("bad/l0", RuleId::L0, 4);
}

/// The escape hatch demands a reason: both reason-less `allow()`s in the
/// l0 fixture (one for a per-line rule, one for a flow rule) surface as
/// L0, while the good tree's justified `allow(L3/L11/L12)` lines are
/// honored (covered by `good_fixture_is_clean`).
#[test]
fn escape_hatch_allow_without_reason_is_reported() {
    let v = lint_tree(&fixture("bad/l0")).expect("lint_tree runs on fixture");
    let missing = v
        .iter()
        .filter(|f| f.message.contains("justification"))
        .count();
    assert_eq!(missing, 2, "allow(L2) and allow(L12) both lack a reason: {v:#?}");
}

#[test]
fn violations_carry_file_line_and_rule_id() {
    let v = lint_tree(&fixture("bad/l3")).expect("lint_tree runs on fixture");
    let first = &v[0];
    assert_eq!(first.file, PathBuf::from("crates/bignum/src/nat/mod.rs"));
    assert!(first.line > 0, "findings are line-anchored");
    let rendered = first.to_string();
    assert!(rendered.contains("[L3]"), "machine-readable id in output: {rendered}");
}

#[test]
fn cli_exits_zero_on_clean_and_one_per_bad_fixture() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let ok = Command::new(bin)
        .arg("lint")
        .arg(fixture("good"))
        .output()
        .expect("spawn xtask");
    assert!(ok.status.success(), "good fixture must exit 0");
    for bad in [
        "bad/l1", "bad/l2", "bad/l3", "bad/l4", "bad/l5", "bad/l6", "bad/l7", "bad/l8", "bad/l9",
        "bad/l10", "bad/l11", "bad/l12", "bad/l0",
    ] {
        let out = Command::new(bin)
            .arg("lint")
            .arg(fixture(bad))
            .output()
            .expect("spawn xtask");
        assert_eq!(out.status.code(), Some(1), "{bad} must exit 1");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("violation"), "{bad} reports its findings");
    }
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("rules")
        .output()
        .expect("spawn xtask");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9", "L10", "L11", "L12",
    ] {
        assert!(text.contains(rule), "missing {rule} in: {text}");
    }
}

/// `lint --json` emits one stable object per finding: rule, path, line,
/// message, and allow-status (always `false` — allowed findings are
/// suppressed before reporting).
#[test]
fn lint_json_output_is_machine_readable() {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--json")
        .arg(fixture("bad/l12"))
        .output()
        .expect("spawn xtask");
    assert_eq!(out.status.code(), Some(1), "bad fixture still exits 1 in JSON mode");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.trim_start().starts_with("{\"root\":"), "JSON object first: {text}");
    assert!(text.contains("\"count\":6"), "exact finding count: {text}");
    assert!(text.contains("\"rule\":\"L12\""), "rule id field: {text}");
    assert!(
        text.contains("\"path\":\"crates/serve/src/gate.rs\""),
        "relative path field: {text}"
    );
    assert!(text.contains("\"line\":15"), "line field: {text}");
    assert!(text.contains("\"allowed\":false"), "allow-status field: {text}");
    assert!(!text.contains('\u{0}'), "no control bytes: {text}");

    let clean = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--json")
        .arg(fixture("good"))
        .output()
        .expect("spawn xtask");
    assert!(clean.status.success(), "clean tree exits 0 in JSON mode");
    let clean_text = String::from_utf8_lossy(&clean.stdout);
    assert!(clean_text.contains("\"count\":0"), "clean tree reports zero: {clean_text}");
    assert!(clean_text.contains("\"findings\":[]"), "empty findings array: {clean_text}");
}
