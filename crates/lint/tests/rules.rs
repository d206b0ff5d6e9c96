//! Fixture-driven rule tests: every rule has a fixture that trips it
//! and a sibling that exercises the same constructs in sanctioned form
//! and stays clean.

use sns_lint::config::Config;
use sns_lint::rules::{self, check_file, FileCtx};
use sns_lint::scope::test_mask;
use sns_lint::tokenizer::tokenize;

/// Lints fixture `src` as though it lived at `rel_path` in the
/// workspace, returning the rule ids that fired.
fn lint_as(src: &str, rel_path: &str, config: &Config) -> Vec<&'static str> {
    let tokens = tokenize(src);
    let mask = test_mask(&tokens);
    let ctx = FileCtx { rel_path, is_lib: true, tokens: &tokens, test_mask: &mask };
    check_file(&ctx, config).into_iter().map(|v| v.rule).collect()
}

fn count(rules: &[&str], rule: &str) -> usize {
    rules.iter().filter(|r| **r == rule).count()
}

const LIB_PATH: &str = "crates/runtime/src/fixture.rs";
const CODEC_PATH: &str = "crates/codec/src/fixture.rs";
const STORE_PATH: &str = "crates/codec/src/store.rs";

#[test]
fn hash_iter_trips_and_passes() {
    let cfg = Config::default();
    let bad = lint_as(include_str!("fixtures/hash_iter_bad.rs"), CODEC_PATH, &cfg);
    // Two declarations + two constructions + the use statement.
    assert!(count(&bad, rules::HASH_ITER) >= 4, "got {bad:?}");

    let good = lint_as(include_str!("fixtures/hash_iter_good.rs"), CODEC_PATH, &cfg);
    assert_eq!(count(&good, rules::HASH_ITER), 0, "got {good:?}");

    // The same source outside a codec/state-capture path is not scoped.
    let unscoped = lint_as(include_str!("fixtures/hash_iter_bad.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&unscoped, rules::HASH_ITER), 0, "got {unscoped:?}");

    // …but a snapshot-named library file is.
    let snap =
        lint_as(include_str!("fixtures/hash_iter_bad.rs"), "crates/runtime/src/snapshot.rs", &cfg);
    assert!(count(&snap, rules::HASH_ITER) >= 4, "got {snap:?}");
}

#[test]
fn wall_clock_trips_and_passes() {
    let cfg = Config::default();
    let bad = lint_as(include_str!("fixtures/wall_clock_bad.rs"), LIB_PATH, &cfg);
    // Instant::now, SystemTime::now, and a bare `.elapsed()`.
    assert_eq!(count(&bad, rules::WALL_CLOCK), 3, "got {bad:?}");

    let good = lint_as(include_str!("fixtures/wall_clock_good.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&good, rules::WALL_CLOCK), 0, "got {good:?}");
}

#[test]
fn no_panic_trips_and_passes() {
    let cfg = Config::default();
    let bad = lint_as(include_str!("fixtures/no_panic_bad.rs"), LIB_PATH, &cfg);
    // unwrap, expect, panic!, todo!, unreachable!.
    assert_eq!(count(&bad, rules::NO_PANIC), 5, "got {bad:?}");

    let good = lint_as(include_str!("fixtures/no_panic_good.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&good, rules::NO_PANIC), 0, "got {good:?}");
}

#[test]
fn no_panic_ignores_binary_code() {
    let src = include_str!("fixtures/no_panic_bad.rs");
    let tokens = tokenize(src);
    let mask = test_mask(&tokens);
    let ctx = FileCtx {
        rel_path: "crates/bench/src/main.rs",
        is_lib: false,
        tokens: &tokens,
        test_mask: &mask,
    };
    let fired = check_file(&ctx, &Config::default());
    assert!(fired.is_empty(), "binaries may panic, got {fired:?}");
}

#[test]
fn nested_lock_trips_passes_and_respects_lock_order() {
    let cfg = Config::default();
    let bad = lint_as(include_str!("fixtures/nested_lock_bad.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&bad, rules::NESTED_LOCK), 1, "got {bad:?}");

    let good = lint_as(include_str!("fixtures/nested_lock_good.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&good, rules::NESTED_LOCK), 0, "got {good:?}");

    // Registering the pair (with a justification) silences the hazard.
    let registered = Config::parse(
        "[[lock_order]]\n\
         first = \"owners\"\n\
         second = \"cell\"\n\
         path = \"crates/runtime/src/\"\n\
         justification = \"owners-then-cell is the documented order\"\n",
    )
    .expect("valid lock-order table");
    let silenced = lint_as(include_str!("fixtures/nested_lock_bad.rs"), LIB_PATH, &registered);
    assert_eq!(count(&silenced, rules::NESTED_LOCK), 0, "got {silenced:?}");

    // The registration is ordered: cell-then-owners still trips.
    let reversed = Config::parse(
        "[[lock_order]]\n\
         first = \"cell\"\n\
         second = \"owners\"\n\
         path = \"crates/runtime/src/\"\n\
         justification = \"wrong direction on purpose\"\n",
    )
    .expect("valid lock-order table");
    let still_bad = lint_as(include_str!("fixtures/nested_lock_bad.rs"), LIB_PATH, &reversed);
    assert_eq!(count(&still_bad, rules::NESTED_LOCK), 1, "got {still_bad:?}");
}

#[test]
fn sync_before_rename_trips_and_passes() {
    let cfg = Config::default();
    let bad = lint_as(include_str!("fixtures/sync_rename_bad.rs"), STORE_PATH, &cfg);
    assert_eq!(count(&bad, rules::SYNC_BEFORE_RENAME), 1, "got {bad:?}");

    let good = lint_as(include_str!("fixtures/sync_rename_good.rs"), STORE_PATH, &cfg);
    assert_eq!(count(&good, rules::SYNC_BEFORE_RENAME), 0, "got {good:?}");

    // The rule is scoped to the durability files: the same code under
    // any other name is some other file's business.
    let elsewhere = lint_as(include_str!("fixtures/sync_rename_bad.rs"), CODEC_PATH, &cfg);
    assert_eq!(count(&elsewhere, rules::SYNC_BEFORE_RENAME), 0, "got {elsewhere:?}");
}

#[test]
fn must_use_receipt_trips_and_passes() {
    let cfg = Config::default();
    let bad = lint_as(include_str!("fixtures/must_use_bad.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&bad, rules::MUST_USE_RECEIPT), 2, "got {bad:?}");

    let good = lint_as(include_str!("fixtures/must_use_good.rs"), LIB_PATH, &cfg);
    assert_eq!(count(&good, rules::MUST_USE_RECEIPT), 0, "got {good:?}");
}

#[test]
fn violations_report_real_lines() {
    let src = include_str!("fixtures/no_panic_bad.rs");
    let tokens = tokenize(src);
    let mask = test_mask(&tokens);
    let ctx = FileCtx { rel_path: LIB_PATH, is_lib: true, tokens: &tokens, test_mask: &mask };
    for v in check_file(&ctx, &Config::default()) {
        let line = src.lines().nth((v.line - 1) as usize).unwrap_or("");
        assert!(
            !line.is_empty() && v.line as usize <= src.lines().count(),
            "violation points at line {} which is empty or out of range",
            v.line
        );
    }
}
