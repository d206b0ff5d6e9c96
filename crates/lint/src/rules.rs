//! The six invariant rules. Each is a pure function over one file's
//! token stream; the engine handles allowlisting and aggregation.
//!
//! | rule id | invariant it mechanizes |
//! |---|---|
//! | `determinism/hash-iter` | no hash-ordered containers in state-capture/codec paths (snapshot and wire bytes must be pure functions of history) |
//! | `determinism/wall-clock` | no `Instant::now`/`SystemTime::now`/`.elapsed()` outside the `sns-ops` clock seam (replay must not observe time) |
//! | `robustness/no-panic-in-lib` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test library code |
//! | `concurrency/nested-lock` | no lock acquired while another guard is live, unless the pair is registered in the lock-order table |
//! | `durability/sync-before-rename` | every `fs::rename` in `wal.rs`/`store.rs` is preceded by a sync in the same function (rename is the commit point) |
//! | `api/must-use-receipt` | receipt-like public types (`*Receipt`, `*Session`, `*Snapshot`, `Subscription`, `*Guard`, `*Ticket`) are `#[must_use]` |

use crate::config::Config;
use crate::scope::{fn_spans, has_attr};
use crate::tokenizer::{Token, TokenKind};

/// Hash-ordered container names [`HASH_ITER`] flags.
pub const HASH_CONTAINERS: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Type-name suffixes [`MUST_USE_RECEIPT`] requires `#[must_use]` on.
pub const RECEIPT_SUFFIXES: [&str; 6] =
    ["Receipt", "Session", "Snapshot", "Subscription", "Guard", "Ticket"];

/// Rule id of the hash-iteration determinism rule.
pub const HASH_ITER: &str = "determinism/hash-iter";
/// Rule id of the wall-clock determinism rule.
pub const WALL_CLOCK: &str = "determinism/wall-clock";
/// Rule id of the library panic-freedom rule.
pub const NO_PANIC: &str = "robustness/no-panic-in-lib";
/// Rule id of the nested-lock rule.
pub const NESTED_LOCK: &str = "concurrency/nested-lock";
/// Rule id of the sync-before-rename durability rule.
pub const SYNC_BEFORE_RENAME: &str = "durability/sync-before-rename";
/// Rule id of the must-use receipt rule.
pub const MUST_USE_RECEIPT: &str = "api/must-use-receipt";

/// All rule ids, in reporting order.
pub const ALL_RULES: [&str; 6] =
    [HASH_ITER, WALL_CLOCK, NO_PANIC, NESTED_LOCK, SYNC_BEFORE_RENAME, MUST_USE_RECEIPT];

/// One rule hit, before allowlist resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawViolation {
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One file's lintable view.
#[derive(Debug)]
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel_path: &'a str,
    /// `true` for library code: a crate's `src/` tree minus `main.rs`
    /// and `src/bin/`. Binaries may panic and read clocks; libraries
    /// may not.
    pub is_lib: bool,
    /// The file's token stream.
    pub tokens: &'a [Token],
    /// Per-token test mask from [`crate::scope::test_mask`].
    pub test_mask: &'a [bool],
}

impl FileCtx<'_> {
    fn file_name(&self) -> &str {
        self.rel_path.rsplit('/').next().unwrap_or(self.rel_path)
    }

    /// Tokens outside test regions, with their stream indices.
    fn live(&self) -> impl Iterator<Item = (usize, &Token)> {
        self.tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.test_mask.get(*i).copied().unwrap_or(false))
    }
}

/// Runs every rule over one file.
pub fn check_file(ctx: &FileCtx<'_>, config: &Config) -> Vec<RawViolation> {
    let mut out = Vec::new();
    hash_iter(ctx, &mut out);
    wall_clock(ctx, &mut out);
    no_panic_in_lib(ctx, &mut out);
    nested_lock(ctx, config, &mut out);
    sync_before_rename(ctx, &mut out);
    must_use_receipt(ctx, &mut out);
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// `determinism/hash-iter`: state-capture and codec paths must not
/// touch hash-ordered containers at all — iteration order leaks into
/// captured bytes, and "we only probe, never iterate" does not survive
/// refactoring. Scoped to `crates/codec/src/` plus any library file
/// whose name mentions snapshot/state/capture.
fn hash_iter(ctx: &FileCtx<'_>, out: &mut Vec<RawViolation>) {
    let name = ctx.file_name();
    let scoped = ctx.rel_path.starts_with("crates/codec/src/")
        || (ctx.is_lib
            && (name.contains("snapshot") || name.contains("state") || name.contains("capture")));
    if !scoped {
        return;
    }
    for (_, t) in ctx.live() {
        if t.kind == TokenKind::Ident && HASH_CONTAINERS.contains(&t.text.as_str()) {
            out.push(RawViolation {
                rule: HASH_ITER,
                line: t.line,
                message: format!(
                    "`{}` in a state-capture/codec path: iteration order is nondeterministic \
                     and leaks into captured bytes — use a BTreeMap/sorted index or an \
                     insertion-ordered structure",
                    t.text
                ),
            });
        }
    }
}

/// `determinism/wall-clock`: library code must route every clock read
/// through the `sns-ops` clock seam so replay and tests can reason
/// about the single place time enters the system. `Instant::elapsed`
/// reads the clock too, so a `.elapsed()` call counts as a read; the
/// seam's `sns_ops::clock::elapsed(start)` is a path call and does not
/// match.
fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<RawViolation>) {
    if !ctx.is_lib {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in ctx.live() {
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("elapsed"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            out.push(RawViolation {
                rule: WALL_CLOCK,
                line: t.line,
                message: "`.elapsed()` in library code reads the wall clock outside the \
                          `sns_ops::clock` seam — call `sns_ops::clock::elapsed(start)` instead"
                    .to_string(),
            });
        }
        let clock_type = t.is_ident("Instant") || t.is_ident("SystemTime");
        if clock_type
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
        {
            out.push(RawViolation {
                rule: WALL_CLOCK,
                line: t.line,
                message: format!(
                    "`{}::now()` in library code: wall-clock reads outside the `sns_ops::clock` \
                     seam make latency and replay behavior untestable — call the seam instead",
                    t.text
                ),
            });
        }
    }
}

/// `robustness/no-panic-in-lib`: a panic in a library crate kills a
/// pool worker (and with it every stream on the shard) where a typed
/// `SnsError` would have failed one batch. The only carve-out is the
/// poisoned-lock `expect("… poisoned")` idiom: a poisoned mutex means
/// another thread already panicked past this rule, and propagating
/// poison as `Result` everywhere would bury every metric read in
/// error plumbing.
fn no_panic_in_lib(ctx: &FileCtx<'_>, out: &mut Vec<RawViolation>) {
    if !ctx.is_lib {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in ctx.live() {
        // `.unwrap()` / `.expect(…)`
        if t.is_punct('.') {
            let Some(method) = toks.get(i + 1) else { continue };
            if method.is_ident("unwrap")
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                out.push(RawViolation {
                    rule: NO_PANIC,
                    line: method.line,
                    message: "`.unwrap()` in library code: a reachable panic kills the whole \
                              shard worker — return a typed `SnsError` (or `.expect(\"… \
                              poisoned\")` if this is a poisoned-lock read)"
                        .to_string(),
                });
            } else if method.is_ident("expect") && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                let poisoned = toks
                    .get(i + 3)
                    .is_some_and(|t| t.kind == TokenKind::Str && t.text.contains("poisoned"));
                if !poisoned {
                    out.push(RawViolation {
                        rule: NO_PANIC,
                        line: method.line,
                        message: "`.expect(…)` in library code: document the invariant in a typed \
                                  error instead (the poisoned-lock carve-out requires the message \
                                  to contain \"poisoned\")"
                            .to_string(),
                    });
                }
            }
            continue;
        }
        // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
        let is_macro =
            ["panic", "unreachable", "todo", "unimplemented"].iter().any(|m| t.is_ident(m))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if is_macro {
            out.push(RawViolation {
                rule: NO_PANIC,
                line: t.line,
                message: format!(
                    "`{}!` in library code: reachable panics kill the shard worker; encode the \
                     failure as a typed `SnsError` (protocol invariants: `SnsError::Internal`)",
                    t.text
                ),
            });
        }
    }
}

#[derive(Debug)]
struct Guard {
    /// Receiver name, e.g. `owners` in `self.owners.lock()`.
    receiver: String,
    /// `let` binding name, if the guard was bound.
    binding: Option<String>,
    /// Brace depth the guard lives at: the guard dies when depth drops
    /// below this.
    depth: usize,
    /// Temporaries die at the next `;`.
    temporary: bool,
}

/// `concurrency/nested-lock`: taking a second lock while a guard is
/// live is the deadlock shape PR 4 fixed by hand in the pool's
/// ownership map. Every such pair must either be restructured or be
/// registered (with a justification) in `lint.toml`'s `[[lock_order]]`
/// table. The tracker is lexical and intentionally conservative: a
/// guard bound by `let` lives to the end of its block, an unbound
/// guard to the end of its statement, and `drop(name)` releases early.
fn nested_lock(ctx: &FileCtx<'_>, config: &Config, out: &mut Vec<RawViolation>) {
    if !ctx.is_lib {
        return;
    }
    let toks = ctx.tokens;
    for span in fn_spans(toks) {
        if ctx.test_mask.get(span.kw).copied().unwrap_or(false) {
            continue;
        }
        let mut guards: Vec<Guard> = Vec::new();
        let mut depth = 0usize;
        let mut pending_let: Option<String> = None;
        let mut i = span.body_open;
        while i <= span.body_close && i < toks.len() {
            let t = &toks[i];
            if t.is_punct('{') {
                depth += 1;
                pending_let = None;
            } else if t.is_punct('}') {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
                pending_let = None;
            } else if t.is_punct(';') {
                guards.retain(|g| !g.temporary);
                pending_let = None;
            } else if t.is_ident("let") {
                // `let [mut] name =` — destructuring patterns are skipped
                // (conservative: their guards are tracked as temporaries).
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                pending_let = match toks.get(j) {
                    Some(name)
                        if name.kind == TokenKind::Ident
                            && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                            // `let a = *x.lock()…` binds the deref'd
                            // value; the guard itself is a temporary.
                            && !toks.get(j + 2).is_some_and(|t| t.is_punct('*')) =>
                    {
                        Some(name.text.clone())
                    }
                    _ => None,
                };
            } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokenKind::Ident) {
                    guards.retain(|g| g.binding.as_deref() != Some(name.text.as_str()));
                }
            } else if t.is_punct('.')
                && toks.get(i + 1).is_some_and(|m| {
                    m.is_ident("lock") || m.is_ident("read") || m.is_ident("write")
                })
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
            {
                let line = toks[i + 1].line;
                let receiver = toks[..i]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokenKind::Ident)
                    .map_or_else(|| "<expr>".to_string(), |t| t.text.clone());
                // Live-guard check before registering the new one.
                for g in &guards {
                    let registered = config.lock_order.iter().any(|pair| {
                        pair.first == g.receiver
                            && pair.second == receiver
                            && ctx.rel_path.starts_with(&pair.path)
                    });
                    if !registered {
                        out.push(RawViolation {
                            rule: NESTED_LOCK,
                            line,
                            message: format!(
                                "`{receiver}.{}()` acquired while a guard on `{}` is live — \
                                 restructure to drop the outer guard first, or register the \
                                 pair in lint.toml [[lock_order]] with a justification",
                                toks[i + 1].text,
                                g.receiver
                            ),
                        });
                    }
                }
                // Classify the new guard: skip the `()` plus any
                // `.unwrap()` / `.expect("…")` / `?` adapters.
                let mut j = i + 4;
                loop {
                    if toks.get(j).is_some_and(|t| t.is_punct('?')) {
                        j += 1;
                    } else if toks.get(j).is_some_and(|t| t.is_punct('.'))
                        && toks
                            .get(j + 1)
                            .is_some_and(|m| m.is_ident("unwrap") || m.is_ident("expect"))
                        && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
                    {
                        // Find the matching `)` of the adapter call.
                        let mut pdepth = 0usize;
                        let mut k = j + 2;
                        while k < toks.len() {
                            if toks[k].is_punct('(') {
                                pdepth += 1;
                            } else if toks[k].is_punct(')') {
                                pdepth -= 1;
                                if pdepth == 0 {
                                    break;
                                }
                            }
                            k += 1;
                        }
                        j = k + 1;
                    } else {
                        break;
                    }
                }
                let guard = match toks.get(j) {
                    // `let g = x.lock();` — lives to the end of the block.
                    Some(t) if t.is_punct(';') && pending_let.is_some() => {
                        Guard { receiver, binding: pending_let.take(), depth, temporary: false }
                    }
                    // `match x.lock() {` / `if let … = x.lock() {` —
                    // lives through the following block.
                    Some(t) if t.is_punct('{') => {
                        Guard { receiver, binding: None, depth: depth + 1, temporary: false }
                    }
                    // Chained or passed along — dies at statement end.
                    _ => Guard { receiver, binding: None, depth, temporary: true },
                };
                guards.push(guard);
                i += 4;
                continue;
            }
            i += 1;
        }
    }
}

/// `durability/sync-before-rename`: in the WAL and checkpoint store, a
/// rename is the commit point — on a crash the destination name must
/// only ever reveal fully durable bytes, so the data must be synced
/// first *in the same function* (lexical proximity is the reviewable
/// unit). Accepts `sync_all`, `sync_data`, or a `sync()` helper call.
fn sync_before_rename(ctx: &FileCtx<'_>, out: &mut Vec<RawViolation>) {
    let name = ctx.file_name();
    if name != "wal.rs" && name != "store.rs" {
        return;
    }
    let toks = ctx.tokens;
    for span in fn_spans(toks) {
        if ctx.test_mask.get(span.kw).copied().unwrap_or(false) {
            continue;
        }
        for i in span.body_open..=span.body_close.min(toks.len().saturating_sub(1)) {
            let is_rename = toks[i].is_ident("rename")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && i >= 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':');
            if !is_rename {
                continue;
            }
            let synced = toks[span.body_open..i]
                .iter()
                .any(|t| t.is_ident("sync_all") || t.is_ident("sync_data") || t.is_ident("sync"));
            if !synced {
                out.push(RawViolation {
                    rule: SYNC_BEFORE_RENAME,
                    line: toks[i].line,
                    message: "`fs::rename` without a preceding `sync_all`/`sync_data` in the \
                              same function: the rename publishes the file, so a crash may \
                              expose un-synced bytes under the committed name"
                        .to_string(),
                });
            }
        }
    }
}

/// `api/must-use-receipt`: receipt-like public types must be
/// `#[must_use]` at the *type declaration* — that covers every function
/// returning them, including through `Result` once unwrapped, which is
/// why the rule targets declarations rather than each `pub fn`.
fn must_use_receipt(ctx: &FileCtx<'_>, out: &mut Vec<RawViolation>) {
    if !ctx.is_lib {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in ctx.live() {
        if !t.is_ident("pub") {
            continue;
        }
        // `pub struct Name` / `pub enum Name` (skipping `pub(crate)` —
        // not public API).
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(kw) = toks.get(j).filter(|t| t.is_ident("struct") || t.is_ident("enum")) else {
            continue;
        };
        j += 1;
        let Some(name) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else { continue };
        if !RECEIPT_SUFFIXES.iter().any(|s| name.text.ends_with(s)) {
            continue;
        }
        if !has_attr(toks, i, "must_use") {
            out.push(RawViolation {
                rule: MUST_USE_RECEIPT,
                line: name.line,
                message: format!(
                    "public {} `{}` looks like a receipt/handle (suffix match) but is not \
                     `#[must_use]`: dropping one silently discards an acknowledgment or \
                     closes a resource",
                    kw.text, name.text
                ),
            });
        }
    }
}
