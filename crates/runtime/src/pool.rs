//! A sharded multi-stream runtime: many independent tensor streams, one
//! process, `N` worker threads, session-based clients.
//!
//! ## Model
//!
//! Every stream (a tenant's sensor feed, one city's traffic matrix, …)
//! is an independent [`StreamingCpd`] engine identified by a `u64`
//! stream id. [`EnginePool::open`] pins the id to one worker thread
//! (`shard = hash(id) % workers`), builds its engine *on* that worker
//! from a declarative [`EngineSpec`], and hands back a [`StreamSession`]
//! — the only way to talk to the stream:
//!
//! - commands for one stream execute **in submission order** on one
//!   thread — no locks around engine state, no cross-thread movement of
//!   live engines;
//! - different streams proceed **concurrently** across workers;
//! - every shard's command queue is **bounded**
//!   ([`PoolConfig::queue_depth`]): [`StreamSession::ingest_batch`]
//!   blocks when the shard is saturated,
//!   [`StreamSession::try_ingest_batch`] surfaces
//!   [`SnsError::Backpressure`] instead — memory stays bounded either
//!   way;
//! - ingestion is **batched** and **acknowledged**: each batch yields a
//!   [`BatchReceipt`] reporting tuples accepted and factor updates
//!   applied, and failures are typed [`SnsError`]s carrying how far the
//!   batch got;
//! - the command pipeline is **zero-alloc and coalescing** at steady
//!   state: batch buffers recycle through a per-shard freelist
//!   (sessions take on submit, the worker returns on ack), and a shard
//!   worker drains every consecutively queued batch for a stream in
//!   one channel acquisition, driving them through a single engine
//!   call — bitwise-identical to per-batch execution because the
//!   per-tuple update sequence is untouched;
//! - a live stream can **migrate**: [`StreamSession::snapshot`] captures
//!   the complete engine state ([`EngineSnapshot`]) and
//!   [`EnginePool::restore`] resumes it on any shard (or another pool),
//!   bitwise-identically;
//! - failures stay **per-stream**: an engine error is returned on that
//!   batch's receipt and recorded in the stream's [`StreamReport`]; an
//!   engine that *panics* is quarantined while every other stream on the
//!   shard keeps running.
//!
//! ## Determinism contract
//!
//! A stream's engine is built from `spec.build(seed)` with
//! `seed = `[`stream_seed`]`(base_seed, id)` — a pure function,
//! independent of shard count and worker scheduling. A serial reference
//! run that builds its engines from the same specs and derived seeds
//! reproduces pooled results exactly, batched or not (see
//! `tests/engine_pool.rs`).

use crate::anomaly::AnomalySummary;
use crate::journal::{BatchJournal, JournalEntry, JournalOp};
use crate::ops::{PoolDeadLetter, PoolOps, QuarantinePolicy};
use crate::snapshot::{EngineSnapshot, EngineState};
use crate::spec::EngineSpec;
use crate::streaming::{BatchOutcome, StreamingCpd};
use sns_core::als::AlsOptions;
use sns_ops::{EvictReason, PoolEvent, QuarantinedOp, StreamMetrics};
use sns_stream::{SnsError, StreamTuple};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::mpsc::{TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool sizing, seeding, and flow control.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker (shard) count. Streams are hashed across workers.
    pub shards: usize,
    /// Base seed that per-stream seeds are derived from.
    pub base_seed: u64,
    /// Bound of each shard's command queue, in commands. Sessions block
    /// ([`StreamSession::ingest_batch`]) or see
    /// [`SnsError::Backpressure`] ([`StreamSession::try_ingest_batch`])
    /// once their shard has this many commands in flight.
    pub queue_depth: usize,
    /// Ring capacity of the lifecycle event bus
    /// ([`EnginePool::ops`]`().bus()`), in events. Slow subscribers lag
    /// (drop-oldest) past this bound; publishers never block.
    pub bus_capacity: usize,
    /// What happens to a stream whose batch panics its engine — see
    /// [`QuarantinePolicy`].
    pub quarantine: QuarantinePolicy,
    /// Write-ahead-log sink. When set, shard workers call
    /// [`BatchJournal::record`] after every acknowledged state-changing
    /// command and stamp snapshots with the stream's WAL sequence (see
    /// [`crate::journal`]). `None` (the default) costs nothing on the
    /// batch path.
    pub journal: Option<Arc<dyn BatchJournal>>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map_or(4, |n| n.get()).min(8);
        PoolConfig {
            shards,
            base_seed: 0x5eed,
            queue_depth: 512,
            bus_capacity: 1024,
            quarantine: QuarantinePolicy::Rollback,
            journal: None,
        }
    }
}

impl std::fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolConfig")
            .field("shards", &self.shards)
            .field("base_seed", &self.base_seed)
            .field("queue_depth", &self.queue_depth)
            .field("bus_capacity", &self.bus_capacity)
            .field("quarantine", &self.quarantine)
            .field("journal", &self.journal.as_ref().map(|_| "attached"))
            .finish()
    }
}

/// Deterministic per-stream seed: a SplitMix64 mix of the pool's base
/// seed and the stream id. Pure — independent of shard count, worker
/// scheduling, and stream open order.
pub fn stream_seed(base_seed: u64, stream_id: u64) -> u64 {
    let mut z = base_seed ^ stream_id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a pool-level checkpoint yields: per stream id, either its
/// captured snapshot or the typed error that stream produced instead.
pub type CheckpointResults = Vec<(u64, Result<EngineSnapshot, SnsError>)>;

/// One stream's recovery result, keyed by its snapshot index.
type RecoverOutcome = (usize, Result<(StreamSession, u64), SnsError>);

/// Acknowledgment for one session command: what the engine actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a receipt is the only acknowledgment a batch gets; check it"]
pub struct BatchReceipt {
    /// The stream the batch went to.
    pub stream_id: u64,
    /// The session-local ticket this receipt acknowledges (the value
    /// [`StreamSession::try_ingest_batch`] returned).
    pub ticket: u64,
    /// Tuples accepted by the engine.
    pub accepted: usize,
    /// Factor updates the batch triggered (events for continuous
    /// engines, periods for baselines).
    pub updates: u64,
    /// Enqueue→ack latency as observed by the session: from the moment
    /// the command entered the shard queue to the moment the session
    /// pulled this receipt. Stamped session-side; also recorded into the
    /// stream's latency histogram
    /// ([`EnginePool::ops`]`().metrics()`).
    pub latency: Duration,
}

/// Snapshot of one stream's model health, produced on its worker.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The stream id the report describes.
    pub stream_id: u64,
    /// Engine display name.
    pub name: String,
    /// Fitness against the stream's current window.
    pub fitness: f64,
    /// Factor updates applied so far.
    pub updates_applied: u64,
    /// Model parameter count.
    pub num_parameters: usize,
    /// Whether the model diverged.
    pub diverged: bool,
    /// Anomaly roll-up, when the stream's engine scores its input (an
    /// [`AnomalyCpd`](crate::anomaly::AnomalyCpd) decoration).
    pub anomalies: Option<AnomalySummary>,
    /// First command error observed on this stream, if any.
    pub error: Option<SnsError>,
}

enum Command {
    Open {
        id: u64,
        token: u64,
        ticket: u64,
        seed: u64,
        spec: EngineSpec,
        replies: Sender<SessionReply>,
    },
    Restore {
        id: u64,
        token: u64,
        ticket: u64,
        snapshot: Box<EngineSnapshot>,
        replies: Sender<SessionReply>,
    },
    Prefill {
        id: u64,
        token: u64,
        ticket: u64,
        tuples: Vec<StreamTuple>,
    },
    WarmStart {
        id: u64,
        token: u64,
        ticket: u64,
        opts: AlsOptions,
    },
    Ingest {
        id: u64,
        token: u64,
        ticket: u64,
        tuples: Vec<StreamTuple>,
    },
    AdvanceTo {
        id: u64,
        token: u64,
        ticket: u64,
        t: u64,
    },
    Report {
        id: u64,
        token: u64,
        ticket: u64,
    },
    Snapshot {
        id: u64,
        token: u64,
        ticket: u64,
    },
    Close {
        id: u64,
        token: u64,
    },
    /// Lifts a stream's quarantine (and clears its sticky error) so
    /// repaired dead-letter batches can be re-driven. Sent by
    /// [`StreamSession::replay_quarantined`] *before* the replayed
    /// batches; FIFO ordering makes the release visible first.
    Release {
        id: u64,
        token: u64,
        ticket: u64,
    },
    /// Pool-wide checkpoint: snapshot every live slot on this shard
    /// (after draining all previously enqueued commands) and reply on a
    /// dedicated channel. Per-stream consistency follows from command
    /// ordering; sessions stay open and unaffected.
    CheckpointShard {
        replies: Sender<Vec<(u64, Result<EngineSnapshot, SnsError>)>>,
    },
    /// Unconditional slot removal (any token): open/restore send this to
    /// the shard that previously owned the stream id (per the pool's
    /// ownership map) so the id lives on at most one shard. Ordering is
    /// guaranteed by the per-stream ownership lock: an `Evict` is always
    /// enqueued after the install command that made its target shard the
    /// owner, so it can never remove a newer slot.
    Evict {
        id: u64,
    },
    Shutdown,
}

enum ReplyBody {
    Receipt(Result<BatchReceipt, SnsError>),
    Report(Box<StreamReport>),
    Snapshot(Box<Result<EngineSnapshot, SnsError>>),
}

struct SessionReply {
    ticket: u64,
    body: ReplyBody,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string())
}

/// Per-shard freelist of recycled batch tuple buffers.
///
/// A session `take`s a buffer to carry a batch's tuples to its shard
/// worker; the worker `put`s the buffer back once the batch has been
/// acknowledged and journaled (batches diverted to the dead-letter
/// queue keep their buffer — the letter owns those tuples). At steady
/// state pooled ingest therefore cycles a small set of allocations
/// instead of allocating a fresh `Vec` per batch; `bench resources
/// --pooled` measures the resulting allocs/event.
///
/// Buffers are cleared on `put`, so a recycled buffer can never leak
/// one stream's tuples into another stream's batch, and the freelist
/// is bounded so a burst cannot pin memory. The mutex is leaf-level:
/// `take`/`put` are O(1) under the lock and never run while another
/// lock is held.
#[derive(Clone)]
struct BufferPool {
    inner: Arc<Mutex<Vec<Vec<StreamTuple>>>>,
}

impl BufferPool {
    /// Freelist bound: deeper than any queue's worth of in-flight
    /// batches needs, small enough that a burst's buffers are released.
    const MAX_POOLED: usize = 64;

    fn new() -> Self {
        BufferPool { inner: Arc::new(Mutex::new(Vec::new())) }
    }

    /// A buffer holding a copy of `tuples` — a recycled allocation when
    /// one is pooled (and large enough from past use), fresh otherwise.
    fn take(&self, tuples: &[StreamTuple]) -> Vec<StreamTuple> {
        let mut buf =
            self.inner.lock().expect("buffer freelist poisoned").pop().unwrap_or_default();
        debug_assert!(buf.is_empty(), "pooled buffer not cleared on put");
        buf.extend_from_slice(tuples);
        buf
    }

    /// Returns a buffer to the freelist, cleared.
    fn put(&self, mut buf: Vec<StreamTuple>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut pool = self.inner.lock().expect("buffer freelist poisoned");
        if pool.len() < Self::MAX_POOLED {
            pool.push(buf);
        }
    }
}

struct StreamSlot {
    name: String,
    /// Session epoch: commands from a replaced (stale) session carry an
    /// older token and are dropped instead of mutating the new engine.
    token: u64,
    spec: EngineSpec,
    seed: u64,
    /// `None` only when a panic could not be rolled back (no rollback
    /// base — [`QuarantinePolicy::Disabled`] or an engine without
    /// snapshot support); the slot then keeps reporting the error.
    engine: Option<Box<dyn StreamingCpd>>,
    error: Option<SnsError>,
    /// Set when a batch panicked and the engine was rolled back: batches
    /// divert to the dead-letter queue until a `Release` arrives.
    quarantined: bool,
    /// High-water mark of the engine's flagged-anomaly counter, for
    /// edge-triggered [`PoolEvent::AnomalyFlagged`] events.
    last_flagged: u64,
    /// Cumulative WAL sequence (journaled units — see
    /// [`crate::journal`]). Advances only on pools with a configured
    /// journal, so journal-less pools snapshot `wal_seq == 0`
    /// everywhere.
    wal_seq: u64,
    /// Panic-rollback base and replay log; stays empty under
    /// [`QuarantinePolicy::Disabled`].
    rollback: RollbackLog,
    metrics: Arc<StreamMetrics>,
    replies: Sender<SessionReply>,
}

impl StreamSlot {
    /// A fresh slot for a stream just opened (`wal_seq` 0) or restored.
    /// A failed engine build leaves no engine and records the error.
    fn new(
        token: u64,
        spec: EngineSpec,
        seed: u64,
        engine: Result<Box<dyn StreamingCpd>, SnsError>,
        wal_seq: u64,
        metrics: Arc<StreamMetrics>,
        replies: Sender<SessionReply>,
    ) -> Self {
        let (name, engine, error) = match engine {
            Ok(engine) => (engine.name(), Some(engine), None),
            Err(e) => (String::new(), None, Some(e)),
        };
        StreamSlot {
            name,
            token,
            spec,
            seed,
            engine,
            error,
            quarantined: false,
            last_flagged: 0,
            wal_seq,
            rollback: RollbackLog::default(),
            metrics,
            replies,
        }
    }

    /// Runs an engine command with panic isolation: an engine that
    /// returns `Err` records the (first) error and passes it through; an
    /// engine that *panics* is quarantined (dropped) and the panic
    /// recorded — the worker thread, its other streams, and the calling
    /// session all survive.
    fn guard<T>(
        &mut self,
        id: u64,
        f: impl FnOnce(&mut dyn StreamingCpd) -> Result<T, SnsError>,
    ) -> Result<T, SnsError> {
        let Some(engine) = self.engine.as_mut() else {
            return Err(self.error.clone().unwrap_or(SnsError::StreamClosed { stream_id: id }));
        };
        match catch_unwind(AssertUnwindSafe(|| f(engine.as_mut()))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => {
                self.error.get_or_insert(e.clone());
                Err(e)
            }
            Err(payload) => {
                let e = SnsError::EnginePanicked { stream_id: id, message: panic_message(payload) };
                self.error.get_or_insert(e.clone());
                self.engine = None;
                Err(e)
            }
        }
    }

    /// Sends a batch acknowledgment; the session may have hung up.
    /// Latency is stamped session-side when the receipt is pulled.
    fn acknowledge(&self, id: u64, ticket: u64, outcome: Result<BatchOutcome, SnsError>) {
        let receipt = outcome.map(|o| BatchReceipt {
            stream_id: id,
            ticket,
            accepted: o.accepted,
            updates: o.updates,
            latency: Duration::ZERO,
        });
        let _ = self.replies.send(SessionReply { ticket, body: ReplyBody::Receipt(receipt) });
    }

    /// Captures the stream's engine for a snapshot or checkpoint.
    /// Deliberately not `guard`ed: a capture failure (e.g. an engine
    /// without capture support) must not be recorded as a stream error.
    fn capture(&self, id: u64) -> Result<EngineSnapshot, SnsError> {
        match (&self.engine, &self.error) {
            (Some(engine), _) => engine.snapshot().map(|state| EngineSnapshot {
                stream_id: id,
                spec: self.spec.clone(),
                seed: self.seed,
                wal_seq: self.wal_seq,
                state,
            }),
            (None, Some(err)) => Err(err.clone()),
            (None, None) => Err(SnsError::StreamClosed { stream_id: id }),
        }
    }

    fn report(&mut self, id: u64) -> StreamReport {
        let metrics = self
            .guard(id, |e| {
                Ok((
                    e.fitness(),
                    e.updates_applied(),
                    e.num_parameters(),
                    e.diverged(),
                    e.anomalies(),
                ))
            })
            .ok();
        let (fitness, updates_applied, num_parameters, diverged, anomalies) =
            metrics.unwrap_or((f64::NAN, 0, 0, false, None));
        StreamReport {
            stream_id: id,
            name: self.name.clone(),
            fitness,
            updates_applied,
            num_parameters,
            diverged,
            anomalies,
            error: self.error.clone(),
        }
    }
}

/// One tuple batch's outcome inside a group, with the engine's
/// flagged-anomaly counter read right after it.
type SegmentOutcome = (Result<BatchOutcome, SnsError>, Option<u64>);

/// Drives one tuple segment through the engine — the live apply path
/// and rollback replay share it.
fn run_segment(
    engine: &mut dyn StreamingCpd,
    op: QuarantinedOp,
    tuples: &[StreamTuple],
) -> Result<BatchOutcome, SnsError> {
    match op {
        QuarantinedOp::Prefill => {
            engine.prefill_all(tuples).map(|n| BatchOutcome { accepted: n, updates: 0 })
        }
        QuarantinedOp::Ingest => engine.ingest_all(tuples),
    }
}

/// Amortized panic rollback for one stream: a captured **base** state
/// plus a **replay log** of every tuple segment applied since.
///
/// The first prefill/ingest group after the base was cleared captures
/// it; every segment applied afterwards is appended to the log (tuples
/// copied into one reused buffer, so the log never holds pooled batch
/// buffers and allocates nothing at steady state). Engines are
/// deterministic, so the base plus a replay of the log rebuilds the live
/// engine bitwise — which is what a panic restores.
///
/// **Rebase rule.** Once the logged replay work — tuples for prefill
/// segments, `accepted + updates` for ingest segments — reaches the
/// window's non-zero count, base and log are cleared and the next group
/// captures afresh. A capture thus copies each non-zero about once per
/// that much replay work, and a panic replays at most about one window's
/// worth of work. Every other engine mutation (warm start, clock
/// advance, a rollback) clears the base; open and restore start without
/// one, and a pool-wide checkpoint releases it so the checkpoint's
/// all-streams capture is not doubled in memory.
#[derive(Default)]
struct RollbackLog {
    base: Option<EngineState>,
    /// Tuples of the logged segments, back to back.
    tuples: Vec<StreamTuple>,
    /// Per logged segment, in apply order: its kind and the end offset
    /// of its tuples in `tuples`.
    segments: Vec<(QuarantinedOp, usize)>,
    /// Replay work logged since the base was captured.
    work: u64,
}

impl RollbackLog {
    fn clear(&mut self) {
        self.base = None;
        self.tuples.clear();
        self.segments.clear();
        self.work = 0;
    }

    /// Appends segments to the log. A no-op without a base
    /// ([`QuarantinePolicy::Disabled`] or no capture support).
    fn push(&mut self, op: QuarantinedOp, segments: &[(u64, Vec<StreamTuple>)]) {
        if self.base.is_none() {
            return;
        }
        for (_, tuples) in segments {
            self.tuples.extend_from_slice(tuples);
            self.segments.push((op, self.tuples.len()));
        }
    }

    /// Logs a group that completed without a panic, applying the rebase
    /// rule: when the group brings the logged replay work to the live
    /// window's non-zero count `nnz`, base and log are cleared instead
    /// (so the log never holds more than about a window's worth).
    fn commit(
        &mut self,
        op: QuarantinedOp,
        group: &[(u64, Vec<StreamTuple>)],
        outcomes: &[SegmentOutcome],
        nnz: usize,
    ) {
        if self.base.is_none() {
            return;
        }
        self.work += outcomes
            .iter()
            .zip(group)
            .map(|((outcome, _), (_, tuples))| match outcome {
                Ok(o) => o.accepted as u64 + o.updates,
                Err(_) => tuples.len() as u64,
            })
            .sum::<u64>();
        if self.work >= nnz as u64 {
            self.clear();
        } else {
            self.push(op, group);
        }
    }

    /// Rebuilds the engine from the base and a replay of the log, then
    /// clears both. `None` when there is no base or the rebuild fails
    /// (a replay of segments that already succeeded cannot panic on a
    /// deterministic engine; if one somehow does, the state is
    /// untrustworthy).
    fn restore(&mut self) -> Option<Box<dyn StreamingCpd>> {
        let engine = self.base.take().and_then(|base| base.into_engine().ok());
        let restored = engine.and_then(|mut engine| {
            let replay = catch_unwind(AssertUnwindSafe(|| {
                let mut start = 0;
                for &(op, end) in &self.segments {
                    // Outcomes (typed errors and their accepted prefixes
                    // included) are deterministic: re-produced, not
                    // re-reported.
                    let _ = run_segment(engine.as_mut(), op, &self.tuples[start..end]);
                    start = end;
                }
            }));
            replay.ok().map(|()| engine)
        });
        self.clear();
        restored
    }
}

/// What a shard worker shares across its slots: its index, the pool's
/// ops surface, the quarantine policy, the WAL sink, and the shard's
/// batch-buffer freelist.
struct ShardCtx {
    shard: usize,
    ops: PoolOps,
    policy: QuarantinePolicy,
    journal: Option<Arc<dyn BatchJournal>>,
    buffers: BufferPool,
}

impl ShardCtx {
    /// Records a batch to the dead-letter queue and publishes the
    /// quarantine event.
    fn divert_to_dlq(
        &self,
        s: &StreamSlot,
        id: u64,
        ticket: u64,
        op: QuarantinedOp,
        tuples: Vec<StreamTuple>,
        error: SnsError,
    ) {
        let count = tuples.len();
        self.ops.dlq().quarantine(id, self.shard, ticket, op, tuples, error, s.spec.clone());
        s.metrics.quarantined.fetch_add(1, Ordering::Relaxed);
        if self.ops.bus().has_subscribers() {
            self.ops.bus().publish(PoolEvent::TupleQuarantined {
                stream_id: id,
                shard: self.shard,
                ticket,
                tuples: count,
            });
        }
    }

    /// Diverts a batch of a quarantined stream to the DLQ, in order, and
    /// fails its receipt.
    fn divert_quarantined(
        &self,
        s: &StreamSlot,
        id: u64,
        ticket: u64,
        op: QuarantinedOp,
        tuples: Vec<StreamTuple>,
    ) {
        let err =
            SnsError::StreamQuarantined { stream_id: id, pending: self.ops.dlq().pending(id) + 1 };
        self.divert_to_dlq(s, id, ticket, op, tuples, err.clone());
        s.acknowledge(id, ticket, Err(err));
    }

    /// Applies a group of tuple segments for one stream — a single
    /// prefill batch, or a coalesced run of ingest batches — in one
    /// engine acquisition, with quarantine semantics.
    ///
    /// Observable behavior is identical to applying each segment on its
    /// own in submission order: every segment still runs the engine's
    /// own per-tuple `prefill_all`/`ingest_all` path, so update order —
    /// and the RNG draw order the `_RND` families depend on — is
    /// untouched and the results stay **bitwise** equal to per-batch
    /// (and to serial) execution. What grouping amortizes is the
    /// per-batch overhead: one slot lookup and one stream-metrics flush
    /// per group; the anomaly probe still runs per segment, so
    /// edge-triggered events match serial execution.
    ///
    /// A panic at segment `k` under [`QuarantinePolicy::Rollback`]
    /// rebuilds the engine from the stream's [`RollbackLog`] — base,
    /// logged segments, then the group's `k` completed segments — which
    /// is bitwise the state serial per-batch execution would have left;
    /// it then quarantines the stream, diverts the panicking segment to
    /// the DLQ, and diverts/fails the remainder with the same
    /// per-segment errors serial execution produces. Without a base the
    /// slot goes dark.
    fn apply_group(
        &self,
        s: &mut StreamSlot,
        id: u64,
        op: QuarantinedOp,
        group: &mut Vec<(u64, Vec<StreamTuple>)>,
    ) {
        if s.quarantined {
            for (ticket, tuples) in group.drain(..) {
                self.divert_quarantined(s, id, ticket, op, tuples);
            }
            return;
        }
        let Some(engine) = s.engine.as_mut() else {
            let err = s.error.clone().unwrap_or(SnsError::StreamClosed { stream_id: id });
            for (ticket, tuples) in group.drain(..) {
                self.buffers.put(tuples);
                s.acknowledge(id, ticket, Err(err.clone()));
            }
            return;
        };
        if self.policy == QuarantinePolicy::Rollback && s.rollback.base.is_none() {
            s.rollback.base = engine.snapshot().ok();
            if s.rollback.base.is_some() {
                let captures = &self.ops.metrics().shard(self.shard).rollback_captures;
                captures.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Drive every segment inside one panic guard, collecting each
        // outcome plus the post-segment anomaly counter.
        let mut outcomes: Vec<SegmentOutcome> = Vec::with_capacity(group.len());
        let panic_payload = {
            let outcomes = &mut outcomes;
            catch_unwind(AssertUnwindSafe(|| {
                for (_, tuples) in group.iter() {
                    let r = run_segment(engine.as_mut(), op, tuples);
                    outcomes.push((r, engine.anomalies().map(|a| a.flagged)));
                }
            }))
            .err()
        };
        // Log the completed segments before their buffers are journaled
        // and recycled below.
        let panic_err = match panic_payload {
            None => {
                s.rollback.commit(op, group, &outcomes, engine.window().nnz());
                None
            }
            Some(payload) => {
                self.ops.metrics().shard(self.shard).panics.fetch_add(1, Ordering::Relaxed);
                s.rollback.push(op, &group[..outcomes.len()]);
                s.engine = s.rollback.restore();
                s.quarantined = s.engine.is_some();
                Some(SnsError::EnginePanicked { stream_id: id, message: panic_message(payload) })
            }
        };
        // Per-segment post-processing, in ticket order — acks, journal
        // entries, and first-error recording exactly as per-batch
        // execution produces them; the counter deltas are flushed once
        // at the end.
        let mut batches = 0u64;
        let mut tuples_total = 0u64;
        let mut updates = 0u64;
        let mut errors = 0u64;
        let mut segments = group.drain(..);
        for ((outcome, flagged), (ticket, tuples)) in outcomes.into_iter().zip(&mut segments) {
            match outcome {
                Ok(outcome) => {
                    batches += 1;
                    tuples_total += outcome.accepted as u64;
                    updates += outcome.updates;
                    if let Some(flagged) = flagged.filter(|&f| f > s.last_flagged) {
                        s.last_flagged = flagged;
                        if self.ops.bus().has_subscribers() {
                            self.ops.bus().publish(PoolEvent::AnomalyFlagged {
                                stream_id: id,
                                shard: self.shard,
                                flagged,
                            });
                        }
                    }
                    s.acknowledge(id, ticket, Ok(outcome));
                }
                Err(e) => {
                    errors += 1;
                    s.error.get_or_insert(e.clone());
                    s.acknowledge(id, ticket, Err(e));
                }
            }
            // Journaled in full even after a typed error: the engine
            // applied the accepted prefix, which is exactly what a
            // deterministic replay of the same tuples reproduces.
            let jop = match op {
                QuarantinedOp::Prefill => JournalOp::Prefill(&tuples),
                QuarantinedOp::Ingest => JournalOp::Ingest(&tuples),
            };
            self.journal_op(s, id, ticket, jop);
            self.buffers.put(tuples);
        }
        if let (Some(e), Some((ticket, tuples))) = (panic_err, segments.next()) {
            errors += 1;
            s.error.get_or_insert(e.clone());
            self.divert_to_dlq(s, id, ticket, op, tuples, e.clone());
            s.acknowledge(id, ticket, Err(e));
            for (ticket, tuples) in segments {
                if s.quarantined {
                    self.divert_quarantined(s, id, ticket, op, tuples);
                } else {
                    // The slot went dark (no rollback base): no divert,
                    // the recorded error is the acknowledgment.
                    let err = s.error.clone().unwrap_or(SnsError::StreamClosed { stream_id: id });
                    self.buffers.put(tuples);
                    s.acknowledge(id, ticket, Err(err));
                }
            }
        }
        if batches > 0 {
            s.metrics.batches.fetch_add(batches, Ordering::Relaxed);
            s.metrics.tuples.fetch_add(tuples_total, Ordering::Relaxed);
            s.metrics.updates.fetch_add(updates, Ordering::Relaxed);
        }
        if errors > 0 {
            s.metrics.errors.fetch_add(errors, Ordering::Relaxed);
        }
    }

    /// Applies a non-tuple engine mutation (warm start, clock advance)
    /// with the shared command bookkeeping: quarantined streams reject
    /// it, failures are counted, and only applied commands are
    /// journaled. Either way the rollback base is cleared — the
    /// mutation is not in its replay log.
    fn apply_control(
        &self,
        s: &mut StreamSlot,
        id: u64,
        ticket: u64,
        jop: JournalOp<'_>,
        f: impl FnOnce(&mut dyn StreamingCpd) -> BatchOutcome,
    ) {
        s.rollback.clear();
        let outcome = if s.quarantined {
            // Warm-starting or advancing a rolled-back model would bake
            // the missing quarantined batches' absence into the factors
            // and the clock; replay first.
            Err(SnsError::StreamQuarantined { stream_id: id, pending: self.ops.dlq().pending(id) })
        } else {
            s.guard(id, |e| Ok(f(e)))
        };
        if outcome.is_err() {
            s.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let applied = outcome.is_ok();
        s.acknowledge(id, ticket, outcome);
        if applied {
            self.journal_op(s, id, ticket, jop);
        }
    }

    /// Journals an operation that reached the engine (called **after**
    /// the ack, on the worker) and publishes the matching
    /// [`PoolEvent::BatchApplied`] event. A no-op on journal-less pools
    /// and for empty batches (they change no state and carry no
    /// sequence).
    fn journal_op(&self, s: &mut StreamSlot, id: u64, ticket: u64, op: JournalOp<'_>) {
        let Some(journal) = &self.journal else { return };
        let units = op.units();
        if units == 0 {
            return;
        }
        s.wal_seq += units;
        journal.record(JournalEntry { stream_id: id, seq: s.wal_seq, ticket, op });
        if self.ops.bus().has_subscribers() {
            self.ops.bus().publish(PoolEvent::BatchApplied {
                stream_id: id,
                shard: self.shard,
                units,
                seq: s.wal_seq,
            });
        }
    }

    /// Installs the slot of a stream opened or restored on this shard:
    /// records the shard in the stream's metrics, acks the open ticket
    /// (with the build error, if any), replaces any previous slot
    /// (publishing [`EvictReason::Replaced`]), then publishes `event`.
    fn install_slot(
        &self,
        slots: &mut HashMap<u64, StreamSlot>,
        id: u64,
        ticket: u64,
        slot: StreamSlot,
        event: Option<PoolEvent>,
    ) {
        slot.metrics.shard.store(self.shard, Ordering::Relaxed);
        let outcome = match &slot.error {
            Some(e) => Err(e.clone()),
            None => Ok(BatchOutcome { accepted: 0, updates: 0 }),
        };
        slot.acknowledge(id, ticket, outcome);
        if slots.insert(id, slot).is_some() {
            self.publish_evicted(id, EvictReason::Replaced);
        }
        if let Some(event) = event {
            if self.ops.bus().has_subscribers() {
                self.ops.bus().publish(event);
            }
        }
    }

    fn publish_evicted(&self, id: u64, reason: EvictReason) {
        if self.ops.bus().has_subscribers() {
            self.ops.bus().publish(PoolEvent::StreamEvicted {
                stream_id: id,
                shard: self.shard,
                reason,
            });
        }
    }
}

fn worker_loop(ctx: ShardCtx, rx: Receiver<Command>) {
    let ShardCtx { shard, ref ops, ref buffers, .. } = ctx;
    let mut slots: HashMap<u64, StreamSlot> = HashMap::new();
    // Commands from a replaced (stale) session are dropped: the stale
    // session's reply channel is already disconnected, so its blocked
    // calls observe `StreamClosed` rather than hanging.
    fn live(slots: &mut HashMap<u64, StreamSlot>, id: u64, token: u64) -> Option<&mut StreamSlot> {
        slots.get_mut(&id).filter(|s| s.token == token)
    }
    // A command pulled while coalescing an ingest group that belongs to
    // a different stream/kind; processed (already counted) next turn.
    let mut carry: Option<Command> = None;
    // Reusable (ticket, tuples) scratch for tuple groups.
    let mut group: Vec<(u64, Vec<StreamTuple>)> = Vec::new();
    loop {
        let cmd = match carry.take() {
            Some(cmd) => cmd,
            None => {
                let Ok(cmd) = rx.recv() else { break };
                let shard_metrics = ops.metrics().shard(shard);
                shard_metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                shard_metrics.commands.fetch_add(1, Ordering::Relaxed);
                cmd
            }
        };
        match cmd {
            Command::Open { id, token, ticket, seed, spec, replies } => {
                let effective = spec.effective_seed(seed);
                let engine = catch_unwind(AssertUnwindSafe(|| spec.build(seed))).map_err(|p| {
                    SnsError::EngineBuildFailed { stream_id: id, message: panic_message(p) }
                });
                let metrics = ops.metrics().stream(id);
                let slot = StreamSlot::new(token, spec, effective, engine, 0, metrics, replies);
                let event = slot.engine.is_some().then(|| PoolEvent::StreamOpened {
                    stream_id: id,
                    shard,
                    engine: slot.name.clone(),
                });
                ctx.install_slot(&mut slots, id, ticket, slot, event);
            }
            Command::Restore { id, token, ticket, snapshot, replies } => {
                let EngineSnapshot { spec, seed, state, wal_seq, .. } = *snapshot;
                match state.into_engine() {
                    Ok(engine) => {
                        let metrics = ops.metrics().stream(id);
                        let slot = StreamSlot::new(
                            token,
                            spec,
                            seed,
                            Ok(engine),
                            wal_seq,
                            metrics,
                            replies,
                        );
                        let event = PoolEvent::StreamMigrated { stream_id: id, shard };
                        ctx.install_slot(&mut slots, id, ticket, slot, Some(event));
                    }
                    Err(e) => {
                        // An inconsistent snapshot installs nothing; the
                        // caller sees the typed error on the open ack.
                        let _ =
                            replies.send(SessionReply { ticket, body: ReplyBody::Receipt(Err(e)) });
                    }
                }
            }
            Command::Prefill { id, token, ticket, tuples } => {
                // A one-segment group: prefill never coalesces with
                // ingest (the two drive different engine calls).
                group.clear();
                group.push((ticket, tuples));
                match live(&mut slots, id, token) {
                    Some(s) => ctx.apply_group(s, id, QuarantinedOp::Prefill, &mut group),
                    None => group.drain(..).for_each(|(_, buf)| buffers.put(buf)),
                }
            }
            Command::WarmStart { id, token, ticket, opts } => {
                if let Some(s) = live(&mut slots, id, token) {
                    ctx.apply_control(s, id, ticket, JournalOp::WarmStart(&opts), |e| {
                        e.warm_start(&opts);
                        BatchOutcome { accepted: 0, updates: 0 }
                    });
                }
            }
            Command::Ingest { id, token, ticket, tuples } => {
                // Coalesce: drain every already-queued consecutive
                // ingest for the same session in this one channel
                // acquisition run and drive them as a single group —
                // one slot lookup, one metrics flush. The first command
                // for a different stream (or of a different kind) is
                // carried into the next loop turn, preserving global
                // submission order. Per-tuple update order inside the
                // engine is untouched, so results stay bitwise identical
                // to per-batch execution (see `ShardCtx::apply_group`).
                group.clear();
                group.push((ticket, tuples));
                let mut drained = 0u64;
                while carry.is_none() {
                    match rx.try_recv() {
                        Ok(Command::Ingest { id: i2, token: t2, ticket: k2, tuples: u2 })
                            if i2 == id && t2 == token =>
                        {
                            drained += 1;
                            group.push((k2, u2));
                        }
                        Ok(other) => {
                            drained += 1;
                            carry = Some(other);
                        }
                        Err(_) => break,
                    }
                }
                let shard_metrics = ops.metrics().shard(shard);
                if drained > 0 {
                    shard_metrics.queue_depth.fetch_sub(drained as i64, Ordering::Relaxed);
                    shard_metrics.commands.fetch_add(drained, Ordering::Relaxed);
                }
                shard_metrics.ingest_groups.fetch_add(1, Ordering::Relaxed);
                match live(&mut slots, id, token) {
                    Some(s) => ctx.apply_group(s, id, QuarantinedOp::Ingest, &mut group),
                    // Stale session: drop the batches, recycle buffers.
                    None => group.drain(..).for_each(|(_, buf)| buffers.put(buf)),
                }
            }
            Command::AdvanceTo { id, token, ticket, t } => {
                if let Some(s) = live(&mut slots, id, token) {
                    ctx.apply_control(s, id, ticket, JournalOp::AdvanceTo(t), |e| BatchOutcome {
                        accepted: 0,
                        updates: e.advance_to(t) as u64,
                    });
                }
            }
            Command::Release { id, token, ticket } => {
                if let Some(s) = live(&mut slots, id, token) {
                    s.quarantined = false;
                    s.error = None;
                    s.acknowledge(id, ticket, Ok(BatchOutcome { accepted: 0, updates: 0 }));
                }
            }
            Command::Report { id, token, ticket } => {
                if let Some(s) = live(&mut slots, id, token) {
                    let report = s.report(id);
                    let _ = s
                        .replies
                        .send(SessionReply { ticket, body: ReplyBody::Report(Box::new(report)) });
                }
            }
            Command::Snapshot { id, token, ticket } => {
                if let Some(s) = live(&mut slots, id, token) {
                    let result = s.capture(id);
                    let _ = s
                        .replies
                        .send(SessionReply { ticket, body: ReplyBody::Snapshot(Box::new(result)) });
                }
            }
            Command::Close { id, token } => {
                if slots.get(&id).is_some_and(|s| s.token == token) {
                    slots.remove(&id);
                    ctx.publish_evicted(id, EvictReason::Closed);
                }
            }
            Command::CheckpointShard { replies } => {
                // Every stream's state is captured at once here — the
                // pool's memory peak. Rollback bases are released first
                // so they do not double it; each stream's next tuple
                // group re-captures.
                let mut out: Vec<(u64, Result<EngineSnapshot, SnsError>)> = slots
                    .iter_mut()
                    .map(|(&id, s)| {
                        s.rollback.clear();
                        (id, s.capture(id))
                    })
                    .collect();
                out.sort_by_key(|&(id, _)| id);
                let _ = replies.send(out);
            }
            Command::Evict { id } => {
                if slots.remove(&id).is_some() {
                    ctx.publish_evicted(id, EvictReason::Evicted);
                }
            }
            Command::Shutdown => break,
        }
    }
}

/// Shards many independent [`StreamingCpd`] streams across worker
/// threads behind bounded queues. See the module docs for the threading,
/// flow-control, and determinism model.
pub struct EnginePool {
    senders: Vec<SyncSender<Command>>,
    workers: Vec<JoinHandle<()>>,
    base_seed: u64,
    queue_depth: usize,
    next_token: AtomicU64,
    ops: PoolOps,
    /// Per-shard freelists of recycled batch buffers; sessions take
    /// from their shard's freelist, the worker returns on ack.
    buffer_pools: Vec<BufferPool>,
    /// Which shard currently owns each stream id, if any. The outer lock
    /// only guards map shape (get-or-insert of a cell) and is never held
    /// across a channel send; the per-stream cell serializes
    /// claim + evict + install for one id (see [`EnginePool::start_session`]).
    /// Entries are kept after close — a stale entry is only a hint and an
    /// `Evict` to a shard without the slot is a no-op.
    owners: Mutex<HashMap<u64, Arc<Mutex<Option<usize>>>>>,
}

impl EnginePool {
    /// Spawns the worker threads.
    pub fn new(cfg: PoolConfig) -> Self {
        let shards = cfg.shards.max(1);
        let queue_depth = cfg.queue_depth.max(1);
        let ops = PoolOps::new(shards, queue_depth, cfg.bus_capacity.max(1));
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        let mut buffer_pools = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = sync_channel::<Command>(queue_depth);
            let buffers = BufferPool::new();
            let ctx = ShardCtx {
                shard: i,
                ops: ops.clone(),
                policy: cfg.quarantine,
                journal: cfg.journal.clone(),
                buffers: buffers.clone(),
            };
            let handle = std::thread::Builder::new()
                .name(format!("sns-pool-{i}"))
                .spawn(move || worker_loop(ctx, rx))
                .expect("spawn engine pool worker");
            senders.push(tx);
            workers.push(handle);
            buffer_pools.push(buffers);
        }
        EnginePool {
            senders,
            workers,
            base_seed: cfg.base_seed,
            queue_depth,
            next_token: AtomicU64::new(0),
            ops,
            buffer_pools,
            owners: Mutex::new(HashMap::new()),
        }
    }

    /// Number of worker threads.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// The pool's operability surface: lifecycle event bus, metrics
    /// registry (per-stream counters + latency histograms, per-shard
    /// queue gauges), and the dead-letter queue of quarantined batches.
    pub fn ops(&self) -> &PoolOps {
        &self.ops
    }

    /// Counts a command entering `shard`'s queue (the worker decrements
    /// on receive, so the gauge reads commands in flight).
    fn track_send(&self, shard: usize) {
        self.ops.metrics().shard(shard).queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Which worker serves a stream id (stable for the pool's lifetime).
    pub fn shard_of(&self, stream_id: u64) -> usize {
        // Re-mix so adjacent ids spread across shards.
        (stream_seed(0, stream_id) % self.senders.len() as u64) as usize
    }

    /// Opens a stream: the engine described by `spec` is built on the
    /// stream's worker with the deterministic seed
    /// [`stream_seed`]`(base_seed, id)` (unless the spec pins one) and a
    /// [`StreamSession`] for it is returned. Blocks until the engine is
    /// built; a constructor panic surfaces as
    /// [`SnsError::EngineBuildFailed`].
    ///
    /// Re-opening an id replaces the previous engine and invalidates the
    /// previous session (its calls return [`SnsError::StreamClosed`]).
    pub fn open(&self, stream_id: u64, spec: EngineSpec) -> Result<StreamSession, SnsError> {
        let shard = self.shard_of(stream_id);
        let seed = stream_seed(self.base_seed, stream_id);
        self.start_session(stream_id, shard, |token, replies| Command::Open {
            id: stream_id,
            token,
            ticket: 0,
            seed,
            spec,
            replies,
        })
    }

    /// Resumes a snapshotted stream on an explicit shard — possibly of a
    /// different pool — continuing bitwise-identically from the captured
    /// state. Blocks until the stream is installed.
    ///
    /// Restoring over a still-open session of the same id replaces it,
    /// exactly like [`EnginePool::open`].
    pub fn restore(
        &self,
        snapshot: EngineSnapshot,
        shard: usize,
    ) -> Result<StreamSession, SnsError> {
        if shard >= self.senders.len() {
            return Err(SnsError::ShardOutOfRange { shard, shards: self.senders.len() });
        }
        // Validate the snapshot *before* the session claim: start_session
        // evicts the id's previous engine before the worker installs the
        // new one, so an invalid snapshot (e.g. decoded from a corrupted
        // store entry that passed its checksum) must be rejected here —
        // otherwise it would destroy the still-healthy session and leave
        // the stream id dead. A throwaway rebuild on the caller thread is
        // the validation; restores are control-plane rare.
        snapshot.state.clone().into_engine()?;
        let stream_id = snapshot.stream_id;
        self.start_session(stream_id, shard, |token, replies| Command::Restore {
            id: stream_id,
            token,
            ticket: 0,
            snapshot: Box::new(snapshot),
            replies,
        })
    }

    fn start_session(
        &self,
        stream_id: u64,
        shard: usize,
        make: impl FnOnce(u64, Sender<SessionReply>) -> Command,
    ) -> Result<StreamSession, SnsError> {
        // A stream id lives on at most one shard. The ownership map knows
        // which shard that is (a previous `restore` may have moved the id
        // off its hash shard), so only the owning shard — if any, and if
        // different — receives an `Evict`; a saturated *unrelated* shard
        // is never touched and cannot stall this open.
        //
        // Claim-then-evict is atomic per stream: the per-stream cell is
        // held from the claim until the install command is enqueued, so
        // concurrent `open`/`restore` of the same id serialize. The last
        // claimant's install is the last command any shard receives for
        // the id (channels are FIFO and the loser's `Evict`/install were
        // enqueued while it held the cell earlier), hence exactly one
        // slot survives. Evicting the owning shard may still block on
        // *that* shard's bounded queue — it is the one shard actually
        // serving this stream.
        let cell = {
            let mut owners = self.owners.lock().expect("ownership map poisoned");
            Arc::clone(owners.entry(stream_id).or_default())
        };
        let mut owner = cell.lock().expect("ownership cell poisoned");
        if let Some(prev) = owner.replace(shard).filter(|&p| p != shard) {
            if self.senders[prev].send(Command::Evict { id: stream_id }).is_ok() {
                self.track_send(prev);
            }
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel();
        let tx = self.senders[shard].clone();
        tx.send(make(token, reply_tx)).map_err(|_| SnsError::StreamClosed { stream_id })?;
        self.track_send(shard);
        drop(owner);
        let metrics = self.ops.metrics().stream(stream_id);
        let mut session = StreamSession {
            stream_id,
            shard,
            token,
            queue_depth: self.queue_depth,
            tx,
            rx: reply_rx,
            next_ticket: 1,
            buffered: VecDeque::new(),
            unclaimed: 0,
            closed: false,
            ops: self.ops.clone(),
            metrics,
            buffers: self.buffer_pools[shard].clone(),
            pending_at: VecDeque::new(),
        };
        match session.wait_for(0)? {
            ReplyBody::Receipt(Ok(_)) => Ok(session),
            ReplyBody::Receipt(Err(e)) => Err(e),
            _ => Err(SnsError::Internal {
                detail: "open/restore must acknowledge with a receipt".to_string(),
            }),
        }
    }

    /// Checkpoints **every** live stream in the pool: each worker drains
    /// its previously enqueued commands, then snapshots all of its slots
    /// in one step. The result is per-stream consistent (a stream's
    /// snapshot reflects exactly the commands acknowledged before it)
    /// and sorted by stream id; sessions stay open and unaffected.
    ///
    /// Streams whose engine cannot be captured (quarantined after a
    /// panic, or an engine family with an explicit snapshot opt-out)
    /// report their typed error in place, so one bad stream never hides
    /// the rest of the fleet's checkpoint.
    ///
    /// For cross-stream consistency, quiesce the clients first (collect
    /// all outstanding receipts); in-flight batches submitted *after*
    /// this call may or may not be included.
    pub fn checkpoint_all(&self) -> CheckpointResults {
        let (tx, rx) = channel();
        let mut expected = 0usize;
        for (i, sender) in self.senders.iter().enumerate() {
            if sender.send(Command::CheckpointShard { replies: tx.clone() }).is_ok() {
                self.track_send(i);
                expected += 1;
            }
        }
        drop(tx);
        let mut all: Vec<(u64, Result<EngineSnapshot, SnsError>)> = Vec::new();
        for _ in 0..expected {
            match rx.recv() {
                Ok(mut shard) => all.append(&mut shard),
                Err(_) => break, // worker gone; its streams are lost
            }
        }
        all.sort_by_key(|&(id, _)| id);
        for i in 0..self.senders.len() {
            self.ops.metrics().shard(i).checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        if self.ops.bus().has_subscribers() {
            self.ops.bus().publish(PoolEvent::CheckpointCommitted { streams: all.len() });
        }
        all
    }

    /// Checkpoints the live streams of **one** shard — the amortized
    /// building block behind background checkpointing: a policy daemon
    /// walks shards round-robin, paying one shard's capture cost per
    /// step instead of stalling the whole pool at once (see
    /// `sns_codec::daemon`). Same per-stream consistency and error
    /// semantics as [`EnginePool::checkpoint_all`]; results are sorted
    /// by stream id.
    ///
    /// # Errors
    /// [`SnsError::ShardOutOfRange`] if `shard` does not name a worker;
    /// [`SnsError::StreamClosed`] (stream 0) if the pool is shutting
    /// down and the worker is gone.
    pub fn checkpoint_shard(&self, shard: usize) -> Result<CheckpointResults, SnsError> {
        let Some(sender) = self.senders.get(shard) else {
            return Err(SnsError::ShardOutOfRange { shard, shards: self.senders.len() });
        };
        let (tx, rx) = channel();
        sender
            .send(Command::CheckpointShard { replies: tx })
            .map_err(|_| SnsError::StreamClosed { stream_id: 0 })?;
        self.track_send(shard);
        let out = rx.recv().map_err(|_| SnsError::StreamClosed { stream_id: 0 })?;
        self.ops.metrics().shard(shard).checkpoints.fetch_add(1, Ordering::Relaxed);
        if self.ops.bus().has_subscribers() {
            self.ops.bus().publish(PoolEvent::CheckpointCommitted { streams: out.len() });
        }
        Ok(out)
    }

    /// The single crash-recovery driver: rebuilds every snapshotted
    /// stream on this pool, each on its stream id's home shard, and runs
    /// `replay(session, wal_seq)` right after each restore (`wal_seq` is
    /// the snapshot's [`EngineSnapshot::wal_seq`]; `replay` returns the
    /// units it re-drove). Restored engines continue
    /// bitwise-identically — this is the recovery half of
    /// [`EnginePool::checkpoint_all`], used after a crash (typically
    /// with snapshots loaded from a `CheckpointStore`, plus a journal
    /// tail replay in `replay`).
    ///
    /// Shards recover in parallel: one scoped thread per shard that owns
    /// at least one snapshot restores and replays that shard's streams
    /// in snapshot order, so recovery wall time is about the slowest
    /// shard's work rather than the sum over streams. Each stream's
    /// commands still flow in order through its own shard, and streams
    /// are independent, so the result is the same as a serial recovery.
    ///
    /// Returns the live sessions in snapshot order plus the summed
    /// replay units.
    ///
    /// # Errors
    /// The first failure in snapshot order: a snapshot the pool cannot
    /// restore, an error from `replay`, [`SnsError::Io`] if the OS
    /// refuses a recovery thread, or [`SnsError::Internal`] if one
    /// panicked. Once a stream fails, the other shards stop before their
    /// next later stream; every earlier stream still runs, so the
    /// reported error does not depend on thread timing. No session is
    /// returned on error: the sessions already recovered are dropped,
    /// which closes their streams again.
    pub fn recover_all(
        &self,
        snapshots: Vec<EngineSnapshot>,
        replay: impl Fn(&mut StreamSession, u64) -> Result<u64, SnsError> + Sync,
    ) -> Result<(Vec<StreamSession>, u64), SnsError> {
        let mut by_shard: Vec<Vec<(usize, EngineSnapshot)>> =
            (0..self.shards()).map(|_| Vec::new()).collect();
        for (index, snapshot) in snapshots.into_iter().enumerate() {
            by_shard[self.shard_of(snapshot.stream_id)].push((index, snapshot));
        }
        // Lowest snapshot index that failed so far. A shard stops only
        // before streams *after* it, so the minimum failing index is
        // always reached and reported, whatever the thread timing.
        let first_failure = AtomicUsize::new(usize::MAX);
        let replay = &replay;
        let mut outcomes: Vec<RecoverOutcome> = std::thread::scope(|scope| {
            let mut outcomes = Vec::new();
            let mut handles = Vec::new();
            for (shard, work) in by_shard.into_iter().enumerate() {
                let Some(&(first, _)) = work.first() else { continue };
                let failure = &first_failure;
                let spawned = std::thread::Builder::new()
                    .name(format!("sns-recover-{shard}"))
                    .spawn_scoped(scope, move || self.recover_shard(shard, work, replay, failure));
                match spawned {
                    Ok(handle) => handles.push((shard, first, handle)),
                    Err(e) => {
                        first_failure.fetch_min(first, Ordering::SeqCst);
                        outcomes.push((
                            first,
                            Err(SnsError::Io {
                                path: format!("sns-recover-{shard}"),
                                message: format!("cannot spawn recovery thread: {e}"),
                            }),
                        ));
                    }
                }
            }
            for (shard, first, handle) in handles {
                match handle.join() {
                    Ok(mut done) => outcomes.append(&mut done),
                    Err(_) => outcomes.push((
                        first,
                        Err(SnsError::Internal {
                            detail: format!("recovery thread of shard {shard} panicked"),
                        }),
                    )),
                }
            }
            outcomes
        });
        outcomes.sort_by_key(|&(index, _)| index);
        let mut sessions = Vec::with_capacity(outcomes.len());
        let mut replayed = 0u64;
        for (_, outcome) in outcomes {
            let (session, units) = outcome?;
            sessions.push(session);
            replayed += units;
        }
        Ok((sessions, replayed))
    }

    /// One shard's half of [`EnginePool::recover_all`]: restore, then
    /// replay, each stream in snapshot order; stops before any stream
    /// later than the first failure seen on any shard.
    fn recover_shard(
        &self,
        shard: usize,
        work: Vec<(usize, EngineSnapshot)>,
        replay: &(impl Fn(&mut StreamSession, u64) -> Result<u64, SnsError> + Sync),
        first_failure: &AtomicUsize,
    ) -> Vec<RecoverOutcome> {
        let mut out = Vec::with_capacity(work.len());
        for (index, snapshot) in work {
            if index > first_failure.load(Ordering::SeqCst) {
                break;
            }
            let wal_seq = snapshot.wal_seq;
            let outcome = self.restore(snapshot, shard).and_then(|mut session| {
                let units = replay(&mut session, wal_seq)?;
                Ok((session, units))
            });
            let failed = outcome.is_err();
            out.push((index, outcome));
            if failed {
                first_failure.fetch_min(index, Ordering::SeqCst);
                break;
            }
        }
        out
    }

    /// Shuts the workers down and waits for them to finish. Sessions
    /// outliving the pool observe [`SnsError::StreamClosed`].
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        for (i, tx) in self.senders.iter().enumerate() {
            // Workers that already exited are fine to ignore.
            if tx.send(Command::Shutdown).is_ok() {
                self.track_send(i);
            }
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client handle to one pooled stream: batched, acknowledged,
/// flow-controlled ingestion plus state capture.
///
/// Obtained from [`EnginePool::open`] / [`EnginePool::restore`]. All
/// commands for the stream flow through its shard's **bounded** queue in
/// submission order. Two ingestion disciplines compose freely:
///
/// - **Synchronous**: [`StreamSession::ingest_batch`] submits and blocks
///   for the batch's [`BatchReceipt`] (waiting first for queue space if
///   the shard is saturated — flow control by blocking).
/// - **Pipelined**: [`StreamSession::try_ingest_batch`] submits without
///   blocking and returns a ticket, or [`SnsError::Backpressure`] when
///   the shard queue is full; receipts are collected later with
///   [`StreamSession::recv_receipt`] / [`StreamSession::try_recv_receipt`]
///   in submission order.
///
/// Dropping the session closes the stream (best-effort; [`StreamSession::close`]
/// is the reliable way).
#[must_use = "dropping a StreamSession closes its stream; bind it"]
pub struct StreamSession {
    stream_id: u64,
    shard: usize,
    token: u64,
    queue_depth: usize,
    tx: SyncSender<Command>,
    rx: Receiver<SessionReply>,
    next_ticket: u64,
    /// Receipts for pipelined batches that arrived while a blocking call
    /// was waiting for its own reply; handed out FIFO by `recv_receipt`.
    buffered: VecDeque<Result<BatchReceipt, SnsError>>,
    /// Pipelined batches whose receipts the caller has not collected.
    unclaimed: usize,
    closed: bool,
    ops: PoolOps,
    /// This stream's metrics handle (latency histogram, replay counter).
    metrics: Arc<StreamMetrics>,
    /// The shard's batch-buffer freelist: batch submissions reuse
    /// acknowledged batches' allocations instead of allocating.
    buffers: BufferPool,
    /// Enqueue timestamps of outstanding receipt-bearing commands, in
    /// ticket order; receipts are stamped with `enqueue → pull` latency.
    pending_at: VecDeque<(u64, Instant)>,
}

impl StreamSession {
    /// The stream this session controls.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// The worker shard serving this stream.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Pipelined batches whose receipts have not been collected yet.
    pub fn in_flight(&self) -> usize {
        self.unclaimed
    }

    fn bump_ticket(&mut self) -> u64 {
        let t = self.next_ticket;
        self.next_ticket += 1;
        t
    }

    fn closed_err(&self) -> SnsError {
        SnsError::StreamClosed { stream_id: self.stream_id }
    }

    /// Blocking submit (waits for queue space — flow control). A submit
    /// that actually has to wait publishes edge-triggered
    /// [`PoolEvent::BackpressureOnset`] / [`PoolEvent::BackpressureRelief`]
    /// events around the stall.
    fn submit(&mut self, cmd: Command) -> Result<(), SnsError> {
        let gauge = &self.ops.metrics().shard(self.shard).queue_depth;
        match self.tx.try_send(cmd) {
            Ok(()) => {
                gauge.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(cmd)) => {
                let observed = self.ops.bus().has_subscribers();
                if observed {
                    self.ops.bus().publish(PoolEvent::BackpressureOnset {
                        stream_id: self.stream_id,
                        shard: self.shard,
                        depth: self.ops.metrics().shard(self.shard).depth(),
                        capacity: self.queue_depth,
                    });
                }
                let sent = self.tx.send(cmd).map_err(|_| self.closed_err());
                if sent.is_ok() {
                    gauge.fetch_add(1, Ordering::Relaxed);
                    if observed {
                        self.ops.bus().publish(PoolEvent::BackpressureRelief {
                            stream_id: self.stream_id,
                            shard: self.shard,
                        });
                    }
                }
                sent
            }
            Err(TrySendError::Disconnected(_)) => Err(self.closed_err()),
        }
    }

    /// Submit of a receipt-bearing command: remembers the enqueue time
    /// so the receipt can be stamped with its latency.
    fn submit_timed(&mut self, ticket: u64, cmd: Command) -> Result<(), SnsError> {
        self.pending_at.push_back((ticket, sns_ops::clock::now()));
        let sent = self.submit(cmd);
        if sent.is_err() {
            self.pending_at.pop_back();
        }
        sent
    }

    /// Stamps a pulled receipt with its enqueue→ack latency and records
    /// it into the stream's histogram. Entries for already-acknowledged
    /// (earlier) tickets are discarded along the way.
    fn stamp_receipt(
        &mut self,
        ticket: u64,
        r: Result<BatchReceipt, SnsError>,
    ) -> Result<BatchReceipt, SnsError> {
        let mut latency = None;
        while let Some(&(t, at)) = self.pending_at.front() {
            if t > ticket {
                break;
            }
            self.pending_at.pop_front();
            if t == ticket {
                latency = Some(sns_ops::clock::elapsed(at));
            }
        }
        match (r, latency) {
            (Ok(mut receipt), Some(latency)) => {
                receipt.latency = latency;
                self.metrics.latency.record(latency);
                Ok(receipt)
            }
            (r, _) => r,
        }
    }

    /// Waits for the reply to `ticket`, buffering receipts of earlier
    /// pipelined batches for later [`StreamSession::recv_receipt`] calls.
    fn wait_for(&mut self, ticket: u64) -> Result<ReplyBody, SnsError> {
        loop {
            let reply = self.rx.recv().map_err(|_| self.closed_err())?;
            let body = match reply.body {
                ReplyBody::Receipt(r) => ReplyBody::Receipt(self.stamp_receipt(reply.ticket, r)),
                other => other,
            };
            if reply.ticket == ticket {
                return Ok(body);
            }
            if let ReplyBody::Receipt(r) = body {
                self.buffered.push_back(r);
            }
        }
    }

    fn await_receipt(&mut self, ticket: u64) -> Result<BatchReceipt, SnsError> {
        match self.wait_for(ticket)? {
            ReplyBody::Receipt(r) => r,
            _ => Err(SnsError::Internal {
                detail: "batch commands must acknowledge with receipts".to_string(),
            }),
        }
    }

    /// Ingests a batch into the window **without** factor updates
    /// (initialization phase). Blocks for the receipt; on error, tuples
    /// before the failing one stay applied (see
    /// [`StreamingCpd::prefill_all`]).
    pub fn prefill_batch(&mut self, tuples: &[StreamTuple]) -> Result<BatchReceipt, SnsError> {
        let ticket = self.bump_ticket();
        let cmd = Command::Prefill {
            id: self.stream_id,
            token: self.token,
            ticket,
            tuples: self.buffers.take(tuples),
        };
        self.submit_timed(ticket, cmd)?;
        self.await_receipt(ticket)
    }

    /// Runs batch ALS on the stream's current window from its current
    /// factors and installs the result. Blocks until done.
    pub fn warm_start(&mut self, opts: &AlsOptions) -> Result<BatchReceipt, SnsError> {
        let ticket = self.bump_ticket();
        let cmd = Command::WarmStart {
            id: self.stream_id,
            token: self.token,
            ticket,
            opts: opts.clone(),
        };
        self.submit_timed(ticket, cmd)?;
        self.await_receipt(ticket)
    }

    /// Ingests a batch of live tuples, blocking for its
    /// [`BatchReceipt`] (and first for queue space if the shard is
    /// saturated). On error the receipt is a typed [`SnsError`] carrying
    /// the accepted prefix (see [`StreamingCpd::ingest_all`]).
    pub fn ingest_batch(&mut self, tuples: &[StreamTuple]) -> Result<BatchReceipt, SnsError> {
        let ticket = self.bump_ticket();
        let cmd = Command::Ingest {
            id: self.stream_id,
            token: self.token,
            ticket,
            tuples: self.buffers.take(tuples),
        };
        self.submit_timed(ticket, cmd)?;
        self.await_receipt(ticket)
    }

    /// Submits a batch without blocking. Returns its ticket on success;
    /// [`SnsError::Backpressure`] if the shard queue is full (nothing
    /// was enqueued — retry later or fall back to the blocking
    /// [`StreamSession::ingest_batch`]). Collect the receipt with
    /// [`StreamSession::recv_receipt`] / [`StreamSession::try_recv_receipt`].
    pub fn try_ingest_batch(&mut self, tuples: &[StreamTuple]) -> Result<u64, SnsError> {
        let ticket = self.next_ticket;
        let cmd = Command::Ingest {
            id: self.stream_id,
            token: self.token,
            ticket,
            tuples: self.buffers.take(tuples),
        };
        match self.tx.try_send(cmd) {
            Ok(()) => {
                self.ops.metrics().shard(self.shard).queue_depth.fetch_add(1, Ordering::Relaxed);
                self.pending_at.push_back((ticket, sns_ops::clock::now()));
                self.next_ticket += 1;
                self.unclaimed += 1;
                Ok(ticket)
            }
            Err(TrySendError::Full(cmd)) => {
                // Nothing was enqueued: recover the batch's buffer so a
                // backpressure storm doesn't bleed allocations.
                if let Command::Ingest { tuples, .. } = cmd {
                    self.buffers.put(tuples);
                }
                Err(SnsError::Backpressure {
                    stream_id: self.stream_id,
                    shard: self.shard,
                    depth: self.ops.metrics().shard(self.shard).depth(),
                    capacity: self.queue_depth,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(self.closed_err()),
        }
    }

    /// Receipt of the oldest uncollected pipelined batch, blocking until
    /// it arrives. `None` if no pipelined batches are outstanding.
    pub fn recv_receipt(&mut self) -> Option<Result<BatchReceipt, SnsError>> {
        if let Some(r) = self.buffered.pop_front() {
            self.unclaimed -= 1;
            return Some(r);
        }
        if self.unclaimed == 0 {
            return None;
        }
        loop {
            match self.rx.recv() {
                Ok(SessionReply { ticket, body: ReplyBody::Receipt(r) }) => {
                    self.unclaimed -= 1;
                    return Some(self.stamp_receipt(ticket, r));
                }
                // Only pipelined receipts can be outstanding here.
                Ok(_) => continue,
                Err(_) => {
                    self.unclaimed -= 1;
                    return Some(Err(self.closed_err()));
                }
            }
        }
    }

    /// Non-blocking [`StreamSession::recv_receipt`]: `None` when no
    /// receipt is ready (or none outstanding).
    pub fn try_recv_receipt(&mut self) -> Option<Result<BatchReceipt, SnsError>> {
        if let Some(r) = self.buffered.pop_front() {
            self.unclaimed -= 1;
            return Some(r);
        }
        if self.unclaimed == 0 {
            return None;
        }
        match self.rx.try_recv() {
            Ok(SessionReply { ticket, body: ReplyBody::Receipt(r) }) => {
                self.unclaimed -= 1;
                Some(self.stamp_receipt(ticket, r))
            }
            Ok(_) => None,
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                self.unclaimed -= 1;
                Some(Err(self.closed_err()))
            }
        }
    }

    /// Advances the stream clock without an arrival; due boundary work
    /// still fires. The receipt's `updates` counts the events processed.
    pub fn advance_to(&mut self, t: u64) -> Result<BatchReceipt, SnsError> {
        let ticket = self.bump_ticket();
        let cmd = Command::AdvanceTo { id: self.stream_id, token: self.token, ticket, t };
        self.submit_timed(ticket, cmd)?;
        self.await_receipt(ticket)
    }

    /// Blocks until the worker has drained every previously submitted
    /// command for this stream, then returns its model-health snapshot.
    pub fn report(&mut self) -> Result<StreamReport, SnsError> {
        let ticket = self.bump_ticket();
        self.submit(Command::Report { id: self.stream_id, token: self.token, ticket })?;
        match self.wait_for(ticket)? {
            ReplyBody::Report(r) => Ok(*r),
            _ => Err(SnsError::Internal {
                detail: "report commands must acknowledge with reports".to_string(),
            }),
        }
    }

    /// Captures the stream's complete engine state for migration (after
    /// draining every previously submitted command). The stream keeps
    /// running; pair with [`StreamSession::close`] +
    /// [`EnginePool::restore`] to move it.
    pub fn snapshot(&mut self) -> Result<EngineSnapshot, SnsError> {
        let ticket = self.bump_ticket();
        self.submit(Command::Snapshot { id: self.stream_id, token: self.token, ticket })?;
        match self.wait_for(ticket)? {
            ReplyBody::Snapshot(r) => *r,
            _ => Err(SnsError::Internal {
                detail: "snapshot commands must acknowledge with snapshots".to_string(),
            }),
        }
    }

    /// Re-drives this stream's quarantined batches after repair.
    ///
    /// Takes every dead letter pending for the stream (oldest first),
    /// lets `repair` edit each in place (fix the poisoned tuples, tweak
    /// nothing, …), lifts the quarantine, and replays the letters in
    /// their original order through the normal prefill/ingest path.
    /// Replaying the exact per-tuple sequence the engine would have seen
    /// keeps the model bitwise-identical to a run that never faulted —
    /// provided the repaired tuples match what the healthy run ingested.
    ///
    /// Returns the number of letters fully replayed. If a replayed batch
    /// panics again, it (and the letters after it) land back in the DLQ
    /// in order and the first error is returned; a typed rejection
    /// instead requeues the unattempted letters verbatim at the front.
    /// `Ok(0)` means nothing was pending.
    pub fn replay_quarantined(
        &mut self,
        mut repair: impl FnMut(&mut PoolDeadLetter),
    ) -> Result<usize, SnsError> {
        let mut letters = self.ops.dlq().take(self.stream_id);
        if letters.is_empty() {
            return Ok(0);
        }
        for letter in &mut letters {
            repair(letter);
        }
        // Lift the quarantine first; per-stream FIFO ordering makes the
        // release visible to the worker before any batch replayed below.
        let ticket = self.bump_ticket();
        let release = Command::Release { id: self.stream_id, token: self.token, ticket };
        if let Err(e) =
            self.submit_timed(ticket, release).and_then(|()| self.await_receipt(ticket).map(drop))
        {
            self.ops.dlq().requeue_front(self.stream_id, letters);
            return Err(e);
        }
        let mut replayed = 0usize;
        let mut first_err: Option<SnsError> = None;
        let mut i = 0usize;
        while i < letters.len() {
            let result = match letters[i].op {
                QuarantinedOp::Prefill => self.prefill_batch(&letters[i].tuples),
                QuarantinedOp::Ingest => self.ingest_batch(&letters[i].tuples),
            };
            match result {
                Ok(_) => {
                    replayed += 1;
                    self.metrics.replayed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
                    if matches!(
                        e.root_cause(),
                        SnsError::EnginePanicked { .. } | SnsError::StreamQuarantined { .. }
                    ) =>
                {
                    // The panicking batch re-quarantined itself on the
                    // worker; keep pushing the remainder through so it
                    // lands back in the DLQ behind it, still in order.
                    first_err.get_or_insert(e);
                }
                Err(e) => {
                    // Typed rejection: nothing was re-quarantined. This
                    // letter and the unattempted remainder go back to
                    // the front, verbatim.
                    let rest = letters.split_off(i);
                    self.ops.dlq().requeue_front(self.stream_id, rest);
                    return Err(e);
                }
            }
            i += 1;
        }
        match first_err {
            None => Ok(replayed),
            Some(e) => Err(e),
        }
    }

    /// Closes the stream: its engine is dropped once the worker drains
    /// the queued commands. Blocks only for queue space.
    pub fn close(mut self) {
        self.closed = true;
        if self.tx.send(Command::Close { id: self.stream_id, token: self.token }).is_ok() {
            self.ops.metrics().shard(self.shard).queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "StreamSession(stream={}, shard={}, in_flight={})",
            self.stream_id, self.shard, self.unclaimed
        )
    }
}

impl Drop for StreamSession {
    fn drop(&mut self) {
        if !self.closed {
            // Best-effort: if the shard queue is full the slot lives
            // until the pool shuts down. `close(self)` is reliable.
            if self.tx.try_send(Command::Close { id: self.stream_id, token: self.token }).is_ok() {
                self.ops.metrics().shard(self.shard).queue_depth.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sns_core::config::{AlgorithmKind, SnsConfig};
    use sns_stream::StreamTuple;

    fn spec() -> EngineSpec {
        let config = SnsConfig { rank: 2, theta: 8, ..Default::default() };
        EngineSpec::sns(&[4, 3], 3, 10, AlgorithmKind::PlusRnd, &config)
    }

    fn tuples_for(id: u64) -> Vec<StreamTuple> {
        (0..120u64)
            .map(|t| StreamTuple::new([((t + id) % 4) as u32, ((t * 3 + id) % 3) as u32], 1.0, t))
            .collect()
    }

    #[test]
    fn batch_buffers_recycle_cleared_and_bounded() {
        let freelist = BufferPool::new();
        let tuples = tuples_for(1);
        let buf = freelist.take(&tuples[..8]);
        assert_eq!(buf.len(), 8);
        let cap = buf.capacity();
        freelist.put(buf);
        // Recycled allocation, contents fully replaced — no stale tuples.
        let again = freelist.take(&tuples[..2]);
        assert_eq!(again.capacity(), cap, "allocation not recycled");
        assert_eq!(again.as_slice(), &tuples[..2]);
        // Capacity-0 buffers are not worth pooling.
        freelist.put(Vec::new());
        assert!(freelist.inner.lock().unwrap().is_empty());
        // A burst cannot pin unbounded memory in the freelist.
        for _ in 0..(2 * BufferPool::MAX_POOLED) {
            freelist.put(Vec::with_capacity(4));
        }
        assert_eq!(freelist.inner.lock().unwrap().len(), BufferPool::MAX_POOLED);
    }

    #[test]
    fn stream_seed_is_pure_and_spreads() {
        assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
        assert_ne!(stream_seed(1, 2), stream_seed(1, 3));
        assert_ne!(stream_seed(1, 2), stream_seed(2, 2));
    }

    #[test]
    fn pooled_batched_equals_serial() {
        let ids = [0u64, 1, 2, 3, 4, 5, 6, 7];
        let base_seed = 0xabcd;

        // Serial reference: per-tuple ingestion.
        let mut serial = Vec::new();
        for &id in &ids {
            let mut e = spec().build(stream_seed(base_seed, id));
            for tu in tuples_for(id) {
                e.ingest(tu).unwrap();
            }
            serial.push((e.fitness(), e.updates_applied()));
        }

        // Pooled run over 3 workers, batches interleaved across streams.
        let pool = EnginePool::new(PoolConfig { shards: 3, base_seed, ..Default::default() });
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| pool.open(id, spec()).unwrap()).collect();
        for chunk_start in (0..120).step_by(30) {
            for (session, &id) in sessions.iter_mut().zip(&ids) {
                let batch = &tuples_for(id)[chunk_start..chunk_start + 30];
                let receipt = session.ingest_batch(batch).unwrap();
                assert_eq!(receipt.accepted, 30);
            }
        }
        for (session, (fit, updates)) in sessions.iter_mut().zip(&serial) {
            let r = session.report().unwrap();
            assert_eq!(r.error, None);
            assert_eq!(r.fitness.to_bits(), fit.to_bits(), "stream {} fitness", r.stream_id);
            assert_eq!(r.updates_applied, *updates, "stream {} updates", r.stream_id);
        }
        drop(sessions);
        pool.join();
    }

    #[test]
    fn batch_errors_are_typed_and_not_fatal() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 1, ..Default::default() });
        let mut session = pool.open(9, spec()).unwrap();
        let _ = session.ingest_batch(&[StreamTuple::new([0u32, 0], 1.0, 50)]).unwrap();
        let err = session
            .ingest_batch(&[
                StreamTuple::new([1u32, 1], 1.0, 55),
                StreamTuple::new([0u32, 0], 1.0, 10), // out of order
            ])
            .unwrap_err();
        assert_eq!(err.accepted(), Some(1), "{err}");
        assert!(matches!(err.root_cause(), SnsError::OutOfOrder { .. }));
        // The stream stays usable and the report records the first error.
        let receipt = session.ingest_batch(&[StreamTuple::new([1u32, 1], 1.0, 60)]).unwrap();
        assert!(receipt.accepted == 1);
        let r = session.report().unwrap();
        assert!(matches!(r.error, Some(SnsError::BatchAborted { .. })), "{:?}", r.error);
        assert!(r.fitness.is_nan() || r.fitness.is_finite());
    }

    #[test]
    fn engine_build_failure_is_typed_and_isolated() {
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 0, ..Default::default() });
        // window = 0 makes the SnsEngine constructor panic on the worker.
        let bad = EngineSpec::sns(&[4, 3], 0, 10, AlgorithmKind::PlusVec, &SnsConfig::with_rank(2));
        match pool.open(1, bad) {
            Err(SnsError::EngineBuildFailed { stream_id: 1, message }) => {
                assert!(message.contains("window"), "{message}");
            }
            other => panic!("expected EngineBuildFailed, got {:?}", other.err()),
        }
        // The worker survives: a healthy stream opens on the same shard.
        let mut ok = pool.open(2, spec()).unwrap();
        let receipt = ok.ingest_batch(&tuples_for(2)[..10]).unwrap();
        assert_eq!(receipt.accepted, 10);
    }

    #[test]
    fn reopening_replaces_and_invalidates_the_old_session() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 3, ..Default::default() });
        let mut old = pool.open(5, spec()).unwrap();
        let _ = old.ingest_batch(&tuples_for(5)[..10]).unwrap();
        let mut new = pool.open(5, spec()).unwrap();
        // The old session's replies channel was dropped with its slot.
        assert!(matches!(
            old.ingest_batch(&tuples_for(5)[10..20]).unwrap_err(),
            SnsError::StreamClosed { stream_id: 5 }
        ));
        // The new session drives a fresh engine (10 fewer tuples seen).
        let receipt = new.ingest_batch(&tuples_for(5)[..10]).unwrap();
        assert_eq!(receipt.accepted, 10);
        assert_eq!(new.report().unwrap().updates_applied, receipt.updates);
    }

    #[test]
    fn pipelined_receipts_arrive_in_order() {
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 0, ..Default::default() });
        let mut session = pool.open(3, spec()).unwrap();
        let tuples = tuples_for(3);
        let mut tickets = Vec::new();
        let mut sent = 0usize;
        for chunk in tuples.chunks(12) {
            match session.try_ingest_batch(chunk) {
                Ok(t) => {
                    tickets.push(t);
                    sent += chunk.len();
                }
                Err(SnsError::Backpressure { .. }) => {
                    // Saturated queue: fall back to the blocking path.
                    let r = session.ingest_batch(chunk).unwrap();
                    assert_eq!(r.accepted, chunk.len());
                    sent += chunk.len();
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        let mut acked = 0usize;
        let mut last_ticket = 0u64;
        while let Some(r) = session.recv_receipt() {
            let r = r.unwrap();
            assert!(r.ticket > last_ticket || acked == 0, "receipts out of order");
            last_ticket = r.ticket;
            acked += r.accepted;
        }
        assert_eq!(session.in_flight(), 0);
        // Everything submitted (pipelined or blocking) was accepted.
        let report = session.report().unwrap();
        assert_eq!(report.error, None);
        assert_eq!(sent, tuples.len());
        let _ = (tickets, acked);
    }

    #[test]
    fn shard_assignment_is_stable() {
        let pool = EnginePool::new(PoolConfig { shards: 4, base_seed: 0, ..Default::default() });
        for id in 0..50u64 {
            assert_eq!(pool.shard_of(id), pool.shard_of(id));
            assert!(pool.shard_of(id) < 4);
        }
    }

    #[test]
    fn restore_elsewhere_evicts_the_still_open_session() {
        let pool = EnginePool::new(PoolConfig { shards: 3, base_seed: 0, ..Default::default() });
        let mut old = pool.open(4, spec()).unwrap();
        let tuples = tuples_for(4);
        let _ = old.ingest_batch(&tuples[..20]).unwrap();
        let snapshot = old.snapshot().unwrap();
        // Restore onto a *different* shard without closing the old
        // session: the id must not end up served by two engines.
        let target = (old.shard() + 1) % pool.shards();
        let mut migrated = pool.restore(snapshot, target).unwrap();
        assert!(matches!(
            old.ingest_batch(&tuples[20..30]).unwrap_err(),
            SnsError::StreamClosed { stream_id: 4 }
        ));
        // The migrated session carries the stream forward alone.
        let receipt = migrated.ingest_batch(&tuples[20..]).unwrap();
        assert_eq!(receipt.accepted, 100);
        assert_eq!(migrated.report().unwrap().error, None);
    }

    #[test]
    fn checkpoint_all_then_recover_matches_uninterrupted_run() {
        let ids = [0u64, 1, 2, 3, 4];
        let base_seed = 0xfeed;
        let make_pool =
            || EnginePool::new(PoolConfig { shards: 3, base_seed, ..Default::default() });

        // Reference: uninterrupted pooled run over the whole stream.
        let reference = make_pool();
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| reference.open(id, spec()).unwrap()).collect();
        for (session, &id) in sessions.iter_mut().zip(&ids) {
            let _ = session.ingest_batch(&tuples_for(id)).unwrap();
        }
        let expected: Vec<(u64, u64)> = sessions
            .iter_mut()
            .map(|s| {
                let r = s.report().unwrap();
                (r.fitness.to_bits(), r.updates_applied)
            })
            .collect();
        drop(sessions);
        reference.join();

        // Interrupted run: half the stream, checkpoint, "crash", recover
        // into a brand-new pool, finish the stream.
        let first = make_pool();
        let mut sessions: Vec<StreamSession> =
            ids.iter().map(|&id| first.open(id, spec()).unwrap()).collect();
        for (session, &id) in sessions.iter_mut().zip(&ids) {
            let _ = session.ingest_batch(&tuples_for(id)[..60]).unwrap();
        }
        // Quiesce (blocking batches are already acked), then checkpoint.
        let checkpoints = first.checkpoint_all();
        assert_eq!(checkpoints.len(), ids.len());
        let snapshots: Vec<EngineSnapshot> =
            checkpoints.into_iter().map(|(_, r)| r.unwrap()).collect();
        assert!(snapshots.windows(2).all(|w| w[0].stream_id < w[1].stream_id));
        drop(sessions);
        first.join(); // the crash

        let recovered_pool = make_pool();
        let (mut recovered, _) = recovered_pool.recover_all(snapshots, |_, _| Ok(0)).unwrap();
        for (session, &id) in recovered.iter_mut().zip(&ids) {
            assert_eq!(session.stream_id(), id);
            let _ = session.ingest_batch(&tuples_for(id)[60..]).unwrap();
        }
        for (session, (fitness, updates)) in recovered.iter_mut().zip(&expected) {
            let r = session.report().unwrap();
            assert_eq!(r.error, None);
            assert_eq!(r.fitness.to_bits(), *fitness, "stream {}", r.stream_id);
            assert_eq!(r.updates_applied, *updates, "stream {}", r.stream_id);
        }
    }

    #[test]
    fn recover_all_reports_the_first_failure_in_snapshot_order() {
        let shards = 2;
        let pool = EnginePool::new(PoolConfig { shards, base_seed: 3, ..Default::default() });
        let on = |shard: usize, n: usize| -> Vec<u64> {
            (0u64..).filter(|&id| pool.shard_of(id) == shard).take(n).collect()
        };
        let (a, b) = (on(0, 2), on(1, 1));
        let mut sessions: Vec<StreamSession> =
            a.iter().chain(&b).map(|&id| pool.open(id, spec()).unwrap()).collect();
        for s in &mut sessions {
            let _ = s.ingest_batch(&tuples_for(s.stream_id())[..30]).unwrap();
        }
        let mut snapshots: HashMap<u64, EngineSnapshot> =
            pool.checkpoint_all().into_iter().map(|(id, r)| (id, r.unwrap())).collect();
        let mut corrupt = |id: u64, f: fn(&mut sns_stream::ContinuousWindowState)| {
            let Some(EngineState::Sns(state)) = snapshots.get_mut(&id).map(|s| &mut s.state) else {
                panic!("stream {id} is not an SNS engine");
            };
            f(&mut state.window);
        };
        corrupt(a[1], |w| w.period = 0);
        corrupt(b[0], |w| w.window = 0);
        let validation_error = |id: u64| snapshots[&id].state.clone().into_engine().err().unwrap();
        let (first, second) = (validation_error(a[1]), validation_error(b[0]));
        assert_ne!(first, second);
        // Shard 1 fails on its first stream at once, while shard 0 is
        // still restoring a valid stream ahead of its own failure; the
        // error must still be shard 0's, which comes first in order.
        let order: Vec<EngineSnapshot> = [a[0], a[1], b[0]].map(|id| snapshots[&id].clone()).into();
        for round in 0..20 {
            let fresh = EnginePool::new(PoolConfig { shards, base_seed: 3, ..Default::default() });
            match fresh.recover_all(order.clone(), |_, _| Ok(0)) {
                Ok((sessions, _)) => {
                    panic!("round {round}: {} sessions, expected Err", sessions.len())
                }
                Err(e) => assert_eq!(e, first, "round {round}"),
            }
        }
    }

    #[test]
    fn checkpoint_reports_quarantined_streams_in_place() {
        let pool = EnginePool::new(PoolConfig { shards: 1, base_seed: 2, ..Default::default() });
        let mut healthy = pool.open(1, spec()).unwrap();
        let _ = healthy.ingest_batch(&tuples_for(1)[..10]).unwrap();
        // A closed slot stays out of the checkpoint; only live slots show.
        let gone = pool.open(2, spec()).unwrap();
        gone.close();
        let checkpoints = pool.checkpoint_all();
        assert!(checkpoints.iter().any(|(id, r)| *id == 1 && r.is_ok()));
        assert!(!checkpoints.iter().any(|(id, _)| *id == 2), "closed stream checkpointed");
    }

    #[test]
    fn invalid_restore_leaves_the_live_session_untouched() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 4, ..Default::default() });
        let mut live = pool.open(8, spec()).unwrap();
        let _ = live.ingest_batch(&tuples_for(8)[..20]).unwrap();
        let mut snapshot = live.snapshot().unwrap();
        // Corrupt the snapshot: window from this engine, factors from a
        // differently-shaped one — exactly what a damaged store entry
        // that slipped past framing checks would look like.
        let crate::snapshot::EngineState::Sns(state) = &mut snapshot.state else {
            panic!("continuous snapshot expected");
        };
        let foreign = EngineSpec::sns(
            &[9, 9],
            3,
            10,
            sns_core::config::AlgorithmKind::PlusVec,
            &SnsConfig { rank: 2, ..Default::default() },
        )
        .build(1);
        let foreign_state = foreign.snapshot().unwrap();
        let crate::snapshot::EngineState::Sns(foreign_sns) = foreign_state else {
            panic!("continuous snapshot expected");
        };
        state.updater = foreign_sns.updater;

        // The restore fails typed — and must NOT evict the live session.
        assert!(matches!(
            pool.restore(snapshot, 0),
            Err(SnsError::Codec { fault: sns_error::CodecFault::Invalid, .. })
        ));
        let receipt = live.ingest_batch(&tuples_for(8)[20..30]).unwrap();
        assert_eq!(receipt.accepted, 10, "healthy session must survive a failed restore");
        assert_eq!(live.report().unwrap().error, None);
    }

    #[test]
    fn restore_rejects_bad_shard() {
        let pool = EnginePool::new(PoolConfig { shards: 2, base_seed: 0, ..Default::default() });
        let mut session = pool.open(1, spec()).unwrap();
        let _ = session.ingest_batch(&tuples_for(1)[..20]).unwrap();
        let snapshot = session.snapshot().unwrap();
        assert!(matches!(
            pool.restore(snapshot, 9).unwrap_err(),
            SnsError::ShardOutOfRange { shard: 9, shards: 2 }
        ));
    }

    /// The rollback base is amortized: at taxi-shaped state (150×150,
    /// W = 10, a few thousand window non-zeros) a stream re-captures it
    /// once per window's worth of replay work, so 200 pipelined 16-tuple
    /// batches cost a handful of captures instead of one per group — and
    /// `Disabled` never captures.
    #[test]
    fn rollback_captures_amortize_across_groups() {
        let (dims, window, period) = ([150usize, 150], 10usize, 100u64);
        let trace = sns_data::generate(&sns_data::GeneratorConfig {
            base_dims: dims.to_vec(),
            n_components: 6,
            events: 12_000,
            duration: 1_800,
            noise_fraction: 0.08,
            seed: 21,
            ..Default::default()
        });
        let cut = trace.partition_point(|t| t.time <= window as u64 * period);
        let live: Vec<&[StreamTuple]> = trace[cut..].chunks(16).take(200).collect();
        assert_eq!(live.len(), 200, "trace too short");
        let config = SnsConfig { rank: 4, ..Default::default() };
        let spec = EngineSpec::sns(&dims, window, period, AlgorithmKind::PlusVec, &config);
        for policy in [QuarantinePolicy::Rollback, QuarantinePolicy::Disabled] {
            let pool =
                EnginePool::new(PoolConfig { shards: 1, quarantine: policy, ..Default::default() });
            let mut session = pool.open(1, spec.clone()).unwrap();
            for chunk in trace[..cut].chunks(512) {
                let _ = session.prefill_batch(chunk).unwrap();
            }
            let _ = session.warm_start(&AlsOptions { max_iters: 2, ..Default::default() }).unwrap();
            let shard = pool.ops().metrics().shard(0);
            let groups0 = shard.ingest_groups.load(Ordering::Relaxed);
            let captures0 = shard.rollback_captures.load(Ordering::Relaxed);
            // Pipelined with at most three batches in flight, so groups
            // coalesce a little but stay many.
            for chunk in &live {
                let _ = session.try_ingest_batch(chunk).unwrap();
                if session.in_flight() >= 3 {
                    let _ = session.recv_receipt().unwrap().unwrap();
                }
            }
            while let Some(r) = session.recv_receipt() {
                let _ = r.unwrap();
            }
            let groups = shard.ingest_groups.load(Ordering::Relaxed) - groups0;
            let captures = shard.rollback_captures.load(Ordering::Relaxed) - captures0;
            assert!(groups >= 60, "{groups} groups");
            match policy {
                QuarantinePolicy::Rollback => {
                    assert!(captures >= 1, "the first group after warm_start captures");
                    assert!(captures * 4 <= groups, "{captures} captures for {groups} groups");
                }
                QuarantinePolicy::Disabled => assert_eq!(captures, 0),
            }
            assert!(pool.ops().metrics().dump().contains("\"rollback_captures\":"));
        }
    }
}
