//! Kill → recover → finish: pool-wide crash recovery, proven bitwise.
//!
//! The scenario behind `bench recover`:
//!
//! 1. **Reference run** — a pooled fleet covering every engine family
//!    (the continuous SNS variants, all four conventional baselines, and
//!    an anomaly-decorated engine) replays a trace end to end,
//!    uninterrupted; each final engine state is serialized with
//!    `sns-codec`.
//! 2. **Interrupted run** — an identical fleet replays the *first half*
//!    of the trace, the pool is checkpointed to a file-backed
//!    [`CheckpointStore`], and the pool is dropped mid-trace (the
//!    "crash"). A **brand-new** pool recovers every stream from disk and
//!    finishes the trace.
//! 3. **Verdict** — the recovered fleet's final snapshots are serialized
//!    and compared **byte for byte** against the reference's. Because
//!    the codec is canonical, byte equality is full state equality:
//!    factors, Grams, window orders, pending events, RNG states,
//!    detector statistics — everything.
//!
//! Any divergence — a field the codec forgot, dead state that turned out
//! to be live, an iteration order that did not survive the disk round
//! trip — fails the scenario (and CI, which runs it with `--smoke`).
//!
//! ## WAL mode (`--wal`)
//!
//! With [`RecoverConfig::wal`] set, the interrupted run exercises the
//! full durability stack instead of a single hand-placed checkpoint:
//! the fleet journals every op to a per-stream WAL, a background
//! [`Checkpointer`] commits delta checkpoints while the first chunk of
//! the trace is replaying, the daemon is stopped, a second chunk lands
//! **only in the journal**, and the crash follows. Recovery goes
//! through [`recover_pool_wal`]: newest checkpoint + bounded journal
//! tail. The verdict additionally proves the replay was *bounded* —
//! more than zero units (the tail existed) and strictly fewer than the
//! full journaled history (the checkpoints actually truncated it).

use crate::report::{f, Table};
use sns_codec::daemon::{CheckpointPolicy, Checkpointer};
use sns_codec::store::{checkpoint_pool, recover_pool, CheckpointStore};
use sns_codec::to_bytes;
use sns_codec::wal::{recover_pool_wal, WalSet};
use sns_core::als::AlsOptions;
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_data::replay::{replay, ReplayPlan};
use sns_data::{generate, nytaxi_like, DatasetSpec};
use sns_runtime::BatchJournal;
use sns_runtime::{AnomalyConfig, EnginePool, EngineSpec, PoolConfig, SnsError};
use sns_stream::StreamTuple;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to size the recover scenario.
#[derive(Debug, Clone)]
pub struct RecoverConfig {
    /// Events generated for the trace.
    pub events: usize,
    /// Worker shards of both pools.
    pub shards: usize,
    /// Pool base seed.
    pub base_seed: u64,
    /// Trace generator seed.
    pub data_seed: u64,
    /// Directory the checkpoint is written to (kept afterwards so CI can
    /// upload the manifest as an artifact).
    pub dir: PathBuf,
    /// Run the WAL-mode scenario (journal + background checkpoint
    /// daemon + bounded tail replay) instead of the single hand-placed
    /// checkpoint.
    pub wal: bool,
}

impl Default for RecoverConfig {
    fn default() -> Self {
        RecoverConfig {
            events: 20_000,
            shards: 4,
            base_seed: 0x5eed,
            data_seed: 42,
            dir: PathBuf::from("recover-checkpoint"),
            wal: false,
        }
    }
}

/// Outcome for one stream of the fleet.
#[derive(Debug, Clone)]
pub struct RecoverCell {
    /// Pooled stream id.
    pub stream_id: u64,
    /// Engine display name.
    pub name: String,
    /// Factor updates at end of trace (recovered run).
    pub updates: u64,
    /// Final fitness (recovered run).
    pub fitness: f64,
    /// Serialized snapshot size in bytes.
    pub snapshot_bytes: usize,
    /// Whether the recovered final state is byte-identical to the
    /// uninterrupted run's.
    pub identical: bool,
}

/// A completed recover scenario.
#[derive(Debug, Clone)]
pub struct RecoverReport {
    /// Dataset the trace mirrors.
    pub dataset: String,
    /// Events in the trace.
    pub events: usize,
    /// Trace index the crash was injected at.
    pub crash_at: usize,
    /// Per-stream outcomes, in stream-id order.
    pub cells: Vec<RecoverCell>,
    /// Path of the checkpoint manifest left on disk.
    pub manifest: PathBuf,
    /// Whether the WAL-mode scenario ran.
    pub wal: bool,
    /// WAL units replayed during recovery (0 in checkpoint-only mode).
    pub replayed: u64,
    /// Total units journaled at crash time — the replay's hard ceiling.
    pub replay_bound: u64,
    /// Checkpoint generations the background daemon committed.
    pub daemon_commits: u64,
    /// Wall time of the recovery call (`recover_pool` or
    /// `recover_pool_wal`), in milliseconds. Reported, never gated.
    pub recover_ms: f64,
}

impl RecoverReport {
    /// True when every stream recovered bitwise.
    pub fn all_identical(&self) -> bool {
        self.cells.iter().all(|c| c.identical)
    }

    /// WAL-mode verdict: the journal tail existed (some units replayed)
    /// and the checkpoints truncated it (strictly fewer than the full
    /// journaled history). Vacuously true in checkpoint-only mode.
    pub fn replay_bounded(&self) -> bool {
        !self.wal || (self.replayed > 0 && self.replayed < self.replay_bound)
    }

    /// Renders the scenario as an aligned text table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["stream", "engine", "updates", "fitness", "bytes", "bitwise"]);
        for c in &self.cells {
            t.row(vec![
                c.stream_id.to_string(),
                c.name.clone(),
                c.updates.to_string(),
                f(c.fitness),
                c.snapshot_bytes.to_string(),
                if c.identical { "identical".to_string() } else { "DIVERGED".to_string() },
            ]);
        }
        let mut out = t.render();
        out.push_str(&format!("recovery: {:.1} ms\n", self.recover_ms));
        if self.wal {
            out.push_str(&format!(
                "wal replay: {} of {} journaled units ({} daemon commits) — {}\n",
                self.replayed,
                self.replay_bound,
                self.daemon_commits,
                if self.replay_bounded() { "bounded" } else { "UNBOUNDED" },
            ));
        }
        out
    }

    /// Serializes the machine-readable report (schema in the README).
    pub fn to_json(&self) -> String {
        fn jf(x: f64) -> String {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"sns-recover\",\n");
        out.push_str(&format!(
            "  \"config\": {{\"dataset\": \"{}\", \"synthetic\": true, \"events\": {}, \"crash_at\": {}, \"streams\": {}, \"mode\": \"{}\"}},\n",
            self.dataset,
            self.events,
            self.crash_at,
            self.cells.len(),
            if self.wal { "wal" } else { "checkpoint" },
        ));
        out.push_str(&format!("  \"all_identical\": {},\n", self.all_identical()));
        out.push_str(&format!("  \"recover_ms\": {},\n", jf(self.recover_ms)));
        if self.wal {
            out.push_str(&format!(
                "  \"wal\": {{\"replayed\": {}, \"replay_bound\": {}, \"daemon_commits\": {}, \"replay_bounded\": {}}},\n",
                self.replayed,
                self.replay_bound,
                self.daemon_commits,
                self.replay_bounded(),
            ));
        }
        out.push_str("  \"streams\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stream_id\": {}, \"engine\": \"{}\", \"updates\": {}, \"fitness\": {}, \"snapshot_bytes\": {}, \"identical\": {}}}{}\n",
                c.stream_id,
                c.name,
                c.updates,
                jf(c.fitness),
                c.snapshot_bytes,
                c.identical,
                if i + 1 < self.cells.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The fleet: every engine family plus the anomaly decorator, one
/// pooled stream each. Rank is kept small — the scenario is about state
/// fidelity, not fitting quality.
fn fleet(spec: &DatasetSpec) -> Vec<(u64, EngineSpec)> {
    let sns = |kind| {
        EngineSpec::sns(
            spec.base_dims,
            spec.window,
            spec.period,
            kind,
            &SnsConfig { rank: 4, theta: spec.theta, eta: spec.eta, init_scale: 1.0, seed: 0 },
        )
    };
    let baseline = |algo| EngineSpec::baseline(spec.base_dims, spec.window, spec.period, 4, algo);
    vec![
        (0, sns(AlgorithmKind::PlusRnd)),
        (1, sns(AlgorithmKind::PlusVec)),
        (2, baseline(sns_runtime::BaselineKind::AlsPeriodic { sweeps: 1 })),
        (3, baseline(sns_runtime::BaselineKind::OnlineScp)),
        (4, baseline(sns_runtime::BaselineKind::CpStream { decay: 0.99, iters: 2 })),
        (5, baseline(sns_runtime::BaselineKind::NeCpd { epochs: 1 })),
        (6, sns(AlgorithmKind::PlusRnd).with_anomaly(AnomalyConfig::default())),
    ]
}

/// Opens every fleet stream on `pool` and replays `tuples` through all
/// of them concurrently (one driver thread per stream).
fn replay_fleet(
    pool: &EnginePool,
    streams: &[(u64, EngineSpec)],
    tuples: &[StreamTuple],
    plan: &ReplayPlan,
) -> Result<Vec<sns_runtime::StreamSession>, SnsError> {
    let mut sessions = Vec::with_capacity(streams.len());
    for (id, spec) in streams {
        sessions.push(pool.open(*id, spec.clone())?);
    }
    drive_fleet(&mut sessions, tuples, plan)?;
    Ok(sessions)
}

/// Replays `tuples` through already-open sessions concurrently.
fn drive_fleet(
    sessions: &mut [sns_runtime::StreamSession],
    tuples: &[StreamTuple],
    plan: &ReplayPlan,
) -> Result<(), SnsError> {
    let results: Vec<Result<(), SnsError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|session| scope.spawn(move || replay(session, tuples, plan).map(|_| ())))
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    results.into_iter().collect()
}

/// Runs the scenario; see the module docs for the three phases.
///
/// # Errors
/// Any pool, replay, codec, or store error; a *non-identical* recovery
/// is not an error — it is reported per stream (and the caller exits
/// non-zero on [`RecoverReport::all_identical`] being false).
pub fn run_recover(cfg: &RecoverConfig) -> Result<RecoverReport, SnsError> {
    let spec = nytaxi_like();
    let trace = generate(&spec.generator(cfg.events, cfg.data_seed));
    let als = AlsOptions { max_iters: 8, tol: 1e-3, ..Default::default() };
    let full_plan = ReplayPlan::for_dataset(&spec, als.clone());
    let streams = fleet(&spec);
    let pool_config = |journal: Option<Arc<dyn BatchJournal>>| PoolConfig {
        shards: cfg.shards,
        base_seed: cfg.base_seed,
        queue_depth: 64,
        journal,
        ..Default::default()
    };

    // Phase 1: the uninterrupted reference. Snapshots are taken while
    // the sessions are still open (closing a session drops its slot).
    // In WAL mode the reference journals too (to a throwaway log), so
    // its snapshots carry the same `wal_seq` as the recovered run's —
    // byte-identity then covers the journal cursor as well.
    let reference_journal: Option<Arc<dyn BatchJournal>> = if cfg.wal {
        Some(Arc::new(WalSet::create(cfg.dir.join("wal-reference"))?) as _)
    } else {
        None
    };
    let reference_pool = EnginePool::new(pool_config(reference_journal));
    let sessions = replay_fleet(&reference_pool, &streams, &trace, &full_plan)?;
    let mut reference_bytes: HashMap<u64, Vec<u8>> = HashMap::new();
    for (id, snapshot) in reference_pool.checkpoint_all() {
        reference_bytes.insert(id, to_bytes(&snapshot?));
    }
    drop(sessions);
    reference_pool.join();

    let crash_at = trace.len() / 2;
    let store = CheckpointStore::create(&cfg.dir)?;
    let tail_plan = ReplayPlan {
        prefill_until: None,
        warm_start: None,
        bucket_ticks: full_plan.bucket_ticks,
        max_batch: full_plan.max_batch,
        advance_to: full_plan.advance_to,
    };
    let (recovered_pool, mut recovered, wal_stats) = if cfg.wal {
        recover_via_wal(cfg, &streams, &trace, crash_at, &full_plan, &store, &pool_config)?
    } else {
        // Phase 2: replay half the trace, checkpoint to disk, crash.
        let first_half_plan = ReplayPlan { advance_to: None, ..full_plan.clone() };
        let doomed_pool = EnginePool::new(pool_config(None));
        let sessions = replay_fleet(&doomed_pool, &streams, &trace[..crash_at], &first_half_plan)?;
        checkpoint_pool(&doomed_pool, &store)?;
        drop(sessions);
        drop(doomed_pool); // the crash: no clean close, the process state is gone

        // Phase 3: recover from disk into a brand-new pool.
        let recovered_pool = EnginePool::new(pool_config(None));
        let start = Instant::now();
        let recovered = recover_pool(&recovered_pool, &store)?;
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        (recovered_pool, recovered, WalPhaseStats { recover_ms, ..WalPhaseStats::default() })
    };
    drive_fleet(&mut recovered, &trace[crash_at..], &tail_plan)?;

    let mut cells = Vec::with_capacity(streams.len());
    for session in &mut recovered {
        let report = session.report()?;
        if let Some(e) = report.error {
            return Err(e);
        }
        let snapshot = session.snapshot()?;
        let bytes = to_bytes(&snapshot);
        let reference = reference_bytes
            .get(&report.stream_id)
            .ok_or(SnsError::StreamClosed { stream_id: report.stream_id })?;
        cells.push(RecoverCell {
            stream_id: report.stream_id,
            name: report.name,
            updates: report.updates_applied,
            fitness: report.fitness,
            snapshot_bytes: bytes.len(),
            identical: &bytes == reference,
        });
    }
    cells.sort_by_key(|c| c.stream_id);
    drop(recovered);
    recovered_pool.join();

    Ok(RecoverReport {
        dataset: spec.name.to_string(),
        events: trace.len(),
        crash_at,
        cells,
        manifest: store.manifest_path(),
        wal: cfg.wal,
        replayed: wal_stats.replayed,
        replay_bound: wal_stats.replay_bound,
        daemon_commits: wal_stats.daemon_commits,
        recover_ms: wal_stats.recover_ms,
    })
}

/// What the recovery phase measured (the WAL counters are zeros in
/// checkpoint-only mode).
#[derive(Debug, Default, Clone, Copy)]
struct WalPhaseStats {
    replayed: u64,
    replay_bound: u64,
    daemon_commits: u64,
    recover_ms: f64,
}

/// The WAL-mode interrupted run: journal everything, let the background
/// daemon commit delta checkpoints during chunk 1, stop it, land chunk 2
/// only in the journal, crash, and recover via checkpoint + WAL tail.
#[allow(clippy::type_complexity)]
fn recover_via_wal(
    cfg: &RecoverConfig,
    streams: &[(u64, EngineSpec)],
    trace: &[StreamTuple],
    crash_at: usize,
    full_plan: &ReplayPlan,
    store: &CheckpointStore,
    pool_config: &dyn Fn(Option<Arc<dyn BatchJournal>>) -> PoolConfig,
) -> Result<(EnginePool, Vec<sns_runtime::StreamSession>, WalPhaseStats), SnsError> {
    let wal = Arc::new(WalSet::create(cfg.dir.join("wal"))?);
    let wait_err =
        |message: String| SnsError::Io { path: cfg.dir.join("wal").display().to_string(), message };

    // Chunk 1 replays with the daemon live; chunk 2 is journaled but
    // never checkpointed, so recovery *must* replay it from the WAL.
    let chunk1_end = crash_at * 4 / 5;
    let doomed_pool =
        Arc::new(EnginePool::new(pool_config(Some(Arc::clone(&wal) as Arc<dyn BatchJournal>))));
    let daemon = Checkpointer::start(
        Arc::clone(&doomed_pool),
        store.clone(),
        Arc::clone(&wal),
        CheckpointPolicy { min_batches: 8, poll: Duration::from_millis(10) },
    )?;
    let chunk1_plan = ReplayPlan { advance_to: None, ..full_plan.clone() };
    let mut sessions = replay_fleet(&doomed_pool, streams, &trace[..chunk1_end], &chunk1_plan)?;

    // Wait until the daemon has committed every stream at least once.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        if let Some(e) = daemon.error() {
            return Err(e);
        }
        let covered = store.manifest().map(|m| m.len()).unwrap_or(0);
        if covered == streams.len() {
            break;
        }
        if Instant::now() > deadline {
            return Err(wait_err(format!(
                "daemon covered {covered}/{} streams within the deadline",
                streams.len()
            )));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let daemon_stats = daemon.stop();

    let chunk2_plan = ReplayPlan {
        prefill_until: None,
        warm_start: None,
        bucket_ticks: full_plan.bucket_ticks,
        max_batch: full_plan.max_batch,
        advance_to: None,
    };
    drive_fleet(&mut sessions, &trace[chunk1_end..crash_at], &chunk2_plan)?;
    drop(sessions);
    match Arc::try_unwrap(doomed_pool) {
        Ok(pool) => drop(pool), // the crash: no clean close
        Err(_) => return Err(wait_err("daemon still holds the doomed pool".to_string())),
    }
    if let Some(e) = wal.error() {
        return Err(e);
    }

    // Recovery: newest checkpoints + the bounded WAL tail, onto a fresh
    // pool that keeps journaling (the tail drive stays covered).
    let recovered_pool = EnginePool::new(pool_config(Some(Arc::clone(&wal) as _)));
    let start = Instant::now();
    let (recovered, replayed) = recover_pool_wal(&recovered_pool, store, &wal)?;
    let recover_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = wal.error() {
        return Err(e);
    }
    // Every stream journaled its crash_at tuples plus one warm-start.
    let replay_bound = streams.len() as u64 * (crash_at as u64 + 1);
    Ok((
        recovered_pool,
        recovered,
        WalPhaseStats { replayed, replay_bound, daemon_commits: daemon_stats.commits, recover_ms },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_carries_the_recovery_wall_time() {
        let report = RecoverReport {
            dataset: "d".to_string(),
            events: 10,
            crash_at: 5,
            cells: Vec::new(),
            manifest: PathBuf::from("m"),
            wal: false,
            replayed: 0,
            replay_bound: 0,
            daemon_commits: 0,
            recover_ms: 12.5,
        };
        assert!(report.to_json().contains("\"recover_ms\": 12.500000,"), "{}", report.to_json());
        assert!(report.render().contains("recovery: 12.5 ms"));
    }

    #[test]
    fn kill_recover_finish_is_bitwise_identical() {
        let dir = std::env::temp_dir().join(format!("sns-recover-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_recover(&RecoverConfig {
            events: 3_000,
            shards: 3,
            base_seed: 0xbead,
            data_seed: 7,
            dir: dir.clone(),
            wal: false,
        })
        .unwrap();
        assert_eq!(report.cells.len(), 7, "every engine family plus the decorator");
        for c in &report.cells {
            assert!(c.identical, "stream {} ({}) diverged after recovery", c.stream_id, c.name);
            assert!(c.updates > 0, "stream {} applied no updates", c.stream_id);
            assert!(c.snapshot_bytes > 0);
        }
        assert!(report.all_identical());
        assert!(report.manifest.exists(), "manifest must stay on disk for CI artifacts");
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"sns-recover\""));
        assert!(json.contains("\"all_identical\": true"));
        assert!(json.contains("\"mode\": \"checkpoint\""));
        assert!(report.recover_ms > 0.0, "the recovery call must be timed");
        assert!(report.render().contains("identical"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_mode_recovers_bitwise_with_a_bounded_replay() {
        let dir = std::env::temp_dir().join(format!("sns-recover-wal-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_recover(&RecoverConfig {
            events: 2_000,
            shards: 2,
            base_seed: 0xbead,
            data_seed: 7,
            dir: dir.clone(),
            wal: true,
        })
        .unwrap();
        assert_eq!(report.cells.len(), 7);
        for c in &report.cells {
            assert!(c.identical, "stream {} ({}) diverged after WAL recovery", c.stream_id, c.name);
        }
        assert!(report.replayed > 0, "chunk 2 must have left a journal tail");
        assert!(
            report.replayed < report.replay_bound,
            "replay must be bounded: {} of {}",
            report.replayed,
            report.replay_bound
        );
        assert!(report.replay_bounded());
        assert!(report.daemon_commits >= 1, "the background daemon never committed");
        let json = report.to_json();
        assert!(json.contains("\"mode\": \"wal\""));
        assert!(json.contains("\"replay_bounded\": true"));
        assert!(report.render().contains("bounded"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
