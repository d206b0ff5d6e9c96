//! `fleet-bulk` and `fleet-trickle`: the pooled pipeline in the shipped
//! default configuration — `QuarantinePolicy::Rollback` with a `WalSet`
//! journal — driven through `StreamSession` by one generator thread.
//!
//! The generator never spins. In the closed loop (`fleet-bulk`) it keeps
//! at most [`WINDOW`] batches in flight per shard and blocks in
//! `recv_receipt` for the oldest when the window (or the shard queue)
//! is full. In the open loop (`fleet-trickle`) it sleeps until the next
//! due time, waking every [`POLL`] while receipts are outstanding to
//! observe them; a refused submit blocks in `recv_receipt` and is
//! retried with its original due time.

use crate::inputs::{als_options, data_seed, small_tenant, taxi_tenant, Mix, Tenant, BASE_SEED};
use crate::layers::{self, Counts, Sent};
use crate::probe;
use crate::report::{Report, ACK_PERCENTILES, READ_PERCENTILES};
use crate::stats::{max, median, percentile};
use crate::trace::{At, Tracer};
use crate::Res;
use sns_codec::store::CheckpointStore;
use sns_codec::to_bytes;
use sns_codec::wal::{recover_pool_wal, WalSet};
use sns_core::als::als;
use sns_runtime::{
    BatchJournal, EnginePool, JournalEntry, JournalOp, PoolConfig, PoolOps, SnsError, StreamSession,
};
use sns_stream::StreamTuple;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker shards (the reference host's core count).
pub const SHARDS: usize = 2;
/// Open-loop receipt-poll period while batches are outstanding.
pub const POLL: Duration = Duration::from_micros(200);

/// `fleet-bulk`: saturated throughput of the reference host while other
/// tenants load it (≈30k–40k tuples/s when they do not); the input holds
/// `BULK_RATE × seconds` live tuples.
pub const BULK_RATE: f64 = 26_000.0;
/// `fleet-bulk` tenants (small 20×16, R=5 streams).
pub const BULK_TENANTS: usize = 32;
/// `fleet-bulk` tuples per batch.
pub const BULK_BATCH: usize = 128;
/// Zipf exponent of per-tenant traffic in `fleet-bulk`.
pub const BULK_ZIPF: f64 = 1.2;
/// `fleet-bulk` closed-loop window: batches in flight per shard.
pub const WINDOW: usize = 32;
/// `fleet-bulk` takes its one checkpoint after this share of batches.
pub const CHECKPOINT_AT: f64 = 0.95;
/// `fleet-bulk` reads one stream's factors after every this many
/// batches (round-robin over streams), queued behind the writes.
pub const BULK_READ_EVERY: usize = 10;

/// `fleet-trickle` offered load in tuples per second. The reference
/// host's closed-loop capacity for these tenants is 4.5k–5.9k tuples/s
/// depending on load from other tenants of the host. At 2000 a shard is
/// busy ≈35–45% of the time, and queueing amplified the host's drift
/// into the latency tails (spread 0.27–0.32 where CPU per tuple spread
/// 0.13); 1000 keeps each shard near a fifth busy. A recalibration on
/// other hardware edits this constant.
pub const TRICKLE_RATE: f64 = 1_000.0;
/// `fleet-trickle` tenants (taxi-sized, R=20).
pub const TRICKLE_TENANTS: usize = 4;
/// `fleet-trickle` tuples per batch.
pub const TRICKLE_BATCH: usize = 16;
/// `fleet-trickle` reads, after every this many batches, the stream the
/// last one went to. A read that fell between batches would find its
/// shard idle about four times in five and measure thread wake-up
/// instead; this way every read queues behind a write.
pub const TRICKLE_READ_EVERY: usize = 2;
/// `fleet-trickle` batches sent after the checkpoint that follows the
/// measured phase: the WAL tail recovery replays.
pub const TRICKLE_TAIL: usize = 64;

/// Which loop drives the plan.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Closed loop; checkpoint before batch `checkpoint_at`.
    Bulk {
        /// Index into the submission order.
        checkpoint_at: usize,
    },
    /// Open loop at [`TRICKLE_RATE`] over the first `measured` batches;
    /// the rest go after a checkpoint, outside the measurement.
    Trickle {
        /// Batches on the open-loop schedule.
        measured: usize,
    },
}

/// A fleet workload's whole input.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The streams.
    pub tenants: Vec<Tenant>,
    /// Submission order: tenant index and range of its live tuples.
    pub order: Vec<(usize, Range<usize>)>,
    /// Loop and its parameters.
    pub mode: Mode,
}

/// Picks stream ids so the two shards carry equal `loads` (heaviest
/// tenant first onto the lighter shard).
fn balanced_ids(loads: &[usize]) -> Vec<u64> {
    let probe = EnginePool::new(PoolConfig { shards: SHARDS, ..PoolConfig::default() });
    let mut by_load: Vec<usize> = (0..loads.len()).collect();
    by_load.sort_by_key(|&i| std::cmp::Reverse(loads[i]));
    let mut shard_load = [0usize; SHARDS];
    let mut ids = vec![0u64; loads.len()];
    let mut next_id = 1u64;
    let mut spare: Vec<Vec<u64>> = vec![Vec::new(); SHARDS];
    for i in by_load {
        let target = (0..SHARDS).min_by_key(|&s| shard_load[s]).unwrap_or(0);
        let id = loop {
            if let Some(id) = spare[target].pop() {
                break id;
            }
            let id = next_id;
            next_id += 1;
            let shard = probe.shard_of(id);
            if shard == target {
                break id;
            }
            spare[shard].insert(0, id);
        };
        shard_load[target] += loads[i];
        ids[i] = id;
    }
    probe.join();
    ids
}

/// Assigns each tenant's batches, in order, to the positions of
/// `sequence` (a list of tenant indices).
fn order_from(sequence: &[usize], batch: usize) -> Vec<(usize, Range<usize>)> {
    let mut next = BTreeMap::<usize, usize>::new();
    sequence
        .iter()
        .map(|&t| {
            let k = next.entry(t).or_insert(0);
            let range = *k * batch..(*k + 1) * batch;
            *k += 1;
            (t, range)
        })
        .collect()
}

/// The `fleet-bulk` input for `seed`, sized for `seconds`: Zipf-skewed
/// batch counts per tenant (fixed by rank, so the shard split does not
/// depend on the seed), interleaved in a seeded random order.
pub fn bulk_plan(seed: u64, seconds: f64) -> Plan {
    let batches = ((BULK_RATE * seconds) as usize).div_ceil(BULK_BATCH).max(BULK_TENANTS);
    let weights: Vec<f64> =
        (0..BULK_TENANTS).map(|i| 1.0 / ((i + 1) as f64).powf(BULK_ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let counts: Vec<usize> =
        weights.iter().map(|w| ((batches as f64 * w / total).round() as usize).max(1)).collect();
    let ids = balanced_ids(&counts);
    let tenants = (0..BULK_TENANTS)
        .map(|i| small_tenant(ids[i], data_seed(seed, i), counts[i] * BULK_BATCH))
        .collect();
    let mut sequence: Vec<usize> =
        counts.iter().enumerate().flat_map(|(i, &n)| std::iter::repeat_n(i, n)).collect();
    let mut mix = Mix::new(seed);
    for i in (1..sequence.len()).rev() {
        sequence.swap(i, mix.below(i + 1));
    }
    let checkpoint_at = (sequence.len() as f64 * CHECKPOINT_AT) as usize;
    Plan { tenants, order: order_from(&sequence, BULK_BATCH), mode: Mode::Bulk { checkpoint_at } }
}

/// The `fleet-trickle` input for `seed`: round-robin batches over
/// taxi-sized tenants, [`TRICKLE_RATE`]` × seconds` tuples on the
/// schedule plus the post-checkpoint tail.
pub fn trickle_plan(seed: u64, seconds: f64) -> Plan {
    let measured = ((TRICKLE_RATE * seconds) as usize).div_ceil(TRICKLE_BATCH).max(TRICKLE_TENANTS);
    let total = measured + TRICKLE_TAIL;
    let sequence: Vec<usize> = (0..total).map(|k| k % TRICKLE_TENANTS).collect();
    let counts: Vec<usize> =
        (0..TRICKLE_TENANTS).map(|i| sequence.iter().filter(|&&t| t == i).count()).collect();
    let ids = balanced_ids(&counts);
    let tenants = (0..TRICKLE_TENANTS)
        .map(|i| taxi_tenant(ids[i], data_seed(seed, i), counts[i] * TRICKLE_BATCH))
        .collect();
    Plan { tenants, order: order_from(&sequence, TRICKLE_BATCH), mode: Mode::Trickle { measured } }
}

/// `BatchJournal` wrapper that spans each ingest record as
/// `codec.wal_record` (stream id + ticket) and delegates to the WAL.
struct TimedJournal {
    wal: Arc<WalSet>,
    tracer: Arc<Tracer>,
}

impl BatchJournal for TimedJournal {
    fn record(&self, entry: JournalEntry<'_>) {
        match entry.op {
            JournalOp::Ingest(tuples) => {
                let at = At::batch(entry.stream_id, entry.ticket);
                self.tracer
                    .time("codec.wal_record", at, tuples.len() as u64, || self.wal.record(entry));
            }
            _ => self.wal.record(entry),
        }
    }
}

/// The shipped default pool configuration with `shards = 2`.
fn pool_config(journal: Arc<dyn BatchJournal>) -> PoolConfig {
    PoolConfig {
        shards: SHARDS,
        base_seed: BASE_SEED,
        journal: Some(journal),
        ..PoolConfig::default()
    }
}

/// A live fleet: pool, one session per tenant, its WAL and store.
struct Fleet {
    pool: EnginePool,
    sessions: Vec<StreamSession>,
    wal: Arc<WalSet>,
    store: CheckpointStore,
}

/// Builds the pool, opens every stream, prefills and warm-starts it.
/// Returns the fleet, the set-up wall time, and the open time.
fn open_fleet(plan: &Plan, dir: &Path, tracer: &Arc<Tracer>) -> Res<(Fleet, f64, f64)> {
    let err = |what: &str, e: SnsError| format!("{what}: {e}");
    let start = Instant::now();
    let wal = Arc::new(WalSet::create(dir.join("wal")).map_err(|e| err("wal", e))?);
    let journal: Arc<dyn BatchJournal> = if tracer.enabled() {
        Arc::new(TimedJournal { wal: Arc::clone(&wal), tracer: Arc::clone(tracer) })
    } else {
        Arc::clone(&wal) as Arc<dyn BatchJournal>
    };
    let pool = EnginePool::new(pool_config(journal));
    let mut sessions = Vec::with_capacity(plan.tenants.len());
    for t in &plan.tenants {
        sessions.push(pool.open(t.id, t.spec.clone()).map_err(|e| err("open", e))?);
    }
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    for (s, t) in sessions.iter_mut().zip(&plan.tenants) {
        let r = s.prefill_batch(&t.prefill).map_err(|e| err("prefill", e))?;
        if r.accepted != t.prefill.len() {
            return Err(format!(
                "stream {} prefill accepted {} of {}",
                t.id,
                r.accepted,
                t.prefill.len()
            ));
        }
    }
    let als_opts = als_options();
    for s in &mut sessions {
        let _ = s.warm_start(&als_opts).map_err(|e| err("warm start", e))?;
    }
    let setup_s = start.elapsed().as_secs_f64();
    let store = CheckpointStore::create(dir.join("ckpt")).map_err(|e| err("store", e))?;
    Ok((Fleet { pool, sessions, wal, store }, setup_s, open_ms))
}

/// A submitted batch awaiting its receipt.
struct Pending {
    tenant: usize,
    ticket: u64,
    due: Instant,
}

/// The single generator's bookkeeping: per-shard FIFOs of outstanding
/// batches (a shard applies its queue in order, so its oldest batch is
/// always the next receipt) and everything observed.
struct Pump<'a> {
    sessions: &'a mut [StreamSession],
    ops: &'a PoolOps,
    tracer: &'a Tracer,
    shard: Vec<usize>,
    fifo: Vec<VecDeque<Pending>>,
    ack_ms: Vec<f64>,
    read_ms: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    acked: u64,
    errors: u64,
    reads: u64,
    submits: u64,
    refused: u64,
    recv_wait: Duration,
    depth_max: usize,
    sent: Vec<Vec<Sent>>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<'a> Pump<'a> {
    fn new(sessions: &'a mut [StreamSession], ops: &'a PoolOps, tracer: &'a Tracer) -> Self {
        let shard = sessions.iter().map(StreamSession::shard).collect();
        let n = sessions.len();
        Pump {
            sessions,
            ops,
            tracer,
            shard,
            fifo: (0..SHARDS).map(|_| VecDeque::new()).collect(),
            ack_ms: Vec::new(),
            read_ms: Vec::new(),
            late_ms: Vec::new(),
            submit_us: Vec::new(),
            acked: 0,
            errors: 0,
            reads: 0,
            submits: 0,
            refused: 0,
            recv_wait: Duration::ZERO,
            depth_max: 0,
            sent: vec![Vec::new(); n],
        }
    }

    fn outstanding(&self) -> usize {
        self.fifo.iter().map(VecDeque::len).sum()
    }

    /// Observes the receipt of `shard`'s oldest outstanding batch,
    /// blocking for it if `block`. Returns whether one was observed.
    fn observe(&mut self, shard: usize, block: bool) -> bool {
        let Some(front) = self.fifo[shard].front() else { return false };
        let session = &mut self.sessions[front.tenant];
        let receipt = if block {
            let start = Instant::now();
            let r = session.recv_receipt();
            let end = Instant::now();
            self.recv_wait += end - start;
            self.tracer.record(
                "runtime.recv_wait",
                At::batch(session.stream_id(), front.ticket),
                start,
                end,
                1,
            );
            r
        } else {
            session.try_recv_receipt()
        };
        let Some(receipt) = receipt else { return false };
        let done = Instant::now();
        let Some(p) = self.fifo[shard].pop_front() else { return false };
        self.ack_ms.push(ms(done.saturating_duration_since(p.due)));
        match receipt {
            Ok(r) => self.acked += r.accepted as u64,
            Err(_) => self.errors += 1,
        }
        true
    }

    /// Observes every receipt that is already there.
    fn poll(&mut self) {
        for s in 0..SHARDS {
            while self.observe(s, false) {}
        }
    }

    /// Blocks until every outstanding receipt is observed.
    fn drain(&mut self) {
        for s in 0..SHARDS {
            while self.observe(s, true) {}
        }
    }

    /// Submits one batch that fell due at `due`; a refusal blocks for
    /// the shard's oldest receipt and retries with the same due time.
    fn submit(&mut self, tenant: usize, tuples: &[StreamTuple], range: Range<usize>, due: Instant) {
        let shard = self.shard[tenant];
        self.late_ms.push(ms(Instant::now().saturating_duration_since(due)));
        loop {
            let start = Instant::now();
            let r = self.sessions[tenant].try_ingest_batch(tuples);
            let end = Instant::now();
            self.submits += 1;
            match r {
                Ok(ticket) => {
                    let id = self.sessions[tenant].stream_id();
                    self.tracer.record(
                        "runtime.submit",
                        At::batch(id, ticket),
                        start,
                        end,
                        tuples.len() as u64,
                    );
                    if self.tracer.enabled() {
                        self.submit_us.push((end - start).as_secs_f64() * 1e6);
                    }
                    self.fifo[shard].push_back(Pending { tenant, ticket, due });
                    self.sent[tenant].push((ticket, range));
                    self.depth_max = self.depth_max.max(self.ops.metrics().shard(shard).depth());
                    return;
                }
                Err(SnsError::Backpressure { .. }) => {
                    self.refused += 1;
                    if !self.observe(shard, true) {
                        std::thread::sleep(POLL);
                    }
                }
                Err(_) => {
                    self.errors += 1;
                    return;
                }
            }
        }
    }
}

/// Checkpoint at a fixed point: `checkpoint_all` + `save_incremental`,
/// spanned as `codec.ckpt` with `codec.ckpt_capture` and
/// `codec.ckpt_save` children.
fn checkpoint(
    pool: &EnginePool,
    store: &CheckpointStore,
    tracer: &Tracer,
    report: &mut Report,
) -> Res<()> {
    let opened = tracer.open();
    let parent = At::child(opened.0);
    let start = Instant::now();
    let captured = tracer.time("codec.ckpt_capture", parent, 0, || pool.checkpoint_all());
    let capture_ms = ms(start.elapsed());
    let snapshots = captured
        .into_iter()
        .map(|(id, r)| r.map_err(|e| format!("checkpoint of stream {id}: {e}")))
        .collect::<Res<Vec<_>>>()?;
    let start = Instant::now();
    tracer
        .time("codec.ckpt_save", parent, snapshots.len() as u64, || {
            store.save_incremental(&snapshots)
        })
        .map_err(|e| format!("save checkpoint: {e}"))?;
    let save_ms = ms(start.elapsed());
    tracer.close(opened, "codec.ckpt", At::default(), snapshots.len() as u64);
    report.set("codec.ckpt_capture_ms", capture_ms);
    report.set("codec.ckpt_save_ms", save_ms);
    report.set("codec.ckpt_bytes", probe::dir_bytes(store.dir()) as f64);
    Ok(())
}

fn ingest_groups(ops: &PoolOps) -> u64 {
    (0..SHARDS).map(|s| ops.metrics().shard(s).ingest_groups.load(Ordering::Relaxed)).sum()
}

impl Pump<'_> {
    /// Pipelined batches whose receipts are not collected, per the
    /// sessions themselves.
    fn in_flight(&self) -> usize {
        self.sessions.iter().map(StreamSession::in_flight).sum()
    }

    /// Reads one stream's factors (`StreamSession::snapshot`), which
    /// queues behind its shard's writes; records the latency from `due`
    /// (a failed read counts as an error).
    fn read(&mut self, tenant: usize, due: Instant) {
        self.late_ms.push(ms(Instant::now().saturating_duration_since(due)));
        let session = &mut self.sessions[tenant];
        let start = Instant::now();
        let snapshot = session.snapshot();
        let end = Instant::now();
        self.tracer.record("runtime.read", At::batch(session.stream_id(), 0), start, end, 1);
        self.reads += 1;
        match snapshot {
            Ok(_) => self.read_ms.push(ms(end.saturating_duration_since(due))),
            Err(_) => self.errors += 1,
        }
    }

    /// Closed loop over `batches`: at most [`WINDOW`] in flight per
    /// shard, a read after every `read_every` batches, and an optional
    /// checkpoint before batch `checkpoint_before.0`. Returns the backlog
    /// when the last batch was submitted.
    fn closed_loop(
        &mut self,
        plan: &Plan,
        batches: &[(usize, Range<usize>)],
        read_every: Option<usize>,
        checkpoint_before: Option<(usize, &EnginePool, &CheckpointStore, &mut Report)>,
    ) -> Res<usize> {
        let mut checkpoint_before = checkpoint_before;
        for (k, (tenant, range)) in batches.iter().enumerate() {
            if read_every.is_some_and(|every| k % every == every - 1) {
                let j = self.reads as usize;
                self.read(j % plan.tenants.len(), Instant::now());
            }
            if let Some((at, pool, store, report)) = checkpoint_before.as_mut() {
                if k == *at {
                    // Quiesce first, as `checkpoint_all` recommends for
                    // a cross-stream-consistent cut.
                    self.drain();
                    checkpoint(pool, store, self.tracer, report)?;
                }
            }
            let shard = self.shard[*tenant];
            while self.fifo[shard].len() >= WINDOW && self.observe(shard, true) {}
            self.submit(
                *tenant,
                &plan.tenants[*tenant].live[range.clone()],
                range.clone(),
                Instant::now(),
            );
            self.poll();
        }
        let backlog = self.in_flight();
        self.drain();
        Ok(backlog)
    }

    /// Open loop: batch `k` of the first `measured` falls due at
    /// `k × TRICKLE_BATCH / TRICKLE_RATE` s. After every
    /// [`TRICKLE_READ_EVERY`]-th batch the stream it went to is read with
    /// the same due time, so the read queues behind that write. Returns
    /// the backlog when the schedule ended.
    fn open_loop(&mut self, plan: &Plan, measured: usize) -> usize {
        let interval = TRICKLE_BATCH as f64 / TRICKLE_RATE;
        let t0 = Instant::now() + Duration::from_millis(5);
        for (k, (tenant, range)) in plan.order[..measured].iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(k as f64 * interval);
            loop {
                self.poll();
                let now = Instant::now();
                if due <= now {
                    break;
                }
                let gap = due - now;
                std::thread::sleep(if self.outstanding() > 0 { gap.min(POLL) } else { gap });
            }
            self.submit(*tenant, &plan.tenants[*tenant].live[range.clone()], range.clone(), due);
            if k % TRICKLE_READ_EVERY == TRICKLE_READ_EVERY - 1 {
                self.read(*tenant, due);
            }
        }
        let backlog = self.in_flight();
        self.drain();
        backlog
    }
}

/// Sets the metrics a pump observed over the measured phase.
fn set_pump_metrics(report: &mut Report, pump: &Pump<'_>) {
    report.distribution(pump.ack_ms.clone(), ACK_PERCENTILES);
    report.distribution(pump.read_ms.clone(), READ_PERCENTILES);
    report.set("gen.late_ms_p50", percentile(&pump.late_ms, 0.50));
    report.set("gen.late_ms_max", max(&pump.late_ms));
    report.set("runtime.submit_us_p50", percentile(&pump.submit_us, 0.50));
    report.set("runtime.submit_us_p99", percentile(&pump.submit_us, 0.99));
    report.set("runtime.recv_wait_s", pump.recv_wait.as_secs_f64());
    report.set("runtime.refused_ratio", pump.refused as f64 / pump.submits.max(1) as f64);
    report.set("runtime.queue_depth_max", pump.depth_max as f64);
}

/// Closes a fleet's sessions and joins its workers.
fn shut(pool: EnginePool, sessions: Vec<StreamSession>) {
    for s in sessions {
        s.close();
    }
    pool.join();
}

/// Runs one measured pass of a fleet workload in `dir`.
pub fn run(plan: &Plan, dir: &Path, tracer: &Arc<Tracer>) -> Res<Report> {
    let mut report = Report::default();
    let (fleet, setup_s, open_ms) = open_fleet(plan, dir, tracer)?;
    let Fleet { pool, mut sessions, wal, store } = fleet;
    report.set("setup_s", setup_s);
    report.set("runtime.open_ms", open_ms);
    report.fact("wal_filesystem", probe::filesystem_of(wal.dir()));

    // Measured phase.
    let ops = pool.ops();
    let groups0 = ingest_groups(ops);
    let mut pump = Pump::new(&mut sessions, ops, tracer);
    let cpu0 = probe::cpu_seconds();
    let start = Instant::now();
    let (measured, backlog) = match plan.mode {
        Mode::Bulk { checkpoint_at } => {
            let ckpt = Some((checkpoint_at, &pool, &store, &mut report));
            (plan.order.len(), pump.closed_loop(plan, &plan.order, Some(BULK_READ_EVERY), ckpt)?)
        }
        Mode::Trickle { measured } => (measured, pump.open_loop(plan, measured)),
    };
    let wall = start.elapsed().as_secs_f64();
    let cpu = probe::cpu_seconds() - cpu0;
    let acked = pump.acked;
    let groups = ingest_groups(ops) - groups0;
    set_pump_metrics(&mut report, &pump);
    report.set("tuples_per_s", acked as f64 / wall);
    report.set("cpu_us_per_tuple", cpu * 1e6 / acked.max(1) as f64);
    report.set("runtime.coalescing", measured as f64 / groups.max(1) as f64);
    report.set("runtime.backlog_end", backlog as f64);
    let hist_p99 =
        plan.tenants.iter().map(|t| ops.metrics().stream(t.id).latency.snapshot().p99_us / 1e3);
    report.set("ops.hist_p99_ms", hist_p99.fold(0.0, f64::max));
    let dump_start = Instant::now();
    let dump = ops.dump();
    report.set("ops.dump_us", dump_start.elapsed().as_secs_f64() * 1e6);
    report.fact("measured_s", format!("{wall:.3}"));
    report.fact("measured_batches", measured);
    report.fact("ingest_groups", groups);
    report.fact("ops_dump_bytes", dump.len());

    // Outside the measurement: `fleet-trickle` checkpoints now and sends
    // a short tail that only the WAL holds when the crash comes.
    if let Mode::Trickle { .. } = plan.mode {
        checkpoint(&pool, &store, tracer, &mut report)?;
        pump.closed_loop(plan, &plan.order[measured..], None, None)?;
    }
    let submitted: u64 = pump.sent.iter().flatten().map(|(_, r)| r.len() as u64).sum();
    let all_acked = pump.acked;
    report.attempted += pump.submits - pump.refused + pump.reads;
    report.failed += pump.errors;
    let sent = std::mem::take(&mut pump.sent);
    drop(pump);

    // Model health and the live state every identity check compares to.
    let mut fitness = BTreeMap::new();
    let mut stream_errors = 0usize;
    for session in &mut sessions {
        let r = session.report().map_err(|e| format!("report: {e}"))?;
        stream_errors += usize::from(r.error.is_some());
        fitness.insert(r.stream_id, r.fitness);
    }
    let mut live: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut encode_us = Vec::new();
    let mut finite = true;
    let mut rel = Vec::new();
    for (id, snapshot) in pool.checkpoint_all() {
        let f = fitness.get(&id).copied().unwrap_or(f64::NAN);
        let snapshot = snapshot.map_err(|e| format!("final capture of stream {id}: {e}"))?;
        let start = Instant::now();
        let bytes = to_bytes(&snapshot);
        encode_us.push(start.elapsed().as_secs_f64() * 1e6);
        live.insert(id, bytes);
        let rank = plan.tenants.iter().find(|t| t.id == id).map_or(1, |t| t.rank);
        let engine = snapshot.state.into_engine().map_err(|e| format!("rebuild: {e}"))?;
        let k = engine.kruskal();
        finite &= k.factors.iter().all(|m| m.is_finite()) && k.lambda.iter().all(|x| x.is_finite());
        rel.push(f / als(engine.window(), rank, &als_options()).fitness);
    }
    let panics: u64 =
        (0..SHARDS).map(|s| ops.metrics().shard(s).panics.load(Ordering::Relaxed)).sum();
    report.set("fitness", crate::stats::mean(&fitness.into_values().collect::<Vec<_>>()));
    report.set("fitness_rel", crate::stats::mean(&rel));
    report.set("codec.encode_us", median(&encode_us));
    report.set("runtime.panics", panics as f64);
    let journaled: u64 =
        plan.tenants.iter().map(|t| t.prefill.len() as u64).sum::<u64>() + submitted;
    report.set(
        "codec.wal_bytes_per_tuple",
        probe::dir_bytes(wal.dir()) as f64 / journaled.max(1) as f64,
    );
    let wal_error = wal.error();
    report.set("codec.wal_error", f64::from(u8::from(wal_error.is_some())));

    // The crash: every session and the pool go away; recovery rebuilds
    // the fleet from the checkpoint plus the WAL tail onto a new pool.
    shut(pool, sessions);
    let start = Instant::now();
    let loaded = tracer.time("codec.recover_load", At::default(), 0, || store.load());
    report.set("codec.recover_load_ms", ms(start.elapsed()));
    drop(loaded.map_err(|e| format!("load checkpoint: {e}"))?);
    let start = Instant::now();
    let pool = EnginePool::new(pool_config(Arc::clone(&wal) as Arc<dyn BatchJournal>));
    let (sessions, replay_units) =
        recover_pool_wal(&pool, &store, &wal).map_err(|e| format!("recover: {e}"))?;
    report.set("recover_s", start.elapsed().as_secs_f64());
    report.set("codec.replay_units", replay_units as f64);
    let recovered = pool
        .checkpoint_all()
        .into_iter()
        .map(|(id, r)| r.map(|s| (id, to_bytes(&s))).map_err(|e| format!("recovered capture: {e}")))
        .collect::<Res<Vec<_>>>()?;
    let recovered_identical = layers::count_identical(&live, recovered);
    shut(pool, sessions);
    let wal_error_after = wal.error();

    let n = plan.tenants.len();
    let planned: u64 = plan.order.iter().map(|(_, r)| r.len() as u64).sum();
    report.check(
        "acked_equals_submitted",
        all_acked == planned && submitted == planned,
        format!("{all_acked} of {planned} planned tuples acknowledged ({submitted} submitted)"),
    );
    report.check(
        "no_stream_errors",
        stream_errors == 0,
        format!("{stream_errors} streams report a first error"),
    );
    report.check(
        "factors_finite",
        finite,
        "every entry of every stream's kruskal() factors and weights is finite",
    );
    report.check(
        "wal_error_none",
        wal_error.is_none() && wal_error_after.is_none(),
        format!("WalSet::error() = {:?}", wal_error.or(wal_error_after)),
    );
    report.check("no_panics", panics == 0, format!("{panics} shard panics"));
    report.check(
        "recovered_equals_live",
        recovered_identical == n,
        format!("{recovered_identical} of {n} streams byte-identical after crash + recover_pool_wal ({replay_units} units replayed)"),
    );

    if tracer.enabled() {
        let mut counts = Counts::default();
        let mut mirrored = Vec::with_capacity(n);
        for (tenant, sent) in plan.tenants.iter().zip(&sent) {
            let (engine, updates) = layers::mirror(tenant, sent, tracer)?;
            let tuples: u64 = sent.iter().map(|(_, r)| r.len() as u64).sum();
            let bytes = to_bytes(&layers::mirror_snapshot(tenant, engine.as_ref(), tuples)?);
            mirrored.push((tenant.id, bytes));
            let (deltas, nnz) = layers::window_replay(tenant, sent, tracer)?;
            layers::time_capture_and_fitness(engine.as_ref(), tenant.id, tracer);
            counts.tuples += tuples;
            counts.deltas += deltas;
            counts.updates += updates;
            counts.nnz += nnz;
            counts.streams += 1;
        }
        let identical = layers::count_identical(&live, mirrored);
        report.check(
            "pooled_equals_serial",
            identical == n,
            format!("{identical} of {n} streams byte-identical to a serial mirror engine"),
        );
        layers::set_stream_core(&mut report, tracer, counts);
        let snapshot_s = report.get("core.snapshot_us").unwrap_or(0.0) * 1e-6;
        report.set("runtime.rollback_share", groups as f64 * snapshot_s / (SHARDS as f64 * wall));
        let records = layers::durations(tracer, "codec.wal_record", 1e3);
        report.set("codec.wal_record_us_p50", percentile(&records, 0.50));
        report.set("codec.wal_record_us_p99", percentile(&records, 0.99));
        report.set("codec.wal_records", records.len() as f64);
    }
    Ok(report)
}
