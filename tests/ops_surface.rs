//! End-to-end tests of the operability surface (`sns-ops` wired through
//! the pool): lifecycle events on the bus, per-stream metrics and
//! latency histograms, dead-letter quarantine with deterministic
//! replay, and the typed backpressure contract.

use proptest::prelude::*;
use slicenstitch::core::als::AlsOptions;
use slicenstitch::core::{AlgorithmKind, SnsConfig};
use slicenstitch::data::{generate, GeneratorConfig};
use slicenstitch::ops::{BusItem, QuarantinedOp};
use slicenstitch::runtime::pool::stream_seed;
use slicenstitch::runtime::{
    BaselineKind, ChaosConfig, EnginePool, EngineSnapshot, EngineSpec, PoolConfig, PoolDeadLetter,
    PoolEvent, QuarantinePolicy, SnsError, StreamSession, POISON_VALUE,
};
use slicenstitch::stream::StreamTuple;
use std::sync::atomic::Ordering;
use std::time::Duration;

const DIMS: [usize; 2] = [4, 3];
const W: usize = 3;
const T: u64 = 5;
const BASE_SEED: u64 = 0x0b5;

fn sns_spec() -> EngineSpec {
    EngineSpec::sns(
        &DIMS,
        W,
        T,
        AlgorithmKind::PlusRnd,
        &SnsConfig { rank: 2, theta: 10, ..Default::default() },
    )
}

fn trace(seed: u64, events: usize) -> Vec<StreamTuple> {
    generate(&GeneratorConfig {
        base_dims: DIMS.to_vec(),
        n_components: 2,
        events,
        duration: 10 * W as u64 * T,
        zipf_exponent: 1.2,
        noise_fraction: 0.1,
        day_ticks: 50,
        seed,
        ..Default::default()
    })
}

fn cut(trace: &[StreamTuple]) -> usize {
    trace.partition_point(|t| t.time <= W as u64 * T)
}

fn als() -> AlsOptions {
    AlsOptions { max_iters: 4, tol: 1e-3, ..Default::default() }
}

/// Drives the full trace in batches, tolerating quarantine-class
/// rejections; returns how many batches were rejected.
fn drive(
    session: &mut slicenstitch::runtime::StreamSession,
    trace: &[StreamTuple],
) -> Result<usize, SnsError> {
    let c = cut(trace);
    for chunk in trace[..c].chunks(20) {
        let _ = session.prefill_batch(chunk)?;
    }
    let _ = session.warm_start(&als())?;
    let mut rejected = 0;
    for chunk in trace[c..].chunks(20) {
        match session.ingest_batch(chunk) {
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.root_cause(),
                    SnsError::EnginePanicked { .. } | SnsError::StreamQuarantined { .. }
                ) =>
            {
                rejected += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(rejected)
}

/// A panicking batch quarantines the stream instead of killing it, the
/// healthy co-tenant never notices, the repaired letters replay to a
/// state byte-identical to a serial run over the repaired trace, and
/// the whole story is visible on the bus and in the metrics dump.
#[test]
fn quarantine_replay_is_bitwise_and_observable() {
    let pool = EnginePool::new(PoolConfig {
        shards: 2,
        base_seed: BASE_SEED,
        queue_depth: 32,
        ..Default::default()
    });
    let mut sub = pool.ops().subscribe();

    let chaos_spec = sns_spec().with_chaos(ChaosConfig::default());
    let mut poisoned = trace(1, 300);
    let c = cut(&poisoned);
    let live = poisoned.len() - c;
    poisoned[c + live / 2].value = POISON_VALUE;
    let healthy_trace = trace(2, 300);

    let mut chaos = pool.open(1, chaos_spec.clone()).unwrap();
    let mut healthy = pool.open(2, sns_spec()).unwrap();
    let rejected = drive(&mut chaos, &poisoned).unwrap();
    assert!(rejected >= 1, "the poison batch must be rejected");
    assert_eq!(drive(&mut healthy, &healthy_trace).unwrap(), 0);

    // The DLQ holds the poison batch plus everything diverted behind it.
    let letters_pending = pool.ops().dlq().pending(1);
    assert_eq!(letters_pending, rejected);
    assert_eq!(pool.ops().dlq().pending(2), 0);
    let chaos_report = chaos.report().unwrap();
    assert!(chaos_report.error.is_some(), "sticky error until replay");

    // Repair (poison -> 1.0) and replay; letters carry full context.
    let replayed = chaos
        .replay_quarantined(|letter| {
            assert_eq!(letter.stream_id, 1);
            assert!(matches!(letter.op, QuarantinedOp::Ingest));
            assert!(!letter.tuples.is_empty());
            for t in &mut letter.tuples {
                if t.value.to_bits() == POISON_VALUE.to_bits() {
                    t.value = 1.0;
                }
            }
        })
        .unwrap();
    assert_eq!(replayed, letters_pending);
    assert_eq!(pool.ops().dlq().pending(1), 0);
    assert!(chaos.report().unwrap().error.is_none(), "replay clears the slot");

    // Byte-identity: pooled final state == serial run over the repaired
    // trace with the same derived seed.
    for (id, spec, tr) in [(1u64, chaos_spec, &poisoned), (2, sns_spec(), &healthy_trace)] {
        let mut repaired = tr.clone();
        for t in &mut repaired {
            if t.value.to_bits() == POISON_VALUE.to_bits() {
                t.value = 1.0;
            }
        }
        let mut engine = spec.build(stream_seed(BASE_SEED, id));
        let cc = cut(&repaired);
        engine.prefill_all(&repaired[..cc]).unwrap();
        engine.warm_start(&als());
        engine.ingest_all(&repaired[cc..]).unwrap();
        let serial = slicenstitch::codec::to_bytes(&EngineSnapshot {
            stream_id: id,
            spec: spec.clone(),
            seed: spec.effective_seed(stream_seed(BASE_SEED, id)),
            wal_seq: 0,
            state: engine.snapshot().unwrap(),
        });
        let session = if id == 1 { &mut chaos } else { &mut healthy };
        let pooled = slicenstitch::codec::to_bytes(&session.snapshot().unwrap());
        assert_eq!(pooled, serial, "stream {id} diverged from its serial reference");
    }

    // Checkpoint for the CheckpointCommitted event, then close.
    for (_, snapshot) in pool.checkpoint_all() {
        let _ = snapshot.unwrap();
    }
    let dump = pool.ops().dump();
    let stream1 = pool.ops().metrics().stream(1);
    drop(chaos);
    drop(healthy);
    pool.join();

    let (mut opened, mut evicted, mut quarantined, mut checkpoints) = (0, 0, 0, 0);
    for item in sub.drain() {
        if let BusItem::Event(e) = item {
            match *e {
                PoolEvent::StreamOpened { .. } => opened += 1,
                PoolEvent::StreamEvicted { .. } => evicted += 1,
                PoolEvent::TupleQuarantined { .. } => quarantined += 1,
                PoolEvent::CheckpointCommitted { streams } => {
                    checkpoints += 1;
                    assert_eq!(streams, 2);
                }
                _ => {}
            }
        }
    }
    assert_eq!(opened, 2);
    assert_eq!(evicted, 2);
    assert_eq!(quarantined, rejected as u64);
    assert_eq!(checkpoints, 1);

    // Metrics dump sanity: both streams, quarantine counters, dlq section.
    for key in ["\"stream_id\":1", "\"stream_id\":2", "\"dlq\"", "\"events\"", "\"p99_us\""] {
        assert!(dump.contains(key), "dump missing {key}: {dump}");
    }
    assert!(stream1.quarantined.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(stream1.replayed.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    assert!(stream1.latency.snapshot().count > 0, "receipts must feed the histogram");
}

/// With `QuarantinePolicy::Disabled` there is no pre-batch capture: a
/// panic still leaves a letter for the post-mortem, but the slot goes
/// dark and keeps reporting the panic instead of serving.
#[test]
fn disabled_policy_goes_dark_but_records_the_letter() {
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: BASE_SEED,
        queue_depth: 16,
        quarantine: QuarantinePolicy::Disabled,
        ..Default::default()
    });
    let mut session = pool.open(7, sns_spec().with_chaos(ChaosConfig::default())).unwrap();
    let mut tr = trace(7, 200);
    let c = cut(&tr);
    tr[c + 5].value = POISON_VALUE;
    for chunk in tr[..c].chunks(20) {
        let _ = session.prefill_batch(chunk).unwrap();
    }
    let _ = session.warm_start(&als()).unwrap();
    let err = session.ingest_batch(&tr[c..c + 20]).unwrap_err();
    assert!(matches!(err, SnsError::EnginePanicked { stream_id: 7, .. }));
    // The slot is dark: even a clean batch now reports the panic.
    let err = session.ingest_batch(&tr[c + 20..c + 40]).unwrap_err();
    assert!(matches!(err.root_cause(), SnsError::EnginePanicked { .. }));
    assert_eq!(pool.ops().dlq().pending(7), 1, "the letter is still recorded");
    // Replay cannot resurrect a dark slot; the letter is requeued.
    let res = session.replay_quarantined(|_| {});
    assert!(res.is_err());
    assert_eq!(pool.ops().dlq().pending(7), 1, "failed replay requeues the letter");
    drop(session);
    pool.join();
}

/// `SnsError::Backpressure` carries the shard, the live queue depth,
/// and the configured capacity; the blocking fallback publishes
/// onset/relief events when somebody listens.
#[test]
fn backpressure_carries_context_and_publishes_onset_relief() {
    let pool = EnginePool::new(PoolConfig {
        shards: 1,
        base_seed: BASE_SEED,
        queue_depth: 2,
        ..Default::default()
    });
    let mut sub = pool.ops().subscribe();
    // A chaos delay makes the worker slow without ever poisoning.
    let spec = sns_spec().with_chaos(ChaosConfig { delay_micros: 500, ..Default::default() });
    let mut session = pool.open(3, spec).unwrap();
    let tr = trace(3, 250);
    let c = cut(&tr);
    let shard = session.shard();
    let mut typed = 0;
    for chunk in tr[c..].chunks(8) {
        match session.try_ingest_batch(chunk) {
            Ok(_) => {}
            Err(SnsError::Backpressure { stream_id, shard: s, depth, capacity }) => {
                assert_eq!(stream_id, 3);
                assert_eq!(s, shard);
                assert_eq!(capacity, 2);
                assert!(depth <= capacity);
                typed += 1;
                let _ = session.ingest_batch(chunk).unwrap();
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    while let Some(receipt) = session.recv_receipt() {
        let receipt = receipt.unwrap();
        assert!(receipt.latency > Duration::ZERO, "receipts carry enqueue->ack latency");
    }
    assert!(typed > 0, "the tiny queue must reject at least once");
    let p99 = pool.ops().metrics().stream(3).latency.snapshot().p99_us;
    drop(session);
    pool.join();
    let (mut onsets, mut reliefs) = (0, 0);
    for item in sub.drain() {
        if let BusItem::Event(e) = item {
            match *e {
                PoolEvent::BackpressureOnset { stream_id: 3, capacity: 2, .. } => onsets += 1,
                PoolEvent::BackpressureRelief { stream_id: 3, .. } => reliefs += 1,
                _ => {}
            }
        }
    }
    assert!(onsets > 0 && reliefs > 0, "onset/relief must reach the bus");
    assert!(p99 > 0.0, "slow engine latency must show in the histogram");
}

fn is_poison(t: &StreamTuple) -> bool {
    t.value.to_bits() == POISON_VALUE.to_bits()
}

/// The repair every rollback test applies: poison -> 1.0.
fn repair(letter: &mut PoolDeadLetter) {
    for t in letter.tuples.iter_mut().filter(|t| is_poison(t)) {
        t.value = 1.0;
    }
}

/// One step of a driven stream, for the serial reference to mirror.
#[derive(Debug, Clone)]
enum Step {
    Ingest(std::ops::Range<usize>),
    /// `advance_to(t)`, and whether the pool applied it (a quarantined
    /// stream rejects clock advances).
    Advance(u64, bool),
}

/// Serial per-tuple reference: prefill, warm start, then the steps the
/// pool applied, over the repaired trace.
fn serial_bytes(id: u64, spec: &EngineSpec, trace: &[StreamTuple], steps: &[Step]) -> Vec<u8> {
    let repaired: Vec<StreamTuple> = trace
        .iter()
        .map(|t| if is_poison(t) { StreamTuple { value: 1.0, ..*t } } else { *t })
        .collect();
    let mut engine = spec.build(stream_seed(BASE_SEED, id));
    let c = cut(&repaired);
    for tu in &repaired[..c] {
        engine.prefill(*tu).unwrap();
    }
    engine.warm_start(&als());
    for step in steps {
        match step {
            Step::Ingest(range) => {
                for tu in &repaired[range.clone()] {
                    engine.ingest(*tu).unwrap();
                }
            }
            Step::Advance(t, applied) => {
                if *applied {
                    engine.advance_to(*t);
                }
            }
        }
    }
    slicenstitch::codec::to_bytes(&EngineSnapshot {
        stream_id: id,
        spec: spec.clone(),
        seed: spec.effective_seed(stream_seed(BASE_SEED, id)),
        wal_seq: 0,
        state: engine.snapshot().unwrap(),
    })
}

/// Collects every outstanding pipelined receipt; returns how many were
/// rejected as panicked and as quarantined.
fn drain(session: &mut StreamSession) -> (usize, usize) {
    let (mut panicked, mut diverted) = (0, 0);
    while let Some(r) = session.recv_receipt() {
        match r {
            Ok(_) => {}
            Err(SnsError::EnginePanicked { .. }) => panicked += 1,
            Err(SnsError::StreamQuarantined { .. }) => diverted += 1,
            Err(e) => panic!("unexpected receipt error: {e}"),
        }
    }
    (panicked, diverted)
}

/// The engine families the rollback-equivalence property covers.
fn rollback_family(family: u8) -> EngineSpec {
    let config = SnsConfig { rank: 2, theta: 10, ..Default::default() };
    match family {
        0 => EngineSpec::sns(&DIMS, W, T, AlgorithmKind::PlusRnd, &config),
        1 => EngineSpec::sns(&DIMS, W, T, AlgorithmKind::Vec, &config),
        _ => EngineSpec::baseline(&DIMS, W, T, 2, BaselineKind::OnlineScp),
    }
}

/// Live tuples driven before the poison can land. The window tensor
/// has at most `4·3·W = 36` cells, so once that much replay work is
/// logged the stream must have rebased; in-flight batches are capped
/// (3 × ≤ 12 tuples) so at least one more group follows the rebase.
const WARM_LIVE: usize = 120;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rollback equivalence: a panic anywhere — mid-coalesced-group,
    /// after at least one rebase, with clock advances interleaved —
    /// followed by `replay_quarantined` of the repaired letters leaves
    /// the stream byte-identical to a serial per-tuple run of the
    /// repaired trace.
    #[test]
    fn rollback_replay_equals_serial_per_tuple(
        case_seed in 0u64..10_000,
        family in 0u8..3,
        max_batch in 1usize..13,
        poison_frac in 0.0f64..1.0,
        advance_every in 2u64..7,
    ) {
        let id = 100 + case_seed;
        let spec = rollback_family(family).with_chaos(ChaosConfig::default());
        let mut tr = trace(case_seed, 420);
        let c = cut(&tr);
        let live = tr.len() - c;
        prop_assert!(live > WARM_LIVE + 20, "trace too short: {} live", live);
        let poison_at = c + WARM_LIVE + ((live - WARM_LIVE - 1) as f64 * poison_frac) as usize;
        tr[poison_at].value = POISON_VALUE;

        let pool = EnginePool::new(PoolConfig {
            shards: 1,
            base_seed: BASE_SEED,
            ..Default::default()
        });
        let mut session = pool.open(id, spec.clone()).unwrap();
        for chunk in tr[..c].chunks(20) {
            let _ = session.prefill_batch(chunk).unwrap();
        }
        let _ = session.warm_start(&als()).unwrap();
        let captures = || pool.ops().metrics().shard(0).rollback_captures.load(Ordering::Relaxed);
        let captures0 = captures();

        // Random batch sizes from a per-case LCG.
        let mut lcg = case_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = |bound: u64| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (lcg >> 33) % bound
        };
        let mut steps = Vec::new();
        let mut at = c;
        // Warm phase: no clock advances (they clear the base), at most
        // three batches in flight, so a rebase is forced.
        while at < c + WARM_LIVE {
            let end = (at + 1 + next(max_batch as u64) as usize).min(c + WARM_LIVE);
            let _ = session.try_ingest_batch(&tr[at..end]).unwrap();
            steps.push(Step::Ingest(at..end));
            at = end;
            if session.in_flight() >= 3 {
                let _ = session.recv_receipt().unwrap().unwrap();
            }
        }
        prop_assert_eq!(drain(&mut session), (0, 0));
        prop_assert!(captures() - captures0 >= 2, "no rebase before the poison");

        // Poison phase: fully pipelined (the poison lands in whatever
        // group the worker coalesced), clock advances at random.
        while at < tr.len() {
            if next(advance_every) == 0 {
                let t = tr[at].time;
                let applied = match session.advance_to(t) {
                    Ok(_) => true,
                    Err(SnsError::StreamQuarantined { .. }) => false,
                    Err(e) => panic!("advance_to: {e}"),
                };
                steps.push(Step::Advance(t, applied));
            }
            let end = (at + 1 + next(max_batch as u64) as usize).min(tr.len());
            let _ = session.try_ingest_batch(&tr[at..end]).unwrap();
            steps.push(Step::Ingest(at..end));
            at = end;
        }
        let (panicked, diverted) = drain(&mut session);
        prop_assert_eq!(panicked, 1);
        prop_assert_eq!(pool.ops().dlq().pending(id), 1 + diverted);

        let replayed = session.replay_quarantined(repair).unwrap();
        prop_assert_eq!(replayed, 1 + diverted);
        let pooled = slicenstitch::codec::to_bytes(&session.snapshot().unwrap());
        prop_assert!(
            pooled == serial_bytes(id, &spec, &tr, &steps),
            "family {} diverged from its serial reference",
            family
        );
        drop(session);
        pool.join();
    }
}

/// The base-clearing command whose first following tuple group a
/// deterministic rollback case poisons.
#[derive(Debug, Clone, Copy)]
enum PoisonAfter {
    Open,
    WarmStart,
    Restore,
}

/// A panic in the very first tuple group after open, after
/// `warm_start`, and after `restore` — each a point where the stream
/// has no rollback base yet — still rolls back and replays to the
/// serial bytes.
#[test]
fn panic_in_the_first_group_after_a_base_reset_rolls_back_bitwise() {
    for (k, case) in
        [PoisonAfter::Open, PoisonAfter::WarmStart, PoisonAfter::Restore].into_iter().enumerate()
    {
        let id = 60 + k as u64;
        let spec = sns_spec().with_chaos(ChaosConfig::default());
        let mut tr = trace(id, 300);
        let c = cut(&tr);
        let restore_at = c + 60;
        let poison_at = match case {
            PoisonAfter::Open => 3,
            PoisonAfter::WarmStart => c + 3,
            PoisonAfter::Restore => restore_at + 3,
        };
        tr[poison_at].value = POISON_VALUE;
        let pool =
            EnginePool::new(PoolConfig { shards: 2, base_seed: BASE_SEED, ..Default::default() });
        let mut session = pool.open(id, spec.clone()).unwrap();
        for chunk in tr[..c].chunks(20) {
            if let Err(e) = session.prefill_batch(chunk) {
                assert!(matches!(e, SnsError::EnginePanicked { .. }), "{case:?}: {e}");
                assert_eq!(session.replay_quarantined(repair).unwrap(), 1, "{case:?}");
            }
        }
        let _ = session.warm_start(&als()).unwrap();
        let mut from = c;
        if let PoisonAfter::Restore = case {
            let _ = session.ingest_batch(&tr[c..restore_at]).unwrap();
            let snapshot = session.snapshot().unwrap();
            let target = (session.shard() + 1) % pool.shards();
            session = pool.restore(snapshot, target).unwrap();
            from = restore_at;
        }
        // Pipelined, so the poison batch shares a coalesced group.
        for chunk in tr[from..].chunks(8) {
            let _ = session.try_ingest_batch(chunk).unwrap();
        }
        let (panicked, diverted) = drain(&mut session);
        match case {
            PoisonAfter::Open => assert_eq!((panicked, diverted), (0, 0)),
            _ => assert_eq!(panicked, 1, "{case:?}"),
        }
        if panicked > 0 {
            assert_eq!(session.replay_quarantined(repair).unwrap(), 1 + diverted, "{case:?}");
        }
        let pooled = slicenstitch::codec::to_bytes(&session.snapshot().unwrap());
        let steps = [Step::Ingest(c..tr.len())];
        assert!(pooled == serial_bytes(id, &spec, &tr, &steps), "{case:?} diverged");
        drop(session);
        pool.join();
    }
}
