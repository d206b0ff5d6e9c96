//! `taxi-serial`: the paper's protocol on one SNS⁺_RND engine, driven
//! in the generator thread with no pool and no journal.
//!
//! Prefill + ALS warm start, then `StreamingCpd::ingest_all` over
//! 16-tuple batches, with a `snapshot()` read every 8 batches. Each pass
//! of a run drives a stream of its own, so `fitness` averages over
//! several streams of the same distribution. This is
//! the single-threaded baseline: `sns-core`, `sns-linalg` and
//! `sns-stream` do all the work and `sns-runtime`'s pool and `sns-codec`
//! none, so pool, WAL or rollback changes must not move it.

use crate::inputs::{als_options, data_seed, taxi_tenant, Tenant, BASE_SEED};
use crate::layers::{self, Counts, Sent};
use crate::probe;
use crate::report::{Report, ACK_PERCENTILES, PER_LAYER, READ_PERCENTILES};
use crate::stats::median;
use crate::trace::{At, Tracer};
use crate::Res;
use sns_core::als::als;
use sns_runtime::pool::stream_seed;
use std::time::Instant;

/// Serial throughput of the reference host (2-vCPU x86-64 VM) while
/// other tenants load it (it reaches 7k–9k tuples/s when they do not):
/// the live input holds `SERIAL_RATE × seconds` tuples, so the work of a
/// run is fixed and it measures for at most about `--seconds` there.
pub const SERIAL_RATE: f64 = 5_000.0;
/// Tuples per `ingest_all` call.
pub const BATCH: usize = 16;
/// A factor read after every this many batches.
pub const READ_EVERY: usize = 8;
/// Set-ups per pass; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Restores per pass; `recover_s` is their total time over their count.
pub const RESTORES: usize = 50;

/// Stream `pass` for `seed`, sized for `seconds`.
pub fn input(seed: u64, pass: usize, seconds: f64) -> Tenant {
    taxi_tenant(0, data_seed(seed, pass), (SERIAL_RATE * seconds).ceil() as usize)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One measured pass over the whole of `tenant.live`.
pub fn run(tenant: &Tenant, tracer: &Tracer) -> Res<Report> {
    let mut report = Report::default();
    let als_opts = als_options();
    let at = At::batch(tenant.id, 0);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut e = tenant.spec.build(stream_seed(BASE_SEED, tenant.id));
        tracer
            .time("core.prefill", at, tenant.prefill.len() as u64, || {
                e.prefill_all(&tenant.prefill)
            })
            .map_err(|e| format!("prefill: {e}"))?;
        tracer.time("core.warm_start", at, 1, || e.warm_start(&als_opts));
        setups.push(start.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.ok_or("no set-up ran")?;

    let mut ack = Vec::new();
    let mut read = Vec::new();
    let mut sent: Vec<Sent> = Vec::new();
    let (mut acked, mut updates) = (0u64, 0u64);
    let cpu0 = probe::cpu_seconds();
    let start = Instant::now();
    for (b, batch) in tenant.live.chunks(BATCH).enumerate() {
        let due = Instant::now();
        let outcome = engine.ingest_all(batch);
        let done = Instant::now();
        tracer.record(
            "core.ingest_all",
            At::batch(tenant.id, b as u64),
            due,
            done,
            batch.len() as u64,
        );
        ack.push(ms(done - due));
        report.attempted += 1;
        match outcome {
            Ok(o) => {
                acked += o.accepted as u64;
                updates += o.updates;
            }
            Err(_) => report.failed += 1,
        }
        sent.push((b as u64, b * BATCH..(b * BATCH + batch.len())));
        if (b + 1) % READ_EVERY == 0 {
            let due = Instant::now();
            let state = engine.snapshot();
            let done = Instant::now();
            tracer.record("core.snapshot", at, due, done, 1);
            read.push(ms(done - due));
            report.attempted += 1;
            if state.is_err() {
                report.failed += 1;
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu = probe::cpu_seconds() - cpu0;

    let fit_start = Instant::now();
    let fitness = engine.fitness();
    tracer.record("core.fitness", at, fit_start, Instant::now(), 1);
    let reference = als(engine.window(), tenant.rank, &als_opts).fitness;
    let finite = engine.kruskal().factors.iter().all(|m| m.is_finite())
        && engine.kruskal().lambda.iter().all(|x| x.is_finite());

    // A serial engine has no journal: coming back means rebuilding the
    // engine from its last captured state.
    let state = engine.snapshot().map_err(|e| format!("capture: {e}"))?;
    let mut restoring = std::time::Duration::ZERO;
    let mut restored_matches = true;
    for _ in 0..RESTORES {
        let copy = state.clone();
        let start = Instant::now();
        let restored = copy.into_engine().map_err(|e| format!("restore: {e}"))?;
        restoring += start.elapsed();
        restored_matches &= restored.fitness().to_bits() == fitness.to_bits()
            && restored.updates_applied() == engine.updates_applied();
    }
    let recover_s = restoring.as_secs_f64() / RESTORES as f64;

    let tuples = tenant.live.len() as u64;
    report.set("setup_s", median(&setups));
    report.set("tuples_per_s", acked as f64 / wall);
    report.set("fitness", fitness);
    report.set("fitness_rel", fitness / reference);
    report.set("recover_s", recover_s);
    report.set("cpu_us_per_tuple", cpu * 1e6 / acked.max(1) as f64);
    report.distribution(ack, ACK_PERCENTILES);
    report.distribution(read, READ_PERCENTILES);
    report.fact("measured_s", format!("{wall:.3}"));
    report.fact("tuples", tuples);
    report.fact("als_reference_fitness", reference);
    report.fact("updates", updates);

    report.check(
        "acked_equals_submitted",
        acked == tuples,
        format!("{acked} of {tuples} tuples acknowledged"),
    );
    report.check(
        "factors_finite",
        finite,
        "every entry of kruskal() factors and weights is finite",
    );
    report.check(
        "restored_equals_live",
        restored_matches,
        "an engine rebuilt from its captured state has the live engine's fitness bits and update count",
    );

    if tracer.enabled() {
        let (deltas, nnz) = layers::window_replay(tenant, &sent, tracer)?;
        report.check(
            "window_replay_matches_engine",
            nnz == engine.window().nnz() as u64,
            format!("bare window nnz {nnz} vs engine window nnz {}", engine.window().nnz()),
        );
        layers::time_capture_and_fitness(engine.as_ref(), tenant.id, tracer);
        layers::set_stream_core(
            &mut report,
            tracer,
            Counts { tuples, deltas, updates, nnz, streams: 1 },
        );
        // No generator schedule, pool, journal or ops layer is crossed.
        for &(name, _) in PER_LAYER {
            if ["gen.", "runtime.", "codec.", "ops."].iter().any(|p| name.starts_with(p)) {
                report.not_applicable(name);
            }
        }
    }
    Ok(report)
}
