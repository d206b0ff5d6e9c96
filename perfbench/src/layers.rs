//! Serial replays that attribute time to `sns-stream` and `sns-core`.
//!
//! In a traced run every stream's batches are replayed, in the order the
//! system received them, through (1) a bare `ContinuousWindow` — the
//! `stream.*` layer on its own — and (2) a serial mirror engine built
//! from the same spec and seed — the `core.*` layer, which contains the
//! window. `core.self_us` is the engine's time minus the bare window's
//! time for the same batches. For a pooled workload the mirror doubles
//! as the pooled ≡ serial identity check.

use crate::inputs::{als_options, Tenant, BASE_SEED};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{At, Tracer};
use sns_runtime::pool::stream_seed;
use sns_runtime::{EngineSnapshot, StreamingCpd};
use sns_stream::ContinuousWindow;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// One batch a stream received: its session ticket and its range of
/// the tenant's live tuples.
pub type Sent = (u64, Range<usize>);

/// Work the replays counted, summed over streams.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Live tuples replayed.
    pub tuples: u64,
    /// Window deltas those tuples produced.
    pub deltas: u64,
    /// Factor updates the engines applied.
    pub updates: u64,
    /// Window non-zeros at the end, summed over streams.
    pub nnz: u64,
    /// Streams replayed.
    pub streams: u64,
}

/// Replays `sent` through a bare window, one `stream.ingest` span per
/// batch. Returns `(deltas, final nnz)`.
pub fn window_replay(
    tenant: &Tenant,
    sent: &[Sent],
    tracer: &Tracer,
) -> Result<(u64, u64), String> {
    let mut window = ContinuousWindow::new(&tenant.dims, tenant.window, tenant.period);
    let mut out = Vec::new();
    for &t in &tenant.prefill {
        window.ingest(t, &mut out).map_err(|e| e.to_string())?;
        out.clear();
    }
    let mut deltas = 0u64;
    for (ticket, range) in sent {
        let batch = &tenant.live[range.clone()];
        let start = Instant::now();
        for &t in batch {
            window.ingest(t, &mut out).map_err(|e| e.to_string())?;
            deltas += out.len() as u64;
            out.clear();
        }
        tracer.record(
            "stream.ingest",
            At::batch(tenant.id, *ticket),
            start,
            Instant::now(),
            batch.len() as u64,
        );
    }
    Ok((deltas, window.tensor().nnz() as u64))
}

/// Builds the serial mirror of a pooled stream, replays its setup and
/// `sent` batches (one `core.ingest_all` span each), and returns the
/// engine with the updates it applied. Setup steps are spanned as
/// `core.prefill` and `core.warm_start`.
pub fn mirror(
    tenant: &Tenant,
    sent: &[Sent],
    tracer: &Tracer,
) -> Result<(Box<dyn StreamingCpd>, u64), String> {
    let mut engine = tenant.spec.build(stream_seed(BASE_SEED, tenant.id));
    let at = At::batch(tenant.id, 0);
    tracer
        .time("core.prefill", at, tenant.prefill.len() as u64, || {
            engine.prefill_all(&tenant.prefill)
        })
        .map_err(|e| e.to_string())?;
    tracer.time("core.warm_start", at, 1, || engine.warm_start(&als_options()));
    let mut updates = 0u64;
    for (ticket, range) in sent {
        let batch = &tenant.live[range.clone()];
        let outcome = tracer
            .time("core.ingest_all", At::batch(tenant.id, *ticket), batch.len() as u64, || {
                engine.ingest_all(batch)
            })
            .map_err(|e| e.to_string())?;
        updates += outcome.updates;
    }
    Ok((engine, updates))
}

/// The snapshot a pooled, journaled stream reports after the same
/// history: prefill tuples + 1 (warm start) + live tuples are its WAL
/// sequence.
pub fn mirror_snapshot(
    tenant: &Tenant,
    engine: &dyn StreamingCpd,
    live_tuples: u64,
) -> Result<EngineSnapshot, String> {
    Ok(EngineSnapshot {
        stream_id: tenant.id,
        spec: tenant.spec.clone(),
        seed: stream_seed(BASE_SEED, tenant.id),
        wal_seq: tenant.prefill.len() as u64 + 1 + live_tuples,
        state: engine.snapshot().map_err(|e| e.to_string())?,
    })
}

/// How many `(stream id, bytes)` candidates equal the reference
/// encoding of their stream byte for byte — the one identity check
/// behind recovered ≡ live and pooled ≡ serial.
pub fn count_identical(
    reference: &BTreeMap<u64, Vec<u8>>,
    candidates: impl IntoIterator<Item = (u64, Vec<u8>)>,
) -> usize {
    candidates.into_iter().filter(|(id, bytes)| reference.get(id) == Some(bytes)).count()
}

/// Median time of `StreamingCpd::snapshot()` (the Rollback capture)
/// and of `fitness()` at the engine's current size, spanned as
/// `core.snapshot` and `core.fitness`.
pub fn time_capture_and_fitness(engine: &dyn StreamingCpd, id: u64, tracer: &Tracer) {
    for _ in 0..5 {
        let _ = tracer.time("core.snapshot", At::batch(id, 0), 1, || engine.snapshot());
    }
    let _ = tracer.time("core.fitness", At::batch(id, 0), 1, || engine.fitness());
}

/// Sum of span durations named `name`, in nanoseconds.
pub fn total_ns(tracer: &Tracer, name: &str) -> f64 {
    tracer.named(name).iter().map(|s| s.ns() as f64).sum()
}

/// Durations of spans named `name`, in `unit_ns` units.
pub fn durations(tracer: &Tracer, name: &str, unit_ns: f64) -> Vec<f64> {
    tracer.named(name).iter().map(|s| s.ns() as f64 / unit_ns).collect()
}

/// Fills the `stream.*` and `core.*` metrics from the replay spans.
pub fn set_stream_core(report: &mut Report, tracer: &Tracer, c: Counts) {
    let tuples = c.tuples.max(1) as f64;
    let stream_ns = total_ns(tracer, "stream.ingest");
    let core_ns = total_ns(tracer, "core.ingest_all");
    let self_ns = (core_ns - stream_ns).max(0.0);
    report.set("stream.ingest_ns", stream_ns / tuples);
    report.set("stream.deltas_per_tuple", c.deltas as f64 / tuples);
    report.set("stream.nnz", c.nnz as f64 / c.streams.max(1) as f64);
    report.set("core.ingest_us", core_ns / tuples / 1e3);
    report.set("core.self_us", self_ns / tuples / 1e3);
    report.set("core.update_us", self_ns / c.updates.max(1) as f64 / 1e3);
    report.set("core.updates_per_tuple", c.updates as f64 / tuples);
    report.set("core.prefill_ms", median(&durations(tracer, "core.prefill", 1e6)));
    report.set("core.warm_start_ms", median(&durations(tracer, "core.warm_start", 1e6)));
    report.set("core.snapshot_us", median(&durations(tracer, "core.snapshot", 1e3)));
    report.set("core.fitness_ms", median(&durations(tracer, "core.fitness", 1e6)));
}
