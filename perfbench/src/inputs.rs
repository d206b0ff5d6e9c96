//! Input generation: every trace is a pure function of the workload
//! seed and the run length, built before any timer starts. The system
//! under test only ever sees the generated tuples.

use sns_core::als::AlsOptions;
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_data::{generate, nytaxi_like, GeneratorConfig};
use sns_runtime::pool::stream_seed;
use sns_runtime::EngineSpec;
use sns_stream::StreamTuple;

/// Base seed of every engine (pooled streams derive theirs with
/// `stream_seed(BASE_SEED, id)`); the workload seed varies the data.
pub const BASE_SEED: u64 = 0x5eed;

/// One stream's input: its engine, initialization tuples, live tuples.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Stream id.
    pub id: u64,
    /// Engine description.
    pub spec: EngineSpec,
    /// Categorical mode lengths.
    pub dims: Vec<usize>,
    /// Window length `W`.
    pub window: usize,
    /// Period `T`.
    pub period: u64,
    /// CP rank.
    pub rank: usize,
    /// Tuples loaded before the warm start (timestamps `≤ W·T`).
    pub prefill: Vec<StreamTuple>,
    /// Live tuples, chronological.
    pub live: Vec<StreamTuple>,
}

/// Batch ALS settings for the warm start and the accuracy reference
/// (the `fig*` runner's defaults).
pub fn als_options() -> AlsOptions {
    AlsOptions { max_iters: 25, tol: 1e-4, ..Default::default() }
}

/// Splits a generated trace at `W·T` and keeps exactly `live` live
/// tuples, or `None` if the trace is too short.
fn split(
    trace: Vec<StreamTuple>,
    cut: u64,
    live: usize,
) -> Option<(Vec<StreamTuple>, Vec<StreamTuple>)> {
    let at = trace.partition_point(|t| t.time <= cut);
    let mut trace = trace;
    let mut rest = trace.split_off(at);
    if rest.len() < live {
        return None;
    }
    rest.truncate(live);
    Some((trace, rest))
}

/// Generates `(prefill, live)` with `live` live tuples at a fixed event
/// density (events per tick), extending the stream's duration rather
/// than packing more events into the paper's horizon.
fn generate_at_density(
    base: GeneratorConfig,
    density: f64,
    cut: u64,
    live: usize,
) -> (Vec<StreamTuple>, Vec<StreamTuple>) {
    let prefill_estimate = cut as f64 * density;
    let mut margin = 1.15;
    loop {
        let events = ((prefill_estimate + live as f64) * margin).ceil() as usize + 64;
        let cfg = GeneratorConfig {
            events,
            duration: (events as f64 / density).ceil() as u64,
            ..base.clone()
        };
        if let Some(split) = split(generate(&cfg), cut, live) {
            return split;
        }
        margin *= 1.5;
    }
}

/// A Table III NYC-Taxi-like stream (150×150, R=20, W=10, T=3600,
/// θ=20, SNS⁺_RND) at the paper setting's density (60k events over
/// `6·W·T`), with `live` live tuples.
pub fn taxi_tenant(id: u64, data_seed: u64, live: usize) -> Tenant {
    let spec = nytaxi_like();
    let density = spec.default_events as f64 / spec.duration() as f64;
    let cut = spec.window as u64 * spec.period;
    let (prefill, live) =
        generate_at_density(spec.generator(spec.default_events, data_seed), density, cut, live);
    let config =
        SnsConfig { rank: spec.rank, theta: spec.theta, eta: spec.eta, ..Default::default() };
    Tenant {
        id,
        spec: EngineSpec::sns(
            spec.base_dims,
            spec.window,
            spec.period,
            AlgorithmKind::PlusRnd,
            &config,
        ),
        dims: spec.base_dims.to_vec(),
        window: spec.window,
        period: spec.period,
        rank: spec.rank,
        prefill,
        live,
    }
}

/// Small-tenant geometry (the `bench fleet` tenant): 20×16, R=5, W=5,
/// T=100, θ=20, SNS⁺_RND, 4.8 events per tick.
const SMALL_DIMS: [usize; 2] = [20, 16];
const SMALL_W: usize = 5;
const SMALL_T: u64 = 100;
const SMALL_RANK: usize = 5;
const SMALL_DENSITY: f64 = 4.8;

/// A small tenant with `live` live tuples.
pub fn small_tenant(id: u64, data_seed: u64, live: usize) -> Tenant {
    let base = GeneratorConfig {
        base_dims: SMALL_DIMS.to_vec(),
        n_components: 3,
        zipf_exponent: 1.2,
        noise_fraction: 0.1,
        day_ticks: 50,
        seed: data_seed,
        ..Default::default()
    };
    let cut = SMALL_W as u64 * SMALL_T;
    let (prefill, live) = generate_at_density(base, SMALL_DENSITY, cut, live);
    let config = SnsConfig { rank: SMALL_RANK, theta: 20, ..Default::default() };
    Tenant {
        id,
        spec: EngineSpec::sns(&SMALL_DIMS, SMALL_W, SMALL_T, AlgorithmKind::PlusRnd, &config),
        dims: SMALL_DIMS.to_vec(),
        window: SMALL_W,
        period: SMALL_T,
        rank: SMALL_RANK,
        prefill,
        live,
    }
}

/// Data seed of tenant `index` under workload seed `seed`.
pub fn data_seed(seed: u64, index: usize) -> u64 {
    stream_seed(seed, index as u64 + 1)
}

/// SplitMix64 stream for the benchmark's own choices (batch order).
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        stream_seed(0, self.0)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_exactly_sized() {
        let a = small_tenant(3, 11, 500);
        let b = small_tenant(3, 11, 500);
        assert_eq!(a.live.len(), 500);
        assert!(!a.prefill.is_empty());
        assert!(a.prefill.iter().all(|t| t.time <= (SMALL_W as u64) * SMALL_T));
        assert!(a.live.iter().all(|t| t.time > (SMALL_W as u64) * SMALL_T));
        assert_eq!(a.live, b.live);
        assert_ne!(small_tenant(3, 12, 500).live, a.live);
        let taxi = taxi_tenant(0, 5, 200);
        assert_eq!(taxi.live.len(), 200);
        assert!(taxi.prefill.len() > 5_000, "paper density fills the first window");
    }
}
