//! Unified method selector: the five SliceNStitch variants plus the four
//! conventional baselines.

use crate::runner::{ExperimentParams, RunConfig};
use sns_core::config::{AlgorithmKind, SnsConfig};
use sns_runtime::{BaselineKind, EngineSpec, StreamingCpd};

/// A method under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// One of the SliceNStitch per-event updaters.
    Sns(AlgorithmKind),
    /// Periodic warm-started batch ALS with the given sweep count.
    AlsPeriodic(usize),
    /// Windowed OnlineSCP.
    OnlineScp,
    /// Windowed CP-stream.
    CpStream,
    /// Windowed NeCPD(n).
    NeCpd(usize),
}

impl Method {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> String {
        match self {
            Method::Sns(k) => k.name().to_string(),
            Method::AlsPeriodic(n) => format!("ALS({n})"),
            Method::OnlineScp => "OnlineSCP".to_string(),
            Method::CpStream => "CP-stream".to_string(),
            Method::NeCpd(n) => format!("NeCPD({n})"),
        }
    }

    /// True for per-event (continuous) methods.
    pub fn is_continuous(&self) -> bool {
        matches!(self, Method::Sns(_))
    }

    /// The declarative [`EngineSpec`] describing this method over the
    /// experiment's tensor-window geometry — the single construction
    /// path shared with the pooled runtime. The spec carries no seed;
    /// [`Method::build`] supplies one.
    pub fn spec(&self, params: &ExperimentParams) -> EngineSpec {
        match *self {
            Method::Sns(kind) => EngineSpec::sns(
                &params.base_dims,
                params.window,
                params.period,
                kind,
                &SnsConfig {
                    rank: params.rank,
                    theta: params.theta,
                    eta: params.eta,
                    init_scale: 1.0,
                    seed: 0, // not captured by the spec
                },
            ),
            _ => {
                let algo = match *self {
                    Method::AlsPeriodic(sweeps) => BaselineKind::AlsPeriodic { sweeps },
                    Method::OnlineScp => BaselineKind::OnlineScp,
                    Method::CpStream => BaselineKind::CpStream { decay: 0.99, iters: 3 },
                    Method::NeCpd(epochs) => BaselineKind::NeCpd { epochs },
                    Method::Sns(_) => unreachable!("handled by the continuous arm"),
                };
                EngineSpec::baseline(
                    &params.base_dims,
                    params.window,
                    params.period,
                    params.rank,
                    algo,
                )
            }
        }
    }

    /// Builds the engine that runs this method by materializing
    /// [`Method::spec`]: every method becomes a `Box<dyn StreamingCpd>`
    /// and one generic drive loop serves all.
    ///
    /// Seeding: SNS engines draw factors and samples from `cfg.seed` (as
    /// the paper's runner always did). Periodic baselines draw their
    /// initial factors from `cfg.als.seed`, which makes the unified warm
    /// start — batch ALS from the engine's initial factors — bitwise
    /// identical to the protocol's former fresh `als()` call on the
    /// initial window *at the default `cfg.als.init_scale = 1.0`* (the
    /// scale the baseline constructors fix; see the parity suite in
    /// `tests/end_to_end.rs`). Two knowing deviations: a non-unit
    /// `init_scale` changes the baselines' starting factors relative to
    /// the old fresh `als()`, and NeCPD's live SGD sampler is now seeded
    /// by `cfg.als.seed` instead of `cfg.seed` — statistically, not
    /// bitwise, equivalent.
    pub fn build(&self, params: &ExperimentParams, cfg: &RunConfig) -> Box<dyn StreamingCpd> {
        let seed = if self.is_continuous() { cfg.seed } else { cfg.als.seed };
        self.spec(params).build(seed)
    }

    /// The method line-up of Figs. 4–5.
    pub fn fig45_lineup() -> Vec<Method> {
        vec![
            Method::Sns(AlgorithmKind::Mat),
            Method::Sns(AlgorithmKind::Vec),
            Method::Sns(AlgorithmKind::Rnd),
            Method::Sns(AlgorithmKind::PlusVec),
            Method::Sns(AlgorithmKind::PlusRnd),
            Method::OnlineScp,
            Method::CpStream,
            Method::NeCpd(1),
            Method::NeCpd(10),
        ]
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_lineup() {
        assert_eq!(Method::Sns(AlgorithmKind::PlusRnd).name(), "SNS+_RND");
        assert_eq!(Method::NeCpd(10).name(), "NeCPD(10)");
        assert_eq!(Method::AlsPeriodic(3).name(), "ALS(3)");
        let lineup = Method::fig45_lineup();
        assert_eq!(lineup.len(), 9);
        assert!(lineup[0].is_continuous());
        assert!(!Method::OnlineScp.is_continuous());
    }
}
