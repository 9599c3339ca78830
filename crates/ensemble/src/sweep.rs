//! Sweep geometry: parameter ranges, seed grids and replica identity.
//!
//! A sweep is a dense grid of **replicas**: one simulator build and run
//! per (parameter value, seed) pair. The grid is fully determined by a
//! [`SweepConfig`] — same config, same replica list, same per-replica
//! seeds — which is what makes a killed sweep resumable: the manifest
//! records the config's geometry, and a resuming invocation regenerates
//! the identical grid before deciding which replicas still need work.

use crate::EnsembleError;
use liberty_core::prelude::{FailurePolicy, Params, RetryPolicy};
use std::time::Duration;

/// The most replicas a grid may have: as many as a `Vec<ReplicaSpec>`
/// can hold. A larger geometry is refused with an error, never counted
/// with overflowing arithmetic.
pub const MAX_REPLICAS: usize = isize::MAX as usize / std::mem::size_of::<ReplicaSpec>();

/// Deterministic per-replica seed derivation: the splitmix64 output
/// function over `base + (index + 1) * golden-ratio`. Replica seeds are
/// decorrelated even for adjacent indices and stable across invocations.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An inclusive integer range over one algorithmic parameter, parsed
/// from the CLI shape `key=lo..hi` (or `key=v` for a single point).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSweep {
    /// The parameter name passed to the root module's [`Params`].
    pub key: String,
    /// First swept value (inclusive).
    pub lo: i64,
    /// Last swept value (inclusive).
    pub hi: i64,
}

impl ParamSweep {
    /// Parse `key=lo..hi` or `key=v`. Errors describe what was wrong —
    /// they surface verbatim in CLI usage messages.
    pub fn parse(s: &str) -> Result<ParamSweep, String> {
        let (key, range) = s
            .split_once('=')
            .ok_or_else(|| format!("sweep spec `{s}` is not of the form key=lo..hi"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("sweep key `{key}` is not an identifier"));
        }
        let (lo, hi) = match range.split_once("..") {
            Some((lo, hi)) => (lo.trim(), hi.trim()),
            None => (range.trim(), range.trim()),
        };
        let parse = |v: &str| -> Result<i64, String> {
            v.parse()
                .map_err(|_| format!("sweep bound `{v}` is not an integer"))
        };
        let (lo, hi) = (parse(lo)?, parse(hi)?);
        if lo > hi {
            return Err(format!("sweep range {lo}..{hi} is empty (lo > hi)"));
        }
        let sweep = ParamSweep {
            key: key.to_owned(),
            lo,
            hi,
        };
        if sweep.len() > MAX_REPLICAS {
            return Err(format!(
                "sweep range {lo}..{hi} has more points than a replica list can hold \
                 ({MAX_REPLICAS})"
            ));
        }
        Ok(sweep)
    }

    /// The swept values, low to high.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.lo..=self.hi
    }

    /// Number of parameter points, saturating at `usize::MAX` (a parsed
    /// sweep has at most [`MAX_REPLICAS`]).
    pub fn len(&self) -> usize {
        let points = (i128::from(self.hi) - i128::from(self.lo) + 1).max(0);
        usize::try_from(points).unwrap_or(usize::MAX)
    }

    /// Never true — a parsed sweep has at least one point.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The CLI shape back: `key=lo..hi`.
    pub fn render(&self) -> String {
        format!("{}={}..{}", self.key, self.lo, self.hi)
    }
}

/// One cell of the sweep grid: which parameter value, which seed, and a
/// dense index that names the replica's files and manifest records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSpec {
    /// Dense replica id, `0..total`, in (parameter, seed) major order.
    pub index: usize,
    /// The swept parameter binding for this replica, if any.
    pub param: Option<(String, i64)>,
    /// This replica's derived seed (fault plans, stochastic templates).
    pub seed: u64,
}

impl ReplicaSpec {
    /// `key=value` for swept replicas, `-` for seed-only sweeps. Used in
    /// the aggregate CSV and reports.
    pub fn point_label(&self) -> String {
        match &self.param {
            Some((k, v)) => format!("{k}={v}"),
            None => "-".to_owned(),
        }
    }

    /// Stem for this replica's files: stream `r0007.jsonl`, checkpoint
    /// directory `r0007.ckpt/`.
    pub fn file_stem(&self) -> String {
        format!("r{:04}", self.index)
    }

    /// The root-module parameters for this replica: `base` plus the
    /// swept binding.
    pub fn params(&self, base: &Params) -> Params {
        let mut p = base.clone();
        if let Some((k, v)) = &self.param {
            p.set(k.as_str(), *v);
        }
        p
    }
}

/// Everything that determines a sweep. The *geometry* fields (`sweep`,
/// `seeds`, `base_seed`, `cycles`, `fault_rate`) are recorded in the
/// manifest header and must match on resume — they determine what each
/// replica simulates. The remaining fields are *execution* knobs
/// (parallelism, checkpoint cadence, budgets) that may differ between
/// the original and resuming invocations without perturbing results.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// The swept parameter range, if any (`None` = seed-only sweep).
    pub sweep: Option<ParamSweep>,
    /// Replicas per parameter point.
    pub seeds: u64,
    /// Base seed the per-replica seeds derive from ([`derive_seed`]).
    pub base_seed: u64,
    /// Simulated steps each replica runs.
    pub cycles: u64,
    /// Concurrent replicas (including the calling thread's lane).
    pub threads: usize,
    /// Auto-checkpoint cadence per replica in steps (0 = checkpoints
    /// only at clean-cut interruption).
    pub checkpoint_every: u64,
    /// Straggler guard: max steps one replica may execute per
    /// invocation before it is parked as interrupted (resume continues
    /// it).
    pub max_steps: Option<u64>,
    /// Straggler guard: per-replica wall-clock deadline per invocation.
    pub deadline: Option<Duration>,
    /// Escalation ladder for failing replicas (arms rollback).
    pub retry: Option<RetryPolicy>,
    /// Chaos mode: install a seed-deterministic [fault
    /// plan](liberty_core::fault::FaultPlan) of this intensity in every
    /// replica, seeded by the replica seed.
    pub fault_rate: Option<f64>,
    /// What replicas do with handler failures when chaos is on.
    pub fault_policy: FailurePolicy,
    /// Convergence watchdog iterations when chaos is on.
    pub watchdog: u64,
}

impl SweepConfig {
    /// A serial, ungoverned sweep of `cycles` steps per replica.
    pub fn new(cycles: u64) -> SweepConfig {
        SweepConfig {
            sweep: None,
            seeds: 1,
            base_seed: 1,
            cycles,
            threads: 1,
            checkpoint_every: 8,
            max_steps: None,
            deadline: None,
            retry: None,
            fault_rate: None,
            fault_policy: FailurePolicy::Quarantine,
            watchdog: 1_000_000,
        }
    }

    /// Total replicas in the grid, or why the replica list cannot hold
    /// it (more than [`MAX_REPLICAS`]). [`crate::run_sweep`] and
    /// [`crate::resume_sweep`] check this before they build the grid.
    pub fn checked_total(&self) -> Result<usize, EnsembleError> {
        let points = self.sweep.as_ref().map_or(1, |s| s.len());
        usize::try_from(self.seeds.max(1))
            .ok()
            .and_then(|seeds| points.checked_mul(seeds))
            .filter(|&total| total <= MAX_REPLICAS)
            .ok_or_else(|| {
                EnsembleError::Geometry(format!(
                    "{} points x {} seeds is more replicas than a replica list can hold \
                     ({MAX_REPLICAS})",
                    points,
                    self.seeds.max(1)
                ))
            })
    }

    /// Total replicas in the grid, saturating at `usize::MAX` for a grid
    /// [`SweepConfig::checked_total`] refuses.
    pub fn total(&self) -> usize {
        self.checked_total().unwrap_or(usize::MAX)
    }

    /// The full replica grid, parameter-major then seed, with derived
    /// per-replica seeds.
    ///
    /// # Panics
    /// On a grid [`SweepConfig::checked_total`] refuses.
    pub fn replicas(&self) -> Vec<ReplicaSpec> {
        let total = self.checked_total().unwrap_or_else(|e| panic!("{e}"));
        let seeds = self.seeds.max(1);
        let points: Vec<Option<(String, i64)>> = match &self.sweep {
            Some(s) => s.values().map(|v| Some((s.key.clone(), v))).collect(),
            None => vec![None],
        };
        let mut out = Vec::with_capacity(total);
        for param in points {
            for _ in 0..seeds {
                let index = out.len();
                out.push(ReplicaSpec {
                    index,
                    param: param.clone(),
                    seed: derive_seed(self.base_seed, index as u64),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_range_and_single_point() {
        let s = ParamSweep::parse("depth=1..4").unwrap();
        assert_eq!((s.key.as_str(), s.lo, s.hi), ("depth", 1, 4));
        assert_eq!(s.values().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let one = ParamSweep::parse("n=7").unwrap();
        assert_eq!((one.lo, one.hi), (7, 7));
        assert!(ParamSweep::parse("depth").is_err());
        assert!(ParamSweep::parse("depth=4..1").is_err());
        assert!(ParamSweep::parse("de pth=1..2").is_err());
        assert!(ParamSweep::parse("depth=a..b").is_err());
    }

    #[test]
    fn grid_is_param_major_with_stable_seeds() {
        let mut cfg = SweepConfig::new(10);
        cfg.sweep = Some(ParamSweep::parse("depth=2..3").unwrap());
        cfg.seeds = 2;
        let grid = cfg.replicas();
        assert_eq!(grid.len(), 4);
        assert_eq!(cfg.total(), 4);
        assert_eq!(grid[0].param, Some(("depth".to_owned(), 2)));
        assert_eq!(grid[1].param, Some(("depth".to_owned(), 2)));
        assert_eq!(grid[2].param, Some(("depth".to_owned(), 3)));
        assert_eq!(grid[3].point_label(), "depth=3");
        // Seeds are decorrelated and reproducible.
        let again = cfg.replicas();
        assert_eq!(grid, again);
        let seeds: std::collections::BTreeSet<u64> = grid.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4, "derived seeds collide");
    }

    #[test]
    fn oversized_geometry_is_an_error_not_an_overflow() {
        for range in [
            "n=-9223372036854775808..9223372036854775807",
            "n=-1..9223372036854775807",
        ] {
            let err = ParamSweep::parse(range).unwrap_err();
            assert!(err.contains("more points than a replica list"), "{err}");
        }
        let wide = ParamSweep {
            key: "n".into(),
            lo: i64::MIN,
            hi: i64::MAX,
        };
        assert_eq!(wide.len(), usize::MAX);
        let mut cfg = SweepConfig::new(1);
        cfg.sweep = Some(wide);
        assert!(matches!(
            cfg.checked_total(),
            Err(EnsembleError::Geometry(_))
        ));
        assert_eq!(cfg.total(), usize::MAX);

        let mut cfg = SweepConfig::new(1);
        cfg.seeds = u64::MAX;
        assert!(matches!(
            cfg.checked_total(),
            Err(EnsembleError::Geometry(_))
        ));
        cfg.sweep = Some(ParamSweep::parse("n=1..2").unwrap());
        cfg.seeds = u64::MAX / 2 + 1;
        assert!(cfg.checked_total().is_err(), "2 x 2^63 overflows");
        cfg.seeds = 3;
        assert_eq!(cfg.checked_total().unwrap(), 6);
    }

    #[test]
    fn file_stems_are_dense_and_sortable() {
        let cfg = SweepConfig::new(1);
        let grid = cfg.replicas();
        assert_eq!(grid[0].file_stem(), "r0000");
        assert_eq!(grid[0].point_label(), "-");
    }
}
