//! # liberty-ensemble — fault-tolerant replica sweeps
//!
//! The paper's pitch (§5) is exploring "as many scenarios as you can
//! imagine" over one composable model. The single-run kernel already
//! survives faults (fault plans + quarantine), crashes (checkpoint /
//! restore) and runaway runs (budgets, cancellation, retry ladders) —
//! this crate composes those mechanisms into a **batch runner** that
//! executes a grid of deterministic replicas (parameter range × seeds)
//! and survives the failure of the *harness itself*:
//!
//! - replicas share one `Arc<Topology>` per parameter point (and with
//!   it the cached `CompiledPlan`) via [`TopoCache`], and run across
//!   [`SweepConfig::threads`] scoped-thread lanes;
//! - each replica is supervised: `catch_unwind` panic isolation, a
//!   per-invocation [`RunBudget`](liberty_core::prelude::RunBudget)
//!   straggler guard, an optional
//!   [`RetryPolicy`](liberty_core::prelude::RetryPolicy) escalation
//!   ladder, and a shared
//!   [`CancelToken`](liberty_core::prelude::CancelToken) for SIGINT
//!   fan-out;
//! - every lifecycle transition is appended to a CRC-checked
//!   [manifest](crate::manifest), so a sweep killed mid-flight —
//!   SIGINT, `kill -9`, budget exhaustion — resumes with completed
//!   replicas skipped and in-flight ones restarted from their last
//!   checkpoint, producing **byte-identical** per-replica canonical
//!   streams and aggregate CSV versus an uninterrupted run.
//!
//! See `docs/ROBUSTNESS.md` §11 for the manifest format and resume
//! semantics, and `EXPERIMENTS.md` E20 for overhead measurements.

#![warn(missing_docs)]

pub mod manifest;
pub mod runner;
pub mod sweep;

pub use manifest::{Manifest, ManifestWriter, Record, SweepHeader, MANIFEST_FILE};
pub use runner::{
    resume_config, resume_sweep, run_sweep, ReplicaFactory, ReplicaOutcome, SweepReport, TopoCache,
};
pub use sweep::{derive_seed, ParamSweep, ReplicaSpec, SweepConfig};

/// Everything that can go wrong running a sweep. Replica-level failures
/// never surface here — they settle into `failed` manifest records; this
/// type is for harness-level problems (unusable manifest, I/O on the
/// sweep directory, geometry mismatches).
#[derive(Debug)]
pub enum EnsembleError {
    /// Filesystem-level failure on the sweep directory.
    Io(std::io::Error),
    /// The manifest is unusable (corrupt mid-file line, version or
    /// geometry mismatch) or the harness itself misbehaved.
    Manifest(String),
    /// The grid is larger than the replica list can hold.
    Geometry(String),
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::Io(e) => write!(f, "sweep i/o error: {e}"),
            EnsembleError::Manifest(m) => write!(f, "sweep manifest error: {m}"),
            EnsembleError::Geometry(m) => write!(f, "sweep geometry error: {m}"),
        }
    }
}

impl std::error::Error for EnsembleError {}

impl From<std::io::Error> for EnsembleError {
    fn from(e: std::io::Error) -> Self {
        EnsembleError::Io(e)
    }
}
