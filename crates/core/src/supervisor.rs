//! Run governance: the run loop, budgets, deadlines, cancellation,
//! checkpoint cadence, retry/rollback and bounded sink backpressure.
//!
//! The paper's position (§1, §5) is that a fixed, analyzable MoC lets
//! the *engine* own execution policy so models stay composable. The
//! fault-injection pass made module failure survivable and the
//! checkpoint pass made runs rewindable; this module governs a run *as a
//! whole*: what it may consume ([`RunBudget`]), when it must stop
//! ([`CancelToken`]), how failure recovery escalates ([`RetryPolicy`])
//! and what every exit path reports ([`RunReport`]).
//!
//! Every run call — `Simulator::{run, run_until, run_governed,
//! run_governed_until}` — executes the one loop here,
//! `Supervisor::run`. It drives the simulator only through
//! `step` / `snapshot` / `restore` and two engine hooks (masking
//! fault-plan entries, the probe), and enforces everything
//! **cooperatively at step boundaries**: the reaction and commit loops
//! never see any of it. A simulator with no governance installed runs
//! on a stack-local default supervisor, so its run calls neither box nor
//! allocate (`docs/ROBUSTNESS.md` §9).
//!
//! The escalation ladder on failure, most specific remedy first:
//!
//! 1. **retry from checkpoint** — restore the last snapshot and replay
//!    at once (the replay is deterministic, so waiting buys nothing);
//! 2. **mask the offending fault/edge** — rollback masks the fault-plan
//!    entries that explain the failure, so the replay does not re-inject
//!    it;
//! 3. **quarantine the instance** — when retries are exhausted (or the
//!    failure is organic and would replay identically) the instance
//!    stays isolated and the run continues around it;
//! 4. **degrade to partial results** — the run reaches its target with a
//!    non-empty quarantine set and reports [`RunOutcome::Degraded`]
//!    instead of failing.

use crate::error::{CheckpointError, SimError};
use crate::exec::Simulator;
use crate::netlist::InstanceId;
use crate::probe::Record;
use crate::snapshot::Snapshot;
use crate::stats::Stats;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------

/// Cooperative resource budget for a governed run. Every axis is
/// optional; an unset axis costs nothing. Enforced at step boundaries
/// only — a budget can never tear a time-step in half.
#[derive(Clone, Debug, Default)]
pub struct RunBudget {
    /// Maximum time-steps this run call may execute (replayed steps
    /// after a rollback count: the budget bounds *work*, not progress).
    pub max_steps: Option<u64>,
    /// Wall-clock deadline, measured from the start of the run call.
    pub deadline: Option<Duration>,
    /// Maximum instances the run may quarantine before stopping.
    pub max_quarantined: Option<u64>,
}

impl RunBudget {
    /// An unlimited budget (every axis unset).
    pub fn new() -> Self {
        RunBudget::default()
    }

    /// Cap the steps executed by one run call.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Set a wall-clock deadline for the run call.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Cap the quarantine set size.
    pub fn max_quarantined(mut self, n: u64) -> Self {
        self.max_quarantined = Some(n);
        self
    }

    /// True when no axis is set (the budget can never trip).
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none() && self.deadline.is_none() && self.max_quarantined.is_none()
    }
}

/// Which [`RunBudget`] axis was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// `max_steps` reached.
    Steps,
    /// The wall-clock `deadline` passed.
    Deadline,
    /// More than `max_quarantined` instances are isolated.
    Quarantine,
}

impl BudgetKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Deadline => "deadline",
            BudgetKind::Quarantine => "quarantine",
        }
    }
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A cheap, cloneable cancellation flag. Trip it from any thread (or a
/// signal handler, via [`CancelToken::from_static`]) and the governed
/// run loop notices at the next step boundary, takes a final checkpoint
/// and returns a [`RunReport`] with [`RunOutcome::Cancelled`].
#[derive(Clone)]
pub struct CancelToken {
    flag: Flag,
}

#[derive(Clone)]
enum Flag {
    Shared(Arc<AtomicBool>),
    /// Backed by caller-owned static storage, so an async-signal handler
    /// can trip the token without touching the allocator.
    Static(&'static AtomicBool),
}

impl CancelToken {
    /// A fresh, un-tripped token.
    pub fn new() -> Self {
        CancelToken {
            flag: Flag::Shared(Arc::new(AtomicBool::new(false))),
        }
    }

    /// Wrap a static flag (e.g. one a SIGINT handler stores to).
    pub fn from_static(flag: &'static AtomicBool) -> Self {
        CancelToken {
            flag: Flag::Static(flag),
        }
    }

    fn cell(&self) -> &AtomicBool {
        match &self.flag {
            Flag::Shared(a) => a,
            Flag::Static(s) => s,
        }
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.cell().store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.cell().load(Ordering::SeqCst)
    }

    /// Clear the flag (e.g. to reuse a static token across runs).
    pub fn reset(&self) {
        self.cell().store(false, Ordering::SeqCst);
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// What triggered a retry-from-checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RetryCause {
    /// A step quarantined at least one fresh instance.
    Quarantine,
    /// A step died with [`SimError::Divergence`].
    Divergence,
}

impl RetryCause {
    /// Stable label (the key of [`RunReport::retries`]).
    pub fn label(self) -> &'static str {
        match self {
            RetryCause::Quarantine => "quarantine",
            RetryCause::Divergence => "divergence",
        }
    }
}

/// How failure recovery escalates: a bounded number of retries from the
/// last checkpoint and a per-cause cap. Installing one with
/// [`crate::exec::Simulator::set_retry_policy`] is what arms rollback;
/// without a policy a quarantine stands and a divergence surfaces.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total retries across the whole run call; exhausting this budget
    /// escalates the next failure down the ladder (quarantine stands /
    /// error surfaces).
    pub max_retries: u64,
    /// Retries per individual cause (one instance, one edge), over the
    /// simulator's lifetime. The default 1 is retry-once: a second
    /// failure of the same instance is organic — it replays identically,
    /// so retrying again would loop forever.
    pub per_cause: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            per_cause: 1,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_retries` total attempts and the defaults
    /// elsewhere.
    pub fn with_max_retries(n: u64) -> Self {
        RetryPolicy {
            max_retries: n,
            ..RetryPolicy::default()
        }
    }
}

// ---------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------

/// How a governed run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum RunOutcome {
    /// Reached the requested step target with an empty quarantine set.
    Completed,
    /// Reached the requested step target, but only by isolating at least
    /// one instance — the results are partial (ladder step 4).
    Degraded,
    /// A [`CancelToken`] was tripped; the run checkpointed and exited at
    /// a step boundary.
    Cancelled,
    /// A [`RunBudget`] axis was exhausted.
    BudgetExhausted(BudgetKind),
    /// An unrecoverable error; [`RunReport::error`] carries it.
    Failed,
}

impl RunOutcome {
    /// Short label for reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Degraded => "degraded",
            RunOutcome::Cancelled => "cancelled",
            RunOutcome::BudgetExhausted(_) => "budget-exhausted",
            RunOutcome::Failed => "failed",
        }
    }
}

/// Structured account of one governed run call, returned from **every**
/// exit path — completion, degradation, cancellation, budget exhaustion
/// and failure alike (`docs/ROBUSTNESS.md` §9).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Steps the caller asked for.
    pub steps_requested: u64,
    /// Net simulated progress: `now` at exit minus `now` at entry
    /// (rollbacks rewind this).
    pub steps_completed: u64,
    /// Steps actually executed, including replays after rollbacks.
    pub steps_executed: u64,
    /// Host time the run call took.
    pub elapsed: Duration,
    /// Retries performed, keyed by [`RetryCause::label`].
    pub retries: BTreeMap<&'static str, u64>,
    /// Rollbacks performed during this run call (the simulator's
    /// lifetime count is `Simulator::rollbacks`).
    pub rollbacks: u64,
    /// Names of the instances quarantined at exit, in id order.
    pub quarantined: Vec<String>,
    /// Path of the last checkpoint written to disk (when a checkpoint
    /// directory is configured); the in-memory snapshot is always
    /// available through `Simulator::last_checkpoint`.
    pub last_checkpoint: Option<PathBuf>,
    /// The terminal error for [`RunOutcome::Failed`].
    pub error: Option<SimError>,
}

impl RunReport {
    /// True when the run stopped before its step target (cancelled,
    /// budget-exhausted or failed) — callers should treat statistics as
    /// partial.
    pub fn stopped_early(&self) -> bool {
        !matches!(self.outcome, RunOutcome::Completed | RunOutcome::Degraded)
    }

    /// Multi-line human-readable rendering (what the example binaries
    /// print on abnormal exits).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "run {}: {}/{} steps ({} executed) in {:.3?}\n",
            self.outcome.label(),
            self.steps_completed,
            self.steps_requested,
            self.steps_executed,
            self.elapsed,
        ));
        if let RunOutcome::BudgetExhausted(kind) = &self.outcome {
            s.push_str(&format!("  budget axis exhausted: {}\n", kind.label()));
        }
        if !self.retries.is_empty() {
            let parts: Vec<String> = self
                .retries
                .iter()
                .map(|(k, v)| format!("{k}: {v}"))
                .collect();
            s.push_str(&format!(
                "  retries: {} (rollbacks: {})\n",
                parts.join(", "),
                self.rollbacks
            ));
        }
        if !self.quarantined.is_empty() {
            s.push_str(&format!("  quarantined: {}\n", self.quarantined.join(", ")));
        }
        if let Some(p) = &self.last_checkpoint {
            s.push_str(&format!("  last checkpoint: {}\n", p.display()));
        }
        if let Some(e) = &self.error {
            s.push_str(&format!("  error: {e}\n"));
        }
        s
    }

    /// Machine-readable JSON rendering (one object, no trailing newline)
    /// for `--report-json` and the ensemble aggregator. Hand-rolled like
    /// the JSONL probe stream: keys appear in a fixed order so reports
    /// diff cleanly in CI.
    pub fn to_json(&self) -> String {
        use crate::probe::json_escape;
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"outcome\":\"{}\"",
            json_escape(self.outcome.label())
        ));
        if let RunOutcome::BudgetExhausted(kind) = &self.outcome {
            s.push_str(&format!(",\"budget_axis\":\"{}\"", kind.label()));
        }
        s.push_str(&format!(
            ",\"steps_requested\":{},\"steps_completed\":{},\"steps_executed\":{}",
            self.steps_requested, self.steps_completed, self.steps_executed
        ));
        s.push_str(&format!(",\"elapsed_ns\":{}", self.elapsed.as_nanos()));
        s.push_str(",\"retries\":{");
        for (i, (k, v)) in self.retries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{v}", json_escape(k)));
        }
        s.push_str(&format!("}},\"rollbacks\":{}", self.rollbacks));
        s.push_str(",\"quarantined\":[");
        for (i, q) in self.quarantined.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\"", json_escape(q)));
        }
        s.push(']');
        match &self.last_checkpoint {
            Some(p) => s.push_str(&format!(
                ",\"last_checkpoint\":\"{}\"",
                json_escape(&p.display().to_string())
            )),
            None => s.push_str(",\"last_checkpoint\":null"),
        }
        match &self.error {
            Some(e) => s.push_str(&format!(",\"error\":\"{}\"", json_escape(&e.to_string()))),
            None => s.push_str(",\"error\":null"),
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------
// The supervisor: governance state and the run loop
// ---------------------------------------------------------------------

/// Per-simulator run governance, boxed behind one `Option` on the
/// simulator and created by the first governance setter: the budget,
/// the cancellation token, the retry policy, the checkpoint cadence and
/// directory, the rollback target and its bookkeeping, and the last run
/// report.
#[derive(Default)]
pub(crate) struct Supervisor {
    budget: RunBudget,
    cancel: Option<CancelToken>,
    /// Arms roll-back-and-retry; `None` leaves a quarantine standing and
    /// a divergence surfacing.
    retry: Option<RetryPolicy>,
    /// Auto-checkpoint period in steps (0 = explicit checkpoints only).
    every: u64,
    /// When set, every checkpoint is also written (atomically) to
    /// `<dir>/step-<now>.ckpt`.
    dir: Option<PathBuf>,
    /// The most recent checkpoint — the roll-back-and-retry target.
    last: Option<Arc<Snapshot>>,
    /// One entry per retry attempted, naming its instance (quarantine)
    /// or edge (divergence), for [`RetryPolicy::per_cause`].
    attempted: Vec<(RetryCause, u32)>,
    /// Rollbacks performed over the simulator's lifetime.
    rollbacks: u64,
    /// The report of the most recent run call.
    last_report: Option<RunReport>,
}

/// `<dir>/step-<now>.ckpt`, the on-disk name of the checkpoint at `now`.
fn checkpoint_path(dir: &Path, now: u64) -> PathBuf {
    dir.join(format!("step-{now:08}.ckpt"))
}

impl Supervisor {
    /// The run loop: up to `max_cycles` steps of `sim`, stopping early
    /// when `pred` holds after a step. Each step boundary checks
    /// cancellation and the budget, a step that quarantines or diverges
    /// may be retried from the last checkpoint, and checkpoints are taken
    /// at the configured cadence. Returns the report of the call.
    fn run(
        &mut self,
        sim: &mut Simulator,
        max_cycles: u64,
        mut pred: impl FnMut(&Stats) -> bool,
    ) -> RunReport {
        let started = Instant::now();
        let start_now = sim.now();
        let start_rollbacks = self.rollbacks;
        let target = start_now.saturating_add(max_cycles);
        // Counted here rather than via `metrics.steps`: a rollback
        // restores the metrics from the snapshot, but replayed steps are
        // real work and count against the step budget.
        let mut executed: u64 = 0;
        let mut retries = BTreeMap::new();
        let mut outcome = RunOutcome::Completed;
        let mut error: Option<SimError> = None;
        // A rollback needs a target even before the first periodic
        // checkpoint: seed one at the starting boundary.
        if self.retry.is_some() && self.last.is_none() {
            match sim.snapshot() {
                Ok(s) => self.last = Some(Arc::new(s)),
                Err(e) => error = Some(e),
            }
        }
        while error.is_none() && sim.now() < target {
            if let Some(stop) = self.stop(sim, started, executed) {
                outcome = stop;
                break;
            }
            let q_before = sim.metrics().quarantines;
            match sim.step() {
                Ok(()) => executed += 1,
                Err(e) => {
                    match self.retry(sim, RetryCause::Divergence, Some(&e), &mut retries) {
                        Ok(true) => continue,
                        Ok(false) => error = Some(e),
                        Err(e2) => error = Some(e2),
                    }
                    break;
                }
            }
            if sim.metrics().quarantines > q_before {
                match self.retry(sim, RetryCause::Quarantine, None, &mut retries) {
                    Ok(true) => continue,
                    Ok(false) => {} // the quarantine stands (ladder step 3)
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            if let Err(e) = self.auto_checkpoint(sim) {
                error = Some(e);
                break;
            }
            if pred(sim.stats()) {
                break;
            }
        }
        if error.is_some() {
            outcome = RunOutcome::Failed;
        } else if outcome == RunOutcome::Completed && !sim.quarantined_instances().is_empty() {
            // Reached the target, but only by isolating instances: the
            // results are partial (ladder step 4).
            outcome = RunOutcome::Degraded;
        }
        // A budget stop on a checkpointing simulator preserves progress
        // too (cancellation already checkpointed in `stop`).
        if matches!(outcome, RunOutcome::BudgetExhausted(_))
            && (self.every > 0 || self.dir.is_some() || self.last.is_some())
        {
            let _ = self.checkpoint(sim);
        }
        let last_checkpoint = self.dir.as_deref().and_then(|dir| {
            let path = checkpoint_path(dir, self.last.as_ref()?.now());
            path.exists().then_some(path)
        });
        RunReport {
            outcome,
            steps_requested: max_cycles,
            steps_completed: sim.now().saturating_sub(start_now),
            steps_executed: executed,
            elapsed: started.elapsed(),
            retries,
            rollbacks: self.rollbacks - start_rollbacks,
            quarantined: sim
                .quarantined_instances()
                .into_iter()
                .map(|i| sim.topology().name(i).to_string())
                .collect(),
            last_checkpoint,
            error,
        }
    }

    /// The step-boundary check: cancellation first (it also takes the
    /// final checkpoint), then each budget axis in a fixed order.
    /// Returns the outcome to stop with, if any.
    fn stop(&mut self, sim: &mut Simulator, started: Instant, executed: u64) -> Option<RunOutcome> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            sim.log_now(Record::Cancel);
            // Preserve the work done so far: the in-memory snapshot is
            // always taken; it also lands on disk when a checkpoint
            // directory is configured. A snapshot failure must not mask
            // the cancellation.
            let _ = self.checkpoint(sim);
            return Some(RunOutcome::Cancelled);
        }
        let b = &self.budget;
        let kind = if b.max_steps.is_some_and(|max| executed >= max) {
            BudgetKind::Steps
        } else if b.deadline.is_some_and(|d| started.elapsed() >= d) {
            BudgetKind::Deadline
        } else if b
            .max_quarantined
            .is_some_and(|max| sim.metrics().quarantines > max)
        {
            BudgetKind::Quarantine
        } else {
            return None;
        };
        Some(RunOutcome::BudgetExhausted(kind))
    }

    fn auto_checkpoint(&mut self, sim: &mut Simulator) -> Result<(), SimError> {
        if self.every == 0 || !sim.now().is_multiple_of(self.every) {
            return Ok(());
        }
        self.checkpoint(sim)
    }

    /// Take a checkpoint now: keep it in memory as the rollback target,
    /// write it to the checkpoint directory when one is set, and deliver
    /// a `checkpoint` record to the probe.
    fn checkpoint(&mut self, sim: &mut Simulator) -> Result<(), SimError> {
        let snap = Arc::new(sim.snapshot()?);
        let now = sim.now();
        self.last = Some(Arc::clone(&snap));
        if let Some(dir) = &self.dir {
            let io_error = |msg: String| {
                SimError::checkpoint(CheckpointError::Io {
                    path: dir.clone(),
                    msg,
                })
            };
            // Group commit: everything the probe saw before this boundary
            // reaches its writer before the checkpoint that covers it
            // exists on disk, so a resume never finds a checkpoint ahead
            // of the stream it would have to refill.
            if let Some(p) = sim.probe_mut() {
                p.sync()
                    .map_err(|e| io_error(format!("probe sink behind the checkpoint: {e}")))?;
            }
            std::fs::create_dir_all(dir).map_err(|e| io_error(e.to_string()))?;
            snap.write_file(&checkpoint_path(dir, now))?;
        }
        sim.log_now(Record::Checkpoint);
        Ok(())
    }

    /// Roll back and retry a failed step, if the policy allows: rewind
    /// to the last checkpoint with the failure's fault-plan entries
    /// masked. The failure's sites are the instances the step newly
    /// quarantined, or the oscillating edges of a divergence (`err`);
    /// each site is retried at most [`RetryPolicy::per_cause`] times. An
    /// organic divergence — nothing in the plan to mask — replays
    /// identically and so is not retried; an organic quarantine is,
    /// once per cap, and then stands. Returns whether it rolled back.
    fn retry(
        &mut self,
        sim: &mut Simulator,
        cause: RetryCause,
        err: Option<&SimError>,
        retries: &mut BTreeMap<&'static str, u64>,
    ) -> Result<bool, SimError> {
        let (Some(policy), Some(snap)) = (&self.retry, self.last.clone()) else {
            return Ok(false);
        };
        if retries.values().sum::<u64>() >= policy.max_retries {
            return Ok(false);
        }
        let cap = policy.per_cause.max(1) as usize;
        let sites: Vec<u32> = match (cause, err.and_then(SimError::as_divergence)) {
            (RetryCause::Quarantine, _) => sim
                .quarantined_instances()
                .into_iter()
                .map(|i| i.0)
                .filter(|i| !snap.quarantined.contains(i))
                .collect(),
            (RetryCause::Divergence, Some(info)) => {
                info.oscillating.iter().map(|w| w.edge).collect()
            }
            (RetryCause::Divergence, None) => return Ok(false),
        };
        let fresh: Vec<u32> = sites
            .into_iter()
            .filter(|&id| self.attempted.iter().filter(|&&a| a == (cause, id)).count() < cap)
            .collect();
        if fresh.is_empty() {
            return Ok(false);
        }
        let masked = sim.mask_faults(cause, &fresh);
        self.attempted.extend(fresh.iter().map(|&id| (cause, id)));
        if cause == RetryCause::Divergence && masked == 0 {
            return Ok(false);
        }
        self.rollbacks += 1;
        let reason = match cause {
            RetryCause::Quarantine => {
                let names: Vec<&str> = fresh
                    .iter()
                    .map(|&i| sim.topology().name(InstanceId(i)))
                    .collect();
                format!("quarantine of {}", names.join(", "))
            }
            RetryCause::Divergence => {
                let edges: Vec<String> = fresh.iter().map(u32::to_string).collect();
                let s = if fresh.len() == 1 { "" } else { "s" };
                format!("divergence on edge{s} {}", edges.join(", "))
            }
        };
        sim.log_now(Record::Rollback {
            to: snap.now(),
            reason,
        });
        sim.restore(&snap)?;
        *retries.entry(cause.label()).or_insert(0) += 1;
        Ok(true)
    }
}

/// The governance half of the simulator's API. `Simulator::run` and
/// `Simulator::run_until` (in `exec.rs`) and the run calls here all
/// execute `Supervisor::run`.
impl Simulator {
    /// Run `cycles` steps and return the structured [`RunReport`] — from
    /// **every** exit path: completion, budget exhaustion, cancellation,
    /// degradation and failure alike. The report is also kept as
    /// [`Simulator::last_run_report`].
    pub fn run_governed(&mut self, cycles: u64) -> RunReport {
        self.run_governed_until(cycles, |_| false)
    }

    /// [`Simulator::run_governed`] with an early-exit predicate, checked
    /// after each completed step. Reaching the predicate counts as
    /// completion.
    pub fn run_governed_until(
        &mut self,
        max_cycles: u64,
        pred: impl FnMut(&Stats) -> bool,
    ) -> RunReport {
        self.sup_mut(); // a governed call always keeps its report
        self.supervised(max_cycles, pred)
    }

    /// One run call on the supervisor's loop. With no governance
    /// installed the supervisor is a default one on the stack, and no
    /// report is kept.
    pub(crate) fn supervised(
        &mut self,
        max_cycles: u64,
        pred: impl FnMut(&Stats) -> bool,
    ) -> RunReport {
        let Some(mut sup) = self.sup.take() else {
            return Supervisor::default().run(self, max_cycles, pred);
        };
        let report = sup.run(self, max_cycles, pred);
        sup.last_report = Some(report.clone());
        self.sup = Some(sup);
        report
    }

    /// Take a checkpoint now, at a step boundary: kept in memory as the
    /// rollback target, written to the checkpoint directory when one is
    /// set, and reported to the probe as a `checkpoint` record.
    pub fn checkpoint_now(&mut self) -> Result<(), SimError> {
        let mut sup = self.sup.take().unwrap_or_default();
        let r = sup.checkpoint(self);
        self.sup = Some(sup);
        r
    }

    fn sup_mut(&mut self) -> &mut Supervisor {
        self.sup.get_or_insert_with(Box::default)
    }

    /// Install a cooperative [`RunBudget`], enforced at step boundaries.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.sup_mut().budget = budget;
    }

    /// Install a [`CancelToken`]. When tripped (from another thread or a
    /// signal handler), the run exits at the next step boundary with a
    /// final checkpoint and [`RunOutcome::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.sup_mut().cancel = Some(token);
    }

    /// Install a [`RetryPolicy`], which arms roll-back-and-retry: a step
    /// that quarantines an instance or dies with
    /// [`SimError::Divergence`] rewinds to the last checkpoint with the
    /// offending fault-plan entries masked, within the policy's caps.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.sup_mut().retry = Some(policy);
    }

    /// Take a checkpoint automatically every `every` steps of a run call
    /// (0 disables), at step boundaries only.
    pub fn set_auto_checkpoint(&mut self, every: u64) {
        self.sup_mut().every = every;
    }

    /// Also persist every checkpoint to `<dir>/step-<now>.ckpt` (written
    /// atomically: temp file + rename).
    pub fn set_checkpoint_dir(&mut self, dir: impl Into<PathBuf>) {
        self.sup_mut().dir = Some(dir.into());
    }

    /// The report of the most recent run call on a governed simulator.
    pub fn last_run_report(&self) -> Option<&RunReport> {
        self.sup.as_ref()?.last_report.as_ref()
    }

    /// The most recent checkpoint taken by a run call or
    /// [`Simulator::checkpoint_now`].
    pub fn last_checkpoint(&self) -> Option<Arc<Snapshot>> {
        self.sup.as_ref()?.last.clone()
    }

    /// How many times the recovery path rolled the run back, over the
    /// simulator's lifetime.
    pub fn rollbacks(&self) -> u64 {
        self.sup.as_ref().map_or(0, |s| s.rollbacks)
    }
}

// ---------------------------------------------------------------------
// Sink backpressure
// ---------------------------------------------------------------------

/// What a bounded sink does when its buffer is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkPolicy {
    /// Propagate the stall: flush the buffer through to the underlying
    /// writer before accepting more, so a slow sink slows the producer
    /// but memory stays bounded.
    Block,
    /// Shed load: evict the oldest buffered records (whole lines, so the
    /// stream stays well-formed) and count them — never stall, never
    /// grow.
    DropOldest,
}

#[derive(Default)]
struct SinkCounters {
    dropped_records: AtomicU64,
    dropped_bytes: AtomicU64,
    blocking_flushes: AtomicU64,
}

/// Shared read handle for a [`BackpressureWriter`]'s shed/stall
/// counters; clone it out before moving the writer into a probe.
#[derive(Clone, Default)]
pub struct SinkStats {
    counters: Arc<SinkCounters>,
}

impl SinkStats {
    /// Whole records evicted under [`SinkPolicy::DropOldest`].
    pub fn dropped_records(&self) -> u64 {
        self.counters.dropped_records.load(Ordering::Relaxed)
    }

    /// Bytes evicted under [`SinkPolicy::DropOldest`].
    pub fn dropped_bytes(&self) -> u64 {
        self.counters.dropped_bytes.load(Ordering::Relaxed)
    }

    /// Synchronous buffer flushes forced by [`SinkPolicy::Block`].
    pub fn blocking_flushes(&self) -> u64 {
        self.counters.blocking_flushes.load(Ordering::Relaxed)
    }
}

/// Bounded buffering for line-oriented probe sinks (JSONL, VCD): buffers
/// whole records up to a byte capacity and applies a [`SinkPolicy`] on
/// overflow, so a slow or stalled sink can slow the run (`Block`) or
/// shed history (`DropOldest`) but can never silently wedge it or grow
/// without bound.
///
/// Records are delimited by `\n` — both sinks emit one record per line —
/// so `DropOldest` always evicts complete lines and the surviving stream
/// stays parseable.
pub struct BackpressureWriter<W: Write> {
    inner: W,
    /// Complete buffered records, oldest first.
    records: VecDeque<Vec<u8>>,
    /// Bytes across `records`.
    buffered: usize,
    /// The record currently being accumulated (no `\n` yet).
    partial: Vec<u8>,
    cap: usize,
    policy: SinkPolicy,
    stats: SinkStats,
}

impl<W: Write> BackpressureWriter<W> {
    /// Wrap `inner` with a buffer of `cap` bytes and the given policy.
    /// A `cap` of 0 is promoted to 1 so a single record always fits
    /// logically (oversized records are handled per policy).
    pub fn new(inner: W, cap: usize, policy: SinkPolicy) -> Self {
        BackpressureWriter {
            inner,
            records: VecDeque::new(),
            buffered: 0,
            partial: Vec::new(),
            cap: cap.max(1),
            policy,
            stats: SinkStats::default(),
        }
    }

    /// Handle for the shed/stall counters.
    pub fn stats(&self) -> SinkStats {
        self.stats.clone()
    }

    /// Bytes currently buffered (complete records only).
    pub fn buffered_bytes(&self) -> usize {
        self.buffered
    }

    fn drain_to_inner(&mut self) -> std::io::Result<()> {
        while let Some(rec) = self.records.pop_front() {
            self.buffered -= rec.len();
            self.inner.write_all(&rec)?;
        }
        Ok(())
    }

    fn push_record(&mut self, rec: Vec<u8>) -> std::io::Result<()> {
        if self.buffered + rec.len() > self.cap {
            match self.policy {
                SinkPolicy::Block => {
                    self.stats
                        .counters
                        .blocking_flushes
                        .fetch_add(1, Ordering::Relaxed);
                    self.drain_to_inner()?;
                    // An oversized record writes straight through.
                    if rec.len() > self.cap {
                        return self.inner.write_all(&rec);
                    }
                }
                SinkPolicy::DropOldest => {
                    while self.buffered + rec.len() > self.cap {
                        let Some(old) = self.records.pop_front() else {
                            // The new record alone exceeds the cap: shed it.
                            self.stats
                                .counters
                                .dropped_records
                                .fetch_add(1, Ordering::Relaxed);
                            self.stats
                                .counters
                                .dropped_bytes
                                .fetch_add(rec.len() as u64, Ordering::Relaxed);
                            return Ok(());
                        };
                        self.buffered -= old.len();
                        self.stats
                            .counters
                            .dropped_records
                            .fetch_add(1, Ordering::Relaxed);
                        self.stats
                            .counters
                            .dropped_bytes
                            .fetch_add(old.len() as u64, Ordering::Relaxed);
                    }
                }
            }
        }
        self.buffered += rec.len();
        self.records.push_back(rec);
        Ok(())
    }
}

impl<W: Write> Write for BackpressureWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (line, tail) = rest.split_at(nl + 1);
            let mut rec = std::mem::take(&mut self.partial);
            rec.extend_from_slice(line);
            self.push_record(rec)?;
            rest = tail;
        }
        self.partial.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.drain_to_inner()?;
        if !self.partial.is_empty() {
            let partial = std::mem::take(&mut self.partial);
            self.inner.write_all(&partial)?;
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builder_and_unlimited() {
        let b = RunBudget::new();
        assert!(b.is_unlimited());
        let b = RunBudget::new()
            .max_steps(10)
            .deadline(Duration::from_secs(1))
            .max_quarantined(2);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_steps, Some(10));
        assert_eq!(b.max_quarantined, Some(2));
    }

    #[test]
    fn cancel_token_trips_clones_and_resets() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_cancelled());
        t2.cancel();
        assert!(t.is_cancelled(), "clones share the flag");
        t.reset();
        assert!(!t2.is_cancelled());

        static FLAG: AtomicBool = AtomicBool::new(false);
        let s = CancelToken::from_static(&FLAG);
        FLAG.store(true, Ordering::SeqCst);
        assert!(s.is_cancelled());
        s.reset();
    }

    #[test]
    fn block_policy_flushes_through_and_loses_nothing() {
        let mut w = BackpressureWriter::new(Vec::new(), 16, SinkPolicy::Block);
        let stats = w.stats();
        for i in 0..10 {
            writeln!(w, "line {i}").unwrap();
        }
        w.flush().unwrap();
        let text = String::from_utf8(w.inner.clone()).unwrap();
        assert_eq!(text.lines().count(), 10);
        assert_eq!(stats.dropped_records(), 0);
        assert!(stats.blocking_flushes() > 0, "cap forced flushes");
    }

    #[test]
    fn drop_oldest_evicts_whole_records_and_counts() {
        let mut w = BackpressureWriter::new(Vec::new(), 24, SinkPolicy::DropOldest);
        let stats = w.stats();
        for i in 0..10 {
            writeln!(w, "line {i}").unwrap(); // 7 bytes each
        }
        w.flush().unwrap();
        let text = String::from_utf8(w.inner.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() < 10, "older lines shed: {lines:?}");
        assert_eq!(*lines.last().unwrap(), "line 9", "newest survives");
        assert!(lines.iter().all(|l| l.starts_with("line ")), "{lines:?}");
        assert_eq!(stats.dropped_records() as usize, 10 - lines.len());
        assert!(stats.dropped_bytes() > 0);
    }

    #[test]
    fn oversized_record_handling_per_policy() {
        // Block: writes straight through.
        let mut w = BackpressureWriter::new(Vec::new(), 4, SinkPolicy::Block);
        writeln!(w, "a very long record").unwrap();
        w.flush().unwrap();
        assert!(String::from_utf8(w.inner.clone()).unwrap().contains("long"));
        // DropOldest: shed, counted.
        let mut w = BackpressureWriter::new(Vec::new(), 4, SinkPolicy::DropOldest);
        let stats = w.stats();
        writeln!(w, "a very long record").unwrap();
        w.flush().unwrap();
        assert!(w.inner.is_empty());
        assert_eq!(stats.dropped_records(), 1);
    }

    #[test]
    fn split_writes_reassemble_records() {
        let mut w = BackpressureWriter::new(Vec::new(), 1024, SinkPolicy::DropOldest);
        w.write_all(b"hel").unwrap();
        w.write_all(b"lo\nwor").unwrap();
        w.write_all(b"ld\n").unwrap();
        w.flush().unwrap();
        assert_eq!(
            String::from_utf8(w.inner.clone()).unwrap(),
            "hello\nworld\n"
        );
    }
}
