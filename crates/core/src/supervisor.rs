//! Run governance: budgets, deadlines, cancellation, retry/backoff and
//! bounded sink backpressure.
//!
//! The paper's position (§1, §5) is that a fixed, analyzable MoC lets
//! the *engine* own execution policy so models stay composable. The
//! fault-injection pass made module failure survivable and the
//! checkpoint pass made runs rewindable; this module governs a run *as a
//! whole*: what it may consume ([`RunBudget`]), when it must stop
//! ([`CancelToken`]), how failure recovery escalates ([`RetryPolicy`])
//! and what every exit path reports ([`RunReport`]).
//!
//! Everything here is enforced **cooperatively at step boundaries** by
//! [`crate::exec::Simulator::run_governed`]. A simulator with no
//! governance installed carries a single `None` and `run` checks it once
//! per call — the monomorphized reaction/commit hot loops never see any
//! of this, exactly like the checkpoint machinery (see
//! `docs/ROBUSTNESS.md` §9).
//!
//! The escalation ladder on failure, most specific remedy first:
//!
//! 1. **retry from checkpoint** — restore the last snapshot and replay,
//!    with exponential backoff between attempts;
//! 2. **mask the offending fault/edge** — rollback masks the fault-plan
//!    entries that explain the failure, so the replay does not re-inject
//!    it;
//! 3. **quarantine the instance** — when retries are exhausted (or the
//!    failure is organic and would replay identically) the instance
//!    stays isolated and the run continues around it;
//! 4. **degrade to partial results** — the run reaches its target with a
//!    non-empty quarantine set and reports [`RunOutcome::Degraded`]
//!    instead of failing.

use crate::error::SimError;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------

/// A user-supplied memory gauge: returns the bytes currently in use.
/// Typically wired to a counting global allocator (the pattern in
/// `crates/bench/tests/alloc.rs`); the supervisor polls it once per step
/// boundary and records the peak.
pub type MemoryGauge = Arc<dyn Fn() -> u64 + Send + Sync>;

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
    /// Memory ceiling in bytes, polled through the installed
    /// [`MemoryGauge`] (no gauge ⇒ the axis is never checked).
    pub max_memory_bytes: Option<u64>,
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

    /// Set the memory ceiling (requires a gauge, see
    /// [`crate::exec::Simulator::set_memory_gauge`]).
    pub fn max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Cap the quarantine set size.
    pub fn max_quarantined(mut self, n: u64) -> Self {
        self.max_quarantined = Some(n);
        self
    }

    /// True when no axis is set (the budget can never trip).
    pub fn is_unlimited(&self) -> bool {
        self.max_steps.is_none()
            && self.deadline.is_none()
            && self.max_memory_bytes.is_none()
            && self.max_quarantined.is_none()
    }
}

/// Which [`RunBudget`] axis was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// `max_steps` reached.
    Steps,
    /// The wall-clock `deadline` passed.
    Deadline,
    /// The memory gauge read past `max_memory_bytes`.
    Memory,
    /// More than `max_quarantined` instances are isolated.
    Quarantine,
}

impl BudgetKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Deadline => "deadline",
            BudgetKind::Memory => "memory",
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

/// How failure recovery escalates, generalizing the checkpoint pass's
/// hardcoded rollback-retry-once: a bounded number of retries, a
/// per-cause cap, and exponential backoff with seeded jitter between
/// attempts. Install with [`crate::exec::Simulator::set_retry_policy`]
/// (which also requires rollback to be armed — retries restore the last
/// checkpoint).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total retries across the whole run call; exhausting this budget
    /// escalates the next failure down the ladder (quarantine stands /
    /// error surfaces).
    pub max_retries: u64,
    /// Retries per individual cause (one instance, one edge). The
    /// default 1 reproduces the original retry-once behaviour: a second
    /// failure of the same instance is organic — it replays identically,
    /// so retrying again would loop forever.
    pub per_cause: u32,
    /// Base of the exponential backoff between retries: attempt *k*
    /// sleeps `base * 2^(k-1)` (capped at `max_backoff`), plus jitter.
    /// The default `0` disables sleeping entirely, which keeps
    /// single-threaded deterministic tests fast — backoff only delays
    /// the host, never the simulated clock.
    pub base_backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter term (deterministic: same seed, same delays).
    /// Jitter is drawn uniformly from `[0, backoff/2]`.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            per_cause: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
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

    /// The host-side delay before retry number `attempt` (1-based):
    /// exponential in the attempt, capped, with seeded jitter.
    pub fn backoff_for(&self, attempt: u64) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(16) as u32;
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << shift)
            .min(self.max_backoff);
        // Deterministic jitter in [0, exp/2]: splitmix over (seed, attempt).
        let half = exp.as_nanos() as u64 / 2;
        let jitter = if half == 0 {
            0
        } else {
            crate::fault::splitmix(self.jitter_seed.wrapping_add(attempt)) % (half + 1)
        };
        (exp + Duration::from_nanos(jitter)).min(self.max_backoff)
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
    /// Rollbacks performed during this run call.
    pub rollbacks: u64,
    /// Peak memory-gauge reading observed at step boundaries (`None`
    /// when no gauge is installed).
    pub memory_peak: Option<u64>,
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
        if let Some(peak) = self.memory_peak {
            s.push_str(&format!("  memory peak: {peak} bytes\n"));
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
        match self.memory_peak {
            Some(peak) => s.push_str(&format!(",\"memory_peak\":{peak}")),
            None => s.push_str(",\"memory_peak\":null"),
        }
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

/// Per-simulator governance state, `Option<Box<_>>`-gated on the
/// simulator exactly like the resilience and checkpoint state.
pub(crate) struct SupervisorState {
    pub(crate) budget: RunBudget,
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) retry: RetryPolicy,
    pub(crate) gauge: Option<MemoryGauge>,
    /// Retries this run call, per cause.
    pub(crate) retries: BTreeMap<&'static str, u64>,
    /// Total retries this run call (checked against `retry.max_retries`).
    pub(crate) total_retries: u64,
    /// Peak gauge reading this run call.
    pub(crate) mem_peak: u64,
    /// The report of the most recent governed run.
    pub(crate) last_report: Option<RunReport>,
}

impl SupervisorState {
    pub(crate) fn new() -> Self {
        SupervisorState {
            budget: RunBudget::default(),
            cancel: None,
            retry: RetryPolicy::default(),
            gauge: None,
            retries: BTreeMap::new(),
            total_retries: 0,
            mem_peak: 0,
            last_report: None,
        }
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
            .max_memory_bytes(1 << 20)
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
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff_for(1);
        let b2 = p.backoff_for(2);
        let b9 = p.backoff_for(9);
        assert!(b1 >= Duration::from_millis(10));
        assert!(b2 >= Duration::from_millis(20), "{b2:?}");
        assert!(b9 <= Duration::from_millis(100), "capped: {b9:?}");
        assert_eq!(b1, p.backoff_for(1), "same seed, same jitter");
        let zero = RetryPolicy::default();
        assert_eq!(zero.backoff_for(5), Duration::ZERO, "no base, no sleep");
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
