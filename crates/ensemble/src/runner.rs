//! The supervised replica runner.
//!
//! Each replica composes the single-run machinery the kernel already
//! has — governed runs, clean-cut checkpoints, fault plans, retry
//! ladders — under one more layer of isolation: a `catch_unwind` per
//! replica so a dying replica cannot perturb any other, a shared
//! [`CancelToken`] so one SIGINT cuts every in-flight replica at its
//! next step boundary, and the durable manifest so a killed sweep
//! resumes exactly where it stopped.
//!
//! Byte-identity across interruption rests on three invariants:
//!
//! 1. replica streams contain **only simulation events** — harness
//!    events (`attach`/`cancel`/`checkpoint`/`restore`/`rollback`) are
//!    filtered before they reach the file, so an interrupted replica's
//!    stream is a strict prefix of the uninterrupted one *modulo* a
//!    possibly torn tail;
//! 2. on resume the stream is trimmed to events strictly before the
//!    checkpoint's step (atomically: temp file + rename) and the
//!    restored simulator re-emits the rest deterministically — sound
//!    because the stream is **group-committed**: event lines collect in
//!    one block of at most 64 KiB that is handed to the OS when it
//!    fills, when the replica settles, and — through `Probe::sync`,
//!    which the kernel calls before it writes a checkpoint file — at
//!    every checkpoint. So every line with `now < N` has reached the OS
//!    before `step-N.ckpt` exists under its real name: a `kill -9`
//!    never leaves a durable checkpoint ahead of the durable stream,
//!    and the cost is a `write` per checkpoint interval, not per event;
//! 3. the aggregate CSV is regenerated from terminal manifest records
//!    only — fields that depend on interruption history (wall-clock,
//!    replay counts) never enter it.

use crate::manifest::{self, ManifestWriter, Record, SweepHeader, MANIFEST_FILE};
use crate::sweep::{ReplicaSpec, SweepConfig};
use crate::EnsembleError;
use liberty_core::prelude::{
    CancelToken, FaultPlan, JsonlProbe, RunBudget, RunOutcome, RunReport, SimError, Simulator,
    Snapshot, Topology,
};
use liberty_core::snapshot::{crc32, crc32_extend};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A replica-build callback: given the grid cell, produce a ready
/// simulator. Runs on worker threads, so it must be `Sync`; pair it
/// with a [`TopoCache`] to share one `Arc<Topology>` (and therefore one
/// cached `CompiledPlan`) across all replicas of a parameter point.
pub trait ReplicaFactory: Sync {
    /// Build the simulator for one replica.
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError>;
}

impl<F> ReplicaFactory for F
where
    F: Fn(&ReplicaSpec) -> Result<Simulator, SimError> + Sync,
{
    fn build(&self, spec: &ReplicaSpec) -> Result<Simulator, SimError> {
        self(spec)
    }
}

/// Shares one immutable [`Topology`] per parameter point across all of
/// that point's replicas. The first replica to elaborate a point
/// donates its topology; later replicas discard their own (identical)
/// elaboration result and run their freshly built modules over the
/// shared `Arc` via `Simulator::from_parts` — reusing the CSR wake
/// tables, static ranks and the cached compiled plan.
#[derive(Default)]
pub struct TopoCache {
    map: Mutex<BTreeMap<String, Arc<Topology>>>,
}

impl TopoCache {
    /// An empty cache.
    pub fn new() -> TopoCache {
        TopoCache::default()
    }

    /// Return the shared topology for `key`, seeding it with `topo` on
    /// first use. Panics if a later elaboration of the same key differs
    /// in shape — the factory would be nondeterministic, which breaks
    /// every resume guarantee.
    pub fn unify(&self, key: &str, topo: Topology) -> Arc<Topology> {
        let mut map = self.map.lock().expect("topology cache lock");
        if let Some(shared) = map.get(key) {
            assert_eq!(
                (shared.instance_count(), shared.edge_count()),
                (topo.instance_count(), topo.edge_count()),
                "nondeterministic elaboration for sweep point `{key}`"
            );
            return shared.clone();
        }
        let shared = Arc::new(topo);
        map.insert(key.to_owned(), shared.clone());
        shared
    }
}

/// Harness probe events that must never reach a replica's durable
/// stream: they mark supervision activity (probe attachment, cuts,
/// checkpoints, restores, replays) that an uninterrupted control run
/// would lack.
const HARNESS_KINDS: [&[u8]; 5] = [b"attach", b"cancel", b"checkpoint", b"restore", b"rollback"];

/// True for a stream line (every one opens `{"t":"<kind>"`) of a harness
/// kind.
fn is_harness(line: &[u8]) -> bool {
    let rest = line.strip_prefix(b"{\"t\":\"").unwrap_or_default();
    let end = rest.iter().position(|&c| c == b'"').unwrap_or(rest.len());
    HARNESS_KINDS.contains(&&rest[..end])
}

/// Most bytes of filtered stream held back before one `write` hands
/// them to the OS.
const BLOCK: usize = 64 * 1024;

/// The replica-stream writer: drops harness events and group-commits the
/// simulation events. Lines are received straight into `block`, a
/// harness line is cut back out once it is whole, and what is left goes
/// to `inner` when the block fills, on [`Write::flush`] (reached through
/// `Probe::sync` at every checkpoint and when the replica settles) and
/// on `Drop`.
struct FilterWrite<W: Write> {
    inner: W,
    /// Kept whole lines, then the line still being received.
    block: Vec<u8>,
    /// Where that line starts: `block[..open]` is ready for `inner`.
    open: usize,
    /// CRC32 of every byte handed to `inner`, continuing from the
    /// stream's kept prefix; `replica_body` reads it once the writer is
    /// gone.
    crc: Arc<AtomicU32>,
}

impl<W: Write> FilterWrite<W> {
    fn new(inner: W, crc: Arc<AtomicU32>) -> Self {
        FilterWrite {
            inner,
            block: Vec::with_capacity(BLOCK),
            open: 0,
            crc,
        }
    }

    /// Hand the whole lines collected so far to `inner`. They leave the
    /// block even on failure: the replica is lost either way, and a
    /// retry must not append a second copy of whatever part got through.
    fn commit(&mut self) -> std::io::Result<()> {
        let whole = &self.block[..self.open];
        let r = self.inner.write_all(whole);
        if r.is_ok() {
            let crc = crc32_extend(self.crc.load(Ordering::SeqCst), whole);
            self.crc.store(crc, Ordering::SeqCst);
        }
        self.block.drain(..self.open);
        self.open = 0;
        r
    }
}

impl<W: Write> Write for FilterWrite<W> {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        // The block stays within BLOCK (short of one write longer than
        // that): what is whole leaves before what arrives would overflow.
        if self.block.len() + b.len() > BLOCK {
            self.commit()?;
        }
        let mut rest = b;
        while !rest.is_empty() {
            rest.read_until(b'\n', &mut self.block)?;
            if self.block.last() != Some(&b'\n') {
                break; // the line continues in the next write
            }
            if is_harness(&self.block[self.open..]) {
                self.block.truncate(self.open);
            }
            self.open = self.block.len();
        }
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.commit()?;
        self.inner.flush()
    }
}

impl<W: Write> Drop for FilterWrite<W> {
    fn drop(&mut self) {
        let _ = self.commit();
    }
}

/// The probe a replica runs under: canonical JSONL through the filtering,
/// group-committing writer into `file`. `crc` must hold the CRC32 of what
/// `file` already contains.
fn stream_probe(
    file: std::fs::File,
    crc: Arc<AtomicU32>,
) -> JsonlProbe<FilterWrite<std::fs::File>> {
    JsonlProbe::new(FilterWrite::new(file, crc)).canonical()
}

/// Extract the `"now":N` field every canonical simulation event
/// carries.
fn line_now(line: &[u8]) -> Option<u64> {
    let s = std::str::from_utf8(line).ok()?;
    let at = s.find("\"now\":")? + "\"now\":".len();
    let digits: String = s[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Trim a (possibly torn) stream file to the complete lines strictly
/// before `upto` — the resume point — atomically. Returns the CRC32 of
/// what was kept.
fn trim_stream(path: &Path, upto: u64) -> std::io::Result<u32> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(crc32(&[])),
        Err(e) => return Err(e),
    };
    let mut kept = Vec::with_capacity(data.len());
    let mut rest: &[u8] = &data;
    while let Some(pos) = rest.iter().position(|&c| c == b'\n') {
        let line = &rest[..=pos];
        if line_now(line).is_some_and(|n| n < upto) {
            kept.extend_from_slice(line);
        }
        rest = &rest[pos + 1..];
    }
    // Anything after the last newline is a torn append: dropped.
    let tmp = path.with_extension("jsonl.tmp");
    std::fs::write(&tmp, &kept)?;
    std::fs::rename(&tmp, path)?;
    Ok(crc32(&kept))
}

/// The newest decodable on-disk checkpoint in a replica's checkpoint
/// directory. Torn or corrupt files (a `kill -9` mid-write leaves a
/// `.tmp`, never a bad `.ckpt`, but belt and braces) are skipped in
/// favour of the next older one.
fn latest_checkpoint(ckpt_dir: &Path) -> Option<Snapshot> {
    let mut steps: Vec<(u64, PathBuf)> = std::fs::read_dir(ckpt_dir)
        .ok()?
        .filter_map(|e| {
            let path = e.ok()?.path();
            let name = path.file_name()?.to_str()?;
            let step: u64 = name
                .strip_prefix("step-")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()?;
            Some((step, path))
        })
        .collect();
    steps.sort_by_key(|s| std::cmp::Reverse(s.0));
    steps
        .into_iter()
        .find_map(|(_, path)| Snapshot::read_file(&path).ok())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: non-string payload".to_owned()
    }
}

/// One settled replica in a [`SweepReport`].
#[derive(Debug)]
pub struct ReplicaOutcome {
    /// The grid cell.
    pub spec: ReplicaSpec,
    /// Its terminal (or parked) manifest record.
    pub record: Record,
    /// The governed run's report, when the replica executed in this
    /// invocation (`None` for replicas skipped as already settled).
    pub report: Option<RunReport>,
    /// True when a prior invocation settled this replica.
    pub skipped: bool,
}

impl ReplicaOutcome {
    fn status(&self) -> &'static str {
        match &self.record {
            Record::Done { .. } => "done",
            Record::Failed { .. } => "failed",
            Record::Interrupted { .. } => "interrupted",
            _ => "pending",
        }
    }
}

/// Aggregate account of one sweep invocation.
#[derive(Debug)]
pub struct SweepReport {
    /// Replicas in the grid.
    pub total: usize,
    /// Replicas with a terminal `done` record.
    pub done: usize,
    /// Replicas with a terminal `failed` record.
    pub failed: usize,
    /// Replicas parked mid-flight (resumable).
    pub interrupted: usize,
    /// Replicas never started (resumable).
    pub pending: usize,
    /// How many of `done`/`failed` were settled by a prior invocation.
    pub skipped: usize,
    /// Wall-clock for this invocation.
    pub elapsed: Duration,
    /// The aggregate CSV, written only once every replica is terminal.
    pub csv: Option<PathBuf>,
    /// Per-replica outcomes (settled replicas only), in id order.
    pub replicas: Vec<ReplicaOutcome>,
}

impl SweepReport {
    /// True when every replica reached a terminal state.
    pub fn complete(&self) -> bool {
        self.done + self.failed == self.total
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut s = format!(
            "sweep: {}/{} done, {} failed, {} interrupted, {} pending \
             ({} skipped as already settled) in {:.3?}\n",
            self.done,
            self.total,
            self.failed,
            self.interrupted,
            self.pending,
            self.skipped,
            self.elapsed,
        );
        for r in &self.replicas {
            if let Record::Failed { steps, reason, .. } = &r.record {
                s.push_str(&format!(
                    "  {} [{}] failed at step {steps}: {reason}\n",
                    r.spec.file_stem(),
                    r.spec.point_label(),
                ));
            }
        }
        if let Some(csv) = &self.csv {
            s.push_str(&format!("  metrics: {}\n", csv.display()));
        }
        s
    }

    /// Machine-readable JSON (aggregate plus one entry per settled
    /// replica, each carrying its [`RunReport::to_json`] when the
    /// replica executed in this invocation).
    pub fn to_json(&self) -> String {
        use liberty_core::probe::json_escape;
        let mut s = format!(
            "{{\"total\":{},\"done\":{},\"failed\":{},\"interrupted\":{},\
             \"pending\":{},\"skipped\":{},\"complete\":{},\"elapsed_ns\":{},\"replicas\":[",
            self.total,
            self.done,
            self.failed,
            self.interrupted,
            self.pending,
            self.skipped,
            self.complete(),
            self.elapsed.as_nanos(),
        );
        for (i, r) in self.replicas.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"replica\":{},\"param\":\"{}\",\"seed\":{},\"status\":\"{}\"",
                r.spec.index,
                json_escape(&r.spec.point_label()),
                r.spec.seed,
                r.status(),
            ));
            match &r.report {
                Some(rep) => s.push_str(&format!(",\"report\":{}", rep.to_json())),
                None => s.push_str(",\"report\":null"),
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

/// What `execute` should do with each replica.
enum JobPlan {
    /// Run from step 0 (truncating any stale stream).
    Fresh,
    /// Restart from the newest decodable checkpoint (or step 0).
    Resume,
    /// Already terminal in the manifest: carry the record forward.
    Skip(Record),
}

/// Run a fresh sweep into `dir` (created if missing; any previous
/// manifest there is truncated). `cancel` is shared by every replica:
/// trip it (e.g. from a SIGINT handler) and all in-flight replicas take
/// clean-cut checkpoints at their next step boundary, the manifest gets
/// a summary line naming the tally, and the sweep becomes resumable.
pub fn run_sweep<F: ReplicaFactory>(
    dir: &Path,
    config: &SweepConfig,
    cancel: &CancelToken,
    factory: &F,
) -> Result<SweepReport, EnsembleError> {
    config.checked_total()?;
    std::fs::create_dir_all(dir)?;
    let header = SweepHeader::of(config);
    let writer = ManifestWriter::create(&dir.join(MANIFEST_FILE), &header)?;
    let plans = config
        .replicas()
        .into_iter()
        .map(|spec| (spec, JobPlan::Fresh))
        .collect();
    execute(dir, config, cancel, factory, writer, plans)
}

/// Resume the sweep recorded in `dir`'s manifest: replicas with
/// terminal records are skipped, parked or mid-flight ones restart from
/// their newest decodable checkpoint (with their streams trimmed to the
/// checkpoint step), and never-started ones run fresh. `config` must
/// regenerate the manifest's grid exactly — geometry is validated
/// against the recorded header ([`resume_config`] builds a matching
/// one).
pub fn resume_sweep<F: ReplicaFactory>(
    dir: &Path,
    config: &SweepConfig,
    cancel: &CancelToken,
    factory: &F,
) -> Result<SweepReport, EnsembleError> {
    config.checked_total()?;
    let path = dir.join(MANIFEST_FILE);
    let loaded = manifest::load(&path)?;
    loaded.header.matches(config)?;
    let writer = ManifestWriter::open_append(&path)?;
    let plans = config
        .replicas()
        .into_iter()
        .map(|spec| {
            let plan = match loaded.latest.get(&spec.index) {
                Some(r @ (Record::Done { .. } | Record::Failed { .. })) => JobPlan::Skip(r.clone()),
                Some(Record::Start { .. } | Record::Interrupted { .. }) => JobPlan::Resume,
                _ => JobPlan::Fresh,
            };
            (spec, plan)
        })
        .collect();
    execute(dir, config, cancel, factory, writer, plans)
}

/// Load the manifest header from a sweep directory and rebuild a
/// geometry-matching [`SweepConfig`] (execution knobs at their
/// defaults — set threads/budgets on the result freely). A header whose
/// grid the replica list cannot hold, or whose `total` disagrees with
/// its own parameter range and seeds, is an error.
pub fn resume_config(dir: &Path) -> Result<SweepConfig, EnsembleError> {
    let loaded = manifest::load(&dir.join(MANIFEST_FILE))?;
    let h = loaded.header;
    let mut config = SweepConfig::new(h.cycles);
    config.sweep = h.param;
    config.seeds = h.seeds;
    config.base_seed = h.base_seed;
    config.fault_rate = h.fault_rate;
    let total = config.checked_total()?;
    if total != h.total {
        return Err(EnsembleError::Manifest(format!(
            "manifest header says {} replicas, its geometry makes {total}",
            h.total
        )));
    }
    Ok(config)
}

fn execute<F: ReplicaFactory>(
    dir: &Path,
    config: &SweepConfig,
    cancel: &CancelToken,
    factory: &F,
    writer: ManifestWriter,
    plans: Vec<(ReplicaSpec, JobPlan)>,
) -> Result<SweepReport, EnsembleError> {
    let start = Instant::now();
    let writer = Mutex::new(writer);
    let results: Mutex<BTreeMap<usize, ReplicaOutcome>> = Mutex::new(BTreeMap::new());
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let total = plans.len();
    let mut skipped = 0usize;
    let mut runnable: Vec<(&ReplicaSpec, bool)> = Vec::new();
    for (spec, plan) in &plans {
        match plan {
            JobPlan::Skip(record) => {
                skipped += 1;
                results.lock().expect("results lock").insert(
                    spec.index,
                    ReplicaOutcome {
                        spec: spec.clone(),
                        record: record.clone(),
                        report: None,
                        skipped: true,
                    },
                );
            }
            JobPlan::Fresh => runnable.push((spec, false)),
            JobPlan::Resume => runnable.push((spec, true)),
        }
    }

    let next = AtomicUsize::new(0);
    let lane = || {
        loop {
            let k = next.fetch_add(1, Ordering::SeqCst);
            if k >= runnable.len() || cancel.is_cancelled() {
                // Cancellation parks the *queue*: replicas not yet
                // started stay pending; in-flight ones (other lanes)
                // observe the token at their own step boundaries.
                break;
            }
            let (spec, resume) = runnable[k];
            if let Err(e) = (|| -> Result<(), EnsembleError> {
                writer
                    .lock()
                    .expect("manifest lock")
                    .append(&Record::Start { r: spec.index })?;
                let (record, report) = run_one(dir, config, cancel, factory, spec, resume);
                writer.lock().expect("manifest lock").append(&record)?;
                results.lock().expect("results lock").insert(
                    spec.index,
                    ReplicaOutcome {
                        spec: spec.clone(),
                        record,
                        report,
                        skipped: false,
                    },
                );
                Ok(())
            })() {
                errors.lock().expect("errors lock").push(e.to_string());
                break;
            }
        }
    };

    let lanes = config.threads.max(1).min(runnable.len().max(1));
    if lanes <= 1 {
        lane();
    } else {
        // One sweep, one burst: the caller is a lane, the scope joins
        // the rest before the borrows in `lane` expire.
        std::thread::scope(|s| {
            let spawned: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
            let mine = catch_unwind(AssertUnwindSafe(lane));
            let joined = spawned.into_iter().map(|h| h.join());
            for payload in std::iter::once(mine).chain(joined).filter_map(Result::err) {
                errors
                    .lock()
                    .expect("errors lock")
                    .push(format!("sweep lane panicked: {}", panic_message(&*payload)));
            }
        });
    }

    let errors = errors.into_inner().expect("errors lock");
    if !errors.is_empty() {
        return Err(EnsembleError::Manifest(errors.join("; ")));
    }

    let results = results.into_inner().expect("results lock");
    let mut done = 0usize;
    let mut failed = 0usize;
    let mut interrupted = 0usize;
    for r in results.values() {
        match &r.record {
            Record::Done { .. } => done += 1,
            Record::Failed { .. } => failed += 1,
            Record::Interrupted { .. } => interrupted += 1,
            _ => {}
        }
    }
    let pending = total - results.len();
    writer
        .lock()
        .expect("manifest lock")
        .append(&Record::Summary {
            done,
            failed,
            interrupted,
            pending,
        })?;

    let csv = if done + failed == total {
        Some(write_csv(dir, &results)?)
    } else {
        None
    };

    Ok(SweepReport {
        total,
        done,
        failed,
        interrupted,
        pending,
        skipped,
        elapsed: start.elapsed(),
        csv,
        replicas: results.into_values().collect(),
    })
}

/// Supervise one replica end to end. Never panics: every failure mode —
/// build error, restore error, I/O error, handler panic — settles into
/// a manifest record.
fn run_one<F: ReplicaFactory>(
    dir: &Path,
    config: &SweepConfig,
    cancel: &CancelToken,
    factory: &F,
    spec: &ReplicaSpec,
    resume: bool,
) -> (Record, Option<RunReport>) {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        replica_body(dir, config, cancel, factory, spec, resume)
    }));
    match caught {
        Ok(Ok((record, report))) => (record, Some(report)),
        Ok(Err(msg)) => (
            Record::Failed {
                r: spec.index,
                steps: 0,
                reason: msg,
            },
            None,
        ),
        Err(p) => (
            Record::Failed {
                r: spec.index,
                steps: 0,
                reason: panic_message(&*p),
            },
            None,
        ),
    }
}

fn replica_body<F: ReplicaFactory>(
    dir: &Path,
    config: &SweepConfig,
    cancel: &CancelToken,
    factory: &F,
    spec: &ReplicaSpec,
    resume: bool,
) -> Result<(Record, RunReport), String> {
    let stream_path = dir.join(format!("{}.jsonl", spec.file_stem()));
    let ckpt_dir = dir.join(format!("{}.ckpt", spec.file_stem()));
    std::fs::create_dir_all(&ckpt_dir).map_err(|e| format!("checkpoint dir: {e}"))?;

    let mut sim = factory.build(spec).map_err(|e| format!("build: {e}"))?;
    if let Some(rate) = config.fault_rate {
        let topo = sim.topology().clone();
        sim.set_fault_plan(FaultPlan::random(spec.seed, &topo, config.cycles, rate));
        sim.set_failure_policy(config.fault_policy);
        sim.set_watchdog(config.watchdog);
    }

    // Resume from the newest decodable checkpoint; none decodable (or a
    // cut before the first checkpoint) restarts from step 0.
    let mut resumed_from = 0u64;
    if resume {
        if let Some(snap) = latest_checkpoint(&ckpt_dir) {
            resumed_from = snap.now();
            sim.restore(&snap).map_err(|e| format!("restore: {e}"))?;
        }
    }

    let (file, kept_crc) = if resumed_from > 0 {
        let kept_crc =
            trim_stream(&stream_path, resumed_from).map_err(|e| format!("trim stream: {e}"))?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(&stream_path)
            .map_err(|e| format!("open stream: {e}"))?;
        (file, kept_crc)
    } else {
        let file =
            std::fs::File::create(&stream_path).map_err(|e| format!("create stream: {e}"))?;
        (file, crc32(&[]))
    };
    let stream_crc = Arc::new(AtomicU32::new(kept_crc));
    sim.set_probe(Box::new(stream_probe(file, stream_crc.clone())));

    sim.set_checkpoint_dir(&ckpt_dir);
    if config.checkpoint_every > 0 {
        sim.set_auto_checkpoint(config.checkpoint_every);
    }
    sim.set_cancel_token(cancel.clone());
    let mut budget = RunBudget::new();
    if let Some(n) = config.max_steps {
        budget = budget.max_steps(n);
    }
    if let Some(d) = config.deadline {
        budget = budget.deadline(d);
    }
    sim.set_budget(budget);
    if let Some(rp) = &config.retry {
        sim.set_retry_policy(rp.clone());
    }

    let remaining = config.cycles.saturating_sub(sim.now());
    let report = sim.run_governed(remaining);
    // Commit the stream's tail and learn whether any of it was lost:
    // dropping the probe would flush too, but could not say so.
    if let Err(e) = sim.take_probe().map_or(Ok(()), |mut p| p.sync()) {
        let failed = Record::Failed {
            r: spec.index,
            steps: sim.now(),
            reason: format!("stream write: {e}"),
        };
        return Ok((failed, report));
    }

    let rel_ckpt = report.last_checkpoint.as_ref().and_then(|p| {
        p.strip_prefix(dir)
            .ok()
            .map(|r| r.to_string_lossy().into_owned())
    });
    let record = match &report.outcome {
        RunOutcome::Completed | RunOutcome::Degraded => {
            let snap = sim.snapshot().map_err(|e| format!("final snapshot: {e}"))?;
            Record::Done {
                r: spec.index,
                outcome: report.outcome.label().to_owned(),
                steps: sim.now(),
                transfers: sim.transfer_counts().iter().sum(),
                state_hash: snap.state_hash(),
                stream_crc: stream_crc.load(Ordering::SeqCst),
            }
        }
        RunOutcome::Cancelled => Record::Interrupted {
            r: spec.index,
            step: sim.now(),
            cause: "cancel".to_owned(),
            ckpt: rel_ckpt,
        },
        RunOutcome::BudgetExhausted(kind) => Record::Interrupted {
            r: spec.index,
            step: sim.now(),
            cause: format!("budget-{}", kind.label()),
            ckpt: rel_ckpt,
        },
        RunOutcome::Failed => Record::Failed {
            r: spec.index,
            steps: sim.now(),
            reason: report
                .error
                .as_ref()
                .map_or_else(|| "unknown error".to_owned(), |e| e.to_string()),
        },
    };
    Ok((record, report))
}

/// Regenerate `metrics.csv` from terminal records: deterministic
/// columns only, id-sorted, atomic write — byte-identical no matter how
/// many interruptions the sweep survived.
fn write_csv(
    dir: &Path,
    results: &BTreeMap<usize, ReplicaOutcome>,
) -> Result<PathBuf, EnsembleError> {
    let mut csv =
        String::from("replica,param,seed,outcome,steps,transfers,state_hash,stream_crc\n");
    for r in results.values() {
        match &r.record {
            Record::Done {
                outcome,
                steps,
                transfers,
                state_hash,
                stream_crc,
                ..
            } => {
                csv.push_str(&format!(
                    "{},{},{},{outcome},{steps},{transfers},{state_hash:08x},{stream_crc:08x}\n",
                    r.spec.index,
                    r.spec.point_label(),
                    r.spec.seed,
                ));
            }
            Record::Failed { steps, .. } => {
                csv.push_str(&format!(
                    "{},{},{},failed,{steps},0,00000000,00000000\n",
                    r.spec.index,
                    r.spec.point_label(),
                    r.spec.seed,
                ));
            }
            _ => unreachable!("CSV is only written once every replica is terminal"),
        }
    }
    let path = dir.join("metrics.csv");
    let tmp = dir.join("metrics.csv.tmp");
    std::fs::write(&tmp, csv.as_bytes())?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_core::prelude::{
        CommitCtx, Module, ModuleSpec, MultiProbe, NetlistBuilder, PortId, Probe, ReactCtx,
        SchedKind, StepLog, Value,
    };
    use liberty_core::probe::Record as Event;

    /// Sends one word per step.
    struct Ticker;
    impl Module for Ticker {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    /// Accepts every other word, so steps differ in their line count.
    struct Eater;
    impl Module for Eater {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, ctx.now() % 2 == 0)
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    fn ticker_sim(_: &ReplicaSpec) -> Result<Simulator, SimError> {
        let mut b = NetlistBuilder::new();
        let t = b.add(
            "tick",
            ModuleSpec::new("ticker").output("out", 1, 1),
            Box::new(Ticker),
        )?;
        let e = b.add(
            "eat",
            ModuleSpec::new("eater").input("in", 1, 1),
            Box::new(Eater),
        )?;
        b.connect(t, "out", e, "in")?;
        Ok(Simulator::new(b.build()?, SchedKind::Compiled))
    }

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lse-runner-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Sits beside the replica's stream probe and, at every checkpoint,
    /// reads the stream back from disk.
    struct StreamAudit {
        stream: PathBuf,
        ckpt_dir: PathBuf,
        /// Lines the stream must hold by now: every simulation event seen.
        lines: usize,
        audits: Arc<AtomicUsize>,
    }

    impl Probe for StreamAudit {
        fn step(&mut self, log: &StepLog<'_>) {
            for r in log.records {
                match r {
                    Event::StepBegin | Event::StepEnd | Event::Transfer { .. } => self.lines += 1,
                    Event::Checkpoint => self.audit(log.now),
                    _ => {}
                }
            }
        }
    }

    impl StreamAudit {
        fn audit(&mut self, now: u64) {
            let ckpt = self.ckpt_dir.join(format!("step-{now:08}.ckpt"));
            assert!(
                ckpt.exists(),
                "the checkpoint is on disk when it is announced"
            );
            let on_disk = std::fs::read(&self.stream).unwrap();
            assert!(
                on_disk.is_empty() || on_disk.ends_with(b"\n"),
                "stream ends inside a line at checkpoint {now}"
            );
            let nows: Vec<u64> = on_disk
                .split_inclusive(|&c| c == b'\n')
                .map(|l| line_now(l).expect("every stream line parses"))
                .collect();
            assert_eq!(
                nows.len(),
                self.lines,
                "checkpoint {now} exists before every earlier line reached the OS"
            );
            assert!(nows.iter().all(|&n| n < now) && nows.windows(2).all(|w| w[0] <= w[1]));
            self.audits.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_earlier_line_is_on_disk_before_its_checkpoint_exists() {
        let dir = tdir("audit");
        let stream = dir.join("r0000.jsonl");
        let ckpt_dir = dir.join("r0000.ckpt");
        let spec = SweepConfig::new(0).replicas().remove(0);
        let mut sim = ticker_sim(&spec).unwrap();
        let crc = Arc::new(AtomicU32::new(0));
        let audits = Arc::new(AtomicUsize::new(0));
        let mut probes = MultiProbe::new();
        probes.push(Box::new(stream_probe(
            std::fs::File::create(&stream).unwrap(),
            crc.clone(),
        )));
        probes.push(Box::new(StreamAudit {
            stream: stream.clone(),
            ckpt_dir: ckpt_dir.clone(),
            lines: 0,
            audits: audits.clone(),
        }));
        sim.set_probe(Box::new(probes));
        sim.set_checkpoint_dir(&ckpt_dir);
        sim.set_auto_checkpoint(7);
        sim.run(50).unwrap();
        assert_eq!(
            audits.load(Ordering::SeqCst),
            7,
            "a checkpoint every 7 of 50 steps"
        );
        // Far less than one block was written, so only the checkpoints'
        // syncs can have put those lines on disk; the tail follows when
        // the probe goes.
        let before = std::fs::metadata(&stream).unwrap().len();
        drop(sim.take_probe());
        let whole = std::fs::read(&stream).unwrap();
        assert!(before < whole.len() as u64 && whole.len() < BLOCK);
        assert_eq!(crc.load(Ordering::SeqCst), crc32(&whole));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A disk that fills: the replica must not settle as `done` over a
    /// truncated stream.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_stream_write_failure_settles_the_replica_as_failed() {
        for checkpoint_every in [0, 8] {
            let dir = tdir(&format!("full-{checkpoint_every}"));
            // Every write to /dev/full fails with ENOSPC.
            std::os::unix::fs::symlink("/dev/full", dir.join("r0000.jsonl")).unwrap();
            let mut cfg = SweepConfig::new(40);
            cfg.checkpoint_every = checkpoint_every;
            let report = run_sweep(&dir, &cfg, &CancelToken::new(), &ticker_sim).unwrap();
            assert_eq!((report.done, report.failed), (0, 1), "{}", report.render());
            match &report.replicas[0].record {
                Record::Failed { reason, .. } => {
                    assert!(reason.starts_with("stream write: "), "{reason}")
                }
                other => panic!("settled as {other:?}"),
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn filter_drops_harness_lines_across_split_writes() {
        let mut out = Vec::new();
        let crc = Arc::new(AtomicU32::new(0));
        {
            let mut f = FilterWrite::new(&mut out, crc.clone());
            // Event lines arrive in arbitrary chunks.
            f.write_all(b"{\"t\":\"step\",\"now\":0}\n{\"t\":\"chec")
                .unwrap();
            f.write_all(b"kpoint\",\"now\":0}\n{\"t\":\"transfer\",\"now\":1}\n")
                .unwrap();
            f.write_all(b"{\"t\":\"restore\",\"now\":1}\n").unwrap();
            // Nothing reaches the inner writer until the block commits.
            assert!(f.inner.is_empty());
            f.flush().unwrap();
        }
        assert_eq!(crc.load(Ordering::SeqCst), crc32(&out));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "{\"t\":\"step\",\"now\":0}\n{\"t\":\"transfer\",\"now\":1}\n"
        );
    }

    #[test]
    fn stream_trim_keeps_strictly_earlier_complete_lines() {
        let dir = std::env::temp_dir().join(format!("lse-trim-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r0000.jsonl");
        std::fs::write(
            &path,
            "{\"t\":\"step\",\"now\":0}\n{\"t\":\"step\",\"now\":1}\n\
             {\"t\":\"step\",\"now\":2}\n{\"t\":\"step\",\"no",
        )
        .unwrap();
        let kept_crc = trim_stream(&path, 2).unwrap();
        let kept = std::fs::read(&path).unwrap();
        assert_eq!(
            kept,
            b"{\"t\":\"step\",\"now\":0}\n{\"t\":\"step\",\"now\":1}\n"
        );
        assert_eq!(kept_crc, crc32(&kept));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn line_now_parses_canonical_events() {
        assert_eq!(line_now(b"{\"t\":\"step\",\"now\":42}\n"), Some(42));
        assert_eq!(
            line_now(b"{\"t\":\"transfer\",\"now\":7,\"src\":\"a\"}\n"),
            Some(7)
        );
        assert_eq!(line_now(b"garbage\n"), None);
    }
}
