//! The observability surface of the kernel: the [`Probe`] trait and the
//! [`StepLog`] it consumes.
//!
//! The paper positions LSE as "an effective educational tool when
//! integrated with an interactive system visualizer", and the fixed
//! reactive MoC is what makes the netlist *analyzable*: every wire of
//! every connection resolves exactly once per time-step, so each step is
//! a well-defined event stream. The engine writes that stream as
//! fixed-size [`Record`]s into one reused log and hands it to the probe
//! once a step:
//!
//! * **step begin / end** bracket the time-step;
//! * one **react** or **commit** record per handler invocation, placed
//!   where the handler starts and completed with its [`Outcome`] and wall
//!   time when it returns — on failure too, so a bracket cannot tear;
//! * one **resolve** per wire per step, the moment the data/enable/ack
//!   wire of a connection resolves, distinguishing a module's own write
//!   from the kernel's default control semantics (paper §2.1);
//! * one **transfer** per completed three-way handshake;
//! * **fault**, **quarantine**, and the run-level **checkpoint**,
//!   **restore**, **rollback** and **cancel** records.
//!
//! The log also lends the step's [`SignalStore`]: at step end it holds
//! every wire's final value, so a sink that wants state rather than
//! events reads it there.
//!
//! [`Probe::interest`] tells the kernel which of the two per-invocation
//! families (handler records, resolve records) to write at all, so the
//! reaction loop does not produce records nobody reads. Ready-made sinks
//! live in [`crate::trace`] (text + JSONL), [`crate::vcd`] (GTKWave
//! waveforms, sampled from the store) and [`crate::profile`] (per-module
//! hot-spot attribution); each is one loop over [`StepLog::records`].
//!
//! **Cost when absent.** The log reaches the reaction loops as an
//! `Option`, `Some` only while the probe asked for handler or resolve
//! records. Otherwise — no probe, or one with [`Interest::NONE`] such as
//! canonical JSONL or VCD — the plan walk runs its straight nodes with no
//! log code at all, and an island member tests the `Option` once per
//! invocation (§5 of `docs/OBSERVABILITY.md`).

use crate::fault::FaultKind;
use crate::netlist::{EdgeId, InstanceId};
use crate::signal::Wire;
use crate::store::SignalStore;
use crate::topology::Topology;
use crate::value::Value;
use std::borrow::Cow;

/// Who resolved a wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedBy {
    /// A module's `react` handler drove the wire.
    Module(InstanceId),
    /// The kernel's default control semantics resolved the wire after
    /// reaction quiescence (paper §2.2: partial specifications execute).
    Default,
}

/// Which of the per-handler-invocation record families a probe consumes.
/// These are the records the reaction and commit loops write once per
/// handler call or per wire; everything else (step brackets, transfers,
/// faults, recovery records) is per step or rarer and always written.
/// The default is [`Interest::NONE`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interest {
    /// [`Record::React`] and [`Record::Commit`], with handler wall time.
    pub handlers: bool,
    /// [`Record::Resolve`].
    pub resolves: bool,
}

impl Interest {
    /// Every record (the default).
    pub const ALL: Interest = Interest {
        handlers: true,
        resolves: true,
    };
    /// Neither family: step-level records only.
    pub const NONE: Interest = Interest {
        handlers: false,
        resolves: false,
    };

    /// What a fan-out of two probes consumes.
    pub fn union(self, other: Interest) -> Interest {
        Interest {
            handlers: self.handlers || other.handlers,
            resolves: self.resolves || other.resolves,
        }
    }
}

/// How a handler invocation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The handler has not returned. The engine completes every record
    /// before it delivers the log, so a probe never sees this.
    Open,
    /// It returned `Ok`.
    Ok,
    /// It returned an error or panicked; the failure policy decided what
    /// followed.
    Failed,
}

/// One handler invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handler {
    /// The instance whose handler ran.
    pub inst: InstanceId,
    /// How the handler ended.
    pub outcome: Outcome,
    /// Wall-clock nanoseconds the handler ran.
    pub ns: u64,
}

/// One event of a time-step, in the order the engine produced it.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// The time-step is starting.
    StepBegin,
    /// The time-step completed (all wires resolved, commits done). A
    /// failed step has none.
    StepEnd,
    /// A `react` invocation (only under [`Interest::handlers`]).
    React(Handler),
    /// A `commit` invocation (only under [`Interest::handlers`]).
    Commit(Handler),
    /// One wire of one connection resolved (only under
    /// [`Interest::resolves`]). `value` is the payload of a data wire
    /// resolving `Yes`.
    Resolve {
        /// The connection.
        edge: EdgeId,
        /// Which of its three wires.
        wire: Wire,
        /// The resolution polarity.
        yes: bool,
        /// The data payload, for a data wire resolving `Yes`.
        value: Option<Value>,
        /// Who resolved it.
        by: ResolvedBy,
    },
    /// A three-way handshake completed on `edge` (in edge-id order at the
    /// end of the commit phase).
    Transfer {
        /// The connection.
        edge: EdgeId,
        /// Its sender.
        src: InstanceId,
        /// Its receiver.
        dst: InstanceId,
        /// The payload moved.
        value: Value,
    },
    /// A wire-level fault of the installed fault plan is active on
    /// `(edge, wire)` this step (at step begin, in `(edge, wire)` order).
    Fault {
        /// The connection.
        edge: EdgeId,
        /// The faulted wire.
        wire: Wire,
        /// What the fault does.
        kind: FaultKind,
    },
    /// An instance-level fault (`"panic"` or `"latency"`) is active on
    /// `inst` this step (at step begin, in instance-id order).
    InstanceFault {
        /// The faulted instance.
        inst: InstanceId,
        /// The fault's label.
        kind: Cow<'static, str>,
    },
    /// `inst` was isolated by the quarantine policy: its handlers will not
    /// run again and its ports fall back to the default control semantics
    /// (at step end, in instance-id order).
    Quarantine {
        /// The isolated instance.
        inst: InstanceId,
        /// What failed.
        reason: String,
    },
    /// A checkpoint of the full simulator state was taken after step
    /// `now - 1` completed (the snapshot resumes at step `now`).
    Checkpoint,
    /// The simulator state was replaced from a checkpoint; the next step
    /// executed will be `now`.
    Restore,
    /// The recovery path rewound the run: a failure at step `now` caused a
    /// restore back to step `to` (always ≤ `now`), after masking the
    /// offending fault-plan entries.
    Rollback {
        /// The step the run resumes at.
        to: u64,
        /// What triggered it.
        reason: String,
    },
    /// A governed run observed its [`crate::supervisor::CancelToken`]
    /// tripped and is exiting at the step boundary before step `now`.
    Cancel,
}

/// What the engine hands a probe: the records of one time-step, or of one
/// run-level event (checkpoint, restore, rollback, cancel) as it occurs.
/// A step's log is delivered when the step ends or fails, so every
/// record a probe is owed has reached it by the time
/// [`Probe::sync`] runs.
#[derive(Clone, Copy)]
pub struct StepLog<'a> {
    /// The time-step the records belong to.
    pub now: u64,
    /// The structure, for names.
    pub topo: &'a Topology,
    /// The wires. With a probe attached no kernel lane runs, so at
    /// [`Record::StepEnd`] every wire holds its final value for the step.
    pub store: &'a SignalStore,
    /// `react` invocations this step (whatever the interest).
    pub reacts: u64,
    /// `commit` invocations this step (whatever the interest).
    pub commits: u64,
    /// The records, in the order the engine produced them.
    pub records: &'a [Record],
}

/// Observer of the kernel's event stream, one [`StepLog`] at a time.
///
/// Probes are attached with [`crate::exec::Simulator::set_probe`]; the
/// kernel calls [`Probe::attach`] once so sinks can precompute per-edge
/// state (the VCD writer emits its header there).
#[allow(unused_variables)]
pub trait Probe: Send {
    /// Called once when the probe is installed on a simulator.
    fn attach(&mut self, topo: &Topology) {}

    /// The per-invocation records this probe consumes. Read once, right
    /// after [`Probe::attach`]; the kernel skips writing the families
    /// that are off. A log may still *hold* a family this probe declined
    /// (a [`MultiProbe`] sibling asked for it), so declining is a cost
    /// hint, not a filter.
    fn interest(&self) -> Interest {
        Interest::ALL
    }

    /// Hand everything observed so far to the sink's writer and report
    /// the first write error the sink has met. The kernel calls this
    /// before a checkpoint file is written, so a buffering sink is never
    /// behind a durable checkpoint; hosts call it before dropping a
    /// probe whose output they rely on (`Drop` cannot report errors).
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Consume one log.
    fn step(&mut self, log: &StepLog<'_>);
}

/// Fan-out probe: hands every log to each attached probe in order, so
/// `--trace --vcd --profile` can all observe one run.
#[derive(Default)]
pub struct MultiProbe {
    probes: Vec<Box<dyn Probe>>,
}

impl MultiProbe {
    /// Empty fan-out.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a probe to the fan-out.
    pub fn push(&mut self, p: Box<dyn Probe>) {
        self.probes.push(p);
    }

    /// True when no probes are attached.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

impl Probe for MultiProbe {
    fn attach(&mut self, topo: &Topology) {
        for p in &mut self.probes {
            p.attach(topo);
        }
    }
    fn interest(&self) -> Interest {
        self.probes
            .iter()
            .fold(Interest::NONE, |acc, p| acc.union(p.interest()))
    }
    fn sync(&mut self) -> std::io::Result<()> {
        // Sync every sink even when one fails; report the first failure.
        let mut first = Ok(());
        for p in &mut self.probes {
            let r = p.sync();
            if first.is_ok() {
                first = r;
            }
        }
        first
    }
    fn step(&mut self, log: &StepLog<'_>) {
        for p in &mut self.probes {
            p.step(log);
        }
    }
}

/// Event counters, shared through [`ProbeCountsHandle`]. The cheapest
/// possible real sink — the benchmark's stand-in for "a probe is
/// attached" when measuring observation overhead, and a convenient
/// invariant check in tests (e.g. resolutions = 3 × edges × steps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Steps begun.
    pub steps: u64,
    /// `react` invocations (the engine's count).
    pub reacts: u64,
    /// `commit` invocations (the engine's count).
    pub commits: u64,
    /// Wire resolutions.
    pub resolutions: u64,
    /// Wire resolutions by the default semantics.
    pub defaults: u64,
    /// Completed handshakes.
    pub transfers: u64,
    /// Wire and instance faults.
    pub faults: u64,
    /// Quarantines.
    pub quarantines: u64,
    /// Checkpoints.
    pub checkpoints: u64,
    /// Restores.
    pub restores: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Cancellations.
    pub cancels: u64,
}

/// Counting probe; create with [`CountingProbe::new`].
pub struct CountingProbe {
    counts: std::sync::Arc<std::sync::Mutex<ProbeCounts>>,
}

/// Read handle for a [`CountingProbe`].
#[derive(Clone)]
pub struct ProbeCountsHandle {
    counts: std::sync::Arc<std::sync::Mutex<ProbeCounts>>,
}

impl ProbeCountsHandle {
    /// Snapshot of the counters.
    pub fn get(&self) -> ProbeCounts {
        *self.counts.lock().expect("probe counts lock")
    }
}

impl CountingProbe {
    /// Create the probe and its read handle.
    pub fn new() -> (Self, ProbeCountsHandle) {
        let counts = std::sync::Arc::new(std::sync::Mutex::new(ProbeCounts::default()));
        (
            CountingProbe {
                counts: counts.clone(),
            },
            ProbeCountsHandle { counts },
        )
    }
}

impl Probe for CountingProbe {
    /// Reacts and commits come from the log's engine counts, so no
    /// handler record is needed.
    fn interest(&self) -> Interest {
        Interest {
            handlers: false,
            resolves: true,
        }
    }

    fn step(&mut self, log: &StepLog<'_>) {
        let mut c = self.counts.lock().expect("probe counts lock");
        c.reacts += log.reacts;
        c.commits += log.commits;
        for r in log.records {
            match r {
                Record::StepBegin => c.steps += 1,
                Record::Resolve { by, .. } => {
                    c.resolutions += 1;
                    c.defaults += u64::from(*by == ResolvedBy::Default);
                }
                Record::Transfer { .. } => c.transfers += 1,
                Record::Fault { .. } | Record::InstanceFault { .. } => c.faults += 1,
                Record::Quarantine { .. } => c.quarantines += 1,
                Record::Checkpoint => c.checkpoints += 1,
                Record::Restore => c.restores += 1,
                Record::Rollback { .. } => c.rollbacks += 1,
                Record::Cancel => c.cancels += 1,
                Record::StepEnd | Record::React(_) | Record::Commit(_) => {}
            }
        }
    }
}

/// Append `s` to `out`, escaped for inclusion in a JSON string literal
/// (quotes, backslashes and control characters). Every byte that needs
/// escaping is ASCII, so multi-byte UTF-8 sequences pass through whole
/// and clean runs are copied as slices.
pub(crate) fn escape_into(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut clean_from = 0;
    for (i, &c) in bytes.iter().enumerate() {
        let unicode: [u8; 6];
        let escaped: &[u8] = match c {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                let (hi, lo) = (HEX[usize::from(c >> 4)], HEX[usize::from(c & 0xf)]);
                unicode = [b'\\', b'u', b'0', b'0', hi, lo];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[clean_from..i]);
        out.extend_from_slice(escaped);
        clean_from = i + 1;
    }
    out.extend_from_slice(&bytes[clean_from..]);
}

/// Escape a string for inclusion in a JSON string literal. The allocating
/// form of the JSONL sink's escaper, for front ends that build JSON with
/// `format!` (`--metrics-out`, sweep reports).
pub fn json_escape(s: &str) -> String {
    let mut out = Vec::with_capacity(s.len());
    escape_into(&mut out, s);
    String::from_utf8(out).expect("escaping valid UTF-8 inserts ASCII only")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain.name[0]"), "plain.name[0]");
    }
}
