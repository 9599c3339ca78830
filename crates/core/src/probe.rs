//! The observability surface of the kernel: the [`Probe`] trait.
//!
//! The paper positions LSE as "an effective educational tool when
//! integrated with an interactive system visualizer", and the fixed
//! reactive MoC is what makes the netlist *analyzable*: every wire of
//! every connection resolves exactly once per time-step, so the complete
//! behaviour of a simulation is a well-defined event stream. A [`Probe`]
//! taps that stream:
//!
//! * **step_begin / step_end** bracket each time-step;
//! * **react_enter / react_exit** and **commit_enter / commit_exit**
//!   bracket every handler invocation (the hooks a profiler needs);
//! * **signal_resolved** fires once per wire per step, the moment the
//!   data/enable/ack wire of a connection resolves — with the source
//!   distinguishing a module's own write from the kernel's default
//!   control semantics (paper §2.1);
//! * **transfer** fires once per completed three-way handshake.
//!
//! All methods default to no-ops, so a probe implements only what it
//! needs, and [`Probe::interest`] tells the kernel which of the two
//! per-invocation event families (handler brackets, wire resolutions) it
//! consumes, so the reaction loop does not produce events nobody reads.
//! Ready-made sinks live in [`crate::trace`] (text + JSONL),
//! [`crate::vcd`] (GTKWave waveforms) and [`crate::profile`] (per-module
//! hot-spot attribution).
//!
//! **Cost when absent.** The probe reaches the reaction loops as an
//! `Option`, tested at run time. Without one, the plan walk runs its
//! straight nodes and kernels with no probe code at all, and an island
//! member tests the `Option` once per invocation. Even the bookkept loop
//! a probe takes costs nothing measurable: on `cmp8` a probe with
//! `Interest::NONE` reads 57.1k / 54.2k steps/s against 55.1k / 53.2k
//! bare — §5 of `docs/OBSERVABILITY.md`.

use crate::fault::FaultKind;
use crate::netlist::{EdgeId, InstanceId};
use crate::signal::Wire;
use crate::topology::Topology;
use crate::value::Value;

/// Who resolved a wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResolvedBy {
    /// A module's `react` handler drove the wire.
    Module(InstanceId),
    /// The kernel's default control semantics resolved the wire after
    /// reaction quiescence (paper §2.2: partial specifications execute).
    Default,
}

/// Which of the per-handler-invocation event families a probe consumes.
/// These are the events the reaction and commit loops produce once per
/// handler call or per wire; everything else (step brackets, transfers,
/// faults, recovery events) is per step or rarer and always delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// `react_enter`/`react_exit` and `commit_enter`/`commit_exit`.
    pub handlers: bool,
    /// `signal_resolved`.
    pub resolves: bool,
}

impl Interest {
    /// Every event (the default).
    pub const ALL: Interest = Interest {
        handlers: true,
        resolves: true,
    };
    /// Neither family: step-level events only.
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

/// Observer of the kernel's full event stream. Every method is a no-op by
/// default; implement only the events you need.
///
/// Probes are attached with [`crate::exec::Simulator::set_probe`]; the
/// kernel calls [`Probe::attach`] once so sinks can precompute per-edge
/// state (the VCD writer emits its header there).
#[allow(unused_variables)]
pub trait Probe: Send {
    /// Called once when the probe is installed on a simulator.
    fn attach(&mut self, topo: &Topology) {}

    /// The per-invocation events this probe consumes. Read once, right
    /// after [`Probe::attach`]; the kernel skips producing the families
    /// that are off. A probe may still be *called* for a family it
    /// declined (a [`MultiProbe`] sibling asked for it), so declining is
    /// a cost hint, not a filter.
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

    /// A time-step is starting.
    fn step_begin(&mut self, now: u64) {}

    /// A time-step completed (all wires resolved, commits done).
    fn step_end(&mut self, now: u64) {}

    /// A `react` handler is about to run.
    fn react_enter(&mut self, now: u64, inst: InstanceId) {}

    /// A `react` handler returned.
    fn react_exit(&mut self, now: u64, inst: InstanceId) {}

    /// A `commit` handler is about to run.
    fn commit_enter(&mut self, now: u64, inst: InstanceId) {}

    /// A `commit` handler returned.
    fn commit_exit(&mut self, now: u64, inst: InstanceId) {}

    /// One wire of one connection resolved this step. `yes` is the
    /// resolution polarity; `value` carries the payload for a data wire
    /// resolving `Yes` (enable/ack and `No` resolutions pass `None`).
    fn signal_resolved(
        &mut self,
        now: u64,
        edge: EdgeId,
        wire: Wire,
        yes: bool,
        value: Option<&Value>,
        by: ResolvedBy,
    ) {
    }

    /// A three-way handshake completed on `edge` this step (reported in
    /// edge-id order at the end of the commit phase).
    fn transfer(&mut self, now: u64, edge: EdgeId, src: &str, dst: &str, value: &Value) {}

    /// A wire-level fault from the installed fault plan is active on
    /// `(edge, wire)` this step (reported at step begin, in `(edge,
    /// wire)` order).
    fn fault_injected(&mut self, now: u64, edge: EdgeId, wire: Wire, kind: FaultKind) {}

    /// An instance-level fault (`"panic"` or `"latency"`) is active on
    /// `inst` this step (reported at step begin, in instance-id order).
    fn instance_fault(&mut self, now: u64, inst: InstanceId, kind: &str) {}

    /// `inst` was isolated by the quarantine policy; its handlers will
    /// not run again and its ports fall back to the default control
    /// semantics (reported at step end, in instance-id order).
    fn quarantined(&mut self, now: u64, inst: InstanceId, reason: &str) {}

    /// A checkpoint of the full simulator state was taken after step
    /// `now - 1` completed (i.e. the snapshot resumes at step `now`).
    fn checkpointed(&mut self, now: u64) {}

    /// The simulator state was replaced from a checkpoint; the next step
    /// executed will be `now`.
    fn restored(&mut self, now: u64) {}

    /// The recovery path rewound the run: a failure at step `now` caused
    /// a restore back to step `to` (always ≤ `now`), after masking the
    /// offending fault-plan entries. `reason` describes the trigger.
    fn rolled_back(&mut self, now: u64, to: u64, reason: &str) {}

    /// A governed run observed its [`crate::supervisor::CancelToken`]
    /// tripped and is exiting at the step boundary before step `now`
    /// (after draining in-flight work and taking a final checkpoint).
    fn run_cancelled(&mut self, now: u64) {}
}

/// Fan-out probe: forwards every event to each attached probe in order,
/// so `--trace --vcd --profile` can all observe one run.
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

    /// Number of attached probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// True when no probes are attached.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// The sole probe, unwrapped, when exactly one is attached — lets
    /// front ends skip the fan-out indirection for a single sink.
    pub fn into_single(mut self) -> Result<Box<dyn Probe>, Self> {
        if self.probes.len() == 1 {
            Ok(self.probes.pop().expect("len checked"))
        } else {
            Err(self)
        }
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
    fn step_begin(&mut self, now: u64) {
        for p in &mut self.probes {
            p.step_begin(now);
        }
    }
    fn step_end(&mut self, now: u64) {
        for p in &mut self.probes {
            p.step_end(now);
        }
    }
    fn react_enter(&mut self, now: u64, inst: InstanceId) {
        for p in &mut self.probes {
            p.react_enter(now, inst);
        }
    }
    fn react_exit(&mut self, now: u64, inst: InstanceId) {
        for p in &mut self.probes {
            p.react_exit(now, inst);
        }
    }
    fn commit_enter(&mut self, now: u64, inst: InstanceId) {
        for p in &mut self.probes {
            p.commit_enter(now, inst);
        }
    }
    fn commit_exit(&mut self, now: u64, inst: InstanceId) {
        for p in &mut self.probes {
            p.commit_exit(now, inst);
        }
    }
    fn signal_resolved(
        &mut self,
        now: u64,
        edge: EdgeId,
        wire: Wire,
        yes: bool,
        value: Option<&Value>,
        by: ResolvedBy,
    ) {
        for p in &mut self.probes {
            p.signal_resolved(now, edge, wire, yes, value, by);
        }
    }
    fn transfer(&mut self, now: u64, edge: EdgeId, src: &str, dst: &str, value: &Value) {
        for p in &mut self.probes {
            p.transfer(now, edge, src, dst, value);
        }
    }
    fn fault_injected(&mut self, now: u64, edge: EdgeId, wire: Wire, kind: FaultKind) {
        for p in &mut self.probes {
            p.fault_injected(now, edge, wire, kind);
        }
    }
    fn instance_fault(&mut self, now: u64, inst: InstanceId, kind: &str) {
        for p in &mut self.probes {
            p.instance_fault(now, inst, kind);
        }
    }
    fn quarantined(&mut self, now: u64, inst: InstanceId, reason: &str) {
        for p in &mut self.probes {
            p.quarantined(now, inst, reason);
        }
    }
    fn checkpointed(&mut self, now: u64) {
        for p in &mut self.probes {
            p.checkpointed(now);
        }
    }
    fn restored(&mut self, now: u64) {
        for p in &mut self.probes {
            p.restored(now);
        }
    }
    fn rolled_back(&mut self, now: u64, to: u64, reason: &str) {
        for p in &mut self.probes {
            p.rolled_back(now, to, reason);
        }
    }
    fn run_cancelled(&mut self, now: u64) {
        for p in &mut self.probes {
            p.run_cancelled(now);
        }
    }
}

/// Event counters, shared through [`ProbeCountsHandle`]. The cheapest
/// possible real sink — the benchmark's stand-in for "a probe is
/// attached" when measuring observation overhead, and a convenient
/// invariant check in tests (e.g. resolutions = 3 × edges × steps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// `step_begin` events seen.
    pub steps: u64,
    /// `react_enter` events seen.
    pub reacts: u64,
    /// `commit_enter` events seen.
    pub commits: u64,
    /// `signal_resolved` events seen.
    pub resolutions: u64,
    /// `signal_resolved` events attributed to the default semantics.
    pub defaults: u64,
    /// `transfer` events seen.
    pub transfers: u64,
    /// `fault_injected` + `instance_fault` events seen.
    pub faults: u64,
    /// `quarantined` events seen.
    pub quarantines: u64,
    /// `checkpointed` events seen.
    pub checkpoints: u64,
    /// `restored` events seen.
    pub restores: u64,
    /// `rolled_back` events seen.
    pub rollbacks: u64,
    /// `run_cancelled` events seen.
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
    fn step_begin(&mut self, _now: u64) {
        self.counts.lock().expect("probe counts lock").steps += 1;
    }
    fn react_enter(&mut self, _now: u64, _inst: InstanceId) {
        self.counts.lock().expect("probe counts lock").reacts += 1;
    }
    fn commit_enter(&mut self, _now: u64, _inst: InstanceId) {
        self.counts.lock().expect("probe counts lock").commits += 1;
    }
    fn signal_resolved(
        &mut self,
        _now: u64,
        _edge: EdgeId,
        _wire: Wire,
        _yes: bool,
        _value: Option<&Value>,
        by: ResolvedBy,
    ) {
        let mut c = self.counts.lock().expect("probe counts lock");
        c.resolutions += 1;
        if by == ResolvedBy::Default {
            c.defaults += 1;
        }
    }
    fn transfer(&mut self, _now: u64, _edge: EdgeId, _src: &str, _dst: &str, _value: &Value) {
        self.counts.lock().expect("probe counts lock").transfers += 1;
    }
    fn fault_injected(&mut self, _now: u64, _edge: EdgeId, _wire: Wire, _kind: FaultKind) {
        self.counts.lock().expect("probe counts lock").faults += 1;
    }
    fn instance_fault(&mut self, _now: u64, _inst: InstanceId, _kind: &str) {
        self.counts.lock().expect("probe counts lock").faults += 1;
    }
    fn quarantined(&mut self, _now: u64, _inst: InstanceId, _reason: &str) {
        self.counts.lock().expect("probe counts lock").quarantines += 1;
    }
    fn checkpointed(&mut self, _now: u64) {
        self.counts.lock().expect("probe counts lock").checkpoints += 1;
    }
    fn restored(&mut self, _now: u64) {
        self.counts.lock().expect("probe counts lock").restores += 1;
    }
    fn rolled_back(&mut self, _now: u64, _to: u64, _reason: &str) {
        self.counts.lock().expect("probe counts lock").rollbacks += 1;
    }
    fn run_cancelled(&mut self, _now: u64) {
        self.counts.lock().expect("probe counts lock").cancels += 1;
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

    #[test]
    fn multi_probe_single_unwraps() {
        let mut m = MultiProbe::new();
        assert!(m.is_empty());
        let (c, _h) = CountingProbe::new();
        m.push(Box::new(c));
        assert_eq!(m.len(), 1);
        assert!(m.into_single().is_ok());
        let mut m2 = MultiProbe::new();
        let (c1, _h1) = CountingProbe::new();
        let (c2, _h2) = CountingProbe::new();
        m2.push(Box::new(c1));
        m2.push(Box::new(c2));
        assert!(m2.into_single().is_err());
    }
}
