//! The execution layer: schedulers, phases, and the module-facing
//! contexts (LSE's reactive model of computation).
//!
//! A [`Simulator`] is the thin mutable layer over an immutable
//! [`Topology`] and an epoch-stamped [`SignalStore`]. Each time-step:
//!
//! 1. **Reaction phase** — module `react` handlers run (possibly several
//!    times each) until no more wires can resolve. Wires resolve
//!    monotonically; the fixed point is unique for monotone modules, so the
//!    result is independent of scheduling order.
//! 2. **Default resolution** — any wire still `Unknown` at quiescence gets
//!    the default control semantics (data `No`, enable mirrors data, ack
//!    `Yes`), *one wire at a time*, resuming reactions after each, so a
//!    module woken by a default can still drive its own wires. This is what
//!    makes partial specifications executable (paper §2.2).
//! 3. **Commit phase** — `commit` handlers run once and update internal
//!    state from the completed transfers. Templates that declared
//!    [`crate::module::ModuleSpec::commit_only_when_active`] are skipped
//!    unless they were an endpoint of a completed transfer this step or
//!    self-report [`Module::pending`]; the transfer set is a property of
//!    the unique fixed point, so the skip decision is identical under
//!    every scheduler.
//!
//! Two schedulers reach that fixed point. The compiled scheduler is the
//! engine: it executes a pre-analyzed [`CompiledPlan`] (paper ref [22]'s
//! analysis carried through) — acyclic instances react exactly once, in
//! topological order, with no worklist at all; cyclic SCCs run bounded
//! local fixed-point islands whose wire writes push the plan's wake
//! targets straight onto the worklist. The naive sweep is the oracle it
//! is checked against: it re-invokes every instance in id order until a
//! full pass resolves nothing — no plan, no wake table, no settle marks,
//! no kernels. The two differ only in handler re-invocation counts and
//! wall-clock.

use crate::compile::{CompiledPlan, PlanNode};
use crate::error::{CheckpointError, DivergenceInfo, OscillatingWire, PanicInfo, SimError};
use crate::fault::{apply_fault, ActiveFaults, CompiledFaults, FailurePolicy, FaultPlan};
use crate::kernel::{self, Kernel, Lane, PlanSummary, SpecState};
use crate::module::{Dir, Module, PortId};
use crate::netlist::{EdgeId, InstanceId, Netlist};
use crate::probe::{Handler, Interest, Outcome, Probe, Record, ResolvedBy, StepLog};
use crate::sched::WakeSink;
use crate::signal::{flag, Res, Wire, WireWrite, WriteOutcome};
use crate::snapshot::Snapshot;
use crate::stats::{Stats, StatsReport};
use crate::store::SignalStore;
use crate::supervisor::{RetryCause, Supervisor};
use crate::topology::{InstanceInfo, PortMeta, Topology};
use crate::value::Value;
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Which reaction-phase scheduler to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// Naive repeated full sweeps until quiescence — the unoptimized
    /// reference the engine is checked against (no plan, no wake
    /// tracking, no settle marks, no kernels).
    Sweep,
    /// Statically compiled plan ([`CompiledPlan`]): acyclic instances
    /// react exactly once per step in topological order with no worklist
    /// or wake-table probing; cyclic SCCs run bounded local fixed-point
    /// islands. The logical conclusion of ref [22]'s analysis.
    Compiled,
}

/// Invocation counters exposed for the scheduler-optimization experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineMetrics {
    /// Time-steps executed.
    pub steps: u64,
    /// Total `react` handler invocations.
    pub reacts: u64,
    /// Total `commit` handler invocations.
    pub commits: u64,
    /// Wires resolved by the default control semantics.
    pub defaults: u64,
    /// Fault activations applied by an installed [`FaultPlan`] (one per
    /// active plan entry per step).
    pub faults_injected: u64,
    /// Instances isolated by [`FailurePolicy::Quarantine`] so far.
    pub quarantines: u64,
}

/// Per-run resilience state: only allocated once a fault plan, watchdog
/// or failure policy is installed — a plain simulator carries a single
/// `None`, which each phase tests once; the straight-node hot path never
/// looks at it.
struct ResilState {
    plan: Option<CompiledFaults>,
    policy: FailurePolicy,
    /// Watchdog budget: max `react` invocations per step. Setting it also
    /// switches writes to the oscillation-tolerant mode so cyclically
    /// inconsistent specs iterate (and get diagnosed) instead of dying on
    /// the first non-monotonic write.
    max_iters: Option<u64>,
    quarantined: Vec<bool>,
    /// Faults active in the current step (rebuilt at step begin).
    active: ActiveFaults,
    /// `react` invocations consumed this step (the watchdog's clock).
    iters: u64,
    /// Per-(edge, wire) conflicting re-resolutions this step.
    osc: BTreeMap<(u32, u8), u64>,
    /// Quarantines performed this step, logged in instance-id order at
    /// step end (keeps probe streams byte-identical across schedulers).
    pending_q: Vec<(u32, String)>,
}

/// The executable simulator (paper Fig. 1's "Simulator Executable").
pub struct Simulator {
    topo: Arc<Topology>,
    modules: Vec<Box<dyn Module>>,
    store: SignalStore,
    stats: Stats,
    now: u64,
    sched: SchedKind,
    /// The FIFO worklist, the settle stamps (see [`drain_island`]) and
    /// the resolve log, behind the sink the wire-write path reports to;
    /// shared by the reaction and default phases.
    wake: WakeSink,
    metrics: EngineMetrics,
    probe: Option<Box<dyn Probe>>,
    /// The step log under construction, handed to `probe` when the step
    /// ends or fails; empty between steps.
    log: LogBuf,
    /// Scratch per-instance activity flags for the commit phase; cleared
    /// proportionally to the transfer list, never swept.
    active: Vec<bool>,
    /// Cumulative per-edge completed-transfer counts.
    transfer_counts: Vec<u64>,
    /// Fault-injection / watchdog / quarantine state; `None` (the
    /// default) keeps the plan walk on its unobserved straight-node path.
    resil: Option<Box<ResilState>>,
    /// Run governance, with the methods that set it, in `supervisor.rs`;
    /// `None` until one of them runs.
    pub(crate) sup: Option<Box<Supervisor>>,
    /// The compiled invocation plan ([`SchedKind::Compiled`] only; shared
    /// via the topology's cache).
    plan: Option<Arc<CompiledPlan>>,
    /// Specialized-kernel state for `SchedKind::Compiled`: the
    /// classification, the unboxed lane table, and (while live) the
    /// materialized kernels. `None` when nothing classified as eligible,
    /// so fully dynamic plans pay nothing.
    spec: Option<Box<SpecState>>,
    /// Master switch for handler specialization (default on); see
    /// [`Simulator::set_specialization`].
    spec_enabled: bool,
}

impl Simulator {
    /// Construct a simulator from a validated netlist (convenience over
    /// [`Simulator::from_parts`]).
    pub fn new(net: Netlist, sched: SchedKind) -> Self {
        let (topo, modules) = net.into_parts();
        Self::from_parts(Arc::new(topo), modules, sched)
    }

    /// The layered constructor: run `modules` over a (possibly shared)
    /// immutable topology. Sharing one `Arc<Topology>` between simulators
    /// reuses the reader table and the compiled plan with its wake table.
    pub fn from_parts(
        topo: Arc<Topology>,
        modules: Vec<Box<dyn Module>>,
        sched: SchedKind,
    ) -> Self {
        assert_eq!(
            topo.instance_count(),
            modules.len(),
            "modules must be parallel to the topology's instances"
        );
        let n = topo.instance_count();
        let n_edges = topo.edge_count();
        let plan = (sched == SchedKind::Compiled).then(|| topo.plan().clone());
        // The compiled scheduler keeps a FIFO: islands iterate on it, and
        // the default phase's resume path reuses it. Sweep keeps none.
        let wake = match &plan {
            Some(p) => WakeSink::new(n, p.wake_table().clone(), p.island_count() > 0),
            None => WakeSink::new(0, Arc::new([]), false),
        };
        // Handler specialization: classify once at construction, against
        // the same plan the scheduler runs.
        let spec = plan
            .as_ref()
            .and_then(|p| SpecState::build(&topo, p, &modules));
        Simulator {
            store: SignalStore::new(n_edges),
            modules,
            stats: Stats::new(),
            now: 0,
            sched,
            wake,
            metrics: EngineMetrics::default(),
            probe: None,
            log: LogBuf::default(),
            active: vec![false; n],
            transfer_counts: vec![0; n_edges],
            resil: None,
            sup: None,
            plan,
            spec,
            spec_enabled: true,
            topo,
        }
    }

    /// Enable or disable handler specialization (default: enabled).
    /// Turning it off mid-run writes any live kernel state back into the
    /// modules first, so the switch is observationally invisible.
    pub fn set_specialization(&mut self, on: bool) {
        if !on {
            self.despecialize();
        }
        self.spec_enabled = on;
    }

    /// Which instances of the compiled plan run as type-specialized
    /// kernels, and why the rest stay dynamic. `None` for the
    /// non-compiled schedulers (specialization never applies to them).
    /// This re-renders the construction-time classification; the
    /// `enabled` flag additionally reflects [`Simulator::set_specialization`],
    /// any probe/fault installation that suppressed the fast path, and a
    /// failed lowering that fell back to the dynamic handlers for good.
    pub fn plan_summary(&self) -> Option<PlanSummary> {
        let plan = self.plan.as_ref()?;
        let classification = kernel::classify(&self.topo, plan, &self.modules);
        let fell_back = classification.n_eligible > 0 && self.spec.is_none();
        let enabled =
            self.spec_enabled && self.probe.is_none() && self.resil.is_none() && !fell_back;
        Some(classification.summary(&self.topo, enabled))
    }

    /// Write live kernel state back into the modules and drop the
    /// kernels. Called whenever observation machinery (probes, faults,
    /// watchdogs) attaches, and by [`Simulator::set_specialization`]; the
    /// write-back is lossless by construction, so a failure here is a
    /// kernel bug, not a user error.
    fn despecialize(&mut self) {
        if let Some(spec) = self.spec.as_deref_mut() {
            spec.sync_back(&mut self.modules)
                .expect("kernel state write-back cannot fail for lowered templates");
        }
    }

    fn resil_mut(&mut self) -> &mut ResilState {
        let n = self.topo.instance_count();
        self.resil.get_or_insert_with(|| {
            Box::new(ResilState {
                plan: None,
                policy: FailurePolicy::default(),
                max_iters: None,
                quarantined: vec![false; n],
                active: ActiveFaults::default(),
                iters: 0,
                osc: BTreeMap::new(),
                pending_q: Vec::new(),
            })
        })
    }

    /// Install a fault plan (compiled to per-step schedules). Subsequent
    /// steps inject the plan's faults; combine with
    /// [`Simulator::set_failure_policy`] to survive the induced handler
    /// failures and with [`Simulator::set_watchdog`] to bound divergence.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.despecialize();
        self.resil_mut().plan = Some(plan.compile());
    }

    /// What happens when a module handler panics or errors during a
    /// resilient run (default: [`FailurePolicy::Abort`]). Calling this
    /// (with either policy) opts the run into `catch_unwind` around
    /// handlers, so even `Abort` turns a raw panic into a structured
    /// [`SimError::Panic`].
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.despecialize();
        self.resil_mut().policy = policy;
    }

    /// Bound the reaction phase to `max_iters` `react` invocations per
    /// step. Enabling the watchdog also switches module writes to the
    /// oscillation-tolerant mode: a non-monotonic write re-resolves the
    /// wire and re-wakes its readers instead of erroring, so a cyclically
    /// inconsistent specification iterates until the budget runs out and
    /// then fails with [`SimError::Divergence`] naming the oscillating
    /// wires.
    pub fn set_watchdog(&mut self, max_iters: u64) {
        self.despecialize();
        self.resil_mut().max_iters = Some(max_iters.max(1));
    }

    /// Drop the fault-plan entries behind a failure about to be retried:
    /// the instance faults of instances `ids`, or the wire faults on edges
    /// `ids`. Returns how many entries went.
    pub(crate) fn mask_faults(&mut self, cause: RetryCause, ids: &[u32]) -> usize {
        let Some(plan) = self.resil.as_deref_mut().and_then(|r| r.plan.as_mut()) else {
            return 0;
        };
        ids.iter()
            .map(|&id| match cause {
                RetryCause::Quarantine => plan.mask_instance(id),
                RetryCause::Divergence => plan.mask_edge(id),
            })
            .sum()
    }

    /// The attached probe, for the supervisor's group commit.
    pub(crate) fn probe_mut(&mut self) -> Option<&mut (dyn Probe + 'static)> {
        self.probe.as_deref_mut()
    }

    /// Deliver a run-level record (checkpoint, restore, rollback, cancel)
    /// as it occurs, as a log of its own.
    pub(crate) fn log_now(&mut self, record: Record) {
        if self.probe.is_some() {
            self.log.records.push(record);
            self.deliver(0, 0);
        }
    }

    /// Hand the log to the probe, with the step's engine counts, and
    /// empty it.
    #[inline(never)]
    fn deliver(&mut self, reacts: u64, commits: u64) {
        if let Some(p) = self.probe.as_deref_mut() {
            p.step(&StepLog {
                now: self.now,
                topo: &self.topo,
                store: &self.store,
                reacts,
                commits,
                records: &self.log.records,
            });
        }
        self.log.records.clear();
    }

    /// Capture the full durable simulator state at the current step
    /// boundary: step counter, engine metrics, per-edge transfer counts,
    /// statistics, the quarantine set and one
    /// [`Module::state_save`] blob per instance. Signal-store contents
    /// are *not* captured — every wire re-resolves from `Unknown` each
    /// step, so at a boundary the store is semantically empty.
    pub fn snapshot(&self) -> Result<Snapshot, SimError> {
        // While kernels are live they — not the modules — hold the real
        // state of specialized instances; their blobs are byte-identical
        // to what `state_save` would produce after a write-back.
        let live_kernels = self
            .spec
            .as_deref()
            .filter(|s| s.live)
            .map(|s| s.kernels.as_slice());
        let mut modules = Vec::with_capacity(self.modules.len());
        for (i, m) in self.modules.iter().enumerate() {
            let kernel = live_kernels.and_then(|ks| ks[i].as_ref());
            let blob = match kernel {
                Some(k) => k.state_blob(),
                None => m.state_save(),
            }
            .map_err(|e| {
                SimError::model(format!(
                    "state_save of instance {:?}: {e}",
                    self.topo.name(InstanceId(i as u32))
                ))
            })?;
            modules.push(blob);
        }
        let quarantined: Vec<u32> = self
            .quarantined_instances()
            .into_iter()
            .map(|i| i.0)
            .collect();
        Ok(Snapshot {
            now: self.now,
            n_instances: self.topo.instance_count() as u32,
            n_edges: self.topo.edge_count() as u32,
            metrics: self.metrics,
            transfer_counts: self.transfer_counts.clone(),
            quarantined,
            stats: self.stats.dump(),
            modules,
        })
    }

    /// Replace the simulator's durable state with `snap`'s. The snapshot
    /// must come from an identically built netlist (instance/edge census
    /// is validated; module state blobs are validated by each module).
    /// Fault plans, failure policies and watchdogs are *not* part of a
    /// snapshot — plan activation is a pure function of the step number,
    /// so reinstalling the same plan reproduces the same injections;
    /// re-arm them after restoring into a fresh simulator.
    ///
    /// On success the next [`Simulator::step`] executes step
    /// `snap.now()` and the continuation is bit-exact: canonical probe
    /// streams match the uninterrupted run under every scheduler. On
    /// error the simulator may be partially restored and must be
    /// discarded.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        let n = self.topo.instance_count();
        let n_edges = self.topo.edge_count();
        if snap.n_instances as usize != n || snap.n_edges as usize != n_edges {
            return Err(SimError::checkpoint(CheckpointError::Malformed(format!(
                "snapshot census ({} instances, {} edges) does not fit this netlist \
                 ({n} instances, {n_edges} edges)",
                snap.n_instances, snap.n_edges
            ))));
        }
        // Restored state lands in the modules; drop any live kernels so
        // the next specialized step re-materializes from the modules (and
        // re-binds statistics slots against the replaced `Stats` arena).
        if let Some(spec) = self.spec.as_deref_mut() {
            spec.kernels.clear();
            spec.live = false;
        }
        for (i, m) in self.modules.iter_mut().enumerate() {
            m.state_restore(&snap.modules[i]).map_err(|e| {
                SimError::checkpoint(CheckpointError::Malformed(format!(
                    "state_restore of instance {:?}: {e}",
                    self.topo.name(InstanceId(i as u32))
                )))
            })?;
        }
        self.now = snap.now;
        self.metrics = snap.metrics;
        self.transfer_counts.clone_from(&snap.transfer_counts);
        self.stats = crate::snapshot::stats_from_snapshot(snap);
        // At a step boundary the store is semantically empty: one epoch
        // bump makes every slot stale (`Unknown`), whatever step — failed
        // or complete — wrote it. The epoch only ever grows, so a settle
        // stamp from before the restore can never match a later step.
        self.store.begin_step();
        self.active.iter_mut().for_each(|a| *a = false);
        if let Some(rs) = self.resil.as_deref_mut() {
            rs.quarantined.iter_mut().for_each(|q| *q = false);
            rs.iters = 0;
            rs.osc.clear();
            rs.pending_q.clear();
            rs.active.clear();
        }
        if !snap.quarantined.is_empty() {
            let rs = self.resil_mut();
            for &q in &snap.quarantined {
                rs.quarantined[q as usize] = true;
            }
        }
        self.log_now(Record::Restore);
        Ok(())
    }

    /// True when `inst` has been quarantined by
    /// [`FailurePolicy::Quarantine`].
    pub fn is_quarantined(&self, inst: InstanceId) -> bool {
        self.resil
            .as_ref()
            .is_some_and(|r| r.quarantined.get(inst.0 as usize).copied().unwrap_or(false))
    }

    /// The instances quarantined so far, in id order.
    pub fn quarantined_instances(&self) -> Vec<InstanceId> {
        match &self.resil {
            None => Vec::new(),
            Some(r) => r
                .quarantined
                .iter()
                .enumerate()
                .filter(|(_, &q)| q)
                .map(|(i, _)| InstanceId(i as u32))
                .collect(),
        }
    }

    /// The immutable structure this simulator runs over.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// Attach a probe observing the full kernel event stream. The probe's
    /// [`Probe::attach`] hook runs immediately (VCD sinks emit their
    /// header there); any previously attached probe is replaced.
    pub fn set_probe(&mut self, mut p: Box<dyn Probe>) {
        // Probes observe per-instance react/commit records the specialized
        // path does not write: fall back to the dynamic handlers.
        self.despecialize();
        p.attach(&self.topo);
        self.log.interest = p.interest();
        self.probe = Some(p);
    }

    /// Detach and return the current probe, if any (sinks that buffer —
    /// e.g. the VCD writer — flush on drop; call [`Probe::sync`] first to
    /// see a write error).
    pub fn take_probe(&mut self) -> Option<Box<dyn Probe>> {
        self.log.interest = Interest::NONE;
        self.probe.take()
    }

    /// Current time-step number (cycles completed).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Engine invocation counters.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// Which scheduler this simulator runs.
    pub fn sched(&self) -> SchedKind {
        self.sched
    }

    /// The compiled invocation plan, when running [`SchedKind::Compiled`].
    pub fn compiled_plan(&self) -> Option<&Arc<CompiledPlan>> {
        self.plan.as_ref()
    }

    /// Instance names in id order (for stats reports).
    pub fn instance_names(&self) -> impl Iterator<Item = &str> {
        self.topo.instance_names()
    }

    /// Look up an instance id by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstanceId> {
        self.topo.instance_by_name(name)
    }

    /// Build a serializable statistics report.
    pub fn report(&self) -> StatsReport {
        let names: Vec<&str> = self.topo.instance_names().collect();
        self.stats.report(&names)
    }

    /// How many instances of each template the netlist contains — the
    /// ground truth for the reuse census (experiment E6).
    pub fn template_census(&self) -> std::collections::BTreeMap<String, usize> {
        self.topo.template_census()
    }

    /// Number of connections in the netlist.
    pub fn edge_count(&self) -> usize {
        self.topo.edge_count()
    }

    /// Cumulative completed-transfer count per edge (indexed by
    /// [`EdgeId`]). A scheduler-independent observable: all schedulers
    /// reach the same fixed point, hence the same transfers.
    pub fn transfer_counts(&self) -> &[u64] {
        &self.transfer_counts
    }

    /// Run `cycles` time-steps: [`Simulator::run_until`] with no early
    /// exit.
    pub fn run(&mut self, cycles: u64) -> Result<(), SimError> {
        self.run_until(cycles, |_| false).map(|_| ())
    }

    /// Run until `pred` returns true (checked after each step) or until
    /// `max_cycles` elapse; returns the number of steps completed. Budget
    /// and cancellation stops return `Ok` (the details are in
    /// [`Simulator::last_run_report`]); only a failed run is an `Err`.
    pub fn run_until(
        &mut self,
        max_cycles: u64,
        pred: impl FnMut(&Stats) -> bool,
    ) -> Result<u64, SimError> {
        let report = self.supervised(max_cycles, pred);
        match report.error {
            Some(e) => Err(e),
            None => Ok(report.steps_completed),
        }
    }

    /// Execute one complete time-step. With a probe attached, the step's
    /// log is delivered on the way out, whether the step completed or
    /// failed.
    pub fn step(&mut self) -> Result<(), SimError> {
        let (reacts, commits) = (self.metrics.reacts, self.metrics.commits);
        let logged = self.probe.is_some();
        if logged {
            self.log.records.push(Record::StepBegin);
        }
        self.store.begin_step(); // O(1): epoch bump, no per-edge sweep
        self.begin_resilient_step();
        let r = self.phases();
        if logged {
            if r.is_ok() {
                self.log.records.push(Record::StepEnd);
            }
            let m = self.metrics;
            self.deliver(m.reacts - reacts, m.commits - commits);
        }
        r?;
        self.metrics.steps += 1;
        self.now += 1;
        Ok(())
    }

    /// The three phases, then the step's quarantines into the log.
    fn phases(&mut self) -> Result<(), SimError> {
        self.reaction_phase()?;
        self.default_phase()?;
        self.commit_phase()?;
        self.log_quarantines();
        Ok(())
    }

    /// Reset the watchdog clock, build this step's active-fault table and
    /// log the injections — in sorted `(edge, wire)` / instance order, so
    /// the event stream is scheduler-independent. Nothing to do without
    /// resilience state.
    fn begin_resilient_step(&mut self) {
        let now = self.now;
        let Simulator {
            probe,
            log,
            resil,
            metrics,
            ..
        } = self;
        let Some(rs) = resil.as_deref_mut() else {
            return;
        };
        rs.iters = 0;
        rs.osc.clear();
        let ResilState { plan, active, .. } = &mut *rs;
        match plan {
            Some(plan) => plan.activate(now, active),
            None => active.clear(),
        }
        if active.is_empty() {
            return;
        }
        metrics.faults_injected +=
            (active.signals.len() + active.panics.len() + active.latency.len()) as u64;
        if probe.is_some() {
            let records = &mut log.records;
            for &(edge, widx, kind) in &active.signals {
                let (edge, wire) = (EdgeId(edge), wire_from_idx(widx));
                records.push(Record::Fault { edge, wire, kind });
            }
            let inst_fault = |i, kind| Record::InstanceFault {
                inst: InstanceId(i),
                kind: Cow::Borrowed(kind),
            };
            for &i in &active.panics {
                records.push(inst_fault(i, "panic"));
            }
            for &(i, _) in &active.latency {
                records.push(inst_fault(i, "latency"));
            }
        }
    }

    /// Log this step's quarantines in instance-id order (they are
    /// discovered in scheduler-dependent order during the phases).
    fn log_quarantines(&mut self) {
        let Simulator {
            probe, log, resil, ..
        } = self;
        let Some(rs) = resil.as_deref_mut().filter(|rs| !rs.pending_q.is_empty()) else {
            return;
        };
        rs.pending_q.sort_by_key(|q| q.0);
        // Dropped unread, the drain still empties the queue.
        let quarantines = rs.pending_q.drain(..);
        if probe.is_some() {
            log.records
                .extend(quarantines.map(|(i, reason)| Record::Quarantine {
                    inst: InstanceId(i),
                    reason,
                }));
        }
    }

    /// Run the reaction phase: the compiled scheduler walks its plan,
    /// Sweep sweeps to quiescence.
    fn reaction_phase(&mut self) -> Result<(), SimError> {
        match self.sched {
            SchedKind::Compiled => self.reaction_compiled(),
            SchedKind::Sweep => self.drain(),
        }
    }

    /// Resume reactions after a default resolution woke `seed`.
    fn resume(&mut self, seed: u32) -> Result<(), SimError> {
        if self.sched == SchedKind::Compiled {
            debug_assert!(self.wake.fifo.is_empty());
            self.wake.push(seed);
        }
        self.drain()
    }

    /// Drain to quiescence: Sweep sweeps every instance until a pass
    /// resolves nothing; the compiled scheduler drains its FIFO, waking
    /// the reader of each newly resolved wire. Every invocation goes
    /// through [`react_one`], which tests the log and the resilience
    /// state at run time: neither scheduler's drain is on the engine's
    /// hot path (that is the plan walk's straight nodes and kernels).
    fn drain(&mut self) -> Result<(), SimError> {
        let r = self.drain_impl();
        if r.is_err() {
            // Leave the worklist reusable after a structured failure
            // (divergence / abort) so a later step cannot observe stale
            // queue entries.
            self.wake.clear();
        }
        r
    }

    fn drain_impl(&mut self) -> Result<(), SimError> {
        let Simulator {
            topo,
            modules,
            store,
            stats,
            now,
            sched,
            wake,
            metrics,
            log,
            resil,
            ..
        } = self;
        let topo: &Topology = topo;
        let mut log = log.for_loops();
        let mut resil = resil.as_deref_mut();
        // Draining wakes from the resolve log of each react: any reader
        // anywhere, not the plan's island-filtered targets.
        wake.worklist();
        match sched {
            SchedKind::Sweep => loop {
                let mut progressed = false;
                for i in 0..topo.instance_count() {
                    let (log, rs) = (log.as_deref_mut(), resil.as_deref_mut());
                    react_one(topo, modules, store, stats, metrics, *now, i, wake, log, rs)?;
                    progressed |= !wake.log.is_empty();
                }
                if !progressed {
                    return Ok(());
                }
            },
            SchedKind::Compiled => {
                while let Some(i) = wake.pop() {
                    let (log, rs) = (log.as_deref_mut(), resil.as_deref_mut());
                    let i = i as usize;
                    react_one(topo, modules, store, stats, metrics, *now, i, wake, log, rs)?;
                    for &(e, wire) in &wake.log {
                        if let Some(t) = topo.reader(wire, e) {
                            if !wake.queued[t as usize] {
                                wake.queued[t as usize] = true;
                                wake.fifo.push_back(t);
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    /// Reaction phase for the compiled scheduler: execute the plan instead
    /// of seeding and draining a worklist.
    fn reaction_compiled(&mut self) -> Result<(), SimError> {
        // Lazily lower module state into kernels on the first unobserved
        // step. A materialization failure permanently falls back to the
        // dynamic handlers — never a wrong answer.
        if self.spec_enabled && self.probe.is_none() && self.resil.is_none() {
            if let Some(spec) = self.spec.as_deref_mut().filter(|s| !s.live) {
                if spec.materialize(&self.topo, &self.modules).is_err() {
                    self.spec = None;
                }
            }
        }
        let r = self.compiled_serial();
        if r.is_err() {
            self.wake.clear();
        }
        r
    }

    /// One pass over the plan: straight nodes react exactly once (their
    /// producers all sit earlier in the plan, so their inputs are final —
    /// monotonicity plus the unique fixed point make a single invocation
    /// sufficient); islands run a local FIFO fixed point. While kernels
    /// are live the walk is two-tier: a straight node with a kernel runs
    /// it over the unboxed lanes (no vtable, no `Value` boxing, no store
    /// round-trip) and an island runs entirely specialized or entirely
    /// dynamic (the classifier enforces all-or-none membership).
    ///
    /// Observation is data: one test of the log and the resilience state
    /// per step picks the walk. Unobserved — no resilience state, and no
    /// probe asking for handler or resolve records — straight nodes run
    /// [`react_straight`] or their kernel (no log or fault code at all);
    /// observed, every node goes through [`react_one`].
    fn compiled_serial(&mut self) -> Result<(), SimError> {
        let Simulator {
            topo,
            modules,
            store,
            stats,
            now,
            wake,
            metrics,
            log,
            resil,
            plan,
            spec,
            ..
        } = self;
        let plan: &CompiledPlan = plan.as_ref().expect("compiled scheduler without a plan");
        let topo: &Topology = topo;
        let mut log = log.for_loops();
        let mut resil = resil.as_deref_mut();
        let observed = log.is_some() || resil.is_some();
        let (kernels, lanes, spec_islands) = live_kernels(spec);
        debug_assert!(kernels.is_empty() || !observed);
        for l in lanes.iter_mut() {
            l.reset();
        }
        // Fast lanes bypass the store entirely; credit their wires
        // wholesale so the store's full-resolution accounting (the default
        // phase's early-out) stays exact.
        store.credit_fast_resolved(3 * lanes.len() as u64);
        if !observed {
            // Every straight node reacts exactly once per step; count the
            // whole batch up front instead of once per handler call.
            metrics.reacts += plan.straight_count() as u64;
            if plan.is_fully_acyclic() && kernels.is_empty() {
                // Fully acyclic netlist: the plan is a bare instance-id
                // sequence — no enum dispatch, no island machinery.
                for &i in plan.straight_ids() {
                    react_straight(topo, modules, store, stats, *now, i as usize)?;
                }
                return Ok(());
            }
        }
        // A tolerant write can re-resolve a wire an invocation has read,
        // so a resilient walk settles nothing and drops no wake.
        let settle_epoch = resil.is_none().then(|| store.epoch());
        wake.plan_walk(
            settle_epoch,
            log.as_ref().is_some_and(|l| l.interest.resolves),
        );
        for node in plan.nodes() {
            match node {
                &PlanNode::Straight(i) => {
                    // Nothing is woken: the wake table holds no target
                    // for a straight node's wires — every reader is a
                    // strictly later plan node and runs regardless (a
                    // reactive ack reader would share an island with it).
                    let i = i as usize;
                    if observed {
                        let (log, rs) = (log.as_deref_mut(), resil.as_deref_mut());
                        react_one(topo, modules, store, stats, metrics, *now, i, wake, log, rs)?;
                    } else if let Some(k) = kernels.get(i).and_then(Option::as_ref) {
                        let mut io = kernel::Io {
                            lanes: &mut *lanes,
                            store,
                            wake: None,
                            now: *now,
                            saw_unknown: false,
                        };
                        k.react(&mut io)?;
                    } else {
                        react_straight(topo, modules, store, stats, *now, i)?;
                    }
                }
                PlanNode::Island { island, members } => {
                    if spec_islands.get(*island as usize).is_some_and(|&s| s) {
                        drain_island_spec(kernels, lanes, store, metrics, *now, members, wake)?;
                    } else {
                        let (log, rs) = (log.as_deref_mut(), resil.as_deref_mut());
                        drain_island(
                            topo, modules, store, stats, metrics, *now, members, wake, log, rs,
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Lazy default resolution: default the lowest-numbered unresolved
    /// wire, wake its readers, resume reactions; repeat to full resolution.
    fn default_phase(&mut self) -> Result<(), SimError> {
        // Well-behaved netlists resolve every wire during the reaction
        // phase; the store counts resolutions, so that common case is a
        // single comparison instead of an O(edges) cursor sweep.
        if self.store.fully_resolved_step() {
            return Ok(());
        }
        let n_edges = self.topo.edge_count();
        let mut cursor = 0usize;
        loop {
            // Advance past fully resolved edges; resolution is monotone so
            // the cursor never needs to move backwards. Fast lanes are
            // skipped outright: kernels resolve them exhaustively during
            // the reaction phase (the classifier only admits shapes whose
            // handlers drive every wire), so the store's unresolved view
            // of those edges is a bypass artifact, not missing work.
            while cursor < n_edges
                && (self.store.is_fully_resolved(EdgeId(cursor as u32)) || self.fast_edge(cursor))
            {
                cursor += 1;
            }
            if cursor >= n_edges {
                return Ok(());
            }
            let e = EdgeId(cursor as u32);
            let write = if !self.store.data(e).is_resolved() {
                WireWrite::Data(Res::No)
            } else if !self.store.enable(e).is_resolved() {
                WireWrite::Enable(flag(self.store.data(e).is_yes()))
            } else {
                WireWrite::Ack(Res::Yes(()))
            };
            let wire = write.wire();
            self.store.write(e, write)?;
            self.metrics.defaults += 1;
            if self.log.interest.resolves {
                self.log.resolved(&self.store, e, wire, ResolvedBy::Default);
            }
            if let Some(reader) = self.topo.reader(wire, e) {
                self.resume(reader)?;
            }
        }
    }

    /// True when edge `e` is shadowed by a live kernel lane this step (so
    /// the default phase must not try to resolve it through the store).
    #[inline]
    fn fast_edge(&self, e: usize) -> bool {
        self.spec
            .as_deref()
            .is_some_and(|s| s.live && s.plan.lane_of[e] != kernel::NO_LANE)
    }

    /// Commit with activity tracking: gated instances commit only when
    /// they were an endpoint of a completed transfer or report pending
    /// internal state; everyone else commits unconditionally. While
    /// kernels are live, completed fast-lane handshakes are folded into
    /// the same activity marks and per-edge transfer counts the store walk
    /// produces, and an instance with a kernel commits through it. With
    /// resilience state, quarantined instances are skipped, handlers run
    /// under `catch_unwind` with their failures going through
    /// [`on_failure`], and the transfer list is repaired first in case
    /// oscillation-tolerant writes dirtied it.
    fn commit_phase(&mut self) -> Result<(), SimError> {
        let Simulator {
            topo,
            modules,
            store,
            stats,
            now,
            metrics,
            probe,
            log,
            active,
            transfer_counts,
            resil,
            spec,
            ..
        } = self;
        let topo: &Topology = topo;
        let (kernels, lanes, _) = live_kernels(spec);
        let mut resil = resil.as_deref_mut();
        if resil.is_some() {
            store.finalize_transfers();
        }
        // Endpoint marks only when somebody is gated on them.
        let gated = topo.any_commit_gated();
        for lane in lanes.iter_mut() {
            debug_assert!(
                lane.fully_resolved(),
                "kernel left a fast lane unresolved (edge {})",
                lane.edge.0
            );
            if lane.completes() {
                lane.transferred = true;
                transfer_counts[lane.edge.0 as usize] += 1;
                if gated {
                    mark_endpoints(topo, active, lane.edge, true);
                }
            }
        }
        for &e in store.transfers() {
            transfer_counts[e.0 as usize] += 1;
            if gated {
                mark_endpoints(topo, active, e, true);
            }
        }
        let result = (|| {
            if topo.all_commit_noop() && resil.is_none() {
                return Ok(());
            }
            let mut loop_log = log.for_loops();
            for (i, module) in modules.iter_mut().enumerate() {
                if topo.commit_noop(i) || resil.as_ref().is_some_and(|rs| rs.quarantined[i]) {
                    continue;
                }
                let kernel = kernels.get_mut(i).and_then(Option::as_mut);
                if topo.commit_gated(i) && !active[i] {
                    let pending = match &kernel {
                        Some(k) => k.pending(),
                        None => module.pending(),
                    };
                    if !pending {
                        continue;
                    }
                }
                metrics.commits += 1;
                if let Some(k) = kernel {
                    k.commit(lanes, store, stats, *now);
                    continue;
                }
                let inst = InstanceId(i as u32);
                if let Some(l) = loop_log.as_deref_mut() {
                    l.open(Record::Commit, inst);
                }
                let mut ctx = CommitCtx::new(topo, inst, store, stats, *now);
                let outcome = if resil.is_some() {
                    caught(|| module.commit(&mut ctx))
                } else {
                    module.commit(&mut ctx).map_err(Failure::Error)
                };
                if let Some(l) = loop_log.as_deref_mut() {
                    l.close(outcome.is_ok());
                }
                if let Err(f) = outcome {
                    let rs = resil.as_deref_mut();
                    on_failure("commit", f, rs, metrics, topo, module.as_mut(), i, *now)?;
                }
            }
            if probe.is_some() {
                log.transfers(topo, store)?;
            }
            Ok(())
        })();
        // Clear the marks by re-walking both transfer sources: cost stays
        // proportional to activity, not to instance count. Runs even on
        // the error path so a failed step cannot poison the next one.
        if gated {
            for lane in lanes.iter().filter(|l| l.transferred) {
                mark_endpoints(topo, active, lane.edge, false);
            }
            for &e in store.transfers() {
                mark_endpoints(topo, active, e, false);
            }
        }
        result
    }
}

/// Set the commit phase's activity mark of both endpoints of `e`.
#[inline]
fn mark_endpoints(topo: &Topology, active: &mut [bool], e: EdgeId, on: bool) {
    let em = topo.edge_meta(e);
    active[em.src.inst.0 as usize] = on;
    active[em.dst.inst.0 as usize] = on;
}

/// The live kernels, their lanes and the per-island "runs specialized"
/// flags, as slices: all empty while nothing is materialized, so every
/// lookup the plan walk and the commit phase make answers "dynamic".
/// Kernels are only ever live unobserved: attaching a probe, fault plan,
/// watchdog or failure policy writes them back first.
fn live_kernels(
    spec: &mut Option<Box<SpecState>>,
) -> (&mut [Option<Kernel>], &mut [Lane], &[bool]) {
    match spec.as_deref_mut() {
        Some(s) if s.live => (
            s.kernels.as_mut_slice(),
            s.lanes.as_mut_slice(),
            s.plan.spec_islands.as_slice(),
        ),
        _ => (&mut [], &mut [], &[]),
    }
}

/// Extract a readable message from a caught panic payload.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

fn wire_from_idx(widx: u8) -> Wire {
    match widx {
        0 => Wire::Data,
        1 => Wire::Enable,
        _ => Wire::Ack,
    }
}

/// Isolate instance `i` for the rest of the run (idempotent).
fn quarantine(rs: &mut ResilState, metrics: &mut EngineMetrics, i: usize, reason: String) {
    if !rs.quarantined[i] {
        rs.quarantined[i] = true;
        metrics.quarantines += 1;
        rs.pending_q.push((i as u32, reason));
    }
}

/// A freshly quarantined instance's state may be torn: the panic (or
/// error return) interrupted its handler mid-mutation, and how far the
/// mutation got is scheduler-dependent. Reset the module to its initial
/// state via the empty-blob [`Module::state_restore`] contract so
/// quarantined instances stay deterministic (snapshots of the run remain
/// scheduler-independent). A module whose reset itself panics keeps its
/// torn state — it is quarantined and never invoked again regardless.
fn scrub_module_state(m: &mut dyn Module) {
    let _ = catch_unwind(AssertUnwindSafe(|| m.state_restore(&[])));
}

/// How a handler invocation failed: it returned an error, or it panicked
/// with this message (caught only with resilience state).
enum Failure {
    Error(SimError),
    Panic(String),
}

/// Run `handler` under `catch_unwind`, folding a panic into a [`Failure`].
fn caught(handler: impl FnOnce() -> Result<(), SimError>) -> Result<(), Failure> {
    match catch_unwind(AssertUnwindSafe(handler)) {
        Ok(r) => r.map_err(Failure::Error),
        Err(payload) => Err(Failure::Panic(panic_message(payload))),
    }
}

/// Apply the failure policy to instance `i`'s failed `phase` handler
/// ("react" or "commit") — the one place either phase decides what a
/// failure means. `Ok`: under [`FailurePolicy::Quarantine`] the instance
/// is now quarantined with its state scrubbed, and the phase goes on
/// without it. `Err`: the step fails, with the handler's error or a
/// [`SimError::Panic`] naming the instance.
#[cold]
#[allow(clippy::too_many_arguments)]
fn on_failure(
    phase: &str,
    failure: Failure,
    resil: Option<&mut ResilState>,
    metrics: &mut EngineMetrics,
    topo: &Topology,
    module: &mut dyn Module,
    i: usize,
    now: u64,
) -> Result<(), SimError> {
    let Some(rs) = resil.filter(|rs| rs.policy == FailurePolicy::Quarantine) else {
        return Err(match failure {
            Failure::Error(e) => e,
            Failure::Panic(message) => SimError::Panic(Box::new(PanicInfo {
                instance: topo.name(InstanceId(i as u32)).to_owned(),
                step: now,
                message,
            })),
        });
    };
    let reason = match failure {
        Failure::Error(e) => format!("{phase} error: {e}"),
        Failure::Panic(msg) => format!("{phase} panic: {msg}"),
    };
    quarantine(rs, metrics, i, reason);
    scrub_module_state(module);
    Ok(())
}

/// Build the structured divergence report from the watchdog state: every
/// oscillating wire with its endpoints and flip count, plus the instance
/// cycle, in deterministic order.
#[cold]
fn divergence_error(topo: &Topology, rs: &ResilState, now: u64) -> SimError {
    let mut oscillating = Vec::new();
    let mut insts: Vec<u32> = Vec::new();
    for (&(edge, widx), &flips) in &rs.osc {
        let em = topo.edge_meta(EdgeId(edge));
        oscillating.push(OscillatingWire {
            edge,
            wire: ["data", "enable", "ack"][widx as usize],
            src: topo.name(em.src.inst).to_owned(),
            dst: topo.name(em.dst.inst).to_owned(),
            flips,
        });
        insts.push(em.src.inst.0);
        insts.push(em.dst.inst.0);
    }
    insts.sort_unstable();
    insts.dedup();
    let cycle = insts
        .into_iter()
        .map(|i| topo.name(InstanceId(i)).to_owned())
        .collect();
    SimError::Divergence(Box::new(DivergenceInfo {
        step: now,
        iters: rs.iters,
        limit: rs.max_iters.unwrap_or(0),
        oscillating,
        cycle,
    }))
}

/// Run one cyclic SCC ("island") to its local fixed point with a FIFO
/// worklist. Wakes come from the plan's wake table, pushed by the write
/// that resolved the wire ([`WakeSink::resolved`]); the table is already
/// filtered to island members, since a reader outside the island sits
/// strictly later in the plan and runs regardless. The watchdog /
/// oscillation diagnostics flow through `react_one` unchanged, so a
/// cyclically inconsistent island fails with the same structured
/// [`SimError::Divergence`] a Sweep run produces.
///
/// **Settling.** `react` is a function of module state (which only
/// `commit` changes) and of the wires it reads, and wires resolve
/// monotonically. An invocation that read no `Unknown` wire has therefore
/// seen its final inputs: invoked again this step it would repeat the
/// same writes, all idempotent, and wake nobody. Such an instance is
/// *settled* — stamped with the store epoch — and is never run again this
/// step: a wake that targets it is dropped at the push, and an entry
/// queued before it settled (a self-loop's) is dropped when it is
/// popped. The order of everything that does run, every wake and every
/// resolved wire are exactly those of the unelided drain. A statistic
/// recorded in `react` makes the re-invocation observable, so it pins the
/// instance (never settled).
/// The stamp is scratch: it is compared against an epoch that only ever
/// grows, so nothing needs clearing at step begin, on an error, or across
/// a restore, and nothing is serialized.
///
/// With resilience state installed nothing settles: a tolerant write can
/// re-resolve a wire an invocation has read.
#[allow(clippy::too_many_arguments)]
fn drain_island(
    topo: &Topology,
    modules: &mut [Box<dyn Module>],
    store: &mut SignalStore,
    stats: &mut Stats,
    metrics: &mut EngineMetrics,
    now: u64,
    members: &[u32],
    wake: &mut WakeSink,
    mut log: Option<&mut LogBuf>,
    mut resil: Option<&mut ResilState>,
) -> Result<(), SimError> {
    let epoch = resil.is_none().then(|| store.epoch());
    drain_members(members, wake, epoch, |i, wake| {
        let (log, rs) = (log.as_deref_mut(), resil.as_deref_mut());
        react_one(topo, modules, store, stats, metrics, now, i, wake, log, rs)
    })
}

/// The island iteration itself, shared by the dynamic and the specialized
/// driver: seed the members, pop, skip the settled, `invoke`, and stamp
/// with `epoch` whoever it reports settled (`None`: settle nobody).
fn drain_members(
    members: &[u32],
    wake: &mut WakeSink,
    epoch: Option<u64>,
    mut invoke: impl FnMut(usize, &mut WakeSink) -> Result<bool, SimError>,
) -> Result<(), SimError> {
    debug_assert!(wake.fifo.is_empty());
    for &m in members {
        wake.push(m);
    }
    while let Some(i) = wake.pop() {
        let i = i as usize;
        if epoch == Some(wake.settled[i]) {
            continue;
        }
        if invoke(i, wake)? {
            wake.settled[i] = epoch.expect("only an unresilient invocation settles");
        }
    }
    Ok(())
}

/// Run one fully specialized island to its local fixed point. All members
/// are kernels (the classifier's all-or-none rule) and every member edge
/// is a fast lane, so wakes ride on the lane writes: `Io::put` reports
/// newly resolved wires to the same [`WakeSink`], which re-queues island
/// readers exactly like the dynamic island driver — same rule, same
/// invocations. Specialized islands are data-acyclic by construction
/// (only ack feedback), so the fixed point terminates without watchdog
/// support.
fn drain_island_spec(
    kernels: &[Option<Kernel>],
    lanes: &mut [Lane],
    store: &mut SignalStore,
    metrics: &mut EngineMetrics,
    now: u64,
    members: &[u32],
    wake: &mut WakeSink,
) -> Result<(), SimError> {
    let epoch = Some(store.epoch());
    drain_members(members, wake, epoch, |i, wake| {
        metrics.reacts += 1;
        let k = kernels[i]
            .as_ref()
            .expect("specialized island member without a kernel");
        let mut io = kernel::Io {
            lanes: &mut *lanes,
            store: &mut *store,
            wake: Some(wake),
            now,
            saw_unknown: false,
        };
        k.react(&mut io)?;
        Ok(!io.saw_unknown)
    })
}

/// React one *straight* plan node on the log-off, fault-off path: no
/// wake bookkeeping (its readers are all later plan nodes), no newly
/// list, no catch_unwind — the minimal cost of invoking a handler.
#[inline]
fn react_straight(
    topo: &Topology,
    modules: &mut [Box<dyn Module>],
    store: &mut SignalStore,
    stats: &mut Stats,
    now: u64,
    i: usize,
) -> Result<(), SimError> {
    // `metrics.reacts` is batch-incremented by the caller per straight
    // segment (the count is known from the plan), not here per react.
    let mut ctx = ReactCtx::new(
        topo,
        InstanceId(i as u32),
        CtxSink {
            store: &mut *store,
            stats: &mut *stats,
            wake: None,
        },
        now,
    );
    modules[i].react(&mut ctx)
}

/// Invoke one instance's `react` handler with a context over the shared
/// store (free function so callers can borrow disjoint simulator fields).
/// The log and the resilience state arrive as data: with both `None` the
/// invocation is a plain handler call with wake bookkeeping, and each
/// skipped branch costs one test of an `Option`.
///
/// Returns whether the invocation *settled* the instance for the rest of
/// the step — it read no `Unknown` wire and recorded no statistic, so
/// running it again could only repeat its writes (see [`drain_island`],
/// the one caller that acts on it). Never with resilience state: a
/// tolerant write can re-resolve a wire the invocation has already read.
/// `wake` takes the invocation's newly resolved wires; its resolve log
/// restarts here and, when kept, holds exactly them on return.
#[allow(clippy::too_many_arguments)]
fn react_one(
    topo: &Topology,
    modules: &mut [Box<dyn Module>],
    store: &mut SignalStore,
    stats: &mut Stats,
    metrics: &mut EngineMetrics,
    now: u64,
    i: usize,
    wake: &mut WakeSink,
    mut log: Option<&mut LogBuf>,
    mut resil: Option<&mut ResilState>,
) -> Result<bool, SimError> {
    let inst = InstanceId(i as u32);
    wake.log.clear();
    if let Some(rs) = resil.as_deref_mut() {
        if rs.quarantined[i] {
            return Ok(false); // isolated: its ports live on the defaults
        }
        rs.iters += 1;
        if rs.max_iters.is_some_and(|max| rs.iters > max) {
            return Err(divergence_error(topo, rs, now));
        }
        // A plan-injected panic fires at entry of the instance's first
        // react of the step, before any partial writes — scheduler-
        // independent.
        if rs.active.panics(i as u32) {
            let f = Failure::Panic("injected panic (fault plan)".to_owned());
            let module = modules[i].as_mut();
            on_failure("react", f, Some(rs), metrics, topo, module, i, now)?;
            return Ok(false);
        }
        if let Some(us) = rs.active.latency_us(i as u32) {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
    metrics.reacts += 1;
    if let Some(l) = log.as_deref_mut() {
        l.open(Record::React, inst);
    }
    let sink = CtxSink {
        store: &mut *store,
        stats: &mut *stats,
        wake: Some(&mut *wake),
    };
    let mut ctx = ReactCtx::new(topo, inst, sink, now);
    let mut settled = false;
    let outcome = match resil.as_deref_mut() {
        None => {
            let r = modules[i].react(&mut ctx);
            settled = !ctx.pinned.get();
            r.map_err(Failure::Error)
        }
        Some(rs) => {
            let seed = rs.plan.as_ref().map_or(0, |p| p.seed);
            let tolerant = rs.max_iters.is_some();
            let ResilState { active, osc, .. } = rs;
            ctx.faults = (!active.signals.is_empty()).then_some((&*active, seed));
            ctx.osc = tolerant.then_some(osc);
            caught(|| modules[i].react(&mut ctx))
        }
    };
    if let Some(l) = log {
        l.close(outcome.is_ok());
        if l.interest.resolves {
            for &(e, wire) in &wake.log {
                l.resolved(store, e, wire, ResolvedBy::Module(inst));
            }
        }
    }
    if let Err(f) = outcome {
        on_failure(
            "react",
            f,
            resil,
            metrics,
            topo,
            modules[i].as_mut(),
            i,
            now,
        )?;
        return Ok(false);
    }
    Ok(settled)
}

/// The step log under construction: the reused record buffer and the
/// interest `set_probe` read (`NONE` without a probe). Writing records is
/// kept out of line, so none of it is compiled into the loops' unlogged
/// path.
#[derive(Default)]
struct LogBuf {
    records: Vec<Record>,
    interest: Interest,
    /// The handler record [`LogBuf::open`] placed, and its start time:
    /// handlers never nest, so one slot suffices.
    open: Option<(usize, Instant)>,
    /// Scratch for the edge-id-sorted transfer report.
    sorted: Vec<EdgeId>,
}

impl LogBuf {
    /// The log as the reaction, default and commit loops take it: `Some`
    /// only while the probe asked for handler or resolve records.
    fn for_loops(&mut self) -> Option<&mut LogBuf> {
        (self.interest.handlers || self.interest.resolves).then_some(self)
    }

    /// Place `inst`'s handler record where the handler starts, if handler
    /// records were asked for. [`LogBuf::close`] completes it.
    #[inline(never)]
    fn open(&mut self, record: fn(Handler) -> Record, inst: InstanceId) {
        if self.interest.handlers {
            let outcome = Outcome::Open;
            self.records.push(record(Handler {
                inst,
                outcome,
                ns: 0,
            }));
            self.open = Some((self.records.len() - 1, Instant::now()));
        }
    }

    /// Complete the open handler record with how the handler ended.
    #[inline(never)]
    fn close(&mut self, ok: bool) {
        let Some((at, t0)) = self.open.take() else {
            return;
        };
        if let Record::React(h) | Record::Commit(h) = &mut self.records[at] {
            h.outcome = if ok { Outcome::Ok } else { Outcome::Failed };
            h.ns = t0.elapsed().as_nanos() as u64;
        }
    }

    /// Log one newly resolved wire, reading its final value from the
    /// store (data carries the payload; enable/ack just polarity).
    #[inline(never)]
    fn resolved(&mut self, store: &SignalStore, edge: EdgeId, wire: Wire, by: ResolvedBy) {
        let (yes, value) = match wire {
            Wire::Data => {
                let d = store.data(edge);
                (d.is_yes(), d.as_yes().cloned())
            }
            Wire::Enable => (store.enable(edge).is_yes(), None),
            Wire::Ack => (store.ack(edge).is_yes(), None),
        };
        let record = Record::Resolve {
            edge,
            wire,
            yes,
            value,
            by,
        };
        self.records.push(record);
    }

    /// Log this step's transfers in edge-id order, so the stream is
    /// scheduler-independent (the set is; the order they completed in is
    /// not).
    #[inline(never)]
    fn transfers(&mut self, topo: &Topology, store: &SignalStore) -> Result<(), SimError> {
        self.sorted.clear();
        self.sorted.extend_from_slice(store.transfers());
        self.sorted.sort_unstable_by_key(|e| e.0);
        for &edge in &self.sorted {
            let em = topo.edge_meta(edge);
            let Some(v) = store.transferred(edge) else {
                return Err(SimError::internal(format!(
                    "transfer list entry for edge {} has an incomplete handshake",
                    edge.0
                )));
            };
            self.records.push(Record::Transfer {
                edge,
                src: em.src.inst,
                dst: em.dst.inst,
                value: v.clone(),
            });
        }
        Ok(())
    }
}

/// Where a [`ReactCtx`]'s effects land.
struct CtxSink<'a> {
    store: &'a mut SignalStore,
    stats: &'a mut Stats,
    /// Told of each newly resolved wire (it queues the plan's wake
    /// target, keeps the resolve log, or both). `None` for the compiled
    /// scheduler's straight-line nodes (probe off, faults off): they
    /// never wake anyone, so recording their resolutions would be pure
    /// overhead on the hottest path in the kernel.
    wake: Option<&'a mut WakeSink>,
}

/// Context handed to [`Module::react`]: resolved-signal reads plus
/// monotonic wire writes on the reacting instance's own ports.
pub struct ReactCtx<'a> {
    inst: InstanceId,
    info: &'a InstanceInfo,
    /// This instance's slice of the topology's dense port table — the
    /// hot-path view of `info`'s port metadata (one or two cache lines
    /// for a whole netlist's worth of ports).
    pmeta: &'a [PortMeta],
    /// The topology-global flattened port→edge slab `pmeta` indexes.
    eflat: &'a [EdgeId],
    sink: CtxSink<'a>,
    now: u64,
    /// Active fault table and plan seed; `None` on the fault-off path
    /// (and when this step has no active signal faults).
    faults: Option<(&'a ActiveFaults, u64)>,
    /// Oscillation counters; `Some` switches writes to the tolerant mode
    /// (watchdog enabled).
    osc: Option<&'a mut BTreeMap<(u32, u8), u64>>,
    /// Set when this invocation read an `Unknown` wire or recorded a
    /// statistic: either makes a re-invocation observable, so the island
    /// drivers may not settle the instance on it (see [`drain_island`]).
    pinned: Cell<bool>,
}

impl<'a> ReactCtx<'a> {
    /// Built in place at every call site: out of line the sink would be
    /// written to the stack field by field and read back as a block (a
    /// store-forwarding stall per handler invocation).
    #[inline(always)]
    fn new(topo: &'a Topology, inst: InstanceId, sink: CtxSink<'a>, now: u64) -> Self {
        ReactCtx {
            inst,
            info: topo.instance(inst),
            pmeta: topo.hot_ports(inst),
            eflat: topo.edges_flat(),
            sink,
            now,
            faults: None,
            osc: None,
            pinned: Cell::new(false),
        }
    }

    /// Pass a wire read through, noting an `Unknown`.
    #[inline]
    fn seen<T>(&self, r: Res<T>) -> Res<T> {
        if matches!(r, Res::Unknown) {
            self.pinned.set(true);
        }
        r
    }

    /// Current time-step.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This instance's id.
    pub fn instance(&self) -> InstanceId {
        self.inst
    }

    /// This instance's name.
    pub fn name(&self) -> &str {
        &self.info.name
    }

    /// Number of connections on a port (0 when left unconnected).
    pub fn width(&self, port: PortId) -> usize {
        self.pmeta[port.0 as usize].len as usize
    }

    #[inline]
    fn edge(&self, port: PortId, index: usize) -> Option<EdgeId> {
        let m = &self.pmeta[port.0 as usize];
        if (index as u32) < m.len {
            Some(self.eflat[m.off as usize + index])
        } else {
            None
        }
    }

    #[inline]
    fn check_dir(&self, port: PortId, want: Dir) -> Result<(), SimError> {
        if self.pmeta[port.0 as usize].dir != want {
            return Err(SimError::port(format!(
                "{}.{}: wrong direction for this operation",
                self.info.name,
                self.info.spec.port_spec(port).name
            )));
        }
        Ok(())
    }

    /// The data wire arriving on an input connection. An unconnected or
    /// out-of-range slot reads as `No` — the partial-specification default.
    /// Returns a clone; scalar `Value`s are plain copies and the large
    /// variants are reference counted, so this is cheap.
    #[inline]
    pub fn data(&self, port: PortId, index: usize) -> Res<Value> {
        match self.edge(port, index) {
            Some(e) => self.seen(self.sink.store.data(e)),
            None => Res::No,
        }
    }

    /// The enable wire arriving on an input connection.
    #[inline]
    pub fn enable(&self, port: PortId, index: usize) -> Res<()> {
        match self.edge(port, index) {
            Some(e) => self.seen(self.sink.store.enable(e)),
            None => Res::No,
        }
    }

    /// The ack wire arriving on an output connection. Unconnected slots
    /// read as `Yes` (an absent consumer accepts everything).
    ///
    /// Reading acks reactively requires the template to declare
    /// [`crate::module::ModuleSpec::with_ack_in_react`]; otherwise the
    /// kernel does not re-wake this module when acks resolve, and the read
    /// would be racy.
    pub fn ack(&self, port: PortId, index: usize) -> Result<Res<()>, SimError> {
        if !self.info.spec.reads_ack_in_react {
            return Err(SimError::contract(format!(
                "{} ({}): react reads an ack wire but the template did not \
                 declare with_ack_in_react()",
                self.info.name, self.info.spec.template
            )));
        }
        Ok(match self.edge(port, index) {
            Some(e) => self.seen(self.sink.store.ack(e)),
            None => Res::Yes(()),
        })
    }

    /// A store rejection, attributed to this instance.
    #[cold]
    fn contract(&self, err: SimError) -> SimError {
        SimError::contract(format!(
            "{} ({}): {err}",
            self.info.name, self.info.spec.template
        ))
    }

    /// The value-carrying write: a wire drive as a [`WireWrite`], for the
    /// two paths that must see it as one — an active fault transforms (or
    /// swallows) it in flight, the oscillation-tolerant mode counts its
    /// flips — plus [`ReactCtx::set_data`], which has a payload anyway.
    /// Every other drive goes to the store's scalar entry points through
    /// [`ReactCtx::drive`]. Kernel default-semantics writes do not pass
    /// through here and are never faulted.
    fn write(&mut self, e: EdgeId, w: WireWrite) -> Result<(), SimError> {
        let wire = w.wire();
        let w = match &self.faults {
            None => w,
            Some((active, seed)) => match active.signal(e.0, wire) {
                None => w,
                Some(kind) => match apply_fault(kind, w, e.0, self.now, *seed) {
                    Some(w) => w,
                    None => return Ok(()), // dropped on the wire
                },
            },
        };
        let tolerant = self.osc.is_some();
        let CtxSink { store, wake, .. } = &mut self.sink;
        let result = if tolerant {
            store.write_tolerant(e, w)
        } else {
            store.write(e, w)
        };
        match result {
            Ok(WriteOutcome::Idempotent) => Ok(()),
            Ok(outcome) => {
                if outcome == WriteOutcome::Oscillated {
                    if let Some(osc) = self.osc.as_deref_mut() {
                        *osc.entry((e.0, wire.idx() as u8)).or_insert(0) += 1;
                    }
                }
                // An oscillation is re-woken like a fresh resolution: the
                // re-resolved value must propagate to readers (and the
                // watchdog bounds the resulting iteration).
                if let Some(wake) = wake {
                    wake.resolved(e, wire);
                }
                Ok(())
            }
            Err(err) => Err(self.contract(err)),
        }
    }

    /// One handler-level drive of `N` wires of edge `e`: through the
    /// store's scalar entry point (`scalar`, which reports one outcome
    /// per wire of `wires` for the wake sink) when nothing has to see the
    /// drive as a value, otherwise as the [`WireWrite`]s `by_value` spells
    /// it out into — fault table, tolerant mode. `payload` is whatever the
    /// drive carries (a `Value`, a polarity, nothing); it is moved into
    /// exactly one of the two.
    #[inline(always)]
    fn drive<P, const N: usize>(
        &mut self,
        e: EdgeId,
        payload: P,
        wires: [Wire; N],
        scalar: impl FnOnce(&mut SignalStore, EdgeId, P) -> Result<[WriteOutcome; N], SimError>,
        by_value: impl FnOnce(P) -> [WireWrite; N],
    ) -> Result<(), SimError> {
        if self.faults.is_some() || self.osc.is_some() {
            return by_value(payload)
                .into_iter()
                .try_for_each(|w| self.write(e, w));
        }
        let CtxSink { store, wake, .. } = &mut self.sink;
        match scalar(store, e, payload) {
            Ok(outcomes) => {
                if let Some(wake) = wake {
                    for (wire, o) in wires.into_iter().zip(outcomes) {
                        if o == WriteOutcome::NewlyResolved {
                            wake.resolved(e, wire);
                        }
                    }
                }
                Ok(())
            }
            Err(err) => Err(self.contract(err)),
        }
    }

    /// Send a value on an output connection: drives data `Yes` and enable
    /// `Yes` together (the common case) — one edge lookup and one store
    /// slot access.
    #[inline]
    pub fn send(&mut self, port: PortId, index: usize, v: Value) -> Result<(), SimError> {
        self.check_dir(port, Dir::Out)?;
        let Some(e) = self.edge(port, index) else {
            return Ok(()); // unconnected: silently accepted (partial spec)
        };
        self.drive(
            e,
            v,
            [Wire::Data, Wire::Enable],
            |store, e, v| store.send(e, v),
            |v| {
                [
                    WireWrite::Data(Res::Yes(v)),
                    WireWrite::Enable(Res::Yes(())),
                ]
            },
        )
    }

    /// Explicitly send nothing on an output connection this time-step:
    /// drives data `No` and enable `No`. Well-behaved modules resolve every
    /// connected output rather than leaving it to the defaults.
    #[inline]
    pub fn send_nothing(&mut self, port: PortId, index: usize) -> Result<(), SimError> {
        self.check_dir(port, Dir::Out)?;
        let Some(e) = self.edge(port, index) else {
            return Ok(());
        };
        self.drive(
            e,
            (),
            [Wire::Data, Wire::Enable],
            |store, e, ()| store.send_nothing(e),
            |()| [WireWrite::Data(Res::No), WireWrite::Enable(Res::No)],
        )
    }

    /// Drive only the data wire (control-split protocols that decide enable
    /// separately).
    pub fn set_data(&mut self, port: PortId, index: usize, v: Res<Value>) -> Result<(), SimError> {
        self.check_dir(port, Dir::Out)?;
        match self.edge(port, index) {
            Some(e) => self.write(e, WireWrite::Data(v)),
            None => Ok(()),
        }
    }

    /// Drive only the enable wire.
    pub fn set_enable(&mut self, port: PortId, index: usize, en: bool) -> Result<(), SimError> {
        self.check_dir(port, Dir::Out)?;
        let Some(e) = self.edge(port, index) else {
            return Ok(());
        };
        self.drive(
            e,
            en,
            [Wire::Enable],
            |store, e, en| store.write_enable(e, en).map(|o| [o]),
            |en| [WireWrite::Enable(flag(en))],
        )
    }

    /// Drive the ack wire of `e`, an input connection's edge.
    #[inline(always)]
    fn drive_ack(&mut self, e: EdgeId, accept: bool) -> Result<(), SimError> {
        self.drive(
            e,
            accept,
            [Wire::Ack],
            |store, e, accept| store.write_ack(e, accept).map(|o| [o]),
            |accept| [WireWrite::Ack(flag(accept))],
        )
    }

    /// Drive the ack wire of an input connection: accept (`true`) or
    /// refuse (`false`) the offered data.
    #[inline]
    pub fn set_ack(&mut self, port: PortId, index: usize, accept: bool) -> Result<(), SimError> {
        self.check_dir(port, Dir::In)?;
        match self.edge(port, index) {
            Some(e) => self.drive_ack(e, accept),
            None => Ok(()),
        }
    }

    /// Fused receive: drive the ack wire of an input connection *and*
    /// read its data wire with one edge lookup — the receiver-side twin
    /// of [`ReactCtx::send`]'s fused data+enable drive, and the idiom
    /// for the overwhelmingly common "accept whatever arrives, then look
    /// at it" receiver. Exactly equivalent to
    /// [`ReactCtx::set_ack`] followed by [`ReactCtx::data`].
    /// An unconnected slot reads as `No` (the ack is silently accepted).
    #[inline]
    pub fn recv(
        &mut self,
        port: PortId,
        index: usize,
        accept: bool,
    ) -> Result<Res<Value>, SimError> {
        self.check_dir(port, Dir::In)?;
        let Some(e) = self.edge(port, index) else {
            return Ok(Res::No); // unconnected: partial-spec default
        };
        self.drive_ack(e, accept)?;
        Ok(self.seen(self.sink.store.data(e)))
    }

    /// Add to one of this instance's counters.
    pub fn count(&mut self, name: &'static str, by: u64) {
        self.pinned.set(true);
        self.sink.stats.count(self.inst, name, by);
    }

    /// Record a sample on one of this instance's sampled stats.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.pinned.set(true);
        self.sink.stats.sample(self.inst, name, v);
    }

    /// Record a value into one of this instance's log2-bucket histograms
    /// (latency/occupancy distributions, not just min/mean/max).
    pub fn histo(&mut self, name: &'static str, v: u64) {
        self.pinned.set(true);
        self.sink.stats.histo(self.inst, name, v);
    }
}

/// Context handed to [`Module::commit`]: read-only access to the fully
/// resolved signals of the time-step, plus statistics.
pub struct CommitCtx<'a> {
    inst: InstanceId,
    info: &'a InstanceInfo,
    /// The dense port view [`ReactCtx`] uses (see there).
    pmeta: &'a [PortMeta],
    eflat: &'a [EdgeId],
    store: &'a SignalStore,
    stats: &'a mut Stats,
    now: u64,
}

impl<'a> CommitCtx<'a> {
    /// Current time-step.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// This instance's id.
    pub fn instance(&self) -> InstanceId {
        self.inst
    }

    /// This instance's name.
    pub fn name(&self) -> &str {
        &self.info.name
    }

    fn new(
        topo: &'a Topology,
        inst: InstanceId,
        store: &'a SignalStore,
        stats: &'a mut Stats,
        now: u64,
    ) -> Self {
        CommitCtx {
            inst,
            info: topo.instance(inst),
            pmeta: topo.hot_ports(inst),
            eflat: topo.edges_flat(),
            store,
            stats,
            now,
        }
    }

    /// Number of connections on a port.
    pub fn width(&self, port: PortId) -> usize {
        self.pmeta[port.0 as usize].len as usize
    }

    #[inline]
    fn edge(&self, port: PortId, index: usize) -> Option<EdgeId> {
        let m = &self.pmeta[port.0 as usize];
        ((index as u32) < m.len).then(|| self.eflat[m.off as usize + index])
    }

    /// The value transferred in on an input connection this time-step
    /// (data present, enabled and accepted), if any. Returns a clone;
    /// `Value` payloads are reference counted, so this is cheap.
    pub fn transferred_in(&self, port: PortId, index: usize) -> Option<Value> {
        let e = self.edge(port, index)?;
        self.store.transferred(e).cloned()
    }

    /// True iff the value this instance sent on an output connection was
    /// accepted (the transfer completed). An unconnected slot reads as
    /// `true` — the partial-specification default is that an absent
    /// consumer accepts everything — so this is only meaningful when the
    /// module actually offered something this cycle.
    pub fn transferred_out(&self, port: PortId, index: usize) -> bool {
        match self.edge(port, index) {
            Some(e) => self.store.transfers_on(e),
            None => true,
        }
    }

    /// Final resolution of the data wire on an input connection (a clone).
    pub fn data(&self, port: PortId, index: usize) -> Res<Value> {
        match self.edge(port, index) {
            Some(e) => self.store.data(e),
            None => Res::No,
        }
    }

    /// Final resolution of the ack wire on an output connection.
    pub fn acked(&self, port: PortId, index: usize) -> bool {
        match self.edge(port, index) {
            Some(e) => self.store.ack(e).is_yes(),
            None => true,
        }
    }

    /// Add to one of this instance's counters.
    pub fn count(&mut self, name: &'static str, by: u64) {
        self.stats.count(self.inst, name, by);
    }

    /// Record a sample on one of this instance's sampled stats.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.stats.sample(self.inst, name, v);
    }

    /// Record a value into one of this instance's log2-bucket histograms
    /// (latency/occupancy distributions, not just min/mean/max).
    pub fn histo(&mut self, name: &'static str, v: u64) {
        self.stats.histo(self.inst, name, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleSpec;
    use crate::netlist::NetlistBuilder;
    use crate::supervisor::{BudgetKind, CancelToken, RetryPolicy, RunBudget, RunOutcome};

    /// Sends its cycle number every step.
    struct Src;
    impl Module for Src {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    /// Sends on even cycles only (resolves its output explicitly).
    struct EvenSrc;
    impl Module for EvenSrc {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            if ctx.now().is_multiple_of(2) {
                ctx.send(PortId(0), 0, Value::Word(ctx.now()))
            } else {
                ctx.send_nothing(PortId(0), 0)
            }
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    /// Accepts everything; counts received values in commit. Opted into
    /// activity-gated commit with no pending state.
    struct GatedSink;
    impl Module for GatedSink {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, true)
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            ctx.count("commits", 1);
            if ctx.transferred_in(PortId(0), 0).is_some() {
                ctx.count("received", 1);
            }
            Ok(())
        }
    }

    fn gated_sink_spec() -> ModuleSpec {
        ModuleSpec::new("gsink")
            .input("in", 1, 1)
            .commit_only_when_active()
    }

    fn even_pair(sched: SchedKind) -> Simulator {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("esrc").output("out", 1, 1),
                Box::new(EvenSrc),
            )
            .unwrap();
        let k = b.add("k", gated_sink_spec(), Box::new(GatedSink)).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        Simulator::new(b.build().unwrap(), sched)
    }

    #[test]
    fn gated_commit_skips_idle_steps() {
        // 10 steps, transfers on the 5 even ones: the ungated source
        // commits 10 times, the gated sink only 5.
        let mut sim = even_pair(SchedKind::Compiled);
        sim.run(10).unwrap();
        assert_eq!(sim.metrics().steps, 10);
        assert_eq!(sim.metrics().commits, 10 + 5);
        let k = sim.instance_by_name("k").unwrap();
        assert_eq!(sim.stats().counter(k, "received"), 5);
    }

    #[test]
    fn gated_commit_set_is_scheduler_independent() {
        let mut commits = Vec::new();
        for sched in ALL_SCHEDS {
            let mut sim = even_pair(sched);
            sim.run(9).unwrap();
            commits.push(sim.metrics().commits);
        }
        for c in &commits[1..] {
            assert_eq!(*c, commits[0]);
        }
    }

    /// Gated module with internal pending state: a one-slot delay line.
    struct PendingReg {
        held: Option<Value>,
    }
    impl Module for PendingReg {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            match &self.held {
                Some(v) => ctx.send(PortId(1), 0, v.clone())?,
                None => ctx.send_nothing(PortId(1), 0)?,
            }
            ctx.set_ack(PortId(0), 0, self.held.is_none())
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            if self.held.is_some() && ctx.transferred_out(PortId(1), 0) {
                self.held = None;
            }
            if let Some(v) = ctx.transferred_in(PortId(0), 0) {
                self.held = Some(v);
            }
            Ok(())
        }
        fn pending(&self) -> bool {
            self.held.is_some()
        }
    }

    #[test]
    fn pending_state_forces_commit_without_transfers() {
        // Source sends once (step 0); the register holds the value and, as
        // nothing downstream exists beyond an unconnected output... use a
        // sink that refuses, so the register must rely on pending() to
        // keep committing. Here: register's output is unconnected, so
        // transferred_out is vacuously true and held clears on step 1 via
        // its own commit — which only runs because pending() forced it.
        struct OneShot {
            sent: bool,
        }
        impl Module for OneShot {
            fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
                if !self.sent {
                    ctx.send(PortId(0), 0, Value::Word(42))
                } else {
                    ctx.send_nothing(PortId(0), 0)
                }
            }
            fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
                if ctx.transferred_out(PortId(0), 0) && !self.sent {
                    self.sent = true;
                }
                Ok(())
            }
        }
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("oneshot").output("out", 1, 1),
                Box::new(OneShot { sent: false }),
            )
            .unwrap();
        let r = b
            .add(
                "r",
                ModuleSpec::new("reg")
                    .input("in", 1, 1)
                    .output("out", 0, 1)
                    .commit_only_when_active(),
                Box::new(PendingReg { held: None }),
            )
            .unwrap();
        b.connect(s, "out", r, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(1).unwrap(); // transfer s -> r; r commits (active), holds 42
        sim.run(1).unwrap(); // no transfer; r commits anyway (pending), clears
        let _ = r;
        // Step 3: r is idle and empty; its commit is skipped.
        let commits_before = sim.metrics().commits;
        sim.run(1).unwrap();
        // Only the (ungated) source committed in step 3.
        assert_eq!(sim.metrics().commits, commits_before + 1);
    }

    #[test]
    fn transfer_counts_accumulate_per_edge() {
        let mut sim = even_pair(SchedKind::Compiled);
        sim.run(10).unwrap();
        assert_eq!(sim.transfer_counts(), &[5]);
    }

    #[test]
    fn layered_constructor_shares_topology() {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src").output("out", 1, 1),
                Box::new(Src),
            )
            .unwrap();
        let k = b.add("k", gated_sink_spec(), Box::new(GatedSink)).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let (topo, modules) = b.build().unwrap().into_parts();
        let topo = Arc::new(topo);
        let mut sim1 = Simulator::from_parts(topo.clone(), modules, SchedKind::Compiled);
        sim1.run(3).unwrap();
        assert_eq!(sim1.stats().counter(k, "received"), 3);
        // A second simulator over the same Arc<Topology> reuses the cached
        // plan and reader table.
        let modules2: Vec<Box<dyn Module>> = vec![Box::new(Src), Box::new(GatedSink)];
        let mut sim2 = Simulator::from_parts(topo.clone(), modules2, SchedKind::Compiled);
        sim2.run(5).unwrap();
        assert_eq!(sim2.stats().counter(k, "received"), 5);
        assert_eq!(Arc::strong_count(&topo), 3);
    }

    #[test]
    fn idle_step_performs_no_signal_reset_writes() {
        // Kernel-level restatement of the O(1)-reset guarantee: a step in
        // which no module drives anything still runs the default phase
        // (inherently O(edges)), but begin_step itself must not touch
        // slots. We check via the store's write counter across the
        // boundary between two steps.
        struct Silent;
        impl Module for Silent {
            fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
                Ok(())
            }
            fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
                Ok(())
            }
        }
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("silent").output("out", 0, 8),
                Box::new(Silent),
            )
            .unwrap();
        let k = b
            .add(
                "k",
                ModuleSpec::new("silent2").input("in", 0, 8),
                Box::new(Silent),
            )
            .unwrap();
        for _ in 0..8 {
            b.connect(s, "out", k, "in").unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(1).unwrap();
        let writes_per_idle_step = sim.store.slot_writes();
        sim.run(1).unwrap();
        // Steady state: every step costs the same — the default phase's
        // (freshen + 3 wire writes) × 8 edges — with no extra reset sweep.
        assert_eq!(sim.store.slot_writes(), writes_per_idle_step * 2);
        assert_eq!(sim.metrics().defaults, 2 * 3 * 8);
    }

    const ALL_SCHEDS: [SchedKind; 2] = [SchedKind::Sweep, SchedKind::Compiled];

    #[test]
    fn compiled_schedulers_match_dynamic_on_gated_pair() {
        let mut reference = even_pair(SchedKind::Sweep);
        reference.run(10).unwrap();
        let mut sim = even_pair(SchedKind::Compiled);
        assert!(sim.compiled_plan().is_some());
        sim.run(10).unwrap();
        let k = sim.instance_by_name("k").unwrap();
        assert_eq!(sim.stats().counter(k, "received"), 5);
        assert_eq!(sim.metrics().commits, reference.metrics().commits);
        assert_eq!(sim.metrics().defaults, reference.metrics().defaults);
        assert_eq!(sim.transfer_counts(), reference.transfer_counts());
        // One react per instance per step on an acyclic net: the whole
        // point of the compiled plan.
        assert_eq!(sim.metrics().reacts, 2 * 10);
    }

    /// A wide two-level netlist: N independent source->sink pairs.
    fn wide_pairs(sched: SchedKind, n: usize) -> Simulator {
        let mut b = NetlistBuilder::new();
        for p in 0..n {
            let s = b
                .add(
                    format!("s{p}"),
                    ModuleSpec::new("esrc").output("out", 1, 1),
                    Box::new(EvenSrc),
                )
                .unwrap();
            let k = b
                .add(format!("k{p}"), gated_sink_spec(), Box::new(GatedSink))
                .unwrap();
            b.connect(s, "out", k, "in").unwrap();
        }
        Simulator::new(b.build().unwrap(), sched)
    }

    /// A two-instance data cycle that settles: `a` drives unconditionally
    /// (breaking the cycle), `b` forwards once its input resolves.
    struct CycleDriver;
    impl Module for CycleDriver {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.send(PortId(1), 0, Value::Word(7))?;
            ctx.set_ack(PortId(0), 0, true)
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            if ctx.transferred_in(PortId(0), 0).is_some() {
                ctx.count("got", 1);
            }
            Ok(())
        }
    }
    struct CycleForward;
    impl Module for CycleForward {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, true)?;
            if let Res::Yes(v) = ctx.data(PortId(0), 0) {
                ctx.send(PortId(1), 0, v)?;
            }
            Ok(())
        }
        fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
            if ctx.transferred_in(PortId(0), 0).is_some() {
                ctx.count("fwd", 1);
            }
            Ok(())
        }
    }

    #[test]
    fn island_fixed_point_matches_under_every_scheduler() {
        let build = |sched| {
            let mut b = NetlistBuilder::new();
            let spec = |t: &'static str| ModuleSpec::new(t).input("in", 1, 1).output("out", 1, 1);
            let a = b.add("a", spec("cyca"), Box::new(CycleDriver)).unwrap();
            let c = b.add("c", spec("cycb"), Box::new(CycleForward)).unwrap();
            b.connect(a, "out", c, "in").unwrap();
            b.connect(c, "out", a, "in").unwrap();
            Simulator::new(b.build().unwrap(), sched)
        };
        let mut reports = Vec::new();
        for sched in ALL_SCHEDS {
            let mut sim = build(sched);
            if sched == SchedKind::Compiled {
                let plan = sim.compiled_plan().unwrap();
                assert_eq!(plan.island_count(), 1, "the 2-cycle is one island");
            }
            sim.run(6).unwrap();
            assert_eq!(sim.transfer_counts(), &[6, 6], "{sched:?}");
            reports.push(sim.report());
        }
        for r in &reports[1..] {
            assert_eq!(*r, reports[0]);
        }
    }

    // ----- settle-aware islands ------------------------------------------

    use std::sync::atomic::{AtomicU64, Ordering};

    /// One member of the two-instance ring below, counting its `react`
    /// invocations. `forward`: wait for the input before driving the
    /// output (reads a wire); otherwise drive unconditionally (reads
    /// nothing). `counts`: record a statistic in `react`.
    struct RingMember {
        forward: bool,
        counts: bool,
        calls: Arc<AtomicU64>,
    }
    impl Module for RingMember {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if self.counts {
                ctx.count("invoked", 1);
            }
            ctx.set_ack(PortId(0), 0, true)?;
            if !self.forward {
                return ctx.send(PortId(1), 0, Value::Word(7));
            }
            if let Res::Yes(v) = ctx.data(PortId(0), 0) {
                ctx.send(PortId(1), 0, v)?;
            }
            Ok(())
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    /// `first -> second -> first`, one island; `first` has the lower id,
    /// so the island driver pops it first. Returns the per-member
    /// invocation counters.
    fn ring(
        sched: SchedKind,
        first: (bool, bool),
        second: (bool, bool),
    ) -> (Simulator, Arc<AtomicU64>, Arc<AtomicU64>) {
        let spec = |t: &'static str| ModuleSpec::new(t).input("in", 1, 1).output("out", 1, 1);
        let member = |(forward, counts): (bool, bool)| {
            let calls = Arc::new(AtomicU64::new(0));
            let m = RingMember {
                forward,
                counts,
                calls: calls.clone(),
            };
            (Box::new(m), calls)
        };
        let (m1, c1) = member(first);
        let (m2, c2) = member(second);
        let mut b = NetlistBuilder::new();
        let i1 = b.add("first", spec("ring1"), m1).unwrap();
        let i2 = b.add("second", spec("ring2"), m2).unwrap();
        b.connect(i1, "out", i2, "in").unwrap();
        b.connect(i2, "out", i1, "in").unwrap();
        let sim = Simulator::new(b.build().unwrap(), sched);
        (sim, c1, c2)
    }

    const DRIVER: (bool, bool) = (false, false);
    const FORWARDER: (bool, bool) = (true, false);

    #[test]
    fn member_that_read_only_resolved_wires_is_invoked_once() {
        // Driver first: it reads nothing, the forwarder then reads a
        // resolved input. The forwarder's send wakes the driver again;
        // that wake is dropped.
        let (mut sim, driver, forwarder) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        assert_eq!(sim.compiled_plan().unwrap().island_count(), 1);
        sim.run(5).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 5);
        assert_eq!(forwarder.load(Ordering::Relaxed), 5);
        assert_eq!(sim.metrics().reacts, 10);
        assert_eq!(sim.transfer_counts(), &[5, 5]);
        // The Sweep oracle does not elide: it re-runs the driver (which
        // changes nothing) and reaches the same transfers.
        let (mut sweep, driver, _) = ring(SchedKind::Sweep, DRIVER, FORWARDER);
        sweep.run(5).unwrap();
        assert!(driver.load(Ordering::Relaxed) > 5);
        assert_eq!(sweep.transfer_counts(), sim.transfer_counts());
    }

    #[test]
    fn member_that_read_an_unknown_is_reinvoked_when_it_resolves() {
        // Forwarder first: its input is still Unknown, so it must run
        // again once the driver has sent — and only then settles.
        let (mut sim, forwarder, driver) = ring(SchedKind::Compiled, FORWARDER, DRIVER);
        sim.run(5).unwrap();
        assert_eq!(forwarder.load(Ordering::Relaxed), 10);
        assert_eq!(driver.load(Ordering::Relaxed), 5);
        assert_eq!(sim.transfer_counts(), &[5, 5]);
    }

    #[test]
    fn statistic_in_react_pins_every_invocation() {
        // The same ring as the first test, but the driver counts in
        // `react`: both of its wakes run, and the counter says so.
        let (mut sim, driver, forwarder) = ring(SchedKind::Compiled, (false, true), FORWARDER);
        sim.run(5).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 10);
        assert_eq!(forwarder.load(Ordering::Relaxed), 5);
        let first = sim.instance_by_name("first").unwrap();
        assert_eq!(sim.stats().counter(first, "invoked"), 10);
    }

    #[test]
    fn resilient_runs_never_elide() {
        // A watchdog switches writes to the tolerant mode, where a wire
        // an invocation has read can still change: every wake runs.
        let (mut sim, driver, forwarder) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        sim.set_watchdog(1000);
        sim.run(5).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 10);
        assert_eq!(forwarder.load(Ordering::Relaxed), 5);
        assert_eq!(sim.metrics().reacts, 15);
        // A failure policy alone (no plan, no watchdog) is resilient too.
        let (mut sim, driver, _) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.run(5).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn probed_islands_settle_like_unprobed_ones() {
        use crate::probe::CountingProbe;
        let (mut sim, driver, forwarder) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        let (probe, counts) = CountingProbe::new();
        sim.set_probe(Box::new(probe));
        sim.run(5).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 5);
        assert_eq!(forwarder.load(Ordering::Relaxed), 5);
        // Handler brackets count invocations made, like `metrics.reacts`.
        assert_eq!(counts.get().reacts, sim.metrics().reacts);
        assert_eq!(sim.metrics().reacts, 10);
    }

    #[test]
    fn probed_resilient_islands_bracket_every_invocation_and_never_settle() {
        // Probe and resilience state together: the island runs every
        // wake, and the probe sees a bracket for each invocation made.
        use crate::probe::CountingProbe;
        let (mut sim, driver, forwarder) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        let (probe, counts) = CountingProbe::new();
        sim.set_probe(Box::new(probe));
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.run(5).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 10);
        assert_eq!(forwarder.load(Ordering::Relaxed), 5);
        assert_eq!(counts.get().reacts, 15);
        assert_eq!(sim.metrics().reacts, 15);
        assert_eq!(sim.transfer_counts(), &[5, 5]);
    }

    #[test]
    fn restore_leaves_no_settle_mark_behind() {
        // Settle stamps are compared against the store epoch. A restore
        // must not rewind that epoch onto a stamp left by an earlier step
        // (a fresh store would restart it at the first step's value).
        let (mut sim, driver, forwarder) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        let start = sim.snapshot().unwrap();
        sim.run(1).unwrap();
        assert_eq!(driver.load(Ordering::Relaxed), 1);
        for round in 1..=3u64 {
            sim.restore(&start).unwrap();
            sim.run(1).unwrap();
            // Every member ran in the replayed step.
            assert_eq!(driver.load(Ordering::Relaxed), 1 + round);
            assert_eq!(forwarder.load(Ordering::Relaxed), 1 + round);
            assert_eq!(sim.metrics().reacts, 2);
            assert_eq!(sim.transfer_counts(), &[1, 1]);
        }
    }

    #[test]
    fn restore_leaves_no_fresh_slot() {
        // A slot is fresh when its state word carries the store's epoch.
        // Restores stacked on one another must each move the epoch on, so
        // whatever the interrupted step wrote reads as `Unknown`.
        let (mut sim, ..) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        let start = sim.snapshot().unwrap();
        sim.run(1).unwrap();
        for _ in 0..3 {
            sim.restore(&start).unwrap();
            for e in (0..sim.edge_count() as u32).map(EdgeId) {
                assert_eq!(sim.store.data(e), Res::Unknown);
                assert_eq!(sim.store.enable(e), Res::Unknown);
                assert_eq!(sim.store.ack(e), Res::Unknown);
                assert!(sim.store.transferred(e).is_none());
            }
        }
        sim.run(1).unwrap();
        assert_eq!(sim.transfer_counts(), &[1, 1]);
    }

    #[test]
    fn write_that_targets_a_settled_reader_queues_nobody() {
        // One island step by hand. The driver reads nothing, so its first
        // run settles it; the forwarder's send — whose wake target is the
        // driver — must then leave the FIFO empty rather than queue an
        // entry for the pop to discard.
        let (mut sim, ..) = ring(SchedKind::Compiled, DRIVER, FORWARDER);
        sim.store.begin_step();
        let epoch = sim.store.epoch();
        let Simulator {
            topo,
            modules,
            store,
            stats,
            metrics,
            wake,
            ..
        } = &mut sim;
        wake.plan_walk(Some(epoch), false);
        let mut react = |i: usize, wake: &mut WakeSink| {
            react_one(topo, modules, store, stats, metrics, 0, i, wake, None, None).unwrap()
        };
        assert!(react(0, wake), "the driver read no wire: settled");
        assert_eq!(wake.pop(), Some(1), "its send queued the forwarder");
        wake.settled[0] = epoch;
        assert!(react(1, wake), "the forwarder read a resolved input");
        assert!(
            wake.fifo.is_empty(),
            "a settled target is dropped at the push"
        );
        // Unsettled, the same write queues it.
        wake.settled[0] = 0;
        wake.resolved(EdgeId(1), Wire::Data);
        assert_eq!(wake.pop(), Some(0));
    }

    #[test]
    fn worklist_allocation_reaches_steady_state() {
        // Satellite guarantee: after warm-up, steps allocate nothing in
        // the worklists — capacities stop moving no matter how long the
        // run continues.
        for sched in ALL_SCHEDS {
            let mut sim = wide_pairs(sched, 8);
            sim.run(4).unwrap();
            let cap = (sim.wake.fifo.capacity(), sim.wake.log.capacity());
            sim.run(64).unwrap();
            let after = (sim.wake.fifo.capacity(), sim.wake.log.capacity());
            assert_eq!(cap, after, "{sched:?}");
        }
    }

    // ----- run governance ---------------------------------------------

    fn simple_pair(sched: SchedKind) -> Simulator {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("src").output("out", 1, 1),
                Box::new(Src),
            )
            .unwrap();
        let k = b.add("k", gated_sink_spec(), Box::new(GatedSink)).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        Simulator::new(b.build().unwrap(), sched)
    }

    #[test]
    fn step_budget_stops_the_run_and_reports_it() {
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_budget(RunBudget::default().max_steps(7));
        let report = sim.run_governed(100);
        assert_eq!(
            report.outcome,
            RunOutcome::BudgetExhausted(BudgetKind::Steps)
        );
        assert_eq!(report.steps_executed, 7);
        assert_eq!(report.steps_completed, 7);
        assert_eq!(report.steps_requested, 100);
        assert!(report.stopped_early());
        assert!(report.error.is_none());
        assert_eq!(sim.last_run_report().unwrap().outcome, report.outcome);
    }

    #[test]
    fn run_routes_through_governance_and_keeps_the_report() {
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_budget(RunBudget::default().max_steps(3));
        // A budget stop is not an error: the caller inspects the report.
        sim.run(50).unwrap();
        assert_eq!(sim.metrics().steps, 3);
        let report = sim.last_run_report().unwrap();
        assert_eq!(
            report.outcome,
            RunOutcome::BudgetExhausted(BudgetKind::Steps)
        );
        // A fresh run call resets per-run accounting.
        sim.run(50).unwrap();
        assert_eq!(sim.metrics().steps, 6);
        assert_eq!(sim.last_run_report().unwrap().steps_executed, 3);
    }

    #[test]
    fn zero_deadline_exhausts_immediately() {
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_budget(RunBudget::default().deadline(std::time::Duration::ZERO));
        let report = sim.run_governed(1000);
        assert_eq!(
            report.outcome,
            RunOutcome::BudgetExhausted(BudgetKind::Deadline)
        );
        assert_eq!(report.steps_executed, 0);
    }

    #[test]
    fn cancellation_stops_at_a_step_boundary_and_checkpoints() {
        /// Trips the shared token at the end of step `at`.
        struct CancelAt {
            at: u64,
            token: CancelToken,
        }
        impl Probe for CancelAt {
            fn step(&mut self, log: &StepLog<'_>) {
                if log.now == self.at && log.records.contains(&Record::StepEnd) {
                    self.token.cancel();
                }
            }
        }
        let token = CancelToken::new();
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_probe(Box::new(CancelAt {
            at: 4,
            token: token.clone(),
        }));
        sim.set_cancel_token(token.clone());
        let report = sim.run_governed(100);
        assert_eq!(report.outcome, RunOutcome::Cancelled);
        // Cancelled at the boundary after step 4 (steps 0..=4 ran).
        assert_eq!(report.steps_executed, 5);
        // The final checkpoint preserved the progress in memory.
        let snap = sim.last_checkpoint().expect("cancel checkpoints");
        assert_eq!(snap.now(), 5);
        // The token stays tripped until reset: the next run is a no-op.
        let report = sim.run_governed(100);
        assert_eq!(report.outcome, RunOutcome::Cancelled);
        assert_eq!(report.steps_executed, 0);
        token.reset();
    }

    #[test]
    fn quarantine_budget_caps_isolation() {
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_budget(RunBudget::default().max_quarantined(0));
        // No quarantines happen, so the budget never trips.
        let report = sim.run_governed(5);
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert!(!report.stopped_early());
        assert!(report.quarantined.is_empty());
    }

    /// Panics (once per replay) at step `at` — an organic fault the
    /// retry ladder cannot mask away.
    struct PanicAt {
        at: u64,
    }
    impl Module for PanicAt {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            if ctx.now() == self.at {
                panic!("injected at {}", self.at);
            }
            ctx.send(PortId(0), 0, Value::Word(ctx.now()))
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    fn panicking_pair(at: u64) -> Simulator {
        let mut b = NetlistBuilder::new();
        let p = b
            .add(
                "p",
                ModuleSpec::new("pan").output("out", 1, 1),
                Box::new(PanicAt { at }),
            )
            .unwrap();
        let k = b.add("k", gated_sink_spec(), Box::new(GatedSink)).unwrap();
        b.connect(p, "out", k, "in").unwrap();
        Simulator::new(b.build().unwrap(), SchedKind::Compiled)
    }

    #[test]
    fn retry_ladder_ends_in_degraded_completion() {
        let mut sim = panicking_pair(3);
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.set_retry_policy(RetryPolicy::default());
        let report = sim.run_governed(10);
        // One retry from the step-0 checkpoint, the replay panics again
        // (organic fault), the per-cause cap leaves the quarantine
        // standing and the run completes degraded.
        assert_eq!(report.outcome, RunOutcome::Degraded);
        assert!(!report.stopped_early());
        assert_eq!(report.retries.get("quarantine"), Some(&1));
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.quarantined, vec!["p".to_string()]);
        assert_eq!(report.steps_completed, 10);
        // Steps 0..=3 (the panicking step completes by quarantining),
        // then the rollback replays 0..=3, then 4..=9: 14 in total for
        // 10 of forward progress.
        assert_eq!(report.steps_executed, 14);
    }

    #[test]
    fn exhausted_retry_budget_stops_escalating() {
        let mut sim = panicking_pair(2);
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.set_retry_policy(RetryPolicy::with_max_retries(0));
        let report = sim.run_governed(8);
        // No retries at all: the quarantine stands on first occurrence.
        assert_eq!(report.outcome, RunOutcome::Degraded);
        assert!(report.retries.is_empty());
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.steps_executed, 8);
    }

    #[test]
    fn governed_until_honours_the_predicate() {
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_budget(RunBudget::default().max_steps(50));
        let k = sim.instance_by_name("k").unwrap();
        let report = sim.run_governed_until(100, |s| s.counter(k, "received") >= 4);
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert!(report.steps_executed >= 4 && report.steps_executed < 50);
    }

    #[test]
    fn run_until_checkpoints_like_run() {
        // Checkpointing alone — no budget, token or retry policy —
        // checkpoints `run_until` exactly as it checkpoints `run`.
        let drivers: [fn(&mut Simulator); 3] = [
            |sim| sim.run(10).unwrap(),
            |sim| assert_eq!(sim.run_until(10, |_| false).unwrap(), 10),
            |sim| {
                sim.set_budget(RunBudget::new());
                assert_eq!(sim.run_until(10, |_| false).unwrap(), 10);
            },
        ];
        for drive in drivers {
            let mut sim = simple_pair(SchedKind::Compiled);
            sim.set_auto_checkpoint(4);
            drive(&mut sim);
            assert_eq!(sim.last_checkpoint().map(|s| s.now()), Some(8));
        }
    }

    #[test]
    fn run_until_rolls_back_like_run() {
        // A plan-injected panic quarantines the source; rollback rewinds
        // to the step-2 checkpoint, masks the plan entry and completes
        // with nothing quarantined — through either entry point.
        let drivers: [fn(&mut Simulator); 2] = [
            |sim| sim.run(8).unwrap(),
            |sim| assert_eq!(sim.run_until(8, |_| false).unwrap(), 8),
        ];
        let mut ends = Vec::new();
        for drive in drivers {
            let mut sim = simple_pair(SchedKind::Compiled);
            sim.set_fault_plan(FaultPlan::new(7).panic_at(InstanceId(0), 3));
            sim.set_failure_policy(FailurePolicy::Quarantine);
            sim.set_auto_checkpoint(2);
            sim.set_retry_policy(RetryPolicy::default());
            drive(&mut sim);
            assert_eq!(sim.rollbacks(), 1);
            assert!(sim.quarantined_instances().is_empty());
            assert_eq!(sim.metrics().steps, 8);
            ends.push(sim.snapshot().unwrap().to_bytes());
        }
        assert_eq!(ends[0], ends[1]);
    }

    #[test]
    fn report_renders_every_field_group() {
        let mut sim = simple_pair(SchedKind::Compiled);
        sim.set_budget(RunBudget::default().max_steps(2));
        let report = sim.run_governed(9);
        let text = report.render();
        assert!(text.contains("budget-exhausted"), "{text}");
        assert!(text.contains("2/9 steps"), "{text}");
        assert!(text.contains("budget axis exhausted: steps"), "{text}");
    }
}
