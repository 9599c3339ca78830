//! # liberty-core
//!
//! The simulation kernel of a Rust reproduction of the **Liberty Simulation
//! Environment** (August, Malik, Peh, Pai — *Achieving Structural and
//! Composable Modeling of Complex Systems*, IPDPS 2004).
//!
//! LSE builds executable simulators from *structural* descriptions:
//! customized instances of reusable module templates, connected by ports.
//! This crate provides everything below the component libraries:
//!
//! * [`value::Value`] — the dynamic payload type that makes modules from
//!   different domains connectable without prior planning, with
//!   [`Payload`] for the library-defined types it carries;
//! * [`signal`] — the three-signal (data/enable/ack) connection contract
//!   with monotonic within-time-step resolution;
//! * [`module`] — the two-phase (`react`/`commit`) concurrent module trait
//!   and port/template specifications;
//! * [`netlist`] — validated flat netlists built by hand or by the LSS
//!   elaborator (`liberty-lss`);
//! * the layered kernel — [`topology`] (immutable structure: the reader
//!   table, flattened port slabs, the cached compiled plan), [`store`]
//!   (the epoch-stamped per-timestep signal arena of packed slots, O(1)
//!   reset), and
//!   [`exec`] (the compiled engine and the naive sweep it is checked
//!   against, default control semantics for partial specifications, and
//!   the activity-gated commit phase);
//! * [`sched`] — the static netlist analysis of paper ref [22] (the
//!   dependency graph and its SCC condensation) — and [`compile`], which
//!   condenses that analysis into a [`compile::CompiledPlan`] executed
//!   without any per-step worklist;
//! * the observability layer — [`probe`] (the per-step `StepLog` of
//!   records and the four-method `Probe` that consumes it, with zero
//!   cost when absent), [`trace`] (text + JSONL sinks),
//!   [`vcd`] (GTKWave waveforms) and [`profile`] (per-module hot spots);
//! * [`snapshot`] — versioned, checksummed checkpoints of the full
//!   simulator state, the substrate of the roll-back recovery path and
//!   the golden-state regression corpus;
//! * [`supervisor`] — the run loop and run governance: cooperative
//!   budgets and deadlines, external cancellation, checkpoint cadence,
//!   the retry escalation ladder over the checkpoint machinery,
//!   structured run reports, and bounded backpressure for probe sinks;
//! * [`params`] / [`registry`] — algorithmic parameters and the template
//!   registry the component libraries populate.
//!
//! ## A two-module simulator in a dozen lines
//!
//! ```
//! use liberty_core::prelude::*;
//!
//! // A source that sends its cycle number, and a sink that sums words.
//! struct Src;
//! impl Module for Src {
//!     fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
//!         ctx.send(PortId(0), 0, Value::Word(ctx.now()))
//!     }
//!     fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> { Ok(()) }
//! }
//! struct Sink { total: u64 }
//! impl Module for Sink {
//!     fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
//!         ctx.set_ack(PortId(0), 0, true)
//!     }
//!     fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
//!         if let Some(v) = ctx.transferred_in(PortId(0), 0) {
//!             self.total += v.as_word().unwrap_or(0);
//!             ctx.count("received", 1);
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let mut b = NetlistBuilder::new();
//! let src = b.add("src", ModuleSpec::new("src").output("out", 1, 1), Box::new(Src)).unwrap();
//! let snk = b.add("snk", ModuleSpec::new("sink").input("in", 1, 1), Box::new(Sink { total: 0 })).unwrap();
//! b.connect(src, "out", snk, "in").unwrap();
//! let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
//! sim.run(4).unwrap();
//! assert_eq!(sim.stats().counter(snk, "received"), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compile;
pub mod error;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod module;
pub mod names;
pub mod netlist;
pub mod params;
pub mod probe;
pub mod profile;
pub mod registry;
pub mod sched;
pub mod signal;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod supervisor;
pub mod topology;
pub mod trace;
pub mod value;
pub mod vcd;

pub use value::{Payload, WordSink};

/// Convenience re-exports for module and system authors.
pub mod prelude {
    pub use crate::compile::{CompiledPlan, PlanLevel, PlanNode};
    pub use crate::error::{CheckpointError, DivergenceInfo, OscillatingWire, PanicInfo, SimError};
    pub use crate::exec::{CommitCtx, EngineMetrics, ReactCtx, SchedKind, Simulator};
    pub use crate::fault::{
        FailurePolicy, FaultKind, FaultPlan, InstFaultKind, InstanceFault, SignalFault,
    };
    pub use crate::kernel::{AluFn, InstanceSummary, KernelHint, PlanSummary, SinkCollect};
    pub use crate::module::{Dir, Module, ModuleSpec, PortId, PortSpec};
    pub use crate::netlist::{EdgeId, Endpoint, InstanceId, Netlist, NetlistBuilder};
    pub use crate::params::{ParamValue, Params};
    pub use crate::probe::{
        CountingProbe, Handler, Interest, MultiProbe, Outcome, Probe, ProbeCounts,
        ProbeCountsHandle, Record, ResolvedBy, StepLog,
    };
    pub use crate::profile::{ProfileHandle, ProfileProbe, ProfileReport, Profiler};
    pub use crate::registry::{Instantiated, Registry, Template};
    pub use crate::signal::{Res, SignalState, Wire, WireWrite, WriteOutcome};
    pub use crate::snapshot::{Snapshot, StateReader, StateWriter};
    pub use crate::stats::{Histogram, Sample, Stats, StatsReport};
    pub use crate::store::SignalStore;
    pub use crate::supervisor::{
        BackpressureWriter, BudgetKind, CancelToken, RetryCause, RetryPolicy, RunBudget,
        RunOutcome, RunReport, SinkPolicy, SinkStats,
    };
    pub use crate::topology::{InstanceInfo, Topology};
    pub use crate::trace::{JsonlProbe, TextTracer};
    pub use crate::value::{Payload, Value, WordSink};
    pub use crate::vcd::VcdProbe;
}
