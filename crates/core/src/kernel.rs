//! Type-specialized handler kernels (experiment E19).
//!
//! EXPERIMENTS.md E11 localized the residual gap between the compiled
//! scheduler and a hand-tuned monolithic loop in the handler *bodies*:
//! dynamic [`Value`] tagging, `Box<dyn Module>` dispatch, and per-wire
//! monotonicity checks on every write. Following the paper's companion
//! code-generation work (ref [25], MICRO 2002) — and the contracts
//! literature's license to check interface contracts once at composition
//! time — this module lowers the hot `pcl` templates into monomorphized
//! kernels over unboxed lanes at *plan-compile* time:
//!
//! * [`classify`] inspects the constructed topology once and decides, per
//!   instance, whether its handler can be lowered: the template must offer
//!   a [`KernelHint`], every value that can cross its ports must have a
//!   statically known unboxed shape ([`KVal`]), all of its producers must
//!   themselves be specialized, and any fixed-point island it belongs to
//!   must be specialized wholesale (and internally data-acyclic).
//! * Eligible instances get a [`Kernel`]: a closed enum whose `react` and
//!   `commit` bodies are exact transcriptions of the dynamic handlers,
//!   but reading and writing [`Lane`]s — flat `u64`-word wire slots with
//!   one-byte resolution states — instead of going through the
//!   [`crate::store::SignalStore`] write path and its per-write checks.
//!   Monotonicity of the kernels is proved once, here, by construction.
//! * Everything else (tuple/opaque payloads, user modules, bypass queues,
//!   combinational rings) stays on the dynamic `Module::react` path; the
//!   two populations coexist inside one compiled plan and hand values to
//!   each other through the store on "slow" edges.
//!
//! Specialization is an execution detail of `SchedKind::Compiled`: probes,
//! fault plans, failure policies and watchdogs de-specialize the simulator
//! (kernel state is written back into the modules losslessly), so observed
//! behavior — probe streams, statistics, checkpoints — is byte-identical
//! with specialization on or off. The equivalence proptests in
//! `crates/bench` hold both paths to that contract.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use crate::compile::{CompiledPlan, PlanNode};
use crate::error::SimError;
use crate::module::{Dir, Module, PortId};
use crate::netlist::{EdgeId, InstanceId};
use crate::sched::WakeSink;
use crate::signal::{flag, Res, Wire, WireWrite};
use crate::snapshot::{StateReader, StateWriter};
use crate::stats::{Stats, STAT_SLOT_UNRESOLVED};
use crate::store::SignalStore;
use crate::topology::Topology;
use crate::value::Value;

/// An ALU operation table: `(op, a, b) -> result`, supplied by the library
/// that owns the dynamic handler so the kernel computes bit-identical
/// results (including identical unknown-op errors) without the core crate
/// duplicating the operation semantics.
pub type AluFn = fn(u64, u64, u64) -> Result<u64, SimError>;

/// Side-channel delivery for sink collection handles: called once per value
/// received, in commit order, exactly when the dynamic handler would have
/// appended to its shared buffer.
pub type SinkCollect = Arc<dyn Fn(Value) + Send + Sync>;

/// A template's offer to be lowered into a specialized kernel, carrying its
/// fully resolved algorithmic parameters (see [`Module::specialize`]).
///
/// A hint is an *offer*, not a promise: [`classify`] may still keep the
/// instance dynamic (unresolved wire types, dynamic producers, bypass
/// combinational paths, mixed fixed-point islands).
pub enum KernelHint {
    /// A FIFO queue (`pcl` `queue` without bypass; bypass queues are
    /// combinational and stay dynamic).
    Queue {
        /// Capacity in items.
        depth: usize,
        /// True for combinational fall-through queues (never specialized).
        bypass: bool,
    },
    /// A one-entry register stage.
    Register,
    /// A fixed-latency pipe.
    Delay {
        /// Cycles between acceptance and earliest delivery.
        latency: u64,
    },
    /// A broadcast tee.
    Tee {
        /// True if delivery requires every consumer to accept.
        require_all: bool,
    },
    /// A combinational word inverter.
    Inverter,
    /// A combinational ALU over `(op, a, b)` word tuples.
    Alu {
        /// The operation table shared with the dynamic handler.
        compute: AluFn,
    },
    /// A consuming sink.
    Sink {
        /// Optional collection side-channel (present for `collecting()`
        /// sinks; the handle buffer is shared, not duplicated).
        collect: Option<SinkCollect>,
    },
    /// A scripted source emitting a fixed list of values in order.
    ScriptSource {
        /// The script (configuration; the cursor is the durable state).
        script: Vec<Value>,
    },
    /// A source repeating one value on every connection, every cycle.
    RepeatingSource {
        /// The repeated value.
        value: Value,
    },
    /// An arithmetic word sequence source.
    SeqSource {
        /// First value (the reset state of the cursor).
        start: u64,
        /// Total emissions (the reset state of the remaining counter).
        count: u64,
        /// Added (wrapping) after each accepted emission.
        step: u64,
        /// Emit every `period` cycles.
        period: u64,
    },
}

impl fmt::Debug for KernelHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelHint::Queue { .. } => "Queue",
            KernelHint::Register => "Register",
            KernelHint::Delay { .. } => "Delay",
            KernelHint::Tee { .. } => "Tee",
            KernelHint::Inverter => "Inverter",
            KernelHint::Alu { .. } => "Alu",
            KernelHint::Sink { .. } => "Sink",
            KernelHint::ScriptSource { .. } => "ScriptSource",
            KernelHint::RepeatingSource { .. } => "RepeatingSource",
            KernelHint::SeqSource { .. } => "SeqSource",
        })
    }
}

// ---------------------------------------------------------------------------
// Unboxed lane values
// ---------------------------------------------------------------------------

/// Statically known shape of every value crossing a fast edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ValKind {
    /// `Value::Word`.
    Word,
    /// `Value::Bool`.
    Bool,
    /// A three-word tuple — the ALU's `(op, a, b)` operand shape.
    Tup3,
}

impl fmt::Display for ValKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValKind::Word => "word",
            ValKind::Bool => "bool",
            ValKind::Tup3 => "(word, word, word)",
        })
    }
}

/// The unboxed shape of `v`, if it has one.
pub(crate) fn kind_of(v: &Value) -> Option<ValKind> {
    match v {
        Value::Word(_) => Some(ValKind::Word),
        Value::Bool(_) => Some(ValKind::Bool),
        Value::Tuple(t) if t.len() == 3 && t.iter().all(|e| matches!(e, Value::Word(_))) => {
            Some(ValKind::Tup3)
        }
        _ => None,
    }
}

/// An unboxed payload: the only shapes the kernels move. `Copy`, no `Arc`
/// traffic, no allocation on the transfer path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KVal {
    /// A machine word.
    Word(u64),
    /// A boolean.
    Bool(bool),
    /// An `(op, a, b)` word triple.
    Tup3([u64; 3]),
}

impl KVal {
    /// Box back into the dynamic [`Value`] (slow-edge writes, sink
    /// collection, state write-back).
    pub(crate) fn to_value(self) -> Value {
        match self {
            KVal::Word(w) => Value::Word(w),
            KVal::Bool(b) => Value::Bool(b),
            KVal::Tup3([op, a, b]) => Value::Tuple(Arc::new(vec![
                Value::Word(op),
                Value::Word(a),
                Value::Word(b),
            ])),
        }
    }

    /// Mirror of [`Value::as_word`] over the unboxed shapes.
    pub(crate) fn as_word(self) -> Option<u64> {
        match self {
            KVal::Word(w) => Some(w),
            KVal::Bool(b) => Some(u64::from(b)),
            KVal::Tup3(_) => None,
        }
    }

    /// Unbox `v` as a `kind`-shaped payload, with a structured type error
    /// naming the instance and port on mismatch (checkpoint restore of a
    /// foreign blob is the only reachable path).
    pub(crate) fn from_value(
        v: &Value,
        kind: ValKind,
        instance: &str,
        port: &str,
    ) -> Result<KVal, SimError> {
        match kind {
            ValKind::Word => {
                if let Value::Word(w) = v {
                    return Ok(KVal::Word(*w));
                }
            }
            ValKind::Bool => return Ok(KVal::Bool(v.bool_checked(instance, port)?)),
            ValKind::Tup3 => {
                if let Value::Tuple(t) = v {
                    if t.len() == 3 {
                        return Ok(KVal::Tup3([
                            t[0].word_checked(instance, port)?,
                            t[1].word_checked(instance, port)?,
                            t[2].word_checked(instance, port)?,
                        ]));
                    }
                }
            }
        }
        Err(SimError::type_err(format!(
            "{instance}.{port}: expected a {kind} lane value, got {}",
            v.kind()
        )))
    }
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// Wire-resolution states of a lane slot (one byte each).
const UNR: u8 = 0;
const NO_S: u8 = 1;
const YES_S: u8 = 2;

/// One fast edge: the three wires of a connection as flat bytes plus the
/// unboxed payload, bypassing the store on the hot path. Lanes are reset
/// by the specialized reaction phase each step; the store is credited for
/// them wholesale so the default phase and full-resolution accounting stay
/// exact.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lane {
    /// The edge this lane shadows (for the wake table and transfer emission).
    pub(crate) edge: EdgeId,
    /// Data wire state.
    pub(crate) data: u8,
    /// Enable wire state.
    pub(crate) enable: u8,
    /// Ack wire state.
    pub(crate) ack: u8,
    /// Set by the commit sweep when all three wires resolved `Yes`.
    pub(crate) transferred: bool,
    /// The payload when `data == YES_S`.
    pub(crate) val: KVal,
}

impl Lane {
    fn new(edge: EdgeId) -> Lane {
        Lane {
            edge,
            data: UNR,
            enable: UNR,
            ack: UNR,
            transferred: false,
            val: KVal::Word(0),
        }
    }

    #[inline]
    pub(crate) fn reset(&mut self) {
        self.data = UNR;
        self.enable = UNR;
        self.ack = UNR;
        self.transferred = false;
    }

    /// True iff all three wires resolved (the specialized analogue of
    /// `SignalStore::is_fully_resolved`).
    #[inline]
    pub(crate) fn fully_resolved(&self) -> bool {
        self.data != UNR && self.enable != UNR && self.ack != UNR
    }

    /// True iff a transfer completes on this lane this step.
    #[inline]
    pub(crate) fn completes(&self) -> bool {
        self.data == YES_S && self.enable == YES_S && self.ack == YES_S
    }
}

/// An input slot of a kernel. Inputs of eligible instances are always fast
/// (producer-eligibility closure) or unconnected.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InLane {
    /// Lane index into the plan's lane table.
    Fast(u32),
    /// Port slot with no connection (partial specification): data reads
    /// `No`, ack writes are dropped — same as the dynamic `ReactCtx`.
    Unconnected,
}

/// An output slot of a kernel.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OutLane {
    /// Lane index into the plan's lane table.
    Fast(u32),
    /// The consumer is dynamic: write through the store so its `react`
    /// observes the value. Ack-reading kernels never have slow outputs.
    Slow(EdgeId),
    /// No connection: writes dropped, acks read `Yes`, `transferred_out`
    /// reads `true` — same as the dynamic contexts.
    Unconnected,
}

/// Lane access for kernel `react` bodies. Writes are first-touch-wins with
/// an idempotence check, mirroring the store's monotonic contract; a
/// conflicting re-drive is unreachable for the (by construction monotone)
/// kernels but still reported rather than trusted.
pub(crate) struct Io<'a> {
    pub(crate) lanes: &'a mut [Lane],
    pub(crate) store: &'a mut SignalStore,
    /// Island driver only: where newly resolved wires are reported (the
    /// plan's wake target is queued at once). `None` on the straight-line
    /// path, where nothing is re-woken.
    pub(crate) wake: Option<&'a mut WakeSink>,
    pub(crate) now: u64,
    /// Set when a wire read returned unresolved: the island driver's
    /// settle rule (`exec::drain_island`), the lane-side twin of
    /// `ReactCtx`'s.
    pub(crate) saw_unknown: bool,
}

impl Io<'_> {
    /// Pass a wire-state read through, noting an unresolved one.
    #[inline]
    fn seen(&mut self, state: u8) -> u8 {
        if state == UNR {
            self.saw_unknown = true;
        }
        state
    }

    #[inline]
    fn in_data(&mut self, i: InLane) -> u8 {
        match i {
            InLane::Fast(l) => self.seen(self.lanes[l as usize].data),
            InLane::Unconnected => NO_S,
        }
    }

    #[inline]
    fn in_val(&self, i: InLane) -> KVal {
        match i {
            InLane::Fast(l) => self.lanes[l as usize].val,
            InLane::Unconnected => KVal::Word(0),
        }
    }

    #[inline]
    fn out_ack(&mut self, o: OutLane) -> u8 {
        match o {
            OutLane::Fast(l) => self.seen(self.lanes[l as usize].ack),
            // Classification demotes ack-readers with slow outputs, so the
            // `Slow` arm is unreachable; `Yes` is the unconnected default.
            OutLane::Slow(_) | OutLane::Unconnected => YES_S,
        }
    }

    #[inline]
    fn put(&mut self, l: u32, wire: Wire, state: u8, v: Option<KVal>) -> Result<(), SimError> {
        let lane = &mut self.lanes[l as usize];
        let slot = match wire {
            Wire::Data => &mut lane.data,
            Wire::Enable => &mut lane.enable,
            Wire::Ack => &mut lane.ack,
        };
        if *slot == UNR {
            *slot = state;
            if let Some(v) = v {
                lane.val = v;
            }
            let edge = lane.edge;
            if let Some(w) = self.wake.as_deref_mut() {
                w.resolved(edge, wire);
            }
            Ok(())
        } else if *slot == state && v.is_none_or(|v| v == lane.val) {
            Ok(())
        } else {
            Err(SimError::contract(format!(
                "specialized kernel: conflicting re-drive of {wire:?} on edge {}",
                lane.edge.0
            )))
        }
    }

    /// The slow-edge arms, out of line: a kernel body inlines
    /// `send` / `set_enable` for the lane arm, and a store write expanded
    /// into them makes them too big to inline at all (a call per send on
    /// an all-fast netlist). Slow-edge readers are dynamic and never
    /// island-mates of a kernel, so these writes need no wake tracking.
    #[inline(never)]
    fn slow_send(&mut self, e: EdgeId, v: Value) -> Result<(), SimError> {
        slow_edge(self.store.send(e, v))
    }

    #[inline(never)]
    fn slow_send_nothing(&mut self, e: EdgeId) -> Result<(), SimError> {
        slow_edge(self.store.send_nothing(e))
    }

    #[inline(never)]
    fn slow_one(&mut self, e: EdgeId, w: WireWrite) -> Result<(), SimError> {
        slow_edge(self.store.write(e, w))
    }

    #[inline]
    fn send(&mut self, o: OutLane, v: KVal) -> Result<(), SimError> {
        match o {
            OutLane::Fast(l) => {
                self.put(l, Wire::Data, YES_S, Some(v))?;
                self.put(l, Wire::Enable, YES_S, None)
            }
            OutLane::Slow(e) => self.slow_send(e, v.to_value()),
            OutLane::Unconnected => Ok(()),
        }
    }

    #[inline]
    fn send_nothing(&mut self, o: OutLane) -> Result<(), SimError> {
        match o {
            OutLane::Fast(l) => {
                self.put(l, Wire::Data, NO_S, None)?;
                self.put(l, Wire::Enable, NO_S, None)
            }
            OutLane::Slow(e) => self.slow_send_nothing(e),
            OutLane::Unconnected => Ok(()),
        }
    }

    #[inline]
    fn set_data_yes(&mut self, o: OutLane, v: KVal) -> Result<(), SimError> {
        match o {
            OutLane::Fast(l) => self.put(l, Wire::Data, YES_S, Some(v)),
            OutLane::Slow(e) => self.slow_one(e, WireWrite::Data(Res::Yes(v.to_value()))),
            OutLane::Unconnected => Ok(()),
        }
    }

    #[inline]
    fn set_enable(&mut self, o: OutLane, en: bool) -> Result<(), SimError> {
        let s = if en { YES_S } else { NO_S };
        match o {
            OutLane::Fast(l) => self.put(l, Wire::Enable, s, None),
            OutLane::Slow(e) => self.slow_one(e, WireWrite::Enable(flag(en))),
            OutLane::Unconnected => Ok(()),
        }
    }

    #[inline]
    fn set_ack(&mut self, i: InLane, accept: bool) -> Result<(), SimError> {
        match i {
            InLane::Fast(l) => self.put(l, Wire::Ack, if accept { YES_S } else { NO_S }, None),
            InLane::Unconnected => Ok(()),
        }
    }
}

/// The verdict of a slow-edge store write, attributed to the kernel path.
fn slow_edge<T>(written: Result<T, SimError>) -> Result<(), SimError> {
    written
        .map(|_| ())
        .map_err(|err| SimError::contract(format!("specialized kernel: {err}")))
}

/// `transferred_out` over a kernel output slot.
#[inline]
fn out_transferred(lanes: &[Lane], store: &SignalStore, o: OutLane) -> bool {
    match o {
        OutLane::Fast(l) => lanes[l as usize].transferred,
        OutLane::Slow(e) => store.transfers_on(e),
        OutLane::Unconnected => true,
    }
}

/// `transferred_in` over a kernel input slot.
#[inline]
fn in_transferred(lanes: &[Lane], i: InLane) -> Option<KVal> {
    match i {
        InLane::Fast(l) => {
            let ln = &lanes[l as usize];
            ln.transferred.then_some(ln.val)
        }
        InLane::Unconnected => None,
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

const UNSET: u32 = STAT_SLOT_UNRESOLVED;

/// FIFO queue kernel (`pcl` `queue`, non-bypass).
pub(crate) struct QueueK {
    depth: usize,
    items: VecDeque<KVal>,
    ins: Vec<InLane>,
    outs: Vec<OutLane>,
    inst: InstanceId,
    s_deq: u32,
    s_enq: u32,
    s_full: u32,
    s_occ: u32,
    s_dist: u32,
}

impl QueueK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        for (j, &o) in self.outs.iter().enumerate() {
            match self.items.get(j) {
                Some(&v) => io.send(o, v)?,
                None => io.send_nothing(o)?,
            }
        }
        let free = self.depth - self.items.len();
        if free >= self.ins.len() {
            for &i in &self.ins {
                io.set_ack(i, true)?;
            }
            return Ok(());
        }
        for &i in &self.ins {
            if io.in_data(i) == UNR {
                return Ok(());
            }
        }
        let mut budget = free;
        for &i in &self.ins {
            let present = io.in_data(i) == YES_S;
            if present && budget > 0 {
                io.set_ack(i, true)?;
                budget -= 1;
            } else if present {
                io.set_ack(i, false)?;
            } else {
                io.set_ack(i, true)?;
            }
        }
        Ok(())
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        let mut popped: u64 = 0;
        for j in (0..self.outs.len().min(self.items.len())).rev() {
            if out_transferred(lanes, store, self.outs[j]) {
                self.items.remove(j);
                popped += 1;
            }
        }
        stats.count_cached(&mut self.s_deq, self.inst, "deq", popped);
        for &i in &self.ins {
            if let Some(v) = in_transferred(lanes, i) {
                self.items.push_back(v);
                stats.count_cached(&mut self.s_enq, self.inst, "enq", 1);
            }
        }
        if self.items.len() == self.depth {
            stats.count_cached(&mut self.s_full, self.inst, "full_cycles", 1);
        }
        stats.sample_cached(
            &mut self.s_occ,
            self.inst,
            "occupancy",
            self.items.len() as f64,
        );
        stats.histo_cached(
            &mut self.s_dist,
            self.inst,
            "occupancy_dist",
            self.items.len() as u64,
        );
    }
}

/// Register-stage kernel (`pcl` `register`).
pub(crate) struct RegisterK {
    held: Option<KVal>,
    in_: InLane,
    out: OutLane,
    inst: InstanceId,
    s_fwd: u32,
}

impl RegisterK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        match self.held {
            Some(v) => io.send(self.out, v)?,
            None => io.send_nothing(self.out)?,
        }
        io.set_ack(self.in_, self.held.is_none())
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        if out_transferred(lanes, store, self.out) {
            self.held = None;
            stats.count_cached(&mut self.s_fwd, self.inst, "forwarded", 1);
        }
        if let Some(v) = in_transferred(lanes, self.in_) {
            self.held = Some(v);
        }
    }
}

/// Fixed-latency pipe kernel (`pcl` `delay`).
pub(crate) struct DelayK {
    latency: u64,
    inflight: VecDeque<(KVal, u64)>,
    in_: InLane,
    out: OutLane,
    inst: InstanceId,
    s_del: u32,
    s_acc: u32,
}

impl DelayK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        match self.inflight.front() {
            Some(&(v, ready)) if ready <= io.now => io.send(self.out, v)?,
            _ => io.send_nothing(self.out)?,
        }
        io.set_ack(self.in_, (self.inflight.len() as u64) <= self.latency)
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats, now: u64) {
        if out_transferred(lanes, store, self.out) {
            self.inflight.pop_front();
            stats.count_cached(&mut self.s_del, self.inst, "delivered", 1);
        }
        if let Some(v) = in_transferred(lanes, self.in_) {
            self.inflight.push_back((v, now + self.latency));
            stats.count_cached(&mut self.s_acc, self.inst, "accepted", 1);
        }
    }
}

/// Broadcast tee kernel (`pcl` `tee`).
pub(crate) struct TeeK {
    require_all: bool,
    in_: InLane,
    outs: Vec<OutLane>,
    inst: InstanceId,
    s_con: u32,
    s_del: u32,
}

impl TeeK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        match io.in_data(self.in_) {
            UNR => return Ok(()),
            NO_S => {
                for &o in &self.outs {
                    io.send_nothing(o)?;
                }
                io.set_ack(self.in_, true)?;
                return Ok(());
            }
            _ => {
                let v = io.in_val(self.in_);
                for &o in &self.outs {
                    io.set_data_yes(o, v)?;
                }
            }
        }
        let mut all = true;
        let mut any = false;
        for &o in &self.outs {
            match io.out_ack(o) {
                UNR => return Ok(()),
                YES_S => any = true,
                _ => all = false,
            }
        }
        let consume = if self.require_all { all } else { any };
        for &o in &self.outs {
            io.set_enable(o, !self.require_all || all)?;
        }
        io.set_ack(self.in_, consume)
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        if in_transferred(lanes, self.in_).is_some() {
            stats.count_cached(&mut self.s_con, self.inst, "consumed", 1);
        }
        for &o in &self.outs {
            if out_transferred(lanes, store, o) {
                stats.count_cached(&mut self.s_del, self.inst, "delivered", 1);
            }
        }
    }
}

/// Word-inverter kernel (`pcl` `inverter`).
pub(crate) struct InverterK {
    in_: InLane,
    out: OutLane,
}

impl InverterK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        io.set_ack(self.in_, true)?;
        match io.in_data(self.in_) {
            UNR => Ok(()),
            NO_S => io.send(self.out, KVal::Word(1)),
            _ => {
                let w = io.in_val(self.in_).as_word().unwrap_or(0);
                io.send(self.out, KVal::Word(1 - (w & 1)))
            }
        }
    }
}

/// ALU kernel (`pcl` `alu`).
pub(crate) struct AluK {
    compute: AluFn,
    in_: InLane,
    out: OutLane,
    inst: InstanceId,
    s_ops: u32,
}

impl AluK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        match io.in_data(self.in_) {
            UNR => Ok(()),
            NO_S => {
                io.send_nothing(self.out)?;
                io.set_ack(self.in_, true)
            }
            _ => {
                let KVal::Tup3([op, a, b]) = io.in_val(self.in_) else {
                    return Err(SimError::internal(
                        "alu kernel: lane payload is not an operand tuple",
                    ));
                };
                let r = (self.compute)(op, a, b)?;
                io.send(self.out, KVal::Word(r))?;
                match io.out_ack(self.out) {
                    UNR => Ok(()),
                    YES_S => io.set_ack(self.in_, true),
                    _ => io.set_ack(self.in_, false),
                }
            }
        }
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        if out_transferred(lanes, store, self.out) {
            stats.count_cached(&mut self.s_ops, self.inst, "ops", 1);
        }
    }
}

/// Consuming sink kernel (`pcl` `sink` / `collecting`).
pub(crate) struct SinkK {
    collect: Option<SinkCollect>,
    ins: Vec<InLane>,
    inst: InstanceId,
    s_rcv: u32,
    s_sum: u32,
}

impl SinkK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        for &i in &self.ins {
            io.set_ack(i, true)?;
        }
        Ok(())
    }

    fn commit(&mut self, lanes: &[Lane], stats: &mut Stats) {
        for &i in &self.ins {
            if let Some(v) = in_transferred(lanes, i) {
                stats.count_cached(&mut self.s_rcv, self.inst, "received", 1);
                if let Some(w) = v.as_word() {
                    stats.count_cached(&mut self.s_sum, self.inst, "sum", w);
                }
                if let Some(c) = &self.collect {
                    c(v.to_value());
                }
            }
        }
    }
}

/// Scripted-source kernel (`pcl` `script`).
pub(crate) struct ScriptK {
    script: Vec<KVal>,
    next: usize,
    out: OutLane,
    inst: InstanceId,
    s_emit: u32,
}

impl ScriptK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        match self.script.get(self.next) {
            Some(&v) => io.send(self.out, v),
            None => io.send_nothing(self.out),
        }
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        if out_transferred(lanes, store, self.out) {
            self.next += 1;
            stats.count_cached(&mut self.s_emit, self.inst, "emitted", 1);
        }
    }
}

/// Repeating-source kernel (`pcl` `repeating`).
pub(crate) struct RepeatK {
    value: KVal,
    outs: Vec<OutLane>,
    inst: InstanceId,
    s_emit: u32,
}

impl RepeatK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        for &o in &self.outs {
            io.send(o, self.value)?;
        }
        Ok(())
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        for &o in &self.outs {
            if out_transferred(lanes, store, o) {
                stats.count_cached(&mut self.s_emit, self.inst, "emitted", 1);
            }
        }
    }
}

/// Arithmetic-sequence source kernel (`pcl` `seq_source`).
pub(crate) struct SeqK {
    next_val: u64,
    step: u64,
    remaining: u64,
    period: u64,
    out: OutLane,
    inst: InstanceId,
    s_emit: u32,
}

impl SeqK {
    fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        let due = self.remaining > 0 && io.now.is_multiple_of(self.period);
        if due {
            io.send(self.out, KVal::Word(self.next_val))
        } else {
            io.send_nothing(self.out)
        }
    }

    fn commit(&mut self, lanes: &[Lane], store: &SignalStore, stats: &mut Stats) {
        if out_transferred(lanes, store, self.out) {
            self.next_val = self.next_val.wrapping_add(self.step);
            self.remaining -= 1;
            stats.count_cached(&mut self.s_emit, self.inst, "emitted", 1);
        }
    }
}

/// A monomorphized handler: one closed-enum variant per specializable
/// template, dispatched by a jump table instead of a vtable, with `react`
/// and `commit` bodies transcribed from the dynamic handlers onto lanes.
pub(crate) enum Kernel {
    /// See [`QueueK`].
    Queue(QueueK),
    /// See [`RegisterK`].
    Register(RegisterK),
    /// See [`DelayK`].
    Delay(DelayK),
    /// See [`TeeK`].
    Tee(TeeK),
    /// See [`InverterK`].
    Inverter(InverterK),
    /// See [`AluK`].
    Alu(AluK),
    /// See [`SinkK`].
    Sink(SinkK),
    /// See [`ScriptK`].
    Script(ScriptK),
    /// See [`RepeatK`].
    Repeat(RepeatK),
    /// See [`SeqK`].
    Seq(SeqK),
}

impl Kernel {
    /// The reactive handler (monotone, stateless; see module docs).
    /// The dispatch belongs in the plan walk's loop: one indirect jump to
    /// the kernel's body, not a call to a dispatcher that calls it.
    #[inline(always)]
    pub(crate) fn react(&self, io: &mut Io<'_>) -> Result<(), SimError> {
        match self {
            Kernel::Queue(k) => k.react(io),
            Kernel::Register(k) => k.react(io),
            Kernel::Delay(k) => k.react(io),
            Kernel::Tee(k) => k.react(io),
            Kernel::Inverter(k) => k.react(io),
            Kernel::Alu(k) => k.react(io),
            Kernel::Sink(k) => k.react(io),
            Kernel::Script(k) => k.react(io),
            Kernel::Repeat(k) => k.react(io),
            Kernel::Seq(k) => k.react(io),
        }
    }

    /// The commit handler: state updates and statistics, mirroring the
    /// dynamic bodies call-for-call (the statistics entry *set* must match,
    /// not just the totals).
    #[inline]
    pub(crate) fn commit(
        &mut self,
        lanes: &[Lane],
        store: &SignalStore,
        stats: &mut Stats,
        now: u64,
    ) {
        match self {
            Kernel::Queue(k) => k.commit(lanes, store, stats),
            Kernel::Register(k) => k.commit(lanes, store, stats),
            Kernel::Delay(k) => k.commit(lanes, store, stats, now),
            Kernel::Tee(k) => k.commit(lanes, store, stats),
            Kernel::Inverter(_) => {}
            Kernel::Alu(k) => k.commit(lanes, store, stats),
            Kernel::Sink(k) => k.commit(lanes, stats),
            Kernel::Script(k) => k.commit(lanes, store, stats),
            Kernel::Repeat(k) => k.commit(lanes, store, stats),
            Kernel::Seq(k) => k.commit(lanes, store, stats),
        }
    }

    /// Mirror of [`Module::pending`] for the commit-gating decision.
    #[inline]
    pub(crate) fn pending(&self) -> bool {
        match self {
            Kernel::Queue(k) => !k.items.is_empty(),
            _ => false,
        }
    }

    /// Serialize kernel state into the exact byte format the dynamic
    /// module's `state_save` produces, so checkpoints are bit-identical
    /// with specialization on or off and `state_restore` round-trips.
    pub(crate) fn state_blob(&self) -> Result<Vec<u8>, SimError> {
        let mut w = StateWriter::new();
        match self {
            Kernel::Queue(k) => {
                w.put_len(k.items.len());
                for &v in &k.items {
                    w.put_value(&v.to_value())?;
                }
            }
            Kernel::Register(k) => {
                w.put_bool(k.held.is_some());
                if let Some(v) = k.held {
                    w.put_value(&v.to_value())?;
                }
            }
            Kernel::Delay(k) => {
                w.put_len(k.inflight.len());
                for &(v, ready) in &k.inflight {
                    w.put_value(&v.to_value())?;
                    w.put_u64(ready);
                }
            }
            Kernel::Script(k) => {
                w.put_len(k.next);
            }
            Kernel::Seq(k) => {
                w.put_u64(k.next_val);
                w.put_u64(k.remaining);
            }
            Kernel::Tee(_)
            | Kernel::Inverter(_)
            | Kernel::Alu(_)
            | Kernel::Sink(_)
            | Kernel::Repeat(_) => {}
        }
        Ok(w.into_bytes())
    }

    /// Build the kernel for eligible instance `i` from its hint, its
    /// current `state_save` blob, and its port bindings. Any failure keeps
    /// the whole simulator on the dynamic path (never a wrong answer).
    pub(crate) fn materialize(
        hint: KernelHint,
        blob: &[u8],
        topo: &Topology,
        i: usize,
        plan: &SpecPlan,
    ) -> Result<Kernel, SimError> {
        let inst = InstanceId(i as u32);
        let name = topo.name(inst);
        let (ins, outs) = bind_io(topo, inst, plan)?;
        let one_in = || ins.clone().next().unwrap_or(InLane::Unconnected);
        let one_out = || outs.clone().next().unwrap_or(OutLane::Unconnected);
        let kind = plan.kind[i];
        let payload_kind = |what: &str| {
            kind.ok_or_else(|| {
                SimError::internal(format!(
                    "{name}: {what} kernel without a resolved lane type"
                ))
            })
        };
        Ok(match hint {
            KernelHint::Queue { depth, bypass } => {
                if bypass {
                    return Err(SimError::internal(
                        "bypass queue offered for specialization",
                    ));
                }
                let kind = payload_kind("queue")?;
                let mut items = VecDeque::new();
                if !blob.is_empty() {
                    let mut r = StateReader::new(blob);
                    let n = r.get_len()?;
                    if n > depth {
                        return Err(SimError::model(format!(
                            "{name}: restored occupancy {n} exceeds depth {depth}"
                        )));
                    }
                    for _ in 0..n {
                        items.push_back(KVal::from_value(&r.get_value()?, kind, name, "in")?);
                    }
                    r.expect_end()?;
                }
                Kernel::Queue(QueueK {
                    depth,
                    items,
                    ins: ins.clone().collect(),
                    outs: outs.clone().collect(),
                    inst,
                    s_deq: UNSET,
                    s_enq: UNSET,
                    s_full: UNSET,
                    s_occ: UNSET,
                    s_dist: UNSET,
                })
            }
            KernelHint::Register => {
                let kind = payload_kind("register")?;
                let mut held = None;
                if !blob.is_empty() {
                    let mut r = StateReader::new(blob);
                    if r.get_bool()? {
                        held = Some(KVal::from_value(&r.get_value()?, kind, name, "in")?);
                    }
                    r.expect_end()?;
                }
                Kernel::Register(RegisterK {
                    held,
                    in_: one_in(),
                    out: one_out(),
                    inst,
                    s_fwd: UNSET,
                })
            }
            KernelHint::Delay { latency } => {
                let kind = payload_kind("delay")?;
                let mut inflight = VecDeque::new();
                if !blob.is_empty() {
                    let mut r = StateReader::new(blob);
                    let n = r.get_len()?;
                    if n as u64 > latency + 1 {
                        return Err(SimError::model(format!(
                            "{name}: restored occupancy {n} exceeds latency bound"
                        )));
                    }
                    for _ in 0..n {
                        let v = KVal::from_value(&r.get_value()?, kind, name, "in")?;
                        let ready = r.get_u64()?;
                        inflight.push_back((v, ready));
                    }
                    r.expect_end()?;
                }
                Kernel::Delay(DelayK {
                    latency,
                    inflight,
                    in_: one_in(),
                    out: one_out(),
                    inst,
                    s_del: UNSET,
                    s_acc: UNSET,
                })
            }
            KernelHint::Tee { require_all } => Kernel::Tee(TeeK {
                require_all,
                in_: one_in(),
                outs: outs.clone().collect(),
                inst,
                s_con: UNSET,
                s_del: UNSET,
            }),
            KernelHint::Inverter => Kernel::Inverter(InverterK {
                in_: one_in(),
                out: one_out(),
            }),
            KernelHint::Alu { compute } => Kernel::Alu(AluK {
                compute,
                in_: one_in(),
                out: one_out(),
                inst,
                s_ops: UNSET,
            }),
            KernelHint::Sink { collect } => Kernel::Sink(SinkK {
                collect,
                ins: ins.clone().collect(),
                inst,
                s_rcv: UNSET,
                s_sum: UNSET,
            }),
            KernelHint::ScriptSource { script } => {
                let kind = payload_kind("script source")?;
                let script = script
                    .iter()
                    .map(|v| KVal::from_value(v, kind, name, "out"))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut next = 0usize;
                if !blob.is_empty() {
                    // The cursor is a bare `u64`, not a length prefix:
                    // `get_len` would bound it by the bytes left after it.
                    let mut r = StateReader::new(blob);
                    let cursor = r.get_u64()?;
                    r.expect_end()?;
                    if cursor > script.len() as u64 {
                        return Err(SimError::model(format!(
                            "{name}: restored cursor {cursor} beyond script length {}",
                            script.len()
                        )));
                    }
                    next = cursor as usize;
                }
                Kernel::Script(ScriptK {
                    script,
                    next,
                    out: one_out(),
                    inst,
                    s_emit: UNSET,
                })
            }
            KernelHint::RepeatingSource { value } => {
                let kind = payload_kind("repeating source")?;
                Kernel::Repeat(RepeatK {
                    value: KVal::from_value(&value, kind, name, "out")?,
                    outs: outs.clone().collect(),
                    inst,
                    s_emit: UNSET,
                })
            }
            KernelHint::SeqSource {
                start,
                count,
                step,
                period,
            } => {
                let mut next_val = start;
                let mut remaining = count;
                if !blob.is_empty() {
                    let mut r = StateReader::new(blob);
                    next_val = r.get_u64()?;
                    remaining = r.get_u64()?;
                    r.expect_end()?;
                }
                Kernel::Seq(SeqK {
                    next_val,
                    step,
                    remaining,
                    period,
                    out: one_out(),
                    inst,
                    s_emit: UNSET,
                })
            }
        })
    }
}

/// Resolve the instance's port slots into lane bindings: its input
/// slots and its output slots, port by port in connection-index order,
/// read from the topology's port table as they are consumed. Every
/// specializable template has at most one input port and one output port,
/// so the per-port slots concatenate without ambiguity.
#[allow(clippy::type_complexity)]
fn bind_io<'t>(
    topo: &'t Topology,
    inst: InstanceId,
    plan: &'t SpecPlan,
) -> Result<
    (
        impl Iterator<Item = InLane> + Clone + 't,
        impl Iterator<Item = OutLane> + Clone + 't,
    ),
    SimError,
> {
    let info = topo.instance(inst);
    let slots = move |dir: Dir| {
        info.spec
            .ports
            .iter()
            .enumerate()
            .filter(move |(_, ps)| ps.dir == dir)
            .flat_map(move |(p, _)| topo.port_edges(inst, PortId(p as u16)).iter().copied())
    };
    let lane = move |e: EdgeId| plan.lane_of[e.0 as usize];
    if slots(Dir::In).any(|e| lane(e) == NO_LANE) {
        return Err(SimError::internal(format!(
            "{}: eligible instance fed by a slow edge",
            info.name
        )));
    }
    let ins = slots(Dir::In).map(move |e| InLane::Fast(lane(e)));
    let outs = slots(Dir::Out).map(move |e| match lane(e) {
        NO_LANE => OutLane::Slow(e),
        l => OutLane::Fast(l),
    });
    Ok((ins, outs))
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// The edges on instance `i`'s ports of direction `dir`, port by port.
/// Each port lists its edges in ascending id, but the ports interleave:
/// a caller that reports one edge takes the lowest id.
fn inst_edges(topo: &Topology, i: usize, dir: Dir) -> impl Iterator<Item = EdgeId> + '_ {
    let flat = topo.edges_flat();
    topo.hot_ports(InstanceId(i as u32))
        .iter()
        .filter(move |p| p.dir == dir)
        .flat_map(move |p| {
            flat[p.off as usize..(p.off + p.len) as usize]
                .iter()
                .copied()
        })
}

/// True when the data/enable arcs internal to an island (`members`,
/// ascending) close a cycle. Kahn's algorithm, reading each member's arcs
/// from the topology as it is visited (a single member with a self-loop
/// edge is caught too).
fn data_cyclic(topo: &Topology, members: &[u32]) -> bool {
    let arcs = |m: u32| {
        inst_edges(topo, m as usize, Dir::Out)
            .filter_map(|e| members.binary_search(&topo.edge_meta(e).dst.inst.0).ok())
    };
    let mut indeg = vec![0usize; members.len()];
    for &m in members {
        for d in arcs(m) {
            indeg[d] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..members.len()).filter(|&j| indeg[j] == 0).collect();
    let mut seen = 0usize;
    while let Some(j) = ready.pop() {
        seen += 1;
        for d in arcs(members[j]) {
            indeg[d] -= 1;
            if indeg[d] == 0 {
                ready.push(d);
            }
        }
    }
    seen != members.len()
}

/// Sentinel in [`SpecPlan::lane_of`] for edges that stay on the store.
pub(crate) const NO_LANE: u32 = u32::MAX;

/// The compile-time specialization decision for one topology: which
/// instances run as kernels, which edges become lanes, and why the rest
/// stayed dynamic.
pub(crate) struct SpecPlan {
    /// Per instance: lowered to a kernel?
    pub(crate) eligible: Vec<bool>,
    /// Per ineligible instance: a human-readable demotion reason
    /// (`None` for eligible instances).
    pub(crate) reason: Vec<Option<String>>,
    /// Per instance: the unboxed shape of values it emits/holds, once
    /// resolved. `None` for sinks and dynamic instances.
    pub(crate) kind: Vec<Option<ValKind>>,
    /// Per edge: its lane index, or [`NO_LANE`].
    pub(crate) lane_of: Vec<u32>,
    /// Edge ids of the lanes, in lane order.
    pub(crate) lane_edges: Vec<EdgeId>,
    /// Per compiled-plan island ordinal: true iff every member is eligible
    /// (islands specialize wholesale or not at all).
    pub(crate) spec_islands: Vec<bool>,
    /// Number of eligible instances.
    pub(crate) n_eligible: usize,
}

/// Decide, per instance of an already compiled plan, whether its handler
/// lowers to a [`Kernel`]. Pure analysis: no kernels are built here (state
/// is captured lazily, at first specialized step), so the summary path can
/// run it on a `&Simulator`.
pub(crate) fn classify(
    topo: &Topology,
    plan: &CompiledPlan,
    modules: &[Box<dyn Module>],
) -> SpecPlan {
    let n = topo.instance_count();
    let n_edges = topo.edge_count();
    let mut eligible = vec![false; n];
    let mut reason: Vec<Option<String>> = vec![None; n];
    let mut kind: Vec<Option<ValKind>> = vec![None; n];

    // An instance's in (out) edges, read from the topology's port table,
    // and the producer (consumer) at the other end of an edge.
    let ins = |i: usize| inst_edges(topo, i, Dir::In);
    let outs = |i: usize| inst_edges(topo, i, Dir::Out);
    let src_of = |e: EdgeId| topo.edge_meta(e).src.inst.0 as usize;
    let dst_of = |e: EdgeId| topo.edge_meta(e).dst.inst.0 as usize;

    let demote =
        |eligible: &mut Vec<bool>, reason: &mut Vec<Option<String>>, i: usize, why: String| {
            if eligible[i] {
                eligible[i] = false;
                reason[i] = Some(why);
            }
        };

    // Pass 1: hints, and the demotions decidable per-instance.
    let hints: Vec<Option<KernelHint>> = modules.iter().map(|m| m.specialize()).collect();
    for i in 0..n {
        match &hints[i] {
            None => {
                reason[i] = Some("dynamic template (no kernel hint)".to_owned());
            }
            Some(KernelHint::Queue { bypass: true, .. }) => {
                reason[i] = Some("bypass queue (combinational fall-through)".to_owned());
            }
            Some(_) => eligible[i] = true,
        }
    }

    // Pass 2: lane-type inference to a fixed point. Sources fix their own
    // kind; pass-through templates join the kinds of their producers.
    for i in 0..n {
        if !eligible[i] {
            continue;
        }
        match &hints[i] {
            Some(KernelHint::ScriptSource { script }) => {
                // Every value must share the first's unboxed shape; an
                // empty script trivially types as words.
                let k = match script.first() {
                    None => Some(ValKind::Word),
                    Some(first) => match kind_of(first) {
                        Some(fk) if script.iter().all(|v| kind_of(v) == Some(fk)) => Some(fk),
                        _ => None,
                    },
                };
                match k {
                    Some(kv) => kind[i] = Some(kv),
                    None => demote(
                        &mut eligible,
                        &mut reason,
                        i,
                        "script values are not uniformly word-shaped".to_owned(),
                    ),
                }
            }
            Some(KernelHint::RepeatingSource { value }) => match kind_of(value) {
                Some(kv) => kind[i] = Some(kv),
                None => demote(
                    &mut eligible,
                    &mut reason,
                    i,
                    format!("repeated value has unsupported shape ({})", value.kind()),
                ),
            },
            Some(KernelHint::SeqSource { .. })
            | Some(KernelHint::Alu { .. })
            | Some(KernelHint::Inverter) => kind[i] = Some(ValKind::Word),
            _ => {}
        }
    }
    // Pass-through joins, iterated to a fixed point.
    loop {
        let mut changed = false;
        for i in 0..n {
            if !eligible[i] || kind[i].is_some() {
                continue;
            }
            let joins = matches!(
                &hints[i],
                Some(KernelHint::Queue { .. })
                    | Some(KernelHint::Register)
                    | Some(KernelHint::Delay { .. })
                    | Some(KernelHint::Tee { .. })
            );
            if !joins {
                continue;
            }
            if ins(i).next().is_none() {
                kind[i] = Some(ValKind::Word);
                changed = true;
                continue;
            }
            let mut k: Option<ValKind> = None;
            let mut ok = true;
            for e in ins(i) {
                match (kind[src_of(e)], k) {
                    (Some(sk), None) => k = Some(sk),
                    (Some(sk), Some(cur)) if sk == cur => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok && k.is_some() {
                kind[i] = k;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: island membership + internal data-acyclicity. A member of a
    // data-cyclic island (a combinational ring) relies on fixed-point
    // iteration the straight-line kernels don't do.
    let mut islands: Vec<&[u32]> = vec![&[]; plan.island_count()];
    for node in plan.nodes() {
        if let PlanNode::Island { island, members } = node {
            islands[*island as usize] = members;
        }
    }
    let mut in_cyclic_island = vec![false; n];
    for &members in &islands {
        if data_cyclic(topo, members) {
            for &m in members.iter() {
                in_cyclic_island[m as usize] = true;
            }
        }
    }
    for i in 0..n {
        if eligible[i] && in_cyclic_island[i] {
            demote(
                &mut eligible,
                &mut reason,
                i,
                "data-cyclic island (needs fixed-point iteration)".to_owned(),
            );
        }
        if eligible[i] && kind[i].is_none() && !matches!(&hints[i], Some(KernelHint::Sink { .. })) {
            demote(
                &mut eligible,
                &mut reason,
                i,
                "wire type did not resolve to an unboxed shape".to_owned(),
            );
        }
    }
    // Operand-shape constraints against the (now final) producer kinds.
    for i in 0..n {
        if !eligible[i] {
            continue;
        }
        let why = match &hints[i] {
            Some(KernelHint::Alu { .. })
                if ins(i).any(|e| kind[src_of(e)] != Some(ValKind::Tup3)) =>
            {
                "operand wire does not carry (op, a, b) word tuples"
            }
            Some(KernelHint::Inverter)
                if ins(i).any(|e| {
                    !matches!(kind[src_of(e)], Some(ValKind::Word) | Some(ValKind::Bool))
                }) =>
            {
                "input wire is not word-shaped"
            }
            _ => continue,
        };
        demote(&mut eligible, &mut reason, i, why.to_owned());
    }

    // Pass 4: closure to a fixed point over the structural rules —
    // producers of eligible instances must be eligible, ack-readers need
    // specialized consumers, islands are all-or-none.
    loop {
        let mut changed = false;
        for i in 0..n {
            if !eligible[i] {
                continue;
            }
            // The reason names the neighbour on the lowest-numbered
            // offending edge.
            let fed_by = ins(i).filter(|&e| !eligible[src_of(e)]).min_by_key(|e| e.0);
            if let Some(e) = fed_by {
                let src = InstanceId(src_of(e) as u32);
                demote(
                    &mut eligible,
                    &mut reason,
                    i,
                    format!("fed by dynamic instance {:?}", topo.name(src)),
                );
                changed = true;
                continue;
            }
            if topo.instance(InstanceId(i as u32)).spec.reads_ack_in_react {
                let acked_by = outs(i)
                    .filter(|&e| !eligible[dst_of(e)])
                    .min_by_key(|e| e.0);
                if let Some(e) = acked_by {
                    let dst = InstanceId(dst_of(e) as u32);
                    demote(
                        &mut eligible,
                        &mut reason,
                        i,
                        format!("reads acks from dynamic consumer {:?}", topo.name(dst)),
                    );
                    changed = true;
                }
            }
        }
        for &members in &islands {
            if members.iter().any(|&m| !eligible[m as usize])
                && members.iter().any(|&m| eligible[m as usize])
            {
                for &m in members {
                    if eligible[m as usize] {
                        demote(
                            &mut eligible,
                            &mut reason,
                            m as usize,
                            "fixed-point island contains dynamic instances".to_owned(),
                        );
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Lanes: an edge is fast iff both endpoints are eligible.
    let mut lane_of = vec![NO_LANE; n_edges];
    let mut lane_edges = Vec::new();
    for (e, lane) in lane_of.iter_mut().enumerate() {
        let em = topo.edge_meta(EdgeId(e as u32));
        if eligible[em.src.inst.0 as usize] && eligible[em.dst.inst.0 as usize] {
            *lane = lane_edges.len() as u32;
            lane_edges.push(EdgeId(e as u32));
        }
    }
    let spec_islands = islands
        .iter()
        .map(|members| !members.is_empty() && members.iter().all(|&m| eligible[m as usize]))
        .collect();
    let n_eligible = eligible.iter().filter(|&&e| e).count();

    SpecPlan {
        eligible,
        reason,
        kind,
        lane_of,
        lane_edges,
        spec_islands,
        n_eligible,
    }
}

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

/// The specialized half of a compiled plan at run time: the classification,
/// the lane table, and (once live) the materialized kernels.
pub(crate) struct SpecState {
    /// The classification.
    pub(crate) plan: SpecPlan,
    /// Kernels, indexed by instance (`None` for dynamic instances).
    pub(crate) kernels: Vec<Option<Kernel>>,
    /// Lane table, in [`SpecPlan::lane_edges`] order.
    pub(crate) lanes: Vec<Lane>,
    /// True once kernels hold live state (module state has been captured
    /// into them and not yet written back).
    pub(crate) live: bool,
}

impl SpecState {
    /// Classify and build the runtime shell; `None` when nothing is
    /// eligible, so fully dynamic plans carry zero overhead.
    pub(crate) fn build(
        topo: &Topology,
        plan: &CompiledPlan,
        modules: &[Box<dyn Module>],
    ) -> Option<Box<SpecState>> {
        let plan = classify(topo, plan, modules);
        if plan.n_eligible == 0 {
            return None;
        }
        let lanes = plan.lane_edges.iter().map(|&e| Lane::new(e)).collect();
        Some(Box::new(SpecState {
            plan,
            kernels: Vec::new(),
            lanes,
            live: false,
        }))
    }

    /// Capture module state into freshly built kernels. Statistics slots
    /// start unresolved, so re-materialization after a restore re-binds
    /// against the current `Stats` arena.
    pub(crate) fn materialize(
        &mut self,
        topo: &Topology,
        modules: &[Box<dyn Module>],
    ) -> Result<(), SimError> {
        let n = topo.instance_count();
        self.kernels.clear();
        self.kernels.resize_with(n, || None);
        for (i, module) in modules.iter().enumerate() {
            if !self.plan.eligible[i] {
                continue;
            }
            let hint = module.specialize().ok_or_else(|| {
                SimError::internal(format!(
                    "{}: eligible instance stopped offering a kernel hint",
                    topo.name(InstanceId(i as u32))
                ))
            })?;
            let blob = module.state_save()?;
            self.kernels[i] = Some(Kernel::materialize(hint, &blob, topo, i, &self.plan)?);
        }
        for l in &mut self.lanes {
            l.reset();
        }
        self.live = true;
        Ok(())
    }

    /// Write kernel state back into the modules and drop the kernels, so
    /// the dynamic path (probes, faults, snapshots-by-module) sees exactly
    /// the state the kernels advanced to.
    pub(crate) fn sync_back(&mut self, modules: &mut [Box<dyn Module>]) -> Result<(), SimError> {
        if self.live {
            for (i, k) in self.kernels.iter().enumerate() {
                if let Some(k) = k {
                    modules[i].state_restore(&k.state_blob()?)?;
                }
            }
            self.live = false;
        }
        self.kernels.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Plan summary
// ---------------------------------------------------------------------------

/// One instance's row in a [`PlanSummary`].
#[derive(Clone, Debug)]
pub struct InstanceSummary {
    /// Instance name.
    pub name: String,
    /// Template name.
    pub template: String,
    /// True if the instance runs as a specialized kernel.
    pub specialized: bool,
    /// For dynamic instances: why specialization was declined.
    pub reason: Option<String>,
}

/// Which instances of a compiled plan specialize, and why the rest stayed
/// dynamic — the payload behind `Simulator::plan_summary()` and the
/// examples' `--explain-plan` flag.
#[derive(Clone, Debug)]
pub struct PlanSummary {
    /// Per-instance rows, in instance-id order.
    pub instances: Vec<InstanceSummary>,
    /// Number of specialized instances.
    pub specialized: usize,
    /// Number of dynamic instances.
    pub dynamic: usize,
    /// Edges lowered to unboxed lanes.
    pub fast_edges: usize,
    /// Total edges in the topology.
    pub total_edges: usize,
    /// False when specialization is administratively off (disabled via
    /// `set_specialization(false)`, or suppressed by probes/faults), or
    /// when a failed lowering fell back to the dynamic handlers for good.
    pub enabled: bool,
}

impl SpecPlan {
    /// Render the classification for `topo`.
    pub(crate) fn summary(&self, topo: &Topology, enabled: bool) -> PlanSummary {
        let instances = (0..topo.instance_count())
            .map(|i| {
                let info = topo.instance(InstanceId(i as u32));
                InstanceSummary {
                    name: info.name.clone(),
                    template: info.spec.template.to_owned(),
                    specialized: self.eligible[i],
                    reason: self.reason[i].clone(),
                }
            })
            .collect::<Vec<_>>();
        PlanSummary {
            specialized: self.n_eligible,
            dynamic: instances.len() - self.n_eligible,
            fast_edges: self.lane_edges.len(),
            total_edges: self.lane_of.len(),
            enabled,
            instances,
        }
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {} specialized, {} dynamic; {}/{} edges on unboxed lanes{}",
            self.specialized,
            self.dynamic,
            self.fast_edges,
            self.total_edges,
            if self.enabled {
                ""
            } else {
                " (specialization disabled)"
            },
        )?;
        for inst in &self.instances {
            if inst.specialized {
                writeln!(f, "  {} ({}): specialized", inst.name, inst.template)?;
            } else {
                writeln!(
                    f,
                    "  {} ({}): dynamic — {}",
                    inst.name,
                    inst.template,
                    inst.reason.as_deref().unwrap_or("not classified"),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::NO_WAKE;

    #[test]
    fn kval_roundtrips_through_value() {
        for (kv, kind) in [
            (KVal::Word(7), ValKind::Word),
            (KVal::Bool(true), ValKind::Bool),
            (KVal::Tup3([1, 2, 3]), ValKind::Tup3),
        ] {
            let v = kv.to_value();
            assert_eq!(kind_of(&v), Some(kind));
            assert_eq!(KVal::from_value(&v, kind, "i", "p").unwrap(), kv);
        }
    }

    #[test]
    fn kind_of_rejects_dynamic_shapes() {
        assert_eq!(kind_of(&Value::Unit), None);
        assert_eq!(kind_of(&Value::Int(3)), None);
        assert_eq!(kind_of(&Value::Float(0.5)), None);
        assert_eq!(
            kind_of(&Value::Tuple(Arc::new(vec![
                Value::Word(1),
                Value::Word(2)
            ]))),
            None
        );
        assert_eq!(
            kind_of(&Value::Tuple(Arc::new(vec![
                Value::Word(1),
                Value::Bool(false),
                Value::Word(2)
            ]))),
            None
        );
    }

    #[test]
    fn from_value_mismatch_is_structured_type_error() {
        let err = KVal::from_value(&Value::Unit, ValKind::Word, "q0", "in").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("q0.in"), "missing site: {msg}");
        assert!(msg.contains("unit"), "missing kind: {msg}");
    }

    #[test]
    fn kval_as_word_mirrors_value_as_word() {
        for kv in [KVal::Word(9), KVal::Bool(true), KVal::Tup3([0, 1, 2])] {
            assert_eq!(kv.as_word(), kv.to_value().as_word());
        }
    }

    #[test]
    fn lane_writes_are_first_touch_then_idempotent() {
        let mut lanes = vec![Lane::new(EdgeId(0))];
        let mut store = SignalStore::new(0);
        let mut io = Io {
            lanes: &mut lanes,
            store: &mut store,
            wake: None,
            now: 0,
            saw_unknown: false,
        };
        io.send(OutLane::Fast(0), KVal::Word(3)).unwrap();
        io.send(OutLane::Fast(0), KVal::Word(3)).unwrap();
        assert!(io.send(OutLane::Fast(0), KVal::Word(4)).is_err());
        io.set_ack(InLane::Fast(0), true).unwrap();
        assert!(io.lanes[0].fully_resolved());
        assert!(io.lanes[0].completes());
    }

    #[test]
    fn island_wake_reports_newly_resolved_wires() {
        let mut lanes = vec![Lane::new(EdgeId(1))];
        let mut store = SignalStore::new(0);
        // Edge 1: data and enable wake instance 0, ack wakes instance 1.
        let targets = [NO_WAKE, NO_WAKE, NO_WAKE, 0, 0, 1];
        let mut wake = WakeSink::new(2, Arc::new(targets), true);
        wake.plan_walk(Some(1), true);
        let mut io = Io {
            lanes: &mut lanes,
            store: &mut store,
            wake: Some(&mut wake),
            now: 0,
            saw_unknown: false,
        };
        // Reading a resolved wire leaves the invocation settleable; an
        // unresolved read does not.
        assert_eq!(io.out_ack(OutLane::Fast(0)), UNR);
        assert!(io.saw_unknown);
        io.saw_unknown = false;
        io.send(OutLane::Fast(0), KVal::Word(1)).unwrap();
        io.set_ack(InLane::Fast(0), false).unwrap();
        assert_eq!(io.in_data(InLane::Fast(0)), YES_S);
        assert_eq!(io.out_ack(OutLane::Fast(0)), NO_S);
        assert!(!io.saw_unknown);
        // An idempotent re-drive resolves nothing and wakes nobody.
        io.set_ack(InLane::Fast(0), false).unwrap();
        assert_eq!(
            wake.log,
            [
                (EdgeId(1), Wire::Data),
                (EdgeId(1), Wire::Enable),
                (EdgeId(1), Wire::Ack)
            ]
        );
        assert_eq!(wake.fifo, [0, 1], "targets queued at the write, once");
    }

    #[test]
    fn unconnected_slots_mirror_dynamic_defaults() {
        let mut lanes: Vec<Lane> = Vec::new();
        let mut store = SignalStore::new(0);
        let mut io = Io {
            lanes: &mut lanes,
            store: &mut store,
            wake: None,
            now: 0,
            saw_unknown: false,
        };
        assert_eq!(io.in_data(InLane::Unconnected), NO_S);
        assert_eq!(io.out_ack(OutLane::Unconnected), YES_S);
        io.send(OutLane::Unconnected, KVal::Word(1)).unwrap();
        io.set_ack(InLane::Unconnected, true).unwrap();
        assert!(out_transferred(io.lanes, io.store, OutLane::Unconnected));
        assert_eq!(in_transferred(io.lanes, InLane::Unconnected), None);
    }
}
