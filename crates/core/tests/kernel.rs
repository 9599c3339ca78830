//! End-to-end kernel semantics tests: handshakes, backpressure, default
//! control semantics, partial specification, scheduler equivalence,
//! contract-violation detection, and what an island iteration and a
//! `commit` may observe of the engine's data layout (push-at-write wakes,
//! payloads that outlive their step) — nothing.

use liberty_core::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const P0: PortId = PortId(0);
const P1: PortId = PortId(1);

/// Emits `Word(now)` on every connection of its single output port.
struct Counter;
impl Module for Counter {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            ctx.send(P0, i, Value::Word(ctx.now()))?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            if ctx.transferred_out(P0, i) {
                ctx.count("sent", 1);
            }
        }
        Ok(())
    }
}
fn counter_spec() -> ModuleSpec {
    ModuleSpec::new("counter").output("out", 0, u32::MAX)
}

/// Single-entry register stage: forwards last cycle's input; accepts new
/// input only when empty or draining this cycle.
struct Stage {
    held: Option<Value>,
}
impl Module for Stage {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        // Output is a function of state only: registered.
        match &self.held {
            Some(v) => ctx.send(P1, 0, v.clone())?,
            None => ctx.send_nothing(P1, 0)?,
        }
        // Flow control must be driven explicitly: an undriven ack defaults
        // to *accept* (default control semantics). Accept only when empty;
        // explicitly refuse when full, giving a half-throughput stage.
        ctx.set_ack(P0, 0, self.held.is_none())?;
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P1, 0) {
            self.held = None;
            ctx.count("forwarded", 1);
        }
        if let Some(v) = ctx.transferred_in(P0, 0) {
            self.held = Some(v.clone());
        }
        Ok(())
    }
}
fn stage_spec() -> ModuleSpec {
    ModuleSpec::new("stage")
        .input("in", 0, 1)
        .output("out", 0, 1)
}

/// Accepts everything; counts and sums received words.
struct Collector;
impl Module for Collector {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            ctx.set_ack(P0, i, true)?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P0) {
            if let Some(v) = ctx.transferred_in(P0, i) {
                ctx.count("received", 1);
                ctx.count("sum", v.as_word().unwrap_or(0));
            }
        }
        Ok(())
    }
}
fn collector_spec() -> ModuleSpec {
    ModuleSpec::new("collector").input("in", 0, u32::MAX)
}

/// Refuses every offer.
struct Refuser;
impl Module for Refuser {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P0, 0, false)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_in(P0, 0).is_some() {
            ctx.count("accepted", 1);
        }
        Ok(())
    }
}
fn refuser_spec() -> ModuleSpec {
    ModuleSpec::new("refuser").input("in", 0, 1)
}

#[test]
fn direct_transfer_every_cycle() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(10).unwrap();
    assert_eq!(sim.stats().counter(k, "received"), 10);
    // Words 0..=9 sum to 45.
    assert_eq!(sim.stats().counter(k, "sum"), 45);
    assert_eq!(sim.stats().counter(c, "sent"), 10);
}

#[test]
fn refused_transfer_never_completes() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let r = b.add("r", refuser_spec(), Box::new(Refuser)).unwrap();
    b.connect(c, "out", r, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(5).unwrap();
    assert_eq!(sim.stats().counter(r, "accepted"), 0);
    assert_eq!(sim.stats().counter(c, "sent"), 0);
}

#[test]
fn pipeline_of_stages_delays_and_throttles() {
    // counter -> stage -> collector. The stage only accepts when empty,
    // so it forwards at half rate once primed.
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let s = b
        .add("s", stage_spec(), Box::new(Stage { held: None }))
        .unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", s, "in").unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(9).unwrap();
    // Cycle 0: stage accepts word 0. Cycle 1: forwards 0 (full, rejects).
    // Cycle 2: accepts 2... forwarded on odd cycles: 4 completions in 9.
    let fwd = sim.stats().counter(s, "forwarded");
    assert_eq!(fwd, 4);
    assert_eq!(sim.stats().counter(k, "received"), 4);
    // Received words are the even counter values 0,2,4,6.
    assert_eq!(sim.stats().counter(k, "sum"), 12);
}

#[test]
fn unconnected_output_is_partial_spec_ok() {
    // A counter with nothing attached: runs fine, sends complete nowhere.
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(5).unwrap();
    assert_eq!(sim.stats().counter(c, "sent"), 0);
}

#[test]
fn unconnected_input_reads_nothing() {
    let mut b = NetlistBuilder::new();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(5).unwrap();
    assert_eq!(sim.stats().counter(k, "received"), 0);
}

/// A lazy sender that drives nothing at all; paired with a collector, the
/// default phase must resolve every wire (data No, enable No, ack Yes).
struct Silent;
impl Module for Silent {
    fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

#[test]
fn default_phase_resolves_silent_connections() {
    let mut b = NetlistBuilder::new();
    let s = b.add("s", counter_spec(), Box::new(Silent)).unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(3).unwrap();
    assert_eq!(sim.stats().counter(k, "received"), 0);
    // Data and enable were defaulted each cycle (ack driven by collector).
    assert_eq!(sim.metrics().defaults, 6);
}

/// Drives conflicting resolutions to provoke a contract violation.
struct Contradictor;
impl Module for Contradictor {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_data(P0, 0, Res::No)?;
        ctx.set_data(P0, 0, Res::Yes(Value::Word(1)))?;
        Ok(())
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

#[test]
fn non_monotonic_module_is_caught() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Contradictor)).unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    let err = sim.step().unwrap_err();
    assert!(err.to_string().contains("contract violation"));
    assert!(err.to_string().contains('c'));
}

/// Tries to ack its own output port (direction misuse).
struct WrongDir;
impl Module for WrongDir {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P0, 0, true)
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

#[test]
fn direction_misuse_is_caught() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(WrongDir)).unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    assert!(sim.step().is_err());
}

fn build_chain(n_stages: usize, sched: SchedKind) -> (Simulator, InstanceId) {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let mut prev = c;
    let mut prev_port = "out";
    for i in 0..n_stages {
        let s = b
            .add(
                format!("s{i}"),
                stage_spec(),
                Box::new(Stage { held: None }),
            )
            .unwrap();
        b.connect(prev, prev_port, s, "in").unwrap();
        prev = s;
        prev_port = "out";
    }
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(prev, prev_port, k, "in").unwrap();
    let sim = Simulator::new(b.build().unwrap(), sched);
    (sim, k)
}

#[test]
fn all_three_schedulers_agree() {
    for n in [1usize, 3, 8] {
        let (mut w, kw) = build_chain(n, SchedKind::Sweep);
        let (mut c, kc) = build_chain(n, SchedKind::Compiled);
        w.run(40).unwrap();
        c.run(40).unwrap();
        assert_eq!(
            w.stats().counter(kw, "received"),
            c.stats().counter(kc, "received"),
            "chain of {n}"
        );
        assert_eq!(
            w.stats().counter(kw, "sum"),
            c.stats().counter(kc, "sum"),
            "chain of {n}"
        );
    }
}

#[test]
fn sweep_scheduler_does_the_most_work() {
    let (mut w, _) = build_chain(16, SchedKind::Sweep);
    let (mut c, _) = build_chain(16, SchedKind::Compiled);
    w.run(50).unwrap();
    c.run(50).unwrap();
    assert!(
        w.metrics().reacts > c.metrics().reacts,
        "sweep {} !> compiled {}",
        w.metrics().reacts,
        c.metrics().reacts
    );
}

#[test]
fn static_scheduler_uses_no_more_reacts() {
    let (mut w, _) = build_chain(16, SchedKind::Sweep);
    let (mut c, _) = build_chain(16, SchedKind::Compiled);
    w.run(50).unwrap();
    c.run(50).unwrap();
    assert!(
        c.metrics().reacts <= w.metrics().reacts,
        "compiled {} > sweep {}",
        c.metrics().reacts,
        w.metrics().reacts
    );
    // The chain is acyclic: the plan runs each of its 18 instances once
    // a step.
    assert_eq!(c.metrics().reacts, 18 * 50);
}

struct RecordingTracer(std::sync::Arc<parking_lot_stub::Mutex<Vec<(u64, String, String)>>>);

/// Tiny local stand-in so the core crate needs no extra dev-dependency.
mod parking_lot_stub {
    pub use std::sync::Mutex;
}

impl Probe for RecordingTracer {
    fn step(&mut self, log: &StepLog<'_>) {
        for r in log.records {
            if let Record::Transfer { src, dst, .. } = r {
                let (src, dst) = (log.topo.name(*src), log.topo.name(*dst));
                self.0
                    .lock()
                    .unwrap()
                    .push((log.now, src.to_owned(), dst.to_owned()));
            }
        }
    }
}

#[test]
fn tracer_sees_transfers() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    let log = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    sim.set_probe(Box::new(RecordingTracer(log.clone())));
    sim.run(3).unwrap();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 3);
    assert_eq!(log[0], (0, "c".to_owned(), "k".to_owned()));
}

#[test]
fn fanout_to_multiple_collectors() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let k1 = b.add("k1", collector_spec(), Box::new(Collector)).unwrap();
    let k2 = b.add("k2", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", k1, "in").unwrap();
    b.connect(c, "out", k2, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(4).unwrap();
    assert_eq!(sim.stats().counter(k1, "received"), 4);
    assert_eq!(sim.stats().counter(k2, "received"), 4);
    assert_eq!(sim.stats().counter(c, "sent"), 8);
}

#[test]
fn run_until_stops_at_predicate() {
    let mut b = NetlistBuilder::new();
    let c = b.add("c", counter_spec(), Box::new(Counter)).unwrap();
    let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
    b.connect(c, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    let steps = sim
        .run_until(100, |st| st.counter(k, "received") >= 7)
        .unwrap();
    assert_eq!(steps, 7);
    assert_eq!(sim.now(), 7);
}

#[test]
fn metrics_track_steps_and_commits() {
    let (mut sim, _) = build_chain(2, SchedKind::Compiled);
    sim.run(5).unwrap();
    let m = sim.metrics();
    assert_eq!(m.steps, 5);
    // 4 instances * 5 steps.
    assert_eq!(m.commits, 20);
    assert!(m.reacts >= 20);
}

#[test]
fn report_contains_named_stats() {
    let (mut sim, _) = build_chain(1, SchedKind::Compiled);
    sim.run(8).unwrap();
    let rep = sim.report();
    assert!(rep.counters.contains_key("k.received"));
    assert!(rep.counters.contains_key("s0.forwarded"));
}

// ----- islands: wakes pushed at the write ------------------------------

/// Drives its output unconditionally; `peeks` first reads its input,
/// which in a self-loop is the wire it is about to drive.
struct SelfLoop {
    peeks: bool,
    calls: Arc<AtomicU64>,
}
impl Module for SelfLoop {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.peeks {
            ctx.data(P0, 0);
        }
        ctx.set_ack(P0, 0, true)?;
        ctx.send(P1, 0, Value::Word(7))
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

#[test]
fn self_loop_singleton_wakes_itself_while_running() {
    let run = |peeks: bool| {
        let calls = Arc::new(AtomicU64::new(0));
        let module = Box::new(SelfLoop {
            peeks,
            calls: calls.clone(),
        });
        let mut b = NetlistBuilder::new();
        let spec = ModuleSpec::new("selfloop")
            .input("in", 1, 1)
            .output("out", 1, 1);
        let a = b.add("a", spec, module).unwrap();
        b.connect(a, "out", a, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        assert_eq!(sim.compiled_plan().unwrap().island_count(), 1);
        sim.run(5).unwrap();
        assert_eq!(sim.transfer_counts(), &[5]);
        calls.load(Ordering::Relaxed)
    };
    // It read its own input while that was still `Unknown`: the wake
    // it pushed onto the FIFO while running is honoured.
    assert_eq!(run(true), 10);
    // It read nothing: the same push is discarded at the pop, because
    // the run that made it also settled the instance.
    assert_eq!(run(false), 5);
}

/// Ring member that contradicts itself: answers `Yes` with nothing
/// and nothing with `Yes`, so under a watchdog its output flips for
/// as long as somebody keeps feeding the flip back.
struct Contrary;
impl Module for Contrary {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P0, 0, true)?;
        match ctx.data(P0, 0) {
            Res::Yes(_) => ctx.send_nothing(P1, 0),
            _ => ctx.send(P1, 0, Value::Word(1)),
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}
/// Ring member that copies its input's polarity to its output.
struct Follower;
impl Module for Follower {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P0, 0, true)?;
        match ctx.data(P0, 0) {
            Res::Yes(v) => ctx.send(P1, 0, v),
            Res::No => ctx.send_nothing(P1, 0),
            Res::Unknown => Ok(()),
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

#[test]
fn oscillated_writes_still_wake_the_island() {
    // Each flip must re-queue the other member, or the iteration
    // would stop after the first one and the step would pass for
    // converged. Woken, the ring spins until the watchdog's budget
    // runs out and names the flipping wires.
    let mut b = NetlistBuilder::new();
    let spec = |t: &'static str| ModuleSpec::new(t).input("in", 1, 1).output("out", 1, 1);
    let c = b
        .add("contrary", spec("contrary"), Box::new(Contrary))
        .unwrap();
    let k = b.add("copy", spec("copy"), Box::new(Follower)).unwrap();
    b.connect(c, "out", k, "in").unwrap();
    b.connect(k, "out", c, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    assert_eq!(sim.compiled_plan().unwrap().island_count(), 1);
    sim.set_watchdog(40);
    let err = sim.run(1).unwrap_err();
    let info = err.as_divergence().expect("divergence, not convergence");
    assert_eq!(info.iters, 41, "every one of the budget's wakes ran");
    let wires: Vec<_> = info.oscillating.iter().map(|w| (w.edge, w.wire)).collect();
    assert_eq!(
        wires,
        [(0, "data"), (0, "enable"), (1, "data"), (1, "enable")]
    );
}

/// Sends on steps 0, 3, 6…, explicitly sends nothing on 1, 4, 7… and
/// stays silent (so the defaults resolve its wires) on 2, 5, 8….
struct EveryThird;
impl Module for EveryThird {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.now() % 3 {
            0 => ctx.send(P0, 0, Value::Word(100 + ctx.now())),
            1 => ctx.send_nothing(P0, 0),
            _ => Ok(()),
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}
/// Accepts everything and checks, every step, that commit sees this
/// step's value or none at all.
struct FreshOnly;
impl Module for FreshOnly {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P0, 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let sent = ctx
            .now()
            .is_multiple_of(3)
            .then(|| Value::Word(100 + ctx.now()));
        assert_eq!(ctx.transferred_in(P0, 0), sent, "step {}", ctx.now());
        let data = sent.map_or(Res::No, Res::Yes);
        assert_eq!(ctx.data(P0, 0), data, "step {}", ctx.now());
        Ok(())
    }
}

#[test]
fn commit_never_sees_a_payload_from_an_earlier_step() {
    // The store keeps a payload past its step (only the next payload
    // write on the edge releases it); a `No` step and a defaulted
    // step after a `Yes` step must not hand it to `commit`.
    for sched in [SchedKind::Sweep, SchedKind::Compiled] {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "s",
                ModuleSpec::new("third").output("out", 1, 1),
                Box::new(EveryThird),
            )
            .unwrap();
        let k = b
            .add(
                "k",
                ModuleSpec::new("fresh").input("in", 1, 1),
                Box::new(FreshOnly),
            )
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), sched);
        sim.run(9).unwrap();
        assert_eq!(sim.transfer_counts(), &[3], "{sched:?}");
    }
}

/// Offers a kernel hint but cannot serialize its state: the one way
/// lowering a classified plan into kernels fails at run time.
struct Unsaveable {
    next: u64,
    saves: Arc<AtomicU64>,
}
impl Module for Unsaveable {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.send(P0, 0, Value::Word(self.next))
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P0, 0) {
            self.next += 3;
            ctx.count("sent", 1);
        }
        Ok(())
    }
    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        self.saves.fetch_add(1, Ordering::Relaxed);
        Err(SimError::model("state lives outside the module"))
    }
    fn specialize(&self) -> Option<KernelHint> {
        Some(KernelHint::SeqSource {
            start: 0,
            count: u64::MAX,
            step: 3,
            period: 1,
        })
    }
}

#[test]
fn failed_materialization_falls_back_to_the_dynamic_handlers_for_good() {
    let run = |specialize: bool| {
        let saves = Arc::new(AtomicU64::new(0));
        let mut b = NetlistBuilder::new();
        let src = Unsaveable {
            next: 0,
            saves: saves.clone(),
        };
        let s = b
            .add(
                "s",
                ModuleSpec::new("unsaveable").output("out", 1, 1),
                Box::new(src),
            )
            .unwrap();
        let k = b.add("k", collector_spec(), Box::new(Collector)).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        let summary = sim.plan_summary().unwrap();
        assert_eq!((summary.specialized, summary.dynamic), (1, 1));
        sim.set_specialization(specialize);
        sim.run(12).unwrap();
        assert!(!sim.plan_summary().unwrap().enabled, "no live kernels");
        let out = (sim.report(), sim.transfer_counts().to_vec(), sim.metrics());
        (out, saves.load(Ordering::Relaxed))
    };
    let (dynamic, saves) = run(false);
    assert_eq!(saves, 0, "nothing to lower with specialization off");
    assert_eq!(dynamic.1, [12]);
    let (fallen_back, saves) = run(true);
    assert_eq!(
        saves, 1,
        "lowering is tried on the first step and never again"
    );
    assert_eq!(fallen_back, dynamic);
}
