//! Integration tests for the fault-injection and resilience layer:
//! wire-level faults (drop/stall/corrupt), instance-level faults (forced
//! panic, latency), the panic quarantine with both failure policies, the
//! convergence watchdog, and deterministic replay of the probe stream.

use liberty_core::prelude::*;

// ---------------------------------------------------------------- fixtures

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

/// Accepts everything; records the received words.
#[derive(Default)]
struct Sink {
    got: std::sync::Arc<std::sync::Mutex<Vec<u64>>>,
}
impl Module for Sink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(PortId(0), 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if let Some(v) = ctx.transferred_in(PortId(0), 0) {
            self.got
                .lock()
                .unwrap()
                .push(v.as_word().unwrap_or(u64::MAX));
        }
        Ok(())
    }
}

/// Panics inside `react` at a chosen cycle — a *real* unwind, exercising
/// the `catch_unwind` path rather than the plan-synthesized panic.
struct PanicsAt(u64);
impl Module for PanicsAt {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        if ctx.now() == self.0 {
            panic!("boom at {}", self.0);
        }
        ctx.send(PortId(0), 0, Value::Word(ctx.now()))
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// Returns a structured error from `react` at a chosen cycle.
struct ErrsAt(u64);
impl Module for ErrsAt {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        if ctx.now() == self.0 {
            return Err(SimError::model("deliberate failure"));
        }
        ctx.send(PortId(0), 0, Value::Word(ctx.now()))
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

/// A logical inverter with a self-loop: drives its output with the
/// negation of its own input, which can never reach a fixed point — the
/// canonical combinational loop the watchdog must catch.
struct SelfInverter;
impl Module for SelfInverter {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.data(PortId(1), 0) {
            Res::Yes(v) => {
                let w = v.as_word().unwrap_or(0);
                ctx.set_data(PortId(0), 0, Res::Yes(Value::Word(1 - (w & 1))))
            }
            Res::No => ctx.set_data(PortId(0), 0, Res::Yes(Value::Word(1))),
            Res::Unknown => Ok(()),
        }
    }
    fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
        Ok(())
    }
}

fn src_sink() -> (Simulator, std::sync::Arc<std::sync::Mutex<Vec<u64>>>) {
    src_sink_with(SchedKind::Compiled)
}

fn src_sink_with(sched: SchedKind) -> (Simulator, std::sync::Arc<std::sync::Mutex<Vec<u64>>>) {
    let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            "s",
            ModuleSpec::new("src").output("out", 1, 1),
            Box::new(Src),
        )
        .unwrap();
    let k = b
        .add(
            "k",
            ModuleSpec::new("sink").input("in", 1, 1),
            Box::new(Sink { got: got.clone() }),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    (Simulator::new(b.build().unwrap(), sched), got)
}

// ------------------------------------------------------------ wire faults

#[test]
fn drop_data_suppresses_transfers_in_window() {
    let (mut sim, got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(7).drop_wire(EdgeId(0), Wire::Data, 2, 5));
    sim.run(8).unwrap();
    // Steps 2,3,4 lose the data write; the default semantics resolve the
    // edge to "no data" and the handshake never completes.
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 5, 6, 7]);
    assert_eq!(sim.metrics().faults_injected, 3);
    assert_eq!(sim.metrics().quarantines, 0);
}

#[test]
fn stall_ack_blocks_handshake_despite_data() {
    let (mut sim, got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(7).stall_wire(EdgeId(0), Wire::Ack, 1, 3));
    sim.run(5).unwrap();
    // The sink acks every step, but the stall forces ack to No in [1,3).
    assert_eq!(*got.lock().unwrap(), vec![0, 3, 4]);
}

#[test]
fn corrupt_data_is_deterministic_and_differs() {
    let run = |seed: u64| {
        let (mut sim, got) = src_sink();
        sim.set_fault_plan(FaultPlan::new(seed).corrupt_wire(EdgeId(0), Wire::Data, 0, 4));
        sim.run(4).unwrap();
        let v = got.lock().unwrap().clone();
        v
    };
    let a = run(11);
    let b = run(11);
    let c = run(12);
    assert_eq!(a, b, "same seed replays identically");
    assert_ne!(a, vec![0, 1, 2, 3], "corruption changed the payloads");
    assert_ne!(a, c, "different seeds corrupt differently");
    assert_eq!(a.len(), 4, "corruption never blocks the handshake");
}

#[test]
fn fault_off_path_is_untouched() {
    let (mut sim, got) = src_sink();
    sim.run(4).unwrap();
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 2, 3]);
    assert_eq!(sim.metrics().faults_injected, 0);
    assert!(sim.quarantined_instances().is_empty());
}

#[test]
fn empty_plan_matches_fault_off_results() {
    let (mut sim, got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(3));
    sim.run(4).unwrap();
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 2, 3]);
    assert_eq!(sim.metrics().faults_injected, 0);
}

// -------------------------------------------------------- instance faults

#[test]
fn forced_panic_aborts_by_default() {
    let (mut sim, _got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(7).panic_at(InstanceId(0), 2));
    let err = sim.run(8).unwrap_err();
    let p = err.as_panic().expect("panic error");
    assert_eq!(p.instance, "s");
    assert_eq!(p.step, 2);
    assert!(p.message.contains("injected panic"), "{}", p.message);
}

#[test]
fn forced_panic_quarantines_under_policy() {
    let (mut sim, got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(7).panic_at(InstanceId(0), 2));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.run(8).unwrap();
    // The source is isolated from step 2 on: its edge falls back to the
    // default "no data" semantics and the sink keeps running untouched.
    assert_eq!(*got.lock().unwrap(), vec![0, 1]);
    assert!(sim.is_quarantined(InstanceId(0)));
    assert!(!sim.is_quarantined(InstanceId(1)));
    assert_eq!(sim.quarantined_instances(), vec![InstanceId(0)]);
    assert_eq!(sim.metrics().quarantines, 1);
}

#[test]
fn real_panic_is_caught_and_quarantined() {
    let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            "bomb",
            ModuleSpec::new("src").output("out", 1, 1),
            Box::new(PanicsAt(3)),
        )
        .unwrap();
    let k = b
        .add(
            "k",
            ModuleSpec::new("sink").input("in", 1, 1),
            Box::new(Sink { got: got.clone() }),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_failure_policy(FailurePolicy::Quarantine);
    // Silence the default panic hook for the expected unwind.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = sim.run(6);
    std::panic::set_hook(prev);
    r.unwrap();
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 2]);
    assert!(sim.is_quarantined(InstanceId(0)));
    assert_eq!(sim.metrics().quarantines, 1);
}

#[test]
fn real_panic_aborts_with_message() {
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            "bomb",
            ModuleSpec::new("src").output("out", 1, 1),
            Box::new(PanicsAt(1)),
        )
        .unwrap();
    let k = b
        .add(
            "k",
            ModuleSpec::new("sink").input("in", 1, 1),
            Box::new(Sink::default()),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    // Any resilience feature (here: a watchdog) routes reactions through
    // the catch_unwind wrapper, so the panic becomes a structured error.
    sim.set_watchdog(1000);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = sim.run(4).unwrap_err();
    std::panic::set_hook(prev);
    let p = err.as_panic().expect("panic error");
    assert_eq!(p.instance, "bomb");
    assert_eq!(p.step, 1);
    assert!(p.message.contains("boom at 1"), "{}", p.message);
}

#[test]
fn react_error_quarantines_under_policy() {
    let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            "errs",
            ModuleSpec::new("src").output("out", 1, 1),
            Box::new(ErrsAt(2)),
        )
        .unwrap();
    let k = b
        .add(
            "k",
            ModuleSpec::new("sink").input("in", 1, 1),
            Box::new(Sink { got: got.clone() }),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.run(5).unwrap();
    assert_eq!(*got.lock().unwrap(), vec![0, 1]);
    assert!(sim.is_quarantined(InstanceId(0)));
}

#[test]
fn latency_fault_only_slows_the_step() {
    let (mut sim, got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(7).latency(InstanceId(0), 1, 3, 1));
    sim.run(4).unwrap();
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 2, 3]);
    assert_eq!(sim.metrics().faults_injected, 2);
}

// ---------------------------------------------------------------- watchdog

#[test]
fn watchdog_reports_divergence_with_oscillating_wires() {
    for sched in [SchedKind::Sweep, SchedKind::Compiled] {
        let mut b = NetlistBuilder::new();
        let inv = b
            .add(
                "inv",
                ModuleSpec::new("inverter")
                    .output("out", 1, 1)
                    .input("in", 1, 1),
                Box::new(SelfInverter),
            )
            .unwrap();
        b.connect(inv, "out", inv, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), sched);
        sim.set_watchdog(64);
        let err = sim.run(4).unwrap_err();
        let d = err
            .as_divergence()
            .unwrap_or_else(|| panic!("{sched:?}: expected divergence, got {err}"));
        assert_eq!(d.step, 0, "{sched:?}");
        assert_eq!(d.limit, 64, "{sched:?}");
        assert!(d.iters > 64, "{sched:?}");
        assert!(
            d.oscillating
                .iter()
                .any(|w| w.edge == 0 && w.wire == "data"),
            "{sched:?}: {:?}",
            d.oscillating
        );
        assert!(d.oscillating[0].flips > 0, "{sched:?}");
        assert_eq!(d.cycle, vec!["inv".to_owned()], "{sched:?}");
        let msg = err.to_string();
        assert!(msg.contains("data"), "{msg}");
        assert!(msg.contains("inv"), "{msg}");
    }
}

#[test]
fn watchdog_leaves_converging_netlists_alone() {
    let (mut sim, got) = src_sink();
    sim.set_watchdog(1000);
    sim.run(4).unwrap();
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 2, 3]);
}

#[test]
fn simulator_survives_a_divergence_error() {
    // After a structured failure the worklists are reset; a fresh netlist
    // run on the same simulator object must not trip debug assertions.
    let mut b = NetlistBuilder::new();
    let inv = b
        .add(
            "inv",
            ModuleSpec::new("inverter")
                .output("out", 1, 1)
                .input("in", 1, 1),
            Box::new(SelfInverter),
        )
        .unwrap();
    b.connect(inv, "out", inv, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_watchdog(16);
    assert!(sim.run(1).is_err());
    // The same step keeps failing deterministically, not hanging.
    assert!(sim.run(1).is_err());
}

// ----------------------------------------------------- probes and replay

#[test]
fn fault_and_quarantine_events_reach_probes() {
    let (mut sim, _got) = src_sink();
    let (probe, counts) = CountingProbe::new();
    sim.set_probe(Box::new(probe));
    sim.set_fault_plan(
        FaultPlan::new(5)
            .drop_wire(EdgeId(0), Wire::Data, 0, 2)
            .panic_at(InstanceId(0), 3),
    );
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.run(5).unwrap();
    let c = counts.get();
    assert_eq!(c.faults, 3, "2 drops + 1 panic");
    assert_eq!(c.quarantines, 1);
}

#[test]
fn canonical_jsonl_is_identical_across_schedulers() {
    use std::io::Write;
    #[derive(Clone, Default)]
    struct Buf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let stream = |sched: SchedKind, seed: u64| {
        let (mut sim, _got) = src_sink_with(sched);
        let buf = Buf::default();
        sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
        let topo = sim.topology().clone();
        sim.set_fault_plan(FaultPlan::random(seed, &topo, 16, 0.4));
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.run(16).unwrap();
        drop(sim);
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    };

    for seed in [1u64, 42, 1234] {
        let sweep = stream(SchedKind::Sweep, seed);
        let compiled = stream(SchedKind::Compiled, seed);
        assert_eq!(sweep, compiled, "seed {seed}: sweep vs compiled");
        assert!(!sweep.is_empty());
    }
}

// ------------------------------------------------- checkpoint and rollback

/// A stateful sink that tears its own state: each delivery increments
/// `count` twice, but at the chosen step it panics between the two
/// increments, leaving `count` odd — exactly the half-mutated state the
/// quarantine scrub must erase.
struct TornCounter {
    count: u64,
    panic_at: u64,
}
impl Module for TornCounter {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(PortId(0), 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_in(PortId(0), 0).is_some() {
            self.count += 1;
            if ctx.now() == self.panic_at {
                panic!("torn mid-commit at {}", ctx.now());
            }
            self.count += 1;
        }
        Ok(())
    }
    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        let mut w = StateWriter::new();
        w.put_u64(self.count);
        Ok(w.into_bytes())
    }
    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.count = 0;
            return Ok(());
        }
        let mut r = StateReader::new(state);
        self.count = r.get_u64()?;
        r.expect_end()
    }
}

fn src_torn(sched: SchedKind, panic_at: u64) -> Simulator {
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            "s",
            ModuleSpec::new("src").output("out", 1, 1),
            Box::new(Src),
        )
        .unwrap();
    let k = b
        .add(
            "torn",
            ModuleSpec::new("torn").input("in", 1, 1),
            Box::new(TornCounter { count: 0, panic_at }),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let _ = k;
    Simulator::new(b.build().unwrap(), sched)
}

#[test]
fn quarantine_scrubs_torn_module_state() {
    let mut sim = src_torn(SchedKind::Compiled, 2);
    sim.set_failure_policy(FailurePolicy::Quarantine);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = sim.run(5);
    std::panic::set_hook(prev);
    r.unwrap();
    assert!(sim.is_quarantined(InstanceId(1)));
    // Without the scrub the counter would be stuck at the torn value 5
    // (two deliveries complete, the third half-done); the scrub resets it
    // to the initial state, so the snapshot sees a clean module.
    let snap = sim.snapshot().unwrap();
    let blob = snap.module_state(1).unwrap();
    let mut r = StateReader::new(blob);
    assert_eq!(r.get_u64().unwrap(), 0, "torn state was scrubbed");
}

/// Accepts everything; returns a structured error from `commit` at a
/// chosen cycle.
struct CommitErrsAt(u64);
impl Module for CommitErrsAt {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(PortId(0), 0, true)
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.now() == self.0 {
            return Err(SimError::model("deliberate commit failure"));
        }
        Ok(())
    }
}

/// Records the reason of every quarantine it is told of.
struct QuarantineReasons(std::sync::Arc<std::sync::Mutex<Vec<String>>>);
impl Probe for QuarantineReasons {
    fn step(&mut self, log: &StepLog<'_>) {
        for r in log.records {
            if let Record::Quarantine { reason, .. } = r {
                self.0.lock().unwrap().push(reason.clone());
            }
        }
    }
}

/// `src` feeding `dst`, one edge, under the compiled scheduler.
fn pair(src: Box<dyn Module>, dst: Box<dyn Module>) -> Simulator {
    let mut b = NetlistBuilder::new();
    let s = b
        .add("s", ModuleSpec::new("src").output("out", 1, 1), src)
        .unwrap();
    let k = b
        .add("k", ModuleSpec::new("sink").input("in", 1, 1), dst)
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

#[test]
fn react_and_commit_failures_go_through_one_policy() {
    // Quarantine: the reason names the phase and what went wrong.
    let reasons = |mut sim: Simulator| {
        let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        sim.set_probe(Box::new(QuarantineReasons(got.clone())));
        sim.set_failure_policy(FailurePolicy::Quarantine);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = sim.run(5);
        std::panic::set_hook(prev);
        r.unwrap();
        assert_eq!(sim.metrics().quarantines, 1);
        let got = got.lock().unwrap().clone();
        got
    };
    let cases = [
        (
            pair(Box::new(ErrsAt(2)), Box::new(Sink::default())),
            "react error: ",
        ),
        (
            pair(Box::new(PanicsAt(2)), Box::new(Sink::default())),
            "react panic: boom at 2",
        ),
        (
            src_torn(SchedKind::Compiled, 2),
            "commit panic: torn mid-commit at 2",
        ),
        (
            pair(Box::new(Src), Box::new(CommitErrsAt(2))),
            "commit error: ",
        ),
    ];
    for (sim, prefix) in cases {
        let got = reasons(sim);
        assert_eq!(got.len(), 1, "{prefix}: {got:?}");
        assert!(got[0].starts_with(prefix), "{prefix}: {got:?}");
    }

    // Abort (the default policy, armed here by a watchdog): a commit
    // panic fails the step with the instance and the step named.
    let mut sim = src_torn(SchedKind::Compiled, 2);
    sim.set_watchdog(1000);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = sim.run(5).unwrap_err();
    std::panic::set_hook(prev);
    let p = err.as_panic().expect("panic error");
    assert_eq!((p.instance.as_str(), p.step), ("torn", 2));
    assert!(p.message.contains("torn mid-commit at 2"), "{}", p.message);
}

/// Keeps every commit record it is handed.
struct CommitRecords(std::sync::Arc<std::sync::Mutex<Vec<Handler>>>);
impl Probe for CommitRecords {
    fn step(&mut self, log: &StepLog<'_>) {
        let mut kept = self.0.lock().unwrap();
        for r in log.records {
            if let Record::Commit(h) = r {
                kept.push(*h);
            }
        }
    }
}

#[test]
fn a_commit_that_fails_under_quarantine_closes_its_record() {
    let mut sim = pair(Box::new(Src), Box::new(CommitErrsAt(2)));
    let (profiler, profile) = Profiler::new();
    let (counting, counts) = CountingProbe::new();
    let kept = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut multi = MultiProbe::new();
    multi.push(Box::new(profiler));
    multi.push(Box::new(counting));
    multi.push(Box::new(CommitRecords(kept.clone())));
    sim.set_probe(Box::new(multi));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.run(5).unwrap();
    assert_eq!(sim.metrics().quarantines, 1);

    // Every commit record was completed; the one that failed says so.
    let commits = kept.lock().unwrap().clone();
    assert!(
        commits.iter().all(|h| h.outcome != Outcome::Open),
        "{commits:?}"
    );
    let failed: Vec<&Handler> = commits
        .iter()
        .filter(|h| h.outcome == Outcome::Failed)
        .collect();
    assert_eq!(failed.len(), 1, "{commits:?}");
    assert_eq!(Some(failed[0].inst), sim.instance_by_name("k"));
    // The profiler saw the failed commit end too, so every count agrees.
    let profiled: u64 = profile.report().rows.iter().map(|r| r.commits).sum();
    assert_eq!(profiled, commits.len() as u64);
    assert_eq!(profiled, counts.get().commits);
    assert_eq!(profiled, sim.metrics().commits);
}

#[test]
fn snapshots_after_quarantine_are_scheduler_independent() {
    // Torn state is scheduler-dependent in general (how far the mutation
    // got depends on invocation order); the scrub makes the post-
    // quarantine durable state identical everywhere. Engine counters like
    // `reacts` legitimately differ per scheduler, so compare the
    // scheduler-independent parts: module blobs, transfers, quarantine.
    let mut states = Vec::new();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for sched in [SchedKind::Sweep, SchedKind::Compiled] {
        let mut sim = src_torn(sched, 2);
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.run(6).unwrap();
        let snap = sim.snapshot().unwrap();
        let blobs: Vec<Vec<u8>> = (0..snap.instance_count())
            .map(|i| snap.module_state(i).unwrap().to_vec())
            .collect();
        states.push((
            blobs,
            sim.transfer_counts().to_vec(),
            sim.quarantined_instances(),
        ));
    }
    std::panic::set_hook(prev);
    for s in &states[1..] {
        assert_eq!(*s, states[0]);
    }
}

#[test]
fn rollback_recovers_an_injected_panic_and_completes() {
    // A plan-injected panic quarantines the source; with rollback armed
    // the run rewinds to the last checkpoint, masks the fault-plan entry
    // and finishes with nothing quarantined.
    let (mut sim, got) = src_sink();
    let (probe, counts) = CountingProbe::new();
    sim.set_probe(Box::new(probe));
    sim.set_fault_plan(FaultPlan::new(7).panic_at(InstanceId(0), 3));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_auto_checkpoint(2);
    sim.set_retry_policy(RetryPolicy::default());
    sim.run(8).unwrap();
    assert!(
        sim.quarantined_instances().is_empty(),
        "rollback lifted the quarantine"
    );
    assert_eq!(sim.rollbacks(), 1);
    assert_eq!(
        sim.metrics().steps,
        8,
        "restored metrics count each step once"
    );
    // Steps 0-2 delivered 0,1,2; the panic step delivered nothing; the
    // rewind to the step-2 checkpoint replays 2..8. The sink's external
    // buffer sees the replay (external channels are not rolled back).
    assert_eq!(*got.lock().unwrap(), vec![0, 1, 2, 2, 3, 4, 5, 6, 7]);
    let c = counts.get();
    assert!(c.checkpoints >= 1, "periodic checkpoints fired");
    assert_eq!(c.rollbacks, 1, "one rollback event");
    assert_eq!(c.restores, 1, "one restore event");
    assert_eq!(
        c.quarantines, 1,
        "the failing step's quarantine was observed"
    );
}

#[test]
fn organic_panic_is_retried_once_then_quarantine_stands() {
    // A real (non-plan) panic replays identically after the rewind: the
    // retry-once bookkeeping lets the second quarantine stand instead of
    // looping forever.
    let got = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut b = NetlistBuilder::new();
    let s = b
        .add(
            "bomb",
            ModuleSpec::new("src").output("out", 1, 1),
            Box::new(PanicsAt(3)),
        )
        .unwrap();
    let k = b
        .add(
            "k",
            ModuleSpec::new("sink").input("in", 1, 1),
            Box::new(Sink { got: got.clone() }),
        )
        .unwrap();
    b.connect(s, "out", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_auto_checkpoint(2);
    sim.set_retry_policy(RetryPolicy::default());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = sim.run(8);
    std::panic::set_hook(prev);
    r.unwrap();
    assert_eq!(sim.rollbacks(), 1, "exactly one retry");
    assert!(sim.is_quarantined(InstanceId(0)), "second failure stands");
    assert_eq!(sim.metrics().steps, 8);
}

#[test]
fn organic_divergence_is_not_rolled_back() {
    // Divergence rollback only fires when masking the oscillating edges
    // removes fault-plan entries; an organic combinational loop must
    // still surface as an error even with rollback armed.
    let mut b = NetlistBuilder::new();
    let inv = b
        .add(
            "inv",
            ModuleSpec::new("inverter")
                .output("out", 1, 1)
                .input("in", 1, 1),
            Box::new(SelfInverter),
        )
        .unwrap();
    b.connect(inv, "out", inv, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.set_watchdog(32);
    sim.set_auto_checkpoint(4);
    sim.set_retry_policy(RetryPolicy::default());
    let err = sim.run(4).unwrap_err();
    assert!(err.as_divergence().is_some(), "{err}");
    assert_eq!(sim.rollbacks(), 0);
}

#[test]
fn divergence_with_plan_entry_is_retried_once() {
    // The oscillating edge carries a fault-plan entry, so the first
    // divergence rolls back and masks it; the loop is organic, so the
    // retry diverges again and the error propagates — bounded recovery.
    let mut b = NetlistBuilder::new();
    let inv = b
        .add(
            "inv",
            ModuleSpec::new("inverter")
                .output("out", 1, 1)
                .input("in", 1, 1),
            Box::new(SelfInverter),
        )
        .unwrap();
    b.connect(inv, "out", inv, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    let (probe, counts) = CountingProbe::new();
    sim.set_probe(Box::new(probe));
    sim.set_fault_plan(FaultPlan::new(9).drop_wire(EdgeId(0), Wire::Enable, 0, 2));
    sim.set_watchdog(32);
    sim.set_auto_checkpoint(4);
    sim.set_retry_policy(RetryPolicy::default());
    let err = sim.run(4).unwrap_err();
    assert!(err.as_divergence().is_some(), "{err}");
    assert_eq!(sim.rollbacks(), 1, "one masked retry, then give up");
    let c = counts.get();
    assert_eq!(c.rollbacks, 1);
    assert_eq!(c.restores, 1);
}

#[test]
fn run_report_counts_the_rollbacks_of_its_own_call() {
    // The first call retries the injected panic once; the second call
    // starts past it and retries nothing, so its report says 0 while the
    // simulator's lifetime count stays at 1.
    let (mut sim, _got) = src_sink();
    sim.set_fault_plan(FaultPlan::new(7).panic_at(InstanceId(0), 3));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_auto_checkpoint(2);
    sim.set_retry_policy(RetryPolicy::default());
    let first = sim.run_governed(8);
    assert_eq!(first.outcome, RunOutcome::Completed);
    assert_eq!(first.rollbacks, 1);
    assert_eq!(first.retries.get("quarantine"), Some(&1));
    let second = sim.run_governed(8);
    assert_eq!(second.outcome, RunOutcome::Completed);
    assert_eq!(second.rollbacks, 0, "{second:?}");
    assert!(second.retries.is_empty(), "{second:?}");
    assert_eq!(sim.rollbacks(), 1);
}

#[test]
fn checkpoint_restore_resumes_bit_exactly() {
    // run(N+M) and run(N); snapshot; restore-into-fresh; run(M) agree on
    // transfers, stats and final durable state.
    let (mut control, got_c) = src_sink();
    control.run(10).unwrap();
    let control_snap = control.snapshot().unwrap();

    let (mut first, _got_f) = src_sink();
    first.run(6).unwrap();
    let mid = first.snapshot().unwrap();
    let bytes = mid.to_bytes();
    let mid = Snapshot::from_bytes(&bytes).unwrap();

    let (mut resumed, got_r) = src_sink();
    resumed.restore(&mid).unwrap();
    assert_eq!(resumed.now(), 6);
    resumed.run(4).unwrap();
    assert_eq!(
        resumed.snapshot().unwrap().state_hash(),
        control_snap.state_hash(),
        "durable state identical to the uninterrupted run"
    );
    assert_eq!(*got_r.lock().unwrap(), (6..10).collect::<Vec<u64>>());
    assert_eq!(*got_c.lock().unwrap(), (0..10).collect::<Vec<u64>>());
}

#[test]
fn restore_rejects_census_mismatch() {
    let (sim, _got) = src_sink();
    let snap = sim.snapshot().unwrap();
    // A one-instance netlist cannot take a two-instance snapshot.
    let mut b = NetlistBuilder::new();
    b.add(
        "s",
        ModuleSpec::new("src").output("out", 0, 1),
        Box::new(Src),
    )
    .unwrap();
    let mut other = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    let err = other.restore(&snap).unwrap_err();
    assert!(
        matches!(err.as_checkpoint(), Some(CheckpointError::Malformed(_))),
        "{err}"
    );
}

#[test]
fn random_plans_respect_the_horizon() {
    let (sim, _got) = src_sink();
    let topo = sim.topology().clone();
    let plan = FaultPlan::random(99, &topo, 10, 1.0);
    assert!(!plan.is_empty(), "intensity 1.0 on a real topology");
    for f in plan.signal_faults() {
        assert!(
            f.until <= 10,
            "window {:?} exceeds horizon",
            (f.from, f.until)
        );
    }
}
