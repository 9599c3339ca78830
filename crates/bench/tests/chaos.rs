//! Chaos harness: soak representative systems under seeded random fault
//! plans and assert the resilience layer's three contracts:
//!
//! 1. **No hang** — every run terminates, either cleanly or with a
//!    structured error (never a panic escaping the kernel, never an
//!    unbounded reaction loop: the watchdog bounds each step).
//! 2. **Deterministic replay** — the same fault seed produces a
//!    byte-identical canonical probe stream, on repetition *and* across
//!    both schedulers.
//! 3. **Fault-free control** — with no plan installed the same builds
//!    behave exactly as the tier-1 suites expect (the injection layer is
//!    compiled out of the hot path and changes nothing).
//!
//! Targets: the three kernel benchmark workloads (8x8 mesh NoC, 8-core
//! CMP + NoC, 4-stage processor core) and the three LSS example
//! specifications, plus a sensor-field build — the example systems the
//! repo ships.

use liberty_bench::kernel::{build, WORKLOADS};
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use liberty_systems::sensor::{sensor_simulator, SensorConfig};
use std::io::Write;

const SEEDS: &[u64] = &[1, 42, 0xC0FFEE];
const CYCLES: u64 = 48;
const SCHEDS: &[SchedKind] = &[SchedKind::Sweep, SchedKind::Compiled];

/// Shared byte buffer implementing `Write` for in-memory JSONL capture.
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
impl Buf {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// Every system the harness soaks, by name.
fn targets() -> Vec<&'static str> {
    let mut t = WORKLOADS.to_vec();
    t.extend([
        "specs/pipeline.lss",
        "specs/dual_core_noc.lss",
        "specs/refinement.lss",
        "sensor field",
    ]);
    t
}

fn build_target(name: &str, sched: SchedKind) -> Simulator {
    if WORKLOADS.contains(&name) {
        build(name, sched)
    } else if name == "sensor field" {
        sensor_simulator(&SensorConfig::default(), sched)
            .expect("sensor build")
            .0
    } else {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        let src = std::fs::read_to_string(&path).expect("spec readable");
        let registry = full_registry();
        build_simulator(&src, &registry, "main", &Params::new(), sched)
            .expect("spec elaborates")
            .0
    }
}

/// One soaked run: seeded random faults, quarantine policy, watchdog,
/// canonical probe stream. Returns the stream and the run verdict.
fn chaos_run(name: &str, sched: SchedKind, seed: u64) -> (String, Result<(), String>, u64, u64) {
    let mut sim = build_target(name, sched);
    let buf = Buf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    let topo = sim.topology().clone();
    sim.set_fault_plan(FaultPlan::random(seed, &topo, CYCLES, 0.25));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_watchdog(1_000_000);
    let verdict = sim.run(CYCLES).map_err(|e| e.to_string());
    let m = sim.metrics();
    drop(sim.take_probe()); // flush
    (buf.take(), verdict, m.faults_injected, m.quarantines)
}

#[test]
fn soak_all_targets_no_hang_and_deterministic_replay() {
    for name in targets() {
        for &seed in SEEDS {
            // Reference run + replay on the same scheduler.
            let (s1, v1, faults, quarantines) = chaos_run(name, SchedKind::Compiled, seed);
            let (s2, v2, _, _) = chaos_run(name, SchedKind::Compiled, seed);
            assert_eq!(v1, v2, "{name} seed {seed}: verdict replays");
            assert_eq!(s1, s2, "{name} seed {seed}: probe stream replays");
            assert!(
                faults > 0,
                "{name} seed {seed}: random plan injected nothing"
            );
            // A structured error is an acceptable chaos outcome; an
            // escaped panic or a hang is not (either would fail the
            // test process, not this assert).
            if let Err(e) = &v1 {
                assert!(
                    e.contains("panic") || e.contains("diverge") || e.contains("error"),
                    "{name} seed {seed}: unstructured failure {e}"
                );
            }
            // Cross-scheduler byte-identity of the canonical stream.
            for &sched in SCHEDS {
                let (s, v, _, q) = chaos_run(name, sched, seed);
                assert_eq!(v1, v, "{name} seed {seed} {sched:?}: verdict matches");
                assert_eq!(s1, s, "{name} seed {seed} {sched:?}: stream matches");
                assert_eq!(
                    quarantines, q,
                    "{name} seed {seed} {sched:?}: quarantine census matches"
                );
            }
        }
    }
}

#[test]
fn fault_free_control_runs_stay_clean() {
    for name in targets() {
        let mut sim = build_target(name, SchedKind::Compiled);
        sim.run(CYCLES).unwrap_or_else(|e| panic!("{name}: {e}"));
        let m = sim.metrics();
        assert_eq!(m.faults_injected, 0, "{name}");
        assert_eq!(m.quarantines, 0, "{name}");
        assert!(sim.quarantined_instances().is_empty(), "{name}");
    }
}

/// Drop `attach` banners (probe re-attachment is a harness event, not a
/// simulation event) so interrupted and uninterrupted streams compare.
fn sans_attach(s: &str) -> String {
    s.lines()
        .filter(|l| !l.starts_with("{\"t\":\"attach\""))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

/// Install the same chaos environment `chaos_run` uses: a run-length
/// seeded plan, quarantine policy, and the watchdog.
fn arm_chaos(sim: &mut Simulator, seed: u64) {
    let topo = sim.topology().clone();
    sim.set_fault_plan(FaultPlan::random(seed, &topo, CYCLES, 0.25));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_watchdog(1_000_000);
}

#[test]
fn kill_and_resume_mid_soak_matches_uninterrupted_control() {
    // Checkpoint halfway through a soak, drop the simulator entirely
    // (the "kill"), rebuild from scratch, restore through the full
    // binary codec, re-arm the same fault plan, and finish the run: the
    // stitched probe stream and the final census must match the
    // uninterrupted control. PCL-only targets: every stateful module in
    // them has real save/restore hooks, so a fresh build plus restore
    // reconstructs the exact durable state (UPL/CCL composites keep the
    // stateless defaults and are soaked by the tests above instead).
    for name in ["specs/pipeline.lss", "specs/refinement.lss"] {
        for &seed in SEEDS {
            let (control, cv, _, cq) = chaos_run(name, SchedKind::Compiled, seed);

            let mut sim = build_target(name, SchedKind::Compiled);
            let buf1 = Buf::default();
            sim.set_probe(Box::new(JsonlProbe::new(buf1.clone()).canonical()));
            arm_chaos(&mut sim, seed);
            let half = CYCLES / 2;
            if let Err(e) = sim.run(half) {
                // The control hit the same structured error; nothing
                // left to resume.
                assert_eq!(cv, Err(e.to_string()), "{name} seed {seed}: verdict");
                continue;
            }
            drop(sim.take_probe());
            let first_leg = sans_attach(&buf1.take());
            let bytes = sim.snapshot().expect("snapshot").to_bytes();
            drop(sim); // kill

            let snap = Snapshot::from_bytes(&bytes).expect("checkpoint decodes");
            let mut resumed = build_target(name, SchedKind::Compiled);
            resumed.restore(&snap).expect("restore");
            let buf2 = Buf::default();
            resumed.set_probe(Box::new(JsonlProbe::new(buf2.clone()).canonical()));
            arm_chaos(&mut resumed, seed);
            let verdict = resumed.run(CYCLES - half).map_err(|e| e.to_string());
            let q = resumed.metrics().quarantines;
            drop(resumed.take_probe());

            assert_eq!(cv, verdict, "{name} seed {seed}: verdict");
            assert_eq!(
                sans_attach(&control),
                first_leg + &sans_attach(&buf2.take()),
                "{name} seed {seed}: stitched stream matches control"
            );
            assert_eq!(cq, q, "{name} seed {seed}: quarantine census");
        }
    }
}

#[test]
fn different_seeds_draw_different_plans() {
    let sim = build_target(WORKLOADS[0], SchedKind::Compiled);
    let topo = sim.topology().clone();
    let a = FaultPlan::random(1, &topo, CYCLES, 0.25);
    let b = FaultPlan::random(2, &topo, CYCLES, 0.25);
    assert_ne!(a.signal_faults(), b.signal_faults());
}

// ---------------------------------------------------------------------
// Governed soak: tight budgets, random cancellation, sink stalls
// ---------------------------------------------------------------------

/// Run `body` on a worker thread and fail hard if it does not finish
/// within `secs` — the "never hangs" contract is enforced by the test
/// itself, not only by the CI job timeout.
fn with_hard_timeout(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("governed soak exceeded its hard timeout (hang?)");
    t.join().expect("soak thread panicked");
}

/// Trips the token at the end of step `at`.
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

/// Every exit path must produce a well-formed report: internally
/// consistent counters and a renderable summary.
#[track_caller]
fn assert_wellformed(report: &liberty_core::prelude::RunReport, ctx: &str) {
    assert!(
        report.steps_completed <= report.steps_requested,
        "{ctx}: {report:?}"
    );
    assert!(
        report.steps_executed >= report.steps_completed,
        "{ctx}: replays only add steps: {report:?}"
    );
    let text = report.render();
    assert!(text.contains(report.outcome.label()), "{ctx}: {text}");
    match report.outcome {
        RunOutcome::Completed => assert!(!report.stopped_early(), "{ctx}"),
        RunOutcome::Degraded => {
            assert!(!report.quarantined.is_empty(), "{ctx}: {report:?}")
        }
        RunOutcome::Failed => assert!(report.error.is_some(), "{ctx}: {report:?}"),
        RunOutcome::Cancelled | RunOutcome::BudgetExhausted(_) => {
            assert!(report.stopped_early(), "{ctx}")
        }
    }
}

#[test]
fn governed_soak_every_exit_path_yields_a_wellformed_report() {
    with_hard_timeout(300, || {
        let soak_targets = [WORKLOADS[0], "specs/pipeline.lss", "sensor field"];
        for name in soak_targets {
            for &seed in SEEDS {
                // Tight step budget.
                let mut sim = build_target(name, SchedKind::Compiled);
                arm_chaos(&mut sim, seed);
                sim.set_budget(RunBudget::new().max_steps(seed % 7 + 1));
                let r = sim.run_governed(CYCLES);
                assert_wellformed(&r, &format!("{name} seed {seed} steps-budget"));
                assert!(r.stopped_early() || r.error.is_some(), "{name}: {r:?}");

                // Expired deadline: stops before the first step.
                let mut sim = build_target(name, SchedKind::Compiled);
                arm_chaos(&mut sim, seed);
                sim.set_budget(RunBudget::new().deadline(std::time::Duration::ZERO));
                let r = sim.run_governed(CYCLES);
                assert_wellformed(&r, &format!("{name} seed {seed} deadline"));
                assert_eq!(r.steps_executed, 0);

                // Random mid-run cancellation (token tripped by a probe,
                // same path a signal handler takes). Snapshot-incapable
                // targets make the final checkpoint fail — which must
                // not mask the cancellation.
                let mut sim = build_target(name, SchedKind::Compiled);
                let token = CancelToken::new();
                sim.set_probe(Box::new(CancelAt {
                    at: seed % (CYCLES - 1),
                    token: token.clone(),
                }));
                arm_chaos(&mut sim, seed);
                sim.set_cancel_token(token);
                let r = sim.run_governed(CYCLES);
                assert_wellformed(&r, &format!("{name} seed {seed} cancel"));
                assert!(
                    matches!(r.outcome, RunOutcome::Cancelled | RunOutcome::Failed),
                    "{name} seed {seed}: {r:?}"
                );

                // Quarantine ceiling of zero: the first isolation (if the
                // plan causes any) exhausts the budget.
                let mut sim = build_target(name, SchedKind::Compiled);
                arm_chaos(&mut sim, seed);
                sim.set_budget(RunBudget::new().max_quarantined(0));
                let r = sim.run_governed(CYCLES);
                assert_wellformed(&r, &format!("{name} seed {seed} quarantine-budget"));
            }
        }

        // Retry ladder on a snapshot-capable target: rollback + masking
        // retries, bounded by the policy, always terminating in a report.
        for &seed in SEEDS {
            let mut sim = build_target("specs/pipeline.lss", SchedKind::Compiled);
            arm_chaos(&mut sim, seed);
            sim.set_retry_policy(RetryPolicy::with_max_retries(4));
            sim.set_auto_checkpoint(8);
            let r = sim.run_governed(CYCLES);
            assert_wellformed(&r, &format!("pipeline seed {seed} retry"));
            let retried: u64 = r.retries.values().sum();
            assert!(retried <= 4, "policy bound respected: {r:?}");
        }
    });
}

/// A writer that stalls on every flush to the underlying sink —
/// simulating a wedged disk or a slow consumer.
struct StallingWriter {
    stall: std::time::Duration,
    written: usize,
}
impl Write for StallingWriter {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        std::thread::sleep(self.stall);
        self.written += b.len();
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn sink_stalls_are_absorbed_by_backpressure_policies() {
    with_hard_timeout(120, || {
        // Block: the run slows to the sink's pace but loses nothing and
        // finishes. A small cap forces frequent blocking flushes.
        let mut sim = build_target("specs/pipeline.lss", SchedKind::Compiled);
        let writer = BackpressureWriter::new(
            StallingWriter {
                stall: std::time::Duration::from_micros(200),
                written: 0,
            },
            512,
            SinkPolicy::Block,
        );
        let stats = writer.stats();
        sim.set_probe(Box::new(JsonlProbe::new(writer)));
        arm_chaos(&mut sim, SEEDS[0]);
        sim.set_budget(RunBudget::new().max_steps(CYCLES));
        let r = sim.run_governed(CYCLES);
        assert_wellformed(&r, "block-policy stall");
        drop(sim.take_probe());
        assert!(
            stats.blocking_flushes() > 0,
            "tiny cap must force blocking flushes"
        );
        assert_eq!(stats.dropped_records(), 0, "Block never sheds");

        // DropOldest: the run never waits on the stalled sink; history
        // is shed, counted, and the run still completes its budget.
        let mut sim = build_target("specs/pipeline.lss", SchedKind::Compiled);
        let writer = BackpressureWriter::new(
            StallingWriter {
                stall: std::time::Duration::from_micros(200),
                written: 0,
            },
            512,
            SinkPolicy::DropOldest,
        );
        let stats = writer.stats();
        sim.set_probe(Box::new(JsonlProbe::new(writer)));
        arm_chaos(&mut sim, SEEDS[0]);
        let r = sim.run_governed(CYCLES);
        assert_wellformed(&r, "drop-policy stall");
        drop(sim.take_probe());
        assert!(
            stats.dropped_records() > 0,
            "tiny cap must shed records under chaos event volume"
        );
        assert!(stats.dropped_bytes() > 0);
    });
}
