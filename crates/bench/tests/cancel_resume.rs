//! Cancellation is a clean cut: cancelling a governed run at an
//! arbitrary step N leaves a checkpoint from which a freshly built
//! simulator resumes to a run observationally indistinguishable from an
//! uninterrupted one.
//!
//! The oracle mirrors the checkpoint round-trip suite (`roundtrip.rs`):
//! canonical probe streams stitched across the cut must be byte-identical
//! to the control's, and the final stats report / transfer counts /
//! state hash must match — under both schedulers and under active
//! fault plans.
//!
//! Governance events (`cancel`, `checkpoint`, `restore`, `attach`) are
//! filtered from the streams before comparison: they mark *harness*
//! activity at the cut, which the control run by construction lacks.

use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use proptest::prelude::*;
use std::io::Write;

const TOTAL: u64 = 32;
const ALL_SCHEDS: [SchedKind; 2] = [SchedKind::Sweep, SchedKind::Compiled];

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

/// Drop harness events: probe (re)attachment and the governance markers
/// the cancelled leg necessarily emits at the cut.
fn sans_governance(s: &str) -> String {
    const HARNESS: [&str; 4] = [
        "{\"t\":\"attach\"",
        "{\"t\":\"cancel\"",
        "{\"t\":\"checkpoint\"",
        "{\"t\":\"restore\"",
    ];
    s.lines()
        .filter(|l| !HARNESS.iter().any(|p| l.starts_with(p)))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

/// Trips the run's [`CancelToken`] at the end of step `at`; the governed
/// loop observes it at the next step boundary — exactly the path a
/// SIGINT takes, minus the signal.
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

/// PCL-only targets (real `state_save`/`state_restore` hooks), as in the
/// round-trip suite.
const PCL_MIX: &str = r#"
module main {
    instance a : seq_source { count = 40; };
    instance b : seq_source { count = 40; start = 100; };
    instance arb : arbiter { policy = "round_robin"; };
    instance q : queue { depth = 4; };
    instance d : delay { latency = 2; };
    instance r : register;
    instance dst : sink;
    connect a.out -> arb.in;
    connect b.out -> arb.in;
    connect arb.out -> q.in;
    connect q.out -> d.in;
    connect d.out -> r.in;
    connect r.out -> dst.in;
}
"#;

fn cr_targets() -> Vec<(&'static str, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &str| std::fs::read_to_string(root.join(p)).expect("spec readable");
    vec![
        ("specs/pipeline.lss", read("specs/pipeline.lss")),
        ("pcl mix", PCL_MIX.to_owned()),
    ]
}

fn build_from(src: &str, sched: SchedKind) -> Simulator {
    let registry = full_registry();
    build_simulator(src, &registry, "main", &Params::new(), sched)
        .expect("spec elaborates")
        .0
}

fn install_faults(sim: &mut Simulator, seed: u64, rate: f64) {
    let topo = sim.topology().clone();
    sim.set_fault_plan(FaultPlan::random(seed, &topo, TOTAL, rate));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_watchdog(1_000_000);
}

#[derive(Debug, PartialEq)]
struct Obs {
    stream: String,
    report: StatsReport,
    transfers: Vec<u64>,
    state_hash: u32,
}

fn hash_of(sim: &Simulator) -> u32 {
    sim.snapshot().expect("snapshot").state_hash()
}

#[track_caller]
fn assert_obs_eq(control: &Obs, resumed: &Obs, ctx: &str) {
    assert_eq!(control.stream, resumed.stream, "{ctx}: canonical stream");
    assert_eq!(
        control.transfers, resumed.transfers,
        "{ctx}: transfer counts"
    );
    assert_eq!(control.report, resumed.report, "{ctx}: stats report");
    assert_eq!(control.state_hash, resumed.state_hash, "{ctx}: state hash");
}

/// The control: one uninterrupted, ungoverned `run(TOTAL)`.
fn control_run(src: &str, sched: SchedKind, faults: Option<(u64, f64)>) -> Obs {
    let mut sim = build_from(src, sched);
    let buf = Buf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        install_faults(&mut sim, seed, rate);
    }
    sim.run(TOTAL).expect("control run");
    drop(sim.take_probe());
    Obs {
        stream: sans_governance(&buf.take()),
        report: sim.report(),
        transfers: sim.transfer_counts().to_vec(),
        state_hash: hash_of(&sim),
    }
}

/// Cancel at step `n`, resume from the cancellation checkpoint in a
/// freshly built simulator, finish the horizon.
fn cancelled_resumed_run(src: &str, sched: SchedKind, n: u64, faults: Option<(u64, f64)>) -> Obs {
    let mut sim = build_from(src, sched);
    let buf1 = Buf::default();
    let token = CancelToken::new();
    let mut multi = MultiProbe::new();
    multi.push(Box::new(JsonlProbe::new(buf1.clone()).canonical()));
    multi.push(Box::new(CancelAt {
        // Trip at the end of step n-1: the boundary check before step n
        // observes it, so exactly n steps complete.
        at: n - 1,
        token: token.clone(),
    }));
    sim.set_probe(Box::new(multi));
    if let Some((seed, rate)) = faults {
        install_faults(&mut sim, seed, rate);
    }
    sim.set_cancel_token(token);
    let report = sim.run_governed(TOTAL);
    assert_eq!(report.outcome, RunOutcome::Cancelled, "{report:?}");
    assert_eq!(report.steps_completed, n, "cancelled at the asked step");
    drop(sim.take_probe());
    let first_leg = sans_governance(&buf1.take());

    // The cancellation path's final checkpoint, through the binary codec.
    let bytes = sim
        .last_checkpoint()
        .expect("cancellation checkpoints")
        .to_bytes();
    drop(sim);
    let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
    assert_eq!(snap.now(), n, "checkpoint taken at the cancellation step");

    let mut resumed = build_from(src, sched);
    resumed.restore(&snap).expect("restore");
    let buf2 = Buf::default();
    resumed.set_probe(Box::new(JsonlProbe::new(buf2.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        install_faults(&mut resumed, seed, rate);
    }
    resumed.run(TOTAL - n).expect("resumed leg");
    drop(resumed.take_probe());
    Obs {
        stream: first_leg + &sans_governance(&buf2.take()),
        report: resumed.report(),
        transfers: resumed.transfer_counts().to_vec(),
        state_hash: hash_of(&resumed),
    }
}

#[test]
fn cancellation_cut_is_invisible_across_all_schedulers() {
    for (name, src) in cr_targets() {
        for sched in ALL_SCHEDS {
            let control = control_run(&src, sched, None);
            assert!(!control.stream.is_empty(), "{name}: empty canonical stream");
            let resumed = cancelled_resumed_run(&src, sched, TOTAL / 2, None);
            assert_obs_eq(&control, &resumed, &format!("{name} {sched:?}"));
        }
    }
}

#[test]
fn cancellation_cut_is_invisible_under_an_active_fault_plan() {
    for (name, src) in cr_targets() {
        for n in [3, 27] {
            let control = control_run(&src, SchedKind::Compiled, Some((0xC0FFEE, 0.25)));
            let resumed =
                cancelled_resumed_run(&src, SchedKind::Compiled, n, Some((0xC0FFEE, 0.25)));
            assert_obs_eq(&control, &resumed, &format!("{name} cancel at {n}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (target, scheduler, cancellation step, fault plan) draw: the
    /// cancelled-then-resumed run is byte-identical to the control.
    #[test]
    fn any_cancellation_step_resumes_identically(
        tgt in 0usize..2,
        sched_ix in 0usize..ALL_SCHEDS.len(),
        n in 1u64..TOTAL,
        seed in any::<u64>(),
        rate in 0.05f64..0.35,
        faulty in any::<bool>(),
    ) {
        let (name, src) = cr_targets().remove(tgt);
        let sched = ALL_SCHEDS[sched_ix];
        let faults = faulty.then_some((seed, rate));
        let control = control_run(&src, sched, faults);
        let resumed = cancelled_resumed_run(&src, sched, n, faults);
        assert_obs_eq(&control, &resumed, &format!("{name} {sched:?} cancel at {n}"));
    }
}
