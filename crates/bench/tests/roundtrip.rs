//! Checkpoint round-trip equivalence: `run(N + M)` must be
//! observationally indistinguishable from `run(N); snapshot; serialize;
//! deserialize; restore into a freshly built simulator; run(M)`.
//!
//! The oracle mirrors the scheduler-equivalence suite:
//!
//! 1. **Canonical probe streams** — the control run's stream must equal
//!    the first leg's stream concatenated with the resumed leg's stream,
//!    byte for byte, unfiltered: canonical JSONL writes neither the
//!    `attach` header each leg's probe would add nor run-level records.
//! 2. **Final architectural state** — identical [`StatsReport`],
//!    per-edge transfer counts, and snapshot `state_hash` (valid because
//!    both runs use the same scheduler).
//!
//! The property holds under both schedulers and under active fault
//! plans: plans are deliberately *not* part of a snapshot (they describe
//! the environment, not the system), so the resumed run reinstalls the
//! same plan — activation is pure in `now`, so replay is exact.
//!
//! Targets are restricted to systems composed purely of PCL templates:
//! those all implement `state_save`/`state_restore`, so a fresh build
//! plus `restore` reconstructs the exact durable state. Systems using
//! UPL/CCL composites keep the default (stateless) hooks and reset to
//! initial state on restore — see docs/ROBUSTNESS.md for the limits.

use liberty_bench::SharedBuf;
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use proptest::prelude::*;

const TOTAL: u64 = 32;
const ALL_SCHEDS: [SchedKind; 2] = [SchedKind::Sweep, SchedKind::Compiled];

/// An inline spec exercising every stateful PCL template category that
/// the shipped specs don't already cover: arbitration (round-robin
/// pointer), delay lines, and pipeline registers, on top of the
/// sequence-source cursors and queue occupancy the specs use.
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

/// Round-trip targets: (label, LSS source). PCL-only systems, so every
/// stateful module has real save/restore hooks.
fn rt_targets() -> Vec<(&'static str, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &str| std::fs::read_to_string(root.join(p)).expect("spec readable");
    vec![
        ("specs/pipeline.lss", read("specs/pipeline.lss")),
        ("specs/refinement.lss", read("specs/refinement.lss")),
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

/// Everything the round-trip property compares.
#[derive(Debug, PartialEq)]
struct Obs {
    stream: String,
    verdict: Result<(), String>,
    report: StatsReport,
    transfers: Vec<u64>,
    state_hash: u32,
}

fn hash_of(sim: &Simulator) -> u32 {
    sim.snapshot().expect("snapshot").state_hash()
}

/// Field-by-field comparison so a failure names the divergent oracle
/// instead of dumping two full `Obs` structs.
#[track_caller]
fn assert_obs_eq(control: &Obs, resumed: &Obs, ctx: &str) {
    assert_eq!(control.verdict, resumed.verdict, "{ctx}: verdict");
    assert_eq!(control.stream, resumed.stream, "{ctx}: canonical stream");
    assert_eq!(
        control.transfers, resumed.transfers,
        "{ctx}: transfer counts"
    );
    assert_eq!(control.report, resumed.report, "{ctx}: stats report");
    assert_eq!(control.state_hash, resumed.state_hash, "{ctx}: state hash");
}

/// The control: one uninterrupted `run(TOTAL)`.
fn control_run(src: &str, sched: SchedKind, faults: Option<(u64, f64)>) -> Obs {
    let mut sim = build_from(src, sched);
    let buf = SharedBuf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        install_faults(&mut sim, seed, rate);
    }
    let verdict = sim.run(TOTAL).map_err(|e| e.to_string());
    drop(sim.take_probe());
    Obs {
        stream: buf.text(),
        verdict,
        report: sim.report(),
        transfers: sim.transfer_counts().to_vec(),
        state_hash: hash_of(&sim),
    }
}

/// The round trip: `run(n)`, snapshot through the full binary codec,
/// drop the simulator, rebuild from scratch, restore, `run(TOTAL - n)`.
fn interrupted_run(src: &str, sched: SchedKind, n: u64, faults: Option<(u64, f64)>) -> Obs {
    let mut sim = build_from(src, sched);
    let buf1 = SharedBuf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf1.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        install_faults(&mut sim, seed, rate);
    }
    if let Err(e) = sim.run(n) {
        // The control run hits the same error at the same step; compare
        // the failed state directly.
        drop(sim.take_probe());
        return Obs {
            stream: buf1.text(),
            verdict: Err(e.to_string()),
            report: sim.report(),
            transfers: sim.transfer_counts().to_vec(),
            state_hash: hash_of(&sim),
        };
    }
    drop(sim.take_probe());
    let first_leg = buf1.text();
    let bytes = sim.snapshot().expect("snapshot").to_bytes();
    drop(sim);

    let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
    assert_eq!(snap.now(), n, "snapshot records the interruption step");
    let mut resumed = build_from(src, sched);
    resumed.restore(&snap).expect("restore");
    let buf2 = SharedBuf::default();
    resumed.set_probe(Box::new(JsonlProbe::new(buf2.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        install_faults(&mut resumed, seed, rate);
    }
    let verdict = resumed.run(TOTAL - n).map_err(|e| e.to_string());
    drop(resumed.take_probe());
    Obs {
        stream: first_leg + &buf2.text(),
        verdict,
        report: resumed.report(),
        transfers: resumed.transfer_counts().to_vec(),
        state_hash: hash_of(&resumed),
    }
}

#[test]
fn roundtrip_is_invisible_across_all_schedulers() {
    for (name, src) in rt_targets() {
        for sched in ALL_SCHEDS {
            let control = control_run(&src, sched, None);
            control
                .verdict
                .as_ref()
                .unwrap_or_else(|e| panic!("{name} {sched:?}: {e}"));
            assert!(!control.stream.is_empty(), "{name}: empty canonical stream");
            let resumed = interrupted_run(&src, sched, TOTAL / 2, None);
            assert_obs_eq(&control, &resumed, &format!("{name} {sched:?}"));
        }
    }
}

#[test]
fn roundtrip_is_invisible_under_an_active_fault_plan() {
    // Fixed, deliberately awkward split points: right after a fault-heavy
    // prefix and near the end of the horizon.
    for (name, src) in rt_targets() {
        for n in [5, 29] {
            let control = control_run(&src, SchedKind::Compiled, Some((0xC0FFEE, 0.25)));
            let resumed = interrupted_run(&src, SchedKind::Compiled, n, Some((0xC0FFEE, 0.25)));
            assert_obs_eq(&control, &resumed, &format!("{name} split at {n}"));
        }
    }
}

#[test]
fn double_roundtrip_composes() {
    // snapshot/restore twice in one horizon: run(10);ckpt;run(10);ckpt;run(12).
    let (_, src) = rt_targets().remove(2);
    let control = control_run(&src, SchedKind::Compiled, None);
    let mut sim = build_from(&src, SchedKind::Compiled);
    let buf = SharedBuf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    let mut stream = String::new();
    for leg in [10u64, 10, 12] {
        sim.run(leg).expect("leg runs");
        drop(sim.take_probe());
        stream += &buf.text();
        buf.0.lock().unwrap().clear();
        let bytes = sim.snapshot().expect("snapshot").to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("decodes");
        let mut next = build_from(&src, SchedKind::Compiled);
        next.restore(&snap).expect("restore");
        next.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
        sim = next;
    }
    assert_eq!(control.stream, stream);
    assert_eq!(control.transfers, sim.transfer_counts().to_vec());
    assert_eq!(control.state_hash, hash_of(&sim));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (target, scheduler, split point, fault plan) draw: the
    /// interrupted run is byte-identical to the uninterrupted one.
    #[test]
    fn any_split_point_roundtrips(
        tgt in 0usize..3,
        sched_ix in 0usize..ALL_SCHEDS.len(),
        n in 1u64..TOTAL,
        seed in any::<u64>(),
        rate in 0.05f64..0.35,
        faulty in any::<bool>(),
    ) {
        let (name, src) = rt_targets().remove(tgt);
        let sched = ALL_SCHEDS[sched_ix];
        let faults = faulty.then_some((seed, rate));
        let control = control_run(&src, sched, faults);
        let resumed = interrupted_run(&src, sched, n, faults);
        assert_obs_eq(&control, &resumed, &format!("{} {:?} split at {}", name, sched, n));
    }
}
