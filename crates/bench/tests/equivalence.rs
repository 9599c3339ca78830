//! Scheduler-equivalence suite: the compiled scheduler must be
//! *observationally indistinguishable* from the dynamic ones on every
//! system the repo ships.
//!
//! The oracle is three-fold, in increasing strictness:
//!
//! 1. **Final architectural state** — identical [`StatsReport`] and
//!    per-edge transfer counts after a run (the fixed point is unique, so
//!    the transfers and stats are scheduler-independent facts).
//! 2. **Canonical probe streams** — `JsonlProbe::canonical()` emits only
//!    the scheduler-independent events (steps, transfers sorted by edge,
//!    faults, quarantines); the streams must be *byte-identical* across
//!    all four schedulers, fault-free and under active fault plans.
//! 3. **Structured failure** — the `ring_osc.lss` combinational loop must
//!    diverge with the same oscillating-wire set under the compiled
//!    scheduler as under the dynamic ones.
//!
//! The property test drives random fault plans (seed, rate, target) at
//! the cross-scheduler stream comparison; the chaos suite (`chaos.rs`)
//! covers fixed seeds at greater depth.

use liberty_bench::kernel::{build, WORKLOADS};
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use liberty_systems::sensor::{sensor_simulator, SensorConfig};
use proptest::prelude::*;
use std::io::Write;

const CYCLES: u64 = 32;
const ALL_SCHEDS: [SchedKind; 4] = [
    SchedKind::Sweep,
    SchedKind::Dynamic,
    SchedKind::Static,
    SchedKind::Compiled,
];

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

/// Every shipped system: the three kernel workloads, the three runnable
/// LSS specs, and the sensor field.
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

/// One observed run: canonical stream, verdict, final stats, transfers.
fn observed_run(
    name: &str,
    sched: SchedKind,
    faults: Option<(u64, f64)>,
) -> (String, Result<(), String>, StatsReport, Vec<u64>) {
    let mut sim = build_target(name, sched);
    let buf = Buf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        let topo = sim.topology().clone();
        sim.set_fault_plan(FaultPlan::random(seed, &topo, CYCLES, rate));
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.set_watchdog(1_000_000);
    }
    let verdict = sim.run(CYCLES).map_err(|e| e.to_string());
    drop(sim.take_probe()); // flush
    let transfers = sim.transfer_counts().to_vec();
    (buf.take(), verdict, sim.report(), transfers)
}

#[test]
fn canonical_streams_are_byte_identical_across_all_schedulers() {
    for name in targets() {
        let (s0, v0, r0, t0) = observed_run(name, SchedKind::Dynamic, None);
        v0.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!s0.is_empty(), "{name}: empty canonical stream");
        for sched in ALL_SCHEDS {
            let (s, v, r, t) = observed_run(name, sched, None);
            assert_eq!(v0, v, "{name} {sched:?}: verdict");
            assert_eq!(s0, s, "{name} {sched:?}: canonical stream");
            assert_eq!(t0, t, "{name} {sched:?}: transfer counts");
            // Stats recorded inside `react` scale with invocation count,
            // and Sweep re-reacts every instance every pass (e.g. the CMP
            // decode stage's hazard_stalls counter) — so full report
            // equality is only promised among the wake-driven schedulers.
            if sched != SchedKind::Sweep {
                assert_eq!(r0, r, "{name} {sched:?}: final stats report");
            }
        }
    }
}

/// Statistics that are *known* to follow how often a handler was
/// invoked, not what the model did: `upl::decode` counts
/// `hazard_stalls` inside `react`, so Sweep (which re-reacts every
/// instance every pass) reads higher than the wake-driven schedulers.
/// The counter stays where it is for now — the benchmark's `cmp8` and
/// `core4` digests pin its `Compiled` value (see docs/KERNEL.md) — and
/// nothing else may join this list without the same kind of reason.
fn invocation_dependent(stat: &str) -> bool {
    stat.ends_with(".decode.hazard_stalls")
}

#[test]
fn cmp_statistics_are_scheduler_independent_except_the_allow_list() {
    use liberty_systems::cmp::{cmp_simulator, CmpConfig};
    let run = |sched: SchedKind| {
        let (mut sim, cmp) = cmp_simulator(&CmpConfig::default(), sched).expect("cmp builds");
        sim.run_until(100_000, |_| cmp.done()).expect("cmp runs");
        assert!(cmp.done(), "{sched:?}: cores halt");
        cmp.check_results()
            .unwrap_or_else(|e| panic!("{sched:?}: {e}"));
        (sim.now(), sim.report())
    };
    let (steps0, r0) = run(SchedKind::Dynamic);
    let listed: Vec<&String> = r0
        .counters
        .keys()
        .filter(|k| invocation_dependent(k))
        .collect();
    assert_eq!(listed.len(), 4, "one per core: {listed:?}");
    for sched in ALL_SCHEDS {
        let (steps, r) = run(sched);
        assert_eq!(steps, steps0, "{sched:?}: steps to completion");
        assert_eq!(
            r.counters.keys().collect::<Vec<_>>(),
            r0.counters.keys().collect::<Vec<_>>(),
            "{sched:?}: counter names"
        );
        for (name, v) in &r.counters {
            if !invocation_dependent(name) {
                assert_eq!(*v, r0.counters[name], "{sched:?}: counter {name}");
            }
        }
        assert_eq!(r.samples, r0.samples, "{sched:?}: samples");
        assert_eq!(r.histograms, r0.histograms, "{sched:?}: histograms");
        // Among the wake-driven schedulers even the listed counters agree.
        if sched != SchedKind::Sweep {
            assert_eq!(r, r0, "{sched:?}: full report");
        }
    }
}

#[test]
fn ring_osc_diverges_with_the_same_wires_under_compiled_schedulers() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/ring_osc.lss");
    let src = std::fs::read_to_string(path).expect("ring_osc.lss readable");
    let registry = full_registry();
    let diverge = |sched: SchedKind| {
        let (mut sim, _) = build_simulator(&src, &registry, "main", &Params::new(), sched)
            .expect("spec elaborates");
        sim.set_watchdog(512);
        let err = sim.run(4).unwrap_err();
        let d = err
            .as_divergence()
            .unwrap_or_else(|| panic!("{sched:?}: expected divergence, got {err}"));
        let mut wires: Vec<(u32, &'static str, String, String)> = d
            .oscillating
            .iter()
            .map(|w| (w.edge, w.wire, w.src.clone(), w.dst.clone()))
            .collect();
        wires.sort();
        (wires, d.cycle.clone(), d.step, d.limit)
    };
    assert_eq!(diverge(SchedKind::Compiled), diverge(SchedKind::Dynamic));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault plans cannot split the schedulers: any (seed, rate,
    /// target) draw yields one canonical stream, one verdict, and one
    /// quarantine outcome across the worklist and compiled engines.
    #[test]
    fn fault_plans_cannot_split_the_schedulers(
        seed in any::<u64>(),
        rate in 0.05f64..0.45,
        tgt in 0usize..7,
    ) {
        let name = targets()[tgt];
        let (s0, v0, r0, t0) = observed_run(name, SchedKind::Dynamic, Some((seed, rate)));
        for sched in [SchedKind::Static, SchedKind::Compiled] {
            let (s, v, r, t) = observed_run(name, sched, Some((seed, rate)));
            prop_assert_eq!(&v0, &v, "{} {:?}: verdict", name, sched);
            prop_assert_eq!(&s0, &s, "{} {:?}: canonical stream", name, sched);
            prop_assert_eq!(&r0, &r, "{} {:?}: final stats", name, sched);
            prop_assert_eq!(&t0, &t, "{} {:?}: transfer counts", name, sched);
        }
    }
}
