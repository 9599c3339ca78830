//! Scheduler-equivalence suite: the compiled scheduler must be
//! *observationally indistinguishable* from the naive Sweep — the oracle,
//! with no plan, wake table, settle marks or kernels — on every system
//! the repo ships.
//!
//! The check is three-fold, in increasing strictness:
//!
//! 1. **Final architectural state** — identical [`StatsReport`] (but for
//!    the [`invocation_dependent`] allow-list) and per-edge transfer
//!    counts after a run (the fixed point is unique, so the transfers and
//!    stats are scheduler-independent facts).
//! 2. **Canonical probe streams** — `JsonlProbe::canonical()` emits only
//!    the simulation records (steps, transfers sorted by edge, faults,
//!    quarantines): no `attach` header, no resolve or handler records,
//!    whose order depends on the schedule, and no run-level records. The
//!    streams must be *byte-identical* under both schedulers, fault-free
//!    and under active fault plans.
//! 3. **Structured failure** — the `ring_osc.lss` combinational loop must
//!    diverge with the same oscillating-wire set under the compiled
//!    scheduler as under Sweep.
//!
//! The property test drives random fault plans (seed, rate, target) at
//! the cross-scheduler stream comparison; the chaos suite (`chaos.rs`)
//! covers fixed seeds at greater depth.

use liberty_bench::kernel::{build, WORKLOADS};
use liberty_bench::SharedBuf;
use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use liberty_systems::sensor::{sensor_simulator, SensorConfig};
use liberty_systems::sos::{sos_simulator, SosConfig};
use proptest::prelude::*;

const CYCLES: u64 = 32;

/// The Fig. 2(d) system of systems. It runs longer than the rest: only
/// after ~300 steps do its streams carry nested payloads (packets
/// holding `Words` or DMA chunks, routed packets).
const SOS: &str = "system of systems";

/// Steps each target runs (and fault plans span).
fn cycles(name: &str) -> u64 {
    if name == SOS {
        300
    } else {
        CYCLES
    }
}

/// Every shipped system: the three kernel workloads, the three runnable
/// LSS specs, the sensor field and the system of systems.
fn targets() -> Vec<&'static str> {
    let mut t = WORKLOADS.to_vec();
    t.extend([
        "specs/pipeline.lss",
        "specs/dual_core_noc.lss",
        "specs/refinement.lss",
        "sensor field",
        SOS,
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
    } else if name == SOS {
        sos_simulator(&SosConfig::default(), sched)
            .expect("sos build")
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
    let buf = SharedBuf::default();
    sim.set_probe(Box::new(JsonlProbe::new(buf.clone()).canonical()));
    if let Some((seed, rate)) = faults {
        let topo = sim.topology().clone();
        sim.set_fault_plan(FaultPlan::random(seed, &topo, cycles(name), rate));
        sim.set_failure_policy(FailurePolicy::Quarantine);
        sim.set_watchdog(1_000_000);
    }
    let verdict = sim.run(cycles(name)).map_err(|e| e.to_string());
    drop(sim.take_probe()); // flush
    let transfers = sim.transfer_counts().to_vec();
    (buf.text(), verdict, sim.report(), transfers)
}

#[test]
fn canonical_streams_are_byte_identical_across_all_schedulers() {
    for name in targets() {
        let (s0, v0, r0, t0) = observed_run(name, SchedKind::Sweep, None);
        v0.as_ref().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(!s0.is_empty(), "{name}: empty canonical stream");
        let (s, v, r, t) = observed_run(name, SchedKind::Compiled, None);
        assert_eq!(v0, v, "{name}: verdict");
        assert_eq!(s0, s, "{name}: canonical stream");
        assert_eq!(t0, t, "{name}: transfer counts");
        assert_reports_agree(&r0, &r, name);
        if name == SOS {
            // The streams compared above do show nested payloads:
            // packets carrying words and DMA chunks, routed packets.
            for nested in [",1,nil.Words[", ",1,mpl.DmaChunk["] {
                assert!(s0.contains(nested), "{name}: no `{nested}` in the stream");
            }
            let routed_packet = s0.split("pcl.Routed[").skip(1).any(|rest| {
                rest.trim_start_matches(|c: char| c.is_ascii_digit())
                    .starts_with(",ccl.Packet[")
            });
            assert!(routed_packet, "{name}: no routed packet in the stream");
        }
    }
}

/// Statistics that are *known* to follow how often a handler was
/// invoked, not what the model did: `upl::decode` counts
/// `hazard_stalls` inside `react`, so Sweep (which re-reacts every
/// instance every pass) reads higher than the compiled plan.
/// The counter stays where it is for now — the benchmark's `cmp8` and
/// `core4` digests pin its `Compiled` value (see docs/KERNEL.md) — and
/// nothing else may join this list without the same kind of reason.
fn invocation_dependent(stat: &str) -> bool {
    stat == "decode.hazard_stalls" || stat.ends_with(".decode.hazard_stalls")
}

/// The Sweep report `sweep` and the compiled report `compiled` agree on
/// every counter name, every counter outside the allow-list, every
/// sample and every histogram; an allow-listed counter reads no higher
/// under the compiled plan than under Sweep.
fn assert_reports_agree(sweep: &StatsReport, compiled: &StatsReport, ctx: &str) {
    assert_eq!(
        compiled.counters.keys().collect::<Vec<_>>(),
        sweep.counters.keys().collect::<Vec<_>>(),
        "{ctx}: counter names"
    );
    for (name, v) in &compiled.counters {
        if invocation_dependent(name) {
            assert!(*v <= sweep.counters[name], "{ctx}: counter {name}");
        } else {
            assert_eq!(*v, sweep.counters[name], "{ctx}: counter {name}");
        }
    }
    assert_eq!(compiled.samples, sweep.samples, "{ctx}: samples");
    assert_eq!(compiled.histograms, sweep.histograms, "{ctx}: histograms");
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
    let (steps0, r0) = run(SchedKind::Sweep);
    let listed: Vec<&String> = r0
        .counters
        .keys()
        .filter(|k| invocation_dependent(k))
        .collect();
    assert_eq!(listed.len(), 4, "one per core: {listed:?}");
    let (steps, r) = run(SchedKind::Compiled);
    assert_eq!(steps, steps0, "steps to completion");
    assert_reports_agree(&r0, &r, "4-core CMP");
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
    assert_eq!(diverge(SchedKind::Compiled), diverge(SchedKind::Sweep));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random fault plans cannot split the schedulers: any (seed, rate,
    /// target) draw yields one canonical stream, one verdict, and one
    /// quarantine outcome under Sweep and the compiled engine.
    #[test]
    fn fault_plans_cannot_split_the_schedulers(
        seed in any::<u64>(),
        rate in 0.05f64..0.45,
        tgt in 0usize..7,
    ) {
        let name = targets()[tgt];
        let (s0, v0, r0, t0) = observed_run(name, SchedKind::Sweep, Some((seed, rate)));
        let (s, v, r, t) = observed_run(name, SchedKind::Compiled, Some((seed, rate)));
        prop_assert_eq!(&v0, &v, "{}: verdict", name);
        prop_assert_eq!(&s0, &s, "{}: canonical stream", name);
        assert_reports_agree(&r0, &r, name);
        prop_assert_eq!(&t0, &t, "{}: transfer counts", name);
    }
}
