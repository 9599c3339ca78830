//! The shipped `specs/ring_osc.lss` combinational loop must terminate
//! with a structured divergence diagnostic — naming the oscillating
//! wires and the instances on the resolution cycle — under all four
//! schedulers (the compiled one runs the ring as a fixed-point island
//! and reuses the same watchdog machinery).

use liberty_core::prelude::*;
use liberty_lss::build_simulator;

fn ring_src() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs/ring_osc.lss");
    std::fs::read_to_string(path).expect("ring_osc.lss readable")
}

fn registry() -> Registry {
    let mut r = Registry::new();
    liberty_pcl::register_all(&mut r);
    r
}

#[test]
fn ring_oscillator_diverges_under_every_scheduler() {
    let src = ring_src();
    let reg = registry();
    for sched in [SchedKind::Sweep, SchedKind::Compiled] {
        let (mut sim, report) =
            build_simulator(&src, &reg, "main", &Params::new(), sched).expect("elaborates");
        assert_eq!(report.leaf_instances, 3);
        sim.set_watchdog(512);
        let err = sim.run(10).unwrap_err();
        let d = err
            .as_divergence()
            .unwrap_or_else(|| panic!("{sched:?}: expected divergence, got {err}"));
        assert_eq!(d.step, 0, "{sched:?}: diverges in the first step");
        assert_eq!(d.limit, 512, "{sched:?}");
        assert!(
            !d.oscillating.is_empty(),
            "{sched:?}: no oscillating wires reported"
        );
        for w in &d.oscillating {
            assert_eq!(w.wire, "data", "{sched:?}: only data wires flip here");
            assert!(w.flips > 0, "{sched:?}");
            assert!(w.src.contains("inv"), "{sched:?}: src {}", w.src);
        }
        assert!(
            d.cycle.iter().all(|n| n.contains("inv")) && !d.cycle.is_empty(),
            "{sched:?}: cycle {:?}",
            d.cycle
        );
        // The rendered error is a usable diagnostic on its own.
        let msg = err.to_string();
        assert!(msg.contains("512"), "{msg}");
        assert!(msg.contains("inv"), "{msg}");
    }
}

#[test]
fn without_watchdog_the_monotone_contract_rejects_the_loop() {
    // Strict mode (no oscillation tolerance): the first conflicting write
    // is an error — the kernel never spins.
    let (mut sim, _) = build_simulator(
        &ring_src(),
        &registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .expect("elaborates");
    let err = sim.run(1).unwrap_err();
    assert!(
        err.as_divergence().is_none(),
        "strict mode fails fast instead: {err}"
    );
}

#[test]
fn even_rings_settle_under_the_watchdog() {
    let src = ring_src().replace("param n = 3;", "param n = 4;");
    let (mut sim, _) = build_simulator(
        &src,
        &registry(),
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .expect("elaborates");
    sim.set_watchdog(512);
    sim.run(10).expect("even ring has a fixed point");
}
