//! The VCD waveform of the 4-core CMP, pinned byte for byte.
//!
//! The waveform sink samples each wire's final value from the signal
//! store at step end. Every wire resolves once per completed step and the
//! store holds its last resolution, so the dump equals the one built from
//! the per-wire resolve events before: these CRCs were recorded from that
//! event-driven sink. The second run adds a random fault plan under
//! `Quarantine` and a watchdog, whose oscillation-tolerant writes may
//! re-resolve a wire within a step.

use liberty_bench::SharedBuf;
use liberty_core::prelude::*;
use liberty_core::snapshot::crc32;
use liberty_systems::cmp::{build_cmp, CmpConfig};

const STEPS: u64 = 300;

fn cmp4() -> Simulator {
    let cfg = CmpConfig {
        cores: 4,
        items: 64,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    let mut b = NetlistBuilder::new();
    build_cmp(&mut b, "", &cfg).unwrap();
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

/// Length and CRC32 of the waveform of a `STEPS`-step run.
fn waveform(mut sim: Simulator) -> (Simulator, (usize, u32)) {
    let buf = SharedBuf::default();
    sim.set_probe(Box::new(VcdProbe::new(buf.clone())));
    sim.run(STEPS).unwrap();
    sim.take_probe().unwrap().sync().unwrap();
    let bytes = buf.0.lock().unwrap();
    let pinned = (bytes.len(), crc32(&bytes));
    drop(bytes);
    (sim, pinned)
}

#[test]
fn cmp4_waveform_is_pinned() {
    assert_eq!(waveform(cmp4()).1, (371_922, 1_923_073_757), "4-core CMP");
}

#[test]
fn cmp4_waveform_under_quarantined_faults_is_pinned() {
    let mut sim = cmp4();
    let topo = sim.topology().clone();
    sim.set_fault_plan(FaultPlan::random(7, &topo, STEPS, 0.05));
    sim.set_failure_policy(FailurePolicy::Quarantine);
    sim.set_watchdog(1_000_000);
    let (sim, pinned) = waveform(sim);
    assert_eq!(
        pinned,
        (306_291, 3_026_726_524),
        "4-core CMP, faults quarantined"
    );
    assert!(
        !sim.quarantined_instances().is_empty(),
        "the plan panicked an instance"
    );
}
