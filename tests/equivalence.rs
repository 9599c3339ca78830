//! Experiment E11 (correctness half): the structural core, the monolithic
//! baseline and the functional emulator retire identical architectural
//! state on the whole workload catalog. Speed comparison lives in the
//! bench harness.
//!
//! Also cross-checks E10's scheduler claim at system scale: the naive
//! sweep and the compiled plan produce identical results on a full
//! system, with the compiled plan using no more handler invocations.

use liberty_baseline::mono_core::{MonoConfig, MonoCore};
use liberty_core::prelude::*;
use liberty_systems::grid::{grid_simulator, GridConfig};
use liberty_upl::core::{core_simulator, run_to_halt, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::program;
use std::sync::Arc;

#[test]
fn e11_three_way_architectural_equivalence() {
    for prog in program::catalog() {
        // Functional emulator.
        let mut emu = Machine::new(&prog);
        emu.run(&prog, 20_000_000).unwrap();
        assert!(emu.halted, "{}: emulator did not halt", prog.name);

        // Monolithic baseline.
        let mut mono = MonoCore::new(&prog, MonoConfig::default());
        mono.run(20_000_000).unwrap();
        assert_eq!(mono.regs(), &emu.regs, "{}: mono regs", prog.name);
        assert_eq!(mono.mem(), &emu.mem[..], "{}: mono mem", prog.name);
        assert_eq!(
            mono.stats().retired,
            emu.retired,
            "{}: mono retired",
            prog.name
        );

        // Structural LSE core.
        let arc = Arc::new(prog.clone());
        let (mut sim, handles) =
            core_simulator(arc, &CoreConfig::default(), SchedKind::Compiled).unwrap();
        run_to_halt(&mut sim, &handles, 5_000_000).unwrap();
        assert!(
            handles.arch.is_halted(),
            "{}: structural did not halt",
            prog.name
        );
        assert_eq!(
            &*handles.arch.regs.lock(),
            &emu.regs,
            "{}: structural regs",
            prog.name
        );
        assert_eq!(
            &*handles.mem.as_ref().unwrap().lock(),
            &emu.mem,
            "{}: structural mem",
            prog.name
        );
        assert_eq!(
            sim.stats().counter(handles.ids.decode, "retired"),
            emu.retired,
            "{}: structural retired",
            prog.name
        );
    }
}

#[test]
fn e10_schedulers_agree_on_a_full_system() {
    let cfg = GridConfig {
        w: 3,
        h: 3,
        halo: 8,
        compute: 16,
    };
    let run = |sched| {
        let (mut sim, grid) = grid_simulator(&cfg, sched).unwrap();
        sim.run(4000).unwrap();
        grid.check_halo().expect("halo ok");
        let done: u64 = grid
            .dmas
            .iter()
            .map(|&d| sim.stats().counter(d, "commands_done"))
            .sum();
        let retired: u64 = grid
            .cores
            .iter()
            .map(|c| sim.stats().counter(c.ids.decode, "retired"))
            .sum();
        (done, retired, sim.metrics().reacts)
    };
    let (w_done, w_ret, w_reacts) = run(SchedKind::Sweep);
    let (c_done, c_ret, c_reacts) = run(SchedKind::Compiled);
    assert_eq!(w_done, c_done);
    assert_eq!(w_ret, c_ret);
    assert!(
        c_reacts <= w_reacts,
        "compiled used more reacts: {c_reacts} > {w_reacts}"
    );
}
