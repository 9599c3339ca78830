//! Experiment E8: iterative refinement (paper §2.2). A processor model is
//! refined in four stages — "at each stage in this refinement process,
//! the specification is compilable into a working simulator". Every stage
//! runs and produces the same architectural results; each refinement
//! changes only performance.
//!
//! Also E12: default control semantics — a datapath-only specification
//! (no explicit flow control anywhere the defaults suffice) runs.

use liberty_core::prelude::*;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;
use liberty_upl::core::{core_simulator, run_to_halt, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::program;
use std::sync::Arc;

/// The four refinement stages of the core model.
fn stages() -> Vec<(&'static str, CoreConfig)> {
    vec![
        ("stage1_minimal", CoreConfig::default()),
        (
            "stage2_deeper_buffers",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                ..CoreConfig::default()
            },
        ),
        (
            "stage3_predictor",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                predictor: Some(Params::new().with("kind", "bimodal")),
                ..CoreConfig::default()
            },
        ),
        (
            "stage4_cache",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                predictor: Some(Params::new().with("kind", "bimodal")),
                cache: Some(Params::new()),
                mem_latency: 12,
                ..CoreConfig::default()
            },
        ),
    ]
}

#[test]
fn e8_every_refinement_stage_is_a_working_simulator() {
    let prog = Arc::new(program::branchy(128));
    let mut emu = Machine::new(&prog);
    emu.run(&prog, 10_000_000).unwrap();

    let mut cycle_counts = Vec::new();
    for (name, cfg) in stages() {
        let (mut sim, handles) = core_simulator(prog.clone(), &cfg, SchedKind::Compiled).unwrap();
        let cycles = run_to_halt(&mut sim, &handles, 2_000_000).unwrap();
        assert!(handles.arch.is_halted(), "{name} did not halt");
        // Architectural equivalence at every stage.
        assert_eq!(
            &*handles.arch.regs.lock(),
            &emu.regs,
            "{name}: registers differ"
        );
        assert_eq!(
            sim.stats().counter(handles.ids.decode, "retired"),
            emu.retired,
            "{name}: retired differ"
        );
        cycle_counts.push((name, cycles));
    }
    // The predictor stage must beat the stall-on-branch stages on this
    // branchy workload.
    let stage2 = cycle_counts[1].1;
    let stage3 = cycle_counts[2].1;
    assert!(
        stage3 < stage2,
        "predictor refinement did not help: {cycle_counts:?}"
    );
}

#[test]
fn e8_partial_lss_specification_grows_into_full_system() {
    let reg = full_registry();
    // Stage A: just a traffic source into a queue — runs.
    let a = r#"
        module main {
            instance gen : seq_source { count = 10; };
            instance q : queue;
            connect gen.out -> q.in;
        }
    "#;
    // Stage B: add the consumer — same spec plus one instance/connect.
    let b_src = r#"
        module main {
            instance gen : seq_source { count = 10; };
            instance q : queue;
            instance dst : sink;
            connect gen.out -> q.in;
            connect q.out -> dst.in;
        }
    "#;
    let (mut sim_a, _) =
        build_simulator(a, &reg, "main", &Params::new(), SchedKind::Compiled).unwrap();
    sim_a.run(20).unwrap();
    let q = sim_a.instance_by_name("q").unwrap();
    assert!(sim_a.stats().counter(q, "enq") > 0);

    let (mut sim_b, _) =
        build_simulator(b_src, &reg, "main", &Params::new(), SchedKind::Compiled).unwrap();
    sim_b.run(30).unwrap();
    let dst = sim_b.instance_by_name("dst").unwrap();
    assert_eq!(sim_b.stats().counter(dst, "received"), 10);
}

#[test]
fn e12_datapath_only_specification_works_by_default_semantics() {
    // A user's half-written module that drives *nothing* — no data, no
    // enable, no ack — still composes: the kernel's default control
    // semantics resolve its wires (data No, ack accept), so the rest of
    // the system keeps running. This is §2.1's "working system models can
    // be constructed by connecting the datapath and specifying minimal
    // control" taken to the extreme.
    struct Silent;
    impl Module for Silent {
        fn react(&mut self, _: &mut ReactCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }
    let mut reg = full_registry();
    reg.register("user", "silent_source", "drives nothing at all", |_p| {
        Ok((
            ModuleSpec::new("silent_source").output("out", 0, 1),
            Box::new(Silent) as Box<dyn Module>,
        ))
    });
    let src = r#"
        module main {
            instance gen : seq_source { count = 5; };
            instance stub : silent_source;
            instance d : delay { latency = 2; };
            instance dst : sink;
            instance dst2 : sink;
            connect gen.out -> d.in;
            connect d.out -> dst.in;
            connect stub.out -> dst2.in;
        }
    "#;
    let (mut sim, _) =
        build_simulator(src, &reg, "main", &Params::new(), SchedKind::Compiled).unwrap();
    sim.run(30).unwrap();
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 5);
    // The stub delivered nothing, and the kernel's default resolution
    // completed its undriven wires every cycle.
    let dst2 = sim.instance_by_name("dst2").unwrap();
    assert_eq!(sim.stats().counter(dst2, "received"), 0);
    assert!(sim.metrics().defaults > 0);
}

#[test]
fn e1_lss_text_to_running_cmp_like_system() {
    // Fig. 1 end to end at system scale: an LSS file instantiating whole
    // cores (composite template) and a mesh NoC (composite template).
    let reg = full_registry();
    let src = r#"
        module main {
            instance core0 : lir_core { program = "fib"; };
            instance core1 : lir_core { program = "count"; predictor = "bimodal"; };
            instance noc : mesh_noc { w = 3; h = 3; rate = 0.05; };
        }
    "#;
    let (mut sim, report) =
        build_simulator(src, &reg, "main", &Params::new(), SchedKind::Compiled).unwrap();
    sim.run(3000).unwrap();
    // Both cores retired instructions; the queue template is reused in
    // cores *and* routers within one netlist (E6's claim, visible here).
    let d0 = sim.instance_by_name("core0.decode").unwrap();
    let d1 = sim.instance_by_name("core1.decode").unwrap();
    assert!(sim.stats().counter(d0, "retired") > 50);
    assert!(sim.stats().counter(d1, "retired") > 50);
    assert!(sim.stats().counter(d0, "halted") == 1);
    let queue_uses = report.template_uses.get("queue").copied().unwrap_or(0);
    assert!(
        queue_uses >= 8 + 45,
        "queue instantiated {queue_uses} times"
    );
    let received: u64 = (0..9)
        .map(|i| {
            let id = sim.instance_by_name(&format!("noc.sink{i}")).unwrap();
            sim.stats().counter(id, "received")
        })
        .sum();
    assert!(received > 0);
}

#[test]
fn shipped_spec_files_elaborate_and_run() {
    let reg = full_registry();
    for (name, src, cycles) in [
        (
            "pipeline.lss",
            include_str!("../specs/pipeline.lss"),
            120u64,
        ),
        (
            "dual_core_noc.lss",
            include_str!("../specs/dual_core_noc.lss"),
            400,
        ),
    ] {
        let (mut sim, rep) =
            build_simulator(src, &reg, "main", &Params::new(), SchedKind::Compiled)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(rep.leaf_instances > 0, "{name}");
        sim.run(cycles).unwrap();
    }
    // The pipeline spec's end-to-end delivery is worth pinning exactly.
    let (mut sim, _) = build_simulator(
        include_str!("../specs/pipeline.lss"),
        &reg,
        "main",
        &Params::new(),
        SchedKind::Compiled,
    )
    .unwrap();
    sim.run(120).unwrap();
    let dst = sim.instance_by_name("dst").unwrap();
    assert_eq!(sim.stats().counter(dst, "received"), 20);
}

#[test]
fn refinement_spec_variants_all_work() {
    // specs/refinement.lss elaborates differently under parameter
    // overrides; every variant is a complete working simulator (§2.2).
    let reg = full_registry();
    let src = include_str!("../specs/refinement.lss");
    for (buffered, fanout, want_queue, want_tee) in [
        (0i64, 0i64, false, false),
        (1, 0, true, false),
        (1, 1, true, true),
    ] {
        let (mut sim, rep) = build_simulator(
            src,
            &reg,
            "main",
            &Params::new()
                .with("buffered", buffered)
                .with("fanout", fanout),
            SchedKind::Compiled,
        )
        .unwrap();
        assert_eq!(rep.template_uses.contains_key("queue"), want_queue);
        assert_eq!(rep.template_uses.contains_key("tee"), want_tee);
        sim.run(80).unwrap();
        let dst = sim.instance_by_name("dst").unwrap();
        assert_eq!(
            sim.stats().counter(dst, "received"),
            24,
            "buffered={buffered} fanout={fanout}"
        );
        if want_tee {
            let dst2 = sim.instance_by_name("dst2").unwrap();
            assert_eq!(sim.stats().counter(dst2, "received"), 24);
        }
    }
}
