//! Regenerates every experiment table of EXPERIMENTS.md (E1–E20).
//!
//! ```text
//! cargo run -p liberty-bench --bin report --release            # all
//! cargo run -p liberty-bench --bin report --release -- e9 e10  # subset
//! ```
//!
//! The paper (IPDPS 2004) is a framework paper: its figures are system
//! diagrams and its claims are structural. Each experiment here runs the
//! corresponding system or quantifies the corresponding claim; see
//! DESIGN.md §4 for the mapping.

use liberty_baseline::mono_core::{MonoConfig, MonoCore};
use liberty_baseline::mono_net::MonoMesh;
use liberty_bench::{chain_spec, table, timed};
use liberty_ccl::power::{analyze, PowerCoeffs};
use liberty_ccl::topology::build_grid;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;
use liberty_lss::{build_simulator, elaborate, parse};
use liberty_mpl::dma::{dma, DmaCmd};
use liberty_pcl::memarray::mem_array_shared;
use liberty_pcl::register::reg;
use liberty_pcl::{sink, source};
use liberty_systems::cmp::{cmp_simulator, CmpConfig};
use liberty_systems::full_registry;
use liberty_systems::grid::{grid_simulator, GridConfig};
use liberty_systems::sensor::{sensor_simulator, SensorConfig};
use liberty_systems::sos::{sos_simulator, SosConfig};
use liberty_upl::core::{core_simulator, run_to_halt, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::program;
use std::sync::Arc;

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

fn f1(x: f64) -> String {
    format!("{x:.1}")
}

// ----------------------------------------------------------------------
// E1 — Fig. 1: LSS text -> parse -> elaborate -> executable simulator.
// ----------------------------------------------------------------------
fn e1() -> String {
    let reg = full_registry();
    let mut rows = Vec::new();
    for n in [8usize, 64, 256, 1024, 16_384, 40_000] {
        let src = chain_spec(n);
        let (spec, t_parse) = timed(|| parse(&src).unwrap());
        let ((net, rep), t_elab) =
            timed(|| elaborate(&spec, &reg, "main", &Params::new()).unwrap());
        let (mut sim, t_ctor) = timed(|| {
            let (topo, modules) = net.into_parts();
            Simulator::from_parts(Arc::new(topo), modules, SchedKind::Compiled)
        });
        let (_, t_run) = timed(|| sim.run(100).unwrap());
        rows.push(vec![
            n.to_string(),
            rep.leaf_instances.to_string(),
            rep.edges.to_string(),
            f2(t_parse * 1e3),
            f2(t_elab * 1e3),
            f2(t_ctor * 1e3),
            f2(t_run * 1e3),
        ]);
    }
    format!(
        "## E1 — simulator construction pipeline (Fig. 1)\n\n{}\n",
        table(
            &[
                "stages",
                "instances",
                "edges",
                "parse ms",
                "elaborate ms",
                "construct ms",
                "run 100 cyc ms"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E2 — Fig. 2(a): chip multiprocessor.
// ----------------------------------------------------------------------
fn e2() -> String {
    let cfg = CmpConfig {
        cores: 8,
        items: 16,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    let (mut sim, cmp) = cmp_simulator(&cfg, SchedKind::Compiled).unwrap();
    let cycles = sim.run_until(400_000, |_| cmp.done()).unwrap();
    sim.run(64).unwrap();
    cmp.check_results().expect("CMP results correct");
    let mut rows = Vec::new();
    for (i, core) in cmp.cores.iter().enumerate() {
        let retired = sim.stats().counter(core.ids.decode, "retired");
        let role = if i % 2 == 0 { "producer" } else { "consumer" };
        rows.push(vec![
            format!("core{i}"),
            role.to_string(),
            retired.to_string(),
            format!("{:.3}", retired as f64 / cycles as f64),
        ]);
    }
    let grants = sim.stats().counter(cmp.bus, "grants");
    let inval: u64 = cmp
        .caches
        .iter()
        .map(|&c| sim.stats().counter(c, "invalidations"))
        .sum();
    let hits: u64 = cmp
        .caches
        .iter()
        .map(|&c| sim.stats().counter(c, "load_hits"))
        .sum();
    let misses: u64 = cmp
        .caches
        .iter()
        .map(|&c| sim.stats().counter(c, "load_misses"))
        .sum();
    let noc_lat = sim
        .stats()
        .sample_total("latency")
        .map(|s| s.mean())
        .unwrap_or(0.0);
    // Pluggable memory ordering: the same CMP under each policy.
    let mut order_rows = Vec::new();
    for policy in [None, Some("sc"), Some("tso"), Some("rc")] {
        let cfg2 = CmpConfig {
            cores: 8,
            items: 16,
            ordering: policy.map(str::to_owned),
            with_noc: false,
            noc_rate: 0.0,
        };
        let (mut s2, cmp2) = cmp_simulator(&cfg2, SchedKind::Compiled).unwrap();
        let producers_done = s2
            .run_until(500_000, |_| {
                cmp2.cores.iter().step_by(2).all(|c| c.arch.is_halted())
            })
            .unwrap();
        let cyc = producers_done + s2.run_until(500_000, |_| cmp2.done()).unwrap();
        s2.run(64).unwrap();
        cmp2.check_results()
            .expect("ordering keeps results correct");
        order_rows.push(vec![
            policy.unwrap_or("direct (SC by construction)").to_owned(),
            producers_done.to_string(),
            cyc.to_string(),
        ]);
    }
    format!(
        "## E2 — chip multiprocessor (Fig. 2a)\n\n\
         8 cores (4 producer/consumer pairs), coherent snoop bus, 3x3 NoC with NI models.\n\
         Completed in **{cycles} cycles**; all pair results architecturally correct.\n\n{}\n\
         Bus grants: {grants}; snoop invalidations: {inval}; L1 load hits/misses: {hits}/{misses}; \
         NoC mean packet latency: {} cycles.\n\n\
         **Pluggable memory ordering** (§3.4): the same CMP with an ordering controller\n\
         swapped in per core. Every policy keeps the flag-synchronized results correct.\n\
         On this workload the policies tie: the stall-on-branch cores hide store latency\n\
         behind control bubbles (one store per ~10-cycle loop iteration), so the store\n\
         buffer has nothing to absorb — the isolated store-burst microbenchmark\n\
         (`tso_is_faster_than_sc_on_store_bursts` in crates/mpl/tests) shows TSO's win\n\
         when stores are back to back. A model that *explains* a null effect is doing\n\
         its job:\n\n{}\n",
        table(&["core", "role", "retired", "IPC"], &rows),
        f1(noc_lat),
        table(
            &["ordering", "producers (store-heavy) done", "all done"],
            &order_rows
        )
    )
}

// ----------------------------------------------------------------------
// E3 — Fig. 2(b): sensor network node(s).
// ----------------------------------------------------------------------
fn e3() -> String {
    let mut rows = Vec::new();
    for nodes in [2u32, 4, 8] {
        let cfg = SensorConfig {
            nodes,
            samples: 8,
            loss: 0.0,
            external_base: false,
        };
        let (mut sim, net) = sensor_simulator(&cfg, SchedKind::Compiled).unwrap();
        let base = net.base.unwrap();
        let cycles = sim
            .run_until(400_000, |st| {
                st.counter(base, "received") >= u64::from(nodes)
            })
            .unwrap();
        let collisions = sim.stats().counter(net.air, "collisions");
        let backoffs: u64 = net
            .radios
            .iter()
            .map(|&r| sim.stats().counter(r, "backoffs"))
            .sum();
        let lat = sim
            .stats()
            .get_sample(base, "latency")
            .map(|s| s.mean())
            .unwrap_or(0.0);
        rows.push(vec![
            nodes.to_string(),
            sim.stats().counter(base, "received").to_string(),
            cycles.to_string(),
            collisions.to_string(),
            backoffs.to_string(),
            f1(lat),
        ]);
    }
    format!(
        "## E3 — sensor network (Fig. 2b)\n\n\
         Each node: GP core (producer) + DSP core (reducer) on a coherent node bus,\n\
         radio NI with CSMA backoff, shared wireless channel to the base station.\n\n{}\n",
        table(
            &[
                "sensor nodes",
                "samples delivered",
                "cycles to drain",
                "air collisions",
                "radio backoffs",
                "mean air latency"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E4 — Fig. 2(c): grids-in-a-box.
// ----------------------------------------------------------------------
fn e4() -> String {
    let mut rows = Vec::new();
    for (w, h) in [(2u32, 2u32), (4, 4), (6, 4)] {
        let cfg = GridConfig {
            w,
            h,
            halo: 32,
            compute: 64,
        };
        let (mut sim, grid) = grid_simulator(&cfg, SchedKind::Compiled).unwrap();
        let cycles = sim
            .run_until(400_000, |st| {
                grid.dmas
                    .iter()
                    .all(|&d| st.counter(d, "commands_done") >= 1)
            })
            .unwrap();
        sim.run(1024).unwrap();
        grid.check_halo().expect("halo correct");
        let words: u64 = grid
            .dmas
            .iter()
            .map(|&d| sim.stats().counter(d, "rx_words_written"))
            .sum();
        let retired: u64 = grid
            .cores
            .iter()
            .map(|c| sim.stats().counter(c.ids.decode, "retired"))
            .sum();
        rows.push(vec![
            format!("{w}x{h}"),
            cycles.to_string(),
            words.to_string(),
            f2(words as f64 / cycles as f64),
            retired.to_string(),
        ]);
    }
    format!(
        "## E4 — grids-in-a-box (Fig. 2c)\n\n\
         Per node: local memory + MPL DMA engine on a CCL mesh; halo exchange to the\n\
         successor node while a UPL core runs the dot-product kernel.\n\n{}\n",
        table(
            &[
                "grid",
                "cycles to exchange",
                "words moved",
                "words/cycle",
                "compute instrs retired"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E5 — Fig. 2(d): system of systems.
// ----------------------------------------------------------------------
fn e5() -> String {
    let cfg = SosConfig {
        sensors: 4,
        samples: 8,
        mesh_w: 2,
        mesh_h: 2,
    };
    let (mut sim, sos) = sos_simulator(&cfg, SchedKind::Compiled).unwrap();
    let cycles = sim
        .run_until(400_000, |st| st.counter(sos.chunkify, "chunkified") >= 4)
        .unwrap();
    sim.run(256).unwrap();
    let lat = sim
        .stats()
        .get_sample(sos.chunkify, "e2e_latency")
        .expect("latency samples");
    let want = liberty_systems::programs::expected_sum(cfg.samples);
    let camp = sos.camp_mem.lock();
    let landed = (0..4)
        .filter(|&s| camp[(sos.camp_base + s * 8) as usize] == want)
        .count();
    format!(
        "## E5 — system of systems (Fig. 2d)\n\n\
         4 sensors -> wireless -> bridge -> 2x2 aggregator mesh -> bridge -> base-camp DMA/memory.\n\n{}\n",
        table(
            &["sensors", "samples landed in camp memory", "cycles", "e2e latency min", "mean", "max"],
            &[vec![
                "4".to_string(),
                format!("{landed}/4 (value-checked)"),
                cycles.to_string(),
                f1(lat.min),
                f1(lat.mean()),
                f1(lat.max),
            ]]
        )
    )
}

// ----------------------------------------------------------------------
// E6 — the reuse census (§2.1).
// ----------------------------------------------------------------------
fn e6() -> String {
    let mut rows = Vec::new();
    let mut census_of = |name: &str, sim: &Simulator| {
        let census = sim.template_census();
        let queues = census.get("queue").copied().unwrap_or(0);
        let names: Vec<&str> = sim.instance_names().collect();
        let core_roles = names
            .iter()
            .filter(|n| n.ends_with(".fq") || n.ends_with(".iw") || n.contains("rob"))
            .count();
        let router_bufs = names.iter().filter(|n| n.contains("ibuf")).count();
        let total: usize = census.values().sum();
        let templates = census.len();
        rows.push(vec![
            name.to_string(),
            total.to_string(),
            templates.to_string(),
            queues.to_string(),
            core_roles.to_string(),
            router_bufs.to_string(),
            f1(total as f64 / templates as f64),
        ]);
    };
    let (sim, _) = cmp_simulator(
        &CmpConfig {
            cores: 8,
            items: 8,
            ordering: None,
            with_noc: true,
            noc_rate: 0.05,
        },
        SchedKind::Compiled,
    )
    .unwrap();
    census_of("CMP (Fig 2a)", &sim);
    let (sim, _) = sensor_simulator(&SensorConfig::default(), SchedKind::Compiled).unwrap();
    census_of("Sensor net (Fig 2b)", &sim);
    let (sim, _) = grid_simulator(&GridConfig::default(), SchedKind::Compiled).unwrap();
    census_of("Grid (Fig 2c)", &sim);
    let (sim, _) = sos_simulator(&SosConfig::default(), SchedKind::Compiled).unwrap();
    census_of("System of systems (Fig 2d)", &sim);
    format!(
        "## E6 — component reuse census (§2.1)\n\n\
         \"A single module template can be instantiated to model a processor's instruction\n\
         window, its reorder buffer, and the I/O buffers in a packet router\": the PCL `queue`\n\
         template serves as fetch buffer / instruction window / completion buffers inside every\n\
         core *and* as the input buffers of every router, across all four Fig. 2 systems.\n\n{}\n",
        table(
            &[
                "system",
                "instances",
                "distinct templates",
                "queue instances",
                "as core buffers (fq/iw/rob)",
                "as router buffers (ibuf)",
                "instances per template"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E7 — abstraction mixing (§2.2): statistical vs detailed drivers on the
// same, untouched fabric.
// ----------------------------------------------------------------------
fn e7() -> String {
    // Detailed: DMA engines exchanging repeated halo strips over the mesh.
    let w = 4u32;
    let h = 4u32;
    let rounds = 8u64;
    let halo = 16u64;
    let ((det_cycles, _det_words, det_lat), det_host) = timed(|| {
        let mut b = NetlistBuilder::new();
        let fabric = build_grid(&mut b, "net.", w, h, 4, 1, false).unwrap();
        let mut dmas = Vec::new();
        for id in 0..fabric.nodes {
            let (m_spec, m_mod, mem) =
                mem_array_shared(&Params::new().with("words", 1024i64).with("latency", 2i64))
                    .unwrap();
            let m = b.add(format!("mem{id}"), m_spec, m_mod).unwrap();
            {
                let mut mm = mem.lock();
                for i in 0..halo {
                    mm[i as usize] = u64::from(id) * 1000 + i;
                }
            }
            let (d_spec, d_mod) = dma(id);
            let d = b.add(format!("dma{id}"), d_spec, d_mod).unwrap();
            b.connect(d, "mem_req", m, "req").unwrap();
            b.connect(m, "resp", d, "mem_resp").unwrap();
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(d, "net_tx", ti, tp).unwrap();
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, d, "net_rx").unwrap();
            let cmds: Vec<Value> = (0..rounds)
                .map(|r| {
                    DmaCmd {
                        src_addr: 0,
                        len: halo,
                        dst_node: (id + 1) % fabric.nodes,
                        dst_addr: 256 + r * halo,
                        tag: r,
                    }
                    .into_value()
                })
                .collect();
            let (s_spec, s_mod) = source::script(cmds);
            let s = b.add(format!("host{id}"), s_spec, s_mod).unwrap();
            b.connect(s, "out", d, "cmd").unwrap();
            dmas.push(d);
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        let cycles = sim
            .run_until(200_000, |st| {
                dmas.iter()
                    .all(|&d| st.counter(d, "commands_done") >= rounds)
            })
            .unwrap();
        let words: u64 = dmas
            .iter()
            .map(|&d| sim.stats().counter(d, "rx_words_written"))
            .sum();
        let lat = sim
            .stats()
            .sample_total("latency")
            .map(|s| s.mean())
            .unwrap_or(0.0);
        (cycles, words, lat)
    });
    // Measured packet rate of the detailed run: packets = rounds * nodes *
    // chunks-per-command (halo/8).
    let pkts = rounds * u64::from(w * h) * halo.div_ceil(8);
    let rate = pkts as f64 / det_cycles as f64 / f64::from(w * h);

    // Abstract: the byte-identical fabric builder, statistical generators
    // at the measured rate.
    let ((abs_injected, abs_lat), abs_host) = timed(|| {
        let mut b = NetlistBuilder::new();
        let fabric = build_grid(&mut b, "net.", w, h, 4, 1, false).unwrap();
        let mut sinks = Vec::new();
        for id in 0..fabric.nodes {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes: fabric.nodes,
                width: w,
                my: id,
                rate,
                pattern: Pattern::Uniform,
                flits: 9, // halo chunk: 8 words + header
                seed: 5,
                ..TrafficCfg::default()
            });
            let g = b.add(format!("gen{id}"), g_spec, g_mod).unwrap();
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(g, "out", ti, tp).unwrap();
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("sink{id}"), k_spec, k_mod).unwrap();
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, k, "in").unwrap();
            sinks.push(k);
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(det_cycles).unwrap();
        let injected: u64 = (0..fabric.nodes)
            .map(|i| {
                let id = sim.instance_by_name(&format!("gen{i}")).unwrap();
                sim.stats().counter(id, "injected")
            })
            .sum();
        let lat = sim
            .stats()
            .sample_total("latency")
            .map(|s| s.mean())
            .unwrap_or(0.0);
        (injected, lat)
    });
    format!(
        "## E7 — abstraction mixing on one fabric (§2.2)\n\n\
         The same 4x4 mesh builder, untouched; only the node models change\n\
         (\"replace the statistical packet generator with a network interface controller\").\n\
         The statistical generator is calibrated to the detailed run's measured rate.\n\n{}\n\
         The abstract model reproduces the fabric's load and latency regime while the\n\
         detailed driver additionally moves value-checked payloads; host cost ratio\n\
         detailed/statistical = {:.2}. (The large speed win of abstraction shows up when\n\
         the detailed side includes full cores — see E11's per-instruction costs.)\n",
        table(
            &[
                "driver",
                "packets",
                "mean packet latency (cycles)",
                "host time ms"
            ],
            &[
                vec![
                    "detailed (DMA engines, real payloads)".to_string(),
                    pkts.to_string(),
                    f1(det_lat),
                    f1(det_host * 1e3),
                ],
                vec![
                    "statistical (traffic_gen at measured rate)".to_string(),
                    abs_injected.to_string(),
                    f1(abs_lat),
                    f1(abs_host * 1e3),
                ],
            ]
        ),
        det_host / abs_host
    )
}

// ----------------------------------------------------------------------
// E8 — iterative refinement (§2.2).
// ----------------------------------------------------------------------
fn e8() -> String {
    let stages: Vec<(&str, CoreConfig)> = vec![
        ("1: minimal in-order", CoreConfig::default()),
        (
            "2: deeper buffers",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                ..CoreConfig::default()
            },
        ),
        (
            "3: + bimodal predictor",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                predictor: Some(Params::new().with("kind", "bimodal")),
                ..CoreConfig::default()
            },
        ),
        (
            "4: + D-cache (slow DRAM)",
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
    ];
    let mut out = String::from("## E8 — iterative refinement (§2.2)\n\n");
    for prog in [program::branchy(256), program::memcpy_prog(128)] {
        let mut emu = Machine::new(&prog);
        emu.run(&prog, 10_000_000).unwrap();
        let mut rows = Vec::new();
        for (name, cfg) in &stages {
            let (mut sim, handles) =
                core_simulator(Arc::new(prog.clone()), cfg, SchedKind::Compiled).unwrap();
            let cycles = run_to_halt(&mut sim, &handles, 5_000_000).unwrap();
            assert_eq!(&*handles.arch.regs.lock(), &emu.regs, "arch state");
            let retired = sim.stats().counter(handles.ids.decode, "retired");
            let mis = sim.stats().counter(handles.ids.execute, "mispredicts");
            let (hits, misses) = match handles.ids.cache {
                Some(c) => (
                    sim.stats().counter(c, "read_hits"),
                    sim.stats().counter(c, "read_misses"),
                ),
                None => (0, 0),
            };
            rows.push(vec![
                name.to_string(),
                cycles.to_string(),
                format!("{:.3}", retired as f64 / cycles as f64),
                mis.to_string(),
                if hits + misses > 0 {
                    format!("{:.0}%", 100.0 * hits as f64 / (hits + misses) as f64)
                } else {
                    "-".to_string()
                },
            ]);
        }
        out.push_str(&format!(
            "**{}** (every stage retires the identical architectural state):\n\n{}\n",
            prog.name,
            table(
                &["stage", "cycles", "IPC", "mispredicts", "D$ hit rate"],
                &rows
            )
        ));
    }
    out
}

// ----------------------------------------------------------------------
// E9 — Orion power models (§3.3).
// ----------------------------------------------------------------------
fn e9() -> String {
    let run_net = |rate: f64, flits: u32| {
        let mut b = NetlistBuilder::new();
        let fabric = build_grid(&mut b, "n.", 4, 4, 4, 1, false).unwrap();
        for id in 0..fabric.nodes {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes: fabric.nodes,
                width: 4,
                my: id,
                rate,
                pattern: Pattern::Uniform,
                flits,
                seed: 9,
                ..TrafficCfg::default()
            });
            let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(g, "out", ti, tp).unwrap();
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, k, "in").unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(2000).unwrap();
        analyze(
            &sim.instance_names().collect::<Vec<_>>(),
            &sim.report(),
            sim.now(),
            f64::from(flits),
            &PowerCoeffs::default(),
        )
    };
    let mut rows = Vec::new();
    for rate in [0.0, 0.02, 0.05, 0.1, 0.2, 0.3] {
        let r = run_net(rate, 4);
        rows.push(vec![
            format!("{rate:.2}"),
            f2(r.total_dynamic_mw),
            f2(r.total_leakage_mw),
            f2(r.total_mw),
            format!("{:.0}%", 100.0 * r.leakage_fraction),
            f1(r.temp_c),
        ]);
    }
    let mut rows2 = Vec::new();
    for flits in [2u32, 4, 8, 16] {
        let r = run_net(0.1, flits);
        rows2.push(vec![
            flits.to_string(),
            f2(r.dynamic_mw.get("buffer").copied().unwrap_or(0.0)),
            f2(r.dynamic_mw.get("crossbar").copied().unwrap_or(0.0)),
            f2(r.dynamic_mw.get("link").copied().unwrap_or(0.0)),
            f2(r.total_mw),
        ]);
    }
    format!(
        "## E9 — network power: dynamic, leakage, thermal (§3.3, Orion)\n\n\
         4x4 mesh, uniform traffic, default ~100nm-class coefficients.\n\n\
         **Power vs load** (leakage dominates at low utilization — ref [7]'s motivation):\n\n{}\n\
         **Dynamic power by component vs packet size** (load 0.10 pkts/node/cycle):\n\n{}\n",
        table(
            &[
                "inj. rate",
                "dynamic mW",
                "leakage mW",
                "total mW",
                "leakage share",
                "temp C"
            ],
            &rows
        ),
        table(
            &[
                "flits/packet",
                "buffer mW",
                "crossbar mW",
                "link mW",
                "total mW"
            ],
            &rows2
        )
    )
}

// ----------------------------------------------------------------------
// E10 — compiled scheduling of the reaction phase (ref [22]).
// ----------------------------------------------------------------------
fn e10() -> String {
    let build_chain = |n: usize| {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::repeating(Value::Word(1));
        let s = b.add("s", s_spec, s_mod).unwrap();
        let mut prev = s;
        for i in 0..n {
            let (r_spec, r_mod) = reg(&Params::new()).unwrap();
            let r = b.add(format!("r{i}"), r_spec, r_mod).unwrap();
            b.connect(prev, "out", r, "in").unwrap();
            prev = r;
        }
        let (k_spec, k_mod) = sink::counting(&Params::new()).unwrap();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(prev, "out", k, "in").unwrap();
        b.build().unwrap()
    };
    let mut rows = Vec::new();
    let mut bench = |name: &str, mk: &dyn Fn(SchedKind) -> Simulator, cycles: u64| {
        let mut sweep_sim = mk(SchedKind::Sweep);
        let (_, t_sw) = timed(|| sweep_sim.run(cycles).unwrap());
        let mut comp_sim = mk(SchedKind::Compiled);
        let (_, t_c) = timed(|| comp_sim.run(cycles).unwrap());
        let rw = sweep_sim.metrics().reacts as f64 / cycles as f64;
        let rc = comp_sim.metrics().reacts as f64 / cycles as f64;
        rows.push(vec![
            name.to_string(),
            f1(rw),
            f1(rc),
            f2(rw / rc),
            f1(t_sw * 1e3),
            f1(t_c * 1e3),
            f2(t_sw / t_c),
        ]);
    };
    for n in [16usize, 64, 256] {
        let label = format!("register chain n={n}");
        bench(&label, &|s| Simulator::new(build_chain(n), s), 2000);
    }
    bench(
        "4x4 mesh, uniform 0.1",
        &|s| {
            let mut b = NetlistBuilder::new();
            let fabric = build_grid(&mut b, "n.", 4, 4, 4, 1, false).unwrap();
            for id in 0..fabric.nodes {
                let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                    nodes: fabric.nodes,
                    width: 4,
                    my: id,
                    rate: 0.1,
                    pattern: Pattern::Uniform,
                    flits: 4,
                    seed: 3,
                    ..TrafficCfg::default()
                });
                let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
                let (ti, tp) = fabric.local_in[id as usize];
                b.connect(g, "out", ti, tp).unwrap();
                let (k_spec, k_mod) = traffic_sink(Some(id));
                let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
                let (fo, fp) = fabric.local_out[id as usize];
                b.connect(fo, fp, k, "in").unwrap();
            }
            Simulator::new(b.build().unwrap(), s)
        },
        2000,
    );
    bench(
        "LIR core (fib 24)",
        &|s| {
            let (sim, _) =
                core_simulator(Arc::new(program::fib(24)), &CoreConfig::default(), s).unwrap();
            sim
        },
        2000,
    );
    format!(
        "## E10 — analyzable MoC: scheduler optimization (ref [22])\n\n\
         Both schedulers reach the identical fixed point (verified by tests). The\n\
         naive repeated sweep re-invokes every instance until a pass resolves nothing:\n\
         it is the unoptimized reference the suites check the engine against. The\n\
         compiled plan is the analysis the fixed reactive MoC makes possible: the\n\
         netlist condensed into SCCs, each straight instance reacting once a step and\n\
         each cyclic island iterating locally (docs/KERNEL.md §6).\n\n{}\n",
        table(
            &[
                "netlist",
                "reacts/cycle sweep",
                "compiled",
                "sweep/compiled ratio",
                "host ms sweep",
                "host ms compiled",
                "host speedup"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E11 — structural vs monolithic vs functional (the cost of generality).
// ----------------------------------------------------------------------
fn e11() -> String {
    let mut rows = Vec::new();
    for prog in program::catalog() {
        let mut emu = Machine::new(&prog);
        let (_, t_emu) = timed(|| emu.run(&prog, 50_000_000).unwrap());
        let mut mono = MonoCore::new(&prog, MonoConfig::default());
        let (_, t_mono) = timed(|| mono.run(50_000_000).unwrap());
        let arc = Arc::new(prog.clone());
        let (mut sim, handles) =
            core_simulator(arc, &CoreConfig::default(), SchedKind::Compiled).unwrap();
        let (_, t_struct) = timed(|| run_to_halt(&mut sim, &handles, 10_000_000).unwrap());
        assert_eq!(&*handles.arch.regs.lock(), &emu.regs, "arch mismatch");
        let retired = emu.retired as f64;
        rows.push(vec![
            prog.name.clone(),
            emu.retired.to_string(),
            f2(retired / t_emu / 1e6),
            f2(retired / t_mono / 1e6),
            f2(retired / t_struct / 1e6),
            f1(t_struct / t_mono),
        ]);
    }
    // Network side.
    let cycles = 5000u64;
    let mut mono_net = MonoMesh::new(4, 4, 0.1, 4, 7);
    let (_, t_mono_net) = timed(|| {
        mono_net.run(cycles);
    });
    let (mut sim, t_build) = timed(|| {
        let mut b = NetlistBuilder::new();
        let fabric = build_grid(&mut b, "n.", 4, 4, 4, 1, false).unwrap();
        for id in 0..fabric.nodes {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes: fabric.nodes,
                width: 4,
                my: id,
                rate: 0.1,
                pattern: Pattern::Uniform,
                flits: 4,
                seed: 7,
                ..TrafficCfg::default()
            });
            let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(g, "out", ti, tp).unwrap();
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, k, "in").unwrap();
        }
        Simulator::new(b.build().unwrap(), SchedKind::Compiled)
    });
    let (_, t_struct_net) = timed(|| sim.run(cycles).unwrap());
    format!(
        "## E11 — structural (LSE) vs monolithic vs functional\n\n\
         All three agree on architectural state for every catalog program (asserted during\n\
         this run and in `tests/equivalence.rs`). The structural simulator pays for kernel\n\
         generality with host speed — the trade the paper accepts for reuse and confidence.\n\
         These rows run the compiled scheduler, which trims the kernel's per-react share\n\
         of that gap (13.2 reacts a step on this core, from 16.6 before its islands\n\
         settled), but on module-dominated systems like these the handler bodies, not\n\
         the scheduler, are where the structural tax lives.\n\n\
         **Processor side** (million retired instructions per host second):\n\n{}\n\
         **Network side** (4x4 mesh, uniform 0.1, {cycles} cycles): monolithic {:.1} ms,\n\
         structural {:.1} ms (+{:.1} ms construction) — slowdown {:.1}x.\n",
        table(
            &[
                "program",
                "instructions",
                "emulator Mi/s",
                "monolithic Mi/s",
                "structural Mi/s",
                "structural/monolithic slowdown"
            ],
            &rows
        ),
        t_mono_net * 1e3,
        t_struct_net * 1e3,
        t_build * 1e3,
        t_struct_net / t_mono_net
    )
}

// ----------------------------------------------------------------------
// E12 — default control semantics (§2.1).
// ----------------------------------------------------------------------
fn e12() -> String {
    let reg = full_registry();
    let src = r#"
        module main {
            instance gen : seq_source { count = 50; };
            instance q : queue { depth = 4; };
            instance dst : sink;
            connect gen.out -> q.in;
            connect q.out -> dst.in;
        }
    "#;
    let (mut sim, _) =
        build_simulator(src, &reg, "main", &Params::new(), SchedKind::Compiled).unwrap();
    sim.run(100).unwrap();
    let dst = sim.instance_by_name("dst").unwrap();
    let received = sim.stats().counter(dst, "received");
    // Partial variant: drop the sink entirely — the queue drains into the
    // void under default-accept semantics; nothing deadlocks.
    let partial = r#"
        module main {
            instance gen : seq_source { count = 50; };
            instance q : queue { depth = 4; };
            connect gen.out -> q.in;
        }
    "#;
    let (mut sim2, _) =
        build_simulator(partial, &reg, "main", &Params::new(), SchedKind::Compiled).unwrap();
    sim2.run(100).unwrap();
    let q = sim2.instance_by_name("q").unwrap();
    let enq = sim2.stats().counter(q, "enq");
    format!(
        "## E12 — default control semantics (§2.1)\n\n\
         Full datapath-only spec delivers {received}/50 values with zero user-written control.\n\
         The partial spec (consumer deleted) still runs: the queue accepted {enq} values; \n\
         unconnected ports silently use the defaults. A module driving *nothing at all* also\n\
         composes (see `tests/refinement.rs::e12_...`), with the kernel's lazy default\n\
         resolution completing its wires.\n"
    )
}

// ----------------------------------------------------------------------
// E13 — ablation: router input-buffer depth (the queue depth parameter
// DESIGN.md calls out as the head-of-line resource).
// ----------------------------------------------------------------------
fn e13() -> String {
    let run = |buf_depth: usize| {
        let mut b = NetlistBuilder::new();
        let fabric = build_grid(&mut b, "n.", 4, 4, buf_depth, 1, false).unwrap();
        for id in 0..fabric.nodes {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes: fabric.nodes,
                width: 4,
                my: id,
                rate: 0.18,
                pattern: Pattern::Uniform,
                flits: 4,
                seed: 21,
                ..TrafficCfg::default()
            });
            let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(g, "out", ti, tp).unwrap();
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, k, "in").unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(3000).unwrap();
        let injected = sim.stats().counter_total("injected");
        let received = sim.stats().counter_total("received");
        let lat = sim
            .stats()
            .sample_total("latency")
            .map(|s| s.mean())
            .unwrap_or(0.0);
        let power = analyze(
            &sim.instance_names().collect::<Vec<_>>(),
            &sim.report(),
            sim.now(),
            4.0,
            &PowerCoeffs::default(),
        );
        (injected, received, lat, power.total_leakage_mw)
    };
    let mut rows = Vec::new();
    for depth in [1usize, 2, 4, 8, 16] {
        let (inj, rcv, lat, leak) = run(depth);
        rows.push(vec![
            depth.to_string(),
            inj.to_string(),
            rcv.to_string(),
            f1(lat),
            f2(leak),
        ]);
    }
    format!(
        "## E13 — ablation: router buffer depth

         4x4 mesh at a demanding uniform load (0.18 pkts/node/cycle): deeper input
         buffers raise accepted throughput and tame latency until the fabric itself
         saturates, while the leakage bill (Orion per-instance leakage scales with
         buffer count, not depth here — depth changes occupancy, not instances) stays
         flat. The *algorithmic parameter* changes one number in the spec.

{}
",
        table(
            &[
                "ibuf depth",
                "injected",
                "delivered",
                "mean latency",
                "leakage mW"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E14 — ablation: wireless loss (sensor fabric robustness).
// ----------------------------------------------------------------------
fn e14() -> String {
    let run = |loss: f64| {
        let mut b = NetlistBuilder::new();
        let (w_spec, w_mod) =
            liberty_ccl::wireless::wireless(&Params::new().with("loss", loss).with("seed", 33i64))
                .unwrap();
        let air = b.add("air", w_spec, w_mod).unwrap();
        let (k_spec, k_mod) = traffic_sink(Some(0));
        let base = b.add("base", k_spec, k_mod).unwrap();
        b.connect(air, "rx", base, "in").unwrap();
        for i in 0..4u32 {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes: 1, // pattern unused: hotspot to node 0
                width: 1,
                my: i + 1,
                rate: 0.05,
                pattern: Pattern::Hotspot,
                hot_frac: 1.0,
                flits: 2,
                seed: 40 + u64::from(i),
                limit: 50,
                backoff: true,
            });
            let g = b.add(format!("g{i}"), g_spec, g_mod).unwrap();
            b.connect(g, "out", air, "tx").unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(6000).unwrap();
        (
            sim.stats().counter_total("injected"),
            sim.stats().counter(base, "received"),
            sim.stats().counter(air, "lost"),
            sim.stats().counter(air, "collisions"),
        )
    };
    let mut rows = Vec::new();
    for loss in [0.0, 0.05, 0.15, 0.30] {
        let (tx, rx, lost, coll) = run(loss);
        rows.push(vec![
            format!("{loss:.2}"),
            tx.to_string(),
            rx.to_string(),
            lost.to_string(),
            coll.to_string(),
        ]);
    }
    format!(
        "## E14 — ablation: wireless channel loss

         Four stations stream to a base over the shared air. Without link-level
         acknowledgements, every lost frame is gone (transmitted = delivered + lost):
         the sensor fabric needs application-level recovery — exactly the kind of
         design question the composable model lets one ask before building hardware.

{}
",
        table(
            &[
                "loss prob",
                "transmitted",
                "delivered",
                "lost in air",
                "collision cycles"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E15 — model refinement in the fabric dimension: packet-granularity vs
// flit-level wormhole switching on the same topology and traffic.
// ----------------------------------------------------------------------
fn e15() -> String {
    let run = |flit_level: bool, flits: u32| {
        let mut b = NetlistBuilder::new();
        let (local_in, local_out, nodes): (Vec<_>, Vec<_>, u32) = if flit_level {
            let f = liberty_ccl::wormhole::build_flit_grid(&mut b, "n.", 4, 4, 4).unwrap();
            (f.local_in, f.local_out, f.nodes)
        } else {
            let f = build_grid(&mut b, "n.", 4, 4, 4, 1, false).unwrap();
            (f.local_in, f.local_out, f.nodes)
        };
        for id in 0..nodes {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes,
                width: 4,
                my: id,
                rate: 0.04,
                pattern: Pattern::Uniform,
                flits,
                seed: 23,
                ..TrafficCfg::default()
            });
            let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
            let (ti, tp) = local_in[id as usize];
            b.connect(g, "out", ti, tp).unwrap();
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
            let (fo, fp) = local_out[id as usize];
            b.connect(fo, fp, k, "in").unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        let (_, host) = timed(|| sim.run(2000).unwrap());
        let received = sim.stats().counter_total("received");
        let lat = sim
            .stats()
            .sample_total("latency")
            .map(|s| s.mean())
            .unwrap_or(0.0);
        (received, lat, host)
    };
    let mut rows = Vec::new();
    for flits in [1u32, 4, 8] {
        let (pr, pl, ph) = run(false, flits);
        let (fr, fl, fh) = run(true, flits);
        rows.push(vec![
            flits.to_string(),
            pr.to_string(),
            f1(pl),
            f1(ph * 1e3),
            fr.to_string(),
            f1(fl),
            f1(fh * 1e3),
        ]);
    }
    format!(
        "## E15 — fabric refinement: packet-level vs flit-level wormhole\n\n\
4x4 mesh, same traffic generators, same topology builder pattern; the fabric\n\
is refined from packet store-and-forward to flit-granularity wormhole\n\
switching (head locks the output, tail releases it). Flit-level latency picks\n\
up the serialization term (grows with packet size) and simulation cost rises\n\
with the finer granularity — refinement buys fidelity with host time, at one\n\
builder swap (paper §2.2).\n\n{}\n",
        table(
            &[
                "flits/pkt",
                "pkt-level delivered",
                "latency",
                "host ms",
                "flit-level delivered",
                "latency",
                "host ms"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E16 — kernel throughput: monolithic engine vs layered kernel.
// ----------------------------------------------------------------------
fn e16() -> String {
    // Steps/sec measured on the pre-layering monolithic engine: the seed
    // commit checked out side-by-side and driven through this identical
    // harness (20k measured cycles, best of 5 runs) on the same host —
    // the better of the seed's two worklist schedulers (FIFO and rank
    // order) per workload.
    let before: &[(&str, f64)] = &[
        (liberty_bench::kernel::WORKLOADS[0], 5501.0),
        (liberty_bench::kernel::WORKLOADS[1], 33230.0),
        (liberty_bench::kernel::WORKLOADS[2], 769313.0),
    ];
    let runs = liberty_bench::kernel::run_all(20_000);
    let mut rows = Vec::new();
    for r in &runs {
        let old = before
            .iter()
            .find(|(w, _)| *w == r.workload)
            .map(|&(_, v)| v);
        let now = r.steps_per_sec();
        rows.push(vec![
            r.workload.to_string(),
            old.map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            format!("{now:.0}"),
            old.map_or_else(|| "-".into(), |v| f2(now / v)),
        ]);
    }
    format!(
        "## E16 — kernel throughput: layered kernel vs monolithic engine\n\n\
         Simulated time-steps per host second on three representative netlists (20k\n\
         measured cycles after warm-up). The \"before\" column is the monolithic\n\
         pre-layering engine (seed commit, identical harness, same host, best of 5),\n\
         the better of its FIFO and rank-ordered worklist schedulers; \"after\" is the\n\
         layered topology/store/exec kernel under the compiled scheduler, with its\n\
         reader table, O(1) epoch reset and activity-gated commit, measured at\n\
         report time — so\n\
         the ratio moves with host load (observed noise up to ~10-20%). The layered\n\
         kernel holds throughput parity while making per-step reset O(1), the\n\
         topology shareable across simulators, and idle commits skippable.\n\
         `benches/kernel.rs` times the same workloads with its own best-of-N harness.\n\n{}\n",
        table(
            &[
                "workload",
                "steps/s before",
                "steps/s after (Compiled)",
                "speedup"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E17 — observability: probe-off parity and the cost of each sink.
// ----------------------------------------------------------------------
fn e17() -> String {
    use liberty_bench::kernel::{run_workload_probed, ProbeMode, WORKLOADS};

    fn best_of(n: u32, w: &'static str, s: SchedKind, cycles: u64, m: ProbeMode) -> f64 {
        (0..n)
            .map(|_| run_workload_probed(w, s, cycles, m).steps_per_sec())
            .fold(0.0, f64::max)
    }

    // Steps/sec recorded by E16 when the observability layer landed
    // (PR 1 "after" column: pre-probe kernel, 20k cycles, same host), the
    // better of its two worklist schedulers per workload.
    let pre_probe: &[(&str, f64)] = &[
        (WORKLOADS[0], 5010.0),
        (WORKLOADS[1], 33534.0),
        (WORKLOADS[2], 677106.0),
    ];
    let mut parity = Vec::new();
    for &(w, base) in pre_probe {
        let now = best_of(5, w, SchedKind::Compiled, 20_000, ProbeMode::Off);
        parity.push(vec![
            w.to_string(),
            format!("{base:.0}"),
            format!("{now:.0}"),
            f2(now / base),
        ]);
    }

    // Attached-sink cost, measured at 2k cycles (ratios, not absolutes,
    // are the result; VCD at 20k cycles would dominate report runtime).
    let mut overhead = Vec::new();
    for &w in WORKLOADS {
        let off = best_of(3, w, SchedKind::Compiled, 2_000, ProbeMode::Off);
        let mut row = vec![w.to_string(), format!("{off:.0}")];
        for &mode in &ProbeMode::ALL[1..] {
            let v = best_of(3, w, SchedKind::Compiled, 2_000, mode);
            row.push(format!("{v:.0} ({:.2}x)", off / v));
        }
        overhead.push(row);
    }

    format!(
        "## E17 — observability: probe-off parity and per-sink cost\n\n\
         The probe reaches the kernel's reaction loop as an `Option`: with none\n\
         attached, straight nodes and kernels run no probe code, and island members\n\
         test the `Option` once per invocation (a probe with `Interest::NONE` costs\n\
         ~1.00x on `cmp8`, docs/OBSERVABILITY.md §5). The parity table holds the\n\
         probe-off compiled kernel against the better of the two worklist schedulers'\n\
         pre-observability numbers recorded in E16 (20k measured cycles, best of 5,\n\
         same host — same ~10-20% host-load noise band). The cost table attaches each\n\
         sink (compiled scheduler, 2k cycles, best of 3):\n\
         the counting probe is the observation floor, the profiler adds two\n\
         `Instant::now()` per handler, VCD serializes every resolution to\n\
         `std::io::sink()`. CI runs the same guard in smoke mode against\n\
         `ci/kernel_baseline.tsv`. See docs/OBSERVABILITY.md.\n\n{}\n{}\n",
        table(
            &[
                "workload",
                "steps/s pre-probe (E16)",
                "steps/s probe-off now",
                "ratio"
            ],
            &parity
        ),
        table(
            &[
                "workload (Compiled)",
                "off steps/s",
                "counting (slowdown)",
                "profiler (slowdown)",
                "vcd (slowdown)"
            ],
            &overhead
        )
    )
}

// ----------------------------------------------------------------------
// E18 — schedule compilation: the compiled plan vs the naive sweep.
// ----------------------------------------------------------------------
fn e18() -> String {
    use liberty_bench::kernel::{run_workload, KernelRun, ACYCLIC_WORKLOADS, WORKLOADS};

    fn best_of(n: u32, w: &'static str, s: SchedKind, cycles: u64) -> KernelRun {
        (0..n)
            .map(|_| run_workload(w, s, cycles))
            .min_by(|a, b| a.secs.total_cmp(&b.secs))
            .expect("n >= 1")
    }

    let cycles = 2000u64;
    let mut rows = Vec::new();
    for &w in WORKLOADS {
        // Sweep re-runs a whole anti-topological chain once per stage,
        // so it gets a tenth of the cycles.
        let sweep = best_of(3, w, SchedKind::Sweep, cycles / 10);
        let compiled = best_of(5, w, SchedKind::Compiled, cycles);
        rows.push(vec![
            w.to_string(),
            format!("{:.0}", sweep.steps_per_sec()),
            format!("{:.0}", compiled.steps_per_sec()),
            format!("{:.2}x", compiled.steps_per_sec() / sweep.steps_per_sec()),
        ]);
    }

    format!(
        "## E18 — schedule compilation: SCC-condensed plans vs the naive sweep\n\n\
         The compiled scheduler (docs/KERNEL.md §6) hoists fixed-point discovery to\n\
         construction time: acyclic instances react exactly once per step from a\n\
         precomputed plan — no worklist, no reader lookups, no queued-flag\n\
         bookkeeping — and cyclic SCCs run bounded local fixed-point islands. In an\n\
         island a member that has seen its final inputs is not invoked again when a\n\
         neighbour's write re-wakes it (docs/KERNEL.md §8), and whom a resolved wire\n\
         re-queues is read from the plan's wake table by the write itself (§6). The\n\
         table sets it against the naive sweep, the oracle the equivalence suites\n\
         check it against (`crates/bench/tests/equivalence.rs`): `Compiled` best of 5\n\
         at {cycles} cycles, Sweep best of 3 at {} cycles. The acyclic\n\
         microbenchmarks are built in anti-topological creation order, so a sweep in\n\
         id order resolves one level per pass (`{}`). Under probes the compiled\n\
         scheduler keeps its plan and adds full bookkeeping; under faults or a\n\
         watchdog it invokes on every wake again. Against the better of the two\n\
         worklist schedulers it replaced (FIFO and rank order), last measured on\n\
         the 2-vCPU host when the level-parallel variant below was deleted, it\n\
         read 1.43x on the CMP, 1.30x on the mesh and 1.20x on the stage-4 core.\n\
         A level-parallel variant of\n\
         the plan walk read 0.31-0.55x of the serial one at 2-8 threads on every\n\
         host it was measured on and was deleted at PR 19. CI guards the compiled\n\
         path's floors via `ci/kernel_baseline.tsv`.\n\n{}\n",
        cycles / 10,
        ACYCLIC_WORKLOADS.join("`, `"),
        table(
            &[
                "workload",
                "Sweep steps/sec",
                "Compiled steps/sec",
                "Compiled/Sweep"
            ],
            &rows
        )
    )
}

// ----------------------------------------------------------------------
// E19 — handler specialization: type-specialized kernels vs dynamic react.
// ----------------------------------------------------------------------
fn e19() -> String {
    use liberty_bench::handler::{best_of, build_shape, CONTROL_SHAPE, SHAPES};

    let (cycles, best, stages) = (4_000u64, 5u32, 32usize);

    // Measure every shape on both paths; remember the control floor.
    let mut cells = Vec::new();
    let mut floor: Option<(f64, f64)> = None;
    for &shape in SHAPES {
        let summary = build_shape(shape, stages)
            .plan_summary()
            .expect("compiled plan");
        assert_eq!(summary.dynamic, 0, "{shape}: not fully specialized");
        let d = best_of(best, shape, stages, false, cycles);
        let p = best_of(best, shape, stages, true, cycles);
        let (dn, pn) = (d.ns_per_react(), p.ns_per_react());
        if shape == CONTROL_SHAPE {
            floor = Some((dn, pn));
        }
        cells.push((shape, d, p, dn, pn));
    }
    let (fd, fs) = floor.expect("control shape measured");

    let throughput: Vec<Vec<String>> = cells
        .iter()
        .map(|(shape, d, p, _, _)| {
            vec![
                shape.to_string(),
                format!("{:.0}", d.steps_per_sec()),
                format!("{:.0}", p.steps_per_sec()),
                format!("{:.2}x", p.steps_per_sec() / d.steps_per_sec()),
            ]
        })
        .collect();

    // Dispatch-cost breakdown: subtract the minimal-handler control floor
    // to isolate the handler *body* each path executes.
    let breakdown: Vec<Vec<String>> = cells
        .iter()
        .map(|(shape, _, _, dn, pn)| {
            let body = if *shape == CONTROL_SHAPE {
                "(control)".to_string()
            } else if pn - fs < 2.0 {
                // Specialized body is below the host's timing noise: the
                // kernel disappeared into the engine floor.
                format!("{:.0} -> ~0 (body eliminated)", dn - fd)
            } else {
                format!(
                    "{:.0} -> {:.0} ({:.0}x)",
                    dn - fd,
                    pn - fs,
                    (dn - fd) / (pn - fs)
                )
            };
            vec![
                shape.to_string(),
                format!("{dn:.1}"),
                format!("{pn:.1}"),
                body,
            ]
        })
        .collect();

    format!(
        "## E19 — handler specialization: type-specialized kernels vs dynamic react\n\n\
         The serial compiled plan lowers eligible `pcl` handlers (queue, register,\n\
         delay, tee, sink, source, alu, inverter) into monomorphized kernels over\n\
         unboxed word lanes at plan-compile time (docs/KERNEL.md §7): contracts are\n\
         verified once when the plan is built, and the per-react path runs no boxed\n\
         `Value` traffic, no port-name hashing, and no per-call contract checks.\n\
         Ineligible or demoted instances keep the dynamic `Module::react` path in\n\
         the same plan; probes, faults, and watchdogs despecialize losslessly\n\
         (`crates/bench/tests/specialization.rs` proves byte-identical streams,\n\
         state hashes, and checkpoint compatibility both ways).\n\n\
         Each row is a homogeneous netlist dominated by one template ({stages}\n\
         stages/lanes, {cycles} cycles, best of {best}; the mixed pipeline is the\n\
         48-instance E18 workload). End-to-end throughput first:\n\n{}\n\
         End-to-end gains settle at 2-6x, not the raw handler-body ratio, because\n\
         both paths intentionally keep the engine services observational equality\n\
         depends on — transfer stats, handshake bookkeeping, the commit sweep, the\n\
         plan walk. The `inverter` row prices that floor: its body is a single word\n\
         flip, so its per-react cost ({fd:.0} ns dynamic, {fs:.0} ns specialized) is,\n\
         to first order, what every react pays regardless of its body. Subtracting\n\
         it isolates the handler *body* — the dispatch + contract-check + boxed-value\n\
         component E11 identified as the structural tax of composable modules:\n\n{}\n\
         The body component — the cost this PR attacks — drops by roughly an\n\
         order of magnitude (5-25x across templates, varying with host noise;\n\
         the register body vanishes entirely): a specialized queue body runs in\n\
         tens of ns where the dynamic one paid ~170 ns for `HashMap` port lookups,\n\
         `Value` boxing, per-send contract re-checks, and contended-path worklist\n\
         allocation. E11's remaining gap vs the hand-written C baseline lives in\n\
         the `upl` processor-core modules, which stay dynamic (closure-captured\n\
         state, tuple-heavy contracts) — extending eligibility there is future\n\
         work. `--explain-plan` on any example prints the per-instance verdicts;\n\
         CI guards the specialized floor and the specialized/dynamic margin via\n\
         `ci/kernel_baseline.tsv`.\n\n\
         Numbers are from this 1-vCPU report host (±15% between regenerations);\n\
         `cargo bench --bench handler` reproduces the breakdown with flags for\n\
         cycles, repetitions, and chain depth.\n",
        table(
            &[
                "handler (Compiled)",
                "dynamic steps/s",
                "specialized steps/s",
                "speedup",
            ],
            &throughput
        ),
        table(
            &[
                "handler (Compiled)",
                "dynamic ns/react",
                "specialized ns/react",
                "handler body ns: dyn -> spec (ratio)",
            ],
            &breakdown
        )
    )
}

fn e20() -> String {
    use liberty_bench::ensemble::{LssFactory, ENSEMBLE_SPEC};
    use liberty_ensemble::{resume_sweep, run_sweep, ParamSweep, ReplicaFactory, SweepConfig};

    let cycles = 2_000u64;
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("liberty-e20-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("e20 scratch dir");
        dir
    };
    let cfg = |seeds: u64, threads: usize, checkpoint_every: u64| {
        let mut c = SweepConfig::new(cycles);
        c.sweep = Some(ParamSweep::parse("depth=2..3").expect("static sweep"));
        c.seeds = seeds;
        c.base_seed = 11;
        c.threads = threads;
        c.checkpoint_every = checkpoint_every;
        c
    };
    let sweep = |dir: &std::path::Path, c: &SweepConfig| {
        let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
        run_sweep(dir, c, &CancelToken::new(), &factory).expect("e20 sweep")
    };

    // --- Grid size vs wall-clock ---
    let mut scale_rows = Vec::new();
    for &(seeds, threads) in &[(2u64, 1usize), (2, 2), (4, 2), (8, 2)] {
        let dir = scratch(&format!("scale-{seeds}-{threads}"));
        let c = cfg(seeds, threads, 256);
        let (report, secs) = timed(|| sweep(&dir, &c));
        assert!(report.complete(), "e20 scale sweep must complete");
        scale_rows.push(vec![
            report.total.to_string(),
            threads.to_string(),
            format!("{:.0}", secs * 1e3),
            format!("{:.1}", secs * 1e3 / report.total as f64),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Interrupt + resume vs an uninterrupted control ---
    let control_dir = scratch("control");
    let (control, control_secs) = timed(|| sweep(&control_dir, &cfg(4, 2, 256)));
    assert!(control.complete());
    let cut_dir = scratch("cut");
    let mut cut_cfg = cfg(4, 2, 256);
    cut_cfg.max_steps = Some(cycles / 2);
    let (first, first_secs) = timed(|| sweep(&cut_dir, &cut_cfg));
    assert!(!first.complete(), "half-budget cut must interrupt");
    let resume_cfg = cfg(4, 2, 256);
    let (resumed, resume_secs) = timed(|| {
        let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
        resume_sweep(&cut_dir, &resume_cfg, &CancelToken::new(), &factory).expect("e20 resume")
    });
    assert!(resumed.complete());
    // The headline guarantee: the interrupted-and-resumed sweep's
    // aggregate is byte-identical to the control's.
    let csv = |d: &std::path::Path| std::fs::read(d.join("metrics.csv")).expect("metrics.csv");
    assert_eq!(
        csv(&control_dir),
        csv(&cut_dir),
        "resumed sweep must match control byte-for-byte"
    );
    let split_total = first_secs + resume_secs;
    let resume_rows = vec![
        vec![
            "uninterrupted control".into(),
            format!("{:.0}", control_secs * 1e3),
            "-".into(),
        ],
        vec![
            format!("cut at {} steps + resume", cycles / 2),
            format!(
                "{:.0} + {:.0} = {:.0}",
                first_secs * 1e3,
                resume_secs * 1e3,
                split_total * 1e3
            ),
            format!(
                "{:+.0}%",
                100.0 * (split_total - control_secs) / control_secs
            ),
        ],
    ];
    let _ = std::fs::remove_dir_all(&control_dir);
    let _ = std::fs::remove_dir_all(&cut_dir);

    // --- Harness price: one-replica sweep vs a bare buffered run ---
    let best = 3u32;
    let one = |c: &mut SweepConfig| {
        c.sweep = None;
        c.seeds = 1;
        c.checkpoint_every = 0;
    };
    let bare_secs = (0..best)
        .map(|i| {
            let dir = scratch(&format!("bare-{i}"));
            let mut c = cfg(1, 1, 0);
            one(&mut c);
            let factory = LssFactory::new(ENSEMBLE_SPEC, SchedKind::Compiled);
            let spec = c.replicas().into_iter().next().expect("one replica");
            let mut sim = factory.build(&spec).expect("fixture builds");
            let file = std::io::BufWriter::new(
                std::fs::File::create(dir.join("bare.jsonl")).expect("stream file"),
            );
            sim.set_probe(Box::new(JsonlProbe::new(file).canonical()));
            let (_r, secs) = timed(|| sim.run_governed(cycles));
            let _ = std::fs::remove_dir_all(&dir);
            secs
        })
        .min_by(|a, b| a.total_cmp(b))
        .expect("best >= 1");
    let ens_secs = (0..best)
        .map(|i| {
            let dir = scratch(&format!("one-{i}"));
            let mut c = cfg(1, 1, 0);
            one(&mut c);
            let (report, secs) = timed(|| sweep(&dir, &c));
            assert!(report.complete());
            let _ = std::fs::remove_dir_all(&dir);
            secs
        })
        .min_by(|a, b| a.total_cmp(b))
        .expect("best >= 1");
    let overhead = vec![
        // As recorded by PR 10, for the before/after: one `write` per
        // event line, `format!` + `json_escape` temporaries per event.
        vec![
            "PR 10: a write per line".into(),
            "486918".into(),
            "163044".into(),
            "0.33x".into(),
        ],
        vec![
            "PR 12: group commit".into(),
            format!("{:.0}", cycles as f64 / bare_secs),
            format!("{:.0}", cycles as f64 / ens_secs),
            format!(
                "{:.2}x",
                (cycles as f64 / ens_secs) / (cycles as f64 / bare_secs)
            ),
        ],
    ];

    format!(
        "## E20 — fault-tolerant ensembles: supervised sweeps, durable resume\n\n\
         A parameter study is the paper's reuse story at run time: the same\n\
         structural spec elaborated across a grid of algorithmic-parameter\n\
         points and seeds. `liberty_ensemble` runs that grid under per-replica\n\
         supervision (budgets, retry, panic isolation) with an append-only\n\
         CRC-checked manifest, so a sweep killed at any point — SIGINT, budget\n\
         cut, `kill -9` — resumes instead of restarting\n\
         (docs/ROBUSTNESS.md §11). Replicas at one parameter point share one\n\
         elaborated `Topology`; every replica streams canonical JSONL.\n\n\
         The fixture is the depth-swept arbiter/queue/delay chain from\n\
         `liberty_bench::ensemble` at {cycles} steps per replica, checkpoint\n\
         cadence 256:\n\n{}\n\
         Interrupting costs only the re-execution window between the last\n\
         checkpoint and the cut — and nothing in fidelity. The resumed sweep's\n\
         aggregate CSV is asserted byte-identical to the control's while this\n\
         table is generated:\n\n{}\n\
         The harness price for one replica — manifest, supervision, per-sweep\n\
         set-up and the stream's durability — vs a bare buffered-stream run of\n\
         the same modules. The durability invariant is \"every line below step\n\
         N is with the OS before `step-N.ckpt` exists\"; PR 10 held it with one\n\
         `write` per event line, PR 12 holds it by group commit (a 64 KiB\n\
         block, written when full and on the `Probe::sync` that precedes\n\
         every checkpoint file) and encodes each line into a reused buffer.\n\
         The PR 10 row is as recorded then; absolute steps/s follow the host's\n\
         hour (the PR 10 code re-measured beside PR 12 read 386-405k bare,\n\
         132-134k ensemble), the ratio is the comparable figure:\n\n{}\n\
         The repo benchmark's `sweep_durable` (2x2 grid, 1000 steps, checkpoint\n\
         every 256) is the precise before/after: 118-131k -> 390-460k\n\
         replica-steps/s over ten alternating pairs (with the stream CRC summed\n\
         eight bytes at a time as blocks are written, not re-read byte by byte\n\
         at the end), 24.6 -> 8.6 allocations per replica-step, with the\n\
         pinned stream digest and the control-stream comparison unchanged.\n\
         CI holds the `ensemble/single` margin via `ci/kernel_baseline.tsv`\n\
         and replays the full kill/SIGINT/panic matrix in\n\
         `crates/bench/tests/ensemble_resume.rs` on every push. Numbers are\n\
         from this 1-vCPU report host: thread scaling is expected to be flat\n\
         here (the lanes time-slice one core); on a multi-core host the\n\
         per-replica wall-clock divides by the lane count as usual.\n",
        table(
            &["replicas", "threads", "wall ms", "ms/replica"],
            &scale_rows
        ),
        table(
            &["sweep (4 replicas, 2 lanes)", "wall ms", "vs control"],
            &resume_rows
        ),
        table(
            &[
                "lss ensemble fixture (Compiled)",
                "bare run steps/s",
                "1-replica ensemble steps/s",
                "ensemble/single",
            ],
            &overhead
        )
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a == k);
    type Section = (&'static str, fn() -> String);
    let sections: Vec<Section> = vec![
        ("e1", e1),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("e16", e16),
        ("e17", e17),
        ("e18", e18),
        ("e19", e19),
        ("e20", e20),
    ];
    println!("# Liberty Simulation Environment — experiment report\n");
    println!("(regenerated by `cargo run -p liberty-bench --bin report --release`)\n");
    for (key, f) in sections {
        if want(key) {
            let (text, secs) = timed(f);
            println!("{text}");
            println!("_({key} regenerated in {:.2}s)_\n", secs);
        }
    }
}
