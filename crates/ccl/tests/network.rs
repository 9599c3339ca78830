//! End-to-end network tests: delivery correctness on meshes/tori/rings,
//! latency-versus-load behaviour, scheduler equivalence, and the
//! statistical-vs-detailed abstraction swap of paper §2.2.

use liberty_ccl::packet::Packet;
use liberty_ccl::power::{analyze, PowerCoeffs};
use liberty_ccl::topology::{build_grid, build_ring};
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;

/// Build a mesh (or torus) with generators/sinks on every node.
fn build_network(
    w: u32,
    h: u32,
    rate: f64,
    pattern: Pattern,
    wrap: bool,
    sched: SchedKind,
) -> (Simulator, Vec<InstanceId>, Vec<InstanceId>) {
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "n.", w, h, 4, 1, wrap).unwrap();
    let mut gens = Vec::new();
    let mut sinks = Vec::new();
    for id in 0..fabric.nodes {
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: fabric.nodes,
            width: w,
            my: id,
            rate,
            pattern,
            flits: 4,
            seed: 42,
            ..TrafficCfg::default()
        });
        let g = b.add(format!("gen{id}"), g_spec, g_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(g, "out", ti, tp).unwrap();
        gens.push(g);
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("sink{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
        sinks.push(k);
    }
    (Simulator::new(b.build().unwrap(), sched), gens, sinks)
}

fn totals(sim: &Simulator, gens: &[InstanceId], sinks: &[InstanceId]) -> (u64, u64, f64) {
    let injected: u64 = gens
        .iter()
        .map(|&g| sim.stats().counter(g, "injected"))
        .sum();
    let received: u64 = sinks
        .iter()
        .map(|&k| sim.stats().counter(k, "received"))
        .sum();
    let lat = sim
        .stats()
        .sample_total("latency")
        .map(|s| s.mean())
        .unwrap_or(0.0);
    (injected, received, lat)
}

#[test]
fn mesh_delivers_uniform_traffic_without_loss() {
    let (mut sim, gens, sinks) =
        build_network(4, 4, 0.05, Pattern::Uniform, false, SchedKind::Compiled);
    sim.run(600).unwrap();
    let (injected, received, lat) = totals(&sim, &gens, &sinks);
    assert!(injected > 100, "injected {injected}");
    // Everything injected is eventually delivered (drain margin).
    assert!(
        received as f64 >= injected as f64 * 0.9,
        "{received}/{injected}"
    );
    assert!(lat >= 3.0, "mean latency {lat}");
}

#[test]
fn latency_rises_with_load() {
    let mut lats = Vec::new();
    for rate in [0.02, 0.10, 0.25] {
        let (mut sim, gens, sinks) =
            build_network(4, 4, rate, Pattern::Uniform, false, SchedKind::Compiled);
        sim.run(800).unwrap();
        let (_, received, lat) = totals(&sim, &gens, &sinks);
        assert!(received > 0);
        lats.push(lat);
    }
    assert!(
        lats[0] < lats[1] && lats[1] < lats[2],
        "latency not monotone with load: {lats:?}"
    );
}

#[test]
fn transpose_on_mesh_delivers() {
    let (mut sim, gens, sinks) =
        build_network(4, 4, 0.05, Pattern::Transpose, false, SchedKind::Compiled);
    sim.run(500).unwrap();
    let (injected, received, _) = totals(&sim, &gens, &sinks);
    assert!(injected > 50);
    assert!(received as f64 >= injected as f64 * 0.9);
}

#[test]
fn torus_wrap_reduces_latency_vs_mesh() {
    // Bit-complement forces corner-to-corner traffic where wraparound
    // shortcuts matter most.
    let run = |wrap| {
        let (mut sim, gens, sinks) = build_network(
            4,
            4,
            0.03,
            Pattern::BitComplement,
            wrap,
            SchedKind::Compiled,
        );
        sim.run(700).unwrap();
        let (i, r, lat) = totals(&sim, &gens, &sinks);
        assert!(r > 0 && i > 0);
        lat
    };
    let mesh_lat = run(false);
    let torus_lat = run(true);
    assert!(torus_lat < mesh_lat, "torus {torus_lat} !< mesh {mesh_lat}");
}

#[test]
fn ring_delivers_neighbour_and_far_traffic() {
    let mut b = NetlistBuilder::new();
    let fabric = build_ring(&mut b, "r.", 6, 4, 1).unwrap();
    let mut sinks = Vec::new();
    for id in 0..6 {
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("sink{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
        sinks.push(k);
    }
    // One scripted source at node 0 sending to 1 (CW) and 4 (CCW).
    let mk = |id, dst| {
        Packet {
            id,
            src: 0,
            dst,
            flits: 1,
            created: 0,
            payload: None,
        }
        .into_value()
    };
    let (s_spec, s_mod) = liberty_pcl::source::script(vec![mk(0, 1), mk(1, 4), mk(2, 3)]);
    let s = b.add("src", s_spec, s_mod).unwrap();
    let (ti, tp) = fabric.local_in[0];
    b.connect(s, "out", ti, tp).unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(60).unwrap();
    assert_eq!(sim.stats().counter(sinks[1], "received"), 1);
    assert_eq!(sim.stats().counter(sinks[4], "received"), 1);
    assert_eq!(sim.stats().counter(sinks[3], "received"), 1);
}

#[test]
fn schedulers_agree_on_network() {
    let run = |sched| {
        let (mut sim, gens, sinks) = build_network(3, 3, 0.1, Pattern::Uniform, false, sched);
        sim.run(300).unwrap();
        totals(&sim, &gens, &sinks)
    };
    let d = run(SchedKind::Sweep);
    let s = run(SchedKind::Compiled);
    assert_eq!(d.0, s.0);
    assert_eq!(d.1, s.1);
    assert!((d.2 - s.2).abs() < 1e-9);
}

/// Paper §2.2: "it is possible to replace the statistical packet
/// generator with a network interface controller ... simply by replacing
/// the packet generator". Here: the same mesh, once under statistical
/// generators, once under scripted deterministic sources — only the
/// sources change, the fabric instances are byte-identical builders.
#[test]
fn abstraction_swap_keeps_network_untouched() {
    // Detailed/deterministic variant.
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "n.", 3, 3, 4, 1, false).unwrap();
    let mk = |id, src: u32, dst| {
        Packet {
            id,
            src,
            dst,
            flits: 4,
            created: 0,
            payload: None,
        }
        .into_value()
    };
    for id in 0..9u32 {
        let script: Vec<Value> = (0..3)
            .map(|k| mk(u64::from(id) * 10 + k, id, (id + 1 + k as u32) % 9))
            .collect();
        let (s_spec, s_mod) = liberty_pcl::source::script(script);
        let s = b.add(format!("ni{id}"), s_spec, s_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(s, "out", ti, tp).unwrap();
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("sink{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
    }
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(200).unwrap();
    let received: u64 = (0..9)
        .map(|i| {
            let id = sim.instance_by_name(&format!("sink{i}")).unwrap();
            sim.stats().counter(id, "received")
        })
        .sum();
    assert_eq!(received, 27); // all scripted packets delivered
}

#[test]
fn power_report_from_live_network() {
    let (mut sim, gens, sinks) =
        build_network(4, 4, 0.1, Pattern::Uniform, false, SchedKind::Compiled);
    sim.run(400).unwrap();
    let (injected, _, _) = totals(&sim, &gens, &sinks);
    assert!(injected > 100);
    let names: Vec<&str> = sim.instance_names().collect();
    let report = analyze(
        &names,
        &sim.report(),
        sim.now(),
        4.0,
        &PowerCoeffs::default(),
    );
    assert!(report.total_dynamic_mw > 0.0);
    assert!(report.total_leakage_mw > 0.0);
    assert!(report.dynamic_mw.contains_key("buffer"));
    assert!(report.dynamic_mw.contains_key("crossbar"));
    assert!(report.dynamic_mw.contains_key("link"));
    assert!(report.temp_c > PowerCoeffs::default().t_ambient_c);

    // Lower load -> lower dynamic power, higher leakage fraction (E9).
    let (mut sim2, _, _) = build_network(4, 4, 0.02, Pattern::Uniform, false, SchedKind::Compiled);
    sim2.run(400).unwrap();
    let report2 = analyze(
        &sim2.instance_names().collect::<Vec<_>>(),
        &sim2.report(),
        sim2.now(),
        4.0,
        &PowerCoeffs::default(),
    );
    assert!(report2.total_dynamic_mw < report.total_dynamic_mw);
    assert!(report2.leakage_fraction > report.leakage_fraction);
}
