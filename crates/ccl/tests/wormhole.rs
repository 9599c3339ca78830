//! Flit-level wormhole fabric tests: packets segment, traverse, and
//! reassemble intact (the depacketizer hard-errors on any interleaving or
//! flit-accounting violation); serialization latency scales with packet
//! size; the flit-level and packet-level fabrics agree on delivery.

use liberty_ccl::packet::Packet;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_ccl::wormhole::build_flit_grid;
use liberty_core::prelude::*;
use liberty_pcl::{sink, source};

fn pkt(id: u64, src: u32, dst: u32, flits: u32) -> Value {
    Packet {
        id,
        src,
        dst,
        flits,
        created: 0,
        payload: Some(Value::Word(id * 10)),
    }
    .into_value()
}

fn flit_mesh(w: u32, h: u32, scripts: Vec<Vec<Value>>) -> (Simulator, Vec<sink::Collected>) {
    let mut b = NetlistBuilder::new();
    let fabric = build_flit_grid(&mut b, "n.", w, h, 4).unwrap();
    let mut handles = Vec::new();
    for id in 0..fabric.nodes {
        let script = scripts.get(id as usize).cloned().unwrap_or_default();
        let (s_spec, s_mod) = source::script(script);
        let s = b.add(format!("src{id}"), s_spec, s_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(s, "out", ti, tp).unwrap();
        let (k_spec, k_mod, hd) = sink::collecting();
        let k = b.add(format!("dst{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
        handles.push(hd);
    }
    (
        Simulator::new(b.build().unwrap(), SchedKind::Compiled),
        handles,
    )
}

#[test]
fn single_packet_crosses_and_reassembles() {
    let (mut sim, handles) = flit_mesh(3, 3, vec![vec![pkt(1, 0, 8, 5)]]);
    sim.run(60).unwrap();
    let got = handles[8].values();
    assert_eq!(got.len(), 1);
    let p = Packet::from_value(&got[0]).unwrap();
    assert_eq!(p.id, 1);
    assert_eq!(p.flits, 5);
    assert_eq!(p.payload.as_ref().and_then(|v| v.as_word()), Some(10));
}

#[test]
fn serialization_latency_scales_with_flits() {
    let lat = |flits: u32| {
        let (mut sim, handles) = flit_mesh(2, 1, vec![vec![pkt(1, 0, 1, flits)]]);
        sim.run_until(300, |_| !handles[1].is_empty()).unwrap()
    };
    let l1 = lat(1);
    let l8 = lat(8);
    assert!(
        l8 >= l1 + 6,
        "8-flit packet should serialize ~7 cycles longer: {l1} vs {l8}"
    );
}

#[test]
fn wormhole_keeps_packets_contiguous_under_contention() {
    // Two far inputs stream multi-flit packets through the same column;
    // the depacketizer errors on any interleaving, so completion = proof.
    let s0: Vec<Value> = (0..4).map(|i| pkt(i, 0, 7, 4)).collect();
    let s2: Vec<Value> = (0..4).map(|i| pkt(100 + i, 2, 7, 4)).collect();
    let (mut sim, handles) = flit_mesh(3, 3, vec![s0, vec![], s2]);
    sim.run(400).unwrap();
    let got = handles[7].values();
    assert_eq!(got.len(), 8, "all packets delivered exactly once");
    let mut ids: Vec<u64> = got
        .iter()
        .map(|v| Packet::from_value(v).unwrap().id)
        .collect();
    // Per-source order is preserved (wormhole + FIFO buffers).
    let from0: Vec<u64> = ids.iter().copied().filter(|&i| i < 100).collect();
    let from2: Vec<u64> = ids.iter().copied().filter(|&i| i >= 100).collect();
    assert_eq!(from0, vec![0, 1, 2, 3]);
    assert_eq!(from2, vec![100, 101, 102, 103]);
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2, 3, 100, 101, 102, 103]);
}

#[test]
fn flit_mesh_carries_random_traffic() {
    let mut b = NetlistBuilder::new();
    let fabric = build_flit_grid(&mut b, "n.", 3, 3, 4).unwrap();
    let mut gens = Vec::new();
    let mut sinks = Vec::new();
    for id in 0..fabric.nodes {
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: fabric.nodes,
            width: 3,
            my: id,
            rate: 0.03,
            pattern: Pattern::Uniform,
            flits: 4,
            seed: 17,
            ..TrafficCfg::default()
        });
        let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(g, "out", ti, tp).unwrap();
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
        gens.push(g);
        sinks.push(k);
    }
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(800).unwrap();
    let injected: u64 = gens
        .iter()
        .map(|&g| sim.stats().counter(g, "injected"))
        .sum();
    let received: u64 = sinks
        .iter()
        .map(|&k| sim.stats().counter(k, "received"))
        .sum();
    assert!(injected > 40, "injected {injected}");
    assert!(
        received as f64 >= injected as f64 * 0.8,
        "{received}/{injected}"
    );
    // Flit-level latency includes serialization: strictly above the
    // packet-level fabric's minimum.
    let lat = sim.stats().sample_total("latency").unwrap().mean();
    assert!(lat > 6.0, "flit latency {lat}");
}

#[test]
fn schedulers_agree_on_flit_fabric() {
    let run = |sched| {
        let mut b = NetlistBuilder::new();
        let fabric = build_flit_grid(&mut b, "n.", 2, 2, 4).unwrap();
        for id in 0..4u32 {
            let script: Vec<Value> = (0..3)
                .map(|k| pkt(u64::from(id) * 10 + k, id, (id + 1) % 4, 3))
                .collect();
            let (s_spec, s_mod) = source::script(script);
            let s = b.add(format!("src{id}"), s_spec, s_mod).unwrap();
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(s, "out", ti, tp).unwrap();
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, k, "in").unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap(), sched);
        sim.run(200).unwrap();
        (
            sim.stats().counter_total("received"),
            sim.stats().sample_total("latency").map(|s| s.sum),
        )
    };
    assert_eq!(run(SchedKind::Sweep), run(SchedKind::Compiled));
}
