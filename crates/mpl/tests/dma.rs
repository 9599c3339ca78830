//! DMA-over-fabric tests: message passing between nodes of a mesh
//! (the substrate of the paper's grids-in-a-box, Fig. 2c).

use liberty_ccl::topology::build_grid;
use liberty_core::prelude::*;
use liberty_mpl::dma::{dma, DmaCmd};
use liberty_pcl::memarray::{mem_array_shared, SharedMem};
use liberty_pcl::{sink, source};

/// Build a w x h mesh where each node has a local memory and a DMA
/// engine; node `i`'s DMA is driven by `cmds[i]`.
fn build_cluster(
    w: u32,
    h: u32,
    cmds: Vec<Vec<DmaCmd>>,
) -> (
    Simulator,
    Vec<SharedMem>,
    Vec<InstanceId>,
    Vec<sink::Collected>,
) {
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "net.", w, h, 4, 1, false).unwrap();
    let mut mems = Vec::new();
    let mut dmas = Vec::new();
    let mut dones = Vec::new();
    for id in 0..fabric.nodes {
        let (m_spec, m_mod, mem) =
            mem_array_shared(&Params::new().with("words", 512i64).with("latency", 2i64)).unwrap();
        let m = b.add(format!("mem{id}"), m_spec, m_mod).unwrap();
        let (d_spec, d_mod) = dma(id);
        let d = b.add(format!("dma{id}"), d_spec, d_mod).unwrap();
        b.connect(d, "mem_req", m, "req").unwrap();
        b.connect(m, "resp", d, "mem_resp").unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(d, "net_tx", ti, tp).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, d, "net_rx").unwrap();
        let script: Vec<Value> = cmds
            .get(id as usize)
            .map(|c| c.iter().map(|x| x.into_value()).collect())
            .unwrap_or_default();
        let (s_spec, s_mod) = source::script(script);
        let s = b.add(format!("host{id}"), s_spec, s_mod).unwrap();
        b.connect(s, "out", d, "cmd").unwrap();
        let (k_spec, k_mod, hdl) = sink::collecting();
        let k = b.add(format!("done{id}"), k_spec, k_mod).unwrap();
        b.connect(d, "done", k, "in").unwrap();
        mems.push(mem);
        dmas.push(d);
        dones.push(hdl);
    }
    (
        Simulator::new(b.build().unwrap(), SchedKind::Compiled),
        mems,
        dmas,
        dones,
    )
}

#[test]
fn one_way_transfer_moves_region() {
    let cmds = vec![vec![DmaCmd {
        src_addr: 0,
        len: 20,
        dst_node: 1,
        dst_addr: 100,
        tag: 77,
    }]];
    let (mut sim, mems, dmas, dones) = build_cluster(2, 1, cmds);
    for i in 0..20u64 {
        mems[0].lock()[i as usize] = 3 * i + 1;
    }
    sim.run(300).unwrap();
    let dst = mems[1].lock();
    for i in 0..20usize {
        assert_eq!(dst[100 + i], 3 * i as u64 + 1, "word {i}");
    }
    assert_eq!(sim.stats().counter(dmas[0], "commands_done"), 1);
    // Completion notice carried the tag.
    assert_eq!(dones[0].values()[0].as_word(), Some(77));
    // 20 words at 8 words/chunk = 3 packets.
    assert_eq!(sim.stats().counter(dmas[0], "packets_sent"), 3);
    assert_eq!(sim.stats().counter(dmas[1], "packets_received"), 3);
    assert_eq!(sim.stats().counter(dmas[1], "rx_words_written"), 20);
}

#[test]
fn bidirectional_exchange() {
    let cmds = vec![
        vec![DmaCmd {
            src_addr: 0,
            len: 16,
            dst_node: 3,
            dst_addr: 200,
            tag: 1,
        }],
        vec![],
        vec![],
        vec![DmaCmd {
            src_addr: 0,
            len: 16,
            dst_node: 0,
            dst_addr: 200,
            tag: 2,
        }],
    ];
    let (mut sim, mems, dmas, _) = build_cluster(2, 2, cmds);
    for i in 0..16u64 {
        mems[0].lock()[i as usize] = 1000 + i;
        mems[3].lock()[i as usize] = 2000 + i;
    }
    sim.run(400).unwrap();
    for i in 0..16usize {
        assert_eq!(mems[3].lock()[200 + i], 1000 + i as u64);
        assert_eq!(mems[0].lock()[200 + i], 2000 + i as u64);
    }
    assert_eq!(sim.stats().counter(dmas[0], "commands_done"), 1);
    assert_eq!(sim.stats().counter(dmas[3], "commands_done"), 1);
}

#[test]
fn sequential_commands_complete_in_order() {
    let cmds = vec![vec![
        DmaCmd {
            src_addr: 0,
            len: 4,
            dst_node: 1,
            dst_addr: 50,
            tag: 10,
        },
        DmaCmd {
            src_addr: 4,
            len: 4,
            dst_node: 1,
            dst_addr: 60,
            tag: 11,
        },
    ]];
    let (mut sim, mems, _, dones) = build_cluster(2, 1, cmds);
    for i in 0..8u64 {
        mems[0].lock()[i as usize] = 7 + i;
    }
    sim.run(300).unwrap();
    let tags: Vec<u64> = dones[0]
        .values()
        .iter()
        .filter_map(Value::as_word)
        .collect();
    assert_eq!(tags, vec![10, 11]);
    let dst = mems[1].lock();
    for i in 0..4usize {
        assert_eq!(dst[50 + i], 7 + i as u64);
        assert_eq!(dst[60 + i], 11 + i as u64);
    }
}

#[test]
fn zero_length_command_completes_immediately() {
    let cmds = vec![vec![DmaCmd {
        src_addr: 0,
        len: 0,
        dst_node: 1,
        dst_addr: 0,
        tag: 5,
    }]];
    let (mut sim, _, dmas, dones) = build_cluster(2, 1, cmds);
    sim.run(50).unwrap();
    assert_eq!(sim.stats().counter(dmas[0], "commands_done"), 1);
    assert_eq!(sim.stats().counter(dmas[0], "packets_sent"), 0);
    assert_eq!(dones[0].values()[0].as_word(), Some(5));
}
