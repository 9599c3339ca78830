//! Cache-stacking composability: because every level speaks the same
//! MemReq/MemResp contract, an L2 drops between the L1 and DRAM without
//! touching either — "it becomes difficult to refine a coarse model ...
//! by replacing high-level models with more detailed ones" is exactly the
//! problem the contract solves (paper §2.1).

use liberty_core::prelude::*;
use liberty_pcl::memarray::{mem_array, MemReq, MemResp};
use liberty_pcl::{sink, source};
use liberty_upl::cache::cache;

/// requests -> L1 [-> L2] -> DRAM; returns responses plus hit counters.
fn run_hierarchy(
    levels: usize,
    script: Vec<Value>,
    cycles: u64,
) -> (Vec<MemResp>, Vec<(u64, u64)>) {
    let mut b = NetlistBuilder::new();
    let (s_spec, s_mod) = source::script(script);
    let s = b.add("cpu", s_spec, s_mod).unwrap();
    let mut cache_ids = Vec::new();
    let mut up: (InstanceId, &str, &str) = (s, "out", ""); // (inst, req port, resp port)
    for l in 0..levels {
        // L1 small, L2 larger: the classic inclusive-capacity shape.
        let (c_spec, c_mod) = cache(
            &Params::new()
                .with("sets", if l == 0 { 2i64 } else { 16 })
                .with("ways", 2i64)
                .with("line_words", 4i64),
        )
        .unwrap();
        let c = b.add(format!("l{}", l + 1), c_spec, c_mod).unwrap();
        b.connect(up.0, up.1, c, "req").unwrap();
        if l == 0 {
            // CPU-side response consumer is attached after the loop.
        } else {
            b.connect(c, "resp", up.0, "mresp").unwrap();
        }
        cache_ids.push(c);
        up = (c, "mreq", "mresp");
    }
    let (m_spec, m_mod) =
        mem_array(&Params::new().with("words", 512i64).with("latency", 8i64)).unwrap();
    let m = b.add("dram", m_spec, m_mod).unwrap();
    b.connect(up.0, "mreq", m, "req").unwrap();
    b.connect(m, "resp", up.0, "mresp").unwrap();
    let (k_spec, k_mod, h) = sink::collecting();
    let k = b.add("resp", k_spec, k_mod).unwrap();
    b.connect(cache_ids[0], "resp", k, "in").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(cycles).unwrap();
    let resps = h
        .values()
        .iter()
        .filter_map(|v| v.downcast_ref::<MemResp>().cloned())
        .collect();
    let counters = cache_ids
        .iter()
        .map(|&c| {
            (
                sim.stats().counter(c, "read_hits"),
                sim.stats().counter(c, "read_misses"),
            )
        })
        .collect();
    (resps, counters)
}

#[test]
fn l2_drops_in_without_touching_l1_or_dram() {
    // A working set that thrashes the tiny L1 (2 sets) but fits the L2:
    // 8 lines mapping across 2 sets.
    let script: Vec<Value> = (0..3)
        .flat_map(|round| (0..8).map(move |i| MemReq::read(i * 8, round * 100 + i)))
        .collect();
    let (r1, c1) = run_hierarchy(1, script.clone(), 4000);
    let (r2, c2) = run_hierarchy(2, script.clone(), 4000);
    assert_eq!(r1.len(), 24);
    assert_eq!(r2.len(), 24);
    // Same values either way (all zeros: fresh memory) and same tags in
    // the same order — the hierarchy change is architecturally invisible.
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a, b);
    }
    // The L1 thrashes in both configurations...
    assert!(c1[0].1 >= 16, "L1 misses: {:?}", c1);
    assert_eq!(c1[0], c2[0], "L1 behaviour unchanged by inserting L2");
    // ...but the L2 catches the repeats: its misses are only the 8 cold
    // lines, everything after hits.
    assert_eq!(c2[1].1, 8, "L2 cold misses: {:?}", c2);
    assert!(c2[1].0 >= 16, "L2 hits: {:?}", c2);
}

#[test]
fn writes_propagate_through_both_levels() {
    let script = vec![
        MemReq::write(3, 77, 0),
        MemReq::read(3, 1),
        MemReq::read(3, 2),
    ];
    let (r2, _) = run_hierarchy(2, script, 2000);
    assert_eq!(r2.len(), 3);
    assert_eq!(r2[1].data, 77);
    assert_eq!(r2[2].data, 77);
}
