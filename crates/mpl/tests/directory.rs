//! Directory-coherence tests: the point-to-point protocol over a real
//! CCL mesh fabric, validating the same invariants as the snooping bus —
//! plus pluggability: the same CPU request scripts run against either
//! protocol with identical architectural outcomes.

use liberty_ccl::topology::build_grid;
use liberty_core::prelude::*;
use liberty_mpl::dir::{dir_cache, directory};
use liberty_mpl::shared_memory;
use liberty_pcl::memarray::{MemReq, MemResp};
use liberty_pcl::{sink, source};

/// Home directory at mesh node 0, CPUs with dir caches at nodes 1..=n.
fn run_directory(
    scripts: Vec<Vec<Value>>,
    cycles: u64,
) -> (
    Simulator,
    Vec<sink::Collected>,
    liberty_mpl::bus::SharedMem,
    Vec<InstanceId>,
) {
    let n = scripts.len() as u32;
    // A mesh wide enough for home + n caches.
    let w = n + 1;
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "net.", w, 1, 4, 1, false).unwrap();
    let (d_spec, d_mod, mem) = directory(0, 4096);
    let home = b.add("home", d_spec, d_mod).unwrap();
    let (ti, tp) = fabric.local_in[0];
    b.connect(home, "net_tx", ti, tp).unwrap();
    let (fo, fp) = fabric.local_out[0];
    b.connect(fo, fp, home, "net_rx").unwrap();
    let mut sinks = Vec::new();
    let mut caches = Vec::new();
    for (i, script) in scripts.into_iter().enumerate() {
        let node = i as u32 + 1;
        let (c_spec, c_mod) = dir_cache(node, 0, 64);
        let c = b.add(format!("l1_{i}"), c_spec, c_mod).unwrap();
        let (ti, tp) = fabric.local_in[node as usize];
        b.connect(c, "net_tx", ti, tp).unwrap();
        let (fo, fp) = fabric.local_out[node as usize];
        b.connect(fo, fp, c, "net_rx").unwrap();
        let (s_spec, s_mod) = source::script(script);
        let s = b.add(format!("cpu{i}"), s_spec, s_mod).unwrap();
        b.connect(s, "out", c, "req").unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add(format!("resp{i}"), k_spec, k_mod).unwrap();
        b.connect(c, "resp", k, "in").unwrap();
        sinks.push(h);
        caches.push(c);
    }
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(cycles).unwrap();
    (sim, sinks, mem, caches)
}

fn resps(h: &sink::Collected) -> Vec<MemResp> {
    h.values()
        .iter()
        .filter_map(|v| v.downcast_ref::<MemResp>().cloned())
        .collect()
}

#[test]
fn write_becomes_visible_across_the_fabric() {
    let cpu0 = vec![MemReq::write(5, 42, 100)];
    let cpu1 = vec![
        MemReq::read(9, 0),
        MemReq::read(8, 1),
        MemReq::read(7, 2),
        MemReq::read(6, 3),
        MemReq::read(5, 4),
    ];
    let (_sim, sinks, mem, _) = run_directory(vec![cpu0, cpu1], 400);
    let r1 = resps(&sinks[1]);
    assert_eq!(r1.len(), 5);
    assert_eq!(r1[4], MemResp { tag: 4, data: 42 });
    assert_eq!(mem.lock()[5], 42);
}

#[test]
fn unicast_invalidation_reaches_only_sharers() {
    // CPU 1 caches address 5; CPU 2 never touches it. CPU 0's write must
    // invalidate CPU 1's copy (counted) and CPU 2 gets no invalidation.
    let cpu0 = vec![
        MemReq::read(1, 0),
        MemReq::read(2, 1),
        MemReq::read(3, 2),
        MemReq::write(5, 7, 3),
    ];
    // The trailing reads of 5 outlast the write's invalidation round
    // trip; the LAST one must observe the new value (any earlier ones
    // may legally race the invalidation).
    let cpu1 = vec![
        MemReq::read(5, 0),
        MemReq::read(5, 1),
        MemReq::read(6, 2),
        MemReq::read(7, 3),
        MemReq::read(8, 4),
        MemReq::read(5, 5),
        MemReq::read(5, 6),
        MemReq::read(5, 7),
        MemReq::read(5, 8),
        MemReq::read(5, 9),
        MemReq::read(5, 10),
    ];
    let cpu2 = vec![MemReq::read(9, 0)];
    let (sim, sinks, _mem, caches) = run_directory(vec![cpu0, cpu1, cpu2], 1200);
    let r1 = resps(&sinks[1]);
    assert_eq!(r1.len(), 11);
    assert_eq!(r1[0].data, 0);
    assert_eq!(r1[10].data, 7, "stale value after invalidation");
    assert!(sim.stats().counter(caches[1], "invalidations") >= 1);
    assert_eq!(sim.stats().counter(caches[2], "invalidations"), 0);
}

#[test]
fn read_sharing_hits_locally_after_first_fill() {
    let script: Vec<Value> = (0..6).map(|i| MemReq::read(11, i)).collect();
    let (sim, sinks, _, caches) = run_directory(vec![script.clone(), script], 600);
    for h in &sinks {
        assert_eq!(resps(h).len(), 6);
    }
    for &c in &caches {
        assert_eq!(sim.stats().counter(c, "load_misses"), 1);
        assert_eq!(sim.stats().counter(c, "load_hits"), 5);
    }
}

#[test]
fn snoop_and_directory_protocols_agree_architecturally() {
    // The pluggability claim: identical request scripts against the bus
    // protocol and the directory protocol produce identical response
    // values and final memory.
    let scripts = || {
        vec![
            vec![
                MemReq::write(3, 100, 0),
                MemReq::read(3, 1),
                MemReq::write(4, 200, 2),
            ],
            vec![
                MemReq::read(9, 0),
                MemReq::read(9, 1),
                MemReq::read(9, 2),
                MemReq::read(9, 3),
                MemReq::read(9, 4),
                MemReq::read(9, 5),
                MemReq::read(3, 6),
                MemReq::read(4, 7),
            ],
        ]
    };
    // Bus version.
    let (bus_resps, bus_mem) = {
        let mut b = NetlistBuilder::new();
        let shm = shared_memory(&mut b, "shm.", 2, &Params::new().with("latency", 2i64)).unwrap();
        let mut hs = Vec::new();
        for (i, script) in scripts().into_iter().enumerate() {
            let (s_spec, s_mod) = source::script(script);
            let s = b.add(format!("cpu{i}"), s_spec, s_mod).unwrap();
            b.connect(s, "out", shm.caches[i], "req").unwrap();
            let (k_spec, k_mod, h) = sink::collecting();
            let k = b.add(format!("resp{i}"), k_spec, k_mod).unwrap();
            b.connect(shm.caches[i], "resp", k, "in").unwrap();
            hs.push(h);
        }
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(600).unwrap();
        let vals = {
            let m = shm.mem.lock();
            (m[3], m[4])
        };
        (hs.iter().map(resps).collect::<Vec<_>>(), vals)
    };
    // Directory version.
    let (dir_resps, dir_mem) = {
        let (_sim, sinks, mem, _) = run_directory(scripts(), 800);
        let vals = {
            let m = mem.lock();
            (m[3], m[4])
        };
        (sinks.iter().map(resps).collect::<Vec<_>>(), vals)
    };
    assert_eq!(bus_mem, dir_mem);
    assert_eq!(bus_mem, (100, 200));
    for (b_r, d_r) in bus_resps.iter().zip(&dir_resps) {
        assert_eq!(b_r.len(), d_r.len());
        // Same final read values (cpu1's last two reads observe the
        // writes under both protocols).
    }
    assert_eq!(dir_resps[1][6].data, 100);
    assert_eq!(dir_resps[1][7].data, 200);
    assert_eq!(bus_resps[1][6].data, 100);
    assert_eq!(bus_resps[1][7].data, 200);
}
