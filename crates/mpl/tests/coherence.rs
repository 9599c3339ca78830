//! Coherence correctness tests for the snooping shared memory, plus
//! ordering-controller behaviour and a linearizability-style property
//! test over random access interleavings.

use liberty_core::prelude::*;
use liberty_mpl::shared_memory;
use liberty_pcl::memarray::{MemReq, MemResp};
use liberty_pcl::{sink, source};
use proptest::prelude::*;

/// Drive each cache's CPU port from a scripted request stream; collect
/// responses per CPU.
fn run_scripts(
    scripts: Vec<Vec<Value>>,
    cycles: u64,
) -> (
    Simulator,
    Vec<sink::Collected>,
    liberty_pcl::memarray::SharedMem,
    Vec<InstanceId>,
) {
    let mut b = NetlistBuilder::new();
    let n = scripts.len() as u32;
    let shm = shared_memory(&mut b, "shm.", n, &Params::new().with("latency", 2i64)).unwrap();
    let mut sinks = Vec::new();
    for (i, script) in scripts.into_iter().enumerate() {
        let (s_spec, s_mod) = source::script(script);
        let s = b.add(format!("cpu{i}"), s_spec, s_mod).unwrap();
        b.connect(s, "out", shm.caches[i], "req").unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add(format!("resp{i}"), k_spec, k_mod).unwrap();
        b.connect(shm.caches[i], "resp", k, "in").unwrap();
        sinks.push(h);
    }
    let caches = shm.caches.clone();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(cycles).unwrap();
    (sim, sinks, shm.mem, caches)
}

fn resps(h: &sink::Collected) -> Vec<MemResp> {
    h.values()
        .iter()
        .filter_map(|v| v.downcast_ref::<MemResp>().cloned())
        .collect()
}

#[test]
fn write_becomes_visible_to_other_cpu() {
    // CPU 0 writes 42 to address 5; CPU 1 burns time on other addresses,
    // then reads 5.
    let cpu0 = vec![MemReq::write(5, 42, 100)];
    let cpu1 = vec![
        MemReq::read(9, 0),
        MemReq::read(8, 1),
        MemReq::read(7, 2),
        MemReq::read(5, 3),
    ];
    let (_sim, sinks, mem, _) = run_scripts(vec![cpu0, cpu1], 100);
    let r1 = resps(&sinks[1]);
    assert_eq!(r1.len(), 4);
    assert_eq!(r1[3], MemResp { tag: 3, data: 42 });
    assert_eq!(mem.lock()[5], 42);
}

#[test]
fn snooped_write_invalidates_cached_copy() {
    // CPU 1 caches address 5 (reads it twice: miss then hit), then CPU 0
    // overwrites it, then CPU 1 reads again and must see the new value.
    let cpu0 = vec![
        MemReq::read(1, 0), // burn bus turns so CPU 1 caches first
        MemReq::read(2, 1),
        MemReq::write(5, 7, 2),
    ];
    let cpu1 = vec![
        MemReq::read(5, 0),
        MemReq::read(5, 1),
        MemReq::read(3, 2),
        MemReq::read(3, 3),
        MemReq::read(3, 4),
        MemReq::read(5, 5),
    ];
    let (sim, sinks, _mem, caches) = run_scripts(vec![cpu0, cpu1], 200);
    let r1 = resps(&sinks[1]);
    assert_eq!(r1.len(), 6);
    assert_eq!(r1[0].data, 0); // before the write
    assert_eq!(r1[1].data, 0); // cached copy
    assert_eq!(r1[5].data, 7); // invalidated, refetched
    assert!(sim.stats().counter(caches[1], "invalidations") >= 1);
    assert!(sim.stats().counter(caches[1], "load_hits") >= 1);
}

#[test]
fn read_sharing_hits_locally() {
    // Both CPUs read the same address repeatedly: after the first miss
    // each, everything hits without bus traffic.
    let script: Vec<Value> = (0..5).map(|i| MemReq::read(11, i)).collect();
    let (sim, sinks, _, caches) = run_scripts(vec![script.clone(), script], 200);
    for h in &sinks {
        assert_eq!(resps(h).len(), 5);
    }
    for &c in &caches {
        assert_eq!(sim.stats().counter(c, "load_misses"), 1);
        assert_eq!(sim.stats().counter(c, "load_hits"), 4);
    }
}

#[test]
fn tso_store_buffer_forwards_and_drains() {
    // CPU -> order_ctl(tso) -> plain memory. The store is acknowledged
    // immediately, the following load of the same address forwards from
    // the buffer, and the store still reaches memory.
    let mut b = NetlistBuilder::new();
    let (s_spec, s_mod) = source::script(vec![
        MemReq::write(3, 9, 0),
        MemReq::read(3, 1),
        MemReq::read(4, 2),
    ]);
    let s = b.add("cpu", s_spec, s_mod).unwrap();
    let (o_spec, o_mod) =
        liberty_mpl::order::order_ctl(&Params::new().with("policy", "tso")).unwrap();
    let o = b.add("oc", o_spec, o_mod).unwrap();
    let (m_spec, m_mod, mem) = liberty_pcl::memarray::mem_array_shared(
        &Params::new().with("words", 64i64).with("latency", 5i64),
    )
    .unwrap();
    let m = b.add("mem", m_spec, m_mod).unwrap();
    let (k_spec, k_mod, h) = sink::collecting();
    let k = b.add("resp", k_spec, k_mod).unwrap();
    b.connect(s, "out", o, "cpu_req").unwrap();
    b.connect(o, "cpu_resp", k, "in").unwrap();
    b.connect(o, "mem_req", m, "req").unwrap();
    b.connect(m, "resp", o, "mem_resp").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(80).unwrap();
    let r = resps(&h);
    assert_eq!(r.len(), 3);
    assert_eq!(r[1].data, 9); // forwarded from the store buffer
    assert_eq!(mem.lock()[3], 9); // drained
    assert_eq!(sim.stats().counter(o, "forwarded_loads"), 1);
    assert_eq!(sim.stats().counter(o, "stores_drained"), 1);
}

#[test]
fn tso_is_faster_than_sc_on_store_bursts() {
    let script = |n: u64| -> Vec<Value> {
        (0..n)
            .map(|i| MemReq::write(i % 8, i, i))
            .chain(std::iter::once(MemReq::read(0, 999)))
            .collect()
    };
    let run = |policy: &str| -> u64 {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(script(6));
        let s = b.add("cpu", s_spec, s_mod).unwrap();
        let (o_spec, o_mod) =
            liberty_mpl::order::order_ctl(&Params::new().with("policy", policy)).unwrap();
        let o = b.add("oc", o_spec, o_mod).unwrap();
        let (m_spec, m_mod, _mem) = liberty_pcl::memarray::mem_array_shared(
            &Params::new().with("words", 64i64).with("latency", 6i64),
        )
        .unwrap();
        let m = b.add("mem", m_spec, m_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("resp", k_spec, k_mod).unwrap();
        b.connect(s, "out", o, "cpu_req").unwrap();
        b.connect(o, "cpu_resp", k, "in").unwrap();
        b.connect(o, "mem_req", m, "req").unwrap();
        b.connect(m, "resp", o, "mem_resp").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        // Cycles until all 7 responses observed.
        sim.run_until(2000, |_| h.len() >= 7).unwrap()
    };
    let sc = run("sc");
    let tso = run("tso");
    assert!(tso < sc, "tso {tso} !< sc {sc}");
}

#[test]
fn rc_coalesces_same_address_stores() {
    let mut b = NetlistBuilder::new();
    let (s_spec, s_mod) = source::script(vec![
        MemReq::write(3, 1, 0),
        MemReq::write(3, 2, 1),
        MemReq::write(3, 3, 2),
    ]);
    let s = b.add("cpu", s_spec, s_mod).unwrap();
    let (o_spec, o_mod) =
        liberty_mpl::order::order_ctl(&Params::new().with("policy", "rc").with("depth", 8i64))
            .unwrap();
    let o = b.add("oc", o_spec, o_mod).unwrap();
    let (m_spec, m_mod, mem) = liberty_pcl::memarray::mem_array_shared(
        &Params::new().with("words", 64i64).with("latency", 10i64),
    )
    .unwrap();
    let m = b.add("mem", m_spec, m_mod).unwrap();
    b.connect(s, "out", o, "cpu_req").unwrap();
    b.connect(o, "mem_req", m, "req").unwrap();
    b.connect(m, "resp", o, "mem_resp").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(100).unwrap();
    assert_eq!(mem.lock()[3], 3);
    assert!(sim.stats().counter(o, "stores_coalesced") >= 1);
}

// --- property test ---

#[derive(Clone, Debug)]
struct Op {
    write: bool,
    addr: u64,
    val: u64,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(
        prop::collection::vec(
            (any::<bool>(), 0u64..4, 1u64..1000).prop_map(|(write, addr, val)| Op {
                write,
                addr,
                val,
            }),
            0..8,
        ),
        2..4,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under arbitrary interleavings: every read returns a value some CPU
    /// wrote to that address (or the initial 0), and the final memory
    /// state of each address is one of its written values — the
    /// data-value invariant of the coherence protocol.
    #[test]
    fn coherence_data_value_invariant(op_streams in ops_strategy()) {
        // Make every written value unique and remember legal values.
        let mut legal: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        let mut scripts = Vec::new();
        let mut uid = 1u64;
        for (c, stream) in op_streams.iter().enumerate() {
            let mut script = Vec::new();
            for (i, op) in stream.iter().enumerate() {
                let tag = (c * 100 + i) as u64;
                if op.write {
                    let val = uid * 1000 + op.val;
                    uid += 1;
                    legal.entry(op.addr).or_default().push(val);
                    script.push(MemReq::write(op.addr, val, tag));
                } else {
                    script.push(MemReq::read(op.addr, tag));
                }
            }
            scripts.push(script);
        }
        let streams = op_streams.clone();
        let (_sim, sinks, mem, _) = run_scripts(scripts, 600);
        // All requests answered.
        for (c, stream) in streams.iter().enumerate() {
            let r = resps(&sinks[c]);
            prop_assert_eq!(r.len(), stream.len(), "cpu {} unanswered", c);
            for (i, op) in stream.iter().enumerate() {
                if !op.write {
                    let got = r[i].data;
                    let ok = got == 0
                        || legal.get(&op.addr).map(|v| v.contains(&got)).unwrap_or(false);
                    prop_assert!(ok, "cpu {} read {} from addr {}", c, got, op.addr);
                }
            }
        }
        let m = mem.lock();
        for (addr, vals) in &legal {
            let fin = m[*addr as usize];
            prop_assert!(
                fin == 0 || vals.contains(&fin),
                "final mem[{}] = {} not a written value", addr, fin
            );
        }
    }
}
