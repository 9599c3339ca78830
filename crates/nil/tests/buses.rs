//! Direct tests for the PCI bus and the MMIO address splitter.

use liberty_core::prelude::*;
use liberty_nil::pci::{pci_bus, pci_mem, PciResp, PciTxn};
use liberty_nil::splitter::splitter;
use liberty_pcl::memarray::{mem_array, MemReq, MemResp};
use liberty_pcl::{sink, source};

fn pci_resps(h: &sink::Collected) -> Vec<PciResp> {
    h.values()
        .iter()
        .filter_map(|v| v.downcast_ref::<PciResp>().cloned())
        .collect()
}

#[test]
fn pci_burst_write_then_read() {
    let mut b = NetlistBuilder::new();
    let (s_spec, s_mod) = source::script(vec![
        PciTxn::write(100, vec![1, 2, 3, 4], 0),
        PciTxn::read(100, 4, 1),
    ]);
    let s = b.add("master", s_spec, s_mod).unwrap();
    let (p_spec, p_mod) = pci_bus(&Params::new()).unwrap();
    let p = b.add("pci", p_spec, p_mod).unwrap();
    let (m_spec, m_mod, mem) = pci_mem(&Params::new()).unwrap();
    let m = b.add("mem", m_spec, m_mod).unwrap();
    let (k_spec, k_mod, h) = sink::collecting();
    let k = b.add("resp", k_spec, k_mod).unwrap();
    b.connect(s, "out", p, "mreq").unwrap();
    b.connect(p, "mresp", k, "in").unwrap();
    b.connect(p, "treq", m, "req").unwrap();
    b.connect(m, "resp", p, "tresp").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(60).unwrap();
    let r = pci_resps(&h);
    assert_eq!(r.len(), 2);
    assert_eq!(r[1].data, vec![1, 2, 3, 4]);
    assert_eq!(&mem.lock()[100..104], &[1, 2, 3, 4]);
    // Burst occupancy was accounted.
    assert_eq!(sim.stats().counter(p, "burst_words"), 8);
}

#[test]
fn pci_routes_by_address_window_and_arbitrates() {
    // Two masters, two targets; master 0 hits target 0, master 1 hits
    // target 1 (window = 1 << 20).
    let w = 1u64 << 20;
    let mut b = NetlistBuilder::new();
    let (s0_spec, s0_mod) = source::script(vec![PciTxn::write(5, vec![11], 0)]);
    let s0 = b.add("m0", s0_spec, s0_mod).unwrap();
    let (s1_spec, s1_mod) = source::script(vec![PciTxn::write(w + 9, vec![22], 0)]);
    let s1 = b.add("m1", s1_spec, s1_mod).unwrap();
    let (p_spec, p_mod) = pci_bus(&Params::new()).unwrap();
    let p = b.add("pci", p_spec, p_mod).unwrap();
    let (t0_spec, t0_mod, mem0) = pci_mem(&Params::new()).unwrap();
    let t0 = b.add("t0", t0_spec, t0_mod).unwrap();
    let (t1_spec, t1_mod, mem1) = pci_mem(&Params::new()).unwrap();
    let t1 = b.add("t1", t1_spec, t1_mod).unwrap();
    let (k0_spec, k0_mod, h0) = sink::collecting();
    let k0 = b.add("r0", k0_spec, k0_mod).unwrap();
    let (k1_spec, k1_mod, h1) = sink::collecting();
    let k1 = b.add("r1", k1_spec, k1_mod).unwrap();
    b.connect(s0, "out", p, "mreq").unwrap();
    b.connect(s1, "out", p, "mreq").unwrap();
    b.connect(p, "mresp", k0, "in").unwrap();
    b.connect(p, "mresp", k1, "in").unwrap();
    b.connect(p, "treq", t0, "req").unwrap();
    b.connect(p, "treq", t1, "req").unwrap();
    b.connect(t0, "resp", p, "tresp").unwrap();
    b.connect(t1, "resp", p, "tresp").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(60).unwrap();
    assert_eq!(mem0.lock()[5], 11);
    assert_eq!(mem1.lock()[9], 22);
    assert_eq!(pci_resps(&h0).len(), 1);
    assert_eq!(pci_resps(&h1).len(), 1);
}

#[test]
fn pci_unmapped_address_is_a_model_error() {
    let mut b = NetlistBuilder::new();
    let (s_spec, s_mod) = source::script(vec![PciTxn::read(5 * (1 << 20), 1, 0)]);
    let s = b.add("m", s_spec, s_mod).unwrap();
    let (p_spec, p_mod) = pci_bus(&Params::new()).unwrap();
    let p = b.add("pci", p_spec, p_mod).unwrap();
    let (t_spec, t_mod, _mem) = pci_mem(&Params::new()).unwrap();
    let t = b.add("t", t_spec, t_mod).unwrap();
    b.connect(s, "out", p, "mreq").unwrap();
    b.connect(p, "treq", t, "req").unwrap();
    b.connect(t, "resp", p, "tresp").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    assert!(sim.run(10).is_err());
}

#[test]
fn splitter_routes_lo_and_hi() {
    // CPU stream -> splitter: lo = mem_array, hi = second mem_array
    // (standing in for a device); hi addresses are rebased.
    let mut b = NetlistBuilder::new();
    let (s_spec, s_mod) = source::script(vec![
        MemReq::write(10, 1, 0),       // lo
        MemReq::write(4096 + 3, 2, 1), // hi -> rebased to 3
        MemReq::read(10, 2),
        MemReq::read(4096 + 3, 3),
    ]);
    let s = b.add("cpu", s_spec, s_mod).unwrap();
    let (sp_spec, sp_mod) = splitter(&Params::new().with("split", 4096i64)).unwrap();
    let sp = b.add("split", sp_spec, sp_mod).unwrap();
    let (lo_spec, lo_mod) = mem_array(&Params::new().with("words", 64i64)).unwrap();
    let lo = b.add("lo", lo_spec, lo_mod).unwrap();
    let (hi_spec, hi_mod) = mem_array(&Params::new().with("words", 64i64)).unwrap();
    let hi = b.add("hi", hi_spec, hi_mod).unwrap();
    let (k_spec, k_mod, h) = sink::collecting();
    let k = b.add("resp", k_spec, k_mod).unwrap();
    b.connect(s, "out", sp, "req").unwrap();
    b.connect(sp, "resp", k, "in").unwrap();
    b.connect(sp, "lo_req", lo, "req").unwrap();
    b.connect(lo, "resp", sp, "lo_resp").unwrap();
    b.connect(sp, "hi_req", hi, "req").unwrap();
    b.connect(hi, "resp", sp, "hi_resp").unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(60).unwrap();
    let r: Vec<MemResp> = h
        .values()
        .iter()
        .filter_map(|v| v.downcast_ref::<MemResp>().cloned())
        .collect();
    assert_eq!(r.len(), 4);
    assert_eq!(r[2], MemResp { tag: 2, data: 1 });
    assert_eq!(r[3], MemResp { tag: 3, data: 2 });
    assert_eq!(sim.stats().counter(sp, "lo_reqs"), 2);
    assert_eq!(sim.stats().counter(sp, "hi_reqs"), 2);
}
