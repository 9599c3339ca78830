//! End-to-end programmable-NIC tests: firmware running on a structural
//! LIR core services real frames from an Ethernet segment and delivers
//! payloads into host memory across the PCI bus — the paper's §3.5
//! system, built entirely from library components.

use liberty_core::prelude::*;
use liberty_nil::eth::{ether, EthFrame};
use liberty_nil::firmware::{self, HOST_RING, HOST_SLOT};
use liberty_nil::nicdev::Words;
use liberty_nil::pci::{pci_bus, pci_mem};
use liberty_nil::prognic::build_prognic;
use liberty_pcl::{sink, source};
use std::sync::Arc;

fn frame(id: u64, src: u64, dst: u64, words: Vec<u64>) -> Value {
    EthFrame {
        src,
        dst,
        len_bytes: (words.len() * 8) as u32,
        id,
        created: 0,
        payload: Some(Value::wrap(Words(words))),
    }
    .into_value()
}

#[test]
fn store_and_forward_firmware_delivers_frames_to_host() {
    let mut b = NetlistBuilder::new();
    // Wire: station 0 is the peer, station 1 is the NIC.
    let (e_spec, e_mod) = ether(&Params::new()).unwrap();
    let eth = b.add("eth", e_spec, e_mod).unwrap();
    let payloads = [vec![10, 20, 30], vec![7, 8, 9, 10], vec![99]];
    let script: Vec<Value> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| frame(i as u64, 0, 1, p.clone()))
        .collect();
    let (p_spec, p_mod) = source::script(script);
    let peer = b.add("peer", p_spec, p_mod).unwrap();
    let (k_spec, k_mod, _peer_rx) = sink::collecting();
    let peer_sink = b.add("peer_rx", k_spec, k_mod).unwrap();

    // Host: PCI bus with one target (host memory).
    let (bus_spec, bus_mod) = pci_bus(&Params::new()).unwrap();
    let pci = b.add("pci", bus_spec, bus_mod).unwrap();
    let (hm_spec, hm_mod, host_mem) = pci_mem(&Params::new()).unwrap();
    let hm = b.add("hostmem", hm_spec, hm_mod).unwrap();

    // The NIC.
    let nic = build_prognic(&mut b, "nic.", 1, Arc::new(firmware::store_and_forward())).unwrap();

    // Ethernet: tx conn 0 = peer, conn 1 = NIC (MACs = station index).
    b.connect(peer, "out", eth, "tx").unwrap();
    b.connect(nic.eth_tx.0, nic.eth_tx.1, eth, "tx").unwrap();
    b.connect(eth, "rx", peer_sink, "in").unwrap();
    b.connect(eth, "rx", nic.eth_rx.0, nic.eth_rx.1).unwrap();
    // PCI: NIC is master 0; host memory is target 0.
    b.connect(nic.pci_req.0, nic.pci_req.1, pci, "mreq")
        .unwrap();
    b.connect(pci, "mresp", nic.pci_resp.0, nic.pci_resp.1)
        .unwrap();
    b.connect(pci, "treq", hm, "req").unwrap();
    b.connect(hm, "resp", pci, "tresp").unwrap();

    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(12_000).unwrap();

    // Every frame's payload landed in its host ring slot.
    let host = host_mem.lock();
    for (k, p) in payloads.iter().enumerate() {
        let base = (HOST_RING + k as u64 * HOST_SLOT) as usize;
        for (i, w) in p.iter().enumerate() {
            assert_eq!(host[base + i], *w, "frame {k} word {i}");
        }
    }
    drop(host);
    let dev = nic.dev;
    assert_eq!(sim.stats().counter(dev, "frames_received"), 3);
    assert_eq!(sim.stats().counter(dev, "dmas_completed"), 3);
    // The firmware core really executed instructions.
    let retired = sim.stats().counter(nic.core.ids.decode, "retired");
    assert!(retired > 100, "firmware retired only {retired}");
    // PCI bus carried the three bursts.
    assert_eq!(sim.stats().counter(pci, "grants"), 3);
}

#[test]
fn echo_firmware_reflects_frames() {
    let mut b = NetlistBuilder::new();
    let (e_spec, e_mod) = ether(&Params::new()).unwrap();
    let eth = b.add("eth", e_spec, e_mod).unwrap();
    let (p_spec, p_mod) = source::script(vec![frame(0, 0, 1, vec![5, 6, 7])]);
    let peer = b.add("peer", p_spec, p_mod).unwrap();
    let (k_spec, k_mod, peer_rx) = sink::collecting();
    let peer_sink = b.add("peer_rx", k_spec, k_mod).unwrap();
    let nic = build_prognic(&mut b, "nic.", 1, Arc::new(firmware::echo())).unwrap();
    b.connect(peer, "out", eth, "tx").unwrap();
    b.connect(nic.eth_tx.0, nic.eth_tx.1, eth, "tx").unwrap();
    b.connect(eth, "rx", peer_sink, "in").unwrap();
    b.connect(eth, "rx", nic.eth_rx.0, nic.eth_rx.1).unwrap();
    let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
    sim.run(8_000).unwrap();
    let got = peer_rx.values();
    assert_eq!(got.len(), 1, "echo frame not received");
    let f = EthFrame::from_value(&got[0]).unwrap();
    assert_eq!(f.src, 1);
    assert_eq!(f.dst, 0);
    let words = f
        .payload
        .as_ref()
        .and_then(|p| p.downcast_ref::<Words>())
        .unwrap();
    assert_eq!(words.0, vec![5, 6, 7]);
}
