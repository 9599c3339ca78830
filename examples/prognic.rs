//! The programmable NIC end to end (paper §3.5): real LIR firmware,
//! assembled by the UPL assembler, runs on a structural UPL core inside
//! the NIC. Frames arrive over the Ethernet model, the MAC assist lands
//! them in NIC SRAM, the firmware checksums each payload and programs the
//! host-DMA assist, and payloads appear in host memory across the PCI
//! model. A frame tap on the wire captures the I/O trace.
//!
//! ```text
//! cargo run -p liberty-examples --bin prognic --release
//! ```

use liberty_core::prelude::*;
use liberty_nil::eth::{ether, EthFrame};
use liberty_nil::firmware::{self, HOST_RING, HOST_SLOT};
use liberty_nil::nicdev::Words;
use liberty_nil::pci::{pci_bus, pci_mem};
use liberty_nil::prognic::build_prognic;
use liberty_nil::tap::frame_tap;
use liberty_pcl::{sink, source};
use std::sync::Arc;

fn frame(id: u64, words: Vec<u64>) -> Value {
    EthFrame {
        src: 0,
        dst: 1,
        len_bytes: (words.len() * 8) as u32,
        id,
        created: 0,
        payload: Some(Value::wrap(Words(words))),
    }
    .into_value()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = liberty_examples::ObsOpts::parse_env()?;
    let mut b = NetlistBuilder::new();
    let (e_spec, e_mod) = ether(&Params::new())?;
    let eth = b.add("eth", e_spec, e_mod)?;

    // The peer host sending frames, with a capture tap on its uplink.
    let payloads: Vec<Vec<u64>> = vec![vec![10, 20, 30], vec![4, 5, 6, 7], vec![1000], vec![9; 6]];
    let script: Vec<Value> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| frame(i as u64, p.clone()))
        .collect();
    let (p_spec, p_mod) = source::script(script);
    let peer = b.add("peer", p_spec, p_mod)?;
    let (t_spec, t_mod, trace) = frame_tap();
    let tap = b.add("tap", t_spec, t_mod)?;
    b.connect(peer, "out", tap, "in")?;
    b.connect(tap, "out", eth, "tx")?;
    let (pk_spec, pk_mod, _h) = sink::collecting();
    let peer_rx = b.add("peer_rx", pk_spec, pk_mod)?;
    b.connect(eth, "rx", peer_rx, "in")?;

    // PCI: the NIC is a master; host memory is target 0.
    let (bus_spec, bus_mod) = pci_bus(&Params::new())?;
    let pci = b.add("pci", bus_spec, bus_mod)?;
    let (hm_spec, hm_mod, host_mem) = pci_mem(&Params::new())?;
    let hm = b.add("hostmem", hm_spec, hm_mod)?;

    // The NIC itself, running store-and-forward firmware.
    let nic = build_prognic(&mut b, "nic.", 1, Arc::new(firmware::store_and_forward()))?;
    b.connect(nic.eth_tx.0, nic.eth_tx.1, eth, "tx")?;
    b.connect(eth, "rx", nic.eth_rx.0, nic.eth_rx.1)?;
    b.connect(nic.pci_req.0, nic.pci_req.1, pci, "mreq")?;
    b.connect(pci, "mresp", nic.pci_resp.0, nic.pci_resp.1)?;
    b.connect(pci, "treq", hm, "req")?;
    b.connect(hm, "resp", pci, "tresp")?;

    let mut sim = Simulator::new(b.build()?, SchedKind::Compiled);
    let obs = opts.install(&mut sim)?;
    let n = payloads.len() as u64;
    let dev = nic.dev;
    let run = opts.run_until(&mut sim, 60_000, |st| {
        st.counter(dev, "dmas_completed") >= n
    })?;
    if run.stopped_early() {
        println!(
            "run stopped early ({}); skipping checks",
            run.outcome.label()
        );
        obs.finish(&mut sim)?;
        return Ok(());
    }
    let cycles = run.steps_completed;

    println!("programmable NIC serviced {n} frames in {cycles} cycles\n");
    println!(
        "firmware instructions retired: {}",
        sim.stats().counter(nic.core.ids.decode, "retired")
    );
    println!("PCI bursts: {}", sim.stats().counter(pci, "grants"));
    println!("captured trace entries: {}\n", trace.lock().len());
    let host = host_mem.lock();
    for (k, p) in payloads.iter().enumerate() {
        let base = (HOST_RING + k as u64 * HOST_SLOT) as usize;
        let got = &host[base..base + p.len()];
        let sum: u64 = p.iter().sum();
        println!("frame {k}: host ring slot {base} = {got:?} (checksum {sum})");
        assert_eq!(got, &p[..], "payload mismatch");
    }
    println!("\nall payloads delivered to host memory; trace captured for replay");
    obs.finish(&mut sim)?;
    Ok(())
}
