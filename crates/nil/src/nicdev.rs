//! The programmable-NIC device: memory-mapped registers plus MAC and DMA
//! hardware assists (the Tigon-2 abstraction of paper §3.5: "bringing up
//! a uniprocessor sufficient to run the desired firmware, adding support
//! for the various hardware assists and memory-mapped registers").
//!
//! A UPL LIR core (the NIC processor) reaches this device through an
//! address [`crate::splitter`]; the device shares the NIC SRAM with the
//! core (the SRAM is a PCL `mem_array` with two request connections) and
//! bridges to the host over PCI and to the wire over Ethernet.
//!
//! ## Register map (word offsets in the MMIO window)
//!
//! | off | name      | access | meaning |
//! |----:|-----------|--------|---------|
//! | 0   | RX_COUNT  | RO     | frames received so far |
//! | 1   | RX_ADDR   | RO     | SRAM address of oldest frame payload |
//! | 2   | RX_LEN    | RO     | its length in words |
//! | 3   | RX_SRC    | RO     | its source MAC |
//! | 4   | RX_POP    | WO     | pop the oldest descriptor |
//! | 5   | DMA_SRAM  | WO     | DMA source (SRAM address) |
//! | 6   | DMA_LEN   | WO     | DMA length (words) |
//! | 7   | DMA_HOST  | WO     | DMA destination (absolute PCI address) |
//! | 8   | DMA_GO    | WO     | start SRAM→host DMA |
//! | 9   | DMA_DONE  | RO     | completed DMAs |
//! | 10  | TX_SRAM   | WO     | transmit source (SRAM address) |
//! | 11  | TX_LEN    | WO     | transmit length (words) |
//! | 12  | TX_DST    | WO     | destination MAC |
//! | 13  | TX_GO     | WO     | transmit a frame from SRAM |
//! | 14  | TX_DONE   | RO     | transmitted frames |
//! | 15  | SCRATCH   | RW     | firmware scratch |

use crate::eth::EthFrame;
use crate::pci::{PciResp, PciTxn};
use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};
use std::collections::VecDeque;

const P_MMIO_REQ: PortId = PortId(0);
const P_MMIO_RESP: PortId = PortId(1);
const P_SRAM_REQ: PortId = PortId(2);
const P_SRAM_RESP: PortId = PortId(3);
const P_ETH_TX: PortId = PortId(4);
const P_ETH_RX: PortId = PortId(5);
const P_PCI_REQ: PortId = PortId(6);
const P_PCI_RESP: PortId = PortId(7);

/// Word-vector payload carried inside [`EthFrame`]s and DMA packets.
#[derive(Clone, Debug, PartialEq)]
pub struct Words(pub Vec<u64>);

/// Layout: `[n, words…]`, as [`WordSink::words`].
impl Payload for Words {
    const KIND: &'static str = "nil.Words";
    fn encode(&self, out: &mut dyn WordSink) {
        out.words(&self.0);
    }
}

#[derive(Clone, Copy, Debug)]
struct RxDesc {
    addr: u64,
    len: u64,
    src: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum SramUser {
    RxFill,
    DmaRead,
    TxRead,
}

enum DmaState {
    Idle,
    Reading {
        remaining: u64,
        next: u64,
        got: Vec<u64>,
        total: u64,
    },
    Writing,
}

enum TxState {
    Idle,
    Reading {
        remaining: u64,
        next: u64,
        got: Vec<u64>,
        total: u64,
    },
}

/// The NIC device module. Construct with [`nic_dev`].
pub struct NicDev {
    mac: u64,
    rx_base: u64,
    rx_size: u64,
    alloc: u64,
    rx_q: VecDeque<RxDesc>,
    /// Words of the arriving frame still to write, next SRAM address,
    /// plus the descriptor to publish when done.
    rx_fill: Option<(VecDeque<u64>, u64, RxDesc)>,
    sram_busy: Option<(SramUser, MemReq)>,
    dma: DmaState,
    dma_sram: u64,
    dma_len: u64,
    dma_host: u64,
    dma_done: u64,
    tx: TxState,
    tx_sram: u64,
    tx_len: u64,
    tx_dst: u64,
    tx_done: u64,
    scratch: u64,
    rx_count: u64,
    mmio_ready: Option<MemResp>,
    next_tag: u64,
}

impl NicDev {
    fn reg_read(&self, off: u64) -> u64 {
        match off {
            0 => self.rx_count,
            1 => self.rx_q.front().map(|d| d.addr).unwrap_or(0),
            2 => self.rx_q.front().map(|d| d.len).unwrap_or(0),
            3 => self.rx_q.front().map(|d| d.src).unwrap_or(0),
            9 => self.dma_done,
            14 => self.tx_done,
            15 => self.scratch,
            _ => 0,
        }
    }

    fn reg_write(&mut self, off: u64, v: u64) {
        match off {
            4 => {
                self.rx_q.pop_front();
            }
            5 => self.dma_sram = v,
            6 => self.dma_len = v,
            7 => self.dma_host = v,
            8 if matches!(self.dma, DmaState::Idle) && self.dma_len > 0 => {
                self.dma = DmaState::Reading {
                    remaining: self.dma_len,
                    next: self.dma_sram,
                    got: Vec::with_capacity(self.dma_len as usize),
                    total: self.dma_len,
                };
            }
            10 => self.tx_sram = v,
            11 => self.tx_len = v,
            12 => self.tx_dst = v,
            13 if matches!(self.tx, TxState::Idle) && self.tx_len > 0 => {
                self.tx = TxState::Reading {
                    remaining: self.tx_len,
                    next: self.tx_sram,
                    got: Vec::with_capacity(self.tx_len as usize),
                    total: self.tx_len,
                };
            }
            15 => self.scratch = v,
            _ => {}
        }
    }

    /// The next SRAM request wanted, by priority: rx fill > dma > tx.
    fn sram_want(&self) -> Option<(SramUser, MemReq)> {
        if let Some((words, next, _)) = &self.rx_fill {
            if let Some(w) = words.front() {
                return Some((
                    SramUser::RxFill,
                    MemReq {
                        write: true,
                        addr: *next,
                        data: *w,
                        tag: 0,
                    },
                ));
            }
        }
        if let DmaState::Reading {
            remaining, next, ..
        } = &self.dma
        {
            if *remaining > 0 {
                return Some((
                    SramUser::DmaRead,
                    MemReq {
                        write: false,
                        addr: *next,
                        data: 0,
                        tag: 1,
                    },
                ));
            }
        }
        if let TxState::Reading {
            remaining, next, ..
        } = &self.tx
        {
            if *remaining > 0 {
                return Some((
                    SramUser::TxRead,
                    MemReq {
                        write: false,
                        addr: *next,
                        data: 0,
                        tag: 2,
                    },
                ));
            }
        }
        None
    }
}

impl Module for NicDev {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        ctx.set_ack(P_SRAM_RESP, 0, true)?;
        ctx.set_ack(P_PCI_RESP, 0, true)?;
        // Accept frames while the fill engine and queue have room.
        ctx.set_ack(P_ETH_RX, 0, self.rx_fill.is_none() && self.rx_q.len() < 16)?;
        // MMIO.
        match &self.mmio_ready {
            Some(r) => ctx.send(P_MMIO_RESP, 0, Value::wrap(r.clone()))?,
            None => ctx.send_nothing(P_MMIO_RESP, 0)?,
        }
        ctx.set_ack(P_MMIO_REQ, 0, self.mmio_ready.is_none())?;
        // SRAM port.
        match (&self.sram_busy, self.sram_want()) {
            (None, Some((_, req))) => ctx.send(P_SRAM_REQ, 0, Value::wrap(req))?,
            _ => ctx.send_nothing(P_SRAM_REQ, 0)?,
        }
        // PCI master port: burst out once every word has been read.
        match &self.dma {
            DmaState::Reading {
                remaining: 0,
                got,
                total,
                ..
            } if got.len() as u64 == *total => {
                ctx.send(
                    P_PCI_REQ,
                    0,
                    PciTxn::write(self.dma_host, got.clone(), self.next_tag),
                )?;
            }
            _ => ctx.send_nothing(P_PCI_REQ, 0)?,
        }
        // Ethernet transmit: frame out once every word has been read.
        match &self.tx {
            TxState::Reading {
                remaining: 0,
                got,
                total,
                ..
            } if got.len() as u64 == *total => {
                let frame = EthFrame {
                    src: self.mac,
                    dst: self.tx_dst,
                    len_bytes: (got.len() * 8) as u32,
                    id: self.tx_done,
                    created: ctx.now(),
                    payload: Some(Value::wrap(Words(got.clone()))),
                };
                ctx.send(P_ETH_TX, 0, frame.into_value())?;
            }
            _ => ctx.send_nothing(P_ETH_TX, 0)?,
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_MMIO_RESP, 0) {
            self.mmio_ready = None;
        }
        // SRAM request issued.
        if ctx.transferred_out(P_SRAM_REQ, 0) {
            let (user, req) = self.sram_want().expect("offered means wanted");
            match user {
                SramUser::RxFill => {
                    let (words, next, _) = self.rx_fill.as_mut().expect("rx fill active");
                    words.pop_front();
                    *next += 1;
                }
                SramUser::DmaRead => {
                    if let DmaState::Reading {
                        remaining, next, ..
                    } = &mut self.dma
                    {
                        *remaining -= 1;
                        *next += 1;
                    }
                }
                SramUser::TxRead => {
                    if let TxState::Reading {
                        remaining, next, ..
                    } = &mut self.tx
                    {
                        *remaining -= 1;
                        *next += 1;
                    }
                }
            }
            self.sram_busy = Some((user, req));
        }
        // SRAM response.
        if let Some(v) = ctx.transferred_in(P_SRAM_RESP, 0) {
            let r = v.downcast_ref::<MemResp>().ok_or_else(|| {
                SimError::type_err(format!("nic_dev: expected MemResp, got {}", v.kind()))
            })?;
            let (user, _req) = self.sram_busy.take().ok_or_else(|| {
                SimError::model("nic_dev: SRAM response with nothing outstanding".to_owned())
            })?;
            match user {
                SramUser::RxFill => {
                    // Write confirmed; when all words written, publish.
                    if let Some((words, _, desc)) = &self.rx_fill {
                        if words.is_empty() {
                            self.rx_q.push_back(*desc);
                            self.rx_count += 1;
                            ctx.count("frames_received", 1);
                            self.rx_fill = None;
                        }
                    }
                }
                SramUser::DmaRead => {
                    if let DmaState::Reading { got, .. } = &mut self.dma {
                        got.push(r.data);
                    }
                }
                SramUser::TxRead => {
                    if let TxState::Reading { got, .. } = &mut self.tx {
                        got.push(r.data);
                    }
                }
            }
        }
        // PCI burst accepted -> wait for completion.
        if ctx.transferred_out(P_PCI_REQ, 0) {
            self.next_tag += 1;
            self.dma = DmaState::Writing;
        }
        if let Some(v) = ctx.transferred_in(P_PCI_RESP, 0) {
            v.downcast_ref::<PciResp>().ok_or_else(|| {
                SimError::type_err(format!("nic_dev: expected PciResp, got {}", v.kind()))
            })?;
            if matches!(self.dma, DmaState::Writing) {
                self.dma = DmaState::Idle;
                self.dma_done += 1;
                ctx.count("dmas_completed", 1);
            }
        }
        // Frame transmitted.
        if ctx.transferred_out(P_ETH_TX, 0)
            && matches!(self.tx, TxState::Reading { remaining: 0, .. })
        {
            self.tx = TxState::Idle;
            self.tx_done += 1;
            ctx.count("frames_sent", 1);
        }
        // Frame arriving from the wire.
        if let Some(v) = ctx.transferred_in(P_ETH_RX, 0) {
            let f = EthFrame::from_value(&v)?;
            let words = f
                .payload
                .as_ref()
                .and_then(|p| p.downcast_ref::<Words>())
                .map(|w| w.0.clone())
                .unwrap_or_default();
            let len = words.len() as u64;
            if self.alloc + len > self.rx_size {
                self.alloc = 0; // wrap the ring
            }
            let addr = self.rx_base + self.alloc;
            self.alloc += len;
            let desc = RxDesc {
                addr,
                len,
                src: f.src,
            };
            if len == 0 {
                self.rx_q.push_back(desc);
                self.rx_count += 1;
                ctx.count("frames_received", 1);
            } else {
                self.rx_fill = Some((words.into(), addr, desc));
            }
        }
        // MMIO request.
        if let Some(v) = ctx.transferred_in(P_MMIO_REQ, 0) {
            let r = v.downcast_ref::<MemReq>().ok_or_else(|| {
                SimError::type_err(format!("nic_dev: expected MemReq, got {}", v.kind()))
            })?;
            let data = if r.write {
                self.reg_write(r.addr, r.data);
                r.data
            } else {
                self.reg_read(r.addr)
            };
            self.mmio_ready = Some(MemResp { tag: r.tag, data });
        }
        Ok(())
    }
}

const NIC_DEV_SPEC: ModuleSpec = ModuleSpec::fixed(
    "nic_dev",
    &[
        PortSpec::input("mmio_req", 0, 1),
        PortSpec::output("mmio_resp", 0, 1),
        PortSpec::output("sram_req", 1, 1),
        PortSpec::input("sram_resp", 1, 1),
        PortSpec::output("eth_tx", 0, 1),
        PortSpec::input("eth_rx", 0, 1),
        PortSpec::output("pci_req", 0, 1),
        PortSpec::input("pci_resp", 0, 1),
    ],
);

/// Construct a NIC device. Parameters: `mac` (station index, required),
/// `rx_base` (SRAM ring base, default 1024), `rx_size` (ring words,
/// default 2048).
pub fn nic_dev(params: &Params) -> Result<Instantiated, SimError> {
    Ok((
        NIC_DEV_SPEC,
        Box::new(NicDev {
            mac: params.require_int("mac")? as u64,
            rx_base: params.int_or("rx_base", 1024)? as u64,
            rx_size: params.int_or("rx_size", 2048)? as u64,
            alloc: 0,
            rx_q: VecDeque::new(),
            rx_fill: None,
            sram_busy: None,
            dma: DmaState::Idle,
            dma_sram: 0,
            dma_len: 0,
            dma_host: 0,
            dma_done: 0,
            tx: TxState::Idle,
            tx_sram: 0,
            tx_len: 0,
            tx_dst: 0,
            tx_done: 0,
            scratch: 0,
            rx_count: 0,
            mmio_ready: None,
            next_tag: 0,
        }),
    ))
}
