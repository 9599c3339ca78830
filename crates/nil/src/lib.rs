//! # liberty-nil — Network Interface Library
//!
//! "Network interfaces bridge processors and fabrics, and multiple
//! networks ... the most common realization is a network interface card
//! (NIC) that translates between Ethernet and PCI formats" (paper §3.5).
//!
//! * [`eth`] — a shared Ethernet segment (CSMA, frame serialization);
//! * [`pci`] — a PCI-like burst bus with windowed targets, plus a
//!   burst-capable host memory target;
//! * [`splitter`] — the MMIO address decoder;
//! * [`nicdev`] — the NIC device: registers + MAC/DMA hardware assists;
//! * [`firmware`] — LIR firmware (store-and-forward, echo);
//! * [`prognic`] — the programmable-NIC composition (UPL core + SRAM +
//!   device), the Tigon-2-class model and the Ethernet↔PCI format
//!   converter of the paper;
//! * [`tap`] — frame capture and trace replay ("collecting the I/O traces
//!   of host and network traffic that will later drive the simulation").

#![warn(missing_docs)]

pub mod eth;
pub mod firmware;
pub mod nicdev;
pub mod pci;
pub mod prognic;
pub mod splitter;
pub mod tap;

use liberty_core::prelude::*;

/// Register NIL leaf templates.
pub fn register_all(reg: &mut Registry) {
    reg.register(
        "nil",
        "ether",
        "shared Ethernet segment; params: bytes_per_cycle",
        eth::ether,
    );
    reg.register(
        "nil",
        "pci_bus",
        "PCI burst bus with windowed targets; params: window",
        pci::pci_bus,
    );
    reg.register(
        "nil",
        "splitter",
        "address splitter for MMIO; params: split",
        splitter::splitter,
    );
    reg.register(
        "nil",
        "nic_dev",
        "NIC device with MAC/DMA assists; params: mac, rx_base, rx_size",
        nicdev::nic_dev,
    );
}
