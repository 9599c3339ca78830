//! # liberty-mpl — Multiprocessor Library
//!
//! "The MPL includes the modular components required for implementing a
//! structural specification of a multiprocessor ... DMA controllers (for
//! simulating low-overhead message-passing systems), pluggable cache
//! coherence controllers ... and pluggable memory ordering controllers"
//! (paper §3.4).
//!
//! * [`bus`] — the snooping coherence bus (serialization point + memory);
//! * [`scache`] — per-core coherent caches (write-through invalidate);
//! * [`dir`] — directory-based coherence over point-to-point fabrics;
//! * [`order`] — pluggable SC / TSO / RC ordering controllers;
//! * [`dma`] — DMA engines packing memory regions into fabric packets;
//! * [`shared_memory`] — the composition: N CPU-side ports of a coherent
//!   shared memory.

#![warn(missing_docs)]

pub mod bus;
pub mod dir;
pub mod dma;
pub mod order;
pub mod scache;

use liberty_core::prelude::*;

/// Handles to a built coherent shared-memory system.
pub struct SharedMemory {
    /// The backing store (always current under write-through).
    pub mem: liberty_pcl::memarray::SharedMem,
    /// Per CPU: the snoop-cache instance to connect `req`/`resp` to.
    pub caches: Vec<InstanceId>,
    /// The bus instance.
    pub bus: InstanceId,
}

/// Build an `n`-way coherent shared memory under `prefix`: a snoop bus
/// plus `n` snooping caches. Connect each CPU's memory port to
/// `caches[i]`'s `req`/`resp`.
pub fn shared_memory(
    b: &mut NetlistBuilder,
    prefix: &str,
    n: u32,
    params: &Params,
) -> Result<SharedMemory, SimError> {
    let (bus_spec, bus_mod, mem) = bus::snoop_bus(params)?;
    let bus_id = b.add(format!("{prefix}bus"), bus_spec, bus_mod)?;
    let mut caches = Vec::with_capacity(n as usize);
    for i in 0..n {
        let (c_spec, c_mod) = scache::snoop_cache(
            &Params::new()
                .with("id", i as i64)
                .with("capacity", params.int_or("capacity", 64)?),
        )?;
        let c = b.add(format!("{prefix}l1_{i}"), c_spec, c_mod)?;
        b.connect(c, "breq", bus_id, "req")?;
        b.connect(bus_id, "resp", c, "bresp")?;
        b.connect(bus_id, "snoop", c, "snoop")?;
        caches.push(c);
    }
    Ok(SharedMemory {
        mem,
        caches,
        bus: bus_id,
    })
}

/// Register MPL leaf templates.
pub fn register_all(reg: &mut Registry) {
    reg.register(
        "mpl",
        "order_ctl",
        "memory ordering controller; params: policy = sc | tso | rc, depth",
        order::order_ctl,
    );
    reg.register(
        "mpl",
        "snoop_cache",
        "write-through invalidate coherent cache; params: id (bus slot), capacity",
        scache::snoop_cache,
    );
}
