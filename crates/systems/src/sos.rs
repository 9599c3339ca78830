//! The system-of-systems of paper Fig. 2(d): "small sensor nodes peppered
//! around an area, collecting and communicating data wirelessly back to
//! coarser-grain nodes with chip multiprocessors ... finally, analyzed
//! data is aggregated back to a base camp where there are petaflops
//! grids-in-a-box".
//!
//! Three fabrics from three libraries, hierarchically composed:
//!
//! ```text
//! sensors --wireless--> [bridge] --mesh NoC--> [bridge+chunkify] --grid--> DMA --> memory
//! ```
//!
//! A sample's `created` stamp survives the whole path, so end-to-end
//! latency through every fabric is measured directly.

use crate::radio::bridge;
use crate::sensor::{build_sensor_net, SensorConfig, SensorNet};
use liberty_ccl::packet::Packet;
use liberty_ccl::topology::build_grid;
use liberty_core::prelude::*;
use liberty_mpl::dma::{dma, DmaChunk};
use liberty_nil::nicdev::Words;
use liberty_pcl::memarray::{mem_array_shared, SharedMem};
use std::sync::Arc;

/// System-of-systems configuration.
#[derive(Clone, Debug)]
pub struct SosConfig {
    /// Sensor nodes in the field.
    pub sensors: u32,
    /// Samples each sensor produces/reduces.
    pub samples: u64,
    /// Aggregator mesh dimensions (the CMP's on-chip network).
    pub mesh_w: u32,
    /// Aggregator mesh height.
    pub mesh_h: u32,
}

impl Default for SosConfig {
    fn default() -> Self {
        SosConfig {
            sensors: 3,
            samples: 6,
            mesh_w: 2,
            mesh_h: 2,
        }
    }
}

/// Converts `Words` payload packets into DMA chunks targeting
/// consecutive slots of the base-camp memory.
struct Chunkify {
    base: u64,
    slot: u64,
    count: u64,
    held: Option<Packet>,
}

const C_IN: PortId = PortId(0);
const C_OUT: PortId = PortId(1);

impl Module for Chunkify {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match &self.held {
            Some(p) => ctx.send(C_OUT, 0, p.clone().into_value())?,
            None => ctx.send_nothing(C_OUT, 0)?,
        }
        ctx.set_ack(C_IN, 0, self.held.is_none())?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(C_OUT, 0) {
            self.held = None;
        }
        if let Some(v) = ctx.transferred_in(C_IN, 0) {
            let mut p = Packet::from_value(&v)?.clone();
            let words = p
                .payload
                .as_ref()
                .and_then(|w| w.downcast_ref::<Words>())
                .map(|w| w.0.clone())
                .unwrap_or_default();
            p.payload = Some(Value::wrap(DmaChunk {
                dst_addr: self.base + self.count * self.slot,
                words,
            }));
            self.count += 1;
            ctx.count("chunkified", 1);
            // End-to-end sample latency: the `created` stamp was set by
            // the radio NI in the sensor field, three fabrics ago.
            ctx.sample("e2e_latency", ctx.now().saturating_sub(p.created) as f64);
            self.held = Some(p);
        }
        Ok(())
    }
}

/// Handles to a built system-of-systems.
pub struct Sos {
    /// The sensor field.
    pub field: SensorNet,
    /// The base-camp memory receiving aggregated samples.
    pub camp_mem: SharedMem,
    /// The camp-side sink of sample latencies (the chunkify stage id —
    /// `chunkified` counts arrivals at the camp boundary).
    pub chunkify: InstanceId,
    /// The DMA engine at the camp node.
    pub camp_dma: InstanceId,
    /// Where samples land in camp memory.
    pub camp_base: u64,
}

const CHUNKIFY_SPEC: ModuleSpec = ModuleSpec::fixed(
    "chunkify",
    &[PortSpec::input("in", 1, 1), PortSpec::output("out", 1, 1)],
);

/// Build the complete system-of-systems.
pub fn build_sos(b: &mut NetlistBuilder, cfg: &SosConfig) -> Result<Sos, SimError> {
    // 1. The sensor field, built with an external base: wireless rx
    //    connection 0 (the base station) feeds the uplink bridge, which
    //    rewrites packet destinations for the aggregator mesh.
    let field = build_sensor_net(
        b,
        "field.",
        &SensorConfig {
            nodes: cfg.sensors,
            samples: cfg.samples,
            loss: 0.0,
            external_base: true,
        },
    )?;
    let mesh_exit = cfg.mesh_w * cfg.mesh_h - 1;
    let (br_spec, br_mod) = bridge(&Params::new().with("dst", mesh_exit as i64))?;
    let br = b.add("uplink", br_spec, br_mod)?;
    b.connect(field.air, "rx", br, "in")?;

    // 2. The aggregator's on-chip mesh: packets enter at node 0 and
    //    leave at the far corner.
    let mesh = build_grid(b, "agg.", cfg.mesh_w, cfg.mesh_h, 4, 1, false)?;
    let (ti, tp) = mesh.local_in[0];
    b.connect(br, "out", ti, tp)?;

    // 3. The base camp: a grid node (memory + DMA); mesh exit traffic is
    //    chunkified into DMA writes landing in camp memory.
    let camp_base = 512u64;
    let ck = b.add(
        "downlink",
        CHUNKIFY_SPEC,
        Box::new(Chunkify {
            base: camp_base,
            slot: 8,
            count: 0,
            held: None,
        }),
    )?;
    let (fo, fp) = mesh.local_out[mesh_exit as usize];
    b.connect(fo, fp, ck, "in")?;
    let (m_spec, m_mod, camp_mem) =
        mem_array_shared(&Params::new().with("words", 2048i64).with("latency", 2i64))?;
    let camp_m = b.add("camp.mem", m_spec, m_mod)?;
    let (d_spec, d_mod) = dma(0);
    let camp_dma = b.add("camp.dma", d_spec, d_mod)?;
    b.connect(camp_dma, "mem_req", camp_m, "req")?;
    b.connect(camp_m, "resp", camp_dma, "mem_resp")?;
    b.connect(ck, "out", camp_dma, "net_rx")?;

    Ok(Sos {
        field,
        camp_mem,
        chunkify: ck,
        camp_dma,
        camp_base,
    })
}

/// Build a standalone system-of-systems simulator.
pub fn sos_simulator(cfg: &SosConfig, sched: SchedKind) -> Result<(Simulator, Sos), SimError> {
    let mut b = NetlistBuilder::new();
    let sos = build_sos(&mut b, cfg)?;
    let (topo, modules) = b.build()?.into_parts();
    Ok((Simulator::from_parts(Arc::new(topo), modules, sched), sos))
}
