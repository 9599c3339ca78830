//! The chip multiprocessor of paper Fig. 2(a): general-purpose cores
//! (UPL) with coherent shared memory (MPL snoop bus + caches, with a
//! pluggable ordering controller), plus the on-chip network (CCL mesh)
//! carrying inter-core traffic through NI models.
//!
//! The cores run flag-synchronized producer/consumer pairs whose results
//! are architecturally checkable, so a CMP run simultaneously validates
//! UPL timing, MPL coherence and CCL transport in one composition —
//! the plug-and-play claim of paper §3.

use crate::programs;
use liberty_ccl::topology::build_grid;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;
use liberty_mpl::{order, shared_memory};
use liberty_upl::core::{build_core, CoreConfig, CoreHandles};
use std::sync::Arc;

/// CMP configuration.
#[derive(Clone, Debug)]
pub struct CmpConfig {
    /// Number of cores (made even; cores pair up as producer/consumer).
    pub cores: u32,
    /// Items per producer/consumer pair.
    pub items: u64,
    /// Memory ordering policy inserted between core and coherent cache
    /// (`None` = direct connection, which is SC by construction).
    pub ordering: Option<String>,
    /// Include the on-chip mesh with NI traffic models.
    pub with_noc: bool,
    /// NI injection rate (packets/cycle/node) for the NoC.
    pub noc_rate: f64,
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig {
            cores: 4,
            items: 8,
            ordering: None,
            with_noc: true,
            noc_rate: 0.05,
        }
    }
}

/// Handles to a built CMP.
pub struct Cmp {
    /// Per-core handles (even = producer, odd = consumer).
    pub cores: Vec<CoreHandles>,
    /// The coherent shared memory.
    pub mem: liberty_pcl::memarray::SharedMem,
    /// Coherent cache instances (bus slot order).
    pub caches: Vec<InstanceId>,
    /// The bus instance.
    pub bus: InstanceId,
    /// NoC sink instances (for latency stats), if built.
    pub noc_sinks: Vec<InstanceId>,
    /// Number of producer/consumer pairs.
    pub pairs: u64,
    /// Items per pair.
    pub items: u64,
}

impl Cmp {
    /// True once every consumer has halted.
    pub fn done(&self) -> bool {
        self.cores.iter().all(|c| c.arch.is_halted())
    }

    /// Check every pair's result against the reference sum.
    pub fn check_results(&self) -> Result<(), String> {
        let mem = self.mem.lock();
        for k in 0..self.pairs {
            let got = mem[programs::layout::result(k) as usize];
            let want = programs::expected_sum(self.items);
            if got != want {
                return Err(format!("pair {k}: result {got} != expected {want}"));
            }
        }
        Ok(())
    }
}

/// Build a CMP under `prefix`.
pub fn build_cmp(b: &mut NetlistBuilder, prefix: &str, cfg: &CmpConfig) -> Result<Cmp, SimError> {
    let cores = (cfg.cores.max(2) / 2) * 2;
    let pairs = u64::from(cores / 2);
    let shm = shared_memory(
        b,
        &format!("{prefix}shm."),
        cores,
        &Params::new().with("latency", 3i64).with("words", 4096i64),
    )?;
    let mut core_handles = Vec::new();
    for c in 0..cores {
        let pair = u64::from(c / 2);
        let prog = if c % 2 == 0 {
            programs::producer(cfg.items, pair)
        } else {
            programs::consumer(cfg.items, pair)
        };
        let core_cfg = CoreConfig {
            external_mem: true,
            ..CoreConfig::default()
        };
        let (handles, exported) =
            build_core(b, &format!("{prefix}core{c}."), Arc::new(prog), &core_cfg)?;
        let mem_req = exported
            .iter()
            .find(|e| e.name == "mem_req")
            .expect("exported");
        let mem_resp = exported
            .iter()
            .find(|e| e.name == "mem_resp")
            .expect("exported");
        match &cfg.ordering {
            Some(policy) => {
                let (o_spec, o_mod) =
                    order::order_ctl(&Params::new().with("policy", policy.as_str()))?;
                let oc = b.add(format!("{prefix}oc{c}"), o_spec, o_mod)?;
                b.connect(mem_req.inst, &mem_req.port, oc, "cpu_req")?;
                b.connect(oc, "cpu_resp", mem_resp.inst, &mem_resp.port)?;
                b.connect(oc, "mem_req", shm.caches[c as usize], "req")?;
                b.connect(shm.caches[c as usize], "resp", oc, "mem_resp")?;
            }
            None => {
                b.connect(mem_req.inst, &mem_req.port, shm.caches[c as usize], "req")?;
                b.connect(
                    shm.caches[c as usize],
                    "resp",
                    mem_resp.inst,
                    &mem_resp.port,
                )?;
            }
        }
        core_handles.push(handles);
    }

    // The on-chip network: a mesh sized to the core count, with NI
    // traffic models at each node (paper §2.2's statistical abstraction
    // standing in for detailed NI state machines).
    let mut noc_sinks = Vec::new();
    if cfg.with_noc {
        let w = (cores as f64).sqrt().ceil() as u32;
        let h = cores.div_ceil(w);
        let fabric = build_grid(b, &format!("{prefix}noc."), w, h, 4, 1, false)?;
        for id in 0..fabric.nodes {
            let (g_spec, g_mod) = traffic_gen(TrafficCfg {
                nodes: fabric.nodes,
                width: w,
                my: id,
                rate: cfg.noc_rate,
                pattern: Pattern::Uniform,
                flits: 4,
                seed: 13,
                ..TrafficCfg::default()
            });
            let g = b.add(format!("{prefix}ni{id}"), g_spec, g_mod)?;
            let (ti, tp) = fabric.local_in[id as usize];
            b.connect(g, "out", ti, tp)?;
            let (k_spec, k_mod) = traffic_sink(Some(id));
            let k = b.add(format!("{prefix}ni_rx{id}"), k_spec, k_mod)?;
            let (fo, fp) = fabric.local_out[id as usize];
            b.connect(fo, fp, k, "in")?;
            noc_sinks.push(k);
        }
    }

    Ok(Cmp {
        cores: core_handles,
        mem: shm.mem,
        caches: shm.caches,
        bus: shm.bus,
        noc_sinks,
        pairs,
        items: cfg.items,
    })
}

/// Build a standalone CMP simulator.
pub fn cmp_simulator(cfg: &CmpConfig, sched: SchedKind) -> Result<(Simulator, Cmp), SimError> {
    let mut b = NetlistBuilder::new();
    let cmp = build_cmp(&mut b, "", cfg)?;
    let (topo, modules) = b.build()?.into_parts();
    Ok((Simulator::from_parts(Arc::new(topo), modules, sched), cmp))
}
