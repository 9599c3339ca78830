//! Whole-core composition: a structural in-order LIR core assembled from
//! stage modules and PCL primitives — the paper's hierarchical-template
//! story in Rust, and (via [`register`]) the `lir_core` composite template
//! for LSS specifications.
//!
//! The inter-stage buffers are instances of the **PCL `queue` template**:
//! fetch buffer, instruction window and the two completion buffers are the
//! same component customized by parameters — together with CCL's router
//! buffers this is the paper's §2.1 reuse claim (experiment E6).
//!
//! ```text
//! fetch → [queue fq] → decode → [queue iw] → execute ─→ [queue rob_a] ─→ decode.wb
//!   ↑        (predictor)           │            │ mem
//!   └──────── redirect ────────────┘            ↓
//!                                            memstage → [queue rob_m] → decode.wb
//!                                               │↑
//!                                          (cache) → mem_array (DRAM)
//! ```

use crate::decode::{decode, DecodeHandles};
use crate::execute::execute;
use crate::fetch::fetch;
use crate::isa::Program;
use crate::memstage::memstage;
use crate::{cache, predictor};
use liberty_core::prelude::*;
use liberty_core::registry::ExportedPort;
use liberty_pcl::memarray::{self, SharedMem};
use liberty_pcl::queue::queue;
use std::sync::Arc;

/// Configuration of one core.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Fetch-buffer depth (PCL queue).
    pub fetch_q: usize,
    /// Instruction-window depth (PCL queue).
    pub iw: usize,
    /// Completion-buffer depth (PCL queues).
    pub rob: usize,
    /// Predictor parameters (`None` = leave predictor ports unconnected:
    /// fetch stalls on branches — the partial-specification default).
    pub predictor: Option<Params>,
    /// Cache parameters (`None` = memstage talks straight to DRAM).
    pub cache: Option<Params>,
    /// DRAM access latency in cycles.
    pub mem_latency: u64,
    /// When true, no DRAM is built: the memory-side port (memstage or
    /// cache `mreq`/`mresp`) is exported as `mem_req`/`mem_resp` so the
    /// system composer attaches its own hierarchy (coherent cache, MMIO
    /// splitter, ...).
    pub external_mem: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_q: 2,
            iw: 2,
            rob: 4,
            predictor: None,
            cache: None,
            mem_latency: 4,
            external_mem: false,
        }
    }
}

/// Observability handles for a built core.
pub struct CoreHandles {
    /// Register file and halt flag (owned by decode).
    pub arch: DecodeHandles,
    /// The DRAM contents (`None` with [`CoreConfig::external_mem`]).
    pub mem: Option<SharedMem>,
    /// Instance ids for statistics queries.
    pub ids: CoreIds,
}

/// Instance ids of the core's pieces.
pub struct CoreIds {
    /// Fetch stage.
    pub fetch: InstanceId,
    /// Decode/commit stage.
    pub decode: InstanceId,
    /// Execute stage.
    pub execute: InstanceId,
    /// Memory stage.
    pub mem: InstanceId,
    /// Cache, when configured.
    pub cache: Option<InstanceId>,
    /// Predictor, when configured.
    pub predictor: Option<InstanceId>,
}

/// Build a core under `prefix` (e.g. `"core0."`). Returns observability
/// handles and the (currently empty) exported-port list.
pub fn build_core(
    b: &mut NetlistBuilder,
    prefix: &str,
    prog: Arc<Program>,
    cfg: &CoreConfig,
) -> Result<(CoreHandles, Vec<ExportedPort>), SimError> {
    let n = |s: &str| format!("{prefix}{s}");

    let (f_spec, f_mod) = fetch(prog.clone());
    let f = b.add(n("fetch"), f_spec, f_mod)?;

    let (fq_spec, fq_mod) = queue(&Params::new().with("depth", cfg.fetch_q.max(1)))?;
    let fq = b.add(n("fq"), fq_spec, fq_mod)?;

    let (d_spec, d_mod, arch) = decode();
    let d = b.add(n("decode"), d_spec, d_mod)?;

    let (iw_spec, iw_mod) = queue(&Params::new().with("depth", cfg.iw.max(1)))?;
    let iw = b.add(n("iw"), iw_spec, iw_mod)?;

    let (x_spec, x_mod) = execute();
    let x = b.add(n("execute"), x_spec, x_mod)?;

    let (ra_spec, ra_mod) = queue(&Params::new().with("depth", cfg.rob.max(1)))?;
    let rob_a = b.add(n("rob_a"), ra_spec, ra_mod)?;

    let (ms_spec, ms_mod) = memstage();
    let ms = b.add(n("mem"), ms_spec, ms_mod)?;

    let (rm_spec, rm_mod) = queue(&Params::new().with("depth", cfg.rob.max(1)))?;
    let rob_m = b.add(n("rob_m"), rm_spec, rm_mod)?;

    let mem = if cfg.external_mem {
        None
    } else {
        let (dm_spec, dm_mod, mem) = memarray::mem_array_shared(
            &Params::new()
                .with("words", prog.mem_words)
                .with("latency", cfg.mem_latency as i64)
                .with("inflight", 8i64),
        )?;
        let dmem = b.add(n("dmem"), dm_spec, dm_mod)?;
        {
            let mut m = mem.lock();
            for &(a, v) in &prog.init_mem {
                let idx = (a as usize) % m.len();
                m[idx] = v;
            }
        }
        Some((dmem, mem))
    };

    // Pipeline datapath through the reused queue template.
    b.connect(f, "instr", fq, "in")?;
    b.connect(fq, "out", d, "instr")?;
    b.connect(d, "uop", iw, "in")?;
    b.connect(iw, "out", x, "uop")?;
    b.connect(x, "wb", rob_a, "in")?;
    b.connect(rob_a, "out", d, "wb")?;
    b.connect(x, "mem", ms, "uop")?;
    b.connect(ms, "wb", rob_m, "in")?;
    b.connect(rob_m, "out", d, "wb")?;

    // Control: redirect broadcast to fetch and decode.
    b.connect(x, "redirect", f, "redirect")?;
    b.connect(x, "redirect", d, "redirect")?;

    // Memory hierarchy. With external memory, export the memory-side
    // port instead of attaching DRAM.
    let mut exported = Vec::new();
    let cache_id = match &cfg.cache {
        Some(cp) => {
            let (c_spec, c_mod) = cache::cache(cp)?;
            let c = b.add(n("dcache"), c_spec, c_mod)?;
            b.connect(ms, "req", c, "req")?;
            b.connect(c, "resp", ms, "resp")?;
            match &mem {
                Some((dmem, _)) => {
                    b.connect(c, "mreq", *dmem, "req")?;
                    b.connect(*dmem, "resp", c, "mresp")?;
                }
                None => {
                    exported.push(ExportedPort {
                        name: "mem_req".to_owned(),
                        inst: c,
                        port: "mreq".to_owned(),
                        dir: liberty_core::module::Dir::Out,
                    });
                    exported.push(ExportedPort {
                        name: "mem_resp".to_owned(),
                        inst: c,
                        port: "mresp".to_owned(),
                        dir: liberty_core::module::Dir::In,
                    });
                }
            }
            Some(c)
        }
        None => {
            match &mem {
                Some((dmem, _)) => {
                    b.connect(ms, "req", *dmem, "req")?;
                    b.connect(*dmem, "resp", ms, "resp")?;
                }
                None => {
                    exported.push(ExportedPort {
                        name: "mem_req".to_owned(),
                        inst: ms,
                        port: "req".to_owned(),
                        dir: liberty_core::module::Dir::Out,
                    });
                    exported.push(ExportedPort {
                        name: "mem_resp".to_owned(),
                        inst: ms,
                        port: "resp".to_owned(),
                        dir: liberty_core::module::Dir::In,
                    });
                }
            }
            None
        }
    };

    // Predictor (optional: unconnected ports mean stall-on-branch).
    let pred_id = match &cfg.predictor {
        Some(pp) => {
            let (p_spec, p_mod) = predictor::predictor(pp)?;
            let p = b.add(n("pred"), p_spec, p_mod)?;
            b.connect(f, "pred_q", p, "q")?;
            b.connect(p, "a", f, "pred_a")?;
            b.connect(x, "bru", p, "update")?;
            Some(p)
        }
        None => None,
    };

    Ok((
        CoreHandles {
            arch,
            mem: mem.map(|(_, m)| m),
            ids: CoreIds {
                fetch: f,
                decode: d,
                execute: x,
                mem: ms,
                cache: cache_id,
                predictor: pred_id,
            },
        },
        exported,
    ))
}

/// Build a standalone simulator for one core (convenience for tests,
/// examples and benches).
pub fn core_simulator(
    prog: Arc<Program>,
    cfg: &CoreConfig,
    sched: SchedKind,
) -> Result<(Simulator, CoreHandles), SimError> {
    let mut b = NetlistBuilder::new();
    let (handles, _) = build_core(&mut b, "", prog, cfg)?;
    let (topo, modules) = b.build()?.into_parts();
    Ok((
        Simulator::from_parts(Arc::new(topo), modules, sched),
        handles,
    ))
}

/// Run a core simulator until its program halts (plus a small drain) or
/// `max_cycles` elapse. Returns the cycle count at halt.
pub fn run_to_halt(
    sim: &mut Simulator,
    handles: &CoreHandles,
    max_cycles: u64,
) -> Result<u64, SimError> {
    let mut cycles = 0;
    while cycles < max_cycles && !handles.arch.is_halted() {
        sim.step()?;
        cycles += 1;
    }
    // Drain outstanding writebacks (halt retires in order at commit, but
    // an in-flight store's DRAM write may still be pending).
    for _ in 0..16 {
        sim.step()?;
    }
    Ok(cycles)
}

/// Parse `lir_core` template parameters into a [`CoreConfig`] + program.
fn config_from_params(params: &Params) -> Result<(Arc<Program>, CoreConfig), SimError> {
    let pname = params.require_str("program")?;
    let prog = crate::program::by_name(&pname)
        .ok_or_else(|| SimError::param(format!("lir_core: unknown program {pname:?}")))?;
    let mut cfg = CoreConfig {
        fetch_q: params.usize_or("fetch_q", 2)?,
        iw: params.usize_or("iw", 2)?,
        rob: params.usize_or("rob", 4)?,
        predictor: None,
        cache: None,
        mem_latency: params.usize_or("mem_latency", 4)? as u64,
        external_mem: false,
    };
    let pk = params.str_or("predictor", "none")?;
    if pk != "none" {
        cfg.predictor = Some(
            Params::new()
                .with("kind", pk)
                .with("entries", params.int_or("pred_entries", 256)?),
        );
    }
    if params.bool_or("cache", false)? {
        cfg.cache = Some(
            Params::new()
                .with("sets", params.int_or("sets", 16)?)
                .with("ways", params.int_or("ways", 2)?)
                .with("line_words", params.int_or("line_words", 4)?),
        );
    }
    Ok((Arc::new(prog), cfg))
}

/// Register the `lir_core` composite template: a whole core as one LSS
/// instance. Parameters: `program` (catalog name, required), `fetch_q`,
/// `iw`, `rob`, `predictor` (= none | not_taken | bimodal | gshare),
/// `pred_entries`, `cache` (bool), `sets`, `ways`, `line_words`,
/// `mem_latency`.
pub fn register(reg: &mut Registry) {
    reg.register_composite(
        "upl",
        "lir_core",
        "in-order LIR core with optional predictor and cache; param program selects the workload",
        |params, b, prefix| {
            let (prog, cfg) = config_from_params(params)?;
            let (_handles, exported) = build_core(b, prefix, prog, &cfg)?;
            Ok(exported)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emu::Machine;
    use crate::program;

    /// Structural core and functional emulator must agree on final
    /// architectural state — the strongest correctness check we have.
    fn check_equivalence(prog: &Program, cfg: &CoreConfig) -> (u64, u64) {
        let prog = Arc::new(prog.clone());
        let (mut sim, handles) = core_simulator(prog.clone(), cfg, SchedKind::Compiled).unwrap();
        let cycles = run_to_halt(&mut sim, &handles, 2_000_000).unwrap();
        assert!(handles.arch.is_halted(), "{}: did not halt", prog.name);

        let mut emu = Machine::new(&prog);
        emu.run(&prog, 10_000_000).unwrap();

        let regs = handles.arch.regs.lock();
        assert_eq!(&*regs, &emu.regs, "{}: register file differs", prog.name);
        let mem = handles.mem.as_ref().expect("internal DRAM").lock();
        assert_eq!(&*mem, &emu.mem, "{}: memory differs", prog.name);

        let retired = sim.stats().counter(handles.ids.decode, "retired");
        assert_eq!(retired, emu.retired, "{}: retire count differs", prog.name);
        (cycles, retired)
    }

    #[test]
    fn count_program_matches_emulator() {
        check_equivalence(&program::count(20), &CoreConfig::default());
    }

    #[test]
    fn fib_matches_emulator() {
        check_equivalence(&program::fib(16), &CoreConfig::default());
    }

    #[test]
    fn memcpy_matches_emulator_with_cache() {
        let cfg = CoreConfig {
            cache: Some(Params::new().with("sets", 8i64).with("ways", 2i64)),
            ..CoreConfig::default()
        };
        check_equivalence(&program::memcpy_prog(24), &cfg);
    }

    #[test]
    fn branchy_matches_emulator_with_bimodal_predictor() {
        let cfg = CoreConfig {
            predictor: Some(Params::new().with("kind", "bimodal")),
            ..CoreConfig::default()
        };
        check_equivalence(&program::branchy(64), &cfg);
    }

    #[test]
    fn matmul_matches_emulator_full_config() {
        let cfg = CoreConfig {
            predictor: Some(Params::new().with("kind", "gshare")),
            cache: Some(Params::new()),
            ..CoreConfig::default()
        };
        check_equivalence(&program::matmul(4), &cfg);
    }

    #[test]
    fn predictor_improves_branchy_performance() {
        let prog = program::branchy(128);
        let (stall_cycles, _) = check_equivalence(&prog, &CoreConfig::default());
        let cfg = CoreConfig {
            predictor: Some(Params::new().with("kind", "bimodal")),
            ..CoreConfig::default()
        };
        let (pred_cycles, _) = check_equivalence(&prog, &cfg);
        assert!(
            pred_cycles < stall_cycles,
            "predictor {pred_cycles} !< stall {stall_cycles}"
        );
    }

    #[test]
    fn cache_improves_memcpy_performance() {
        let prog = program::memcpy_prog(64);
        let slow = CoreConfig {
            mem_latency: 12,
            ..CoreConfig::default()
        };
        let (nocache_cycles, _) = check_equivalence(&prog, &slow);
        let cached = CoreConfig {
            mem_latency: 12,
            cache: Some(Params::new()),
            ..CoreConfig::default()
        };
        let (cache_cycles, _) = check_equivalence(&prog, &cached);
        assert!(
            cache_cycles < nocache_cycles,
            "cache {cache_cycles} !< nocache {nocache_cycles}"
        );
    }

    #[test]
    fn schedulers_agree_on_core() {
        let prog = Arc::new(program::fib(12));
        let mut results = Vec::new();
        for sched in [SchedKind::Sweep, SchedKind::Compiled] {
            let (mut sim, handles) =
                core_simulator(prog.clone(), &CoreConfig::default(), sched).unwrap();
            run_to_halt(&mut sim, &handles, 1_000_000).unwrap();
            let retired = sim.stats().counter(handles.ids.decode, "retired");
            results.push((sim.now(), retired, *handles.arch.regs.lock()));
        }
        assert_eq!(results[0], results[1]);
    }
}
