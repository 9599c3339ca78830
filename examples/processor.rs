//! Iteratively refine a processor model (paper §2.2): start minimal,
//! then add buffers, a branch predictor, and a data cache — every stage
//! is a complete, working simulator retiring identical architectural
//! state, and each refinement changes only the timing.
//!
//! ```text
//! cargo run -p liberty-examples --bin processor --release [program]
//! ```
//! where `program` is a workload-catalog name (default `branchy`).

use liberty_core::prelude::*;
use liberty_upl::core::{core_simulator, CoreConfig};
use liberty_upl::emu::Machine;
use liberty_upl::program;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = liberty_examples::ObsOpts::parse_env()?;
    let name = opts
        .rest
        .first()
        .cloned()
        .unwrap_or_else(|| "branchy".into());
    let prog = Arc::new(program::by_name(&name).unwrap_or_else(|| {
        panic!(
            "unknown program {name:?}; try: count fib matmul pointer_chase branchy memcpy dotprod"
        )
    }));

    // Golden reference.
    let mut emu = Machine::new(&prog);
    emu.run(&prog, 50_000_000)?;
    println!("workload {:?}: {} instructions\n", prog.name, emu.retired);

    let stages: Vec<(&str, CoreConfig)> = vec![
        ("minimal in-order core      ", CoreConfig::default()),
        (
            "+ deeper pipeline buffers  ",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                ..CoreConfig::default()
            },
        ),
        (
            "+ bimodal branch predictor ",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                predictor: Some(Params::new().with("kind", "bimodal")),
                ..CoreConfig::default()
            },
        ),
        (
            "+ gshare predictor         ",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                predictor: Some(Params::new().with("kind", "gshare")),
                ..CoreConfig::default()
            },
        ),
        (
            "+ D-cache over slow DRAM   ",
            CoreConfig {
                fetch_q: 4,
                iw: 4,
                rob: 8,
                predictor: Some(Params::new().with("kind", "gshare")),
                cache: Some(Params::new().with("sets", 32i64).with("ways", 2i64)),
                mem_latency: 12,
                ..CoreConfig::default()
            },
        ),
    ];

    println!(
        "{:<30} {:>9} {:>7} {:>11} {:>9}",
        "stage", "cycles", "IPC", "mispredicts", "D$ hit%"
    );
    let last = stages.len() - 1;
    for (si, (name, cfg)) in stages.into_iter().enumerate() {
        let (mut sim, handles) = core_simulator(prog.clone(), &cfg, SchedKind::Compiled)?;
        // Observability flags watch the most refined configuration.
        let obs = (si == last).then(|| opts.install(&mut sim)).transpose()?;
        let arch = handles.arch.clone();
        let run = opts.run_until(&mut sim, 10_000_000, move |_| arch.is_halted())?;
        if run.stopped_early() {
            println!(
                "run stopped early ({}); skipping checks",
                run.outcome.label()
            );
            if let Some(obs) = obs {
                obs.finish(&mut sim)?;
            }
            return Ok(());
        }
        let cycles = run.steps_completed;
        // Drain outstanding writebacks, as `run_to_halt` would.
        opts.run(&mut sim, 16)?;
        assert!(handles.arch.is_halted(), "did not halt");
        // The refinement changed only timing, never meaning:
        assert_eq!(&*handles.arch.regs.lock(), &emu.regs, "architectural state");
        let retired = sim.stats().counter(handles.ids.decode, "retired");
        assert_eq!(retired, emu.retired);
        let mis = sim.stats().counter(handles.ids.execute, "mispredicts");
        let hitrate = handles
            .ids
            .cache
            .map(|c| {
                let h = sim.stats().counter(c, "read_hits") as f64;
                let m = sim.stats().counter(c, "read_misses") as f64;
                if h + m > 0.0 {
                    format!("{:.0}", 100.0 * h / (h + m))
                } else {
                    "-".to_string()
                }
            })
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<30} {:>9} {:>7.3} {:>11} {:>9}",
            name,
            cycles,
            retired as f64 / cycles as f64,
            mis,
            hitrate
        );
        if let Some(obs) = obs {
            obs.finish(&mut sim)?;
        }
    }
    println!("\nall stages retired identical architectural state");
    Ok(())
}
