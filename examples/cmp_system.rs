//! Run the paper's Fig. 2(a) chip multiprocessor: UPL cores over MPL
//! coherent shared memory, with the CCL on-chip network carrying NI
//! traffic alongside — assembled "in a plug-and-play fashion" from the
//! component libraries.
//!
//! ```text
//! cargo run -p liberty-examples --bin cmp_system --release [cores]
//! ```

use liberty_core::prelude::*;
use liberty_examples::ObsOpts;
use liberty_systems::cmp::{cmp_simulator, CmpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ObsOpts::parse_env()?;
    let cores: u32 = opts.rest.first().and_then(|s| s.parse().ok()).unwrap_or(8);
    let cfg = CmpConfig {
        cores,
        items: 16,
        ordering: None,
        with_noc: true,
        noc_rate: 0.05,
    };
    let (mut sim, cmp) = cmp_simulator(&cfg, SchedKind::Compiled)?;
    println!(
        "CMP: {} cores ({} producer/consumer pairs), coherent snoop bus, on-chip mesh\n",
        cmp.cores.len(),
        cmp.pairs
    );
    let obs = opts.install(&mut sim)?;
    let run = opts.run_until(&mut sim, 500_000, |_| cmp.done())?;
    let cycles = run.steps_completed;
    if !run.stopped_early() {
        opts.run(&mut sim, 64)?;
    }
    if run.stopped_early() {
        println!(
            "run stopped early ({}); skipping checks",
            run.outcome.label()
        );
        obs.finish(&mut sim)?;
        return Ok(());
    }
    match cmp.check_results() {
        Ok(()) => println!("all pair results correct after {cycles} cycles\n"),
        Err(e) => panic!("wrong results: {e}"),
    }
    println!("{:<8} {:>10} {:>8} {:>7}", "core", "role", "retired", "IPC");
    for (i, core) in cmp.cores.iter().enumerate() {
        let retired = sim.stats().counter(core.ids.decode, "retired");
        println!(
            "{:<8} {:>10} {:>8} {:>7.3}",
            format!("core{i}"),
            if i % 2 == 0 { "producer" } else { "consumer" },
            retired,
            retired as f64 / cycles as f64
        );
    }
    let grants = sim.stats().counter(cmp.bus, "grants");
    let inval: u64 = cmp
        .caches
        .iter()
        .map(|&c| sim.stats().counter(c, "invalidations"))
        .sum();
    println!("\nbus transactions: {grants}; snoop invalidations: {inval}");
    let noc_rx: u64 = cmp
        .noc_sinks
        .iter()
        .map(|&k| sim.stats().counter(k, "received"))
        .sum();
    let noc_lat = sim
        .stats()
        .sample_total("latency")
        .map(|s| s.mean())
        .unwrap_or(0.0);
    println!("on-chip network: {noc_rx} packets delivered, mean latency {noc_lat:.1} cycles");
    obs.finish(&mut sim)?;
    Ok(())
}
