//! Load and run any LSS specification file against the full component
//! registry — the paper's Fig. 1 as a command-line tool.
//!
//! ```text
//! cargo run -p liberty-examples --bin lss_file -- specs/pipeline.lss [cycles] \
//!     [--trace] [--vcd out.vcd] [--jsonl out.jsonl] [--profile] [--metrics-out m.json]
//! ```
//!
//! Prints the construction census and every non-zero statistic the
//! components published.
//!
//! With `--sweep KEY=LO..HI` / `--seeds N` the example becomes an
//! ensemble driver: a grid of replicas runs under supervision into
//! `--sweep-dir` (manifest + per-replica streams + aggregate CSV), and
//! an interrupted sweep continues with `--resume-manifest DIR`:
//!
//! ```text
//! lss_file specs/pipeline.lss 200 --sweep depth=1..4 --seeds 3 \
//!     --sweep-dir out --threads 4
//! lss_file specs/pipeline.lss --resume-manifest out --threads 4
//! ```

use liberty_core::prelude::*;
use liberty_examples::ObsOpts;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ObsOpts::parse_env()?;
    let mut args = opts.rest.iter().cloned();
    let path = args
        .next()
        .unwrap_or_else(|| "specs/pipeline.lss".to_owned());
    let cycles: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(100);

    let src = std::fs::read_to_string(&path)?;
    let registry = full_registry();

    if opts.sweep_requested() {
        let report = opts.run_lss_sweep(&src, &registry, "main", &Params::new(), cycles)?;
        if report.failed > 0 {
            return Err(format!("{} replica(s) failed", report.failed).into());
        }
        if !report.complete() {
            // Interrupted (SIGINT / budget): resumable, but not a success.
            std::process::exit(2);
        }
        return Ok(());
    }

    let (mut sim, report) =
        build_simulator(&src, &registry, "main", &Params::new(), SchedKind::Compiled)?;
    println!(
        "{path}: constructed {} instances / {} connections from {} template kinds",
        report.leaf_instances,
        report.edges,
        report.template_uses.len()
    );
    for (t, n) in &report.template_uses {
        println!("  {n:>4} x {t}");
    }

    let obs = opts.install(&mut sim)?;
    let run = opts.run(&mut sim, cycles)?;
    println!("\nran {} cycles; statistics:", run.steps_completed);
    let rep = sim.report();
    for (key, v) in &rep.counters {
        println!("  {key} = {v}");
    }
    for (key, s) in &rep.samples {
        println!(
            "  {key}: mean {:.2} (min {:.0}, max {:.0}, n {})",
            s.mean(),
            s.min,
            s.max,
            s.n
        );
    }
    for (key, h) in &rep.histograms {
        println!("  {key}: histogram, n {} mean {:.2}", h.count(), h.mean());
        print!("{}", h.render());
    }
    obs.finish(&mut sim)?;
    Ok(())
}
