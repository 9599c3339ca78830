//! Sweep a mesh network across injection rates and report latency plus
//! the Orion power decomposition (paper §3.3): dynamic power by
//! component, leakage, and the thermal estimate.
//!
//! ```text
//! cargo run -p liberty-examples --bin noc_power --release [w] [h]
//! ```

use liberty_ccl::power::{analyze, PowerCoeffs};
use liberty_ccl::topology::build_grid;
use liberty_ccl::traffic::{traffic_gen, traffic_sink, Pattern, TrafficCfg};
use liberty_core::prelude::*;

fn build(w: u32, h: u32, rate: f64) -> Simulator {
    let mut b = NetlistBuilder::new();
    let fabric = build_grid(&mut b, "n.", w, h, 4, 1, false).unwrap();
    for id in 0..fabric.nodes {
        let (g_spec, g_mod) = traffic_gen(TrafficCfg {
            nodes: fabric.nodes,
            width: w,
            my: id,
            rate,
            pattern: Pattern::Uniform,
            flits: 4,
            seed: 20,
            ..TrafficCfg::default()
        });
        let g = b.add(format!("g{id}"), g_spec, g_mod).unwrap();
        let (ti, tp) = fabric.local_in[id as usize];
        b.connect(g, "out", ti, tp).unwrap();
        let (k_spec, k_mod) = traffic_sink(Some(id));
        let k = b.add(format!("s{id}"), k_spec, k_mod).unwrap();
        let (fo, fp) = fabric.local_out[id as usize];
        b.connect(fo, fp, k, "in").unwrap();
    }
    Simulator::new(b.build().unwrap(), SchedKind::Compiled)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = liberty_examples::ObsOpts::parse_env()?;
    let w: u32 = opts.rest.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let h: u32 = opts.rest.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    println!("{w}x{h} mesh, uniform random traffic, 3000 cycles per point\n");
    println!(
        "{:>6} {:>10} {:>9} {:>11} {:>11} {:>9} {:>8}",
        "rate", "delivered", "lat(cyc)", "dynamic mW", "leakage mW", "leak %", "temp C"
    );
    let rates = [0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30];
    for (ri, rate) in rates.into_iter().enumerate() {
        let mut sim = build(w, h, rate);
        // Observability flags watch the highest-load sweep point.
        let obs = (ri == rates.len() - 1)
            .then(|| opts.install(&mut sim))
            .transpose()?;
        let run = opts.run(&mut sim, 3000)?;
        if run.stopped_early() {
            println!("sweep stopped early ({})", run.outcome.label());
            if let Some(obs) = obs {
                obs.finish(&mut sim)?;
            }
            return Ok(());
        }
        let delivered = sim.stats().counter_total("received");
        let lat = sim
            .stats()
            .sample_total("latency")
            .map(|s| s.mean())
            .unwrap_or(0.0);
        let p = analyze(
            &sim.instance_names().collect::<Vec<_>>(),
            &sim.report(),
            sim.now(),
            4.0,
            &PowerCoeffs::default(),
        );
        println!(
            "{:>6.2} {:>10} {:>9.1} {:>11.1} {:>11.1} {:>8.0}% {:>8.1}",
            rate,
            delivered,
            lat,
            p.total_dynamic_mw,
            p.total_leakage_mw,
            100.0 * p.leakage_fraction,
            p.temp_c
        );
        if let Some(obs) = obs {
            obs.finish(&mut sim)?;
        }
    }
    println!("\nshapes to notice: latency grows with load; leakage share shrinks as");
    println!("dynamic power grows; the thermal estimate follows total power.");
    Ok(())
}
