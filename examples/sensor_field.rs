//! Run the paper's Fig. 2(b) sensor network: per node a GP core and a
//! DSP core on a coherent node bus, a radio NI with CSMA backoff, and a
//! shared wireless channel back to the base station.
//!
//! ```text
//! cargo run -p liberty-examples --bin sensor_field --release [nodes]
//! ```

use liberty_core::prelude::*;
use liberty_examples::ObsOpts;
use liberty_systems::programs;
use liberty_systems::sensor::{sensor_simulator, SensorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ObsOpts::parse_env()?;
    let nodes: u32 = opts.rest.first().and_then(|s| s.parse().ok()).unwrap_or(5);
    let cfg = SensorConfig {
        nodes,
        samples: 8,
        loss: 0.0,
        external_base: false,
    };
    let (mut sim, net) = sensor_simulator(&cfg, SchedKind::Compiled)?;
    let base = net.base.expect("base station");
    println!("{nodes} sensor nodes, one shared wireless channel, base at station 0\n");
    let obs = opts.install(&mut sim)?;
    let run = opts.run_until(&mut sim, 500_000, |st| {
        st.counter(base, "received") >= u64::from(nodes)
    })?;
    let cycles = run.steps_completed;
    if run.stopped_early() {
        println!(
            "run stopped early ({}); partial statistics follow",
            run.outcome.label()
        );
    }
    println!(
        "base received {}/{} reduced samples in {cycles} cycles",
        sim.stats().counter(base, "received"),
        nodes
    );
    println!(
        "air: {} delivered, {} collision cycles",
        sim.stats().counter(net.air, "delivered"),
        sim.stats().counter(net.air, "collisions"),
    );
    let backoffs: u64 = net
        .radios
        .iter()
        .map(|&r| sim.stats().counter(r, "backoffs"))
        .sum();
    println!("radios performed {backoffs} CSMA backoffs");
    if let Some(lat) = sim.stats().get_sample(base, "latency") {
        println!(
            "air latency (ready-to-delivered): min {:.0}, mean {:.1}, max {:.0} cycles",
            lat.min,
            lat.mean(),
            lat.max
        );
    }
    println!(
        "\neach sample is the DSP core's reduction: sum(2i+5, i<8) = {}",
        programs::expected_sum(8)
    );
    obs.finish(&mut sim)?;
    Ok(())
}
