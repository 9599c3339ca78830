//! Quickstart: the paper's Fig. 1 in one page.
//!
//! Write an LSS specification, let the simulator constructor weave the
//! module templates together, run the executable simulator, read stats.
//!
//! ```text
//! cargo run -p liberty-examples --bin quickstart
//! cargo run -p liberty-examples --bin quickstart -- --vcd out.vcd --profile
//! ```

use liberty_core::prelude::*;
use liberty_examples::ObsOpts;
use liberty_lss::build_simulator;
use liberty_systems::full_registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = ObsOpts::parse_env()?;
    // 1. A structural specification: a generator feeding a queue feeding
    //    two consumers through a tee. No control logic is written — the
    //    three-signal contract and the default control semantics handle
    //    flow control.
    let lss = r#"
        module main {
            param items = 12;
            instance gen  : seq_source { count = items; };
            instance q    : queue { depth = 4; };
            instance copy : tee { policy = "all"; };
            instance a    : sink;
            instance b    : sink;
            connect gen.out  -> q.in;
            connect q.out    -> copy.in;
            connect copy.out -> a.in;
            connect copy.out -> b.in;
        }
    "#;

    // 2. Construct the simulator (parse -> elaborate -> weave).
    let registry = full_registry();
    let (mut sim, report) =
        build_simulator(lss, &registry, "main", &Params::new(), SchedKind::Compiled)?;
    println!(
        "constructed: {} instances, {} connections",
        report.leaf_instances, report.edges
    );

    // 3. Run it (with any requested probes watching, under run
    //    governance: Ctrl-C / --max-steps / --deadline stop the run
    //    cleanly with a report instead of killing the process).
    let obs = opts.install(&mut sim)?;
    let run = opts.run(&mut sim, 40)?;

    // 4. Read the statistics the components published.
    let a = sim.instance_by_name("a").expect("instance a");
    let b = sim.instance_by_name("b").expect("instance b");
    let q = sim.instance_by_name("q").expect("instance q");
    println!("sink a received : {}", sim.stats().counter(a, "received"));
    println!("sink b received : {}", sim.stats().counter(b, "received"));
    println!(
        "queue occupancy : mean {:.2}, max {}",
        sim.stats()
            .get_sample(q, "occupancy")
            .map(|s| s.mean())
            .unwrap_or(0.0),
        sim.stats()
            .get_sample(q, "occupancy")
            .map(|s| s.max)
            .unwrap_or(0.0),
    );
    if run.stopped_early() {
        println!(
            "run stopped early ({}); skipping checks",
            run.outcome.label()
        );
    } else {
        assert_eq!(sim.stats().counter(a, "received"), 12);
        assert_eq!(sim.stats().counter(b, "received"), 12);
        println!("ok: both consumers saw the full stream");
    }
    obs.finish(&mut sim)?;
    Ok(())
}
