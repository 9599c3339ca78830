//! # liberty-lss — the Liberty Simulator Specification front end
//!
//! "A user of the Liberty Simulation Environment writes a Liberty
//! Simulator Specification (LSS) to specify the desired system by defining
//! interconnections between customized instances of reusable module
//! templates. LSE reads the LSS, instantiates module templates into module
//! instances, and weaves the specification and module instances together
//! to form an executable simulator." (paper §2, Fig. 1)
//!
//! This crate is that pipeline: [`parser::parse`] produces the AST,
//! [`elab::elaborate`] flattens the hierarchy against a template
//! [`Registry`], and [`build_simulator`] hands back a runnable
//! [`Simulator`].
//!
//! ## The language
//!
//! ```text
//! module node {
//!     param depth = 8;            // algorithmic parameter with default
//!     port in rx;                 // exported ports for hierarchy
//!     port out tx;
//!     instance q : queue { depth = depth; };
//!     connect self.rx -> q.in;    // bind exported ports to inner ports
//!     connect q.out -> self.tx;
//! }
//! module main {
//!     param n = 4;
//!     instance src : seq_source;
//!     instance stage[n] : node { depth = 2; };   // instance arrays
//!     instance dst : sink;
//!     connect src.out -> stage[0].rx;
//!     for i in 0..n - 1 {                        // structural loops
//!         connect stage[i].tx -> stage[i + 1].rx;
//!     }
//!     connect stage[n - 1].tx -> dst.in;
//! }
//! ```
//!
//! ## Example
//!
//! ```
//! use liberty_core::prelude::*;
//! use liberty_lss::build_simulator;
//!
//! let mut reg = Registry::new();
//! liberty_pcl::register_all(&mut reg);
//!
//! let src = r#"
//!     module main {
//!         instance gen : seq_source { count = 5; };
//!         instance q   : queue { depth = 2; };
//!         instance dst : sink;
//!         connect gen.out -> q.in;
//!         connect q.out -> dst.in;
//!     }
//! "#;
//! let (mut sim, report) = build_simulator(src, &reg, "main", &Params::new(),
//!                                         SchedKind::Compiled).unwrap();
//! sim.run(10).unwrap();
//! let dst = sim.instance_by_name("dst").unwrap();
//! assert_eq!(sim.stats().counter(dst, "received"), 5);
//! assert_eq!(report.leaf_instances, 3);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod elab;
pub mod lexer;
pub mod parser;

pub use elab::{elaborate, ElabReport};
pub use parser::parse;

use liberty_core::prelude::*;
use std::sync::Arc;

/// Parse, elaborate and construct a simulator in one step: LSS source in,
/// executable simulator out (paper Fig. 1). Construction goes through the
/// layered kernel: the elaborated netlist is split into an immutable
/// [`Topology`] and the module behaviours, then executed over it.
pub fn build_simulator(
    src: &str,
    registry: &Registry,
    root: &str,
    args: &Params,
    sched: SchedKind,
) -> Result<(Simulator, ElabReport), SimError> {
    let spec = parser::parse(src)?;
    let (net, report) = elab::elaborate(&spec, registry, root, args)?;
    let (topo, modules) = net.into_parts();
    Ok((
        Simulator::from_parts(Arc::new(topo), modules, sched),
        report,
    ))
}
