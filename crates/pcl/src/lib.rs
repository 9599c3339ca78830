//! # liberty-pcl — Primitive Component Library
//!
//! Domain-independent building blocks used across every other library
//! (paper §3.1): queues, arbiters, memory arrays, pipeline registers,
//! sources/sinks, tees and crossbars. "These primitives can be readily
//! leveraged while building the functional component libraries, saving
//! development time, maximizing reuse, and easing debugging."
//!
//! Every component comes in two forms:
//!
//! * a **direct constructor** (`queue(&params)`) for Rust-level structural
//!   composition, and
//! * a **registry template** ([`register_all`]) so LSS specifications can
//!   instantiate it by name.
//!
//! The [`queue::queue`] template is the paper's flagship reuse example: the
//! *same* template is instantiated as a processor's instruction window, its
//! reorder buffer, and a packet router's I/O buffers (experiment E6).

#![warn(missing_docs)]

pub mod alu;
pub mod arbiter;
pub mod crossbar;
pub mod delay;
pub mod inverter;
pub mod memarray;
pub mod queue;
pub mod register;
pub mod sink;
pub mod source;
pub mod tee;

use liberty_core::prelude::*;

/// A destination-addressed payload, the common currency of PCL routing
/// components ([`crossbar`]) and the CCL fabric models built on them.
#[derive(Clone, Debug, PartialEq)]
pub struct Routed {
    /// Destination index (meaning depends on the routing component:
    /// crossbar output, network node id, ...).
    pub dst: u32,
    /// The payload being routed.
    pub payload: Value,
}

impl Routed {
    /// Wrap a payload for a destination.
    pub fn wrap(dst: u32, payload: Value) -> Value {
        Value::wrap(Routed { dst, payload })
    }

    /// Extract a `Routed` from a connection value.
    pub fn from_value(v: &Value) -> Result<&Routed, SimError> {
        v.downcast_ref::<Routed>()
            .ok_or_else(|| SimError::type_err(format!("expected Routed, got {}", v.kind())))
    }
}

/// Layout: `[dst, payload]`, the payload a nested value.
impl Payload for Routed {
    const KIND: &'static str = "pcl.Routed";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(u64::from(self.dst));
        out.value(&self.payload);
    }
}

/// Register every PCL template with a registry under the "pcl" library tag.
pub fn register_all(reg: &mut Registry) {
    queue::register(reg);
    arbiter::register(reg);
    delay::register(reg);
    inverter::register(reg);
    source::register(reg);
    sink::register(reg);
    tee::register(reg);
    crossbar::register(reg);
    memarray::register(reg);
    alu::register(reg);
    register::register(reg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_all_populates_registry() {
        let mut r = Registry::new();
        register_all(&mut r);
        assert!(r.len() >= 10);
        assert!(r.get("queue").is_ok());
        assert!(r.get("arbiter").is_ok());
        assert!(r.iter().all(|t| t.library == "pcl"));
    }

    #[test]
    fn routed_roundtrip() {
        let v = Routed::wrap(3, Value::Word(9));
        let r = Routed::from_value(&v).unwrap();
        assert_eq!(r.dst, 3);
        assert_eq!(r.payload.as_word(), Some(9));
        assert!(Routed::from_value(&Value::Word(0)).is_err());
    }
}
