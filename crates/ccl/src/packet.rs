//! Network packets and the helpers shared by every CCL component.

use liberty_core::prelude::*;

/// A network packet. Sized in flits so power and serialization models can
/// account for wide payloads without carrying real data around.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Unique id (per source).
    pub id: u64,
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Packet length in flits.
    pub flits: u32,
    /// Injection time-step (for latency accounting).
    pub created: u64,
    /// Optional payload for functional fabrics (DMA, NIC frames...).
    pub payload: Option<Value>,
}

/// Layout: `[id, src, dst, flits, created, payload?]`, `payload?` as
/// [`WordSink::opt_value`].
impl Payload for Packet {
    const KIND: &'static str = "ccl.Packet";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.id);
        out.word(u64::from(self.src));
        out.word(u64::from(self.dst));
        out.word(u64::from(self.flits));
        out.word(self.created);
        out.opt_value(self.payload.as_ref());
    }
}

impl Packet {
    /// Wrap into a connection value.
    pub fn into_value(self) -> Value {
        Value::wrap(self)
    }

    /// Borrow a `Packet` out of a connection value.
    pub fn from_value(v: &Value) -> Result<&Packet, SimError> {
        v.downcast_ref::<Packet>()
            .ok_or_else(|| SimError::type_err(format!("expected Packet, got {}", v.kind())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        let p = Packet {
            id: 1,
            src: 2,
            dst: 3,
            flits: 4,
            created: 5,
            payload: Some(Value::Word(9)),
        };
        let v = p.clone().into_value();
        assert_eq!(Packet::from_value(&v).unwrap(), &p);
        assert!(Packet::from_value(&Value::Unit).is_err());
    }
}
