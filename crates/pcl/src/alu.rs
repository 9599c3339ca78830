//! Combinational ALU: consumes `(op, a, b)` tuples, produces result words.
//!
//! ## Ports
//! * `in` (input, width 1): `Value::Tuple([Word(op), Word(a), Word(b)])`.
//! * `out` (output, width 1): `Word(result)`.
//!
//! ## Operations
//! `0` add, `1` sub, `2` and, `3` or, `4` xor, `5` shl, `6` shr (logical),
//! `7` mul, `8` slt (set if `a < b`, signed), `9` sltu (unsigned).

use liberty_core::prelude::*;
use std::sync::Arc;

const P_IN: PortId = PortId(0);
const P_OUT: PortId = PortId(1);

/// Compute one ALU operation. Exposed so functional models (UPL's
/// emulator) share the exact semantics of the structural ALU.
pub fn compute(op: u64, a: u64, b: u64) -> Result<u64, SimError> {
    Ok(match op {
        0 => a.wrapping_add(b),
        1 => a.wrapping_sub(b),
        2 => a & b,
        3 => a | b,
        4 => a ^ b,
        5 => a.wrapping_shl((b & 63) as u32),
        6 => a.wrapping_shr((b & 63) as u32),
        7 => a.wrapping_mul(b),
        8 => u64::from((a as i64) < (b as i64)),
        9 => u64::from(a < b),
        other => return Err(SimError::model(format!("alu: unknown op {other}"))),
    })
}

/// Build an `(op, a, b)` tuple value for the ALU input.
pub fn op_value(op: u64, a: u64, b: u64) -> Value {
    Value::Tuple(Arc::new(vec![
        Value::Word(op),
        Value::Word(a),
        Value::Word(b),
    ]))
}

struct Alu;

fn decode(v: &Value) -> Result<(u64, u64, u64), SimError> {
    let Value::Tuple(t) = v else {
        return Err(SimError::type_err(format!(
            "alu: expected (op, a, b) tuple, got {}",
            v.kind()
        )));
    };
    if t.len() != 3 {
        return Err(SimError::type_err(format!(
            "alu: expected 3-tuple, got {} elements",
            t.len()
        )));
    }
    let get = |i: usize| {
        t[i].as_word()
            .ok_or_else(|| SimError::type_err("alu: tuple elements must be words".to_owned()))
    };
    Ok((get(0)?, get(1)?, get(2)?))
}

impl Module for Alu {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match ctx.data(P_IN, 0) {
            Res::Unknown => Ok(()),
            Res::No => {
                ctx.send_nothing(P_OUT, 0)?;
                ctx.set_ack(P_IN, 0, true)
            }
            Res::Yes(v) => {
                let (op, a, b) = decode(&v)?;
                ctx.send(P_OUT, 0, Value::Word(compute(op, a, b)?))?;
                // Combinational and lossless: consume iff the result is.
                match ctx.ack(P_OUT, 0)? {
                    Res::Unknown => Ok(()),
                    Res::Yes(()) => ctx.set_ack(P_IN, 0, true),
                    Res::No => ctx.set_ack(P_IN, 0, false),
                }
            }
        }
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            ctx.count("ops", 1);
        }
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        // Share `compute` itself so the kernel's results (and unknown-op
        // errors) are bit-identical to the dynamic handler's. The
        // classifier only accepts the hint when the operand wire provably
        // carries (op, a, b) word tuples.
        Some(KernelHint::Alu { compute })
    }
}

const ALU_SPEC: ModuleSpec = ModuleSpec::fixed(
    "alu",
    &[PortSpec::input("in", 0, 1), PortSpec::output("out", 0, 1)],
)
.with_ack_in_react();

/// Construct an ALU.
pub fn alu(_params: &Params) -> Result<Instantiated, SimError> {
    Ok((ALU_SPEC, Box::new(Alu)))
}

/// Register the `alu` template.
pub fn register(reg: &mut Registry) {
    reg.register("pcl", "alu", "combinational (op, a, b) -> word ALU", alu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    #[test]
    fn compute_covers_all_ops() {
        assert_eq!(compute(0, 2, 3).unwrap(), 5);
        assert_eq!(compute(1, 2, 3).unwrap(), u64::MAX); // wrapping sub
        assert_eq!(compute(2, 0b1100, 0b1010).unwrap(), 0b1000);
        assert_eq!(compute(3, 0b1100, 0b1010).unwrap(), 0b1110);
        assert_eq!(compute(4, 0b1100, 0b1010).unwrap(), 0b0110);
        assert_eq!(compute(5, 1, 4).unwrap(), 16);
        assert_eq!(compute(6, 16, 4).unwrap(), 1);
        assert_eq!(compute(7, 6, 7).unwrap(), 42);
        assert_eq!(compute(8, u64::MAX, 0).unwrap(), 1); // -1 < 0 signed
        assert_eq!(compute(9, u64::MAX, 0).unwrap(), 0); // unsigned
        assert!(compute(99, 0, 0).is_err());
    }

    #[test]
    fn structural_alu_streams_results() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![
            op_value(0, 1, 2),
            op_value(7, 3, 4),
            op_value(4, 5, 5),
        ]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (a_spec, a_mod) = alu(&Params::new()).unwrap();
        let a = b.add("alu", a_spec, a_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", a, "in").unwrap();
        b.connect(a, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(5).unwrap();
        let got: Vec<u64> = h.values().iter().filter_map(Value::as_word).collect();
        assert_eq!(got, vec![3, 12, 0]);
        assert_eq!(sim.stats().counter(a, "ops"), 3);
    }

    #[test]
    fn malformed_input_errors() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Value::Word(1)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (a_spec, a_mod) = alu(&Params::new()).unwrap();
        let a = b.add("alu", a_spec, a_mod).unwrap();
        b.connect(s, "out", a, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        assert!(sim.step().is_err());
    }
}
