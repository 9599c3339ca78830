//! Data sources: scripted, repeating, and arithmetic-sequence generators.
//!
//! Sources anchor test benches and abstract workload models (the paper's
//! "statistical packet generator" pattern, §2.2, is a CCL source built the
//! same way).

use liberty_core::prelude::*;

const P_OUT: PortId = PortId(0);

/// Emits a fixed list of values in order on connection 0 of `out`,
/// advancing only when the current value is accepted.
struct ScriptSource {
    script: Vec<Value>,
    next: usize,
}

impl Module for ScriptSource {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        match self.script.get(self.next) {
            Some(v) => ctx.send(P_OUT, 0, v.clone()),
            None => ctx.send_nothing(P_OUT, 0),
        }
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            self.next += 1;
            ctx.count("emitted", 1);
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        // The script itself is configuration, not state: only the cursor
        // is durable.
        let mut w = StateWriter::new();
        w.put_len(self.next);
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.next = 0;
            return Ok(());
        }
        let mut r = StateReader::new(state);
        let next = r.get_u64()? as usize;
        r.expect_end()?;
        if next > self.script.len() {
            return Err(SimError::model(format!(
                "script_source: restored cursor {next} beyond script length {}",
                self.script.len()
            )));
        }
        self.next = next;
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        // The classifier checks that every script value has a uniform
        // unboxed shape; mixed or dynamic payloads stay on this handler.
        Some(KernelHint::ScriptSource {
            script: self.script.clone(),
        })
    }
}

const SCRIPT_SOURCE_SPEC: ModuleSpec =
    ModuleSpec::fixed("script_source", &[PortSpec::output("out", 0, 1)]);

/// A source that sends the given script of values, in order, retrying each
/// until accepted.
pub fn script(values: Vec<Value>) -> Instantiated {
    (
        SCRIPT_SOURCE_SPEC,
        Box::new(ScriptSource {
            script: values,
            next: 0,
        }),
    )
}

/// Emits the same value on every connection, every cycle.
struct RepeatingSource {
    value: Value,
}

impl Module for RepeatingSource {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_OUT) {
            ctx.send(P_OUT, i, self.value.clone())?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_OUT) {
            if ctx.transferred_out(P_OUT, i) {
                ctx.count("emitted", 1);
            }
        }
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        Some(KernelHint::RepeatingSource {
            value: self.value.clone(),
        })
    }
}

const REPEATING_SOURCE_SPEC: ModuleSpec =
    ModuleSpec::fixed("repeating_source", &[PortSpec::output("out", 0, u32::MAX)]);

/// A source that offers `value` on every connection every cycle.
pub fn repeating(value: Value) -> Instantiated {
    (REPEATING_SOURCE_SPEC, Box::new(RepeatingSource { value }))
}

/// Arithmetic word sequence source (the registry template).
struct SeqSource {
    start: u64,
    count: u64,
    next_val: u64,
    step: u64,
    remaining: u64,
    period: u64,
}

impl Module for SeqSource {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let due = self.remaining > 0 && ctx.now() % self.period == 0;
        if due {
            ctx.send(P_OUT, 0, Value::Word(self.next_val))
        } else {
            ctx.send_nothing(P_OUT, 0)
        }
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_OUT, 0) {
            self.next_val = self.next_val.wrapping_add(self.step);
            self.remaining -= 1;
            ctx.count("emitted", 1);
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        // `step` and `period` are configuration; the generator's durable
        // state is where the sequence stands.
        let mut w = StateWriter::new();
        w.put_u64(self.next_val);
        w.put_u64(self.remaining);
        Ok(w.into_bytes())
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.next_val = self.start;
            self.remaining = self.count;
            return Ok(());
        }
        let mut r = StateReader::new(state);
        self.next_val = r.get_u64()?;
        self.remaining = r.get_u64()?;
        r.expect_end()
    }

    fn specialize(&self) -> Option<KernelHint> {
        Some(KernelHint::SeqSource {
            start: self.start,
            count: self.count,
            step: self.step,
            period: self.period,
        })
    }
}

const SEQ_SOURCE_SPEC: ModuleSpec =
    ModuleSpec::fixed("seq_source", &[PortSpec::output("out", 0, 1)]);

/// Construct a sequence source.
///
/// Parameters: `start` (default 0), `step` (default 1), `count`
/// (default unbounded), `period` (emit every N cycles, default 1).
pub fn seq(params: &Params) -> Result<Instantiated, SimError> {
    let period = params.usize_or("period", 1)?.max(1) as u64;
    let start = params.int_or("start", 0)? as u64;
    let count = params.int_or("count", i64::MAX)? as u64;
    Ok((
        SEQ_SOURCE_SPEC,
        Box::new(SeqSource {
            start,
            count,
            next_val: start,
            step: params.int_or("step", 1)? as u64,
            remaining: count,
            period,
        }),
    ))
}

/// Register the `seq_source` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "seq_source",
        "arithmetic word sequence generator; params: start, step, count, period",
        seq,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;

    fn run_seq(params: Params, cycles: u64) -> Vec<u64> {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = seq(&params).unwrap();
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        h.values().iter().filter_map(Value::as_word).collect()
    }

    #[test]
    fn seq_emits_arithmetic_sequence() {
        let got = run_seq(Params::new().with("start", 5i64).with("step", 10i64), 4);
        assert_eq!(got, vec![5, 15, 25, 35]);
    }

    #[test]
    fn seq_count_limits_emissions() {
        let got = run_seq(Params::new().with("count", 2i64), 10);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn seq_period_throttles() {
        let got = run_seq(Params::new().with("period", 3i64), 9);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn script_source_retries_until_accepted() {
        // Covered end-to-end by queue backpressure tests; here just shape.
        let (spec, _m) = script(vec![Value::Word(1)]);
        assert_eq!(spec.template, "script_source");
        assert_eq!(spec.ports.len(), 1);
    }
}
