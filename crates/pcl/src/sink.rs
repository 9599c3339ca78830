//! Sinks: always-accepting consumers, with an optional collection handle
//! for test benches and workload analysis.

use liberty_core::prelude::*;
use parking_lot::Mutex;
use std::sync::Arc;

const P_IN: PortId = PortId(0);

/// Shared handle to the values a collecting sink has received.
#[derive(Clone, Default)]
pub struct Collected {
    inner: Arc<Mutex<Vec<Value>>>,
}

impl Collected {
    /// Snapshot of all values received so far, in arrival order
    /// (connection-index order within a cycle).
    pub fn values(&self) -> Vec<Value> {
        self.inner.lock().clone()
    }

    /// Number of values received so far.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been received.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

// The sink's durable numbers (received/sum counters) live in the central
// `Stats` store and are checkpointed there, so the default (stateless)
// `state_save`/`state_restore` hooks are correct. The optional
// `Collected` buffer is an external observation channel shared with the
// host — like a probe sink, it is deliberately not part of module state:
// a restored run re-collects only what it re-delivers.
struct Sink {
    collected: Option<Collected>,
}

impl Module for Sink {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_IN) {
            ctx.set_ack(P_IN, i, true)?;
        }
        Ok(())
    }
    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        for i in 0..ctx.width(P_IN) {
            if let Some(v) = ctx.transferred_in(P_IN, i) {
                ctx.count("received", 1);
                if let Some(w) = v.as_word() {
                    ctx.count("sum", w);
                }
                if let Some(c) = &self.collected {
                    c.inner.lock().push(v);
                }
            }
        }
        Ok(())
    }

    fn specialize(&self) -> Option<KernelHint> {
        // The collection buffer stays shared: the kernel pushes into the
        // same handle the dynamic handler would, at the same commits.
        let collect = self.collected.as_ref().map(|c| {
            let inner = Arc::clone(&c.inner);
            Arc::new(move |v: Value| inner.lock().push(v)) as SinkCollect
        });
        Some(KernelHint::Sink { collect })
    }
}

// Commit only counts received transfers; idle steps are skipped.
const SINK_SPEC: ModuleSpec =
    ModuleSpec::fixed("sink", &[PortSpec::input("in", 0, u32::MAX)]).commit_only_when_active();

/// An always-accepting sink that counts (and checksums) what it receives.
pub fn counting(_params: &Params) -> Result<Instantiated, SimError> {
    Ok((SINK_SPEC, Box::new(Sink { collected: None })))
}

/// An always-accepting sink that additionally stores every received value,
/// exposed through the returned [`Collected`] handle.
pub fn collecting() -> (ModuleSpec, Box<dyn Module>, Collected) {
    let handle = Collected::default();
    (
        SINK_SPEC,
        Box::new(Sink {
            collected: Some(handle.clone()),
        }),
        handle,
    )
}

/// Register the `sink` template.
pub fn register(reg: &mut Registry) {
    reg.register("pcl", "sink", "always-accepting counting sink", counting);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source;

    #[test]
    fn counting_sink_counts_and_checksums() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Value::Word(2), Value::Word(5)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (k_spec, k_mod) = counting(&Params::new()).unwrap();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(5).unwrap();
        assert_eq!(sim.stats().counter(k, "received"), 2);
        assert_eq!(sim.stats().counter(k, "sum"), 7);
    }

    #[test]
    fn collecting_sink_stores_values() {
        let (spec, module, h) = collecting();
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Value::Word(9)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let k = b.add("k", spec, module).unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        assert!(h.is_empty());
        sim.run(2).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(h.values()[0].as_word(), Some(9));
    }
}
