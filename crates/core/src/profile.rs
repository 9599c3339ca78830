//! Per-module wall-clock profiler built on the [`Probe`] step log.
//!
//! Every handler invocation is one react or commit record carrying its
//! wall time, so attributing time to instances needs no support from the
//! modules themselves — attach [`Profiler::new`]'s probe, run, and ask
//! the handle for a hot-spot table:
//!
//! ```text
//! instance              react ms  (calls)   commit ms  (calls)   total ms     %
//! core.fetch              12.41   (100000)      3.02   (100000)     15.43  41.2
//! ...
//! ```
//!
//! The engine times each handler with `std::time::Instant` only while a
//! probe asks for handler records; the shared accumulator lock is taken
//! once a step. That cost is paid only when the profiler is attached —
//! see `docs/OBSERVABILITY.md` for measured overhead.

use crate::probe::{Interest, Probe, Record, StepLog};
use crate::topology::Topology;
use std::sync::{Arc, Mutex};

/// One row per instance, in id order.
type ProfileData = Arc<Mutex<Vec<ProfileRow>>>;

/// Probe half of the profiler; see [`Profiler::new`].
pub struct ProfileProbe {
    data: ProfileData,
}

/// Read handle; ask for a [`ProfileReport`] after (or during) a run.
#[derive(Clone)]
pub struct ProfileHandle {
    data: ProfileData,
}

/// Namespace for constructing the probe/handle pair.
pub struct Profiler;

impl Profiler {
    /// Create a profiling probe and the handle that reads its report.
    #[allow(clippy::new_ret_no_self)] // `Profiler` is a factory namespace, not a type
    pub fn new() -> (ProfileProbe, ProfileHandle) {
        let data = ProfileData::default();
        (ProfileProbe { data: data.clone() }, ProfileHandle { data })
    }
}

/// One row of the hot-spot table.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Instance name.
    pub name: String,
    /// Nanoseconds spent in `react`.
    pub react_ns: u64,
    /// `react` invocations.
    pub reacts: u64,
    /// Nanoseconds spent in `commit`.
    pub commit_ns: u64,
    /// `commit` invocations.
    pub commits: u64,
}

impl ProfileRow {
    /// Total handler nanoseconds for this instance.
    pub fn total_ns(&self) -> u64 {
        self.react_ns + self.commit_ns
    }
}

/// Snapshot of accumulated per-instance handler time, hottest first.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Rows sorted by descending total handler time.
    pub rows: Vec<ProfileRow>,
}

impl ProfileReport {
    /// Sum of handler time across all instances.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(ProfileRow::total_ns).sum()
    }

    /// The hot-spot table as printable text. `top` limits the row count
    /// (0 = all rows).
    pub fn render_table(&self, top: usize) -> String {
        let total = self.total_ns().max(1) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>10} {:>9} {:>10} {:>9} {:>10} {:>6}\n",
            "instance", "react ms", "(calls)", "commit ms", "(calls)", "total ms", "%"
        ));
        let n = if top == 0 {
            self.rows.len()
        } else {
            top.min(self.rows.len())
        };
        for r in &self.rows[..n] {
            out.push_str(&format!(
                "{:<28} {:>10.3} {:>9} {:>10.3} {:>9} {:>10.3} {:>6.1}\n",
                r.name,
                r.react_ns as f64 / 1e6,
                r.reacts,
                r.commit_ns as f64 / 1e6,
                r.commits,
                r.total_ns() as f64 / 1e6,
                100.0 * r.total_ns() as f64 / total,
            ));
        }
        if n < self.rows.len() {
            out.push_str(&format!("... {} more instances\n", self.rows.len() - n));
        }
        out
    }
}

impl ProfileHandle {
    /// Snapshot the accumulated profile, hottest instance first.
    pub fn report(&self) -> ProfileReport {
        let data = self.data.lock().expect("profile lock");
        let mut rows: Vec<ProfileRow> = data
            .iter()
            .filter(|p| p.reacts + p.commits > 0)
            .cloned()
            .collect();
        rows.sort_by(|a, b| b.total_ns().cmp(&a.total_ns()).then(a.name.cmp(&b.name)));
        ProfileReport { rows }
    }
}

impl Probe for ProfileProbe {
    fn attach(&mut self, topo: &Topology) {
        let mut data = self.data.lock().expect("profile lock");
        *data = topo
            .instance_names()
            .map(|name| ProfileRow {
                name: name.to_owned(),
                react_ns: 0,
                reacts: 0,
                commit_ns: 0,
                commits: 0,
            })
            .collect();
    }

    fn interest(&self) -> Interest {
        Interest {
            handlers: true,
            resolves: false,
        }
    }

    fn step(&mut self, log: &StepLog<'_>) {
        let mut data = self.data.lock().expect("profile lock");
        for r in log.records {
            match r {
                Record::React(h) => {
                    let p = &mut data[h.inst.0 as usize];
                    p.react_ns += h.ns;
                    p.reacts += 1;
                }
                Record::Commit(h) => {
                    let p = &mut data[h.inst.0 as usize];
                    p.commit_ns += h.ns;
                    p.commits += 1;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::exec::{CommitCtx, ReactCtx, SchedKind, Simulator};
    use crate::module::{Module, ModuleSpec, PortId};
    use crate::netlist::NetlistBuilder;
    use crate::value::Value;

    struct Busy(u32);
    impl Module for Busy {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            // Burn a deterministic amount of work so the row is non-zero.
            let mut acc = self.0 as u64;
            for i in 0..2000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            ctx.send(PortId(0), 0, Value::Word(acc))
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }
    struct Snk;
    impl Module for Snk {
        fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
            ctx.set_ack(PortId(0), 0, true)
        }
        fn commit(&mut self, _: &mut CommitCtx<'_>) -> Result<(), SimError> {
            Ok(())
        }
    }

    #[test]
    fn profiler_attributes_time_and_sorts_rows() {
        let mut b = NetlistBuilder::new();
        let s = b
            .add(
                "busy",
                ModuleSpec::new("busy").output("out", 1, 1),
                Box::new(Busy(7)),
            )
            .unwrap();
        let k = b
            .add(
                "snk",
                ModuleSpec::new("snk").input("in", 1, 1),
                Box::new(Snk),
            )
            .unwrap();
        b.connect(s, "out", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Sweep);
        let (probe, handle) = Profiler::new();
        sim.set_probe(Box::new(probe));
        sim.run(50).unwrap();

        let report = handle.report();
        assert_eq!(report.rows.len(), 2);
        // Sweep re-sweeps to quiescence, so each step costs >=1 react.
        assert!(report.rows[0].reacts >= 50, "{}", report.rows[0].reacts);
        assert!(report.rows.iter().any(|r| r.name == "busy"));
        assert!(report.total_ns() > 0);
        // Rows are sorted hottest-first.
        assert!(report.rows[0].total_ns() >= report.rows[1].total_ns());

        let table = report.render_table(0);
        assert!(table.contains("instance"), "{table}");
        assert!(table.contains("busy"), "{table}");
        let limited = report.render_table(1);
        assert!(limited.contains("... 1 more instances"), "{limited}");
    }

    #[test]
    fn unexercised_instances_are_omitted() {
        let report = ProfileReport::default();
        assert_eq!(report.total_ns(), 0);
        assert!(report.render_table(5).contains("instance"));
    }
}
