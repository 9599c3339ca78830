//! A blocking, set-associative, write-through cache.
//!
//! Sits between a [`crate::memstage`] (or any MemReq producer) and a
//! backing store speaking the same request/response protocol — typically
//! the PCL `mem_array`, demonstrating the paper's claim that the memory
//! array primitive "can double as bus queuing buffers for CCL as well as
//! caches in UPL" (§3.1): here it is the DRAM behind the cache, and this
//! module layers tags, replacement, and refill on top.
//!
//! ## Ports
//! * `req` (in, 1) / `resp` (out, 1): the CPU side.
//! * `mreq` (out, 1) / `mresp` (in, 1): the memory side.
//!
//! ## Parameters
//! * `sets` (int, default 16), `ways` (int, default 2), `line_words`
//!   (int, default 4).
//!
//! Policy: read-allocate, write-through, no-allocate-on-write-miss,
//! LRU replacement, one outstanding miss (blocking).

use liberty_core::prelude::*;
use liberty_pcl::memarray::{MemReq, MemResp};
use std::collections::VecDeque;

const P_REQ: PortId = PortId(0);
const P_RESP: PortId = PortId(1);
const P_MREQ: PortId = PortId(2);
const P_MRESP: PortId = PortId(3);

struct Line {
    tag: u64,
    data: Vec<u64>,
    stamp: u64,
}

enum Mode {
    Idle,
    /// Refilling a line for a read miss: issue `line_words` reads, collect
    /// the words, install, respond.
    Refill {
        orig: MemReq,
        base: u64,
        got: Vec<Option<u64>>,
        sent: usize,
    },
    /// Write-through in flight: waiting for the backing store to confirm.
    Store {
        orig: MemReq,
        sent: bool,
    },
}

/// The cache module. Construct with [`cache`].
pub struct Cache {
    sets: usize,
    line_words: usize,
    lines: Vec<Vec<Option<Line>>>,
    stamp: u64,
    mode: Mode,
    ready: VecDeque<(u64, MemResp)>,
}

impl Cache {
    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_words as u64) as usize) % self.sets
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_words as u64 / self.sets as u64
    }

    fn offset_of(&self, addr: u64) -> usize {
        (addr % self.line_words as u64) as usize
    }

    fn lookup(&mut self, addr: u64) -> Option<&mut Line> {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.lines[set].iter_mut().flatten().find(|l| l.tag == tag)
    }

    fn install(&mut self, addr: u64, data: Vec<u64>) {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = &mut self.lines[set];
        // Fill an empty way, else evict LRU (write-through: never dirty).
        let slot = if let Some(empty) = ways.iter_mut().find(|w| w.is_none()) {
            empty
        } else {
            ways.iter_mut()
                .min_by_key(|w| w.as_ref().map(|l| l.stamp).unwrap_or(0))
                .expect("ways nonempty")
        };
        *slot = Some(Line { tag, data, stamp });
    }
}

impl Module for Cache {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        // CPU-side response.
        match self.ready.front() {
            Some((due, r)) if *due <= ctx.now() => ctx.send(P_RESP, 0, Value::wrap(r.clone()))?,
            _ => ctx.send_nothing(P_RESP, 0)?,
        }
        // Accept a new request only when idle.
        ctx.set_ack(P_REQ, 0, matches!(self.mode, Mode::Idle))?;
        // Memory-side request, from the mode state machine.
        match &self.mode {
            Mode::Idle => ctx.send_nothing(P_MREQ, 0)?,
            Mode::Refill {
                base, got, sent, ..
            } => {
                if *sent < self.line_words {
                    debug_assert!(got[*sent].is_none());
                    ctx.send(
                        P_MREQ,
                        0,
                        Value::wrap(MemReq {
                            write: false,
                            addr: base + *sent as u64,
                            data: 0,
                            tag: *sent as u64,
                        }),
                    )?;
                } else {
                    ctx.send_nothing(P_MREQ, 0)?;
                }
            }
            Mode::Store { orig, sent } => {
                if !*sent {
                    ctx.send(
                        P_MREQ,
                        0,
                        Value::wrap(MemReq {
                            write: true,
                            addr: orig.addr,
                            data: orig.data,
                            tag: orig.tag,
                        }),
                    )?;
                } else {
                    ctx.send_nothing(P_MREQ, 0)?;
                }
            }
        }
        ctx.set_ack(P_MRESP, 0, true)?;
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        if ctx.transferred_out(P_RESP, 0) {
            self.ready.pop_front();
        }
        let now = ctx.now();
        // Progress the miss/store machinery.
        let mresp = ctx
            .transferred_in(P_MRESP, 0)
            .map(|v| {
                v.downcast_ref::<MemResp>().cloned().ok_or_else(|| {
                    SimError::type_err(format!("cache: expected MemResp, got {}", v.kind()))
                })
            })
            .transpose()?;
        let mreq_sent = ctx.transferred_out(P_MREQ, 0);
        let mut finish: Option<(MemReq, Option<Vec<u64>>)> = None;
        match &mut self.mode {
            Mode::Idle => {}
            Mode::Refill {
                orig,
                base: _,
                got,
                sent,
            } => {
                if mreq_sent {
                    *sent += 1;
                }
                if let Some(r) = &mresp {
                    got[r.tag as usize] = Some(r.data);
                }
                if got.iter().all(Option::is_some) {
                    let data: Vec<u64> = got.iter().map(|w| w.expect("complete")).collect();
                    finish = Some((orig.clone(), Some(data)));
                }
            }
            Mode::Store { orig, sent } => {
                if mreq_sent {
                    *sent = true;
                }
                if let Some(r) = &mresp {
                    debug_assert_eq!(r.tag, orig.tag);
                    finish = Some((orig.clone(), None));
                }
            }
        }
        match finish {
            Some((orig, Some(data))) => {
                let value = data[self.offset_of(orig.addr)];
                self.install(orig.addr, data);
                self.ready.push_back((
                    now + 1,
                    MemResp {
                        tag: orig.tag,
                        data: value,
                    },
                ));
                self.mode = Mode::Idle;
            }
            Some((orig, None)) => {
                self.ready.push_back((
                    now + 1,
                    MemResp {
                        tag: orig.tag,
                        data: orig.data,
                    },
                ));
                self.mode = Mode::Idle;
            }
            None => {}
        }
        // Accept a new CPU request.
        if let Some(v) = ctx.transferred_in(P_REQ, 0) {
            let r = v.downcast_ref::<MemReq>().cloned().ok_or_else(|| {
                SimError::type_err(format!("cache: expected MemReq, got {}", v.kind()))
            })?;
            let line_words = self.line_words;
            if r.write {
                // Write-through: update a hit line, always go to memory.
                if let Some(line) = self.lookup(r.addr) {
                    let off = (r.addr % line_words as u64) as usize;
                    line.data[off] = r.data;
                    ctx.count("write_hits", 1);
                } else {
                    ctx.count("write_misses", 1);
                }
                self.mode = Mode::Store {
                    orig: r,
                    sent: false,
                };
            } else if self.lookup(r.addr).is_some() {
                self.stamp += 1;
                let stamp = self.stamp;
                let off = (r.addr % line_words as u64) as usize;
                let line = self.lookup(r.addr).expect("hit");
                let value = line.data[off];
                line.stamp = stamp;
                self.ready.push_back((
                    now + 1,
                    MemResp {
                        tag: r.tag,
                        data: value,
                    },
                ));
                ctx.count("read_hits", 1);
            } else {
                ctx.count("read_misses", 1);
                let base = (r.addr / line_words as u64) * line_words as u64;
                self.mode = Mode::Refill {
                    orig: r,
                    base,
                    got: vec![None; line_words],
                    sent: 0,
                };
            }
        }
        Ok(())
    }
}

const CACHE_SPEC: ModuleSpec = ModuleSpec::fixed(
    "cache",
    &[
        PortSpec::input("req", 0, 1),
        PortSpec::output("resp", 0, 1),
        PortSpec::output("mreq", 1, 1),
        PortSpec::input("mresp", 1, 1),
    ],
);

/// Construct a cache (see module docs).
pub fn cache(params: &Params) -> Result<Instantiated, SimError> {
    let sets = params.usize_or("sets", 16)?.max(1);
    let ways = params.usize_or("ways", 2)?.max(1);
    let line_words = params.usize_or("line_words", 4)?.max(1);
    Ok((
        CACHE_SPEC,
        Box::new(Cache {
            sets,
            line_words,
            lines: (0..sets)
                .map(|_| (0..ways).map(|_| None).collect())
                .collect(),
            stamp: 0,
            mode: Mode::Idle,
            ready: VecDeque::new(),
        }),
    ))
}

/// Register the `cache` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "upl",
        "cache",
        "blocking set-associative write-through cache; params: sets, ways, line_words",
        cache,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use liberty_pcl::memarray;
    use liberty_pcl::sink;
    use liberty_pcl::source;

    /// source -> cache -> mem_array, responses collected.
    fn run_cache(script: Vec<Value>, cycles: u64) -> (Vec<MemResp>, Simulator, InstanceId) {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(script);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (c_spec, c_mod) = cache(
            &Params::new()
                .with("sets", 4i64)
                .with("ways", 2i64)
                .with("line_words", 4i64),
        )
        .unwrap();
        let c = b.add("c", c_spec, c_mod).unwrap();
        let (m_spec, m_mod) =
            memarray::mem_array(&Params::new().with("words", 256i64).with("latency", 3i64))
                .unwrap();
        let m = b.add("m", m_spec, m_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", c, "req").unwrap();
        b.connect(c, "resp", k, "in").unwrap();
        b.connect(c, "mreq", m, "req").unwrap();
        b.connect(m, "resp", c, "mresp").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        let resps = h
            .values()
            .iter()
            .filter_map(|v| v.downcast_ref::<MemResp>().cloned())
            .collect();
        (resps, sim, c)
    }

    #[test]
    fn read_after_write_returns_value() {
        let (resps, sim, c) = run_cache(vec![MemReq::write(10, 99, 0), MemReq::read(10, 1)], 60);
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[1], MemResp { tag: 1, data: 99 });
        let s = sim.stats();
        // The write misses (no-allocate), the read misses then refills.
        assert_eq!(s.counter(c, "write_misses"), 1);
        assert_eq!(s.counter(c, "read_misses"), 1);
    }

    #[test]
    fn spatial_locality_hits_after_refill() {
        let script: Vec<Value> = (0..4).map(|i| MemReq::read(i, i)).collect();
        let (resps, sim, c) = run_cache(script, 80);
        assert_eq!(resps.len(), 4);
        let s = sim.stats();
        // Words 0..4 share one line: 1 miss, 3 hits.
        assert_eq!(s.counter(c, "read_misses"), 1);
        assert_eq!(s.counter(c, "read_hits"), 3);
    }

    #[test]
    fn repeated_access_hits() {
        let script: Vec<Value> = (0..6).map(|i| MemReq::read(20, i)).collect();
        let (resps, sim, c) = run_cache(script, 80);
        assert_eq!(resps.len(), 6);
        assert_eq!(sim.stats().counter(c, "read_misses"), 1);
        assert_eq!(sim.stats().counter(c, "read_hits"), 5);
    }

    #[test]
    fn write_updates_cached_line() {
        // read 8 (allocates line), write 8, read 8 again -> hit with new
        // value.
        let (resps, _, _) = run_cache(
            vec![
                MemReq::read(8, 0),
                MemReq::write(8, 55, 1),
                MemReq::read(8, 2),
            ],
            80,
        );
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[2].data, 55);
    }

    #[test]
    fn conflict_evictions_with_lru() {
        // sets=4, line_words=4: addresses 0, 16, 32 map to set 0 with
        // different tags; ways=2 so the third allocation evicts the LRU.
        let script = vec![
            MemReq::read(0, 0),
            MemReq::read(16, 1),
            MemReq::read(32, 2),
            MemReq::read(0, 3), // evicted? 0 was LRU -> miss again
        ];
        let (resps, sim, c) = run_cache(script, 160);
        assert_eq!(resps.len(), 4);
        assert_eq!(sim.stats().counter(c, "read_misses"), 4);
    }

    #[test]
    fn responses_in_request_order() {
        let script: Vec<Value> = vec![
            MemReq::read(0, 100),
            MemReq::read(64, 101),
            MemReq::read(1, 102),
        ];
        let (resps, _, _) = run_cache(script, 120);
        let tags: Vec<u64> = resps.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![100, 101, 102]);
    }
}
