//! Memory array — the paper's example of a primitive that "can double as
//! bus queuing buffers for CCL as well as caches in UPL" (§3).
//!
//! A word-addressed storage array with request/response ports and a fixed
//! access latency. Each request connection index pairs with the same
//! response connection index, so multiple agents can share one array.
//!
//! ## Ports
//! * `req` (input, any width): [`MemReq`] requests.
//! * `resp` (output, same width): [`MemResp`] responses, `latency` cycles
//!   after acceptance.
//!
//! ## Parameters
//! * `words` (int, default 1024) — storage size in 64-bit words.
//! * `latency` (int, default 1) — access latency in cycles.
//! * `inflight` (int, default 4) — accepted-but-unanswered capacity per
//!   connection.

use liberty_core::prelude::*;
use std::collections::VecDeque;

const P_REQ: PortId = PortId(0);
const P_RESP: PortId = PortId(1);

/// A memory request.
#[derive(Clone, Debug, PartialEq)]
pub struct MemReq {
    /// True = write `data` to `addr`; false = read `addr`.
    pub write: bool,
    /// Word address.
    pub addr: u64,
    /// Data to write (ignored on reads).
    pub data: u64,
    /// Opaque tag echoed in the response.
    pub tag: u64,
}

impl MemReq {
    /// A read request as a connection value.
    pub fn read(addr: u64, tag: u64) -> Value {
        Value::wrap(MemReq {
            write: false,
            addr,
            data: 0,
            tag,
        })
    }

    /// A write request as a connection value.
    pub fn write(addr: u64, data: u64, tag: u64) -> Value {
        Value::wrap(MemReq {
            write: true,
            addr,
            data,
            tag,
        })
    }
}

/// Layout: `[write, addr, data, tag]`.
impl Payload for MemReq {
    const KIND: &'static str = "pcl.MemReq";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(u64::from(self.write));
        out.word(self.addr);
        out.word(self.data);
        out.word(self.tag);
    }
}

/// A memory response.
#[derive(Clone, Debug, PartialEq)]
pub struct MemResp {
    /// Echo of the request tag.
    pub tag: u64,
    /// Read data (for writes: the value written).
    pub data: u64,
}

/// Layout: `[tag, data]`.
impl Payload for MemResp {
    const KIND: &'static str = "pcl.MemResp";
    fn encode(&self, out: &mut dyn WordSink) {
        out.word(self.tag);
        out.word(self.data);
    }
}

/// Shared observable storage for [`mem_array_shared`].
pub type SharedMem = std::sync::Arc<parking_lot::Mutex<Vec<u64>>>;

// `MemResp` rides the wires as `Value::Opaque`, whose payloads encode to
// words but have no decoder — so the array's checkpoint codec flattens
// each pending response to `(ready_at, tag, data)` words by hand. Both
// array flavours share the one codec.
fn save_mem_state(
    words: &[u64],
    pending: &[VecDeque<(u64, MemResp)>],
) -> Result<Vec<u8>, SimError> {
    let mut w = StateWriter::new();
    w.put_len(words.len());
    for &x in words {
        w.put_u64(x);
    }
    w.put_len(pending.len());
    for q in pending {
        w.put_len(q.len());
        for (ready, resp) in q {
            w.put_u64(*ready);
            w.put_u64(resp.tag);
            w.put_u64(resp.data);
        }
    }
    Ok(w.into_bytes())
}

type MemState = (Vec<u64>, Vec<VecDeque<(u64, MemResp)>>);

fn restore_mem_state(
    state: &[u8],
    n_words: usize,
    inflight_cap: usize,
) -> Result<MemState, SimError> {
    let mut r = StateReader::new(state);
    let n = r.get_len()?;
    if n != n_words {
        return Err(SimError::model(format!(
            "mem_array: restored word count {n} does not match configured {n_words}"
        )));
    }
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(r.get_u64()?);
    }
    let n_conns = r.get_len()?;
    let mut pending = Vec::with_capacity(n_conns);
    for _ in 0..n_conns {
        let n_resp = r.get_len()?;
        if n_resp > inflight_cap {
            return Err(SimError::model(format!(
                "mem_array: restored in-flight count {n_resp} exceeds capacity {inflight_cap}"
            )));
        }
        let mut q = VecDeque::with_capacity(n_resp);
        for _ in 0..n_resp {
            let ready = r.get_u64()?;
            let tag = r.get_u64()?;
            let data = r.get_u64()?;
            q.push_back((ready, MemResp { tag, data }));
        }
        pending.push(q);
    }
    r.expect_end()?;
    Ok((words, pending))
}

struct SharedArray {
    words: SharedMem,
    latency: u64,
    inflight_cap: usize,
    pending: Vec<VecDeque<(u64, MemResp)>>,
}

impl Module for SharedArray {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let w = ctx.width(P_REQ);
        for i in 0..w {
            let q = self.pending.get(i);
            match q.and_then(|q| q.front()) {
                Some((ready, resp)) if *ready <= ctx.now() => {
                    ctx.send(P_RESP, i, Value::wrap(resp.clone()))?
                }
                _ => ctx.send_nothing(P_RESP, i)?,
            }
            let room = q.map(|q| q.len()).unwrap_or(0) < self.inflight_cap;
            ctx.set_ack(P_REQ, i, room)?;
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let w = ctx.width(P_REQ);
        if self.pending.len() < w {
            self.pending.resize_with(w, VecDeque::new);
        }
        for i in 0..w {
            if ctx.transferred_out(P_RESP, i) {
                self.pending[i].pop_front();
                ctx.count("responses", 1);
            }
            if let Some(v) = ctx.transferred_in(P_REQ, i) {
                let req = v.downcast_ref::<MemReq>().ok_or_else(|| {
                    SimError::type_err(format!("mem_array: expected MemReq, got {}", v.kind()))
                })?;
                let mut words = self.words.lock();
                let idx = (req.addr as usize) % words.len();
                let data = if req.write {
                    words[idx] = req.data;
                    ctx.count("writes", 1);
                    req.data
                } else {
                    ctx.count("reads", 1);
                    words[idx]
                };
                self.pending[i]
                    .push_back((ctx.now() + self.latency, MemResp { tag: req.tag, data }));
            }
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        save_mem_state(&self.words.lock(), &self.pending)
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.words.lock().iter_mut().for_each(|w| *w = 0);
            self.pending.clear();
            return Ok(());
        }
        let n_words = self.words.lock().len();
        let (words, pending) = restore_mem_state(state, n_words, self.inflight_cap)?;
        *self.words.lock() = words;
        self.pending = pending;
        Ok(())
    }
}

const MEM_ARRAY_SPEC: ModuleSpec = ModuleSpec::fixed(
    "mem_array",
    &[
        PortSpec::input("req", 0, u32::MAX),
        PortSpec::output("resp", 0, u32::MAX),
    ],
);

/// Like [`mem_array`] but the storage is externally observable through the
/// returned handle — used by processor models whose final memory state is
/// checked against the functional emulator.
pub fn mem_array_shared(
    params: &Params,
) -> Result<(ModuleSpec, Box<dyn Module>, SharedMem), SimError> {
    let words = params.usize_or("words", 1024)?;
    if words == 0 {
        return Err(SimError::param("mem_array: words must be >= 1"));
    }
    let latency = params.usize_or("latency", 1)? as u64;
    let inflight = params.usize_or("inflight", 4)?.max(1);
    let handle: SharedMem = std::sync::Arc::new(parking_lot::Mutex::new(vec![0; words]));
    Ok((
        MEM_ARRAY_SPEC,
        Box::new(SharedArray {
            words: handle.clone(),
            latency,
            inflight_cap: inflight,
            pending: Vec::new(),
        }),
        handle,
    ))
}

struct MemArray {
    words: Vec<u64>,
    latency: u64,
    inflight_cap: usize,
    /// Per-connection pending responses: (ready_at, resp).
    pending: Vec<VecDeque<(u64, MemResp)>>,
}

impl Module for MemArray {
    fn react(&mut self, ctx: &mut ReactCtx<'_>) -> Result<(), SimError> {
        let w = ctx.width(P_REQ);
        for i in 0..w {
            let q = self.pending.get(i);
            // Offer a due response.
            match q.and_then(|q| q.front()) {
                Some((ready, resp)) if *ready <= ctx.now() => {
                    ctx.send(P_RESP, i, Value::wrap(resp.clone()))?
                }
                _ => ctx.send_nothing(P_RESP, i)?,
            }
            // Accept a new request if there is room.
            let room = q.map(|q| q.len()).unwrap_or(0) < self.inflight_cap;
            ctx.set_ack(P_REQ, i, room)?;
        }
        Ok(())
    }

    fn commit(&mut self, ctx: &mut CommitCtx<'_>) -> Result<(), SimError> {
        let w = ctx.width(P_REQ);
        if self.pending.len() < w {
            self.pending.resize_with(w, VecDeque::new);
        }
        for i in 0..w {
            if ctx.transferred_out(P_RESP, i) {
                self.pending[i].pop_front();
                ctx.count("responses", 1);
            }
            if let Some(v) = ctx.transferred_in(P_REQ, i) {
                let req = v.downcast_ref::<MemReq>().ok_or_else(|| {
                    SimError::type_err(format!("mem_array: expected MemReq, got {}", v.kind()))
                })?;
                let idx = (req.addr as usize) % self.words.len();
                let data = if req.write {
                    self.words[idx] = req.data;
                    ctx.count("writes", 1);
                    req.data
                } else {
                    ctx.count("reads", 1);
                    self.words[idx]
                };
                self.pending[i]
                    .push_back((ctx.now() + self.latency, MemResp { tag: req.tag, data }));
            }
        }
        Ok(())
    }

    fn state_save(&self) -> Result<Vec<u8>, SimError> {
        save_mem_state(&self.words, &self.pending)
    }

    fn state_restore(&mut self, state: &[u8]) -> Result<(), SimError> {
        if state.is_empty() {
            self.words.iter_mut().for_each(|w| *w = 0);
            self.pending.clear();
            return Ok(());
        }
        let (words, pending) = restore_mem_state(state, self.words.len(), self.inflight_cap)?;
        self.words = words;
        self.pending = pending;
        Ok(())
    }
}

/// Construct a memory array (see module docs).
pub fn mem_array(params: &Params) -> Result<Instantiated, SimError> {
    let words = params.usize_or("words", 1024)?;
    if words == 0 {
        return Err(SimError::param("mem_array: words must be >= 1"));
    }
    let latency = params.usize_or("latency", 1)? as u64;
    let inflight = params.usize_or("inflight", 4)?.max(1);
    Ok((
        MEM_ARRAY_SPEC,
        Box::new(MemArray {
            words: vec![0; words],
            latency,
            inflight_cap: inflight,
            pending: Vec::new(),
        }),
    ))
}

/// Register the `mem_array` template.
pub fn register(reg: &mut Registry) {
    reg.register(
        "pcl",
        "mem_array",
        "word storage with request/response ports; params: words, latency, inflight",
        mem_array,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink;
    use crate::source;

    fn run_mem(script: Vec<Value>, latency: i64, cycles: u64) -> Vec<MemResp> {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(script);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (m_spec, m_mod) =
            mem_array(&Params::new().with("words", 64i64).with("latency", latency)).unwrap();
        let m = b.add("m", m_spec, m_mod).unwrap();
        let (k_spec, k_mod, h) = sink::collecting();
        let k = b.add("k", k_spec, k_mod).unwrap();
        b.connect(s, "out", m, "req").unwrap();
        b.connect(m, "resp", k, "in").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        sim.run(cycles).unwrap();
        h.values()
            .iter()
            .filter_map(|v| v.downcast_ref::<MemResp>().cloned())
            .collect()
    }

    #[test]
    fn write_then_read_returns_written_value() {
        let resps = run_mem(vec![MemReq::write(5, 42, 100), MemReq::read(5, 101)], 1, 10);
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[0], MemResp { tag: 100, data: 42 });
        assert_eq!(resps[1], MemResp { tag: 101, data: 42 });
    }

    #[test]
    fn uninitialized_reads_zero() {
        let resps = run_mem(vec![MemReq::read(9, 7)], 1, 5);
        assert_eq!(resps, vec![MemResp { tag: 7, data: 0 }]);
    }

    #[test]
    fn latency_delays_response() {
        // Request accepted cycle 0 -> response offered at now >= latency.
        let resps = run_mem(vec![MemReq::read(0, 1)], 3, 3);
        assert!(resps.is_empty());
        let resps = run_mem(vec![MemReq::read(0, 1)], 3, 4);
        assert_eq!(resps.len(), 1);
    }

    #[test]
    fn addresses_wrap_modulo_size() {
        let resps = run_mem(vec![MemReq::write(64 + 3, 9, 0), MemReq::read(3, 1)], 1, 10);
        assert_eq!(resps[1].data, 9);
    }

    #[test]
    fn responses_preserve_request_order() {
        let script: Vec<Value> = (0..6).map(|i| MemReq::read(i, i)).collect();
        let resps = run_mem(script, 2, 20);
        let tags: Vec<u64> = resps.iter().map(|r| r.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn invalid_request_type_errors() {
        let mut b = NetlistBuilder::new();
        let (s_spec, s_mod) = source::script(vec![Value::Word(1)]);
        let s = b.add("s", s_spec, s_mod).unwrap();
        let (m_spec, m_mod) = mem_array(&Params::new()).unwrap();
        let m = b.add("m", m_spec, m_mod).unwrap();
        b.connect(s, "out", m, "req").unwrap();
        let mut sim = Simulator::new(b.build().unwrap(), SchedKind::Compiled);
        assert!(sim.step().is_err());
    }

    #[test]
    fn zero_words_rejected() {
        assert!(mem_array(&Params::new().with("words", 0i64)).is_err());
    }
}
