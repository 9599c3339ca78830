//! Versioned checkpoints of the full simulator state.
//!
//! LSE's fixed reactive MoC makes a time-step a pure function of
//! (topology, signal state, module state) — and every wire of every
//! connection re-resolves from `Unknown` at the start of each step, so
//! at a **step boundary** the signal store carries no live information
//! at all. A checkpoint therefore needs only the durable state: the step
//! counter, the engine counters, the cumulative per-edge transfer
//! counts, the statistics store, the quarantine set and one opaque blob
//! per module instance (produced by [`crate::module::Module::state_save`]).
//! Restoring into an identically built simulator resumes the run with
//! byte-identical canonical probe streams under every scheduler — the
//! round-trip property `crates/bench/tests/roundtrip.rs` holds the
//! kernel to.
//!
//! The on-disk format is deliberately dependency-free: little-endian,
//! length-prefixed fields inside a checksummed envelope
//!
//! ```text
//! magic "LSEC" | version u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! with the CRC32 (IEEE, table-driven) computed over the payload bytes.
//! Corruption is diagnosed structurally — bad magic, version mismatch,
//! checksum failure, truncation — via [`CheckpointError`], and files are
//! written atomically (temp file + rename) so a crash mid-write can
//! never leave a half checkpoint under the real name.
//!
//! The fault plan itself is *not* part of a snapshot: plan activation is
//! a pure function of the step number, so reinstalling the same plan
//! (same seed) on the restored simulator reproduces the same injections.
//! Hosts that rely on recovery's fault masking re-arm plans through
//! [`crate::exec::Simulator::set_fault_plan`] as usual.

use crate::error::{CheckpointError, SimError};
use crate::exec::EngineMetrics;
use crate::stats::{Histogram, Sample, Stats, StatsDump};
use crate::value::Value;
use std::path::Path;
use std::sync::Arc;

/// First four bytes of every checkpoint file.
pub const MAGIC: [u8; 4] = *b"LSEC";

/// The checkpoint format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;

/// Envelope bytes before the payload: magic + version + payload length.
const HEADER_LEN: usize = 4 + 4 + 8;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero
/// bytes, so eight input bytes fold into the sum with eight independent
/// lookups. Replica streams are summed as they are written, which puts
/// this loop on the sweep's hot path (a third of a replica's run with
/// the one-table loop).
const CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut k = 1;
        while k < 8 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    tables
}

/// IEEE CRC32 of `data` (the polynomial every `cksum`-family tool
/// speaks, so a checkpoint's integrity can be re-checked from a shell).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Continue a CRC32: `crc32_extend(crc32(a), b)` is the CRC32 of `a`
/// followed by `b`, so a stream can be summed as it is written.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = crc ^ 0xFFFF_FFFF;
    let mut eights = data.chunks_exact(8);
    for w in &mut eights {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in eights.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn malformed(msg: impl Into<String>) -> SimError {
    SimError::checkpoint(CheckpointError::Malformed(msg.into()))
}

/// Little-endian, length-prefixed binary writer — the codec module
/// implementations of [`crate::module::Module::state_save`] use for
/// their state blobs, and the snapshot envelope uses for everything
/// else. Writing is infallible; only [`StateWriter::put_value`] can fail
/// (opaque payloads encode to words but have no decoder to restore them).
#[derive(Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (NaN-exact).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `usize` as a `u64`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append a byte slice, length-prefixed.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_len(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Append a string, length-prefixed UTF-8.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Append a [`Value`]. All shapes the kernel defines round-trip
    /// (`Unit`/`Bool`/`Word`/`Int`/`Float`/`Str`/`Tuple`, tuples
    /// recursively). [`Value::Opaque`] payloads encode to words
    /// ([`crate::value::Payload`]) but have no decoder to restore them
    /// from, so this refuses them: a module holding opaque state must
    /// encode it itself in its `state_save` (the way `pcl`'s `memarray`
    /// flattens its in-flight responses to words) or return this error.
    pub fn put_value(&mut self, v: &Value) -> Result<(), SimError> {
        match v {
            Value::Unit => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_bool(*b);
            }
            Value::Word(w) => {
                self.put_u8(2);
                self.put_u64(*w);
            }
            Value::Int(i) => {
                self.put_u8(3);
                self.put_i64(*i);
            }
            Value::Float(x) => {
                self.put_u8(4);
                self.put_f64(*x);
            }
            Value::Str(s) => {
                self.put_u8(5);
                self.put_str(s);
            }
            Value::Tuple(t) => {
                self.put_u8(6);
                self.put_len(t.len());
                for e in t.iter() {
                    self.put_value(e)?;
                }
            }
            Value::Opaque(o) => {
                return Err(SimError::model(format!(
                    "cannot checkpoint opaque value of kind {} — the owning module \
                     must encode it explicitly in state_save",
                    o.kind()
                )));
            }
        }
        Ok(())
    }
}

/// Cursor over bytes written by a [`StateWriter`]. Every read is
/// bounds-checked and returns a structured [`CheckpointError`] on
/// corruption instead of panicking.
pub struct StateReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        StateReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless every byte has been consumed — catches blobs with
    /// trailing garbage that a plain prefix decode would silently accept.
    pub fn expect_end(&self) -> Result<(), SimError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        if self.remaining() < n {
            return Err(SimError::checkpoint(CheckpointError::Truncated {
                needed: (self.pos + n) as u64,
                available: self.data.len() as u64,
            }));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, SimError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("bool byte {b:#x}"))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SimError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SimError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length prefix, bounds-checked against the bytes actually
    /// left so a corrupted length cannot drive a huge allocation.
    pub fn get_len(&mut self) -> Result<usize, SimError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(SimError::checkpoint(CheckpointError::Truncated {
                needed: (self.pos as u64).saturating_add(n),
                available: self.data.len() as u64,
            }));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SimError> {
        let n = self.get_len()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SimError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|e| malformed(format!("string field: {e}")))
    }

    /// Read a [`Value`] written by [`StateWriter::put_value`].
    pub fn get_value(&mut self) -> Result<Value, SimError> {
        Ok(match self.get_u8()? {
            0 => Value::Unit,
            1 => Value::Bool(self.get_bool()?),
            2 => Value::Word(self.get_u64()?),
            3 => Value::Int(self.get_i64()?),
            4 => Value::Float(self.get_f64()?),
            5 => Value::Str(Arc::from(self.get_str()?)),
            6 => {
                let n = self.get_len()?;
                let mut items = Vec::with_capacity(n.min(self.remaining()));
                for _ in 0..n {
                    items.push(self.get_value()?);
                }
                Value::Tuple(Arc::new(items))
            }
            t => return Err(malformed(format!("value tag {t:#x}"))),
        })
    }
}

/// A checkpoint of the full durable simulator state, taken at a step
/// boundary by [`crate::exec::Simulator::snapshot`] and applied by
/// [`crate::exec::Simulator::restore`]. Serialize with
/// [`Snapshot::to_bytes`] / [`Snapshot::write_file`]; the in-memory form
/// is what the kernel's rollback path keeps.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Next step the restored run will execute.
    pub(crate) now: u64,
    /// Instance census of the topology the snapshot was taken from.
    pub(crate) n_instances: u32,
    /// Edge census of the topology the snapshot was taken from.
    pub(crate) n_edges: u32,
    /// Engine counters at the boundary.
    pub(crate) metrics: EngineMetrics,
    /// Cumulative completed-transfer count per edge.
    pub(crate) transfer_counts: Vec<u64>,
    /// Ids of quarantined instances, ascending.
    pub(crate) quarantined: Vec<u32>,
    /// Statistics store, in deterministic dump order.
    pub(crate) stats: StatsDump,
    /// One `state_save` blob per instance, in id order.
    pub(crate) modules: Vec<Vec<u8>>,
}

impl Snapshot {
    /// The step the restored simulator will execute next.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Instance count of the topology this snapshot fits.
    pub fn instance_count(&self) -> usize {
        self.n_instances as usize
    }

    /// Edge count of the topology this snapshot fits.
    pub fn edge_count(&self) -> usize {
        self.n_edges as usize
    }

    /// Engine counters at the checkpoint boundary.
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics
    }

    /// The `state_save` blob of instance `i` (empty for stateless
    /// modules). Exposed so tests can assert on saved state directly.
    pub fn module_state(&self, i: usize) -> Option<&[u8]> {
        self.modules.get(i).map(|b| b.as_slice())
    }

    /// CRC32 over the encoded payload — a stable fingerprint of the
    /// complete durable state. Two simulators in identical states hash
    /// identically (the golden-state CI job compares exactly this).
    pub fn state_hash(&self) -> u32 {
        crc32(&self.encode_payload())
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(self.now);
        w.put_u32(self.n_instances);
        w.put_u32(self.n_edges);
        let m = &self.metrics;
        for v in [
            m.steps,
            m.reacts,
            m.commits,
            m.defaults,
            m.faults_injected,
            m.quarantines,
        ] {
            w.put_u64(v);
        }
        w.put_len(self.transfer_counts.len());
        for &c in &self.transfer_counts {
            w.put_u64(c);
        }
        w.put_len(self.quarantined.len());
        for &q in &self.quarantined {
            w.put_u32(q);
        }
        encode_stats(&mut w, &self.stats);
        w.put_len(self.modules.len());
        for blob in &self.modules {
            w.put_bytes(blob);
        }
        w.into_bytes()
    }

    fn decode_payload(payload: &[u8]) -> Result<Snapshot, SimError> {
        let mut r = StateReader::new(payload);
        let now = r.get_u64()?;
        let n_instances = r.get_u32()?;
        let n_edges = r.get_u32()?;
        let mut vals = [0u64; 6];
        for v in &mut vals {
            *v = r.get_u64()?;
        }
        let metrics = EngineMetrics {
            steps: vals[0],
            reacts: vals[1],
            commits: vals[2],
            defaults: vals[3],
            faults_injected: vals[4],
            quarantines: vals[5],
        };
        let n_tc = r.get_len()?;
        let mut transfer_counts = Vec::with_capacity(n_tc);
        for _ in 0..n_tc {
            transfer_counts.push(r.get_u64()?);
        }
        if transfer_counts.len() != n_edges as usize {
            return Err(malformed(format!(
                "{} transfer counts for {} edges",
                transfer_counts.len(),
                n_edges
            )));
        }
        let n_q = r.get_len()?;
        let mut quarantined = Vec::with_capacity(n_q);
        for _ in 0..n_q {
            let q = r.get_u32()?;
            if q >= n_instances {
                return Err(malformed(format!(
                    "quarantined instance {q} out of range (census {n_instances})"
                )));
            }
            if quarantined.last().is_some_and(|&p| p >= q) {
                return Err(malformed("quarantine set not strictly ascending"));
            }
            quarantined.push(q);
        }
        let stats = decode_stats(&mut r)?;
        let n_mods = r.get_len()?;
        if n_mods != n_instances as usize {
            return Err(malformed(format!(
                "{n_mods} module blobs for {n_instances} instances"
            )));
        }
        let mut modules = Vec::with_capacity(n_mods);
        for _ in 0..n_mods {
            modules.push(r.get_bytes()?.to_vec());
        }
        r.expect_end()?;
        Ok(Snapshot {
            now,
            n_instances,
            n_edges,
            metrics,
            transfer_counts,
            quarantined,
            stats,
            modules,
        })
    }

    /// Serialize to the versioned, checksummed envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let crc = crc32(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and validate an envelope. Corruption comes back as a
    /// structured [`SimError::Checkpoint`]: bad magic, version mismatch,
    /// truncation, checksum failure or a malformed payload field — in
    /// that diagnostic order, so the most fundamental problem is named.
    pub fn from_bytes(data: &[u8]) -> Result<Snapshot, SimError> {
        if data.len() >= 4 && data[..4] != MAGIC {
            return Err(SimError::checkpoint(CheckpointError::BadMagic {
                found: data[..4].to_vec(),
            }));
        }
        if data.len() < HEADER_LEN {
            if data.len() < 4 && !MAGIC.starts_with(&data[..data.len().min(4)]) {
                return Err(SimError::checkpoint(CheckpointError::BadMagic {
                    found: data.to_vec(),
                }));
            }
            return Err(SimError::checkpoint(CheckpointError::Truncated {
                needed: HEADER_LEN as u64,
                available: data.len() as u64,
            }));
        }
        let version = u32::from_le_bytes(data[4..8].try_into().expect("4"));
        if version != FORMAT_VERSION {
            return Err(SimError::checkpoint(CheckpointError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            }));
        }
        let payload_len = u64::from_le_bytes(data[8..16].try_into().expect("8"));
        let needed = (HEADER_LEN as u64)
            .saturating_add(payload_len)
            .saturating_add(4);
        if (data.len() as u64) < needed {
            return Err(SimError::checkpoint(CheckpointError::Truncated {
                needed,
                available: data.len() as u64,
            }));
        }
        if data.len() as u64 > needed {
            return Err(malformed(format!(
                "{} bytes after the checksum trailer",
                data.len() as u64 - needed
            )));
        }
        let payload = &data[HEADER_LEN..HEADER_LEN + payload_len as usize];
        let stored = u32::from_le_bytes(
            data[HEADER_LEN + payload_len as usize..]
                .try_into()
                .expect("4"),
        );
        let computed = crc32(payload);
        if stored != computed {
            return Err(SimError::checkpoint(CheckpointError::ChecksumMismatch {
                stored,
                computed,
            }));
        }
        Self::decode_payload(payload)
    }

    /// Write the checkpoint to `path` atomically: the bytes land in a
    /// sibling `.tmp` file first and are renamed over `path` only once
    /// fully written, so a crash mid-write never leaves a torn file
    /// under the real name.
    pub fn write_file(&self, path: &Path) -> Result<(), SimError> {
        let io = |e: std::io::Error| {
            SimError::checkpoint(CheckpointError::Io {
                path: path.to_path_buf(),
                msg: e.to_string(),
            })
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Read and validate a checkpoint file.
    pub fn read_file(path: &Path) -> Result<Snapshot, SimError> {
        let data = std::fs::read(path).map_err(|e| {
            SimError::checkpoint(CheckpointError::Io {
                path: path.to_path_buf(),
                msg: e.to_string(),
            })
        })?;
        Self::from_bytes(&data)
    }
}

fn encode_stats(w: &mut StateWriter, d: &StatsDump) {
    w.put_len(d.counters.len());
    for (name, per_inst) in &d.counters {
        w.put_str(name);
        w.put_len(per_inst.len());
        for &(i, v) in per_inst {
            w.put_u32(i);
            w.put_u64(v);
        }
    }
    w.put_len(d.samples.len());
    for (name, per_inst) in &d.samples {
        w.put_str(name);
        w.put_len(per_inst.len());
        for (i, s) in per_inst {
            w.put_u32(*i);
            w.put_f64(s.sum);
            w.put_u64(s.n);
            w.put_f64(s.min);
            w.put_f64(s.max);
        }
    }
    w.put_len(d.histograms.len());
    for (name, per_inst) in &d.histograms {
        w.put_str(name);
        w.put_len(per_inst.len());
        for (i, h) in per_inst {
            w.put_u32(*i);
            let (buckets, count, sum) = h.raw_parts();
            w.put_len(buckets.len());
            for &b in buckets {
                w.put_u64(b);
            }
            w.put_u64(count);
            w.put_u64(sum);
        }
    }
}

fn decode_stats(r: &mut StateReader<'_>) -> Result<StatsDump, SimError> {
    let mut d = StatsDump::default();
    let n_c = r.get_len()?;
    for _ in 0..n_c {
        let name = r.get_str()?.to_owned();
        let n = r.get_len()?;
        let mut per_inst = Vec::with_capacity(n);
        for _ in 0..n {
            per_inst.push((r.get_u32()?, r.get_u64()?));
        }
        d.counters.push((name, per_inst));
    }
    let n_s = r.get_len()?;
    for _ in 0..n_s {
        let name = r.get_str()?.to_owned();
        let n = r.get_len()?;
        let mut per_inst = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.get_u32()?;
            let sum = r.get_f64()?;
            let n_samples = r.get_u64()?;
            let min = r.get_f64()?;
            let max = r.get_f64()?;
            per_inst.push((
                i,
                Sample {
                    sum,
                    n: n_samples,
                    min,
                    max,
                },
            ));
        }
        d.samples.push((name, per_inst));
    }
    let n_h = r.get_len()?;
    for _ in 0..n_h {
        let name = r.get_str()?.to_owned();
        let n = r.get_len()?;
        let mut per_inst = Vec::with_capacity(n);
        for _ in 0..n {
            let i = r.get_u32()?;
            let n_buckets = r.get_len()?;
            let mut buckets = Vec::with_capacity(n_buckets);
            for _ in 0..n_buckets {
                buckets.push(r.get_u64()?);
            }
            let count = r.get_u64()?;
            let sum = r.get_u64()?;
            per_inst.push((i, Histogram::from_raw_parts(buckets, count, sum)));
        }
        d.histograms.push((name, per_inst));
    }
    Ok(d)
}

/// Rebuild a [`Stats`] store from a snapshot's dump (name interning and
/// all); the simulator's restore path calls this.
pub(crate) fn stats_from_snapshot(snap: &Snapshot) -> Stats {
    Stats::restore_from_dump(&snap.stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut stats = Stats::new();
        stats.count(crate::netlist::InstanceId(1), "retired", 42);
        stats.sample(crate::netlist::InstanceId(0), "lat", 2.5);
        stats.histo(crate::netlist::InstanceId(2), "occ", 7);
        Snapshot {
            now: 13,
            n_instances: 3,
            n_edges: 2,
            metrics: EngineMetrics {
                steps: 13,
                reacts: 40,
                commits: 39,
                defaults: 5,
                faults_injected: 1,
                quarantines: 1,
            },
            transfer_counts: vec![13, 12],
            quarantined: vec![2],
            stats: stats.dump(),
            modules: vec![vec![], vec![1, 2, 3], vec![0xFF]],
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE CRC32 check value: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_extend(crc32(b"1234"), b"56789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_word_loop_matches_the_bitwise_definition() {
        fn bitwise(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c ^= u32::from(b);
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            c ^ 0xFFFF_FFFF
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let data: Vec<u8> = (0..257)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        // Every length (all tail sizes) and every split of the longest.
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
        }
        for cut in 0..data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(crc32_extend(crc32(a), b), bitwise(&data), "cut {cut}");
        }
    }

    #[test]
    fn writer_reader_round_trip_scalars() {
        let mut w = StateWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-5);
        w.put_f64(f64::NAN);
        w.put_bytes(b"abc");
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -5);
        assert!(r.get_f64().unwrap().is_nan(), "NaN bit pattern survives");
        assert_eq!(r.get_bytes().unwrap(), b"abc");
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn value_codec_round_trips_all_serializable_shapes() {
        let vals = vec![
            Value::Unit,
            Value::Bool(false),
            Value::Word(99),
            Value::Int(-1),
            Value::Float(1.5),
            Value::Str(Arc::from("s")),
            Value::Tuple(Arc::new(vec![
                Value::Word(1),
                Value::Tuple(Arc::new(vec![Value::Unit])),
            ])),
        ];
        let mut w = StateWriter::new();
        for v in &vals {
            w.put_value(v).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for v in &vals {
            assert_eq!(&r.get_value().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn opaque_values_are_rejected_with_type_name() {
        #[derive(Debug, PartialEq)]
        struct Pkt(u32);
        impl crate::value::Payload for Pkt {
            const KIND: &'static str = "test.Pkt";
            fn encode(&self, out: &mut dyn crate::value::WordSink) {
                out.word(u64::from(self.0));
            }
        }
        let mut w = StateWriter::new();
        let err = w.put_value(&Value::wrap(Pkt(1))).unwrap_err();
        assert!(err.to_string().contains("test.Pkt"), "{err}");
    }

    #[test]
    fn reader_truncation_is_structured() {
        let mut w = StateWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..3]);
        let err = r.get_u64().unwrap_err();
        assert!(matches!(
            err.as_checkpoint(),
            Some(CheckpointError::Truncated { .. })
        ));
        // A corrupted length prefix cannot drive a huge allocation.
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let err = StateReader::new(&bytes).get_bytes().unwrap_err();
        assert!(matches!(
            err.as_checkpoint(),
            Some(CheckpointError::Truncated { .. })
        ));
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.state_hash(), snap.state_hash());
        assert_eq!(back.now(), 13);
        assert_eq!(back.module_state(1), Some(&[1u8, 2, 3][..]));
        // Re-encoding is byte-stable (golden hashing depends on this).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corruption_classes_are_diagnosed() {
        let good = sample_snapshot().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad_magic)
                .unwrap_err()
                .as_checkpoint(),
            Some(CheckpointError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 0xEE;
        assert!(matches!(
            Snapshot::from_bytes(&bad_version)
                .unwrap_err()
                .as_checkpoint(),
            Some(CheckpointError::VersionMismatch { found, expected: 1 }) if *found != 1
        ));

        let mut bad_crc = good.clone();
        *bad_crc.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bad_crc).unwrap_err().as_checkpoint(),
            Some(CheckpointError::ChecksumMismatch { .. })
        ));

        let truncated = &good[..good.len() - 9];
        assert!(matches!(
            Snapshot::from_bytes(truncated).unwrap_err().as_checkpoint(),
            Some(CheckpointError::Truncated { .. })
        ));

        // A payload byte flip lands on the checksum, not on a panic.
        let mut flipped = good.clone();
        flipped[HEADER_LEN + 2] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(&flipped).unwrap_err().as_checkpoint(),
            Some(CheckpointError::ChecksumMismatch { .. })
        ));

        let mut padded = good.clone();
        padded.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&padded).unwrap_err().as_checkpoint(),
            Some(CheckpointError::Malformed(_))
        ));

        assert!(matches!(
            Snapshot::from_bytes(b"LS").unwrap_err().as_checkpoint(),
            Some(CheckpointError::Truncated { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"no").unwrap_err().as_checkpoint(),
            Some(CheckpointError::BadMagic { .. })
        ));
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!(
            "lse-snap-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.ckpt");
        let snap = sample_snapshot();
        snap.write_file(&path).unwrap();
        assert!(
            !path.with_file_name("a.ckpt.tmp").exists(),
            "temp file renamed away"
        );
        let back = Snapshot::read_file(&path).unwrap();
        assert_eq!(back, snap);
        let missing = Snapshot::read_file(&dir.join("absent.ckpt")).unwrap_err();
        assert!(matches!(
            missing.as_checkpoint(),
            Some(CheckpointError::Io { path, .. }) if path.ends_with("absent.ckpt")
        ));
        assert!(
            missing.to_string().contains("absent.ckpt"),
            "Display names the offending path: {missing}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
