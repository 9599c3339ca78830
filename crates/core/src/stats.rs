//! Statistics collection shared by all modules.
//!
//! Modules emit counters, samples and histogram records through their
//! contexts; the engine aggregates them per instance. Reports are
//! serializable so the benchmark harness can regenerate the experiment
//! tables from raw runs.
//!
//! Storage is keyed **name-first** (`name -> instance -> value`): stat
//! names are `&'static str`, so the hot increment path allocates nothing,
//! point lookups ([`Stats::counter`], [`Stats::get_sample`]) are two O(1)
//! hash gets, and the cross-instance totals ([`Stats::counter_total`],
//! [`Stats::sample_total`]) reduce one inner map instead of scanning the
//! whole store.
//!
//! The name-first maps are the *cold* index — lookups, reports, dumps and
//! the first record of each stat. The handler path
//! ([`Stats::count`] / [`Stats::sample`] / [`Stats::histo`], once per
//! `ctx.count` in every `react` and `commit`) resolves through a small
//! per-instance table keyed by the name's address, so a steady-state
//! record hashes nothing.

use crate::netlist::InstanceId;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Running aggregate of a sampled quantity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Sum of all samples.
    pub sum: f64,
    /// Number of samples.
    pub n: u64,
    /// Minimum sample seen.
    pub min: f64,
    /// Maximum sample seen.
    pub max: f64,
}

impl Sample {
    fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &Sample) {
        self.sum += other.sum;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// A log2-bucket histogram of `u64` values: bucket `i` counts values with
/// bit-width `i` (so bucket 0 is exactly the zeros, bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i - 1]`). Recording is O(1) and allocation-free once the
/// bucket vector has grown to the largest bit-width seen.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = (u64::BITS - v.leading_zeros()) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty; wraps for huge sums).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Occupied buckets as `(lo, hi, count)` ranges (inclusive bounds).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter_map(|(i, &n)| {
            if n == 0 {
                return None;
            }
            let (lo, hi) = Self::bounds(i);
            Some((lo, hi, n))
        })
    }

    /// Raw fields for the checkpoint codec (`crate::snapshot`).
    pub(crate) fn raw_parts(&self) -> (&[u64], u64, u64) {
        (&self.buckets, self.count, self.sum)
    }

    /// Rebuild from raw fields read back out of a checkpoint.
    pub(crate) fn from_raw_parts(buckets: Vec<u64>, count: u64, sum: u64) -> Self {
        Histogram {
            buckets,
            count,
            sum,
        }
    }

    /// Inclusive value range of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Render an ASCII bucket table (one line per occupied bucket) —
    /// the front ends' `--metrics-out`-adjacent human view.
    pub fn render(&self) -> String {
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (lo, hi, n) in self.buckets() {
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  [{lo:>12} .. {hi:>12}] {n:>10} {bar}\n"));
        }
        out
    }
}

/// Sentinel for an unresolved cached stat slot (see [`Stats::count_cached`]).
pub(crate) const STAT_SLOT_UNRESOLVED: u32 = u32::MAX;

/// Which value vector a slot indexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Sample,
    Histo,
}

/// One resolved stat of an instance's hot table. The name is keyed by
/// address and length, not by text: two `&'static str`s with one address
/// and one length are the same bytes, so a hit costs no hash and no
/// string compare. Equal text at another address misses, resolves through
/// the name-first maps to the same slot, and gets an entry of its own.
#[derive(Clone, Copy, Debug)]
struct HotEntry {
    ptr: usize,
    len: usize,
    kind: Kind,
    slot: u32,
}

/// Per-run statistics store, keyed by stat name, then instance.
///
/// Stat names are `&'static str` so the hot increment path does no
/// allocation; lookups with runtime `&str` names still hash straight to
/// the entry (`&'static str: Borrow<str>`).
///
/// Values live in dense per-kind slot vectors; the name/instance maps
/// hold `u32` indices into them. The indirection is invisible to the
/// public API, but it gives the specialized handler kernels
/// (`crate::kernel`) an O(1), hash-free increment path: resolve a slot
/// once via the cached accessors below, then bump the vector entry
/// directly on every subsequent step.
#[derive(Default, Debug)]
pub struct Stats {
    counters: HashMap<&'static str, HashMap<u32, u32>>,
    samples: HashMap<&'static str, HashMap<u32, u32>>,
    histograms: HashMap<&'static str, HashMap<u32, u32>>,
    counter_vals: Vec<u64>,
    sample_vals: Vec<Sample>,
    histo_vals: Vec<Histogram>,
    /// The hot tables, by instance: every `(name address, kind)` the
    /// instance has recorded, with the slot the cold index resolved it
    /// to. An instance that records nothing has an empty (unallocated)
    /// table. A pure cache of the maps above — never dumped, empty after
    /// a restore.
    hot: Vec<Vec<HotEntry>>,
}

impl Stats {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot of a stat on the handler path: a scan of the instance's hot
    /// table (a handful of entries), falling back to the cold index the
    /// first time this name address is seen.
    #[inline]
    fn slot(&mut self, inst: InstanceId, name: &'static str, kind: Kind) -> u32 {
        let (ptr, len) = (name.as_ptr() as usize, name.len());
        if let Some(table) = self.hot.get(inst.0 as usize) {
            for e in table {
                if e.ptr == ptr && e.len == len && e.kind == kind {
                    return e.slot;
                }
            }
        }
        self.slot_cold(inst, name, kind)
    }

    /// Resolve through the name-first maps (creating the stat on first
    /// touch) and remember the answer in the instance's hot table.
    #[cold]
    fn slot_cold(&mut self, inst: InstanceId, name: &'static str, kind: Kind) -> u32 {
        let slot = match kind {
            Kind::Counter => self.counter_slot(inst, name),
            Kind::Sample => self.sample_slot(inst, name),
            Kind::Histo => self.histo_slot(inst, name),
        };
        let i = inst.0 as usize;
        if self.hot.len() <= i {
            self.hot.resize_with(i + 1, Vec::new);
        }
        self.hot[i].push(HotEntry {
            ptr: name.as_ptr() as usize,
            len: name.len(),
            kind,
            slot,
        });
        slot
    }

    /// Slot of a counter, creating a zeroed one on first touch.
    fn counter_slot(&mut self, inst: InstanceId, name: &'static str) -> u32 {
        let vals = &mut self.counter_vals;
        *self
            .counters
            .entry(name)
            .or_default()
            .entry(inst.0)
            .or_insert_with(|| {
                vals.push(0);
                (vals.len() - 1) as u32
            })
    }

    /// Slot of a sample aggregate, creating an empty one on first touch.
    fn sample_slot(&mut self, inst: InstanceId, name: &'static str) -> u32 {
        let vals = &mut self.sample_vals;
        *self
            .samples
            .entry(name)
            .or_default()
            .entry(inst.0)
            .or_insert_with(|| {
                vals.push(Sample {
                    sum: 0.0,
                    n: 0,
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                });
                (vals.len() - 1) as u32
            })
    }

    /// Slot of a histogram, creating an empty one on first touch.
    fn histo_slot(&mut self, inst: InstanceId, name: &'static str) -> u32 {
        let vals = &mut self.histo_vals;
        *self
            .histograms
            .entry(name)
            .or_default()
            .entry(inst.0)
            .or_insert_with(|| {
                vals.push(Histogram::new());
                (vals.len() - 1) as u32
            })
    }

    /// Add `by` to a counter of an instance. Wrapping, so counters can be
    /// used as order-independent checksums of arbitrary word streams.
    pub fn count(&mut self, inst: InstanceId, name: &'static str, by: u64) {
        let slot = self.slot(inst, name, Kind::Counter);
        let c = &mut self.counter_vals[slot as usize];
        *c = c.wrapping_add(by);
    }

    /// Record one sample of a quantity of an instance.
    pub fn sample(&mut self, inst: InstanceId, name: &'static str, v: f64) {
        let slot = self.slot(inst, name, Kind::Sample);
        self.sample_vals[slot as usize].add(v);
    }

    /// Record one value into a log2-bucket histogram of an instance.
    pub fn histo(&mut self, inst: InstanceId, name: &'static str, v: u64) {
        let slot = self.slot(inst, name, Kind::Histo);
        self.histo_vals[slot as usize].record(v);
    }

    /// Counter bump through a caller-cached slot: resolves the slot on
    /// first use (two hash gets, entry creation — exactly what
    /// [`Stats::count`] would do), then a single vector index ever after.
    /// The hot path of the specialized kernels.
    #[inline]
    pub(crate) fn count_cached(
        &mut self,
        slot: &mut u32,
        inst: InstanceId,
        name: &'static str,
        by: u64,
    ) {
        if *slot == STAT_SLOT_UNRESOLVED {
            *slot = self.counter_slot(inst, name);
        }
        let c = &mut self.counter_vals[*slot as usize];
        *c = c.wrapping_add(by);
    }

    /// Sample through a caller-cached slot (see [`Stats::count_cached`]).
    #[inline]
    pub(crate) fn sample_cached(
        &mut self,
        slot: &mut u32,
        inst: InstanceId,
        name: &'static str,
        v: f64,
    ) {
        if *slot == STAT_SLOT_UNRESOLVED {
            *slot = self.sample_slot(inst, name);
        }
        self.sample_vals[*slot as usize].add(v);
    }

    /// Histogram record through a caller-cached slot (see
    /// [`Stats::count_cached`]).
    #[inline]
    pub(crate) fn histo_cached(
        &mut self,
        slot: &mut u32,
        inst: InstanceId,
        name: &'static str,
        v: u64,
    ) {
        if *slot == STAT_SLOT_UNRESOLVED {
            *slot = self.histo_slot(inst, name);
        }
        self.histo_vals[*slot as usize].record(v);
    }

    /// Current value of a counter (0 if never touched). O(1): two hash
    /// gets, no scan.
    pub fn counter(&self, inst: InstanceId, name: &str) -> u64 {
        self.counters
            .get(name)
            .and_then(|m| m.get(&inst.0))
            .map(|&slot| self.counter_vals[slot as usize])
            .unwrap_or(0)
    }

    /// Current aggregate of a sampled quantity, if any samples were
    /// taken. O(1): two hash gets, no scan.
    pub fn get_sample(&self, inst: InstanceId, name: &str) -> Option<Sample> {
        self.samples
            .get(name)
            .and_then(|m| m.get(&inst.0))
            .map(|&slot| self.sample_vals[slot as usize])
    }

    /// An instance's histogram of a stat, if any values were recorded.
    pub fn histogram(&self, inst: InstanceId, name: &str) -> Option<&Histogram> {
        self.histograms
            .get(name)
            .and_then(|m| m.get(&inst.0))
            .map(|&slot| &self.histo_vals[slot as usize])
    }

    /// Sum of a counter across all instances (e.g. total retired
    /// instructions over every core). The name-first keying makes this a
    /// single inner-map reduction, not a full-store scan.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map(|m| {
                m.values().fold(0u64, |a, &slot| {
                    a.wrapping_add(self.counter_vals[slot as usize])
                })
            })
            .unwrap_or(0)
    }

    /// Merge all samples of one stat name across instances.
    pub fn sample_total(&self, name: &str) -> Option<Sample> {
        let per_inst = self.samples.get(name)?;
        let mut acc: Option<Sample> = None;
        for &slot in per_inst.values() {
            let s = &self.sample_vals[slot as usize];
            match &mut acc {
                None => acc = Some(*s),
                Some(a) => a.merge(s),
            }
        }
        acc
    }

    /// Merge all histograms of one stat name across instances.
    pub fn histogram_total(&self, name: &str) -> Option<Histogram> {
        let per_inst = self.histograms.get(name)?;
        let mut acc: Option<Histogram> = None;
        for &slot in per_inst.values() {
            let h = &self.histo_vals[slot as usize];
            match &mut acc {
                None => acc = Some(h.clone()),
                Some(a) => a.merge(h),
            }
        }
        acc
    }

    /// Deterministic dump for the checkpoint codec (`crate::snapshot`):
    /// every store sorted by (name, instance), so encoding the dump is
    /// byte-stable across runs regardless of hash-map iteration order.
    pub(crate) fn dump(&self) -> StatsDump {
        fn sorted<V: Clone>(
            m: &HashMap<&'static str, HashMap<u32, u32>>,
            vals: &[V],
        ) -> Vec<(String, Vec<(u32, V)>)> {
            let mut out: Vec<(String, Vec<(u32, V)>)> = m
                .iter()
                .map(|(name, per_inst)| {
                    let mut inner: Vec<(u32, V)> = per_inst
                        .iter()
                        .map(|(i, &slot)| (*i, vals[slot as usize].clone()))
                        .collect();
                    inner.sort_by_key(|(i, _)| *i);
                    ((*name).to_owned(), inner)
                })
                .collect();
            out.sort_by(|a, b| a.0.cmp(&b.0));
            out
        }
        StatsDump {
            counters: sorted(&self.counters, &self.counter_vals),
            samples: sorted(&self.samples, &self.sample_vals),
            histograms: sorted(&self.histograms, &self.histo_vals),
        }
    }

    /// Rebuild a store from a dump read back out of a checkpoint. Stat
    /// names in the live store are `&'static str`; names arriving from
    /// disk are interned (leaked once per distinct name, deduplicated
    /// process-wide) so the rebuilt store is indistinguishable from one
    /// the modules populated themselves.
    pub(crate) fn restore_from_dump(d: &StatsDump) -> Stats {
        fn rebuild<V: Clone>(
            src: &[(String, Vec<(u32, V)>)],
            vals: &mut Vec<V>,
        ) -> HashMap<&'static str, HashMap<u32, u32>> {
            src.iter()
                .map(|(name, per_inst)| {
                    (
                        intern_stat_name(name),
                        per_inst
                            .iter()
                            .map(|(i, v)| {
                                vals.push(v.clone());
                                (*i, (vals.len() - 1) as u32)
                            })
                            .collect(),
                    )
                })
                .collect()
        }
        let mut counter_vals = Vec::new();
        let mut sample_vals = Vec::new();
        let mut histo_vals = Vec::new();
        Stats {
            counters: rebuild(&d.counters, &mut counter_vals),
            samples: rebuild(&d.samples, &mut sample_vals),
            histograms: rebuild(&d.histograms, &mut histo_vals),
            counter_vals,
            sample_vals,
            histo_vals,
            hot: Vec::new(),
        }
    }

    /// Produce a human/machine-readable report keyed by instance name.
    /// Accepts any slice of string-likes (`&[&str]`, `&[String]`, …).
    pub fn report<S: AsRef<str>>(&self, names: &[S]) -> StatsReport {
        let name_of = |i: u32| {
            names
                .get(i as usize)
                .map(|s| s.as_ref().to_owned())
                .unwrap_or_else(|| format!("#{i}"))
        };
        let mut counters = BTreeMap::new();
        let mut samples = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (n, per_inst) in &self.counters {
            for (i, &slot) in per_inst {
                counters.insert(
                    format!("{}.{n}", name_of(*i)),
                    self.counter_vals[slot as usize],
                );
            }
        }
        for (n, per_inst) in &self.samples {
            for (i, &slot) in per_inst {
                samples.insert(
                    format!("{}.{n}", name_of(*i)),
                    self.sample_vals[slot as usize],
                );
            }
        }
        for (n, per_inst) in &self.histograms {
            for (i, &slot) in per_inst {
                histograms.insert(
                    format!("{}.{n}", name_of(*i)),
                    self.histo_vals[slot as usize].clone(),
                );
            }
        }
        StatsReport {
            counters,
            samples,
            histograms,
        }
    }
}

/// Order-stable image of a [`Stats`] store, exchanged with the
/// checkpoint codec. Not serialized itself — `crate::snapshot` walks it
/// with its own length-prefixed binary writer.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct StatsDump {
    pub(crate) counters: Vec<(String, Vec<(u32, u64)>)>,
    pub(crate) samples: Vec<(String, Vec<(u32, Sample)>)>,
    pub(crate) histograms: Vec<(String, Vec<(u32, Histogram)>)>,
}

/// Intern a stat name read from a checkpoint as `&'static str`. Leaks at
/// most once per distinct name for the process lifetime; repeated
/// restores of the same checkpoint reuse the first leak.
fn intern_stat_name(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("stat name intern table lock");
    if let Some(s) = table.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.insert(leaked);
    leaked
}

/// Flattened, serializable statistics report. `PartialEq` so equivalence
/// tests can compare final architectural state across schedulers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// `instance.stat -> count`.
    pub counters: BTreeMap<String, u64>,
    /// `instance.stat -> aggregate`.
    pub samples: BTreeMap<String, Sample>,
    /// `instance.stat -> log2-bucket histogram`.
    pub histograms: BTreeMap<String, Histogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        let i = InstanceId(0);
        s.count(i, "retired", 3);
        s.count(i, "retired", 2);
        assert_eq!(s.counter(i, "retired"), 5);
        assert_eq!(s.counter(i, "absent"), 0);
    }

    #[test]
    fn lookup_works_with_runtime_names() {
        // `counter` takes a non-static &str; the name-first map must hash
        // straight to the entry rather than scanning.
        let mut s = Stats::new();
        s.count(InstanceId(3), "hits", 7);
        let runtime_name = String::from("hits");
        assert_eq!(s.counter(InstanceId(3), &runtime_name), 7);
        assert_eq!(s.counter(InstanceId(2), &runtime_name), 0);
    }

    #[test]
    fn samples_track_min_max_mean() {
        let mut s = Stats::new();
        let i = InstanceId(1);
        s.sample(i, "lat", 4.0);
        s.sample(i, "lat", 8.0);
        let a = s.get_sample(i, "lat").unwrap();
        assert_eq!(a.n, 2);
        assert_eq!(a.min, 4.0);
        assert_eq!(a.max, 8.0);
        assert_eq!(a.mean(), 6.0);
    }

    #[test]
    fn totals_merge_across_instances() {
        let mut s = Stats::new();
        s.count(InstanceId(0), "retired", 10);
        s.count(InstanceId(1), "retired", 20);
        s.count(InstanceId(1), "other", 5);
        assert_eq!(s.counter_total("retired"), 30);
        s.sample(InstanceId(0), "lat", 1.0);
        s.sample(InstanceId(1), "lat", 3.0);
        let t = s.sample_total("lat").unwrap();
        assert_eq!(t.n, 2);
        assert_eq!(t.mean(), 2.0);
        assert!(s.sample_total("none").is_none());
    }

    #[test]
    fn report_uses_instance_names() {
        let mut s = Stats::new();
        s.count(InstanceId(0), "x", 1);
        s.sample(InstanceId(1), "y", 2.0);
        s.histo(InstanceId(0), "z", 9);
        let r = s.report(&["alpha".to_owned(), "beta".to_owned()]);
        assert_eq!(r.counters["alpha.x"], 1);
        assert_eq!(r.samples["beta.y"].n, 1);
        assert_eq!(r.histograms["alpha.z"].count(), 1);
    }

    #[test]
    fn empty_sample_mean_is_zero() {
        let s = Sample {
            sum: 0.0,
            n: 0,
            min: 0.0,
            max: 0.0,
        };
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let mut h = Histogram::new();
        h.record(0); // bucket 0: [0, 0]
        h.record(1); // bucket 1: [1, 1]
        h.record(2); // bucket 2: [2, 3]
        h.record(3);
        h.record(700); // bucket 10: [512, 1023]
        let b: Vec<_> = h.buckets().collect();
        assert_eq!(b, vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (512, 1023, 1)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 706);
        assert!((h.mean() - 141.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_extremes_and_merge() {
        let mut h = Histogram::new();
        h.record(u64::MAX); // bucket 64: [2^63, MAX]
        let b: Vec<_> = h.buckets().collect();
        assert_eq!(b, vec![(1 << 63, u64::MAX, 1)]);
        let mut h2 = Histogram::new();
        h2.record(1);
        h2.merge(&h);
        assert_eq!(h2.count(), 2);
        assert_eq!(h2.buckets().count(), 2);
    }

    #[test]
    fn histogram_totals_merge_across_instances() {
        let mut s = Stats::new();
        s.histo(InstanceId(0), "lat", 2);
        s.histo(InstanceId(1), "lat", 3);
        s.histo(InstanceId(1), "lat", 1000);
        let t = s.histogram_total("lat").unwrap();
        assert_eq!(t.count(), 3);
        assert_eq!(s.histogram(InstanceId(1), "lat").unwrap().count(), 2);
        assert!(s.histogram_total("none").is_none());
        assert!(s.histogram(InstanceId(0), "none").is_none());
    }

    #[test]
    fn dump_is_sorted_and_rebuilds_identically() {
        let mut s = Stats::new();
        s.count(InstanceId(3), "zeta", 7);
        s.count(InstanceId(1), "zeta", 2);
        s.count(InstanceId(0), "alpha", 1);
        s.sample(InstanceId(2), "lat", 4.5);
        s.histo(InstanceId(0), "occ", 9);
        let d = s.dump();
        assert_eq!(d.counters[0].0, "alpha");
        assert_eq!(d.counters[1].0, "zeta");
        assert_eq!(d.counters[1].1, vec![(1, 2), (3, 7)]);
        let r = Stats::restore_from_dump(&d);
        assert_eq!(r.counter(InstanceId(3), "zeta"), 7);
        assert_eq!(r.counter(InstanceId(0), "alpha"), 1);
        assert_eq!(
            r.get_sample(InstanceId(2), "lat"),
            s.get_sample(InstanceId(2), "lat")
        );
        assert_eq!(
            r.histogram(InstanceId(0), "occ"),
            s.histogram(InstanceId(0), "occ")
        );
        assert_eq!(r.dump(), d, "dump -> restore -> dump is a fixed point");
    }

    #[test]
    fn equal_names_at_different_addresses_share_one_stat() {
        // The hot table is keyed by address; the text decides the stat.
        let a: &'static str = "hits";
        let b: &'static str = Box::leak(String::from("hits").into_boxed_str());
        assert_ne!(a.as_ptr(), b.as_ptr());
        let mut s = Stats::new();
        let i = InstanceId(4);
        s.count(i, a, 1);
        s.count(i, b, 2);
        s.count(i, a, 4);
        s.count(i, b, 8);
        assert_eq!(s.counter(i, "hits"), 15);
        assert_eq!(s.counter_total("hits"), 15);
        assert_eq!(s.dump().counters, vec![("hits".to_owned(), vec![(4, 15)])]);
        // One name, three kinds, one instance: three stats.
        s.sample(i, a, 2.0);
        s.histo(i, a, 3);
        s.sample(i, b, 4.0);
        assert_eq!(s.counter(i, "hits"), 15);
        assert_eq!(s.get_sample(i, "hits").unwrap().n, 2);
        assert_eq!(s.histogram(i, "hits").unwrap().count(), 1);
        // Another instance's table is its own.
        s.count(InstanceId(0), a, 100);
        assert_eq!(s.counter(i, "hits"), 15);
        assert_eq!(s.counter(InstanceId(0), "hits"), 100);
    }

    #[test]
    fn records_after_a_restore_land_in_the_restored_stats() {
        let mut s = Stats::new();
        let i = InstanceId(2);
        s.count(i, "retired", 5);
        s.sample(i, "lat", 1.0);
        s.histo(i, "occ", 7);
        // The restored store's names are interned copies at other
        // addresses and its hot tables are empty: the first record of
        // each stat must find the restored slot, not open a second one.
        let mut r = Stats::restore_from_dump(&s.dump());
        r.count(i, "retired", 3);
        r.count(i, "retired", 1);
        r.sample(i, "lat", 3.0);
        r.histo(i, "occ", 9);
        assert_eq!(r.counter(i, "retired"), 9);
        assert_eq!(r.counter_total("retired"), 9);
        assert_eq!(r.get_sample(i, "lat").unwrap().n, 2);
        assert_eq!(r.histogram(i, "occ").unwrap().count(), 2);
        let d = r.dump();
        assert_eq!(d.counters.len(), 1);
        assert_eq!(d.samples.len(), 1);
        assert_eq!(d.histograms.len(), 1);
    }

    #[test]
    fn histogram_render_lists_occupied_buckets() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(90);
        let r = h.render();
        assert!(r.contains("[           4 ..            7]"), "{r}");
        assert!(r.contains("[          64 ..          127]"), "{r}");
        assert_eq!(r.lines().count(), 2);
    }
}
