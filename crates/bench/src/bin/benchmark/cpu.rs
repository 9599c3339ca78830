//! Where and when the next piece of timed work runs.
//!
//! The host flips between a fast and a slow regime, per CPU: each virtual
//! CPU is a host thread with neighbours of its own, one is often fast
//! while the other is slow, a spell can turn within tens of milliseconds
//! and both can stay slow for twenty seconds (README.md, "the noise
//! study"). A 60 us arithmetic probe with independent dependency chains
//! tells the regimes apart: it reads 56 us where a `cmp8` window takes
//! 9.6 ms and 64-68 us where the window takes 17-21 ms. The floor
//! statistic needs samples from the fast regime only, so before set-up
//! and before every timed window a repetition *settles*: it probes the
//! CPUs it may use in turn until one reads fast, and runs there. What is
//! timed never changes, only where and when.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Mask words handed to the kernel: room for 1024 CPUs.
#[cfg(target_os = "linux")]
const WORDS: usize = 16;

/// The CPUs this thread may run on; empty where the host cannot say.
fn allowed() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; WORDS];
        // SAFETY: the mask is WORDS * 8 writable bytes, as the size says.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } == 0 {
            return (0..WORDS * 64)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Pin this thread, and every thread it starts from here on, to `cpu`.
fn pin(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; WORDS];
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word = 1 << (cpu % 64);
            // SAFETY: the mask is WORDS * 8 readable bytes, as the size says.
            return unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } == 0;
        }
    }
    let _ = cpu;
    false
}

/// Eight independent xorshift chains, about 60 us: enough instructions in
/// flight that a busy neighbour on the core shows. The fastest of three
/// runs, in ns, so that an interrupt or a cold start does not count.
fn probe() -> u64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x: [u64; 8] = [
                0x9e37_79b9_7f4a_7c15,
                0x1234_5678_9abc_def1,
                0xdead_beef_cafe_f00d,
                0x0123_4567_89ab_cdef,
                7,
                11,
                13,
                17,
            ];
            for _ in 0..16_000 {
                for v in &mut x {
                    *v ^= *v << 13;
                    *v ^= *v >> 7;
                    *v ^= *v << 17;
                }
            }
            std::hint::black_box(x);
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs")
}

/// The fastest probe seen: by this process, and by the repetitions before
/// it when the driver hands their value on (`--probe-ref`).
static REF_NS: AtomicU64 = AtomicU64::new(u64::MAX);

/// A probe within this share of the reference ran in the fast regime:
/// fast probes agree to 3%, the slow regime starts 11% up.
const GATE: f64 = 1.07;
/// Settling gives up after this long before one window, and for good once
/// a repetition has waited `REP_CAP` in all: in a spell with no fast CPU
/// the repetition then runs slow, as it would have anyway.
const WINDOW_CAP: Duration = Duration::from_millis(40);
const REP_CAP: Duration = Duration::from_millis(1500);
/// CPUs probed at most, so that one round stays short against a window.
const MAX_CPUS: usize = 4;

/// The reference to hand to the next repetition, once there is one.
pub fn reference() -> Option<u64> {
    Some(REF_NS.load(Ordering::Relaxed)).filter(|&ns| ns != u64::MAX)
}

/// Take a probe time measured elsewhere into the reference.
pub fn note(ns: u64) {
    if ns > 0 {
        REF_NS.fetch_min(ns, Ordering::Relaxed);
    }
}

struct Seeker {
    /// The CPUs this process was given, read before anything is pinned;
    /// empty where the host does not say, and then nothing is pinned.
    cpus: Vec<usize>,
    at: usize,
    waited: Duration,
}

static SEEKER: Mutex<Option<Seeker>> = Mutex::new(None);

/// Probe the CPUs in turn, starting where this thread sits, until one
/// reads fast; stay there. When the wait is over with none fast, take the
/// one that read fastest. Allocates only on its first call.
pub fn settle() {
    let mut guard = SEEKER.lock().unwrap_or_else(|e| e.into_inner());
    let s = guard.get_or_insert_with(|| {
        let mut cpus = allowed();
        cpus.truncate(MAX_CPUS);
        Seeker {
            cpus,
            at: 0,
            waited: Duration::ZERO,
        }
    });
    let slots = s.cpus.len().max(1);
    let start = Instant::now();
    let mut best = (u64::MAX, s.at);
    'wait: loop {
        for k in (0..slots).map(|i| (s.at + i) % slots) {
            if s.cpus.get(k).is_some_and(|&c| !pin(c)) {
                continue;
            }
            let ns = probe();
            note(ns);
            if ns < best.0 {
                best = (ns, k);
            }
            if ns as f64 <= REF_NS.load(Ordering::Relaxed) as f64 * GATE {
                break 'wait;
            }
        }
        if start.elapsed() > WINDOW_CAP || s.waited + start.elapsed() > REP_CAP {
            break;
        }
    }
    if let Some(&c) = s.cpus.get(best.1) {
        pin(c);
    }
    s.at = best.1;
    s.waited += start.elapsed();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settling_leaves_the_thread_on_one_cpu_it_was_given() {
        let given = allowed();
        let start = Instant::now();
        settle();
        assert!(start.elapsed() < WINDOW_CAP + Duration::from_millis(500));
        let now = allowed();
        if given.is_empty() {
            assert!(now.is_empty());
        } else {
            assert_eq!(now.len(), 1);
            assert!(given.contains(&now[0]));
        }
        // Every probe went into the reference, and `note` only lowers it.
        let seen = reference().expect("settling probed");
        note(seen + 1);
        note(0);
        assert_eq!(reference(), Some(seen));
    }
}
