//! The timing statistic ("floor") and the noise-band summaries.
//!
//! Wall time on this class of host is bimodal: a fixed kernel flips
//! between a fast and a slow regime for seconds at a time, and CPU time
//! tracks wall time, so neither medians nor a calibration ratio repeat.
//! What does repeat is the fast regime itself. A deterministic run is
//! therefore cut into fixed windows by step index; each window keeps its
//! minimum over repetitions and the run time is the sum of those minima.

/// Per-window minimum over repetitions. Repetitions cut short (a failed
/// child) contribute the windows they finished.
pub fn floors(reps: &[Vec<u64>]) -> Vec<u64> {
    let k = reps.iter().map(Vec::len).max().unwrap_or(0);
    (0..k)
        .map(|w| {
            reps.iter()
                .filter_map(|r| r.get(w).copied())
                .min()
                .expect("some repetition reached this window")
        })
        .collect()
}

/// Sum of the per-window floors, in seconds.
pub fn floor_run_s(reps: &[Vec<u64>]) -> f64 {
    floors(reps).iter().sum::<u64>() as f64 / 1e9
}

/// Share of window samples within 5% of their window's floor — how much
/// of the set ran in the host's fast regime.
pub fn fast_share(reps: &[Vec<u64>]) -> f64 {
    let fl = floors(reps);
    let mut near = 0usize;
    let mut all = 0usize;
    for r in reps {
        for (w, &ns) in r.iter().enumerate() {
            all += 1;
            if ns as f64 <= fl[w] as f64 * 1.05 {
                near += 1;
            }
        }
    }
    if all == 0 {
        0.0
    } else {
        near as f64 / all as f64
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it: the
/// eleventh-largest value. With fewer than eleven samples, the largest.
pub fn high_percentile(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[s.len().checked_sub(11).unwrap_or(s.len() - 1)]
}

/// Minimum of `v`; 0 if empty.
pub fn floor(v: &[f64]) -> f64 {
    v.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_each_window_from_its_fastest_repetition() {
        // Rep 0 is fast early and slow late, rep 1 the reverse: no single
        // repetition ran at the floor, the per-window minima do.
        let reps = vec![vec![10, 30, 10], vec![15, 20, 15], vec![12, 21]];
        assert_eq!(floors(&reps), vec![10, 20, 10]);
        assert_eq!(floor_run_s(&reps), 40e-9);
    }

    #[test]
    fn fast_share_counts_samples_near_their_floor() {
        let reps = vec![vec![100, 100], vec![104, 200]];
        assert_eq!(fast_share(&reps), 0.75);
    }

    #[test]
    fn summaries() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(high_percentile(&v), 20.0);
        assert_eq!(high_percentile(&[5.0, 7.0]), 7.0);
        assert_eq!(floor(&[2.0, 1.5, 9.0]), 1.5);
    }
}
