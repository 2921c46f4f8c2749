//! Ring page migration workloads (after Khorramian–Matsubayashi, see
//! PAPERS.md): request streams that chase a page around the ring.
//!
//! In the page-migration problem a shared page lives at one ring node and
//! requests arrive at other nodes; serving a request costs its distance to
//! the page, and the algorithm may migrate the page at distance × size
//! cost. As a *scheduling* workload the same access pattern makes a
//! pointed adversary: the work hotspot performs a seeded random walk, and
//! every wave releases most of its jobs near the hotspot with a thin
//! uniform background. Online schedulers that shift load toward the current
//! hotspot are punished when it walks away — the scheduling analogue of
//! paying for page migration — while the offline optimum sees the whole
//! walk in advance.
//!
//! Scripts are deterministic in the seed (xoshiro via the workspace `rand`
//! shim) and time-sorted, ready for `ring_sched::dynamic` or the online
//! policy suite.

use crate::adversary::ArrivalScript;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration of a page-migration script.
#[derive(Debug, Clone, Copy)]
pub struct PageMigration {
    /// Ring size.
    pub m: usize,
    /// Number of request waves.
    pub waves: u64,
    /// Steps between waves.
    pub period: u64,
    /// Jobs released per wave at the hotspot neighborhood.
    pub burst: u64,
    /// Largest per-wave hotspot hop (the walk draws uniformly from
    /// `-drift..=drift`).
    pub drift: usize,
    /// Jobs released uniformly at random per wave as background noise
    /// (0 for a pure hotspot stream).
    pub background: u64,
}

impl PageMigration {
    /// A hotspot walk with a thin background on an `m`-ring.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `waves == 0`, or `burst == 0`.
    pub fn new(m: usize, waves: u64, period: u64, burst: u64) -> Self {
        assert!(m > 0, "need at least one processor");
        assert!(waves > 0 && burst > 0, "need requests to serve");
        PageMigration {
            m,
            waves,
            period,
            burst,
            drift: (m / 8).max(1),
            background: burst / 8,
        }
    }

    /// Builds the deterministic arrival script for `seed`.
    pub fn script(&self, seed: u64) -> ArrivalScript {
        let mut rng = SmallRng::seed_from_u64(seed ^ SEED_SPACE);
        let mut hotspot = rng.gen_range(0..self.m);
        let mut script: ArrivalScript = Vec::new();
        for w in 0..self.waves {
            let t = w * self.period;
            // The wave's burst lands split across the hotspot and its two
            // neighbors (requests cluster near the page, not on it alone).
            let at = |off: usize| (hotspot + off) % self.m;
            let half = self.burst / 2;
            let quarter = self.burst / 4;
            let rest = self.burst - half - quarter;
            for (p, c) in [(at(0), half), (at(1), quarter), (at(self.m - 1), rest)] {
                if c > 0 {
                    script.push((t, p, c));
                }
            }
            for _ in 0..self.background {
                script.push((t, rng.gen_range(0..self.m), 1));
            }
            // The page walks: a bounded signed hop, wrapping the ring.
            let hop = rng.gen_range(0..=2 * self.drift) as i64 - self.drift as i64;
            hotspot = ((hotspot as i64 + hop).rem_euclid(self.m as i64)) as usize;
        }
        // Merge same-(time, processor) entries so scripts stay compact and
        // canonical whatever the background draws were.
        script.sort_by_key(|&(t, p, _)| (t, p));
        let mut merged: ArrivalScript = Vec::with_capacity(script.len());
        for (t, p, c) in script {
            match merged.last_mut() {
                Some(last) if last.0 == t && last.1 == p => last.2 += c,
                _ => merged.push((t, p, c)),
            }
        }
        merged
    }
}

/// Seed-spacing constant: keeps page-migration streams decorrelated from
/// other generators fed the same user seed.
const SEED_SPACE: u64 = 0x9a6e_0000_0001;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_in_the_seed() {
        let cfg = PageMigration::new(32, 6, 10, 40);
        assert_eq!(cfg.script(7), cfg.script(7));
        assert_ne!(cfg.script(7), cfg.script(8));
    }

    #[test]
    fn total_work_is_waves_times_burst_plus_background() {
        let cfg = PageMigration::new(16, 5, 8, 32);
        let total: u64 = cfg.script(3).iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 5 * (32 + cfg.background));
    }

    #[test]
    fn scripts_are_time_sorted_and_canonical() {
        let cfg = PageMigration::new(16, 8, 4, 24);
        let s = cfg.script(11);
        assert!(s.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        assert!(s.iter().all(|&(_, p, c)| p < 16 && c > 0));
    }

    #[test]
    fn hotspot_actually_moves() {
        // Over enough waves the heavy processor must change (the walk is
        // not degenerate).
        let cfg = PageMigration::new(64, 12, 10, 64);
        let s = cfg.script(5);
        let heavy_at = |t: u64| -> usize {
            s.iter()
                .filter(|&&(tt, _, _)| tt == t)
                .max_by_key(|&&(_, _, c)| c)
                .unwrap()
                .1
        };
        let spots: std::collections::BTreeSet<usize> = (0..12).map(|w| heavy_at(w * 10)).collect();
        assert!(spots.len() > 1, "hotspot never moved: {spots:?}");
    }

    #[test]
    #[should_panic(expected = "need requests")]
    fn empty_stream_rejected() {
        let _ = PageMigration::new(8, 0, 4, 10);
    }
}
