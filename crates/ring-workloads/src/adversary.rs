//! The §3 "evil adversary" construction (Table 1, part III).
//!
//! The worst-case analysis lets an adversary choose, for a target lower
//! bound `L`, an instance that maximizes how far bucket `B_1` travels:
//! every prefix window is saturated at its Lemma 2 capacity
//! `M_k = L² + (k−1)L`. Solving the telescope, the saturating loads are
//!
//! ```text
//! x_0 = L,   x_1 = L²,   x_2 = x_3 = … = x_{k-1} = L,   rest = 0
//! ```
//!
//! (window `[0..j]` holds `L² + j·L = M_{j+1}` exactly, and window
//! `[1..j]` holds `M_j` exactly). The adversary may pick both `L` and the
//! region size `k` (§6.1); the paper's six `(L, k)` choices are partly
//! illegible in the surviving scan, so the catalog spans the same ranges —
//! see DESIGN.md §5.

use ring_sim::Instance;

/// Builds the adversary instance for lower bound `l` over a region of `k`
/// processors on an `m`-ring.
///
/// # Panics
///
/// Panics if `k > m` or `k == 0` or `l == 0`.
pub fn instance(m: usize, l: u64, k: usize) -> Instance {
    assert!(k >= 1 && k <= m, "region must fit the ring");
    assert!(l >= 1, "the target lower bound must be positive");
    let mut v = vec![0u64; m];
    v[0] = l;
    if k >= 2 {
        v[1] = l * l;
    }
    for x in v.iter_mut().take(k).skip(2) {
        *x = l;
    }
    Instance::from_loads(v)
}

/// The Lemma 2 window capacity `M_k = L² + (k−1)·L`.
pub fn window_capacity(l: u64, k: usize) -> u64 {
    l * l + (k as u64 - 1) * l
}

/// An arrival script: `(release step, processor, unit jobs)` triples,
/// time-sorted. Kept as plain tuples so `ring-workloads` stays independent
/// of `ring-sched` (whose `dynamic::Arrival` it maps onto 1:1).
pub type ArrivalScript = Vec<(u64, usize, u64)>;

/// Sorts a script by `(time, processor)` — every generator below returns
/// its output through this, so scripts are always valid inputs for the
/// online policies (which require time order).
fn sorted(mut script: ArrivalScript) -> ArrivalScript {
    script.sort_by_key(|&(t, p, _)| (t, p));
    script
}

/// A spike train: the §3 adversary instance released repeatedly, each wave
/// rotated a quarter-ring from the last. Online algorithms that spread the
/// first spike's work perfectly are punished when the next spike lands on
/// the processors they just loaded.
///
/// # Panics
///
/// Panics if `k > m`, `k == 0`, `l == 0`, or `waves == 0`.
pub fn spike_train(m: usize, l: u64, k: usize, waves: u64, period: u64) -> ArrivalScript {
    assert!(waves >= 1, "need at least one spike");
    let base = instance(m, l, k);
    let mut script = Vec::new();
    for w in 0..waves {
        let t = w * period;
        let rot = (w as usize * (m / 4)) % m;
        for (p, &load) in base.loads().iter().enumerate() {
            if load > 0 {
                script.push((t, (p + rot) % m, load));
            }
        }
    }
    sorted(script)
}

/// The §5 indistinguishability pair as arrival scripts: `I` (two heaps of
/// `w`, `2z + 1` apart) and `J` (one heap), both released at `t = 0`.
/// For the first `z` steps no processor can tell which script it is in —
/// the construction behind the 1.06 distributed lower bound (Theorem 2).
/// Returns `(I, J)`.
pub fn section5_pair(w: u64, z: usize, m: usize) -> (ArrivalScript, ArrivalScript) {
    let s = crate::section5::Section5::new(w, z, m);
    let to_script = |inst: &ring_sim::Instance| {
        sorted(
            inst.loads()
                .iter()
                .enumerate()
                .filter(|(_, &x)| x > 0)
                .map(|(p, &x)| (0u64, p, x))
                .collect(),
        )
    };
    (to_script(&s.instance_i()), to_script(&s.instance_j()))
}

/// A migration-punishing sequence: bursts alternate between a processor
/// and its antipode with spacing just long enough that a migrating
/// algorithm has committed its migration before the counter-burst lands.
/// Work migrated toward the previous burst is maximally far from the next.
///
/// # Panics
///
/// Panics if `m < 2`, `burst == 0`, or `waves == 0`.
pub fn migration_punisher(m: usize, burst: u64, waves: u64, spacing: u64) -> ArrivalScript {
    assert!(m >= 2, "need an antipode");
    assert!(burst >= 1 && waves >= 1, "need work to punish with");
    let anti = m / 2;
    sorted(
        (0..waves)
            .map(|w| {
                let p = if w % 2 == 0 { 0 } else { anti };
                (w * spacing, p, burst)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prefix_window_is_saturated() {
        let (m, l, k) = (64usize, 7u64, 20usize);
        let inst = instance(m, l, k);
        // Window starting at processor 1 of width j holds exactly M_j.
        for j in 1..k {
            assert_eq!(inst.arc_work(1, j), window_capacity(l, j), "width {j}");
        }
        // Prefix [0..j] holds M_{j+1} exactly.
        for j in 2..=k {
            assert_eq!(inst.arc_work(0, j), window_capacity(l, j), "prefix {j}");
        }
    }

    #[test]
    fn lemma1_bound_equals_l() {
        let inst = instance(128, 12, 40);
        assert_eq!(ring_opt::lemma1_lower_bound(&inst), 12);
    }

    #[test]
    fn total_work_is_mk() {
        let inst = instance(100, 9, 30);
        assert_eq!(inst.total_work(), window_capacity(9, 30));
    }

    #[test]
    fn degenerate_k1() {
        let inst = instance(10, 5, 1);
        assert_eq!(inst.total_work(), 5);
        assert_eq!(inst.load(0), 5);
    }

    #[test]
    #[should_panic(expected = "fit the ring")]
    fn oversized_region_rejected() {
        let _ = instance(10, 5, 11);
    }

    #[test]
    fn spike_train_repeats_the_adversary_load() {
        let script = spike_train(32, 5, 8, 3, 40);
        let per_wave = window_capacity(5, 8);
        let total: u64 = script.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 3 * per_wave);
        assert!(script.windows(2).all(|w| w[0].0 <= w[1].0), "time-sorted");
        // Wave 1 is rotated a quarter ring: its heavy processor moved.
        let wave0_heavy = script
            .iter()
            .find(|&&(t, _, c)| t == 0 && c == 25)
            .unwrap()
            .1;
        let wave1_heavy = script
            .iter()
            .find(|&&(t, _, c)| t == 40 && c == 25)
            .unwrap()
            .1;
        assert_eq!((wave0_heavy + 8) % 32, wave1_heavy);
    }

    #[test]
    fn section5_pair_differs_only_at_p2() {
        let (i, j) = section5_pair(100, 3, 64);
        assert_eq!(j, vec![(0, 0, 100)]);
        assert_eq!(i, vec![(0, 0, 100), (0, 7, 100)]);
    }

    #[test]
    fn migration_punisher_alternates_antipodes() {
        let script = migration_punisher(16, 40, 4, 6);
        assert_eq!(
            script,
            vec![(0, 0, 40), (6, 8, 40), (12, 0, 40), (18, 8, 40)]
        );
    }
}
