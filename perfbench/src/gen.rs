//! Seeded input generators. Every input a workload hands the program is a
//! pure function of the `--seed` argument.

use lrb_rng::{RandomSource, SeedableSource, Xoshiro256PlusPlus};

/// A generator stream for one purpose (`tag`) of one seed, so adding a
/// stream never shifts another.
pub fn stream(seed: u64, tag: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `n` categories of which `nonzero` seeded-random ones carry Zipf(1)
/// weights `1/(k+1)` in draw order; every other weight is zero.
pub fn sparse(seed: u64, n: usize, nonzero: usize) -> Vec<f64> {
    let mut rng = stream(seed, 1);
    let mut weights = vec![0.0; n];
    let mut placed = 0;
    while placed < nonzero {
        let index = rng.next_u64_below(n as u64) as usize;
        if weights[index] == 0.0 {
            weights[index] = 1.0 / (placed + 1) as f64;
            placed += 1;
        }
    }
    weights
}

/// `n` Zipf(1) weights `1/(r+1)` over ranks `r`, in seeded-shuffled order.
pub fn zipf_shuffled(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = stream(seed, 2);
    let mut weights: Vec<f64> = (0..n).map(|r| 1.0 / (r + 1) as f64).collect();
    for i in (1..n).rev() {
        let j = rng.next_u64_below(i as u64 + 1) as usize;
        weights.swap(i, j);
    }
    weights
}

/// `count` overrides at seeded-random indices of `weights`, each writing
/// back that category's current weight (the served law does not change).
pub fn overrides(rng: &mut Xoshiro256PlusPlus, weights: &[f64], count: usize) -> Vec<(usize, f64)> {
    (0..count)
        .map(|_| {
            let index = rng.next_u64_below(weights.len() as u64) as usize;
            (index, weights[index])
        })
        .collect()
}
