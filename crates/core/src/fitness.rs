//! The validated fitness vector and the workload generators used by the
//! paper's evaluation.

use crate::error::SelectionError;

/// A vector of non-negative, finite fitness values together with cached
/// aggregate information (total mass, number of non-zero entries).
///
/// `Fitness` is the input to every selector in this crate. Construction
/// validates the values once, so the selectors can assume well-formed input
/// and concentrate on their own logic. An all-zero vector is constructible
/// (it occurs naturally, e.g. an ant that has visited every city) — selectors
/// report [`SelectionError::AllZeroFitness`] when asked to draw from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Fitness {
    values: Vec<f64>,
    total: f64,
    non_zero: usize,
}

impl Fitness {
    /// Validate and wrap a vector of fitness values.
    pub fn new(values: Vec<f64>) -> Result<Self, SelectionError> {
        if values.is_empty() {
            return Err(SelectionError::EmptyFitness);
        }
        let mut total = 0.0;
        let mut non_zero = 0usize;
        for (index, &value) in values.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(SelectionError::InvalidFitness { index, value });
            }
            if value > 0.0 {
                non_zero += 1;
            }
            total += value;
        }
        Ok(Self {
            values,
            total,
            non_zero,
        })
    }

    /// Build a fitness vector by evaluating `f` at every index.
    pub fn from_fn(n: usize, f: impl Fn(usize) -> f64) -> Result<Self, SelectionError> {
        Self::new((0..n).map(f).collect())
    }

    /// The workload of the paper's **Table I**: `f_i = i` for `0 ≤ i ≤ 9`
    /// (index 0 has zero fitness and must never be selected).
    pub fn table1() -> Self {
        Self::new((0..10).map(|i| i as f64).collect()).expect("static workload is valid")
    }

    /// The workload of the paper's **Table II**: `n = 100`, `f_0 = 1`,
    /// `f_1 = … = f_99 = 2`. The interesting index is 0: its exact selection
    /// probability is `1/199 ≈ 0.005025`, yet the independent roulette
    /// selects it with probability `≈ 1.6·10⁻³²`.
    pub fn table2() -> Self {
        let mut v = vec![2.0; 100];
        v[0] = 1.0;
        Self::new(v).expect("static workload is valid")
    }

    /// `f_i = i` for `0 ≤ i < n` (a larger version of Table I).
    pub fn linear(n: usize) -> Result<Self, SelectionError> {
        Self::from_fn(n, |i| i as f64)
    }

    /// All entries equal to `value`.
    pub fn uniform(n: usize, value: f64) -> Result<Self, SelectionError> {
        Self::new(vec![value; n])
    }

    /// A sparse vector of length `n` with exactly `k` entries equal to
    /// `value` at deterministic, well-spread positions (useful for the
    /// `O(log k)` experiments where `k ≪ n`).
    ///
    /// Positions are chosen as `⌊j·n/k⌋` for `j = 0..k`, which spreads the
    /// non-zero entries evenly without needing a random source.
    pub fn sparse(n: usize, k: usize, value: f64) -> Result<Self, SelectionError> {
        assert!(k <= n, "cannot place {k} non-zero entries in {n} slots");
        let mut values = vec![0.0; n];
        for j in 0..k {
            values[j * n / k.max(1)] = value;
        }
        Self::new(values)
    }

    /// The underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Unwrap the validated values, handing the buffer back to the caller
    /// (who can refill it and validate it again without reallocating).
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector has no entries (never true for a constructed
    /// `Fitness`, kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of all fitness values.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of strictly positive entries — the paper's `k`.
    pub fn non_zero_count(&self) -> usize {
        self.non_zero
    }

    /// Whether every entry is zero.
    pub fn is_all_zero(&self) -> bool {
        self.non_zero == 0
    }

    /// The exact target probability `F_i = f_i / Σ f_j` of index `i`,
    /// or 0 if every fitness is zero.
    pub fn probability(&self, index: usize) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.values[index] / self.total
        }
    }

    /// All exact target probabilities `F_i`.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.probability(i)).collect()
    }

    /// Indices with strictly positive fitness.
    pub fn support(&self) -> Vec<usize> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, &v)| (v > 0.0).then_some(i))
            .collect()
    }
}

impl TryFrom<Vec<f64>> for Fitness {
    type Error = SelectionError;

    fn try_from(values: Vec<f64>) -> Result<Self, Self::Error> {
        Self::new(values)
    }
}

impl TryFrom<&[f64]> for Fitness {
    type Error = SelectionError;

    fn try_from(values: &[f64]) -> Result<Self, Self::Error> {
        Self::new(values.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn valid_construction_and_aggregates() {
        let f = Fitness::new(vec![0.0, 1.0, 2.0, 3.0]).unwrap();
        assert_eq!(f.len(), 4);
        assert_eq!(f.total(), 6.0);
        assert_eq!(f.non_zero_count(), 3);
        assert!(!f.is_all_zero());
        assert_eq!(f.support(), vec![1, 2, 3]);
    }

    #[test]
    fn into_values_returns_the_same_buffer() {
        let values = vec![0.0, 1.5, 2.0];
        let ptr = values.as_ptr();
        let back = Fitness::new(values).unwrap().into_values();
        assert_eq!(back, vec![0.0, 1.5, 2.0]);
        assert_eq!(back.as_ptr(), ptr, "the buffer must move, not be copied");
    }

    #[test]
    fn empty_vector_is_rejected() {
        assert_eq!(Fitness::new(vec![]), Err(SelectionError::EmptyFitness));
    }

    #[test]
    fn negative_nan_and_infinite_values_are_rejected() {
        assert!(matches!(
            Fitness::new(vec![1.0, -0.5]),
            Err(SelectionError::InvalidFitness { index: 1, .. })
        ));
        assert!(matches!(
            Fitness::new(vec![f64::NAN]),
            Err(SelectionError::InvalidFitness { index: 0, .. })
        ));
        assert!(matches!(
            Fitness::new(vec![1.0, f64::INFINITY, 2.0]),
            Err(SelectionError::InvalidFitness { index: 1, .. })
        ));
    }

    #[test]
    fn all_zero_is_constructible_but_flagged() {
        let f = Fitness::new(vec![0.0, 0.0]).unwrap();
        assert!(f.is_all_zero());
        assert_eq!(f.probability(0), 0.0);
        assert_eq!(f.support(), Vec::<usize>::new());
    }

    #[test]
    fn probabilities_sum_to_one_and_match_definition() {
        let f = Fitness::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let probs = f.probabilities();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((probs[2] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn table1_matches_the_paper() {
        let f = Fitness::table1();
        assert_eq!(f.len(), 10);
        assert_eq!(f.values()[0], 0.0);
        assert_eq!(f.values()[9], 9.0);
        assert_eq!(f.total(), 45.0);
        // F_9 = 9/45 = 0.2 as printed in Table I.
        assert!((f.probability(9) - 0.2).abs() < 1e-12);
        assert!((f.probability(1) - 0.022222).abs() < 1e-6);
    }

    #[test]
    fn table2_matches_the_paper() {
        let f = Fitness::table2();
        assert_eq!(f.len(), 100);
        assert_eq!(f.values()[0], 1.0);
        assert!(f.values()[1..].iter().all(|&v| v == 2.0));
        assert_eq!(f.total(), 199.0);
        assert!((f.probability(0) - 0.005025).abs() < 1e-6);
        assert!((f.probability(1) - 0.010050).abs() < 1e-6);
    }

    #[test]
    fn sparse_places_exactly_k_entries() {
        for (n, k) in [(100, 1), (100, 7), (128, 64), (50, 50), (10, 0)] {
            let f = Fitness::sparse(n, k, 3.0).unwrap();
            assert_eq!(f.len(), n);
            assert_eq!(f.non_zero_count(), k, "n={n}, k={k}");
            assert_eq!(f.total(), 3.0 * k as f64);
        }
    }

    #[test]
    #[should_panic]
    fn sparse_with_k_larger_than_n_panics() {
        let _ = Fitness::sparse(5, 6, 1.0);
    }

    #[test]
    fn linear_and_uniform_builders() {
        let lin = Fitness::linear(5).unwrap();
        assert_eq!(lin.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let uni = Fitness::uniform(4, 2.5).unwrap();
        assert_eq!(uni.total(), 10.0);
        assert_eq!(uni.non_zero_count(), 4);
    }

    #[test]
    fn try_from_conversions() {
        let f: Fitness = vec![1.0, 2.0].try_into().unwrap();
        assert_eq!(f.total(), 3.0);
        let f2: Fitness = Fitness::try_from(&[1.0, 2.0][..]).unwrap();
        assert_eq!(f, f2);
    }

    proptest! {
        #[test]
        fn prop_probabilities_are_a_distribution(
            values in proptest::collection::vec(0.0f64..1e6, 1..200)
        ) {
            prop_assume!(values.iter().any(|&v| v > 0.0));
            let f = Fitness::new(values).unwrap();
            let probs = f.probabilities();
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn prop_support_size_equals_non_zero_count(
            values in proptest::collection::vec(0.0f64..10.0, 1..100)
        ) {
            let f = Fitness::new(values).unwrap();
            prop_assert_eq!(f.support().len(), f.non_zero_count());
        }
    }
}
