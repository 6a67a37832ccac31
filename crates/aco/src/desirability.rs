//! Shared desirability tables backed by `lrb-dynamic` Fenwick samplers: the
//! dynamic-selection fast path for tour construction.
//!
//! The classic construction ([`construct_tour`](crate::ant::construct_tour))
//! re-derives the desirabilities `τ(c, j)^α · η(c, j)^β` of the `k`
//! unvisited cities at **every step of every ant** — `O(k)` work per step,
//! `O(ants · n²)` per colony iteration — even though within one iteration
//! the pheromone matrix never changes. These tables turn that around:
//!
//! * One [`FenwickSampler`] per *current city* row, built once and then
//!   **updated in place** as the pheromone changes: evaporation multiplies a
//!   whole row by a constant, which is absorbed into a per-row scale factor
//!   in `O(1)`, and a deposit touches one edge, which is an `O(log n)`
//!   Fenwick update — pheromone updates no longer trigger full rebuilds.
//! * During construction the rows are immutable and shared by every ant, so
//!   the rayon ants read them concurrently. The visited-city filter is
//!   applied per ant by rejection sampling (exact: conditioning a roulette
//!   wheel on the accepted subset preserves the relative probabilities),
//!   with an `O(k)` exact fallback over the unvisited list once the visited
//!   mass dominates.
//!
//! The MAX-MIN variant clamps every trail after each update, which breaks
//! the pure-scaling structure; colonies running MMAS call
//! [`DesirabilityTables::reload`] once per iteration instead — still `ants×`
//! cheaper than the per-ant re-derivation.

use lrb_core::{DynamicSampler, SelectionError};
use lrb_dynamic::FenwickSampler;
use lrb_rng::RandomSource;

use crate::ant::{pow, AntParams};
use crate::pheromone::PheromoneMatrix;
use crate::tsp::TspInstance;

/// Rejection-sampling attempts before falling back to the exact `O(k)` scan
/// over the unvisited list.
///
/// The cardinality gate below (`4·k ≥ n`) only bounds how many cities are
/// unvisited, not how much *mass* they carry: a converged colony can pile
/// well over 99% of a row's desirability onto already-visited neighbours,
/// making the acceptance rate tiny even early in a tour. A small cap bounds
/// that worst case at four wasted `O(log n)` descents before the exact
/// fallback, while the common high-acceptance case still succeeds on the
/// first draw.
const MAX_REJECTIONS: usize = 4;

/// When a scale factor decays below this, the row is renormalised so tree
/// entries stay within `f64` range over arbitrarily long runs.
const MIN_SCALE: f64 = 1e-120;

/// Per-city Fenwick rows over `τ^α · η^β`, maintained incrementally.
#[derive(Debug, Clone)]
pub struct DesirabilityTables {
    /// Row `c` holds the desirability of moving from `c` to each city
    /// (diagonal forced to zero), divided by `scales[c]`.
    rows: Vec<FenwickSampler>,
    /// Row scale factors: `true weight = tree weight · scale`.
    scales: Vec<f64>,
    /// Precomputed `η(c, j)^β` (distances never change).
    visibility_pow: Vec<f64>,
    alpha: f64,
    n: usize,
}

impl DesirabilityTables {
    /// Build the tables for an instance, a pheromone state and construction
    /// parameters (`α`, `β`).
    ///
    /// # Example
    ///
    /// ```
    /// use lrb_aco::{AntParams, DesirabilityTables, PheromoneMatrix, TspInstance};
    ///
    /// let instance = TspInstance::random_euclidean(10, 1);
    /// let pheromone = PheromoneMatrix::new(10, 1.0);
    /// let tables = DesirabilityTables::new(&instance, &pheromone, &AntParams::default());
    /// assert_eq!(tables.len(), 10);
    /// assert_eq!(tables.weight(3, 3), 0.0); // staying put is never desirable
    /// assert!(tables.weight(3, 4) > 0.0);
    /// ```
    pub fn new(instance: &TspInstance, pheromone: &PheromoneMatrix, params: &AntParams) -> Self {
        let n = instance.len();
        assert_eq!(pheromone.len(), n, "pheromone matrix and instance disagree");
        let mut visibility_pow = vec![0.0; n * n];
        for c in 0..n {
            for j in 0..n {
                if c != j {
                    let distance = instance.distance(c, j).max(1e-12);
                    visibility_pow[c * n + j] = pow(1.0 / distance, params.beta);
                }
            }
        }
        let mut tables = Self {
            rows: Vec::with_capacity(n),
            scales: vec![1.0; n],
            visibility_pow,
            alpha: params.alpha,
            n,
        };
        for c in 0..n {
            let weights = tables.true_row(c, pheromone);
            tables
                .rows
                .push(FenwickSampler::from_weights(weights).expect("n >= 2 validated rows"));
        }
        tables
    }

    /// Number of cities.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the tables cover zero cities (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The current desirability of moving from `current` to `to`
    /// (zero on the diagonal).
    pub fn weight(&self, current: usize, to: usize) -> f64 {
        self.rows[current].weight(to) * self.scales[current]
    }

    /// The full desirability row as stored (scaled tree weights).
    fn true_row(&self, c: usize, pheromone: &PheromoneMatrix) -> Vec<f64> {
        (0..self.n)
            .map(|j| {
                if j == c {
                    0.0
                } else {
                    pow(pheromone.get(c, j), self.alpha) * self.visibility_pow[c * self.n + j]
                }
            })
            .collect()
    }

    /// Absorb a whole-matrix evaporation `τ ← (1 − rate)·τ` in `O(n)` total:
    /// each row's scale factor is multiplied by `(1 − rate)^α`.
    ///
    /// Only valid while the pheromone matrix applies no clamping (the Ant
    /// System case); MMAS colonies use [`reload`](Self::reload).
    pub fn evaporate(&mut self, rate: f64) {
        assert!((0.0..=1.0).contains(&rate));
        let factor = pow(1.0 - rate, self.alpha);
        for c in 0..self.n {
            self.scales[c] *= factor;
            if self.scales[c] < MIN_SCALE {
                self.renormalise_row(c);
            }
        }
    }

    /// Fold a decayed scale factor back into the tree weights.
    fn renormalise_row(&mut self, c: usize) {
        let scale = self.scales[c];
        let weights: Vec<f64> = self.rows[c].weights().iter().map(|w| w * scale).collect();
        self.rows[c]
            .reload(&weights)
            .expect("scaled weights stay finite and non-negative");
        self.scales[c] = 1.0;
    }

    /// Re-read the trails along a deposited tour's edges — `O(log n)` per
    /// touched edge, both directions of each edge.
    ///
    /// Reading the *current* matrix value makes the refresh idempotent, so
    /// overlapping deposits from several ants are handled by refreshing each
    /// tour in turn.
    pub fn refresh_tour_edges(&mut self, pheromone: &PheromoneMatrix, order: &[usize]) {
        if order.len() < 2 {
            return;
        }
        for w in order.windows(2) {
            self.refresh_edge(pheromone, w[0], w[1]);
        }
        let first = order[0];
        let last = *order.last().expect("len checked above");
        self.refresh_edge(pheromone, last, first);
    }

    /// Re-read one (symmetric) edge from the pheromone matrix.
    pub fn refresh_edge(&mut self, pheromone: &PheromoneMatrix, a: usize, b: usize) {
        if a == b {
            return;
        }
        for (row, col) in [(a, b), (b, a)] {
            let true_weight =
                pow(pheromone.get(row, col), self.alpha) * self.visibility_pow[row * self.n + col];
            self.rows[row]
                .update(col, true_weight / self.scales[row])
                .expect("desirabilities are finite and non-negative");
        }
    }

    /// Rebuild every row from the matrix (`O(n²)`): required after MMAS
    /// re-clamping, where evaporation is no longer a pure scaling.
    pub fn reload(&mut self, pheromone: &PheromoneMatrix) {
        for c in 0..self.n {
            self.scales[c] = 1.0;
            let weights = self.true_row(c, pheromone);
            self.rows[c]
                .reload(&weights)
                .expect("desirabilities are finite and non-negative");
        }
    }

    /// Draw the next city for an ant at `current`, conditioned on the
    /// unvisited set — exact roulette wheel probabilities
    /// `w_j / Σ_{u unvisited} w_u`.
    ///
    /// Strategy: rejection-sample the shared row (`O(log n)` per attempt,
    /// exact by conditioning) while the unvisited mass is likely to
    /// dominate, then fall back to an exact `O(k)` scan over `unvisited`.
    pub fn next_city(
        &self,
        current: usize,
        visited: &[bool],
        unvisited: &[usize],
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError> {
        debug_assert_eq!(visited.len(), self.n);
        let k = unvisited.len();
        if k == 0 {
            return Err(SelectionError::AllZeroFitness);
        }
        // Rejection sampling pays while the acceptance rate is decent; once
        // most cities are visited (k ≪ n) the exact fallback is cheaper.
        if 4 * k >= self.n {
            // First attempt alone: in the common high-acceptance case it
            // succeeds immediately and nothing else is paid.
            let candidate = self.rows[current].sample(rng)?;
            if !visited[candidate] {
                return Ok(candidate);
            }
            // Rejected: draw the remaining attempts as one burst through the
            // batch primitive, which hoists the row's O(log n) total-weight
            // read out of the per-attempt loop. Scanning the buffer in order
            // is distribution-identical to sequential rejection attempts
            // (each entry is an independent draw from the same row).
            let mut burst = [0usize; MAX_REJECTIONS - 1];
            self.rows[current].sample_into(rng, &mut burst)?;
            if let Some(&candidate) = burst.iter().find(|&&c| !visited[c]) {
                return Ok(candidate);
            }
        }
        // Exact conditional draw over the unvisited list (tree weights share
        // the row scale, which cancels in the normalisation).
        let row = &self.rows[current];
        let total: f64 = unvisited.iter().map(|&j| row.weight(j)).sum();
        if total <= 0.0 {
            return Err(SelectionError::AllZeroFitness);
        }
        let mut r = rng.next_f64() * total;
        let mut last_positive = None;
        for &j in unvisited {
            let w = row.weight(j);
            if w <= 0.0 {
                continue;
            }
            if r < w {
                return Ok(j);
            }
            last_positive = Some(j);
            r -= w;
        }
        last_positive.ok_or(SelectionError::AllZeroFitness)
    }

    /// The unvisited city with the highest desirability from `current`
    /// (the ACS `q₀` exploitation step), `O(k)`.
    pub fn best_unvisited(&self, current: usize, unvisited: &[usize]) -> Option<usize> {
        let row = &self.rows[current];
        unvisited.iter().copied().max_by(|&a, &b| {
            row.weight(a)
                .partial_cmp(&row.weight(b))
                .expect("finite desirabilities")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    fn setup(n: usize, seed: u64) -> (TspInstance, PheromoneMatrix, AntParams) {
        (
            TspInstance::random_euclidean(n, seed),
            PheromoneMatrix::new(n, 1.0),
            AntParams::default(),
        )
    }

    #[test]
    fn tables_match_the_direct_desirability_formula() {
        let (instance, pheromone, params) = setup(12, 1);
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        for c in 0..12 {
            assert_eq!(tables.weight(c, c), 0.0);
            for j in 0..12 {
                if j == c {
                    continue;
                }
                let direct = params.desirability(&instance, &pheromone, c, j);
                assert_eq!(tables.weight(c, j), direct, "({c},{j})");
            }
        }
    }

    #[test]
    fn evaporate_plus_refresh_tracks_the_matrix_exactly() {
        let (instance, mut pheromone, params) = setup(10, 2);
        let mut tables = DesirabilityTables::new(&instance, &pheromone, &params);

        for round in 0..50 {
            pheromone.evaporate(0.1);
            tables.evaporate(0.1);
            let order: Vec<usize> = (0..10).map(|i| (i * 3 + round) % 10).collect();
            // The synthetic "tour" visits some cities twice and that's fine:
            // refresh reads the final matrix state.
            pheromone.deposit_tour(&order, 0.25);
            tables.refresh_tour_edges(&pheromone, &order);
        }

        for c in 0..10 {
            for j in 0..10 {
                if j == c {
                    continue;
                }
                let direct = params.desirability(&instance, &pheromone, c, j);
                let tabled = tables.weight(c, j);
                assert!(
                    (direct - tabled).abs() <= 1e-9 * direct.max(1.0),
                    "({c},{j}): {tabled} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn long_evaporation_runs_renormalise_without_drift() {
        let (instance, mut pheromone, params) = setup(6, 3);
        let mut tables = DesirabilityTables::new(&instance, &pheromone, &params);
        // 0.9^9000 ≈ 1e-412 underflows f64; the scale-factor renormalisation
        // must keep the tables finite and accurate.
        for _ in 0..9_000 {
            pheromone.evaporate(0.1);
            tables.evaporate(0.1);
            // Keep the matrix itself from underflowing entirely.
            if pheromone.max_value() < 1e-3 {
                let order: Vec<usize> = (0..6).collect();
                pheromone.deposit_tour(&order, 1.0);
                tables.refresh_tour_edges(&pheromone, &order);
            }
        }
        for c in 0..6 {
            for j in 0..6 {
                if j == c {
                    continue;
                }
                let direct = params.desirability(&instance, &pheromone, c, j);
                let tabled = tables.weight(c, j);
                assert!(tabled.is_finite());
                assert!(
                    (direct - tabled).abs() <= 1e-6 * direct.max(1e-12),
                    "({c},{j}): {tabled} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn reload_resyncs_after_clamped_updates() {
        let (instance, mut pheromone, params) = setup(8, 4);
        let mut tables = DesirabilityTables::new(&instance, &pheromone, &params);
        pheromone.set_bounds(0.05, 0.5); // clamps every value: scaling breaks
        pheromone.evaporate(0.5);
        tables.reload(&pheromone);
        for c in 0..8 {
            for j in 0..8 {
                if j == c {
                    continue;
                }
                let direct = params.desirability(&instance, &pheromone, c, j);
                assert!((direct - tables.weight(c, j)).abs() <= 1e-12 * direct.max(1.0));
            }
        }
    }

    #[test]
    fn next_city_distribution_matches_the_conditional_roulette() {
        let (instance, pheromone, params) = setup(9, 5);
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let mut visited = vec![false; 9];
        for dead in [0usize, 3, 4] {
            visited[dead] = true;
        }
        let unvisited: Vec<usize> = (0..9).filter(|&j| !visited[j]).collect();
        let current = 0;

        let total: f64 = unvisited.iter().map(|&j| tables.weight(current, j)).sum();
        let mut rng = MersenneTwister64::seed_from_u64(7);
        let trials = 60_000;
        let mut counts = [0u64; 9];
        for _ in 0..trials {
            let next = tables
                .next_city(current, &visited, &unvisited, &mut rng)
                .unwrap();
            assert!(!visited[next], "drew a visited city");
            counts[next] += 1;
        }
        for &j in &unvisited {
            let freq = counts[j] as f64 / trials as f64;
            let target = tables.weight(current, j) / total;
            assert!((freq - target).abs() < 0.01, "city {j}: {freq} vs {target}");
        }
    }

    #[test]
    fn next_city_uses_the_exact_path_when_few_cities_remain() {
        let (instance, pheromone, params) = setup(30, 6);
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let mut visited = vec![true; 30];
        visited[17] = false;
        visited[21] = false;
        let unvisited = vec![17usize, 21];
        let mut rng = MersenneTwister64::seed_from_u64(8);
        for _ in 0..200 {
            let next = tables.next_city(5, &visited, &unvisited, &mut rng).unwrap();
            assert!(next == 17 || next == 21);
        }
    }

    #[test]
    fn exhausted_unvisited_list_reports_all_zero() {
        let (instance, pheromone, params) = setup(5, 7);
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let visited = vec![true; 5];
        let mut rng = MersenneTwister64::seed_from_u64(9);
        assert_eq!(
            tables.next_city(2, &visited, &[], &mut rng),
            Err(SelectionError::AllZeroFitness)
        );
    }

    #[test]
    fn best_unvisited_is_the_argmax() {
        let (instance, pheromone, params) = setup(10, 8);
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let unvisited: Vec<usize> = (1..10).collect();
        let best = tables.best_unvisited(0, &unvisited).unwrap();
        let brute = unvisited
            .iter()
            .copied()
            .max_by(|&a, &b| {
                tables
                    .weight(0, a)
                    .partial_cmp(&tables.weight(0, b))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(best, brute);
        assert!(tables.best_unvisited(0, &[]).is_none());
    }
}
