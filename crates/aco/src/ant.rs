//! Tour construction by a single ant.
//!
//! At each step the ant sits in a city and must choose the next city among
//! the unvisited ones. Each candidate city `j` gets a desirability
//! `τ(current, j)^α · η(current, j)^β` where `τ` is the pheromone trail and
//! `η = 1 / distance` the heuristic visibility; visited cities get fitness
//! **zero**. The next city is then drawn by roulette wheel selection over
//! this fitness vector — this is precisely the workload the paper's
//! logarithmic random bidding targets: of the `n` fitness values only the
//! `k` unvisited ones are non-zero, and `k` shrinks to 1 as the tour grows.

use lrb_core::{Fitness, SelectionError, Selector};
use lrb_rng::RandomSource;

use crate::desirability::DesirabilityTables;
use crate::pheromone::PheromoneMatrix;
use crate::tsp::{Tour, TspInstance};

/// Construction parameters shared by all ants of a colony.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AntParams {
    /// Pheromone exponent `α`.
    pub alpha: f64,
    /// Heuristic (visibility) exponent `β`.
    pub beta: f64,
    /// Ant Colony System pseudo-random-proportional parameter `q₀ ∈ [0, 1]`:
    /// with probability `q₀` the ant exploits (takes the arg-max
    /// desirability) and otherwise explores with the roulette wheel
    /// selection. `0` (the default) is the pure Ant System rule the paper
    /// assumes; values around `0.9` reproduce the greedy ACS behaviour.
    pub q0: f64,
}

impl Default for AntParams {
    fn default() -> Self {
        // The classic Ant System defaults (Dorigo & Gambardella).
        Self {
            alpha: 1.0,
            beta: 2.0,
            q0: 0.0,
        }
    }
}

impl AntParams {
    /// Desirability of moving from `from` to `to`.
    pub fn desirability(
        &self,
        instance: &TspInstance,
        pheromone: &PheromoneMatrix,
        from: usize,
        to: usize,
    ) -> f64 {
        let distance = instance.distance(from, to).max(1e-12);
        let visibility = 1.0 / distance;
        pow(pheromone.get(from, to), self.alpha) * pow(visibility, self.beta)
    }
}

/// `x^e`, skipping libm's `pow` at the Ant System exponents: `x¹` is `x`
/// exactly and `x * x` is the correctly rounded square, so the fast paths
/// are never less accurate than `powf`. Every desirability in this crate
/// goes through here, which keeps the one-shot and table backends
/// bit-identical.
#[inline]
pub(crate) fn pow(x: f64, e: f64) -> f64 {
    if e == 1.0 {
        x
    } else if e == 2.0 {
        x * x
    } else {
        x.powf(e)
    }
}

/// Construct one complete tour starting from `start`, choosing every next
/// city with the supplied roulette wheel `selector`.
///
/// Returns the finished tour. The per-step fitness vector has length `n`
/// (one slot per city) with zeros for visited cities, so the selector sees
/// exactly the sparse vectors the paper describes.
///
/// A step costs `O(k)` besides the selector: only the `k` unvisited slots
/// are rewritten (a city's slot is zeroed once, when it is visited), and
/// the one fitness buffer of the tour is moved into [`Fitness`] and taken
/// back after each selection instead of being copied.
pub fn construct_tour(
    instance: &TspInstance,
    pheromone: &PheromoneMatrix,
    params: &AntParams,
    selector: &dyn Selector,
    start: usize,
    rng: &mut dyn RandomSource,
) -> Result<Tour, SelectionError> {
    let n = instance.len();
    assert_eq!(
        pheromone.len(),
        n,
        "pheromone matrix and instance disagree on the city count"
    );
    assert!(start < n, "start city {start} out of range");
    assert!(
        (0.0..=1.0).contains(&params.q0),
        "q0 must lie in [0, 1], got {}",
        params.q0
    );

    let mut order = Vec::with_capacity(n);
    let mut unvisited = Unvisited::new(n, start);
    let mut current = start;
    order.push(current);

    let mut fitness_buf = vec![0.0; n];
    for _ in 1..n {
        for &j in unvisited.cities() {
            fitness_buf[j] = params.desirability(instance, pheromone, current, j);
        }
        // ACS pseudo-random proportional rule: exploit with probability q0,
        // otherwise fall through to the roulette wheel selection.
        let next = if params.q0 > 0.0 && rng.next_f64() < params.q0 {
            unvisited
                .cities()
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    fitness_buf[a]
                        .partial_cmp(&fitness_buf[b])
                        .expect("finite desirabilities")
                })
                .expect("unvisited cities remain")
        } else {
            let fitness = Fitness::new(fitness_buf)?;
            let drawn = selector.select(&fitness, rng);
            fitness_buf = fitness.into_values();
            drawn?
        };
        unvisited.remove(next);
        fitness_buf[next] = 0.0;
        order.push(next);
        current = next;
    }

    let length = instance.tour_length(&order);
    Ok(Tour { order, length })
}

/// The unvisited cities of one tour as a swap-removable list plus a
/// city → slot map: listing is `O(k)`, removal and membership are `O(1)`.
struct Unvisited {
    cities: Vec<usize>,
    /// `position[c]` is `c`'s slot in `cities`, `usize::MAX` once visited.
    position: Vec<usize>,
}

impl Unvisited {
    /// Every city except `start`.
    fn new(n: usize, start: usize) -> Self {
        let cities: Vec<usize> = (0..start).chain(start + 1..n).collect();
        let mut position = vec![usize::MAX; n];
        for (slot, &city) in cities.iter().enumerate() {
            position[city] = slot;
        }
        Self { cities, position }
    }

    fn cities(&self) -> &[usize] {
        &self.cities
    }

    /// Mark `city` visited; panics if it already was.
    fn remove(&mut self, city: usize) {
        let slot = self.position[city];
        assert!(slot != usize::MAX, "city {city} was already visited");
        self.cities.swap_remove(slot);
        if let Some(&moved) = self.cities.get(slot) {
            self.position[moved] = slot;
        }
        self.position[city] = usize::MAX;
    }
}

/// Construct one complete tour using shared [`DesirabilityTables`] instead
/// of re-deriving the desirability vector at every step.
///
/// This is the dynamic-selection fast path: the tables are built (and
/// incrementally maintained) once per colony iteration, each step draws the
/// next city in `O(log n)` expected work through the row Fenwick trees, and
/// no per-step allocation or `Fitness` validation happens at all. The
/// selection probabilities are identical to [`construct_tour`] with an exact
/// selector: both draw city `j` with probability
/// `w_j / Σ_{u unvisited} w_u`.
///
/// # Example
///
/// ```
/// use lrb_aco::{construct_tour_dynamic, AntParams, DesirabilityTables, PheromoneMatrix, TspInstance};
/// use lrb_rng::{MersenneTwister64, SeedableSource};
///
/// let instance = TspInstance::random_euclidean(15, 3);
/// let pheromone = PheromoneMatrix::new(15, 1.0);
/// let params = AntParams::default();
/// let tables = DesirabilityTables::new(&instance, &pheromone, &params);
/// let mut rng = MersenneTwister64::seed_from_u64(1);
/// let tour = construct_tour_dynamic(&instance, &tables, &params, 0, &mut rng).unwrap();
/// assert!(tour.is_valid(15));
/// ```
pub fn construct_tour_dynamic(
    instance: &TspInstance,
    tables: &DesirabilityTables,
    params: &AntParams,
    start: usize,
    rng: &mut dyn RandomSource,
) -> Result<Tour, SelectionError> {
    let n = instance.len();
    assert_eq!(
        tables.len(),
        n,
        "desirability tables and instance disagree on the city count"
    );
    assert!(start < n, "start city {start} out of range");
    assert!(
        (0.0..=1.0).contains(&params.q0),
        "q0 must lie in [0, 1], got {}",
        params.q0
    );

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // O(1) removals keep the exact fallback scan O(k).
    let mut unvisited = Unvisited::new(n, start);
    let mut current = start;
    visited[current] = true;
    order.push(current);

    for _ in 1..n {
        let next = if params.q0 > 0.0 && rng.next_f64() < params.q0 {
            tables
                .best_unvisited(current, unvisited.cities())
                .expect("unvisited cities remain")
        } else {
            tables.next_city(current, &visited, unvisited.cities(), rng)?
        };
        unvisited.remove(next);
        visited[next] = true;
        order.push(next);
        current = next;
    }

    let length = instance.tour_length(&order);
    Ok(Tour { order, length })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_core::parallel::{IndependentRouletteSelector, LogBiddingSelector};
    use lrb_core::sequential::LinearScanSelector;
    use lrb_rng::{MersenneTwister64, SeedableSource};

    fn setup(n: usize, seed: u64) -> (TspInstance, PheromoneMatrix) {
        let instance = TspInstance::random_euclidean(n, seed);
        let pheromone = PheromoneMatrix::new(n, 1.0);
        (instance, pheromone)
    }

    #[test]
    fn constructed_tours_are_valid_permutations() {
        let (instance, pheromone) = setup(30, 1);
        let mut rng = MersenneTwister64::seed_from_u64(1);
        for selector in [
            &LinearScanSelector as &dyn Selector,
            &LogBiddingSelector::default(),
            &IndependentRouletteSelector,
        ] {
            let tour = construct_tour(
                &instance,
                &pheromone,
                &AntParams::default(),
                selector,
                0,
                &mut rng,
            )
            .unwrap();
            assert!(
                tour.is_valid(30),
                "{} built an invalid tour",
                selector.name()
            );
            assert!(tour.length > 0.0);
            assert_eq!(tour.order[0], 0);
        }
    }

    #[test]
    fn different_start_cities_are_respected() {
        let (instance, pheromone) = setup(12, 2);
        let mut rng = MersenneTwister64::seed_from_u64(2);
        for start in [0usize, 5, 11] {
            let tour = construct_tour(
                &instance,
                &pheromone,
                &AntParams::default(),
                &LogBiddingSelector::default(),
                start,
                &mut rng,
            )
            .unwrap();
            assert_eq!(tour.order[0], start);
            assert!(tour.is_valid(12));
        }
    }

    #[test]
    fn heavy_pheromone_trail_steers_the_ant() {
        // Put overwhelming pheromone on the circle order of a circle
        // instance; with α high and exact selection the ant should follow it
        // almost always, recovering (near-)optimal tours.
        let n = 10;
        let instance = TspInstance::circle(n, 1.0);
        let mut pheromone = PheromoneMatrix::new(n, 1e-6);
        let circle_order: Vec<usize> = (0..n).collect();
        pheromone.deposit_tour(&circle_order, 10.0);
        let params = AntParams {
            alpha: 3.0,
            beta: 1.0,
            ..AntParams::default()
        };
        let mut rng = MersenneTwister64::seed_from_u64(3);
        let optimum = TspInstance::circle_optimum(n, 1.0);
        let mut hits = 0;
        for _ in 0..50 {
            let tour = construct_tour(
                &instance,
                &pheromone,
                &params,
                &LogBiddingSelector::default(),
                0,
                &mut rng,
            )
            .unwrap();
            if (tour.length - optimum).abs() < 1e-9 {
                hits += 1;
            }
        }
        assert!(
            hits > 40,
            "ant followed the marked trail only {hits}/50 times"
        );
    }

    #[test]
    fn high_beta_prefers_short_edges() {
        // With β large and uniform pheromone the construction approaches the
        // greedy nearest-neighbour tour, so its length should be comparable.
        let (instance, pheromone) = setup(40, 4);
        let params = AntParams {
            alpha: 0.0,
            beta: 8.0,
            ..AntParams::default()
        };
        let mut rng = MersenneTwister64::seed_from_u64(4);
        let nn = instance.nearest_neighbor_tour(0);
        let tour = construct_tour(
            &instance,
            &pheromone,
            &params,
            &LogBiddingSelector::default(),
            0,
            &mut rng,
        )
        .unwrap();
        assert!(
            tour.length < nn.length * 1.5,
            "greedy-ish construction {} much worse than nearest neighbour {}",
            tour.length,
            nn.length
        );
    }

    #[test]
    fn desirability_is_monotone_in_pheromone_and_inverse_distance() {
        let (instance, mut pheromone) = setup(5, 5);
        let params = AntParams::default();
        let base = params.desirability(&instance, &pheromone, 0, 1);
        pheromone.deposit_edge(0, 1, 5.0);
        let boosted = params.desirability(&instance, &pheromone, 0, 1);
        assert!(boosted > base);
    }

    #[test]
    fn full_exploitation_is_deterministic_and_greedy() {
        // q0 = 1 turns every step into an arg-max of desirability: with
        // uniform pheromone this is exactly the nearest-neighbour tour.
        let (instance, pheromone) = setup(25, 8);
        let params = AntParams {
            alpha: 1.0,
            beta: 1.0,
            q0: 1.0,
        };
        let mut rng_a = MersenneTwister64::seed_from_u64(1);
        let mut rng_b = MersenneTwister64::seed_from_u64(999);
        let a = construct_tour(
            &instance,
            &pheromone,
            &params,
            &LogBiddingSelector::default(),
            0,
            &mut rng_a,
        )
        .unwrap();
        let b = construct_tour(
            &instance,
            &pheromone,
            &params,
            &LogBiddingSelector::default(),
            0,
            &mut rng_b,
        )
        .unwrap();
        assert_eq!(
            a.order, b.order,
            "pure exploitation must not depend on the RNG"
        );
        let nn = instance.nearest_neighbor_tour(0);
        assert_eq!(a.order, nn.order);
    }

    #[test]
    fn exploitation_never_revisits_when_every_desirability_underflows() {
        // τ^α = 0.5^2000 underflows to 0.0, so every unvisited city ties
        // with the visited ones at zero; the arg-max must still come from
        // the unvisited cities.
        let n = 10;
        let instance = TspInstance::random_euclidean(n, 12);
        let pheromone = PheromoneMatrix::new(n, 0.5);
        let params = AntParams {
            alpha: 2000.0,
            beta: 1.0,
            q0: 1.0,
        };
        assert_eq!(params.desirability(&instance, &pheromone, 0, 1), 0.0);
        let mut rng = MersenneTwister64::seed_from_u64(13);
        let tour = construct_tour(
            &instance,
            &pheromone,
            &params,
            &LogBiddingSelector::default(),
            0,
            &mut rng,
        )
        .unwrap();
        assert!(tour.is_valid(n), "revisited a city: {:?}", tour.order);
    }

    #[test]
    #[should_panic(expected = "already visited")]
    fn a_selector_returning_a_visited_city_panics() {
        /// Always picks city 0, the start.
        struct StartCity;
        impl Selector for StartCity {
            fn name(&self) -> &'static str {
                "start-city"
            }
            fn is_exact(&self) -> bool {
                false
            }
            fn select(
                &self,
                _: &Fitness,
                _: &mut dyn RandomSource,
            ) -> Result<usize, SelectionError> {
                Ok(0)
            }
        }
        let (instance, pheromone) = setup(5, 14);
        let mut rng = MersenneTwister64::seed_from_u64(1);
        let _ = construct_tour(
            &instance,
            &pheromone,
            &AntParams::default(),
            &StartCity,
            0,
            &mut rng,
        );
    }

    #[test]
    fn exponent_fast_paths_match_powf() {
        for x in [0.0, 1e-300, 0.37, 1.0, 3.5, 1e150] {
            assert_eq!(pow(x, 1.0), x.powf(1.0));
            assert_eq!(pow(x, 2.5), x.powf(2.5));
            assert_eq!(pow(x, 0.0), 1.0);
            let square = pow(x, 2.0);
            let reference = x.powf(2.0);
            assert!(
                (square - reference).abs() <= f64::EPSILON * reference,
                "{x}: {square} vs {reference}"
            );
        }
    }

    #[test]
    fn intermediate_q0_still_builds_valid_tours() {
        let (instance, pheromone) = setup(20, 9);
        let params = AntParams {
            alpha: 1.0,
            beta: 2.0,
            q0: 0.9,
        };
        let mut rng = MersenneTwister64::seed_from_u64(5);
        for _ in 0..20 {
            let tour = construct_tour(
                &instance,
                &pheromone,
                &params,
                &LogBiddingSelector::default(),
                3,
                &mut rng,
            )
            .unwrap();
            assert!(tour.is_valid(20));
        }
    }

    #[test]
    #[should_panic]
    fn q0_outside_the_unit_interval_panics() {
        let (instance, pheromone) = setup(5, 10);
        let params = AntParams {
            alpha: 1.0,
            beta: 1.0,
            q0: 1.5,
        };
        let mut rng = MersenneTwister64::seed_from_u64(1);
        let _ = construct_tour(
            &instance,
            &pheromone,
            &params,
            &LogBiddingSelector::default(),
            0,
            &mut rng,
        );
    }

    #[test]
    fn dynamic_construction_builds_valid_tours() {
        let (instance, pheromone) = setup(30, 21);
        let params = AntParams::default();
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let mut rng = MersenneTwister64::seed_from_u64(1);
        for start in [0usize, 7, 29] {
            let tour =
                construct_tour_dynamic(&instance, &tables, &params, start, &mut rng).unwrap();
            assert!(tour.is_valid(30));
            assert_eq!(tour.order[0], start);
        }
    }

    #[test]
    fn dynamic_first_step_matches_the_selector_path_in_distribution() {
        // For a fixed pheromone state the first step is a pure roulette
        // selection over n − 1 cities; the dynamic path must follow the same
        // distribution as the exact one-shot selectors.
        let (instance, pheromone) = setup(12, 22);
        let params = AntParams::default();
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let trials = 30_000;

        let mut dynamic_counts = [0usize; 12];
        let mut rng = MersenneTwister64::seed_from_u64(5);
        for _ in 0..trials {
            let tour = construct_tour_dynamic(&instance, &tables, &params, 0, &mut rng).unwrap();
            dynamic_counts[tour.order[1]] += 1;
        }

        let mut selector_counts = [0usize; 12];
        let mut rng = MersenneTwister64::seed_from_u64(6);
        for _ in 0..trials {
            let tour = construct_tour(
                &instance,
                &pheromone,
                &params,
                &LinearScanSelector,
                0,
                &mut rng,
            )
            .unwrap();
            selector_counts[tour.order[1]] += 1;
        }

        let max_gap = dynamic_counts
            .iter()
            .zip(&selector_counts)
            .map(|(&a, &b)| ((a as f64 - b as f64) / trials as f64).abs())
            .fold(0.0, f64::max);
        assert!(max_gap < 0.015, "paths disagree by {max_gap}");
    }

    #[test]
    fn dynamic_full_exploitation_matches_nearest_neighbour() {
        let (instance, pheromone) = setup(25, 23);
        let params = AntParams {
            alpha: 1.0,
            beta: 1.0,
            q0: 1.0,
        };
        let tables = DesirabilityTables::new(&instance, &pheromone, &params);
        let mut rng = MersenneTwister64::seed_from_u64(1);
        let tour = construct_tour_dynamic(&instance, &tables, &params, 0, &mut rng).unwrap();
        let nn = instance.nearest_neighbor_tour(0);
        assert_eq!(tour.order, nn.order);
    }

    #[test]
    fn three_city_instance_works() {
        let instance = TspInstance::from_coords(vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let pheromone = PheromoneMatrix::new(3, 1.0);
        let mut rng = MersenneTwister64::seed_from_u64(6);
        let tour = construct_tour(
            &instance,
            &pheromone,
            &AntParams::default(),
            &LinearScanSelector,
            0,
            &mut rng,
        )
        .unwrap();
        assert!(tour.is_valid(3));
        // All 3-city tours have the same length.
        assert!((tour.length - (1.0 + 1.0 + 2f64.sqrt())).abs() < 1e-12);
    }
}
