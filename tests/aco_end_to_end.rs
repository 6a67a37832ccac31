//! Integration test: the ACO application built on the selection library
//! works end to end, and the choice of selection strategy has the effect the
//! paper predicts — exact selection explores according to the intended
//! probabilities, while the independent roulette's bias towards large fitness
//! values makes its construction greedier.

use lrb_aco::coloring::{greedy_coloring, ColoringColony, ColoringParams};
use lrb_aco::{
    construct_tour, AntParams, Colony, ColonyParams, Graph, PheromoneMatrix, TspInstance,
};
use lrb_core::parallel::{IndependentRouletteSelector, LogBiddingSelector};
use lrb_core::sequential::LinearScanSelector;
use lrb_core::{Fitness, SelectionError, Selector};
use lrb_rng::{MersenneTwister64, RandomSource, SeedableSource};
use std::sync::Mutex;

#[test]
fn colony_with_exact_selection_solves_a_circle_instance_well() {
    let n = 24;
    let instance = TspInstance::circle(n, 1.0);
    let optimum = TspInstance::circle_optimum(n, 1.0);
    let selector = LogBiddingSelector::default();
    let params = ColonyParams {
        ants: 12,
        local_search: true,
        ..ColonyParams::default()
    };
    let mut colony = Colony::new(&instance, &selector, params, 3);
    colony.run(25).unwrap();
    let best = colony.best_tour().unwrap();
    assert!(best.is_valid(n));
    assert!(
        best.length < optimum * 1.05,
        "best {} vs optimum {optimum}",
        best.length
    );
}

#[test]
fn exact_strategies_produce_statistically_identical_first_steps() {
    // For a fixed pheromone state, the first construction step is a pure
    // roulette selection; the two exact selectors must agree in distribution
    // (this ties the ACO layer back to the probability guarantees).
    let instance = TspInstance::random_euclidean(12, 5);
    let pheromone = PheromoneMatrix::new(12, 1.0);
    let params = AntParams::default();
    let trials = 20_000;

    let first_step_distribution = |selector: &dyn Selector, seed: u64| -> Vec<f64> {
        let mut rng = MersenneTwister64::seed_from_u64(seed);
        let mut counts = [0usize; 12];
        for _ in 0..trials {
            let tour =
                construct_tour(&instance, &pheromone, &params, selector, 0, &mut rng).unwrap();
            counts[tour.order[1]] += 1;
        }
        counts.iter().map(|&c| c as f64 / trials as f64).collect()
    };

    let linear = first_step_distribution(&LinearScanSelector, 1);
    let log_bid = first_step_distribution(&LogBiddingSelector::default(), 2);
    let independent = first_step_distribution(&IndependentRouletteSelector, 3);

    let max_gap_exact: f64 = linear
        .iter()
        .zip(&log_bid)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(
        max_gap_exact < 0.015,
        "exact strategies disagree by {max_gap_exact}"
    );

    // The independent roulette concentrates on the most desirable city; its
    // largest single-city probability should exceed the exact strategy's.
    let max_linear = linear.iter().cloned().fold(0.0, f64::max);
    let max_independent = independent.iter().cloned().fold(0.0, f64::max);
    assert!(
        max_independent > max_linear,
        "independent roulette should over-concentrate (linear {max_linear}, independent {max_independent})"
    );
}

#[test]
fn ant_system_and_mmas_both_improve_over_their_first_iteration() {
    let instance = TspInstance::random_euclidean(40, 9);
    let selector = LogBiddingSelector::default();
    for variant in [
        lrb_aco::ColonyVariant::AntSystem,
        lrb_aco::ColonyVariant::MaxMin,
    ] {
        let params = ColonyParams {
            ants: 10,
            variant,
            ..ColonyParams::default()
        };
        let mut colony = Colony::new(&instance, &selector, params, 13);
        let stats = colony.run(20).unwrap();
        let first = stats.first().unwrap().global_best;
        let last = stats.last().unwrap().global_best;
        assert!(
            last <= first,
            "{variant:?}: best went from {first} to {last}"
        );
        assert!(colony.best_tour().unwrap().is_valid(40));
    }
}

#[test]
fn coloring_colony_beats_or_matches_greedy_and_stays_proper() {
    let graph = Graph::random(45, 0.25, 21);
    let greedy = greedy_coloring(&graph);
    assert!(graph.is_proper_coloring(&greedy.colors));

    let selector = LogBiddingSelector::default();
    let mut colony = ColoringColony::new(&graph, &selector, ColoringParams::default(), 2);
    let aco = colony.run(15).unwrap();
    assert!(graph.is_proper_coloring(&aco.colors));
    assert!(aco.colors_used <= greedy.colors_used);
    assert!(aco.colors_used <= graph.max_degree() + 1);
}

/// Delegates to an inner selector and keeps a copy of every fitness
/// vector it is asked to draw from.
struct RecordingSelector<S> {
    inner: S,
    seen: Mutex<Vec<Vec<f64>>>,
}

impl<S: Selector> Selector for RecordingSelector<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }

    fn select(
        &self,
        fitness: &Fitness,
        rng: &mut dyn RandomSource,
    ) -> Result<usize, SelectionError> {
        self.seen
            .lock()
            .expect("recording poisoned")
            .push(fitness.values().to_vec());
        self.inner.select(fitness, rng)
    }
}

#[test]
fn sparse_fitness_vectors_shrink_as_the_tour_grows() {
    // The motivation for O(log k): after t cities are visited, the step's
    // fitness vector has length n with exactly n − t non-zeros, zeros
    // exactly at the visited cities, and the desirability formula's value
    // at every unvisited city.
    let n = 30;
    let instance = TspInstance::random_euclidean(n, 11);
    let pheromone = PheromoneMatrix::new(n, 1.0);
    let params = AntParams::default();
    let selector = RecordingSelector {
        inner: LogBiddingSelector::default(),
        seen: Mutex::new(Vec::new()),
    };
    let mut rng = MersenneTwister64::seed_from_u64(1);
    let tour = construct_tour(&instance, &pheromone, &params, &selector, 0, &mut rng).unwrap();
    assert!(tour.is_valid(n));

    let seen = selector.seen.into_inner().unwrap();
    assert_eq!(seen.len(), n - 1, "one selection per step");
    for (step, values) in seen.iter().enumerate() {
        let visited = &tour.order[..=step];
        let current = tour.order[step];
        let t = visited.len();
        assert_eq!(values.len(), n, "step {step}: vector length");
        let non_zero = values.iter().filter(|&&v| v > 0.0).count();
        assert_eq!(non_zero, n - t, "step {step}: non-zero count");
        for (j, &value) in values.iter().enumerate() {
            if visited.contains(&j) {
                assert_eq!(value, 0.0, "step {step}: visited city {j}");
            } else {
                let expected = params.desirability(&instance, &pheromone, current, j);
                assert_eq!(
                    value.to_bits(),
                    expected.to_bits(),
                    "step {step}: city {j} from {current}"
                );
            }
        }
    }
}
