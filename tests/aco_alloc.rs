//! Allocation accounting for one-shot tour construction.
//!
//! `construct_tour` keeps one fitness buffer, one unvisited list and one
//! position map per tour and moves the buffer through `Fitness` at every
//! step instead of copying it, so the allocator traffic of a tour is a
//! constant that does not grow with the number of steps. This test installs
//! a counting global allocator and asserts that a tour over 64 cities and a
//! tour over 512 cities touch the allocator equally often, with selectors
//! whose `select` allocates nothing.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocator_events;

use lrb_aco::{construct_tour, AntParams, PheromoneMatrix, Tour, TspInstance};
use lrb_core::parallel::LogBiddingSelector;
use lrb_core::sequential::LinearScanSelector;
use lrb_core::Selector;
use lrb_rng::{MersenneTwister64, SeedableSource};

/// Allocator events of one `construct_tour` call on an `n`-city instance
/// (the returned tour is dropped outside the count).
fn events_per_tour(n: usize, params: &AntParams, selector: &dyn Selector) -> u64 {
    let instance = TspInstance::random_euclidean(n, 5);
    let pheromone = PheromoneMatrix::new(n, 1.0);
    let mut rng = MersenneTwister64::seed_from_u64(9);
    let mut tour = || -> Tour {
        construct_tour(&instance, &pheromone, params, selector, 0, &mut rng)
            .expect("construction cannot fail on a valid instance")
    };
    // Warm-up: fault in any lazy state the first call performs.
    assert!(tour().is_valid(n));
    let (events, built) = allocator_events(&mut tour);
    assert!(built.is_valid(n));
    events
}

#[test]
fn tour_allocations_do_not_grow_with_the_city_count() {
    let exploit = AntParams {
        q0: 0.5,
        ..AntParams::default()
    };
    for (label, params) in [("ant system", AntParams::default()), ("q0 = 0.5", exploit)] {
        for selector in [
            &LinearScanSelector as &dyn Selector,
            &LogBiddingSelector::default(),
        ] {
            let small = events_per_tour(64, &params, selector);
            let large = events_per_tour(512, &params, selector);
            assert_eq!(
                small,
                large,
                "{label}, {}: {small} allocator events at n = 64 but {large} at n = 512",
                selector.name()
            );
        }
    }
}
