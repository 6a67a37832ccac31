//! Cross-shard batch-planner contract tests: the v2 layout must be a pure
//! function of `(snapshots, master draw)` — bit-identical at any fan-out
//! lane count and any `LRB_THREADS` budget, and pinned to a golden vector
//! — the two-level law must survive the parallel path statistically, and
//! `lrb-bench`'s `SequentialOracle` (the v1 sequential layout that the
//! `service_batch_speedup` gate times the planner against) must stay
//! draw-for-draw identical to a hand-rolled reference of that layout.

use lrb_bench::service_workload::SequentialOracle;
use lrb_core::sharding::TotalsCut;
use lrb_rng::{Philox4x32, RandomSource, SeedableSource};
use lrb_service::{ServiceConfig, ShardedService, ROUTE_LAYOUT_VERSION};
use lrb_stats::chi_square_gof;
use proptest::prelude::*;

/// Deterministic, mildly lumpy weights (a few zeros to keep the
/// zero-weight invariant honest).
fn test_weights(categories: usize) -> Vec<f64> {
    (0..categories)
        .map(|i| {
            if i % 17 == 3 {
                0.0
            } else {
                ((i % 29) + 1) as f64
            }
        })
        .collect()
}

fn service(categories: usize, shards: usize, fanout_workers: usize) -> ShardedService {
    ShardedService::new(
        test_weights(categories),
        ServiceConfig {
            shards,
            fanout_workers,
            ..ServiceConfig::default()
        },
    )
    .expect("planner test service construction cannot fail")
}

#[test]
fn route_layout_is_versioned_and_defaults_to_parallel() {
    assert_eq!(ROUTE_LAYOUT_VERSION, 2);
    // An explicit lane count: the auto budget reads `LRB_THREADS`, which
    // `v2_output_is_invariant_in_the_lrb_threads_budget` mutates.
    let service = service(64, 4, 2);
    assert!(service.fanout_lanes() >= 1);
}

/// The first 32 indices of a 2 048-draw batch over `service(384, 6, _)`
/// from `Philox4x32::seed_from_u64(0x0601_DE11)` under layout v2. Any
/// change here is a `ROUTE_LAYOUT_VERSION` bump, not a refactor.
const V2_GOLDEN: [usize; 32] = [
    340, 276, 250, 186, 255, 337, 109, 150, 15, 164, 85, 303, 42, 251, 349, 274, 277, 260, 196,
    138, 280, 114, 335, 212, 110, 227, 138, 11, 315, 302, 137, 365,
];

#[test]
fn v2_output_matches_the_golden_vector_at_every_lane_count() {
    // 2 048 draws clear the inline threshold, so lanes = 2 takes the
    // pooled fan-out path and lanes = 1 the inline one.
    for lanes in [1usize, 2] {
        let service = service(384, 6, lanes);
        let mut rng = Philox4x32::seed_from_u64(0x0601_DE11);
        let mut out = vec![0usize; 2_048];
        service
            .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
            .expect("golden batch draw failed");
        assert_eq!(out[..32], V2_GOLDEN, "lanes {lanes}");
    }
}

proptest! {
    /// The tentpole determinism contract: the v2 output is invariant in
    /// the lane count. Lanes = 1 forces inline (sequential) execution, so
    /// this is also a parallel-vs-sequential-execution parity oracle;
    /// batches above the inline threshold exercise the pooled hand-off.
    #[test]
    fn prop_v2_output_is_invariant_across_lane_counts(
        seed: u64,
        small_batch in 1usize..192,
    ) {
        for batch in [small_batch, 2_048] {
            let mut reference: Option<Vec<usize>> = None;
            for lanes in [1usize, 2, 8] {
                let service = service(384, 6, lanes);
                let mut rng = Philox4x32::seed_from_u64(seed);
                let mut out = vec![0usize; batch];
                service
                    .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                    .expect("v2 batch draw failed");
                match &reference {
                    None => reference = Some(out),
                    Some(expected) => prop_assert_eq!(
                        expected,
                        &out,
                        "lane count changed v2 output (lanes {}, batch {})",
                        lanes,
                        batch
                    ),
                }
            }
        }
    }

    /// The bench's v1 oracle must be draw-for-draw identical to the
    /// service's historical batch path, reconstructed here from public
    /// pieces: the caller's RNG threads through one level-one pick per
    /// slot, then through each touched shard's fused fill in shard order,
    /// and the grouped fills scatter back to slot order.
    #[test]
    fn prop_v1_matches_the_handrolled_sequential_reference(
        seed: u64,
        batch in 1usize..512,
    ) {
        let categories = 300;
        let shards = 5;
        let service = service(categories, shards, 1);

        let mut expected = vec![0usize; batch];
        {
            let mut rng = Philox4x32::seed_from_u64(seed);
            let cut = TotalsCut::from_totals(service.shard_totals());
            let mut assignment = vec![0usize; batch];
            let mut counts = vec![0usize; shards];
            for slot in assignment.iter_mut() {
                let (shard, _) = cut
                    .pick_uniform(rng.next_f64())
                    .expect("live totals cannot be all-zero");
                *slot = shard;
                counts[shard] += 1;
            }
            // Shard starts within each shard's contiguous category range.
            let offsets: Vec<usize> = {
                let base = categories / shards;
                let extra = categories % shards;
                let mut offsets = vec![0usize];
                for s in 0..shards {
                    offsets.push(offsets[s] + base + usize::from(s < extra));
                }
                offsets
            };
            let mut buffer = Vec::new();
            for (shard, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                buffer.resize(count, 0usize);
                service
                    .shard_engine(shard)
                    .read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))
                    .expect("reference shard fill failed");
                let mut filled = 0usize;
                for (slot, &owner) in assignment.iter().enumerate() {
                    if owner == shard {
                        expected[slot] = offsets[shard] + buffer[filled];
                        filled += 1;
                    }
                }
            }
        }

        let mut rng = Philox4x32::seed_from_u64(seed);
        let mut out = vec![0usize; batch];
        SequentialOracle::new(&service)
            .draw_into(&mut rng, &mut out)
            .expect("oracle batch draw failed");
        prop_assert_eq!(out, expected);
    }
}

#[test]
fn v2_output_is_invariant_in_the_lrb_threads_budget() {
    // `fanout_workers: 0` resolves the lane count from `LRB_THREADS`;
    // the drawn indices must not notice. (Only this test builds services
    // with the auto budget while mutating the variable; every other test
    // in this binary passes an explicit lane count.)
    let saved = std::env::var("LRB_THREADS").ok();
    let mut reference: Option<Vec<usize>> = None;
    for budget in ["1", "2", "8"] {
        std::env::set_var("LRB_THREADS", budget);
        let service = service(512, 8, 0);
        let mut rng = Philox4x32::seed_from_u64(0xBEEF);
        let mut out = vec![0usize; 4_096];
        service
            .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
            .expect("budgeted batch draw failed");
        match &reference {
            None => reference = Some(out),
            Some(expected) => {
                assert_eq!(expected, &out, "LRB_THREADS={budget} changed v2 output")
            }
        }
    }
    match saved {
        Some(value) => std::env::set_var("LRB_THREADS", value),
        None => std::env::remove_var("LRB_THREADS"),
    }
}

#[test]
fn two_level_law_survives_the_parallel_path() {
    // Chi-square conformance of the end-to-end two-level distribution
    // through the v2 planner with real fan-out (4 lanes, batches above
    // the inline threshold). Best of two seeds: a correct sampler fails
    // both at the 1% level with probability ~1e-4.
    let weights: Vec<f64> = (1..=24).map(f64::from).collect();
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let consistent = |seed: u64| {
        let service = ShardedService::new(
            weights.clone(),
            ServiceConfig {
                shards: 6,
                fanout_workers: 4,
                ..ServiceConfig::default()
            },
        )
        .expect("conformance service construction cannot fail");
        let mut rng = Philox4x32::seed_from_u64(seed);
        let mut counts = vec![0u64; weights.len()];
        let mut out = vec![0usize; 4_096];
        for _ in 0..8 {
            service
                .draw_into(&mut rng as &mut dyn RandomSource, &mut out)
                .expect("conformance batch draw failed");
            for &index in &out {
                counts[index] += 1;
            }
        }
        chi_square_gof(&counts, &probs).is_consistent(0.01)
    };
    assert!(
        consistent(0x2E11) || consistent(0x2E12),
        "two-level law failed chi-square through the parallel planner twice"
    );
}
