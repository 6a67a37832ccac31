//! The adaptive serving engine end to end: publish-time backend switching
//! driven by the served-draws telemetry.
//!
//! ```text
//! cargo run --example engine_adaptive
//! ```
//!
//! The decider prices every publish window as `freeze + draws · per_draw`
//! per backend and takes the cheapest. `draws` is not a guess: it is an
//! EWMA of how many draws each outgoing snapshot actually served. On
//! Zipf-skewed weights (too skewed for stochastic acceptance) the contest
//! is the Fenwick tree's cheap build against the alias table's cheap draws.
//! Readers hammering one snapshot pull the next publish onto the alias
//! table; a burst of write-only publishes decays the EWMA until the Fenwick
//! tree's build (and incremental patch) wins again.

use lrb_engine::{BackendChoice, EngineConfig, SelectionEngine};
use lrb_rng::Philox4x32;

fn main() -> Result<(), lrb_core::SelectionError> {
    let n = 4096usize;
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
    let engine = SelectionEngine::new(
        weights,
        EngineConfig {
            backend: BackendChoice::Auto,
            expected_draws_per_publish: 64.0,
            ..EngineConfig::default()
        },
    )?;
    println!(
        "v0 opens on '{}' (hint: {} draws/publish)",
        engine.snapshot().backend(),
        engine.config().expected_draws_per_publish
    );

    // One small write per publish; category 0 (the maximum) is left alone
    // so the skew stays put and only the draw rate moves the decider.
    let mut step = 0usize;
    let mut write_and_publish = || -> Result<u64, lrb_core::SelectionError> {
        step += 1;
        let index = 1 + (step * 31) % (n - 1);
        engine.enqueue(index, 1.0 / (index + 1) as f64 + 1.0e-3)?;
        engine.publish()
    };

    // Readers fill buffers lock-free; the snapshot's served counter is the
    // telemetry the next publish reads.
    let mut rng = Philox4x32::for_substream(2024, 1);
    let mut buffer = vec![0usize; 4096];
    for _ in 0..64 {
        engine.read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer))?;
    }
    println!(
        "readers served {} draws from v0 — far past the hint",
        engine.read(|snapshot| snapshot.served())
    );
    let version = write_and_publish()?;
    println!(
        "publish -> v{version} on '{}' (observed {:.0} draws/publish)",
        engine.snapshot().backend(),
        engine.observed_draws_per_publish()
    );

    // A write burst: publishes that serve no draws. Each one folds a zero
    // into the EWMA until cheap builds win again.
    let start = engine.stats().backend_switches;
    for _ in 0..64 {
        write_and_publish()?;
        if engine.stats().backend_switches > start {
            break;
        }
    }
    println!(
        "write burst -> v{} on '{}' (observed {:.0} draws/publish)",
        engine.version(),
        engine.snapshot().backend(),
        engine.observed_draws_per_publish()
    );
    for _ in 0..8 {
        write_and_publish()?;
    }

    println!("\nswitch history:");
    for s in engine.switch_history() {
        println!(
            "  v{:<4} {} -> {} ({} draws served)",
            s.version, s.from, s.to, s.draws_served
        );
    }
    let stats = engine.stats();
    println!(
        "\nstats: {} publishes, {} switches, {} patched",
        stats.publishes, stats.backend_switches, stats.patched
    );
    Ok(())
}
