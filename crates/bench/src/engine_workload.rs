//! Closed-loop reader/writer throughput driver for the `lrb-engine`
//! serving layer — the workload behind the `engine_quick` gate and the
//! `BENCH_engine.json` baseline.
//!
//! N reader threads sample as fast as they can, each against its own cloned
//! snapshot (re-snapshotting every few draws); writer threads pace
//! themselves off the global sample counter to hold a configured
//! update:sample ratio, enqueue coalescing weight overrides and publish
//! snapshots in batches. Because readers never lock anything after cloning
//! the `Arc`, sample throughput should scale with reader threads while the
//! writer publishes concurrently — the property the `engine_quick` gate
//! checks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One cache line per counter: readers bump private cells, the writer sums
/// them — mirroring the engine's sharded served counter so the measurement
/// harness itself does not introduce the bounce it is measuring.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

use lrb_engine::{BackendChoice, EngineConfig, SelectionEngine};
use lrb_obs::HistogramSnapshot;
use lrb_rng::{Philox4x32, RandomSource};
use lrb_stats::chi_square_gof;
use serde::Serialize;

/// Workload shape for one driver run.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Number of weight categories `n`.
    pub categories: usize,
    /// Reader (sampling) threads.
    pub readers: usize,
    /// Writer (updating/publishing) threads.
    pub writers: usize,
    /// Target update:sample ratio, expressed as samples per update
    /// (`16` means a 1:16 update:sample mix).
    pub samples_per_update: u64,
    /// Coalesced updates folded into each published snapshot.
    pub updates_per_publish: u64,
    /// Draws a reader serves from one snapshot before re-snapshotting.
    pub snapshot_every: u64,
    /// Wall-clock measurement window.
    pub duration_ms: u64,
    /// Category skew: `0.0` for uniform initial weights, `s > 0` for
    /// Zipf-distributed weights `w_i ∝ 1/(i+1)^s`.
    pub zipf_exponent: f64,
    /// Snapshot backend selection.
    pub backend: BackendChoice,
    /// Sampled reader timing: each reader thread times one in this many
    /// snapshot acquisitions (`0` disables, the uninstrumented baseline;
    /// see `EngineConfig::reader_timing_every`).
    pub reader_timing_every: u32,
    /// Master seed for every thread's Philox stream.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            categories: 4096,
            readers: 1,
            writers: 1,
            samples_per_update: 16,
            updates_per_publish: 32,
            snapshot_every: 64,
            duration_ms: 250,
            zipf_exponent: 0.0,
            backend: BackendChoice::Auto,
            reader_timing_every: 0,
            seed: 2024,
        }
    }
}

/// Percentile summary of one engine latency histogram (serialisable for
/// `BENCH_engine.json`).
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Spans recorded.
    pub count: u64,
    /// Mean nanoseconds.
    pub mean_ns: f64,
    /// Median nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile nanoseconds.
    pub p999_ns: u64,
    /// Largest recorded span, nanoseconds.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarise an observability histogram snapshot.
    pub fn from_snapshot(snapshot: &HistogramSnapshot) -> Self {
        Self {
            count: snapshot.count,
            mean_ns: snapshot.mean(),
            p50_ns: snapshot.p50(),
            p99_ns: snapshot.p99(),
            p999_ns: snapshot.p999(),
            max_ns: snapshot.max,
        }
    }
}

/// Measured outcome of one driver run (serialisable for
/// `BENCH_engine.json`).
#[derive(Debug, Clone, Serialize)]
pub struct DriverReport {
    /// Number of categories.
    pub categories: u64,
    /// Reader threads that ran.
    pub readers: u64,
    /// Writer threads that ran.
    pub writers: u64,
    /// Configured samples-per-update target.
    pub samples_per_update: u64,
    /// Zipf exponent of the initial weights (0 = uniform).
    pub zipf_exponent: f64,
    /// Backend of the final published snapshot.
    pub backend: String,
    /// Measured wall-clock seconds.
    pub duration_s: f64,
    /// Total draws served.
    pub samples: u64,
    /// Total weight overrides enqueued.
    pub updates: u64,
    /// Overrides coalesced away before publication.
    pub coalesced: u64,
    /// Snapshots published.
    pub publishes: u64,
    /// Publishes whose backend differed from the previous snapshot's.
    pub backend_switches: u64,
    /// Draws per second across all readers.
    pub samples_per_sec: f64,
    /// Achieved samples-per-update ratio (≈ the configured target once the
    /// loop warms up).
    pub achieved_samples_per_update: f64,
    /// Full `publish()` span distribution (nanoseconds).
    pub publish_latency: LatencySummary,
    /// Sampled per-draw reader latency (nanoseconds, amortised over each
    /// timed buffer; all-zero when `reader_timing_every` was 0).
    pub sample_latency: LatencySummary,
}

/// Initial weights for a skew setting: uniform at `zipf_exponent == 0`,
/// otherwise the Zipf family `w_i = 1/(i+1)^s`.
pub fn initial_weights(categories: usize, zipf_exponent: f64) -> Vec<f64> {
    if zipf_exponent <= 0.0 {
        return vec![1.0; categories];
    }
    (0..categories)
        .map(|i| ((i + 1) as f64).powf(-zipf_exponent))
        .collect()
}

/// Run one closed-loop measurement. Spawns `readers + writers` scoped
/// threads for `duration_ms`, then reports aggregate throughput.
pub fn run_driver(config: &DriverConfig) -> DriverReport {
    assert!(config.categories > 0, "need at least one category");
    assert!(config.readers > 0, "need at least one reader");
    assert!(config.samples_per_update > 0, "ratio must be positive");
    let weights = initial_weights(config.categories, config.zipf_exponent);
    let engine = SelectionEngine::new(
        weights.clone(),
        EngineConfig {
            backend: config.backend,
            expected_draws_per_publish: (config.samples_per_update
                * config.updates_per_publish.max(1)) as f64,
            reader_timing_every: config.reader_timing_every,
            ..EngineConfig::default()
        },
    )
    .expect("driver weights are valid");

    let stop = AtomicBool::new(false);
    let sample_cells: Vec<PaddedCounter> = (0..config.readers)
        .map(|_| PaddedCounter(AtomicU64::new(0)))
        .collect();
    let updates_claimed = AtomicU64::new(0);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for (reader, samples_total) in sample_cells.iter().enumerate() {
            let engine = &engine;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = Philox4x32::for_substream(config.seed, 1_000 + reader as u64);
                let mut sink = 0usize;
                // One buffer per snapshot hold: readers fill it lock-free
                // through `SelectionEngine::read` — on the steady state
                // that is one relaxed generation probe, a thread-local
                // cache hit and the backend's tight-loop primitive, with
                // no shared RMW and no allocation per buffer.
                let mut buffer = vec![0usize; config.snapshot_every.max(1) as usize];
                while !stop.load(Ordering::Relaxed) {
                    match engine.read(|snapshot| snapshot.sample_into(&mut rng, &mut buffer)) {
                        Ok(()) => {
                            for &index in &buffer {
                                sink ^= index;
                            }
                            samples_total
                                .0
                                .fetch_add(buffer.len() as u64, Ordering::Relaxed);
                        }
                        Err(_) => std::thread::yield_now(), // all-zero interregnum
                    }
                }
                std::hint::black_box(sink);
            });
        }
        for writer in 0..config.writers {
            let engine = &engine;
            let stop = &stop;
            let sample_cells = &sample_cells;
            let updates_claimed = &updates_claimed;
            let family = &weights;
            scope.spawn(move || {
                let mut rng = Philox4x32::for_substream(config.seed, 2_000_000 + writer as u64);
                let n = config.categories as u64;
                let mut since_publish = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Pace updates off the sample counters so the measured
                    // mix tracks the configured update:sample ratio.
                    let sampled: u64 = sample_cells
                        .iter()
                        .map(|cell| cell.0.load(Ordering::Relaxed))
                        .sum();
                    let target = sampled / config.samples_per_update;
                    if updates_claimed.load(Ordering::Relaxed) >= target {
                        if since_publish > 0 {
                            engine.publish().expect("driver weights stay valid");
                            since_publish = 0;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    updates_claimed.fetch_add(1, Ordering::Relaxed);
                    let index = rng.next_u64_below(n) as usize;
                    // New weights come from the same family (a uniformly
                    // chosen rank's weight), so the skew profile persists.
                    let new_weight = family[rng.next_u64_below(n) as usize];
                    engine.enqueue(index, new_weight).expect("index in range");
                    since_publish += 1;
                    if since_publish >= config.updates_per_publish.max(1) {
                        engine.publish().expect("driver weights stay valid");
                        since_publish = 0;
                    }
                }
                if since_publish > 0 {
                    engine.publish().expect("driver weights stay valid");
                }
            });
        }
        std::thread::sleep(Duration::from_millis(config.duration_ms));
        stop.store(true, Ordering::Relaxed);
    });

    let duration_s = started.elapsed().as_secs_f64();
    let samples: u64 = sample_cells
        .iter()
        .map(|cell| cell.0.load(Ordering::Relaxed))
        .sum();
    let stats = engine.stats();
    let obs = engine.observability();
    DriverReport {
        categories: config.categories as u64,
        readers: config.readers as u64,
        writers: config.writers as u64,
        samples_per_update: config.samples_per_update,
        zipf_exponent: config.zipf_exponent,
        backend: engine.snapshot().backend().to_string(),
        duration_s,
        samples,
        updates: stats.enqueued,
        coalesced: stats.coalesced,
        publishes: stats.publishes,
        backend_switches: stats.backend_switches,
        samples_per_sec: samples as f64 / duration_s.max(1e-9),
        achieved_samples_per_update: samples as f64 / (stats.enqueued.max(1)) as f64,
        publish_latency: LatencySummary::from_snapshot(&obs.publish_latency()),
        sample_latency: LatencySummary::from_snapshot(&obs.reader_draw_latency()),
    }
}

/// Shape of the deterministic skew-shifting scenario behind the adaptive
/// `engine_quick` gate.
#[derive(Debug, Clone, Copy)]
pub struct SkewShiftConfig {
    /// Number of weight categories `n`.
    pub categories: usize,
    /// Conformance draws served (and chi-square-tested) per phase.
    pub trials: u64,
    /// Spike publishes in the write-heavy phase (each publishes a handful
    /// of overrides and serves no draws, so the observed draw rate decays).
    pub spike_publishes: u64,
    /// Master seed for the per-phase conformance batches.
    pub seed: u64,
}

impl Default for SkewShiftConfig {
    fn default() -> Self {
        Self {
            categories: 4096,
            trials: 120_000,
            // Enough zero-draw publishes that the draws-per-publish EWMA
            // (alpha 0.2) decays to where the arg-min is build-cost
            // dominated. The uniform phase serves `2 · trials` draws (two
            // conformance seeds), so the EWMA after k spike publishes is
            // `2 · trials · 0.8^(k-1)`; at n = 4096 the switch off the
            // alias table onto the Fenwick tree lands at v27. The decider
            // is closed-form, so that version is the same on every host;
            // the remaining spike publishes leave the Fenwick tree serving
            // the spike phase with a wide margin.
            spike_publishes: 80,
            seed: 2024,
        }
    }
}

/// One phase of the skew-shift scenario: which backend served it and how
/// the served draws conformed to the exact distribution.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseReport {
    /// Phase name (`uniform`, `spike`, `recover`).
    pub phase: String,
    /// Backend of the snapshot that served this phase's draws.
    pub backend: String,
    /// Conformance draws served.
    pub trials: u64,
    /// Chi-square goodness-of-fit p-value of the served draws against the
    /// snapshot's exact probabilities (best of two seeds, so an unlucky
    /// seed cannot fail a healthy sampler; a genuinely biased one fails
    /// both).
    pub chi_square_p: f64,
}

/// One recorded backend switch (mirror of `lrb_engine::BackendSwitch`,
/// serialisable for `BENCH_engine.json`).
#[derive(Debug, Clone, Serialize)]
pub struct SwitchReport {
    /// Version that introduced the new backend.
    pub version: u64,
    /// Previous backend.
    pub from: String,
    /// New backend.
    pub to: String,
    /// Draws the outgoing snapshot had served.
    pub draws_served: u64,
}

/// Outcome of [`run_skew_shift`].
#[derive(Debug, Clone, Serialize)]
pub struct SkewShiftReport {
    /// Per-phase backends and conformance.
    pub phases: Vec<PhaseReport>,
    /// Every backend switch the decider made, oldest first.
    pub switches: Vec<SwitchReport>,
    /// The observed draws-per-publish EWMA at the end of the run.
    pub observed_draws_per_publish: f64,
}

/// Serve one conformance phase: deterministic batch draws against the
/// current snapshot, chi-square-tested against its exact probabilities.
fn conformance_phase(engine: &SelectionEngine, phase: &str, trials: u64, seed: u64) -> PhaseReport {
    let snapshot = engine.snapshot();
    let probs = snapshot.probabilities();
    // Best of two seeds: the gate should flag a biased sampler (which fails
    // every seed), not an unlucky 1%-tail draw.
    let p = [seed, seed ^ 0x9E37_79B9]
        .iter()
        .map(|&s| {
            let counts = snapshot
                .batch_counts(trials, s)
                .expect("phase weights have positive mass");
            chi_square_gof(&counts, &probs).p_value
        })
        .fold(0.0f64, f64::max);
    PhaseReport {
        phase: phase.to_string(),
        backend: snapshot.backend().to_string(),
        trials,
        chi_square_p: p,
    }
}

/// Run the skew-shifting workload that the adaptive gate checks: a
/// draw-heavy uniform phase, a write-heavy phase that spikes a handful of
/// categories to degenerate skew while the observed draw rate decays, and a
/// draw-heavy uniform recovery. The decider must switch backends at least once, and
/// every phase's served draws must stay chi-square-consistent with the
/// exact probabilities — conformance is maintained **across** the
/// switches.
pub fn run_skew_shift(config: &SkewShiftConfig) -> SkewShiftReport {
    let n = config.categories;
    assert!(n >= 16, "the scenario needs a non-trivial category count");
    let engine = SelectionEngine::new(
        vec![1.0; n],
        EngineConfig {
            backend: BackendChoice::Auto,
            expected_draws_per_publish: config.trials as f64,
            ..EngineConfig::default()
        },
    )
    .expect("scenario weights are valid");

    let mut phases = Vec::new();

    // Phase 1 — draw-heavy, uniform: cheap-draw backends win.
    phases.push(conformance_phase(
        &engine,
        "uniform",
        config.trials,
        config.seed,
    ));

    // Phase 2 — write-heavy skew shift: eight fixed categories spike to
    // `n/2`-fold weight (skew `≈ n/10`, far past where stochastic
    // acceptance pays) while publishes serve no draws, so the
    // draws-per-publish EWMA collapses and cheap builds win. The spike set
    // is small and the weight moderate so every base category's expected
    // conformance count stays at or above the chi-square validity floor.
    // Then serve conformance draws from whatever backend the decider
    // landed on.
    let spike_weight = (n / 2) as f64;
    let mut spike_rng = Philox4x32::for_substream(config.seed, 7_000);
    let spike_set: Vec<usize> = (0..8)
        .map(|_| spike_rng.next_u64_below(n as u64) as usize)
        .collect();
    for step in 0..config.spike_publishes {
        for lane in 0..2 {
            let index = spike_set[((2 * step + lane) % 8) as usize];
            // Jitter keeps every publish a real weight change.
            let weight = spike_weight + (step % 5) as f64;
            engine.enqueue(index, weight).expect("index in range");
        }
        engine.publish().expect("spike weights stay valid");
    }
    phases.push(conformance_phase(
        &engine,
        "spike",
        config.trials,
        config.seed + 1,
    ));

    // Phase 3 — recovery: restore uniform weights and serve draw-heavy
    // windows again; the observed rate climbs back and cheap draws win.
    let restore: Vec<(usize, f64)> = (0..n).map(|i| (i, 1.0)).collect();
    engine.enqueue_many(&restore).expect("restore is in range");
    engine.publish().expect("restore weights are valid");
    phases.push(conformance_phase(
        &engine,
        "recover",
        config.trials,
        config.seed + 2,
    ));

    SkewShiftReport {
        phases,
        switches: engine
            .switch_history()
            .into_iter()
            .map(|s| SwitchReport {
                version: s.version,
                from: s.from.to_string(),
                to: s.to.to_string(),
                draws_served: s.draws_served,
            })
            .collect(),
        observed_draws_per_publish: engine.observed_draws_per_publish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_and_zipf_weights_have_the_right_shape() {
        let uniform = initial_weights(100, 0.0);
        assert_eq!(uniform, vec![1.0; 100]);
        let zipf = initial_weights(100, 1.0);
        assert_eq!(zipf.len(), 100);
        assert!((zipf[0] - 1.0).abs() < 1e-12);
        assert!((zipf[9] - 0.1).abs() < 1e-12);
        assert!(zipf.windows(2).all(|w| w[0] >= w[1]), "zipf is decreasing");
    }

    #[test]
    fn a_short_run_samples_and_publishes() {
        let report = run_driver(&DriverConfig {
            categories: 256,
            readers: 2,
            duration_ms: 60,
            samples_per_update: 4,
            updates_per_publish: 8,
            ..DriverConfig::default()
        });
        assert!(report.samples > 0, "no draws served");
        assert!(report.updates > 0, "writer never ran");
        assert!(report.publishes > 0, "nothing published");
        assert!(report.samples_per_sec > 0.0);
        assert_eq!(report.readers, 2);
        // The pacing loop keeps the achieved mix within a factor of the
        // target (exact convergence needs a longer window).
        assert!(
            report.achieved_samples_per_update >= 1.0,
            "more updates than samples at a 1:4 target: {report:?}"
        );
    }

    #[test]
    fn skew_shift_scenario_switches_backends_and_stays_conformant() {
        let report = run_skew_shift(&SkewShiftConfig {
            categories: 1024,
            trials: 30_000,
            spike_publishes: 25,
            seed: 7,
        });
        assert_eq!(report.phases.len(), 3);
        assert!(
            !report.switches.is_empty(),
            "the decider never switched: {report:?}"
        );
        for phase in &report.phases {
            assert!(
                phase.chi_square_p > 0.01,
                "{} phase lost conformance: p = {}",
                phase.phase,
                phase.chi_square_p
            );
        }
    }

    #[test]
    fn instrumented_runs_record_latency_distributions() {
        let report = run_driver(&DriverConfig {
            categories: 256,
            duration_ms: 60,
            samples_per_update: 4,
            updates_per_publish: 8,
            reader_timing_every: 2,
            ..DriverConfig::default()
        });
        // The publish histogram and the publish counter are bumped together
        // under the pending lock, so they agree exactly.
        assert_eq!(report.publish_latency.count, report.publishes);
        assert!(report.publish_latency.p50_ns > 0, "publish spans take time");
        assert!(report.publish_latency.p999_ns >= report.publish_latency.p50_ns);
        assert!(
            report.sample_latency.count > 0,
            "1-in-2 reader timing recorded nothing: {report:?}"
        );
        assert!(report.sample_latency.max_ns >= report.sample_latency.p50_ns);

        // The uninstrumented baseline keeps the reader histogram empty.
        let baseline = run_driver(&DriverConfig {
            categories: 256,
            duration_ms: 40,
            ..DriverConfig::default()
        });
        assert_eq!(baseline.sample_latency.count, 0);
    }

    #[test]
    fn zipf_runs_use_the_skewed_family() {
        let report = run_driver(&DriverConfig {
            categories: 128,
            readers: 1,
            duration_ms: 40,
            zipf_exponent: 1.2,
            ..DriverConfig::default()
        });
        assert!(report.samples > 0);
        assert_eq!(report.zipf_exponent, 1.2);
    }
}
